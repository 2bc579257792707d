"""Append-only execution trace with per-instance gap-free sequence numbers.

Records are emitted to an in-memory list and, when a path is given, written
to a JSON Lines file one record per line. A deterministic clock can be
injected to make whole traces byte-identical across runs.

Each line is exactly ``json.dumps(record.to_json(), sort_keys=True)``: the
seven keys in sorted order, ``", "`` and ``": "`` separators and ASCII
escapes. The writer builds it in one step from a template of its log and
the record's kind, in which the instance id and the kind are escaped once,
when the log is opened; seq and wall_time are taken under the log's lock,
in seq order. The details the engine emits with every activity are shared
module-level dicts whose JSON text is encoded once, at import; a
context_change detail shaped as the engine builds it is written from a
template of its own; any other detail goes through one prebuilt encoder.

The file is opened as a raw binary file with no buffer: each line reaches
the OS as ASCII bytes in one write, before emit returns. ``"-"`` writes the
lines to standard output instead, each flushed as it is written. A write
that fails never raises into the caller: the log keeps the first exception
as ``write_error``, closes its file and goes on recording in memory alone.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import threading
import time
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Callable, NamedTuple, Optional

KINDS = (
    "instance_start",
    "activity_start",
    "activity_end",
    "context_change",
    "branch_fork",
    "branch_join",
    "signal",
    "stop_acknowledged",
    "instance_finish",
    "instance_stop",
    "error",
)


class EventRecord(NamedTuple):
    seq: int
    wall_time: str
    instance: str
    branch: str
    position: Optional[str]
    kind: str
    detail: dict

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "wall_time": self.wall_time,
            "instance": self.instance,
            "branch": self.branch,
            "position": self.position,
            "kind": self.kind,
            "detail": self.detail,
        }


# EventRecord(...) without the NamedTuple's Python-level __new__
_new_record = functools.partial(tuple.__new__, EventRecord)


def record_from_json(obj: dict) -> EventRecord:
    return EventRecord(
        seq=obj["seq"],
        wall_time=obj["wall_time"],
        instance=obj["instance"],
        branch=obj["branch"],
        position=obj.get("position"),
        kind=obj["kind"],
        detail=obj.get("detail") or {},
    )


def read_jsonl(path: str | Path) -> list[EventRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(record_from_json(json.loads(line)))
    return records


# (seconds, "YYYY-MM-DDTHH:MM:SS") of the last second formatted. It only
# saves work: replaced as one tuple, it never pairs a second with another
# second's text, so every caller gets the same string with or without it.
_second_prefix: tuple[int, str] = (-1, "")


def format_timestamp(seconds: int, microseconds: int) -> str:
    """UTC time as ``datetime.isoformat()`` writes it, e.g.
    ``1970-01-01T00:00:01.000002+00:00``; no fraction when microseconds is 0."""
    global _second_prefix
    cached, prefix = _second_prefix
    if cached != seconds:
        prefix = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(seconds)[:6]
        _second_prefix = (seconds, prefix)
    if microseconds:
        return "%s.%06d+00:00" % (prefix, microseconds)
    return prefix + "+00:00"


class FixedClock:
    """Deterministic clock: one microsecond per tick from the epoch."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ticks = 0

    def __call__(self) -> str:
        with self._lock:
            self._ticks += 1
            ticks = self._ticks
        return format_timestamp(*divmod(ticks, 1_000_000))


def wall_clock() -> str:
    """The time now, as ``format_timestamp`` writes it."""
    global _second_prefix
    seconds, nanoseconds = divmod(time.time_ns(), 1_000_000_000)
    cached, prefix = _second_prefix
    if cached != seconds:
        prefix = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(seconds)[:6]
        _second_prefix = (seconds, prefix)
    microseconds = nanoseconds // 1000
    if microseconds:
        return "%s.%06d+00:00" % (prefix, microseconds)
    return prefix + "+00:00"


# Details go through one prebuilt C encoder (json.dumps(..., sort_keys=True)
# would build a new JSONEncoder per call).
if c_make_encoder is not None:
    _c_encode = c_make_encoder(
        None, json.JSONEncoder().default, _escape, None, ": ", ", ", True, False, True
    )

    def _encode_detail(detail: dict) -> str:
        """``json.dumps(detail, sort_keys=True)``."""
        return "".join(_c_encode(detail, 0))

else:  # pragma: no cover - interpreters without the _json accelerator
    _encode_detail = json.JSONEncoder(sort_keys=True).encode

# The JSON text of a value by its exact type, so that a bool is never
# written as an int; any other type, such as an int subclass, goes through
# the prebuilt encoder.
_VALUE_JSON = {
    str: _escape,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _value_json(value: object) -> str:
    return _VALUE_JSON.get(type(value), _encode_detail)(value)


_NAME_NEW_OLD = operator.itemgetter("name", "new", "old")
_CHANGE = '{"name": %s, "new": %s, "old": %s}'


@functools.lru_cache(maxsize=64)
def _changes_template(count: int) -> str:
    return '{"changes": [%s], "version": %%s}' % ", ".join([_CHANGE] * count)


def _encode_context_change(detail: dict) -> str:
    """``json.dumps(detail, sort_keys=True)``. A detail shaped as the engine
    builds it, ``{"changes": [{"name", "old", "new"}, ...], "version": int}``,
    is written from a template, in which ``%s`` writes an exact int as JSON
    does; any other detail goes through the prebuilt encoder."""
    changes, version = detail.get("changes"), detail.get("version")
    if len(detail) == 2 and type(changes) is list and type(version) is int:
        fields: list = []
        for change in changes:
            if type(change) is not dict or len(change) != 3:
                break
            try:
                name, new, old = _NAME_NEW_OLD(change)
            except KeyError:
                break
            # the common types are tested inline: a call costs more than they do
            fields += (
                _escape(name) if type(name) is str else _value_json(name),
                new if type(new) is int else _value_json(new),
                old if type(old) is int else _value_json(old),
            )
        else:
            fields.append(version)
            return _changes_template(len(changes)) % tuple(fields)
    return _encode_detail(detail)


# The details of every activity_start and activity_end record. Each is one
# object shared by all the records that carry it, so nothing may change it;
# emit() writes the text stored here when it is given one of these very
# objects (they live as long as the module, so their ids stay theirs).
START_CALL = {"type": "call"}
START_MANIPULATE = {"type": "manipulate"}
END_APPLIED = {"outcome": "applied"}
END_RESULT = {"outcome": "result"}
END_JUMP = {"outcome": "jump"}
END_STOP_SIGNAL = {"outcome": "stop_signal"}
SHARED_DETAILS = (START_CALL, START_MANIPULATE, END_APPLIED, END_RESULT, END_JUMP, END_STOP_SIGNAL)
_SHARED_JSON = {id(detail): _encode_detail(detail) for detail in SHARED_DETAILS}

# A line of each kind: branch, detail, position, seq and wall_time are left
# to fill in; the log fills in its instance id once, when it is opened
_LINE = (
    '{"branch": %%s, "detail": %%s, "instance": %s, "kind": %s, '
    '"position": %%s, "seq": %%d, "wall_time": %%s}\n'
)


class EventLog:
    """Thread-safe trace writer; one seq counter per instance."""

    def __init__(
        self,
        instance_id: str,
        path: Optional[str | Path] = None,
        clock: Optional[Callable[[], str]] = None,
        start_seq: int = 0,
    ):
        self.instance_id = instance_id
        self._clock = clock or wall_clock
        self._lock = threading.Lock()
        self.seq = start_seq  # the last seq emitted
        self.records: list[EventRecord] = []
        self._listeners: list[Callable[[EventRecord], None]] = []
        # the first exception a write raised; the file is closed after it
        self.write_error: Optional[Exception] = None
        self._fh = None
        self._raw = False  # the file takes bytes, not text
        self._lines: dict[str, str] = {}
        if path is None:
            return
        if path == "-":
            self._fh = sys.stdout
        else:
            # a trace that continues at start_seq continues its file
            self._fh = open(path, "ab" if start_seq > 0 else "wb", buffering=0)
            self._raw = True
        instance_json = _escape(instance_id).replace("%", "%%")
        self._lines = {kind: _LINE % (instance_json, _escape(kind)) for kind in KINDS}

    def add_listener(self, fn: Callable[[EventRecord], None]) -> None:
        """Register a per-record callback; it runs on the emitting thread and
        must not block (set an event and do real work elsewhere). It runs
        after the record is written, outside the log's lock, so it may emit;
        listeners of two branches may see their records out of seq order."""
        self._listeners.append(fn)

    def emit(
        self,
        kind: str,
        branch: str,
        position: Optional[str] = None,
        detail: Optional[dict] = None,
    ) -> EventRecord:
        assert kind in KINDS, f"unknown event kind {kind}"
        detail = detail or {}
        line = None
        if self._fh is not None:
            # the fields before seq need no lock; seq and wall_time must be
            # taken in seq order
            line = self._lines[kind]
            branch_json = _escape(branch)
            if kind == "context_change":
                detail_json = _encode_context_change(detail)
            else:
                detail_json = _SHARED_JSON.get(id(detail)) or _encode_detail(detail)
            position_json = "null" if position is None else _escape(position)
        with self._lock:
            self.seq = seq = self.seq + 1
            wall_time = self._clock()
            record = _new_record((seq, wall_time, self.instance_id, branch, position, kind, detail))
            self.records.append(record)
            fh = self._fh
            if line is not None and fh is not None:  # closed since, or a write failed
                line %= (branch_json, detail_json, position_json, seq, _escape(wall_time))
                try:
                    if self._raw:
                        data = line.encode()
                        written = fh.write(data)
                        while written < len(data):  # only ever short on a failing file
                            written += fh.write(data[written:])
                    else:
                        fh.write(line)
                        fh.flush()
                except (OSError, ValueError) as exc:
                    # the engine must not fail on its trace: it reads write_error
                    self.write_error = exc
                    self._close()
        # outside the lock: listeners may trigger further emits
        for fn in self._listeners:
            fn(record)
        return record

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        fh, self._fh = self._fh, None
        if self._raw and fh is not None:
            try:
                fh.close()
            except OSError:  # a failed write may leave the file unclosable
                pass
