"""Append-only execution trace with per-instance gap-free sequence numbers.

Records are emitted to an in-memory list and, when a path is given, written
to a JSON Lines file one record per line. A deterministic clock can be
injected to make whole traces byte-identical across runs.

Each line is exactly ``json.dumps(record.to_json(), sort_keys=True)``: the
seven keys in sorted order, ``", "`` and ``": "`` separators and ASCII
escapes. The writer builds it in one step from a template of its log and
the record's kind, in which the instance id and the kind are escaped once,
when the log is opened; seq and wall_time are taken under the log's lock,
in seq order. The stamps of the built-in clocks are JSON-safe and go into
the line as they are; those of any other clock are escaped. The details
the engine emits with every activity are shared module-level dicts whose
JSON text is encoded once, at import. The engine emits each context change
through emit_change, which writes the detail from a template of the
changed names, each escaped once, when the template is first built; any
other detail goes through one prebuilt encoder.

The file is opened as a raw binary file with no buffer: each line reaches
the OS as ASCII bytes in one write, before emit returns. ``"-"`` opens
standard output's descriptor the same way, and leaves it open at close. A
write that fails never raises into the caller: the log keeps the first
exception as ``write_error``, closes its file and goes on recording in
memory alone.
Nor does a listener that raises: the log keeps the first exception as
``listener_error`` and runs the other listeners.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

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
        return self._asdict()


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


# The last second formatted, and the last millisecond wall_clock read with
# the texts "000+00:00" to "999+00:00" that end its stamps, built at its
# first call. They only save work: each replaced as one tuple, neither pairs
# a time with another's text, so every caller gets the same string.
_second_prefix: tuple[int, str] = (-1, "")
_millisecond: tuple[int, str, tuple[str, ...]] = (-1, "", ())


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
    global _millisecond
    milliseconds, nanoseconds = divmod(time.time_ns(), 1_000_000)
    cached, prefix, ends = _millisecond
    if cached != milliseconds:
        seconds, fraction = divmod(milliseconds, 1000)
        prefix = "%s.%03d" % (format_timestamp(seconds, 0)[:-6], fraction)
        ends = ends or tuple(["%03d+00:00" % n for n in range(1000)])
        _millisecond = (milliseconds, prefix, ends)
    if nanoseconds >= 1000:
        return prefix + ends[nanoseconds // 1000]
    # microsecond 0 of a millisecond: no fraction if it starts a second
    return format_timestamp(*divmod(milliseconds * 1000, 1_000_000))


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


@functools.lru_cache(maxsize=256)
def _change_template(names: tuple[str, ...]) -> str:
    """The JSON text of a context_change detail that changes these names in
    this order, with its new and old values and its version left to fill in."""
    change = '{"name": %s, "new": %%s, "old": %%s}'
    changes = ", ".join([change % _escape(name).replace("%", "%%") for name in names])
    return '{"changes": [%s], "version": %%s}' % changes


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
# to fill in; the log fills in its instance id, the kind and the wall_time
# slot once, when it is opened
_LINE = (
    '{"branch": %%s, "detail": %%s, "instance": %s, "kind": %s, '
    '"position": %%s, "seq": %%d, "wall_time": %s}\n'
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
        # a built-in clock writes JSON-safe text, which needs no escape
        self._safe_clock = self._clock is wall_clock or type(clock) is FixedClock
        self._lock = threading.Lock()
        self.seq = start_seq  # the last seq emitted
        self.records: list[EventRecord] = []
        self._listeners: list[Callable[[EventRecord], None]] = []
        # the first exception a write raised; the file is closed after it
        self.write_error: Optional[Exception] = None
        self.listener_error: Optional[Exception] = None  # the first a listener raised
        self._fh = None
        self._lines: dict[str, str] = {}
        if path is None:
            return
        # a trace that continues at start_seq continues its file; "-" is
        # stdout's descriptor, which fails here if it is closed
        mode = "ab" if start_seq > 0 else "wb"
        if path == "-":
            self._fh = open(1, mode, buffering=0, closefd=False)
        else:
            self._fh = open(path, mode, buffering=0)
        instance_json = _escape(instance_id).replace("%", "%%")
        stamp = '"%s"' if self._safe_clock else "%s"
        self._lines = {kind: _LINE % (instance_json, _escape(kind), stamp) for kind in KINDS}

    def add_listener(self, fn: Callable[[EventRecord], None]) -> None:
        """Register a per-record callback; it runs on the emitting thread and
        must not block (set an event and do real work elsewhere). It runs
        after the record is written, outside the log's lock, so it may emit;
        listeners of two branches may see their records out of seq order.
        An Exception it raises never reaches the emitter (see listener_error)."""
        self._listeners.append(fn)

    def emit(
        self, kind: str, branch: str, position: Optional[str] = None, detail: Optional[dict] = None
    ) -> EventRecord:
        assert kind in KINDS, f"unknown event kind {kind}"
        detail = detail or {}
        text = None if self._fh is None else _SHARED_JSON.get(id(detail)) or _encode_detail(detail)
        return self._append(kind, branch, position, detail, text)

    def emit_change(
        self, branch: str, position: Optional[str], delta: Sequence[tuple], version: int
    ) -> EventRecord:
        """Emit the context_change record of a commit: delta holds its (name,
        old, new) changes in order, and version, an int, is that of its last
        change. The line is the one emit writes for the same detail."""
        changes = [{"name": name, "old": old, "new": new} for name, old, new in delta]
        detail = {"changes": changes, "version": version}
        text = None
        if self._fh is not None:
            names, fields = [], []
            for name, old, new in delta:  # %s writes an exact int as JSON does
                names.append(name)
                fields += (
                    new if type(new) is int else _value_json(new),
                    old if type(old) is int else _value_json(old),
                )
            fields.append(version)
            text = _change_template(tuple(names)) % tuple(fields)
        return self._append("context_change", branch, position, detail, text)

    def _append(
        self, kind: str, branch: str, position: Optional[str], detail: dict, text: Optional[str]
    ) -> EventRecord:
        """Append the record, write its line unless text, the JSON of its
        detail, is None (no file), and run the listeners."""
        if text is not None:
            # the fields before seq need no lock; seq and wall_time must be
            # taken in seq order
            line = self._lines[kind]
            branch_json = _escape(branch)
            position_json = "null" if position is None else _escape(position)
        with self._lock:
            self.seq = seq = self.seq + 1
            wall_time = self._clock()
            record = _new_record((seq, wall_time, self.instance_id, branch, position, kind, detail))
            self.records.append(record)
            fh = self._fh
            if text is not None and fh is not None:  # closed since, or a write failed
                stamp = wall_time if self._safe_clock else _escape(wall_time)
                line %= (branch_json, text, position_json, seq, stamp)
                try:
                    data = line.encode()
                    written = fh.write(data)
                    while written != len(data):  # only on a failing file
                        if written is None:  # a full stdout another process made non-blocking
                            raise BlockingIOError("stdout is full and does not block")
                        more = fh.write(data[written:])
                        written = None if more is None else written + more
                except (OSError, ValueError) as exc:
                    # the engine must not fail on its trace: it reads write_error
                    self.write_error = exc
                    self._close()
        # outside the lock: listeners may trigger further emits
        for fn in self._listeners:
            try:
                fn(record)
            except Exception as exc:  # the engine reads listener_error
                if self.listener_error is None:  # of two at once, either is kept
                    self.listener_error = exc
        return record

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:  # a failed write may leave the file unclosable
                pass
