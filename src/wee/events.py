"""Append-only execution trace with per-instance gap-free sequence numbers.

Records are emitted to an in-memory list and, when a path is given, flushed
to a JSON Lines file one record per line. A deterministic clock can be
injected to make whole traces byte-identical across runs.

Each line is exactly ``json.dumps(record.to_json(), sort_keys=True)``: the
seven keys in sorted order, ``", "`` and ``": "`` separators and ASCII
escapes. The writer builds it from a fixed template instead of encoding the
whole record. The details the engine emits with every activity are shared
module-level dicts whose JSON text is encoded once, at import; any other
detail goes through one prebuilt encoder. The file is written through: each
line reaches the OS in one write, and is flushed before the next record is
written.
"""

from __future__ import annotations

import io
import json
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
    seconds, nanoseconds = divmod(time.time_ns(), 1_000_000_000)
    return format_timestamp(seconds, nanoseconds // 1000)


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
        self._instance_json = _escape(instance_id)
        self._clock = clock or wall_clock
        self._lock = threading.Lock()
        self.seq = start_seq  # the last seq emitted
        self.records: list[EventRecord] = []
        self._listeners: list[Callable[[EventRecord], None]] = []
        self._fh = None
        self._owns_fh = False
        if path == "-":
            self._fh = sys.stdout
        elif path is not None:
            # a trace that continues at start_seq continues its file; each
            # line goes to the OS in one write, with no buffer in between
            raw = open(path, "ab" if start_seq > 0 else "wb", buffering=0)
            self._fh = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
            self._owns_fh = True

    def add_listener(self, fn: Callable[[EventRecord], None]) -> None:
        """Register a per-record callback; it runs on the emitting thread and
        must not block (set an event and do real work elsewhere)."""
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
        head = None
        if self._fh is not None:
            # the keys before "seq" need no lock; seq and wall_time must be
            # taken in seq order
            head = '{"branch": %s, "detail": %s, "instance": %s, "kind": %s, "position": %s' % (
                _escape(branch),
                _SHARED_JSON.get(id(detail)) or _encode_detail(detail),
                self._instance_json,
                _escape(kind),
                "null" if position is None else _escape(position),
            )
        with self._lock:
            self.seq += 1
            record = EventRecord(
                self.seq, self._clock(), self.instance_id, branch, position, kind, detail
            )
            self.records.append(record)
            if head is not None and self._fh is not None:  # close() may have run since
                wall_time = _escape(record.wall_time)
                self._fh.write('%s, "seq": %d, "wall_time": %s}\n' % (head, record.seq, wall_time))
                self._fh.flush()
        # outside the lock: listeners may trigger further emits
        for fn in self._listeners:
            fn(record)
        return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._owns_fh:
                self._fh.close()
            self._fh = None
