"""Append-only execution trace with per-instance gap-free sequence numbers.

Records are emitted to an in-memory list and, when a path is given, flushed
to a JSON Lines file one record per line. A deterministic clock can be
injected to make whole traces byte-identical across runs.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

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


@dataclass(frozen=True)
class EventRecord:
    seq: int
    wall_time: str
    instance: str
    branch: str
    position: Optional[str]
    kind: str
    detail: dict = field(default_factory=dict)

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


class FixedClock:
    """Deterministic clock: one microsecond per tick from the epoch."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ticks = 0

    def __call__(self) -> str:
        with self._lock:
            self._ticks += 1
            ticks = self._ticks
        stamp = datetime.fromtimestamp(ticks / 1_000_000, tz=timezone.utc)
        return stamp.isoformat()


def wall_clock() -> str:
    return datetime.now(timezone.utc).isoformat()


class EventLog:
    """Thread-safe trace writer; one seq counter per instance."""

    def __init__(
        self,
        instance_id: str,
        path: Optional[str | Path] = None,
        clock: Optional[Callable[[], str]] = None,
        start_seq: int = 0,
        append: bool = False,
    ):
        self.instance_id = instance_id
        self._clock = clock or wall_clock
        self._lock = threading.Lock()
        self._seq = start_seq
        self.records: list[EventRecord] = []
        self._listeners: list[Callable[[EventRecord], None]] = []
        self._fh = None
        self._owns_fh = False
        if path == "-":
            self._fh = sys.stdout
        elif path is not None:
            self._fh = open(path, "a" if append else "w", encoding="utf-8")
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
        with self._lock:
            self._seq += 1
            record = EventRecord(
                seq=self._seq,
                wall_time=self._clock(),
                instance=self.instance_id,
                branch=branch,
                position=position,
                kind=kind,
                detail=detail or {},
            )
            self.records.append(record)
            if self._fh is not None:
                self._fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
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
