"""Supervised context variables shared by all branches of one instance.

Every committed change is appended to an ordered change log; replaying the
log over the initial values reproduces the current values exactly. Commits
swap in a fresh values dict, so snapshots are plain reference reads and can
never observe half of a multi-assignment delta.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .expressions import Change, EvalError, Value, eval_expr


class ContextError(Exception):
    pass


class ChangeRecord(NamedTuple):
    seq: int
    position: str
    name: str
    old: Value
    new: Value


class Snapshot(NamedTuple):
    values: Mapping[str, Value]
    version: int


class ContextStore:
    """Name -> value map with a version counter and total-order change log."""

    def __init__(self, values: Mapping[str, Value], version: int = 0):
        self._lock = threading.RLock()
        self._state = (dict(values), version)
        self._log: list[ChangeRecord] = []
        self.initial_values: dict[str, Value] = dict(values)

    @classmethod
    def from_decls(cls, decls: Sequence[tuple[str, object]]) -> "ContextStore":
        """Evaluate declarations in order; each may reference earlier ones."""
        values: dict[str, Value] = {}
        for name, init in decls:
            if name in values:
                raise ContextError(f"duplicate context variable '{name}'")
            try:
                values[name] = eval_expr(init, values)  # type: ignore[arg-type]
            except EvalError as exc:
                raise ContextError(f"initializer of '{name}': {exc}") from exc
        return cls(values)

    @property
    def version(self) -> int:
        return self._state[1]

    @property
    def change_log(self) -> tuple[ChangeRecord, ...]:
        with self._lock:
            return tuple(self._log)

    def snapshot(self) -> Snapshot:
        # single attribute read: always a fully committed (values, version)
        values, version = self._state
        return Snapshot(MappingProxyType(values), version)

    def current_values(self) -> Mapping[str, Value]:
        return self._state[0]

    def exclusive(self):
        """Lock granting the exclusive commit right for read-modify-write."""
        return self._lock

    def commit(self, delta: Sequence[Change], position: str) -> int:
        """Append the delta as change records and advance the version.

        Every name is checked before anything changes: a rejected delta
        leaves the values, the version and the change log as they were.
        """
        with self._lock:
            values, version = self._state
            for change in delta:
                if change.name not in values:
                    raise ContextError(
                        f"change to undeclared context variable '{change.name}'"
                    )
            new_values = dict(values)
            records = []
            for name, old, new in delta:
                version += 1
                records.append(ChangeRecord(version, position, name, old, new))
                new_values[name] = new
            self._log.extend(records)
            self._state = (new_values, version)
            return version
