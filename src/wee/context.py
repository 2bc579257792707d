"""Supervised context variables shared by all branches of one instance.

Every committed change advances the version by one, so the changes form one
total order; the engine traces each commit as a context_change record, and
replaying those over the initial values reproduces the current values
exactly. Commits swap in a fresh values dict, so snapshots are plain
reference reads and can never observe half of a multi-assignment delta.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .expressions import Change, EvalError, Value, eval_expr


class ContextError(Exception):
    pass


class Snapshot(NamedTuple):
    values: Mapping[str, Value]
    version: int


class ContextStore:
    """Name -> value map with a version counter that counts every change."""

    def __init__(self, values: Mapping[str, Value], version: int = 0):
        self._lock = threading.RLock()
        self._state = (dict(values), version)
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

    def snapshot(self) -> Snapshot:
        # single attribute read: always a fully committed (values, version)
        values, version = self._state
        return Snapshot(MappingProxyType(values), version)

    def current_values(self) -> Mapping[str, Value]:
        return self._state[0]

    def state(self) -> tuple[dict[str, Value], int]:
        """(values, version) of the last commit, read at once; never change the dict."""
        return self._state

    def exclusive(self):
        """Lock granting the exclusive commit right for read-modify-write."""
        return self._lock

    def commit(self, delta: Sequence[Change], new_values: dict[str, Value]) -> int:
        """Install new_values, the values after the delta, advancing the
        version by one per change, and return the version of its last change.

        The caller holds the exclusive lock and builds new_values as a fresh
        dict from the current ones; the store takes that dict over without
        copying it. Every name is checked before anything changes: a
        rejected delta leaves the values and the version as they were.
        """
        with self._lock:
            values, version = self._state
            for change in delta:
                if change.name not in values:
                    raise ContextError(
                        f"change to undeclared context variable '{change.name}'"
                    )
            version += len(delta)
            self._state = (new_values, version)
            return version
