"""Span recorder for the traced run, and the per-layer metrics it yields.

`Tracer.install` wraps the public entry points of each wee layer with a
span: name, start, end, parent span and the id of the instance the client
was running. The wrappers live here, so the program under test is not
edited; `uninstall` puts the originals back. Engine internals (fork, join,
critical sections, stop acknowledgement) are read from the engine's own
event records instead of being wrapped.

Spans are kept in memory as one flat array of floats and written out when
the run ends. A span's self time is its duration minus the time covered by
its child spans, which are the spans opened on the same thread while it
was open.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import weakref
from array import array
from datetime import datetime
from pathlib import Path
from typing import Callable, Optional

from wee import context, dsl, engine, events, handlers
from wee.patterns import harness

from stats import p50, tail

FIELDS = 6  # idx, name id, parent idx, instance id, start, end
NO_SPAN = -1
WARMUP_INSTANCE = -1
SETUP_INSTANCE = -2

# span name -> unit of its self-time metrics
TIMED_SPANS = {
    "dsl.parse": "ms",
    "dsl.validate": "ms",
    "expressions.eval": "us",
    "expressions.assign": "us",
    "context.commit": "us",
    "context.exclusive_wait": "us",
    "events.emit": "us",
    "handlers.call": "us",
    "engine.save": "ms",
    "engine.resume": "ms",
}
COUNTED_SPANS = {
    "expressions.eval": "expressions.eval_calls",
    "expressions.assign": "expressions.assign_calls",
    "context.commit": "context.commit_calls",
    "context.snapshot": "context.snapshot_calls",
    "events.emit": "events.emit_calls",
    "handlers.call": "handlers.call_calls",
    "handlers.stop_call": "handlers.stop_call_calls",
}
ENGINE_INTERVALS = ("fork", "join_wake", "critical_handoff", "critical_hold", "stop_ack")
SCALE = {"ms": 1e3, "us": 1e6}


class _TimedLock:
    """Context manager that records the wait to acquire a lock as a span."""

    __slots__ = ("_lock", "_acquire")

    def __init__(self, lock, acquire: Callable):
        self._lock = lock
        self._acquire = acquire

    def __enter__(self):
        self._acquire(self._lock)
        return self._lock

    def __exit__(self, *exc) -> None:
        self._lock.release()


class _InstanceSpan:
    """Root span of one client-side instance. Spans recorded until the next
    instance opens, its output checks included, carry this instance's id."""

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> None:
        self._tracer.current_instance = self._index
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.data.extend(
            (next(tracer._ids), tracer._name_id("instance"), NO_SPAN, self._index, self._start, end)
        )


class Tracer:
    def __init__(self) -> None:
        self.data = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._stopped = weakref.WeakSet()
        self.current_instance = WARMUP_INSTANCE
        # calls in flight when a stop was requested, and how many of them
        # came back as a Passthrough: the interrupted ratio
        self._active_calls: set[int] = set()
        self._caught_by_stop: set[int] = set()
        self.in_flight_at_stop = 0
        self.interrupted = 0
        # per-instance observations taken from event records
        self.intervals: dict[str, list[float]] = {k: [] for k in ENGINE_INTERVALS}
        self.retained_records: list[int] = []
        self.record_bytes: list[float] = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        local, data, ids, clock = self._local, self.data, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = next(ids)
            parent = stack[-1] if stack else NO_SPAN
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # one C call, so spans from different threads never interleave
                data.extend((idx, name_id, parent, self.current_instance, start, end))

        return traced

    def instance(self, index: int) -> _InstanceSpan:
        """Root span of one client-side instance, as a context manager."""
        return _InstanceSpan(self, index)

    # -- installing the wrappers -----------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))  # type: ignore[attr-defined]
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self._patch(dsl, "parse", self.span("dsl.parse", dsl.parse))
        self._patch(dsl, "validate", self.span("dsl.validate", dsl.validate))
        # the engine's own bindings: the outermost expression calls only
        self._patch(engine, "eval_expr", self.span("expressions.eval", engine.eval_expr))
        self._patch(
            engine,
            "apply_assignments",
            self.span("expressions.assign", engine.apply_assignments),
        )

        store = context.ContextStore
        self._patch(store, "commit", self.span("context.commit", store.commit))
        self._patch(store, "snapshot", self.span("context.snapshot", store.snapshot))
        exclusive = store.exclusive
        acquire = self.span("context.exclusive_wait", lambda lock: lock.acquire())

        def timed_exclusive(this):
            return _TimedLock(exclusive(this), acquire)

        self._patch(store, "exclusive", timed_exclusive)
        self._patch(events.EventLog, "emit", self.span("events.emit", events.EventLog.emit))

        handler_classes = [
            cls
            for cls in vars(handlers).values()
            if isinstance(cls, type) and issubclass(cls, handlers.HandlerWrapper)
        ] + [harness.SpawnerHandler]
        for cls in handler_classes:
            if "call" in cls.__dict__ and cls is not handlers.HandlerWrapper:
                self._patch(cls, "call", self._wrap_call(cls.__dict__["call"]))
            if "stop_call" in cls.__dict__:
                self._patch(
                    cls, "stop_call", self.span("handlers.stop_call", cls.__dict__["stop_call"])
                )

        instance_cls = engine.WorkflowInstance
        self._patch(instance_cls, "save", self.span("engine.save", instance_cls.save))
        resume = instance_cls.__dict__["resume"].__func__
        self._patch(instance_cls, "resume", classmethod(self.span("engine.resume", resume)))
        self._patch(instance_cls, "request_stop", self._wrap_request_stop(instance_cls.request_stop))

        self._patch(harness, "check_assertion", self.span("harness.check", harness.check_assertion))
        self._patch(harness, "replay_context", self.span("harness.check", harness.replay_context))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_call(self, fn: Callable) -> Callable:
        traced = self.span("handlers.call", fn)

        @functools.wraps(fn)
        def call(handler, request):
            key = id(request)
            with self._lock:
                self._active_calls.add(key)
            outcome = None
            try:
                outcome = traced(handler, request)
                return outcome
            finally:
                with self._lock:
                    self._active_calls.discard(key)
                    if key in self._caught_by_stop:
                        self._caught_by_stop.discard(key)
                        if isinstance(outcome, handlers.Passthrough):
                            self.interrupted += 1

        return call

    def _wrap_request_stop(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def request_stop(instance, *args, **kwargs):
            with self._lock:
                if instance not in self._stopped:
                    self._stopped.add(instance)
                    self.in_flight_at_stop += len(self._active_calls)
                    self._caught_by_stop |= self._active_calls
            return fn(instance, *args, **kwargs)

        return request_stop

    # -- observations from the event records -----------------------------

    def observe(
        self,
        records,
        trace_path: Optional[Path] = None,
        stop_requested_wall: Optional[float] = None,
    ) -> None:
        """Take engine intervals and record sizes from one instance's trace."""
        for kind, values in engine_intervals(records, stop_requested_wall).items():
            self.intervals[kind].extend(values)
        self.retained_records.append(len(records))
        if trace_path is not None:
            self.record_bytes.append(trace_path.stat().st_size / max(len(records), 1))
        elif records:
            sample = records[-50:]
            size = sum(len(json.dumps(r.to_json(), sort_keys=True)) + 1 for r in sample)
            self.record_bytes.append(size / len(sample))

    # -- results ---------------------------------------------------------

    def spans(self):
        data = self.data
        for i in range(0, len(data), FIELDS):
            idx, name, parent, inst, start, end = data[i : i + FIELDS]
            yield int(idx), self.names[int(name)], int(parent), int(inst), start, end

    def self_times(self) -> dict[str, array]:
        """name -> self times in seconds of the spans taken inside measured
        instances; parsing is set-up work, so every dsl.* span is kept."""
        data = self.data
        covered = array("d", [0.0]) * (next(self._ids) + 1)
        for i in range(0, len(data), FIELDS):
            parent = int(data[i + 2])
            if parent != NO_SPAN:
                covered[parent] += data[i + 5] - data[i + 4]
        keep_all = {i for i, name in enumerate(self.names) if name.startswith("dsl.")}
        out: dict[str, array] = {name: array("d") for name in self.names}
        for i in range(0, len(data), FIELDS):
            name_id = int(data[i + 1])
            if data[i + 3] >= 0 or name_id in keep_all:
                out[self.names[name_id]].append(
                    data[i + 5] - data[i + 4] - covered[int(data[i])]
                )
        return out

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, times in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx\tname\tparent\tinstance\tstart_us\tend_us\n")
            for idx, name, parent, inst, start, end in self.spans():
                fh.write(f"{idx}\t{name}\t{parent}\t{inst}\t{start * 1e6:.3f}\t{end * 1e6:.3f}\n")

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-layer figures; counts are per measured instance (or corpus pass)."""
        operations = max(operations, 1)
        self_times = self.self_times()
        metrics: dict[str, float] = {}
        for name, unit in TIMED_SPANS.items():
            values = [t * SCALE[unit] for t in self_times.get(name, ())]
            metrics[f"{name}_{unit}"] = p50(values)
            metrics[f"{name}_tail_{unit}"] = tail(values)[0]
        for name, metric in COUNTED_SPANS.items():
            metrics[metric] = len(self_times.get(name, ())) / operations
        metrics["harness.check_ms"] = sum(self_times.get("harness.check", ())) * 1e3 / operations
        metrics["handlers.interrupted_ratio"] = (
            self.interrupted / self.in_flight_at_stop if self.in_flight_at_stop else 0.0
        )
        for kind in ENGINE_INTERVALS:
            values = self.intervals[kind]
            metrics[f"engine.{kind}_us"] = p50(values)
            metrics[f"engine.{kind}_tail_us"] = tail(values)[0]
        metrics["events.bytes_per_record"] = p50(self.record_bytes)
        metrics["events.retained_records"] = (
            sum(self.retained_records) / len(self.retained_records) if self.retained_records else 0.0
        )
        return metrics


def _wall(record) -> float:
    return datetime.fromisoformat(record.wall_time).timestamp()


def engine_intervals(records, stop_requested_wall: Optional[float] = None) -> dict[str, list[float]]:
    """Engine hand-off times, in microseconds, read from one trace.

    fork: branch_fork to the child's first record. join_wake: a join's
    fire to the parent's next record. critical_handoff: critical_exit to
    the next critical_enter of the same section. critical_hold: enter to
    exit on one branch. stop_ack: the request_stop call to the
    stop_acknowledged record.
    """
    out: dict[str, list[float]] = {k: [] for k in ENGINE_INTERVALS}
    pending_fork: dict[str, float] = {}  # child id -> fork time
    pending_wake: dict[str, float] = {}  # parent id -> fire time
    last_exit: dict[str, float] = {}  # section -> exit time
    entered: dict[tuple[str, str], float] = {}  # (branch, section) -> enter time
    for record in records:
        kind, branch = record.kind, record.branch
        if branch in pending_fork:
            out["fork"].append((_wall(record) - pending_fork.pop(branch)) * 1e6)
        if branch in pending_wake and not (kind == "branch_join" and record.detail.get("role") == "fire"):
            out["join_wake"].append((_wall(record) - pending_wake.pop(branch)) * 1e6)
        if kind == "branch_fork":
            pending_fork[record.detail["child"]] = _wall(record)
        elif kind == "branch_join" and record.detail.get("role") == "fire":
            pending_wake[branch] = _wall(record)
        elif kind == "signal":
            signal = record.detail.get("signal")
            section = record.detail.get("section")
            if signal == "critical_enter":
                now = _wall(record)
                if section in last_exit:
                    out["critical_handoff"].append((now - last_exit.pop(section)) * 1e6)
                entered[(branch, section)] = now
            elif signal == "critical_exit":
                now = _wall(record)
                last_exit[section] = now
                start = entered.pop((branch, section), None)
                if start is not None:
                    out["critical_hold"].append((now - start) * 1e6)
        elif kind == "stop_acknowledged" and stop_requested_wall is not None:
            out["stop_ack"].append((_wall(record) - stop_requested_wall) * 1e6)
            stop_requested_wall = None
    return out
