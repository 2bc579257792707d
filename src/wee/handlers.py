"""Handler wrappers: the components call activities are delegated to.

A handler receives a HandlerCall (position, endpoint URI, evaluated
parameters, context snapshot, optional passthrough token) and answers with
exactly one outcome: Result values to commit, a Passthrough token (only
after stop_call), a Jump directive moving the thread of control, or a
Failure. stop_call is delivered from another thread while a call is blocked
and must make it resolve within a bounded grace period.
"""

from __future__ import annotations

import json
import random
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Union

import requests

from . import dsl
from .expressions import EvalError, Expr, Value, eval_expr, is_value


class HandlerCall(NamedTuple):
    position: str
    endpoint: str
    parameters: dict[str, Value]
    context: Mapping[str, Value]
    context_version: int
    passthrough: Optional[str] = None


@dataclass(frozen=True)
class Result:
    values: dict[str, Value] = field(default_factory=dict)


@dataclass(frozen=True)
class Passthrough:
    token: str


@dataclass(frozen=True)
class Jump:
    target: str


@dataclass(frozen=True)
class Failure:
    message: str


HandlerOutcome = Union[Result, Passthrough, Jump, Failure]


class HandlerWrapper:
    """Behavioral contract; implementations must be safe under concurrent calls."""

    def call(self, call: HandlerCall) -> HandlerOutcome:
        raise NotImplementedError

    def stop_call(self, position: str) -> None:
        """Ask the in-flight call at position to wind down; no-op if none."""


def _check_result_values(values: dict) -> dict[str, Value]:
    out: dict[str, Value] = {}
    for name, value in values.items():
        if not isinstance(name, str) or not is_value(value):
            raise ValueError(f"unsupported result value for '{name}': {value!r}")
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# Mock handler
# ---------------------------------------------------------------------------


class MockHandler(HandlerWrapper):
    """Deterministic scripted handler for tests and the pattern corpus.

    Script shape::

        {
          "positions": {
            "book_airline": [{"result": {"airline_cost": 4000}, "delay_ms": 5}],
            "work":         {"result": {}}            # single entry: repeats
          },
          "default":      {"result": {}},             # any unscripted position
          "passthroughs": {"p1": {"result": {...}}}   # stored outcomes by token
        }

    Entry keys: ``result`` | ``error`` | ``jump``; ``delay_ms`` (number or
    [lo, hi] range drawn from the seeded RNG); ``on_stop`` ("passthrough",
    the default, or "finish"); ``token`` (explicit passthrough token).
    Scripted delays are interrupted by stop_call.
    """

    def __init__(self, script: Optional[dict] = None, seed: Optional[int] = None):
        script = script or {}
        self._positions = dict(script.get("positions", {}))
        self._default = script.get("default")
        self._stored = dict(script.get("passthroughs", {}))
        self._seed = seed
        self._lock = threading.Lock()
        self._consumed: dict[str, int] = {}
        self.invocations: dict[str, int] = {}
        self._stop_events: dict[str, threading.Event] = {}

    @classmethod
    def from_file(cls, path: str | Path, seed: Optional[int] = None) -> "MockHandler":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh), seed=seed)

    def _entry_for(self, position: str) -> Optional[dict]:
        scripted = self._positions.get(position)
        if scripted is None:
            return dict(self._default) if self._default is not None else None
        if isinstance(scripted, dict):
            return dict(scripted)
        index = self._consumed.get(position, 0)
        if index >= len(scripted):
            return None
        self._consumed[position] = index + 1
        return dict(scripted[index])

    def _delay_ms(self, entry: dict, position: str, invocation: int) -> float:
        delay = entry.get("delay_ms", 0)
        if isinstance(delay, (list, tuple)):
            rng = random.Random(f"{self._seed}:{position}:{invocation}")
            return rng.uniform(delay[0], delay[1])
        return float(delay)

    def call(self, call: HandlerCall) -> HandlerOutcome:
        if call.passthrough is not None:
            stored = self._stored.get(call.passthrough)
            if stored is None:
                return Failure(f"unknown passthrough token '{call.passthrough}'")
            # replaying a stored result is not a new invocation
            return self._outcome_from(stored)

        with self._lock:
            entry = self._entry_for(call.position)
            invocation = self.invocations.get(call.position, 0)
            self.invocations[call.position] = invocation + 1
            stop = threading.Event()
            self._stop_events[call.position] = stop

        if entry is None:
            return Failure(f"no scripted outcome for position '{call.position}'")

        delay = self._delay_ms(entry, call.position, invocation)
        interrupted = stop.wait(delay / 1000.0) if delay > 0 else stop.is_set()

        with self._lock:
            self._stop_events.pop(call.position, None)

        if interrupted and entry.get("on_stop", "passthrough") == "passthrough":
            token = entry.get("token") or f"pt-{call.position}-{invocation}"
            return Passthrough(token)
        return self._outcome_from(entry)

    def _outcome_from(self, entry: dict) -> HandlerOutcome:
        if "error" in entry:
            return Failure(str(entry["error"]))
        if "jump" in entry:
            return Jump(str(entry["jump"]))
        try:
            return Result(_check_result_values(entry.get("result", {})))
        except ValueError as exc:
            return Failure(str(exc))

    def stop_call(self, position: str) -> None:
        with self._lock:
            event = self._stop_events.get(position)
        if event is not None:
            event.set()


# ---------------------------------------------------------------------------
# HTTP handler
# ---------------------------------------------------------------------------


@dataclass
class _StoredResponse:
    done: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[HandlerOutcome] = None


class HttpHandler(HandlerWrapper):
    """POSTs calls to their endpoint and maps the JSON response.

    Request body: ``{"position", "parameters", "context", "passthrough"}``.
    A 2xx response must carry ``{"result": {name: value, ...}}``. On
    stop_call the blocked call returns a Passthrough token immediately while
    the request finishes in the background; a later call with that token
    replays the stored response without contacting the service again.
    """

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._stop_events: dict[str, threading.Event] = {}
        self._stored: dict[str, _StoredResponse] = {}

    def call(self, call: HandlerCall) -> HandlerOutcome:
        if call.passthrough is not None:
            with self._lock:
                record = self._stored.get(call.passthrough)
            if record is None:
                return Failure(f"unknown passthrough token '{call.passthrough}'")
            if not record.done.wait(self.timeout):
                return Failure("stored call did not complete in time")
            return record.outcome  # type: ignore[return-value]

        # set by the worker when the response is in, or by stop_call
        wake = threading.Event()
        with self._lock:
            self._stop_events[call.position] = wake

        record = _StoredResponse()
        body = {
            "position": call.position,
            "parameters": call.parameters,
            "context": dict(call.context),
            "passthrough": None,
        }

        def worker() -> None:
            record.outcome = self._post(call.endpoint, body)
            record.done.set()
            wake.set()

        thread = threading.Thread(target=worker, name=f"http-{call.position}", daemon=True)
        thread.start()
        wake.wait()

        with self._lock:
            self._stop_events.pop(call.position, None)
            if record.done.is_set():
                return record.outcome  # type: ignore[return-value]
            token = uuid.uuid4().hex
            self._stored[token] = record
        return Passthrough(token)

    def _post(self, endpoint: str, body: dict) -> HandlerOutcome:
        try:
            response = requests.post(endpoint, json=body, timeout=self.timeout)
        except requests.RequestException as exc:
            return Failure(f"request failed: {exc}")
        if not 200 <= response.status_code < 300:
            return Failure(f"HTTP {response.status_code}")
        try:
            payload = response.json()
            values = payload["result"]
            if not isinstance(values, dict):
                raise ValueError("'result' is not an object")
            return Result(_check_result_values(values))
        except (ValueError, KeyError, TypeError) as exc:
            return Failure(f"malformed response: {exc}")

    def stop_call(self, position: str) -> None:
        with self._lock:
            event = self._stop_events.get(position)
        if event is not None:
            event.set()


# ---------------------------------------------------------------------------
# Trigger handler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerEvent:
    t: float
    key: str


def load_trigger_events(path: str | Path) -> list[TriggerEvent]:
    """Read a JSONL trigger event file of {"t": number, "key": string}."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                events.append(TriggerEvent(float(obj["t"]), str(obj["key"])))
    return events


class _Waiter:
    def __init__(self, key: str):
        self.key = key
        self.fired = threading.Event()
        self.stopped = False
        self.matched_live = False


class TriggerHandler(HandlerWrapper):
    """Blocks a call until a matching trigger event is available.

    Persistent mode stores events until some call consumes them, so arrival
    order does not matter. Transient mode withdraws events that arrive while
    no call is waiting; only a delivery during the blocked call fires it.
    The awaited key comes from the call's ``key`` parameter.
    """

    def __init__(self, mode: str, events: Optional[list[TriggerEvent]] = None):
        if mode not in ("persistent", "transient"):
            raise ValueError(f"unknown trigger mode '{mode}'")
        self.mode = mode
        self._lock = threading.Lock()
        self._stored: list[str] = []
        self._waiters: dict[str, _Waiter] = {}
        self.stored_matches = 0
        self.live_matches = 0
        self.withdrawn = 0
        for event in events or []:
            self.deliver(event.key)

    def deliver(self, key: str) -> None:
        with self._lock:
            for waiter in self._waiters.values():
                if waiter.key == key and not waiter.fired.is_set():
                    waiter.matched_live = True
                    waiter.fired.set()
                    return
            if self.mode == "persistent":
                self._stored.append(key)
            else:
                self.withdrawn += 1

    def is_waiting(self, position: str) -> bool:
        with self._lock:
            waiter = self._waiters.get(position)
            return waiter is not None and not waiter.fired.is_set()

    def call(self, call: HandlerCall) -> HandlerOutcome:
        key = call.parameters.get("key")
        if not isinstance(key, str):
            return Failure("trigger calls need a string 'key' parameter")

        with self._lock:
            if self.mode == "persistent" and key in self._stored:
                self._stored.remove(key)
                self.stored_matches += 1
                return Result({})
            waiter = _Waiter(key)
            self._waiters[call.position] = waiter

        waiter.fired.wait()

        with self._lock:
            self._waiters.pop(call.position, None)
        if waiter.stopped:
            return Passthrough(f"trigger-{call.position}-{uuid.uuid4().hex[:8]}")
        if waiter.matched_live:
            self.live_matches += 1
        return Result({})

    def stop_call(self, position: str) -> None:
        with self._lock:
            waiter = self._waiters.get(position)
            if waiter is not None and not waiter.fired.is_set():
                waiter.stopped = True
                waiter.fired.set()


# ---------------------------------------------------------------------------
# Jump handler
# ---------------------------------------------------------------------------


class JumpHandler(HandlerWrapper):
    """Decides thread-of-control jumps from conditions over the context.

    The table maps a position to ``{"condition": <expr>, "target": <pos>}``.
    A call at a listed position returns Jump(target) when the condition
    holds against the call's context snapshot, otherwise an empty Result.
    Unlisted positions always get an empty Result.
    """

    def __init__(self, table: Mapping[str, Mapping[str, str]]):
        self._table: dict[str, tuple[Expr, str]] = {}
        for position, entry in table.items():
            self._table[position] = (
                dsl.parse_expression(entry["condition"]),
                entry["target"],
            )
        self.invocations: dict[str, int] = {}
        self._lock = threading.Lock()

    def call(self, call: HandlerCall) -> HandlerOutcome:
        with self._lock:
            self.invocations[call.position] = self.invocations.get(call.position, 0) + 1
        entry = self._table.get(call.position)
        if entry is None:
            return Result({})
        condition, target = entry
        try:
            decision = eval_expr(condition, call.context)
        except EvalError as exc:
            return Failure(f"jump condition at '{call.position}': {exc}")
        if decision is True:
            return Jump(target)
        if decision is False:
            return Result({})
        return Failure(f"jump condition at '{call.position}' is not boolean")


# ---------------------------------------------------------------------------
# Recursive handler
# ---------------------------------------------------------------------------


class RecursiveHandler(HandlerWrapper):
    """Runs a call as a fresh nested instance of a workflow.

    The nested workflow defaults to the one this handler was built with; a
    string ``workflow`` parameter overrides it. Remaining parameters override
    the nested instance's declared context initials, and the nested final
    context is returned as the Result. The ``depth`` parameter (default:
    max_depth) must stay positive: recursion without an exit condition fails
    once the budget is exhausted.
    """

    RESERVED = ("workflow", "depth")

    def __init__(self, source: Optional[str] = None, max_depth: int = 16):
        self.source = source
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self.invocations: dict[str, int] = {}
        self._active: dict[str, object] = {}

    def call(self, call: HandlerCall) -> HandlerOutcome:
        from .engine import WorkflowInstance  # here to avoid an import cycle

        with self._lock:
            self.invocations[call.position] = self.invocations.get(call.position, 0) + 1

        source = call.parameters.get("workflow", self.source)
        if not isinstance(source, str):
            return Failure("no workflow source for recursive call")
        depth = call.parameters.get("depth", self.max_depth)
        if type(depth) is not int:
            return Failure("'depth' must be an integer")
        if depth <= 0:
            return Failure("recursion depth exhausted")

        try:
            ast = dsl.parse(source)
        except dsl.ParseError as exc:
            return Failure(f"nested workflow does not parse: {exc}")

        overrides = {
            name: value
            for name, value in call.parameters.items()
            if name not in self.RESERVED
        }
        declared = {name for name, _ in ast.context_decls}
        unknown = sorted(set(overrides) - declared)
        if unknown:
            return Failure(f"parameters not declared in nested workflow: {unknown}")

        nested_handler = RecursiveHandler(source=source, max_depth=depth - 1)
        instance = WorkflowInstance(ast, nested_handler, initial_context=overrides)
        with self._lock:
            self._active[call.position] = instance
        try:
            result = instance.run()
        finally:
            with self._lock:
                self._active.pop(call.position, None)
        if result == "error":
            messages = [
                r.detail.get("message", "")
                for r in instance.log.records
                if r.kind == "error"
            ]
            return Failure(f"nested instance failed: {'; '.join(messages)}")
        # finished, or stopped via stop_call: the partial context is still a
        # final result (the stopping outer engine discards it from the flow)
        return Result(dict(instance.store.current_values()))

    def stop_call(self, position: str) -> None:
        with self._lock:
            instance = self._active.get(position)
        if instance is not None:
            instance.request_stop(source="controller")  # type: ignore[attr-defined]
