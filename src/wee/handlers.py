"""Handler wrappers: the components call activities are delegated to.

A handler receives a HandlerCall (call id, position, endpoint URI,
evaluated parameters, context snapshot, stop token, optional passthrough
token) and answers with exactly one outcome: Result values to commit, a
Passthrough token (only once the stop token is set), a Jump directive moving
the thread of control, or a Failure. The engine sets the call's stop token
from another thread, possibly before the handler has looked at it; the call
must then resolve within a bounded grace period. A Result or Jump returned
after the token is set is final, and the engine applies it at once: a call
whose work is only partly done answers with a Passthrough.
"""

from __future__ import annotations

import json
import os
import random
import threading
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from . import dsl
from .expressions import EvalError, Expr, FrozenRecord, Value, eval_expr, is_value


class StopToken:
    """The engine's request that one call wind down.

    The engine creates a token with each call and sets it on a stop, or when
    a join no longer needs the call's branch; a token set before the handler
    looks at it stays set. A token has one waiter, the call's own thread: a
    handler waits only on its call's token, and one that also waits for
    something else, such as a response or an event, has wake() end the wait.
    The engine's tokens have no condition: their wait blocks the call's
    branch as a join does, and set() or wake() wakes the branch.
    """

    def __init__(self) -> None:
        self._flag = False
        self._woken = False
        self._cond = threading.Condition(threading.Lock())

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        """Set the token; it stays set."""
        with self._cond:
            self._flag = True
            self._cond.notify_all()

    def wake(self) -> None:
        """End the wait on the token, or the next one, without setting it."""
        with self._cond:
            self._woken = True
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Wait until the token is set or woken, or the timeout runs out;
        True if the token is set."""
        with self._cond:
            self._cond.wait_for(lambda: self._flag or self._woken, timeout)
            return self._flag


class HandlerCall(NamedTuple):
    """One call to a handler.

    call_id is "<branch id>/<position>". A branch has at most one call in
    flight and keeps its id across save and resume, so the id names exactly
    one in-flight call even when several branches run the same position.
    """

    call_id: str
    position: str
    endpoint: str
    parameters: dict[str, Value]
    context: Mapping[str, Value]
    context_version: int
    stop: StopToken
    passthrough: Optional[str] = None


# outcomes are frozen records: Passthrough("t") != Failure("t")
_set = object.__setattr__


class Result(FrozenRecord):
    __slots__ = ("values",)

    def __init__(self, values: Mapping[str, Value] = MappingProxyType({})):
        _set(self, "values", values)


class Passthrough(FrozenRecord):
    __slots__ = ("token",)

    def __init__(self, token: str):
        _set(self, "token", token)


class Jump(FrozenRecord):
    __slots__ = ("target",)

    def __init__(self, target: str):
        _set(self, "target", target)


class Failure(FrozenRecord):
    __slots__ = ("message",)

    def __init__(self, message: str):
        _set(self, "message", message)


HandlerOutcome = Union[Result, Passthrough, Jump, Failure]


class HandlerWrapper:
    """Behavioral contract; implementations must be safe under concurrent calls."""

    def call(self, call: HandlerCall) -> HandlerOutcome:
        raise NotImplementedError

    def release(self, token: str) -> None:
        """No call will replay the passthrough token: drop what is kept for it.

        The engine calls it, perhaps more than once for one token, when it
        drops a token unreplayed: a cancel drops the branch that holds it, a
        cancelled call hands it back, a resume skips its call, or the
        instance ends in error. It holds its state lock meanwhile, so release
        must not block or call back into the engine; a raise is traced.
        """


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
    Scripted delays end early when the call's stop token is set.
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

    def _entry_for(self, position: str) -> Optional[dict]:
        # the script's own entry: nothing writes to it
        scripted = self._positions.get(position)
        if scripted is None:
            return self._default
        if isinstance(scripted, dict):
            return scripted
        index = self._consumed.get(position, 0)
        if index >= len(scripted):
            return None
        self._consumed[position] = index + 1
        return scripted[index]

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

        if entry is None:
            return Failure(f"no scripted outcome for position '{call.position}'")

        delay = self._delay_ms(entry, call.position, invocation)
        interrupted = call.stop.wait(delay / 1000.0) if delay > 0 else call.stop.is_set()

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


# ---------------------------------------------------------------------------
# HTTP handler
# ---------------------------------------------------------------------------


class _StoredResponse:
    __slots__ = ("outcome", "waiter")

    def __init__(self) -> None:
        # both guarded by the handler's lock
        self.outcome: Optional[HandlerOutcome] = None
        # the token of the call waiting for the response: the first call,
        # then a replay; the request thread wakes it once the response is in
        self.waiter: Optional[StopToken] = None


class HttpHandler(HandlerWrapper):
    """POSTs calls to their endpoint and maps the JSON response.

    Request body: ``{"position", "parameters", "context", "passthrough"}``.
    A 2xx response must carry ``{"result": {name: value, ...}}``. The request
    runs in a thread of its own, which wakes the waiting call's stop token
    once the response is in. Once the token is set, the blocked call returns
    a Passthrough token immediately while the request finishes in the
    background; a later call with that token replays the stored response
    without contacting the service again, and drops it, as release() does.
    A replay whose stop token is set before the response is in hands back
    the same token.
    """

    def __init__(self, timeout: float = 30.0):
        # the HTTP stack is a third of a cold start: only HTTP runs load it
        import urllib.request

        self._urllib = urllib.request
        self.timeout = timeout
        self._lock = threading.Lock()
        self._stored: dict[str, _StoredResponse] = {}

    def call(self, call: HandlerCall) -> HandlerOutcome:
        if call.passthrough is not None:
            with self._lock:
                record = self._stored.get(call.passthrough)
            if record is None:
                return Failure(f"unknown passthrough token '{call.passthrough}'")
            outcome = self._await(record, call.stop)
            if outcome is None:
                return Passthrough(call.passthrough)
            with self._lock:
                self._stored.pop(call.passthrough, None)
            return outcome

        record = _StoredResponse()
        body = {
            "position": call.position,
            "parameters": call.parameters,
            "context": dict(call.context),
            "passthrough": None,
        }

        def worker() -> None:
            try:
                outcome = self._post(call.endpoint, body)
            except Exception as exc:  # the call must end: a failure, not a hang
                outcome = Failure(f"request failed: {exc!r}")
            with self._lock:
                record.outcome, waiter = outcome, record.waiter
            if waiter is not None:
                waiter.wake()

        thread = threading.Thread(target=worker, name=f"http-{call.position}", daemon=True)
        thread.start()

        outcome = self._await(record, call.stop)
        if outcome is not None:
            return outcome
        token = os.urandom(16).hex()
        with self._lock:
            self._stored[token] = record
        return Passthrough(token)

    def release(self, token: str) -> None:
        with self._lock:
            self._stored.pop(token, None)

    def _await(self, record: _StoredResponse, stop: StopToken) -> Optional[HandlerOutcome]:
        """Wait until the response is in or stop is set; the response, or None."""
        with self._lock:
            record.waiter = stop
            outcome = record.outcome
        if outcome is None:
            stop.wait()  # until the request thread wakes it or a stop sets it
            with self._lock:
                outcome = record.outcome
        return outcome

    def _post(self, endpoint: str, body: dict) -> HandlerOutcome:
        if not endpoint.lower().startswith(("http://", "https://")):  # no file: or ftp:
            return Failure(f"request failed: not an HTTP URL: {endpoint!r}")
        if self.timeout is not None and not self.timeout >= 0:  # a socket that refuses it leaks
            raise ValueError(f"timeout {self.timeout!r} is out of range")
        data = json.dumps(body).encode()
        request = self._urllib.Request(endpoint, data, {"Content-Type": "application/json"})
        try:
            with self._urllib.urlopen(request, timeout=self.timeout) as response:
                payload = response.read()
        except self._urllib.HTTPError as exc:  # outside 2xx; a 301, 302 or 303 was followed
            return Failure(f"HTTP {exc.code}")
        except OSError as exc:  # refused, unreachable, timed out
            return Failure(f"request failed: {exc}")
        try:
            values = json.loads(payload)["result"]
            if not isinstance(values, dict):
                raise ValueError("'result' is not an object")
            return Result(_check_result_values(values))
        except (ValueError, KeyError, TypeError) as exc:
            return Failure(f"malformed response: {exc}")


# ---------------------------------------------------------------------------
# Trigger handler
# ---------------------------------------------------------------------------


def load_trigger_events(path: str | Path) -> list[str]:
    """The keys of a JSONL trigger event file of {"key": string}, in file order."""
    keys = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                keys.append(str(json.loads(line)["key"]))
    return keys


class TriggerHandler(HandlerWrapper):
    """Blocks a call until a matching trigger event is available.

    Persistent mode stores events until some call consumes them, so arrival
    order does not matter. Transient mode withdraws events that arrive while
    no call is waiting; only a delivery during the blocked call fires it.
    The awaited key comes from the call's ``key`` parameter. A blocked call
    waits on its stop token, which a matching delivery wakes.
    """

    def __init__(self, mode: str, keys: Iterable[str] = ()):
        if mode not in ("persistent", "transient"):
            raise ValueError(f"unknown trigger mode '{mode}'")
        self.mode = mode
        self._lock = threading.Lock()
        self._stored: list[str] = []
        # blocked calls: call id -> (awaited key, stop token); a delivery
        # takes its match out
        self._waiting: dict[str, tuple[str, StopToken]] = {}
        self.stored_matches = 0
        self.live_matches = 0
        self.withdrawn = 0
        for key in keys:  # delivered before any call waits
            self.deliver(key)

    def deliver(self, key: str) -> None:
        with self._lock:
            for call_id, (awaited, stop) in self._waiting.items():
                if awaited == key and not stop.is_set():
                    del self._waiting[call_id]
                    self.live_matches += 1
                    stop.wake()
                    return
            if self.mode == "persistent":
                self._stored.append(key)
            else:
                self.withdrawn += 1

    def is_waiting(self, call_id: str) -> bool:
        with self._lock:
            return call_id in self._waiting

    def call(self, call: HandlerCall) -> HandlerOutcome:
        key = call.parameters.get("key")
        if not isinstance(key, str):
            return Failure("trigger calls need a string 'key' parameter")

        with self._lock:
            if self.mode == "persistent" and key in self._stored:
                self._stored.remove(key)
                self.stored_matches += 1
                return Result({})
            self._waiting[call.call_id] = (key, call.stop)

        call.stop.wait()  # until a delivery wakes it or a stop sets it
        with self._lock:
            if self._waiting.pop(call.call_id, None) is None:
                return Result({})  # matched
        return Passthrough(f"trigger-{call.position}-{os.urandom(4).hex()}")


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
        self._table: dict[str, tuple[Expr, str]] = {
            position: (dsl.parse_expression(entry["condition"]), entry["target"])
            for position, entry in table.items()
        }
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

    The nested workflow defaults to the one this handler was built with,
    parsed once or handed down as ``ast``; a string ``workflow`` parameter
    overrides it for one call. Remaining parameters override the nested
    instance's declared context initials, and the nested final context is
    returned as the Result. The ``depth`` parameter (default: max_depth)
    must stay positive: recursion without an exit condition fails once the
    budget is exhausted. The call waits on its stop token, which the nested
    instance's terminal record wakes. When the token is set, the nested
    instance stops and the call returns a Passthrough token holding the
    nested saved state, its source and its depth budget as JSON, which the
    outer instance's instance_stop record keeps; a later call with that
    token, in this process or another (`wee resume LOG`), resumes the
    nested instance where it stopped.
    """

    RESERVED = ("workflow", "depth")

    def __init__(self, source: Optional[str] = None, max_depth: int = 16, ast=None):
        self.source = source
        self.max_depth = max_depth
        self.ast: Optional[dsl.WorkflowAst] = ast  # source parsed
        self._lock = threading.Lock()
        self.invocations: dict[str, int] = {}

    def call(self, call: HandlerCall) -> HandlerOutcome:
        from .engine import EngineError, WorkflowInstance  # here to avoid an import cycle

        if call.passthrough is not None:
            # resuming the stopped nested instance is not a new invocation
            try:
                parked = json.loads(call.passthrough)
                source, depth = parked["source"], parked["max_depth"]
                nested = RecursiveHandler(source, depth, dsl.parse(source))
                instance = WorkflowInstance.resume(nested.ast, nested, parked["saved"])
            except (ValueError, KeyError, TypeError, dsl.ParseError, EngineError) as exc:
                return Failure(f"bad passthrough token: {exc!r}")
            return self._run(call, instance)

        with self._lock:
            self.invocations[call.position] = self.invocations.get(call.position, 0) + 1

        own = "workflow" not in call.parameters
        source = call.parameters.get("workflow", self.source)
        if not isinstance(source, str):
            return Failure("no workflow source for recursive call")
        depth = call.parameters.get("depth", self.max_depth)
        if type(depth) is not int:
            return Failure("'depth' must be an integer")
        if depth <= 0:
            return Failure("recursion depth exhausted")

        ast = self.ast if own else None
        if ast is None:
            try:
                ast = dsl.parse(source)
            except dsl.ParseError as exc:
                return Failure(f"nested workflow does not parse: {exc}")
            if own:  # racing first calls each parse it: either AST serves
                self.ast = ast

        overrides = {k: v for k, v in call.parameters.items() if k not in self.RESERVED}
        declared = {name for name, _ in ast.context_decls}
        unknown = sorted(set(overrides) - declared)
        if unknown:
            return Failure(f"parameters not declared in nested workflow: {unknown}")

        nested_handler = RecursiveHandler(source, depth - 1, ast)
        return self._run(call, WorkflowInstance(ast, nested_handler, initial_context=overrides))

    def _run(self, call: HandlerCall, instance) -> HandlerOutcome:
        def ended(record) -> None:
            if record.kind in ("instance_finish", "instance_stop"):
                call.stop.wake()

        instance.log.add_listener(ended)
        instance.start()
        # until the nested terminal record wakes the token or a stop sets it
        if call.stop.wait():
            instance.request_stop()
        result = instance.wait()
        if result == "error":
            return Failure(f"nested instance failed: {'; '.join(instance.errors)}")
        if result == "stopped" and call.stop.is_set():
            # the partial context is no result: the token carries the nested
            # instance, so it survives in the outer instance's saved state
            nested = instance.handler
            parked = {
                "source": nested.source,
                "max_depth": nested.max_depth,
                "saved": instance.save(),
            }
            return Passthrough(json.dumps(parked, sort_keys=True))
        # finished, or stopped by its own workflow: the context is final
        return Result(dict(instance.store.current_values()))
