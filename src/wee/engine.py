"""Workflow instance execution.

One thread of control per branch: the root branch walks the workflow body,
and every parallel_branch forks a child branch that shares the context store
and the critical-section registry. Each live branch runs in a thread of its
own; a thread whose branch has ended is reused for a later branch. Joins
wait for all branches or for the first k. The losers and every live branch
below them (a branch id's prefix names its ancestors) receive a
no-longer-necessary signal at once and stand down at their next node
boundary; the stop tokens of their in-flight calls are set. A jump out of a
parallel body cancels the children forked so far the same way.
A stop signal parks every branch at its program counter so the instance can
be resumed later; the terminal instance_stop record carries the saved state.
It names the workflow by its source hash and keeps one map of the calls the
stop caught in flight: each left a passthrough token, or the result or jump
it ended with, and the resume replays or applies it instead of calling the
service again. Each call is named by its call id, the branch id and
position, so one position running in several branches at once is still
several calls to stop and to resume. resume() alone checks a saved state,
and the resumed instance continues the stopped one's id and seq.

Branch coordination uses one lock and one condition built on it per
instance. The lock guards the stop request, each branch's cancel flag and
in-flight call, the registries of live branches and open joins, the saved
paths and the critical-section owners; every change that can unblock a
waiter notifies the condition. Handlers are never called while the lock is
held; stop tokens are set under it. The engine keeps only live state: a
branch leaves the registry when it arrives at its join or ends, and a join
when it closes. The branch that leaves the registry last emits the terminal
record and closes the trace in the same locked section, so an instance ends
whether or not anyone waits on it, and no record follows its terminal one.

Under RunOptions(virtual_time=True) the branch threads take turns on a
virtual clock instead (see _Timeline): the same workflow, handler script and
seed then give the same trace on every run, and a scripted wait takes no
wall time.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import threading
import uuid
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional

from . import dsl, events
from .context import ContextError, ContextStore
from .events import EventLog
from .expressions import Change, EvalError, Value, apply_assignments, eval_expr, is_value
from .handlers import Failure, HandlerCall, HandlerWrapper, Jump, Passthrough, Result, StopToken

ROOT_BRANCH = "0"
STOP_ENDPOINT = "wee://stop"
# version of the saved-state format: 4 keeps one map of interrupted calls,
# the trace position and the workflow's source hash; a state without a
# schema was written by an older wee, which keyed passthroughs by position
SAVED_SCHEMA = 4


class EngineError(Exception):
    """Runtime failure of a workflow instance (aborts the run)."""


@dataclass
class RunOptions:
    max_iterations: int = 1_000_000
    instance_id: Optional[str] = None
    log_path: Optional[str] = None
    start_seq: int = 0  # a trace file is appended to when this is positive
    clock: Optional[Callable[[], str]] = None  # returns an ISO-8601 string
    # one branch runs at a time and scripted waits are simulated; every
    # wait a handler makes must go through its call's stop token
    virtual_time: bool = False


# control-flow signals inside branch threads
class _JumpTo(Exception):
    def __init__(self, rel_path: tuple[int, ...]):
        self.rel_path = rel_path


class _Parked(Exception):
    def __init__(self, path: tuple[int, ...]):
        self.path = path


class _Cancelled(Exception):
    pass


# Branch threads: a thread whose branch has ended waits this long for the
# next branch, of any instance, before it exits; at most _IDLE_CAP wait at once
_IDLE_CAP = 16
_IDLE_KEEPALIVE_S = 5.0


class _BranchThread:
    """A daemon thread that runs one branch at a time.

    Starting an OS thread is most of the cost of a fork, so a thread whose
    branch has ended waits idle for the next one. The cache never limits
    how many branches run: a branch that finds no idle thread starts a new
    one, so every live branch has a thread of its own and no join can wait
    for a thread. An idle thread holds no job, hence no instance.
    """

    def __init__(self, job: tuple, name: str):
        self._job: Optional[tuple] = job
        self._taken: Optional[threading.Lock] = None
        self._wake = threading.Lock()
        self._wake.acquire()
        # the job is not passed as args: Thread keeps those until _serve returns
        self._thread = threading.Thread(target=self._serve, name=name, daemon=True)
        self._thread.start()

    def hand(self, job: tuple, name: str) -> None:
        """Give an idle thread its next job; returns once it has taken it,
        as Thread.start() does."""
        # one lock per hand-off: the thread may finish this job and be
        # handed the next before this parent has seen the release
        taken = threading.Lock()
        taken.acquire()
        self._job, self._taken = job, taken
        self._thread.name = name
        self._wake.release()
        taken.acquire()

    def _serve(self) -> None:
        while True:
            run, branch = self._job  # type: ignore[misc]
            self._job = None
            if self._taken is not None:
                self._taken.release()
                self._taken = None
            run(branch)
            del run, branch
            if not self._await_job():
                return

    def _await_job(self) -> bool:
        """Wait idle for the next job; False once this thread should exit."""
        with _idle_lock:
            if len(_idle) >= _IDLE_CAP:
                return False
            _idle.append(self)
        if self._wake.acquire(timeout=_IDLE_KEEPALIVE_S):
            return True
        with _idle_lock:
            if self in _idle:
                _idle.remove(self)
                return False
        # a parent took this thread off the idle list as the keep-alive ran out
        self._wake.acquire()
        return True


_idle: list[_BranchThread] = []  # idle branch threads, the most recent last
_idle_lock = threading.Lock()


def _forget_idle_threads() -> None:
    # a forked child has none of its parent's threads
    global _idle_lock
    _idle.clear()
    _idle_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle_threads)


def _fork_order(branch_id: str) -> tuple[int, ...]:
    # "0.10" was forked after "0.9"
    return tuple(map(int, branch_id.split(".")))


class _Timeline:
    """Virtual time for one instance: its branch threads take turns.

    The branch that holds the baton runs until it blocks: on the instance
    condition, on its call's stop token, or by ending. Releasing the baton
    first runs, in the releasing thread, every timer that is due; then the
    baton goes to the runnable branch forked earliest. When no branch can
    run, the clock jumps to the next timer. A forked child is runnable at
    once, but its parent keeps the baton until it blocks. The timers are the
    timeouts of token waits and the instance's delayed actions; once no
    branch is live, none runs. A thread outside the instance (a controller's
    stop, a trigger delivery, an HTTP response, a nested instance's end) may
    make a branch runnable at any time; if the baton is free, that branch
    gets it at once.
    """

    def __init__(self) -> None:
        self.now = 0.0  # virtual seconds since the instance was built
        # guards every field below; no other lock is taken while it is held
        self._lock = threading.Lock()
        self._holder: Optional[_Branch] = None  # the branch with the baton
        self._ready: list[tuple[tuple[int, ...], _Branch]] = []  # heap, by fork order
        self._live = 0  # branches added that have not ended
        self._cond_waiters: list[_Branch] = []
        # blocked in a token wait: token -> (branch, its timeout's timer)
        self._token_waiters: dict[StopToken, tuple[_Branch, Optional[list]]] = {}
        # heap of [due, seq, action]; a withdrawn timer's action is None
        self._timers: list[list] = []
        self._seq = itertools.count()

    def add(self, branch: _Branch) -> None:
        """Make a new branch runnable; its thread waits in enter()."""
        branch.baton = threading.Lock()
        branch.baton.acquire()
        with self._lock:
            self._live += 1
            self._make_ready(branch)

    def enter(self, branch: _Branch) -> None:
        branch.baton.acquire()  # type: ignore[union-attr]

    def leave(self, branch: _Branch) -> None:
        """The branch has ended: give the baton away for good."""
        with self._lock:
            self._live -= 1
        self._release()

    def call_later(self, delay: float, action: Callable[[], object]) -> None:
        with self._lock:
            heapq.heappush(self._timers, [self.now + delay, next(self._seq), action])

    def wait_cond(self, branch: _Branch, state_lock: threading.Lock) -> None:
        """Wait on the instance condition; caller holds the state lock and the baton."""
        with self._lock:
            self._cond_waiters.append(branch)
        state_lock.release()
        try:
            self._pass(branch)
        finally:
            state_lock.acquire()

    def notify(self) -> None:
        """Make every branch waiting on the instance condition runnable."""
        with self._lock:
            for branch in self._cond_waiters:
                self._make_ready(branch)
            self._cond_waiters.clear()

    def wait_token(self, token: _TimedToken, timeout: Optional[float]) -> bool:
        with self._lock:
            # set() and wake() change the flags before they call token_changed
            blocked = not (token.is_set() or token._woken)
            if blocked:
                timer = None
                if timeout is not None:
                    expire = functools.partial(self.token_changed, token)
                    timer = [self.now + timeout, next(self._seq), expire]
                    heapq.heappush(self._timers, timer)
                self._token_waiters[token] = (token.branch, timer)
        if blocked:
            self._pass(token.branch)
        return token.is_set()

    def token_changed(self, token: StopToken) -> None:
        """The token was set, woken or timed out: its waiter may run."""
        with self._lock:
            waiter = self._token_waiters.pop(token, None)
            if waiter is not None:
                branch, timer = waiter
                if timer is not None:
                    timer[2] = None
                self._make_ready(branch)

    def _make_ready(self, branch: _Branch) -> None:
        # caller holds self._lock
        heapq.heappush(self._ready, (_fork_order(branch.id), branch))
        if self._holder is None:
            self._grant()

    def _grant(self) -> None:
        # caller holds self._lock; the baton is free and a branch is ready
        branch = heapq.heappop(self._ready)[1]
        self._holder = branch
        branch.baton.release()  # type: ignore[union-attr]

    def _pass(self, branch: _Branch) -> None:
        """Give up the baton and wait until it comes back."""
        self._release()
        branch.baton.acquire()  # type: ignore[union-attr]

    def _release(self) -> None:
        """Run the due timers, then hand the baton to the next branch.

        The holder keeps the baton while the timers run, so a branch that
        one of them makes runnable waits its turn.
        """
        while True:
            with self._lock:
                action = self._next_due()
                if action is None:
                    self._holder = None
                    if self._ready:
                        self._grant()
                    return
            action()

    def _next_due(self) -> Optional[Callable[[], object]]:
        # caller holds self._lock
        while self._timers and self._live:
            due, _, action = self._timers[0]
            if action is not None and self._ready and due > self.now:
                return None
            heapq.heappop(self._timers)
            if action is not None:
                self.now = max(self.now, due)
                return action
        return None


class _TimedToken(StopToken):
    """A call's stop token under virtual time: a wait on it blocks the
    call's branch on the instance's timeline."""

    def __init__(self, timeline: _Timeline, branch: _Branch):
        super().__init__()
        self.timeline = timeline
        self.branch = branch

    def set(self) -> None:
        super().set()
        self.timeline.token_changed(self)

    def wake(self) -> None:
        super().wake()
        self.timeline.token_changed(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.timeline.wait_token(self, timeout)


class _TimelineCondition(threading.Condition):
    """The instance condition under virtual time: a notify also makes the
    branches waiting on it through the timeline runnable."""

    def __init__(self, lock: threading.Lock, timeline: _Timeline):
        super().__init__(lock)
        self._timeline = timeline

    def notify_all(self) -> None:
        super().notify_all()
        self._timeline.notify()


class _JoinGroup:
    """Join bookkeeping for one execution of a parallel block; guarded by the
    instance's state lock."""

    def __init__(self, wait: dsl.WaitSpec, parallel_path: tuple[int, ...], parent: "_Branch"):
        self.wait = wait
        self.parallel_path = parallel_path
        self.parent = parent
        # children forked or restored, and the ids of those that have arrived
        # (a restored child may have arrived before the stop)
        self.spawned = 0
        self.arrived: list[str] = []
        self.spawning = True  # the parent is still executing the parallel body
        self.fired = False

    def ready_to_fire(self) -> bool:
        if self.fired:
            return False
        if self.wait.is_all:
            # an all-join's target is only known once spawning has finished
            return not self.spawning and len(self.arrived) == self.spawned
        return len(self.arrived) >= self.wait.count  # type: ignore[operator]


class _Branch:
    def __init__(
        self,
        branch_id: str,
        region_block: dsl.Block,
        region_prefix: tuple[int, ...],
        group: Optional[_JoinGroup] = None,
        resume_path: Optional[tuple[int, ...]] = None,
        forks: int = 1,
    ):
        self.id = branch_id
        self.region_block = region_block
        self.region_prefix = region_prefix
        self.group = group
        # the joins this branch has open, innermost last
        self.group_stack: list[_JoinGroup] = []
        self.resume_path = resume_path
        self.cancelled = False
        self.in_flight: Optional[HandlerCall] = None
        # the index of this branch's next child; only its own thread forks
        self.forks = forks
        # under virtual time: released to let this branch's thread run
        self.baton: Optional[threading.Lock] = None


class WorkflowInstance:
    """A single running (or resumable) execution of one workflow."""

    def __init__(
        self,
        ast: dsl.WorkflowAst,
        handler: HandlerWrapper,
        options: Optional[RunOptions] = None,
        initial_context: Optional[Mapping[str, Value]] = None,
        _restored_context: Optional[tuple[dict[str, Value], int]] = None,
    ):
        self.ast = ast
        self.handler = handler
        self.options = options or RunOptions()
        self.instance_id = self.options.instance_id or f"i-{uuid.uuid4().hex[:8]}"
        if _restored_context is not None:
            values, version = _restored_context
            self.store = ContextStore(values, version)
        else:
            self.store = ContextStore.from_decls(ast.context_decls)
            if initial_context:
                unknown = set(initial_context) - set(self.store.current_values())
                if unknown:
                    raise ContextError(f"undeclared initial context: {sorted(unknown)}")
                merged = dict(self.store.current_values())
                merged.update(initial_context)
                self.store = ContextStore(merged)
        # opened once the context is accepted, so a refused one leaves the file be
        self.log = EventLog(
            self.instance_id, self.options.log_path, self.options.clock, self.options.start_seq
        )

        # how the instance ended: "finished", "stopped" or "error"
        self.result: Optional[str] = None
        # the message of each error record, in trace order
        self.errors: list[str] = []
        # call id -> what a call the stop caught in flight left: its token,
        # or the result or jump it ended with; the resume replays the token
        # or applies the outcome instead of calling the service again
        self.interrupted: dict[str, Passthrough | Result | Jump] = {}
        # live branches: a branch enters at fork and leaves when it arrives
        # at its join or ends
        self.branches: dict[str, _Branch] = {}
        # activities a resume was told to skip
        self.skip_positions: frozenset[str] = frozenset()

        # position -> path, built by the first jump
        self._position_paths: Optional[dict[str, tuple[int, ...]]] = None
        self._state_lock = threading.Lock()
        self._timeline = _Timeline() if self.options.virtual_time else None
        if self._timeline is None:
            self._cond = threading.Condition(self._state_lock)
        else:
            self._cond = _TimelineCondition(self._state_lock, self._timeline)
        self._section_owners: dict[str, str] = {}  # critical section -> branch id
        self._stop_requested = False
        self._stop_source: Optional[str] = None
        self._started = False
        self._groups: list[_JoinGroup] = []  # open joins
        # branch id -> (path a resume restarts it at, its next fork index),
        # for each parked branch and the root once it has run to the end
        self._saved_paths: dict[str, tuple[tuple[int, ...], int]] = {}
        self._root = _Branch(ROOT_BRANCH, ast.body, ())
        self._resume_children: dict[tuple[str, tuple[int, ...]], list[tuple]] = {}

    # ------------------------------------------------------------------
    # Start, wait and stop
    # ------------------------------------------------------------------

    def start(self) -> "WorkflowInstance":
        if self._started:
            raise EngineError("instance already started")
        self._started = True
        self.log.emit("instance_start", ROOT_BRANCH, detail={"handler": self.ast.handler_name})
        with self._state_lock:
            self.branches[ROOT_BRANCH] = self._root
        self._start_thread(self._root)
        return self

    def wait(self) -> str:
        """Wait until the instance has ended; its result."""
        with self._state_lock:
            if not self._started:
                raise EngineError("instance is not started")
            while self.result is None:
                self._cond.wait()
            return self.result

    def run(self) -> str:
        return self.start().wait()

    def call_later(self, delay: float, action: Callable[[], object]) -> None:
        """Run action after delay seconds: of virtual time under virtual
        time, where it runs on the thread that hands the baton on, or else
        on a timer thread of its own. The action must not block; one that
        raises leaves a timer_failed signal in the trace. Under virtual time
        an action still pending when the last branch ends never runs.
        """

        def run() -> None:
            try:
                action()
            except Exception as exc:
                detail = {"signal": "timer_failed", "message": repr(exc)}
                with self._state_lock:  # as every emit outside a branch is
                    self.log.emit("signal", ROOT_BRANCH, detail=detail)

        if self._timeline is not None:
            self._timeline.call_later(delay, run)
            return
        timer = threading.Timer(delay, run)
        timer.daemon = True
        timer.start()

    def deliver_stop(self) -> str:
        """Stop the instance and wait until it has ended; its result."""
        self.request_stop(source="controller")
        return self.wait()

    def request_stop(self, source: str = "controller") -> None:
        """Request a stop; after this no branch starts another activity. An
        instance that has ended ignores it."""
        with self._state_lock:
            if self._stop_requested or self.result is not None:
                return
            self._stop_requested = True
            self._stop_source = source
            self.log.emit("signal", ROOT_BRANCH, detail={"signal": "stop", "source": source})
            self.log.emit("stop_acknowledged", ROOT_BRANCH)
            self._stop_calls(self.branches.values())
            self._cond.notify_all()

    def _stop_calls(self, branches: Iterable[_Branch]) -> None:
        """Set the stop token of each branch's in-flight call; caller holds
        the state lock."""
        for b in branches:
            if b.in_flight is not None:
                self.log.emit("signal", b.id, b.in_flight.position, {"signal": "stop_call"})
                b.in_flight.stop.set()

    def _end(self) -> None:
        """Emit the terminal record and close the trace; caller holds the
        state lock, and the last branch has just left the registry."""
        if self.errors:
            self.result = "error"
            self.log.emit("instance_stop", ROOT_BRANCH, detail={"error": self.errors[0]})
        elif self._stop_requested:
            self.result = "stopped"
            # no branch is left to emit, so this record takes the next seq
            saved = self._saved_state(self.log.seq + 1)
            detail = {"source": self._stop_source, "saved": saved}
            self.log.emit("instance_stop", ROOT_BRANCH, detail=detail)
        else:
            self.result = "finished"
            self.log.emit("instance_finish", ROOT_BRANCH)
        self.log.close()

    def _report_error(self, branch: _Branch, exc: Exception) -> None:
        with self._state_lock:
            self.errors.append(str(exc))
            self.log.emit("error", branch.id, detail={"message": str(exc)})
        self.request_stop(source="error")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self) -> dict:
        """The saved state of a stopped instance, as its instance_stop record carries it."""
        if self.result not in ("stopped", "error"):
            raise EngineError("only stopped instances can be saved")
        with self._state_lock:
            return self._saved_state(self.log.seq)

    def _saved_state(self, seq: int) -> dict:
        """The workflow's source hash, the instance id, seq, the branches with
        the path each restarts at, the context and its version, and the calls
        the stop interrupted; caller holds the state lock."""
        entries: list[dict] = []
        for branch_id, (path, forks) in self._saved_paths.items():
            entry: dict = {"id": branch_id, "path": list(path)}
            if forks > 1:
                entry["forks"] = forks
            entries.append(entry)
        for group in self._groups:
            for child_id in group.arrived:
                entries.append({"id": child_id, "path": list(group.parallel_path) + [-1]})
        entries.sort(key=lambda e: e["id"])
        interrupted = {
            call_id: {"passthrough": o.token} if isinstance(o, Passthrough)
            else {"result": o.values} if isinstance(o, Result)
            else {"jump": o.target}
            for call_id, o in self.interrupted.items()
        }
        return {
            "schema": SAVED_SCHEMA,
            "workflow": self.ast.source_hash,
            "instance": self.instance_id,
            "seq": seq,
            "branches": entries,
            "context": dict(self.store.current_values()),
            "version": self.store.version,
            "interrupted": interrupted,
        }

    @classmethod
    def resume(
        cls,
        ast: dsl.WorkflowAst,
        handler: HandlerWrapper,
        saved: dict,
        options: Optional[RunOptions] = None,
        skip_positions: Iterable[str] = (),
    ) -> "WorkflowInstance":
        """Rebuild a stopped instance; branches restart at their saved paths.

        This is the one check of a saved state, its workflow hash included:
        one it refuses raises EngineError before the instance or its trace
        exists. It continues the stopped one's id and seq unless options do.
        """
        cls._check_saved(saved)
        if saved["workflow"] != ast.source_hash:
            raise EngineError("workflow source hash mismatch: refusing to resume")
        skip = frozenset(skip_positions)
        unknown = sorted(skip - set(dsl.positions(ast))) if skip else []
        if unknown:
            raise EngineError(f"skip positions not in workflow: {unknown}")
        interrupted = {
            call_id: cls._interrupted_outcome(call_id, entry)
            for call_id, entry in saved["interrupted"].items()
        }

        entries = saved["branches"]
        paths = {entry["id"]: tuple(entry["path"]) for entry in entries}
        if ROOT_BRANCH not in paths and entries:
            raise EngineError("corrupt saved state: no root branch")
        root_path = paths.pop(ROOT_BRANCH, ())
        # [len(body)]: the root had finished its body when it stopped
        if root_path != (len(ast.body),):
            cls._saved_nodes(ast, ROOT_BRANCH, root_path)
        # a branch's next fork index: as saved, and past each saved child's
        forks = {entry["id"]: entry.get("forks", 1) for entry in entries}
        for branch_id in paths:
            parent_id, _, fork_index = branch_id.rpartition(".")
            if not (parent_id and fork_index.isascii() and fork_index.isdigit()):
                raise EngineError(f"corrupt saved state: branch id {branch_id!r}")
            forks[parent_id] = max(forks.get(parent_id, 1), int(fork_index) + 1)

        children: dict[tuple[str, tuple[int, ...]], list[tuple]] = {}
        for branch_id, path in paths.items():
            parent_id = branch_id.rpartition(".")[0]
            if path and path[-1] == -1:
                parallel_path = path[:-1]
                nodes = cls._saved_nodes(ast, branch_id, parallel_path)
                if not nodes or not isinstance(nodes[-1], dsl.Parallel):
                    raise EngineError(
                        f"corrupt saved state: {parallel_path} is not a parallel block"
                    )
                children.setdefault((parent_id, parallel_path), []).append((branch_id, None, 1))
            else:
                plan = cls._live_child_plan(ast, branch_id, path)
                children.setdefault((parent_id, plan[0]), []).append(
                    (branch_id, plan, forks[branch_id])
                )

        options = options or RunOptions()
        options = replace(
            options,
            instance_id=options.instance_id or saved["instance"],
            start_seq=options.start_seq or saved["seq"],
        )
        instance = cls(
            ast,
            handler,
            options,
            _restored_context=(dict(saved["context"]), saved["version"]),
        )
        instance.skip_positions = skip
        instance.interrupted = interrupted
        instance._root.resume_path = root_path or None
        instance._root.forks = forks.get(ROOT_BRANCH, 1)
        instance._resume_children = children
        return instance

    @staticmethod
    def _check_saved(saved: object) -> None:
        """Reject a saved state not in the current schema, or whose keys or
        branch entries are missing or have the wrong JSON types."""

        def corrupt(what: str) -> EngineError:
            return EngineError(f"corrupt saved state: {what}")

        if not isinstance(saved, dict):
            raise corrupt(f"a {type(saved).__name__}, not an object")
        schema = saved.get("schema")
        if schema is None:
            raise EngineError(
                "saved state has no schema: it was written by an older wee, whose "
                "passthroughs are keyed by position, not by call id; it cannot be resumed"
            )
        if schema != SAVED_SCHEMA:
            raise EngineError(f"saved state has schema {schema!r}, expected {SAVED_SCHEMA}")
        for key, kind in (
            ("workflow", str),
            ("instance", str),
            ("seq", int),
            ("branches", list),
            ("context", dict),
            ("version", int),
            ("interrupted", dict),
        ):
            if key not in saved:
                raise corrupt(f"no {key}")
            if not isinstance(saved[key], kind) or isinstance(saved[key], bool):
                raise corrupt(f"{key} {saved[key]!r}")
        if saved["seq"] < 1:  # a stopped instance has traced its start and stop
            raise corrupt(f"seq {saved['seq']!r}")
        for entry in saved["branches"]:
            if not isinstance(entry, dict):
                raise corrupt(f"branch entry {entry!r}")
            branch_id, path = entry.get("id"), entry.get("path")
            if not isinstance(branch_id, str):
                raise corrupt(f"branch id {branch_id!r}")
            if not isinstance(path, list):
                raise corrupt(f"branch {branch_id}: path {path!r}")
            if not all(type(index) is int for index in path):
                raise corrupt(f"branch {branch_id}: path {tuple(path)}")
            forks = entry.get("forks", 1)
            if type(forks) is not int or forks < 1:
                raise corrupt(f"branch {branch_id}: forks {forks!r}")

    @staticmethod
    def _interrupted_outcome(call_id: str, entry: object) -> Passthrough | Result | Jump:
        if isinstance(entry, dict) and len(entry) == 1:
            ((kind, value),) = entry.items()
            if kind == "passthrough" and isinstance(value, str):
                return Passthrough(value)
            if kind == "result" and isinstance(value, dict):
                return Result(dict(value))
            if kind == "jump" and isinstance(value, str):
                return Jump(value)
        raise EngineError(f"corrupt saved state: interrupted call {call_id}: {entry!r}")

    @staticmethod
    def _saved_nodes(
        ast: dsl.WorkflowAst, branch_id: str, path: tuple[int, ...]
    ) -> list[dsl.Node]:
        try:
            return dsl.nodes_along(ast, path)
        except IndexError as exc:
            raise EngineError(f"corrupt saved state: branch {branch_id}: {exc}") from exc

    @staticmethod
    def _live_child_plan(
        ast: dsl.WorkflowAst, branch_id: str, path: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(owner parallel path, region branch path, relative path) for a saved child."""
        nodes = WorkflowInstance._saved_nodes(ast, branch_id, path)
        pb_index = None
        for i, node in enumerate(nodes[:-1]):  # the final node is the PC itself
            if isinstance(node, dsl.ParallelBranch):
                pb_index = i
        if pb_index is None:
            raise EngineError(
                f"corrupt saved state: branch {branch_id} path is not inside a parallel branch"
            )
        pb_path = path[: 2 * pb_index + 1]
        owner = None
        for i in range(pb_index - 1, -1, -1):
            if isinstance(nodes[i], dsl.Parallel):
                owner = path[: 2 * i + 1]
                break
        if owner is None:
            raise EngineError(f"corrupt saved state: branch {branch_id} has no owning parallel")
        rel = path[len(pb_path) + 1 :]
        return owner, pb_path, rel

    # ------------------------------------------------------------------
    # Branch machinery
    # ------------------------------------------------------------------

    def _start_thread(self, branch: _Branch) -> None:
        """Run the branch in an idle branch thread, or else in a new one."""
        if self._timeline is not None:
            self._timeline.add(branch)
        with _idle_lock:
            thread = _idle.pop() if _idle else None
        job, name = (self._run_branch, branch), f"wee-{branch.id}"
        if thread is None:
            _BranchThread(job, name)
        else:
            thread.hand(job, name)

    def _run_branch(self, branch: _Branch) -> None:
        if self._timeline is not None:
            self._timeline.enter(branch)
        saved = None  # (path, next fork index) a resume restarts the branch from
        try:
            pending = branch.resume_path
            while True:
                try:
                    self._exec_block(branch, branch.region_block, branch.region_prefix, pending)
                    break
                except _JumpTo as jump:
                    pending = jump.rel_path
            if branch.group is not None:
                self._child_finished(branch)
            else:
                # the root ran to the end: a resume starts past it
                saved = ((len(self.ast.body),), 1)
        except _Parked as parked:
            saved = (parked.path, branch.forks)
        except _Cancelled:
            pass
        except EngineError as exc:
            self._report_error(branch, exc)
        except Exception as exc:  # engine bug: fail loudly instead of hanging
            self._report_error(branch, EngineError(f"internal error: {exc!r}"))
        finally:
            with self._state_lock:
                self.branches.pop(branch.id, None)
                if saved is not None:
                    self._saved_paths[branch.id] = saved
                if not self.branches and self.result is None:
                    self._end()
                self._cond.notify_all()
            if self._timeline is not None:
                self._timeline.leave(branch)

    def _child_finished(self, child: _Branch) -> None:
        """Arrive at the child's join unless it was cancelled.

        The child leaves the registry in the section in which it arrives, so
        a cancel of its parent cannot signal it.
        """
        group = child.group
        assert group is not None
        with self._state_lock:
            if child.cancelled:
                return
            group.arrived.append(child.id)
            self.log.emit(
                "branch_join",
                child.id,
                detail={"role": "arrive", "parent": group.parent.id},
            )
            del self.branches[child.id]
            self._maybe_fire(group)
            self._cond.notify_all()

    def _maybe_fire(self, group: _JoinGroup) -> None:
        """Fire the join if its condition holds, cancelling the losers of a
        k-join; caller holds the state lock."""
        if not group.ready_to_fire():
            return
        group.fired = True
        self.log.emit(
            "branch_join",
            group.parent.id,
            detail={
                "role": "fire",
                "arrived": len(group.arrived),
                "spawned": group.spawned,
                "wait": "all" if group.wait.is_all else group.wait.count,
            },
        )
        if not group.wait.is_all:
            self._cancel([b.id for b in self.branches.values() if b.group is group])

    def _cancel(self, ids: list[str]) -> None:
        """Cancel the named branches and every live branch below them, and
        stop their in-flight calls; caller holds the state lock."""
        below = tuple(f"{branch_id}." for branch_id in ids)
        cancelled = [
            b
            for b in self.branches.values()
            if (b.id in ids or b.id.startswith(below)) and not b.cancelled
        ]
        for b in cancelled:
            b.cancelled = True
            self.log.emit("signal", b.id, detail={"signal": "no_longer_necessary"})
        self._stop_calls(cancelled)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Node execution
    # ------------------------------------------------------------------

    def _exec_block(
        self,
        branch: _Branch,
        block: dsl.Block,
        prefix: tuple[int, ...],
        start: Optional[tuple[int, ...]] = None,
    ) -> None:
        begin = start[0] if start else 0
        for index in range(begin, len(block)):
            sub = start[1:] if (start and index == start[0] and len(start) > 1) else None
            self._exec_node(branch, block[index], prefix + (index,), sub)
            start = None

    def _exec_node(
        self,
        branch: _Branch,
        node: dsl.Node,
        path: tuple[int, ...],
        sub: Optional[tuple[int, ...]],
    ) -> None:
        if isinstance(node, dsl.ManipulateActivity):
            if node.position not in self.skip_positions:
                self._exec_manipulate(branch, node, path)
            return
        if isinstance(node, dsl.CallActivity):
            if node.position not in self.skip_positions:
                self._exec_call(branch, node, path)
            return

        with self._state_lock:
            self._checkpoint(branch, path)

        if isinstance(node, dsl.Parallel):
            self._exec_parallel(branch, node, path, sub)
        elif isinstance(node, dsl.ParallelBranch):
            self._fork_child(branch, node, path)
        elif isinstance(node, dsl.Choose):
            self._exec_choose(branch, node, path, sub)
        elif isinstance(node, dsl.Cycle):
            self._exec_cycle(branch, node, path, sub)
        elif isinstance(node, dsl.Critical):
            self._exec_critical(branch, node, path, sub)
        else:
            raise EngineError(f"unknown node {node!r}")

    def _block(self, branch: _Branch) -> None:
        """Wait on the instance condition; caller holds the state lock."""
        if self._timeline is None:
            self._cond.wait()
        else:
            self._timeline.wait_cond(branch, self._state_lock)

    def _checkpoint(self, branch: _Branch, path: tuple[int, ...]) -> None:
        """Park on a stop request, stand down on cancel; caller holds the state lock."""
        if self._stop_requested:
            raise _Parked(path)
        if branch.cancelled:
            raise _Cancelled()

    def _begin_activity(self, branch: _Branch, node, path: tuple[int, ...], detail: dict) -> None:
        with self._state_lock:
            self._checkpoint(branch, path)
            self.log.emit("activity_start", branch.id, node.position, detail)

    def _commit(
        self, branch: _Branch, position: str, delta: list[Change], new_values: dict[str, Value]
    ) -> None:
        """Commit a delta and trace it; caller holds the store's exclusive lock."""
        version = self.store.commit(delta, new_values)
        self.log.emit(
            "context_change",
            branch.id,
            position,
            {
                "changes": [{"name": c.name, "old": c.old, "new": c.new} for c in delta],
                "version": version,
            },
        )

    def _exec_manipulate(self, branch: _Branch, node: dsl.ManipulateActivity, path) -> None:
        self._begin_activity(branch, node, path, events.START_MANIPULATE)
        try:
            with self.store.exclusive():
                delta, values = apply_assignments(node.statements, self.store.current_values())
                if delta:
                    self._commit(branch, node.position, delta, values)
        except (EvalError, ContextError) as exc:
            raise EngineError(f"manipulate '{node.position}': {exc}") from exc
        self.log.emit("activity_end", branch.id, node.position, events.END_APPLIED)

    def _exec_call(self, branch: _Branch, node: dsl.CallActivity, path) -> None:
        uri = self.ast.endpoints.get(node.endpoint)
        if uri is None:
            raise EngineError(f"call '{node.position}': undefined endpoint '{node.endpoint}'")

        if uri.startswith("wee://"):
            self._exec_engine_call(branch, node, path, uri)
            return

        snap = self.store.snapshot()
        try:
            parameters = {
                name: eval_expr(expr, snap.values) for name, expr in node.parameters
            }
        except EvalError as exc:
            # a cancelled or stopping branch stands down or parks instead
            with self._state_lock:
                self._checkpoint(branch, path)
            raise EngineError(f"call '{node.position}' parameters: {exc}") from exc

        call_id = f"{branch.id}/{node.position}"
        with self._state_lock:
            self._checkpoint(branch, path)
            # an interrupted call leaves the saved state only once it is sure
            # to begin again: a branch parked by the checkpoint keeps it
            outcome = self.interrupted.pop(call_id, None)
            token = None
            if isinstance(outcome, Passthrough):
                token, outcome = outcome.token, None
            if outcome is None:
                call = branch.in_flight = HandlerCall(
                    call_id,
                    node.position,
                    uri,
                    parameters,
                    snap.values,
                    snap.version,
                    StopToken() if self._timeline is None else _TimedToken(self._timeline, branch),
                    token,
                )
            self.log.emit("activity_start", branch.id, node.position, events.START_CALL)
        try:
            if outcome is None:
                outcome = self.handler.call(call)
        except Exception as exc:
            outcome = Failure(f"handler raised: {exc!r}")
        finally:
            with self._state_lock:
                branch.in_flight = None
                stopped = self._stop_requested
                cancelled = branch.cancelled

        if cancelled:
            raise _Cancelled()
        if stopped:
            # the branch parks at the call; the resume applies a result or
            # jump it already has and replays a passthrough, so the service
            # is not called again; a failed call runs again, and a failed
            # replay keeps its token
            if isinstance(outcome, Failure):
                outcome = None if token is None else Passthrough(token)
            # the stop record carries the result, so it must be values as a commit's are
            if isinstance(outcome, Result) and not all(map(is_value, outcome.values.values())):
                raise EngineError(f"call '{node.position}': handler result is not a value")
            if outcome is not None:
                with self._state_lock:
                    self.interrupted[call_id] = outcome
            raise _Parked(path)

        if isinstance(outcome, Result):
            self._commit_result(branch, node, outcome)
            self.log.emit("activity_end", branch.id, node.position, events.END_RESULT)
        elif isinstance(outcome, Jump):
            self._apply_jump(branch, node, outcome.target)
        elif isinstance(outcome, Passthrough):
            raise EngineError(
                f"call '{node.position}': handler returned a passthrough without a stop"
            )
        else:
            raise EngineError(f"call '{node.position}': {outcome.message}")

    def _exec_engine_call(self, branch: _Branch, node, path, uri: str) -> None:
        self._begin_activity(branch, node, path, events.START_CALL)
        if uri != STOP_ENDPOINT:
            raise EngineError(f"call '{node.position}': unknown engine endpoint '{uri}'")
        self.log.emit("activity_end", branch.id, node.position, events.END_STOP_SIGNAL)
        self.request_stop(source="workflow")

    def _commit_result(self, branch: _Branch, node, outcome: Result) -> None:
        if not outcome.values:
            return
        try:
            with self.store.exclusive():
                current = self.store.current_values()
                values = dict(current)
                delta = []
                for name, value in outcome.values.items():
                    if name not in current:
                        raise ContextError(
                            f"handler result names undeclared context variable '{name}'"
                        )
                    if not is_value(value):
                        raise ContextError(f"handler result for '{name}' is not a value")
                    delta.append(Change(name, current[name], value))
                    values[name] = value
                self._commit(branch, node.position, delta, values)
        except ContextError as exc:
            raise EngineError(f"call '{node.position}': {exc}") from exc

    def _apply_jump(self, branch: _Branch, node, target: str) -> None:
        if self._position_paths is None:  # racing first jumps build equal dicts
            self._position_paths = dsl.position_paths(self.ast)
        target_path = self._position_paths.get(target)
        if target_path is None:
            raise EngineError(f"illegal jump: unknown position '{target}'")
        prefix = branch.region_prefix
        if target_path[: len(prefix)] != prefix:
            raise EngineError(f"illegal jump: '{target}' is outside this branch")
        nodes = dsl.nodes_along(self.ast, target_path)
        region_depth = len(prefix) // 2
        for ancestor in nodes[region_depth:-1]:
            if isinstance(ancestor, (dsl.Parallel, dsl.ParallelBranch)):
                raise EngineError(
                    f"illegal jump: '{target}' is inside a parallel block this branch has not entered"
                )
        self.log.emit(
            "signal", branch.id, node.position, {"signal": "jump", "target": target}
        )
        self.log.emit("activity_end", branch.id, node.position, events.END_JUMP)
        raise _JumpTo(target_path[len(prefix) :])

    def _exec_parallel(self, branch: _Branch, node: dsl.Parallel, path, sub) -> None:
        group = _JoinGroup(node.wait, path, branch)
        with self._state_lock:
            self._groups.append(group)
        branch.group_stack.append(group)
        parked = False
        try:
            saved = self._resume_children.pop((branch.id, path), None)
            if saved:
                self._attach_saved_children(group, saved)
            if not (saved and sub is None):  # else the body had ended before the stop
                self._exec_block(branch, node.body, path + (0,), sub)

            with self._state_lock:
                group.spawning = False
                wait, spawned = node.wait.count, group.spawned
                if wait is not None and spawned < wait:
                    raise EngineError(f"unsatisfiable join: wait {wait} of {spawned} branches")
                self._maybe_fire(group)
                while not group.fired:
                    self._checkpoint(branch, path)
                    self._block(branch)
        except _Parked:
            parked = True  # save() reads the open join
            raise
        except _JumpTo:
            # the jump leaves the block, so its join will never fire: the
            # children forked so far are no longer necessary
            with self._state_lock:
                self._cancel([b.id for b in self.branches.values() if b.group is group])
            raise
        finally:
            branch.group_stack.pop()
            if not parked:  # the join has fired, or will never fire
                with self._state_lock:
                    self._groups.remove(group)

    def _attach_saved_children(self, group: _JoinGroup, saved: list[tuple]) -> None:
        # every restored child is counted before any starts, so none fires the join early
        children = []
        for child_id, plan, forks in saved:
            if plan is None:
                group.arrived.append(child_id)  # it arrived before the stop
                continue
            _owner, pb_path, rel = plan
            pb_node = dsl.nodes_along(self.ast, pb_path)[-1]
            children.append(
                _Branch(
                    child_id,
                    pb_node.body,
                    pb_path + (0,),
                    group=group,
                    resume_path=rel or None,
                    forks=forks,
                )
            )
        group.spawned = len(group.arrived)
        self._add_children(group, children, resumed=True)

    def _fork_child(self, branch: _Branch, node: dsl.ParallelBranch, path) -> None:
        if not branch.group_stack:
            raise EngineError("parallel_branch executed outside a parallel block")
        group = branch.group_stack[-1]
        child = _Branch(f"{branch.id}.{branch.forks}", node.body, path + (0,), group=group)
        branch.forks += 1
        self._add_children(group, [child])

    def _add_children(
        self, group: _JoinGroup, children: list[_Branch], resumed: bool = False
    ) -> None:
        """Register children and start their threads.

        A child of a cancelled parent, or one forked into a k-join that has
        already fired, is cancelled at once; a parent cancelled later finds
        its children in the registry.
        """
        with self._state_lock:
            for child in children:
                group.spawned += 1
                self.branches[child.id] = child
                detail = {"child": child.id, "resumed": True} if resumed else {"child": child.id}
                self.log.emit("branch_fork", group.parent.id, detail=detail)
                if group.parent.cancelled or (group.fired and not group.wait.is_all):
                    self._cancel([child.id])
        for child in children:
            self._start_thread(child)

    def _exec_choose(self, branch: _Branch, node: dsl.Choose, path, sub) -> None:
        blocks = dsl.child_blocks(node)
        if sub is not None:
            selector = sub[0]
            self._exec_block(branch, blocks[selector], path + (selector,), sub[1:])
            # alternatives after the resumed one are re-guarded against the
            # state at resume time; the original entry snapshot is gone
            if selector < len(node.alternatives):
                snap = self.store.snapshot()
                for later in range(selector + 1, len(node.alternatives)):
                    if self._eval_guard(node.alternatives[later].guard, snap.values, path):
                        self._exec_block(branch, blocks[later], path + (later,))
            return

        snap = self.store.snapshot()
        selected = [
            i
            for i, alt in enumerate(node.alternatives)
            if self._eval_guard(alt.guard, snap.values, path)
        ]
        if selected:
            for i in selected:
                self._exec_block(branch, blocks[i], path + (i,))
        elif node.otherwise is not None:
            selector = len(node.alternatives)
            self._exec_block(branch, node.otherwise, path + (selector,))

    def _eval_guard(self, guard, values, path) -> bool:
        try:
            decision = eval_expr(guard, values)
        except EvalError as exc:
            raise EngineError(f"guard at {path}: {exc}") from exc
        if type(decision) is not bool:
            raise EngineError(f"guard at {path} is not boolean")
        return decision

    def _exec_cycle(self, branch: _Branch, node: dsl.Cycle, path, sub) -> None:
        if sub is not None:
            self._exec_block(branch, node.body, path + (0,), sub[1:])
        iterations = 0
        while True:
            snap = self.store.snapshot()
            if not self._eval_guard(node.condition, snap.values, path):
                return
            iterations += 1
            if iterations > self.options.max_iterations:
                raise EngineError(
                    f"iteration cap exceeded ({self.options.max_iterations}) at {path}"
                )
            self._exec_block(branch, node.body, path + (0,))

    def _exec_critical(self, branch: _Branch, node: dsl.Critical, path, sub) -> None:
        section = node.section
        with self._state_lock:
            if self._section_owners.get(section) == branch.id:
                raise EngineError(f"critical section '{section}' re-entered")
            # the holder may have released by parking: don't enter once stopping
            self._checkpoint(branch, path)
            while section in self._section_owners:
                self._block(branch)
                self._checkpoint(branch, path)
            self._section_owners[section] = branch.id
        self.log.emit("signal", branch.id, detail={"signal": "critical_enter", "section": section})
        try:
            self._exec_block(branch, node.body, path + (0,), sub[1:] if sub else None)
        finally:
            self.log.emit(
                "signal", branch.id, detail={"signal": "critical_exit", "section": section}
            )
            with self._state_lock:
                del self._section_owners[section]
                self._cond.notify_all()

