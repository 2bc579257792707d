"""Workflow instance execution.

One thread of control per branch: the root branch walks the workflow body,
and every parallel_branch forks a child branch that shares the context store
and the critical-section registry. Each live branch runs in a thread of its
own: run() runs the root on its caller's thread, and start() hands it to the
thread cache, as a fork hands each child (a real-time timer and an HTTP
request are jobs there too). A cache thread whose job has ended waits idle
on an inbox of its own for _IDLE_KEEPALIVE_S, and a hand puts the next job
into the inbox that went idle last. A fork never waits for a thread, so the
schedule is parent-first, as under virtual time: the parent runs on until it
blocks or the interpreter switches threads. Joins wait for all branches or
for the first k. The losers and every live branch below them (a branch id's
prefix names its ancestors) receive a no-longer-necessary signal at once and
stand down at their next node boundary; the stop tokens of their in-flight
calls are set. A jump out of a parallel body cancels the children forked so
far the same way.
A stop signal parks every branch at its program counter so the instance can
be resumed later; the terminal instance_stop record carries the saved state.
It names the workflow by its source hash and holds one entry per saved
branch: the path it restarts at, the passthrough token of the call there
that the stop caught in flight, which the resume replays instead of calling
the service again, and the k-joins on that path that had fired, which the
resume does not fire again. A call that ends with a result or a jump after
the stop is applied at once, and its branch parks at its next checkpoint.
An entry leaves the saved state only once its branch is back at it, and its
token once the call begins: a stop on the way back, or on the way to a jump
target, saves it again. A child that arrives at its join keeps its entry
there until its parent passes the join. A cancelled branch is never saved,
and its token goes with its entry. The handler releases each token that no
call will replay: one a cancel drops, one a cancelled or unasked call hands
back, that of a call a resume skips, and those of an instance that ends in
error; the first release that raises leaves a release_failed signal, and the
first listener that raises a listener_failed one, at a checkpoint or the end.
resume() alone checks a saved state, and
refuses a child that its parent would not restore and a token at no call;
the resumed instance continues the stopped one's id and seq.

Branch coordination uses one lock per instance. It guards the stop request,
each branch's cancel flag, in-flight call and what it is blocked on, the
registry of live branches, the saved entries and the critical-section
owners. No handler call runs while it is held, and every release does. A
branch blocks only in _block, on a baton of its own: on a join, a critical
section or its call's stop token. Only what can unblock it wakes it, through
_wake: a join that fires wakes its parent, a cancel the branches it cancels,
a stop every live branch, a section's exit its earliest-forked waiter, which
passes the wake on if it parks or stands down instead, and a token's set(),
wake() or timeout its call's branch. No join fires once a stop is requested:
its arrivals are saved, and the resume fires it. The engine keeps only live
state: a branch leaves the registry when it arrives at its join or ends.
The branch that leaves the registry last emits the terminal record, closes
the trace and wakes wait() in the same locked section, so an instance ends
whether or not anyone waits on it, and no record follows its terminal one.
An exception that is not an Exception, such as a KeyboardInterrupt or a
SystemExit, ends the instance in error too: run() raises it again once the
instance has ended, and a cache thread serves on.

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
import queue
import threading
import time
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from . import dsl, events
from .context import ContextError, ContextStore
from .events import EventLog
from .expressions import Change, EvalError, Value, apply_assignments, eval_expr, is_value
from .handlers import Failure, HandlerCall, HandlerWrapper, Jump, Passthrough, Result, StopToken

ROOT_BRANCH = "0"
STOP_ENDPOINT = "wee://stop"
SAVED_SCHEMA = 6  # the version of the saved-state format


class EngineError(Exception):
    """Runtime failure of a workflow instance (aborts the run)."""


class _TraceWriteFailed(EngineError):
    """The trace could not be written; one report of it is enough."""


# HandlerCall(...) without the NamedTuple's Python-level __new__
_new_call = functools.partial(tuple.__new__, HandlerCall)
_Blocker = Union["_JoinGroup", str, "_CallToken"]  # what a branch blocks on


class RunOptions(NamedTuple):
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
    def __init__(self, path: tuple[int, ...]):
        self.path = path


class _Parked(Exception):
    def __init__(self, path: tuple[int, ...]):
        self.path = path
        # the fired k-joins it unwinds through, outermost first
        self.fired: tuple[tuple[int, ...], ...] = ()


class _Cancelled(Exception):
    pass


class _Restart(NamedTuple):
    """A saved branch's entry: where it restarts, its next fork index, the
    token of the call at path, and the paths of the k-joins on path that fired."""

    path: tuple[int, ...]
    forks: int = 1
    token: Optional[str] = None
    fired: tuple[tuple[int, ...], ...] = ()


_ENTRY_KEYS = frozenset(("id",) + _Restart._fields)  # the keys of a saved branch's entry


# The thread cache: a thread whose job has ended waits this long for the
# next job, a branch of any instance, a timer or an HTTP request, before it exits
_IDLE_KEEPALIVE_S = 5.0
_idle: list[queue.SimpleQueue] = []  # the inboxes of idle cache threads, the most recent last
_idle_lock = threading.Lock()


def _hand(name: str, job: Callable[..., object], arg: object) -> None:
    """Run job(arg) on the cache thread that went idle last, or else on a
    new one, under the thread name name; returns without waiting for it.

    Starting an OS thread is most of the cost of a fork, so a thread whose
    job has ended waits idle for the next one. The cache never limits how
    many jobs run: one that finds no idle thread starts a new one, so no
    join can wait for a thread. It holds at most as many threads as jobs ran
    at once in the last keep-alive. An idle thread holds no instance.
    """
    with _idle_lock:
        if _idle:
            _idle.pop().put((name, job, arg))
            return
    inbox = queue.SimpleQueue()
    inbox.put((name, job, arg))
    # the inbox, not the job, is the thread's argument: Thread keeps it until _serve returns
    threading.Thread(target=_serve, args=(inbox,), daemon=True).start()


def _serve(inbox: queue.SimpleQueue) -> None:
    """A cache thread: run the jobs put in its inbox, one at a time."""
    while True:
        try:
            name, job, arg = inbox.get(timeout=_IDLE_KEEPALIVE_S)
        except queue.Empty:
            with _idle_lock:
                if inbox in _idle:
                    _idle.remove(inbox)
                    return
            # a hand took this thread off the idle list as the keep-alive ran out
            name, job, arg = inbox.get()
        threading.current_thread().name = name
        try:
            job(arg)
        except BaseException:  # a branch has traced it as its instance's error
            pass
        del job, arg
        with _idle_lock:
            _idle.append(inbox)


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

    The branch that holds the baton runs until it blocks (see
    WorkflowInstance._block) or ends. Releasing the baton first runs, in the
    releasing thread, every timer that is due; then the baton goes to the
    runnable branch forked earliest. When no branch can run, the clock jumps
    to the next timer. A forked child is runnable at once, but its parent
    keeps the baton until it blocks. The timers are the timeouts of blocked
    waits and the instance's delayed actions; once no branch is live, none
    runs. A thread outside the instance (a controller's stop, a trigger
    delivery, an HTTP response, a nested instance's end) may make a branch
    runnable at any time; if the baton is free, that branch gets it at once.
    """

    def __init__(self) -> None:
        self.now = 0.0  # virtual seconds since the instance was built
        # guards every field below; no other lock is taken while it is held
        self._lock = threading.Lock()
        self._holder: Optional[_Branch] = None  # the branch with the baton
        self._ready: list[tuple[tuple[int, ...], _Branch]] = []  # heap, by fork order
        self._live = 0  # branches added that have not ended
        # heap of [due, seq, action]; a withdrawn timer's action is None
        self._timers: list[list] = []
        self._seq = itertools.count()

    def add(self, branch: _Branch) -> None:
        """Make a new branch runnable; its thread first waits for its baton."""
        with self._lock:
            self._live += 1
            self._make_ready(branch)

    def leave(self, branch: _Branch) -> None:
        """The branch has ended: give the baton away for good."""
        with self._lock:
            self._live -= 1
        self._release()

    def call_later(self, delay: float, action: Callable[[], object]) -> list:
        """Run action once delay has passed; the timer, for withdraw()."""
        with self._lock:
            timer = [self.now + delay, next(self._seq), action]
            heapq.heappush(self._timers, timer)
        return timer

    def withdraw(self, timer: list) -> None:
        """Drop a timer that has not run: it never moves the clock."""
        with self._lock:
            timer[2] = None

    def wake(self, branch: _Branch) -> None:
        """Make a branch blocked in pass_baton() runnable."""
        with self._lock:
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
        branch.baton.release()

    def pass_baton(self, branch: _Branch) -> None:
        """Give up the baton and wait until it comes back."""
        self._release()
        branch.baton.acquire()

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


class _CallToken(StopToken):
    """A call's stop token: its wait blocks the call's branch in _block, and
    set() or wake() wakes the branch only while it still waits on this token,
    so a late wake, such as an HTTP response to a call that has returned,
    ends no other wait. It has StopToken's flags but not its condition: the
    instance's state lock guards it."""

    def __init__(self, instance: WorkflowInstance, branch: _Branch):
        self._instance = instance
        self._branch = branch
        self._flag = False
        self._woken = False

    def set(self) -> None:
        self._flag = True
        self._instance._wake_if(self._branch, self)

    def wake(self) -> None:
        self._woken = True
        self._instance._wake_if(self._branch, self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._instance._state_lock:
            if not (self._flag or self._woken):
                self._instance._block(self._branch, self, timeout)
        return self._flag


class _JoinGroup:
    """Join bookkeeping for one execution of a parallel block; guarded by the
    instance's state lock."""

    def __init__(self, wait: dsl.WaitSpec, parallel_path: tuple[int, ...], parent: "_Branch"):
        self.wait = wait
        self.parallel_path = parallel_path
        self.parent = parent
        # the ids of the children forked or restored, and of those that have
        # arrived (a restored child may have arrived before the stop)
        self.children: list[str] = []
        self.arrived: list[str] = []
        self.spawning = True  # the parent is still executing the parallel body
        self.fired = False

    def ready_to_fire(self) -> bool:
        if self.fired:
            return False
        if self.wait.is_all:
            # an all-join's target is only known once spawning has finished
            return not self.spawning and len(self.arrived) == len(self.children)
        return len(self.arrived) >= self.wait.count  # type: ignore[operator]


class _Branch:
    def __init__(
        self,
        branch_id: str,
        region_block: dsl.Block,
        region_prefix: tuple[int, ...],
        group: Optional[_JoinGroup] = None,
    ):
        self.id = branch_id
        self.region_block = region_block
        self.region_prefix = region_prefix
        self.group = group
        # the joins this branch has open, innermost last
        self.group_stack: list[_JoinGroup] = []
        self.cancelled = False
        self.in_flight: Optional[HandlerCall] = None
        # the index of this branch's next child; only its own thread forks
        self.forks = 1
        # read with its restart path: its call's token there, and the k-joins passed that fired
        self.token: Optional[str] = None
        self.fired: tuple[tuple[int, ...], ...] = ()
        # what the branch is blocked on, a join's group, a section's name or
        # its call's stop token, until a wake clears it and releases the
        # baton, which under virtual time also gives the branch its turns
        self.waits_on: Optional[_Blocker] = None
        self.baton = threading.Lock()
        self.baton.acquire()


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
        self.instance_id = self.options.instance_id or f"i-{os.urandom(4).hex()}"
        if _restored_context is not None:
            values, version = _restored_context
            self.store = ContextStore(values, version)
        else:
            self.store = ContextStore.from_decls(ast.context_decls)
            if initial_context:
                unknown = set(initial_context) - set(self.store.current_values())
                if unknown:
                    raise ContextError(f"undeclared initial context: {sorted(unknown)}")
                for name, value in initial_context.items():
                    if not is_value(value):
                        raise ContextError(f"initial context {name!r} is not a value: {value!r}")
                merged = dict(self.store.current_values())
                merged.update(initial_context)
                self.store = ContextStore(merged)
        # opened once the context is accepted, so a refused one leaves the file be
        self.log = EventLog(
            self.instance_id, self.options.log_path, self.options.clock, self.options.start_seq
        )

        # how the instance ended: "finished", "stopped" or "error"
        self.result: Optional[str] = None
        # the message of each error record, in trace order, or of the failed
        # write of the terminal record
        self.errors: list[str] = []
        # live branches: a branch enters at fork and leaves when it arrives
        # at its join or ends
        self.branches: dict[str, _Branch] = {}
        # activities a resume was told to skip
        self.skip_positions: frozenset[str] = frozenset()

        # position -> path, built by the first jump
        self._position_paths: Optional[dict[str, tuple[int, ...]]] = None
        self._state_lock = threading.Lock()
        self._timeline = _Timeline() if self.options.virtual_time else None
        self._ended = threading.Condition(self._state_lock)  # notified by _end alone
        self._section_owners: dict[str, str] = {}  # critical section -> branch id
        self._stop_requested = False
        self._stop_source: Optional[str] = None
        self._signalled: set[str] = set()  # the failure signals in the trace
        self._started = False
        # branch id -> its entry: each parked branch, the root at its end, a
        # restored one until it is back at its path, and an arrived child
        # ([parallel, -1]) until its parent passes the join
        self._saved_paths: dict[str, _Restart] = {}
        self._root = _Branch(ROOT_BRANCH, ast.body, ())
        # (parent id, parallel path) -> (id, parallel_branch path or None if
        # it had arrived) of each child a resumed parent restores there
        self._resume_children: dict[tuple, list[tuple[str, Optional[tuple]]]] = {}

    # ------------------------------------------------------------------
    # Start, wait and stop
    # ------------------------------------------------------------------

    def start(self) -> "WorkflowInstance":
        """Start the instance with its root on a branch thread; see wait()."""
        self._begin()
        self._start_thread(self._root)
        return self

    def wait(self) -> str:
        """Wait until the instance has ended; its result."""
        with self._state_lock:
            if not self._started:
                raise EngineError("instance is not started")
            while self.result is None:
                self._ended.wait()
            return self.result

    def run(self) -> str:
        """Run the instance with its root on the calling thread until it has
        ended; its result. An exception that is not an Exception, raised in
        the root, is raised again once the instance has ended in error."""
        self._begin()
        if self._timeline is not None:
            self._timeline.add(self._root)
        try:
            self._run_branch(self._root)
        finally:
            self.wait()
        return self.result  # type: ignore[return-value]

    def _begin(self) -> None:
        if self._started:
            raise EngineError("instance already started")
        self._started = True
        self.log.emit("instance_start", ROOT_BRANCH, detail={"handler": self.ast.handler_name})
        with self._state_lock:
            self.branches[ROOT_BRANCH] = self._root

    def call_later(self, delay: float, action: Callable[[], object]) -> None:
        """Run action after delay seconds: of virtual time under virtual
        time, where it runs on the thread that hands the baton on, or else
        on a cache thread named wee-timer that sleeps out the delay (see
        _hand). The action must not block; one that raises leaves a
        timer_failed signal in the trace. Under virtual time an action still
        pending when the last branch ends never runs.
        """

        def run(after: float = 0.0) -> None:
            if after > 0:  # time.sleep refuses a negative delay
                time.sleep(after)
            try:
                action()
            except Exception as exc:
                detail = {"signal": "timer_failed", "message": repr(exc)}
                with self._state_lock:  # as every emit outside a branch is
                    self.log.emit("signal", ROOT_BRANCH, detail=detail)

        if self._timeline is not None:
            self._timeline.call_later(delay, run)
            return
        _hand("wee-timer", run, delay)

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
            self._stop(self.branches.values())

    def _stop(self, branches: Iterable[_Branch]) -> None:
        """Set the stop token of each branch's in-flight call and wake each
        blocked branch; caller holds the state lock."""
        for b in branches:
            if b.in_flight is not None:
                self.log.emit("signal", b.id, b.in_flight.position, {"signal": "stop_call"})
                b.in_flight.stop._flag = True  # a _CallToken: _wake wakes its waiter
        self._wake(branches)

    def _end(self) -> None:
        """Emit the terminal record and close the trace; caller holds the
        state lock, and the last branch has just left the registry. An
        instance whose trace could not be written in full ends in error.
        Whatever raises, the trace is closed and wait() returns."""
        try:
            if self.log.listener_error is not None:
                self._signal_once("listener_failed", self.log.listener_error)
            if self.log.write_error is not None and not self.errors:
                # the write failed after the last checkpoint
                self.errors.append(f"trace write failed: {self.log.write_error}")
                self.log.emit("error", ROOT_BRANCH, detail={"message": self.errors[0]})
            if self.errors:  # not saved: no resume replays a token
                for restart in self._saved_paths.values():
                    self._release(restart.token)
                self.result = "error"
                self.log.emit("instance_stop", ROOT_BRANCH, detail={"error": self.errors[0]})
            elif self._stop_requested:
                self.result = "stopped"
                # a root with no restart path ran to its end: a resume starts past it
                self._saved_paths.setdefault(ROOT_BRANCH, _Restart((len(self.ast.body),)))
                # no branch is left to emit, so this record takes the next seq
                saved = self._saved_state(self.log.seq + 1)
                detail = {"source": self._stop_source, "saved": saved}
                self.log.emit("instance_stop", ROOT_BRANCH, detail=detail)
            else:
                self.result = "finished"
                self.log.emit("instance_finish", ROOT_BRANCH)
            if self.log.write_error is not None and not self.errors:
                # the terminal record itself was not written
                self.result = "error"
                self.errors.append(f"trace write failed: {self.log.write_error}")
                for restart in self._saved_paths.values():
                    self._release(restart.token)
        finally:
            if self.result is None:  # an engine bug raised before the terminal record
                self.result = "error"
            self.log.close()
            self._ended.notify_all()

    def _report_error(self, branch: _Branch, exc: Exception) -> None:
        with self._state_lock:
            if isinstance(exc, _TraceWriteFailed) and self.errors:
                return  # another branch found the failed write first
            self.errors.append(str(exc))
            self.log.emit("error", branch.id, detail={"message": str(exc)})
        self.request_stop(source="error")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self) -> dict:
        """The saved state of a stopped instance, as its instance_stop record carries it."""
        if self.result != "stopped":
            raise EngineError("only stopped instances can be saved")
        with self._state_lock:
            return self._saved_state(self.log.seq)

    def _saved_state(self, seq: int) -> dict:
        """The workflow's source hash, the instance id, seq, each saved
        branch's entry, and the context and its version; caller holds the
        state lock."""
        entries: list[dict] = []
        for branch_id, (path, forks, token, fired) in sorted(self._saved_paths.items()):
            entry: dict = {"id": branch_id, "path": list(path)}
            if forks > 1:
                entry["forks"] = forks
            if token is not None:
                entry["token"] = token
            if fired:
                entry["fired"] = [list(parallel) for parallel in fired]
            entries.append(entry)
        return {
            "schema": SAVED_SCHEMA,
            "workflow": self.ast.source_hash,
            "instance": self.instance_id,
            "seq": seq,
            "branches": entries,
            "context": dict(self.store.current_values()),
            "version": self.store.version,
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
        names, declared = saved["context"].keys(), {name for name, _ in ast.context_decls}
        if names != declared:
            missing, extra = sorted(declared - names), sorted(names - declared, key=repr)
            raise EngineError(f"corrupt saved state: context lacks {missing}, undeclared {extra}")
        skip = frozenset(skip_positions)
        unknown = sorted(skip - set(dsl.positions(ast))) if skip else []
        if unknown:
            raise EngineError(f"skip positions not in workflow: {unknown}")

        entries = saved["branches"]
        paths = {entry["id"]: tuple(entry["path"]) for entry in entries}
        if len(paths) < len(entries):
            raise EngineError("corrupt saved state: a branch has two entries")
        if ROOT_BRANCH not in paths:  # else the resume would run the workflow again
            raise EngineError("corrupt saved state: no root branch")
        # a branch's next fork index: as saved, and past each saved child's
        forks = {entry["id"]: entry.get("forks", 1) for entry in entries}
        joins = {}  # child id -> (the parallel it joins, its parallel_branch or None)
        along = {}  # branch id -> the nodes along its path, or along p for a child at [p, -1]
        for branch_id, path in paths.items():
            if branch_id == ROOT_BRANCH and path == (len(ast.body),):
                continue  # the root had finished its body when it stopped
            arrived = branch_id != ROOT_BRANCH and path[-1:] == (-1,)  # at its join
            try:
                along[branch_id] = dsl.nodes_along(ast, path[:-1] if arrived else path)
            except IndexError as exc:
                raise EngineError(f"corrupt saved state: branch {branch_id}: {exc}") from exc
            if branch_id == ROOT_BRANCH:
                continue
            parent_id, _, fork_index = branch_id.rpartition(".")
            if not (parent_id and fork_index.isascii() and fork_index.isdigit()):
                raise EngineError(f"corrupt saved state: branch id {branch_id!r}")
            forks[parent_id] = max(forks.get(parent_id, 1), int(fork_index) + 1)
            joins[branch_id] = cls._joined_parallel(branch_id, path, along[branch_id])

        # a parent restores its children on its way back to its own saved
        # path, which must pass their parallel below its own parallel_branch
        regions = {ROOT_BRANCH: ()} | {b: pb + (0,) for b, (_, pb) in joins.items() if pb}
        children: dict[tuple, list[tuple[str, Optional[tuple]]]] = {}
        for branch_id, (parallel_path, pb_path) in joins.items():
            parent_id = branch_id.rpartition(".")[0]
            region = regions.get(parent_id)  # None: not saved, or it had arrived
            passes = region is not None and paths[parent_id][: len(parallel_path)] == parallel_path
            if not (passes and parallel_path[: len(region)] == region):
                raise EngineError(
                    f"corrupt saved state: branch {branch_id}: its parent is not saved "
                    f"at or inside the parallel {list(parallel_path)} it joins"
                )
            children.setdefault((parent_id, parallel_path), []).append((branch_id, pb_path))
        # only the call that handed a token out replays it, and a fired join is a
        # k-join that k saved children reached: the check above put it on the
        # branch's path, so the branch re-enters it on its way back there
        restarts = {}
        for entry in entries:
            branch_id, path = entry["id"], paths[entry["id"]]
            fired = tuple(map(tuple, entry["fired"])) if "fired" in entry else ()
            restarts[branch_id] = _Restart(path, forks[branch_id], entry.get("token"), fired)
            nodes = along.get(branch_id) or [None]  # the root at its end: at no node
            refusal = f"corrupt saved state: branch {branch_id}"
            if "token" in entry and not isinstance(nodes[-1], dsl.CallActivity):
                raise EngineError(f"{refusal}: token not at a call")
            for parallel in fired:
                arrived = sum(pb is None for _, pb in children.get((branch_id, parallel), ()))
                node = nodes[len(parallel) // 2] if arrived and len(parallel) < len(path) else None
                k = node.wait.count if isinstance(node, dsl.Parallel) else None  # None: wait: all
                if k is None or arrived < k:  # it fired once k children had arrived
                    raise EngineError(f"{refusal}: fired {list(parallel)}")

        options = options or RunOptions()
        options = options._replace(
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
        instance._saved_paths = restarts
        instance._resume_children = children
        return instance

    @staticmethod
    def _check_saved(saved: object) -> None:
        """Reject a saved state not in the current schema, or whose keys or
        branch entries are unknown, missing or have the wrong JSON types."""

        def corrupt(what: str) -> EngineError:
            return EngineError(f"corrupt saved state: {what}")

        def is_path(value: object) -> bool:
            return isinstance(value, list) and all(type(index) is int for index in value)

        if not isinstance(saved, dict):
            raise corrupt(f"a {type(saved).__name__}, not an object")
        schema = saved.get("schema")
        if schema != SAVED_SCHEMA:
            raise EngineError(f"saved state has schema {schema!r}, expected {SAVED_SCHEMA}")
        kinds = dict(workflow=str, instance=str, seq=int, branches=list, context=dict, version=int)
        if unknown := set(saved) - set(kinds) - {"schema"}:
            raise corrupt(f"unknown key {min(unknown, key=repr)!r}")
        for key, kind in kinds.items():
            if key not in saved:
                raise corrupt(f"no {key}")
            if not isinstance(saved[key], kind) or isinstance(saved[key], bool):
                raise corrupt(f"{key} {saved[key]!r}")
        if saved["seq"] < 1:  # a stopped instance has traced its start and stop
            raise corrupt(f"seq {saved['seq']!r}")
        for name, value in saved["context"].items():
            if not is_value(value):
                raise corrupt(f"context {name!r}: {value!r} is not a value")
        for entry in saved["branches"]:
            if not isinstance(entry, dict):
                raise corrupt(f"branch entry {entry!r}")
            branch_id, path = entry.get("id"), entry.get("path")
            if not isinstance(branch_id, str):
                raise corrupt(f"branch id {branch_id!r}")
            if not _ENTRY_KEYS.issuperset(entry):
                unknown = min(set(entry) - _ENTRY_KEYS, key=repr)
                raise corrupt(f"branch {branch_id}: unknown key {unknown!r}")
            if not is_path(path):
                raise corrupt(f"branch {branch_id}: path {path!r}")
            forks = entry.get("forks", 1)
            if type(forks) is not int or forks < 1:
                raise corrupt(f"branch {branch_id}: forks {forks!r}")
            if not isinstance(entry.get("token", ""), str):
                raise corrupt(f"branch {branch_id}: token {entry['token']!r}")
            fired = entry.get("fired", [])
            if not (isinstance(fired, list) and all(map(is_path, fired))):
                raise corrupt(f"branch {branch_id}: fired {fired!r}")

    @staticmethod
    def _joined_parallel(
        branch_id: str, path: tuple[int, ...], nodes: list[dsl.Node]
    ) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
        """(path of the parallel a saved child joins, path of its
        parallel_branch, or None for a child that had arrived), given the
        nodes along path, or along the parallel's for the arrived child."""
        if path[-1:] == (-1,):
            if len(path) % 2 or not nodes or not isinstance(nodes[-1], dsl.Parallel):
                raise EngineError(f"corrupt saved state: {path[:-1]} is not a parallel block")
            return path[:-1], None
        # the innermost parallel_branch above the node, and the parallel it is in
        pb = owner = parallel = None
        for i, node in enumerate(nodes[:-1]):
            if isinstance(node, dsl.Parallel):
                parallel = i
            elif isinstance(node, dsl.ParallelBranch):
                pb, owner = i, parallel
        if owner is None:
            raise EngineError(f"corrupt saved state: branch {branch_id} is not in a parallel")
        return path[: 2 * owner + 1], path[: 2 * pb + 1]

    # ------------------------------------------------------------------
    # Branch machinery
    # ------------------------------------------------------------------

    def _start_thread(self, branch: _Branch) -> None:
        """Run the branch on a cache thread named after it (see _hand)."""
        if self._timeline is not None:
            self._timeline.add(branch)
        _hand(f"wee-{branch.id}", self._run_branch, branch)

    def _run_branch(self, branch: _Branch) -> None:
        if self._timeline is not None:
            branch.baton.acquire()  # the timeline's first turn
        parked = None  # the entry a resume restarts the branch from
        try:
            while True:
                # restored, or after a jump: it restarts at its saved path; no lock, as
                # only a cancel, which it obeys at once, changes the entry meanwhile
                restart = self._saved_paths.get(branch.id) or (None, branch.forks, None, ())
                path, branch.forks, branch.token, branch.fired = restart
                try:
                    pending = None if path is None else path[len(branch.region_prefix) :]
                    self._exec_block(branch, branch.region_block, branch.region_prefix, pending)
                    break
                except _JumpTo as jump:
                    with self._state_lock:  # until it is at the target, a stop parks it there
                        self._saved_paths[branch.id] = _Restart(jump.path, branch.forks)
            if branch.group is not None:
                self._child_finished(branch)
        except _Parked as park:
            parked = _Restart(park.path, branch.forks, branch.token, park.fired)
        except _Cancelled:
            pass
        except EngineError as exc:
            self._report_error(branch, exc)
        except Exception as exc:  # engine bug: fail loudly instead of hanging
            self._report_error(branch, EngineError(f"internal error: {exc!r}"))
        except BaseException as exc:  # an interrupt or exit, in a handler or the engine
            self._report_error(branch, EngineError(f"interrupted: {exc!r}"))
            raise
        finally:
            with self._state_lock:
                self.branches.pop(branch.id, None)
                if branch.cancelled:  # a cancel may follow its park or its jump
                    self._saved_paths.pop(branch.id, None)
                    self._drop_token(branch)
                elif parked is not None:  # one parked on its way back keeps its restart path
                    self._saved_paths.setdefault(branch.id, parked)
                if not self.branches and self.result is None:
                    self._end()
            if self._timeline is not None:
                self._timeline.leave(branch)

    def _child_finished(self, child: _Branch) -> None:
        """Arrive at the child's join unless it was cancelled.

        The child leaves the registry in the section in which it arrives, so
        a cancel of its parent cannot signal it. Its restart path is the
        join's until its parent passes the join.
        """
        group = child.group
        assert group is not None
        with self._state_lock:
            if child.cancelled:
                return
            group.arrived.append(child.id)
            self._saved_paths[child.id] = _Restart(group.parallel_path + (-1,))
            self.log.emit(
                "branch_join",
                child.id,
                detail={"role": "arrive", "parent": group.parent.id},
            )
            del self.branches[child.id]
            self._maybe_fire(group)

    def _maybe_fire(self, group: _JoinGroup) -> None:
        """Fire the join if its condition holds, cancelling the losers of a
        k-join; caller holds the state lock. After a stop the resume fires it."""
        if self._stop_requested or not group.ready_to_fire():
            return
        group.fired = True
        self.log.emit(
            "branch_join",
            group.parent.id,
            detail={
                "role": "fire",
                "arrived": len(group.arrived),
                "spawned": len(group.children),
                "wait": "all" if group.wait.is_all else group.wait.count,
            },
        )
        if not group.wait.is_all:  # the winners keep their restart paths
            self._cancel([c for c in group.children if c not in group.arrived])
        self._wake([group.parent], group)  # not from a call it may be waiting in

    def _cancel(self, ids: list[str]) -> None:
        """Cancel the named branches and all below them: stop their calls in flight
        and drop their saved entries; caller holds the state lock."""
        below = tuple(f"{branch_id}." for branch_id in ids)  # "0.2." matches 0.2 and 0.2.1
        cancelled = [
            b
            for b in self.branches.values()
            if f"{b.id}.".startswith(below) and not b.cancelled
        ]
        for b in cancelled:
            b.cancelled = True
            self.log.emit("signal", b.id, detail={"signal": "no_longer_necessary"})
        self._stop(cancelled)
        for branch_id in [k for k in self._saved_paths if f"{k}.".startswith(below)]:
            self._release(self._saved_paths.pop(branch_id).token)

    def _drop_token(self, branch: _Branch) -> None:
        """The branch's token will not be replayed: the handler may release
        it; caller holds the state lock."""
        token, branch.token = branch.token, None
        self._release(token)

    def _release(self, token: Optional[str]) -> None:
        """Have the handler release a token that no call will replay; caller
        holds the state lock. The first release that raises leaves a
        release_failed signal."""
        if token is None:
            return
        try:
            self.handler.release(token)
        except Exception as exc:
            self._signal_once("release_failed", exc)

    def _signal_once(self, signal: str, exc: Exception) -> None:
        """Leave a signal for the first failure of its kind, unless the
        instance has ended; caller holds the state lock."""
        if signal not in self._signalled and self.result is None:
            self._signalled.add(signal)
            self.log.emit("signal", ROOT_BRANCH, detail={"signal": signal, "message": repr(exc)})

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
        if start is None:  # no restart path: the common case
            for index, node in enumerate(block):
                self._exec_node(branch, node, prefix + (index,), None)
            return
        if len(start) < 2:
            with self._state_lock:  # the branch is back at the path it restarts at
                self._saved_paths.pop(branch.id, None)
        sub = (start[1:] or None) if start else None  # the first node's restart path
        for index in range(start[0] if start else 0, len(block)):
            self._exec_node(branch, block[index], prefix + (index,), sub)
            sub = None

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
            else:  # a skipped call leaves no token to replay
                with self._state_lock:
                    self._drop_token(branch)
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

    def _block(self, branch: _Branch, on: _Blocker, timeout: Optional[float] = None) -> None:
        """Wait for the wake that clears branch.waits_on, or for the timeout;
        caller holds the state lock, which is released meanwhile."""
        timeline, timer = self._timeline, None
        if timeline is not None and timeout is not None:
            timer = timeline.call_later(timeout, functools.partial(self._wake_if, branch, on))
        branch.waits_on = on
        woken = None  # stays None if a signal interrupts the wait on run()'s caller
        try:
            # inside the try: a signal's exception raised as the release
            # returns reaches the finally, which takes the lock back
            self._state_lock.release()
            if timeline is not None:
                timeline.pass_baton(branch)
                woken = True
            else:
                woken = branch.baton.acquire(timeout=-1 if timeout is None else max(timeout, 0))
        finally:
            # an interrupt leaves the state lock held for the caller's `with`
            self._state_lock.acquire()
            if timer is not None:  # a stale timer would move the clock
                timeline.withdraw(timer)  # type: ignore[union-attr]
            if woken is None:  # the branch is on its way out: no wake may give it a turn
                branch.waits_on = None
        if not woken:
            if branch.waits_on is None:  # a wake came as the time ran out: take
                branch.baton.acquire()  # its release, or the next wait ends at once
            branch.waits_on = None

    def _wake(self, branches: Iterable[_Branch], on: Optional[_Blocker] = None) -> None:
        """Wake each of the branches that is blocked, if given only those
        blocked on `on`; caller holds the state lock."""
        for b in branches:
            if b.waits_on is not None and (on is None or b.waits_on is on):
                b.waits_on = None
                if self._timeline is None:
                    b.baton.release()
                else:
                    self._timeline.wake(b)

    def _wake_if(self, branch: _Branch, on: _Blocker) -> None:
        """Wake the branch if it still waits on `on`."""
        with self._state_lock:
            self._wake([branch], on)

    def _checkpoint(self, branch: _Branch, path: tuple[int, ...]) -> None:
        """Stand down on cancel, else fail on a trace write that failed, else
        park on a stop request; caller holds the state lock."""
        if branch.cancelled:
            raise _Cancelled()
        if self.log.write_error is not None and not self.errors:
            raise _TraceWriteFailed(f"trace write failed: {self.log.write_error}")
        if self.log.listener_error is not None:
            self._signal_once("listener_failed", self.log.listener_error)
        if self._stop_requested:
            raise _Parked(path)

    def _begin_activity(self, branch: _Branch, node, path: tuple[int, ...], detail: dict) -> None:
        with self._state_lock:
            self._checkpoint(branch, path)
            self.log.emit("activity_start", branch.id, node.position, detail)

    def _commit(
        self, branch: _Branch, position: str, delta: list[Change], new_values: dict[str, Value]
    ) -> None:
        """Commit a delta and trace it; caller holds the store's exclusive lock."""
        version = self.store.commit(delta, new_values)
        self.log.emit_change(branch.id, position, delta, version)

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

        values, version = self.store.state()
        try:
            parameters = {name: eval_expr(expr, values) for name, expr in node.parameters}
        except EvalError as exc:
            # a cancelled or stopping branch stands down or parks instead
            with self._state_lock:
                self._checkpoint(branch, path)
            raise EngineError(f"call '{node.position}' parameters: {exc}") from exc

        with self._state_lock:
            self._checkpoint(branch, path)
            # a restored call's token leaves its branch only once the call is
            # sure to begin again: a branch parked by the checkpoint keeps it
            token, branch.token = branch.token, None
            call_id, stop = f"{branch.id}/{node.position}", _CallToken(self, branch)
            context = MappingProxyType(values)
            call = branch.in_flight = _new_call(
                (call_id, node.position, uri, parameters, context, version, stop, token)
            )
            self.log.emit("activity_start", branch.id, node.position, events.START_CALL)
        try:
            outcome = self.handler.call(call)
        except Exception as exc:
            outcome = Failure(f"handler raised: {exc!r}")
        finally:
            with self._state_lock:
                branch.in_flight = None
                stopped = self._stop_requested
                cancelled = branch.cancelled

        if cancelled:
            if isinstance(outcome, Passthrough):  # no resume replays it
                with self._state_lock:
                    self._release(outcome.token)
            raise _Cancelled()
        # a result or jump is applied even after a stop, and the branch then
        # parks at its next checkpoint
        if isinstance(outcome, Result):
            self._commit_result(branch, node, outcome)
            self.log.emit("activity_end", branch.id, node.position, events.END_RESULT)
        elif isinstance(outcome, Jump):
            self._apply_jump(branch, node, outcome.target)
        elif stopped:
            # the branch parks at the call, and the resume replays its token,
            # so the service is not called again; a failed call runs again,
            # and a failed replay keeps its token
            branch.token = outcome.token if isinstance(outcome, Passthrough) else token
            raise _Parked(path)
        elif isinstance(outcome, Passthrough):
            with self._state_lock:  # no resume replays it
                self._release(outcome.token)
            raise EngineError(
                f"call '{node.position}': handler returned a passthrough without a stop"
            )
        else:
            raise EngineError(f"call '{node.position}': {outcome.message}")

    def _exec_engine_call(self, branch: _Branch, node, path, uri: str) -> None:
        self._begin_activity(branch, node, path, events.START_CALL)
        with self._state_lock:  # the call has begun, and an engine call replays none
            self._drop_token(branch)
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
        raise _JumpTo(target_path)

    def _exec_parallel(self, branch: _Branch, node: dsl.Parallel, path, sub) -> None:
        group = _JoinGroup(node.wait, path, branch)
        # a k-join that fired before the stop: its restored arrivals do not fire it again
        group.fired = sub is not None and path in branch.fired
        branch.group_stack.append(group)
        try:
            saved = self._resume_children.pop((branch.id, path), None)
            if saved:
                self._attach_saved_children(group, saved)
            if not (saved and sub is None):  # else the body had ended before the stop
                self._exec_block(branch, node.body, path + (0,), sub[1:] if sub else None)

            with self._state_lock:
                group.spawning = False
                wait, spawned = node.wait.count, len(group.children)
                if wait is not None and spawned < wait:
                    raise EngineError(f"unsatisfiable join: wait {wait} of {spawned} branches")
                self._maybe_fire(group)
                while not group.fired:
                    self._checkpoint(branch, path)
                    self._block(branch, group)
                for child_id in group.arrived:  # past the join: a resume restores none
                    self._saved_paths.pop(child_id, None)  # a cancel may have dropped it
        except _Parked as park:
            if group.fired:  # the parked entry says so, and the resume does not fire it
                park.fired = (path,) + park.fired
            raise
        except _JumpTo:
            # the jump leaves the block, so its join will never fire: the
            # children forked so far are no longer necessary
            with self._state_lock:
                self._cancel(group.children)
            raise
        finally:
            branch.group_stack.pop()

    def _attach_saved_children(self, group: _JoinGroup, saved: list[tuple]) -> None:
        # every restored child is counted before any starts, so none fires the join early
        children = []
        with self._state_lock:
            for child_id, pb_path in saved:
                if pb_path is None:  # it arrived before the stop
                    group.children.append(child_id)
                    group.arrived.append(child_id)
                else:
                    pb_node = dsl.nodes_along(self.ast, pb_path)[-1]
                    children.append(_Branch(child_id, pb_node.body, pb_path + (0,), group=group))
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
        """Register children, fire a join that restored arrivals satisfy, and
        start the children's threads.

        A child of a cancelled parent, or of a k-join that has fired, is
        cancelled before it starts, so a restored loser stands down at once;
        a parent cancelled later finds its children in the registry.
        """
        with self._state_lock:
            for child in children:
                group.children.append(child.id)
                self.branches[child.id] = child
                detail = {"child": child.id, "resumed": True} if resumed else {"child": child.id}
                self.log.emit("branch_fork", group.parent.id, detail=detail)
                if group.parent.cancelled or (group.fired and not group.wait.is_all):
                    self._cancel([child.id])
            self._maybe_fire(group)
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
                values = self.store.current_values()
                for later in range(selector + 1, len(node.alternatives)):
                    if self._eval_guard(node.alternatives[later].guard, values, path):
                        self._exec_block(branch, blocks[later], path + (later,))
            return

        values = self.store.current_values()
        selected = [
            i
            for i, alt in enumerate(node.alternatives)
            if self._eval_guard(alt.guard, values, path)
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
        body, body_path, store = node.body, path + (0,), self.store
        if sub is not None:
            self._exec_block(branch, body, body_path, sub[1:])
        iterations = 0
        # a commit swaps in a new dict, so the current one is a consistent snapshot
        while self._eval_guard(node.condition, store.current_values(), path):
            iterations += 1
            if iterations > self.options.max_iterations:
                raise EngineError(
                    f"iteration cap exceeded ({self.options.max_iterations}) at {path}"
                )
            self._exec_block(branch, body, body_path)

    def _exec_critical(self, branch: _Branch, node: dsl.Critical, path, sub) -> None:
        section = node.section
        with self._state_lock:
            if self._section_owners.get(section) == branch.id:
                raise EngineError(f"critical section '{section}' re-entered")
            # the holder may have released by parking: don't enter once stopping
            self._checkpoint(branch, path)
            try:
                while section in self._section_owners:
                    self._block(branch, section)
                    self._checkpoint(branch, path)
            except (_Parked, _Cancelled):
                # an exit may have woken this branch just before its cancel
                # or the stop did: pass that wake on
                if section not in self._section_owners:
                    self._wake_waiter(section)
                raise
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
                self._wake_waiter(section)

    def _wake_waiter(self, section: str) -> None:
        """Wake the section's earliest-forked waiter; caller holds the state lock."""
        waiters = [b for b in self.branches.values() if b.waits_on == section]
        if waiters:
            self._wake([min(waiters, key=lambda b: _fork_order(b.id))])

