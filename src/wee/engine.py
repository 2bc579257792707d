"""Workflow instance execution.

One thread of control per branch: the root branch walks the workflow body,
and every parallel_branch forks a child thread that shares the context store
and the critical-section registry. Joins wait for all branches or for the
first k (the losers receive a no-longer-necessary signal and stand down at
their next node boundary; their in-flight calls get stop_call). A stop
signal parks every branch at its program counter so the instance can be
serialized and resumed later, with passthrough tokens standing in for
interrupted service calls.

Branch coordination uses one lock and one condition built on it per
instance. The lock guards the stop request, each branch's cancel flag and
in-flight call, the join groups, the critical-section owners and the count
of live branches; every change that can unblock a waiter notifies the
condition. Handlers are never called while the lock is held.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional

from . import dsl
from .context import ContextError, ContextStore
from .events import EventLog
from .expressions import Change, EvalError, Value, apply_assignments, eval_expr, is_value
from .handlers import Failure, HandlerCall, HandlerWrapper, Jump, Passthrough, Result

ROOT_BRANCH = "0"
STOP_ENDPOINT = "wee://stop"


class EngineError(Exception):
    """Runtime failure of a workflow instance (aborts the run)."""


class Lifecycle(str, Enum):
    READY = "ready"
    RUNNING = "running"
    STOPPED = "stopped"
    FINISHED = "finished"


class BranchStatus(str, Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    WAITING_JOIN = "waiting_join"
    IN_CRITICAL = "in_critical"


@dataclass
class RunOptions:
    max_iterations: int = 1_000_000
    instance_id: Optional[str] = None
    log_path: Optional[str] = None
    log_append: bool = False
    start_seq: int = 0
    clock: Optional[object] = None  # callable returning an ISO-8601 string
    skip_positions: frozenset[str] = frozenset()


# control-flow signals inside branch threads
class _JumpTo(Exception):
    def __init__(self, rel_path: tuple[int, ...]):
        self.rel_path = rel_path


class _Parked(Exception):
    def __init__(self, path: tuple[int, ...]):
        self.path = path


class _Cancelled(Exception):
    pass


class _JoinGroup:
    """Join bookkeeping for one execution of a parallel block; guarded by the
    instance's state lock."""

    def __init__(self, wait: dsl.WaitSpec, parallel_path: tuple[int, ...], parent: "_Branch"):
        self.wait = wait
        self.parallel_path = parallel_path
        self.parent = parent
        self.children: list[_Branch] = []
        self.arrived: list[str] = []
        self.pre_arrived = 0  # completions restored from a saved instance
        self.spawning = True  # the parent is still executing the parallel body
        self.fired = False
        self.closed = False

    def total_spawned(self) -> int:
        return len(self.children) + self.pre_arrived

    def arrivals(self) -> int:
        return len(self.arrived) + self.pre_arrived

    def ready_to_fire(self) -> bool:
        if self.fired:
            return False
        if self.wait.is_all:
            # an all-join's target is only known once spawning has finished
            return not self.spawning and self.arrivals() == self.total_spawned()
        return self.arrivals() >= self.wait.count  # type: ignore[operator]

    def wait_desc(self) -> object:
        return "all" if self.wait.is_all else self.wait.count


class _Branch:
    def __init__(
        self,
        engine: "WorkflowInstance",
        branch_id: str,
        region_block: dsl.Block,
        region_prefix: tuple[int, ...],
        group: Optional[_JoinGroup] = None,
        group_stack: Optional[list[_JoinGroup]] = None,
        resume_path: Optional[tuple[int, ...]] = None,
    ):
        self.engine = engine
        self.id = branch_id
        self.region_block = region_block
        self.region_prefix = region_prefix
        self.group = group
        self.group_stack: list[_JoinGroup] = list(group_stack or [])
        self.resume_path = resume_path
        self.cancelled = False
        self.status = BranchStatus.ACTIVE
        self.in_flight_position: Optional[str] = None
        self.parked = False
        self.saved_path: Optional[tuple[int, ...]] = None

    def start_thread(self) -> None:
        threading.Thread(
            target=self.engine._run_branch, args=(self,), name=f"wee-{self.id}", daemon=True
        ).start()


@dataclass
class BranchInfo:
    status: str
    path: Optional[list[int]] = None


@dataclass
class InstanceState:
    lifecycle: str
    branches: dict[str, BranchInfo]
    context: dict[str, Value]
    version: int
    passthroughs: dict[str, str] = field(default_factory=dict)


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
        self.log = EventLog(
            self.instance_id,
            path=self.options.log_path,
            clock=self.options.clock,  # type: ignore[arg-type]
            start_seq=self.options.start_seq,
            append=self.options.log_append,
        )
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

        self.lifecycle = Lifecycle.READY
        self.result: Optional[str] = None
        self.passthroughs: dict[str, str] = {}
        self.branches: dict[str, _Branch] = {}
        self.skip_positions = frozenset(self.options.skip_positions)

        self._position_paths = dsl.position_paths(ast)
        self._state_lock = threading.Lock()
        self._cond = threading.Condition(self._state_lock)
        self._live_branches = 0
        self._section_owners: dict[str, str] = {}  # critical section -> branch id
        self._stop_requested = False
        self._stop_source: Optional[str] = None
        self._error: Optional[str] = None
        self._terminal = False
        self._groups: list[_JoinGroup] = []
        self._fork_counters: dict[str, int] = {}
        self._resume_children: dict[tuple[str, tuple[int, ...]], list[tuple[str, Optional[tuple]]]] = {}
        self._root_resume: Optional[tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "WorkflowInstance":
        if self.lifecycle is not Lifecycle.READY:
            raise EngineError(f"instance is {self.lifecycle.value}, not ready")
        self.lifecycle = Lifecycle.RUNNING
        self.log.emit("instance_start", ROOT_BRANCH, detail={"handler": self.ast.handler_name})
        root = _Branch(self, ROOT_BRANCH, self.ast.body, (), resume_path=self._root_resume)
        self._register_branch(root)
        root.start_thread()
        return self

    def wait(self) -> str:
        with self._state_lock:
            while self._live_branches:
                self._cond.wait()
        self._finalize()
        assert self.result is not None
        return self.result

    def run(self) -> str:
        return self.start().wait()

    def deliver_stop(self) -> None:
        """Stop the instance and wait until every branch has parked."""
        with self._state_lock:
            if self._terminal:
                return
        self.request_stop(source="controller")
        self.wait()

    def request_stop(self, source: str = "controller") -> None:
        """Request a stop; after this no branch starts another activity."""
        with self._state_lock:
            if self._stop_requested or self._terminal:
                return
            self._stop_requested = True
            self._stop_source = source
            branches = list(self.branches.values())
            self._cond.notify_all()
        self.log.emit("signal", ROOT_BRANCH, detail={"signal": "stop", "source": source})
        self.log.emit("stop_acknowledged", ROOT_BRANCH)
        self._stop_calls(branches)

    def _stop_calls(self, branches: Iterable[_Branch]) -> None:
        """Ask the handler to wind down each branch's in-flight call.

        Called without the state lock held; a stop_call that raises leaves a
        stop_call_failed signal in the trace.
        """
        with self._state_lock:
            calls = [
                (b.id, b.in_flight_position) for b in branches if b.in_flight_position is not None
            ]
        for branch_id, position in calls:
            self.log.emit("signal", branch_id, position, {"signal": "stop_call"})
            try:
                self.handler.stop_call(position)
            except Exception as exc:
                self.log.emit(
                    "signal",
                    branch_id,
                    position,
                    {"signal": "stop_call_failed", "message": repr(exc)},
                )

    def _finalize(self) -> None:
        with self._state_lock:
            if self._terminal:
                return
            self._terminal = True
            if self._error is not None:
                self.result = "error"
                self.lifecycle = Lifecycle.STOPPED
                self.log.emit("instance_stop", ROOT_BRANCH, detail={"error": self._error})
            elif self._stop_requested:
                self.result = "stopped"
                self.lifecycle = Lifecycle.STOPPED
                self.log.emit(
                    "instance_stop", ROOT_BRANCH, detail={"source": self._stop_source}
                )
            else:
                self.result = "finished"
                self.lifecycle = Lifecycle.FINISHED
                self.log.emit("instance_finish", ROOT_BRANCH)
            self.log.close()

    def _report_error(self, branch: _Branch, exc: Exception, position: Optional[str] = None) -> None:
        with self._state_lock:
            if self._error is None:
                self._error = str(exc)
        self.log.emit("error", branch.id, position, {"message": str(exc)})
        self.request_stop(source="error")

    # ------------------------------------------------------------------
    # State inspection / persistence
    # ------------------------------------------------------------------

    def state(self) -> InstanceState:
        with self._state_lock:
            branches = {}
            for b in self.branches.values():
                path = list(b.saved_path) if b.saved_path is not None else None
                branches[b.id] = BranchInfo(b.status.value, path)
            return InstanceState(
                lifecycle=self.lifecycle.value,
                branches=branches,
                context=dict(self.store.current_values()),
                version=self.store.version,
                passthroughs=dict(self.passthroughs),
            )

    def save(self) -> dict:
        """Serialize a stopped instance for later resume."""
        if self.lifecycle is not Lifecycle.STOPPED:
            raise EngineError("only stopped instances can be saved")
        entries: list[dict] = []
        with self._state_lock:
            for branch in self.branches.values():
                if branch.parked and branch.saved_path is not None:
                    entries.append({"id": branch.id, "path": list(branch.saved_path)})
            for group in self._groups:
                if group.closed:
                    continue
                for child_id in group.arrived:
                    entries.append(
                        {"id": child_id, "path": list(group.parallel_path) + [-1]}
                    )
        entries.sort(key=lambda e: e["id"])
        return {
            "lifecycle": "stopped",
            "branches": entries,
            "context": dict(self.store.current_values()),
            "version": self.store.version,
            "passthroughs": dict(self.passthroughs),
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
        """Rebuild a stopped instance; branches restart at their saved paths."""
        if saved.get("lifecycle") != "stopped":
            raise EngineError("saved instance is not stopped")
        options = options or RunOptions()
        known = dsl.position_paths(ast)
        skip = frozenset(skip_positions)
        unknown = sorted(skip - set(known))
        if unknown:
            raise EngineError(f"skip positions not in workflow: {unknown}")
        options.skip_positions = skip

        instance = cls(
            ast,
            handler,
            options,
            _restored_context=(dict(saved["context"]), int(saved["version"])),
        )
        instance.passthroughs = dict(saved.get("passthroughs", {}))

        entries = saved.get("branches", [])
        by_id = {}
        for entry in entries:
            by_id[entry["id"]] = tuple(entry["path"])
        if ROOT_BRANCH not in by_id and entries:
            raise EngineError("corrupt saved state: no root branch")

        for branch_id, path in by_id.items():
            head, _, tail = branch_id.rpartition(".")
            if head and tail.isdigit():
                counter = instance._fork_counters.get(head, 1)
                instance._fork_counters[head] = max(counter, int(tail) + 1)

        for branch_id, path in by_id.items():
            if branch_id == ROOT_BRANCH:
                instance._root_resume = path if path else None
                continue
            parent_id = branch_id.rpartition(".")[0]
            if path and path[-1] == -1:
                parallel_path = path[:-1]
                cls._validate_parallel_path(ast, parallel_path)
                key = (parent_id, parallel_path)
                instance._resume_children.setdefault(key, []).append((branch_id, None))
            else:
                plan = cls._live_child_plan(ast, branch_id, path)
                key = (parent_id, plan[0])
                instance._resume_children.setdefault(key, []).append((branch_id, plan))
        return instance

    @staticmethod
    def _validate_parallel_path(ast: dsl.WorkflowAst, path: tuple[int, ...]) -> None:
        try:
            node = dsl.node_at(ast, path)
        except IndexError as exc:
            raise EngineError(f"corrupt saved state: {exc}") from exc
        if not isinstance(node, dsl.Parallel):
            raise EngineError(f"corrupt saved state: {path} is not a parallel block")

    @staticmethod
    def _live_child_plan(
        ast: dsl.WorkflowAst, branch_id: str, path: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(owner parallel path, region branch path, relative path) for a saved child."""
        try:
            nodes = dsl.nodes_along(ast, path)
        except IndexError as exc:
            raise EngineError(f"corrupt saved state: branch {branch_id}: {exc}") from exc
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

    def _register_branch(self, branch: _Branch) -> None:
        with self._state_lock:
            self.branches[branch.id] = branch
            self._live_branches += 1

    def _next_fork_index(self, branch_id: str) -> int:
        with self._state_lock:
            index = self._fork_counters.get(branch_id, 1)
            self._fork_counters[branch_id] = index + 1
            return index

    def _run_branch(self, branch: _Branch) -> None:
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
                branch.status = BranchStatus.COMPLETED
        except _Parked as parked:
            branch.parked = True
            branch.saved_path = parked.path
        except _Cancelled:
            branch.status = BranchStatus.CANCELLED
        except EngineError as exc:
            self._report_error(branch, exc)
            branch.status = BranchStatus.CANCELLED
        except Exception as exc:  # engine bug: fail loudly instead of hanging
            self._report_error(branch, EngineError(f"internal error: {exc!r}"))
            branch.status = BranchStatus.CANCELLED
        finally:
            with self._state_lock:
                self._live_branches -= 1
                self._cond.notify_all()

    def _child_finished(self, child: _Branch) -> None:
        group = child.group
        assert group is not None
        losers: list[_Branch] = []
        with self._state_lock:
            if child.cancelled:
                child.status = BranchStatus.CANCELLED
            else:
                group.arrived.append(child.id)
                child.status = BranchStatus.COMPLETED
                self.log.emit(
                    "branch_join",
                    child.id,
                    detail={"role": "arrive", "parent": group.parent.id},
                )
                losers = self._maybe_fire(group)
            self._cond.notify_all()
        self._stop_calls(losers)

    def _maybe_fire(self, group: _JoinGroup) -> list[_Branch]:
        """Fire the join if its condition holds; caller holds the state lock."""
        if not group.ready_to_fire():
            return []
        group.fired = True
        self.log.emit(
            "branch_join",
            group.parent.id,
            detail={
                "role": "fire",
                "arrived": group.arrivals(),
                "spawned": group.total_spawned(),
                "wait": group.wait_desc(),
            },
        )
        losers: list[_Branch] = []
        if not group.wait.is_all:
            arrived = set(group.arrived)
            for other in group.children:
                if other.id in arrived or other.cancelled:
                    continue
                other.cancelled = True
                self.log.emit("signal", other.id, detail={"signal": "no_longer_necessary"})
                losers.append(other)
        return losers

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

    def _checkpoint(self, branch: _Branch, path: tuple[int, ...]) -> None:
        """Park on a stop request, stand down on cancel; caller holds the state lock."""
        if self._stop_requested:
            raise _Parked(path)
        if branch.cancelled:
            raise _Cancelled()

    def _begin_activity(self, branch: _Branch, node, path: tuple[int, ...], kind: str) -> None:
        with self._state_lock:
            self._checkpoint(branch, path)
            self.log.emit("activity_start", branch.id, node.position, {"type": kind})

    def _commit(self, branch: _Branch, position: str, delta: list[Change]) -> None:
        """Commit a delta and trace it; caller holds the store's exclusive lock."""
        version = self.store.commit(delta, position)
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
        self._begin_activity(branch, node, path, "manipulate")
        try:
            with self.store.exclusive():
                delta = apply_assignments(node.statements, self.store.current_values())
                if delta:
                    self._commit(branch, node.position, delta)
        except (EvalError, ContextError) as exc:
            raise EngineError(f"manipulate '{node.position}': {exc}") from exc
        self.log.emit("activity_end", branch.id, node.position, {"outcome": "applied"})

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
            raise EngineError(f"call '{node.position}' parameters: {exc}") from exc

        with self._state_lock:
            self._checkpoint(branch, path)
            # the token leaves the saved state only once the call is sure to
            # begin: a branch parked by the checkpoint keeps it for the resume
            token = self.passthroughs.pop(node.position, None)
            branch.in_flight_position = node.position
            self.log.emit("activity_start", branch.id, node.position, {"type": "call"})
        call = HandlerCall(
            position=node.position,
            endpoint=uri,
            parameters=parameters,
            context=snap.values,
            context_version=snap.version,
            passthrough=token,
        )
        try:
            outcome = self.handler.call(call)
        except Exception as exc:
            outcome = Failure(f"handler raised: {exc!r}")
        finally:
            with self._state_lock:
                branch.in_flight_position = None
                stopped = self._stop_requested
                cancelled = branch.cancelled

        if cancelled:
            raise _Cancelled()
        if stopped:
            # a final result is discarded from the flow; a passthrough is
            # recorded so the resumed call can reuse the stored outcome
            with self._state_lock:
                if isinstance(outcome, Passthrough):
                    self.passthroughs[node.position] = outcome.token
                elif token is not None:
                    self.passthroughs[node.position] = token
            raise _Parked(path)

        if isinstance(outcome, Result):
            self._commit_result(branch, node, outcome)
            self.log.emit("activity_end", branch.id, node.position, {"outcome": "result"})
        elif isinstance(outcome, Jump):
            self._apply_jump(branch, node, outcome.target)
        elif isinstance(outcome, Passthrough):
            raise EngineError(
                f"call '{node.position}': handler returned a passthrough without stop_call"
            )
        else:
            raise EngineError(f"call '{node.position}': {outcome.message}")

    def _exec_engine_call(self, branch: _Branch, node, path, uri: str) -> None:
        self._begin_activity(branch, node, path, "call")
        if uri != STOP_ENDPOINT:
            raise EngineError(f"call '{node.position}': unknown engine endpoint '{uri}'")
        self.log.emit("activity_end", branch.id, node.position, {"outcome": "stop_signal"})
        self.request_stop(source="workflow")

    def _commit_result(self, branch: _Branch, node, outcome: Result) -> None:
        if not outcome.values:
            return
        try:
            with self.store.exclusive():
                current = self.store.current_values()
                delta = []
                for name, value in outcome.values.items():
                    if name not in current:
                        raise ContextError(
                            f"handler result names undeclared context variable '{name}'"
                        )
                    if not is_value(value):
                        raise ContextError(f"handler result for '{name}' is not a value")
                    delta.append(Change(name, current[name], value))
                self._commit(branch, node.position, delta)
        except ContextError as exc:
            raise EngineError(f"call '{node.position}': {exc}") from exc

    def _apply_jump(self, branch: _Branch, node, target: str) -> None:
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
            "signal",
            branch.id,
            node.position,
            {"signal": "jump", "target": target},
        )
        self.log.emit("activity_end", branch.id, node.position, {"outcome": "jump"})
        raise _JumpTo(target_path[len(prefix) :])

    def _exec_parallel(self, branch: _Branch, node: dsl.Parallel, path, sub) -> None:
        group = _JoinGroup(node.wait, path, branch)
        with self._state_lock:
            self._groups.append(group)
        saved = self._resume_children.pop((branch.id, path), None)
        if saved:
            self._attach_saved_children(group, saved)
        rejoin = bool(saved) and sub is None

        branch.group_stack.append(group)
        try:
            if not rejoin:
                self._exec_block(branch, node.body, path + (0,), sub)
        finally:
            branch.group_stack.pop()

        with self._state_lock:
            group.spawning = False
            spawned = group.total_spawned()
            if not node.wait.is_all and spawned < node.wait.count:  # type: ignore[operator]
                group.closed = True
                raise EngineError(
                    f"unsatisfiable join: wait {node.wait.count} of {spawned} branches"
                )
            losers = self._maybe_fire(group)
            self._cond.notify_all()
        self._stop_calls(losers)
        self._await_join(branch, group, path)

    def _attach_saved_children(
        self, group: _JoinGroup, saved: list[tuple[str, Optional[tuple]]]
    ) -> None:
        for child_id, plan in saved:
            if plan is None:
                group.pre_arrived += 1
                continue
            _owner, pb_path, rel = plan
            pb_node = dsl.node_at(self.ast, pb_path)
            child = _Branch(
                self,
                child_id,
                pb_node.body,
                pb_path + (0,),
                group=group,
                group_stack=[group],
                resume_path=rel or None,
            )
            with self._state_lock:
                group.children.append(child)
            self._register_branch(child)
            self.log.emit("branch_fork", group.parent.id, detail={"child": child_id, "resumed": True})
            child.start_thread()

    def _fork_child(self, branch: _Branch, node: dsl.ParallelBranch, path) -> None:
        if not branch.group_stack:
            raise EngineError("parallel_branch executed outside a parallel block")
        group = branch.group_stack[-1]
        child_id = f"{branch.id}.{self._next_fork_index(branch.id)}"
        child = _Branch(
            self,
            child_id,
            node.body,
            path + (0,),
            group=group,
            group_stack=list(branch.group_stack),
        )
        late = False
        with self._state_lock:
            group.children.append(child)
            if group.fired and not group.wait.is_all:
                child.cancelled = True
                late = True
        self._register_branch(child)
        self.log.emit("branch_fork", branch.id, detail={"child": child_id})
        if late:
            self.log.emit("signal", child_id, detail={"signal": "no_longer_necessary"})
        child.start_thread()

    def _await_join(self, branch: _Branch, group: _JoinGroup, path) -> None:
        branch.status = BranchStatus.WAITING_JOIN
        try:
            with self._state_lock:
                while not group.fired:
                    if self._stop_requested:
                        raise _Parked(path)
                    if branch.cancelled:
                        break
                    self._cond.wait()
                group.closed = True
                if group.fired:
                    return
                stopped = self._cancel_children(group)
            self._stop_calls(stopped)
            raise _Cancelled()
        finally:
            if branch.status is BranchStatus.WAITING_JOIN:
                branch.status = BranchStatus.ACTIVE

    def _cancel_children(self, group: _JoinGroup) -> list[_Branch]:
        """Signal the group's live children to stand down; caller holds the state lock."""
        stopped: list[_Branch] = []
        for child in group.children:
            if child.cancelled or child.status in (
                BranchStatus.COMPLETED,
                BranchStatus.CANCELLED,
            ):
                continue
            child.cancelled = True
            self.log.emit("signal", child.id, detail={"signal": "no_longer_necessary"})
            stopped.append(child)
        self._cond.notify_all()
        return stopped

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
                self._cond.wait()
                self._checkpoint(branch, path)
            self._section_owners[section] = branch.id
        previous_status = branch.status
        branch.status = BranchStatus.IN_CRITICAL
        self.log.emit("signal", branch.id, detail={"signal": "critical_enter", "section": section})
        try:
            self._exec_block(branch, node.body, path + (0,), sub[1:] if sub else None)
        finally:
            self.log.emit(
                "signal", branch.id, detail={"signal": "critical_exit", "section": section}
            )
            branch.status = previous_status
            with self._state_lock:
                del self._section_owners[section]
                self._cond.notify_all()


def run_workflow(
    ast: dsl.WorkflowAst,
    handler: HandlerWrapper,
    options: Optional[RunOptions] = None,
    initial_context: Optional[Mapping[str, Value]] = None,
) -> WorkflowInstance:
    """Start an instance and wait for it to finish or stop."""
    instance = WorkflowInstance(ast, handler, options, initial_context=initial_context)
    instance.run()
    return instance
