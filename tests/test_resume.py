"""Stop/resume behavior across every structured construct.

Each scenario parks an instance at a deliberately awkward program counter
(inside a critical section, mid multi-choice, mid forking loop, nested
parallel) and checks that the resumed instance completes with the same
final state an uninterrupted run would reach.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wee import dsl
from wee.engine import EngineError, RunOptions, WorkflowInstance
from wee.events import read_jsonl
from wee.handlers import Failure, MockHandler, Passthrough, Result


def wait_for(instance, predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate(instance.log.records):
            return True
        time.sleep(0.002)
    return False


def starts_of(records, position):
    return [r for r in records if r.kind == "activity_start" and r.position == position]


CYCLE_CRITICAL = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  cycle (i < 3) {
    critical :gate {
      call :step, endpoint: svc
      manipulate :bump { i = i + 1 }
    }
  }
  manipulate :fin { i = i + 100 }
}
"""

CYCLE_CRITICAL_SCRIPT = {
    "positions": {
        "step": [
            {"result": {}, "delay_ms": 1},
            {"result": {}, "delay_ms": 400, "token": "p-step"},
            {"result": {}, "delay_ms": 1},
        ]
    },
    "passthroughs": {"p-step": {"result": {}}},
}


def test_resume_inside_critical_within_cycle():
    ast = dsl.parse(CYCLE_CRITICAL)
    instance = WorkflowInstance(ast, MockHandler(CYCLE_CRITICAL_SCRIPT))
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "step")) == 2)
    instance.deliver_stop()
    assert instance.store.current_values()["i"] == 1
    saved = instance.save()
    assert saved["interrupted"] == {"0/step": {"passthrough": "p-step"}}
    # parked inside the critical body, second loop pass
    assert saved["branches"] == [{"id": "0", "path": [0, 0, 0, 0, 0]}]

    fresh = MockHandler(CYCLE_CRITICAL_SCRIPT)
    resumed = WorkflowInstance.resume(ast, fresh, saved)
    assert resumed.run() == "finished"
    assert resumed.store.current_values()["i"] == 103
    # the mutex was re-acquired before re-entering the section
    signals = [
        r.detail["signal"] for r in resumed.log.records if r.kind == "signal"
    ]
    assert signals[0] == "critical_enter"
    assert signals.count("critical_enter") == signals.count("critical_exit") == 2
    # iteration 2 replayed its stored call; only iteration 3 invoked anew
    assert fresh.invocations == {"step": 1}


MULTI_CHOICE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context a: 1
  context b: 1
  choose {
    alternative (a == 1) {
      call :alt_one, endpoint: svc
      manipulate :one_tail { a = 10 }
    }
    alternative (b == 1) { manipulate :alt_two { b = 20 } }
    otherwise { manipulate :other { a = 0 } }
  }
}
"""

MULTI_CHOICE_SCRIPT = {
    "positions": {"alt_one": {"result": {}, "delay_ms": 400, "token": "p1"}},
    "passthroughs": {"p1": {"result": {}}},
}


def test_resume_mid_alternative_then_later_alternatives_run():
    ast = dsl.parse(MULTI_CHOICE)
    instance = WorkflowInstance(ast, MockHandler(MULTI_CHOICE_SCRIPT))
    instance.start()
    assert wait_for(instance, lambda rs: starts_of(rs, "alt_one"))
    instance.deliver_stop()
    saved = instance.save()
    assert saved["branches"] == [{"id": "0", "path": [0, 0, 0]}]

    resumed = WorkflowInstance.resume(ast, MockHandler(MULTI_CHOICE_SCRIPT), saved)
    assert resumed.run() == "finished"
    sequence = [r.position for r in resumed.log.records if r.kind == "activity_start"]
    assert sequence == ["alt_one", "one_tail", "alt_two"]
    assert resumed.store.current_values() == {"a": 10, "b": 20}


FORKING_LOOP = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  parallel wait: all {
    cycle (i < 3) {
      manipulate :launch { i = i + 1 }
      parallel_branch { call :work, endpoint: svc }
      call :pace, endpoint: svc
    }
  }
  manipulate :after_join { i = i + 100 }
}
"""

FORKING_LOOP_SCRIPT = {
    "positions": {
        "work": {"result": {}, "delay_ms": 30, "on_stop": "finish"},
        "pace": {"result": {}, "delay_ms": 150, "on_stop": "finish"},
    }
}


def test_resume_mid_forking_loop_continues_fork_ids():
    ast = dsl.parse(FORKING_LOOP)
    instance = WorkflowInstance(ast, MockHandler(FORKING_LOOP_SCRIPT))
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "pace")) == 2)
    instance.deliver_stop()
    saved = instance.save()
    by_id = {e["id"]: e["path"] for e in saved["branches"]}
    assert by_id["0"] == [0, 0, 0, 0, 2]  # the parent parked at pace, mid-body
    assert by_id["0.1"] == [0, -1]  # first worker already arrived

    fresh = MockHandler(FORKING_LOOP_SCRIPT)
    resumed = WorkflowInstance.resume(ast, fresh, saved)
    assert resumed.run() == "finished"
    assert resumed.store.current_values()["i"] == 103
    forks = [
        (r.detail["child"], r.detail.get("resumed", False))
        for r in resumed.log.records
        if r.kind == "branch_fork"
    ]
    # the live worker is respawned under its saved id; the loop's third pass
    # forks a brand new child without colliding
    assert ("0.2", True) in forks
    assert ("0.3", False) in forks
    fire = next(r for r in resumed.log.records if r.detail.get("role") == "fire")
    assert fire.detail["arrived"] == 3
    assert fire.detail["spawned"] == 3


NESTED_RACE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: 1 {
    parallel_branch { call :outer_fast, endpoint: svc }
    parallel_branch {
      parallel wait: all {
        parallel_branch { call :inner_a, endpoint: svc }
        parallel_branch { call :inner_b, endpoint: svc }
      }
      manipulate :inner_done { done = done || false }
    }
  }
  manipulate :after { done = true }
}
"""


# the loser is cancelled while it is still running its parallel body: it has
# forked one grandchild and is in a call before forking the next
SPAWNING_RACE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: 1 {
    parallel_branch { call :outer_fast, endpoint: svc }
    parallel_branch {
      parallel wait: all {
        parallel_branch { call :inner_a, endpoint: svc }
        call :spawning, endpoint: svc
        parallel_branch { call :inner_b, endpoint: svc }
      }
      manipulate :inner_done { done = done || false }
    }
  }
  manipulate :after { done = true }
}
"""

# (workflow, branches told no_longer_necessary, positions whose calls are stopped)
LOSING_SUBTREES = {
    "blocked_on_its_join": (NESTED_RACE, {"0.2", "0.2.1", "0.2.2"}, {"inner_a", "inner_b"}),
    "still_spawning": (SPAWNING_RACE, {"0.2", "0.2.1"}, {"spawning", "inner_a"}),
}


class GatedFastHandler(MockHandler):
    """`outer_fast` returns only once the calls in `gated` are all in flight,
    so the join it fires finds them to stop however slow the host is."""

    def __init__(self, script: dict, gated: set[str]):
        super().__init__(script)
        self._gated = set(gated)
        self._gate_lock = threading.Lock()
        self._all_in_flight = threading.Event()

    def call(self, call):
        if call.position == "outer_fast":
            assert self._all_in_flight.wait(timeout=5)
        else:
            with self._gate_lock:
                self._gated.discard(call.position)
                if not self._gated:
                    self._all_in_flight.set()
        return super().call(call)


def test_nested_join_cancellation_cascades():
    handler_script = {
        "positions": {
            "outer_fast": {"result": {}, "delay_ms": 5},
            "spawning": {"result": {}, "delay_ms": 100},
            "inner_a": {"result": {}, "delay_ms": 800},
            "inner_b": {"result": {}, "delay_ms": 800},
        }
    }
    for shape, (source, cancelled, stopped) in LOSING_SUBTREES.items():
        instance = WorkflowInstance(dsl.parse(source), GatedFastHandler(handler_script, stopped))
        started = time.perf_counter()
        assert instance.run() == "finished"
        # no grandchild holds the instance open for its 800 ms call
        assert time.perf_counter() - started < 0.4, shape
        records = instance.log.records
        nln_targets = {
            r.branch for r in records if r.detail.get("signal") == "no_longer_necessary"
        }
        # the losing subtree is cancelled all the way down
        assert nln_targets == cancelled, shape
        stop_calls = {
            r.position for r in records if r.detail.get("signal") == "stop_call"
        }
        assert stop_calls == stopped, shape
        arrivals = {
            r.branch for r in records if r.kind == "branch_join" and r.detail["role"] == "arrive"
        }
        assert arrivals == {"0.1"}, shape
        assert not starts_of(records, "inner_done")
        assert len(starts_of(records, "after")) == 1
        assert instance.store.current_values()["done"] is True
        assert instance._groups == [], shape


def test_nested_cancellation_wakes_the_loser_blocked_on_its_own_join():
    slow = {"result": {}, "delay_ms": 2000, "on_stop": "finish"}
    script = {
        "positions": {
            "outer_fast": {"result": {}, "delay_ms": 5},
            "spawning": slow,
            "inner_a": slow,
            "inner_b": slow,
        }
    }
    for shape, (source, _cancelled, _stopped) in LOSING_SUBTREES.items():
        ast = dsl.parse(source)
        elapsed = []
        for _ in range(5):
            instance = WorkflowInstance(ast, MockHandler(script))
            started = time.perf_counter()
            assert instance.run() == "finished"
            elapsed.append(time.perf_counter() - started)
        # the cancel itself must wake the loser's join wait, well before any
        # poll, and reach every branch the loser forked
        assert statistics.median(elapsed) < 0.025, (shape, elapsed)


# the join fires during :pace, so the second branch is forked already cancelled
LATE_BAD_PARAMETERS = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context zero: 0
  parallel wait: 1 {
    parallel_branch { call :fast, endpoint: svc }
    call :pace, endpoint: svc
    parallel_branch { call :bad, endpoint: svc, parameters: { v: 1 / zero } }
  }
}
"""

STOPPING_BAD_PARAMETERS = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  endpoint halt: "wee://stop"
  context zero: 0
  call :halt, endpoint: halt
  call :bad, endpoint: svc, parameters: { v: 1 / zero }
}
"""


@pytest.mark.parametrize(
    "source, result",
    [(LATE_BAD_PARAMETERS, "finished"), (STOPPING_BAD_PARAMETERS, "stopped")],
    ids=["cancelled", "stopping"],
)
def test_failing_call_parameters_in_a_cancelled_or_stopping_branch_do_not_error(source, result):
    script = {"default": {"result": {}}, "positions": {"pace": {"result": {}, "delay_ms": 30}}}
    instance = WorkflowInstance(dsl.parse(source), MockHandler(script))
    assert instance.run() == result
    records = instance.log.records
    assert [r for r in records if r.kind == "error"] == []
    assert not starts_of(records, "bad")
    if result == "finished":
        cancelled = [r.branch for r in records if r.detail.get("signal") == "no_longer_necessary"]
        assert cancelled == ["0.2"]
    else:
        # parked at the call: a resume evaluates its parameters again
        assert instance.save()["branches"] == [{"id": "0", "path": [1]}]


WAIT_TWO_OF_THREE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 2 {
    parallel_branch { call :a, endpoint: svc }
    parallel_branch { call :b, endpoint: svc call :b2, endpoint: svc }
    parallel_branch { call :c, endpoint: svc call :c2, endpoint: svc }
  }
}
"""

WAIT_TWO_OF_THREE_SCRIPT = {
    "positions": {
        "a": {"result": {}},
        "b": {"result": {}, "delay_ms": 2000, "token": "p-b"},
        "c": {"result": {}, "delay_ms": 2000, "token": "p-c"},
        "b2": {"result": {}, "delay_ms": 2000, "on_stop": "finish"},
        "c2": {"result": {}, "delay_ms": 2000, "on_stop": "finish"},
    },
    "passthroughs": {"p-b": {"result": {}}, "p-c": {"result": {}}},
}


def test_a_second_stop_keeps_the_arrivals_restored_by_the_first_resume():
    ast = dsl.parse(WAIT_TWO_OF_THREE)
    instance = WorkflowInstance(ast, MockHandler(WAIT_TWO_OF_THREE_SCRIPT))
    instance.start()
    assert wait_for(instance, lambda rs: starts_of(rs, "b") and starts_of(rs, "c"))
    assert wait_for(instance, lambda rs: any(r.detail.get("role") == "arrive" for r in rs))
    instance.deliver_stop()
    first = instance.save()
    assert {"id": "0.1", "path": [0, -1]} in first["branches"]

    resumed = WorkflowInstance.resume(ast, MockHandler(WAIT_TWO_OF_THREE_SCRIPT), first)
    resumed.start()
    assert wait_for(resumed, lambda rs: starts_of(rs, "b2") and starts_of(rs, "c2"))
    resumed.deliver_stop()
    second = resumed.save()
    assert {"id": "0.1", "path": [0, -1]} in second["branches"]

    last = WorkflowInstance.resume(ast, MockHandler(WAIT_TWO_OF_THREE_SCRIPT), second)
    assert last.run() == "finished"
    records = last.log.records
    fire = next(r for r in records if r.detail.get("role") == "fire")
    # 0.1's arrival still counts: the first of the other two fires the join
    assert (fire.detail["arrived"], fire.detail["spawned"]) == (2, 3)
    cancelled = [r.branch for r in records if r.detail.get("signal") == "no_longer_necessary"]
    assert len(cancelled) == 1


CONTENDED_CRITICAL = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: all {
    parallel_branch { critical :gate { call :holder, endpoint: svc } }
    parallel_branch { critical :gate { call :waiter, endpoint: svc } }
  }
  manipulate :fin { done = true }
}
"""


def test_stop_while_blocked_on_critical_mutex_parks_cleanly():
    script = {
        "positions": {
            "holder": {"result": {}, "delay_ms": 500, "token": "p-holder"},
            "waiter": {"result": {}},
        },
        "passthroughs": {"p-holder": {"result": {}}},
    }
    ast = dsl.parse(CONTENDED_CRITICAL)
    instance = WorkflowInstance(ast, MockHandler(script))
    instance.start()
    assert wait_for(
        instance,
        lambda rs: starts_of(rs, "holder") or starts_of(rs, "waiter"),
    )
    time.sleep(0.05)  # the other branch is now parked on the mutex
    instance.deliver_stop()
    assert instance.result == "stopped"
    saved = instance.save()
    paths = {e["id"]: tuple(e["path"]) for e in saved["branches"]}
    # one branch parked at the call inside its section, the other right at
    # its critical node, never having entered
    inside_section = {p for p in paths.values() if len(p) == 7}
    at_critical_node = {p for p in paths.values() if len(p) == 5}
    assert len(inside_section) == 1 and len(at_critical_node) == 1
    enters = [
        r for r in instance.log.records if r.detail.get("signal") == "critical_enter"
    ]
    exits = [
        r for r in instance.log.records if r.detail.get("signal") == "critical_exit"
    ]
    assert len(enters) == len(exits) == 1  # the blocked branch never entered

    resumed = WorkflowInstance.resume(ast, MockHandler(script), saved)
    assert resumed.run() == "finished"
    assert resumed.store.current_values()["done"] is True
    # both sections complete on resume, still mutually exclusive
    resumed_enters = [
        r for r in resumed.log.records if r.detail.get("signal") == "critical_enter"
    ]
    assert len(resumed_enters) == 2


CANCEL_WHILE_QUEUED = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: all {
    parallel_branch { critical :gate { call :holder, endpoint: svc } }
    parallel_branch {
      call :pace, endpoint: svc
      parallel wait: 1 {
        parallel_branch { call :fast, endpoint: svc }
        parallel_branch { critical :gate { call :queued, endpoint: svc } }
      }
    }
  }
}
"""


def test_cancel_while_waiting_on_critical_section_stands_down_at_once():
    script = {
        "positions": {
            "holder": {"result": {}, "delay_ms": 1000},
            "pace": {"result": {}, "delay_ms": 20},
            "fast": {"result": {}, "delay_ms": 30},
            "queued": {"result": {}},
        }
    }
    instance = WorkflowInstance(dsl.parse(CANCEL_WHILE_QUEUED), MockHandler(script))
    instance.start()
    assert wait_for(
        instance,
        lambda rs: any(
            r.branch == "0.2.2" and r.detail.get("signal") == "no_longer_necessary"
            for r in rs
        ),
    )
    # the cancel wakes the queued branch; the holder keeps the section
    deadline = time.monotonic() + 0.5
    while time.monotonic() < deadline:
        if "0.2.2" not in instance.branches:
            break
        time.sleep(0.002)
    assert "0.2.2" not in instance.branches
    assert not [
        r for r in instance.log.records if r.kind == "activity_end" and r.position == "holder"
    ]

    assert instance.wait() == "finished"
    records = instance.log.records
    assert not starts_of(records, "queued")
    enters = [r.branch for r in records if r.detail.get("signal") == "critical_enter"]
    assert enters == ["0.1"]


def test_wait_count_equal_to_branch_count_behaves_like_join_all():
    source = """
    workflow {
      handler "mock"
      endpoint svc: "mock://svc"
      parallel wait: 2 {
        parallel_branch { call :a, endpoint: svc }
        parallel_branch { call :b, endpoint: svc }
      }
    }
    """
    instance = WorkflowInstance(
        dsl.parse(source), MockHandler({"default": {"result": {}, "delay_ms": [0, 2]}}, seed=5)
    )
    assert instance.run() == "finished"
    records = instance.log.records
    fire = next(r for r in records if r.detail.get("role") == "fire")
    assert fire.detail["arrived"] == 2
    assert not [
        r for r in records if r.detail.get("signal") == "no_longer_necessary"
    ]


def test_saved_instance_is_json_round_trippable():
    ast = dsl.parse(FORKING_LOOP)
    instance = WorkflowInstance(ast, MockHandler(FORKING_LOOP_SCRIPT))
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "pace")) == 2)
    instance.deliver_stop()
    saved = json.loads(json.dumps(instance.save()))
    resumed = WorkflowInstance.resume(ast, MockHandler(FORKING_LOOP_SCRIPT), saved)
    assert resumed.run() == "finished"
    assert resumed.store.current_values()["i"] == 103


ONE_SLOW_CALL = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: 0
  call :slow, endpoint: svc
}
"""

ONE_SLOW_CALL_SCRIPT = {
    "positions": {"slow": {"result": {"done": 1}, "delay_ms": 2000, "token": "tok-slow"}},
    "passthroughs": {"tok-slow": {"result": {"done": 2}}},
}


def test_stop_before_a_resumed_call_begins_keeps_its_passthrough():
    ast = dsl.parse(ONE_SLOW_CALL)
    handler = MockHandler(ONE_SLOW_CALL_SCRIPT)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler)
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "slow")) == 1)
    instance.deliver_stop()
    saved = instance.save()
    assert saved["interrupted"] == {"0/slow": {"passthrough": "tok-slow"}}

    # stopped before the resumed call begins: it parks at the call and the
    # token stays in the saved state
    parked = WorkflowInstance.resume(ast, handler, saved)
    parked.request_stop()
    parked.start()
    assert parked.wait() == "stopped"
    assert starts_of(parked.log.records, "slow") == []
    saved = parked.save()
    assert saved["interrupted"] == {"0/slow": {"passthrough": "tok-slow"}}

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    assert handler.invocations == {"slow": 1}
    assert resumed.store.current_values()["done"] == 2


# -- one position in flight in several branches ----------------------------------

FORKED_CALLS = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  context n: 4
  parallel wait: all {
    cycle (i < n) {
      manipulate :launch { i = i + 1 }
      parallel_branch { call :task_instance, endpoint: svc, parameters: { index: i } }
    }
  }
  call :finish, endpoint: svc
}
"""


def test_stop_interrupts_every_call_at_one_forked_position():
    script = {
        "positions": {
            "task_instance": {"result": {}, "delay_ms": 3000, "token": "tok-task"},
            "finish": {"result": {}},
        },
        "passthroughs": {"tok-task": {"result": {}}},
    }
    ast = dsl.parse(FORKED_CALLS)
    handler = MockHandler(script)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler).start()
    deadline = time.monotonic() + 5
    while handler.invocations.get("task_instance", 0) < 4 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert handler.invocations == {"task_instance": 4}

    started = time.perf_counter()
    instance.request_stop()
    assert instance.wait() == "stopped"
    # every call is interrupted at once, none waits out its 3 s delay
    assert time.perf_counter() - started < 0.2
    saved = json.loads(json.dumps(instance.save()))
    assert saved["interrupted"] == {
        f"0.{k}/task_instance": {"passthrough": "tok-task"} for k in range(1, 5)
    }

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    assert handler.invocations == {"task_instance": 4, "finish": 1}


def test_resume_rejects_saved_state_without_schema():
    ast = dsl.parse(ONE_SLOW_CALL)
    handler = MockHandler(ONE_SLOW_CALL_SCRIPT)
    instance = WorkflowInstance(ast, handler)
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "slow")) == 1)
    instance.deliver_stop()
    saved = instance.save()
    assert saved["schema"] == 4
    # as an older wee wrote it: no schema, passthroughs keyed by position
    del saved["schema"], saved["interrupted"]
    saved["passthroughs"] = {"slow": "tok-slow"}
    with pytest.raises(EngineError, match="older wee.*keyed by position"):
        WorkflowInstance.resume(ast, handler, saved)


SEQUENCE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context n: 0
  manipulate :a { n = n + 1 }
  call :slow, endpoint: svc
  manipulate :b { n = n + 20 }
}
"""


def stopped_in_slow_call():
    ast = dsl.parse(SEQUENCE)
    script = {"positions": {"slow": {"result": {}, "delay_ms": 2000, "token": "tok-slow"}}}
    handler = MockHandler(script)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler)
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "slow")) == 1)
    instance.deliver_stop()
    saved = json.loads(json.dumps(instance.save()))
    assert saved["branches"] == [{"id": "0", "path": [1]}]
    return ast, handler, saved


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"branches": [{"id": "0", "path": [-1]}]}, "leaves the workflow body"),
        ({"branches": [{"id": "0", "path": [99]}]}, "leaves the workflow body"),
        ({"branches": [{"id": "0", "path": [1, 0, 5]}]}, "missing child block"),
        ({"branches": [{"id": "0", "path": [1.5]}]}, r"path \(1\.5,\)"),
        (
            {"branches": [{"id": "0", "path": [1]}, {"id": "0.²", "path": [1]}]},
            "branch id '0.²'",
        ),
        ({"branches": {"0": [1]}}, "branches"),
        ({"branches": [["0", [1]]]}, "branch entry"),
        ({"branches": [{"id": "0"}]}, "branch 0: path None"),
        ({"branches": [{"id": "0", "path": 1}]}, "branch 0: path 1"),
        ({"branches": [{"id": 0, "path": [1]}]}, "branch id 0"),
        ({"branches": [{"id": "0", "path": [1], "forks": "2"}]}, "branch 0: forks '2'"),
        ({"version": "1"}, "version '1'"),
        ({"context": []}, r"context \[\]"),
    ],
    ids=[
        "negative-root-index",
        "root-index-past-the-end",
        "root-path-into-a-call",
        "non-integer-index",
        "fork-index-not-ascii",
        "branches-not-a-list",
        "entry-not-an-object",
        "entry-without-path",
        "path-not-a-list",
        "id-not-a-string",
        "forks-not-an-int",
        "version-not-an-int",
        "context-not-an-object",
    ],
)
def test_resume_rejects_a_corrupt_saved_path_or_branch_id(edit, message):
    ast, handler, saved = stopped_in_slow_call()
    saved.update(edit)
    with pytest.raises(EngineError, match=f"corrupt saved state.*{message}"):
        WorkflowInstance.resume(ast, handler, saved)
    assert handler.invocations == {"slow": 1}


def as_schema_2(saved: dict) -> dict:
    """The state as the previous format kept it."""
    return {
        "schema": 2,
        "lifecycle": "stopped",
        "branches": saved["branches"],
        "context": saved["context"],
        "version": saved["version"],
        "passthroughs": {"0/slow": "tok-slow"},
        "ended_calls": {},
    }


def without(key: str):
    return lambda saved: {k: v for k, v in saved.items() if k != key}


def replaced(key: str, value):
    return lambda saved: {**saved, key: value}


def bad_entry(entry, case_id: str):
    return pytest.param(
        replaced("interrupted", {"0/slow": entry}),
        f"corrupt saved state: interrupted call 0/slow: {entry!r}",
        id=case_id,
    )


# Refused elsewhere: a state with no schema by
# test_resume_rejects_saved_state_without_schema, and branches, context or
# version of the wrong type by test_resume_rejects_a_corrupt_saved_path_or_branch_id.
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(as_schema_2, "saved state has schema 2, expected 4", id="schema-2"),
        *(
            pytest.param(without(key), f"corrupt saved state: no {key}", id=f"no-{key}")
            for key in (
                "workflow", "instance", "seq", "branches", "context", "version", "interrupted"
            )
        ),
        pytest.param(
            replaced("workflow", None),
            "corrupt saved state: workflow None",
            id="workflow-not-a-string",
        ),
        pytest.param(
            replaced("workflow", "0" * 64),
            "workflow source hash mismatch: refusing to resume",
            id="workflow-of-another-source",
        ),
        pytest.param(
            replaced("instance", 7), "corrupt saved state: instance 7", id="instance-not-a-string"
        ),
        pytest.param(replaced("seq", "9"), "corrupt saved state: seq '9'", id="seq-not-an-int"),
        pytest.param(replaced("seq", True), "corrupt saved state: seq True", id="seq-a-bool"),
        pytest.param(replaced("seq", 0), "corrupt saved state: seq 0", id="seq-not-positive"),
        pytest.param(
            replaced("interrupted", []),
            "corrupt saved state: interrupted []",
            id="interrupted-not-an-object",
        ),
        bad_entry("tok-slow", "entry-not-an-object"),
        bad_entry({}, "entry-empty"),
        bad_entry({"passthrough": "t", "result": {}}, "entry-two-kinds"),
        bad_entry({"token": "t"}, "entry-unknown-kind"),
        bad_entry({"passthrough": 5}, "passthrough-not-a-string"),
        bad_entry({"result": [1]}, "result-not-an-object"),
        bad_entry({"jump": None}, "jump-not-a-string"),
    ],
)
def test_resume_refuses_a_malformed_saved_state(edit, message):
    ast, handler, saved = stopped_in_slow_call()
    with pytest.raises(EngineError) as refused:
        WorkflowInstance.resume(ast, handler, edit(saved))
    refusal = str(refused.value)
    assert refusal.startswith(message) and "\n" not in refusal, refusal
    assert handler.invocations == {"slow": 1}


class FailingReplay(MockHandler):
    """Stops the instance from inside a replay, which then fails."""

    instance = None

    def call(self, call):
        if call.passthrough is None:
            return super().call(call)
        self.instance.request_stop()
        return Failure("the service went away")


def test_a_replay_that_fails_after_a_stop_keeps_its_token():
    ast, handler, saved = stopped_in_slow_call()
    saved["interrupted"] = {"0/slow": {"passthrough": "tok-slow"}}
    failing = FailingReplay()
    failing.instance = WorkflowInstance.resume(ast, failing, saved)
    assert failing.instance.run() == "stopped"
    assert failing.instance.interrupted == {"0/slow": Passthrough("tok-slow")}
    assert failing.instance.save()["interrupted"] == {"0/slow": {"passthrough": "tok-slow"}}
    assert failing.invocations == {}


FORKS_AFTER_A_CLOSED_JOIN = {
    "root": (
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          parallel wait: all {
            parallel_branch { call :a, endpoint: svc }
            parallel_branch { call :b, endpoint: svc }
          }
          call :slow, endpoint: svc
          parallel wait: all {
            parallel_branch { call :c, endpoint: svc }
            parallel_branch { call :d, endpoint: svc }
          }
        }
        """,
        [{"id": "0", "path": [1], "forks": 3}],
        ["0.1", "0.2", "0.3", "0.4"],
    ),
    "child": (
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          parallel wait: all {
            parallel_branch {
              parallel wait: all { parallel_branch { call :a, endpoint: svc } }
              call :slow, endpoint: svc
              parallel wait: all { parallel_branch { call :b, endpoint: svc } }
            }
          }
        }
        """,
        [{"id": "0", "path": [0], "forks": 2}, {"id": "0.1", "path": [0, 0, 0, 0, 1], "forks": 2}],
        ["0.1", "0.1.1", "0.1.2"],
    ),
}


@pytest.mark.parametrize("case", sorted(FORKS_AFTER_A_CLOSED_JOIN))
def test_fork_numbering_continues_across_a_resume(case):
    source, saved_branches, forked = FORKS_AFTER_A_CLOSED_JOIN[case]
    ast = dsl.parse(source)
    script = {
        "positions": {"slow": {"result": {}, "delay_ms": 2000, "token": "tok-slow"}},
        "default": {"result": {}},
        "passthroughs": {"tok-slow": {"result": {}}},
    }
    handler = MockHandler(script)
    instance = WorkflowInstance(ast, handler)
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "slow")) == 1)
    instance.deliver_stop()
    saved = json.loads(json.dumps(instance.save()))
    # the joins that forked the earlier children have closed: only the
    # saved counter keeps their numbers from being handed out again
    assert saved["branches"] == saved_branches

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    records = instance.log.records + resumed.log.records
    assert [
        r.detail["child"]
        for r in records
        if r.kind == "branch_fork" and not r.detail.get("resumed")
    ] == forked


def test_resume_from_the_root_end_marker_finishes_without_running_anything():
    ast, handler, saved = stopped_in_slow_call()
    saved["branches"] = [{"id": "0", "path": [len(ast.body)]}]
    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    assert starts_of(resumed.log.records, "b") == []
    assert handler.invocations == {"slow": 1}
    assert resumed.store.current_values()["n"] == 1


def test_call_that_ends_after_the_stop_is_not_called_again():
    script = {"positions": {"slow": {"result": {"done": 1}, "delay_ms": 2000, "on_stop": "finish"}}}
    ast = dsl.parse(ONE_SLOW_CALL)
    handler = MockHandler(script)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler)
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "slow")) == 1)
    instance.deliver_stop()
    # the handler finished the call instead of handing out a token
    saved = json.loads(json.dumps(instance.save()))
    assert saved["interrupted"] == {"0/slow": {"result": {"done": 1}}}
    assert saved["branches"] == [{"id": "0", "path": [0]}]

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    assert handler.invocations == {"slow": 1}
    assert resumed.store.current_values()["done"] == 1


class EndsWithASet(MockHandler):
    """Ends its call, once the stop token is set, with a result that is not a value."""

    def call(self, call):
        call.stop.wait(5)
        return Result({"done": {1, 2}})


def test_a_result_the_stop_catches_that_is_not_a_value_ends_the_instance_in_an_error(tmp_path):
    log = tmp_path / "trace.jsonl"
    instance = WorkflowInstance(
        dsl.parse(ONE_SLOW_CALL), EndsWithASet(), RunOptions(log_path=str(log))
    )
    instance.start()
    assert wait_for(instance, lambda rs: len(starts_of(rs, "slow")) == 1)
    # the stop record could not carry the result: the instance ends, in an error
    assert instance.deliver_stop() == "error"
    assert instance.errors == ["call 'slow': handler result is not a value"]
    stop = read_jsonl(log)[-1]
    assert stop.kind == "instance_stop" and "saved" not in stop.detail


def test_stop_after_the_last_activity_resumes_to_finished():
    ast = dsl.parse(FORKED_CALLS)
    handler = MockHandler({"default": {"result": {}}})
    instance = WorkflowInstance(ast, handler)
    # runs on the root's thread right after the last activity ends
    instance.log.add_listener(
        lambda r: instance.request_stop()
        if r.kind == "activity_end" and r.position == "finish"
        else None
    )
    assert instance.run() == "stopped"
    saved = instance.save()
    assert saved["branches"] == [{"id": "0", "path": [2]}]

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    assert handler.invocations == {"task_instance": 4, "finish": 1}


@settings(max_examples=30, deadline=None)
@given(
    instances=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    stop_at=st.floats(min_value=0.0, max_value=1.0),
)
def test_stop_at_any_event_neither_repeats_nor_loses_a_call(instances, seed, stop_at):
    script = {
        "positions": {
            "task_instance": {"result": {}, "delay_ms": [1, 4], "token": "tok-task"},
            "finish": {"result": {}, "delay_ms": [0, 2], "token": "tok-finish"},
        },
        "passthroughs": {"tok-task": {"result": {}}, "tok-finish": {"result": {}}},
    }
    ast = dsl.parse(FORKED_CALLS)
    initial = {"n": instances}
    reference_handler = MockHandler(script, seed=seed)
    reference = WorkflowInstance(ast, reference_handler, initial_context=initial)
    assert reference.run() == "finished"

    # stop on a drawn record of the trace, from a thread of its own
    stop_after = max(1, round(stop_at * len(reference.log.records)))
    handler = MockHandler(script, seed=seed)  # shared: counts every invocation
    first = WorkflowInstance(ast, handler, initial_context=initial)
    reached = threading.Event()
    first.log.add_listener(
        lambda record: reached.set() if record.seq >= stop_after else None
    )

    def stopper():
        if reached.wait(timeout=5):
            first.request_stop()

    thread = threading.Thread(target=stopper)
    thread.start()
    result = first.run()
    thread.join(timeout=5)
    assert not thread.is_alive()
    if result == "stopped":
        saved = json.loads(json.dumps(first.save()))
        resumed = WorkflowInstance.resume(ast, handler, saved)
        assert resumed.run() == "finished"
        assert resumed.store.current_values() == reference.store.current_values()
    else:
        assert result == "finished"
    assert handler.invocations == reference_handler.invocations
