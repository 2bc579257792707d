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

from conftest import call_tokens, finish, wait_until
from wee import dsl
from wee.engine import EngineError, RunOptions, WorkflowInstance
from wee.events import read_jsonl
from wee.handlers import Failure, HttpHandler, MockHandler, Result


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
    assert call_tokens(ast, saved) == {"0/step": "p-step"}
    # parked inside the critical body, second loop pass
    assert saved["branches"] == [{"id": "0", "path": [0, 0, 0, 0, 0], "token": "p-step"}]

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
    assert saved["branches"] == [{"id": "0", "path": [0, 0, 0], "token": "p1"}]

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
        "work": {"result": {}, "delay_ms": 30, "token": "p-work"},
        "pace": {"result": {}, "delay_ms": 150, "token": "p-pace"},
    },
    "passthroughs": {"p-work": {"result": {}}, "p-pace": {"result": {}}},
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
        assert instance._saved_paths == {}, shape


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
        "b2": {"result": {}, "delay_ms": 2000, "token": "p-b2"},
        "c2": {"result": {}, "delay_ms": 2000, "token": "p-c2"},
    },
    "passthroughs": {
        "p-b": {"result": {}},
        "p-c": {"result": {}},
        "p-b2": {"result": {}},
        "p-c2": {"result": {}},
    },
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
    # either branch may enter the section first: it is still in its call at the stop
    script = {
        "positions": {
            "holder": {"result": {}, "delay_ms": 500, "token": "p-holder"},
            "waiter": {"result": {}, "delay_ms": 500, "token": "p-waiter"},
        },
        "passthroughs": {"p-holder": {"result": {}}, "p-waiter": {"result": {}}},
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
    assert call_tokens(ast, saved) == {"0/slow": "tok-slow"}

    # stopped before the resumed call begins: it parks at the call and the
    # token stays in the saved state
    parked = WorkflowInstance.resume(ast, handler, saved)
    parked.request_stop()
    parked.start()
    assert parked.wait() == "stopped"
    assert starts_of(parked.log.records, "slow") == []
    saved = parked.save()
    assert call_tokens(ast, saved) == {"0/slow": "tok-slow"}

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
    assert call_tokens(ast, saved) == {
        f"0.{k}/task_instance": "tok-task" for k in range(1, 5)
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
    assert saved["schema"] == 6
    # as an older wee wrote it: no schema, passthroughs keyed by position
    del saved["schema"], saved["branches"][0]["token"]
    saved["passthroughs"] = {"slow": "tok-slow"}
    with pytest.raises(EngineError, match=r"^saved state has schema None, expected 6$"):
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
    assert saved["branches"] == [{"id": "0", "path": [1], "token": "tok-slow"}]
    return ast, handler, saved


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"branches": [{"id": "0", "path": [-1]}]}, "leaves the workflow body"),
        ({"branches": [{"id": "0", "path": [99]}]}, "leaves the workflow body"),
        ({"branches": [{"id": "0", "path": [1, 0, 5]}]}, "missing child block"),
        ({"branches": [{"id": "0", "path": [1.5]}]}, r"path \[1\.5\]"),
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
    """The state as schema 2 kept it."""
    return {
        "schema": 2,
        "lifecycle": "stopped",
        "branches": [{"id": "0", "path": [1]}],
        "context": saved["context"],
        "version": saved["version"],
        "passthroughs": {"0/slow": "tok-slow"},
        "ended_calls": {},
    }


def as_schema_4(saved: dict) -> dict:
    """The state as schema 4 kept it: each token wrapped in an object, in a map of its own."""
    interrupted = {"0/slow": {"passthrough": "tok-slow"}}
    branches = [{"id": "0", "path": [1]}]
    return {**saved, "schema": 4, "branches": branches, "interrupted": interrupted}


def as_schema_5(saved: dict) -> dict:
    """The state as schema 5 kept it: the tokens in a map from call id to token."""
    interrupted = {"0/slow": "tok-slow"}
    branches = [{"id": "0", "path": [1]}]
    return {**saved, "schema": 5, "branches": branches, "interrupted": interrupted}


def without(key: str):
    return lambda saved: {k: v for k, v in saved.items() if k != key}


def replaced(key: str, value):
    return lambda saved: {**saved, key: value}


def root_entry(**fields):
    """The saved root entry, with fields replaced."""
    return replaced("branches", [{"id": "0", "path": [1], "token": "tok-slow", **fields}])


def bad_entry(token, case_id: str):
    return pytest.param(
        root_entry(token=token), f"corrupt saved state: branch 0: token {token!r}", id=case_id
    )


# Refused elsewhere: a state with no schema by
# test_resume_rejects_saved_state_without_schema; branches, context or
# version of the wrong type by test_resume_rejects_a_corrupt_saved_path_or_branch_id;
# an entry out of place in a parallel by test_resume_refuses_a_saved_entry_out_of_place.
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(as_schema_2, "saved state has schema 2, expected 6", id="schema-2"),
        pytest.param(as_schema_4, "saved state has schema 4, expected 6", id="schema-4"),
        pytest.param(as_schema_5, "saved state has schema 5, expected 6", id="schema-5"),
        *(
            pytest.param(without(key), f"corrupt saved state: no {key}", id=f"no-{key}")
            for key in ("workflow", "instance", "seq", "branches", "context", "version")
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
        # the tokens of schema 5 beside a schema-6 entry, as a misbinding edit leaves them
        pytest.param(
            replaced("interrupted", {"0/slow": "tok-slow", "0/b": "tok-x"}),
            "corrupt saved state: unknown key 'interrupted'",
            id="interrupted-in-a-schema-6-state",
        ),
        # one entry per saved branch: a second one would be dropped unseen
        pytest.param(
            replaced("branches", [{"id": "0", "path": [0]}, {"id": "0", "path": [1]}]),
            "corrupt saved state: a branch has two entries",
            id="a-branch-twice",
        ),
        pytest.param(
            root_entry(tokens=["tok-slow"]),
            "corrupt saved state: branch 0: unknown key 'tokens'",
            id="entry-with-an-unknown-key",
        ),
        # a token is a string: an object, as schema 4 wrapped it, is refused
        bad_entry(5, "token-a-number"),
        bad_entry({}, "entry-empty"),
        bad_entry({"passthrough": "tok-slow"}, "entry-in-the-schema-4-form"),
        bad_entry({"passthrough": "t", "result": {}}, "entry-two-kinds"),
        bad_entry({"token": "t"}, "entry-unknown-kind"),
        bad_entry({"passthrough": 5}, "passthrough-not-a-string"),
        bad_entry(None, "token-null"),
        # only the call that handed a token out replays it
        pytest.param(
            root_entry(path=[0]),
            "corrupt saved state: branch 0: token not at a call",
            id="token-at-a-manipulate",
        ),
        pytest.param(
            root_entry(path=[3]),
            "corrupt saved state: branch 0: token not at a call",
            id="token-at-the-root-end-marker",
        ),
        pytest.param(
            root_entry(fired=[0]), "corrupt saved state: branch 0: fired [0]", id="fired-not-paths"
        ),
        pytest.param(
            root_entry(fired="0"), "corrupt saved state: branch 0: fired '0'", id="fired-not-a-list"
        ),
        pytest.param(
            root_entry(fired=[[0]]),
            "corrupt saved state: branch 0: fired [0]",
            id="fired-not-a-parallel",
        ),
    ],
)
def test_resume_refuses_a_malformed_saved_state(edit, message, tmp_path):
    ast, handler, saved = stopped_in_slow_call()
    log = tmp_path / "resumed.jsonl"
    with pytest.raises(EngineError) as refused:
        WorkflowInstance.resume(ast, handler, edit(saved), RunOptions(log_path=str(log)))
    refusal = str(refused.value)
    assert refusal.startswith(message) and "\n" not in refusal, refusal
    assert not log.exists()
    assert handler.invocations == {"slow": 1}


# the saved context holds the workflow's declared names, and each a value
@pytest.mark.parametrize(
    "context, message",
    [
        pytest.param({}, "context lacks ['n'], undeclared []", id="a-name-missing"),
        pytest.param(
            {"n": 1, "z": 0}, "context lacks [], undeclared ['z']", id="an-undeclared-name"
        ),
        pytest.param({"n": [1, 2]}, "context 'n': [1, 2] is not a value", id="a-list"),
        pytest.param({"n": 2.5}, "context 'n': 2.5 is not a value", id="a-float"),
        pytest.param({"n": "\ud800"}, "context 'n': '\\ud800' is not a value", id="a-surrogate"),
    ],
)
def test_resume_refuses_a_saved_context_the_workflow_does_not_declare(context, message, tmp_path):
    ast, handler, saved = stopped_in_slow_call()
    log = tmp_path / "resumed.jsonl"
    with pytest.raises(EngineError) as refused:
        options = RunOptions(log_path=str(log))
        WorkflowInstance.resume(ast, handler, {**saved, "context": context}, options)
    assert str(refused.value) == f"corrupt saved state: {message}"
    assert not log.exists()
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
    failing = FailingReplay()
    failing.instance = WorkflowInstance.resume(ast, failing, saved)
    assert failing.instance.run() == "stopped"
    assert failing.instance.save()["branches"] == [{"id": "0", "path": [1], "token": "tok-slow"}]
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
        [{"id": "0", "path": [1], "forks": 3, "token": "tok-slow"}],
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
        [
            {"id": "0", "path": [0], "forks": 2},
            {"id": "0.1", "path": [0, 0, 0, 0, 1], "forks": 2, "token": "tok-slow"},
        ],
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
    # the handler finished the call instead of handing out a token: its
    # result is committed before the stop record, and the root saved past it
    kinds = [(r.kind, r.position) for r in instance.log.records]
    ack = kinds.index(("stop_acknowledged", None))
    assert kinds[ack + 1 :] == [
        ("signal", "slow"),
        ("context_change", "slow"),
        ("activity_end", "slow"),
        ("instance_stop", None),
    ]
    saved = json.loads(json.dumps(instance.save()))
    assert call_tokens(ast, saved) == {}
    assert saved["branches"] == [{"id": "0", "path": [1]}]
    assert saved["context"] == {"done": 1}

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
    # the result is committed after the stop, and the commit refuses it
    assert instance.deliver_stop() == "error"
    assert instance.errors == ["call 'slow': handler result for 'done' is not a value"]
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


# -- a saved path stays until its branch is back at it ---------------------------

RESTART_IN_A_SECTION = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  critical :s {
    call :pre, endpoint: svc
    call :slow, endpoint: svc
  }
}
"""

RESTART_AT_A_JOIN = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: all {
    parallel_branch { call :a, endpoint: svc }
    parallel_branch { call :b, endpoint: svc }
  }
}
"""

SLOW_CALLS_SCRIPT = {
    "positions": {
        "slow": {"result": {}, "delay_ms": 2000, "token": "tok-slow"},
        "b": {"result": {}, "delay_ms": 2000, "token": "tok-b"},
    },
    "default": {"result": {}},
    "passthroughs": {"tok-slow": {"result": {}}, "tok-b": {"result": {}}},
}


def arrived(records) -> bool:
    return any(r.detail.get("role") == "arrive" for r in records)


# (workflow, stop once this holds, the saved branches, the calls of a run)
ON_THE_WAY_BACK = {
    # the root restarts inside the section: a stop before it has re-entered
    # it must not move its restart point up to the critical node
    "section": (
        RESTART_IN_A_SECTION,
        lambda rs: starts_of(rs, "slow"),
        [{"id": "0", "path": [0, 0, 1], "token": "tok-slow"}],
        {"pre": 1, "slow": 1},
    ),
    # the root restarts at the join with one child parked and one arrived: a
    # stop before it has re-opened the join must keep both
    "join": (
        RESTART_AT_A_JOIN,
        lambda rs: starts_of(rs, "b") and arrived(rs),
        [
            {"id": "0", "path": [0], "forks": 3},
            {"id": "0.1", "path": [0, -1]},
            {"id": "0.2", "path": [0, 0, 1, 0, 0], "token": "tok-b"},
        ],
        {"a": 1, "b": 1},
    ),
}


def stop_once(ast, handler, virtual_time: bool, ready) -> WorkflowInstance:
    """An instance stopped once ready(its records) holds; under virtual time,
    50 ms into its simulated waits."""
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=virtual_time))
    if virtual_time:
        instance.call_later(0.05, instance.request_stop)
        instance.start()
    else:
        instance.start()
        assert wait_for(instance, ready)
        instance.request_stop()
    assert instance.wait() == "stopped"
    assert ready(instance.log.records)
    return instance


def stopped_once(ast, handler, virtual_time: bool, ready) -> dict:
    """The JSON round trip of the state of stop_once's instance."""
    return json.loads(json.dumps(stop_once(ast, handler, virtual_time, ready).save()))


@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
@pytest.mark.parametrize("case", sorted(ON_THE_WAY_BACK))
def test_a_stop_before_a_restored_branch_is_back_at_its_saved_path_keeps_it(case, virtual_time):
    source, ready, branches, calls = ON_THE_WAY_BACK[case]
    ast = dsl.parse(source)
    options = RunOptions(virtual_time=virtual_time)
    handler = MockHandler(SLOW_CALLS_SCRIPT)  # shared: counts every invocation
    first = stopped_once(ast, handler, virtual_time, ready)
    assert first["branches"] == branches

    # stopped before it starts: no branch gets back to where it restarts
    again = WorkflowInstance.resume(ast, handler, first, options)
    again.request_stop()
    again.start()
    assert again.wait() == "stopped"
    assert [r for r in again.log.records if r.kind == "activity_start"] == []
    second = json.loads(json.dumps(again.save()))
    assert second["branches"] == first["branches"]
    assert call_tokens(ast, second) == call_tokens(ast, first)

    last = WorkflowInstance.resume(ast, handler, second, options)
    assert last.run() == "finished"
    assert handler.invocations == calls


JUMP_INTO_A_HELD_SECTION = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: all {
    parallel_branch { critical :s { call :hold, endpoint: svc } }
    parallel_branch {
      call :j, endpoint: svc
      critical :s {
        call :x, endpoint: svc
        call :target, endpoint: svc
      }
    }
  }
}
"""


def test_a_stop_on_the_way_to_a_jump_target_parks_the_branch_at_the_target():
    script = {
        "positions": {
            "hold": {"result": {}, "delay_ms": 100, "on_stop": "finish"},
            "j": {"jump": "target", "delay_ms": 10},
        },
        "default": {"result": {}},
    }
    ast = dsl.parse(JUMP_INTO_A_HELD_SECTION)
    options = RunOptions(virtual_time=True)
    never_stopped = MockHandler(script)
    assert WorkflowInstance(ast, never_stopped, options).run() == "finished"
    assert never_stopped.invocations == {"hold": 1, "j": 1, "target": 1}

    # 0.2 has jumped and waits for the section 0.1 holds when the stop lands
    handler = MockHandler(script)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler, options)
    instance.call_later(0.05, instance.request_stop)
    assert instance.run() == "stopped"
    saved = json.loads(json.dumps(instance.save()))
    paths = {entry["id"]: entry["path"] for entry in saved["branches"]}
    assert paths["0.2"] == list(dsl.position_paths(ast)["target"])

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=True))
    assert resumed.run() == "finished"
    assert handler.invocations == never_stopped.invocations


INSIDE_A_PARALLEL_BODY = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context n: 0
  parallel wait: all {
    manipulate :count { n = n + 1 }
    parallel_branch { call :a, endpoint: svc }
    call :slow, endpoint: svc
  }
}
"""


def test_a_parent_resumed_inside_a_parallel_body_runs_nothing_before_its_saved_node():
    ast = dsl.parse(INSIDE_A_PARALLEL_BODY)
    handler = MockHandler(SLOW_CALLS_SCRIPT)  # shared: counts every invocation
    saved = stopped_once(ast, handler, True, lambda rs: starts_of(rs, "slow") and arrived(rs))
    assert saved["branches"] == [
        {"id": "0", "path": [0, 0, 2], "forks": 2, "token": "tok-slow"},
        {"id": "0.1", "path": [0, -1]},
    ]

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=True))
    assert resumed.run() == "finished"
    assert [r.position for r in resumed.log.records if r.kind == "activity_start"] == ["slow"]
    assert resumed.store.current_values() == {"n": 1}
    assert handler.invocations == {"a": 1, "slow": 1}


LOSER_BLOCKED_ON_ITS_JOIN = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 1 {
    parallel_branch { call :fast, endpoint: svc }
    parallel_branch {
      parallel wait: all { parallel_branch { call :slow, endpoint: svc } }
    }
  }
  call :after, endpoint: svc
}
"""

# the same, with a quick sibling that arrives at the loser's own join first
LOSER_WITH_AN_ARRIVED_CHILD = LOSER_BLOCKED_ON_ITS_JOIN.replace(
    "parallel_branch { call :slow, endpoint: svc }",
    "parallel_branch { call :slow, endpoint: svc } parallel_branch { call :quick, endpoint: svc }",
)
LOSER_SCRIPT = {
    "positions": {
        "fast": {"result": {}, "delay_ms": 10},
        "slow": {"result": {}, "delay_ms": 2000, "token": "tok-slow"},
    },
    "default": {"result": {}},
}
# the loser and its subtree as the stop leaves them: 0.2 at its own join,
# 0.2.1 in its slow call
LOSER_SAVED = [
    {"id": "0", "path": [0], "forks": 3},
    {"id": "0.1", "path": [0, -1]},
    {"id": "0.2", "path": [0, 0, 1, 0, 0], "forks": 2},
    {"id": "0.2.1", "path": [0, 0, 1, 0, 0, 0, 0, 0, 0], "token": "tok-slow"},
]


def stop_as_fast_ends(instance, virtual_time: bool) -> list:
    """Stop between the winner's last activity and its arrival. On threads
    the winner then waits until every other branch has parked, so it
    arrives last; the list returned gets that wait's outcome."""
    parked = []

    def listener(record):
        if record.kind == "activity_end" and record.position == "fast":
            instance.request_stop()
            if not virtual_time:
                parked.append(wait_until(lambda: len(instance.branches) == 1))

    instance.log.add_listener(listener)
    return parked


@pytest.mark.parametrize(
    "source, branches",
    [
        pytest.param(LOSER_BLOCKED_ON_ITS_JOIN, LOSER_SAVED, id="blocked-on-its-join"),
        pytest.param(
            LOSER_WITH_AN_ARRIVED_CHILD,
            [
                *LOSER_SAVED[:2],
                {"id": "0.2", "path": [0, 0, 1, 0, 0], "forks": 3},
                LOSER_SAVED[3],
                {"id": "0.2.2", "path": [0, 0, 1, 0, 0, -1]},
            ],
            id="with-an-arrived-child",
        ),
    ],
)
@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
def test_a_loser_of_a_join_unfired_at_the_stop_is_cancelled_on_resume(
    virtual_time, source, branches
):
    ast = dsl.parse(source)
    handler = MockHandler(LOSER_SCRIPT)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=virtual_time))
    parked = stop_as_fast_ends(instance, virtual_time)
    assert instance.run() == "stopped"
    assert parked == ([] if virtual_time else [True])
    # the winner arrived after the stop, so the join did not fire: the loser's
    # subtree is saved as the stop left it
    assert not [r for r in instance.log.records if r.detail.get("role") == "fire"]
    saved = json.loads(json.dumps(instance.save()))
    assert saved["branches"] == branches
    assert call_tokens(ast, saved) == {"0.2.1/slow": "tok-slow"}

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=virtual_time))
    assert resumed.run() == "finished"
    # the restored arrival fires the join before the loser starts, and the
    # loser stands down with its subtree
    kinds = [
        (r.kind, r.branch, r.detail.get("role") or r.detail.get("signal"))
        for r in resumed.log.records
    ]
    assert kinds[1:4] == [
        ("branch_fork", "0", None),
        ("branch_join", "0", "fire"),
        ("signal", "0.2", "no_longer_necessary"),
    ]
    assert [r.position for r in resumed.log.records if r.kind == "activity_start"] == ["after"]
    quick = {} if source is LOSER_BLOCKED_ON_ITS_JOIN else {"quick": 1}
    assert handler.invocations == {"fast": 1, "slow": 1, "after": 1} | quick


ONE_CHILD = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context n: 0
  parallel wait: all {
    parallel_branch { call :a, endpoint: svc }
  }
  manipulate :after { n = n + 1 }
}
"""


def renamed_child(saved: dict) -> dict:
    # the renamed entry keeps its token
    return {**saved, "branches": [saved["branches"][0], {**saved["branches"][1], "id": "0.7.1"}]}


def root_at(path: list[int]):
    return lambda saved: {
        **saved, "branches": [{**saved["branches"][0], "path": path}, saved["branches"][1]]
    }


@pytest.mark.parametrize(
    "edit, child",
    [
        pytest.param(renamed_child, "0.7.1", id="parent-not-saved"),
        pytest.param(root_at([1]), "0.1", id="parent-past-the-parallel"),
        pytest.param(root_at([2]), "0.1", id="parent-at-the-end"),
    ],
)
def test_resume_refuses_a_saved_child_that_nothing_restores(edit, child, tmp_path):
    ast = dsl.parse(ONE_CHILD)
    script = {"positions": {"a": {"result": {}, "delay_ms": 2000, "token": "tok-a"}}}
    handler = MockHandler(script)
    saved = stopped_once(ast, handler, True, lambda rs: starts_of(rs, "a"))
    assert saved["branches"] == [
        {"id": "0", "path": [0], "forks": 2},
        {"id": "0.1", "path": [0, 0, 0, 0, 0], "token": "tok-a"},
    ]
    assert call_tokens(ast, saved) == {"0.1/a": "tok-a"}

    log = tmp_path / "resumed.jsonl"
    with pytest.raises(EngineError) as refused:
        WorkflowInstance.resume(ast, handler, edit(saved), RunOptions(log_path=str(log)))
    assert str(refused.value) == (
        f"corrupt saved state: branch {child}: its parent is not saved "
        "at or inside the parallel [0] it joins"
    )
    assert not log.exists()
    assert handler.invocations == {"a": 1}


# -- a call that ends after the stop is applied at once --------------------------

JUMP_AFTER_THE_STOP = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context n: 0
  call :leap, endpoint: svc
  manipulate :skipped { n = n + 1 }
  critical :s {
    call :before, endpoint: svc
    call :target, endpoint: svc
  }
}
"""


@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
def test_a_jump_that_ends_after_the_stop_parks_the_branch_at_its_target(virtual_time):
    script = {
        "positions": {"leap": {"jump": "target", "delay_ms": 2000, "on_stop": "finish"}},
        "default": {"result": {}},
    }
    ast = dsl.parse(JUMP_AFTER_THE_STOP)
    handler = MockHandler(script)  # shared: counts every invocation
    instance = stop_once(ast, handler, virtual_time, lambda rs: starts_of(rs, "leap"))
    # the jump is traced in the run where the call ended
    kinds = [(r.kind, r.position, r.detail.get("signal")) for r in instance.log.records]
    ack = kinds.index(("stop_acknowledged", None, None))
    assert kinds[ack + 1 :] == [
        ("signal", "leap", "stop_call"),
        ("signal", "leap", "jump"),
        ("activity_end", "leap", None),
        ("instance_stop", None, None),
    ]
    saved = json.loads(json.dumps(instance.save()))
    # parked at the critical node on its way, the root restarts at the target
    assert saved["branches"] == [{"id": "0", "path": list(dsl.position_paths(ast)["target"])}]
    assert call_tokens(ast, saved) == {}

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=virtual_time))
    assert resumed.run() == "finished"
    assert [r.position for r in resumed.log.records if r.kind == "activity_start"] == ["target"]
    assert handler.invocations == {"leap": 1, "target": 1}
    assert resumed.store.current_values() == {"n": 0}


WINNER_AFTER_THE_STOP = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 1 {
    parallel_branch { call :quick, endpoint: svc }
    call :pace, endpoint: svc
  }
  call :after, endpoint: svc
}
"""


WINNER_SCRIPT = {
    "positions": {
        "quick": {"result": {}, "delay_ms": 100, "on_stop": "finish"},
        "pace": {"result": {}, "delay_ms": 2000, "token": "tok-pace"},
    },
    "default": {"result": {}},
    "passthroughs": {"tok-pace": {"result": {}}},
}


def test_a_winner_that_arrives_after_the_stop_keeps_its_restart_path():
    ast = dsl.parse(WINNER_AFTER_THE_STOP)
    handler = MockHandler(WINNER_SCRIPT)  # shared: counts every invocation
    saved = stopped_once(ast, handler, True, lambda rs: starts_of(rs, "pace"))
    # quick ended after the stop, and its arrival did not fire the join
    assert saved["branches"] == [
        {"id": "0", "path": [0, 0, 1], "forks": 2, "token": "tok-pace"},
        {"id": "0.1", "path": [0, -1]},
    ]
    assert call_tokens(ast, saved) == {"0/pace": "tok-pace"}

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=True))
    assert resumed.run() == "finished"
    assert handler.invocations == {"quick": 1, "pace": 1, "after": 1}


def stop_as_pace_starts(instance, virtual_time: bool) -> list:
    """Stop just after pace starts; quick, still in its delay, then ends
    after the stop."""

    def listener(record):
        # the start is traced under the state lock, which the stop takes
        if record.kind == "activity_start" and record.position == "pace":
            instance.call_later(0, instance.request_stop)

    instance.log.add_listener(listener)
    return []


# a join whose last needed arrival comes after the stop: (workflow, script,
# how the stop is set up, the calls of a run)
AN_ARRIVAL_AFTER_THE_STOP = {
    "winner-after-the-stop": (
        WINNER_AFTER_THE_STOP,
        WINNER_SCRIPT,
        stop_as_pace_starts,
        {"quick": 1, "pace": 1, "after": 1},
    ),
    "loser-blocked-on-its-join": (
        LOSER_BLOCKED_ON_ITS_JOIN,
        LOSER_SCRIPT,
        stop_as_fast_ends,
        {"fast": 1, "slow": 1, "after": 1},
    ),
    "loser-with-an-arrived-child": (
        LOSER_WITH_AN_ARRIVED_CHILD,
        LOSER_SCRIPT,
        stop_as_fast_ends,
        {"fast": 1, "slow": 1, "quick": 1, "after": 1},
    ),
}


@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
@pytest.mark.parametrize("shape", sorted(AN_ARRIVAL_AFTER_THE_STOP))
def test_a_join_fires_once_across_a_stop_and_its_resume(shape, virtual_time, tmp_path):
    source, script, arm_stop, calls = AN_ARRIVAL_AFTER_THE_STOP[shape]
    ast = dsl.parse(source)
    log = str(tmp_path / "trace.jsonl")  # the stopped run and the resume share it
    handler = MockHandler(script)  # shared: counts every invocation
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=virtual_time, log_path=log))
    arm_stop(instance, virtual_time)
    assert instance.run() == "stopped"
    saved = json.loads(json.dumps(instance.save()))
    options = RunOptions(virtual_time=virtual_time, log_path=log)
    assert WorkflowInstance.resume(ast, handler, saved, options).run() == "finished"

    records = read_jsonl(log)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    # the root's join is the one join that runs to its fire, and it fires once
    assert [r.branch for r in records if r.detail.get("role") == "fire"] == ["0"]
    assert handler.invocations == calls


# a k-join that fires while its parent is still in the parallel body, which
# the stop then catches in a call there
FIRED_BEFORE_THE_STOP = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 1 {
    parallel_branch { call :quick, endpoint: svc }
    call :pace, endpoint: svc
    parallel_branch { call :late, endpoint: svc }
  }
  call :after, endpoint: svc
}
"""

NESTED_FIRED_BEFORE_THE_STOP = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 1 {
    parallel_branch { call :quick, endpoint: svc }
    parallel wait: 1 {
      parallel_branch { call :inner, endpoint: svc }
      call :pace, endpoint: svc
    }
  }
  call :after, endpoint: svc
}
"""

FIRED_SCRIPT = {
    "positions": {"pace": {"result": {}, "delay_ms": 2000, "token": "tok-pace"}},
    "default": {"result": {}, "delay_ms": 10},
    "passthroughs": {"tok-pace": {"result": {}}},
}

# (workflow, the saved branches, the joins that fire, the calls of a run)
FIRED_JOINS = {
    "one-join": (
        FIRED_BEFORE_THE_STOP,
        [
            {"id": "0", "path": [0, 0, 1], "forks": 2, "token": "tok-pace", "fired": [[0]]},
            {"id": "0.1", "path": [0, -1]},
        ],
        1,
        {"quick": 1, "pace": 1, "after": 1},
    ),
    "nested-joins": (
        NESTED_FIRED_BEFORE_THE_STOP,
        [
            {
                "id": "0",
                "path": [0, 0, 1, 0, 1],
                "forks": 3,
                "token": "tok-pace",
                "fired": [[0], [0, 0, 1]],
            },
            {"id": "0.1", "path": [0, -1]},
            {"id": "0.2", "path": [0, 0, 1, -1]},
        ],
        2,
        {"quick": 1, "inner": 1, "pace": 1, "after": 1},
    ),
}


@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
@pytest.mark.parametrize("shape", sorted(FIRED_JOINS))
def test_a_join_fired_before_the_stop_does_not_fire_again_on_resume(
    shape, virtual_time, tmp_path
):
    source, branches, fires, calls = FIRED_JOINS[shape]
    ast = dsl.parse(source)
    log = str(tmp_path / "trace.jsonl")  # the stopped run and the resume share it
    handler = MockHandler(FIRED_SCRIPT)  # shared: counts every invocation
    options = RunOptions(virtual_time=virtual_time, log_path=log)
    instance = WorkflowInstance(ast, handler, options)
    if virtual_time:
        instance.call_later(0.5, instance.request_stop)
        instance.start()
    else:
        instance.start()
        fired = lambda rs: sum(r.detail.get("role") == "fire" for r in rs) == fires
        assert wait_for(instance, lambda rs: fired(rs) and starts_of(rs, "pace"))
        instance.request_stop()
    assert instance.wait() == "stopped"
    saved = json.loads(json.dumps(instance.save()))
    # the parent parked in the body of each join that fired, and says so
    assert saved["branches"] == branches
    assert WorkflowInstance.resume(ast, handler, saved, options).run() == "finished"

    records = read_jsonl(log)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    # each join fired once, in the stopped run, and a child forked after the
    # resume stands down at once
    assert [r.branch for r in records if r.detail.get("role") == "fire"] == ["0"] * fires
    if shape == "one-join":
        kinds = [
            (r.kind, r.branch, r.detail.get("child") or r.detail.get("signal")) for r in records
        ]
        late = kinds.index(("branch_fork", "0", "0.2"))
        assert kinds[late + 1] == ("signal", "0.2", "no_longer_necessary")
    assert handler.invocations == calls


def with_entries(*entries):
    return lambda saved: {**saved, "branches": list(entries)}


FIRED_ROOT = {"id": "0", "path": [0, 0, 1], "forks": 2, "token": "tok-pace", "fired": [[0]]}


TWO_FIRED_BEFORE_THE_STOP = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 2 {
    parallel_branch { call :quick, endpoint: svc }
    parallel_branch { call :inner, endpoint: svc }
    call :pace, endpoint: svc
  }
}
"""

# workflow -> (script, the saved branches when it stops in its call pace or slow)
STOPPED_IN_A_JOIN_BODY = {
    FIRED_BEFORE_THE_STOP: (FIRED_SCRIPT, [FIRED_ROOT, {"id": "0.1", "path": [0, -1]}]),
    TWO_FIRED_BEFORE_THE_STOP: (
        FIRED_SCRIPT,
        [
            {"id": "0", "path": [0, 0, 2], "forks": 3, "token": "tok-pace", "fired": [[0]]},
            {"id": "0.1", "path": [0, -1]},
            {"id": "0.2", "path": [0, -1]},
        ],
    ),
    INSIDE_A_PARALLEL_BODY: (
        SLOW_CALLS_SCRIPT,
        [
            {"id": "0", "path": [0, 0, 2], "forks": 2, "token": "tok-slow"},
            {"id": "0.1", "path": [0, -1]},
        ],
    ),
}

# (workflow, edit of the state stopped in its call pace or slow, refusal)
OUT_OF_PLACE = {
    "token-at-an-arrival": (
        FIRED_BEFORE_THE_STOP,
        with_entries(FIRED_ROOT, {"id": "0.1", "path": [0, -1], "token": "tok-pace"}),
        "corrupt saved state: branch 0.1: token not at a call",
    ),
    "fired-at-an-arrival": (
        FIRED_BEFORE_THE_STOP,
        with_entries(FIRED_ROOT, {"id": "0.1", "path": [0, -1], "fired": [[0]]}),
        "corrupt saved state: branch 0.1: fired [0]",
    ),
    "fired-the-join-of-the-branch": (
        FIRED_BEFORE_THE_STOP,
        with_entries(
            FIRED_ROOT,
            {"id": "0.1", "path": [0, 0, 0, 0, 0], "fired": [[0]]},
            {"id": "0.2", "path": [0, -1]},
        ),
        "corrupt saved state: branch 0.1: fired [0]",
    ),
    "fired-the-join-the-root-waits-on": (
        FIRED_BEFORE_THE_STOP,
        with_entries(
            {"id": "0", "path": [0], "forks": 2, "fired": [[0]]}, {"id": "0.1", "path": [0, -1]}
        ),
        "corrupt saved state: branch 0: fired [0]",
    ),
    # [parallel, -1]: a child at [0, 0, -1] would be lost, as no parallel is at [0, 0]
    "arrival-at-a-block": (
        FIRED_BEFORE_THE_STOP,
        with_entries(FIRED_ROOT, {"id": "0.1", "path": [0, 0, -1]}),
        "corrupt saved state: (0, 0) is not a parallel block",
    ),
    "fired-with-no-arrival": (
        FIRED_BEFORE_THE_STOP,
        with_entries(FIRED_ROOT),
        "corrupt saved state: branch 0: fired [0]",
    ),
    "fired-with-one-arrival-of-two": (
        TWO_FIRED_BEFORE_THE_STOP,
        lambda saved: {**saved, "branches": saved["branches"][:2]},
        "corrupt saved state: branch 0: fired [0]",
    ),
    "fired-off-the-path": (
        FIRED_BEFORE_THE_STOP,
        with_entries({**FIRED_ROOT, "path": [1]}),
        "corrupt saved state: branch 0: fired [0]",
    ),
    "fired-an-all-join": (
        INSIDE_A_PARALLEL_BODY,
        with_entries(
            {"id": "0", "path": [0, 0, 2], "forks": 2, "token": "tok-slow", "fired": [[0]]},
            {"id": "0.1", "path": [0, -1]},
        ),
        "corrupt saved state: branch 0: fired [0]",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_PLACE))
def test_resume_refuses_a_saved_entry_out_of_place(case, tmp_path):
    source, edit, message = OUT_OF_PLACE[case]
    ast = dsl.parse(source)
    script, branches = STOPPED_IN_A_JOIN_BODY[source]
    handler = MockHandler(script)
    ready = lambda rs: starts_of(rs, "pace") or starts_of(rs, "slow")
    saved = stopped_once(ast, handler, True, ready)
    assert saved["branches"] == branches  # the root parked at its call in a join's body
    calls = dict(handler.invocations)
    log = tmp_path / "resumed.jsonl"
    with pytest.raises(EngineError) as refused:
        WorkflowInstance.resume(ast, handler, edit(saved), RunOptions(log_path=str(log)))
    assert str(refused.value) == message
    assert not log.exists()
    assert handler.invocations == calls


SLOW_THEN_HALT = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  endpoint halt: "wee://stop"
  context done: 0
  call :slow, endpoint: svc
  call :after, endpoint: svc
  call :halt, endpoint: halt
  call :last, endpoint: svc
}
"""

SLOW_THEN_HALT_SCRIPT = {**ONE_SLOW_CALL_SCRIPT, "default": {"result": {}}}


def test_a_call_that_a_resume_skips_leaves_no_token_behind():
    ast = dsl.parse(SLOW_THEN_HALT)
    handler = MockHandler(SLOW_THEN_HALT_SCRIPT)  # shared: counts every invocation
    saved = stopped_once(ast, handler, False, lambda rs: starts_of(rs, "slow"))
    assert call_tokens(ast, saved) == {"0/slow": "tok-slow"}

    skipped = WorkflowInstance.resume(ast, handler, saved, skip_positions=["slow"])
    assert skipped.run() == "stopped"  # at wee://stop
    second = skipped.save()
    # the next call is called, not given the skipped call's token
    assert second["branches"] == [{"id": "0", "path": [3]}]
    assert call_tokens(ast, second) == {}
    assert handler.invocations == {"slow": 1, "after": 1}


def test_a_token_at_an_engine_call_goes_once_the_call_begins():
    ast = dsl.parse(SLOW_THEN_HALT)
    handler = MockHandler(SLOW_THEN_HALT_SCRIPT)  # shared: counts every invocation
    saved = stopped_once(ast, handler, False, lambda rs: starts_of(rs, "slow"))
    # no stop hands a token out at wee://stop: an edited state puts one there
    saved["branches"] = [{"id": "0", "path": [2], "token": "tok-slow"}]

    halted = WorkflowInstance.resume(ast, handler, saved)
    assert halted.run() == "stopped"  # at wee://stop
    assert halted.save()["branches"] == [{"id": "0", "path": [3]}]
    assert handler.invocations == {"slow": 1}


# an HTTP handler keeps the response of a stopped call for its token until
# the token is replayed or released
HTTP_SLOW_THEN_AFTER = """
workflow {
  handler "http"
  endpoint slow: "BASE/slow"
  endpoint after: "BASE/after"
  call :slow, endpoint: slow
  call :after, endpoint: after
}
"""

HTTP_LOSER = """
workflow {
  handler "http"
  endpoint fast: "BASE/fast"
  endpoint slow: "BASE/slow"
  endpoint after: "BASE/after"
  parallel wait: 1 {
    parallel_branch { call :fast, endpoint: fast }
    parallel_branch {
      parallel wait: all { parallel_branch { call :slow, endpoint: slow } }
    }
  }
  call :after, endpoint: after
}
"""


def test_a_skipped_http_call_releases_its_stored_response(stub_server):
    stub_server.delays["/slow"] = 1.0
    ast = dsl.parse(HTTP_SLOW_THEN_AFTER.replace("BASE", stub_server.url("")))
    handler = HttpHandler(timeout=10)
    saved = stopped_once(ast, handler, False, lambda rs: starts_of(rs, "slow"))
    assert list(call_tokens(ast, saved)) == ["0/slow"]
    assert len(handler._stored) == 1

    skipped = WorkflowInstance.resume(ast, handler, saved, skip_positions=["slow"])
    assert skipped.run() == "finished"
    assert len(handler._stored) == 0
    assert stub_server.counts == {"/slow": 1, "/after": 1}


def test_a_restored_http_loser_that_a_join_cancels_releases_its_stored_response(stub_server):
    stub_server.delays.update({"/fast": 0.05, "/slow": 1.0})
    ast = dsl.parse(HTTP_LOSER.replace("BASE", stub_server.url("")))
    handler = HttpHandler(timeout=10)
    instance = WorkflowInstance(ast, handler)
    parked = stop_as_fast_ends(instance, False)
    assert instance.run() == "stopped"
    assert parked == [True]
    saved = json.loads(json.dumps(instance.save()))
    assert list(call_tokens(ast, saved)) == ["0.2.1/slow"]
    assert len(handler._stored) == 1

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    # the restored arrival fires the join, which cancels the loser's subtree
    assert [r.position for r in resumed.log.records if r.kind == "activity_start"] == ["after"]
    assert len(handler._stored) == 0
    assert stub_server.counts == {"/fast": 1, "/slow": 1, "/after": 1}


def test_an_instance_that_ends_in_error_releases_its_stored_responses(stub_server):
    stub_server.delays.update({"/fast": 0.05, "/slow": 1.0})
    source = """
    workflow {
      handler "http"
      endpoint fast: "BASE/fast"
      endpoint slow: "BASE/slow"
      context n: 0
      parallel wait: all {
        parallel_branch { call :slow, endpoint: slow }
        parallel_branch {
          call :fast, endpoint: fast
          manipulate :bad { n = n / 0 }
        }
      }
    }
    """.replace("BASE", stub_server.url(""))
    handler = HttpHandler(timeout=10)
    instance = WorkflowInstance(dsl.parse(source), handler)
    assert finish(instance) == "error"
    # the error stopped the call, which handed out a token no resume replays
    assert instance.errors == ["manipulate 'bad': division by zero"]
    assert len(handler._stored) == 0


def test_an_http_call_that_a_join_cancels_releases_its_stored_response(stub_server):
    stub_server.delays["/slow"] = 1.0
    source = HTTP_LOSER.replace("BASE", stub_server.url(""))
    handler = HttpHandler(timeout=10)
    instance = WorkflowInstance(dsl.parse(source), handler)
    assert finish(instance) == "finished"
    assert len(handler._stored) == 0


# -- stop, resume, stop, ... : each call runs once -------------------------------

STOP_CHAIN = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context n: 0
  context got: 0
  cycle (n < 2) {
    critical :s {
      call :pre, endpoint: svc
      parallel wait: all {
        parallel_branch {
          call :a, endpoint: svc
          manipulate :ga { got = got + 1 }
        }
        parallel_branch { critical :t { call :b, endpoint: svc } }
      }
    }
    parallel wait: 1 {
      parallel_branch { call :w, endpoint: svc }
      call :body, endpoint: svc
    }
    manipulate :inc { n = n + 1 }
  }
}
"""

# pre, b and body hand out a token when a stop catches them, which the
# resume replays; a and w end after the stop with their result
STOP_CHAIN_SCRIPT = {
    "positions": {
        position: {"result": {}, "delay_ms": [5, 50], "token": f"tok-{position}"}
        for position in ("pre", "b", "body")
    },
    "default": {"result": {}, "delay_ms": [5, 50], "on_stop": "finish"},
    "passthroughs": {f"tok-{position}": {"result": {}} for position in ("pre", "b", "body")},
}

BEFORE_START = "before start"


def run_stop_chain(seed: int, stops: list) -> None:
    """Run STOP_CHAIN under virtual time as a chain of phases, each resuming
    the JSON round trip of the state the last one saved. A phase is stopped
    before it starts (BEFORE_START), at a virtual time in seconds, or not at
    all (None); the phase after the last of stops is not stopped."""
    ast = dsl.parse(STOP_CHAIN)
    handler = MockHandler(STOP_CHAIN_SCRIPT, seed=seed)  # shared: counts every invocation
    saved = None
    fires = 0
    for stop in [*stops, None]:
        options = RunOptions(virtual_time=True)
        if saved is None:
            instance = WorkflowInstance(ast, handler, options)
        else:
            instance = WorkflowInstance.resume(ast, handler, saved, options)
        if stop == BEFORE_START:
            instance.request_stop()
        elif stop is not None:
            instance.call_later(stop, instance.request_stop)
        result = instance.run()
        seqs = [r.seq for r in instance.log.records]
        first = 1 if saved is None else saved["seq"] + 1
        assert seqs == list(range(first, first + len(seqs)))
        fires += sum(1 for r in instance.log.records if r.detail.get("role") == "fire")
        if result != "stopped":
            break
        saved = json.loads(json.dumps(instance.save()))
    assert result == "finished", instance.errors
    # a replay is no invocation
    assert handler.invocations == {"pre": 2, "a": 2, "b": 2, "w": 2, "body": 2}
    assert instance.store.current_values() == {"n": 2, "got": 2}
    assert fires == 4  # one per execution of each join


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    stops=st.lists(
        st.one_of(st.just(BEFORE_START), st.floats(min_value=0.0, max_value=0.15), st.none()),
        max_size=6,
    ),
)
def test_a_chain_of_stops_and_resumes_runs_each_call_once(seed, stops):
    run_stop_chain(seed, stops)
