"""Stop/resume behavior across every structured construct.

Each scenario parks an instance at a deliberately awkward program counter
(inside a critical section, mid multi-choice, mid forking loop, nested
parallel) and checks that the resumed instance completes with the same
final state an uninterrupted run would reach.
"""

from __future__ import annotations

import json
import statistics
import time

from wee import dsl
from wee.engine import WorkflowInstance
from wee.handlers import MockHandler


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
    assert saved["passthroughs"] == {"step": "p-step"}
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


def test_nested_join_cancellation_cascades():
    ast = dsl.parse(NESTED_RACE)
    handler = MockHandler(
        {
            "positions": {
                "outer_fast": {"result": {}, "delay_ms": 5},
                "inner_a": {"result": {}, "delay_ms": 400},
                "inner_b": {"result": {}, "delay_ms": 400},
            }
        }
    )
    instance = WorkflowInstance(ast, handler)
    assert instance.run() == "finished"
    records = instance.log.records
    nln_targets = {
        r.branch for r in records if r.detail.get("signal") == "no_longer_necessary"
    }
    # the losing subtree is cancelled all the way down
    assert nln_targets == {"0.2", "0.2.1", "0.2.2"}
    stop_calls = {
        r.position for r in records if r.detail.get("signal") == "stop_call"
    }
    assert stop_calls == {"inner_a", "inner_b"}
    assert not starts_of(records, "inner_done")
    assert len(starts_of(records, "after")) == 1
    assert instance.store.current_values()["done"] is True


def test_nested_cancellation_wakes_the_loser_blocked_on_its_own_join():
    ast = dsl.parse(NESTED_RACE)
    inner = {"result": {}, "delay_ms": 2000, "on_stop": "finish"}
    script = {
        "positions": {
            "outer_fast": {"result": {}, "delay_ms": 5},
            "inner_a": inner,
            "inner_b": inner,
        }
    }
    elapsed = []
    for _ in range(5):
        instance = WorkflowInstance(ast, MockHandler(script))
        started = time.perf_counter()
        assert instance.run() == "finished"
        elapsed.append(time.perf_counter() - started)
    # the cancel itself must wake the loser's join wait, well before any poll
    assert statistics.median(elapsed) < 0.025, elapsed


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
        if instance.state().branches["0.2.2"].status == "cancelled":
            break
        time.sleep(0.002)
    assert instance.state().branches["0.2.2"].status == "cancelled"
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
    assert saved["passthroughs"] == {"slow": "tok-slow"}

    # stopped before the resumed call begins: it parks at the call and the
    # token stays in the saved state
    parked = WorkflowInstance.resume(ast, handler, saved)
    parked.request_stop()
    parked.start()
    assert parked.wait() == "stopped"
    assert starts_of(parked.log.records, "slow") == []
    saved = parked.save()
    assert saved["passthroughs"] == {"slow": "tok-slow"}

    resumed = WorkflowInstance.resume(ast, handler, saved)
    assert resumed.run() == "finished"
    assert handler.invocations == {"slow": 1}
    assert resumed.store.current_values()["done"] == 2
