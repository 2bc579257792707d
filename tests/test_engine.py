from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import run_source, starts
from wee import dsl
from wee.engine import EngineError, RunOptions, WorkflowInstance, run_workflow
from wee.events import FixedClock
from wee.handlers import MockHandler

FIXTURES = Path(__file__).parent.parent / "src" / "wee" / "fixtures"


def load_booking():
    source = (FIXTURES / "booking.wee").read_text()
    return dsl.parse(source)


# -- start / sequence ----------------------------------------------------------


def test_single_manipulate_trace_shape():
    instance = run_source(
        'workflow { handler "mock" context x: 0 manipulate :a { x = x + 1 } }',
        MockHandler(),
    )
    assert instance.result == "finished"
    assert [r.kind for r in instance.log.records] == [
        "instance_start",
        "activity_start",
        "context_change",
        "activity_end",
        "instance_finish",
    ]
    assert instance.lifecycle.value == "finished"


def test_booking_over_limit_runs_inform_once():
    ast = load_booking()
    handler = MockHandler(json.load(open(FIXTURES / "booking_over.json")))
    instance = WorkflowInstance(ast, handler)
    assert instance.run() == "finished"
    inform = [r for r in instance.log.records if r.position == "inform"]
    assert sum(1 for r in inform if r.kind == "activity_start") == 1
    assert instance.store.current_values()["price"] == 12000


def test_booking_under_limit_never_informs():
    ast = load_booking()
    handler = MockHandler(json.load(open(FIXTURES / "booking_under.json")))
    instance = WorkflowInstance(ast, handler)
    assert instance.run() == "finished"
    assert not [r for r in instance.log.records if r.position == "inform"]
    assert instance.store.current_values()["price"] == 9000


def test_sequence_end_precedes_next_start():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context n: 0
          manipulate :a { n = n + 1 }
          manipulate :b { n = n + 1 }
        }
        """,
        MockHandler(),
    )
    order = [(r.kind, r.position) for r in instance.log.records if r.position]
    assert order.index(("activity_end", "a")) < order.index(("activity_start", "b"))


def test_empty_workflow_emits_no_activity_events():
    instance = run_source('workflow { handler "mock" }', MockHandler())
    assert [r.kind for r in instance.log.records] == ["instance_start", "instance_finish"]


def test_failed_call_aborts_before_next_activity():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          context n: 0
          call :a, endpoint: svc
          manipulate :b { n = 1 }
        }
        """,
        MockHandler({"positions": {"a": {"error": "boom"}}}),
    )
    assert instance.result == "error"
    assert instance.lifecycle.value == "stopped"
    assert not starts(instance, "b")
    errors = [r for r in instance.log.records if r.kind == "error"]
    assert errors and "boom" in errors[0].detail["message"]


def test_handler_result_for_undeclared_variable_is_an_error():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          call :a, endpoint: svc
        }
        """,
        MockHandler({"positions": {"a": {"result": {"ghost": 1}}}}),
    )
    assert instance.result == "error"
    assert any("ghost" in r.detail.get("message", "") for r in instance.log.records if r.kind == "error")


# -- parallel -------------------------------------------------------------------


PARALLEL_TWO = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: all {
    parallel_branch { call :left, endpoint: svc }
    parallel_branch { call :right, endpoint: svc }
  }
  manipulate :after { done = true }
}
"""


def test_wait_all_join_fires_after_both_branch_ends():
    instance = run_source(PARALLEL_TWO, MockHandler({"default": {"result": {}}}))
    records = instance.log.records
    fire = next(i for i, r in enumerate(records) if r.detail.get("role") == "fire")
    arrivals = [i for i, r in enumerate(records) if r.detail.get("role") == "arrive"]
    assert len(arrivals) == 2
    assert all(i < fire for i in arrivals)
    after = next(i for i, r in enumerate(records) if r.position == "after")
    assert fire < after


def test_wait_one_cancels_loser_and_stops_its_call():
    instance = run_source(
        PARALLEL_TWO.replace("wait: all", "wait: 1"),
        MockHandler(
            {
                "positions": {
                    "left": {"result": {}, "delay_ms": 1},
                    "right": {"result": {}, "delay_ms": 400},
                }
            }
        ),
    )
    assert instance.result == "finished"
    records = instance.log.records
    fire = next(i for i, r in enumerate(records) if r.detail.get("role") == "fire")
    arrivals_before = [
        r for r in records[:fire] if r.detail.get("role") == "arrive"
    ]
    assert len(arrivals_before) == 1
    nln = [r for r in records if r.detail.get("signal") == "no_longer_necessary"]
    assert len(nln) == 1
    stop_calls = [r for r in records if r.detail.get("signal") == "stop_call"]
    assert len(stop_calls) == 1 and stop_calls[0].position == "right"
    assert len(starts(instance, "after")) == 1
    # the losing branch never starts anything after its cancel signal
    loser = nln[0].branch
    after_signal = [
        r for r in records if r.branch == loser and r.kind == "activity_start" and r.seq > nln[0].seq
    ]
    assert after_signal == []


def test_cycle_spawns_branches_counted_by_context():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          context x: 3
          context i: 0
          parallel wait: all {
            cycle (i < x) {
              manipulate :bump { i = i + 1 }
              parallel_branch { call :work, endpoint: svc }
            }
          }
        }
        """,
        MockHandler({"default": {"result": {}, "delay_ms": [0, 2]}}, seed=1),
    )
    assert instance.result == "finished"
    forks = [r for r in instance.log.records if r.kind == "branch_fork"]
    assert len(forks) == 3
    fire = next(r for r in instance.log.records if r.detail.get("role") == "fire")
    assert fire.detail["arrived"] == 3


def test_unsatisfiable_join_is_a_runtime_error():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          parallel wait: 3 {
            parallel_branch { call :only, endpoint: svc }
          }
        }
        """,
        MockHandler({"default": {"result": {}}}),
    )
    assert instance.result == "error"
    assert any(
        "unsatisfiable join" in r.detail.get("message", "")
        for r in instance.log.records
        if r.kind == "error"
    )


def test_statements_in_parallel_body_run_on_spawning_branch():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context n: 0
          parallel wait: all {
            manipulate :inline { n = n + 1 }
            parallel_branch { manipulate :child { n = n + 10 } }
          }
        }
        """,
        MockHandler(),
    )
    assert instance.result == "finished"
    inline = next(r for r in instance.log.records if r.position == "inline")
    assert inline.branch == "0"
    child = next(r for r in instance.log.records if r.position == "child")
    assert child.branch != "0"
    assert instance.store.current_values()["n"] == 11


# -- choose ----------------------------------------------------------------------


def test_multi_choice_runs_all_true_guards_in_order():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context x: 1
          choose {
            alternative (x == 1) { manipulate :first { x = x + 1 } }
            alternative (x >= 0) { manipulate :second { x = x + 1 } }
            otherwise { manipulate :other { x = 0 } }
          }
        }
        """,
        MockHandler(),
    )
    seq = [r.position for r in instance.log.records if r.kind == "activity_start"]
    assert seq == ["first", "second"]


def test_guards_are_evaluated_against_entry_snapshot():
    # the first alternative flips the variable the second one guards on;
    # with entry-snapshot semantics the second still runs
    instance = run_source(
        """
        workflow {
          handler "mock"
          context x: 1
          choose {
            alternative (x == 1) { manipulate :flip { x = 99 } }
            alternative (x == 1) { manipulate :still_runs { x = x + 1 } }
          }
        }
        """,
        MockHandler(),
    )
    seq = [r.position for r in instance.log.records if r.kind == "activity_start"]
    assert seq == ["flip", "still_runs"]
    assert instance.store.current_values()["x"] == 100


def test_otherwise_runs_iff_no_guard_true():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context x: 5
          choose {
            alternative (x < 0) { manipulate :neg { x = 0 } }
            otherwise { manipulate :fallback { x = x + 1 } }
          }
        }
        """,
        MockHandler(),
    )
    seq = [r.position for r in instance.log.records if r.kind == "activity_start"]
    assert seq == ["fallback"]


def test_no_guard_no_otherwise_runs_nothing():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context x: 5
          choose { alternative (x < 0) { manipulate :neg { x = 0 } } }
        }
        """,
        MockHandler(),
    )
    assert starts(instance) == []
    assert instance.result == "finished"


def test_non_boolean_guard_is_a_runtime_error():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context x: 5
          cycle (x) { manipulate :body { x = 0 } }
        }
        """,
        MockHandler(),
    )
    assert instance.result == "error"
    assert any(
        "not boolean" in r.detail.get("message", "")
        for r in instance.log.records
        if r.kind == "error"
    )


# -- cycle -------------------------------------------------------------------------


def test_cycle_runs_exactly_three_times():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context i: 0
          cycle (i < 3) { manipulate :body { i = i + 1 } }
        }
        """,
        MockHandler(),
    )
    assert len(starts(instance, "body")) == 3
    assert instance.store.current_values()["i"] == 3


def test_cycle_with_false_condition_runs_zero_times():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context i: 9
          cycle (i < 3) { manipulate :body { i = i + 1 } }
        }
        """,
        MockHandler(),
    )
    assert starts(instance, "body") == []


def test_cycle_count_from_handler_result():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          context amount: 0
          context i: 0
          call :determine, endpoint: svc
          cycle (i < amount) { manipulate :body { i = i + 1 } }
        }
        """,
        MockHandler({"positions": {"determine": {"result": {"amount": 4}}}}),
    )
    assert len(starts(instance, "body")) == 4


def test_iteration_cap_aborts_runaway_loop():
    instance = run_source(
        """
        workflow {
          handler "mock"
          context i: 0
          cycle (i >= 0) { manipulate :body { i = i + 1 } }
        }
        """,
        MockHandler(),
        max_iterations=25,
    )
    assert instance.result == "error"
    assert any(
        "iteration cap" in r.detail.get("message", "")
        for r in instance.log.records
        if r.kind == "error"
    )


# -- critical ----------------------------------------------------------------------


def section_spans(instance, section):
    spans, open_at = [], {}
    for i, r in enumerate(instance.log.records):
        if r.kind != "signal" or r.detail.get("section") != section:
            continue
        if r.detail["signal"] == "critical_enter":
            open_at[r.branch] = i
        else:
            spans.append((open_at.pop(r.branch), i))
    return spans


def test_critical_sections_never_overlap():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          parallel wait: all {
            parallel_branch { critical :s { call :a1, endpoint: svc call :a2, endpoint: svc } }
            parallel_branch { critical :s { call :b1, endpoint: svc call :b2, endpoint: svc } }
          }
        }
        """,
        MockHandler({"default": {"result": {}, "delay_ms": [0, 3]}}, seed=11),
    )
    spans = section_spans(instance, "s")
    assert len(spans) == 2
    (a0, a1), (b0, b1) = sorted(spans)
    assert a1 < b0  # disjoint


def test_contended_sections_hold_under_a_short_switch_interval():
    # more branches than cores, switching threads every 10 us: a lost update
    # to the section owners, the join or the live-branch count shows up as an
    # overlap, a wrong total, or a wait() that returns before :fin ran
    bodies = " ".join(
        "parallel_branch { "
        + " ".join(
            f"critical :s {{ manipulate :m{b}_{k} {{ n = n + 1 }} call :c{b}_{k}, endpoint: svc }}"
            for k in range(5)
        )
        + " }"
        for b in range(8)
    )
    source = f"""
    workflow {{
      handler "mock"
      endpoint svc: "mock://svc"
      context n: 0
      context done: false
      parallel wait: all {{ {bodies} }}
      manipulate :fin {{ done = true }}
    }}
    """
    ast = dsl.parse(source)
    assert dsl.validate(ast) == []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(10):
            instance = WorkflowInstance(
                ast, MockHandler({"default": {"result": {}, "delay_ms": [0, 0.2]}}, seed=seed)
            )
            runner = threading.Thread(target=instance.run)
            runner.start()
            runner.join(timeout=20)
            assert not runner.is_alive()
            assert instance.result == "finished"
            assert instance.store.current_values() == {"n": 40, "done": True}
            assert instance.log.records[-1].kind == "instance_finish"
            spans = sorted(section_spans(instance, "s"))
            assert len(spans) == 40
            assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    finally:
        sys.setswitchinterval(previous)


def test_critical_release_hands_the_section_to_a_waiting_branch():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          parallel wait: all {
            parallel_branch { critical :s { call :hold, endpoint: svc } call :after, endpoint: svc }
            parallel_branch { call :pace, endpoint: svc critical :s { call :queued, endpoint: svc } }
          }
        }
        """,
        MockHandler(
            {
                "positions": {
                    "hold": {"result": {}, "delay_ms": 50},
                    "after": {"result": {}, "delay_ms": 300},
                    "pace": {"result": {}, "delay_ms": 10},
                    "queued": {"result": {}},
                }
            }
        ),
    )
    order = [(r.kind, r.position) for r in instance.log.records if r.position]
    # the release itself wakes the waiter, not the holder's branch ending later
    assert order.index(("activity_end", "queued")) < order.index(("activity_end", "after"))


def test_critical_empty_body_emits_enter_exit_only():
    instance = run_source(
        'workflow { handler "mock" critical :s { } }', MockHandler()
    )
    signals = [r.detail.get("signal") for r in instance.log.records if r.kind == "signal"]
    assert signals == ["critical_enter", "critical_exit"]


def test_critical_reentry_same_name_is_an_error():
    instance = run_source(
        'workflow { handler "mock" critical :s { critical :s { } } }', MockHandler()
    )
    assert instance.result == "error"
    assert any(
        "re-entered" in r.detail.get("message", "")
        for r in instance.log.records
        if r.kind == "error"
    )


def test_critical_nested_different_names_is_fine():
    instance = run_source(
        'workflow { handler "mock" critical :a { critical :b { } } }', MockHandler()
    )
    assert instance.result == "finished"


# -- stop / resume -------------------------------------------------------------------


STOPPABLE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  call :one, endpoint: svc
  call :two, endpoint: svc
  manipulate :fin { done = true }
}
"""

STOP_SCRIPT = {
    "positions": {
        "one": {"result": {}, "delay_ms": 400, "token": "p-one"},
        "two": {"result": {}},
    },
    "passthroughs": {"p-one": {"result": {}}},
}


def stop_after_first_start(source, script, seed=None):
    ast = dsl.parse(source)
    handler = MockHandler(script, seed=seed)
    instance = WorkflowInstance(ast, handler)
    instance.start()
    deadline = time.monotonic() + 5
    while not starts(instance) and time.monotonic() < deadline:
        time.sleep(0.005)
    instance.deliver_stop()
    return instance, handler


def test_stop_mid_sequence_prevents_later_activities():
    instance, _ = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    assert instance.result == "stopped"
    assert instance.lifecycle.value == "stopped"
    assert not starts(instance, "two")
    ack = next(i for i, r in enumerate(instance.log.records) if r.kind == "stop_acknowledged")
    assert not [
        r for r in instance.log.records[ack + 1 :] if r.kind == "activity_start"
    ]


def test_stop_records_passthrough_of_blocked_call():
    instance, _ = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    assert instance.passthroughs == {"one": "p-one"}
    saved = instance.save()
    assert saved["passthroughs"] == {"one": "p-one"}
    assert saved["lifecycle"] == "stopped"


class RaisingStopHandler(MockHandler):
    def stop_call(self, position):
        raise RuntimeError("stop refused")


def test_raising_stop_call_is_traced_and_instance_settles():
    ast = dsl.parse(STOPPABLE)
    handler = RaisingStopHandler({"positions": {"one": {"result": {}, "delay_ms": 100}}})
    instance = WorkflowInstance(ast, handler)
    instance.start()
    deadline = time.monotonic() + 5
    while not starts(instance) and time.monotonic() < deadline:
        time.sleep(0.005)
    instance.deliver_stop()
    assert instance.result == "stopped"
    assert not starts(instance, "two")
    failed = [
        (r.branch, r.position, r.detail["message"])
        for r in instance.log.records
        if r.detail.get("signal") == "stop_call_failed"
    ]
    assert failed == [("0", "one", "RuntimeError('stop refused')")]


def test_stop_is_idempotent():
    instance, _ = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    before = len(instance.log.records)
    instance.deliver_stop()
    assert len(instance.log.records) == before


def test_resume_uses_passthrough_without_reinvoking():
    instance, handler = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    saved = instance.save()
    assert handler.invocations == {"one": 1}
    resumed = WorkflowInstance.resume(dsl.parse(STOPPABLE), handler, saved)
    assert resumed.run() == "finished"
    # the passthrough replay is not a fresh invocation
    assert handler.invocations == {"one": 1, "two": 1}
    assert resumed.store.current_values()["done"] is True


def test_resume_without_overrides_continues_exactly():
    instance, handler = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    saved = instance.save()
    resumed = WorkflowInstance.resume(dsl.parse(STOPPABLE), handler, saved)
    resumed.run()
    seq = [r.position for r in resumed.log.records if r.kind == "activity_start"]
    assert seq == ["one", "two", "fin"]


def test_resume_with_skip_region_omits_positions():
    instance, handler = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    saved = instance.save()
    resumed = WorkflowInstance.resume(
        dsl.parse(STOPPABLE), handler, saved, skip_positions={"two"}
    )
    resumed.run()
    seq = [r.position for r in resumed.log.records if r.kind == "activity_start"]
    assert seq == ["one", "fin"]


def test_resume_rejects_unknown_skip_position():
    instance, handler = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    saved = instance.save()
    with pytest.raises(EngineError, match="skip positions not in workflow"):
        WorkflowInstance.resume(
            dsl.parse(STOPPABLE), handler, saved, skip_positions={"ghost"}
        )


def test_resume_rejects_non_stopped_state():
    with pytest.raises(EngineError, match="not stopped"):
        WorkflowInstance.resume(
            dsl.parse(STOPPABLE), MockHandler(), {"lifecycle": "finished"}
        )


def test_workflow_raised_stop_ends_stopped():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint halt: "wee://stop"
          context done: false
          call :quit, endpoint: halt
          manipulate :never { done = true }
        }
        """,
        MockHandler(),
    )
    assert instance.result == "stopped"
    assert instance.lifecycle.value == "stopped"
    assert not starts(instance, "never")
    terminal = instance.log.records[-1]
    assert terminal.kind == "instance_stop"
    stop_signal = next(r for r in instance.log.records if r.detail.get("signal") == "stop")
    assert stop_signal.detail["source"] == "workflow"


# -- jumps ------------------------------------------------------------------------


def test_jump_backwards_replays_segment():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          context n: 0
          call :a, endpoint: svc
          call :b, endpoint: svc
          call :c, endpoint: svc
        }
        """,
        MockHandler(
            {
                "positions": {
                    "a": {"result": {}},
                    "b": [{"jump": "a"}, {"result": {}}],
                    "c": {"result": {}},
                }
            }
        ),
    )
    assert instance.result == "finished"
    seq = [r.position for r in instance.log.records if r.kind == "activity_start"]
    assert seq == ["a", "b", "a", "b", "c"]


def test_jump_to_own_position_repeats_once():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          call :a, endpoint: svc
        }
        """,
        MockHandler({"positions": {"a": [{"jump": "a"}, {"result": {}}]}}),
    )
    seq = [r.position for r in instance.log.records if r.kind == "activity_start"]
    assert seq == ["a", "a"]


def test_jump_into_sibling_parallel_branch_is_illegal():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          parallel wait: all {
            parallel_branch { call :p, endpoint: svc }
            parallel_branch { call :q, endpoint: svc }
          }
        }
        """,
        MockHandler(
            {
                "positions": {
                    "p": {"jump": "q", "delay_ms": 5},
                    "q": {"result": {}, "delay_ms": 30},
                }
            }
        ),
    )
    assert instance.result == "error"
    assert any(
        "illegal jump" in r.detail.get("message", "")
        for r in instance.log.records
        if r.kind == "error"
    )


def test_jump_to_unknown_position_is_illegal():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          call :a, endpoint: svc
        }
        """,
        MockHandler({"positions": {"a": {"jump": "ghost"}}}),
    )
    assert instance.result == "error"


# -- determinism --------------------------------------------------------------------


def canonical_trace(instance):
    return json.dumps([r.to_json() for r in instance.log.records], sort_keys=True)


def test_sequential_workflow_trace_is_byte_identical_across_runs():
    source = """
    workflow {
      handler "mock"
      endpoint svc: "mock://svc"
      context i: 0
      cycle (i < 2) { manipulate :inc { i = i + 1 } }
      call :done, endpoint: svc
    }
    """
    traces = set()
    for _ in range(5):
        instance = run_source(
            source,
            MockHandler({"default": {"result": {}}}),
            clock=FixedClock(),
            instance_id="fixed",
        )
        traces.add(canonical_trace(instance))
    assert len(traces) == 1


def test_terminal_record_is_unique_and_last():
    for source, handler in [
        (PARALLEL_TWO, MockHandler({"default": {"result": {}}})),
        (STOPPABLE, MockHandler({"default": {"result": {}}})),
    ]:
        instance = run_source(source, handler)
        terminal = [
            r for r in instance.log.records if r.kind in ("instance_finish", "instance_stop")
        ]
        assert len(terminal) == 1
        assert instance.log.records[-1] is terminal[0]


# -- mid-parallel stop/resume --------------------------------------------------------


MID_PARALLEL = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: all {
    parallel_branch { call :quick, endpoint: svc }
    parallel_branch {
      call :slow, endpoint: svc
      manipulate :slow_tail { done = done || false }
    }
  }
  manipulate :fin { done = true }
}
"""

MID_PARALLEL_SCRIPT = {
    "positions": {
        "quick": {"result": {}, "delay_ms": 1},
        "slow": {"result": {}, "delay_ms": 400, "token": "p-slow"},
    },
    "passthroughs": {"p-slow": {"result": {}}},
}


def test_stop_inside_parallel_saves_arrivals_and_live_branches():
    ast = dsl.parse(MID_PARALLEL)
    handler = MockHandler(MID_PARALLEL_SCRIPT)
    instance = WorkflowInstance(ast, handler)
    instance.start()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        arrived = [r for r in instance.log.records if r.detail.get("role") == "arrive"]
        if arrived:
            break
        time.sleep(0.005)
    instance.deliver_stop()
    assert instance.result == "stopped"
    saved = instance.save()

    by_id = {entry["id"]: entry["path"] for entry in saved["branches"]}
    assert by_id["0"] == [0]  # parent parked at the parallel itself
    completed = [path for path in by_id.values() if path and path[-1] == -1]
    assert len(completed) == 1  # the quick branch already arrived
    live = [p for bid, p in by_id.items() if bid != "0" and (not p or p[-1] != -1)]
    assert len(live) == 1
    assert saved["passthroughs"] == {"slow": "p-slow"}


def test_resume_mid_parallel_completes_join():
    ast = dsl.parse(MID_PARALLEL)
    handler = MockHandler(MID_PARALLEL_SCRIPT)
    instance = WorkflowInstance(ast, handler)
    instance.start()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if [r for r in instance.log.records if r.detail.get("role") == "arrive"]:
            break
        time.sleep(0.005)
    instance.deliver_stop()
    saved = instance.save()

    fresh = MockHandler(MID_PARALLEL_SCRIPT)
    resumed = WorkflowInstance.resume(ast, fresh, saved)
    assert resumed.run() == "finished"
    # the already-arrived child is not re-executed; the live one replays its
    # stored passthrough instead of calling out again
    assert fresh.invocations == {}
    fire = next(r for r in resumed.log.records if r.detail.get("role") == "fire")
    assert fire.detail["arrived"] == 2
    seq = [r.position for r in resumed.log.records if r.kind == "activity_start"]
    assert seq == ["slow", "slow_tail", "fin"]


def test_jump_into_unentered_parallel_is_illegal():
    instance = run_source(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          call :entry, endpoint: svc
          parallel wait: all {
            parallel_branch { call :inner, endpoint: svc }
          }
        }
        """,
        MockHandler(
            {"positions": {"entry": {"jump": "inner"}, "inner": {"result": {}}}}
        ),
    )
    assert instance.result == "error"
    assert any(
        "illegal jump" in r.detail.get("message", "")
        for r in instance.log.records
        if r.kind == "error"
    )


def test_independent_instances_run_concurrently():
    source = """
    workflow {
      handler "mock"
      endpoint svc: "mock://svc"
      context n: 0
      parallel wait: all {
        parallel_branch { call :left, endpoint: svc }
        parallel_branch { call :right, endpoint: svc }
      }
      manipulate :sum { n = n + 7 }
    }
    """
    ast = dsl.parse(source)
    instances = [
        WorkflowInstance(
            ast, MockHandler({"default": {"result": {}, "delay_ms": [0, 3]}}, seed=i)
        )
        for i in range(8)
    ]
    for instance in instances:
        instance.start()
    for instance in instances:
        assert instance.wait() == "finished"
        assert instance.store.current_values()["n"] == 7
        terminal = [r for r in instance.log.records if r.kind == "instance_finish"]
        assert len(terminal) == 1
    assert len({i.instance_id for i in instances}) == 8


def test_instance_state_snapshot_shape():
    ast = dsl.parse(STOPPABLE)
    handler = MockHandler(STOP_SCRIPT)
    instance = WorkflowInstance(ast, handler)
    instance.start()
    deadline = time.monotonic() + 5
    while not starts(instance) and time.monotonic() < deadline:
        time.sleep(0.005)
    instance.deliver_stop()
    state = instance.state()
    assert state.lifecycle == "stopped"
    assert state.context == {"done": False}
    assert state.passthroughs == {"one": "p-one"}
    assert "0" in state.branches
