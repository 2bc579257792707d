from __future__ import annotations

import errno
import gc
import hashlib
import json
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import Answers, call_tokens, finish, run_source, starts, wait_until
from wee import dsl, engine
from wee.context import ContextError
from wee.engine import EngineError, RunOptions, WorkflowInstance
from wee.events import FixedClock, read_jsonl
from wee.handlers import HandlerWrapper, MockHandler, Passthrough, Result, TriggerHandler

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


def test_booking_over_limit_runs_inform_once():
    ast = load_booking()
    handler = MockHandler(json.loads((FIXTURES / "booking_over.json").read_text()))
    instance = WorkflowInstance(ast, handler)
    assert instance.run() == "finished"
    inform = [r for r in instance.log.records if r.position == "inform"]
    assert sum(1 for r in inform if r.kind == "activity_start") == 1
    assert instance.store.current_values()["price"] == 12000


def test_booking_under_limit_never_informs():
    ast = load_booking()
    handler = MockHandler(json.loads((FIXTURES / "booking_under.json").read_text()))
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
    assert not starts(instance, "b")
    errors = [r for r in instance.log.records if r.kind == "error"]
    assert errors and "boom" in errors[0].detail["message"]
    assert instance.errors == [r.detail["message"] for r in errors]


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


ONE_STEP = 'workflow { handler "mock" context x: 0 manipulate :a { x = x + 1 } }'


def test_an_instance_nobody_waits_on_ends_itself_and_closes_its_trace(tmp_path):
    log = tmp_path / "run.jsonl"
    instance = WorkflowInstance(dsl.parse(ONE_STEP), MockHandler(), RunOptions(log_path=str(log)))
    instance.start()
    # the last branch to leave writes the terminal record and closes the file
    assert wait_until(lambda: instance.log._fh is None, timeout=2.0)
    assert instance.result == "finished"
    assert json.loads(log.read_text().splitlines()[-1])["kind"] == "instance_finish"


def test_a_refused_initial_context_leaves_the_trace_file_as_it_was(tmp_path):
    log = tmp_path / "run.jsonl"
    log.write_bytes(b"precious\n")
    with pytest.raises(ContextError, match="undeclared initial context"):
        WorkflowInstance(
            dsl.parse(ONE_STEP),
            MockHandler(),
            RunOptions(log_path=str(log)),
            initial_context={"ghost": 1},
        )
    assert log.read_bytes() == b"precious\n"


def test_a_stop_after_the_last_branch_has_left_is_ignored():
    instance = WorkflowInstance(dsl.parse(ONE_STEP), MockHandler()).start()
    assert wait_until(lambda: not instance.branches, timeout=5.0)
    instance.request_stop()
    assert instance.wait() == "finished"
    assert [r.kind for r in instance.log.records] == [
        "instance_start",
        "activity_start",
        "context_change",
        "activity_end",
        "instance_finish",
    ]


def test_wait_on_an_instance_never_started_raises():
    instance = WorkflowInstance(dsl.parse(ONE_STEP), MockHandler())
    with pytest.raises(EngineError, match="not started"):
        instance.wait()


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


class FailingFile:
    """A trace file whose nth write raises, as a full disk or a closed pipe does."""

    def __init__(self, raw, fail_at: int):
        self._raw = raw
        self._fail_at = fail_at
        self.writes = 0
        self.closed = False

    def write(self, data: bytes) -> int:
        self.writes += 1
        if self.writes == self._fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._raw.write(data)

    def close(self) -> None:
        self.closed = True
        self._raw.close()


TWO_STEPS = """
workflow {
  handler "mock"
  context x: 0
  manipulate :a { x = x + 1 }
  manipulate :b { x = x + 1 }
}
"""
WRITE_FAILED = "trace write failed: [Errno 28] No space left on device"


def run_failing_trace(tmp_path, monkeypatch, source: str, fail_at: int):
    """Run source with a trace file whose fail_at-th write raises; the
    instance and its file, once it has ended."""
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    log = tmp_path / "run.jsonl"
    instance = WorkflowInstance(
        dsl.parse(source), MockHandler({"default": {"result": {}}}), RunOptions(log_path=str(log))
    )
    failing = instance.log._fh = FailingFile(instance.log._fh, fail_at)
    finish(instance)
    assert not hooked  # no branch thread died of the failure
    return instance, failing, log


@pytest.mark.parametrize("source", [TWO_STEPS, PARALLEL_TWO], ids=["one-branch", "fork-join"])
def test_a_trace_write_that_fails_ends_the_instance_in_error(tmp_path, monkeypatch, source):
    instance, failing, log = run_failing_trace(tmp_path, monkeypatch, source, fail_at=3)
    assert instance.result == "error"
    assert instance.errors == [WRITE_FAILED]
    assert failing.closed and instance.log._fh is None
    assert instance.log.write_error is not None
    # the file holds the lines written before the failure; memory holds all
    records = instance.log.records
    assert log.read_text().splitlines() == [
        json.dumps(r.to_json(), sort_keys=True) for r in records[:2]
    ]
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert records[-1].kind == "instance_stop"
    assert records[-1].detail == {"error": WRITE_FAILED}


@pytest.mark.parametrize("source", [TWO_STEPS, PARALLEL_TWO], ids=["one-branch", "fork-join"])
def test_a_failed_write_of_any_record_ends_the_instance_in_error(tmp_path, monkeypatch, source):
    """The write of each record in turn fails, the terminal record's too;
    a file that never fails ends the run finished."""
    clean = run_source(source, MockHandler({"default": {"result": {}}}))
    total = len(clean.log.records)
    for fail_at in range(1, total + 2):
        directory = tmp_path / str(fail_at)
        directory.mkdir()
        instance, failing, _ = run_failing_trace(directory, monkeypatch, source, fail_at)
        if fail_at > total:
            assert instance.result == "finished" and not instance.errors
            assert instance.log.write_error is None
        else:
            assert instance.result == "error", fail_at
            assert instance.errors == [WRITE_FAILED]  # reported once, by one branch
        assert failing.closed


THREE_WRITERS = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context x: 0
  parallel wait: all {
    parallel_branch { call :a, endpoint: svc manipulate :a2 { x = x + 1 } }
    parallel_branch { call :b, endpoint: svc manipulate :b2 { x = x + 1 } }
    parallel_branch { call :c, endpoint: svc manipulate :c2 { x = x + 1 } }
  }
}
"""


def test_a_failed_write_is_reported_once_under_a_short_switch_interval(tmp_path, monkeypatch):
    """Branches that reach their next node boundary together after a failed
    write report it once between them."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for fail_at in range(5, 11):
            for run in range(10):
                directory = tmp_path / f"{fail_at}-{run}"
                directory.mkdir()
                instance, _, _ = run_failing_trace(directory, monkeypatch, THREE_WRITERS, fail_at)
                assert instance.result == "error"
                assert instance.errors == [WRITE_FAILED]
    finally:
        sys.setswitchinterval(previous)


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


def contended(n):
    bodies = " ".join(
        f"parallel_branch {{ critical :s {{ call :c{b}, endpoint: svc }} }}" for b in range(n)
    )
    return f"""
    workflow {{
      handler "mock"
      endpoint svc: "mock://svc"
      parallel wait: all {{ {bodies} }}
    }}
    """


@pytest.mark.parametrize("virtual", [False, True], ids=["real-time", "virtual-time"])
def test_a_section_exit_wakes_one_waiter_not_every_blocked_branch(monkeypatch, virtual):
    # 64 branches queue for one section: a wake-up for every blocked branch
    # at every exit makes about n*n/2 blocks, one per waiter makes n
    n = 64
    blocks = []
    block = WorkflowInstance._block

    def counting(self, branch, on, timeout=None):
        if on == "s":  # the calls' token waits block too
            blocks.append(branch.id)
        block(self, branch, on, timeout)

    monkeypatch.setattr(WorkflowInstance, "_block", counting)
    handler = MockHandler({"default": {"result": {}, "delay_ms": 1}})
    instance = WorkflowInstance(dsl.parse(contended(n)), handler, RunOptions(virtual_time=virtual))
    assert finish(instance, timeout=20) == "finished"
    # a waiter re-blocks only when a branch that had not queued yet barged in
    assert len(blocks) <= (n if virtual else 3 * n), len(blocks)
    spans = sorted(section_spans(instance, "s"))
    assert len(spans) == n
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))


PASS_ON = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: all {
    parallel_branch {
      parallel wait: 1 {
        parallel_branch { critical :s { call :hold, endpoint: svc } }
        parallel_branch { call :pace_a, endpoint: svc critical :s { call :a, endpoint: svc } }
      }
    }
    parallel_branch { call :pace_b, endpoint: svc critical :s { call :b, endpoint: svc } }
  }
}
"""


@pytest.mark.parametrize("virtual", [False, True], ids=["real-time", "virtual-time"])
def test_a_waiter_cancelled_after_an_exit_woke_it_passes_the_section_on(virtual):
    # 0.1.1's exit wakes 0.1.2, the earliest-forked waiter; then 0.1.1's
    # arrival fires the wait: 1 join, which cancels 0.1.2. The section is
    # free, and 0.2, still blocked on it, runs only if 0.1.2 passes the wake on
    script = {
        "positions": {
            "hold": {"result": {}, "delay_ms": 50},
            "pace_a": {"result": {}, "delay_ms": 5},
            "pace_b": {"result": {}, "delay_ms": 10},
        },
        "default": {"result": {}},
    }
    options = RunOptions(virtual_time=virtual)
    instance = WorkflowInstance(dsl.parse(PASS_ON), MockHandler(script), options)
    assert finish(instance) == "finished"
    assert len(starts(instance, "b")) == 1
    if virtual:  # on real threads 0.1.2 may take the section before its cancel
        assert not starts(instance, "a")
    spans = sorted(section_spans(instance, "s"))
    assert all(x[1] < y[0] for x, y in zip(spans, spans[1:]))


HELD_SECTION = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: all {
    parallel_branch { critical :s { call :hold, endpoint: svc } }
    parallel_branch { call :pace, endpoint: svc critical :s { call :queued, endpoint: svc } }
  }
  manipulate :fin { done = true }
}
"""


@pytest.mark.parametrize("virtual", [False, True], ids=["real-time", "virtual-time"])
def test_a_stop_parks_a_branch_blocked_on_a_section_and_its_parent_blocked_on_the_join(
    virtual,
):
    script = {
        "positions": {
            "hold": {"result": {}, "delay_ms": 60_000, "token": "p-hold"},
            "pace": {"result": {}, "delay_ms": 5},
        },
        "default": {"result": {}},
        "passthroughs": {"p-hold": {"result": {}}},
    }
    ast = dsl.parse(HELD_SECTION)
    handler = MockHandler(script)
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=virtual))
    blocked, tokens = {}, {}

    def stop_once_blocked():
        blocked.update({b.id: b.waits_on for b in instance.branches.values()})
        tokens.update({b.id: b.in_flight.stop for b in instance.branches.values() if b.in_flight})
        instance.request_stop()

    if virtual:
        instance.call_later(1.0, stop_once_blocked)
        instance.start()
    else:
        instance.start()
        waits_on = lambda b: getattr(instance.branches.get(b), "waits_on", None)
        assert wait_until(lambda: waits_on("0.2") == "s" and waits_on("0.1") and waits_on("0"))
        stop_once_blocked()
    waiter = threading.Thread(target=instance.wait, daemon=True)
    waiter.start()
    waiter.join(5)
    assert not waiter.is_alive(), "a branch blocked when the stop came was never woken"

    # the root waited on its join, 0.2 on the section 0.1 held in a call,
    # and 0.1 on its call's stop token
    assert isinstance(blocked.pop("0"), engine._JoinGroup)
    assert blocked.pop("0.1") is tokens["0.1"]
    assert blocked == {"0.2": "s"}
    assert instance.result == "stopped"
    records = instance.log.records
    ack = next(i for i, r in enumerate(records) if r.kind == "stop_acknowledged")
    assert not [r for r in records[ack + 1 :] if r.kind == "activity_start"]
    saved = json.loads(json.dumps(instance.save()))
    assert [entry["id"] for entry in saved["branches"]] == ["0", "0.1", "0.2"]
    assert call_tokens(ast, saved) == {"0.1/hold": "p-hold"}

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=virtual))
    assert finish(resumed) == "finished"
    assert handler.invocations == {"hold": 1, "pace": 1, "queued": 1}
    assert resumed.store.current_values() == {"done": True}


# -- a call's wait on its stop token blocks its branch like a join or a section ----


def checking_blocks(monkeypatch) -> list:
    """Patch _block to note each return that left the branch still marked
    blocked: a wait that returned early, or a timed-out one that kept its mark."""
    early = []
    block = WorkflowInstance._block

    def checked(self, branch, on, timeout=None):
        block(self, branch, on, timeout)
        if branch.waits_on is not None:
            early.append((branch.id, on))

    monkeypatch.setattr(WorkflowInstance, "_block", checked)
    return early


class RacingWakes(HandlerWrapper):
    """Each call waits on its token for up to 100 us while a thread of its
    own sets the token, wakes it or does nothing after up to 100 us: the
    set or wake may come before the wait, during it, as it times out, or
    after the call has returned and its branch blocks elsewhere."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.racers: list[threading.Thread] = []

    def call(self, call):
        with self._lock:
            timeout, delay = self._rng.uniform(0, 1e-4), self._rng.uniform(0, 1e-4)
            action = self._rng.choice(["set", "wake", None])
            if action is not None:
                racer = threading.Timer(delay, getattr(call.stop, action))
                self.racers.append(racer)
                racer.start()
        call.stop.wait(timeout)
        return Result({})


def test_token_waits_race_their_timeouts_and_wakes_under_a_short_switch_interval(monkeypatch):
    # every branch waits on its tokens, then on a section and on a join of
    # its own, while the late sets and wakes of its calls' tokens land
    bodies = " ".join(
        "parallel_branch { "
        + " ".join(
            f"call :w{b}_{k}, endpoint: svc critical :s {{ call :c{b}_{k}, endpoint: svc }} "
            f"parallel wait: all {{ parallel_branch {{ call :j{b}_{k}, endpoint: svc }} }}"
            for k in range(4)
        )
        + " }"
        for b in range(6)
    )
    source = f"""
    workflow {{
      handler "mock"
      endpoint svc: "mock://svc"
      parallel wait: all {{ {bodies} }}
    }}
    """
    ast = dsl.parse(source)
    early = checking_blocks(monkeypatch)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(5):
            handler = RacingWakes(seed)
            instance = WorkflowInstance(ast, handler)
            assert finish(instance, timeout=20) == "finished"
            for racer in handler.racers:
                racer.join(5)
                assert not racer.is_alive()
            assert len(starts(instance)) == 6 * 4 * 3
            assert early == []
    finally:
        sys.setswitchinterval(previous)


LATE_WAKE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  call :first, endpoint: svc
  parallel wait: all { parallel_branch { call :held, endpoint: svc } }
}
"""


class KeepsTokens(HandlerWrapper):
    """Keeps each call's token; the call at held waits until its token is
    woken, and the one at quick waits 50 ms."""

    def __init__(self):
        self.tokens = {}

    def call(self, call):
        self.tokens[call.position] = call.stop
        if call.position == "held":
            call.stop.wait()
        elif call.position == "quick":
            call.stop.wait(0.05)
        return Result({})


@pytest.mark.parametrize("virtual", [False, True], ids=["real-time", "virtual-time"])
def test_a_wake_reaching_a_call_that_has_returned_leaves_its_branch_blocked_on_its_join(
    monkeypatch, virtual
):
    early = checking_blocks(monkeypatch)
    handler = KeepsTokens()
    instance = WorkflowInstance(dsl.parse(LATE_WAKE), handler, RunOptions(virtual_time=virtual))
    instance.start()
    root = instance._root
    held = lambda: getattr(instance.branches.get("0.1"), "waits_on", None)
    assert wait_until(lambda: isinstance(root.waits_on, engine._JoinGroup) and held())
    assert held() is handler.tokens["held"]

    group = root.waits_on
    handler.tokens["first"].wake()
    handler.tokens["first"].set()
    assert root.waits_on is group  # a wake would have cleared it before returning
    handler.tokens["held"].wake()
    waiter = threading.Thread(target=instance.wait, daemon=True)
    waiter.start()
    waiter.join(5)
    assert not waiter.is_alive()
    assert instance.result == "finished"
    assert early == []


FIRE_DURING_A_CALL = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: 1 {
    parallel_branch { call :quick, endpoint: svc }
    call :held, endpoint: svc
  }
}
"""


@pytest.mark.parametrize("virtual", [False, True], ids=["real-time", "virtual-time"])
def test_a_join_that_fires_while_its_parent_waits_in_a_call_leaves_the_call_waiting(virtual):
    handler = KeepsTokens()
    options = RunOptions(virtual_time=virtual)
    instance = WorkflowInstance(dsl.parse(FIRE_DURING_A_CALL), handler, options)
    instance.start()
    fired = lambda: any(r.detail.get("role") == "fire" for r in instance.log.records)
    assert wait_until(lambda: fired() and "held" in handler.tokens)
    # the fire wakes its parent from the join only, not from the call's wait
    assert instance._root.waits_on is handler.tokens["held"]
    handler.tokens["held"].wake()
    waiter = threading.Thread(target=instance.wait, daemon=True)
    waiter.start()
    waiter.join(5)
    assert not waiter.is_alive()
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
    assert not starts(instance, "two")
    ack = next(i for i, r in enumerate(instance.log.records) if r.kind == "stop_acknowledged")
    assert not [
        r for r in instance.log.records[ack + 1 :] if r.kind == "activity_start"
    ]


def test_stop_records_passthrough_of_blocked_call():
    instance, _ = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    saved = instance.save()
    # the call's token sits in the entry of the branch parked at the call
    assert saved == {
        "schema": 6,
        "workflow": hashlib.sha256(STOPPABLE.encode()).hexdigest(),
        "instance": instance.instance_id,
        "seq": instance.log.records[-1].seq,
        "branches": [{"id": "0", "path": [0], "token": "p-one"}],
        "context": {"done": False},
        "version": 0,
    }
    assert json.loads(json.dumps(saved)) == saved
    # the terminal record carries the same state
    assert instance.log.records[-1].detail == {"source": "controller", "saved": saved}


class EntersAfterStopHandler(MockHandler):
    """Enters the scripted call only once request_stop() has returned."""

    def __init__(self, script):
        super().__init__(script)
        self.entered = threading.Event()
        self.stop_returned = threading.Event()

    def call(self, call):
        self.entered.set()
        self.stop_returned.wait(5)
        return super().call(call)


def test_stop_before_the_handler_looks_still_interrupts_the_call():
    # the call is in flight when the stop lands, but the handler has not yet
    # looked at it: the stop must still cut the 2000 ms delay short
    handler = EntersAfterStopHandler(
        {"positions": {"one": {"result": {}, "delay_ms": 2000, "token": "p-one"}}}
    )
    instance = WorkflowInstance(dsl.parse(STOPPABLE), handler).start()
    assert handler.entered.wait(5)
    instance.request_stop()
    handler.stop_returned.set()
    started = time.monotonic()
    assert instance.wait() == "stopped"
    assert time.monotonic() - started < 1.0
    assert call_tokens(instance.ast, instance.save()) == {"0/one": "p-one"}


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


def test_resume_leaves_the_callers_run_options_untouched():
    instance, handler = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    options = RunOptions()
    resumed = WorkflowInstance.resume(
        dsl.parse(STOPPABLE), handler, instance.save(), options, skip_positions={"two"}
    )
    resumed.run()
    assert not starts(resumed, "two")
    # a fresh instance with the same options skips nothing
    handler = MockHandler({"default": {"result": {}}})
    fresh = WorkflowInstance(dsl.parse(STOPPABLE), handler, options)
    assert fresh.run() == "finished"
    assert starts(fresh, "two")


def test_resume_rejects_unknown_skip_position():
    instance, handler = stop_after_first_start(STOPPABLE, STOP_SCRIPT)
    saved = instance.save()
    with pytest.raises(EngineError, match="skip positions not in workflow"):
        WorkflowInstance.resume(
            dsl.parse(STOPPABLE), handler, saved, skip_positions={"ghost"}
        )


def test_resume_rejects_non_stopped_state():
    finished = run_source(ONE_STEP, MockHandler())
    with pytest.raises(EngineError, match="only stopped instances can be saved"):
        finished.save()
    # the state an older wee saved of a finished instance
    with pytest.raises(EngineError, match="^saved state has schema None, expected 6$"):
        WorkflowInstance.resume(
            dsl.parse(STOPPABLE), MockHandler(), {"lifecycle": "finished"}
        )


ERRS_AFTER_A_CALL = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context x: 0
  call :a, endpoint: svc
  manipulate :boom { x = 1 / x }
}
"""


def test_an_errored_instance_is_not_saved_and_a_state_with_no_root_is_refused(tmp_path):
    ast = dsl.parse(ERRS_AFTER_A_CALL)
    handler = MockHandler({"default": {"result": {}}})  # shared: counts every invocation
    instance = run_source(ERRS_AFTER_A_CALL, handler)
    assert instance.result == "error"
    with pytest.raises(EngineError, match="^only stopped instances can be saved$"):
        instance.save()
    assert "saved" not in instance.log.records[-1].detail
    # the state save() gave before: resuming it would run the workflow again
    state = {
        "schema": 6,
        "workflow": ast.source_hash,
        "instance": instance.instance_id,
        "seq": instance.log.records[-1].seq,
        "branches": [],
        "context": {"x": 0},
        "version": 0,
    }
    log = tmp_path / "resumed.jsonl"
    with pytest.raises(EngineError, match="^corrupt saved state: no root branch$"):
        WorkflowInstance.resume(ast, handler, state, RunOptions(log_path=str(log)))
    assert not log.exists()
    assert handler.invocations == {"a": 1}


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


def test_a_jump_out_of_a_parallel_body_cancels_the_children_it_forked():
    source = """
    workflow {
      handler "mock"
      endpoint svc: "mock://svc"
      context done: false
      parallel wait: all {
        parallel_branch { call :child, endpoint: svc }
        call :leave, endpoint: svc
      }
      manipulate :skipped { done = false }
      manipulate :after { done = true }
    }
    """
    script = {
        "positions": {
            "child": {"result": {}, "delay_ms": 300},
            "leave": {"jump": "after"},
        }
    }
    started = time.perf_counter()
    instance = run_source(source, MockHandler(script))
    # the child's 300 ms call does not hold the instance open
    assert time.perf_counter() - started < 0.15
    assert instance.result == "finished"
    records = instance.log.records
    cancelled = [r.branch for r in records if r.detail.get("signal") == "no_longer_necessary"]
    assert cancelled == ["0.1"]
    after = next(i for i, r in enumerate(records) if r.position == "after")
    assert not [
        r for r in records[after:] if r.kind == "branch_join" and r.detail["role"] == "arrive"
    ]
    assert not starts(instance, "skipped")
    assert instance.branches == {} and instance._saved_paths == {}


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
    assert call_tokens(ast, saved) == {"0.2/slow": "p-slow"}


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


FORKING_CYCLE = """
workflow {
  handler "mock"
  context i: 0
  context n: 0
  cycle (i < n) {
    parallel wait: all {
      parallel_branch { }
      parallel_branch { }
    }
    manipulate :bump { i = i + 1 }
  }
}
"""

# each pass cancels a loser while it is still spawning: its first child has
# forked (and ends at once), and its call runs until the cancel stops it
CANCELLED_WHILE_SPAWNING_CYCLE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  context n: 0
  cycle (i < n) {
    parallel wait: 1 {
      parallel_branch {
        parallel wait: all {
          parallel_branch { }
          call :spawning, endpoint: svc
        }
      }
      parallel_branch { call :fast, endpoint: svc }
    }
    manipulate :bump { i = i + 1 }
  }
}
"""

FORKING_CYCLES = {
    "joined": (FORKING_CYCLE, {"default": {"result": {}}}),
    "cancelled_while_spawning": (
        CANCELLED_WHILE_SPAWNING_CYCLE,
        {"default": {"result": {}}, "positions": {"spawning": {"result": {}, "delay_ms": 60_000}}},
    ),
}


def test_a_long_forking_cycle_retains_no_finished_branches_or_joins():
    def retained_after(ast, script, passes):
        tracemalloc.start()
        try:
            instance = WorkflowInstance(ast, MockHandler(script), initial_context={"n": passes})
            assert instance.run() == "finished"
            instance.log.records.clear()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert instance.branches == {}
        return retained

    for shape, (source, script) in FORKING_CYCLES.items():
        ast = dsl.parse(source)
        short, long = retained_after(ast, script, 200), retained_after(ast, script, 2000)
        assert long - short < 100_000, (shape, short, long)


# a k-join whose loser may be cancelled anywhere: before or while it forks,
# in its call, or waiting on its own joins, one or two levels down
CANCEL_RACE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  cycle (i < 30) {
    manipulate :bump { i = i + 1 }
    parallel wait: 1 {
      parallel_branch { call :a, endpoint: svc }
      parallel_branch {
        parallel wait: 1 {
          parallel_branch { call :b, endpoint: svc }
          call :c, endpoint: svc
          parallel_branch {
            parallel wait: all {
              parallel_branch { call :d, endpoint: svc }
              call :e, endpoint: svc
            }
          }
        }
      }
    }
  }
}
"""


def test_racing_cancels_take_down_whole_subtrees_and_close_every_join():
    ast = dsl.parse(CANCEL_RACE)
    # :a wins some passes and loses others, so every call is stopped in some
    script = {
        "default": {"result": {}, "delay_ms": [0, 0.3]},
        "positions": {"a": {"result": {}, "delay_ms": [0, 3]}},
    }
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(10):
            instance = WorkflowInstance(ast, MockHandler(script, seed=seed))
            runner = threading.Thread(target=instance.run)
            runner.start()
            runner.join(timeout=20)
            assert not runner.is_alive()
            assert instance.result == "finished"
            assert instance.branches == {} and instance._saved_paths == {}
            cancelled, arrived = set(), set()
            for r in instance.log.records:
                if r.detail.get("signal") == "no_longer_necessary":
                    cancelled.add(r.branch)
                elif r.kind == "branch_join" and r.detail["role"] == "arrive":
                    # nobody waits on the join of a cancelled parent
                    assert r.detail["parent"] not in cancelled, (seed, r.branch)
                    arrived.add(r.branch)
            forked = {r.detail["child"] for r in instance.log.records if r.kind == "branch_fork"}
            assert forked == arrived | cancelled and not arrived & cancelled, seed
    finally:
        sys.setswitchinterval(previous)


# -- branch threads -------------------------------------------------------------


def wide_join(width: int) -> str:
    return f"""
workflow {{
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  parallel wait: all {{
    cycle (i < {width}) {{
      manipulate :bump {{ i = i + 1 }}
      parallel_branch {{ call :work, endpoint: svc }}
    }}
  }}
}}
"""


def test_a_finished_instance_is_garbage_once_its_threads_are_idle():
    instance = run_source(wide_join(4), MockHandler({"default": {"result": {}}}))
    assert instance.result == "finished"
    ref = weakref.ref(instance)
    del instance

    def collected():
        gc.collect()
        return ref() is None

    # wait() returns before the last thread is idle; idle, it holds nothing
    # (the threads keep waiting far longer than this)
    assert wait_until(collected, timeout=1.0)


def test_a_burst_of_branches_leaves_at_most_the_cap_idle():
    with engine._idle_lock:
        idle_before = len(engine._idle)
    others = threading.active_count() - idle_before
    # every branch is in its call at once, so the burst needs 40 threads
    instance = run_source(wide_join(40), MockHandler({"default": {"result": {}, "delay_ms": 50}}))
    assert instance.result == "finished"
    # well before the keep-alive runs out, only the cap's worth still wait
    assert wait_until(lambda: threading.active_count() <= others + engine._IDLE_CAP, timeout=1.0)
    assert len(engine._idle) <= engine._IDLE_CAP


def test_branch_threads_exit_once_the_keep_alive_runs_out(monkeypatch):
    from wee.patterns.harness import run_all

    monkeypatch.setattr(engine, "_IDLE_KEEPALIVE_S", 0.05)
    baseline = threading.active_count()
    assert run_all().all_passed
    # threads idle since earlier tests were counted in the baseline
    assert wait_until(lambda: threading.active_count() <= baseline, timeout=5.0), (
        threading.enumerate()
    )


def test_a_stop_racing_the_last_branch_leaves_no_record_after_the_terminal_one():
    ast = dsl.parse(wide_join(3))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(150):
            instance = WorkflowInstance(ast, MockHandler({"default": {"result": {}}}))
            stopper = threading.Thread(target=instance.request_stop)
            instance.start()
            stopper.start()
            result = instance.wait()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            records = instance.log.records
            terminal = "instance_finish" if result == "finished" else "instance_stop"
            assert [r.kind for r in records].index(terminal) == len(records) - 1
            assert [r.seq for r in records] == list(range(1, len(records) + 1))
    finally:
        sys.setswitchinterval(previous)


def test_a_warm_corpus_pass_starts_no_thread_outside_the_branch_thread_cache(monkeypatch):
    from wee.patterns.harness import run_all

    assert run_all().all_passed
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert run_all().all_passed
    others = [
        t.name
        for t in started
        if not isinstance(getattr(t._target, "__self__", None), engine._BranchThread)
    ]
    assert others == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_does_not_wait_for_its_parents_idle_threads():
    source = wide_join(2)
    run_source(source, MockHandler({"default": {"result": {}}}))
    assert wait_until(lambda: len(engine._idle) > 0, timeout=1.0)
    pid = os.fork()
    if pid == 0:  # the child has none of the parent's threads
        try:
            instance = run_source(source, MockHandler({"default": {"result": {}}}))
            os._exit(0 if instance.result == "finished" else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child hung handing a branch to a thread it does not have")


class BarrierHandler(MockHandler):
    """Each call returns only once `parties` calls are in flight at once."""

    def __init__(self, parties: int):
        super().__init__({"default": {"result": {}}})
        self.barrier = threading.Barrier(parties, timeout=5)

    def call(self, call):
        self.barrier.wait()
        return super().call(call)


def test_a_join_wider_than_the_idle_cap_gets_a_thread_per_branch():
    width = engine._IDLE_CAP + 8
    instance = run_source(wide_join(width), BarrierHandler(width))
    # a branch left without a thread would break the barrier: a failed call
    assert instance.result == "finished"
    arrivals = [r for r in instance.log.records if r.detail.get("role") == "arrive"]
    assert len(arrivals) == width


# four short branches, two of them racing in a wait: 1 one level down
MANY_PARENTS = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  parallel wait: all {
    parallel_branch { call :a, endpoint: svc }
    parallel_branch {
      parallel wait: 1 {
        parallel_branch { call :b, endpoint: svc }
        parallel_branch { call :c, endpoint: svc }
      }
    }
    parallel_branch { call :d, endpoint: svc }
  }
}
"""


class CountingHandler(MockHandler):
    def __init__(self, script, seed):
        super().__init__(script, seed=seed)
        self.calls: dict[str, int] = {}
        self._count_lock = threading.Lock()

    def call(self, call):
        with self._count_lock:
            self.calls[call.call_id] = self.calls.get(call.call_id, 0) + 1
        return super().call(call)


def test_many_parents_forking_at_once_run_every_branch_exactly_once():
    ast = dsl.parse(MANY_PARENTS)
    # calls of at most 0.2 ms, so threads go idle and are handed on while
    # other parents are still forking
    script = {"default": {"result": {}, "delay_ms": [0, 0.2]}}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(20):
            instances = [
                WorkflowInstance(ast, CountingHandler(script, seed * 10 + i)) for i in range(6)
            ]
            runners = [
                threading.Thread(target=instance.run, daemon=True) for instance in instances
            ]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=20)
                assert not runner.is_alive()
            for instance in instances:
                assert instance.result == "finished"
                records = instance.log.records
                forked = {r.detail["child"] for r in records if r.kind == "branch_fork"}
                arrived = {
                    r.branch
                    for r in records
                    if r.kind == "branch_join" and r.detail["role"] == "arrive"
                }
                cancelled = {
                    r.branch for r in records if r.detail.get("signal") == "no_longer_necessary"
                }
                assert forked == arrived | cancelled and not arrived & cancelled, seed
                # no branch ran twice; every branch that arrived made its call
                assert set(instance.handler.calls.values()) == {1}, seed
                called = {call_id.partition("/")[0] for call_id in instance.handler.calls}
                assert arrived - {"0.2"} <= called, seed
    finally:
        sys.setswitchinterval(previous)


# -- where branches run: the root of run() on its caller, a fork without a handshake --


def count_hand_offs(monkeypatch) -> list[str]:
    """The thread names of every branch handed to a branch thread, idle or new."""
    handed: list[str] = []
    new, hand = engine._BranchThread.__init__, engine._BranchThread.hand

    def counted_new(thread, job, name):
        handed.append(name)
        new(thread, job, name)

    def counted_hand(thread, job, name):
        handed.append(name)
        hand(thread, job, name)

    monkeypatch.setattr(engine._BranchThread, "__init__", counted_new)
    monkeypatch.setattr(engine._BranchThread, "hand", counted_hand)
    return handed


ONE_BRANCH = 'workflow { handler "mock" context x: 0 manipulate :a { x = x + 1 } }'


@pytest.mark.parametrize(
    "source, entry, hand_offs",
    [(ONE_BRANCH, "run", 0), (wide_join(4), "run", 4), (wide_join(4), "start", 5)],
    ids=["one-branch-run", "four-children-run", "four-children-start"],
)
def test_run_keeps_the_root_on_its_caller_and_start_hands_it_to_a_branch_thread(
    monkeypatch, source, entry, hand_offs
):
    handed = count_hand_offs(monkeypatch)
    instance = WorkflowInstance(dsl.parse(source), MockHandler({"default": {"result": {}}}))
    if entry == "run":
        assert instance.run() == "finished"
    else:
        assert instance.start().wait() == "finished"
    assert len(handed) == hand_offs, handed
    assert ("wee-0" in handed) == (entry == "start")


class InterruptingHandler(MockHandler):
    """The call at `position` raises `exc`; `threads` records the thread it ran on."""

    def __init__(self, position: str, exc: BaseException):
        super().__init__({"default": {"result": {}}})
        self.position, self.exc = position, exc
        self.threads: list[threading.Thread] = []

    def call(self, call):
        if call.position == self.position:
            self.threads.append(threading.current_thread())
            raise self.exc
        return super().call(call)


def assert_ended_in_error_naming(instance: WorkflowInstance, name: str) -> None:
    assert instance.result == "error"
    records = instance.log.records
    errors = [r.detail["message"] for r in records if r.kind == "error"]
    assert len(errors) == 1 and name in errors[0], errors
    assert instance.errors == errors
    terminal = [r for r in records if r.kind in ("instance_finish", "instance_stop")]
    assert terminal == records[-1:] and terminal[0].detail == {"error": errors[0]}
    assert [r.seq for r in records] == list(range(1, len(records) + 1))


@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
@pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)], ids=repr)
def test_an_interrupt_or_exit_in_a_child_ends_the_instance_in_error(virtual_time, exc):
    handler = InterruptingHandler("a", exc)
    instance = WorkflowInstance(dsl.parse(MANY_PARENTS), handler, RunOptions(virtual_time=virtual_time))
    assert finish(instance) == "error"
    assert_ended_in_error_naming(instance, type(exc).__name__)
    # the branch thread that ran the call serves on: it goes idle for the next branch
    (thread,) = handler.threads
    assert thread is not threading.main_thread()
    assert wait_until(lambda: any(idle._thread is thread for idle in engine._idle), timeout=1.0)


def test_an_interrupt_in_the_root_ends_the_instance_in_error_and_run_raises_it():
    source = wide_join(3).replace("parallel wait: all", "call :a, endpoint: svc\n  parallel wait: all")
    handler = InterruptingHandler("a", KeyboardInterrupt())
    instance = WorkflowInstance(dsl.parse(source), handler)
    with pytest.raises(KeyboardInterrupt):
        instance.run()
    assert handler.threads == [threading.current_thread()]
    assert_ended_in_error_naming(instance, "KeyboardInterrupt")


class PollingCall(HandlerWrapper):
    """A 2 s call that waits on its stop token in 10 ms slices.

    `_thread.interrupt_main()` only flags the main thread, so the interrupt
    is raised when the wait it blocks in ends: here within one slice.
    """

    def __init__(self):
        self.in_flight = threading.Event()

    def call(self, call):
        self.in_flight.set()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if call.stop.wait(0.01):
                break
        return Result({})


@pytest.mark.skipif(
    threading.current_thread() is not threading.main_thread(), reason="needs the main thread"
)
def test_an_interrupt_of_runs_caller_in_a_call_ends_the_instance_in_error(tmp_path):
    import _thread

    log = tmp_path / "trace.jsonl"
    source = 'workflow { handler "mock" endpoint svc: "mock://svc" call :slow, endpoint: svc }'
    handler = PollingCall()
    instance = WorkflowInstance(dsl.parse(source), handler, RunOptions(log_path=str(log)))

    def interrupt():
        assert handler.in_flight.wait(5)
        time.sleep(0.05)  # the root blocks in its call's token wait
        _thread.interrupt_main()

    interrupter = threading.Thread(target=interrupt, daemon=True)
    interrupter.start()
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        instance.run()
    assert time.monotonic() - started < 1.0
    interrupter.join(timeout=5)
    assert not interrupter.is_alive()
    assert_ended_in_error_naming(instance, "KeyboardInterrupt")
    assert instance._state_lock.acquire(blocking=False)
    instance._state_lock.release()
    assert instance.log._fh is None  # the trace file is closed
    assert [r.to_json() for r in read_jsonl(log)] == [r.to_json() for r in instance.log.records]


def test_instances_run_and_started_at_once_under_a_short_switch_interval():
    """8 clients run fork-heavy instances at once, half of them through
    run() and half through start() and wait(), and the corpus runs on 8
    threads at once: every branch ends once, in its own instance's trace."""
    from wee.patterns.harness import run_all

    ast = dsl.parse(MANY_PARENTS)
    script = {"default": {"result": {}, "delay_ms": [0, 0.2]}}
    instances: list[WorkflowInstance] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        for round_ in range(4):
            instance = WorkflowInstance(ast, CountingHandler(script, index * 10 + round_))
            with lock:
                instances.append(instance)
            if (index + round_) % 2:
                instance.run()
            else:
                instance.start().wait()

    sequential = run_all()
    started = time.monotonic()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(8)]
        for thread in clients:
            thread.start()
        parallel = run_all(parallel=True)
        for thread in clients:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    elapsed = time.monotonic() - started

    assert len(instances) == 32
    for instance in instances:
        assert instance.result == "finished"
        records = instance.log.records
        assert {r.instance for r in records} == {instance.instance_id}
        assert [r.seq for r in records] == list(range(1, len(records) + 1))
        forked = [r.detail["child"] for r in records if r.kind == "branch_fork"]
        ended = [
            r.branch
            for r in records
            if (r.kind == "branch_join" and r.detail["role"] == "arrive")
            or r.detail.get("signal") == "no_longer_necessary"
        ]
        assert sorted(ended) == sorted(forked) and len(set(forked)) == len(forked)
        assert set(instance.handler.calls.values()) == {1}
    summary = [(r.slug, r.passed, r.result_state) for r in parallel.results]
    assert summary == [(r.slug, r.passed, r.result_state) for r in sequential.results]
    assert parallel.all_passed
    assert len(engine._idle) <= engine._IDLE_CAP
    assert elapsed < 1.0


# -- virtual time ---------------------------------------------------------------------


def run_virtual(source, handler, **options) -> WorkflowInstance:
    options = RunOptions(virtual_time=True, **options)
    instance = WorkflowInstance(dsl.parse(source), handler, options)
    finish(instance)
    return instance


def trace_lines(instance: WorkflowInstance) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in instance.log.records)


CRITICAL_RACE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context i: 0
  context held: 0
  parallel wait: 1 {
    cycle (i < 4) {
      manipulate :launch { i = i + 1 }
      parallel_branch {
        call :work, endpoint: svc
        critical :ledger {
          manipulate :hold { held = held + 1 }
          call :book, endpoint: svc
        }
      }
    }
  }
  manipulate :after { held = held * 10 }
}
"""


def test_virtual_time_gives_one_trace_for_a_racing_k_join():
    script = {
        "positions": {
            "work": {"result": {}, "delay_ms": [0, 2]},
            "book": {"result": {}, "delay_ms": [0, 1]},
        }
    }
    traces = set()
    for _ in range(50):
        instance = run_virtual(
            CRITICAL_RACE,
            MockHandler(script, seed=3),
            clock=FixedClock(),
            instance_id="i-00000000",
        )
        assert instance.result == "finished"
        traces.add(trace_lines(instance))
    assert len(traces) == 1
    records = instance.log.records
    assert len([r for r in records if r.detail.get("signal") == "no_longer_necessary"]) == 3


def test_a_scripted_delay_takes_virtual_not_wall_time():
    started = time.monotonic()
    instance = run_virtual(
        STOPPABLE,
        MockHandler({"positions": {"one": {"result": {}, "delay_ms": 10_000}}, "default": {}}),
    )
    assert time.monotonic() - started < 0.5
    assert instance.result == "finished"
    assert instance._timeline.now == 10.0


TRIGGER_ONE = """
workflow {
  handler "trigger"
  endpoint bus: "trigger://bus"
  context got: 0
  call :await, endpoint: bus, parameters: { key: "go" }
  manipulate :proceed { got = got + 1 }
}
"""


def test_a_stop_from_outside_reaches_a_branch_waiting_on_a_trigger():
    handler = TriggerHandler("transient")
    ast = dsl.parse(TRIGGER_ONE)
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=True)).start()
    deadline = time.monotonic() + 5
    while not handler.is_waiting("0/await") and time.monotonic() < deadline:
        time.sleep(0.001)
    assert handler.is_waiting("0/await")
    # no timer is pending and the baton is free: the stop alone wakes the branch
    instance.request_stop()
    waiter = threading.Thread(target=instance.wait, daemon=True)
    waiter.start()
    waiter.join(5)
    assert instance.result == "stopped"
    assert list(call_tokens(ast, instance.save())) == ["0/await"]
    assert not starts(instance, "proceed")


def test_a_delivery_timer_wakes_a_trigger_under_virtual_time():
    handler = TriggerHandler("transient")
    instance = WorkflowInstance(dsl.parse(TRIGGER_ONE), handler, RunOptions(virtual_time=True))
    instance.call_later(60.0, lambda: handler.deliver("go"))
    instance.call_later(0.0, lambda: 1 / 0)
    started = time.monotonic()
    assert finish(instance) == "finished"
    assert time.monotonic() - started < 0.5
    assert handler.live_matches == 1
    assert instance._timeline.now == 60.0
    failed = [r.detail for r in instance.log.records if r.detail.get("signal") == "timer_failed"]
    message = "ZeroDivisionError('division by zero')"
    assert failed == [{"signal": "timer_failed", "message": message}]


class RaisingHandler(MockHandler):
    def call(self, call):
        if call.position == "boom":
            raise RuntimeError("boom")
        return super().call(call)


BOOM_BESIDE_SLOW = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: all {
    parallel_branch { call :slow, endpoint: svc }
    parallel_branch { manipulate :first { done = true } call :boom, endpoint: svc }
  }
  manipulate :after { done = false }
}
"""


def test_a_raising_handler_under_virtual_time_leaves_an_error_and_ends():
    handler = RaisingHandler({"positions": {"slow": {"result": {}, "delay_ms": 60_000}}})
    instance = run_virtual(BOOM_BESIDE_SLOW, handler)
    assert instance.result == "error"
    errors = [r for r in instance.log.records if r.kind == "error"]
    assert len(errors) == 1 and "handler raised" in errors[0].detail["message"]
    # an errored instance is not saved, but the stop interrupted the call
    assert instance._saved_paths["0.1"].token == "pt-slow-0"
    # the stop cut the 60 s call short at once
    assert instance._timeline.now == 0.0


class ReleaseRaises(MockHandler):
    def __init__(self, script):
        super().__init__(script)
        self.released: list[str] = []

    def release(self, token):
        self.released.append(token)
        raise RuntimeError(f"cannot release {token}")


TWO_SLOW_BESIDE_AN_ERROR = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  endpoint bad: "mock://bad"
  parallel wait: all {
    parallel_branch { call :slow_a, endpoint: svc }
    parallel_branch { call :slow_b, endpoint: svc }
    parallel_branch { call :boom, endpoint: bad }
  }
}
"""


@pytest.mark.parametrize("virtual_time", [False, True], ids=["threads", "virtual-time"])
def test_a_release_that_raises_leaves_one_signal_and_the_instance_ends(tmp_path, virtual_time):
    # the error stops both slow calls, whose tokens no resume replays: the
    # end of the instance releases them, and each release raises
    log = tmp_path / "trace.jsonl"
    slow = {"result": {}, "delay_ms": 60_000}
    boom = {"error": "boom", "delay_ms": 20}
    handler = ReleaseRaises({"positions": {"slow_a": slow, "slow_b": slow, "boom": boom}})
    options = RunOptions(log_path=str(log), virtual_time=virtual_time)
    instance = WorkflowInstance(dsl.parse(TWO_SLOW_BESIDE_AN_ERROR), handler, options)
    assert finish(instance) == "error"
    assert sorted(handler.released) == ["pt-slow_a-0", "pt-slow_b-0"]
    records = instance.log.records
    failed = [r for r in records if r.detail.get("signal") == "release_failed"]
    message = f"RuntimeError('cannot release {handler.released[0]}')"
    assert [r.detail for r in failed] == [{"signal": "release_failed", "message": message}]
    terminal = [r for r in records if r.kind in ("instance_finish", "instance_stop")]
    assert terminal == records[-1:] and terminal[0].detail == {"error": "call 'boom': boom"}
    assert failed[0].seq == terminal[0].seq - 1
    assert instance.log._fh is None  # the trace file is closed
    assert [r.to_json() for r in read_jsonl(log)] == [r.to_json() for r in records]


def test_every_exit_of_a_branch_hands_the_baton_on(monkeypatch):
    # an engine bug in one branch: the internal-error path must release too
    original = WorkflowInstance._exec_manipulate

    def broken(self, branch, node, path):
        if node.position == "first":
            raise RuntimeError("engine bug")
        return original(self, branch, node, path)

    monkeypatch.setattr(WorkflowInstance, "_exec_manipulate", broken)
    script = {"positions": {"slow": {"result": {}, "delay_ms": 60_000}}}
    instance = run_virtual(BOOM_BESIDE_SLOW, MockHandler(script))
    assert instance.result == "error"
    assert "internal error" in instance.log.records[-1].detail["error"]
    monkeypatch.undo()

    # cancelled losers, and branches parked by a stop
    script = {
        "positions": {
            "left": {"result": {}, "delay_ms": 1},
            "right": {"result": {}, "delay_ms": 400},
        }
    }
    instance = run_virtual(PARALLEL_TWO.replace("wait: all", "wait: 1"), MockHandler(script))
    assert instance.result == "finished"
    instance = WorkflowInstance(
        dsl.parse(PARALLEL_TWO), MockHandler(script), RunOptions(virtual_time=True)
    )
    instance.call_later(0.1, instance.request_stop)
    assert finish(instance) == "stopped"
    assert list(call_tokens(instance.ast, instance.save())) == ["0.2/right"]


THREE_CALLS = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  parallel wait: all {
    parallel_branch { call :a, endpoint: svc call :a2, endpoint: svc }
    parallel_branch { call :b, endpoint: svc }
    parallel_branch { call :c, endpoint: svc }
  }
  call :after, endpoint: svc
  manipulate :fin { done = true }
}
"""


def test_stop_save_and_resume_under_virtual_time_repeat_no_call():
    script = {
        "positions": {
            "a": {"result": {}, "delay_ms": 10},
            "a2": {"result": {}, "delay_ms": 100, "token": "p-a2"},
            "b": {"result": {}, "delay_ms": 80, "on_stop": "finish"},
            "c": {"result": {}, "delay_ms": 200, "token": "p-c"},
            "after": {"result": {}},
        },
        "passthroughs": {"p-a2": {"result": {}}, "p-c": {"result": {}}},
    }
    ast = dsl.parse(THREE_CALLS)
    handler = MockHandler(script)
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=True))
    instance.call_later(0.05, instance.request_stop)
    assert finish(instance) == "stopped"
    saved = json.loads(json.dumps(instance.save()))
    # b ended after the stop: its branch arrived at the join, and no token is kept
    assert call_tokens(ast, saved) == {"0.1/a2": "p-a2", "0.3/c": "p-c"}
    assert {"id": "0.2", "path": [0, -1]} in saved["branches"]

    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=True))
    assert finish(resumed) == "finished"
    assert handler.invocations == {"a": 1, "a2": 1, "b": 1, "c": 1, "after": 1}
    assert resumed.store.current_values()["done"] is True


def test_runnable_branches_go_in_fork_order_with_ids_compared_as_numbers():
    instance = run_virtual(
        """
        workflow {
          handler "mock"
          endpoint svc: "mock://svc"
          context i: 0
          parallel wait: all {
            cycle (i < 11) {
              manipulate :launch { i = i + 1 }
              parallel_branch { call :work, endpoint: svc }
            }
          }
        }
        """,
        MockHandler({"default": {"result": {}}}),
    )
    arrivals = [r.branch for r in instance.log.records if r.detail.get("role") == "arrive"]
    assert arrivals == [f"0.{n}" for n in range(1, 12)]


def test_a_due_timer_runs_before_the_next_runnable_branch():
    instance = WorkflowInstance(
        dsl.parse(THREE_CALLS),
        MockHandler({"default": {"result": {}, "delay_ms": 10}}),
        RunOptions(virtual_time=True),
    )

    def stop_at_first_call(record):
        if record.kind == "activity_start" and record.branch == "0.1":
            instance.call_later(0, instance.request_stop)

    instance.log.add_listener(stop_at_first_call)
    assert finish(instance) == "stopped"
    # 0.2 and 0.3 were runnable when 0.1 blocked, but the stop came first
    assert [r.branch for r in starts(instance)] == ["0.1"]


# -- only values enter the context ----------------------------------------------


@pytest.mark.parametrize("value", [1.5, [1, 2], {"a": 1}, "\ud800", "\ud800\udc00"])
def test_an_initial_context_that_is_not_a_value_is_refused(value, tmp_path):
    log = tmp_path / "run.jsonl"
    with pytest.raises(ContextError, match="initial context 'x' is not a value"):
        options = RunOptions(log_path=str(log))
        WorkflowInstance(dsl.parse(ONE_STEP), MockHandler(), options, initial_context={"x": value})
    assert not log.exists()


@pytest.mark.parametrize("value", [2.5, [1], "\udc80", "a\ud800\udc00"])
def test_a_handler_result_that_is_not_a_value_fails_the_call(value):
    instance = run_source(
        'workflow { handler "x" endpoint svc: "mock://svc" context x: 0 call :c, endpoint: svc }',
        Answers({"x": value}),
    )
    assert instance.result == "error"
    assert instance.errors == ["call 'c': handler result for 'x' is not a value"]
    assert dict(instance.store.current_values()) == {"x": 0}


# -- refusals -------------------------------------------------------------------


class HandsBackAToken(HandlerWrapper):
    def call(self, call):
        return Passthrough("unasked")


def error_of(source: str, handler=None) -> str:
    """The one error of a run that ends in error; its only error record."""
    instance = run_source(source, handler or MockHandler({"default": {"result": {}}}))
    assert instance.result == "error"
    [message] = instance.errors
    assert [r.detail["message"] for r in instance.log.records if r.kind == "error"] == [message]
    return message


def raised_by(action) -> str:
    with pytest.raises(EngineError) as info:
        action()
    return str(info.value)


def started_twice() -> str:
    instance = run_source(ONE_STEP, MockHandler())
    assert instance.result == "finished"
    return raised_by(instance.start)


def resumed_from_a_list() -> str:
    ast = dsl.parse(ONE_STEP)
    return raised_by(lambda: WorkflowInstance.resume(ast, MockHandler(), ["schema", 6]))


CALL_A = 'workflow { handler "mock" endpoint svc: "%s" call :a, endpoint: svc%s }'
GUARDED = 'workflow { handler "mock" context x: 0 %s }'
SET_X = "(1 / x > 0) { manipulate :a { x = 1 } }"


@pytest.mark.parametrize(
    "refusal, message",
    [
        pytest.param(started_twice, "instance already started", id="started-twice"),
        pytest.param(
            lambda: error_of(CALL_A % ("mock://svc", ", parameters: { n: 1 / 0 }")),
            "call 'a' parameters: division by zero",
            id="call-parameters",
        ),
        pytest.param(
            lambda: error_of(CALL_A % ("mock://svc", ""), HandsBackAToken()),
            "call 'a': handler returned a passthrough without a stop",
            id="passthrough-without-a-stop",
        ),
        pytest.param(
            lambda: error_of(CALL_A % ("wee://nope", "")),
            "call 'a': unknown engine endpoint 'wee://nope'",
            id="unknown-engine-endpoint",
        ),
        pytest.param(
            lambda: error_of(GUARDED % f"choose {{ alternative {SET_X} }}"),
            "guard at (0,): division by zero",
            id="choose-guard",
        ),
        pytest.param(
            lambda: error_of(GUARDED % f"cycle {SET_X}"),
            "guard at (0,): division by zero",
            id="cycle-guard",
        ),
        pytest.param(
            resumed_from_a_list,
            "corrupt saved state: a list, not an object",
            id="saved-state-not-an-object",
        ),
    ],
)
def test_the_engine_refuses_with_its_message(refusal, message):
    assert refusal() == message
