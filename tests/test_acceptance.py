"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value here is either computed by an independent oracle
inside the test or asserted against the bundled reference classification.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

import pytest

from conftest import CountingStubServer, call_tokens, wait_until
from wee import cli, dsl
from wee.engine import RunOptions, WorkflowInstance
from wee.events import FixedClock
from wee.handlers import (
    HandlerCall,
    HttpHandler,
    JumpHandler,
    MockHandler,
    Result,
    StopToken,
    TriggerHandler,
)
from wee.patterns import harness

FIXTURES = Path(__file__).parent.parent / "src" / "wee" / "fixtures"
CORPUS = harness.DEFAULT_CORPUS


def ok(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


@pytest.fixture(scope="module")
def coverage_report():
    started = time.monotonic()
    report = harness.run_all(seed=0)
    report.elapsed = time.monotonic() - started  # type: ignore[attr-defined]
    return report


# -- 1. booking fixture ---------------------------------------------------------


def run_booking(script_name: str) -> tuple[WorkflowInstance, float]:
    ast = dsl.parse((FIXTURES / "booking.wee").read_text())
    handler = MockHandler(json.loads((FIXTURES / script_name).read_text()))
    instance = WorkflowInstance(ast, handler)
    started = time.monotonic()
    assert instance.run() == "finished"
    return instance, time.monotonic() - started


def test_criterion_1_booking_guard_both_ways():
    over, over_elapsed = run_booking("booking_over.json")
    informs = [
        r for r in over.log.records if r.kind == "activity_start" and r.position == "inform"
    ]
    assert len(informs) == 1, "inform must run exactly once when the total exceeds the limit"

    under, under_elapsed = run_booking("booking_under.json")
    assert not [
        r for r in under.log.records if r.position == "inform"
    ], "inform must never appear when the total stays within the limit"

    assert over_elapsed < 1.0 and under_elapsed < 1.0
    ok("1 booking fixture (inform iff total > 10000, both runs < 1 s)")


# -- 2. pattern coverage ----------------------------------------------------------


def test_criterion_2_pattern_coverage(coverage_report):
    report = coverage_report
    failed = [(r.slug, r.failures) for r in report.results if not r.passed]
    assert failed == [], failed

    achieved = {r.slug: r.achieved_support for r in report.results}
    for _, name, slug, support in harness.REFERENCE_LEVELS:
        assert achieved[slug] == support, f"{name}: {achieved[slug]} != {support}"

    assert sum(report.counts.values()) == 43
    assert report.published == {"plus": 22, "plus_minus": 10, "minus": 11}
    assert report.recount == {"plus": 24, "plus_minus": 8, "minus": 11}
    assert report.summary_matches_cells is False
    assert "does not match" in report.render_table()

    assert report.elapsed < 60.0, f"corpus took {report.elapsed:.1f}s"
    ok(
        "2 pattern coverage (43 cells reproduced; recount 24/8/11 reported beside "
        f"published 22/10/11, discrepancy surfaced; {report.elapsed:.1f}s < 60s)"
    )


# -- 3. canceling discriminator ----------------------------------------------------


def discriminator_source(n: int) -> str:
    branches = "\n".join(
        f'    parallel_branch {{ call :task_{i}, endpoint: svc }}' for i in range(n)
    )
    return (
        'workflow {\n  handler "mock"\n  endpoint svc: "mock://svc"\n'
        "  context done: false\n"
        "  parallel wait: 1 {\n" + branches + "\n  }\n"
        "  manipulate :after { done = true }\n}"
    )


def test_criterion_3_canceling_discriminator_100_runs_each():
    violations = []
    for n in (2, 4, 8):
        ast = dsl.parse(discriminator_source(n))
        script = {
            "positions": {
                "task_0": {"result": {}, "delay_ms": 0},
                **{
                    f"task_{i}": {"result": {}, "delay_ms": 300} for i in range(1, n)
                },
            }
        }
        for run in range(100):
            handler = MockHandler(script, seed=run)
            instance = WorkflowInstance(ast, handler)
            assert instance.run() == "finished"
            records = instance.log.records
            fire_index = next(
                i for i, r in enumerate(records) if r.detail.get("role") == "fire"
            )
            arrivals_before = sum(
                1
                for r in records[:fire_index]
                if r.detail.get("role") == "arrive"
            )
            nln = sum(
                1
                for r in records
                if r.kind == "signal"
                and r.detail.get("signal") == "no_longer_necessary"
            )
            if arrivals_before != 1 or nln != n - 1:
                violations.append((n, run, arrivals_before, nln))
    assert violations == [], violations
    ok("3 canceling discriminator (N in {2,4,8} x 100 runs, 0 violations)")


# -- 4. critical-section exclusion ---------------------------------------------------


def test_criterion_4_interleaved_parallel_routing_1000_runs():
    source = (CORPUS / "state_based" / "interleaved_parallel_routing.wee").read_text()
    ast = dsl.parse(source)
    script = {"default": {"result": {}, "delay_ms": [0, 1]}}
    overlaps = 0
    for run in range(1000):
        handler = MockHandler(script, seed=run)
        instance = WorkflowInstance(ast, handler)
        assert instance.run() == "finished"

        # independent brute-force scan: collect every span of the shared
        # section and compare all pairs
        spans = []
        open_at: dict[str, int] = {}
        for i, record in enumerate(instance.log.records):
            if record.kind != "signal":
                continue
            if record.detail.get("section") != "one_at_a_time":
                continue
            if record.detail["signal"] == "critical_enter":
                open_at[record.branch] = i
            else:
                spans.append((open_at.pop(record.branch), i))
        assert len(spans) == 6
        for a in range(len(spans)):
            for b in range(a + 1, len(spans)):
                lo_a, hi_a = spans[a]
                lo_b, hi_b = spans[b]
                if lo_a < hi_b and lo_b < hi_a:
                    overlaps += 1
    assert overlaps == 0
    ok("4 critical-section exclusion (2x3 activities, 1000 seeded runs, 0 overlaps)")


# -- 5. cancel region round trip ------------------------------------------------------


CANCEL_REGION_HTTP = """
workflow {{
  handler "http"
  endpoint first: "{base}/first"
  endpoint region_one: "{base}/region_one"
  endpoint region_two: "{base}/region_two"
  endpoint last: "{base}/last"
  context done: false
  call :prepare, endpoint: first
  call :zone_a, endpoint: region_one
  call :zone_b, endpoint: region_two
  call :wrap, endpoint: last
  manipulate :finish {{ done = true }}
}}
"""


def test_criterion_5_cancel_region_round_trip():
    stub = CountingStubServer()
    try:
        source = CANCEL_REGION_HTTP.format(base=f"http://127.0.0.1:{stub.port}")
        ast = dsl.parse(source)
        assert dsl.validate(ast) == []

        # oracle: the uninterrupted run's request count
        baseline = HttpHandler(timeout=10)
        instance = WorkflowInstance(ast, baseline)
        assert instance.run() == "finished"
        uninterrupted = stub.total()
        assert uninterrupted == 4

        stub.counts.clear()
        stub.delays["/first"] = 0.4  # the in-flight call the stop lands on

        handler = HttpHandler(timeout=10)
        interrupted = WorkflowInstance(ast, handler)
        hit = threading.Event()
        interrupted.log.add_listener(
            lambda r: hit.set() if r.kind == "activity_start" and r.position == "prepare" else None
        )
        interrupted.start()
        assert hit.wait(timeout=5)
        time.sleep(0.05)  # let the POST reach the stub
        interrupted.deliver_stop()
        assert interrupted.result == "stopped"
        saved = interrupted.save()
        assert "0/prepare" in call_tokens(ast, saved), (
            "the in-flight call must leave a passthrough"
        )

        skip = cli.parse_skip_region("zone_a..zone_b", ast)
        resumed = WorkflowInstance.resume(ast, handler, saved, skip_positions=skip)
        assert resumed.run() == "finished"

        combined = list(interrupted.log.records) + list(resumed.log.records)
        skipped_seen = [r for r in combined if r.position in ("zone_a", "zone_b")]
        assert skipped_seen == [], "skipped positions must be absent from the combined trace"

        # the stored response was replayed: prepare hit the stub exactly once
        assert stub.counts.get("/first") == 1
        total = stub.total()
        assert total == uninterrupted - len(skip), (
            f"stop/resume issued {total} requests, expected "
            f"{uninterrupted} - {len(skip)} (the skipped region's calls)"
        )
        assert [r for r in resumed.log.records if r.position == "wrap" and r.kind == "activity_end"]
    finally:
        stub.close()
    ok("5 cancel region (stub count == uninterrupted - skipped region; skipped absent)")


# -- 6. arbitrary cycles ----------------------------------------------------------------


def test_criterion_6_arbitrary_cycles_byte_identical():
    source = (CORPUS / "iteration" / "arbitrary_cycles.wee").read_text()
    script = json.loads((CORPUS / "iteration" / "arbitrary_cycles.script.json").read_text())
    ast = dsl.parse(source)

    # hand-derived oracle: two guarded passes over the loop segment, then the
    # fall-through
    expected = [
        "stage_one",
        "stage_two",
        "count_pass",
        "loop_gate",
        "stage_two",
        "count_pass",
        "loop_gate",
        "wrap_up",
    ]

    traces = set()
    for _ in range(10):
        handler = JumpHandler(script["table"])
        instance = WorkflowInstance(
            ast,
            handler,
            RunOptions(clock=FixedClock(), instance_id="arbitrary-cycles"),
        )
        assert instance.run() == "finished"
        starts = [
            r.position for r in instance.log.records if r.kind == "activity_start"
        ]
        assert starts == expected
        traces.add(
            "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in instance.log.records)
        )
    assert len(traces) == 1, "trace must be byte-identical across 10 runs"
    ok("6 arbitrary cycles (expected position sequence, byte-identical over 10 runs)")


# -- 7. context replay ---------------------------------------------------------------


def test_criterion_7_context_replay_over_corpus(coverage_report):
    runnable = [
        r for r in coverage_report.results if r.expected_support != harness.ORCHESTRATED
    ]
    assert len(runnable) == 32
    mismatches = [r.slug for r in runnable if r.replay_ok is not True]
    assert mismatches == [], mismatches
    ok("7 context replay (change-log fold == final context for all 32 corpus runs)")


# -- 8. trigger semantics ---------------------------------------------------------------


def run_trigger_schedule(mode: str, before: list[str], during: list[str]):
    """Returns True if the call fired, False if it stayed blocked."""
    handler = TriggerHandler(mode)
    for key in before:
        handler.deliver(key)

    outcome_box = {}
    stop = StopToken()

    def call():
        outcome_box["outcome"] = handler.call(
            HandlerCall("t", "t", "trigger://bus", {"key": "go"}, {}, 0, stop)
        )

    thread = threading.Thread(target=call)
    thread.start()
    settled = wait_until(lambda: handler.is_waiting("t") or not thread.is_alive())
    assert settled, "call neither blocked nor returned"

    for key in during:
        handler.deliver(key)

    # deliveries are synchronous: a still-waiting call can never fire now
    if handler.is_waiting("t"):
        stop.set()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert not isinstance(outcome_box["outcome"], Result), "a released call must not fire"
        return False
    thread.join(timeout=2)
    assert not thread.is_alive()
    return isinstance(outcome_box["outcome"], Result)


def test_criterion_8_trigger_semantics_500_schedules():
    rng = random.Random(20260809)
    keys = ["go", "other"]
    schedules = 0
    for _ in range(300):
        before = [rng.choice(keys) for _ in range(rng.randint(0, 2))]
        during = [rng.choice(keys) for _ in range(rng.randint(0, 2))]

        persistent_fired = run_trigger_schedule("persistent", before, during)
        transient_fired = run_trigger_schedule("transient", before, during)
        schedules += 2

        # persistent: any matching event fires, regardless of arrival order
        assert persistent_fired == ("go" in before or "go" in during), (before, during)
        # transient: only events arriving during the blocked call count
        assert transient_fired == ("go" in during), (before, during)

        # order insensitivity, stated directly: moving the events across the
        # call boundary never changes the persistent outcome
        if before or during:
            flipped = run_trigger_schedule("persistent", during, before)
            schedules += 1
            assert flipped == persistent_fired, (before, during)

    assert schedules >= 500
    ok(f"8 trigger semantics ({schedules} randomized schedules, both modes hold)")
