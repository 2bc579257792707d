from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from unittest import mock

import pytest

from wee import dsl
from wee.engine import RunOptions
from wee.events import EventRecord
from wee.patterns import harness
from wee.patterns.harness import (
    DIRECT,
    HANDLER_EXTERNAL,
    MODIFIED,
    ORCHESTRATED,
    PUBLISHED_SUMMARY,
    REFERENCE_LEVELS,
    RunArtifacts,
    check_assertion,
    load_case,
    run_all,
    run_pattern,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import trace_variants  # noqa: E402

CORPUS = harness.DEFAULT_CORPUS
GOLDEN = Path(__file__).parent / "golden" / "corpus"


def real_time():
    """Run the harness's cases on real threads and real time, whatever their
    handler: the harness builds RunOptions(...) for each phase of a case."""
    return mock.patch.object(harness, "RunOptions", lambda **options: RunOptions())


@pytest.fixture(scope="module")
def report():
    return run_all(seed=0)


def test_reference_table_has_43_patterns():
    assert len(REFERENCE_LEVELS) == 43
    assert len({slug for _, _, slug, _ in REFERENCE_LEVELS}) == 43


def test_reference_level_cell_counts():
    levels = [level for _, _, _, level in REFERENCE_LEVELS]
    assert levels.count(DIRECT) == 24
    assert levels.count(MODIFIED) == 2
    assert levels.count(HANDLER_EXTERNAL) == 6
    assert levels.count(ORCHESTRATED) == 11


def test_corpus_is_complete():
    for pattern_class, name, slug, support in REFERENCE_LEVELS:
        case = load_case(CORPUS, pattern_class, name, slug, support)
        if support == ORCHESTRATED:
            assert case.source is None
            assert case.note
        else:
            assert case.source
            assert case.assertions


def test_missing_case_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="^missing case file "):
        load_case(tmp_path, "Basic", "Sequence", "sequence", DIRECT)


def test_missing_workflow_raises(tmp_path):
    (tmp_path / "basic").mkdir()
    spec = (CORPUS / "basic" / "sequence.assert.json").read_text()
    (tmp_path / "basic" / "sequence.assert.json").write_text(spec)
    with pytest.raises(FileNotFoundError, match="^missing workflow "):
        load_case(tmp_path, "Basic", "Sequence", "sequence", DIRECT)


def test_run_all_everything_passes(report):
    failed = [(r.slug, r.failures) for r in report.results if not r.passed]
    assert failed == []
    assert report.all_passed


def test_per_pattern_levels_match_reference_cells(report):
    achieved = {r.slug: r.achieved_support for r in report.results}
    for _, _, slug, support in REFERENCE_LEVELS:
        assert achieved[slug] == support, slug


def test_aggregate_counts_sum_to_43(report):
    assert sum(report.counts.values()) == 43


def test_recount_reported_alongside_published_summary(report):
    assert report.recount == {"plus": 24, "plus_minus": 8, "minus": 11}
    assert report.published == PUBLISHED_SUMMARY
    # the discrepancy is surfaced, not forced into agreement
    assert report.summary_matches_cells is False
    rendered = report.render_table()
    assert "does not match" in rendered
    payload = report.to_json()
    assert payload["recount_plus_minus"] != payload["published_summary"]
    assert payload["summary_matches_cells"] is False


def test_report_quotes_baseline_engines_in_footer(report):
    payload = report.to_json()
    products = {row["product"] for row in payload["baseline_engines"]}
    assert "OpenWFE 1.7.3" in products
    assert len(products) == 6
    rendered = report.render_table()
    assert "StaffWare 10" in rendered


def test_exit_state_contract_per_case(report):
    # every runnable case ends finished or stopped; orchestrated cases do not run
    for result in report.results:
        if result.expected_support == ORCHESTRATED:
            assert result.result_state is None
        else:
            assert result.result_state in ("finished", "stopped"), result.slug


def test_replay_holds_for_every_runnable_case(report):
    runnable = [r for r in report.results if r.expected_support != ORCHESTRATED]
    assert len(runnable) == 32
    assert all(r.replay_ok for r in runnable)


def test_parallel_mode_matches_sequential(report):
    parallel_report = run_all(seed=0, parallel=True)
    assert parallel_report.all_passed
    assert {r.slug: r.achieved_support for r in parallel_report.results} == {
        r.slug: r.achieved_support for r in report.results
    }


def test_every_runnable_case_passes_on_real_threads_and_real_time():
    with real_time():
        cases = trace_variants.runnable_cases()
        failed = [(r.slug, r.failures) for r in map(run_pattern, cases) if not r.passed]
    assert failed == []


# the harness runs every runnable case under virtual time
VIRTUAL_TIME_CASES = trace_variants.runnable_cases()


def test_every_virtual_time_case_has_one_golden_trace():
    # exactly the runnable cases have a golden file
    assert len(VIRTUAL_TIME_CASES) == 32
    assert sorted(path.stem for path in GOLDEN.glob("*.jsonl")) == sorted(
        case.slug for case in VIRTUAL_TIME_CASES
    )


@pytest.mark.parametrize("case", VIRTUAL_TIME_CASES, ids=lambda case: case.slug)
def test_virtual_time_case_trace_matches_golden(case):
    # the files `python tools/trace_variants.py golden tests/golden/corpus` writes
    with mock.patch.object(harness, "RunOptions", trace_variants.fixed_options):
        records = harness.run_case_workflow(case, 0).records
    assert trace_variants.trace_bytes(records) == (GOLDEN / f"{case.slug}.jsonl").read_bytes()


# the runnable cases whose first phase stops
STOPPED_SLUGS = {
    "cancel_case", "cancel_mi_activity", "cancel_region", "cancel_task", "explicit_termination"
}
STOPPED_CASES = [case for case in VIRTUAL_TIME_CASES if case.slug in STOPPED_SLUGS]


@pytest.mark.parametrize("case", STOPPED_CASES, ids=lambda case: case.slug)
def test_a_stopped_case_s_stop_record_carries_what_save_returns(case):
    assert len(STOPPED_CASES) == len(STOPPED_SLUGS)
    run = harness.run_case_workflow(case, 0)
    stop = next(r for r in run.records if r.kind == "instance_stop")
    assert run.saved is not None  # the harness's instance.save() after the stop
    assert stop.detail["saved"] == run.saved
    assert run.saved["seq"] == stop.seq
    assert run.saved["workflow"] == dsl.parse(case.source).source_hash


def test_run_single_pattern():
    case = load_case(CORPUS, "Basic", "Sequence", "sequence", DIRECT)
    result = run_pattern(case)
    assert result.passed
    assert result.achieved_support == DIRECT


def test_coverage_json_is_serializable(report, tmp_path):
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps(report.to_json(), indent=2))
    loaded = json.loads(path.read_text())
    assert len(loaded["patterns"]) == 43


def test_log_completeness_across_corpus(report):
    # every activity of a finished run starts and ends pairwise; every forked
    # branch either arrives at its join or carries a cancellation signal, and
    # none arrives at the join of a parent that was already cancelled
    for result in report.results:
        if result.records is None:
            continue
        records = result.records
        if result.result_state == "finished":
            by_position: dict[str, list[str]] = {}
            for r in records:
                if r.kind in ("activity_start", "activity_end") and r.position:
                    by_position.setdefault(r.position, []).append(r.kind)
            for position, seq in by_position.items():
                starts_n = seq.count("activity_start")
                ends_n = seq.count("activity_end")
                cancelled_here = any(
                    r.position == position and r.detail.get("signal") == "stop_call"
                    for r in records
                )
                assert starts_n == ends_n or cancelled_here, (result.slug, position, seq)
        forked = {r.detail["child"] for r in records if r.kind == "branch_fork"}
        for child in forked:
            arrived = any(
                r.branch == child and r.kind == "branch_join" and r.detail.get("role") == "arrive"
                for r in records
            )
            cancelled = any(
                r.branch == child and r.detail.get("signal") == "no_longer_necessary"
                for r in records
            )
            parked = result.result_state == "stopped"
            assert arrived or cancelled or parked, (result.slug, child)
        cancelled_so_far = set()
        for r in records:
            if r.detail.get("signal") == "no_longer_necessary":
                cancelled_so_far.add(r.branch)
            elif r.kind == "branch_join" and r.detail.get("role") == "arrive":
                assert r.detail["parent"] not in cancelled_so_far, (result.slug, r.branch)


# -- the assertion engine itself, checked against synthetic traces -------------


def rec(seq, kind, branch="0", position=None, detail=None):
    return EventRecord(seq, "t", "i", branch, position, kind, detail or {})


def artifacts(records, result="finished", context=None, invocations=None):
    return RunArtifacts(
        records=records,
        result_state=result,
        final_context=context or {},
        initial_context={},
        metrics={},
        invocations=invocations or {},
    )


def test_order_assertion_detects_inversion():
    records = [
        rec(1, "activity_start", position="b"),
        rec(2, "activity_end", position="a"),
    ]
    failure = check_assertion(
        {"op": "order", "first": {"kind": "activity_end", "position": "a"},
         "then": {"kind": "activity_start", "position": "b"}},
        artifacts(records),
    )
    assert failure is not None


def test_section_exclusive_detects_overlap():
    records = [
        rec(1, "signal", branch="0.1", detail={"signal": "critical_enter", "section": "s"}),
        rec(2, "signal", branch="0.2", detail={"signal": "critical_enter", "section": "s"}),
        rec(3, "signal", branch="0.1", detail={"signal": "critical_exit", "section": "s"}),
        rec(4, "signal", branch="0.2", detail={"signal": "critical_exit", "section": "s"}),
    ]
    failure = check_assertion({"op": "section_exclusive", "section": "s"}, artifacts(records))
    assert failure is not None and "overlapping" in failure


def test_section_exclusive_accepts_disjoint_spans():
    records = [
        rec(1, "signal", branch="0.1", detail={"signal": "critical_enter", "section": "s"}),
        rec(2, "signal", branch="0.1", detail={"signal": "critical_exit", "section": "s"}),
        rec(3, "signal", branch="0.2", detail={"signal": "critical_enter", "section": "s"}),
        rec(4, "signal", branch="0.2", detail={"signal": "critical_exit", "section": "s"}),
    ]
    assert check_assertion({"op": "section_exclusive", "section": "s"}, artifacts(records)) is None


def test_k_of_n_join_detects_wrong_arrival_count():
    records = [
        rec(1, "branch_join", branch="0.1", detail={"role": "arrive"}),
        rec(2, "branch_join", branch="0.2", detail={"role": "arrive"}),
        rec(3, "branch_join", branch="0", detail={"role": "fire"}),
        rec(4, "signal", branch="0.3", detail={"signal": "no_longer_necessary"}),
    ]
    failure = check_assertion({"op": "k_of_n_join", "k": 1, "n": 3}, artifacts(records))
    assert failure is not None


def test_k_of_n_join_detects_activity_after_cancel():
    records = [
        rec(1, "branch_join", branch="0.1", detail={"role": "arrive"}),
        rec(2, "branch_join", branch="0", detail={"role": "fire"}),
        rec(3, "signal", branch="0.2", detail={"signal": "no_longer_necessary"}),
        rec(4, "activity_start", branch="0.2", position="late"),
    ]
    failure = check_assertion({"op": "k_of_n_join", "k": 1, "n": 2}, artifacts(records))
    assert failure is not None and "after its cancel signal" in failure


def test_sequence_assertion_is_exact():
    records = [rec(1, "activity_start", position="a"), rec(2, "activity_start", position="b")]
    assert check_assertion({"op": "sequence", "equals": ["a", "b"]}, artifacts(records)) is None
    assert check_assertion({"op": "sequence", "equals": ["b", "a"]}, artifacts(records)) is not None


def test_between_assertion_rejects_outside_window():
    records = [
        rec(1, "activity_start", position="enabled"),
        rec(2, "activity_end", position="activate"),
        rec(3, "activity_start", position="deactivate"),
    ]
    failure = check_assertion(
        {"op": "between",
         "target": {"kind": "activity_start", "position": "enabled"},
         "after": {"kind": "activity_end", "position": "activate"},
         "before": {"kind": "activity_start", "position": "deactivate"}},
        artifacts(records),
    )
    assert failure is not None


def test_no_interleave_detects_intruder():
    records = [
        rec(1, "activity_start", position="a1"),
        rec(2, "activity_start", position="b1"),
        rec(3, "activity_end", position="a2"),
    ]
    failure = check_assertion(
        {"op": "no_interleave", "groups": [["a1", "a2"], ["b1"]]}, artifacts(records)
    )
    assert failure is not None


@pytest.mark.parametrize("slug", ["cancel_mi_activity", "cancelling_partial_join_mi"])
def test_cancelled_instances_of_one_activity_end_at_once(slug):
    level = next(level for level in REFERENCE_LEVELS if level[2] == slug)
    case = load_case(CORPUS, *level)
    elapsed = []
    with real_time():
        for _ in range(3):
            result = run_pattern(case)
            assert result.passed, result.failures
            elapsed.append(result.elapsed)
    # every forked instance's scripted 400 ms delay is cut short by stop_call
    assert statistics.median(elapsed) < 0.1, elapsed
