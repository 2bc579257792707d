from __future__ import annotations

import json
import os
import shutil
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


# -- a case is reused while its files are unchanged -----------------------------

SEQUENCE = next(level for level in REFERENCE_LEVELS if level[2] == "sequence")


@pytest.fixture
def corpus(tmp_path):
    """A copy of the corpus that a test may edit."""
    copy = tmp_path / "corpus"
    shutil.copytree(CORPUS, copy)
    return copy


def rewrite_keeping_mtime(path: Path, text: str) -> None:
    stat = path.stat()
    path.write_text(text)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def test_a_second_load_returns_the_same_case(corpus):
    case = load_case(corpus, *SEQUENCE)
    assert load_case(corpus, *SEQUENCE) is case
    # checked against another name, it is checked again
    with pytest.raises(ValueError, match="'pattern' is 'Sequence', expected 'Other'"):
        load_case(corpus, "Basic", "Other", "sequence", DIRECT)


def test_an_edit_of_the_same_length_and_mtime_gives_a_new_case(corpus):
    workflow = corpus / "basic" / "sequence.wee"
    case = load_case(corpus, *SEQUENCE)
    assert run_pattern(case).passed
    edited = case.source.replace("n + 10", "n + 20")
    assert len(edited) == len(case.source) and edited != case.source
    rewrite_keeping_mtime(workflow, edited)

    again = load_case(corpus, *SEQUENCE)
    assert again is not case
    assert again.source == edited
    # the new case parses its own source
    assert again.ast.source_hash == dsl.parse(edited).source_hash != case.ast.source_hash


def test_a_workflow_deleted_after_a_load_is_missing(corpus):
    load_case(corpus, *SEQUENCE)
    (corpus / "basic" / "sequence.wee").unlink()
    with pytest.raises(FileNotFoundError, match="^missing workflow "):
        load_case(corpus, *SEQUENCE)


def test_malformed_json_is_never_kept(corpus):
    spec = corpus / "basic" / "sequence.assert.json"
    case = load_case(corpus, *SEQUENCE)
    text = spec.read_text()
    spec.write_text(text[:-2])
    for _ in range(2):
        with pytest.raises(json.JSONDecodeError):
            load_case(corpus, *SEQUENCE)
    # the bytes of the last good load are back
    spec.write_text(text)
    assert load_case(corpus, *SEQUENCE) is case


@pytest.mark.parametrize(
    "old, new, failure",
    [
        ("workflow {", "workflow (", "ParseError: "),
        ("n = n + 10", "m = n + 10", "ValueError: sequence: invalid workflow: "),
    ],
    ids=["unparsable", "invalid"],
)
def test_a_broken_workflow_fails_alike_on_every_pass(corpus, old, new, failure):
    workflow = corpus / "basic" / "sequence.wee"
    workflow.write_text(workflow.read_text().replace(old, new))
    failures = []
    for _ in range(2):
        result = next(r for r in run_all(corpus).results if r.slug == "sequence")
        assert not result.passed
        failures.append(result.failures)
    assert len(failures[0]) == 1 and failures[0][0].startswith(failure)
    assert failures[1] == failures[0]


def test_a_pass_writes_nothing_into_the_cases_it_shares(corpus):
    for _ in range(2):
        assert run_all(corpus).all_passed
    for pattern_class, name, slug, support in REFERENCE_LEVELS:
        case = load_case(corpus, pattern_class, name, slug, support)
        base = corpus / harness.CLASS_DIRS[pattern_class] / slug
        spec = json.loads(base.with_suffix(".assert.json").read_text())
        script = base.with_suffix(".script.json")
        assert case.script == (json.loads(script.read_text()) if script.exists() else {})
        assert case.assertions == spec.get("assertions", [])
        assert case.scenario == spec.get("scenario")


def test_a_warm_pass_parses_nothing(corpus):
    parse = dsl.parse
    sources = []

    def counting(source):
        sources.append(source)
        return parse(source)

    with mock.patch.object(dsl, "parse", counting):
        run_all(corpus)
        assert len(sources) == 33  # each runnable case, and the spawner's nested workflow
        sources.clear()
        assert run_all(corpus).all_passed
    assert sources == []


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
    # the parallel pass runs the cases that the sequential one loaded and parsed
    parallel_report = run_all(seed=0, parallel=True)
    assert parallel_report.all_passed
    assert {
        r.slug: (r.achieved_support, r.passed, r.result_state) for r in parallel_report.results
    } == {r.slug: (r.achieved_support, r.passed, r.result_state) for r in report.results}


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


def artifacts(records, result="finished", context=None, invocations=None, metrics=None, saved=None):
    return RunArtifacts(
        records=records,
        result_state=result,
        final_context=context or {},
        initial_context={},
        metrics=metrics or {},
        invocations=invocations or {},
        saved=saved,
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


def trace(*events: tuple) -> RunArtifacts:
    """A finished run of the events, each (kind, branch, position, detail),
    numbered from seq 1."""
    return artifacts([rec(seq, *event) for seq, event in enumerate(events, 1)])


def start(position, branch="0"):
    return ("activity_start", branch, position, {})


def end(position, branch="0"):
    return ("activity_end", branch, position, {})


def signal(name, branch="0", **detail):
    return ("signal", branch, None, {"signal": name, **detail})


def join(role, branch):
    return ("branch_join", branch, None, {"role": role})


ERROR = ("error", "0", None, {"message": "boom"})
ACK = ("stop_acknowledged", "0", None, {})
START_A = {"kind": "activity_start", "position": "a"}
START_B = {"kind": "activity_start", "position": "b"}
ORDER = {"op": "order", "first": START_A, "then": START_B}
KOFN = {"op": "k_of_n_join", "k": 1, "n": 2}
SECTION = {"op": "section_exclusive", "section": "s"}
GROUPS = {"op": "no_interleave", "groups": [["a1", "a2"], ["b1"]]}
BETWEEN = {
    "op": "between",
    "target": {"kind": "activity_start", "position": "x"},
    "after": {"kind": "activity_end", "position": "on"},
    "before": {"kind": "activity_start", "position": "off"},
}
SAVED = {"op": "saved_passthroughs", "equals": 1}
SAVED_TOKEN = {"branches": [{"id": "0", "path": [0], "token": "t"}]}


@pytest.mark.parametrize(
    "assertion, failing, message, passing",
    [
        pytest.param(
            {"op": "lifecycle", "equals": "finished"},
            artifacts([], result="stopped"),
            "lifecycle is stopped, expected finished",
            artifacts([]),
            id="lifecycle",
        ),
        pytest.param(
            {"op": "count", "kind": "activity_start", "position": "a", "equals": 1},
            trace(start("a"), start("a")),
            "count {'kind': 'activity_start', 'position': 'a'} is 2, expected 1",
            trace(start("a"), start("b")),
            id="count-equals",
        ),
        pytest.param(
            {"op": "count", "kind": "activity_start", "min": 2},
            trace(start("a")),
            "count {'kind': 'activity_start'} is 1, expected >= 2",
            trace(start("a"), start("b")),
            id="count-min",
        ),
        pytest.param(
            {"op": "count", "kind": "activity_start", "max": 1},
            trace(start("a"), start("b")),
            "count {'kind': 'activity_start'} is 2, expected <= 1",
            trace(start("a")),
            id="count-max",
        ),
        pytest.param(
            {"op": "absent", "kind": "error"},
            trace(start("a"), ERROR),
            "unexpected event {'kind': 'error'} at seq 2",
            trace(start("a")),
            id="absent",
        ),
        pytest.param(
            ORDER,
            trace(start("b")),
            f"missing event {START_A}",
            trace(start("a"), start("b")),
            id="order-no-first",
        ),
        pytest.param(
            ORDER,
            trace(start("a")),
            f"missing event {START_B}",
            trace(start("a"), start("b")),
            id="order-no-then",
        ),
        pytest.param(
            ORDER,
            trace(start("b"), start("a")),
            f"{START_A} (idx 1) does not precede {START_B} (idx 0)",
            trace(start("a"), start("b")),
            id="order-inverted",
        ),
        pytest.param(
            {"op": "context", "name": "x", "equals": 1},
            artifacts([], context={"x": 2}),
            "context x is 2, expected 1",
            artifacts([], context={"x": 1}),
            id="context",
        ),
        pytest.param(
            {"op": "sequence", "equals": ["a", "b"]},
            trace(start("b"), start("a")),
            "activity sequence ['b', 'a'] != ['a', 'b']",
            trace(start("a"), end("a"), start("b")),
            id="sequence",
        ),
        pytest.param(
            KOFN,
            trace(join("arrive", "0.1")),
            "join never fired",
            trace(join("arrive", "0.1"), join("fire", "0"), signal("no_longer_necessary", "0.2")),
            id="k-of-n-never-fired",
        ),
        pytest.param(
            KOFN,
            trace(join("arrive", "0.1"), join("arrive", "0.2"), join("fire", "0")),
            "2 branches completed before the join, expected 1",
            trace(join("arrive", "0.1"), join("fire", "0"), signal("no_longer_necessary", "0.2")),
            id="k-of-n-arrivals",
        ),
        pytest.param(
            KOFN,
            trace(join("arrive", "0.1"), join("fire", "0")),
            "0 no-longer-necessary signals, expected 1",
            trace(join("arrive", "0.1"), join("fire", "0"), signal("no_longer_necessary", "0.2")),
            id="k-of-n-cancels",
        ),
        pytest.param(
            KOFN,
            trace(
                join("arrive", "0.1"),
                join("fire", "0"),
                signal("no_longer_necessary", "0.2"),
                start("late", "0.2"),
            ),
            "branch 0.2 started an activity after its cancel signal",
            trace(
                join("arrive", "0.1"),
                start("late", "0.2"),
                join("fire", "0"),
                signal("no_longer_necessary", "0.2"),
            ),
            id="k-of-n-start-after-cancel",
        ),
        pytest.param(
            SECTION,
            trace(
                signal("critical_enter", "0.1", section="s"),
                signal("critical_enter", "0.2", section="s"),
                signal("critical_exit", "0.1", section="s"),
                signal("critical_exit", "0.2", section="s"),
            ),
            "overlapping critical spans in 's': [((0, 2, '0.1'), (1, 3, '0.2'))]",
            trace(
                signal("critical_enter", "0.1", section="s"),
                signal("critical_exit", "0.1", section="s"),
                signal("critical_enter", "0.2", section="s"),
                signal("critical_exit", "0.2", section="s"),
            ),
            id="section-exclusive",
        ),
        pytest.param(
            GROUPS,
            trace(start("a1"), start("b1"), end("a2")),
            "activity b1 interleaves group ['a1', 'a2'] at seq 2",
            trace(start("a1"), end("a2"), start("b1")),
            id="no-interleave",
        ),
        pytest.param(
            BETWEEN,
            trace(start("x"), start("off")),
            "window events missing from the trace",
            trace(end("on"), start("x"), start("off")),
            id="between-no-window",
        ),
        pytest.param(
            BETWEEN,
            trace(start("x"), end("on"), start("off")),
            "target event at idx 0 is outside the window (1, 2)",
            trace(end("on"), start("x"), start("off")),
            id="between-outside",
        ),
        pytest.param(
            BETWEEN,
            trace(end("on"), start("off")),
            "target event never happened",
            trace(end("on"), start("x"), start("off")),
            id="between-never",
        ),
        pytest.param(
            {"op": "invocations", "position": "a", "equals": 1},
            artifacts([], invocations={"a": 2}),
            "a invoked 2 times, expected 1",
            artifacts([], invocations={"a": 1}),
            id="invocations",
        ),
        pytest.param(
            {"op": "metric", "key": "m", "equals": 1},
            artifacts([], metrics={"m": 2}),
            "metric m is 2, expected 1",
            artifacts([], metrics={"m": 1}),
            id="metric",
        ),
        pytest.param(
            {"op": "no_start_after_ack"},
            trace(start("a")),
            "stop was never acknowledged",
            trace(start("a"), ACK),
            id="no-start-after-ack-never",
        ),
        pytest.param(
            {"op": "no_start_after_ack"},
            trace(ACK, start("late")),
            "activity late started after stop_acknowledged",
            trace(start("a"), ACK, end("a")),
            id="no-start-after-ack",
        ),
        pytest.param(
            SAVED,
            artifacts([], result="stopped", saved={"branches": [{"id": "0", "path": [1]}]}),
            "saved 0 passthroughs, expected 1",
            artifacts([], result="stopped", saved=SAVED_TOKEN),
            id="saved-passthroughs",
        ),
        pytest.param(
            SAVED,
            artifacts([]),
            "saved 0 passthroughs, expected 1",
            artifacts([], result="stopped", saved=SAVED_TOKEN),
            id="saved-passthroughs-none-saved",
        ),
        pytest.param(
            {"op": "bogus"}, artifacts([]), "unknown assertion op 'bogus'", None, id="unknown-op"
        ),
    ],
)
def test_each_assertion_op_fails_with_its_message_and_passes_its_twin(
    assertion, failing, message, passing
):
    assert check_assertion(assertion, failing) == message
    if passing is not None:  # an unknown op holds for no run
        assert check_assertion(assertion, passing) is None


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
