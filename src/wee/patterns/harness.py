"""Run the control-flow pattern corpus and report coverage.

Each case couples a workflow fixture with a handler script and a list of
trace assertions (pure predicates over the JSONL event records). Patterns
that would need a controller coordinating several engine instances carry no
workflow; they are reported at the "orchestrated" level, i.e. unsupported by
design. The per-pattern levels are compared cell-by-cell against the
reference classification below, and the aggregate recount is reported next
to the published 22/10/11 summary; the two do not agree and the report says
so rather than papering over it.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .. import dsl
from ..engine import RunOptions, WorkflowInstance
from ..events import EventRecord
from ..expressions import Value
from ..handlers import (
    HandlerWrapper,
    JumpHandler,
    MockHandler,
    RecursiveHandler,
    Result,
    TriggerEvent,
    TriggerHandler,
)

DIRECT = "direct"
MODIFIED = "modified"
HANDLER_EXTERNAL = "handler_external"
ORCHESTRATED = "orchestrated"

LEVELS = (DIRECT, MODIFIED, HANDLER_EXTERNAL, ORCHESTRATED)

LEVEL_MARKS = {DIRECT: "++", MODIFIED: "+", HANDLER_EXTERNAL: "*", ORCHESTRATED: "x"}

# Reference classification: (class, pattern name, slug, support level).
# The aggregate published alongside it folds direct to "+", modified and
# handler/external to "+/-", and orchestrated to "-".
REFERENCE_LEVELS: tuple[tuple[str, str, str, str], ...] = (
    ("Basic", "Sequence", "sequence", DIRECT),
    ("Basic", "Parallel Split", "parallel_split", DIRECT),
    ("Basic", "Synchronization", "synchronization", DIRECT),
    ("Basic", "Exclusive Choice", "exclusive_choice", DIRECT),
    ("Basic", "Simple Merge", "simple_merge", DIRECT),
    ("Advanced Branching", "Multi-Choice", "multi_choice", DIRECT),
    ("Advanced Branching", "Structured Synchronizing Merge", "structured_synchronizing_merge", DIRECT),
    ("Advanced Branching", "Multi-Merge", "multi_merge", ORCHESTRATED),
    ("Advanced Branching", "Structured Discriminator", "structured_discriminator", ORCHESTRATED),
    ("Advanced Branching", "Blocking Discriminator", "blocking_discriminator", ORCHESTRATED),
    ("Advanced Branching", "Cancelling Discriminator", "cancelling_discriminator", DIRECT),
    ("Advanced Branching", "Structured Partial Join", "structured_partial_join", ORCHESTRATED),
    ("Advanced Branching", "Blocking Partial Join", "blocking_partial_join", ORCHESTRATED),
    ("Advanced Branching", "Cancelling Partial Join", "cancelling_partial_join", DIRECT),
    ("Advanced Branching", "Generalised AND-Join", "generalised_and_join", ORCHESTRATED),
    ("Advanced Branching", "Local Synchronizing Merge", "local_synchronizing_merge", ORCHESTRATED),
    ("Advanced Branching", "General Synchronizing Merge", "general_synchronizing_merge", ORCHESTRATED),
    ("Advanced Branching", "Thread Merge", "thread_merge", DIRECT),
    ("Advanced Branching", "Thread Split", "thread_split", DIRECT),
    ("Multiple Instances", "Multiple Instances without Synchronization", "mi_without_synchronization", HANDLER_EXTERNAL),
    ("Multiple Instances", "Multiple Instances with a Priori Design-Time Knowledge", "mi_design_time", DIRECT),
    ("Multiple Instances", "Multiple Instances with a Priori Run-Time Knowledge", "mi_runtime", DIRECT),
    ("Multiple Instances", "Multiple Instances without a Priori Run-Time Knowledge", "mi_without_apriori", DIRECT),
    ("Multiple Instances", "Static Partial Join for Multiple Instances", "static_partial_join_mi", ORCHESTRATED),
    ("Multiple Instances", "Cancelling Partial Join for Multiple Instances", "cancelling_partial_join_mi", DIRECT),
    ("Multiple Instances", "Dynamic Partial Join for Multiple Instances", "dynamic_partial_join_mi", ORCHESTRATED),
    ("State Based", "Deferred Choice", "deferred_choice", MODIFIED),
    ("State Based", "Interleaved Parallel Routing", "interleaved_parallel_routing", DIRECT),
    ("State Based", "Milestone", "milestone", MODIFIED),
    ("State Based", "Critical Section", "critical_section", DIRECT),
    ("State Based", "Interleaved Routing", "interleaved_routing", DIRECT),
    ("Cancellation", "Cancel Task", "cancel_task", DIRECT),
    ("Cancellation", "Cancel Case", "cancel_case", DIRECT),
    ("Cancellation", "Cancel Region", "cancel_region", HANDLER_EXTERNAL),
    ("Cancellation", "Cancel Multiple Instance Activity", "cancel_mi_activity", DIRECT),
    ("Cancellation", "Complete Multiple Instance Activity", "complete_mi_activity", ORCHESTRATED),
    ("Iteration", "Arbitrary Cycles", "arbitrary_cycles", HANDLER_EXTERNAL),
    ("Iteration", "Structured Loop", "structured_loop", DIRECT),
    ("Iteration", "Recursion", "recursion", HANDLER_EXTERNAL),
    ("Termination", "Implicit Termination", "implicit_termination", DIRECT),
    ("Termination", "Explicit Termination", "explicit_termination", DIRECT),
    ("Trigger", "Transient Trigger", "transient_trigger", HANDLER_EXTERNAL),
    ("Trigger", "Persistent Trigger", "persistent_trigger", HANDLER_EXTERNAL),
)

PUBLISHED_SUMMARY = {"plus": 22, "plus_minus": 10, "minus": 11}

# Third-party engine numbers are quoted for context only, never re-evaluated.
BASELINE_ENGINES = (
    ("StaffWare 10", 14, 0, 29),
    ("WebSphere MQ 3.4", 11, 0, 32),
    ("Oracle BPEL PM 10.12", 18, 6, 19),
    ("JBoss jBPM 3.1.4.2", 13, 2, 28),
    ("OpenWFE 1.7.3", 20, 4, 19),
    ("Enhydra Shark 2.0", 11, 0, 32),
)

CLASS_DIRS = {
    "Basic": "basic",
    "Advanced Branching": "advanced_branching",
    "Multiple Instances": "multiple_instances",
    "State Based": "state_based",
    "Cancellation": "cancellation",
    "Iteration": "iteration",
    "Termination": "termination",
    "Trigger": "trigger",
}

DEFAULT_CORPUS = Path(__file__).parent / "corpus"

_TINY_WORKFLOW = """
workflow {
  handler "mock"
  context ticks: 0
  manipulate :tick { ticks = ticks + 1 }
}
"""


class SpawnerHandler(HandlerWrapper):
    """Launches fire-and-forget engine instances, one per requested copy.

    The spawning call returns immediately; the outer workflow gets no say
    over (and no report of) the detached instances.
    """

    def __init__(self, count: int, nested_source: Optional[str] = None):
        self.count = count
        self.nested_source = nested_source or _TINY_WORKFLOW
        self.spawned = 0
        self.completed = 0
        self._lock = threading.Lock()
        self.invocations: dict[str, int] = {}

    def call(self, call):
        with self._lock:
            self.invocations[call.position] = self.invocations.get(call.position, 0) + 1
        ast = dsl.parse(self.nested_source)

        def run_detached() -> None:
            WorkflowInstance(ast, MockHandler()).run()
            with self._lock:
                self.completed += 1

        for _ in range(self.count):
            with self._lock:
                self.spawned += 1
            threading.Thread(target=run_detached, daemon=True).start()
        return Result({})


@dataclass
class PatternCase:
    slug: str
    name: str
    pattern_class: str
    support: str
    workflow_path: Optional[Path]
    source: Optional[str]
    script: dict
    assertions: list[dict]
    scenario: Optional[dict]
    note: str = ""


@dataclass
class PatternResult:
    slug: str
    name: str
    pattern_class: str
    expected_support: str
    achieved_support: str
    passed: bool
    failures: list[str] = field(default_factory=list)
    result_state: Optional[str] = None
    replay_ok: Optional[bool] = None
    elapsed: float = 0.0
    records: Optional[list[EventRecord]] = None  # kept for post-hoc trace checks


@dataclass
class CoverageReport:
    results: list[PatternResult]
    counts: dict[str, int]
    recount: dict[str, int]
    published: dict[str, int]
    summary_matches_cells: bool
    all_passed: bool

    def to_json(self) -> dict:
        return {
            "patterns": [
                {
                    "name": r.name,
                    "class": r.pattern_class,
                    "support": r.achieved_support,
                    "expected_support": r.expected_support,
                    "passed": r.passed,
                    "failures": r.failures,
                    "result_state": r.result_state,
                }
                for r in self.results
            ],
            "counts_by_level": self.counts,
            "recount_plus_minus": self.recount,
            "published_summary": self.published,
            "summary_matches_cells": self.summary_matches_cells,
            "baseline_engines": [
                {"product": name, "plus": p, "plus_minus": pm, "minus": m}
                for name, p, pm, m in BASELINE_ENGINES
            ],
        }

    def render_table(self) -> str:
        lines = []
        header = f"{'class':<22} {'pattern':<52} {'level':<6} ok"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.results:
            mark = LEVEL_MARKS[r.achieved_support] if r.achieved_support in LEVEL_MARKS else "?"
            ok = "pass" if r.passed else "FAIL"
            lines.append(f"{r.pattern_class:<22} {r.name:<52} {mark:<6} {ok}")
        lines.append("-" * len(header))
        lines.append(
            "levels: ++ direct | + modified workflow | * handler/external | x orchestrated instances (unsupported)"
        )
        lines.append(
            "cells:  "
            + "  ".join(f"{level}={count}" for level, count in self.counts.items())
        )
        lines.append(
            f"recount as +/-: plus={self.recount['plus']} plus_minus={self.recount['plus_minus']} "
            f"minus={self.recount['minus']}  |  published summary: "
            f"plus={self.published['plus']} plus_minus={self.published['plus_minus']} "
            f"minus={self.published['minus']}"
        )
        if not self.summary_matches_cells:
            lines.append(
                "NOTE: the published summary does not match a cell-by-cell recount of the table; "
                "both are reported."
            )
        lines.append("for context (reported elsewhere, not re-evaluated):")
        for name, p, pm, m in BASELINE_ENGINES:
            lines.append(f"  {name:<22} + {p:>2}   +/- {pm:>2}   - {m:>2}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Case loading
# ---------------------------------------------------------------------------


def load_case(corpus: Path, pattern_class: str, name: str, slug: str, support: str) -> PatternCase:
    class_dir = corpus / CLASS_DIRS[pattern_class]
    assert_path = class_dir / f"{slug}.assert.json"
    if not assert_path.exists():
        raise FileNotFoundError(f"missing case file {assert_path}")
    spec = json.loads(assert_path.read_text(encoding="utf-8"))

    for key, expected in (("pattern", name), ("class", pattern_class), ("support", support)):
        if spec.get(key) != expected:
            raise ValueError(f"{assert_path}: '{key}' is {spec.get(key)!r}, expected {expected!r}")

    workflow_path = class_dir / f"{slug}.wee"
    source = None
    if support != ORCHESTRATED:
        if not workflow_path.exists():
            raise FileNotFoundError(f"missing workflow {workflow_path}")
        source = workflow_path.read_text(encoding="utf-8")

    script_path = class_dir / f"{slug}.script.json"
    script = json.loads(script_path.read_text(encoding="utf-8")) if script_path.exists() else {}

    return PatternCase(
        slug=slug,
        name=name,
        pattern_class=pattern_class,
        support=support,
        workflow_path=workflow_path if source is not None else None,
        source=source,
        script=script,
        assertions=spec.get("assertions", []),
        scenario=spec.get("scenario"),
        note=spec.get("note", ""),
    )


def build_case_handler(case: PatternCase, seed: int) -> HandlerWrapper:
    kind = case.script.get("handler", "mock")
    if kind == "mock":
        return MockHandler(case.script.get("script", {}), seed=seed)
    if kind == "jump":
        return JumpHandler(case.script.get("table", {}))
    if kind == "trigger":
        events = [
            TriggerEvent(float(e.get("t", 0)), str(e["key"]))
            for e in case.script.get("pre_events", [])
        ]
        return TriggerHandler(case.script.get("mode", "persistent"), events=events)
    if kind == "recursive":
        return RecursiveHandler(source=case.source, max_depth=case.script.get("max_depth", 16))
    if kind == "spawner":
        return SpawnerHandler(
            case.script.get("count", 3), case.script.get("nested_workflow")
        )
    raise ValueError(f"unknown case handler '{kind}'")


def handler_metrics(handler: HandlerWrapper) -> dict[str, object]:
    metrics: dict[str, object] = {}
    for attr in ("spawned", "completed", "stored_matches", "live_matches", "withdrawn"):
        if hasattr(handler, attr):
            metrics[attr] = getattr(handler, attr)
    return metrics


# ---------------------------------------------------------------------------
# Trace assertions
# ---------------------------------------------------------------------------


def _matches(record: EventRecord, matcher: dict) -> bool:
    if "kind" in matcher and record.kind != matcher["kind"]:
        return False
    if "position" in matcher and record.position != matcher["position"]:
        return False
    if "branch" in matcher and record.branch != matcher["branch"]:
        return False
    if "signal" in matcher and record.detail.get("signal") != matcher["signal"]:
        return False
    if "role" in matcher and record.detail.get("role") != matcher["role"]:
        return False
    if "section" in matcher and record.detail.get("section") != matcher["section"]:
        return False
    return True


def _first_index(records: list[EventRecord], matcher: dict) -> Optional[int]:
    for i, record in enumerate(records):
        if _matches(record, matcher):
            return i
    return None


def _activity_spans(records: list[EventRecord], position: str) -> list[tuple[int, int]]:
    spans = []
    open_at: Optional[int] = None
    for i, record in enumerate(records):
        if record.position != position:
            continue
        if record.kind == "activity_start":
            open_at = i
        elif record.kind == "activity_end" and open_at is not None:
            spans.append((open_at, i))
            open_at = None
    return spans


def _section_spans(records: list[EventRecord], section: str) -> list[tuple[int, int, str]]:
    spans = []
    open_by_branch: dict[str, int] = {}
    for i, record in enumerate(records):
        if record.kind != "signal" or record.detail.get("section") != section:
            continue
        if record.detail.get("signal") == "critical_enter":
            open_by_branch[record.branch] = i
        elif record.detail.get("signal") == "critical_exit":
            start = open_by_branch.pop(record.branch, None)
            if start is not None:
                spans.append((start, i, record.branch))
    return spans


def overlapping_section_spans(records: list[EventRecord], section: str) -> list[tuple]:
    """Brute-force pairwise scan of critical-section spans for one name."""
    spans = _section_spans(records, section)
    clashes = []
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            a, b = spans[i], spans[j]
            if a[0] < b[1] and b[0] < a[1]:
                clashes.append((a, b))
    return clashes


@dataclass
class RunArtifacts:
    records: list[EventRecord]
    result_state: str
    final_context: dict[str, Value]
    initial_context: dict[str, Value]
    metrics: dict[str, object]
    invocations: dict[str, int]
    saved: Optional[dict] = None


def check_assertion(assertion: dict, run: RunArtifacts) -> Optional[str]:
    """Returns a failure message, or None when the assertion holds."""
    op = assertion["op"]
    records = run.records

    if op == "lifecycle":
        if run.result_state != assertion["equals"]:
            return f"lifecycle is {run.result_state}, expected {assertion['equals']}"
        return None

    if op == "count":
        matcher = {k: v for k, v in assertion.items() if k not in ("op", "equals", "min", "max")}
        n = sum(1 for r in records if _matches(r, matcher))
        if "equals" in assertion and n != assertion["equals"]:
            return f"count {matcher} is {n}, expected {assertion['equals']}"
        if "min" in assertion and n < assertion["min"]:
            return f"count {matcher} is {n}, expected >= {assertion['min']}"
        if "max" in assertion and n > assertion["max"]:
            return f"count {matcher} is {n}, expected <= {assertion['max']}"
        return None

    if op == "absent":
        matcher = {k: v for k, v in assertion.items() if k != "op"}
        index = _first_index(records, matcher)
        if index is not None:
            return f"unexpected event {matcher} at seq {records[index].seq}"
        return None

    if op == "order":
        first = _first_index(records, assertion["first"])
        then = _first_index(records, assertion["then"])
        if first is None:
            return f"missing event {assertion['first']}"
        if then is None:
            return f"missing event {assertion['then']}"
        if not first < then:
            return f"{assertion['first']} (idx {first}) does not precede {assertion['then']} (idx {then})"
        return None

    if op == "context":
        actual = run.final_context.get(assertion["name"])
        if actual != assertion["equals"]:
            return f"context {assertion['name']} is {actual!r}, expected {assertion['equals']!r}"
        return None

    if op == "sequence":
        starts = [r.position for r in records if r.kind == "activity_start"]
        if starts != assertion["equals"]:
            return f"activity sequence {starts} != {assertion['equals']}"
        return None

    if op == "k_of_n_join":
        k, n = assertion["k"], assertion["n"]
        fire = _first_index(records, {"kind": "branch_join", "role": "fire"})
        if fire is None:
            return "join never fired"
        arrivals_before = sum(
            1
            for r in records[:fire]
            if r.kind == "branch_join" and r.detail.get("role") == "arrive"
        )
        nln = sum(
            1
            for r in records
            if r.kind == "signal" and r.detail.get("signal") == "no_longer_necessary"
        )
        if arrivals_before != k:
            return f"{arrivals_before} branches completed before the join, expected {k}"
        if nln != n - k:
            return f"{nln} no-longer-necessary signals, expected {n - k}"
        for r in records:
            if r.kind == "signal" and r.detail.get("signal") == "no_longer_necessary":
                later = [
                    x
                    for x in records
                    if x.seq > r.seq and x.kind == "activity_start" and x.branch == r.branch
                ]
                if later:
                    return f"branch {r.branch} started an activity after its cancel signal"
        return None

    if op == "section_exclusive":
        clashes = overlapping_section_spans(records, assertion["section"])
        if clashes:
            return f"overlapping critical spans in '{assertion['section']}': {clashes[:3]}"
        return None

    if op == "no_interleave":
        groups: list[list[str]] = assertion["groups"]
        for gi, group in enumerate(groups):
            indices = [
                i
                for i, r in enumerate(records)
                if r.position in group and r.kind in ("activity_start", "activity_end")
            ]
            if not indices:
                continue
            lo, hi = min(indices), max(indices)
            others = {p for gj, g in enumerate(groups) if gj != gi for p in g}
            for i in range(lo, hi + 1):
                record = records[i]
                if record.position in others and record.kind in ("activity_start", "activity_end"):
                    return (
                        f"activity {record.position} interleaves group {group} at seq {record.seq}"
                    )
        return None

    if op == "between":
        after = _first_index(records, assertion["after"])
        before = _first_index(records, assertion["before"])
        if after is None or before is None:
            return "window events missing from the trace"
        for i, record in enumerate(records):
            if _matches(record, assertion["target"]) and not (after < i < before):
                return f"target event at idx {i} is outside the window ({after}, {before})"
        if _first_index(records, assertion["target"]) is None:
            return "target event never happened"
        return None

    if op == "invocations":
        actual = run.invocations.get(assertion["position"], 0)
        if actual != assertion["equals"]:
            return f"{assertion['position']} invoked {actual} times, expected {assertion['equals']}"
        return None

    if op == "metric":
        actual = run.metrics.get(assertion["key"])
        if actual != assertion["equals"]:
            return f"metric {assertion['key']} is {actual!r}, expected {assertion['equals']!r}"
        return None

    if op == "no_start_after_ack":
        ack = _first_index(records, {"kind": "stop_acknowledged"})
        if ack is None:
            return "stop was never acknowledged"
        for record in records[ack + 1 :]:
            if record.kind == "activity_start":
                return f"activity {record.position} started after stop_acknowledged"
        return None

    if op == "saved_passthroughs":
        saved = run.saved or {}
        count = len(saved.get("passthroughs", {}))
        if count != assertion["equals"]:
            return f"saved {count} passthroughs, expected {assertion['equals']}"
        return None

    return f"unknown assertion op '{op}'"


def replay_context(records: list[EventRecord], initial: dict[str, Value]) -> dict[str, Value]:
    """Fold the context_change records over the initial values."""
    values = dict(initial)
    for record in records:
        if record.kind == "context_change":
            for change in record.detail.get("changes", []):
                values[change["name"]] = change["new"]
    return values


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _stop_watcher(instance: WorkflowInstance, matcher: dict) -> None:
    """Deliver a stop as soon as the trace matches; runs on its own thread."""
    wanted = int(matcher.get("occurrence", 1))
    seen = 0
    hit = threading.Event()
    lock = threading.Lock()

    def listen(record: EventRecord) -> None:
        nonlocal seen
        plain = {k: v for k, v in matcher.items() if k != "occurrence"}
        if _matches(record, plain):
            with lock:
                seen += 1
                if seen >= wanted:
                    hit.set()

    instance.log.add_listener(listen)

    def stopper() -> None:
        if hit.wait(timeout=30):
            instance.request_stop(source="controller")

    threading.Thread(target=stopper, daemon=True).start()


def _start_deliveries(handler: TriggerHandler, deliveries: list[dict]) -> None:
    for item in deliveries:
        delay = float(item.get("at_ms", 0)) / 1000.0
        key = str(item["key"])

        def fire(delay=delay, key=key) -> None:
            time.sleep(delay)
            handler.deliver(key)

        threading.Thread(target=fire, daemon=True).start()


def run_case_workflow(case: PatternCase, seed: int = 0) -> RunArtifacts:
    """Execute a runnable case per its scenario and collect artifacts."""
    assert case.source is not None
    ast = dsl.parse(case.source)
    diagnostics = dsl.validate(ast)
    if diagnostics:
        raise ValueError(f"{case.slug}: invalid workflow: {diagnostics[0]}")
    handler = build_case_handler(case, seed)
    from ..context import ContextStore

    initial = dict(ContextStore.from_decls(ast.context_decls).initial_values)

    scenario = case.scenario or {}
    kind = scenario.get("type", "run")

    if kind == "run":
        instance = WorkflowInstance(ast, handler, RunOptions())
        if isinstance(handler, TriggerHandler):
            _start_deliveries(handler, scenario.get("deliver_after_start", []))
        if "stop_when" in scenario:
            # the watcher must listen before the first event can be emitted
            _stop_watcher(instance, scenario["stop_when"])
            instance.start()
            result = instance.wait()
        else:
            result = instance.run()
        saved = instance.save() if result == "stopped" else None
        return RunArtifacts(
            records=list(instance.log.records),
            result_state=result,
            final_context=dict(instance.store.current_values()),
            initial_context=initial,
            metrics=handler_metrics(handler),
            invocations=dict(getattr(handler, "invocations", {})),
            saved=saved,
        )

    if kind == "stop_resume":
        instance = WorkflowInstance(ast, handler, RunOptions())
        _stop_watcher(instance, scenario["stop_when"])
        instance.start()
        first_result = instance.wait()
        if first_result != "stopped":
            raise ValueError(f"{case.slug}: expected a stopped first phase, got {first_result}")
        saved = instance.save()

        skip: frozenset[str] = frozenset()
        if scenario.get("skip_region"):
            from ..cli import parse_skip_region

            skip = parse_skip_region(scenario["skip_region"], ast)
        resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(), skip_positions=skip)
        result = resumed.run()
        combined = list(instance.log.records) + list(resumed.log.records)
        return RunArtifacts(
            records=combined,
            result_state=result,
            final_context=dict(resumed.store.current_values()),
            initial_context=initial,
            metrics=handler_metrics(handler),
            invocations=dict(getattr(handler, "invocations", {})),
            saved=saved,
        )

    raise ValueError(f"{case.slug}: unknown scenario type '{kind}'")


def run_pattern(case: PatternCase, seed: int = 0) -> PatternResult:
    started = time.monotonic()
    if case.support == ORCHESTRATED:
        return PatternResult(
            slug=case.slug,
            name=case.name,
            pattern_class=case.pattern_class,
            expected_support=case.support,
            achieved_support=ORCHESTRATED,
            passed=True,
            result_state=None,
            elapsed=time.monotonic() - started,
        )

    failures: list[str] = []
    replay_ok: Optional[bool] = None
    result_state: Optional[str] = None
    records: Optional[list[EventRecord]] = None
    try:
        run = run_case_workflow(case, seed=seed)
        result_state = run.result_state
        records = run.records
        for assertion in case.assertions:
            message = check_assertion(assertion, run)
            if message is not None:
                failures.append(message)
        replayed = replay_context(run.records, run.initial_context)
        replay_ok = replayed == run.final_context
        if not replay_ok:
            failures.append(
                f"change-log replay mismatch: {replayed} != {run.final_context}"
            )
    except Exception as exc:  # engine errors count as case failures
        failures.append(f"{type(exc).__name__}: {exc}")

    passed = not failures
    return PatternResult(
        slug=case.slug,
        name=case.name,
        pattern_class=case.pattern_class,
        expected_support=case.support,
        achieved_support=case.support if passed else "failed",
        passed=passed,
        failures=failures,
        result_state=result_state,
        replay_ok=replay_ok,
        elapsed=time.monotonic() - started,
        records=records,
    )


def run_all(
    corpus_dir: Optional[str | Path] = None,
    parallel: bool = False,
    seed: int = 0,
) -> CoverageReport:
    corpus = Path(corpus_dir) if corpus_dir else DEFAULT_CORPUS
    cases = [
        load_case(corpus, pattern_class, name, slug, support)
        for pattern_class, name, slug, support in REFERENCE_LEVELS
    ]

    if parallel:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda c: run_pattern(c, seed=seed), cases))
    else:
        results = [run_pattern(case, seed=seed) for case in cases]

    counts = {level: 0 for level in LEVELS}
    for result in results:
        if result.achieved_support in counts:
            counts[result.achieved_support] += 1

    recount = {
        "plus": counts[DIRECT],
        "plus_minus": counts[MODIFIED] + counts[HANDLER_EXTERNAL],
        "minus": counts[ORCHESTRATED],
    }
    return CoverageReport(
        results=results,
        counts=counts,
        recount=recount,
        published=dict(PUBLISHED_SUMMARY),
        summary_matches_cells=recount == PUBLISHED_SUMMARY,
        all_passed=all(r.passed for r in results),
    )
