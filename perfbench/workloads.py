"""Closed-loop workload runners and their output checks.

One client thread runs instances one after another: the next instance
starts only after the previous one has finished and been checked. Every
runner first warms up (lazy imports, first-call caches), then measures for
the given number of seconds and returns a Tally. Only the time inside
instances counts toward throughput; checks run between instances.

A failed check is counted and never raised, so one bad instance cannot
end the run.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from wee import dsl
from wee.engine import RunOptions, WorkflowInstance
from wee.handlers import MockHandler
from wee.patterns import harness

import calibrate
import gen

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WARMUP_S = 0.5
STOP_START_TIMEOUT_S = 5.0
MAX_REPORTED_FAILURES = 5


@dataclass
class Tally:
    """What one measured run produced, before any statistics."""

    instance_ms: list[float] = field(default_factory=list)
    # per operation (instance; corpus: one run_all pass), in run order: wall
    # and process CPU time, activities, and the calibration chunk's CPU time
    # measured right after the operation
    op_seconds: list[float] = field(default_factory=list)
    op_cpu_seconds: list[float] = field(default_factory=list)
    op_activities: list[int] = field(default_factory=list)
    op_chunk_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bad_outputs: int = 0  # instances (corpus: cases) whose output checks failed
    failures: list[str] = field(default_factory=list)
    stop_ms: list[float] = field(default_factory=list)
    resume_ms: list[float] = field(default_factory=list)
    slowest_case_ms: list[float] = field(default_factory=list)
    repeated_calls: int = 0
    lost_calls: int = 0

    def add_op(self, seconds: float, cpu_seconds: float, activities: int) -> None:
        """Record one finished operation, then gauge the host's speed."""
        self.op_seconds.append(seconds)
        self.op_cpu_seconds.append(cpu_seconds)
        self.op_activities.append(activities)
        self.op_chunk_ms.append(calibrate.chunk_cpu_ms())

    def fail(self, count: int, messages: list[str], bad_outputs: int = 1) -> None:
        self.failed += count
        self.bad_outputs += bad_outputs
        for message in messages:
            if len(self.failures) < MAX_REPORTED_FAILURES and message not in self.failures:
                self.failures.append(message)


# ---------------------------------------------------------------------------
# Output checks: each returns failure messages, empty when the output holds
# ---------------------------------------------------------------------------


def check_seq(records) -> list[str]:
    """Seq numbers rise by one; a log that starts afresh restarts at 1."""
    for prev, record in zip(records, records[1:]):
        restart = record.kind == "instance_start" and record.seq == 1
        if record.seq != prev.seq + 1 and not restart:
            return [f"seq gap: {prev.seq} -> {record.seq}"]
    return []


def check_replay(records, initial: dict, final: dict) -> list[str]:
    if harness.replay_context(records, initial) != final:
        return ["replaying context_change does not reproduce the final context"]
    return []


def check_values(final: dict, expected: dict) -> list[str]:
    wrong = {k: (final.get(k), v) for k, v in expected.items() if final.get(k) != v}
    return [f"final values (actual, expected): {wrong}"] if wrong else []


def check_trace_file(path: Path, records) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        parsed = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        return [f"trace file unreadable: {exc}"]
    if len(parsed) != len(records):
        return [f"trace file has {len(parsed)} lines, memory has {len(records)} records"]
    return []


def call_mismatch(actual: dict[str, int], reference: dict[str, int]) -> tuple[int, int]:
    """(repeated, lost) handler invocations against a run never stopped."""
    repeated = lost = 0
    for position in set(actual) | set(reference):
        diff = actual.get(position, 0) - reference.get(position, 0)
        repeated += max(diff, 0)
        lost += max(-diff, 0)
    return repeated, lost


def count_activities(records) -> int:
    return sum(1 for r in records if r.kind == "activity_end")


# ---------------------------------------------------------------------------
# Set-up: what setup_s times in a fresh interpreter
# ---------------------------------------------------------------------------


def parse_checked(source: str) -> dsl.WorkflowAst:
    ast = dsl.parse(source)
    diagnostics = dsl.validate(ast)
    if diagnostics:
        raise ValueError(f"generated workflow is invalid: {diagnostics[0]}")
    return ast


def build_all(workflows: dict[str, gen.Workflow], seed: int) -> None:
    """Parse and validate every workload's workflows and build their handlers."""
    for workflow in workflows.values():
        parse_checked(workflow.source)
        MockHandler(workflow.script, seed=seed)
    for pattern_class, name, slug, support in harness.REFERENCE_LEVELS:
        case = harness.load_case(harness.DEFAULT_CORPUS, pattern_class, name, slug, support)
        if case.source is not None:
            parse_checked(case.source)
            harness.build_case_handler(case, seed)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _span(tracer, index: int, tally: Optional[Tally]):
    """The traced run's root span of one instance; warm-up instances get -1."""
    return tracer.instance(index if tally else -1) if tracer else nullcontext()


def _loop(seconds: float, step: Callable[[int, Optional[Tally]], None]) -> Tally:
    """Warm up untimed, then call step until `seconds` have passed.

    A full collection before every step starts each instance from the same
    collector state, so that no instance pays for garbage its predecessors
    (or their checks) left behind.
    """
    index = 0
    warm_until = time.perf_counter() + WARMUP_S
    while index < 1 or time.perf_counter() < warm_until:
        gc.collect()
        step(index, None)
        index += 1
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        step(index, tally)
        index += 1
        if time.perf_counter() >= deadline:
            return tally


def run_seq_loop(seed: int, seconds: float, tracer=None, tamper=None) -> Tally:
    workflow = gen.seq_loop(seed)
    ast = parse_checked(workflow.source)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / "seq_loop.trace.jsonl"

    def step(index: int, tally: Optional[Tally]) -> None:
        handler = MockHandler(workflow.script, seed=seed)
        options = RunOptions(log_path=str(trace_path))
        with _span(tracer, index, tally):
            started, cpu_started = time.perf_counter(), time.process_time()
            instance = WorkflowInstance(ast, handler, options)
            result = instance.run()
            elapsed, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        records = instance.log.records
        if tamper:
            tamper(trace_path, records)
        final = dict(instance.store.current_values())
        failures = [] if result == "finished" else [f"instance ended {result}"]
        failures += check_seq(records)
        failures += check_replay(records, instance.store.initial_values, final)
        failures += check_trace_file(trace_path, records)
        failures += check_values(final, workflow.expected)
        if tracer and tally:
            tracer.observe(records, trace_path)
        if tally is None:
            return
        tally.instance_ms.append(elapsed * 1000)
        tally.add_op(elapsed, cpu, count_activities(records))
        tally.attempted += 1
        if failures:
            tally.fail(1, failures)

    return _loop(seconds, step)


def run_fanout(seed: int, seconds: float, tracer=None, tamper=None) -> Tally:
    workflow = gen.fanout(seed)
    ast = parse_checked(workflow.source)

    def step(index: int, tally: Optional[Tally]) -> None:
        initial, expected = gen.fanout_instance(workflow, seed, index)
        handler = MockHandler(workflow.script, seed=seed)
        with _span(tracer, index, tally):
            started, cpu_started = time.perf_counter(), time.process_time()
            instance = WorkflowInstance(ast, handler, initial_context=initial)
            result = instance.run()
            elapsed, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        records = instance.log.records
        if tamper:
            tamper(None, records)
        final = dict(instance.store.current_values())
        failures = [] if result == "finished" else [f"instance ended {result}"]
        failures += check_seq(records)
        failures += check_replay(records, instance.store.initial_values, final)
        failures += check_values(final, expected)
        if tracer and tally:
            tracer.observe(records)
        if tally is None:
            return
        tally.instance_ms.append(elapsed * 1000)
        tally.add_op(elapsed, cpu, count_activities(records))
        tally.attempted += 1
        if failures:
            tally.fail(1, failures)

    return _loop(seconds, step)


def _wait_in_flight(handler: MockHandler, count: int) -> bool:
    """Wait until `count` calls have reached the handler."""
    deadline = time.perf_counter() + STOP_START_TIMEOUT_S
    while sum(handler.invocations.values()) < count:
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.0002)
    return True


def run_stop_resume(seed: int, seconds: float, tracer=None, tamper=None) -> Tally:
    workflow = gen.stop_resume(seed)
    ast = parse_checked(workflow.source)
    in_flight = workflow.params["in_flight"]

    reference_handler = MockHandler(workflow.script, seed=gen.handler_seed(seed, -1))
    reference = WorkflowInstance(ast, reference_handler)
    if reference.run() != "finished":
        raise RuntimeError("stop_resume reference run did not finish")
    expected_calls = dict(reference_handler.invocations)

    def step(index: int, tally: Optional[Tally]) -> None:
        handler = MockHandler(workflow.script, seed=gen.handler_seed(seed, index))
        with _span(tracer, index, tally):
            started, cpu_started = time.perf_counter(), time.process_time()
            first = WorkflowInstance(ast, handler).start()
            poll_started = time.thread_time()
            all_started = _wait_in_flight(handler, in_flight)
            # the client's polling is not the program's work
            poll_cpu = time.thread_time() - poll_started
            stop_requested_wall = time.time()
            stop_started = time.perf_counter()
            first.request_stop(source="controller")
            first_result = first.wait()
            stopped, cpu_stopped = time.perf_counter(), time.process_time()
            if first_result != "stopped":
                if tally is not None:
                    tally.attempted += sum(expected_calls.values())
                    tally.fail(sum(expected_calls.values()), [f"first phase ended {first_result}"])
                return
            saved = json.loads(json.dumps(first.save()))
            options = RunOptions(
                instance_id=first.instance_id, start_seq=first.log.records[-1].seq
            )
            resume_started, cpu_resume_started = time.perf_counter(), time.process_time()
            resumed = WorkflowInstance.resume(ast, handler, saved, options)
            result = resumed.run()
            finished, cpu_finished = time.perf_counter(), time.process_time()

        failures = [] if all_started else ["calls did not all start before the stop"]
        records = list(first.log.records) + list(resumed.log.records)
        if tamper:
            tamper(None, records)
        final = dict(resumed.store.current_values())
        if result != "finished":
            failures.append(f"resumed instance ended {result}")
        failures += check_seq(records)
        failures += check_replay(records, first.store.initial_values, final)
        failures += check_values(final, workflow.expected)
        repeated, lost = call_mismatch(handler.invocations, expected_calls)
        if tracer and tally:
            tracer.observe(records, stop_requested_wall=stop_requested_wall)
        if tally is None:
            return
        calls = sum(expected_calls.values())
        elapsed = (stopped - started) + (finished - resume_started)
        cpu = (cpu_stopped - cpu_started - poll_cpu) + (cpu_finished - cpu_resume_started)
        tally.instance_ms.append(elapsed * 1000)
        tally.add_op(elapsed, cpu, count_activities(records))
        tally.stop_ms.append((stopped - stop_started) * 1000)
        tally.resume_ms.append((finished - resume_started) * 1000)
        tally.attempted += calls
        tally.repeated_calls += repeated
        tally.lost_calls += lost
        if failures:
            # an instance whose output is wrong fails every call it made
            tally.fail(calls, failures)
        elif repeated or lost:
            # the known exactly-once defect: failed calls, although the
            # instance's output is right
            tally.fail(
                min(repeated + lost, calls),
                [f"{repeated} calls repeated, {lost} lost: {handler.invocations} vs {expected_calls}"],
                bad_outputs=0,
            )

    return _loop(seconds, step)


def run_corpus(seed: int, seconds: float, tracer=None, tamper=None) -> Tally:
    def step(index: int, tally: Optional[Tally]) -> None:
        with _span(tracer, index, tally):
            started, cpu_started = time.perf_counter(), time.process_time()
            report = harness.run_all(parallel=False, seed=seed)
            elapsed, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        ran = [r for r in report.results if r.records is not None]
        if tamper:
            tamper(None, ran[0].records)
        failed = [f"{r.slug}: {r.failures[:1]}" for r in report.results if not r.passed]
        failed += [f"{r.slug}: {msg}" for r in ran for msg in check_seq(r.records)]
        if not report.all_passed and not failed:
            failed.append("run_all reports a failure")
        if tracer and tally:
            for r in ran:
                tracer.observe(r.records)
        if tally is None:
            return
        # one pass is the instance: its time is mostly scripted waits and
        # cancellations, while the median single case is CPU-bound
        tally.instance_ms.append(elapsed * 1000)
        tally.slowest_case_ms.append(max(r.elapsed for r in ran) * 1000)
        tally.add_op(elapsed, cpu, sum(count_activities(r.records) for r in ran))
        tally.attempted += len(report.results)
        if failed:
            cases = len({m.split(":")[0] for m in failed})
            tally.fail(cases, failed, bad_outputs=cases)

    return _loop(seconds, step)


RUNNERS = {
    "seq_loop": run_seq_loop,
    "fanout": run_fanout,
    "stop_resume": run_stop_resume,
    "corpus": run_corpus,
}
