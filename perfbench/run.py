"""wee's benchmark: one closed-loop workload, its metrics and output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; wee is imported from the src/ directory next to this
one. Workloads (see BENCHMARK.json for why each was chosen):

  seq_loop     one long cycle per instance: manipulate + zero-delay call,
               300-variable context, trace written to a file
  fanout       short instances: 4-branch parallel, critical section, choose
  stop_resume  calls in flight (several at one shared position) are
               stopped, saved, round-tripped through JSON and resumed
  corpus       run_all over the 43-pattern corpus, sequentially

--trace 0 measures untraced and reports the end-to-end metrics: set-up
time, the time of one instance (median and tail), and peak resident set.
Set-up time is CPU time, and an instance's time is its time off the CPU
as measured plus its CPU time, both scaled to a reference host speed (see
calibrate.py): the speed of a shared host drifts by half within minutes.
The plain wall-clock figures and CPU throughput are printed but not gated.
--trace 1 spends half the time untraced and half traced, and reports the
per-layer metrics, the untraced half's wall-clock figures, and the tracing
overhead (traced against untraced).
Each measurement runs in a fresh worker process; setup_s is the median of
fresh interpreters that only set up, half of them run before the
measurement and half after it.

The human-readable report goes first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("seq_loop", "fanout", "stop_resume", "corpus")
# fresh interpreters timed before and again after the measurement, so that
# setup_s samples the machine at two moments of the run
SETUP_PROBES_EACH = 5
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "instance_ref_p50_ms": "ms",
    "instance_ref_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "dsl.parse_ms": "ms",
    "dsl.parse_tail_ms": "ms",
    "dsl.validate_ms": "ms",
    "dsl.validate_tail_ms": "ms",
    "expressions.eval_calls": "count",
    "expressions.eval_us": "us",
    "expressions.eval_tail_us": "us",
    "expressions.assign_calls": "count",
    "expressions.assign_us": "us",
    "expressions.assign_tail_us": "us",
    "context.commit_calls": "count",
    "context.commit_us": "us",
    "context.commit_tail_us": "us",
    "context.snapshot_calls": "count",
    "context.exclusive_wait_us": "us",
    "context.exclusive_wait_tail_us": "us",
    "events.emit_calls": "count",
    "events.emit_us": "us",
    "events.emit_tail_us": "us",
    "events.bytes_per_record": "bytes",
    "events.retained_records": "count",
    "handlers.call_calls": "count",
    "handlers.call_us": "us",
    "handlers.call_tail_us": "us",
    "handlers.stop_call_calls": "count",
    "handlers.interrupted_ratio": "ratio",
    "engine.fork_us": "us",
    "engine.fork_tail_us": "us",
    "engine.join_wake_us": "us",
    "engine.join_wake_tail_us": "us",
    "engine.critical_handoff_us": "us",
    "engine.critical_handoff_tail_us": "us",
    "engine.critical_hold_us": "us",
    "engine.critical_hold_tail_us": "us",
    "engine.stop_ack_us": "us",
    "engine.stop_ack_tail_us": "us",
    "engine.save_ms": "ms",
    "engine.save_tail_ms": "ms",
    "engine.resume_ms": "ms",
    "engine.resume_tail_ms": "ms",
    "engine.repeated_calls": "count",
    "engine.lost_calls": "count",
    "harness.check_ms": "ms",
    "harness.slowest_case_ms": "ms",
    "activities_per_cpu_s": "1/s",
    "activities_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "stop_p50_ms": "ms",
    "stop_tail_ms": "ms",
    "resume_p50_ms": "ms",
    "corpus_s": "s",
    "trace.overhead_activities_pct": "%",
    "trace.overhead_instance_p50_pct": "%",
}

# end-to-end figures that are not gated: wall-clock ones, which drift with
# the load of a shared host, and those of one workload only. Reported with
# the layers, and 0 on the workloads they do not apply to.
SPECIFIC = (
    "activities_per_cpu_s",
    "activities_per_s",
    "instance_p50_ms",
    "instance_tail_ms",
    "stop_p50_ms",
    "stop_tail_ms",
    "resume_p50_ms",
    "corpus_s",
)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:3])} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} failed:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd[1:3])} printed nothing")
    return lines[-1]


def setup_probes(seed: int) -> list[dict]:
    cmd = [sys.executable, str(HERE / "probe.py"), "--seed", str(seed)]
    return [json.loads(_run(cmd, PROBE_TIMEOUT_S)) for _ in range(SETUP_PROBES_EACH)]


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", repr(seconds)]
    if traced:
        cmd.append("--traced")
    return json.loads(_run(cmd, seconds * 2 + WORKER_GRACE_S))


def overhead_pct(plain: dict, traced: dict) -> dict[str, float]:
    """How much slower the traced run was, in percent of the untraced one."""
    p, t = plain["specific"], traced["specific"]
    return {
        "trace.overhead_activities_pct": (p["activities_per_cpu_s"] / t["activities_per_cpu_s"] - 1) * 100,
        "trace.overhead_instance_p50_pct": (t["instance_p50_ms"] / p["instance_p50_ms"] - 1) * 100,
    }


def report(workload: str, args, setups: list[dict], runs: list[dict], metrics: dict) -> None:
    plain = runs[0]
    print(f"wee benchmark  workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if setups:
        scaled = statistics.median(p["scaled_cpu_s"] for p in setups)
        wall = statistics.median(p["wall_s"] for p in setups)
        print(f"  {'setup_s':<34} {scaled:>14.6f} s    CPU at the reference speed, median of "
              f"{len(setups)} fresh interpreters; wall {wall:.6f} s")
    for name, unit in E2E_UNITS.items():
        if name == "setup_s":
            continue
        value = plain["e2e"][name]
        note = {
            "instance_ref_p50_ms": f"n={plain['instances']}, off-CPU time as measured + CPU time "
            f"at the reference speed; calibration chunk {plain['chunk_ms']:.4f} ms here",
            "instance_ref_tail_ms": f"p{plain['tail_pct']:g} of n={plain['instances']}",
        }.get(name, "")
        print(f"  {name:<34} {value:>14.4f} {unit:<4} {note}")
    print("  not gated (wall clock, and CPU throughput at the reference speed):")
    for name, value in plain["specific"].items():
        note = {
            "instance_p50_ms": f"n={plain['instances']}",
            "instance_tail_ms": f"p{plain['tail_pct']:g} of n={plain['instances']}",
            "stop_tail_ms": f"p{plain.get('stop_tail_pct', 0):g}",
        }.get(name, "")
        print(f"  {name:<34} {value:>14.4f} {LAYER_UNITS[name]:<4} {note}")
    base = {
        "seq_loop": "instances whose output check failed",
        "fanout": "instances whose output check failed",
        "stop_resume": "calls repeated or lost across stop and resume, of all calls",
        "corpus": "pattern cases failed, of 43 per pass",
    }[workload]
    for run in runs:
        rate = run["failed"] / run["attempted"]
        label = "error_rate (traced)" if run is not plain else "error_rate"
        print(f"  {label:<34} {rate:>14.6f} ratio {run['failed']}/{run['attempted']} {base}")
        for message in run["failures"]:
            print(f"    {message}")
    if args.trace:
        print("  per-layer, from the traced half:")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<34} {metrics[name]['value']:>14.4f} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "wee" / "__init__.py").is_file():
        print(f"error: wee sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            setups: list[dict] = []
            half = args.seconds / 2
            plain = measure(args.workload, args.seed, half, traced=False)
            traced = measure(args.workload, args.seed, half, traced=True)
            runs = [plain, traced]
            values = dict(traced["layers"])
            values.update(dict.fromkeys(SPECIFIC, 0.0))
            values.update(plain["specific"])
            values.update(overhead_pct(plain, traced))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        else:
            setups = setup_probes(args.seed)
            plain = measure(args.workload, args.seed, args.seconds, traced=False)
            setups += setup_probes(args.seed)
            runs = [plain]
            setup_s = statistics.median(p["scaled_cpu_s"] for p in setups)
            values = dict(plain["e2e"], setup_s=setup_s)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report(args.workload, args, setups, runs, metrics)
    result = {
        "correct": all(run["bad_outputs"] == 0 for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
