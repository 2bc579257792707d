"""Measure one workload in this process and print the result as JSON.

    python3 perfbench/worker.py --workload seq_loop --seed 1 --seconds 5 [--traced]

run.py starts a fresh worker for every measurement, so each has its own
peak resident set. With --traced the layer entry points are wrapped with
spans; the spans are written to .bench_out/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from stats import p50, tail, windowed_rate  # noqa: E402
from tracing import SETUP_INSTANCE, Tracer  # noqa: E402

SETUP_REPEATS = 3  # traced set-up passes, for the dsl span samples


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        tracer.current_instance = SETUP_INSTANCE
        generated = {name: make(seed) for name, make in gen.GENERATORS.items()}
        for _ in range(SETUP_REPEATS):
            workloads.build_all(generated, seed)
    try:
        tally = workloads.RUNNERS[workload](seed, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    instance_tail, tail_pct = tail(tally.instance_ms)
    ref_ms = [
        calibrate.reference_seconds(wall, cpu, chunk_ms) * 1000
        for wall, cpu, chunk_ms in zip(tally.op_seconds, tally.op_cpu_seconds, tally.op_chunk_ms)
    ]
    ref_tail, _ = tail(ref_ms)
    result = {
        "e2e": {
            "instance_ref_p50_ms": p50(ref_ms),
            "instance_ref_tail_ms": ref_tail,
            "peak_rss_mb": peak_rss_mb,
        },
        # figures reported but not gated: the wall-clock ones drift with the
        # load of a shared host; the CPU throughput of wait-bound workloads
        # is a few short bursts per instance, whose cost the gauge does not
        # follow
        "specific": {
            "activities_per_cpu_s": windowed_rate(
                tally.op_cpu_seconds, tally.op_activities, tally.op_chunk_ms
            ),
            "activities_per_s": windowed_rate(tally.op_seconds, tally.op_activities),
            "instance_p50_ms": p50(tally.instance_ms),
            "instance_tail_ms": instance_tail,
        },
        "chunk_ms": p50(tally.op_chunk_ms),
        "instances": len(tally.instance_ms),
        "tail_pct": tail_pct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "bad_outputs": tally.bad_outputs,
        "failures": tally.failures,
    }
    operations = len(tally.op_seconds)
    if workload == "stop_resume":
        stop_tail, stop_pct = tail(tally.stop_ms)
        result["specific"].update(
            stop_p50_ms=p50(tally.stop_ms),
            stop_tail_ms=stop_tail,
            resume_p50_ms=p50(tally.resume_ms),
        )
        result["stop_tail_pct"] = stop_pct
    elif workload == "corpus":
        result["specific"]["corpus_s"] = p50(tally.instance_ms) / 1000
    if tracer:
        layers = tracer.layer_metrics(operations)
        layers["engine.repeated_calls"] = tally.repeated_calls / operations
        layers["engine.lost_calls"] = tally.lost_calls / operations
        layers["harness.slowest_case_ms"] = p50(tally.slowest_case_ms)
        result["layers"] = layers
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"spans-{workload}.tsv")
    return result


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU.

    wee's branch threads share one interpreter lock, so a second core buys
    them nothing but cross-core hand-offs. On a shared virtual machine
    those cost from 1x to 2x the CPU time of the same hand-off on one core,
    varying minute to minute; pinned, stop_resume's wall-clock throughput
    spread 0.06 across 6 s windows against 0.21 unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    pin_to_one_cpu()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
