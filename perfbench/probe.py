"""Time wee's set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/probe.py --seed 1

Times the import of wee and its pattern harness, then parsing and
validating every workload's workflows (the 36 runnable corpus cases
included) and building their handlers. The inputs are generated before
the clock starts.

Prints one JSON object: the wall time of the set-up and its CPU time
scaled to the reference host speed (see calibrate.py), both in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import gen  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    generated = {name: make(args.seed) for name, make in gen.GENERATORS.items()}

    started, cpu_started = time.perf_counter(), time.process_time()
    import workloads  # imports wee and wee.patterns.harness

    workloads.build_all(generated, args.seed)
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    scaled = calibrate.scaled_cpu_seconds(cpu, calibrate.chunk_cpu_ms())
    print(json.dumps({"wall_s": wall, "scaled_cpu_s": scaled}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
