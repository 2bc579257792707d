"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload runs in both modes and prints exactly the
metric names and units BENCHMARK.json declares, that a corrupted output
(a dropped trace line or record) is counted as failed and not raised, and
that the benchmark refuses to run without wee's sources. Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 11
TINY_SECONDS = 1.0


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_printed_metrics(spec: dict) -> None:
    for workload in workloads.RUNNERS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = bench(
                "--workload", workload, "--seed", str(SEED),
                "--seconds", str(TINY_SECONDS), "--trace", trace,
            )
            assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{workload} trace {trace}: {proc.stdout}"
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert isinstance(result["failed"], int) and result["failed"] >= 0
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            assert printed == wanted, f"{workload} trace {trace}: {printed} != {wanted}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics as declared")


def drop_line(trace_path, records) -> None:
    """Corrupt a finished instance's output by dropping one trace entry."""
    if trace_path is not None:
        lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
        del lines[len(lines) // 2]
        trace_path.write_text("".join(lines), encoding="utf-8")
    else:
        del records[len(records) // 2]


def check_corruption_counted() -> None:
    for name, runner in workloads.RUNNERS.items():
        tally = runner(SEED, 0.1, tamper=drop_line)
        assert tally.attempted >= 1, name
        assert tally.bad_outputs >= 1, f"{name}: a dropped trace entry went unnoticed"
        assert tally.bad_outputs <= tally.failed <= tally.attempted, name
        print(f"ok  {name}: dropped trace entry counted, {tally.failed}/{tally.attempted} failed")


def check_refuses_without_sources(spec_path: Path) -> None:
    bare = workloads.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench(
            "--workload", "seq_loop", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without wee's sources"
    assert '"metrics"' not in proc.stdout, "printed a result without wee's sources"
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    check_refuses_without_sources(spec_path)
    check_corruption_counted()
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
