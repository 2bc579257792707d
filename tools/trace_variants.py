"""Count the distinct --fixed-clock traces of each runnable corpus case.

    python tools/trace_variants.py run [--runs N] > REPORT.json
    python tools/trace_variants.py golden tests/golden/corpus

`run` runs every runnable case of the pattern corpus N times in this
process, the way `wee patterns` runs it (under virtual time), but under a
FixedClock and with a fixed instance id, so two runs that take the same
steps write the same trace. Per case it reports the number of distinct
traces, and the digest (SHA-256 of the JSONL lines) and count of the most
frequent one, as JSON. A case that raises, or that gives more than one
trace, makes the exit status 1.

`golden` writes the trace of each runnable case to DIR/<slug>.jsonl, the
files `tests/test_patterns.py` compares byte for byte.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wee.engine import RunOptions  # noqa: E402
from wee.events import FixedClock  # noqa: E402
from wee.patterns import harness  # noqa: E402

INSTANCE_ID = "i-00000000"


def fixed_options(**options) -> RunOptions:
    """The harness's RunOptions(...), under a fixed clock and instance id."""
    return RunOptions(clock=FixedClock(), instance_id=INSTANCE_ID, **options)


def trace_bytes(records) -> bytes:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records).encode()


def trace_digest(records) -> str:
    return hashlib.sha256(trace_bytes(records)).hexdigest()


def runnable_cases() -> list[harness.PatternCase]:
    cases = [
        harness.load_case(harness.DEFAULT_CORPUS, pattern_class, name, slug, support)
        for pattern_class, name, slug, support in harness.REFERENCE_LEVELS
    ]
    return [case for case in cases if case.source is not None]


def run(runs: int) -> dict:
    report: dict = {"runs": runs, "cases": {}}
    # the harness builds RunOptions() for each phase of a case; swapping in
    # a fixed clock and id here keeps that knob out of the library
    with mock.patch.object(harness, "RunOptions", fixed_options):
        for case in runnable_cases():
            digests: collections.Counter[str] = collections.Counter()
            try:
                for _ in range(runs):
                    digests[trace_digest(harness.run_case_workflow(case, 0).records)] += 1
            except Exception as exc:  # a case that raises is the finding
                report["cases"][case.slug] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            top, count = digests.most_common(1)[0]
            report["cases"][case.slug] = {
                "variants": len(digests),
                "top": top,
                "top_count": count,
            }
    return report


def write_golden(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with mock.patch.object(harness, "RunOptions", fixed_options):
        for case in runnable_cases():
            records = harness.run_case_workflow(case, 0).records
            (directory / f"{case.slug}.jsonl").write_bytes(trace_bytes(records))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run every runnable case N times")
    run_parser.add_argument("--runs", type=int, default=30)
    golden_parser = sub.add_parser("golden", help="write each runnable case's trace")
    golden_parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)

    if args.command == "golden":
        write_golden(args.directory)
        return 0

    report = run(args.runs)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    failed = False
    for slug, entry in report["cases"].items():
        if "error" in entry:
            print(f"{slug}: {entry['error']}", file=sys.stderr)
            failed = True
        elif entry["variants"] > 1:
            print(f"{slug}: {entry['variants']} traces", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
