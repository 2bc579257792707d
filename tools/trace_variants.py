"""Count the distinct --fixed-clock traces of each runnable corpus case.

    python tools/trace_variants.py run [--runs N] > REPORT.json
    python tools/trace_variants.py compare BASE.json CHANGE.json

`run` runs every runnable case of the pattern corpus N times in this
process, the way `wee patterns` runs it, but under a FixedClock and with a
fixed instance id, so two runs that take the same steps write the same
trace. Per case it reports the number of distinct traces, and the digest
(SHA-256 of the JSONL lines) and count of the most frequent one, as JSON.
A case that raises is reported with its error and makes the exit status 1.

`compare` reads two such reports and names each case whose most frequent
trace differs between them, or whose variant counts do; it exits 1 if a
case's most frequent trace differs.
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


def fixed_options() -> RunOptions:
    return RunOptions(clock=FixedClock(), instance_id=INSTANCE_ID)


def trace_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record.to_json(), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


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


def compare(base: dict, change: dict) -> list[str]:
    """Print how each case moved; return the cases whose top trace differs."""
    moved = []
    for slug in sorted(base["cases"].keys() | change["cases"].keys()):
        a, b = base["cases"].get(slug, {}), change["cases"].get(slug, {})
        if "top" not in a or "top" not in b or a["top"] != b["top"]:
            moved.append(slug)
            print(f"{slug}: most frequent trace differs ({a} -> {b})")
        elif (a["variants"], a["top_count"]) != (b["variants"], b["top_count"]):
            print(
                f"{slug}: same most frequent trace; variants {a['variants']} -> "
                f"{b['variants']}, its count {a['top_count']}/{base['runs']} -> "
                f"{b['top_count']}/{change['runs']}"
            )
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run every runnable case N times")
    run_parser.add_argument("--runs", type=int, default=30)
    compare_parser = sub.add_parser("compare", help="compare two reports")
    compare_parser.add_argument("base")
    compare_parser.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "compare":
        base, change = (
            json.loads(Path(path).read_text(encoding="utf-8")) for path in (args.base, args.change)
        )
        moved = compare(base, change)
        print(f"{len(moved)} case(s) changed their most frequent trace")
        return 1 if moved else 0

    report = run(args.runs)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    errors = [slug for slug, entry in report["cases"].items() if "error" in entry]
    for slug in errors:
        print(f"{slug}: {report['cases'][slug]['error']}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
