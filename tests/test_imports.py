"""A run that builds no HTTP handler never loads the HTTP stack.

The check runs in a fresh interpreter in which `import requests` fails, so
any run that reaches for it fails too.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from wee.events import read_jsonl

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "wee" / "fixtures"

PROGRAM = textwrap.dedent(
    """
    import sys

    sys.modules["requests"] = None  # any import of requests now fails

    import wee
    import wee.cli
    import wee.patterns.harness

    fixtures, log = sys.argv[1:]
    code = wee.cli.main([
        "run", f"{fixtures}/booking.wee", "--handler", "mock",
        "--script", f"{fixtures}/booking_under.json", "--log", log,
    ])
    assert code == wee.cli.EXIT_FINISHED, code
    assert wee.patterns.harness.run_all().all_passed

    loaded = [name for name in ("urllib3", "concurrent.futures") if name in sys.modules]
    assert not loaded, loaded
    """
)


def test_runs_without_an_http_handler_never_load_the_http_stack(tmp_path):
    log = tmp_path / "booking.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(FIXTURES), str(log)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_jsonl(log)[-1].kind == "instance_finish"
