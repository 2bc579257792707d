"""What a cold start loads, and the random tokens drawn without `uuid`.

A run that builds no HTTP handler never loads the HTTP stack: the check runs
in a fresh interpreter in which `import requests` fails, so any run that
reaches for it fails too. Nor does any run load `dataclasses`, `uuid` or
`platform`, whose import costs more than the work of a small workflow, or
`socket`, which only `wee run --control` and `wee stop` open.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from wee.events import read_jsonl
from wee.handlers import HandlerCall, HttpHandler, Passthrough, StopToken, TriggerHandler

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
    loaded = [name for name in ("dataclasses", "uuid", "platform") if name in sys.modules]
    assert not loaded, loaded
    assert "socket" not in sys.modules
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


def stopped_call(position: str, endpoint: str = "mock://svc", **parameters) -> HandlerCall:
    """A call whose stop token was set before the handler saw it."""
    stop = StopToken()
    stop.set()
    return HandlerCall(position, position, endpoint, parameters, {}, 0, stop)


def test_a_stopped_trigger_call_hands_back_its_position_and_8_hex_digits():
    tokens = {TriggerHandler("transient").call(stopped_call("wait_a", key="k")) for _ in range(20)}
    assert all(type(token) is Passthrough for token in tokens)
    assert all(re.fullmatch(r"trigger-wait_a-[0-9a-f]{8}", token.token) for token in tokens)
    assert len(tokens) == 20


def test_a_stopped_http_call_hands_back_32_hex_digits(stub_server):
    stub_server.responses["/slow"] = {}
    stub_server.delays["/slow"] = 0.3
    handler = HttpHandler(timeout=5)
    tokens = {handler.call(stopped_call("s", stub_server.url("/slow"))) for _ in range(3)}
    assert all(type(token) is Passthrough for token in tokens)
    assert all(re.fullmatch(r"[0-9a-f]{32}", token.token) for token in tokens)
    assert len(tokens) == 3

