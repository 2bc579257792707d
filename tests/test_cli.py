from __future__ import annotations

import json
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wee import cli, dsl
from wee.events import read_jsonl

FIXTURES = Path(__file__).parent.parent / "src" / "wee" / "fixtures"

SEQ_WEE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context done: false
  call :one, endpoint: svc
  call :two, endpoint: svc
  manipulate :fin { done = true }
}
"""

SEQ_SCRIPT = {
    "positions": {
        "one": {"result": {}, "delay_ms": 700, "token": "p-one"},
        "two": {"result": {}},
    },
    "passthroughs": {"p-one": {"result": {}}},
}


def wee_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "wee.cli", *args]


@pytest.fixture
def seq_dir(tmp_path: Path) -> Path:
    (tmp_path / "seq.wee").write_text(SEQ_WEE)
    (tmp_path / "seq.script.json").write_text(json.dumps(SEQ_SCRIPT))
    return tmp_path


def test_run_finished_exit_zero(tmp_path):
    workflow = tmp_path / "ok.wee"
    workflow.write_text('workflow { handler "mock" context x: 0 manipulate :a { x = 1 } }')
    log = tmp_path / "run.log"
    proc = subprocess.run(
        wee_cmd("run", str(workflow), "--handler", "mock", "--log", str(log)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    records = read_jsonl(log)
    assert records[-1].kind == "instance_finish"
    assert [r.seq for r in records] == list(range(1, len(records) + 1))


def test_run_streams_events_to_stdout_by_default(tmp_path):
    workflow = tmp_path / "ok.wee"
    workflow.write_text('workflow { handler "mock" context x: 0 manipulate :a { x = 1 } }')
    proc = subprocess.run(
        wee_cmd("run", str(workflow), "--handler", "mock"), capture_output=True, text=True
    )
    assert proc.returncode == 0
    kinds = [json.loads(line)["kind"] for line in proc.stdout.splitlines() if line.strip()]
    assert kinds[0] == "instance_start"
    assert kinds[-1] == "instance_finish"


def test_run_booking_over_limit(tmp_path):
    log = tmp_path / "booking.log"
    proc = subprocess.run(
        wee_cmd(
            "run",
            str(FIXTURES / "booking.wee"),
            "--handler",
            "mock",
            "--script",
            str(FIXTURES / "booking_over.json"),
            "--log",
            str(log),
        ),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    positions = [r.position for r in read_jsonl(log) if r.kind == "activity_start"]
    assert "inform" in positions


def test_run_invalid_workflow_exit_one(tmp_path):
    bad = tmp_path / "bad.wee"
    bad.write_text('workflow { handler "mock" cycle (ghost > 0) { } }')
    proc = subprocess.run(wee_cmd("run", str(bad)), capture_output=True, text=True)
    assert proc.returncode == 1
    assert "undefined variable 'ghost'" in proc.stderr


def test_run_iteration_cap_exit_one(tmp_path):
    loop = tmp_path / "loop.wee"
    loop.write_text(
        'workflow { handler "mock" context i: 0 cycle (i >= 0) { manipulate :b { i = i + 1 } } }'
    )
    proc = subprocess.run(
        wee_cmd("run", str(loop), "--max-iterations", "10"), capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "iteration cap" in proc.stderr


def test_check_clean_file(tmp_path):
    workflow = tmp_path / "ok.wee"
    workflow.write_text('workflow { handler "mock" manipulate :a { } manipulate :b { } }')
    proc = subprocess.run(wee_cmd("check", str(workflow)), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "a" in proc.stdout and "b" in proc.stdout


def test_check_duplicate_position(tmp_path):
    workflow = tmp_path / "dup.wee"
    workflow.write_text('workflow { handler "mock" manipulate :a { } manipulate :a { } }')
    proc = subprocess.run(wee_cmd("check", str(workflow)), capture_output=True, text=True)
    assert proc.returncode == 1
    assert "duplicate position 'a'" in proc.stderr


def test_check_lists_every_activity_once():
    proc = subprocess.run(
        wee_cmd("check", str(FIXTURES / "booking.wee")), capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("book_airline", "book_hotel", "book_transfer", "total", "inform"):
        assert proc.stdout.count(f"\n{name} ") == 1


def _start_run(seq_dir: Path):
    control = seq_dir / "ctl.sock"
    log = seq_dir / "seq.log"
    saved = seq_dir / "seq.saved.json"
    proc = subprocess.Popen(
        wee_cmd(
            "run",
            str(seq_dir / "seq.wee"),
            "--handler",
            "mock",
            "--script",
            str(seq_dir / "seq.script.json"),
            "--log",
            str(log),
            "--control",
            str(control),
            "--save",
            str(saved),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not control.exists():
        time.sleep(0.01)
    # wait for the first call to be in flight
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if log.exists() and any(
            r.kind == "activity_start" for r in read_jsonl(log)
        ):
            break
        time.sleep(0.01)
    return proc, control, log, saved


def test_stop_resume_round_trip(seq_dir):
    proc, control, log, saved = _start_run(seq_dir)

    stop = subprocess.run(
        wee_cmd("stop", "--control", str(control)), capture_output=True, text=True
    )
    assert stop.returncode == 0, stop.stderr
    assert stop.stdout.startswith("stopped")
    assert proc.wait(timeout=10) == 2

    payload = json.loads(saved.read_text())
    assert payload["lifecycle"] == "stopped"
    assert payload["passthroughs"] == {"one": "p-one"}
    assert payload["hash"] == cli.source_hash((seq_dir / "seq.wee").read_text())

    pre_records = read_jsonl(log)
    ack = next(i for i, r in enumerate(pre_records) if r.kind == "stop_acknowledged")
    assert not [r for r in pre_records[ack + 1 :] if r.kind == "activity_start"]

    resume = subprocess.run(
        wee_cmd(
            "resume",
            str(saved),
            "--workflow",
            str(seq_dir / "seq.wee"),
            "--handler",
            "mock",
            "--script",
            str(seq_dir / "seq.script.json"),
            "--log",
            str(log),
        ),
        capture_output=True,
        text=True,
    )
    assert resume.returncode == 0, resume.stderr

    records = read_jsonl(log)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert len({r.instance for r in records}) == 1
    assert records[-1].kind == "instance_finish"
    post = records[len(pre_records) :]
    assert [r.position for r in post if r.kind == "activity_start"] == ["one", "two", "fin"]


def test_resume_with_skip_region(seq_dir):
    proc, control, log, saved = _start_run(seq_dir)
    subprocess.run(wee_cmd("stop", "--control", str(control)), capture_output=True)
    proc.wait(timeout=10)

    resume = subprocess.run(
        wee_cmd(
            "resume",
            str(saved),
            "--workflow",
            str(seq_dir / "seq.wee"),
            "--handler",
            "mock",
            "--script",
            str(seq_dir / "seq.script.json"),
            "--log",
            str(log),
            "--skip-region",
            "one..two",
        ),
        capture_output=True,
        text=True,
    )
    assert resume.returncode == 0, resume.stderr
    pre_count = next(
        i for i, r in enumerate(read_jsonl(log)) if r.kind == "instance_stop"
    )
    post = read_jsonl(log)[pre_count:]
    post_positions = [r.position for r in post if r.kind == "activity_start"]
    assert post_positions == ["fin"]


def test_resume_rejects_edited_source(seq_dir):
    proc, control, log, saved = _start_run(seq_dir)
    subprocess.run(wee_cmd("stop", "--control", str(control)), capture_output=True)
    proc.wait(timeout=10)

    edited = seq_dir / "edited.wee"
    edited.write_text(SEQ_WEE.replace(":fin", ":renamed"))
    resume = subprocess.run(
        wee_cmd("resume", str(saved), "--workflow", str(edited), "--handler", "mock"),
        capture_output=True,
        text=True,
    )
    assert resume.returncode == 1
    assert "hash mismatch" in resume.stderr


def test_stop_unknown_instance_errors(tmp_path):
    proc = subprocess.run(
        wee_cmd("stop", "--control", str(tmp_path / "nope.sock"), "--timeout", "0.5"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "cannot reach" in proc.stderr


def test_stop_after_terminal_is_noop(seq_dir):
    proc, control, log, saved = _start_run(seq_dir)
    # stop while the instance is live, keep the process around long enough to
    # answer a second stop: use the python API against the same socket twice
    first = subprocess.run(wee_cmd("stop", "--control", str(control)), capture_output=True, text=True)
    assert first.returncode == 0
    proc.wait(timeout=10)
    # the process has exited: a later stop is an unknown instance
    second = subprocess.run(
        wee_cmd("stop", "--control", str(control), "--timeout", "0.5"),
        capture_output=True,
        text=True,
    )
    assert second.returncode == 1


# -- unit-level helpers -------------------------------------------------------


def test_control_server_reports_already_terminal(tmp_path):
    from wee.engine import WorkflowInstance
    from wee.handlers import MockHandler

    instance = WorkflowInstance(
        dsl.parse('workflow { handler "mock" manipulate :a { } }'), MockHandler()
    )
    instance.run()
    control = tmp_path / "ctl.sock"
    server = cli._ControlServer(str(control), instance, lambda: "unused")
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5)
            sock.connect(str(control))
            sock.sendall(b"stop\n")
            reply = sock.makefile().readline().strip()
        assert reply == "already-terminal finished"
    finally:
        server.close()


def test_run_with_control_socket_exits_promptly(tmp_path):
    elapsed = []
    for i in range(3):
        started = time.perf_counter()
        code = cli.main(
            [
                "run",
                str(FIXTURES / "booking.wee"),
                "--script",
                str(FIXTURES / "booking_under.json"),
                "--log",
                str(tmp_path / f"run{i}.log"),
                "--control",
                str(tmp_path / f"ctl{i}.sock"),
            ]
        )
        elapsed.append(time.perf_counter() - started)
        assert code == 0
    # closing the control server must not wait for a blocked accept() to time out
    assert statistics.median(elapsed) < 0.1, elapsed


def test_parse_skip_region_expands_source_range():
    ast = dsl.parse(SEQ_WEE)
    assert cli.parse_skip_region("one..two", ast) == {"one", "two"}
    assert cli.parse_skip_region("two", ast) == {"two"}
    with pytest.raises(cli.ControllerError):
        cli.parse_skip_region("two..one", ast)
    with pytest.raises(cli.ControllerError):
        cli.parse_skip_region("ghost..two", ast)


def test_saved_instance_schema_round_trip(tmp_path):
    saved = {
        "lifecycle": "stopped",
        "branches": [{"id": "0", "path": [1]}],
        "context": {"done": False},
        "version": 0,
        "passthroughs": {},
    }
    path = tmp_path / "s.json"
    cli.write_saved_instance(path, saved, "ff" * 32)
    loaded = cli.load_saved_instance(path)
    assert loaded["hash"] == "ff" * 32
    assert loaded["branches"] == [{"id": "0", "path": [1]}]
    with pytest.raises(cli.ControllerError, match="missing"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lifecycle": "stopped"}))
        cli.load_saved_instance(bad)


def test_run_with_trigger_handler_and_events_file(tmp_path):
    workflow = tmp_path / "trig.wee"
    workflow.write_text(
        """
        workflow {
          handler "trigger"
          endpoint bus: "trigger://bus"
          context got: 0
          call :await_go, endpoint: bus, parameters: { key: "go" }
          manipulate :proceed { got = got + 1 }
        }
        """
    )
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 0, "key": "go"}\n')
    script = tmp_path / "trigger.json"
    script.write_text(json.dumps({"mode": "persistent", "events_file": str(events)}))
    log = tmp_path / "trig.log"
    proc = subprocess.run(
        wee_cmd("run", str(workflow), "--script", str(script), "--log", str(log)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    positions = [r.position for r in read_jsonl(log) if r.kind == "activity_start"]
    assert positions == ["await_go", "proceed"]


def test_patterns_subcommand_writes_coverage(tmp_path):
    report = tmp_path / "coverage.json"
    proc = subprocess.run(
        wee_cmd("patterns", "--report", str(report)), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "published summary" in proc.stdout
    payload = json.loads(report.read_text())
    assert len(payload["patterns"]) == 43
    assert payload["summary_matches_cells"] is False


def test_exit_code_contract_mapping(tmp_path):
    # finished <-> 0 and error <-> 1 are covered above; stopped <-> 2 here
    workflow = tmp_path / "halt.wee"
    workflow.write_text(
        'workflow { handler "mock" endpoint h: "wee://stop" call :q, endpoint: h }'
    )
    proc = subprocess.run(
        wee_cmd("run", str(workflow), "--handler", "mock", "--save", str(tmp_path / "s.json")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert (tmp_path / "s.json").exists()
