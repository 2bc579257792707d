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


# a script file that is missing, is not JSON, or holds JSON that is not an object
BAD_SCRIPTS = [
    pytest.param(None, "cannot read script", id="missing"),
    pytest.param("{not json", "cannot read script", id="malformed"),
    pytest.param("[1, 2]", "is not a JSON object", id="not-an-object"),
]


def bad_script(tmp_path: Path, content) -> Path:
    script = tmp_path / "script.json"
    if content is not None:
        script.write_text(content)
    return script


@pytest.mark.parametrize("content, message", BAD_SCRIPTS)
def test_run_with_a_bad_script_exits_one_with_one_line(tmp_path, capsys, content, message):
    log = tmp_path / "run.log"
    script = bad_script(tmp_path, content)
    code = cli.main(
        ["run", str(FIXTURES / "booking.wee"), "--script", str(script), "--log", str(log)]
    )
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert not log.exists()


# a seq.wee instance stopped after its first call, its trace at seq 6
STOPPED_SEQ = {
    "schema": 3,
    "instance": "i-seq",
    "seq": 6,
    "branches": [{"id": "0", "path": [1]}],
    "context": {"done": False},
    "version": 0,
    "interrupted": {},
}


def write_stopped_seq(seq_dir: Path, saved: dict = STOPPED_SEQ) -> Path:
    path = seq_dir / "seq.wee.saved.json"
    cli.write_saved_instance(path, saved, cli.source_hash(SEQ_WEE))
    return path


@pytest.mark.parametrize("content, message", BAD_SCRIPTS)
def test_resume_with_a_bad_script_exits_one_with_one_line(seq_dir, capsys, content, message):
    path = write_stopped_seq(seq_dir)
    script = bad_script(seq_dir, content)
    code = cli.main(
        ["resume", str(path), "--workflow", str(seq_dir / "seq.wee"), "--script", str(script)]
    )
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err


# a script object with a field of the wrong type, or whose events file is
# missing, is not JSONL, or has a record without "t" or "key"
BAD_FIELDS = [
    pytest.param("mock", {"positions": 5}, None, "bad script", id="mock-positions"),
    pytest.param("jump", {"positions": 5}, None, "bad script", id="jump-positions"),
    pytest.param("trigger", {"events_file": 1}, None, "bad script", id="events-file-not-a-path"),
    pytest.param("trigger", {}, None, "bad events file", id="events-missing"),
    pytest.param("trigger", {}, "not json\n", "bad events file", id="events-not-jsonl"),
    pytest.param("trigger", {}, '{"key": "go"}\n', "bad events file", id="events-without-t"),
    pytest.param("trigger", {}, '{"t": 0}\n', "bad events file", id="events-without-key"),
]


def bad_field_script(directory: Path, handler: str, config: dict, events) -> Path:
    if handler == "trigger":
        config = {"events_file": str(directory / "events.jsonl"), **config}
        if events is not None:
            (directory / "events.jsonl").write_text(events)
    return bad_script(directory, json.dumps(config))


@pytest.mark.parametrize("handler, config, events, message", BAD_FIELDS)
def test_run_with_a_bad_script_field_exits_one_with_one_line(
    tmp_path, capsys, handler, config, events, message
):
    log = tmp_path / "run.log"
    script = bad_field_script(tmp_path, handler, config, events)
    code = cli.main(
        ["run", str(FIXTURES / "booking.wee"), "--handler", handler, "--script", str(script)]
        + ["--log", str(log)]
    )
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not log.exists()


@pytest.mark.parametrize("handler, config, events, message", BAD_FIELDS)
def test_resume_with_a_bad_script_field_exits_one_with_one_line(
    seq_dir, capsys, handler, config, events, message
):
    path = write_stopped_seq(seq_dir)
    script = bad_field_script(seq_dir, handler, config, events)
    code = cli.main(
        ["resume", str(path), "--workflow", str(seq_dir / "seq.wee"), "--handler", handler]
        + ["--script", str(script)]
    )
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err


# a --log that is a directory; a saved file that is not UTF-8 or not a JSON object
BAD_RESUME_FILES = [
    pytest.param("log", None, "cannot open log", id="log-is-a-directory"),
    pytest.param("saved", b"\xff{}", "cannot read saved instance", id="saved-not-utf8"),
    pytest.param("saved", b"5", "is not a JSON object", id="saved-not-an-object"),
]


@pytest.mark.parametrize("which, content, message", BAD_RESUME_FILES)
def test_resume_with_a_bad_log_or_saved_file_exits_one_with_one_line(
    seq_dir, capsys, which, content, message
):
    path = write_stopped_seq(seq_dir)
    log = seq_dir / "run.log"
    bad = log if which == "log" else path
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    code = cli.main(
        ["resume", str(path), "--workflow", str(seq_dir / "seq.wee"), "--log", str(log)]
    )
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err


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


def test_check_rejects_a_parallel_branch_directly_inside_another(tmp_path):
    workflow = tmp_path / "nested.wee"
    workflow.write_text(
        'workflow { handler "mock"\n'
        "parallel wait: all { parallel_branch {\n"
        "  parallel_branch { } } } }"
    )
    proc = subprocess.run(wee_cmd("check", str(workflow)), capture_output=True, text=True)
    assert proc.returncode == 1
    assert "line 3, col 3: parallel_branch inside a parallel_branch" in proc.stderr


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
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
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
    assert payload["schema"] == 3
    assert payload["interrupted"] == {"0/one": {"passthrough": "p-one"}}
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


NESTED_COUNT_WEE = """
workflow {
  handler "recursive"
  endpoint rec: "local://self"
  context level: 0
  context total: 0
  choose {
    alternative (level == 0) { call :nest, endpoint: rec, parameters: { level: 1 } }
    otherwise { cycle (total < 40000) { manipulate :inc { total = total + 1 } } }
  }
}
"""


def test_stop_resume_recursive_call_across_processes(tmp_path):
    workflow = tmp_path / "nest.wee"
    workflow.write_text(NESTED_COUNT_WEE)
    log, control, saved = tmp_path / "log.jsonl", tmp_path / "ctl.sock", tmp_path / "s.json"
    proc = subprocess.Popen(
        wee_cmd(
            "run", str(workflow), "--log", str(log), "--control", str(control), "--save", str(saved)
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not (
        control.exists()
        and log.exists()
        and any(r.kind == "activity_start" for r in read_jsonl(log))
    ):
        time.sleep(0.01)
    time.sleep(0.1)  # the nested instance is counting
    stop = subprocess.run(
        wee_cmd("stop", "--control", str(control)), capture_output=True, text=True
    )
    assert stop.stdout.startswith("stopped"), stop.stderr
    assert proc.wait(timeout=10) == 2

    # the token carries the stopped nested instance into the saved file
    payload = json.loads(saved.read_text())
    token = json.loads(payload["interrupted"]["0/nest"]["passthrough"])
    assert token["saved"]["schema"] == 3
    assert 0 < token["saved"]["context"]["total"] < 40000
    assert payload["context"]["total"] == 0

    resume = subprocess.run(
        wee_cmd("resume", str(saved), "--workflow", str(workflow), "--log", str(log)),
        capture_output=True,
        text=True,
    )
    assert resume.returncode == 0, resume.stderr
    records = read_jsonl(log)
    assert records[-1].kind == "instance_finish"
    changes = [r for r in records if r.kind == "context_change"]
    assert [c["new"] for c in changes[-1].detail["changes"] if c["name"] == "total"] == [40000]


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
    path = tmp_path / "s.json"
    cli.write_saved_instance(path, STOPPED_SEQ, "ff" * 32)
    loaded = cli.load_saved_instance(path)
    assert loaded == {"hash": "ff" * 32, **STOPPED_SEQ}
    with pytest.raises(cli.ControllerError, match="has no source hash"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(STOPPED_SEQ))
        cli.load_saved_instance(bad)


def test_resume_of_a_saved_state_of_the_wrong_shape_exits_one(seq_dir, capsys):
    # a state the engine refuses, as this wee and as the previous format wrote it
    refused = {
        "corrupt saved state: branch 0: path 0": {
            **STOPPED_SEQ,
            "branches": [{"id": "0", "path": 0}],
        },
        "saved state has schema 2, expected 3": {
            "schema": 2,
            "lifecycle": "stopped",
            "branches": [{"id": "0", "path": [1]}],
            "context": {"done": False},
            "version": 0,
            "passthroughs": {},
            "ended_calls": {},
        },
    }
    prior = seq_dir / "prior.jsonl"
    prior.write_text('{"seq": 1}\n')
    for message, saved in refused.items():
        path = write_stopped_seq(seq_dir, saved)
        for log in (prior, seq_dir / "fresh.jsonl"):
            code = cli.main(
                ["resume", str(path), "--workflow", str(seq_dir / "seq.wee"), "--handler", "mock"]
                + ["--log", str(log)]
            )
            assert code == cli.EXIT_ERROR
            assert capsys.readouterr().err == message + "\n"
        assert prior.read_text() == '{"seq": 1}\n'
        assert not (seq_dir / "fresh.jsonl").exists()


def test_a_resume_to_stdout_or_to_a_fresh_file_continues_the_id_and_seq(seq_dir, capsys):
    path, fresh = write_stopped_seq(seq_dir), seq_dir / "fresh.jsonl"
    for log in (["--log", str(fresh)], []):  # a new file, then stdout
        code = cli.main(
            ["resume", str(path), "--workflow", str(seq_dir / "seq.wee"), "--handler", "mock"]
            + ["--script", str(seq_dir / "seq.script.json"), "--fixed-clock", *log]
        )
        assert code == cli.EXIT_FINISHED
    to_file = [r.to_json() for r in read_jsonl(fresh)]
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == to_file
    assert [r["seq"] for r in to_file] == list(range(7, 7 + len(to_file)))
    assert {r["instance"] for r in to_file} == {"i-seq"}
    assert to_file[-1]["kind"] == "instance_finish"


def test_run_with_a_log_in_a_missing_directory_exits_one_with_one_line(tmp_path, capsys):
    log = tmp_path / "missing" / "run.log"
    code = cli.main(
        ["run", str(FIXTURES / "booking.wee"), "--script", str(FIXTURES / "booking_under.json")]
        + ["--log", str(log)]
    )
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"cannot open log {log}: ") and err.count("\n") == 1, err


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


def test_patterns_with_a_missing_case_file_exits_one_with_one_line(tmp_path, capsys):
    corpus = tmp_path / "nonexistent"
    assert cli.main(["patterns", "--corpus", str(corpus)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"missing case file {corpus}") and err.count("\n") == 1, err


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
