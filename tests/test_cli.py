from __future__ import annotations

import collections
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import call_tokens, starts, wait_until

from wee import cli, dsl
from wee.engine import WorkflowInstance
from wee.events import read_jsonl
from wee.handlers import HandlerWrapper, MockHandler, Result
from wee.patterns.harness import replay_context

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


def test_a_run_whose_stdout_reader_has_gone_exits_one(tmp_path):
    """`wee run ... | head -1`: the trace's writes to stdout fail, and the
    run ends in error instead of hanging or crashing a branch thread."""
    proc = subprocess.Popen(
        wee_cmd(
            "run",
            str(FIXTURES / "booking.wee"),
            "--script",
            str(FIXTURES / "booking_over.json"),
            "--log",
            "-",
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # no reader is left before the first record is written
    try:
        _, stderr = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert stderr.decode().splitlines() == ["error: trace write failed: [Errno 32] Broken pipe"]


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


# stops through wee://stop before its slow call, which a resume runs
HALT_WEE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  endpoint halt: "wee://stop"
  context done: false
  call :halt_here, endpoint: halt
  call :slow, endpoint: svc
  manipulate :fin { done = true }
}
"""


def halt_script(directory: Path, slow: dict) -> Path:
    script = directory / "halt.script.json"
    script.write_text(json.dumps({"positions": {"slow": slow}}))
    return script


def stopped_log(directory: Path) -> Path:
    """The log of a halt.wee run, which ends in a stop at its slow call."""
    workflow, log = directory / "halt.wee", directory / "halt.log"
    workflow.write_text(HALT_WEE)
    assert cli.main(["run", str(workflow), "--log", str(log), "--fixed-clock"]) == cli.EXIT_STOPPED
    return log


def resume_halted(log: Path, *options: str) -> int:
    return cli.main(
        ["resume", str(log), "--workflow", str(log.parent / "halt.wee"), *options]
    )


def edit_saved(log: Path, edit) -> None:
    """Rewrite the saved state the log's last record carries."""
    *head, last = log.read_text().splitlines(keepends=True)
    record = json.loads(last)
    record["detail"]["saved"] = edit(record["detail"]["saved"])
    log.write_text("".join(head) + json.dumps(record, sort_keys=True) + "\n")


@pytest.fixture
def calls(monkeypatch) -> list[str]:
    """The position of each call a mock handler in this process starts."""
    started: list[str] = []
    original = MockHandler.call

    def call(self, call):
        started.append(call.position)
        return original(self, call)

    monkeypatch.setattr(MockHandler, "call", call)
    return started


@pytest.mark.parametrize("content, message", BAD_SCRIPTS)
def test_resume_with_a_bad_script_exits_one_with_one_line(tmp_path, capsys, content, message):
    log = stopped_log(tmp_path)
    before = log.read_bytes()
    script = bad_script(tmp_path, content)
    assert resume_halted(log, "--script", str(script)) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert log.read_bytes() == before


# a script object with a field of the wrong type, or whose events file is
# missing, is not JSONL, or has a record without "key"
BAD_FIELDS = [
    pytest.param("mock", {"positions": 5}, None, "bad script", id="mock-positions"),
    pytest.param("jump", {"positions": 5}, None, "bad script", id="jump-positions"),
    pytest.param("trigger", {"events_file": 1}, None, "bad script", id="events-file-not-a-path"),
    pytest.param("trigger", {}, None, "bad events file", id="events-missing"),
    pytest.param("trigger", {}, "not json\n", "bad events file", id="events-not-jsonl"),
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
    tmp_path, capsys, handler, config, events, message
):
    log = stopped_log(tmp_path)
    before = log.read_bytes()
    script = bad_field_script(tmp_path, handler, config, events)
    assert resume_halted(log, "--handler", handler, "--script", str(script)) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert log.read_bytes() == before


def append_line(content: bytes):
    return lambda log: log.write_bytes(log.read_bytes() + content)


def make_directory(log: Path) -> None:
    log.unlink()
    log.mkdir()


# a log that is a directory; a last line, where the saved state would be,
# that is not UTF-8 or not a JSON object
BAD_RESUME_FILES = [
    pytest.param(make_directory, "cannot open log", id="log-is-a-directory"),
    pytest.param(append_line(b"\xff{}\n"), "its last line is not a record", id="saved-not-utf8"),
    pytest.param(
        append_line(b"5\n"), "its last record is not a resumable stop", id="saved-not-an-object"
    ),
]


@pytest.mark.parametrize("spoil, message", BAD_RESUME_FILES)
def test_resume_with_a_bad_log_or_saved_file_exits_one_with_one_line(
    tmp_path, capsys, calls, spoil, message
):
    log = stopped_log(tmp_path)
    spoil(log)
    before = None if log.is_dir() else log.read_bytes()
    assert resume_halted(log) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert (None if log.is_dir() else log.read_bytes()) == before
    assert calls == []


def resumed_once(script: dict, code: int):
    def resume(log: Path) -> None:
        assert resume_halted(log, "--script", str(halt_script(log.parent, script))) == code

    return resume


def cut_short(log: Path) -> None:
    log.write_bytes(log.read_bytes()[:-40])  # as a killed writer leaves it


def old_saved_file(log: Path) -> None:
    # what `wee run --save` wrote before the trace carried the saved state
    saved = json.loads(log.read_text().splitlines()[-1])["detail"]["saved"]
    saved = {k: v for k, v in saved.items() if k != "workflow"}
    payload = {"hash": dsl.parse(HALT_WEE).source_hash, **saved, "schema": 3}
    log.write_text(json.dumps(payload, indent=2) + "\n")


def other_workflow(log: Path) -> None:
    other = dsl.parse(HALT_WEE.replace(":fin", ":renamed")).source_hash
    edit_saved(log, lambda saved: {**saved, "workflow": other})


NOT_A_RESUMABLE_STOP = [
    pytest.param(
        resumed_once({"result": {}}, cli.EXIT_FINISHED),
        "its last record is not a resumable stop",
        id="finished",
    ),
    pytest.param(
        resumed_once({"error": "down"}, cli.EXIT_ERROR),
        "its last record is not a resumable stop",
        id="error-stop",
    ),
    pytest.param(cut_short, "does not end in a whole line", id="last-line-cut-short"),
    pytest.param(lambda log: log.write_bytes(b""), "does not end in a whole line", id="empty"),
    pytest.param(Path.unlink, "cannot open log", id="missing"),
    pytest.param(old_saved_file, "its last line is not a record", id="a-saved-json-file"),
    pytest.param(
        other_workflow, "workflow source hash mismatch: refusing to resume", id="another-workflow"
    ),
]


@pytest.mark.parametrize("make, message", NOT_A_RESUMABLE_STOP)
def test_resume_refuses_a_log_that_does_not_end_in_a_resumable_stop(
    tmp_path, capsys, calls, make, message
):
    log = stopped_log(tmp_path)
    make(log)
    capsys.readouterr()
    calls.clear()
    before = log.read_bytes() if log.exists() else None
    assert resume_halted(log) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert (log.read_bytes() if log.exists() else None) == before
    assert calls == []


def test_two_resumes_started_together_run_once(tmp_path):
    log = stopped_log(tmp_path)
    script = halt_script(tmp_path, {"result": {}, "delay_ms": 1000})
    command = wee_cmd(
        "resume", str(log), "--workflow", str(tmp_path / "halt.wee"), "--script", str(script)
    )
    procs = [
        subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    errs = [proc.communicate(timeout=20)[1] for proc in procs]
    outcomes = sorted(zip([proc.returncode for proc in procs], errs))
    assert [code for code, _ in outcomes] == [cli.EXIT_FINISHED, cli.EXIT_ERROR], outcomes
    refusal = outcomes[1][1]
    assert refusal.count("\n") == 1, refusal
    assert "is being resumed by another process" in refusal or "not a resumable stop" in refusal
    records = read_jsonl(log)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    positions = [r.position for r in records if r.kind == "activity_start"]
    assert positions == ["halt_here", "slow", "fin"]
    assert records[-1].kind == "instance_finish"


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


def started(log: Path, position: str, after: int) -> bool:
    """Whether position has started in the log past its first `after` records."""
    return log.exists() and any(
        r.kind == "activity_start" and r.position == position for r in read_jsonl(log)[after:]
    )


def start_controlled(command: list[str], control: Path, log: Path, position: str):
    """Start `wee <command> --control CONTROL`; return once position is in flight."""
    after = len(read_jsonl(log)) if log.exists() else 0
    proc = subprocess.Popen(
        wee_cmd(*command, "--control", str(control)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    in_flight = wait_until(lambda: control.exists() and started(log, position, after), 10)
    assert in_flight, f"{position} did not start"
    return proc


def stop_controlled(control: Path, proc) -> None:
    stop = subprocess.run(
        wee_cmd("stop", "--control", str(control)), capture_output=True, text=True
    )
    assert (stop.returncode, stop.stdout) == (0, "stopped\n"), stop
    assert proc.wait(timeout=10) == cli.EXIT_STOPPED


def _start_run(seq_dir: Path):
    control, log = seq_dir / "ctl.sock", seq_dir / "seq.log"
    command = ["run", str(seq_dir / "seq.wee"), "--handler", "mock"]
    command += ["--script", str(seq_dir / "seq.script.json"), "--log", str(log)]
    return start_controlled(command, control, log, "one"), control, log


def resume_seq(seq_dir: Path, log: Path, *options: str):
    return subprocess.run(
        wee_cmd("resume", str(log), "--workflow", str(seq_dir / "seq.wee"), "--handler", "mock")
        + ["--script", str(seq_dir / "seq.script.json"), *options],
        capture_output=True,
        text=True,
    )


def test_stop_resume_round_trip(seq_dir):
    proc, control, log = _start_run(seq_dir)
    stop_controlled(control, proc)

    pre_records = read_jsonl(log)
    ack = next(i for i, r in enumerate(pre_records) if r.kind == "stop_acknowledged")
    assert not [r for r in pre_records[ack + 1 :] if r.kind == "activity_start"]
    # the log's last record is the stop, and carries the saved state
    stop = pre_records[-1]
    assert stop.kind == "instance_stop" and stop.detail["source"] == "controller"
    saved = stop.detail["saved"]
    assert saved["schema"] == 6 and saved["seq"] == stop.seq
    assert call_tokens(dsl.parse(SEQ_WEE), saved) == {"0/one": "p-one"}
    assert saved["workflow"] == dsl.parse(SEQ_WEE).source_hash

    resume = resume_seq(seq_dir, log)
    assert resume.returncode == 0, resume.stderr

    records = read_jsonl(log)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert len({r.instance for r in records}) == 1
    assert records[-1].kind == "instance_finish"
    post = records[len(pre_records) :]
    assert [r.position for r in post if r.kind == "activity_start"] == ["one", "two", "fin"]

    # the stop is resumed once
    finished = log.read_bytes()
    again = resume_seq(seq_dir, log)
    assert again.returncode == 1
    assert again.stderr == f"{log}: its last record is not a resumable stop\n"
    assert log.read_bytes() == finished


def test_a_ctrl_c_of_wee_run_stops_it_with_a_resumable_log(tmp_path):
    workflow, script, log = tmp_path / "slow.wee", tmp_path / "slow.json", tmp_path / "slow.log"
    workflow.write_text(
        'workflow { handler "mock" endpoint svc: "mock://svc" call :slow, endpoint: svc }'
    )
    script.write_text(
        json.dumps(
            {
                "positions": {"slow": {"result": {}, "delay_ms": 3000, "token": "p-slow"}},
                "passthroughs": {"p-slow": {"result": {}}},
            }
        )
    )
    options = ["--script", str(script), "--log", str(log)]
    proc = subprocess.Popen(
        wee_cmd("run", str(workflow), *options), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    try:
        assert wait_until(lambda: started(log, "slow", 0), 10), "slow did not start"
        interrupted = time.monotonic()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == cli.EXIT_STOPPED, proc.stderr.read()
        assert time.monotonic() - interrupted < 1.0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    last = read_jsonl(log)[-1]
    assert last.kind == "instance_stop" and "saved" in last.detail
    resume = subprocess.run(
        wee_cmd("resume", str(log), "--workflow", str(workflow), "--script", str(script)),
        capture_output=True,
        text=True,
    )
    assert resume.returncode == cli.EXIT_FINISHED, resume.stderr
    assert read_jsonl(log)[-1].kind == "instance_finish"


def test_resume_with_skip_region(seq_dir):
    proc, control, log = _start_run(seq_dir)
    stop_controlled(control, proc)

    resume = resume_seq(seq_dir, log, "--skip-region", "one..two")
    assert resume.returncode == 0, resume.stderr
    pre_count = next(
        i for i, r in enumerate(read_jsonl(log)) if r.kind == "instance_stop"
    )
    post = read_jsonl(log)[pre_count:]
    post_positions = [r.position for r in post if r.kind == "activity_start"]
    assert post_positions == ["fin"]


def test_resume_with_a_bad_skip_region_exits_one_and_leaves_the_log(seq_dir):
    proc, control, log = _start_run(seq_dir)
    stop_controlled(control, proc)
    stopped = log.read_bytes()
    for region, message in [
        ("two..one", "skip region 'two..one' is reversed"),
        ("ghost..two", "skip region position 'ghost' is not in the workflow"),
    ]:
        resume = resume_seq(seq_dir, log, "--skip-region", region)
        assert (resume.returncode, resume.stderr) == (1, message + "\n")
        assert log.read_bytes() == stopped


def test_resume_rejects_edited_source(seq_dir):
    proc, control, log = _start_run(seq_dir)
    stop_controlled(control, proc)
    stopped = log.read_bytes()

    edited = seq_dir / "edited.wee"
    edited.write_text(SEQ_WEE.replace(":fin", ":renamed"))
    resume = subprocess.run(
        wee_cmd("resume", str(log), "--workflow", str(edited), "--handler", "mock"),
        capture_output=True,
        text=True,
    )
    assert resume.returncode == 1
    assert resume.stderr == "workflow source hash mismatch: refusing to resume\n"
    assert log.read_bytes() == stopped


CHAIN_WEE = """
workflow {
  handler "mock"
  endpoint svc: "mock://svc"
  context a: 0
  context b: 0
  context done: false
  call :one, endpoint: svc
  call :two, endpoint: svc
  manipulate :fin { done = true }
}
"""


def chain_script(directory: Path, delay_ms: int) -> Path:
    script = directory / f"chain{delay_ms}.json"
    script.write_text(
        json.dumps(
            {
                "positions": {
                    "one": {"result": {"a": 1}, "delay_ms": delay_ms, "token": "p-one"},
                    "two": {"result": {"b": 2}, "delay_ms": delay_ms, "token": "p-two"},
                },
                "passthroughs": {"p-one": {"result": {"a": 1}}, "p-two": {"result": {"b": 2}}},
            }
        )
    )
    return script


def test_a_stop_resume_stop_resume_chain_keeps_one_log(tmp_path):
    workflow, log, control = tmp_path / "chain.wee", tmp_path / "chain.log", tmp_path / "c.sock"
    workflow.write_text(CHAIN_WEE)
    slow = str(chain_script(tmp_path, 5000))
    resume = ["resume", str(log), "--workflow", str(workflow), "--script", slow]
    stop_controlled(
        control, start_controlled(["run", str(workflow), "--script", slow, "--log", str(log)],
                                  control, log, "one")
    )
    # the resume replays one, then the second stop catches two
    stop_controlled(control, start_controlled(resume, control, log, "two"))
    assert cli.main(resume) == cli.EXIT_FINISHED

    reference = tmp_path / "reference.log"
    fast = str(chain_script(tmp_path, 0))
    assert cli.main(["run", str(workflow), "--script", fast, "--log", str(reference)]) == 0

    records = read_jsonl(log)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert len({r.instance for r in records}) == 1
    assert records[-1].kind == "instance_finish"
    initial = {"a": 0, "b": 0, "done": False}
    final = replay_context(records, initial)
    assert final == replay_context(read_jsonl(reference), initial) == {
        "a": 1, "b": 2, "done": True
    }
    # each call starts once, apart from the replays of the calls a stop interrupted
    ast = dsl.parse(CHAIN_WEE)
    replays: set[str] = set()
    fresh: collections.Counter[str] = collections.Counter()
    for r in records:
        if r.kind == "instance_stop":
            replays |= set(call_tokens(ast, r.detail["saved"]))
        elif r.kind == "activity_start":
            call_id = f"{r.branch}/{r.position}"
            if call_id in replays:
                replays.remove(call_id)
            else:
                fresh[call_id] += 1
    assert fresh == {"0/one": 1, "0/two": 1, "0/fin": 1}
    assert replays == set()
    stops = [call_tokens(ast, r.detail["saved"]) for r in records if r.kind == "instance_stop"]
    assert stops == [{"0/one": "p-one"}, {"0/two": "p-two"}]


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
    log, control = tmp_path / "log.jsonl", tmp_path / "ctl.sock"
    proc = start_controlled(["run", str(workflow), "--log", str(log)], control, log, "nest")
    time.sleep(0.1)  # the nested instance is counting
    stop_controlled(control, proc)

    # the token carries the stopped nested instance into the stop record
    saved = read_jsonl(log)[-1].detail["saved"]
    token = json.loads(call_tokens(dsl.parse(NESTED_COUNT_WEE), saved)["0/nest"])
    assert token["saved"]["schema"] == 6
    assert token["saved"]["workflow"] == saved["workflow"]
    assert 0 < token["saved"]["context"]["total"] < 40000
    assert saved["context"]["total"] == 0

    resume = subprocess.run(
        wee_cmd("resume", str(log), "--workflow", str(workflow)),
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
    proc, control, log = _start_run(seq_dir)
    stop_controlled(control, proc)
    # the process has exited: a later stop is an unknown instance
    second = subprocess.run(
        wee_cmd("stop", "--control", str(control), "--timeout", "0.5"),
        capture_output=True,
        text=True,
    )
    assert second.returncode == 1


# -- unit-level helpers -------------------------------------------------------


def control_reply(control: Path) -> str:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(5)
        sock.connect(str(control))
        sock.sendall(b"stop\n")
        return sock.makefile().readline().strip()


def test_control_server_reports_already_terminal(tmp_path):
    instance = WorkflowInstance(
        dsl.parse('workflow { handler "mock" manipulate :a { } }'), MockHandler()
    )
    instance.run()
    control = tmp_path / "ctl.sock"
    server = cli._ControlServer(str(control), instance)
    try:
        assert control_reply(control) == "already-terminal finished"
    finally:
        server.close()


class Gated(HandlerWrapper):
    """Answers each call once released."""

    def __init__(self):
        self.release = threading.Event()

    def call(self, call):
        self.release.wait(5)
        return Result({})


def test_a_stop_that_the_instance_outruns_replies_already_terminal(tmp_path):
    handler = Gated()
    instance = WorkflowInstance(
        dsl.parse('workflow { handler "mock" endpoint s: "mock://s" call :c, endpoint: s }'),
        handler,
    )
    instance.start()
    assert wait_until(lambda: starts(instance, "c"))
    request_stop = instance.request_stop

    def finish_first(source="controller"):
        # the instance ends between the control server's request and its stop
        handler.release.set()
        assert instance.wait() == "finished"
        request_stop(source)

    instance.request_stop = finish_first
    control = tmp_path / "ctl.sock"
    server = cli._ControlServer(str(control), instance)
    try:
        assert control_reply(control) == "already-terminal finished"
    finally:
        server.close()
    assert instance.result == "finished"


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


def test_resume_of_a_saved_state_of_the_wrong_shape_exits_one(tmp_path, capsys):
    # a state the engine refuses, as this wee and as three earlier formats wrote it
    refused = {
        "corrupt saved state: branch 0: path 0": lambda saved: {
            **saved,
            "branches": [{"id": "0", "path": 0}],
        },
        "saved state has schema 5, expected 6": lambda saved: {
            **saved,
            "schema": 5,
            "interrupted": {"0/slow": "tok-slow"},
        },
        "saved state has schema 4, expected 6": lambda saved: {
            **saved,
            "schema": 4,
            "interrupted": {"0/slow": {"passthrough": "tok-slow"}},
        },
        "saved state has schema 2, expected 6": lambda saved: {
            "schema": 2,
            "lifecycle": "stopped",
            "branches": [{"id": "0", "path": [1]}],
            "context": {"done": False},
            "version": 0,
            "passthroughs": {},
            "ended_calls": {},
        },
    }
    for message, edit in refused.items():
        log = stopped_log(tmp_path)
        edit_saved(log, edit)
        before = log.read_bytes()
        capsys.readouterr()
        assert resume_halted(log, "--handler", "mock") == cli.EXIT_ERROR
        assert capsys.readouterr().err == message + "\n"
        assert log.read_bytes() == before


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
    events.write_text('{"key": "go"}\n')
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
    log = tmp_path / "halt.log"
    proc = subprocess.run(
        wee_cmd("run", str(workflow), "--handler", "mock", "--log", str(log)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    stop = read_jsonl(log)[-1]
    assert stop.kind == "instance_stop" and stop.detail["saved"]["seq"] == stop.seq


@pytest.mark.parametrize(
    "argv, usage",
    [(["run"], "usage: wee run "), (["bogus"], "usage: wee "), ([], "usage: wee ")],
    ids=["run-without-workflow", "unknown-command", "no-command"],
)
def test_a_usage_error_exits_one_with_the_usage_on_stderr(argv, usage):
    # 2 means stopped, so a caller must not read a usage error as a resumable stop
    proc = subprocess.run(wee_cmd(*argv), capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_ERROR
    assert proc.stderr.startswith(usage), proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]
    assert proc.stdout == ""
