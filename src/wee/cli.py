"""Command-line controller: run, stop, resume, and check workflows.

`wee run` executes a workflow to its terminal state and writes the JSONL
event log; exit code 0 means finished, 2 stopped, 1 error, a usage error
included. A run started with --control listens on a unix socket so `wee
stop` can park the instance. A stopped instance's last record carries its
saved state, so `wee resume LOG` reads only that line and appends the
resumed trace to LOG, optionally skipping a region of positions
(`--skip-region first..last`). The resumed instance keeps the stopped one's
id and continues its seq. Once it has written a record, LOG no longer ends
in a resumable stop, so a stop is resumed once; an exclusive lock on LOG
keeps two resumes from racing. The engine alone checks the saved state.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
import threading
from pathlib import Path
from typing import NoReturn, Optional

from . import dsl
from .engine import EngineError, RunOptions, WorkflowInstance
from .events import FixedClock
from .handlers import (
    HandlerWrapper,
    HttpHandler,
    JumpHandler,
    MockHandler,
    RecursiveHandler,
    TriggerHandler,
    load_trigger_events,
)

EXIT_FINISHED = 0
EXIT_ERROR = 1
EXIT_STOPPED = 2

HANDLER_NAMES = ("mock", "http", "trigger", "jump", "recursive")


class ControllerError(Exception):
    pass


def load_workflow(path: str | Path) -> tuple[str, dsl.WorkflowAst]:
    """Parse and validate a workflow file; raises ControllerError with diagnostics."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ControllerError(f"cannot read {path}: {exc}") from exc
    try:
        ast = dsl.parse(source)
    except dsl.ParseError as exc:
        raise ControllerError(f"{path}: {exc}") from exc
    diagnostics = dsl.validate(ast)
    if diagnostics:
        listing = "\n".join(f"{path}: {d}" for d in diagnostics)
        raise ControllerError(listing)
    return source, ast


def build_handler(
    name: str,
    script_path: Optional[str] = None,
    seed: Optional[int] = None,
    workflow_source: Optional[str] = None,
) -> HandlerWrapper:
    config: dict = {}
    if script_path is not None:
        try:
            with open(script_path, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ControllerError(f"cannot read script {script_path}: {exc}") from exc
        if not isinstance(config, dict):
            raise ControllerError(f"script {script_path} is not a JSON object")
    try:
        if name == "mock":
            return MockHandler(config, seed=seed)
        if name == "http":
            return HttpHandler(timeout=config.get("timeout", 30.0))
        if name == "trigger":
            keys = []
            if "events_file" in config:
                path = config["events_file"]
                if not isinstance(path, str):  # open() reads an int as a descriptor
                    raise TypeError(f"events_file {path!r} is not a path string")
                try:
                    keys = load_trigger_events(path)
                except (OSError, TypeError, ValueError, KeyError) as exc:
                    # missing, not JSONL, or a record without "key"
                    raise ControllerError(
                        f"bad events file {path}: {type(exc).__name__}: {exc}"
                    ) from exc
            return TriggerHandler(config.get("mode", "persistent"), keys=keys)
        if name == "jump":
            return JumpHandler(config.get("table", config))
        if name == "recursive":
            return RecursiveHandler(
                source=workflow_source, max_depth=config.get("max_depth", 16)
            )
    # a script field of the wrong type or shape
    except (TypeError, ValueError, KeyError, dsl.ParseError) as exc:
        raise ControllerError(f"bad script {script_path}: {type(exc).__name__}: {exc}") from exc
    raise ControllerError(f"unknown handler '{name}' (expected one of {HANDLER_NAMES})")


def claim_stop(path: str, held: contextlib.ExitStack) -> dict:
    """Lock the log until held closes; the saved state that its last line,
    read backwards from the end, carries as a stop record."""
    try:
        fh = held.enter_context(open(path, "rb"))
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as exc:
        raise ControllerError(f"{path} is being resumed by another process") from exc
    except OSError as exc:  # missing, a directory, unreadable
        raise ControllerError(f"cannot open log {path}: {exc}") from exc
    pos, line = fh.seek(0, os.SEEK_END), b""
    # a newline before the final byte ends the line before the last
    while pos > 0 and line.rfind(b"\n", 0, len(line) - 1) < 0:
        step = min(pos, 1 << 16)
        pos -= step
        fh.seek(pos)
        line = fh.read(step) + line
    line = line[line.rfind(b"\n", 0, len(line) - 1) + 1 :]
    if not line.endswith(b"\n"):  # empty, or cut short by a killed writer
        raise ControllerError(f"{path} does not end in a whole line: nothing to resume")
    try:
        record = json.loads(line)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ControllerError(f"{path}: its last line is not a record: {exc}") from exc
    stop = isinstance(record, dict) and record.get("kind") == "instance_stop"
    detail = record.get("detail") if stop else None
    if not isinstance(detail, dict) or "saved" not in detail:
        raise ControllerError(f"{path}: its last record is not a resumable stop")
    # the rest of the state is WorkflowInstance.resume's to check
    return detail["saved"]


class _ControlServer:
    """Unix-socket listener that takes the stop command for a running instance."""

    def __init__(self, path: str, instance: WorkflowInstance):
        self.path = path
        self.instance = instance
        import socket  # only a run under control and `wee stop` open a socket

        Path(path).unlink(missing_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(1)
        self.thread = threading.Thread(target=self._serve, name="wee-control", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # close() shut the listening socket down
                break
            with conn:
                try:
                    command = conn.recv(4096).decode("utf-8").strip()
                    if command == "stop":
                        # decided by how the instance ended: it may end first
                        result = self.instance.deliver_stop()
                        reply = "stopped" if result == "stopped" else f"already-terminal {result}"
                    else:
                        reply = f"error unknown command {command!r}"
                    conn.sendall((reply + "\n").encode("utf-8"))
                except OSError:
                    pass

    def close(self) -> None:
        # wakes the blocked accept(); an accepted stop request still finishes
        # replying before the thread is joined
        import socket

        self._sock.shutdown(socket.SHUT_RDWR)
        self.thread.join(timeout=5)
        try:
            self._sock.close()
        finally:
            Path(self.path).unlink(missing_ok=True)


def execute_instance(instance: WorkflowInstance, control_path: Optional[str]) -> int:
    """Run an instance under optional control; its exit code. A Ctrl-C
    stops the instance as `wee stop` does, so its log can be resumed."""
    server = None
    try:
        try:
            instance.start()  # the interrupt may land here, once the root runs
            if control_path:
                server = _ControlServer(control_path, instance)
            result = instance.wait()
        except KeyboardInterrupt:
            result = instance.deliver_stop()
    finally:
        if server is not None:
            server.close()
    if result == "stopped":
        return EXIT_STOPPED
    if result == "finished":
        return EXIT_FINISHED
    for message in instance.errors:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def load_run(args: argparse.Namespace) -> tuple[dsl.WorkflowAst, HandlerWrapper, RunOptions]:
    """The workflow, handler and options a run or resume names; raises ControllerError."""
    source, ast = load_workflow(args.workflow)
    handler = build_handler(
        args.handler or ast.handler_name, args.script, seed=args.seed, workflow_source=source
    )
    options = RunOptions(
        max_iterations=args.max_iterations,
        log_path=args.log or "-",  # events stream to stdout unless redirected
        clock=FixedClock() if args.fixed_clock else None,
    )
    return ast, handler, options


def cmd_run(args: argparse.Namespace) -> int:
    try:
        instance = WorkflowInstance(*load_run(args))
    except ControllerError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # the log: a missing directory, a directory, unwritable
        print(f"cannot open log {args.log}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return execute_instance(instance, args.control)


def cmd_stop(args: argparse.Namespace) -> int:
    import socket

    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(args.timeout)
            sock.connect(args.control)
            sock.sendall(b"stop\n")
            reply = sock.makefile().readline().strip()
    except OSError as exc:
        print(f"cannot reach instance at {args.control}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(reply)
    return 0 if reply.startswith(("stopped", "already-terminal")) else EXIT_ERROR


def cmd_resume(args: argparse.Namespace) -> int:
    # the log stays locked until the resumed instance has ended: a second
    # resume finds it locked, or finds its stop resumed
    with contextlib.ExitStack() as held:
        try:
            if not args.workflow:
                raise ControllerError("resume needs --workflow pointing at the original source")
            saved = claim_stop(args.log, held)
            ast, handler, options = load_run(args)
            try:
                skip = dsl.parse_skip_region(args.skip_region or "", ast)
            except ValueError as exc:
                raise ControllerError(str(exc)) from exc
            # the trace continues the stopped instance's id and seq in its log
            instance = WorkflowInstance.resume(ast, handler, saved, options, skip_positions=skip)
        # EngineError: a state the engine refuses, which leaves the log untouched
        except (ControllerError, EngineError) as exc:
            print(exc, file=sys.stderr)
            return EXIT_ERROR
        except OSError as exc:
            print(f"cannot open log {args.log}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        return execute_instance(instance, args.control)


def cmd_check(args: argparse.Namespace) -> int:
    path = args.workflow
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        ast = dsl.parse(source)
    except dsl.ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    diagnostics = dsl.validate(ast)
    for diag in diagnostics:
        print(f"{path}: {diag}", file=sys.stderr)
    print(f"workflow: {path}")
    print(f"handler:  {ast.handler_name}")
    ordered = dsl.positions(ast)
    paths = dsl.position_paths(ast)
    print(f"{'position':<24} path")
    for name in ordered:
        print(f"{name:<24} {list(paths[name])}")
    return EXIT_ERROR if diagnostics else EXIT_FINISHED


def cmd_patterns(args: argparse.Namespace) -> int:
    from .patterns import harness

    try:
        report = harness.run_all(args.corpus, parallel=args.parallel, seed=args.seed or 0)
    except (OSError, ValueError) as exc:  # a case file missing, unreadable or malformed
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    print(report.render_table())
    return EXIT_FINISHED if report.all_passed else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other: 2 means stopped. The
    subcommands' parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wee", description="workflow execution engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--handler", choices=HANDLER_NAMES, default=None)
        p.add_argument("--script", default=None, help="handler script/config JSON")
        p.add_argument("--control", default=None, help="control socket path")
        p.add_argument("--max-iterations", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--fixed-clock", action="store_true", help="deterministic timestamps")

    run_p = sub.add_parser("run", help="execute a workflow file")
    run_p.add_argument("workflow")
    run_p.add_argument("--log", default=None, help="event log JSONL path")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    stop_p = sub.add_parser("stop", help="stop a running instance")
    stop_p.add_argument("--control", required=True)
    stop_p.add_argument("--timeout", type=float, default=30.0)
    stop_p.set_defaults(func=cmd_stop)

    resume_p = sub.add_parser("resume", help="resume the stop a log ends with")
    resume_p.add_argument("log", help="the stopped instance's event log, appended to")
    resume_p.add_argument("--workflow", default=None, help="the workflow source it ran")
    resume_p.add_argument("--skip-region", default=None, help="positions first..last to skip")
    add_common(resume_p)
    resume_p.set_defaults(func=cmd_resume)

    check_p = sub.add_parser("check", help="validate a workflow and list positions")
    check_p.add_argument("workflow")
    check_p.set_defaults(func=cmd_check)

    patterns_p = sub.add_parser("patterns", help="run the pattern conformance corpus")
    patterns_p.add_argument("--corpus", default=None, help="corpus directory override")
    patterns_p.add_argument("--report", default=None, help="write coverage JSON here")
    patterns_p.add_argument("--parallel", action="store_true")
    patterns_p.add_argument("--seed", type=int, default=0)
    patterns_p.set_defaults(func=cmd_patterns)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
