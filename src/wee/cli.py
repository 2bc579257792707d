"""Command-line controller: run, stop, resume, and check workflows.

`wee run` executes a workflow to its terminal state and writes the JSONL
event log; exit code 0 means finished, 2 stopped, 1 error. A run started
with --control listens on a unix socket so `wee stop` can park the instance;
the saved state file can then be handed to `wee resume`, optionally skipping
a region of positions (`--skip-region first..last`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
from pathlib import Path
from typing import Optional

from . import dsl
from .engine import EngineError, RunOptions, WorkflowInstance
from .events import FixedClock, read_jsonl
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


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


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
    timeout: float = 30.0,
) -> HandlerWrapper:
    script = None
    if script_path is not None:
        with open(script_path, encoding="utf-8") as fh:
            script = json.load(fh)
    if name == "mock":
        return MockHandler(script or {}, seed=seed)
    if name == "http":
        return HttpHandler(timeout=(script or {}).get("timeout", timeout))
    if name == "trigger":
        config = script or {}
        events = None
        if "events_file" in config:
            events = load_trigger_events(config["events_file"])
        return TriggerHandler(config.get("mode", "persistent"), events=events)
    if name == "jump":
        return JumpHandler((script or {}).get("table", script or {}))
    if name == "recursive":
        config = script or {}
        return RecursiveHandler(
            source=workflow_source, max_depth=config.get("max_depth", 16)
        )
    raise ControllerError(f"unknown handler '{name}' (expected one of {HANDLER_NAMES})")


def parse_skip_region(spec: str, ast: dsl.WorkflowAst) -> frozenset[str]:
    """Expand "first..last" into the contiguous source-order position range."""
    ordered = dsl.positions(ast)
    if ".." in spec:
        first, _, last = spec.partition("..")
    else:
        first = last = spec
    first, last = first.strip(), last.strip()
    for name in (first, last):
        if name not in ordered:
            raise ControllerError(f"skip region position '{name}' is not in the workflow")
    lo, hi = ordered.index(first), ordered.index(last)
    if lo > hi:
        raise ControllerError(f"skip region '{spec}' is reversed")
    return frozenset(ordered[lo : hi + 1])


def default_save_path(workflow_path: str | Path) -> Path:
    return Path(str(workflow_path) + ".saved.json")


def write_saved_instance(path: str | Path, saved: dict, src_hash: str) -> None:
    payload = {"hash": src_hash, **saved}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_saved_instance(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        saved = json.load(fh)
    for key in ("hash", "lifecycle", "branches", "context", "version", "passthroughs"):
        if key not in saved:
            raise ControllerError(f"saved instance is missing '{key}'")
    return saved


class _ControlServer:
    """Unix-socket listener accepting stop requests for a running instance."""

    def __init__(self, path: str, instance: WorkflowInstance, on_stop):
        self.path = path
        self.instance = instance
        self.on_stop = on_stop
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
                        reply = self._handle_stop()
                    else:
                        reply = f"error unknown command {command!r}"
                    conn.sendall((reply + "\n").encode("utf-8"))
                except OSError:
                    pass

    def _handle_stop(self) -> str:
        if self.instance.result is not None:
            return f"already-terminal {self.instance.result}"
        self.instance.deliver_stop()
        saved_to = self.on_stop()
        return f"stopped {saved_to}"

    def close(self) -> None:
        # wakes the blocked accept(); an accepted stop request still finishes
        # replying before the thread is joined
        self._sock.shutdown(socket.SHUT_RDWR)
        self.thread.join(timeout=5)
        try:
            self._sock.close()
        finally:
            Path(self.path).unlink(missing_ok=True)


def execute_instance(
    instance: WorkflowInstance,
    control_path: Optional[str],
    save_path: str | Path,
    src_hash: str,
) -> int:
    """Run an instance under optional control, saving it to save_path when stopped."""
    persisted = threading.Event()

    def persist() -> str:
        if instance.result in ("stopped", "error") and not persisted.is_set():
            persisted.set()
            write_saved_instance(save_path, instance.save(), src_hash)
        return str(save_path)

    server = None
    try:
        instance.start()
        if control_path:
            server = _ControlServer(control_path, instance, persist)
        result = instance.wait()
    finally:
        if server is not None:
            server.close()
    if result == "stopped":
        persist()
        return EXIT_STOPPED
    if result == "finished":
        return EXIT_FINISHED
    for record in instance.log.records:
        if record.kind == "error":
            print(f"error: {record.detail.get('message')}", file=sys.stderr)
    return EXIT_ERROR


def cmd_run(args: argparse.Namespace) -> int:
    try:
        source, ast = load_workflow(args.workflow)
        handler_name = args.handler or ast.handler_name
        handler = build_handler(
            handler_name, args.script, seed=args.seed, workflow_source=source
        )
    except ControllerError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR

    options = RunOptions(
        max_iterations=args.max_iterations,
        log_path=args.log or "-",  # events stream to stdout unless redirected
        clock=FixedClock() if args.fixed_clock else None,
    )
    instance = WorkflowInstance(ast, handler, options)
    save_path = args.save or default_save_path(args.workflow)
    return execute_instance(instance, args.control, save_path, source_hash(source))


def cmd_stop(args: argparse.Namespace) -> int:
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
    if reply.startswith("stopped") or reply.startswith("already-terminal"):
        return 0
    return EXIT_ERROR


def cmd_resume(args: argparse.Namespace) -> int:
    try:
        saved = load_saved_instance(args.saved)
        if not args.workflow:
            raise ControllerError("resume needs --workflow pointing at the original source")
        source, ast = load_workflow(args.workflow)
        if source_hash(source) != saved["hash"]:
            raise ControllerError("workflow source hash mismatch: refusing to resume")
        handler_name = args.handler or ast.handler_name
        handler = build_handler(
            handler_name, args.script, seed=args.seed, workflow_source=source
        )
        skip = parse_skip_region(args.skip_region, ast) if args.skip_region else frozenset()
    except (ControllerError, json.JSONDecodeError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR

    start_seq = 0
    instance_id = None
    if args.log and Path(args.log).exists():
        try:
            prior = read_jsonl(args.log)
            if prior:
                start_seq = prior[-1].seq
                instance_id = prior[-1].instance
        except (json.JSONDecodeError, KeyError) as exc:
            print(f"cannot continue log {args.log}: {exc}", file=sys.stderr)
            return EXIT_ERROR

    options = RunOptions(
        max_iterations=args.max_iterations,
        log_path=args.log or "-",
        log_append=True,
        start_seq=start_seq,
        instance_id=instance_id,
        clock=FixedClock() if args.fixed_clock else None,
    )
    try:
        instance = WorkflowInstance.resume(
            ast, handler, saved, options, skip_positions=skip
        )
    except EngineError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR

    return execute_instance(instance, args.control, args.save or args.saved, saved["hash"])


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

    report = harness.run_all(args.corpus, parallel=args.parallel, seed=args.seed or 0)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    print(report.render_table())
    return EXIT_FINISHED if report.all_passed else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wee", description="workflow execution engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--handler", choices=HANDLER_NAMES, default=None)
        p.add_argument("--script", default=None, help="handler script/config JSON")
        p.add_argument("--log", default=None, help="event log JSONL path")
        p.add_argument("--control", default=None, help="control socket path")
        p.add_argument("--save", default=None, help="saved-instance path (on stop)")
        p.add_argument("--max-iterations", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--fixed-clock", action="store_true", help="deterministic timestamps")

    run_p = sub.add_parser("run", help="execute a workflow file")
    run_p.add_argument("workflow")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    stop_p = sub.add_parser("stop", help="stop a running instance")
    stop_p.add_argument("--control", required=True)
    stop_p.add_argument("--timeout", type=float, default=30.0)
    stop_p.set_defaults(func=cmd_stop)

    resume_p = sub.add_parser("resume", help="resume a stopped instance")
    resume_p.add_argument("saved")
    resume_p.add_argument("--workflow", required=False, default=None)
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
