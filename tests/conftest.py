from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from wee import dsl
from wee.engine import RunOptions, WorkflowInstance
from wee.handlers import HandlerWrapper, Result


class CountingStubServer:
    """Local HTTP stub that counts POSTs per path and serves canned results.

    `responses` maps a path (e.g. "/airline") to the JSON "result" object;
    `delays` holds per-path artificial response delays in seconds;
    `redirects` maps a path to the path its response's Location names.
    `received` holds (method, path, Content-Type, body bytes) per request.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.responses: dict[str, dict] = {}
        self.delays: dict[str, float] = {}
        self.status_codes: dict[str, int] = {}
        self.redirects: dict[str, str] = {}
        self.received: list[tuple[str, str, str | None, bytes]] = []
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                request = (self.command, self.path, self.headers.get("Content-Type"))
                request += (self.rfile.read(length),)
                with stub._lock:
                    stub.counts[self.path] = stub.counts.get(self.path, 0) + 1
                    stub.received.append(request)
                delay = stub.delays.get(self.path, 0)
                if delay:
                    time.sleep(delay)
                status = stub.status_codes.get(self.path, 200)
                body = json.dumps({"result": stub.responses.get(self.path, {})}).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if self.path in stub.redirects:
                    self.send_header("Location", stub.url(stub.redirects[self.path]))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST

            def handle(self):
                try:
                    super().handle()
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client has gone, as one that timed out has

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_server():
    server = CountingStubServer()
    yield server
    server.close()


def run_source(source: str, handler, **options) -> WorkflowInstance:
    ast = dsl.parse(source)
    diagnostics = dsl.validate(ast)
    assert not diagnostics, diagnostics
    instance = WorkflowInstance(ast, handler, RunOptions(**options))
    instance.run()
    return instance


def finish(instance: WorkflowInstance, timeout=5.0) -> str:
    """Run the instance; fail instead of hanging if a baton is lost."""
    runner = threading.Thread(target=instance.run, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the instance did not end"
    return instance.result


def wait_until(predicate, timeout=2.0) -> bool:
    """Poll until predicate() holds; False if it still fails after timeout seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.002)
    return True


def starts(instance: WorkflowInstance, position: str | None = None) -> list:
    return [
        r
        for r in instance.log.records
        if r.kind == "activity_start" and (position is None or r.position == position)
    ]


def kinds(instance: WorkflowInstance) -> list[str]:
    return [r.kind for r in instance.log.records]


def call_tokens(ast: dsl.WorkflowAst, saved: dict) -> dict[str, str]:
    """Each token of a saved state by the call id of the call at its branch's path."""
    tokens = {}
    for entry in saved["branches"]:
        if "token" in entry:
            call = dsl.nodes_along(ast, entry["path"])[-1]
            assert isinstance(call, dsl.CallActivity), entry
            tokens[f"{entry['id']}/{call.position}"] = entry["token"]
    return tokens


class Answers(HandlerWrapper):
    """Returns the same result values to every call, unchecked."""

    def __init__(self, values: dict):
        self.values = values

    def call(self, call):
        return Result(self.values)
