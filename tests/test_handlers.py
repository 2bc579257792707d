from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from conftest import call_tokens, finish, wait_until
from wee import dsl
from wee.engine import RunOptions, WorkflowInstance
from wee.handlers import (
    Failure,
    HandlerCall,
    HttpHandler,
    Jump,
    JumpHandler,
    MockHandler,
    Passthrough,
    RecursiveHandler,
    Result,
    StopToken,
    TriggerHandler,
)


def make_call(
    position="p", endpoint="mock://svc", parameters=None, context=None, passthrough=None, call_id=None
):
    # handlers treat the call id as an opaque key; by default it is the position
    return HandlerCall(
        call_id=call_id or position,
        position=position,
        endpoint=endpoint,
        parameters=parameters or {},
        context=context or {},
        context_version=0,
        stop=StopToken(),
        passthrough=passthrough,
    )


def stopped_call(*args, **kwargs):
    """A call whose stop token was set before the handler saw it."""
    call = make_call(*args, **kwargs)
    call.stop.set()
    return call


# -- stop token -----------------------------------------------------------------


def test_a_token_set_before_the_wait_returns_true_at_once():
    token = StopToken()
    assert not token.is_set()
    token.set()
    started = time.monotonic()
    assert token.wait(5) is True
    assert token.is_set()
    assert time.monotonic() - started < 1.0


def test_a_token_woken_before_the_wait_returns_false_at_once():
    token = StopToken()
    token.wake()
    started = time.monotonic()
    assert token.wait(5) is False
    assert not token.is_set()
    assert time.monotonic() - started < 1.0


def test_a_wait_that_times_out_returns_false():
    token = StopToken()
    started = time.monotonic()
    assert token.wait(0.05) is False
    assert time.monotonic() - started >= 0.04


def test_a_set_from_another_thread_ends_a_blocked_wait():
    token = StopToken()
    outcome = []
    waiter = threading.Thread(target=lambda: outcome.append(token.wait(10)))
    started = time.monotonic()
    waiter.start()
    time.sleep(0.05)  # let the waiter block
    token.set()
    waiter.join(5)
    assert not waiter.is_alive()
    assert outcome == [True]
    assert time.monotonic() - started < 5


def test_racing_sets_and_wakes_end_every_wait_at_once():
    # a set or wake that lost its notify would leave its wait to time out
    tokens = [StopToken() for _ in range(400)]
    results: list = [None] * len(tokens)

    def waiter(first: int) -> None:
        for i in range(first, len(tokens), 4):
            results[i] = tokens[i].wait(5)

    def setter(first: int) -> None:
        for i in range(first, len(tokens), 4):
            if i % 2:
                tokens[i].set()
            else:
                tokens[i].wake()

    threads = [threading.Thread(target=f, args=(k,)) for f in (waiter, setter) for k in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert time.monotonic() - started < 4
    assert results == [bool(i % 2) for i in range(len(tokens))]


# -- mock -----------------------------------------------------------------------


def test_mock_scripted_result():
    handler = MockHandler({"positions": {"book_airline": [{"result": {"airline_cost": 4000}}]}})
    outcome = handler.call(make_call("book_airline"))
    assert outcome == Result({"airline_cost": 4000})
    assert handler.invocations == {"book_airline": 1}


def test_mock_exhausted_script_is_an_error():
    handler = MockHandler({"positions": {"once": [{"result": {}}]}})
    assert isinstance(handler.call(make_call("once")), Result)
    assert isinstance(handler.call(make_call("once")), Failure)


def test_mock_unscripted_position_is_an_error():
    handler = MockHandler({"positions": {}})
    outcome = handler.call(make_call("mystery"))
    assert isinstance(outcome, Failure)
    assert "mystery" in outcome.message


def test_mock_default_entry_covers_any_position():
    handler = MockHandler({"default": {"result": {}}})
    assert isinstance(handler.call(make_call("anything")), Result)
    assert isinstance(handler.call(make_call("anything")), Result)


def test_mock_single_entry_repeats():
    handler = MockHandler({"positions": {"w": {"result": {}}}})
    for _ in range(5):
        assert isinstance(handler.call(make_call("w")), Result)
    assert handler.invocations["w"] == 5


def test_mock_passthrough_replay_skips_invocation_count():
    handler = MockHandler({"passthroughs": {"p1": {"result": {"x": 7}}}})
    outcome = handler.call(make_call("a", passthrough="p1"))
    assert outcome == Result({"x": 7})
    assert handler.invocations == {}


def test_mock_unknown_passthrough_token():
    handler = MockHandler({})
    outcome = handler.call(make_call("a", passthrough="nope"))
    assert isinstance(outcome, Failure)


def test_mock_stop_call_interrupts_delay_with_passthrough():
    handler = MockHandler({"positions": {"slow": {"result": {}, "delay_ms": 2000, "token": "t9"}}})
    box = {}
    call = make_call("slow", call_id="0.1/slow")

    def blocked():
        box["outcome"] = handler.call(call)

    thread = threading.Thread(target=blocked)
    started = time.monotonic()
    thread.start()
    time.sleep(0.05)
    call.stop.set()
    thread.join(timeout=2)
    assert not thread.is_alive()
    assert time.monotonic() - started < 1.0  # far less than the scripted delay
    assert box["outcome"] == Passthrough("t9")


def test_mock_stop_call_with_finish_policy_returns_result():
    handler = MockHandler(
        {"positions": {"slow": {"result": {"x": 1}, "delay_ms": 2000, "on_stop": "finish"}}}
    )
    box = {}
    call = make_call("slow")
    thread = threading.Thread(target=lambda: box.setdefault("o", handler.call(call)))
    thread.start()
    time.sleep(0.05)
    call.stop.set()
    thread.join(timeout=2)
    assert box["o"] == Result({"x": 1})


def test_mock_stop_call_without_inflight_is_noop():
    handler = MockHandler({"default": {"result": {}}})
    call = make_call("done")
    assert handler.call(call) == Result({})
    call.stop.set()  # the call has ended: must not raise
    call.stop.set()


def test_mock_call_whose_token_is_already_set_returns_passthrough_at_once():
    handler = MockHandler({"positions": {"slow": {"result": {}, "delay_ms": 2000, "token": "t9"}}})
    started = time.monotonic()
    assert handler.call(stopped_call("slow")) == Passthrough("t9")
    assert time.monotonic() - started < 1.0


def test_mock_seeded_delays_are_stable_per_invocation():
    a = MockHandler({"positions": {"p": {"result": {}, "delay_ms": [0, 10]}}}, seed=42)
    b = MockHandler({"positions": {"p": {"result": {}, "delay_ms": [0, 10]}}}, seed=42)
    assert a._delay_ms({"delay_ms": [0, 10]}, "p", 0) == b._delay_ms({"delay_ms": [0, 10]}, "p", 0)
    assert a._delay_ms({"delay_ms": [0, 10]}, "p", 0) != a._delay_ms({"delay_ms": [0, 10]}, "p", 1)


# -- http -----------------------------------------------------------------------


def test_http_maps_result_body(stub_server):
    stub_server.responses["/airline"] = {"cost": 4000}
    handler = HttpHandler(timeout=5)
    outcome = handler.call(make_call("a", endpoint=stub_server.url("/airline")))
    assert outcome == Result({"cost": 4000})
    assert stub_server.counts["/airline"] == 1


class ThreadRecordingHttp(HttpHandler):
    """Records the name and target of the thread that each request runs on."""

    def __init__(self):
        super().__init__(timeout=5)
        self.threads: list[tuple] = []

    def _post(self, endpoint, body):
        thread = threading.current_thread()
        self.threads.append((thread.name, thread._target))
        return super()._post(endpoint, body)


def test_http_requests_run_on_the_engines_thread_cache(stub_server, monkeypatch):
    from wee import engine

    stub_server.responses["/quote"] = {"cost": 1}
    handler = ThreadRecordingHttp()
    caller = threading.current_thread()
    started = []
    real_start = threading.Thread.start

    def start(thread):
        if threading.current_thread() is caller:  # not the stub server's request threads
            started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    for i in range(20):
        outcome = handler.call(make_call(f"q{i}", endpoint=stub_server.url("/quote")))
        assert outcome == Result({"cost": 1})
    assert handler.threads == [(f"http-q{i}", engine._serve) for i in range(20)]
    assert len(started) <= 1, started


def test_http_posts_the_call_as_a_json_body(stub_server):
    handler = HttpHandler(timeout=5)
    call = make_call(
        "book",
        endpoint=stub_server.url("/airline"),
        parameters={"seats": 2, "city": "Zürich"},
        context={"budget": 5000, "approved": True, "note": None},
    )
    assert handler.call(call) == Result({})
    [(method, path, content_type, body)] = stub_server.received
    assert (method, path, content_type) == ("POST", "/airline", "application/json")
    assert json.loads(body) == {
        "position": "book",
        "parameters": {"seats": 2, "city": "Zürich"},
        "context": {"budget": 5000, "approved": True, "note": None},
        "passthrough": None,
    }


@pytest.mark.parametrize("status", [307, 308])
def test_http_307_or_308_to_the_post_is_failure_and_posts_nothing_again(stub_server, status):
    stub_server.status_codes["/old"] = status
    stub_server.redirects["/old"] = "/new"
    outcome = HttpHandler(timeout=5).call(make_call("a", endpoint=stub_server.url("/old")))
    assert outcome == Failure(f"HTTP {status}")
    assert [request[:2] for request in stub_server.received] == [("POST", "/old")]


@pytest.mark.parametrize("status", [301, 302, 303])
def test_http_301_302_or_303_to_the_post_is_followed_as_a_get(stub_server, status):
    stub_server.status_codes["/old"] = status
    stub_server.redirects["/old"] = "/new"
    stub_server.responses["/new"] = {"cost": 3}
    outcome = HttpHandler(timeout=5).call(make_call("a", endpoint=stub_server.url("/old")))
    assert outcome == Result({"cost": 3})
    assert [request[:2] for request in stub_server.received] == [("POST", "/old"), ("GET", "/new")]


def test_http_endpoint_that_is_not_an_http_url_is_failure(tmp_path):
    # a file: URL is not read as if it were the service's answer
    answer = tmp_path / "answer.json"
    answer.write_text(json.dumps({"result": {"cost": 1}}))
    outcome = HttpHandler(timeout=5).call(make_call("a", endpoint=answer.as_uri()))
    assert isinstance(outcome, Failure) and outcome.message.startswith("request failed: ")


def test_http_500_is_failure(stub_server):
    stub_server.status_codes["/bad"] = 500
    handler = HttpHandler(timeout=5)
    outcome = handler.call(make_call("a", endpoint=stub_server.url("/bad")))
    assert isinstance(outcome, Failure)
    assert "500" in outcome.message


def test_http_connection_failure_is_failure():
    handler = HttpHandler(timeout=0.5)
    outcome = handler.call(make_call("a", endpoint="http://127.0.0.1:9/nope"))
    assert isinstance(outcome, Failure)


@pytest.mark.parametrize(
    "timeout, raised",
    [
        pytest.param("x", "TypeError", id="not-a-number"),
        pytest.param(-1, "ValueError", id="negative"),
    ],
)
def test_http_request_that_raises_outside_requests_is_failure(timeout, raised):
    # a timeout no socket takes fails the call before it connects, with the
    # exception a socket raises for it: no OSError
    outcomes = []
    handler = HttpHandler(timeout=timeout)
    caller = threading.Thread(
        target=lambda: outcomes.append(handler.call(make_call("a", endpoint="http://127.0.0.1:9/"))),
        daemon=True,
    )
    caller.start()
    caller.join(timeout=5)
    assert not caller.is_alive(), "the call hung"
    assert isinstance(outcomes[0], Failure) and raised in outcomes[0].message


def test_http_timeout_is_failure(stub_server):
    stub_server.delays["/slow"] = 0.5
    handler = HttpHandler(timeout=0.1)
    outcome = handler.call(make_call("a", endpoint=stub_server.url("/slow")))
    assert isinstance(outcome, Failure)


def test_http_non_integer_number_is_malformed(stub_server):
    stub_server.responses["/float"] = {"cost": 12.5}
    handler = HttpHandler(timeout=5)
    outcome = handler.call(make_call("a", endpoint=stub_server.url("/float")))
    assert isinstance(outcome, Failure)
    assert "malformed" in outcome.message


def test_http_stop_call_returns_passthrough_and_replay_makes_no_request(stub_server):
    stub_server.responses["/slow"] = {"cost": 11}
    stub_server.delays["/slow"] = 0.3
    handler = HttpHandler(timeout=10)
    box = {}
    call = make_call("s", endpoint=stub_server.url("/slow"))

    def blocked():
        box["outcome"] = handler.call(call)

    thread = threading.Thread(target=blocked)
    thread.start()
    time.sleep(0.08)
    call.stop.set()
    thread.join(timeout=2)
    outcome = box["outcome"]
    assert isinstance(outcome, Passthrough)

    # replay with the token: stored response, no extra request
    before = stub_server.counts["/slow"]
    replay = handler.call(make_call("s", endpoint=stub_server.url("/slow"), passthrough=outcome.token))
    assert replay == Result({"cost": 11})
    assert stub_server.counts["/slow"] == before


def test_http_call_whose_token_is_already_set_returns_passthrough_at_once(stub_server):
    stub_server.responses["/slow"] = {"cost": 11}
    stub_server.delays["/slow"] = 0.6
    handler = HttpHandler(timeout=10)
    started = time.monotonic()
    outcome = handler.call(stopped_call("s", endpoint=stub_server.url("/slow")))
    assert isinstance(outcome, Passthrough)
    assert time.monotonic() - started < 0.3  # well inside the response delay


def test_http_stop_during_replay_hands_back_the_same_token(stub_server):
    stub_server.delays["/slow"] = 1.0
    handler = HttpHandler(timeout=10)
    first = handler.call(stopped_call("s", endpoint=stub_server.url("/slow")))
    assert isinstance(first, Passthrough)
    call = make_call("s", endpoint=stub_server.url("/slow"), passthrough=first.token)
    box = {}
    thread = threading.Thread(target=lambda: box.update(outcome=handler.call(call)))
    thread.start()
    time.sleep(0.05)
    started = time.monotonic()
    call.stop.set()
    thread.join(timeout=5)
    # not held until the background request ends
    assert time.monotonic() - started < 0.1
    assert box["outcome"] == Passthrough(first.token)
    # the token still replays, and the service saw one POST in all
    replay = handler.call(make_call("s", endpoint=stub_server.url("/slow"), passthrough=first.token))
    assert replay == Result({})
    assert stub_server.counts["/slow"] == 1


def test_http_completed_replay_drops_the_stored_response(stub_server):
    stub_server.responses["/slow"] = {"cost": 11}
    stub_server.delays["/slow"] = 0.2
    handler = HttpHandler(timeout=10)
    first = handler.call(stopped_call("s", endpoint=stub_server.url("/slow")))
    replay = handler.call(make_call("s", endpoint=stub_server.url("/slow"), passthrough=first.token))
    assert replay == Result({"cost": 11})
    assert len(handler._stored) == 0
    again = handler.call(make_call("s", endpoint=stub_server.url("/slow"), passthrough=first.token))
    assert isinstance(again, Failure)


def test_http_unknown_token_is_failure(stub_server):
    handler = HttpHandler(timeout=5)
    outcome = handler.call(make_call("a", endpoint=stub_server.url("/x"), passthrough="ghost"))
    assert isinstance(outcome, Failure)


def http_workflow(url: str) -> dsl.WorkflowAst:
    return dsl.parse(
        f"""
        workflow {{
          handler "http"
          endpoint svc: "{url}"
          context cost: 0
          call :book, endpoint: svc
        }}
        """
    )


def test_http_call_under_virtual_time_commits_its_result(stub_server):
    stub_server.responses["/book"] = {"cost": 7}
    ast = http_workflow(stub_server.url("/book"))
    instance = WorkflowInstance(ast, HttpHandler(timeout=5), RunOptions(virtual_time=True))
    assert finish(instance) == "finished"
    assert instance.store.current_values()["cost"] == 7


def test_http_stop_under_virtual_time_gives_a_passthrough_the_resume_replays(stub_server):
    stub_server.responses["/slow"] = {"cost": 11}
    stub_server.delays["/slow"] = 0.3
    ast = http_workflow(stub_server.url("/slow"))
    handler = HttpHandler(timeout=5)
    instance = WorkflowInstance(ast, handler, RunOptions(virtual_time=True))
    # the timer runs once the branch waits on its token, the request out
    instance.call_later(0, instance.request_stop)
    assert finish(instance) == "stopped"
    saved = json.loads(json.dumps(instance.save()))
    assert list(call_tokens(ast, saved)) == ["0/book"]
    resumed = WorkflowInstance.resume(ast, handler, saved, RunOptions(virtual_time=True))
    assert finish(resumed) == "finished"
    assert resumed.store.current_values()["cost"] == 11
    assert stub_server.counts["/slow"] == 1


# -- trigger ---------------------------------------------------------------------


def call_in_thread(handler, position, key):
    call = make_call(position, parameters={"key": key})
    box = {"stop": call.stop}

    def target():
        box["outcome"] = handler.call(call)

    thread = threading.Thread(target=target)
    thread.start()
    return thread, box


def test_persistent_trigger_fires_on_stored_event():
    handler = TriggerHandler("persistent", keys=["go"])
    outcome = handler.call(make_call("t", parameters={"key": "go"}))
    assert outcome == Result({})
    assert handler.stored_matches == 1


def test_persistent_trigger_fires_on_later_event():
    handler = TriggerHandler("persistent")
    thread, box = call_in_thread(handler, "t", "go")
    assert wait_until(lambda: handler.is_waiting("t"))
    handler.deliver("go")
    thread.join(timeout=2)
    assert box["outcome"] == Result({})
    assert handler.live_matches == 1


def test_transient_trigger_withdraws_early_event():
    handler = TriggerHandler("transient", keys=["go"])
    assert handler.withdrawn == 1
    thread, box = call_in_thread(handler, "t", "go")
    assert wait_until(lambda: handler.is_waiting("t"))
    # still blocked: the pre-arrival was withdrawn
    assert thread.is_alive()
    box["stop"].set()
    thread.join(timeout=2)
    assert isinstance(box["outcome"], Passthrough)


def test_transient_trigger_fires_on_live_event():
    handler = TriggerHandler("transient")
    thread, box = call_in_thread(handler, "t", "go")
    assert wait_until(lambda: handler.is_waiting("t"))
    handler.deliver("go")
    thread.join(timeout=2)
    assert box["outcome"] == Result({})


def test_trigger_key_mismatch_does_not_fire():
    handler = TriggerHandler("transient")
    thread, box = call_in_thread(handler, "t", "go")
    assert wait_until(lambda: handler.is_waiting("t"))
    handler.deliver("other")
    assert handler.is_waiting("t")
    box["stop"].set()
    thread.join(timeout=2)
    assert isinstance(box["outcome"], Passthrough)


def test_trigger_call_whose_token_is_already_set_returns_passthrough_at_once():
    handler = TriggerHandler("transient")
    outcome = handler.call(stopped_call("t", parameters={"key": "go"}))
    assert isinstance(outcome, Passthrough)
    assert not handler.is_waiting("t")
    assert handler.live_matches == 0


def test_two_branches_awaiting_one_key_both_fire():
    ast = dsl.parse(
        """
        workflow {
          handler "trigger"
          endpoint bus: "trigger://bus"
          context i: 0
          parallel wait: all {
            cycle (i < 2) {
              manipulate :launch { i = i + 1 }
              parallel_branch { call :await, endpoint: bus, parameters: { key: "go" } }
            }
          }
        }
        """
    )
    handler = TriggerHandler("transient")
    instance = WorkflowInstance(ast, handler).start()
    assert wait_until(lambda: handler.is_waiting("0.1/await") and handler.is_waiting("0.2/await"))
    handler.deliver("go")
    handler.deliver("go")
    # each delivery fires one of the two waiters; neither is withdrawn
    assert handler.withdrawn == 0
    assert instance.wait() == "finished"
    assert handler.live_matches == 2


# -- jump ------------------------------------------------------------------------


def test_jump_handler_emits_jump_when_condition_holds():
    handler = JumpHandler({"gate": {"condition": "i < 2", "target": "loop_head"}})
    outcome = handler.call(make_call("gate", context={"i": 0}))
    assert outcome == Jump("loop_head")


def test_jump_handler_falls_through_when_condition_fails():
    handler = JumpHandler({"gate": {"condition": "i < 2", "target": "loop_head"}})
    assert handler.call(make_call("gate", context={"i": 5})) == Result({})


def test_jump_handler_ignores_unlisted_positions():
    handler = JumpHandler({"gate": {"condition": "i < 2", "target": "x"}})
    assert handler.call(make_call("other", context={})) == Result({})


def test_jump_handler_condition_error_is_failure():
    handler = JumpHandler({"gate": {"condition": "missing > 1", "target": "x"}})
    assert isinstance(handler.call(make_call("gate", context={})), Failure)


# -- recursive ---------------------------------------------------------------------


FACTORIAL = """
workflow {
  handler "recursive"
  endpoint rec: "local://self"
  context n: 3
  context acc: 1
  choose {
    alternative (n > 1) {
      call :recurse, endpoint: rec, parameters: { n: n - 1 acc: acc * n }
    }
    otherwise { manipulate :base { acc = acc * 1 } }
  }
}
"""


def iterative_factorial(n: int) -> int:
    result = 1
    for k in range(2, n + 1):
        result *= k
    return result


def test_recursive_factorial_matches_iterative_oracle():
    from wee import dsl
    from wee.engine import WorkflowInstance

    for n in (1, 2, 3, 5):
        handler = RecursiveHandler(source=FACTORIAL, max_depth=10)
        instance = WorkflowInstance(
            dsl.parse(FACTORIAL), handler, initial_context={"n": n}
        )
        assert instance.run() == "finished"
        assert instance.store.current_values()["acc"] == iterative_factorial(n)


def test_recursive_base_case_makes_no_nested_call():
    from wee import dsl
    from wee.engine import WorkflowInstance

    handler = RecursiveHandler(source=FACTORIAL, max_depth=10)
    instance = WorkflowInstance(dsl.parse(FACTORIAL), handler, initial_context={"n": 1})
    assert instance.run() == "finished"
    assert handler.invocations == {}


def test_recursive_handler_parses_its_workflow_once_at_every_depth(monkeypatch):
    ast = dsl.parse(FACTORIAL)
    parsed = []
    real_parse = dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda source: parsed.append(source) or real_parse(source))
    handler = RecursiveHandler(source=FACTORIAL, max_depth=10)
    for _ in range(2):
        instance = WorkflowInstance(ast, handler, initial_context={"n": 5})
        assert instance.run() == "finished"
        assert instance.store.current_values()["acc"] == 120
    # the first call parses; the nested handlers it builds get the parse
    assert parsed == [FACTORIAL]


def test_spawner_parses_its_nested_workflow_once(monkeypatch):
    from wee.patterns.harness import SpawnerHandler

    handler = SpawnerHandler(2)
    monkeypatch.setattr(dsl, "parse", lambda source: pytest.fail("a spawning call parsed"))
    for _ in range(2):
        assert handler.call(make_call("spawn")) == Result({})
    assert wait_until(lambda: handler.completed == 4)


def test_recursive_depth_exhaustion_is_failure():
    handler = RecursiveHandler(source=FACTORIAL, max_depth=0)
    outcome = handler.call(make_call("recurse", parameters={"n": 5, "acc": 1}))
    assert isinstance(outcome, Failure)
    assert "depth" in outcome.message


def test_recursive_workflow_parameter_overrides_source():
    other = 'workflow { handler "recursive" context z: 5 manipulate :set { z = z * 2 } }'
    handler = RecursiveHandler(source=None, max_depth=3)
    outcome = handler.call(make_call("r", parameters={"workflow": other}))
    assert outcome == Result({"z": 10})


def test_recursive_rejects_undeclared_parameter():
    handler = RecursiveHandler(source=FACTORIAL, max_depth=3)
    outcome = handler.call(make_call("r", parameters={"ghost": 1}))
    assert isinstance(outcome, Failure)


COUNTER = """
workflow {
  handler "recursive"
  context total: 0
  cycle (total < 20000) { manipulate :inc { total = total + 1 } }
}
"""

CALLS_COUNTER = """
workflow {
  handler "recursive"
  endpoint rec: "local://self"
  context total: 0
  call :count, endpoint: rec
}
"""


def test_recursive_call_stopped_midway_resumes_its_nested_instance():
    ast = dsl.parse(CALLS_COUNTER)
    handler = RecursiveHandler(source=COUNTER, max_depth=3)
    instance = WorkflowInstance(ast, handler).start()
    assert wait_until(lambda: handler.invocations == {"count": 1})
    time.sleep(0.05)
    instance.deliver_stop()
    saved = json.loads(json.dumps(instance.save()))
    # the nested instance stopped partway: its partial count is no result
    assert instance.store.current_values()["total"] == 0
    tokens = call_tokens(ast, saved)
    assert list(tokens) == ["0/count"]
    # a token, which carries the stopped nested instance
    assert json.loads(tokens["0/count"])["saved"]["schema"] == 6

    # a fresh handler, as `wee resume` builds in a new process: the token
    # alone carries the stopped nested instance
    fresh = RecursiveHandler(source=COUNTER, max_depth=3)
    resumed = WorkflowInstance.resume(ast, fresh, saved)
    assert resumed.run() == "finished"
    assert resumed.store.current_values()["total"] == 20000
    assert handler.invocations == {"count": 1}
    assert fresh.invocations == {}


def test_recursive_call_stopped_under_virtual_time_resumes_to_the_unstopped_context():
    ast = dsl.parse(CALLS_COUNTER)
    unstopped = WorkflowInstance(
        ast, RecursiveHandler(source=COUNTER, max_depth=3), RunOptions(virtual_time=True)
    )
    assert finish(unstopped, timeout=20) == "finished"

    instance = WorkflowInstance(
        ast, RecursiveHandler(source=COUNTER, max_depth=3), RunOptions(virtual_time=True)
    )
    # the timer runs once the branch waits on its token, the nested instance started
    instance.call_later(0, instance.request_stop)
    assert finish(instance, timeout=20) == "stopped"
    saved = json.loads(json.dumps(instance.save()))
    parked = json.loads(call_tokens(ast, saved)["0/count"])
    assert parked["saved"]["context"]["total"] < 20000
    resumed = WorkflowInstance.resume(
        ast, RecursiveHandler(source=COUNTER, max_depth=3), saved, RunOptions(virtual_time=True)
    )
    assert finish(resumed, timeout=20) == "finished"
    assert resumed.store.current_values() == unstopped.store.current_values() == {"total": 20000}


def test_recursive_call_whose_token_is_already_set_returns_passthrough_at_once():
    handler = RecursiveHandler(source=COUNTER, max_depth=3)
    started = time.monotonic()
    outcome = handler.call(stopped_call("count", "local://self"))
    assert time.monotonic() - started < 1.0
    assert isinstance(outcome, Passthrough)
    # the token carries the nested instance, stopped partway
    assert json.loads(outcome.token)["saved"]["context"]["total"] < 20000


def test_recursive_rejects_bad_passthrough_token():
    outcome = RecursiveHandler(source=COUNTER).call(
        make_call("count", "local://self", passthrough="not-a-token")
    )
    assert isinstance(outcome, Failure)
    assert "bad passthrough token" in outcome.message


# -- trigger event file -------------------------------------------------------------


def test_load_trigger_events_jsonl(tmp_path):
    from wee.handlers import load_trigger_events

    path = tmp_path / "events.jsonl"
    # a line that still carries the "t" field of an older format loads too
    path.write_text('{"key": "go"}\n{"t": 2.5, "key": "other"}\n')
    assert load_trigger_events(path) == ["go", "other"]
