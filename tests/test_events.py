from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import Answers
from wee import dsl, events
from wee.context import ContextError
from wee.engine import RunOptions, WorkflowInstance
from wee.expressions import Change
from wee.events import KINDS, EventLog, FixedClock, format_timestamp, read_jsonl, wall_clock
from wee.patterns.harness import replay_context

GOLDEN = Path(__file__).parent / "golden"
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def isoformat(seconds: int, microseconds: int) -> str:
    return (EPOCH + timedelta(seconds=seconds, microseconds=microseconds)).isoformat()


@pytest.mark.parametrize(
    "seconds, microseconds",
    [
        (0, 0),
        (0, 1),
        (59, 999_999),
        (951_782_400, 0),  # 2000-02-29
        (1_700_000_000, 123_456),
        (2_147_483_648, 500_000),  # past the 32-bit time_t limit
    ],
)
def test_format_timestamp_matches_isoformat(seconds, microseconds):
    assert format_timestamp(seconds, microseconds) == isoformat(seconds, microseconds)


def test_format_timestamp_across_a_second_rollover():
    # the same ticks FixedClock turns into timestamps, back and forth across
    # the second boundary so the cached prefix must follow each change
    for ticks in (999_998, 999_999, 1_000_000, 1_000_001, 999_999, 2_000_000):
        seconds, microseconds = divmod(ticks, 1_000_000)
        assert format_timestamp(seconds, microseconds) == isoformat(seconds, microseconds)


def test_fixed_clock_ticks_one_microsecond():
    clock = FixedClock()
    assert [clock() for _ in range(3)] == [isoformat(0, n) for n in (1, 2, 3)]


def test_wall_clock_is_isoformat_utc_now():
    stamp = wall_clock()
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp)
    assert abs(datetime.fromisoformat(stamp) - datetime.now(timezone.utc)) < timedelta(seconds=5)


def test_wall_clock_equals_format_timestamp(monkeypatch):
    second = 1_700_000_000 * 1_000_000_000
    # a whole second (.000000), +1 us, a fraction under 1 us, the last
    # microsecond of the first millisecond (.000999), the first of the next
    # (.001000), back across that millisecond and forth again by a fraction
    # under 1 us, the last microsecond of the second (.999999) and a fraction
    # under the next one, the next second, and back across the rollover
    stamps = (0, 1_000, 999, 999_000, 1_000_000, 999_000, 1_000_500, 999_999_000, 999_999_999)
    for nanoseconds in stamps + (1_000_000_000, 1_000_001_000, 5_000):
        now = second + nanoseconds
        monkeypatch.setattr(events.time, "time_ns", lambda: now)
        seconds, microseconds = divmod(now // 1000, 1_000_000)
        assert wall_clock() == format_timestamp(seconds, microseconds)
        assert wall_clock() == isoformat(seconds, microseconds)


@pytest.mark.parametrize("start_seq", [0, 7], ids=["fresh", "continued"])
def test_each_record_is_flushed_before_emit_returns(tmp_path, start_seq):
    path = tmp_path / "trace.jsonl"
    # a continued trace appends to what its file already holds
    before = "earlier line\n" * start_seq
    path.write_text("left over\n" if start_seq == 0 else before, encoding="utf-8")
    log = EventLog("i-flush", path, start_seq=start_seq)
    try:
        for n in range(1, 4):
            log.emit("signal", "0", detail={"n": n})
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            assert len(lines) == start_seq + n
            assert "".join(lines[:start_seq]) == before
            assert json.loads(lines[-1])["seq"] == start_seq + n
    finally:
        log.close()


def test_fixed_clock_trace_file_matches_golden(tmp_path):
    """The file `wee run --fixed-clock` writes, byte for byte: non-ASCII and
    control characters, quotes, null positions and multi-change records."""
    log = tmp_path / "trace.jsonl"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "wee.cli",
            "run",
            str(GOLDEN / "trace_golden.wee"),
            "--handler",
            "mock",
            "--script",
            str(GOLDEN / "trace_golden.script.json"),
            "--fixed-clock",
            "--log",
            str(log),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = log.read_bytes()
    instance = json.loads(data.splitlines()[0])["instance"]
    assert re.fullmatch(r"i-[0-9a-f]{8}", instance)
    # the instance id is drawn per run; the golden file holds i-00000000
    data = data.replace(f'"instance": "{instance}"'.encode(), b'"instance": "i-00000000"')
    assert data == (GOLDEN / "trace_golden.jsonl").read_bytes()


# fills a stdout that does not block, then emits two records to "-"
FULL_STDOUT = """
import fcntl, os, sys
from wee.events import EventLog
read_end, write_end = os.pipe()
fcntl.fcntl(write_end, fcntl.F_SETFL, os.O_NONBLOCK)
os.dup2(write_end, 1)
for size in (65536, 1):
    try:
        while True:
            os.write(1, b"x" * size)
    except BlockingIOError:
        pass
log = EventLog("i", "-")
log.emit("instance_start", "0")
log.emit("instance_finish", "0")
print(type(log.write_error).__name__, len(log.records), file=sys.stderr)
"""


def test_a_full_stdout_that_does_not_block_fails_the_write():
    """Another process may have made the stdout it shares non-blocking: a
    write to "-" that would block is kept as write_error, as any failed
    write is, and the log goes on in memory."""
    proc = subprocess.run(
        [sys.executable, "-c", FULL_STDOUT], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stderr) == (0, "BlockingIOError 2\n")


# quotes, backslashes, control characters, non-ASCII, a lone surrogate and a
# character outside the BMP, mixed with arbitrary ones
SPECIAL = st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t\u2028é→Ω\ud800😀')
TEXT = st.text(st.one_of(SPECIAL, st.characters()), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), TEXT
)
CHANGE_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
    TEXT,
)
CHANGES = st.lists(
    st.fixed_dictionaries({"name": TEXT, "old": CHANGE_VALUES, "new": CHANGE_VALUES}),
    min_size=1,
    max_size=8,
)
# a context_change detail of the shape emit_change builds, emitted through emit
CONTEXT_CHANGE = st.fixed_dictionaries(
    {"changes": CHANGES, "version": st.integers(min_value=0)}
)
# the values of a context: text with a percent sign, quotes, backslashes and
# non-ASCII among the rest
VALUES = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(st.sampled_from('%"\\aé→😀\x00'), max_size=5) | TEXT,
)
# identifiers, non-ASCII ones too, and any text; drawn from a few, so a
# delta often assigns a name twice, as a manipulate may
NAMES = st.sampled_from(["x", "counter", "v001", "größe", "π", "名前", "x%s"]) | TEXT
CHANGE = st.tuples(NAMES, VALUES, VALUES).map(lambda change: Change(*change))
DELTAS = st.lists(CHANGE, min_size=1, max_size=6)
EMIT_CHANGES = st.tuples(TEXT, TEXT, DELTAS, st.integers(min_value=0))
DETAIL = st.dictionaries(
    TEXT,
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=5,
    ),
    max_size=4,
)
# (method, its arguments) of each record
EMITS = st.lists(
    st.tuples(
        st.just("emit"),
        st.tuples(
            st.sampled_from(KINDS),
            TEXT,
            st.none() | TEXT,
            # the shared details are written from their stored text
            st.none() | DETAIL | st.sampled_from(events.SHARED_DETAILS),
        )
        | st.tuples(st.just("context_change"), TEXT, st.none() | TEXT, CONTEXT_CHANGE),
    )
    # the context changes the engine emits are written from their template
    | st.tuples(st.just("emit_change"), EMIT_CHANGES),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(instance=TEXT, stamps=st.lists(TEXT, min_size=1, max_size=3), emits=EMITS)
def test_written_lines_equal_json_dumps_of_each_record(instance, stamps, emits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        log = EventLog(instance, path, clock=itertools.cycle(stamps).__next__)
        try:
            for method, args in emits:
                getattr(log, method)(*args)
        finally:
            log.close()
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        assert lines == [json.dumps(r.to_json(), sort_keys=True) + "\n" for r in log.records]
        # JSON writes a high surrogate followed by a low one as the escapes
        # of the one character they encode, so such text reads back as it
        assume(not any(joins_surrogates(r.to_json()) for r in log.records))
        assert read_jsonl(path) == log.records


# the built-in clocks, whose stamps go into the line unescaped, and stamps
# that each need escapes, a % among them
CLOCKS = st.sampled_from(["wall_clock", "FixedClock"]) | st.lists(
    TEXT.map(lambda text: '"\\é%' + text), min_size=1, max_size=3
)


@settings(max_examples=100, deadline=None)
@given(instance=TEXT, clock=CLOCKS, emits=st.lists(EMITS, min_size=2, max_size=2))
def test_lines_from_two_threads_under_each_clock_equal_json_dumps(instance, clock, emits):
    """Two threads emit into one log, under a built-in clock or one whose
    stamps need escapes: every line is json.dumps of its record, in seq
    order."""
    if clock == "wall_clock":
        clock = None
    elif clock == "FixedClock":
        clock = FixedClock()
    else:
        clock = itertools.cycle(clock).__next__  # called under the log's lock
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        log = EventLog(instance, path, clock=clock)
        start, failures = threading.Barrier(2), []

        def emit_all(emits):
            start.wait()
            try:
                for method, args in emits:
                    getattr(log, method)(*args)
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=emit_all, args=(part,)) for part in emits]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        assert failures == []
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    assert [r.seq for r in log.records] == list(range(1, len(log.records) + 1))
    assert lines == [json.dumps(r.to_json(), sort_keys=True) + "\n" for r in log.records]


SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def joins_surrogates(value) -> bool:
    if isinstance(value, str):
        return SURROGATE_PAIR.search(value) is not None
    if isinstance(value, dict):
        return any(joins_surrogates(k) or joins_surrogates(v) for k, v in value.items())
    if isinstance(value, list):
        return any(joins_surrogates(v) for v in value)
    return False


# -- detail encoding --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(changes=st.lists(EMIT_CHANGES, min_size=1, max_size=4))
@example(changes=[("0", "step", [Change("größe", 1, 2), Change("größe", 2, "100%")], 7)])
def test_emit_change_writes_json_dumps_of_each_record(changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        log = EventLog("i-1", path, clock=FixedClock())
        try:
            for branch, position, delta, version in changes:
                record = log.emit_change(branch, position, delta, version)
                assert record.kind == "context_change"
                assert record.detail == {
                    "changes": [{"name": n, "old": old, "new": new} for n, old, new in delta],
                    "version": version,
                }
        finally:
            log.close()
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        assert lines == [json.dumps(r.to_json(), sort_keys=True) + "\n" for r in log.records]
        assume(not any(joins_surrogates(r.to_json()) for r in log.records))
        assert read_jsonl(path) == log.records


def test_a_bool_change_is_written_as_a_bool_and_an_int_as_an_int(tmp_path):
    log = EventLog("i-1", tmp_path / "trace.jsonl", clock=FixedClock())
    log.emit_change("0", "a", [Change("b", 1, True)], 1)
    log.close()
    detail = '"detail": {"changes": [{"name": "b", "new": true, "old": 1}], "version": 1}'
    assert detail in (tmp_path / "trace.jsonl").read_text()


def test_each_shared_detail_is_stored_as_json_dumps_writes_it():
    for detail in events.SHARED_DETAILS:
        assert events._SHARED_JSON[id(detail)] == json.dumps(detail, sort_keys=True)


# the engine's flat details, and shapes close to a context change
FLAT_DETAILS = st.one_of(
    st.fixed_dictionaries({"type": TEXT}),
    st.fixed_dictionaries({"outcome": TEXT}),
    st.fixed_dictionaries({"signal": TEXT, "section": TEXT}),
    DETAIL,
    st.fixed_dictionaries(
        {
            "changes": st.lists(
                st.dictionaries(st.sampled_from(["name", "new", "old", "x"]), SCALARS),
                max_size=3,
            ),
            "version": SCALARS,
        }
    ),
    st.fixed_dictionaries({"changes": st.lists(SCALARS, max_size=3), "version": SCALARS}),
)


@settings(max_examples=300, deadline=None)
@given(detail=FLAT_DETAILS)
def test_other_details_equal_json_dumps(detail):
    assert events._encode_detail(detail) == json.dumps(detail, sort_keys=True)


# -- context values through the trace -------------------------------------------

# sets a, b and c from a handler's result, stops, and once resumed copies a to c
ANSWER_THEN_HALT = """
workflow {
  handler "answers"
  endpoint svc: "mock://svc"
  endpoint halt: "wee://stop"
  context a: 0
  context b: "b"
  context c: null
  call :answer, endpoint: svc
  call :halt_here, endpoint: halt
  manipulate :copy { c = a }
}
"""
# wee values and other objects: text with lone surrogates and surrogate pairs,
# floats, lists
ANY_TEXT = TEXT | st.text(st.sampled_from('a"\\é😀\x00\ud800\udbff\udc00\udfff'), max_size=4)
OBJECTS = st.none() | st.booleans() | st.integers() | ANY_TEXT | st.floats()
OBJECTS |= st.lists(st.integers(), max_size=2)
ASSIGNMENTS = st.dictionaries(st.sampled_from("abc"), OBJECTS, max_size=3)


def wee_value(value) -> bool:
    """None, a boolean, an integer, or text: a str holding no surrogate."""
    if type(value) is str:
        return not any("\ud800" <= char <= "\udfff" for char in value)
    return value is None or type(value) in (bool, int)


def typed(context) -> dict:
    """The context with each value's type, as True == 1 in Python."""
    return {name: (type(value), value) for name, value in context.items()}


@settings(max_examples=100, deadline=None)
@given(initial=ASSIGNMENTS, answer=ASSIGNMENTS)
def test_every_value_the_engine_accepts_round_trips_through_the_trace_file(initial, answer):
    ast = dsl.parse(ANSWER_THEN_HALT)
    with tempfile.TemporaryDirectory() as tmp:
        options = RunOptions(log_path=str(Path(tmp) / "trace.jsonl"))
        try:
            first = WorkflowInstance(ast, Answers(answer), options, initial_context=initial)
        except ContextError:
            assert not all(map(wee_value, initial.values()))
            return
        assert all(map(wee_value, initial.values()))
        start = dict(first.store.initial_values)
        result = first.run()
        trace = read_jsonl(options.log_path)
        assert typed(replay_context(trace, start)) == typed(first.store.current_values())
        if result == "error":  # the handler's result holds a non-value
            assert not all(map(wee_value, answer.values()))
            return
        assert result == "stopped" and all(map(wee_value, answer.values()))

        saved = json.loads(json.dumps(first.save()))
        assert typed(saved["context"]) == typed(first.store.current_values())
        resumed = WorkflowInstance.resume(ast, Answers(answer), saved, options)
        assert resumed.run() == "finished"
        trace = read_jsonl(options.log_path)
        assert [r.seq for r in trace] == list(range(1, len(trace) + 1))
        assert typed(replay_context(trace, start)) == typed(resumed.store.current_values())
