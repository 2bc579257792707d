from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wee import events
from wee.events import KINDS, EventLog, FixedClock, format_timestamp, read_jsonl, wall_clock

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
    # a whole second, +1 us, a fraction under 1 us, the last microsecond of
    # a second, the next second, and back across the rollover
    for nanoseconds in (0, 1_000, 999, 999_999_999, 1_000_000_000, 1_000_001_000, 5_000):
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
# a context_change detail as WorkflowInstance._commit builds it
CONTEXT_CHANGE = st.fixed_dictionaries(
    {"changes": CHANGES, "version": st.integers(min_value=0)}
)
DETAIL = st.dictionaries(
    TEXT,
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=5,
    ),
    max_size=4,
)
EMITS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        TEXT,
        st.none() | TEXT,
        # the shared details are written from their stored text
        st.none() | DETAIL | st.sampled_from(events.SHARED_DETAILS),
    )
    # the context changes the engine emits are written from their template
    | st.tuples(st.just("context_change"), TEXT, st.none() | TEXT, CONTEXT_CHANGE),
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
            for kind, branch, position, detail in emits:
                log.emit(kind, branch, position, detail)
        finally:
            log.close()
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        assert lines == [json.dumps(r.to_json(), sort_keys=True) + "\n" for r in log.records]
        # JSON writes a high surrogate followed by a low one as the escapes
        # of the one character they encode, so such text reads back as it
        assume(not any(joins_surrogates(r.to_json()) for r in log.records))
        assert read_jsonl(path) == log.records


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
@given(detail=CONTEXT_CHANGE)
def test_context_change_detail_equals_json_dumps(detail):
    assert events._encode_context_change(detail) == json.dumps(detail, sort_keys=True)


def test_a_bool_change_is_written_as_a_bool_and_an_int_as_an_int():
    detail = {"changes": [{"name": "b", "old": 1, "new": True}], "version": 1}
    assert events._encode_context_change(detail) == (
        '{"changes": [{"name": "b", "new": true, "old": 1}], "version": 1}'
    )


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
    expected = json.dumps(detail, sort_keys=True)
    assert events._encode_detail(detail) == expected
    # a context_change detail of another shape falls back to the encoder
    assert events._encode_context_change(detail) == expected
