from __future__ import annotations

import threading

import pytest

from wee.context import ContextError, ContextStore
from wee.dsl import parse_expression
from wee.expressions import Change


def decls(*pairs):
    return [(name, parse_expression(text)) for name, text in pairs]


def test_init_in_declaration_order():
    store = ContextStore.from_decls(decls(("price", "0"), ("people", "3")))
    assert dict(store.current_values()) == {"price": 0, "people": 3}
    assert store.version == 0
    assert store.change_log == ()


def test_init_empty():
    store = ContextStore.from_decls([])
    assert dict(store.current_values()) == {}


def test_init_references_earlier_declarations():
    store = ContextStore.from_decls(decls(("a", "1"), ("b", "a + 1")))
    assert dict(store.current_values()) == {"a": 1, "b": 2}


def test_init_duplicate_name():
    with pytest.raises(ContextError, match="duplicate context variable 'a'"):
        ContextStore.from_decls(decls(("a", "1"), ("a", "2")))


def test_init_unbound_reference():
    with pytest.raises(ContextError, match="initializer of 'a'"):
        ContextStore.from_decls(decls(("a", "b + 1")))


def test_commit_appends_and_advances_version():
    store = ContextStore({"x": 1}, version=5)
    new_version = store.commit([Change("x", 1, 2)], position="a")
    assert new_version == 6
    assert store.version == 6
    record = store.change_log[-1]
    assert (record.seq, record.position, record.name, record.old, record.new) == (
        6,
        "a",
        "x",
        1,
        2,
    )


def test_commit_empty_delta_is_identity():
    store = ContextStore({"x": 1})
    assert store.commit([], position="a") == 0
    assert store.version == 0
    assert store.change_log == ()


def test_commit_consecutive_seq_numbers_and_replay():
    store = ContextStore({"x": 0, "y": 0, "z": 0})
    store.commit(
        [Change("x", 0, 1), Change("y", 0, 2), Change("z", 0, 3)], position="m"
    )
    assert store.version == 3
    assert [r.seq for r in store.change_log] == [1, 2, 3]
    replayed = dict(store.initial_values)
    for record in store.change_log:
        replayed[record.name] = record.new
    assert replayed == dict(store.current_values())


def test_commit_rejects_undeclared_names():
    store = ContextStore({"x": 1})
    with pytest.raises(ContextError, match="undeclared context variable 'nope'"):
        store.commit([Change("nope", None, 1)], position="a")


def test_rejected_commit_leaves_no_phantom_records():
    store = ContextStore({"x": 1, "y": 0})
    with pytest.raises(ContextError, match="undeclared context variable 'nope'"):
        store.commit([Change("x", 1, 2), Change("nope", None, 1)], position="a")
    assert store.change_log == ()
    assert store.version == 0
    assert dict(store.current_values()) == {"x": 1, "y": 0}

    assert store.commit([Change("x", 1, 2), Change("y", 0, 3)], position="b") == 2
    assert [r.seq for r in store.change_log] == [1, 2]
    assert [(r.position, r.name, r.new) for r in store.change_log] == [("b", "x", 2), ("b", "y", 3)]


def test_snapshot_reflects_commits():
    store = ContextStore({"x": 1})
    store.commit([Change("x", 1, 2)], position="a")
    snap = store.snapshot()
    assert snap.values["x"] == 2
    assert snap.version == 1


def test_snapshots_without_commit_are_identical():
    store = ContextStore({"x": 1})
    a, b = store.snapshot(), store.snapshot()
    assert a.values == b.values
    assert a.version == b.version


def test_snapshot_is_immutable_view():
    store = ContextStore({"x": 1})
    snap = store.snapshot()
    with pytest.raises(TypeError):
        snap.values["x"] = 99  # type: ignore[index]


def test_snapshot_never_sees_partial_delta():
    # stress: a racing reader must observe all three changes or none
    store = ContextStore({"a": 0, "b": 0, "c": 0})
    stop = threading.Event()
    bad: list[dict] = []

    def reader():
        while not stop.is_set():
            values = store.snapshot().values
            if len({values["a"], values["b"], values["c"]}) != 1:
                bad.append(dict(values))

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(1, 10_001):
            with store.exclusive():
                current = store.current_values()
                store.commit(
                    [
                        Change("a", current["a"], i),
                        Change("b", current["b"], i),
                        Change("c", current["c"], i),
                    ],
                    position="m",
                )
    finally:
        stop.set()
        thread.join()
    assert bad == []


def test_concurrent_commits_form_gap_free_total_order():
    store = ContextStore({"x": 0})

    def writer():
        for _ in range(500):
            with store.exclusive():
                current = store.current_values()["x"]
                store.commit([Change("x", current, current + 1)], position="w")

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    log = store.change_log
    assert [r.seq for r in log] == list(range(1, 2001))
    assert store.current_values()["x"] == 2000
    # each commit saw the previous one's effect: the log chains exactly
    for prev, nxt in zip(log, log[1:]):
        assert nxt.old == prev.new
