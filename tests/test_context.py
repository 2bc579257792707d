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
    assert store.initial_values == {"price": 0, "people": 3}


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
    new_version = store.commit([Change("x", 1, 2)], {"x": 2})
    assert new_version == 6
    assert store.version == 6
    assert dict(store.current_values()) == {"x": 2}


def test_commit_empty_delta_is_identity():
    store = ContextStore({"x": 1})
    assert store.commit([], {"x": 1}) == 0
    assert store.version == 0
    assert dict(store.current_values()) == {"x": 1}


def test_commit_consecutive_seq_numbers_and_replay():
    store = ContextStore({"x": 0, "y": 0, "z": 0})
    delta = [Change("x", 0, 1), Change("y", 0, 2), Change("z", 0, 3)]
    # one version per change: the delta's changes are numbered 1, 2, 3
    assert store.commit(delta, {"x": 1, "y": 2, "z": 3}) == 3
    assert store.version == 3
    replayed = dict(store.initial_values)
    for change in delta:
        replayed[change.name] = change.new
    assert replayed == dict(store.current_values())


def test_commit_rejects_undeclared_names():
    store = ContextStore({"x": 1})
    with pytest.raises(ContextError, match="undeclared context variable 'nope'"):
        store.commit([Change("nope", None, 1)], {"x": 1, "nope": 1})


def test_rejected_commit_leaves_no_phantom_records():
    store = ContextStore({"x": 1, "y": 0})
    with pytest.raises(ContextError, match="undeclared context variable 'nope'"):
        store.commit([Change("x", 1, 2), Change("nope", None, 1)], {"x": 2, "y": 0, "nope": 1})
    assert store.version == 0
    assert dict(store.current_values()) == {"x": 1, "y": 0}

    assert store.commit([Change("x", 1, 2), Change("y", 0, 3)], {"x": 2, "y": 3}) == 2
    assert dict(store.current_values()) == {"x": 2, "y": 3}


def test_commit_takes_over_the_values_built_by_the_caller():
    store = ContextStore({"x": 1, "y": 0})
    snap = store.snapshot()
    built = {"x": 2, "y": 0}
    assert store.commit([Change("x", 1, 2)], built) == 1
    assert store.current_values() is built
    assert dict(snap.values) == {"x": 1, "y": 0}
    # a rejected delta installs nothing, prebuilt values or not
    with pytest.raises(ContextError, match="undeclared context variable 'nope'"):
        store.commit([Change("nope", None, 1)], {"x": 2, "y": 0, "nope": 1})
    assert store.version == 1
    assert store.current_values() is built


def test_snapshot_reflects_commits():
    store = ContextStore({"x": 1})
    store.commit([Change("x", 1, 2)], {"x": 2})
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
                    {"a": i, "b": i, "c": i},
                )
    finally:
        stop.set()
        thread.join()
    assert bad == []


def test_concurrent_commits_form_gap_free_total_order():
    store = ContextStore({"x": 0})
    commits: list[tuple[int, int, int]] = []  # (version, old, new)

    def writer():
        for _ in range(500):
            with store.exclusive():
                current = store.current_values()["x"]
                version = store.commit([Change("x", current, current + 1)], {"x": current + 1})
                commits.append((version, current, current + 1))

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    log = sorted(commits)
    assert [version for version, _, _ in log] == list(range(1, 2001))
    assert store.current_values()["x"] == 2000
    # each commit saw the previous one's effect: the log chains exactly
    for prev, nxt in zip(log, log[1:]):
        assert nxt[1] == prev[2]
