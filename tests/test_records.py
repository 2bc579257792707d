"""What wee's record types promise: equality, hashing and immutability.

The AST, the expressions, the handler outcomes and RunOptions are plain
records; these tests pin the parts of their behaviour that other code
reads, whatever the records are built from.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from wee import dsl
from wee.engine import RunOptions, WorkflowInstance
from wee.expressions import Binary, Literal, Var
from wee.handlers import Failure, Jump, MockHandler, Passthrough, Result

HALTS = """
workflow {
  handler "mock"
  endpoint halt: "wee://stop"
  endpoint svc: "mock://svc"
  context n: 0
  call :halt_here, endpoint: halt
  manipulate :bump { n = n + 1 }
}
"""


def test_outcomes_of_different_kinds_with_equal_payloads_are_unequal():
    kinds = (Passthrough, Jump, Failure)
    for kind in kinds:
        assert kind("t") == kind("t")
        assert not kind("t") != kind("t")
        assert hash(kind("t")) == hash(kind("t"))
        for other in kinds:
            if other is not kind:
                assert kind("t") != other("t")
                assert not kind("t") == other("t")
    assert Passthrough("t") != ("t",)
    assert Result({"a": 1}) == Result({"a": 1}) != Result({"a": 2})
    assert Result({}) != Failure({})


def test_a_variable_equals_and_hashes_without_its_line_and_column():
    assert Var("x", 3, 4) == Var("x")
    assert not Var("x", 3, 4) != Var("x")
    assert hash(Var("x", 3, 4)) == hash(Var("x"))
    assert Var("x") != Var("y")
    assert Binary("+", Var("x", 1, 1), Literal(1)) == Binary("+", Var("x", 2, 9), Literal(1))


def test_ast_equality_ignores_line_and_column_and_the_source_hash():
    ast = dsl.parse(HALTS)
    again = dsl.parse("\n\n" + dsl.pretty(ast))
    assert again == ast
    assert not again != ast
    assert again.body[0].line != ast.body[0].line
    assert again.source_hash != ast.source_hash
    assert "source_hash" not in repr(ast) and ast.source_hash not in repr(ast)
    call = ast.body[0]
    assert call == dsl.CallActivity("halt_here", "halt", [])
    assert call != dsl.ManipulateActivity("halt_here", [])


@pytest.mark.parametrize(
    "record, field",
    [
        (Literal(1), "value"),
        (dsl.WaitSpec(2), "count"),
        (dsl.Diagnostic("m", 1, 2), "message"),
        (Result({}), "values"),
    ],
)
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_mutable_ast_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(dsl.CallActivity("p", "svc", ()))
    with pytest.raises(TypeError):
        hash(dsl.WorkflowAst("mock", {}, [], []))


def test_run_options_defaults():
    options = RunOptions()
    assert options.max_iterations == 1_000_000
    assert options.instance_id is None
    assert options.log_path is None
    assert options.start_seq == 0
    assert options.clock is None
    assert options.virtual_time is False
    assert RunOptions(virtual_time=True, start_seq=3).start_seq == 3


def test_resume_keeps_the_instance_id_its_options_give():
    ast = dsl.parse(HALTS)
    first = WorkflowInstance(ast, MockHandler(), RunOptions(instance_id="first"))
    assert first.run() == "stopped"
    saved = first.save()

    renamed = WorkflowInstance.resume(ast, MockHandler(), saved, RunOptions(instance_id="x"))
    assert renamed.instance_id == "x"
    assert renamed.run() == "finished"
    assert renamed.log.records[0].seq == saved["seq"] + 1

    same = WorkflowInstance.resume(ast, MockHandler(), saved)
    assert same.instance_id == "first"
    assert same.options.instance_id == "first" and same.options.start_seq == saved["seq"]


def test_records_survive_copy_and_pickle():
    ast = dsl.parse(HALTS)
    for record in (ast, Var("x", 3, 4), Result({"n": 1}), Passthrough("t"), dsl.Diagnostic("m")):
        for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert again == record and type(again) is type(record)
    assert pickle.loads(pickle.dumps(Var("x", 3, 4))).line == 3
    assert pickle.loads(pickle.dumps(ast)).source_hash == ast.source_hash

