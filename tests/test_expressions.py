from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wee.dsl import parse_expression
from wee.expressions import (
    Binary,
    Change,
    EvalError,
    Literal,
    Unary,
    Var,
    apply_assignments,
    eval_expr,
    trunc_div,
    trunc_mod,
)


def ev(text: str, env=None):
    return eval_expr(parse_expression(text), env or {})


def test_comparison_literal():
    assert ev("3 > 2") is True


def test_price_guard_over_limit():
    assert ev("price > 10000", {"price": 12000}) is True
    assert ev("price > 10000", {"price": 9000}) is False


def test_parity_and_negation_against_enumerated_table():
    # oracle: enumerate all (x mod 2, done) combinations by hand
    table = {
        (0, False): True,
        (0, True): False,
        (1, False): False,
        (1, True): False,
    }
    for x in range(-4, 5):
        for done in (False, True):
            expected = table[(abs(x) % 2, done)]
            assert ev("x % 2 == 0 && !done", {"x": x, "done": done}) is expected


def test_arithmetic_precedence():
    assert ev("2 + 3 * 4") == 14
    assert ev("(2 + 3) * 4") == 20
    assert ev("-2 * 3") == -6
    assert ev("10 - 3 - 2") == 5  # left associative


@pytest.mark.parametrize(
    "a,b,q,r",
    [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (6, 3, 2, 0),
    ],
)
def test_division_truncates_toward_zero_and_mod_keeps_dividend_sign(a, b, q, r):
    assert trunc_div(a, b) == q
    assert trunc_mod(a, b) == r
    assert ev("a / b", {"a": a, "b": b}) == q
    assert ev("a % b", {"a": a, "b": b}) == r


def test_division_by_zero():
    with pytest.raises(EvalError, match="division by zero"):
        ev("1 / 0")
    with pytest.raises(EvalError, match="division by zero"):
        ev("1 % 0")


def test_unbound_variable():
    with pytest.raises(EvalError, match="unbound variable 'y'"):
        ev("y + 1")


def test_type_mismatches():
    with pytest.raises(EvalError):
        ev("1 + true")
    with pytest.raises(EvalError):
        ev('"a" < "b"')
    with pytest.raises(EvalError):
        ev('1 == "1"')
    with pytest.raises(EvalError):
        ev("!3")


@pytest.mark.parametrize(
    "text, message",
    [
        ("y + 1", "unbound variable 'y'"),
        ("true + 1", "operator '+' expects integers, got boolean"),
        ('"a" < 1', "operator '<' expects integers, got string"),
        ("1 == true", "cannot compare integer with boolean"),
        ("!1", "operator '!' expects booleans, got integer"),
        ("-null", "operator '-' expects integers, got null"),
        ("1 && true", "operator '&&' expects booleans, got integer"),
        ("1 / 0", "division by zero"),
        ("1 % 0", "division by zero"),
    ],
)
def test_eval_error_messages(text, message):
    with pytest.raises(EvalError) as info:
        ev(text)
    assert str(info.value) == message


def test_string_and_null_equality():
    assert ev('"abc" == "abc"') is True
    assert ev('"abc" != "abd"') is True
    assert ev("null == null") is True


def test_short_circuit_avoids_evaluating_right_side():
    # the right side would fail on the unbound variable if evaluated
    assert ev("false && missing", {}) is False
    assert ev("true || missing", {}) is True
    with pytest.raises(EvalError):
        ev("true && missing", {})


def test_short_circuit_skips_a_failing_right_side():
    assert ev("false && (1 / 0 == 0)") is False
    assert ev("true || (1 / 0 == 0)") is True


def test_apply_assignments_sequential_effects():
    env = {"x": 1, "y": 0}
    changes, values = apply_assignments(
        [("x", parse_expression("x + 1")), ("y", parse_expression("x * 2"))], env
    )
    assert changes == [Change("x", 1, 2), Change("y", 0, 4)]
    assert values == {"x": 2, "y": 4} and env == {"x": 1, "y": 0}


def test_apply_assignments_empty_is_identity():
    assert apply_assignments([], {"x": 1}) == ([], {"x": 1})


def test_apply_assignments_failure_leaves_no_changes():
    env = {"x": 1}
    with pytest.raises(EvalError):
        apply_assignments([("x", parse_expression("1 / 0"))], env)
    assert env == {"x": 1}


def test_apply_assignments_undeclared_target():
    with pytest.raises(EvalError, match="undeclared variable 'z'"):
        apply_assignments([("z", parse_expression("1"))], {"x": 1})


def test_reassignment_is_left_to_right():
    changes, _ = apply_assignments(
        [("x", parse_expression("1")), ("x", parse_expression("x + 1"))],
        {"x": 10},
    )
    assert [c.new for c in changes] == [1, 2]


# -- property tests ---------------------------------------------------------

_names = st.sampled_from(["a", "b", "c"])
_int_exprs = st.sampled_from(["a + b", "a - c", "b * 2", "a % 7 + c", "0 - a"])


@given(
    st.dictionaries(_names, st.integers(-50, 50), min_size=3, max_size=3),
    st.lists(st.tuples(_names, _int_exprs), max_size=6),
)
def test_apply_assignments_matches_sequential_fold(env, statements):
    parsed = [(name, parse_expression(text)) for name, text in statements]

    # reference interpreter: fold assignments one at a time
    expected_env = dict(env)
    for name, expr in parsed:
        expected_env[name] = eval_expr(expr, expected_env)

    changes, values = apply_assignments(parsed, env)
    folded = dict(env)
    for change in changes:
        assert folded[change.name] == change.old
        folded[change.name] = change.new
    assert folded == expected_env == values


@given(st.dictionaries(_names, st.integers(-50, 50), min_size=3, max_size=3))
def test_eval_is_pure_and_deterministic(env):
    expr = parse_expression("a * b - c % 5")
    before = dict(env)
    first = eval_expr(expr, env)
    second = eval_expr(expr, env)
    assert first == second
    assert env == before


# -- eval_expr against a reference interpreter --------------------------------


def _kind(value):
    return {type(None): "null", bool: "boolean", int: "integer", str: "string"}[type(value)]


def _reference(expr, env):
    """Tree-walking oracle for eval_expr, independent of the nodes' methods."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise EvalError(f"unbound variable '{expr.name}'")
        return env[expr.name]

    def expect(value, wanted, op):
        if type(value) is not wanted:
            kind = "booleans" if wanted is bool else "integers"
            raise EvalError(f"operator '{op}' expects {kind}, got {_kind(value)}")
        return value

    if isinstance(expr, Unary):
        value = _reference(expr.operand, env)
        if expr.op == "!":
            return not expect(value, bool, "!")
        return -expect(value, int, "-")
    op = expr.op
    if op in ("&&", "||"):
        left = expect(_reference(expr.left, env), bool, op)
        if left == (op == "||"):
            return left
        return expect(_reference(expr.right, env), bool, op)
    left, right = _reference(expr.left, env), _reference(expr.right, env)
    if op in ("==", "!="):
        if _kind(left) != _kind(right):
            raise EvalError(f"cannot compare {_kind(left)} with {_kind(right)}")
        return (left == right) == (op == "==")
    a, b = expect(left, int, op), expect(right, int, op)
    if op in ("/", "%"):
        if b == 0:
            raise EvalError("division by zero")
        quotient = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
        return quotient if op == "/" else a - quotient * b
    return {
        "+": a + b,
        "-": a - b,
        "*": a * b,
        "<": a < b,
        "<=": a <= b,
        ">": a > b,
        ">=": a >= b,
    }[op]


def _outcome(evaluate, expr, env):
    try:
        value = evaluate(expr, env)
    except EvalError as exc:
        return ("error", str(exc))
    return ("value", type(value), value)


_ENV = {"a": 7, "b": -3, "z": 0, "p": True, "q": False}
_ARITH = ["+", "-", "*", "/", "%"]
_COMPARE = ["<", "<=", ">", ">=", "==", "!="]
_int_leaf = st.one_of(
    st.builds(Literal, st.integers(-20, 20)),
    st.builds(Literal, st.integers(2**62, 2**66)),
    st.builds(Var, st.sampled_from(["a", "b", "z"])),
)
_bool_leaf = st.one_of(st.builds(Literal, st.booleans()), st.builds(Var, st.sampled_from(["p", "q"])))
_int_tree = st.deferred(
    lambda: st.one_of(
        _int_leaf,
        st.builds(Unary, st.just("-"), _int_tree),
        st.builds(Binary, st.sampled_from(_ARITH), _int_tree, _int_tree),
    )
)
_bool_tree = st.deferred(
    lambda: st.one_of(
        _bool_leaf,
        st.builds(Unary, st.just("!"), _bool_tree),
        st.builds(Binary, st.sampled_from(["&&", "||", "==", "!="]), _bool_tree, _bool_tree),
        st.builds(Binary, st.sampled_from(_COMPARE), _int_tree, _int_tree),
    )
)
# ill-typed trees too: every operator over any operands, unbound names included
_any_tree = st.recursive(
    st.one_of(_int_leaf, _bool_leaf, st.builds(Literal, st.none()), st.builds(Var, st.just("zz"))),
    lambda inner: st.one_of(
        st.builds(Unary, st.sampled_from(["!", "-"]), inner),
        st.builds(Binary, st.sampled_from(_ARITH + _COMPARE + ["&&", "||"]), inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_int_tree, _bool_tree, _any_tree))
def test_eval_matches_reference_interpreter(expr):
    assert _outcome(eval_expr, expr, _ENV) == _outcome(_reference, expr, _ENV)
