"""Expression language used in manipulate bodies, guards, and call parameters.

Values are integers, booleans, strings, and null. Arithmetic is integer-only:
division truncates toward zero and modulo carries the dividend's sign, so
results are identical across platforms and host languages. `&&` and `||`
short-circuit.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence, Union

Value = Union[int, bool, str, None]


class EvalError(Exception):
    """Unbound variable, type mismatch, or division by zero."""


def kind_name(value: Value) -> str:
    if value is None:
        return "null"
    if type(value) is bool:
        return "boolean"
    if type(value) is int:
        return "integer"
    return "string"


def is_value(obj: object) -> bool:
    """True if obj is one of the four runtime value kinds."""
    return obj is None or type(obj) in (int, bool, str)


def trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (Python's // floors)."""
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def trunc_mod(a: int, b: int) -> int:
    """Remainder with the dividend's sign."""
    return a - trunc_div(a, b) * b


def _int_operand(value: Value, op: str) -> int:
    # bool is a subclass of int; it is not an integer here
    if type(value) is not int:
        raise EvalError(f"operator '{op}' expects integers, got {kind_name(value)}")
    return value


def _bool_operand(value: Value, op: str) -> bool:
    if type(value) is not bool:
        raise EvalError(f"operator '{op}' expects booleans, got {kind_name(value)}")
    return value


# Each node evaluates itself. Two integer operands, the common case, go
# straight to this table; any other pair is checked and its kinds named.
_INT_OPS: dict[str, Callable[[int, int], Value]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": trunc_div,
    "%": trunc_mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class Literal:
    value: Value

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        return self.value


@dataclass(frozen=True)
class Var:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"unbound variable '{self.name}'") from None


@dataclass(frozen=True)
class Unary:
    op: str  # "!" or "-"
    operand: "Expr"

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        operand = self.operand.evaluate(env)
        if self.op == "!":
            return not _bool_operand(operand, "!")
        return -_int_operand(operand, "-")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        op = self.op
        if op == "&&" or op == "||":
            left = _bool_operand(self.left.evaluate(env), op)
            if op == "&&" and not left:
                return False
            if op == "||" and left:
                return True
            return _bool_operand(self.right.evaluate(env), op)

        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if type(left) is int and type(right) is int and op in _INT_OPS:
            return _INT_OPS[op](left, right)

        if op == "==" or op == "!=":
            if kind_name(left) != kind_name(right):
                raise EvalError(f"cannot compare {kind_name(left)} with {kind_name(right)}")
            return (left == right) if op == "==" else (left != right)

        # only a non-integer operand or an unknown operator gets here
        _int_operand(left, op)
        _int_operand(right, op)
        raise EvalError(f"unknown operator '{op}'")


Expr = Union[Literal, Var, Unary, Binary]


class Change(NamedTuple):
    """One applied assignment: variable name with its old and new value."""

    name: str
    old: Value
    new: Value


# Change(...) without the NamedTuple's Python-level __new__
_new_change = functools.partial(tuple.__new__, Change)


def eval_expr(expr: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate expr against env. Pure: env is never modified."""
    return expr.evaluate(env)


def apply_assignments(
    statements: Sequence[tuple[str, Expr]], env: Mapping[str, Value]
) -> tuple[list[Change], dict[str, Value]]:
    """Evaluate assignments left to right, each seeing earlier effects.

    Returns the change list and a new dict of the values after it, without
    mutating env; committing the changes is the context store's job, and it
    takes that dict over instead of copying env again. Raising midway leaves
    no partial effects anywhere.
    """
    scratch = dict(env)
    changes: list[Change] = []
    for name, expr in statements:
        if name not in scratch:
            raise EvalError(f"undeclared variable '{name}'")
        new = expr.evaluate(scratch)
        changes.append(_new_change((name, scratch[name], new)))
        scratch[name] = new
    return changes, scratch
