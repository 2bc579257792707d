"""Expression language used in manipulate bodies, guards, and call parameters.

Values are integers, booleans, strings, and null. Arithmetic is integer-only:
division truncates toward zero and modulo carries the dividend's sign, so
results are identical across platforms and host languages. `&&` and `||`
short-circuit.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Callable, Mapping, NamedTuple, Sequence, Union

Value = Union[int, bool, str, None]


class EvalError(Exception):
    """Unbound variable, type mismatch, or division by zero."""


_KIND_NAMES = {type(None): "null", bool: "boolean", int: "integer", str: "string"}


def kind_name(value: Value) -> str:
    """The value's kind, or the Python type of an object that is no value."""
    return _KIND_NAMES.get(type(value)) or type(value).__name__


_SURROGATE = re.compile("[\ud800-\udfff]")


def is_value(obj: object) -> bool:
    """True if obj is one of the four runtime value kinds. A string holding a
    surrogate code point (U+D800 to U+DFFF) is not text, so not a value."""
    if type(obj) is str:
        return obj.isascii() or _SURROGATE.search(obj) is None
    return obj is None or type(obj) is int or type(obj) is bool


def trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (Python's // floors)."""
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def trunc_mod(a: int, b: int) -> int:
    """Remainder with the dividend's sign: Python's % where a >= 0 and b > 0."""
    return a % b if a >= 0 and b > 0 else a - trunc_div(a, b) * b


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


_UNCOMPARED = frozenset(("line", "col", "source_hash"))  # where a record is from, not what
_set = object.__setattr__  # how a frozen record's __init__ sets its fields


class Record:
    """Base of wee's record types, whose fields are their __slots__. A record
    equals only a record of its own type whose fields, all but line, col and
    source_hash, are equal; its repr shows those. Mutable, it is unhashable.
    Unlike a dataclass, a record type compiles no generated code at import."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name not in _UNCOMPARED}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed on the fields it is compared on."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}' of a {type(self).__name__}")

    def __reduce__(self) -> tuple:  # copy and pickle call __init__ with the slots in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Literal(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        _set(self, "value", value)

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        return self.value


class Var(FrozenRecord):
    __slots__ = ("name", "line", "col")

    def __init__(self, name: str, line: int = 0, col: int = 0):
        _set(self, "name", name)
        _set(self, "line", line)
        _set(self, "col", col)

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"unbound variable '{self.name}'") from None


class Unary(FrozenRecord):
    __slots__ = ("op", "operand")  # op is "!" or "-"

    def __init__(self, op: str, operand: "Expr"):
        _set(self, "op", op)
        _set(self, "operand", operand)

    def evaluate(self, env: Mapping[str, Value]) -> Value:
        operand = self.operand.evaluate(env)
        if self.op == "!":
            return not _bool_operand(operand, "!")
        return -_int_operand(operand, "-")


class Binary(FrozenRecord):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

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
