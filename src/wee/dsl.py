"""Workflow DSL: lexer, recursive descent parser, printer, and validation.

A workflow file declares one handler wrapper, optional endpoints and context
variables, then a block of statements. Statement kinds are call, manipulate,
parallel (wait: all | k), parallel_branch, choose/alternative/otherwise,
cycle, and critical. Every activity carries a position label (`:name`) that
is unique within the workflow and addressable by jumps and resume overrides.

Grammar (whitespace-insensitive, `#` line comments):

    workflow   = "workflow" "{" header* block "}"
    header     = "handler" STRING
               | "endpoint" IDENT ":" STRING
               | "context" IDENT ":" expr
    block      = stmt*
    stmt       = "call" ":" IDENT "," "endpoint" ":" IDENT
                     [ "," "parameters" ":" "{" (IDENT ":" expr)* "}" ]
               | "manipulate" ":" IDENT "{" (IDENT "=" expr)* "}"
               | "parallel" "wait" ":" ("all" | INT) "{" block "}"
               | "parallel_branch" "{" block "}"
               | "choose" "{" ("alternative" "(" expr ")" "{" block "}")*
                              [ "otherwise" "{" block "}" ] "}"
               | "cycle" "(" expr ")" "{" block "}"
               | "critical" ":" IDENT "{" block "}"
    expr       = unary (BINARY_OP unary)*   # binding strength: _PRECEDENCE
    unary      = ("!" | "-") unary | primary
    primary    = INT | STRING | "true" | "false" | "null" | IDENT | "(" expr ")"

INT is a run of Unicode decimal digits (so `٣` is 3); IDENT starts with a
letter or `_`. A parallel_branch's innermost enclosing parallel or
parallel_branch must be a parallel: the branch joins that block's join.
"""

from __future__ import annotations

import functools
import re
import string
from enum import Enum

try:  # a builtin sha256: importing hashlib loads OpenSSL, about 3.5 MB of memory
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without its own hashes
        from hashlib import sha256
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .expressions import Binary, Expr, Literal, Record, Unary, Var, is_value


class ParseError(Exception):
    """Syntax or structural error, with source line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


# Nodes are records (see expressions.Record): a node equals a node of its
# own type whose fields but line and col, where it starts, are equal.


class CallActivity(Record):
    __slots__ = ("position", "endpoint", "parameters", "line", "col")

    def __init__(
        self, position: str, endpoint: str, parameters: list[tuple[str, Expr]], line=0, col=0
    ):
        self.position, self.endpoint, self.parameters = position, endpoint, parameters
        self.line, self.col = line, col


class ManipulateActivity(Record):
    __slots__ = ("position", "statements", "line", "col")

    def __init__(self, position: str, statements: list[tuple[str, Expr]], line=0, col=0):
        self.position, self.statements, self.line, self.col = position, statements, line, col


class WaitSpec(NamedTuple):
    """Join policy of a parallel block: count=None waits for all branches."""

    count: Optional[int] = None

    @property
    def is_all(self) -> bool:
        return self.count is None


class Parallel(Record):
    __slots__ = ("wait", "body", "line", "col")

    def __init__(self, wait: WaitSpec, body: "Block", line=0, col=0):
        self.wait, self.body, self.line, self.col = wait, body, line, col


class ParallelBranch(Record):
    __slots__ = ("body", "line", "col")

    def __init__(self, body: "Block", line=0, col=0):
        self.body, self.line, self.col = body, line, col


class Alternative(Record):
    __slots__ = ("guard", "block")

    def __init__(self, guard: Expr, block: "Block"):
        self.guard, self.block = guard, block


class Choose(Record):
    __slots__ = ("alternatives", "otherwise", "line", "col")

    def __init__(
        self, alternatives: list[Alternative], otherwise: Optional["Block"], line=0, col=0
    ):
        self.alternatives, self.otherwise, self.line, self.col = alternatives, otherwise, line, col


class Cycle(Record):
    __slots__ = ("condition", "body", "line", "col")

    def __init__(self, condition: Expr, body: "Block", line=0, col=0):
        self.condition, self.body, self.line, self.col = condition, body, line, col


class Critical(Record):
    __slots__ = ("section", "body", "line", "col")

    def __init__(self, section: str, body: "Block", line=0, col=0):
        self.section, self.body, self.line, self.col = section, body, line, col


Node = Union[CallActivity, ManipulateActivity, Parallel, ParallelBranch, Choose, Cycle, Critical]
Activity = (CallActivity, ManipulateActivity)
Block = list  # list[Node]


class WorkflowAst(Record):
    """A parsed workflow; parse() sets source_hash, the SHA-256 of its source."""

    __slots__ = ("handler_name", "endpoints", "context_decls", "body", "source_hash")

    def __init__(
        self,
        handler_name: str,
        endpoints: dict[str, str],
        context_decls: list[tuple[str, Expr]],
        body: Block,
        source_hash: str = "",
    ):
        self.handler_name, self.endpoints = handler_name, endpoints
        self.context_decls, self.body, self.source_hash = context_decls, body, source_hash


class Diagnostic(NamedTuple):
    message: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class TokenType(Enum):
    IDENT = "identifier"
    INT = "integer"
    STRING = "string"
    KEYWORD = "keyword"
    OP = "operator"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    COLON = ":"
    COMMA = ","
    ASSIGN = "="
    EOF = "end of input"


KEYWORDS = frozenset(
    """
    workflow handler endpoint context call manipulate parallel parallel_branch
    wait parameters choose alternative otherwise cycle critical all true false null
    """.split()
)

# Binding strength of each binary operator, loosest first; the parser and
# the printer both read it. Unary ! and - bind tightest.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY_PRECEDENCE = 7


# One match per token: group 1 is the whitespace, newlines and `#` comments
# skipped before the token, group 2 the token, whose alternatives are tried
# in order (INT before a name, two-character operators before one-character
# ones). No token spans a newline, so line and column follow from the
# skipped text. The alternatives after the string are errors or, matching
# empty, the end of input.
_TOKEN = re.compile(
    r"""
    ( [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )* )
    ( \d+ | \w+
    | == | != | <= | >= | && | \|\| | [-+*/%<>!=(){}:,]
    | "(?: [^"\\\n] | \\. )*"
    | "[^\n]* | . | \Z )
    """,
    re.VERBOSE,
)
_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"')  # _TOKEN's string alternative
_ESCAPE = re.compile(r'\\(["\\])')


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    col: int


# Token(...) without the NamedTuple's Python-level __new__
_new_token = functools.partial(tuple.__new__, Token)

# the type of each token whose text alone decides it: keywords, operators,
# the one-character types ({ } ( ) : , =) and "", the end of input
_FIXED_TOKENS = {
    **dict.fromkeys(KEYWORDS, TokenType.KEYWORD),
    **dict.fromkeys((*_PRECEDENCE, "!"), TokenType.OP),
    **{ttype.value: ttype for ttype in TokenType if len(ttype.value) == 1},
    "": TokenType.EOF,
}
# the type of an ASCII name or integer, by its first character
_TYPE_BY_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", TokenType.IDENT),
    **dict.fromkeys(string.digits, TokenType.INT),
}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    for skipped, text in _TOKEN.findall(source):
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = pos + skipped.rindex("\n") + 1
        pos += len(skipped)
        col = pos - line_start + 1
        pos += len(text)
        ttype = _FIXED_TOKENS.get(text) or _TYPE_BY_FIRST.get(text[:1])
        if ttype is None:
            ttype, text = _rare_token(text, line, col)
        tokens.append(_new_token((ttype, text, line, col)))
        if ttype is TokenType.EOF:  # findall can match the empty end twice
            break
    return tokens


def _rare_token(text: str, line: int, col: int) -> tuple[TokenType, str]:
    """A string, a non-ASCII name or integer, or an error."""
    first = text[0]
    if first.isdecimal():  # matched \d+
        return TokenType.INT, text
    if first.isalpha():  # "_" and ASCII letters have _TYPE_BY_FIRST
        return TokenType.IDENT, text
    if _STRING.fullmatch(text):
        value = _ESCAPE.sub(r"\1", text[1:-1])
        if not is_value(value):  # text holds no surrogate code point
            raise ParseError("string literal holds a surrogate code point", line, col)
        return TokenType.STRING, value
    if first == '"':
        # reported where the line or the input ends
        raise ParseError("unterminated string literal", line, col + len(text))
    # a name starts with a letter or "_"; a non-decimal digit such as "²" is
    # no integer either
    raise ParseError(f"unexpected character {first!r}", line, col)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.positions_seen: dict[str, Token] = {}
        # the innermost enclosing "parallel" or "parallel_branch", if any
        self.enclosing: Optional[str] = None

    # -- token helpers ----------------------------------------------------
    # The grammar reads self.tokens[self.pos] and steps with self.pos += 1.
    # Only a parse's last step expects EOF, so stepping past it is never read.

    @staticmethod
    def error(message: str, tok: Token) -> ParseError:
        return ParseError(message, tok.line, tok.col)

    def expect(self, ttype: TokenType, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not ttype:
            raise self.error(f"expected {what or ttype.value}, got {tok.value!r}", tok)
        self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.KEYWORD or tok.value != word:
            raise self.error(f"expected '{word}', got {tok.value!r}", tok)
        self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.type is TokenType.KEYWORD and tok.value in words

    def expect_ident(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.IDENT:
            raise self.error(f"expected {what}, got {tok.value!r}", tok)
        self.pos += 1
        return tok

    def integer(self, tok: Token) -> int:
        """Step past the INT token tok; a literal int() refuses is a ParseError."""
        self.pos += 1
        try:
            return int(tok.value)
        except ValueError as exc:  # longer than sys.get_int_max_str_digits()
            raise self.error(f"bad integer literal: {exc}", tok) from None

    # -- grammar ----------------------------------------------------------

    def parse_workflow(self) -> WorkflowAst:
        start = self.expect_keyword("workflow")
        self.expect(TokenType.LBRACE)

        handler_name: Optional[str] = None
        endpoints: dict[str, str] = {}
        context_decls: list[tuple[str, Expr]] = []
        context_names: set[str] = set()

        while self.at_keyword("handler", "endpoint", "context"):
            kw = self.tokens[self.pos]
            self.pos += 1
            if kw.value == "handler":
                if handler_name is not None:
                    raise self.error("duplicate handler declaration", kw)
                handler_name = self.expect(TokenType.STRING, "handler name string").value
            elif kw.value == "endpoint":
                name_tok = self.expect_ident("endpoint name")
                if name_tok.value in endpoints:
                    raise self.error(f"duplicate endpoint '{name_tok.value}'", name_tok)
                self.expect(TokenType.COLON)
                uri = self.expect(TokenType.STRING, "endpoint URI string").value
                endpoints[name_tok.value] = uri
            else:
                name_tok = self.expect_ident("context variable name")
                if name_tok.value in context_names:
                    raise self.error(f"duplicate context variable '{name_tok.value}'", name_tok)
                context_names.add(name_tok.value)
                self.expect(TokenType.COLON)
                context_decls.append((name_tok.value, self.parse_expr()))

        if handler_name is None:
            raise self.error("missing handler declaration", start)

        body = self.parse_block()
        self.expect(TokenType.RBRACE)
        self.expect(TokenType.EOF, "end of input")
        return WorkflowAst(handler_name, endpoints, context_decls, body)

    def parse_block(self) -> Block:
        block: Block = []
        while True:
            kw = self.tokens[self.pos]
            parse_node = kw.type is TokenType.KEYWORD and self.STATEMENTS.get(kw.value)
            if not parse_node:
                return block
            self.pos += 1
            block.append(parse_node(self, kw))

    def register_position(self, tok: Token) -> str:
        if tok.value in self.positions_seen:
            raise self.error(f"duplicate position '{tok.value}'", tok)
        self.positions_seen[tok.value] = tok
        return tok.value

    # Each statement parser starts past its keyword kw.

    def parse_call(self, kw: Token) -> CallActivity:
        self.expect(TokenType.COLON)
        position = self.register_position(self.expect_ident("position label"))
        self.expect(TokenType.COMMA)
        self.expect_keyword("endpoint")
        self.expect(TokenType.COLON)
        endpoint = self.expect_ident("endpoint name").value
        parameters: list[tuple[str, Expr]] = []
        if self.tokens[self.pos].type is TokenType.COMMA:
            self.pos += 1
            self.expect_keyword("parameters")
            self.expect(TokenType.COLON)
            self.expect(TokenType.LBRACE)
            seen: set[str] = set()
            while (name_tok := self.tokens[self.pos]).type is TokenType.IDENT:
                self.pos += 1
                if name_tok.value in seen:
                    raise self.error(f"duplicate parameter '{name_tok.value}'", name_tok)
                seen.add(name_tok.value)
                self.expect(TokenType.COLON)
                parameters.append((name_tok.value, self.parse_expr()))
            self.expect(TokenType.RBRACE)
        return CallActivity(position, endpoint, parameters, kw.line, kw.col)

    def parse_manipulate(self, kw: Token) -> ManipulateActivity:
        self.expect(TokenType.COLON)
        position = self.register_position(self.expect_ident("position label"))
        self.expect(TokenType.LBRACE)
        statements: list[tuple[str, Expr]] = []
        while (name_tok := self.tokens[self.pos]).type is TokenType.IDENT:
            self.pos += 1
            self.expect(TokenType.ASSIGN)
            statements.append((name_tok.value, self.parse_expr()))
        self.expect(TokenType.RBRACE)
        return ManipulateActivity(position, statements, kw.line, kw.col)

    def parse_parallel(self, kw: Token) -> Parallel:
        self.expect_keyword("wait")
        self.expect(TokenType.COLON)
        tok = self.tokens[self.pos]
        if self.at_keyword("all"):
            self.pos += 1
            wait = WaitSpec(None)
        elif tok.type is TokenType.INT:
            count = self.integer(tok)
            if count < 1:
                raise self.error("wait count must be ≥ 1", tok)
            wait = WaitSpec(count)
        else:
            raise self.error(f"expected 'all' or a branch count, got {tok.value!r}", tok)
        self.expect(TokenType.LBRACE)
        body = self.parse_enclosed_block("parallel")
        self.expect(TokenType.RBRACE)
        return Parallel(wait, body, kw.line, kw.col)

    def parse_parallel_branch(self, kw: Token) -> ParallelBranch:
        if self.enclosing is None:
            raise self.error("parallel_branch outside of a parallel block", kw)
        if self.enclosing == "parallel_branch":
            # its branch would join the outer parent's join, not its own parent's
            raise self.error("parallel_branch inside a parallel_branch needs its own parallel", kw)
        self.expect(TokenType.LBRACE)
        body = self.parse_enclosed_block("parallel_branch")
        self.expect(TokenType.RBRACE)
        return ParallelBranch(body, kw.line, kw.col)

    def parse_enclosed_block(self, keyword: str) -> Block:
        outer, self.enclosing = self.enclosing, keyword
        body = self.parse_block()
        self.enclosing = outer
        return body

    def parse_choose(self, kw: Token) -> Choose:
        self.expect(TokenType.LBRACE)
        alternatives: list[Alternative] = []
        while self.at_keyword("alternative"):
            self.pos += 1
            self.expect(TokenType.LPAREN)
            guard = self.parse_expr()
            self.expect(TokenType.RPAREN)
            self.expect(TokenType.LBRACE)
            block = self.parse_block()
            self.expect(TokenType.RBRACE)
            alternatives.append(Alternative(guard, block))
        otherwise: Optional[Block] = None
        if self.at_keyword("otherwise"):
            self.pos += 1
            self.expect(TokenType.LBRACE)
            otherwise = self.parse_block()
            self.expect(TokenType.RBRACE)
        self.expect(TokenType.RBRACE)
        return Choose(alternatives, otherwise, kw.line, kw.col)

    def parse_cycle(self, kw: Token) -> Cycle:
        self.expect(TokenType.LPAREN)
        condition = self.parse_expr()
        self.expect(TokenType.RPAREN)
        self.expect(TokenType.LBRACE)
        body = self.parse_block()
        self.expect(TokenType.RBRACE)
        return Cycle(condition, body, kw.line, kw.col)

    def parse_critical(self, kw: Token) -> Critical:
        self.expect(TokenType.COLON)
        section = self.expect_ident("section name").value
        self.expect(TokenType.LBRACE)
        body = self.parse_block()
        self.expect(TokenType.RBRACE)
        return Critical(section, body, kw.line, kw.col)

    # -- expressions ------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over _PRECEDENCE: the right operand binds only
        tighter operators, so every binary operator is left-associative."""
        left = self.parse_unary()
        while True:
            tok = self.tokens[self.pos]
            prec = _PRECEDENCE.get(tok.value, 0) if tok.type is TokenType.OP else 0
            if prec < min_prec:
                return left
            self.pos += 1
            left = Binary(tok.value, left, self.parse_expr(prec + 1))

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.type is TokenType.OP and tok.value in ("!", "-"):
            self.pos += 1
            operand = self.parse_unary()
            # fold minus into integer literals so `-5` has one canonical form
            if tok.value == "-" and isinstance(operand, Literal) and type(operand.value) is int:
                return Literal(-operand.value)
            return Unary(tok.value, operand)
        return self.parse_primary(tok)

    def parse_primary(self, tok: Token) -> Expr:
        """The primary that starts at tok, the current token."""
        if tok.type is TokenType.IDENT:
            self.pos += 1
            return Var(tok.value, tok.line, tok.col)
        if tok.type is TokenType.INT:
            return Literal(self.integer(tok))
        if tok.type is TokenType.STRING:
            self.pos += 1
            return Literal(tok.value)
        if tok.type is TokenType.KEYWORD and tok.value in ("true", "false", "null"):
            self.pos += 1
            return Literal({"true": True, "false": False, "null": None}[tok.value])
        if tok.type is TokenType.LPAREN:
            self.pos += 1
            inner = self.parse_expr()
            self.expect(TokenType.RPAREN)
            return inner
        raise self.error(f"expected expression, got {tok.value!r}", tok)

    # the statement keywords: parse_block loops while the next token is one
    STATEMENTS = {
        "call": parse_call,
        "manipulate": parse_manipulate,
        "parallel": parse_parallel,
        "parallel_branch": parse_parallel_branch,
        "choose": parse_choose,
        "cycle": parse_cycle,
        "critical": parse_critical,
    }


def parse(source: str) -> WorkflowAst:
    """Parse a workflow source text, which a saved state names by its SHA-256,
    the AST's source_hash; raises ParseError with line/column."""
    ast = _Parser(tokenize(source)).parse_workflow()
    ast.source_hash = sha256(source.encode("utf-8", "surrogatepass")).hexdigest()
    return ast


def parse_expression(source: str) -> Expr:
    """Parse a standalone expression (used by handler configs and tests)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect(TokenType.EOF, "end of expression")
    return expr


# ---------------------------------------------------------------------------
# AST traversal and addressing
# ---------------------------------------------------------------------------

# A path addresses a node inside the workflow body as an alternating list of
# [statement index, child-block selector, statement index, ...] (odd length).
# For parallel/parallel_branch/cycle/critical the selector is always 0; for
# choose it picks an alternative (or len(alternatives) for the otherwise
# block).


def child_blocks(node: Node) -> list[Block]:
    if isinstance(node, (Parallel, ParallelBranch, Cycle, Critical)):
        return [node.body]
    if isinstance(node, Choose):
        blocks = [alt.block for alt in node.alternatives]
        if node.otherwise is not None:
            blocks.append(node.otherwise)
        return blocks
    return []


def nodes_along(ast: WorkflowAst, path: Sequence[int]) -> list[Node]:
    """All nodes a path descends through, outermost first.

    Raises IndexError when a statement index is negative or past the end of
    its block, or when a selector picks a child block the node does not have.
    """
    out: list[Node] = []
    block = ast.body
    for i, index in enumerate(path):
        if i % 2:
            blocks = child_blocks(out[-1])
            if not 0 <= index < len(blocks):
                raise IndexError(f"path {path} selects a missing child block")
            block = blocks[index]
        elif 0 <= index < len(block):
            out.append(block[index])
        else:
            raise IndexError(f"path {path} leaves the workflow body")
    return out


def walk(body: Block, prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Node]]:
    """Yield (path, node) for every node in source order."""
    for i, node in enumerate(body):
        path = prefix + (i,)
        yield path, node
        for sel, block in enumerate(child_blocks(node)):
            yield from walk(block, path + (sel,))


def positions(ast: WorkflowAst) -> list[str]:
    """All activity positions in source order."""
    return [node.position for _, node in walk(ast.body) if isinstance(node, Activity)]


def position_paths(ast: WorkflowAst) -> dict[str, tuple[int, ...]]:
    return {node.position: path for path, node in walk(ast.body) if isinstance(node, Activity)}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _expr_vars(expr: Expr) -> Iterator[Var]:
    if isinstance(expr, Var):
        yield expr
    elif isinstance(expr, Unary):
        yield from _expr_vars(expr.operand)
    elif isinstance(expr, Binary):
        yield from _expr_vars(expr.left)
        yield from _expr_vars(expr.right)


def validate(ast: WorkflowAst) -> list[Diagnostic]:
    """Check that every referenced endpoint and context variable is declared."""
    diags: list[Diagnostic] = []
    declared: set[str] = set()

    for name, init in ast.context_decls:
        for var in _expr_vars(init):
            if var.name not in declared:
                diags.append(
                    Diagnostic(
                        f"initializer of '{name}' references undefined variable '{var.name}'",
                        var.line,
                        var.col,
                    )
                )
        declared.add(name)

    def check_expr(expr: Expr) -> None:
        for var in _expr_vars(expr):
            if var.name not in declared:
                diags.append(
                    Diagnostic(f"undefined variable '{var.name}'", var.line, var.col)
                )

    for _, node in walk(ast.body):
        if isinstance(node, CallActivity):
            if node.endpoint not in ast.endpoints:
                diags.append(
                    Diagnostic(f"undefined endpoint '{node.endpoint}'", node.line, node.col)
                )
            for _, expr in node.parameters:
                check_expr(expr)
        elif isinstance(node, ManipulateActivity):
            for name, expr in node.statements:
                if name not in declared:
                    diags.append(
                        Diagnostic(
                            f"assignment to undefined variable '{name}'", node.line, node.col
                        )
                    )
                check_expr(expr)
        elif isinstance(node, Choose):
            for alt in node.alternatives:
                check_expr(alt.guard)
        elif isinstance(node, Cycle):
            check_expr(node.condition)
    return diags


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def format_value(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return str(value)


def format_expr(expr: Expr) -> str:
    return _format_expr(expr, 0)


def _format_expr(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Literal):
        return format_value(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        text = expr.op + _format_expr(expr.operand, _UNARY_PRECEDENCE)
        return f"({text})" if parent_prec > _UNARY_PRECEDENCE else text
    prec = _PRECEDENCE[expr.op]
    left = _format_expr(expr.left, prec)
    # right operand needs parens at equal precedence: ops are left-associative
    right = _format_expr(expr.right, prec + 1)
    text = f"{left} {expr.op} {right}"
    return f"({text})" if parent_prec > prec else text


def pretty(ast: WorkflowAst) -> str:
    """Render an AST back to canonical source; reparsing yields an equal AST."""
    lines = ["workflow {"]
    indent = "  "
    lines.append(f'{indent}handler "{ast.handler_name}"')
    for name, uri in ast.endpoints.items():
        lines.append(f"{indent}endpoint {name}: {format_value(uri)}")
    for name, init in ast.context_decls:
        lines.append(f"{indent}context {name}: {format_expr(init)}")
    _print_block(ast.body, lines, indent)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_block(block: Block, lines: list[str], indent: str) -> None:
    inner = indent + "  "
    for node in block:
        if isinstance(node, CallActivity):
            text = f"{indent}call :{node.position}, endpoint: {node.endpoint}"
            if node.parameters:
                params = " ".join(f"{n}: {format_expr(e)}" for n, e in node.parameters)
                text += f", parameters: {{ {params} }}"
            lines.append(text)
        elif isinstance(node, ManipulateActivity):
            if node.statements:
                lines.append(f"{indent}manipulate :{node.position} {{")
                for name, expr in node.statements:
                    lines.append(f"{inner}{name} = {format_expr(expr)}")
                lines.append(f"{indent}}}")
            else:
                lines.append(f"{indent}manipulate :{node.position} {{ }}")
        elif isinstance(node, Parallel):
            wait = "all" if node.wait.is_all else str(node.wait.count)
            lines.append(f"{indent}parallel wait: {wait} {{")
            _print_block(node.body, lines, inner)
            lines.append(f"{indent}}}")
        elif isinstance(node, ParallelBranch):
            lines.append(f"{indent}parallel_branch {{")
            _print_block(node.body, lines, inner)
            lines.append(f"{indent}}}")
        elif isinstance(node, Choose):
            lines.append(f"{indent}choose {{")
            for alt in node.alternatives:
                lines.append(f"{inner}alternative ({format_expr(alt.guard)}) {{")
                _print_block(alt.block, lines, inner + "  ")
                lines.append(f"{inner}}}")
            if node.otherwise is not None:
                lines.append(f"{inner}otherwise {{")
                _print_block(node.otherwise, lines, inner + "  ")
                lines.append(f"{inner}}}")
            lines.append(f"{indent}}}")
        elif isinstance(node, Cycle):
            lines.append(f"{indent}cycle ({format_expr(node.condition)}) {{")
            _print_block(node.body, lines, inner)
            lines.append(f"{indent}}}")
        elif isinstance(node, Critical):
            lines.append(f"{indent}critical :{node.section} {{")
            _print_block(node.body, lines, inner)
            lines.append(f"{indent}}}")
