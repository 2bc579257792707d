from __future__ import annotations

import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wee import dsl
from wee.dsl import (
    CallActivity,
    Choose,
    Cycle,
    ManipulateActivity,
    Parallel,
    ParseError,
    parse,
    position_paths,
    positions,
    pretty,
    validate,
)
from wee.expressions import Binary, Literal, Unary, Var

CORPUS = Path(__file__).parent.parent / "src" / "wee" / "patterns" / "corpus"
FIXTURES = Path(__file__).parent.parent / "src" / "wee" / "fixtures"

MINIMAL = 'workflow { handler "mock" context x: 0 manipulate :a { x = x + 1 } }'


def test_minimal_workflow():
    ast = parse(MINIMAL)
    assert ast.handler_name == "mock"
    assert ast.context_decls[0][0] == "x"
    assert len(ast.body) == 1
    node = ast.body[0]
    assert isinstance(node, ManipulateActivity)
    assert node.position == "a"


def test_booking_fixture_shape():
    ast = parse((FIXTURES / "booking.wee").read_text())
    assert validate(ast) == []
    node_types = [type(n) for n in ast.body]
    assert node_types == [Parallel, ManipulateActivity, Choose]
    calls = [n for _, n in dsl.walk(ast.body) if isinstance(n, CallActivity)]
    assert {c.position for c in calls} == {
        "book_airline",
        "book_hotel",
        "book_transfer",
        "inform",
    }


def test_wait_count_below_one_is_rejected():
    with pytest.raises(ParseError, match="wait count must be ≥ 1"):
        parse('workflow { handler "mock" parallel wait: 0 { } }')


def test_wait_all_and_wait_k():
    ast = parse(
        'workflow { handler "mock" parallel wait: all { } parallel wait: 2 { }'
        " parallel wait: ٣ { } }"
    )
    assert ast.body[0].wait.is_all
    assert ast.body[1].wait.count == 2
    assert ast.body[2].wait.count == 3  # any Unicode decimal digit


def test_duplicate_position_rejected():
    with pytest.raises(ParseError, match="duplicate position 'a'"):
        parse('workflow { handler "mock" manipulate :a { } manipulate :a { } }')


def test_duplicate_context_rejected():
    with pytest.raises(ParseError, match="duplicate context variable 'x'"):
        parse('workflow { handler "mock" context x: 0 context x: 1 }')
    with pytest.raises(ParseError) as info:
        parse('workflow {\n  handler "m"\n  context x: 0\n  context y: x\n  context x: 1\n}')
    assert (info.value.line, info.value.col) == (5, 11)


def test_a_20000_declaration_context_parses_in_linear_time():
    decls = "".join(f"  context v{i}: {i}\n" for i in range(20000))
    source = f'workflow {{\n  handler "mock"\n{decls}}}\n'
    started = time.process_time()
    ast = parse(source)
    assert time.process_time() - started < 2.0
    assert len(ast.context_decls) == 20000


def test_duplicate_endpoint_rejected():
    with pytest.raises(ParseError, match="duplicate endpoint 'e'"):
        parse('workflow { handler "m" endpoint e: "a" endpoint e: "b" }')


def test_missing_handler_rejected():
    with pytest.raises(ParseError, match="missing handler"):
        parse("workflow { manipulate :a { } }")


def test_duplicate_handler_rejected():
    with pytest.raises(ParseError, match="duplicate handler"):
        parse('workflow { handler "a" handler "b" }')


def test_parallel_branch_outside_parallel_rejected():
    with pytest.raises(ParseError, match="parallel_branch outside"):
        parse('workflow { handler "mock" parallel_branch { } }')


def test_parallel_branch_nested_through_cycle_is_fine():
    source = """
    workflow {
      handler "mock"
      context i: 0
      parallel wait: all {
        cycle (i < 3) { parallel_branch { manipulate :w { i = i } } }
      }
    }
    """
    ast = parse(source)
    assert positions(ast) == ["w"]


@pytest.mark.parametrize(
    "wrap",
    [
        lambda inner: inner,
        lambda inner: f"cycle (i < 3) {{ {inner} }}",
        lambda inner: f"choose {{ alternative (i == 0) {{ {inner} }} }}",
        lambda inner: f"critical :gate {{ {inner} }}",
    ],
    ids=["direct", "cycle", "choose", "critical"],
)
def test_parallel_branch_inside_a_parallel_branch_is_rejected_at_the_inner_keyword(wrap):
    # the inner branch would join its grandparent's join, so the branch ids
    # would no longer name the join tree
    inner = "parallel_branch { manipulate :w { i = i } }"
    source = (
        'workflow {\n  handler "mock"\n  context i: 0\n  parallel wait: all {\n'
        f"    parallel_branch {{ {wrap(inner)} }}\n  }}\n}}"
    )
    line = source.splitlines()[4]
    with pytest.raises(ParseError, match="parallel_branch inside a parallel_branch") as info:
        parse(source)
    assert (info.value.line, info.value.col) == (5, line.index("parallel_branch", 8) + 1)


@pytest.mark.parametrize(
    "wrap",
    [
        lambda inner: f"cycle (i < 3) {{ {inner} }}",
        lambda inner: f"choose {{ alternative (i == 0) {{ {inner} }} }}",
        lambda inner: f"critical :gate {{ {inner} }}",
    ],
    ids=["cycle", "choose", "critical"],
)
def test_parallel_branch_under_a_construct_in_its_own_parallel_parses(wrap):
    # the multiple-instance shape: forks under a cycle, nested in a branch
    inner = "parallel_branch { manipulate :w { i = i } }"
    source = f"""
    workflow {{
      handler "mock"
      context i: 0
      parallel wait: all {{
        parallel_branch {{ parallel wait: all {{ {wrap(inner)} }} }}
      }}
    }}
    """
    assert positions(parse(source)) == ["w"]


def test_parse_error_carries_line_and_column():
    try:
        parse('workflow {\n  handler "mock"\n  manipulate a { }\n}')
    except ParseError as exc:
        assert exc.line == 3
        assert exc.col > 0
    else:
        pytest.fail("expected a ParseError")


def test_comments_and_whitespace_are_ignored():
    source = "workflow {  # header\n  handler \"mock\"  # which wrapper\n}"
    assert parse(source).handler_name == "mock"


# -- tokenizer ----------------------------------------------------------------

TOKEN_SOURCE = (
    "workflow {  # a comment\n"
    '  handler "say \\"hi\\" \\\\ bye"\n'
    "  context n: 1\n"
    "  # a whole-line comment\n"
    "  cycle (n <= 2 && !(n == 0) || n != -1) {\n"
    "    manipulate :step { n = n + 1 }\n"
    "  }\n"
    "}\n"
)

T = dsl.TokenType
TOKEN_SOURCE_TOKENS = [
    (T.KEYWORD, "workflow", 1, 1),
    (T.LBRACE, "{", 1, 10),
    (T.KEYWORD, "handler", 2, 3),
    (T.STRING, 'say "hi" \\ bye', 2, 11),
    (T.KEYWORD, "context", 3, 3),
    (T.IDENT, "n", 3, 11),
    (T.COLON, ":", 3, 12),
    (T.INT, "1", 3, 14),
    (T.KEYWORD, "cycle", 5, 3),
    (T.LPAREN, "(", 5, 9),
    (T.IDENT, "n", 5, 10),
    (T.OP, "<=", 5, 12),
    (T.INT, "2", 5, 15),
    (T.OP, "&&", 5, 17),
    (T.OP, "!", 5, 20),
    (T.LPAREN, "(", 5, 21),
    (T.IDENT, "n", 5, 22),
    (T.OP, "==", 5, 24),
    (T.INT, "0", 5, 27),
    (T.RPAREN, ")", 5, 28),
    (T.OP, "||", 5, 30),
    (T.IDENT, "n", 5, 33),
    (T.OP, "!=", 5, 35),
    (T.OP, "-", 5, 38),
    (T.INT, "1", 5, 39),
    (T.RPAREN, ")", 5, 40),
    (T.LBRACE, "{", 5, 42),
    (T.KEYWORD, "manipulate", 6, 5),
    (T.COLON, ":", 6, 16),
    (T.IDENT, "step", 6, 17),
    (T.LBRACE, "{", 6, 22),
    (T.IDENT, "n", 6, 24),
    (T.ASSIGN, "=", 6, 26),
    (T.IDENT, "n", 6, 28),
    (T.OP, "+", 6, 30),
    (T.INT, "1", 6, 32),
    (T.RBRACE, "}", 6, 34),
    (T.RBRACE, "}", 7, 3),
    (T.RBRACE, "}", 8, 1),
    (T.EOF, "", 9, 1),
]


def test_tokenize_pins_type_value_line_and_column_of_every_token():
    tokens = dsl.tokenize(TOKEN_SOURCE)
    assert [(t.type, t.value, t.line, t.col) for t in tokens] == TOKEN_SOURCE_TOKENS


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        ('workflow {\n  handler "mock\n}', 2, 16, "unterminated string literal"),
        ("workflow { context x: ²2 }", 1, 23, "unexpected character '²'"),
    ],
    ids=["unterminated-string", "non-decimal-digit"],
)
def test_tokenize_error_position(source, line, col, message):
    with pytest.raises(ParseError) as info:
        dsl.tokenize(source)
    assert (info.value.line, info.value.col, info.value.message) == (line, col, message)


# The regex tokenizer that tokenize replaced, kept as its reference: one
# match per token, space, newline or comment, and the line counted at each
# newline.
_REFERENCE_TOKEN = re.compile(
    r"""
      (?P<SPACE>[ \t\r]+ | \#[^\n]*)
    | (?P<INT>\d+)
    | (?P<NAME>\w+)
    | (?P<NEWLINE>\n)
    | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<LPAREN>\() | (?P<RPAREN>\))
    | (?P<COLON>:) | (?P<COMMA>,)
    | (?P<OP>== | != | <= | >= | && | \|\| | [-+*/%<>!])
    | (?P<ASSIGN>=)
    | (?P<STRING>"(?:[^"\\\n] | \\.)*")
    | (?P<UNTERMINATED>"[^\n]*)
    | (?P<UNEXPECTED>.)
    | (?P<EOF>\Z)
    """,
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[tuple]:
    tokens: list[tuple] = []
    line, line_start = 1, 0
    for match in _REFERENCE_TOKEN.finditer(source):
        kind, text = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "NAME" and (text[0].isalpha() or text[0] == "_"):
            tokens.append((T.KEYWORD if text in dsl.KEYWORDS else T.IDENT, text, line, col))
        elif kind == "STRING":
            tokens.append((T.STRING, re.sub(r'\\(["\\])', r"\1", text[1:-1]), line, col))
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated string literal", line, col + len(text))
        elif kind in ("NAME", "UNEXPECTED"):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        elif kind != "SPACE":
            tokens.append((T[kind], text, line, col))
    return tokens


def _tokens_or_error(tokenizer, source: str):
    try:
        return [tuple(token) for token in tokenizer(source)]
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


# keywords, punctuation and operators, with non-decimal digits, a decimal
# digit int() accepts, a literal longer than int() accepts, escapes,
# unterminated strings and comments that no newline ends
LEXER_SOUP = (
    sorted(dsl.KEYWORDS)
    + list("{}():,=+-*/%<>!&|_\"'#xy07 \t\r\n²٣§")
    + ["==", "<=", "&&", "||", "9" * 5000, '"a\\"b"', '"open', "# note", "\n# note"]
)
SHIPPED_SOURCES = sorted(
    path.read_text() for path in (*CORPUS.rglob("*.wee"), *FIXTURES.glob("*.wee"))
)


@st.composite
def mutated_source(draw):
    """A shipped workflow with a slice replaced by keyword soup."""
    source = draw(st.sampled_from(SHIPPED_SOURCES))
    start = draw(st.integers(0, len(source)))
    end = draw(st.integers(start, min(len(source), start + 40)))
    patch = "".join(draw(st.lists(st.sampled_from(LEXER_SOUP), max_size=6)))
    return source[:start] + patch + source[end:]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(LEXER_SOUP), max_size=80).map("".join),
        mutated_source(),
        st.text(max_size=200),
    )
)
@example(TOKEN_SOURCE)
def test_tokenize_matches_the_reference_tokenizer(source):
    assert _tokens_or_error(dsl.tokenize, source) == _tokens_or_error(reference_tokenize, source)


# -- positions ---------------------------------------------------------------


def test_positions_in_source_order():
    source = """
    workflow {
      handler "mock"
      manipulate :a { }
      manipulate :b { }
      manipulate :c { }
    }
    """
    assert positions(parse(source)) == ["a", "b", "c"]


def test_positions_cover_nested_parallel_branches():
    source = """
    workflow {
      handler "mock"
      parallel wait: all {
        parallel_branch { manipulate :p { } }
        parallel_branch { manipulate :q { } }
      }
    }
    """
    assert positions(parse(source)) == ["p", "q"]


def test_positions_empty_body():
    assert positions(parse('workflow { handler "mock" }')) == []


def test_position_count_equals_activity_count_over_corpus():
    for path in sorted(CORPUS.rglob("*.wee")):
        ast = parse(path.read_text())
        activities = [n for _, n in dsl.walk(ast.body) if isinstance(n, dsl.Activity)]
        names = positions(ast)
        assert len(names) == len(activities), path
        assert len(set(names)) == len(names), path


def test_position_paths_address_their_nodes():
    ast = parse((FIXTURES / "booking.wee").read_text())
    for name, path in position_paths(ast).items():
        node = dsl.nodes_along(ast, path)[-1]
        assert node.position == name


# -- validation ---------------------------------------------------------------


def test_declared_endpoint_and_parameter_pass():
    source = """
    workflow {
      handler "mock"
      endpoint airline: "http://x"
      context people: 3
      call :book, endpoint: airline, parameters: { persons: people }
    }
    """
    assert validate(parse(source)) == []


def test_undefined_variable_in_condition():
    source = 'workflow { handler "mock" cycle (y > 0) { } }'
    diags = validate(parse(source))
    assert len(diags) == 1
    assert "undefined variable 'y'" in diags[0].message


def test_undefined_endpoint():
    source = 'workflow { handler "mock" call :c, endpoint: nowhere }'
    diags = validate(parse(source))
    assert any("undefined endpoint 'nowhere'" in d.message for d in diags)


def test_assignment_to_undefined_variable():
    source = 'workflow { handler "mock" manipulate :m { ghost = 1 } }'
    diags = validate(parse(source))
    assert any("assignment to undefined variable 'ghost'" in d.message for d in diags)


def test_initializer_forward_reference():
    source = 'workflow { handler "mock" context a: b + 1 context b: 0 }'
    diags = validate(parse(source))
    assert any("initializer of 'a'" in d.message for d in diags)


def test_initializer_backward_reference_is_fine():
    source = 'workflow { handler "mock" context a: 1 context b: a + 1 }'
    assert validate(parse(source)) == []


# -- round trip ---------------------------------------------------------------


def test_pretty_round_trip_over_corpus_and_fixtures():
    files = sorted(CORPUS.rglob("*.wee")) + sorted(FIXTURES.glob("*.wee"))
    assert files
    for path in files:
        ast = parse(path.read_text())
        printed = pretty(ast)
        assert parse(printed) == ast, path


def test_pretty_round_trip_expression_parentheses():
    source = """
    workflow {
      handler "mock"
      context a: 1
      context b: 2
      context c: (a + b) * (a - b)
      context d: a - (b - a)
      context e: 0 - (a + 1)
      cycle ((a < b || b < a) && !(a == b)) { }
    }
    """
    ast = parse(source)
    assert parse(pretty(ast)) == ast


# -- randomized round trip ------------------------------------------------------


@st.composite
def ast_strategy(draw):
    from wee.dsl import Alternative, Critical, ParallelBranch, WaitSpec, WorkflowAst

    var_names = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    counter = iter(range(10_000))

    def expr(depth=0):
        weights = 6 if depth < 2 else 3
        choice = draw(st.integers(0, weights))
        if choice == 0:
            return Literal(draw(st.integers(-99, 99)))
        if choice == 1:
            return Literal(draw(st.booleans()))
        if choice == 2:
            return Literal(draw(st.sampled_from([None, "abc", 'say "hi"', "a\\b"])))
        if choice == 3:
            return Var(draw(st.sampled_from(var_names)))
        if choice == 4:
            operand = expr(depth + 1)
            # the parser folds minus into integer literals
            if isinstance(operand, Literal) and type(operand.value) is int:
                return Literal(-operand.value)
            return Unary("-", operand)
        if choice == 5:
            return Unary("!", expr(depth + 1))
        op = draw(
            st.sampled_from(["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"])
        )
        return Binary(op, expr(depth + 1), expr(depth + 1))

    def position():
        return f"p{next(counter)}"

    def block(depth, in_parallel):
        kinds = ["call", "manipulate"]
        if depth < 3:
            kinds += ["parallel", "choose", "cycle", "critical"]
            if in_parallel:
                kinds.append("parallel_branch")
        nodes = []
        for _ in range(draw(st.integers(0, 3 if depth < 3 else 1))):
            kind = draw(st.sampled_from(kinds))
            if kind == "call":
                params = [
                    (f"k{i}", expr()) for i in range(draw(st.integers(0, 2)))
                ]
                nodes.append(CallActivity(position(), "svc", params))
            elif kind == "manipulate":
                statements = [
                    (draw(st.sampled_from(var_names)), expr())
                    for _ in range(draw(st.integers(0, 2)))
                ]
                nodes.append(ManipulateActivity(position(), statements))
            elif kind == "parallel":
                wait = WaitSpec(draw(st.sampled_from([None, 1, 2, 3])))
                nodes.append(Parallel(wait, block(depth + 1, True)))
            elif kind == "parallel_branch":
                # a parallel_branch needs its own parallel to fork into
                nodes.append(ParallelBranch(block(depth + 1, False)))
            elif kind == "choose":
                alternatives = [
                    Alternative(expr(), block(depth + 1, in_parallel))
                    for _ in range(draw(st.integers(0, 2)))
                ]
                otherwise = block(depth + 1, in_parallel) if draw(st.booleans()) else None
                nodes.append(Choose(alternatives, otherwise))
            elif kind == "cycle":
                nodes.append(Cycle(expr(), block(depth + 1, in_parallel)))
            else:
                section = draw(st.sampled_from(["s1", "s2"]))
                nodes.append(Critical(section, block(depth + 1, in_parallel)))
        return nodes

    decls = [(name, expr()) for name in var_names]
    return WorkflowAst("mock", {"svc": "mock://svc"}, decls, block(0, False))


@settings(max_examples=150, deadline=None)
@given(ast_strategy())
def test_pretty_round_trip_on_random_asts(ast):
    assert parse(pretty(ast)) == ast


def test_negative_literal_round_trips():
    ast = parse('workflow { handler "mock" context x: -5 context y: 3 - -2 }')
    assert parse(pretty(ast)) == ast
    from wee.expressions import eval_expr

    assert eval_expr(ast.context_decls[0][1], {}) == -5
    assert eval_expr(ast.context_decls[1][1], {}) == 5


# -- grammar decisions -----------------------------------------------------------
# Written by hand, not derived from the operator table: the round trips above
# cannot catch a wrong table entry, because parser and printer read the same one.

a, b, c = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize(
    "source, tree",
    [
        # each pair of adjacent levels, loosest first
        ("a || b && c", Binary("||", a, Binary("&&", b, c))),
        ("a && b || c", Binary("||", Binary("&&", a, b), c)),
        ("a && b == c", Binary("&&", a, Binary("==", b, c))),
        ("a != b && c", Binary("&&", Binary("!=", a, b), c)),
        ("a == b < c", Binary("==", a, Binary("<", b, c))),
        ("a >= b != c", Binary("!=", Binary(">=", a, b), c)),
        ("a < b + c", Binary("<", a, Binary("+", b, c))),
        ("a - b > c", Binary(">", Binary("-", a, b), c)),
        ("a + b * c", Binary("+", a, Binary("*", b, c))),
        ("a % b - c", Binary("-", Binary("%", a, b), c)),
        ("-a * b", Binary("*", Unary("-", a), b)),
        ("a / !b", Binary("/", a, Unary("!", b))),
        # left-associativity at each binary level
        ("a || b || c", Binary("||", Binary("||", a, b), c)),
        ("a && b && c", Binary("&&", Binary("&&", a, b), c)),
        ("a == b != c", Binary("!=", Binary("==", a, b), c)),
        ("a < b >= c", Binary(">=", Binary("<", a, b), c)),
        ("a - b - c", Binary("-", Binary("-", a, b), c)),
        ("a / b * c", Binary("*", Binary("/", a, b), c)),
        ("a % b % c", Binary("%", Binary("%", a, b), c)),
        # parentheses and unary chains
        ("a - (b - c)", Binary("-", a, Binary("-", b, c))),
        ("!!a", Unary("!", Unary("!", a))),
        ("- -a", Unary("-", Unary("-", a))),
        # minus folds into an integer literal
        ("-5", Literal(-5)),
        ("3 - -2", Binary("-", Literal(3), Literal(-2))),
        ("-5 * 2", Binary("*", Literal(-5), Literal(2))),
    ],
)
def test_operator_precedence_and_associativity(source, tree):
    assert dsl.parse_expression(source) == tree


@pytest.mark.parametrize("literal", ["²", "9" * 5000], ids=["non-decimal-digit", "5000-digits"])
def test_bad_integer_literal_is_a_parse_error_at_the_literal(literal):
    with pytest.raises(ParseError) as info:
        parse(f'workflow {{\n  handler "m"\n  context x: {literal}\n}}')
    assert (info.value.line, info.value.col) == (3, 14)


# -- totality -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_is_total_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError:
        pass  # diagnostics are the only acceptable failure mode


# non-decimal digits, a decimal digit int() accepts, and a literal longer than
# int() accepts
SOUP = list('workflow{}handler"mock:ace=+cycl()<>0123 \n²¹٣') + ["9" * 5000]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SOUP), max_size=120).map("".join))
def test_parse_is_total_on_keyword_soup(text):
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize("text", ["\ud800", "a\udc80", "\ud800\udc00"])
def test_a_string_literal_holding_a_surrogate_is_refused(text):
    source = f'workflow {{ handler "mock" context s: "ok"\n context t: "{text}" }}'
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.message, info.value.line, info.value.col) == (
        "string literal holds a surrogate code point",
        2,
        13,
    )
