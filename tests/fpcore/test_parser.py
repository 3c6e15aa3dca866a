"""Tests for the FPCore lexer/parser/printer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fpcore import (
    Const,
    FPCoreSyntaxError,
    If,
    Let,
    Num,
    Op,
    Var,
    While,
    format_expr,
    format_fpcore,
    parse_expr,
    parse_fpcore,
    parse_fpcores,
)
from repro.fpcore.parser import MAX_NESTING_DEPTH, parse_number, tokenize


class TestTokenizer:
    def test_basic(self):
        assert list(tokenize("(+ x 1)")) == ["(", "+", "x", "1", ")"]

    def test_brackets_normalized(self):
        assert list(tokenize("[a b]")) == ["(", "a", "b", ")"]

    def test_comments_dropped(self):
        assert list(tokenize("(a ; comment\n b)")) == ["(", "a", "b", ")"]

    def test_strings(self):
        assert list(tokenize('(:name "hi there")')) == ["(", ":name", '"hi there"', ")"]

    def test_unbalanced(self):
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("(+ x 1")
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("+ x 1)")


class TestNumbers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", Fraction(1)),
            ("-3", Fraction(-3)),
            ("0.5", Fraction(1, 2)),
            ("1e3", Fraction(1000)),
            ("2.5e-2", Fraction(1, 40)),
            ("1/3", Fraction(1, 3)),
            ("-1/3", Fraction(-1, 3)),
            (".25", Fraction(1, 4)),
            ("3.", Fraction(3)),
        ],
    )
    def test_parse_number(self, text, expected):
        assert parse_number(text) == expected

    def test_non_numbers(self):
        assert parse_number("x") is None
        assert parse_number("+") is None
        assert parse_number("1.2.3") is None

    def test_hex_float(self):
        assert parse_number("0x1.8p1") == Fraction(3)

    def test_exact_decimal_semantics(self):
        # 0.1 is the exact rational 1/10, not the double 0.1.
        value = parse_expr("0.1")
        assert isinstance(value, Num)
        assert value.value == Fraction(1, 10)


class TestExpressions:
    def test_operator(self):
        expr = parse_expr("(+ x (* y 2))")
        assert expr == Op("+", (Var("x"), Op("*", (Var("y"), Num(Fraction(2), "2")))))

    def test_unary_minus_becomes_neg(self):
        assert parse_expr("(- x)") == Op("neg", (Var("x"),))

    def test_unary_plus_disappears(self):
        assert parse_expr("(+ x)") == Var("x")

    def test_constants(self):
        assert parse_expr("PI") == Const("PI")
        assert parse_expr("pi") == Var("pi")  # case-sensitive

    def test_if(self):
        expr = parse_expr("(if (< x 0) (- x) x)")
        assert isinstance(expr, If)
        assert expr.cond == Op("<", (Var("x"), Num(Fraction(0), "0")))

    def test_let(self):
        expr = parse_expr("(let ([a 1] [b 2]) (+ a b))")
        assert isinstance(expr, Let)
        assert not expr.sequential
        assert [name for name, __ in expr.bindings] == ["a", "b"]

    def test_let_star(self):
        expr = parse_expr("(let* ([a 1] [b (+ a 1)]) b)")
        assert isinstance(expr, Let) and expr.sequential

    def test_while(self):
        expr = parse_expr("(while (< i n) ([i 0 (+ i 1)]) i)")
        assert isinstance(expr, While)
        assert expr.bindings[0][0] == "i"

    def test_annotation_dropped(self):
        expr = parse_expr("(! :precision binary32 (+ x 1))")
        assert expr == parse_expr("(+ x 1)")

    def test_malformed(self):
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("()")
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("(if x y)")
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("(let (x 1) x)")


class TestFPCoreForms:
    def test_simple(self):
        core = parse_fpcore("(FPCore (x) (+ x 1))")
        assert core.arguments == ("x",)
        assert core.name is None

    def test_named_symbol(self):
        core = parse_fpcore("(FPCore myname (x y) (* x y))")
        assert core.name == "myname"

    def test_name_property(self):
        core = parse_fpcore('(FPCore (x) :name "nice name" x)')
        assert core.name == "nice name"

    def test_pre_parsed(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 0 x 10) x)")
        assert isinstance(core.pre, Op)
        assert core.pre.op == "<="

    def test_annotated_argument(self):
        core = parse_fpcore("(FPCore ((! :precision binary64 x)) x)")
        assert core.arguments == ("x",)

    def test_multiple(self):
        cores = parse_fpcores("(FPCore (x) x) (FPCore (y) y)")
        assert len(cores) == 2

    def test_body_required(self):
        with pytest.raises(FPCoreSyntaxError):
            parse_fpcore("(FPCore (x))")


def nested(levels):
    """An FPCore whose body nests ``levels`` additions: its bracket
    depth is ``levels + 1``, counting the (FPCore ...) form."""
    return ("(FPCore (x) :pre (<= 1 x 2) " + "(+ " * levels + "x"
            + " 1)" * levels + ")")


class TestNestingLimit:
    def test_at_the_limit_the_whole_pipeline_runs(self):
        from repro.api import AnalysisSession
        from repro.core import AnalysisConfig
        from repro.machine import compile_fpcore

        core = parse_fpcore(nested(MAX_NESTING_DEPTH - 1))
        assert parse_fpcore(format_fpcore(core)).body == core.body
        compile_fpcore(core)
        session = AnalysisSession(
            config=AnalysisConfig(shadow_precision=128), num_points=2,
            result_cache_size=0,
        )
        result = session.analyze(core)
        assert result.raw.runs == 2
        assert "static" in result.extra

    def test_one_past_the_limit_is_a_syntax_error(self):
        with pytest.raises(FPCoreSyntaxError, match="nesting"):
            parse_fpcore(nested(MAX_NESTING_DEPTH))

    @pytest.mark.parametrize("parse,source", [
        (parse_fpcore, nested(1000)),
        (parse_expr, "(+ " * 1000 + "x" + " 1)" * 1000),
    ])
    def test_very_deep_input_is_a_syntax_error(self, parse, source):
        with pytest.raises(FPCoreSyntaxError, match="nesting"):
            parse(source)


class TestPrinterRoundtrip:
    EXPRESSIONS = [
        "(+ x 1)",
        "(- x)",
        "(sqrt (+ (* x x) (* y y)))",
        "(if (< x 0) (- x) x)",
        "(let ([a (+ x 1)]) (* a a))",
        "(let* ([a 1] [b (+ a 1)]) b)",
        "(while (< i n) ([i 0 (+ i 1)]) i)",
        "(and (<= 0 x 1) (!= y 0))",
        "PI",
        "(atan2 y x)",
        "(fma a b c)",
    ]

    @pytest.mark.parametrize("source", EXPRESSIONS)
    def test_roundtrip(self, source):
        expr = parse_expr(source)
        assert parse_expr(format_expr(expr)) == expr

    def test_fpcore_roundtrip(self):
        source = '(FPCore (x y) :name "t" :pre (<= 0 x y) (+ x y))'
        core = parse_fpcore(source)
        reparsed = parse_fpcore(format_fpcore(core))
        assert reparsed.body == core.body
        assert reparsed.arguments == core.arguments
        assert reparsed.name == core.name

    def test_multiline_format(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 0 x 1) (sqrt x))")
        text = format_fpcore(core, multiline=True)
        assert text.startswith("(FPCore (x)\n")
        assert parse_fpcore(text).body == core.body


@st.composite
def random_exprs(draw, depth=0):
    """Random small expression trees for printer/parser fuzzing."""
    if depth > 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Num(Fraction(draw(st.integers(-100, 100))))
        if choice == 1:
            return Var(draw(st.sampled_from("abcxyz")))
        return Const(draw(st.sampled_from(["PI", "E", "SQRT2"])))
    op = draw(st.sampled_from(["+", "-", "*", "/", "pow", "atan2"]))
    left = draw(random_exprs(depth=depth + 1))
    right = draw(random_exprs(depth=depth + 1))
    return Op(op, (left, right))


class TestFuzzRoundtrip:
    @given(random_exprs())
    def test_print_parse_identity(self, expr):
        assert parse_expr(format_expr(expr)) == expr
