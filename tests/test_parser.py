"""Grammar, precedence, canonical rendering, and round-trip identity."""
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsmith.errors import ClauseSyntaxError
from specsmith.expr import (
    BINARY_LEVEL,
    RIGHT_ASSOC_OPS,
    Binary,
    BoolLit,
    IntLit,
    NullLit,
    OldRef,
    Quantifier,
    ResultRef,
    Unary,
    Var,
    infer_type,
)
from specsmith.parser import MAX_NESTING, parse_clause_line, tokenize
from specsmith.schemata import render_expr

from conftest import bool_exprs, gen_bool_expr, int_exprs, oracle_tokenize, parse_expr


# Pieces of clause text plus characters no token starts with, so drawn
# strings mix well-formed tokens, whitespace and stray characters.
_TOKEN_PIECES = (
    "a", "x1", "$_", "length", "int", "true", "0", "12", "007",
    "\\forall", "\\exists", "\\result", "\\old", "\\", "\\other",
    "<==>", "==>", "<==", "&&", "||", "==", "!=", "<=", ">=",
    "-", "+", "*", "/", "%", "<", ">", "!", "=", "&", "|",
    "(", ")", "[", "]", ";", ".", ",",
    " ", "  ", "\t", "\n", "\u00a0",
    "?", "#", "@", "'", "\"", "é", "λ", "\u0663", "\u2264", "\U0001f600",
)


# The token pieces plus the shapes where a minus meets a literal.
_ROUND_TRIP_PIECES = _TOKEN_PIECES + ("(-5)", "-(5)", ".length")


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ClauseSyntaxError as exc:
        return ("error", str(exc), exc.offset)


class TestTokenizer:
    @staticmethod
    def _texts(source):
        tokens = tokenize(source)
        assert tokens[-1] == ("eof", "", len(source))
        return [text for _, text, _ in tokens[:-1]]

    def test_longest_match_on_arrow_operators(self):
        assert self._texts("a <==> b <== c <= d < e") == [
            "a", "<==>", "b", "<==", "c", "<=", "d", "<", "e",
        ]

    def test_backslash_keywords(self):
        assert self._texts("\\result \\old \\forall \\exists") == [
            "\\result", "\\old", "\\forall", "\\exists",
        ]

    def test_bad_character_reports_offset(self):
        with pytest.raises(ClauseSyntaxError) as info:
            tokenize("a ? b")
        assert info.value.offset == 2
        assert str(info.value) == "unrecognized character '?' (at offset 2)"

    def test_offsets_point_into_source(self):
        assert tokenize("ab + 12") == [
            ("name", "ab", 0), ("op", "+", 3), ("int", "12", 5), ("eof", "", 7),
        ]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=24).map("".join))
    def test_matches_oracle_on_token_pieces(self, text):
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.sampled_from("".join(_TOKEN_PIECES)), max_size=40))
    def test_matches_oracle_on_characters(self, text):
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30))
    def test_matches_oracle_on_any_text(self, text):
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)


class TestPrecedence:
    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("a + b * c", "a + b * c"),
            ("(a + b) * c", "(a + b) * c"),
            ("a - b - c", "a - b - c"),
            ("a - (b - c)", "a - (b - c)"),
            ("a && b || c", "a && b || c"),
            ("a && (b || c)", "a && (b || c)"),
            ("(a && b) || c", "a && b || c"),
            ("a ==> b ==> c", "a ==> b ==> c"),
            ("(a ==> b) ==> c", "(a ==> b) ==> c"),
            ("a <== b <== c", "a <== b <== c"),
            ("a <== (b <== c)", "a <== (b <== c)"),
            ("a <==> b <==> c", "a <==> b <==> c"),
            ("a <==> (b <==> c)", "a <==> (b <==> c)"),
            ("!a && b", "!a && b"),
            ("!(a && b)", "!(a && b)"),
            ("- x + y", "-x + y"),
            ("-(x + y)", "-(x + y)"),
            ("a == b == c", "a == b == c"),
            ("x[0][1]", "x[0][1]"),
            ("\\old(x).length", "\\old(x).length"),
            ("x < y == true", "x < y == true"),
            ("(-5)[i]", "(-5)[i]"),
            ("(-5).length", "(-5).length"),
            ("-(5)", "-(5)"),
            ("-(5).length", "-(5).length"),
            ("-(-5)[i]", "-(-5)[i]"),
            ("!(-x)", "!(-x)"),
            ("!-5", "!(-5)"),
        ],
    )
    def test_canonical_rendering(self, text, canonical):
        assert render_expr(parse_expr(text)) == canonical

    def test_implication_right_associative(self):
        expr = parse_expr("a ==> b ==> c")
        assert isinstance(expr, Binary) and expr.op == "==>"
        assert isinstance(expr.rhs, Binary) and expr.rhs.op == "==>"
        assert render_expr(expr.lhs) == "a"

    def test_consequence_left_associative(self):
        expr = parse_expr("a <== b <== c")
        assert isinstance(expr, Binary) and expr.op == "<=="
        assert isinstance(expr.lhs, Binary) and expr.lhs.op == "<=="
        assert render_expr(expr.rhs) == "c"

    @pytest.mark.parametrize("op1, op2", list(itertools.product(BINARY_LEVEL, repeat=2)))
    def test_operator_pairs(self, op1, op2):
        text = f"a {op1} b {op2} c"
        level1, level2 = BINARY_LEVEL[op1], BINARY_LEVEL[op2]
        right1, right2 = op1 in RIGHT_ASSOC_OPS, op2 in RIGHT_ASSOC_OPS
        if level1 == level2 and right1 != right2:
            with pytest.raises(ClauseSyntaxError, match="cannot mix ==> and <==") as info:
                parse_expr(text)
            assert info.value.offset == text.index(op2, len(f"a {op1} b"))
            return
        a, b, c = Var("a"), Var("b"), Var("c")
        if level1 < level2 or (level1 == level2 and right1):
            expected = Binary(op1, a, Binary(op2, b, c))
        else:
            expected = Binary(op2, Binary(op1, a, b), c)
        assert parse_expr(text) == expected
        assert render_expr(expected) == text

    @pytest.mark.parametrize(
        "text",
        [
            "a ==> b <== c",
            "a <== b ==> c",
            "a ==> b || c <== d",
            "a <== b <== c && d ==> e",
            "a ==> b ==> c <== d",
            "(a <== b ==> c)",
        ],
    )
    def test_mixed_implication_directions_rejected(self, text):
        # The error points at the first arrow that turns the other way.
        arrows = list(re.finditer(r"==>|<==", text))
        offset = next(m.start() for m in arrows if m.group() != arrows[0].group())
        with pytest.raises(ClauseSyntaxError) as info:
            parse_expr(text)
        assert info.value.offset == offset
        assert str(info.value) == (
            f"cannot mix ==> and <== without parentheses (at offset {offset})"
        )

    def test_mixed_directions_fine_with_parentheses(self):
        assert render_expr(parse_expr("(a ==> b) <== c")) == "(a ==> b) <== c"
        assert render_expr(parse_expr("a ==> (b <== c)")) == "a ==> (b <== c)"


class TestAtoms:
    def test_negative_literal_folds(self):
        assert parse_expr("-5") == IntLit(-5)
        assert parse_expr("x + -5") == Binary("+", Var("x"), IntLit(-5))

    def test_negation_of_variable_stays_unary(self):
        assert parse_expr("-x") == Unary("neg", Var("x"))

    def test_double_negation_round_trips(self):
        expr = Unary("neg", Unary("neg", Var("x")))
        assert render_expr(expr) == "-(-x)"
        assert parse_expr("-(-x)") == expr

    def test_negative_literal_renders_bare(self):
        assert render_expr(IntLit(-7)) == "-7"
        assert parse_expr(render_expr(IntLit(-7))) == IntLit(-7)

    def test_literals(self):
        assert parse_expr("true") == BoolLit(True)
        assert parse_expr("false") == BoolLit(False)
        assert parse_expr("null") == NullLit()

    def test_result_and_old(self):
        assert parse_expr("\\result") == ResultRef()
        assert parse_expr("\\old(x)") == OldRef(Var("x"))

    def test_quantifier_shape(self):
        expr = parse_expr("(\\forall int v; 0 <= v && v < n; a[v] > 0)")
        assert isinstance(expr, Quantifier)
        assert expr.kind == "forall" and expr.var == "v"
        assert render_expr(expr) == "(\\forall int v; 0 <= v && v < n; a[v] > 0)"

    def test_quantifier_requires_int_keyword(self):
        with pytest.raises(ClauseSyntaxError):
            parse_expr("(\\forall v; 0 <= v; v > 0)")

    def test_reserved_names_rejected_as_variables(self):
        with pytest.raises(ClauseSyntaxError):
            parse_expr("int + 1")

    @pytest.mark.parametrize("name", ["true", "false", "null", "int"])
    def test_reserved_names_rejected_as_quantified_variables(self, name):
        with pytest.raises(ClauseSyntaxError, match=f"unexpected '{name}'"):
            parse_expr(f"(\\forall int {name}; 0 <= {name} && {name} < 3; true)")

    @pytest.mark.parametrize(
        "text",
        ["", "a +", "(a", "a)", "a b", "\\old x", "a ==>", "x[1", "x.", "1 2"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ClauseSyntaxError):
            parse_expr(text)


class TestClauseLine:
    def test_basic_clause(self):
        kind, expr = parse_clause_line("requires a <= b;")
        assert kind == "requires"
        assert render_expr(expr) == "a <= b"

    def test_annotation_marker_optional(self):
        kind, _ = parse_clause_line("//@ ensures \\result >= 0;")
        assert kind == "ensures"
        kind, _ = parse_clause_line("//@ensures \\result >= 0;")
        assert kind == "ensures"

    def test_all_keywords(self):
        for keyword in ("requires", "ensures", "maintaining", "decreases"):
            kind, _ = parse_clause_line(f"{keyword} x;")
            assert kind == keyword

    def test_missing_semicolon(self):
        with pytest.raises(ClauseSyntaxError):
            parse_clause_line("requires a <= b")

    def test_trailing_garbage(self):
        with pytest.raises(ClauseSyntaxError):
            parse_clause_line("requires a <= b; extra")

    def test_unknown_keyword(self):
        with pytest.raises(ClauseSyntaxError):
            parse_clause_line("assignable x;")


class TestNestingLimit:
    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "(" * n + "x" + ")" * n,
            lambda n: "!" * n + "x",
            lambda n: "-" * n + "x",
            lambda n: "\\old(" * n + "x" + ")" * n,
            lambda n: "a" + "[a" * n + "]" * n,
            lambda n: " ==> ".join(["x"] * (n + 1)),
            lambda n: "(\\forall int k; r; " * n + "x" + ")" * n,
        ],
    )
    def test_parser_nesting(self, nest):
        parse_expr(nest(MAX_NESTING))
        with pytest.raises(ClauseSyntaxError, match="nests deeper than 100 levels"):
            parse_expr(nest(MAX_NESTING + 1))
        with pytest.raises(ClauseSyntaxError, match="nests deeper than 100 levels"):
            parse_clause_line(f"requires {nest(2000)};")

    @pytest.mark.parametrize("op", ["+", "&&", "<==", "*"])
    def test_tree_depth_of_long_chains(self, op):
        # n + 1 operands of a left-associative operator: n levels below the root.
        parse_expr(f" {op} ".join(["x"] * (MAX_NESTING + 1)))
        with pytest.raises(ClauseSyntaxError, match="nests deeper than 100 levels"):
            parse_expr(f" {op} ".join(["x"] * (MAX_NESTING + 2)))
        with pytest.raises(ClauseSyntaxError, match="nests deeper than 100 levels"):
            parse_clause_line(f"requires {f' {op} '.join(['x'] * 2000)};")


class TestRoundTrip:
    @given(bool_exprs)
    @settings(max_examples=150, deadline=None)
    def test_bool_ast_round_trip_identity(self, expr):
        assert parse_expr(render_expr(expr)) == expr

    @given(int_exprs)
    @settings(max_examples=150, deadline=None)
    def test_int_ast_round_trip_identity(self, expr):
        assert parse_expr(render_expr(expr)) == expr

    @given(st.lists(st.sampled_from(_ROUND_TRIP_PIECES), max_size=24).map("".join))
    @settings(max_examples=1000, deadline=None)
    def test_accepted_text_reads_back(self, text):
        try:
            expr = parse_expr(text)
        except ClauseSyntaxError:
            return
        assert parse_expr(render_expr(expr)) == expr

    def test_seeded_generator_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            expr = gen_bool_expr(rng, rng.randrange(1, 4))
            text = render_expr(expr)
            again = parse_expr(text)
            assert again == expr
            assert render_expr(again) == text


class TestTypePass:
    def test_relations_are_bool(self):
        assert infer_type(parse_expr("a <= b")) == "bool"

    def test_arithmetic_is_int(self):
        assert infer_type(parse_expr("a + b")) == "int"

    def test_bare_variable_is_unknown(self):
        assert infer_type(parse_expr("a")) == "unknown"

    def test_null_literal(self):
        assert infer_type(parse_expr("null")) == "null"
