"""Annotation extraction, anchoring, rendering, and re-instrumentation."""
import random
from pathlib import Path

import pytest
from conftest import gen_bool_expr, parse_expr, record_fields

from specsmith.clauses import (
    Anchor,
    AnnotatedProgram,
    Clause,
    ClauseKind,
    extract_annotations,
    instrument_with_lines,
    parse_clause,
    program_anchors,
)
from specsmith.errors import AnchorNotFound, ExtractionError, TypeMismatch
from specsmith.mutation import enumerate_variants
from specsmith.schemata import render_expr

SIMPLE = """\
class Abs {
    //@ requires x > 0;
    //@ ensures \\result >= 0;
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""

OVERLOADS = (Path(__file__).parent / "fixtures" / "Overloads.java").read_text(encoding="utf-8")

LOOPY = """\
class SumTo {
    //@ requires n >= 0;
    static int sumTo(int n) {
        int total = 0;
        int i = 0;
        //@ maintaining 0 <= i && i <= n;
        //@ decreases n - i;
        while (i < n) {
            i = i + 1;
            total = total + i;
        }
        //@ maintaining true;
        for (int k = 0; k < n; k = k + 1) {
            total = total + 0;
        }
        return total;
    }
}
"""


class TestAnchor:
    def test_keys_round_trip(self):
        for anchor in (Anchor("abs"), Anchor("sum", 0), Anchor("sum", 3)):
            assert Anchor.from_key(anchor.key()) == anchor

    def test_key_format(self):
        assert Anchor("abs").key() == "method:abs"
        assert Anchor("sum", 2).key() == "loop:sum:2"


class TestScanAnchors:
    def test_methods_and_loops(self):
        anchors = program_anchors(LOOPY)[0]
        by_key = {a.key() for a in anchors.values()}
        assert by_key == {"method:sumTo", "loop:sumTo:0", "loop:sumTo:1"}

    def test_loop_ordinals_in_textual_order(self):
        anchors = program_anchors(LOOPY)[0]
        ordered = [anchors[i] for i in sorted(anchors) if anchors[i].loop is not None]
        assert [a.loop for a in ordered] == [0, 1]

    def test_control_keywords_not_methods(self):
        lines = ["if (a) {", "while (x) {", "return f(x);", "new Thing(1);"]
        anchors = program_anchors("\n".join(lines))[0]
        assert all(a.loop is not None for a in anchors.values())

    def test_array_return_type(self):
        anchors = program_anchors("static int[] twoSum(int[] nums, int target) {")[0]
        assert anchors[0] == Anchor("twoSum")

    def test_lines_per_anchor(self):
        text = "static int f(int x) {\n  while (x > 0) {\nstatic int f(int x, int y) {\n  for (;;) {\n"
        by_line, line_counts = program_anchors(text)
        assert by_line == {0: Anchor("f"), 1: Anchor("f", 0), 2: Anchor("f"), 3: Anchor("f", 1)}
        assert line_counts == {Anchor("f"): 2, Anchor("f", 0): 1, Anchor("f", 1): 1}


class TestExtraction:
    def test_clauses_and_ids(self):
        program = extract_annotations(SIMPLE)
        assert [c.id for c in program.clauses] == [
            "method:abs/requires/0",
            "method:abs/ensures/0",
        ]
        assert all(c.anchor == Anchor("abs") for c in program.clauses)
        assert "//@" not in program.source

    def test_loop_clauses(self):
        program = extract_annotations(LOOPY)
        ids = [c.id for c in program.clauses]
        assert ids == [
            "method:sumTo/requires/0",
            "loop:sumTo:0/maintaining/0",
            "loop:sumTo:0/decreases/0",
            "loop:sumTo:1/maintaining/0",
        ]

    def test_same_name_methods_number_their_clauses_in_text_order(self):
        # An anchor is a method name, so overloads share one and their
        # clauses are numbered together.
        program = extract_annotations(OVERLOADS)
        assert [(c.id, c.text) for c in program.clauses] == [
            ("method:f/requires/0", "//@ requires x > 0;"),
            ("method:f/requires/1", "//@ requires y > 1;"),
        ]

    def test_stripped_source_has_no_annotations(self):
        program = extract_annotations(LOOPY)
        assert "//@" not in program.source
        assert "while (i < n)" in program.source

    def test_orphan_annotation_rejected(self):
        source = "class C {\n    //@ requires x > 0;\n\n    static int f(int x) { return x; }\n}\n"
        with pytest.raises(ExtractionError) as info:
            extract_annotations(source)
        assert any("method header" in msg for _, msg in info.value.issues)

    def test_annotation_at_end_of_file_rejected(self):
        with pytest.raises(ExtractionError):
            extract_annotations("class C {\n}\n//@ requires x > 0;\n")

    def test_parse_errors_aggregated_with_lines(self):
        source = (
            "class C {\n"
            "    //@ requires x +;\n"
            "    //@ ensures ;\n"
            "    static int f(int x) { return x; }\n"
            "}\n"
        )
        with pytest.raises(ExtractionError) as info:
            extract_annotations(source)
        lines = [line for line, _ in info.value.issues]
        assert lines == [2, 3]

    @pytest.mark.parametrize(
        "body",
        [
            "(" * 300 + "x" + ")" * 300 + " > 0",
            "!" * 300 + "(x > 0)",
            " + ".join(["x"] * 300) + " > 0",
            " ==> ".join(["x > 0"] * 300),
        ],
    )
    def test_deep_nesting_is_a_parse_error(self, body):
        source = (
            "class C {\n"
            f"    //@ requires {body};\n"
            "    //@ requires x > 0;\n"
            "    static int f(int x) { return x; }\n"
            "}\n"
        )
        with pytest.raises(ExtractionError) as info:
            extract_annotations(source)
        [(line, message)] = info.value.issues
        assert line == 2 and message.startswith("clause nests deeper than 100 levels")

    def test_type_mismatch_reported(self):
        source = (
            "class C {\n"
            "    //@ requires x + 1;\n"
            "    static int f(int x) { return x; }\n"
            "}\n"
        )
        with pytest.raises(ExtractionError) as info:
            extract_annotations(source)
        assert any("boolean" in msg for _, msg in info.value.issues)

    def test_a_kind_that_does_not_fit_its_anchor_is_rejected(self):
        twosum = (Path(__file__).parent / "fixtures" / "TwoSum.java").read_text(encoding="utf-8")
        source = (
            twosum.replace("    static int[]", "    //@ maintaining false;\n    static int[]")
            .replace("        for (int i", "        //@ requires false;\n        //@ ensures false;\n        for (int i")
            .replace("            for (int j", "            //@ requires false;\n            //@ ensures false;\n            for (int j")
        )
        with pytest.raises(ExtractionError) as info:
            extract_annotations(source)
        above_loop = "clauses belong above a method header, not a loop"
        assert info.value.issues == [
            (2, "maintaining clauses belong above a loop, not a method header"),
            (5, f"requires {above_loop}"),
            (6, f"ensures {above_loop}"),
            (8, f"requires {above_loop}"),
            (9, f"ensures {above_loop}"),
        ]
        decreases = twosum.replace("    static int[]", "    //@ decreases n;\n    static int[]")
        with pytest.raises(ExtractionError, match="line 2: decreases clauses belong above a loop"):
            extract_annotations(decreases)

    def test_unannotated_program_yields_no_clauses(self):
        program = extract_annotations("class C {\n    static int f(int x) { return x; }\n}\n")
        assert program.clauses == ()


class TestParseClause:
    def test_decreases_must_be_integer(self):
        with pytest.raises(TypeMismatch):
            parse_clause("decreases a < b;")

    def test_requires_must_be_boolean(self):
        with pytest.raises(TypeMismatch):
            parse_clause("requires a + b;")

    @pytest.mark.parametrize("text", ["requires a.length;", "ensures \\old(n + 1);"])
    def test_non_boolean_shapes_are_refused(self, text):
        with pytest.raises(TypeMismatch, match="clauses need a boolean expression"):
            parse_clause(text)

    def test_unknown_type_passes_both_ways(self):
        parse_clause("requires a;")
        parse_clause("decreases a;")

    def test_render_round_trip(self):
        clause = parse_clause("//@ ensures \\result == \\old(x) + 1;")
        assert clause.text == "//@ ensures \\result == \\old(x) + 1;"


class TestClauseIdentity:
    """Clauses compare, hash and print by (kind, text, anchor, id)."""

    def test_clauses_from_equal_trees_compare_and_hash_alike(self):
        rng = random.Random(13)
        for _ in range(200):
            self.check(rng)

    @staticmethod
    def check(rng):
        expr = gen_bool_expr(rng, 3)
        copy = parse_expr(render_expr(expr))
        assert copy == expr and copy is not expr
        anchor = Anchor("f", rng.choice((None, 0, 1)))
        made = parse_clause(f"ensures {render_expr(expr)};", anchor, "method:f/ensures/0")
        again = parse_clause(f"ensures {render_expr(copy)};", Anchor("f", anchor.loop), made.id)
        of_line = Clause(ClauseKind.ENSURES, made.text, anchor, made.id)
        assert made.expr == expr and of_line.expr == expr
        for other in (again, of_line):
            assert made == other and hash(made) == hash(other) and repr(made) == repr(other)
        for other in (
            made.replace(kind=ClauseKind.REQUIRES),
            made.replace(anchor=Anchor("g", anchor.loop)),
            made.replace(id="method:f/ensures/1"),
        ):
            assert made != other


def member(template, text):
    """The member of ``template``'s family with ``text``."""
    return next(v for v in enumerate_variants(template).variants if v.text == text)


class TestClauseValues:
    """However a clause is made (the constructor, parsing,
    placing, a family member's clause), it is a frozen value: it compares,
    hashes and prints by its fields and refuses assignment."""

    FIELDS = (ClauseKind.REQUIRES, "//@ requires a + b <= c;", Anchor("f", 0), "loop:f:0/requires/0")

    def made(self):
        _, text, anchor, clause_id = self.FIELDS
        parsed = parse_clause(text, anchor, clause_id)
        return [
            Clause(*self.FIELDS),
            parsed,
            parse_clause(text).placed(anchor, clause_id),
            parsed.unplaced.placed(anchor, clause_id),
            member(parse_clause("requires a - b <= c;", anchor, clause_id), text).clause,
            member(parse_clause("requires a + b < c;", anchor, clause_id), text).clause,
        ]

    def test_every_make_compares_hashes_and_prints_alike(self):
        for clause in self.made():
            assert clause == Clause(*self.FIELDS)
            assert hash(clause) == hash(self.FIELDS)
            assert repr(clause) == (
                "Clause(kind=<ClauseKind.REQUIRES: 'requires'>, text='//@ requires a + b <= c;', "
                "anchor=Anchor(method='f', loop=0), id='loop:f:0/requires/0')"
            )
            assert record_fields(clause)[:2] == self.FIELDS[:2]
            assert clause.expr == parse_clause(self.FIELDS[1]).expr

    def test_assignment_is_refused(self):
        for clause in self.made():
            for name, value in zip(("kind", "text", "anchor", "id", "expr"), self.FIELDS + (None,)):
                with pytest.raises(AttributeError, match="cannot assign"):
                    setattr(clause, name, value)
            with pytest.raises(AttributeError, match="cannot delete"):
                del clause.text
            assert clause == Clause(*self.FIELDS)

    def test_placing_shares_the_tree_and_the_unplaced_clause(self):
        template = parse_clause("requires a + b <= c;", Anchor("f"), "method:f/requires/0")
        unplaced = template.unplaced
        assert (unplaced.anchor, unplaced.id, unplaced.text) == (None, "", template.text)
        assert unplaced.expr is template.expr and unplaced.unplaced is unplaced
        for anchor, clause_id in ((Anchor("g", 1), "loop:g:1/requires/0"), (None, "")):
            moved = template.placed(anchor, clause_id)
            assert (moved.anchor, moved.id) == (anchor, clause_id)
            assert moved.expr is template.expr and moved.unplaced is unplaced
        rewritten = member(template, "//@ requires a - b <= c;").clause
        assert (rewritten.kind, rewritten.anchor, rewritten.id) == (template.kind, template.anchor, template.id)
        assert "expr" not in vars(rewritten)  # parsed on first read
        assert rewritten.expr == parse_clause("requires a - b <= c;").expr


class TestInstrument:
    def test_extraction_instrument_round_trip(self):
        for source in (SIMPLE, LOOPY):
            program = extract_annotations(source)
            assert instrument_with_lines(program)[0] == source

    def test_instrument_reports_annotation_lines(self):
        program = extract_annotations(SIMPLE)
        text, pairs = instrument_with_lines(program)
        lines = text.splitlines()
        for line_no, clause_id in pairs:
            assert lines[line_no - 1].lstrip().startswith("//@")
        assert [cid for _, cid in pairs] == [c.id for c in program.clauses]

    def test_instrument_preserves_indentation(self):
        program = extract_annotations(SIMPLE)
        text = instrument_with_lines(program)[0]
        assert "    //@ requires x > 0;" in text

    def test_missing_anchor_raises(self):
        clause = Clause(ClauseKind.REQUIRES, "//@ requires x > 0;", Anchor("nope"), "method:nope/requires/0")
        program = AnnotatedProgram("class C {\n}\n", (clause,))
        with pytest.raises(AnchorNotFound):
            instrument_with_lines(program)

    def test_replacing_clause_expressions_keeps_layout(self):
        program = extract_annotations(SIMPLE)
        swapped = AnnotatedProgram(
            program.source,
            tuple(c.replace(text=f"//@ {c.kind.value} x >= 17;") for c in program.clauses),
        )
        text = instrument_with_lines(swapped)[0]
        assert text.count("x >= 17") == 2
        assert extract_annotations(text).source == program.source

    def test_an_anchor_of_two_same_name_methods_raises(self):
        program = extract_annotations(OVERLOADS)
        with pytest.raises(AnchorNotFound, match="anchor method:f names 2 lines"):
            instrument_with_lines(program)

    def test_loop_anchors_of_same_name_methods_are_distinct(self):
        source = (
            "class L {\n"
            "    static void f(int n) {\n"
            "        //@ maintaining n >= 0;\n"
            "        while (n > 0) { n = n - 1; }\n"
            "    }\n"
            "    static void f(int n, int m) {\n"
            "        //@ maintaining m >= 0;\n"
            "        while (m > 0) { m = m - 1; }\n"
            "    }\n"
            "}\n"
        )
        program = extract_annotations(source)
        assert [c.id for c in program.clauses] == [
            "loop:f:0/maintaining/0",
            "loop:f:1/maintaining/0",
        ]
        assert instrument_with_lines(program)[0] == source

    def test_trailing_newline_state_preserved(self):
        no_newline = SIMPLE.rstrip("\n")
        program = extract_annotations(no_newline)
        assert instrument_with_lines(program)[0] == no_newline
