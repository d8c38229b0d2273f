"""Annotation extraction, anchoring, rendering, and re-instrumentation."""
import dataclasses

import pytest

from specsmith.clauses import (
    Anchor,
    AnnotatedProgram,
    Clause,
    ClauseKind,
    extract_annotations,
    instrument,
    instrument_with_lines,
    parse_clause,
    render_clause,
    scan_anchors,
)
from specsmith.errors import AnchorNotFound, ExtractionError, TypeMismatch
from specsmith.parser import parse_expr

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
        anchors = scan_anchors(LOOPY.splitlines())
        by_key = {a.key() for a in anchors.values()}
        assert by_key == {"method:sumTo", "loop:sumTo:0", "loop:sumTo:1"}

    def test_loop_ordinals_in_textual_order(self):
        anchors = scan_anchors(LOOPY.splitlines())
        ordered = [anchors[i] for i in sorted(anchors) if anchors[i].loop is not None]
        assert [a.loop for a in ordered] == [0, 1]

    def test_control_keywords_not_methods(self):
        lines = ["if (a) {", "while (x) {", "return f(x);", "new Thing(1);"]
        anchors = scan_anchors(lines)
        assert all(a.loop is not None for a in anchors.values())

    def test_array_return_type(self):
        anchors = scan_anchors(["static int[] twoSum(int[] nums, int target) {"])
        assert anchors[0] == Anchor("twoSum")


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

    def test_unknown_type_passes_both_ways(self):
        parse_clause("requires a;")
        parse_clause("decreases a;")

    def test_render_round_trip(self):
        clause = parse_clause("//@ ensures \\result == \\old(x) + 1;")
        assert render_clause(clause) == "//@ ensures \\result == \\old(x) + 1;"


class TestInstrument:
    def test_extraction_instrument_round_trip(self):
        for source in (SIMPLE, LOOPY):
            program = extract_annotations(source)
            assert instrument(program) == source

    def test_instrument_reports_annotation_lines(self):
        program = extract_annotations(SIMPLE)
        text, pairs = instrument_with_lines(program)
        lines = text.splitlines()
        for line_no, clause_id in pairs:
            assert lines[line_no - 1].lstrip().startswith("//@")
        assert [cid for _, cid in pairs] == [c.id for c in program.clauses]

    def test_instrument_preserves_indentation(self):
        program = extract_annotations(SIMPLE)
        text = instrument(program)
        assert "    //@ requires x > 0;" in text

    def test_missing_anchor_raises(self):
        clause = Clause(
            kind=ClauseKind.REQUIRES,
            expr=parse_expr("x > 0"),
            anchor=Anchor("nope"),
            id="method:nope/requires/0",
        )
        program = AnnotatedProgram("class C {\n}\n", (clause,))
        with pytest.raises(AnchorNotFound):
            instrument(program)

    def test_replacing_clause_expressions_keeps_layout(self):
        program = extract_annotations(SIMPLE)
        swapped = AnnotatedProgram(
            program.source,
            tuple(dataclasses.replace(c, expr=parse_expr("x >= 17")) for c in program.clauses),
        )
        text = instrument(swapped)
        assert text.count("x >= 17") == 2
        assert extract_annotations(text).source == program.source

    def test_trailing_newline_state_preserved(self):
        no_newline = SIMPLE.rstrip("\n")
        program = extract_annotations(no_newline)
        assert instrument(program) == no_newline
