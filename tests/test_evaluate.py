"""Expression evaluation against trace records, and trace file round trips."""
import json
import random
import re

import pytest

from specsmith.errors import (
    ConfigError,
    DivisionByZero,
    EvalTypeError,
    IndexOutOfRange,
    MissingOldSnapshot,
    UnboundVariable,
    UnboundedQuantifier,
)
from specsmith.evaluate import NULL, Phase, TraceRecord, eval_expr
from specsmith.expr import Binary, Unary, walk
from specsmith.tracefile import load_trace_file, record_from_dict

from conftest import (
    REL_OPS,
    dump_trace_file,
    eval_outcome,
    gen_eval_case,
    oracle_eval,
    oracle_load_trace_file,
    parse_expr,
    record_to_dict,
    typed,
)


def record(bindings=None, result=None, old=None, phase=Phase.POST):
    return TraceRecord(
        anchor=None, phase=phase, bindings=bindings or {}, result=result, old=old
    )


def ev(text, **kwargs):
    return eval_expr(parse_expr(text), record(**kwargs))


class TestBasics:
    def test_arithmetic_and_relations(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("a - b", bindings={"a": 10, "b": 4}) == 6
        assert ev("2 < 3") is True
        assert ev("3 <= 2") is False

    def test_java_division_truncates_toward_zero(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3
        assert ev("7 / -2") == -3
        assert ev("-7 / -2") == 3

    def test_java_remainder_keeps_dividend_sign(self):
        assert ev("7 % 3") == 1
        assert ev("-7 % 3") == -1
        assert ev("7 % -3") == 1

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ev("1 / 0")
        with pytest.raises(DivisionByZero):
            ev("1 % 0")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            ev("missing + 1")

    def test_booleans_are_not_integers(self):
        with pytest.raises(EvalTypeError):
            ev("true + 1")
        with pytest.raises(EvalTypeError):
            ev("1 && true")


class TestShortCircuit:
    def test_and_skips_rhs(self):
        assert ev("false && 1 / 0 == 0") is False

    def test_or_skips_rhs(self):
        assert ev("true || 1 / 0 == 0") is True

    def test_implication_skips_rhs(self):
        assert ev("false ==> 1 / 0 == 0") is True

    def test_consequence_is_strict(self):
        with pytest.raises(DivisionByZero):
            ev("true <== 1 / 0 == 0")

    def test_equivalence_is_strict(self):
        with pytest.raises(DivisionByZero):
            ev("true <==> 1 / 0 == 0")


class TestSpecialForms:
    def test_result(self):
        assert ev("\\result == 5", result=5) is True
        with pytest.raises(UnboundVariable):
            ev("\\result == 5")

    def test_old(self):
        out = ev("x == \\old(x) + 1", bindings={"x": 4}, old={"x": 3})
        assert out is True
        with pytest.raises(MissingOldSnapshot):
            ev("\\old(x) == 1", bindings={"x": 1})

    def test_array_length_and_index(self):
        assert ev("arr.length == 3", bindings={"arr": [5, 6, 7]}) is True
        assert ev("arr[1] == 6", bindings={"arr": [5, 6, 7]}) is True

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ev("arr[3] == 0", bindings={"arr": [1, 2, 3]})
        with pytest.raises(IndexOutOfRange):
            ev("arr[0 - 1] == 0", bindings={"arr": [1, 2, 3]})

    def test_null_comparisons(self):
        assert ev("arr != null", bindings={"arr": [1]}) is True
        assert ev("arr == null", bindings={"arr": NULL}) is True
        assert ev("null == null") is True

    def test_index_is_evaluated_before_the_base_is_checked(self):
        # As in Java: an index that fails to evaluate wins over a null base.
        with pytest.raises(UnboundVariable):
            ev("arr[\\result] == 0", bindings={"arr": NULL})
        with pytest.raises(EvalTypeError, match="null array"):
            ev("arr[0] == 0", bindings={"arr": NULL})
        with pytest.raises(DivisionByZero):
            ev("x[1 / 0] == 0", bindings={"x": 1})

    def test_array_equality_is_structural(self):
        out = ev("a == b", bindings={"a": [1, 2], "b": [1, 2]})
        assert out is True


def overwide_domain(range_text):
    """The interval a quantifier over ``range_text`` would walk, read from
    the error its over-wide domain raises before any element is evaluated."""
    with pytest.raises(UnboundedQuantifier) as raised:
        ev(f"(\\forall int v; {range_text}; true)")
    return re.search(r"\[-?\d+, -?\d+\]", str(raised.value)).group()


class TestQuantifiers:
    def test_forall_and_exists(self):
        bindings = {"arr": [2, 4, 6], "n": 3}
        assert ev("(\\forall int k; 0 <= k && k < n; arr[k] % 2 == 0)", bindings=bindings)
        assert ev("(\\exists int k; 0 <= k && k < n; arr[k] == 4)", bindings=bindings)
        assert not ev("(\\exists int k; 0 <= k && k < n; arr[k] == 5)", bindings=bindings)

    def test_empty_range_vacuous(self):
        assert ev("(\\forall int k; 0 <= k && k < 0; 1 / 0 == 0)") is True
        assert ev("(\\exists int k; 0 <= k && k < 0; true)") is False

    def test_extra_conjuncts_act_as_guards(self):
        out = ev("(\\forall int k; 0 <= k && k < 10 && k % 2 == 0; k % 2 == 0)")
        assert out is True

    def test_strict_bounds_tighten(self):
        assert overwide_domain("0 < v && v < 2000000") == "[1, 1999999]"
        assert overwide_domain("0 <= v && v <= 2000000") == "[0, 2000000]"
        assert ev("(\\exists int v; 0 < v && v < 5; v == 1)") is True
        assert ev("(\\exists int v; 0 < v && v < 5; v == 4)") is True

    def test_flipped_bounds_normalize(self):
        assert overwide_domain("v >= 2 && 3000000 >= v") == "[2, 3000000]"
        assert overwide_domain("v > 2 && 3000000 > v") == "[3, 2999999]"
        assert ev("(\\exists int v; v >= 2 && 7 >= v; v == 7)") is True

    def test_missing_bound_is_unbounded(self):
        with pytest.raises(UnboundedQuantifier):
            ev("(\\forall int k; 0 <= k; k >= 0)")
        with pytest.raises(UnboundedQuantifier):
            ev("(\\exists int k; k < 10; k == 0)")

    def test_shadowing_inner_variable(self):
        text = (
            "(\\forall int k; 0 <= k && k < 2;"
            " (\\exists int m; 0 <= m && m < 3; k + m == 2))"
        )
        assert ev(text) is True

    def test_old_sees_quantifier_bindings(self):
        out = ev(
            "(\\forall int k; 0 <= k && k < 2; \\old(x) + k >= 3)",
            bindings={"x": 0},
            old={"x": 3},
        )
        assert out is True


class TestBruteForceOracle:
    def test_random_cases_match_oracle(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(400):
            expr, rec = gen_eval_case(rng)
            expected = eval_outcome(oracle_eval, expr, rec)
            actual = eval_outcome(eval_expr, expr, rec)
            assert actual == expected, f"{expr!r} -> {actual} != {expected}"
            checked += 1
        assert checked == 400


    def test_generated_cases_reach_every_shape(self):
        """The generator reaches unary minus, equality over booleans and over
        a boolean and an int, and a null array."""
        rng = random.Random(1234)
        seen = set()
        for _ in range(400):
            expr, rec = gen_eval_case(rng)
            if rec.bindings["arr"] is NULL:
                seen.add("null array")
            for _, node in walk(expr):
                if isinstance(node, Unary) and node.op == "-":
                    seen.add("unary minus")
                if isinstance(node, Binary) and node.op in ("==", "!="):
                    bools = sum(isinstance(side, Binary) and side.op in REL_OPS for side in (node.lhs, node.rhs))
                    seen.add({2: "bool == bool", 1: "bool == int"}.get(bools))
        assert seen >= {"null array", "unary minus", "bool == bool", "bool == int"}


class TestTraceIO:
    def test_record_round_trip(self, tmp_path):
        records = [
            record(bindings={"x": 1, "arr": [1, 2]}, phase=Phase.PRE),
            record(bindings={"x": 2}, result=[3, 4], old={"x": 1}, phase=Phase.POST),
            record(bindings={"x": 2, "i": 0}, phase=Phase.ITER),
        ]
        # File-level identity needs real anchors.
        from specsmith.clauses import Anchor

        records = [
            TraceRecord(Anchor("f"), r.phase, r.bindings, r.result, r.old)
            for r in records
        ]
        path = tmp_path / "trace.jsonl"
        dump_trace_file(str(path), records)
        loaded = load_trace_file(str(path))
        assert loaded == records

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "bad JSON"),
            ('{"anchor": "method:f", "phase": "bogus", "bindings": {}}', "not a valid Phase"),
            ("[1, 2]", "expected a JSON object"),
            ('{"anchor": 5, "phase": "pre", "bindings": {}}', "'int' object"),
        ],
    )
    def test_malformed_line_is_config_error_naming_it(self, tmp_path, line, message):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"anchor": "method:f", "phase": "pre", "bindings": {}})
        path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: .*{message}"):
            load_trace_file(str(path))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict(
                {"anchor": "method:f", "phase": "pre", "bindings": {}, "bogus": 1}
            )

    def test_null_result_is_recorded_null(self):
        rec = record_from_dict(
            {"anchor": "method:f", "phase": "post", "bindings": {}, "result": None}
        )
        assert rec.result is NULL

    def test_absent_result_is_not_recorded(self):
        rec = record_from_dict({"anchor": "method:f", "phase": "post", "bindings": {}})
        assert rec.result is None

    def test_non_integer_array_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict(
                {"anchor": "method:f", "phase": "pre", "bindings": {"a": [1, "x"]}}
            )

    def test_dict_round_trip_sorted(self):
        from specsmith.clauses import Anchor

        rec = TraceRecord(Anchor("f"), Phase.POST, {"b": 2, "a": 1}, result=7, old={"a": 0})
        text = json.dumps(record_to_dict(rec), sort_keys=True)
        assert record_from_dict(json.loads(text)) == rec


# ---------------------------------------------------------------------------
# The trace decoder against the decoder it replaced (conftest's
# oracle_load_trace_file), on generated JSON-lines files.

_TRACE_ANCHORS = ["method:f", "method:g", "loop:f:0", "loop:f:1", "loop:g:0"]
_TRACE_NAMES = ["a", "i", "n", "nums", "x_1", "ß"]
_TRACE_BLANKS = ["", "   ", "\t", "\x1c", "\u3000"]  # all blank to str.strip


def _gen_trace_value(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice(["", "x", "héllo", "a\nb"])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([-1, 1]) * 10**20
    return [rng.randint(-99, 99) for _ in range(rng.randrange(6))]


def _gen_trace_bindings(rng):
    return {name: _gen_trace_value(rng) for name in rng.sample(_TRACE_NAMES, rng.randrange(5))}


def _gen_trace_object(rng):
    obj = {"anchor": rng.choice(_TRACE_ANCHORS), "phase": rng.choice(["pre", "post", "iter"])}
    if rng.random() < 0.9:
        obj["bindings"] = _gen_trace_bindings(rng)
    if rng.random() < 0.3:
        obj["result"] = _gen_trace_value(rng)
    if rng.random() < 0.3:
        obj["old"] = None if rng.random() < 0.25 else _gen_trace_bindings(rng)
    return dict(rng.sample(list(obj.items()), len(obj)))


def _gen_trace_lines(rng):
    """Good lines: records in varied spacing and key order, among blank
    and whitespace-only lines."""
    lines = []
    for _ in range(rng.randrange(1, 25)):
        if rng.random() < 0.15:
            lines.append(rng.choice(_TRACE_BLANKS))
        separators = rng.choice([None, (",", ":"), (" , ", " : ")])
        text = json.dumps(_gen_trace_object(rng), separators=separators, ensure_ascii=rng.random() < 0.5)
        pad = rng.choice(["", "", "", " ", "\t"])
        lines.append(pad + text + rng.choice(["", "", pad]))
    return lines


def _write_trace_lines(path, rng, lines, line_end=None):
    line_end = line_end or rng.choice(["\n", "\n", "\r\n"])
    text = line_end.join(lines) + rng.choice([line_end, ""])
    path.write_bytes(text.encode("utf-8"))


def _load_outcome(load, path):
    try:
        records = load(str(path))
    except Exception as exc:  # the class and the text must match
        return type(exc).__name__, str(exc)
    return "ok", [
        (r.anchor, r.phase, typed(r.bindings), typed(r.result), typed(r.old)) for r in records
    ]


_BAD_TRACE_LINES = {
    "json array": "[1, 2]",
    "json string": '"method:f"',
    "unknown field": '{"anchor": "method:f", "phase": "pre", "bindings": {}, "bogus": 1}',
    "two unknown fields": '{"zz": 1, "anchor": "method:f", "aa": 2}',
    "missing anchor": '{"phase": "pre", "bindings": {}}',
    "missing phase": '{"anchor": "method:f", "bindings": {}}',
    "missing both": '{"bindings": {}}',
    "int anchor": '{"anchor": 5, "phase": "pre", "bindings": {}}',
    "null anchor": '{"anchor": null, "phase": "pre"}',
    "list anchor": '{"anchor": ["method:f"], "phase": "pre"}',
    "object anchor": '{"anchor": {"method": "f"}, "phase": "pre"}',
    "anchor without method": '{"anchor": "method:", "phase": "pre"}',
    "anchor without ordinal": '{"anchor": "loop:f", "phase": "iter"}',
    "anchor with bad ordinal": '{"anchor": "loop:f:x", "phase": "iter"}',
    "anchor of unknown kind": '{"anchor": "block:f", "phase": "pre"}',
    "bad anchor and bad phase": '{"anchor": "bogus", "phase": "bogus"}',
    "bad phase": '{"anchor": "method:f", "phase": "bogus", "bindings": {}}',
    "upper-case phase": '{"anchor": "method:f", "phase": "PRE"}',
    "null phase": '{"anchor": "method:f", "phase": null}',
    "list phase": '{"anchor": "method:f", "phase": ["pre"]}',
    "int phase": '{"anchor": "method:f", "phase": 1}',
    "true inside an array": '{"anchor": "method:f", "phase": "pre", "bindings": {"a": [1, true]}}',
    "nested array": '{"anchor": "method:f", "phase": "pre", "bindings": {"a": [1, [2]]}}',
    "string inside an array": '{"anchor": "method:f", "phase": "pre", "bindings": {"i": 0, "a": ["x"]}}',
    "null inside an array": '{"anchor": "method:f", "phase": "pre", "bindings": {"a": [null]}}',
    "float value": '{"anchor": "method:f", "phase": "pre", "bindings": {"i": 1, "x": 1.5}}',
    "NaN value": '{"anchor": "method:f", "phase": "pre", "bindings": {"x": NaN}}',
    "object value": '{"anchor": "method:f", "phase": "pre", "bindings": {"x": {}}}',
    "null then a bad value": '{"anchor": "method:f", "phase": "pre", "bindings": {"n": null, "x": 2.0}}',
    "bindings not an object": '{"anchor": "method:f", "phase": "pre", "bindings": [1]}',
    "null bindings": '{"anchor": "method:f", "phase": "pre", "bindings": null}',
    "bad result": '{"anchor": "method:f", "phase": "post", "bindings": {}, "result": [1, false]}',
    "object result": '{"anchor": "method:f", "phase": "post", "result": {"a": 1}}',
    "non-object old": '{"anchor": "method:f", "phase": "post", "bindings": {}, "old": 3}',
    "list old": '{"anchor": "method:f", "phase": "post", "old": [1]}',
    "bad old binding": '{"anchor": "method:f", "phase": "post", "old": {"a": [1, true]}}',
    "bad binding before bad old": '{"anchor": "method:f", "phase": "post", "bindings": {"a": 0.5}, "old": 1}',
    "truncated JSON": '{"anchor": "method:f", "phase": ',
    "trailing data": '{"anchor": "method:f", "phase": "pre"} x',
    "two documents": '{"anchor": "method:f", "phase": "pre"}{}',
    "vertical tab after the document": '{"anchor": "method:f", "phase": "pre"}\x0b',
}

_GOOD_TRACE_LINES = {
    "null result": '{"anchor": "method:f", "phase": "post", "bindings": {}, "result": null}',
    "null old": '{"anchor": "method:f", "phase": "post", "bindings": {"x": 1}, "old": null}',
    "missing bindings": '{"anchor": "loop:f:0", "phase": "iter"}',
    "empty array": '{"anchor": "method:f", "phase": "pre", "bindings": {"a": []}}',
    "leading and trailing whitespace": ' \t{"anchor": "method:f", "phase": "pre"} \t',
    "big integers": '{"anchor": "method:f", "phase": "pre", "bindings": {"a": [-100000000000000000000]}}',
}


class TestTraceDecoderMatchesOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_generated_good_files(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "trace.jsonl"
        _write_trace_lines(path, rng, _gen_trace_lines(rng))
        expected = _load_outcome(oracle_load_trace_file, path)
        assert expected[0] == "ok"
        assert _load_outcome(load_trace_file, path) == expected

    @pytest.mark.parametrize("case", sorted(_GOOD_TRACE_LINES))
    def test_good_lines(self, tmp_path, case):
        self._check_line(tmp_path, _GOOD_TRACE_LINES[case], "ok")

    @pytest.mark.parametrize("case", sorted(_BAD_TRACE_LINES))
    def test_malformed_lines(self, tmp_path, case):
        self._check_line(tmp_path, _BAD_TRACE_LINES[case], "ConfigError")

    def _check_line(self, tmp_path, line, outcome):
        for seed in range(3):
            rng = random.Random(seed)
            lines = _gen_trace_lines(rng)
            lines.insert(rng.randrange(1, len(lines) + 1), line)
            path = tmp_path / f"trace{seed}.jsonl"
            _write_trace_lines(path, rng, lines, line_end=["\n", "\r\n", "\n"][seed])
            expected = _load_outcome(oracle_load_trace_file, path)
            assert expected[0] == outcome
            assert _load_outcome(load_trace_file, path) == expected

    @pytest.mark.parametrize(
        "case, lead, middle",
        [
            ("UTF-8 BOM on line 1", b"\xef\xbb\xbf", b""),
            ("non-UTF-8 byte on a middle line", b"", b"\xff"),
            ("overlong encoding on a middle line", b"", b"\xc0\xaf"),
            ("whitespace-only middle line", b"", b" \t"),
        ],
    )
    def test_byte_level_cases(self, tmp_path, case, lead, middle):
        good = b'{"anchor": "method:f", "phase": "pre", "bindings": {"s": "ok"}}'
        path = tmp_path / "trace.jsonl"
        path.write_bytes(lead + good + b"\n" + good + b"\n" + middle + b"\n" + good + b"\n")
        expected = _load_outcome(oracle_load_trace_file, path)
        assert expected[0] == ("ok" if case.startswith("whitespace") else "ConfigError")
        assert _load_outcome(load_trace_file, path) == expected

    def test_records_of_one_anchor_share_one_anchor_within_a_load(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "trace.jsonl"
        _write_trace_lines(path, rng, [json.dumps(_gen_trace_object(rng)) for _ in range(60)])
        records = load_trace_file(str(path))
        by_key = {}
        for rec in records:
            by_key.setdefault(rec.anchor.key(), set()).add(id(rec.anchor))
        assert len(by_key) > 1
        assert all(len(ids) == 1 for ids in by_key.values())
        # The memo is the load's own: a second load decodes afresh.
        assert load_trace_file(str(path))[0].anchor is not records[0].anchor
