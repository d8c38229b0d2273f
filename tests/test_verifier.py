"""Verdicts, failure classification, and the three verifier adapters."""
import dataclasses
import random
import sys
import textwrap
import time

import pytest

from specsmith.clauses import (
    Anchor,
    AnnotatedProgram,
    extract_annotations,
    instrument_with_lines,
    parse_clause,
)
from specsmith.errors import CommandNotFound, ConfigError, ScriptExhausted
from specsmith.evaluate import Phase, TraceRecord, eval_expr
from specsmith.verifier import (
    DEFAULT_RULES,
    ExecVerifier,
    FailureCategory,
    FailureReport,
    MockVerifier,
    Outcome,
    TraceVerifier,
    VerifierVerdict,
    _parse_diagnostics,
    classify_failure,
    make_rules,
)

from conftest import ScriptedVerifier, gen_trace_case, oracle_verify_trace

ANNOTATED = """\
class Abs {
    //@ requires x > 0;
    //@ ensures \\result >= 0;
    static int abs(int x) {
        return x;
    }
}
"""


def program():
    return extract_annotations(ANNOTATED)


class TestVerdictInvariants:
    def test_pass_cannot_carry_failures(self):
        failure = FailureReport("boom", FailureCategory.UNKNOWN)
        with pytest.raises(ValueError):
            VerifierVerdict(Outcome.PASS, (failure,))

    def test_fail_needs_at_least_one_failure(self):
        with pytest.raises(ValueError):
            VerifierVerdict(Outcome.FAIL, ())

    def test_timeout_and_crash_allow_empty(self):
        VerifierVerdict(Outcome.TIMEOUT, detail="slow")
        VerifierVerdict(Outcome.CRASH, detail="boom")


class TestClassification:
    @pytest.mark.parametrize(
        "message, category",
        [
            ("Foo.java:3: syntax error in annotation", FailureCategory.SYNTAX_ERROR),
            ("parse failure near token", FailureCategory.SYNTAX_ERROR),
            ("type mismatch: int vs boolean", FailureCategory.TYPE_ERROR),
            ("cannot prove postcondition at line 9", FailureCategory.UNPROVABLE_POSTCONDITION),
            ("loop invariant does not hold on entry", FailureCategory.UNPROVABLE_INVARIANT),
            ("precondition of callee may not hold", FailureCategory.UNPROVABLE_PRECONDITION),
            ("decreases clause may not decrease", FailureCategory.NONTERMINATION_DECREASES),
            ("loop variant negative", FailureCategory.NONTERMINATION_DECREASES),
            ("invariant possibly violated", FailureCategory.UNPROVABLE_INVARIANT),
            ("something entirely different", FailureCategory.UNKNOWN),
        ],
    )
    def test_default_rules(self, message, category):
        assert classify_failure(message, DEFAULT_RULES) is category

    def test_first_match_wins(self):
        rules = make_rules(
            [
                ("special", FailureCategory.SYNTAX_ERROR),
                ("special case", FailureCategory.TYPE_ERROR),
            ]
        )
        assert classify_failure("a special case", rules) is FailureCategory.SYNTAX_ERROR

    def test_matching_is_case_insensitive(self):
        assert (
            classify_failure("POSTCONDITION failed", DEFAULT_RULES)
            is FailureCategory.UNPROVABLE_POSTCONDITION
        )


def make_stub(tmp_path, name, script):
    path = tmp_path / name
    path.write_text(f"#!{sys.executable}\n" + textwrap.dedent(script), encoding="utf-8")
    path.chmod(0o755)
    return str(path)


class TestExecAdapter:
    def test_pass_on_clean_exit(self, tmp_path):
        stub = make_stub(tmp_path, "ok.py", "print('fine')\n")
        verdict = ExecVerifier(f"{stub} {{file}}").verify(program())
        assert verdict.outcome is Outcome.PASS

    def test_diagnostic_attributed_to_nearest_clause_above(self, tmp_path):
        stub = make_stub(
            tmp_path,
            "fail.py",
            """\
            import sys
            print(f"{sys.argv[1]}:3: cannot prove postcondition", file=sys.stderr)
            sys.exit(1)
            """,
        )
        verdict = ExecVerifier(f"{stub} {{file}}").verify(program())
        assert verdict.outcome is Outcome.FAIL
        failure = verdict.failures[0]
        assert failure.category is FailureCategory.UNPROVABLE_POSTCONDITION
        assert failure.source_line == 3
        # Line 3 is the ensures annotation in the instrumented file.
        assert failure.clause_id == "method:abs/ensures/0"

    def test_failures_per_call_one_truncates(self, tmp_path):
        stub = make_stub(
            tmp_path,
            "two.py",
            """\
            print("first: cannot prove postcondition")
            print("second: loop invariant broken")
            raise SystemExit(1)
            """,
        )
        one = ExecVerifier(f"{stub} {{file}}", failures_per_call="one")
        both = ExecVerifier(f"{stub} {{file}}", failures_per_call="all")
        assert len(one.verify(program()).failures) == 1
        assert len(both.verify(program()).failures) == 2

    def test_nonzero_exit_without_diagnostics_is_crash(self, tmp_path):
        stub = make_stub(tmp_path, "crash.py", "raise SystemExit(3)\n")
        verdict = ExecVerifier(f"{stub} {{file}}").verify(program())
        assert verdict.outcome is Outcome.CRASH
        assert "exit status 3" in verdict.detail

    def test_timeout(self, tmp_path):
        stub = make_stub(tmp_path, "slow.py", "import time\ntime.sleep(5)\n")
        verifier = ExecVerifier(f"{stub} {{file}}", timeout_seconds=1.0)
        verdict = verifier.verify(program())
        assert verdict.outcome is Outcome.TIMEOUT

    def test_timeout_ends_the_wrapped_checker(self, tmp_path):
        # A wrapper script that backgrounds the real work: the child would
        # leave a marker after the limit unless the whole group is killed.
        marker = tmp_path / "still-running"
        wrapper = tmp_path / "wrapper.sh"
        wrapper.write_text(
            f"#!/bin/sh\n(sleep 1; touch '{marker}') &\nsleep 5\n", encoding="utf-8"
        )
        wrapper.chmod(0o755)
        started = time.monotonic()
        verdict = ExecVerifier(f"{wrapper} {{file}}", timeout_seconds=0.4).verify(program())
        assert verdict.outcome is Outcome.TIMEOUT
        assert verdict.detail == "command exceeded 0.4s"
        assert time.monotonic() - started < 1.0
        time.sleep(1.5)
        assert not marker.exists()

    def test_missing_command(self):
        verifier = ExecVerifier("definitely-not-a-real-binary {file}")
        with pytest.raises(CommandNotFound):
            verifier.verify(program())

    def test_command_without_placeholder_rejected(self):
        # Checked when the adapter is built, before any program is written.
        with pytest.raises(ConfigError, match=r"needs a \{file\} placeholder"):
            ExecVerifier("javac")

    def test_temp_file_receives_instrumented_text(self, tmp_path):
        stub = make_stub(
            tmp_path,
            "echo.py",
            """\
            import sys
            sys.stdout.write(open(sys.argv[1]).read())
            """,
        )
        verdict = ExecVerifier(f"{stub} {{file}}").verify(program())
        # The stub's output is not diagnostic-shaped, so the run passes;
        # reaching PASS proves the instrumented file existed and was read.
        assert verdict.outcome is Outcome.PASS


SUM_ANNOTATED = """\
class Sum {
    //@ requires n >= 0;
    //@ ensures \\result >= 0;
    static int sum(int n) {
        int s = 0;
        int i = 0;
        //@ maintaining 0 <= i && i <= n;
        while (i < n) {
            s = s + i;
            i = i + 1;
        }
        return s;
    }
}
"""


class TestDiagnosticAttribution:
    """A diagnostic blames the clause instrumented nearest at or above its
    line (clause lines 2, 3 and 7 here)."""

    @staticmethod
    def blamed(source_line):
        _, clause_lines = instrument_with_lines(extract_annotations(SUM_ANNOTATED))
        output = f"Sum.java:{source_line}: cannot prove postcondition"
        (failure,) = _parse_diagnostics(output, DEFAULT_RULES, clause_lines)
        assert failure.source_line == source_line
        return failure.clause_id

    def test_line_above_the_first_clause_blames_none(self):
        assert self.blamed(1) is None

    def test_a_clause_line_blames_that_clause(self):
        assert [self.blamed(line) for line in (2, 3, 7)] == [
            "method:sum/requires/0",
            "method:sum/ensures/0",
            "loop:sum:0/maintaining/0",
        ]

    def test_line_between_clauses_blames_the_nearest_above(self):
        assert [self.blamed(line) for line in (4, 6, 8, 14)] == [
            "method:sum/ensures/0",
            "method:sum/ensures/0",
            "loop:sum:0/maintaining/0",
            "loop:sum:0/maintaining/0",
        ]


def rec(anchor, phase, bindings, result=None, old=None):
    return TraceRecord(anchor=anchor, phase=phase, bindings=bindings, result=result, old=old)


def trace_for_abs(x, result):
    method = Anchor("abs")
    return [
        rec(method, Phase.PRE, {"x": x}),
        rec(method, Phase.POST, {"x": x}, result=result, old={"x": x}),
    ]


class TestTraceAdapter:
    def test_all_clauses_hold(self):
        verdict = TraceVerifier(trace_for_abs(2, 2)).verify(program())
        assert verdict.outcome is Outcome.PASS
        assert verdict.coverage_caveat

    def test_falsified_ensures(self):
        verdict = TraceVerifier(trace_for_abs(2, -1)).verify(program())
        assert verdict.outcome is Outcome.FAIL
        failure = verdict.failures[0]
        assert failure.category is FailureCategory.UNPROVABLE_POSTCONDITION
        assert failure.clause_id == "method:abs/ensures/0"
        assert "falsified" in failure.raw_message

    def test_falsified_requires(self):
        verdict = TraceVerifier(trace_for_abs(0, 0)).verify(program())
        assert verdict.failures[0].category is FailureCategory.UNPROVABLE_PRECONDITION

    def test_eval_error_reported_as_type_error(self):
        bad = extract_annotations(
            "class C {\n    //@ requires arr[9] > 0;\n    static int f(int x) { return x; }\n}\n"
        )
        traces = [rec(Anchor("f"), Phase.PRE, {"arr": [1]})]
        verdict = TraceVerifier(traces).verify(bad)
        assert verdict.failures[0].category is FailureCategory.TYPE_ERROR

    def test_failures_per_call_all_vs_one(self):
        verdict_all = TraceVerifier(trace_for_abs(0, -1), "all").verify(program())
        assert len(verdict_all.failures) == 2
        verdict_one = TraceVerifier(trace_for_abs(0, -1), "one").verify(program())
        assert len(verdict_one.failures) == 1

    def test_clause_without_matching_records_passes_with_caveat(self):
        verdict = TraceVerifier([]).verify(program())
        assert verdict.outcome is Outcome.PASS
        assert verdict.coverage_caveat


LOOP_SOURCE = """\
class Count {
    static int count(int n) {
        int i = 0;
        //@ maintaining 0 <= i && i <= n;
        //@ decreases n - i;
        while (i < n) {
            i = i + 1;
        }
        return i;
    }
}
"""


def loop_trace(values, n, method="count"):
    loop = Anchor(method, 0)
    records = [rec(Anchor(method), Phase.PRE, {"n": n})]
    records += [rec(loop, Phase.ITER, {"n": n, "i": i}) for i in values]
    records.append(rec(Anchor(method), Phase.POST, {"n": n, "i": values[-1] if values else 0}, result=n))
    return records


class TestDecreases:
    def test_strictly_decreasing_measure_passes(self):
        program = extract_annotations(LOOP_SOURCE)
        verdict = TraceVerifier(loop_trace([0, 1, 2], 3)).verify(program)
        assert verdict.outcome is Outcome.PASS

    def test_non_decreasing_measure_fails(self):
        program = extract_annotations(LOOP_SOURCE)
        verdict = TraceVerifier(loop_trace([0, 0, 1], 3), "all").verify(program)
        categories = {f.category for f in verdict.failures}
        assert FailureCategory.NONTERMINATION_DECREASES in categories

    def test_negative_measure_fails(self):
        program = extract_annotations(LOOP_SOURCE)
        verdict = TraceVerifier(loop_trace([5], 3), "all").verify(program)
        assert any(
            f.category is FailureCategory.NONTERMINATION_DECREASES
            and "negative" in f.raw_message
            for f in verdict.failures
        )

    def test_two_activations_reset_the_measure(self):
        program = extract_annotations(LOOP_SOURCE)
        records = loop_trace([0, 1, 2], 3) + loop_trace([0, 1], 2)
        verdict = TraceVerifier(records).verify(program)
        assert verdict.outcome is Outcome.PASS

    def test_non_integer_measure_is_type_error(self):
        source = LOOP_SOURCE.replace("decreases n - i;", "decreases flag;")
        program = extract_annotations(source)
        loop = Anchor("count", 0)
        records = [
            rec(Anchor("count"), Phase.PRE, {"n": 1}),
            rec(loop, Phase.ITER, {"n": 1, "i": 0, "flag": True}),
            rec(Anchor("count"), Phase.POST, {"n": 1}, result=1),
        ]
        verdict = TraceVerifier(records, "all").verify(program)
        assert any(f.category is FailureCategory.TYPE_ERROR for f in verdict.failures)


class TestMockVerifier:
    def test_truth_mode(self):
        clause = parse_clause("//@ requires a < b;", anchor=Anchor("f"), clause_id="c0")
        accepted = MockVerifier({"//@ requires a < b;"})
        verdict = accepted.verify(AnnotatedProgram("class X {}", (clause,)))
        assert verdict.outcome is Outcome.PASS
        rejected = MockVerifier(frozenset())
        verdict = rejected.verify(AnnotatedProgram("class X {}", (clause,)))
        assert verdict.outcome is Outcome.FAIL
        assert verdict.failures[0].clause_id == "c0"

    def test_failures_per_call(self):
        clauses = tuple(
            parse_clause(f"//@ requires a < {n};", anchor=Anchor("f"), clause_id=f"c{n}")
            for n in range(3)
        )
        program = AnnotatedProgram("class X {}", clauses)
        assert [f.clause_id for f in MockVerifier(()).verify(program).failures] == [
            "c0",
            "c1",
            "c2",
        ]
        one = MockVerifier((), failures_per_call="one").verify(program)
        assert [f.clause_id for f in one.failures] == ["c0"]

    def test_verify_keeps_no_per_call_state(self):
        # One mock serves a whole batch, so nothing may grow with its calls.
        clauses = (
            parse_clause("//@ requires a < b;", anchor=Anchor("f"), clause_id="c0"),
            parse_clause("//@ requires b < c;", anchor=Anchor("f"), clause_id="c1"),
        )
        verifier = MockVerifier({"//@ requires a < b;"})
        before = dict(vars(verifier))
        for i in range(10_000):
            verifier.verify(AnnotatedProgram("class X {}", clauses[: 1 + i % 2]))
        assert vars(verifier) == before


class TestScriptedVerifier:
    """The verdict-replay fake in conftest that the conversation, repair and
    acceptance tests drive."""

    def test_replays_and_exhausts(self):
        verifier = ScriptedVerifier([VerifierVerdict(Outcome.PASS)])
        assert verifier.verify(AnnotatedProgram("x", ())).outcome is Outcome.PASS
        with pytest.raises(ScriptExhausted):
            verifier.verify(AnnotatedProgram("x", ()))


class TestTraceVerifierObject:
    def test_wraps_record_list(self):
        verifier = TraceVerifier(trace_for_abs(2, 2))
        assert verifier.verify(program()).outcome is Outcome.PASS

    def test_traces_are_a_tuple(self):
        records = trace_for_abs(2, -1)
        verifier = TraceVerifier(records)
        records.clear()
        assert isinstance(verifier.traces, tuple)
        assert verifier.verify(program()).outcome is Outcome.FAIL


def renumbered(clauses, rng, prefix):
    """The same clauses in a shuffled order under fresh ids."""
    picked = rng.sample(clauses, rng.randrange(1, len(clauses) + 1))
    return tuple(
        dataclasses.replace(clause, id=f"{prefix}{number}") for number, clause in enumerate(picked)
    )


class TestIndexedVerifierMatchesLinearScan:
    """The indexed, memoized adapter against the linear-scan oracle."""

    @pytest.mark.parametrize("failures_per_call", ["one", "all"])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_traces_and_clauses(self, seed, failures_per_call):
        rng = random.Random(seed)
        traces, pool = gen_trace_case(rng)
        verifier = TraceVerifier(traces, failures_per_call)
        # Successive calls repeat clauses under other ids and in other orders,
        # so most of them are answered from the verdict memo.
        for call in range(4):
            program = AnnotatedProgram("", renumbered(pool, rng, f"call{call}/"))
            expected = oracle_verify_trace(program, traces, failures_per_call)
            assert verifier.verify(program) == expected

    def test_cases_cover_every_outcome(self):
        categories = set()
        for seed in range(40):
            traces, pool = gen_trace_case(random.Random(seed))
            verdict = oracle_verify_trace(AnnotatedProgram("", tuple(pool)), traces)
            categories |= {f.category for f in verdict.failures}
            categories |= {None} if len(verdict.failures) < len(pool) else set()
        assert categories >= {
            None,
            FailureCategory.TYPE_ERROR,
            FailureCategory.NONTERMINATION_DECREASES,
            FailureCategory.UNPROVABLE_PRECONDITION,
            FailureCategory.UNPROVABLE_POSTCONDITION,
            FailureCategory.UNPROVABLE_INVARIANT,
        }

    def test_eval_error_cites_the_original_record_index(self):
        source = LOOP_SOURCE.replace("decreases n - i;", "decreases n - k;")
        loop_program = extract_annotations(source)
        records = loop_trace([0, 1], 3) + loop_trace([0, 1, 2], 3)
        for record in records[:7]:  # record 7, the last iteration, leaves k unbound
            record.bindings["k"] = record.bindings.get("i", 0)
        expected = oracle_verify_trace(loop_program, records)
        verdict = TraceVerifier(records).verify(loop_program)
        assert verdict == expected
        assert "at trace record 7: " in verdict.failures[0].raw_message

    def test_pre_post_at_a_loop_anchor_is_not_a_boundary(self):
        loop_program = extract_annotations(LOOP_SOURCE)
        records = loop_trace([0, 0], 3)  # the measure repeats: 3 then 3
        records.insert(2, rec(Anchor("count", 0), Phase.POST, {"n": 3, "i": 0}))
        verdict = TraceVerifier(records).verify(loop_program)
        assert verdict == oracle_verify_trace(loop_program, records)
        assert "fails to strictly decrease (3 then 3) at trace record 3" in (
            verdict.failures[0].raw_message
        )

    def test_none_and_unknown_anchors_read_no_records(self):
        records = trace_for_abs(0, -1)
        clauses = tuple(
            parse_clause("//@ ensures \\result > 0;", anchor=anchor, clause_id=f"c{n}")
            for n, anchor in enumerate((None, Anchor("nope"), Anchor("abs", 0)))
        )
        verdict = TraceVerifier(records).verify(AnnotatedProgram("", clauses))
        assert verdict.outcome is Outcome.PASS

    def test_memo_hit_carries_the_callers_clause_id(self):
        verifier = TraceVerifier(trace_for_abs(2, -1))
        clause = program().clauses[1]
        for clause_id in ("first", "second"):
            renamed = AnnotatedProgram("", (dataclasses.replace(clause, id=clause_id),))
            assert [f.clause_id for f in verifier.verify(renamed).failures] == [clause_id]

    def test_second_verify_evaluates_nothing(self, monkeypatch):
        import specsmith.verifier

        calls = []

        def counting_eval(expr, record):
            calls.append(expr)
            return eval_expr(expr, record)

        monkeypatch.setattr(specsmith.verifier, "eval_expr", counting_eval)
        verifier = TraceVerifier(loop_trace([0, 1, 2], 3))
        loop_program = extract_annotations(LOOP_SOURCE)
        first = verifier.verify(loop_program)
        assert calls
        calls.clear()
        assert verifier.verify(loop_program) == first
        assert calls == []
