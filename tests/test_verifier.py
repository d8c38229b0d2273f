"""Verdicts, failure classification, and the three verifier adapters."""
import random
import shlex
import sys
import textwrap
import time
from pathlib import Path

import pytest

from specsmith import clauses as clauses_module
from specsmith import verifier as verifier_module
from specsmith.clauses import (
    Anchor,
    AnnotatedProgram,
    extract_annotations,
    instrument_with_lines,
    parse_clause,
    program_anchors,
)
from specsmith.errors import AnchorNotFound, CommandNotFound, ConfigError, ExtractionError, ScriptExhausted
from specsmith.evaluate import Phase, TraceRecord, eval_expr
from specsmith.tracefile import load_trace_file
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

from conftest import ScriptedVerifier, gen_trace_case, nested_quantifier_clause, oracle_verify_trace, record_fields

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

    def test_replace_keeps_the_checks(self):
        failure = FailureReport("boom", FailureCategory.UNKNOWN)
        with pytest.raises(ValueError):
            VerifierVerdict(Outcome.FAIL, (failure,)).replace(outcome=Outcome.PASS)
        with pytest.raises(ValueError):
            VerifierVerdict(Outcome.CRASH).replace(outcome=Outcome.FAIL)


class TestValueTypes:
    """Reports and verdicts are frozen values: they compare, hash and print
    by their fields, however they were made, and refuse assignment."""

    def test_reports_compare_hash_and_print_by_value(self):
        made = [
            FailureReport("no", FailureCategory.UNKNOWN, "c0", 7),
            FailureReport(raw_message="no", category=FailureCategory.UNKNOWN, clause_id="c0", source_line=7),
            FailureReport("yes", FailureCategory.UNKNOWN).replace(raw_message="no", clause_id="c0", source_line=7),
        ]
        for report in made:
            assert report == made[0] and hash(report) == hash(("no", FailureCategory.UNKNOWN, "c0", 7))
            assert repr(report) == (
                "FailureReport(raw_message='no', category=<FailureCategory.UNKNOWN: 'unknown'>, "
                "clause_id='c0', source_line=7)"
            )
        bare = FailureReport("no", FailureCategory.UNKNOWN)
        assert (bare.clause_id, bare.source_line) == (None, None) and bare != made[0]
        assert record_fields(bare) == ("no", FailureCategory.UNKNOWN, None, None)

    def test_verdicts_compare_hash_and_print_by_value(self):
        failures = (FailureReport("no", FailureCategory.TYPE_ERROR, "c0"),)
        verdict = VerifierVerdict(Outcome.FAIL, failures, coverage_caveat=True)
        same = VerifierVerdict(outcome=Outcome.FAIL, failures=failures, detail="", coverage_caveat=True)
        assert verdict == same and hash(verdict) == hash((Outcome.FAIL, failures, "", True))
        assert verdict != VerifierVerdict(Outcome.FAIL, failures)
        assert repr(VerifierVerdict(Outcome.TIMEOUT, detail="slow")) == (
            "VerifierVerdict(outcome=<Outcome.TIMEOUT: 'timeout'>, failures=(), detail='slow', coverage_caveat=False)"
        )

    def test_assignment_is_refused(self):
        report = FailureReport("no", FailureCategory.UNKNOWN, "c0")
        verdict = VerifierVerdict(Outcome.FAIL, (report,))
        for value in (report, verdict):
            for name in value._fields:
                with pytest.raises(AttributeError, match="cannot assign"):
                    setattr(value, name, None)
                with pytest.raises(AttributeError, match="cannot delete"):
                    delattr(value, name)
        assert verdict.failures == (report,) and report.clause_id == "c0"


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


OVERLOADS = (Path(__file__).parent / "fixtures" / "Overloads.java").read_text(encoding="utf-8")


class TestExecAdapter:
    def test_same_name_methods_fail_before_the_command_runs(self, tmp_path):
        ran = tmp_path / "ran"
        verifier = ExecVerifier(f"touch {ran} {{file}}")
        with pytest.raises(AnchorNotFound, match="anchor method:f names 2 lines"):
            verifier.verify(extract_annotations(OVERLOADS))
        assert not ran.exists()

    def test_trace_raises_and_mock_accepts_same_name_methods(self, monkeypatch):
        program = extract_annotations(OVERLOADS)
        truth = frozenset(c.text for c in program.clauses)
        assert MockVerifier(truth=truth).verify(program).outcome is Outcome.PASS
        # Records name a method only, so they cannot tell the two apart.
        scans = []
        real = clauses_module._scan_anchors

        def scan(text):
            scans.append(text)
            return real(text)

        program_anchors.cache_clear()
        monkeypatch.setattr(clauses_module, "_scan_anchors", scan)
        verifier = TraceVerifier([rec(Anchor("f"), Phase.PRE, {"x": 1, "y": 2})])
        for clauses in (program.clauses, program.clauses[1:], program.clauses):
            with pytest.raises(AnchorNotFound, match="^anchor method:f names 2 lines in the program source$"):
                verifier.verify(AnnotatedProgram(program.source, clauses))
        assert scans == [program.source]  # once per distinct program text
        single = extract_annotations(OVERLOADS.replace("f(int x, int y)", "g(int x, int y)"))
        assert verifier.verify(AnnotatedProgram(single.source, single.clauses[:1])).outcome is Outcome.PASS

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

    def test_a_command_that_cannot_be_started(self, tmp_path):
        stub = make_stub(tmp_path, "check.py", "print('never runs')\n")
        Path(stub).chmod(0o644)
        with pytest.raises(CommandNotFound, match=f"cannot be started: {stub}: Permission denied"):
            ExecVerifier(f"{stub} {{file}}").verify(program())

    def test_command_without_placeholder_rejected(self):
        # Checked when the adapter is built, before any program is written.
        with pytest.raises(ConfigError, match=r"needs a \{file\} placeholder"):
            ExecVerifier("javac")

    def test_command_that_does_not_split_rejected(self):
        # An unbalanced quote: refused when the adapter is built, too.
        with pytest.raises(ConfigError, match="does not split into arguments: No closing quotation"):
            ExecVerifier('true "{file}')

    def test_command_is_split_once(self, tmp_path, monkeypatch):
        stub = make_stub(tmp_path, "quiet.py", "pass\n")
        verifier = ExecVerifier(f"'{stub}' {{file}}")

        def fail(*args):
            raise AssertionError("split the command again")

        monkeypatch.setattr(shlex, "split", fail)  # the module ExecVerifier imports when it is made
        for _ in range(3):
            assert verifier.verify(program()).outcome is Outcome.PASS

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


    def test_the_first_failing_record_is_cited(self):
        # Record 2's measure is negative before record 3's divides by zero.
        program = extract_annotations(LOOP_SOURCE.replace("n - i;", "d + 0 * (1 / d);"))
        loop = Anchor("count", 0)
        records = [rec(Anchor("count"), Phase.PRE, {"n": 1})]
        records += [rec(loop, Phase.ITER, {"n": 1, "i": 0, "d": d}) for d in (1, -1, 0)]
        records.append(rec(Anchor("count"), Phase.POST, {"n": 1}, result=1))
        verdict = TraceVerifier(records).verify(program)
        assert verdict == oracle_verify_trace(program, records)
        assert [(f.category, f.raw_message) for f in verdict.failures] == [
            (
                FailureCategory.NONTERMINATION_DECREASES,
                "decreases d + 0 * (1 / d) is negative (-1) at trace record 2",
            )
        ]


FIXTURES = Path(__file__).parent / "fixtures"
TWOSUM = (FIXTURES / "TwoSum.java").read_text(encoding="utf-8")
TWOSUM_OUTER = "        for (int i"
TWOSUM_INNER = "            for (int j"


def twosum_with(line: str, loop_head: str) -> str:
    """TwoSum with ``line`` above the loop whose head starts ``loop_head``."""
    indent = loop_head[: len(loop_head) - len(loop_head.lstrip())]
    return TWOSUM.replace(loop_head, f"{indent}{line}\n{loop_head}", 1)


class TestNestedDecreases:
    """TwoSum's inner loop is entered once per outer iteration: each entry
    starts a fresh activation, so a measure may rise between them."""

    @pytest.mark.parametrize(
        "line, loop_head, failure",
        [
            ("//@ decreases n - j;", TWOSUM_INNER, None),
            ("//@ decreases j;", TWOSUM_INNER, "j fails to strictly decrease (1 then 2) at trace record 3"),
            ("//@ decreases n - i;", TWOSUM_OUTER, None),
            ("//@ decreases i;", TWOSUM_OUTER, "i fails to strictly decrease (0 then 1) at trace record 5"),
        ],
    )
    def test_fixture_trace(self, line, loop_head, failure):
        program = extract_annotations(twosum_with(line, loop_head))
        traces = load_trace_file(str(FIXTURES / "twosum_trace.jsonl"))
        verdict = TraceVerifier(traces).verify(program)
        assert verdict == oracle_verify_trace(program, traces)
        if failure is None:
            assert verdict.outcome is Outcome.PASS
        else:
            assert [f.raw_message for f in verdict.failures] == [f"decreases {failure}"]

    def test_random_nested_runs_match_the_oracle(self):
        rng = random.Random(2002)
        outer, inner = Anchor("twoSum", 0), Anchor("twoSum", 1)
        inner_passes = 0
        for _ in range(200):
            n = rng.randrange(0, 6)
            records = [rec(Anchor("twoSum"), Phase.PRE, {"n": n})]
            for i in range(n):
                records.append(rec(outer, Phase.ITER, {"n": n, "i": i}))
                for j in range(i + 1, n):
                    step = j if rng.random() < 0.95 else j - 1  # sometimes no progress
                    records.append(rec(inner, Phase.ITER, {"n": n, "i": i, "j": step}))
            records.append(rec(Anchor("twoSum"), Phase.POST, {"n": n}, result=None))
            measure = rng.choice(("n - j", "j", "n - i", "i", "n - i - j", "j - i - 1"))
            loop_head = rng.choice((TWOSUM_OUTER, TWOSUM_INNER))
            program = extract_annotations(twosum_with(f"//@ decreases {measure};", loop_head))
            verdict = TraceVerifier(records).verify(program)
            assert verdict == oracle_verify_trace(program, records)
            if verdict.outcome is Outcome.PASS and program.clauses[0].anchor == inner:
                inner_passes += 1
        assert inner_passes > 20


class TestEvaluationBudget:
    """Nested quantifiers share one budget per evaluation, so a clause that
    would walk 10^12 elements fails at once as a type-error."""

    @pytest.mark.parametrize("width, passes", [(100, True), (1_000_000, False)])
    def test_nested_quantifiers_above_twosum(self, width, passes):
        program = extract_annotations(twosum_with(nested_quantifier_clause(width), "    static"))
        traces = load_trace_file(str(FIXTURES / "twosum_trace.jsonl"))
        verdict = TraceVerifier(traces).verify(program)
        assert verdict == oracle_verify_trace(program, traces)
        if passes:
            assert verdict.outcome is Outcome.PASS
        else:
            [failure] = verdict.failures
            assert failure.category is FailureCategory.TYPE_ERROR
            assert failure.raw_message.endswith(
                "at trace record 0: quantifier domain [0, 999999] takes the evaluation "
                "past its budget of 1000000 elements"
            )


class TestPlacement:
    """A clause whose kind does not fit its anchor fails the trace check as a
    syntax error that quotes extraction's message for the same line."""

    TWOSUM_HEADER = "    static int[] twoSum"

    @pytest.mark.parametrize(
        "line, anchor, line_head",
        [
            ("//@ requires false;", Anchor("twoSum", 0), TWOSUM_OUTER),
            ("//@ ensures false;", Anchor("twoSum", 1), TWOSUM_INNER),
            ("//@ maintaining false;", Anchor("twoSum"), TWOSUM_HEADER),
            ("//@ decreases 0 - 1;", Anchor("twoSum"), TWOSUM_HEADER),
        ],
    )
    def test_misplaced_clause_is_a_syntax_error(self, line, anchor, line_head):
        with pytest.raises(ExtractionError) as caught:
            extract_annotations(twosum_with(line, line_head))
        [(_, message)] = caught.value.issues
        traces = load_trace_file(str(FIXTURES / "twosum_trace.jsonl"))
        verifier = TraceVerifier(traces)
        program = AnnotatedProgram(TWOSUM, (parse_clause(line, anchor, "x"),))
        expected = FailureReport(
            f"{line[4:-1]} at {anchor.key()}: {message}", FailureCategory.SYNTAX_ERROR, clause_id="x"
        )
        for _ in range(2):  # checked, then read from the memo
            verdict = verifier.verify(program)
            assert verdict.failures == (expected,)
            assert verdict == oracle_verify_trace(program, traces)

    def test_fitting_kinds_are_checked_against_the_records(self):
        traces = load_trace_file(str(FIXTURES / "twosum_trace.jsonl"))
        clauses = (
            parse_clause("//@ requires false;", Anchor("twoSum"), "pre"),
            parse_clause("//@ maintaining false;", Anchor("twoSum", 0), "inv"),
        )
        verdict = TraceVerifier(traces).verify(AnnotatedProgram(TWOSUM, clauses))
        assert [(f.clause_id, f.category) for f in verdict.failures] == [
            ("pre", FailureCategory.UNPROVABLE_PRECONDITION),
            ("inv", FailureCategory.UNPROVABLE_INVARIANT),
        ]


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

    def test_one_pass_reports_what_filtering_every_clause_would(self):
        rng = random.Random(515)
        lines = [f"//@ requires a < {n};" for n in range(6)]
        for _ in range(200):
            chosen = rng.sample(range(6), rng.randrange(0, 6))
            program = AnnotatedProgram(
                "class X {}", tuple(parse_clause(lines[n], Anchor("f"), f"c{n}") for n in chosen)
            )
            truth = frozenset(rng.sample(lines, rng.randrange(0, 6)))
            rejected = [c for c in program.clauses if c.text not in truth]
            for per_call in ("one", "all"):
                verdict = MockVerifier(truth, failures_per_call=per_call).verify(program)
                expected = rejected[:1] if per_call == "one" else rejected
                assert verdict.outcome is (Outcome.FAIL if rejected else Outcome.PASS)
                assert verdict.failures == tuple(
                    FailureReport(f"clause not in the accepted set: {c.text}", FailureCategory.UNKNOWN, c.id)
                    for c in expected
                )

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
        clause.replace(id=f"{prefix}{number}") for number, clause in enumerate(picked)
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
            FailureCategory.SYNTAX_ERROR,  # a misplaced clause
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
        # Each clause's kind fits its anchor, so only the records could refute it.
        placed = (
            ("//@ ensures \\result > 0;", None),
            ("//@ ensures \\result > 0;", Anchor("nope")),
            ("//@ maintaining false;", Anchor("abs", 0)),
        )
        clauses = tuple(
            parse_clause(line, anchor=anchor, clause_id=f"c{n}") for n, (line, anchor) in enumerate(placed)
        )
        verdict = TraceVerifier(records).verify(AnnotatedProgram("", clauses))
        assert verdict.outcome is Outcome.PASS

    def test_memo_hit_carries_the_callers_clause_id(self):
        verifier = TraceVerifier(trace_for_abs(2, -1))
        clause = program().clauses[1]
        for clause_id in ("first", "second"):
            renamed = AnnotatedProgram("", (clause.replace(id=clause_id),))
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

    def test_a_memo_hit_hashes_no_anchor(self, monkeypatch):
        verifier = TraceVerifier(loop_trace([0, 1, 2], 3))
        loop_program = extract_annotations(LOOP_SOURCE)
        first = verifier.verify(loop_program)
        hashed = []
        real_hash = Anchor.__hash__

        def counting_hash(anchor):
            hashed.append(anchor)
            return real_hash(anchor)

        monkeypatch.setattr(Anchor, "__hash__", counting_hash)
        assert verifier.verify(loop_program) == first
        assert hashed == []
