"""Acceptance gate: nine timed end-to-end criteria.

Each test pins one externally checkable property of the toolchain, with a
hard wall-clock limit. A per-criterion PASS/FAIL line is printed in the
terminal summary (see the hook in conftest.py).
"""
import json
import random
import sys
import time
from pathlib import Path

from conftest import (
    RandomizedVerifier,
    ScriptedVerifier,
    eval_outcome,
    gen_eval_case,
    gen_mutation_clause,
    oracle_eval,
    oracle_family,
    scale_weights,
    score_variant,
)

from specsmith.clauses import parse_clause
from specsmith.config import config_from_dict
from specsmith.conversation import (
    EndpointConfig,
    ScriptedChatClient,
    run_conversation,
)
from specsmith.evaluate import eval_expr
from specsmith.expr import render_expr
from specsmith.mutation import DEFAULT_WEIGHTS, enumerate_variants
from specsmith.parser import parse_expr
from specsmith.pipeline import run_batch, write_report
from specsmith.repair import HeuristicStrategy, RandomStrategy, mutation_based_gen
from specsmith.verifier import (
    FailureCategory,
    FailureReport,
    Outcome,
    VerifierVerdict,
)
from specsmith.clauses import Anchor, AnnotatedProgram, Clause, ClauseKind

FIXTURES = Path(__file__).parent / "fixtures"

# The strategy experiment lives next to the script that runs it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench import run_benchmark  # noqa: E402


def expression_of(text: str) -> str:
    """'//@ requires a <= b;' -> 'a <= b'."""
    return text.split(" ", 2)[2][:-1]


def scored_family(clause_text: str) -> set[tuple[str, int]]:
    family = enumerate_variants(parse_clause(clause_text))
    assert not family.truncated
    return {
        (expression_of(v.text), score_variant(v, DEFAULT_WEIGHTS))
        for v in family.variants
    }


# ---------------------------------------------------------------------------
# Criterion 1: the operator tables produce exactly the expected families,
# with the expected per-variant scores. Every entry below is hand-derived.
# ---------------------------------------------------------------------------

GOLDEN_FAMILIES = {
    # comparative: <= and >= have a swap plus a structural rewrite
    "//@ requires a <= b;": {("a <= b", 0), ("a < b", -1), ("a - 1 <= b", -1)},
    "//@ requires a >= b;": {("a >= b", 0), ("a > b", -1), ("a + 1 >= b", -1)},
    "//@ requires a < b;": {("a < b", 0), ("a <= b", -1)},
    "//@ requires a > b;": {("a > b", 0), ("a >= b", -1)},
    "//@ requires a == b;": {("a == b", 0), ("a != b", -1)},
    "//@ requires a != b;": {("a != b", 0), ("a == b", -1)},
    # logical: equivalence splits both ways, implications flip one way
    "//@ requires a && b;": {("a && b", 0), ("a || b", -2)},
    "//@ requires a || b;": {("a || b", 0), ("a && b", -2)},
    "//@ requires a <==> b;": {("a <==> b", 0), ("a <== b", -2), ("a ==> b", -2)},
    "//@ requires a ==> b;": {("a ==> b", 0), ("a <== b", -2)},
    "//@ requires a <== b;": {("a <== b", 0), ("a ==> b", -2)},
    # arithmetic: only + and - swap
    "//@ decreases n - i;": {("n - i", 0), ("n + i", -4)},
    "//@ decreases n + i;": {("n + i", 0), ("n - i", -4)},
    # structural rewrite wraps the whole composite side, and the introduced
    # literal is not itself a mutation site
    "//@ requires a + b <= c;": {
        ("a + b <= c", 0),
        ("a + b < c", -1),
        ("a + b - 1 <= c", -1),
        ("a - b <= c", -4),
        ("a - b < c", -5),
        ("a - b - 1 <= c", -5),
    },
    # quantifier swap composes with the sites inside range and body
    "//@ requires (\\forall int v; 0 <= v; v != x);": {
        ("(\\forall int v; 0 <= v; v != x)", 0),
        ("(\\forall int v; 0 <= v; v == x)", -1),
        ("(\\forall int v; 0 < v; v != x)", -1),
        ("(\\forall int v; 0 < v; v == x)", -2),
        ("(\\forall int v; 0 - 1 <= v; v != x)", -1),
        ("(\\forall int v; 0 - 1 <= v; v == x)", -2),
        ("(\\exists int v; 0 <= v; v != x)", -4),
        ("(\\exists int v; 0 <= v; v == x)", -5),
        ("(\\exists int v; 0 < v; v != x)", -5),
        ("(\\exists int v; 0 < v; v == x)", -6),
        ("(\\exists int v; 0 - 1 <= v; v != x)", -5),
        ("(\\exists int v; 0 - 1 <= v; v == x)", -6),
    },
}


def test_criterion_1_golden_mutation_families():
    started = time.monotonic()
    for clause_text, expected in GOLDEN_FAMILIES.items():
        assert scored_family(clause_text) == expected, clause_text
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: enumeration agrees with an independent brute-force
# combinator (own operator table, cartesian product over sites) on 500
# random clauses with up to four sites.
# ---------------------------------------------------------------------------


def test_criterion_2_family_enumeration_matches_brute_force():
    started = time.monotonic()
    rng = random.Random(92)
    for _ in range(500):
        expr = gen_mutation_clause(rng, max_sites=4)
        clause = parse_clause(f"//@ requires {render_expr(expr)};")
        family = enumerate_variants(clause)
        assert not family.truncated
        expected = oracle_family(expr)
        got = {
            expression_of(v.text): score_variant(v, DEFAULT_WEIGHTS)
            for v in family.variants
        }
        assert got == expected
        # texts are unique and listed best score first, ties by text
        texts = [v.text for v in family.variants]
        assert len(set(texts)) == len(texts) == len(family)
        keys = [(-score_variant(v, DEFAULT_WEIGHTS), v.text) for v in family.variants]
        assert keys == sorted(keys)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: the selection score is the weighted mutation count, and the
# ranking it induces is invariant under positive scaling of the weights.
# ---------------------------------------------------------------------------


def test_criterion_3_scoring_and_scale_invariance():
    started = time.monotonic()
    family = enumerate_variants(parse_clause("//@ requires a + b <= c && x > y;"))
    by_text = {
        expression_of(v.text): score_variant(v, DEFAULT_WEIGHTS)
        for v in family.variants
    }
    assert by_text["a + b <= c && x > y"] == 0  # template
    assert by_text["a + b < c && x > y"] == -1  # one comparative
    assert by_text["a - b <= c || x > y"] == -6  # arithmetic + logical

    rng = random.Random(17)
    for _ in range(100):
        expr = gen_mutation_clause(rng, max_sites=4)
        family = enumerate_variants(parse_clause(f"//@ requires {render_expr(expr)};"))
        base = {v.text: score_variant(v, DEFAULT_WEIGHTS) for v in family.variants}
        best = max(base.values())
        argmax = {text for text, score in base.items() if score == best}
        for factor in (2, 3, 10):
            scaled_weights = scale_weights(DEFAULT_WEIGHTS, factor)
            scaled = {v.text: score_variant(v, scaled_weights) for v in family.variants}
            scaled_best = max(scaled.values())
            assert scaled_best == best * factor
            assert {t for t, s in scaled.items() if s == scaled_best} == argmax
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# Criterion 4: against 1,000 randomized verifiers the loop stays within its
# call bound, never re-verifies a refuted variant, and always ends passing
# (possibly with the empty clause set).
# ---------------------------------------------------------------------------

REPAIR_SOURCE = (
    "class C {\n"
    "    static boolean check(int a, int b, int c, int n, int x, int y) {\n"
    "        return true;\n"
    "    }\n"
    "}\n"
)


def make_repair_program(*exprs: str) -> AnnotatedProgram:
    clauses = tuple(
        Clause(
            kind=ClauseKind.REQUIRES,
            expr=parse_expr(text),
            anchor=Anchor("check"),
            id=f"method:check/requires/{i}",
        )
        for i, text in enumerate(exprs)
    )
    return AnnotatedProgram(REPAIR_SOURCE, clauses)


def test_criterion_4_repair_loop_invariants():
    started = time.monotonic()
    for trial in range(1000):
        rng = random.Random(1000 + trial)
        exprs = [
            render_expr(gen_mutation_clause(rng, max_sites=2))
            for _ in range(rng.randrange(1, 4))
        ]
        program = make_repair_program(*exprs)
        family_total = sum(
            len(enumerate_variants(clause, cap=64)) for clause in program.clauses
        )
        verifier = RandomizedVerifier(rng)
        strategy = (
            HeuristicStrategy() if trial % 2 == 0 else RandomStrategy(seed=trial)
        )
        result = mutation_based_gen(program, verifier, strategy, cap=64)
        state = result.state

        # Only a pass ends a non-empty selection; an empty one ends exhausted.
        assert result.outcome == ("verified" if verifier.calls[-1] else "exhausted")
        assert state.verifier_calls == len(verifier.calls)
        assert state.verifier_calls <= 1 + family_total

        # Refutations are unique and each names a variant from its own call.
        seen: set[tuple[str, str]] = set()
        by_iteration: dict[int, set[tuple[str, str]]] = {}
        for event in state.refuted_history:
            pair = (event.clause_id, event.text)
            assert pair not in seen
            seen.add(pair)
            by_iteration.setdefault(event.iteration, set()).add(pair)
        cumulative: set[tuple[str, str]] = set()
        for call_number, call_pairs in enumerate(verifier.calls, start=1):
            assert not (set(call_pairs) & cumulative)  # no refuted revisit
            refuted_now = by_iteration.get(call_number, set())
            assert refuted_now <= set(call_pairs)
            cumulative |= refuted_now
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 5: on seeded planted-truth families, weighted selection needs at
# least 5% fewer verifier calls on average than uniform random selection.
# ---------------------------------------------------------------------------


def test_criterion_5_heuristic_beats_random():
    started = time.monotonic()
    result = run_benchmark(trials=200, seed=20260816)
    assert len(result.trials) == 200
    assert result.heuristic_mean <= result.random_mean
    assert result.relative_reduction >= 0.05
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# Criterion 6: the conversation stops at exactly the round limit, and every
# feedback prompt quotes exactly the first failure of the previous round.
# ---------------------------------------------------------------------------

C6_PROGRAM = """\
class Abs {
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""

C6_ANNOTATED = """\
class Abs {
    //@ requires x > -1000;
    //@ ensures \\result >= 0;
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""


def test_criterion_6_conversation_exhaustion_and_feedback():
    started = time.monotonic()
    responses = [f"```java\n{C6_ANNOTATED}```\n"] * 10
    verdicts = [
        VerifierVerdict(
            Outcome.FAIL,
            failures=(
                FailureReport(f"marker-round-{k}", FailureCategory.UNPROVABLE_POSTCONDITION),
                FailureReport(f"decoy-round-{k}", FailureCategory.TYPE_ERROR),
            ),
        )
        for k in range(1, 11)
    ]
    client = ScriptedChatClient(responses)
    verifier = ScriptedVerifier(verdicts)
    cfg = EndpointConfig(shot_count=0, max_rounds=10)
    transcript = run_conversation(C6_PROGRAM, cfg, verifier, client)

    assert transcript.outcome == "exhausted"
    assert len(transcript.rounds) == 10  # exactly the round limit
    assert transcript.verifier_calls == 10
    assert len(client.calls) == 10

    for k in range(2, 11):
        feedback = client.calls[k - 1][-1]["content"]
        assert feedback == transcript.rounds[k - 1].prompt
        # exactly one failure per feedback: the first one of round k-1,
        # quoted verbatim; the second failure never surfaces
        assert feedback.count("Failure:") == 1
        assert f"Failure: marker-round-{k - 1}" in feedback
        assert "decoy-round-" not in feedback
        quoted = [m for m in range(1, 11) if f"marker-round-{m}" in feedback]
        assert quoted == [k - 1]
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# Criterion 7: the recorded two-sum session reproduces the hand-simulated
# run entry exactly: ten failing rounds, then a two-call repair that flips
# the planted != back to ==.
# ---------------------------------------------------------------------------


def twosum_config():
    return config_from_dict(
        {
            "endpoint": {
                "mode": "scripted",
                "script": str(FIXTURES / "twosum_responses.json"),
                "shot_count": 0,
            },
            "verifier": {
                "adapter": "trace",
                "trace_file": str(FIXTURES / "twosum_trace.jsonl"),
            },
            "report": {"deterministic_clock": True},
        }
    )


TWOSUM_EXPECTED_ENTRY = {
    "schema": "run-entry@1",
    "program": "TwoSum",
    "attempt": 0,
    "outcome": "verified-by-mutation",
    "rounds_used": 10,
    "verifier_calls_conversation": 10,
    "verifier_calls_repair": 2,
    "refuted_history": [
        [
            1,
            "method:twoSum/ensures/1",
            "//@ ensures nums[\\result[0]] + nums[\\result[1]] != target;",
        ]
    ],
    "final_clauses": [
        "//@ requires nums != null;",
        "//@ ensures \\result.length == 2;",
        "//@ ensures nums[\\result[0]] + nums[\\result[1]] == target;",
        "//@ maintaining 0 <= i && i <= n;",
        "//@ maintaining (\\forall int a; 0 <= a && a < i; "
        "(\\forall int b; a + 1 <= b && b < n; nums[a] + nums[b] != target));",
        "//@ decreases n - i;",
        "//@ maintaining i + 1 <= j && j <= n;",
    ],
    "dropped_templates": [],
    # the nested two-quantifier invariant enumerates past the variant cap
    "truncated_families": ["loop:twoSum:0/maintaining/1"],
    "thrash_warnings": [],
    "error": "",
    "wall_time": 0.0,
    "coverage_caveat": True,
}


def test_criterion_7_twosum_end_to_end():
    started = time.monotonic()
    program = (FIXTURES / "TwoSum.java").read_text(encoding="utf-8")
    entries, summary = run_batch([("TwoSum", program)], twosum_config())
    assert len(entries) == 1
    assert entries[0] == TWOSUM_EXPECTED_ENTRY
    assert entries[0]["verifier_calls_repair"] == 2  # the headline number
    assert summary["number_of_passes"] == 1
    assert summary["success_probability"] == {"TwoSum": 1.0}
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# Criterion 8: on 300 random (clause, trace record) pairs the evaluator
# agrees with an independent interpreter, on values and on error classes.
# ---------------------------------------------------------------------------


def test_criterion_8_evaluator_matches_brute_force():
    started = time.monotonic()
    rng = random.Random(4242)
    for _ in range(300):
        expr, record = gen_eval_case(rng)
        got = eval_outcome(eval_expr, expr, record)
        expected = eval_outcome(oracle_eval, expr, record)
        assert got == expected, render_expr(expr)
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 9: two identical fixture-driven batch runs serialize to
# byte-identical report files.
# ---------------------------------------------------------------------------


def test_criterion_9_deterministic_reports(tmp_path):
    started = time.monotonic()
    program = (FIXTURES / "TwoSum.java").read_text(encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        entries, summary = run_batch(
            [("TwoSum", program)], twosum_config(), attempts=2
        )
        entries_path, summary_path = write_report(
            str(tmp_path / name), entries, summary
        )
        outputs.append((entries_path.read_bytes(), summary_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    # and the files say what happened
    summary = json.loads(outputs[0][1])
    assert summary["schema"] == "run-summary@1"
    assert summary["attempts"] == {"TwoSum": 2}
    assert summary["variant_dedup"] is True
    assert time.monotonic() - started < 30.0
