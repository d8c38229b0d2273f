"""The verify-and-replace loop: refutation, replacement, drop-out, bounds."""
import dataclasses
import random

import pytest
from conftest import (
    RandomizedVerifier,
    RecordingVerifier,
    ScriptedVerifier,
    gen_mutation_clause,
    scale_weights,
    score_variant,
    select_by_heuristic,
)

from specsmith.clauses import Anchor, AnnotatedProgram, Clause, ClauseKind, parse_clause, render_clause
from specsmith.errors import SpecError, UnknownClause
from specsmith import schemata
from specsmith.expr import render_expr
from specsmith.mutation import (
    DEFAULT_WEIGHTS,
    MutationKind,
    WeightTable,
    enumerate_variants,
)
from specsmith.parser import parse_expr
from specsmith.repair import (
    FamilySlot,
    HeuristicStrategy,
    RandomStrategy,
    init_state,
    mutation_based_gen,
    re_select,
    spec_mutation,
    spec_selection,
)
from specsmith.verifier import (
    FailureCategory,
    FailureReport,
    MockVerifier,
    Outcome,
    VerifierVerdict,
)

ANCHOR = Anchor("check")
SOURCE = "class C {\n    static boolean check(int a, int b, int c, int d, int n) {\n        return true;\n    }\n}\n"


def make_program(*clause_texts: str) -> AnnotatedProgram:
    clauses = tuple(
        Clause(
            kind=ClauseKind.REQUIRES,
            expr=parse_expr(text),
            anchor=ANCHOR,
            id=f"method:check/requires/{i}",
        )
        for i, text in enumerate(clause_texts)
    )
    return AnnotatedProgram(SOURCE, clauses)


def truth_verifier(program: AnnotatedProgram, *accepted_exprs: str) -> MockVerifier:
    accepted = set()
    for i, text in enumerate(accepted_exprs):
        clause = dataclasses.replace(program.clauses[i], expr=parse_expr(text))
        accepted.add(render_clause(clause))
    return MockVerifier(truth=frozenset(accepted))


class TestSingleClauseRepair:
    def test_correct_template_passes_first_call(self):
        program = make_program("a < b")
        verifier = truth_verifier(program, "a < b")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls == 1
        assert result.state.refuted_history == []

    def test_tie_break_order_costs_one_extra_call(self):
        # Family of "a <= b": after the template fails, the -1 tie between
        # "a - 1 <= b" and "a < b" resolves by text, so the dash variant is
        # tried (and refuted) before the correct strict comparison.
        program = make_program("a <= b")
        verifier = truth_verifier(program, "a < b")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified"
        assert result.state.verifier_calls == 3
        assert [event.text for event in result.state.refuted_history] == [
            "//@ requires a <= b;",
            "//@ requires a - 1 <= b;",
        ]

    def test_refutations_record_iteration_numbers(self):
        program = make_program("a <= b")
        verifier = truth_verifier(program, "a < b")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert [event.iteration for event in result.state.refuted_history] == [1, 2]

    def test_final_program_carries_repaired_clause(self):
        program = make_program("a == b")
        verifier = truth_verifier(program, "a != b")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert [render_clause(c) for c in result.program.clauses] == [
            "//@ requires a != b;"
        ]
        assert result.program.clauses[0].id == "method:check/requires/0"


class TestMultiClauseRepair:
    def test_only_failing_family_advances(self):
        program = make_program("a < b", "c == d")
        verifier = truth_verifier(program, "a < b", "c != d")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls == 2
        assert [render_clause(c) for c in result.program.clauses] == [
            "//@ requires a < b;",
            "//@ requires c != d;",
        ]

    def test_multiple_failures_advance_together(self):
        program = make_program("a == b", "c == d")
        verifier = truth_verifier(program, "a != b", "c != d")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        # One call refutes both templates, the second accepts both swaps.
        assert result.outcome == "verified" and result.state.verifier_calls == 2


class TestExhaustionAndDrop:
    def test_exhausted_family_dropped(self):
        program = make_program("a == b")  # family: ==, != only
        verifier = MockVerifier(truth=frozenset())  # nothing is acceptable
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        # Calls: template fail, swap fail, then empty selection verified once.
        assert result.state.verifier_calls == 3
        assert result.program.clauses == ()
        assert result.outcome == "exhausted"  # nothing is claimed any more
        assert result.state.slots["method:check/requires/0"].selected is None

    def test_call_bound_never_exceeded(self):
        program = make_program("a == b", "c < d")
        families = spec_mutation(program.clauses)
        bound = 1 + sum(len(f) for f in families.values())
        verifier = MockVerifier(truth=frozenset())
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.state.verifier_calls <= bound

    def test_empty_template_set_verifies_once(self):
        program = AnnotatedProgram(SOURCE, ())
        verifier = MockVerifier(truth=frozenset())
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.state.verifier_calls == 1
        assert result.outcome == "exhausted"


class TestUnattributableFailures:
    def test_bogus_clause_id_refutes_all_selected(self):
        program = make_program("a == b")
        verdicts = [
            VerifierVerdict(
                Outcome.FAIL,
                (
                    FailureReport(
                        raw_message="cannot tell",
                        category=FailureCategory.UNKNOWN,
                        clause_id="method:other/requires/9",
                    ),
                ),
            ),
            VerifierVerdict(Outcome.PASS),
        ]
        verifier = ScriptedVerifier(verdicts)
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls == 2
        assert [e.clause_id for e in result.state.refuted_history] == [
            "method:check/requires/0"
        ]

    def test_timeout_refutes_all_selected(self):
        program = make_program("a == b")
        verdicts = [
            VerifierVerdict(Outcome.TIMEOUT, detail="verifier timed out"),
            VerifierVerdict(Outcome.PASS),
        ]
        verifier = ScriptedVerifier(verdicts)
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls == 2
        assert len(result.state.refuted_history) == 1


class TestHoudiniFallback:
    """Houdini's rule (Flanagan & Leino, FME 2001) on generated programs: an
    attributed failure refutes only the clauses it names, and a failure no
    selected clause can be blamed for refutes the whole selection."""

    @staticmethod
    def generated(rng):
        program = make_program(
            *(render_expr(gen_mutation_clause(rng, max_sites=4)) for _ in range(rng.randrange(1, 5)))
        )
        cap = rng.choice((4, 16, 4096))
        members = {c.id: enumerate_variants(c, cap=cap).variants for c in program.clauses}
        truth = frozenset(
            v.text
            for family in members.values()
            for v in rng.sample(family, min(rng.randrange(3), len(family)))
        )
        strategy = rng.choice((HeuristicStrategy(), RandomStrategy(rng.randrange(100))))
        return program, cap, members, truth, strategy

    def test_attributed_failures_never_refute_a_true_clause(self):
        rng = random.Random(2001)
        outcomes = {True: 0, False: 0}  # dropped slots, kept slots
        for _ in range(300):
            program, cap, members, truth, strategy = self.generated(rng)
            result = mutation_based_gen(program, MockVerifier(truth=truth), strategy, cap=cap)
            kept = any(v.text in truth for family in members.values() for v in family)
            assert result.outcome == ("verified" if kept else "exhausted")
            assert not {event.text for event in result.state.refuted_history} & truth
            for tid, slot in result.state.slots.items():
                reachable = any(v.text in truth for v in members[tid])
                dropped = slot.selected is None
                assert dropped == (not reachable)
                assert dropped or slot.selected.text in truth
                outcomes[dropped] += 1
        assert min(outcomes.values()) > 100

    def test_unattributable_failure_refutes_exactly_the_selection(self):
        unattributable = [
            VerifierVerdict(Outcome.TIMEOUT, detail="verifier timed out"),
            VerifierVerdict(Outcome.CRASH, detail="verifier crashed"),
            VerifierVerdict(Outcome.FAIL, (FailureReport("cannot tell", FailureCategory.UNKNOWN),)),
            VerifierVerdict(
                Outcome.FAIL,
                (FailureReport("elsewhere", FailureCategory.UNKNOWN, "method:ghost/requires/9"),),
            ),
        ]

        class Blurred:
            """The truth-set mock, except that a quarter of its calls
            answer with a verdict that names no selected clause."""

            def __init__(self, truth, rng):
                self.mock = MockVerifier(truth=truth)
                self.rng = rng
                self.calls = []  # (selected (id, text) pairs, attributable)

            def verify(self, program):
                shown = {(c.id, c.text) for c in program.clauses}
                attributable = self.rng.random() >= 0.25
                self.calls.append((shown, attributable))
                if attributable:
                    return self.mock.verify(program)
                return self.rng.choice(unattributable)

        rng = random.Random(1996)
        fallbacks = 0
        for _ in range(300):
            program, cap, _, truth, strategy = self.generated(rng)
            verifier = Blurred(truth, rng)
            result = mutation_based_gen(program, verifier, strategy, cap=cap)
            refuted = {}
            for event in result.state.refuted_history:
                refuted.setdefault(event.iteration, []).append((event.clause_id, event.text))
            assert len(verifier.calls) == result.state.verifier_calls
            for call, (shown, attributable) in enumerate(verifier.calls, start=1):
                pairs = refuted.get(call, [])
                assert len(pairs) == len(set(pairs))
                if not shown:
                    assert pairs == []
                elif attributable:
                    assert set(pairs) == {(cid, text) for cid, text in shown if text not in truth}
                else:
                    assert set(pairs) == shown
                    fallbacks += 1
        assert fallbacks > 100


class TestStateMechanics:
    def test_init_state_selects_templates(self):
        program = make_program("a <= b", "c < d")
        state = init_state(spec_mutation(program.clauses))
        assert [render_clause(c) for c in state.selected_clauses()] == [
            "//@ requires a <= b;",
            "//@ requires c < d;",
        ]

    def test_selected_clauses_preserve_ids_and_anchors(self):
        program = make_program("a <= b")
        state = init_state(spec_mutation(program.clauses))
        clause = state.selected_clauses()[0]
        assert clause.id == "method:check/requires/0"
        assert clause.anchor == ANCHOR
        assert clause.kind is ClauseKind.REQUIRES

    def test_re_select_unknown_id(self):
        program = make_program("a <= b")
        state = init_state(spec_mutation(program.clauses))
        with pytest.raises(UnknownClause):
            re_select(state, ["method:check/ensures/0"], HeuristicStrategy(), iteration=1)

    def test_id_less_templates_are_rejected(self):
        # Both used to land in one family keyed "unanchored/requires/0".
        templates = [parse_clause("requires a < b;"), parse_clause("requires b < c;")]
        with pytest.raises(SpecError, match="'//@ requires a < b;' has an empty clause id"):
            spec_mutation(templates)

    def test_id_less_template_fails_before_any_verifier_call(self):
        # Used to raise UnknownClause at the first refutation.
        program = AnnotatedProgram(SOURCE, (parse_clause("requires a < b;"),))
        verifier = RecordingVerifier(MockVerifier(truth=frozenset()))
        with pytest.raises(SpecError, match="empty clause id") as info:
            mutation_based_gen(program, verifier, HeuristicStrategy())
        assert not isinstance(info.value, UnknownClause)
        assert verifier.calls == []

    def test_repeated_ids_are_rejected(self):
        clause = make_program("a <= b").clauses[0]
        with pytest.raises(SpecError, match="'method:check/requires/0' is repeated"):
            spec_mutation([clause, dataclasses.replace(clause, expr=parse_expr("b <= c"))])

    def test_kind_filter_threads_through(self):
        program = make_program("a + 1 <= b")
        families = spec_mutation(program.clauses, kinds={MutationKind.ARITHMETIC})
        texts = {v.text for v in families["method:check/requires/0"].variants}
        assert texts == {"//@ requires a + 1 <= b;", "//@ requires a - 1 <= b;"}


class TestThrashWarning:
    def test_warning_fires_once_after_half_family(self):
        # Family of "a + b <= c" has 6 variants; more than 3 replacements on
        # the same slot must warn exactly once.
        program = make_program("a + b <= c")
        verifier = MockVerifier(truth=frozenset())
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        warnings = [w for w in result.state.thrash_warnings]
        assert len(warnings) == 1
        assert "method:check/requires/0" in warnings[0]

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            # Truncated at 11 members; the 10 built before the firing
            # refutation end on a score-level boundary.
            ({"cap": 11}, (6, 10, 11)),
            # Positive weight: the template is the last member, refuted long
            # before the cursor reaches it; only the best level of 4 is built.
            (
                {"kinds": {MutationKind.COMPARATIVE}, "weights": WeightTable(comparative=1)},
                (5, 4, 9),
            ),
        ],
    )
    def test_warning_on_partly_built_family(self, kwargs, expected):
        program = make_program("a <= b && c >= d")
        state = init_state(spec_mutation(program.clauses, **kwargs))
        slot = state.slots["method:check/requires/0"]
        built_before = []
        while not state.thrash_warnings:
            built_before.append(len(slot.family._built))
            re_select(state, [slot.family.template.id], HeuristicStrategy(), len(built_before))
        fired_at, built, size = expected
        assert (len(slot.refuted), built_before[-1], len(slot.family)) == expected
        assert state.thrash_warnings == [
            f"template method:check/requires/0 replaced {fired_at} times "
            f"(family size {size}); verifier attribution may be thrashing"
        ]


def level_prefix(members, weights, count):
    """Members in the fewest whole score levels that hold ``count`` of them."""
    if count <= 0:
        return 0
    scores = [score_variant(v, weights) for v in members]
    for end in range(count, len(members)):
        if scores[end] != scores[end - 1]:
            return end
    return len(members)


class TestLazySelection:
    WEIGHTS = [DEFAULT_WEIGHTS, scale_weights(DEFAULT_WEIGHTS, 3), WeightTable(comparative=1), WeightTable(logical=0)]

    def test_pick_is_oracle_argmax_in_any_refutation_order(self):
        rng = random.Random(31)
        for _ in range(150):
            clause = make_program(render_expr(gen_mutation_clause(rng, max_sites=4))).clauses[0]
            weights, cap = rng.choice(self.WEIGHTS), rng.choice((2, 8, 64))
            live = list(enumerate_variants(clause, cap=cap, weights=weights).variants)
            slot = FamilySlot(enumerate_variants(clause, cap=cap, weights=weights), selected=None)
            order = live[:]
            rng.shuffle(order)
            for variant in order:
                live.remove(variant)
                slot.refuted.add(variant.text)
                assert HeuristicStrategy().pick(slot) == select_by_heuristic(live, weights)

    def test_repair_picks_match_oracle_over_live_list(self):
        class Checked:
            """The heuristic, checked on every pick against the argmax over
            the live list: the eager family minus each refuted variant."""

            def __init__(self, families, weights):
                self.live = {tid: list(f.variants) for tid, f in families.items()}
                self.weights = weights
                self.picks = 0

            def pick(self, slot):
                live = self.live[slot.family.template.id]
                live.remove(slot.selected)  # the variant just refuted
                got = HeuristicStrategy().pick(slot)
                assert got == select_by_heuristic(live, self.weights)
                self.picks += 1
                return got

        rng = random.Random(4000)
        picks = 0
        for _ in range(300):
            program = make_program(
                *(render_expr(gen_mutation_clause(rng, max_sites=2)) for _ in range(rng.randrange(1, 4)))
            )
            weights, cap = rng.choice(self.WEIGHTS), rng.choice((2, 8, 64))
            strategy = Checked(spec_mutation(program.clauses, cap=cap, weights=weights), weights)
            verifier = RandomizedVerifier(rng)
            result = mutation_based_gen(program, verifier, strategy, cap=cap, weights=weights)
            # Only a pass ends a non-empty selection; an empty one ends exhausted.
            assert result.outcome == ("verified" if verifier.calls[-1] else "exhausted")
            picks += strategy.picks
        assert picks > 300

    def test_repair_builds_only_the_levels_it_reads(self):
        # k picks read at most index k, so at most k + 1 members; the thrash
        # check reads no member. Levels are built whole.
        rng = random.Random(77)
        built_total = eager_total = 0
        for _ in range(200):
            program = make_program(
                *(render_expr(gen_mutation_clause(rng, max_sites=5)) for _ in range(rng.randrange(1, 4)))
            )
            cap = rng.choice((8, 64, 4096))
            eager = {c.id: enumerate_variants(c, cap=cap).variants for c in program.clauses}
            truth = frozenset(
                rng.choice(members).text for members in eager.values() if rng.random() < 0.8
            )
            result = mutation_based_gen(program, MockVerifier(truth=truth), HeuristicStrategy(), cap=cap)
            for tid, slot in result.state.slots.items():
                bound = level_prefix(eager[tid], DEFAULT_WEIGHTS, len(slot.refuted) + 1)
                assert len(slot.family._built) <= bound
                built_total += len(slot.family._built)
                eager_total += len(eager[tid])
        assert built_total < eager_total

    def test_mock_repair_builds_no_variant_tree(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a variant tree was built")

        monkeypatch.setattr(schemata, "_apply_combination", fail)
        program = make_program("a + b <= c", "c < d && a >= b")
        verifier = truth_verifier(program, "a - b < c", "c <= d || a + 1 >= b")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls > 10


class TestBudget:
    def test_budget_exceeded_returns_the_state(self):
        program = make_program("a == b")

        class SlowVerifier:
            def verify(self, _program):
                import time

                time.sleep(0.05)
                return VerifierVerdict(
                    Outcome.FAIL,
                    (
                        FailureReport(
                            raw_message="no",
                            category=FailureCategory.UNKNOWN,
                            clause_id=_program.clauses[0].id if _program.clauses else None,
                        ),
                    ),
                )

        result = mutation_based_gen(
            program, SlowVerifier(), HeuristicStrategy(), budget_seconds=0.01
        )
        # The state made before the budget ran out comes back with the ending.
        assert result.outcome == "out-of-budget"
        state = result.state
        assert state.verifier_calls == 1
        assert [event.text for event in state.refuted_history] == ["//@ requires a == b;"]


class TestRandomStrategy:
    def test_same_seed_same_trajectory(self):
        calls = []
        for _ in range(2):
            program = make_program("a + b <= c")
            verifier = truth_verifier(program, "a - b < c")
            result = mutation_based_gen(program, verifier, RandomStrategy(5))
            calls.append(result.state.verifier_calls)
            assert result.outcome == "verified"
        assert calls[0] == calls[1]

    def test_different_seeds_can_differ(self):
        counts = set()
        for seed in range(12):
            program = make_program("a + b <= c")
            verifier = truth_verifier(program, "a - b < c")
            result = mutation_based_gen(program, verifier, RandomStrategy(seed))
            counts.add(result.state.verifier_calls)
        assert len(counts) > 1
