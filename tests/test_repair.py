"""The verify-and-replace loop: refutation, replacement, drop-out, bounds."""
import dataclasses
import random

import pytest
from conftest import (
    RandomizedVerifier,
    RecordingVerifier,
    RescanRandomStrategy,
    ScriptedVerifier,
    gen_mutation_clause,
    oracle_spec_selection,
    rebuilt_selection,
    scale_weights,
    score_variant,
    select_by_heuristic,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from specsmith.clauses import (
    Anchor,
    AnnotatedProgram,
    Clause,
    ClauseKind,
    extract_annotations,
    parse_clause,
)
from specsmith.errors import ClauseSyntaxError, SpecError, UnknownClause
from specsmith import clauses, repair
from specsmith.evaluate import Phase, TraceRecord
from specsmith.mutation import (
    DEFAULT_WEIGHTS,
    Family,
    MutationKind,
    WeightTable,
    enumerate_variants,
)
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
from specsmith.schemata import render_expr
from specsmith.verifier import (
    FailureCategory,
    FailureReport,
    MockVerifier,
    Outcome,
    TraceVerifier,
    VerifierVerdict,
)

ANCHOR = Anchor("check")
SOURCE = "class C {\n    static boolean check(int a, int b, int c, int d, int n) {\n        return true;\n    }\n}\n"


def make_program(*clause_texts: str) -> AnnotatedProgram:
    clauses = tuple(
        parse_clause(f"requires {text};", ANCHOR, f"method:check/requires/{i}")
        for i, text in enumerate(clause_texts)
    )
    return AnnotatedProgram(SOURCE, clauses)


def truth_verifier(program: AnnotatedProgram, *accepted_exprs: str) -> MockVerifier:
    accepted = set()
    for i, text in enumerate(accepted_exprs):
        accepted.add(parse_clause(f"{program.clauses[i].kind.value} {text};").text)
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
        assert [c.text for c in result.program.clauses] == [
            "//@ requires a != b;"
        ]
        assert result.program.clauses[0].id == "method:check/requires/0"


class TestMultiClauseRepair:
    def test_only_failing_family_advances(self):
        program = make_program("a < b", "c == d")
        verifier = truth_verifier(program, "a < b", "c != d")
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls == 2
        assert [c.text for c in result.program.clauses] == [
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

    def test_timeout_and_crash_refute_nothing(self):
        # A timeout or crash blames no clause: repair stops with the
        # templates unrefuted and never reaches the scripted pass.
        program = make_program("a == b", "c < d")
        for verdict, detail in [
            (VerifierVerdict(Outcome.TIMEOUT, detail="command exceeded 5s"),
             "verifier timeout (command exceeded 5s)"),
            (VerifierVerdict(Outcome.CRASH), "verifier crash"),
        ]:
            verifier = ScriptedVerifier([verdict, VerifierVerdict(Outcome.PASS)])
            result = mutation_based_gen(program, verifier, HeuristicStrategy())
            assert (result.outcome, result.detail) == ("no-verdict", detail)
            assert result.state.verifier_calls == 1
            assert result.state.refuted_history == []
            assert result.program.clauses == program.clauses


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
        silent = [
            VerifierVerdict(Outcome.TIMEOUT, detail="verifier timed out"),
            VerifierVerdict(Outcome.CRASH, detail="verifier crashed"),
        ]
        unattributable = [
            VerifierVerdict(Outcome.FAIL, (FailureReport("cannot tell", FailureCategory.UNKNOWN),)),
            VerifierVerdict(
                Outcome.FAIL,
                (FailureReport("elsewhere", FailureCategory.UNKNOWN, "method:ghost/requires/9"),),
            ),
        ]

        class Blurred:
            """The truth-set mock, except that a quarter of its calls answer
            with a failure that names no selected clause, and one in twenty
            with a timeout or crash."""

            def __init__(self, truth, rng):
                self.mock = MockVerifier(truth=truth)
                self.rng = rng
                self.calls = []  # (selected (id, text) pairs, verdict or None if the mock's)

            def verify(self, program):
                shown = {(c.id, c.text) for c in program.clauses}
                roll = self.rng.random()
                verdict = None
                if roll < 0.05:
                    verdict = self.rng.choice(silent)
                elif roll < 0.30:
                    verdict = self.rng.choice(unattributable)
                self.calls.append((shown, verdict))
                return self.mock.verify(program) if verdict is None else verdict

        rng = random.Random(1996)
        fallbacks = no_verdicts = 0
        for _ in range(300):
            program, cap, _, truth, strategy = self.generated(rng)
            verifier = Blurred(truth, rng)
            result = mutation_based_gen(program, verifier, strategy, cap=cap)
            refuted = {}
            for event in result.state.refuted_history:
                refuted.setdefault(event.iteration, []).append((event.clause_id, event.text))
            assert len(verifier.calls) == result.state.verifier_calls
            for call, (shown, verdict) in enumerate(verifier.calls, start=1):
                pairs = refuted.get(call, [])
                assert len(pairs) == len(set(pairs))
                if not shown:
                    assert pairs == []
                elif verdict is None:
                    assert set(pairs) == {(cid, text) for cid, text in shown if text not in truth}
                elif verdict.outcome is Outcome.FAIL:
                    assert set(pairs) == shown
                    fallbacks += 1
                else:  # a timeout or crash refutes nothing and ends the repair
                    assert pairs == [] and call == len(verifier.calls)
                    assert result.outcome == "no-verdict"
                    no_verdicts += 1
            if result.outcome == "no-verdict":
                assert verifier.calls[-1][1] in silent
        assert fallbacks > 100 and no_verdicts > 50


class TestStateMechanics:
    def test_init_state_selects_templates(self):
        program = make_program("a <= b", "c < d")
        state = init_state(spec_mutation(program.clauses))
        assert [c.text for c in state.selected_clauses()] == [
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
            spec_mutation([clause, dataclasses.replace(clause, text="//@ requires b <= c;")])

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


def seen(variant):
    """What a reader sees of a member, in any build of its family."""
    return None if variant is None else (variant.text, variant.score)


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
                assert seen(HeuristicStrategy().pick(slot)) == seen(select_by_heuristic(live, weights))

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
                # The variant just refuted, a member of another build of the family.
                live.remove(next(v for v in live if v.text == slot.selected.text))
                got = HeuristicStrategy().pick(slot)
                assert seen(got) == seen(select_by_heuristic(live, self.weights))
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

    def test_a_pick_reads_one_member_in_steady_state(self, monkeypatch):
        # Refuting every member in family order: the first pick reads the
        # refuted template and the member after it, each later pick reads
        # only the next member, and the last one reads past the end.
        reads = []
        get = Family.get
        monkeypatch.setattr(Family, "get", lambda family, index: reads.append(index) or get(family, index))
        program = make_program("a + b <= c && c + d <= n")
        result = mutation_based_gen(program, MockVerifier(truth=frozenset()), HeuristicStrategy())
        picks = len(result.state.refuted_history)
        assert result.outcome == "exhausted" and picks == len(enumerate_variants(program.clauses[0]))
        assert reads == list(range(picks + 1))

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

        program = make_program("a + b <= c", "c < d && a >= b")
        verifier = truth_verifier(program, "a - b < c", "c <= d || a + 1 >= b")
        monkeypatch.setattr(clauses, "parse_clause_line", fail)
        result = mutation_based_gen(program, verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls > 10


class TestTooDeepMember:
    """A member whose text nests past the parser's limit is refuted as a
    syntax error by the trace adapter, and repair moves on.

    The template's 100 conjuncts nest exactly 100 levels deep; shifting the
    left operand of either of the two deepest comparisons by one adds a
    level. Only x2 exceeds its bound, so the first member that parses and
    weakens x2 <= y2 verifies.
    """

    LINE = "//@ requires " + " && ".join(f"x{i} <= y{i}" for i in range(100)) + ";"
    SOURCE = f"class Deep {{\n    {LINE}\n    static boolean check() {{\n        return true;\n    }}\n}}\n"

    def setup_method(self):
        self.program = extract_annotations(self.SOURCE)
        bindings = {f"{name}{i}": 0 for name in "xy" for i in range(100)} | {"x2": 1}
        self.verifier = TraceVerifier([TraceRecord(Anchor("check"), Phase.PRE, bindings)])

    def test_verdict_names_the_template_as_a_syntax_error(self):
        template = self.program.clauses[0]
        member = enumerate_variants(template).get(1)
        assert member.text.startswith("//@ requires x0 - 1 <= y0 && x1 <= y1")
        for _ in range(2):  # the second verdict comes from the memo
            verdict = self.verifier.verify(AnnotatedProgram(self.program.source, (member.clause,)))
            assert verdict.outcome is Outcome.FAIL
            [failure] = verdict.failures
            assert failure.clause_id == template.id == "method:check/requires/0"
            assert failure.category is FailureCategory.SYNTAX_ERROR
            assert failure.raw_message.endswith("does not parse: clause nests deeper than 100 levels")

    def test_member_compares_hashes_and_prints_without_parsing(self):
        template = self.program.clauses[0]
        member = enumerate_variants(template).get(1).clause
        same = Clause(member.kind, member.text, member.anchor, member.id)
        assert member == member and member == same and member != template
        assert hash(member) == hash(same)
        assert len({member, same, template}) == 2
        assert repr(member) == (
            f"Clause(kind=<ClauseKind.REQUIRES: 'requires'>, text={member.text!r}, "
            "anchor=Anchor(method='check', loop=None), id='method:check/requires/0')"
        )
        with pytest.raises(ClauseSyntaxError):
            member.expr

    def test_repair_refutes_it_and_verifies(self):
        result = mutation_based_gen(self.program, self.verifier, HeuristicStrategy())
        assert result.outcome == "verified" and result.state.verifier_calls == 6
        refuted = [event.text for event in result.state.refuted_history]
        assert [text[13:31] for text in refuted] == [
            "x0 <= y0 && x1 <= ",
            "x0 - 1 <= y0 && x1",
            "x0 < y0 && x1 <= y",
            "x0 <= y0 && x1 - 1",
            "x0 <= y0 && x1 < y",
        ]
        [clause] = result.program.clauses
        assert "x2 - 1 <= y2" in clause.text and clause.text.count(" - 1 ") == 1


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

    def test_picks_match_a_rescan_of_the_family(self):
        """The kept list of unrefuted members draws what a fresh listing
        would, pick for pick, whether a member is refuted by the loop, added
        to the refuted set by hand, or picked again unrefuted."""
        rng = random.Random(1103)
        picks = outside = 0
        for _ in range(200):
            clause = make_program(render_expr(gen_mutation_clause(rng, max_sites=5))).clauses[0]
            cap, seed = rng.choice((2, 8, 64, 4096)), rng.randrange(1000)
            slots = [FamilySlot(enumerate_variants(clause, cap=cap), selected=None) for _ in range(2)]
            members = slots[0].family.variants
            strategies = (RandomStrategy(seed), RescanRandomStrategy(seed))
            for slot in slots:
                slot.selected = slot.family.template_variant
            while slots[0].selected is not None:
                roll = rng.random()
                extra = rng.choice(members).text if roll < 0.2 else None
                for slot in slots:
                    if roll >= 0.05:  # else the selection is picked again unrefuted
                        slot.refuted.add(slot.selected.text)
                    if extra is not None:  # a refutation made outside re_select
                        slot.refuted.add(extra)
                kept, rescan = (strategy.pick(slot) for strategy, slot in zip(strategies, slots))
                assert seen(kept) == seen(rescan)
                for slot, variant in zip(slots, (kept, rescan)):
                    slot.selected = variant
                picks += 1
                outside += extra is not None
        assert picks > 1000 and outside > 100

    def test_an_exhausted_family_draws_as_a_rescan_does(self):
        program = make_program("a + b <= c && c + d <= n && a - 1 >= d && b < a")
        results = [
            mutation_based_gen(program, MockVerifier(truth=frozenset()), strategy)
            for strategy in (RandomStrategy(11), RescanRandomStrategy(11))
        ]
        kept, rescan = (result.state for result in results)
        size = len(enumerate_variants(program.clauses[0]))
        assert size == 3456 and kept.verifier_calls == rescan.verifier_calls == 1 + size
        assert kept.refuted_history == rescan.refuted_history


class StaleBlame:
    """:class:`~conftest.RandomizedVerifier`'s verdicts, now and then with a
    timeout, or with a failure first that blames a template whose slot is not
    selected (a stale id) or no clause at all; with ``one``, only the first
    failure is reported."""

    def __init__(self, seed, template_ids, one):
        self.inner = RandomizedVerifier(random.Random(seed))
        self.rng = random.Random(-seed)
        self.template_ids = template_ids
        self.one = one
        self.calls = []

    def verify(self, program):
        self.calls.append(program)
        verdict = self.inner.verify(program)
        roll = self.rng.random()
        if roll < 0.03:
            return VerifierVerdict(Outcome.TIMEOUT, detail="slow")
        if verdict.outcome is Outcome.PASS:
            return verdict
        failures = list(verdict.failures)
        stale = [tid for tid in self.template_ids if tid not in {c.id for c in program.clauses}]
        if roll < 0.15 and stale:
            failures.insert(0, FailureReport("stale", FailureCategory.UNKNOWN, self.rng.choice(stale)))
        elif roll < 0.25:
            failures.insert(0, FailureReport("nowhere", FailureCategory.UNKNOWN))
        return VerifierVerdict(Outcome.FAIL, tuple(failures[:1] if self.one else failures))


class TestKeptSelection:
    """The loop keeps its selection and changes only the refuted slots; the
    oracle (``conftest.oracle_spec_selection``) rebuilds it from the slots on
    every iteration, with a random strategy that rescans the family. Both
    make the same calls and refutations, and end the same way."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), random_strategy=st.booleans(), one=st.booleans())
    def test_the_kept_loop_matches_the_rebuilding_oracle(self, seed, random_strategy, one):
        rng = random.Random(seed)
        program = make_program(
            *(render_expr(gen_mutation_clause(rng, max_sites=4)) for _ in range(rng.randrange(1, 5)))
        )
        cap = rng.choice((2, 8, 4096))
        ids = [clause.id for clause in program.clauses]
        kept_verifier, oracle_verifier = StaleBlame(seed, ids, one), StaleBlame(seed, ids, one)
        if random_strategy:
            strategies = RandomStrategy(seed), RescanRandomStrategy(seed)
        else:
            strategies = HeuristicStrategy(), HeuristicStrategy()
        kept = mutation_based_gen(program, kept_verifier, strategies[0], cap=cap)
        state = init_state(spec_mutation(program.clauses, cap=cap))
        oracle = oracle_spec_selection(state, program.source, oracle_verifier, strategies[1])
        assert (kept.outcome, kept.detail) == (oracle.outcome, oracle.detail)
        assert kept.state.verifier_calls == oracle.state.verifier_calls
        assert kept.state.refuted_history == oracle.state.refuted_history
        assert kept.state.thrash_warnings == oracle.state.thrash_warnings
        assert [tid for tid, slot in kept.state.slots.items() if slot.selected is None] == [
            tid for tid, slot in oracle.state.slots.items() if slot.selected is None
        ]
        assert kept.program == oracle.program
        assert kept_verifier.calls == oracle_verifier.calls
        assert kept.state.selected_clauses() == rebuilt_selection(kept.state)

    def test_one_re_select_per_refuting_iteration(self, monkeypatch):
        """``spec_selection`` and ``re_select`` are looked up in the module
        on every call, so a wrapper set there sees every call. Each refuting
        iteration makes one ``re_select`` call with a list of ids, whose
        slots hold their replacements when it returns."""
        calls = []
        real_selection, real_re_select = repair.spec_selection, repair.re_select

        def counting_selection(*args, **kwargs):
            calls.append("spec_selection")
            return real_selection(*args, **kwargs)

        def counting_re_select(state, refuted_ids, strategy, iteration):
            assert type(refuted_ids) is list
            real_re_select(state, refuted_ids, strategy, iteration)
            replacements = [state.slots[cid].selected for cid in refuted_ids]
            calls.append((iteration, len(replacements)))

        monkeypatch.setattr(repair, "spec_selection", counting_selection)
        monkeypatch.setattr(repair, "re_select", counting_re_select)
        program = make_program("a <= b", "c == d && a < n")
        for strategy in (HeuristicStrategy(), RandomStrategy(2)):
            calls.clear()
            result = mutation_based_gen(program, truth_verifier(program, "a < b", "c != d && a < n"), strategy)
            assert result.outcome == "verified"
            history = result.state.refuted_history
            iterations = range(1, result.state.verifier_calls)
            assert calls == ["spec_selection"] + [
                (i, sum(event.iteration == i for event in history)) for i in iterations
            ]
