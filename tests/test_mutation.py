"""Operator mutation families: sites, rewrites, scoring, enumeration order."""
import dataclasses
import heapq
import itertools
import random
from types import SimpleNamespace

import pytest
from conftest import (
    gen_mutation_clause,
    oracle_family,
    scale_weights,
    score_variant,
    select_by_heuristic,
    visited_set_family,
)

from specsmith import mutation, schemata
from specsmith.clauses import parse_clause, render_clause
from specsmith.expr import render_expr
from specsmith.mutation import (
    ALL_KINDS,
    DEFAULT_WEIGHTS,
    MutationKind,
    WeightTable,
    enumerate_sites,
    enumerate_variants,
)
from specsmith.parser import parse_expr
from specsmith.repair import FamilySlot, HeuristicStrategy, RandomStrategy


def texts(clause_text, **kwargs):
    family = enumerate_variants(parse_clause(clause_text), **kwargs)
    return {v.text for v in family.variants}


def refuted_template_slot(family):
    """A repair slot whose template has just been refuted."""
    return FamilySlot(family=family, selected=None, refuted={family.template_variant.text})


def body(text):
    """Strip the annotation wrapper for readable expected sets."""
    assert text.startswith("//@ requires ") or text.startswith("//@ decreases ")
    return text.split(" ", 2)[2].rstrip(";")


class TestSites:
    def test_all_operator_kinds_found(self):
        expr = parse_expr("(\\forall int k; 0 <= k && k < n; a[k] + 1 > 0)")
        kinds = sorted(s.kind.value for s in enumerate_sites(expr))
        assert kinds == [
            "arithmetic",
            "comparative",
            "comparative",
            "comparative",
            "logical",
            "predicative",
        ]

    def test_multiplicative_operators_are_not_sites(self):
        assert enumerate_sites(parse_expr("a * b")) == []
        assert enumerate_sites(parse_expr("a / b")) == []
        assert enumerate_sites(parse_expr("a % b")) == []

    def test_unary_negation_is_not_a_site(self):
        assert enumerate_sites(parse_expr("-x")) == []
        assert enumerate_sites(parse_expr("!x")) == []

    def test_sites_are_preorder_paths(self):
        sites = enumerate_sites(parse_expr("a + b <= c && d < e"))
        assert [(s.path, s.original_op) for s in sites] == [
            ((), "&&"),
            ((0,), "<="),
            ((0, 0), "+"),
            ((1,), "<"),
        ]


class TestGoldenFamilies:
    @pytest.mark.parametrize(
        "clause, expected",
        [
            ("//@ requires a <= b;", {"a <= b", "a < b", "a - 1 <= b"}),
            ("//@ requires a >= b;", {"a >= b", "a > b", "a + 1 >= b"}),
            ("//@ requires a < b;", {"a < b", "a <= b"}),
            ("//@ requires a > b;", {"a > b", "a >= b"}),
            ("//@ requires a == b;", {"a == b", "a != b"}),
            ("//@ requires a != b;", {"a != b", "a == b"}),
            ("//@ requires a && b;", {"a && b", "a || b"}),
            ("//@ requires a || b;", {"a || b", "a && b"}),
            ("//@ requires a <==> b;", {"a <==> b", "a <== b", "a ==> b"}),
            ("//@ requires a ==> b;", {"a ==> b", "a <== b"}),
            ("//@ requires a <== b;", {"a <== b", "a ==> b"}),
            ("//@ decreases n - i;", {"n - i", "n + i"}),
        ],
    )
    def test_single_site_families(self, clause, expected):
        family = enumerate_variants(parse_clause(clause))
        assert {body(v.text) for v in family.variants} == expected
        assert not family.truncated

    def test_structural_rewrite_wraps_composite_side(self):
        got = {body(t) for t in texts("//@ requires a + b <= c;")}
        assert got == {
            "a + b <= c",
            "a - b <= c",
            "a + b < c",
            "a - b < c",
            "a + b - 1 <= c",
            "a - b - 1 <= c",
        }

    def test_introduced_literal_not_mutable(self):
        got = {body(t) for t in texts("//@ requires a <= b;")}
        assert "a + 1 <= b" not in got  # the wrapped "- 1" stays fixed

    def test_quantifier_swap(self):
        got = texts(
            "//@ requires (\\forall int k; 0 <= k && k < n; a[k] > 0);",
            kinds={MutationKind.PREDICATIVE},
        )
        assert got == {
            "//@ requires (\\forall int k; 0 <= k && k < n; a[k] > 0);",
            "//@ requires (\\exists int k; 0 <= k && k < n; a[k] > 0);",
        }

    def test_sites_inside_old_are_mutable(self):
        got = {body(t) for t in texts("//@ requires \\old(x + y) > 0;")}
        assert got == {
            "\\old(x + y) > 0",
            "\\old(x - y) > 0",
            "\\old(x + y) >= 0",
            "\\old(x - y) >= 0",
        }

    def test_kind_filtering(self):
        got = {body(t) for t in texts(
            "//@ requires a + 1 <= b && b < n;", kinds={MutationKind.ARITHMETIC}
        )}
        assert got == {"a + 1 <= b && b < n", "a - 1 <= b && b < n"}

    def test_zero_site_template(self):
        family = enumerate_variants(parse_clause("//@ requires x;"))
        assert [v.text for v in family.variants] == ["//@ requires x;"]
        assert family.raw_count == 1 and not family.truncated


class TestScoring:
    def test_zero_for_template(self):
        family = enumerate_variants(parse_clause("//@ requires a <= b;"))
        template = next(v for v in family.variants if not any(dict(v.counts).values()))
        assert score_variant(template, DEFAULT_WEIGHTS) == 0

    def test_default_weights(self):
        assert DEFAULT_WEIGHTS[MutationKind.COMPARATIVE] == -1
        assert DEFAULT_WEIGHTS[MutationKind.LOGICAL] == -2
        assert DEFAULT_WEIGHTS[MutationKind.ARITHMETIC] == -4
        assert DEFAULT_WEIGHTS[MutationKind.PREDICATIVE] == -4

    def test_score_sums_kind_counts(self):
        family = enumerate_variants(parse_clause("//@ requires a + b <= c;"))
        by_text = {body(v.text): v for v in family.variants}
        assert score_variant(by_text["a - b < c"], DEFAULT_WEIGHTS) == -5
        assert score_variant(by_text["a + b < c"], DEFAULT_WEIGHTS) == -1
        assert score_variant(by_text["a - b <= c"], DEFAULT_WEIGHTS) == -4

    def test_counts_recorded_per_kind(self):
        family = enumerate_variants(parse_clause("//@ requires a + b <= c;"))
        variant = next(v for v in family.variants if body(v.text) == "a - b < c")
        assert dict(variant.counts)[MutationKind.ARITHMETIC] == 1
        assert dict(variant.counts)[MutationKind.COMPARATIVE] == 1
        assert sum(dict(variant.counts).values()) == 2

    def test_scaled_weights_keep_argmax(self):
        clause = parse_clause("//@ requires a + 1 <= b && b < n;")
        family = enumerate_variants(clause)
        candidates = [v for v in family.variants if v is not family.template_variant]
        best = select_by_heuristic(candidates, DEFAULT_WEIGHTS)
        assert best == select_by_heuristic(candidates, scale_weights(DEFAULT_WEIGHTS, 7))
        scaled = enumerate_variants(clause, weights=scale_weights(DEFAULT_WEIGHTS, 7))
        assert HeuristicStrategy().pick(refuted_template_slot(scaled)) == best


class TestEnumerationOrder:
    def test_sorted_by_score_then_text(self):
        family = enumerate_variants(parse_clause("//@ requires a <= b;"))
        listed = [(score_variant(v, DEFAULT_WEIGHTS), body(v.text)) for v in family.variants]
        assert listed == [(0, "a <= b"), (-1, "a - 1 <= b"), (-1, "a < b")]

    def test_tie_break_prefers_dash_over_angle(self):
        family = enumerate_variants(parse_clause("//@ requires a <= b;"))
        pick = select_by_heuristic(
            [v for v in family.variants if v is not family.template_variant], DEFAULT_WEIGHTS
        )
        assert body(pick.text) == "a - 1 <= b"
        fresh = enumerate_variants(parse_clause("//@ requires a <= b;"))
        assert HeuristicStrategy().pick(refuted_template_slot(fresh)) == pick

    def test_cap_truncates_best_first(self):
        clause = parse_clause("//@ requires a <= b && c >= d;")
        family = enumerate_variants(clause, cap=3)
        assert family.truncated and len(family.variants) == 3
        assert [body(v.text) for v in family.variants] == [
            "a <= b && c >= d",
            "a - 1 <= b && c >= d",
            "a < b && c >= d",
        ]

    def test_cap_one_keeps_template(self):
        family = enumerate_variants(parse_clause("//@ requires a <= b;"), cap=1)
        assert [body(v.text) for v in family.variants] == ["a <= b"]
        assert family.truncated

    def test_uncapped_family_not_truncated(self):
        family = enumerate_variants(parse_clause("//@ requires a <= b && c >= d;"))
        assert not family.truncated
        assert family.raw_count == 18
        assert len(family.variants) == 18

    def test_every_variant_text_parses_back(self):
        clause = parse_clause("//@ requires i + 1 <= j && j < n;")
        family = enumerate_variants(clause)
        for variant in family.variants:
            reparsed = parse_clause(variant.text)
            assert reparsed.expr == variant.expr


def oracle_members(expr, cap, weights=DEFAULT_WEIGHTS):
    """The oracle's family: member texts in family order, and the flag."""
    scores = oracle_family(expr, {kind.value: weights[kind] for kind in MutationKind})
    order = lambda text: (-scores[text], text)  # noqa: E731
    members = sorted(scores, key=order)[:cap]
    template = render_expr(expr)
    if template not in members:  # it evicts the worst member
        members = sorted(members[:-1] + [template], key=order)
    return [f"//@ requires {text};" for text in members], len(scores) > cap


WIDE_CLAUSE = "//@ requires a + b + c + d + e + f + g + h + i + j + k + l + m <= n;"  # 12288 raw


class TestStream:
    """A family read partway and then in full is exactly the eager family."""

    def check(self, rng, clause, cap, weights=DEFAULT_WEIGHTS, **kwargs):
        eager = enumerate_variants(clause, cap=cap, weights=weights, **kwargs)
        members, truncated = list(eager.variants), eager.truncated
        lazy = enumerate_variants(clause, cap=cap, weights=weights, **kwargs)
        # Size and flag are read before any member is built.
        assert (len(lazy), lazy.truncated) == (len(members), truncated)
        k = rng.randrange(0, len(members) + 2)
        assert [lazy.get(i) for i in range(k)] == (members + [None, None])[:k]
        assert lazy.variants == members
        assert lazy.template_variant in members
        return eager

    @pytest.mark.parametrize("cap", [1, 8, 64, 4096])
    def test_partial_reads_match_eager_and_oracle(self, cap):
        rng = random.Random(cap)
        for _ in range(60):
            expr = gen_mutation_clause(rng, max_sites=5)
            eager = self.check(rng, parse_clause(f"//@ requires {render_expr(expr)};"), cap)
            assert ([v.text for v in eager.variants], eager.truncated) == oracle_members(expr, cap)

    def test_truncated_clause(self):
        clause = parse_clause(WIDE_CLAUSE)
        eager = self.check(random.Random(1), clause, 4096)
        assert eager.truncated and eager.raw_count == 12288
        assert ([v.text for v in eager.variants], True) == oracle_members(clause.expr, 4096)

    def test_unflagged_family_builds_nothing_for_its_flag(self):
        family = enumerate_variants(parse_clause("//@ requires a <= b && c >= d;"))
        assert not family.truncated and family._built == []
        assert family.get(0) == family.template_variant and len(family._built) == 1
        wide = enumerate_variants(parse_clause(WIDE_CLAUSE), cap=4096)
        assert wide.truncated and wide.raw_count == 12288 and len(wide) == 4096
        assert wide._built == []

    @pytest.mark.parametrize(
        "weights",
        [WeightTable(comparative=1), WeightTable(logical=2, arithmetic=1), WeightTable(comparative=0)],
    )
    def test_template_not_first(self, weights):
        rng = random.Random(7)
        displaced = 0
        for _ in range(60):
            expr = gen_mutation_clause(rng, max_sites=5)
            clause = parse_clause(f"//@ requires {render_expr(expr)};")
            for cap in (1, 8, 64):
                eager = self.check(rng, clause, cap, weights)
                assert ([v.text for v in eager.variants], eager.truncated) == oracle_members(
                    expr, cap, weights
                )
                displaced += eager.variants[0] != eager.template_variant
        assert displaced > 0

    def test_batch_limit(self):
        # 3**9 assignments all score 0: one level wider than the batch limit.
        clause = parse_clause(
            "//@ requires a <= b && c <= d && e <= f && g <= h && i <= j"
            " && k <= l && m <= n && o <= p && q <= r;"
        )
        kwargs = {"weights": WeightTable(comparative=0), "kinds": {MutationKind.COMPARATIVE}}
        eager = self.check(random.Random(2), clause, 8, **kwargs)
        assert eager.truncated and eager.raw_count == 19683 and len(eager) == 8
        assert read(eager.variants) == read(visited_set_family(clause, cap=8, **kwargs).variants)


def read(members):
    """What a reader sees of members: text and score, in order."""
    return [None if v is None else (v.text, v.score) for v in members]


WALK_WEIGHTS = [
    DEFAULT_WEIGHTS,
    scale_weights(DEFAULT_WEIGHTS, 3),
    WeightTable(comparative=0),
    WeightTable(comparative=1),
    WeightTable(logical=2, arithmetic=1),
]


class TestCanonicalParentWalk:
    """Each assignment is pushed once, from its canonical parent, and the
    families are those of the visited-set walk (``conftest``)."""

    @pytest.mark.parametrize("cap", [1, 8, 64, 4096])
    def test_matches_visited_set_walk(self, cap):
        rng = random.Random(cap)
        for _ in range(40):
            expr = gen_mutation_clause(rng, max_sites=6)
            clause = parse_clause(f"//@ requires {render_expr(expr)};")
            for kinds, weights in itertools.product(KIND_SUBSETS, WALK_WEIGHTS):
                kwargs = {"kinds": kinds, "cap": cap, "weights": weights}
                family = enumerate_variants(clause, **kwargs)
                oracle = visited_set_family(clause, **kwargs)
                k = rng.randrange(0, len(oracle) + 2)
                assert read(map(family.get, range(k))) == read(map(oracle.get, range(k)))
                assert read(family.variants) == read(oracle.variants)
                assert family.truncated == oracle.truncated

    def test_one_push_per_assignment(self, monkeypatch):
        pushed = []

        def heappush(heap, entry):
            pushed.append(entry[1])
            heapq.heappush(heap, entry)

        monkeypatch.setattr(mutation, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        rng = random.Random(9)
        for _ in range(40):
            clause = parse_clause(f"//@ requires {render_expr(gen_mutation_clause(rng, max_sites=6))};")
            for weights, cap in itertools.product(WALK_WEIGHTS, (8, 4096)):
                pushed.clear()
                family = enumerate_variants(clause, cap=cap, weights=weights)
                start = (0,) * len(family.template_variant.assignment)
                built = {v.assignment for v in family.variants} - {start}
                assert len(pushed) == len(set(pushed))
                if family.truncated:
                    # The template may join without being popped.
                    assert built - {family.template_variant.assignment} <= set(pushed)
                else:
                    assert sorted(pushed) == sorted(built)


KIND_SUBSETS = [
    frozenset(kinds) for size in range(5) for kinds in itertools.combinations(MutationKind, size)
]

# Structural rewrites next to operands that already end in +/- 1.
STRUCTURAL_CASES = [
    "x + 1 - 1 <= y",
    "x - 1 + 1 >= y",
    "a - 1 - 1 <= b && a - 1 <= b",
    "a + 1 + 1 >= b - 1 || a + 1 >= b",
    "x - 1 <= y - 1 ==> x <= y",
    "x + 1 - 1 <= y <==> x <= y",
    "(\\forall int k; 0 <= k && k < n; a[k] + 1 >= a[k] - 1)",
]


class TestDistinctAssignments:
    """Different assignments render different texts, so the size of a family
    and its truncation flag follow from the raw combination count."""

    def check(self, expr):
        clause = parse_clause(f"//@ requires {render_expr(expr)};")
        for kinds in KIND_SUBSETS:
            raw = enumerate_variants(clause, kinds=kinds, cap=1).raw_count
            assert len(oracle_family(expr, kinds=frozenset(k.value for k in kinds))) == raw

    @pytest.mark.parametrize("text", STRUCTURAL_CASES)
    def test_structural_cases(self, text):
        self.check(parse_expr(text))
        family = enumerate_variants(parse_clause(f"//@ requires {text};"), cap=1 << 20)
        assert len({v.text for v in family.variants}) == family.raw_count == len(family)

    def test_generated_clauses(self):
        rng = random.Random(5)
        for _ in range(300):
            self.check(gen_mutation_clause(rng, max_sites=6))


class TestRenderPlan:
    """A member's text, filled in from the template's render plan, is the
    rendering of its tree, which is built from its assignment on its own."""

    # Under the second table option 0 of a comparative site is a rewrite,
    # so the template's assignment is not all zeros.
    WEIGHTS = [DEFAULT_WEIGHTS, WeightTable(comparative=1)]

    def check(self, clause):
        for kinds in KIND_SUBSETS:
            for weights in self.WEIGHTS:
                family = enumerate_variants(clause, kinds=kinds, weights=weights, cap=1 << 20)
                for variant in family.variants:
                    assert variant.text == render_clause(dataclasses.replace(clause, expr=variant.expr))

    def test_generated_clauses(self):
        rng = random.Random(5)
        for _ in range(300):
            self.check(parse_clause(f"//@ requires {render_expr(gen_mutation_clause(rng, max_sites=6))};"))

    @pytest.mark.parametrize(
        "text",
        STRUCTURAL_CASES
        + [
            "a < b <= c",
            "a >= b > c == d",
            "a ==> b ==> c",
            "(a ==> b) ==> c",
            "a <== b <== c",
            "a <== (b <== c)",
            "a ==> (b <== c)",
            "(a <== b) ==> c",
            "a <==> b ==> c <==> d",
            "((a <== b) ==> c) <==> ((c ==> d) <== e)",
            "!(a < b) || -(x + y) >= a[i + 1] % 2",
            "a % b + c <= d % 2",
            "-(-a[i + 1]) <= -(-1) - x",
            "\\old(x - y) <= (\\exists int k; k < n; a[k] != x)",
        ],
    )
    def test_fixed_clauses(self, text):
        self.check(parse_clause(f"//@ requires {text};"))

    def test_template_read_compiles_no_plan(self, monkeypatch):
        def fail(*args):
            raise AssertionError("built past the template")

        monkeypatch.setattr(schemata, "_compile_plan", fail)
        monkeypatch.setattr(schemata, "_apply_combination", fail)
        clause = parse_clause("//@ requires a + b <= c && c < d;")
        family = enumerate_variants(clause)
        template = family.get(0)
        assert template is family.template_variant
        assert template.expr is clause.expr and template.text == render_clause(clause)
        with pytest.raises(AssertionError, match="built past the template"):
            family.get(1)


class TestSelectRandom:
    def test_deterministic_with_seed(self):
        family = enumerate_variants(parse_clause("//@ requires a + b <= c;"))
        slot = refuted_template_slot(family)
        assert RandomStrategy(99).pick(slot) == RandomStrategy(99).pick(slot)

    def test_rng_instance_advances(self):
        family = enumerate_variants(parse_clause("//@ requires a + b <= c;"))
        slot = refuted_template_slot(family)
        strategy = RandomStrategy(3)
        picks = {strategy.pick(slot).text for _ in range(20)}
        assert len(picks) > 1

    def test_empty_returns_none(self):
        family = enumerate_variants(parse_clause("//@ requires x;"))
        exhausted = refuted_template_slot(family)
        assert RandomStrategy(0).pick(exhausted) is None
        assert select_by_heuristic([], DEFAULT_WEIGHTS) is None
        assert HeuristicStrategy().pick(exhausted) is None


class TestWeightTable:
    def test_scaling(self):
        scaled = scale_weights(WeightTable(), 3)
        assert scaled[MutationKind.COMPARATIVE] == -3
        assert scaled[MutationKind.ARITHMETIC] == -12

    def test_all_kinds_cover_enum(self):
        assert ALL_KINDS == frozenset(MutationKind)
