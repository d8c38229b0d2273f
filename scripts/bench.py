"""Synthetic repair benchmark: heuristic vs. random candidate selection.

Each trial plants one "correct" variant inside a freshly generated clause
family, with placement biased toward small, cheap mutation distances — the
regime the weighted heuristic is designed for. Both strategies then repair
the same family against a truth-set verifier and we compare how many
verifier calls each one needed. ``strategy_benchmark.py`` runs it from the
command line.
"""
from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from specsmith.clauses import Anchor, AnnotatedProgram, Clause, ClauseKind
from specsmith.expr import Binary, Expr, IntLit, Quantifier, Var
from specsmith.mutation import Family, Variant, enumerate_variants
from specsmith.repair import HeuristicStrategy, RandomStrategy, mutation_based_gen
from specsmith.verifier import MockVerifier

_SOURCE = """\
class Bench {
    static boolean check(int a, int b, int c, int n) {
        return true;
    }
}
"""

_ANCHOR = Anchor(method="check")
_VARS = ("a", "b", "c", "n")
_REL_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _simple(rng: random.Random) -> Expr:
    if rng.random() < 0.3:
        return IntLit(rng.randrange(0, 10))
    return Var(rng.choice(_VARS))


def _relation(rng: random.Random) -> Expr:
    """One comparative site."""
    return Binary(rng.choice(_REL_OPS), _simple(rng), _simple(rng))


def _arith_relation(rng: random.Random) -> Expr:
    """One comparative site plus one arithmetic site."""
    side = Binary(rng.choice(("+", "-")), _simple(rng), _simple(rng))
    if rng.random() < 0.5:
        return Binary(rng.choice(_REL_OPS), side, _simple(rng))
    return Binary(rng.choice(_REL_OPS), _simple(rng), side)


def _conj(rng: random.Random, lhs: Expr, rhs: Expr) -> Expr:
    """One logical site over two sub-relations."""
    return Binary(rng.choice(("&&", "||")), lhs, rhs)


def _quantified(rng: random.Random, body: Expr) -> Expr:
    """One predicative site plus one comparative site in the range."""
    return Quantifier(
        kind=rng.choice(("forall", "exists")),
        var="v",
        range=Binary("<=", IntLit(0), Var("v")),
        body=body,
    )


def make_template(rng: random.Random) -> Expr:
    """A clause expression with two to four mutation sites."""
    target = rng.randrange(2, 5)
    if target == 2:
        return _arith_relation(rng) if rng.random() < 0.6 else _conj(
            rng, _relation(rng), _relation(rng)
        )
    if target == 3:
        picks = (
            lambda: _conj(rng, _relation(rng), _relation(rng)),
            lambda: _quantified(rng, _relation(rng)),
            lambda: _conj(rng, _arith_relation(rng), _relation(rng)),
        )
        return rng.choice(picks)()
    picks = (
        lambda: _conj(rng, _arith_relation(rng), _relation(rng)),
        lambda: _quantified(rng, _arith_relation(rng)),
        lambda: _conj(rng, _conj(rng, _relation(rng), _relation(rng)), _relation(rng)),
    )
    return rng.choice(picks)()


def plant_truth(family: Family, rng: random.Random, decay: float = 0.55) -> Variant:
    """Pick the mutated variant that will verify, biased toward cheap mutations.

    Weight ``decay ** (-score)`` concentrates mass on variants whose
    mutation cost is small, mirroring the premise that generated clauses
    are usually one inexpensive operator away from correct.
    """
    pool = [v for v in family.variants if v is not family.template_variant]
    weights = [decay ** float(-v.score) for v in pool]
    return rng.choices(pool, weights=weights, k=1)[0]


@dataclass(frozen=True)
class TrialResult:
    template_text: str
    truth_text: str
    family_size: int
    heuristic_calls: int
    random_calls: int


@dataclass(frozen=True)
class BenchResult:
    trials: tuple[TrialResult, ...]
    heuristic_mean: float
    random_mean: float

    @property
    def relative_reduction(self) -> float:
        if self.random_mean == 0:
            return 0.0
        return (self.random_mean - self.heuristic_mean) / self.random_mean

    def summary(self) -> str:
        return (
            f"trials:               {len(self.trials)}\n"
            f"heuristic mean calls: {self.heuristic_mean:.3f}\n"
            f"random mean calls:    {self.random_mean:.3f}\n"
            f"relative reduction:   {self.relative_reduction:.1%}"
        )


def run_trial(seed: int) -> TrialResult:
    rng = random.Random(seed)
    template_expr = make_template(rng)
    clause = Clause(
        kind=ClauseKind.REQUIRES,
        expr=template_expr,
        anchor=_ANCHOR,
        id="method:check/requires/0",
    )
    family = enumerate_variants(clause)
    planted = plant_truth(family, rng)
    program = AnnotatedProgram(source=_SOURCE, clauses=(clause,))

    calls = {}
    for name, strategy in (
        ("heuristic", HeuristicStrategy()),
        ("random", RandomStrategy(seed)),
    ):
        result = mutation_based_gen(program, MockVerifier({planted.text}), strategy)
        repaired = [c.text for c in result.program.clauses]
        if result.outcome != "verified" or repaired != [planted.text]:
            raise RuntimeError(
                f"trial {seed}: {name} selection ended {result.outcome} with "
                f"{repaired}, not the planted {planted.text!r}"
            )
        calls[name] = result.state.verifier_calls
    return TrialResult(
        template_text=clause.text,
        truth_text=planted.text,
        family_size=len(family),
        heuristic_calls=calls["heuristic"],
        random_calls=calls["random"],
    )


def run_benchmark(trials: int = 200, seed: int = 20260816) -> BenchResult:
    results = tuple(run_trial(seed + i) for i in range(trials))
    return BenchResult(
        trials=results,
        heuristic_mean=statistics.mean(r.heuristic_calls for r in results),
        random_mean=statistics.mean(r.random_calls for r in results),
    )
