"""Iterative verify-and-replace repair over mutated clause families.

Templates start out selected verbatim. Each iteration verifies the currently
selected clause set with one verifier call; a refuted variant is recorded in
its slot and never selected again, and the strategy picks its replacement
from the family's unrefuted members. A family that runs dry drops its slot.
Every refutation marks one more family member, so the loop performs at most
1 + sum(family sizes) calls.

Families are streams (see :class:`~specsmith.mutation.Family`): the heuristic
reads them in order through a per-slot cursor, so a repair builds only the
variants it reaches; the thrash check reads the family size, which costs
no enumeration.

A repair ends one of three ways, named by :attr:`RepairResult.outcome`:
``"verified"`` (the verifier accepted a non-empty selection),
``"exhausted"`` (every family ran dry, so nothing is left to claim) or
``"out-of-budget"`` (the wall-clock budget ran out first). Each ending
carries the selection state built so far.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from .clauses import AnnotatedProgram, Clause, render_clause
from .errors import SpecError, UnknownClause
from .mutation import (
    ALL_KINDS,
    Family,
    MutationKind,
    Variant,
    WeightTable,
    enumerate_variants,
)
from .verifier import Outcome, Verifier


@dataclass
class FamilySlot:
    family: Family
    selected: Variant | None  # None once the family runs dry: the slot is dropped
    refuted: set[str] = field(default_factory=set)  # texts, never selected again
    cursor: int = 0  # heuristic: every family member before it is refuted
    warned: bool = False


class SelectionStrategy(Protocol):
    def pick(self, slot: FamilySlot) -> Variant | None: ...


class HeuristicStrategy:
    """The best unrefuted variant: the family's own order is the argmax of
    the weighted mutation-count score, ties by text."""

    def pick(self, slot: FamilySlot) -> Variant | None:
        family = slot.family
        while (variant := family.get(slot.cursor)) is not None and variant.text in slot.refuted:
            slot.cursor += 1
        return variant


class RandomStrategy:
    """Uniform choice among the unrefuted variants, with a private
    deterministic generator."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, slot: FamilySlot) -> Variant | None:
        candidates = [v for v in slot.family.variants if v.text not in slot.refuted]
        if not candidates:
            return None
        return self._rng.choice(candidates)


@dataclass
class RefutationEvent:
    iteration: int
    clause_id: str
    text: str


@dataclass
class SelectionState:
    slots: dict[str, FamilySlot]  # template id -> slot, in template order
    refuted_history: list[RefutationEvent] = field(default_factory=list)
    verifier_calls: int = 0
    thrash_warnings: list[str] = field(default_factory=list)

    def selected_clauses(self) -> tuple[Clause, ...]:
        return tuple(
            slot.selected.clause for slot in self.slots.values() if slot.selected is not None
        )


@dataclass
class RepairResult:
    program: AnnotatedProgram  # the last selection; verified only on "verified"
    state: SelectionState
    outcome: str  # "verified" | "exhausted" | "out-of-budget"


def spec_mutation(
    templates: Sequence[Clause],
    kinds: Iterable[MutationKind] = ALL_KINDS,
    cap: int = 4096,
    weights: WeightTable | None = None,
) -> dict[str, Family]:
    """Enumerate one family per template, keyed by template id.

    Every template needs its own non-empty id (extraction assigns them), so
    that no two templates share a family and every refutation finds its slot.
    """
    seen: set[str] = set()
    for template in templates:
        if not template.id:
            raise SpecError(f"template {render_clause(template)!r} has an empty clause id")
        if template.id in seen:
            raise SpecError(f"clause id {template.id!r} is repeated across templates")
        seen.add(template.id)
    return {
        template.id: enumerate_variants(template, kinds=kinds, cap=cap, weights=weights)
        for template in templates
    }


def init_state(families: dict[str, Family]) -> SelectionState:
    """Start with every template's zero-mutation variant selected."""
    slots: dict[str, FamilySlot] = {}
    for template_id, family in families.items():
        slots[template_id] = FamilySlot(family=family, selected=family.template_variant)
    return SelectionState(slots=slots)


def re_select(
    state: SelectionState,
    refuted_ids: Iterable[str],
    strategy: SelectionStrategy,
    iteration: int,
) -> None:
    """Refute each named slot's selected variant and pick replacements.

    A refuted variant is never selected again. When its family has no
    unrefuted member left, the slot drops: that template contributes no
    clause from now on. A slot that has been refuted more than half its
    family size records a thrash warning, once.
    """
    for clause_id in refuted_ids:
        if clause_id not in state.slots:
            raise UnknownClause(f"no family for clause id {clause_id!r}")
        slot = state.slots[clause_id]
        if slot.selected is None:
            raise UnknownClause(f"clause id {clause_id!r} has no selected variant")
        refuted = slot.selected
        state.refuted_history.append(
            RefutationEvent(iteration=iteration, clause_id=clause_id, text=refuted.text)
        )
        slot.refuted.add(refuted.text)
        if not slot.warned and 2 * len(slot.refuted) > len(slot.family):
            slot.warned = True
            state.thrash_warnings.append(
                f"template {clause_id} replaced {len(slot.refuted)} times "
                f"(family size {len(slot.family)}); "
                "verifier attribution may be thrashing"
            )
        slot.selected = strategy.pick(slot)


def spec_selection(
    state: SelectionState,
    source: str,
    verifier: Verifier,
    strategy: SelectionStrategy,
    budget_seconds: float | None = None,
) -> RepairResult:
    """Verify-and-replace until the verifier accepts the selected set.

    Exactly one verifier call per iteration. A failure that cannot be
    attributed to any currently selected clause refutes the whole selection —
    progress is guaranteed either way. An empty selection is verified once
    for the record and ends the loop ``"exhausted"``. A budget that runs out
    before an iteration ends it ``"out-of-budget"``, with that iteration's
    selection unverified.
    """
    started = time.monotonic()
    while True:
        program = AnnotatedProgram(source, state.selected_clauses())
        if budget_seconds is not None and time.monotonic() - started >= budget_seconds:
            return RepairResult(program, state, "out-of-budget")
        verdict = verifier.verify(program)
        state.verifier_calls += 1
        if not program.clauses:
            return RepairResult(program, state, "exhausted")
        if verdict.outcome is Outcome.PASS:
            return RepairResult(program, state, "verified")
        selected_ids = {clause.id for clause in program.clauses}
        refuted = []
        for failure in verdict.failures:
            if failure.clause_id in selected_ids and failure.clause_id not in refuted:
                refuted.append(failure.clause_id)
        if not refuted:
            # Unattributable failure (or timeout/crash): refute everything
            # currently selected rather than loop forever on the same set.
            refuted = [clause.id for clause in program.clauses]
        re_select(state, refuted, strategy, iteration=state.verifier_calls)


def mutation_based_gen(
    templates: AnnotatedProgram,
    verifier: Verifier,
    strategy: SelectionStrategy,
    kinds: Iterable[MutationKind] = ALL_KINDS,
    weights: WeightTable | None = None,
    cap: int = 4096,
    budget_seconds: float | None = None,
) -> RepairResult:
    """Full mutation phase: build families, then select-and-verify until the
    loop ends (see :func:`spec_selection`)."""
    families = spec_mutation(templates.clauses, kinds=kinds, cap=cap, weights=weights)
    state = init_state(families)
    return spec_selection(
        state, templates.source, verifier, strategy, budget_seconds=budget_seconds
    )
