"""Iterative verify-and-replace repair over mutated clause families.

Templates start out selected verbatim. Each iteration verifies the currently
selected clause set with one verifier call; a refuted variant is recorded in
its slot and never selected again, and the strategy picks its replacement
from the family's unrefuted members. A family that runs dry drops its slot.
Every refutation marks one more family member, so the loop performs at most
1 + sum(family sizes) calls.

The selection is kept, not rebuilt: :class:`SelectionState` holds the
selected clause of every live slot, in template order, and
:func:`re_select` changes only the slots it refutes. So an iteration costs
its verifier call plus work on the refuted slots.

Families are streams (see :class:`~specsmith.mutation.Family`): the heuristic
reads them in order through a per-slot cursor, so a repair builds only the
variants it reaches; the thrash check reads the family size, which costs
no enumeration.

A repair ends one of four ways, named by :attr:`RepairResult.outcome`:
``"verified"`` (the verifier accepted a non-empty selection),
``"exhausted"`` (every family ran dry, so nothing is left to claim),
``"out-of-budget"`` (the wall-clock budget ran out first) or
``"no-verdict"`` (the verifier timed out or crashed, which says nothing
about any clause). Each ending carries the selection state built so far.
"""
from __future__ import annotations

import random
import time
from typing import Iterable, Protocol, Sequence

from .clauses import AnnotatedProgram, Clause
from .errors import SpecError, UnknownClause
from .expr import Record
from .mutation import ALL_KINDS, Family, MutationKind, Variant, WeightTable, enumerate_variants
from .verifier import Outcome, Verifier

_PASS = Outcome.PASS  # a module name reads faster than an Enum member


class FamilySlot(Record):
    __slots__ = ("family", "selected", "refuted", "cursor", "head", "warned", "size", "live", "live_at")

    def __init__(self, family: Family, selected: Variant | None, refuted: set[str] | None = None):
        self.family = family
        self.selected = selected  # None once the family runs dry: the slot is dropped
        self.refuted = set() if refuted is None else refuted  # texts, never selected again
        # heuristic: every family member before the cursor is refuted, and
        # ``head`` is the member at it once read, so a pick reads each member once.
        self.cursor = 0
        self.head: Variant | None = None
        self.warned = False
        self.size = len(family)  # the family's size, which the thrash check reads
        # random: the unrefuted members in family order, and the index of the
        # last pick among them; kept from one pick to the next.
        self.live: list[Variant] | None = None
        self.live_at = 0


class SelectionStrategy(Protocol):
    def pick(self, slot: FamilySlot) -> Variant | None: ...


class HeuristicStrategy:
    """The best unrefuted variant: the family's own order is the argmax of
    the weighted mutation-count score, ties by text."""

    def pick(self, slot: FamilySlot) -> Variant | None:
        get, refuted, cursor, variant = slot.family.get, slot.refuted, slot.cursor, slot.head
        if variant is None:
            variant = get(cursor)
        while variant is not None and variant.text in refuted:
            cursor += 1
            variant = get(cursor)
        slot.cursor, slot.head = cursor, variant
        return variant


class RandomStrategy:
    """Uniform choice among the unrefuted variants, with a private
    deterministic generator.

    The unrefuted members are kept on the slot. A pick drops the variant just
    refuted, which is still the slot's selection and was the last pick. The
    refuted set only grows, so the kept list holds every unrefuted member,
    and it holds no other just when the counts agree; when they do not, the
    family is listed afresh.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, slot: FamilySlot) -> Variant | None:
        live, at, refuted = slot.live, slot.live_at, slot.refuted
        if live is not None and at < len(live) and live[at] is slot.selected and live[at].text in refuted:
            del live[at]
        if live is None or len(live) != slot.size - len(refuted):
            live = slot.live = [v for v in slot.family.variants if v.text not in refuted]
        if not live:
            return None
        # The index random.choice(live) would draw, from the same draws.
        slot.live_at = at = self._rng.choice(range(len(live)))
        return live[at]


class RefutationEvent(Record):
    __slots__ = ("iteration", "clause_id", "text")  # the refuting call, the slot's template id, the variant's text

    def __init__(self, iteration: int, clause_id: str, text: str):
        self.iteration = iteration
        self.clause_id = clause_id
        self.text = text


class SelectionState(Record):
    __slots__ = ("slots", "refuted_history", "verifier_calls", "thrash_warnings", "selection")

    def __init__(self, slots: dict[str, FamilySlot]):
        self.slots = slots  # template id -> slot, in template order
        self.refuted_history: list[RefutationEvent] = []
        self.verifier_calls = 0
        self.thrash_warnings: list[str] = []
        # Template id -> the clause of its selected variant, in template order;
        # a dropped slot has none. :func:`re_select` keeps it current.
        self.selection: dict[str, Clause] = {
            template_id: slot.selected.clause
            for template_id, slot in self.slots.items()
            if slot.selected is not None
        }

    def selected_clauses(self) -> tuple[Clause, ...]:
        return tuple(self.selection.values())


class RepairResult(Record):
    __slots__ = ("program", "state", "outcome", "detail")

    def __init__(self, program: AnnotatedProgram, state: SelectionState, outcome: str, detail: str = ""):
        self.program = program  # the last selection; verified only on "verified"
        self.state = state
        self.outcome = outcome  # "verified" | "exhausted" | "out-of-budget" | "no-verdict"
        self.detail = detail  # on "no-verdict": the verifier's outcome and detail


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
            raise SpecError(f"template {template.text!r} has an empty clause id")
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
    slots, selection, history = state.slots, state.selection, state.refuted_history
    for clause_id in refuted_ids:
        slot = slots.get(clause_id)
        if slot is None:
            raise UnknownClause(f"no family for clause id {clause_id!r}")
        refuted = slot.selected
        if refuted is None:
            raise UnknownClause(f"clause id {clause_id!r} has no selected variant")
        history.append(RefutationEvent(iteration, clause_id, refuted.text))
        slot.refuted.add(refuted.text)
        if not slot.warned and 2 * len(slot.refuted) > slot.size:
            slot.warned = True
            state.thrash_warnings.append(
                f"template {clause_id} replaced {len(slot.refuted)} times "
                f"(family size {slot.size}); "
                "verifier attribution may be thrashing"
            )
        replacement = slot.selected = strategy.pick(slot)
        if replacement is None:
            del selection[clause_id]
        else:
            selection[clause_id] = replacement.clause


def spec_selection(
    state: SelectionState,
    source: str,
    verifier: Verifier,
    strategy: SelectionStrategy,
    budget_seconds: float | None = None,
) -> RepairResult:
    """Verify-and-replace until the verifier accepts the selected set.

    Exactly one verifier call per iteration. A failure that cannot be
    attributed to any currently selected clause refutes the whole selection
    (Houdini's rule) — progress is guaranteed either way. A timeout or crash
    refutes nothing and ends the loop ``"no-verdict"``. An empty selection is
    verified once for the record and ends the loop ``"exhausted"``. A budget
    that runs out before an iteration ends it ``"out-of-budget"``, with that
    iteration's selection unverified.
    """
    started = time.monotonic()
    selection = state.selection  # a selected clause's id is its template id
    while True:
        program = AnnotatedProgram(source, state.selected_clauses())
        if budget_seconds is not None and time.monotonic() - started >= budget_seconds:
            return RepairResult(program, state, "out-of-budget")
        verdict = verifier.verify(program)
        state.verifier_calls += 1
        if not program.clauses:
            return RepairResult(program, state, "exhausted")
        if verdict.outcome is _PASS:
            return RepairResult(program, state, "verified")
        if not verdict.failures:  # a timeout or crash; a fail always carries failures
            detail = f"verifier {verdict.outcome.value}"
            if verdict.detail:
                detail += f" ({verdict.detail})"
            return RepairResult(program, state, "no-verdict", detail)
        refuted = []
        for failure in verdict.failures:
            clause_id = failure.clause_id
            if clause_id in selection and clause_id not in refuted:
                refuted.append(clause_id)
        if not refuted:
            # Unattributable failure: refute everything currently selected
            # rather than loop forever on the same set.
            refuted = list(selection)
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
