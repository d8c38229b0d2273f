"""Mutation operators, weighted scoring, and best-first family enumeration.

Each clause yields a fixed list of mutation sites (one per mutable operator
occurrence). A variant is the clause with some subset of sites rewritten: an
assignment of one option to every site. The family of a template is every
such variant, ordered by score (descending), then text (ascending).
Distinct assignments always render distinct texts: a rewrite keeps its node's
position and changes only its operator, and a structural rewrite adds a
``± 1`` node no other assignment can produce. So a family's size and its
truncation flag follow from the raw combination count alone, and members are
built one score level at a time, only as far as a reader asks.

Members are made as mutant schemata (:mod:`specsmith.schemata`): the
template is compiled once into a render plan, and each member's text is
that plan filled from its assignment. A member's tree and per-kind counts
are built on first read. The template member takes the template's own text
and tree, and the plan is compiled only when a reader asks for a member past
the template.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator

from .clauses import Clause, render_clause
from .expr import Binary, Expr, Quantifier, walk
from .schemata import DEC_LHS, INC_LHS, Options, Schema


class MutationKind(Enum):
    PREDICATIVE = "predicative"
    LOGICAL = "logical"
    COMPARATIVE = "comparative"
    ARITHMETIC = "arithmetic"


ALL_KINDS = frozenset(MutationKind)

# operator token -> (kind, replacement options in fixed order)
REPLACEMENTS: dict[str, tuple[MutationKind, tuple[str, ...]]] = {
    "\\forall": (MutationKind.PREDICATIVE, ("\\exists",)),
    "\\exists": (MutationKind.PREDICATIVE, ("\\forall",)),
    "&&": (MutationKind.LOGICAL, ("||",)),
    "||": (MutationKind.LOGICAL, ("&&",)),
    "<==>": (MutationKind.LOGICAL, ("<==", "==>")),
    "==>": (MutationKind.LOGICAL, ("<==",)),
    "<==": (MutationKind.LOGICAL, ("==>",)),
    "<=": (MutationKind.COMPARATIVE, ("<", DEC_LHS)),
    ">=": (MutationKind.COMPARATIVE, (">", INC_LHS)),
    "<": (MutationKind.COMPARATIVE, ("<=",)),
    ">": (MutationKind.COMPARATIVE, (">=",)),
    "==": (MutationKind.COMPARATIVE, ("!=",)),
    "!=": (MutationKind.COMPARATIVE, ("==",)),
    "+": (MutationKind.ARITHMETIC, ("-",)),
    "-": (MutationKind.ARITHMETIC, ("+",)),
}


@dataclass(frozen=True)
class WeightTable:
    """Per-kind mutation weights for the selection score."""

    comparative: int = -1
    logical: int = -2
    arithmetic: int = -4
    predicative: int = -4

    def __getitem__(self, kind: MutationKind) -> int:
        return getattr(self, kind.value)

    def scaled(self, factor: int) -> WeightTable:
        return WeightTable(
            comparative=self.comparative * factor,
            logical=self.logical * factor,
            arithmetic=self.arithmetic * factor,
            predicative=self.predicative * factor,
        )


DEFAULT_WEIGHTS = WeightTable()


@dataclass(frozen=True)
class MutationSite:
    path: tuple[int, ...]
    kind: MutationKind
    original_op: str


class Variant:
    """One family member: its assignment (one option index per enabled site,
    in site order), its canonical clause line and its score.

    Its clause, expression tree and per-kind counts are built on first read.
    Two members are equal when they render the same text by the same number
    of rewrites of each kind.
    """

    __slots__ = ("assignment", "text", "score", "_schema", "_clause", "_counts")

    def __init__(
        self,
        schema: Schema,
        assignment: tuple[int, ...],
        text: str,
        score: int,
        clause: Clause | None = None,
    ):
        self.assignment = assignment
        self.text = text
        self.score = score
        self._schema = schema
        self._clause = clause
        self._counts: tuple[tuple[MutationKind, int], ...] | None = None

    @property
    def clause(self) -> Clause:
        """The template clause carrying this member's text and expression."""
        if self._clause is None:
            self._clause = Clause.deferred(
                self._schema.template, self.text, partial(self._schema.tree, self.assignment)
            )
        return self._clause

    @property
    def expr(self) -> Expr:
        return self.clause.expr

    @property
    def counts(self) -> tuple[tuple[MutationKind, int], ...]:
        """(kind, rewrites of that kind) for all four kinds, in fixed order."""
        if self._counts is None:
            tally = dict.fromkeys(MutationKind, 0)
            schema = self._schema
            for site, site_options, index in zip(schema.sites, schema.options, self.assignment):
                if site_options[index][1] is not None:
                    tally[site.kind] += 1
            self._counts = tuple(tally.items())
        return self._counts

    @property
    def total_mutations(self) -> int:
        return sum(n for _, n in self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variant):
            return NotImplemented
        return self.text == other.text and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"Variant({self.text!r}, score={self.score})"


class Family:
    """The variants of one template clause, built best-first on demand.

    Members are ordered by score (descending), then text (ascending). The
    enumeration advances one score level at a time and only as far as a
    reader asks: ``get(i)`` builds just enough levels, ``variants`` builds the
    whole family, and ``len()`` and ``truncated`` build nothing, since every
    raw combination is a distinct member up to the cap.
    """

    def __init__(
        self,
        template: Clause,
        raw_count: int,
        cap: int,
        template_variant: Variant,
        levels: Iterator[bool],
        built: list[Variant],
    ):
        self.template = template
        self.template_variant = template_variant  # the zero-mutation member
        self.raw_count = raw_count
        self.cap = cap
        self._levels = levels  # each step appends a score level to ``built``
        self._built = built

    def get(self, index: int) -> Variant | None:
        """The member at ``index`` in family order, or None past the end."""
        while index >= len(self._built) and next(self._levels, False):
            pass
        return self._built[index] if index < len(self._built) else None

    @property
    def variants(self) -> list[Variant]:
        while next(self._levels, False):
            pass
        return self._built

    @property
    def truncated(self) -> bool:
        return self.raw_count > self.cap

    def __len__(self) -> int:
        return min(self.raw_count, self.cap)


def _site_for(node: Expr) -> tuple[MutationKind, str] | None:
    if isinstance(node, Quantifier):
        return REPLACEMENTS[f"\\{node.kind}"][0], f"\\{node.kind}"
    if isinstance(node, Binary) and node.op in REPLACEMENTS:
        return REPLACEMENTS[node.op][0], node.op
    return None


def enumerate_sites(expr: Expr) -> list[MutationSite]:
    """All mutable operator occurrences, in deterministic pre-order."""
    sites: list[MutationSite] = []
    for path, node in walk(expr):
        hit = _site_for(node)
        if hit is not None:
            kind, op = hit
            sites.append(MutationSite(path=path, kind=kind, original_op=op))
    return sites


def score_variant(variant: Variant, weights: WeightTable) -> int:
    """Sum over kinds of (mutation count) x (kind weight)."""
    return sum(weights[kind] * count for kind, count in variant.counts)


def enumerate_variants(
    template: Clause,
    kinds: Iterable[MutationKind] = ALL_KINDS,
    cap: int = 4096,
    weights: WeightTable | None = None,
) -> Family:
    """The family of every combination of per-site replacements.

    The zero-mutation template variant is always a member. Variants come in
    descending score order (ties by text, ascending); when more than ``cap``
    combinations exist the family keeps the first ``cap`` and has its
    truncated flag set. Nothing is built until a reader asks for members
    (see :class:`Family`).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    weights = weights or DEFAULT_WEIGHTS
    enabled = set(kinds)
    sites = [s for s in enumerate_sites(template.expr) if s.kind in enabled]

    # Per-site options ordered best score first. The all-zeros assignment is
    # the argmax and bumping any index can only lower the score.
    options: list[Options] = []
    raw_count = 1
    for site in sites:
        site_options: Options = [(0, None)]
        site_options.extend((weights[site.kind], repl) for repl in REPLACEMENTS[site.original_op][1])
        site_options.sort(key=lambda pair: -pair[0])
        options.append(site_options)
        raw_count *= len(site_options)

    schema = Schema(template, sites, options)
    unchanged = tuple([r for _, r in site_options].index(None) for site_options in options)
    template_variant = Variant(schema, unchanged, render_clause(template), 0, clause=template)
    built: list[Variant] = []
    levels = _walk_levels(schema, template_variant, cap, built)
    family = Family(template, raw_count, cap, template_variant, levels, built)
    template_leads = all(delta < 0 for site_options in options for delta, _ in site_options[1:])
    if raw_count > cap and not template_leads:
        # Unless every rewrite lowers the score, the template can miss the
        # cap; it then evicts the worst member and reorders the tail. Build
        # it all now, so no reader ever sees a member that is later moved.
        family.variants
    return family


def _walk_levels(
    schema: Schema, template_variant: Variant, cap: int, built: list[Variant]
) -> Iterator[bool]:
    """Append one score level to ``built`` per step (each yields True)."""
    deltas = [[delta for delta, _ in site_options] for site_options in schema.options]
    # Best-first walk over assignments: pop everything at one score, order
    # that batch by text, emit, then descend to the next score. A neighbor
    # (one site bumped to its next option) never scores higher than its
    # parent, so the heap yields scores in non-increasing order and the
    # emitted members are already in family order. Heap entries hold the
    # negated score.
    start = tuple(0 for _ in deltas)
    heap: list[tuple[int, tuple[int, ...]]] = [(-sum(site[0] for site in deltas), start)]
    visited = {start}
    batch_limit = max(4 * cap, 16384)
    stopped_early = template_emitted = False
    while heap and not stopped_early:
        batch_cost = heap[0][0]
        batch: list[tuple[int, ...]] = []
        while heap and heap[0][0] == batch_cost:
            _, assignment = heapq.heappop(heap)
            batch.append(assignment)
            if len(batch) >= batch_limit:
                # Pathologically wide score level; the family is about to be
                # truncated anyway, so give up on full-level text ordering
                # (the partial order is still deterministic).
                stopped_early = True
                break
            for i, site in enumerate(deltas):
                index = assignment[i]
                if index + 1 < len(site):
                    neighbor = assignment[:i] + (index + 1,) + assignment[i + 1 :]
                    if neighbor not in visited:
                        visited.add(neighbor)
                        cost = batch_cost + site[index] - site[index + 1]
                        heapq.heappush(heap, (cost, neighbor))
        members = [
            template_variant
            if assignment == template_variant.assignment
            else Variant(schema, assignment, schema.render(assignment), -batch_cost)
            for assignment in batch
        ]
        members.sort(key=attrgetter("text"))
        for variant in members:
            if len(built) >= cap:
                stopped_early = True
                break
            built.append(variant)
            template_emitted = template_emitted or variant is template_variant
        yield True

    if not template_emitted:
        # Only reachable under exotic weight tables where positive weights
        # push the template below the cap; the template is a family member
        # by definition, so evict the worst variant to make room.
        if len(built) >= cap:
            built.pop()
        bisect.insort(built, template_variant, key=lambda v: (-v.score, v.text))

