"""Mutation operators, weighted scoring, and best-first family enumeration.

Each clause yields a fixed list of mutation sites (one per mutable operator
occurrence). A variant is the clause with some subset of sites rewritten,
carrying the per-kind count vector used for scoring. The family of a template
is every such variant, ordered by score (descending), then text (ascending).
Distinct assignments always render distinct texts: a rewrite keeps its node's
position and changes only its operator, and a structural rewrite adds a
``± 1`` node no other assignment can produce. So a family's size and its
truncation flag follow from the raw combination count alone, and members are
built one score level at a time, only as far as a reader asks.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .clauses import Clause, render_clause
from .expr import Binary, Expr, IntLit, Quantifier, walk


class MutationKind(Enum):
    PREDICATIVE = "predicative"
    LOGICAL = "logical"
    COMPARATIVE = "comparative"
    ARITHMETIC = "arithmetic"


ALL_KINDS = frozenset(MutationKind)

# Structural rewrites: the replacement keeps the comparison operator but
# shifts the left operand by one.
DEC_LHS = "- 1 <="
INC_LHS = "+ 1 >="

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


@dataclass(frozen=True)
class MutationChoice:
    site: MutationSite
    replacement: str


@dataclass(frozen=True)
class Variant:
    expr: Expr
    counts: tuple[tuple[MutationKind, int], ...]  # all four kinds, fixed order
    choices: tuple[MutationChoice, ...]
    text: str  # canonical rendered clause line

    def count(self, kind: MutationKind) -> int:
        return dict(self.counts)[kind]

    @property
    def total_mutations(self) -> int:
        return sum(n for _, n in self.counts)


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


def _rewrite(node: Expr, replacement: str) -> Expr:
    """Rewrite a site's node, a ``Quantifier`` or a mutable ``Binary``."""
    if isinstance(node, Quantifier):
        return Quantifier(replacement[1:], node.var, node.range, node.body)
    if replacement == DEC_LHS:
        return Binary("<=", Binary("-", node.lhs, IntLit(1)), node.rhs)
    if replacement == INC_LHS:
        return Binary(">=", Binary("+", node.lhs, IntLit(1)), node.rhs)
    return Binary(replacement, node.lhs, node.rhs)


def _apply_combination(
    expr: Expr, chosen: dict[tuple[int, ...], str]
) -> Expr:
    """Apply many choices in one bottom-up rebuild.

    Children are rebuilt before the node itself is rewritten, so a structural
    rewrite wraps the already-mutated left operand and deeper site paths stay
    valid regardless of combination order.
    """

    def build(node: Expr, path: tuple[int, ...]) -> Expr:
        rebuilt = node
        for index, child in enumerate(node.children()):
            new_child = build(child, path + (index,))
            if new_child is not child:
                rebuilt = rebuilt.replace_child(index, new_child)
        if path in chosen:
            rebuilt = _rewrite(rebuilt, chosen[path])
        return rebuilt

    return build(expr, ())


def score_variant(variant: Variant, weights: WeightTable) -> int:
    """Sum over kinds of (mutation count) x (kind weight)."""
    return sum(weights[kind] * count for kind, count in variant.counts)


def _make_counts(choices: Sequence[MutationChoice]) -> tuple[tuple[MutationKind, int], ...]:
    tally = {kind: 0 for kind in MutationKind}
    for choice in choices:
        tally[choice.site.kind] += 1
    return tuple((kind, tally[kind]) for kind in MutationKind)


def _build_variant(template: Clause, choices: tuple[MutationChoice, ...]) -> Variant:
    chosen = {c.site.path: c.replacement for c in choices}
    expr = _apply_combination(template.expr, chosen) if chosen else template.expr
    clause = template.with_expr(expr)
    return Variant(
        expr=expr,
        counts=_make_counts(choices),
        choices=choices,
        text=render_clause(clause),
    )


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

    # Per-site options ordered best score first: (score delta, replacement).
    # Index 0 is always the best, so the all-zeros assignment is the argmax
    # and bumping any index can only lower the score.
    options: list[list[tuple[int, str | None]]] = []
    raw_count = 1
    for site in sites:
        site_options: list[tuple[int, str | None]] = [(0, None)]
        site_options.extend((weights[site.kind], repl) for repl in REPLACEMENTS[site.original_op][1])
        site_options.sort(key=lambda pair: -pair[0])
        options.append(site_options)
        raw_count *= len(site_options)

    template_variant = _build_variant(template, ())
    built: list[Variant] = []
    levels = _walk_levels(template, template_variant, sites, options, cap, weights, built)
    family = Family(template, raw_count, cap, template_variant, levels, built)
    template_leads = all(delta < 0 for site_options in options for delta, _ in site_options[1:])
    if raw_count > cap and not template_leads:
        # Unless every rewrite lowers the score, the template can miss the
        # cap; it then evicts the worst member and reorders the tail. Build
        # it all now, so no reader ever sees a member that is later moved.
        family.variants
    return family


def _walk_levels(
    template: Clause,
    template_variant: Variant,
    sites: list[MutationSite],
    options: list[list[tuple[int, str | None]]],
    cap: int,
    weights: WeightTable,
    built: list[Variant],
) -> Iterator[bool]:
    """Append one score level to ``built`` per step (each yields True)."""

    def assignment_variant(assignment: tuple[int, ...]) -> Variant:
        choices = tuple(
            MutationChoice(site=sites[i], replacement=options[i][idx][1])
            for i, idx in enumerate(assignment)
            if options[i][idx][1] is not None
        )
        return _build_variant(template, choices)

    # Best-first walk over assignments: pop everything at one score, order
    # that batch by text, emit, then descend to the next score. A neighbor
    # (one site bumped to its next option) never scores higher than its
    # parent, so the heap yields scores in non-increasing order and the
    # emitted members are already in family order.
    start = tuple(0 for _ in sites)
    heap: list[tuple[int, tuple[int, ...]]] = [(-_assignment_score(options, start), start)]
    visited = {start}
    batch_limit = max(4 * cap, 16384)
    stopped_early = template_emitted = False
    while heap and not stopped_early:
        batch_score = heap[0][0]
        batch: list[tuple[int, ...]] = []
        while heap and heap[0][0] == batch_score:
            _, assignment = heapq.heappop(heap)
            batch.append(assignment)
            if len(batch) >= batch_limit:
                # Pathologically wide score level; the family is about to be
                # truncated anyway, so give up on full-level text ordering
                # (the partial order is still deterministic).
                stopped_early = True
                break
            for i in range(len(sites)):
                if assignment[i] + 1 < len(options[i]):
                    neighbor = assignment[:i] + (assignment[i] + 1,) + assignment[i + 1 :]
                    if neighbor not in visited:
                        visited.add(neighbor)
                        heapq.heappush(
                            heap, (-_assignment_score(options, neighbor), neighbor)
                        )
        for variant in sorted((assignment_variant(a) for a in batch), key=lambda v: v.text):
            if len(built) >= cap:
                stopped_early = True
                break
            built.append(variant)
            template_emitted = template_emitted or not variant.choices
        yield True

    if not template_emitted:
        # Only reachable under exotic weight tables where positive weights
        # push the template below the cap; the template is a family member
        # by definition, so evict the worst variant to make room.
        if len(built) >= cap:
            built.pop()
        bisect.insort(built, template_variant, key=lambda v: (-score_variant(v, weights), v.text))


def _assignment_score(options: list[list[tuple[int, str | None]]], assignment: tuple[int, ...]) -> int:
    return sum(options[i][idx][0] for i, idx in enumerate(assignment))
