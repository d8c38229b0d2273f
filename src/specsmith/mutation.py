"""Mutation operators, weighted scoring, and best-first family enumeration.

Each clause yields a fixed list of mutation sites (one per mutable operator
occurrence). A variant is the clause with some subset of sites rewritten: an
assignment of one option to every site. The family of a template is every
such variant, ordered by score (descending), then text (ascending).
Distinct assignments always render distinct texts: a rewrite keeps its node's
position and changes only its operator, and a structural rewrite adds a
``± 1`` node no other assignment can produce. So a family's size and its
truncation flag follow from the raw combination count alone, and members are
built one score level at a time, only as far as a reader asks. The walk over
assignments generates each one once, from its canonical parent (reverse
search), so it keeps no visited set.

Members are made as mutant schemata (:mod:`specsmith.schemata`): the
template is compiled once into a render plan, and each member's text is
that plan filled from its assignment. A member is its template, assignment,
text and score; its tree is the parse of its text, made only when a reader
asks for it (the trace adapter, on a clause it has not checked before). The
template member takes the template's own text and tree, and the plan is
compiled only when a reader asks for a member past the template.

Everything a family needs that depends only on the template's line, the
enabled kinds and the weight table is a :class:`TemplatePlan`: the sites,
their options, the walk's tables and the render plan. :func:`template_plan`
makes each one once and shares it between every family of that line; a
family adds its template clause, with its anchor and id, and its cap.
"""
from __future__ import annotations

import heapq
import math
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .clauses import Clause, _clause
from .expr import Binary, Expr, FrozenRecord, Quantifier, walk
from .schemata import DEC_LHS, INC_LHS, Options, render_plan


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


class WeightTable(FrozenRecord):
    """Per-kind mutation weights for the selection score."""

    _defaults = {"comparative": -1, "logical": -2, "arithmetic": -4, "predicative": -4}
    __slots__ = tuple(_defaults)

    def __getitem__(self, kind: MutationKind) -> int:
        return getattr(self, kind.value)

    def __hash__(self) -> int:  # spelled out: every family's plan lookup hashes the table
        return hash((self.comparative, self.logical, self.arithmetic, self.predicative))


DEFAULT_WEIGHTS = WeightTable()


class MutationSite(FrozenRecord):
    __slots__ = ("path", "kind", "original_op")


class Variant:
    """One family member: its template, its assignment (one option index per
    enabled site, in site order), its canonical clause line and its score.

    Its clause is built on first read.
    """

    __slots__ = ("template", "assignment", "text", "score", "_clause")

    def __init__(
        self,
        template: Clause,
        assignment: tuple[int, ...],
        text: str,
        score: int,
        clause: Clause | None = None,
    ):
        self.template = template
        self.assignment = assignment
        self.text = text
        self.score = score
        self._clause = clause

    @property
    def clause(self) -> Clause:
        """The template's kind, anchor and id with this member's text; its
        expression is parsed from that text on first read."""
        clause = self._clause
        if clause is None:
            template = self.template
            clause = self._clause = _clause(
                {"kind": template.kind, "text": self.text, "anchor": template.anchor, "id": template.id}
            )
        return clause

    def __repr__(self) -> str:
        return f"Variant({self.text!r}, score={self.score})"


class TemplatePlan:
    """What every family of one template line shares, for one set of enabled
    kinds and one weight table: the enabled sites, their options (best
    score first), the raw combination count, the template's assignment,
    the walk's per-site tables, and the render plan, compiled the first time
    a family needs a member past its template.

    ``template`` has no anchor or id, so the families of every clause with
    that line can share the plan. Two threads that race on the compile only
    do the work twice.
    """

    __slots__ = (
        "sites",
        "options",
        "raw_count",
        "assignment",
        "deltas",
        "tails",
        "first_steps",
        "top",
        "_template",
        "_render",
    )

    def __init__(self, template: Clause, enabled: frozenset[MutationKind], weights: WeightTable):
        self.sites = [s for s in enumerate_sites(template.expr) if s.kind in enabled]
        # Per-site options ordered best score first. The all-zeros assignment
        # is the argmax and bumping any index can only lower the score.
        self.options: list[Options] = []
        for site in self.sites:
            site_options: Options = [(0, None)]
            site_options.extend((weights[site.kind], repl) for repl in REPLACEMENTS[site.original_op][1])
            site_options.sort(key=lambda pair: -pair[0])
            self.options.append(site_options)
        self.raw_count = math.prod(len(site_options) for site_options in self.options)
        self.assignment = tuple([r for _, r in site_options].index(None) for site_options in self.options)
        self.deltas = [[delta for delta, _ in site_options] for site_options in self.options]
        n = len(self.deltas)
        # Bumping a site i past the last bumped one: the assignment's first i
        # indexes, then ``tails[i]``, at a cost of ``first_steps[i]``.
        self.tails = [(1,) + (0,) * (n - i - 1) for i in range(n)]
        self.first_steps = [site[0] - site[1] for site in self.deltas]
        self.top = sum(site[0] for site in self.deltas)  # the best score
        self._template = template
        self._render: Callable[[tuple[int, ...]], str] | None = None

    @property
    def render(self) -> Callable[[tuple[int, ...]], str]:
        """The render plan (:func:`~specsmith.schemata.render_plan`)."""
        render = self._render
        if render is None:
            render = self._render = render_plan(self._template, self.sites, self.options)
        return render


@lru_cache(maxsize=1024)
def template_plan(template: Clause, enabled: frozenset[MutationKind], weights: WeightTable) -> TemplatePlan:
    """The plan that every family of ``template``'s line shares.

    ``template`` has no anchor or id; a clause compares and hashes by its
    kind and canonical line, so every clause of that line finds the plan
    made on the first one's tree, and nothing is parsed here. Each plan is
    made once while it stays among the last 1024 asked for. The cache is
    safe to share between threads.
    """
    return TemplatePlan(template, enabled, weights)


class Family:
    """The variants of one template clause, built best-first on demand.

    ``plan`` is the template's :class:`TemplatePlan`. Members are ordered by
    score (descending), then text (ascending), except that the template, a
    member by definition, takes the last place within the cap when it would
    miss it. The enumeration advances one score level at a time and only as
    far as a reader asks: ``get(i)`` builds just enough levels, ``variants``
    builds the whole family, and ``len()`` and ``truncated`` build nothing,
    since every raw combination is a distinct member up to the cap.
    """

    def __init__(self, template: Clause, plan: TemplatePlan, cap: int):
        self.template = template
        self.plan = plan
        self.raw_count = plan.raw_count
        self.cap = cap
        self.template_variant = Variant(template, plan.assignment, template.text, 0, template)
        self._built: list[Variant] = []
        # Each step appends a score level to ``_built``.
        self._levels = _walk_levels(self.template_variant, plan, cap, self._built)

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
    truncated flag set, and a template that would miss the cap takes the
    last place. Nothing is built until a reader asks for members (see
    :class:`Family`). The family shares the plan of its line
    (:func:`template_plan`).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    plan = template_plan(template.unplaced, frozenset(kinds), weights or DEFAULT_WEIGHTS)
    return Family(template, plan, cap)


def _walk_levels(template_variant: Variant, plan: TemplatePlan, cap: int, built: list[Variant]) -> Iterator[bool]:
    """Append one score level to ``built`` per step (each yields True).

    The template is a member even where its place would miss the cap, so
    while it is unemitted the other members fill at most ``cap - 1`` places;
    if the walk ends without it, it is appended last. An unemitted template follows
    every member built so far in family order, so no built member moves.
    """
    template, template_assignment = template_variant.template, template_variant.assignment
    template_text = template_variant.text
    render = None  # the render plan, compiled for the first member past the template
    deltas, tails, first_steps = plan.deltas, plan.tails, plan.first_steps
    # Best-first walk over assignments: pop everything at one score, order
    # that batch by text, emit, then descend to the next score. Heap entries
    # hold the negated score, the assignment and its last bumped site (-1
    # for the all-zeros start).
    #
    # Each assignment is pushed once, by its canonical parent: the same
    # assignment with its last bumped site stepped back one option (reverse
    # search; Avis & Fukuda, 1996). So a popped assignment bumps only its
    # last bumped site and the sites after it, which are all still at
    # option 0, and no visited set is needed.
    #
    # The pop order is that of a walk over every neighbor with a visited
    # set. A bump never raises the score, so scores pop in non-increasing
    # order. A parent is lexicographically smaller than its child. Suppose a
    # level popped b while an assignment a < b of the same score was still
    # unpopped. On the parent path from a, the child of a's nearest popped
    # ancestor would be on the heap, at that score (no higher, or it would
    # have popped in an earlier level; no lower, as a descends from it)
    # and no greater than a, so it would have popped before b. Each level
    # thus pops in lexicographic order of assignment, zero-delta bumps
    # included, and the batch-limit cut and the cap get the same inputs as
    # in the visited-set walk.
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(deltas)
    start = (0,) * n
    heap: list[tuple[int, tuple[int, ...], int]] = [(-plan.top, start, -1)]
    batch_limit = max(4 * cap, 16384)
    room = cap - 1  # places for members other than the template
    stopped_early = False
    while heap and not stopped_early:
        batch_cost = heap[0][0]
        batch: list[tuple[int, ...]] = []
        while heap and heap[0][0] == batch_cost:
            _, assignment, last = heappop(heap)
            batch.append(assignment)
            if len(batch) >= batch_limit:
                # Pathologically wide score level; the family is about to be
                # truncated anyway, so give up on full-level text ordering
                # (the partial order is still deterministic).
                stopped_early = True
                break
            if last >= 0:
                site = deltas[last]
                index = assignment[last]
                if index + 1 < len(site):
                    cost = batch_cost + site[index] - site[index + 1]
                    heappush(heap, (cost, assignment[:last] + (index + 1,) + start[last + 1 :], last))
            for i in range(last + 1, n):
                heappush(heap, (batch_cost + first_steps[i], assignment[:i] + tails[i], i))
        if render is None and batch != [template_assignment]:
            render = plan.render
        # The level in family order (distinct assignments render distinct
        # texts, so the texts decide it); a member is made only once kept.
        level = [
            (template_text if assignment == template_assignment else render(assignment), assignment)
            for assignment in batch
        ]
        level.sort()
        for text, assignment in level:
            if assignment == template_assignment:
                room = cap
                built.append(template_variant)
            elif len(built) >= room:
                stopped_early = True
                break
            else:
                built.append(Variant(template, assignment, text, -batch_cost))
        yield True

    if room < cap:
        built.append(template_variant)
