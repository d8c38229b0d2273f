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
their options, the walk's tables, the render plan and, per cap, the family
order walked so far, kept as assignments of one byte per site.
:func:`template_plan` makes each one once and shares it between every
family of that line. A family adds its template clause, with its anchor and
id, and its cap, and makes its own members; it walks only the levels no
earlier family of the line has, so a line that recurs walks no heap.
"""
from __future__ import annotations

import heapq
import math
import threading
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable

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
    enabled site, in site order, one byte each), its canonical clause line
    and its score.

    Its clause is built on first read.
    """

    __slots__ = ("template", "assignment", "text", "score", "_clause")

    def __init__(
        self,
        template: Clause,
        assignment: bytes,
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
    the walk's per-site tables, the render plan, compiled the first time a
    family needs a member past its template, and per cap the walk so far.

    ``template`` has no anchor or id, so the families of every clause with
    that line can share the plan. It holds no member and no member text: a
    walk keeps assignments, one byte per site, and its heap until it ends.
    Walks advance under ``lock``, so families in several threads can share
    the plan; two threads that race on the render compile only do the work
    twice.
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
        "lock",
        "_template",
        "_render",
        "_walks",
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
        self.assignment = bytes([r for _, r in site_options].index(None) for site_options in self.options)
        self.deltas = [[delta for delta, _ in site_options] for site_options in self.options]
        n = len(self.deltas)
        # Bumping a site i past the last bumped one: the assignment's first i
        # indexes, then ``tails[i]``, at a cost of ``first_steps[i]``.
        head = b"\x01" + bytes(n)
        self.tails = [head[: n - i] for i in range(n)]
        self.first_steps = [site[0] - site[1] for site in self.deltas]
        self.top = sum(site[0] for site in self.deltas)  # the best score
        self.lock = threading.Lock()
        self._template = template
        self._render: Callable[[bytes], str] | None = None
        self._walks: dict[int, _Walk] = {}

    @property
    def render(self) -> Callable[[bytes], str]:
        """The render plan (:func:`~specsmith.schemata.render_plan`)."""
        render = self._render
        if render is None:
            render = self._render = render_plan(self._template, self.sites, self.options)
        return render

    def walk(self, cap: int) -> _Walk:
        """The walk of the family order under ``cap``, made on first use."""
        walk = self._walks.get(cap)
        # Of two threads that race here, both get the walk made first.
        return walk if walk is not None else self._walks.setdefault(cap, _Walk(self, cap))


class _Walk:
    """The family order of one plan under one cap, walked one score level at
    a time and recorded as it goes: the kept members' assignments joined in
    family order (``order``), and each level's score and end, the member
    count up to it.

    Levels are only appended, so a family reads a recorded level without a
    lock. :meth:`step` walks the next one, under the plan's lock.
    """

    __slots__ = ("order", "scores", "ends", "_heap", "_room", "_cap")

    def __init__(self, plan: TemplatePlan, cap: int):
        self.order = bytearray()
        self.scores: list[int] = []
        self.ends: list[int] = []
        # (negated score, assignment, last bumped site or -1); None once over.
        self._heap: list[tuple[int, bytes, int]] | None = [(-plan.top, bytes(len(plan.deltas)), -1)]
        self._room = cap - 1  # places for members other than the template
        self._cap = cap

    def step(self, plan: TemplatePlan) -> list[tuple[str, bytes]] | None:
        """Walk and record the next score level: its kept members' texts and
        assignments in family order, or None past the family's end.

        The template is a member even where its place would miss the cap, so
        while it is unemitted the other members fill at most ``cap - 1``
        places; if the walk ends without it, it is the last level. An
        unemitted template follows every member walked so far in family
        order, so no recorded member moves.
        """
        heap, cap = self._heap, self._cap
        if heap is None:
            return None
        template_text, template_assignment = plan._template.text, plan.assignment
        if not heap:  # the walk has ended
            self._heap = None
            return None if self._room == cap else self._record(0, [(template_text, template_assignment)])
        # Best-first walk over assignments: pop everything at one score, order
        # that batch by text and keep it up to the cap; the next step descends
        # to the next score.
        #
        # Each assignment is pushed once, by its canonical parent: the same
        # assignment with its last bumped site stepped back one option
        # (reverse search; Avis & Fukuda, 1996). So a popped assignment bumps
        # only its last bumped site and the sites after it, which are all
        # still at option 0, and no visited set is needed.
        #
        # The pop order is that of a walk over every neighbor with a visited
        # set. A bump never raises the score, so scores pop in non-increasing
        # order. A parent is lexicographically smaller than its child.
        # Suppose a level popped b while an assignment a < b of the same
        # score was still unpopped. On the parent path from a, the child of
        # a's nearest popped ancestor would be on the heap, at that score (no
        # higher, or it would have popped in an earlier level; no lower, as a
        # descends from it) and no greater than a, so it would have popped
        # before b. Each level thus pops in lexicographic order of
        # assignment, zero-delta bumps included, and the batch-limit cut and
        # the cap get the same inputs as in the visited-set walk.
        heappush, heappop = heapq.heappush, heapq.heappop
        deltas, tails, first_steps = plan.deltas, plan.tails, plan.first_steps
        n = len(deltas)
        batch_limit = max(4 * cap, 16384)
        batch_cost = heap[0][0]
        batch: list[bytes] = []
        while heap and heap[0][0] == batch_cost:
            _, assignment, last = heappop(heap)
            batch.append(assignment)
            if len(batch) >= batch_limit:
                # Pathologically wide score level; the family is about to be
                # truncated anyway, so give up on full-level text ordering
                # (the partial order is still deterministic).
                heap.clear()
                break
            if last >= 0:
                site = deltas[last]
                index = assignment[last] + 1
                if index < len(site):
                    cost = batch_cost + site[index - 1] - site[index]
                    heappush(heap, (cost, assignment[:last] + bytes((index,)) + assignment[last + 1 :], last))
            for i in range(last + 1, n):
                heappush(heap, (batch_cost + first_steps[i], assignment[:i] + tails[i], i))
        # The level in family order (distinct assignments render distinct
        # texts, so the texts decide it), cut at the cap.
        if batch == [template_assignment]:
            level = [(template_text, template_assignment)]
        else:
            render = plan.render
            level = [
                (template_text if assignment == template_assignment else render(assignment), assignment)
                for assignment in batch
            ]
            level.sort()
        room, walked = self._room, len(self.ends) and self.ends[-1]
        if walked + len(level) > room:  # the cap cuts this level
            for place, (_, assignment) in enumerate(level):
                if assignment == template_assignment:
                    room = cap
                elif walked + place >= room:
                    del level[place:]
                    heap.clear()
                    break
        elif room < cap and template_assignment in batch:
            room = cap
        self._room = room
        return self._record(-batch_cost, level)

    def _record(self, score: int, level: list) -> list:
        self.order += b"".join([assignment for _, assignment in level])
        self.scores.append(score)
        self.ends.append((len(self.ends) and self.ends[-1]) + len(level))  # last: readers check it
        return level


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
    miss it. A family is a view of the plan's walk under its cap: it makes
    its own members, with its template's anchor and id, one score level at
    a time and only as far as a reader asks. ``get(i)`` builds just enough
    levels, ``variants`` builds the whole family, and ``len()`` and
    ``truncated`` build nothing, since every raw combination is a distinct
    member up to the cap. The first family to reach a level walks it and
    keeps the texts its sort rendered; a later one renders the record.
    """

    def __init__(self, template: Clause, plan: TemplatePlan, cap: int):
        self.template = template
        self.plan = plan
        self.raw_count = plan.raw_count
        self.cap = cap
        self.template_variant = Variant(template, plan.assignment, template.text, 0, template)
        self._built: list[Variant] = []  # the members of the levels read so far
        self._walk: _Walk | None = None  # the plan's walk under the cap, from the first read
        self._levels = 0  # the levels read so far

    def get(self, index: int) -> Variant | None:
        """The member at ``index`` in family order, or None past the end."""
        built = self._built
        while index >= len(built) and self._read_level():
            pass
        return built[index] if index < len(built) else None

    @property
    def variants(self) -> list[Variant]:
        while self._read_level():
            pass
        return self._built

    @property
    def truncated(self) -> bool:
        return self.raw_count > self.cap

    def __len__(self) -> int:
        return min(self.raw_count, self.cap)

    def _read_level(self) -> bool:
        """Build the members of the next level; False past the family's end."""
        plan, walk, k = self.plan, self._walk, self._levels
        if walk is None:
            walk = self._walk = plan.walk(self.cap)
        level = None
        if k == len(walk.ends):
            with plan.lock:
                if k == len(walk.ends):  # no other family walked it meanwhile
                    level = walk.step(plan)
                    if level is None:
                        return False
        self._levels = k + 1
        template, template_assignment, score = self.template, plan.assignment, walk.scores[k]
        built, template_variant = self._built, self.template_variant
        if level is not None:  # walked just now: its sort rendered the texts
            for text, assignment in level:
                is_template = assignment == template_assignment
                built.append(template_variant if is_template else Variant(template, assignment, text, score))
            return True
        # Recorded: n bytes per member; a line with no site has its template alone.
        n, start, end = len(template_assignment), walk.ends[k - 1] if k else 0, walk.ends[k]
        packed = bytes(walk.order[start * n : end * n])
        render = None
        for assignment in [packed[i : i + n] for i in range(0, len(packed), n)] if n else [packed]:
            if assignment == template_assignment:
                built.append(template_variant)
            else:
                render = render or plan.render
                built.append(Variant(template, assignment, render(assignment), score))
        return True


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
