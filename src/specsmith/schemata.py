"""Canonical clause text, and mutant schemata: a template compiled once, its
variants made by substitution.

:class:`_PlanBuilder` writes all expression text in the package. Run with
no mutation sites (:func:`render_expr`), it writes the canonical text: one
space around binary operators and only the parentheses the parse needs, so
equal trees give equal text and every text parses back to its tree.

Following Untch, Offutt & Harrold (ISSTA 1993), a family's members are not
built by rewriting and re-rendering the template's tree. The template is
compiled once into a render plan (:func:`render_plan`): its clause line as
constant parts around one hole per mutation site, for the operator token,
and a parenthesis hole on each operand whose parentheses the sites' options
change. The plan is a straight-line function that joins the parts and one
table lookup per hole. It comes from a factory shared by every plan of the
same layout, generated from placeholder names alone, so clause text is data
and never code, and each layout costs one ``exec`` per process. A member's
text is the plan applied to its assignment. Nothing else is built per
member: a member's tree is the parse of its text (see
:class:`specsmith.clauses.Clause`).
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .expr import (
    ArrayIndex,
    Binary,
    BoolLit,
    Expr,
    FieldAccess,
    IntLit,
    NullLit,
    OldRef,
    Quantifier,
    ResultRef,
    Unary,
    Var,
    side_needs_parens,
)

if TYPE_CHECKING:
    from .clauses import Clause
    from .mutation import MutationSite

# Structural rewrites: the replacement keeps the comparison operator but
# shifts the left operand by one.
DEC_LHS = "- 1 <="
INC_LHS = "+ 1 >="

# A structural rewrite keeps the node's comparison and makes its left operand
# the left operand of a new ``- 1``/``+ 1`` node: (that node's operator, the
# comparison).
_STRUCTURAL = {DEC_LHS: ("-", "<="), INC_LHS: ("+", ">=")}

# A site's options, best score first: (score delta, replacement or None for
# the original operator).
Options = list[tuple[int, "str | None"]]

# A hole of a render plan: (site, second site or None, table). It is filled
# with table[a[site]], or table[a[site]][a[second]] for a parenthesis whose
# presence depends on the sites at both ends of its edge.
_Hole = tuple[int, "int | None", list]


def render_expr(expr: Expr) -> str:
    """Canonical text of an expression: the render plan of a line with no
    sites, less the line's kind and semicolon."""
    builder = _PlanBuilder((), [])
    builder.emit(expr, ())
    return "".join(builder.text)


def render_plan(
    template: Clause, sites: Sequence[MutationSite], options: list[Options]
) -> Callable[[bytes], str]:
    """The template's render plan: a function from a member's assignment (one
    option index per site, in site order) to its clause line. The plan is
    compiled here, once; a member's text reads no other member. The function
    is made by the factory of the plan's layout (:func:`_factory`) from the
    plan's parts, tables and site indexes.
    """
    parts, holes = _compile_plan(template, sites, options)
    values: list = []
    for part, (site, other, table) in zip(parts, holes):
        values += (part, table, site) if other is None else (part, table, site, other)
    values.append(parts[-1])
    return _factory(tuple([other is not None for _, other, _ in holes]))(*values)


@lru_cache(maxsize=1024)
def _factory(layout: tuple[bool, ...]) -> Callable[..., Callable[[bytes], str]]:
    """The factory of the render plans of one layout: whether each hole, in
    text order, is read through one site or two.

    Its source holds only generated names: ``c<i>`` for the constant part
    before hole i (and ``c<n>`` for the part after the last hole), ``t<i>``
    for the hole's table, ``s<i>`` and ``o<i>`` for its sites, and ``join``.
    So no clause text is ever code, and each layout costs one ``exec`` per
    process (while it stays among the last 1024 layouts asked for).
    """
    params, fills = [], []
    for i, paired in enumerate(layout):
        params += (f"c{i}", f"t{i}", f"s{i}", f"o{i}") if paired else (f"c{i}", f"t{i}", f"s{i}")
        fills += (f"c{i}", f"t{i}[a[s{i}]][a[o{i}]]" if paired else f"t{i}[a[s{i}]]")
    last = f"c{len(layout)}"
    source = f"def make({', '.join(params + [last])}):\n    return lambda a: join(({', '.join(fills + [last])},))\n"
    made: dict = {}
    exec(source, {"__builtins__": {}, "join": "".join}, made)
    return made["make"]


def _compile_plan(
    template: Clause, sites: Sequence[MutationSite], options: list[Options]
) -> tuple[list[str], list[_Hole]]:
    """The template's line as its constant parts and its holes, in text
    order: part i comes before hole i, and the last part after the last hole.
    Only the template's kind and tree are read.

    Each site has one hole holding its operator token. An operand of a binary
    node gets parenthesis holes only when its parentheses differ across the
    options of the two nodes: a logical rewrite changes a node's level or
    associativity, and a structural rewrite puts the left operand under a
    new ``-``/``+`` node. Text that no option changes is constant, as
    :func:`render_expr` writes it.
    """
    plan = _PlanBuilder(sites, options)
    plan.text.append(f"//@ {template.kind.value} ")
    plan.emit(template.expr, ())
    plan.text.append(";")
    plan.parts.append("".join(plan.text))
    return plan.parts, plan.holes


class _PlanBuilder:
    """The state of one render: a plan's compile, or :func:`render_expr`
    with no sites. Its steps are methods, not closures that call each other,
    so rendering leaves no reference cycle for the cycle collector."""

    __slots__ = ("site_at", "replacements", "parts", "text", "holes", "after_minus")

    def __init__(self, sites: Sequence[MutationSite], options: list[Options]):
        self.site_at = {site.path: index for index, site in enumerate(sites)}
        self.replacements = [tuple([r for _, r in site_options]) for site_options in options]
        self.parts: list[str] = []  # the constant text before each hole
        self.text: list[str] = []  # constant text since the last hole
        self.holes: list[_Hole] = []
        self.after_minus: tuple[int, ...] | None = None  # the path of a literal right after a unary minus

    def put(self, part: str | _Hole) -> None:
        if isinstance(part, str):
            self.text.append(part)
        else:
            self.parts.append("".join(self.text))
            self.text.clear()
            self.holes.append(part)

    def forms(self, node: Binary, path: tuple[int, ...]) -> tuple[int | None, tuple[tuple[str, ...], ...]]:
        index = self.site_at.get(path)
        return index, _binary_forms(node.op, (None,) if index is None else self.replacements[index])

    def operand(
        self, node: Expr, path: tuple[int, ...], parent: int | None, parent_ops: tuple[str, ...], is_rhs: bool
    ) -> None:
        if not isinstance(node, Binary):  # binds tighter than any binary operator
            self.emit(node, path)
            return
        index, (_, _, ops) = self.forms(node, path)
        fixed, depends, opening, closing = _parens(parent_ops, ops, is_rhs)
        if not fixed:
            sites = (parent, None) if depends == "parent" else (parent, index)
            opening, closing = (*sites, opening), (*sites, closing)
        self.put(opening)
        self.emit(node, path)
        self.put(closing)

    def emit(self, node: Expr, path: tuple[int, ...]) -> None:
        text = self.text
        if isinstance(node, Binary):
            index, (tokens, shifts, ops) = self.forms(node, path)
            self.operand(node.lhs, path + (0,), index, shifts, is_rhs=False)
            self.put(tokens[0] if index is None else (index, None, tokens))
            self.operand(node.rhs, path + (1,), index, ops, is_rhs=True)
        elif isinstance(node, Var):
            text.append(node.name)
        elif isinstance(node, IntLit):
            # The parser folds a minus into the literal right after it.
            text.append(f"({node.value})" if path == self.after_minus else str(node.value))
        elif isinstance(node, (ArrayIndex, FieldAccess)):
            wrap = _wrapped_base(node.base)
            text.append("(" if wrap else "")
            self.emit(node.base, path + (0,))
            text.append(")" if wrap else "")
            if isinstance(node, ArrayIndex):
                text.append("[")
                self.emit(node.index, path + (1,))
                text.append("]")
            else:
                text.append(f".{node.field}")
        elif isinstance(node, Unary):
            # The node that writes the operand's first character: the operand,
            # or the base under its bare postfixes. Sites are binary nodes and
            # quantifiers, so it is the same in every member.
            first, first_path = node.operand, path + (0,)
            while isinstance(first, (ArrayIndex, FieldAccess)) and not _wrapped_base(first.base):
                first, first_path = first.base, first_path + (0,)
            # Parenthesized: a binary operand, or one whose text starts with a minus.
            wrap = isinstance(node.operand, Binary) or (
                isinstance(first, Unary) and first.op == "neg" or isinstance(first, IntLit) and first.value < 0
            )
            if node.op == "neg" and not wrap and isinstance(first, IntLit):
                self.after_minus = first_path
            text.append(("!" if node.op == "!" else "-") + ("(" if wrap else ""))
            self.emit(node.operand, path + (0,))
            text.append(")" if wrap else "")
        elif isinstance(node, Quantifier):
            index = self.site_at.get(path)
            text.append("(")
            if index is None:
                text.append(f"\\{node.kind}")
            else:
                self.put((index, None, [f"\\{node.kind}" if r is None else r for r in self.replacements[index]]))
            text.append(f" int {node.var}; ")
            self.emit(node.range, path + (0,))
            text.append("; ")
            self.emit(node.body, path + (1,))
            text.append(")")
        elif isinstance(node, OldRef):
            text.append("\\old(")
            self.emit(node.inner, path + (0,))
            text.append(")")
        elif isinstance(node, BoolLit):
            text.append("true" if node.value else "false")
        elif isinstance(node, NullLit):
            text.append("null")
        elif isinstance(node, ResultRef):
            text.append("\\result")
        else:
            raise TypeError(f"cannot render {type(node).__name__}")


def _wrapped_base(base: Expr) -> bool:
    """Whether the base of an index or ``.length`` is parenthesized: an
    operator binds looser than the postfix, and a negative literal's minus
    would fold into the literal alone."""
    return isinstance(base, (Binary, Unary)) or isinstance(base, IntLit) and base.value < 0


@lru_cache(maxsize=None)
def _binary_forms(op: str, replacements: tuple[str | None, ...]) -> tuple[tuple[str, ...], ...]:
    """Per option of a binary node: its operator token, the operator its left
    operand sits under, and its own operator."""
    forms = []
    for replacement in replacements:
        if replacement is None:
            forms.append((f" {op} ", op, op))
        elif replacement in _STRUCTURAL:
            forms.append((f" {replacement} ", *_STRUCTURAL[replacement]))
        else:
            forms.append((f" {replacement} ", replacement, replacement))
    return tuple(zip(*forms))


@lru_cache(maxsize=None)
def _parens(
    parent_ops: tuple[str, ...], child_ops: tuple[str, ...], is_rhs: bool
) -> tuple[bool, str, str | tuple, str | tuple]:
    """The parentheses of a binary operand, given per option the operator of
    its parent and its own: (fixed, which options decide, opening, closing).

    Fixed parentheses are the marks or nothing; otherwise the two tables are
    indexed by the parent's option for ``"parent"``, or by the parent's and
    then the child's for ``"both"``. The child's option alone would decide
    only for a logical child that is a site under a logical parent that is
    not; sites are enabled by kind, so that never arises.
    """
    needed = [[side_needs_parens(op, parent_op, is_rhs) for op in child_ops] for parent_op in parent_ops]

    def marks(table, mark: str):
        return [mark if n else "" for n in table]

    if len({n for row in needed for n in row}) == 1:  # no option matters
        return (True, "", *(mark if needed[0][0] else "" for mark in "()"))
    if all(len(set(row)) == 1 for row in needed):  # the child's option does not matter
        column = [row[0] for row in needed]
        return (False, "parent", marks(column, "("), marks(column, ")"))
    return (False, "both", [marks(row, "(") for row in needed], [marks(row, ")") for row in needed])

