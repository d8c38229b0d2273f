"""Mutant schemata: a template compiled once, its variants made by substitution.

Following Untch, Offutt & Harrold (ISSTA 1993), a family's members are not
built by rewriting and re-rendering the template's tree. The template is
compiled once into a render plan: its clause line as a format with one hole
per mutation site, for the operator token, and a parenthesis hole on each
operand whose parentheses the sites' options change. A member's text is the
plan filled from its assignment. Its tree is rebuilt only when asked for.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .clauses import Clause
from .expr import (
    LEVEL_POSTFIX,
    ArrayIndex,
    Binary,
    Expr,
    FieldAccess,
    IntLit,
    OldRef,
    Quantifier,
    Unary,
    precedence,
    render_expr,
    side_needs_parens,
)

if TYPE_CHECKING:
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


class Schema:
    """A template compiled for its family: its enabled sites, their options,
    and the render plan, compiled on the first ``render``.

    A member is an assignment of one option index to every site, in site
    order. Its text is filled in from the plan and its tree rebuilt from the
    template; neither reads any other member.
    """

    __slots__ = ("template", "sites", "options", "_plan")

    def __init__(self, template: Clause, sites: Sequence[MutationSite], options: list[Options]):
        self.template = template
        self.sites = sites
        self.options = options
        self._plan: tuple[str, list[_Hole]] | None = None

    def render(self, assignment: tuple[int, ...]) -> str:
        """The clause line of ``assignment``, filled in from the plan."""
        if self._plan is None:
            self._plan = _compile_plan(self.template, self.sites, self.options)
        form, holes = self._plan
        return form % tuple(
            [
                table[assignment[site]] if other is None else table[assignment[site]][assignment[other]]
                for site, other, table in holes
            ]
        )

    def tree(self, assignment: tuple[int, ...]) -> Expr:
        chosen = {
            site.path: replacement
            for site, site_options, index in zip(self.sites, self.options, assignment)
            if (replacement := site_options[index][1]) is not None
        }
        return _apply_combination(self.template.expr, chosen) if chosen else self.template.expr


def _compile_plan(
    template: Clause, sites: Sequence[MutationSite], options: list[Options]
) -> tuple[str, list[_Hole]]:
    """The template's line as a %-format and its holes, in text order.

    Each site has one hole holding its operator token. An operand of a binary
    node gets parenthesis holes only when its parentheses differ across the
    options of the two nodes: a logical rewrite changes a node's level or
    associativity, and a structural rewrite puts the left operand under a
    new ``-``/``+`` node. Text that no option changes is rendered once, as
    ``render_expr`` renders it.
    """
    site_at = {site.path: index for index, site in enumerate(sites)}
    above_sites = {site.path[:depth] for site in sites for depth in range(len(site.path))}
    replacements = [tuple([r for _, r in site_options]) for site_options in options]
    form: list[str] = []  # the constant text before each hole
    text: list[str] = []  # constant text since the last hole
    holes: list[_Hole] = []

    def put(part: str | _Hole) -> None:
        if isinstance(part, str):
            text.append(part)
        else:
            form.append("".join(text).replace("%", "%%"))
            text.clear()
            holes.append(part)

    def forms(node: Binary, path: tuple[int, ...]) -> tuple[int | None, tuple[tuple[str, ...], ...]]:
        index = site_at.get(path)
        return index, _binary_forms(node.op, (None,) if index is None else replacements[index])

    def operand(node: Expr, path: tuple[int, ...], parent: int | None, parent_ops: tuple[str, ...], is_rhs: bool) -> None:
        if not isinstance(node, Binary):  # binds tighter than any binary operator
            emit(node, path)
            return
        index, (_, _, ops) = forms(node, path)
        fixed, depends, opening, closing = _parens(parent_ops, ops, is_rhs)
        if not fixed:
            sites = (parent, None) if depends == "parent" else (index, None) if depends == "child" else (parent, index)
            opening, closing = (*sites, opening), (*sites, closing)
        put(opening)
        emit(node, path)
        put(closing)

    def emit(node: Expr, path: tuple[int, ...]) -> None:
        if path not in site_at and path not in above_sites:
            text.append(render_expr(node))
        elif isinstance(node, Binary):
            index, (tokens, shifts, ops) = forms(node, path)
            operand(node.lhs, path + (0,), index, shifts, is_rhs=False)
            put(tokens[0] if index is None else (index, None, tokens))
            operand(node.rhs, path + (1,), index, ops, is_rhs=True)
        elif isinstance(node, Quantifier):
            index = site_at.get(path)
            text.append("(")
            if index is None:
                text.append(f"\\{node.kind}")
            else:
                put((index, None, [f"\\{node.kind}" if r is None else r for r in replacements[index]]))
            text.append(f" int {node.var}; ")
            emit(node.range, path + (0,))
            text.append("; ")
            emit(node.body, path + (1,))
            text.append(")")
        elif isinstance(node, Unary):
            # The operand's first character is the same in every member.
            wrap = isinstance(node.operand, Binary) or render_expr(node.operand).startswith("-")
            text.append(("!" if node.op == "!" else "-") + ("(" if wrap else ""))
            emit(node.operand, path + (0,))
            text.append(")" if wrap else "")
        elif isinstance(node, (ArrayIndex, FieldAccess)):
            wrap = precedence(node.base) < LEVEL_POSTFIX
            text.append("(" if wrap else "")
            emit(node.base, path + (0,))
            text.append(")" if wrap else "")
            if isinstance(node, ArrayIndex):
                text.append("[")
                emit(node.index, path + (1,))
                text.append("]")
            else:
                text.append(f".{node.field}")
        elif isinstance(node, OldRef):
            text.append("\\old(")
            emit(node.inner, path + (0,))
            text.append(")")
        else:
            raise TypeError(f"cannot compile {type(node).__name__}")

    text.append(f"//@ {template.kind.value} ")
    emit(template.expr, ())
    text.append(";")
    form.append("".join(text).replace("%", "%%"))
    return "%s".join(form), holes


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
    indexed by the deciding option, ``"parent"`` or ``"child"``, or by the
    parent's and then the child's for ``"both"``.
    """
    needed = [[side_needs_parens(op, parent_op, is_rhs) for op in child_ops] for parent_op in parent_ops]

    def marks(table, mark: str):
        return [mark if n else "" for n in table]

    if all(row == needed[0] for row in needed):  # the parent's option does not matter
        if len(set(needed[0])) == 1:
            return (True, "", *(mark if needed[0][0] else "" for mark in "()"))
        return (False, "child", marks(needed[0], "("), marks(needed[0], ")"))
    if all(len(set(row)) == 1 for row in needed):  # the child's option does not matter
        column = [row[0] for row in needed]
        return (False, "parent", marks(column, "("), marks(column, ")"))
    return (False, "both", [marks(row, "(") for row in needed], [marks(row, ")") for row in needed])


def _rewrite(node: Expr, replacement: str) -> Expr:
    """Rewrite a site's node, a ``Quantifier`` or a mutable ``Binary``."""
    if isinstance(node, Quantifier):
        return Quantifier(replacement[1:], node.var, node.range, node.body)
    if replacement in _STRUCTURAL:
        shift, op = _STRUCTURAL[replacement]
        return Binary(op, Binary(shift, node.lhs, IntLit(1)), node.rhs)
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
