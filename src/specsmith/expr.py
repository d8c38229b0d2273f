"""Expression trees for the supported JML subset, plus the canonical renderer.

The node set covers exactly what the pipeline mutates and evaluates:
integer-typed quantifiers, the logical/comparison/arithmetic operators,
variables, array indexing, ``.length``, ``\\result`` and ``\\old``.
Rendering is canonical — one space around binary operators, minimal
parentheses — so that equal trees always produce byte-identical text.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Expr:
    """Base class for all expression nodes. Immutable and hashable."""

    def children(self) -> tuple[Expr, ...]:
        return ()

    def replace_child(self, index: int, child: Expr) -> Expr:
        raise IndexError(f"{type(self).__name__} has no child {index}")


@dataclass(frozen=True)
class Quantifier(Expr):
    """Three-part JML quantifier ``(\\forall int v; R; B)`` over one int var."""

    kind: str  # "forall" | "exists"
    var: str
    range: Expr
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.range, self.body)

    def replace_child(self, index: int, child: Expr) -> Expr:
        if index == 0:
            return Quantifier(self.kind, self.var, child, self.body)
        if index == 1:
            return Quantifier(self.kind, self.var, self.range, child)
        raise IndexError(f"Quantifier has no child {index}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def replace_child(self, index: int, child: Expr) -> Expr:
        if index == 0:
            return Binary(self.op, child, self.rhs)
        if index == 1:
            return Binary(self.op, self.lhs, child)
        raise IndexError(f"Binary has no child {index}")


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!" | "neg"
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def replace_child(self, index: int, child: Expr) -> Expr:
        if index == 0:
            return Unary(self.op, child)
        raise IndexError(f"Unary has no child {index}")


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class NullLit(Expr):
    pass


@dataclass(frozen=True)
class ArrayIndex(Expr):
    base: Expr
    index: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.base, self.index)

    def replace_child(self, index: int, child: Expr) -> Expr:
        if index == 0:
            return ArrayIndex(child, self.index)
        if index == 1:
            return ArrayIndex(self.base, child)
        raise IndexError(f"ArrayIndex has no child {index}")


@dataclass(frozen=True)
class FieldAccess(Expr):
    base: Expr
    field: str

    def children(self) -> tuple[Expr, ...]:
        return (self.base,)

    def replace_child(self, index: int, child: Expr) -> Expr:
        if index == 0:
            return FieldAccess(child, self.field)
        raise IndexError(f"FieldAccess has no child {index}")


@dataclass(frozen=True)
class ResultRef(Expr):
    pass


@dataclass(frozen=True)
class OldRef(Expr):
    inner: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.inner,)

    def replace_child(self, index: int, child: Expr) -> Expr:
        if index == 0:
            return OldRef(child)
        raise IndexError(f"OldRef has no child {index}")


# Precedence levels, low binds loosest. Equality sits below the relational
# operators (Java/JML order); the two implication arrows share one level with
# incompatible associativity, so mixing them without parentheses is illegal
# and the renderer always parenthesizes the off side.
LEVEL_EQUIV = 1
LEVEL_IMPLIES = 2
LEVEL_OR = 3
LEVEL_AND = 4
LEVEL_EQUALITY = 5
LEVEL_RELATIONAL = 6
LEVEL_ADDITIVE = 7
LEVEL_MULTIPLICATIVE = 8
LEVEL_UNARY = 9
LEVEL_POSTFIX = 10
LEVEL_ATOM = 11

BINARY_LEVEL = {
    "<==>": LEVEL_EQUIV,
    "==>": LEVEL_IMPLIES,
    "<==": LEVEL_IMPLIES,
    "||": LEVEL_OR,
    "&&": LEVEL_AND,
    "==": LEVEL_EQUALITY,
    "!=": LEVEL_EQUALITY,
    "<": LEVEL_RELATIONAL,
    "<=": LEVEL_RELATIONAL,
    ">": LEVEL_RELATIONAL,
    ">=": LEVEL_RELATIONAL,
    "+": LEVEL_ADDITIVE,
    "-": LEVEL_ADDITIVE,
    "*": LEVEL_MULTIPLICATIVE,
    "/": LEVEL_MULTIPLICATIVE,
    "%": LEVEL_MULTIPLICATIVE,
}

RIGHT_ASSOC_OPS = {"==>"}

BOOLEAN_OPS = {"<==>", "==>", "<==", "||", "&&", "==", "!=", "<", "<=", ">", ">="}


def precedence(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return BINARY_LEVEL[expr.op]
    if isinstance(expr, Unary):
        return LEVEL_UNARY
    if isinstance(expr, (ArrayIndex, FieldAccess)):
        return LEVEL_POSTFIX
    return LEVEL_ATOM


def render_expr(expr: Expr) -> str:
    """Canonical text of an expression: minimal parentheses, single spaces."""
    if isinstance(expr, Binary):
        lhs = _render_side(expr.lhs, expr.op, is_rhs=False)
        rhs = _render_side(expr.rhs, expr.op, is_rhs=True)
        return f"{lhs} {expr.op} {rhs}"
    if isinstance(expr, Unary):
        inner = render_expr(expr.operand)
        if precedence(expr.operand) < LEVEL_UNARY or inner.startswith("-"):
            inner = f"({inner})"
        return ("!" if expr.op == "!" else "-") + inner
    if isinstance(expr, Quantifier):
        return (
            f"(\\{expr.kind} int {expr.var}; "
            f"{render_expr(expr.range)}; {render_expr(expr.body)})"
        )
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, ArrayIndex):
        base = render_expr(expr.base)
        if precedence(expr.base) < LEVEL_POSTFIX:
            base = f"({base})"
        return f"{base}[{render_expr(expr.index)}]"
    if isinstance(expr, FieldAccess):
        base = render_expr(expr.base)
        if precedence(expr.base) < LEVEL_POSTFIX:
            base = f"({base})"
        return f"{base}.{expr.field}"
    if isinstance(expr, ResultRef):
        return "\\result"
    if isinstance(expr, OldRef):
        return f"\\old({render_expr(expr.inner)})"
    raise TypeError(f"cannot render {type(expr).__name__}")


def _render_side(child: Expr, parent_op: str, is_rhs: bool) -> str:
    # Every other node binds tighter than any binary operator.
    text = render_expr(child)
    if isinstance(child, Binary) and side_needs_parens(child.op, parent_op, is_rhs):
        return f"({text})"
    return text


def side_needs_parens(child_op: str, parent_op: str, is_rhs: bool) -> bool:
    """Whether a binary operand of operator ``child_op`` is parenthesized on
    the given side of a binary node of operator ``parent_op``."""
    child_level = BINARY_LEVEL[child_op]
    parent_level = BINARY_LEVEL[parent_op]
    if child_level != parent_level:
        return child_level < parent_level
    if (parent_op in RIGHT_ASSOC_OPS) != is_rhs:
        return True  # the side against the operator's associativity
    # ==> and <== associate in opposite directions; mixed chains are only
    # expressible with explicit parentheses.
    return parent_level == LEVEL_IMPLIES and child_op != parent_op


def infer_type(expr: Expr) -> str:
    """Best-effort static type: 'bool', 'int', 'null', or 'unknown'.

    Only definitive shapes are typed; variables, array elements and
    ``\\result`` stay unknown and are enforced at evaluation time instead.
    """
    if isinstance(expr, Binary):
        return "bool" if expr.op in BOOLEAN_OPS else "int"
    if isinstance(expr, Unary):
        return "bool" if expr.op == "!" else "int"
    if isinstance(expr, Quantifier):
        return "bool"
    if isinstance(expr, BoolLit):
        return "bool"
    if isinstance(expr, IntLit):
        return "int"
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, FieldAccess) and expr.field == "length":
        return "int"
    if isinstance(expr, OldRef):
        return infer_type(expr.inner)
    return "unknown"


def walk(expr: Expr, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], Expr]]:
    """Pre-order traversal yielding (path, node) pairs.

    A path is the tuple of child indices from the root; child order is
    positional (Binary: lhs=0, rhs=1; Quantifier: range=0, body=1; ...).
    """
    out: list[tuple[tuple[int, ...], Expr]] = [(path, expr)]
    for i, child in enumerate(expr.children()):
        out.extend(walk(child, path + (i,)))
    return out

