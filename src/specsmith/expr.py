"""Expression trees for the supported JML subset, and its operator table.

The node set covers exactly what the pipeline mutates and evaluates:
integer-typed quantifiers, the logical/comparison/arithmetic operators,
variables, array indexing, ``.length``, ``\\result`` and ``\\old``.
The parser (:mod:`specsmith.parser`) and the renderer
(:mod:`specsmith.schemata`) both read the binary operators' precedence and
associativity from here.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Expr:
    """Base class for all expression nodes. Immutable and hashable."""

    def children(self) -> tuple[Expr, ...]:
        return ()


@dataclass(frozen=True)
class Quantifier(Expr):
    """Three-part JML quantifier ``(\\forall int v; R; B)`` over one int var."""

    kind: str  # "forall" | "exists"
    var: str
    range: Expr
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.range, self.body)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!" | "neg"
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


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


@dataclass(frozen=True)
class FieldAccess(Expr):
    base: Expr
    field: str

    def children(self) -> tuple[Expr, ...]:
        return (self.base,)


@dataclass(frozen=True)
class ResultRef(Expr):
    pass


@dataclass(frozen=True)
class OldRef(Expr):
    inner: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.inner,)


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

