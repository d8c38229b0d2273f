"""Expression trees for the supported JML subset, and its operator table.

The node set covers exactly what the pipeline mutates and evaluates:
integer-typed quantifiers, the logical/comparison/arithmetic operators,
variables, array indexing, ``.length``, ``\\result`` and ``\\old``.
The parser (:mod:`specsmith.parser`) and the renderer
(:mod:`specsmith.schemata`) both read the binary operators' precedence and
associativity from here.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """A class of named fields: the ``__slots__`` of the class and of its
    bases, in that order, or the ``_fields`` of a class without slots, which
    keeps them in its ``__dict__``.

    A record is made from its fields by position or by name; those in its
    class's ``_defaults`` table may be left out, and a class with its own
    ``__init__`` makes its records faster. A record equals a record of its
    own class with equal fields and prints as ``Class(field=value, ...)``;
    :meth:`replace` makes a copy with some fields changed.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields += cls.__dict__.get("__slots__", ())
        fields = cls._fields
        # The fields as a tuple, read in C where there are two or more.
        cls._key = staticmethod(
            attrgetter(*fields) if len(fields) > 1 else lambda record: tuple(getattr(record, f) for f in fields)
        )

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value in order: ``args``, then ``kwargs``, then the defaults."""
        rest = cls._fields[len(args) :]
        if len(args) > len(cls._fields) or set(kwargs) - set(rest) or set(rest) - set(kwargs) - set(cls._defaults):
            raise TypeError(f"{cls.__name__} takes {cls._fields}, got {len(args)} values and {sorted(kwargs)}")
        return [*args, *(kwargs[name] if name in kwargs else cls._defaults[name] for name in rest)]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """This record with the fields named in ``changes`` changed."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


class FrozenRecord(Record):
    """A record that hashes as the tuple of its fields and refuses assignment and deletion."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Expr(FrozenRecord):
    """Base class for all expression nodes. Immutable and hashable."""

    __slots__ = ()

    def children(self) -> tuple[Expr, ...]:
        return ()


class Quantifier(Expr):
    """Three-part JML quantifier ``(\\forall int v; R; B)`` over one int var."""

    __slots__ = ("kind", "var", "range", "body")  # kind: "forall" | "exists"

    def children(self) -> tuple[Expr, ...]:
        return (self.range, self.body)


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)


class Unary(Expr):
    __slots__ = ("op", "operand")  # op: "!" | "neg"

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


class Var(Expr):
    __slots__ = ("name",)


class IntLit(Expr):
    __slots__ = ("value",)


class BoolLit(Expr):
    __slots__ = ("value",)


class NullLit(Expr):
    __slots__ = ()


class ArrayIndex(Expr):
    __slots__ = ("base", "index")

    def children(self) -> tuple[Expr, ...]:
        return (self.base, self.index)


class FieldAccess(Expr):
    __slots__ = ("base", "field")

    def children(self) -> tuple[Expr, ...]:
        return (self.base,)


class ResultRef(Expr):
    __slots__ = ()


class OldRef(Expr):
    __slots__ = ("inner",)

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

