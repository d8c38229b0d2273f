"""Trace records and expression evaluation against them.

Evaluation is pure: a value is computed from (expression, record) alone.
Integers are arbitrary precision; ``/`` and ``%`` truncate toward zero the
way Java does. ``&&``, ``||`` and ``==>`` short-circuit so guarded accesses
like ``i < a.length && a[i] > 0`` never fault on the guarded side.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .clauses import Anchor
from .errors import (
    DivisionByZero,
    EvalTypeError,
    IndexOutOfRange,
    MissingOldSnapshot,
    UnboundedQuantifier,
    UnboundVariable,
)
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
)


class _NullValue:
    """The JML ``null`` reference; a singleton distinct from Python None."""

    _instance: _NullValue | None = None

    def __new__(cls) -> _NullValue:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"


NULL = _NullValue()

Value = Union[int, bool, list, str, _NullValue]

# Hard ceiling on quantifier domain width; anything wider is treated the same
# as an unextractable bound rather than silently iterating forever.
MAX_QUANTIFIER_WIDTH = 1_000_000


class Phase(Enum):
    PRE = "pre"
    POST = "post"
    ITER = "iter"


@dataclass
class TraceRecord:
    """One observation: variable bindings at an anchored program point."""

    anchor: Anchor
    phase: Phase
    bindings: dict[str, Value]
    result: Value | None = None  # None means "not recorded"
    old: dict[str, Value] | None = None


@dataclass
class _Env:
    bindings: dict[str, Value]
    old: dict[str, Value] | None
    result: Value | None
    overlay: dict[str, int] = field(default_factory=dict)


def eval_expr(expr: Expr, record: TraceRecord) -> Value:
    """Evaluate an expression against one trace record."""
    env = _Env(record.bindings, record.old, record.result)
    return _eval(expr, env)


def _lookup(env: _Env, name: str) -> Value:
    if name in env.overlay:
        return env.overlay[name]
    if name in env.bindings:
        return env.bindings[name]
    raise UnboundVariable(f"variable {name!r} is not bound in the trace record")


def _require_int(value: Value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvalTypeError(f"{context} needs an integer, got {value!r}")
    return value


def _require_bool(value: Value, context: str) -> bool:
    if not isinstance(value, bool):
        raise EvalTypeError(f"{context} needs a boolean, got {value!r}")
    return value


def _java_div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _java_rem(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("remainder by zero")
    return a - b * _java_div(a, b)


def _values_equal(a: Value, b: Value) -> bool:
    if a is NULL or b is NULL:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        raise EvalTypeError(f"cannot compare {a!r} with {b!r}")
    if isinstance(a, bool):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return a == b  # structural; Java's reference equality is out of scope
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    raise EvalTypeError(f"cannot compare {a!r} with {b!r}")


def _eval(expr: Expr, env: _Env) -> Value:
    if isinstance(expr, Var):
        return _lookup(env, expr.name)
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, NullLit):
        return NULL
    if isinstance(expr, ResultRef):
        if env.result is None:
            raise UnboundVariable("\\result is not recorded in this trace record")
        return env.result
    if isinstance(expr, OldRef):
        if env.old is None:
            raise MissingOldSnapshot("\\old used but the record has no old-state snapshot")
        inner_env = _Env(env.old, env.old, env.result, env.overlay)
        return _eval(expr.inner, inner_env)
    if isinstance(expr, ArrayIndex):
        # As in Java, the index is evaluated before the base is checked.
        base = _eval(expr.base, env)
        index = _eval(expr.index, env)
        if base is NULL:
            raise EvalTypeError("indexing a null array")
        if not isinstance(base, list):
            raise EvalTypeError(f"indexing a non-array value {base!r}")
        index = _require_int(index, "array index")
        if index < 0 or index >= len(base):
            raise IndexOutOfRange(f"index {index} out of range for length {len(base)}")
        return base[index]
    if isinstance(expr, FieldAccess):
        base = _eval(expr.base, env)
        if expr.field == "length":
            if base is NULL:
                raise EvalTypeError(".length on a null array")
            if isinstance(base, list):
                return len(base)
            raise EvalTypeError(f".length on a non-array value {base!r}")
        raise EvalTypeError(f"unsupported field access .{expr.field}")
    if isinstance(expr, Unary):
        if expr.op == "!":
            return not _require_bool(_eval(expr.operand, env), "operand of !")
        return -_require_int(_eval(expr.operand, env), "operand of unary -")
    if isinstance(expr, Quantifier):
        return _eval_quantifier(expr, env)
    if isinstance(expr, Binary):
        return _eval_binary(expr, env)
    raise EvalTypeError(f"cannot evaluate {type(expr).__name__}")


def _eval_binary(expr: Binary, env: _Env) -> Value:
    op = expr.op
    if op == "&&":
        if not _require_bool(_eval(expr.lhs, env), "operand of &&"):
            return False
        return _require_bool(_eval(expr.rhs, env), "operand of &&")
    if op == "||":
        if _require_bool(_eval(expr.lhs, env), "operand of ||"):
            return True
        return _require_bool(_eval(expr.rhs, env), "operand of ||")
    if op == "==>":
        # Short-circuits like Java's a ? b : true would.
        if not _require_bool(_eval(expr.lhs, env), "operand of ==>"):
            return True
        return _require_bool(_eval(expr.rhs, env), "operand of ==>")
    if op == "<==":
        rhs = _require_bool(_eval(expr.rhs, env), "operand of <==")
        lhs = _require_bool(_eval(expr.lhs, env), "operand of <==")
        return lhs or not rhs
    if op == "<==>":
        lhs = _require_bool(_eval(expr.lhs, env), "operand of <==>")
        rhs = _require_bool(_eval(expr.rhs, env), "operand of <==>")
        return lhs == rhs
    if op in ("==", "!="):
        equal = _values_equal(_eval(expr.lhs, env), _eval(expr.rhs, env))
        return equal if op == "==" else not equal
    lhs = _require_int(_eval(expr.lhs, env), f"operand of {op}")
    rhs = _require_int(_eval(expr.rhs, env), f"operand of {op}")
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return _java_div(lhs, rhs)
    if op == "%":
        return _java_rem(lhs, rhs)
    raise EvalTypeError(f"unknown operator {op}")


def _eval_quantifier(expr: Quantifier, env: _Env) -> bool:
    lo, hi = _extract_bounds(expr.range, expr.var, env)
    if hi - lo + 1 > MAX_QUANTIFIER_WIDTH:
        raise UnboundedQuantifier(
            f"quantifier domain [{lo}, {hi}] exceeds the width limit"
        )
    is_forall = expr.kind == "forall"
    for value in range(lo, hi + 1):
        inner = _Env(env.bindings, env.old, env.result, {**env.overlay, expr.var: value})
        # The full range expression acts as the guard: the extracted interval
        # may over-approximate when extra conjuncts are present.
        if not _require_bool(_eval(expr.range, inner), "quantifier range"):
            continue
        body = _require_bool(_eval(expr.body, inner), "quantifier body")
        if is_forall and not body:
            return False
        if not is_forall and body:
            return True
    return is_forall


def _mentions(expr: Expr, var: str) -> bool:
    if isinstance(expr, Var) and expr.name == var:
        return True
    return any(_mentions(child, var) for child in expr.children())


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, Binary) and expr.op == "&&":
        return _conjuncts(expr.lhs) + _conjuncts(expr.rhs)
    return [expr]


def _extract_bounds(range_expr: Expr, var: str, env: _Env) -> tuple[int, int]:
    """Closed integer interval [lo, hi] that covers the range's var values.

    Recognizes conjunctions of ``lo <= v``, ``lo < v``, ``v <= hi``, ``v < hi``
    (either operand order, > and >= included); other conjuncts are guards. The
    interval may be empty (lo > hi). Raises UnboundedQuantifier when either
    side is missing.
    """
    lowers: list[int] = []
    uppers: list[int] = []
    for conjunct in _conjuncts(range_expr):
        if not isinstance(conjunct, Binary) or conjunct.op not in ("<", "<=", ">", ">="):
            continue
        op, lhs, rhs = conjunct.op, conjunct.lhs, conjunct.rhs
        # Normalize so the comparison reads left-to-right with < or <=.
        if op in (">", ">="):
            lhs, rhs = rhs, lhs
            op = "<" if op == ">" else "<="
        var_on_left = isinstance(lhs, Var) and lhs.name == var
        var_on_right = isinstance(rhs, Var) and rhs.name == var
        if var_on_left and not _mentions(rhs, var):
            bound = _require_int(_eval(rhs, env), "quantifier bound")
            uppers.append(bound if op == "<=" else bound - 1)
        elif var_on_right and not _mentions(lhs, var):
            bound = _require_int(_eval(lhs, env), "quantifier bound")
            lowers.append(bound if op == "<=" else bound + 1)
    if not lowers or not uppers:
        missing = "lower" if not lowers else "upper"
        raise UnboundedQuantifier(
            f"cannot extract a finite {missing} bound for {var!r}"
        )
    return max(lowers), min(uppers)
