"""A fixed reference computation that measures how fast the machine runs now.

On a shared virtual machine the same pure-Python work can take up to twice
as long from one few-second stretch to the next, and whole 36-second runs
differ by 20-30%. The worker therefore times this computation between
consecutive entries and ``run.py`` scales each entry's wall time by
``NOMINAL_S`` over the mean of the reference times just before and just
after it: a time reads as it would on the machine in a state where the
reference takes ``NOMINAL_S``. The reference is benchmark code that never
touches specsmith, so a change to specsmith moves only the entry times.

The computation mutates and renders a fixed expression tree, the kind of
work specsmith's layers do. It imports nothing beyond ``gc`` and ``time``,
so timing it before a set-up does not import anything the set-up would.
The collector is off while it runs, so a collection that specsmith's
garbage makes due does not land in the reference.
"""
from __future__ import annotations

import gc
import time

# About the reference's time on a 2-vCPU x86-64 VM with Python 3.11 in its
# fast state (the slow state takes 1.5-2 times as long); only a scale.
NOMINAL_S = 0.0025
WARM_UP = 3

_FLIP = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "&&": "||", "||": "&&", "+": "-", "-": "+",
}
_LEVEL = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5}


def _formula() -> tuple:
    names = iter(f"r{i}" for i in range(32))

    def term(n_ops: int) -> tuple:
        expr = ("var", next(names))
        for k in range(n_ops):
            expr = ("bin", "+-"[k % 2], expr, ("var", next(names)))
        return expr

    comparisons = [("bin", op, term(1), term(k % 2)) for k, op in enumerate(("<", ">=", "==", "<="))]
    return ("bin", "||", ("bin", "&&", *comparisons[:2]), ("bin", "&&", *comparisons[2:]))


_FORMULA = _formula()


def _render(expr: tuple) -> str:
    if expr[0] == "var":
        return expr[1]
    _, op, lhs, rhs = expr
    return f"{_side(lhs, op, False)} {op} {_side(rhs, op, True)}"


def _side(child: tuple, op: str, right: bool) -> str:
    text = _render(child)
    if child[0] == "bin" and (
        _LEVEL[child[1]] < _LEVEL[op] or (right and _LEVEL[child[1]] == _LEVEL[op])
    ):
        return f"({text})"
    return text


def _flips(expr: tuple) -> list[tuple]:
    """Every tree that differs from ``expr`` in exactly one operator."""
    if expr[0] == "var":
        return []
    _, op, lhs, rhs = expr
    return (
        [("bin", _FLIP[op], lhs, rhs)]
        + [("bin", op, flipped, rhs) for flipped in _flips(lhs)]
        + [("bin", op, lhs, flipped) for flipped in _flips(rhs)]
    )


def _work() -> int:
    texts = set()
    for _ in range(3):
        for one in _flips(_FORMULA):
            for two in _flips(one):
                texts.add(_render(two))
    return len(texts)


def warm_up() -> None:
    for _ in range(WARM_UP):
        _work()


def reference_seconds() -> float:
    """Wall time of one reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale(*samples: float) -> float:
    """Factor that turns a wall time taken beside these reference samples
    into a time at nominal machine speed: the median sample counts, so with
    three or more samples one stray one does not."""
    ordered = sorted(samples)
    middle = len(ordered) // 2
    median = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return NOMINAL_S / median
