"""Seeded input generator for the specsmith benchmark.

Every workload is a pool of small Java programs plus, per program, the
scripted chat responses, the verifier's ground truth (mock truth lines or
execution-trace records) and the answer specsmith is expected to reach.

Clauses are built here as expression trees with their own canonical
renderer, operator table and evaluator, copied from the README rather than
imported from specsmith, so that the expected answers are an independent
oracle: a run whose entries disagree with them is counted as an error.

The same (workload, seed) pair always yields byte-identical files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# --- Expressions -------------------------------------------------------------
#
# Trees are tuples: ("var", name) ("int", value) ("null",) ("result",)
# ("len", base) ("idx", base, index) ("bin", op, lhs, rhs)
# ("q", "forall" | "exists", var, range, body)


def var(name: str) -> tuple:
    return ("var", name)


def lit(value: int) -> tuple:
    return ("int", value)


NULL = ("null",)
RESULT = ("result",)


def length(base: tuple) -> tuple:
    return ("len", base)


def idx(base: tuple, index: tuple) -> tuple:
    return ("idx", base, index)


def binop(op: str, lhs: tuple, rhs: tuple) -> tuple:
    return ("bin", op, lhs, rhs)


def conj(*parts: tuple) -> tuple:
    expr = parts[0]
    for part in parts[1:]:
        expr = binop("&&", expr, part)
    return expr


def forall(v: str, rng: tuple, body: tuple) -> tuple:
    return ("q", "forall", v, rng, body)


def exists(v: str, rng: tuple, body: tuple) -> tuple:
    return ("q", "exists", v, rng, body)


def in_range(v: str, lo: tuple, hi: tuple) -> tuple:
    """``lo <= v && v < hi``: the half-open quantifier range."""
    return conj(binop("<=", lo, var(v)), binop("<", var(v), hi))


# The README's operator table: token -> (kind, replacements in order).
# "l - 1 <= r" / "l + 1 >= r" are the structural rewrites of the left side.
DEC_LHS = "l - 1 <= r"
INC_LHS = "l + 1 >= r"
OPERATOR_TABLE: dict[str, tuple[str, tuple[str, ...]]] = {
    "\\forall": ("predicative", ("\\exists",)),
    "\\exists": ("predicative", ("\\forall",)),
    "&&": ("logical", ("||",)),
    "||": ("logical", ("&&",)),
    "<==>": ("logical", ("<==", "==>")),
    "==>": ("logical", ("<==",)),
    "<==": ("logical", ("==>",)),
    "<=": ("comparative", ("<", DEC_LHS)),
    ">=": ("comparative", (">", INC_LHS)),
    "<": ("comparative", ("<=",)),
    ">": ("comparative", (">=",)),
    "==": ("comparative", ("!=",)),
    "!=": ("comparative", ("==",)),
    "+": ("arithmetic", ("-",)),
    "-": ("arithmetic", ("+",)),
}

_LEVEL = {
    "<==>": 1, "==>": 2, "<==": 2, "||": 3, "&&": 4, "==": 5, "!=": 5,
    "<": 6, "<=": 6, ">": 6, ">=": 6, "+": 7, "-": 7, "*": 8, "/": 8, "%": 8,
}
_POSTFIX, _ATOM = 10, 11


def _children(expr: tuple) -> tuple:
    tag = expr[0]
    if tag == "bin":
        return expr[2], expr[3]
    if tag == "q":
        return expr[3], expr[4]
    if tag == "idx":
        return expr[1], expr[2]
    if tag == "len":
        return (expr[1],)
    return ()


def _with_child(expr: tuple, index: int, child: tuple) -> tuple:
    tag = expr[0]
    if tag == "bin":
        return ("bin", expr[1], child, expr[3]) if index == 0 else ("bin", expr[1], expr[2], child)
    if tag == "q":
        return ("q", expr[1], expr[2], child, expr[4]) if index == 0 else ("q", expr[1], expr[2], expr[3], child)
    if tag == "idx":
        return ("idx", child, expr[2]) if index == 0 else ("idx", expr[1], child)
    return ("len", child)


def site_token(expr: tuple) -> str | None:
    if expr[0] == "q":
        return "\\" + expr[1]
    if expr[0] == "bin" and expr[1] in OPERATOR_TABLE:
        return expr[1]
    return None


def sites(expr: tuple, path: tuple = ()) -> list[tuple[tuple, str]]:
    """(path, operator token) of every mutation site, in pre-order."""
    out = []
    token = site_token(expr)
    if token is not None:
        out.append((path, token))
    for i, child in enumerate(_children(expr)):
        out.extend(sites(child, path + (i,)))
    return out


def raw_combinations(expr: tuple) -> int:
    total = 1
    for _, token in sites(expr):
        total *= 1 + len(OPERATOR_TABLE[token][1])
    return total


def mutate(expr: tuple, path: tuple, replacement: str) -> tuple:
    """Rewrite the one operator at ``path`` with a table replacement."""
    if path:
        child = _children(expr)[path[0]]
        return _with_child(expr, path[0], mutate(child, path[1:], replacement))
    if expr[0] == "q":
        return ("q", replacement[1:], expr[2], expr[3], expr[4])
    if replacement == DEC_LHS:
        return binop("<=", binop("-", expr[2], lit(1)), expr[3])
    if replacement == INC_LHS:
        return binop(">=", binop("+", expr[2], lit(1)), expr[3])
    return binop(replacement, expr[2], expr[3])


def _precedence(expr: tuple) -> int:
    if expr[0] == "bin":
        return _LEVEL[expr[1]]
    if expr[0] in ("idx", "len"):
        return _POSTFIX
    return _ATOM


def render(expr: tuple) -> str:
    """Canonical text: one space around binary operators, minimal parentheses."""
    tag = expr[0]
    if tag == "bin":
        op = expr[1]
        level = _LEVEL[op]
        right_assoc = op == "==>"
        lhs = _side(expr[2], op, level, right_assoc)
        rhs = _side(expr[3], op, level, not right_assoc)
        return f"{lhs} {op} {rhs}"
    if tag == "q":
        return f"(\\{expr[1]} int {expr[2]}; {render(expr[3])}; {render(expr[4])})"
    if tag == "var":
        return expr[1]
    if tag == "int":
        return str(expr[1])
    if tag == "null":
        return "null"
    if tag == "result":
        return "\\result"
    base = render(expr[1])
    if _precedence(expr[1]) < _POSTFIX:
        base = f"({base})"
    if tag == "len":
        return f"{base}.length"
    return f"{base}[{render(expr[2])}]"


def _side(child: tuple, parent_op: str, parent_level: int, parenthesize_equal: bool) -> str:
    text = render(child)
    level = _precedence(child)
    needs = level < parent_level
    if not needs and level == parent_level:
        if parenthesize_equal:
            needs = True
        elif parent_level == _LEVEL["==>"]:
            needs = child[0] == "bin" and child[1] != parent_op
    return f"({text})" if needs else text


@dataclass(frozen=True)
class Clause:
    kind: str  # requires | ensures | maintaining | decreases
    loop: int | None  # None: method header; else the loop ordinal
    expr: tuple

    @property
    def text(self) -> str:
        return f"//@ {self.kind} {render(self.expr)};"

    def with_expr(self, expr: tuple) -> Clause:
        return Clause(self.kind, self.loop, expr)


def single_variants(clause: Clause, kinds: tuple[str, ...] | None = None) -> list[Clause]:
    """Every one-site rewrite of the clause, optionally of the given kinds."""
    out = []
    for path, token in sites(clause.expr):
        kind, replacements = OPERATOR_TABLE[token]
        if kinds is not None and kind not in kinds:
            continue
        out.extend(clause.with_expr(mutate(clause.expr, path, r)) for r in replacements)
    return out


# --- Evaluation against trace records --------------------------------------


class Falsified(Exception):
    """An evaluation error; the trace verifier reports it as a failure."""


def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise Falsified(f"expected an integer, got {value!r}")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise Falsified(f"expected a boolean, got {value!r}")
    return value


def evaluate(expr: tuple, record: dict, scope: dict | None = None) -> Any:
    """Java-style value of ``expr`` on one trace record (dict form)."""
    scope = scope or {}
    tag = expr[0]
    if tag == "var":
        if expr[1] in scope:
            return scope[expr[1]]
        if expr[1] not in record["bindings"]:
            raise Falsified(f"unbound {expr[1]}")
        return record["bindings"][expr[1]]
    if tag == "int":
        return expr[1]
    if tag == "null":
        return None
    if tag == "result":
        if "result" not in record:
            raise Falsified("no result")
        return record["result"]
    if tag == "len":
        base = evaluate(expr[1], record, scope)
        if not isinstance(base, list):
            raise Falsified(".length of a non-array")
        return len(base)
    if tag == "idx":
        base = evaluate(expr[1], record, scope)
        index = _int(evaluate(expr[2], record, scope))
        if not isinstance(base, list) or not 0 <= index < len(base):
            raise Falsified("bad index")
        return base[index]
    if tag == "q":
        return _quantifier(expr, record, scope)
    op, lhs, rhs = expr[1], expr[2], expr[3]
    if op == "&&":
        return _bool(evaluate(lhs, record, scope)) and _bool(evaluate(rhs, record, scope))
    if op == "||":
        return _bool(evaluate(lhs, record, scope)) or _bool(evaluate(rhs, record, scope))
    if op == "==>":
        return (not _bool(evaluate(lhs, record, scope))) or _bool(evaluate(rhs, record, scope))
    if op == "<==":
        right = _bool(evaluate(rhs, record, scope))
        return _bool(evaluate(lhs, record, scope)) or not right
    if op == "<==>":
        return _bool(evaluate(lhs, record, scope)) == _bool(evaluate(rhs, record, scope))
    if op in ("==", "!="):
        a, b = evaluate(lhs, record, scope), evaluate(rhs, record, scope)
        if a is None or b is None:
            equal = a is b
        elif isinstance(a, bool) != isinstance(b, bool) or type(a) is not type(b):
            raise Falsified("incomparable operands")
        else:
            equal = a == b
        return equal if op == "==" else not equal
    a, b = _int(evaluate(lhs, record, scope)), _int(evaluate(rhs, record, scope))
    return {
        "<": lambda: a < b, "<=": lambda: a <= b, ">": lambda: a > b,
        ">=": lambda: a >= b, "+": lambda: a + b, "-": lambda: a - b,
    }[op]()


def _mentions(expr: tuple, name: str) -> bool:
    if expr == ("var", name):
        return True
    return any(_mentions(child, name) for child in _children(expr))


def _conjuncts(expr: tuple) -> list[tuple]:
    if expr[0] == "bin" and expr[1] == "&&":
        return _conjuncts(expr[2]) + _conjuncts(expr[3])
    return [expr]


def _quantifier(expr: tuple, record: dict, scope: dict) -> bool:
    _, kind, v, rng, body = expr
    lowers, uppers = [], []
    for part in _conjuncts(rng):
        if part[0] != "bin" or part[1] not in ("<", "<=", ">", ">="):
            continue
        op, lhs, rhs = part[1], part[2], part[3]
        if op in (">", ">="):
            lhs, rhs, op = rhs, lhs, ("<" if op == ">" else "<=")
        if lhs == ("var", v) and not _mentions(rhs, v):
            bound = _int(evaluate(rhs, record, scope))
            uppers.append(bound if op == "<=" else bound - 1)
        elif rhs == ("var", v) and not _mentions(lhs, v):
            bound = _int(evaluate(lhs, record, scope))
            lowers.append(bound if op == "<=" else bound + 1)
    if not lowers or not uppers:
        raise Falsified("unbounded quantifier")
    for value in range(max(lowers), min(uppers) + 1):
        inner = {**scope, v: value}
        if not _bool(evaluate(rng, record, inner)):
            continue
        holds = _bool(evaluate(body, record, inner))
        if kind == "forall" and not holds:
            return False
        if kind == "exists" and holds:
            return True
    return kind == "forall"


_PHASE = {"requires": "pre", "ensures": "post", "maintaining": "iter", "decreases": "iter"}


def holds_on(clause: Clause, method: str, records: list[dict]) -> bool:
    """True iff no record falsifies the clause (the trace verifier's verdict)."""
    anchor = f"method:{method}" if clause.loop is None else f"loop:{method}:{clause.loop}"
    try:
        if clause.kind != "decreases":
            return all(
                evaluate(clause.expr, r) is True
                for r in records
                if r["phase"] == _PHASE[clause.kind] and r["anchor"] == anchor
            )
        previous = None
        for r in records:
            if r["anchor"] == f"method:{method}":
                previous = None  # pre/post records delimit loop activations
            elif r["anchor"] == anchor:
                value = _int(evaluate(clause.expr, r))
                if value < 0 or (previous is not None and value >= previous):
                    return False
                previous = value
        return True
    except Falsified:
        return False


# --- Programs ---------------------------------------------------------------


@dataclass
class Program:
    name: str  # method name, unique within a workload
    source: str  # the bare Java program handed to specsmith
    responses: list[str]
    expected: dict[str, Any]
    truths: list[str] = field(default_factory=list)  # mock truth lines
    records: list[dict] = field(default_factory=list)  # trace records


def annotate(source: str, clauses: list[Clause]) -> str:
    """Insert ``//@`` lines above the method header and the loop heads."""
    lines = source.splitlines()
    out: list[str] = []
    loop = 0
    for line in lines:
        stripped = line.lstrip()
        indent = line[: len(line) - len(stripped)]
        if stripped.startswith("static "):
            out.extend(indent + c.text for c in clauses if c.loop is None)
        elif stripped.startswith(("while (", "for (")):
            out.extend(indent + c.text for c in clauses if c.loop == loop)
            loop += 1
        out.append(line)
    return "\n".join(out) + "\n"


def response_for(source: str, clauses: list[Clause]) -> str:
    return "Here are the specifications.\n\n```java\n" + annotate(source, clauses) + "```\n"


def ordered(clauses: list[Clause]) -> list[Clause]:
    """Clauses in the order extraction reads them: method first, then loops."""
    return sorted(clauses, key=lambda c: -1 if c.loop is None else c.loop)


def clause_ids(method: str, clauses: list[Clause]) -> list[str]:
    """The ids specsmith assigns: anchor/kind/ordinal within (anchor, kind)."""
    seen: dict[tuple, int] = {}
    ids = []
    for c in ordered(clauses):
        anchor = f"method:{method}" if c.loop is None else f"loop:{method}:{c.loop}"
        ordinal = seen.get((anchor, c.kind), 0)
        seen[(anchor, c.kind)] = ordinal + 1
        ids.append(f"{anchor}/{c.kind}/{ordinal}")
    return ids


def expected_answer(outcome: str, rounds: int, final: list[Clause], dropped: list[str]) -> dict:
    return {
        "outcome": outcome,
        "rounds_used": rounds,
        "final_clauses": [c.text for c in ordered(final)],
        "dropped_templates": sorted(dropped),
    }


# --- Mock workloads: random formulas over per-clause variables -------------

TWO_WAY_COMPARISONS = ("<", ">", "==", "!=")
THREE_WAY_COMPARISONS = ("<=", ">=")


def random_formula(
    rng: random.Random, prefix: str, n_sites: int, n_three_way: int
) -> tuple:
    """A boolean formula with exactly ``n_sites`` sites, ``n_three_way`` of
    them three-option operators and the rest two-option operators.

    Variables are named ``{prefix}a``, ``{prefix}b``, ...; callers give each
    clause its own prefix so no two clauses share a mutation variant.
    """
    # Three-option sites are <=/>= comparisons first, then <==> joiners.
    n_cmp = rng.randint(max(1, (n_three_way + 2) // 2), (n_sites + 1) // 2)
    n_arith = n_sites - 2 * n_cmp + 1
    cmp_three = min(n_three_way, n_cmp)
    join_three = n_three_way - cmp_three
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    ops = [rng.choice(THREE_WAY_COMPARISONS) for _ in range(cmp_three)]
    ops += [rng.choice(TWO_WAY_COMPARISONS) for _ in range(n_cmp - cmp_three)]
    rng.shuffle(ops)
    joiners = ["<==>"] * join_three
    joiners += [rng.choice(("&&", "||")) for _ in range(n_cmp - 1 - join_three)]
    rng.shuffle(joiners)
    arith_per_side = [0] * (2 * n_cmp)
    for _ in range(n_arith):
        arith_per_side[rng.randrange(2 * n_cmp)] += 1

    def term(n_ops: int) -> tuple:
        expr = var(prefix + next(letters))
        for _ in range(n_ops):
            expr = binop(rng.choice("+-"), expr, var(prefix + next(letters)))
        return expr

    comparisons = [
        binop(op, term(arith_per_side[2 * i]), term(arith_per_side[2 * i + 1]))
        for i, op in enumerate(ops)
    ]

    def join(items: list[tuple]) -> tuple:
        if len(items) == 1:
            return items[0]
        cut = rng.randrange(1, len(items))
        op = joiners.pop()
        return binop(op, join(items[:cut]), join(items[cut:]))

    return join(comparisons)


def _formula_variables(expr: tuple) -> list[str]:
    if expr[0] == "var":
        return [expr[1]]
    return [name for child in _children(expr) for name in _formula_variables(child)]


def mock_source(cls: str, method: str, params: list[str]) -> str:
    counter = f"r{method}"
    args = ", ".join(f"int {p}" for p in params)
    return (
        f"class {cls} {{\n"
        f"    static int {method}({args}) {{\n"
        f"        int {counter} = 0;\n"
        f"        while ({counter} < {params[0]}) {{\n"
        f"            {counter} = {counter} + 1;\n"
        f"        }}\n"
        f"        return {counter};\n"
        f"    }}\n"
        f"}}\n"
    )


def _mock_program(
    name: str, clauses: list[Clause], responses_clauses: list[list[Clause]]
) -> tuple[str, list[str]]:
    params = sorted({v for c in clauses for v in _formula_variables(c.expr)})
    source = mock_source(name.capitalize(), name, params)
    return source, [response_for(source, rc) for rc in responses_clauses]


_MOCK_KINDS = ((None, "requires"), (None, "ensures"), (0, "maintaining"))

# Per program, the (sites, three-way sites) of each clause. By variant count
# the classes are 20% light (180), 50% middle (732), 25% upper (~1400) and
# 5% with a clause whose 5832 raw combinations exceed the 4096 cap, so the
# median entry sits mid-way through the middle plateau and p90 inside the
# upper one. The classes are interleaved so any prefix of the pool mixes them.
_LIGHT = ((3, 1), (4, 1), (6, 2))
_MIDDLE = ((3, 1), (5, 2), (7, 3), (6, 3))
_UPPER = ((4, 1), (5, 2), (8, 3), (6, 2), (7, 2))
_UPPER6 = ((3, 1), (4, 2), (5, 2), (8, 3), (6, 2), (7, 2))
_CAPPED = ((9, 6), (3, 1), (4, 1), (5, 2), (6, 2), (7, 2))
WIDE_CLASSES = (
    _MIDDLE, _LIGHT, _UPPER, _MIDDLE, _MIDDLE, _LIGHT, _UPPER6, _MIDDLE, _CAPPED, _MIDDLE,
    _LIGHT, _MIDDLE, _UPPER, _MIDDLE, _UPPER6, _LIGHT, _MIDDLE, _UPPER, _MIDDLE, _MIDDLE,
)
WIDE_POOL = 40


def wide_program(rng: random.Random, j: int) -> Program:
    """3-6 clauses; the response has one clause one comparative flip away
    from the truth, at a known position k among the score -1 variants."""
    name = f"wide{j}"
    specs = WIDE_CLASSES[j % len(WIDE_CLASSES)]
    specs = rng.sample(specs, len(specs))
    n_clauses = len(specs)
    response = []
    for c, (n_sites, n_three) in enumerate(specs):
        loop, kind = _MOCK_KINDS[c % len(_MOCK_KINDS)]
        expr = random_formula(rng, f"v{j}_{c}", n_sites, n_three)
        response.append(Clause(kind, loop, expr))
    planted = rng.randrange(n_clauses)
    # Under the default weights comparative is the one kind weighing -1, so
    # the variants scoring -1 are exactly the single comparative rewrites;
    # the repair loop tries them in ascending text order after the template.
    candidates = sorted(single_variants(response[planted], ("comparative",)), key=lambda c: c.text)
    k = min(1 + j % 3, len(candidates))
    truth = list(response)
    truth[planted] = candidates[k - 1]
    source, responses = _mock_program(name, response, [response] * 3)
    return Program(
        name=name,
        source=source,
        responses=responses,
        expected=expected_answer("verified-by-mutation", 3, truth, []),
        truths=[c.text for c in truth],
    )


# Family sizes are 2^sites (two-option operators only); a trailing "x" marks a
# clause with no true variant, whose family is exhausted and dropped. By cost
# the classes are 15% small, 10% 128, 50% 256, 20% 512 and 5% 1024, so the
# median entry sits mid-way through the 256 bucket and p90 inside the 512
# one, away from the steps between buckets. The classes are interleaved so
# any prefix of the pool mixes all buckets.
DEEP_CLASSES = (
    ("8",), ("5",), ("9",), ("8", "5"), ("7",),
    ("8", "6x"), ("9", "5"), ("8",), ("6", "5x"), ("8", "6"),
    ("10",), ("8", "5x"), ("5", "5"), ("9", "6x"), ("8",),
    ("7", "6x"), ("8", "6", "5x"), ("9",), ("8", "5"), ("8",),
)
DEEP_POOL = 40


def deep_program(rng: random.Random, j: int) -> Program:
    """1-3 clauses with 32-1024 variants; each true variant is the template
    with every site flipped except one comparison, so it sits near the end
    of its family."""
    name = f"deep{j}"
    response, truth, dropped_index = [], [], []
    for c, spec in enumerate(DEEP_CLASSES[j % len(DEEP_CLASSES)]):
        n_sites = int(spec.rstrip("x"))
        loop, kind = _MOCK_KINDS[c % 2]
        clause = Clause(kind, loop, random_formula(rng, f"v{j}_{c}", n_sites, 0))
        response.append(clause)
        if spec.endswith("x"):
            dropped_index.append(c)
            continue
        flipped = clause.expr
        comparisons = [p for p, t in sites(flipped) if OPERATOR_TABLE[t][0] == "comparative"]
        keep = rng.choice(comparisons)
        for path, token in sites(clause.expr):
            if path != keep:
                flipped = mutate(flipped, path, OPERATOR_TABLE[token][1][0])
        truth.append(clause.with_expr(flipped))
    ids = clause_ids(name, response)
    order = ordered(response)
    dropped = [ids[order.index(response[c])] for c in dropped_index]
    source, responses = _mock_program(name, response, [response])
    return Program(
        name=name,
        source=source,
        responses=responses,
        expected=expected_answer("verified-by-mutation", 1, truth, dropped),
        truths=[c.text for c in truth],
    )


# --- Trace workload: array loops with a Python twin ------------------------


def _pre(method: str, bindings: dict) -> dict:
    return {"anchor": f"method:{method}", "phase": "pre", "bindings": bindings}


def _iter(method: str, loop: int, bindings: dict) -> dict:
    return {"anchor": f"loop:{method}:{loop}", "phase": "iter", "bindings": bindings}


def _post(method: str, bindings: dict, result: Any, old: dict) -> dict:
    return {
        "anchor": f"method:{method}", "phase": "post",
        "bindings": bindings, "result": result, "old": old,
    }


A, I, J, N = var("a"), var("i"), var("j"), var("n")
A_LEN = length(A)


def _max_twin(m: str, a: list[int]) -> list[dict]:
    out = [_pre(m, {"a": a})]
    best, i = a[0], 1
    while True:
        out.append(_iter(m, 0, {"a": a, "m": best, "i": i}))
        if not i < len(a):
            break
        if a[i] > best:
            best = a[i]
        i += 1
    out.append(_post(m, {"a": a, "m": best, "i": i}, best, {"a": a}))
    return out


def _sum_twin(m: str, a: list[int]) -> list[dict]:
    out = [_pre(m, {"a": a})]
    s, i = 0, 0
    while True:
        out.append(_iter(m, 0, {"a": a, "s": s, "i": i}))
        if not i < len(a):
            break
        s += a[i]
        i += 1
    out.append(_post(m, {"a": a, "s": s, "i": i}, s, {"a": a}))
    return out


def _find_twin(m: str, a: list[int], x: int) -> list[dict]:
    out = [_pre(m, {"a": a, "x": x})]
    i = 0
    while True:
        out.append(_iter(m, 0, {"a": a, "x": x, "i": i}))
        if not i < len(a):
            break
        if a[i] == x:
            out.append(_post(m, {"a": a, "x": x, "i": i}, i, {"a": a, "x": x}))
            return out
        i += 1
    out.append(_post(m, {"a": a, "x": x, "i": i}, -1, {"a": a, "x": x}))
    return out


def _count_twin(m: str, a: list[int], t: int) -> list[dict]:
    out = [_pre(m, {"a": a, "t": t})]
    c, i = 0, 0
    while True:
        out.append(_iter(m, 0, {"a": a, "t": t, "c": c, "i": i}))
        if not i < len(a):
            break
        if a[i] > t:
            c += 1
        i += 1
    out.append(_post(m, {"a": a, "t": t, "c": c, "i": i}, c, {"a": a, "t": t}))
    return out


def _pair_twin(m: str, a: list[int], t: int) -> list[dict]:
    out = [_pre(m, {"a": a, "t": t})]
    n = len(a)
    i = 0
    while True:
        out.append(_iter(m, 0, {"a": a, "t": t, "n": n, "i": i}))
        if not i < n:
            break
        j = i + 1
        while True:
            out.append(_iter(m, 1, {"a": a, "t": t, "n": n, "i": i, "j": j}))
            if not j < n:
                break
            if a[i] + a[j] == t:
                out.append(_post(m, {"a": a, "t": t, "n": n, "i": i, "j": j}, True, {"a": a, "t": t}))
                return out
            j += 1
        i += 1
    out.append(_post(m, {"a": a, "t": t, "n": n, "i": i}, False, {"a": a, "t": t}))
    return out


def _k_range(v: str, hi: tuple) -> tuple:
    return in_range(v, lit(0), hi)


def _shape_max(m: str) -> tuple[str, list[Clause]]:
    body = (
        "        int m = a[0];\n        int i = 1;\n"
        "        while (i < a.length) {\n"
        "            if (a[i] > m) {\n                m = a[i];\n            }\n"
        "            i = i + 1;\n        }\n        return m;\n"
    )
    k = var("k")
    clauses = [
        Clause("requires", None, binop("!=", A, NULL)),
        Clause("requires", None, binop(">", A_LEN, lit(0))),
        Clause("ensures", None, forall("k", _k_range("k", A_LEN), binop("<=", idx(A, k), RESULT))),
        Clause("ensures", None, exists("k", _k_range("k", A_LEN), binop("==", idx(A, k), RESULT))),
        Clause("maintaining", 0, conj(binop("<=", lit(1), I), binop("<=", I, A_LEN))),
        Clause("maintaining", 0, forall("k", _k_range("k", I), binop("<=", idx(A, k), var("m")))),
        Clause("decreases", 0, binop("-", A_LEN, I)),
    ]
    return f"static int {m}(int[] a) {{\n{body}    }}", clauses


def _shape_sum(m: str) -> tuple[str, list[Clause]]:
    body = (
        "        int s = 0;\n        int i = 0;\n"
        "        while (i < a.length) {\n"
        "            s = s + a[i];\n            i = i + 1;\n        }\n        return s;\n"
    )
    k = var("k")
    clauses = [
        Clause("requires", None, binop("!=", A, NULL)),
        Clause("requires", None, forall("k", _k_range("k", A_LEN), binop(">=", idx(A, k), lit(0)))),
        Clause("ensures", None, forall("k", _k_range("k", A_LEN), binop("<=", idx(A, k), RESULT))),
        Clause("maintaining", 0, conj(binop("<=", lit(0), I), binop("<=", I, A_LEN))),
        Clause("maintaining", 0, forall("k", _k_range("k", I), binop("<=", idx(A, k), var("s")))),
        Clause("decreases", 0, binop("-", A_LEN, I)),
    ]
    return f"static int {m}(int[] a) {{\n{body}    }}", clauses


def _shape_find(m: str) -> tuple[str, list[Clause]]:
    body = (
        "        int i = 0;\n"
        "        while (i < a.length) {\n"
        "            if (a[i] == x) {\n                return i;\n            }\n"
        "            i = i + 1;\n        }\n        return -1;\n"
    )
    k, x = var("k"), var("x")
    not_found = binop("==", RESULT, lit(-1))
    clauses = [
        Clause("requires", None, binop("!=", A, NULL)),
        Clause("ensures", None, binop("<", RESULT, A_LEN)),
        Clause("ensures", None, binop("||", not_found, binop("==", idx(A, RESULT), x))),
        Clause("ensures", None, binop("==>", not_found, forall("k", _k_range("k", A_LEN), binop("!=", idx(A, k), x)))),
        Clause("maintaining", 0, conj(binop("<=", lit(0), I), binop("<=", I, A_LEN))),
        Clause("maintaining", 0, forall("k", _k_range("k", I), binop("!=", idx(A, k), x))),
        Clause("decreases", 0, binop("-", A_LEN, I)),
    ]
    return f"static int {m}(int[] a, int x) {{\n{body}    }}", clauses


def _shape_count(m: str) -> tuple[str, list[Clause]]:
    body = (
        "        int c = 0;\n        int i = 0;\n"
        "        while (i < a.length) {\n"
        "            if (a[i] > t) {\n                c = c + 1;\n            }\n"
        "            i = i + 1;\n        }\n        return c;\n"
    )
    k, t, c = var("k"), var("t"), var("c")
    clauses = [
        Clause("requires", None, binop("!=", A, NULL)),
        Clause("ensures", None, conj(binop("<=", lit(0), RESULT), binop("<=", RESULT, A_LEN))),
        Clause("ensures", None, binop("==>", binop("==", RESULT, lit(0)), forall("k", _k_range("k", A_LEN), binop("<=", idx(A, k), t)))),
        Clause("maintaining", 0, conj(binop("<=", lit(0), I), binop("<=", I, A_LEN))),
        Clause("maintaining", 0, conj(binop("<=", lit(0), c), binop("<=", c, I))),
        Clause("maintaining", 0, binop("==>", binop("==", c, lit(0)), forall("k", _k_range("k", I), binop("<=", idx(A, k), t)))),
        Clause("decreases", 0, binop("-", A_LEN, I)),
    ]
    return f"static int {m}(int[] a, int t) {{\n{body}    }}", clauses


def _shape_pair(m: str) -> tuple[str, list[Clause]]:
    # No decreases clause on the inner loop: the trace verifier delimits
    # loop activations by method records only, so n - j rises on re-entry.
    body = (
        "        int n = a.length;\n"
        "        for (int i = 0; i < n; i = i + 1) {\n"
        "            for (int j = i + 1; j < n; j = j + 1) {\n"
        "                if (a[i] + a[j] == t) {\n                    return true;\n                }\n"
        "            }\n        }\n        return false;\n"
    )
    p, q, t = var("p"), var("q"), var("t")
    hit = binop("==", binop("+", idx(A, p), idx(A, q)), t)
    miss = binop("!=", binop("+", idx(A, p), idx(A, q)), t)
    q_after_p = in_range("q", binop("+", p, lit(1)), A_LEN)
    clauses = [
        Clause("requires", None, binop("!=", A, NULL)),
        Clause("ensures", None, binop("<==>", RESULT, exists("p", _k_range("p", A_LEN), exists("q", q_after_p, hit)))),
        Clause("maintaining", 0, conj(binop("<=", lit(0), I), binop("<=", I, N))),
        Clause("maintaining", 0, forall("p", _k_range("p", I), forall("q", in_range("q", binop("+", p, lit(1)), N), miss))),
        Clause("decreases", 0, binop("-", N, I)),
        Clause("maintaining", 1, conj(binop("<=", binop("+", I, lit(1)), J), binop("<=", J, N))),
        Clause("maintaining", 1, forall("q", in_range("q", binop("+", I, lit(1)), J), binop("!=", binop("+", idx(A, I), idx(A, q)), t))),
    ]
    return f"static boolean {m}(int[] a, int t) {{\n{body}    }}", clauses


# Every program is called once per length, in a seeded order, with distinct
# element values and fixed hit positions, so each seed produces about the
# same number of loop iterations to record and check.
TRACE_LENGTHS = (3, 5, 6, 8, 9)


def _calls(shape: str, rng: random.Random) -> list[tuple]:
    """One call per length in a seeded order; search shapes hit on the
    second and fourth lengths and miss on the others."""
    calls = []
    for index, n in enumerate(TRACE_LENGTHS):
        a = rng.sample(range(10), n)
        hit = index % 2 == 1
        if shape in ("max", "sum"):
            calls.append((a,))
        elif shape == "find":
            calls.append((a, a[n // 2] if hit else 10))
        elif shape == "count":
            calls.append((a, rng.randint(0, 9)))
        else:
            calls.append((a, a[0] + a[1] if hit else 19))
    rng.shuffle(calls)
    return calls


TRACE_SHAPES = {
    "max": (_shape_max, _max_twin),
    "sum": (_shape_sum, _sum_twin),
    "find": (_shape_find, _find_twin),
    "count": (_shape_count, _count_twin),
    "pair": (_shape_pair, _pair_twin),
}
TRACE_ROUNDS = 10
# Program j has shape j % 5 and passes at round j % 11 + 1, so the 55
# programs cover every pair once and any prefix of the pool mixes both.
# Round 11 means the conversation never passes and repair fixes one flipped
# clause; only shapes with small families get it, so enumeration stays a
# small share of the time.
TRACE_NEVER_PASS = ("max", "sum", "find")
TRACE_POOL = 55


def _falsified_rewrite(
    rng: random.Random, truth: list[Clause], method: str, records: list[dict]
) -> tuple[Clause, Clause]:
    """A random (clause, one-site rewrite of it) whose rewrite the records falsify."""
    candidates = [(c, v) for c in truth for v in single_variants(c)]
    rng.shuffle(candidates)
    for clause, variant in candidates:
        if not holds_on(variant, method, records):
            return clause, variant
    raise ValueError(f"no falsified rewrite in {method}")


def trace_program(rng: random.Random, j: int) -> Program:
    shape = list(TRACE_SHAPES)[j % len(TRACE_SHAPES)]
    passes_at = j % (TRACE_ROUNDS + 1) + 1
    if shape not in TRACE_NEVER_PASS:
        passes_at = min(passes_at, TRACE_ROUNDS)
    name = f"{shape}{j}"
    build, twin = TRACE_SHAPES[shape]
    method_text, truth = build(name)
    source = f"class {name.capitalize()} {{\n    {method_text}\n}}\n"
    records = [r for args in _calls(shape, rng) for r in twin(name, *args)]
    for clause in truth:
        if not holds_on(clause, name, records):
            raise ValueError(f"truth {clause.text} fails on the {name} twin")

    rounds = []
    last_wrong_round = TRACE_ROUNDS if passes_at > TRACE_ROUNDS else passes_at - 1
    for r in range(1, last_wrong_round + 1):
        chosen = list(truth)
        if r == TRACE_ROUNDS:
            # The extracted set repair starts from: one clause whose only
            # mutation site flips it back, so its family is {wrong, truth}.
            flips = [
                (c, v) for c in truth for v in single_variants(c)
                if raw_combinations(v.expr) == 2 and single_variants(v) == [c]
                and not holds_on(v, name, records)
            ]
            target, wrong = rng.choice(flips)
        else:
            target, wrong = _falsified_rewrite(rng, truth, name, records)
        chosen[chosen.index(target)] = wrong
        rounds.append(response_for(source, chosen))
    if passes_at <= TRACE_ROUNDS:
        rounds.append(response_for(source, truth))
        expected = expected_answer("verified-by-conversation", passes_at, truth, [])
    else:
        expected = expected_answer("verified-by-mutation", TRACE_ROUNDS, truth, [])
    return Program(name=name, source=source, responses=rounds, expected=expected, records=records)


# --- Workloads --------------------------------------------------------------


@dataclass
class Workload:
    name: str
    config: dict[str, Any]
    programs: list[Program]


WORKLOADS = ("wide-families", "deep-repair", "trace-check")


def build_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "wide-families":
        programs = [wide_program(rng, j) for j in range(WIDE_POOL)]
        endpoint = {"max_rounds": 3, "shot_count": 4}
    elif name == "deep-repair":
        programs = [deep_program(rng, j) for j in range(DEEP_POOL)]
        endpoint = {"max_rounds": 1, "shot_count": 0}
    elif name == "trace-check":
        programs = [trace_program(rng, j) for j in range(TRACE_POOL)]
        endpoint = {"max_rounds": TRACE_ROUNDS, "shot_count": 4}
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if name == "trace-check":
        verifier = {"adapter": "trace", "trace_file": "trace.jsonl"}
    else:
        verifier = {"adapter": "mock", "mock_truth": [t for p in programs for t in p.truths]}
    config = {
        "endpoint": {"mode": "scripted", **endpoint},
        "verifier": verifier,
        "mutation": {"variant_cap": 4096},
    }
    return Workload(name=name, config=config, programs=programs)


def write_inputs(workload: Workload, directory: Path) -> None:
    """Lay the workload out as the files specsmith reads, plus answers.

    ``config.yaml`` (JSON is valid YAML; paths in it are relative to the
    directory), ``programs/NAME.java``, ``responses/NAME.json`` (the
    scripted-fixture format), ``trace.jsonl`` (trace workload only) and
    ``programs.json``, the pool order with each program's expected answer.
    """
    (directory / "programs").mkdir(parents=True, exist_ok=True)
    (directory / "responses").mkdir(exist_ok=True)
    if workload.name == "trace-check":
        with open(directory / "trace.jsonl", "w", encoding="utf-8") as handle:
            for program in workload.programs:
                for record in program.records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
    (directory / "config.yaml").write_text(json.dumps(workload.config, indent=1, sort_keys=True) + "\n")
    for program in workload.programs:
        (directory / "programs" / f"{program.name}.java").write_text(program.source)
        (directory / "responses" / f"{program.name}.json").write_text(
            json.dumps(program.responses, indent=1) + "\n"
        )
    manifest = [{"name": p.name, "expected": p.expected} for p in workload.programs]
    (directory / "programs.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
