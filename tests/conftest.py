"""Shared generators, independent oracles, and the acceptance summary hook."""
from __future__ import annotations

import bisect
import dataclasses
import functools
import heapq
import itertools
import json
import random
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from specsmith import clauses
from specsmith.clauses import (
    Anchor,
    AnnotatedProgram,
    Clause,
    ClauseKind,
    misplacement,
    parse_clause,
)
from specsmith import config as config_module
from specsmith.conversation import EndpointConfig, ExtractionFailure, Round
from specsmith.errors import (
    ClauseSyntaxError,
    ConfigError,
    DivisionByZero,
    EvalError,
    EvalTypeError,
    ExtractionError,
    IndexOutOfRange,
    MissingOldSnapshot,
    ScriptExhausted,
    UnboundVariable,
    UnboundedQuantifier,
)
from specsmith.evaluate import NULL, Phase, TraceRecord, eval_expr
from specsmith.expr import (
    BINARY_LEVEL,
    RIGHT_ASSOC_OPS,
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
from specsmith import mutation
from specsmith.mutation import ALL_KINDS, MutationKind, MutationSite, Variant, WeightTable
from specsmith.parser import MAX_NESTING, _check_depth, _check_end, _Parser, tokenize
from specsmith.pipeline import PipelineContext
from specsmith.repair import RefutationEvent, RepairResult
from specsmith.schemata import render_expr, render_plan
from specsmith.verifier import DEFAULT_RULES, FailureCategory, FailureReport, Outcome, Rule, VerifierVerdict


def parse_expr(text: str) -> Expr:
    """Parse a bare expression with the clause parser; the whole string must
    be consumed, and the clause nesting limit applies."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    _check_end(parser, "end of expression")
    if len(parser.tokens) > MAX_NESTING:
        _check_depth(node)
    return node


# ---------------------------------------------------------------------------
# Seeded random expression generators (plain `random`, no hypothesis).

INT_VARS = ("a", "b", "c", "n", "x", "y")
REL_OPS = ("<", "<=", ">", ">=", "==", "!=")


def gen_int_expr(rng: random.Random, depth: int, vars_=INT_VARS) -> Expr:
    if depth <= 0 or rng.random() < 0.45:
        if rng.random() < 0.4:
            return IntLit(rng.randrange(-9, 10))
        return Var(rng.choice(vars_))
    op = rng.choice(("+", "+", "-", "-", "*"))
    return Binary(op, gen_int_expr(rng, depth - 1, vars_), gen_int_expr(rng, depth - 1, vars_))


def gen_relation(rng: random.Random, depth: int = 1, vars_=INT_VARS) -> Expr:
    return Binary(
        rng.choice(REL_OPS), gen_int_expr(rng, depth, vars_), gen_int_expr(rng, depth, vars_)
    )


def gen_bool_expr(rng: random.Random, depth: int, vars_=INT_VARS, quant_depth: int = 1) -> Expr:
    if depth <= 0:
        return gen_relation(rng, 1, vars_)
    roll = rng.random()
    if roll < 0.40:
        return gen_relation(rng, rng.randrange(0, 2), vars_)
    if roll < 0.75:
        op = rng.choice(("&&", "&&", "||", "||", "==>", "<==", "<==>"))
        return Binary(
            op,
            gen_bool_expr(rng, depth - 1, vars_, quant_depth),
            gen_bool_expr(rng, depth - 1, vars_, quant_depth),
        )
    if roll < 0.85 or quant_depth <= 0:
        return Unary("!", gen_bool_expr(rng, depth - 1, vars_, quant_depth))
    qv = f"q{quant_depth}"
    lo = rng.randrange(-8, 2)
    hi = lo + rng.randrange(0, 6)
    range_expr = Binary(
        "&&", Binary("<=", IntLit(lo), Var(qv)), Binary("<=", Var(qv), IntLit(hi))
    )
    body_vars = tuple(vars_) + (qv,)
    return Quantifier(
        kind=rng.choice(("forall", "exists")),
        var=qv,
        range=range_expr,
        body=gen_bool_expr(rng, depth - 1, body_vars, quant_depth - 1),
    )


def gen_mutation_clause(rng: random.Random, max_sites: int = 4) -> Expr:
    """Boolean expression with at most ``max_sites`` mutation sites."""
    from specsmith.mutation import enumerate_sites

    while True:
        expr = gen_bool_expr(rng, rng.randrange(1, 4))
        if 1 <= len(enumerate_sites(expr)) <= max_sites:
            return expr


# ---------------------------------------------------------------------------
# Randomized verifier for repair-loop properties.


class RandomizedVerifier:
    """Passes with probability 0.15; otherwise refutes a random subset of
    the clauses it was shown, occasionally blaming a nonexistent clause."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.calls: list[list[tuple[str, str]]] = []

    def verify(self, program: AnnotatedProgram) -> VerifierVerdict:
        pairs = [(c.id, c.text) for c in program.clauses]
        self.calls.append(pairs)
        if not pairs or self.rng.random() < 0.15:
            return VerifierVerdict(Outcome.PASS)
        ids = [cid for cid, _ in pairs]
        chosen = self.rng.sample(ids, self.rng.randrange(1, len(ids) + 1))
        if self.rng.random() < 0.10:
            chosen[0] = "method:ghost/requires/9"  # unattributable blame
        failures = tuple(
            FailureReport(f"rejected {cid}", FailureCategory.UNKNOWN, cid)
            for cid in chosen
        )
        return VerifierVerdict(Outcome.FAIL, failures)


# ---------------------------------------------------------------------------
# Repair-loop oracle: the verify-and-replace loop as it was before it kept
# its selection. Every iteration rebuilds the selected clauses from the
# slots and the set of ids a failure may blame, every refutation reads the
# family's size, and the random strategy lists the unrefuted members afresh
# on every pick.


class RescanRandomStrategy:
    """A uniform choice among the family members not yet refuted, listed
    afresh on every pick, with a private generator seeded like
    :class:`~specsmith.repair.RandomStrategy`'s."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def pick(self, slot):
        candidates = [v for v in slot.family.variants if v.text not in slot.refuted]
        if not candidates:
            return None
        return self._rng.choice(candidates)


def rebuilt_selection(state) -> tuple[Clause, ...]:
    """The selected clauses, read off the slots in template order."""
    return tuple(slot.selected.clause for slot in state.slots.values() if slot.selected is not None)


def oracle_re_select(state, refuted_ids, strategy, iteration: int) -> None:
    for clause_id in refuted_ids:
        slot = state.slots[clause_id]
        refuted = slot.selected
        state.refuted_history.append(RefutationEvent(iteration=iteration, clause_id=clause_id, text=refuted.text))
        slot.refuted.add(refuted.text)
        if not slot.warned and 2 * len(slot.refuted) > len(slot.family):
            slot.warned = True
            state.thrash_warnings.append(
                f"template {clause_id} replaced {len(slot.refuted)} times "
                f"(family size {len(slot.family)}); "
                "verifier attribution may be thrashing"
            )
        slot.selected = strategy.pick(slot)


def oracle_spec_selection(state, source: str, verifier, strategy) -> RepairResult:
    """:func:`~specsmith.repair.spec_selection` with no budget, rebuilding
    what the loop keeps."""
    while True:
        program = AnnotatedProgram(source, rebuilt_selection(state))
        verdict = verifier.verify(program)
        state.verifier_calls += 1
        if not program.clauses:
            return RepairResult(program, state, "exhausted")
        if verdict.outcome is Outcome.PASS:
            return RepairResult(program, state, "verified")
        if not verdict.failures:
            detail = f"verifier {verdict.outcome.value}"
            if verdict.detail:
                detail += f" ({verdict.detail})"
            return RepairResult(program, state, "no-verdict", detail)
        selected_ids = {clause.id for clause in program.clauses}
        refuted = []
        for failure in verdict.failures:
            if failure.clause_id in selected_ids and failure.clause_id not in refuted:
                refuted.append(failure.clause_id)
        if not refuted:
            refuted = [clause.id for clause in program.clauses]
        oracle_re_select(state, refuted, strategy, iteration=state.verifier_calls)


# ---------------------------------------------------------------------------
# History-trim oracle: the rule as it was before the conversation kept a
# running total. Every round re-sums every message.


def recount_trim_history(messages: list[dict], budget: int, shot_pairs: int) -> int:
    """Drop the oldest shot pairs (messages[1:3]) while the summed content
    length over 4 exceeds ``budget``; returns the pairs left."""
    while shot_pairs > 0 and sum(len(m["content"]) for m in messages) // 4 > budget:
        del messages[1:3]
        shot_pairs -= 1
    return shot_pairs


class ScriptedVerifier:
    """Replays ``verdicts`` one ``verify`` call at a time, whatever the
    program; one call past the end raises ScriptExhausted."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def verify(self, program: AnnotatedProgram) -> VerifierVerdict:
        if not self.verdicts:
            raise ScriptExhausted("scripted verifier has no verdicts left")
        return self.verdicts.pop(0)


class RecordingVerifier:
    """Wraps a verifier and records the clause texts it was shown, one
    tuple per call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, ...]] = []

    def verify(self, program: AnnotatedProgram) -> VerifierVerdict:
        self.calls.append(tuple(clause.text for clause in program.clauses))
        return self.inner.verify(program)


class RecordingChatClient:
    """Wraps a chat client and records a copy of every request it was sent."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[list[dict]] = []

    def complete(self, messages, cfg):
        self.calls.append([dict(m) for m in messages])
        return self.inner.complete(messages, cfg)


# ---------------------------------------------------------------------------
# A chat-completions endpoint on the loopback interface, for tests that send
# real HTTP requests.


class ChatServer:
    """A ``ThreadingHTTPServer`` on ``127.0.0.1`` that answers each request
    with the next scripted ``(status, body, delay)`` of ``outcomes`` and
    records in ``requests`` each request's method, path, headers (the
    case-insensitive ``HTTPMessage``) and body, decoded from JSON where it
    parses.

    The answer waits ``delay`` seconds. A ``body`` that is not ``str`` or
    ``bytes`` is sent as JSON. A status of None hangs up without an answer,
    a 3xx answer names ``/moved`` on this server as its ``Location``, and a
    request past the last outcome gets a 500. With ``trickle`` set, the
    body goes out one byte at a time, ``trickle`` seconds apart.
    """

    def __init__(self):
        self.outcomes: list[tuple[int | None, object, float]] = []
        self.requests: list[dict] = []
        self.trickle: float | None = None
        closing = threading.Event()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def answer(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = raw
                server.requests.append(
                    {"method": self.command, "path": self.path, "headers": self.headers, "body": body}
                )
                status, payload, delay = server.outcomes.pop(0) if server.outcomes else (500, "", 0.0)
                if closing.wait(delay) or status is None:
                    self.close_connection = True
                    return
                if not isinstance(payload, (str, bytes)):
                    payload = json.dumps(payload)
                if isinstance(payload, str):
                    payload = payload.encode("utf-8")
                try:
                    self.send_response(status)
                    if 300 <= status < 400:
                        self.send_header("Location", "/moved")
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    if server.trickle is None:
                        self.wfile.write(payload)
                    else:
                        for index in range(len(payload)):
                            self.wfile.write(payload[index : index + 1])
                            if closing.wait(server.trickle):
                                break
                except (BrokenPipeError, ConnectionResetError):  # the client gave up waiting
                    self.close_connection = True

            do_GET = do_POST = answer

            def log_message(self, format, *args):
                pass

        self._closing = closing
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        # A short poll keeps ``shutdown``, which waits for the loop's next poll, quick.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,), daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1"

    def close(self) -> None:
        self._closing.set()  # ends every delay still running
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def chat_server(monkeypatch):
    """A running ``ChatServer``, reached directly: the proxy variables are cleared."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = ChatServer()
    yield server
    server.close()


def unused_port() -> int:
    """A loopback port that nothing listens on, so a connection to it is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ---------------------------------------------------------------------------
# Rendering oracle: a plain recursive renderer, kept apart from the package's
# plan builder so that the family and label oracles do not check the builder
# against itself. It reads only the operator table the parser reads.

_ORACLE_UNARY, _ORACLE_POSTFIX, _ORACLE_ATOM = 9, 10, 11


def _oracle_precedence(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return BINARY_LEVEL[expr.op]
    if isinstance(expr, Unary):
        return _ORACLE_UNARY
    if isinstance(expr, (ArrayIndex, FieldAccess)):
        return _ORACLE_POSTFIX
    return _ORACLE_ATOM


def _oracle_side(child: Expr, parent_op: str, is_rhs: bool) -> str:
    text = oracle_render_expr(child)
    if not isinstance(child, Binary):
        return text
    child_level, parent_level = BINARY_LEVEL[child.op], BINARY_LEVEL[parent_op]
    if child_level != parent_level:
        wrap = child_level < parent_level
    else:
        # Against the operator's associativity, or ==> meeting <==.
        wrap = (parent_op in RIGHT_ASSOC_OPS) != is_rhs or (parent_op in ("==>", "<==") and child.op != parent_op)
    return f"({text})" if wrap else text


def _oracle_postfix_base(base: Expr) -> str:
    text = oracle_render_expr(base)
    # A negative literal's minus would fold into the literal alone.
    return f"({text})" if _oracle_precedence(base) < _ORACLE_POSTFIX or text.startswith("-") else text


def oracle_render_expr(expr: Expr) -> str:
    """Canonical text of an expression: minimal parentheses, single spaces,
    and a parse back to ``expr``."""
    if isinstance(expr, Binary):
        lhs = _oracle_side(expr.lhs, expr.op, is_rhs=False)
        rhs = _oracle_side(expr.rhs, expr.op, is_rhs=True)
        return f"{lhs} {expr.op} {rhs}"
    if isinstance(expr, Unary):
        inner = oracle_render_expr(expr.operand)
        if _oracle_precedence(expr.operand) < _ORACLE_UNARY or inner.startswith("-"):
            inner = f"({inner})"
        elif expr.op == "neg":
            # The parser folds a minus into the literal right after it.
            inner = re.sub(r"^\d+", r"(\g<0>)", inner)
        return ("!" if expr.op == "!" else "-") + inner
    if isinstance(expr, Quantifier):
        return (
            f"(\\{expr.kind} int {expr.var}; "
            f"{oracle_render_expr(expr.range)}; {oracle_render_expr(expr.body)})"
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
        return f"{_oracle_postfix_base(expr.base)}[{oracle_render_expr(expr.index)}]"
    if isinstance(expr, FieldAccess):
        return f"{_oracle_postfix_base(expr.base)}.{expr.field}"
    if isinstance(expr, ResultRef):
        return "\\result"
    if isinstance(expr, OldRef):
        return f"\\old({oracle_render_expr(expr.inner)})"
    raise TypeError(f"cannot render {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Independent mutation-family oracle: its own operator table, its own
# combination strategy (cartesian product applied deepest-path-first).

DEC = "dec-lhs"  # l <= r  ->  l - 1 <= r
INC = "inc-lhs"  # l >= r  ->  l + 1 >= r

ORACLE_TABLE: dict[str, tuple[str, list[str]]] = {
    "forall": ("predicative", ["exists"]),
    "exists": ("predicative", ["forall"]),
    "&&": ("logical", ["||"]),
    "||": ("logical", ["&&"]),
    "<==>": ("logical", ["<==", "==>"]),
    "==>": ("logical", ["<=="]),
    "<==": ("logical", ["==>"]),
    "<=": ("comparative", ["<", DEC]),
    ">=": ("comparative", [">", INC]),
    "<": ("comparative", ["<="]),
    ">": ("comparative", [">="]),
    "==": ("comparative", ["!="]),
    "!=": ("comparative", ["=="]),
    "+": ("arithmetic", ["-"]),
    "-": ("arithmetic", ["+"]),
}

ORACLE_WEIGHTS = {"comparative": -1, "logical": -2, "arithmetic": -4, "predicative": -4}


def _oracle_op(node: Expr) -> str | None:
    if isinstance(node, Quantifier):
        return node.kind
    if isinstance(node, Binary) and node.op in ORACLE_TABLE:
        return node.op
    return None


def oracle_sites(expr: Expr) -> list[tuple[tuple[int, ...], str]]:
    found: list[tuple[tuple[int, ...], str]] = []

    def visit(node: Expr, path: tuple[int, ...]) -> None:
        op = _oracle_op(node)
        if op is not None:
            found.append((path, op))
        for i, child in enumerate(node.children()):
            visit(child, path + (i,))

    visit(expr, ())
    return found


def _oracle_apply_one(node: Expr, replacement: str) -> Expr:
    if isinstance(node, Quantifier):
        return Quantifier(replacement, node.var, node.range, node.body)
    assert isinstance(node, Binary)
    if replacement == DEC:
        return Binary("<=", Binary("-", node.lhs, IntLit(1)), node.rhs)
    if replacement == INC:
        return Binary(">=", Binary("+", node.lhs, IntLit(1)), node.rhs)
    return Binary(replacement, node.lhs, node.rhs)


# --- Records and their dataclass twins ------------------------------------

# Every record class, and the dataclass it was defined as before it became a
# plain class: the same name, fields and defaults, frozen where it was. The
# twins are the oracle for how a record compares, hashes and prints.
RECORD_TWINS: dict[type, type] = {}


def _twin(cls, *fields, frozen=True, base=None):
    """Define ``cls``'s twin: each field a name, or a (name, default) pair."""
    spec = [f if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1])) for f in fields]
    bases = (RECORD_TWINS[base],) if base else ()
    RECORD_TWINS[cls] = dataclasses.make_dataclass(cls.__name__, spec, bases=bases, frozen=frozen)


_twin(Expr)
_twin(Quantifier, "kind", "var", "range", "body")
_twin(Binary, "op", "lhs", "rhs")
_twin(Unary, "op", "operand")
_twin(Var, "name")
_twin(IntLit, "value")
_twin(BoolLit, "value")
_twin(NullLit)
_twin(ArrayIndex, "base", "index")
_twin(FieldAccess, "base", "field")
_twin(ResultRef)
_twin(OldRef, "inner")
_twin(Anchor, "method", ("loop", None))
_twin(Clause, "kind", "text", ("anchor", None), ("id", ""))
_twin(AnnotatedProgram, "source", ("clauses", ()))
_twin(TraceRecord, "anchor", "phase", "bindings", ("result", None), ("old", None), frozen=False)
_twin(MutationSite, "path", "kind", "original_op")
_twin(WeightTable, ("comparative", -1), ("logical", -2), ("arithmetic", -4), ("predicative", -4))
_twin(FailureReport, "raw_message", "category", ("clause_id", None), ("source_line", None))
_twin(VerifierVerdict, "outcome", ("failures", ()), ("detail", ""), ("coverage_caveat", False))
_twin(Rule, "pattern", "category")
_twin(RefutationEvent, "iteration", "clause_id", "text", frozen=False)
_twin(RepairResult, "program", "state", "outcome", ("detail", ""), frozen=False)
_twin(PipelineContext, "config", "verifier", "shots", ("guidance", None), frozen=False)
_twin(
    EndpointConfig,
    ("base_url", "http://localhost:8000/v1"),
    ("model", "local-model"),
    ("temperature", 0.4),
    ("max_rounds", 10),
    ("shot_count", 4),
    ("api_key_env", "SPECSMITH_API_KEY"),
    ("request_timeout", 120.0),
    ("retries", 2),
    ("retry_backoff", 1.0),
    ("history_token_budget", 64000),
)
_twin(ExtractionFailure, "diagnostics")
_twin(Round, "prompt", "response", "extracted", ("extraction_diagnostics", ()), ("verdict", None), frozen=False)
_twin(
    config_module.EndpointSettings,
    ("mode", "live"),
    ("script", None),
    ("shot_selection", "corpus-order"),
    ("shot_seed", 0),
    base=EndpointConfig,
)
_twin(
    config_module.VerifierSettings,
    ("adapter", "trace"),
    ("command", None),
    ("timeout_seconds", 1800.0),
    ("failures_per_call", None),
    ("rules", DEFAULT_RULES),
    ("trace_file", None),
    ("mock_truth", None),
)
_twin(config_module.MutationSettings, ("kinds", ALL_KINDS), ("variant_cap", 4096))
_twin(config_module.StrategySettings, ("name", "heuristic"), ("seed", 0))
_twin(config_module.BudgetSettings, ("pipeline_seconds", 1800.0))
_twin(config_module.PathSettings, ("corpus_dir", None), ("guidance_file", None), ("output_dir", "runs"))
_twin(config_module.ReportSettings, ("deterministic_clock", False))
_twin(
    config_module.PipelineConfig,
    ("endpoint", config_module.EndpointSettings()),
    ("verifier", config_module.VerifierSettings()),
    ("weights", WeightTable()),
    ("mutation", config_module.MutationSettings()),
    ("strategy", config_module.StrategySettings()),
    ("budgets", config_module.BudgetSettings()),
    ("paths", config_module.PathSettings()),
    ("report", config_module.ReportSettings()),
)

# Field values for fields without a default: hashable, and few, so that
# equal records come up often.
_FIELD_POOL = [None, 0, 1, "a", "b", (), ("a",), True, Outcome.FAIL, ClauseKind.REQUIRES, Anchor("f"), Var("a")]


def _other_than(default):
    """A value of a default's kind that a record's own checks accept."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, (int, float)):
        return default + 1
    if isinstance(default, str):
        return default + "x"
    if default is None:
        return "x"
    if isinstance(default, tuple):
        return ("x",)
    return default  # a set of kinds or a config section: kept


@st.composite
def record_and_twin(draw, cls=None):
    """A record and its twin, made from the same field values; records
    whose own checks refuse the values are not drawn."""
    if cls is None:
        cls = draw(st.sampled_from(list(RECORD_TWINS)))
    values = []
    for field in dataclasses.fields(RECORD_TWINS[cls]):
        has_default = field.default is not dataclasses.MISSING
        choices = [field.default, _other_than(field.default)] if has_default else _FIELD_POOL
        values.append(draw(st.sampled_from(choices)))
    try:
        record = cls(*values)
    except ValueError:  # e.g. a failing verdict without failures
        assume(False)
    return record, RECORD_TWINS[cls](*values)


def record_fields(record) -> tuple:
    """A record's fields in order, as ``dataclasses.astuple`` gave a
    dataclass's (without recursing into nested values)."""
    return tuple(getattr(record, name) for name in record._fields)


def with_child(node: Expr, index: int, child: Expr) -> Expr:
    """``node`` with its ``index``-th child (in ``children()`` order) replaced."""
    names = [name for name in node._fields if isinstance(getattr(node, name), Expr)]
    return node.replace(**{names[index]: child})


def _oracle_apply(expr: Expr, path: tuple[int, ...], replacement: str) -> Expr:
    if not path:
        return _oracle_apply_one(expr, replacement)
    return with_child(expr, path[0], _oracle_apply(expr.children()[path[0]], path[1:], replacement))


# The oracle's name for each schema replacement spelled differently.
_ORACLE_TOKEN = {"\\forall": "forall", "\\exists": "exists", "- 1 <=": DEC, "+ 1 >=": INC}


def oracle_variant_tree(family, assignment: bytes) -> Expr:
    """The tree of the family member at ``assignment``, rebuilt from the
    template by the oracle's own rewrites, deepest site first."""
    chosen = [
        (site.path, replacement)
        for site, site_options, index in zip(family.plan.sites, family.plan.options, assignment)
        if (replacement := site_options[index][1]) is not None
    ]
    tree = family.template.expr
    for path, replacement in sorted(chosen, key=lambda pair: -len(pair[0])):
        tree = _oracle_apply(tree, path, _ORACLE_TOKEN.get(replacement, replacement))
    return tree


def oracle_family(
    expr: Expr, weights: dict[str, int] = ORACLE_WEIGHTS, kinds: frozenset[str] | None = None
) -> dict[str, int]:
    """Every distinct variant text mapped to its best (maximum) score; with
    ``kinds``, only sites of those kind names are mutated."""
    sites = [s for s in oracle_sites(expr) if kinds is None or ORACLE_TABLE[s[1]][0] in kinds]
    per_site: list[list[tuple[str | None, int]]] = []
    for _, op in sites:
        kind, repls = ORACLE_TABLE[op]
        per_site.append([(None, 0)] + [(r, weights[kind]) for r in repls])

    best: dict[str, int] = {}
    for combo in itertools.product(*per_site):
        mutated = expr
        score = 0
        # Deepest paths first so an enclosing structural rewrite wraps the
        # already-mutated subtree, and shallower paths stay valid.
        order = sorted(range(len(sites)), key=lambda i: -len(sites[i][0]))
        for i in order:
            replacement, delta = combo[i]
            if replacement is None:
                continue
            mutated = _oracle_apply(mutated, sites[i][0], replacement)
            score += delta
        text = oracle_render_expr(mutated)
        if text not in best or score > best[text]:
            best[text] = score
    return best


@functools.lru_cache(maxsize=256)
def _oracle_scores(template: Expr, weights: WeightTable) -> dict[str, int]:
    return oracle_family(template, {kind.value: weights[kind] for kind in MutationKind})


def score_variant(variant: Variant, weights: WeightTable) -> int:
    """Scoring oracle, the paper's formula: the sum over kinds of
    (rewrites of that kind) x (kind weight), read from the oracle's own
    brute-force family of the variant's template (with every kind enabled:
    each text is one assignment, so one set of rewrites)."""
    expression = variant.text.split(" ", 2)[2][:-1]  # "//@ <kind> <expr>;"
    return _oracle_scores(variant.template.expr, weights)[expression]


def scale_weights(weights: WeightTable, factor: int) -> WeightTable:
    """``weights`` with every kind's weight multiplied by ``factor``."""
    return WeightTable(**{kind.value: weights[kind] * factor for kind in MutationKind})


# ---------------------------------------------------------------------------
# Level-walk oracle: the best-first walk that pushes every neighbor of a
# popped assignment and keeps a visited set, so each assignment is pushed by
# whichever neighbor reaches it first.


def visited_set_walk_levels(plan, cap):
    """The family order of ``plan`` under ``cap`` as ``mutation._Walk``
    records it: (score, [(text, assignment), ...]) per score level. Built
    whole by the visited-set walk, where a template that misses the cap
    evicts the worst member at the end."""
    template_text, template_assignment = plan._template.text, tuple(plan.assignment)
    render = render_plan(plan._template, plan.sites, plan.options)
    deltas = [[delta for delta, _ in site_options] for site_options in plan.options]
    start = tuple(0 for _ in deltas)
    heap = [(-sum(site[0] for site in deltas), start)]
    visited = {start}
    batch_limit = max(4 * cap, 16384)
    built = []  # (score, text, assignment) in family order
    stopped_early = False
    while heap and not stopped_early:
        batch_cost = heap[0][0]
        batch = []
        while heap and heap[0][0] == batch_cost:
            _, assignment = heapq.heappop(heap)
            batch.append(assignment)
            if len(batch) >= batch_limit:
                stopped_early = True
                break
            for i, site in enumerate(deltas):
                index = assignment[i]
                if index + 1 < len(site):
                    neighbor = assignment[:i] + (index + 1,) + assignment[i + 1 :]
                    if neighbor not in visited:
                        visited.add(neighbor)
                        cost = batch_cost + site[index] - site[index + 1]
                        heapq.heappush(heap, (cost, neighbor))
        members = sorted(
            (-batch_cost, template_text if assignment == template_assignment else render(assignment), assignment)
            for assignment in batch
        )
        for member in members:
            if len(built) >= cap:
                stopped_early = True
                break
            built.append(member)

    if all(assignment != template_assignment for _, _, assignment in built):
        if len(built) >= cap:
            built.pop()
        bisect.insort(built, (0, template_text, template_assignment), key=lambda m: (-m[0], m[1]))
    return [
        (score, [(text, bytes(assignment)) for _, text, assignment in run])
        for score, run in itertools.groupby(built, key=lambda m: m[0])
    ]


class VisitedSetWalk:
    """Drop-in for ``mutation._Walk`` that records the levels of
    :func:`visited_set_walk_levels` one step at a time."""

    def __init__(self, plan, cap):
        self.order, self.scores, self.ends = bytearray(), [], []
        self._levels = iter(visited_set_walk_levels(plan, cap))

    def step(self, plan):
        score, level = next(self._levels, (None, None))
        if level is not None:
            for _, assignment in level:
                self.order.extend(assignment)
            self.scores.append(score)
            self.ends.append((self.ends[-1] if self.ends else 0) + len(level))
        return level


def visited_set_family(template, kinds=ALL_KINDS, cap=4096, weights=None):
    """``enumerate_variants`` on a fresh plan whose walk is the visited-set
    one, built whole."""
    plan_walk = mutation._Walk
    mutation._Walk = VisitedSetWalk
    try:
        plan = mutation.TemplatePlan(template.unplaced, frozenset(kinds), weights or mutation.DEFAULT_WEIGHTS)
        family = mutation.Family(template, plan, cap)
        family.variants
        return family
    finally:
        mutation._Walk = plan_walk


def select_by_heuristic(variants, weights):
    """Selection oracle: argmax by rescored weight, ties by ascending text."""
    if not variants:
        return None
    return min(variants, key=lambda v: (-score_variant(v, weights), v.text))


# ---------------------------------------------------------------------------
# Trace-check oracle: the linear scan the trace adapter replaced. Every
# clause walks the whole trace and re-evaluates on every call.


def oracle_verify_trace(program, traces, failures_per_call="all") -> VerifierVerdict:
    failures = []
    for clause in program.clauses:
        report = _oracle_placement(clause)
        if report is None:
            check = _oracle_decreases if clause.kind is ClauseKind.DECREASES else _oracle_pointwise
            report = check(clause, traces)
        if report is not None:
            failures.append(report)
    if failures_per_call == "one":
        failures = failures[:1]
    if failures:
        return VerifierVerdict(Outcome.FAIL, tuple(failures), coverage_caveat=True)
    return VerifierVerdict(Outcome.PASS, coverage_caveat=True)


_ORACLE_PHASE = {
    ClauseKind.REQUIRES: Phase.PRE,
    ClauseKind.ENSURES: Phase.POST,
    ClauseKind.MAINTAINING: Phase.ITER,
}
_ORACLE_CATEGORY = {
    ClauseKind.REQUIRES: FailureCategory.UNPROVABLE_PRECONDITION,
    ClauseKind.ENSURES: FailureCategory.UNPROVABLE_POSTCONDITION,
    ClauseKind.MAINTAINING: FailureCategory.UNPROVABLE_INVARIANT,
}


def _oracle_label(clause) -> str:
    return f"{clause.kind.value} {oracle_render_expr(clause.expr)}"


def _oracle_report(clause, message, category=FailureCategory.TYPE_ERROR) -> FailureReport:
    return FailureReport(message, category, clause_id=clause.id)


def _oracle_placement(clause):
    """Contracts sit above a method header and loop clauses above a loop;
    any other placement is a syntax error. A clause with no anchor has no
    placement to check."""
    if clause.anchor is None:
        return None
    at_loop = clause.anchor.loop is not None
    if (clause.kind in (ClauseKind.MAINTAINING, ClauseKind.DECREASES)) == at_loop:
        return None
    place = "a method header, not a loop" if at_loop else "a loop, not a method header"
    return _oracle_report(
        clause,
        f"{_oracle_label(clause)} at {clause.anchor.key()}: {clause.kind.value} clauses belong above {place}",
        FailureCategory.SYNTAX_ERROR,
    )


def _oracle_pointwise(clause, traces):
    for index, record in enumerate(traces):
        if record.phase is not _ORACLE_PHASE[clause.kind] or record.anchor != clause.anchor:
            continue
        try:
            value = eval_expr(clause.expr, record)
        except EvalError as exc:
            return _oracle_report(
                clause, f"cannot evaluate {_oracle_label(clause)} at trace record {index}: {exc}"
            )
        if value is not True:
            return _oracle_report(
                clause,
                f"{_oracle_label(clause)} is falsified by trace record {index}",
                _ORACLE_CATEGORY[clause.kind],
            )
    return None


def _oracle_decreases(clause, traces):
    """The first record in trace order that fails: its measure does not
    evaluate, is not an integer, is negative, or is not below the measure
    of the iteration before it in the same activation."""
    method = clause.anchor.method if clause.anchor is not None else None
    decreases = FailureCategory.NONTERMINATION_DECREASES
    activation = []  # the measures of the current activation so far
    loop = clause.anchor.loop if clause.anchor is not None else None
    for index, record in enumerate(traces):
        if record.anchor.method != method:
            continue
        boundary = record.phase in (Phase.PRE, Phase.POST) and record.anchor.loop is None
        # An enclosing loop precedes the loops nested in it, so an iteration
        # of an earlier loop starts a fresh activation of this one.
        earlier_loop = (
            record.phase is Phase.ITER
            and None not in (loop, record.anchor.loop)
            and record.anchor.loop < loop
        )
        if boundary or earlier_loop:
            activation = []
            continue
        if record.phase is Phase.ITER and record.anchor == clause.anchor:
            try:
                value = eval_expr(clause.expr, record)
            except EvalError as exc:
                return _oracle_report(
                    clause,
                    f"cannot evaluate {_oracle_label(clause)} at trace record {index}: {exc}",
                )
            if isinstance(value, bool) or not isinstance(value, int):
                return _oracle_report(
                    clause,
                    f"{_oracle_label(clause)} must be integer-valued, "
                    f"got {value!r} at trace record {index}",
                )
            if value < 0:
                return _oracle_report(
                    clause,
                    f"{_oracle_label(clause)} is negative ({value}) at trace record {index}",
                    decreases,
                )
            if activation and value >= activation[-1]:
                return _oracle_report(
                    clause,
                    f"{_oracle_label(clause)} fails to strictly decrease "
                    f"({activation[-1]} then {value}) at trace record {index}",
                    decreases,
                )
            activation.append(value)
    return None


def gen_trace_case(rng: random.Random) -> tuple[list[TraceRecord], list[Clause]]:
    """A trace of nested, interleaved method activations plus a clause pool.

    A clause's anchor is mostly one its kind fits (a method anchor for a
    contract, a loop anchor for a loop clause), sometimes ``None`` and
    sometimes one of the other side, which the adapter refuses as misplaced
    before it reads any record. Either side includes anchors no record
    carries. Some records leave a variable unbound or bind a boolean, so
    evaluation errors and non-integer measures occur.
    """
    methods = ("f", "g")
    traces: list[TraceRecord] = []

    def bindings(i: int, n: int) -> dict:
        values = {name: rng.randrange(-6, 7) for name in INT_VARS}
        values.update(i=i, n=n)
        if rng.random() < 0.05:
            del values[rng.choice(INT_VARS)]
        if rng.random() < 0.03:
            values["i"] = True
        return values

    def activation(depth: int) -> None:
        method = rng.choice(methods)
        n = rng.randrange(0, 5)
        traces.append(TraceRecord(Anchor(method), Phase.PRE, bindings(0, n)))
        for i in range(n + rng.choice((0, 0, 1))):
            loop = rng.choice((0, 0, 1, None))
            step = i if rng.random() < 0.9 else i - 1  # occasionally not decreasing
            traces.append(TraceRecord(Anchor(method, loop), Phase.ITER, bindings(step, n)))
            if rng.random() < 0.15:  # a pre/post at a loop anchor is not a boundary
                phase = rng.choice((Phase.PRE, Phase.POST))
                traces.append(TraceRecord(Anchor(method, 0), phase, bindings(i, n)))
            if depth > 0 and rng.random() < 0.2:
                activation(depth - 1)
        traces.append(TraceRecord(Anchor(method), Phase.POST, bindings(n, n), result=n))

    for _ in range(rng.randrange(1, 6)):
        activation(2)

    method_anchors = (Anchor("f"), Anchor("g"), Anchor("h"))
    loop_anchors = (Anchor("f", 0), Anchor("f", 1), Anchor("g", 0), Anchor("f", 7))
    # The last measure goes negative one iteration before it divides by zero.
    measures = ("n - i", "n - i + 1", "i", "n - i - 2", "x", "n - i - 2 + 0 * (1 / (n - i))")
    conditions = ("i <= n", "0 <= i", "i < n", "n >= 0", "x < 7")
    clauses: list[Clause] = []
    for number in range(rng.randrange(2, 9)):
        kind = rng.choice(list(ClauseKind))
        fits, misfits = (
            (loop_anchors, method_anchors)
            if kind in (ClauseKind.MAINTAINING, ClauseKind.DECREASES)
            else (method_anchors, loop_anchors)
        )
        draw = rng.random()
        anchor = None if draw < 0.1 else rng.choice(misfits if draw < 0.2 else fits)
        if kind is ClauseKind.DECREASES:
            fixed, generated = measures, gen_int_expr(rng, 2)
        else:
            fixed, generated = conditions, gen_bool_expr(rng, 2)
        text = rng.choice(fixed) if rng.random() < 0.65 else render_expr(generated)
        clauses.append(parse_clause(f"{kind.value} {text};", anchor=anchor, clause_id=f"c{number}"))
    return traces, clauses


# ---------------------------------------------------------------------------
# Extraction oracle: response extraction as it was before one scan served it.
# The fence pattern is lazy under DOTALL, so it tries the closing fence at
# every character of a body; every line is stripped and filtered to decide
# whether the body is annotated and whether it is a bare block, and then
# stripped again to pull the annotations out. A bare block is written into
# the program's text, which is extracted whole and its diagnostics renumbered.

ORACLE_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def oracle_extract_annotations(source: str) -> AnnotatedProgram:
    lines = source.splitlines()
    stripped_lines: list[str] = []
    pending: list[tuple[int, str]] = []
    blocks: list[tuple[int, list[tuple[int, str]]]] = []
    issues: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines, start=1):
        annotation = line.strip()
        if annotation.startswith("//@"):
            pending.append((line_no, annotation))
            continue
        stripped_lines.append(line)
        if pending:
            blocks.append((len(stripped_lines) - 1, pending))
            pending = []
    for line_no, _ in pending:
        issues.append((line_no, clauses._ORPHAN_MESSAGE))
    stripped = "\n".join(stripped_lines)
    if source.endswith("\n"):
        stripped += "\n"
    anchors_by_line = clauses.program_anchors(stripped)[0]
    ordinals: dict[str, int] = {}
    placed: list[Clause] = []
    for anchor_idx, block in blocks:
        anchor = anchors_by_line.get(anchor_idx)
        if anchor is None:
            issues.extend((line_no, clauses._ORPHAN_MESSAGE) for line_no, _ in block)
            continue
        for line_no, line in block:
            entry = clauses.clause_line(line)
            if isinstance(entry, str):
                issues.append((line_no, entry))
                continue
            issue = misplacement(entry.kind, anchor.loop is not None)
            if issue is not None:
                issues.append((line_no, issue))
                continue
            prefix = f"{anchor.key()}/{entry.kind.value}/"
            ordinal = ordinals.get(prefix, 0)
            ordinals[prefix] = ordinal + 1
            placed.append(entry.placed(anchor, f"{prefix}{ordinal}"))
    if issues:
        raise ExtractionError(sorted(issues))
    return AnnotatedProgram(stripped, tuple(placed))


def oracle_extract_specs(response: str, program: str) -> AnnotatedProgram | ExtractionFailure:
    blocks = ORACLE_FENCE_RE.findall(response)
    body = blocks[-1] if blocks else response
    lines = [(number, line.strip()) for number, line in enumerate(body.splitlines(), start=1) if line.strip()]
    if not any(line.startswith("//@") for _, line in lines):
        return ExtractionFailure(("the response contains no //@ annotation lines",))
    numbers = None  # the line each line of ``body`` is reported as, when not its own
    if all(line.startswith("//@") for _, line in lines):
        bare = _oracle_write_in_bare_clauses(lines, program)
        if isinstance(bare, ExtractionFailure):
            return bare
        body, numbers = bare
    try:
        return oracle_extract_annotations(body)
    except ExtractionError as exc:
        issues = exc.issues if numbers is None else sorted((numbers[line - 1], m) for line, m in exc.issues)
        return ExtractionFailure(tuple(f"line {line}: {message}" for line, message in issues))


_ORACLE_LOOP_CLAUSE_RE = re.compile(r"//@\s*(?:maintaining|decreases)\b")


def _oracle_write_in_bare_clauses(lines, program):
    """``program`` rewritten with the bare (line number, line) pairs written
    in above its one method header, loop clauses above its one loop, and
    the line each of its lines is reported as: a bare line's number in the
    response, a program line's number in ``program``."""
    anchors = clauses.program_anchors(program)[0]
    methods = [i for i, a in anchors.items() if a.loop is None]
    loops = [i for i, a in anchors.items() if a.loop is not None]
    if len(methods) != 1:
        return ExtractionFailure(
            (
                "the response contains bare clauses but the queried program "
                f"has {len(methods)} methods; return the full annotated program",
            )
        )
    at_loop = [bool(_ORACLE_LOOP_CLAUSE_RE.match(line)) for _, line in lines]
    if any(at_loop) and len(loops) != 1:
        return ExtractionFailure(
            (
                "the response contains bare loop clauses but the queried "
                f"program has {len(loops)} loops; return the full annotated program",
            )
        )
    written, numbers = [], []
    for idx, line in enumerate(program.splitlines()):
        if idx in methods or idx in loops[:1]:
            for (number, clause), loop_clause in zip(lines, at_loop):
                if loop_clause is (idx not in methods):
                    written.append(clause)
                    numbers.append(number)
        written.append(line)
        numbers.append(idx + 1)
    return "\n".join(written) + ("\n" if program.endswith("\n") else ""), numbers


def extraction_fields(result) -> tuple:
    """What an extraction says: its diagnostics, or its source and each
    clause's kind, text, tree, anchor and id."""
    if isinstance(result, ExtractionFailure):
        return ("failure", result.diagnostics)
    return (
        result.source,
        tuple((c.kind, c.text, c.expr, c.anchor, c.id) for c in result.clauses),
    )


# Response strategy: programs with one method, one loop, two loops or two
# methods; annotation lines of every kind above every kind of line,
# malformed ones, and ``//@`` in mid-line; bare blocks; the body fenced,
# unfenced, fenced twice, unclosed or with a fence inside; CRLF endings.
EXTRACTION_PROGRAMS = (
    "class A {\n    static int f(int x) {\n        return x;\n    }\n}\n",
    "class B {\n    static int g(int n) {\n        int i = 0;\n        while (i < n) {\n"
    "            i = i + 1;\n        }\n        return i;\n    }\n}\n",
    "class C {\n    int h(int[] a) {\n        for (int i = 0; i < a.length; i++) {\n"
    "            for (int j = 0; j < i; j++) { }\n        }\n        return 0;\n    }\n}",
    "class D {\n    static int p(int x) { return x; }\n    static int q(int y) { return y; }\n}\n",
)
METHOD_ANNOTATIONS = (
    "//@ requires x > 0;",
    "//@ ensures \\result >= x;",
    "//@ requires n >= 0 && n < 100;",
    "//@ ensures \\result == 0 ==> (\\forall int k; 0 <= k && k < a.length; a[k] > 0);",
    "//@requires y != 0;",
)
LOOP_ANNOTATIONS = (
    "//@ maintaining 0 <= i && i <= n;",
    "//@ decreases n - i;",
    "//@  maintaining (\\exists int k; 0 <= k && k < i; a[k] == 0) || i == 0;",
)
ODD_ANNOTATIONS = (
    "//@ requires a <;",  # syntax error
    "//@ maintaining 1 + 2;",  # type mismatch
    "//@ invariant x > 0;",  # unknown kind
    "int z = 0; //@ requires z > 0;",  # //@ in mid-line: not an annotation
    "// @ ensures x > 0;",
)


@st.composite
def extraction_cases(draw) -> tuple[str, str]:
    """A (response, queried program) pair."""
    program = draw(st.sampled_from(EXTRACTION_PROGRAMS))
    indent = st.sampled_from(("", " ", "    ", "\t", "  \t "))
    tail = st.sampled_from(("", " ", "\t"))

    def annotations(pool, max_size):
        line = st.tuples(indent, st.sampled_from(pool), tail).map("".join)
        return st.lists(line, max_size=max_size)

    any_pool = METHOD_ANNOTATIONS + LOOP_ANNOTATIONS + ODD_ANNOTATIONS
    odd = st.sampled_from((ODD_ANNOTATIONS,) + (any_pool,) * 2)
    if draw(st.integers(0, 2)) == 0:  # a bare block, maybe with blank lines in it
        pool = draw(st.sampled_from((METHOD_ANNOTATIONS, METHOD_ANNOTATIONS + LOOP_ANNOTATIONS, any_pool, any_pool)))
        lines = draw(
            st.lists(st.one_of(annotations(pool, 1).map("".join), st.sampled_from(("", "   "))), max_size=6)
        )
        if draw(st.booleans()):  # the queried program holds lines of its own, maybe failing ones
            own = program.splitlines()
            at = draw(st.integers(0, len(own)))
            own[at:at] = draw(annotations(draw(odd), 2))
            program = "\n".join(own) + ("\n" if program.endswith("\n") else "")
    else:  # an annotated program: mostly the queried one, clauses mostly where they fit
        text = draw(st.sampled_from(EXTRACTION_PROGRAMS + (program,) * 6))
        anchors = clauses.program_anchors(text)[0]
        lines = []
        for idx, line in enumerate(text.splitlines()):
            if idx in anchors:
                fits = METHOD_ANNOTATIONS if anchors[idx].loop is None else LOOP_ANNOTATIONS
                lines += draw(annotations(fits, 3))
            if draw(st.integers(0, 9)) == 0:  # misplaced, malformed or orphaned
                lines += draw(annotations(draw(odd), 1))
            lines.append(line)
        if draw(st.integers(0, 9)) == 0:
            lines += draw(annotations(any_pool, 1))
    body = "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))
    fence = st.sampled_from(("```", "```java", "``` java ", "```j`s", "``"))
    close = st.sampled_from(("```", "```", "``", "````", "`` `", ""))
    shape = draw(st.sampled_from(("fenced", "fenced", "unfenced", "twice", "unclosed", "nested")))
    if shape == "fenced":
        response = f"Here you go.\n{draw(fence)}\n{body}{draw(close)}\ntrailing"
    elif shape == "unfenced":
        response = body
    elif shape == "twice":  # the last block wins, even an empty one
        last = draw(st.sampled_from(("", body, "//@ requires x > 0;\n")))
        response = f"{draw(fence)}\n{body}```\n\n{draw(fence)}\n{last}{draw(close)}"
    elif shape == "unclosed":
        response = f"{draw(fence)}\n{body}"
    else:
        response = f"```\n{draw(fence)}\n{body}{draw(close)}\n{body}```"
    if draw(st.booleans()):
        response = response.replace("\n", "\r\n")
    return response, program


def nested_quantifier_clause(width: int) -> str:
    """A requires line whose quantifier nests another, each over ``width``
    elements, so checking it walks ``width`` squared elements."""
    return (
        f"//@ requires (\\forall int i; 0 <= i && i < {width}; "
        f"(\\forall int j; 0 <= j && j < {width}; i + j >= 0));"
    )


# ---------------------------------------------------------------------------
# Trace-file writer: the inverse of tracefile.record_from_dict, for tests that
# round-trip records through a file.


def _encode_value(value):
    return None if value is NULL else value


def record_to_dict(record: TraceRecord) -> dict:
    obj = {
        "anchor": record.anchor.key(),
        "phase": record.phase.value,
        "bindings": {name: _encode_value(value) for name, value in record.bindings.items()},
    }
    if record.result is not None:
        obj["result"] = _encode_value(record.result)
    if record.old is not None:
        obj["old"] = {name: _encode_value(value) for name, value in record.old.items()}
    return obj


def typed(value):
    """A value with the type of every part, for comparing values exactly:
    True == 1 and 1 == 1.0, but their typed forms differ."""
    if isinstance(value, dict):
        return [(typed(key), typed(item)) for key, item in value.items()]
    if isinstance(value, list):
        return ["list", [typed(item) for item in value]]
    return (type(value).__name__, value)


def dump_trace_file(path: str, records: list[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Trace-file oracle: the decoder as it was before the lean one. It builds
# each line's context up front, checks every array item, and decodes every
# anchor key afresh.


def _oracle_decode_value(raw, context):
    if raw is None:
        return NULL
    if isinstance(raw, bool) or isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        return raw
    if isinstance(raw, list):
        for item in raw:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ValueError(f"{context}: arrays may only hold integers, got {item!r}")
        return list(raw)
    raise ValueError(f"{context}: unsupported value {raw!r}")


def _oracle_record(obj, context):
    if not isinstance(obj, dict):
        raise ValueError(f"{context}: expected a JSON object")
    known = {"anchor", "phase", "bindings", "result", "old"}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"{context}: unknown fields {sorted(unknown)}")
    try:
        anchor = Anchor.from_key(obj["anchor"])
        phase = Phase(obj["phase"])
    except (KeyError, ValueError, AttributeError) as exc:
        raise ValueError(f"{context}: {exc}") from exc
    bindings_raw = obj.get("bindings", {})
    if not isinstance(bindings_raw, dict):
        raise ValueError(f"{context}: bindings must be an object")
    bindings = {
        name: _oracle_decode_value(value, f"{context}, binding {name!r}")
        for name, value in bindings_raw.items()
    }
    result = _oracle_decode_value(obj["result"], f"{context}, result") if "result" in obj else None
    old = None
    if "old" in obj and obj["old"] is not None:
        old_raw = obj["old"]
        if not isinstance(old_raw, dict):
            raise ValueError(f"{context}: old must be an object")
        old = {
            name: _oracle_decode_value(value, f"{context}, old binding {name!r}")
            for name, value in old_raw.items()
        }
    return TraceRecord(anchor=anchor, phase=phase, bindings=bindings, result=result, old=old)


def oracle_load_trace_file(path: str) -> list[TraceRecord]:
    records = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            context = f"{path}:{line_no}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{context}: not valid UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{context}: bad JSON: {exc}") from exc
            try:
                records.append(_oracle_record(obj, context))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    return records


# ---------------------------------------------------------------------------
# Tokenizer oracle: the per-position scan the one-pass tokenizer replaced,
# with its own copy of the token pattern (no catch-all group).

_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<kw>\\(?:forall|exists|result|old))
  | (?P<name>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<op><==>|==>|<==|&&|\|\||==|!=|<=|>=|[-+*/%<>!()\[\];.,])
    """,
    re.VERBOSE,
)


def oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _ORACLE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ClauseSyntaxError(f"unrecognized character {text[pos]!r}", offset=pos)
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Independent evaluator oracle: recursive interpreter with window-scan
# quantifiers instead of bound extraction. Errors collapse to short tags.


def _oracle_java_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _oracle_java_rem(a: int, b: int) -> int:
    return a - _oracle_java_div(a, b) * b


class OracleError(Exception):
    def __init__(self, tag: str):
        super().__init__(tag)
        self.tag = tag


QUANT_WINDOW = range(-100, 101)


def oracle_eval(expr: Expr, record: TraceRecord, env: dict | None = None, in_old: bool = False):
    bind = dict(record.bindings) if env is None else env

    def ev(node: Expr, scope: dict, old_mode: bool):
        if isinstance(node, IntLit):
            return node.value
        if isinstance(node, BoolLit):
            return node.value
        if isinstance(node, NullLit):
            return NULL
        if isinstance(node, Var):
            if node.name in scope:
                return scope[node.name]
            raise OracleError("unbound")
        if isinstance(node, ResultRef):
            if record.result is None:
                raise OracleError("unbound")
            return record.result
        if isinstance(node, OldRef):
            if record.old is None:
                raise OracleError("old")
            merged = dict(record.old)
            # Quantifier bindings stay visible inside \old.
            for name, value in scope.items():
                if name not in record.bindings and name not in merged:
                    merged[name] = value
            return ev(node.inner, merged, True)
        if isinstance(node, FieldAccess):
            base = ev(node.base, scope, old_mode)
            if node.field == "length" and isinstance(base, list):
                return len(base)
            raise OracleError("type")
        if isinstance(node, ArrayIndex):
            base = ev(node.base, scope, old_mode)
            index = ev(node.index, scope, old_mode)
            if not isinstance(base, list) or not isinstance(index, int) or isinstance(index, bool):
                raise OracleError("type")
            if index < 0 or index >= len(base):
                raise OracleError("index")
            return base[index]
        if isinstance(node, Unary):
            value = ev(node.operand, scope, old_mode)
            if node.op == "!":
                if not isinstance(value, bool):
                    raise OracleError("type")
                return not value
            if not isinstance(value, int) or isinstance(value, bool):
                raise OracleError("type")
            return -value
        if isinstance(node, Quantifier):
            for candidate in QUANT_WINDOW:
                inner = dict(scope)
                inner[node.var] = candidate
                guard = ev(node.range, inner, old_mode)
                if not isinstance(guard, bool):
                    raise OracleError("type")
                if not guard:
                    continue
                body = ev(node.body, inner, old_mode)
                if not isinstance(body, bool):
                    raise OracleError("type")
                if node.kind == "forall" and not body:
                    return False
                if node.kind == "exists" and body:
                    return True
            return node.kind == "forall"
        assert isinstance(node, Binary)
        if node.op in ("&&", "||", "==>"):
            lhs = ev(node.lhs, scope, old_mode)
            if not isinstance(lhs, bool):
                raise OracleError("type")
            if node.op == "&&" and not lhs:
                return False
            if node.op == "||" and lhs:
                return True
            if node.op == "==>" and not lhs:
                return True
            rhs = ev(node.rhs, scope, old_mode)
            if not isinstance(rhs, bool):
                raise OracleError("type")
            return rhs
        if node.op == "<==":
            # Mirrors the subject's declared order: consequent side first.
            rhs = ev(node.rhs, scope, old_mode)
            if not isinstance(rhs, bool):
                raise OracleError("type")
            lhs = ev(node.lhs, scope, old_mode)
            if not isinstance(lhs, bool):
                raise OracleError("type")
            return lhs or not rhs
        if node.op == "<==>":
            lhs = ev(node.lhs, scope, old_mode)
            if not isinstance(lhs, bool):
                raise OracleError("type")
            rhs = ev(node.rhs, scope, old_mode)
            if not isinstance(rhs, bool):
                raise OracleError("type")
            return lhs == rhs
        if node.op in ("==", "!="):
            equal = _oracle_equal(
                ev(node.lhs, scope, old_mode), ev(node.rhs, scope, old_mode)
            )
            return equal if node.op == "==" else not equal
        lhs = ev(node.lhs, scope, old_mode)
        if not isinstance(lhs, int) or isinstance(lhs, bool):
            raise OracleError("type")
        rhs = ev(node.rhs, scope, old_mode)
        if not isinstance(rhs, int) or isinstance(rhs, bool):
            raise OracleError("type")
        if node.op == "<":
            return lhs < rhs
        if node.op == "<=":
            return lhs <= rhs
        if node.op == ">":
            return lhs > rhs
        if node.op == ">=":
            return lhs >= rhs
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        try:
            if node.op == "/":
                return _oracle_java_div(lhs, rhs)
            if node.op == "%":
                return _oracle_java_rem(lhs, rhs)
        except ZeroDivisionError:
            raise OracleError("div0") from None
        raise AssertionError(f"oracle: unexpected operator {node.op}")

    return ev(expr, bind, in_old)


def _oracle_equal(lhs, rhs) -> bool:
    if lhs is NULL or rhs is NULL:
        return lhs is rhs
    if isinstance(lhs, bool) != isinstance(rhs, bool):
        raise OracleError("type")
    if isinstance(lhs, list) != isinstance(rhs, list):
        raise OracleError("type")
    if isinstance(lhs, list):
        return lhs == rhs
    return lhs == rhs


ERROR_TAGS = {
    UnboundVariable: "unbound",
    IndexOutOfRange: "index",
    DivisionByZero: "div0",
    EvalTypeError: "type",
    MissingOldSnapshot: "old",
    UnboundedQuantifier: "width",
}


def eval_outcome(fn, *args):
    """Normalize a value-or-error result for oracle comparison."""
    try:
        return ("ok", fn(*args))
    except OracleError as exc:
        return ("error", exc.tag)
    except EvalError as exc:
        for klass, tag in ERROR_TAGS.items():
            if isinstance(exc, klass):
                return ("error", tag)
        return ("error", "eval")


def gen_eval_case(rng: random.Random) -> tuple[Expr, TraceRecord]:
    """Closed boolean expression plus a record that mostly binds it."""
    bindings = {name: rng.randrange(-20, 21) for name in INT_VARS}
    bindings["arr"] = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 7))]
    if rng.random() < 0.1:
        bindings["arr"] = NULL
    old = {name: rng.randrange(-20, 21) for name in INT_VARS}
    old["arr"] = bindings["arr"] if bindings["arr"] is NULL else list(bindings["arr"])
    result = rng.randrange(-20, 21)
    record = TraceRecord(
        anchor=None,
        phase=Phase.POST,
        bindings=bindings,
        result=result if rng.random() < 0.8 else None,
        old=old if rng.random() < 0.8 else None,
    )

    def int_leaf(depth: int) -> Expr:
        roll = rng.random()
        if roll < 0.30:
            return IntLit(rng.randrange(-9, 10))
        if roll < 0.62:
            return Var(rng.choice(INT_VARS))
        if roll < 0.70:
            return ResultRef()
        if roll < 0.80:
            return FieldAccess(Var("arr"), "length")
        if roll < 0.88:
            return ArrayIndex(Var("arr"), int_expr(depth - 1))
        if roll < 0.94:
            return Unary("-", int_expr(depth - 1))
        return OldRef(Var(rng.choice(INT_VARS)))

    def int_expr(depth: int) -> Expr:
        if depth <= 0 or rng.random() < 0.5:
            return int_leaf(depth)
        op = rng.choice(("+", "+", "-", "-", "*", "/", "%"))
        return Binary(op, int_expr(depth - 1), int_expr(depth - 1))

    def comparison(depth: int) -> Expr:
        return Binary(rng.choice(REL_OPS), int_expr(depth), int_expr(depth))

    def relation(depth: int) -> Expr:
        roll = rng.random()
        if roll < 0.08:
            return Binary(rng.choice(("==", "!=")), Var("arr"), NullLit())
        if roll < 0.16:
            # Equality over two booleans, or over a boolean and an int (a
            # type error), either way round.
            sides = [comparison(depth), comparison(depth) if rng.random() < 0.7 else int_expr(depth)]
            rng.shuffle(sides)
            return Binary(rng.choice(("==", "!=")), *sides)
        return comparison(depth)

    def bool_expr(depth: int, quant_budget: int) -> Expr:
        if depth <= 0:
            return relation(0)
        roll = rng.random()
        if roll < 0.40:
            return relation(rng.randrange(0, 2))
        if roll < 0.72:
            op = rng.choice(("&&", "&&", "||", "||", "==>", "<==", "<==>"))
            return Binary(op, bool_expr(depth - 1, quant_budget), bool_expr(depth - 1, quant_budget))
        if roll < 0.82 or quant_budget <= 0:
            return Unary("!", bool_expr(depth - 1, quant_budget))
        qv = f"q{quant_budget}"
        lo = rng.randrange(-25, 5)
        span = rng.randrange(0, 51)
        range_expr = Binary(
            "&&",
            Binary("<=", IntLit(lo), Var(qv)),
            Binary("<", Var(qv), IntLit(lo + span)),
        )
        body = bool_expr(depth - 1, quant_budget - 1)
        body = _substitute_some_vars(rng, body, qv)
        return Quantifier(rng.choice(("forall", "exists")), qv, range_expr, body)

    return bool_expr(rng.randrange(1, 4), 2), record


def _substitute_some_vars(rng: random.Random, expr: Expr, qv: str) -> Expr:
    """Rewrite some leaf variables to the quantified variable.

    Quantifier ranges are left untouched so nested domains stay bounded
    by literals.
    """
    if isinstance(expr, Var) and rng.random() < 0.4:
        return Var(qv)
    out = expr
    for i, child in enumerate(expr.children()):
        if isinstance(expr, Quantifier) and i == 0:
            continue
        out = with_child(out, i, _substitute_some_vars(rng, child, qv))
    return out


# ---------------------------------------------------------------------------
# Hypothesis strategies for parser round-trip properties.

_names = st.sampled_from(["a", "b", "c", "n", "x", "y", "idx", "total"])

_int_leaves = st.one_of(
    st.integers(min_value=-999, max_value=999).map(IntLit),
    _names.map(Var),
    st.just(ResultRef()),
    st.builds(FieldAccess, _names.map(Var), st.just("length")),
)


def _extend_int(children):
    return st.one_of(
        st.builds(
            Binary, st.sampled_from(["+", "-", "*", "/", "%"]), children, children
        ),
        st.builds(ArrayIndex, children, children),
        st.builds(FieldAccess, children, st.just("length")),
        st.builds(OldRef, children),
        st.builds(Unary, st.just("neg"), children),
    )


int_exprs = st.recursive(_int_leaves, _extend_int, max_leaves=8)

_bool_leaves = st.one_of(
    st.booleans().map(BoolLit),
    st.builds(Binary, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), int_exprs, int_exprs),
    st.builds(Binary, st.sampled_from(["==", "!="]), _names.map(Var), st.just(NullLit())),
)


def _extend_bool(children):
    return st.one_of(
        st.builds(
            Binary, st.sampled_from(["&&", "||", "==>", "<==", "<==>"]), children, children
        ),
        st.builds(Unary, st.just("!"), children),
        st.builds(
            Quantifier,
            st.sampled_from(["forall", "exists"]),
            st.sampled_from(["k", "m"]),
            children,
            children,
        ),
    )


bool_exprs = st.recursive(_bool_leaves, _extend_bool, max_leaves=8)


# ---------------------------------------------------------------------------
# Acceptance summary: one line per criterion at the end of the run.

ACCEPTANCE_CRITERIA = [
    ("test_criterion_1_golden_mutation_families", "golden operator mutation families"),
    ("test_criterion_2_family_enumeration_matches_brute_force", "family enumeration vs brute force"),
    ("test_criterion_3_scoring_and_scale_invariance", "weighted scoring and argmax scale invariance"),
    ("test_criterion_4_repair_loop_invariants", "repair loop call bound and no refuted revisits"),
    ("test_criterion_5_heuristic_beats_random", "heuristic selection beats random by at least 5%"),
    ("test_criterion_6_conversation_exhaustion_and_feedback", "conversation exhaustion and single-failure feedback"),
    ("test_criterion_7_twosum_end_to_end", "recorded two-sum run reproduces the hand simulation"),
    ("test_criterion_8_evaluator_matches_brute_force", "trace evaluation vs brute-force interpreter"),
    ("test_criterion_9_deterministic_reports", "fixture batch reports are byte-identical"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "").rsplit("::", 1)[-1]
            if getattr(report, "when", "call") == "call" or status == "error":
                outcomes[name] = status
    if not any(name in outcomes for name, _ in ACCEPTANCE_CRITERIA):
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, (name, description) in enumerate(ACCEPTANCE_CRITERIA, start=1):
        status = outcomes.get(name)
        if status == "passed":
            verdict = "PASS"
        elif status is None:
            verdict = "NOT RUN"
        else:
            verdict = "FAIL"
        terminalreporter.write_line(f"acceptance {number} {description}: {verdict}")
