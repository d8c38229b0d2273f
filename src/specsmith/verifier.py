"""Verifier abstraction and its three adapters.

* :class:`ExecVerifier` shells out to an external checker command and parses
  its diagnostics with a configurable, ordered rule list.
* :class:`TraceVerifier` checks clauses against recorded execution traces —
  sound up to trace coverage, so its verdicts carry a coverage caveat.
* :class:`MockVerifier` accepts a fixed truth set of clause texts.
"""
from __future__ import annotations

import contextlib
import os
import re
import shlex
import signal
import subprocess
import tempfile
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from .clauses import (
    Anchor,
    AnnotatedProgram,
    Clause,
    ClauseKind,
    check_anchors,
    instrument_with_lines,
    misplacement,
    program_anchors,
)
from .errors import ClauseSyntaxError, CommandNotFound, ConfigError, EvalError
from .evaluate import Phase, TraceRecord, eval_expr


class Outcome(Enum):
    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"
    CRASH = "crash"


class FailureCategory(Enum):
    SYNTAX_ERROR = "syntax-error"
    UNPROVABLE_POSTCONDITION = "unprovable-postcondition"
    UNPROVABLE_INVARIANT = "unprovable-invariant"
    UNPROVABLE_PRECONDITION = "unprovable-precondition"
    NONTERMINATION_DECREASES = "nontermination-decreases"
    TYPE_ERROR = "type-error"
    UNKNOWN = "unknown"


# Every verifier call makes a verdict and its failures, so each stores its
# whole ``__dict__`` at once, where a frozen dataclass's own constructor
# makes one ``object.__setattr__`` call per field.
_set = object.__setattr__
_PASS, _FAIL = Outcome.PASS, Outcome.FAIL


@dataclass(frozen=True, init=False)
class FailureReport:
    raw_message: str
    category: FailureCategory
    clause_id: str | None = None
    source_line: int | None = None

    def __init__(self, raw_message, category, clause_id=None, source_line=None):
        _set(
            self,
            "__dict__",
            {"raw_message": raw_message, "category": category, "clause_id": clause_id, "source_line": source_line},
        )


@dataclass(frozen=True, init=False)
class VerifierVerdict:
    """A PASS carries no failures, and a FAIL at least one."""

    outcome: Outcome
    failures: tuple[FailureReport, ...] = ()
    detail: str = ""  # context for crash/timeout outcomes
    coverage_caveat: bool = False  # True when the check only covers the traces seen

    def __init__(self, outcome, failures=(), detail="", coverage_caveat=False):
        if failures:
            if outcome is _PASS:
                raise ValueError("a passing verdict cannot carry failures")
        elif outcome is _FAIL:
            raise ValueError("a failing verdict needs at least one failure")
        _set(
            self,
            "__dict__",
            {"outcome": outcome, "failures": failures, "detail": detail, "coverage_caveat": coverage_caveat},
        )


class Verifier(Protocol):
    def verify(self, program: AnnotatedProgram) -> VerifierVerdict: ...


@dataclass(frozen=True)
class Rule:
    pattern: re.Pattern
    category: FailureCategory


def make_rules(entries: Sequence[tuple[str, FailureCategory]]) -> tuple[Rule, ...]:
    return tuple(Rule(re.compile(p, re.IGNORECASE), c) for p, c in entries)


# Ordered: first match wins. Patterns follow the diagnostic vocabulary of
# javac-style checkers; override via configuration when yours differs.
DEFAULT_RULES = make_rules(
    [
        (r"syntax|parse", FailureCategory.SYNTAX_ERROR),
        (r"type", FailureCategory.TYPE_ERROR),
        (r"postcondition", FailureCategory.UNPROVABLE_POSTCONDITION),
        (r"loop\s*invariant", FailureCategory.UNPROVABLE_INVARIANT),
        (r"precondition", FailureCategory.UNPROVABLE_PRECONDITION),
        (r"decreases|loop\s*variant|termination", FailureCategory.NONTERMINATION_DECREASES),
        (r"invariant", FailureCategory.UNPROVABLE_INVARIANT),
    ]
)


def classify_failure(raw_message: str, rules: Sequence[Rule] = DEFAULT_RULES) -> FailureCategory:
    """First matching rule wins; UNKNOWN when nothing matches."""
    for rule in rules:
        if rule.pattern.search(raw_message):
            return rule.category
    return FailureCategory.UNKNOWN


# --- External-command adapter ----------------------------------------------

_LINE_NO_RE = re.compile(r":(\d+):")


def _parse_diagnostics(
    output: str,
    rules: Sequence[Rule],
    clause_lines: Sequence[tuple[int, str]],
) -> list[FailureReport]:
    """Recognized diagnostics, each blamed on the nearest clause line at or
    above its source line; ``clause_lines`` ascend, as instrumented."""
    failures: list[FailureReport] = []
    for line in output.splitlines():
        if not line.strip():
            continue
        category = classify_failure(line, rules)
        if category is FailureCategory.UNKNOWN:
            continue  # not a diagnostic we recognize
        line_match = _LINE_NO_RE.search(line)
        source_line = int(line_match.group(1)) if line_match else None
        clause_id = None
        if source_line is not None:
            above = bisect_right(clause_lines, source_line, key=lambda pair: pair[0])
            if above:
                clause_id = clause_lines[above - 1][1]
        failures.append(
            FailureReport(
                raw_message=line.strip(),
                category=category,
                clause_id=clause_id,
                source_line=source_line,
            )
        )
    return failures


class ExecVerifier:
    """The exec adapter: writes the instrumented program to a temp file, runs
    ``command`` on it and classifies the diagnostics with ``rules``.

    ``command`` is a template with a ``{file}`` placeholder. It is split
    into arguments once, here, and a command that does not split or has no
    placeholder is a ConfigError. A diagnostic is attributed to the clause
    instrumented nearest above its reported source line.
    """

    def __init__(
        self,
        command: str,
        timeout_seconds: float = 1800.0,
        failures_per_call: str = "one",
        rules: tuple[Rule, ...] = DEFAULT_RULES,
    ):
        if "{file}" not in command:
            raise ConfigError("verifier command template needs a {file} placeholder")
        try:
            self._argv = shlex.split(command)
        except ValueError as exc:
            raise ConfigError(f"verifier command template does not split into arguments: {exc}") from exc
        self.command = command
        self.timeout_seconds = timeout_seconds
        self.failures_per_call = failures_per_call
        self.rules = rules

    def verify(self, program: AnnotatedProgram) -> VerifierVerdict:
        text, clause_lines = instrument_with_lines(program)
        tmp = tempfile.NamedTemporaryFile(
            mode="w", suffix=".java", prefix="specsmith_", delete=False, encoding="utf-8"
        )
        try:
            tmp.write(text)
            tmp.close()
            argv = [part.replace("{file}", tmp.name) for part in self._argv]
            try:
                # Its own session, so a timeout can end the whole process
                # group: a wrapper script's children as well as the script.
                proc = subprocess.Popen(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            except FileNotFoundError as exc:
                raise CommandNotFound(f"verifier command not found: {argv[0]}") from exc
            with proc:
                try:
                    stdout, stderr = proc.communicate(timeout=self.timeout_seconds)
                except subprocess.TimeoutExpired:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
                    return VerifierVerdict(
                        Outcome.TIMEOUT, detail=f"command exceeded {self.timeout_seconds:g}s"
                    )
        finally:
            Path(tmp.name).unlink(missing_ok=True)

        failures = _parse_diagnostics(stdout + "\n" + stderr, self.rules, clause_lines)
        if self.failures_per_call == "one":
            failures = failures[:1]
        if failures:
            return VerifierVerdict(Outcome.FAIL, tuple(failures))
        if proc.returncode != 0:
            tail = (stderr or stdout).strip().splitlines()[-5:]
            return VerifierVerdict(
                Outcome.CRASH, detail=f"exit status {proc.returncode}: " + " | ".join(tail)
            )
        return VerifierVerdict(Outcome.PASS)


# --- Trace-based adapter ----------------------------------------------------

_CATEGORY_FOR_KIND = {
    ClauseKind.REQUIRES: FailureCategory.UNPROVABLE_PRECONDITION,
    ClauseKind.ENSURES: FailureCategory.UNPROVABLE_POSTCONDITION,
    ClauseKind.MAINTAINING: FailureCategory.UNPROVABLE_INVARIANT,
    ClauseKind.DECREASES: FailureCategory.NONTERMINATION_DECREASES,
}

_PHASE_FOR_KIND = {
    ClauseKind.REQUIRES: Phase.PRE,
    ClauseKind.ENSURES: Phase.POST,
    ClauseKind.MAINTAINING: Phase.ITER,
    ClauseKind.DECREASES: Phase.ITER,
}


# A failure report minus its clause id: what one (kind, anchor, expression)
# earns against the traces, whichever clause id carries it.
_Refutation = tuple[str, FailureCategory]


class _TraceIndex:
    """Positions of the records each clause reads, found in one pass.

    ``pointwise`` maps (phase, anchor) to the positions of its records;
    ``by_method`` maps a method name to the positions of its pre/post
    boundary records (loop-free anchor) and its loops' iter records, which
    is all a decreases clause walks. Positions ascend, so walks keep trace
    order and failure messages cite the original record index.
    """

    __slots__ = ("traces", "pointwise", "by_method")

    def __init__(self, traces: tuple[TraceRecord, ...]):
        self.traces = traces
        self.pointwise: dict[tuple[Phase, Anchor], array] = {}
        self.by_method: dict[str, array] = {}
        for position, record in enumerate(traces):
            key = (record.phase, record.anchor)
            self.pointwise.setdefault(key, array("L")).append(position)
            if (record.phase is Phase.ITER) is (record.anchor.loop is not None):
                self.by_method.setdefault(record.anchor.method, array("L")).append(position)

    def records(self, positions: array | None) -> Iterator[tuple[int, TraceRecord]]:
        """(original index, record) pairs; an unknown key reads none."""
        traces = self.traces
        return ((position, traces[position]) for position in positions or ())


_UNSEEN = object()


class TraceVerifier:
    """The trace adapter: checks every clause against every matching record
    of one fixed trace.

    A clause fails iff some record falsifies it; the first falsifying record
    index is cited in the failure message. Decreases clauses must be
    non-negative at every loop iteration and strictly decrease across
    consecutive iterations of one loop activation (an activation ends at a
    pre/post record of the enclosing method, or at an iteration of a loop
    earlier in the method's text, such as an enclosing one). Evaluation
    errors surface as type-error failures. A clause whose kind does not fit
    its anchor (:func:`~specsmith.clauses.misplacement`) or whose line does
    not parse (a family member nested past the parser's depth limit) is a
    syntax-error failure. A pass only means no counterexample appears in the
    given traces, hence the coverage caveat on every verdict. Records name a
    method only, so a clause above one of two same-name methods raises
    AnchorNotFound, as in the exec adapter; the program's anchors come from
    :func:`~specsmith.clauses.program_anchors` of its source.

    The records are indexed on the first ``verify``. Each distinct
    (kind, anchor, expression) is checked once; its outcome is kept, keyed by
    the clause's text and its anchor's method and loop, and re-stamped with
    the clause id of every later clause that repeats it, so memory grows with
    the number of distinct clauses seen.
    """

    def __init__(self, traces: Sequence[TraceRecord], failures_per_call: str = "all"):
        self.traces = tuple(traces)
        self.failures_per_call = failures_per_call
        self._index: _TraceIndex | None = None
        self._refutations: dict[str | tuple[str, str, int | None], _Refutation | None] = {}

    def verify(self, program: AnnotatedProgram) -> VerifierVerdict:
        if self._index is None:
            self._index = _TraceIndex(self.traces)
        by_line, line_counts = program_anchors(program.source)
        if len(line_counts) < len(by_line):  # same-name methods: raise as the exec adapter does
            check_anchors(program.clauses, line_counts)
        failures: list[FailureReport] = []
        for clause in program.clauses:
            # A clause's tree is the parse of its text (rendering is exact:
            # parse(render(e)) == e), and the text starts with the kind. The
            # key holds the anchor's fields, which hash in C, not the anchor,
            # whose dataclass ``__hash__`` is Python code.
            anchor = clause.anchor
            key = clause.text if anchor is None else (clause.text, anchor.method, anchor.loop)
            refutation = self._refutations.get(key, _UNSEEN)
            if refutation is _UNSEEN:
                refutation = self._refutations[key] = _refute(clause, self._index)
            if refutation is not None:
                message, category = refutation
                failures.append(FailureReport(message, category, clause_id=clause.id))
                if self.failures_per_call == "one":
                    break  # only the first failure is reported
        if failures:
            return VerifierVerdict(Outcome.FAIL, tuple(failures), coverage_caveat=True)
        return VerifierVerdict(Outcome.PASS, coverage_caveat=True)


def _refute(clause: Clause, index: _TraceIndex) -> _Refutation | None:
    anchor = clause.anchor
    if anchor is not None:
        issue = misplacement(clause.kind, anchor.loop is not None)
        if issue is not None:
            return f"{_clause_label(clause)} at {anchor.key()}: {issue}", FailureCategory.SYNTAX_ERROR
    try:
        clause.expr  # a family member's tree is parsed from its text here
    except ClauseSyntaxError as exc:
        return f"{_clause_label(clause)} does not parse: {exc}", FailureCategory.SYNTAX_ERROR
    if clause.kind is ClauseKind.DECREASES:
        if anchor is None:
            return None  # no loop, so no iteration to measure
        return _check_decreases(clause, index.records(index.by_method.get(anchor.method)))
    key = (_PHASE_FOR_KIND[clause.kind], clause.anchor)
    return _check_pointwise(clause, index.records(index.pointwise.get(key)))


def _clause_label(clause: Clause) -> str:
    return clause.text[4:-1]  # "//@ <kind> <expr>;" less the marker and semicolon


def _check_pointwise(
    clause: Clause, records: Iterator[tuple[int, TraceRecord]]
) -> _Refutation | None:
    """``records`` are exactly the clause's (phase, anchor) records."""
    for index, record in records:
        try:
            value = eval_expr(clause.expr, record)
        except EvalError as exc:
            return (
                f"cannot evaluate {_clause_label(clause)} at trace record {index}: {exc}",
                FailureCategory.TYPE_ERROR,
            )
        if value is not True:
            return (
                f"{_clause_label(clause)} is falsified by trace record {index}",
                _CATEGORY_FOR_KIND[clause.kind],
            )
    return None


def _check_decreases(
    clause: Clause, records: Iterator[tuple[int, TraceRecord]]
) -> _Refutation | None:
    """``records`` are the boundary and iter records of the clause's method,
    whose anchor is a loop."""
    loop = clause.anchor.loop
    activation: list[tuple[int, int]] = []  # (record index, measure value)

    def check_activation() -> _Refutation | None:
        for position, (index, value) in enumerate(activation):
            if value < 0:
                return (
                    f"{_clause_label(clause)} is negative ({value}) "
                    f"at trace record {index}",
                    FailureCategory.NONTERMINATION_DECREASES,
                )
            if position > 0 and value >= activation[position - 1][1]:
                return (
                    f"{_clause_label(clause)} fails to strictly decrease "
                    f"({activation[position - 1][1]} then {value}) "
                    f"at trace record {index}",
                    FailureCategory.NONTERMINATION_DECREASES,
                )
        return None

    for index, record in records:
        # A pre/post boundary of the method ends an activation, and so does
        # an iteration of a loop before this one in the text: an enclosing
        # loop precedes the loops nested in it.
        if record.phase is not Phase.ITER or record.anchor.loop < loop:
            refutation = check_activation()
            if refutation is not None:
                return refutation
            activation = []
            continue
        if record.anchor.loop != loop:  # an iteration of a later loop
            continue
        try:
            value = eval_expr(clause.expr, record)
        except EvalError as exc:
            return (
                f"cannot evaluate {_clause_label(clause)} at trace record {index}: {exc}",
                FailureCategory.TYPE_ERROR,
            )
        if isinstance(value, bool) or not isinstance(value, int):
            return (
                f"{_clause_label(clause)} must be integer-valued, "
                f"got {value!r} at trace record {index}",
                FailureCategory.TYPE_ERROR,
            )
        activation.append((index, value))
    return check_activation()


# --- Truth-set mock ---------------------------------------------------------

_UNKNOWN = FailureCategory.UNKNOWN


class MockVerifier:
    """The mock adapter: accepts exactly the clause texts in ``truth``."""

    def __init__(self, truth: Iterable[str], failures_per_call: str = "all"):
        self.truth = frozenset(truth)
        self.failures_per_call = failures_per_call

    def verify(self, program: AnnotatedProgram) -> VerifierVerdict:
        truth, one = self.truth, self.failures_per_call == "one"
        failures = []
        for clause in program.clauses:
            text = clause.text
            if text not in truth:
                failures.append(FailureReport(f"clause not in the accepted set: {text}", _UNKNOWN, clause.id))
                if one:
                    break
        if failures:
            return VerifierVerdict(_FAIL, tuple(failures))
        return VerifierVerdict(_PASS)
