"""Clauses, program anchors, and annotation extraction/instrumentation.

A clause is one ``//@ ...;`` annotation: a kind, an expression, and an anchor
tying it to a method header or loop head in the program text. Programs are
treated as plain text with recognizable method headers and ``for``/``while``
lines — no full Java parsing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AnchorNotFound,
    ClauseSyntaxError,
    ExtractionError,
    TypeMismatch,
)
from .expr import Expr, infer_type, render_expr
from .parser import parse_clause_line


class ClauseKind(Enum):
    REQUIRES = "requires"
    ENSURES = "ensures"
    MAINTAINING = "maintaining"
    DECREASES = "decreases"


@dataclass(frozen=True)
class Anchor:
    """A program location: a method header, or the loop-th loop inside it."""

    method: str
    loop: int | None = None

    def key(self) -> str:
        if self.loop is None:
            return f"method:{self.method}"
        return f"loop:{self.method}:{self.loop}"

    @staticmethod
    def from_key(key: str) -> Anchor:
        parts = key.split(":")
        if len(parts) == 2 and parts[0] == "method" and parts[1]:
            return Anchor(parts[1])
        if len(parts) == 3 and parts[0] == "loop" and parts[1] and parts[2].isdigit():
            return Anchor(parts[1], int(parts[2]))
        raise ValueError(f"bad anchor key {key!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Clause:
    """One annotation.

    ``text``, its canonical line, is rendered on first read and kept. A clause
    made :meth:`of_line` has its text from the start, and without a given
    expression parses it from that text on first read, so a clause's tree is
    always the parse of its line. A clause copied by ``dataclasses.replace``
    renders its expression afresh. Clauses compare, hash and print by
    (kind, text, anchor, id), so none of these parses: a member whose text
    the parser rejects can still be compared, hashed and printed.
    """

    kind: ClauseKind
    expr: Expr
    anchor: Anchor | None = None
    id: str = ""

    @classmethod
    def of_line(
        cls, kind: ClauseKind, text: str, anchor: Anchor | None, id: str, expr: Expr | None = None
    ) -> Clause:
        """A clause whose canonical line is ``text``; ``expr``, when given,
        must be that line's parse."""
        clause = object.__new__(cls)
        clause.__dict__.update(kind=kind, anchor=anchor, id=id, text=text)
        if expr is not None:
            clause.__dict__["expr"] = expr
        return clause

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance: the text
        # before its first read, and the expression of a clause made from its
        # line alone. A line that does not parse raises ClauseSyntaxError on
        # every read.
        if name == "text":
            value = f"//@ {self.kind.value} {render_expr(self.expr)};"
        elif name == "expr" and "text" in self.__dict__:
            value = parse_clause_line(self.text)[1]
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def _key(self) -> tuple:
        return (self.kind, self.text, self.anchor, self.id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Clause(kind={self.kind}, text={self.text!r}, "
            f"anchor={self.anchor!r}, id={self.id!r})"
        )


@dataclass(frozen=True)
class AnnotatedProgram:
    """Program text (annotations stripped) plus the clauses anchored into it."""

    source: str
    clauses: tuple[Clause, ...] = ()


def render_clause(clause: Clause) -> str:
    return clause.text


def parse_clause(text: str, anchor: Anchor | None = None, clause_id: str = "") -> Clause:
    """Parse one annotation line, running the clause-level type pass.

    Decreases clauses must not be definitively boolean; the other kinds must
    not be definitively integer- or null-valued. Expressions whose type cannot
    be determined statically (bare variables, array elements, ``\\result``)
    are accepted and enforced during evaluation instead.
    """
    kind_text, expr = parse_clause_line(text)
    kind = ClauseKind(kind_text)
    expr_type = infer_type(expr)
    if kind is ClauseKind.DECREASES:
        if expr_type == "bool":
            raise TypeMismatch("decreases clauses need an integer-valued expression")
    elif expr_type in ("int", "null"):
        raise TypeMismatch(f"{kind.value} clauses need a boolean expression")
    return Clause(kind=kind, expr=expr, anchor=anchor, id=clause_id)


_MODIFIERS = r"(?:(?:public|private|protected|static|final|synchronized|abstract|native|strictfp)\s+)*"
_METHOD_RE = re.compile(
    rf"^\s*{_MODIFIERS}[\w$<>\[\],.]+(?:\s*\[\s*\])*\s+([A-Za-z_$][\w$]*)\s*\("
)
_LOOP_RE = re.compile(r"^\s*(?:for|while)\s*\(")
_STATEMENT_WORDS = {"return", "throw", "new", "else", "case", "break", "continue", "assert", "do"}
_CONTROL_WORDS = {"if", "for", "while", "switch", "catch"}


def _method_header_name(line: str) -> str | None:
    match = _METHOD_RE.match(line)
    if match is None:
        return None
    first_word = line.split(None, 1)[0] if line.split() else ""
    if first_word in _STATEMENT_WORDS:
        return None
    name = match.group(1)
    if name in _CONTROL_WORDS or name in _STATEMENT_WORDS:
        return None
    return name


def scan_anchors(lines: list[str]) -> dict[int, Anchor]:
    """Map line index -> anchor for every method header and loop head.

    Loop ordinals are 0-based in textual order within the enclosing method.
    """
    anchors: dict[int, Anchor] = {}
    current_method: str | None = None
    loop_counts: dict[str, int] = {}
    for idx, line in enumerate(lines):
        name = _method_header_name(line)
        if name is not None:
            current_method = name
            loop_counts.setdefault(name, 0)
            anchors[idx] = Anchor(name)
            continue
        if _LOOP_RE.match(line):
            if current_method is None:
                continue  # loop outside any method: nothing to anchor to
            ordinal = loop_counts[current_method]
            loop_counts[current_method] = ordinal + 1
            anchors[idx] = Anchor(current_method, ordinal)
    return anchors


class ClauseTable:
    """Parsed annotation lines, and the anchors of the last program text.

    ``lines`` maps a stripped ``//@`` line to the kind, expression and
    canonical text of its clause, or to the message of its error; each
    distinct line is parsed on its first lookup and kept, so the table grows
    with the distinct lines seen, not with the calls made through it. The
    anchor slot holds the :func:`scan_anchors` map of the last program text
    scanned, which a conversation re-sends every round. Only immutable trees,
    texts and the read-only anchor map are shared: callers build fresh
    clauses, ids and ordinals from them on every call.
    """

    __slots__ = ("lines", "_anchored_text", "_anchors")

    def __init__(self) -> None:
        self.lines: dict[str, tuple[ClauseKind, Expr, str] | str] = {}
        self._anchored_text: str | None = None
        self._anchors: dict[int, Anchor] = {}

    def entry(self, line: str) -> tuple[ClauseKind, Expr, str] | str:
        """``line``'s entry, parsing and rendering it on its first lookup."""
        entry = self.lines.get(line)
        if entry is None:
            try:
                clause = parse_clause(line)
            except (ClauseSyntaxError, TypeMismatch) as exc:
                entry = str(exc)
            else:
                entry = (clause.kind, clause.expr, clause.text)
            self.lines[line] = entry
        return entry

    def anchors(self, text: str) -> dict[int, Anchor]:
        """The anchors of ``text``, a program's lines joined by newlines.

        ``text`` is scanned only when it differs from the text asked for last.
        The map is shared, so callers must not change it. Split lines hold no
        newline, so ``text.split("\\n")`` gives them back (``[]`` comes back
        as ``[""]``, and neither has an anchor).
        """
        if text != self._anchored_text:
            self._anchors = scan_anchors(text.split("\n"))
            self._anchored_text = text
        return self._anchors


_ORPHAN_MESSAGE = "annotation precedes neither a method header nor a loop"


def extract_annotations(source: str, table: ClauseTable | None = None) -> AnnotatedProgram:
    """Pull ``//@`` lines out of the text and anchor them by adjacency.

    Annotation lines must sit immediately above a method header or a loop
    line (other annotation lines in between are fine). Problems — parse
    errors, type mismatches, orphaned annotations — are collected per line
    and raised together as one :class:`ExtractionError`.

    Each distinct line is parsed once through ``table``, and the anchors of
    an annotation-free text scanned again only when it changes; the caller
    may share the table between calls (a pipeline context shares one across
    all its conversations). Without one, the call starts a fresh table. The
    clauses, ordinals and ids are built afresh on every call.
    """
    if table is None:
        table = ClauseTable()
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
        issues.append((line_no, _ORPHAN_MESSAGE))

    stripped = "\n".join(stripped_lines)
    anchors_by_line = table.anchors(stripped)
    ordinals: dict[tuple[Anchor, ClauseKind], int] = {}
    clauses: list[Clause] = []
    for anchor_idx, block in blocks:
        anchor = anchors_by_line.get(anchor_idx)
        if anchor is None:
            issues.extend((line_no, _ORPHAN_MESSAGE) for line_no, _ in block)
            continue
        for line_no, line in block:
            entry = table.entry(line)
            if isinstance(entry, str):
                issues.append((line_no, entry))
                continue
            kind, expr, text = entry
            ordinal = ordinals.get((anchor, kind), 0)
            ordinals[(anchor, kind)] = ordinal + 1
            clause_id = f"{anchor.key()}/{kind.value}/{ordinal}"
            clauses.append(Clause.of_line(kind, text, anchor, clause_id, expr))

    if issues:
        raise ExtractionError(sorted(issues))

    if source.endswith("\n"):
        stripped += "\n"
    return AnnotatedProgram(stripped, tuple(clauses))


def instrument(program: AnnotatedProgram) -> str:
    """Emit the program text with each clause rendered above its anchor."""
    text, _ = instrument_with_lines(program)
    return text


def instrument_with_lines(program: AnnotatedProgram) -> tuple[str, list[tuple[int, str]]]:
    """Like :func:`instrument`, also returning (line number, clause id) pairs.

    Line numbers are 1-based positions of each annotation line in the output,
    which is what external-verifier diagnostics refer to; they ascend.
    """
    lines = program.source.splitlines()
    anchors_by_line = scan_anchors(lines)
    line_for_anchor: dict[Anchor, int] = {}
    for idx, anchor in anchors_by_line.items():
        line_for_anchor.setdefault(anchor, idx)

    groups: dict[Anchor, list[Clause]] = {}
    for clause in program.clauses:
        if clause.anchor is None or clause.anchor not in line_for_anchor:
            key = clause.anchor.key() if clause.anchor is not None else "<none>"
            raise AnchorNotFound(f"anchor {key} does not resolve in the program source")
        groups.setdefault(clause.anchor, []).append(clause)

    out: list[str] = []
    clause_lines: list[tuple[int, str]] = []
    for idx, line in enumerate(lines):
        anchor = anchors_by_line.get(idx)
        if anchor is not None and anchor in groups:
            indent = line[: len(line) - len(line.lstrip())]
            for clause in groups[anchor]:
                out.append(indent + render_clause(clause))
                clause_lines.append((len(out), clause.id))
        out.append(line)

    text = "\n".join(out)
    if program.source.endswith("\n"):
        text += "\n"
    return text, clause_lines
