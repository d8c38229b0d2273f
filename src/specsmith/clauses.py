"""Clauses, program anchors, and annotation extraction/instrumentation.

A clause is one ``//@ ...;`` annotation: a kind, its canonical line, and an
anchor tying it to a method header or loop head in the program text.
Programs are treated as plain text with recognizable method headers and
``for``/``while`` lines — no full Java parsing.
"""
from __future__ import annotations

import re
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .errors import AnchorNotFound, ClauseSyntaxError, ExtractionError, TypeMismatch
from .expr import Expr, FrozenRecord, infer_type
from .parser import parse_clause_line
from .schemata import render_expr


class ClauseKind(Enum):
    REQUIRES = "requires"
    ENSURES = "ensures"
    MAINTAINING = "maintaining"
    DECREASES = "decreases"


class Anchor(FrozenRecord):
    """A program location: a method header, or the loop-th loop inside it."""

    __slots__ = ("method", "loop")  # loop: int | None
    _defaults = {"loop": None}

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


class Clause(FrozenRecord):
    """One annotation: its kind, its canonical line, and where it sits.

    A clause is its line. It compares, hashes and prints by (kind, text,
    anchor, id), so none of these parses. Its tree ``expr`` is the parse of
    ``text``, made on first read and kept in its ``__dict__`` with the
    fields; a clause whose line does not parse still compares, hashes and
    prints, and raises ClauseSyntaxError on every read of ``expr``.
    """

    _fields = ("kind", "text", "anchor", "id")
    _defaults = {"anchor": None, "id": ""}

    def __hash__(self) -> int:  # spelled out: every family looks its plan up by its template clause
        return hash((self.kind, self.text, self.anchor, self.id))

    @cached_property
    def expr(self) -> Expr:
        return parse_clause_line(self.text)[1]

    @cached_property
    def unplaced(self) -> Clause:
        """This clause with no anchor or id, sharing its tree: itself if it
        has neither. Every clause placed from this one shares it too."""
        if self.anchor is None and not self.id:
            return self
        return _clause({"kind": self.kind, "text": self.text, "anchor": None, "id": "", "expr": self.expr})

    def placed(self, anchor: Anchor | None, id: str) -> Clause:
        """This clause at ``anchor`` under ``id``, sharing its tree."""
        return _clause(
            {
                "kind": self.kind,
                "text": self.text,
                "anchor": anchor,
                "id": id,
                "expr": self.expr,
                "unplaced": self.unplaced,
            }
        )


# A repair iteration makes clauses, so the hot paths make one by storing its
# whole ``__dict__`` at once, where the constructor makes one
# ``object.__setattr__`` call per field.
_new = object.__new__
_set = object.__setattr__


def _clause(values: dict) -> Clause:
    """The clause whose ``__dict__`` is ``values``: its fields, and ``expr``
    where the tree is known. Parsing, placing and a family member's
    :attr:`~specsmith.mutation.Variant.clause` make clauses through it."""
    clause = _new(Clause)
    _set(clause, "__dict__", values)
    return clause


class AnnotatedProgram(FrozenRecord):
    """Program text (annotations stripped) plus the clauses anchored into it."""

    __slots__ = ("source", "clauses")  # a repair iteration makes one, so it sets its fields itself

    def __init__(self, source: str, clauses: tuple[Clause, ...] = ()):
        _set(self, "source", source)
        _set(self, "clauses", clauses)


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
    text = f"//@ {kind.value} {render_expr(expr)};"  # its canonical line, which parses to ``expr``
    return _clause({"kind": kind, "text": text, "anchor": anchor, "id": clause_id, "expr": expr})


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


# Line index -> anchor, and lines per anchor.
ProgramAnchors = tuple[dict[int, Anchor], dict[Anchor, int]]


def _scan_anchors(text: str) -> ProgramAnchors:
    by_line: dict[int, Anchor] = {}
    line_counts: dict[Anchor, int] = {}
    current_method: str | None = None
    loop_counts: dict[str, int] = {}
    for idx, line in enumerate(text.splitlines()):
        name = _method_header_name(line)
        if name is not None:
            current_method = name
            loop_counts.setdefault(name, 0)
            anchor = Anchor(name)
        elif current_method is not None and _LOOP_RE.match(line):
            # A loop outside any method has nothing to anchor to.
            ordinal = loop_counts[current_method]
            loop_counts[current_method] = ordinal + 1
            anchor = Anchor(current_method, ordinal)
        else:
            continue
        by_line[idx] = anchor
        line_counts[anchor] = line_counts.get(anchor, 0) + 1
    return by_line, line_counts


@lru_cache(maxsize=64)
def program_anchors(text: str) -> ProgramAnchors:
    """The anchors of ``text``: line index (as :meth:`str.splitlines` splits
    it) -> anchor for every method header and loop head, and how many lines
    each anchor names. Anchors are method names, so same-name methods share
    one; loop ordinals are 0-based in textual order within the method.

    Every caller keys on the text it already holds, so one program is
    scanned once while it stays among the last 64 texts asked for. The cache
    is safe to share between threads, and the maps are shared, so callers
    must not change them.
    """
    return _scan_anchors(text)


@lru_cache(maxsize=1024)
def clause_line(line: str) -> Clause | str:
    """A stripped ``//@`` line parsed by :func:`parse_clause`: its clause,
    with no anchor or id, or the message of its ClauseSyntaxError or
    TypeMismatch.

    Each distinct line is parsed once while it stays among the last 1024
    lines asked for. Callers place the clause at its anchor and id with
    :meth:`Clause.placed`, which shares its tree. The cache is safe to share
    between threads, and the clauses are shared, so nothing may change them.
    """
    try:
        return parse_clause(line)
    except (ClauseSyntaxError, TypeMismatch) as exc:
        return str(exc)


_ORPHAN_MESSAGE = "annotation precedes neither a method header nor a loop"
# A tuple: ``in`` finds a member by identity, which is cheaper than reading
# members off the Enum class or hashing one.
_LOOP_KINDS = (ClauseKind.MAINTAINING, ClauseKind.DECREASES)


def misplacement(kind: ClauseKind, above_loop: bool) -> str | None:
    """Why a ``kind`` clause may not sit above a loop (``above_loop``) or a
    method header, or None where it may: ``requires`` and ``ensures`` belong
    above a method header, ``maintaining`` and ``decreases`` above a loop."""
    if (kind in _LOOP_KINDS) is above_loop:
        return None
    if above_loop:
        return f"{kind.value} clauses belong above a method header, not a loop"
    return f"{kind.value} clauses belong above a loop, not a method header"


# Annotation lines grouped by the line below them: (index of that line among
# the lines left once every ``//@`` line is taken out, [(1-based line number,
# stripped annotation)]). A trailing group's index is one past the last line.
AnnotationBlocks = list[tuple[int, list[tuple[int, str]]]]


def split_annotations(source: str) -> tuple[str, AnnotationBlocks]:
    """``source`` with its ``//@`` lines taken out, and those lines grouped
    by the line below them, in one pass over its lines.

    A line is an annotation when it starts with ``//@`` once stripped. The
    text keeps ``source``'s final newline. :func:`place_annotations` of the
    two is :func:`extract_annotations` of ``source``.
    """
    stripped_lines: list[str] = []
    pending: list[tuple[int, str]] = []
    blocks: AnnotationBlocks = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        if "//@" in line:  # only such a line can start with it once stripped
            annotation = line.strip()
            if annotation.startswith("//@"):
                pending.append((line_no, annotation))
                continue
        stripped_lines.append(line)
        if pending:
            blocks.append((len(stripped_lines) - 1, pending))
            pending = []
    if pending:
        blocks.append((len(stripped_lines), pending))
    stripped = "\n".join(stripped_lines)
    if source.endswith("\n"):
        stripped += "\n"
    return stripped, blocks


def place_annotations(stripped: str, blocks: AnnotationBlocks) -> AnnotatedProgram:
    """``stripped`` with the clauses of ``blocks`` placed at its anchors,
    both as :func:`split_annotations` returns them; see
    :func:`extract_annotations`."""
    anchors_by_line = program_anchors(stripped)[0]
    ordinals: dict[str, int] = {}  # by id prefix
    clauses: list[Clause] = []
    issues: list[tuple[int, str]] = []
    for anchor_idx, block in blocks:
        anchor = anchors_by_line.get(anchor_idx)
        if anchor is None:
            issues.extend((line_no, _ORPHAN_MESSAGE) for line_no, _ in block)
            continue
        key = anchor.key()
        above_loop = anchor.loop is not None
        for line_no, line in block:
            entry = clause_line(line)
            if isinstance(entry, str):
                issues.append((line_no, entry))
                continue
            kind = entry.kind
            issue = misplacement(kind, above_loop)
            if issue is not None:
                issues.append((line_no, issue))
                continue
            prefix = f"{key}/{kind._value_}/"  # ``_value_`` skips the ``value`` descriptor
            ordinal = ordinals.get(prefix, 0)
            ordinals[prefix] = ordinal + 1
            clauses.append(entry.placed(anchor, f"{prefix}{ordinal}"))

    if issues:
        raise ExtractionError(sorted(issues))
    return AnnotatedProgram(stripped, tuple(clauses))


def extract_annotations(source: str) -> AnnotatedProgram:
    """Pull ``//@`` lines out of the text and anchor them by adjacency.

    Annotation lines must sit immediately above a method header or a loop
    line (other annotation lines in between are fine), each kind where
    :func:`misplacement` allows it. Problems — parse errors, type
    mismatches, orphaned or misplaced annotations — are collected per line
    and raised together as one :class:`ExtractionError`.

    Each line is parsed through :func:`clause_line`, and the anchors come
    from :func:`program_anchors` of the returned source, which is the key a
    verifier of that program looks up too. Every call places the parsed
    clauses afresh: each gets its anchor and the id
    ``<anchor key>/<kind>/<ordinal>``, numbered per anchor and kind in text
    order, and shares the parsed clause's tree.
    """
    return place_annotations(*split_annotations(source))


def check_anchors(clauses: Iterable[Clause], line_counts: Mapping[Anchor, int]) -> None:
    """Raise AnchorNotFound for the first clause whose anchor names more than
    one line (``line_counts`` holds lines per anchor): the clauses of
    same-name methods could not be told apart."""
    for clause in clauses:
        count = line_counts.get(clause.anchor, 0)
        if count > 1:
            raise AnchorNotFound(f"anchor {clause.anchor.key()} names {count} lines in the program source")


def instrument_with_lines(program: AnnotatedProgram) -> tuple[str, list[tuple[int, str]]]:
    """The program text with each clause's line above its anchor, and the
    (line number, clause id) pairs of those lines.

    Line numbers are 1-based positions of each annotation line in the output,
    which is what external-verifier diagnostics refer to; they ascend. A
    clause whose anchor names no line, or more than one (an anchor is a
    method name, so same-name methods share theirs), raises AnchorNotFound.
    """
    lines = program.source.splitlines()
    anchors_by_line, line_counts = program_anchors(program.source)
    check_anchors(program.clauses, line_counts)

    groups: dict[Anchor, list[Clause]] = {}
    for clause in program.clauses:
        if clause.anchor not in line_counts:
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
                out.append(indent + clause.text)
                clause_lines.append((len(out), clause.id))
        out.append(line)

    text = "\n".join(out)
    if program.source.endswith("\n"):
        text += "\n"
    return text, clause_lines
