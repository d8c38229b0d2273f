"""Trace files: the recorded program states the trace adapter checks
clauses against, one JSON record per line, and the JSON-lines reader that
also serves report files.

The file is streamed a line at a time. A line costs Python work only where
validation needs it: the ``path:line`` context of an error is built only
when raising it, and each distinct anchor key is decoded once per load.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from .clauses import Anchor
from .errors import ConfigError
from .evaluate import NULL, Phase, TraceRecord, Value

# One JSON object per line:
#   {"anchor": "method:NAME" | "loop:NAME:ORDINAL",
#    "phase": "pre" | "post" | "iter",
#    "bindings": {name: value, ...},
#    "result": value,          # optional; null encodes the Java null
#    "old": {name: value, ...}}  # optional
# Values are integers, booleans, arrays of integers, strings, or null.


_RECORD_FIELDS = frozenset({"anchor", "phase", "bindings", "result", "old"})
_PHASES = {phase.value: phase for phase in Phase}


class _BadRecord(ValueError):
    """A malformed trace record: ``reason``, at ``where`` inside the record
    (``""`` for the record itself, or like ``", binding 'x'"``)."""

    def __init__(self, reason: str, where: str = "") -> None:
        super().__init__(f"trace record{where}: {reason}")
        self.reason = reason
        self.where = where

    def at(self, context: str) -> str:
        """The message with ``context`` in place of ``trace record``."""
        return f"{context}{self.where}: {self.reason}"


def _decode_value(raw: Any, label: str, name: str | None = None) -> Value:
    """Decode one value; an error names it as ``label`` (and ``name``)."""
    if raw is None:
        return NULL
    if isinstance(raw, bool) or isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        return raw
    where = f", {label}" if name is None else f", {label} {name!r}"
    if isinstance(raw, list):
        for item in raw:
            if isinstance(item, bool) or not isinstance(item, int):
                raise _BadRecord(f"arrays may only hold integers, got {item!r}", where)
        return list(raw)
    raise _BadRecord(f"unsupported value {raw!r}", where)


_INTS = frozenset({int})


def _decode_bindings(raw: Any, field: str, label: str) -> dict[str, Value]:
    if not isinstance(raw, dict):
        raise _BadRecord(f"{field} must be an object")
    # A mapping of ints, strings, booleans and integer arrays, the shapes
    # JSON gives a valid value other than null, is kept as it is; any
    # other is decoded value by value.
    for value in raw.values():
        kind = type(value)
        if not (
            kind is int or kind is str or kind is bool
            or (kind is list and _INTS.issuperset(map(type, value)))
        ):
            return {name: _decode_value(value, label, name) for name, value in raw.items()}
    return raw


def _decode_anchor(obj: dict[str, Any], anchors: dict[str, Anchor]) -> Anchor:
    try:
        key = obj["anchor"]
        anchor = Anchor.from_key(key)
    except (KeyError, ValueError, AttributeError) as exc:  # AttributeError: non-string anchor
        raise _BadRecord(str(exc)) from exc
    anchors[key] = anchor
    return anchor


def _decode_phase(obj: dict[str, Any]) -> Phase:
    try:
        return Phase(obj["phase"])
    except (KeyError, ValueError) as exc:
        raise _BadRecord(str(exc)) from exc


def record_from_dict(obj: Any, anchors: dict[str, Anchor] | None = None) -> TraceRecord:
    """Decode one trace record; a malformed one raises ValueError.

    ``anchors`` maps the anchor keys decoded so far to their Anchor, so
    records that share a key share one Anchor. The record may share the
    mappings and lists of ``obj``.
    """
    if not isinstance(obj, dict):
        raise _BadRecord("expected a JSON object")
    if not obj.keys() <= _RECORD_FIELDS:
        raise _BadRecord(f"unknown fields {sorted(set(obj) - _RECORD_FIELDS)}")
    if anchors is None:
        anchors = {}
    try:
        anchor = anchors[obj["anchor"]]
    except (KeyError, TypeError):  # missing, not yet decoded, or unhashable
        anchor = _decode_anchor(obj, anchors)
    try:
        phase = _PHASES[obj["phase"]]
    except (KeyError, TypeError):
        phase = _decode_phase(obj)
    bindings = _decode_bindings(obj["bindings"], "bindings", "binding") if "bindings" in obj else {}
    result = _decode_value(obj["result"], "result") if "result" in obj else None
    old_raw = obj.get("old")
    old = None if old_raw is None else _decode_bindings(old_raw, "old", "old binding")
    return TraceRecord(anchor, phase, bindings, result, old)


_scan_document = json.JSONDecoder().raw_decode


def _loads_line(line: str) -> Any:
    """``json.loads(line)``, in one scan when the line is one document and
    a newline; json.loads words every error."""
    try:
        value, end = _scan_document(line)
    except json.JSONDecodeError:
        return json.loads(line)
    if end == len(line) or line[end:] == "\n":
        return value
    return json.loads(line)


def read_json_lines(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, value) for each non-blank line of a JSON-lines file,
    read one line at a time.

    A line that is not UTF-8 or not JSON raises ConfigError naming it as
    ``path:line``.
    """
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{line_no}: not valid UTF-8: {exc}") from exc
            try:
                value = _loads_line(line)
            except json.JSONDecodeError as exc:
                if not line.strip():  # a blank line never parses; skip it
                    continue
                raise ConfigError(f"{path}:{line_no}: bad JSON: {exc}") from exc
            yield line_no, value


def load_trace_file(path: str) -> list[TraceRecord]:
    """One record per non-blank line; a bad line raises ConfigError naming it.

    Records of one anchor share one Anchor.
    """
    records: list[TraceRecord] = []
    anchors: dict[str, Anchor] = {}
    for line_no, obj in read_json_lines(path):
        try:
            records.append(record_from_dict(obj, anchors))
        except _BadRecord as exc:
            raise ConfigError(exc.at(f"{path}:{line_no}")) from exc
    return records
