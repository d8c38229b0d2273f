"""End-to-end pipeline: conversation phase, mutation phase, batch reports.

Each (program, attempt) produces one entry record; a batch adds a summary
record whose aggregates are recomputable from the entries. Reports are
line-delimited JSON with sorted keys so fixture-mode runs serialize
byte-identically.
"""
from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

from .clauses import extract_annotations, render_clause
from .config import PipelineConfig, load_guidance_file
from .conversation import (
    ChatClient,
    HttpChatClient,
    ScriptedChatClient,
    run_conversation,
)
from .errors import ConfigError, SpecError
from .evaluate import load_trace_file, read_json_lines
from .repair import (
    HeuristicStrategy,
    RandomStrategy,
    SelectionState,
    SelectionStrategy,
    mutation_based_gen,
)
from .verifier import ExecVerifier, MockVerifier, TraceVerifier, Verifier

ENTRY_SCHEMA = "run-entry@1"
SUMMARY_SCHEMA = "run-summary@1"


def load_corpus(corpus_dir: str | None = None) -> list[tuple[str, str]]:
    """(program, annotated program) pairs for few-shot prompting.

    Reads ``*.java`` files (each stored annotated) in filename order;
    the bare program is recovered by stripping the annotations.
    """
    root = (
        resources.files("specsmith").joinpath("corpus")
        if corpus_dir is None
        else Path(corpus_dir)
    )
    pairs: list[tuple[str, str]] = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".java"):
            continue
        try:
            annotated = entry.read_text(encoding="utf-8")
            program = extract_annotations(annotated).source
        except (SpecError, UnicodeDecodeError) as exc:
            raise ConfigError(f"corpus example {entry.name} is not extractable: {exc}") from exc
        pairs.append((program, annotated))
    return pairs


def build_verifier(config: PipelineConfig) -> Verifier:
    settings = config.verifier
    per_call = settings.effective_failures_per_call()
    if settings.adapter == "trace":
        if not settings.trace_file:
            raise ConfigError("verifier.trace_file: required for the trace adapter")
        return TraceVerifier(load_trace_file(settings.trace_file), per_call)
    if settings.adapter == "mock":
        if settings.mock_truth is None:
            raise ConfigError("verifier.mock_truth: required for the mock adapter")
        return MockVerifier(settings.mock_truth, per_call)
    if not settings.command:
        raise ConfigError("verifier.command: required for the exec adapter")
    return ExecVerifier(settings.command, settings.timeout_seconds, per_call, settings.rules)


def load_script(path: str) -> list[list[str]]:
    """Normalize a response fixture to one response list per attempt.

    The file holds either a JSON array of strings (every attempt replays the
    same responses) or an array of such arrays (attempt i uses entry i,
    cycling when there are more attempts than entries).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc

    def string_list(item) -> bool:
        return isinstance(item, list) and all(isinstance(r, str) for r in item)

    if string_list(data):
        return [data]
    if isinstance(data, list) and data and all(string_list(attempt) for attempt in data):
        return data
    raise ConfigError(f"{path}: expected a JSON array of strings or array of arrays")


def client_factory(config: PipelineConfig) -> Callable[[int], ChatClient]:
    """attempt -> chat client; a scripted endpoint's file is read once, here."""
    if config.endpoint.mode != "scripted":
        return lambda attempt: HttpChatClient()
    if not config.endpoint.script:
        raise ConfigError("endpoint.script: required when endpoint.mode is scripted")
    scripts = load_script(config.endpoint.script)
    return lambda attempt: ScriptedChatClient(scripts[attempt % len(scripts)])


def build_strategy(config: PipelineConfig, attempt: int = 0) -> SelectionStrategy:
    if config.strategy.name == "random":
        # Each attempt explores with its own deterministic stream.
        return RandomStrategy(config.strategy.seed + attempt)
    return HeuristicStrategy()


@dataclass
class PipelineContext:
    """Shared collaborators, overridable in tests."""

    config: PipelineConfig
    verifier: Verifier
    shots: list[tuple[str, str]]
    guidance: dict | None = None


def make_context(config: PipelineConfig) -> PipelineContext:
    guidance = (
        load_guidance_file(config.paths.guidance_file)
        if config.paths.guidance_file
        else None
    )
    shots = load_corpus(config.paths.corpus_dir)
    if config.endpoint.shot_selection == "random":
        random.Random(config.endpoint.shot_seed).shuffle(shots)
    return PipelineContext(
        config=config,
        verifier=build_verifier(config),
        shots=shots,
        guidance=guidance,
    )


def run_pipeline(
    name: str,
    program: str,
    context: PipelineContext,
    client: ChatClient,
    attempt: int = 0,
) -> dict[str, Any]:
    """One program, one attempt: conversation phase, then mutation phase."""
    config = context.config
    started = time.monotonic()
    entry: dict[str, Any] = {
        "schema": ENTRY_SCHEMA,
        "program": name,
        "attempt": attempt,
        "outcome": "aborted",
        "rounds_used": 0,
        "verifier_calls_conversation": 0,
        "verifier_calls_repair": 0,
        "refuted_history": [],
        "final_clauses": [],
        "dropped_templates": [],
        "truncated_families": [],
        "thrash_warnings": [],
        "error": "",
        "wall_time": 0.0,
    }

    try:
        transcript = run_conversation(
            program,
            config.endpoint,
            context.verifier,
            client,
            shots=context.shots,
            guidance=context.guidance,
        )
        entry["rounds_used"] = len(transcript.rounds)
        entry["verifier_calls_conversation"] = transcript.verifier_calls

        if transcript.outcome == "verified":
            entry["outcome"] = "verified-by-conversation"
            entry["final_clauses"] = [render_clause(c) for c in transcript.last_extracted.clauses]
        elif transcript.outcome == "aborted":
            entry["outcome"] = "aborted"
            entry["error"] = transcript.error
        elif transcript.last_extracted is None:
            # Nothing parseable ever came back; there is nothing to mutate.
            entry["outcome"] = "failed"
        else:
            # Whatever the conversation left, even nothing: a spent budget
            # aborts the repair loop before its first verifier call.
            remaining = config.budgets.pipeline_seconds - (time.monotonic() - started)
            result = mutation_based_gen(
                transcript.last_extracted,
                context.verifier,
                build_strategy(config, attempt),
                kinds=config.mutation.kinds,
                weights=config.weights,
                cap=config.mutation.variant_cap,
                budget_seconds=remaining,
            )
            _record_repair(entry, result.state)
            if result.outcome == "verified":
                entry["outcome"] = "verified-by-mutation"
                entry["final_clauses"] = [
                    render_clause(c) for c in result.program.clauses
                ]
            elif result.outcome == "out-of-budget":
                entry["outcome"] = "aborted"
                # The loop's own budget was what the conversation left of the
                # pipeline's, which varies from run to run; quote the fixed one.
                entry["error"] = (
                    "repair loop exceeded what remained of the "
                    f"{config.budgets.pipeline_seconds:g}s pipeline budget"
                )
            else:
                entry["outcome"] = "failed"
    except SpecError as exc:
        entry["outcome"] = "aborted"
        entry["error"] = str(exc)

    coverage = getattr(context.verifier, "traces", None) is not None
    entry["coverage_caveat"] = coverage
    if not config.report.deterministic_clock:
        entry["wall_time"] = round(time.monotonic() - started, 6)
    return entry


def _record_repair(entry: dict[str, Any], state: SelectionState) -> None:
    """Fill an entry's repair fields from the selection state."""
    entry["verifier_calls_repair"] = state.verifier_calls
    entry["refuted_history"] = [
        [event.iteration, event.clause_id, event.text] for event in state.refuted_history
    ]
    entry["dropped_templates"] = sorted(
        tid for tid, slot in state.slots.items() if slot.selected is None
    )
    entry["truncated_families"] = sorted(
        tid for tid, slot in state.slots.items() if slot.family.truncated
    )
    entry["thrash_warnings"] = list(state.thrash_warnings)


def run_batch(
    programs: Sequence[tuple[str, str]],
    config: PipelineConfig,
    attempts: int = 1,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    context = make_context(config)
    clients = client_factory(config)
    entries: list[dict[str, Any]] = []
    for name, program in programs:
        for attempt in range(attempts):
            entries.append(run_pipeline(name, program, context, clients(attempt), attempt))
    summary = aggregate_entries(entries)
    summary["strategy"] = config.strategy.name
    return entries, summary


def aggregate_entries(entries: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Recompute the batch aggregates from entry records alone."""
    verified = ("verified-by-conversation", "verified-by-mutation")
    by_program: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        by_program.setdefault(entry["program"], []).append(entry)
    success_probability = {
        name: sum(e["outcome"] in verified for e in group) / len(group)
        for name, group in sorted(by_program.items())
    }
    total_calls = [
        e["verifier_calls_conversation"] + e["verifier_calls_repair"] for e in entries
    ]
    return {
        "schema": SUMMARY_SCHEMA,
        "programs": len(by_program),
        "attempts": {name: len(group) for name, group in sorted(by_program.items())},
        "number_of_passes": sum(
            any(e["outcome"] in verified for e in group)
            for group in by_program.values()
        ),
        "success_probability": success_probability,
        "mean_success_probability": (
            statistics.mean(success_probability.values()) if success_probability else 0.0
        ),
        "mean_verifier_calls": statistics.mean(total_calls) if total_calls else 0.0,
        "variant_dedup": True,
    }


# The fields aggregate_entries reads, with the type each must have.
_ENTRY_FIELDS = {
    "program": str,
    "outcome": str,
    "verifier_calls_conversation": int,
    "verifier_calls_repair": int,
}


def load_entries(path: Path) -> list[dict[str, Any]]:
    """Entry records from a report's ``entries.jsonl``; a bad line raises
    ConfigError naming it."""
    entries: list[dict[str, Any]] = []
    for context, entry in read_json_lines(path):
        if not isinstance(entry, dict):
            raise ConfigError(f"{context}: expected a JSON object")
        for name, kind in _ENTRY_FIELDS.items():
            if name not in entry:
                raise ConfigError(f"{context}: entry has no {name!r} field")
            if not isinstance(entry[name], kind):
                raise ConfigError(
                    f"{context}: {name}: expected {kind.__name__}, got {entry[name]!r}"
                )
        entries.append(entry)
    return entries


def write_report(
    out_dir: str, entries: Sequence[dict[str, Any]], summary: dict[str, Any]
) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries_path = out / "entries.jsonl"
    summary_path = out / "summary.json"
    with open(entries_path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return entries_path, summary_path


def summary_table(summary: dict[str, Any]) -> str:
    """Human-readable metrics block for terminal output."""
    lines = [
        f"programs:                {summary['programs']}",
        f"number of passes:        {summary['number_of_passes']}",
        f"mean success probability: {summary['mean_success_probability']:.3f}",
        f"mean verifier calls:     {summary['mean_verifier_calls']:.2f}",
    ]
    for name, probability in summary["success_probability"].items():
        lines.append(f"  {name}: success probability {probability:.3f}")
    return "\n".join(lines)
