"""Command-line interface.

Exit codes: 0 on success, 1 when the run itself fails (no program verified,
verifier rejected the clauses, repair exhausted every family or ran out of
its budget, a clause could not be parsed), 2 on usage or configuration
errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .clauses import extract_annotations, parse_clause, render_clause
from .config import PipelineConfig, load_config
from .errors import ConfigError, SpecError
from .evaluate import load_trace_file
from .mutation import enumerate_variants
from .pipeline import (
    aggregate_entries,
    build_strategy,
    build_verifier,
    load_entries,
    run_batch,
    summary_table,
    write_report,
)
from .repair import SelectionState, mutation_based_gen
from .verifier import Outcome, TraceVerifier, VerifierVerdict


def _print_verdict(verdict: VerifierVerdict) -> None:
    print(f"outcome: {verdict.outcome.value}")
    if verdict.coverage_caveat:
        print("note: trace-backed result; holds only for the recorded executions")
    if verdict.detail:
        print(f"detail: {verdict.detail}")
    for failure in verdict.failures:
        where = f" [{failure.clause_id}]" if failure.clause_id else ""
        print(f"  {failure.category.value}{where}: {failure.raw_message}")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from exc


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config)
    strategy = config.strategy
    if getattr(args, "strategy", None):
        strategy = dataclasses.replace(strategy, name=args.strategy)
    if getattr(args, "seed", None) is not None:
        strategy = dataclasses.replace(strategy, seed=args.seed)
    return dataclasses.replace(config, strategy=strategy)


def cmd_generate(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args)
    programs = []
    for path in args.files:
        programs.append((Path(path).stem, _read_text(path)))
    entries, summary = run_batch(programs, config, attempts=args.attempts)
    out_dir = args.out or config.paths.output_dir
    entries_path, summary_path = write_report(out_dir, entries, summary)
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(summary_table(summary))
        print(f"entries: {entries_path}")
        print(f"summary: {summary_path}")
    return 0 if summary["number_of_passes"] > 0 else 1


def cmd_mutate(args: argparse.Namespace) -> int:
    clause = parse_clause(args.clause)
    family = enumerate_variants(clause, cap=args.cap)
    print(f"template: {render_clause(clause)}")
    print(f"variants: {len(family)} (raw combinations: {family.raw_count})")
    if family.truncated:
        print(f"note: enumeration truncated at cap {args.cap}")
    # Slicing the index range keeps list-slice semantics for any --limit
    # while building only the members shown.
    for index in range(len(family))[: args.limit]:
        variant = family.get(index)
        print(f"{variant.score:5d}  {variant.text}")
    return 0


def _print_repair_state(state: SelectionState) -> None:
    print(f"verifier calls: {state.verifier_calls}")
    for event in state.refuted_history:
        print(f"  refuted (call {event.iteration}) {event.clause_id}: {event.text}")
    for warning in state.thrash_warnings:
        print(f"  warning: {warning}")


def cmd_repair(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args)
    program = extract_annotations(_read_text(args.file))
    result = mutation_based_gen(
        program,
        build_verifier(config),
        build_strategy(config),
        kinds=config.mutation.kinds,
        weights=config.weights,
        cap=config.mutation.variant_cap,
        budget_seconds=config.budgets.pipeline_seconds,
    )
    # Every ending shows the work done, a budget that ran out included.
    _print_repair_state(result.state)
    if result.outcome == "verified":
        print("repaired clauses:")
        for clause in result.program.clauses:
            print(f"  {render_clause(clause)}")
        return 0
    if result.outcome == "out-of-budget":
        budget = config.budgets.pipeline_seconds
        print(f"error: repair loop exceeded its {budget:g}s budget", file=sys.stderr)
    else:
        print("repair failed: every candidate family was exhausted")
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args)
    program = extract_annotations(_read_text(args.file))
    verdict = build_verifier(config).verify(program)
    _print_verdict(verdict)
    return 0 if verdict.outcome is Outcome.PASS else 1


def cmd_eval(args: argparse.Namespace) -> int:
    program = extract_annotations(_read_text(args.file))
    verifier = TraceVerifier(load_trace_file(args.trace))
    verdict = verifier.verify(program)
    _print_verdict(verdict)
    return 0 if verdict.outcome is Outcome.PASS else 1


def cmd_report(args: argparse.Namespace) -> int:
    summary = aggregate_entries(load_entries(Path(args.dir) / "entries.jsonl"))
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(summary_table(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsmith",
        description="Generate and repair JML-style specifications for Java programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="run the conversation plus repair pipeline on programs"
    )
    generate.add_argument("files", nargs="+", help="Java source files to annotate")
    generate.add_argument("--config", default=None, help="YAML configuration file")
    generate.add_argument("--attempts", type=int, default=1, help="attempts per program")
    generate.add_argument("--strategy", choices=("heuristic", "random"), default=None)
    generate.add_argument("--seed", type=int, default=None, help="random strategy seed")
    generate.add_argument("--out", default=None, help="report directory")
    generate.add_argument("--json", action="store_true", help="print the summary as JSON")
    generate.set_defaults(func=cmd_generate)

    mutate = sub.add_parser("mutate", help="enumerate the mutation family of one clause")
    mutate.add_argument("clause", help='clause line, e.g. "requires a <= b;"')
    mutate.add_argument("--cap", type=_at_least_one, default=4096, help="family size cap")
    mutate.add_argument("--limit", type=int, default=None, help="show at most N variants")
    mutate.set_defaults(func=cmd_mutate)

    repair = sub.add_parser("repair", help="repair the annotations in a Java file")
    repair.add_argument("file", help="annotated Java source file")
    repair.add_argument("--config", default=None, help="YAML configuration file")
    repair.add_argument("--strategy", choices=("heuristic", "random"), default=None)
    repair.add_argument("--seed", type=int, default=None, help="random strategy seed")
    repair.set_defaults(func=cmd_repair)

    verify = sub.add_parser("verify", help="verify an annotated Java file once")
    verify.add_argument("file", help="annotated Java source file")
    verify.add_argument("--config", default=None, help="YAML configuration file")
    verify.set_defaults(func=cmd_verify)

    evaluate = sub.add_parser(
        "eval", help="check annotations against a recorded execution trace"
    )
    evaluate.add_argument("file", help="annotated Java source file")
    evaluate.add_argument("trace", help="trace file (one JSON record per line)")
    evaluate.set_defaults(func=cmd_eval)

    report = sub.add_parser("report", help="recompute the summary from a report directory")
    report.add_argument("dir", help="directory containing entries.jsonl")
    report.add_argument("--json", action="store_true", help="print the summary as JSON")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
