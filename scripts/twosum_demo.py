#!/usr/bin/env python3
"""End-to-end walkthrough on the TwoSum fixture.

Drives the scripted endpoint until the conversation budget is exhausted,
then repairs the best candidate annotations against a recorded execution
trace, printing every verifier interaction along the way.
"""
from pathlib import Path

from specsmith.clauses import instrument_with_lines
from specsmith.config import (
    EndpointSettings,
    PipelineConfig,
    ReportSettings,
    VerifierSettings,
)
from specsmith.conversation import run_conversation
from specsmith.pipeline import client_factory, make_context
from specsmith.repair import HeuristicStrategy, mutation_based_gen

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> None:
    config = PipelineConfig(
        endpoint=EndpointSettings(
            mode="scripted", script=str(FIXTURES / "twosum_responses.json")
        ),
        verifier=VerifierSettings(
            adapter="trace", trace_file=str(FIXTURES / "twosum_trace.jsonl")
        ),
        report=ReportSettings(deterministic_clock=True),
    )
    context = make_context(config)
    program = (FIXTURES / "TwoSum.java").read_text(encoding="utf-8")

    print("== conversation phase ==")
    transcript = run_conversation(
        program,
        config.endpoint,
        context.verifier,
        client_factory(config)(0),
        shots=context.shots,
    )
    for number, round_ in enumerate(transcript.rounds, start=1):
        if round_.verdict is None:
            line = f"extraction failed: {round_.extraction_diagnostics[0]}"
        else:
            failures = [f.raw_message for f in round_.verdict.failures]
            line = f"verdict {round_.verdict.outcome.value}"
            if failures:
                line += f" ({failures[0]})"
        print(f"round {number:2d}: {line}")
    print(f"conversation outcome: {transcript.outcome} "
          f"({transcript.verifier_calls} verifier calls)")
    verified = transcript.last_extracted if transcript.outcome == "verified" else None

    if verified is None and transcript.last_extracted is not None:
        print()
        print("== mutation repair phase ==")
        result = mutation_based_gen(
            transcript.last_extracted, context.verifier, HeuristicStrategy()
        )
        for event in result.state.refuted_history:
            print(f"call {event.iteration}: refuted {event.clause_id}")
            print(f"         {event.text}")
        print(f"repair outcome: {result.outcome} "
              f"({result.state.verifier_calls} verifier calls)")
        verified = result.program if result.outcome == "verified" else None

    if verified is not None:
        print()
        print("== final clauses ==")
        for clause in verified.clauses:
            print(clause.text)
        print()
        print("== instrumented program ==")
        print(instrument_with_lines(verified)[0])


if __name__ == "__main__":
    main()
