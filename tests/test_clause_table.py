"""The clause table one conversation shares across its rounds.

Every round's extraction must equal a fresh extraction of the same response,
clause by clause; the table may only save work. Scripts are the TwoSum
fixture, generated multi-round scripts in the style of the benchmark's, and
bare-clause responses, with malformed lines and lines that change anchor.
"""
import dataclasses
import json
import random
from pathlib import Path

import pytest

from specsmith import clauses, conversation
from specsmith.conversation import (
    EndpointConfig,
    ExtractionFailure,
    ScriptedChatClient,
    extract_specs,
    run_conversation,
)
from specsmith.expr import render_expr
from specsmith.verifier import MockVerifier

from conftest import gen_bool_expr, gen_int_expr

FIXTURES = Path(__file__).parent / "fixtures"
TWOSUM_PROGRAM = (FIXTURES / "TwoSum.java").read_text(encoding="utf-8")
TWOSUM_RESPONSES = json.loads((FIXTURES / "twosum_responses.json").read_text(encoding="utf-8"))

MALFORMED = (
    "//@ requires a <;",  # syntax error
    "//@ ensures a ? b;",  # unrecognized character
    "//@ maintaining 1 + 2;",  # type mismatch
    "//@ decreases a < b;",  # type mismatch
    "//@ invariant a > 0;",  # unknown clause kind
)


def fenced(annotated: str) -> str:
    return f"Here you go.\n\n```java\n{annotated}```\n"


def converse(program: str, responses: list[str]):
    """Run every response as one round of a conversation that never passes."""
    cfg = EndpointConfig(max_rounds=len(responses), shot_count=0)
    transcript = run_conversation(
        program, cfg, MockVerifier(truth=frozenset()), ScriptedChatClient(responses)
    )
    assert transcript.outcome == "exhausted"
    assert len(transcript.rounds) == len(responses)
    return transcript


def clause_fields(clause):
    return (clause.kind, clause.expr, clause.text, clause.anchor, clause.id)


def assert_rounds_match_fresh_extraction(program: str, transcript, responses: list[str]):
    for round_, response in zip(transcript.rounds, responses):
        fresh = extract_specs(response, program)
        if isinstance(fresh, ExtractionFailure):
            assert round_.extracted is None
            assert round_.extraction_diagnostics == fresh.diagnostics
            continue
        assert round_.extracted.source == fresh.source
        got = [clause_fields(c) for c in round_.extracted.clauses]
        assert got == [clause_fields(c) for c in fresh.clauses]
        for clause in round_.extracted.clauses:
            # The text the table carries is the canonical rendering.
            assert clause.text == f"//@ {clause.kind.value} {render_expr(clause.expr)};"
            assert dataclasses.replace(clause, expr=clause.expr).text == clause.text


def count_parses(monkeypatch) -> list[str]:
    parsed: list[str] = []
    real = clauses.parse_clause

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(clauses, "parse_clause", counting)
    return parsed


def annotation_lines(responses: list[str]) -> set[str]:
    return {
        line.strip()
        for response in responses
        for line in response.splitlines()
        if line.strip().startswith("//@")
    }


# --- Generated scripts -------------------------------------------------------

GEN_PROGRAM = """\
class Gen {
    static int first(int[] a, int n) {
        int i = 0;
        while (i < n) {
            i = i + 1;
        }
        return i;
    }

    static int second(int[] a, int x) {
        for (int j = 0; j < x; j = j + 1) {
            x = x - 1;
        }
        return x;
    }
}
"""
GEN_METHODS = (1, 9)  # line indexes of the method headers
GEN_LOOPS = (3, 10)  # and of the loop heads


def gen_line(rng: random.Random, kind: str) -> str:
    expr = gen_int_expr(rng, 2) if kind == "decreases" else gen_bool_expr(rng, 2)
    line = f"//@ {kind} {render_expr(expr)};"
    # Some lines arrive spaced differently: another key, the same clause.
    return line.replace(" ", "  ", 1) if rng.random() < 0.2 else line


def annotate(program: str, placement: dict[int, list[str]]) -> str:
    out = []
    for idx, line in enumerate(program.splitlines()):
        indent = line[: len(line) - len(line.lstrip())]
        out.extend(indent + clause for clause in placement.get(idx, ()))
        out.append(line)
    return "\n".join(out) + "\n"


def generated_script(seed: int, rounds: int = 8) -> list[str]:
    """Rounds that re-send most lines of the round before: each round
    replaces, moves to another anchor of its kind, or reorders a line, and
    malformed lines come and go."""
    rng = random.Random(seed)
    groups = ((GEN_METHODS, ("requires", "ensures")), (GEN_LOOPS, ("maintaining", "decreases")))
    placement = {
        idx: [gen_line(rng, rng.choice(kinds)) for _ in range(rng.randint(2, 5))]
        for anchors, kinds in groups
        for idx in anchors
    }
    responses = []
    for _ in range(rounds):
        responses.append(fenced(annotate(GEN_PROGRAM, placement)))
        anchors, kinds = rng.choice(groups)
        source, target = rng.sample(anchors, 2)
        lines = placement[source]
        roll = rng.random()
        if roll < 0.3 and lines:
            lines[rng.randrange(len(lines))] = gen_line(rng, rng.choice(kinds))
        elif roll < 0.6 and lines:
            placement[target].insert(0, lines.pop(rng.randrange(len(lines))))
        else:
            rng.shuffle(lines)
        if rng.random() < 0.3:
            placement[target].append(rng.choice(MALFORMED))
        elif rng.random() < 0.3:
            for anchored in placement.values():
                anchored[:] = [line for line in anchored if line not in MALFORMED]
    return responses


# --- Tests --------------------------------------------------------------------


def test_twosum_fixture_rounds_match_fresh_extraction():
    transcript = converse(TWOSUM_PROGRAM, TWOSUM_RESPONSES)
    assert_rounds_match_fresh_extraction(TWOSUM_PROGRAM, transcript, TWOSUM_RESPONSES)


@pytest.mark.parametrize("seed", range(12))
def test_generated_script_rounds_match_fresh_extraction(seed):
    responses = generated_script(seed)
    transcript = converse(GEN_PROGRAM, responses)
    assert_rounds_match_fresh_extraction(GEN_PROGRAM, transcript, responses)


def test_generated_scripts_exercise_moves_and_failures():
    """The generator reaches what the differential test is for."""
    extracted = failed = moved = 0
    for seed in range(12):
        transcript = converse(GEN_PROGRAM, generated_script(seed))
        anchors_of: dict[str, set] = {}
        for round_ in transcript.rounds:
            if round_.extracted is None:
                failed += 1
                continue
            extracted += 1
            for clause in round_.extracted.clauses:
                anchors_of.setdefault(clause.text, set()).add(clause.anchor)
        moved += sum(len(anchors) > 1 for anchors in anchors_of.values())
    assert extracted >= 30 and failed >= 10 and moved >= 10


def test_each_distinct_line_is_parsed_once_per_conversation(monkeypatch):
    responses = generated_script(3)
    parsed = count_parses(monkeypatch)
    converse(GEN_PROGRAM, responses)
    assert sorted(parsed) == sorted(annotation_lines(responses))


def test_a_malformed_line_keeps_its_diagnostics_across_rounds():
    anchor = "    static int[] twoSum"
    bad = "    //@ ensures \\result.length ? 2;\n"
    first = TWOSUM_RESPONSES[0].replace(anchor, bad + anchor)
    # The same line one line further down, under one more clause.
    lower = first.replace(
        "    //@ requires nums", "    //@ requires target > 0;\n    //@ requires nums"
    )
    responses = [first, first, lower, first]
    transcript = converse(TWOSUM_PROGRAM, responses)
    assert [round_.extraction_diagnostics for round_ in transcript.rounds] == [
        ("line 5: unrecognized character '?' (at offset 23)",),
        ("line 5: unrecognized character '?' (at offset 23)",),
        ("line 6: unrecognized character '?' (at offset 23)",),
        ("line 5: unrecognized character '?' (at offset 23)",),
    ]
    assert_rounds_match_fresh_extraction(TWOSUM_PROGRAM, transcript, responses)


def test_a_moved_line_takes_the_id_of_its_new_anchor():
    body = TWOSUM_RESPONSES[0]
    inner = "            //@ maintaining i + 1 <= j && j <= n;\n"
    outer_loop = "        for (int i = 0;"
    moved = body.replace(inner, "").replace(
        outer_loop, inner.replace("            ", "        ") + outer_loop
    )
    responses = [body, moved, body]
    transcript = converse(TWOSUM_PROGRAM, responses)
    ids = [
        [c.id for c in round_.extracted.clauses if c.text == inner.strip()]
        for round_ in transcript.rounds
    ]
    assert ids == [
        ["loop:twoSum:1/maintaining/0"],
        ["loop:twoSum:0/maintaining/2"],
        ["loop:twoSum:1/maintaining/0"],
    ]
    assert_rounds_match_fresh_extraction(TWOSUM_PROGRAM, transcript, responses)


BARE_PROGRAM = """\
class Sum {
    static int sum(int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
            total = total + i;
        }
        return total;
    }
}
"""


def test_bare_clause_rounds_match_fresh_extraction():
    base = [
        "//@ requires n >= 0;",
        "//@ ensures \\result >= 0;",
        "//@ maintaining 0 <= i && i <= n;",
        "//@ decreases n - i;",
    ]
    responses = [
        "\n".join(base),
        "\n".join(base + ["//@ maintaining total >= 0;"]),
        "\n".join(["//@ ensures total ? 0;"] + base),
        "\n".join(["//@ ensures total ? 0;"] + base),
        "\n".join(reversed(base)),
        "```\n" + "\n".join(base[:2]) + "\n```",
    ]
    transcript = converse(BARE_PROGRAM, responses)
    assert [round_.extracted is None for round_ in transcript.rounds] == [
        False, False, True, True, False, False,
    ]
    assert_rounds_match_fresh_extraction(BARE_PROGRAM, transcript, responses)


def test_conversations_never_share_a_table(monkeypatch):
    tables = []
    real = conversation.extract_specs

    def spy(response, program, table=None):
        tables.append(table)
        return real(response, program, table)

    monkeypatch.setattr(conversation, "extract_specs", spy)
    parsed = count_parses(monkeypatch)
    responses = TWOSUM_RESPONSES[:4]
    converse(TWOSUM_PROGRAM, responses)
    first_tables, first_parses = tables[:], parsed[:]
    tables.clear()
    parsed.clear()
    converse(TWOSUM_PROGRAM, responses)
    # One table per conversation, shared by all of its rounds...
    assert all(table is first_tables[0] for table in first_tables)
    assert all(table is tables[0] for table in tables)
    # ...and a new one for the next: it parses every line again.
    assert tables[0] is not first_tables[0]
    assert sorted(parsed) == sorted(first_parses) == sorted(annotation_lines(responses))
