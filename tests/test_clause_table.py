"""The parsed clause lines (``clauses.clause_line``) that every conversation
and every mutation plan shares.

Every round's extraction must equal a fresh extraction of the same response,
every line parsed anew, clause by clause; the cache may only save work.
Scripts are the TwoSum fixture, generated multi-round scripts in the style
of the benchmark's, and bare-clause responses, with malformed lines and
lines that change anchor. The rounds, their verifier calls and a repair
share one anchor scan of the program (``clauses.program_anchors``).
"""
import gc
import json
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specsmith import clauses, conversation, repair
from specsmith.clauses import Anchor, Clause, clause_line, program_anchors
from specsmith.config import config_from_dict
from specsmith.conversation import (
    EndpointConfig,
    ExtractionFailure,
    ScriptedChatClient,
    extract_specs,
    run_conversation,
)
from specsmith.errors import ClauseSyntaxError, TypeMismatch
from specsmith.mutation import enumerate_variants, template_plan
from specsmith.pipeline import make_context, run_batch, run_pipeline, write_report
from specsmith.schemata import render_expr
from specsmith.verifier import ExecVerifier, MockVerifier

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
        program,
        cfg,
        MockVerifier(truth=frozenset()),
        ScriptedChatClient(responses),
    )
    assert transcript.outcome == "exhausted"
    assert len(transcript.rounds) == len(responses)
    return transcript


def clause_fields(clause):
    return (clause.kind, clause.expr, clause.text, clause.anchor, clause.id)


def fresh_extraction(response: str, program: str):
    """``extract_specs`` with every line parsed anew, past the cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clauses, "clause_line", clause_line.__wrapped__)
        return extract_specs(response, program)


def assert_rounds_match_fresh_extraction(program: str, transcript, responses: list[str]):
    for round_, response in zip(transcript.rounds, responses):
        fresh = fresh_extraction(response, program)
        if isinstance(fresh, ExtractionFailure):
            assert round_.extracted is None
            assert round_.extraction_diagnostics == fresh.diagnostics
            continue
        assert round_.extracted.source == fresh.source
        got = [clause_fields(c) for c in round_.extracted.clauses]
        assert got == [clause_fields(c) for c in fresh.clauses]
        for clause in round_.extracted.clauses:
            # The text the cache carries is the canonical rendering.
            assert clause.text == f"//@ {clause.kind.value} {render_expr(clause.expr)};"
            assert Clause(clause.kind, clause.text).expr == clause.expr


def count_parses(monkeypatch) -> list[str]:
    """The lines parsed from here on: both caches are cleared first, so
    every line counts once on its first lookup."""
    clause_line.cache_clear()
    template_plan.cache_clear()
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


def test_extracted_clauses_share_the_table_tree_and_never_parse_again(monkeypatch):
    clause_line.cache_clear()
    template_plan.cache_clear()
    scripts = [(TWOSUM_PROGRAM, TWOSUM_RESPONSES)] + [(GEN_PROGRAM, generated_script(seed)) for seed in range(4)]
    rounds = [r for program, responses in scripts for r in converse(program, responses).rounds]
    extracted = [c for r in rounds if r.extracted is not None for c in r.extracted.clauses]
    assert len(extracted) >= 50
    lines = set().union(*(annotation_lines(responses) for _, responses in scripts))
    entries = [entry for entry in map(clause_line, lines) if isinstance(entry, Clause)]
    for clause in extracted:
        assert any(clause.expr is entry.expr for entry in entries if entry.text == clause.text)

    def fail(*args):
        raise AssertionError("parsed a line again")

    monkeypatch.setattr(clauses, "parse_clause_line", fail)
    for clause in extracted:
        clause.expr
        enumerate_variants(clause).variants


def malformed_twosum_script() -> tuple[list[str], list[tuple[str, ...]]]:
    """TwoSum rounds that repeat one malformed line, and their diagnostics."""
    anchor = "    static int[] twoSum"
    bad = "    //@ ensures \\result.length ? 2;\n"
    first = TWOSUM_RESPONSES[0].replace(anchor, bad + anchor)
    # The same line one line further down, under one more clause.
    lower = first.replace(
        "    //@ requires nums", "    //@ requires target > 0;\n    //@ requires nums"
    )
    return [first, first, lower, first], [
        ("line 5: unrecognized character '?' (at offset 23)",),
        ("line 5: unrecognized character '?' (at offset 23)",),
        ("line 6: unrecognized character '?' (at offset 23)",),
        ("line 5: unrecognized character '?' (at offset 23)",),
    ]


def test_a_malformed_line_keeps_its_diagnostics_across_rounds():
    responses, diagnostics = malformed_twosum_script()
    transcript = converse(TWOSUM_PROGRAM, responses)
    assert [round_.extraction_diagnostics for round_ in transcript.rounds] == diagnostics
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


BARE_BASE = [
    "//@ requires n >= 0;",
    "//@ ensures \\result >= 0;",
    "//@ maintaining 0 <= i && i <= n;",
    "//@ decreases n - i;",
]
BARE_RESPONSES = [
    "\n".join(BARE_BASE),
    "\n".join(BARE_BASE + ["//@ maintaining total >= 0;"]),
    "\n".join(["//@ ensures total ? 0;"] + BARE_BASE),
    "\n".join(["//@ ensures total ? 0;"] + BARE_BASE),
    "\n".join(reversed(BARE_BASE)),
    "```\n" + "\n".join(BARE_BASE[:2]) + "\n```",
]


def test_bare_clause_rounds_match_fresh_extraction():
    responses = BARE_RESPONSES
    transcript = converse(BARE_PROGRAM, responses)
    assert [round_.extracted is None for round_ in transcript.rounds] == [
        False, False, True, True, False, False,
    ]
    assert_rounds_match_fresh_extraction(BARE_PROGRAM, transcript, responses)


def test_conversations_share_one_parse_per_line(monkeypatch):
    parsed = count_parses(monkeypatch)
    responses = TWOSUM_RESPONSES[:4]
    converse(TWOSUM_PROGRAM, responses)
    assert sorted(parsed) == sorted(annotation_lines(responses))
    parsed.clear()
    converse(TWOSUM_PROGRAM, responses)
    assert parsed == []


def fresh_parse(line: str) -> Clause | str:
    try:
        return clauses.parse_clause(line)
    except (ClauseSyntaxError, TypeMismatch) as exc:
        return str(exc)


def grammar_line(seed: int, kind: str, respaced: bool) -> str:
    rng = random.Random(seed)
    expr = gen_int_expr(rng, 3) if kind == "decreases" else gen_bool_expr(rng, 3)
    line = f"//@ {kind} {render_expr(expr)};"
    return line.replace(" ", "") if respaced else line


clause_lines = st.one_of(
    st.builds(
        grammar_line,
        st.integers(0, 10**6),
        st.sampled_from(("requires", "ensures", "maintaining", "decreases")),
        st.booleans(),
    ),
    st.sampled_from(MALFORMED),
    st.text(max_size=30).map(lambda text: "//@ " + text),
)


@given(st.lists(clause_lines, min_size=1, max_size=8))
def test_clause_line_matches_a_fresh_parse(lines):
    """Cached or not, a line's entry is the clause a fresh parse gives, tree
    included, or the same message."""
    for line in lines + lines[:1]:
        cached, fresh = clause_line(line), fresh_parse(line)
        assert cached == fresh
        if isinstance(fresh, Clause):
            assert cached.expr == fresh.expr
            assert (cached.anchor, cached.id) == (None, "")


# --- Pipeline runs -------------------------------------------------------------


def twosum_config():
    return config_from_dict(
        {
            "endpoint": {
                "mode": "scripted",
                "script": str(FIXTURES / "twosum_responses.json"),
                "shot_count": 0,
            },
            "verifier": {
                "adapter": "trace",
                "trace_file": str(FIXTURES / "twosum_trace.jsonl"),
            },
            "report": {"deterministic_clock": True},
        }
    )


def test_conversations_through_one_table_match_fresh_extraction():
    """Back to back through the cache, every round of every script still
    equals a fresh extraction, and a malformed line repeated across
    conversations keeps its diagnostics."""
    malformed, diagnostics = malformed_twosum_script()
    scripts = (
        [(TWOSUM_PROGRAM, TWOSUM_RESPONSES), (TWOSUM_PROGRAM, malformed)]
        + [(GEN_PROGRAM, generated_script(seed)) for seed in range(12)]
        + [(BARE_PROGRAM, BARE_RESPONSES), (TWOSUM_PROGRAM, malformed)]
    )
    clause_line.cache_clear()
    for program, responses in scripts:
        transcript = converse(program, responses)
        assert_rounds_match_fresh_extraction(program, transcript, responses)
        if responses is malformed:
            got = [round_.extraction_diagnostics for round_ in transcript.rounds]
            assert got == diagnostics
    # Each distinct line was parsed once, by its first lookup.
    assert clause_line.cache_info().misses == len(set().union(*(annotation_lines(r) for _, r in scripts)))


def test_pipeline_runs_on_one_context_parse_each_line_once(monkeypatch):
    context = make_context(twosum_config())
    context.verifier = MockVerifier(truth=frozenset())  # all ten rounds run
    gen_responses = generated_script(3, rounds=10)
    parsed = count_parses(monkeypatch)
    run_pipeline("TwoSum", TWOSUM_PROGRAM, context, ScriptedChatClient(TWOSUM_RESPONSES))
    run_pipeline("Gen", GEN_PROGRAM, context, ScriptedChatClient(gen_responses), 1)
    run_pipeline("TwoSum", TWOSUM_PROGRAM, context, ScriptedChatClient(TWOSUM_RESPONSES), 2)
    lines = annotation_lines(TWOSUM_RESPONSES) | annotation_lines(gen_responses)
    assert sorted(parsed) == sorted(lines)


def test_batch_reports_match_a_fresh_table_per_conversation(tmp_path, monkeypatch):
    def report(name):
        entries, summary = run_batch([("TwoSum", TWOSUM_PROGRAM)], twosum_config(), attempts=3)
        paths = write_report(str(tmp_path / name), entries, summary)
        return entries, [path.read_bytes() for path in paths]

    shared_entries, shared = report("shared")
    cleared = []

    def clearing(real):
        def call(*args, **kwargs):
            clause_line.cache_clear()
            template_plan.cache_clear()
            cleared.append(real)
            return real(*args, **kwargs)

        return call

    # Both caches emptied before every extraction and every family.
    monkeypatch.setattr(conversation, "extract_specs", clearing(conversation.extract_specs))
    monkeypatch.setattr(repair, "enumerate_variants", clearing(repair.enumerate_variants))
    _, fresh = report("fresh")
    assert shared == fresh
    assert len(set(cleared)) == 2
    first = shared_entries[0]
    assert first["outcome"] == "verified-by-mutation"
    assert [entry | {"attempt": 0} for entry in shared_entries] == [first] * 3


@pytest.fixture
def scans(monkeypatch):
    """The texts scanned for anchors from here on: the cache is cleared
    first, so every text counts once on its first lookup."""
    scanned = []
    real = clauses._scan_anchors

    def counting(text):
        scanned.append(text)
        return real(text)

    program_anchors.cache_clear()
    monkeypatch.setattr(clauses, "_scan_anchors", counting)
    return scanned


def test_a_bare_clause_round_scans_the_program_once(scans):
    for response in BARE_RESPONSES[:2]:
        extraction = extract_specs(response, BARE_PROGRAM)
        assert len(extraction.clauses) >= 4
    assert scans == [BARE_PROGRAM]


def annotated_sum(clause_lines: list[str]) -> str:
    """The Sum program with its two method clauses above the method header
    and the rest above the loop."""
    program_lines = BARE_PROGRAM.splitlines()
    return "\n".join(
        program_lines[:1] + clause_lines[:2] + program_lines[1:3] + clause_lines[2:] + program_lines[3:]
    ) + "\n"


def test_a_bare_and_a_fenced_round_scan_the_program_once(scans):
    """A bare-clause round keeps the program's final newline, so its source
    is the one a fenced full round of the same program returns."""
    bare = extract_specs("\n".join(BARE_BASE), BARE_PROGRAM)
    full = extract_specs(fenced(annotated_sum(BARE_BASE)), BARE_PROGRAM)
    assert bare.source == full.source == BARE_PROGRAM
    assert bare.clauses == full.clauses
    assert scans == [BARE_PROGRAM]


SUM_TRACE = [
    {"anchor": "method:sum", "phase": "pre", "bindings": {"n": 3}},
    *(
        {"anchor": "loop:sum:0", "phase": "iter", "bindings": {"n": 3, "i": i, "total": t}}
        for i, t in ((0, 0), (1, 0), (2, 1), (3, 3))
    ),
    {"anchor": "method:sum", "phase": "post", "bindings": {"n": 3}, "result": 3, "old": {"n": 3}},
]


def test_rounds_their_verifications_and_a_repair_scan_the_program_once(tmp_path, scans):
    """A bare-clause round and a fenced full round, each checked against the
    traces, then a repair of the one refuted clause."""
    trace = tmp_path / "sum.jsonl"
    trace.write_text("".join(json.dumps(record) + "\n" for record in SUM_TRACE), encoding="utf-8")
    wrong = BARE_BASE[:1] + ["//@ ensures \\result > 3;"] + BARE_BASE[2:]
    config = config_from_dict(
        {
            "endpoint": {"mode": "scripted", "shot_count": 0, "max_rounds": 2},
            "verifier": {"adapter": "trace", "trace_file": str(trace)},
        }
    )
    context = make_context(config)
    scans.clear()  # the corpus files' scans
    client = ScriptedChatClient(["\n".join(wrong), fenced(annotated_sum(wrong))])
    entry = run_pipeline("Sum", BARE_PROGRAM, context, client)
    assert entry["outcome"] == "verified-by-mutation"
    assert entry["rounds_used"] == entry["verifier_calls_conversation"] == 2
    assert entry["verifier_calls_repair"] >= 2
    assert "//@ ensures \\result >= 3;" in entry["final_clauses"]
    assert scans == [BARE_PROGRAM]


TWOSUM_EXEC_STUB = """\
import json, sys

truth = set(json.load(open(sys.argv[1], encoding="utf-8")))
path = sys.argv[2]
for number, line in enumerate(open(path, encoding="utf-8"), start=1):
    if line.strip().startswith("//@") and line.strip() not in truth:
        print(f"{path}:{number}: postcondition might not hold")
"""


def test_an_exec_repair_scans_the_program_once(tmp_path, scans):
    """Every exec call of a conversation and its repair looks up the one
    scan that extraction made."""
    config = twosum_config()
    context = make_context(config)
    entry = run_pipeline("TwoSum", TWOSUM_PROGRAM, context, ScriptedChatClient(TWOSUM_RESPONSES))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(entry["final_clauses"]), encoding="utf-8")
    stub = tmp_path / "stub.py"
    stub.write_text(TWOSUM_EXEC_STUB, encoding="utf-8")

    program_anchors.cache_clear()
    scans.clear()
    context.verifier = ExecVerifier(f"{sys.executable} {stub} {truth} {{file}}")
    exec_entry = run_pipeline("TwoSum", TWOSUM_PROGRAM, context, ScriptedChatClient(TWOSUM_RESPONSES))
    assert exec_entry["outcome"] == "verified-by-mutation"
    assert exec_entry["final_clauses"] == entry["final_clauses"]
    assert exec_entry["verifier_calls_conversation"] + exec_entry["verifier_calls_repair"] > 2
    assert len(scans) == 1


_ANCHOR_TEST_LINES = (
    "class C {",
    "    static int f(int n) {",
    "    public int[] g(int[] a, int k) {",
    "        for (int i = 0; i < n; i++) {",
    "        while (n > 0) {",
    "        return n;",
    "    }",
    "",
    "   ",
)
# Line breaks that str.splitlines honours, "\u2028" (line separator) included.
_SEPARATORS = ("\n", "\r\n", "\r", "\u2028")

program_texts = st.builds(
    lambda parts, last: "".join(line + sep for line, sep in parts) + last,
    st.lists(
        st.tuples(st.sampled_from(_ANCHOR_TEST_LINES), st.sampled_from(_SEPARATORS)),
        max_size=12,
    ),
    st.sampled_from(("",) + _ANCHOR_TEST_LINES),  # a last line with no break
)


@given(st.lists(program_texts, min_size=1, max_size=6))
def test_program_anchors_match_a_fresh_scan(texts):
    """Cached or not, and with its lines rejoined by newlines as extraction
    keys it, a text has the anchors a fresh scan finds."""
    for text in texts + texts[:1] + [text for text in texts for _ in range(2)]:
        by_line, line_counts = fresh = clauses._scan_anchors(text)
        assert program_anchors(text) == program_anchors("\n".join(text.splitlines())) == fresh
        assert line_counts == Counter(by_line.values())


def test_program_anchors_handle_no_lines_and_one_empty_line():
    for lines in ([], [""], [], ["static int f() {"], [""]):
        assert program_anchors("\n".join(lines)) == clauses._scan_anchors("\n".join(lines))
    assert program_anchors("") == program_anchors("\n") == ({}, {})
    assert program_anchors("static int f() {") == ({0: Anchor("f")}, {Anchor("f"): 1})


def test_the_table_stops_growing_after_the_first_run():
    clause_line.cache_clear()
    template_plan.cache_clear()
    context = make_context(twosum_config())

    def run(attempt):
        client = ScriptedChatClient(TWOSUM_RESPONSES)
        entry = run_pipeline("TwoSum", TWOSUM_PROGRAM, context, client, attempt)
        assert entry["outcome"] == "verified-by-mutation"

    run(0)
    lines = {line: clause_line(line) for line in annotation_lines(TWOSUM_RESPONSES)}
    misses = clause_line.cache_info().misses, template_plan.cache_info().misses
    tracemalloc.start()
    try:
        for attempt in range(1, 200):
            run(attempt)
            if attempt == 20:
                gc.collect()
                settled, _ = tracemalloc.get_traced_memory()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (clause_line.cache_info().misses, template_plan.cache_info().misses) == misses
    assert all(clause_line(line) is entry for line, entry in lines.items())
    assert after - settled < 16 * 1024
