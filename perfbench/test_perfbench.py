"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from specsmith import pipeline  # noqa: E402
from specsmith.clauses import parse_clause, render_clause  # noqa: E402
from specsmith.config import load_config  # noqa: E402
from specsmith.conversation import ScriptedChatClient  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write_inputs(gen.build_workload(workload, seed), tmp_path / name)
    first, again, other = (_files(tmp_path / n) for n in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_clauses_are_canonical_specsmith_text(workload):
    texts = {
        line.strip()
        for program in gen.build_workload(workload, 3).programs
        for response in program.responses
        for line in response.splitlines()
        if line.strip().startswith("//@")
    }
    assert texts
    for text in texts:
        assert render_clause(parse_clause(text)) == text


def _run_program(workload: gen.Workload, index: int, directory: Path, monkeypatch) -> dict:
    gen.write_inputs(workload, directory)
    monkeypatch.chdir(directory)
    context = pipeline.make_context(load_config("config.yaml"))
    program = workload.programs[index]
    return pipeline.run_pipeline(
        program.name, program.source, context, ScriptedChatClient(program.responses)
    )


@pytest.mark.parametrize(
    "workload, index, outcome",
    [
        ("wide-families", 0, "verified-by-mutation"),
        ("deep-repair", 5, "verified-by-mutation"),  # one clause is dropped
        ("trace-check", 7, "verified-by-conversation"),
        ("trace-check", 10, "verified-by-mutation"),
    ],
)
def test_specsmith_reaches_the_planted_answer(workload, index, outcome, tmp_path, monkeypatch):
    built = gen.build_workload(workload, 11)
    expected = built.programs[index].expected
    assert expected["outcome"] == outcome
    entry = _run_program(built, index, tmp_path, monkeypatch)
    assert run.check_entry(entry, built.programs[index].name, 0, expected) == []
    if workload == "deep-repair":
        assert expected["dropped_templates"]


def test_known_answer_check_flags_a_wrong_entry(tmp_path, monkeypatch):
    built = gen.build_workload("deep-repair", 2)
    entry = _run_program(built, 1, tmp_path, monkeypatch)
    program = built.programs[1]
    assert run.check_entry(entry, program.name, 0, program.expected) == []

    wrong = dict(entry, final_clauses=entry["final_clauses"][:-1] + ["//@ requires true;"])
    assert any("final_clauses" in p for p in run.check_entry(wrong, program.name, 0, program.expected))
    aborted = dict(entry, outcome="aborted", error="repair loop exceeded its budget")
    assert len(run.check_entry(aborted, program.name, 0, program.expected)) == 2
    assert run.check_entry(entry, program.name, 1, program.expected)

    manifest = [{"name": p.name, "expected": p.expected} for p in built.programs]
    entries = [entry, wrong]
    pipeline.write_report(str(tmp_path / "report"), entries, pipeline.aggregate_entries(entries))
    # The manifest expects programs 0 and 1 in order, so both entries fail.
    _, _, failures = run.check_report(tmp_path, manifest, 2)
    assert len(failures) == 2


def test_truth_and_planted_wrong_are_judged_on_twin_records():
    records = gen._find_twin("find0", [4, 1, 4], 1)
    truth = gen.Clause("maintaining", 0, gen.forall(
        "k", gen.in_range("k", gen.lit(0), gen.I), gen.binop("!=", gen.idx(gen.A, gen.var("k")), gen.var("x"))
    ))
    assert gen.holds_on(truth, "find0", records)
    flipped = truth.with_expr(gen.mutate(truth.expr, (), "\\exists"))
    assert not gen.holds_on(flipped, "find0", records)
    increasing = gen.Clause("decreases", 0, gen.binop("+", gen.A_LEN, gen.I))
    assert not gen.holds_on(increasing, "find0", records)


def _span(name, start, end, parent, entry=0):
    return [name, start, end, parent, entry]


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span(tracing.ENTRY, 0.0, 10.0, -1),
        _span("conversation.run", 1.0, 4.0, 0),
        _span(tracing.VERIFY, 2.0, 3.5, 1),
        _span("evaluate.eval_expr", 2.5, 3.0, 2),
        _span("repair.mutation_based_gen", 5.0, 9.0, 0),
        _span("mutation.enumerate", 5.0, 6.0, 4),
        _span("repair.spec_selection", 6.0, 9.0, 4),
        _span(tracing.VERIFY, 6.5, 7.0, 6),
        _span("repair.re_select", 7.0, 8.0, 6),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 1.5, 1.0, 0.5, 0.0, 1.0, 1.5, 0.5, 1.0])
    assert sum(own) == pytest.approx(10.0)

    run_info = {
        "entries": 1, "entry_seconds": 10.0, "make_context_s": 0.1,
        "report_write_s": 0.2, "report_bytes": 300, "overhead_ratio": 1.1,
    }
    metrics = tracing.layer_metrics(spans, {"variants_built": 4, "passes": 1}, {}, run_info)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["verifier.calls"] == 2
    assert value["verifier.verify_s"] == pytest.approx(2.0)
    assert value["verifier.self_s"] == pytest.approx(1.5)
    assert value["evaluate.eval_s"] == pytest.approx(0.5)
    assert value["repair.iterations"] == 1
    assert value["repair.reselect_s"] == pytest.approx(1.0)
    assert value["repair.self_s"] == pytest.approx(1.5)
    assert value["repair.us_per_iteration"] == pytest.approx(2.5e6)
    assert value["conversation.self_s"] == pytest.approx(1.5)
    assert value["pipeline.entry_self_s"] == pytest.approx(3.0)
    assert value["mutation.us_per_variant"] == pytest.approx(0.25e6)
    assert value["trace.accounted_ratio"] == pytest.approx(1.0)
    shares = tracing.layer_shares(spans)
    assert shares["pipeline"] == pytest.approx(0.3)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_a_missing_function_is_reported_not_raised(monkeypatch):
    import specsmith.repair

    monkeypatch.delattr(specsmith.repair, "re_select")
    tracer = tracing.Tracer()
    tracer.wrap("specsmith.repair", "re_select", "repair.re_select")
    assert "re_select not found" in tracer.missing["repair.re_select"]
    run_info = {
        "entries": 1, "entry_seconds": 1.0, "make_context_s": 0.0,
        "report_write_s": 0.0, "report_bytes": 0, "overhead_ratio": 1.0,
    }
    metrics = tracing.layer_metrics([_span(tracing.ENTRY, 0.0, 1.0, -1)], {}, tracer.missing, run_info)
    assert metrics["repair.reselect_s"]["value"] is None
    assert "not found" in metrics["repair.reselect_s"]["missing"]
    assert metrics["verifier.calls"]["value"] == 0


def test_entry_times_scale_by_the_reference_samples_around_them():
    nominal = reference.NOMINAL_S
    worker = {
        "entry_seconds": [0.1, 0.2, 0.3],
        "entry_reference_s": [nominal, nominal, 2 * nominal, 2 * nominal],
    }
    # The second entry ran between a nominal and a twice-as-slow sample.
    assert run.normalized_entry_seconds(worker) == pytest.approx([0.1, 0.2 / 1.5, 0.15])


def test_reference_runs_with_the_collector_off_and_restores_it():
    assert gc.isenabled()
    assert reference.reference_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
