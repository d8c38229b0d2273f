"""Tests for corpus loading, component wiring, runs, and report output."""
import json
import random
from types import SimpleNamespace

import pytest
from conftest import RecordingVerifier

from specsmith.clauses import extract_annotations
from specsmith.config import PipelineConfig, config_from_dict
from specsmith.conversation import HttpChatClient, ScriptedChatClient
from specsmith import pipeline, repair
from specsmith.errors import ConfigError
from specsmith.pipeline import (
    ENTRY_SCHEMA,
    SUMMARY_SCHEMA,
    PipelineContext,
    aggregate_entries,
    build_strategy,
    build_verifier,
    client_factory,
    load_corpus,
    load_script,
    make_context,
    run_batch,
    run_pipeline,
    summary_table,
    write_report,
)
from specsmith.repair import HeuristicStrategy, RandomStrategy
from specsmith.verifier import ExecVerifier, FailureCategory, MockVerifier, TraceVerifier

ABS_PROGRAM = """\
class Abs {
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""

ABS_CORRECT = """\
class Abs {
    //@ requires x > -1000;
    //@ ensures \\result >= 0;
    static int abs(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }
}
"""

ABS_TRUTH = ["//@ requires x > -1000;", "//@ ensures \\result >= 0;"]


def fenced(annotated: str) -> str:
    return f"```java\n{annotated}```\n"


def scripted_mock_config(tmp_path, responses, truth=ABS_TRUTH, **overrides):
    """A config whose chat and verifier are both fixture-driven."""
    script = tmp_path / "responses.json"
    script.write_text(json.dumps(responses), encoding="utf-8")
    data = {
        "endpoint": {
            "mode": "scripted",
            "script": str(script),
            "shot_count": 0,
            "max_rounds": 2,
        },
        "verifier": {"adapter": "mock", "mock_truth": list(truth)},
        "report": {"deterministic_clock": True},
    }
    for section, values in overrides.items():
        data.setdefault(section, {}).update(values)
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


class TestLoadCorpus:
    def test_packaged_corpus(self):
        pairs = load_corpus()
        assert len(pairs) == 4
        for program, annotated in pairs:
            assert "//@" not in program
            assert "//@" in annotated
            extracted = extract_annotations(annotated)
            assert extracted.source == program
            assert extracted.clauses

    def test_packaged_corpus_is_filename_sorted(self):
        pairs = load_corpus()
        class_names = [p.split("class ")[1].split(" ")[0] for p, _ in pairs]
        assert class_names == sorted(class_names)

    def test_directory_override(self, tmp_path):
        (tmp_path / "One.java").write_text(
            "class One {\n"
            "    //@ requires x >= 0;\n"
            "    static int f(int x) { return x; }\n"
            "}\n",
            encoding="utf-8",
        )
        (tmp_path / "Two.java").write_text(
            "class Two {\n"
            "    //@ ensures \\result == x;\n"
            "    static int g(int x) { return x; }\n"
            "}\n",
            encoding="utf-8",
        )
        pairs = load_corpus(str(tmp_path))
        assert len(pairs) == 2
        assert "class One" in pairs[0][0]
        assert "class Two" in pairs[1][0]
        assert "//@ requires x >= 0;" in pairs[0][1]

    def test_unextractable_example_is_rejected(self, tmp_path):
        (tmp_path / "Bad.java").write_text(
            "class Bad {\n"
            "    //@ requires x + ;\n"
            "    static int f(int x) { return x; }\n"
            "}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="Bad.java is not extractable"):
            load_corpus(str(tmp_path))

    def test_empty_directory(self, tmp_path):
        assert load_corpus(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# Component builders
# ---------------------------------------------------------------------------


class TestBuildVerifier:
    def test_mock_adapter(self):
        config = config_from_dict(
            {"verifier": {"adapter": "mock", "mock_truth": ABS_TRUTH}}
        )
        verifier = build_verifier(config)
        assert isinstance(verifier, MockVerifier)
        assert verifier.truth == frozenset(ABS_TRUTH)
        assert verifier.failures_per_call == "all"

    def test_mock_requires_truth(self):
        config = config_from_dict({"verifier": {"adapter": "mock"}})
        with pytest.raises(ConfigError, match="mock_truth: required"):
            build_verifier(config)

    def test_trace_adapter(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps(
                {"anchor": "method:f", "phase": "pre", "bindings": {"x": 1}}
            )
            + "\n",
            encoding="utf-8",
        )
        config = config_from_dict(
            {"verifier": {"adapter": "trace", "trace_file": str(trace)}}
        )
        verifier = build_verifier(config)
        assert isinstance(verifier, TraceVerifier)
        assert len(verifier.traces) == 1

    def test_trace_requires_file(self):
        with pytest.raises(ConfigError, match="trace_file: required"):
            build_verifier(PipelineConfig())

    def test_exec_adapter(self):
        config = config_from_dict(
            {
                "verifier": {
                    "adapter": "exec",
                    "command": "check {file}",
                    "timeout_seconds": 5,
                    "rules": [{"pattern": "cannot", "category": "syntax-error"}],
                }
            }
        )
        verifier = build_verifier(config)
        assert isinstance(verifier, ExecVerifier)
        assert (verifier.command, verifier.timeout_seconds, verifier.failures_per_call) == (
            "check {file}",
            5.0,
            "one",
        )
        assert verifier.rules == config.verifier.rules

    def test_exec_requires_command(self):
        config = config_from_dict({"verifier": {"adapter": "exec"}})
        with pytest.raises(ConfigError, match="command: required"):
            build_verifier(config)


class TestLoadScript:
    def test_flat_array_is_one_attempt(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["a", "b"]), encoding="utf-8")
        assert load_script(str(path)) == [["a", "b"]]

    def test_array_of_arrays_is_per_attempt(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([["a"], ["b", "c"]]), encoding="utf-8")
        assert load_script(str(path)) == [["a"], ["b", "c"]]

    def test_rejects_other_shapes(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"responses": ["a"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="array of strings or array of arrays"):
            load_script(str(path))

    def test_rejects_mixed_entries(self, tmp_path):
        path = tmp_path / "script.json"
        for data in (["a", ["b"]], ["ok", 7]):
            path.write_text(json.dumps(data), encoding="utf-8")
            with pytest.raises(ConfigError):
                load_script(str(path))

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text('["a", ', encoding="utf-8")
        with pytest.raises(ConfigError, match="script.json: not valid JSON"):
            load_script(str(path))


class TestBuildClient:
    def test_live_mode(self):
        assert isinstance(client_factory(PipelineConfig())(0), HttpChatClient)

    def test_scripted_mode(self, tmp_path):
        config = scripted_mock_config(tmp_path, ["only response"])
        client = client_factory(config)(0)
        assert isinstance(client, ScriptedChatClient)
        assert client.responses == ["only response"]

    def test_scripted_mode_requires_script(self):
        config = config_from_dict({"endpoint": {"mode": "scripted"}})
        with pytest.raises(ConfigError, match="endpoint.script: required"):
            client_factory(config)

    def test_attempts_cycle_through_scripts(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([["first"], ["second"]]), encoding="utf-8")
        config = config_from_dict(
            {"endpoint": {"mode": "scripted", "script": str(script)}}
        )
        clients = client_factory(config)
        assert clients(0).responses == ["first"]
        assert clients(1).responses == ["second"]
        assert clients(2).responses == ["first"]


class TestBuildStrategy:
    def test_heuristic_by_default(self):
        assert isinstance(build_strategy(PipelineConfig()), HeuristicStrategy)

    def test_random_with_per_attempt_seed(self):
        config = config_from_dict({"strategy": {"name": "random", "seed": 5}})
        first = build_strategy(config, attempt=0)
        second = build_strategy(config, attempt=1)
        assert isinstance(first, RandomStrategy)
        assert isinstance(second, RandomStrategy)
        assert first is not second


# ---------------------------------------------------------------------------
# Context assembly
# ---------------------------------------------------------------------------


class TestMakeContext:
    def test_default_shot_order_matches_corpus(self, tmp_path):
        config = scripted_mock_config(tmp_path, ["x"])
        context = make_context(config)
        assert context.shots == load_corpus()
        assert context.guidance is None

    def test_random_shot_selection_is_seeded(self, tmp_path):
        config = scripted_mock_config(
            tmp_path, ["x"], endpoint={"shot_selection": "random", "shot_seed": 3}
        )
        shuffled = make_context(config).shots
        again = make_context(config).shots
        assert shuffled == again
        expected = load_corpus()
        random.Random(3).shuffle(expected)
        assert shuffled == expected

    def test_guidance_file_is_loaded(self, tmp_path):
        guidance = tmp_path / "guidance.yaml"
        guidance.write_text("type-error: watch the types\n", encoding="utf-8")
        config = scripted_mock_config(
            tmp_path, ["x"], paths={"guidance_file": str(guidance)}
        )
        context = make_context(config)
        assert context.guidance == {FailureCategory.TYPE_ERROR: "watch the types"}


# ---------------------------------------------------------------------------
# Single-program runs
# ---------------------------------------------------------------------------


def run_abs(config, responses=None):
    context = PipelineContext(
        config=config,
        verifier=build_verifier(config),
        shots=[],
    )
    client = client_factory(config)(0)
    return run_pipeline("Abs", ABS_PROGRAM, context, client)


class TestRunPipeline:
    def test_verified_by_conversation(self, tmp_path):
        config = scripted_mock_config(tmp_path, [fenced(ABS_CORRECT)])
        entry = run_abs(config)
        assert entry["schema"] == ENTRY_SCHEMA
        assert entry["program"] == "Abs"
        assert entry["outcome"] == "verified-by-conversation"
        assert entry["rounds_used"] == 1
        assert entry["verifier_calls_conversation"] == 1
        assert entry["verifier_calls_repair"] == 0
        assert entry["final_clauses"] == ABS_TRUTH
        assert entry["refuted_history"] == []
        assert entry["error"] == ""
        assert entry["wall_time"] == 0.0
        assert entry["coverage_caveat"] is False

    def test_verified_by_mutation(self, tmp_path):
        near_miss = ABS_CORRECT.replace("\\result >= 0", "\\result > 0")
        config = scripted_mock_config(tmp_path, [fenced(near_miss)] * 2)
        entry = run_abs(config)
        assert entry["outcome"] == "verified-by-mutation"
        assert entry["rounds_used"] == 2
        assert entry["verifier_calls_conversation"] == 2
        # Call one refutes the planted template; call two passes its swap.
        assert entry["verifier_calls_repair"] == 2
        assert entry["refuted_history"] == [
            [1, "method:abs/ensures/0", "//@ ensures \\result > 0;"]
        ]
        assert entry["final_clauses"] == ABS_TRUTH
        assert entry["dropped_templates"] == []
        assert entry["thrash_warnings"] == []

    def test_failed_when_nothing_extracts(self, tmp_path):
        config = scripted_mock_config(tmp_path, ["no annotations here"] * 2)
        entry = run_abs(config)
        assert entry["outcome"] == "failed"
        assert entry["rounds_used"] == 2
        assert entry["verifier_calls_conversation"] == 0
        assert entry["verifier_calls_repair"] == 0
        assert entry["final_clauses"] == []

    def test_failed_when_every_family_is_exhausted(self, tmp_path):
        near_miss = ABS_CORRECT.replace("\\result >= 0", "\\result > 0")
        # One failure per call, so each repair call refutes one variant.
        config = scripted_mock_config(
            tmp_path, [fenced(near_miss)] * 2, truth=[], verifier={"failures_per_call": "one"}
        )
        entry = run_abs(config)
        families = repair.spec_mutation(extract_annotations(near_miss).clauses)
        assert entry["outcome"] == "failed"
        assert entry["error"] == ""
        assert entry["final_clauses"] == []
        assert entry["dropped_templates"] == sorted(families)
        # Every variant is refuted once, then the empty selection is checked.
        assert len(entry["refuted_history"]) == sum(len(f) for f in families.values())
        assert entry["verifier_calls_repair"] == 1 + sum(len(f) for f in families.values())

    def test_aborted_when_script_runs_dry(self, tmp_path):
        config = scripted_mock_config(tmp_path, [])
        entry = run_abs(config)
        assert entry["outcome"] == "aborted"
        assert "no responses left" in entry["error"]

    def test_aborted_on_insufficient_shots(self, tmp_path):
        config = scripted_mock_config(
            tmp_path, [fenced(ABS_CORRECT)], endpoint={"shot_count": 4}
        )
        entry = run_abs(config)  # context is built with zero shots
        assert entry["outcome"] == "aborted"
        assert "few-shot" in entry["error"]

    def test_wall_time_recorded_without_deterministic_clock(self, tmp_path):
        config = scripted_mock_config(
            tmp_path, [fenced(ABS_CORRECT)], report={"deterministic_clock": False}
        )
        entry = run_abs(config)
        assert entry["wall_time"] > 0.0

    def test_truncated_family_is_reported_without_building_it(self, tmp_path, monkeypatch):
        # 12 additions and one comparison: 8192 combinations, over the cap.
        wide = "x" + " + x" * 12 + " > -1000"
        truth = [f"//@ requires {wide};", "//@ ensures \\result >= 0;"]
        near_miss = ABS_CORRECT.replace("x > -1000", wide).replace("\\result >= 0", "\\result > 0")
        config = scripted_mock_config(tmp_path, [fenced(near_miss)] * 2, truth=truth)
        results = []

        def recording_gen(*args, **kwargs):
            results.append(repair.mutation_based_gen(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(pipeline, "mutation_based_gen", recording_gen)
        entry = run_abs(config)
        assert entry["outcome"] == "verified-by-mutation"
        assert entry["truncated_families"] == ["method:abs/requires/0"]
        family = results[0].state.slots["method:abs/requires/0"].family
        assert family.raw_count == 8192 and len(family._built) < family.cap == 4096

    def test_timeout_keeps_the_repair_state(self, tmp_path, monkeypatch):
        class ClockedVerifier(MockVerifier):
            """Each call takes six seconds on a fake clock."""

            now = 0.0

            def verify(self, program):
                self.now += 6.0
                return super().verify(program)

        near_miss = ABS_CORRECT.replace("\\result >= 0", "\\result > 0")
        config = scripted_mock_config(
            tmp_path, [fenced(near_miss)] * 2, truth=[], budgets={"pipeline_seconds": 10}
        )
        entries = []
        # The conversation takes 1 s, then 3 s, of the pipeline's fake clock.
        for conversation_seconds in (1.0, 3.0):
            ticks = iter([0.0, conversation_seconds])
            monkeypatch.setattr(pipeline, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
            verifier = ClockedVerifier(truth=frozenset())
            monkeypatch.setattr(repair, "time", SimpleNamespace(monotonic=lambda: verifier.now))
            context = PipelineContext(config=config, verifier=verifier, shots=[])
            entries.append(run_pipeline("Abs", ABS_PROGRAM, context, client_factory(config)(0)))
        entry = entries[0]
        # The error quotes the configured budget, not the remainder repair got.
        assert entries[1] == entry
        # Two repair calls fit the 10 s budget; the check before a third trips.
        assert entry["outcome"] == "aborted"
        assert entry["error"] == "repair loop exceeded what remained of the 10s pipeline budget"
        assert entry["verifier_calls_repair"] == 2
        assert [event[:2] for event in entry["refuted_history"]] == [
            [1, "method:abs/requires/0"],
            [1, "method:abs/ensures/0"],
            [2, "method:abs/requires/0"],
            [2, "method:abs/ensures/0"],
        ]
        assert entry["dropped_templates"] == ["method:abs/ensures/0", "method:abs/requires/0"]
        assert aggregate_entries([entry])["mean_verifier_calls"] == 4

    @pytest.mark.parametrize("conversation_seconds", [10.0, 12.5])
    def test_spent_budget_leaves_no_time_for_repair(
        self, tmp_path, monkeypatch, conversation_seconds
    ):
        near_miss = ABS_CORRECT.replace("\\result >= 0", "\\result > 0")
        config = scripted_mock_config(
            tmp_path, [fenced(near_miss)] * 2, truth=[], budgets={"pipeline_seconds": 10}
        )
        # The conversation uses up the whole budget on the pipeline's fake
        # clock, and the repair loop's clock stands still.
        ticks = iter([0.0, conversation_seconds])
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        monkeypatch.setattr(repair, "time", SimpleNamespace(monotonic=lambda: 0.0))
        verifier = RecordingVerifier(MockVerifier(truth=frozenset()))
        context = PipelineContext(config=config, verifier=verifier, shots=[])
        entry = run_pipeline("Abs", ABS_PROGRAM, context, client_factory(config)(0))
        assert entry["outcome"] == "aborted"
        assert entry["error"] == "repair loop exceeded what remained of the 10s pipeline budget"
        assert entry["verifier_calls_conversation"] == 2
        assert len(verifier.calls) == 2  # the conversation's, and none for repair
        assert entry["verifier_calls_repair"] == 0
        assert entry["refuted_history"] == []
        assert entry["dropped_templates"] == []
        assert entry["truncated_families"] == []
        assert entry["thrash_warnings"] == []

    def test_trace_verifier_sets_coverage_caveat(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        records = [
            {"anchor": "method:abs", "phase": "pre", "bindings": {"x": 5}},
            {
                "anchor": "method:abs",
                "phase": "post",
                "bindings": {"x": 5},
                "result": 5,
                "old": {"x": 5},
            },
        ]
        trace.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        config = scripted_mock_config(
            tmp_path,
            [fenced(ABS_CORRECT)],
            verifier={"adapter": "trace", "trace_file": str(trace), "mock_truth": None},
        )
        entry = run_abs(config)
        assert entry["outcome"] == "verified-by-conversation"
        assert entry["coverage_caveat"] is True


# ---------------------------------------------------------------------------
# Batches, aggregation, and report files
# ---------------------------------------------------------------------------


def entry_stub(program, outcome, conversation_calls=1, repair_calls=0):
    return {
        "schema": ENTRY_SCHEMA,
        "program": program,
        "outcome": outcome,
        "verifier_calls_conversation": conversation_calls,
        "verifier_calls_repair": repair_calls,
    }


class TestAggregation:
    def test_aggregates_recompute_from_entries(self):
        entries = [
            entry_stub("A", "verified-by-mutation", 10, 2),
            entry_stub("A", "failed", 10, 6),
            entry_stub("B", "verified-by-conversation", 1, 0),
        ]
        summary = aggregate_entries(entries)
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["programs"] == 2
        assert summary["attempts"] == {"A": 2, "B": 1}
        assert summary["number_of_passes"] == 2
        assert summary["success_probability"] == {"A": 0.5, "B": 1.0}
        assert summary["mean_success_probability"] == 0.75
        assert summary["mean_verifier_calls"] == pytest.approx((12 + 16 + 1) / 3)
        assert summary["variant_dedup"] is True

    def test_aborted_counts_as_failure(self):
        summary = aggregate_entries([entry_stub("A", "aborted", 0, 0)])
        assert summary["number_of_passes"] == 0
        assert summary["success_probability"] == {"A": 0.0}

    def test_empty_batch(self):
        summary = aggregate_entries([])
        assert summary["programs"] == 0
        assert summary["number_of_passes"] == 0
        assert summary["mean_success_probability"] == 0.0
        assert summary["mean_verifier_calls"] == 0.0


class TestRunBatch:
    def test_two_attempts_replay_identically(self, tmp_path):
        config = scripted_mock_config(tmp_path, [fenced(ABS_CORRECT)])
        entries, summary = run_batch([("Abs", ABS_PROGRAM)], config, attempts=2)
        assert [e["attempt"] for e in entries] == [0, 1]
        assert all(e["outcome"] == "verified-by-conversation" for e in entries)
        assert summary["attempts"] == {"Abs": 2}
        assert summary["success_probability"] == {"Abs": 1.0}
        assert summary["strategy"] == "heuristic"

    def test_script_is_loaded_once_per_batch(self, tmp_path, monkeypatch):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([[fenced(ABS_CORRECT)], ["no code here"]]), encoding="utf-8")
        config = scripted_mock_config(tmp_path, [], endpoint={"script": str(script)})
        loads = []

        def counting_load_script(path):
            loads.append(path)
            return load_script(path)

        monkeypatch.setattr(pipeline, "load_script", counting_load_script)
        programs = [("Abs", ABS_PROGRAM), ("Abs2", ABS_PROGRAM)]
        entries, _ = run_batch(programs, config, attempts=3)
        assert loads == [str(script)]
        # Attempt i still replays script entry i % 2.
        verified = [e["outcome"] == "verified-by-conversation" for e in entries]
        assert verified == [True, False, True] * 2

    def test_repeated_batches_are_identical(self, tmp_path):
        config = scripted_mock_config(tmp_path, [fenced(ABS_CORRECT)])
        first = run_batch([("Abs", ABS_PROGRAM)], config, attempts=2)
        second = run_batch([("Abs", ABS_PROGRAM)], config, attempts=2)
        assert first == second


class TestWriteReport:
    def test_report_files(self, tmp_path):
        entries = [entry_stub("A", "failed", 3, 1)]
        summary = aggregate_entries(entries)
        out = tmp_path / "nested" / "runs"
        entries_path, summary_path = write_report(str(out), entries, summary)
        assert entries_path == out / "entries.jsonl"
        assert summary_path == out / "summary.json"
        lines = entries_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == entries
        assert lines[0] == json.dumps(entries[0], sort_keys=True)
        text = summary_path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == summary

    def test_summary_table_lists_programs(self):
        summary = aggregate_entries(
            [
                entry_stub("A", "verified-by-mutation"),
                entry_stub("B", "failed"),
            ]
        )
        table = summary_table(summary)
        assert "programs:                2" in table
        assert "A: success probability 1.000" in table
        assert "B: success probability 0.000" in table
