"""End-to-end tests for the command-line interface."""
import itertools
import json
from types import SimpleNamespace

import pytest
import yaml

from specsmith import repair
from specsmith.cli import main
from specsmith.conversation import ScriptedChatClient

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

TRACE_RECORDS = [
    {"anchor": "method:abs", "phase": "pre", "bindings": {"x": 5}},
    {
        "anchor": "method:abs",
        "phase": "post",
        "bindings": {"x": 5},
        "result": 5,
        "old": {"x": 5},
    },
]


def fenced(annotated: str) -> str:
    return f"```java\n{annotated}```\n"


@pytest.fixture
def workspace(tmp_path):
    """Program file, response script, trace file, and a mock-mode config."""
    program = tmp_path / "Abs.java"
    program.write_text(ABS_PROGRAM, encoding="utf-8")
    annotated = tmp_path / "AbsAnnotated.java"
    annotated.write_text(ABS_CORRECT, encoding="utf-8")
    script = tmp_path / "responses.json"
    script.write_text(json.dumps([fenced(ABS_CORRECT)]), encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        "".join(json.dumps(r) + "\n" for r in TRACE_RECORDS), encoding="utf-8"
    )
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "endpoint": {
                    "mode": "scripted",
                    "script": str(script),
                    "shot_count": 0,
                    "max_rounds": 2,
                },
                "verifier": {"adapter": "mock", "mock_truth": ABS_TRUTH},
                "report": {"deterministic_clock": True},
            }
        ),
        encoding="utf-8",
    )
    return tmp_path


class TestGenerate:
    def test_successful_run(self, workspace, capsys):
        out = workspace / "runs"
        code = main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "config.yaml"),
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Abs: success probability 1.000" in captured.out
        assert (out / "entries.jsonl").exists()
        assert (out / "summary.json").exists()

    def test_json_summary(self, workspace, capsys):
        code = main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "config.yaml"),
                "--out",
                str(workspace / "runs"),
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "run-summary@1"
        assert summary["number_of_passes"] == 1
        assert summary["strategy"] == "heuristic"

    def test_failing_run_exits_one(self, workspace, capsys):
        script = workspace / "responses.json"
        script.write_text(json.dumps(["no annotations here"]), encoding="utf-8")
        code = main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "config.yaml"),
                "--out",
                str(workspace / "runs"),
            ]
        )
        assert code == 1
        assert "number of passes:        0" in capsys.readouterr().out

    def test_strategy_override_lands_in_summary(self, workspace, capsys):
        code = main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "config.yaml"),
                "--out",
                str(workspace / "runs"),
                "--strategy",
                "random",
                "--seed",
                "9",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["strategy"] == "random"

    def test_missing_program_file(self, workspace, capsys):
        code = main(
            [
                "generate",
                str(workspace / "Missing.java"),
                "--config",
                str(workspace / "config.yaml"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, workspace, capsys):
        code = main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "nope.yaml"),
            ]
        )
        assert code == 2

    def test_default_config_needs_trace_file(self, workspace, capsys):
        code = main(["generate", str(workspace / "Abs.java")])
        assert code == 2
        assert "trace_file" in capsys.readouterr().err

    def test_exec_command_without_placeholder_exits_before_any_chat(
        self, workspace, capsys, monkeypatch
    ):
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["verifier"] = {"adapter": "exec", "command": "true"}
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        requests = []
        monkeypatch.setattr(
            ScriptedChatClient, "complete", lambda self, *args: requests.append(args)
        )
        out = workspace / "runs"
        code = main(
            ["generate", str(workspace / "Abs.java"), "--config", str(config), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: verifier command template needs a {file} placeholder\n"
        assert requests == []
        assert not out.exists()


class TestMutate:
    def test_family_listing(self, capsys):
        code = main(["mutate", "requires a <= b;"])
        captured = capsys.readouterr()
        assert code == 0
        assert "template: //@ requires a <= b;" in captured.out
        assert "variants: 3" in captured.out
        assert "//@ requires a - 1 <= b;" in captured.out
        assert "//@ requires a < b;" in captured.out

    def test_limit_truncates_output(self, capsys):
        code = main(["mutate", "requires a <= b;", "--limit", "1"])
        captured = capsys.readouterr()
        assert code == 0
        variant_lines = [l for l in captured.out.splitlines() if "//@" in l and "template" not in l]
        assert len(variant_lines) == 1

    def test_cap_reports_truncation(self, capsys):
        code = main(["mutate", "requires a <= b && c >= d;", "--cap", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "note: enumeration truncated at cap 2" in captured.out

    def test_cap_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mutate", "requires a <= b;", "--cap", "0"])
        assert info.value.code == 2
        assert "--cap: must be at least 1" in capsys.readouterr().err

    def test_syntax_error_exits_one(self, capsys):
        code = main(["mutate", "requires a + ;"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting_is_a_syntax_error(self, capsys):
        code = main(["mutate", "requires " + "(" * 300 + "a" + ")" * 300 + ";"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["error: clause nests deeper than 100 levels (at offset 109)"]


class TestVerify:
    def test_pass(self, workspace, capsys):
        code = main(
            [
                "verify",
                str(workspace / "AbsAnnotated.java"),
                "--config",
                str(workspace / "config.yaml"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "outcome: pass" in captured.out

    def test_fail_lists_rejected_clauses(self, workspace, capsys):
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["verifier"]["mock_truth"] = ["//@ requires x > -1000;"]
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        code = main(
            ["verify", str(workspace / "AbsAnnotated.java"), "--config", str(config)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "outcome: fail" in captured.out
        assert "method:abs/ensures/0" in captured.out

    def test_mock_reports_one_failure_per_call_when_configured(self, workspace, capsys):
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["verifier"].update(mock_truth=[], failures_per_call="one")
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        code = main(
            ["verify", str(workspace / "AbsAnnotated.java"), "--config", str(config)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            "outcome: fail\n"
            "  unknown [method:abs/requires/0]: "
            "clause not in the accepted set: //@ requires x > -1000;\n"
        )

    def test_trace_adapter_prints_coverage_note(self, workspace, capsys):
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["verifier"] = {
            "adapter": "trace",
            "trace_file": str(workspace / "trace.jsonl"),
        }
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        code = main(
            ["verify", str(workspace / "AbsAnnotated.java"), "--config", str(config)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "holds only for the recorded executions" in captured.out

    def test_null_config_value_is_one_error_line(self, workspace, capsys):
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["endpoint"]["max_rounds"] = None
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        code = main(
            ["verify", str(workspace / "AbsAnnotated.java"), "--config", str(config)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "error: endpoint.max_rounds: expected int, got null"
        ]


    def test_non_utf8_program_is_one_error_line(self, workspace, capsys):
        program = workspace / "Latin1.java"
        program.write_bytes(ABS_CORRECT.replace("{", "{ // caf\xe9", 1).encode("latin-1"))
        code = main(["verify", str(program), "--config", str(workspace / "config.yaml")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {program}: not valid UTF-8")


class TestEval:
    def test_pass(self, workspace, capsys):
        code = main(
            [
                "eval",
                str(workspace / "AbsAnnotated.java"),
                str(workspace / "trace.jsonl"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "outcome: pass" in captured.out

    def test_falsified_clause_exits_one(self, workspace, capsys):
        wrong = workspace / "AbsWrong.java"
        wrong.write_text(
            ABS_CORRECT.replace("\\result >= 0", "\\result < 0"), encoding="utf-8"
        )
        code = main(["eval", str(wrong), str(workspace / "trace.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "outcome: fail" in captured.out

    def test_missing_trace_file(self, workspace, capsys):
        code = main(
            [
                "eval",
                str(workspace / "AbsAnnotated.java"),
                str(workspace / "absent.jsonl"),
            ]
        )
        assert code == 2

    def test_malformed_record_names_its_line(self, workspace, capsys):
        trace = workspace / "trace.jsonl"
        bogus = dict(TRACE_RECORDS[0], phase="bogus")
        trace.write_text(
            trace.read_text(encoding="utf-8") + json.dumps(bogus) + "\n", encoding="utf-8"
        )
        code = main(["eval", str(workspace / "AbsAnnotated.java"), str(trace)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {trace}:3: ")
        assert "'bogus' is not a valid Phase" in err


    def test_non_utf8_record_names_its_line(self, workspace, capsys):
        trace = workspace / "bad.jsonl"
        trace.write_bytes(json.dumps(TRACE_RECORDS[0]).encode() + b"\n\xff\xfe\n")
        code = main(["eval", str(workspace / "AbsAnnotated.java"), str(trace)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {trace}:2: not valid UTF-8")


class TestRepair:
    def test_repairs_near_miss(self, workspace, capsys):
        near_miss = workspace / "AbsNearMiss.java"
        near_miss.write_text(
            ABS_CORRECT.replace("\\result >= 0", "\\result > 0"), encoding="utf-8"
        )
        code = main(
            ["repair", str(near_miss), "--config", str(workspace / "config.yaml")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "verifier calls: 2" in captured.out
        assert "repaired clauses:" in captured.out
        assert "//@ ensures \\result >= 0;" in captured.out
        assert "refuted (call 1) method:abs/ensures/0" in captured.out

    def test_exhausted_families_exit_one(self, workspace, capsys):
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["verifier"]["mock_truth"] = []  # no clause is ever accepted
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        code = main(
            [
                "repair",
                str(workspace / "AbsAnnotated.java"),
                "--config",
                str(config),
            ]
        )
        captured = capsys.readouterr()
        # Every family is exhausted and every slot dropped: nothing is
        # verified, so the run fails after showing its refutations.
        assert code == 1
        assert "repaired clauses:" not in captured.out
        assert captured.out.endswith("repair failed: every candidate family was exhausted\n")
        assert "refuted (call 1) method:abs/requires/0" in captured.out
        assert captured.err == ""

    def test_timeout_prints_the_partial_state(self, workspace, capsys, monkeypatch):
        near_miss = workspace / "AbsNearMiss.java"
        near_miss.write_text(
            ABS_CORRECT.replace("\\result >= 0", "\\result > 0"), encoding="utf-8"
        )
        config = workspace / "config.yaml"
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["budgets"] = {"pipeline_seconds": 0.15}
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        # A fake clock that moves 0.1 s per reading: the check before the
        # first verifier call passes, the one before the second trips.
        ticks = itertools.count(1)
        monkeypatch.setattr(
            repair, "time", SimpleNamespace(monotonic=lambda: next(ticks) / 10)
        )
        code = main(["repair", str(near_miss), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            "verifier calls: 1\n"
            "  refuted (call 1) method:abs/ensures/0: //@ ensures \\result > 0;\n"
        )
        assert captured.err == "error: repair loop exceeded its 0.15s budget\n"

    def test_parse_error_exits_one(self, workspace, capsys):
        bad = workspace / "Bad.java"
        bad.write_text(
            "class Bad {\n"
            "    //@ requires x + ;\n"
            "    static int f(int x) { return x; }\n"
            "}\n",
            encoding="utf-8",
        )
        code = main(
            ["repair", str(bad), "--config", str(workspace / "config.yaml")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestReport:
    def test_recomputes_summary(self, workspace, capsys):
        out = workspace / "runs"
        main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "config.yaml"),
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        code = main(["report", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Abs: success probability 1.000" in captured.out

    def test_json_output_round_trips(self, workspace, capsys):
        out = workspace / "runs"
        main(
            [
                "generate",
                str(workspace / "Abs.java"),
                "--config",
                str(workspace / "config.yaml"),
                "--out",
                str(out),
                "--json",
            ]
        )
        generated = json.loads(capsys.readouterr().out)
        code = main(["report", str(out), "--json"])
        recomputed = json.loads(capsys.readouterr().out)
        assert code == 0
        # The stored summary additionally records the strategy name.
        generated.pop("strategy")
        assert recomputed == generated

    def test_missing_directory(self, workspace, capsys):
        code = main(["report", str(workspace / "no-such-dir")])
        assert code == 2

    @pytest.mark.parametrize(
        "lines, line_no, message",
        [
            (['{"program": "a"'], 1, "bad JSON"),
            (['{"schema":"run-entry@1"}'], 1, "entry has no 'program' field"),
            (["", "[1, 2]"], 2, "expected a JSON object"),
            (
                ['{"program": "a", "outcome": "failed", '
                 '"verifier_calls_conversation": 1, "verifier_calls_repair": "2"}'],
                1,
                "verifier_calls_repair: expected int, got '2'",
            ),
        ],
    )
    def test_malformed_entries_name_their_line(self, tmp_path, capsys, lines, line_no, message):
        entries = tmp_path / "entries.jsonl"
        entries.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["report", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {entries}:{line_no}: ")
        assert message in err


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mutate"])
        assert excinfo.value.code == 2
