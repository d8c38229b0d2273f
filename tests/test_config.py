"""Tests for YAML configuration loading and validation."""
import json
import re
from pathlib import Path

import pytest
import yaml

from specsmith import config as config_module
from specsmith.config import (
    PipelineConfig,
    VerifierSettings,
    config_from_dict,
    load_config,
    load_guidance_file,
)
from specsmith.conversation import EndpointConfig
from specsmith.errors import ConfigError
from specsmith.mutation import ALL_KINDS, MutationKind
from specsmith.verifier import DEFAULT_RULES, FailureCategory

from conftest import typed


def write_yaml(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_no_path_yields_defaults(self):
        config = load_config(None)
        assert config == PipelineConfig()

    def test_default_values(self):
        config = PipelineConfig()
        assert config.endpoint.temperature == 0.4
        assert config.endpoint.max_rounds == 10
        assert config.endpoint.shot_count == 4
        assert config.endpoint.mode == "live"
        assert config.endpoint.shot_selection == "corpus-order"
        assert config.verifier.adapter == "trace"
        assert config.verifier.timeout_seconds == 1800.0
        assert config.verifier.rules == DEFAULT_RULES
        assert config.weights.comparative == -1
        assert config.weights.logical == -2
        assert config.weights.arithmetic == -4
        assert config.weights.predicative == -4
        assert config.mutation.kinds == ALL_KINDS
        assert config.mutation.variant_cap == 4096
        assert config.strategy.name == "heuristic"
        assert config.budgets.pipeline_seconds == 1800.0
        assert config.paths.output_dir == "runs"
        assert config.report.deterministic_clock is False

    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        assert load_config(str(path)) == PipelineConfig()


class TestLoading:
    def test_partial_sections_keep_other_defaults(self, tmp_path):
        path = write_yaml(tmp_path, {"endpoint": {"model": "m9", "temperature": 0.1}})
        config = load_config(path)
        assert config.endpoint.model == "m9"
        assert config.endpoint.temperature == 0.1
        assert config.endpoint.max_rounds == 10
        assert config.verifier == VerifierSettings()

    def test_full_document(self, tmp_path):
        path = write_yaml(
            tmp_path,
            {
                "endpoint": {
                    "base_url": "http://10.0.0.5:9000/v1",
                    "model": "coder",
                    "temperature": 0.2,
                    "max_rounds": 6,
                    "shot_count": 2,
                    "api_key_env": "MY_KEY",
                    "mode": "scripted",
                    "script": "responses.json",
                    "shot_selection": "random",
                    "shot_seed": 7,
                },
                "verifier": {
                    "adapter": "mock",
                    "mock_truth": ["//@ requires x >= 0;"],
                    "failures_per_call": "one",
                },
                "weights": {"comparative": -2, "logical": -3},
                "mutation": {"kinds": ["comparative", "logical"], "variant_cap": 99},
                "strategy": {"name": "random", "seed": 11},
                "budgets": {"pipeline_seconds": 30},
                "paths": {"output_dir": "out", "corpus_dir": "corpus"},
                "report": {"deterministic_clock": True},
            },
        )
        config = load_config(path)
        assert config.endpoint.base_url == "http://10.0.0.5:9000/v1"
        assert config.endpoint.shot_selection == "random"
        assert config.endpoint.shot_seed == 7
        assert config.verifier.adapter == "mock"
        assert config.verifier.mock_truth == ("//@ requires x >= 0;",)
        assert config.weights.comparative == -2
        assert config.weights.logical == -3
        assert config.weights.arithmetic == -4  # untouched default
        assert config.mutation.kinds == frozenset(
            {MutationKind.COMPARATIVE, MutationKind.LOGICAL}
        )
        assert config.mutation.variant_cap == 99
        assert config.strategy.name == "random"
        assert config.strategy.seed == 11
        assert config.budgets.pipeline_seconds == 30.0
        assert config.paths.corpus_dir == "corpus"
        assert config.report.deterministic_clock is True

    def test_int_promotes_to_float(self, tmp_path):
        path = write_yaml(tmp_path, {"endpoint": {"temperature": 1}})
        config = load_config(path)
        assert config.endpoint.temperature == 1.0
        assert isinstance(config.endpoint.temperature, float)

    def test_custom_rules(self, tmp_path):
        path = write_yaml(
            tmp_path,
            {
                "verifier": {
                    "adapter": "mock",
                    "mock_truth": [],
                    "rules": [
                        {"pattern": "cannot establish", "category": "unprovable-postcondition"},
                        {"pattern": "parse", "category": "syntax-error"},
                    ],
                }
            },
        )
        config = load_config(path)
        assert len(config.verifier.rules) == 2
        assert config.verifier.rules[0].category is FailureCategory.UNPROVABLE_POSTCONDITION

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("endpoint: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(path))

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="root must be a mapping"):
            load_config(str(path))


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown configuration key: verifiers"):
            config_from_dict({"verifiers": {}})

    def test_unknown_key_names_dotted_path(self):
        with pytest.raises(
            ConfigError, match="unknown configuration key: endpoint.temprature"
        ):
            config_from_dict({"endpoint": {"temprature": 0.4}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="endpoint: expected a mapping"):
            config_from_dict({"endpoint": [1, 2]})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="endpoint.max_rounds: expected an integer"):
            config_from_dict({"endpoint": {"max_rounds": True}})

    def test_string_is_not_a_float(self):
        with pytest.raises(ConfigError, match="endpoint.temperature: expected float"):
            config_from_dict({"endpoint": {"temperature": "hot"}})

    def test_int_is_not_a_string(self):
        with pytest.raises(ConfigError, match="endpoint.model: expected str"):
            config_from_dict({"endpoint": {"model": 5}})

    def test_kinds_must_be_known(self):
        with pytest.raises(ConfigError, match="mutation.kinds: 'spooky' is not one of"):
            config_from_dict({"mutation": {"kinds": ["comparative", "spooky"]}})

    def test_kinds_must_be_non_empty_list(self):
        with pytest.raises(ConfigError, match="mutation.kinds: expected a non-empty list"):
            config_from_dict({"mutation": {"kinds": []}})

    def test_rules_entry_shape(self):
        with pytest.raises(ConfigError, match=r"verifier.rules\[0\]"):
            config_from_dict({"verifier": {"rules": [{"pattern": "x"}]}})

    def test_rules_unknown_category(self):
        with pytest.raises(ConfigError, match=r"verifier.rules\[1\].category"):
            config_from_dict(
                {
                    "verifier": {
                        "rules": [
                            {"pattern": "a", "category": "syntax-error"},
                            {"pattern": "b", "category": "bogus"},
                        ]
                    }
                }
            )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("endpoint", "max_rounds", None),
            ("endpoint", "temperature", None),
            ("mutation", "variant_cap", None),
            ("budgets", "pipeline_seconds", None),
            ("weights", "comparative", None),
            ("strategy", "seed", None),
            ("report", "deterministic_clock", None),
            ("paths", "corpus_dir", {"a": 1}),
            ("endpoint", "script", [1, 2]),
            ("paths", "output_dir", ["x"]),
            ("verifier", "rules", [{"pattern": "(", "category": "syntax-error"}]),
            ("verifier", "rules", [{"pattern": 5, "category": "syntax-error"}]),
        ],
    )
    def test_wrong_type_names_dotted_path(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}\b"):
            config_from_dict({section: {key: value}})

    def test_null_allowed_where_default_is_null(self):
        config = config_from_dict(
            {"endpoint": {"script": None}, "verifier": {"mock_truth": None}}
        )
        assert config == PipelineConfig()

    def test_mock_truth_must_be_string_list(self):
        with pytest.raises(ConfigError, match="mock_truth: expected a list"):
            config_from_dict({"verifier": {"adapter": "mock", "mock_truth": [1]}})


class TestValidation:
    def test_temperature_bounds_checked(self):
        with pytest.raises(ConfigError, match="endpoint: temperature"):
            config_from_dict({"endpoint": {"temperature": 3.0}})

    def test_mode_values(self):
        with pytest.raises(ConfigError, match="endpoint.mode: must be live or scripted"):
            config_from_dict({"endpoint": {"mode": "replay"}})

    def test_scripted_mode_loads_without_script(self):
        # The script path is only demanded when the chat client is built,
        # so configs meant for offline subcommands still load.
        config = config_from_dict({"endpoint": {"mode": "scripted"}})
        assert config.endpoint.script is None

    def test_shot_selection_values(self):
        with pytest.raises(
            ConfigError, match="shot_selection: must be corpus-order or random"
        ):
            config_from_dict({"endpoint": {"shot_selection": "shuffled"}})

    def test_adapter_values(self):
        with pytest.raises(ConfigError, match="verifier.adapter: must be exec"):
            config_from_dict({"verifier": {"adapter": "smt"}})

    def test_adapter_fields_checked_at_build_time(self):
        # Adapter-specific required fields are enforced when the verifier
        # is constructed, not at load time (see build_verifier tests).
        config = config_from_dict({"verifier": {"adapter": "exec"}})
        assert config.verifier.command is None
        config = config_from_dict({"verifier": {"adapter": "mock"}})
        assert config.verifier.mock_truth is None

    def test_failures_per_call_values(self):
        with pytest.raises(ConfigError, match="failures_per_call: must be one or all"):
            config_from_dict(
                {
                    "verifier": {
                        "adapter": "mock",
                        "mock_truth": [],
                        "failures_per_call": "some",
                    }
                }
            )

    def test_variant_cap_positive(self):
        with pytest.raises(ConfigError, match="variant_cap: must be at least 1"):
            config_from_dict({"mutation": {"variant_cap": 0}})

    def test_strategy_names(self):
        with pytest.raises(ConfigError, match="strategy.name: must be heuristic or random"):
            config_from_dict({"strategy": {"name": "greedy"}})

    def test_pipeline_seconds_positive(self):
        with pytest.raises(ConfigError, match="pipeline_seconds: must be positive"):
            config_from_dict({"budgets": {"pipeline_seconds": 0}})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("request_timeout", 0, "request_timeout must be positive"),
            ("retry_backoff", -1, "retry_backoff cannot be negative"),
            ("retries", -1, "retries cannot be negative"),
        ],
    )
    def test_endpoint_timings_checked(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^endpoint: {message}$"):
            config_from_dict({"endpoint": {key: value}})

    def test_endpoint_timing_edges_load(self):
        endpoint = config_from_dict(
            {"endpoint": {"request_timeout": 0.5, "retries": 0, "retry_backoff": 0}}
        ).endpoint
        assert (endpoint.request_timeout, endpoint.retries, endpoint.retry_backoff) == (0.5, 0, 0.0)

    @pytest.mark.parametrize("value", [0, -5])
    def test_exec_timeout_positive(self, value):
        with pytest.raises(ConfigError, match="^verifier.timeout_seconds: must be positive$"):
            config_from_dict({"verifier": {"timeout_seconds": value}})


class TestEffectiveFailuresPerCall:
    def test_exec_defaults_to_one(self):
        assert VerifierSettings(adapter="exec").effective_failures_per_call() == "one"

    def test_trace_defaults_to_all(self):
        assert VerifierSettings(adapter="trace").effective_failures_per_call() == "all"

    def test_mock_defaults_to_all(self):
        assert VerifierSettings(adapter="mock").effective_failures_per_call() == "all"

    def test_explicit_value_wins(self):
        settings = VerifierSettings(adapter="exec", failures_per_call="all")
        assert settings.effective_failures_per_call() == "all"


class TestEndpointBlock:
    def test_loaded_block_is_the_chat_config(self):
        endpoint = config_from_dict(
            {"endpoint": {"model": "m", "max_rounds": 3, "mode": "scripted"}}
        ).endpoint
        assert isinstance(endpoint, EndpointConfig)
        assert (endpoint.model, endpoint.max_rounds, endpoint.mode) == ("m", 3, "scripted")


class TestGuidanceFile:
    def test_loads_categories(self, tmp_path):
        path = write_yaml(
            tmp_path,
            {
                "unprovable-postcondition": "weaken the claim",
                "type-error": "check operand types",
            },
            name="guidance.yaml",
        )
        guidance = load_guidance_file(path)
        assert guidance == {
            FailureCategory.UNPROVABLE_POSTCONDITION: "weaken the claim",
            FailureCategory.TYPE_ERROR: "check operand types",
        }

    def test_unknown_category(self, tmp_path):
        path = write_yaml(tmp_path, {"weird": "advice"}, name="guidance.yaml")
        with pytest.raises(ConfigError, match="'weird' is not one of"):
            load_guidance_file(path)

    def test_non_string_guidance(self, tmp_path):
        path = write_yaml(
            tmp_path, {"syntax-error": ["not", "a", "string"]}, name="guidance.yaml"
        )
        with pytest.raises(ConfigError, match="must be a string"):
            load_guidance_file(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "guidance.yaml"
        path.write_text("- just\n- a\n- list\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_guidance_file(path)


# ---------------------------------------------------------------------------
# libyaml against the pure-Python parser: the same file gives the same values.

README = Path(__file__).resolve().parent.parent / "README.md"

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML has no libyaml")
PARSERS = [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml", marks=needs_libyaml),
    pytest.param(yaml.SafeLoader, id="pure-python"),
]


def _mock_config_text():
    """A mock workload's config: JSON (valid YAML) holding thousands of
    mock_truth lines, as the benchmark writes it."""
    kinds = ("requires", "ensures", "maintaining")
    truth = [
        f"//@ {kinds[i % 3]} v{i}a + 1 >= v{i}b || v{i}c <= v{i}d - {i % 7}"
        f" <==> (\\forall int k; 0 <= k && k < n; a[k] != {i});"
        for i in range(3000)
    ]
    data = {
        "endpoint": {"max_rounds": 3, "mode": "scripted", "shot_count": 4},
        "mutation": {"variant_cap": 4096},
        "verifier": {"adapter": "mock", "mock_truth": truth},
    }
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _readme_examples_yaml():
    text = README.read_text(encoding="utf-8")
    block = text.split("where `examples.yaml` is:", 1)[1].split("```yaml\n", 1)[1]
    return block.split("```", 1)[0]


CONFIG_TEXTS = {
    "mock workload": _mock_config_text(),
    "trace workload": (
        '{\n "endpoint": {\n  "max_rounds": 10,\n  "mode": "scripted",\n  "shot_count": 4\n },\n'
        ' "mutation": {\n  "variant_cap": 4096\n },\n'
        ' "verifier": {\n  "adapter": "trace",\n  "trace_file": "trace.jsonl"\n }\n}\n'
    ),
    "exec workload": (
        "# The exec adapter, with every kind of scalar a config holds.\n"
        "endpoint:\n"
        "  base_url: http://localhost:8000/v1\n"
        "  model: coder-7b\n"
        "  temperature: .5\n"
        "  max_rounds: 0x0a\n"
        "  api_key_env: MY_KEY\n"
        "  shot_selection: random\n"
        "  shot_seed: 1_000\n"
        "verifier:\n"
        "  adapter: exec\n"
        "  command: \"openjml --esc '{file}' -timeout 30\"\n"
        "  timeout_seconds: 1.5e+3\n"
        "  failures_per_call: one\n"
        "  rules: &rules\n"
        "    - {pattern: 'cannot establish', category: unprovable-postcondition}\n"
        "    - pattern: >-\n"
        "        parse\n"
        "        error\n"
        "      category: syntax-error\n"
        "weights: {comparative: -2, logical: -3, arithmetic: -4}\n"
        "mutation:\n"
        "  kinds: [comparative, logical]\n"
        "  variant_cap: 99\n"
        "strategy: {name: random, seed: 11}\n"
        "budgets:\n"
        "  pipeline_seconds: 30\n"
        "paths:\n"
        "  output_dir: \"runs/ä\\u00e9\"\n"
        "  corpus_dir: ~\n"
        "report:\n"
        "  deterministic_clock: yes\n"
    ),
    "README examples.yaml": _readme_examples_yaml(),
}

GUIDANCE_TEXT = (
    "unprovable-postcondition: |\n"
    "  Weaken the claim.\n"
    "  Keep what the trace shows.\n"
    "'type-error': >\n"
    "  check operand\n"
    "  types\n"
    "syntax-error: \"one line, with a \\\"quote\\\"\"\n"
)

MALFORMED_YAML = {
    "unclosed flow sequence": "endpoint: [unclosed",
    "mapping in a plain scalar": "endpoint: a: b\n",
    "tab indentation": "endpoint:\n\tmode: live\n",
    "unterminated quote": "endpoint:\n  model: 'coder\n",
    "sequence then mapping": "- a\nb: c\n",
    "two documents": "endpoint: {}\n---\nverifier: {}\n",
    "undefined alias": "endpoint: *nothing\n",
    "python tag": "endpoint: !!python/object:os.system {}\n",
}


class TestParsersAgree:
    def _load(self, monkeypatch, parser, load, path):
        monkeypatch.setattr(config_module, "_SAFE_LOADER", parser)
        return typed(config_module._read_yaml(path)), load(path)

    def test_libyaml_is_used_when_present(self):
        assert config_module._SAFE_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @needs_libyaml
    @pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
    def test_configs_load_alike(self, tmp_path, monkeypatch, name):
        path = tmp_path / "config.yaml"
        path.write_text(CONFIG_TEXTS[name], encoding="utf-8")
        data, config = self._load(monkeypatch, yaml.CSafeLoader, load_config, str(path))
        assert self._load(monkeypatch, yaml.SafeLoader, load_config, str(path)) == (data, config)
        assert config != PipelineConfig()

    def test_the_mock_config_keeps_every_line(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(CONFIG_TEXTS["mock workload"], encoding="utf-8")
        assert len(load_config(str(path)).verifier.mock_truth) == 3000

    @needs_libyaml
    def test_guidance_files_load_alike(self, tmp_path, monkeypatch):
        path = tmp_path / "guidance.yaml"
        path.write_text(GUIDANCE_TEXT, encoding="utf-8")
        loaded = self._load(monkeypatch, yaml.CSafeLoader, load_guidance_file, str(path))
        assert self._load(monkeypatch, yaml.SafeLoader, load_guidance_file, str(path)) == loaded
        assert loaded[1][FailureCategory.TYPE_ERROR] == "check operand types\n"

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("name", sorted(MALFORMED_YAML))
    def test_malformed_yaml_is_not_valid_yaml(self, tmp_path, monkeypatch, parser, name):
        monkeypatch.setattr(config_module, "_SAFE_LOADER", parser)
        path = tmp_path / "bad.yaml"
        path.write_text(MALFORMED_YAML[name], encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: not valid YAML: "):
            load_config(str(path))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: not valid YAML: "):
            load_guidance_file(str(path))

    @pytest.mark.parametrize("parser", PARSERS)
    def test_non_utf8_file_is_not_valid_yaml(self, tmp_path, monkeypatch, parser):
        monkeypatch.setattr(config_module, "_SAFE_LOADER", parser)
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"endpoint:\n  model: \xff\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(path))
