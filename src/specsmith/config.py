"""Pipeline configuration: records with a defaults table each, plus strict
YAML loading.

The file is a nested key-value document; unknown keys are rejected with the
offending dotted path named. The only environment interaction is the API
key, read at request time from the variable named by ``endpoint.api_key_env``.
"""
from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from .conversation import EndpointConfig
from .errors import ConfigError
from .expr import FrozenRecord
from .mutation import ALL_KINDS, MutationKind, WeightTable
from .verifier import DEFAULT_RULES, FailureCategory, Rule, make_rules


class EndpointSettings(EndpointConfig):
    """Endpoint block: the chat parameters plus how the client is built."""

    __slots__ = ("mode", "script", "shot_selection", "shot_seed")
    _defaults = {
        **EndpointConfig._defaults,
        "mode": "live",  # "live" | "scripted"
        "script": None,  # scripted mode: path to the response fixture
        "shot_selection": "corpus-order",  # "corpus-order" | "random"
        "shot_seed": 0,  # only consulted when shot_selection is random
    }


class VerifierSettings(FrozenRecord):
    _defaults = {
        "adapter": "trace",  # "exec" | "trace" | "mock"
        "command": None,
        "timeout_seconds": 1800.0,
        # None picks the adapter default: one for exec, all for trace and mock.
        "failures_per_call": None,
        "rules": DEFAULT_RULES,
        "trace_file": None,
        "mock_truth": None,  # a tuple of clause texts
    }
    __slots__ = tuple(_defaults)

    def effective_failures_per_call(self) -> str:
        if self.failures_per_call is not None:
            return self.failures_per_call
        return "one" if self.adapter == "exec" else "all"


class MutationSettings(FrozenRecord):
    _defaults = {"kinds": ALL_KINDS, "variant_cap": 4096}
    __slots__ = tuple(_defaults)


class StrategySettings(FrozenRecord):
    _defaults = {"name": "heuristic", "seed": 0}  # name: "heuristic" | "random"
    __slots__ = tuple(_defaults)


class BudgetSettings(FrozenRecord):
    _defaults = {"pipeline_seconds": 1800.0}
    __slots__ = tuple(_defaults)


class PathSettings(FrozenRecord):
    # A corpus_dir of None names the packaged example corpus.
    _defaults = {"corpus_dir": None, "guidance_file": None, "output_dir": "runs"}
    __slots__ = tuple(_defaults)


class ReportSettings(FrozenRecord):
    # Zero out wall-clock fields so two identical runs serialize identically.
    _defaults = {"deterministic_clock": False}
    __slots__ = tuple(_defaults)


class PipelineConfig(FrozenRecord):
    """Every section of the file; a section the file leaves out is its class's defaults."""

    _defaults = {
        "endpoint": EndpointSettings(),
        "verifier": VerifierSettings(),
        "weights": WeightTable(),
        "mutation": MutationSettings(),
        "strategy": StrategySettings(),
        "budgets": BudgetSettings(),
        "paths": PathSettings(),
        "report": ReportSettings(),
    }
    __slots__ = tuple(_defaults)


def _parse_kinds(raw: Any) -> frozenset[MutationKind]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("mutation.kinds: expected a non-empty list of kind names")
    kinds = set()
    for item in raw:
        try:
            kinds.add(MutationKind(item))
        except ValueError:
            names = ", ".join(k.value for k in MutationKind)
            raise ConfigError(f"mutation.kinds: {item!r} is not one of {names}") from None
    return frozenset(kinds)


def _parse_rules(raw: Any) -> tuple[Rule, ...]:
    if not isinstance(raw, list):
        raise ConfigError("verifier.rules: expected a list of {pattern, category} entries")
    entries = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"pattern", "category"}:
            raise ConfigError(
                f"verifier.rules[{i}]: each entry needs exactly pattern and category"
            )
        try:
            category = FailureCategory(item["category"])
        except ValueError:
            names = ", ".join(c.value for c in FailureCategory)
            raise ConfigError(
                f"verifier.rules[{i}].category: {item['category']!r} is not one of {names}"
            ) from None
        try:
            re.compile(item["pattern"])
        except (TypeError, re.error) as exc:
            raise ConfigError(f"verifier.rules[{i}].pattern: {exc}") from None
        entries.append((item["pattern"], category))
    return make_rules(entries)


def _parse_truth(raw: Any) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        raise ConfigError("verifier.mock_truth: expected a list of clause strings")
    return tuple(raw)


# Fields whose YAML form differs from their value: dotted path -> parser.
_PARSERS = {
    "mutation.kinds": _parse_kinds,
    "verifier.rules": _parse_rules,
    "verifier.mock_truth": _parse_truth,
}


def _load_value(default: Any, value: Any, path: str) -> Any:
    """One field: null only where the default is null, else the default's type."""
    if value is None and default is None:
        return None
    if path in _PARSERS:
        return _PARSERS[path](value)
    target = str if default is None else type(default)
    if target is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if target is int and isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got a boolean")
    if not isinstance(value, target):
        got = "null" if value is None else type(value).__name__
        raise ConfigError(f"{path}: expected {target.__name__}, got {got}")
    return value


def _load_section(default: FrozenRecord, data: Any, path: str) -> FrozenRecord:
    """The section at ``path`` of the file: ``default``, with the fields ``data`` gives."""
    if data is None:
        return default
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    cls = type(default)
    defaults = cls._defaults  # every section field has a default
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown configuration key: {path}.{sorted(map(str, unknown))[0]}")
    values = {name: _load_value(defaults[name], value, f"{path}.{name}") for name, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:  # a range check in the section's own constructor
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict[str, Any]) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    sections = PipelineConfig._defaults
    unknown = set(data) - set(sections)
    if unknown:
        raise ConfigError(f"unknown configuration key: {sorted(map(str, unknown))[0]}")
    config = PipelineConfig(*(_load_section(default, data.get(name), name) for name, default in sections.items()))
    _validate(config)
    return config


def _is_endpoint_url(url: str) -> bool:
    """An http or https URL with a host and a valid port, if any, and no user name or password."""
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname) and "@" not in parts.netloc


def _validate(config: PipelineConfig) -> None:
    # The URL is not echoed: it may carry credentials.
    if not _is_endpoint_url(config.endpoint.base_url):
        raise ConfigError(
            "endpoint.base_url: must be an http:// or https:// URL with a host and no user name or password"
        )
    if config.endpoint.mode not in ("live", "scripted"):
        raise ConfigError("endpoint.mode: must be live or scripted")
    if config.endpoint.shot_selection not in ("corpus-order", "random"):
        raise ConfigError("endpoint.shot_selection: must be corpus-order or random")
    if config.verifier.adapter not in ("exec", "trace", "mock"):
        raise ConfigError("verifier.adapter: must be exec, trace, or mock")
    if config.verifier.failures_per_call not in (None, "one", "all"):
        raise ConfigError("verifier.failures_per_call: must be one or all")
    if not math.isfinite(config.verifier.timeout_seconds):
        raise ConfigError("verifier.timeout_seconds: must be finite")
    if config.verifier.timeout_seconds <= 0:
        raise ConfigError("verifier.timeout_seconds: must be positive")
    if config.mutation.variant_cap < 1:
        raise ConfigError("mutation.variant_cap: must be at least 1")
    if config.strategy.name not in ("heuristic", "random"):
        raise ConfigError("strategy.name: must be heuristic or random")
    if not math.isfinite(config.budgets.pipeline_seconds):
        raise ConfigError("budgets.pipeline_seconds: must be finite")
    if config.budgets.pipeline_seconds <= 0:
        raise ConfigError("budgets.pipeline_seconds: must be positive")


def _read_yaml(path: str) -> Any:
    # Imported here, so a command that reads no file does not pay for it.
    import yaml

    # libyaml's parser when PyYAML was built with it, the pure-Python one
    # otherwise. Both build values through SafeConstructor and Resolver, so
    # a file gives the same values either way; only the wording of a parse
    # error differs.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(Path(path).read_text(encoding="utf-8"), Loader=loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc


def load_config(path: str | None) -> PipelineConfig:
    """Load the YAML config file; None yields the defaults."""
    data = None if path is None else _read_yaml(path)
    if data is None:
        return PipelineConfig()
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: configuration root must be a mapping")
    return config_from_dict(data)


def load_guidance_file(path: str) -> dict[FailureCategory, str]:
    """Category -> guidance text mapping from a YAML file."""
    data = _read_yaml(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping of category to guidance text")
    guidance: dict[FailureCategory, str] = {}
    for key, value in data.items():
        try:
            category = FailureCategory(key)
        except ValueError:
            names = ", ".join(c.value for c in FailureCategory)
            raise ConfigError(f"{path}: {key!r} is not one of {names}") from None
        if not isinstance(value, str):
            raise ConfigError(f"{path}: guidance for {key} must be a string")
        guidance[category] = value
    return guidance
