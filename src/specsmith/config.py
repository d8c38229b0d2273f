"""Pipeline configuration: dataclasses plus strict YAML loading.

The file is a nested key-value document; unknown keys are rejected with the
offending dotted path named. The only environment interaction is the API
key, read at request time from the variable named by ``endpoint.api_key_env``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import yaml

from .conversation import EndpointConfig
from .errors import ConfigError
from .mutation import ALL_KINDS, MutationKind, WeightTable
from .verifier import DEFAULT_RULES, FailureCategory, Rule, make_rules


@dataclass(frozen=True)
class EndpointSettings(EndpointConfig):
    """Endpoint block: the chat parameters plus how the client is built."""

    mode: str = "live"  # "live" | "scripted"
    script: str | None = None  # scripted mode: path to the response fixture
    shot_selection: str = "corpus-order"  # "corpus-order" | "random"
    shot_seed: int = 0  # only consulted when shot_selection is random


@dataclass(frozen=True)
class VerifierSettings:
    adapter: str = "trace"  # "exec" | "trace" | "mock"
    command: str | None = None
    timeout_seconds: float = 1800.0
    # None picks the adapter default: one for exec, all for trace and mock.
    failures_per_call: str | None = None
    rules: tuple[Rule, ...] = DEFAULT_RULES
    trace_file: str | None = None
    mock_truth: tuple[str, ...] | None = None

    def effective_failures_per_call(self) -> str:
        if self.failures_per_call is not None:
            return self.failures_per_call
        return "one" if self.adapter == "exec" else "all"


@dataclass(frozen=True)
class MutationSettings:
    kinds: frozenset[MutationKind] = ALL_KINDS
    variant_cap: int = 4096


@dataclass(frozen=True)
class StrategySettings:
    name: str = "heuristic"  # "heuristic" | "random"
    seed: int = 0


@dataclass(frozen=True)
class BudgetSettings:
    pipeline_seconds: float = 1800.0


@dataclass(frozen=True)
class PathSettings:
    corpus_dir: str | None = None  # None: the packaged example corpus
    guidance_file: str | None = None
    output_dir: str = "runs"


@dataclass(frozen=True)
class ReportSettings:
    # Zero out wall-clock fields so two identical runs serialize identically.
    deterministic_clock: bool = False


@dataclass(frozen=True)
class PipelineConfig:
    endpoint: EndpointSettings = field(default_factory=EndpointSettings)
    verifier: VerifierSettings = field(default_factory=VerifierSettings)
    weights: WeightTable = field(default_factory=WeightTable)
    mutation: MutationSettings = field(default_factory=MutationSettings)
    strategy: StrategySettings = field(default_factory=StrategySettings)
    budgets: BudgetSettings = field(default_factory=BudgetSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    report: ReportSettings = field(default_factory=ReportSettings)


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


def _load_section(cls, data: Any, path: str):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    defaults = cls()
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown configuration key: {path}.{sorted(map(str, unknown))[0]}")
    values = {
        name: _load_value(getattr(defaults, name), value, f"{path}.{name}")
        for name, value in data.items()
    }
    try:
        return replace(defaults, **values)
    except ValueError as exc:  # a range check in the section's own constructor
        raise ConfigError(f"{path}: {exc}") from exc


_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)}


def config_from_dict(data: dict[str, Any]) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown configuration key: {sorted(map(str, unknown))[0]}")
    config = PipelineConfig(
        **{name: _load_section(cls, data.get(name), name) for name, cls in _SECTIONS.items()}
    )
    _validate(config)
    return config


def _validate(config: PipelineConfig) -> None:
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


# libyaml's parser when PyYAML was built with it, the pure-Python one
# otherwise. Both build values through SafeConstructor and Resolver, so a
# file gives the same values either way; only the wording of a parse error
# differs.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(path: str) -> Any:
    try:
        return yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_SAFE_LOADER)
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
