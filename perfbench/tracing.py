"""Spans around specsmith's public functions, recorded from outside.

The tracer replaces module attributes (``specsmith.repair.re_select`` and so
on) with timing wrappers at the module where callers look them up, and
proxies the chat client and verifier objects. Spans stay in memory and are
written once when the run ends; per-layer self times are derived from them
afterwards by :func:`self_times` and :func:`layer_metrics`.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute, span name): the public functions timed by the traced run.
WRAPPED = (
    ("specsmith.pipeline", "run_conversation", "conversation.run"),
    ("specsmith.pipeline", "mutation_based_gen", "repair.mutation_based_gen"),
    ("specsmith.repair", "enumerate_variants", "mutation.enumerate"),
    ("specsmith.repair", "re_select", "repair.re_select"),
    ("specsmith.repair", "spec_selection", "repair.spec_selection"),
    ("specsmith.conversation", "extract_specs", "conversation.extract"),
    ("specsmith.clauses", "parse_clause", "parser.parse_clause"),
    ("specsmith.verifier", "eval_expr", "evaluate.eval_expr"),
)
ENTRY = "pipeline.entry"
CHAT = "chat.complete"
VERIFY = "verifier.verify"


class Tracer:
    """Collects spans as ``[name, start, end, parent, entry]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}  # span or counter name -> reason
        self.entry: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.entry]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def wrap(self, module_name: str, attr: str, name: str, observe: Callable | None = None) -> None:
        """Time every call through ``module.attr``; a missing name is recorded."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing[name] = f"{module_name}.{attr} not found"
            return

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, original, *args, **kwargs)
            if observe is not None:
                self._observe(name, observe, args, result)
            return result

        setattr(module, attr, traced)

    def _observe(self, name: str, observe: Callable, args: tuple, result: Any) -> None:
        try:
            observe(self.counts, args, result)
        except (AttributeError, TypeError, KeyError) as exc:
            self.missing.setdefault(f"{name}.counts", f"cannot read counts: {exc!r}")

    def install(self) -> None:
        observers = {
            "mutation.enumerate": _observe_family,
            "repair.re_select": _observe_reselect,
        }
        for module_name, attr, name in WRAPPED:
            self.wrap(module_name, attr, name, observers.get(name))


def _observe_family(counts: Counter, args: tuple, family: Any) -> None:
    counts["variants_built"] += len(family.variants)
    counts["raw_combinations"] += family.raw_count
    counts["truncated_families"] += bool(family.truncated)


def _observe_reselect(counts: Counter, args: tuple, result: Any) -> None:
    state, refuted_ids = args[0], args[1]
    counts["replacements_selected"] += sum(
        state.slots[cid].selected is not None for cid in refuted_ids
    )


class ChatProxy:
    def __init__(self, client: Any, tracer: Tracer):
        self._client = client
        self._tracer = tracer

    def complete(self, messages, cfg):
        return self._tracer.call(CHAT, self._client.complete, messages, cfg)


class VerifierProxy:
    """Times ``verify`` and counts passes; other attributes pass through."""

    def __init__(self, verifier: Any, tracer: Tracer):
        self._verifier = verifier
        self._tracer = tracer

    def verify(self, program):
        verdict = self._tracer.call(VERIFY, self._verifier.verify, program)
        self._tracer.counts["passes"] += verdict.outcome.value == "pass"
        return verdict

    def __getattr__(self, name: str) -> Any:
        return getattr(self._verifier, name)


# --- Deriving layer metrics from spans --------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _under(spans: list[list], index: int, names: set[str]) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


# name -> unit, in report order. Times and counts are per traced entry.
PER_LAYER = {
    "mutation.families": "count/entry",
    "mutation.variants_built": "count/entry",
    "mutation.raw_combinations": "count/entry",
    "mutation.truncated_families": "count/entry",
    "mutation.enumerate_s": "s/entry",
    "mutation.us_per_variant": "us",
    "mutation.variants_used_ratio": "ratio",
    "repair.iterations": "count/entry",
    "repair.reselect_s": "s/entry",
    "repair.self_s": "s/entry",
    "repair.us_per_iteration": "us",
    "verifier.calls": "count/entry",
    "verifier.verify_s": "s/entry",
    "verifier.self_s": "s/entry",
    "verifier.pass_ratio": "ratio",
    "evaluate.evals": "count/entry",
    "evaluate.eval_s": "s/entry",
    "evaluate.us_per_eval": "us",
    "conversation.rounds": "count/entry",
    "conversation.chat_s": "s/entry",
    "conversation.extract_calls": "count/entry",
    "conversation.extract_s": "s/entry",
    "conversation.self_s": "s/entry",
    "parser.clauses_parsed": "count/entry",
    "parser.parse_s": "s/entry",
    "pipeline.make_context_s": "s",
    "pipeline.entry_self_s": "s/entry",
    "pipeline.report_write_s": "s",
    "pipeline.report_bytes": "bytes/entry",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# Which spans or counters each metric reads; any of them missing marks it
# missing. Metrics not listed read only what the worker measures itself.
_ENUM = ["mutation.enumerate"]
_FAMILY = _ENUM + ["mutation.enumerate.counts"]
_REPAIR = ["repair.mutation_based_gen", "repair.spec_selection"]
_NEEDS = {
    "mutation.families": _ENUM,
    "mutation.variants_built": _FAMILY,
    "mutation.raw_combinations": _FAMILY,
    "mutation.truncated_families": _FAMILY,
    "mutation.enumerate_s": _ENUM,
    "mutation.us_per_variant": _FAMILY,
    "mutation.variants_used_ratio": _FAMILY + ["repair.re_select", "repair.re_select.counts"],
    "repair.iterations": _REPAIR,
    "repair.reselect_s": ["repair.re_select"],
    "repair.self_s": _REPAIR,
    "repair.us_per_iteration": _REPAIR + ["repair.re_select"],
    "verifier.self_s": ["evaluate.eval_expr"],
    "evaluate.evals": ["evaluate.eval_expr"],
    "evaluate.eval_s": ["evaluate.eval_expr"],
    "evaluate.us_per_eval": ["evaluate.eval_expr"],
    "conversation.extract_calls": ["conversation.extract"],
    "conversation.extract_s": ["conversation.extract"],
    "conversation.self_s": ["conversation.run", "conversation.extract"],
    "parser.clauses_parsed": ["parser.parse_clause"],
    "parser.parse_s": ["parser.parse_clause"],
    "pipeline.entry_self_s": ["conversation.run", "repair.mutation_based_gen"],
}


def layer_metrics(
    spans: list[list],
    counts: dict[str, int],
    missing: dict[str, str],
    run: dict[str, Any],
) -> dict[str, dict[str, Any]]:
    """Per-layer metrics of one traced run.

    ``run`` holds what the worker measured directly: ``entries``,
    ``entry_seconds`` (sum of loop-timed entry wall times),
    ``make_context_s``, ``report_write_s``, ``report_bytes`` and
    ``overhead_ratio``.
    """
    own = self_times(spans)
    total: Counter = Counter()
    self_sum: Counter = Counter()
    calls: Counter = Counter()
    repair_iterations = 0
    repair_names = {"repair.spec_selection", "repair.mutation_based_gen"}
    for index, (name, start, end, _, entry) in enumerate(spans):
        if entry is None:
            continue
        total[name] += end - start
        self_sum[name] += own[index]
        calls[name] += 1
        if name == VERIFY and _under(spans, index, repair_names):
            repair_iterations += 1

    entries = max(run["entries"], 1)
    built = counts.get("variants_built", 0)
    used = calls["mutation.enumerate"] + counts.get("replacements_selected", 0)
    repair_s = self_sum["repair.mutation_based_gen"] + self_sum["repair.spec_selection"]
    repair_loop_s = repair_s + total["repair.re_select"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "mutation.families": calls["mutation.enumerate"] / entries,
        "mutation.variants_built": built / entries,
        "mutation.raw_combinations": counts.get("raw_combinations", 0) / entries,
        "mutation.truncated_families": counts.get("truncated_families", 0) / entries,
        "mutation.enumerate_s": total["mutation.enumerate"] / entries,
        "mutation.us_per_variant": ratio(total["mutation.enumerate"], built) * 1e6,
        "mutation.variants_used_ratio": ratio(used, built),
        "repair.iterations": repair_iterations / entries,
        "repair.reselect_s": total["repair.re_select"] / entries,
        "repair.self_s": repair_s / entries,
        "repair.us_per_iteration": ratio(repair_loop_s, repair_iterations) * 1e6,
        "verifier.calls": calls[VERIFY] / entries,
        "verifier.verify_s": total[VERIFY] / entries,
        "verifier.self_s": self_sum[VERIFY] / entries,
        "verifier.pass_ratio": ratio(counts.get("passes", 0), calls[VERIFY]),
        "evaluate.evals": calls["evaluate.eval_expr"] / entries,
        "evaluate.eval_s": total["evaluate.eval_expr"] / entries,
        "evaluate.us_per_eval": ratio(total["evaluate.eval_expr"], calls["evaluate.eval_expr"]) * 1e6,
        "conversation.rounds": calls[CHAT] / entries,
        "conversation.chat_s": total[CHAT] / entries,
        "conversation.extract_calls": calls["conversation.extract"] / entries,
        "conversation.extract_s": total["conversation.extract"] / entries,
        "conversation.self_s": self_sum["conversation.run"] / entries,
        "parser.clauses_parsed": calls["parser.parse_clause"] / entries,
        "parser.parse_s": total["parser.parse_clause"] / entries,
        "pipeline.make_context_s": run["make_context_s"],
        "pipeline.entry_self_s": self_sum[ENTRY] / entries,
        "pipeline.report_write_s": run["report_write_s"],
        "pipeline.report_bytes": run["report_bytes"] / entries,
        "trace.overhead_ratio": run["overhead_ratio"],
        "trace.accounted_ratio": ratio(sum(self_sum.values()), run["entry_seconds"]),
    }
    out = {}
    for metric, unit in PER_LAYER.items():
        gone = [missing[n] for n in _NEEDS.get(metric, ()) if n in missing]
        if gone:
            out[metric] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
        else:
            out[metric] = {"value": values[metric], "unit": unit}
    return out


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of traced entry time spent in each layer's own code."""
    own = self_times(spans)
    layer_of = {
        ENTRY: "pipeline",
        "conversation.run": "conversation",
        CHAT: "conversation",
        "conversation.extract": "conversation",
        "parser.parse_clause": "parser",
        VERIFY: "verifier",
        "evaluate.eval_expr": "evaluate",
        "repair.mutation_based_gen": "repair",
        "repair.spec_selection": "repair",
        "repair.re_select": "repair",
        "mutation.enumerate": "mutation",
    }
    shares: Counter = Counter()
    for index, span in enumerate(spans):
        if span[4] is not None:
            shares[layer_of.get(span[0], span[0])] += own[index]
    whole = sum(shares.values()) or 1.0
    return {layer: seconds / whole for layer, seconds in shares.most_common()}


def call_count_mismatches(metrics: dict, entries: list[dict]) -> list[str]:
    """Traced verifier calls must equal the calls the report counts."""
    reported = {
        "verifier.calls": sum(
            e["verifier_calls_conversation"] + e["verifier_calls_repair"] for e in entries
        ),
        "repair.iterations": sum(e["verifier_calls_repair"] for e in entries),
    }
    out = []
    for name, total in reported.items():
        value = metrics[name]["value"]
        if value is not None and round(value * len(entries)) != total:
            out.append(f"{name}: traced {value * len(entries):.0f}, report counts {total}")
    return out
