"""specsmith benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload wide-families --seed 1 --seconds 25 --trace 0

Run from the repository root. The command generates the workload's inputs
from the seed under ``.perfbench_work/``, runs specsmith from ``src/`` in a
fresh worker process for ``--seconds`` seconds (with ``--trace 1``: half of
it traced, then the same entries untraced), checks every entry against
the generator's known answer, prints one row of metrics with units and
sample counts, and ends with one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The end-to-end times are wall times scaled to nominal machine speed by a
reference computation timed around each measured step (``reference.py``);
the row also shows them as measured, before scaling.
When any entry disagrees with its known answer the JSON line says
``"correct": false`` and the command exits 1; when it cannot run at all it
exits 2 without a JSON line.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole command, children included

# name -> unit; the order of the printed row.
END_TO_END = {
    "entries_per_s": "entries/s",
    "entry_p50_ms": "ms",
    "entry_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mean_verifier_calls": "calls/entry",
}


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def check_entry(entry: dict, name: str, attempt: int, expected: dict) -> list[str]:
    """Differences between one report entry and the generator's answer."""
    problems = []
    if (entry.get("program"), entry.get("attempt")) != (name, attempt):
        problems.append(f"entry is {entry.get('program')}/{entry.get('attempt')}, expected {name}/{attempt}")
    if entry.get("error"):
        problems.append(f"error: {entry['error']}")
    for key, want in expected.items():
        if entry.get(key) != want:
            problems.append(f"{key}: got {entry.get(key)!r}, expected {want!r}")
    return problems


def check_report(directory: Path, manifest: list[dict], count: int) -> tuple[list[dict], dict, list[str]]:
    """Read the written report and return (entries, summary, failures)."""
    lines = (directory / "report" / "entries.jsonl").read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    summary = json.loads((directory / "report" / "summary.json").read_text(encoding="utf-8"))
    failures = []
    if len(entries) != count:
        failures.append(f"report holds {len(entries)} entries, the worker ran {count}")
    for index, entry in enumerate(entries):
        attempt, slot = divmod(index, len(manifest))
        item = manifest[slot]
        problems = check_entry(entry, item["name"], attempt, item["expected"])
        if problems:
            failures.append(f"{item['name']}/{attempt}: " + "; ".join(problems))
    calls = [e["verifier_calls_conversation"] + e["verifier_calls_repair"] for e in entries]
    if entries and abs(summary["mean_verifier_calls"] - statistics.mean(calls)) > 1e-9:
        failures.append("summary.json mean_verifier_calls disagrees with its entries")
    return entries, summary, failures


def run_child(args: list[str], cwd: Path, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *args],
            cwd=cwd, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return proc.stdout


def run_worker(directory: Path, budget: list[str], deadline: float, trace: bool = False) -> dict:
    run_child(budget + (["--trace"] if trace else []), directory, deadline)
    return json.loads((directory / "worker.json").read_text(encoding="utf-8"))


def normalized_entry_seconds(worker: dict) -> list[float]:
    """Each entry's wall time at nominal machine speed, scaled by the
    reference samples taken just before and just after it."""
    refs = worker["entry_reference_s"]
    return [
        seconds * reference.scale(before, after)
        for seconds, before, after in zip(worker["entry_seconds"], refs, refs[1:])
    ]


def percentile_ms(seconds: list[float], tenth: int) -> float:
    if len(seconds) < 2:
        return seconds[0] * 1e3
    return statistics.quantiles([s * 1e3 for s in seconds], n=10, method="inclusive")[tenth - 1]


def end_to_end(directory: Path, manifest: list[dict], seconds: float, deadline: float):
    worker = run_worker(directory, ["--seconds", str(seconds)], deadline)
    count = len(worker["entry_seconds"])
    _, summary, failures = check_report(directory, manifest, count)
    setups = [
        json.loads(run_child(["--setup-only"], directory, deadline))
        for _ in range(SETUP_SAMPLES)
    ]
    entry_s = normalized_entry_seconds(worker)
    report_s = worker["report_write_s"] * reference.scale(*worker["report_reference_s"])
    values = {
        "entries_per_s": count / (sum(entry_s) + report_s),
        "entry_p50_ms": percentile_ms(entry_s, 5),
        "entry_p90_ms": percentile_ms(entry_s, 9),
        "setup_s": statistics.median(s["setup_s"] * reference.scale(*s["reference_s"]) for s in setups),
        "peak_rss_mb": worker["peak_rss_mb"],
        "mean_verifier_calls": summary["mean_verifier_calls"],
    }
    wall = {
        "entries_per_s": count / (worker["loop_s"] + worker["report_write_s"]),
        "entry_p50_ms": percentile_ms(worker["entry_seconds"], 5),
        "entry_p90_ms": percentile_ms(worker["entry_seconds"], 9),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "reference_ms": statistics.median(worker["entry_reference_s"]) * 1e3,
    }
    samples = {
        "entries_per_s": count, "entry_p50_ms": count, "entry_p90_ms": count,
        "setup_s": len(setups), "peak_rss_mb": 1, "mean_verifier_calls": count,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, samples, wall, count, failures


def traced(directory: Path, manifest: list[dict], seconds: float, deadline: float):
    """A traced run for half the time, then an untraced run of the same
    entries, whose summed entry time at nominal speed is the base of the
    tracing overhead."""
    worker = run_worker(directory, ["--seconds", str(seconds / 2)], deadline, trace=True)
    count = len(worker["entry_seconds"])
    entries, _, failures = check_report(directory, manifest, count)
    spans = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
    plain = run_worker(directory, ["--entries", str(count)], deadline)
    failures += check_report(directory, manifest, count)[2]
    run = {
        "entries": count,
        "entry_seconds": sum(worker["entry_seconds"]),
        "make_context_s": worker["make_context_s"],
        "report_write_s": worker["report_write_s"],
        "report_bytes": worker["report_bytes"],
        "overhead_ratio": sum(normalized_entry_seconds(worker)) / sum(normalized_entry_seconds(plain)),
    }
    metrics = tracing.layer_metrics(spans, worker["counts"], worker["missing"], run)
    failures += tracing.call_count_mismatches(metrics, entries)
    return metrics, tracing.layer_shares(spans), count, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "specsmith" / "__init__.py").is_file():
        print(f"perfbench: no specsmith package under {SRC}", file=sys.stderr)
        return 2
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        gen.write_inputs(gen.build_workload(args.workload, args.seed), directory)
        manifest = json.loads((directory / "programs.json").read_text(encoding="utf-8"))
        if args.trace:
            metrics, shares, count, failures = traced(directory, manifest, args.seconds, deadline)
        else:
            metrics, samples, wall, count, failures = end_to_end(directory, manifest, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = len(failures)
    env = f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}"
    error_rate = f"error_rate {failed / count:.4g} ratio (n={count})"
    if args.trace:
        print(f"{args.workload} seed {args.seed} ({env}): {count} traced entries, {error_rate}")
        for name, metric in metrics.items():
            shown = metric.get("missing") or f"{metric['value']:.6g}"
            print(f"  {name:30} {shown} {metric['unit']}")
        print("  layer shares of traced entry time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        row = [f"{name} {m['value']:.6g} {m['unit']} (n={samples[name]})" for name, m in metrics.items()]
        print(f"{args.workload} seed {args.seed} ({env}): " + " | ".join(row + [error_rate]))
        print("  as measured, before scaling to nominal speed: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for failure in failures[:20]:
        print(f"  MISMATCH {failure}", file=sys.stderr)
    if not failures:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps({"correct": not failures, "attempted": count, "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
