"""One workload process: specsmith set-up, the closed loop, the report.

Run from a directory laid out by ``gen.write_inputs``::

    python3 worker.py --src SRC --setup-only
    python3 worker.py --src SRC --seconds 25 [--trace]
    python3 worker.py --src SRC --entries 180 [--trace]

``--setup-only`` prints the set-up time as JSON. Otherwise the process makes
one pipeline context, calls ``run_pipeline`` once per (program, attempt)
with one entry in flight, cycling through the pool with rising attempt
numbers until the time or entry budget is spent, writes the report once,
and leaves its measurements in ``worker.json`` (and ``spans.json`` when
traced). Peak memory is read after the first pass over the pool, when every
program has run once, so it does not grow with the number of entries a
faster build fits into the same time.

The reference computation (``reference.py``) is timed three times before
and three times after the set-up, after every entry (and once before the
first) and after the report write, so every timed step lies between
reference samples.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import reference


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the specsmith package")
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--setup-only", action="store_true")
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--entries", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    reference.warm_up()
    setup_reference = [reference.reference_seconds() for _ in range(3)]
    started = time.perf_counter()
    sys.path.insert(0, args.src)
    import specsmith
    from specsmith import pipeline
    from specsmith.config import load_config
    from specsmith.conversation import ScriptedChatClient

    if not Path(specsmith.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"specsmith imported from {specsmith.__file__}, not {args.src}")
    config = load_config("config.yaml")
    context_started = time.perf_counter()
    context = pipeline.make_context(config)
    setup_done = time.perf_counter()
    setup_reference += [reference.reference_seconds() for _ in range(3)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_done - started, "reference_s": setup_reference}))
        return 0

    manifest = json.loads(Path("programs.json").read_text(encoding="utf-8"))
    pool = [
        (
            item["name"],
            Path("programs", item["name"] + ".java").read_text(encoding="utf-8"),
            pipeline.load_script(str(Path("responses", item["name"] + ".json")))[0],
        )
        for item in manifest
    ]

    tracer = None
    if args.trace:
        from tracing import ChatProxy, ENTRY, Tracer, VerifierProxy

        tracer = Tracer()
        tracer.install()
        context.verifier = VerifierProxy(context.verifier, tracer)

    entries, entry_seconds = [], []
    entry_reference = [reference.reference_seconds()]
    peak_rss_mb = None
    loop_started = time.perf_counter()
    while True:
        if args.entries is not None and len(entries) >= args.entries:
            break
        if args.seconds is not None and time.perf_counter() - loop_started >= args.seconds:
            break
        attempt, slot = divmod(len(entries), len(pool))
        name, program, responses = pool[slot]
        client = ScriptedChatClient(responses)
        before = time.perf_counter()
        if tracer is None:
            entry = pipeline.run_pipeline(name, program, context, client, attempt)
        else:
            tracer.entry = len(entries)
            entry = tracer.call(
                ENTRY, pipeline.run_pipeline, name, program, context,
                ChatProxy(client, tracer), attempt,
            )
        entry_seconds.append(time.perf_counter() - before)
        entry_reference.append(reference.reference_seconds())
        entries.append(entry)
        if len(entries) == len(pool):
            peak_rss_mb = _peak_rss_mb()
    loop_seconds = time.perf_counter() - loop_started

    summary = pipeline.aggregate_entries(entries)
    summary["strategy"] = config.strategy.name
    write_started = time.perf_counter()
    paths = pipeline.write_report("report", entries, summary)
    report_write_s = time.perf_counter() - write_started
    report_reference = [entry_reference[-1], reference.reference_seconds()]
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()

    result = {
        "setup_s": setup_done - started,
        "make_context_s": setup_done - context_started,
        "entry_seconds": entry_seconds,
        "entry_reference_s": entry_reference,
        "report_reference_s": report_reference,
        "loop_s": loop_seconds,
        "report_write_s": report_write_s,
        "report_bytes": sum(p.stat().st_size for p in paths),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        result["missing"] = tracer.missing
        Path("spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path("worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
