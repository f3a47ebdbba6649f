"""End-to-end and per-layer benchmark of the ArachNet serve and live planes.

Run from the repository root::

    python3 perfbench/run.py --workload case-queries --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced then traced

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` spends half the time untraced and half traced, prints the per-layer
self-time table, and reports the per-layer metrics plus the tracing
overhead between the two halves.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed correctness check prints ``"correct": false`` and exits 1.

``--seed`` orders the requests (the four case queries within each round,
the jobs within each campaign pass).  ``--world-seed`` (default 7) picks the
generated world every workload measures; pass another value to re-check a
claim on a held-out world.  README.md says why each workload exists and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

from common import (
    HERE,
    ROOT,
    SRC,
    CheckFailed,
    Measurement,
    RunOptions,
    Stopwatch,
    become_subreaper,
    check,
    emit,
    peak_rss_mb,
    print_table,
    reap_children,
    run_setup_probes,
    setup_summary,
)

WORKLOADS = ("case-queries", "campaign", "live-forensics")


def _module(workload: str):
    import campaign
    import case_queries
    import live_forensics

    return {"case-queries": case_queries, "campaign": campaign,
            "live-forensics": live_forensics}[workload]


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _timed_phase(mod, opts: RunOptions, seconds: float, out: Measurement,
                 watch: Stopwatch, before_measure=None):
    state = mod.setup(opts, watch)
    try:
        mod.prepare(state)
        if before_measure is not None:
            before_measure()
        mod.measure(state, seconds, out)
    finally:
        mod.teardown(state)


def run_workload(opts: RunOptions) -> int:
    mod = _module(opts.workload)
    plain = Measurement()
    traced = Measurement()
    try:
        probes = run_setup_probes(opts)
        watch = Stopwatch()
        seconds = opts.seconds / 2 if opts.trace else opts.seconds
        _timed_phase(mod, dataclasses.replace(opts, trace=False), seconds,
                     plain, watch)
        check(plain.failed == 0, f"{plain.failed} of {plain.attempted} operations failed")
        check(plain.latency_p50_s > 0, "no request completed within the run")
        setup = setup_summary(probes + [watch.phases])
        if opts.trace:
            import layers

            timers = layers.Timers()
            layers.install(timers, live=opts.workload == "live-forensics",
                           journal=opts.workload == "campaign")
            _timed_phase(mod, opts, seconds, traced, Stopwatch(),
                         before_measure=timers.reset)
            check(traced.failed == 0,
                  f"{traced.failed} of {traced.attempted} traced operations failed")
            check(traced.latency_p50_s > 0, "no traced request completed")
    except CheckFailed as exc:
        print(f"CHECK FAILED ({opts.workload}): {exc}", flush=True)
        attempted = max(1, plain.attempted + traced.attempted)
        emit(False, attempted, max(1, plain.failed + traced.failed), {})
        return 1

    print(f"workload {opts.workload}: world seed {opts.world_seed}, "
          f"request seed {opts.seed}, {seconds:g} s per timed phase")
    _print_native("untraced", plain)
    if not opts.trace:
        metrics = {
            "setup_s": (setup["total_s"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "latency_p50_s": (plain.latency_p50_s, "s"),
            "throughput_per_s": (plain.throughput_per_s, "1/s"),
        }
        print_table("end-to-end (setup_s: median of "
                    f"{len(probes) + 1} fresh set-ups)",
                    [(n, v, u) for n, (v, u) in metrics.items()])
        _validate(metrics, "end_to_end")
        emit(True, plain.attempted, plain.failed, metrics)
        return 0

    _print_native("traced", traced)
    fold = layers.fold_spans(traced.rows)
    extra = {f"setup.{phase}": value for phase, value in setup.items()
             if phase != "total_s"}
    extra["trace_overhead_pct"] = 100.0 * (
        traced.latency_p50_s / plain.latency_p50_s - 1.0)
    extra["cache.hit_rate"] = layers.cache_hit_rate(traced.rows)
    extra.update(traced.extra)
    if "journal.bytes" in timers.totals:
        extra["journal.bytes"] = timers.totals["journal.bytes"] / traced.requests
    metrics = layers.layer_metrics(fold, timers, traced.requests, traced.wall_s,
                                   extra)
    print_table(f"per-layer self time per request ({traced.requests} requests, "
                "traced half)", layers.table_rows(fold, timers, traced.requests))
    print_table("per-layer metrics", [(n, v, u) for n, (v, u) in metrics.items()
                                      if v or not n.startswith("tool.")])
    _validate(metrics, "per_layer")
    emit(True, plain.attempted + traced.attempted, plain.failed + traced.failed,
         metrics)
    return 0


def _print_native(label: str, out: Measurement) -> None:
    print_table(f"{label}: workload figures (n = samples)",
                [(n, v, u, f"n={k}") for n, (v, u, k) in out.native.items()])


def _validate(metrics: dict, kind: str) -> None:
    """The emitted names and units must be exactly those BENCHMARK.json declares."""
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    declared = _declared(kind)
    if emitted != declared:
        raise SystemExit(f"{kind} metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(emitted.items()) ^ set(declared.items()))}")


def setup_probe(opts: RunOptions) -> int:
    """One fresh-interpreter set-up; prints its phase timings as JSON."""
    mod = _module(opts.workload)
    watch = Stopwatch()
    mod.teardown(mod.setup(opts, watch))
    print(json.dumps(watch.phases))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--world-seed", str(args.world_seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {workload} --trace {trace}", flush=True)
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                failures.append(f"{workload} --trace {trace}")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7,
                        help="request-order seed")
    parser.add_argument("--world-seed", type=int, default=7,
                        help="seed of the generated world")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    opts = RunOptions(workload=args.workload, seed=args.seed,
                      world_seed=args.world_seed, seconds=args.seconds,
                      trace=bool(args.trace))
    if args.setup_probe:
        return setup_probe(opts)
    return run_workload(opts)


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
