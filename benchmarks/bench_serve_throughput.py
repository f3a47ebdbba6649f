"""S1 — Serve-layer throughput: worker scaling, backend axis, cache, journal.

Four sections:

1. **Latency overlap** — the same scenario campaign through a fresh broker
   at 1, 4 and 8 worker threads with a modeled hosted-LLM round trip
   (:class:`SimulatedHostedLLM`): completion latency is what a thread pool
   overlaps in the real deployment.
2. **Backend axis** — a CPU-bound campaign (zero LLM latency, artifact
   cache disabled so every job pays the full pipeline) through the
   ``thread`` backend vs the ``process`` backend at equal worker counts.
   Threads serialize on the GIL here; the preforked process pool must win
   by ≥1.5× while producing byte-identical artifacts.
3. **Warm cache** — resubmit the identical campaign against the warm
   artifact cache to measure the memoization win.
4. **Durability tax** — the CPU-bound campaign again with the write-ahead
   journal on (fsync'd submit/complete records): overhead vs the
   unjournaled broker must stay within a few percent, and a fresh broker
   resumed on the same journal must re-join every completion byte-
   identically without re-executing anything.

Standalone (what CI smokes)::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --smoke

or as pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.llm.simulated import SimulatedHostedLLM
from repro.serve import CampaignJob, QueryBroker, ServeConfig, run_campaign
from repro.serve.campaign import CABLE_IMPACT_TEMPLATE, DISASTER_TEMPLATE
from repro.synth.world import WorldConfig, build_world

#: Acceptance thresholds this benchmark demonstrates.
MIN_WORKER_SPEEDUP = 2.0  # 4 workers vs 1 worker, 50-job campaign
MIN_PROCESS_SPEEDUP = 1.5  # process vs thread backend, CPU-bound campaign
MIN_RESUBMIT_HIT_RATE = 0.90
#: The CI smoke keeps looser scaling bars: on loaded shared runners the
#: GIL-bound execution stage eats into the latency overlap, small campaigns
#: amortize less startup jitter, and the process pool pays its fork cost
#: over fewer jobs.  Local full runs show ~2.7x worker scaling and >1.5x
#: process-backend speedup.
SMOKE_MIN_SPEEDUP = 1.3
SMOKE_MIN_PROCESS_SPEEDUP = 1.05
#: Journal tax ceiling: two fsync'd appends per job (submit + complete)
#: against a pipeline job costing tens of milliseconds.  Smoke campaigns
#: are small enough that a single slow fsync on a loaded shared runner
#: moves the percentage, hence the looser bar.
MAX_JOURNAL_OVERHEAD_PCT = 5.0
SMOKE_MAX_JOURNAL_OVERHEAD_PCT = 25.0


def available_cores() -> int:
    """Cores this process may run on — the process backend's speedup ceiling.

    On a single-core box a process pool cannot beat threads at CPU-bound
    work (there is no hardware parallelism to unlock), so the speedup
    threshold only applies when >= 2 cores are available; the byte-identical
    artifact check applies everywhere.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_jobs(world, count: int) -> list[CampaignJob]:
    """``count`` textually distinct scenario queries: one per cable, then
    disaster sweeps at stepped failure probabilities."""
    jobs = [
        CampaignJob(query=CABLE_IMPACT_TEMPLATE.format(cable=cable),
                    tag=f"cable:{cable}")
        for cable in world.cable_names()
    ]
    kinds = ("earthquake", "hurricane")
    step = 0
    while len(jobs) < count:
        kind = kinds[step % len(kinds)]
        probability = 0.05 + 0.01 * (step // len(kinds))
        jobs.append(CampaignJob(
            query=DISASTER_TEMPLATE.format(kind=kind, probability=probability),
            tag=f"disaster:{kind}:{probability:.2f}",
        ))
        step += 1
    return jobs[:count]


def run_once(world, jobs, workers: int, latency_s: float):
    """One cold campaign on a fresh broker; returns (report, broker)."""
    broker = QueryBroker(
        world,
        config=ServeConfig(
            workers=workers,
            llm_factory=lambda: SimulatedHostedLLM(latency_s=latency_s),
        ),
    ).start()
    report = run_campaign(broker, jobs)
    return report, broker


def compare_backends(world, jobs, workers: int) -> dict:
    """CPU-bound campaign through each backend; returns the comparison row.

    Zero LLM latency and no artifact cache, so throughput is pure pipeline
    compute — the regime where the process pool escapes the GIL.  Each
    backend warms up on a slice of the campaign first (the process pool
    builds its per-process worlds there) so the measurement captures steady
    state, not fork cost.
    """
    row: dict = {"jobs_per_sec": {}, "digests": {}}
    for backend in ("thread", "process"):
        broker = QueryBroker(
            world,
            config=ServeConfig(workers=workers, backend=backend,
                               cache_enabled=False),
        ).start()
        try:
            warm = run_campaign(broker, jobs[: workers * 2])
            assert warm.failed == 0, f"{backend} warmup failed: {warm.outcomes}"
            report = run_campaign(broker, jobs)
            assert report.failed == 0, f"{backend}: {report.failed} jobs failed"
            row["jobs_per_sec"][backend] = report.jobs_per_sec
            row["digests"][backend] = sorted(
                broker.result(t).artifact_digest() for t in report.tickets
            )
            print(f"  backend={backend:<8s} {report.succeeded}/{report.total} ok  "
                  f"{report.duration_s:6.2f}s  {report.jobs_per_sec:6.1f} jobs/s")
        finally:
            broker.shutdown()
    row["speedup"] = row["jobs_per_sec"]["process"] / row["jobs_per_sec"]["thread"]
    row["artifacts_identical"] = row["digests"]["thread"] == row["digests"]["process"]
    print(f"  process vs thread: {row['speedup']:.2f}x  "
          f"byte-identical artifacts: {row['artifacts_identical']}")
    return row


def measure_durability(world, jobs, workers: int, repeats: int = 3) -> dict:
    """Journal tax + resume fidelity on the CPU-bound campaign.

    Interleaved best-of-``repeats`` rounds on fresh brokers (thread
    backend, artifact cache off so every job pays the full pipeline):
    unjournaled vs journaled — the tax is the delta of the *best* round
    each, since scheduler noise on a shared box (easily ±30%) dwarfs the
    true per-job cost of two sub-millisecond fsyncs.  A final *resumed*
    broker on the journaled directory must re-join every completion from
    the journal (``replayed == jobs``) with byte-identical artifact
    digests and zero re-execution.
    """
    import shutil
    import tempfile

    def _round(journal_dir):
        broker = QueryBroker(
            world,
            config=ServeConfig(workers=workers, cache_enabled=False,
                               journal_dir=journal_dir),
        ).start()
        try:
            report = run_campaign(broker, jobs)
            assert report.failed == 0, f"durability round: {report.outcomes}"
            digests = sorted(
                broker.result(t).artifact_digest() for t in report.tickets
            )
            return report, digests, broker.stats()
        finally:
            broker.shutdown()

    plain_jps, journaled_jps = [], []
    plain_digests = journaled_digests = None
    appended = 0
    wal_dirs = []
    try:
        for _ in range(max(1, repeats)):
            plain, plain_digests, _ = _round(None)
            plain_jps.append(plain.jobs_per_sec)
            wal_dirs.append(tempfile.mkdtemp(prefix="bench_wal_"))
            journaled, journaled_digests, stats = _round(wal_dirs[-1])
            journaled_jps.append(journaled.jobs_per_sec)
            appended = stats["journal"]["appended"]
        resumed, resumed_digests, resumed_stats = _round(wal_dirs[-1])
    finally:
        for wal_dir in wal_dirs:
            shutil.rmtree(wal_dir, ignore_errors=True)
    best_plain, best_journaled = max(plain_jps), max(journaled_jps)
    overhead_pct = (best_plain - best_journaled) / best_plain * 100.0
    row = {
        "jobs": len(jobs),
        "repeats": max(1, repeats),
        "plain_jobs_per_sec": round(best_plain, 2),
        "journaled_jobs_per_sec": round(best_journaled, 2),
        "journal_overhead_pct": round(overhead_pct, 2),
        "journal_appended": appended,
        "resume_replayed": resumed.replayed,
        "resume_reexecuted": len(jobs) - resumed.replayed,
        "resume_identical": (plain_digests == journaled_digests
                             == resumed_digests),
        "recovery_completions": resumed_stats["recovery"]["completions"],
    }
    print(f"  unjournaled {best_plain:6.1f} jobs/s   "
          f"journaled {best_journaled:6.1f} jobs/s   "
          f"tax {overhead_pct:+.1f}% "
          f"(best of {row['repeats']}; {appended} fsync'd records/round)")
    print(f"  resume: {resumed.replayed}/{len(jobs)} re-joined from the "
          f"journal, {row['resume_reexecuted']} re-executed, "
          f"byte-identical: {row['resume_identical']}")
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=50)
    parser.add_argument("--cpu-jobs", type=int, default=24,
                        help="campaign size for the CPU-bound backend comparison")
    parser.add_argument("--latency-ms", type=float, default=40.0,
                        help="modeled hosted-LLM round trip per completion")
    parser.add_argument("--workers", default="1,4,8",
                        help="comma-separated worker counts (first is baseline)")
    parser.add_argument("--backend-workers", type=int, default=4,
                        help="worker count for the backend comparison")
    parser.add_argument("--smoke", action="store_true",
                        help="CI preset: 12 jobs, 25ms latency, workers 1,4, "
                             "10 CPU jobs")
    parser.add_argument("--no-assert", action="store_true",
                        help="report only; skip threshold assertions")
    parser.add_argument("--skip-backends", action="store_true",
                        help="skip the process-vs-thread backend section")
    parser.add_argument("--skip-durability", action="store_true",
                        help="skip the journal-tax / resume-fidelity section")
    parser.add_argument("--out", default="BENCH_serve_throughput.json",
                        help="write the result summary here ('' disables)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.jobs, args.latency_ms, args.workers = 12, 25.0, "1,4"
        args.cpu_jobs = 10

    worker_counts = [int(w) for w in args.workers.split(",")]
    latency_s = args.latency_ms / 1000.0
    world = build_world(WorldConfig(seed=7))
    jobs = build_jobs(world, args.jobs)

    print(f"\n=== serve throughput — {len(jobs)} jobs, "
          f"{args.latency_ms:.0f}ms modeled LLM latency ===")
    throughput: dict[int, float] = {}
    last_broker = None
    for workers in worker_counts:
        if last_broker is not None:
            last_broker.shutdown()
        report, last_broker = run_once(world, jobs, workers, latency_s)
        throughput[workers] = report.jobs_per_sec
        print(f"  workers={workers:<2d} {report.succeeded}/{report.total} ok  "
              f"{report.duration_s:6.2f}s  {report.jobs_per_sec:6.1f} jobs/s")
        assert report.failed == 0, f"{report.failed} jobs failed at {workers} workers"

    baseline = worker_counts[0]
    scaled = worker_counts[1] if len(worker_counts) > 1 else baseline
    speedup = throughput[scaled] / throughput[baseline]
    print(f"  speedup {scaled}w vs {baseline}w: {speedup:.2f}x")

    backends = None
    cores = available_cores()
    if not args.skip_backends:
        print(f"\n=== backend axis — {args.cpu_jobs} CPU-bound jobs "
              f"(zero LLM latency, cache off), {args.backend_workers} workers, "
              f"{cores} core(s) available ===")
        backends = compare_backends(
            world, build_jobs(world, args.cpu_jobs), args.backend_workers
        )

    durability = None
    if not args.skip_durability:
        print(f"\n=== durability tax — {args.cpu_jobs} CPU-bound jobs, "
              f"{args.backend_workers} workers, fsync'd write-ahead "
              "journal ===")
        durability = measure_durability(
            world, build_jobs(world, args.cpu_jobs), args.backend_workers
        )

    # Resubmit the identical campaign against the warm cache.
    cold_jps = throughput[worker_counts[-1]]
    last_broker.cache.reset_stats()
    warm = run_campaign(last_broker, jobs)
    hit_rate = last_broker.cache.stats()["hit_rate"]
    print(f"  resubmit    {warm.succeeded}/{warm.total} ok  "
          f"{warm.duration_s:6.2f}s  {warm.jobs_per_sec:6.1f} jobs/s  "
          f"cache hit rate {hit_rate:.0%} "
          f"({warm.jobs_per_sec / cold_jps:.1f}x vs cold)")
    last_broker.shutdown()

    if args.out:
        summary = {
            "benchmark": "serve_throughput",
            "jobs": len(jobs),
            "latency_ms": args.latency_ms,
            "jobs_per_sec": {str(w): round(v, 2) for w, v in throughput.items()},
            "speedup": round(speedup, 3),
            "warm_jobs_per_sec": round(warm.jobs_per_sec, 2),
            "warm_hit_rate": round(hit_rate, 4),
        }
        if backends is not None:
            summary["backend_jobs_per_sec"] = {
                k: round(v, 2) for k, v in backends["jobs_per_sec"].items()
            }
            summary["process_speedup"] = round(backends["speedup"], 3)
            summary["artifacts_identical"] = backends["artifacts_identical"]
            summary["cores"] = cores
        if durability is not None:
            summary["journal_overhead_pct"] = durability["journal_overhead_pct"]
            summary["durability"] = durability
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
        print(f"  wrote {args.out}")

    if not args.no_assert:
        min_speedup = SMOKE_MIN_SPEEDUP if args.smoke else MIN_WORKER_SPEEDUP
        assert speedup >= min_speedup, (
            f"worker speedup {speedup:.2f}x below {min_speedup}x"
        )
        assert hit_rate >= MIN_RESUBMIT_HIT_RATE, (
            f"resubmit hit rate {hit_rate:.0%} below {MIN_RESUBMIT_HIT_RATE:.0%}"
        )
        process_note = ""
        if backends is not None:
            assert backends["artifacts_identical"], (
                "thread and process backends produced different artifacts"
            )
            if cores >= 2:
                min_process = (
                    SMOKE_MIN_PROCESS_SPEEDUP if args.smoke else MIN_PROCESS_SPEEDUP
                )
                assert backends["speedup"] >= min_process, (
                    f"process backend speedup {backends['speedup']:.2f}x "
                    f"below {min_process}x on {cores} cores"
                )
                process_note = (f", process backend >= {min_process}x "
                                "with identical artifacts")
            else:
                print("  NOTE: single core available — process-speedup "
                      "threshold skipped (artifact identity still enforced)")
                process_note = ", identical artifacts (1 core: no speedup bar)"
        if durability is not None:
            max_tax = (SMOKE_MAX_JOURNAL_OVERHEAD_PCT if args.smoke
                       else MAX_JOURNAL_OVERHEAD_PCT)
            assert durability["journal_overhead_pct"] <= max_tax, (
                f"journal overhead {durability['journal_overhead_pct']:.1f}% "
                f"above {max_tax}%"
            )
            assert durability["resume_replayed"] == durability["jobs"], (
                f"resume re-executed {durability['resume_reexecuted']} "
                "journaled-complete jobs"
            )
            assert durability["resume_identical"], (
                "resumed artifact digests diverged from the plain run"
            )
            process_note += (f", journal tax <= {max_tax}% with "
                             "byte-identical resume")
        print(f"  thresholds met: >={min_speedup}x scaling, "
              f">={MIN_RESUBMIT_HIT_RATE:.0%} warm hit rate" + process_note)
    return 0


def test_serve_throughput_smoke(tmp_path):
    """Pytest entry point: the CI smoke preset must meet both thresholds."""
    assert main(["--smoke", "--out", str(tmp_path / "BENCH_serve_throughput.json")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
