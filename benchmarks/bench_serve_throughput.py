"""S1 — Serve-layer throughput: worker scaling, backend axis, cache, journal.

Four sections:

1. **Latency overlap** — the same scenario campaign through a fresh broker
   at 1, 4 and 8 worker threads with a modeled hosted-LLM round trip
   (:class:`SimulatedHostedLLM`): completion latency is what a thread pool
   overlaps in the real deployment.
2. **Backend axis** — a CPU-bound campaign (zero LLM latency, artifact
   cache disabled so every job pays the full pipeline) through the
   ``thread`` backend vs the ``process`` backend at equal worker counts.
   The process pool must clear an absolute jobs/s floor (on >= 2 cores)
   while producing byte-identical artifacts; the process-vs-thread ratio
   is printed and recorded but not gated — on millisecond-scale jobs the
   pool's per-job transport costs as much as the GIL it escapes.
3. **Warm cache** — resubmit the identical campaign against the warm
   artifact cache to measure the memoization win.
4. **Durability cost** — the CPU-bound campaign again with the write-ahead
   journal on (fsync'd submit/complete records): the journal's absolute
   cost per job (fsync milliseconds and appended records, read from the
   metrics registry) must stay under fixed ceilings, and a fresh broker
   resumed on the same journal must re-join every completion byte-
   identically without re-executing anything.  The throughput tax vs
   the unjournaled broker is printed, not gated.

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
#: Process-backend jobs/s on the CPU-bound cable campaign (>= 2 cores).
#: Each floor is the rate the process backend reached on its preset before
#: the per-world compute-once memos (46.6 full, 40.1 smoke, 2-core box), so
#: the gate is no weaker than the process-vs-thread ratio it replaced.
MIN_PROCESS_JOBS_PER_SEC = 46.6
MIN_RESUBMIT_HIT_RATE = 0.90
#: The CI smoke keeps looser scaling bars: on loaded shared runners the
#: GIL-bound execution stage eats into the latency overlap and small
#: campaigns amortize less startup jitter.  Local full runs show ~2.7x
#: worker scaling; the process backend runs 150-270 jobs/s on 2 cores.
SMOKE_MIN_SPEEDUP = 1.3
SMOKE_MIN_PROCESS_JOBS_PER_SEC = 40.1
#: Journal cost ceilings per job: the fsync milliseconds of the fastest
#: journaled round, and the records appended (submit, claim, complete).
#: Each is the highest value the preset measured before the ceilings
#: replaced a journaled-vs-unjournaled throughput ratio (2-core box), so
#: the gate is no looser than what the journal cost then.
MAX_JOURNAL_FSYNC_MS_PER_JOB = 0.68
SMOKE_MAX_JOURNAL_FSYNC_MS_PER_JOB = 0.55
JOURNAL_APPENDS_PER_JOB = 3.0
#: Journaled rounds behind the fsync reading (the lowest is gated).  On a
#: shared 2-core container, 10 interleaved smoke runs read 0.56-1.51 ms
#: per job with 3 rounds and 0.49-1.20 ms with 9; fsync stalls only add
#: time, so more rounds trim the stalls but not the disk's own drift.
FSYNC_ROUNDS = 9


def available_cores() -> int:
    """Cores this process may run on — the process backend's parallelism ceiling.

    On a single-core box a process pool has no hardware parallelism to
    unlock, so the process jobs/s floor only applies when >= 2 cores are
    available; the byte-identical artifact check applies everywhere.
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
    """Journal cost + resume fidelity on the CPU-bound campaign.

    Interleaved rounds on fresh brokers (thread backend, artifact cache
    off so every job pays the full pipeline): ``repeats`` unjournaled vs
    journaled pairs, then journaled-only rounds up to ``FSYNC_ROUNDS``.
    The gated cost is absolute and read from each journaled broker's
    registry: ``journal_fsync_ms`` sum per job (lowest round: fsync
    stalls only ever add time, and the first round's cold file system
    dominates otherwise) and ``journal_appends_total`` per job, an exact
    count.  The throughput tax of the best pair each is printed and
    recorded but not gated: on millisecond jobs scheduler noise swings
    it by tens of points.  A final *resumed* broker on the journaled
    directory must re-join every completion from the journal
    (``replayed == jobs``) with byte-identical artifact digests and zero
    re-execution.
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
            cost = (broker.metrics.histogram("journal_fsync_ms").total,
                    broker.metrics.counter("journal_appends_total").value)
            return report, digests, broker.stats(), cost
        finally:
            broker.shutdown()

    plain_jps, journaled_jps, fsync_ms, appends = [], [], [], []
    plain_digests = journaled_digests = None
    wal_dirs = []
    repeats = max(1, repeats)
    try:
        for index in range(max(repeats, FSYNC_ROUNDS)):
            if index < repeats:
                plain, plain_digests, _, _ = _round(None)
                plain_jps.append(plain.jobs_per_sec)
            wal_dirs.append(tempfile.mkdtemp(prefix="bench_wal_"))
            journaled, journaled_digests, _, cost = _round(wal_dirs[-1])
            if index < repeats:
                journaled_jps.append(journaled.jobs_per_sec)
            fsync_ms.append(cost[0] / len(jobs))
            appends.append(cost[1] / len(jobs))
        resumed, resumed_digests, resumed_stats, _ = _round(wal_dirs[-1])
    finally:
        for wal_dir in wal_dirs:
            shutil.rmtree(wal_dir, ignore_errors=True)
    best_plain, best_journaled = max(plain_jps), max(journaled_jps)
    overhead_pct = (best_plain - best_journaled) / best_plain * 100.0
    row = {
        "jobs": len(jobs),
        "repeats": repeats,
        "fsync_rounds": len(fsync_ms),
        "plain_jobs_per_sec": round(best_plain, 2),
        "journaled_jobs_per_sec": round(best_journaled, 2),
        "journal_overhead_pct": round(overhead_pct, 2),
        "journal_fsync_ms_per_job": round(min(fsync_ms), 4),
        "journal_fsync_ms_per_job_rounds": [round(v, 4) for v in fsync_ms],
        "journal_appends_per_job": max(appends),
        "resume_replayed": resumed.replayed,
        "resume_reexecuted": len(jobs) - resumed.replayed,
        "resume_identical": (plain_digests == journaled_digests
                             == resumed_digests),
        "recovery_completions": resumed_stats["recovery"]["completions"],
    }
    print(f"  unjournaled {best_plain:6.1f} jobs/s   "
          f"journaled {best_journaled:6.1f} jobs/s   "
          f"tax {overhead_pct:+.1f}% (best of {row['repeats']}; not gated)")
    print(f"  journal cost per job: {row['journal_fsync_ms_per_job']:.3f} ms "
          f"fsync (rounds {row['journal_fsync_ms_per_job_rounds']}), "
          f"{row['journal_appends_per_job']:g} appends")
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
        print(f"\n=== durability cost — {args.cpu_jobs} CPU-bound jobs, "
              f"{args.backend_workers} workers, fsync'd write-ahead "
              "journal ===")
        durability = measure_durability(
            world, build_jobs(world, args.cpu_jobs), args.backend_workers
        )

    # Resubmit the identical campaign against the warm cache.
    cold_jps = throughput[worker_counts[-1]]
    before = last_broker.cache.stats()
    warm = run_campaign(last_broker, jobs)
    after = last_broker.cache.stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    hit_rate = hits / lookups if lookups else 0.0
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
            summary["journal_fsync_ms_per_job"] = (
                durability["journal_fsync_ms_per_job"])
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
                min_process = (SMOKE_MIN_PROCESS_JOBS_PER_SEC if args.smoke
                               else MIN_PROCESS_JOBS_PER_SEC)
                process_jps = backends["jobs_per_sec"]["process"]
                assert process_jps >= min_process, (
                    f"process backend {process_jps:.1f} jobs/s "
                    f"below {min_process} jobs/s on {cores} cores"
                )
                process_note = (f", process backend >= {min_process} jobs/s "
                                "with identical artifacts")
            else:
                print("  NOTE: single core available — process jobs/s "
                      "floor skipped (artifact identity still enforced)")
                process_note = ", identical artifacts (1 core: no jobs/s floor)"
        if durability is not None:
            max_fsync = (SMOKE_MAX_JOURNAL_FSYNC_MS_PER_JOB if args.smoke
                         else MAX_JOURNAL_FSYNC_MS_PER_JOB)
            assert durability["journal_fsync_ms_per_job"] <= max_fsync, (
                f"journal fsync {durability['journal_fsync_ms_per_job']:.3f} "
                f"ms per job above {max_fsync} ms"
            )
            assert (durability["journal_appends_per_job"]
                    == JOURNAL_APPENDS_PER_JOB), (
                f"journal appended {durability['journal_appends_per_job']:g} "
                f"records per job, expected {JOURNAL_APPENDS_PER_JOB:g}"
            )
            assert durability["resume_replayed"] == durability["jobs"], (
                f"resume re-executed {durability['resume_reexecuted']} "
                "journaled-complete jobs"
            )
            assert durability["resume_identical"], (
                "resumed artifact digests diverged from the plain run"
            )
            process_note += (f", journal <= {max_fsync} ms fsync and "
                             f"{JOURNAL_APPENDS_PER_JOB:g} records per job "
                             "with byte-identical resume")
        print(f"  thresholds met: >={min_speedup}x scaling, "
              f">={MIN_RESUBMIT_HIT_RATE:.0%} warm hit rate" + process_note)
    return 0


def test_serve_throughput_smoke(tmp_path):
    """Pytest entry point: the CI smoke preset must meet both thresholds."""
    assert main(["--smoke", "--out", str(tmp_path / "BENCH_serve_throughput.json")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
