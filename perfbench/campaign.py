"""campaign: a CPU-bound scenario matrix through a journaled process pool.

One client submits the matrix with ``run_campaign``: every cable's impact
query, both disaster kinds and the Europe-Asia cascade (26 jobs), on the
process backend with the artifact cache off, the default zero-latency
``SimulatedLLM`` and an fsync'd write-ahead journal.  Each pass registers
the world under a fresh shard key, so every job is new to the journal and
executes instead of re-joining a journaled completion.  See README.md.
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
import time
from dataclasses import dataclass, field

from common import WORK_DIR, Measurement, RunOptions, Stopwatch, check, median

JOB_TIMEOUT_S = 120.0
#: Finished jobs the broker keeps: two passes, so a pass's results can be
#: checked after it ends without memory growing with the run's length.
RETAINED_JOBS = 64


@dataclass
class State:
    opts: RunOptions
    broker: object
    world: object
    jobs: list
    journal_dir: str
    passes: int = 0
    warmup_tickets: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)  # tag -> digest


def setup(opts: RunOptions, watch: Stopwatch) -> State:
    watch.restart()
    from repro.serve import CampaignSpec, QueryBroker, ServeConfig
    from repro.synth.world import WorldConfig, build_world
    watch.lap("import_s")

    world = build_world(WorldConfig(seed=opts.world_seed))
    jobs = CampaignSpec.for_world(world, cascades=True).expand()
    watch.lap("world_s")

    journal_dir = os.path.join(WORK_DIR, f"journal-{os.getpid()}-{time.time_ns()}")
    broker = QueryBroker(config=ServeConfig(
        workers=2, backend="process", cache_enabled=False,
        max_retained_jobs=RETAINED_JOBS,
        journal_dir=journal_dir, journal_fsync=True, tracing=opts.trace,
    )).start()
    state = State(opts=opts, broker=broker, world=world, jobs=jobs,
                  journal_dir=journal_dir)
    watch.lap("broker_start_s")
    try:
        report, _ = _run_pass(state, jobs)
        state.warmup_tickets = list(zip((j.tag for j in jobs), report.tickets))
    except BaseException:
        teardown(state)
        raise
    watch.lap("warmup_s")
    return state


def teardown(state: State) -> None:
    try:
        state.broker.shutdown()
    finally:
        shutil.rmtree(state.journal_dir, ignore_errors=True)


def prepare(state: State) -> None:
    """Digests of the warm-up pass: every later pass must reproduce them."""
    for tag, ticket in state.warmup_tickets:
        state.reference[tag] = state.broker.result(ticket).artifact_digest()


def _run_pass(state: State, jobs: list):
    from repro.serve import run_campaign

    key = f"pass-{state.passes}"
    state.passes += 1
    state.broker.add_world(key, state.world)
    started = time.perf_counter()
    report = run_campaign(state.broker, jobs, world_key=key, timeout=JOB_TIMEOUT_S)
    wall = time.perf_counter() - started
    state.broker.remove_world(key)
    return report, wall


def measure(state: State, seconds: float, out: Measurement) -> None:
    from layers import counts_since, serve_counts

    traced = state.opts.trace
    broker = state.broker
    if traced:
        broker.tracer.drain()
        before = serve_counts(broker)
        appends0 = broker.metrics.counter("journal_appends_total").value
        fsync0 = broker.metrics.histogram("journal_fsync_ms").total
    rng = random.Random(state.opts.seed)
    encoded: dict[str, tuple[float, int]] = {}
    walls: list[float] = []
    rates: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        jobs = list(state.jobs)
        rng.shuffle(jobs)
        report, wall = _run_pass(state, jobs)
        out.attempted += report.total
        out.failed += report.failed
        check(report.failed == 0, f"{report.failed} campaign jobs did not finish DONE: "
              f"{[o for o in report.outcomes if o['state'] != 'done'][:2]}")
        check(report.replayed == 0,
              f"{report.replayed} jobs re-joined from the journal instead of running")
        for job, ticket in zip(jobs, report.tickets):
            result = broker.result(ticket)
            check(result.artifact_digest() == state.reference[job.tag],
                  f"{job.tag}: digest differs from the warm-up pass")
            if traced and job.tag not in encoded:
                begin = time.perf_counter()
                size = len(pickle.dumps(result, protocol=5))
                encoded[job.tag] = (time.perf_counter() - begin, size)
        walls.append(wall)
        rates.append(report.total / wall)
        out.requests += report.total
        out.wall_s += wall
    out.latency_p50_s = median(walls)
    out.throughput_per_s = median(rates)
    out.native["jobs_per_s"] = (out.throughput_per_s, "1/s", len(rates))
    out.native["pass_jobs"] = (len(state.jobs), "count", len(rates))
    if traced:
        out.rows = broker.tracer.records()
        appends = broker.metrics.counter("journal_appends_total").value - appends0
        fsync_ms = broker.metrics.histogram("journal_fsync_ms").total - fsync0
        hist = broker.metrics.histogram("journal_fsync_ms").snapshot()
        out.native["journal_fsync_ms_p50"] = (
            _bucket_p50(hist), "ms", hist["count"])
        out.extra = {
            "artifacts.encode_s": sum(t for t, _ in encoded.values()) / len(encoded),
            "artifacts.result_bytes": sum(b for _, b in encoded.values()) / len(encoded),
            **counts_since(before, broker, out.requests),
            "journal.appends": appends / out.requests,
            "journal.fsync_pct": 100.0 * fsync_ms / 1000.0 / out.wall_s,
        }


def _bucket_p50(snapshot: dict) -> float:
    """Upper bound of the histogram bucket holding the median observation."""
    for bound, cumulative in snapshot["buckets"].items():
        if cumulative >= snapshot["count"] / 2:
            return float(bound)
    return 0.0
