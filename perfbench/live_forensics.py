"""live-forensics: cold alert-to-verdict replays of overlapping disasters.

Each replay is a cold ``run_live_replay`` of
``overlapping_catalog_timeline(world, count=3)`` with
``LiveConfig(forensics=True, workers=2)`` on the thread backend, against a
freshly built world and a fresh broker, so no replay inherits another's
caches.  See README.md.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

from common import Measurement, RunOptions, Stopwatch, check, median

INCIDENTS = 3


@dataclass
class Replay:
    world: object
    timeline: list
    broker: object


@dataclass
class State:
    opts: RunOptions
    first: Replay | None
    signature: list | None = None  # the first replay's case outcomes
    #: Traced runs: per-layer counts summed over replays, and the route
    #: pairs the BGP collector repaired and shared.
    counts: dict = field(default_factory=dict)
    route_pairs: list = field(default_factory=lambda: [0, 0])


def _fresh(opts: RunOptions, watch: Stopwatch | None = None) -> Replay:
    from repro.live import overlapping_catalog_timeline
    from repro.serve import QueryBroker, ServeConfig
    from repro.synth.world import WorldConfig, build_world

    world = build_world(WorldConfig(seed=opts.world_seed))
    if watch:
        watch.lap("world_s")
    broker = QueryBroker(world, config=ServeConfig(
        workers=2, backend="thread", tracing=opts.trace)).start()
    if watch:
        watch.lap("broker_start_s")
    timeline = overlapping_catalog_timeline(world, count=INCIDENTS)
    if watch:
        watch.lap("warmup_s")
    return Replay(world=world, timeline=timeline, broker=broker)


def setup(opts: RunOptions, watch: Stopwatch) -> State:
    watch.restart()
    import repro.live  # noqa: F401  (the import phase)
    import repro.serve  # noqa: F401
    watch.lap("import_s")
    return State(opts=opts, first=_fresh(opts, watch))


def teardown(state: State) -> None:
    if state.first is not None:
        state.first.broker.shutdown()


def prepare(state: State) -> None:
    """Nothing to precompute: replays are checked against each other."""


def measure(state: State, seconds: float, out: Measurement) -> None:
    from repro.live import LiveConfig, run_live_replay

    traced = state.opts.trace
    encoded: list[tuple[float, int]] = []
    rates: list[float] = []
    verdicts: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        replay, state.first = state.first or _fresh(state.opts), None
        try:
            started = time.perf_counter()
            report = run_live_replay(
                world=replay.world, timeline_events=replay.timeline,
                config=LiveConfig(forensics=True, workers=2), broker=replay.broker)
            wall = time.perf_counter() - started
            _check(state, report, out)
            out.wall_s += wall
            rates.append(report.epochs / wall)
            verdicts.extend(c["verdict_latency_s"] for c in report.forensic_cases)
            out.requests += 1
            if traced:
                out.rows.extend(replay.broker.tracer.records())
                for case in report.forensic_cases:
                    result = replay.broker.result(case["ticket"])
                    begin = time.perf_counter()
                    size = len(pickle.dumps(result, protocol=5))
                    encoded.append((time.perf_counter() - begin, size))
                _count(state, report, replay.broker)
        finally:
            replay.broker.shutdown()
    out.latency_p50_s = median(verdicts)
    out.throughput_per_s = median(rates)
    out.native["epochs_per_s"] = (out.throughput_per_s, "1/s", len(rates))
    out.native["verdict_p50_s"] = (out.latency_p50_s, "s", len(verdicts))
    if traced:
        per = 1.0 / out.requests
        repaired, shared = state.route_pairs
        out.extra = {name: value * per for name, value in state.counts.items()}
        out.extra["routing.repair_fraction"] = (
            repaired / (repaired + shared) if repaired + shared else 0.0)
        out.extra["artifacts.encode_s"] = sum(t for t, _ in encoded) / len(encoded)
        out.extra["artifacts.result_bytes"] = sum(b for _, b in encoded) / len(encoded)


def _check(state: State, report, out: Measurement) -> None:
    """One case per incident, every case confirmed, and every replay of the
    run reaching the same verdicts from the same answers."""
    incidents = sorted(report.incident_epochs)
    cases = report.forensic_cases
    confirmed = {c["event_id"] for c in cases
                 if c["state"] == "done" and c["verdict"] == "confirmed"}
    out.attempted += len(incidents)
    out.failed += len(set(incidents) - confirmed)
    check(sorted(c["event_id"] for c in cases) == incidents,
          f"cases {[c['event_id'] for c in cases]} for incidents {incidents}")
    check(confirmed == set(incidents),
          f"verdicts {[(c['event_id'], c['verdict']) for c in cases]}")
    signature = sorted((c["event_id"], c["identified_cable"], c["artifact_digest"])
                       for c in cases)
    if state.signature is None:
        state.signature = signature
    check(signature == state.signature,
          "a replay's verdicts or answers differ from the run's first replay")


def _count(state: State, report, broker) -> None:
    from layers import serve_counts

    figures = {
        "live.alerts": len(report.alerts),
        "forensic.queries": report.forensic_stats["queries_submitted"],
        "standing.computed": report.standing_stats["submitted"],
        "standing.cached": report.standing_stats["cache_hits"],
        **serve_counts(broker),
    }
    for name, value in figures.items():
        state.counts[name] = state.counts.get(name, 0.0) + value
    state.route_pairs[0] += report.routing_stats.get("pairs_repaired", 0)
    state.route_pairs[1] += report.routing_stats.get("pairs_shared", 0)
