"""case-queries: the paper's four case-study questions, served one at a time.

One client sends ``CASE_QUERIES`` 1-4 (in a seeded order within each round)
to a started ``QueryBroker`` on the process backend with the artifact cache
on, one query in flight at a time (a closed loop).  Three world shards give
each case its registry and incident: ``case1`` holds the Nautilus-only
registry subset, ``full`` the full registry, ``case4`` the SeaMeWe-5
latency incident.  See README.md for why and what it loads.
"""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import dataclass, field

from common import Measurement, RunOptions, Stopwatch, check, median

TRUE_CABLE = "SeaMeWe-5"
SHARD_OF_CASE = {1: "case1", 2: "full", 3: "full", 4: "case4"}
REQUEST_TIMEOUT_S = 120.0
#: Finished jobs the broker keeps; the client holds the one it is checking,
#: so a long run's memory does not grow with the number of answers.
RETAINED_JOBS = 8


@dataclass
class State:
    opts: RunOptions
    broker: object
    queries: dict
    reference: dict = field(default_factory=dict)  # case -> digest


def setup(opts: RunOptions, watch: Stopwatch) -> State:
    watch.restart()
    from repro.core.registry import default_registry
    from repro.evalharness.casestudies import CASE_QUERIES
    from repro.serve import QueryBroker, ServeConfig
    from repro.synth.scenarios import make_latency_incident
    from repro.synth.world import WorldConfig, build_world
    watch.lap("import_s")

    world = build_world(WorldConfig(seed=opts.world_seed))
    nautilus_only = default_registry().subset(frameworks=["nautilus"])
    incident = make_latency_incident(world, TRUE_CABLE)
    watch.lap("world_s")

    broker = QueryBroker(config=ServeConfig(workers=2, backend="process",
                                            cache_enabled=True,
                                            max_retained_jobs=RETAINED_JOBS,
                                            tracing=opts.trace))
    broker.add_world("case1", world, registry=nautilus_only)
    broker.add_world("full", world)
    broker.add_world("case4", world, incidents=[incident])
    broker.start()
    state = State(opts=opts, broker=broker, queries=dict(CASE_QUERIES))
    watch.lap("broker_start_s")
    try:
        for case in sorted(SHARD_OF_CASE):
            _serve(state, case)
    except BaseException:
        teardown(state)
        raise
    watch.lap("warmup_s")
    return state


def teardown(state: State) -> None:
    state.broker.shutdown()


def _serve(state: State, case: int):
    started = time.perf_counter()
    ticket = state.broker.submit(state.queries[case],
                                 world_key=SHARD_OF_CASE[case])
    job = state.broker.wait(ticket, timeout=REQUEST_TIMEOUT_S)
    return job, time.perf_counter() - started


def prepare(state: State) -> None:
    """In-process ``ArachNet.answer`` digests, the cross-path identity every
    served answer is checked against; also checks case 4's verdict."""
    from repro.core.pipeline import ArachNet

    for case in sorted(SHARD_OF_CASE):
        shard = state.broker.shard(SHARD_OF_CASE[case])
        system = ArachNet.for_world(
            shard.world, registry=shard.system.registry.clone(),
            incidents=list(shard.system.context.incidents), curate=False)
        result = system.answer(state.queries[case])
        check(result.execution.succeeded,
              f"reference case {case} failed: {result.execution.error}")
        state.reference[case] = result.artifact_digest()
    _check_case4(result)


def _check_case4(result) -> None:
    final = result.execution.outputs.get("final") or {}
    check(final.get("identified_cable_name") == TRUE_CABLE,
          f"case 4 identified {final.get('identified_cable_name')!r}, "
          f"not {TRUE_CABLE}")
    check(final.get("verdict") == "cable_failure_established",
          f"case 4 verdict {final.get('verdict')!r}")


def measure(state: State, seconds: float, out: Measurement) -> None:
    from repro.serve import JobState

    from layers import counts_since, serve_counts

    traced = state.opts.trace
    if traced:
        state.broker.tracer.drain()  # keep only the timed queries' spans
        before = serve_counts(state.broker)
    case4_traces: list[tuple[str, float]] = []  # (trace id, client wall)
    rng = random.Random(state.opts.seed)
    per_case: dict[int, list[float]] = {case: [] for case in SHARD_OF_CASE}
    encoded: dict[int, tuple[float, int]] = {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        order = sorted(SHARD_OF_CASE)
        rng.shuffle(order)
        for case in order:
            job, wall = _serve(state, case)
            out.attempted += 1
            if job.state is not JobState.DONE:
                out.failed += 1
                continue
            out.wall_s += wall
            per_case[case].append(wall)
            check(job.result.artifact_digest() == state.reference[case],
                  f"case {case}: served digest differs from the in-process answer")
            if case == 4:
                _check_case4(job.result)
                if traced:
                    case4_traces.append((job.trace_id, wall))
            if traced and case not in encoded:
                started = time.perf_counter()
                size = len(pickle.dumps(job.result, protocol=5))
                encoded[case] = (time.perf_counter() - started, size)
    out.requests = sum(len(v) for v in per_case.values())
    p50 = {case: median(samples) for case, samples in per_case.items()}
    for case, samples in per_case.items():
        out.native[f"case{case}_p50_s"] = (p50[case], "s", len(samples))
    # One answer to each question, typical case by case: a burst of host
    # noise during one query moves only that case's median, not a round's.
    if all(per_case.values()):
        out.latency_p50_s = sum(p50.values())
        out.throughput_per_s = len(p50) / out.latency_p50_s
    if traced:
        out.rows = state.broker.tracer.records()
        out.extra = _layer_extra(out, case4_traces, encoded)
        out.extra.update(counts_since(before, state.broker, out.requests))


def _layer_extra(out: Measurement, case4_traces: list, encoded: dict) -> dict:
    from layers import trace_self_seconds

    coverage = [trace_self_seconds(out.rows, trace_id) / wall
                for trace_id, wall in case4_traces]
    check(bool(coverage), "no traced case-4 query")
    worst = max(coverage, key=lambda c: abs(c - 1.0))
    check(abs(worst - 1.0) <= 0.05,
          f"case-4 layer self times cover {worst:.1%} of its wall time")
    out.native["case4_trace_coverage_pct"] = (100.0 * median(coverage), "%",
                                              len(coverage))
    return {
        "artifacts.encode_s": sum(t for t, _ in encoded.values()) / len(encoded),
        "artifacts.result_bytes": sum(b for _, b in encoded.values()) / len(encoded),
    }
