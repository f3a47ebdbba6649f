"""Benchmark-side tracing: wrappers around each layer's public entry points,
and the fold of span records into a per-layer self-time table.

Where the program already emits spans (``job``, ``queue.wait``,
``dispatch``, ``worker.execute``, ``pipeline.answer``, ``stage.*``,
``epoch.tick``, ``forensic.case``; all under ``ServeConfig(tracing=True)``)
they are read as they are.  The wrappers add what the program does not
trace yet, under names an in-program tracer can adopt unchanged:

* ``tool.<entry>`` — one span per ``ToolCatalog.call``, recorded into the
  tracer ``ArachNet.answer`` was handed, so on the process backend the span
  travels back with the job's own spans through the worker reply pipe;
* ``artifacts.digest`` — a timer around ``PipelineResult.artifact_digest``;
* ``live.*`` — timers around the live replay loop's per-epoch calls.

Nothing here is installed for an untraced run.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

#: Registry entries the three workloads invoke.  Each gets a share of the
#: executor's time and a call count in the per-layer metrics.
TOOL_ENTRIES = (
    "bgp.correlate_updates_with_window",
    "bgp.detect_routing_anomalies",
    "bgp.fetch_updates",
    "bgp.summarize_path_changes",
    "nautilus.geolocate_ips",
    "nautilus.get_cable_dependencies",
    "nautilus.get_cable_info",
    "nautilus.list_cables",
    "nautilus.map_ip_links_to_cables",
    "traceroute.detect_latency_anomalies",
    "traceroute.latency_series",
    "traceroute.run_campaign",
    "xaminer.country_impact",
    "xaminer.list_disasters",
    "xaminer.process_event",
)

#: Live-plane timers: metric stem -> (class path, method names).
LIVE_TIMERS = {
    "live.tick": ("repro.live.clock:WorldTimeline", ("step",)),
    "live.telemetry.traceroute": ("repro.live.telemetry:TracerouteFeed",
                                  ("publish_epoch",)),
    "live.telemetry.bgp": ("repro.live.telemetry:BGPFeed", ("publish_epoch",)),
    "live.detectors": ("repro.live.detectors:DetectorBank", ("process_pending",)),
    "live.forensics": ("repro.live.forensics:ForensicTrigger",
                       ("on_epoch", "collect")),
    "live.standing": ("repro.live.standing:StandingQueryManager",
                      ("on_epoch", "collect")),
}

AGENT_STAGES = ("querymind", "workflowscout", "solutionweaver")


def _metric_catalogue() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"setup.{phase}": "s" for phase in
             ("import_s", "world_s", "broker_start_s", "warmup_s")}
    for stage in AGENT_STAGES + ("executor",):
        units[f"stage.{stage}_s"] = "s"
    units["executor.glue_s"] = "s"
    units["cache.hit_rate"] = "ratio"
    for entry in TOOL_ENTRIES:
        units[f"tool.{entry}_pct"] = "%"
        units[f"tool.{entry}.calls"] = "count"
    units.update({
        "artifacts.digest_s": "s",
        "artifacts.digest.calls": "count",
        "artifacts.encode_s": "s",
        "artifacts.result_bytes": "bytes",
        "serve.queue_wait_s": "s",
        "serve.dispatch_s": "s",
        "serve.worker_execute_s": "s",
        "serve.dispatch_self_s": "s",
        "serve.jobs": "count",
        "serve.failed": "count",
        "serve.retries": "count",
        "journal.appends": "count",
        "journal.bytes": "bytes",
        "journal.fsync_pct": "%",
    })
    for stem in LIVE_TIMERS:
        units[f"{stem}_pct"] = "%"
    units.update({
        "live.alerts": "count",
        "forensic.queries": "count",
        "standing.computed": "count",
        "standing.cached": "count",
        "routing.repair_fraction": "ratio",
        "trace_overhead_pct": "%",
    })
    return units


METRIC_UNITS = _metric_catalogue()


class Timers:
    """Accumulated totals (seconds, or bytes) and calls per timer name."""

    def __init__(self):
        self._lock = threading.Lock()
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.totals[name] += amount
            self.calls[name] += 1

    def reset(self) -> None:
        with self._lock:
            self.totals.clear()
            self.calls.clear()


def _resolve(path: str):
    import importlib

    module, name = path.split(":")
    return getattr(importlib.import_module(module), name)


def _timed(timers: Timers, name: str, method):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            timers.add(name, time.perf_counter() - started)
    wrapper.__wrapped__ = method
    return wrapper


def install(timers: Timers, live: bool = False, journal: bool = False) -> None:
    """Patch the wrappers in.  Call before a broker starts, so process-backend
    workers fork with them."""
    from repro.core.artifacts import PipelineResult
    from repro.core.catalog import ToolCatalog
    from repro.core.pipeline import ArachNet

    frame = threading.local()
    answer = ArachNet.answer
    call = ToolCatalog.call

    def traced_answer(self, query, params=None, observer=None, tracer=None,
                      trace_parent=None):
        previous = getattr(frame, "current", None)
        frame.current = (tracer, trace_parent)
        try:
            return answer(self, query, params=params, observer=observer,
                          tracer=tracer, trace_parent=trace_parent)
        finally:
            frame.current = previous

    def traced_call(self, entry_name, **kwargs):
        tracer, parent = getattr(frame, "current", None) or (None, None)
        if tracer is None or not tracer.enabled:
            return call(self, entry_name, **kwargs)
        with tracer.span("tool." + entry_name, parent=parent, cat="tool"):
            return call(self, entry_name, **kwargs)

    ArachNet.answer = traced_answer
    ToolCatalog.call = traced_call
    PipelineResult.artifact_digest = _timed(
        timers, "artifacts.digest", PipelineResult.artifact_digest)
    if journal:
        from repro.serve import journal as wal

        encode = wal.encode_record

        def counted_encode(record):
            framed = encode(record)
            timers.add("journal.bytes", len(framed))
            return framed

        wal.encode_record = counted_encode
    if live:
        for stem, (path, methods) in LIVE_TIMERS.items():
            cls = _resolve(path)
            for method in methods:
                setattr(cls, method, _timed(timers, stem, getattr(cls, method)))


def fold_spans(rows: list[dict]) -> dict[str, list[float]]:
    """Per span name: ``[self seconds, total seconds, count]``.

    A span's parent is the innermost span of the same trace whose interval
    contains its start; its self time is its duration minus the part its
    children cover.  Containment (not ``parent_id``) is what nests the
    benchmark's ``tool.*`` spans under ``stage.executor``, which the
    pipeline records after the fact.
    """
    by_trace: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        by_trace[row["trace_id"]].append(row)
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for spans in by_trace.values():
        spans.sort(key=lambda r: (r["ts"], -r["dur"]))
        covered = [0.0] * len(spans)
        stack: list[int] = []
        for index, row in enumerate(spans):
            start = row["ts"]
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] <= start:
                stack.pop()
            if stack:
                parent = spans[stack[-1]]
                covered[stack[-1]] += max(
                    0.0, min(start + row["dur"], parent["ts"] + parent["dur"]) - start)
            stack.append(index)
        for index, row in enumerate(spans):
            slot = out[row["name"]]
            slot[0] += max(0.0, row["dur"] - covered[index])
            slot[1] += row["dur"]
            slot[2] += 1
    return dict(out)


def trace_self_seconds(rows: list[dict], trace_id: str) -> float:
    """Sum of every span's self time within one trace."""
    return sum(v[0] for v in fold_spans(
        [r for r in rows if r["trace_id"] == trace_id]).values())


def cache_hit_rate(rows: list[dict]) -> float:
    """Share of agent-stage runs the artifact cache answered."""
    names = {f"stage.{stage}" for stage in AGENT_STAGES}
    stages = [r for r in rows if r["name"] in names]
    hits = sum(1 for r in stages if r["args"].get("cache_hit"))
    return hits / len(stages) if stages else 0.0


def serve_counts(broker) -> dict[str, float]:
    """Jobs a broker has taken, failed and crash-retried so far."""
    stats = broker.stats()
    return {
        "serve.jobs": stats["submitted"],
        "serve.failed": stats["finished_total"]["failed"],
        "serve.retries": broker.metrics.counter("broker_job_retries_total").value,
    }


def counts_since(before: dict[str, float], broker, requests: int) -> dict[str, float]:
    """Per-request serve counts accrued since ``before``."""
    return {name: (value - before[name]) / max(1, requests)
            for name, value in serve_counts(broker).items()}


def layer_metrics(fold: dict, timers: Timers, requests: int, wall_s: float,
                  extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-request per-layer metrics from a span fold, the benchmark timers
    and workload-specific figures in ``extra``; every name in
    :data:`METRIC_UNITS` is present, zero where the workload never reaches
    that layer.  Live-plane shares are of ``wall_s``, the timed requests'
    summed wall time."""
    per = 1.0 / max(1, requests)

    def total(name: str) -> float:
        return fold.get(name, (0.0, 0.0, 0))[1]

    def own(name: str) -> float:
        return fold.get(name, (0.0, 0.0, 0))[0]

    values: dict[str, float] = {name: 0.0 for name in METRIC_UNITS}
    for stage in AGENT_STAGES + ("executor",):
        values[f"stage.{stage}_s"] = total(f"stage.{stage}") * per
    values["executor.glue_s"] = own("stage.executor") * per
    executor = total("stage.executor")
    for entry in TOOL_ENTRIES:
        name = "tool." + entry
        values[f"{name}_pct"] = 100.0 * total(name) / executor if executor else 0.0
        values[f"{name}.calls"] = fold.get(name, (0, 0, 0))[2] * per
    # A thread backend runs the pipeline inside the dispatch span itself.
    runner = "worker.execute" if "worker.execute" in fold else "pipeline.answer"
    values["serve.queue_wait_s"] = total("queue.wait") * per
    values["serve.dispatch_s"] = total("dispatch") * per
    values["serve.worker_execute_s"] = total(runner) * per
    values["serve.dispatch_self_s"] = own("dispatch") * per
    digest_calls = timers.calls.get("artifacts.digest", 0)
    values["artifacts.digest.calls"] = digest_calls * per
    values["artifacts.digest_s"] = (
        timers.totals["artifacts.digest"] / digest_calls if digest_calls else 0.0)
    for stem in LIVE_TIMERS:
        values[f"{stem}_pct"] = (100.0 * timers.totals.get(stem, 0.0) / wall_s
                                 if wall_s else 0.0)
    unknown = set(extra) - set(METRIC_UNITS)
    if unknown:
        raise KeyError(f"per-layer figures not in the catalogue: {sorted(unknown)}")
    values.update(extra)
    return {name: (values[name], unit) for name, unit in METRIC_UNITS.items()}


def table_rows(fold: dict, timers: Timers, requests: int) -> list[tuple]:
    """The self-time table: every span name, then every benchmark timer."""
    per = 1.0 / max(1, requests)
    grand = sum(v[0] for v in fold.values()) or 1.0
    rows = []
    for name, (own, total, count) in sorted(fold.items(), key=lambda kv: -kv[1][0]):
        rows.append((name + " self", own * per, "s",
                     f"{100.0 * own / grand:5.1f}% of span self time; "
                     f"total {total * per:.4f} s, {count * per:.2f} calls"))
    for name in sorted(timers.totals):
        unit = "bytes" if name.endswith("bytes") else "s"
        rows.append((name, timers.totals[name] * per, unit,
                     f"{timers.calls[name] * per:.2f} calls"))
    return rows
