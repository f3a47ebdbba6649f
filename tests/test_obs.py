"""The unified observability plane: tracing + one metrics registry.

Covers the obs primitives in isolation, the wiring that threads trace
context across the broker/worker process boundary, the provenance join
(``Job.to_dict()`` carries ``trace_id``), the alert-to-forensic-case trace
linkage, the EventBus drop accounting regression, and the CLI export
surface (``--trace-out`` Chrome trace JSON).
"""

import json
import logging
import os
import threading

import pytest

from repro.live import ALERTS_TOPIC, EventBus, LiveConfig, run_live_replay
from repro.live.forensics import ForensicTrigger
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    TraceContext,
    Tracer,
    TraceSink,
    resolve_tracer,
)
from repro.serve import JobState, QueryBroker, ServeConfig
from repro.serve.campaign import CABLE_IMPACT_TEMPLATE
from repro.serve.scheduler import PriorityScheduler

from tests.test_forensics import _alert, _cable_failure, _state


# -- metrics primitives ------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("jobs_total")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)

    gauge = registry.gauge("queue_depth")
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3.0

    hist = registry.histogram("wait_seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["count"] == 3
    assert snap["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}
    assert snap["mean"] == pytest.approx(5.55 / 3)


def test_registry_identity_conflicts_and_names():
    registry = MetricsRegistry()
    a = registry.counter("hits", {"scope": "broker", "band": "1"})
    b = registry.counter("hits", {"band": "1", "scope": "broker"})
    assert a is b  # label order canonicalized
    assert registry.counter("hits") is not a
    with pytest.raises(TypeError):
        registry.gauge("hits", {"scope": "broker", "band": "1"})
    with pytest.raises(ValueError):
        registry.counter("bad name!")
    with pytest.raises(ValueError):
        registry.histogram("h", buckets=(1.0, 0.5))


def test_drain_deltas_and_absorb_round_trip():
    worker = MetricsRegistry()
    worker.counter("worker_jobs_total", {"slot": "0"}).inc(3)
    worker.gauge("depth").set(9)  # gauges never travel as deltas
    rows = worker.drain_deltas()
    assert rows == [("worker_jobs_total", (("slot", "0"),), 3.0)]
    assert worker.drain_deltas() == []  # high-water mark advanced
    worker.counter("worker_jobs_total", {"slot": "0"}).inc()
    assert worker.drain_deltas() == [("worker_jobs_total", (("slot", "0"),), 1.0)]

    broker = MetricsRegistry()
    broker.absorb(rows)
    broker.absorb(rows)  # rows are plain data; absorbing twice adds twice
    snap = broker.snapshot()
    assert snap["counters"]['worker_jobs_total{slot="0"}'] == 6.0


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("jobs_total", {"state": "done"}).inc(2)
    registry.gauge("depth").set(1.5)
    registry.histogram("wait_seconds", buckets=(0.5,)).observe(0.1)
    text = registry.prometheus_text()
    lines = text.strip().splitlines()
    assert "# TYPE jobs_total counter" in lines
    assert 'jobs_total{state="done"} 2' in lines
    assert "# TYPE depth gauge" in lines
    assert "depth 1.5" in lines
    assert "# TYPE wait_seconds histogram" in lines
    assert 'wait_seconds_bucket{le="0.5"} 1' in lines
    assert 'wait_seconds_bucket{le="+Inf"} 1' in lines
    assert "wait_seconds_sum 0.1" in lines
    assert "wait_seconds_count 1" in lines


def test_collector_refreshes_gauges_at_scrape_time():
    registry = MetricsRegistry()
    source = {"depth": 0}
    registry.register_collector(
        lambda reg: reg.gauge("live_depth").set(source["depth"])
    )
    source["depth"] = 7
    assert registry.snapshot()["gauges"]["live_depth"] == 7.0
    source["depth"] = 2
    assert "live_depth 2" in registry.prometheus_text()
    assert registry.snapshot(refresh=False)["gauges"]["live_depth"] == 2.0


# -- tracing primitives ------------------------------------------------------


def test_span_nesting_and_idempotent_end():
    tracer = Tracer(label="t")
    parent = tracer.start_span("job", cat="serve")
    child = tracer.start_span("dispatch", parent=parent)
    child.end()
    child.end()  # idempotent: settles from multiple paths
    parent.annotate(state="done").end()
    records = tracer.records()
    assert len(records) == 2
    by_name = {r["name"]: r for r in records}
    assert by_name["dispatch"]["parent_id"] == parent.context.span_id
    assert by_name["dispatch"]["trace_id"] == parent.context.trace_id
    assert by_name["job"]["parent_id"] is None
    assert by_name["job"]["args"]["state"] == "done"


def test_add_span_backdates_and_parents():
    tracer = Tracer(label="t", clock=lambda: 100.0)
    ctx = tracer.add_span("alert.rtt_shift", cat="alert", duration_s=2.0)
    follow = tracer.start_span("forensic.case", parent=ctx)
    follow.end(end_ts=101.0)
    alert, case = tracer.records()
    assert alert["ts"] == pytest.approx(98.0)
    assert alert["dur"] == pytest.approx(2.0)
    assert case["parent_id"] == ctx.span_id
    assert case["trace_id"] == ctx.trace_id


def test_trace_context_survives_serialization():
    ctx = TraceContext("abc123", "1-1", None).child_of()
    assert TraceContext.from_dict(ctx.to_dict()) == ctx
    assert ctx.parent_id == "1-1"


def test_tracer_bounds_its_buffer():
    tracer = Tracer(label="t", max_spans=2)
    for i in range(4):
        tracer.add_span(f"s{i}")
    stats = tracer.stats()
    assert stats["spans"] == 2
    assert stats["dropped"] == 2
    assert len(tracer.drain()) == 2
    assert tracer.records() == []


def test_null_tracer_is_inert():
    assert resolve_tracer(None) is NULL_TRACER
    tracer = Tracer(label="x")
    assert resolve_tracer(tracer) is tracer
    assert not NULL_TRACER.enabled
    span = NULL_TRACER.start_span("anything", parent=NULL_SPAN)
    assert span is NULL_SPAN
    span.annotate(a=1).end()
    assert NULL_TRACER.add_span("x") is None
    assert NULL_TRACER.drain() == []
    assert NULL_TRACER.ingest([{"name": "s"}]) == 0


def test_chrome_export_schema(tmp_path):
    tracer = Tracer(label="broker")
    root = tracer.start_span("job", cat="serve", ticket="job-1")
    tracer.start_span("dispatch", parent=root).end()
    root.end()
    path = tmp_path / "trace.json"
    TraceSink(str(path)).write(tracer.records())
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(meta) == 1 and meta[0]["args"]["name"] == "broker"
    assert {e["name"] for e in spans} == {"job", "dispatch"}
    for event in spans:
        assert isinstance(event["ts"], int)
        assert isinstance(event["dur"], int) and event["dur"] >= 1
        assert event["args"]["trace_id"] == root.context.trace_id
        assert "span_id" in event["args"] and "parent_id" in event["args"]


# -- EventBus drop accounting (regression: drops were silent) ----------------


def test_bus_drops_are_counted_and_warned_once(caplog):
    registry = MetricsRegistry()
    bus = EventBus(metrics=registry)
    sub = bus.subscribe("alerts", name="slowpoke", maxlen=2)
    with caplog.at_level(logging.WARNING, logger="repro.live.bus"):
        for i in range(5):
            bus.publish("alerts", {"n": i})
    assert sub.dropped == 3
    assert sub.stats()["dropped"] == 3
    assert bus.stats()["dropped_total"] == 3
    # Oldest shed first: the survivors are the newest maxlen messages.
    assert [m["n"] for m in sub.drain()] == [3, 4]
    snap = registry.snapshot()
    key = 'bus_dropped_total{subscriber="slowpoke",topic="alerts"}'
    assert snap["counters"][key] == 3.0
    assert snap["counters"]['bus_published_total{topic="alerts"}'] == 5.0
    warnings = [r for r in caplog.records if "dropping oldest" in r.message]
    assert len(warnings) == 1  # once per subscriber, not per message


# -- serve integration: spans across the broker and its backends -------------


def _span_index(records):
    return {r["span_id"]: r for r in records}


def test_thread_backend_trace_topology_and_ledger_join(world):
    query = CABLE_IMPACT_TEMPLATE.format(cable=world.cable_names()[0])
    with QueryBroker(world, config=ServeConfig(workers=1,
                                               tracing=True)) as broker:
        ticket = broker.submit(query)
        job = broker.wait(ticket)
        assert job.state is JobState.DONE
        assert job.trace_id
        # Satellite: the job's provenance joins against the trace.
        assert broker.job(ticket).to_dict()["trace_id"] == job.trace_id
        records = broker.tracer.records(job.trace_id)

    by_name = {r["name"]: r for r in records}
    for name in ("job", "queue.wait", "dispatch", "pipeline.answer"):
        assert name in by_name, sorted(by_name)
    assert any(n.startswith("stage.") for n in by_name)
    assert by_name["job"]["parent_id"] is None
    assert by_name["queue.wait"]["parent_id"] == by_name["job"]["span_id"]
    assert by_name["dispatch"]["parent_id"] == by_name["job"]["span_id"]
    assert (by_name["pipeline.answer"]["parent_id"]
            == by_name["dispatch"]["span_id"])
    stage = next(r for n, r in by_name.items() if n.startswith("stage."))
    assert stage["parent_id"] == by_name["pipeline.answer"]["span_id"]
    assert by_name["job"]["args"]["state"] == "done"


def test_process_backend_spans_cross_the_process_boundary(world):
    query = CABLE_IMPACT_TEMPLATE.format(cable=world.cable_names()[0])
    config = ServeConfig(workers=1, backend="process", tracing=True)
    with QueryBroker(world, config=config) as broker:
        ticket = broker.submit(query)
        job = broker.wait(ticket)
        assert job.state is JobState.DONE
        records = broker.tracer.records(job.trace_id)
        snap = broker.metrics.snapshot()

    by_name = {r["name"]: r for r in records}
    broker_pid = os.getpid()
    # The worker half of the chain was recorded in another process and
    # came back over the reply pipe.
    assert by_name["worker.execute"]["pid"] != broker_pid
    assert by_name["pipeline.answer"]["pid"] != broker_pid
    assert by_name["dispatch"]["pid"] == broker_pid
    # Parent/child nesting is unbroken across the pickle boundary.
    assert (by_name["worker.execute"]["parent_id"]
            == by_name["dispatch"]["span_id"])
    assert (by_name["pipeline.answer"]["parent_id"]
            == by_name["worker.execute"]["span_id"])
    # Worker-side counter deltas rode the same reply and were absorbed.
    assert snap["counters"]['worker_jobs_total{slot="0"}'] >= 1.0


def test_scheduler_queue_metrics():
    registry = MetricsRegistry()
    scheduler = PriorityScheduler(metrics=registry)
    scheduler.push("a", priority=0)
    scheduler.push("b", priority=2)
    assert registry.gauge("scheduler_queue_depth").value == 2.0
    assert scheduler.pop(timeout=1) == "b"  # higher band first
    assert scheduler.pop(timeout=1) == "a"
    assert registry.gauge("scheduler_queue_depth").value == 0.0
    snap = registry.snapshot()
    assert snap["counters"]["scheduler_pushed_total"] == 2.0
    assert snap["histograms"]['scheduler_queue_wait_seconds{band="0"}']["count"] == 1
    assert snap["histograms"]['scheduler_queue_wait_seconds{band="2"}']["count"] == 1


# -- the alert-to-forensics trace link ---------------------------------------


def test_forensic_case_parents_under_its_alert_trace(world):
    cable_id, links = _cable_failure(world, "MedLoop")
    config = ServeConfig(workers=2, tracing=True)
    with QueryBroker(world, config=config) as broker:
        bus = EventBus(metrics=broker.metrics)
        trigger = ForensicTrigger(bus, broker)
        assert trigger.tracer is broker.tracer
        trigger.on_epoch(_state(world, 0))
        # Mint the alert's trace the way DetectorBank does, and attach it.
        alert = _alert(epoch=1, series="DE->JP")
        ctx = broker.tracer.add_span("alert.rtt_shift", cat="alert",
                                     detector="t", series="DE->JP")
        alert["trace"] = ctx.to_dict()
        bus.publish(ALERTS_TOPIC, alert)
        opened = trigger.on_epoch(
            _state(world, 1, failed_links=links, failed_cables=(cable_id,)))
        assert len(opened) == 1
        case = opened[0]
        assert case.trace_id == ctx.trace_id
        assert case.to_dict()["trace_id"] == ctx.trace_id
        trigger.collect(timeout=240)
        assert case.verdict == "confirmed"
        records = broker.tracer.records(ctx.trace_id)
        snap = broker.metrics.snapshot()

    by_name = {r["name"]: r for r in records}
    case_span = by_name["forensic.case"]
    assert case_span["parent_id"] == ctx.span_id
    assert case_span["args"]["verdict"] == "confirmed"
    # The triggered query's whole span tree shares the alert's trace.
    for name in ("job", "queue.wait", "dispatch", "pipeline.answer"):
        assert by_name[name]["trace_id"] == ctx.trace_id
    assert by_name["job"]["parent_id"] == case_span["span_id"]
    assert snap["counters"]['forensic_cases_total{verdict="confirmed"}'] == 1.0
    hist = snap["histograms"]["forensic_verdict_latency_seconds"]
    assert hist["count"] == 1


def test_live_replay_publishes_metrics_snapshots(world):
    report = run_live_replay(world=world,
                             config=LiveConfig(epochs=3, workers=1))
    assert report.bus_stats["published"]["metrics"] == 3
    counters = report.metrics["counters"]
    assert counters['bus_published_total{topic="metrics"}'] == 3.0
    assert counters["broker_jobs_submitted_total"] >= 1.0
    assert "scheduler_queue_depth" in report.metrics["gauges"]
    assert report.to_dict()["metrics"] == report.metrics


# -- CLI export surface ------------------------------------------------------


def test_cli_single_query_trace_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    rc = main(["Identify the impact at a country level due to SeaMeWe-5 "
               "cable failure", "--trace-out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "pipeline.answer" in names
    assert any(n.startswith("stage.") for n in names)
    capsys.readouterr()


# -- label-value escaping ----------------------------------------------------


def test_prometheus_label_values_are_escaped():
    """Backslash, double-quote and newline in a label value must render
    per the Prometheus text exposition rules, not tear the line."""
    registry = MetricsRegistry()
    hostile = 'a\\b"c\nd'
    registry.counter("probe_total", {"path": hostile, "ok": "clean"}).inc()
    text = registry.prometheus_text()
    assert 'path="a\\\\b\\"c\\nd"' in text
    assert 'ok="clean"' in text
    # The exposition itself stays one-line-per-sample.
    sample_lines = [l for l in text.splitlines() if l.startswith("probe_total")]
    assert len(sample_lines) == 1 and sample_lines[0].endswith(" 1")
    # The snapshot key uses the same rendering, and the SLO engine's
    # key parser round-trips it back to the original label value.
    from repro.obs.health import _matches

    key = next(iter(registry.snapshot()["counters"]))
    assert _matches(key, "probe_total", {"path": hostile})
    assert not _matches(key, "probe_total", {"path": 'a\\b"c'})


# -- tracer thread-safety ----------------------------------------------------


def test_tracer_ingest_and_drain_under_concurrent_writers():
    """Many writers (ingest batches + live spans) against a concurrent
    drainer: no row may be lost or double-counted — every produced row is
    either drained, still buffered, or counted as dropped — and listeners
    see exactly the kept rows."""
    tracer = Tracer(label="hammer", max_spans=2_000)
    seen_by_listener = []
    tracer.add_listener(seen_by_listener.extend)
    writers, batches, batch_size = 8, 40, 5
    produced = writers * batches * batch_size
    start = threading.Barrier(writers + 1)
    drained = []

    def ingest_worker(worker_id: int) -> None:
        start.wait()
        for batch in range(batches):
            tracer.ingest([
                {"name": f"w{worker_id}.b{batch}.r{row}", "cat": "test",
                 "trace_id": f"t{worker_id}", "span_id": f"s{batch}-{row}",
                 "parent_id": None, "pid": os.getpid(), "label": "hammer",
                 "start_ts": 0.0, "end_ts": 0.0, "args": {}}
                for row in range(batch_size)
            ])

    def drain_worker() -> None:
        start.wait()
        for _ in range(200):
            drained.extend(tracer.drain())

    threads = [threading.Thread(target=ingest_worker, args=(i,))
               for i in range(writers)]
    threads.append(threading.Thread(target=drain_worker))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    remaining = tracer.records()
    dropped = tracer.stats()["dropped"]
    assert len(drained) + len(remaining) + dropped == produced
    # No torn/duplicated rows among the kept ones.
    kept_names = [r["name"] for r in drained + remaining]
    assert len(kept_names) == len(set(kept_names))
    assert len(seen_by_listener) == len(drained) + len(remaining)


def test_tracer_add_span_races_with_ingest():
    """Live span recording and cross-process ingest interleave without
    corrupting the bounded buffer (the drop path included)."""
    tracer = Tracer(label="mixed", max_spans=300)
    start = threading.Barrier(4)

    def spanner() -> None:
        start.wait()
        for i in range(200):
            tracer.add_span(f"live.{i}", cat="test")

    def ingester(worker_id: int) -> None:
        start.wait()
        for i in range(200):
            tracer.ingest([{
                "name": f"remote.{worker_id}.{i}", "cat": "test",
                "trace_id": "t", "span_id": f"{worker_id}-{i}",
                "parent_id": None, "pid": 999, "label": "remote",
                "start_ts": 0.0, "end_ts": 0.0, "args": {},
            }])

    threads = [threading.Thread(target=spanner),
               threading.Thread(target=ingester, args=(1,)),
               threading.Thread(target=ingester, args=(2,)),
               threading.Thread(target=spanner)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = tracer.stats()
    assert stats["spans"] == 300  # bounded: the buffer never overshoots
    assert stats["spans"] + stats["dropped"] == 800
