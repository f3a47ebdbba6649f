"""The self-observing health plane: SLO engine, flight recorder, httpd.

Covers the :class:`SloEngine` window math and multi-window burn-rate rule
under a fake clock, breach/recovery events on the bus, the
:class:`FlightRecorder` ring/dump lifecycle, the :class:`ObsServer`
endpoints over live components, the serve-plane wiring (crash retries
carry dump paths into the ledger), and — marked ``slow`` — the
acceptance path: ``/healthz`` flips from 200 to non-200 within one
evaluation window of an induced worker crash loop during a live replay.
"""

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.live import EventBus, LiveConfig, run_live_replay
from repro.obs import (
    HEALTH_TOPIC,
    FlightRecorder,
    MetricsRegistry,
    ObsServer,
    SloEngine,
    SloSpec,
    Tracer,
    default_slo_specs,
    load_slo_specs,
)
from repro.serve import JobState, QueryBroker, ServeConfig
from repro.serve.backends import FAULT_PARAM


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float = 1.0) -> None:
        self.now += seconds


def _engine(registry, specs, clock, **kwargs) -> SloEngine:
    return SloEngine(registry, specs=specs, clock=clock, **kwargs)


def _get(url: str):
    """(status, parsed-or-text body) for a GET, treating HTTP errors as data."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            body = resp.read().decode()
            status = resp.status
    except urllib.error.HTTPError as err:
        body = err.read().decode()
        status = err.code
    try:
        return status, json.loads(body)
    except ValueError:
        return status, body


# -- SloSpec validation ------------------------------------------------------


def test_spec_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SloSpec(name="x", metric="m", objective=1.0, kind="nope")
    with pytest.raises(ValueError):
        SloSpec(name="x", metric="m", objective=1.0, comparison="==")
    with pytest.raises(ValueError):
        SloSpec(name="x", metric="m", objective=1.0, severity="warn")
    with pytest.raises(ValueError):
        SloSpec(name="x", metric="m", objective=1.0, kind="ratio")  # no denominator
    with pytest.raises(ValueError):
        SloSpec(name="x", metric="m", objective=1.0, windows_s=(60.0, 30.0))


def test_spec_round_trips_through_dict_and_json(tmp_path):
    spec = SloSpec(name="fail", metric="jobs_total", labels={"state": "failed"},
                   total_metric="jobs_total", kind="ratio", objective=0.1,
                   severity="page", windows_s=(5.0, 20.0), burn_rate=2.0)
    assert SloSpec.from_dict(spec.to_dict()) == spec

    path = tmp_path / "slos.json"
    path.write_text(json.dumps({"slos": [spec.to_dict()]}))
    loaded = load_slo_specs(str(path))
    assert loaded == [spec]
    # A bare list works too.
    path.write_text(json.dumps([spec.to_dict()]))
    assert load_slo_specs(str(path)) == [spec]


def test_default_specs_are_valid_and_cover_the_planes():
    names = {s.name for s in default_slo_specs()}
    assert {"job_failure_ratio", "worker_crash_rate", "queue_wait_p95_band0",
            "alert_verdict_latency_p95", "warm_cache_hit_rate"} <= names


# -- window math -------------------------------------------------------------


def test_no_data_is_healthy_not_breached():
    registry = MetricsRegistry()
    clock = FakeClock()
    engine = _engine(registry, [SloSpec(name="g", metric="depth",
                                        objective=1.0, kind="gauge",
                                        windows_s=(2.0, 5.0))], clock)
    statuses = engine.evaluate()
    assert statuses[0].healthy and not statuses[0].has_data
    assert engine.verdict()["healthy"]


def test_gauge_objective_breaches_in_both_windows_only():
    registry = MetricsRegistry()
    clock = FakeClock()
    spec = SloSpec(name="depth", metric="queue_depth", objective=5.0,
                   kind="gauge", windows_s=(2.0, 11.0))
    engine = _engine(registry, [spec], clock)
    gauge = registry.gauge("queue_depth")
    # Long healthy history, then one spike: the short window's mean is
    # violated but the long window's mean stays under — no breach
    # (anti-flap).
    for _ in range(12):
        gauge.set(1.0)
        engine.evaluate()
        clock.tick()
    gauge.set(30.0)
    status = {s.spec.name: s for s in engine.evaluate()}["depth"]
    assert status.healthy, (status.value_short, status.value_long)
    assert status.value_short > 5.0 >= status.value_long
    clock.tick()
    # Sustained spike: both windows violated -> breach.
    for _ in range(15):
        gauge.set(30.0)
        engine.evaluate()
        clock.tick()
    status = {s.spec.name: s for s in engine.evaluate()}["depth"]
    assert not status.healthy and status.has_data
    assert status.value_short > 5.0 and status.value_long > 5.0


def test_rate_and_ratio_windows_use_counter_deltas():
    registry = MetricsRegistry()
    clock = FakeClock()
    specs = [
        SloSpec(name="rate", metric="events_total", objective=2.0,
                kind="rate", windows_s=(3.0, 6.0)),
        SloSpec(name="ratio", metric="events_total",
                labels={"state": "bad"}, total_metric="events_total",
                kind="ratio", objective=0.25, windows_s=(3.0, 6.0)),
    ]
    engine = _engine(registry, specs, clock)
    for _ in range(10):
        registry.counter("events_total", {"state": "good"}).inc(1)
        registry.counter("events_total", {"state": "bad"}).inc(3)
        engine.evaluate()
        clock.tick()
    by_name = {s.spec.name: s for s in engine.evaluate()}
    # 4 events/s > 2/s and 3 bad of 4 = 0.75 > 0.25.
    assert not by_name["rate"].healthy
    assert by_name["rate"].value_short == pytest.approx(4.0, rel=0.35)
    assert not by_name["ratio"].healthy
    assert by_name["ratio"].value_short == pytest.approx(0.75, abs=0.01)


def test_burn_rate_scales_the_ratio_threshold():
    registry = MetricsRegistry()
    clock = FakeClock()
    spec = SloSpec(name="r", metric="bad_total", total_metric="all_total",
                   kind="ratio", objective=0.2, burn_rate=3.0,
                   windows_s=(2.0, 4.0))
    engine = _engine(registry, [spec], clock)
    # 40% failure: over the objective (0.2) but under objective*burn (0.6).
    for _ in range(8):
        registry.counter("bad_total").inc(2)
        registry.counter("all_total").inc(5)
        engine.evaluate()
        clock.tick()
    assert {s.spec.name: s for s in engine.evaluate()}["r"].healthy


def test_percentile_estimates_from_histogram_bucket_deltas():
    registry = MetricsRegistry()
    clock = FakeClock()
    spec = SloSpec(name="p95", metric="wait_seconds", kind="percentile",
                   percentile=0.95, objective=0.5, windows_s=(3.0, 8.0))
    engine = _engine(registry, [spec], clock)
    hist = registry.histogram("wait_seconds", buckets=(0.1, 0.5, 2.0))
    for _ in range(8):
        for _ in range(20):
            hist.observe(0.05)  # all fast: p95 estimate = 0.1 <= 0.5
        engine.evaluate()
        clock.tick()
    assert {s.spec.name: s for s in engine.evaluate()}["p95"].healthy
    for _ in range(8):
        for _ in range(20):
            hist.observe(1.5)  # now slow: p95 lands in the 2.0 bucket
        engine.evaluate()
        clock.tick()
    status = {s.spec.name: s for s in engine.evaluate()}["p95"]
    assert not status.healthy
    assert status.value_short == pytest.approx(2.0)


def test_label_subset_matching_sums_across_series():
    registry = MetricsRegistry()
    clock = FakeClock()
    # No labels on the spec: both states aggregate into the denominator.
    spec = SloSpec(name="agg", metric="jobs_total", objective=10.0,
                   kind="rate", windows_s=(2.0, 4.0))
    engine = _engine(registry, [spec], clock)
    for _ in range(6):
        registry.counter("jobs_total", {"state": "done"}).inc(2)
        registry.counter("jobs_total", {"state": "failed"}).inc(1)
        engine.evaluate()
        clock.tick()
    status = {s.spec.name: s for s in engine.evaluate()}["agg"]
    assert status.has_data
    # Short window spans the last 2 fake-clock seconds and the final
    # sample adds nothing: one labelled round (2 done + 1 failed) over
    # 2 s = 1.5/s — both states summed into one series.
    assert status.value_short == pytest.approx(1.5)


# -- transitions: events, metrics, flight ------------------------------------


def test_breach_and_recovery_publish_health_events():
    registry = MetricsRegistry()
    clock = FakeClock()
    bus = EventBus(metrics=registry)
    sub = bus.subscribe(HEALTH_TOPIC, "test")
    spec = SloSpec(name="g", metric="depth", objective=1.0, kind="gauge",
                   windows_s=(2.0, 4.0), severity="ticket")
    engine = _engine(registry, [spec], clock, bus=bus)
    gauge = registry.gauge("depth")
    for _ in range(6):
        gauge.set(9.0)
        engine.evaluate()
        clock.tick()
    events = sub.drain()
    assert [e["kind"] for e in events] == ["slo_breach"]
    assert events[0]["slo"] == "g" and events[0]["severity"] == "ticket"
    assert registry.counter("slo_breaches_total",
                            {"slo": "g", "severity": "ticket"}).value == 1.0
    assert registry.gauge("slo_healthy").value == 0.0
    # Repeated breached evaluations do not re-publish (transition-only).
    gauge.set(9.0)
    engine.evaluate()
    assert sub.drain() == []
    for _ in range(6):
        gauge.set(0.0)
        engine.evaluate()
        clock.tick()
    recovered = sub.drain()
    assert [e["kind"] for e in recovered] == ["slo_recovered"]
    assert engine.verdict()["healthy"]
    assert registry.gauge("slo_healthy").value == 1.0


def test_page_breach_dumps_the_flight_recorder(tmp_path):
    registry = MetricsRegistry()
    clock = FakeClock()
    flight = FlightRecorder(dump_dir=str(tmp_path), registry=registry)
    spec = SloSpec(name="pager", metric="depth", objective=1.0, kind="gauge",
                   windows_s=(2.0, 4.0), severity="page")
    engine = _engine(registry, [spec], clock, flight=flight)
    gauge = registry.gauge("depth")
    for _ in range(6):
        gauge.set(7.0)
        engine.evaluate()
        clock.tick()
    paths = flight.dump_paths()
    assert len(paths) == 1
    doc = json.loads(open(paths[0]).read())
    assert doc["reason"] == "slo_page"
    assert doc["extra"]["slos"] == ["pager"]
    assert any(r["kind"] == "slo_page" for r in doc["records"])


# -- flight recorder ---------------------------------------------------------


def test_flight_ring_is_bounded_and_dump_is_self_contained(tmp_path):
    registry = MetricsRegistry()
    registry.counter("jobs_total").inc(3)
    flight = FlightRecorder(dump_dir=str(tmp_path), capacity=16,
                            registry=registry, config={"workers": 2},
                            git_sha="abc123")
    for i in range(40):
        flight.record("tick", {"i": i})
    flight.heartbeat("worker-0", pid=42)
    flight.heartbeat("worker-0", pid=42)
    flight.add_source("fake", lambda: {"depth": 7})
    flight.add_source("dying", lambda: 1 / 0)
    path = flight.dump("unit test!", extra={"note": "hi"})
    assert os.path.basename(path).startswith("flight-")
    assert "unit-test" in path and not os.path.exists(path + ".tmp")
    doc = json.loads(open(path).read())
    assert doc["git_sha"] == "abc123"
    assert doc["config"] == {"workers": 2}
    assert doc["extra"] == {"note": "hi"}
    # Ring kept only the newest `capacity` records.
    assert len(doc["records"]) == 16
    assert doc["records"][-1]["data"]["i"] == 39
    assert doc["heartbeats"]["worker-0"]["beats"] == 2
    assert doc["sources"]["fake"] == {"depth": 7}
    assert "ZeroDivisionError" in doc["sources"]["dying"]["error"]
    assert doc["metrics"]["counters"]["jobs_total"] == 3.0
    stats = flight.stats()
    assert stats["dumps"] == 1 and stats["records_total"] == 40


def test_flight_prunes_old_dumps(tmp_path):
    flight = FlightRecorder(dump_dir=str(tmp_path), max_dumps=3)
    paths = [flight.dump(f"r{i}") for i in range(5)]
    kept = flight.dump_paths()
    assert kept == paths[2:]
    assert all(os.path.exists(p) for p in kept)
    assert not any(os.path.exists(p) for p in paths[:2])
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p)
                                                  for p in kept)


def test_flight_tees_tracer_spans_and_drains_bus_topics(tmp_path):
    registry = MetricsRegistry()
    flight = FlightRecorder(dump_dir=str(tmp_path), registry=registry)
    tracer = Tracer(label="test")
    tracer.add_listener(flight.ingest_spans)
    tracer.add_span("job", duration_s=0.1, ticket="job-1")
    bus = EventBus(metrics=registry)
    flight.attach_bus(bus, ("alerts", HEALTH_TOPIC))
    bus.publish("alerts", {"kind": "rtt_shift"})
    bus.publish(HEALTH_TOPIC, {"kind": "slo_breach"})
    assert flight.poll() == 2
    kinds = [r["kind"] for r in json.loads(
        open(flight.dump("check")).read())["records"]]
    assert "span" in kinds
    assert "bus:alerts" in kinds and f"bus:{HEALTH_TOPIC}" in kinds


# -- httpd -------------------------------------------------------------------


def test_obs_server_endpoints_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("jobs_total", {"state": "done"}).inc(2)
    clock = FakeClock()
    flight = FlightRecorder(dump_dir=str(tmp_path), registry=registry)
    engine = _engine(registry, [SloSpec(name="g", metric="depth",
                                        objective=1.0, kind="gauge",
                                        windows_s=(2.0, 4.0))], clock)
    with ObsServer(port=0, registry=registry, health=engine,
                   flight=flight) as server:
        assert server.port != 0

        status, text = _get(server.url("/metrics"))
        assert status == 200
        assert 'jobs_total{state="done"} 2' in text

        status, verdict = _get(server.url("/healthz"))
        assert status == 200 and verdict["healthy"] and verdict["engine"]
        assert {s["name"] for s in verdict["slos"]} == {"g"}

        status, payload = _get(server.url("/debug/flight"))
        assert status == 200
        assert os.path.exists(payload["path"])
        assert payload["dump"]["reason"] == "debug_http"

        status, payload = _get(server.url("/debug/broker"))
        assert status == 503  # no broker attached

        status, payload = _get(server.url("/nope"))
        assert status == 404 and "/healthz" in payload["endpoints"]


def test_obs_server_healthz_returns_503_on_breach():
    registry = MetricsRegistry()
    clock = FakeClock()
    spec = SloSpec(name="g", metric="depth", objective=1.0, kind="gauge",
                   windows_s=(2.0, 4.0))
    engine = _engine(registry, [spec], clock)
    gauge = registry.gauge("depth")
    for _ in range(6):
        gauge.set(9.0)
        engine.evaluate()
        clock.tick()
    with ObsServer(port=0, registry=registry, health=engine) as server:
        status, verdict = _get(server.url("/healthz"))
        assert status == 503 and not verdict["healthy"]
        breached = [s for s in verdict["slos"] if not s["healthy"]]
        assert [s["name"] for s in breached] == ["g"]


def test_obs_server_without_components_degrades_cleanly():
    with ObsServer(port=0) as server:
        assert _get(server.url("/metrics"))[0] == 404
        status, verdict = _get(server.url("/healthz"))
        assert status == 200 and verdict == {"healthy": True, "engine": False,
                                             "slos": []}
        assert _get(server.url("/debug/flight"))[0] == 503


def test_obs_server_debug_broker_serves_scheduler_depths(small_world):
    broker = QueryBroker(small_world, config=ServeConfig(workers=1)).start()
    try:
        with ObsServer(port=0, registry=broker.metrics,
                       broker=broker) as server:
            status, stats = _get(server.url("/debug/broker"))
            assert status == 200
            assert "queued_by_priority" in stats["scheduler"]
            assert stats["workers"] == 1
    finally:
        broker.shutdown()


# -- serve-plane wiring ------------------------------------------------------


def test_broker_builds_recorder_and_stats_expose_it(small_world, tmp_path):
    broker = QueryBroker(
        small_world,
        config=ServeConfig(workers=1, flight=True, flight_dir=str(tmp_path),
                           tracing=True),
    ).start()
    try:
        ticket = broker.submit(
            "Identify the impact at a country level due to "
            f"{small_world.cable_names()[0]} cable failure")
        assert broker.wait(ticket, timeout=300).state is JobState.DONE
        obs = broker.stats()["obs"]
        assert obs["flight"]["dump_dir"] == str(tmp_path)
        # Spans teed from the tracer and claimer heartbeats both landed.
        assert obs["flight"]["records_total"] > 0
        assert obs["flight"]["heartbeats"] >= 1
        doc = json.loads(open(broker.flight.dump("test")).read())
        assert any(r["kind"] == "span" for r in doc["records"])
        assert doc["config"]["workers"] == 1
        assert doc["sources"]["broker"]["submitted"] == 1
    finally:
        broker.shutdown()


def test_ledger_rows_without_crashes_have_empty_flight_dump(small_world):
    broker = QueryBroker(small_world, config=ServeConfig(workers=1)).start()
    try:
        ticket = broker.submit(
            "Identify the impact at a country level due to "
            f"{small_world.cable_names()[0]} cable failure")
        broker.wait(ticket, timeout=300)
        assert broker.ledger.get(ticket).flight_dump == ""
        assert broker.ledger.get(ticket).to_dict()["flight_dump"] == ""
    finally:
        broker.shutdown()


# -- the acceptance path: /healthz during a live replay ----------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.slow
def test_live_healthz_flips_on_induced_crash_loop(small_world, tmp_path):
    """During ``run_live_replay`` with ``obs_port``, ``/healthz`` answers
    200 while the replay is healthy and non-200 within one evaluation
    window of an induced worker crash loop (every submitted job kills its
    worker; the retry crashes too, so the failure-ratio SLO pages)."""
    port = _free_port()
    broker = QueryBroker(
        small_world,
        config=ServeConfig(workers=2, backend="process", cache_enabled=False,
                           flight=True,
                           flight_dir=str(tmp_path)),
    ).start()
    # Short windows so the breach is observable seconds after the crashes,
    # not minutes: the acceptance bound is "within one evaluation window".
    spec = SloSpec(name="job_failure_ratio", metric="broker_jobs_finished_total",
                   labels={"state": "failed"},
                   total_metric="broker_jobs_finished_total", kind="ratio",
                   objective=0.1, severity="page", windows_s=(0.5, 3.0))
    config = LiveConfig(epochs=300, pace_s=0.1, obs_port=port,
                        slo_specs=[spec])
    report_box = {}

    def replay() -> None:
        report_box["report"] = run_live_replay(
            world=small_world, config=config, standing_queries=[],
            broker=broker,
        )

    thread = threading.Thread(target=replay, daemon=True)
    thread.start()
    try:
        # Phase 1: healthy. Wait for the server, then demand a clean 200.
        deadline = time.time() + 60
        status = None
        while time.time() < deadline:
            try:
                status, verdict = _get(f"http://127.0.0.1:{port}/healthz")
                break
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.05)
        assert status == 200, f"healthy replay answered {status}: {verdict}"
        assert verdict["healthy"] and verdict["engine"]

        # Phase 2: induce the crash loop. Both attempts of every job kill
        # their worker, so all four settle FAILED and the ratio hits 1.0.
        # Distinct queries, or the crash-loop circuit breaker would
        # quarantine the repeated signature instead of letting it fail.
        tickets = [
            broker.submit(f"crash probe {n}", params={FAULT_PARAM: "exit"})
            for n in range(4)
        ]
        for ticket in tickets:
            job = broker.wait(ticket, timeout=300)
            assert job.state is JobState.FAILED
        deadline = time.time() + 30
        saw_breach = False
        while time.time() < deadline:
            status, verdict = _get(f"http://127.0.0.1:{port}/healthz")
            if status == 503:
                saw_breach = True
                breached = [s["name"] for s in verdict["slos"]
                            if not s["healthy"]]
                assert breached == ["job_failure_ratio"]
                break
            time.sleep(0.05)
        assert saw_breach, "/healthz never went non-200 after the crash loop"
        # The page-severity breach also dumped a postmortem.
        assert any("slo-page" in os.path.basename(p)
                   for p in broker.flight.dump_paths())
    finally:
        thread.join(timeout=300)
    assert thread.is_alive() is False
    report = report_box["report"]
    assert report.health["breaches_total"] >= 1
    assert report.flight_dumps == broker.flight.dump_paths()
    broker.shutdown()
