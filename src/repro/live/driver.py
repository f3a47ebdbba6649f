"""The live replay driver: a scenario timeline run end-to-end.

Wires every live piece together — timeline, telemetry feeds, detector bank,
standing queries over a :class:`QueryBroker` — and steps the world epoch by
epoch at a configurable pace.  The run is scored against the timeline's own
ground truth (which epoch each incident fired) and reported as a
:class:`LiveReport`: epochs/sec, per-incident alert-detection latency,
standing-query cache economics, and broker/bus stats.  With a
``cache_dir``, the artifact cache is loaded before and spilled after the
replay, so a re-run serves unchanged epochs without recomputing anything.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.live.bus import EventBus
from repro.live.clock import SimulationClock, TimelineEvent, WorldTimeline
from repro.live.detectors import DetectorBank
from repro.live.forensics import ForensicTrigger, TriggerPolicy
from repro.live.standing import EpochShardPool, StandingQuery, StandingQueryManager
from repro.live.telemetry import ALERTS_TOPIC, BGPFeed, TracerouteFeed
from repro.obs import (
    HEALTH_TOPIC,
    METRICS_TOPIC,
    ObsServer,
    SloEngine,
    load_slo_specs,
)
from repro.serve.broker import QueryBroker, ServeConfig
from repro.serve.cache import cache_file_path
from repro.synth.scenarios import cable_cut_event
from repro.synth.world import SyntheticWorld, default_world

#: The default standing query — the paper's §4.3 forensic question, asked
#: continuously: every epoch, "did a cable break, and which one?".
FORENSIC_STANDING_QUERY = (
    "A sudden increase in latency was observed from European probes to "
    "Asian destinations starting three days ago. Determine if a submarine "
    "cable failure caused this, and if so, identify the specific cable."
)


@dataclass
class LiveConfig:
    """Tunables for one replay."""

    epochs: int = 24
    epoch_seconds: float = 3600.0
    pace_s: float = 0.0  # real seconds per epoch; 0 = as fast as possible
    workers: int = 2
    backend: str = "thread"  # standing-query execution backend (see serve.backends)
    cache_enabled: bool = True
    cache_dir: str | None = None
    pair_count: int = 8
    samples_per_pair: int = 4
    standing_every_n_epochs: int = 1
    #: Evolved-world shards retained by the shared epoch-shard pool before
    #: the least recently used idle one is evicted (see standing.py).
    max_epoch_shards: int = 8
    #: Close the loop: alerts spawn forensic queries (see forensics.py).
    forensics: bool = False
    #: Trace the replay (epoch ticks, alerts, cases, every served job) when
    #: the driver builds its own broker; a passed-in broker keeps whatever
    #: tracer it was constructed with.
    tracing: bool = False
    result_timeout_s: float | None = 120.0
    #: Serve ``/metrics``, ``/healthz``, ``/debug/flight`` and
    #: ``/debug/broker`` on this port for the duration of the replay
    #: (``None`` = no server; ``0`` = an ephemeral port).  Setting it also
    #: arms the SLO engine and flight recorder.
    obs_port: int | None = None
    #: Explicit :class:`~repro.obs.SloSpec` list; overrides ``slo_config``.
    slo_specs: list | None = None
    #: Path of a JSON SLO spec file (the ``--slo-config`` flag).
    slo_config: str | None = None
    #: Run the SLO engine (evaluated once per epoch) even without a server.
    health: bool = False
    #: Run the crash flight recorder even without a server; dumps land in
    #: ``flight_dir`` (defaulting to ``cache_dir``, next to the artifacts).
    flight: bool = False
    flight_dir: str | None = None
    #: Write-ahead journal directory for the replay's broker (``None`` =
    #: no journal).  A journaled replay records submissions, completions,
    #: standing registrations and forensic case transitions, so a killed
    #: replay resumes instead of recomputing (see serve/journal.py).
    journal_dir: str | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class LiveReport:
    """Everything one replay produced and what it cost."""

    epochs: int
    duration_s: float
    alerts: list[dict]
    incident_epochs: dict[str, int]
    detection: dict[str, dict]
    standing_results: list[dict]
    standing_stats: dict
    broker_stats: dict
    bus_stats: dict
    #: BGP collector route-cache economics: how much re-convergence work the
    #: incremental tables avoided across the replay (see BGPCollectorSim).
    routing_stats: dict = field(default_factory=dict)
    #: Closed-loop forensics: one record per alert-triggered case, plus the
    #: trigger plane's economics (empty when forensics is disabled).
    forensic_cases: list[dict] = field(default_factory=list)
    forensic_stats: dict = field(default_factory=dict)
    #: Final snapshot of the broker's unified metrics registry.
    metrics: dict = field(default_factory=dict)
    #: The SLO engine's final verdict (empty when the health plane was off).
    health: dict = field(default_factory=dict)
    #: Flight-recorder postmortems written during the replay.
    flight_dumps: list = field(default_factory=list)
    cache_file: str | None = None
    epoch_log: list[dict] = field(default_factory=list)

    @property
    def epochs_per_sec(self) -> float:
        return self.epochs / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_detection_latency_epochs(self) -> float | None:
        latencies = [
            row["latency_epochs"]
            for row in self.detection.values()
            if row["latency_epochs"] is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    @property
    def detected_incidents(self) -> int:
        return sum(
            1 for row in self.detection.values() if row["latency_epochs"] is not None
        )

    @property
    def completed_cases(self) -> int:
        return sum(1 for c in self.forensic_cases if c["state"] == "done")

    @property
    def confirmed_cases(self) -> int:
        return sum(1 for c in self.forensic_cases if c["verdict"] == "confirmed")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "duration_s": round(self.duration_s, 4),
            "epochs_per_sec": round(self.epochs_per_sec, 2),
            "alerts": self.alerts,
            "incident_epochs": self.incident_epochs,
            "detection": self.detection,
            "mean_detection_latency_epochs": self.mean_detection_latency_epochs,
            "standing_results": self.standing_results,
            "standing_stats": self.standing_stats,
            "broker_stats": self.broker_stats,
            "bus_stats": self.bus_stats,
            "routing_stats": self.routing_stats,
            "forensic_cases": self.forensic_cases,
            "forensic_stats": self.forensic_stats,
            "metrics": self.metrics,
            "health": self.health,
            "flight_dumps": self.flight_dumps,
            "cache_file": self.cache_file,
            "epoch_log": self.epoch_log,
        }


def default_cut_epoch(total_epochs: int) -> int:
    """Where the canonical cut lands in a replay of ``total_epochs``: a third
    of the way in (capped at 8), leaving detectors a warmup baseline."""
    return min(8, max(1, total_epochs // 3))


def default_cable_cut_timeline(
    world: SyntheticWorld,
    cable_name: str | None = None,
    cut_epoch: int = 8,
    outage_epochs: int = 10,
) -> list[TimelineEvent]:
    """A canonical incident: one well-connected cable cut, later repaired.

    Defaults to the cable carrying the most IP links so the cut is loud in
    both telemetry streams.
    """
    if cable_name is None:
        cable_id = max(
            world.links_by_cable, key=lambda c: len(world.links_by_cable[c])
        )
        cable_name = world.cables[cable_id].name
    event = cable_cut_event(world, cable_name)
    return [TimelineEvent(event=event, start_epoch=cut_epoch,
                          duration_epochs=outage_epochs)]


def _score_detection(
    timeline: WorldTimeline, alerts: list[dict]
) -> dict[str, dict]:
    """Per incident: the first alert at or after its epoch, and the lag."""
    scored: dict[str, dict] = {}
    for event_id, incident_epoch in timeline.incident_epochs().items():
        candidates = [a for a in alerts if a["epoch"] >= incident_epoch]
        first = min(candidates, key=lambda a: a["epoch"]) if candidates else None
        scored[event_id] = {
            "incident_epoch": incident_epoch,
            "first_alert_epoch": first["epoch"] if first else None,
            "first_alert_kind": first["kind"] if first else None,
            "latency_epochs": (first["epoch"] - incident_epoch) if first else None,
        }
    return scored


def run_live_replay(
    world: SyntheticWorld | None = None,
    timeline_events: list[TimelineEvent] | None = None,
    config: LiveConfig | None = None,
    standing_queries: list[StandingQuery] | None = None,
    broker: QueryBroker | None = None,
    registry=None,
    trigger_policy: TriggerPolicy | None = None,
) -> LiveReport:
    """Run one scenario timeline end-to-end and score it.

    Pass an already-started ``broker`` to reuse its (warm) cache across
    replays; otherwise one is built (over ``registry``, when given) and
    shut down internally.  The default standing-query set is the
    continuous forensic question.  With ``config.forensics`` the
    closed loop is armed: a :class:`ForensicTrigger` (under
    ``trigger_policy``, defaulting to :class:`TriggerPolicy`) turns
    detector alerts into high-priority forensic queries and joins their
    verdicts into the report.
    """
    cfg = config or LiveConfig()
    world = world or default_world()
    events = (
        timeline_events
        if timeline_events is not None
        else default_cable_cut_timeline(world, cut_epoch=default_cut_epoch(cfg.epochs))
    )
    clock = SimulationClock(epoch_seconds=cfg.epoch_seconds, pace_s=cfg.pace_s)

    # Serving an obs port implies the full health plane: SLO engine +
    # flight recorder, whatever the individual flags say.
    flight_on = cfg.flight or cfg.obs_port is not None
    health_on = (cfg.health or cfg.obs_port is not None
                 or cfg.slo_specs is not None or bool(cfg.slo_config))
    owns_broker = broker is None
    if broker is None:
        broker = QueryBroker(
            world,
            registry=registry,
            config=ServeConfig(workers=cfg.workers, backend=cfg.backend,
                               cache_enabled=cfg.cache_enabled,
                               tracing=cfg.tracing,
                               flight=flight_on,
                               flight_dir=cfg.flight_dir or cfg.cache_dir,
                               journal_dir=cfg.journal_dir),
        ).start()
    # A passed-in broker keeps its own recorder (or none); the driver never
    # retrofits one, so reused brokers behave identically across replays.
    flight = broker.flight
    # The broker's tracer and registry are THE obs plane for the replay:
    # epoch ticks, bus accounting, alert spans and forensic cases all land
    # where the served jobs' spans already live.
    timeline = WorldTimeline(world, events, clock=clock, tracer=broker.tracer)
    cache_file = None
    if cfg.cache_dir and broker.cache is not None:
        cache_file = cache_file_path(cfg.cache_dir)
        if os.path.exists(cache_file):
            broker.cache.load(cache_file)

    bus = EventBus(metrics=broker.metrics)
    engine = None
    if health_on:
        specs = cfg.slo_specs
        if specs is None and cfg.slo_config:
            specs = load_slo_specs(cfg.slo_config)
        engine = SloEngine(broker.metrics, specs=specs, bus=bus, flight=flight)
    if flight is not None:
        # The black box rides the bus: recent alerts and health events are
        # part of any postmortem's context.
        flight.attach_bus(bus, (ALERTS_TOPIC, HEALTH_TOPIC))
    server = None
    if cfg.obs_port is not None:
        server = ObsServer(port=cfg.obs_port, registry=broker.metrics,
                           health=engine, flight=flight, broker=broker).start()
    traceroute_feed = TracerouteFeed(
        world, bus, pair_count=cfg.pair_count, samples_per_pair=cfg.samples_per_pair
    )
    bgp_feed = BGPFeed(world, bus)
    bank = DetectorBank(bus, tracer=broker.tracer, metrics=broker.metrics)
    # One shard pool shared by every plane that materializes evolved worlds,
    # so standing queries and triggered forensics reuse each other's shards
    # and their combined population stays LRU-bounded.
    pool = EpochShardPool(broker, max_epoch_shards=cfg.max_epoch_shards)
    manager = StandingQueryManager(broker, pool=pool)
    # Both planes consume route *diffs*: the feed advances the cursor, the
    # standing plane reports off the same one.  (The collector's cache and
    # repair counters reach broker.metrics through the broker's scrape-time
    # _refresh_routing collector — the feed's sim is memoized on the world.)
    manager.attach_delta_stream(bgp_feed.delta_stream)
    trigger = (
        ForensicTrigger(bus, broker, pool=pool, policy=trigger_policy,
                        timeline=timeline)
        if cfg.forensics else None
    )
    if standing_queries is None:
        standing_queries = [StandingQuery(
            name="forensic-watch",
            query=FORENSIC_STANDING_QUERY,
            every_n_epochs=cfg.standing_every_n_epochs,
        )]
    for sq in standing_queries:
        manager.register(sq)
    # A journaled replay resumed after a crash re-arms whatever standing
    # queries were live when it died (explicit registrations above win on
    # name conflicts).
    manager.restore_registrations()

    standing_results: list[dict] = []
    epoch_log: list[dict] = []
    started = time.perf_counter()
    try:
        for _ in range(cfg.epochs):
            state = timeline.step()
            traceroute_feed.publish_epoch(state)
            bgp_message = bgp_feed.publish_epoch(state)
            fresh = bank.process_pending()
            cases_opened = []
            if trigger is not None:
                # Trigger before standing queries: forensic submissions are
                # high-priority, so they claim the pool first by design.
                cases_opened = trigger.on_epoch(state)
            served = manager.on_epoch(state)
            if trigger is not None:
                trigger.collect(timeout=cfg.result_timeout_s)
            computed = manager.collect(timeout=cfg.result_timeout_s)
            standing_results.extend(r.to_dict() for r in served + computed)
            # Periodic snapshot on the metrics topic: any subscriber (a
            # dashboard, a test) sees the registry's view of this epoch.
            bus.publish(METRICS_TOPIC, {
                "epoch": state.index,
                "metrics": broker.metrics.snapshot(),
            })
            if flight is not None:
                flight.record("epoch", {
                    "epoch": state.index,
                    "fingerprint": state.fingerprint,
                    "alerts": len(fresh),
                })
                flight.poll()
            if engine is not None:
                # One evaluation per epoch; /healthz evaluates on demand
                # between epochs, so either path sees a breach within one
                # window of the inducing fault.
                engine.evaluate()
            epoch_log.append({
                "epoch": state.index,
                "fingerprint": state.fingerprint,
                "changed": state.changed,
                "failed_cables": list(state.failed_cable_ids),
                "alerts": len(fresh),
                "cases_opened": len(cases_opened),
                "standing_from_cache": sum(1 for r in served if r.from_cache),
                "standing_computed": len(computed),
                "route_delta": bgp_message["route_delta"],
            })
        duration = time.perf_counter() - started
        if cache_file is not None:
            broker.cache.spill(cache_file)
        report = LiveReport(
            epochs=cfg.epochs,
            duration_s=duration,
            alerts=[a.to_dict() for a in bank.alerts],
            incident_epochs=timeline.incident_epochs(),
            detection=_score_detection(timeline, [a.to_dict() for a in bank.alerts]),
            standing_results=standing_results,
            standing_stats=manager.stats(),
            broker_stats=broker.stats(),
            bus_stats=bus.stats(),
            routing_stats=bgp_feed.collector.cache_info(),
            forensic_cases=(
                [c.to_dict() for c in trigger.cases] if trigger else []
            ),
            forensic_stats=trigger.stats() if trigger else {},
            metrics=broker.metrics.snapshot(),
            health=engine.verdict() if engine is not None else {},
            flight_dumps=flight.dump_paths() if flight is not None else [],
            cache_file=cache_file,
            epoch_log=epoch_log,
        )
    finally:
        if server is not None:
            server.stop()
        if owns_broker:
            broker.shutdown()
    return report
