"""Live subsystem: clock/timeline, bus, telemetry, detectors, standing queries."""

import json

import pytest

from repro.analysis.changepoint import StreamingCUSUM
from repro.live import (
    BGPBurstDetector,
    BGPFeed,
    DetectorBank,
    EventBus,
    LiveConfig,
    RTTChangeDetector,
    SimulationClock,
    StandingQuery,
    StandingQueryManager,
    TimelineEvent,
    TracerouteFeed,
    WorldTimeline,
    default_cable_cut_timeline,
    run_live_replay,
    timeline_from_catalog,
)
from repro.live.clock import EpochState
from repro.live.telemetry import ALERTS_TOPIC, BGP_TOPIC, TRACEROUTE_TOPIC
from repro.serve import QueryBroker, ServeConfig
from repro.synth.scenarios import cable_cut_event, default_disaster_catalog

CS1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"


def most_linked_cable(world):
    cable_id = max(world.links_by_cable, key=lambda c: len(world.links_by_cable[c]))
    return world.cables[cable_id]


# -- clock & timeline --------------------------------------------------------


def test_simulation_clock_ticks_and_paces():
    sleeps = []
    clock = SimulationClock(epoch_seconds=60.0, pace_s=0.25, sleep=sleeps.append)
    assert clock.tick() == (0, 0.0, 60.0)
    assert clock.tick() == (1, 60.0, 120.0)
    assert sleeps == [0.25, 0.25]
    assert clock.now_ts == 120.0
    with pytest.raises(ValueError):
        SimulationClock(epoch_seconds=0)


def test_timeline_event_validation_and_activity(world):
    event = cable_cut_event(world, most_linked_cable(world).name)
    item = TimelineEvent(event=event, start_epoch=3, duration_epochs=2)
    assert [item.active_at(e) for e in range(6)] == [False, False, False,
                                                    True, True, False]
    forever = TimelineEvent(event=event, start_epoch=1, duration_epochs=None)
    assert forever.active_at(500)
    with pytest.raises(ValueError):
        TimelineEvent(event=event, start_epoch=-1)
    with pytest.raises(ValueError):
        TimelineEvent(event=event, start_epoch=0, duration_epochs=0)


def test_world_timeline_fires_and_heals(world):
    cable = most_linked_cable(world)
    events = [TimelineEvent(event=cable_cut_event(world, cable.name),
                            start_epoch=2, duration_epochs=3)]
    timeline = WorldTimeline(world, events)
    states = timeline.run(7)
    # Baseline before the cut, failure during, healed after.
    assert states[0].failed_link_ids == frozenset()
    assert states[2].failed_cable_ids == (cable.id,)
    assert len(states[2].failed_link_ids) == len(world.links_on_cable(cable.id))
    assert states[5].failed_link_ids == frozenset()
    # Fingerprints: identical configuration => identical fingerprint.
    assert states[0].fingerprint == states[1].fingerprint
    assert states[2].fingerprint == states[3].fingerprint == states[4].fingerprint
    assert states[2].fingerprint != states[0].fingerprint
    assert states[5].fingerprint == states[0].fingerprint  # healed == baseline
    # The changed flag marks exactly the boundaries (and the first epoch).
    assert [s.changed for s in states] == [True, False, True, False, False,
                                           True, False]
    assert states[2].fired_event_ids == (events[0].event.id,)
    assert states[5].healed_event_ids == (events[0].event.id,)
    assert timeline.incident_epochs() == {events[0].event.id: 2}


def test_world_timeline_is_deterministic(world):
    cable = most_linked_cable(world)
    events = [TimelineEvent(event=cable_cut_event(world, cable.name),
                            start_epoch=1, duration_epochs=2)]
    a = WorldTimeline(world, events).run(4)
    b = WorldTimeline(world, events).run(4)
    assert [s.fingerprint for s in a] == [s.fingerprint for s in b]
    assert [s.failed_link_ids for s in a] == [s.failed_link_ids for s in b]


def test_timeline_from_catalog_maps_timestamps_to_epochs(world):
    catalog = default_disaster_catalog()
    items = timeline_from_catalog(world, epoch_seconds=86_400.0,
                                  duration_epochs=2, catalog=catalog)
    assert len(items) == len(catalog)
    by_id = {i.event.id: i for i in items}
    assert by_id["eq-taiwan-2026"].start_epoch == 1  # ts 86_400 / day epochs
    assert all(i.duration_epochs == 2 for i in items)


# -- event bus ---------------------------------------------------------------


def test_bus_fanout_and_isolation():
    bus = EventBus()
    fast = bus.subscribe("topic", name="fast")
    slow = bus.subscribe("topic", name="slow", maxlen=2)
    for i in range(5):
        assert bus.publish("topic", i) == 2
    assert fast.drain() == [0, 1, 2, 3, 4]
    # The slow consumer shed its own oldest messages; fast was unaffected.
    assert slow.drain() == [3, 4]
    assert slow.dropped == 3
    assert bus.stats()["dropped_total"] == 3
    assert bus.publish("nobody-listens", "x") == 0


def test_bus_pop():
    bus = EventBus()
    sub = bus.subscribe("t")
    bus.publish("t", "a")
    assert sub.pop() == "a"
    assert sub.pop() is None


# -- streaming changepoint ---------------------------------------------------


def test_streaming_cusum_flat_series_never_alarms():
    detector = StreamingCUSUM(warmup=4, threshold=4.0)
    values = [100 + 0.2 * ((i * 7) % 5 - 2) for i in range(50)]
    assert not any(detector.update(v) for v in values)
    assert detector.alarms == 0
    assert detector.baseline_mean == pytest.approx(100, abs=1)


def test_streaming_cusum_detects_shift_and_rebaselines():
    detector = StreamingCUSUM(warmup=4, threshold=4.0)
    flagged = [i for i, v in enumerate([10.0] * 8 + [15.0] * 8 + [25.0] * 8)
               if detector.update(v)]
    assert detector.alarms == 2
    assert flagged[0] == 8          # the first shifted sample
    assert 12 <= flagged[1] <= 20   # re-armed after re-baselining
    with pytest.raises(ValueError):
        StreamingCUSUM(warmup=1)


# -- telemetry feeds ---------------------------------------------------------


def _epoch(world, index, failed_links=frozenset(), failed_cables=(),
           epoch_seconds=3600.0, changed=False):
    return EpochState(
        index=index,
        window_start=index * epoch_seconds,
        window_end=(index + 1) * epoch_seconds,
        fingerprint=f"fp-{sorted(failed_links) and 'cut' or 'base'}",
        failed_link_ids=frozenset(failed_links),
        failed_cable_ids=tuple(failed_cables),
        active_event_ids=(),
        changed=changed,
    )


def test_traceroute_feed_rows_and_rtt_inflation(world):
    bus = EventBus()
    feed = TracerouteFeed(world, bus, pair_count=6, samples_per_pair=3)
    sub = bus.subscribe(TRACEROUTE_TOPIC)
    cable = most_linked_cable(world)
    dead = frozenset(l.id for l in world.links_on_cable(cable.id))

    base = feed.publish_epoch(_epoch(world, 0))
    cut = feed.publish_epoch(_epoch(world, 1, failed_links=dead))
    assert len(base["rows"]) == 6 * 3
    assert [m["epoch"] for m in sub.drain()] == [0, 1]

    # At least one series that rode the cable got slower or went dark.
    slower = [
        key for key, summary in base["series"].items()
        if key in cut["series"]
        and cut["series"][key]["median_rtt_ms"] > summary["median_rtt_ms"] * 1.05
    ]
    darkened = [k for k in cut["lost_series"] if k in base["series"]]
    assert slower or darkened


def test_traceroute_feed_is_deterministic(world):
    bus = EventBus()
    state = _epoch(world, 0)
    a = TracerouteFeed(world, bus, pair_count=4, samples_per_pair=2).measure(state)
    b = TracerouteFeed(world, bus, pair_count=4, samples_per_pair=2).measure(state)
    assert a == b


def test_bgp_feed_bursts_on_change_and_heal(world):
    bus = EventBus()
    feed = BGPFeed(world, bus)
    cable = most_linked_cable(world)
    dead = frozenset(l.id for l in world.links_on_cable(cable.id))

    quiet = feed.publish_epoch(_epoch(world, 0))
    steady = feed.publish_epoch(_epoch(world, 1))
    burst = feed.publish_epoch(_epoch(world, 2, failed_links=dead, changed=True))
    plateau = feed.publish_epoch(_epoch(world, 3, failed_links=dead))
    heal = feed.publish_epoch(_epoch(world, 4, changed=True))

    churn_level = max(quiet["update_count"], steady["update_count"])
    assert burst["update_count"] > churn_level * 3
    assert burst["withdrawals"] > 0
    # No re-burst while the failure set stays put: back to churn magnitude.
    assert plateau["update_count"] < burst["update_count"] / 3
    assert heal["update_count"] > churn_level * 3  # repairs re-announce
    assert len(bus.subscribe(BGP_TOPIC).drain()) == 0  # late subscriber sees nothing


# -- detectors ---------------------------------------------------------------


def _traceroute_message(epoch, medians, lost=()):
    return {
        "kind": "traceroute",
        "epoch": epoch,
        "window_end": (epoch + 1) * 3600.0,
        "series": {
            key: {"median_rtt_ms": value, "sample_count": 4, "loss_count": 0}
            for key, value in medians.items()
        },
        "lost_series": list(lost),
    }


def test_rtt_detector_flags_shift_epoch():
    detector = RTTChangeDetector(warmup=4, threshold=4.0)
    alerts = []
    for epoch in range(12):
        rtt = 80.0 if epoch < 8 else 140.0
        alerts += detector.observe(_traceroute_message(epoch, {"EU->AS": rtt}))
    assert [a.epoch for a in alerts] == [8]
    assert alerts[0].kind == "rtt_shift"
    assert alerts[0].magnitude == pytest.approx(60.0, abs=1.0)


def test_rtt_detector_flags_series_going_dark():
    detector = RTTChangeDetector()
    detector.observe(_traceroute_message(0, {"EU->AS": 80.0}))
    alerts = detector.observe(_traceroute_message(1, {}, lost=["EU->AS"]))
    assert [a.kind for a in alerts] == ["rtt_loss"]
    # Transition-only: staying dark does not re-alarm every epoch...
    assert detector.observe(_traceroute_message(2, {}, lost=["EU->AS"])) == []
    # ...but recovering and darkening again does.
    detector.observe(_traceroute_message(3, {"EU->AS": 80.0}))
    again = detector.observe(_traceroute_message(4, {}, lost=["EU->AS"]))
    assert [a.kind for a in again] == ["rtt_loss"]
    # A series that never had signal does not alarm.
    assert detector.observe(_traceroute_message(5, {}, lost=["XX->YY"])) == []


def test_bgp_burst_detector_needs_warmup_and_magnitude():
    detector = BGPBurstDetector(warmup=3, burst_factor=4.0, min_updates=50)
    quiet = [{"kind": "bgp", "epoch": e, "window_end": 0.0, "update_count": 12,
              "withdrawals": 0} for e in range(3)]
    for message in quiet:
        assert detector.observe(message) == []
    big = {"kind": "bgp", "epoch": 3, "window_end": 0.0, "update_count": 900,
           "withdrawals": 40}
    alerts = detector.observe(big)
    assert len(alerts) == 1 and alerts[0].kind == "bgp_burst"
    # Bursts do not contaminate the quiet baseline.
    again = detector.observe({**big, "epoch": 4})
    assert len(again) == 1


def test_detector_bank_republishes_alerts():
    bus = EventBus()
    bank = DetectorBank(bus, rtt=RTTChangeDetector(warmup=3, threshold=4.0))
    listener = bus.subscribe(ALERTS_TOPIC)
    for epoch in range(8):
        rtt = 70.0 if epoch < 6 else 160.0
        bus.publish(TRACEROUTE_TOPIC, _traceroute_message(epoch, {"A->B": rtt}))
    fresh = bank.process_pending()
    assert [a.epoch for a in fresh] == [6]
    published = listener.drain()
    assert [p["epoch"] for p in published] == [6]
    assert bank.first_alert_epoch() == 6
    assert bank.first_alert_epoch(kind="bgp_burst") is None


def _bgp_message(epoch, count):
    return {"kind": "bgp", "epoch": epoch, "window_end": (epoch + 1) * 3600.0,
            "update_count": count, "withdrawals": 0, "collector": "rrc-sim"}


def test_detector_bank_dedups_duplicate_alerts_within_epoch():
    """Two burst messages in the same epoch would alarm twice; the bank
    canonicalizes them to one alert and counts the duplicate."""
    bus = EventBus()
    bank = DetectorBank(bus, bgp=BGPBurstDetector(warmup=1, burst_factor=2.0,
                                                  min_updates=10))
    listener = bus.subscribe(ALERTS_TOPIC)
    bus.publish(BGP_TOPIC, _bgp_message(0, 5))        # warmup
    bus.publish(BGP_TOPIC, _bgp_message(1, 100))      # burst
    bus.publish(BGP_TOPIC, _bgp_message(1, 100))      # duplicate, same epoch
    fresh = bank.process_pending()
    assert [a.epoch for a in fresh] == [1]
    assert bank.duplicates_dropped == 1
    assert len(listener.drain()) == 1
    # The same series bursting in a *later* epoch is a new alert.
    bus.publish(BGP_TOPIC, _bgp_message(2, 100))
    assert [a.epoch for a in bank.process_pending()] == [2]
    # The dedup memory is pruned as epochs advance, not hoarded forever.
    bus.publish(BGP_TOPIC, _bgp_message(9, 100))
    bank.process_pending()
    assert all(key[0] >= 8 for key in bank._seen)


def test_detector_bank_output_is_canonical_across_drain_order():
    """The alert sequence must not depend on which subscription drains
    first: publishing bgp-then-rtt and rtt-then-bgp yield identical
    batches, ordered by the canonical sort key."""
    def run(publish_rtt_first):
        bus = EventBus()
        bank = DetectorBank(
            bus,
            rtt=RTTChangeDetector(warmup=3, threshold=4.0),
            bgp=BGPBurstDetector(warmup=1, burst_factor=2.0, min_updates=10),
        )
        def rtt_messages():
            for epoch in range(8):
                rtt = 70.0 if epoch < 6 else 160.0
                bus.publish(TRACEROUTE_TOPIC,
                            _traceroute_message(epoch, {"A->B": rtt}))
        def bgp_messages():
            bus.publish(BGP_TOPIC, _bgp_message(0, 5))
            bus.publish(BGP_TOPIC, _bgp_message(6, 100))
        if publish_rtt_first:
            rtt_messages(); bgp_messages()
        else:
            bgp_messages(); rtt_messages()
        return [a.to_dict() for a in bank.process_pending()]

    first = run(publish_rtt_first=True)
    second = run(publish_rtt_first=False)
    assert first == second
    keys = [(a["epoch"], -a["magnitude"]) for a in first]
    assert keys == sorted(keys)


def test_first_alert_tie_breaks_deterministically():
    """Epoch ties resolve by magnitude then lexical identity — never by
    whichever subscription happened to drain first."""
    from repro.live import Alert

    bus = EventBus()
    bank = DetectorBank(bus)
    bank.alerts = [
        Alert(detector="rtt-cusum", kind="rtt_shift", series_key="B->C",
              epoch=5, ts=0.0, magnitude=10.0),
        Alert(detector="rtt-cusum", kind="rtt_shift", series_key="A->B",
              epoch=5, ts=0.0, magnitude=90.0),
        Alert(detector="bgp-burst", kind="bgp_burst", series_key="rrc-sim",
              epoch=7, ts=0.0, magnitude=99.0),
    ]
    first = bank.first_alert()
    assert (first.series_key, first.magnitude) == ("A->B", 90.0)
    assert bank.first_alert_epoch() == 5
    assert bank.first_alert(kind="bgp_burst").epoch == 7
    assert bank.first_alert(kind="rtt_loss") is None


# -- standing queries --------------------------------------------------------


def test_standing_query_validation():
    with pytest.raises(ValueError):
        StandingQuery(name="", query=CS1)
    with pytest.raises(ValueError):
        StandingQuery(name="x", query="  ")
    with pytest.raises(ValueError):
        StandingQuery(name="x", query=CS1, every_n_epochs=0)
    sq = StandingQuery(name="x", query=CS1, every_n_epochs=3)
    assert [sq.due(e) for e in range(4)] == [True, False, False, True]


def test_standing_manager_caches_by_fingerprint(world):
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        manager = StandingQueryManager(broker)
        manager.register(StandingQuery(name="watch", query=CS1))
        with pytest.raises(ValueError):
            manager.register(StandingQuery(name="watch", query=CS1))

        first = manager.on_epoch(_epoch(world, 0))
        assert first == []  # miss: submitted, not served
        computed = manager.collect(timeout=60)
        assert len(computed) == 1 and computed[0].state == "done"
        assert not computed[0].from_cache

        served = manager.on_epoch(_epoch(world, 1))  # same fingerprint
        assert len(served) == 1 and served[0].from_cache
        assert manager.collect(timeout=5) == []

        stats = manager.stats()
        assert stats == {
            "registered": 1, "evaluations": 2, "cache_hits": 1,
            "submitted": 1, "cancelled": 0, "epoch_shards": 0,
            "max_epoch_shards": 8, "shards_evicted": 0,
            "outstanding": 0, "hit_rate": 0.5,
        }
        cache_stats = broker.stats()["cache"]["per_stage"]["standing"]
        assert cache_stats == {"hits": 1, "misses": 1}


def test_standing_manager_materializes_epoch_shards(world):
    cable = most_linked_cable(world)
    dead = frozenset(l.id for l in world.links_on_cable(cable.id))
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        manager = StandingQueryManager(broker)
        manager.register(StandingQuery(name="watch", query=CS1))
        state = _epoch(world, 0, failed_links=dead, failed_cables=(cable.id,))
        manager.on_epoch(state)
        manager.collect(timeout=60)
        shard_keys = broker.world_keys()
        assert f"default@{state.fingerprint}" in shard_keys
        epoch_shard = broker.shard(f"default@{state.fingerprint}")
        assert [i.cable_name for i in epoch_shard.system.context.incidents] == [
            cable.name
        ]


def test_standing_manager_deregister_cancels_queued(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))  # never started
    manager = StandingQueryManager(broker)
    manager.register(StandingQuery(name="watch", query=CS1))
    manager.on_epoch(_epoch(world, 0))
    assert manager.stats()["outstanding"] == 1
    cancelled = manager.deregister("watch")
    assert cancelled == 1
    assert manager.names() == []
    assert manager.stats()["outstanding"] == 0
    assert broker.stats()["finished_total"]["cancelled"] == 1
    broker.shutdown()


# -- end-to-end replay -------------------------------------------------------


def test_live_replay_detects_incident_and_reuses_cache(world):
    cable = most_linked_cable(world)
    timeline = default_cable_cut_timeline(world, cable_name=cable.name,
                                          cut_epoch=3, outage_epochs=4)
    config = LiveConfig(epochs=10, workers=2, pair_count=4, samples_per_pair=2)
    broker = QueryBroker(world, config=ServeConfig(workers=2)).start()
    try:
        cold = run_live_replay(world=world, timeline_events=timeline,
                               config=config, broker=broker)
        warm = run_live_replay(world=world, timeline_events=timeline,
                               config=config, broker=broker)
    finally:
        broker.shutdown()

    # Ground truth: the cut fires at epoch 3 and an alert lands on it.
    event_id = timeline[0].event.id
    assert cold.incident_epochs == {event_id: 3}
    detection = cold.detection[event_id]
    assert detection["first_alert_epoch"] is not None
    assert detection["latency_epochs"] <= 1
    assert cold.mean_detection_latency_epochs <= 1
    assert any(a["kind"] in ("rtt_shift", "rtt_loss", "bgp_burst")
               for a in cold.alerts)

    # Cold: only the distinct world configurations were computed (baseline,
    # cut, healed==baseline => 2 submissions for 10 evaluations).
    assert cold.standing_stats["submitted"] == 2
    assert cold.standing_stats["cache_hits"] == 8

    # Warm replay against the same broker recomputes nothing at all.
    assert warm.standing_stats["submitted"] == 0
    assert warm.standing_stats["hit_rate"] == 1.0
    assert warm.detection == cold.detection
    assert warm.epochs_per_sec > cold.epochs_per_sec

    # The epoch log ties recomputation to configuration changes: only the
    # baseline epoch and the cut epoch computed; the healed epoch (identical
    # to baseline) was a cache hit.
    recomputed = [row["epoch"] for row in cold.epoch_log
                  if row["standing_computed"]]
    assert recomputed == [0, 3]
    assert cold.to_dict()["mean_detection_latency_epochs"] == \
        cold.mean_detection_latency_epochs


def test_live_replay_cache_dir_survives_restart(world, tmp_path):
    cable = most_linked_cable(world)
    timeline = default_cable_cut_timeline(world, cable_name=cable.name,
                                          cut_epoch=2, outage_epochs=3)
    config = LiveConfig(epochs=6, workers=2, pair_count=4, samples_per_pair=2,
                        cache_dir=str(tmp_path))
    first = run_live_replay(world=world, timeline_events=timeline, config=config)
    assert first.cache_file and json.load(open(first.cache_file))["version"] == 1
    # A brand-new broker (fresh process in spirit) loads the spilled cache.
    second = run_live_replay(world=world, timeline_events=timeline, config=config)
    assert second.standing_stats["submitted"] == 0
    assert second.standing_stats["hit_rate"] == 1.0


def test_live_cli_smoke(capsys):
    from repro.cli import main

    assert main(["--live", "--epochs", "9", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "epochs" in out and "incident:" in out and "standing:" in out


def test_live_cli_rejects_bad_flags(capsys):
    from repro.cli import main

    assert main(["--live", "--epochs", "0"]) == 2
    assert main(["--live", "--pace-ms", "-1"]) == 2


def test_bgp_feed_publishes_route_delta_summaries(world):
    """Epoch messages carry the route-table diff the burst rode on (None
    when the failure set did not move), and the feed's cursor only
    advances on actual transitions."""
    bus = EventBus()
    feed = BGPFeed(world, bus)
    cable = most_linked_cable(world)
    dead = frozenset(l.id for l in world.links_on_cable(cable.id))

    quiet = feed.publish_epoch(_epoch(world, 0))
    burst = feed.publish_epoch(_epoch(world, 1, failed_links=dead, changed=True))
    plateau = feed.publish_epoch(_epoch(world, 2, failed_links=dead))
    heal = feed.publish_epoch(_epoch(world, 3, changed=True))

    assert quiet["route_delta"] is None
    assert plateau["route_delta"] is None
    cut_delta = burst["route_delta"]
    assert cut_delta["changed"] + cut_delta["withdrawn"] > 0
    assert cut_delta["bytes"] > 0
    assert heal["route_delta"]["changed"] > 0  # repairs re-announce routes
    stats = feed.delta_stream.stats()
    assert stats["deltas_emitted"] == 2  # cut + heal, never the steady epochs
    # healed back to baseline: nothing is left to diff against it
    assert feed.delta_stream.advance(frozenset()).route_count == 0


def test_standing_manager_reports_attached_delta_stream(world):
    with QueryBroker(world, config=ServeConfig(workers=1)) as broker:
        manager = StandingQueryManager(broker)
        assert "route_delta" not in manager.stats()
        bus = EventBus()
        feed = BGPFeed(world, bus)
        manager.attach_delta_stream(feed.delta_stream)
        feed.publish_epoch(_epoch(world, 0))
        cable = most_linked_cable(world)
        dead = frozenset(l.id for l in world.links_on_cable(cable.id))
        feed.publish_epoch(_epoch(world, 1, failed_links=dead, changed=True))
        stats = manager.stats()["route_delta"]
        assert stats["deltas_emitted"] == 1
        assert stats["routes_emitted"] > 0
