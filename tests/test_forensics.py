"""The closed forensic loop: trigger policy, episodes, cases, verdicts."""

import pytest

from repro.core.artifacts import PipelineResult
from repro.core.llm.knowledge import detect_intent
from repro.live import (
    ALERTS_TOPIC,
    EventBus,
    EpochShardPool,
    EpochState,
    ForensicTrigger,
    LiveConfig,
    SimulationClock,
    StandingQuery,
    StandingQueryManager,
    TriggerPolicy,
    WorldTimeline,
    compose_fingerprint,
    default_cable_cut_timeline,
    overlapping_catalog_timeline,
    run_live_replay,
)
from repro.live.forensics import (
    DEFAULT_TRIGGER_TEMPLATES,
    FORENSIC_PRIORITY,
    FORENSIC_STAGE,
    corridor_from_series,
    corridor_phrase,
)
from repro.serve import QueryBroker, ServeConfig


def _alert(kind="rtt_shift", series="DE->JP", epoch=1, magnitude=50.0):
    return {"detector": "t", "kind": kind, "series_key": series,
            "epoch": epoch, "ts": float(epoch) * 3600.0,
            "magnitude": magnitude, "detail": {}}


def _state(world, index, failed_links=frozenset(), failed_cables=(),
           fired=(), healed=()):
    failed_links = frozenset(failed_links)
    return EpochState(
        index=index,
        window_start=index * 3600.0,
        window_end=(index + 1) * 3600.0,
        fingerprint=compose_fingerprint(world.fingerprint(), failed_links),
        failed_link_ids=failed_links,
        failed_cable_ids=tuple(sorted(failed_cables)),
        active_event_ids=(),
        fired_event_ids=tuple(fired),
        healed_event_ids=tuple(healed),
        changed=True,
    )


def _cable_failure(world, cable_name):
    cable = world.cable_named(cable_name)
    links = frozenset(l.id for l in world.links_on_cable(cable.id))
    return cable.id, links


# -- policy ------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        TriggerPolicy(dedup_window_epochs=0)
    with pytest.raises(ValueError):
        TriggerPolicy(max_cases_per_epoch=0)
    with pytest.raises(ValueError):
        TriggerPolicy(max_total_cases=-1)
    with pytest.raises(ValueError):
        TriggerPolicy(max_queries_per_case=0)
    with pytest.raises(ValueError):
        TriggerPolicy(templates=())
    with pytest.raises(ValueError):
        TriggerPolicy(escalation_corridors=(("europe", "atlantis"),))


def test_policy_severity_thresholds_per_kind():
    policy = TriggerPolicy(min_magnitude=(("bgp_burst", 5.0),),
                           default_min_magnitude=1.0)
    assert policy.eligible(_alert(kind="bgp_burst", magnitude=6.0))
    assert not policy.eligible(_alert(kind="bgp_burst", magnitude=4.0))
    assert policy.eligible(_alert(kind="rtt_shift", magnitude=1.5))
    assert not policy.eligible(_alert(kind="rtt_shift", magnitude=0.5))
    # A kind without a template never triggers, whatever its magnitude.
    assert not policy.eligible(_alert(kind="unknown_kind", magnitude=99.0))


def test_policy_queries_route_to_forensic_intent():
    policy = TriggerPolicy()
    for kind in DEFAULT_TRIGGER_TEMPLATES:
        query = policy.query_for(_alert(kind=kind), ("europe", "asia"))
        assert detect_intent(query) == "latency_forensics"
        assert "DE->JP" in query and "epoch 1" in query


def test_policy_corridor_plan_prefers_alert_corridor_and_dedups():
    policy = TriggerPolicy(max_queries_per_case=3)
    plan = policy.corridor_plan(_alert(series="JP->AE"))
    assert plan[0] == ("asia", "middle_east")
    assert plan == [("asia", "middle_east"), ("europe", "asia"),
                    ("europe", "north_america")]
    # An alert already on an escalation corridor does not repeat it.
    plan = policy.corridor_plan(_alert(series="DE->JP"))
    assert plan == [("europe", "asia"), ("europe", "north_america"),
                    ("asia", "middle_east")]
    # Non-geographic series fall straight into the playbook.
    plan = policy.corridor_plan(_alert(kind="bgp_burst", series="rrc-sim"))
    assert plan == [("europe", "asia"), ("europe", "north_america"),
                    ("asia", "middle_east")]


def test_corridor_from_series():
    assert corridor_from_series("DE->JP") == ("europe", "asia")
    assert corridor_from_series("US->BR") == ("north_america", "south_america")
    assert corridor_from_series("rrc-sim") is None
    assert corridor_from_series("XX->YY") is None


def test_corridor_phrase_words_are_extractable():
    from repro.core.llm.knowledge import extract_entities

    phrase = corridor_phrase(("north_america", "asia"))
    entities = extract_entities(f"latency from {phrase}", {})
    assert set(entities["regions"]) == {"north_america", "asia"}


def test_every_region_phrase_grounds_its_own_region():
    """Each region's phrase must extract back to exactly that region —
    otherwise an escalation corridor would silently probe the wrong one."""
    from repro.core.llm.knowledge import extract_entities
    from repro.live.forensics import REGION_PHRASES

    for region, phrase in REGION_PHRASES.items():
        entities = extract_entities(f"probes in {phrase} saw latency", {})
        assert entities.get("regions") == [region], (region, phrase, entities)


# -- timeline ground truth ---------------------------------------------------


def test_timeline_per_event_ground_truth(world):
    events = overlapping_catalog_timeline(world, count=3)
    timeline = WorldTimeline(world, events, clock=SimulationClock())
    truth = timeline.ground_truth()
    assert len(truth) == 3
    for item in events:
        row = truth[item.event.id]
        assert row["epoch"] == item.start_epoch
        assert row["cables"] == timeline.event_cables(item.event.id)
        assert row["links"]
        assert row["fingerprint"] == timeline.event_fingerprint(item.event.id)
    # A solo event's fingerprint equals the epoch fingerprint of a world
    # where only that event is active — shard-key sharing depends on it.
    first = events[0]
    state = timeline.state_at(first.start_epoch, 0.0, 3600.0)
    assert state.fingerprint == timeline.event_fingerprint(first.event.id)


def test_overlapping_timeline_is_disjoint_and_overlaps(world):
    events = overlapping_catalog_timeline(world, count=3, first_epoch=4,
                                          stagger_epochs=2, duration_epochs=8)
    timeline = WorldTimeline(world, events, clock=SimulationClock())
    seen: set[str] = set()
    for item in events:
        cables = set(timeline.event_cables(item.event.id))
        assert cables, "every scheduled event must break cables"
        assert not cables & seen, "event cable footprints must be disjoint"
        seen |= cables
    # All three are simultaneously active somewhere in the last window.
    last_start = events[-1].start_epoch
    assert all(e.active_at(last_start) for e in events)
    starts = [e.start_epoch for e in events]
    assert len(set(starts)) == len(starts), "fires must be staggered"


def test_overlapping_timeline_validation(world):
    with pytest.raises(ValueError):
        overlapping_catalog_timeline(world, count=0)
    with pytest.raises(ValueError):
        overlapping_catalog_timeline(world, count=2, stagger_epochs=0)
    with pytest.raises(ValueError):
        overlapping_catalog_timeline(world, count=3, stagger_epochs=4,
                                     duration_epochs=8)
    with pytest.raises(ValueError):
        overlapping_catalog_timeline(world, count=50)


# -- epoch shard pool --------------------------------------------------------


def test_pool_base_key_for_empty_cables(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    pool = EpochShardPool(broker, max_epoch_shards=2)
    assert pool.materialize("default", "fp", ()) == "default"
    assert len(pool) == 0
    broker.shutdown()


def test_pool_validation_and_stats(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    with pytest.raises(ValueError):
        EpochShardPool(broker, max_epoch_shards=0)
    pool = EpochShardPool(broker, max_epoch_shards=3)
    cable = list(world.cables)[0]
    key = pool.materialize("default", "fp-x", (cable,))
    pool.pin(key)
    pool.pin(key)
    assert pool.stats() == {"epoch_shards": 1, "max_epoch_shards": 3,
                            "shards_evicted": 0, "pinned": 1}
    pool.unpin(key)
    pool.unpin(key)
    pool.unpin(key)  # over-unpin is a no-op, never negative
    assert pool.stats()["pinned"] == 0
    # Unpinned base keys are ignored entirely.
    pool.pin("default")
    assert pool.stats()["pinned"] == 0
    broker.shutdown()


def test_pool_pins_block_eviction(world):
    cables = list(world.cables)[:3]
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    pool = EpochShardPool(broker, max_epoch_shards=2)
    keys = []
    for i, cable in enumerate(cables[:2]):
        keys.append(pool.materialize("default", f"fp-{i}", (cable,)))
    pool.pin(keys[0])
    pool.materialize("default", "fp-2", (cables[2],))
    # keys[0] is pinned, so the LRU victim was keys[1].
    assert keys[0] in broker.world_keys()
    assert keys[1] not in broker.world_keys()
    assert pool.shards_evicted == 1
    pool.unpin(keys[0])
    pool.materialize("default", "fp-3", (cables[1],))
    assert keys[0] not in broker.world_keys()
    assert pool.stats()["shards_evicted"] == 2
    broker.shutdown()


def test_pool_shared_between_standing_and_forensics(world):
    """The standing plane and the trigger reuse one shard for the same
    configuration fingerprint instead of materializing twice."""
    cable_id, links = _cable_failure(world, "MedLoop")
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        pool = EpochShardPool(broker, max_epoch_shards=4)
        manager = StandingQueryManager(broker, pool=pool)
        manager.register(StandingQuery(name="watch", query=(
            "Identify the impact at a country level due to MedLoop cable failure"
        )))
        bus = EventBus()
        trigger = ForensicTrigger(bus, broker, pool=pool)
        state = _state(world, 1, failed_links=links, failed_cables=(cable_id,))
        bus.publish(ALERTS_TOPIC, _alert(epoch=1))
        manager.on_epoch(state)
        trigger.on_epoch(state)
        # Same fingerprint -> same shard key -> one materialized world.
        epoch_keys = [k for k in broker.world_keys() if "@" in k]
        assert epoch_keys == [f"default@{state.fingerprint}"]
        assert len(pool) == 1
        manager.collect(timeout=240)
        trigger.collect(timeout=240)


# -- trigger unit behaviour --------------------------------------------------


def test_trigger_budget_suppression(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    bus = EventBus()
    trigger = ForensicTrigger(bus, broker,
                              policy=TriggerPolicy(max_total_cases=0))
    cable_id, links = _cable_failure(world, "MedLoop")
    bus.publish(ALERTS_TOPIC, _alert(epoch=1))
    opened = trigger.on_epoch(
        _state(world, 1, failed_links=links, failed_cables=(cable_id,))
    )
    assert opened == []
    stats = trigger.stats()
    assert stats["suppressed_budget"] == 1
    assert stats["queries_submitted"] == 0
    broker.shutdown()


def test_trigger_threshold_suppression_and_unattributed(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    bus = EventBus()
    trigger = ForensicTrigger(
        bus, broker, policy=TriggerPolicy(default_min_magnitude=10.0)
    )
    # Below-threshold alert during an episode: suppressed.
    cable_id, links = _cable_failure(world, "MedLoop")
    bus.publish(ALERTS_TOPIC, _alert(epoch=1, magnitude=5.0))
    trigger.on_epoch(_state(world, 1, failed_links=links,
                            failed_cables=(cable_id,)))
    # Loud alert with no episode anywhere near it: unattributed.
    bus.publish(ALERTS_TOPIC, _alert(epoch=9, magnitude=50.0))
    trigger.on_epoch(_state(world, 9, failed_links=links,
                            failed_cables=(cable_id,)))
    stats = trigger.stats()
    assert stats["suppressed_threshold"] == 1
    assert stats["unattributed"] == 1
    assert stats["cases_opened"] == 0
    broker.shutdown()


def test_trigger_rate_limit_defers_second_episode(world):
    """Two events firing the same epoch are two episodes; with a rate
    limit of 1 the second alert is suppressed and its episode is cased by
    the next epoch's alerts instead."""
    from repro.live import TimelineEvent
    from repro.synth.scenarios import cable_cut_event

    events = [
        TimelineEvent(event=cable_cut_event(world, "MedLoop"),
                      start_epoch=1, duration_epochs=6),
        TimelineEvent(event=cable_cut_event(world, "SeaMeWe-5"),
                      start_epoch=1, duration_epochs=6),
    ]
    timeline = WorldTimeline(world, events, clock=SimulationClock())
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    bus = EventBus()
    policy = TriggerPolicy(max_cases_per_epoch=1)
    trigger = ForensicTrigger(bus, broker, policy=policy, timeline=timeline)
    # Seed the cache so case opening never needs a started broker: the
    # opener alert resolves each episode on its first corridor.
    seeds = [("DE->JP", 1, "cut-cable-medloop"),
             ("DE->SG", 2, "cut-cable-seamewe-5")]
    for series, epoch, event_id in seeds:
        truth = timeline.ground_truth()[event_id]
        corridor = policy.corridor_plan(_alert(series=series))[0]
        broker.cache.store(FORENSIC_STAGE, {
            "query": policy.query_for(_alert(series=series, epoch=epoch),
                                      corridor),
            "world_key": "default",
            "fingerprint": truth["fingerprint"],
        }, {"state": "done",
            "final": {"identified_cable_id": truth["cables"][0]},
            "artifact_digest": "x" * 8})
    trigger.on_epoch(timeline.step())  # epoch 0: quiet
    state1 = timeline.step()           # epoch 1: both events fire
    assert len(state1.fired_event_ids) == 2
    bus.publish(ALERTS_TOPIC, _alert(epoch=1, series="DE->JP"))
    bus.publish(ALERTS_TOPIC, _alert(epoch=1, series="DE->SG", magnitude=40.0))
    opened1 = trigger.on_epoch(state1)
    assert len(opened1) == 1
    assert opened1[0].event_id == "cut-cable-medloop"
    assert trigger.stats()["suppressed_rate"] == 1
    bus.publish(ALERTS_TOPIC, _alert(epoch=2, series="DE->SG", magnitude=40.0))
    opened2 = trigger.on_epoch(timeline.step())
    assert len(opened2) == 1
    assert opened2[0].event_id == "cut-cable-seamewe-5"
    assert opened2[0].verdict == "confirmed"
    assert trigger.stats()["cases_opened"] == 2
    assert trigger.stats()["queries_submitted"] == 0
    broker.shutdown()


def test_trigger_merges_trailing_alerts_and_heals_quietly(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    cable_id, links = _cable_failure(world, "MedLoop")
    bus = EventBus()
    policy = TriggerPolicy()
    trigger = ForensicTrigger(bus, broker, policy=policy)
    fp = compose_fingerprint(world.fingerprint(), links)
    for corridor in policy.corridor_plan(_alert(series="DE->JP")):
        broker.cache.store(FORENSIC_STAGE, {
            "query": policy.query_for(_alert(series="DE->JP", epoch=1), corridor),
            "world_key": "default",
            "fingerprint": fp,
        }, {"state": "done", "final": {"identified_cable_id": cable_id},
            "artifact_digest": "y" * 8})
    bus.publish(ALERTS_TOPIC, _alert(epoch=1, series="DE->JP"))
    opened = trigger.on_epoch(
        _state(world, 1, failed_links=links, failed_cables=(cable_id,)))
    assert len(opened) == 1
    case = opened[0]
    assert case.from_cache and case.verdict == "confirmed"
    # Trailing alerts inside the window merge; none opens a second case.
    bus.publish(ALERTS_TOPIC, _alert(epoch=2, series="FR->SG"))
    bus.publish(ALERTS_TOPIC, _alert(epoch=3, kind="bgp_burst",
                                     series="rrc-sim", magnitude=9.0))
    trigger.on_epoch(_state(world, 2, failed_links=links,
                            failed_cables=(cable_id,)))
    trigger.on_epoch(_state(world, 3, failed_links=links,
                            failed_cables=(cable_id,)))
    assert case.alerts_merged == 2
    # The heal shrinks the failure set: no episode, no case.
    trigger.on_epoch(_state(world, 4))
    stats = trigger.stats()
    assert stats["cases_opened"] == 1
    assert stats["episodes_opened"] == 1
    broker.shutdown()


def test_trigger_case_closes_loop_end_to_end(world):
    """One real pipeline run: alert → submit → verdict names the cable."""
    cable_id, links = _cable_failure(world, "MedLoop")
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        bus = EventBus()
        trigger = ForensicTrigger(bus, broker)
        trigger.on_epoch(_state(world, 0))
        bus.publish(ALERTS_TOPIC, _alert(epoch=1, series="DE->JP"))
        opened = trigger.on_epoch(
            _state(world, 1, failed_links=links, failed_cables=(cable_id,)))
        assert len(opened) == 1
        case = opened[0]
        assert case.ticket is not None
        assert broker.job(case.ticket).priority == FORENSIC_PRIORITY
        joined = trigger.collect(timeout=240)
        assert joined == [case]
        assert case.state == "done"
        assert case.verdict == "confirmed"
        assert case.identified_cable == cable_id
        assert case.artifact_digest and len(case.artifact_digest) == 64
        assert case.verdict_latency_s > 0
        assert broker.stats()["submitted_by_priority"][FORENSIC_PRIORITY] >= 1
        # The verdict was cached: the same alert resolves without submitting.
        bus2 = EventBus()
        trigger2 = ForensicTrigger(bus2, broker)
        trigger2.on_epoch(_state(world, 0))
        bus2.publish(ALERTS_TOPIC, _alert(epoch=1, series="DE->JP"))
        warm = trigger2.on_epoch(
            _state(world, 1, failed_links=links, failed_cables=(cable_id,)))
        assert warm[0].from_cache
        assert warm[0].verdict == "confirmed"
        assert trigger2.stats()["queries_submitted"] == 0


def test_trigger_escalates_corridors_until_identified(world):
    """A non-geographic opener walks the corridor playbook: the Caribbean
    cables are invisible from europe→asia, so the case escalates."""
    cable_id, links = _cable_failure(world, "AmericasCrossing")
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        bus = EventBus()
        trigger = ForensicTrigger(bus, broker)
        trigger.on_epoch(_state(world, 0))
        bus.publish(ALERTS_TOPIC, _alert(kind="bgp_burst", series="rrc-sim",
                                         epoch=1, magnitude=9.0))
        opened = trigger.on_epoch(
            _state(world, 1, failed_links=links, failed_cables=(cable_id,)))
        case = opened[0]
        trigger.collect(timeout=480)
        assert case.verdict == "confirmed"
        assert case.identified_cable == cable_id
        assert case.queries_run == 2
        assert case.corridors_tried == ["europe->asia", "europe->north_america"]
        assert trigger.stats()["escalations"] == 1


# -- driver integration ------------------------------------------------------


def test_live_replay_forensics_single_incident(world):
    config = LiveConfig(epochs=10, workers=2, forensics=True)
    report = run_live_replay(world=world, config=config)
    assert len(report.forensic_cases) == 1
    assert report.completed_cases == 1
    case = report.forensic_cases[0]
    assert case["state"] == "done"
    assert case["verdict"] == "confirmed"
    assert report.forensic_stats["cases_opened"] == 1
    assert any(row["cases_opened"] for row in report.epoch_log)
    payload = report.to_dict()
    assert payload["forensic_cases"] == report.forensic_cases
    assert payload["forensic_stats"] == report.forensic_stats


def test_live_replay_forensics_disabled_is_empty(world):
    config = LiveConfig(epochs=6, workers=2)
    report = run_live_replay(world=world, config=config)
    assert report.forensic_cases == []
    assert report.forensic_stats == {}


def test_live_replay_multi_event_one_case_per_incident(world, monkeypatch):
    """Two overlapping disasters: each yields exactly one completed case
    attributed to the right ground-truth event."""
    # Each case journals its root; remember the answer and code digests
    # behind every root the replay takes.
    pins = {}
    root_of = PipelineResult.artifact_digest

    def recorded(result):
        root = root_of(result)
        pins[root] = (result.answer_digest(), result.code_digest())
        return root

    monkeypatch.setattr(PipelineResult, "artifact_digest", recorded)
    events = overlapping_catalog_timeline(world, count=2)
    config = LiveConfig(epochs=16, workers=2, forensics=True)
    report = run_live_replay(world=world, timeline_events=events, config=config)
    assert len(report.forensic_cases) == len(report.incident_epochs) == 2
    assert report.completed_cases == 2
    attributed = {c["event_id"] for c in report.forensic_cases}
    assert attributed == set(report.incident_epochs)
    for case in report.forensic_cases:
        assert case["expected_cables"]
        assert case["alert_latency_epochs"] >= 0
    # Golden pins: the replay's answers, not just their agreement.
    assert sorted(
        (c["event_id"], c["verdict"], *pins[c["artifact_digest"]])
        for c in report.forensic_cases
    ) == [
        ("eq-izmit-2026", "confirmed",
         "cb93f31e359011083cd1152d03716173749171938cd1a1c1e54211fa3e555186",
         "8250822b69d0b8735631564c6fe63d34ead3edd325d607c646e12b9fc6aa4b7c"),
        ("eq-taiwan-2026", "confirmed",
         "c416c3d7a57b980f0f38a17f9dfe3f93f8ecd845a4da83eadea3c6d1badf408d",
         "ea3a86a5101d6fd19d7180f18f5554bac3e5b23cce03ffabcb4d5dff2fbef87c"),
    ]


# -- CLI ---------------------------------------------------------------------


def test_live_cli_forensics_smoke(capsys):
    from repro.cli import main

    assert main(["--live", "--forensics", "--epochs", "10"]) == 0
    out = capsys.readouterr().out
    assert "forensic:" in out
    assert "trigger:" in out
    assert "confirmed" in out


def test_live_cli_rejects_negative_concurrent_events(capsys):
    from repro.cli import main

    assert main(["--live", "--concurrent-events", "-1"]) == 2
    assert "concurrent-events" in capsys.readouterr().err


def test_live_cli_rejects_replay_too_short_for_events(capsys):
    """A replay ending before the last scheduled disaster fires must fail
    loudly up front, not exit 1 after an undetectable incident."""
    from repro.cli import main

    assert main(["--live", "--concurrent-events", "3", "--epochs", "6"]) == 2
    err = capsys.readouterr().err
    assert "epoch 8" in err and "at least 9" in err


def test_manager_rejects_both_pool_and_max_epoch_shards(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    pool = EpochShardPool(broker, max_epoch_shards=4)
    with pytest.raises(ValueError):
        StandingQueryManager(broker, max_epoch_shards=2, pool=pool)
    # A shared pool carries the bound; the manager reports the pool's.
    manager = StandingQueryManager(broker, pool=pool)
    assert manager.stats()["max_epoch_shards"] == 4
    broker.shutdown()
