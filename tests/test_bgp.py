"""BGP substrate: messages, collector, anomalies, API."""

import pytest

from repro.bgp.collector import BGPCollectorSim, CableIncident, CollectorConfig
from repro.bgp.messages import BGPUpdate, UpdateKind, path_edit_distance
from repro.bgp.api import (
    correlate_updates_with_window,
    detect_routing_anomalies,
    fetch_updates,
    summarize_path_changes,
)

from measurement_oracles import update_rate_series

DAY = 86_400.0


# -- messages -------------------------------------------------------------------

def test_update_roundtrip():
    update = BGPUpdate(ts=10.0, collector="rrc-sim", peer_asn=1000,
                       kind=UpdateKind.ANNOUNCE, prefix="10.0.0.0/24",
                       as_path=(1000, 1007, 1042))
    assert BGPUpdate.from_dict(update.to_dict()) == update


def test_path_edit_distance():
    assert path_edit_distance((1, 2, 3), (1, 2, 3)) == 0
    assert path_edit_distance((1, 2, 3), (1, 3)) == 1
    assert path_edit_distance((), (1, 2)) == 2
    assert path_edit_distance((1, 2), (3, 4)) == 2


# -- collector ---------------------------------------------------------------------

def test_collector_baseline_covers_reachable_prefixes(world):
    sim = BGPCollectorSim(world, CollectorConfig(peer_count=4))
    routes = sim.routes_under(frozenset())
    assert routes
    for (peer, prefix), path in list(routes.items())[:50]:
        assert path[0] == peer


def test_collector_steady_state_rate(world):
    sim = BGPCollectorSim(world, CollectorConfig(churn_per_hour=12.0))
    updates = sim.generate_updates(0.0, DAY)
    # churn 12/h over 24h; flaps emit two messages, so within [288, 576].
    assert 200 <= len(updates) <= 700


def test_collector_incident_burst(world):
    sim = BGPCollectorSim(world)
    quiet = sim.generate_updates(0.0, 7 * DAY)
    noisy = sim.generate_updates(
        0.0, 7 * DAY, incidents=[CableIncident("SeaMeWe-5", onset=4 * DAY)]
    )
    assert len(noisy) > len(quiet) + 300
    burst = [u for u in noisy if 4 * DAY <= u.ts <= 4 * DAY + 600]
    background = [u for u in quiet if 4 * DAY <= u.ts <= 4 * DAY + 600]
    assert len(burst) > len(background) + 50


def test_collector_updates_sorted(world):
    sim = BGPCollectorSim(world)
    updates = sim.generate_updates(0.0, DAY,
                                   incidents=[CableIncident("AAE-1", onset=DAY / 2)])
    timestamps = [u.ts for u in updates]
    assert timestamps == sorted(timestamps)


def test_collector_rejects_bad_window(world):
    sim = BGPCollectorSim(world)
    with pytest.raises(ValueError):
        sim.generate_updates(10.0, 5.0)


# -- anomaly detection ---------------------------------------------------------------

def test_anomaly_detected_at_incident(world, incident):
    rows = fetch_updates(world, 0.0, 7 * DAY, incidents=[incident])
    anomalies = detect_routing_anomalies(rows, 0.0, 7 * DAY)
    assert anomalies
    top = anomalies[0]
    assert top["window_start"] <= incident.onset <= top["window_end"]
    assert top["zscore"] > 10


def test_no_anomaly_in_quiet_stream(world):
    rows = fetch_updates(world, 0.0, 7 * DAY)
    anomalies = detect_routing_anomalies(rows, 0.0, 7 * DAY)
    assert anomalies == [] or all(a["zscore"] < 10 for a in anomalies)


def test_rate_series_covers_window():
    updates = [BGPUpdate(float(i), "c", 1, UpdateKind.ANNOUNCE, "10.0.0.0/24", (1,))
               for i in range(100)]
    bins = update_rate_series(updates, 0.0, 100.0, bin_seconds=10.0)
    assert len(bins) == 10
    assert sum(b["count"] for b in bins) == 100


def test_rate_series_rejects_bad_bin():
    with pytest.raises(ValueError):
        update_rate_series([], 0.0, 10.0, bin_seconds=0)


# -- API -------------------------------------------------------------------------------

def test_summarize_path_changes_on_incident(world, incident):
    rows = fetch_updates(world, 0.0, 7 * DAY, incidents=[incident])
    summary = summarize_path_changes(rows)
    assert summary["lost_count"] > 0 or summary["changed_count"] > 0


def test_correlation_strong_at_onset(world, incident):
    rows = fetch_updates(world, 0.0, 7 * DAY, incidents=[incident])
    correlation = correlate_updates_with_window(rows, incident.onset,
                                                incident.onset + 3600)
    assert correlation["correlated"]
    assert correlation["rate_ratio"] > 2


def test_correlation_empty_stream():
    correlation = correlate_updates_with_window([], 0.0, 10.0)
    assert not correlation["correlated"]


# -- epoch-delta updates (live feed support) ------------------------------------


def test_routes_under_failure_differs_and_is_memoized(world):
    sim = BGPCollectorSim(world)
    cable = world.cable_named("AAE-1")
    dead = frozenset(l.id for l in world.links_on_cable(cable.id))
    baseline = sim.routes_under(frozenset())
    degraded = sim.routes_under(dead)
    assert baseline and degraded != baseline
    assert sim.routes_under(dead) is degraded  # memoized per failure set


def test_delta_updates_symmetric_cut_and_heal(world):
    sim = BGPCollectorSim(world)
    cable = world.cable_named("AAE-1")
    dead = frozenset(l.id for l in world.links_on_cable(cable.id))
    cut = sim.delta_updates(1_000.0, frozenset(), dead)
    heal = sim.delta_updates(9_000.0, dead, frozenset())
    assert len(cut) > 100 and len(heal) > 100
    assert any(u.kind is UpdateKind.WITHDRAW for u in cut)
    # Healing re-announces: every update carries a route again.
    announce_ratio = sum(1 for u in heal if u.kind is UpdateKind.ANNOUNCE) / len(heal)
    assert announce_ratio > 0.9
    assert sim.delta_updates(0.0, dead, dead) == []  # no change, no burst
    # Deterministic for a given (ts, before, after).
    assert cut == sim.delta_updates(1_000.0, frozenset(), dead)
    # Timestamps respect the window horizon.
    capped = sim.delta_updates(1_000.0, frozenset(), dead, window_end=1_050.0)
    assert max(u.ts for u in capped) <= 1_050.0


def test_churn_updates_windowed_and_seeded(world):
    sim = BGPCollectorSim(world)
    first = sim.churn_updates(0.0, 3600.0)
    second = sim.churn_updates(3600.0, 7200.0)
    assert first == sim.churn_updates(0.0, 3600.0)  # reproducible
    assert first != second  # independent draws per window
    assert all(0.0 <= u.ts <= 3600.0 for u in first)
    assert all(3600.0 <= u.ts <= 7200.0 for u in second)
    with pytest.raises(ValueError):
        sim.churn_updates(10.0, 10.0)
