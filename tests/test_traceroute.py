"""Traceroute substrate: probes, paths, campaigns, series, anomalies."""

import pytest

from repro.analysis.changepoint import cusum_change_point
from repro.traceroute.campaign import CampaignSpec, campaign_table
from repro.traceroute.probes import build_probe_fleet, probes_in_region, targets_in_region
from repro.traceroute.rtt import PathResolver
from repro.traceroute.api import detect_latency_anomalies, latency_series, paths_crossing_links, run_campaign
from repro.synth.geography import Region

DAY = 86_400.0


# -- probes ----------------------------------------------------------------------

def test_fleet_deterministic(world):
    a = build_probe_fleet(world)
    b = build_probe_fleet(world)
    assert [p.id for p in a] == [p.id for p in b]
    assert [p.coord for p in a] == [p.coord for p in b]


def test_fleet_covers_every_country(world):
    fleet = build_probe_fleet(world)
    countries = {p.country_code for p in fleet}
    assert countries == set(world.countries.keys())


def test_probes_attach_to_existing_ases(world):
    for probe in build_probe_fleet(world):
        assert probe.asn in world.ases
        assert world.ases[probe.asn].country_code == probe.country_code


def test_region_filters(world):
    fleet = build_probe_fleet(world)
    europe = probes_in_region(world, fleet, Region.EUROPE)
    assert europe
    assert all(world.country(p.country_code).region == Region.EUROPE for p in europe)
    targets = targets_in_region(world, Region.ASIA)
    assert targets
    assert all(world.ases[t].country_code for t in targets)


# -- path resolution -----------------------------------------------------------------

def test_resolver_basic_path(world):
    resolver = PathResolver(world)
    asns = sorted(world.ases)
    path = resolver.resolve(asns[0], asns[-1])
    assert path is not None
    assert path.as_path[0] == asns[0]
    assert path.as_path[-1] == asns[-1]
    assert len(path.link_ids) == len(path.as_path) - 1
    assert path.base_rtt_ms > 0


def test_resolver_failure_forces_reroute_or_loss(world):
    resolver = PathResolver(world)
    cable = world.cable_named("SeaMeWe-5")
    failed = frozenset(l.id for l in world.links_on_cable(cable.id))
    affected_link = world.links_on_cable(cable.id)[0]
    src, dst = affected_link.asn_a, affected_link.asn_b
    before = resolver.resolve(src, dst)
    after = resolver.resolve(src, dst, failed)
    assert before is not None
    if after is not None:
        assert not set(after.link_ids) & failed


def test_measured_rtt_noise_bounded(world):
    resolver = PathResolver(world)
    asns = sorted(world.ases)
    base = resolver.resolve(asns[0], asns[10])
    rtt, _ = resolver.measured_rtt_ms(asns[0], asns[10], ts=42.0)
    assert rtt is not None
    assert abs(rtt - base.base_rtt_ms) / base.base_rtt_ms <= 0.04


# -- campaign --------------------------------------------------------------------------

def test_campaign_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(Region.EUROPE, Region.ASIA, 10.0, 5.0)
    with pytest.raises(ValueError):
        CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 10.0, interval_s=0)


def test_campaign_produces_time_ordered_rows(world):
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 6 * 3600.0,
                        interval_s=3600.0)
    timestamps = list(campaign_table(world, spec)["ts"])
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == 6


def test_campaign_incident_raises_latency(world, incident):
    table = run_campaign(world, "europe", "asia", 0.0, 7 * DAY,
                         interval_s=21_600.0, incidents=[incident])
    samples = list(zip(table["ts"], table["rtt_ms"]))
    pre = [rtt for ts, rtt in samples if rtt and ts < incident.onset]
    post = [rtt for ts, rtt in samples if rtt and ts >= incident.onset]
    assert sum(post) / len(post) > sum(pre) / len(pre)


# -- series ------------------------------------------------------------------------------

def test_series_grouping_modes(world):
    rows = run_campaign(world, "europe", "asia", 0.0, 4 * 3600.0)
    pair = latency_series(rows, group_by="pair")
    aggregate = latency_series(rows, group_by="aggregate")
    assert len(aggregate) == 1
    assert len(pair) > 10
    with pytest.raises(ValueError):
        latency_series(rows, group_by="nope")


def test_series_bin_counts(world):
    rows = run_campaign(world, "europe", "asia", 0.0, 4 * 3600.0, interval_s=3600.0)
    series = latency_series(rows, group_by="aggregate")
    bins = series["all"]
    assert len(bins["bin_start"]) == 4
    assert all(len(column) == 4 for column in bins.values())
    total = sum(bins["sample_count"]) + sum(bins["loss_count"])
    assert total == len(rows["ts"])


# -- anomaly -------------------------------------------------------------------------------

def test_cusum_finds_obvious_shift():
    values = [100.0] * 20 + [150.0] * 20
    idx = cusum_change_point(values)
    assert idx is not None
    assert 18 <= idx <= 22


def test_cusum_ignores_flat_series():
    assert cusum_change_point([100.0] * 30) is None


def test_anomalies_detected_with_incident(world, incident):
    rows = run_campaign(world, "europe", "asia", 0.0, 7 * DAY,
                        interval_s=3600.0, incidents=[incident])
    series = latency_series(rows, group_by="pair")
    anomalies = detect_latency_anomalies(series)
    assert anomalies
    significant = [a for a in anomalies if a["significant"]]
    assert significant
    for anomaly in significant[:5]:
        assert abs(anomaly["onset_ts"] - incident.onset) <= 6 * 3600.0


def test_no_anomalies_without_incident(world):
    rows = run_campaign(world, "europe", "asia", 0.0, 7 * DAY, interval_s=21_600.0)
    series = latency_series(rows, group_by="pair")
    anomalies = detect_latency_anomalies(series, min_increase_pct=10.0)
    assert [a for a in anomalies if a["significant"]] == []


def test_paths_crossing_links_filter(world):
    rows = run_campaign(world, "europe", "asia", 0.0, 2 * 3600.0)
    cable = world.cable_named("SeaMeWe-5")
    link_ids = [l.id for l in world.links_on_cable(cable.id)]
    crossing = paths_crossing_links(rows, link_ids)
    wanted = set(link_ids)
    assert crossing["ts"]
    assert all(wanted & set(crossing["link_pool"][index]) for index in crossing["link_index"])


def test_probe_pairs_deterministic_and_cross_region(world):
    from repro.traceroute.api import probe_pairs

    pairs = probe_pairs(world, 10)
    assert pairs == probe_pairs(world, 10)
    assert len(pairs) == 10
    for pair in pairs:
        src_region = world.country(pair["src_country"]).region
        dst_region = world.country(pair["dst_country"]).region
        assert src_region != dst_region
        assert world.ases[pair["dst_asn"]].country_code == pair["dst_country"]
    # Several distinct corridors, not one repeated.
    assert len({p["corridor"] for p in pairs}) >= 4
    with pytest.raises(ValueError):
        probe_pairs(world, 0)
