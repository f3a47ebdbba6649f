"""Xaminer substrate: events, failures, impact, aggregation, risk, API."""

import pytest

from repro.xaminer.aggregate import as_impact_embeddings, country_impact_embeddings, rank_countries
from repro.xaminer.events import event_footprint
from repro.xaminer.failures import links_for_cables, simulate_failures
from repro.xaminer.impact import compute_impact
from repro.xaminer.risk import country_risk_profile, most_exposed_countries
from repro.xaminer.api import (
    combine_impact_reports,
    country_impact,
    list_disasters,
    process_event,
    risk_profile,
)
from repro.synth.scenarios import DisasterEvent, DisasterKind, cable_cut_event, default_disaster_catalog


# -- footprints ----------------------------------------------------------------

def test_cable_cut_footprint_full_exposure(world):
    event = cable_cut_event(world, "SeaMeWe-5")
    footprint = event_footprint(world, event)
    assert footprint.cable_exposure == {"cable-seamewe-5": 1.0}


def test_geo_footprint_taiwan_quake_hits_apg(world):
    event = DisasterEvent(id="eq-test", kind=DisasterKind.EARTHQUAKE,
                          name="test", center=(21.9, 120.7), radius_km=450.0,
                          magnitude=7.4)
    footprint = event_footprint(world, event)
    assert "cable-apg" in footprint.cable_exposure
    assert all(0 < e <= 1 for e in footprint.cable_exposure.values())


def test_geo_footprint_requires_center(world):
    event = DisasterEvent(id="bad", kind=DisasterKind.EARTHQUAKE, name="bad")
    with pytest.raises(ValueError):
        event_footprint(world, event)


def test_footprint_radius_monotone(world):
    small = DisasterEvent(id="s", kind=DisasterKind.HURRICANE, name="s",
                          center=(22.5, -80.0), radius_km=300.0, magnitude=4)
    large = DisasterEvent(id="l", kind=DisasterKind.HURRICANE, name="l",
                          center=(22.5, -80.0), radius_km=900.0, magnitude=4)
    exposure_small = event_footprint(world, small).cable_exposure
    exposure_large = event_footprint(world, large).cable_exposure
    assert set(exposure_small) <= set(exposure_large)
    for cable_id, value in exposure_small.items():
        assert exposure_large[cable_id] >= value


# -- failures --------------------------------------------------------------------

def test_failure_probability_extremes(world):
    event = cable_cut_event(world, "SeaMeWe-5")
    footprint = event_footprint(world, event)
    none = simulate_failures(world, footprint, failure_probability=0.0)
    assert none.failed_cable_ids == []
    certain = simulate_failures(world, footprint, failure_probability=1.0)
    assert certain.failed_cable_ids == ["cable-seamewe-5"]
    assert set(certain.failed_link_ids) == {
        l.id for l in world.links_on_cable("cable-seamewe-5")
    }


def test_failure_sampling_deterministic_per_seed(world):
    event = DisasterEvent(id="eq", kind=DisasterKind.EARTHQUAKE, name="e",
                          center=(33.2, 136.5), radius_km=500.0, magnitude=7.9)
    footprint = event_footprint(world, event)
    a = simulate_failures(world, footprint, 0.5, seed=1)
    b = simulate_failures(world, footprint, 0.5, seed=1)
    assert a.failed_cable_ids == b.failed_cable_ids


def test_failure_seed_mixed_with_event_id(world):
    # Two events with identical exposure sets must draw independently.
    quake_a = DisasterEvent(id="eq-a", kind=DisasterKind.EARTHQUAKE, name="a",
                            center=(33.2, 136.5), radius_km=500.0, magnitude=7.9)
    quake_b = DisasterEvent(id="eq-b", kind=DisasterKind.EARTHQUAKE, name="b",
                            center=(33.2, 136.5), radius_km=500.0, magnitude=7.9)
    results = set()
    for event in (quake_a, quake_b):
        footprint = event_footprint(world, event)
        sample = simulate_failures(world, footprint, 0.5, seed=0)
        results.add(tuple(sample.failed_cable_ids))
    # Identical draws for both would make the tuple set size 1 always; with
    # id-mixed seeds the draws are decorrelated (they may still coincide,
    # but not for this particular seed/footprint combination).
    assert len(results) == 2


def test_invalid_probability_rejected(world):
    event = cable_cut_event(world, "FALCON")
    footprint = event_footprint(world, event)
    with pytest.raises(ValueError):
        simulate_failures(world, footprint, 1.5)


def test_links_for_cables_sorted_unique(world):
    links = links_for_cables(world, ["cable-seamewe-5", "cable-aae-1"])
    assert links == sorted(set(links))


# -- impact ---------------------------------------------------------------------

def test_impact_empty_failure_set(world):
    report = compute_impact(world, [])
    assert report.total_capacity_lost_gbps == 0
    assert report.isolated_asns == []
    assert all(c.impact_score == 0 for c in report.by_country.values())


def test_impact_counts_match_failed_links(world):
    failed = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    report = compute_impact(world, failed)
    total_links_counted = sum(c.links_affected for c in report.by_country.values())
    assert total_links_counted == 2 * len(failed)  # both endpoints count
    assert report.total_capacity_lost_gbps == pytest.approx(
        sum(world.link_by_id[l].capacity_gbps for l in failed)
    )


def test_impact_unknown_link_raises(world):
    with pytest.raises(KeyError):
        compute_impact(world, ["link-99999"])


def test_impact_monotone_in_failure_set(world):
    small = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    big = small + [l.id for l in world.links_on_cable("cable-aae-1")]
    report_small = compute_impact(world, small)
    report_big = compute_impact(world, big)
    for code in world.countries:
        assert (report_big.by_country[code].links_affected
                >= report_small.by_country[code].links_affected)
    assert report_big.total_capacity_lost_gbps >= report_small.total_capacity_lost_gbps


def test_impact_scores_bounded(world):
    failed = [l.id for l in world.links_on_cable("cable-aae-1")]
    report = compute_impact(world, failed)
    for impact in report.by_country.values():
        assert 0.0 <= impact.impact_score <= 1.0


# -- aggregation -------------------------------------------------------------------

def test_embeddings_fraction_consistency(world):
    failed = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    report = compute_impact(world, failed)
    embeddings = country_impact_embeddings(report)
    for code, emb in embeddings.items():
        impact = report.by_country[code]
        assert emb.score == pytest.approx(impact.impact_score)


def test_rank_countries_sorted_and_nonzero(world):
    failed = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    ranking = rank_countries(compute_impact(world, failed))
    scores = [row["score"] for row in ranking]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_as_embeddings_fractions(world):
    failed = [l.id for l in world.links_on_cable("cable-aae-1")]
    report = compute_impact(world, failed)
    rows = as_impact_embeddings(world, report)
    for row in rows:
        assert 0 <= row["fraction"] <= 1
        assert row["links_affected"] <= row["links_total"]


# -- risk ------------------------------------------------------------------------

def test_risk_profile_shares_sum_to_one(world):
    profile = country_risk_profile(world, "SG")
    shares = sum(
        cap / profile["submarine_capacity_gbps"]
        for cap in profile["capacity_by_cable"].values()
    )
    assert shares == pytest.approx(1.0, abs=1e-6)
    assert 0 < profile["herfindahl"] <= 1


def test_risk_profile_unknown_country(world):
    with pytest.raises(KeyError):
        country_risk_profile(world, "ZZ")


def test_most_exposed_sorted(world):
    rows = most_exposed_countries(world, top=5)
    shares = [r["dominant_share"] for r in rows]
    assert shares == sorted(shares, reverse=True)


# -- API -------------------------------------------------------------------------

def test_process_event_cable_cut(world):
    report = process_event(world, {"kind": "cable_cut",
                                   "cable_names": ["SeaMeWe-5"]})
    assert report["failed_cable_ids"] == ["cable-seamewe-5"]
    assert report["country_ranking"]
    assert report["total_capacity_lost_gbps"] > 0


def test_process_event_accepts_dataclass(world):
    event = default_disaster_catalog()[0]
    report = process_event(world, event, failure_probability=1.0)
    assert report["event"]["id"] == event.id


def test_process_event_probability_zero_no_failures(world):
    event = default_disaster_catalog()[0]
    report = process_event(world, event, failure_probability=0.0)
    assert report["failed_cable_ids"] == []
    assert report["country_ranking"] == []


def test_list_disasters_severe_filter(world):
    all_events = list_disasters(world)
    severe = list_disasters(world, severe_only=True)
    assert len(severe) < len(all_events)
    assert all(e["severe"] for e in severe)


def test_combine_impact_reports(world):
    r1 = process_event(world, {"kind": "cable_cut", "cable_names": ["FALCON"]})
    r2 = process_event(world, {"kind": "cable_cut", "cable_names": ["AAE-1"]})
    combined = combine_impact_reports([r1, r2])
    assert combined["events_combined"] == 2
    assert set(combined["failed_cable_ids"]) == {"cable-falcon", "cable-aae-1"}
    assert combined["total_capacity_lost_gbps"] == pytest.approx(
        r1["total_capacity_lost_gbps"] + r2["total_capacity_lost_gbps"]
    )


def test_country_impact_api(world):
    failed = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    ranking = country_impact(world, failed)
    assert ranking and all("country" in row for row in ranking)


def test_risk_profile_api_global(world):
    rows = risk_profile(world)
    assert isinstance(rows, list) and rows
    single = risk_profile(world, "FR")
    assert single["country"] == "FR"
