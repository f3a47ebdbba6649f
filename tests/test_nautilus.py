"""Nautilus substrate: geolocation, SoL, mapping, dependencies, API."""

import pytest

from repro.nautilus.dependencies import (
    cables_between_regions,
    extract_cable_dependencies,
)
from repro.nautilus.geolocation import Geolocator
from repro.nautilus.mapping import CrossLayerMapper, observed_link_rtt_ms
from repro.nautilus.sol import FIBER_SPEED_KM_PER_MS, min_rtt_ms
from repro.nautilus.api import (
    geolocate_ips,
    get_cable_dependencies,
    get_cable_info,
    list_cables,
    map_ip_links_to_cables,
    sol_validate_link,
)
from repro.synth.geography import Region, haversine_km


# -- geolocation --------------------------------------------------------------

def test_geolocation_router_endpoints_exact_country(world):
    geo = Geolocator(world)
    for link in world.ip_links[:50]:
        assert geo.locate(link.ip_a).country_code == link.country_a
        assert geo.locate(link.ip_b).country_code == link.country_b


def test_geolocation_deterministic(world):
    geo = Geolocator(world)
    link = world.ip_links[0]
    first = geo.locate(link.ip_a)
    second = geo.locate(link.ip_a)
    assert first == second


def test_geolocation_noise_bounded(world):
    geo = Geolocator(world, uncertainty_km=40.0)
    for link in world.ip_links[:50]:
        result = geo.locate(link.ip_a)
        drift = haversine_km(result.coord, link.coord_a)
        assert drift <= 90.0  # 40 km in each axis, plus lat/lon interplay


def test_geolocation_unknown_ip_raises(world):
    geo = Geolocator(world)
    with pytest.raises(KeyError):
        geo.locate("203.0.113.1")


# -- speed of light -----------------------------------------------------------

def test_min_rtt_scales_linearly():
    assert min_rtt_ms(0) == 0
    assert min_rtt_ms(2000) == pytest.approx(2 * min_rtt_ms(1000))


def test_fiber_slower_than_vacuum():
    assert FIBER_SPEED_KM_PER_MS < 299.8


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        min_rtt_ms(-1)


# -- mapping -------------------------------------------------------------------

def test_mapping_accuracy_with_rtt(world):
    mapper = CrossLayerMapper(world)
    assert mapper.accuracy_against_truth() >= 0.6


def test_truth_always_in_candidate_set(world):
    mapper = CrossLayerMapper(world)
    assert mapper.truth_in_candidates_rate() >= 0.9


def test_rtt_validation_beats_geometry_only(world):
    with_rtt = CrossLayerMapper(world).accuracy_against_truth()
    without = CrossLayerMapper(world, use_rtt=False).accuracy_against_truth()
    assert with_rtt > without


def test_non_submarine_links_map_to_none(world):
    mapper = CrossLayerMapper(world)
    link = next(l for l in world.ip_links if l.cable_id is None)
    mapping = mapper.map_link(link)
    assert mapping.cable_id is None
    assert mapping.confidence == 1.0


def test_mapping_confidences_normalised(world):
    mapper = CrossLayerMapper(world)
    for link in world.submarine_links()[:30]:
        mapping = mapper.map_link(link)
        assert 0.0 <= mapping.confidence <= 1.0
        scores = [s for _, s in mapping.candidates]
        assert scores == sorted(scores, reverse=True)


def test_observed_rtt_deterministic_and_physical(world):
    link = world.submarine_links()[0]
    rtt_1 = observed_link_rtt_ms(world, link)
    rtt_2 = observed_link_rtt_ms(world, link)
    assert rtt_1 == rtt_2
    distance = haversine_km(link.coord_a, link.coord_b)
    assert rtt_1 >= min_rtt_ms(distance) * 0.9  # jitter bounded


# -- dependencies ---------------------------------------------------------------

def test_ground_truth_dependencies_exact(world):
    cable = world.cable_named("SeaMeWe-5")
    deps = extract_cable_dependencies(world, cable.id, mappings=None)
    truth = {l.id for l in world.links_on_cable(cable.id)}
    assert set(deps.link_ids) == truth
    assert len(deps.ips) == 2 * len(deps.link_ids)


def test_inferred_dependencies_high_recall(world):
    cable = world.cable_named("SeaMeWe-5")
    mappings = CrossLayerMapper(world).map_all()
    deps = extract_cable_dependencies(world, cable.id, mappings)
    truth = {l.id for l in world.links_on_cable(cable.id)}
    recall = len(set(deps.link_ids) & truth) / len(truth)
    assert recall >= 0.8


def test_cables_between_regions(world):
    corridor = cables_between_regions(world, Region.EUROPE, Region.ASIA)
    names = {world.cables[cid].name for cid in corridor}
    assert "SeaMeWe-5" in names
    assert "AAE-1" in names
    assert "Atlantica-1" not in names


# -- API -------------------------------------------------------------------------

def test_list_cables_rows(world):
    rows = list_cables(world)
    assert len(rows) == len(world.cables)
    names = {r["name"] for r in rows}
    assert "SeaMeWe-5" in names
    for row in rows:
        assert row["length_km"] > 0
        assert row["landing_countries"]


def test_get_cable_info_structure(world):
    info = get_cable_info(world, "SeaMeWe-5")
    assert info["name"] == "SeaMeWe-5"
    assert len(info["landing_points"]) == 14
    assert len(info["segments"]) == 13


def test_map_ip_links_rows_enriched(world):
    rows = map_ip_links_to_cables(world)
    assert len(rows) == len(world.submarine_links())
    sample = next(iter(rows.values()))
    for key in ("cable_id", "cable_name", "confidence", "candidates",
                "asn_a", "asn_b", "country_a", "country_b", "capacity_gbps"):
        assert key in sample


def test_get_cable_dependencies_json(world):
    deps = get_cable_dependencies(world, "AAE-1")
    assert deps["cable_name"] == "AAE-1"
    assert deps["link_ids"]
    assert deps["total_capacity_gbps"] > 0


def test_geolocate_ips_api(world):
    link = world.ip_links[0]
    out = geolocate_ips(world, [link.ip_a, link.ip_b])
    assert out[link.ip_a]["country"] == link.country_a
    assert out[link.ip_b]["country"] == link.country_b


def test_sol_validate_link_api(world):
    link = world.submarine_links()[0]
    verdict = sol_validate_link(world, link.id, observed_rtt_ms=500.0)
    assert verdict["feasible"]
    impossible = sol_validate_link(world, link.id, observed_rtt_ms=0.001)
    assert impossible["min_rtt_ms"] >= 0
