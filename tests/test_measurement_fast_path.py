"""The measurement fast path agrees exactly with its reference oracles.

``run_campaign``, ``latency_series`` and the Nautilus cable ranking were
rewritten to do less work per row; the straightforward versions live in
``measurement_oracles``.  Every comparison here is exact equality — values,
key order and row order — because the golden digests hash these outputs.
"""

import dataclasses

import pytest

import measurement_oracles as oracle
from repro.nautilus.geolocation import Geolocator
from repro.nautilus.mapping import link_rtt_ms, observed_link_rtt_ms
from repro.synth.iplinks import rank_cables_for_link, true_path_km
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world
from repro.topology.relations import AdjacencyIndex, ASGraph
from repro.traceroute.api import latency_series, run_campaign
from repro.traceroute.campaign import CampaignSpec
from repro.synth.geography import Region

DAY = 86_400.0
SEEDS = (7, 11, 3)
GROUP_BYS = ("pair", "src_country", "dst_country", "aggregate")


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"world{seed}")
def seeded_world(request):
    return build_world(WorldConfig(seed=request.param))


def _incidents(world):
    # SeaMeWe-5 fails mid-window (day 4 of 7), off the 5000 s sampling grid;
    # AAE-1 and SeaMeWe-4 follow, so the campaign crosses four failed-link
    # sets and enough corridor capacity dies that some targets go unreachable.
    return [
        make_latency_incident(world, "SeaMeWe-5", days_since_onset=3.0),
        make_latency_incident(world, "AAE-1", days_since_onset=2.0),
        make_latency_incident(world, "SeaMeWe-4", days_since_onset=1.5),
    ]


def _campaign_pair(world, src, dst, interval_s, incidents):
    fast = run_campaign(world, src, dst, 0.0, 7 * DAY, interval_s=interval_s,
                        incidents=incidents)
    spec = CampaignSpec(Region(src), Region(dst), 0.0, 7 * DAY, interval_s=interval_s)
    reference = [m.to_dict() for m in oracle.run_campaign_spec(world, spec, incidents)]
    return fast, reference


def _items(rows):
    return [list(row.items()) for row in rows]


@pytest.fixture(scope="module")
def campaign(seeded_world):
    return _campaign_pair(seeded_world, "europe", "asia", 5000.0, _incidents(seeded_world))


def test_campaign_rows_equal_oracle(seeded_world, campaign):
    fast, reference = campaign
    assert _items(fast) == _items(reference)
    onset = _incidents(seeded_world)[0].onset
    assert any(row["ts"] < onset for row in fast)
    assert any(row["ts"] > onset for row in fast)
    assert any(row["rtt_ms"] is None for row in fast)
    assert any(row["rtt_ms"] is not None for row in fast)


def test_campaign_rows_equal_oracle_without_incidents(world):
    fast, reference = _campaign_pair(world, "asia", "oceania", 21_600.0, [])
    assert fast and _items(fast) == _items(reference)


def test_campaign_rows_do_not_share_link_lists(campaign):
    fast, _ = campaign
    lists = [row["link_ids"] for row in fast]
    assert len({id(links) for links in lists}) == len(lists)


@pytest.mark.parametrize("bin_seconds", [3600.0, 5400.0])
@pytest.mark.parametrize("group_by", GROUP_BYS)
def test_latency_series_equal_oracle(campaign, group_by, bin_seconds):
    rows, _ = campaign
    fast = latency_series(rows, group_by=group_by, bin_seconds=bin_seconds)
    reference = oracle.latency_series_from_rows(rows, group_by, bin_seconds)
    assert list(fast) == list(reference)
    for key, bins in reference.items():
        assert [list(b.items()) for b in fast[key]] == [list(b.to_dict().items()) for b in bins]
    assert any(b["median_rtt_ms"] is None or b["loss_count"] for s in fast.values() for b in s)


def test_latency_series_rejects_bad_arguments():
    # Rejected even without rows (the oracle only noticed a bad group_by
    # once it had a row to key).
    with pytest.raises(ValueError):
        latency_series([], group_by="nope")
    with pytest.raises(ValueError):
        latency_series([], bin_seconds=0.0)


# -- cable ranking ---------------------------------------------------------------


def _endpoint_pairs(world):
    geo = Geolocator(world)
    for link in world.submarine_links():
        yield link.coord_a, link.coord_b
        yield geo.locate(link.ip_a).coord, geo.locate(link.ip_b).coord


def test_cable_ranking_equals_oracle(seeded_world):
    cables, lps = seeded_world.cables, seeded_world.landing_points
    for coord_a, coord_b in _endpoint_pairs(seeded_world):
        ranked = rank_cables_for_link(coord_a, coord_b, cables, lps)
        reference = oracle.rank_cables_for_link(coord_a, coord_b, cables, lps)
        assert [(route.cable_id, route.detour_km) for route in ranked] == reference
        for route in ranked[:5]:
            path = route.tail_a_km * 1.3 + route.wet_km + route.tail_b_km * 1.3
            assert path == oracle.candidate_path_km(seeded_world, route.cable_id, coord_a, coord_b)


def test_true_path_equals_oracle(seeded_world):
    cables, lps = seeded_world.cables, seeded_world.landing_points
    for link in seeded_world.ip_links:
        assert true_path_km(link, cables, lps) == oracle.true_path_km(link, cables, lps)


# -- per-world link-RTT memo -------------------------------------------------------


def test_link_rtt_memo_equals_fresh_computation(seeded_world):
    for link in seeded_world.ip_links:
        assert observed_link_rtt_ms(seeded_world, link) == link_rtt_ms(seeded_world, link)
    memo = seeded_world.memo("observed_link_rtt_ms", dict)
    assert set(memo) == {link.id for link in seeded_world.ip_links}
    for link in seeded_world.ip_links:
        assert memo[link.id] == link_rtt_ms(seeded_world, link)


def test_worlds_from_one_config_never_share_a_memo():
    config = WorldConfig(seed=5, tier1_count=6, tier2_per_region=2, edge_density=0.5)
    a, b = build_world(config), build_world(config)
    link_a, link_b = a.ip_links[0], b.ip_links[0]
    assert observed_link_rtt_ms(a, link_a) == observed_link_rtt_ms(b, link_b)
    assert a.memo("observed_link_rtt_ms", dict) is not b.memo("observed_link_rtt_ms", dict)
    assert ASGraph.shared(a) is not ASGraph.shared(b)
    assert AdjacencyIndex.shared(a) is not AdjacencyIndex.shared(b)
    assert a.all_prefixes() is not b.all_prefixes()
    assert ASGraph.shared(a) is ASGraph.shared(a)


def test_foreign_link_bypasses_the_memo(world):
    link = world.submarine_links()[0]
    observed_link_rtt_ms(world, link)
    moved = dataclasses.replace(link, coord_b=link.coord_a)
    assert observed_link_rtt_ms(world, moved) == link_rtt_ms(world, moved)
    assert observed_link_rtt_ms(world, moved) != observed_link_rtt_ms(world, link)
    assert world.memo("observed_link_rtt_ms", dict)[link.id] == link_rtt_ms(world, link)
