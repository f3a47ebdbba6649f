"""The measurement fast path agrees exactly with its reference oracles.

``run_campaign``, ``latency_series`` and the Nautilus cable ranking were
rewritten to do less work per row; the straightforward versions live in
``measurement_oracles``.  Every comparison here is exact equality — values,
key order and row order — because the golden digests hash these outputs.
The one representation difference is deliberate: fast rows carry
``link_ids`` as a shared immutable tuple where the oracle builds a list,
which ``canonical_json`` (what the digests hash) writes identically.
"""

import dataclasses
import gc
import random
import sys
import threading

import pytest

import measurement_oracles as oracle
from repro.bgp.api import fetch_updates
from repro.core.artifacts import canonical_json
from repro.nautilus.geolocation import Geolocator
from repro.nautilus.mapping import link_rtt_ms, observed_link_rtt_ms
from repro.synth.iplinks import rank_cables_for_link, true_path_km
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world
from repro.topology.relations import AdjacencyIndex, ASGraph
from repro.traceroute import campaign as campaign_module
from repro.traceroute.api import latency_series, run_campaign
from repro.traceroute.campaign import (
    CAMPAIGN_MEMO_FAILURE_SETS,
    CAMPAIGN_MEMO_SHAPES,
    CampaignSpec,
    campaign_memo,
    campaign_rows,
)
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
    return [[(key, list(value) if key == "link_ids" else value) for key, value in row.items()]
            for row in rows]


def _assert_rows_equal_oracle(fast, reference):
    assert _items(fast) == _items(reference)
    assert canonical_json(fast) == canonical_json(reference)
    assert all(type(row["link_ids"]) is tuple for row in fast)


@pytest.fixture(scope="module")
def campaign(seeded_world):
    return _campaign_pair(seeded_world, "europe", "asia", 5000.0, _incidents(seeded_world))


def test_campaign_rows_equal_oracle(seeded_world, campaign):
    fast, reference = campaign
    _assert_rows_equal_oracle(fast, reference)
    onset = _incidents(seeded_world)[0].onset
    assert any(row["ts"] < onset for row in fast)
    assert any(row["ts"] > onset for row in fast)
    assert any(row["rtt_ms"] is None for row in fast)
    assert any(row["rtt_ms"] is not None for row in fast)


def test_campaign_rows_equal_oracle_without_incidents(world):
    fast, reference = _campaign_pair(world, "asia", "oceania", 21_600.0, [])
    assert fast
    _assert_rows_equal_oracle(fast, reference)


def test_campaign_rows_share_immutable_link_tuples(seeded_world, campaign):
    # Rows on one path under one failed-link set share the path's tuple;
    # tuples cannot be mutated, so the aliasing is harmless.
    fast, _ = campaign
    onsets = [incident.onset for incident in _incidents(seeded_world)]
    assert all(type(row["link_ids"]) is tuple for row in fast)
    combos = {(row["probe_id"], row["dst_asn"], tuple(row["ts"] >= t for t in onsets))
              for row in fast}
    assert len({id(row["link_ids"]) for row in fast}) <= len(combos) < len(fast)


def test_measurement_rows_are_not_gc_tracked(seeded_world):
    # Rows of scalars and untracked tuples leave nothing for the cyclic GC
    # to walk, however many results a broker retains.
    incidents = [make_latency_incident(seeded_world, "SeaMeWe-5")]
    rows = run_campaign(seeded_world, "europe", "asia", 0.0, 7 * DAY, incidents=incidents)
    updates = fetch_updates(seeded_world, 0.0, 7 * DAY, incidents=incidents)
    gc.collect()
    assert rows and updates
    assert not any(gc.is_tracked(row) for row in rows)
    assert not any(gc.is_tracked(row) for row in updates)


# -- the per-world campaign memo ---------------------------------------------------


def _memo_calls(world):
    # One spec with no, one and two incidents, a different region pair and a
    # different interval: the memo shares pairs, stamps and noise per spec
    # and hop lists per failed-link set, so each call mixes hits and misses.
    seamewe5 = make_latency_incident(world, "SeaMeWe-5", days_since_onset=3.0)
    aae1 = make_latency_incident(world, "AAE-1", days_since_onset=2.0)
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 7 * DAY, interval_s=15_000.0)
    return [
        (spec, []),
        (spec, [seamewe5]),
        (spec, [seamewe5, aae1]),
        (dataclasses.replace(spec, dst_region=Region.OCEANIA), [aae1]),
        (dataclasses.replace(spec, interval_s=36_000.0), [seamewe5]),
    ]


@pytest.fixture(scope="module")
def memo_references(seeded_world):
    # Each call's oracle rows as (items, canonical JSON), computed once.
    references = []
    for spec, incidents in _memo_calls(seeded_world):
        rows = [m.to_dict() for m in oracle.run_campaign_spec(seeded_world, spec, incidents)]
        references.append((_items(rows), canonical_json(rows)))
    return references


@pytest.mark.parametrize("order", ["forward", "shuffled"])
def test_campaign_memo_equals_oracle_cold_and_warm(seeded_world, memo_references, order):
    world = build_world(seeded_world.config)  # a fresh world: its memo is cold
    calls = _memo_calls(world)
    indices = list(range(len(calls)))
    if order == "shuffled":
        random.Random(seeded_world.config.seed).shuffle(indices)
    for _ in ("cold", "warm"):
        for index in indices:
            spec, incidents = calls[index]
            rows = campaign_rows(world, spec, incidents)
            assert (_items(rows), canonical_json(rows)) == memo_references[index]
            assert all(type(row["link_ids"]) is tuple for row in rows)
    assert len(campaign_memo(world)) == len({spec for spec, _ in calls})


def test_equal_specs_that_print_differently_never_share_rows(world, incident):
    # CampaignSpec(window_start=0) == CampaignSpec(window_start=0.0), but the
    # first stamps ts=0 and hashes "0" into the noise; either order must
    # still match the oracle.
    specs = [CampaignSpec(Region.EUROPE, Region.ASIA, 0, 2 * 86_400, interval_s=21_600),
             CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 2 * DAY, interval_s=21_600.0)]
    assert specs[0] == specs[1]
    references = [[m.to_dict() for m in oracle.run_campaign_spec(world, spec, [incident])]
                  for spec in specs]
    assert canonical_json(references[0]) != canonical_json(references[1])
    for order in ((0, 1), (1, 0)):
        fresh = build_world(world.config)
        for index in order:
            _assert_rows_equal_oracle(campaign_rows(fresh, specs[index], [incident]),
                                      references[index])


def test_mutating_rows_never_reaches_the_next_call(world, incident):
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 2 * DAY)
    first = campaign_rows(world, spec, [incident])
    expected = canonical_json(campaign_rows(world, spec, [incident]))
    for row in first:
        row["rtt_ms"], row["link_ids"], row["extra"] = -1.0, ["x"], True
        del row["ts"]
    again = campaign_rows(world, spec, [incident])
    assert canonical_json(again) == expected
    assert not {id(row) for row in first} & {id(row) for row in again}


def test_campaign_memo_is_bounded(small_world, monkeypatch):
    world = build_world(small_world.config)
    memo = campaign_memo(world)
    for extra in range(CAMPAIGN_MEMO_SHAPES + 3):
        campaign_rows(world, CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, DAY,
                                          interval_s=3600.0 + extra))
        assert len(memo) <= CAMPAIGN_MEMO_SHAPES
    assert len(memo) == CAMPAIGN_MEMO_SHAPES

    # This world has fewer cut-able cables than the real hop-list bound.
    monkeypatch.setattr(campaign_module, "CAMPAIGN_MEMO_FAILURE_SETS", 4)
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 7 * DAY, interval_s=DAY)
    cables = [cable.name for cable in world.cables.values() if world.links_on_cable(cable.id)]
    assert len(cables) > 4
    for name in cables:
        campaign_rows(world, spec, [make_latency_incident(world, name, days_since_onset=1.0)])
        assert len(memo.shape(world, spec).hops) <= 4
    assert len(memo.shape(world, spec).hops) == 4
    assert len(memo) <= CAMPAIGN_MEMO_SHAPES
    assert 4 < CAMPAIGN_MEMO_FAILURE_SETS


def test_concurrent_campaigns_build_one_noise_grid(monkeypatch):
    # More threads than cores, switching often: without the single-flight
    # lock a second thread would draw the grid again.
    world = build_world(WorldConfig(seed=7))
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 7 * DAY)
    incidents = [make_latency_incident(world, "SeaMeWe-5")]
    draws = []
    real_noise = campaign_module.sample_noise

    def counting_noise(*args):
        draws.append(args)
        return real_noise(*args)

    monkeypatch.setattr(campaign_module, "sample_noise", counting_noise)
    start = threading.Barrier(4)
    results = [None] * 4

    def run(slot):
        start.wait(timeout=30)
        results[slot] = campaign_rows(world, spec, incidents)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    shape = campaign_memo(world).shape(world, spec)
    assert len(draws) == len(shape.factors) == len(shape.pairs) * len(shape.stamps)
    assert results[0] and len({id(rows) for rows in results}) == 4
    assert len({canonical_json(rows) for rows in results}) == 1


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
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, DAY)
    assert campaign_rows(a, spec) == campaign_rows(a, spec)
    assert len(campaign_memo(a)) == 1
    assert len(campaign_memo(b)) == 0
    assert campaign_rows(b, spec) == campaign_rows(a, spec)
    assert campaign_memo(a) is not campaign_memo(b)


def test_foreign_link_bypasses_the_memo(world):
    link = world.submarine_links()[0]
    observed_link_rtt_ms(world, link)
    moved = dataclasses.replace(link, coord_b=link.coord_a)
    assert observed_link_rtt_ms(world, moved) == link_rtt_ms(world, moved)
    assert observed_link_rtt_ms(world, moved) != observed_link_rtt_ms(world, link)
    assert world.memo("observed_link_rtt_ms", dict)[link.id] == link_rtt_ms(world, link)
