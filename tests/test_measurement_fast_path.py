"""The measurement fast path agrees exactly with its reference oracles.

``run_campaign``, ``latency_series``, ``paths_crossing_links``, BGP anomaly
detection and the Nautilus cable ranking were rewritten to do less work
per row; the straightforward versions live in ``measurement_oracles``.
``run_campaign`` returns a column table where the oracle returns row
dicts: ``measurement_oracles.table_rows`` turns the table back into rows,
which must equal the oracle's exactly — values, key order and row order —
with ``link_ids`` as the pooled tuple where the oracle builds a list, which
``canonical_json`` writes identically.  ``latency_series`` returns one
column table per series where the oracle returns bin objects; column *i*
must equal the oracle's bin *i*.
"""

import dataclasses
import gc
import random
import sys
import threading

import pytest

import measurement_oracles as oracle
from repro.bgp.api import detect_routing_anomalies, fetch_updates
from repro.core.artifacts import canonical_json
from repro.nautilus.geolocation import Geolocator
from repro.nautilus.mapping import link_rtt_ms, observed_link_rtt_ms
from repro.synth.iplinks import rank_cables_for_link, true_path_km
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world
from repro.topology.relations import AdjacencyIndex, ASGraph
from repro.traceroute import campaign as campaign_module
from repro.traceroute.api import latency_series, paths_crossing_links, run_campaign
from repro.traceroute.rtt import sample_noise
from repro.traceroute.campaign import (
    CAMPAIGN_MEMO_FAILURE_SETS,
    CAMPAIGN_MEMO_SHAPES,
    MEASUREMENT_COLUMNS,
    CampaignSpec,
    campaign_memo,
    campaign_table,
)
from repro.synth.geography import Region

DAY = 86_400.0
SEEDS = (7, 11, 3)
GROUP_BYS = ("pair", "src_country", "dst_country", "aggregate")
SERIES_COLUMNS = ("bin_start", "median_rtt_ms", "sample_count", "loss_count", "loss_rate")


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


def _assert_table(table):
    # One tuple per column, all of one length; every path index resolves.
    assert list(table) == [*MEASUREMENT_COLUMNS, "link_pool"]
    assert all(type(column) is tuple for column in table.values())
    assert len({len(table[name]) for name in MEASUREMENT_COLUMNS}) == 1
    assert all(type(path) is tuple for path in table["link_pool"])
    assert set(table["link_index"]) <= set(range(len(table["link_pool"])))


def _assert_rows_equal_oracle(table, reference):
    _assert_table(table)
    fast = oracle.table_rows(table)
    assert _items(fast) == _items(reference)
    assert canonical_json(fast) == canonical_json(reference)


@pytest.fixture(scope="module")
def campaign(seeded_world):
    return _campaign_pair(seeded_world, "europe", "asia", 5000.0, _incidents(seeded_world))


def test_campaign_rows_equal_oracle(seeded_world, campaign):
    table, reference = campaign
    _assert_rows_equal_oracle(table, reference)
    assert set(table["link_index"]) == set(range(len(table["link_pool"])))
    onset = _incidents(seeded_world)[0].onset
    assert any(ts < onset for ts in table["ts"])
    assert any(ts > onset for ts in table["ts"])
    assert any(rtt is None for rtt in table["rtt_ms"])
    assert any(rtt is not None for rtt in table["rtt_ms"])


def test_campaign_rows_equal_oracle_without_incidents(world):
    fast, reference = _campaign_pair(world, "asia", "oceania", 21_600.0, [])
    assert fast
    _assert_rows_equal_oracle(fast, reference)


def test_campaign_rows_share_immutable_link_tuples(seeded_world, campaign):
    # Each distinct path is pooled once and rows name it by index; the pool
    # holds immutable tuples, so sharing them is harmless.
    table, _ = campaign
    onsets = [incident.onset for incident in _incidents(seeded_world)]
    pool = table["link_pool"]
    assert len(set(pool)) == len(pool)
    combos = {(probe_id, dst_asn, tuple(ts >= t for t in onsets))
              for probe_id, dst_asn, ts in zip(table["probe_id"], table["dst_asn"], table["ts"])}
    assert len(pool) <= len(combos) < len(table["ts"])


def test_measurement_rows_are_not_gc_tracked(seeded_world):
    # A table's columns and paths, and update rows of scalars and
    # untracked tuples, leave nothing for the cyclic GC to walk, however
    # many results a broker retains.
    incidents = [make_latency_incident(seeded_world, "SeaMeWe-5")]
    table = run_campaign(seeded_world, "europe", "asia", 0.0, 7 * DAY, incidents=incidents)
    updates = fetch_updates(seeded_world, 0.0, 7 * DAY, incidents=incidents)
    gc.collect()
    assert table["ts"] and updates
    assert not any(gc.is_tracked(column) for column in table.values())
    assert not any(gc.is_tracked(path) for path in table["link_pool"])
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
            table = campaign_table(world, spec, incidents)
            _assert_table(table)
            rows = oracle.table_rows(table)
            assert (_items(rows), canonical_json(rows)) == memo_references[index]
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
            _assert_rows_equal_oracle(campaign_table(fresh, specs[index], [incident]),
                                      references[index])


def test_mutating_rows_never_reaches_the_next_call(world, incident):
    # Columns are tuples; the table dict is the caller's own.
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 2 * DAY)
    first = campaign_table(world, spec, [incident])
    expected = canonical_json(campaign_table(world, spec, [incident]))
    first["rtt_ms"], first["link_pool"], first["extra"] = (-1.0,), (("x",),), True
    del first["ts"]
    again = campaign_table(world, spec, [incident])
    assert canonical_json(again) == expected
    assert again is not first


def test_campaign_memo_is_bounded(small_world, monkeypatch):
    world = build_world(small_world.config)
    memo = campaign_memo(world)
    for extra in range(CAMPAIGN_MEMO_SHAPES + 3):
        campaign_table(world, CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, DAY,
                                           interval_s=3600.0 + extra))
        assert len(memo) <= CAMPAIGN_MEMO_SHAPES
    assert len(memo) == CAMPAIGN_MEMO_SHAPES

    # This world has fewer cut-able cables than the real hop-list bound.
    monkeypatch.setattr(campaign_module, "CAMPAIGN_MEMO_FAILURE_SETS", 4)
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 7 * DAY, interval_s=DAY)
    cables = [cable.name for cable in world.cables.values() if world.links_on_cable(cable.id)]
    assert len(cables) > 4
    for name in cables:
        campaign_table(world, spec, [make_latency_incident(world, name, days_since_onset=1.0)])
        assert len(memo.shape(world, spec).hops) <= 4
    assert len(memo.shape(world, spec).hops) == 4
    assert len(memo) <= CAMPAIGN_MEMO_SHAPES
    assert 4 < CAMPAIGN_MEMO_FAILURE_SETS


def test_concurrent_campaigns_build_one_noise_grid(monkeypatch):
    # More threads than cores, switching often: without the single-flight
    # lock a second thread would build the grid again.
    world = build_world(WorldConfig(seed=7))
    spec = CampaignSpec(Region.EUROPE, Region.ASIA, 0.0, 7 * DAY)
    incidents = [make_latency_incident(world, "SeaMeWe-5")]
    builds = []
    real_grid = campaign_module.noise_grid

    def counting_grid(*args):
        builds.append(args)
        return real_grid(*args)

    monkeypatch.setattr(campaign_module, "noise_grid", counting_grid)
    start = threading.Barrier(4)
    results = [None] * 4

    def run(slot):
        start.wait(timeout=30)
        results[slot] = campaign_table(world, spec, incidents)

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
    assert len(builds) == 1
    assert len(shape.factors) == len(shape.pairs) * len(shape.stamps)
    assert results[0]["ts"] and len({id(table) for table in results}) == 4
    assert len({canonical_json(table) for table in results}) == 1


@pytest.mark.parametrize("start", (0, 0.0), ids=("int-start", "float-start"))
def test_noise_grid_is_one_plus_sample_noise(seeded_world, start):
    # Every region pair over a day at 6-hour stamps, plus the case-4 shape;
    # an int start stamps 0, 21600.0, ... and hashes "0" for the first.
    specs = [CampaignSpec(src, dst, start, DAY, interval_s=6 * 3600.0)
             for src in Region for dst in Region]
    specs.append(CampaignSpec(Region.EUROPE, Region.ASIA, start, 7 * DAY))
    memo = campaign_module.CampaignMemo()
    for spec in specs:
        shape = memo.shape(seeded_world, spec)
        expected = [1.0 + sample_noise(src_asn, dst_asn, ts)
                    for ts in shape.stamps for _, _, src_asn, dst_asn, _ in shape.pairs]
        assert shape.factors.tolist() == expected
        assert repr(shape.stamps[0]) == repr(start)


def _assert_series_equal_oracle(table, rows, group_by, bin_seconds):
    # Each series is one tuple per bin column, in the oracle's series order,
    # and column i of every series is the oracle's bin i, value for value.
    fast = latency_series(table, group_by=group_by, bin_seconds=bin_seconds)
    reference = oracle.latency_series_from_rows(rows, group_by, bin_seconds)
    assert list(fast) == list(reference)
    for key, bins in reference.items():
        columns = fast[key]
        assert list(columns) == list(SERIES_COLUMNS)
        assert all(type(column) is tuple for column in columns.values())
        expected = [b.to_dict() for b in bins]
        for name in SERIES_COLUMNS:
            column = [b[name] for b in expected]
            assert list(columns[name]) == column, (key, name)
            assert canonical_json(columns[name]) == canonical_json(column), (key, name)
    gc.collect()
    assert not any(gc.is_tracked(column) for columns in fast.values()
                   for column in columns.values())
    return fast


@pytest.mark.parametrize("bin_seconds", [3600.0, 5400.0])
@pytest.mark.parametrize("group_by", GROUP_BYS)
def test_latency_series_equal_oracle(seeded_world, campaign, group_by, bin_seconds):
    # The lossy campaign, the part of it that crossed SeaMeWe-5 (a
    # paths_crossing_links table) and an empty table.
    table, rows = campaign
    fast = _assert_series_equal_oracle(table, rows, group_by, bin_seconds)
    assert any(None in s["median_rtt_ms"] or any(s["loss_count"]) for s in fast.values())

    link_ids = [link.id for link in
                seeded_world.links_on_cable(seeded_world.cable_named("SeaMeWe-5").id)]
    crossing = paths_crossing_links(table, link_ids)
    assert 0 < len(crossing["ts"]) < len(table["ts"])
    assert _assert_series_equal_oracle(crossing, oracle.paths_crossing_links(rows, link_ids),
                                       group_by, bin_seconds)

    empty = {name: column[:0] for name, column in table.items()}
    assert _assert_series_equal_oracle(empty, [], group_by, bin_seconds) == {}


def test_latency_series_rejects_bad_arguments():
    # Rejected even without rows (the oracle only noticed a bad group_by
    # once it had a row to key).
    with pytest.raises(ValueError):
        latency_series([], group_by="nope")
    with pytest.raises(ValueError):
        latency_series([], bin_seconds=0.0)


def test_paths_crossing_links_equal_oracle(seeded_world, campaign):
    table, rows = campaign
    link_ids = [link.id for name in ("SeaMeWe-5", "AAE-1")
                for link in seeded_world.links_on_cable(seeded_world.cable_named(name).id)]
    crossing = paths_crossing_links(table, link_ids)
    _assert_table(crossing)
    assert crossing["link_pool"] is table["link_pool"]
    reference = oracle.paths_crossing_links(rows, link_ids)
    assert 0 < len(reference) < len(rows)
    _assert_rows_equal_oracle(crossing, reference)


# -- BGP routing anomalies -----------------------------------------------------------


@pytest.fixture(scope="module")
def routing_inputs(world, incident):
    """``(update_rows, window_start, window_end)`` as case 4 passes them, and
    as every forensic workflow of a two-incident live replay passed them."""
    from repro.bgp import api as bgp_api
    from repro.live import LiveConfig, overlapping_catalog_timeline, run_live_replay

    inputs = [(fetch_updates(world, 0.0, 7 * DAY, incidents=[incident]), 0.0, 7 * DAY)]
    real = bgp_api.detect_routing_anomalies

    def recording(update_rows, window_start, window_end, **kwargs):
        inputs.append((update_rows, window_start, window_end))
        return real(update_rows, window_start, window_end, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bgp_api, "detect_routing_anomalies", recording)
        run_live_replay(world=world, timeline_events=overlapping_catalog_timeline(world, count=2),
                        config=LiveConfig(epochs=16, workers=2, forensics=True))
    assert len(inputs) > 2
    return inputs


@pytest.mark.parametrize("bin_seconds, z_threshold", [(3600.0, 3.0), (5400.0, 2.0)])
def test_routing_anomalies_equal_oracle(routing_inputs, bin_seconds, z_threshold):
    found = 0
    for rows, window_start, window_end in routing_inputs:
        fast = detect_routing_anomalies(rows, window_start, window_end, bin_seconds, z_threshold)
        assert fast == oracle.detect_routing_anomalies(
            rows, window_start, window_end, bin_seconds, z_threshold)
        found += len(fast)
    assert found


def test_routing_anomalies_equal_oracle_at_bin_edges():
    # Stamps on and around every bin edge of windows whose edges do not sum
    # exactly in floating point, plus stamps outside the window.
    rng = random.Random(5)
    for window_start, bin_seconds in ((0.1, 0.7), (1e5 + 0.3, 3600.1), (-7.25, 0.05)):
        window_end = window_start + 24 * bin_seconds
        stamps = [window_start + k * bin_seconds for k in range(-2, 27)]
        stamps += [edge + delta for edge in stamps for delta in (-1e-9, 1e-9)]
        stamps += [window_start + rng.uniform(-1, 25) * bin_seconds for _ in range(400)]
        stamps += [window_start + 5.5 * bin_seconds] * 200 + [window_end] * 3
        rows = [{"ts": ts, "collector": "c", "peer_asn": 1, "kind": rng.choice("AAW"),
                 "prefix": f"10.{index % 7}.0.0/16", "as_path": (1, 2)}
                for index, ts in enumerate(stamps)]
        for z_threshold in (3.0, 0.5):
            fast = detect_routing_anomalies(rows, window_start, window_end, bin_seconds,
                                            z_threshold)
            assert fast == oracle.detect_routing_anomalies(
                rows, window_start, window_end, bin_seconds, z_threshold)
            assert fast


def test_routing_anomalies_reject_an_unknown_update_kind():
    rows = [{"ts": 1.0, "collector": "c", "peer_asn": 1, "kind": kind, "prefix": "10.0.0.0/8"}
            for kind in ("A", "W", "X")]
    with pytest.raises(ValueError):
        oracle.detect_routing_anomalies(rows, 0.0, 10.0)
    with pytest.raises(ValueError):
        detect_routing_anomalies(rows, 0.0, 10.0)
    assert detect_routing_anomalies(rows[:2], 0.0, 10.0, bin_seconds=1.0) == \
        oracle.detect_routing_anomalies(rows[:2], 0.0, 10.0, bin_seconds=1.0)


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
    assert campaign_table(a, spec) == campaign_table(a, spec)
    assert len(campaign_memo(a)) == 1
    assert len(campaign_memo(b)) == 0
    assert campaign_table(b, spec) == campaign_table(a, spec)
    assert campaign_memo(a) is not campaign_memo(b)


def test_foreign_link_bypasses_the_memo(world):
    link = world.submarine_links()[0]
    observed_link_rtt_ms(world, link)
    moved = dataclasses.replace(link, coord_b=link.coord_a)
    assert observed_link_rtt_ms(world, moved) == link_rtt_ms(world, moved)
    assert observed_link_rtt_ms(world, moved) != observed_link_rtt_ms(world, link)
    assert world.memo("observed_link_rtt_ms", dict)[link.id] == link_rtt_ms(world, link)
