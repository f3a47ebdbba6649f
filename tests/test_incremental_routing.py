"""Incremental re-convergence: equality with full SPF, LRU bounds, sharing."""

import pytest

from repro.bgp.collector import BGPCollectorSim, CollectorConfig, shared_collector
from repro.live.clock import WorldTimeline, timeline_from_catalog
from repro.topology.relations import ASGraph, failed_as_pairs
from repro.topology.routing import ValleyFreeRouter, path_adjacencies, path_crosses
from repro.synth.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def catalog_failure_sets(world):
    """Every distinct failed-link set the scenario-catalog timeline visits,
    including overlapping multi-event unions (36-epoch outages overlap the
    24-epoch catalog spacing)."""
    events = timeline_from_catalog(world, duration_epochs=36)
    timeline = WorldTimeline(world, events)
    states = timeline.run(240)
    return list(dict.fromkeys(s.failed_link_ids for s in states))


def test_incremental_equals_full_for_every_catalog_failure_set(
    world, catalog_failure_sets
):
    assert len(catalog_failure_sets) > 5  # the timeline really is multi-event
    sim = BGPCollectorSim(world)
    reference = BGPCollectorSim(world)
    for failure_set in catalog_failure_sets:
        assert sim.routes_under(failure_set) == reference.routes_under_full(
            failure_set
        ), f"diverged for failure set of {len(failure_set)} links"


def test_incremental_equality_survives_eviction_and_revisit(world, catalog_failure_sets):
    """A tiny LRU forces evictions mid-timeline; recomputed tables must
    still match the full reference."""
    sim = BGPCollectorSim(world, CollectorConfig(route_cache_entries=2))
    reference = BGPCollectorSim(world)
    sequence = list(catalog_failure_sets) + list(reversed(catalog_failure_sets))
    for failure_set in sequence:
        assert sim.routes_under(failure_set) == reference.routes_under_full(failure_set)
    info = sim.cache_info()
    assert info["entries"] <= 2
    assert info["evictions"] > 0


def test_route_cache_lru_bound_and_pinned_baseline(world, catalog_failure_sets):
    sim = BGPCollectorSim(world, CollectorConfig(route_cache_entries=3))
    baseline = sim.routes_under(frozenset())
    for failure_set in catalog_failure_sets:
        sim.routes_under(failure_set)
    info = sim.cache_info()
    assert info["entries"] <= 3
    assert info["evictions"] > 0
    # The baseline is pinned: still served without a recompute.
    recomputes_before = sim.cache_info()["full_recomputes"]
    assert sim.routes_under(frozenset()) is baseline
    assert sim.cache_info()["full_recomputes"] == recomputes_before


def test_cache_info_counts_hits_and_misses(world):
    sim = BGPCollectorSim(world)
    sim.routes_under(frozenset())
    sim.routes_under(frozenset())
    sim.routes_under(frozenset())
    info = sim.cache_info()
    assert info["misses"] == 1
    assert info["hits"] == 2
    assert info["full_recomputes"] == 1


def test_parallel_link_failure_shares_baseline_wholesale(world):
    """Failing one link of a multi-link adjacency severs nothing — the
    baseline table is shared structurally (same object)."""
    sim = BGPCollectorSim(world)
    links_per_pair = {}
    for link in world.ip_links:
        links_per_pair.setdefault(link.as_pair, []).append(link.id)
    redundant = next(
        ids for ids in links_per_pair.values() if len(ids) >= 2
    )
    baseline = sim.routes_under(frozenset())
    shared = sim.routes_under(frozenset(redundant[:1]))
    assert shared is baseline
    assert sim.cache_info()["shared_full_tables"] == 1


def test_affected_frontier_shares_unaffected_peer_routes(world, catalog_failure_sets):
    """Where the frontier leaves peers untouched, their route tuples are the
    baseline objects, not copies — sharing is structural."""
    sim = BGPCollectorSim(world)
    baseline = sim.routes_under(frozenset())
    shared_rows = 0
    for failure_set in catalog_failure_sets:
        degraded = sim.routes_under(failure_set)
        if degraded is baseline:
            continue  # shared wholesale — even stronger
        shared_rows += sum(
            1 for key, path in degraded.items()
            if key in baseline and baseline[key] is path
        )
    info = sim.cache_info()
    assert info["incremental_recomputes"] >= 1
    assert info["peers_shared"] > 0
    assert shared_rows > 0  # structural sharing, not value-equal copies


def test_path_helpers():
    dead = {(2, 3)}
    assert path_crosses((1, 2, 3, 4), dead)
    assert path_crosses((4, 3, 2), dead)  # direction-insensitive
    assert not path_crosses((1, 2, 4), dead)
    assert path_adjacencies((3, 1, 2)) == {(1, 3), (1, 2)}


def test_router_dead_pairs_filter_matches_pruned_graph(world):
    """Routing around dead pairs must equal routing on the pruned graph —
    same winners, same deterministic tie-breaks."""
    graph = ASGraph.from_world(world)
    failed = [link.id for link in world.submarine_links()[:10]]
    dead = failed_as_pairs(world, failed)
    if not dead:
        pytest.skip("failure sample severed no adjacency")
    pruned_router = ValleyFreeRouter(graph.without_pairs(dead))
    filtered_router = ValleyFreeRouter(graph, dead_pairs=dead)
    src = sorted(graph.all_asns)[0]
    assert pruned_router.paths_from(src) == filtered_router.paths_from(src)


def test_shared_collector_memoizes_per_world_and_config(world):
    a = shared_collector(world)
    b = shared_collector(world)
    c = shared_collector(world, CollectorConfig(seed=99))
    assert a is b
    assert c is not a
    other = build_world(WorldConfig(seed=12))
    assert shared_collector(other) is not a


def test_shared_collector_generates_identical_updates(world, incident):
    """Sharing the collector (and its route cache) must not change the
    update stream a fresh collector would produce."""
    fresh = BGPCollectorSim(world).generate_updates(0.0, 86_400.0 * 7, [incident])
    shared = shared_collector(world)
    first = shared.generate_updates(0.0, 86_400.0 * 7, [incident])
    second = shared.generate_updates(0.0, 86_400.0 * 7, [incident])
    assert first == fresh
    assert second == fresh  # warm route cache, identical stream


def test_world_memoizes_prefixes_and_fingerprint():
    world = build_world(WorldConfig(seed=5))
    assert world.all_prefixes() is world.all_prefixes()
    first = world.fingerprint()
    assert world.fingerprint() is first  # hexdigest() builds a new str per call


# -- raw routing core: converge_full, delta streams, pinning, metrics --------


def test_converge_full_matches_routes_under_full(world, catalog_failure_sets):
    """The int-indexed engine's one-shot convergence must be byte-identical
    to the legacy-router full recompute — values and row order."""
    sim = BGPCollectorSim(world)
    for failure_set in [frozenset()] + catalog_failure_sets[:4]:
        fast = sim.converge_full(failure_set)
        slow = sim.routes_under_full(failure_set)
        assert list(fast.items()) == list(slow.items())


def test_deltas_since_apply_reconstructs_and_counts(world, catalog_failure_sets):
    sim = BGPCollectorSim(world)
    baseline = sim.routes_under(frozenset())
    target = next(fs for fs in catalog_failure_sets if fs)
    before = sim.cache_info()
    delta = sim.deltas_since(frozenset(), target)
    assert delta.apply(baseline) == sim.routes_under(target)
    assert not delta.empty
    assert delta.nbytes > 0
    info = sim.cache_info()
    assert info["delta_emits"] == before["delta_emits"] + 1
    assert info["delta_routes"] == before["delta_routes"] + delta.route_count
    assert info["delta_bytes"] == before["delta_bytes"] + delta.nbytes


def test_delta_stream_pin_protects_position_from_eviction(
    world, catalog_failure_sets
):
    """The stream's current position must survive any cache pressure; once
    the stream closes, the entry becomes an ordinary eviction candidate."""
    nonempty = [fs for fs in catalog_failure_sets if fs]
    assert len(nonempty) >= 5
    sim = BGPCollectorSim(world, CollectorConfig(route_cache_entries=2))
    stream = sim.delta_stream()
    position = nonempty[0]
    stream.advance(position)
    table = sim.routes_under(position)
    for failure_set in nonempty[1:5]:  # flood the tiny LRU
        sim.routes_under(failure_set)
    assert sim.cache_info()["pinned"] == 1
    misses_before = sim.cache_info()["misses"]
    assert sim.routes_under(position) is table  # pinned: same object, no miss
    assert sim.cache_info()["misses"] == misses_before

    stream.close()
    assert stream.closed
    assert sim.cache_info()["pinned"] == 0
    for failure_set in nonempty[1:5]:
        sim.routes_under(failure_set)
    misses_before = sim.cache_info()["misses"]
    sim.routes_under(position)  # unpinned entry was evicted: recompute
    assert sim.cache_info()["misses"] == misses_before + 1


def test_delta_stream_stats_and_context_manager(world, catalog_failure_sets):
    sim = BGPCollectorSim(world)
    with sim.delta_stream() as stream:
        total_routes = 0
        for failure_set in catalog_failure_sets[:3]:
            total_routes += stream.advance(failure_set).route_count
        stats = stream.stats()
        assert stats["deltas_emitted"] == 3
        assert stats["routes_emitted"] == total_routes
        assert stats["bytes_emitted"] > 0
    assert stream.stats()["closed"]
    with pytest.raises(RuntimeError):
        stream.advance(frozenset())


def test_cache_info_exposes_repair_and_delta_counters(world):
    info = BGPCollectorSim(world).cache_info()
    for key in (
        "pinned", "pairs_repaired", "pairs_shared", "repair_frontier_peak",
        "delta_emits", "delta_routes", "delta_bytes",
    ):
        assert key in info, key


def test_sync_metrics_is_idempotent_across_scrapes(world, catalog_failure_sets):
    from repro.obs.metrics import MetricsRegistry

    sim = BGPCollectorSim(world)
    for failure_set in catalog_failure_sets[:3]:
        sim.routes_under(failure_set)
    registry = MetricsRegistry()
    # A scrape-time collector, registered as QueryBroker._refresh_routing is.
    registry.register_collector(lambda reg: sim.sync_metrics(reg, {"world": "t"}))
    text = registry.prometheus_text()
    assert 'routing_misses_total{world="t"}' in text
    misses = registry.counter("routing_misses_total", {"world": "t"}).value
    assert misses == sim.cache_info()["misses"]
    registry.prometheus_text()  # second scrape: high-water mark, no re-count
    assert registry.counter(
        "routing_misses_total", {"world": "t"}
    ).value == misses
    sim.routes_under(frozenset("no-such-link"))  # new work shows up as +1
    registry.prometheus_text()
    assert registry.counter(
        "routing_misses_total", {"world": "t"}
    ).value == misses + 1


def test_broker_scrape_surfaces_routing_series(world):
    from repro.serve import QueryBroker, ServeConfig

    broker = QueryBroker(world, config=ServeConfig(workers=1))  # never started
    sim = shared_collector(broker.shard().world)
    sim.routes_under(frozenset())
    text = broker.metrics.prometheus_text()
    assert 'routing_full_recomputes_total{world="default"}' in text
    assert 'routing_route_cache_entries{world="default"}' in text
