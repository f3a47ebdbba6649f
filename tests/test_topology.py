"""Topology substrate: relations, valley-free routing, dependency, cascade."""

from types import SimpleNamespace

import pytest

from repro.topology.cascade import propagate_cascade
from repro.topology.dependency import as_dependency_scores
from repro.topology.relations import ASGraph, failed_as_pairs, isolated_asns
from repro.topology.routing import ValleyFreeRouter


@pytest.fixture(scope="module")
def as_graph(world):
    return ASGraph.from_world(world)


@pytest.fixture(scope="module")
def router(as_graph):
    return ValleyFreeRouter(as_graph)


# -- relations -------------------------------------------------------------------

def test_graph_covers_all_ases(world, as_graph):
    assert as_graph.all_asns == set(world.ases.keys())


def test_provider_customer_symmetry(as_graph):
    for asn in as_graph.all_asns:
        for provider in as_graph.providers[asn]:
            assert asn in as_graph.customers[provider]
        for customer in as_graph.customers[asn]:
            assert asn in as_graph.providers[customer]


def test_peer_symmetry(as_graph):
    for asn in as_graph.all_asns:
        for peer in as_graph.peers[asn]:
            assert asn in as_graph.peers[peer]


def test_failed_pairs_requires_all_parallel_links_down(world):
    # Find a pair with 2+ parallel links; failing one must not sever it.
    by_pair = {}
    for link in world.ip_links:
        by_pair.setdefault(link.as_pair, []).append(link)
    multi = next(pair for pair, links in by_pair.items() if len(links) >= 2)
    links = by_pair[multi]
    assert failed_as_pairs(world, [links[0].id]) == set()
    assert failed_as_pairs(world, [l.id for l in links]) == {multi}


def test_without_pairs_removes_edges(world, as_graph):
    link = world.ip_links[0]
    pair = link.as_pair
    pruned = as_graph.without_pairs({pair})
    assert pair[1] not in (pruned.providers[pair[0]] | pruned.peers[pair[0]]
                           | pruned.customers[pair[0]])


# -- valley-free routing -------------------------------------------------------------

def test_paths_start_and_end_correctly(router, as_graph):
    src = min(as_graph.all_asns)
    paths = router.paths_from(src)
    for dst, path in paths.items():
        assert path[0] == src
        assert path[-1] == dst
        assert len(path) == len(set(path))  # loop-free


def test_valley_free_property(router, as_graph):
    """Once a path descends (peer or customer edge), it never climbs again."""
    src = min(as_graph.all_asns)
    for path in router.paths_from(src).values():
        descending = False
        for a, b in zip(path, path[1:]):
            if b in as_graph.providers[a]:
                assert not descending, f"valley in path {path}"
            else:
                descending = True


def test_router_reaches_most_of_the_graph(router, as_graph):
    src = min(as_graph.all_asns)
    reachable = router.paths_from(src)
    assert len(reachable) >= 0.9 * len(as_graph.all_asns)


def test_router_unknown_source(router):
    with pytest.raises(KeyError):
        router.paths_from(99999)


def test_router_deterministic(as_graph):
    a = ValleyFreeRouter(as_graph)
    b = ValleyFreeRouter(as_graph)
    src = min(as_graph.all_asns)
    assert a.paths_from(src) == b.paths_from(src)


# -- dependency ------------------------------------------------------------------------

def test_dependency_scores_bounded(world):
    scores = as_dependency_scores(world, sample_sources=40)
    assert all(0.0 <= s <= 1.0 for s in scores.values())
    # Tier-1 transits must dominate edge networks.
    tier1 = [world.ases[a].asn for a in scores if world.ases[a].tier == 1]
    tier3 = [world.ases[a].asn for a in scores if world.ases[a].tier == 3]
    mean1 = sum(scores[a] for a in tier1) / len(tier1)
    mean3 = sum(scores[a] for a in tier3) / len(tier3)
    assert mean1 > mean3 * 5


def test_isolated_asns_tie_keeps_first_half_as_giant():
    """Two equal halves: the giant is the half holding the first AS in
    ``world.ases`` order, so the other half is reported isolated."""
    link = lambda lid, a, b: SimpleNamespace(id=lid, asn_a=a, asn_b=b)
    world = SimpleNamespace(
        ases=dict.fromkeys([30, 10, 40, 20]),
        ip_links=[link("l1", 10, 20), link("l2", 30, 40), link("bridge", 20, 40)],
    )
    assert isolated_asns(world, []) == []
    assert isolated_asns(world, ["bridge"]) == [10, 20]
    world.ases = dict.fromkeys([20, 30, 10, 40])
    assert isolated_asns(world, ["bridge"]) == [30, 40]
    assert isolated_asns(world, ["l1", "l2", "bridge"]) == [10, 30, 40]


# -- cascade ---------------------------------------------------------------------------

def test_cascade_no_failures_is_quiet(world):
    result = propagate_cascade(world, [])
    assert result.rounds == []
    assert result.final_failed_link_ids == []


def test_cascade_monotone_and_bounded(world):
    initial = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    result = propagate_cascade(world, initial,
                               initial_cable_ids=["cable-seamewe-5"],
                               max_rounds=5)
    assert set(initial) <= set(result.final_failed_link_ids)
    assert result.total_rounds <= 5
    seen = set(initial)
    for rnd in result.rounds[1:]:
        newly = set(rnd.newly_failed_link_ids)
        assert newly.isdisjoint(seen - newly) or newly <= seen | newly
        seen |= newly


def test_cascade_timeline_layers(world):
    initial = [l.id for l in world.links_on_cable("cable-aae-1")]
    result = propagate_cascade(world, initial, initial_cable_ids=["cable-aae-1"])
    layers = {event["layer"] for event in result.timeline()}
    assert "cable" in layers
    assert "ip" in layers


def test_cascade_lower_threshold_fails_more(world):
    initial = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    strict = propagate_cascade(world, initial, overload_threshold=2.0)
    loose = propagate_cascade(world, initial, overload_threshold=0.5)
    assert len(loose.final_failed_link_ids) >= len(strict.final_failed_link_ids)


def test_cascade_round_records_shed_load(world):
    corridor = ["cable-seamewe-5", "cable-aae-1", "cable-seamewe-4"]
    initial = []
    for cid in corridor:
        initial.extend(l.id for l in world.links_on_cable(cid))
    result = propagate_cascade(world, initial, initial_cable_ids=corridor)
    assert result.rounds
    first = result.rounds[0]
    assert first.load_shed_gbps >= 0.0
    assert first.newly_failed_link_ids == sorted(set(initial))
