"""World assembly: determinism, cross-layer invariants, lookups."""

import pytest

from repro.synth.iplinks import LinkKind
from repro.synth.world import WorldConfig, build_world, default_world
from repro.topology.relations import isolated_asns


def test_determinism_same_seed(world):
    other = build_world(WorldConfig())
    assert [l.id for l in world.ip_links] == [l.id for l in other.ip_links]
    assert [l.ip_a for l in world.ip_links] == [l.ip_a for l in other.ip_links]
    assert [l.cable_id for l in world.ip_links] == [l.cable_id for l in other.ip_links]


def test_different_seeds_differ():
    a = build_world(WorldConfig(seed=1))
    b = build_world(WorldConfig(seed=2))
    assert [l.cable_id for l in a.ip_links] != [l.cable_id for l in b.ip_links]


def test_submarine_links_have_cables(world):
    for link in world.ip_links:
        if link.kind is LinkKind.SUBMARINE:
            assert link.cable_id is not None, link.id
            assert link.cable_id in world.cables
        else:
            assert link.cable_id is None, link.id


def test_link_kind_matches_geography(world):
    for link in world.ip_links:
        region_a = world.country(link.country_a).region
        region_b = world.country(link.country_b).region
        if link.kind is LinkKind.DOMESTIC:
            assert link.country_a == link.country_b
        elif link.kind is LinkKind.TERRESTRIAL:
            assert link.country_a != link.country_b
            assert region_a == region_b
        else:
            assert region_a != region_b


def test_link_index_consistency(world):
    for cable_id, links in world.links_by_cable.items():
        for link in links:
            assert link.cable_id == cable_id
    for link in world.ip_links:
        assert world.link_by_id[link.id] is link


def test_endpoint_ips_unique(world):
    ips = [l.ip_a for l in world.ip_links] + [l.ip_b for l in world.ip_links]
    assert len(ips) == len(set(ips))


def test_endpoint_ips_belong_to_as_prefix(world):
    import ipaddress

    for link in world.ip_links[:100]:
        prefix = world.prefixes[link.asn_a][0]
        assert ipaddress.ip_address(link.ip_a) in prefix.network


def test_prefixes_unique(world):
    cidrs = [p.cidr for p in world.all_prefixes()]
    assert len(cidrs) == len(set(cidrs))


def test_transit_ases_get_two_prefixes(world):
    for asn, asys in world.ases.items():
        expected = 2 if asys.tier <= 2 else 1
        assert len(world.prefixes[asn]) == expected


def test_cable_named_roundtrip(world):
    for name in world.cable_names():
        assert world.cable_named(name).name == name


def test_summary_counts(world):
    summary = world.summary()
    assert summary["ases"] == len(world.ases)
    assert summary["ip_links"] == len(world.ip_links)
    assert summary["submarine_links"] == len(world.submarine_links())
    assert summary["submarine_links"] > 50


def test_as_graph_connected(world):
    assert isolated_asns(world, ()) == []


def test_base_load_within_capacity(world):
    for link in world.ip_links:
        assert 0.0 < link.base_load < 1.0
        assert link.capacity_gbps > 0


def test_default_world_cached():
    assert default_world() is default_world()


def test_corridor_cables_carry_multiple_links(world):
    for name in ("SeaMeWe-5", "AAE-1"):
        cable = world.cable_named(name)
        assert len(world.links_on_cable(cable.id)) >= 5, name


def test_world_fingerprint_stable_and_config_sensitive(world):
    assert world.fingerprint() == world.fingerprint()
    assert build_world(WorldConfig()).fingerprint() == world.fingerprint()
    other = build_world(WorldConfig(seed=11))
    assert other.fingerprint() != world.fingerprint()
    assert len(world.fingerprint()) == 16
