"""Compute-once memos: the per-world cable mapping, the per-world Xaminer
country denominators, and the per-source compile of generated code.

Each memo is held to exact equality with a from-scratch oracle kept here:
a fresh :class:`CrossLayerMapper` for the mapping (and for the two Nautilus
registry functions built on it), and a direct walk over the IP links for
the denominators.
"""

from __future__ import annotations

import pytest

from repro.core.artifacts import GeneratedSolution
from repro.core.codegen import COMPILE_CACHE_SIZE, compile_solution
from repro.core.executor import execute_solution
from repro.nautilus.api import get_cable_dependencies, map_ip_links_to_cables
from repro.nautilus.dependencies import extract_cable_dependencies
from repro.nautilus.mapping import CrossLayerMapper, world_cable_mappings
from repro.synth.world import WorldConfig, build_world
from repro.xaminer.impact import compute_impact, country_denominators

SEEDS = (7, 11, 3)


@pytest.fixture(scope="module", params=SEEDS, ids=[f"world{seed}" for seed in SEEDS])
def seeded_world(request):
    return build_world(WorldConfig(seed=request.param))


# -- oracles -------------------------------------------------------------------


def fresh_ip_link_rows(world) -> dict[str, dict]:
    """``map_ip_links_to_cables`` computed from a fresh mapper."""
    out: dict[str, dict] = {}
    for link_id, mapping in CrossLayerMapper(world).map_all().items():
        link = world.link_by_id[link_id]
        out[link_id] = {
            "link_id": link_id,
            "cable_id": mapping.cable_id,
            "cable_name": world.cables[mapping.cable_id].name if mapping.cable_id else None,
            "confidence": round(mapping.confidence, 4),
            "candidates": [
                {"cable_id": cid, "score": round(score, 4)} for cid, score in mapping.candidates
            ],
            "asn_a": link.asn_a,
            "asn_b": link.asn_b,
            "country_a": link.country_a,
            "country_b": link.country_b,
            "capacity_gbps": link.capacity_gbps,
        }
    return out


def fresh_cable_dependencies(world, cable_name: str) -> dict:
    """``get_cable_dependencies`` computed from a fresh mapper."""
    cable = world.cable_named(cable_name)
    mappings = CrossLayerMapper(world).map_all()
    return extract_cable_dependencies(world, cable.id, mappings).to_dict()


def walked_denominators(world) -> dict[str, tuple[int, int, int, int, float]]:
    """Per-country totals from a direct walk, in the original accumulation order."""
    totals = {code: [0, 0, set(), set(), 0.0] for code in world.countries}
    for link in world.ip_links:
        for country, asn in ((link.country_a, link.asn_a), (link.country_b, link.asn_b)):
            record = totals[country]
            record[0] += 1
            record[1] += 1
            record[2].add(asn)
            record[3].add(link.as_pair)
            record[4] += link.capacity_gbps
    return {
        code: (ips, links, len(ases), len(as_links), capacity)
        for code, (ips, links, ases, as_links, capacity) in totals.items()
    }


# -- Nautilus mapping, once per world --------------------------------------------


def test_world_mapping_equals_fresh_mapper(seeded_world):
    memo = world_cable_mappings(seeded_world)
    fresh = CrossLayerMapper(seeded_world).map_all()
    assert list(memo) == list(fresh)
    for link_id, mapping in fresh.items():
        assert memo[link_id] == mapping
    assert world_cable_mappings(seeded_world) is memo


def test_world_mapping_is_read_only(seeded_world):
    memo = world_cable_mappings(seeded_world)
    link_id = next(iter(memo))
    with pytest.raises(TypeError):
        memo[link_id] = None
    with pytest.raises(TypeError):
        memo["new-link"] = memo[link_id]


def test_worlds_from_one_config_do_not_share_the_mapping():
    config = WorldConfig(seed=11)
    first, second = build_world(config), build_world(config)
    assert world_cable_mappings(first) is not world_cable_mappings(second)
    assert dict(world_cable_mappings(first)) == dict(world_cable_mappings(second))


def test_custom_mappers_bypass_the_memo(seeded_world):
    memo = world_cable_mappings(seeded_world)
    geometric = CrossLayerMapper(seeded_world, use_rtt=False).map_all()
    assert any(geometric[link_id] != memo[link_id] for link_id in memo)
    narrow = CrossLayerMapper(seeded_world, candidate_count=1).map_all()
    assert all(len(mapping.candidates) <= 1 for mapping in narrow.values())
    assert world_cable_mappings(seeded_world) is memo


def test_map_ip_links_to_cables_matches_fresh_mapper(seeded_world):
    assert map_ip_links_to_cables(seeded_world) == fresh_ip_link_rows(seeded_world)


def test_map_ip_links_to_cables_rows_are_private_copies(seeded_world):
    rows = map_ip_links_to_cables(seeded_world)
    link_id = next(iter(rows))
    rows[link_id]["cable_id"] = "tampered"
    rows.pop(link_id)
    assert map_ip_links_to_cables(seeded_world) == fresh_ip_link_rows(seeded_world)


def test_get_cable_dependencies_matches_fresh_mapper_for_every_cable(seeded_world):
    for cable_name in seeded_world.cable_names():
        assert get_cable_dependencies(seeded_world, cable_name) == fresh_cable_dependencies(
            seeded_world, cable_name
        )


# -- Xaminer country denominators, once per world -------------------------------


def test_memoized_denominators_equal_a_fresh_walk(seeded_world):
    walked = walked_denominators(seeded_world)
    memo = country_denominators(seeded_world)
    assert set(memo) == set(walked) == set(seeded_world.countries)
    for code, totals in walked.items():
        assert memo[code] == totals
    assert country_denominators(seeded_world) is memo
    with pytest.raises(TypeError):
        memo[next(iter(memo))] = (0, 0, 0, 0, 0.0)


def test_compute_impact_returns_fresh_country_records(seeded_world):
    cable = seeded_world.cable_names()[0]
    failed = get_cable_dependencies(seeded_world, cable)["link_ids"]
    first = compute_impact(seeded_world, failed)
    second = compute_impact(seeded_world, [])
    walked = walked_denominators(seeded_world)
    for code, record in first.by_country.items():
        assert record is not second.by_country[code]
        assert second.by_country[code].links_affected == 0
        assert (
            record.ips_total,
            record.links_total,
            record.ases_total,
            record.as_links_total,
            record.capacity_total_gbps,
        ) == walked[code]
    assert sum(r.links_affected for r in first.by_country.values()) == 2 * len(failed)


# -- one compile per generated source ------------------------------------------


def test_compile_helper_returns_one_code_object_per_source():
    source = "def run(catalog, params=None):\n    return {'results': {'n': 1}}\n"
    assert compile_solution(source) is compile_solution(source)
    assert compile_solution(source + "\n") is not compile_solution(source)


def test_rebound_module_global_does_not_leak_between_runs(catalog):
    solution = GeneratedSolution(
        source_code=(
            "COUNTER = 0\n"
            "def run(catalog, params=None):\n"
            "    global COUNTER\n"
            "    COUNTER += 1\n"
            "    return {'results': {'counter': COUNTER}}\n"
        )
    )
    for _ in range(3):
        outcome = execute_solution(solution, catalog)
        assert outcome.succeeded, outcome.error
        assert outcome.outputs["results"]["counter"] == 1


def test_syntax_error_surfaces_and_is_not_cached(catalog):
    source = "def run(catalog, params=None):\n    return (\n"
    before = compile_solution.cache_info()
    for _ in range(2):
        with pytest.raises(SyntaxError):
            compile_solution(source)
    after = compile_solution.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
    outcome = execute_solution(GeneratedSolution(source_code=source), catalog)
    assert not outcome.succeeded
    assert "failed to load" in outcome.error


def test_compile_cache_never_exceeds_its_bound():
    for index in range(COMPILE_CACHE_SIZE + 20):
        compile_solution(f"VALUE = {index}\n")
        assert compile_solution.cache_info().currsize <= COMPILE_CACHE_SIZE
    assert compile_solution.cache_info().maxsize == COMPILE_CACHE_SIZE
