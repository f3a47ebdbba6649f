"""Expert solution for case study 1: cable failure → country-level impact.

The Xaminer way (§4.1): cross-layer mapping feeds dependency extraction,
the failed-link set drives the impact engine, and the embedding module
produces normalised country metrics.  Contrast with the generated solution,
which — lacking Xaminer — builds a direct aggregation pipeline; both must
arrive at similar country rankings.
"""

from __future__ import annotations

from repro.nautilus.dependencies import extract_cable_dependencies
from repro.nautilus.mapping import world_cable_mappings
from repro.xaminer.aggregate import rank_countries
from repro.xaminer.impact import compute_impact
from repro.synth.world import SyntheticWorld

#: Canonical analysis stages this workflow performs, for overlap scoring.
STAGE_KINDS = frozenset(
    {
        "dependency_resolution",
        "cross_layer_mapping",
        "geographic_mapping",
        "country_aggregation",
        "impact_ranking",
        "report",
    }
)


def expert_cable_country_impact(world: SyntheticWorld, cable_name: str) -> dict:
    """Country-level impact of one cable failure, the specialist way."""
    cable = world.cable_named(cable_name)
    mappings = world_cable_mappings(world)
    dependencies = extract_cable_dependencies(world, cable.id, mappings)
    report = compute_impact(world, dependencies.link_ids)
    ranking = rank_countries(report)
    affected_counts = [
        {
            "country": impact.country_code,
            "links_affected": impact.links_affected,
            "ips_affected": impact.ips_affected,
            "capacity_lost_gbps": round(impact.capacity_lost_gbps, 1),
        }
        for impact in report.ranked_countries()
        if impact.links_affected > 0
    ]
    return {
        "title": f"Country-level impact of {cable.name} failure (expert)",
        "cable_id": cable.id,
        "cable_name": cable.name,
        "ranking": ranking,
        "affected_counts": affected_counts,
        "failed_link_ids": dependencies.link_ids,
        "affected_countries": dependencies.country_codes,
        "isolated_asns": report.isolated_asns,
        "stage_kinds": sorted(STAGE_KINDS),
    }
