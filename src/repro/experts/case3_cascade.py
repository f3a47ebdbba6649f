"""Expert solution for case study 3: Europe–Asia cascading failure analysis.

The specialist integrates four systems by hand: cartography scopes corridor
cables and maps links; the impact engine quantifies first-order damage; the
full load-redistribution cascade simulator propagates secondary failures;
BGP and traceroute capture the temporal evolution; and a synthesis step
builds the unified cross-layer timeline — the "days of manual coordination"
the paper describes.
"""

from __future__ import annotations

from repro.bgp.api import fetch_updates, summarize_path_changes
from repro.nautilus.dependencies import cables_between_regions, extract_cable_dependencies
from repro.nautilus.mapping import world_cable_mappings
from repro.topology.cascade import propagate_cascade
from repro.traceroute.api import latency_series, run_campaign
from repro.xaminer.aggregate import rank_countries
from repro.xaminer.impact import compute_impact
from repro.synth.geography import Region
from repro.synth.world import SyntheticWorld

STAGE_KINDS = frozenset(
    {
        "cable_inventory",
        "geographic_scoping",
        "cross_layer_mapping",
        "failure_derivation",
        "event_processing",
        "report_combination",
        "cascade_modeling",
        "routing_collection",
        "route_change_analysis",
        "latency_collection",
        "series_aggregation",
        "cross_layer_synthesis",
    }
)


def expert_cascade_analysis(
    world: SyntheticWorld,
    src_region: Region = Region.EUROPE,
    dst_region: Region = Region.ASIA,
    window: tuple[float, float] = (0.0, 604_800.0),
    incidents: list | None = None,
) -> dict:
    """Cascading effects of corridor cable failures, the specialist way."""
    corridor = cables_between_regions(world, src_region, dst_region)
    mappings = world_cable_mappings(world)

    failed_links: set[str] = set()
    for cable_id in corridor:
        deps = extract_cable_dependencies(world, cable_id, mappings)
        failed_links.update(deps.link_ids)

    impact = compute_impact(world, sorted(failed_links))
    cascade = propagate_cascade(
        world,
        initial_failed_link_ids=sorted(failed_links),
        initial_cable_ids=sorted(corridor),
    )

    updates = fetch_updates(world, window[0], window[1], incidents=incidents or [])
    path_changes = summarize_path_changes(updates)
    measurements = run_campaign(
        world, src_region.value, dst_region.value, window[0], window[1],
        interval_s=21_600.0, incidents=incidents or [],
    )
    series = latency_series(measurements)

    timeline = cascade.timeline()
    for change in path_changes["changes"][:100]:
        timeline.append(
            {"round": 1, "layer": "as", "event": "path_change", "id": change["prefix"]}
        )
    layer_counts: dict[str, int] = {}
    for event in timeline:
        layer_counts[event["layer"]] = layer_counts.get(event["layer"], 0) + 1

    return {
        "title": f"Cascading failures {src_region.value}->{dst_region.value} (expert)",
        "corridor_cables": sorted(world.cables[cid].name for cid in corridor),
        "initial_failed_links": sorted(failed_links),
        "country_ranking": rank_countries(impact),
        "cascade_rounds": cascade.total_rounds,
        "cascade": cascade.to_dict(),
        "timeline": timeline,
        "layer_counts": layer_counts,
        "path_changes": {"changed": path_changes["changed_count"],
                         "lost": path_changes["lost_count"]},
        "latency_pairs": len(series),
        "stage_kinds": sorted(STAGE_KINDS),
    }
