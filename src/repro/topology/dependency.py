"""Dependencies: who depends on whom, at the AS and cable layers.

``as_dependency_scores`` is an AS-hegemony-style metric: the fraction of all
policy paths that transit an AS.  ``shared_cable_ases`` links the physical
and logical layers: the ASes that ride several of a set of cables.
"""

from __future__ import annotations

from repro.topology.relations import ASGraph
from repro.topology.routing import ValleyFreeRouter
from repro.synth.world import SyntheticWorld


def as_dependency_scores(world: SyntheticWorld, sample_sources: int | None = None) -> dict[int, float]:
    """Hegemony-like transit dependency score per AS.

    Score of X = fraction of (src, dst) policy paths where X appears as an
    intermediate hop.  ``sample_sources`` caps the number of BFS sources for
    large worlds; ``None`` uses every AS.
    """
    graph = ASGraph.from_world(world)
    router = ValleyFreeRouter(graph)
    sources = sorted(graph.all_asns)
    if sample_sources is not None:
        sources = sources[:sample_sources]
    transit_counts: dict[int, int] = {asn: 0 for asn in graph.all_asns}
    total_paths = 0
    for src in sources:
        for dst, path in router.paths_from(src).items():
            if dst == src:
                continue
            total_paths += 1
            for asn in path[1:-1]:
                transit_counts[asn] += 1
    if total_paths == 0:
        return {asn: 0.0 for asn in graph.all_asns}
    return {asn: count / total_paths for asn, count in transit_counts.items()}


def shared_cable_ases(world: SyntheticWorld, cable_ids: list[str]) -> list[int]:
    """ASes with links on at least two of the given cables.

    These are the propagation bridges a multi-cable failure stresses first.
    """
    counts: dict[int, set[str]] = {}
    for cable_id in cable_ids:
        for link in world.links_on_cable(cable_id):
            for asn in (link.asn_a, link.asn_b):
                counts.setdefault(asn, set()).add(cable_id)
    return sorted(asn for asn, cables in counts.items() if len(cables) >= 2)
