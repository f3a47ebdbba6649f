"""Cross-layer cascading-failure propagation.

Models the second-order effect the paper's case study 3 analyses: when links
riding a failed cable disappear, their traffic reroutes onto surviving
policy-compliant paths; links pushed past their capacity threshold fail in
the next round, and so on.  The result is a per-round timeline spanning the
cable, IP-link and AS layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.relations import ASGraph, failed_as_pairs, isolated_asns
from repro.topology.routing import ValleyFreeRouter
from repro.synth.world import SyntheticWorld


@dataclass
class CascadeRound:
    """What happened in one propagation round."""

    index: int
    newly_failed_link_ids: list[str] = field(default_factory=list)
    overloaded_link_ids: list[str] = field(default_factory=list)
    severed_as_pairs: list[tuple[int, int]] = field(default_factory=list)
    isolated_asns: list[int] = field(default_factory=list)
    load_shed_gbps: float = 0.0

    def to_dict(self) -> dict:
        return {
            "round": self.index,
            "newly_failed_link_ids": list(self.newly_failed_link_ids),
            "overloaded_link_ids": list(self.overloaded_link_ids),
            "severed_as_pairs": [list(p) for p in self.severed_as_pairs],
            "isolated_asns": list(self.isolated_asns),
            "load_shed_gbps": round(self.load_shed_gbps, 1),
        }


@dataclass
class CascadeResult:
    """Full cascade outcome: rounds plus cross-layer timeline."""

    initial_cable_ids: list[str]
    rounds: list[CascadeRound] = field(default_factory=list)
    final_failed_link_ids: list[str] = field(default_factory=list)
    final_isolated_asns: list[int] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    def timeline(self) -> list[dict]:
        """Unified cable/IP/AS-layer event timeline, the CS3 deliverable."""
        events: list[dict] = []
        for cable_id in self.initial_cable_ids:
            events.append({"round": 0, "layer": "cable", "event": "cable_failed", "id": cable_id})
        for rnd in self.rounds:
            for link_id in rnd.newly_failed_link_ids:
                events.append(
                    {"round": rnd.index, "layer": "ip", "event": "link_failed", "id": link_id}
                )
            for pair in rnd.severed_as_pairs:
                events.append(
                    {
                        "round": rnd.index,
                        "layer": "as",
                        "event": "adjacency_severed",
                        "id": f"{pair[0]}-{pair[1]}",
                    }
                )
            for asn in rnd.isolated_asns:
                events.append(
                    {"round": rnd.index, "layer": "as", "event": "as_isolated", "id": str(asn)}
                )
        return events

    def to_dict(self) -> dict:
        return {
            "initial_cable_ids": list(self.initial_cable_ids),
            "rounds": [r.to_dict() for r in self.rounds],
            "final_failed_link_ids": list(self.final_failed_link_ids),
            "final_isolated_asns": list(self.final_isolated_asns),
            "timeline": self.timeline(),
        }


def propagate_cascade(
    world: SyntheticWorld,
    initial_failed_link_ids: list[str],
    initial_cable_ids: list[str] | None = None,
    overload_threshold: float = 0.95,
    max_rounds: int = 10,
) -> CascadeResult:
    """Propagate failures until quiescence or ``max_rounds``.

    Each round: the load of links failed in the previous round reroutes onto
    the least-loaded surviving link of every adjacency along the shortest
    valley-free detour between the failed link's endpoints.  Links whose
    utilisation exceeds ``overload_threshold`` fail in the next round.
    Traffic with no policy-compliant detour is shed (counted, not moved) —
    shedding is what stops infinite propagation.
    """
    base_graph = ASGraph.from_world(world)
    loads: dict[str, float] = {
        link.id: link.base_load * link.capacity_gbps for link in world.ip_links
    }
    capacities: dict[str, float] = {
        link.id: link.capacity_gbps for link in world.ip_links
    }

    failed: set[str] = set(initial_failed_link_ids)
    result = CascadeResult(initial_cable_ids=sorted(initial_cable_ids or []))
    frontier = sorted(failed)
    round_index = 0
    prev_isolated: set[int] = set()

    while frontier and round_index < max_rounds:
        round_index += 1
        rnd = CascadeRound(index=round_index, newly_failed_link_ids=list(frontier))

        dead_pairs = failed_as_pairs(world, sorted(failed))
        pruned = base_graph.without_pairs(dead_pairs)
        router = ValleyFreeRouter(pruned)

        alive_by_pair: dict[tuple[int, int], list[str]] = {}
        for link in world.ip_links:
            if link.id not in failed:
                alive_by_pair.setdefault(link.as_pair, []).append(link.id)

        for link_id in frontier:
            link = world.link_by_id[link_id]
            shifted_load = link.base_load * link.capacity_gbps
            detour = router.best_path(link.asn_a, link.asn_b)
            if detour is None or len(detour) < 2:
                rnd.load_shed_gbps += shifted_load
                continue
            segments: list[str] = []
            for a, b in zip(detour, detour[1:]):
                pair = (min(a, b), max(a, b))
                candidates = alive_by_pair.get(pair, [])
                if not candidates:
                    segments = []
                    break
                segments.append(
                    min(candidates, key=lambda lid: (loads[lid] / capacities[lid], lid))
                )
            if not segments:
                rnd.load_shed_gbps += shifted_load
                continue
            for seg_id in segments:
                loads[seg_id] += shifted_load

        overloaded = sorted(
            link_id
            for link_id, load in loads.items()
            if link_id not in failed and load > overload_threshold * capacities[link_id]
        )
        rnd.overloaded_link_ids = overloaded
        rnd.severed_as_pairs = sorted(failed_as_pairs(world, sorted(failed | set(overloaded))))
        isolated_now = set(isolated_asns(world, failed | set(overloaded)))
        rnd.isolated_asns = sorted(isolated_now - prev_isolated)
        prev_isolated |= isolated_now
        result.rounds.append(rnd)

        failed |= set(overloaded)
        frontier = overloaded

    result.final_failed_link_ids = sorted(failed)
    result.final_isolated_asns = sorted(prev_isolated)
    return result
