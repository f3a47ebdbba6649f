"""Cable dependency extraction: what rides on a given cable.

Given a cross-layer mapping, dependency extraction answers the inverse
question to mapping: for a cable, which IP links, addresses, ASes, AS-level
adjacencies and countries depend on it.  These are exactly the raw materials
the Xaminer-style impact analysis aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.nautilus.mapping import CableMapping
from repro.synth.world import SyntheticWorld


@dataclass
class CableDependencies:
    """Everything that depends on one submarine cable."""

    cable_id: str
    cable_name: str
    link_ids: list[str] = field(default_factory=list)
    ips: list[str] = field(default_factory=list)
    asns: list[int] = field(default_factory=list)
    as_adjacencies: list[tuple[int, int]] = field(default_factory=list)
    country_codes: list[str] = field(default_factory=list)
    total_capacity_gbps: float = 0.0

    def to_dict(self) -> dict:
        """JSON-able view, the format the registry function returns."""
        return {
            "cable_id": self.cable_id,
            "cable_name": self.cable_name,
            "link_ids": list(self.link_ids),
            "ips": list(self.ips),
            "asns": list(self.asns),
            "as_adjacencies": [list(pair) for pair in self.as_adjacencies],
            "country_codes": list(self.country_codes),
            "total_capacity_gbps": self.total_capacity_gbps,
        }


def _mapping_covers(mapping: CableMapping, cable_id: str, min_relative_score: float) -> bool:
    """True when the inferred mapping places the link on ``cable_id``.

    Membership is set-based: the cable counts when its candidate score is at
    least ``min_relative_score`` of the top candidate's.  Parallel systems on
    the same corridor are often physically indistinguishable, so Nautilus
    attributes a link to every plausible cable rather than forcing a top-1
    pick — impact analysis must not miss a dependency because two cables
    differ by 8 km of wet path.
    """
    if mapping.cable_id == cable_id:
        return True
    if not mapping.candidates:
        return False
    top = mapping.candidates[0][1]
    if top <= 0:
        return False
    return any(
        cid == cable_id and score >= min_relative_score * top
        for cid, score in mapping.candidates
    )


def extract_cable_dependencies(
    world: SyntheticWorld,
    cable_id: str,
    mappings: Mapping[str, CableMapping] | None = None,
    min_relative_score: float = 0.5,
) -> CableDependencies:
    """Collect the dependency set of one cable.

    When ``mappings`` is provided, the function honours the *inferred*
    cross-layer view (including its mistakes and candidate-set ambiguity);
    otherwise it reads the world's ground-truth assignment.  Workflows built
    by ArachNet always pass the inferred view — they cannot see ground truth
    — while validation tests compare both.
    """
    cable = world.cables[cable_id]
    deps = CableDependencies(cable_id=cable_id, cable_name=cable.name)
    seen_asns: set[int] = set()
    seen_adjacencies: set[tuple[int, int]] = set()
    seen_countries: set[str] = set()

    for link in world.submarine_links():
        if mappings is not None:
            mapping = mappings.get(link.id)
            if mapping is None or not _mapping_covers(mapping, cable_id, min_relative_score):
                continue
        elif link.cable_id != cable_id:
            continue
        deps.link_ids.append(link.id)
        deps.ips.extend([link.ip_a, link.ip_b])
        seen_asns.update((link.asn_a, link.asn_b))
        seen_adjacencies.add(link.as_pair)
        seen_countries.update((link.country_a, link.country_b))
        deps.total_capacity_gbps += link.capacity_gbps

    deps.asns = sorted(seen_asns)
    deps.as_adjacencies = sorted(seen_adjacencies)
    deps.country_codes = sorted(seen_countries)
    return deps


def cables_between_regions(world: SyntheticWorld, region_a, region_b) -> list[str]:
    """Cables with landing points in both regions (e.g. Europe and Asia).

    This is the geographic filter the cascading-failure case study applies to
    scope "submarine cable failures between Europe and Asia".
    """
    out: list[str] = []
    for cable in world.cables.values():
        regions = {
            world.country(world.landing_points[lp].country_code).region
            for lp in cable.landing_point_ids
        }
        if region_a in regions and region_b in regions:
            out.append(cable.id)
    return out
