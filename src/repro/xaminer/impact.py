"""Impact computation: damage metrics from a set of failed IP links.

Implements Xaminer's metric set: per-country and per-AS counts of affected
IPs, links, ASes and AS-level adjacencies, plus lost capacity and
connectivity effects (ASes cut off from the backbone).  All counts come with
country-level denominators so embeddings can normalise them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.synth.world import SyntheticWorld
from repro.topology.relations import isolated_asns


@dataclass
class CountryImpact:
    """Affected-entity counts for one country, with denominators."""

    country_code: str
    ips_affected: int = 0
    links_affected: int = 0
    ases_affected: int = 0
    as_links_affected: int = 0
    capacity_lost_gbps: float = 0.0
    ips_total: int = 0
    links_total: int = 0
    ases_total: int = 0
    as_links_total: int = 0
    capacity_total_gbps: float = 0.0

    @property
    def impact_score(self) -> float:
        """Mean of the normalised metric fractions (Xaminer's embedding)."""
        fractions = [
            self._frac(self.ips_affected, self.ips_total),
            self._frac(self.links_affected, self.links_total),
            self._frac(self.ases_affected, self.ases_total),
            self._frac(self.as_links_affected, self.as_links_total),
            self._frac(self.capacity_lost_gbps, self.capacity_total_gbps),
        ]
        return sum(fractions) / len(fractions)

    @staticmethod
    def _frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    def to_dict(self) -> dict:
        return {
            "country": self.country_code,
            "ips_affected": self.ips_affected,
            "links_affected": self.links_affected,
            "ases_affected": self.ases_affected,
            "as_links_affected": self.as_links_affected,
            "capacity_lost_gbps": round(self.capacity_lost_gbps, 1),
            "impact_score": round(self.impact_score, 6),
        }


@dataclass
class ImpactReport:
    """The full impact picture for one failure set."""

    failed_link_ids: list[str]
    by_country: dict[str, CountryImpact] = field(default_factory=dict)
    by_asn: dict[int, int] = field(default_factory=dict)  # asn -> affected link count
    isolated_asns: list[int] = field(default_factory=list)
    total_capacity_lost_gbps: float = 0.0

    def ranked_countries(self) -> list[CountryImpact]:
        """Countries ordered by impact score, most affected first."""
        return sorted(
            self.by_country.values(), key=lambda c: c.impact_score, reverse=True
        )

    def to_dict(self) -> dict:
        return {
            "failed_link_ids": list(self.failed_link_ids),
            "countries": {
                code: impact.to_dict() for code, impact in self.by_country.items()
            },
            "asns": {str(asn): count for asn, count in self.by_asn.items()},
            "isolated_asns": list(self.isolated_asns),
            "total_capacity_lost_gbps": round(self.total_capacity_lost_gbps, 1),
        }


def country_denominators(
    world: SyntheticWorld,
) -> Mapping[str, tuple[int, int, int, int, float]]:
    """Per-country ``(ips, links, ases, as_links, capacity_gbps)`` totals.

    A pure function of the (immutable) world, so it walks the IP links once
    per world and memoizes plain numbers — never the mutable records
    :func:`_country_totals` builds from them.
    """
    return world.memo(
        "country_denominators", lambda: MappingProxyType(_walk_denominators(world))
    )


def _walk_denominators(world: SyntheticWorld) -> dict[str, tuple[int, int, int, int, float]]:
    ends = {code: 0 for code in world.countries}  # one IP and one link per link end
    capacity = {code: 0.0 for code in world.countries}
    as_links_seen: dict[str, set[tuple[int, int]]] = {code: set() for code in world.countries}
    ases_seen: dict[str, set[int]] = {code: set() for code in world.countries}
    for link in world.ip_links:
        for country, asn in ((link.country_a, link.asn_a), (link.country_b, link.asn_b)):
            ends[country] += 1
            capacity[country] += link.capacity_gbps
            ases_seen[country].add(asn)
            as_links_seen[country].add(link.as_pair)
    return {
        code: (
            ends[code],
            ends[code],
            len(ases_seen[code]),
            len(as_links_seen[code]),
            capacity[code],
        )
        for code in world.countries
    }


def _country_totals(world: SyntheticWorld) -> dict[str, CountryImpact]:
    """Fresh per-country impact records carrying their denominators.

    Built anew on every call: the impact functions fill in the records'
    ``*_affected`` fields, so they must never be shared between reports.
    """
    return {
        code: CountryImpact(
            country_code=code,
            ips_total=ips,
            links_total=links,
            ases_total=ases,
            as_links_total=as_links,
            capacity_total_gbps=capacity,
        )
        for code, (ips, links, ases, as_links, capacity) in country_denominators(world).items()
    }


def compute_impact(world: SyntheticWorld, failed_link_ids: list[str]) -> ImpactReport:
    """Aggregate the damage of a failed-link set into impact metrics.

    ``isolated_asns`` lists ASes disconnected from the largest connected
    component once failed links are removed — the strongest observable form
    of impact.
    """
    failed = set(failed_link_ids)
    report = ImpactReport(failed_link_ids=sorted(failed))
    report.by_country = _country_totals(world)

    affected_ases: dict[str, set[int]] = {code: set() for code in world.countries}
    affected_as_links: dict[str, set[tuple[int, int]]] = {code: set() for code in world.countries}

    for link_id in sorted(failed):
        link = world.link_by_id.get(link_id)
        if link is None:
            raise KeyError(f"unknown link id {link_id!r}")
        report.total_capacity_lost_gbps += link.capacity_gbps
        report.by_asn[link.asn_a] = report.by_asn.get(link.asn_a, 0) + 1
        report.by_asn[link.asn_b] = report.by_asn.get(link.asn_b, 0) + 1
        for country, asn in ((link.country_a, link.asn_a), (link.country_b, link.asn_b)):
            record = report.by_country[country]
            record.ips_affected += 1
            record.links_affected += 1
            record.capacity_lost_gbps += link.capacity_gbps
            affected_ases[country].add(asn)
            affected_as_links[country].add(link.as_pair)

    for code, record in report.by_country.items():
        record.ases_affected = len(affected_ases[code])
        record.as_links_affected = len(affected_as_links[code])

    if failed:
        report.isolated_asns = isolated_asns(world, failed)
    return report
