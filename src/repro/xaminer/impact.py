"""Impact computation: damage metrics from a set of failed IP links.

Implements Xaminer's metric set: per-country and per-AS counts of affected
IPs, links, ASes and AS-level adjacencies, plus lost capacity and
connectivity effects (ASes cut off from the backbone).  All counts come with
country-level denominators so embeddings can normalise them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _country_totals(world: SyntheticWorld) -> dict[str, CountryImpact]:
    """Initialise per-country impact records with denominators."""
    totals: dict[str, CountryImpact] = {
        code: CountryImpact(country_code=code) for code in world.countries
    }
    as_links_seen: dict[str, set[tuple[int, int]]] = {code: set() for code in world.countries}
    ases_seen: dict[str, set[int]] = {code: set() for code in world.countries}
    for link in world.ip_links:
        for country, asn in ((link.country_a, link.asn_a), (link.country_b, link.asn_b)):
            record = totals[country]
            record.ips_total += 1
            record.links_total += 1
            record.capacity_total_gbps += link.capacity_gbps
            ases_seen[country].add(asn)
            as_links_seen[country].add(link.as_pair)
    for code, record in totals.items():
        record.ases_total = len(ases_seen[code])
        record.as_links_total = len(as_links_seen[code])
    return totals


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


def weighted_impact(
    world: SyntheticWorld, cable_weights: dict[str, float]
) -> ImpactReport:
    """Expectation-based impact: cable failure weights scale link damage.

    Every link on a weighted cable contributes ``weight`` of a full failure
    to the counts.  Fractional contributions keep expectation linearity —
    :func:`compute_impact` on a Bernoulli sample converges to this as trials
    grow.
    """
    report = ImpactReport(failed_link_ids=[])
    report.by_country = _country_totals(world)
    affected_ases: dict[str, dict[int, float]] = {code: {} for code in world.countries}
    affected_as_links: dict[str, dict[tuple[int, int], float]] = {
        code: {} for code in world.countries
    }
    ips: dict[str, float] = {code: 0.0 for code in world.countries}
    links: dict[str, float] = {code: 0.0 for code in world.countries}

    for cable_id, weight in sorted(cable_weights.items()):
        if weight <= 0:
            continue
        for link in world.links_on_cable(cable_id):
            report.total_capacity_lost_gbps += weight * link.capacity_gbps
            report.failed_link_ids.append(link.id)
            for country, asn in ((link.country_a, link.asn_a), (link.country_b, link.asn_b)):
                record = report.by_country[country]
                ips[country] += weight
                links[country] += weight
                record.capacity_lost_gbps += weight * link.capacity_gbps
                current = affected_ases[country].get(asn, 0.0)
                affected_ases[country][asn] = max(current, weight)
                pair = link.as_pair
                current = affected_as_links[country].get(pair, 0.0)
                affected_as_links[country][pair] = max(current, weight)

    for code, record in report.by_country.items():
        # Round expectations to int-valued fields via floats kept in dict form.
        record.ips_affected = int(round(ips[code]))
        record.links_affected = int(round(links[code]))
        record.ases_affected = int(round(sum(affected_ases[code].values())))
        record.as_links_affected = int(round(sum(affected_as_links[code].values())))
    report.failed_link_ids = sorted(set(report.failed_link_ids))
    return report
