"""Autonomous-system substrate: AS generation and inter-AS relationships.

The generator produces a three-tier hierarchy shaped like CAIDA's AS
relationship inference: a clique-ish set of global tier-1 transits, regional
tier-2 transits that buy from tier-1s and peer laterally, and tier-3 access
or content networks that buy from tier-2s.  Relationship edges carry the
customer-to-provider / peer-to-peer semantics used by valley-free path
inference in :mod:`repro.bgp.paths`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from repro.synth.geography import COUNTRIES, Country, Region


class ASType(str, Enum):
    TRANSIT = "transit"
    ACCESS = "access"
    CONTENT = "content"
    ENTERPRISE = "enterprise"


class RelationshipKind(str, Enum):
    CUSTOMER_PROVIDER = "c2p"  # first AS is customer of the second
    PEER_PEER = "p2p"


@dataclass(frozen=True)
class AutonomousSystem:
    """A synthetic AS: number, name, home country, tier and business type."""

    asn: int
    name: str
    country_code: str
    tier: int  # 1 (global transit), 2 (regional transit), 3 (edge)
    as_type: ASType

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"AS{self.asn} ({self.name})"


@dataclass(frozen=True)
class ASRelationship:
    """A directed business relationship between two ASes."""

    a: int
    b: int
    kind: RelationshipKind


_TRANSIT_SYLLABLES = ("Tele", "Net", "Glo", "Trans", "Inter", "Core", "Back")
_TRANSIT_SUFFIXES = ("com", "net", "link", "wave", "path", "bone")
_CONTENT_NAMES = ("StreamCo", "CloudNine", "Cachely", "VidSphere", "EdgeBox", "PixelCDN")


def _as_name(rng: random.Random, country: Country, tier: int, as_type: ASType, index: int) -> str:
    if as_type is ASType.CONTENT:
        base = rng.choice(_CONTENT_NAMES)
        return f"{base}-{country.code}{index}"
    prefix = rng.choice(_TRANSIT_SYLLABLES)
    suffix = rng.choice(_TRANSIT_SUFFIXES)
    role = {1: "GL", 2: "RG", 3: "AC"}[tier]
    return f"{prefix}{suffix}-{country.code}-{role}{index}"


@dataclass
class ASLayer:
    """The generated AS layer: ASes plus their relationship edges."""

    ases: dict[int, AutonomousSystem]
    relationships: list[ASRelationship]

    def by_country(self, code: str) -> list[AutonomousSystem]:
        return [a for a in self.ases.values() if a.country_code == code]


def generate_as_layer(
    rng: random.Random,
    tier1_count: int = 8,
    tier2_per_region: int = 4,
    edge_density: float = 1.0,
) -> ASLayer:
    """Generate the AS hierarchy.

    ``edge_density`` scales the number of tier-3 networks per country; 1.0
    yields roughly two edge networks per unit of country weight.
    """
    ases: dict[int, AutonomousSystem] = {}
    relationships: list[ASRelationship] = []
    next_asn = 1000

    def add_as(country: Country, tier: int, as_type: ASType, index: int) -> AutonomousSystem:
        nonlocal next_asn
        asys = AutonomousSystem(
            asn=next_asn,
            name=_as_name(rng, country, tier, as_type, index),
            country_code=country.code,
            tier=tier,
            as_type=as_type,
        )
        ases[asys.asn] = asys
        next_asn += 1
        return asys

    # Tier 1: global transit providers homed in the highest-weight countries.
    heavy = sorted(COUNTRIES, key=lambda c: c.weight, reverse=True)
    tier1: list[AutonomousSystem] = []
    for i in range(tier1_count):
        country = heavy[i % len(heavy)]
        tier1.append(add_as(country, 1, ASType.TRANSIT, i))

    # Tier-1 mesh: a complete peering clique.  Tier-1s have no providers, so
    # any missing peering would make two of them mutually unreachable under
    # valley-free policy — the real default-free zone is fully meshed for
    # exactly this reason.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            relationships.append(ASRelationship(a.asn, b.asn, RelationshipKind.PEER_PEER))

    # Tier 2: regional transits, multi-homed to two tier-1s, peering within
    # their region.
    tier2_by_region: dict[Region, list[AutonomousSystem]] = {}
    for region in Region:
        regional_countries = [c for c in COUNTRIES if c.region == region]
        if not regional_countries:
            continue
        members: list[AutonomousSystem] = []
        for i in range(tier2_per_region):
            country = rng.choice(regional_countries)
            asys = add_as(country, 2, ASType.TRANSIT, i)
            members.append(asys)
            for provider in rng.sample(tier1, k=min(2, len(tier1))):
                relationships.append(
                    ASRelationship(asys.asn, provider.asn, RelationshipKind.CUSTOMER_PROVIDER)
                )
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if rng.random() < 0.5:
                    relationships.append(ASRelationship(a.asn, b.asn, RelationshipKind.PEER_PEER))
        tier2_by_region[region] = members

    # Tier 3: access/content/enterprise networks per country, buying from
    # regional tier-2s (falling back to tier-1 when a region has none).
    for country in COUNTRIES:
        n_edge = max(1, round(country.weight * 2 * edge_density))
        regional = tier2_by_region.get(country.region) or tier1
        for i in range(n_edge):
            roll = rng.random()
            if roll < 0.55:
                as_type = ASType.ACCESS
            elif roll < 0.8:
                as_type = ASType.CONTENT
            else:
                as_type = ASType.ENTERPRISE
            asys = add_as(country, 3, as_type, i)
            n_providers = 2 if rng.random() < 0.4 else 1
            for provider in rng.sample(regional, k=min(n_providers, len(regional))):
                relationships.append(
                    ASRelationship(asys.asn, provider.asn, RelationshipKind.CUSTOMER_PROVIDER)
                )

    return ASLayer(ases=ases, relationships=relationships)
