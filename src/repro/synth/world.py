"""World assembly: one deterministic object bundling every substrate layer.

:func:`build_world` is the single entry point the rest of the repository
uses.  The world is immutable by convention — substrates derive views and
never mutate it — which keeps case studies reproducible and lets tests share
a module-scoped world.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, TypeVar

from repro.synth.ases import ASLayer, ASRelationship, AutonomousSystem, generate_as_layer
from repro.synth.cables import (
    LandingPoint,
    SubmarineCable,
    build_cables,
    build_landing_points,
    cable_by_name,
)
from repro.synth.geography import COUNTRIES, Country, Region, country_by_code
from repro.synth.iplinks import IPLink, LinkKind, Prefix, allocate_prefixes, build_ip_links

T = TypeVar("T")


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for world generation.  Defaults produce a mid-sized Internet."""

    seed: int = 7
    tier1_count: int = 12
    tier2_per_region: int = 6
    edge_density: float = 1.6
    parallel_link_prob: float = 0.35


@dataclass
class SyntheticWorld:
    """The generated Internet: geography, cables, ASes, prefixes and links."""

    config: WorldConfig
    countries: dict[str, Country]
    landing_points: dict[str, LandingPoint]
    cables: dict[str, SubmarineCable]
    as_layer: ASLayer
    prefixes: dict[int, list[Prefix]]
    ip_links: list[IPLink]

    # Derived indexes, built once in __post_init__.
    links_by_cable: dict[str, list[IPLink]] = field(default_factory=dict, repr=False)
    links_by_asn: dict[int, list[IPLink]] = field(default_factory=dict, repr=False)
    link_by_id: dict[str, IPLink] = field(default_factory=dict, repr=False)
    prefix_by_cidr: dict[str, Prefix] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.links_by_cable = {}
        self.links_by_asn = {}
        self.link_by_id = {}
        for link in self.ip_links:
            self.link_by_id[link.id] = link
            if link.cable_id is not None:
                self.links_by_cable.setdefault(link.cable_id, []).append(link)
            self.links_by_asn.setdefault(link.asn_a, []).append(link)
            self.links_by_asn.setdefault(link.asn_b, []).append(link)
        self.prefix_by_cidr = {
            p.cidr: p for plist in self.prefixes.values() for p in plist
        }
        self._memo: dict[str, Any] = {}

    def memo(self, key: str, build: Callable[[], T]) -> T:
        """The value derived under ``key``, built by ``build()`` on first use.

        The one home for per-world derivations (AS graph, adjacency index,
        per-link RTTs, shared collectors, ...).  Safe because a world is
        immutable once built: a derivation computed from it never goes
        stale, and two worlds — even from equal configs — hold separate
        memos.  A construction race builds at most one extra copy; every
        caller gets the copy that was stored first.  Callers must not
        mutate a memoized value unless it is a cache by design.
        """
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    # -- lookup helpers -----------------------------------------------------

    @property
    def ases(self) -> dict[int, AutonomousSystem]:
        return self.as_layer.ases

    @property
    def relationships(self) -> list[ASRelationship]:
        return self.as_layer.relationships

    def cable_named(self, name: str) -> SubmarineCable:
        """Case-insensitive cable lookup by human-readable name."""
        return cable_by_name(self.cables, name)

    def cable_names(self) -> list[str]:
        return sorted(c.name for c in self.cables.values())

    def country(self, code: str) -> Country:
        return self.countries[code]

    def countries_in_region(self, region: Region) -> list[Country]:
        return [c for c in self.countries.values() if c.region == region]

    def links_on_cable(self, cable_id: str) -> list[IPLink]:
        return list(self.links_by_cable.get(cable_id, []))

    def submarine_links(self) -> list[IPLink]:
        return [l for l in self.ip_links if l.kind is LinkKind.SUBMARINE]

    def prefixes_of(self, asn: int) -> list[Prefix]:
        return list(self.prefixes.get(asn, []))

    def all_prefixes(self) -> list[Prefix]:
        """Every announced prefix, memoized — callers must not mutate it."""
        return self.memo(
            "all_prefixes", lambda: [p for plist in self.prefixes.values() for p in plist]
        )

    def ases_in_country(self, code: str) -> list[AutonomousSystem]:
        return self.as_layer.by_country(code)

    def fingerprint(self) -> str:
        """Stable hex identity of this generated world.

        Hashes the generation config plus the structural summary — enough to
        distinguish any two worlds :func:`build_world` can produce, since
        generation is a pure function of the config.  The live subsystem
        folds this into per-epoch fingerprints so cached epoch results from
        one world can never be served for another, and the process execution
        backend ships it with every job payload — so compute it once.
        """
        return self.memo("fingerprint", self._compute_fingerprint)

    def _compute_fingerprint(self) -> str:
        material = json.dumps(
            {"config": asdict(self.config), "summary": self.summary()},
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def summary(self) -> dict[str, int]:
        """Size summary used by docs and sanity tests."""
        return {
            "countries": len(self.countries),
            "landing_points": len(self.landing_points),
            "cables": len(self.cables),
            "ases": len(self.ases),
            "relationships": len(self.relationships),
            "prefixes": len(self.all_prefixes()),
            "ip_links": len(self.ip_links),
            "submarine_links": len(self.submarine_links()),
        }


def build_world(config: WorldConfig | None = None) -> SyntheticWorld:
    """Generate a :class:`SyntheticWorld` deterministically from the config.

    Two calls with equal configs produce byte-identical worlds; every random
    draw flows through one seeded ``random.Random``.
    """
    cfg = config or WorldConfig()
    rng = random.Random(cfg.seed)

    landing_points = build_landing_points()
    cables = build_cables(landing_points)
    as_layer = generate_as_layer(
        rng,
        tier1_count=cfg.tier1_count,
        tier2_per_region=cfg.tier2_per_region,
        edge_density=cfg.edge_density,
    )
    prefixes = allocate_prefixes(as_layer.ases)
    ip_links = build_ip_links(
        rng,
        as_layer,
        prefixes,
        cables,
        landing_points,
        parallel_link_prob=cfg.parallel_link_prob,
    )

    return SyntheticWorld(
        config=cfg,
        countries={c.code: c for c in COUNTRIES},
        landing_points=landing_points,
        cables=cables,
        as_layer=as_layer,
        prefixes=prefixes,
        ip_links=ip_links,
    )


_WORLD_CACHE: dict[WorldConfig, SyntheticWorld] = {}


def default_world() -> SyntheticWorld:
    """A process-wide cached world with default config.

    Examples, tests and benchmarks share this instance; building it is cheap
    but not free, and sharing guarantees cross-module consistency.
    """
    cfg = WorldConfig()
    if cfg not in _WORLD_CACHE:
        _WORLD_CACHE[cfg] = build_world(cfg)
    return _WORLD_CACHE[cfg]
