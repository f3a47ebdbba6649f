"""IP-layer substrate: prefixes, router-level links, cross-layer assignment.

Every inter-AS relationship materialises into one or more router-level IP
links with geolocated endpoints.  Links that cross continental regions are
*submarine* and are assigned to exactly one cable by detour minimisation —
the same physical reasoning Nautilus uses (an IP link rides the cable whose
landing points minimise the path stretch between the link endpoints).
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from repro.synth.ases import ASLayer, AutonomousSystem
from repro.synth.cables import LandingPoint, SubmarineCable
from repro.synth.geography import (
    COASTAL_CITIES,
    country_by_code,
    haversine_km,
)


class LinkKind(str, Enum):
    DOMESTIC = "domestic"  # both endpoints in the same country
    TERRESTRIAL = "terrestrial"  # cross-country, same region
    SUBMARINE = "submarine"  # cross-region, rides a cable


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix originated by an AS and geolocated to its country."""

    cidr: str
    asn: int
    country_code: str

    @property
    def network(self) -> ipaddress.IPv4Network:
        return ipaddress.ip_network(self.cidr)


@dataclass
class IPLink:
    """A router-level link between two ASes with cross-layer metadata."""

    id: str
    ip_a: str
    ip_b: str
    asn_a: int
    asn_b: int
    coord_a: tuple[float, float]
    coord_b: tuple[float, float]
    country_a: str
    country_b: str
    kind: LinkKind
    cable_id: str | None
    capacity_gbps: float
    base_load: float  # fraction of capacity carried at steady state

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.ip_a, self.ip_b)

    @property
    def as_pair(self) -> tuple[int, int]:
        return (min(self.asn_a, self.asn_b), max(self.asn_a, self.asn_b))


def allocate_prefixes(ases: dict[int, AutonomousSystem]) -> dict[int, list[Prefix]]:
    """Allocate deterministic /16 prefixes out of 10.0.0.0/8 per AS.

    Larger (lower-tier) networks get a single prefix; transit networks get
    two so that partial withdrawals are observable in the BGP substrate.
    """
    prefixes: dict[int, list[Prefix]] = {}
    block = 0
    for asn in sorted(ases):
        asys = ases[asn]
        count = 2 if asys.tier <= 2 else 1
        own: list[Prefix] = []
        for _ in range(count):
            if block > 0xFFFF:
                raise RuntimeError("prefix space exhausted; reduce AS count")
            cidr = f"10.{block >> 8}.{block & 0xFF}.0/24"
            own.append(Prefix(cidr=cidr, asn=asn, country_code=asys.country_code))
            block += 1
        prefixes[asn] = own
    return prefixes


class _HostAllocator:
    """Deterministically hands out host addresses from an AS's first prefix."""

    def __init__(self, prefixes: dict[int, list[Prefix]]):
        self._prefixes = prefixes
        self._next_host: dict[int, int] = {}

    def next_ip(self, asn: int) -> str:
        index = self._next_host.get(asn, 1)
        prefix = self._prefixes[asn][0].network
        if index >= prefix.num_addresses - 1:
            raise RuntimeError(f"host space exhausted for AS{asn}")
        self._next_host[asn] = index + 1
        return str(prefix.network_address + index)


def _coastal_coords(country_code: str) -> list[tuple[float, float]]:
    return [(c.lat, c.lon) for c in COASTAL_CITIES if c.country_code == country_code]


def _endpoint_coord(rng: random.Random, asys: AutonomousSystem, submarine: bool) -> tuple[float, float]:
    """Place a router endpoint inside the AS's home country.

    Submarine link endpoints sit at coastal cities when the country has any;
    other endpoints jitter around the country centroid.  Keeping submarine
    endpoints coastal makes speed-of-light validation in Nautilus meaningful.
    """
    country = country_by_code(asys.country_code)
    if submarine:
        coastal = _coastal_coords(asys.country_code)
        if coastal:
            return rng.choice(coastal)
    jitter_lat = rng.uniform(-2.0, 2.0)
    jitter_lon = rng.uniform(-2.0, 2.0)
    return (country.lat + jitter_lat, country.lon + jitter_lon)


def cable_path_km(cable: SubmarineCable, lp_a: str, lp_b: str) -> float:
    """Wet-path length along ``cable`` between two of its landing points."""
    ids = cable.landing_point_ids
    ia, ib = ids.index(lp_a), ids.index(lp_b)
    lo, hi = min(ia, ib), max(ia, ib)
    return sum(seg.length_km for seg in cable.segments[lo:hi])


class CableDetour(NamedTuple):
    """One cable's route between two endpoints (see :func:`rank_cables_for_link`)."""

    cable_id: str
    detour_km: float
    tail_a_km: float  # endpoint A to its nearest landing point of the cable
    wet_km: float  # along the cable between the two nearest landing points
    tail_b_km: float  # the far landing point to endpoint B


def _nearest_landing_point(km: dict[str, float], lp_ids: list[str]) -> tuple[str, float]:
    """The landing point of ``lp_ids`` nearest by ``km`` (first on ties), and its distance."""
    best = lp_ids[0]
    best_km = km[best]
    for lp_id in lp_ids[1:]:
        if km[lp_id] < best_km:
            best, best_km = lp_id, km[lp_id]
    return best, best_km


def _distances_km(coord: tuple[float, float], lps: Iterable[LandingPoint]) -> dict[str, float]:
    """Great-circle distance from ``coord`` to each landing point, by id."""
    return {lp.id: haversine_km(coord, lp.coord) for lp in lps}


def rank_cables_for_link(
    coord_a: tuple[float, float],
    coord_b: tuple[float, float],
    cables: dict[str, SubmarineCable],
    landing_points: dict[str, LandingPoint],
) -> list[CableDetour]:
    """Rank the cables that can carry a link by total detour, ascending.

    Detour = terrestrial tail from endpoint A to its nearest landing point of
    the cable, plus the wet path between the two chosen landing points, plus
    the tail to endpoint B.  Tails are weighted 4x: they model overland
    backhaul, which in practice is short — without the penalty a cable lying
    entirely on one continent can "win" an intercontinental link through an
    absurd terrestrial detour.  Each endpoint's distance to each landing
    point is computed once (cables share landing points), and the tails
    keep the nearest-point search's distances.
    """
    tail_penalty = 4.0
    km_a = _distances_km(coord_a, landing_points.values())
    km_b = _distances_km(coord_b, landing_points.values())
    ranked: list[CableDetour] = []
    for cable in cables.values():
        near_a, tail_a = _nearest_landing_point(km_a, cable.landing_point_ids)
        near_b, tail_b = _nearest_landing_point(km_b, cable.landing_point_ids)
        if near_a == near_b:
            continue  # a single landing point cannot carry a crossing
        wet = cable_path_km(cable, near_a, near_b)
        detour = tail_penalty * tail_a + wet + tail_penalty * tail_b
        ranked.append(CableDetour(cable.id, detour, tail_a, wet, tail_b))
    if not ranked:
        raise RuntimeError("no cable can carry the link; catalog too sparse")
    ranked.sort(key=lambda route: route.detour_km)
    return ranked


def choose_cable_for_link(
    rng: random.Random,
    coord_a: tuple[float, float],
    coord_b: tuple[float, float],
    cables: dict[str, SubmarineCable],
    landing_points: dict[str, LandingPoint],
    spread: int = 5,
) -> str:
    """Sample a cable among the ``spread`` lowest-detour candidates.

    Real corridors are served by several parallel systems (SeaMeWe-5, AAE-1
    and SeaMeWe-4 all carry Europe–Asia traffic); strict argmin assignment
    would funnel every link onto one cable and make single-cable failures
    unrealistically binary.  Candidates within 2.0x of the best detour are
    eligible, weighted by system capacity — the share of traffic a corridor
    system carries tracks its lit capacity far more than small detour deltas.
    """
    ranked = rank_cables_for_link(coord_a, coord_b, cables, landing_points)
    best_detour = ranked[0].detour_km
    eligible = [r.cable_id for r in ranked[:spread] if r.detour_km <= best_detour * 2.0]
    weights = [cables[cid].capacity_tbps for cid in eligible]
    return rng.choices(eligible, weights=weights, k=1)[0]


def true_path_km(
    link: IPLink,
    cables: dict[str, SubmarineCable],
    landing_points: dict[str, LandingPoint],
) -> float:
    """Physical path length of a link, honouring its cable assignment.

    Submarine links run: terrestrial tail to the nearest landing point of
    their cable, the wet path between landing points, and the far tail.
    Terrestrial/domestic links take the great circle with a 1.3 road factor.
    This single function anchors both the traceroute RTT model and the
    RTT-based validation inside Nautilus, so the two substrates are
    physically consistent by construction.
    """
    if link.cable_id is None:
        return haversine_km(link.coord_a, link.coord_b) * 1.3
    cable = cables[link.cable_id]
    ids = cable.landing_point_ids
    lps = [landing_points[i] for i in ids]
    near_a, tail_a = _nearest_landing_point(_distances_km(link.coord_a, lps), ids)
    near_b, tail_b = _nearest_landing_point(_distances_km(link.coord_b, lps), ids)
    if near_a == near_b:
        return haversine_km(link.coord_a, link.coord_b) * 1.3
    return tail_a * 1.3 + cable_path_km(cable, near_a, near_b) + tail_b * 1.3


def _link_kind(a: AutonomousSystem, b: AutonomousSystem) -> LinkKind:
    if a.country_code == b.country_code:
        return LinkKind.DOMESTIC
    region_a = country_by_code(a.country_code).region
    region_b = country_by_code(b.country_code).region
    if region_a == region_b:
        return LinkKind.TERRESTRIAL
    return LinkKind.SUBMARINE


_CAPACITY_BY_TIER_PAIR = {
    (1, 1): 400.0,
    (1, 2): 200.0,
    (2, 2): 100.0,
    (1, 3): 100.0,
    (2, 3): 40.0,
    (3, 3): 10.0,
}


def build_ip_links(
    rng: random.Random,
    as_layer: ASLayer,
    prefixes: dict[int, list[Prefix]],
    cables: dict[str, SubmarineCable],
    landing_points: dict[str, LandingPoint],
    parallel_link_prob: float = 0.3,
) -> list[IPLink]:
    """Materialise IP links for every AS relationship.

    Tier-1 interconnects receive parallel links with probability
    ``parallel_link_prob`` so that single-cable failures do not always
    partition the backbone — matching the redundancy of real transit.
    """
    allocator = _HostAllocator(prefixes)
    links: list[IPLink] = []
    counter = 0
    for rel in as_layer.relationships:
        a = as_layer.ases[rel.a]
        b = as_layer.ases[rel.b]
        n_parallel = 1
        if a.tier == 1 and b.tier == 1 and rng.random() < parallel_link_prob:
            n_parallel = 2
        for _ in range(n_parallel):
            kind = _link_kind(a, b)
            submarine = kind is LinkKind.SUBMARINE
            coord_a = _endpoint_coord(rng, a, submarine)
            coord_b = _endpoint_coord(rng, b, submarine)
            cable_id: str | None = None
            if submarine:
                cable_id = choose_cable_for_link(rng, coord_a, coord_b, cables, landing_points)
            tier_pair = (min(a.tier, b.tier), max(a.tier, b.tier))
            capacity = _CAPACITY_BY_TIER_PAIR[tier_pair]
            link = IPLink(
                id=f"link-{counter:05d}",
                ip_a=allocator.next_ip(a.asn),
                ip_b=allocator.next_ip(b.asn),
                asn_a=a.asn,
                asn_b=b.asn,
                coord_a=coord_a,
                coord_b=coord_b,
                country_a=a.country_code,
                country_b=b.country_code,
                kind=kind,
                cable_id=cable_id,
                capacity_gbps=capacity,
                base_load=rng.uniform(0.25, 0.6),
            )
            links.append(link)
            counter += 1
    return links
