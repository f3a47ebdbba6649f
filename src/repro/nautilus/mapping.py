"""IP-link to submarine-cable mapping — the heart of Nautilus.

For each submarine IP link the mapper geolocates both endpoints (through the
noisy :class:`~repro.nautilus.geolocation.Geolocator`, not the world's ground
truth), ranks candidate cables by landing-point detour, and — when latency
measurements are available — validates candidates against the RTT-implied
physical distance.  Geometry alone cannot separate parallel systems on the
same corridor (SeaMeWe-5 vs AAE-1); RTT matching is what lifts accuracy to
the level the Nautilus paper reports, and it is how the real system validates
its mappings too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.nautilus.geolocation import Geolocator
from repro.nautilus.sol import FIBER_SPEED_KM_PER_MS, min_rtt_ms
from repro.synth.iplinks import CableDetour, IPLink, LinkKind, rank_cables_for_link, true_path_km
from repro.synth.world import SyntheticWorld

#: Per-link processing overhead added to the propagation delay (ms).
_HOP_OVERHEAD_MS = 1.0


def observed_link_rtt_ms(world: SyntheticWorld, link: IPLink) -> float:
    """Measured RTT over one link, as traceroute would report it.

    Propagation over the link's true physical path, plus processing overhead,
    plus a deterministic per-link jitter of up to ±2% (min-RTT over repeated
    probes is stable) — the same measurement every substrate observes for
    this link.  A pure function of the (immutable) world, so it is memoized
    per world and link; a link object the world does not own is computed
    fresh.
    """
    if world.link_by_id.get(link.id) is not link:
        return link_rtt_ms(world, link)
    rtts: dict[str, float] = world.memo("observed_link_rtt_ms", dict)
    rtt = rtts.get(link.id)
    if rtt is None:
        rtt = rtts[link.id] = link_rtt_ms(world, link)
    return rtt


def link_rtt_ms(world: SyntheticWorld, link: IPLink) -> float:
    """:func:`observed_link_rtt_ms` computed from scratch, without the memo."""
    path = true_path_km(link, world.cables, world.landing_points)
    base = min_rtt_ms(path) + _HOP_OVERHEAD_MS
    digest = hashlib.sha256(link.id.encode()).digest()
    jitter = (int.from_bytes(digest[:8], "big") / 2**64 - 0.5) * 0.04
    return base * (1.0 + jitter)


@dataclass(frozen=True)
class CableMapping:
    """The mapping verdict for one IP link."""

    link_id: str
    cable_id: str | None
    confidence: float  # 0..1
    candidates: tuple[tuple[str, float], ...] = field(default=())  # (cable_id, score)
    rtt_validated: bool = False


class CrossLayerMapper:
    """Maps submarine IP links to cables using geometry plus RTT validation."""

    def __init__(
        self,
        world: SyntheticWorld,
        geolocator: Geolocator | None = None,
        candidate_count: int = 5,
        use_rtt: bool = True,
    ):
        self._world = world
        self._geo = geolocator or Geolocator(world)
        self._candidate_count = candidate_count
        self._use_rtt = use_rtt

    def map_link(self, link: IPLink, observed_rtt_ms: float | None = None) -> CableMapping:
        """Map one link to its most plausible cable.

        When no RTT is passed and the mapper was built with ``use_rtt``, it
        pulls the link's measured RTT itself (the traceroute feed is always
        available in a deployment).
        """
        if link.kind is not LinkKind.SUBMARINE:
            return CableMapping(link_id=link.id, cable_id=None, confidence=1.0)
        coord_a = self._geo.locate(link.ip_a).coord
        coord_b = self._geo.locate(link.ip_b).coord
        ranked = rank_cables_for_link(
            coord_a, coord_b, self._world.cables, self._world.landing_points
        )[: self._candidate_count]
        if observed_rtt_ms is None and self._use_rtt:
            observed_rtt_ms = observed_link_rtt_ms(self._world, link)

        if observed_rtt_ms is not None:
            scores = self._rtt_scores(ranked, observed_rtt_ms)
            rtt_validated = True
        else:
            best_detour = ranked[0].detour_km if ranked else 0.0
            scores = [(r.cable_id, best_detour / max(r.detour_km, 1.0)) for r in ranked]
            rtt_validated = False

        if not scores:
            return CableMapping(link_id=link.id, cable_id=None, confidence=0.0)
        scores.sort(key=lambda pair: pair[1], reverse=True)
        total = sum(s for _, s in scores)
        confidence = scores[0][1] / total if total > 0 else 0.0
        return CableMapping(
            link_id=link.id,
            cable_id=scores[0][0],
            confidence=confidence,
            candidates=tuple(scores),
            rtt_validated=rtt_validated,
        )

    def map_all(self) -> dict[str, CableMapping]:
        """Map every submarine link in the world, from scratch.

        Callers that want the default mapper's answer should use
        :func:`world_cable_mappings`, which computes this once per world.
        """
        return {link.id: self.map_link(link) for link in self._world.submarine_links()}

    def truth_in_candidates_rate(self, min_relative_score: float = 0.5) -> float:
        """Fraction of links whose true cable appears in the candidate set.

        A candidate counts when its score reaches ``min_relative_score`` of
        the top candidate's — the same rule dependency extraction applies.
        Real Nautilus reports accuracy per confidence *category*; this is the
        analogous set-level validation number.
        """
        links = self._world.submarine_links()
        if not links:
            return 1.0
        hits = 0
        for link in links:
            mapping = self.map_link(link)
            if not mapping.candidates:
                continue
            top = mapping.candidates[0][1]
            eligible = {
                cid for cid, s in mapping.candidates if top and s >= min_relative_score * top
            }
            if link.cable_id in eligible:
                hits += 1
        return hits / len(links)

    def accuracy_against_truth(self) -> float:
        """Fraction of submarine links whose mapped cable matches ground truth.

        Used by validation tests and the registry-scaling benchmark; real
        Nautilus reports the analogous validation against known cable faults.
        """
        links = self._world.submarine_links()
        if not links:
            return 1.0
        hits = sum(1 for link in links if self.map_link(link).cable_id == link.cable_id)
        return hits / len(links)

    # -- internals -----------------------------------------------------------

    def _rtt_scores(
        self, ranked: list[CableDetour], observed_rtt_ms: float
    ) -> list[tuple[str, float]]:
        """Score candidates by agreement between path length and RTT.

        The observed RTT implies a physical distance; candidates whose path
        deviates from it lose score exponentially (1000 km e-folding).  The
        implied distance subtracts the per-hop overhead first.  A candidate's
        path is its wet length plus both tails at the 1.3 overland factor;
        the tails come from the ranking's nearest-landing-point search.
        """
        implied_km = max(0.0, (observed_rtt_ms - _HOP_OVERHEAD_MS)) * FIBER_SPEED_KM_PER_MS / 2.0
        scores: list[tuple[str, float]] = []
        for route in ranked:
            path = route.tail_a_km * 1.3 + route.wet_km + route.tail_b_km * 1.3
            mismatch_km = abs(path - implied_km)
            scores.append((route.cable_id, 2.718281828 ** (-mismatch_km / 1000.0)))
        return scores


def world_cable_mappings(world: SyntheticWorld) -> Mapping[str, CableMapping]:
    """The default mapper's verdict for every submarine link, once per world.

    Equal to ``CrossLayerMapper(world).map_all()``: a pure function of the
    (immutable) world, so it is memoized on the world and shared by every
    caller.  The mapping is a read-only view over frozen
    :class:`CableMapping` records, so no caller can change it for the next.
    A mapper with its own geolocator, candidate count or ``use_rtt=False``,
    or a call that passes its own RTTs, goes through
    :class:`CrossLayerMapper` directly and never sees this memo.
    """
    return world.memo(
        "world_cable_mappings",
        lambda: MappingProxyType(CrossLayerMapper(world).map_all()),
    )
