"""Path resolution and the end-to-end RTT model.

The resolver walks the valley-free AS path and picks one alive IP link per
adjacency.  End-to-end RTT is the sum of per-link RTTs (propagation over the
link's physical path, as :func:`repro.nautilus.mapping.observed_link_rtt_ms`
reports it) plus per-hop processing and a last-mile constant.  When a cable
dies its links leave the pool: adjacencies with surviving parallel links
keep working, others force the AS path itself to change — either way the
geometry gets longer and the RTT steps up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.nautilus.mapping import observed_link_rtt_ms
from repro.topology.relations import AdjacencyIndex, ASGraph
from repro.topology.routing import ValleyFreeRouter
from repro.synth.iplinks import IPLink
from repro.synth.world import SyntheticWorld

_PER_HOP_MS = 0.5
_LAST_MILE_MS = 4.0


def sample_noise(src_asn: int, dst_asn: int, ts: float) -> float:
    """Deterministic relative noise of one RTT sample, uniform in ±3%.

    The one definition behind every sampled RTT: single measurements
    (:meth:`PathResolver.measured_rtt_ms`) and whole campaigns scale a
    path's base RTT by ``1 + sample_noise(...)``.
    """
    digest = hashlib.sha256(f"{src_asn}-{dst_asn}-{ts}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") / 2**64 - 0.5) * 0.06


@dataclass(frozen=True)
class ResolvedPath:
    """The concrete forwarding path between two ASes."""

    src_asn: int
    dst_asn: int
    as_path: tuple[int, ...]
    link_ids: tuple[str, ...]
    base_rtt_ms: float

    @property
    def hop_count(self) -> int:
        return len(self.as_path)


class PathResolver:
    """Resolves AS-level and link-level paths under a set of failed links."""

    def __init__(self, world: SyntheticWorld):
        self._world = world
        # Shared per world: the resolver rides the same graph (and thus the
        # same interned RoutingIndex) as the BGP collector, so routing state
        # is interned once per world, not once per subsystem.
        self._base_graph = ASGraph.shared(world)
        self._adjacency = AdjacencyIndex.shared(world)
        self._routers: dict[frozenset[str], ValleyFreeRouter] = {}
        self._path_cache: dict[tuple[int, int, frozenset[str]], ResolvedPath | None] = {}
        self._links_by_pair: dict[tuple[int, int], list[IPLink]] = {}
        for link in world.ip_links:
            self._links_by_pair.setdefault(link.as_pair, []).append(link)

    def resolve(
        self, src_asn: int, dst_asn: int, failed_link_ids: frozenset[str] = frozenset()
    ) -> ResolvedPath | None:
        """The forwarding path, or ``None`` when the destination is unreachable."""
        key = (src_asn, dst_asn, failed_link_ids)
        if key in self._path_cache:
            return self._path_cache[key]
        router = self._router_for(failed_link_ids)
        as_path = router.best_path(src_asn, dst_asn)
        resolved: ResolvedPath | None = None
        if as_path is not None:
            link_ids: list[str] = []
            rtt = _LAST_MILE_MS
            ok = True
            for a, b in zip(as_path, as_path[1:]):
                link = self._pick_link(a, b, failed_link_ids)
                if link is None:
                    ok = False
                    break
                link_ids.append(link.id)
                rtt += observed_link_rtt_ms(self._world, link) + _PER_HOP_MS
            if ok:
                resolved = ResolvedPath(
                    src_asn=src_asn,
                    dst_asn=dst_asn,
                    as_path=as_path,
                    link_ids=tuple(link_ids),
                    base_rtt_ms=rtt,
                )
        self._path_cache[key] = resolved
        return resolved

    def measured_rtt_ms(
        self,
        src_asn: int,
        dst_asn: int,
        ts: float,
        failed_link_ids: frozenset[str] = frozenset(),
    ) -> tuple[float | None, ResolvedPath | None]:
        """One measurement: base path RTT plus deterministic sampling noise."""
        path = self.resolve(src_asn, dst_asn, failed_link_ids)
        if path is None:
            return (None, None)
        return (path.base_rtt_ms * (1.0 + sample_noise(src_asn, dst_asn, ts)), path)

    # -- internals -----------------------------------------------------------

    def _router_for(self, failed_link_ids: frozenset[str]) -> ValleyFreeRouter:
        if failed_link_ids not in self._routers:
            # dead_pairs flows into the router directly (adjacency rows are
            # filtered at the index level) — no per-failure-set graph copy.
            dead = self._adjacency.dead_pairs(failed_link_ids)
            self._routers[failed_link_ids] = ValleyFreeRouter(
                self._base_graph, dead_pairs=dead or None
            )
        return self._routers[failed_link_ids]

    def _pick_link(
        self, asn_a: int, asn_b: int, failed_link_ids: frozenset[str]
    ) -> IPLink | None:
        pair = (min(asn_a, asn_b), max(asn_a, asn_b))
        alive = [
            link
            for link in self._links_by_pair.get(pair, [])
            if link.id not in failed_link_ids
        ]
        if not alive:
            return None
        return min(alive, key=lambda l: l.id)
