"""AS relationship graph: typed adjacency over the world's business edges."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.synth.ases import RelationshipKind
from repro.synth.world import SyntheticWorld


@dataclass
class ASGraph:
    """Typed AS adjacency: per-AS provider/customer/peer neighbour sets."""

    providers: dict[int, set[int]] = field(default_factory=dict)
    customers: dict[int, set[int]] = field(default_factory=dict)
    peers: dict[int, set[int]] = field(default_factory=dict)
    all_asns: set[int] = field(default_factory=set)

    @classmethod
    def shared(cls, world: SyntheticWorld) -> "ASGraph":
        """One graph per world, memoized on the world object.

        Worlds are immutable after construction, so every consumer (the BGP
        collector, the traceroute path resolver, forensics) can share one
        graph — and, through it, one interned
        :class:`~repro.topology.routing.RoutingIndex` — instead of paying
        the adjacency build and ASN interning per subsystem.  A benign
        construction race builds at most one extra copy.
        """
        return world.memo("as_graph", lambda: cls.from_world(world))

    @classmethod
    def from_world(cls, world: SyntheticWorld) -> "ASGraph":
        graph = cls()
        graph.all_asns = set(world.ases.keys())
        for asn in graph.all_asns:
            graph.providers[asn] = set()
            graph.customers[asn] = set()
            graph.peers[asn] = set()
        for rel in world.relationships:
            if rel.kind is RelationshipKind.CUSTOMER_PROVIDER:
                graph.providers[rel.a].add(rel.b)
                graph.customers[rel.b].add(rel.a)
            else:
                graph.peers[rel.a].add(rel.b)
                graph.peers[rel.b].add(rel.a)
        return graph

    def without_pairs(self, dead_pairs: set[tuple[int, int]]) -> "ASGraph":
        """A copy of the graph with the given AS adjacencies removed.

        ``dead_pairs`` contains normalised ``(min, max)`` tuples — the output
        of :func:`failed_as_pairs`.
        """
        pruned = ASGraph(all_asns=set(self.all_asns))

        def alive(a: int, b: int) -> bool:
            return (min(a, b), max(a, b)) not in dead_pairs

        for asn in self.all_asns:
            pruned.providers[asn] = {p for p in self.providers[asn] if alive(asn, p)}
            pruned.customers[asn] = {c for c in self.customers[asn] if alive(asn, c)}
            pruned.peers[asn] = {p for p in self.peers[asn] if alive(asn, p)}
        return pruned


class AdjacencyIndex:
    """Link→AS-pair indexes for fast severed-adjacency computation.

    Build once per world and reuse: :meth:`dead_pairs` then costs
    O(|failed links|) instead of a full scan of every IP link.  This is the
    single definition of the redundancy rule — an adjacency dies only when
    *every* parallel IP link between the pair is down; transit pairs usually
    keep redundant links, which is why cable cuts degrade rather than
    partition.
    """

    @classmethod
    def shared(cls, world: SyntheticWorld) -> "AdjacencyIndex":
        """One index per world, memoized on the world object (worlds are
        immutable after construction; a construction race is benign)."""
        return world.memo("adjacency_index", lambda: cls(world))

    def __init__(self, world: SyntheticWorld):
        self.pair_of_link: dict[str, tuple[int, int]] = {
            link.id: link.as_pair for link in world.ip_links
        }
        self.links_per_pair: dict[tuple[int, int], list[str]] = {}
        for link in world.ip_links:
            self.links_per_pair.setdefault(link.as_pair, []).append(link.id)

    def dead_pairs(self, failed_link_ids) -> set[tuple[int, int]]:
        """AS adjacencies severed by a link-failure set."""
        failed = set(failed_link_ids)
        candidates = {
            self.pair_of_link[lid] for lid in failed if lid in self.pair_of_link
        }
        return {
            pair
            for pair in candidates
            if all(lid in failed for lid in self.links_per_pair[pair])
        }


def failed_as_pairs(world: SyntheticWorld, failed_link_ids: list[str]) -> set[tuple[int, int]]:
    """AS adjacencies severed by a link-failure set (one-shot convenience;
    callers on a hot path should hold an :class:`AdjacencyIndex`)."""
    return AdjacencyIndex(world).dead_pairs(failed_link_ids)


def isolated_asns(world: SyntheticWorld, failed_link_ids) -> list[int]:
    """ASes cut off from the giant component once the given links are down.

    A graph search over the surviving IP links; the giant component is the
    first largest one in ``world.ases`` order.
    """
    failed = set(failed_link_ids)
    neighbours: dict[int, list[int]] = {asn: [] for asn in world.ases}
    for link in world.ip_links:
        if link.id not in failed:
            neighbours[link.asn_a].append(link.asn_b)
            neighbours[link.asn_b].append(link.asn_a)
    giant: set[int] = set()
    seen: set[int] = set()
    for root in world.ases:
        if root in seen:
            continue
        component, frontier = {root}, [root]
        while frontier:
            for other in neighbours[frontier.pop()]:
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        seen |= component
        if len(component) > len(giant):
            giant = component
    return sorted(asn for asn in world.ases if asn not in giant)
