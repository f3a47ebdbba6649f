"""Valley-free policy routing over the AS graph — raw-speed core.

Implements the Gao-Rexford export model: a path climbs customer→provider
edges, crosses at most one peering edge, then descends provider→customer.
Shortest valley-free paths drive both the BGP collector simulation (AS paths
in announcements) and the traceroute substrate (which IP links a probe's
packets traverse).

The hot engine is :class:`RoutingIndex`: ASNs are interned to dense int ids
once per graph (sorted, so index order *is* ASN order and the legacy
sorted-neighbour tie-breaks survive interning), and the typed adjacency is
flattened into CSR-style per-state candidate rows — ``state = node*2 +
phase`` with phase 0 (climbing: providers, then peers, then customers) and
phase 1 (descending: customers only).  The BFS then relaxes whole FIFO
frontiers over plain int lists: claim checks are single list subscripts,
paths are built by tuple concatenation at claim time, and severed
adjacencies are filtered per-row only at nodes a dead pair touches.  The
result is byte-identical to :class:`LegacyValleyFreeRouter` (property-tested)
at a fraction of the cost — no per-candidate tuple hashing, no per-visit
neighbour sorting.

The module also provides the *incremental* convergence primitives the BGP
collector builds on: removing adjacencies from the graph can only change
routes whose recorded best path crossed a removed adjacency (removal never
creates paths, and the BFS tie-break is deterministic), so re-convergence
only needs to recompute the **affected frontier** — and, per-origin, only
the (peer, prefix) rows whose path actually crossed.  :func:`path_crosses`
and :func:`path_adjacencies` are the crossing predicates that frontier is
built from, and ``ValleyFreeRouter(dead_pairs=...)`` routes around severed
edges without materialising a pruned graph.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.topology.relations import ASGraph

#: Phases of a valley-free walk, in the direction source → destination.
_CLIMBING = 0  # still allowed to go up or take the single lateral step
_DESCENDING = 1  # only provider→customer edges remain legal


def path_crosses(path: tuple[int, ...], dead_pairs: set[tuple[int, int]]) -> bool:
    """Whether an AS path traverses any severed adjacency.

    ``dead_pairs`` holds normalised ``(min, max)`` tuples — the output of
    :func:`repro.topology.relations.failed_as_pairs`.
    """
    for a, b in zip(path, path[1:]):
        if ((a, b) if a < b else (b, a)) in dead_pairs:
            return True
    return False


def path_adjacencies(path: tuple[int, ...]) -> set[tuple[int, int]]:
    """The normalised adjacency pairs one path traverses."""
    return {((a, b) if a < b else (b, a)) for a, b in zip(path, path[1:])}


class RoutingIndex:
    """Int-interned, relationship-typed adjacency for batched valley-free SPF.

    Built once per :class:`ASGraph` (see :func:`shared_index`) and reused by
    every router / failure set over that graph.  Layout:

    * ``asns`` — sorted ASN list; ``index_of`` its inverse.  Sorting makes
      dense-id order equal ASN order, which preserves the legacy router's
      sorted-neighbour expansion (and therefore its deterministic
      tie-breaks) after interning.
    * ``rows[state]`` — the CSR row for ``state = node_id*2 + phase``: a
      flat tuple of successor *states* in legacy expansion order
      (climbing: providers asc, peers asc, customers asc; descending:
      customers asc).  One tuple subscript replaces three dict lookups,
      three sorts and a phase branch per visit.
    * ``state_asn[state]`` — interned id back to ASN without a shift+index.

    The per-source BFS (:meth:`paths_from`) relaxes the FIFO frontier level
    by level over these rows; dead adjacencies are filtered lazily, only at
    rows whose node touches a severed pair, so the common no-failure sweep
    never pays a membership test.
    """

    def __init__(self, graph: ASGraph):
        asns = sorted(graph.all_asns)
        self.asns = asns
        self.index_of = {asn: i for i, asn in enumerate(asns)}
        self.n = len(asns)
        idx = self.index_of
        rows: list[tuple[int, ...]] = []
        state_asn: list[int] = []
        for asn in asns:
            prov = sorted(idx[p] for p in graph.providers[asn])
            peer = sorted(idx[p] for p in graph.peers[asn])
            cust = sorted(idx[c] for c in graph.customers[asn])
            climbing = tuple(
                [p * 2 for p in prov]
                + [p * 2 + 1 for p in peer]
                + [c * 2 + 1 for c in cust]
            )
            descending = tuple(c * 2 + 1 for c in cust)
            rows.append(climbing)
            rows.append(descending)
            state_asn.append(asn)
            state_asn.append(asn)
        self.rows = rows
        self.state_asn = state_asn
        # Leaf states (empty rows) are claimed but never expand — skipping
        # their enqueue shrinks the frontier loop by the stub-AS population.
        self.has_row = [bool(row) for row in rows]

    def intern_pairs(
        self, dead_pairs
    ) -> frozenset[tuple[int, int]] | None:
        """Normalised ASN adjacency pairs → normalised dense-id pairs."""
        if not dead_pairs:
            return None
        idx = self.index_of
        out = set()
        for a, b in dead_pairs:
            ia = idx.get(a)
            ib = idx.get(b)
            if ia is None or ib is None:
                continue  # adjacency outside this graph cannot affect it
            out.add((ia, ib) if ia < ib else (ib, ia))
        return frozenset(out) or None

    def filtered_rows(
        self, dead_idx_pairs: frozenset[tuple[int, int]] | None
    ) -> list[tuple[int, ...]]:
        """The row array with severed adjacencies removed.

        Only the rows of nodes a dead pair touches are rebuilt (everything
        else aliases the shared array), and the result is computed *once
        per failure set* and shared across every source sweep — the batching
        that lets the per-source BFS run with zero dead-pair checks in its
        inner loop.
        """
        if not dead_idx_pairs:
            return self.rows
        rows = list(self.rows)
        touched = set()
        for a, b in dead_idx_pairs:
            touched.add(a)
            touched.add(b)
        for node in touched:
            for state in (node * 2, node * 2 + 1):
                row = rows[state]
                if row:
                    rows[state] = tuple(
                        t for t in row
                        if ((node, t >> 1) if node < t >> 1 else (t >> 1, node))
                        not in dead_idx_pairs
                    )
        return rows

    def paths_over(
        self, src: int, rows: list[tuple[int, ...]]
    ) -> dict[int, tuple[int, ...]]:
        """Shortest valley-free path from ``src`` to every reachable AS,
        over a (possibly dead-pair-filtered) row array.

        Byte-identical to the legacy BFS: FIFO frontier relaxation keeps
        level order, row order keeps the sorted tie-breaks, and the first
        claim of a node is its best path.  (Iterating ``queue`` while
        appending to it is the CPython list-BFS idiom: the iterator indexes
        the growing list, so appended states are visited in FIFO order.)
        """
        src_idx = self.index_of.get(src)
        if src_idx is None:
            raise KeyError(f"unknown AS {src}")
        state_asn = self.state_asn
        has_row = self.has_row
        spaths: list[tuple[int, ...] | None] = [None] * (2 * self.n)
        src_state = src_idx * 2
        first = (src,)
        spaths[src_state] = first
        result = {src: first}
        setdefault = result.setdefault
        queue = [src_state]
        qappend = queue.append
        for state in queue:
            path = spaths[state]
            for t in rows[state]:
                if spaths[t] is not None:
                    continue
                asn = state_asn[t]
                # No loops.  The tuple scan is exact but gated: every ASN on
                # ``path`` has a claimed state, and ``t`` itself is not
                # claimed, so ``asn`` can only appear on ``path`` when its
                # *other* phase state (``t ^ 1``) is — a cheap list probe.
                if spaths[t ^ 1] is not None and asn in path:
                    continue
                new_path = path + (asn,)
                spaths[t] = new_path
                setdefault(asn, new_path)
                if has_row[t]:
                    qappend(t)
        return result

    def paths_from(
        self,
        src: int,
        dead_idx_pairs: frozenset[tuple[int, int]] | None = None,
    ) -> dict[int, tuple[int, ...]]:
        """Single-source convenience over :meth:`paths_over`; batched callers
        should hoist :meth:`filtered_rows` and share it across sources."""
        return self.paths_over(src, self.filtered_rows(dead_idx_pairs))


_SHARED_INDEX_LOCK = threading.Lock()


def shared_index(graph: ASGraph) -> RoutingIndex:
    """One :class:`RoutingIndex` per graph, memoized on the graph object.

    Interning is the only O(edges) cost of the fast engine; every router and
    every failure set over the same graph then reuses the rows.  Safe across
    threads (collectors are shared between serve workers): the index is
    immutable after construction, and the lock only guards the publish.
    """
    index = getattr(graph, "_routing_index", None)
    if index is None:
        with _SHARED_INDEX_LOCK:
            index = getattr(graph, "_routing_index", None)
            if index is None:
                index = RoutingIndex(graph)
                graph._routing_index = index
    return index


class ValleyFreeRouter:
    """Single-source shortest valley-free paths with deterministic tie-breaks.

    Thin per-failure-set view over the graph's shared :class:`RoutingIndex`:
    construction costs one dead-pair interning (no adjacency copying, no
    sorting), and ``dead_pairs`` (normalised ``(min, max)`` adjacencies)
    routes *around* severed edges without materialising a pruned
    :class:`ASGraph`.  Paths are memoized per source for the router's
    lifetime, exactly like the legacy router.
    """

    def __init__(self, graph: ASGraph, dead_pairs: set[tuple[int, int]] | None = None):
        self._index = shared_index(graph)
        self._rows = self._index.filtered_rows(self._index.intern_pairs(dead_pairs))
        self._cache: dict[int, dict[int, tuple[int, ...]]] = {}

    def paths_from(self, src: int) -> dict[int, tuple[int, ...]]:
        """Shortest valley-free path from ``src`` to every reachable AS."""
        cached = self._cache.get(src)
        if cached is None:
            cached = self._cache[src] = self._index.paths_over(src, self._rows)
        return cached

    def best_path(self, src: int, dst: int) -> tuple[int, ...] | None:
        """Shortest valley-free path, or ``None`` when policy forbids any."""
        return self.paths_from(src).get(dst)


class LegacyValleyFreeRouter:
    """The pre-interning reference router: per-peer dict walks over
    ``(asn, phase)`` tuple states.

    Kept verbatim as the semantic oracle — the property suite asserts the
    fast engine is byte-identical to this one, and the routing benchmark's
    engine section measures the fast core against it.
    """

    def __init__(self, graph: ASGraph, dead_pairs: set[tuple[int, int]] | None = None):
        self._graph = graph
        self._dead_pairs = dead_pairs or None
        self._cache: dict[int, dict[int, tuple[int, ...]]] = {}
        # Sorted (and dead-pair-filtered) adjacency computed once per router:
        # neighbour expansion order decides tie-breaks, and re-sorting sets
        # at every node visit dominated the BFS profile.
        self._providers: dict[int, list[int]] = {}
        self._customers: dict[int, list[int]] = {}
        self._peers: dict[int, list[int]] = {}

    def _filtered(self, asn: int, neighbours) -> list[int]:
        dead = self._dead_pairs
        if not dead:
            return sorted(neighbours)
        return sorted(
            n for n in neighbours
            if ((asn, n) if asn < n else (n, asn)) not in dead
        )

    def _adjacency(self, asn: int) -> tuple[list[int], list[int], list[int]]:
        providers = self._providers.get(asn)
        if providers is None:
            graph = self._graph
            providers = self._providers[asn] = self._filtered(asn, graph.providers[asn])
            self._customers[asn] = self._filtered(asn, graph.customers[asn])
            self._peers[asn] = self._filtered(asn, graph.peers[asn])
        return providers, self._customers[asn], self._peers[asn]

    def paths_from(self, src: int) -> dict[int, tuple[int, ...]]:
        """Shortest valley-free path from ``src`` to every reachable AS.

        BFS over ``(asn, phase)`` states; neighbour expansion is sorted so
        equal-length paths resolve identically across runs.
        """
        if src in self._cache:
            return self._cache[src]
        if src not in self._graph.all_asns:
            raise KeyError(f"unknown AS {src}")

        best: dict[tuple[int, int], tuple[int, ...]] = {(src, _CLIMBING): (src,)}
        result: dict[int, tuple[int, ...]] = {src: (src,)}
        queue: deque[tuple[int, int]] = deque([(src, _CLIMBING)])

        while queue:
            asn, phase = queue.popleft()
            path = best[(asn, phase)]
            providers, customers, peers = self._adjacency(asn)
            candidates: list[tuple[int, int]] = []
            if phase == _CLIMBING:
                candidates.extend((p, _CLIMBING) for p in providers)
                candidates.extend((p, _DESCENDING) for p in peers)
            candidates.extend((c, _DESCENDING) for c in customers)

            for nxt, nxt_phase in candidates:
                if nxt in path:
                    continue  # no loops
                state = (nxt, nxt_phase)
                if state in best:
                    continue
                new_path = path + (nxt,)
                best[state] = new_path
                if nxt not in result or len(new_path) < len(result[nxt]):
                    result[nxt] = new_path
                queue.append(state)

        self._cache[src] = result
        return result

    def best_path(self, src: int, dst: int) -> tuple[int, ...] | None:
        """Shortest valley-free path, or ``None`` when policy forbids any."""
        return self.paths_from(src).get(dst)
