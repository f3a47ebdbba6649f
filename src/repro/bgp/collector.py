"""BGP collector simulation: steady-state churn plus incident dynamics.

The simulator stands in for RouteViews/RIS.  Vantage points (peers) are
transit ASes; for every (peer, prefix) pair the baseline route is the
valley-free path from peer to origin.  Background churn emits low-rate
flaps.  When an incident kills a cable, every route whose path crossed a
severed adjacency re-converges: withdrawn if no policy path survives,
re-announced with the new (usually longer) path otherwise, spread over a
convergence window with optional path exploration — the update-burst
signature the forensic workflow hunts for.

Convergence itself runs on the raw-speed core from
:mod:`repro.topology.routing`: ASNs are interned once per world, SPF runs
over int-indexed CSR rows, and route slices are emitted through per-peer
precomputed ``(peer, cidr)`` key arrays so the flat table costs C-speed
dict construction, not per-row tuple hashing in Python.  On top of that
sit two incremental layers:

* **Per-origin repair** — a new failure set diffs against its nearest
  cached ancestor; only peers whose routes crossed a newly severed
  adjacency re-run SPF, and within those peers only the (peer, prefix)
  rows whose recorded path actually crossed are reassigned (the rest of
  the slice is carried over by a C-speed dict copy).  The row→adjacency
  inverted index (:meth:`BGPCollectorSim._entry_pair_keys`) is the
  localized-failure catalog: built lazily once per ancestor entry, it
  turns the dominant single-cable disaster into a handful of row fixes.
* **Route-delta streams** — :meth:`BGPCollectorSim.deltas_since` emits
  the (changed, withdrawn) diff between any two failure states, and
  :class:`RouteDeltaStream` is the cross-epoch cursor the live plane's
  feeds consume instead of comparing full tables.  A stream pins its
  baseline entry in the route cache (mirroring EpochShardPool's pin
  semantics) so eviction can never tear the diff basis out from under a
  long replay.
"""

from __future__ import annotations

import random
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from repro.bgp.messages import BGPUpdate, UpdateKind
from repro.topology.relations import AdjacencyIndex, ASGraph, failed_as_pairs
from repro.topology.routing import (
    LegacyValleyFreeRouter,
    path_adjacencies,
    path_crosses,
    shared_index,
)
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import SyntheticWorld


@dataclass(frozen=True)
class CollectorConfig:
    """Collector behaviour knobs."""

    name: str = "rrc-sim"
    peer_count: int = 8
    churn_per_hour: float = 12.0
    convergence_window_s: float = 300.0
    exploration_prob: float = 0.3
    seed: int = 11
    #: LRU bound on memoized route tables; long live timelines revisit a few
    #: failure states, so a small bound keeps memory flat without thrashing.
    route_cache_entries: int = 64


@dataclass(frozen=True)
class CableIncident:
    """A cable failure visible to the routing system."""

    cable_name: str
    onset: float

    @classmethod
    def coerce(cls, item: "CableIncident | LatencyIncident | dict") -> "CableIncident":
        if isinstance(item, CableIncident):
            return item
        if isinstance(item, LatencyIncident):
            return cls(cable_name=item.cable_name, onset=item.onset)
        return cls(cable_name=item["cable_name"], onset=float(item["onset"]))


@dataclass(frozen=True)
class RouteDelta:
    """The route-table diff between two failure states.

    ``changed`` maps (peer, prefix) → new AS path (announcements, including
    keys absent from the baseline — repairs re-announce recovered routes);
    ``withdrawn`` holds keys present in the baseline with no surviving
    policy path.  Applied onto the baseline table, the delta reconstructs
    the target table byte-identically (property-tested).
    """

    baseline_key: frozenset[str]
    target_key: frozenset[str]
    changed: dict[tuple[int, str], tuple[int, ...]]
    withdrawn: frozenset[tuple[int, str]]

    @property
    def empty(self) -> bool:
        return not self.changed and not self.withdrawn

    @property
    def route_count(self) -> int:
        return len(self.changed) + len(self.withdrawn)

    @property
    def nbytes(self) -> int:
        """Deterministic wire-size estimate: what shipping this diff costs
        versus a full table (8 bytes per path hop, prefix string, small
        per-row framing).  An estimate, not an encoding."""
        total = 0
        for (_, prefix), path in self.changed.items():
            total += 24 + len(prefix) + 8 * len(path)
        for _, prefix in self.withdrawn:
            total += 16 + len(prefix)
        return total

    def apply(
        self, table: dict[tuple[int, str], tuple[int, ...]]
    ) -> dict[tuple[int, str], tuple[int, ...]]:
        """Replay the delta onto ``table`` (the baseline), returning the
        target-state table."""
        out = dict(table)
        out.update(self.changed)
        for key in self.withdrawn:
            out.pop(key, None)
        return out


class RouteDeltaStream:
    """Cross-epoch route-delta cursor over one collector.

    Holds a position (a failure-set key) and emits the diff to each next
    state via :meth:`advance`; the live BGP feed and standing-query plane
    ride this instead of comparing full tables.  The stream's current
    position is pinned in the collector's route cache for its lifetime —
    mirroring :class:`~repro.live.standing.EpochShardPool` pin semantics —
    so cache eviction can never drop the entry a future diff is based on.
    Close (or use as a context manager) to release the pin.
    """

    def __init__(self, sim: "BGPCollectorSim",
                 baseline_key: frozenset[str] = frozenset()):
        self._sim = sim
        self._position = frozenset(baseline_key)
        self._closed = False
        sim.pin(self._position)
        self.deltas_emitted = 0
        self.routes_emitted = 0
        self.bytes_emitted = 0
        self.last_delta: RouteDelta | None = None

    @property
    def closed(self) -> bool:
        return self._closed

    def advance(self, failed_link_ids: frozenset[str]) -> RouteDelta:
        """Diff from the current position to ``failed_link_ids`` and rebase
        the stream (and its pin) there."""
        if self._closed:
            raise RuntimeError("delta stream is closed")
        target = frozenset(failed_link_ids)
        delta = self._sim.deltas_since(self._position, target)
        self._sim.pin(target)
        self._sim.unpin(self._position)
        self._position = target
        self.deltas_emitted += 1
        self.routes_emitted += delta.route_count
        self.bytes_emitted += delta.nbytes
        self.last_delta = delta
        return delta

    def close(self) -> None:
        if not self._closed:
            self._sim.unpin(self._position)
            self._closed = True

    def stats(self) -> dict:
        return {
            "deltas_emitted": self.deltas_emitted,
            "routes_emitted": self.routes_emitted,
            "bytes_emitted": self.bytes_emitted,
            "closed": self._closed,
        }

    def __enter__(self) -> "RouteDeltaStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: ``_stats`` keys that are monotonic totals — synced to MetricsRegistry
#: counters by :meth:`BGPCollectorSim.sync_metrics`.
_COUNTER_STATS = (
    "hits", "misses", "evictions",
    "full_recomputes", "incremental_recomputes", "shared_full_tables",
    "peers_recomputed", "peers_shared",
    "pairs_repaired", "pairs_shared",
    "delta_emits", "delta_routes", "delta_bytes",
)


@dataclass
class BGPCollectorSim:
    """Generates update streams for a time window."""

    world: SyntheticWorld
    config: CollectorConfig = field(default_factory=CollectorConfig)

    def __post_init__(self) -> None:
        self._graph = ASGraph.shared(self.world)
        # The interned CSR routing core, shared with every router over this
        # world's graph (PathResolver, forensics) — built once per world.
        self._index = shared_index(self._graph)
        self._peers = self._select_peers()
        # (frozen failed-link set) -> cache entry; the live feed diffs epoch
        # route tables and a replay revisits the same few failure states.
        # LRU-bounded (baseline and pinned entries exempt) so long timelines
        # keep memory flat.  Each entry carries the flat route table plus the
        # per-peer slices, per-peer traversed-adjacency sets and the lazily
        # built row→adjacency inverted index that later failure states diff
        # and repair against (see _compute_routes).
        self._route_cache: OrderedDict[frozenset[str], dict] = OrderedDict()
        # Delta streams pin their baseline entry; pinned entries are exempt
        # from LRU eviction (EpochShardPool semantics).
        self._pins: Counter[frozenset[str]] = Counter()
        # Serve workers share one collector per world (see shared_collector);
        # RLock because computing one entry consults others (the ancestor).
        self._cache_lock = threading.RLock()
        # Prebuilt link→pair indexes: severed adjacencies per failure set in
        # O(|failed links|), sharing the one redundancy-rule definition with
        # failed_as_pairs (which routes_under_full still calls).
        self._adjacency_index = AdjacencyIndex.shared(self.world)
        # Per-peer static slice templates: the (peer, cidr) key tuples and
        # origin-ASN arrays are world-constant, so every convergence emits
        # its slices through C-speed dict(zip(keys, map(...))) instead of
        # hashing freshly allocated tuples per row.
        prefixes = self.world.all_prefixes()
        self._origin_of = {p.cidr: p.asn for p in prefixes}
        self._peer_static: dict[int, tuple[list, list, tuple]] = {}
        for peer in self._peers:
            rows = tuple(((peer, p.cidr), p.asn) for p in prefixes)
            self._peer_static[peer] = (
                [key for key, _ in rows], [asn for _, asn in rows], rows,
            )
        self._stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "full_recomputes": 0,
            "incremental_recomputes": 0,
            "shared_full_tables": 0,
            "peers_recomputed": 0,
            "peers_shared": 0,
            "pairs_repaired": 0,
            "pairs_shared": 0,
            "repair_frontier_peak": 0,
            "delta_emits": 0,
            "delta_routes": 0,
            "delta_bytes": 0,
        }
        # Per-registry high-water marks for sync_metrics (keyed by registry
        # identity + label set, so double-attach never double-counts).
        self._metrics_marks: dict[tuple[int, tuple], dict] = {}

    def _select_peers(self) -> list[int]:
        """Deterministic vantage points: tier-1s first, then tier-2s."""
        tier1 = sorted(a.asn for a in self.world.ases.values() if a.tier == 1)
        tier2 = sorted(a.asn for a in self.world.ases.values() if a.tier == 2)
        return (tier1 + tier2)[: self.config.peer_count]

    @property
    def peers(self) -> list[int]:
        return list(self._peers)

    def routes_under(
        self, failed_link_ids: frozenset[str] = frozenset()
    ) -> dict[tuple[int, str], tuple[int, ...]]:
        """(peer, prefix) → AS path with the given links out of service.

        Memoized per failure set (LRU-bounded; the baseline and any
        delta-stream-pinned entries are exempt) and computed *incrementally*:
        only peers whose cached routes crossed a newly severed adjacency
        re-run SPF, and within them only the crossing (peer, prefix) rows
        are repaired.  Callers must not mutate the returned dict.
        """
        return self._entry_for(frozenset(failed_link_ids))["routes"]

    def _entry_for(self, key: frozenset[str]) -> dict:
        with self._cache_lock:
            cached = self._route_cache.get(key)
            if cached is not None:
                self._stats["hits"] += 1
                self._route_cache.move_to_end(key)
                return cached
            self._stats["misses"] += 1
            entry = self._compute_routes(key)
            self._route_cache[key] = entry
            self._evict_route_cache()
            return entry

    def routes_under_full(
        self, failed_link_ids: frozenset[str] = frozenset()
    ) -> dict[tuple[int, str], tuple[int, ...]]:
        """The same table computed from scratch on the *legacy* engine —
        per-peer dict-walk SPF over a materialised pruned graph, no interning,
        no cache, no structural sharing.  This is the reference oracle the
        fast core, the per-origin repair and the delta streams are tested
        and benchmarked against."""
        graph = self._graph
        if failed_link_ids:
            dead = failed_as_pairs(self.world, sorted(failed_link_ids))
            graph = graph.without_pairs(dead)
        router = LegacyValleyFreeRouter(graph)
        prefixes = self.world.all_prefixes()
        routes: dict[tuple[int, str], tuple[int, ...]] = {}
        for peer in self._peers:
            routes.update(self._peer_slice(router, peer, prefixes))
        return routes

    def converge_full(
        self, failed_link_ids: frozenset[str] = frozenset()
    ) -> dict[tuple[int, str], tuple[int, ...]]:
        """Cold full convergence on the fast engine: batched multi-origin
        SPF over the interned rows, slices emitted through the static key
        templates.  No cache, no structural sharing — the same table as
        :meth:`routes_under_full` at raw-core speed (the benchmark's engine
        section times exactly this pair)."""
        key = frozenset(failed_link_ids)
        index = self._index
        dead_idx = index.intern_pairs(self._dead_pairs(key)) if key else None
        adjacency = index.filtered_rows(dead_idx)
        full_reach = index.n
        routes: dict[tuple[int, str], tuple[int, ...]] = {}
        update = routes.update
        prune = False
        for peer in self._peers:
            paths = index.paths_over(peer, adjacency)
            keys, origins, _ = self._peer_static[peer]
            update(zip(keys, map(paths.get, origins)))
            prune = prune or len(paths) != full_reach
        if prune:
            # Unreachable origins left None rows; one scan clears them all.
            for k in [k for k, v in routes.items() if v is None]:
                del routes[k]
        return routes

    def cache_info(self) -> dict:
        """Route-cache economics: hit/miss counters, eviction and pin counts
        and how much convergence work the incremental path avoided —
        including the per-origin repair and delta-stream tallies."""
        return {
            "entries": len(self._route_cache),
            "max_entries": self.config.route_cache_entries,
            "pinned": len(self._pins),
            **self._stats,
        }

    # -- incremental convergence ---------------------------------------------

    def _peer_slice(
        self, router, peer: int, prefixes: list
    ) -> dict[tuple[int, str], tuple[int, ...]]:
        """One peer's (peer, prefix) → path rows under the router's graph."""
        paths = router.paths_from(peer)
        slice_: dict[tuple[int, str], tuple[int, ...]] = {}
        for prefix in prefixes:
            path = paths.get(prefix.asn)
            if path is not None:
                slice_[(peer, prefix.cidr)] = path
        return slice_

    def _fast_slice(
        self, peer: int, paths: dict[int, tuple[int, ...]]
    ) -> dict[tuple[int, str], tuple[int, ...]]:
        """One peer's slice from a fast-engine path table, via the static
        key templates: a C-speed zip/map build, then (only when some origin
        is unreachable) a prune of the ``None`` rows it left behind."""
        keys, origins, _ = self._peer_static[peer]
        slice_ = dict(zip(keys, map(paths.get, origins)))
        if len(paths) != self._index.n:
            for k in [k for k, v in slice_.items() if v is None]:
                del slice_[k]
        return slice_

    def _dead_pairs(self, failed_link_ids: frozenset[str]) -> set[tuple[int, int]]:
        return self._adjacency_index.dead_pairs(failed_link_ids)

    @staticmethod
    def _slice_pairs(slice_: dict) -> frozenset[tuple[int, int]]:
        """Every AS adjacency one peer's route slice traverses.

        Rows with the same origin AS share one path object (structural
        sharing), so paths are deduped by identity before the pair scan —
        the ``id()`` keys are safe because ``slice_`` keeps every path
        alive for the duration.
        """
        if not slice_:
            return frozenset()
        distinct = {id(p): p for p in slice_.values()}
        return frozenset().union(*map(path_adjacencies, distinct.values()))

    def _build_entry(
        self,
        dead: frozenset[tuple[int, int]],
        slices: dict[int, dict],
        pairs: dict[int, frozenset],
    ) -> dict:
        """``pairs`` may be partial — :meth:`_entry_pairs` fills it lazily,
        so entries that never become diff ancestors skip the pair scan.
        ``by_pair`` (the row→adjacency inverted index) is likewise built on
        first repair against the entry (:meth:`_entry_pair_keys`)."""
        routes: dict[tuple[int, str], tuple[int, ...]] = {}
        for peer in self._peers:
            routes.update(slices[peer])
        return {"routes": routes, "slices": slices, "pairs": pairs,
                "dead": dead, "by_pair": {}}

    def _entry_pairs(self, entry: dict) -> dict[int, frozenset]:
        pairs = entry["pairs"]
        for peer in self._peers:
            if peer not in pairs:
                pairs[peer] = self._slice_pairs(entry["slices"][peer])
        return pairs

    def _entry_pair_keys(self, entry: dict) -> dict[tuple[int, int], list]:
        """The entry's localized-failure catalog: adjacency pair → the route
        keys whose recorded path crosses it.  Built once per entry on first
        repair; for the pinned baseline it then serves every single-cable
        disaster in the timeline with an O(|delta|) lookup."""
        by_pair = entry["by_pair"]
        if not by_pair and entry["routes"]:
            # Dedup the adjacency scan by path identity (rows sharing an
            # origin share one path object, kept alive by the entry).
            memo: dict[int, tuple] = {}
            for key, path in entry["routes"].items():
                pairs = memo.get(id(path))
                if pairs is None:
                    pairs = memo[id(path)] = tuple(path_adjacencies(path))
                for pair in pairs:
                    rows = by_pair.get(pair)
                    if rows is None:
                        by_pair[pair] = [key]
                    else:
                        rows.append(key)
        return by_pair

    def _best_ancestor(self, key: frozenset[str]) -> dict:
        """The cached entry of the largest failure set contained in ``key``.

        Timeline states mostly grow by one event (and heal back to states
        already seen), so diffing against the nearest ancestor — rather than
        always the baseline — shrinks the affected frontier to the peers the
        *new* severed adjacencies touch.  The baseline is pinned in the
        cache, so there is always at least one ancestor.
        """
        best_key = frozenset()
        for cached_key in self._route_cache:
            if cached_key != key and len(cached_key) > len(best_key) and cached_key < key:
                best_key = cached_key
        self._route_cache.move_to_end(best_key)  # keep shared ancestors warm
        return self._route_cache[best_key]

    def _compute_routes(self, key: frozenset[str]) -> dict:
        if not key:
            index = self._index
            rows = index.rows
            slices = {
                peer: self._fast_slice(peer, index.paths_over(peer, rows))
                for peer in self._peers
            }
            self._stats["full_recomputes"] += 1
            return self._build_entry(frozenset(), slices, {})

        if frozenset() not in self._route_cache:
            self._entry_for(frozenset())  # pin the baseline first
        dead = frozenset(self._dead_pairs(key))
        ancestor = self._best_ancestor(key)
        delta = dead - ancestor["dead"]
        if not delta:
            # Redundant parallel links absorbed every new failure: no further
            # adjacency died, so the table is the ancestor's — share it
            # wholesale (structurally, the whole entry).
            self._stats["shared_full_tables"] += 1
            return ancestor

        # The peer frontier: peers whose ancestor routes traverse a newly
        # severed adjacency.  Everyone else's table cannot change (edge
        # removal never creates paths and tie-breaks are deterministic), so
        # it is shared.  Within a frontier peer, the same argument holds
        # per row: only the (peer, prefix) rows whose recorded path crossed
        # a delta pair can differ, so the slice is repaired row by row over
        # a C-speed copy instead of rebuilt.
        ancestor_pairs = self._entry_pairs(ancestor)
        # Affected-row discovery: the pinned baseline serves the whole
        # timeline, so its pair→keys catalog amortizes (built once, every
        # localized disaster then costs O(|delta|) lookups).  A chained
        # ancestor is typically consulted once — a direct crossing scan of
        # its frontier slices is cheaper than building its full catalog.
        affected: dict[int, set] | None = None
        if ancestor["by_pair"] or not ancestor["dead"]:
            by_pair = self._entry_pair_keys(ancestor)
            affected = {}
            for pair in delta:
                for route_key in by_pair.get(pair, ()):
                    affected.setdefault(route_key[0], set()).add(route_key)
        index = self._index
        filtered = index.filtered_rows(index.intern_pairs(dead))
        origin_of = self._origin_of
        slices: dict[int, dict] = {}
        pairs: dict[int, frozenset] = {}
        repaired = 0
        for peer in self._peers:
            if ancestor_pairs[peer] & delta:
                paths = index.paths_over(peer, filtered)
                old_slice = ancestor["slices"][peer]
                if affected is not None:
                    hit_keys = affected.get(peer, ())
                else:
                    # Crossing test deduped by path identity (rows sharing
                    # an origin share one path object, alive via old_slice).
                    verdicts: dict[int, bool] = {}
                    hit_keys = []
                    for route_key, path in old_slice.items():
                        crossed = verdicts.get(id(path))
                        if crossed is None:
                            crossed = verdicts[id(path)] = path_crosses(
                                path, delta)
                        if crossed:
                            hit_keys.append(route_key)
                slice_ = dict(old_slice)
                fresh: dict[int, tuple] = {}
                for route_key in hit_keys:
                    new_path = paths.get(origin_of[route_key[1]])
                    if new_path is None:
                        slice_.pop(route_key, None)
                    else:
                        slice_[route_key] = new_path
                        fresh[id(new_path)] = new_path
                    repaired += 1
                slices[peer] = slice_
                # Carry the pair set forward as a superset (old pairs plus
                # the replacement paths'): a superset can only enlarge a
                # future frontier, never wrongly share — and it spares the
                # next repair a lazy full-slice rescan.
                pairs[peer] = (
                    ancestor_pairs[peer].union(
                        *map(path_adjacencies, fresh.values()))
                    if fresh else ancestor_pairs[peer]
                )
                self._stats["peers_recomputed"] += 1
            else:
                slices[peer] = ancestor["slices"][peer]
                pairs[peer] = ancestor_pairs[peer]
                self._stats["peers_shared"] += 1
        self._stats["incremental_recomputes"] += 1
        self._stats["pairs_repaired"] += repaired
        total_rows = sum(len(s) for s in slices.values())
        self._stats["pairs_shared"] += max(0, total_rows - repaired)
        if repaired > self._stats["repair_frontier_peak"]:
            self._stats["repair_frontier_peak"] = repaired
        return self._build_entry(dead, slices, pairs)

    def _evict_route_cache(self) -> None:
        overflow = len(self._route_cache) - self.config.route_cache_entries
        while overflow > 0:
            victim = next(
                (k for k in self._route_cache if k and k not in self._pins),
                None,
            )
            if victim is None:
                break  # only the baseline and pinned entries remain
            del self._route_cache[victim]
            self._stats["evictions"] += 1
            overflow -= 1

    # -- route-delta streams --------------------------------------------------

    def pin(self, failed_link_ids: frozenset[str] = frozenset()) -> frozenset[str]:
        """Exempt one failure state's entry from LRU eviction (refcounted;
        the entry is materialised if not yet cached)."""
        key = frozenset(failed_link_ids)
        with self._cache_lock:
            self._entry_for(key)
            self._pins[key] += 1
        return key

    def unpin(self, failed_link_ids: frozenset[str] = frozenset()) -> None:
        key = frozenset(failed_link_ids)
        with self._cache_lock:
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1

    def deltas_since(
        self,
        baseline_key: frozenset[str],
        failed_link_ids: frozenset[str],
    ) -> RouteDelta:
        """The route diff from one failure state to another.

        Computed slice-by-slice with structural-sharing shortcuts: peers
        whose slices are the same object (the common case — per-origin
        repair carries unaffected slices over by reference) cost one
        identity check, and within differing slices unchanged rows are
        skipped by row identity before value comparison.
        """
        bkey = frozenset(baseline_key)
        tkey = frozenset(failed_link_ids)
        with self._cache_lock:
            before = self._entry_for(bkey)
            after = self._entry_for(tkey)
            changed, withdrawn = self._entry_delta(before, after)
            delta = RouteDelta(bkey, tkey, changed, frozenset(withdrawn))
            self._stats["delta_emits"] += 1
            self._stats["delta_routes"] += delta.route_count
            self._stats["delta_bytes"] += delta.nbytes
            return delta

    def delta_stream(
        self, baseline_key: frozenset[str] = frozenset()
    ) -> RouteDeltaStream:
        """A cross-epoch delta cursor starting at ``baseline_key`` (which is
        pinned against eviction until the stream is closed)."""
        return RouteDeltaStream(self, baseline_key)

    def _entry_delta(
        self, before: dict, after: dict
    ) -> tuple[dict, list]:
        changed: dict = {}
        withdrawn: list = []
        if before is after:
            return changed, withdrawn
        for peer in self._peers:
            before_slice = before["slices"][peer]
            after_slice = after["slices"][peer]
            if before_slice is after_slice:
                continue
            for route_key, path in after_slice.items():
                old = before_slice.get(route_key)
                if old is not path and old != path:
                    changed[route_key] = path
            for route_key in before_slice:
                if route_key not in after_slice:
                    withdrawn.append(route_key)
        return changed, withdrawn

    # -- metrics -------------------------------------------------------------

    def sync_metrics(self, registry, labels: dict | None = None) -> None:
        """Fold :meth:`cache_info` into a MetricsRegistry: monotonic stats
        become ``routing_*_total`` counters (delta-synced against a
        per-registry high-water mark, so repeated scrapes and double
        attachment never double-count), levels become gauges."""
        labels = dict(labels or {})
        mark_key = (id(registry), tuple(sorted(labels.items())))
        marks = self._metrics_marks.setdefault(mark_key, {})
        info = self.cache_info()
        for stat in _COUNTER_STATS:
            value = info[stat]
            previous = marks.get(stat, 0)
            if value > previous:
                registry.counter(f"routing_{stat}_total", labels).inc(value - previous)
            marks[stat] = value
        registry.gauge("routing_route_cache_entries", labels).set(info["entries"])
        registry.gauge("routing_route_cache_pinned", labels).set(info["pinned"])
        registry.gauge("routing_repair_frontier_peak", labels).set(
            info["repair_frontier_peak"]
        )

    # -- update generation ----------------------------------------------------

    def delta_updates(
        self,
        ts: float,
        failed_before: frozenset[str],
        failed_after: frozenset[str],
        window_end: float | None = None,
        delta: RouteDelta | None = None,
    ) -> list[BGPUpdate]:
        """The re-convergence burst when the failure set changes at ``ts``.

        Symmetric in direction: a cable cut (links joining the failed set)
        withdraws or re-announces the routes that crossed it, and a repair
        (links leaving the set) announces recovered routes back — which is
        what lets a live timeline *heal* events, not just fire them.

        Rides the route-delta machinery: only the diffed (changed or
        withdrawn) keys are visited, in the same sorted order the old
        full-table comparison produced, so the emitted update stream is
        byte-identical at a fraction of the comparison cost.  Pass a
        precomputed ``delta`` (e.g. from a :class:`RouteDeltaStream`) to
        skip even the diff.
        """
        if delta is None:
            delta = self.deltas_since(failed_before, failed_after)
        if delta.empty:
            return []
        before = self.routes_under(failed_before)
        horizon = window_end if window_end is not None else ts + self.config.convergence_window_s
        rng = random.Random(f"{self.config.seed}:{ts:.3f}")
        updates: list[BGPUpdate] = []
        for key in sorted(list(delta.changed) + list(delta.withdrawn)):
            old_path = before.get(key)
            new_path = delta.changed.get(key)
            peer, prefix = key
            update_ts = min(
                horizon, ts + rng.uniform(1.0, self.config.convergence_window_s)
            )
            if new_path is None:
                updates.append(
                    BGPUpdate(update_ts, self.config.name, peer, UpdateKind.WITHDRAW, prefix)
                )
                continue
            if (
                old_path is not None
                and rng.random() < self.config.exploration_prob
                and len(new_path) >= 2
            ):
                explore_ts = min(horizon, ts + rng.uniform(1.0, 60.0))
                padded = new_path[:1] + new_path[1:2] + new_path[1:]
                updates.append(
                    BGPUpdate(explore_ts, self.config.name, peer,
                              UpdateKind.ANNOUNCE, prefix, padded)
                )
            updates.append(
                BGPUpdate(update_ts, self.config.name, peer,
                          UpdateKind.ANNOUNCE, prefix, new_path)
            )
        updates.sort(key=lambda u: (u.ts, u.peer_asn, u.prefix, u.kind.value))
        return updates

    def churn_updates(self, window_start: float, window_end: float) -> list[BGPUpdate]:
        """Background churn alone for one window, seeded per window start so
        successive epochs draw independent (but reproducible) flaps."""
        if window_end <= window_start:
            raise ValueError("window_end must be after window_start")
        rng = random.Random(f"{self.config.seed}:churn:{window_start:.3f}")
        updates = self._background_churn(rng, window_start, window_end)
        updates.sort(key=lambda u: (u.ts, u.peer_asn, u.prefix, u.kind.value))
        return updates

    def generate_updates(
        self,
        window_start: float,
        window_end: float,
        incidents: list[CableIncident | LatencyIncident | dict] | None = None,
    ) -> list[BGPUpdate]:
        """The update stream a collector records over the window."""
        if window_end <= window_start:
            raise ValueError("window_end must be after window_start")
        rng = random.Random(self.config.seed)
        updates: list[BGPUpdate] = []
        updates.extend(self._background_churn(rng, window_start, window_end))
        failed_links: set[str] = set()
        for item in sorted(
            (CableIncident.coerce(i) for i in (incidents or [])), key=lambda c: c.onset
        ):
            if not window_start <= item.onset <= window_end:
                continue
            cable = self.world.cable_named(item.cable_name)
            failed_links |= {link.id for link in self.world.links_on_cable(cable.id)}
            updates.extend(
                self._incident_burst(rng, item.onset, failed_links, window_end)
            )
        updates.sort(key=lambda u: (u.ts, u.peer_asn, u.prefix, u.kind.value))
        return updates

    # -- internals -----------------------------------------------------------

    def _background_churn(
        self, rng: random.Random, start: float, end: float
    ) -> list[BGPUpdate]:
        """Low-rate flaps of random prefixes, uniform over the window."""
        duration_h = (end - start) / 3600.0
        count = max(0, int(round(self.config.churn_per_hour * duration_h)))
        baseline = self.routes_under(frozenset())  # shared table, read-only
        keys = sorted(baseline.keys())
        updates: list[BGPUpdate] = []
        if not keys:
            return updates
        for _ in range(count):
            peer, prefix = keys[rng.randrange(len(keys))]
            ts = rng.uniform(start, end)
            path = baseline[(peer, prefix)]
            if rng.random() < 0.5:
                # A quick flap: withdraw then re-announce the same route.
                updates.append(
                    BGPUpdate(ts, self.config.name, peer, UpdateKind.WITHDRAW, prefix)
                )
                updates.append(
                    BGPUpdate(
                        min(end, ts + rng.uniform(5.0, 60.0)),
                        self.config.name,
                        peer,
                        UpdateKind.ANNOUNCE,
                        prefix,
                        path,
                    )
                )
            else:
                updates.append(
                    BGPUpdate(ts, self.config.name, peer, UpdateKind.ANNOUNCE, prefix, path)
                )
        return updates

    def _incident_burst(
        self,
        rng: random.Random,
        onset: float,
        failed_links: set[str],
        window_end: float,
    ) -> list[BGPUpdate]:
        """Re-convergence burst after the given link set dies.

        Rides the incremental route machinery: the post-failure table comes
        from :meth:`routes_under` (per-origin repair, memoized), not a
        from-scratch SPF sweep per burst — which is what keeps repeated
        forensic queries over the same incident cheap.
        """
        dead_pairs = self._dead_pairs(frozenset(failed_links))
        if not dead_pairs:
            return []
        after = self.routes_under(frozenset(failed_links))
        baseline = self.routes_under(frozenset())

        updates: list[BGPUpdate] = []
        for (peer, prefix), old_path in sorted(baseline.items()):
            if not path_crosses(old_path, dead_pairs):
                continue
            new_path = after.get((peer, prefix))
            ts = min(window_end, onset + rng.uniform(1.0, self.config.convergence_window_s))
            if new_path is None:
                updates.append(
                    BGPUpdate(ts, self.config.name, peer, UpdateKind.WITHDRAW, prefix)
                )
                continue
            if rng.random() < self.config.exploration_prob and len(new_path) >= 2:
                # Path exploration: briefly announce a detour one hop longer.
                explore_ts = min(window_end, onset + rng.uniform(1.0, 60.0))
                padded = new_path[:1] + new_path[1:2] + new_path[1:]
                updates.append(
                    BGPUpdate(
                        explore_ts,
                        self.config.name,
                        peer,
                        UpdateKind.ANNOUNCE,
                        prefix,
                        padded,
                    )
                )
            updates.append(
                BGPUpdate(ts, self.config.name, peer, UpdateKind.ANNOUNCE, prefix, new_path)
            )
        return updates


def shared_collector(
    world: SyntheticWorld, config: CollectorConfig | None = None
) -> BGPCollectorSim:
    """One collector per (world, config), memoized on the world object.

    The registry-facing BGP functions run once per served query; sharing the
    collector means its graph, vantage points and — critically — the
    incremental route cache survive across queries, so repeated forensic
    questions about the same incident skip re-convergence entirely.  Safe
    across worker threads: the route cache is lock-guarded, and everything
    else is immutable after construction.
    """
    cfg = config or CollectorConfig()
    with _SHARED_COLLECTOR_LOCK:
        cache = world.memo("collectors", dict)
        sim = cache.get(cfg)
        if sim is None:
            sim = cache[cfg] = BGPCollectorSim(world, cfg)
    return sim


_SHARED_COLLECTOR_LOCK = threading.Lock()
