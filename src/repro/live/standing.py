"""Standing queries: continuous measurement questions over an evolving world.

A standing query is registered once and re-evaluated on epoch boundaries.
Its semantics are deliberately *configuration-bound*: the answer is a pure
function of (query text, params, the epoch's world configuration), where
the configuration is summarized by the epoch fingerprint from
:class:`~repro.live.clock.WorldTimeline`.  That purity is what makes the
economics work — the manager keys finished answers in the broker's
:class:`~repro.serve.cache.ArtifactCache` under the ``standing`` stage, so
an epoch in which the world did not change (same fingerprint) is served
from cache without touching the scheduler, and a replay of a whole timeline
against a warm (or spilled-and-reloaded) cache resubmits nothing at all.
Only epochs where the world actually changed reach the worker pool.

Deregistration cancels any still-queued tickets through
:meth:`QueryBroker.cancel` rather than letting orphaned jobs burn workers.

Epoch shards are *retained*, not hoarded: each distinct changed-world
configuration materializes one broker world shard, and a long timeline
over a rich disaster catalog would otherwise grow that population without
bound.  The :class:`EpochShardPool` keeps an LRU of at most
``max_epoch_shards`` evolved shards, evicting the least recently used idle
shard (and its backend payload templates, via
:meth:`QueryBroker.remove_world`) when a new configuration appears; a
re-encountered fingerprint simply rebuilds.  The pool is shared
infrastructure: the standing-query manager and the forensic trigger plane
(see :mod:`repro.live.forensics`) materialize shards through the same
pool, so their combined population stays bounded and a shard whose
fingerprint both planes need is built once.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.live.clock import EpochState
from repro.serve.broker import DEFAULT_WORLD_KEY, JobState, QueryBroker
from repro.synth.scenarios import make_latency_incident

#: ArtifactCache stage name for standing-query results; its hit/miss
#: counters surface in ``broker.stats()["cache"]["per_stage"]["standing"]``.
STANDING_STAGE = "standing"


class EpochShardPool:
    """LRU retention of evolved-world broker shards, shared across planes.

    A shard materializes one failed-cable configuration: the base world
    plus one ambient :class:`LatencyIncident` per failed cable, so a
    pipeline served against it genuinely *observes* the evolved world —
    a forensic query recovers the cut cable from its telemetry signature,
    and the same query over a healed configuration finds nothing.  Keys
    are ``{base}@{fingerprint}``; an empty cable set is the base shard
    itself (never tracked, never evicted).

    Shards with pinned (in-flight) jobs are skipped during eviction;
    callers :meth:`pin` a key per outstanding submission and
    :meth:`unpin` it when the result is collected.
    """

    def __init__(self, broker: QueryBroker, max_epoch_shards: int = 8):
        if max_epoch_shards < 1:
            raise ValueError("max_epoch_shards must be >= 1")
        self.broker = broker
        self.max_epoch_shards = max_epoch_shards
        self._lru: OrderedDict[str, None] = OrderedDict()
        self._pins: Counter[str] = Counter()
        self.shards_evicted = 0

    def __len__(self) -> int:
        return len(self._lru)

    def materialize(self, base_key: str, fingerprint: str,
                    cable_ids: Iterable[str]) -> str:
        """The shard key for one configuration, building it on first sight
        (LRU-evicting an idle shard when the pool is full)."""
        cable_ids = tuple(cable_ids)
        if not cable_ids:
            return base_key  # unchanged world: the base shard already is it
        key = f"{base_key}@{fingerprint}"
        if key not in self.broker.world_keys():
            self._evict(keep=key)
            base = self.broker.shard(base_key).world
            incidents = [
                make_latency_incident(base, base.cables[cable_id].name)
                for cable_id in cable_ids
                if cable_id in base.cables
            ]
            self.broker.add_world(key, base, incidents=incidents)
        self._lru[key] = None
        self._lru.move_to_end(key)
        return key

    def pin(self, key: str) -> None:
        """Mark one in-flight job against ``key`` (no-op for base shards)."""
        if key in self._lru:
            self._pins[key] += 1

    def unpin(self, key: str) -> None:
        if self._pins.get(key):
            self._pins[key] -= 1
            if not self._pins[key]:
                del self._pins[key]

    def _evict(self, keep: str) -> None:
        """Make room for one more epoch shard, LRU-first.

        Pinned shards are skipped (removing them would fail those jobs
        mid-flight); they age out on a later pass once unpinned.
        """
        while len(self._lru) >= self.max_epoch_shards:
            victim = next(
                (k for k in self._lru if k != keep and not self._pins.get(k)),
                None,
            )
            if victim is None:
                return  # everything old is busy; retention overshoots briefly
            del self._lru[victim]
            try:
                self.broker.remove_world(victim)
            except Exception:
                # A job raced in between the pin check and removal; keep
                # the shard registered and try again on the next epoch.
                self._lru[victim] = None
                self._lru.move_to_end(victim, last=False)
                return
            self.shards_evicted += 1

    def stats(self) -> dict:
        return {
            "epoch_shards": len(self._lru),
            "max_epoch_shards": self.max_epoch_shards,
            "shards_evicted": self.shards_evicted,
            "pinned": sum(1 for c in self._pins.values() if c),
        }


@dataclass(frozen=True)
class StandingQuery:
    """One registered continuous query."""

    name: str
    query: str
    params: tuple[tuple[str, object], ...] = ()
    priority: int = 0
    world_key: str = DEFAULT_WORLD_KEY
    #: Evaluate every Nth epoch (1 = every epoch).
    every_n_epochs: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("standing query needs a name")
        if not self.query or not self.query.strip():
            raise ValueError("standing query needs a query")
        if self.every_n_epochs < 1:
            raise ValueError("every_n_epochs must be >= 1")

    def params_dict(self) -> dict:
        return dict(self.params)

    def due(self, epoch_index: int) -> bool:
        return epoch_index % self.every_n_epochs == 0


@dataclass
class StandingResult:
    """The outcome of one standing query at one epoch."""

    name: str
    epoch: int
    fingerprint: str
    from_cache: bool
    state: str
    final: dict | None = None
    error: str = ""
    ticket: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "from_cache": self.from_cache,
            "state": self.state,
            "final": self.final,
            "error": self.error,
            "ticket": self.ticket,
        }


@dataclass
class _Pending:
    sq: StandingQuery
    epoch: EpochState
    material: dict
    ticket: str
    world_key: str


class StandingQueryManager:
    """Re-evaluates registered queries on epoch boundaries via the broker."""

    def __init__(self, broker: QueryBroker, max_epoch_shards: int | None = None,
                 pool: EpochShardPool | None = None):
        self.broker = broker
        if pool is not None and max_epoch_shards is not None:
            raise ValueError(
                "pass max_epoch_shards or a shared pool, not both — a shared "
                "pool already carries its own retention bound"
            )
        #: Evolved-world shard retention, possibly shared with other planes
        #: (the forensic trigger); built here when not handed in.  Explicit
        #: None check: an empty pool is falsy (it has __len__).
        self.pool = pool if pool is not None else EpochShardPool(
            broker, 8 if max_epoch_shards is None else max_epoch_shards
        )
        self._queries: dict[str, StandingQuery] = {}
        self._pending: list[_Pending] = []
        self._delta_stream = None
        self.evaluations = 0
        self.cache_hits = 0
        self.submitted = 0
        self.cancelled = 0

    # -- route-delta consumption -------------------------------------------

    def attach_delta_stream(self, stream) -> None:
        """Ride the live plane's cross-epoch route-delta cursor.

        Standing answers are keyed by epoch fingerprint, so the manager
        never diffs route tables itself; attaching the
        :class:`~repro.bgp.collector.RouteDeltaStream` the BGP feed
        advances lets :meth:`stats` report how much routing state actually
        moved per epoch (changed rows, bytes) instead of the full-table
        sizes a naive consumer would compare.
        """
        self._delta_stream = stream

    # -- registration -------------------------------------------------------

    def _journal(self, kind: str, record: dict) -> None:
        """Mirror a registration change into the broker's WAL (when one is
        configured) so a restarted broker can list the standing queries
        that were live when it died."""
        journal = getattr(self.broker, "journal", None)
        if journal is None:
            return
        journal.append(kind, record, sync=False)

    def register(self, sq: StandingQuery) -> StandingQuery:
        if sq.name in self._queries:
            raise ValueError(f"standing query {sq.name!r} already registered")
        self._queries[sq.name] = sq
        self._journal("standing_register", {
            "name": sq.name,
            "query": sq.query,
            "params": sq.params_dict(),
            "priority": sq.priority,
            "world_key": sq.world_key,
            "every_n_epochs": sq.every_n_epochs,
        })
        return sq

    def deregister(self, name: str) -> int:
        """Remove a query; cancels its still-queued tickets.  Returns how
        many in-flight submissions were cancelled."""
        if name in self._queries:
            self._journal("standing_deregister", {"name": name})
        self._queries.pop(name, None)
        cancelled = 0
        kept: list[_Pending] = []
        for pending in self._pending:
            if pending.sq.name != name:
                kept.append(pending)
                continue
            if self.broker.cancel(pending.ticket):
                cancelled += 1
            # Running/finished tickets are left to settle; nobody collects
            # them for a deregistered query, and the broker prunes them.
            self.pool.unpin(pending.world_key)
        self._pending = kept
        self.cancelled += cancelled
        return cancelled

    def restore_registrations(self) -> list[StandingQuery]:
        """Re-register every standing query the broker's journal recorded
        as live (registered, never deregistered) before a crash.  Already-
        registered names are left alone; nothing is re-journaled — the
        registrations being restored are the journal's own.  Returns the
        queries restored."""
        journal = getattr(self.broker, "journal", None)
        if journal is None:
            return []
        restored: list[StandingQuery] = []
        for name, rec in sorted(journal.state.standing.items()):
            if name in self._queries:
                continue
            sq = StandingQuery(
                name=rec["name"],
                query=rec["query"],
                params=tuple((rec.get("params") or {}).items()),
                priority=int(rec.get("priority", 0)),
                world_key=rec.get("world_key", DEFAULT_WORLD_KEY),
                every_n_epochs=int(rec.get("every_n_epochs", 1)),
            )
            self._queries[sq.name] = sq
            restored.append(sq)
        return restored

    def names(self) -> list[str]:
        return sorted(self._queries)

    # -- epoch stepping -----------------------------------------------------

    def _material(self, sq: StandingQuery, epoch: EpochState) -> dict:
        return {
            "query": sq.query,
            "params": sq.params_dict(),
            "world_key": sq.world_key,
            "epoch_fingerprint": epoch.fingerprint,
        }

    def on_epoch(self, epoch: EpochState) -> list[StandingResult]:
        """Evaluate every due query against this epoch's configuration.

        Cache hits resolve immediately; misses are submitted to the broker
        and returned by the matching :meth:`collect` call.
        """
        cache = self.broker.cache
        served: list[StandingResult] = []
        for sq in sorted(self._queries.values(), key=lambda q: q.name):
            if not sq.due(epoch.index):
                continue
            self.evaluations += 1
            material = self._material(sq, epoch)
            if cache is not None:
                payload = cache.fetch(STANDING_STAGE, material)
                if payload is not None:
                    self.cache_hits += 1
                    served.append(StandingResult(
                        name=sq.name,
                        epoch=epoch.index,
                        fingerprint=epoch.fingerprint,
                        from_cache=True,
                        state=payload["state"],
                        final=payload.get("final"),
                    ))
                    continue
            world_key = self.pool.materialize(
                sq.world_key, epoch.fingerprint, epoch.failed_cable_ids
            )
            ticket = self.broker.submit(
                sq.query,
                params=sq.params_dict() or None,
                priority=sq.priority,
                world_key=world_key,
            )
            self.pool.pin(world_key)
            self.submitted += 1
            self._pending.append(_Pending(sq, epoch, material, ticket, world_key))
        return served

    def collect(self, timeout: float | None = None) -> list[StandingResult]:
        """Wait for every outstanding submission and cache finished answers.

        Only successful results are cached — a transient failure should be
        recomputed next epoch, not replayed from cache forever.
        """
        results: list[StandingResult] = []
        pending, self._pending = self._pending, []
        for item in pending:
            job = self.broker.wait(item.ticket, timeout)
            self.pool.unpin(item.world_key)
            final = None
            if job.state is JobState.DONE:
                outputs = job.result.execution.outputs
                final = outputs.get("final") if isinstance(outputs, dict) else None
                if self.broker.cache is not None:
                    self.broker.cache.store(
                        STANDING_STAGE,
                        item.material,
                        {"state": job.state.value, "final": final},
                    )
            results.append(StandingResult(
                name=item.sq.name,
                epoch=item.epoch.index,
                fingerprint=item.epoch.fingerprint,
                from_cache=False,
                state=job.state.value,
                final=final,
                error=job.error,
                ticket=item.ticket,
            ))
        return results

    def stats(self) -> dict:
        out = {
            "registered": len(self._queries),
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "submitted": self.submitted,
            "cancelled": self.cancelled,
            "epoch_shards": len(self.pool),
            "max_epoch_shards": self.pool.max_epoch_shards,
            "shards_evicted": self.pool.shards_evicted,
            "outstanding": len(self._pending),
            "hit_rate": self.cache_hits / self.evaluations if self.evaluations else 0.0,
        }
        if self._delta_stream is not None:
            out["route_delta"] = self._delta_stream.stats()
        return out
