"""Priority + FIFO scheduling with per-world sharding.

The scheduler orders submitted jobs by ``(priority desc, arrival order)``
— a batch campaign can be drowned out by an interactive researcher asking
one urgent question, but within a priority band service stays first-come
first-served.

Sharding: every job belongs to a *world shard*.  A shard owns one
:class:`~repro.core.catalog.MeasurementContext` and the :class:`ArachNet`
system assembled over it, so all queries against the same
``SyntheticWorld`` share grounding context, registry and LLM backend —
the expensive objects are built once per world, never per query.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.core.pipeline import ArachNet
from repro.core.registry import Registry, default_registry
from repro.obs import MetricsRegistry
from repro.synth.world import SyntheticWorld


@dataclass
class WorldShard:
    """One measurement world and the serving system assembled over it.

    Carries no lock of its own: the shared ``ArachNet`` serializes registry
    evolution internally, and every other shard member is immutable or
    thread-safe.
    """

    key: str
    system: ArachNet

    @property
    def world(self) -> SyntheticWorld:
        return self.system.context.world

    @classmethod
    def build(
        cls,
        key: str,
        world: SyntheticWorld,
        incidents: list | None = None,
        registry: Registry | None = None,
        llm=None,
        cache=None,
        curate: bool = False,
    ) -> "WorldShard":
        """Assemble a shard; the registry is cloned so curator evolution in
        one shard never rewrites another shard's capability surface."""
        kwargs: dict = {"curate": curate, "cache": cache}
        if llm is not None:
            kwargs["llm"] = llm
        system = ArachNet.for_world(
            world,
            registry=(registry if registry is not None else default_registry()).clone(),
            incidents=incidents,
            **kwargs,
        )
        return cls(key=key, system=system)


class SchedulerClosed(RuntimeError):
    """Raised when pushing to a scheduler that has been closed."""


class SchedulerSaturated(RuntimeError):
    """Raised when pushing to a scheduler already at ``max_depth``."""


class PriorityScheduler:
    """Thread-safe priority queue with FIFO order inside each band.

    ``max_depth`` bounds admission: a push against a full queue raises
    :class:`SchedulerSaturated` instead of growing without limit, so
    producers that can defer (forensic triggers, standing queries) get an
    explicit backpressure signal rather than silently drowning the band.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 max_depth: int | None = None):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None for unbounded)")
        self.max_depth = max_depth
        self._heap: list[tuple[int, int, str, float, Any]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._closed = False
        self._per_shard: dict[str, int] = {}
        self._queued_by_priority: dict[int, int] = {}
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._depth_gauge = self._metrics.gauge("scheduler_queue_depth")
        self._pushed_counter = self._metrics.counter("scheduler_pushed_total")
        # Per-band wait histograms, created on a band's first pop; each pop
        # observes one, so their counts are the per-band pop totals.
        self._wait_hist: dict[int, Any] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def push(self, item: Any, priority: int = 0, shard: str = "default") -> None:
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed to new work")
            if self.max_depth is not None and len(self._heap) >= self.max_depth:
                self._metrics.counter("scheduler_rejected_total",
                                      {"band": str(priority)}).inc()
                raise SchedulerSaturated(
                    f"scheduler queue is at max depth {self.max_depth}"
                )
            heapq.heappush(
                self._heap,
                (-priority, next(self._seq), shard, time.time(), item),
            )
            self._per_shard[shard] = self._per_shard.get(shard, 0) + 1
            self._queued_by_priority[priority] = (
                self._queued_by_priority.get(priority, 0) + 1
            )
            self._depth_gauge.set(len(self._heap))
            self._pushed_counter.inc()
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> Any | None:
        """Next job by priority then arrival; ``None`` on timeout or when the
        scheduler is closed and drained."""
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None
            neg_priority, _, shard, enqueued, item = heapq.heappop(self._heap)
            priority = -neg_priority
            # Drained keys go: live epoch shards are keyed per world
            # fingerprint, so zero entries would pile up for ever.
            for counts, key in ((self._per_shard, shard),
                                (self._queued_by_priority, priority)):
                counts[key] -= 1
                if not counts[key]:
                    del counts[key]
            if any(band < priority for band in self._queued_by_priority):
                # The pop jumped lower-priority work still queued.
                self._metrics.counter("scheduler_preemptions_total").inc()
            self._depth_gauge.set(len(self._heap))
            hist = self._wait_hist.get(priority)
            if hist is None:
                hist = self._metrics.histogram(
                    "scheduler_queue_wait_seconds", {"band": str(priority)}
                )
                self._wait_hist[priority] = hist
            hist.observe(max(0.0, time.time() - enqueued))
            return item

    def close(self) -> None:
        """Refuse new work and wake every blocked consumer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def rejected_by_priority(self) -> dict[int, int]:
        """Saturation rejections per priority band."""
        return {int(dict(pairs)["band"]): int(value) for pairs, value
                in self._metrics.values("scheduler_rejected_total").items()}

    def stats(self) -> dict:
        with self._cond:
            popped = {band: hist.count
                      for band, hist in self._wait_hist.items()}
            pushed_by_priority = {
                band: popped.get(band, 0) + self._queued_by_priority.get(band, 0)
                for band in sorted(set(popped) | set(self._queued_by_priority))
            }
            return {
                "queued": len(self._heap),
                "pushed": int(self._pushed_counter.value),
                "popped": sum(popped.values()),
                "rejected": sum(self.rejected_by_priority().values()),
                "max_depth": self.max_depth,
                "closed": self._closed,
                "per_shard_queued": dict(sorted(self._per_shard.items())),
                "pushed_by_priority": pushed_by_priority,
                "queued_by_priority": dict(sorted(self._queued_by_priority.items())),
                "preemptions": int(self._metrics.total(
                    "scheduler_preemptions_total")),
            }
