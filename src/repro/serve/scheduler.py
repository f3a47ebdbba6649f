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
        self._pushed = 0
        self._rejected = 0
        self._popped = 0
        self._per_shard: dict[str, int] = {}
        self._pushed_by_priority: dict[int, int] = {}
        self._queued_by_priority: dict[int, int] = {}
        #: Pops that serviced a band while lower-priority work was queued —
        #: how often the priority path actually jumped a queue.
        self._preemptions = 0
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._depth_gauge = self._metrics.gauge("scheduler_queue_depth")
        self._pushed_counter = self._metrics.counter("scheduler_pushed_total")
        # Per-band wait histograms are created lazily on first pop of a band.
        self._wait_hist: dict[int, Any] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def push(self, item: Any, priority: int = 0, shard: str = "default") -> None:
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed to new work")
            if self.max_depth is not None and len(self._heap) >= self.max_depth:
                self._rejected += 1
                raise SchedulerSaturated(
                    f"scheduler queue is at max depth {self.max_depth}"
                )
            heapq.heappush(
                self._heap,
                (-priority, next(self._seq), shard, time.time(), item),
            )
            self._pushed += 1
            self._per_shard[shard] = self._per_shard.get(shard, 0) + 1
            self._pushed_by_priority[priority] = (
                self._pushed_by_priority.get(priority, 0) + 1
            )
            self._queued_by_priority[priority] = (
                self._queued_by_priority.get(priority, 0) + 1
            )
            self._depth_gauge.set(len(self._heap))
            self._cond.notify()
        self._pushed_counter.inc()

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
            self._popped += 1
            self._per_shard[shard] -= 1
            priority = -neg_priority
            self._queued_by_priority[priority] -= 1
            if any(count and band < priority
                   for band, count in self._queued_by_priority.items()):
                self._preemptions += 1
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

    def stats(self) -> dict:
        with self._cond:
            return {
                "queued": len(self._heap),
                "pushed": self._pushed,
                "popped": self._popped,
                "rejected": self._rejected,
                "max_depth": self.max_depth,
                "closed": self._closed,
                "per_shard_queued": {
                    k: v for k, v in sorted(self._per_shard.items()) if v
                },
                "pushed_by_priority": dict(sorted(self._pushed_by_priority.items())),
                "queued_by_priority": {
                    k: v for k, v in sorted(self._queued_by_priority.items()) if v
                },
                "preemptions": self._preemptions,
            }
