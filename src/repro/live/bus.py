"""In-process event bus with bounded per-subscriber queues.

Telemetry producers publish to named topics; each subscriber owns an
independent bounded deque, so one slow consumer can never block a producer
or another consumer — it just starts shedding its *own* oldest messages,
and the shed count is visible in :meth:`EventBus.stats`.  Every count is a
series of the bus's :class:`~repro.obs.MetricsRegistry` (a private one
when none is given), keyed by topic and subscriber name.  This is the
smallest honest model of the backpressure story a real streaming deployment
(Kafka consumer groups, NATS) has to tell.
"""

from __future__ import annotations

import itertools
import logging
import threading
from collections import deque

from repro.obs import MetricsRegistry

logger = logging.getLogger(__name__)


class Subscription:
    """One subscriber's bounded view of a topic."""

    def __init__(self, topic: str, name: str, maxlen: int,
                 metrics: MetricsRegistry | None = None):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.topic = topic
        self.name = name
        self.maxlen = maxlen
        self._queue: deque = deque()
        self._lock = threading.Lock()
        metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"topic": topic, "subscriber": name}
        self._received = metrics.counter("bus_received_total", labels)
        self._dropped = metrics.counter("bus_dropped_total", labels)
        self._warned = False

    @property
    def received(self) -> int:
        return int(self._received.value)

    @property
    def dropped(self) -> int:
        return int(self._dropped.value)

    def _offer(self, item) -> None:
        warn = False
        with self._lock:
            if len(self._queue) >= self.maxlen:
                self._queue.popleft()
                self._dropped.inc()
                # Warn once per subscriber: silent shedding hid real alert
                # loss; per-message logging would melt a hot topic instead.
                warn = not self._warned
                self._warned = True
            self._queue.append(item)
            self._received.inc()
        if warn:
            logger.warning(
                "bus subscriber %r on topic %r is full (maxlen=%d) and began "
                "dropping oldest messages; further drops are counted, not "
                "logged", self.name, self.topic, self.maxlen,
            )

    def pop(self):
        """Oldest pending message, or ``None`` when empty."""
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def drain(self) -> list:
        """All pending messages, oldest first."""
        with self._lock:
            items = list(self._queue)
            self._queue.clear()
        return items

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict:
        with self._lock:
            return {
                "topic": self.topic,
                "name": self.name,
                "pending": len(self._queue),
                "maxlen": self.maxlen,
                "received": self.received,
                "dropped": self.dropped,
            }


class EventBus:
    """Topic-based fan-out to bounded subscriber queues (thread-safe)."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._subs: dict[str, list[Subscription]] = {}
        self._lock = threading.Lock()
        self._names = itertools.count(1)
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    def subscribe(self, topic: str, name: str | None = None, maxlen: int = 256) -> Subscription:
        if not topic:
            raise ValueError("topic must be non-empty")
        sub = Subscription(topic, name or f"sub-{next(self._names)}", maxlen,
                           metrics=self._metrics)
        with self._lock:
            self._subs.setdefault(topic, []).append(sub)
        return sub

    def publish(self, topic: str, item) -> int:
        """Deliver to every subscriber of ``topic``; returns delivery count."""
        with self._lock:
            subs = list(self._subs.get(topic, []))
        self._metrics.counter("bus_published_total", {"topic": topic}).inc()
        for sub in subs:
            sub._offer(item)
        return len(subs)

    def stats(self) -> dict:
        with self._lock:
            subs = [s for group in self._subs.values() for s in group]
        published = self._metrics.values("bus_published_total")
        return {
            "published": {dict(pairs)["topic"]: int(value)
                          for pairs, value in published.items()},
            "subscribers": [s.stats() for s in subs],
            "dropped_total": sum(s.dropped for s in subs),
        }
