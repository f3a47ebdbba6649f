"""One registry for every counter in the system.

Before this module the system's numbers lived in scattered ad-hoc dicts —
``broker.stats()``, ``backend.stats()["dispatch"]``, ``cache_info()``,
``bus.stats()`` — each with its own shape and no way to scrape them
together.  A :class:`MetricsRegistry` holds three instrument kinds:

* :class:`Counter` — monotonic totals (jobs submitted, bus drops);
* :class:`Gauge` — point-in-time levels (queue depth, hit rates);
* :class:`Histogram` — distributions over log-scale buckets (queue wait,
  forensic verdict latency) — powers of two from 1 ms, because service
  latencies spread over orders of magnitude and linear buckets waste
  resolution where nothing lives.

Two integration mechanisms keep instrumentation cheap where it must be:

* **Collectors** (:meth:`MetricsRegistry.register_collector`) are
  callbacks run at scrape time — the broker registers one that refreshes
  gauges from ``backend.stats()``/cache stats, so the hot paths keep
  their existing lock-local counters and the registry pays only on dump.
* **Delta draining** (:meth:`drain_deltas` / :meth:`absorb`) moves
  counter increments across the process boundary: worker processes drain
  their local registry after each job and the deltas ride the existing
  reply pipes back to the broker's registry — no extra IPC channel.

``prometheus_text()`` renders the whole registry in Prometheus text
exposition format (the ``--metrics-dump`` CLI flag); ``snapshot()`` is
the dict form published periodically on the :data:`METRICS_TOPIC` bus
topic in live mode.
"""

from __future__ import annotations

import bisect
import re
import threading

#: EventBus topic live mode publishes registry snapshots on, once per epoch.
METRICS_TOPIC = "metrics"

#: Log-scale latency buckets (seconds): 1ms · 2^k up to ~65s.
DEFAULT_LATENCY_BUCKETS = tuple(0.001 * (2 ** k) for k in range(17))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

LabelPairs = tuple  # tuple[tuple[str, str], ...] — sorted, hashable


def _label_pairs(labels: dict | None) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-exposition escaping: backslash, double-quote and
    newline must not appear raw inside a quoted label value."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def render_name(name: str, pairs: LabelPairs) -> str:
    """``name{k="v",...}`` — the Prometheus sample identity."""
    if not pairs:
        return name
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic float total; ``inc`` only."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_drained", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._drained = 0.0  # high-water mark of the last drain_deltas
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _delta(self) -> float:
        with self._lock:
            delta = self._value - self._drained
            self._drained = self._value
            return delta


class Gauge:
    """Point-in-time level; settable, inc/dec-able."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram (defaults to log-scale latency buckets)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, labels: LabelPairs = (),
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.labels = labels
        bounds = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        """Cumulative bucket counts keyed by upper bound, Prometheus-style."""
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cumulative: dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.bounds, counts):
            running += bucket_count
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = running + counts[-1]
        return {"count": count, "sum": total, "buckets": cumulative,
                "mean": (total / count) if count else 0.0}


class MetricsRegistry:
    """Thread-safe home for every instrument, plus scrape-time collectors."""

    def __init__(self):
        self._metrics: dict[tuple[str, LabelPairs], object] = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    # -- instrument access (get-or-create) ---------------------------------

    def _instrument(self, cls, name: str, labels: dict | None, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} is not Prometheus-safe "
                "([a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        pairs = _label_pairs(labels)
        key = (name, pairs)
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = cls(name, pairs, **kwargs)
                self._metrics[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, requested {cls.kind}"
                )
            return instrument

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, labels: dict | None = None,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._instrument(Histogram, name, labels, buckets=buckets)

    def _all(self) -> list:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    # -- collectors --------------------------------------------------------

    def register_collector(self, fn) -> None:
        """``fn(registry)`` runs at every scrape (snapshot/prometheus_text)
        to refresh gauges from live sources — Prometheus custom-collector
        style, so hot paths never pay for metrics nobody is reading."""
        with self._lock:
            self._collectors.append(fn)

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)

    # -- cross-process counter deltas --------------------------------------

    def drain_deltas(self) -> list[tuple]:
        """Counter increments since the last drain, as picklable rows
        ``(name, label_pairs, delta)`` — what worker processes ship back
        through the reply pipes after each job."""
        rows = []
        for instrument in self._all():
            if isinstance(instrument, Counter):
                delta = instrument._delta()
                if delta:
                    rows.append((instrument.name, instrument.labels, delta))
        return rows

    def absorb(self, rows: list[tuple]) -> None:
        """Fold another registry's drained deltas into this one."""
        for name, pairs, delta in rows:
            self.counter(name, dict(pairs)).inc(delta)

    # -- scraping ----------------------------------------------------------

    def snapshot(self, refresh: bool = True) -> dict:
        if refresh:
            self.collect()
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in self._all():
            key = render_name(instrument.name, instrument.labels)
            if isinstance(instrument, Counter):
                out["counters"][key] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][key] = instrument.value
            else:
                out["histograms"][key] = instrument.snapshot()
        return out

    def prometheus_text(self, refresh: bool = True) -> str:
        """The registry in Prometheus text exposition format."""
        if refresh:
            self.collect()
        lines: list[str] = []
        typed: set[str] = set()
        for instrument in self._all():
            if instrument.name not in typed:
                typed.add(instrument.name)
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(
                    f"{render_name(instrument.name, instrument.labels)} "
                    f"{instrument.value:g}"
                )
            else:
                snap = instrument.snapshot()
                for bound, cumulative in snap["buckets"].items():
                    pairs = instrument.labels + (("le", bound),)
                    lines.append(
                        f"{render_name(instrument.name + '_bucket', pairs)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{render_name(instrument.name + '_sum', instrument.labels)} "
                    f"{snap['sum']:g}"
                )
                lines.append(
                    f"{render_name(instrument.name + '_count', instrument.labels)} "
                    f"{snap['count']}"
                )
        return "\n".join(lines) + "\n"

    def stats(self) -> dict:
        with self._lock:
            return {"instruments": len(self._metrics),
                    "collectors": len(self._collectors)}
