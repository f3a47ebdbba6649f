"""The SLO engine: the system consuming its own metrics.

PR 6 gave every layer counters and spans; this module is the first
*consumer* of them.  A :class:`SloEngine` samples the
:class:`~repro.obs.metrics.MetricsRegistry` on every :meth:`evaluate`
call (the live driver calls it once per epoch; the introspection httpd
calls it on every ``/healthz`` request) and keeps a bounded sliding
window of those samples.  Each declarative :class:`SloSpec` is then
evaluated over *two* windows — the classic multi-window burn-rate rule:
an objective is breached only when it is violated over both the short
window (the breach is happening *now*) and the long window (it is not a
one-sample blip), which is what keeps a page-severity SLO from flapping
on transient spikes.

Breach and recovery transitions publish structured events on the
``health`` EventBus topic (:data:`HEALTH_TOPIC`), so the detector and
forensic machinery can consume the system's *own* incidents the same way
they consume telemetry; page-severity breaches additionally trigger a
:class:`~repro.obs.flight.FlightRecorder` postmortem dump.

Spec kinds (``metric`` names a registry sample; matching samples whose
labels are a superset of ``labels`` are summed, so ``metric="bus_dropped_
total"`` with no labels aggregates every topic):

* ``gauge`` — mean of the gauge's sampled values over the window;
* ``rate`` — counter delta over the window divided by the window's span
  (events per second);
* ``ratio`` — counter delta of ``metric`` over counter delta of
  ``total_metric`` (e.g. failed jobs / finished jobs).  ``objective`` is
  the error budget; the effective threshold is ``objective * burn_rate``;
* ``percentile`` — the requested percentile estimated from a histogram's
  cumulative-bucket deltas over the window (upper-bound estimate, the
  same shape ``histogram_quantile`` gives).

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of the repository — the bus and flight recorder are duck-typed.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass

#: EventBus topic SLO breach/recovery events are published on.
HEALTH_TOPIC = "health"

#: Severities a spec may declare.  ``page`` breaches trigger a flight dump.
SEVERITIES = ("ticket", "page")

_KINDS = ("gauge", "rate", "ratio", "percentile")

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_sample_key(key: str) -> tuple[str, dict]:
    """Split a rendered sample key (``name{k="v",...}``) back into
    ``(name, labels)``; label values are unescaped."""
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    labels = {
        k: v.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        for k, v in _LABEL_RE.findall(rest)
    }
    return name, labels


def _matches(key: str, name: str, labels: dict | None) -> bool:
    sample_name, sample_labels = _parse_sample_key(key)
    if sample_name != name:
        return False
    if not labels:
        return True
    return all(sample_labels.get(k) == str(v) for k, v in labels.items())


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    ``comparison`` states what *healthy* looks like: ``"<="`` means the
    measured value must stay at or below ``objective`` (latencies, error
    ratios), ``">="`` means at or above it (hit rates).
    """

    name: str
    metric: str
    objective: float
    kind: str = "gauge"
    comparison: str = "<="
    labels: dict | None = None
    #: Denominator for ``kind="ratio"`` (labels via ``total_labels``).
    total_metric: str | None = None
    total_labels: dict | None = None
    percentile: float = 0.95
    #: (short, long) sliding windows in seconds; a breach must hold in both.
    windows_s: tuple = (30.0, 120.0)
    #: Multiplier on the error budget for ``ratio`` specs — the burn-rate
    #: threshold: breach when the measured ratio exceeds
    #: ``objective * burn_rate`` in both windows.
    burn_rate: float = 1.0
    severity: str = "ticket"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; expected {_KINDS}")
        if self.comparison not in ("<=", ">="):
            raise ValueError("comparison must be '<=' or '>='")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")
        if self.kind == "ratio" and not self.total_metric:
            raise ValueError("ratio specs need a total_metric denominator")
        if len(self.windows_s) != 2 or self.windows_s[0] > self.windows_s[1]:
            raise ValueError("windows_s must be (short, long) with short <= long")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "objective": self.objective,
            "kind": self.kind,
            "comparison": self.comparison,
            "labels": dict(self.labels) if self.labels else None,
            "total_metric": self.total_metric,
            "total_labels": dict(self.total_labels) if self.total_labels else None,
            "percentile": self.percentile,
            "windows_s": list(self.windows_s),
            "burn_rate": self.burn_rate,
            "severity": self.severity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "SloSpec":
        row = dict(row)
        if "windows_s" in row and row["windows_s"] is not None:
            row["windows_s"] = tuple(row["windows_s"])
        return cls(**{k: v for k, v in row.items() if v is not None or k in
                      ("labels", "total_metric", "total_labels")})


def load_slo_specs(path: str) -> list[SloSpec]:
    """Read specs from a JSON file: either a list of spec rows or an
    object with a ``"slos"`` list (the ``--slo-config`` flag)."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    rows = doc["slos"] if isinstance(doc, dict) else doc
    return [SloSpec.from_dict(row) for row in rows]


def default_slo_specs() -> list[SloSpec]:
    """The out-of-the-box objectives every replay/campaign is held to.

    Chosen so a healthy run never breaches: failure/crash budgets a clean
    run never spends, a queue-wait ceiling far above normal scheduling
    delay, and informational floors operators tighten via ``--slo-config``.
    """
    return [
        SloSpec(
            name="job_failure_ratio",
            metric="broker_jobs_finished_total",
            labels={"state": "failed"},
            total_metric="broker_jobs_finished_total",
            kind="ratio",
            objective=0.1,
            severity="page",
            description="failed jobs / finished jobs; a crash-looping worker "
                        "or broken pipeline burns this budget immediately",
        ),
        SloSpec(
            name="worker_crash_rate",
            metric="backend_respawns",
            total_metric="broker_jobs_finished_total",
            kind="ratio",
            objective=0.5,
            severity="page",
            description="worker-process respawns per finished job",
        ),
        SloSpec(
            name="queue_wait_p95_band0",
            metric="scheduler_queue_wait_seconds",
            labels={"band": "0"},
            kind="percentile",
            percentile=0.95,
            objective=5.0,
            severity="ticket",
            description="p95 scheduler queue wait for priority band 0",
        ),
        SloSpec(
            name="alert_verdict_latency_p95",
            metric="forensic_verdict_latency_seconds",
            kind="percentile",
            percentile=0.95,
            objective=60.0,
            severity="ticket",
            description="p95 alert-to-verdict latency of the forensic loop",
        ),
        SloSpec(
            name="warm_cache_hit_rate",
            metric="cache_hit_rate",
            labels={"scope": "broker"},
            kind="gauge",
            comparison=">=",
            objective=0.0,
            severity="ticket",
            description="broker artifact-cache hit rate floor (0.0 = "
                        "informational; raise it via --slo-config once warm)",
        ),
    ]


@dataclass
class SloStatus:
    """One spec's verdict over the current windows."""

    spec: SloSpec
    healthy: bool = True
    #: ``False`` while the windows hold too little data to judge (fewer
    #: than two samples, an empty histogram, a zero denominator).  No-data
    #: objectives are healthy — silence is not an incident.
    has_data: bool = False
    value_short: float | None = None
    value_long: float | None = None
    breached_since: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "healthy": self.healthy,
            "has_data": self.has_data,
            "kind": self.spec.kind,
            "severity": self.spec.severity,
            "objective": self.spec.objective,
            "comparison": self.spec.comparison,
            "value_short": self.value_short,
            "value_long": self.value_long,
            "windows_s": list(self.spec.windows_s),
            "breached_since": self.breached_since,
            "description": self.spec.description,
        }


class _Sample:
    """One registry snapshot flattened for window math."""

    __slots__ = ("ts", "series", "histograms")

    def __init__(self, ts: float, snapshot: dict):
        self.ts = ts
        # Counters and gauges share one numeric namespace: monotonic gauges
        # (backend_respawns) are legitimate rate/ratio numerators.
        self.series: dict[str, float] = {}
        self.series.update(snapshot.get("counters", {}))
        self.series.update(snapshot.get("gauges", {}))
        self.histograms: dict[str, dict] = snapshot.get("histograms", {})


class SloEngine:
    """Evaluates :class:`SloSpec` objectives over registry samples.

    Thread-safe: the live driver evaluates per epoch while the httpd
    evaluates per ``/healthz`` request.  ``bus`` (optional, duck-typed:
    needs ``publish(topic, dict)``) receives breach/recovery events;
    ``flight`` (optional) gets a postmortem dump on page-severity breaches.
    """

    def __init__(self, registry, specs: list[SloSpec] | None = None,
                 bus=None, flight=None, max_samples: int = 720,
                 clock=time.time):
        self.registry = registry
        self.specs = list(specs) if specs is not None else default_slo_specs()
        self.bus = bus
        self.flight = flight
        self._samples: deque[_Sample] = deque(maxlen=max_samples)
        self._statuses: dict[str, SloStatus] = {
            spec.name: SloStatus(spec=spec) for spec in self.specs
        }
        self._lock = threading.Lock()
        self._clock = clock
        self._evaluations = 0
        self._breaches = 0

    # -- window math -------------------------------------------------------

    def _window(self, now: float, window_s: float) -> tuple[_Sample, _Sample] | None:
        """(first, last) samples spanning at least ``window_s`` when the
        history allows it: the newest sample at or before ``now - window_s``,
        falling back to the oldest sample held."""
        if len(self._samples) < 2:
            return None
        cutoff = now - window_s
        first = self._samples[0]
        for sample in self._samples:
            if sample.ts <= cutoff:
                first = sample
            else:
                break
        last = self._samples[-1]
        if first is last:
            first = self._samples[0]
        return (first, last)

    @staticmethod
    def _sum_series(sample: _Sample, name: str, labels: dict | None) -> float:
        return sum(v for k, v in sample.series.items()
                   if _matches(k, name, labels))

    @staticmethod
    def _sum_buckets(sample: _Sample, name: str,
                     labels: dict | None) -> tuple[dict, int]:
        buckets: dict[str, int] = {}
        count = 0
        for key, snap in sample.histograms.items():
            if not _matches(key, name, labels):
                continue
            count += snap.get("count", 0)
            for bound, cumulative in snap.get("buckets", {}).items():
                buckets[bound] = buckets.get(bound, 0) + cumulative
        return buckets, count

    def _value(self, spec: SloSpec, now: float,
               window_s: float) -> float | None:
        """The spec's measured value over one window; ``None`` = no data."""
        span = self._window(now, window_s)
        if span is None:
            return None
        first, last = span
        if spec.kind == "gauge":
            cutoff = now - window_s
            values = [
                self._sum_series(s, spec.metric, spec.labels)
                for s in self._samples if s.ts >= cutoff
            ]
            if not values:
                values = [self._sum_series(last, spec.metric, spec.labels)]
            return sum(values) / len(values)
        if spec.kind == "rate":
            dt = last.ts - first.ts
            if dt <= 0:
                return None
            delta = (self._sum_series(last, spec.metric, spec.labels)
                     - self._sum_series(first, spec.metric, spec.labels))
            return max(0.0, delta) / dt
        if spec.kind == "ratio":
            num = (self._sum_series(last, spec.metric, spec.labels)
                   - self._sum_series(first, spec.metric, spec.labels))
            den = (self._sum_series(last, spec.total_metric, spec.total_labels)
                   - self._sum_series(first, spec.total_metric, spec.total_labels))
            if den <= 0:
                return None
            return max(0.0, num) / den
        # percentile: cumulative-bucket deltas over the window.
        first_buckets, first_count = self._sum_buckets(first, spec.metric,
                                                       spec.labels)
        last_buckets, last_count = self._sum_buckets(last, spec.metric,
                                                     spec.labels)
        total = last_count - first_count
        if total <= 0:
            return None
        target = spec.percentile * total
        bounds = sorted(
            (b for b in last_buckets if b != "+Inf"), key=float
        )
        for bound in bounds:
            delta = last_buckets[bound] - first_buckets.get(bound, 0)
            if delta >= target:
                return float(bound)
        return math.inf

    def _threshold(self, spec: SloSpec) -> float:
        if spec.kind == "ratio":
            return spec.objective * spec.burn_rate
        return spec.objective

    def _violated(self, spec: SloSpec, value: float) -> bool:
        threshold = self._threshold(spec)
        if spec.comparison == "<=":
            return value > threshold
        return value < threshold

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[SloStatus]:
        """Sample the registry, slide the windows, judge every spec.

        Breach/recovery *transitions* publish on :data:`HEALTH_TOPIC` and
        count into ``slo_breaches_total``; a page-severity breach also
        dumps the flight recorder.  Returns the current statuses.
        """
        snapshot = self.registry.snapshot(refresh=True)
        events: list[dict] = []
        page_breaches: list[str] = []
        with self._lock:
            ts = now if now is not None else self._clock()
            self._samples.append(_Sample(ts, snapshot))
            self._evaluations += 1
            for spec in self.specs:
                status = self._statuses[spec.name]
                short = self._value(spec, ts, spec.windows_s[0])
                long = self._value(spec, ts, spec.windows_s[1])
                status.value_short = short
                status.value_long = long
                status.has_data = short is not None and long is not None
                breached = (
                    status.has_data
                    and self._violated(spec, short)
                    and self._violated(spec, long)
                )
                if breached and status.healthy:
                    status.healthy = False
                    status.breached_since = ts
                    self._breaches += 1
                    events.append(self._event("slo_breach", status, ts))
                    if spec.severity == "page":
                        page_breaches.append(spec.name)
                elif not breached and not status.healthy:
                    status.healthy = True
                    status.breached_since = None
                    events.append(self._event("slo_recovered", status, ts))
            statuses = list(self._statuses.values())
        for event in events:
            self.registry.counter(
                "slo_transitions_total",
                {"slo": event["slo"], "kind": event["kind"]},
            ).inc()
            if event["kind"] == "slo_breach":
                self.registry.counter(
                    "slo_breaches_total",
                    {"slo": event["slo"], "severity": event["severity"]},
                ).inc()
            if self.bus is not None:
                self.bus.publish(HEALTH_TOPIC, event)
        self.registry.gauge("slo_healthy").set(
            0.0 if any(not s.healthy for s in statuses) else 1.0
        )
        if page_breaches and self.flight is not None:
            self.flight.record("slo_page", {"slos": page_breaches})
            self.flight.dump("slo_page", extra={"slos": page_breaches})
        return statuses

    def _event(self, kind: str, status: SloStatus, ts: float) -> dict:
        spec = status.spec
        return {
            "kind": kind,
            "slo": spec.name,
            "severity": spec.severity,
            "metric": spec.metric,
            "objective": spec.objective,
            "threshold": self._threshold(spec),
            "value_short": status.value_short,
            "value_long": status.value_long,
            "windows_s": list(spec.windows_s),
            "ts": ts,
            "description": spec.description,
        }

    # -- verdicts ----------------------------------------------------------

    def healthy(self) -> bool:
        with self._lock:
            return all(s.healthy for s in self._statuses.values())

    def verdict(self) -> dict:
        """The aggregate answer ``/healthz`` serves: overall health plus
        per-SLO detail, from the most recent evaluation."""
        with self._lock:
            statuses = [s.to_dict() for s in self._statuses.values()]
            evaluations = self._evaluations
            breaches = self._breaches
        return {
            "healthy": all(s["healthy"] for s in statuses),
            "evaluations": evaluations,
            "breaches_total": breaches,
            "slos": statuses,
        }

    def stats(self) -> dict:
        with self._lock:
            return {
                "specs": len(self.specs),
                "samples": len(self._samples),
                "evaluations": self._evaluations,
                "breaches_total": self._breaches,
                "healthy": all(s.healthy for s in self._statuses.values()),
            }
