"""ArachNet Obs: unified tracing + metrics over both planes, stdlib-only.

One query's 2.6 seconds are spread across a broker thread (queue wait), a
claimer thread (dispatch), a worker *process* (pipeline stages) and — in
live mode — the detector and forensic planes that asked for it.  This
package is the single place all of that lands:

* :mod:`repro.obs.trace` — ``TraceContext`` ids created at
  ``QueryBroker.submit`` ride the job across threads and the process
  boundary; every layer contributes spans, and a :class:`TraceSink`
  exports the reassembled trace as Chrome trace-event JSON that Perfetto
  loads directly.  The :data:`NULL_TRACER` fast path makes the whole
  plane a few attribute checks when tracing is off.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and log-bucketed histograms absorbing the scattered stats dicts
  (scheduler depth, worker respawns, shm transport, cache economics,
  bus drops, forensic latency) behind one Prometheus-text dump.
* :mod:`repro.obs.health` — the :class:`SloEngine` *consumes* the
  registry: declarative :class:`SloSpec` objectives judged over sliding
  windows with multi-window burn-rate alerting, breaches published as
  structured events on the ``health`` bus topic.
* :mod:`repro.obs.flight` — the :class:`FlightRecorder` black box: a
  bounded ring of recent spans, bus events, heartbeats and stats that
  dumps an atomic JSON postmortem on crashes, respawns and page-severity
  SLO breaches.
* :mod:`repro.obs.httpd` — :class:`ObsServer`, the opt-in background
  HTTP thread (``--obs-port``) serving ``/metrics``, ``/healthz``,
  ``/debug/flight`` and ``/debug/broker`` live during a run.

The package imports nothing from the rest of the repository, so every
layer — ``core``, ``serve``, ``live`` — can depend on it without cycles;
the health/flight/httpd modules take the bus, broker and stat sources as
duck-typed objects for the same reason.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.health import (
    HEALTH_TOPIC,
    SloEngine,
    SloSpec,
    SloStatus,
    default_slo_specs,
    load_slo_specs,
)
from repro.obs.httpd import ObsServer
from repro.obs.metrics import (
    METRICS_TOPIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    TraceSink,
    resolve_tracer,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HEALTH_TOPIC",
    "Histogram",
    "METRICS_TOPIC",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "ObsServer",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "Span",
    "TraceContext",
    "TraceSink",
    "Tracer",
    "default_slo_specs",
    "load_slo_specs",
    "resolve_tracer",
]
