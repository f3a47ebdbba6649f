"""Cross-process tracing: spans from broker submit to worker stage.

A trace is born at ``QueryBroker.submit`` as a :class:`TraceContext` —
``(trace_id, span_id, parent_id)`` — and threaded through everything the
job touches.  The context is a small frozen dataclass, so it pickles
across the process boundary inside the job row / :class:`JobPayload`;
spans recorded worker-side come back as plain dicts through the existing
per-worker reply pipes and are re-absorbed broker-side with
:meth:`Tracer.ingest`.  Timestamps are wall-clock (``time.time``) so
spans from different processes land on one comparable axis.

Design points:

* **Spans are records, not objects, once finished** — a completed span is
  one dict in a bounded list; export walks the list, nothing holds object
  graphs alive.
* **The disabled path is free-ish** — :data:`NULL_TRACER` answers every
  call with the shared :data:`NULL_SPAN`; no ids, no clock reads, no
  allocation beyond the call itself.  Code guards f-string/arg building
  with ``tracer.enabled`` where even that matters.
* **Export is Chrome trace-event JSON** (``ph: "X"`` complete events,
  microsecond units) via :class:`TraceSink` — load the file at
  https://ui.perfetto.dev and the broker and each worker process appear
  as separate tracks with nested spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass

_SPAN_SEQ = itertools.count(1)


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _new_span_id() -> str:
    # Unique across processes: the pid disambiguates forked workers, the
    # per-process counter disambiguates within one (children inherit the
    # counter value, but never the parent's pid).
    return f"{os.getpid():x}-{next(_SPAN_SEQ)}"


@dataclass(frozen=True)
class TraceContext:
    """The identity a span hands to its children — picklable, hashable."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child_of(self) -> "TraceContext":
        """A fresh context parented under this span."""
        return TraceContext(self.trace_id, _new_span_id(), self.span_id)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, row: dict) -> "TraceContext":
        return cls(trace_id=row["trace_id"], span_id=row["span_id"],
                   parent_id=row.get("parent_id"))


class Span:
    """One in-flight span; records itself into its tracer on :meth:`end`.

    Usable as a context manager.  ``end`` is idempotent — broker code
    settles jobs from several paths (normal, cancel, world-removed) and
    must be able to close defensively.
    """

    __slots__ = ("_tracer", "name", "cat", "context", "start_ts", "args", "_ended")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 context: TraceContext, start_ts: float, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.context = context
        self.start_ts = start_ts
        self.args = args
        self._ended = False

    def annotate(self, **kwargs) -> "Span":
        self.args.update(kwargs)
        return self

    def end(self, end_ts: float | None = None) -> None:
        if self._ended:
            return
        self._ended = True
        now = end_ts if end_ts is not None else self._tracer.now()
        self._tracer._record({
            "name": self.name,
            "cat": self.cat,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "ts": self.start_ts,
            "dur": max(0.0, now - self.start_ts),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "proc": self._tracer.label,
            "args": self.args,
        })

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.end()


class _NullSpan:
    """The shared no-op span: ``context`` is ``None``, every method a pass."""

    __slots__ = ()
    context = None
    name = ""
    args: dict = {}

    def annotate(self, **kwargs) -> "_NullSpan":
        return self

    def end(self, end_ts: float | None = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


def _parent_context(parent) -> TraceContext | None:
    """Accept a ``Span``, a ``TraceContext``, a serialized dict, or ``None``."""
    if parent is None:
        return None
    if isinstance(parent, TraceContext):
        return parent
    if isinstance(parent, dict):
        return TraceContext.from_dict(parent)
    return parent.context  # Span or _NullSpan (whose context is None)


class Tracer:
    """Thread-safe span collector for one process.

    ``label`` names this process's track in the export ("broker",
    "worker", …).  The record list is bounded: beyond ``max_spans`` new
    records are dropped and counted, never grown without limit — a
    long-running broker with tracing left on degrades, it does not OOM.
    """

    enabled = True

    def __init__(self, label: str | None = None, max_spans: int = 200_000,
                 clock=time.time):
        self.label = label or f"pid-{os.getpid()}"
        self.max_spans = max_spans
        self._clock = clock
        self._records: list[dict] = []
        self._dropped = 0
        self._lock = threading.Lock()
        self._listeners: list = []

    def now(self) -> float:
        return self._clock()

    # -- span creation -----------------------------------------------------

    def start_span(self, name: str, parent=None, cat: str = "app",
                   trace_id: str | None = None, **args) -> Span:
        """Open a span; ``parent`` may be a Span, TraceContext, dict or None.

        With no parent a new trace begins (``trace_id`` overrides the
        generated one — detectors use this to mint one trace per alert).
        """
        ctx = _parent_context(parent)
        if ctx is not None:
            context = ctx.child_of()
        else:
            context = TraceContext(trace_id or _new_trace_id(), _new_span_id())
        return Span(self, name, cat, context, self.now(), args)

    #: ``with tracer.span(...) as s:`` reads better at call sites.
    span = start_span

    def add_span(self, name: str, parent=None, cat: str = "app",
                 duration_s: float = 0.0, end_ts: float | None = None,
                 trace_id: str | None = None, **args) -> TraceContext:
        """Record an already-finished span (start back-dated by
        ``duration_s`` from ``end_ts``/now); returns its context so later
        spans can parent under it."""
        end = end_ts if end_ts is not None else self.now()
        span = self.start_span(name, parent=parent, cat=cat,
                               trace_id=trace_id, **args)
        span.start_ts = end - max(0.0, duration_s)
        span.end(end_ts=end)
        return span.context

    # -- record plumbing ---------------------------------------------------

    def add_listener(self, fn) -> None:
        """``fn(rows)`` is called with every batch of records this tracer
        keeps — locally recorded spans and cross-process ``ingest`` batches
        alike.  The flight recorder rides this to tee spans into its ring.
        Listeners run outside the tracer lock and must not raise."""
        with self._lock:
            self._listeners.append(fn)

    def _notify(self, rows: list[dict]) -> None:
        if not rows:
            return
        with self._lock:
            listeners = list(self._listeners)
        for fn in listeners:
            try:
                fn(rows)
            except Exception:
                pass

    def _record(self, row: dict) -> None:
        with self._lock:
            if len(self._records) >= self.max_spans:
                self._dropped += 1
                return
            self._records.append(row)
            notify = bool(self._listeners)
        if notify:
            self._notify([row])

    def ingest(self, rows: list[dict]) -> int:
        """Absorb span records produced by another process (reply-pipe
        payloads from workers); returns how many were kept."""
        kept_rows = []
        with self._lock:
            for row in rows:
                if len(self._records) >= self.max_spans:
                    self._dropped += 1
                    continue
                self._records.append(row)
                kept_rows.append(row)
        self._notify(kept_rows)
        return len(kept_rows)

    def drain(self) -> list[dict]:
        """All records so far, clearing the buffer (workers ship per job)."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def records(self, trace_id: str | None = None) -> list[dict]:
        with self._lock:
            rows = list(self._records)
        if trace_id is not None:
            rows = [r for r in rows if r["trace_id"] == trace_id]
        return rows

    def trace_ids(self) -> list[str]:
        with self._lock:
            return sorted({r["trace_id"] for r in self._records})

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": True,
                "label": self.label,
                "spans": len(self._records),
                "dropped": self._dropped,
                "max_spans": self.max_spans,
            }


class NullTracer:
    """The disabled fast path: every call answers without allocating.

    ``enabled`` is ``False`` so hot paths can skip even argument
    construction; everything else mirrors :class:`Tracer` so call sites
    never branch on tracer type.
    """

    enabled = False
    label = "null"

    def now(self) -> float:  # pragma: no cover - nothing times against it
        return 0.0

    def add_listener(self, fn) -> None:
        pass

    def start_span(self, name, parent=None, cat="app", trace_id=None, **args):
        return NULL_SPAN

    span = start_span

    def add_span(self, name, parent=None, cat="app", duration_s=0.0,
                 end_ts=None, trace_id=None, **args):
        return None

    def ingest(self, rows) -> int:
        return 0

    def drain(self) -> list:
        return []

    def records(self, trace_id=None) -> list:
        return []

    def trace_ids(self) -> list:
        return []

    def stats(self) -> dict:
        return {"enabled": False, "spans": 0, "dropped": 0}


NULL_TRACER = NullTracer()


def resolve_tracer(tracer) -> Tracer | NullTracer:
    """``tracer`` or the null singleton — the one-liner every constructor
    that takes an optional tracer uses."""
    return tracer if tracer is not None else NULL_TRACER


class TraceSink:
    """Formats span records as Chrome trace-event JSON and writes them.

    The output is the "JSON Array Format" document Perfetto and
    ``chrome://tracing`` load directly: one ``ph: "X"`` (complete) event
    per span with microsecond ``ts``/``dur``, plus ``ph: "M"`` metadata
    events naming each process track.  Trace identity travels in
    ``args`` (``trace_id``/``span_id``/``parent_id``) so a served job's
    ``trace_id`` greps straight into the file.
    """

    def __init__(self, path: str | None = None):
        self.path = path

    @staticmethod
    def to_chrome(records: list[dict]) -> dict:
        events = []
        proc_labels: dict[int, str] = {}
        for row in records:
            proc_labels.setdefault(row["pid"], row.get("proc") or f"pid-{row['pid']}")
            events.append({
                "name": row["name"],
                "cat": row["cat"],
                "ph": "X",
                # Perfetto wants integers; floor of 1us keeps instantaneous
                # spans (cache-hit stages, alerts) visible instead of zero-width.
                "ts": int(row["ts"] * 1e6),
                "dur": max(1, int(row["dur"] * 1e6)),
                "pid": row["pid"],
                "tid": row["tid"],
                "args": {
                    **row["args"],
                    "trace_id": row["trace_id"],
                    "span_id": row["span_id"],
                    "parent_id": row["parent_id"],
                },
            })
        events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
        meta = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}}
            for pid, label in sorted(proc_labels.items())
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, records: list[dict], path: str | None = None) -> str:
        target = path or self.path
        if not target:
            raise ValueError("TraceSink needs a path to write to")
        document = self.to_chrome(records)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return target
