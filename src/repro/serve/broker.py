"""QueryBroker: the serve subsystem's front door.

Submissions become tickets; a ticket's job moves queued → running →
done/failed while the caller polls ``status`` or blocks on ``wait``.  The
broker owns the moving parts — one :class:`PriorityScheduler`, one
:class:`WorkerPool`, one shared :class:`ArtifactCache`, one
:class:`ProvenanceLedger`, and a :class:`WorldShard` per registered world
— so callers only ever talk tickets and results.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.core.artifacts import PipelineResult
from repro.core.registry import Registry
from repro.obs import FlightRecorder, MetricsRegistry, Tracer, resolve_tracer
from repro.serve.backends import WorkerCrashed, build_backend, job_key
from repro.serve.cache import ArtifactCache
from repro.serve.journal import DeadLetterQueue, JournalState, WriteAheadJournal
from repro.serve.provenance import ProvenanceLedger
from repro.serve.recovery import RecoveryReport, ReplayedResult, recover
from repro.serve.scheduler import (
    PriorityScheduler,
    SchedulerClosed,
    SchedulerSaturated,
    WorldShard,
)
from repro.serve.workers import WorkerPool
from repro.synth.world import SyntheticWorld

DEFAULT_WORLD_KEY = "default"


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Terminal: the crash-loop circuit breaker sent this job to the
    #: dead-letter queue instead of letting it kill another worker.
    QUARANTINED = "quarantined"


@dataclass
class ServeConfig:
    """Tunables for one broker instance."""

    workers: int = 4
    #: Where job pipelines execute: ``"thread"`` runs them in the claiming
    #: worker thread (best when LLM latency dominates — threads overlap it);
    #: ``"process"`` ships picklable payloads to a preforked process pool
    #: (best when generated-code execution is CPU-bound and the GIL is the
    #: bottleneck).  See :mod:`repro.serve.backends`.
    backend: str = "thread"
    cache_enabled: bool = True
    max_cache_entries: int = 4096
    curate: bool = False  # registry evolution is opt-in while serving
    #: Finished jobs (and their ledger entries) beyond this bound are pruned
    #: oldest-first so a long-running broker cannot grow without limit.
    #: Size it above the largest campaign whose tickets are awaited at once.
    max_retained_jobs: int = 10_000
    #: Builds one LLM backend per shard; ``None`` keeps each system's default
    #: (the deterministic :class:`SimulatedLLM`).  With ``backend="process"``
    #: it must be picklable (e.g. ``functools.partial`` over a module-level
    #: class), since worker processes build their own instance.
    llm_factory: Callable[[], object] | None = None
    #: Record spans for every job (submit → queue wait → dispatch → worker
    #: stages).  Off by default: the disabled path is a shared
    #: :class:`~repro.obs.NullTracer` and costs nothing measurable.
    tracing: bool = False
    #: Run a :class:`~repro.obs.FlightRecorder` black box: crashes, retries
    #: and SIGKILL respawns dump an atomic JSON postmortem with the recent
    #: span/event ring, a registry snapshot, and this config.
    flight: bool = False
    #: Where flight dumps land; defaults to the current directory.  The live
    #: driver points it at ``--cache-dir`` so postmortems sit next to the
    #: artifact cache.
    flight_dir: str | None = None
    #: Directory for the write-ahead journal (see :mod:`repro.serve.journal`).
    #: ``None`` disables durability entirely — no journal, no recovery, no
    #: submit-level dedup.  With a directory set, the broker replays
    #: whatever the directory holds at construction and resumes: journaled
    #: completions re-join byte-identically on resubmission, journaled
    #: submissions without a completion are requeued at :meth:`start`.
    journal_dir: str | None = None
    #: fsync every durable journal append.  Disable only for benchmarks
    #: that want the framing without the disk round-trip.
    journal_fsync: bool = True
    journal_segment_bytes: int = 1_000_000
    #: Appends between checkpoint compactions (each checkpoint persists the
    #: reduced state and deletes the segments it covers).
    journal_checkpoint_every: int = 1000
    #: Per-job wall-clock deadline, enforced by the process backend's
    #: monitor plane (the worker is killed, the job fails with
    #: ``JobDeadlineExceeded``).  The thread backend cannot preempt a
    #: claiming thread and ignores it.  ``None`` disables deadlines.
    job_timeout_s: float | None = None
    #: Crash retries per submission before the job fails (each retry
    #: excludes the worker slots that already died on it).
    max_retries: int = 1
    #: Decorrelated-jitter backoff between crash retries: each delay is
    #: uniform(base, 3 * previous) capped at ``retry_backoff_cap_s``.
    #: Set the base to 0 to retry immediately (the pre-journal behaviour).
    retry_backoff_base_s: float = 0.05
    retry_backoff_cap_s: float = 1.0
    #: Worker deaths a single (world, query) signature may cause before the
    #: crash-loop circuit breaker quarantines it into the dead-letter
    #: queue.  0 disables the breaker.
    crash_loop_threshold: int = 3
    #: Scheduler depth beyond which submissions raise
    #: :class:`QueueSaturated` instead of queueing — explicit backpressure
    #: for producers that can defer (forensic triggers back off and
    #: re-enqueue).  ``None`` keeps the queue unbounded.
    max_queue_depth: int | None = None


@dataclass
class Job:
    """One submitted query and everything known about its progress."""

    ticket: str
    query: str
    params: dict | None
    priority: int
    world_key: str
    state: JobState = JobState.QUEUED
    result: PipelineResult | None = None
    error: str = ""
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    trace_id: str = ""
    #: Idempotency key (:func:`~repro.serve.backends.job_key`) when the
    #: broker journals; "" otherwise.
    key: str = ""
    #: True when the result was rematerialized from a journaled completion
    #: instead of running the pipeline.
    replayed: bool = False
    #: The job's root span and its queue-wait child, open from submit until
    #: settle.  ``None`` whenever tracing is off.
    root_span: object = field(default=None, repr=False, compare=False)
    queue_span: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "ticket": self.ticket,
            "query": self.query,
            "priority": self.priority,
            "world_key": self.world_key,
            "state": self.state.value,
            "error": self.error,
            "trace_id": self.trace_id,
            "key": self.key,
            "replayed": self.replayed,
        }


class BrokerError(RuntimeError):
    """Unknown tickets, bad world keys, or use after shutdown."""


class QueueSaturated(BrokerError):
    """Submission rejected: the scheduler is at ``max_queue_depth``.

    Explicit backpressure, not failure — the producer should back off and
    resubmit once the backlog drains (forensic triggers do exactly that).
    """


class PoisonJobQuarantined(BrokerError):
    """Settled-as-outcome when the crash-loop circuit breaker trips: the
    job's (world, query) signature has killed too many workers and now
    lives in the dead-letter queue until drained."""


class QueryBroker:
    """Accepts measurement queries and serves them concurrently.

    Usable as a context manager::

        with QueryBroker(world) as broker:
            ticket = broker.submit("Identify the impact ... SeaMeWe-5 ...")
            result = broker.result(broker.wait(ticket).ticket)
    """

    def __init__(
        self,
        world: SyntheticWorld | None = None,
        registry: Registry | None = None,
        incidents: list | None = None,
        config: ServeConfig | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ):
        self.config = config or ServeConfig()
        if tracer is not None:
            self.tracer = tracer
        elif self.config.tracing:
            self.tracer = Tracer(label="broker")
        else:
            self.tracer = resolve_tracer(None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if flight is not None:
            self.flight = flight
        elif self.config.flight:
            self.flight = FlightRecorder(
                dump_dir=self.config.flight_dir or ".",
                registry=self.metrics,
                config={f.name: getattr(self.config, f.name)
                        for f in dataclasses.fields(self.config)},
            )
        else:
            self.flight = None
        self.cache = (
            ArtifactCache(max_entries=self.config.max_cache_entries)
            if self.config.cache_enabled
            else None
        )
        self.ledger = ProvenanceLedger()
        # Durability plane: open (and replay) the write-ahead journal before
        # anything can submit, so every recovered fact — completions to
        # re-join, submissions to requeue, quarantines to re-arm — is in
        # hand when the first job arrives.
        self.journal: WriteAheadJournal | None = None
        self.recovery: RecoveryReport | None = None
        if self.config.journal_dir:
            recovery_span = (
                self.tracer.start_span("recovery", cat="serve",
                                       journal_dir=self.config.journal_dir)
                if self.tracer.enabled else None
            )
            self.journal = WriteAheadJournal(
                self.config.journal_dir,
                max_segment_bytes=self.config.journal_segment_bytes,
                checkpoint_every=self.config.journal_checkpoint_every,
                fsync=self.config.journal_fsync,
                metrics=self.metrics,
            )
            self.recovery = recover(self.journal, ledger=self.ledger)
            self.metrics.gauge("recovery_replayed_records").set(
                self.recovery.replayed_records)
            if recovery_span is not None:
                recovery_span.annotate(
                    replayed_records=self.recovery.replayed_records,
                    completions=self.recovery.completions,
                    pending=len(self.recovery.pending),
                    deadletter=self.recovery.deadletter,
                    truncated_bytes=self.recovery.truncated_bytes,
                ).end()
        self.deadletter = DeadLetterQueue(journal=self.journal,
                                          metrics=self.metrics)
        #: Terminal outcome per idempotency key: seeded from recovery,
        #: extended by every journaled settle.  ``submit`` consults it to
        #: re-join completed work instead of re-running it.
        self._completed: dict[str, dict] = (
            dict(self.journal.state.completions) if self.journal else {}
        )
        self._key_tickets: dict[str, str] = {}  # live (unsettled) keys
        self._poison: dict[str, dict] = {}  # crash counts per (world, query)
        self.backend = build_backend(
            self.config.backend,
            num_workers=self.config.workers,
            llm_factory=self.config.llm_factory,
            cache_entries=(
                self.config.max_cache_entries if self.config.cache_enabled else 0
            ),
            job_timeout_s=self.config.job_timeout_s,
        )
        # The backend contributes to the same obs plane: it ingests
        # worker-side spans/metric deltas as replies arrive.
        self.backend.tracer = self.tracer
        self.backend.metrics = self.metrics
        self.backend.flight = self.flight
        if self.flight is not None:
            self.flight.add_source("broker", self.stats)
            if self.journal is not None:
                self.flight.add_source("journal", self.journal.stats)
            if self.tracer.enabled:
                self.tracer.add_listener(self.flight.ingest_spans)
        self._scheduler = PriorityScheduler(
            metrics=self.metrics, max_depth=self.config.max_queue_depth)
        self._pool = WorkerPool(
            self._scheduler,
            self._run_job,
            num_workers=self.config.workers,
            metrics=self.metrics,
            heartbeat=self.flight.heartbeat if self.flight is not None else None,
        )
        self._shards: dict[str, WorldShard] = {}
        self._jobs: dict[str, Job] = {}  # insertion-ordered: oldest first
        self._lock = threading.Lock()
        self._ticket_counter = 0
        self._pruned = 0
        self._finished_total = {"done": 0, "failed": 0, "cancelled": 0,
                                "quarantined": 0}
        self._submitted_by_priority: dict[int, int] = {}
        self._default_registry = registry
        self.metrics.register_collector(self._refresh_gauges)
        self.metrics.register_collector(self._refresh_routing)
        if world is not None:
            self.add_world(DEFAULT_WORLD_KEY, world, incidents=incidents,
                           registry=registry)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "QueryBroker":
        if not self._pool.started:
            # Backend first: a process pool must fork before worker threads
            # exist, or the children could inherit mid-held locks.
            self.backend.start()
            self._pool.start()
            self._resume_pending()
        return self

    def _resume_pending(self) -> None:
        """Requeue the crashed run's outstanding jobs (scheduler-queue
        reconstruction).

        Only submissions whose world is already registered resume here —
        live-plane epoch shards are rebuilt by their own managers, and
        their standing queries resubmit on the next epoch.  Quarantined
        signatures stay in the dead-letter queue rather than resuming a
        crash loop.
        """
        if self.recovery is None or not self.recovery.pending:
            return
        resubmitted = 0
        for record in self.recovery.pending:
            world_key = record.get("world_key", DEFAULT_WORLD_KEY)
            query = record.get("query", "")
            with self._lock:
                known = world_key in self._shards
            if not known or self.deadletter.contains(world_key, query):
                continue
            try:
                self.submit(query, params=record.get("params"),
                            priority=record.get("priority", 0),
                            world_key=world_key)
            except BrokerError:
                continue
            resubmitted += 1
        self.recovery.resubmitted = resubmitted
        if resubmitted:
            self.metrics.counter("recovery_resubmitted_total").inc(resubmitted)

    def shutdown(self, wait: bool = True, drain: bool = True) -> None:
        started = self._pool.started
        if started:
            self._pool.shutdown(wait=wait, drain=drain)
        else:
            self._scheduler.close()
        if wait or not started:
            self.backend.shutdown(wait=wait)
            if self.journal is not None:
                self.journal.close()
        else:
            # Claimer threads are still draining; close the backend only
            # once they exit, so in-flight and queued jobs run to completion.
            threading.Thread(
                target=self._shutdown_backend_after_drain, daemon=True
            ).start()

    def _shutdown_backend_after_drain(self) -> None:
        self._pool.join()
        self.backend.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "QueryBroker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- worlds ------------------------------------------------------------

    def add_world(
        self,
        key: str,
        world: SyntheticWorld,
        incidents: list | None = None,
        registry: Registry | None = None,
    ) -> WorldShard:
        """Register a world shard; jobs name it via ``world_key``."""
        with self._lock:
            if key in self._shards:
                raise BrokerError(f"world key {key!r} already registered")
            shard = WorldShard.build(
                key,
                world,
                incidents=incidents,
                registry=registry if registry is not None else self._default_registry,
                llm=self.config.llm_factory() if self.config.llm_factory else None,
                cache=self.cache,
                curate=self.config.curate,
            )
            # Fail at registration, not first job: the process backend checks
            # the shard is shippable (rebuildable registry, picklable LLM).
            self.backend.prepare(shard)
            self._shards[key] = shard
            return shard

    def remove_world(self, key: str) -> None:
        """Deregister a world shard and drop the backend's per-shard state.

        Only idle worlds can be removed: a shard with queued or running
        jobs raises, because those tickets would otherwise fail with an
        unknown world key mid-flight.  Long-lived epoch-shard populations
        (see :class:`~repro.live.standing.StandingQueryManager`) use this
        to bound their footprint.
        """
        with self._lock:
            if key not in self._shards:
                raise BrokerError(f"unknown world key {key!r}")
            busy = [
                job.ticket for job in self._jobs.values()
                if job.world_key == key
                and job.state in (JobState.QUEUED, JobState.RUNNING)
            ]
            if busy:
                raise BrokerError(
                    f"world {key!r} still has {len(busy)} active job(s); "
                    "wait for them before removing it"
                )
            del self._shards[key]
        self.backend.forget(key)

    def shard(self, key: str = DEFAULT_WORLD_KEY) -> WorldShard:
        with self._lock:
            try:
                return self._shards[key]
            except KeyError:
                known = sorted(self._shards)
                raise BrokerError(
                    f"unknown world key {key!r}; registered: {known}"
                ) from None

    def world_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    # -- submission & results ---------------------------------------------

    def submit(
        self,
        query: str,
        params: dict | None = None,
        priority: int = 0,
        world_key: str = DEFAULT_WORLD_KEY,
        trace_parent=None,
    ) -> str:
        """Queue one query; returns its ticket immediately.

        ``trace_parent`` (a span or :class:`~repro.obs.TraceContext`) links
        the job's trace under an existing one — forensic cases use it to
        join their verdict queries to the alert that triggered them.
        """
        if not query or not query.strip():
            raise BrokerError("query must be non-empty")
        if self._scheduler.closed:
            raise BrokerError("broker is shut down; no new submissions")
        shard = self.shard(world_key)  # validate the world key eagerly
        key = ""
        if self.journal is not None:
            # Exactly-once dedup: a journaled completion re-joins without
            # running; a live in-flight twin shares its ticket.  Both maps
            # are read in one hold because _settle moves a key from one to
            # the other in one hold.
            key = job_key(shard, query, params)
            with self._lock:
                completion = self._completed.get(key)
                twin = self._key_tickets.get(key)
                if twin not in self._jobs:
                    twin = None
            if completion is not None and completion.get("status") == "done":
                return self._replay_completed(completion, key, query, params,
                                              priority, world_key)
            if twin is not None:
                return twin
        if self.deadletter.contains(world_key, query):
            # Circuit open: the signature goes straight to the dead-letter
            # queue instead of killing another worker.
            return self._quarantine_submit(query, params, priority,
                                           world_key, key)
        with self._lock:
            self._ticket_counter += 1
            ticket = f"job-{self._ticket_counter:06d}"
            job = Job(ticket=ticket, query=query, params=params,
                      priority=priority, world_key=world_key, key=key)
            self._jobs[ticket] = job
            if key:
                self._key_tickets[key] = ticket
            self._submitted_by_priority[priority] = (
                self._submitted_by_priority.get(priority, 0) + 1
            )
        if self.tracer.enabled:
            # The job's whole life is one trace: a root span open until
            # settle, with queue wait as its first child.  Both spans close
            # defensively from every settle path (Span.end is idempotent).
            job.root_span = self.tracer.start_span(
                "job", parent=trace_parent, cat="serve", ticket=ticket,
                world_key=world_key, priority=priority,
            )
            job.queue_span = self.tracer.start_span(
                "queue.wait", parent=job.root_span, cat="serve",
            )
            job.trace_id = job.root_span.context.trace_id
        self.metrics.counter("broker_jobs_submitted_total").inc()
        self.ledger.open(ticket, query, world_key, trace_id=job.trace_id)
        if self.journal is not None:
            # The WAL property: the submission is durable before the
            # scheduler can hand it to a worker.
            self.journal.append("submit", {
                "ticket": ticket, "key": key, "query": query,
                "params": params, "world_key": world_key,
                "priority": priority,
            })
        try:
            self._scheduler.push(job, priority=priority, shard=world_key)
        except (SchedulerClosed, SchedulerSaturated) as exc:
            # Shutdown or backpressure raced the submission — undo the
            # registration rather than leave a permanently-queued orphan.
            with self._lock:
                self._jobs.pop(ticket, None)
                if key:
                    self._key_tickets.pop(key, None)
            self.ledger.remove(ticket)
            self._close_spans(job, "rejected")
            if self.journal is not None:
                self.journal.append("cancel", {"ticket": ticket})
            if isinstance(exc, SchedulerSaturated):
                self.metrics.counter("broker_submit_saturated_total").inc()
                raise QueueSaturated(
                    f"scheduler queue is at max depth "
                    f"{self.config.max_queue_depth}; back off and resubmit"
                ) from None
            raise BrokerError("broker is shut down; no new submissions") from None
        return ticket

    def _replay_completed(self, completion: dict, key: str, query: str,
                          params: dict | None, priority: int,
                          world_key: str) -> str:
        """Re-join a journaled ``done`` completion: mint a ticket already
        settled with the journaled digest and final output, byte-identical
        to the run that produced it.  (Failed completions never come here —
        they re-run fresh; that is the drain-and-retry path.)"""
        with self._lock:
            self._ticket_counter += 1
            ticket = f"job-{self._ticket_counter:06d}"
            job = Job(ticket=ticket, query=query, params=params,
                      priority=priority, world_key=world_key,
                      key=key, replayed=True)
            job.state = JobState.DONE
            job.result = ReplayedResult(completion)
            self._jobs[ticket] = job
            self._finished_total["done"] += 1
        self.metrics.counter("broker_jobs_replayed_total").inc()
        entry = self.ledger.open(ticket, query, world_key)
        entry.worker = "journal-replay"
        entry.status = "done"
        entry.finished_at = self.ledger.now()
        job.done.set()
        self._prune_finished()
        return ticket

    def _quarantine_submit(self, query: str, params: dict | None,
                           priority: int, world_key: str, key: str) -> str:
        """Settle a circuit-open submission straight into the DLQ."""
        error = ("quarantined: crash-loop circuit breaker is open for this "
                 "(world, query) signature; drain the dead-letter queue to retry")
        with self._lock:
            self._ticket_counter += 1
            ticket = f"job-{self._ticket_counter:06d}"
            job = Job(ticket=ticket, query=query, params=params,
                      priority=priority, world_key=world_key, key=key)
            job.state = JobState.QUARANTINED
            job.error = error
            self._jobs[ticket] = job
            self._finished_total["quarantined"] += 1
        self.metrics.counter("broker_jobs_quarantined_total").inc()
        self.deadletter.quarantine(world_key, query, key=key, params=params,
                                   priority=priority, ticket=ticket,
                                   error=error)
        entry = self.ledger.open(ticket, query, world_key)
        entry.status = "quarantined"
        entry.error = error
        entry.finished_at = self.ledger.now()
        job.done.set()
        self._prune_finished()
        return ticket

    def cancel(self, ticket: str) -> bool:
        """Cancel a still-queued job; ``True`` when this call cancelled it.

        Only ``QUEUED`` jobs can be cancelled — a worker that already claimed
        the job runs it to completion, and finished jobs keep their result —
        so ``False`` is the explicit "too late, nothing changed" answer, not
        an error.  A cancelled ticket stays known: ``status`` reports
        ``CANCELLED``, ``wait`` returns immediately, ``result`` raises.
        """
        job = self.job(ticket)
        with self._lock:
            if job.state is not JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            job.error = "cancelled before execution"
            self._finished_total["cancelled"] += 1
            if job.key:
                self._key_tickets.pop(job.key, None)
        if self.journal is not None and job.key:
            self.journal.append("cancel", {"ticket": ticket})
        self.ledger.mark_finished(ticket, "cancelled", job.error)
        self._close_spans(job, "cancelled")
        job.done.set()
        self._prune_finished()
        return True

    def job(self, ticket: str) -> Job:
        with self._lock:
            try:
                return self._jobs[ticket]
            except KeyError:
                raise BrokerError(f"unknown ticket {ticket!r}") from None

    def status(self, ticket: str) -> JobState:
        return self.job(ticket).state

    def wait(self, ticket: str, timeout: float | None = None) -> Job:
        """Block until the job finishes (or raise on timeout)."""
        job = self.job(ticket)
        if not job.done.wait(timeout):
            raise TimeoutError(f"{ticket} still {job.state.value} after {timeout}s")
        return job

    def result(self, ticket: str, timeout: float | None = None) -> PipelineResult:
        """The finished job's :class:`PipelineResult` (waits if needed)."""
        job = self.wait(ticket, timeout)
        if job.state is not JobState.DONE:
            raise BrokerError(f"{ticket} {job.state.value}: {job.error}")
        assert job.result is not None
        return job.result

    def wait_all(self, tickets: list[str], timeout: float | None = None) -> list[Job]:
        return [self.wait(t, timeout) for t in tickets]

    # -- introspection -----------------------------------------------------

    def _refresh_gauges(self, metrics: MetricsRegistry) -> None:
        """Scrape-time collector: project the hot paths' existing stats dicts
        into registry gauges, so queue depth, worker respawns, transport
        volume and cache hit rates all answer from one place without the hot
        paths paying for a second accounting system."""
        backend = self.backend.stats()
        metrics.gauge("backend_respawns").set(backend.get("respawns", 0))
        dispatch = backend.get("dispatch") or {}
        metrics.gauge("backend_shm_bytes").set(dispatch.get("shm_bytes", 0))
        metrics.gauge("backend_shm_results").set(dispatch.get("shm_results", 0))
        worker_cache = backend.get("cache") or {}
        metrics.gauge("cache_hit_rate", {"scope": "workers"}).set(
            worker_cache.get("hit_rate", 0.0) if worker_cache else 0.0)
        if self.cache is not None:
            cache = self.cache.stats()
            metrics.gauge("cache_hit_rate", {"scope": "broker"}).set(
                cache["hit_rate"])
            metrics.gauge("cache_entries", {"scope": "broker"}).set(
                cache["entries"])
        metrics.gauge("broker_active_jobs").set(self._pool.active_jobs)

    def _refresh_routing(self, metrics: MetricsRegistry) -> None:
        """Scrape-time collector over the routing core: every shared BGP
        collector living on a shard's world (the serve workers' forensic
        fetches and the live plane's feed both memoize there) syncs its
        route-cache, repair-frontier and delta-stream counters into the
        registry, labelled by world shard.  Epoch shards share the base
        shard's world object (see EpochShardPool), so sims are deduped by
        identity — each reports once, under the first shard that holds it."""
        seen: set[int] = set()
        for key in self.world_keys():
            try:
                world = self.shard(key).world
            except KeyError:
                continue  # shard removed between listing and lookup
            for sim in tuple(world.memo("collectors", dict).values()):
                if id(sim) in seen:
                    continue
                seen.add(id(sim))
                sim.sync_metrics(metrics, {"world": key})

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            submitted = self._ticket_counter
            pruned = self._pruned
            finished_total = dict(self._finished_total)
            by_priority = dict(sorted(self._submitted_by_priority.items()))
        return {
            "submitted": submitted,
            "states": states,  # retained jobs only; see finished_total
            "finished_total": finished_total,
            "submitted_by_priority": by_priority,
            "pruned": pruned,
            "workers": self.config.workers,
            "active_jobs": self._pool.active_jobs,
            "scheduler": self._scheduler.stats(),
            "backend": self.backend.stats(),
            "cache": self.cache.stats() if self.cache else None,
            "journal": self.journal.stats() if self.journal is not None else None,
            "recovery": (self.recovery.to_dict()
                         if self.recovery is not None else None),
            "deadletter": self.deadletter.stats(),
            "worlds": self.world_keys(),
            "obs": {
                "tracer": self.tracer.stats(),
                "metrics": self.metrics.stats(),
                "flight": self.flight.stats() if self.flight is not None else None,
            },
        }

    # -- the worker-side job runner ---------------------------------------

    def _run_job(self, job: Job, worker_name: str) -> None:
        """Run one claimed job through the backend and settle it.

        A job whose worker process died in flight is retried up to
        ``max_retries`` times, each retry excluding every worker slot that
        already died on it, before being marked FAILED.
        """
        with self._lock:
            if job.state is not JobState.QUEUED:
                return  # cancelled while queued; the canceller settled it
            job.state = JobState.RUNNING
        if job.queue_span is not None:
            job.queue_span.end()
        dspan = self.tracer.start_span(
            "dispatch", parent=job.root_span, cat="serve",
            backend=self.backend.name, worker=worker_name,
        ) if self.tracer.enabled else None
        try:
            observer = self.ledger.get(job.ticket).observer()
            self.ledger.mark_started(job.ticket, worker_name)
            if self.journal is not None and job.key:
                # Claims are flushed but not fsync'd: they only enrich
                # recovered provenance, never gate resumption, so the hot
                # path skips the per-job disk round-trip.
                self.journal.append("claim", {"ticket": job.ticket,
                                              "worker": worker_name},
                                    sync=False)
            shard = self.shard(job.world_key)
        except Exception as exc:
            # E.g. the world was removed after submit validated it; the job
            # must still settle or waiters hang and the claimer dies.
            if dspan is not None:
                dspan.annotate(error=str(exc)).end()
            self._settle(job, exc)
            return
        trace = dspan.context if dspan is not None else None

        def attempt(excluded: tuple[int, ...] = ()):
            try:
                return self.backend.run(shard, job.query, job.params,
                                        observer=observer,
                                        excluded_workers=excluded, trace=trace)
            except Exception as exc:
                return exc

        outcome = attempt()
        excluded: set[int] = set()
        backoff_s = self.config.retry_backoff_base_s
        for _attempt in range(max(0, self.config.max_retries)):
            if not isinstance(outcome, WorkerCrashed):
                break
            # Every crash is one worker death charged to the job's
            # (world, query) signature; a signature over the crash-loop
            # threshold is quarantined instead of retried.
            excluded.add(outcome.worker_index)
            retriable = self._record_crash(job, outcome.worker_index)
            if retriable:
                self.ledger.mark_retried(job.ticket)
                self.metrics.counter("broker_job_retries_total").inc()
                if self.journal is not None and job.key:
                    self.journal.append("retry", {"ticket": job.ticket},
                                        sync=False)
                if dspan is not None:
                    dspan.annotate(retried=True)
            else:
                outcome = PoisonJobQuarantined(
                    f"{job.query!r} on world {job.world_key!r} exceeded the "
                    f"crash-loop threshold "
                    f"({self.config.crash_loop_threshold} worker deaths)"
                )
            if self.flight is not None:
                # The black box saw the crash: dump before the retry runs,
                # while the dead worker's last spans are still in the ring,
                # and pin the postmortem to the ticket's ledger row.
                self.flight.record("worker_crashed", {
                    "tickets": [job.ticket],
                    "worker_slots": sorted(excluded),
                    "worker": worker_name,
                })
                dump_path = self.flight.dump("worker_crashed", extra={
                    "tickets": [job.ticket],
                    "worker_slots": sorted(excluded),
                })
                try:
                    self.ledger.get(job.ticket).flight_dump = dump_path
                except KeyError:
                    pass
            if not retriable:
                break
            if backoff_s > 0:
                # Decorrelated jitter: uniform(base, 3 * previous), capped.
                # Crash loops spread out instead of hammering the respawn
                # path in lockstep.
                delay = min(
                    self.config.retry_backoff_cap_s,
                    random.uniform(self.config.retry_backoff_base_s,
                                   max(self.config.retry_backoff_base_s,
                                       backoff_s * 3.0)),
                )
                time.sleep(delay)
                backoff_s = delay
            outcome = attempt(tuple(excluded))
        if dspan is not None:
            dspan.end()
        self._settle(job, outcome)

    def _record_crash(self, job: Job, worker_index: int) -> bool:
        """Charge one worker death to the job's signature; ``True`` means
        the job may retry, ``False`` means the breaker tripped and the job
        now belongs to the dead-letter queue."""
        threshold = self.config.crash_loop_threshold
        sig = JournalState.signature(job.world_key, job.query)
        with self._lock:
            counts = self._poison.setdefault(sig, {"crashes": 0, "slots": set()})
            counts["crashes"] += 1
            counts["slots"].add(worker_index)
            crashes = counts["crashes"]
            slots = sorted(counts["slots"])
        if threshold <= 0 or crashes < threshold:
            return True
        self.deadletter.quarantine(
            job.world_key, job.query, key=job.key, params=job.params,
            priority=job.priority, ticket=job.ticket, crashes=crashes,
            worker_slots=slots,
            error=(f"{crashes} worker deaths; crash-loop circuit breaker "
                   "open"),
        )
        return False

    def _settle(self, job: Job, outcome) -> None:
        if isinstance(outcome, PoisonJobQuarantined):
            # _record_crash already filed the DLQ entry; this settles the
            # ticket so its waiter learns the verdict.
            job.error = f"quarantined: {outcome}"
            job.state = JobState.QUARANTINED
            self.ledger.mark_finished(job.ticket, "quarantined", job.error)
            self.metrics.counter("broker_jobs_quarantined_total").inc()
        elif isinstance(outcome, Exception):
            # A failed job must never take a worker down.
            job.error = f"{type(outcome).__name__}: {outcome}"
            job.state = JobState.FAILED
            self.ledger.mark_finished(job.ticket, "failed", job.error)
        else:
            job.result = outcome
            if outcome.execution.succeeded:
                job.state = JobState.DONE
                self.ledger.mark_finished(job.ticket, "done")
            else:
                job.error = outcome.execution.error
                job.state = JobState.FAILED
                self.ledger.mark_finished(job.ticket, "failed", job.error)
        if job.state is JobState.DONE:
            state_key = "done"
        elif job.state is JobState.QUARANTINED:
            state_key = "quarantined"
        else:
            state_key = "failed"
        with self._lock:
            self._finished_total[state_key] += 1
        self.metrics.counter("broker_jobs_finished_total",
                             {"state": state_key}).inc()
        if self.journal is not None and job.key:
            # The completion is the exactly-once anchor: its digest is what
            # a resumed campaign re-joins instead of re-running the job.
            completion = {
                "ticket": job.ticket, "key": job.key, "query": job.query,
                "world_key": job.world_key,
                "status": "done" if job.state is JobState.DONE else "failed",
            }
            if job.state is JobState.QUARANTINED:
                completion["quarantined"] = True
            if job.error:
                completion["error"] = job.error
            if job.state is JobState.DONE and job.result is not None:
                completion["digest"] = job.result.artifact_digest()
                final = job.result.execution.outputs.get("final")
                if final is not None:
                    completion["final"] = final
            record = self.journal.append("complete", completion)
            with self._lock:
                # After the durable append and in one hold: a concurrent
                # submit of the same job finds it live or completed, never
                # neither (which would run it twice).
                self._completed[job.key] = record
                self._key_tickets.pop(job.key, None)
        self._close_spans(job, job.state.value)
        job.done.set()
        self._prune_finished()

    def _close_spans(self, job: Job, state: str) -> None:
        """Close a job's root/queue spans from any settle path; idempotent."""
        if job.queue_span is not None:
            job.queue_span.end()
        if job.root_span is not None:
            job.root_span.annotate(state=state).end()

    def _prune_finished(self) -> None:
        """Drop the oldest finished jobs beyond the retention bound.

        A pruned ticket becomes unknown to ``status``/``wait``/``result`` —
        callers that outlive ``max_retained_jobs`` submissions must collect
        results promptly (campaigns do).
        """
        victims: list[str] = []
        with self._lock:
            overshoot = len(self._jobs) - self.config.max_retained_jobs
            if overshoot > 0:
                for ticket, job in self._jobs.items():
                    if len(victims) >= overshoot:
                        break
                    if job.state in (JobState.DONE, JobState.FAILED,
                                     JobState.CANCELLED, JobState.QUARANTINED):
                        victims.append(ticket)
                for ticket in victims:
                    del self._jobs[ticket]
                    self._pruned += 1
        for ticket in victims:
            self.ledger.remove(ticket)
