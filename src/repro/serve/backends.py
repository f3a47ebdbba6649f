"""Pluggable execution backends: where a served job's pipeline actually runs.

The broker's worker threads drain the scheduler either way; the backend
decides what happens to a claimed job:

* :class:`ThreadPoolBackend` — run the pipeline in the claiming thread
  against the shard's shared in-process system.  Right when hosted-LLM
  round-trip latency dominates: threads overlap the waits, artifacts stay
  in shared memory, and the broker-wide :class:`ArtifactCache` is shared.
* :class:`ProcessPoolBackend` — an execution plane over explicit
  preforked worker processes.  Right when generated-code execution is
  CPU-bound: each process escapes the GIL and holds a process-local
  world/system/artifact cache.  Each job goes to the least-loaded worker
  as a small ``(query, params)`` delta against a :class:`JobPayload`
  template shipped once per worker per shard, and comes back as one
  reply; results at or above :data:`transport.DEFAULT_SHM_MIN_BYTES`
  move through :mod:`multiprocessing.shared_memory` segments instead of
  the reply pipe (see :mod:`repro.serve.transport`).  Workers prefork
  with every already-registered world preloaded so first jobs land on
  warm state.

  A worker process that dies mid-job is respawned by a monitor thread;
  its in-flight jobs surface as :class:`WorkerCrashed` so the broker can
  retry them on a different worker.

Both backends produce byte-identical artifacts for the same job: the
pipeline is deterministic in (query, params, world config, registry), which
the payload carries in full — fingerprints are verified worker-side so a
hand-mutated world or unrebuildable registry fails loudly instead of
silently serving answers about a different Internet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import connection

from repro.core.artifacts import PipelineResult
from repro.core.pipeline import ArachNet
from repro.core.registry import default_registry
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.serve import transport
from repro.serve.cache import ArtifactCache
from repro.serve.scheduler import WorldShard
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import WorldConfig, build_world

BACKEND_NAMES = ("thread", "process")

#: Params key intercepted (and stripped) worker-side for fault injection in
#: tests: ``{"_serve_fault": "exit"}`` kills the worker before the pipeline
#: runs, ``{"_serve_fault": {"exit_on_worker": 0}}`` kills it only on slot 0
#: (so a broker retry that excludes slot 0 succeeds elsewhere), and
#: ``{"_serve_fault": {"sleep_s": 0.5}}`` delays execution to build queue
#: depth deterministically.
FAULT_PARAM = "_serve_fault"


class BackendError(RuntimeError):
    """Unknown backend names, unpicklable payload parts, or non-rebuildable
    shard state the process backend cannot ship across the fork."""


class WorkerCrashed(BackendError):
    """A worker process died with this job in flight.  Carries the worker
    slot so a retry can exclude it."""

    def __init__(self, worker_index: int, message: str = ""):
        super().__init__(
            message or f"worker process on slot {worker_index} died mid-job"
        )
        self.worker_index = worker_index

    def __reduce__(self):
        return (WorkerCrashed, (self.worker_index, self.args[0]))


class JobDeadlineExceeded(BackendError):
    """The monitor plane killed a worker whose job overran its deadline.

    Deliberately not a :class:`WorkerCrashed`: a deadline miss is the
    job's fault, so the broker fails it instead of retrying it into a
    second deadline miss (sibling jobs on the killed worker *do* surface
    as ``WorkerCrashed`` and retry normally)."""

    def __init__(self, worker_index: int, timeout_s: float):
        super().__init__(
            f"job exceeded its {timeout_s}s deadline on worker slot "
            f"{worker_index}; the monitor killed the worker"
        )
        self.worker_index = worker_index
        self.timeout_s = timeout_s

    def __reduce__(self):  # pragma: no cover - never crosses the pipe today
        return (JobDeadlineExceeded, (self.worker_index, self.timeout_s))


def job_key(shard: WorldShard, query: str, params: dict | None) -> str:
    """Stable identity of one job: shard key, world fingerprint, query text
    and canonical params.  The write-ahead journal uses it as the
    exactly-once idempotency key, so the material must never change:
    journals written by earlier versions re-join on it."""
    material = "\x00".join((
        shard.key,
        shard.world.fingerprint(),
        query,
        json.dumps(params, sort_keys=True, default=str) if params else "",
    ))
    return hashlib.blake2b(material.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class JobPayload:
    """Everything a worker process needs to run one job, picklable.

    The world travels as its :class:`WorldConfig` (generation is a pure
    function of the config), the registry as the entry-name subset of the
    default registry; both carry fingerprints the worker re-verifies after
    rebuilding.  The backend ships one payload *template* per worker per
    shard; per-job messages carry only ``(query, params)`` deltas.
    """

    query: str
    params: dict | None
    world_config: WorldConfig
    world_fingerprint: str
    registry_names: tuple[str, ...]
    registry_fingerprint: str
    incidents: tuple[LatencyIncident, ...] = ()
    llm_factory: object | None = None
    #: Stable identity of ``llm_factory``, precomputed broker-side so worker
    #: processes key their system cache without re-pickling it per job.
    llm_key: str = ""
    cache_entries: int = 0  # 0 disables the process-local artifact cache
    #: Dispatch-span :class:`~repro.obs.TraceContext` when the broker is
    #: tracing, ``None`` otherwise.  Deliberately outside ``_system_key``:
    #: trace identity must never fragment the worker's system cache.
    trace: object | None = None


# -- worker-process side ------------------------------------------------------

#: Process-local systems keyed by everything a system is a function of.  One
#: entry per (world config, registry, incidents, llm) combination the worker
#: has served — the expensive objects are built once per process, never per
#: job, which is what makes the process backend's steady state fast.
_WORKER_SYSTEMS: dict[tuple, ArachNet] = {}


def _system_key(payload: JobPayload) -> tuple:
    return (
        payload.world_config,
        payload.registry_fingerprint,
        payload.incidents,
        payload.llm_key,
        payload.cache_entries,
    )


def _worker_system(payload: JobPayload) -> ArachNet:
    key = _system_key(payload)
    system = _WORKER_SYSTEMS.get(key)
    if system is None:
        world = build_world(payload.world_config)
        if world.fingerprint() != payload.world_fingerprint:
            raise BackendError(
                f"worker rebuilt world {world.fingerprint()} from config but the "
                f"broker serves {payload.world_fingerprint}; the process backend "
                "requires worlds reproducible from their WorldConfig"
            )
        registry = default_registry().subset(names=list(payload.registry_names))
        if registry.fingerprint() != payload.registry_fingerprint:
            raise BackendError(
                "worker could not rebuild the shard registry from the default "
                "registry by name subset; use the thread backend for custom registries"
            )
        kwargs: dict = {
            "curate": False,
            "cache": (
                ArtifactCache(max_entries=payload.cache_entries)
                if payload.cache_entries
                else None
            ),
        }
        if payload.llm_factory is not None:
            kwargs["llm"] = payload.llm_factory()
        system = ArachNet.for_world(
            world, registry=registry, incidents=list(payload.incidents), **kwargs
        )
        _WORKER_SYSTEMS[key] = system
    return system


#: This process's (tracer, metrics) pair, keyed by pid so a forked child
#: never keeps recording into instruments it inherited from its parent.
_WORKER_OBS: dict[int, tuple] = {}


def _worker_obs() -> tuple:
    pid = os.getpid()
    obs = _WORKER_OBS.get(pid)
    if obs is None:
        _WORKER_OBS.clear()
        obs = (Tracer(label=f"worker-{pid}"), MetricsRegistry())
        _WORKER_OBS[pid] = obs
    return obs


def _process_execute(payload: JobPayload,
                     worker_index: int = 0) -> tuple[PipelineResult, dict]:
    """Runs in the worker process: answer the query, report cache economics.

    With a trace context on the payload the whole run is wrapped in a
    ``worker.execute`` span parented under the broker's dispatch span, and
    the reply meta additionally carries this process's drained span records
    and metric deltas — observability rides the reply pipes, no extra IPC.
    """
    system = _worker_system(payload)
    if payload.trace is not None:
        tracer, registry = _worker_obs()
        registry.counter("worker_jobs_total", {"slot": str(worker_index)}).inc()
        with tracer.span("worker.execute", parent=payload.trace, cat="worker",
                         slot=worker_index) as span:
            result = system.answer(payload.query, params=payload.params,
                                   tracer=tracer, trace_parent=span)
        extra = {"spans": tracer.drain(), "metrics": registry.drain_deltas()}
    else:
        result = system.answer(payload.query, params=payload.params)
        extra = {}
    cache_stats = system.cache.stats() if system.cache is not None else None
    return result, {"pid": os.getpid(), "cache": cache_stats, **extra}


def _apply_fault(fault, index: int) -> None:
    if fault is None:
        return
    if fault == "exit":
        os._exit(3)
    if isinstance(fault, dict):
        if fault.get("exit_on_worker") == index:
            os._exit(3)
        sleep_s = fault.get("sleep_s")
        if sleep_s:
            time.sleep(float(sleep_s))


def _encode_exception(exc: Exception) -> tuple:
    try:
        blob = pickle.dumps(exc)
    except Exception:
        blob = None
    return ("exc", blob, type(exc).__name__, str(exc))


def _decode_exception(message: tuple) -> Exception:
    _, blob, type_name, text = message
    if blob is not None:
        try:
            return pickle.loads(blob)
        except Exception:
            pass
    return BackendError(f"{type_name}: {text}")


def _run_one(index, templates, row) -> tuple:
    job_id, shard_key, query, params, trace = row
    try:
        if params:
            params = dict(params)
            _apply_fault(params.pop(FAULT_PARAM, None), index)
            params = params or None
        template = templates.get(shard_key)
        if template is None:
            raise BackendError(
                f"worker slot {index} never received a payload template for "
                f"shard {shard_key!r}"
            )
        payload = dataclasses.replace(template, query=query, params=params,
                                      trace=trace)
        result, meta = _process_execute(payload, worker_index=index)
        return (job_id, True, transport.encode(result), meta)
    except Exception as exc:  # shipped back and re-raised broker-side
        return (job_id, False, _encode_exception(exc), None)


def _worker_main(index: int, requests, replies,
                 close_fds: tuple[int, ...] = ()) -> None:
    """One worker process: take jobs one at a time, reply once per job.

    ``replies`` is this worker's *own* pipe connection — workers never
    share a reply channel, so a worker SIGKILLed mid-write cannot poison
    a lock its siblings need (see ``_collector_loop``).  ``close_fds``
    are the other slots' inherited reply write-ends (fork start method
    only): closing them here is what lets the broker-side reader see EOF
    — instead of blocking forever on a half-written message — when any
    single worker dies.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    templates: dict[str, JobPayload] = {}
    while True:
        try:
            message = requests.get()
        except (EOFError, OSError):  # broker side vanished
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "preload":
            for shard_key, template in message[1].items():
                templates[shard_key] = template
                try:
                    _worker_system(template)
                except Exception:
                    # A bad template fails loudly at first job, with the
                    # error attached to a ticket someone is waiting on.
                    pass
            replies.send(("preloaded", index, os.getpid()))
            continue
        if kind == "forget":
            template = templates.pop(message[1], None)
            if template is not None:
                _WORKER_SYSTEMS.pop(_system_key(template), None)
            continue
        _, template, row = message  # ("job", template or None, row)
        if template is not None:
            templates[row[1]] = template
        replies.send(("done", index, _run_one(index, templates, row)))


# -- broker side --------------------------------------------------------------


class ExecutionBackend:
    """The protocol the broker drives.  ``run`` is called concurrently from
    every worker thread; ``prepare`` is called once per registered world so
    misconfiguration fails at ``add_world`` time, not first-job time.

    ``run`` must deliver every produced :class:`StageTrace` to ``observer``
    (when given) — streamed live where the pipeline runs in-process, or
    replayed from the result where it ran elsewhere — so the provenance
    ledger sees partial traces even when a later stage fails in-process.
    """

    name = "base"
    #: The broker rebinds these to its own tracer/registry at construction;
    #: the class defaults keep a standalone backend fully functional.
    tracer = NULL_TRACER
    metrics: MetricsRegistry | None = None
    #: Optional :class:`~repro.obs.FlightRecorder`; the process backend
    #: heartbeats it per worker reply and dumps a postmortem on respawns.
    flight = None

    def start(self) -> "ExecutionBackend":
        return self

    def shutdown(self, wait: bool = True) -> None:
        pass

    def prepare(self, shard: WorldShard) -> None:
        pass

    def forget(self, shard_key: str) -> None:
        """Drop any per-shard state (payload templates)."""

    def run(
        self,
        shard: WorldShard,
        query: str,
        params: dict | None,
        observer=None,
        excluded_workers: tuple[int, ...] = (),
        trace=None,
    ) -> PipelineResult:
        """Answer one job.  ``trace`` is the dispatch-span
        :class:`~repro.obs.TraceContext` to parent execution spans under."""
        raise NotImplementedError

    def stats(self) -> dict:
        return {"backend": self.name}


class ThreadPoolBackend(ExecutionBackend):
    """Run jobs in the claiming worker thread (the original serve behaviour)."""

    name = "thread"

    def run(
        self,
        shard: WorldShard,
        query: str,
        params: dict | None,
        observer=None,
        excluded_workers: tuple[int, ...] = (),
        trace=None,
    ) -> PipelineResult:
        return shard.system.answer(query, params=params, observer=observer,
                                   tracer=self.tracer, trace_parent=trace)


class _WorkerSlot:
    """Broker-side view of one worker process.

    The slot survives its process: a crashed worker is respawned in place
    with a bumped ``generation``.  Each generation gets a fresh request
    queue, fresh template-shipping state and a fresh *private* reply pipe
    (``reply_r`` broker-side, ``reply_w`` shipped to the process).
    """

    __slots__ = ("index", "generation", "process", "request_q",
                 "reply_r", "reply_w", "templates_sent", "inflight")

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.process = None
        self.request_q = None
        self.reply_r = None
        self.reply_w = None
        self.templates_sent: set[str] = set()
        #: job_id -> monotonic dispatch timestamp; the monitor's deadline
        #: sweep reads the timestamps, dispatch counts the entries as load.
        self.inflight: dict[int, float] = {}


class ProcessPoolBackend(ExecutionBackend):
    """Execution plane over preforked worker processes.

    Explicit worker processes (not a :class:`multiprocessing.Pool`): each
    slot owns a request queue, so the dispatcher controls *which* process
    a job lands on — the least-loaded one that a retry has not excluded.
    A collector thread multiplexes every worker's *private* reply pipe
    (decoding shared-memory payloads, see :mod:`repro.serve.transport`),
    and a monitor thread respawns dead workers and fails their in-flight
    jobs with :class:`WorkerCrashed` so the broker can retry them
    elsewhere.

    Replies deliberately do not share a queue: a shared
    ``multiprocessing`` queue serializes writers through a cross-process
    semaphore, and a worker SIGKILLed inside ``put`` dies holding it —
    deadlocking every surviving worker's replies (found by the chaos
    suite).  One pipe per worker means one writer per lockless channel;
    sibling processes close their inherited copies of each other's write
    ends so a dead writer always surfaces as EOF, never as a forever-
    blocking read.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int = 4,
        llm_factory=None,
        cache_entries: int = 4096,
        start_method: str | None = None,
        job_timeout_s: float | None = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive (or None)")
        self.job_timeout_s = job_timeout_s
        self.num_workers = num_workers
        self._llm_factory = llm_factory
        self._cache_entries = cache_entries
        self._start_method = start_method
        self._ctx = None
        self._method = None
        self._slots: list[_WorkerSlot] = []
        self._templates: dict[str, JobPayload] = {}
        self._futures: dict[int, Future] = {}
        self._job_ids = itertools.count(1)
        #: Reply pipes of dead worker generations, drained to EOF by the
        #: collector so raced-in results are released, never leaked.
        self._retired_pipes: list = []
        self._wake_r = None
        self._wake_w = None
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._started = False
        self._stopped = False
        self._proc_cache_stats: dict[int, dict] = {}
        self._counts = {
            "respawns": 0, "dispatched": 0,
            "shm_results": 0, "shm_bytes": 0, "inline_results": 0,
            "deadline_kills": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProcessPoolBackend":
        if self._started:
            return self
        method = self._start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._method = method
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._slots = [_WorkerSlot(i) for i in range(self.num_workers)]
        # Pipes first, forks second: each worker learns every sibling's
        # reply write-end so it can close its inherited copy (see
        # _worker_main's close_fds).
        for slot in self._slots:
            self._prepare_slot(slot)
        for slot in self._slots:
            self._launch(slot)
        # Prefork preload: every world registered before start is built in
        # every worker now, so first jobs land on warm state instead of
        # paying the world build inside a measured request.
        if self._templates:
            templates = dict(self._templates)
            for slot in self._slots:
                slot.templates_sent |= set(templates)
                slot.request_q.put(("preload", templates))
        self._threads = [
            threading.Thread(target=loop, name=f"arachnet-plane-{label}", daemon=True)
            for label, loop in (
                ("collector", self._collector_loop),
                ("monitor", self._monitor_loop),
            )
        ]
        for thread in self._threads:
            thread.start()
        self._started = True
        return self

    def _prepare_slot(self, slot: _WorkerSlot) -> None:
        """Reset a slot for a fresh process (callers hold the lock after
        start).  Dispatch keeps working immediately: jobs sent to the new
        request queue wait in its pipe until the process comes up.  The
        old generation's reply pipe is retired, not dropped — the collector
        drains it to EOF so results that raced the death are released."""
        slot.request_q = self._ctx.SimpleQueue()
        if slot.reply_r is not None:
            self._retired_pipes.append(slot.reply_r)
        slot.reply_r, slot.reply_w = self._ctx.Pipe(duplex=False)
        slot.templates_sent = set()
        slot.process = None

    def _launch(self, slot: _WorkerSlot) -> None:
        close_fds: tuple[int, ...] = ()
        if self._method == "fork":
            # The child inherits every sibling pipe open in this parent at
            # fork time; hand it the write-end fds to close so a sibling's
            # death reads as EOF broker-side.
            close_fds = tuple(
                s.reply_w.fileno() for s in self._slots
                if s is not slot and s.reply_w is not None
            )
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, slot.request_q, slot.reply_w, close_fds),
            name=f"arachnet-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        slot.process = process
        # The worker owns the write end now; holding our copy open would
        # mask its death from the reader.
        slot.reply_w.close()
        slot.reply_w = None

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
            self._stop.set()
        collector, monitor = self._threads
        for slot in self._slots:
            slot.request_q.put(("stop",))
        if not wait:
            # Abandoning shutdown: nothing will run or collect the
            # outstanding work, so fail its futures now rather than leave
            # callers blocked on events that can never fire.
            with self._lock:
                futures, self._futures = self._futures, {}
            for future in futures.values():
                future.set_exception(BackendError("process backend shut down"))
            self._wake_collector()
            return
        for slot in self._slots:
            if slot.process is None:  # pragma: no cover - raced a respawn
                continue
            slot.process.join(timeout=15)
            if slot.process.is_alive():  # pragma: no cover - stuck pipeline
                slot.process.terminate()
                slot.process.join(timeout=5)
        monitor.join(timeout=5)
        self._wake_collector()
        collector.join(timeout=15)
        # Fail anything still outstanding so no claimer thread hangs forever.
        with self._lock:
            futures, self._futures = self._futures, {}
        for future in futures.values():
            future.set_exception(BackendError("process backend shut down"))

    def kill_worker(self, index: int) -> None:
        """Fault injection for tests: hard-kill one worker process."""
        self._slots[index].process.kill()

    # -- shard registration ------------------------------------------------

    def prepare(self, shard: WorldShard) -> None:
        self._templates[shard.key] = self._template_for(shard)

    def forget(self, shard_key: str) -> None:
        # Sent under the lock, like jobs, so a forget can never overtake a
        # job (or a re-registered shard's template) bound for the same slot.
        with self._lock:
            self._templates.pop(shard_key, None)
            for slot in self._slots:
                if slot.request_q is not None and shard_key in slot.templates_sent:
                    slot.templates_sent.discard(shard_key)
                    slot.request_q.put(("forget", shard_key))

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, shard: WorldShard, query: str, params: dict | None,
                  excluded: tuple[int, ...] = (), trace=None) -> Future:
        """Send one job to the least-loaded slot not in ``excluded``.

        The send happens under the lock, so a slot's template always
        reaches its worker ahead of the first job that needs it, and a
        respawn can never interleave between choosing a slot and sending.
        """
        if shard.key not in self._templates:
            self._templates[shard.key] = self._template_for(shard)
        future = Future()
        with self._lock:
            if not self._started or self._stopped:
                raise BackendError("process backend is not started")
            # A retry that has excluded every slot runs anywhere, not nowhere.
            eligible = ([s for s in self._slots if s.index not in excluded]
                        or self._slots)
            slot = min(eligible, key=lambda s: (len(s.inflight), s.index))
            job_id = next(self._job_ids)
            template = (None if shard.key in slot.templates_sent
                        else self._templates.get(shard.key))
            slot.request_q.put(
                ("job", template, (job_id, shard.key, query, params, trace)))
            # Record only what actually shipped: a template missing here
            # (shard forgotten mid-dispatch) must not poison the slot for a
            # later re-registration of the shard.
            if template is not None:
                slot.templates_sent.add(shard.key)
            self._futures[job_id] = future
            slot.inflight[job_id] = time.monotonic()
            self._counts["dispatched"] += 1
        return future

    def run(
        self,
        shard: WorldShard,
        query: str,
        params: dict | None,
        observer=None,
        excluded_workers: tuple[int, ...] = (),
        trace=None,
    ) -> PipelineResult:
        result = self._dispatch(shard, query, params, excluded_workers,
                                trace=trace).result()
        self._replay(result, observer)
        return result

    @staticmethod
    def _replay(result: PipelineResult, observer) -> None:
        if observer is not None:
            # Traces travelled back inside the result; replay them.  (A job
            # that raised worker-side surfaces as an exception — its partial
            # trace does not cross the process boundary.)
            for trace in result.stage_trace:
                observer(trace)

    # -- plane threads -----------------------------------------------------

    def _wake_collector(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):  # pragma: no cover - already closing
            pass

    def _collector_loop(self) -> None:
        """Multiplex every worker's private reply pipe.

        A reader per writer means no cross-process reply lock exists to be
        poisoned by a SIGKILL; a worker that dies mid-write surfaces as
        EOF (its fd has no other holders) and its in-flight jobs are the
        monitor's to fail.  Retired pipes — prior generations of respawned
        slots — are drained to EOF so results that raced the death are
        released rather than leaking their shared-memory segments.
        """
        while True:
            with self._lock:
                # Purge pipes closed by a drain that raced slot retirement;
                # waiting on a closed fd would raise forever.
                self._retired_pipes = [
                    c for c in self._retired_pipes if not c.closed
                ]
                readers = {
                    slot.reply_r: False  # conn -> is_retired
                    for slot in self._slots
                    if slot.reply_r is not None and not slot.reply_r.closed
                }
                for conn in self._retired_pipes:
                    readers[conn] = True
            try:
                ready = connection.wait(
                    list(readers) + [self._wake_r], timeout=0.2
                )
            except (OSError, ValueError):  # a pipe retired mid-wait
                continue
            stop = False
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        self._wake_r.recv_bytes()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    stop = self._stop.is_set()
                    continue
                self._drain_pipe(conn, retired=readers[conn])
            if stop:
                # Final sweep: every worker has exited (or been killed);
                # their pipes hold only complete messages then EOF.
                with self._lock:
                    leftovers = ([s.reply_r for s in self._slots
                                  if s.reply_r is not None]
                                 + list(self._retired_pipes))
                for conn in leftovers:
                    self._drain_pipe(conn, retired=True)
                return

    def _drain_pipe(self, conn, retired: bool) -> None:
        """Consume every complete message on one reply pipe, closing it on
        EOF.  A live slot's pipe is detached from its slot when it EOFs —
        drained empty, it can carry nothing more, and leaving it in the
        wait set would spin the collector hot until the monitor respawns
        the slot (which, during shutdown, it never does)."""
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                with self._lock:
                    if retired:
                        if conn in self._retired_pipes:
                            self._retired_pipes.remove(conn)
                    else:
                        for slot in self._slots:
                            if slot.reply_r is conn:
                                # The monitor's _prepare_slot skips the
                                # retire step for a None pipe and builds a
                                # fresh one for the respawn.
                                slot.reply_r = None
                return
            self._handle_reply(message)

    def _handle_reply(self, message: tuple) -> None:
        kind = message[0]
        if kind == "preloaded":
            with self._lock:
                self._proc_cache_stats.setdefault(message[2], None)
            return
        _, index, (job_id, ok, blob, meta) = message  # ("done", slot, row)
        if meta is not None and self.flight is not None:
            # Reply metadata doubles as the worker's liveness signal.
            self.flight.heartbeat(f"worker-{index}", pid=meta["pid"])
        if meta is not None:
            # Absorb worker-side observability before the future resolves,
            # so a caller that wakes on the result already sees its spans.
            spans = meta.get("spans")
            if spans:
                self.tracer.ingest(spans)
            deltas = meta.get("metrics")
            if deltas and self.metrics is not None:
                self.metrics.absorb(deltas)
        with self._lock:
            self._slots[index].inflight.pop(job_id, None)
            future = self._futures.pop(job_id, None)
            if meta is not None:
                self._proc_cache_stats[meta["pid"]] = meta["cache"]
            if ok:
                if blob[0] == "shm":
                    self._counts["shm_results"] += 1
                    self._counts["shm_bytes"] += blob[2] + sum(blob[3])
                else:
                    self._counts["inline_results"] += 1
        if future is None:
            if ok:  # nobody will decode it; reclaim the segment
                transport.release(blob)
            return
        if ok:
            try:
                future.set_result(transport.decode(blob))
            except Exception as exc:  # pragma: no cover - defensive
                future.set_exception(BackendError(
                    f"failed to decode worker result: {exc}"
                ))
        else:
            future.set_exception(_decode_exception(blob))

    def _enforce_deadlines(self) -> None:
        """The monitor plane's per-job deadline sweep.

        A job older than ``job_timeout_s`` on a worker has its future
        failed with :class:`JobDeadlineExceeded` and its worker process
        killed — preforked workers run arbitrary generated code, so the
        only reliable preemption is taking the process down and letting
        the respawn path rebuild the slot.  Sibling in-flight jobs on the
        same worker die as ordinary :class:`WorkerCrashed` retries.
        """
        now = time.monotonic()
        victims: list[tuple[_WorkerSlot, list[int]]] = []
        with self._lock:
            for slot in self._slots:
                if slot.process is None or not slot.inflight:
                    continue
                overdue = [job_id for job_id, sent in slot.inflight.items()
                           if now - sent > self.job_timeout_s]
                if overdue:
                    victims.append((slot, overdue))
        for slot, overdue in victims:
            futures = []
            with self._lock:
                if slot.process is None or not slot.process.is_alive():
                    continue  # already died; the sentinel path owns cleanup
                for job_id in overdue:
                    future = self._futures.pop(job_id, None)
                    slot.inflight.pop(job_id, None)
                    if future is not None:
                        futures.append(future)
                self._counts["deadline_kills"] += 1
                process = slot.process
            for future in futures:
                future.set_exception(
                    JobDeadlineExceeded(slot.index, self.job_timeout_s))
            if self.flight is not None:
                self.flight.record("job_deadline_exceeded", {
                    "slot": slot.index,
                    "jobs": len(futures),
                    "timeout_s": self.job_timeout_s,
                })
            process.kill()  # the sentinel wait below respawns the slot

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            if self.job_timeout_s is not None:
                self._enforce_deadlines()
            with self._lock:
                # Every spawned process, alive or not: a worker that died
                # between two wait windows has a ready sentinel and MUST
                # still be handled, or its in-flight jobs hang forever.
                sentinels = {
                    slot.process.sentinel: slot
                    for slot in self._slots
                    if slot.process is not None
                }
            if not sentinels:
                if self._stop.wait(0.1):
                    return
                continue
            ready = connection.wait(list(sentinels), timeout=0.2)
            for sentinel in ready:
                slot = sentinels[sentinel]
                crashed: list[Future] = []
                with self._lock:
                    if (self._stopped or slot.process is None
                            or slot.process.sentinel != sentinel):
                        continue
                    if slot.process.is_alive():  # pragma: no cover - raced
                        continue
                    # Every job sent to the dead process died with it,
                    # including any still waiting in its request queue.
                    for job_id in sorted(slot.inflight):
                        future = self._futures.pop(job_id, None)
                        if future is not None:
                            crashed.append(future)
                    slot.inflight.clear()
                    slot.generation += 1
                    self._counts["respawns"] += 1
                    self._prepare_slot(slot)
                # Fork outside the lock so process creation never stalls
                # dispatch/collection.  Forking here, after threads exist,
                # mirrors multiprocessing.Pool's own worker repopulation:
                # safe because the child only touches the fresh request
                # queue and its own private reply pipe (plus the close_fds
                # hand-off in _launch), never broker-side thread state.
                self._launch(slot)
                if self.flight is not None:
                    # The black box's SIGKILL path: record + dump while the
                    # dead generation's last spans are still in the ring.
                    # No deadlock: the dump's stat sources take self._lock,
                    # which is not held here.
                    detail = {
                        "slot": slot.index,
                        "generation": slot.generation,
                        "inflight_failed": len(crashed),
                    }
                    self.flight.record("worker_respawn", detail)
                    self.flight.dump("worker_respawn", extra=detail)
                for future in crashed:
                    future.set_exception(WorkerCrashed(slot.index))

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Worker respawns, dispatch and transport mix, and aggregated
        per-process artifact-cache stats (last seen per pid)."""
        with self._lock:
            counts = dict(self._counts)
            snapshots = [s for s in self._proc_cache_stats.values() if s]
            processes = len(self._proc_cache_stats)
        merged = None
        if snapshots:
            merged = {
                "entries": sum(s["entries"] for s in snapshots),
                "hits": sum(s["hits"] for s in snapshots),
                "misses": sum(s["misses"] for s in snapshots),
                "evictions": sum(s["evictions"] for s in snapshots),
            }
            total = merged["hits"] + merged["misses"]
            merged["hit_rate"] = merged["hits"] / total if total else 0.0
        return {
            "backend": self.name,
            "workers": self.num_workers,
            "processes": processes,
            "cache": merged,
            "respawns": counts["respawns"],
            "dispatch": {
                "jobs": counts["dispatched"],
                "shm_results": counts["shm_results"],
                "shm_bytes": counts["shm_bytes"],
                "inline_results": counts["inline_results"],
            },
            "deadline": {
                "timeout_s": self.job_timeout_s,
                "kills": counts["deadline_kills"],
            },
        }

    def _template_for(self, shard: WorldShard) -> JobPayload:
        """Validate the shard is shippable and build its payload template."""
        system = shard.system
        if system.curate:
            raise BackendError(
                "process backend does not support curation (registry evolution "
                "would be process-local and diverge); use the thread backend"
            )
        registry = system.registry
        names = tuple(registry.names())
        if default_registry().subset(names=list(names)).fingerprint() != registry.fingerprint():
            raise BackendError(
                "process backend requires a registry derivable from the default "
                "registry by name subset; use the thread backend for custom entries"
            )
        try:
            llm_blob = pickle.dumps(self._llm_factory)
        except Exception as exc:
            raise BackendError(
                "llm_factory must be picklable for the process backend — use "
                f"functools.partial over a module-level class, not a lambda ({exc})"
            ) from None
        world = shard.world
        return JobPayload(
            query="",
            params=None,
            world_config=world.config,
            world_fingerprint=world.fingerprint(),
            registry_names=names,
            registry_fingerprint=registry.fingerprint(),
            incidents=tuple(system.context.incidents),
            llm_factory=self._llm_factory,
            llm_key=hashlib.sha256(llm_blob).hexdigest()[:16],
            cache_entries=self._cache_entries,
        )


def build_backend(
    name: str,
    num_workers: int = 4,
    llm_factory=None,
    cache_entries: int = 4096,
    job_timeout_s: float | None = None,
) -> ExecutionBackend:
    """Backend factory for :class:`ServeConfig.backend` names.

    ``job_timeout_s`` only binds on the process backend — the thread
    backend runs jobs on the claiming thread, which Python cannot preempt.
    """
    if name == "thread":
        return ThreadPoolBackend()
    if name == "process":
        return ProcessPoolBackend(
            num_workers=num_workers,
            llm_factory=llm_factory,
            cache_entries=cache_entries,
            job_timeout_s=job_timeout_s,
        )
    raise BackendError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
