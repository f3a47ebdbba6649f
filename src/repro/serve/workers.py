"""The worker pool: N threads draining the scheduler.

The threads are *claimers*, not necessarily where pipelines run: each one
pops one job and hands it to the broker's :class:`ExecutionBackend` — the
thread backend runs it in place (ideal when hosted-LLM round-trip latency
dominates; threads overlap the waits and artifacts stay in the broker process),
while the process backend blocks the thread on an out-of-process worker so
CPU-bound generated code escapes the GIL.  A claimer takes its next job
only when the last one settles, so a high-priority submission waits for a
running job to finish, never behind queued low-priority ones.  Shutdown is
graceful: in-flight jobs always run to completion, and ``drain=True``
additionally finishes everything already queued.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.obs import MetricsRegistry
from repro.serve.scheduler import PriorityScheduler

#: ``handler(item, worker_name)`` — must not raise; job-level errors are the
#: handler's to record.
JobHandler = Callable[[Any, str], None]

_POLL_INTERVAL_S = 0.05


class WorkerPool:
    """A ``ThreadPoolExecutor``-backed pool of scheduler consumers."""

    def __init__(
        self,
        scheduler: PriorityScheduler,
        handler: JobHandler,
        num_workers: int = 4,
        name: str = "arachnet-serve",
        metrics: MetricsRegistry | None = None,
        heartbeat: Callable[[str], None] | None = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._claimed_counter = metrics.counter("workerpool_claimed_total")
        self._active = metrics.gauge("broker_active_jobs")
        self._scheduler = scheduler
        self._handler = handler
        #: ``heartbeat(worker_name)`` fires each claimer-loop iteration —
        #: the flight recorder's liveness signal for broker-side claimers.
        self._heartbeat = heartbeat
        self.num_workers = num_workers
        self._name = name
        self._stop = threading.Event()
        self._drain = False
        self._executor: ThreadPoolExecutor | None = None
        self._futures = []

    def start(self) -> "WorkerPool":
        if self._executor is not None:
            raise RuntimeError("worker pool already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix=self._name
        )
        self._futures = [
            self._executor.submit(self._run_loop, f"{self._name}-{i}")
            for i in range(self.num_workers)
        ]
        return self

    @property
    def started(self) -> bool:
        return self._executor is not None

    @property
    def active_jobs(self) -> int:
        return int(self._active.value)

    def join(self) -> None:
        """Block until every worker thread has exited (call after shutdown)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def shutdown(self, wait: bool = True, drain: bool = True) -> None:
        """Stop the pool.

        ``drain=True`` (the default) lets workers finish every queued job
        first; ``drain=False`` abandons the queue after in-flight jobs
        complete.  Safe to call more than once.
        """
        self._drain = drain
        self._stop.set()
        self._scheduler.close()
        if self._executor is not None:
            self._executor.shutdown(wait=wait)

    def _should_exit(self) -> bool:
        if not self._stop.is_set():
            return False
        return not (self._drain and len(self._scheduler) > 0)

    def _run_loop(self, worker_name: str) -> None:
        while True:
            if self._heartbeat is not None:
                self._heartbeat(worker_name)
            if self._stop.is_set() and not self._drain:
                return  # abandon whatever is still queued
            item = self._scheduler.pop(timeout=_POLL_INTERVAL_S)
            if item is None:
                if self._should_exit() or self._scheduler.closed:
                    return
                continue
            self._claimed_counter.inc()
            self._active.inc()
            try:
                self._handler(item, worker_name)
            finally:
                self._active.dec()
