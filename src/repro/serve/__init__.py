"""ArachNet Serve: the concurrent query-serving layer.

Turns the one-shot ``ArachNet.answer()`` pipeline into a service: a
:class:`QueryBroker` accepts submissions and hands out tickets, a
:class:`PriorityScheduler` orders them (priority + FIFO, sharded per
world), a :class:`WorkerPool` of threads drains the queue into a pluggable
:class:`ExecutionBackend` (in-thread, or a preforked process pool for
CPU-bound pipelines), a shared :class:`ArtifactCache` memoizes the
deterministic agent stages, and each ticket's :class:`Job` records what
it cost and where each artifact came from (``Job.to_dict()``,
:meth:`QueryBroker.provenance_summary`).
:mod:`repro.serve.campaign` fans scenario matrices into batch submissions
over the same machinery.
"""

from repro.serve.backends import (
    BACKEND_NAMES,
    BackendError,
    ExecutionBackend,
    JobDeadlineExceeded,
    JobPayload,
    ProcessPoolBackend,
    ThreadPoolBackend,
    WorkerCrashed,
    build_backend,
    job_key,
)
from repro.serve.broker import (
    DEFAULT_WORLD_KEY,
    BrokerError,
    Job,
    JobState,
    PoisonJobQuarantined,
    QueryBroker,
    QueueSaturated,
    ServeConfig,
)
from repro.serve.cache import ArtifactCache, content_key
from repro.serve.campaign import (
    CampaignJob,
    CampaignReport,
    CampaignSpec,
    aggregate_rankings,
    run_campaign,
)
from repro.serve.journal import (
    DeadLetterQueue,
    JournalState,
    WriteAheadJournal,
    replay_directory,
)
from repro.serve.recovery import RecoveryReport, ReplayedResult, recover
from repro.serve.scheduler import (
    PriorityScheduler,
    SchedulerClosed,
    SchedulerSaturated,
    WorldShard,
)
from repro.serve.workers import WorkerPool

__all__ = [
    "ArtifactCache",
    "BACKEND_NAMES",
    "BackendError",
    "BrokerError",
    "DeadLetterQueue",
    "ExecutionBackend",
    "JobDeadlineExceeded",
    "JobPayload",
    "JournalState",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "build_backend",
    "job_key",
    "CampaignJob",
    "CampaignReport",
    "CampaignSpec",
    "DEFAULT_WORLD_KEY",
    "Job",
    "JobState",
    "PoisonJobQuarantined",
    "PriorityScheduler",
    "QueryBroker",
    "QueueSaturated",
    "RecoveryReport",
    "ReplayedResult",
    "SchedulerClosed",
    "SchedulerSaturated",
    "ServeConfig",
    "WorkerCrashed",
    "WorkerPool",
    "WorldShard",
    "WriteAheadJournal",
    "aggregate_rankings",
    "content_key",
    "recover",
    "replay_directory",
    "run_campaign",
]
