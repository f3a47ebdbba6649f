"""Crash recovery: turn a replayed journal into a live broker again.

On broker start with a journal directory, :func:`recover` reduces the
surviving checkpoint + segment tail (torn tails already truncated by
:mod:`repro.serve.journal`) into a :class:`RecoveryReport`, and the broker
uses it to

* reconstruct provenance ledger rows for every journaled completion, so
  ``ledger.summary()`` spans the crash;
* seed its dedup index: resubmitting a journaled-complete job (same
  idempotency key — the :func:`~repro.serve.backends.job_key` blake2b key
  over world fingerprint, query and params) joins the journaled artifact
  digest byte-identically
  instead of re-running the pipeline, which is what makes a resumed
  campaign exactly-once at the campaign level;
* requeue the journaled submissions that never completed (the crashed
  run's scheduler queue);
* re-arm the dead-letter quarantine and surface still-open forensic
  cases and standing-query registrations to the live plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.journal import JournalState, WriteAheadJournal
from repro.serve.provenance import ProvenanceLedger


class ReplayedExecution:
    """The ``execution`` facet of a journal-replayed result."""

    __slots__ = ("succeeded", "outputs", "error")

    def __init__(self, succeeded: bool, outputs: dict, error: str):
        self.succeeded = succeeded
        self.outputs = outputs
        self.error = error


class ReplayedResult:
    """A completed job rematerialized from its journal record.

    Quacks like :class:`~repro.core.artifacts.PipelineResult` where the
    serve plane looks — ``execution.succeeded``, ``execution.outputs``
    (the final ranking travels in the completion record), and
    ``artifact_digest()`` returning the digest journaled at completion
    time — so campaign aggregation and digest-equality checks cannot tell
    a resumed job from a fresh one.
    """

    replayed = True

    def __init__(self, completion: dict):
        self.completion = dict(completion)
        self.query = completion.get("query", "")
        self._digest = completion.get("digest", "")
        final = completion.get("final")
        succeeded = completion.get("status") == "done"
        self.execution = ReplayedExecution(
            succeeded=succeeded,
            outputs={"final": final} if final is not None else {},
            error=completion.get("error", ""),
        )
        self.stage_trace: list = []

    def artifact_digest(self) -> str:
        return self._digest

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "replayed": True,
            "artifact_digest": self._digest,
            "status": self.completion.get("status"),
            "final": self.completion.get("final"),
        }


@dataclass
class RecoveryReport:
    """Everything a restarted broker learned from its journal."""

    directory: str
    replayed_records: int = 0
    truncated_bytes: int = 0
    segments: int = 0
    checkpoint: str = ""
    completions: int = 0
    #: Journaled submissions with no completion, in original ticket order —
    #: the crashed run's outstanding queue.
    pending: list[dict] = field(default_factory=list)
    deadletter: int = 0
    standing: list[dict] = field(default_factory=list)
    open_cases: list[dict] = field(default_factory=list)
    max_ticket: int = 0
    ledger_restored: int = 0
    #: Filled by the broker once it requeues the pending submissions.
    resubmitted: int = 0

    def to_dict(self) -> dict:
        return {
            "directory": self.directory,
            "replayed_records": self.replayed_records,
            "truncated_bytes": self.truncated_bytes,
            "segments": self.segments,
            "checkpoint": self.checkpoint,
            "completions": self.completions,
            "pending": len(self.pending),
            "deadletter": self.deadletter,
            "standing": [dict(r) for r in self.standing],
            "open_cases": [dict(r) for r in self.open_cases],
            "max_ticket": self.max_ticket,
            "ledger_restored": self.ledger_restored,
            "resubmitted": self.resubmitted,
        }


def restore_ledger(ledger: ProvenanceLedger, state: JournalState) -> int:
    """Recreate provenance rows for every journaled completion.

    Rows carry the journaled timestamps, worker attribution, retry counts
    and terminal status; per-stage records did not survive the crash (they
    lived broker-side in memory) and stay empty.
    """
    restored = 0
    for key, completion in state.completions.items():
        ticket = completion.get("ticket", "")
        if not ticket:
            continue
        submit = state.submits.get(key, {})
        entry = ledger.open(
            ticket,
            completion.get("query", submit.get("query", "")),
            completion.get("world_key", submit.get("world_key", "default")),
        )
        entry.submitted_at = submit.get("ts", completion.get("ts", 0.0))
        claim = state.claims.get(ticket)
        if claim is not None:
            entry.worker = claim.get("worker", "")
            entry.started_at = claim.get("ts", 0.0)
        entry.retries = state.retries.get(ticket, 0)
        entry.finished_at = completion.get("ts", 0.0)
        entry.status = completion.get("status", "done")
        entry.error = completion.get("error", "")
        restored += 1
    return restored


def recover(journal: WriteAheadJournal,
            ledger: ProvenanceLedger | None = None) -> RecoveryReport:
    """Summarize a freshly opened journal into a :class:`RecoveryReport`,
    optionally restoring completed jobs' provenance ledger rows."""
    state = journal.state
    replay = journal.replay_stats
    report = RecoveryReport(
        directory=journal.directory,
        replayed_records=replay.replayed_records,
        truncated_bytes=replay.truncated_bytes,
        segments=replay.segments,
        checkpoint=replay.checkpoint,
        completions=len(state.completions),
        pending=state.pending(),
        deadletter=len(state.deadletter),
        standing=list(state.standing.values()),
        open_cases=state.open_cases(),
        max_ticket=state.max_ticket,
    )
    if ledger is not None:
        report.ledger_restored = restore_ledger(ledger, state)
    return report
