"""Write-ahead journal: the serve plane's crash-durable memory.

Every externally meaningful broker transition — job submissions, claims,
retries, completions (with artifact digests), cancellations, standing-query
registrations, forensic case transitions, dead-letter quarantines — is
appended to an fsync'd segment *before* the in-memory state moves, so a
SIGKILLed broker can be restarted and resume exactly where it died (see
:mod:`repro.serve.recovery`).

Storage layout (one directory)::

    wal-00000001.log        append-only record segments
    wal-00000002.log
    checkpoint-00000002.json  compacted state covering segments < 2

Segments are JSONL with per-record CRC32 + length framing::

    crc32-hex8 SP length-hex8 SP canonical-json LF

A record is valid only when the framing parses, the payload length and
CRC both match, and the trailing newline is present — any byte-level tear
(a broker killed mid-``write``, a filesystem that dropped the tail) makes
the record invalid, and opening the journal truncates the segment at the
last valid record rather than trusting a partial one.  Because canonical
JSON contains no raw newlines, no prefix of a record can parse as a
shorter valid record.

Segments rotate at a byte bound and compact into periodic checkpoints: a
checkpoint atomically persists the reduced :class:`JournalState`, then
every fully-covered segment (and older checkpoint) is deleted — the
journal's disk footprint is bounded by live state plus one segment, not
by campaign length.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"

#: fsync latency buckets in *milliseconds* (journal_fsync_ms).
FSYNC_MS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                    50.0, 100.0, 250.0)

#: Record kinds the reducer understands; unknown kinds replay as no-ops so
#: a newer journal degrades gracefully under an older reader.
RECORD_KINDS = (
    "submit", "claim", "retry", "complete", "cancel",
    "standing_register", "standing_deregister", "case",
    "deadletter", "deadletter_drain",
)


class JournalError(RuntimeError):
    """Unwritable directories or checkpoints no reader version understands."""


# -- record framing -----------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """Frame one record: ``crc32-hex8 SP length-hex8 SP payload LF``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"),
                         default=str).encode("utf-8")
    return b"%08x %08x " % (zlib.crc32(payload), len(payload)) + payload + b"\n"


def iter_valid_records(raw: bytes):
    """Yield ``(end_offset, record)`` per valid record, stopping at the
    first framing violation — the caller truncates there."""
    pos = 0
    size = len(raw)
    while pos < size:
        newline = raw.find(b"\n", pos)
        if newline == -1:
            return  # torn tail: record never got its newline
        line = raw[pos:newline]
        if len(line) < 18 or line[8:9] != b" " or line[17:18] != b" ":
            return
        try:
            crc = int(line[0:8], 16)
            length = int(line[9:17], 16)
        except ValueError:
            return
        payload = line[18:]
        if len(payload) != length or zlib.crc32(payload) != crc:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return
        if not isinstance(record, dict):
            return
        pos = newline + 1
        yield pos, record


def read_segment(path: str, truncate: bool = True) -> tuple[list[dict], int]:
    """Every valid record in a segment, truncating any torn tail in place.

    Returns ``(records, truncated_bytes)``.  Truncation is what makes a
    reopened journal append-safe: the next record lands where the torn one
    started, never concatenated onto garbage.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    records: list[dict] = []
    end = 0
    for end, record in iter_valid_records(raw):
        records.append(record)
    torn = len(raw) - end
    if torn and truncate:
        with open(path, "r+b") as handle:
            handle.truncate(end)
            handle.flush()
            os.fsync(handle.fileno())
    return records, torn


def _fsync_dir(directory: str) -> None:
    """Durably record directory-entry changes (renames, creates, unlinks)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _seq_of(path: str, prefix: str, suffix: str) -> int | None:
    name = os.path.basename(path)
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    try:
        return int(name[len(prefix):-len(suffix)])
    except ValueError:
        return None


def segment_paths(directory: str) -> list[tuple[int, str]]:
    out = []
    for path in glob.glob(os.path.join(directory, f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")):
        seq = _seq_of(path, SEGMENT_PREFIX, SEGMENT_SUFFIX)
        if seq is not None:
            out.append((seq, path))
    return sorted(out)


def checkpoint_paths(directory: str) -> list[tuple[int, str]]:
    out = []
    for path in glob.glob(os.path.join(directory,
                                       f"{CHECKPOINT_PREFIX}*{CHECKPOINT_SUFFIX}")):
        seq = _seq_of(path, CHECKPOINT_PREFIX, CHECKPOINT_SUFFIX)
        if seq is not None:
            out.append((seq, path))
    return sorted(out)


# -- the reduced state --------------------------------------------------------


def ticket_number(ticket: str) -> int:
    """The counter inside a ``job-NNNNNN`` ticket (0 when unparsable)."""
    try:
        return int(str(ticket).rsplit("-", 1)[-1])
    except (ValueError, IndexError):
        return 0


@dataclass
class JournalState:
    """What the journal *means*: the reduction every reader agrees on.

    The same ``apply`` runs on the live append path, during checkpoint
    compaction, and during recovery replay — there is exactly one
    interpretation of the record stream.
    """

    #: Latest submission per idempotency key (cancelled ones removed).
    submits: dict[str, dict] = field(default_factory=dict)
    #: ticket -> idempotency key, for every journaled submission.
    tickets: dict[str, str] = field(default_factory=dict)
    #: Terminal outcome per idempotency key (status done|failed, digest...).
    completions: dict[str, dict] = field(default_factory=dict)
    #: ticket -> last claim record (worker name, timestamp).
    claims: dict[str, dict] = field(default_factory=dict)
    #: ticket -> crash-retry count.
    retries: dict[str, int] = field(default_factory=dict)
    cancelled: set[str] = field(default_factory=set)
    #: Standing-query registrations still live (name -> record).
    standing: dict[str, dict] = field(default_factory=dict)
    #: Forensic cases by id; each record is the merge of its transitions.
    cases: dict[str, dict] = field(default_factory=dict)
    #: Quarantined (world_key, query) signatures -> dead-letter record.
    deadletter: dict[str, dict] = field(default_factory=dict)
    max_ticket: int = 0
    applied: int = 0

    @staticmethod
    def signature(world_key: str, query: str) -> str:
        return f"{world_key}\x00{query}"

    def apply(self, record: dict) -> None:
        self.applied += 1
        kind = record.get("kind")
        if kind == "submit":
            key = record["key"]
            ticket = record["ticket"]
            self.submits[key] = record
            self.tickets[ticket] = key
            self.max_ticket = max(self.max_ticket, ticket_number(ticket))
        elif kind == "claim":
            self.claims[record["ticket"]] = record
        elif kind == "retry":
            ticket = record["ticket"]
            self.retries[ticket] = self.retries.get(ticket, 0) + 1
        elif kind == "complete":
            self.completions[record["key"]] = record
        elif kind == "cancel":
            ticket = record["ticket"]
            self.cancelled.add(ticket)
            key = self.tickets.get(ticket)
            live = self.submits.get(key) if key else None
            if live is not None and live.get("ticket") == ticket:
                del self.submits[key]
        elif kind == "standing_register":
            self.standing[record["name"]] = record
        elif kind == "standing_deregister":
            self.standing.pop(record["name"], None)
        elif kind == "case":
            merged = dict(self.cases.get(record["case_id"], {}))
            merged.update(record)
            self.cases[record["case_id"]] = merged
        elif kind == "deadletter":
            sig = self.signature(record["world_key"], record["query"])
            self.deadletter[sig] = record
        elif kind == "deadletter_drain":
            for sig in record.get("sigs", []):
                self.deadletter.pop(sig, None)
        # unknown kinds: forward-compatible no-op

    def pending(self) -> list[dict]:
        """Journaled submissions with no journaled completion — exactly the
        jobs a resumed campaign must run again (cancellations already
        dropped out of ``submits``)."""
        rows = [rec for key, rec in self.submits.items()
                if key not in self.completions]
        rows.sort(key=lambda r: ticket_number(r.get("ticket", "")))
        return rows

    def open_cases(self) -> list[dict]:
        return [rec for rec in self.cases.values()
                if rec.get("state") not in ("completed", "failed", "closed")]

    def to_payload(self) -> dict:
        return {
            "submits": self.submits,
            "tickets": self.tickets,
            "completions": self.completions,
            "claims": self.claims,
            "retries": self.retries,
            "cancelled": sorted(self.cancelled),
            "standing": self.standing,
            "cases": self.cases,
            "deadletter": self.deadletter,
            "max_ticket": self.max_ticket,
            "applied": self.applied,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalState":
        state = cls(
            submits=dict(payload.get("submits", {})),
            tickets=dict(payload.get("tickets", {})),
            completions=dict(payload.get("completions", {})),
            claims=dict(payload.get("claims", {})),
            retries={k: int(v) for k, v in payload.get("retries", {}).items()},
            cancelled=set(payload.get("cancelled", [])),
            standing=dict(payload.get("standing", {})),
            cases=dict(payload.get("cases", {})),
            deadletter=dict(payload.get("deadletter", {})),
            max_ticket=int(payload.get("max_ticket", 0)),
            applied=int(payload.get("applied", 0)),
        )
        return state


@dataclass
class ReplayStats:
    """What opening a journal found on disk."""

    replayed_records: int = 0
    truncated_bytes: int = 0
    segments: int = 0
    checkpoint: str = ""
    checkpoint_records: int = 0

    def to_dict(self) -> dict:
        return {
            "replayed_records": self.replayed_records,
            "truncated_bytes": self.truncated_bytes,
            "segments": self.segments,
            "checkpoint": self.checkpoint,
            "checkpoint_records": self.checkpoint_records,
        }


def replay_directory(directory: str,
                     truncate: bool = True) -> tuple[JournalState, ReplayStats]:
    """Reduce checkpoint + newer segments into a :class:`JournalState`.

    Newest *loadable* checkpoint wins (a checkpoint torn by a crash during
    compaction is skipped and its covered segments replayed instead);
    every segment tail is validated and — with ``truncate`` — repaired in
    place.
    """
    state = JournalState()
    stats = ReplayStats()
    start_segment = 0
    for seq, path in reversed(checkpoint_paths(directory)):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            if doc.get("version") != 1:
                raise JournalError(
                    f"checkpoint {path} has unsupported version "
                    f"{doc.get('version')!r}")
            state = JournalState.from_payload(doc["state"])
        except JournalError:
            raise
        except Exception:
            continue  # torn/partial checkpoint: fall back to the previous one
        start_segment = seq
        stats.checkpoint = path
        stats.checkpoint_records = state.applied
        break
    for seq, path in segment_paths(directory):
        if seq < start_segment:
            continue  # already folded into the checkpoint
        records, torn = read_segment(path, truncate=truncate)
        stats.segments += 1
        stats.truncated_bytes += torn
        for record in records:
            state.apply(record)
            stats.replayed_records += 1
    return state, stats


# -- the writer ---------------------------------------------------------------


class WriteAheadJournal:
    """Append-only journal over one directory; safe for concurrent appends.

    Opening replays whatever the directory holds (surviving checkpoint +
    segment tails, torn tails truncated) into :attr:`state`, then starts a
    fresh segment — an appender never continues a segment it did not
    validate byte-by-byte.
    """

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = 1_000_000,
        checkpoint_every: int = 1000,
        fsync: bool = True,
        metrics: MetricsRegistry | None = None,
    ):
        if max_segment_bytes < 1024:
            raise ValueError("max_segment_bytes must be >= 1024")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.directory = directory
        self.max_segment_bytes = max_segment_bytes
        self.checkpoint_every = checkpoint_every
        self.fsync_enabled = fsync
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._appends = self.metrics.counter("journal_appends_total")
        self._fsync_ms = self.metrics.histogram("journal_fsync_ms",
                                                buckets=FSYNC_MS_BUCKETS)
        self._checkpoints = self.metrics.counter("journal_checkpoints_total")
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)
        self.state, self.replay_stats = replay_directory(directory)
        existing = segment_paths(directory)
        last_seq = existing[-1][0] if existing else 0
        for seq, path in checkpoint_paths(directory):
            last_seq = max(last_seq, seq)
        self._segment_seq = last_seq  # _rotate() opens last_seq + 1
        self._handle = None
        self._segment_bytes = 0
        self._since_checkpoint = 0
        self._closed = False
        self._rotate_locked()

    # -- append path -------------------------------------------------------

    def append(self, kind: str, record: dict, sync: bool | None = None) -> dict:
        """Durably append one record (and fold it into :attr:`state`).

        Returns the full record as written, timestamped.  The write is
        flushed and fsync'd before this returns — a caller that acts on
        the appended fact can rely on recovery seeing it.  ``sync=False``
        skips the fsync for records that merely enrich recovery (claims);
        they still flush to the OS, so only a machine-level crash — not a
        process kill — can shed them.
        """
        full = {"kind": kind, "ts": time.time(), **record}
        framed = encode_record(full)
        do_sync = self.fsync_enabled if sync is None else (
            sync and self.fsync_enabled)
        with self._lock:
            if self._closed:
                raise JournalError("journal is closed")
            self._handle.write(framed)
            self._handle.flush()
            if do_sync:
                started = time.perf_counter()
                os.fsync(self._handle.fileno())
                self._fsync_ms.observe(
                    (time.perf_counter() - started) * 1000.0)
            self.state.apply(full)
            self._segment_bytes += len(framed)
            self._since_checkpoint += 1
            self._appends.inc()
            if self._since_checkpoint >= self.checkpoint_every:
                self._checkpoint_locked()
            elif self._segment_bytes >= self.max_segment_bytes:
                self._rotate_locked()
        return full

    def _rotate_locked(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync_enabled:
                os.fsync(self._handle.fileno())
            self._handle.close()
        self._segment_seq += 1
        path = os.path.join(
            self.directory,
            f"{SEGMENT_PREFIX}{self._segment_seq:08d}{SEGMENT_SUFFIX}")
        self._handle = open(path, "ab")
        self._segment_bytes = 0
        _fsync_dir(self.directory)

    def _checkpoint_locked(self) -> None:
        """Compact: persist the reduced state, then delete covered files.

        The new segment opens *before* the checkpoint lands, so a crash at
        any point leaves either (old checkpoint + all segments) or (new
        checkpoint + uncovered segments) — both replay to the same state.
        """
        self._rotate_locked()
        covered_before = self._segment_seq
        doc = {
            "version": 1,
            "next_segment": covered_before,
            "records": self.state.applied,
            "state": self.state.to_payload(),
        }
        path = os.path.join(
            self.directory,
            f"{CHECKPOINT_PREFIX}{covered_before:08d}{CHECKPOINT_SUFFIX}")
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        _fsync_dir(self.directory)
        for seq, seg_path in segment_paths(self.directory):
            if seq < covered_before:
                try:
                    os.unlink(seg_path)
                except OSError:  # pragma: no cover - raced an inspector
                    pass
        for seq, ckpt_path in checkpoint_paths(self.directory):
            if seq < covered_before:
                try:
                    os.unlink(ckpt_path)
                except OSError:  # pragma: no cover
                    pass
        _fsync_dir(self.directory)
        self._since_checkpoint = 0
        self._checkpoints.inc()

    def checkpoint(self) -> None:
        """Force a compaction now (tests and orderly shutdown)."""
        with self._lock:
            if self._closed:
                raise JournalError("journal is closed")
            self._checkpoint_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is not None:
                self._handle.flush()
                if self.fsync_enabled:
                    os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "directory": self.directory,
                "appended": int(self._appends.value),
                "segment_seq": self._segment_seq,
                "segment_bytes": self._segment_bytes,
                "since_checkpoint": self._since_checkpoint,
                "fsync": self.fsync_enabled,
                "replay": self.replay_stats.to_dict(),
                "pending": len(self.state.pending()),
                "completions": len(self.state.completions),
                "deadletter": len(self.state.deadletter),
            }


# -- dead-letter queue --------------------------------------------------------


class DeadLetterQueue:
    """Quarantine for poison jobs: (world, query) signatures whose repeated
    worker deaths tripped the broker's crash-loop circuit breaker.

    Entries are journaled (when a journal is attached) so quarantine
    survives restarts; draining re-opens the circuit and journals the
    drain, returning the entries for CLI-driven resubmission.
    """

    def __init__(self, journal: WriteAheadJournal | None = None,
                 metrics: MetricsRegistry | None = None):
        self.journal = journal
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: dict[str, dict] = {}
        self._lock = threading.Lock()
        if journal is not None:
            # Re-arm quarantine from the replayed state: a poison job stays
            # poisoned across a broker restart until somebody drains it.
            for sig, record in journal.state.deadletter.items():
                self._entries[sig] = dict(record)
        self.metrics.gauge("deadletter_depth").set_function(lambda: self.depth)

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains(self, world_key: str, query: str) -> bool:
        sig = JournalState.signature(world_key, query)
        with self._lock:
            return sig in self._entries

    def quarantine(self, world_key: str, query: str, *, key: str = "",
                   params: dict | None = None, priority: int = 0,
                   ticket: str = "", crashes: int = 0,
                   worker_slots: list[int] | None = None,
                   error: str = "") -> dict:
        sig = JournalState.signature(world_key, query)
        now = time.time()
        with self._lock:
            entry = self._entries.get(sig)
            if entry is None:
                entry = {
                    "world_key": world_key,
                    "query": query,
                    "key": key,
                    "params": params,
                    "priority": priority,
                    "tickets": [],
                    "crashes": 0,
                    "worker_slots": [],
                    "first_ts": now,
                    "last_ts": now,
                    "error": error,
                }
                self._entries[sig] = entry
                self.metrics.counter("deadletter_quarantined_total").inc()
            if ticket and ticket not in entry["tickets"]:
                entry["tickets"].append(ticket)
            entry["crashes"] = max(entry["crashes"], crashes)
            for slot in worker_slots or ():
                if slot not in entry["worker_slots"]:
                    entry["worker_slots"].append(slot)
            entry["last_ts"] = now
            if error:
                entry["error"] = error
            snapshot = dict(entry)
        if self.journal is not None:
            self.journal.append("deadletter", snapshot)
        return snapshot

    def entries(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._entries.values()]

    def drain(self) -> list[dict]:
        """Release every quarantined entry (journaling the drain) so the
        poison signatures may run again; returns what was released."""
        with self._lock:
            drained = [dict(e) for e in self._entries.values()]
            sigs = list(self._entries)
            self._entries.clear()
        if drained and self.journal is not None:
            self.journal.append("deadletter_drain", {"sigs": sigs})
        return drained

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._entries),
                "quarantined_total": int(
                    self.metrics.total("deadletter_quarantined_total")),
                "signatures": sorted(
                    (e["world_key"], e["query"]) for e in self._entries.values()
                ),
            }
