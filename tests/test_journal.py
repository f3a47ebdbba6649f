"""Durability plane: WAL framing, torn-tail repair, recovery, quarantine."""

import json
import os
import zlib

import pytest

from repro.live import EventBus, ForensicTrigger
from repro.live.forensics import ForensicCase
from repro.live.standing import StandingQuery, StandingQueryManager
from repro.serve import (
    DeadLetterQueue,
    JobState,
    JournalState,
    PoisonJobQuarantined,
    PriorityScheduler,
    QueryBroker,
    QueueSaturated,
    ReplayedResult,
    SchedulerSaturated,
    ServeConfig,
    WriteAheadJournal,
    replay_directory,
    run_campaign,
)
from repro.serve.campaign import CampaignJob
from repro.serve.journal import (
    encode_record,
    iter_valid_records,
    read_segment,
    segment_paths,
)
from repro.serve.provenance import ProvenanceLedger
from repro.serve.recovery import restore_ledger

CS1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"


def _submit_record(i, key=None, **extra):
    rec = {"ticket": f"job-{i:06d}", "key": key or f"k{i}", "query": "q",
           "params": None, "world_key": "default", "priority": 0}
    rec.update(extra)
    return rec


def _complete_record(i, key=None, status="done", **extra):
    rec = {"ticket": f"job-{i:06d}", "key": key or f"k{i}", "query": "q",
           "world_key": "default", "status": status, "digest": f"d{i}"}
    rec.update(extra)
    return rec


# -- framing ----------------------------------------------------------------


def test_encode_iter_roundtrip():
    records = [{"kind": "submit", "n": i, "text": "päyload"} for i in range(5)]
    raw = b"".join(encode_record(r) for r in records)
    out = list(iter_valid_records(raw))
    assert [r for _, r in out] == records
    assert out[-1][0] == len(raw)


def test_corrupt_crc_stops_iteration():
    good = encode_record({"kind": "submit", "n": 1})
    bad = bytearray(encode_record({"kind": "submit", "n": 2}))
    bad[25] ^= 0xFF  # flip one payload byte: CRC no longer matches
    out = list(iter_valid_records(good + bytes(bad)))
    assert [r for _, r in out] == [{"kind": "submit", "n": 1}]


def test_non_dict_payload_rejected():
    payload = json.dumps([1, 2, 3]).encode()
    framed = b"%08x %08x " % (zlib.crc32(payload), len(payload)) + payload + b"\n"
    assert list(iter_valid_records(framed)) == []


def test_torn_tail_truncation_at_every_byte_offset(tmp_path):
    """Cut the final record at EVERY byte offset: replay must never raise,
    never resurrect any part of the torn record, and keep every earlier
    record intact."""
    keep = [{"kind": "submit", "n": i} for i in range(3)]
    last = {"kind": "complete", "n": 3, "digest": "x" * 16}
    prefix = b"".join(encode_record(r) for r in keep)
    tail = encode_record(last)
    for cut in range(len(tail)):  # excludes the intact record itself
        path = tmp_path / f"wal-{cut:08d}.log"
        path.write_bytes(prefix + tail[:cut])
        records, torn = read_segment(str(path), truncate=True)
        assert records == keep, f"offset {cut} resurrected a torn record"
        assert torn == cut
        assert path.read_bytes() == prefix  # repaired in place
    # The intact record, for contrast, survives.
    path = tmp_path / "wal-99999999.log"
    path.write_bytes(prefix + tail)
    records, torn = read_segment(str(path))
    assert records == keep + [last] and torn == 0


def test_reopened_journal_appends_after_torn_tail(tmp_path):
    journal = WriteAheadJournal(str(tmp_path))
    journal.append("submit", _submit_record(1))
    journal.close()
    # Tear the live segment mid-record, then reopen and keep appending.
    seq_paths = segment_paths(str(tmp_path))
    seg = seq_paths[-1][1]
    raw = open(seg, "rb").read()
    with open(seg, "wb") as handle:
        handle.write(raw + b"deadbeef torn-gar")
    journal = WriteAheadJournal(str(tmp_path))
    assert journal.replay_stats.truncated_bytes == len(b"deadbeef torn-gar")
    journal.append("complete", _complete_record(1))
    journal.close()
    state, stats = replay_directory(str(tmp_path))
    assert stats.truncated_bytes == 0
    assert state.pending() == []
    assert state.completions["k1"]["digest"] == "d1"


# -- rotation, checkpointing, compaction ------------------------------------


def test_segment_rotation_bounds_file_size(tmp_path):
    journal = WriteAheadJournal(str(tmp_path), max_segment_bytes=1024,
                                checkpoint_every=10_000)
    for i in range(40):
        journal.append("submit", _submit_record(i))
    journal.close()
    seqs = segment_paths(str(tmp_path))
    assert len(seqs) > 1
    state, stats = replay_directory(str(tmp_path))
    assert stats.replayed_records == 40
    assert len(state.pending()) == 40


def test_checkpoint_compacts_and_preserves_state(tmp_path):
    journal = WriteAheadJournal(str(tmp_path), checkpoint_every=8)
    for i in range(20):
        journal.append("submit", _submit_record(i))
    for i in range(12):
        journal.append("complete", _complete_record(i))
    journal.close()
    # Compaction deleted covered segments: footprint is one checkpoint plus
    # the segments appended since.
    assert len(segment_paths(str(tmp_path))) <= 2
    state, stats = replay_directory(str(tmp_path))
    assert stats.checkpoint  # a checkpoint was loaded
    assert len(state.completions) == 12
    assert [r["ticket"] for r in state.pending()] == [
        f"job-{i:06d}" for i in range(12, 20)
    ]


def test_torn_checkpoint_falls_back_to_older_one(tmp_path):
    journal = WriteAheadJournal(str(tmp_path))
    for i in range(6):
        journal.append("submit", _submit_record(i))
    journal.checkpoint()
    journal.append("complete", _complete_record(0))
    journal.close()
    # A crash mid-compaction leaves a garbage newer checkpoint.
    (tmp_path / "checkpoint-00000099.json").write_bytes(b'{"version": 1, "st')
    state, stats = replay_directory(str(tmp_path))
    assert "checkpoint-00000099" not in stats.checkpoint
    assert len(state.completions) == 1
    assert len(state.pending()) == 5


def test_unsupported_checkpoint_version_raises(tmp_path):
    (tmp_path / "checkpoint-00000001.json").write_text(
        json.dumps({"version": 99, "state": {}}))
    from repro.serve.journal import JournalError

    with pytest.raises(JournalError):
        replay_directory(str(tmp_path))


# -- the state reducer ------------------------------------------------------


def test_reducer_cancel_removes_pending_and_unknown_kinds_are_noops():
    state = JournalState()
    state.apply({"kind": "submit", **_submit_record(1)})
    state.apply({"kind": "submit", **_submit_record(2)})
    state.apply({"kind": "cancel", "ticket": "job-000001"})
    state.apply({"kind": "from_the_future", "anything": True})
    assert [r["ticket"] for r in state.pending()] == ["job-000002"]
    assert state.max_ticket == 2


def test_reducer_deadletter_drain_roundtrip():
    state = JournalState()
    state.apply({"kind": "deadletter", "world_key": "w", "query": "q"})
    sig = JournalState.signature("w", "q")
    assert sig in state.deadletter
    state.apply({"kind": "deadletter_drain", "sigs": [sig]})
    assert state.deadletter == {}


def test_replayed_result_quacks_like_pipeline_result():
    result = ReplayedResult({"status": "done", "digest": "abc",
                             "final": {"ranking": []}, "query": CS1})
    assert result.execution.succeeded
    assert result.artifact_digest() == "abc"
    assert result.execution.outputs["final"] == {"ranking": []}
    assert result.replayed and result.stage_trace == []
    failed = ReplayedResult({"status": "failed", "error": "boom"})
    assert not failed.execution.succeeded and failed.execution.error == "boom"


def test_restore_ledger_rebuilds_completion_rows():
    state = JournalState()
    state.apply({"kind": "submit", "ts": 1.0, **_submit_record(1)})
    state.apply({"kind": "claim", "ticket": "job-000001", "worker": "w-0",
                 "ts": 2.0})
    state.apply({"kind": "retry", "ticket": "job-000001"})
    state.apply({"kind": "complete", "ts": 3.0, **_complete_record(1)})
    ledger = ProvenanceLedger()
    assert restore_ledger(ledger, state) == 1
    entry = ledger.get("job-000001")
    assert entry.worker == "w-0"
    assert entry.retries == 1
    assert entry.status == "done"
    assert entry.submitted_at == 1.0 and entry.finished_at == 3.0


# -- dead-letter queue ------------------------------------------------------


def test_deadletter_quarantine_drain_survives_reopen(tmp_path):
    with WriteAheadJournal(str(tmp_path)) as journal:
        queue = DeadLetterQueue(journal=journal)
        queue.quarantine("default", CS1, key="k", crashes=3,
                         worker_slots=[0, 1], error="3 worker deaths")
        assert queue.depth == 1 and queue.contains("default", CS1)
    # Reopen: quarantine re-arms from the journal.
    with WriteAheadJournal(str(tmp_path)) as journal:
        queue = DeadLetterQueue(journal=journal)
        assert queue.contains("default", CS1)
        drained = queue.drain()
        assert len(drained) == 1
        assert drained[0]["crashes"] == 3
        assert sorted(drained[0]["worker_slots"]) == [0, 1]
        assert queue.depth == 0
    # Reopen again: the drain was journaled too.
    with WriteAheadJournal(str(tmp_path)) as journal:
        queue = DeadLetterQueue(journal=journal)
        assert queue.depth == 0 and not queue.contains("default", CS1)


def test_scheduler_saturation_raises():
    scheduler = PriorityScheduler(max_depth=2)

    class _Job:
        world_key = "default"

    scheduler.push(_Job(), priority=0, shard="default")
    scheduler.push(_Job(), priority=0, shard="default")
    with pytest.raises(SchedulerSaturated):
        scheduler.push(_Job(), priority=0, shard="default")
    stats = scheduler.stats()
    assert stats["rejected"] == 1 and stats["max_depth"] == 2


# -- journaled broker: exactly-once resume ----------------------------------


@pytest.fixture()
def journaled_broker(world, tmp_path):
    def make():
        return QueryBroker(world, config=ServeConfig(
            workers=2, journal_dir=str(tmp_path / "wal"))).start()
    return make


def test_campaign_resume_replays_completions_byte_identically(
        world, journaled_broker):
    jobs = [CampaignJob(query=CS1, tag="cs1"),
            CampaignJob(query=CS1.replace("SeaMeWe-5", "FALCON"), tag="falcon")]
    broker = journaled_broker()
    try:
        report = run_campaign(broker, jobs, timeout=120)
        assert report.all_succeeded and report.replayed == 0
        digests = sorted(broker.wait(t).result.artifact_digest()
                         for t in report.tickets)
    finally:
        broker.shutdown()
    broker = journaled_broker()
    try:
        assert broker.recovery.completions == 2
        assert broker.recovery.pending == []
        report2 = run_campaign(broker, jobs, timeout=120)
        assert report2.all_succeeded
        assert report2.replayed == 2  # nothing re-ran
        digests2 = sorted(broker.wait(t).result.artifact_digest()
                          for t in report2.tickets)
        assert digests2 == digests
        assert all(broker.job(t).replayed for t in report2.tickets)
    finally:
        broker.shutdown()


def test_submit_during_completion_append_joins_instead_of_rerunning(
        world, tmp_path):
    """A resubmission that lands while the first run's ``complete`` record
    is being appended must join that run: the key stays live until the
    completion is recorded, so the job executes and completes once."""
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=str(tmp_path / "wal"))).start()
    append = broker.journal.append
    appended, racing = [], []

    def append_racing_a_resubmit(kind, payload, **kwargs):
        if kind == "complete" and not racing:
            racing.append(broker.submit(CS1))
        appended.append((kind, payload))
        return append(kind, payload, **kwargs)

    broker.journal.append = append_racing_a_resubmit
    try:
        first = broker.submit(CS1)
        assert broker.wait(first, timeout=120).state is JobState.DONE
        assert broker.wait(racing[0], timeout=120).state is JobState.DONE
    finally:
        broker.shutdown()
    assert [kind for kind, _ in appended].count("claim") == 1
    assert [p["status"] for kind, p in appended if kind == "complete"] == ["done"]


def test_job_key_material_is_pinned(world):
    """Journals written by earlier versions must re-join, so the key stays
    blake2b-128 over NUL-joined shard key, world fingerprint, query text
    and sort-keyed JSON params."""
    import hashlib

    from repro.serve import job_key

    shard = QueryBroker(world).shard()
    params = {"window_days": 3, "corridor": "europe->asia"}
    material = "\x00".join((
        "default", world.fingerprint(), CS1,
        '{"corridor": "europe->asia", "window_days": 3}',
    ))
    assert job_key(shard, CS1, params) == hashlib.blake2b(
        material.encode("utf-8"), digest_size=16).hexdigest()
    assert job_key(shard, CS1, None) == hashlib.blake2b(
        "\x00".join(("default", world.fingerprint(), CS1, "")).encode("utf-8"),
        digest_size=16).hexdigest()


def test_unfinished_submissions_resume_on_start(world, tmp_path):
    wal = str(tmp_path / "wal")
    # Forge a crashed run: a journaled submission with no completion.
    with WriteAheadJournal(wal) as journal:
        from repro.serve import job_key

        config = ServeConfig(workers=1, journal_dir=wal)
        probe = QueryBroker(world, config=config)
        key = job_key(probe.shard(), CS1, None)
        probe.shutdown()
        journal.append("submit", {"ticket": "job-000007", "key": key,
                                  "query": CS1, "params": None,
                                  "world_key": "default", "priority": 0})
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=wal)).start()
    try:
        assert broker.recovery.resubmitted == 1
        # The resumed job and a duplicate campaign submit share one ticket.
        ticket = broker.submit(CS1)
        job = broker.wait(ticket, timeout=120)
        assert job.state is JobState.DONE
        assert broker.stats()["submitted"] == 1
    finally:
        broker.shutdown()


def test_failed_completion_reruns_fresh(world, tmp_path):
    wal = str(tmp_path / "wal")
    config = ServeConfig(workers=1, journal_dir=wal)
    probe = QueryBroker(world, config=config)
    from repro.serve import job_key

    key = job_key(probe.shard(), CS1, None)
    probe.shutdown()
    with WriteAheadJournal(wal) as journal:
        journal.append("submit", {"ticket": "job-000001", "key": key,
                                  "query": CS1, "params": None,
                                  "world_key": "default", "priority": 0})
        journal.append("complete", {"ticket": "job-000001", "key": key,
                                    "query": CS1, "world_key": "default",
                                    "status": "failed", "error": "crash"})
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=wal)).start()
    try:
        ticket = broker.submit(CS1)
        job = broker.wait(ticket, timeout=120)
        assert not job.replayed  # failed completions re-run, not re-join
        assert job.state is JobState.DONE
    finally:
        broker.shutdown()


def test_circuit_open_submission_goes_straight_to_quarantine(world, tmp_path):
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=str(tmp_path / "wal"))).start()
    try:
        broker.deadletter.quarantine("default", CS1, crashes=3,
                                     error="3 worker deaths")
        ticket = broker.submit(CS1)
        job = broker.wait(ticket, timeout=10)
        assert job.state is JobState.QUARANTINED
        assert "circuit breaker" in job.error
        assert broker.stats()["finished_total"]["quarantined"] == 1
        assert broker.ledger.get(ticket).status == "quarantined"
        # Draining re-closes the circuit: the same query runs for real.
        assert len(broker.deadletter.drain()) == 1
        ticket = broker.submit(CS1)
        assert broker.wait(ticket, timeout=120).state is JobState.DONE
    finally:
        broker.shutdown()


def test_quarantined_outcome_settles_ticket(world, tmp_path):
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=str(tmp_path / "wal")))
    try:
        ticket = broker.submit(CS1)
        job = broker.job(ticket)
        job.state = JobState.RUNNING  # as if a worker had claimed it
        broker._settle(job, PoisonJobQuarantined("3 worker deaths"))
        assert job.state is JobState.QUARANTINED
        assert broker.journal.state.completions[job.key]["quarantined"] is True
    finally:
        broker.shutdown()


# -- standing/forensic journaling -------------------------------------------


def test_standing_registrations_journal_and_restore(world, tmp_path):
    wal = str(tmp_path / "wal")
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=wal))
    manager = StandingQueryManager(broker)
    manager.register(StandingQuery(name="watch", query=CS1, priority=2,
                                   every_n_epochs=3))
    manager.register(StandingQuery(name="gone", query=CS1))
    manager.deregister("gone")
    broker.shutdown()

    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=wal))
    try:
        assert [r["name"] for r in broker.recovery.standing] == ["watch"]
        manager = StandingQueryManager(broker)
        restored = manager.restore_registrations()
        assert [sq.name for sq in restored] == ["watch"]
        assert restored[0].priority == 2
        assert restored[0].every_n_epochs == 3
        assert manager.names() == ["watch"]
        # Idempotent: nothing new on a second pass.
        assert manager.restore_registrations() == []
    finally:
        broker.shutdown()


def test_forensic_case_transitions_journal_open_and_close(world, tmp_path):
    wal = str(tmp_path / "wal")
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=wal))
    bus = EventBus()
    trigger = ForensicTrigger(bus, broker)
    trigger._journal_case({"case_id": "case-001", "state": "open",
                           "alert_kind": "rtt_shift"})
    broker.shutdown()
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=wal))
    try:
        assert [c["case_id"] for c in broker.recovery.open_cases] == ["case-001"]
        trigger = ForensicTrigger(bus, broker)
        trigger._journal_case({"case_id": "case-001", "state": "closed",
                               "verdict": "confirmed"})
        assert broker.journal.state.open_cases() == []
        merged = broker.journal.state.cases["case-001"]
        assert merged["alert_kind"] == "rtt_shift"  # transitions merged
        assert merged["verdict"] == "confirmed"
    finally:
        broker.shutdown()


def test_forensic_trigger_backs_off_then_succeeds(world, monkeypatch):
    from repro.live.forensics import TriggerPolicy

    broker = QueryBroker(world, config=ServeConfig(workers=1))
    try:
        bus = EventBus()
        trigger = ForensicTrigger(
            bus, broker,
            policy=TriggerPolicy(submit_retry_limit=3, submit_backoff_s=0.0))
        calls = {"n": 0}

        def flaky_submit(query, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise QueueSaturated("full")
            return "job-000042"

        monkeypatch.setattr(broker, "submit", flaky_submit)
        case = ForensicCase(
            case_id="case-001", alert_kind="rtt_shift", series_key="DE->JP",
            alert_epoch=1, alert_magnitude=9.0, episode_epoch=1,
            event_id=None, expected_cables=(), fingerprint="fp",
            query=CS1, world_key="default")
        assert trigger._submit_with_backoff(case) == "job-000042"
        assert calls["n"] == 3
        assert trigger._counts["submit_retries"] == 2
        assert trigger._counts["submit_rejected"] == 0
    finally:
        broker.shutdown()


def test_forensic_trigger_rejection_is_counted_not_silent(world, monkeypatch):
    from repro.live.forensics import TriggerPolicy

    broker = QueryBroker(world, config=ServeConfig(workers=1))
    try:
        bus = EventBus()
        trigger = ForensicTrigger(
            bus, broker,
            policy=TriggerPolicy(submit_retry_limit=1, submit_backoff_s=0.0))

        def saturated_submit(query, **kwargs):
            raise QueueSaturated("full")

        monkeypatch.setattr(broker, "submit", saturated_submit)
        case = ForensicCase(
            case_id="case-001", alert_kind="rtt_shift", series_key="DE->JP",
            alert_epoch=1, alert_magnitude=9.0, episode_epoch=1,
            event_id=None, expected_cables=(), fingerprint="fp",
            query=CS1, world_key="default")
        assert trigger._submit_with_backoff(case) is None
        assert trigger._counts["submit_rejected"] == 1
        snapshot = trigger._metrics.snapshot()
        assert any("forensic_submit_rejected_total" in name
                   for name in snapshot.get("counters", snapshot))
    finally:
        broker.shutdown()


# -- introspection surfaces -------------------------------------------------


def test_debug_deadletter_endpoint(world, tmp_path):
    import urllib.request

    from repro.obs import ObsServer

    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=str(tmp_path / "wal")))
    broker.deadletter.quarantine("default", CS1, crashes=2, worker_slots=[0])
    server = ObsServer(port=0, broker=broker).start()
    try:
        with urllib.request.urlopen(server.url("/debug/deadletter")) as resp:
            doc = json.loads(resp.read())
        assert doc["depth"] == 1
        assert doc["entries"][0]["query"] == CS1
        assert doc["entries"][0]["crashes"] == 2
    finally:
        server.stop()
        broker.shutdown()


def test_cli_drain_deadletter(world, tmp_path, capsys):
    from repro.cli import main

    wal = str(tmp_path / "wal")
    with WriteAheadJournal(wal) as journal:
        DeadLetterQueue(journal=journal).quarantine(
            "default", CS1, crashes=3, worker_slots=[0, 1])
    assert main(["--drain-deadletter", "--journal-dir", wal]) == 0
    out = capsys.readouterr().out
    assert "drained 1 quarantined signature" in out
    with WriteAheadJournal(wal) as journal:
        assert DeadLetterQueue(journal=journal).depth == 0
    # Draining an empty queue is a no-op, not an error.
    assert main(["--drain-deadletter", "--journal-dir", wal]) == 0
    assert "nothing drained" in capsys.readouterr().out
    # And it requires a journal directory to act on.
    assert main(["--drain-deadletter"]) == 2


def test_journal_metrics_surface(world, tmp_path):
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=str(tmp_path / "wal"))).start()
    try:
        ticket = broker.submit(CS1)
        broker.wait(ticket, timeout=120)
        text = broker.metrics.prometheus_text(refresh=True)
        assert "journal_appends_total" in text
        assert "journal_fsync_ms" in text
        assert "recovery_replayed_records" in text
        assert "deadletter_depth" in text
    finally:
        broker.shutdown()
