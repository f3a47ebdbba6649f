"""Chaos testing: worker processes die at adversarial moments and the
serve plane must absorb it — retry-once provenance, no hung broker, no
leaked shared-memory segments, and the surviving pool still serves.

These are marked ``chaos``: CI runs them in their own lane
(``-m "chaos or slow"``) so the default tier-1 lane stays fast.
"""

import os
import random
import time

import pytest

from repro.serve import QueryBroker, ServeConfig, JobState
from repro.serve import transport
from repro.serve.backends import FAULT_PARAM
from repro.synth.world import WorldConfig, build_world

QUERY = "Identify the impact at a country level due to {} cable failure"


@pytest.fixture(scope="module")
def chaos_world():
    return build_world(WorldConfig(seed=3, tier1_count=6, tier2_per_region=2,
                                   edge_density=0.5))


def _leaked_segments():
    try:
        return [f for f in os.listdir("/dev/shm")
                if f.startswith(f"{transport.SEGMENT_PREFIX}-")]
    except FileNotFoundError:  # non-Linux: lifecycle covered by decode tests
        return []


def _slow_params(seconds: float) -> dict:
    """Fault-injection params: hold the worker busy so a kill lands mid-job."""
    return {FAULT_PARAM: {"sleep_s": seconds}}


@pytest.mark.chaos
def test_kill_worker_mid_campaign_retries_once_and_settles(chaos_world):
    """Hard-kill a worker while its jobs are in flight: every ticket must
    settle DONE (retried on a surviving slot), provenance must record the
    retries, and the broker must not hang."""
    cables = chaos_world.cable_names()
    broker = QueryBroker(
        chaos_world,
        config=ServeConfig(workers=2, backend="process"),
    ).start()
    try:
        tickets = [
            broker.submit(QUERY.format(cables[i % len(cables)]),
                          params=_slow_params(0.8))
            for i in range(4)
        ]
        time.sleep(0.4)  # let the jobs land in the workers' laps
        broker.backend.kill_worker(0)
        finished = broker.wait_all(tickets, timeout=300)
        assert all(job.state is JobState.DONE for job in finished), [
            (j.ticket, j.state.value, j.error) for j in finished
        ]
        retried = sum(broker.ledger.get(t).retries for t in tickets)
        assert retried >= 1, "the killed worker's in-flight jobs must retry"
        assert all(broker.ledger.get(t).retries <= 1 for t in tickets)
        stats = broker.stats()["backend"]
        assert stats["respawns"] >= 1
    finally:
        broker.shutdown()
    assert _leaked_segments() == []


@pytest.mark.chaos
def test_seeded_random_kills_never_hang_the_broker(chaos_world):
    """A seeded chaos monkey kills a random worker at a random moment in
    each round; the broker must settle every ticket every round."""
    rng = random.Random(1337)
    cables = chaos_world.cable_names()
    broker = QueryBroker(
        chaos_world,
        config=ServeConfig(workers=2, backend="process",
                           cache_enabled=False),
    ).start()
    try:
        for round_no in range(2):
            tickets = [
                broker.submit(QUERY.format(rng.choice(cables)),
                              params=_slow_params(0.6))
                for _ in range(3)
            ]
            time.sleep(rng.uniform(0.1, 0.5))
            broker.backend.kill_worker(rng.randrange(2))
            finished = broker.wait_all(tickets, timeout=300)
            # Settled is the invariant; DONE unless the retry itself was
            # killed (a double-fault this round does not inject).
            assert all(job.state is JobState.DONE for job in finished), [
                (round_no, j.state.value, j.error) for j in finished
            ]
    finally:
        broker.shutdown()
    assert _leaked_segments() == []


@pytest.mark.chaos
def test_kill_both_workers_sequentially_pool_recovers(chaos_world):
    """Kill every slot (one at a time, letting the monitor respawn): the
    pool must keep serving and end with a full complement of workers."""
    cable = chaos_world.cable_names()[0]
    broker = QueryBroker(
        chaos_world, config=ServeConfig(workers=2, backend="process")
    ).start()
    try:
        assert broker.result(broker.submit(QUERY.format(cable)), timeout=300)
        for index in range(2):
            broker.backend.kill_worker(index)
            ticket = broker.submit(QUERY.format(cable),
                                   params=_slow_params(0.1))
            job = broker.wait(ticket, timeout=300)
            assert job.state is JobState.DONE, job.error
        stats = broker.stats()["backend"]
        assert stats["respawns"] >= 2
        alive = [slot.process.is_alive() for slot in broker.backend._slots]
        assert all(alive)
    finally:
        broker.shutdown()
    assert _leaked_segments() == []


@pytest.mark.chaos
def test_kill_during_forensic_replay_loop_still_closes(chaos_world):
    """Chaos inside the closed loop: a worker dies while a triggered
    forensic query is in flight; the case must still reach a verdict."""
    import threading

    from repro.live import ALERTS_TOPIC, EventBus, ForensicTrigger, compose_fingerprint
    from repro.live.clock import EpochState

    cable = chaos_world.cable_named(chaos_world.cable_names()[0])
    links = frozenset(l.id for l in chaos_world.links_on_cable(cable.id))
    broker = QueryBroker(
        chaos_world, config=ServeConfig(workers=2, backend="process")
    ).start()
    try:
        bus = EventBus()
        trigger = ForensicTrigger(bus, broker)
        state = EpochState(
            index=1, window_start=3600.0, window_end=7200.0,
            fingerprint=compose_fingerprint(chaos_world.fingerprint(), links),
            failed_link_ids=links, failed_cable_ids=(cable.id,),
            active_event_ids=(), changed=True,
        )
        bus.publish(ALERTS_TOPIC, {
            "detector": "t", "kind": "rtt_shift", "series_key": "DE->JP",
            "epoch": 1, "ts": 7200.0, "magnitude": 40.0, "detail": {},
        })
        opened = trigger.on_epoch(state)
        assert len(opened) == 1
        killer = threading.Timer(0.3, broker.backend.kill_worker, args=(0,))
        killer.start()
        try:
            joined = trigger.collect(timeout=300)
        finally:
            killer.cancel()
        assert joined[0].state == "done"
        assert joined[0].verdict in ("confirmed", "mismatch", "undetermined")
    finally:
        broker.shutdown()
    assert _leaked_segments() == []


_RUNNER = """\
import sys

from repro.serve import QueryBroker, ServeConfig, run_campaign
from repro.serve.campaign import CampaignJob
from repro.synth.world import WorldConfig, build_world

QUERY = "Identify the impact at a country level due to {} cable failure"
world = build_world(WorldConfig(seed=3, tier1_count=6, tier2_per_region=2,
                                edge_density=0.5))
jobs = [CampaignJob(query=QUERY.format(cable), tag=cable)
        for cable in world.cable_names()]
broker = QueryBroker(world, config=ServeConfig(
    workers=1, journal_dir=sys.argv[1])).start()
run_campaign(broker, jobs, timeout=600)
broker.shutdown()
"""


def _campaign_digests(world, journal_dir, jobs):
    """Run the campaign against a journaled broker; return tag -> digest."""
    from repro.serve import run_campaign

    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=journal_dir)).start()
    try:
        report = run_campaign(broker, jobs, timeout=600)
        assert report.all_succeeded, report.outcomes
        digests = {
            row["tag"]: broker.wait(row["ticket"]).result.artifact_digest()
            for row in report.outcomes
        }
        return digests, report, broker.recovery
    finally:
        broker.shutdown()


@pytest.mark.chaos
def test_sigkill_broker_mid_campaign_resumes_exactly_once(chaos_world,
                                                          tmp_path):
    """The tentpole invariant: SIGKILL the *broker process* mid-campaign,
    restart on the same journal, and the resumed campaign must (a) produce
    aggregate artifact digests byte-identical to an uninterrupted run and
    (b) execute no journaled-complete job twice — exactly-once resume."""
    import signal
    import subprocess
    import sys

    from repro.serve.campaign import CampaignJob
    from repro.serve.journal import replay_directory, segment_paths

    # CI points JOURNAL_DUMP_DIR at a workspace directory and uploads the
    # surviving journal as a build artifact (postmortem evidence of the
    # kill, the resume, and the dedup).
    base = os.environ.get("JOURNAL_DUMP_DIR") or str(tmp_path)
    os.makedirs(base, exist_ok=True)
    wal = os.path.join(base, "wal-interrupted")
    runner = tmp_path / "runner.py"
    runner.write_text(_RUNNER)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen([sys.executable, str(runner), wal], env=env)
    jobs = [CampaignJob(query=QUERY.format(cable), tag=cable)
            for cable in chaos_world.cable_names()]
    try:
        # Poll the journal (read-only: truncate=False — the victim still
        # owns the live segment) until the campaign is provably mid-flight.
        deadline = time.time() + 300
        while time.time() < deadline:
            if proc.poll() is not None:
                break
            if os.path.isdir(wal):
                state, _ = replay_directory(wal, truncate=False)
                if state.completions:
                    break
            time.sleep(0.02)
        killed_midway = proc.poll() is None
        if killed_midway:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    state, _ = replay_directory(wal, truncate=False)
    assert state.completions, "the victim never journaled a completion"
    if killed_midway:
        assert len(state.completions) < len(jobs), (
            "kill landed after the campaign finished; nothing to resume"
        )

    # Restart on the same journal and finish the campaign.
    digests, report, recovery = _campaign_digests(chaos_world, wal, jobs)
    assert recovery.completions >= 1
    # Every journaled completion re-joins without re-executing; pending
    # jobs the broker resubmitted at start() that finish before the
    # campaign's own submits re-join too, so >= not ==.
    assert report.replayed >= recovery.completions, (
        "a journaled completion was re-executed instead of re-joined"
    )

    # An uninterrupted control run must agree byte-for-byte.
    control, _, _ = _campaign_digests(
        chaos_world, os.path.join(base, "wal-clean"), jobs)
    assert digests == control

    # Exactly-once: across every surviving journal record, no job key has
    # more than one successful completion (no duplicate side effects).
    from repro.serve.journal import read_segment

    done_per_key = {}
    for _seq, path in segment_paths(wal):
        records, _ = read_segment(path, truncate=False)
        for record in records:
            if record.get("kind") == "complete" and \
                    record.get("status") == "done":
                key = record["key"]
                done_per_key[key] = done_per_key.get(key, 0) + 1
    assert done_per_key, "no completions journaled"
    duplicates = {k: n for k, n in done_per_key.items() if n > 1}
    assert not duplicates, duplicates
    assert _leaked_segments() == []


@pytest.mark.chaos
def test_crash_loop_trips_breaker_into_journaled_deadletter(chaos_world,
                                                            tmp_path):
    """A poison job that kills every worker it touches must stop killing
    the pool: after the crash-loop threshold its signature is quarantined
    into the journaled dead-letter queue, and the quarantine survives a
    broker restart — resubmitting the poison query costs zero workers."""
    wal = str(tmp_path / "wal")
    broker = QueryBroker(
        chaos_world,
        config=ServeConfig(workers=2, backend="process", journal_dir=wal),
    ).start()
    try:
        # Distinct params so the journal's in-flight dedup doesn't collapse
        # the submissions into one job; the breaker keys on (world, query)
        # alone, so all four still charge the same signature.
        tickets = [
            broker.submit("poison probe",
                          params={FAULT_PARAM: "exit", "_probe": n})
            for n in range(4)
        ]
        finished = broker.wait_all(tickets, timeout=300)
        states = {job.state for job in finished}
        assert states <= {JobState.FAILED, JobState.QUARANTINED}, states
        assert JobState.QUARANTINED in states, (
            "the crash loop never tripped the circuit breaker"
        )
        assert broker.deadletter.contains("default", "poison probe")
        respawns_first_run = broker.stats()["backend"]["respawns"]
    finally:
        broker.shutdown()
    # Restart on the same journal: the circuit is still open, so the same
    # query short-circuits to quarantine without touching a worker.
    broker = QueryBroker(
        chaos_world,
        config=ServeConfig(workers=2, backend="process", journal_dir=wal),
    ).start()
    try:
        job = broker.wait(broker.submit("poison probe"), timeout=60)
        assert job.state is JobState.QUARANTINED
        assert broker.stats()["backend"]["respawns"] == 0, (
            "a quarantined signature killed a worker after restart"
        )
        assert respawns_first_run >= 3  # the deaths that tripped the breaker
    finally:
        broker.shutdown()
    assert _leaked_segments() == []


@pytest.mark.chaos
def test_sigkill_leaves_a_flight_dump_with_last_spans(chaos_world, tmp_path):
    """The black box: a SIGKILLed worker's postmortem dump must exist,
    name the retried jobs, and still contain the dead worker's last spans
    (teed into the flight ring before the process died).

    CI points ``FLIGHT_DUMP_DIR`` at a workspace directory and uploads
    whatever lands there as build artifacts."""
    import json

    dump_dir = os.environ.get("FLIGHT_DUMP_DIR") or str(tmp_path)
    cables = chaos_world.cable_names()
    broker = QueryBroker(
        chaos_world,
        config=ServeConfig(workers=2, backend="process",
                           tracing=True, flight=True, flight_dir=dump_dir),
    ).start()
    try:
        pid0 = broker.backend._slots[0].process.pid
        # Warm up until the doomed worker has shipped at least one span
        # back over the reply pipe — that span must survive the SIGKILL.
        for attempt in range(20):
            ticket = broker.submit(QUERY.format(cables[attempt % len(cables)]))
            broker.wait(ticket, timeout=300)
            if any(r["pid"] == pid0 for r in broker.tracer.records()):
                break
        assert any(r["pid"] == pid0 for r in broker.tracer.records()), (
            "worker 0 never produced a span during warmup"
        )

        tickets = [
            broker.submit(QUERY.format(cables[i % len(cables)]),
                          params=_slow_params(0.8))
            for i in range(4)
        ]
        time.sleep(0.4)
        broker.backend.kill_worker(0)
        finished = broker.wait_all(tickets, timeout=300)
        assert all(job.state is JobState.DONE for job in finished)
        retried = [t for t in tickets if broker.ledger.get(t).retries == 1]
        assert retried, "the kill must have landed on at least one job"

        # Every retried job's ledger row points at a real postmortem.
        for ticket in retried:
            dump_path = broker.ledger.get(ticket).flight_dump
            assert dump_path and os.path.exists(dump_path), ticket
            doc = json.loads(open(dump_path).read())
            assert doc["reason"] == "worker_crashed"
            assert ticket in doc["extra"]["tickets"]
            # The dead worker's last shipped span is in the ring.
            assert any(r["kind"] == "span" and r["data"]["pid"] == pid0
                       for r in doc["records"]), dump_path
            assert doc["config"]["workers"] == 2
            assert doc["heartbeats"], "reply metadata heartbeats missing"
        # The SIGKILL respawn itself also dumped (monitor-loop trigger).
        reasons = set()
        for path in broker.flight.dump_paths():
            reasons.add(json.loads(open(path).read())["reason"])
        assert "worker_respawn" in reasons
        assert any(name.startswith("flight-") and name.endswith(".json")
                   for name in os.listdir(dump_dir))
    finally:
        broker.shutdown()
    assert _leaked_segments() == []
