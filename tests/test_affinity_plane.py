"""The process backend's execution plane: shared-memory transport
lifecycle, warm worker caches, crash retry, and epoch-shard retention."""

import os
import time

import pytest

from repro.live.clock import EpochState
from repro.live.standing import StandingQuery, StandingQueryManager
from repro.serve import BrokerError, JobState, QueryBroker, ServeConfig
from repro.serve import transport
from repro.serve.backends import FAULT_PARAM
from repro.synth.world import WorldConfig, build_world

QUERY = "Identify the impact at a country level due to {} cable failure"


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig())


def _leaked_segments():
    try:
        return [f for f in os.listdir("/dev/shm")
                if f.startswith(f"{transport.SEGMENT_PREFIX}-")]
    except FileNotFoundError:  # non-Linux: lifecycle covered by decode tests
        return []


# -- transport ---------------------------------------------------------------


@pytest.fixture
def force_shm(monkeypatch):
    """Every payload, however small, takes the shared-memory path."""
    monkeypatch.setattr(transport, "DEFAULT_SHM_MIN_BYTES", 0)


def test_transport_inline_roundtrip():
    obj = {"rows": list(range(50)), "blob": b"x" * 64}
    message = transport.encode(obj)
    assert message[0] == "inline"
    assert transport.decode(message) == obj


def test_transport_shm_roundtrip_large_artifact():
    """A large artifact (out-of-band bytearray buffer) moves through one
    shared-memory segment and the decode consumes — unlinks — it."""
    obj = {"kind": "artifact", "payload": bytearray(b"\xab" * 300_000)}
    message = transport.encode(obj)  # above the threshold: the shm path
    assert message[0] == "shm"
    assert not _leaked_segments() or message[1] in _leaked_segments()
    out = transport.decode(message)
    assert out == obj
    assert message[1] not in _leaked_segments()
    # Double-decode must fail loudly, not resurrect freed memory.
    with pytest.raises(Exception):
        transport.decode(message)


def test_transport_release_unlinks_undecoded_segment(force_shm):
    message = transport.encode({"x": bytes(20)})
    assert message[0] == "shm"
    transport.release(message)
    assert message[1] not in _leaked_segments()
    transport.release(message)  # idempotent


# -- end-to-end shared-memory lifecycle --------------------------------------


def test_campaign_over_shm_leaves_no_segments(world, force_shm):
    """Every result forced through shared memory: byte-identical outcomes,
    zero segments left after the campaign and after shutdown.  The patched
    threshold is in place before ``start`` forks the workers, which inherit
    it."""
    queries = [QUERY.format(name) for name in world.cable_names()[:3]]
    broker = QueryBroker(
        world, config=ServeConfig(workers=2, backend="process"),
    ).start()
    try:
        tickets = [broker.submit(q) for q in queries]
        results = [broker.result(t, timeout=120) for t in tickets]
        assert all(r.execution.succeeded for r in results)
        stats = broker.stats()["backend"]
        assert stats["dispatch"]["shm_results"] == len(queries)
        assert stats["dispatch"]["inline_results"] == 0
        assert _leaked_segments() == []
    finally:
        broker.shutdown()
    assert _leaked_segments() == []


# -- warm worker caches ------------------------------------------------------


def test_affinity_resubmission_sticks_and_hits_warm_cache(world):
    """Identical resubmissions land on warm process-local caches: one at a
    time, every job goes to the least-loaded slot, ties to the lowest
    index, so the second round reaches the worker that ran the first."""
    queries = [QUERY.format(name) for name in world.cable_names()[:4]]
    broker = QueryBroker(
        world, config=ServeConfig(workers=2, backend="process")
    ).start()
    try:
        for q in queries:
            broker.result(broker.submit(q), timeout=120)
        first = broker.stats()["backend"]["cache"]
        for q in queries:
            broker.result(broker.submit(q), timeout=120)
        merged = broker.stats()["backend"]["cache"]
        assert merged is not None and merged["hits"] > first["hits"]
    finally:
        broker.shutdown()


def test_priority_job_overtakes_queued_low_priority_jobs(world):
    """A claimer takes one job at a time, so an urgent submission runs
    next instead of waiting behind low-priority jobs already queued when
    the running one was claimed."""
    cables = world.cable_names()
    broker = QueryBroker(
        world, config=ServeConfig(workers=1, backend="process")
    )
    # Queued before start: the claimer's first pop sees all six.
    slow = broker.submit(QUERY.format(cables[0]),
                         params={FAULT_PARAM: {"sleep_s": 1.0}})
    low = [broker.submit(QUERY.format(cables[i])) for i in range(1, 6)]
    broker.start()
    try:
        deadline = time.monotonic() + 60
        while broker.status(slow) is JobState.QUEUED:
            assert time.monotonic() < deadline, "the slow job never started"
            time.sleep(0.01)
        urgent = broker.submit(QUERY.format(cables[6]), priority=100)
        finished = broker.wait_all([slow, urgent, *low], timeout=300)
        assert all(job.state is JobState.DONE for job in finished)
        finished_at = {t: broker.ledger.get(t).finished_at
                       for t in [urgent, *low]}
        assert finished_at[urgent] < max(finished_at[t] for t in low)
    finally:
        broker.shutdown()


# -- crash retry -------------------------------------------------------------


def test_kill_worker_moves_backend_respawns_gauge(world):
    """The worker-crash SLO reads ``backend_respawns``; a killed worker
    must show up there once the monitor respawns it."""
    broker = QueryBroker(
        world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        gauge = broker.metrics.gauge("backend_respawns")
        broker.metrics.collect()
        assert gauge.value == 0
        broker.backend.kill_worker(0)
        deadline = time.monotonic() + 60
        while broker.backend.stats()["respawns"] == 0:
            assert time.monotonic() < deadline, "the worker was never respawned"
            time.sleep(0.01)
        broker.metrics.collect()
        assert gauge.value == 1
    finally:
        broker.shutdown()


def test_worker_death_retries_once_on_excluded_slot(world):
    """A job whose worker dies is resubmitted once, excluding the failed
    worker slot, and succeeds elsewhere with retries recorded."""
    broker = QueryBroker(
        world, config=ServeConfig(workers=2, backend="process")
    ).start()
    try:
        # Least-loaded assignment on an idle pool starts at slot 0.
        ticket = broker.submit(
            QUERY.format(world.cable_names()[0]),
            params={FAULT_PARAM: {"exit_on_worker": 0}},
        )
        job = broker.wait(ticket, timeout=120)
        assert job.state is JobState.DONE
        assert broker.ledger.get(ticket).retries == 1
        assert broker.stats()["backend"]["respawns"] >= 1
        assert broker.ledger.summary()["retried"] == 1
    finally:
        broker.shutdown()


def test_worker_death_fails_after_single_retry(world):
    """A job that kills every worker it reaches fails after exactly one
    retry instead of crash-looping the pool."""
    broker = QueryBroker(
        world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        ticket = broker.submit(
            QUERY.format(world.cable_names()[0]),
            params={FAULT_PARAM: "exit"},
        )
        job = broker.wait(ticket, timeout=120)
        assert job.state is JobState.FAILED
        assert "WorkerCrashed" in job.error
        assert broker.ledger.get(ticket).retries == 1
        # The pool healed: the respawned worker serves the next job.
        good = broker.submit(QUERY.format(world.cable_names()[1]))
        assert broker.wait(good, timeout=120).state is JobState.DONE
    finally:
        broker.shutdown()


# -- world removal & epoch-shard retention -----------------------------------


def test_remove_world_guards_and_forgets(world):
    broker = QueryBroker(
        world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        broker.add_world("spare", world)
        broker.result(
            broker.submit(QUERY.format(world.cable_names()[0]),
                          world_key="spare"),
            timeout=120,
        )
        assert "spare" in broker.world_keys()
        with pytest.raises(BrokerError, match="unknown world key"):
            broker.remove_world("never-registered")
        broker.remove_world("spare")
        assert "spare" not in broker.world_keys()
        assert "spare" not in broker.backend._templates
        assert all("spare" not in slot.templates_sent
                   for slot in broker.backend._slots)
        with pytest.raises(BrokerError):
            broker.submit("q", world_key="spare")
    finally:
        broker.shutdown()


def test_remove_world_refuses_active_jobs(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    # Not started: the submission stays queued, i.e. active.
    ticket = broker.submit(QUERY.format(world.cable_names()[0]))
    with pytest.raises(BrokerError, match="active job"):
        broker.remove_world("default")
    assert broker.status(ticket) is JobState.QUEUED
    broker.shutdown()


def _epoch(index, fingerprint, failed_cables):
    return EpochState(
        index=index,
        window_start=index * 3600.0,
        window_end=(index + 1) * 3600.0,
        fingerprint=fingerprint,
        failed_link_ids=frozenset(),
        failed_cable_ids=tuple(failed_cables),
        active_event_ids=(),
        changed=True,
    )


def test_epoch_shard_population_is_lru_bounded(world):
    """A long timeline over many distinct configurations keeps at most
    ``max_epoch_shards`` evolved shards registered, evicting LRU-first."""
    cables = list(world.cables)[:3]
    # Cache off so a re-encountered fingerprint re-materializes its shard
    # instead of being served from the standing-query artifact cache.
    with QueryBroker(
        world, config=ServeConfig(workers=1, cache_enabled=False)
    ) as broker:
        manager = StandingQueryManager(broker, max_epoch_shards=2)
        manager.register(StandingQuery(name="watch", query="Identify the "
                         "impact at a country level due to SeaMeWe-5 cable failure"))
        for i, cable_id in enumerate(cables):
            manager.on_epoch(_epoch(i, f"fp-{cable_id}", (cable_id,)))
            collected = manager.collect(timeout=120)
            assert all(r.state == "done" for r in collected)
        stats = manager.stats()
        assert stats["epoch_shards"] == 2
        assert stats["shards_evicted"] == 1
        epoch_keys = [k for k in broker.world_keys() if "@" in k]
        assert len(epoch_keys) == 2
        # The evicted shard was the least recently used: the first config.
        assert f"default@fp-{cables[0]}" not in broker.world_keys()
        # A re-encountered configuration rebuilds transparently.
        manager.on_epoch(_epoch(9, f"fp-{cables[0]}", (cables[0],)))
        assert all(r.state == "done" for r in manager.collect(timeout=120))
        assert manager.stats()["shards_evicted"] == 2
