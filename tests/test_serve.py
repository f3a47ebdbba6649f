"""Serve subsystem: broker, scheduler, workers, cache, campaigns, provenance."""

import threading
import time

import pytest

from repro.serve import (
    ArtifactCache,
    BrokerError,
    CampaignJob,
    CampaignSpec,
    JobState,
    PriorityScheduler,
    QueryBroker,
    SchedulerClosed,
    ServeConfig,
    WorkerPool,
    content_key,
    run_campaign,
)
from repro.synth.world import WorldConfig, build_world

CS1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
CS1_FALCON = "Identify the impact at a country level due to FALCON cable failure"


@pytest.fixture()
def broker(world):
    broker = QueryBroker(world, config=ServeConfig(workers=2)).start()
    yield broker
    broker.shutdown()


# -- artifact cache ---------------------------------------------------------


def test_content_key_is_stable_and_order_insensitive():
    a = content_key("analysis", {"x": 1, "y": [2, 3]})
    b = content_key("analysis", {"y": [2, 3], "x": 1})
    assert a == b
    assert content_key("design", {"x": 1, "y": [2, 3]}) != a
    assert content_key("analysis", {"x": 2, "y": [2, 3]}) != a


def test_cache_fetch_store_roundtrip():
    cache = ArtifactCache()
    assert cache.fetch("analysis", {"q": "cs1"}) is None
    cache.store("analysis", {"q": "cs1"}, {"intent": "impact"})
    assert cache.fetch("analysis", {"q": "cs1"}) == {"intent": "impact"}
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["per_stage"]["analysis"] == {"hits": 1, "misses": 1}


def test_cache_returns_fresh_copies():
    cache = ArtifactCache()
    cache.store("analysis", {"q": 1}, {"entities": {"cable": "x"}})
    first = cache.fetch("analysis", {"q": 1})
    first["entities"]["cable"] = "mutated"
    assert cache.fetch("analysis", {"q": 1})["entities"]["cable"] == "x"


def test_cache_lru_eviction():
    cache = ArtifactCache(max_entries=2)
    cache.store("s", {"k": 1}, {"v": 1})
    cache.store("s", {"k": 2}, {"v": 2})
    cache.fetch("s", {"k": 1})  # refresh 1 → 2 becomes the LRU victim
    cache.store("s", {"k": 3}, {"v": 3})
    assert cache.fetch("s", {"k": 2}) is None
    assert cache.fetch("s", {"k": 1}) == {"v": 1}
    assert cache.stats()["evictions"] == 1


def test_cache_reset_stats_keeps_entries():
    cache = ArtifactCache()
    cache.store("s", {"k": 1}, {"v": 1})
    cache.fetch("s", {"k": 1})
    cache.reset_stats()
    assert cache.stats()["hits"] == 0
    assert cache.fetch("s", {"k": 1}) == {"v": 1}


# -- scheduler --------------------------------------------------------------


def test_scheduler_fifo_within_priority_band():
    scheduler = PriorityScheduler()
    for item in ("a", "b", "c"):
        scheduler.push(item)
    assert [scheduler.pop() for _ in range(3)] == ["a", "b", "c"]


def test_scheduler_priority_beats_arrival_order():
    scheduler = PriorityScheduler()
    scheduler.push("low", priority=0)
    scheduler.push("high", priority=5)
    scheduler.push("mid", priority=1)
    assert [scheduler.pop() for _ in range(3)] == ["high", "mid", "low"]


def test_scheduler_close_rejects_push_but_drains():
    scheduler = PriorityScheduler()
    scheduler.push("queued")
    scheduler.close()
    with pytest.raises(SchedulerClosed):
        scheduler.push("late")
    assert scheduler.pop() == "queued"
    assert scheduler.pop() is None  # closed and drained


def test_scheduler_pop_timeout():
    scheduler = PriorityScheduler()
    started = time.perf_counter()
    assert scheduler.pop(timeout=0.02) is None
    assert time.perf_counter() - started < 1.0


def test_scheduler_per_shard_stats():
    scheduler = PriorityScheduler()
    scheduler.push("a", shard="w1")
    scheduler.push("b", shard="w1")
    scheduler.push("c", shard="w2")
    assert scheduler.stats()["per_shard_queued"] == {"w1": 2, "w2": 1}


def test_scheduler_priority_band_stats():
    scheduler = PriorityScheduler()
    scheduler.push("standing", priority=0)
    scheduler.push("forensic", priority=100)
    scheduler.push("campaign", priority=0)
    assert scheduler.stats()["pushed_by_priority"] == {0: 2, 100: 1}


def test_scheduler_counts_preemptions():
    """A pop that services a high band while lower-priority work waits is a
    preemption; FIFO pops within one band are not."""
    scheduler = PriorityScheduler()
    scheduler.push("low-1", priority=0)
    scheduler.push("low-2", priority=0)
    scheduler.push("urgent", priority=100)
    assert scheduler.pop() == "urgent"
    assert scheduler.stats()["preemptions"] == 1
    assert scheduler.pop() == "low-1"
    assert scheduler.pop() == "low-2"
    assert scheduler.stats()["preemptions"] == 1


# -- worker pool ------------------------------------------------------------


def test_worker_pool_processes_all_items():
    scheduler = PriorityScheduler()
    seen = []
    lock = threading.Lock()

    def handler(item, worker):
        with lock:
            seen.append(item)

    pool = WorkerPool(scheduler, handler, num_workers=3).start()
    for i in range(20):
        scheduler.push(i)
    pool.shutdown(wait=True, drain=True)
    assert sorted(seen) == list(range(20))


def test_worker_pool_drain_false_abandons_queue():
    scheduler = PriorityScheduler()
    processed = []
    release = threading.Event()

    def handler(item, worker):
        release.wait(timeout=5)
        processed.append(item)

    pool = WorkerPool(scheduler, handler, num_workers=1).start()
    for i in range(10):
        scheduler.push(i)
    while pool.active_jobs == 0:  # one job in flight, nine queued
        time.sleep(0.005)
    stopper = threading.Thread(target=pool.shutdown,
                               kwargs={"wait": True, "drain": False})
    stopper.start()
    while not scheduler.closed:  # shutdown signalled; worker still in-flight
        time.sleep(0.005)
    release.set()
    stopper.join(timeout=10)
    assert processed == [0]  # only the in-flight job ran; the rest abandoned


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ValueError):
        WorkerPool(PriorityScheduler(), lambda i, w: None, num_workers=0)


# -- broker -----------------------------------------------------------------


def test_broker_submit_wait_result(broker):
    ticket = broker.submit(CS1)
    assert ticket.startswith("job-")
    result = broker.result(ticket, timeout=30)
    assert result.execution.succeeded
    assert broker.status(ticket) is JobState.DONE


def test_broker_rejects_empty_query(broker):
    with pytest.raises(BrokerError):
        broker.submit("   ")


def test_broker_rejects_unknown_ticket(broker):
    with pytest.raises(BrokerError):
        broker.status("job-999999")


def test_broker_rejects_unknown_world_key(broker):
    with pytest.raises(BrokerError):
        broker.submit(CS1, world_key="atlantis")


def test_broker_wait_timeout():
    world = build_world(WorldConfig(seed=3, tier1_count=6, tier2_per_region=2,
                                    edge_density=0.5))
    broker = QueryBroker(world, config=ServeConfig(workers=1))  # never started
    ticket = broker.submit(CS1)
    with pytest.raises(TimeoutError):
        broker.wait(ticket, timeout=0.05)
    broker.shutdown()


def test_broker_stats_shape(broker):
    broker.result(broker.submit(CS1), timeout=30)
    stats = broker.stats()
    assert stats["submitted"] >= 1
    assert stats["states"].get("done", 0) >= 1
    assert stats["workers"] == 2
    assert stats["cache"] is not None
    assert stats["worlds"] == ["default"]


def test_broker_failed_job_does_not_kill_worker(broker):
    shard = broker.shard()
    original = shard.system.answer

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic stage failure")

    shard.system.answer = explode
    try:
        bad = broker.submit(CS1_FALCON)
        job = broker.wait(bad, timeout=30)
        assert job.state is JobState.FAILED
        assert "synthetic stage failure" in job.error
        with pytest.raises(BrokerError):
            broker.result(bad)
    finally:
        shard.system.answer = original
    # The pool survives and serves the next submission.
    assert broker.result(broker.submit(CS1), timeout=30).execution.succeeded
    assert broker.ledger.get(bad).status == "failed"


def test_broker_priority_order_single_worker(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    low = broker.submit(CS1, priority=0)
    high = broker.submit(CS1_FALCON, priority=10)
    broker.start()
    broker.wait_all([low, high], timeout=30)
    # The high-priority job must have started first.
    assert (broker.ledger.get(high).started_at
            <= broker.ledger.get(low).started_at)
    broker.shutdown()


def test_broker_tracks_submissions_per_priority_band(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    broker.submit(CS1, priority=0)
    broker.submit(CS1, priority=0)
    broker.submit(CS1_FALCON, priority=100)
    stats = broker.stats()
    assert stats["submitted_by_priority"] == {0: 2, 100: 1}
    assert stats["scheduler"]["pushed_by_priority"] == {0: 2, 100: 1}
    broker.shutdown()


def test_broker_multi_world_sharding(world, small_world):
    broker = QueryBroker(world, config=ServeConfig(workers=2))
    broker.add_world("small", small_world)
    with pytest.raises(BrokerError):
        broker.add_world("small", small_world)
    with broker:
        default_ticket = broker.submit(CS1)
        small_query = ("Identify the impact at a country level due to "
                       f"{small_world.cable_names()[0]} cable failure")
        small_ticket = broker.submit(small_query, world_key="small")
        assert broker.result(default_ticket, timeout=30).execution.succeeded
        assert broker.result(small_ticket, timeout=30).execution.succeeded
    assert broker.shard("small").world is small_world
    assert broker.world_keys() == ["default", "small"]


def test_concurrent_identical_queries_are_deterministic(world):
    """N threads racing the same query must all get identical artifacts."""
    with QueryBroker(world, config=ServeConfig(workers=4)) as broker:
        tickets = [broker.submit(CS1) for _ in range(8)]
        results = [broker.result(t, timeout=60) for t in tickets]
    sources = {r.solution.source_code for r in results}
    finals = {str(r.execution.outputs["final"]) for r in results}
    assert len(sources) == 1
    assert len(finals) == 1


def test_cache_hit_source_is_byte_identical_to_cold(world):
    with QueryBroker(world, config=ServeConfig(workers=1)) as cold_broker:
        cold = cold_broker.result(cold_broker.submit(CS1), timeout=30)
    with QueryBroker(world, config=ServeConfig(workers=1)) as broker:
        broker.result(broker.submit(CS1), timeout=30)  # warm the cache
        warm = broker.result(broker.submit(CS1), timeout=30)
        hit_stages = [s for s in broker.ledger.get("job-000002").stages
                      if s.cache_hit]
    assert {s.stage for s in hit_stages} == {
        "querymind", "workflowscout", "solutionweaver"}
    assert warm.solution.source_code == cold.solution.source_code
    assert warm.solution.source_code.encode() == cold.solution.source_code.encode()


def test_broker_without_cache(world):
    with QueryBroker(world, config=ServeConfig(workers=1, cache_enabled=False)) as broker:
        broker.result(broker.submit(CS1), timeout=30)
        broker.result(broker.submit(CS1), timeout=30)
        assert broker.stats()["cache"] is None
    assert broker.ledger.get("job-000002").cache_hits() == 0


# -- provenance -------------------------------------------------------------


def test_provenance_records_stage_attribution(broker):
    ticket = broker.submit(CS1)
    broker.wait(ticket, timeout=30)
    entry = broker.ledger.get(ticket)
    assert [s.stage for s in entry.stages] == [
        "querymind", "workflowscout", "solutionweaver", "executor"]
    assert entry.status == "done"
    assert entry.worker
    assert entry.run_duration_s >= 0.0
    assert entry.queue_delay_s >= 0.0
    payload = entry.to_dict()
    assert payload["job_id"] == ticket
    assert len(payload["stages"]) == 4


def test_provenance_summary_aggregates(broker):
    for _ in range(3):
        broker.wait(broker.submit(CS1), timeout=30)
    summary = broker.ledger.summary()
    assert summary["finished"] >= 3
    assert summary["per_stage"]["querymind"]["calls"] >= 3
    # Two of the three identical queries should have hit the cache.
    assert summary["per_stage"]["querymind"]["cache_hits"] >= 1
    assert summary["per_stage"]["executor"]["cache_hits"] == 0


# -- campaigns --------------------------------------------------------------


def test_campaign_spec_expands_full_matrix(world):
    spec = CampaignSpec(
        cables=("SeaMeWe-5", "FALCON"),
        disaster_kinds=("earthquake",),
        region_pairs=(("Europe", "Asia"),),
    )
    jobs = spec.expand()
    assert len(jobs) == 4
    tags = [j.tag for j in jobs]
    assert "cable:SeaMeWe-5" in tags
    assert "disaster:earthquake" in tags
    assert "cascade:Europe-Asia" in tags
    assert all(j.query for j in jobs)


def test_campaign_for_world_limit(world):
    spec = CampaignSpec.for_world(world, limit=3, disasters=False)
    assert len(spec.expand()) == 3


def test_run_campaign_aggregates(world):
    with QueryBroker(world, config=ServeConfig(workers=4)) as broker:
        spec = CampaignSpec.for_world(world, limit=4)
        report = run_campaign(broker, spec, timeout=120)
    assert report.total == 6  # 4 cables + 2 disaster kinds
    assert report.succeeded == 6
    assert report.all_succeeded
    assert report.jobs_per_sec > 0
    assert report.top_countries, "cross-scenario aggregation produced no rows"
    assert {"country", "appearances", "mean_score"} <= set(report.top_countries[0])
    assert len(report.outcomes) == 6
    rows = report.summary_rows()
    assert any("jobs" in str(k) for k, _ in rows)


def test_campaign_resubmission_is_mostly_cache_hits(world):
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        jobs = [CampaignJob(query=CS1, tag="a"),
                CampaignJob(query=CS1_FALCON, tag="b")]
        run_campaign(broker, jobs, timeout=60)
        broker.cache.reset_stats()
        report = run_campaign(broker, jobs, timeout=60)
    assert report.succeeded == 2
    assert broker.cache.stats()["hit_rate"] >= 0.9


def test_campaign_accepts_explicit_job_list(world):
    with QueryBroker(world, config=ServeConfig(workers=1)) as broker:
        report = run_campaign(broker, [CampaignJob(query=CS1, tag="only")])
    assert report.total == 1 and report.succeeded == 1


def test_broker_submit_after_shutdown_raises_cleanly(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1)).start()
    broker.shutdown()
    before = broker.stats()["submitted"]
    with pytest.raises(BrokerError, match="shut down"):
        broker.submit(CS1)
    # No orphaned queued job or ledger entry left behind.
    assert broker.stats()["submitted"] == before
    assert broker.stats()["states"].get("queued", 0) == 0
    assert len(broker.ledger) == 0


def test_broker_prunes_finished_jobs_beyond_retention(world):
    config = ServeConfig(workers=1, max_retained_jobs=2)
    with QueryBroker(world, config=config) as broker:
        tickets = [broker.submit(CS1) for _ in range(5)]
        broker.wait(tickets[-1], timeout=60)
        # Let the final prune settle (it runs in the worker thread).
        deadline = time.time() + 5
        while broker.stats()["pruned"] < 3 and time.time() < deadline:
            time.sleep(0.01)
        stats = broker.stats()
    assert stats["pruned"] == 3
    assert stats["finished_total"]["done"] == 5
    assert sum(stats["states"].values()) == 2
    assert len(broker.ledger) == 2
    with pytest.raises(BrokerError):
        broker.status(tickets[0])  # pruned tickets are forgotten


def test_campaign_for_world_limit_zero_means_no_cables(world):
    spec = CampaignSpec.for_world(world, limit=0)
    assert spec.cables == ()
    assert len(spec.expand()) == 2  # the two disaster kinds remain
    with pytest.raises(ValueError):
        CampaignSpec.for_world(world, limit=-1)


# -- job cancellation -------------------------------------------------------


def test_cancel_queued_job(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))  # never started
    ticket = broker.submit(CS1)
    assert broker.cancel(ticket) is True
    assert broker.status(ticket) is JobState.CANCELLED
    assert broker.cancel(ticket) is False  # already settled: explicit no-op
    # Cancelled jobs settle immediately: wait returns, result raises.
    job = broker.wait(ticket, timeout=1)
    assert job.error == "cancelled before execution"
    with pytest.raises(BrokerError, match="cancelled"):
        broker.result(ticket, timeout=1)
    stats = broker.stats()
    assert stats["finished_total"]["cancelled"] == 1
    assert broker.ledger.get(ticket).status == "cancelled"
    broker.shutdown()


def test_cancel_finished_job_is_noop(broker):
    ticket = broker.submit(CS1)
    assert broker.result(ticket, timeout=60).execution.succeeded
    assert broker.cancel(ticket) is False
    assert broker.status(ticket) is JobState.DONE
    assert broker.result(ticket, timeout=1) is not None  # result kept


def test_cancelled_job_never_reaches_a_worker(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    keep = broker.submit(CS1)
    doomed = broker.submit(CS1_FALCON)
    assert broker.cancel(doomed)
    broker.start()
    assert broker.result(keep, timeout=60).execution.succeeded
    broker.shutdown()  # drains the queue, including the cancelled pop
    assert broker.status(doomed) is JobState.CANCELLED
    # The worker skipped it: no start was ever recorded.
    assert broker.ledger.get(doomed).started_at == 0.0
    assert broker.ledger.get(doomed).worker == ""


# -- cache persistence ------------------------------------------------------


def test_cache_spill_load_roundtrip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = ArtifactCache()
    cache.store("analysis", {"q": "cs1"}, {"intent": "impact", "n": [1, 2]})
    cache.store("design", {"q": "cs1"}, {"steps": ["a", "b"]})
    assert cache.spill(path) == 2

    import json as _json
    document = _json.load(open(path))
    assert document["version"] == 1 and len(document["entries"]) == 2

    fresh = ArtifactCache()
    assert fresh.load(path) == 2
    assert fresh.fetch("analysis", {"q": "cs1"}) == {"intent": "impact", "n": [1, 2]}
    assert fresh.fetch("design", {"q": "cs1"}) == {"steps": ["a", "b"]}


def test_cache_load_respects_lru_bound(tmp_path):
    path = str(tmp_path / "cache.json")
    big = ArtifactCache()
    for i in range(5):
        big.store("analysis", {"q": i}, {"value": i})
    big.spill(path)

    small = ArtifactCache(max_entries=3)
    assert small.load(path) == 5
    assert len(small) == 3
    # The most recently stored entries survive the bound.
    assert small.fetch("analysis", {"q": 4}) == {"value": 4}
    assert small.fetch("analysis", {"q": 0}) is None


def test_cache_load_merge_keeps_live_entries_fresher(tmp_path):
    path = str(tmp_path / "cache.json")
    spilled = ArtifactCache()
    spilled.store("analysis", {"q": "old"}, {"value": "old"})
    spilled.spill(path)

    live = ArtifactCache(max_entries=2)
    live.store("analysis", {"q": "live"}, {"value": "live"})
    live.load(path)
    # Adding one more entry evicts the loaded (older) one, not the live one.
    live.store("analysis", {"q": "new"}, {"value": "new"})
    assert live.fetch("analysis", {"q": "live"}) == {"value": "live"}
    assert live.fetch("analysis", {"q": "old"}) is None


def test_cache_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "entries": {}}')
    with pytest.raises(ValueError, match="version"):
        ArtifactCache().load(str(path))


def test_broker_cache_survives_restart_via_spill(world, tmp_path):
    path = str(tmp_path / "cache.json")
    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        assert broker.result(broker.submit(CS1), timeout=60).execution.succeeded
        broker.cache.spill(path)

    with QueryBroker(world, config=ServeConfig(workers=2)) as broker:
        broker.cache.load(path)
        broker.cache.reset_stats()
        assert broker.result(broker.submit(CS1), timeout=60).execution.succeeded
        stats = broker.cache.stats()
    # All three deterministic agent stages were warm on the "restarted" broker.
    assert stats["per_stage"]["analysis"]["hits"] == 1
    assert stats["per_stage"]["design"]["hits"] == 1
    assert stats["per_stage"]["solution"]["hits"] == 1


# -- scheduler fairness under contention ------------------------------------


def test_scheduler_priority_bands_fifo_across_shards_under_contention():
    """Many jobs, two shards, same band: service stays strict arrival order
    (neither shard can starve the other), and higher bands always preempt."""
    scheduler = PriorityScheduler()
    arrivals = []
    for i in range(20):
        shard = "w1" if i % 2 == 0 else "w2"
        scheduler.push(f"job-{i}", priority=0, shard=shard)
        arrivals.append(f"job-{i}")
    scheduler.push("urgent", priority=9, shard="w2")
    drained = [scheduler.pop(timeout=0.1) for _ in range(21)]
    assert drained[0] == "urgent"
    assert drained[1:] == arrivals  # round-robin by arrival across shards
    assert scheduler.stats()["per_shard_queued"] == {}


def test_broker_priority_bands_under_contention_single_worker(world):
    """One worker, contended queue: band order first, then FIFO within band,
    interleaving both world shards in arrival order."""
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    broker.add_world("second", world)
    low = [
        broker.submit(CS1, world_key="default"),
        broker.submit(CS1_FALCON, world_key="second"),
        broker.submit(CS1_FALCON, world_key="default"),
        broker.submit(CS1, world_key="second"),
    ]
    high = broker.submit(CS1, priority=5, world_key="second")
    broker.start()
    broker.wait_all(low + [high], timeout=120)
    broker.shutdown()
    started = {t: broker.ledger.get(t).started_at for t in low + [high]}
    assert started[high] <= min(started[t] for t in low)
    assert sorted(low, key=lambda t: started[t]) == low  # FIFO across shards


def test_retention_pruning_spares_unfinished_tickets(world):
    """Pruning may only evict finished jobs — queued tickets survive even
    when the retention bound is exceeded, and finish normally later."""
    broker = QueryBroker(world, config=ServeConfig(workers=1,
                                                  max_retained_jobs=2))
    tickets = [broker.submit(CS1) for _ in range(5)]
    for doomed in tickets[:4]:
        broker.cancel(doomed)
    stats = broker.stats()
    # Bound is 2 and only finished (cancelled) jobs were evictable: the one
    # queued ticket plus the newest cancelled one remain.
    assert stats["pruned"] == 3
    assert stats["states"] == {"queued": 1, "cancelled": 1}
    with pytest.raises(BrokerError):
        broker.status(tickets[0])  # pruned
    assert broker.status(tickets[4]) is JobState.QUEUED  # spared
    broker.start()
    assert broker.result(tickets[4], timeout=60).execution.succeeded
    broker.shutdown()
