"""Pin the serve plane's metric catalogue.

Every series a scrape can show is fixed here as ``(name, kind, sorted
label keys)`` after three representative runs: a thread-backend campaign,
a process-backend campaign that loses a worker, and a journaled run that
quarantines a signature.  Dashboards, SLO specs and the benchmarks read
these series by name, so a refactor of how the plane counts must leave
the catalogue as it is; a new series is added here deliberately, and a
series leaves only with the mechanism it counted.

Each run uses a private world so series that depend on world memos (the
routing collectors) never leak in from other tests.
"""

import re
import time

import pytest

from repro.serve import JobState, QueryBroker, ServeConfig
from repro.synth.world import WorldConfig, build_world

QUERY = "Identify the impact at a country level due to {} cable failure"

_KEY_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="')

_KINDS = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}

#: Series present after every run, whatever the backend.
_COMMON = {
    ("backend_respawns", "gauge", ()),
    ("broker_active_jobs", "gauge", ()),
    ("broker_jobs_finished_total", "counter", ("state",)),
    ("broker_jobs_submitted_total", "counter", ()),
    ("cache_entries", "gauge", ("scope",)),
    ("cache_hit_rate", "gauge", ("scope",)),
    ("deadletter_depth", "gauge", ()),
    ("scheduler_pushed_total", "counter", ()),
    ("scheduler_queue_depth", "gauge", ()),
    ("scheduler_queue_wait_seconds", "histogram", ("band",)),
    ("workerpool_claimed_total", "counter", ()),
}

EXPECTED = {
    "thread-campaign": _COMMON,
    "process-kill": _COMMON,
    "journal-quarantine": _COMMON | {
        ("broker_jobs_quarantined_total", "counter", ()),
        ("journal_appends_total", "counter", ()),
        ("journal_checkpoints_total", "counter", ()),
        ("journal_fsync_ms", "histogram", ()),
        ("recovery_replayed_records", "gauge", ()),
    },
}

#: Series added after the pin was taken, per run; each is named in the
#: change log of the change that added it.
_CACHE_COUNTERS = {
    ("cache_evictions_total", "counter", ("scope",)),
    ("cache_lookups_total", "counter", ("result", "scope", "stage")),
}
ADDED: dict[str, set] = {
    "thread-campaign": _CACHE_COUNTERS,
    "process-kill": _CACHE_COUNTERS | {
        ("backend_deadline_kills_total", "counter", ()),
        ("backend_dispatched_total", "counter", ()),
        ("backend_inline_results_total", "counter", ()),
        ("worker_jobs_total", "counter", ("slot",)),
    },
    "journal-quarantine": _CACHE_COUNTERS | {
        ("deadletter_quarantined_total", "counter", ()),
    },
}


def catalogue(snapshot: dict) -> set:
    """``{(name, kind, sorted label keys)}`` of a registry snapshot."""
    out = set()
    for section, kind in _KINDS.items():
        for rendered in snapshot[section]:
            name, _, labels = rendered.partition("{")
            out.add((name, kind, tuple(sorted(_KEY_RE.findall(labels)))))
    return out


@pytest.fixture(scope="module")
def private_world():
    return build_world(WorldConfig(seed=3, tier1_count=6, tier2_per_region=2,
                                   edge_density=0.5))


def _run_all(broker, queries):
    tickets = [broker.submit(q) for q in queries]
    jobs = broker.wait_all(tickets, timeout=300)
    assert all(job.state is JobState.DONE for job in jobs), [
        (j.ticket, j.state.value, j.error) for j in jobs
    ]


def _thread_campaign(world, tmp_path):
    broker = QueryBroker(world, config=ServeConfig(workers=2)).start()
    try:
        cables = world.cable_names()[:3]
        _run_all(broker, [QUERY.format(c) for c in cables + cables[:1]])
        return broker.metrics.snapshot()
    finally:
        broker.shutdown()


def _process_kill(world, tmp_path):
    broker = QueryBroker(
        world, config=ServeConfig(workers=2, backend="process")).start()
    try:
        cables = world.cable_names()[:3]
        _run_all(broker, [QUERY.format(c) for c in cables])
        broker.backend.kill_worker(0)
        deadline = time.monotonic() + 60
        while broker.stats()["backend"]["respawns"] < 1:
            assert time.monotonic() < deadline, "worker never respawned"
            time.sleep(0.02)
        _run_all(broker, [QUERY.format(c) for c in cables])
        return broker.metrics.snapshot()
    finally:
        broker.shutdown()


def _journal_quarantine(world, tmp_path):
    broker = QueryBroker(world, config=ServeConfig(
        workers=1, journal_dir=str(tmp_path / "wal"))).start()
    try:
        cables = world.cable_names()[:2]
        poison = QUERY.format(cables[1])
        broker.deadletter.quarantine("default", poison, crashes=3,
                                     error="3 worker deaths")
        job = broker.wait(broker.submit(poison), timeout=60)
        assert job.state is JobState.QUARANTINED
        _run_all(broker, [QUERY.format(cables[0])])
        return broker.metrics.snapshot()
    finally:
        broker.shutdown()


RUNS = {
    "thread-campaign": _thread_campaign,
    "process-kill": _process_kill,
    "journal-quarantine": _journal_quarantine,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_metric_catalogue_is_pinned(run, private_world, tmp_path):
    got = catalogue(RUNS[run](private_world, tmp_path))
    want = EXPECTED[run] | ADDED[run]
    assert got == want, (
        f"missing: {sorted(want - got)}; unexpected: {sorted(got - want)}"
    )
