"""Execution backends: thread/process parity, payload validation, stats,
answer-sized process replies."""

import functools
import hashlib
import json
import pickle

import pytest

from repro.core.artifacts import StepRef, canonical_json
from repro.core.llm.simulated import SimulatedHostedLLM
from repro.evalharness.casestudies import CASE_QUERIES
from repro.serve import (
    BackendError,
    CampaignJob,
    JobPayload,
    ProcessPoolBackend,
    QueryBroker,
    ServeConfig,
    ThreadPoolBackend,
    build_backend,
    run_campaign,
)
from repro.serve.backends import STEP_REF_MIN_BYTES, _process_execute, _worker_system
from repro.serve.campaign import CampaignSpec
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def campaign_world():
    return build_world(WorldConfig())


def _campaign_jobs(world, count=3):
    names = world.cable_names()[:count]
    return [
        CampaignJob(
            query=f"Identify the impact at a country level due to {name} cable failure",
            tag=f"cable:{name}",
        )
        for name in names
    ]


def _run_backend_campaign(world, backend, jobs, cache_enabled=True):
    """One campaign through one backend; returns (report, digests, stats)."""
    broker = QueryBroker(
        world,
        config=ServeConfig(workers=2, backend=backend, cache_enabled=cache_enabled),
    ).start()
    try:
        report = run_campaign(broker, jobs)
        digests = [broker.result(t).artifact_digest() for t in report.tickets]
        payloads = [
            json.dumps(broker.result(t).to_dict()["execution"], sort_keys=True)
            for t in report.tickets
        ]
        # Stage provenance must reach every job through every backend
        # (in-thread, or inside the result shipped back from a worker).
        summary = broker.provenance_summary()
        assert summary["per_stage"]["querymind"]["calls"] == len(jobs)
        stats = broker.stats()
    finally:
        broker.shutdown()
    return report, digests, payloads, stats


def test_build_backend_names():
    assert isinstance(build_backend("thread"), ThreadPoolBackend)
    assert isinstance(build_backend("process"), ProcessPoolBackend)
    with pytest.raises(BackendError):
        build_backend("carrier-pigeon")


def test_thread_process_parity_byte_identical(campaign_world):
    """The same campaign through both backends produces byte-identical
    artifacts — digests and serialized execution outputs match per job."""
    jobs = _campaign_jobs(campaign_world)
    t_report, t_digests, t_payloads, _ = _run_backend_campaign(
        campaign_world, "thread", jobs
    )
    p_report, p_digests, p_payloads, p_stats = _run_backend_campaign(
        campaign_world, "process", jobs
    )
    assert t_report.failed == 0 and p_report.failed == 0
    assert t_digests == p_digests
    assert t_payloads == p_payloads
    assert p_stats["backend"]["backend"] == "process"
    assert p_stats["backend"]["processes"] >= 1


def test_process_backend_with_incidents_and_hosted_llm(campaign_world):
    """Incidents and a picklable llm_factory ship across the process
    boundary and still match the thread backend byte for byte."""
    incident = make_latency_incident(campaign_world, "SeaMeWe-5")
    query = (
        "A sudden increase in latency was observed from European probes to "
        "Asian destinations starting three days ago. Determine if a submarine "
        "cable failure caused this, and if so, identify the specific cable."
    )
    digests = {}
    for backend in ("thread", "process"):
        broker = QueryBroker(
            campaign_world,
            incidents=[incident],
            config=ServeConfig(
                workers=2,
                backend=backend,
                llm_factory=functools.partial(SimulatedHostedLLM, latency_s=0.0),
            ),
        ).start()
        try:
            digests[backend] = broker.result(broker.submit(query)).artifact_digest()
        finally:
            broker.shutdown()
    assert digests["thread"] == digests["process"]


def test_process_backend_rejects_curation(campaign_world):
    broker = QueryBroker(
        config=ServeConfig(workers=1, backend="process", curate=True)
    )
    with pytest.raises(BackendError, match="curation"):
        broker.add_world("w", campaign_world)
    broker.shutdown()


def test_process_backend_rejects_unpicklable_llm_factory(campaign_world):
    broker = QueryBroker(
        config=ServeConfig(
            workers=1, backend="process",
            llm_factory=lambda: SimulatedHostedLLM(latency_s=0.0),
        )
    )
    with pytest.raises(BackendError, match="picklable"):
        broker.add_world("w", campaign_world)
    broker.shutdown()


def test_worker_system_verifies_world_fingerprint(campaign_world):
    """A payload whose fingerprint does not match the rebuilt world fails
    loudly instead of answering about a different Internet."""
    from repro.core.registry import default_registry

    registry = default_registry()
    payload = JobPayload(
        query="q", params=None,
        world_config=campaign_world.config,
        world_fingerprint="not-the-real-fingerprint",
        registry_names=tuple(registry.names()),
        registry_fingerprint=registry.fingerprint(),
    )
    with pytest.raises(BackendError, match="reproducible"):
        _worker_system(payload)


def test_process_execute_roundtrip_in_process(campaign_world):
    """The worker-side entry point is a pure function of its payload: it can
    run in this process and produce the same digest as a served job."""
    from repro.core.registry import default_registry

    registry = default_registry()
    query = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
    payload = JobPayload(
        query=query, params=None,
        world_config=campaign_world.config,
        world_fingerprint=campaign_world.fingerprint(),
        registry_names=tuple(registry.names()),
        registry_fingerprint=registry.fingerprint(),
        cache_entries=64,
    )
    result, meta = _process_execute(payload)
    assert result.execution.succeeded
    assert _delta(meta, "cache_lookups_total", result="miss") > 0
    # Same payload again: the process-local system and artifact cache serve it.
    again, meta2 = _process_execute(payload)
    assert again.artifact_digest() == result.artifact_digest()
    assert _delta(meta2, "cache_lookups_total", result="hit") > 0
    assert _delta(meta2, "worker_jobs_total") == 1


def _delta(meta: dict, name: str, **labels) -> float:
    """A counter family's total in a reply's drained metric deltas, over
    the rows whose labels include ``labels``."""
    return sum(delta for row_name, pairs, delta in meta["metrics"]
               if row_name == name and labels.items() <= dict(pairs).items())


def test_process_backend_warm_cache_across_resubmission(campaign_world):
    """Resubmitting a campaign hits the process-local artifact caches.

    One worker so both rounds land on the same process — with several
    processes a resubmitted job may reach a sibling whose cache never saw
    it (caches are process-local by design).
    """
    jobs = _campaign_jobs(campaign_world, count=2)
    broker = QueryBroker(
        campaign_world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        first = run_campaign(broker, jobs)
        assert first.failed == 0
        second = run_campaign(broker, jobs)
        assert second.failed == 0
        merged = broker.stats()["backend"]["cache"]
        assert merged is not None and merged["hits"] > 0
    finally:
        broker.shutdown()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_job_stages_are_the_result_stage_trace(campaign_world, backend):
    """A served job's provenance names each agent stage exactly as the
    result's Figure-1 trace does, whichever backend ran it."""
    query = _campaign_jobs(campaign_world, count=1)[0].query
    broker = QueryBroker(
        campaign_world, config=ServeConfig(workers=1, backend=backend)
    ).start()
    try:
        job = broker.wait(broker.submit(query), timeout=120)
    finally:
        broker.shutdown()
    trace = [stage.to_dict() for stage in job.result.stage_trace]
    assert [stage["agent"] for stage in trace] == [
        "querymind", "workflowscout", "solutionweaver", "executor"]
    payload = job.to_dict()
    assert payload["stages"] == trace
    assert payload["worker"] and payload["state"] == "done"
    assert 0 < payload["submitted_at"] <= payload["started_at"] <= payload["finished_at"]


def test_backend_shutdown_is_idempotent(campaign_world):
    broker = QueryBroker(
        campaign_world, config=ServeConfig(workers=1, backend="process")
    ).start()
    broker.shutdown()
    broker.shutdown()  # second shutdown must be a no-op


# -- answer-sized results ----------------------------------------------------


@pytest.fixture(scope="module")
def golden_world():
    return build_world(WorldConfig(seed=7))


def _serve_all(world, backend, jobs):
    """``{tag: result}`` for ``(tag, query, world key)`` jobs on one broker
    with a default shard and an incident shard for case 4."""
    broker = QueryBroker(world, config=ServeConfig(workers=2, backend=backend))
    broker.add_world("case4", world,
                     incidents=[make_latency_incident(world, "SeaMeWe-5")])
    broker.start()
    try:
        tickets = {tag: broker.submit(query, world_key=key)
                   for tag, query, key in jobs}
        return {tag: broker.result(ticket, timeout=300)
                for tag, ticket in tickets.items()}
    finally:
        broker.shutdown()


def test_bulk_steps_cross_the_process_boundary_as_refs(golden_world, monkeypatch):
    """A process reply carries each step of ``STEP_REF_MIN_BYTES`` or more
    as a :class:`StepRef` whose digest is the thread backend's value's
    (the columnar latency series too); smaller steps and the answer stay
    whole, root digests agree with the thread backend and the goldens, and
    every reply for the four case queries and the 26-job campaign stays
    under 64 KiB."""
    from tests.test_golden import golden_roots

    cases = [(f"case:{case}", CASE_QUERIES[case], "case4" if case == 4 else "default")
             for case in sorted(CASE_QUERIES)]
    campaign = [(job.tag, job.query, "default") for job in
                CampaignSpec.for_world(golden_world, cascades=True).expand()]
    golden = golden_roots()
    replies = []
    handle = ProcessPoolBackend._handle_reply

    def measured(self, message):
        replies.append(len(pickle.dumps(message, protocol=5)))
        handle(self, message)

    monkeypatch.setattr(ProcessPoolBackend, "_handle_reply", measured)
    served = _serve_all(golden_world, "process", cases + campaign)
    assert len(replies) == len(cases) + len(campaign)
    assert max(replies) < 64 * 1024
    for tag, result in served.items():
        assert result.execution.succeeded, tag
        assert result.artifact_digest() == golden[tag], tag

    # Each bulky job's latency-series step, a column table per series.
    series_steps = {"case:4": "s2", "cascade:Europe-Asia": "s11"}
    bulky = [job for job in cases + campaign if job[0] in series_steps]
    threaded = _serve_all(golden_world, "thread", bulky)
    for tag, _query, _key in bulky:
        values = threaded[tag].execution.outputs["results"]
        shipped = served[tag].execution.outputs["results"]
        assert shipped.keys() == values.keys()
        refs = 0
        for sid, value in values.items():
            assert not isinstance(value, StepRef)
            text = canonical_json(value).encode("utf-8")
            if len(text) >= STEP_REF_MIN_BYTES:
                refs += 1
                assert shipped[sid] == StepRef(hashlib.sha256(text).hexdigest(),
                                               len(text)), (tag, sid)
            else:
                assert shipped[sid] == value, (tag, sid)
        assert refs >= 3, tag
        series = values[series_steps[tag]]
        assert series and all(type(column) is tuple for columns in series.values()
                              for column in columns.values()), tag
        assert isinstance(shipped[series_steps[tag]], StepRef), tag
        assert served[tag].execution.outputs["final"] == threaded[tag].execution.outputs["final"]
        assert served[tag].artifact_digest() == threaded[tag].artifact_digest()


def test_one_step_encoding_per_result(campaign_world, tmp_path, monkeypatch):
    """A journaled settle and two later ``artifact_digest()`` calls encode
    each step output's canonical JSON once: the step digests are memoised
    on the outcome."""
    from repro.core import artifacts

    encoded = []
    encode = artifacts.canonical_json

    def counting(value):
        encoded.append(value)
        return encode(value)

    monkeypatch.setattr(artifacts, "canonical_json", counting)
    broker = QueryBroker(campaign_world, config=ServeConfig(
        workers=1, backend="thread", journal_dir=str(tmp_path / "wal"))).start()
    try:
        ticket = broker.submit(
            "Identify the impact at a country level due to SeaMeWe-5 cable failure")
        result = broker.result(ticket, timeout=120)
        settled = list(encoded)  # the journaled settle digested the result
        digest = result.artifact_digest()
        assert result.artifact_digest() == digest
    finally:
        broker.shutdown()
    steps = result.execution.outputs["results"]
    assert len(steps) >= 3
    for sid, value in steps.items():
        assert sum(1 for arg in settled if arg is value) == 1, sid
        assert sum(1 for arg in encoded if arg is value) == 1, sid
