"""Batch campaigns: fan a scenario matrix into many served jobs.

A campaign turns "what if any of these cables failed?" into one submission
per scenario — cables × disaster kinds × region pairs — then waits for the
fleet and aggregates the per-job rankings into a cross-scenario view
(which countries keep appearing at the top regardless of which cable
breaks).  Because jobs flow through the broker, campaigns get the
scheduler, worker pool, artifact cache and per-job provenance for free; a
re-run of the same campaign is almost entirely cache hits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.serve.broker import DEFAULT_WORLD_KEY, JobState, QueryBroker
from repro.synth.world import SyntheticWorld

CABLE_IMPACT_TEMPLATE = (
    "Identify the impact at a country level due to {cable} cable failure"
)
DISASTER_TEMPLATE = (
    "Identify the impact of severe natural disasters ({kind}s) globally "
    "assuming a {probability:.0%} infra failure probability"
)
CASCADE_TEMPLATE = (
    "Analyze the cascading effects of submarine cable failures "
    "between {src} and {dst}"
)


@dataclass(frozen=True)
class CampaignJob:
    """One expanded scenario: the query to serve plus its matrix coordinates."""

    query: str
    tag: str
    params: tuple = ()  # (key, value) pairs; kept hashable for dedup

    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass
class CampaignSpec:
    """The scenario matrix to fan out."""

    cables: tuple[str, ...] = ()
    disaster_kinds: tuple[str, ...] = ()
    region_pairs: tuple[tuple[str, str], ...] = ()
    failure_probability: float = 0.1
    priority: int = 0

    @classmethod
    def for_world(
        cls,
        world: SyntheticWorld,
        limit: int | None = None,
        disasters: bool = True,
        cascades: bool = False,
        priority: int = 0,
    ) -> "CampaignSpec":
        """The default matrix: every cable, optionally disasters and one
        Europe↔Asia cascade pair.  ``limit`` caps the cable list; 0 means
        no cable scenarios at all (disasters may still run)."""
        names = world.cable_names()
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            names = names[:limit]
        cables = tuple(names)
        return cls(
            cables=cables,
            disaster_kinds=("earthquake", "hurricane") if disasters else (),
            region_pairs=(("Europe", "Asia"),) if cascades else (),
            priority=priority,
        )

    def expand(self) -> list[CampaignJob]:
        jobs: list[CampaignJob] = []
        for cable in self.cables:
            jobs.append(CampaignJob(
                query=CABLE_IMPACT_TEMPLATE.format(cable=cable),
                tag=f"cable:{cable}",
            ))
        for kind in self.disaster_kinds:
            jobs.append(CampaignJob(
                query=DISASTER_TEMPLATE.format(
                    kind=kind, probability=self.failure_probability
                ),
                tag=f"disaster:{kind}",
            ))
        for src, dst in self.region_pairs:
            jobs.append(CampaignJob(
                query=CASCADE_TEMPLATE.format(src=src, dst=dst),
                tag=f"cascade:{src}-{dst}",
            ))
        return jobs


@dataclass
class CampaignReport:
    """Outcome of one campaign run."""

    total: int
    succeeded: int
    failed: int
    duration_s: float
    jobs_per_sec: float
    outcomes: list[dict] = field(default_factory=list)  # per-job rows
    top_countries: list[dict] = field(default_factory=list)
    cache: dict | None = None
    tickets: list[str] = field(default_factory=list)
    #: Jobs whose results were re-joined from a journaled completion (a
    #: resumed campaign) rather than executed; counts toward ``succeeded``.
    replayed: int = 0

    @property
    def all_succeeded(self) -> bool:
        return self.failed == 0 and self.total > 0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "duration_s": self.duration_s,
            "jobs_per_sec": self.jobs_per_sec,
            "outcomes": list(self.outcomes),
            "top_countries": list(self.top_countries),
            "cache": dict(self.cache) if self.cache else None,
            "replayed": self.replayed,
        }


def _extract_country_rows(result) -> list[dict]:
    """Country-ranking rows from a pipeline result's final output, if any."""
    final = result.execution.outputs.get("final") if result.execution.succeeded else None
    if not isinstance(final, dict):
        return []
    ranking = final.get("ranking") or final.get("country_ranking") or []
    return [
        row for row in ranking
        if isinstance(row, dict) and "country" in row
    ]


def aggregate_rankings(results: list) -> list[dict]:
    """Cross-scenario country exposure: mean score over the scenarios in
    which each country surfaced, weighted by how often it surfaced."""
    totals: dict[str, dict] = {}
    for result in results:
        for row in _extract_country_rows(result):
            slot = totals.setdefault(row["country"], {"appearances": 0, "score": 0.0})
            slot["appearances"] += 1
            slot["score"] += float(row.get("score", 0.0))
    rows = [
        {
            "country": country,
            "appearances": slot["appearances"],
            "mean_score": slot["score"] / slot["appearances"],
        }
        for country, slot in totals.items()
    ]
    rows.sort(key=lambda r: (-r["appearances"], -r["mean_score"], r["country"]))
    return rows


def run_campaign(
    broker: QueryBroker,
    spec: CampaignSpec | list[CampaignJob],
    world_key: str = DEFAULT_WORLD_KEY,
    timeout: float | None = None,
) -> CampaignReport:
    """Submit every scenario, wait for the fleet, aggregate the outcomes.

    ``timeout`` bounds the wait for *each* job, not the whole campaign.
    """
    jobs = spec.expand() if isinstance(spec, CampaignSpec) else list(spec)
    priority = spec.priority if isinstance(spec, CampaignSpec) else 0
    started = time.perf_counter()
    tickets = [
        broker.submit(job.query, params=job.params_dict() or None,
                      priority=priority, world_key=world_key)
        for job in jobs
    ]
    finished = broker.wait_all(tickets, timeout=timeout)
    duration = max(time.perf_counter() - started, 1e-9)

    outcomes = []
    results = []
    succeeded = 0
    replayed = 0
    for job_spec, job in zip(jobs, finished):
        ok = job.state is JobState.DONE
        succeeded += 1 if ok else 0
        replayed += 1 if job.replayed else 0
        if job.result is not None:
            results.append(job.result)
        outcomes.append({
            "ticket": job.ticket,
            "tag": job_spec.tag,
            "state": job.state.value,
            "error": job.error,
            "replayed": job.replayed,
        })
    return CampaignReport(
        total=len(jobs),
        succeeded=succeeded,
        failed=len(jobs) - succeeded,
        duration_s=duration,
        jobs_per_sec=len(jobs) / duration,
        outcomes=outcomes,
        top_countries=aggregate_rankings(
            [r for r in results if r.execution.succeeded]
        ),
        cache=broker.cache.stats() if broker.cache else None,
        tickets=tickets,
        replayed=replayed,
    )
