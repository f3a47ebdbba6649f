"""Alert-triggered forensics: closing the loop from detection to diagnosis.

Everywhere else in the repository the forensic question is asked *by a
person* (the CLI, a standing query registered up front).  This module makes
the live subsystem ask it itself: a :class:`ForensicTrigger` subscribes to
the ``alerts`` topic, maps each detector alert through a
:class:`TriggerPolicy` (per-kind query templates, severity thresholds,
dedup window, rate and budget limits) to a high-priority forensic query
submitted through the :class:`~repro.serve.broker.QueryBroker`, and joins
the finished answer back into a :class:`ForensicCase` record — alert →
query ticket → artifact digest → verdict against the timeline's ground
truth.

Concurrent incidents are disambiguated by *episode*: every growth of the
failed-infrastructure set opens one episode carrying the newly failed
cables and their solo-configuration fingerprint (see
:func:`~repro.live.clock.compose_fingerprint`).  Alerts case the oldest
uncased episode first; later alerts from the same incident — more series
shifting, the BGP burst trailing the RTT step — merge into the open case
instead of spawning duplicate queries.  The triggered query runs against a
broker shard materializing *that episode's* cables (through the shared
:class:`~repro.live.standing.EpochShardPool`, so the population stays
LRU-bounded and shards are reused with the standing-query plane), which is
what lets the pipeline identify the cable of one disaster while another
is still burning.

Finished verdicts are cached under the ``forensic`` stage keyed by
(query, episode fingerprint): a replay over a warm cache re-opens every
case but submits nothing, and the alert→verdict latency collapses to the
cache lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.live.bus import EventBus, Subscription
from repro.live.clock import EpochState, WorldTimeline, compose_fingerprint
from repro.live.standing import EpochShardPool
from repro.live.telemetry import ALERTS_TOPIC
from repro.obs import MetricsRegistry, TraceContext, resolve_tracer
from repro.serve.broker import (
    DEFAULT_WORLD_KEY,
    JobState,
    QueryBroker,
    QueueSaturated,
)
from repro.synth.geography import COUNTRIES

#: ArtifactCache stage name for triggered-forensic verdicts; hit/miss
#: counters surface in ``broker.stats()["cache"]["per_stage"]["forensic"]``.
FORENSIC_STAGE = "forensic"

#: Priority for triggered forensic queries — far above campaign (0) and
#: standing-query traffic, so a diagnosis jumps every queue.
FORENSIC_PRIORITY = 100

#: Per-alert-kind query templates.  The phrasing matters: it must route
#: QueryMind's intent recognition to the latency-forensics workflow
#: ("increase in latency", "caused this", "identify the specific") and
#: carry the probe corridor (``{where}``) QueryMind grounds the campaign
#: against.
DEFAULT_TRIGGER_TEMPLATES: dict[str, str] = {
    "rtt_shift": (
        "A sudden increase in latency was observed from {where} on the "
        "{series} path around epoch {epoch}. Determine if a submarine "
        "cable failure caused this, and if so, identify the specific cable."
    ),
    "rtt_loss": (
        "An increase in latency followed by total loss of connectivity was "
        "observed from {where} on the {series} path around epoch {epoch}. "
        "Determine if a submarine cable failure caused this, and if so, "
        "identify the specific cable."
    ),
    "bgp_burst": (
        "A burst of BGP updates at collector {series} coincided with an "
        "increase in latency from {where} around epoch {epoch}. Determine "
        "if a submarine cable failure caused this, and if so, identify the "
        "specific cable."
    ),
}

#: Region → the phrase QueryMind's entity extraction recognizes for it.
REGION_PHRASES: dict[str, str] = {
    "europe": "European",
    "asia": "Asian",
    "middle_east": "Middle East",
    "africa": "African",
    "north_america": "North America",
    "south_america": "South America",
    "oceania": "Oceania",
}

_COUNTRY_REGION: dict[str, str] = {c.code: c.region.value for c in COUNTRIES}


def corridor_from_series(series_key: str) -> tuple[str, str] | None:
    """The (src_region, dst_region) a traceroute series key spans, when its
    ``CC->CC`` country codes are known; ``None`` for non-geographic series
    (e.g. a BGP collector name)."""
    if "->" not in series_key:
        return None
    src, _, dst = series_key.partition("->")
    src_region = _COUNTRY_REGION.get(src.strip())
    dst_region = _COUNTRY_REGION.get(dst.strip())
    if src_region is None or dst_region is None:
        return None
    return (src_region, dst_region)


def corridor_phrase(corridor: tuple[str, str]) -> str:
    """``{where}`` text for one corridor, e.g. "European probes to Asian
    destinations"."""
    src, dst = corridor
    return f"{REGION_PHRASES[src]} probes to {REGION_PHRASES[dst]} destinations"


@dataclass(frozen=True)
class TriggerPolicy:
    """How alerts become forensic queries.

    ``templates`` maps alert kinds to query templates (``{series}``,
    ``{epoch}`` and ``{where}`` are interpolated); kinds without a template
    never trigger.  ``min_magnitude`` sets per-kind severity floors below
    which alerts are suppressed.  ``dedup_window_epochs`` bounds both
    episode attribution (an episode older than the window when its first
    alert lands is stale) and merging (trailing alerts within the window
    of an open case join it).  ``max_cases_per_epoch`` rate-limits case
    opening; ``max_total_cases`` is the replay-wide budget (``None`` =
    unbounded).

    ``escalation_corridors`` is the probe-corridor playbook: the first
    query runs over the alert's own corridor (its series' country pair),
    and while the verdict stays undetermined the case re-queries over the
    next untried corridor, up to ``max_queries_per_case`` queries — the
    analyst's "widen the search" loop, made explicit and budgeted.

    ``submit_retry_limit`` / ``submit_backoff_s`` govern what happens when
    the broker's admission queue is saturated: the trigger backs off and
    resubmits up to the limit before giving the case up (counted in
    ``forensic_submit_rejected_total``) — never a silent drop.
    """

    templates: tuple[tuple[str, str], ...] = tuple(
        sorted(DEFAULT_TRIGGER_TEMPLATES.items())
    )
    dedup_window_epochs: int = 4
    min_magnitude: tuple[tuple[str, float], ...] = ()
    default_min_magnitude: float = 0.0
    max_cases_per_epoch: int = 2
    max_total_cases: int | None = None
    max_queries_per_case: int = 3
    escalation_corridors: tuple[tuple[str, str], ...] = (
        ("europe", "asia"),
        ("europe", "north_america"),
        ("asia", "middle_east"),
        ("north_america", "asia"),
    )
    priority: int = FORENSIC_PRIORITY
    submit_retry_limit: int = 4
    submit_backoff_s: float = 0.02

    def __post_init__(self) -> None:
        if self.dedup_window_epochs < 1:
            raise ValueError("dedup_window_epochs must be >= 1")
        if self.submit_retry_limit < 0:
            raise ValueError("submit_retry_limit must be >= 0")
        if self.submit_backoff_s < 0:
            raise ValueError("submit_backoff_s must be >= 0")
        if self.max_cases_per_epoch < 1:
            raise ValueError("max_cases_per_epoch must be >= 1")
        if self.max_total_cases is not None and self.max_total_cases < 0:
            raise ValueError("max_total_cases must be >= 0 (or None)")
        if self.max_queries_per_case < 1:
            raise ValueError("max_queries_per_case must be >= 1")
        if not self.templates:
            raise ValueError("a trigger policy needs at least one template")
        for corridor in self.escalation_corridors:
            src, dst = corridor
            if src not in REGION_PHRASES or dst not in REGION_PHRASES:
                raise ValueError(f"unknown region in corridor {corridor!r}")

    def template_for(self, kind: str) -> str | None:
        return dict(self.templates).get(kind)

    def threshold_for(self, kind: str) -> float:
        return dict(self.min_magnitude).get(kind, self.default_min_magnitude)

    def eligible(self, alert: dict) -> bool:
        template = self.template_for(alert["kind"])
        if template is None:
            return False
        return alert["magnitude"] >= self.threshold_for(alert["kind"])

    def query_for(self, alert: dict, corridor: tuple[str, str]) -> str:
        template = self.template_for(alert["kind"])
        if template is None:
            raise ValueError(f"no trigger template for alert kind {alert['kind']!r}")
        return template.format(
            series=alert["series_key"],
            epoch=alert["epoch"],
            where=corridor_phrase(corridor),
        )

    def corridor_plan(self, alert: dict) -> list[tuple[str, str]]:
        """The corridors one case may query, in order: the alert's own
        corridor first (when geographic), then the escalation playbook,
        deduplicated, capped at ``max_queries_per_case``."""
        plan: list[tuple[str, str]] = []
        own = corridor_from_series(alert["series_key"])
        if own is not None:
            plan.append(own)
        for corridor in self.escalation_corridors:
            if corridor not in plan:
                plan.append(corridor)
        return plan[: self.max_queries_per_case]


@dataclass
class _Episode:
    """One growth of the failed-infrastructure set: the unit of forensic
    attribution.  ``event_id`` is the timeline's ground truth when known."""

    epoch: int
    cables: tuple[str, ...]
    fingerprint: str
    event_id: str | None = None
    cased: bool = False


@dataclass
class ForensicCase:
    """The full closed loop for one incident: alert → ticket(s) → verdict."""

    case_id: str
    alert_kind: str
    series_key: str
    alert_epoch: int
    alert_magnitude: float
    episode_epoch: int
    event_id: str | None
    expected_cables: tuple[str, ...]
    fingerprint: str
    query: str
    world_key: str
    #: Untried corridors remaining from the policy's plan (consumed front-first).
    corridor_plan: list = field(default_factory=list, repr=False)
    corridors_tried: list = field(default_factory=list)
    queries_run: int = 0
    ticket: str | None = None
    from_cache: bool = False
    state: str = "pending"
    artifact_digest: str | None = None
    identified_cable: str | None = None
    verdict: str = "pending"  # confirmed | mismatch | undetermined | unscored | failed
    error: str = ""
    alerts_merged: int = 0
    #: Detection lag: epochs between the incident firing and the alert.
    alert_latency_epochs: int = 0
    #: Wall-clock seconds from the alert arriving to the verdict landing.
    verdict_latency_s: float | None = None
    #: Trace id of the case's span tree ("" when tracing was off).  When the
    #: triggering alert carried a context this is the *alert's* trace id —
    #: the case span nests under it, so one trace covers alert → verdict.
    trace_id: str = ""
    #: Flight-recorder postmortem covering this case's verdict job, when its
    #: worker crashed and a recorder was running ("" otherwise).
    flight_dump: str = ""
    opened_at: float = field(default=0.0, repr=False)
    span: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "alert_kind": self.alert_kind,
            "series_key": self.series_key,
            "alert_epoch": self.alert_epoch,
            "alert_magnitude": round(self.alert_magnitude, 4),
            "episode_epoch": self.episode_epoch,
            "event_id": self.event_id,
            "expected_cables": list(self.expected_cables),
            "fingerprint": self.fingerprint,
            "query": self.query,
            "world_key": self.world_key,
            "corridors_tried": list(self.corridors_tried),
            "queries_run": self.queries_run,
            "ticket": self.ticket,
            "from_cache": self.from_cache,
            "state": self.state,
            "artifact_digest": self.artifact_digest,
            "identified_cable": self.identified_cable,
            "verdict": self.verdict,
            "error": self.error,
            "alerts_merged": self.alerts_merged,
            "alert_latency_epochs": self.alert_latency_epochs,
            "verdict_latency_s": (
                round(self.verdict_latency_s, 6)
                if self.verdict_latency_s is not None else None
            ),
            "trace_id": self.trace_id,
            "flight_dump": self.flight_dump,
        }


class ForensicTrigger:
    """Subscribes to the alerts topic and closes the loop per policy.

    Drive it like the other live planes: :meth:`on_epoch` once per epoch
    after the detectors ran (it drains the alert subscription, opens
    episodes from the epoch's failure-set delta, and turns eligible alerts
    into cases), then :meth:`collect` to join finished tickets back into
    verdicts.  Pass the replay's :class:`WorldTimeline` for per-event
    ground truth; without one, episodes fall back to raw failure-set
    deltas and verdicts score against those.
    """

    def __init__(
        self,
        bus: EventBus,
        broker: QueryBroker,
        pool: EpochShardPool | None = None,
        policy: TriggerPolicy | None = None,
        timeline: WorldTimeline | None = None,
        base_world_key: str = DEFAULT_WORLD_KEY,
        queue_maxlen: int = 1024,
        clock=time.perf_counter,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.bus = bus
        self.broker = broker
        # Default to the broker's obs plane so case spans, job spans and
        # forensic counters land in one tracer/registry without extra wiring.
        self.tracer = resolve_tracer(
            tracer if tracer is not None else getattr(broker, "tracer", None)
        )
        self._metrics = (
            metrics if metrics is not None
            else getattr(broker, "metrics", None)
        )
        # Explicit None check: an empty pool is falsy (it has __len__).
        self.pool = pool if pool is not None else EpochShardPool(broker)
        self.policy = policy or TriggerPolicy()
        self.timeline = timeline
        self.base_world_key = base_world_key
        self._clock = clock
        self._sub: Subscription = bus.subscribe(
            ALERTS_TOPIC, name="forensic-trigger", maxlen=queue_maxlen
        )
        self._base_world_fp = broker.shard(base_world_key).world.fingerprint()
        self._episodes: list[_Episode] = []
        self._previous: EpochState | None = None
        self._open_cases: list[ForensicCase] = []  # submitted, not yet joined
        self.cases: list[ForensicCase] = []
        self._case_counter = 0
        self._counts = {
            "alerts_seen": 0,
            "alerts_merged": 0,
            "suppressed_threshold": 0,
            "suppressed_rate": 0,
            "suppressed_budget": 0,
            "unattributed": 0,
            "episodes_opened": 0,
            "cases_opened": 0,
            "cases_from_cache": 0,
            "queries_submitted": 0,
            "query_cache_hits": 0,
            "escalations": 0,
            "submit_retries": 0,
            "submit_rejected": 0,
        }

    def _journal_case(self, record: dict) -> None:
        """Append a forensic-case transition to the broker's WAL (when one
        is configured): a restarted broker lists interrupted cases in its
        recovery report instead of forgetting the incident existed."""
        journal = getattr(self.broker, "journal", None)
        if journal is None:
            return
        journal.append("case", dict(record, ts=time.time()), sync=False)

    # -- episode bookkeeping ------------------------------------------------

    def _open_episodes(self, state: EpochState) -> None:
        previous = self._previous
        prev_links = previous.failed_link_ids if previous else frozenset()
        new_links = state.failed_link_ids - prev_links
        if not new_links:
            return
        if self.timeline is not None and state.fired_event_ids:
            for event_id in state.fired_event_ids:
                cables = self.timeline.event_cables(event_id)
                if not cables:
                    continue  # a disaster that broke nothing alerts nothing
                self._episodes.append(_Episode(
                    epoch=state.index,
                    cables=tuple(sorted(cables)),
                    fingerprint=self.timeline.event_fingerprint(event_id),
                    event_id=event_id,
                ))
                self._counts["episodes_opened"] += 1
            return
        prev_cables = set(previous.failed_cable_ids) if previous else set()
        delta_cables = tuple(sorted(set(state.failed_cable_ids) - prev_cables))
        self._episodes.append(_Episode(
            epoch=state.index,
            cables=delta_cables,
            fingerprint=compose_fingerprint(self._base_world_fp, new_links),
        ))
        self._counts["episodes_opened"] += 1

    def _next_uncased_episode(self, alert_epoch: int) -> _Episode | None:
        """Oldest episode still needing a case that this alert could plausibly
        be evidence of: fired at or before the alert, within the window."""
        window = self.policy.dedup_window_epochs
        for episode in self._episodes:
            if episode.cased:
                continue
            if episode.epoch <= alert_epoch <= episode.epoch + window:
                return episode
        return None

    def _mergeable_case(self, alert_epoch: int) -> ForensicCase | None:
        """The most recent case this trailing alert folds into."""
        window = self.policy.dedup_window_epochs
        for case in reversed(self.cases):
            if 0 <= alert_epoch - case.alert_epoch <= window:
                return case
        return None

    # -- the trigger itself --------------------------------------------------

    def on_epoch(self, state: EpochState) -> list[ForensicCase]:
        """Drain alerts, open cases per policy; returns the cases opened.

        Cache hits resolve to a verdict immediately; misses are submitted
        at :attr:`TriggerPolicy.priority` and joined by :meth:`collect`.
        """
        self._open_episodes(state)
        self._previous = state
        opened: list[ForensicCase] = []
        # Geographic alerts make the best case openers — their series names
        # the corridor to probe first — so they outrank louder but
        # placeless ones (a BGP burst) within each epoch's batch.
        batch = sorted(self._sub.drain(), key=lambda a: (
            a["epoch"],
            0 if corridor_from_series(a["series_key"]) else 1,
            -a["magnitude"],
            a["kind"],
            a["series_key"],
        ))
        for alert in batch:
            self._counts["alerts_seen"] += 1
            if not self.policy.eligible(alert):
                self._counts["suppressed_threshold"] += 1
                continue
            episode = self._next_uncased_episode(alert["epoch"])
            if episode is None:
                case = self._mergeable_case(alert["epoch"])
                if case is not None:
                    case.alerts_merged += 1
                    self._counts["alerts_merged"] += 1
                else:
                    self._counts["unattributed"] += 1
                continue
            budget = self.policy.max_total_cases
            if budget is not None and self._case_counter >= budget:
                self._counts["suppressed_budget"] += 1
                continue
            if len(opened) >= self.policy.max_cases_per_epoch:
                self._counts["suppressed_rate"] += 1
                continue
            opened.append(self._open_case(alert, episode))
        return opened

    def _open_case(self, alert: dict, episode: _Episode) -> ForensicCase:
        episode.cased = True
        self._case_counter += 1
        alert_ctx = (
            TraceContext.from_dict(alert["trace"])
            if isinstance(alert.get("trace"), dict) else None
        )
        case = ForensicCase(
            case_id=f"case-{self._case_counter:03d}",
            alert_kind=alert["kind"],
            series_key=alert["series_key"],
            alert_epoch=alert["epoch"],
            alert_magnitude=alert["magnitude"],
            episode_epoch=episode.epoch,
            event_id=episode.event_id,
            expected_cables=episode.cables,
            fingerprint=episode.fingerprint,
            query="",
            world_key=self.base_world_key,
            corridor_plan=self.policy.corridor_plan(alert),
            alert_latency_epochs=alert["epoch"] - episode.epoch,
            opened_at=self._clock(),
        )
        if self.tracer.enabled:
            # Parent under the triggering alert's span when it carried one
            # (one trace then spans alert → case → verdict queries); a bare
            # alert dict starts a fresh case trace.
            case.span = self.tracer.start_span(
                "forensic.case", parent=alert_ctx, cat="forensic",
                case_id=case.case_id, alert_kind=case.alert_kind,
                series=case.series_key, episode_epoch=case.episode_epoch,
            )
            case.trace_id = case.span.context.trace_id
        self._counts["cases_opened"] += 1
        self.cases.append(case)
        self._journal_case({
            "case_id": case.case_id,
            "state": "open",
            "alert_kind": case.alert_kind,
            "series_key": case.series_key,
            "alert_epoch": case.alert_epoch,
            "episode_epoch": case.episode_epoch,
            "event_id": case.event_id,
            "expected_cables": list(case.expected_cables),
            "fingerprint": case.fingerprint,
        })
        if not self._start_attempt(case):
            self._open_cases.append(case)
        return case

    def _alert_of(self, case: ForensicCase) -> dict:
        return {
            "kind": case.alert_kind,
            "series_key": case.series_key,
            "epoch": case.alert_epoch,
            "magnitude": case.alert_magnitude,
        }

    def _material(self, case: ForensicCase) -> dict:
        return {
            "query": case.query,
            "world_key": self.base_world_key,
            "fingerprint": case.fingerprint,
        }

    def _start_attempt(self, case: ForensicCase) -> bool:
        """Begin the next corridor query from the case's plan.

        Cached outcomes resolve without touching the scheduler — including
        chains of cached "nothing on this corridor" verdicts, so a warm
        replay walks the whole escalation without one submission.  Returns
        ``True`` when the case settled synchronously; ``False`` when a
        query was submitted and :meth:`collect` must join it.
        """
        cache = self.broker.cache
        while case.corridor_plan:
            corridor = case.corridor_plan.pop(0)
            case.corridors_tried.append(f"{corridor[0]}->{corridor[1]}")
            case.queries_run += 1
            case.query = self.policy.query_for(self._alert_of(case), corridor)
            if cache is not None:
                payload = cache.fetch(FORENSIC_STAGE, self._material(case))
                if payload is not None:
                    self._counts["query_cache_hits"] += 1
                    case.state = payload["state"]
                    case.artifact_digest = payload.get("artifact_digest")
                    final = payload.get("final")
                    identified = (
                        final.get("identified_cable_id")
                        if isinstance(final, dict) else None
                    )
                    if (payload["state"] == "done" and identified is None
                            and case.corridor_plan):
                        self._counts["escalations"] += 1
                        continue  # cached "nothing here": widen the search
                    self._finish(case, final)
                    return True
            case.world_key = self.pool.materialize(
                self.base_world_key, case.fingerprint, case.expected_cables
            )
            ticket = self._submit_with_backoff(case)
            if ticket is None:
                case.state = "failed"
                case.error = "broker queue saturated"
                self._finish(case, None)
                return True
            case.ticket = ticket
            self.pool.pin(case.world_key)
            self._counts["queries_submitted"] += 1
            return False
        # Plan exhausted without a fresh submission (every corridor cached
        # and undetermined): the last cached outcome stands.
        self._finish(case, None)
        return True

    def _submit_with_backoff(self, case: ForensicCase) -> str | None:
        """Submit the case's query, absorbing a saturated admission queue
        with a bounded exponential back-off instead of a silent drop.
        Returns the ticket, or ``None`` once the retry budget is spent
        (counted in ``forensic_submit_rejected_total``)."""
        delay = self.policy.submit_backoff_s
        for attempt in range(self.policy.submit_retry_limit + 1):
            try:
                return self.broker.submit(
                    case.query, priority=self.policy.priority,
                    world_key=case.world_key, trace_parent=case.span,
                )
            except QueueSaturated:
                if attempt >= self.policy.submit_retry_limit:
                    break
                self._counts["submit_retries"] += 1
                if self._metrics is not None:
                    self._metrics.counter("forensic_submit_retries_total").inc()
                if delay > 0:
                    time.sleep(delay)
                delay = min(delay * 2, 1.0)
        self._counts["submit_rejected"] += 1
        if self._metrics is not None:
            self._metrics.counter("forensic_submit_rejected_total").inc()
        return None

    def collect(self, timeout: float | None = None) -> list[ForensicCase]:
        """Join every outstanding ticket back into its case's verdict,
        escalating (and waiting again) while corridors come back empty."""
        joined: list[ForensicCase] = []
        pending, self._open_cases = self._open_cases, []
        for case in pending:
            while True:
                job = self.broker.wait(case.ticket, timeout)
                self.pool.unpin(case.world_key)
                case.state = job.state.value
                # A crash-retried verdict job carries its postmortem path.
                case.flight_dump = job.flight_dump
                final = None
                if job.state is JobState.DONE:
                    outputs = job.result.execution.outputs
                    final = outputs.get("final") if isinstance(outputs, dict) else None
                    case.artifact_digest = job.result.artifact_digest()
                    if self.broker.cache is not None:
                        self.broker.cache.store(
                            FORENSIC_STAGE,
                            self._material(case),
                            {
                                "state": case.state,
                                "final": final,
                                "artifact_digest": case.artifact_digest,
                            },
                        )
                    identified = (
                        final.get("identified_cable_id")
                        if isinstance(final, dict) else None
                    )
                    if identified is None and case.corridor_plan:
                        self._counts["escalations"] += 1
                        if self._start_attempt(case):
                            break  # settled from cache mid-escalation
                        continue  # a fresh query is in flight; wait for it
                else:
                    case.error = job.error
                self._finish(case, final)
                break
            joined.append(case)
        return joined

    def _finish(self, case: ForensicCase, final: dict | None) -> None:
        case.verdict_latency_s = max(0.0, self._clock() - case.opened_at)
        if case.ticket is None:
            # Resolved without ever touching the scheduler.
            case.from_cache = True
            self._counts["cases_from_cache"] += 1
        if case.state != "done":
            case.verdict = "failed"
        else:
            identified = (
                final.get("identified_cable_id") if isinstance(final, dict)
                else None
            )
            case.identified_cable = identified
            if not case.expected_cables:
                case.verdict = "unscored"
            elif identified is None:
                case.verdict = "undetermined"
            elif identified in case.expected_cables:
                case.verdict = "confirmed"
            else:
                case.verdict = "mismatch"
        if case.span is not None:
            case.span.annotate(
                verdict=case.verdict,
                identified_cable=case.identified_cable,
                queries_run=case.queries_run,
                from_cache=case.from_cache,
            ).end()
        if self._metrics is not None:
            self._metrics.counter(
                "forensic_cases_total", {"verdict": case.verdict}).inc()
            self._metrics.histogram(
                "forensic_verdict_latency_seconds"
            ).observe(case.verdict_latency_s)
        self._journal_case({
            "case_id": case.case_id,
            "state": "closed",
            "verdict": case.verdict,
            "identified_cable": case.identified_cable,
            "artifact_digest": case.artifact_digest,
            "queries_run": case.queries_run,
            "from_cache": case.from_cache,
            "error": case.error,
        })

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        verdicts: dict[str, int] = {}
        for case in self.cases:
            verdicts[case.verdict] = verdicts.get(case.verdict, 0) + 1
        settled = [c for c in self.cases if c.verdict_latency_s is not None]
        alert_lags = [c.alert_latency_epochs for c in self.cases]
        return {
            **self._counts,
            "cases_total": len(self.cases),
            "cases_outstanding": len(self._open_cases),
            "verdicts": verdicts,
            "mean_queries_per_case": (
                sum(c.queries_run for c in self.cases) / len(self.cases)
                if self.cases else None
            ),
            "mean_alert_latency_epochs": (
                sum(alert_lags) / len(alert_lags) if alert_lags else None
            ),
            "mean_verdict_latency_s": (
                sum(c.verdict_latency_s for c in settled) / len(settled)
                if settled else None
            ),
            "pool": self.pool.stats(),
        }
