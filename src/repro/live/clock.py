"""Epoch-stepped world evolution: the simulation clock and world timeline.

The rest of the repository treats a :class:`SyntheticWorld` as frozen; the
live subsystem makes *time* a first-class input instead.  A
:class:`WorldTimeline` steps the world through discrete epochs, firing
:class:`DisasterEvent`s from the scenario catalog at their scheduled epoch
and healing them again after their outage duration.  The world object is
never mutated — each epoch materializes as an :class:`EpochState` carrying
the set of failed IP links (cable cuts degrade the links riding the cable,
which is what makes BGP reroute and RTTs inflate downstream) plus a
deterministic fingerprint over that configuration.  Two epochs in which the
world looks identical share a fingerprint, which is exactly what lets
standing queries serve unchanged epochs from cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time as _time
from dataclasses import dataclass

from repro.obs import resolve_tracer
from repro.synth.scenarios import DisasterEvent, default_disaster_catalog
from repro.synth.world import SyntheticWorld
from repro.xaminer.events import event_footprint
from repro.xaminer.failures import simulate_failures


def compose_fingerprint(world_fingerprint: str, failed_links) -> str:
    """Deterministic configuration fingerprint over a failed-link set.

    Shared by :class:`WorldTimeline` (full epoch configurations) and the
    forensic trigger plane (per-episode deltas), so an episode that *is*
    the whole configuration — the first disaster of a quiet timeline —
    hashes to the same fingerprint as the epoch itself and its broker
    shard is shared rather than duplicated.
    """
    material = f"{world_fingerprint}|{','.join(sorted(failed_links))}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class SimulationClock:
    """Maps epoch indexes to simulated time, optionally pacing real time.

    ``pace_s`` is the wall-clock duration of one epoch during replay;
    0 (the default) replays as fast as the hardware allows.
    """

    def __init__(self, epoch_seconds: float = 3600.0, pace_s: float = 0.0,
                 sleep=_time.sleep):
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if pace_s < 0:
            raise ValueError("pace_s must be non-negative")
        self.epoch_seconds = epoch_seconds
        self.pace_s = pace_s
        self._sleep = sleep
        self.epoch = -1  # no epoch ticked yet

    @property
    def now_ts(self) -> float:
        """Simulated time at the end of the current epoch."""
        return (self.epoch + 1) * self.epoch_seconds

    def tick(self) -> tuple[int, float, float]:
        """Advance one epoch; returns (index, window_start, window_end)."""
        if self.pace_s:
            self._sleep(self.pace_s)
        self.epoch += 1
        start = self.epoch * self.epoch_seconds
        return self.epoch, start, start + self.epoch_seconds


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled disaster: fires at ``start_epoch``, heals after
    ``duration_epochs`` (``None`` = never repaired within the replay)."""

    event: DisasterEvent
    start_epoch: int
    duration_epochs: int | None = None

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise ValueError("start_epoch must be >= 0")
        if self.duration_epochs is not None and self.duration_epochs < 1:
            raise ValueError("duration_epochs must be >= 1 (or None)")

    def active_at(self, epoch: int) -> bool:
        if epoch < self.start_epoch:
            return False
        if self.duration_epochs is None:
            return True
        return epoch < self.start_epoch + self.duration_epochs


@dataclass(frozen=True)
class EpochState:
    """Everything downstream consumers need to know about one epoch."""

    index: int
    window_start: float
    window_end: float
    fingerprint: str
    failed_link_ids: frozenset[str]
    failed_cable_ids: tuple[str, ...]
    active_event_ids: tuple[str, ...]
    fired_event_ids: tuple[str, ...] = ()
    healed_event_ids: tuple[str, ...] = ()
    changed: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "fingerprint": self.fingerprint,
            "failed_link_ids": sorted(self.failed_link_ids),
            "failed_cable_ids": list(self.failed_cable_ids),
            "active_event_ids": list(self.active_event_ids),
            "fired_event_ids": list(self.fired_event_ids),
            "healed_event_ids": list(self.healed_event_ids),
            "changed": self.changed,
        }


class WorldTimeline:
    """Evolves a world through epochs by firing and healing timeline events.

    The per-event failure draw (which exposed cables actually break) is
    computed once, up front, through the same footprint + Bernoulli
    machinery ``xaminer.process_event`` uses — so a timeline is
    deterministic in (world, events, failure_probability, seed) and
    replaying it yields the identical epoch fingerprint sequence every run.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        events: list[TimelineEvent],
        clock: SimulationClock | None = None,
        failure_probability: float = 1.0,
        seed: int = 0,
        tracer=None,
    ):
        self.world = world
        self.events = sorted(events, key=lambda e: (e.start_epoch, e.event.id))
        self.clock = clock or SimulationClock()
        self.tracer = resolve_tracer(tracer)
        self._world_fp = world.fingerprint()
        self._event_links: dict[str, frozenset[str]] = {}
        self._event_cables: dict[str, tuple[str, ...]] = {}
        for item in self.events:
            footprint = event_footprint(world, item.event)
            sample = simulate_failures(
                world, footprint, failure_probability=failure_probability, seed=seed
            )
            self._event_links[item.event.id] = frozenset(sample.failed_link_ids)
            self._event_cables[item.event.id] = tuple(sample.failed_cable_ids)
        self._previous: EpochState | None = None

    # -- epoch math ---------------------------------------------------------

    def state_at(self, epoch: int, window_start: float, window_end: float) -> EpochState:
        """The world configuration during one epoch (pure, no stepping)."""
        active = [e for e in self.events if e.active_at(epoch)]
        failed_links: set[str] = set()
        failed_cables: set[str] = set()
        for item in active:
            failed_links |= self._event_links[item.event.id]
            failed_cables.update(self._event_cables[item.event.id])
        fired = tuple(e.event.id for e in self.events if e.start_epoch == epoch)
        healed = tuple(
            e.event.id
            for e in self.events
            if e.duration_epochs is not None
            and e.start_epoch + e.duration_epochs == epoch
        )
        return EpochState(
            index=epoch,
            window_start=window_start,
            window_end=window_end,
            fingerprint=self._fingerprint(failed_links),
            failed_link_ids=frozenset(failed_links),
            failed_cable_ids=tuple(sorted(failed_cables)),
            active_event_ids=tuple(e.event.id for e in active),
            fired_event_ids=fired,
            healed_event_ids=healed,
        )

    def step(self) -> EpochState:
        """Advance the clock one epoch and return the new state.

        ``changed`` flags epochs whose failed-infrastructure set differs
        from the previous epoch — the signal telemetry feeds and standing
        queries key off.
        """
        with self.tracer.span("epoch.tick", cat="live") as span:
            epoch, start, end = self.clock.tick()
            state = self.state_at(epoch, start, end)
            previous = self._previous
            changed = previous is None or previous.failed_link_ids != state.failed_link_ids
            state = dataclasses.replace(state, changed=changed)
            self._previous = state
            span.annotate(epoch=epoch, fingerprint=state.fingerprint,
                          changed=changed, fired=len(state.fired_event_ids),
                          healed=len(state.healed_event_ids))
        return state

    def run(self, epochs: int) -> list[EpochState]:
        """Step ``epochs`` times; mostly a convenience for tests."""
        return [self.step() for _ in range(epochs)]

    @property
    def previous(self) -> EpochState | None:
        return self._previous

    def incident_epochs(self) -> dict[str, int]:
        """Ground truth: event id → the epoch it fires (for scoring alerts)."""
        return {e.event.id: e.start_epoch for e in self.events}

    # -- per-event ground truth ---------------------------------------------

    def event_cables(self, event_id: str) -> tuple[str, ...]:
        """The cable ids this event's failure draw broke."""
        return self._event_cables[event_id]

    def event_fingerprint(self, event_id: str) -> str:
        """The configuration fingerprint of *this event alone* — what the
        world would look like if only this disaster were active.  Epoch
        fingerprints compose the union of active events; per-event
        fingerprints let triggered forensics key a shard (and a cache
        entry) to one incident even while others overlap it."""
        return compose_fingerprint(self._world_fp, self._event_links[event_id])

    def ground_truth(self) -> dict[str, dict]:
        """Everything a forensic verdict needs, per event: fire epoch, the
        cables the event broke, and its solo-configuration fingerprint."""
        return {
            e.event.id: {
                "epoch": e.start_epoch,
                "cables": self._event_cables[e.event.id],
                "links": self._event_links[e.event.id],
                "fingerprint": self.event_fingerprint(e.event.id),
            }
            for e in self.events
        }

    def _fingerprint(self, failed_links: set[str]) -> str:
        return compose_fingerprint(self._world_fp, failed_links)


def timeline_from_catalog(
    world: SyntheticWorld,
    epoch_seconds: float = 3600.0,
    duration_epochs: int | None = 6,
    catalog: list[DisasterEvent] | None = None,
) -> list[TimelineEvent]:
    """Schedule the scenario catalog onto an epoch grid.

    Each catalog event fires at the epoch containing its ``timestamp`` and
    heals ``duration_epochs`` later — turning the static disaster catalog
    into a replayable world history.
    """
    events = catalog if catalog is not None else default_disaster_catalog()
    return [
        TimelineEvent(
            event=event,
            start_epoch=int(event.timestamp // epoch_seconds),
            duration_epochs=duration_epochs,
        )
        for event in events
    ]


def overlapping_catalog_timeline(
    world: SyntheticWorld,
    count: int = 3,
    first_epoch: int = 4,
    stagger_epochs: int = 2,
    duration_epochs: int = 8,
    catalog: list[DisasterEvent] | None = None,
    failure_probability: float = 1.0,
    seed: int = 0,
) -> list[TimelineEvent]:
    """Schedule ``count`` concurrent catalog disasters with overlapping
    fire/heal windows.

    Events are chosen greedily from the catalog: only severe events whose
    failure draw actually breaks cables qualify, and each new pick must
    break cables *disjoint* from every earlier pick — so the composed
    epoch configurations genuinely superimpose distinct incidents and a
    triggered forensic query has something to disambiguate.  The i-th
    event fires at ``first_epoch + i * stagger_epochs``; with
    ``duration_epochs > stagger_epochs * (count - 1)`` every event is
    simultaneously active for at least one epoch.

    The failure draw here uses the same (footprint, probability, seed)
    machinery as :class:`WorldTimeline`, so what qualifies an event is
    exactly what the timeline will fire.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if stagger_epochs < 1:
        raise ValueError(
            "stagger_epochs must be >= 1: simultaneous fires collapse two "
            "incidents into one alert episode"
        )
    if duration_epochs <= stagger_epochs * (count - 1):
        raise ValueError(
            f"duration_epochs={duration_epochs} too short: the windows of "
            f"{count} events staggered by {stagger_epochs} would never all overlap"
        )
    events = catalog if catalog is not None else default_disaster_catalog()
    chosen: list[DisasterEvent] = []
    claimed_cables: set[str] = set()
    for event in events:
        if not event.is_severe:
            continue
        footprint = event_footprint(world, event)
        sample = simulate_failures(
            world, footprint, failure_probability=failure_probability, seed=seed
        )
        cables = set(sample.failed_cable_ids)
        if not cables or cables & claimed_cables:
            continue
        chosen.append(event)
        claimed_cables |= cables
        if len(chosen) == count:
            break
    if len(chosen) < count:
        raise ValueError(
            f"catalog yields only {len(chosen)} severe cable-breaking events "
            f"with disjoint footprints; asked for {count}"
        )
    return [
        TimelineEvent(
            event=event,
            start_epoch=first_epoch + i * stagger_epochs,
            duration_epochs=duration_epochs,
        )
        for i, event in enumerate(chosen)
    ]
