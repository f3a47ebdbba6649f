"""Failure simulation: from event footprints to concrete failure sets.

Every exposed cable fails with probability ``failure_probability *
exposure`` (Bernoulli, seeded), as in Xaminer's sampled mode.  Used by
``xaminer.process_event`` and the live plane's timelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.xaminer.events import EventFootprint
from repro.synth.world import SyntheticWorld


@dataclass
class FailureSample:
    """One concrete draw of failed infrastructure."""

    failed_cable_ids: list[str] = field(default_factory=list)
    failed_link_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "failed_cable_ids": list(self.failed_cable_ids),
            "failed_link_ids": list(self.failed_link_ids),
        }


def links_for_cables(world: SyntheticWorld, cable_ids: list[str]) -> list[str]:
    """All IP links riding any of the given cables (ground-truth layer)."""
    out: list[str] = []
    for cable_id in cable_ids:
        out.extend(link.id for link in world.links_on_cable(cable_id))
    return sorted(set(out))


def simulate_failures(
    world: SyntheticWorld,
    footprint: EventFootprint,
    failure_probability: float = 1.0,
    seed: int = 0,
) -> FailureSample:
    """Draw one failure sample from a footprint.

    Every cable the footprint *touches* (exposure > 0) fails independently
    with ``failure_probability`` — the paper's case study 2 asks for "a 10%
    infra failure probability", a per-asset probability, not one scaled by
    how deeply the asset sits in the footprint.  The seed is mixed with the
    event id so that a multi-event sweep with one user seed still draws
    independently per event.
    """
    if not 0.0 <= failure_probability <= 1.0:
        raise ValueError("failure_probability must be within [0, 1]")
    rng = random.Random(f"{seed}:{footprint.event_id}")
    failed_cables: list[str] = []
    for cable_id in sorted(footprint.cable_exposure):
        exposure = footprint.cable_exposure[cable_id]
        if exposure > 0 and rng.random() < failure_probability:
            failed_cables.append(cable_id)
    return FailureSample(
        failed_cable_ids=failed_cables,
        failed_link_ids=links_for_cables(world, failed_cables),
    )
