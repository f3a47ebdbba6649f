"""Event footprint computation: which infrastructure an event touches.

Geographic events (earthquakes, hurricanes) affect cables whose wet segments
or landing stations pass through the event's radius; the *exposure* of a
cable is the fraction of its sampled geometry inside the footprint.  Cable
cuts name their targets explicitly and have exposure 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.synth.geography import point_within_radius
from repro.synth.scenarios import DisasterEvent, DisasterKind
from repro.synth.world import SyntheticWorld

#: Points sampled per cable segment for footprint intersection.
_SAMPLES_PER_SEGMENT = 8


@dataclass
class EventFootprint:
    """The infrastructure an event touches, with per-cable exposure."""

    event_id: str
    cable_exposure: dict[str, float] = field(default_factory=dict)  # cable_id -> 0..1
    landing_point_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "cable_exposure": {k: round(v, 4) for k, v in self.cable_exposure.items()},
            "landing_point_ids": list(self.landing_point_ids),
        }


def _geo_exposure(world: SyntheticWorld, center: tuple[float, float], radius_km: float) -> dict[str, float]:
    exposure: dict[str, float] = {}
    for cable in world.cables.values():
        inside = 0
        total = 0
        for segment in cable.segments:
            src = world.landing_points[segment.src_landing]
            dst = world.landing_points[segment.dst_landing]
            for point in segment.sample_points(src, dst, _SAMPLES_PER_SEGMENT):
                total += 1
                if point_within_radius(point, center, radius_km):
                    inside += 1
        if total and inside:
            exposure[cable.id] = inside / total
    return exposure


def event_footprint(world: SyntheticWorld, event: DisasterEvent) -> EventFootprint:
    """Compute the footprint of one event."""
    footprint = EventFootprint(event_id=event.id)
    if event.kind is DisasterKind.CABLE_CUT:
        for name in event.cable_names:
            cable = world.cable_named(name)
            footprint.cable_exposure[cable.id] = 1.0
            footprint.landing_point_ids.extend(cable.landing_point_ids)
        return footprint

    if event.center is None or event.radius_km <= 0:
        raise ValueError(f"geographic event {event.id} needs a center and radius")
    footprint.cable_exposure = _geo_exposure(world, event.center, event.radius_km)
    footprint.landing_point_ids = sorted(
        lp.id
        for lp in world.landing_points.values()
        if point_within_radius(lp.coord, event.center, event.radius_km)
    )
    return footprint
