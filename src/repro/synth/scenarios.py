"""Scenario substrate: disasters and ground-truth incidents.

Scenarios are *inputs* to the measurement frameworks: a disaster event with a
geographic footprint (earthquake, hurricane) or an explicit cable cut.  The
module also builds the ground-truth latency incident used by the forensic
case study — a specific cable failure at a known time, from which the
traceroute and BGP substrates derive observable evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.synth.world import SyntheticWorld


class DisasterKind(str, Enum):
    EARTHQUAKE = "earthquake"
    HURRICANE = "hurricane"
    CABLE_CUT = "cable_cut"


@dataclass(frozen=True)
class DisasterEvent:
    """A disaster with either a geographic footprint or explicit cable targets.

    ``magnitude`` is Richter-like for earthquakes and Saffir-Simpson category
    for hurricanes; ``severe`` earthquakes are magnitude >= 7.0 and severe
    hurricanes category >= 4 (the thresholds the Xaminer paper uses).
    """

    id: str
    kind: DisasterKind
    name: str
    center: tuple[float, float] | None = None
    radius_km: float = 0.0
    magnitude: float = 0.0
    cable_names: tuple[str, ...] = ()
    timestamp: float = 0.0

    @property
    def is_severe(self) -> bool:
        if self.kind is DisasterKind.EARTHQUAKE:
            return self.magnitude >= 7.0
        if self.kind is DisasterKind.HURRICANE:
            return self.magnitude >= 4.0
        return True  # explicit cable cuts are always "severe"


def default_disaster_catalog() -> list[DisasterEvent]:
    """Historical-shaped catalog of earthquakes and hurricanes.

    Centers sit in real seismic zones and hurricane basins so that severe
    events intersect cable-dense corridors (Luzon Strait, Japan trench,
    Caribbean) just as the motivating incidents in the paper did.
    """
    quakes = [
        DisasterEvent(
            id="eq-taiwan-2026", kind=DisasterKind.EARTHQUAKE, name="Hengchun II",
            center=(21.9, 120.7), radius_km=450.0, magnitude=7.4, timestamp=86_400.0,
        ),
        DisasterEvent(
            id="eq-japan-2026", kind=DisasterKind.EARTHQUAKE, name="Nankai Margin",
            center=(33.2, 136.5), radius_km=500.0, magnitude=7.9, timestamp=172_800.0,
        ),
        DisasterEvent(
            id="eq-sumatra-2026", kind=DisasterKind.EARTHQUAKE, name="Mentawai Gap",
            center=(-2.8, 99.2), radius_km=550.0, magnitude=8.1, timestamp=259_200.0,
        ),
        DisasterEvent(
            id="eq-marmara-2026", kind=DisasterKind.EARTHQUAKE, name="Marmara Fault",
            center=(40.8, 28.6), radius_km=300.0, magnitude=6.4, timestamp=345_600.0,
        ),
        DisasterEvent(
            id="eq-izmit-2026", kind=DisasterKind.EARTHQUAKE, name="Izmit Repeat",
            center=(40.7, 30.0), radius_km=420.0, magnitude=7.2, timestamp=432_000.0,
        ),
    ]
    hurricanes = [
        DisasterEvent(
            id="hu-caribbean-2026", kind=DisasterKind.HURRICANE, name="Hurricane Tellus",
            center=(22.5, -80.0), radius_km=600.0, magnitude=4.0, timestamp=518_400.0,
        ),
        DisasterEvent(
            id="hu-atlantic-2026", kind=DisasterKind.HURRICANE, name="Hurricane Vortex",
            center=(35.5, -74.0), radius_km=500.0, magnitude=5.0, timestamp=604_800.0,
        ),
        DisasterEvent(
            id="hu-luzon-2026", kind=DisasterKind.HURRICANE, name="Typhoon Albatross",
            center=(17.5, 122.0), radius_km=650.0, magnitude=5.0, timestamp=691_200.0,
        ),
        DisasterEvent(
            id="hu-gulf-2026", kind=DisasterKind.HURRICANE, name="Hurricane Briar",
            center=(27.5, -90.0), radius_km=450.0, magnitude=3.0, timestamp=777_600.0,
        ),
    ]
    return quakes + hurricanes


def cable_cut_event(world: SyntheticWorld, cable_name: str, timestamp: float = 0.0) -> DisasterEvent:
    """An explicit cut of one named cable (validates the name eagerly)."""
    cable = world.cable_named(cable_name)
    return DisasterEvent(
        id=f"cut-{cable.id}",
        kind=DisasterKind.CABLE_CUT,
        name=f"{cable.name} cable cut",
        cable_names=(cable.name,),
        timestamp=timestamp,
    )


@dataclass(frozen=True)
class LatencyIncident:
    """Ground truth for the forensic case study (§4.3).

    A named cable fails at ``onset`` (seconds into the observation window).
    The traceroute substrate raises RTTs on paths that rode the cable after
    onset; the BGP substrate emits correlated withdrawals and re-announcements.
    The forensic workflow must recover ``cable_name`` from those observables.
    """

    cable_name: str
    onset: float
    window_start: float
    window_end: float
    severity: float = 1.0  # scales the latency shift

    def __post_init__(self) -> None:
        if not self.window_start <= self.onset <= self.window_end:
            raise ValueError("onset must fall inside the observation window")


SECONDS_PER_DAY = 86_400.0


def make_latency_incident(
    world: SyntheticWorld,
    cable_name: str = "SeaMeWe-5",
    days_of_history: float = 7.0,
    days_since_onset: float = 3.0,
    severity: float = 1.0,
) -> LatencyIncident:
    """Build the §4.3 scenario: anomaly started ``days_since_onset`` days ago.

    The observation window covers ``days_of_history`` days ending "now";
    the failure onsets ``days_since_onset`` days before the window end —
    matching the query "a sudden increase ... starting three days ago".
    """
    world.cable_named(cable_name)  # validate eagerly
    window_end = days_of_history * SECONDS_PER_DAY
    onset = window_end - days_since_onset * SECONDS_PER_DAY
    if onset <= 0:
        raise ValueError("history window too short for the requested onset")
    return LatencyIncident(
        cable_name=cable_name,
        onset=onset,
        window_start=0.0,
        window_end=window_end,
        severity=severity,
    )
