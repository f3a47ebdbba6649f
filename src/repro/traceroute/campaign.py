"""Measurement campaigns: periodic traceroutes from probes to targets.

A campaign runs probes in one region against targets in another at a fixed
interval over a time window.  Active incidents gate which links exist at
each measurement's timestamp, so the produced series carries the incident's
latency signature with the correct onset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traceroute.probes import build_probe_fleet, probes_in_region, targets_in_region
from repro.traceroute.rtt import PathResolver, sample_noise
from repro.synth.geography import Region
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import SyntheticWorld


@dataclass(frozen=True)
class CampaignSpec:
    """What to measure, from where, how often."""

    src_region: Region
    dst_region: Region
    window_start: float
    window_end: float
    interval_s: float = 3600.0
    probe_density: float = 1.0
    targets_per_country: int = 1

    def __post_init__(self) -> None:
        if self.window_end <= self.window_start:
            raise ValueError("window_end must be after window_start")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


def _failed_links_at(
    world: SyntheticWorld, incidents: list[LatencyIncident], ts: float
) -> frozenset[str]:
    """Links dead at time ``ts`` given the active incidents."""
    dead: set[str] = set()
    for incident in incidents:
        if ts >= incident.onset:
            cable = world.cable_named(incident.cable_name)
            dead.update(link.id for link in world.links_on_cable(cable.id))
    return frozenset(dead)


def campaign_rows(
    world: SyntheticWorld,
    spec: CampaignSpec,
    incidents: list[LatencyIncident] | None = None,
) -> list[dict]:
    """Execute a campaign and return every measurement row, time-ordered.

    Each row is one traceroute: ``ts``, ``probe_id``, ``src_country``,
    ``src_asn``, ``dst_asn``, ``dst_country``, ``rtt_ms`` (rounded to the
    microsecond; ``None`` when the target was unreachable), ``hop_count``
    and ``link_ids``.  The failed-link set only changes at incident onsets,
    so every (probe, target) path is resolved once per distinct set; each
    timestep then only draws the per-sample noise.

    Rows hold only scalars and immutable tuples: ``link_ids`` is the
    resolved path's own tuple (``()`` when unreachable), shared by every
    row on that path.  Once a collection has untracked those tuples the
    cyclic GC never tracks the row dicts, so a retained campaign costs
    collections nothing.  Copy ``link_ids`` before mutating it.
    """
    incidents = list(incidents or [])
    resolver = PathResolver(world)
    probes = probes_in_region(world, build_probe_fleet(world, spec.probe_density), spec.src_region)
    targets = targets_in_region(world, spec.dst_region, spec.targets_per_country)
    pairs = [
        (probe, dst_asn, world.ases[dst_asn].country_code)
        for probe in probes
        for dst_asn in targets
        if dst_asn != probe.asn
    ]

    # (pair fields, path) per set of active incidents.
    resolved: dict[tuple[bool, ...], list[tuple]] = {}
    rows: list[dict] = []
    ts = spec.window_start
    while ts < spec.window_end:
        active = tuple(ts >= incident.onset for incident in incidents)
        hops = resolved.get(active)
        if hops is None:
            failed = _failed_links_at(world, incidents, ts)
            hops = resolved[active] = [
                (probe.id, probe.country_code, probe.asn, dst_asn, dst_country,
                 resolver.resolve(probe.asn, dst_asn, failed))
                for probe, dst_asn, dst_country in pairs
            ]
        for probe_id, src_country, src_asn, dst_asn, dst_country, path in hops:
            if path is None:
                rtt, hop_count, link_ids = None, 0, ()
            else:
                rtt = round(path.base_rtt_ms * (1.0 + sample_noise(src_asn, dst_asn, ts)), 3)
                hop_count, link_ids = path.hop_count, path.link_ids
            rows.append({
                "ts": ts,
                "probe_id": probe_id,
                "src_country": src_country,
                "src_asn": src_asn,
                "dst_asn": dst_asn,
                "dst_country": dst_country,
                "rtt_ms": rtt,
                "hop_count": hop_count,
                "link_ids": link_ids,
            })
        ts += spec.interval_s
    return rows
