"""Reference implementations of the measurement hot path.

The straightforward per-measurement versions the fast paths in ``src/``
replaced: a campaign that resolves every (timestep, probe, target) through
:meth:`PathResolver.measured_rtt_ms` and wraps each result in a frozen
:class:`TracerouteMeasurement`; a latency binner built on
:class:`LatencyBin`; and cable ranking that searches each cable's landing
points again for every distance it needs.  Equivalence tests hold the fast
paths to exact equality with these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.synth.geography import haversine_km
from repro.synth.iplinks import cable_path_km
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import SyntheticWorld
from repro.traceroute.campaign import CampaignSpec, _failed_links_at
from repro.traceroute.probes import build_probe_fleet, probes_in_region, targets_in_region
from repro.traceroute.rtt import PathResolver


# -- campaigns -----------------------------------------------------------------


@dataclass(frozen=True)
class TracerouteMeasurement:
    """One traceroute result (RTT ``None`` means the target was unreachable)."""

    ts: float
    probe_id: str
    src_country: str
    src_asn: int
    dst_asn: int
    dst_country: str
    rtt_ms: float | None
    hop_count: int
    link_ids: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "probe_id": self.probe_id,
            "src_country": self.src_country,
            "src_asn": self.src_asn,
            "dst_asn": self.dst_asn,
            "dst_country": self.dst_country,
            "rtt_ms": round(self.rtt_ms, 3) if self.rtt_ms is not None else None,
            "hop_count": self.hop_count,
            "link_ids": list(self.link_ids),
        }


def run_campaign_spec(
    world: SyntheticWorld,
    spec: CampaignSpec,
    incidents: list[LatencyIncident] | None = None,
    resolver: PathResolver | None = None,
) -> list[TracerouteMeasurement]:
    """Execute a campaign and return every measurement, time-ordered."""
    incidents = list(incidents or [])
    resolver = resolver or PathResolver(world)
    probes = probes_in_region(world, build_probe_fleet(world, spec.probe_density), spec.src_region)
    targets = targets_in_region(world, spec.dst_region, spec.targets_per_country)

    measurements: list[TracerouteMeasurement] = []
    ts = spec.window_start
    while ts < spec.window_end:
        failed = _failed_links_at(world, incidents, ts)
        for probe in probes:
            for dst_asn in targets:
                if dst_asn == probe.asn:
                    continue
                rtt, path = resolver.measured_rtt_ms(probe.asn, dst_asn, ts, failed)
                measurements.append(
                    TracerouteMeasurement(
                        ts=ts,
                        probe_id=probe.id,
                        src_country=probe.country_code,
                        src_asn=probe.asn,
                        dst_asn=dst_asn,
                        dst_country=world.ases[dst_asn].country_code,
                        rtt_ms=rtt,
                        hop_count=path.hop_count if path else 0,
                        link_ids=path.link_ids if path else (),
                    )
                )
        ts += spec.interval_s
    return measurements


# -- latency series ------------------------------------------------------------


@dataclass(frozen=True)
class LatencyBin:
    """Aggregate latency for one time bin of one series."""

    bin_start: float
    median_rtt_ms: float | None
    sample_count: int
    loss_count: int

    @property
    def loss_rate(self) -> float:
        total = self.sample_count + self.loss_count
        return self.loss_count / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "bin_start": self.bin_start,
            "median_rtt_ms": round(self.median_rtt_ms, 3) if self.median_rtt_ms is not None else None,
            "sample_count": self.sample_count,
            "loss_count": self.loss_count,
            "loss_rate": round(self.loss_rate, 4),
        }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _series_key(row: dict, group_by: str) -> str:
    if group_by == "pair":
        return f"{row['src_country']}->{row['dst_country']}"
    if group_by == "src_country":
        return str(row["src_country"])
    if group_by == "dst_country":
        return str(row["dst_country"])
    if group_by == "aggregate":
        return "all"
    raise ValueError(f"unknown group_by {group_by!r}")


def latency_series_from_rows(
    rows: list[dict],
    group_by: str = "pair",
    bin_seconds: float = 3600.0,
) -> dict[str, list[LatencyBin]]:
    """Group measurement rows into binned latency series."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    grouped: dict[str, dict[float, tuple[list[float], int]]] = {}
    for row in rows:
        key = _series_key(row, group_by)
        bin_start = (row["ts"] // bin_seconds) * bin_seconds
        values, losses = grouped.setdefault(key, {}).get(bin_start, ([], 0))
        if row["rtt_ms"] is None:
            losses += 1
        else:
            values = values + [row["rtt_ms"]]
        grouped[key][bin_start] = (values, losses)

    out: dict[str, list[LatencyBin]] = {}
    for key, bins in grouped.items():
        series = []
        for bin_start in sorted(bins):
            values, losses = bins[bin_start]
            series.append(
                LatencyBin(
                    bin_start=bin_start,
                    median_rtt_ms=_median(values) if values else None,
                    sample_count=len(values),
                    loss_count=losses,
                )
            )
        out[key] = series
    return out


# -- cable ranking -------------------------------------------------------------


def rank_cables_for_link(coord_a, coord_b, cables, landing_points) -> list[tuple[str, float]]:
    """Cables by landing-point detour, ascending: ``[(cable_id, detour_km)]``."""
    tail_penalty = 4.0
    ranked: list[tuple[str, float]] = []
    for cable in cables.values():
        lps = [landing_points[i] for i in cable.landing_point_ids]
        near_a = min(lps, key=lambda lp: haversine_km(coord_a, lp.coord))
        near_b = min(lps, key=lambda lp: haversine_km(coord_b, lp.coord))
        if near_a.id == near_b.id:
            continue
        detour = (
            tail_penalty * haversine_km(coord_a, near_a.coord)
            + cable_path_km(cable, near_a.id, near_b.id)
            + tail_penalty * haversine_km(near_b.coord, coord_b)
        )
        ranked.append((cable.id, detour))
    if not ranked:
        raise RuntimeError("no cable can carry the link; catalog too sparse")
    ranked.sort(key=lambda pair: pair[1])
    return ranked


def candidate_path_km(world: SyntheticWorld, cable_id: str, coord_a, coord_b) -> float:
    """The physical path a link would take over one candidate cable."""
    cable = world.cables[cable_id]
    lps = [world.landing_points[i] for i in cable.landing_point_ids]
    near_a = min(lps, key=lambda lp: haversine_km(coord_a, lp.coord))
    near_b = min(lps, key=lambda lp: haversine_km(coord_b, lp.coord))
    if near_a.id == near_b.id:
        return haversine_km(coord_a, coord_b)
    return (
        haversine_km(coord_a, near_a.coord) * 1.3
        + cable_path_km(cable, near_a.id, near_b.id)
        + haversine_km(near_b.coord, coord_b) * 1.3
    )


def true_path_km(link, cables, landing_points) -> float:
    """Physical path length of a link, honouring its cable assignment."""
    if link.cable_id is None:
        return haversine_km(link.coord_a, link.coord_b) * 1.3
    cable = cables[link.cable_id]
    lps = [landing_points[i] for i in cable.landing_point_ids]
    near_a = min(lps, key=lambda lp: haversine_km(link.coord_a, lp.coord))
    near_b = min(lps, key=lambda lp: haversine_km(link.coord_b, lp.coord))
    if near_a.id == near_b.id:
        return haversine_km(link.coord_a, link.coord_b) * 1.3
    return (
        haversine_km(link.coord_a, near_a.coord) * 1.3
        + cable_path_km(cable, near_a.id, near_b.id)
        + haversine_km(near_b.coord, link.coord_b) * 1.3
    )
