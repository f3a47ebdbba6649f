"""Registry-facing traceroute functions.

``run_campaign`` accepts region names as strings (agents speak JSON) and the
ambient ``incidents`` the measurement context injects; rows come back as
plain dicts for downstream adaptation.
"""

from __future__ import annotations

from repro.traceroute.anomaly import detect_series_anomalies
from repro.traceroute.campaign import CampaignSpec, campaign_rows
from repro.traceroute.probes import build_probe_fleet, probes_in_region, targets_in_region
from repro.traceroute.series import latency_series  # noqa: F401 - registry entry
from repro.synth.geography import Region
from repro.synth.world import SyntheticWorld


def run_campaign(
    world: SyntheticWorld,
    src_region: str,
    dst_region: str,
    window_start: float,
    window_end: float,
    interval_s: float = 3600.0,
    incidents: list | None = None,
) -> list[dict]:
    """Periodic traceroutes from one region to another, as dict rows."""
    spec = CampaignSpec(
        src_region=Region(src_region),
        dst_region=Region(dst_region),
        window_start=window_start,
        window_end=window_end,
        interval_s=interval_s,
    )
    return campaign_rows(world, spec, incidents or [])


def detect_latency_anomalies(
    series_rows: dict[str, list[dict]],
    min_increase_pct: float = 10.0,
    alpha: float = 0.01,
) -> list[dict]:
    """Significant latency level shifts from serialised series rows."""
    anomalies = detect_series_anomalies(series_rows, min_increase_pct, alpha)
    return [a.to_dict() for a in anomalies]


def probe_pairs(world: SyntheticWorld, count: int = 8) -> list[dict]:
    """Deterministic cross-region (probe, target) pairs for continuous probing.

    Rotates through every ordered region pair that has both probes and
    targets, taking a fresh probe/target combination on each revisit, so a
    small ``count`` still spans several distinct inter-region corridors.
    Rows carry everything a measurement row needs: probe id, src/dst ASN and
    country.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    probes = build_probe_fleet(world)
    by_region = {r: probes_in_region(world, probes, r) for r in Region}
    targets = {r: targets_in_region(world, r, per_country=1) for r in Region}
    corridors = [
        (src, dst)
        for src in Region
        for dst in Region
        if src is not dst and by_region[src] and targets[dst]
    ]
    pairs: list[dict] = []
    revisit = 0
    while corridors and len(pairs) < count:
        for src, dst in corridors:
            if len(pairs) >= count:
                break
            probe = by_region[src][revisit % len(by_region[src])]
            dst_asn = targets[dst][revisit % len(targets[dst])]
            pairs.append({
                "probe_id": probe.id,
                "src_asn": probe.asn,
                "src_country": probe.country_code,
                "dst_asn": dst_asn,
                "dst_country": world.ases[dst_asn].country_code,
                "corridor": f"{src.value}->{dst.value}",
            })
        revisit += 1
    return pairs


def paths_crossing_links(measurement_rows: list[dict], link_ids: list[str]) -> list[dict]:
    """Measurements whose forwarding path crossed any of the given links.

    The forensic workflow uses this to tie anomalous (src, dst) pairs back to
    candidate physical infrastructure.
    """
    wanted = set(link_ids)
    out = []
    for row in measurement_rows:
        if wanted.intersection(row.get("link_ids", ())):
            out.append(row)
    return out
