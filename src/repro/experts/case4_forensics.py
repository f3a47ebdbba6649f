"""Expert solution for case study 4: latency root-cause forensics.

The specialist runs the same three-strand investigation the paper
describes: statistical anomaly detection on latency series with
significance testing; infrastructure correlation scoring suspect cables by
vanished-link evidence; and BGP validation of the timing — synthesised via
the evidence library into a confidence-scored verdict naming the cable.
"""

from __future__ import annotations

from repro.analysis.evidence import EvidenceItem, synthesize_evidence
from repro.analysis.scoring import rank_suspects, score_gap
from repro.bgp.api import (
    correlate_updates_with_window,
    detect_routing_anomalies,
    fetch_updates,
)
from repro.nautilus.api import map_ip_links_to_cables
from repro.traceroute.api import detect_latency_anomalies, latency_series, run_campaign
from repro.synth.world import SyntheticWorld

STAGE_KINDS = frozenset(
    {
        "latency_collection",
        "series_aggregation",
        "anomaly_detection",
        "anomaly_summary",
        "cross_layer_mapping",
        "suspect_scoring",
        "routing_collection",
        "routing_anomaly_detection",
        "temporal_correlation",
        "evidence_synthesis",
    }
)


def _vanished_link_votes(measurements: dict[str, tuple], affected: set[str],
                         onset: float) -> dict[str, int]:
    """Links present on anomalous paths before the onset but absent after."""
    pre: dict[str, dict[int, None]] = {}
    post: dict[str, dict[int, None]] = {}
    for src, dst, ts, path in zip(measurements["src_country"], measurements["dst_country"],
                                  measurements["ts"], measurements["link_index"]):
        pair = f"{src}->{dst}"
        if pair not in affected:
            continue
        bucket = pre if ts < onset else post
        bucket.setdefault(pair, {})[path] = None
    pool = measurements["link_pool"]

    def links(paths) -> set[str]:
        found: set[str] = set()
        for path in paths:
            found.update(pool[path])
        return found

    votes: dict[str, int] = {}
    for pair, paths_before in pre.items():
        for link_id in links(paths_before) - links(post.get(pair, ())):
            votes[link_id] = votes.get(link_id, 0) + 1
    return votes


def expert_forensic_investigation(
    world: SyntheticWorld,
    incidents: list,
    src_region: str = "europe",
    dst_region: str = "asia",
    window: tuple[float, float] = (0.0, 604_800.0),
) -> dict:
    """Root-cause the latency increase, the specialist way."""
    # Strand 1: statistical anomaly detection.
    measurements = run_campaign(
        world, src_region, dst_region, window[0], window[1],
        interval_s=3600.0, incidents=incidents,
    )
    series = latency_series(measurements, group_by="pair")
    anomalies = detect_latency_anomalies(series)
    significant = [a for a in anomalies if a["significant"]]
    onset = None
    if significant:
        onsets = sorted(a["onset_ts"] for a in significant)
        onset = onsets[len(onsets) // 2]

    # Strand 2: infrastructure correlation via vanished-link scoring.
    mappings = map_ip_links_to_cables(world)
    ranked: list[dict] = []
    margin = 0.0
    if onset is not None:
        affected = {a["series_key"] for a in significant}
        votes = _vanished_link_votes(measurements, affected, onset)
        features: dict[str, dict] = {}
        names: dict[str, str | None] = {}
        for link_id, count in votes.items():
            row = mappings.get(link_id)
            if not row:
                continue
            candidates = row.get("candidates", [])
            total = sum(c["score"] for c in candidates) or 1.0
            for candidate in candidates:
                cid = candidate["cable_id"]
                feature = features.setdefault(cid, {"id": cid, "votes": 0.0})
                feature["votes"] += count * candidate["score"] / total
                names.setdefault(cid, row.get("cable_name") if row.get("cable_id") == cid else None)
        ranked = rank_suspects(list(features.values()), weights={"votes": 1.0})
        margin = score_gap(ranked)
        for entry in ranked:
            entry["cable_name"] = names.get(entry["id"]) or world.cables[entry["id"]].name

    # Strand 3: BGP validation.
    updates = fetch_updates(world, window[0], window[1], incidents=incidents)
    bgp_anomalies = detect_routing_anomalies(updates, window[0], window[1])
    correlation = {"correlated": False, "rate_ratio": 0.0}
    if onset is not None:
        correlation = correlate_updates_with_window(updates, onset, onset + 3600.0)

    # Evidence synthesis.
    items = [
        EvidenceItem(
            kind="statistical",
            description=f"{len(significant)} significant latency anomalies",
            strength=min(1.0, len(significant) / 5.0) if significant else 0.0,
            supports=bool(significant),
        ),
        EvidenceItem(
            kind="infrastructure",
            description="suspect cable ranking margin",
            strength=min(1.0, 0.5 + margin / 2.0) if ranked else 0.0,
            supports=bool(ranked),
        ),
        EvidenceItem(
            kind="routing",
            description="BGP burst temporally correlated with onset",
            strength=0.8 if correlation.get("correlated") else 0.1,
            supports=bool(correlation.get("correlated")),
        ),
    ]
    synthesis = synthesize_evidence(items)

    top = ranked[0] if ranked else None
    return {
        "title": "Latency root-cause investigation (expert)",
        "anomalies": anomalies,
        "significant_count": len(significant),
        "onset_estimate": onset,
        "suspect_ranking": ranked,
        "identified_cable_id": top["id"] if top else None,
        "identified_cable_name": top["cable_name"] if top else None,
        "margin": margin,
        "bgp_anomalies": bgp_anomalies[:5],
        "bgp_correlation": correlation,
        "confidence": synthesis["confidence"],
        "verdict": synthesis["verdict"],
        "narrative": synthesis["narrative"],
        "stage_kinds": sorted(STAGE_KINDS),
    }
