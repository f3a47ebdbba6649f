"""Registry-facing Xaminer functions.

:func:`process_event` is the versatile single-function entry point the paper
highlights in case study 2 — it handles cable cuts, earthquakes and
hurricanes through the same footprint → failure → impact pipeline, so a
multi-disaster analysis needs nothing beyond calling it per event and
combining the reports.
"""

from __future__ import annotations

from repro.xaminer.aggregate import as_impact_embeddings, rank_countries
from repro.xaminer.events import event_footprint
from repro.xaminer.failures import simulate_failures
from repro.xaminer.impact import compute_impact
from repro.xaminer.risk import country_risk_profile, most_exposed_countries
from repro.synth.scenarios import DisasterEvent, DisasterKind, default_disaster_catalog
from repro.synth.world import SyntheticWorld


def _coerce_event(world: SyntheticWorld, event_spec: DisasterEvent | dict) -> DisasterEvent:
    """Accept either a DisasterEvent or a JSON-able spec dict.

    Generated workflows pass dicts (they speak JSON); expert code passes
    dataclasses.  Both must behave identically.
    """
    if isinstance(event_spec, DisasterEvent):
        return event_spec
    kind = DisasterKind(event_spec["kind"])
    center = event_spec.get("center")
    return DisasterEvent(
        id=event_spec.get("id", f"adhoc-{kind.value}"),
        kind=kind,
        name=event_spec.get("name", event_spec.get("id", kind.value)),
        center=tuple(center) if center is not None else None,
        radius_km=float(event_spec.get("radius_km", 0.0)),
        magnitude=float(event_spec.get("magnitude", 0.0)),
        cable_names=tuple(event_spec.get("cable_names", ())),
        timestamp=float(event_spec.get("timestamp", 0.0)),
    )


def process_event(
    world: SyntheticWorld,
    event_spec: DisasterEvent | dict,
    failure_probability: float = 1.0,
    seed: int = 0,
) -> dict:
    """Process one event end to end: footprint, failures, impact, rankings.

    Returns a JSON-able report::

        {event, footprint, failed_cable_ids, failed_link_ids,
         country_ranking, as_ranking, isolated_asns,
         total_capacity_lost_gbps}
    """
    event = _coerce_event(world, event_spec)
    footprint = event_footprint(world, event)
    sample = simulate_failures(world, footprint, failure_probability, seed=seed)
    report = compute_impact(world, sample.failed_link_ids)
    return {
        "event": {
            "id": event.id,
            "kind": event.kind.value,
            "name": event.name,
            "magnitude": event.magnitude,
            "severe": event.is_severe,
        },
        "footprint": footprint.to_dict(),
        "failed_cable_ids": sample.failed_cable_ids,
        "failed_link_ids": sample.failed_link_ids,
        "country_ranking": rank_countries(report),
        "as_ranking": as_impact_embeddings(world, report)[:25],
        "isolated_asns": report.isolated_asns,
        "total_capacity_lost_gbps": report.to_dict()["total_capacity_lost_gbps"],
    }


def country_impact(world: SyntheticWorld, failed_link_ids: list[str]) -> list[dict]:
    """Country ranking for an explicit failed-link set."""
    report = compute_impact(world, failed_link_ids)
    return rank_countries(report)


def as_impact(world: SyntheticWorld, failed_link_ids: list[str]) -> list[dict]:
    """AS ranking for an explicit failed-link set."""
    report = compute_impact(world, failed_link_ids)
    return as_impact_embeddings(world, report)


def risk_profile(world: SyntheticWorld, country_code: str | None = None) -> dict | list[dict]:
    """Risk profile for one country, or the most exposed countries overall."""
    if country_code is not None:
        return country_risk_profile(world, country_code)
    return most_exposed_countries(world)


def list_disasters(world: SyntheticWorld, severe_only: bool = False) -> list[dict]:
    """The disaster catalog as JSON-able rows."""
    rows = []
    for event in default_disaster_catalog():
        if severe_only and not event.is_severe:
            continue
        rows.append(
            {
                "id": event.id,
                "kind": event.kind.value,
                "name": event.name,
                "center": list(event.center) if event.center else None,
                "radius_km": event.radius_km,
                "magnitude": event.magnitude,
                "severe": event.is_severe,
                "timestamp": event.timestamp,
            }
        )
    return rows


def combine_impact_reports(reports: list[dict]) -> dict:
    """Merge per-event reports into one global impact summary.

    Country scores add (capped at 1.0 per metric by construction downstream);
    failed sets union.  This is the "combine results for comprehensive global
    impact metrics" step both workflows in case study 2 perform.
    """
    combined_links: set[str] = set()
    combined_cables: set[str] = set()
    country_scores: dict[str, float] = {}
    capacity = 0.0
    for report in reports:
        combined_links.update(report.get("failed_link_ids", []))
        combined_cables.update(report.get("failed_cable_ids", []))
        capacity += report.get("total_capacity_lost_gbps", 0.0)
        for row in report.get("country_ranking", []):
            code = row["country"]
            country_scores[code] = country_scores.get(code, 0.0) + row["score"]
    ranking = [
        {"country": code, "score": round(score, 6)}
        for code, score in sorted(country_scores.items(), key=lambda kv: kv[1], reverse=True)
    ]
    return {
        "events_combined": len(reports),
        "failed_cable_ids": sorted(combined_cables),
        "failed_link_ids": sorted(combined_links),
        "country_ranking": ranking,
        "total_capacity_lost_gbps": round(capacity, 1),
    }
