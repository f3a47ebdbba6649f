"""Registry-facing BGP functions.

Like real BGP dumps, ``fetch_updates`` returns plain dict rows — downstream
workflows must parse and adapt them, which is exactly the format-translation
work SolutionWeaver automates.  ``incidents`` is the ambient ground truth of
the measurement context; agents never see it directly, only its observable
consequences in the update stream.
"""

from __future__ import annotations

from repro.bgp.anomaly import anomalous_bins
from repro.bgp.collector import CollectorConfig, shared_collector
from repro.bgp.messages import BGPUpdate, UpdateKind, path_edit_distance
from repro.synth.world import SyntheticWorld


def fetch_updates(
    world: SyntheticWorld,
    window_start: float,
    window_end: float,
    incidents: list | None = None,
    collector_seed: int = 11,
) -> list[dict]:
    """BGP updates recorded over a window, as JSON-able rows sorted by time.

    The collector is shared per (world, seed): repeated queries reuse its
    memoized incremental route tables, so only the first question about an
    incident pays for re-convergence.
    """
    sim = shared_collector(world, CollectorConfig(seed=collector_seed))
    updates = sim.generate_updates(window_start, window_end, incidents or [])
    return [u.to_dict() for u in updates]


def detect_routing_anomalies(
    update_rows: list[dict],
    window_start: float,
    window_end: float,
    bin_seconds: float = 3600.0,
    z_threshold: float = 3.0,
) -> list[dict]:
    """Anomalous update-volume windows from raw update rows.

    Reads each row's ``ts``, ``kind`` and ``prefix`` in one pass; a ``kind``
    other than ``A`` or ``W`` raises ``ValueError``.
    """
    anomalies = anomalous_bins(
        _update_records(update_rows), window_start, window_end, bin_seconds, z_threshold
    )
    return [a.to_dict() for a in anomalies]


def _update_records(update_rows: list[dict]):
    """``(ts, withdrawn, prefix)`` per update row."""
    for row in update_rows:
        kind = row["kind"]
        if kind == UpdateKind.WITHDRAW:
            withdrawn = True
        elif kind == UpdateKind.ANNOUNCE:
            withdrawn = False
        else:
            raise ValueError(f"{kind!r} is not a valid UpdateKind")
        yield float(row["ts"]), withdrawn, row["prefix"]


def summarize_path_changes(update_rows: list[dict]) -> dict:
    """Summary of path dynamics in an update stream.

    Tracks, per (peer, prefix), the first and last announced path, counting
    prefixes whose path changed, path-length inflation, and withdrawals that
    were never re-announced (lost reachability).
    """
    first_path: dict[tuple[int, str], tuple[int, ...]] = {}
    last_path: dict[tuple[int, str], tuple[int, ...]] = {}
    withdrawn: set[tuple[int, str]] = set()
    for row in sorted(update_rows, key=lambda r: r["ts"]):
        update = BGPUpdate.from_dict(row)
        key = (update.peer_asn, update.prefix)
        if update.kind is UpdateKind.WITHDRAW:
            withdrawn.add(key)
            last_path.pop(key, None)
            continue
        withdrawn.discard(key)
        first_path.setdefault(key, update.as_path)
        last_path[key] = update.as_path

    changed: list[dict] = []
    inflations: list[int] = []
    for key, first in first_path.items():
        last = last_path.get(key)
        if last is None or last == first:
            continue
        delta = len(last) - len(first)
        inflations.append(delta)
        changed.append(
            {
                "peer_asn": key[0],
                "prefix": key[1],
                "first_path": list(first),
                "last_path": list(last),
                "length_delta": delta,
                "edit_distance": path_edit_distance(first, last),
            }
        )
    return {
        "changed_count": len(changed),
        "lost_count": len(withdrawn),
        "mean_length_delta": (sum(inflations) / len(inflations)) if inflations else 0.0,
        "changes": changed[:200],
        "lost": [{"peer_asn": k[0], "prefix": k[1]} for k in sorted(withdrawn)][:200],
    }


def correlate_updates_with_window(
    update_rows: list[dict],
    anomaly_start: float,
    anomaly_end: float,
    margin_seconds: float = 7200.0,
) -> dict:
    """How strongly routing activity concentrates around an anomaly window.

    Compares the update rate inside ``[start - margin, end + margin]`` with
    the rate outside it.  A ratio well above 1 is independent routing-layer
    confirmation that something physical happened at that time.
    """
    if not update_rows or anomaly_start is None or anomaly_end is None:
        # No updates, or no anomaly window to correlate against (a healthy
        # world gives the forensic workflow nothing to anchor on).
        return {"inside_rate": 0.0, "outside_rate": 0.0, "rate_ratio": 0.0, "correlated": False}
    lo = anomaly_start - margin_seconds
    hi = anomaly_end + margin_seconds
    ts_values = [float(r["ts"]) for r in update_rows]
    t_min, t_max = min(ts_values), max(ts_values)
    inside = sum(1 for t in ts_values if lo <= t <= hi)
    outside = len(ts_values) - inside
    inside_span = max(1.0, min(hi, t_max) - max(lo, t_min))
    outside_span = max(1.0, (t_max - t_min) - inside_span)
    inside_rate = inside / inside_span
    outside_rate = outside / outside_span
    ratio = inside_rate / outside_rate if outside_rate > 0 else float("inf")
    return {
        "inside_rate": round(inside_rate, 6),
        "outside_rate": round(outside_rate, 6),
        "rate_ratio": round(ratio, 3) if ratio != float("inf") else -1.0,
        "correlated": ratio > 2.0,
    }
