"""Latency anomaly detection: change points with significance testing.

CUSUM locates the onset of a level shift in a latency series; a
Mann-Whitney U test between the before/after segments supplies the
significance the paper's forensic case study insists on ("proper
significance assessment to ensure robust anomaly identification").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.changepoint import cusum_change_point
from repro.analysis.stats import mann_whitney_greater


@dataclass(frozen=True)
class LatencyAnomaly:
    """A detected level shift in one latency series."""

    series_key: str
    onset_ts: float
    baseline_ms: float
    elevated_ms: float
    increase_pct: float
    p_value: float
    significant: bool

    def to_dict(self) -> dict:
        return {
            "series_key": self.series_key,
            "onset_ts": self.onset_ts,
            "baseline_ms": round(self.baseline_ms, 3),
            "elevated_ms": round(self.elevated_ms, 3),
            "increase_pct": round(self.increase_pct, 2),
            "p_value": self.p_value,
            "significant": self.significant,
        }


def detect_series_anomalies(
    series: dict[str, dict[str, tuple]],
    min_increase_pct: float = 10.0,
    alpha: float = 0.01,
) -> list[LatencyAnomaly]:
    """Find significant latency level shifts across series.

    ``series`` maps a key to its bin columns as
    :func:`~repro.traceroute.series.latency_series` emits them; only
    ``bin_start`` and ``median_rtt_ms`` are read, and bins whose median is
    ``None`` are skipped.  For each series: locate the CUSUM change point,
    compare before/after medians, and accept when the increase exceeds
    ``min_increase_pct`` with a Mann-Whitney p-value below ``alpha``.
    Sorted by increase, largest first.
    """
    anomalies: list[LatencyAnomaly] = []
    for key, bins in series.items():
        usable = [
            (start, median) for start, median in zip(bins["bin_start"], bins["median_rtt_ms"])
            if median is not None
        ]
        if len(usable) < 8:
            continue
        values = [v for _, v in usable]
        idx = cusum_change_point(values)
        if idx is None:
            continue
        before = values[:idx]
        after = values[idx:]
        baseline = sorted(before)[len(before) // 2]
        elevated = sorted(after)[len(after) // 2]
        if baseline <= 0:
            continue
        increase_pct = (elevated - baseline) / baseline * 100.0
        if increase_pct < min_increase_pct:
            continue
        p_value = mann_whitney_greater(after, before)
        anomalies.append(
            LatencyAnomaly(
                series_key=key,
                onset_ts=usable[idx][0],
                baseline_ms=baseline,
                elevated_ms=elevated,
                increase_pct=increase_pct,
                p_value=p_value,
                significant=p_value < alpha,
            )
        )
    anomalies.sort(key=lambda a: a.increase_pct, reverse=True)
    return anomalies
