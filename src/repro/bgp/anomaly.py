"""Routing anomaly detection over update streams.

Bins updates into fixed windows and flags bins whose volume is a robust
outlier (median/MAD z-score).  Withdrawal-heavy bins get an extra severity
bump — mass withdrawals are the classic infrastructure-failure signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class RoutingAnomaly:
    """One anomalous time bin in the update stream."""

    window_start: float
    window_end: float
    update_count: int
    withdrawal_count: int
    zscore: float
    prefixes: tuple[str, ...]

    @property
    def withdrawal_fraction(self) -> float:
        return self.withdrawal_count / self.update_count if self.update_count else 0.0

    def to_dict(self) -> dict:
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "update_count": self.update_count,
            "withdrawal_count": self.withdrawal_count,
            "zscore": round(self.zscore, 3),
            "withdrawal_fraction": round(self.withdrawal_fraction, 4),
            "prefixes": list(self.prefixes[:50]),
        }


def _robust_zscores(counts: list[int]) -> list[float]:
    ordered = sorted(counts)
    n = len(ordered)
    median = ordered[n // 2] if n % 2 == 1 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    deviations = sorted(abs(c - median) for c in counts)
    mad = deviations[n // 2] if n % 2 == 1 else (deviations[n // 2 - 1] + deviations[n // 2]) / 2.0
    scale = 1.4826 * mad if mad > 0 else 1.0
    return [(c - median) / scale for c in counts]


def anomalous_bins(
    records: Iterable[tuple[float, bool, str]],
    window_start: float,
    window_end: float,
    bin_seconds: float = 3600.0,
    z_threshold: float = 3.0,
) -> list[RoutingAnomaly]:
    """Anomalous bins over ``(ts, withdrawn, prefix)`` records, most severe
    first, in one pass over the records.

    A record counts in bin ``int((ts - window_start) / bin_seconds)``, and
    a stamp at ``window_end`` in the last bin.  An anomaly's prefixes are those updated in ``[bin start, bin start +
    bin_seconds)``; every bin's are collected during the pass, checking the
    bins either side of the counted one too, since rounding can put a stamp
    on the far side of an edge.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    n_bins = max(1, int((window_end - window_start) / bin_seconds))
    starts = [window_start + i * bin_seconds for i in range(n_bins)]
    counts = [0] * n_bins
    withdrawals = [0] * n_bins
    prefixes: list[set[str]] = [set() for _ in range(n_bins)]
    for ts, withdrawn, prefix in records:
        idx = int((ts - window_start) / bin_seconds)
        for near in (idx - 1, idx, idx + 1):
            if 0 <= near < n_bins and starts[near] <= ts < starts[near] + bin_seconds:
                prefixes[near].add(prefix)
        if ts == window_end:
            idx = n_bins - 1  # the window is closed on the right
        if 0 <= idx < n_bins:
            counts[idx] += 1
            if withdrawn:
                withdrawals[idx] += 1

    anomalies = [
        RoutingAnomaly(
            window_start=starts[i],
            window_end=starts[i] + bin_seconds,
            update_count=counts[i],
            withdrawal_count=withdrawals[i],
            zscore=z,
            prefixes=tuple(sorted(prefixes[i])),
        )
        for i, z in enumerate(_robust_zscores(counts))
        if z >= z_threshold
    ]
    anomalies.sort(key=lambda a: a.zscore, reverse=True)
    return anomalies
