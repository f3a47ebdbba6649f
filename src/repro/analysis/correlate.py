"""Temporal correlation between two event streams."""

from __future__ import annotations


def temporal_correlation(
    series_a: list[float], series_b: list[float], max_lag: int = 6
) -> dict:
    """Peak Pearson cross-correlation between two equal-step series.

    Scans lags in ``[-max_lag, max_lag]``; positive best lag means series B
    trails series A.  Series shorter than 4 overlapping points yield zero.
    """
    def pearson(a: list[float], b: list[float]) -> float:
        n = len(a)
        if n < 4:
            return 0.0
        mean_a = sum(a) / n
        mean_b = sum(b) / n
        num = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
        den_a = sum((x - mean_a) ** 2 for x in a) ** 0.5
        den_b = sum((y - mean_b) ** 2 for y in b) ** 0.5
        if den_a == 0 or den_b == 0:
            return 0.0
        return num / (den_a * den_b)

    best_lag = 0
    best_corr = 0.0
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            a = series_a[: len(series_a) - lag] if lag else series_a
            b = series_b[lag:]
        else:
            a = series_a[-lag:]
            b = series_b[: len(series_b) + lag]
        n = min(len(a), len(b))
        corr = pearson(list(a[:n]), list(b[:n]))
        if abs(corr) > abs(best_corr):
            best_corr = corr
            best_lag = lag
    return {"best_lag": best_lag, "correlation": round(best_corr, 4)}
