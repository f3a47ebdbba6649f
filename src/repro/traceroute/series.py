"""Latency time series: binned aggregation of raw measurements."""

from __future__ import annotations

from typing import Callable

_SERIES_KEYS: dict[str, Callable[[dict], str]] = {
    "pair": lambda row: f"{row['src_country']}->{row['dst_country']}",
    "src_country": lambda row: str(row["src_country"]),
    "dst_country": lambda row: str(row["dst_country"]),
    "aggregate": lambda row: "all",
}


def latency_series(
    measurement_rows: list[dict],
    group_by: str = "pair",
    bin_seconds: float = 3600.0,
) -> dict[str, list[dict]]:
    """Group measurement rows into binned latency series.

    ``group_by`` is one of ``pair`` (src→dst country), ``src_country``,
    ``dst_country`` or ``aggregate``.  Each series is a time-ordered list of
    bins: ``bin_start``, ``median_rtt_ms`` (``None`` when every sample in
    the bin was lost), ``sample_count``, ``loss_count`` and ``loss_rate``.
    Series appear in order of their first row.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    series_key = _SERIES_KEYS.get(group_by)
    if series_key is None:
        raise ValueError(f"unknown group_by {group_by!r}")
    # series key -> bin start -> [rtt samples, loss count]
    grouped: dict[str, dict[float, list]] = {}
    for row in measurement_rows:
        key = series_key(row)
        bins = grouped.get(key)
        if bins is None:
            bins = grouped[key] = {}
        bin_start = (row["ts"] // bin_seconds) * bin_seconds
        cell = bins.get(bin_start)
        if cell is None:
            cell = bins[bin_start] = [[], 0]
        rtt = row["rtt_ms"]
        if rtt is None:
            cell[1] += 1
        else:
            cell[0].append(rtt)

    out: dict[str, list[dict]] = {}
    for key, bins in grouped.items():
        series = []
        for bin_start in sorted(bins):
            values, losses = bins[bin_start]
            n = len(values)
            median = None
            if n:
                values.sort()
                mid = n // 2
                median = round(values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2.0, 3)
            series.append({
                "bin_start": bin_start,
                "median_rtt_ms": median,
                "sample_count": n,
                "loss_count": losses,
                "loss_rate": round(losses / (n + losses), 4) if losses else 0.0,
            })
        out[key] = series
    return out
