"""Latency time series: binned aggregation of raw measurements."""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable

_SERIES_KEYS: dict[str, Callable[[dict], Iterable[str]]] = {
    "pair": lambda table: (f"{src}->{dst}" for src, dst in zip(table["src_country"],
                                                               table["dst_country"])),
    "src_country": lambda table: map(str, table["src_country"]),
    "dst_country": lambda table: map(str, table["dst_country"]),
    "aggregate": lambda table: repeat("all", len(table["ts"])),
}


def latency_series(
    measurement_rows: dict[str, tuple],
    group_by: str = "pair",
    bin_seconds: float = 3600.0,
) -> dict[str, dict[str, tuple]]:
    """Group a measurement table's samples into binned latency series.

    ``measurement_rows`` is a column table from
    :func:`~repro.traceroute.api.run_campaign`; only its ``ts``,
    ``rtt_ms`` and country columns are read.  ``group_by`` is one of
    ``pair`` (src→dst country), ``src_country``, ``dst_country`` or
    ``aggregate``.  Each series is a column table of its time-ordered bins,
    one tuple per column: ``bin_start``, ``median_rtt_ms`` (``None`` when
    every sample in the bin was lost), ``sample_count``, ``loss_count`` and
    ``loss_rate``; index *i* of every column describes bin *i*.  Series
    appear in order of their first sample.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    series_keys = _SERIES_KEYS.get(group_by)
    if series_keys is None:
        raise ValueError(f"unknown group_by {group_by!r}")
    # series key -> bin start -> the bin's rtt samples, None for a loss
    grouped: dict[str, dict[float, list]] = {}
    for key, ts, rtt in zip(series_keys(measurement_rows), measurement_rows["ts"],
                            measurement_rows["rtt_ms"]):
        bins = grouped.get(key)
        if bins is None:
            bins = grouped[key] = {}
        bin_start = (ts // bin_seconds) * bin_seconds
        cell = bins.get(bin_start)
        if cell is None:
            bins[bin_start] = [rtt]
        else:
            cell.append(rtt)

    out: dict[str, dict[str, tuple]] = {}
    for key, bins in grouped.items():
        starts = sorted(bins)
        medians, samples, lost, rates = [], [], [], []
        for bin_start in starts:
            values = bins[bin_start]
            losses = values.count(None)
            if losses:
                rates.append(round(losses / len(values), 4))
                values = [rtt for rtt in values if rtt is not None]
            else:
                rates.append(0.0)
            n = len(values)
            median = None
            if n:
                values.sort()
                mid = n // 2
                median = round(values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2.0, 3)
            medians.append(median)
            samples.append(n)
            lost.append(losses)
        out[key] = {
            "bin_start": tuple(starts),
            "median_rtt_ms": tuple(medians),
            "sample_count": tuple(samples),
            "loss_count": tuple(lost),
            "loss_rate": tuple(rates),
        }
    return out
