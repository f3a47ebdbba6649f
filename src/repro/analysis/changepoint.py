"""Change-point detection: offline CUSUM and the streaming (online) CUSUM
the live subsystem feeds one sample at a time."""

from __future__ import annotations

import math


def cusum_change_point(values: list[float], min_segment: int = 3) -> int | None:
    """Index of the most likely level shift, or ``None``.

    The change point maximises the absolute cumulative mean-adjusted sum.
    Points within ``min_segment`` of either edge are rejected — a "shift"
    supported by two samples is noise.
    """
    n = len(values)
    if n < 2 * min_segment + 2:
        return None
    mean = sum(values) / n
    cumulative = 0.0
    best_idx: int | None = None
    best_mag = 0.0
    for i, v in enumerate(values):
        cumulative += v - mean
        if abs(cumulative) > best_mag:
            best_mag = abs(cumulative)
            best_idx = i + 1
    if best_idx is None or best_idx < min_segment or best_idx > n - min_segment:
        return None
    return best_idx


class StreamingCUSUM:
    """Online two-sided CUSUM over a stream of samples.

    The first ``warmup`` samples establish a baseline mean and deviation
    (Welford's algorithm); after that each sample is standardized against
    the baseline and fed into the classic one-sided CUSUM pair

        S+ = max(0, S+ + z - drift)        S- = max(0, S- - z - drift)

    :meth:`update` returns ``True`` on the sample where either statistic
    crosses ``threshold``.  After an alarm the detector re-baselines from
    the post-shift level, so a second genuine shift later in the stream is
    detected again rather than drowned by the first.
    """

    def __init__(self, warmup: int = 8, threshold: float = 5.0, drift: float = 0.5):
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        if threshold <= 0 or drift < 0:
            raise ValueError("threshold must be positive and drift non-negative")
        self.warmup = warmup
        self.threshold = threshold
        self.drift = drift
        self.samples_seen = 0
        self.alarms = 0
        self._reset_baseline()

    def _reset_baseline(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._pos = 0.0
        self._neg = 0.0

    @property
    def baseline_mean(self) -> float:
        return self._mean

    @property
    def baseline_std(self) -> float:
        if self._count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self._count - 1))

    @property
    def warmed_up(self) -> bool:
        return self._count >= self.warmup

    def update(self, value: float) -> bool:
        """Feed one sample; ``True`` when a level shift is detected here."""
        self.samples_seen += 1
        if not self.warmed_up:
            self._count += 1
            delta = value - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (value - self._mean)
            return False
        # Floor the scale so a near-constant baseline still yields a finite
        # standardized deviation instead of a division blow-up.
        scale = max(self.baseline_std, 1e-9, abs(self._mean) * 1e-6)
        z = (value - self._mean) / scale
        self._pos = max(0.0, self._pos + z - self.drift)
        self._neg = max(0.0, self._neg - z - self.drift)
        if self._pos > self.threshold or self._neg > self.threshold:
            self.alarms += 1
            self._reset_baseline()
            return True
        return False
