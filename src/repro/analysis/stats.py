"""Robust statistics primitives."""

from __future__ import annotations

import itertools
import math
import statistics


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    if not values:
        raise ValueError("median of empty list")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: list[float]) -> float:
    """Median absolute deviation (unscaled)."""
    m = median(values)
    return median([abs(v - m) for v in values])


def rankdata(values: list[float]) -> tuple[list[float], list[int]]:
    """Average 1-based ranks, plus the size of every tie group."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    ties: list[int] = []
    ranked = 0
    for _, run in itertools.groupby(order, key=values.__getitem__):
        run = list(run)
        for pos in run:
            ranks[pos] = ranked + (len(run) + 1) / 2
        ranked += len(run)
        ties.append(len(run))
    return ranks, ties


# Cephes ndtr/erf/erfc: p-values enter artifact digests, and math.erfc differs in the last digits.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    acc = 0.0
    for coef in coefs:
        acc = acc * x + coef
    return acc


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    else:
        y = z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)
    return 2.0 - y if a < 0 else y


def normal_cdf(a: float) -> float:
    """Standard normal CDF, bit for bit with Cephes ``ndtr``."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _mann_whitney_exact_sf(u: int, n1: int, n2: int) -> float:
    """P(U >= u) for tie-free samples of sizes ``n1 <= n2``: exact integer U
    counts from the generating function prod_i (1 - q^(n2+i)) / (1 - q^i),
    summed as floats in ascending order, as the reference does."""
    k = min(u, n1 * n2 - u)
    counts = [1] + [0] * k
    for i in range(1, n1 + 1):
        for j in range(k, n2 + i - 1, -1):
            counts[j] -= counts[j - n2 - i]
        for j in range(i, k + 1):
            counts[j] += counts[j - i]
    total = float(math.comb(n1 + n2, n1))
    cdf = 0.0
    for count in counts:
        cdf += count / total
    return 1.0 - cdf + counts[k] / total if u < n1 * n2 - u else cdf


def mann_whitney_greater(x: list[float], y: list[float]) -> float:
    """One-sided Mann-Whitney U p-value that ``x`` tends to exceed ``y``.

    The exact null distribution when a sample has at most 8 values and
    nothing ties, else the normal approximation with tie and continuity
    corrections; ``tests/test_stats_oracle.py`` pins it to the reference.
    """
    n1, n2 = len(x), len(y)
    ranks, ties = rankdata(list(x) + list(y))
    u = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    if (n1 > 8 and n2 > 8) or max(ties) > 1:
        n = n1 + n2
        tie_term = sum(t ** 3 - t for t in ties)
        s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        p = normal_cdf(-((u - n1 * n2 / 2 - 0.5) / s)) if s else 1.0
    else:
        p = _mann_whitney_exact_sf(int(u), min(n1, n2), max(n1, n2))
    return min(max(p, 0.0), 1.0)


def spearman(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation: Pearson's r over average ranks."""
    return statistics.correlation(rankdata(x)[0], rankdata(y)[0])
