"""Oracle tests: the stdlib statistics in ``repro.analysis.stats`` against scipy.

scipy is not a dependency of ``src/``; it is only the oracle here.  P-values
enter artifact digests, so they must match with ``==``, not approximately.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")

from repro.analysis.stats import mann_whitney_greater, normal_cdf, spearman  # noqa: E402

DIGITS = st.sampled_from([0, 1, 3, None])  # rounding forces ties


def _sample(draw, size: int, shift: float, digits) -> list[float]:
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size))
    values = [v + shift for v in values]
    return values if digits is None else [round(v, digits) for v in values]


@st.composite
def mwu_samples(draw):
    if draw(st.booleans()):
        n1, n2 = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    else:  # one small sample: scipy's exact branch when nothing ties
        n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 160))
        if draw(st.booleans()):
            n1, n2 = n2, n1
    digits = draw(DIGITS)
    shift = draw(st.sampled_from([0.0, 50.0, 500.0]))
    return _sample(draw, n1, shift, digits), _sample(draw, n2, 0.0, digits)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mwu_samples())
@example(([2.0] * 9, [2.0] * 12))  # all tied: zero variance, p = 1
def test_mann_whitney_greater_matches_scipy(samples):
    x, y = samples
    expected = scipy_stats.mannwhitneyu(x, y, alternative="greater").pvalue
    assert mann_whitney_greater(x, y) == float(expected)


def test_normal_cdf_matches_scipy_ndtr_on_a_grid():
    grid = [-40.0 + i / 1000 for i in range(80_001)] + [-math.inf, math.inf]
    expected = scipy_special.ndtr(grid)
    assert [normal_cdf(v) for v in grid] == expected.tolist()


@st.composite
def paired_samples(draw):
    size, digits = draw(st.integers(3, 40)), draw(DIGITS)
    return _sample(draw, size, 0.0, digits), _sample(draw, size, 0.0, digits)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(paired_samples())
def test_spearman_matches_scipy_to_four_places(samples):
    x, y = samples
    if len(set(x)) == 1 or len(set(y)) == 1:
        return  # ranking_similarity handles constant inputs before ranking
    expected = scipy_stats.spearmanr(x, y).statistic
    assert round(spearman(x, y), 4) == round(float(expected), 4)
