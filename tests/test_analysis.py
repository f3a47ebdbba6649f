"""Analysis layer: statistics, change points, correlation, scoring, evidence."""

import pytest

from repro.analysis.changepoint import cusum_change_point
from repro.analysis.correlate import temporal_correlation
from repro.analysis.evidence import EvidenceItem, synthesize_evidence
from repro.analysis.scoring import rank_suspects, score_gap
from repro.analysis.stats import mad, median
# The median/MAD z-scores that score BGP update-volume bins.
from repro.bgp.anomaly import _robust_zscores as robust_zscores


# -- stats -----------------------------------------------------------------------

def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_empty_raises():
    with pytest.raises(ValueError):
        median([])


def test_mad_zero_for_constant():
    assert mad([5.0] * 10) == 0.0


def test_robust_zscores_flag_outlier():
    values = [10.0] * 20 + [100.0]
    scores = robust_zscores(values)
    assert scores[-1] > 5
    assert abs(scores[0]) < 1


def test_robust_zscores_constant_series():
    scores = robust_zscores([7.0] * 5)
    assert scores == [0.0] * 5


# -- change points -----------------------------------------------------------------

def test_cusum_location_and_magnitude():
    values = [10.0] * 15 + [20.0] * 15
    idx = cusum_change_point(values)
    assert idx is not None and 13 <= idx <= 17
    before, after = values[:idx], values[idx:]
    assert sum(after) / len(after) - sum(before) / len(before) == pytest.approx(10.0, abs=1.5)


def test_cusum_too_short():
    assert cusum_change_point([1.0, 2.0, 3.0]) is None


# -- correlation ---------------------------------------------------------------------

def test_temporal_correlation_aligned_series():
    a = [0.0] * 10 + [10.0] * 10
    result = temporal_correlation(a, list(a))
    assert result["best_lag"] == 0
    assert result["correlation"] > 0.95


def test_temporal_correlation_lagged_series():
    base = [0.0] * 10 + [10.0] * 10 + [0.0] * 10
    lagged = base[3:] + [0.0] * 3
    result = temporal_correlation(lagged, base, max_lag=5)
    assert result["best_lag"] == 3


# -- scoring --------------------------------------------------------------------------

def test_rank_suspects_ordering():
    rows = [
        {"id": "a", "votes": 10.0, "coverage": 1.0},
        {"id": "b", "votes": 5.0, "coverage": 0.5},
        {"id": "c", "votes": 0.0, "coverage": 0.0},
    ]
    ranked = rank_suspects(rows, weights={"votes": 0.7, "coverage": 0.3})
    assert [r["id"] for r in ranked] == ["a", "b", "c"]
    assert ranked[0]["score"] == pytest.approx(1.0)
    assert ranked[-1]["score"] == pytest.approx(0.0)


def test_rank_suspects_missing_feature_is_zero():
    ranked = rank_suspects([{"id": "a"}, {"id": "b", "votes": 3.0}],
                           weights={"votes": 1.0})
    assert ranked[0]["id"] == "b"


def test_rank_suspects_requires_weights():
    with pytest.raises(ValueError):
        rank_suspects([{"id": "a"}], weights={})


def test_score_gap():
    assert score_gap([]) == 0.0
    assert score_gap([{"score": 0.8}]) == 1.0
    gap = score_gap([{"score": 0.8}, {"score": 0.2}])
    assert gap == pytest.approx(0.75)


# -- evidence -----------------------------------------------------------------------------

def test_evidence_strength_bounds():
    with pytest.raises(ValueError):
        EvidenceItem(kind="x", description="d", strength=1.5, supports=True)


def test_synthesis_empty():
    out = synthesize_evidence([])
    assert out["verdict"] == "insufficient_evidence"
    assert out["confidence"] == 0.0


def test_synthesis_three_supporting_strands():
    items = [
        EvidenceItem("statistical", "latency shift", 0.9, True),
        EvidenceItem("infrastructure", "clear suspect", 0.8, True),
        EvidenceItem("routing", "correlated burst", 0.8, True),
    ]
    out = synthesize_evidence(items)
    assert out["verdict"] == "established"
    assert out["confidence"] > 0.8
    assert out["supporting"] == 3


def test_synthesis_contradiction_lowers_confidence():
    supporting = [EvidenceItem("statistical", "s", 0.9, True)]
    mixed = supporting + [EvidenceItem("routing", "no burst", 0.9, False)]
    assert (synthesize_evidence(mixed)["confidence"]
            < synthesize_evidence(supporting)["confidence"])


def test_synthesis_diversity_bonus():
    same_kind = [
        EvidenceItem("statistical", "a", 0.6, True),
        EvidenceItem("statistical", "b", 0.6, True),
    ]
    diverse = [
        EvidenceItem("statistical", "a", 0.6, True),
        EvidenceItem("routing", "b", 0.6, True),
    ]
    assert (synthesize_evidence(diverse)["confidence"]
            > synthesize_evidence(same_kind)["confidence"])
