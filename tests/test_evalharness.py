"""Evaluation harness: overlap scoring and similarity metrics."""

import pytest

from repro.core.artifacts import CandidateWorkflow, StepType, WorkflowDesign, WorkflowStep
from repro.evalharness.similarity import ranking_similarity, top_k_overlap
from repro.evalharness.stagekinds import (
    TARGET_STAGE_KINDS,
    design_stage_kinds,
    jaccard,
    overlap_report,
)


def _design(*targets):
    steps = [
        WorkflowStep(id=f"s{i}", step_type=StepType.TRANSFORM, target=t, inputs={})
        for i, t in enumerate(targets)
    ]
    return WorkflowDesign(chosen=CandidateWorkflow(steps=steps))


def test_every_known_target_has_stage_kind():
    from repro.core.codegen import TRANSFORM_TEMPLATES
    from repro.core.registry import default_registry

    for name in TRANSFORM_TEMPLATES:
        assert name in TARGET_STAGE_KINDS, name
    for name in default_registry().names():
        assert name in TARGET_STAGE_KINDS, name


def test_design_stage_kinds_excludes_plumbing():
    design = _design("build_report", "aggregate_impact_by_country")
    kinds = design_stage_kinds(design)
    assert kinds == {"country_aggregation"}
    with_plumbing = design_stage_kinds(design, include_plumbing=True)
    assert "report" in with_plumbing


def test_jaccard_edges():
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, set()) == 0.0
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)


def test_overlap_report_fields():
    design = _design("aggregate_impact_by_country", "rank_countries_by_impact")
    expert = {"stage_kinds": ["country_aggregation", "impact_ranking",
                              "dependency_resolution"]}
    report = overlap_report(design, expert)
    assert report["shared"] == ["country_aggregation", "impact_ranking"]
    assert report["expert_only"] == ["dependency_resolution"]
    assert report["expert_coverage"] == pytest.approx(2 / 3, abs=1e-3)


def test_ranking_similarity_identical():
    ranking = [{"country": c, "score": s} for c, s in
               [("A", 0.9), ("B", 0.5), ("C", 0.1), ("D", 0.05)]]
    result = ranking_similarity(ranking, list(ranking))
    assert result["spearman"] == pytest.approx(1.0)
    assert result["key_jaccard"] == 1.0


def test_ranking_similarity_inverted():
    a = [{"country": c, "score": s} for c, s in
         [("A", 0.9), ("B", 0.5), ("C", 0.2), ("D", 0.1)]]
    b = [{"country": c, "score": 1.0 - s["score"]} for c, s in
         zip("ABCD", a)]
    result = ranking_similarity(a, b)
    assert result["spearman"] == pytest.approx(-1.0)


def test_ranking_similarity_too_few_common():
    a = [{"country": "A", "score": 1.0}]
    b = [{"country": "A", "score": 1.0}]
    assert ranking_similarity(a, b)["spearman"] is None


def test_top_k_overlap():
    a = [{"country": c} for c in "ABCDE"]
    b = [{"country": c} for c in "AXBYZ"]
    assert top_k_overlap(a, b, k=5) == pytest.approx(2 / 5)
    assert top_k_overlap([], [], k=3) == 1.0
    with pytest.raises(ValueError):
        top_k_overlap(a, b, k=0)

