"""Evaluation harness: generated-vs-expert comparison for the case studies.

Implements the measurements behind the paper's §4 claims: functional overlap
between generated and expert workflows, similarity of analytical outputs,
framework-count restraint, and generated-code size.  The per-case-study
drivers in :mod:`repro.evalharness.casestudies` produce the rows that
``EXPERIMENTS.md`` and the benchmark suite report.
"""

from repro.evalharness.stagekinds import (
    TARGET_STAGE_KINDS,
    design_stage_kinds,
    jaccard,
    overlap_report,
)
from repro.evalharness.similarity import ranking_similarity, top_k_overlap
from repro.evalharness.casestudies import (
    CaseStudyReport,
    run_case1,
    run_case2,
    run_case3,
    run_case4,
)

__all__ = [
    "TARGET_STAGE_KINDS",
    "design_stage_kinds",
    "jaccard",
    "overlap_report",
    "ranking_similarity",
    "top_k_overlap",
    "CaseStudyReport",
    "run_case1",
    "run_case2",
    "run_case3",
    "run_case4",
]
