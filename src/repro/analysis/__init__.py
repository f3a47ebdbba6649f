"""Statistical and forensic analysis helpers.

The generic layer under the measurement substrates: robust statistics,
change-point detection, temporal correlation, suspect scoring and evidence
synthesis.  The forensic case study composes these into a causation
argument; SolutionWeaver's embedded quality checks reuse the same
primitives.
"""

from repro.analysis.stats import mad, median
from repro.analysis.changepoint import cusum_change_point
from repro.analysis.correlate import temporal_correlation
from repro.analysis.scoring import rank_suspects
from repro.analysis.evidence import EvidenceItem, synthesize_evidence

__all__ = [
    "mad",
    "median",
    "cusum_change_point",
    "temporal_correlation",
    "rank_suspects",
    "EvidenceItem",
    "synthesize_evidence",
]
