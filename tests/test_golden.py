"""Golden digests: the four case-study answers, pinned byte for byte.

Cross-backend and cross-cache tests prove that two execution paths agree
with each other; these pins prove that neither has drifted from the
committed answer.  A change that moves a digest must say so and justify it.
"""

import pytest

from repro.core.pipeline import ArachNet
from repro.evalharness.casestudies import CASE_QUERIES
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world

GOLDEN_CASE_DIGESTS = {
    1: "d5630dc054a82954e1f381ea45f70515ecd37470b01c3825032f6fa0b1483ddd",
    2: "3204cdb16bf1fd51f2b3a1d6f78e5cc1ad7df31a2036d74d27a69a4ee63652fc",
    3: "0519ea41224aae6fa655a7c71c09d700bf7198dfc5e134f902114956cb8ab944",
    4: "8cff147278ed14d3d71c151b03d3d517d9acc3abed9bb78eb04db89de80d900c",
}


@pytest.fixture(scope="module")
def golden_world():
    return build_world(WorldConfig(seed=7))


@pytest.mark.parametrize("case", sorted(CASE_QUERIES))
def test_case_query_digest_is_pinned(golden_world, case):
    incidents = [make_latency_incident(golden_world, "SeaMeWe-5")] if case == 4 else []
    system = ArachNet.for_world(golden_world, incidents=incidents, curate=False)
    result = system.answer(CASE_QUERIES[case])
    assert result.execution.succeeded
    if case == 4:
        assert result.execution.outputs["final"]["identified_cable_name"] == "SeaMeWe-5"
    assert result.artifact_digest() == GOLDEN_CASE_DIGESTS[case]
