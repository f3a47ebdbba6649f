"""Golden digests: the case-study and campaign answers, pinned byte for byte.

Cross-backend and cross-cache tests prove that two execution paths agree
with each other; these pins prove that neither has drifted from the
committed answer.  A change that moves a digest must say so and justify it.
"""

import pytest

from repro.core.pipeline import ArachNet
from repro.evalharness.casestudies import CASE_QUERIES
from repro.serve.campaign import CampaignSpec
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world

GOLDEN_CASE_DIGESTS = {
    1: "d5630dc054a82954e1f381ea45f70515ecd37470b01c3825032f6fa0b1483ddd",
    2: "3204cdb16bf1fd51f2b3a1d6f78e5cc1ad7df31a2036d74d27a69a4ee63652fc",
    3: "0519ea41224aae6fa655a7c71c09d700bf7198dfc5e134f902114956cb8ab944",
    4: "8cff147278ed14d3d71c151b03d3d517d9acc3abed9bb78eb04db89de80d900c",
}

# The seeded scenario matrix the campaign benchmark serves: every cable's
# impact query, both disaster kinds and the Europe-Asia cascade.
GOLDEN_CAMPAIGN_DIGESTS = {
    "cable:AAE-1": "5421b89d7476fb7e2d4c9b2ad650fbac4b8bd24065e266ecc606247cd050b90e",
    "cable:APG": "3e21a31a19d5e68596c695773a4821e3dc7640d0a21cb47ec53c7264b8bc6de3",
    "cable:ASE": "0cec9b08d26f0910535f7ad3bd070b8f372b23d489be0e3fe4819007db89d5da",
    "cable:AmericasCrossing": "9bc24261b4895492b79becac4dae7a294140e2d3b2a0e09b4212d92d04f4f18e",
    "cable:Amitie-X": "d7533b390e95f5f9449225db149d10a1eb1d0e17540c6140cae8d134d2517c2c",
    "cable:Atlantica-1": "f447036d2358ff46616af56955d8beb799b8200e0536b5718f7376daace8c6ff",
    "cable:EASSy-2": "02c80dbe91fa2e21d1d41333f436c1922cd4367fbde458349a6f9ace580c5e71",
    "cable:EIG": "b5f2cc26d1cf8b1b680f61be232d0ba9da843880d10748e5aac31710fa8d39bb",
    "cable:FALCON": "550ba7201cda8d4fd7c8d5556dad6a2afdcecef3e6eefb0ef2f4184a6de5f521",
    "cable:Hawk-3": "10348108ceb88687e331eed75deb130c902ef5d1e48ca6a6c868a9b7ee4613e0",
    "cable:Hibernia-N": "a5c5fc4a00e11dd4de8be671cae7e121e333c4144f36bd92a75a16184b513f47",
    "cable:IMEWE": "9605df39f17d76462c922239806028a558c949767e47942208542cd1c7e1b209",
    "cable:MedLoop": "dd82eedc0eb66ea376f3ef63fb105e6d1372a31608f085a1257f8d2b0b315366",
    "cable:Monet-S": "61c7134ce6edea7afdf367e1650c7b6cfe0620f93cd9dbf796562ee4958a0c63",
    "cable:OMR-West": "983906224c81c5637dc3e99a985e0294c27eb30bd2d13d789d340545e8b55d8b",
    "cable:PacLight": "23962ccdeed109c9724c71ce760392b850b86b98b26ac03c31114739e4709c2e",
    "cable:SAFE-X": "b21b1d75db343746b0e5b8a3ad5b92e7652523366b606c785d7d65970ca2d436",
    "cable:SJC": "58b017fd3fe8e0d728f3c58b4222149eaa0384c54e97a3bbfc2c4456f18fff52",
    "cable:SeaMeWe-4": "517dba672940f4eaf0fc7fb0b6692357237b3195789f063ef4215337683ca192",
    "cable:SeaMeWe-5": "d5630dc054a82954e1f381ea45f70515ecd37470b01c3825032f6fa0b1483ddd",
    "cable:SouthernCross-X": "da099dfe9895a8c85e0f3c5d5dbae634b4d994439542c9ad421247113eb8bf54",
    "cable:TransPac-N": "f6c8ef33f57fc21f2ce3d15fdbcd97c742095fba0d4a750a9e40be7a15f57ffa",
    "cable:WACS-2": "ddbbfdfe44a139f00ee4f9d2955de9b12a667961f620cb68cbd6fc34dbb6ccca",
    "disaster:earthquake": "88889e9f10002f0de51e1511bf261f1652f82aa61ea8b7aaf1fe522b0d54d5f1",
    "disaster:hurricane": "85b6cfb012706853cb5d7b6eebc1aab0b3676345e69b04db1063493ec6464c0c",
    "cascade:Europe-Asia": "0519ea41224aae6fa655a7c71c09d700bf7198dfc5e134f902114956cb8ab944",
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


@pytest.fixture(scope="module")
def campaign_system(golden_world):
    return ArachNet.for_world(golden_world, curate=False)


def test_campaign_matrix_is_the_pinned_one(golden_world):
    jobs = CampaignSpec.for_world(golden_world, cascades=True).expand()
    assert [job.tag for job in jobs] == list(GOLDEN_CAMPAIGN_DIGESTS)


@pytest.mark.parametrize("tag", list(GOLDEN_CAMPAIGN_DIGESTS))
def test_campaign_job_digest_is_pinned(golden_world, campaign_system, tag):
    jobs = {job.tag: job for job in CampaignSpec.for_world(golden_world, cascades=True).expand()}
    result = campaign_system.answer(jobs[tag].query)
    assert result.execution.succeeded
    assert result.artifact_digest() == GOLDEN_CAMPAIGN_DIGESTS[tag]
