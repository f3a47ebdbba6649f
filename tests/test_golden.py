"""Golden digests: the case-study and campaign answers, pinned byte for byte.

Cross-backend and cross-cache tests prove that two execution paths agree
with each other; these pins prove that neither has drifted from the
committed answer.  A change that moves a digest must say so and justify it.

Each root digest covers a result's small fields plus one sha256 per step
output; two workflows also pin their step map, so a drift there names
the step before the root reports that the answer changed.
"""

import pytest

from repro.core.pipeline import ArachNet
from repro.evalharness.casestudies import CASE_QUERIES
from repro.serve.campaign import CampaignSpec
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world

GOLDEN_CASE_DIGESTS = {
    1: "efe63a8e2c04a08963135f538967ed091addc53179d33eaccf1edc0d1ec98925",
    2: "e88c1ddaf2efd86a684e57bf25131ba776a884fd8e743b55f101bd8136f6354f",
    3: "3cb980bbb27ba2af6e2ac683b195f358c5bcc4eb933a46f4c6f9b7f00c8888ee",
    4: "efca5c928ea5a864e0b5af45912504927c08ee11573209fdd4cd497b9feb5364",
}

# The seeded scenario matrix the campaign benchmark serves: every cable's
# impact query, both disaster kinds and the Europe-Asia cascade.
GOLDEN_CAMPAIGN_DIGESTS = {
    "cable:AAE-1": "08209dc63e7c4a35ed8a2068d5b3cbdedbaa3a5c46dbe76475494e230118996c",
    "cable:APG": "654d0e0eff1b2d1c4813306c6b16caabf5f70032f64d34906c6166be3ce49d2a",
    "cable:ASE": "5c253de37a64466045a40dba22964729f4b47b84db222e0d5ce147799d683f70",
    "cable:AmericasCrossing": "26044010cace2a6ef8d24c1eeee8c99cdd85d3ca15db87d4143831e1b34993bf",
    "cable:Amitie-X": "225bf76b8aae7b1758272d0bf38ae0bb53dbdbf52f7be6fe5d64e2347295e2ce",
    "cable:Atlantica-1": "d33d5848c3bd28dacf850edcb0e4266f12b5a7623e66dcf24ea3142a2c8c8e92",
    "cable:EASSy-2": "3318949f3b7d6a712d78c2abf22c582e5bbc147e6bc52d643d35338d074d90a0",
    "cable:EIG": "1c16734c51fd245a56bb9276d260ed287d740edff5affa5309076a17669e9d55",
    "cable:FALCON": "2f5684bcd1ce6e2886251a13292d0265eee17a0d5f42019b3a274e41ab19f3d3",
    "cable:Hawk-3": "4d8b9367c1dcbac34d3c1c2cd56ed830e4846335c083a2e00cda413d0607b2cc",
    "cable:Hibernia-N": "ea771e438536d16b4a77c3060e95bcc7834ef131517ba6fd51e248ea3dd9bdc3",
    "cable:IMEWE": "6f2a5c4675746c55796dde9d71d9fbbd370e17e252f5db83983b5d7e3b31df20",
    "cable:MedLoop": "6de4e1e35ed7262010f5a4c6e7a45146c861e4aae25dad9adcf9c801cab588d6",
    "cable:Monet-S": "ba52463f341714cc0c265ce018275f2276fa08ab158a970af164f70aa5633578",
    "cable:OMR-West": "091923981a90713922605f53adc61f0b19615376006ca32a457b5359e622911d",
    "cable:PacLight": "f83ac32c3f9551690a2b93ad91c4c4cdbde91cac7a9d8a2b3560516e455f871f",
    "cable:SAFE-X": "95810a65c6fef862545f70ea8b83f78b31d2d81caeaf2eb5913b2ab524986f30",
    "cable:SJC": "76c8cade4b5b30a9d986ceb4989f7f06439d47583951d149b8818bf4618b8019",
    "cable:SeaMeWe-4": "5aeb3b278a800e1f099576bc405f065835e55208ce91405eb05e6c1a96c51407",
    "cable:SeaMeWe-5": "efe63a8e2c04a08963135f538967ed091addc53179d33eaccf1edc0d1ec98925",
    "cable:SouthernCross-X": "bf8fdab73ca6f26e16f648e20f41fa7dbd2a5ee094e6358c53a3fc5cced1c7f5",
    "cable:TransPac-N": "e4d7cf106076946b59984d379dcad24a2d43c73b1d537c18a4a3031d9b9ccda3",
    "cable:WACS-2": "e19d2022e0a08f044967b5e11eac8cc870a21fa0d6fee41d5c38f226c39bfe75",
    "disaster:earthquake": "3bd28138e44740a7eec62900d50be3a149b62915e0a6d5cb4887d7888cd5b2ea",
    "disaster:hurricane": "bba85f1dc7fca08dc0432a0dbcba5b99fa58bd118b3f28e562110ab1a59aab54",
    "cascade:Europe-Asia": "3cb980bbb27ba2af6e2ac683b195f358c5bcc4eb933a46f4c6f9b7f00c8888ee",
}

# Step digests behind two of the roots above (sha256 of each step output's
# canonical JSON).
GOLDEN_CASE4_STEP_DIGESTS = {
    "s1": "53993f998f048fe5a5696ec2525717925c2df14981106d4e7afdfa21e93871da",
    "s2": "34d2a40edfd7ea8a090638aae13f841b3bd830cc690efd359d860fc58275e812",
    "s3": "535072fa5fb3dc4ce3d601ccb9d2fa22512134dacc11568153ffe9843d201500",
    "s4": "c266a6a63ab7a507e9fa59034baa2f716a78bb344a8e09d2a502fd00e465f01e",
    "s5": "6c9ea5d636d10fb4765699b1c27392f478f2b6ffc6afcad0c89234c5147a4675",
    "s6": "81cc1f0a02abe60b02de65d247cb03376d35579d40eb1c6a272d6f2974e97e7a",
    "s7": "95f551cfe64fd213a0c39ad7a74fa896e4ee42c1a6b1eff296542d60805e7c00",
    "s8": "e806d0b1642ddca5a03afcd5308086f97dd5a04661a362fde13051f5a36ad31f",
    "s9": "3eb6f836dcd53d6fc92ea17a2c0cd4b076b842d6f533507ed3c461e811479eae",
    "s10": "319e086d7cf551ebc7eef926892c33e3cc43d4c10c616444892632d33fcc40ef",
}

GOLDEN_CASCADE_STEP_DIGESTS = {
    "s1": "655fda6c6853f88a8e7468045dc1e0dc57f31c7299cf3a98dcecc3c910c49c13",
    "s2": "7440183dff7dde04210dc5df0c44f5b95d790d4bff1af3ed89f916d182c24fd1",
    "s3": "6c9ea5d636d10fb4765699b1c27392f478f2b6ffc6afcad0c89234c5147a4675",
    "s4": "c9b01582a389ace986719c30fa11ca27fe3dea05113145d32c24f78520b92720",
    "s5": "d5e84c6fffedf96c98fc98c78200015fb812bd3dddecf063cad96608fb4798d1",
    "s6": "7ad2aab69bfec3b3485c4075a24708845ed4283bfb703991354789732e26ac18",
    "s7": "57d26fc4f0ca87ae4a4ccdfdb58affed9ff6802249ab57a44f782db4e71c3f78",
    "s8": "68a817a0a5ed3ead949a012e7c6b32eadd827ff1070c8ad6e1b7522219077489",
    "s9": "e084603cadb4da7ca552c9b3ae41b6863123d3face624b04ce7645488bcb2a84",
    "s10": "c5c566e2307df38e6dabb83ba6a7043be6ec857ef0789fa2cad9c1652834ae2d",
    "s11": "82ca9f782292bc156c7f9c4e5649455079bf16c9a6c270b3840e3b8de63e9808",
    "s12": "52bb65142ef8be416170e4219794eb7e6e140cf5948beb0f535276f9b3e48d66",
}


def _step_digests(result) -> dict:
    return {sid: ref.digest for sid, ref in result.execution.step_refs().items()}


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
        assert _step_digests(result) == GOLDEN_CASE4_STEP_DIGESTS
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
    if tag == "cascade:Europe-Asia":
        assert _step_digests(result) == GOLDEN_CASCADE_STEP_DIGESTS
    assert result.artifact_digest() == GOLDEN_CAMPAIGN_DIGESTS[tag]
