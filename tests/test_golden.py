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
    1: "923d9e0cb7d9ec3ba835844214f4bfae24676f35f6a14874eea3213009678f36",
    2: "3de19dbf0384a857a0bef8cdc0cc245e83ad75bfdb982ac02e3c0d2f9ee55344",
    3: "41c15d462afade15a7bd4068ee4a678d11d342da54ef230204708c11476be047",
    4: "3f4de1db644ff814accf906674a0b5239e2d9bbb52dfb71b92f5568e51569af1",
}

# The seeded scenario matrix the campaign benchmark serves: every cable's
# impact query, both disaster kinds and the Europe-Asia cascade.
GOLDEN_CAMPAIGN_DIGESTS = {
    "cable:AAE-1": "a1e63013291b8217519d8ef4751eaf73f58a5b054c8ccadbfef5365b791efdbd",
    "cable:APG": "befa6f2d27569f468a5ebbe23fbc45c76e34f46b0edb5b00279ccf5b6ddbbcc9",
    "cable:ASE": "e3e59047babfb0a88b4161f581319ded9786d05d4213dd4b2f0dc3aab2aeb914",
    "cable:AmericasCrossing": "f81f1e5ce5f4f54f0316b2c721ff9a97579fc7b45543f9b76300b5cc88868f24",
    "cable:Amitie-X": "b32d9e1cf182a14de79e9a0a6019c5aa45f2fa33c7fe4176a1ffb46e0f113fc3",
    "cable:Atlantica-1": "11ae77c080a11f9ff4139c808f7dd8b2feb63a88f7adfc2330d80a4dcd2ff117",
    "cable:EASSy-2": "1a57ffe4dfefde83ece3cd2f78bfb46f672d30ea8a924fb3d5334e61a8bbbd14",
    "cable:EIG": "a2ac02f4193e6bda6438e18c646aaa2b1a3c2d430bb93ea7c4cccb73b1866f20",
    "cable:FALCON": "e60c018e137aa026b775db1dfa75849014c4a812f813fd50de18c2ee5b845b3c",
    "cable:Hawk-3": "bae7cf5a44dfbe010b0038fa206afd4c7960ac183cfcd49e976cb161e150d02a",
    "cable:Hibernia-N": "bf80a723df10ac9cc74e9ecf67b1a694bad86951f4d2089614b13a2d9420cac7",
    "cable:IMEWE": "c022b465f8bba98c779f270d1efdb9e405b7bfadaba6acd0020cb90e5ac4d504",
    "cable:MedLoop": "b1dc711ddd726a51e9c2c46e4ed393034417b65485a5adfc77524ed3a9d6e7b2",
    "cable:Monet-S": "3be3701e2072324539e760d0b6590dc0bef7c63471968818db1b0cb2278c5ff9",
    "cable:OMR-West": "6629a088e06a56c1a2786c1e058d85dfc899665f24d42f9cdeaf8c9f4391b3d3",
    "cable:PacLight": "d02b69f21e9646462837eeb44a6423603aeef8929b8ea6251d8c79dda524f823",
    "cable:SAFE-X": "b2bb58e2c2db3052513e8b73020b22a270000c3a9a02f156c82493253625590c",
    "cable:SJC": "e5417b75531985774b08cf131fb6ef8d6cd746b9f596b165fa796aac27648388",
    "cable:SeaMeWe-4": "2771f2c3bf1f618a8c18f917aee819ff91d536aa8f3a1426f26d006545b1fc83",
    "cable:SeaMeWe-5": "923d9e0cb7d9ec3ba835844214f4bfae24676f35f6a14874eea3213009678f36",
    "cable:SouthernCross-X": "0c9f29bcd722edb2c5163b4edf9e7eb6766226f51cedadfd3d07731ba0f80136",
    "cable:TransPac-N": "e9424b986112ba1d98c751a577d4da4484f4e040be06e65add39815e582564a9",
    "cable:WACS-2": "60e88be040866e24607d199ed5ac1ce1b47e5cb7143eaa51a25bd3c4fc464cf1",
    "disaster:earthquake": "542e5de9c18c9431004be694ed89098d6ae5b49bf4dd2d268393e549efb53adb",
    "disaster:hurricane": "dc5441ee921f33120344810e1d130277dd00a077b26139698b2704c27f5c49e2",
    "cascade:Europe-Asia": "41c15d462afade15a7bd4068ee4a678d11d342da54ef230204708c11476be047",
}

# Step digests behind two of the roots above (sha256 of each step output's
# canonical JSON).
GOLDEN_CASE4_STEP_DIGESTS = {
    "s1": "2ae25da42854e07831be594096078d37fba7de787b79e3770eb90a84fc24e579",
    "s2": "b952d96e3fcf80ee64314b33ae71a1914f6f894389e522bae0be554309c04ea7",
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
    "s10": "7fd35df82883d3dd7be348c18d698b172d617b88b000ef646dc5c71bd043ad82",
    "s11": "bce311b580ed1521cf885d432ac99c96fd4d4e5664affec53b79cdd4235d165d",
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
