"""Golden digests: the case-study and campaign answers, pinned byte for byte.

Cross-backend and cross-cache tests prove that two execution paths agree
with each other; these pins prove that neither has drifted from the
committed answer.  A change that moves a digest must say so and justify it.

Each run is pinned twice.  The answer digest covers a result's small
fields plus one sha256 per step output; the code digest covers the
generated solution.  The root ``artifact_digest()`` that cross-backend,
cache and resume identity compare is the sha256 of the two, so a
template rewrite moves code pins and never an answer pin.  Two workflows
also pin their step map, so a drift there names the step before the
answer digest reports that the answer changed.
"""

import hashlib

import pytest

from repro.core import codegen
from repro.core.pipeline import ArachNet
from repro.evalharness.casestudies import CASE_QUERIES
from repro.serve.campaign import CampaignSpec
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world

# Answer digests: what each query's run says (analysis, design, step
# digests, final, quality report).  A moved answer pin is an answer change.
GOLDEN_CASE_ANSWER_DIGESTS = {
    1: "cf513e5f24ff5db00d208dbfc8a53236155165fe3f0e4b25eef902f4e080a4c5",
    2: "09109b7d5dbd4866a5777c1f65225a2f55f8be533a41281531baaba5c1ed257c",
    3: "c8b07fcca033240d3c3d3a4a95ad3e6bf97b9faf11f2ca14f9b6c4f16ca91f49",
    4: "2205f269594a17ec69292a7e70d162d199c8568692c07965660f69cec9750c74",
}

# Code digests: the generated solution each query ran.  A template rewrite
# moves these and no answer pin.
GOLDEN_CASE_CODE_DIGESTS = {
    1: "bbb599d8ec29e3aee79625a203abf7ec1ae472b0d40b646e44fd5dd0b55b58bb",
    2: "01b9db236d6051426cbab1545fb22d01f10f28c4da57647a348efc6eb31e0ce9",
    3: "83bcc3725a699fe70dfb5a741a9a30268e2effa517cf9cc060aac8a106ed1289",
    4: "7564a42c50c9a62a916926dac0869bf2ddb771423782a46eb671bbf7f29f3cb0",
}

# The seeded scenario matrix the campaign benchmark serves: every cable's
# impact query, both disaster kinds and the Europe-Asia cascade.
GOLDEN_CAMPAIGN_ANSWER_DIGESTS = {
    "cable:AAE-1": "e8dff0cf05d79c3000686d4b2c56fb832b99c968b153155f0d4a74ad3bea7700",
    "cable:APG": "643c109ff6c9611922824b3af0d3b111cfc6c94d5b7ca54db45b8987574a1650",
    "cable:ASE": "91ebfa9ca77dbb80d774c7f266a3b05bf70819c67358599c3719117486a32cfe",
    "cable:AmericasCrossing": "0e70800d8e33e29d768749a1ffe63b9dbedcc55ae67bba1dfa9fdc62265cf1ff",
    "cable:Amitie-X": "ec89180bed32dc6031408503f66a8689ef1cd0628ce13c7067f92eda29991a71",
    "cable:Atlantica-1": "9d3316f5d25f506641a88ce35b3361d0ef01d12519b38b583e13d3dcc8d4bd5c",
    "cable:EASSy-2": "f19ee05e179eb6df58df0cc916c74fd428de6704f2ff08d9325fc768f602ed16",
    "cable:EIG": "f0026257b61a49ab9a2d2bb24e8ba5be024b16bfc19fd3265257edca86d31522",
    "cable:FALCON": "c2c6ff8bdaf4efe21ebb5fbc562dfdfa3b73f9e359d45e6cda015440a4948a3b",
    "cable:Hawk-3": "46af375265b948b117640546d8f3657c2513b9fd1cb4fccfa689f36764355fb7",
    "cable:Hibernia-N": "fdd3526e8f7a7d8f1d0bde5026d2fe441acaebee87e6326bad90f60864ffc8ac",
    "cable:IMEWE": "bd89ed38a43aac99fca2a22cc3393f23dfc1c5b9dd6ae3a6650f1fa52f373e71",
    "cable:MedLoop": "da6a28117ff68e5981c72c23c89b5617d6c8a32f43a177c1dde0ee133b0775fa",
    "cable:Monet-S": "1f7fae11bb1ba92e08030a6744c460b6768ab0f16edab647946679698011fdab",
    "cable:OMR-West": "ea4e2fef3606ec9c43406d2d6aa1f9901fda15e288f0e13b948e2e5a20938241",
    "cable:PacLight": "6e87338382af3df6c13c078be930029c46856c8ac967185f02f8078902c0d095",
    "cable:SAFE-X": "c7165de4d60f53077a843d5f7d3b9b9e27a0bf792ab32a4340a16142aa9a74cc",
    "cable:SJC": "e3eab8dadd7f33effb87d4f675f698612160efcda534315cb5c041ef058abe0a",
    "cable:SeaMeWe-4": "86f0c428e0a5fbc28bcc1ec5cdffa901671da78e6ede3788764f84b4e18fc0c8",
    "cable:SeaMeWe-5": "cf513e5f24ff5db00d208dbfc8a53236155165fe3f0e4b25eef902f4e080a4c5",
    "cable:SouthernCross-X": "60bdea4c825d97d272aa0dfeea3aa406e2a22545cdee8917a1c3fe82d5a8be37",
    "cable:TransPac-N": "46e0a06abdb2a7351b2dac6f0f154b3a35a5047d153e6f560acd365c684ca532",
    "cable:WACS-2": "a9f18724f679fc76eb67e083182fdec6aca519e3258d1640ba6a2fac1a6e713e",
    "disaster:earthquake": "592920ab481ad706fb7227ce806647d4220076886358eb6100fad7635c31dc08",
    "disaster:hurricane": "4c4a1559b4955c3623c04aaf0775ab0c5cffe9035e7763f30c739fb4eea534de",
    "cascade:Europe-Asia": "c8b07fcca033240d3c3d3a4a95ad3e6bf97b9faf11f2ca14f9b6c4f16ca91f49",
}

GOLDEN_CAMPAIGN_CODE_DIGESTS = {
    "cable:AAE-1": "204fb1783a5c004ae3fcb2e86006163daac75b6df3a320855fb3fd17385248c3",
    "cable:APG": "eb53f463a9432c1c913bde96edf75f2057b5f7dce96a8f462da9d1c5134c68db",
    "cable:ASE": "7ced818ef1f9c902264d97b0a6eafa2f40406cc36b8b0d553e41523eebee7a85",
    "cable:AmericasCrossing": "0e10dccaf6d747600149244ebe3fc2c3f9a24508f123d9ffd4baefe6adfb2530",
    "cable:Amitie-X": "b89fb27a5e2fdd2d9face0aa1056b42a8379ef9365fca775061d7cda316dfcde",
    "cable:Atlantica-1": "5077126cc314f4ea884a36e2d5d9ff9c2bf706a15ae3b1850e0cad698e94307d",
    "cable:EASSy-2": "3d42e4e0c60c14c0d33c2887e4be67cbd8209f834226c65c35ebc4d39cb03684",
    "cable:EIG": "6cea47fd78590102d79fe050e9f457cd4c31d975131abc65b211ae40407a184f",
    "cable:FALCON": "f7e650f8f0e4ab9d46737f848c722488e351045714deb607bd3781db7cbc9d30",
    "cable:Hawk-3": "c43497f24dba194b955e0fd82d6183f3ececa90dc16bfe3ad0d13cb947b413e5",
    "cable:Hibernia-N": "d7d43e1adae28b1c76cdc90049682807340293e02d7caecc9d478c3c8bc3031c",
    "cable:IMEWE": "1a7d2cade5868295386bb838002d43096287344770d5150ab319ed2dc62cd383",
    "cable:MedLoop": "bcc890e1d9e4cce1ed659527d0ae7540d9bcb6e6b570499bcaa632c9cd8207db",
    "cable:Monet-S": "423ef993b77d6d7c3030bb0ccd8f9b4cb4e6a6b82a0a6d45e9febfac3d7e86b4",
    "cable:OMR-West": "78cdb46c336d20a29fb9bba5c1a94a2ac808aedd8d452d09c8780b8fc8f34eb7",
    "cable:PacLight": "5a25f7d1bc5eedf1b9ecb96ff31eff2d46411782f2d5dc6046a0779cbe87a6a9",
    "cable:SAFE-X": "6a6349c4e287eeb0da01e23945db14a9ba55c4e082a3d2e5c2044a064ec47682",
    "cable:SJC": "8c6c79756a7655cdc899abae34f500ae4f9b3940254f25b280586f7091c944c2",
    "cable:SeaMeWe-4": "f418c34be38d586ddd98b9fd15e1f69254fdb3270b9fa64921cccc2dcf6dbb99",
    "cable:SeaMeWe-5": "bbb599d8ec29e3aee79625a203abf7ec1ae472b0d40b646e44fd5dd0b55b58bb",
    "cable:SouthernCross-X": "32fd83a2fae5a6837c4ba9ebadc37648fd4bb8ffa915dc14621b2911e094ee3f",
    "cable:TransPac-N": "312f5f50957e7f9fd87bc3e506cdf054633dca412dadfc8a6d8e2e06ae661605",
    "cable:WACS-2": "47338005bfed305f5013e41c480ee49d8645e427e97e75daa48acb103492d1b6",
    "disaster:earthquake": "e804b7034597f8105e340f8024663fce068a807cb77cd4487428ae40db5daec2",
    "disaster:hurricane": "05984932d1e7c694bb4c8e6f8c761ffaa0a4a28983300cde284e7276b7fb0605",
    "cascade:Europe-Asia": "83bcc3725a699fe70dfb5a741a9a30268e2effa517cf9cc060aac8a106ed1289",
}

# Step digests behind two of the answers above (sha256 of each step output's
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
    assert result.answer_digest() == GOLDEN_CASE_ANSWER_DIGESTS[case]
    assert result.code_digest() == GOLDEN_CASE_CODE_DIGESTS[case]


@pytest.fixture(scope="module")
def campaign_system(golden_world):
    return ArachNet.for_world(golden_world, curate=False)


def test_campaign_matrix_is_the_pinned_one(golden_world):
    jobs = CampaignSpec.for_world(golden_world, cascades=True).expand()
    assert [job.tag for job in jobs] == list(GOLDEN_CAMPAIGN_ANSWER_DIGESTS)
    assert list(GOLDEN_CAMPAIGN_CODE_DIGESTS) == list(GOLDEN_CAMPAIGN_ANSWER_DIGESTS)


@pytest.mark.parametrize("tag", list(GOLDEN_CAMPAIGN_ANSWER_DIGESTS))
def test_campaign_job_digest_is_pinned(golden_world, campaign_system, tag):
    jobs = {job.tag: job for job in CampaignSpec.for_world(golden_world, cascades=True).expand()}
    result = campaign_system.answer(jobs[tag].query)
    assert result.execution.succeeded
    if tag == "cascade:Europe-Asia":
        assert _step_digests(result) == GOLDEN_CASCADE_STEP_DIGESTS
    assert result.answer_digest() == GOLDEN_CAMPAIGN_ANSWER_DIGESTS[tag]
    assert result.code_digest() == GOLDEN_CAMPAIGN_CODE_DIGESTS[tag]


def golden_roots() -> dict:
    """The pinned root of every case (``case:<n>``) and campaign job."""
    pins = [(f"case:{case}", answer, GOLDEN_CASE_CODE_DIGESTS[case])
            for case, answer in GOLDEN_CASE_ANSWER_DIGESTS.items()]
    pins += [(tag, answer, GOLDEN_CAMPAIGN_CODE_DIGESTS[tag])
             for tag, answer in GOLDEN_CAMPAIGN_ANSWER_DIGESTS.items()]
    return {tag: hashlib.sha256((answer + code).encode("ascii")).hexdigest()
            for tag, answer, code in pins}


def test_root_is_the_hash_of_the_answer_and_code_pins(golden_world):
    result = ArachNet.for_world(golden_world, curate=False).answer(CASE_QUERIES[1])
    assert result.artifact_digest() == golden_roots()["case:1"]


def test_template_comment_moves_code_pins_only(golden_world, monkeypatch):
    # A comment in one transform template changes every source that uses
    # it and nothing that source computes.
    template = codegen.TRANSFORM_TEMPLATES["build_report"]
    monkeypatch.setitem(codegen.TRANSFORM_TEMPLATES, "build_report",
                        template.replace('    """Assemble', '    # reworded\n    """Assemble', 1))
    system = ArachNet.for_world(golden_world, curate=False)
    for case in (1, 2):
        result = system.answer(CASE_QUERIES[case])
        assert "build_report" in result.solution.source_code
        assert result.answer_digest() == GOLDEN_CASE_ANSWER_DIGESTS[case]
        assert result.code_digest() != GOLDEN_CASE_CODE_DIGESTS[case]
