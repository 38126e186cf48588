"""Golden-output fixture: SHA-256 digests of every catalog report, every
certificate, every cross-section rendering and the stdout of the README's
CLI examples.  A refactor must leave every digest unchanged.

Table CSV is digested only through the README example, whose rows hold no
comma and so are the same with or without CSV quoting."""

import contextlib
import hashlib
import io

import pytest

import nestcone as nc
from nestcone.cli import main

# One non-default point per parameterised table.
NON_DEFAULT = {
    "hilb_p2_nef": {"n": 7},
    "nef_p2_nested": {"n": 7},
    "nef_f0_nested": {"n": 7},
    "nef_fi_nested": {"i": 3, "n": 7},
    "nef_k3_nested": {"g": 5, "n": 8},
    "nef_p2_univ": {"n": 7},
    "nef_f0_univ": {"n": 7},
    "nef_fi_univ": {"i": 3, "n": 7},
    "nef_k3_univ": {"g": 5, "n": 8},
    "pairing_p2_hilb": {"n": 7},
    "pairing_p2_nested": {"n": 7},
    "k3_g1n": {"g": 5, "n": 8},
}
NEF = sorted(t for t in nc.CATALOG if "nef" in t)
EFF = ("eff_p2_2_1", "eff_p2_3_2")
CROSS_SECTION_FORMATS = ("svg", "tikz", "csv", "json")

README_EXAMPLES = [
    ("pair", "--surface", "p2", "--space", "nested", "--n", "3", "A^b", "B^b/2"),
    ("table", "--table", "pairing_p2_nested", "--n", "4", "--format", "csv"),
    ("nef", "--table", "nef_k3_nested", "--g", "4", "--n", "6"),
    ("eff", "--table", "eff_p2_3_2", "--format", "json"),
    ("verify", "--all"),
    ("cross-section", "--table", "eff_p2_2_1", "--format", "tikz"),
    ("cross-section", "--table", "nef_p2_nested", "--n", "3", "--format", "svg"),
    ("butler", "--i", "1", "--a", "1", "--b", "1", "--n", "4", "--k-max", "5"),
    ("asymptotic", "--k-max", "30", "--format", "json"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(*parts, params=None) -> str:
    tail = [f"{k}={v}" for k, v in sorted((params or {}).items())]
    return ":".join([*parts, *tail])


def _cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def table_digests() -> dict[str, str]:
    out = {}
    for tid in sorted(nc.CATALOG):
        out[_key("table", tid)] = _sha(nc.reproduce_table(tid).json_str())
        if tid in NON_DEFAULT:
            params = NON_DEFAULT[tid]
            out[_key("table", tid, params=params)] = _sha(
                nc.reproduce_table(tid, **params).json_str()
            )
    return out


def certificate_digests() -> dict[str, str]:
    out = {}
    for tid in NEF:
        for params in (nc.CATALOG[tid].defaults, NON_DEFAULT[tid]):
            cert = nc.standard_nef_certificate(tid, **params)
            out[_key("nef", tid, params=params)] = _sha(cert.json_str())
    for tid in EFF:
        out[_key("eff", tid)] = _sha(nc.standard_eff_certificate(tid).json_str())
    return out


def cross_section_digests() -> dict[str, str]:
    return {
        _key("cross-section", tid, fmt): _sha(
            _cli("cross-section", "--table", tid, "--format", fmt)
        )
        for tid in (*NEF, *EFF)
        for fmt in CROSS_SECTION_FORMATS
    }


def readme_digests() -> dict[str, str]:
    return {" ".join(argv): _sha(_cli(*argv)) for argv in README_EXAMPLES}


# Digests taken on the code before the catalog was turned into data.
GOLDEN = {
    'table:eff_p2_2_1': '9706da6b2d8f52dfc3930e71bbb2e66f75c7061dbbc52f05e582290f8dbe5100',
    'table:eff_p2_3_2': '5ea79ad0480a2391ca1b95b3ec42bca92b124d841abd3865434d3410cc483579',
    'table:eff_summary': '62aa2664bb665257ebd70a6283edf081739f18ccad145125cdb298e46db60029',
    'table:hilb_p2_nef': '52d327e62f32a40bfcd8588e5f84a4fac2b59605a6d80c3c66313df0fccc2601',
    'table:hilb_p2_nef:n=7': 'ce7c567297cc5f4663d78aca3ff4ca3bd182851e7d309c21f96c968a6c961622',
    'table:k3_g1n': '9854e036fd5d4a09a168236e9c4c6f24e7813b355d62bf4b9ec310564a287ed4',
    'table:k3_g1n:g=5:n=8': '01e2415c0fe26488831b59174f297414cf0c9e583d2c0dea22fdeb8cc2c3cfc8',
    'table:nef_f0_nested': 'e14974d225ee46c09dfafe6f59b833199b44a70fb66f68764814a19dfd05f56b',
    'table:nef_f0_nested:n=7': 'eebe7cd08917c41847e29864d0c17525bb51a13aa89562a8f9ca6e91bb4d569f',
    'table:nef_f0_univ': '0f064acc12b4a372ba7d27d074810b99fce1e177402176de74e51d619b1bc551',
    'table:nef_f0_univ:n=7': '44b1de990b8041d480e98704e611e8f80780a49abc0f178b66b2882971041c9c',
    'table:nef_fi_nested': '6014c4af62e05f31308cc138b752754e7613cbcc98f7cafe92407b00d53426f1',
    'table:nef_fi_nested:i=3:n=7': '50657c3751c7243ff50231f160a630f4ea1e6f92f9de3cea4f04122a4704dc22',
    'table:nef_fi_univ': '0caf13add046853911cda46c9bb82145c00d11c4129fc5b20f0666837cd266de',
    'table:nef_fi_univ:i=3:n=7': 'a963a85b900b2e413e3444cd46633b7188cb2f8b0efcf5716ca1559f5183e68b',
    'table:nef_k3_nested': 'd3cb8c48e163f5ae4aeee6ce573a03329a6adc70abefc9feab0e82832134abaa',
    'table:nef_k3_nested:g=5:n=8': '27572cc676b27196d238ae326fa81a18cebf30b7f440d9c340093e8cf2ddae1e',
    'table:nef_k3_univ': 'd91c79bcc35c35521f816b048971278e046c386b6c8c6f9c17019538a2c74022',
    'table:nef_k3_univ:g=5:n=8': '6c923a982ad1f07e4d49a920f952804e307917e121ac49cdbced919c8b74ee4d',
    'table:nef_p2_nested': '4f48d931a128ba066023a85f946e87abb1b88ff38f5db52f55474559a23a8dd9',
    'table:nef_p2_nested:n=7': 'e57d61f2f4b04ebea926646b680de674fdcdcfba119b74d55398648616d715cd',
    'table:nef_p2_univ': '19d6f510de5fb614d56892e1bb512d51fbef75c8fc56152189f3a03dad8b1306',
    'table:nef_p2_univ:n=7': '15e6c2e2e31040fe3f8e9a29254f9eba5ac46e69321bca5e0361664c4b6c9f58',
    'table:pairing_p2_hilb': '3b500e6f6dc3d9ff216a7d68e7c3619b6f01abb01d1827327024d9dcf9c6bcce',
    'table:pairing_p2_hilb:n=7': 'a188db068bbfda586064835acbccc921c4fb7b339cbcc538c6ed1184d2adb4eb',
    'table:pairing_p2_nested': '3343e328337b2f6fc8cefb9fc04c684a56ec4b1babd6039cba9477444c4e2d49',
    'table:pairing_p2_nested:n=7': 'b3db011ca6fe83f71e18952d770fcb085b57fc01dd9be7a57eb1187cf83368b5',
    'nef:hilb_p2_nef:n=3': '4659e4ca625ba24047b5ca5fc7f914bd0edb68d15b1ac915be11f61c2c3a9a6c',
    'nef:hilb_p2_nef:n=7': '2bc55a1d779a952136cdb49e00d4076f05edc376d03e9b1b5fbac20dba8ed736',
    'nef:nef_f0_nested:n=3': 'd6bf8feacd87c1899398d2edd5d782e8efabfd65fe188bc53461ecca3cb6316c',
    'nef:nef_f0_nested:n=7': '60fa70d5ca03a301a5044f11f1382d4dc2ba481d9ed39ced43cc96cb0bb52fc5',
    'nef:nef_f0_univ:n=3': '0af50fa998cbca289e94c976eab51d1b8e5634e4a9501f495ad160ec8a8db1f4',
    'nef:nef_f0_univ:n=7': '3faac4a17dc28a8833b0f684f110d83288e51d63c03ed5f0c4bcaa849d4f026a',
    'nef:nef_fi_nested:i=1:n=3': 'f3cd7dc1a76c5bb46d685e2fc3a401a210d2dea18821ad6aa838658817091b7a',
    'nef:nef_fi_nested:i=3:n=7': 'aae3b9e1afb1b4916ccf386a3f2cde3a997ec2c4d4bdfd2296cb34bf5ee0a092',
    'nef:nef_fi_univ:i=1:n=3': '8c1389235692e6ef46978d9acd2060a18bb35b46f3a703f0388641d13a5f99b6',
    'nef:nef_fi_univ:i=3:n=7': 'be0053c99de5839c8c149d8d8c2379cfa17e1e64c0a10cf201729f8d4510f02e',
    'nef:nef_k3_nested:g=3:n=4': 'c70174e262ff934dd1849258c502e0e3d86dfa65ac10ebfd3555f02d6c3c34fd',
    'nef:nef_k3_nested:g=5:n=8': '8e078713b5a78b277b45e06affd2629a6cb2c3ac5e109ff32efe055b2bcbf074',
    'nef:nef_k3_univ:g=3:n=4': '2a39624dcdf9f3ddafc626bcb940d0ec353a3550420ee874e3fcc9a91a61f050',
    'nef:nef_k3_univ:g=5:n=8': 'd49dc17a40541d60c712676d5fd04d17fd2cd2ebfd6892b7260893b581007919',
    'nef:nef_p2_nested:n=3': '44ceed2d39e24d423fda74ee58eb8b64074a18554eea4d42742983639c0e76cf',
    'nef:nef_p2_nested:n=7': 'da283e476448d78f9fffb9c897e5ca5c15781f1f72f795b304a31c480bb9a87d',
    'nef:nef_p2_univ:n=3': 'ff56f51d72901805b5725140f1455645d6328ab652c63334f02eb2d085998940',
    'nef:nef_p2_univ:n=7': '194725b9980a1c729ee5f03b0160fba29e685662032ef2a4e26d3a7af0baf2a1',
    'eff:eff_p2_2_1': '635e30bf686e549d861f902722ce3cf500f5993cd9a9769003c97e48266bbd79',
    'eff:eff_p2_3_2': 'ee7dd174e6867e6acad83949ecc495a5fbf3ef35c8b23db41bd08a01eaa11550',
    'cross-section:hilb_p2_nef:svg': '6719ada611a3178d49c51e0780c1a8f0f3e3ab12cb225836289fd325e8871c92',
    'cross-section:hilb_p2_nef:tikz': '252151d6ad04cd34f4543506cad18fb59f44f9ada265caa3b53369b21c1d765e',
    'cross-section:hilb_p2_nef:csv': '33048cf3f78756e532754f40376607ba9dff9cf9f6c3bdef2abfd521b70c0f80',
    'cross-section:hilb_p2_nef:json': '5d85b57f1a015da56675e5b398adb6dcbcdb88b0b49f576b181e8485e69839a6',
    'cross-section:nef_f0_nested:svg': '36d133a7e80e297cc01c07f304268da9ea9c1948b06f5ff27d1ea3e92253bd57',
    'cross-section:nef_f0_nested:tikz': 'f236d89dadfb313e69070eed9d0ba4270dddf270bbafc4d869d1dab7d7fe9988',
    'cross-section:nef_f0_nested:csv': 'b90e8a721528087af9764223ca419040710565880e042dc1087c478d18d513ae',
    'cross-section:nef_f0_nested:json': 'fc30587c8c72fe3bc769106614de614efcde6fb07c718da3452cedef97e1a956',
    'cross-section:nef_f0_univ:svg': '80bb32b659967df32ea83c71f19d0ef48b0b584411f586bc65462021dcab4265',
    'cross-section:nef_f0_univ:tikz': '1fd2c10424fcb2acd8a4dd765933d42ea87c46b2d182cf3a9ac93a21ffe1cc52',
    'cross-section:nef_f0_univ:csv': '07a9acdba1bffa994e7a356c0b69e90b3538efbfb65b6aa9dc89bd8959a6d6a3',
    'cross-section:nef_f0_univ:json': '72a0336a2e9bc7450b6561b67cd41670b47b6522f723e02e6289a21b147f1d63',
    'cross-section:nef_fi_nested:svg': '1e8e6929603641b1dc3d42fa3f86f930e4dd158dbdd1466a4e1a154c54abf283',
    'cross-section:nef_fi_nested:tikz': 'e888979901ca2f4b587b87ddf9b2b4b9b8a4fb9e3dab56d0ddaf777120acb28d',
    'cross-section:nef_fi_nested:csv': '67cba3ed5269b72c3151d59187967c0e54a700f7903a8010e501df329f3df779',
    'cross-section:nef_fi_nested:json': '88de6a5468a4e85a01e3a110ca40eadec7abc2dcd59c7bba4bf0277f9bc2bb16',
    'cross-section:nef_fi_univ:svg': '7ea3ada0902ae9a4514d37df6a59edd6cf1c2937afd19bd396d1872ae6b99062',
    'cross-section:nef_fi_univ:tikz': 'aaa941f870e7bc647e1c4a77e843b55f525bec4381d9584faede219cfe47ab81',
    'cross-section:nef_fi_univ:csv': '3a4e948e4cae2e09c1aaa63b1d3f9b465faf0a36bc9a7b4fc2048fd182c67cf6',
    'cross-section:nef_fi_univ:json': 'c8b3cc8c48e6ae19760024b7f76f4ebadf375bbc30250dfa7c796afe1cc85b09',
    'cross-section:nef_k3_nested:svg': 'be6e78dba961caa0e50292f1b50d9f0bee430e4945c220510bafb7e51f3e5267',
    'cross-section:nef_k3_nested:tikz': 'a7fabcbdd2204ab1792df32d3caeec4a314e29be09205420a513643ee85bd292',
    'cross-section:nef_k3_nested:csv': '40a9a767d2cad00e0b320bab7b09edcbe7d86f8a9f9e61689e3bb7636105c3a4',
    'cross-section:nef_k3_nested:json': 'e46a8ab18f61b4df195cc36d66e8a3075fd3d0c186afe953f6d5282c8e569e53',
    'cross-section:nef_k3_univ:svg': 'b0d3b164c38d5c4838d525d9102d542ab07d329d342309452fda29809382fb14',
    'cross-section:nef_k3_univ:tikz': 'abca73b4919f0f0d5e09bbf441da6d4f4817b6dff34360d8e448ed388284dea1',
    'cross-section:nef_k3_univ:csv': 'ba9139e0731aa57030d5d8962432b3a37a8c743779418ad4ab8b5e41a237a762',
    'cross-section:nef_k3_univ:json': '8b258b01072b2087467273c897c6e76ebdd27a04f3d52f9416e850320640efa0',
    'cross-section:nef_p2_nested:svg': 'f3495d5284614a97d0c4640805ae9cd77cbb5a1492b28d275a05ca2315d41d51',
    'cross-section:nef_p2_nested:tikz': '0e85efd082298ac9d9039f59aa38a4be1a1d7c016522ed146f111b9fbcad2190',
    'cross-section:nef_p2_nested:csv': '562d14043b919335122eaedda5fbcd42b7e7c3f5aaaaed5cf8455327420ac3c3',
    'cross-section:nef_p2_nested:json': 'f6744ccc02af2948295a0f8efe6d7276fd2d852c839e35be09a2760dfee6bf8a',
    'cross-section:nef_p2_univ:svg': '84d4258cd7c8b06749736586fe992177eda67bc32151e52b7ad0a4d4963f4a41',
    'cross-section:nef_p2_univ:tikz': 'e2f9c8ea97c56df97e5ac5fd0de4fb103751793b5f7d49ef0fe95a30027c1647',
    'cross-section:nef_p2_univ:csv': '18ea1057beadd0e204bfaaa661ab05c6d957de58cfae9ae01a6a9fee5e9bfa87',
    'cross-section:nef_p2_univ:json': 'f97f49ba7793d0738faa378e49945d14564a1c927acd184200b96ae91d650a8d',
    'cross-section:eff_p2_2_1:svg': 'b588dc13d99fa548741780e1312fa2e84672e7c68466154576efd82895c73b49',
    'cross-section:eff_p2_2_1:tikz': 'e45a3383542710e5113fb7fc11544246fbaf8fb6deb0b9e260abe411d6c768f6',
    'cross-section:eff_p2_2_1:csv': '391ccfc80e6bd3c80e67b5d4557ff01b003644040cac85fc4f8fff9b0f9f944d',
    'cross-section:eff_p2_2_1:json': 'b969eab28960ba314681da253ff3489908f44c1751083acbb13511870e0a8731',
    'cross-section:eff_p2_3_2:svg': 'f9611bd155459e7cd8c2a31b4e70812251c7f93e9131028e518124da816e2152',
    'cross-section:eff_p2_3_2:tikz': 'c029f3c3884fb50a5329ebaba866ef4678499564edf872c44b1b189cee439326',
    'cross-section:eff_p2_3_2:csv': '4fccb04afce38cae43164845f393e79580762adf293c678fd03e5b5379774835',
    'cross-section:eff_p2_3_2:json': '9c8fc295c428cc95e7f86b7f54874731541582840159e6560aa096b799f71a62',
    'pair --surface p2 --space nested --n 3 A^b B^b/2': 'ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28',
    'table --table pairing_p2_nested --n 4 --format csv': 'bf0b17ad3a85be12adfaa86e01aa3cb4e910c8e14fd9140b6a0d5296e71b4c40',
    'nef --table nef_k3_nested --g 4 --n 6': '078ca04897418dcd70f73b8fb22d3db742cd8942c2ed561478d5e98782bab6e6',
    'eff --table eff_p2_3_2 --format json': '4d401135cbda92939ccb648085e7dfc16b4d08acaf393f42962f65d1fe0257cd',
    'verify --all': 'cafe872da63365edc3afa5a9cbfd08c73aa602283674e62d223f2096dbb5929a',
    'cross-section --table eff_p2_2_1 --format tikz': 'e45a3383542710e5113fb7fc11544246fbaf8fb6deb0b9e260abe411d6c768f6',
    'cross-section --table nef_p2_nested --n 3 --format svg': 'f3495d5284614a97d0c4640805ae9cd77cbb5a1492b28d275a05ca2315d41d51',
    'butler --i 1 --a 1 --b 1 --n 4 --k-max 5': 'd3e084b87c973d0887b93fdaf321fffcda7e746dae3e904454c83856bda46756',
    'asymptotic --k-max 30 --format json': '78202d905d53d4acd15472ba86ca64a6b949e4a3d2f94e27b987d8f5cfa028c8',
    'cross-section --table nef_p2_nested --n 3 --format svg --out': 'f3495d5284614a97d0c4640805ae9cd77cbb5a1492b28d275a05ca2315d41d51',
}


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("NESTCONE_NO_COLOR", "1")


@pytest.mark.parametrize(
    "digests",
    [table_digests, certificate_digests, cross_section_digests, readme_digests],
    ids=["tables", "certificates", "cross_sections", "readme"],
)
def test_golden_digests(digests):
    got = digests()
    assert got == {k: GOLDEN.get(k) for k in got}


def test_readme_cross_section_out_file(tmp_path):
    path = tmp_path / "nef.svg"
    argv = ("cross-section", "--table", "nef_p2_nested", "--n", "3", "--format", "svg")
    assert _cli(*argv, "--out", str(path)) == ""
    assert _sha(path.read_text(encoding="utf-8")) == GOLDEN[" ".join([*argv, "--out"])]
