"""Golden-output fixture: SHA-256 digests of every catalog report, every
certificate, every cross-section rendering, the stdout of the README's CLI
examples, the lattice layer (pairing tables, bases, pull and push maps,
curve families) over a grid of surfaces and spaces, and the `--help` of
the program and of each command.  A refactor must leave
every digest unchanged.

Table CSV is digested only through the README example, whose rows hold no
comma and so are the same with or without CSV quoting."""

import contextlib
import hashlib
import io

import pytest

import nestcone as nc
from nestcone import cli
from nestcone.cli import main
from nestcone.errors import NestconeError

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


def table_text_digests() -> dict[str, str]:
    """The text of `table --table T`, at the defaults and at NON_DEFAULT."""
    out = {}
    for tid in sorted(nc.CATALOG):
        for params in ({}, NON_DEFAULT.get(tid)):
            if params is not None:
                flags = [x for k, v in sorted(params.items()) for x in (f"--{k}", str(v))]
                out[_key("table-text", tid, params=params)] = _sha(_cli("table", "--table", tid, *flags))
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


def help_digests() -> dict[str, str]:
    return {
        _key("help", *argv): _sha(_cli(*argv, "--help"))
        for argv in ((), *((cmd,) for cmd in sorted(cli.COMMANDS)))
    }


LATTICE_SURFACES = (nc.p2(), nc.p1xp1(), nc.hirzebruch(2), nc.k3(4))
LATTICE_SPACES = (
    nc.surface_space(),
    *(nc.hilb(n) for n in (2, 3, 5)),
    *(nc.nested(n) for n in (1, 2, 3, 5)),
    *(nc.univ(n) for n in (2, 3, 5)),
)


def _outcome(fn, *args) -> str:
    """A class's JSON, or the name of the library error the call raised."""
    try:
        return fn(*args).json_str()
    except NestconeError as e:
        return type(e).__name__


def _lattice_lines(s, sp) -> list[str]:
    lines = [
        _sha(nc.pairing_table(s, sp).to_csv()),
        str(nc.divisor_rank(s, sp)),
        str(nc.curve_rank(s, sp)),
        ",".join(nc.divisor_labels(s, sp)),
        ",".join(nc.curve_labels(s, sp)),
    ]
    # Every pull into sp from every space it could come from: the surface
    # and the Hilbert schemes of n and n+1 points.
    sources = [nc.surface_space()]
    if sp.n is not None:
        sources += [nc.hilb(m) for m in (sp.n, sp.n + 1) if m >= 2]
    for src in sources:
        for lab in nc.divisor_labels(s, src):
            d = nc.divisor(s, src, lab)
            for pull in (nc.pull_a, nc.pull_b, nc.pull_res):
                lines.append(f"{pull.__name__} {src} {lab}: {_outcome(pull, d, sp)}")
    for lab in nc.curve_labels(s, sp):
        c = nc.curve(s, sp, lab)
        for push in (nc.pushforward_a, nc.pushforward_b):
            lines.append(f"{push.__name__} {lab}: {_outcome(push, c)}")
    units = [tuple(int(i == j) for j in range(s.rank)) for i in range(s.rank)]
    families = (nc.curve_family_a, nc.curve_family_b, nc.curve_family_a_alt, nc.curve_family_b_alt)
    for family in families:
        for gamma in units:
            for r in (1, 2):
                lines.append(f"{family.__name__} {gamma} {r}: {_outcome(family, s, sp, gamma, r)}")
    for named in (nc.tautological_a, nc.tautological_b):
        for m in units:
            lines.append(f"{named.__name__} {m}: {_outcome(named, s, sp, m)}")
    for named in (nc.exceptional_class, nc.canonical_class):
        lines.append(f"{named.__name__}: {_outcome(named, s, sp)}")
    return lines


def lattice_digests() -> dict[str, str]:
    return {
        _key("lattice", s.key, str(sp)): _sha("\n".join(_lattice_lines(s, sp)))
        for s in LATTICE_SURFACES
        for sp in LATTICE_SPACES
    }


# Digests taken on the code before the catalog was turned into data; the
# lattice ones before the basis layout became one table.  The cross-section
# CSV digests of the tables with a comma in a vertex label (eff_p2_*,
# nef_f0_*, nef_fi_*) are those of the quoted CSV.
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
    # Taken before the catalog entries carried their kind.
    'table-text:eff_p2_2_1': '428154f0eb8773da96d67dcdd230a1955202ac1d55114bcc396e3ba4f7f2dc33',
    'table-text:eff_p2_3_2': '8232fe7b349616f35a5400ed69e1e378f342f66e775c2229ba2d8f6a1440548e',
    'table-text:eff_summary': '7174a97503f86795fb6b60af101d4e0597244ad14d724dd867cb1dd872423ab2',
    'table-text:hilb_p2_nef': '8459a5d2fc4a4864547ebc754f8d4634595fdeb41ffa11ad24f9f5bca825ba0b',
    'table-text:hilb_p2_nef:n=7': 'e8f22231747d4151de255a4c0ca4cfad223133d0ac7e252d231bc77af1877352',
    'table-text:k3_g1n': '1a21e369f08c8c4f6c6d110e89d97564fc91235dbb95469cd2121e5ec1455043',
    'table-text:k3_g1n:g=5:n=8': 'c97e6ebe4496d49986e124982ae44c4ecf0f30c74eaeac3ca4ca1fd5055d7b21',
    'table-text:nef_f0_nested': '627beff3cbdc2a4d1f498f8bea59daae6804878e51b246e9c8edb7036a6ab8d9',
    'table-text:nef_f0_nested:n=7': '6b02793ed916c80cff468cdc599337aec1d8e789087fdc1dbaff0b97fc57850f',
    'table-text:nef_f0_univ': '50e34365d903ef6318532751cb8920eabc1d054f5e0ac14977c36e2c63bc7589',
    'table-text:nef_f0_univ:n=7': '6b3d1573c5a13c886683a63739adb8fcd09f4aaa47e6712f8fb693b7a4f19375',
    'table-text:nef_fi_nested': 'd9fcc3ffbd7c96b5cb778a9063049a402324455396aaadb9e9e689fb944f8965',
    'table-text:nef_fi_nested:i=3:n=7': '7f70bba4ef57440991351f9bc8ef6299791e2616638552ccc6ba3d2ba47b3566',
    'table-text:nef_fi_univ': '6ea66c816bffd1af66ffe67a1760e9c94a746a0931ec537ae548f2838b14e1c9',
    'table-text:nef_fi_univ:i=3:n=7': '551d79449954fe3bb61431532110467c680080993c2d51bf56849f6f7f855045',
    'table-text:nef_k3_nested': 'c1704f911c2666aeb1b3986c8f4942ab5afa19ef6e2fc056c41c52542fe37400',
    'table-text:nef_k3_nested:g=5:n=8': 'c338924ac3cfb458431e8aceed4ad9aabb3fcfbefdacb12a2d9c720501742184',
    'table-text:nef_k3_univ': '049ed82b7b32f077c549048f41f23f91e21095ac588c6f9804dcd5cfe639bc00',
    'table-text:nef_k3_univ:g=5:n=8': 'b0041603576450852c6bb1d4b20ccefbd051e7e0b20a55b55ed9c0686266c1ef',
    'table-text:nef_p2_nested': '0d8de86a03235d9e3cdda150c1370ed77519a2f5e4e31f46ff40dc87ccfd5809',
    'table-text:nef_p2_nested:n=7': 'aff52f39a72eb08478e25d4680c4a6157e6e2bb6048d43e3281b593966b469fa',
    'table-text:nef_p2_univ': 'a8c20695384f90c1c2aaecedb2f5a5da38bd67170e980c731adeffde28c0cd72',
    'table-text:nef_p2_univ:n=7': '0bb8ad8d6b3febd8e2e4c315d0ec7c011ba6902636eb4bb61699ca364f7f7a53',
    'table-text:pairing_p2_hilb': '5c6c66eddb0dcc6f2cf5684060cb12d45792f7c67851de5a7c711d87b7ebfa9e',
    'table-text:pairing_p2_hilb:n=7': '749d66c8aa8d046bf0fe2e01bdd1a0de3ecd5d0fe4f74af794c16da3e4e03c9f',
    'table-text:pairing_p2_nested': '87d77605ed27df45e9c88f4a33b4ccd671c0936b206c2ba0d46b319b1136ffc6',
    'table-text:pairing_p2_nested:n=7': '3ef5bf8b112262236d9662e6f27508bd789d29af672252dc70a80ed7c12126f9',
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
    'cross-section:nef_f0_nested:csv': '370bfdee2b4476eeaa383d99a687356313b3e8ba6eb4ac9948ecdcbbdcd1da41',
    'cross-section:nef_f0_nested:json': 'fc30587c8c72fe3bc769106614de614efcde6fb07c718da3452cedef97e1a956',
    'cross-section:nef_f0_univ:svg': '80bb32b659967df32ea83c71f19d0ef48b0b584411f586bc65462021dcab4265',
    'cross-section:nef_f0_univ:tikz': '1fd2c10424fcb2acd8a4dd765933d42ea87c46b2d182cf3a9ac93a21ffe1cc52',
    'cross-section:nef_f0_univ:csv': '4d58cd8d723c71d072ffb9c7f2ac48dc814e326952c0f781a7bfdda8585f6886',
    'cross-section:nef_f0_univ:json': '72a0336a2e9bc7450b6561b67cd41670b47b6522f723e02e6289a21b147f1d63',
    'cross-section:nef_fi_nested:svg': '1e8e6929603641b1dc3d42fa3f86f930e4dd158dbdd1466a4e1a154c54abf283',
    'cross-section:nef_fi_nested:tikz': 'e888979901ca2f4b587b87ddf9b2b4b9b8a4fb9e3dab56d0ddaf777120acb28d',
    'cross-section:nef_fi_nested:csv': '7c999ea318c0f22549abf3c23a57cd12806a8a0971302d2d42932fb8ab5fc87f',
    'cross-section:nef_fi_nested:json': '88de6a5468a4e85a01e3a110ca40eadec7abc2dcd59c7bba4bf0277f9bc2bb16',
    'cross-section:nef_fi_univ:svg': '7ea3ada0902ae9a4514d37df6a59edd6cf1c2937afd19bd396d1872ae6b99062',
    'cross-section:nef_fi_univ:tikz': 'aaa941f870e7bc647e1c4a77e843b55f525bec4381d9584faede219cfe47ab81',
    'cross-section:nef_fi_univ:csv': '3a1d9f607fefe76030130824e5280d095a2971582b944fd9a3935032bf2e0a7e',
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
    'cross-section:eff_p2_2_1:csv': '6172485a9968fdf8d667a985ddac04d9b7262d67af11cb8a981341e75210dff5',
    'cross-section:eff_p2_2_1:json': 'b969eab28960ba314681da253ff3489908f44c1751083acbb13511870e0a8731',
    'cross-section:eff_p2_3_2:svg': 'f9611bd155459e7cd8c2a31b4e70812251c7f93e9131028e518124da816e2152',
    'cross-section:eff_p2_3_2:tikz': 'c029f3c3884fb50a5329ebaba866ef4678499564edf872c44b1b189cee439326',
    'cross-section:eff_p2_3_2:csv': 'e30e67dabe8d8edfb1d7c5bc3bb7064132fff6a1be8afad49c53e3617784f206',
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
    'lattice:p2:surface': '846762781ab1425d29178f054828ad36be1eaf3e0ea416540d3bacd48c81657c',
    'lattice:p2:hilb(2)': '2d82abe2614ad2ba93db0cc0f39fa026f514376b3f7a838aabc60d7fc2f89c85',
    'lattice:p2:hilb(3)': 'a00bc4e561a618ffd1979a78f1566cb0377f7fb6637d9ed5ced737ffc64eb9fe',
    'lattice:p2:hilb(5)': '67a996f616b479ecc080d32bf95f5bb9c42bb717054b6ef723c584e55aad2bca',
    'lattice:p2:nested(1)': 'e4449ebf24c390ab642355a69395b4b979c5d145e0d21ea1c61900e3ab05d98a',
    'lattice:p2:nested(2)': '7f59e432658ba1d8464e48648001d60232952f3f474bded354444053c2a6e96d',
    'lattice:p2:nested(3)': 'db44270177e0ac7a5ea9fe65c1ba5208b7e1e6d4872347a31d49ac35ec2f06bf',
    'lattice:p2:nested(5)': '1ad6f7a100825c10bcde7772e14fff31bc2d635706c84fd894582d89277074c1',
    'lattice:p2:univ(2)': 'c80d8042a2b8bca63817f26450a6bafb95dac708ce634524c35db181557796d2',
    'lattice:p2:univ(3)': '1883591dac528ebe447270fc66cdb6db6f628c4f75591c10690bfcfcaca7277b',
    'lattice:p2:univ(5)': 'a6efbed9cf1374209abd9c611a598802f3141c5d0de4876ed19421afc1738e74',
    'lattice:p1xp1:surface': '45c93d1a2ea7927e6583bda6357dbe25a730d7310cc55d7dbefc5266e5e097e6',
    'lattice:p1xp1:hilb(2)': '7b0c8934b691eea5dba8dab202c7123d1a9a7ee6e0251030d168864c99bca6c2',
    'lattice:p1xp1:hilb(3)': 'f6caca6653acbc83fc6581cf93a2c445152dd155104b4a834132b5133e2713bc',
    'lattice:p1xp1:hilb(5)': '68737379f89badc1505072e74664b248cead1d7d416ecdb67537ee497d9dbd59',
    'lattice:p1xp1:nested(1)': '1abe55b23553df9c7c7ab61527fc70241c85eb2f23c866c884e978482ffcaf32',
    'lattice:p1xp1:nested(2)': '5ee1da20584a9ff012f4148d0d0eca1b807776fb3348b688ac6c74957418745c',
    'lattice:p1xp1:nested(3)': '413679e4bf29712395b965dff32d1889dbb4232d4007e0cf1f268a39e870296e',
    'lattice:p1xp1:nested(5)': 'dc30971a728bcdf6b0bd7185aa6c0f12b84812111961d24c07dddf327c56cd21',
    'lattice:p1xp1:univ(2)': 'd3139569cf99d1a3bfb87dddcb59cefd1c112c349b4c4b8830fa184ccd8fdd6b',
    'lattice:p1xp1:univ(3)': '7729f1e18f55da2c46e4b2c153c9048b09c32106fa531a799715d5e6c6159265',
    'lattice:p1xp1:univ(5)': 'b5e3e5a9a258f6f270887cb1597f47d58916bc33629a7c8c4e09e7d555f7f0fd',
    'lattice:f2:surface': '0dd2536ec6b595fd8c0f2b9caf81e7d35491a91bcffbbbfd6b00b66669ae9a64',
    'lattice:f2:hilb(2)': '9715e846a61f3160d6c929fe03f4566a3baa6a897c2877b551707356a305f486',
    'lattice:f2:hilb(3)': '01e3e22dcdca5ca3455ddbe009ab9cb11e1fa4905d36ca8ac5828bec867f998e',
    'lattice:f2:hilb(5)': '8de3934a5f1880bd61c171878c224e35251de1aac2777c58ada703436d3070ab',
    'lattice:f2:nested(1)': 'fda86410ba48d5d9e12e25f3c1464c6ec62939b125c24feb946ec5d75338a2db',
    'lattice:f2:nested(2)': '8d2dc722f9f8972a4e1875e400d241746c9e06b7d0f8e38c96b1770786bf7144',
    'lattice:f2:nested(3)': '7354b21cc6504820958272139a667dc40f2f28fc80ac63b5e2115dd7bddbc8d5',
    'lattice:f2:nested(5)': 'a71c48f255e467a5a6a9a9679ca62c56b4df9d1f285d998bac49513800dd9b09',
    'lattice:f2:univ(2)': 'fbef92e361f49d1a125a16529cefe8e03d36c72c82d80415e0a3d33775704697',
    'lattice:f2:univ(3)': '5cb511d51ec4938197f3d5bfa31d143714347503f2212361c893fd3b0f2446dd',
    'lattice:f2:univ(5)': '9ff65a2a6c651e8075d225cc7c187d888fcee8c78fabcaab84e77081e65c0813',
    'lattice:k3-g4:surface': '5ecfe98c75d7be07359b3697fed6aefc53b44de90e5d4c89ee8c9e759ca14452',
    'lattice:k3-g4:hilb(2)': '898068cea2559c7bc07b93e4fc186fe79f5a8a4c365425d0dd500427e1ec7fc7',
    'lattice:k3-g4:hilb(3)': '06e918dfaa29f373042ef4ae2a2914c2228294a798cc6cb2d24fe96816616063',
    'lattice:k3-g4:hilb(5)': '1a3d5338f8a056d882264f2246d87f9cb00768781f979840e2e1fe5deca2de56',
    'lattice:k3-g4:nested(1)': '1a6f3501a4233bfb1da03dc41d9f4732cd4ec5e814058b547ce6bd26413c7158',
    'lattice:k3-g4:nested(2)': 'cd7b15115bf6d176ef66de90991bd45395b66177fa5ae6ada7e0fdcfc8c824f0',
    'lattice:k3-g4:nested(3)': '877f7ab7ef7d2326f4d6d04120ddbb3d362f31293a69ec8900e814377e3797c5',
    'lattice:k3-g4:nested(5)': '865dd40ddb94ed2f267413551ea7779d2c3a55aa28a73d5e65464321d569d41b',
    'lattice:k3-g4:univ(2)': '807bf23ad8ddb96f6e7b748ba43e130457da5e33abdf706661364f568717200d',
    'lattice:k3-g4:univ(3)': '93e9490437c7ac6d2f85efc2090e1648b4fa6a1939b3f7b09f45520a4e5c0d75',
    'lattice:k3-g4:univ(5)': '923877f11503dd66fb81deac0f6e3b019f00cb1b43ee05311f28aa0ea9651fea',
    # Taken before the commands shared one declaration of --n, --g and --i.
    'help': '36253e364adc930ba2431dcd8743bea611828b90afb8fa9b2d91e38f8069c88a',
    'help:asymptotic': '5e18b04d61df6903642d67873118e9eca6b8131b0ee6a2bacb00da099722cac8',
    'help:butler': '6367f7d239d73932b7063f6bd5cb8d0bf796fb5659aada96eda4318ad4212d62',
    'help:cross-section': '9540529cc4dc3e748e516848ebabbae38f5f89b30c53b5918a8f564c82d4c20a',
    'help:eff': '2fa89b884853273d72b9376d67a4cf4f845255c73103dee72a01e2c5c500f5e9',
    'help:nef': '912ca721177e9f25c260d97974584f7f5e9b50008cbfa636a727b7a6cec72558',
    'help:pair': '81cb0d9a144b3dda894b84f60e3edf79b620a3faa519b0ae4f0793d9c62ecf13',
    'help:table': '686c86e7d24217aec3ad17148ef2f43546260707f8a97104d0e0afefd3703bf3',
    'help:verify': '497e97338c731709749d5b5d664d45bdcfe39997e1ad4f804a0ca1a4e87de826',
}


@pytest.fixture(autouse=True)
def plain_terminal(monkeypatch):
    monkeypatch.setenv("NESTCONE_NO_COLOR", "1")
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal
    # --help otherwise names the program after how the tests were started.
    monkeypatch.setattr(cli, "_prog_name", lambda: "nestcone")


@pytest.mark.parametrize(
    "digests",
    [
        table_digests,
        table_text_digests,
        certificate_digests,
        cross_section_digests,
        readme_digests,
        lattice_digests,
        help_digests,
    ],
    ids=["tables", "table_text", "certificates", "cross_sections", "readme", "lattice", "help"],
)
def test_golden_digests(digests):
    got = digests()
    assert got == {k: GOLDEN.get(k) for k in got}


def test_readme_cross_section_out_file(tmp_path):
    path = tmp_path / "nef.svg"
    argv = ("cross-section", "--table", "nef_p2_nested", "--n", "3", "--format", "svg")
    assert _cli(*argv, "--out", str(path)) == ""
    assert _sha(path.read_text(encoding="utf-8")) == GOLDEN[" ".join([*argv, "--out"])]
