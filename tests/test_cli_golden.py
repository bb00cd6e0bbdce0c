"""Golden digests of the command-line contract.

Each command runs through ``cli.main`` in-process, in a fresh directory,
and is reduced to one sha256 of its argv, exit code, stdout, stderr and
every file it wrote there.  A change to any byte of that output, an error
text or an exit code fails the command's test.  ``{tmp}`` in an argv is
the command's directory and ``{long}`` a length-65 permutation; both are
hashed as written, so the digests do not depend on where the tests run.
"""
import contextlib
import hashlib
import io
import json
import shlex

import pytest

from permobius.cli import main

LONG = " ".join(map(str, range(1, 66)))

PERMS = [
    "1", "12", "21", "132", "2413", "3142", "2143", "21354", "25314", "214635",
    "215463", "1342756", "367249815", "1 3 2", "4,1,3,2", "", "11", "1 2 x", "{long}",
]

MU_PAIRS = [
    ("1", "2413"), ("12", "2413"), ("21", "2413"), ("132", "21354"), ("2413", "2413"),
    ("1", "367249815"), ("213", "2143"), ("12", "123456"), ("321", "1234"),
    ("", "2413"), ("1", ""), ("1", "1 2 x"),
]

COMMANDS = (
    [["pmu", p] for p in PERMS]
    + [["zero", p] for p in PERMS]
    + [["downset", "--count", p] for p in PERMS]
    + [["mu", s, p] for s, p in MU_PAIRS]
    + [
        ["census", "--n", str(n), "--format", f]
        for n in range(1, 8)
        for f in ("csv", "json", "text")
    ]
    + [
        ["census", "--n", "6", "--workers", "2"],
        ["census", "--n", "0"],
        ["census", "--n", "5", "--audit", "{tmp}/audit.tsv"],
        ["census", "--n", "4", "--checkpoint", "{tmp}/f", "--audit", "{tmp}/f"],
        ["table", "--nmax", "7"],
        ["verify", "--nmax", "1"],
        ["verify", "--nmax", "7"],
        ["verify", "--nmax", "5", "--json"],
        ["verify", "--nmax", "4", "--suite", "nope"],
    ]
)


def command_digest(argv, tmp_path):
    """sha256 of (argv, exit code, stdout, stderr, files written in tmp_path)."""
    expanded = [a.replace("{tmp}", str(tmp_path)).replace("{long}", LONG) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(expanded)
    files = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())}
    record = [argv, code, out.getvalue(), err.getvalue(), files]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


GOLDEN = {
    "pmu 1": "3232454f677df46b29cb4b2a195f33f0aefe4383b6be1389e17c7bb3a08dd0be",
    "pmu 12": "f2d10bd2ddc4eb48c36945716c30b9f1dfbed4ed57da2b05f33236e75f79558b",
    "pmu 21": "4661217831ba9aa40483faefa42905cf90053ac43193269fe14283440db5dc0d",
    "pmu 132": "8356761887d5949bca35060c03eba507d4f08e9572305c7cfc607ce98d0e6017",
    "pmu 2413": "6fd9de81fec7cf0419af5b0a443c6d82495d3d98b226da841bb9156da564d692",
    "pmu 3142": "9a10d02d3a6465be9a2b77c4bdb7624f21f01228c2e4215ebe46b33bf6708667",
    "pmu 2143": "40b034ce12a89db33d8fde9fe4fb41019fb9b9c266d9c06646cf9d6915c8dc39",
    "pmu 21354": "9f02acf183401f4357b6852d71a48ffd18cc6c3d03375014e89f7c14b3015fd3",
    "pmu 25314": "7332385d5f82b0ad5ff92077b2901acef709d3f22065d65f5d9e394bc7408e03",
    "pmu 214635": "685b842edba555dbd5d8f8a9ec0a566fa7e70b6e92fd7d22c55dd21dd12eec67",
    "pmu 215463": "2f442f318b91581d3a71c6735d7f79d9ff82ba7adc8ba34c2672af9cb05cf87e",
    "pmu 1342756": "98f533de08775b3d0f2a7338cefd9696f026d94736b669abb6d9326443da63ab",
    "pmu 367249815": "e7617a09592306156cb8e0154b5e103cb702fa6d19de3a8299baefce77243ce7",
    "pmu '1 3 2'": "25a5c3f556992ee482c36ea5563500b95f453a2cac27384f3acf46b708fb0e4d",
    "pmu 4,1,3,2": "d4cd524a95b6dc75259177521ff438474ac4a2e22b2dd5b10952071ec11fb3e5",
    "pmu ''": "71a0661adfca5319b6b5ac6730b75dacb9a6e33531edf738930ee8c5d7301a1d",
    "pmu 11": "3435517f4a5c47dc634331b42be8ee2d00853a005046a8dd28c46a6ffcbc7925",
    "pmu '1 2 x'": "69b3288e6667ed75a0f2dc7d444db8ef834338e17b7716a003dade719766ba0a",
    "pmu '{long}'": "67602eee90771928787993c26c0b69748d8f5098ea1c0a4838206eff63131cab",
    "zero 1": "1ed9d5550467643d3a5b86258847c7fd64d3c83e5520d70328cf3d0add25644c",
    "zero 12": "6e3eaba9293a89080e13e99b19f0e77d869fa516e4fb9517b3006db39c754d35",
    "zero 21": "98b6e61f351a6608639e5f4b5bd3da60f937451348f17d8a09a6a8711e0ed6fc",
    "zero 132": "932ebc7993db3fd90ea0b1e36e8b8e7be04b2479e180e07b9a1e9c4a0fb2c616",
    "zero 2413": "28ffbf10744656e9a35557446415c28ce397823438bf3a913ef55f5c10ad9960",
    "zero 3142": "5376d7f90e056ed5b75fe0a3fd3a8c463af292eb273cab1b682f558767a921ad",
    "zero 2143": "2f0bfe8621075a2f05d176601d6a61ae68ea7d21dbada25e9e386db99bb62928",
    "zero 21354": "3341c53702a9fa6ae9791aefeb046c015aec961291065a2f8acfe97057086193",
    "zero 25314": "05367157414e97f65eb457d15ad27551e3d32f33914e4ae84a4830b21a26069c",
    "zero 214635": "d869e1daaec33571b0de106ff234b3071b9f78b642d5bd1a714e3fac52950133",
    "zero 215463": "e73c14bbb32a83a8cf0f737c77dd91150acbf38262bc49c187c46c1bd31884ea",
    "zero 1342756": "aa4fb912518917b9630ca82a3f5fcdbff194c357a3fbb55c85e798796801d324",
    "zero 367249815": "be04b6ad058c0201189aa5c443268f1bdbb96f679ae0db3410ed26bb1012039e",
    "zero '1 3 2'": "3808e3b65b76834de03f49eb8d5a735825ae5dfa37a19539174655b62cc20e7c",
    "zero 4,1,3,2": "d09ce932b119a52568e40d3fabacabe13336dd64ac6a187b9953db8572ff7fb3",
    "zero ''": "306fc6f1fe1f590fe63d1da4d8d96a6e191e3a1571b90010c01b5d4de5c20594",
    "zero 11": "0156249b5fc2777f512d10fcdfd4b76501fa61e2a33e2741fa52d90e1c81b248",
    "zero '1 2 x'": "adcd1a9cf28ddd1716c6ae2d01fd3bd8fc53264144cc49df09cda7894242fc16",
    "zero '{long}'": "90345a9f566f3adf7b92b361358a3b166ea47f687fa0d5ed5ca1d70c25d8efe1",
    "downset --count 1": "6c24e51255dd971573db410ca420c648b72260481aefdcddaebcaa794f5b26ae",
    "downset --count 12": "f63ed11bf48af817643c57cae0f16510cf3d4ea4a193dbc2cd6a97579c136d93",
    "downset --count 21": "d61d4f35df166cffcea850420eaf26017391d249eafb49a2671921abc2c36a4e",
    "downset --count 132": "1cb074b23950b18aa527ef7f22c7c3ad53cbabe0975991c94e36102265948825",
    "downset --count 2413": "179c7c6154834a1ff960dd9f29250c5754c05ce4d3240c8acd6fb88ffbc6a8df",
    "downset --count 3142": "61962009511ea36ff2ee0d8f4172fd5ec3ba65a1b6d7c65d4f2e42074ba0ed83",
    "downset --count 2143": "8aac7bb84ef918c74126ad4f3acbc46e9d6dc1551556c0908b4c6a627337811b",
    "downset --count 21354": "7805fc95e7da1944c27345fb68e8a2ef3fd8aa55a50929be5b0df33ec28c7d25",
    "downset --count 25314": "4364a094339e3a23fdcd84096d8258e4d53587c78d94af51e70adc7497772974",
    "downset --count 214635": "11a1f81958b11f601beb080399a5bd477e6155fd1e7babb3dc45a821eedc021e",
    "downset --count 215463": "821fc2df2cfcaeeef7e777f6f59f5a4454cadc6f37b83f5cb09cd392679677d1",
    "downset --count 1342756": "34426e33ae8e8f00130415aa302fc378b1edae33d44855b5bc07492db01540ab",
    "downset --count 367249815": "7ee6d8c68044bb4e82c8646e1fa7302e99ea753625ae9360687af5f849f5faa3",
    "downset --count '1 3 2'": "51c1a6c4a3fbe52ecde1f8a6d3e9ea74edd30acb831c7c5494b907611e132a43",
    "downset --count 4,1,3,2": "2567cfbc57c6de29ff4ce54dc30f2b4e9a35bf9bdaac8bb2fc72bf42e7f7354e",
    "downset --count ''": "abfe3aae124794ef56eb88a60527147d5c8c449568baac2b2c84400ad0bd4b69",
    "downset --count 11": "c10c39ba92a562bb23b61c0304920faee5392da164a3dd5984fe72f0ea1c4ca6",
    "downset --count '1 2 x'": "51bd28928f0503548ba36a162f03250e8d09bdea4d7fc4ee00fa99f9f5e7fa67",
    "downset --count '{long}'": "9e5b56196f594045c38e879e2cee64482b6231fcbd0b368995cb8bd75480b524",
    "mu 1 2413": "e13d6984ef5c13e37d631e28dbeb6bbee8a40e64ad7cf32d77e8b133a09c0aaa",
    "mu 12 2413": "99aa54cf9cab89c4870d141a4c7c03c4dcafa6e8ddcdf47a9bf18dba96a649e4",
    "mu 21 2413": "d1494911c805619a092652c0f1ba7f1e3721d9db736be3b282878425027bb939",
    "mu 132 21354": "9fa861dc4e7fc1524ea4291241ac37f998b701495b4489d7b2b33a0a021f850c",
    "mu 2413 2413": "04ea89a18940951a0d4e036145911715381b1e058bcc510c67f7a8261eac0d1b",
    "mu 1 367249815": "62ee275c2b4507482e511e6aa77d876c2ce21e6d8f21f4d5761c34df87460585",
    "mu 213 2143": "1986f6ae1ecb0bb9ccf4fef989f2babc0b76bde7b6628e8fb85f1bd8babfff5f",
    "mu 12 123456": "4cd7c37fb279feda38fb6a00e144282400a44af90a4bf6f6f61752998cd13997",
    "mu 321 1234": "8979339d0d6ef39a0941e2d0c1439b2fe582a5e3572f26210cb56da12a34ee29",
    "mu '' 2413": "04e1ee4d89995dc91479bbb9567c2d2c00ffd25e4423bad61efa548783d3cf3f",
    "mu 1 ''": "35806937a2418a1f67a053eeac263903898a19a523fbc92bd55e220c440cb4f0",
    "mu 1 '1 2 x'": "ce3820b5178152b787f347b1e990922d9c91c21f6aa08a62535524ac88de84eb",
    "census --n 1 --format csv": "f22440b0663f2b3e9dc1683e0276dd379991eab3a53688af9f45d8a243f995c1",
    "census --n 1 --format json": "c7cf7a186af2afe32818ee590bdfb06bfc95128e869ccd6f344ac34de6b3ee73",
    "census --n 1 --format text": "4cf9b2864ad8b4310062f3f5ba18c5f36e31e6364e3b326ba9cc497162ddfc08",
    "census --n 2 --format csv": "4934c7086871c73dd72eb982dba0aa0f22831690fbf19252c92f3c7d6af6963f",
    "census --n 2 --format json": "286fcbd670a41e0f6e77fd4b944aeb041758fe14836f74ea560879232712b4b9",
    "census --n 2 --format text": "c8545c28929706880deffe844c2c64538cda0f9fa6a72d47b092e1d8dcfc5fa5",
    "census --n 3 --format csv": "98191899b037e1b9adb5cee3aa691fbad3036eb5e01259fd8736b85e28b3d92a",
    "census --n 3 --format json": "a416aaf103690fecf25911ae16cbfd26656d91c3da11557ec55da711fa5ea0b8",
    "census --n 3 --format text": "a4fc6d9520bcf923ec0f41c1a680c82f53f313a023b56e4d99f7c7d4fdb38256",
    "census --n 4 --format csv": "eb449f15ac6a306a3ba4330e6637f77d74cf31082d9bc920b03afbf9c933d110",
    "census --n 4 --format json": "63dbd70ca3ef52a27490b4236e01a5c3e43a82874e544952995c360f312cd562",
    "census --n 4 --format text": "071c7c5e14addb4d951dcb5449cd9dab8e50402aa1310f6ed3cb872b6ee698b9",
    "census --n 5 --format csv": "17fb39a40f6d5473d22045d3eaa673e554455b2d20ebeb2d246b1dc8c145e336",
    "census --n 5 --format json": "ea9e4f434895283f1c5361f480a94838885cc4117eefd1d9f9b6d0083f3d083b",
    "census --n 5 --format text": "4e0420e56b92728702a5f27912e62d07f294a114c00f1595d4a2ba3507cc20a9",
    "census --n 6 --format csv": "244effb21d68bb50f9c7dcc07ec71119ba4ca93e8cb1a2003819fb098f01027a",
    "census --n 6 --format json": "b8152a77fca4aecc69e7893768be2f93bce8ae210b4387015cfb6d975549f4bd",
    "census --n 6 --format text": "8c2a73212fe9d71415cf0ed5493d4a763dba652b029bd0e39e7da3530a61e5ed",
    "census --n 7 --format csv": "908a8f81e4ea73996f8946ebe5d6eead8ce236f073956b4d4456c43c7da34331",
    "census --n 7 --format json": "130241f45ff37635e2077957a600d59607042df6a5620c8c58d8d89e371f9815",
    "census --n 7 --format text": "c3dd3efcd143f4b92819c4a1ae37c1da6fc6cf4830ff72e2ea7c3848a304c1ff",
    "census --n 6 --workers 2": "37de54ef306625158ef22582597be53384ee5877753b6cc0a760f72333382f5a",
    "census --n 0": "d9513784b6c897c6a0ef936fbd721581584bb7677ca62a140b56b29afe109ee2",
    "census --n 5 --audit '{tmp}/audit.tsv'": "83e421f78862aa4c652e7ce60353c9d4e3301b2d9fc5b46d8a1b9b50ca23a252",
    "census --n 4 --checkpoint '{tmp}/f' --audit '{tmp}/f'": "5dcacc825f96a465e8fa6b2c8a2fef0aa9ef4e753c9dbf8d1eff7fe93db9dce1",
    "table --nmax 7": "baed1fd3f92f7e51c5c56c19ebd28131bf867d64bfb9aead45b6e79f955f22e4",
    "verify --nmax 1": "de727bd8469fabf763ca6296a7bbfcd1b6bb673a2d78ba7a496cf9e9ceaa5dfd",
    "verify --nmax 7": "a520ab98f5df0d8e28ceda5cfc7dcf2210baee96af7b16261dd2da9e90d13681",
    "verify --nmax 5 --json": "95b59162f23c3a80eb6b1685e4420c898675816bce12f25c823abc50141055e8",
    "verify --nmax 4 --suite nope": "b9879ebf627cbec56e81df3711891b70bb43631e978435c7d4b6373107f9a320",
}


def test_every_command_has_a_digest():
    assert sorted(GOLDEN) == sorted(map(shlex.join, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_command_output_is_unchanged(argv, tmp_path):
    assert command_digest(argv, tmp_path) == GOLDEN[shlex.join(argv)]
