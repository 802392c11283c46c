"""Golden coefficient tables: the normal-specialized f and g suites, the
symbolic spot values, and the special normal-base laws."""

import contextlib
import hashlib
import io
import json

import pytest

from cfx import cli, engine, hbasis
from cfx.partitions import Partition

import golden_normal as gn
from _engine_routes import a_table, hermite_x_poly, normal_table, parse_partition

H = hbasis.H


def table(kind, r, basis="H"):
    pairs = normal_table(kind, r) if basis == "x" else dict(engine.coefficient_table(kind, r))
    return {pi.text(): val for pi, val in pairs.items()}


def test_f_suite_normal():
    for r, entries in gn.F_TABLE.items():
        got = table("f", r, basis="x")
        for key, want in entries.items():
            assert got[key] == want, f"f({key}) at r={r}"


def test_g_suite_normal():
    for r, entries in gn.G_TABLE.items():
        got = table("g", r, basis="x")
        for key, want in entries.items():
            assert got[key] == want, f"g({key}) at r={r}"


def test_f_normal_zero_laws():
    for r, keys in gn.F_ZEROS.items():
        got = table("f", r, basis="x")
        for key in keys:
            assert key not in got, f"f({key}) should vanish at the normal base"


def test_g_tables_complete():
    # the golden g map covers the engine's full table at every order
    for r, entries in gn.G_TABLE.items():
        got = table("g", r, basis="x")
        assert set(got) == set(entries), (r, set(got) ^ set(entries))


def test_f_falling_factorial_law():
    # f(1^j, k+1) = (-1)^j [k]_j H_{k-j} at the normal base
    from _engine_routes import falling_factorial
    for k in range(2, 7):
        for j in range(1, min(k, 4) + 1):
            pi = Partition({1: j, k + 1: 1})
            if pi.weight > 6:
                continue
            got = table("f", pi.weight, basis="x")
            want = hermite_x_poly(k - j) * ((-1) ** j * falling_factorial(k, j))
            if not want:
                assert pi.text() not in got, pi.text()
            else:
                assert got[pi.text()] == want, pi.text()


def test_f_two_powers_law():
    # f(2^j) = (-1)^{j-1} H_1 * (2j-1)!! at the normal base
    for j in range(2, 5):
        ddf = 1
        for t in range(1, 2 * j, 2):
            ddf *= t
        pi = Partition({2: j})
        got = table("f", pi.weight, basis="x")
        assert got[pi.text()] == (-1) ** (j - 1) * ddf * hermite_x_poly(1), j


def test_g_two_ladder_law():
    # g(2^i, k) = (-1)^i (k-1)(k+1)...(k+2i-3) H_{k-1} at the normal base
    def nu(k, i):
        out = 1
        v = k - 1
        for _ in range(i):
            out *= v
            v += 2
        return out
    for k in range(3, 7):
        for i in range(1, 4):
            pi = Partition({2: i, k: 1})
            if pi.weight > 6:
                continue
            got = table("g", pi.weight, basis="x")
            want = hermite_x_poly(k - 1) * ((-1) ** i * nu(k, i))
            assert got[pi.text()] == want, pi.text()


def test_symbolic_spot_suite():
    # exact symbolic-form equality for the core spot set
    f4 = dict(engine.coefficient_table("f", 4))
    g4 = dict(engine.coefficient_table("g", 4))
    f3 = dict(engine.coefficient_table("f", 3))
    g3 = dict(engine.coefficient_table("g", 3))
    f5 = dict(engine.coefficient_table("f", 5))
    g6 = dict(engine.coefficient_table("g", 6))

    assert f4[Partition.of(4, 4)] == H(7) - H(1) * H(3) ** 2
    assert g4[Partition.of(4, 4)] == H(7) - 2 * H(3) * H(4) + H(1) * H(3) ** 2
    assert f3[Partition.of(3, 4)] == H(6) - H(1) * H(2) * H(3)
    assert g3[Partition.of(3, 4)] == (H(6) - H(2) * H(4) - H(3) ** 2
                                      + H(1) * H(2) * H(3))
    assert g6[Partition.of(2, 2, 2)] == (
        H(5) - 3 * H(1) * H(4) - 3 * H(2) * H(3) + 6 * H(1) ** 2 * H(3)
        + 6 * H(1) * H(2) ** 2 - 10 * H(1) ** 3 * H(2) + 3 * H(1) ** 5)
    assert f5[Partition.of(1, 1, 1, 4)] == (
        H(6) - 3 * H(1) * H(5) - 3 * H(2) * H(4) + 6 * H(1) ** 2 * H(4)
        - H(3) ** 2 + 6 * H(1) * H(2) * H(3) - 6 * H(1) ** 3 * H(3))
    # leading five monomials of g(3^4)
    g34 = g4[Partition.of(3, 3, 3, 3)]
    assert g34.coefficient((11,)) == 1
    assert g34.coefficient((2, 9)) == -4
    assert g34.coefficient((3, 8)) == -4
    assert g34.coefficient((1, 2, 8)) == 4
    assert g34.coefficient((2, 2, 7)) == 6


def test_more_symbolic_h_forms():
    g2 = dict(engine.coefficient_table("g", 2))
    f2 = dict(engine.coefficient_table("f", 2))
    assert g2[Partition.of(3, 3)] == H(5) - 2 * H(2) * H(3) + H(1) * H(2) ** 2
    assert f2[Partition.of(3, 3)] == H(5) - H(1) * H(2) ** 2
    assert f2[Partition.of(1, 3)] == H(3) - H(1) * H(2)
    g3 = dict(engine.coefficient_table("g", 3))
    assert g3[Partition.of(2, 3)] == H(4) - H(1) * H(3) - H(2) ** 2 + H(1) ** 2 * H(2)
    assert g3[Partition.of(3, 3, 3)] == (
        H(8) - 3 * H(2) * H(6) - 3 * H(3) * H(5) + 3 * H(1) * H(2) * H(5)
        + 3 * H(2) ** 2 * H(4) + 6 * H(2) * H(3) ** 2
        - 9 * H(1) * H(2) ** 2 * H(3) - H(2) ** 4 + 3 * H(1) ** 2 * H(2) ** 3)
    f4 = dict(engine.coefficient_table("f", 4))
    assert f4[Partition.of(2, 4)] == H(5) - H(1) ** 2 * H(3)
    assert f4[Partition.of(2, 2)] == H(3) - H(1) ** 3
    assert f4[parse_partition("1^2 4")] == (H(5) - H(2) * H(3) - 2 * H(1) * H(4)
                                            + 2 * H(1) ** 2 * H(3))
    g5 = dict(engine.coefficient_table("g", 5))
    assert g5[Partition.of(4, 5)] == (H(8) - H(3) * H(5) - H(4) ** 2
                                      + H(1) * H(3) * H(4))
    f5 = dict(engine.coefficient_table("f", 5))
    assert f5[Partition.of(4, 5)] == H(8) - H(1) * H(3) * H(4)


def test_f35_and_g35():
    # weight of {3,5} is 4
    f4 = dict(engine.coefficient_table("f", 4))
    g4 = dict(engine.coefficient_table("g", 4))
    assert f4[Partition.of(3, 5)] == H(7) - H(1) * H(2) * H(4)
    # the full inverse-map value carries the H1H2H4 cross term (one widely
    # circulated short form drops it; the reversion oracle pins this one)
    assert g4[Partition.of(3, 5)] == (H(7) - H(3) * H(4) - H(2) * H(5)
                                      + H(1) * H(2) * H(4))


def test_a_basis_spot_values():
    a = hbasis.a_sym
    f3a = a_table("f", 3)
    assert f3a[Partition.of(1, 2)] == -a(2)
    assert f3a[Partition.of(1, 4)] == (-3 * a(1) ** 2 * a(2) + 3 * a(2) ** 2
                                       + 3 * a(1) * a(3) - a(4))
    f4a = a_table("f", 4)
    assert f4a[Partition.of(2, 2)] == -3 * a(1) * a(2) + a(3)
    assert f4a[parse_partition("1^2 2")] == a(3)
    assert f4a[Partition.of(2, 4)] == (-7 * a(1) ** 3 * a(2) + 15 * a(1) * a(2) ** 2
                                       + 9 * a(1) ** 2 * a(3) - 10 * a(2) * a(3)
                                       - 5 * a(1) * a(4) + a(5))
    g3a = a_table("g", 3)
    assert g3a[Partition.of(2, 3)] == (-2 * a(1) ** 2 * a(2) + 2 * a(2) ** 2
                                       + 3 * a(1) * a(3) - a(4))
    g4a = a_table("g", 4)
    assert g4a[Partition.of(2, 2)] == -a(1) * a(2) + a(3)


def test_weight_sets_match_partition_classes():
    # S_r(h) is the full weight-r partition family; f drops pure-1 blocks;
    # g drops everything containing a 1 (exactness of the structural zeros)
    from cfx.partitions import hset
    for r in range(1, 7):
        full = set()
        for k in range(r, 3 * r + 1, 2):
            full |= set(hset(r, k))
        h_keys = set(dict(engine.coefficient_table("h", r)))
        assert h_keys == full
        f_keys = set(dict(engine.coefficient_table("f", r)))
        want_f = full - {Partition({1: r})} if r >= 2 else full
        assert f_keys == want_f
        g_keys = set(dict(engine.coefficient_table("g", r)))
        want_g = {pi for pi in full if not pi.contains(1)}
        if r == 1:
            want_g |= {Partition.of(1)}
        assert g_keys == want_g


# sha256 of the sorted-key JSON of every h, f and g table through order 8,
# and of f and g at orders 9 and 10, where nesting the J passes of g and
# sharing one Bell table change the build most (taken from the unnested one)
TABLE_SHA256 = {
    ("h", 1): "0064a6a8e72577147b363f1d06bc8b0b6d94c5485485d0b5ea68b95c0198b0ed",
    ("h", 2): "6f2a55d1922de2a64c1b04e4f6b35fd11d65b221f8fd4e6b2020a2165fbeb7c3",
    ("h", 3): "a6938b7fd710f5cbba5f0ba670f920af24603e5b0540914be9c73d2884261b18",
    ("h", 4): "6e5d8d9371e7b19ab74faa014b9834a2ca3279df713c713367dcd63b0292a734",
    ("h", 5): "686d8153e5d98b4f524337a9ecfed6116f8800ec5b50e18cda2b6ca3042075e8",
    ("h", 6): "49effc8d73f5ac4c98b28142b755bc90c3bbe580d081b126cefa38e1140908da",
    ("h", 7): "8ccf64786784f169a2814ba8482b9cc8d7862d61c00ea4395d95c34205f9a9ab",
    ("h", 8): "05991bb6d1523d16d5b3a4d058ced9f6757f5daeb76ae7f6e6236c5b7a0c5ca1",
    ("f", 1): "d38a74e9864412f06615b040586f14f3ca597c46c895a4258195b3c79078025a",
    ("f", 2): "2e52036dffabfbe5060122d538759c72688b9b829546af8a48ff0c413c2890c1",
    ("f", 3): "caae24f06f933e1f09c1a22d84bbb90185ef5953b6d4960303749b7d84fc0ff1",
    ("f", 4): "3bba071e0ed4d38b6b4e98754c3ea57efd84ee5d37bf313a59ce2c90153d90ec",
    ("f", 5): "d680b321286b851d373c963e0b9512dbc84e8cfb68c04a8e43db6a8227a3fdc7",
    ("f", 6): "97e80bab9183972d1d4142dbb1145a0542e64f43601fd0fab0f8d94b411a09b9",
    ("f", 7): "bab21b497996b655063af32823fd9c12e4d7a77d966218f36a04ac89d05351f6",
    ("f", 8): "30e7624c836c399276631ff4dc9aa6af077a6855699942b0b7f8b39b1879ce84",
    ("g", 1): "aff1ccf286ac8864ad0b32dcf23af781aa128e326c8c7c74d0d096da43f6a628",
    ("g", 2): "97a26e607f04ff8a62b53f94abc6210eb53137bb5f7924ed3c7ab98a6ec14172",
    ("g", 3): "2ecb47ea56d9817428add795ed3a6ae4f2b43a8c6f47e970e96268da8abcfbdb",
    ("g", 4): "d6644a78d990e695f89008de2d78e01e2ca085a20f17e3f438e6b4eeba3def4f",
    ("g", 5): "a068c52c1ca34a9e46ca2d7e8f611769920f346f55fe58b0d95e4c373578107a",
    ("g", 6): "4a20ab0ebab915a437cecbbe1f14c774b8427f934c18571ecb40e95a2c18d66f",
    ("g", 7): "38c1630fe14e59b80ebbcc47c79c8d9f0cb1aaab27ca3960bd1fd0c01a2f020c",
    ("g", 8): "443eceda07b1a3995b9307e462c96b2a3573cfa7188e07972563e13ae6652b4e",
    ("f", 9): "d49002ab7e3cad6f4357af2daea98ae68e481508ed90d7ba941fa9d059e6f177",
    ("f", 10): "3490260604728406d48f0f1a60358273c77f8b70cdd9d64db8697883412f8f92",
    ("g", 9): "5fed25f97d252aecb62913bb63f324361cc518d60753b2d170faa96a8f92575d",
    ("g", 10): "7a41cd4d25167bfe621a76b72b87afe50af300009d8bb5eac263e4f6db717fbd",
}


# the same through order 6 with the a-basis ("a") and normal-basis ("x")
# renderings that ``export_table_json`` adds to every entry
BASIS_TABLE_SHA256 = {
    ("f", 1, "a"): "ba201b86a5d4c33043a192e8fe97937718856225f740369573a29859ec87e02e",
    ("f", 2, "a"): "359bcb14a0f8ebc0d7063c78fdb58514d3f87ff195d5031bb848e4473ca4ede1",
    ("f", 3, "a"): "31dff24e3b94d6be18ed324ed8b41b4f8a067298012ec100df3d6e381169c11f",
    ("f", 4, "a"): "13fd5df8ebd5f7fc9a04d8bb0fc96175fc9a080a6c8e03e2c55cc08e337cb972",
    ("f", 5, "a"): "24965933a799fa595b45120acdcf6537f362e01604836ee2961b2a4f20b0c0af",
    ("f", 6, "a"): "8e59d1dce35944bc0abf0198ae1ea8abc741de63621f36a7101848b0161b563d",
    ("g", 1, "a"): "d68e3910724b5b8566f6bab381d948a39221cd6b46f49472fc1bbf8a71306e2a",
    ("g", 2, "a"): "abdbf896db74b1fe5573ee45ee5053fac90c767741e4e0d84e36238507c1aca1",
    ("g", 3, "a"): "cdb38561f72e7db94fe1b8ed7120bec7da6f7c32707fba6d78a0a10df3bf5216",
    ("g", 4, "a"): "e2e944a2f1eb395581c6e39e8f1b0dac42d9f0a217986fce2fb6b49adf06b2b3",
    ("g", 5, "a"): "9e6383be2b940088f840896c086aa262c19afa26df777266998994be787c9e9c",
    ("g", 6, "a"): "522286143f07d97b90e8bf7e18941201696c28635b61d75560d29e4a0ebb64be",
    ("h", 1, "a"): "6e2772ef8d1e936e297588cf69b87c7d6e4950ab6301318689a4c0b020fad72d",
    ("h", 2, "a"): "6e149b1f94ef5f1a1ba048d322532dd73551be807ee5e1b43090e34bb889c26d",
    ("h", 3, "a"): "cbb839516599541297b5208568fdbb0634e23b4e7b69a854b5223a55caf9c52b",
    ("h", 4, "a"): "1538cfa9620123692452d08bc3f010c9955bc50a41248880918fa8341f7049b4",
    ("h", 5, "a"): "d374494a32abd774450cc4380a1caa7145ea9d16d9452d0086ac6a77c76e4de8",
    ("h", 6, "a"): "c187d2fbfa671f615968996054743016e45e65c490f0c6bd50a6e03db3925880",
    ("f", 1, "x"): "83502481fd6c0ea118dc580ed6eba6d5e33a2f8e6c8b8e82743f015d988a326f",
    ("f", 2, "x"): "531ac05c53ad2179173ff39c86a6a20f878e543c4b02301d3664e298f3a11a79",
    ("f", 3, "x"): "6ffa1a2200ee8deb0f123f99b787bee3ba8c1faf65983440c7c49011d95529ae",
    ("f", 4, "x"): "6a14be436371f33d5bd5a5d5b71a0f7f6b0478b055ffd7cb5f66be3a077a10ad",
    ("f", 5, "x"): "c84433facfffac466820341d91ec37b2d1c5e89e1901fa7ccee4edff6f4271b2",
    ("f", 6, "x"): "0309e3683f2bf7275b923a8dbd63a55a7b90c2ad9e61dde571d5d52b78d7e8b3",
    ("g", 1, "x"): "45015c260341433bafcbcc95f9663379644d880393303ac6b51c0bbdbb0c33a5",
    ("g", 2, "x"): "ab6f98f308f7c3119544bb54c826b697b26c9800ea00b7eb5bdee1cc23e77738",
    ("g", 3, "x"): "73ea43281a7b8531894fec1c52136a28c583ce1cca9a8e733430246667658553",
    ("g", 4, "x"): "7f37244f3ece2b0cb152dba72d5ca20e9bf8c27c119afb50bb6a8096203134f3",
    ("g", 5, "x"): "de62b6752e642a5d69800fa977deb210cda59444138c1b81d9ff78558011aa77",
    ("g", 6, "x"): "53bf099f9017a0e674ecf0aa05840ff12d0bba85af9356c4c948fc0c63a9f6d8",
    ("h", 1, "x"): "df7eb9e2801b563af878cc7dae8ae29a82dcf5c2b5f4ab3832dcbc2fabcc3e75",
    ("h", 2, "x"): "301969b2ef3a6585a17d01a9a15dcd9baf4258285eb997fab5223017983a9481",
    ("h", 3, "x"): "1d2a81b5858417f7b115a8e77808ef44fd963c554fe5d1652a4433ef0cc51635",
    ("h", 4, "x"): "42ddbb7abb2ce39f7efa3775ad16b21a877647e687b9de314a22ee9ab57c7b9a",
    ("h", 5, "x"): "a4c1b7362a7b979bee56112f9f28524c4b35cc4ff6ff137363086d6addb1412c",
    ("h", 6, "x"): "72bbc32786f9eacfd162b3aea27b6d8b35a3a68f8e704201b8fc4459c1b8163b",
}

TABLE_CASES = (
    [pytest.param(kind, r, "H", digest, id=f"{kind}-{r}")
     for (kind, r), digest in sorted(TABLE_SHA256.items())]
    + [pytest.param(kind, r, basis, digest, id=f"{kind}-{r}-{basis}")
       for (kind, r, basis), digest in sorted(BASIS_TABLE_SHA256.items())])


@pytest.mark.parametrize("kind, r, basis, digest", TABLE_CASES)
def test_table_json_hashes(kind, r, basis, digest):
    doc = json.dumps(engine.export_table_json(kind, r, basis), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


# sha256 of the ``--format json`` stdout of numeric questions: quantile at
# p = 0.7, cdf at x = -1.3 and the second density derivative at x = 0.4, on
# both bases.  lnF(24, 60) is asked at R = 4 and lnF(60, 24) at R = 8; the
# Studentized mean's model stops at order 2.  These pin the float
# evaluation itself, summation order included, which the symbolic table
# hashes above cannot see.
NUMERIC_MODELS = {
    "lnF24_60": ("4", ["--model", "lnF", "--n1", "24", "--n2", "60"]),
    "lnF60_24": ("8", ["--model", "lnF", "--n1", "60", "--n2", "24"]),
    "studentized": ("2", ["--model", "studentized_mean", "--nu3", "2",
                          "--nu4", "9", "--nu5", "44", "--n", "200"]),
}
NUMERIC_QUESTIONS = {"quantile": ["--p", "0.7"], "cdf": ["--x", "-1.3"],
                     "density": ["--x", "0.4", "--i", "2"]}
NUMERIC_SHA256 = {
    ("quantile", "lnF24_60", "normal"): "a8ded43b7b5d0bd50be6c77c76c5a957d0a4e84042e8caed93881265b4c5563a",
    ("quantile", "lnF24_60", "gamma"): "73557c7e43abaf3d17df0de53c1fb44a35b2ebf6055f28b986a8ef34aa6430b9",
    ("cdf", "lnF24_60", "normal"): "0e87aa6a31065af81dd2fe34737e60f8b3e3fb43f42cab2b33c7ca251e50ce11",
    ("cdf", "lnF24_60", "gamma"): "a4b5106111d66558017db49ff72824ea64ceeef9cb5a822a911f0fe77770db1e",
    ("density", "lnF24_60", "normal"): "8f9e8d816424bb4b3d4eef7584ed70957d7e40a8ce6a80b820b2812f5d0f568f",
    ("density", "lnF24_60", "gamma"): "5b0b894585c63c618b78d8b35194dae9213283fc9ba19feb55f13a50eff609a1",
    ("quantile", "lnF60_24", "normal"): "9a1f7686594978dd73d3a35d4bdff5f246fcd65590f4b3c37e884150e1c1fff4",
    ("quantile", "lnF60_24", "gamma"): "bad8a615f3eab79f02391b1c7e68e22a4192e3c3179dda824b268b6cab9669ed",
    ("cdf", "lnF60_24", "normal"): "4df9ad50709b58e7e21a60a93499aef65fa11cd2b3a8da4d844cb85a6911aec1",
    ("cdf", "lnF60_24", "gamma"): "49f71d0b13d503c4e1bf8fd4a49a53f561223b7cc30ddfcb3870734039fa150e",
    ("density", "lnF60_24", "normal"): "eb623d781300730ebc13a6c55782c2f936f7940699f4a3bbd5efb225befab097",
    ("density", "lnF60_24", "gamma"): "a650de63ddd48ee2f56ca532690236df5d0ded934f53ab0c56b372c7c6246f15",
    ("quantile", "studentized", "normal"): "15205fd64b4866866472ee9996255f4fc2b9a5274f5d31c7f49a8dfdefb17c52",
    ("quantile", "studentized", "gamma"): "4ea53d8c33eaa698ec0924b51c9ecafcae796f887b4ad6577c454a987965f5b2",
    ("cdf", "studentized", "normal"): "49e8f056821644fe13cc5fe7cefb0a1256b99574484789c2c0b3816958e55aa1",
    ("cdf", "studentized", "gamma"): "82bfc2cb40f4b795c764d3d113059de603f14c68879cbdd4c88c006197110187",
    ("density", "studentized", "normal"): "49f89703af541065876c155d0f510c760c752b8eb0c8377e7e6c81c1691c1c63",
    ("density", "studentized", "gamma"): "36a3fe83e7ab1cb456d421b2b4d5b5dd77ba1d93d20573605f259dc415b925e9",
}


@pytest.mark.parametrize("command, model, base", sorted(NUMERIC_SHA256))
def test_numeric_json_hashes(command, model, base):
    order, flags = NUMERIC_MODELS[model]
    argv = [command, *flags, *NUMERIC_QUESTIONS[command], "--base", base,
            "--order", order, "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == NUMERIC_SHA256[command, model, base]
