"""Printed output pinned by sha256: certificate JSON as the CLI writes it,
the text of z-polynomials, census CSV, and L-values and class sums over a
grid of curves and groups.  The certificate and z-polynomial digests were
taken before the printer and the certificate writer worked from packed
monomials, the census digests before a finite field found its modulus
through its own irreducibility test, and the L-value and class-sum digests
before every exact integer division went through exact_quotient and finite
field products through the dense kernels, so any change to the bytes a
user sees fails here."""
import contextlib
import hashlib
import io
import json

import pytest

from motivesums.cli import main
from motivesums.curves import CurveDatum
from motivesums.lseries import z_polynomial
from motivesums.motives import motive_of


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CERTIFICATE_DIGESTS = {
    ("sp", '{"n":2,"parity":"odd","r":0}'): "7494ff574e3649fbe00c2ff071c17ac37acb8f3bb9398e2adbe4afc8631abd46",
    ("sp", '{"n":2,"parity":"odd","r":1}'): "0dfcd31edb09e62890eabcd7dedce79a3ca96d369b85efe59ebfd1a3dbbd9d42",
    ("sp", '{"n":2,"parity":"odd","r":2}'): "f9ed0996dd494a8ef538bd2193f3030c2687f08eb251888609f5245ca07c1f97",
    ("sp", '{"n":2,"parity":"even","r":0}'): "af13c3053a36d6df1e5f45ab36c0a8d86b8bdd9be5e3524ae0761dd0ac063957",
    ("sp", '{"n":2,"parity":"even","r":1}'): "88d78f58522d6f3709ac764e35e504cb982915348ce983819140e6b1ceed336f",
    ("sp", '{"n":2,"parity":"even","r":2}'): "92722ad39da99c551a850c2a173abc46409cc314b4fcde208ed15f653e5cf112",
    ("sp", '{"n":3,"parity":"odd","r":0}'): "02834414bd021eb47cfecdddc2d861bc0f4c1ffe7e8fa5c58dec4e96df5a0fb7",
    ("sp", '{"n":3,"parity":"odd","r":1}'): "f09b2ed4a4f9169bf7dae3e854e6acf255a20fd26f088c95bd34dd0ae5478718",
    ("sp", '{"n":3,"parity":"odd","r":2}'): "89d15e0af150b4a22b5b507b9a660ec4090bc54667a7f93e11efdde7aadf9988",
    ("sp", '{"n":3,"parity":"even","r":0}'): "6d7030d2ee1c9cd6c187f8593539f5829cfdc372aade4f904ef298956ccaaee9",
    ("sp", '{"n":3,"parity":"even","r":1}'): "2205c170771dce1d7488e4f757aac6fe20516e54aff34aa8153cdde917cf27f5",
    ("sp", '{"n":3,"parity":"even","r":2}'): "59e9c792a889ce74a99a047667da9919cfdd60d2491316a07a7cf41da85a77cb",
    ("sl-prime", '{"l":2,"r":0}'): "5b3fcdd5002a6cbb1adc86300e2f68c841c7f5652d937ae81914f85b378a4b1c",
    ("sl-prime", '{"l":2,"r":1}'): "b4acecbbfb01dc864cc4a9e8cebad612d906fb22c9a17c8491804f4270d64807",
    ("sl-prime", '{"l":2,"r":2}'): "ebf883ca949ec87e8a3607ce96b57f8a89f71ad9295587a3a7f61379e45d3d3b",
    ("sl-prime", '{"l":3,"r":0}'): "9ccb5cb1b933ad6622d6039a920f0b909913a2dc54867f87fe49ed417d1985a9",
    ("sl-prime", '{"l":3,"r":1}'): "13bacae04bf3cb4a10ee1c0ee642b45f1b365f980b6113219d6f16fa499bebdb",
    ("sl-prime", '{"l":3,"r":2}'): "437b99bc366226a70070a7fa92095deb95741f5cce207ea919f599afe0f458d6",
    ("sl-prime", '{"l":5,"r":0}'): "36e0d6ff4bfecda26b899123a11aef0c8d984c3b4f79d9a9ed449d6698e3d1e7",
    ("sl-prime", '{"l":5,"r":1}'): "d071128a667845f47cbfc59562e56d186f3cb7516baa6adcca2a3dcdf26a1f59",
    ("sl-prime", '{"l":5,"r":2}'): "29ef82d7d6c2bb17948ba6680a2abac81dbbc9f04c1759f0fb8f031878054bb2",
    ("sl-general", '{"n":1,"r":0}'): "b3c79956ee73bf1daf8803ad793c0d0e76fb4466a0cbd55da5e79e358d0c28d9",
    ("sl-general", '{"n":1,"r":1}'): "a62638fe7341df78d55a10db3287ec5358e79ed932a0b94d9f1b0d4f9ed93cc8",
    ("sl-general", '{"n":2,"r":0}'): "ad15d577508b5ab867fa50156346ea4cc52a0b778a9d2d4f64b79d78a882945b",
    ("sl-general", '{"n":2,"r":1}'): "ba85784d76708f9f5dd3c91a095e0461a00215590328deede397bdf28ea38e62",
    ("sl-general", '{"n":3,"r":0}'): "68921a34c36487fe63bab395cae5cbe773562103d2147b890e23a1145aab3253",
    ("sl-general", '{"n":3,"r":1}'): "e25b79b137308ab513ae01ae20e4780a46d34d32d149e8cbd913d9527971cd5e",
    ("sl-general", '{"n":4,"r":0}'): "f116150d22de5b434e7333c83807421ca7b5e5d5dbd536b4dfdc556889926a8c",
    ("sl-general", '{"n":4,"r":1}'): "ccf18c00f4f1efc26644a469352a83aa37adb23ef5da942e0262825d55c0112b",
}

Z_POLYNOMIAL_DIGESTS = {
    ("SL:2", 0): "58520547ba7946f0bbe7daf5ee924776baa80a234043df9fd53618e2fa1d87f5",
    ("SL:2", 2): "7d82908c464506950710eef77b39c8aa966eb947142d74112b7f04a4720e22c3",
    ("SL:3", 0): "72e03f80667584404a9e4dcd6375c21d9c52bfc6621ab0ae477ac0feafac4e1b",
    ("SL:3", 2): "766023e2022c0277a5bc2ec416e8c2286b915e59f9b22fe67f58f255eda47c7a",
    ("SL:4", 0): "0d2a96a456df1542d15b2798de8cc50e2e5cf2f204a70f1fdcbcecc3b787c038",
    ("SL:4", 2): "9e0874de5c80365006d380e34003b3958ff1391be215a55e9bb752ec25a51922",
    ("Sp:4", 0): "2c186dcdbbdc1caf7ccdde2fe58d4755c09091d4b9afe31769ce37d046ac9da7",
    ("Sp:4", 2): "7f5fc45402cede4b1dce94bb7ab07c819d29bf1c544fbe77d3b58fd16d7a789f",
    ("GL:2", 0): "0f7a925eb49b9d1b5798788bdf7a04b0c08b08ef4f3885419b7754d85970dce4",
    ("GL:2", 2): "ad5c3e00340b4affd5eff6c2dbd2d542eb75a23f12832d3d0c6190745ed470d3",
}

# every group and q in {2, 3, 4, 5, 7, 8, 9, 16, 25, 27} whose census lists at
# most 300 polynomials
CENSUS_DIGESTS = {
    ("SL:2", 2): "882ca245e7ca6913b4dc5abb83a0b0706ab22a77e276fa386dcbf3db08f8e9e7",
    ("SL:2", 3): "605a844a773a67b234965a88a1406f025ef25ac8b3eabcd392248e3f7c44c5d1",
    ("SL:2", 4): "c99daf4e4db5f6b699d3cd002f4211dadb7d4e715640e2c23cfe1dbf6abec1e1",
    ("SL:2", 5): "dfa4fd1292709e038729f02afa2a5d8e8c2c081de17023ffe2dbf453febd0383",
    ("SL:2", 7): "e249296fec8b5951a9702c07f35b30c921ed6a2ec7c9568f3976dadb7e9fc04d",
    ("SL:2", 8): "0971eb8a3f515244ba9c79745d04e453b25d72a40af05b7bd583fc3ed397a055",
    ("SL:2", 9): "211b336117a09719053cbb80af8415c37cd3810626b2365fcde866ca8b3dad54",
    ("SL:2", 16): "66ba3428c47768672e151a06739dd65b38c55d7c05920e01617a64e91b287289",
    ("SL:2", 25): "8aa502fc1c1fdf71fb153df8a34e52ebd29d29ce464e380216cfd8ec32eb491a",
    ("SL:2", 27): "7056264bc4804f8e7e461378bfb9989edc21f62d4b4acf1fa63ec83957e692e0",
    ("SL:3", 2): "2dde49117915876717f01f89390f989f0edd638b12acc9600ab4dffd22f89b3c",
    ("SL:3", 3): "595e7c7fcff7c9074ec24b118434ee129b9ab6f4e3fc6933fb6c302db4281ed6",
    ("SL:3", 4): "c083474a6fab8e66e3b80f6e7d80123bd9bda89417d6634b304a50416a034c86",
    ("SL:3", 5): "b2844bfb5223cd6e1e0a2f23b81b036795bc32666d13461f0e509e7b6b4fb197",
    ("SL:3", 7): "cd7d65b58db3d2b23b79e59816b1542710409ec1071fdb879dad13b9ba944511",
    ("SL:3", 8): "71ac7860d4c74b04908e7ae8b66666f27e18d1e19341032487c3f93f36f003fe",
    ("SL:3", 9): "dbc0c71c5c2d0646b6dae6d19298380ab5c21e2a0c07ec983349571583658c89",
    ("SL:3", 16): "dfed6c4d09c03e160c7e7f520bcaf7eda3260ed1fd46694342a27638963c8fe1",
    ("SL:4", 2): "df814fa58e60d306c7969705680e9340cb6099e13ab62bc0ab46ee6f05021f0e",
    ("SL:4", 3): "78cab93e7cd4dd3f45a05e567c172c24b5120d70a6b924ca6dcd7ce25b8bba6a",
    ("SL:4", 4): "52c09947c18018da4929a9ab1a602405447ab310b8ba17a4b355d8beecb9633d",
    ("SL:4", 5): "18f6e1c67352122536145c22de0086410db1f8f512b96778107adc046717465c",
    ("Sp:4", 2): "f44f948321f8dac5e3a5bcfb181b0a1fb464ffb89d7e33ea7e1eab78c00c9098",
    ("Sp:4", 3): "39f50ba34937d08ff42dcc3651adc982f62a2bf1e9c34275c17e5206712b94cb",
    ("Sp:4", 4): "b33aa4a498f1887430483d62642a7b8cc35061c0f84a5a9ad4ed5da24e53d505",
    ("Sp:4", 5): "4557680551c1db5a8125b4bbdcb99af42753f1d2fcfc8b7bc9de39098301e6a6",
    ("Sp:4", 7): "58d1eab897c95e76d6d8f23914a6497f3e711c48b6c5073268c7c07993242e22",
    ("Sp:4", 8): "74c5a9ae290833c220cc61e2869ea0130547d4b9244ee4f453914a4c6c6eb431",
    ("Sp:4", 9): "a7c39c04a44c982fe96398529f5040b020bbf363560b6f3c61a9189c55d1dee3",
    ("Sp:4", 16): "a10222645ef620f9ea258bbdce2a3e0b9f89f2ab0c09a513d846b03f76fd1ca1",
    ("Sp:6", 2): "b1c496b33b742fd9072cab600f848b1eea48c77acc2a9678aa4f5398234c051e",
    ("Sp:6", 3): "e2601ca8fab9a1ac857d5acc2b1a0cf71dcc1098476548180f0e1a25e07f30d8",
    ("Sp:6", 4): "483c688b72f5cc89bcd3733d8274641644b4ad17449e2fb426447858b5fb80ac",
    ("Sp:6", 5): "c02d484c275784f550c2208d85ef55c8ac2111c9c8d8203466259beb13f76e64",
}


@pytest.mark.parametrize("family, params", sorted(CERTIFICATE_DIGESTS))
def test_certificate_json_is_pinned(family, params):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["certificate", "--family", family, "--params", params]) == 0
    assert sha256(out.getvalue()) == CERTIFICATE_DIGESTS[family, params]


# with two Weil roots the variables print in the order a1, x, a2, so the
# printed order is not the alphabetical one
_CURVE = CurveDatum(3, [1, 1, 3], (2,), (1, 3))


@pytest.mark.parametrize("group, arity", sorted(Z_POLYNOMIAL_DIGESTS))
def test_z_polynomial_text_is_pinned(group, arity):
    kind, size = group.split(":")
    text = str(z_polynomial(motive_of({kind: int(size)}), _CURVE, arity))
    assert sha256(text) == Z_POLYNOMIAL_DIGESTS[group, arity]


@pytest.mark.parametrize("group, q", sorted(CENSUS_DIGESTS))
def test_census_csv_is_pinned(group, q):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["census", "--group", group, "--q", str(q)]) == 0
    assert sha256(out.getvalue()) == CENSUS_DIGESTS[group, q]


# genus 0, 1 and 2; the genus-2 numerator meets the Weil bound over q = 2
GRID_CURVES = {
    "genus0": {"q": 3, "weil_numerator": [1], "s_degrees": [1, 1]},
    "genus1": {"q": 3, "weil_numerator": [1, 1, 3], "s_degrees": [1, 2]},
    "genus2": {"q": 2, "weil_numerator": [1, 1, 2, 2, 4], "s_degrees": [1, 1]},
}
LFUN_GRID_DIGESTS = {
    "genus0": "d4a45409ff2bef571bd629d38c962ccbcbad38f44411e82ff3838e4b750d0b2b",
    "genus1": "e07586679a70c8f41a7d34c5ee006dc2ecf48d4e64a6cd7eae79e2970fea1435",
    "genus2": "772a936ea19a25dfd4ca9f9de4355de3ed971a99171dee694356613e87d5a6bb",
}
CLASS_SUM_GRID_DIGESTS = {
    "genus0": "3c85d3c255d9a50d4b715a834540cb72ba9d0b7003d92a4df3b0315a7d0ea9c5",
    "genus1": "c9afa34d8128531692e0f757ca8704b2b23c876e109f17ab4410f14d09102cd8",
    "genus2": "e7e5bb5bb60aa28cd3d5a56430a02505650bbb76c40b33e014eef238c3fb46b2",
}


def grid_output(runs) -> str:
    """Each argument list followed by what main prints for it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in runs:
            print(*argv)
            assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("curve", sorted(GRID_CURVES))
def test_l_value_grid_is_pinned(curve):
    # without and with a twisting place of degree 1
    curves = [json.dumps(dict(GRID_CURVES[curve], t_degrees=t)) for t in ([], [1])]
    groups = [json.dumps(g) for g in ({"SL": 2}, {"SL": 3}, {"SL": 4}, {"Sp": 4}, {"GL": 2}, {"U": 2})]
    text = grid_output(["lfun", c, g] for c in curves for g in groups)
    assert sha256(text) == LFUN_GRID_DIGESTS[curve]


@pytest.mark.parametrize("curve", sorted(GRID_CURVES))
def test_class_sum_grid_is_pinned(curve):
    runs = (
        ["class-sum", json.dumps(GRID_CURVES[curve]), "--group", g, "--base-change", str(m)]
        for g in ("SL:2", "SL:3", "SL:4", "Sp:4")
        for m in (1, 2, 3)
    )
    assert sha256(grid_output(runs)) == CLASS_SUM_GRID_DIGESTS[curve]
