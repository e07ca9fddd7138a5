"""Determinism guard: composites and stage reports stay byte-identical.

The digests below were recorded from the commit before the sweep and
comparison-map speed-ups (see CHANGES.md).  A performance change that
alters any serialized composite, or any check name, verdict or residual
of the composition report, on these pairs fails here.  Re-record them
only for a change that means to alter those outputs, and say so.

The report digests were re-recorded when seven lines that restate a
fact certified by another line or stage were deleted; on every pair the
new (name, passed, residual) list is the old one with those names
removed, and no composite digest changed.  They were re-recorded again,
with every report digest of `FLOAT_DIGESTS`, when the composite's
`validate` stopped re-checking the structure that its constructors
certify: on every pair the new (name, passed, residual, witness) list is
the old one without the four lines `composite_groupoid_axioms`,
`composite_left_haar`, `composite_right_haar` and
`composite_bispace_axioms`, and no composite digest changed.

The report digests were re-recorded again, with every report digest of
`FLOAT_DIGESTS`, when the `b_left_invariance` line was deleted: on every
pair the new (name, passed, residual) list is the old one without that
line, and no composite digest changed.

`FLOAT_DIGESTS` pins the same two digests on pairs whose report
residuals are not all 0: float copies of the catalog pairs and of four
mixed random pairs, at scale 1 and with both families scaled by 10^±9,
so that a change to the arithmetic of a check moves a digest.  The
report digests of the six mix-3 and mix-19 entries were re-recorded when
`delta12_well_defined` came to measure the G₂ invariance of Δ₁ on X
instead of recomputing Δ₁₂ at every orbit member: its residual went
from the rounding of b·Δ₁/b (5.6e-17 on mix-3, 2.2e-16 on mix-19) to 0,
and no other line or composite digest moved.

The entries of the five pairs with a nontrivial obstruction cocycle
(`CHANGED`) were re-recorded when the middle cochain b became the
p-average of Δ⁻¹ instead of the exp/log geometric mean.  The former
solver is kept below as `legacy_b`: every pre-change composite digest is
still asserted through the public `b_values` override, and the new
composites of the changed pairs are checked to be the old ones up to the
orbit-constant density ρ = b_new / b_legacy.

`INPUT_DIGESTS` pins the builders themselves: the instance files of the
catalog pairs and their targets and of `random_pair(0..39)` at the
default caps, at `MIX_CAPS` and at 8, 8, 8.  They were recorded before
the catalog bimodules came to share one constructor and the two random
legs one bispace builder.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest

from gcorr import catalog
from gcorr.cohomology import invariant_probability_family
from gcorr.composition import compose
from gcorr.io_json import serialize_instance
from gcorr.randgen import random_pair
from gcorr.util import ksum
from tests.conftest import MIX_CAPS, scaled_family

# name -> (sha256 of serialize_instance output, sha256 of the report's
# (name, passed, residual) list)
DIGESTS = {
    'fn-compose': (
        '43d27615c855575e88fd2a2eb0ef60b1a8e1b4373f32cffc229b2206e5d1d70f',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'quiver': (
        'febb5140d99a5d199a007a4eb07f2e812fb619779578d0643660f14a2275a667',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'group-hom': (
        'e964dd40d352b66f6969ea13b499c13dc5d13c9065c41125ab8a998dd2bd46ba',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'subgroup': (
        '00e09a711bb1b4c20e35e36a8e5b6bc99554c296fda41aed2ab52a4ca7b745e4',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'induction-finite': (
        '692697798be051b03f93300ff2a3408cb7d833ecabf81332acc91a8b70094c03',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-0': (
        'e7e4be69008dcdeda2e141cdaa266b3ea5a179c36decc564c5b53a136ec38a1d',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-1': (
        '8bd5932fd0190176646bec7dd03accba243f413049cc83d2bd85b3361f49ea18',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-2': (
        'aeda1a1c1ea0c4118a5674c178ceba2f162d9ef8ee4a3f28240d6b6d9ad1c5b5',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-3': (
        '489971a2cfb40ab75b583a106d99937dbecca8300820765acf9ee572e263649f',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-4': (
        '485f0e3ff36929e4d597d3628ea018802cf4129752cea461efcf792b6aadccdf',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-5': (
        'fbcf630d27baf5601f01d8338fbbf573e79d1506e5086217c4d33a32bcf79261',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-6': (
        'c644a419264ab7dfaf0ce85f9127bc361f83c4272c7e2323012df2b188a58271',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-7': (
        '4b916cd14092a62203365907c92de6cd7ba317e12fce3f97af89e5f4b4f57cc9',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-8': (
        '99c3b06f2673cf41ef27090bd08bb5bae074b65bc063e66be8afc146b2676e6a',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'random-9': (
        '868dea4f9cbfbd68724fa36de9dae5c0ad42d5e6c85d909070b703b95a0405ec',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
}

# `float_pair(name)` -> the same two digests, on pairs with float residuals
FLOAT_DIGESTS = {
    'fn-compose/float': (
        '17d95fcfc9c44e152be13644dcf32a09eee54f6fafeddc13761f6feff332e1ae',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'fn-compose/float-1e9': (
        '9a095fa731456d08b990fa4113b7ec258c511c2ec234562fada25f4c7507369d',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'fn-compose/float-1e-9': (
        '19a0acd96c9178df9cb0fd6c3491251e3891f0ed8a5a751de37602b25f3e8f35',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'quiver/float': (
        '2f5a5b98ef488a4b43c6d1c3223b8b5da750795dc512dfdc6994b325d0a0ae54',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'quiver/float-1e9': (
        '0d5fb24f8631e8fc4880a9da58448a783dd09d2b933064711d541dd22204771e',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'quiver/float-1e-9': (
        '563ac9d1ffc46e2449e4c81508beb5595fbfd284e22baed8b511f1710d267525',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'group-hom/float': (
        '16b9fae6ca09e8df1e072ad78a971c78a73db267294f4c3dd6fa6fbe6f080246',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'group-hom/float-1e9': (
        'c0dbe74175cb6ceef8610e8a253aa48a3e6ef79d52ae500a6271a2659ba93b01',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'group-hom/float-1e-9': (
        '8eb418b99ddc6770a02709eec84b12e78118d3343aaf61b3913eb1228fb3543c',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'subgroup/float': (
        'a6470bb8ff9079e43d63cde0c9d593b480f2dbedee158730f5b08314f2208ee8',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'subgroup/float-1e9': (
        'f1728c67d6f42a35cf1a887a5b37d7ca68a443da00177ef6a88b1486a35f56f4',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'subgroup/float-1e-9': (
        'e0d43d66e3f16d07e064d4db0a996b5a4bf6188c0a974a5a448adb61d461b79b',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'induction-finite/float': (
        '899d852a41380304dd317a67aec46cd903828f54308722dba1bb588092ee8cde',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'induction-finite/float-1e9': (
        '0ebf129d3084b6ba43dc7816003955819e73958fbc1990bd9aa2a6a050df2a8d',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'induction-finite/float-1e-9': (
        '2a10fb78a3cef0a2f47c05d7ad1c606c68c5590aadb1d07f80b30acd1cdff3c2',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'mix-3/float': (
        '6a6366a0efc91fb38d8ad0f15295c8f193b259a9a30d1840e40e15617797adcd',
        'a57ed37ba2fa6b4d47e871c803d0bc0a66717fc5488dc336638b61a928c08ac6',
    ),
    'mix-3/float-1e9': (
        'de50d3577b41e1fad9c2d8517c101cb8d7ebddc73884e925127e625659ad5795',
        '5c0bc1903f1acfbee93db92f64640b01c7ab4d220526b2731e8a155b41efa65f',
    ),
    'mix-3/float-1e-9': (
        '8a1c574ebe3d586c9fe81dd7ad9802be57ad462c5777dcad00f51837adc4fde7',
        'edd67ec1e1da2e2d8f2c4ed0af95530b49df3a1a4c7cc5d0c15de8f2e584fa98',
    ),
    'mix-9/float': (
        'cd3374789c24b19e41a238a8c5d857f4982c368d4b1939782948ca30d585c0e2',
        '979185a86c993d1016b82cc3629e6d9100fd302f5f7c3388d676f3ea6fbf324e',
    ),
    'mix-9/float-1e9': (
        '734854ec3b9c2ec45e7a1007280013e340f33f07368493e67b53d4996d292648',
        'd972edec003cb4d04a4167f9a36f36ab2a5fb71e3623986794d676506a86fced',
    ),
    'mix-9/float-1e-9': (
        '7ae952c43a063a475acfb3c08789683a35de49ee3268080c9dca49857abe41e0',
        'bb455d3d8194f6d608e525f94aaafbcc77a5d9ab5c15b77953c33aaa648d2cad',
    ),
    'mix-19/float': (
        'c002b98363e0832ab141d8108b1c19cafc2a6620f466c5038c38da6af9ac8ba9',
        '7d15c3367ef869ad6fe60e9503a6ed3f62f7c62271bf7169be1716ccbf3a229f',
    ),
    'mix-19/float-1e9': (
        '81af5942a062965093549ff4af32aeb0da334030c5d2ef4fdfaf01ac3a4a04e9',
        '926a8fe13de42b2fc950e7153b04f593c1d8009328c37f91a4f5d2bde3394298',
    ),
    'mix-19/float-1e-9': (
        '422204abff1590f9939e865156f5f11eb8d5537dc18be9b0b603b03ea4fe7a67',
        'dddc931557d2df4cd8c2f1881fb12bbc48552bd742143c77c1c83daa3e0ea21f',
    ),
    'mix-24/float': (
        'ea219adde0dcb3f51ac64deba586c9d3570c883d8ec7709577ca0c1a23b50d02',
        'f3ef9093efe77364c02388e873678e4e440c53cf8880be48aa9f51b2ef16a8bb',
    ),
    'mix-24/float-1e9': (
        '6b1d5137bb9d81f0a39bdbfa09fc44708ea4d0cd236782f8c1bb2ddd033bfac3',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
    'mix-24/float-1e-9': (
        '6b8c6634fbaa136373b48a7b338fcc9968be5806ce508ae39a69caab49d69d56',
        '0554627328ec261be08612c13b6da6d9135566d62bc2c3660d6bfd899fdb7037',
    ),
}

# the pairs whose obstruction cocycle is nontrivial, and their composite
# digests before the middle cochain became rational
CHANGED = ("induction-finite", "random-3", "random-6", "random-8", "random-9")
LEGACY_COMPOSITE_DIGESTS = {name: composite for name, (composite, _) in DIGESTS.items()}
LEGACY_COMPOSITE_DIGESTS.update({
    'induction-finite': '6ab0cccae53f2d55f54070d88d5ab8db669141e68522ac3802345f23b68d18dd',
    'random-3': 'd49a0fad37aaa2597e2938e6e77742551f249f92e6a28018451c209404ec1bbc',
    'random-6': '1ee74fda2f29d00fa50a274b3e816022529bdf0460b09a7e0bb56e41d8785b88',
    'random-8': 'a924f4cf537fc942c043d24ea60165f9965465d42657b60e0469809bc59bece9',
    'random-9': 'b4004d075383bfd82105771022aba5c56b4e1aaaf76f6640dddbf3475b3be81e',
})


# family -> sha256 of its instance files, one after another
INPUT_DIGESTS = {
    "catalog": "7861f178c1bfd572fcd6d2169d219397c0d32eb8772d4b2a11e4de551e112b01",
    "random": "65f1fa8c17d6dc02500e7c0cc5eccf912204fae0da66c7bc24a81e55e9c27a42",
    "mix": "a7ba7d88518122004c0b71ba3374d512d2cfea1d7affa8d1f8fb1dcb66a96f12",
    "small": "8bd1a8614ff22bda1d618764ab13976e199f2867f5744538b51a17c0288c9946",
}
# `small` caps both legs at 8 points, so that a leg falls back to its one
# guaranteed piece, anchored at the first of more than one candidate unit
CAPS = {"random": {}, "mix": MIX_CAPS, "small": {"max_x": 8, "max_y": 8, "max_mid": 8}}


def _instance_files(family: str):
    """`serialize_instance` of each pair of `family` as [x, y], and of each
    catalog target as [target]."""
    if family == "catalog":
        for name in catalog.EXAMPLE_NAMES:
            corr_x, corr_y, meta = catalog.example_pair(name)
            yield serialize_instance([("x", corr_x), ("y", corr_y)])
            if "target" in meta:
                yield serialize_instance([("target", meta["target"]())])
        return
    for seed in range(40):
        corr_x, corr_y = random_pair(seed, **CAPS[family])
        yield serialize_instance([("x", corr_x), ("y", corr_y)])


@pytest.mark.parametrize("family", sorted(INPUT_DIGESTS))
def test_instance_file_digests(family):
    digest = hashlib.sha256()
    for text in _instance_files(family):
        digest.update(text.encode())
    assert digest.hexdigest() == INPUT_DIGESTS[family]


def _pair(name: str):
    if name.startswith("random-"):
        return random_pair(int(name.split("-")[1]))
    corr_x, corr_y, _ = catalog.example_pair(name)
    return corr_x, corr_y


def _composite_digest(res) -> str:
    text = serialize_instance([("composite", res.composite)])
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str) -> tuple[str, str]:
    corr_x, corr_y = _pair(name)
    res = compose(corr_x, corr_y)
    checks = [(c.name, c.passed, c.residual) for c in res.report.checks]
    return _composite_digest(res), hashlib.sha256(repr(checks).encode()).hexdigest()


def legacy_b(res) -> tuple:
    """The middle cochain of the former exp/log solver: exactly 1 on a
    trivial obstruction cocycle, else exp(−Σ_{G^u} p·log Δ_Z) in doubles."""
    g, delta = res.tg_z, res.delta_z.value
    if all(isinstance(v, Fraction) and v == 1 for v in delta):
        return (Fraction(1),) * g.n_units
    p = invariant_probability_family(g, res.chi).weight
    logs = [math.log(float(v)) for v in delta]
    return tuple(
        math.exp(-ksum(logs[a] * p[a] for a in g.fibre_dst[u])) for u in range(g.n_units)
    )


def _new_and_legacy(name: str):
    corr_x, corr_y = _pair(name)
    new = compose(corr_x, corr_y)
    return new, compose(corr_x, corr_y, b_values=legacy_b(new))


NAMES = list(catalog.EXAMPLE_NAMES) + [f"random-{i}" for i in range(10)]


@pytest.mark.parametrize("name", NAMES)
def test_composite_and_report_digests(name):
    assert digests(name) == DIGESTS[name]


FLOAT_SCALES = {"float": 1, "float-1e9": Fraction(10**9), "float-1e-9": Fraction(1, 10**9)}
FLOAT_BASES = list(catalog.EXAMPLE_NAMES) + [f"mix-{i}" for i in (3, 9, 19, 24)]


def float_pair(name: str):
    """`<base>/<scale>`: the base pair with both families times the scale,
    families and adjoining cocycles as the floats a JSON file carries."""
    base, scale = name.split("/")
    if base.startswith("mix-"):
        corr_x, corr_y = random_pair(int(base[4:]), **MIX_CAPS)
    else:
        corr_x, corr_y = _pair(base)
    c = FLOAT_SCALES[scale]
    return scaled_family(corr_x, c, exact=False), scaled_family(corr_y, c, exact=False)


def float_digests(name: str) -> tuple[str, str]:
    res = compose(*float_pair(name))
    checks = [(c.name, c.passed, c.residual) for c in res.report.checks]
    return _composite_digest(res), hashlib.sha256(repr(checks).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FLOAT_DIGESTS))
def test_float_composite_and_report_digests(name):
    assert float_digests(name) == FLOAT_DIGESTS[name]


def test_float_digests_pin_nonzero_residuals():
    """The premise of `FLOAT_DIGESTS`: some line of some pair reads a
    nonzero residual, and their report digests are not all one value."""
    assert len({report for _, report in FLOAT_DIGESTS.values()}) > 1
    res = compose(*float_pair("mix-3/float"))
    assert sum(1 for c in res.report.checks if c.residual) >= 3


@pytest.mark.parametrize("name", NAMES)
def test_legacy_cochain_reproduces_pre_change_composite(name):
    _, legacy = _new_and_legacy(name)
    assert _composite_digest(legacy) == LEGACY_COMPOSITE_DIGESTS[name]


@pytest.mark.parametrize("name", CHANGED)
def test_changed_composites_differ_by_an_orbit_density(name):
    """μ_new = ρ·μ_legacy and Δ₁₂_new(a, o) = Δ₁₂_legacy(a, o)·ρ(o)/ρ(a·o)
    for ρ = b_new / b_legacy, which is constant on each orbit."""
    new, legacy = _new_and_legacy(name)
    assert new.exact
    orbits = new.orbits
    rho = [float(bn) / float(bl) for bn, bl in zip(new.b.value, legacy.b.value)]
    rho_o = [rho[orbits.reps[o]] for o in range(orbits.n_orbits)]
    for z in range(len(rho)):
        assert rho[z] == pytest.approx(rho_o[orbits.proj[z]], rel=1e-12, abs=0)
    for o in range(orbits.n_orbits):
        expected = rho_o[o] * float(legacy.mu.weight[o])
        assert float(new.mu.weight[o]) == pytest.approx(expected, rel=1e-12, abs=0)
    left = new.omega.left
    for a, o in left.pairs():
        expected = float(legacy.composite.adjoining_at(a, o)) * rho_o[o] / rho_o[left.table[(a, o)]]
        assert float(new.composite.adjoining_at(a, o)) == pytest.approx(expected, rel=1e-12, abs=0)
    assert any(r != pytest.approx(1, rel=1e-6) for r in rho)  # premise: b changed
