"""Lemma-built structure and leg certificates of `compose` against the
sweeps they replace.

`compose` builds the structure it pulls back from its inputs by lemma,
with no run-time check: the Z action tables are the product of the X and
Y tables, the Haar system χ on Z⋊G₂ is α₂ arrow by arrow, δ_Z is read
off Δ₂, and Ω's outer actions descend from Z's.  It takes Ω and λ_π
from the reduction of Z⋊G₂ to R = {(x₀, y)}, x₀ the base of each
G₂-orbit of X, and builds Z⋊G₂ itself only when a caller reads it.  It
computes b, the cutoff, the symmetry of b·m and Δ₁₂ on one leg of Z
instead of on the arrows of Z⋊G₂.  The checks and sweeps that the lemmas replace live
here as oracles: wherever `compose` passes, the oracles must pass too and
agree with its values and report lines.  A tampered entry of each table
that `compose` still certifies must fail its stage or line, naming the
entry.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache

import pytest

import gcorr as gc
from gcorr import catalog, composition
from gcorr.cohomology import (
    Cocycle1,
    check_cocycle,
    coboundary_residual,
    decompose_multiplicative,
    invariant_probability_family,
)
from gcorr.composition import CompositionStageError, compose, transversal
from gcorr.groupoids import (
    ActionComposition,
    GSpaceAction,
    action_violations,
    bispace_violations,
    orbit_space,
)
from gcorr.measures import (
    check_haar,
    default_cutoff,
    disintegration_residual,
    invariance_residual,
    is_symmetric,
    push_down,
    quotient_family,
    unit_measure,
)
from gcorr.randgen import random_pair
from gcorr.util import adev, all_exact, rdev
from tests.conftest import MIX_CAPS, CountingMapping, coset_ladder_pair, is_unit_arrow, ladder_pair, scaled_family
from tests.test_composition import weighted_middle_pair

LADDERS = (2, 5, 8, 16)
NAMES = (
    list(catalog.EXAMPLE_NAMES)
    + [f"mix-{i}" for i in range(40)]
    + [f"ladder-{n}" for n in LADDERS]
)


@lru_cache(maxsize=None)
def _pair(name: str):
    if name.startswith("mix-"):
        return random_pair(int(name[4:]), **MIX_CAPS)
    if name.startswith("ladder-"):
        return ladder_pair(int(name[7:]))
    corr_x, corr_y, _ = catalog.example_pair(name)
    return corr_x, corr_y


def z_invariance_oracle(values, fp, z_bispace, tg_z_index):
    """The former sweep of the G₁ and G₃ invariance of a function on the
    arrows of Z⋊G₂: every outer pair times the whole middle fibre."""
    fibre = fp.diagonal.groupoid.fibre_dst
    g1_worst = g3_worst = 0.0
    for a1, z in z_bispace.left.pairs():
        z1 = z_bispace.left.table[(a1, z)]
        for a2 in fibre[fp.diagonal.momentum[z]]:
            g1_worst = max(g1_worst, rdev(values[tg_z_index[(z1, a2)]], values[tg_z_index[(z, a2)]]))
    for z, a3 in z_bispace.right.pairs():
        z3 = z_bispace.right.table[(z, a3)]
        for a2 in fibre[fp.diagonal.momentum[z]]:
            g3_worst = max(g3_worst, rdev(values[tg_z_index[(z3, a2)]], values[tg_z_index[(z, a2)]]))
    return g1_worst, g3_worst


def _line(report, name):
    (line,) = [c for c in report.checks if c.name == name]
    return line


def assert_z_is_the_leg_product(res):
    """The former `check_z_product`: r_Z(x, y) = r_X(x), s_Z(x, y) = s_Y(y),
    and a·(x, y) = (a·x, y), (x, y)·c = (x, y·c) on exactly the composable
    pairs of Z's outer actions."""
    x_left, y_right = res.corr_x.space.left, res.corr_y.space.right
    left, right, pairs = res.z_bispace.left, res.z_bispace.right, res.fp.pairs
    assert left.momentum == tuple(x_left.momentum[x] for x, _ in pairs)
    assert right.momentum == tuple(y_right.momentum[y] for _, y in pairs)
    assert left.table.keys() == set(left.pairs())
    assert right.table.keys() == set(right.pairs())
    for (a, z), q in left.table.items():
        x, y = pairs[z]
        assert pairs[q] == (x_left.table[(a, x)], y)
    for (z, c), q in right.table.items():
        x, y = pairs[z]
        assert pairs[q] == (x, y_right.table[(y, c)])


def _assert_oracles_pass(res, tol=1e-9):
    """Every check and sweep that a lemma replaced passes on `res`, and no
    line reads a smaller residual than its oracle."""
    exact = all_exact(res.delta_z.value)
    # Z's and Ω's tables are built by lemma, not by `make_action`, so both
    # action sweeps run here as well as the bispace sweep that assumes them
    assert_z_is_the_leg_product(res)
    for space in (res.z_bispace, res.omega):
        assert action_violations(space.left) == []
        assert action_violations(space.right) == []
        assert bispace_violations(space) == []
    # the former `check_chi_pullback`: χ(z, γ) = α₂(γ) on every arrow
    chi2 = res.corr_x.right_haar
    assert len(res.tg_z_index) == res.tg_z.n_arrows
    assert all(res.chi.w(k) == chi2.w(a) for (_, a), k in res.tg_z_index.items())
    assert check_haar(res.tg_z, res.chi.family) == (0.0, None)
    sweep, _ = check_cocycle(res.delta_z)
    assert gc.passes(sweep, exact, tol)
    assert sweep <= _line(res.report, "delta_z_cocycle").residual
    g1, g3 = z_invariance_oracle(res.delta_z.value, res.fp, res.z_bispace, res.tg_z_index)
    assert g1 == 0.0
    assert g3 == _line(res.report, "delta_z_right_invariance").residual


@pytest.mark.parametrize("name", NAMES)
def test_oracles_pass_where_transport_passes(name):
    _assert_oracles_pass(compose(*_pair(name)))


@pytest.mark.parametrize("name", NAMES)
def test_oracles_pass_on_float_input(name):
    corr_x, corr_y = _pair(name)
    res = compose(scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False))
    _assert_oracles_pass(res)


def test_compose_never_reads_the_middle_composition(monkeypatch):
    """Z⋊G₂ is only ever read through its arrows: its memory is O(arrows)."""
    original = composition.transformation_groupoid

    def counting(act: GSpaceAction):
        tg, idx = original(act)
        if act.side == "right":  # the diagonal action, i.e. Z⋊G₂
            tg = dataclasses.replace(tg, comp=CountingMapping(tg.comp))
        return tg, idx

    monkeypatch.setattr(composition, "transformation_groupoid", counting)
    res = compose(*ladder_pair(12))
    assert isinstance(res.tg_z.comp, CountingMapping) and res.tg_z.n_arrows == 12**3
    assert res.tg_z.comp.reads == 0
    assert isinstance(res.tg_z.comp.inner, ActionComposition)
    assert res.tg_z.comp[(0, 0)] == 0 and res.tg_z.comp.reads == 1  # the counter counts


# ---------------------------------------------------------------------------
# tampered intermediates: each fails the stage or line that reads it


def _wrap(monkeypatch, name, tamper):
    original = getattr(composition, name)
    monkeypatch.setattr(composition, name, lambda *args: tamper(original(*args)))


@pytest.mark.parametrize("name", ["induction-finite", "mix-3", "ladder-5"])
def test_tampered_delta_z_value_fails_build_b(monkeypatch, name):
    """δ_Y off Δ₂ at one arrow: B, the p-average of δ_Y⁻¹, no longer splits
    it, and the split guard of `build_b` names that arrow."""
    seen = {}

    def tamper(delta_z):
        values = list(delta_z.value)
        k = delta_z.groupoid.n_arrows // 2
        values[k] *= 2
        seen["witness"] = delta_z.groupoid.arrow_ids[k]
        return Cocycle1(delta_z.groupoid, tuple(values))

    _wrap(monkeypatch, "build_delta_z", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(*_pair(name))
    assert info.value.stage == "build_b"
    assert info.value.cause.witness == (seen["witness"],)


@pytest.mark.parametrize("name", ["ladder-5", "mix-3"])
def test_tampered_lambda_pi_names_its_point(monkeypatch, name):
    original = composition.quotient_family
    seen = {}

    def tamper(chi, orbits):
        family = original(chi, orbits)
        weights = list(family.weight)
        k = len(weights) // 2
        weights[k] *= 2
        seen["witness"] = family.total_ids[k]
        return dataclasses.replace(family, weight=tuple(weights))

    monkeypatch.setattr(composition, "quotient_family", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(*_pair(name))
    line = _line(info.value.report, "lambda_pi_rep_independence")
    assert not line.passed and line.witness == seen["witness"]


@pytest.mark.parametrize("name", ["ladder-5", "coset-8-4"])
def test_delta1_not_invariant_fails_well_definedness(name):
    """Δ₁ times 2 at one (a, x) with x off its G₂-orbit representative:
    Δ₁₂ is no longer well defined, and the line names that arrow."""
    corr_x, corr_y = _leg_pair(name + "/exact")
    values = list(corr_x.adjoining.value)
    (a, x), k = next(
        (key, k) for key, k in corr_x.left_tg_index.items()
        if key[1] != 0 and not is_unit_arrow(corr_x.left, key[0])
    )
    values[k] *= 2
    bad_x = gc.make_correspondence(
        corr_x.left_haar, corr_x.right_haar, corr_x.space, corr_x.family, values, check=False
    )
    with pytest.raises(CompositionStageError) as info:
        compose(bad_x, corr_y)
    line = _line(info.value.report, "delta12_well_defined")
    assert not line.passed and line.residual == 0.5
    assert line.witness == f"({corr_x.left.arrow_ids[a]}, {corr_x.space.point_ids[x]})"


def test_override_off_one_orbit_names_an_arrow_into_a_representative():
    corr_x, corr_y = _pair("ladder-5")
    res = compose(corr_x, corr_y)
    z = res.orbits.members[0][1]  # not the representative
    bad = list(res.b.value)
    bad[z] *= 3
    with pytest.raises(CompositionStageError) as info:
        compose(corr_x, corr_y, b_values=bad)
    assert info.value.stage == "build_b"
    line = _line(info.value.report, "override_b_splits_delta")
    assert not line.passed
    rep = res.orbits.reps[0]
    (_, a), = [key for key in res.tg_z_index if key[0] == rep and res.fp.diagonal.table[key] == z]
    assert line.witness == f"({res.fp.point_ids[rep]};{corr_x.right.arrow_ids[a]})"


def test_orbit_varying_override_composes_and_passes_every_line():
    """b′ = ρ·b with ρ(o) = o + 1 on the orbit o splits δ_Z as b does but
    is not G₁-invariant: `compose` accepts it, every line passes, and Δ₁₂
    moves by ρ∘src/ρ∘dst."""
    corr_x, corr_y = _pair("ladder-5")
    res = compose(corr_x, corr_y)
    b = [(res.orbits.proj[z] + 1) * v for z, v in enumerate(res.b.value)]
    assert invariance_residual(res.z_bispace.left, b)[0] > 0  # premise: b′ moves under G₁
    over = compose(corr_x, corr_y, b_values=b)
    assert all(c.passed for c in over.report.checks)
    assert "override_b_ratio_orbit_constant" in [c.name for c in over.report.checks]
    left = over.omega.left
    for (a, o), k in over.composite.left_tg_index.items():
        assert over.delta12.value[k] == res.delta12.value[k] * (o + 1) / (left.table[(a, o)] + 1)


def test_ratio_off_one_member_names_that_point():
    """A float override at scale 10⁻¹², 1 % off at one orbit member, fails
    override_b_ratio_orbit_constant alone, naming that member.  `rdev` is
    absolute below 1, so the split line reads the 10⁻¹⁴ difference of the
    tiny values and passes, while the ratios b/b′ ≈ 10¹² deviate
    relatively.  The outer groupoids are trivial, so Δ₁₂ is 1 whatever
    the override is, and mu_disintegration too compares values below 1."""
    corr_x, corr_y = weighted_middle_pair()
    res = compose(corr_x, corr_y)
    z = res.orbits.members[0][1]  # not the representative
    bad = [1e-12 * float(v) for v in res.b.value]
    bad[z] *= 1.01
    with pytest.raises(CompositionStageError) as info:
        compose(corr_x, corr_y, b_values=bad)
    assert [c.name for c in info.value.report.failures()] == ["override_b_ratio_orbit_constant"]
    line = _line(info.value.report, "override_b_ratio_orbit_constant")
    assert line.residual == pytest.approx(0.01 / 1.01)
    assert line.witness == res.fp.point_ids[z]
    assert _line(info.value.report, "override_b_splits_delta").residual < 1e-13


@pytest.mark.parametrize("name", ["induction-finite", "mix-3", "ladder-5"])
def test_tampered_b_names_an_arrow_at_its_unit(monkeypatch, name):
    """B doubled at one unit of G₂⋉Y: b_ratio_relation names an arrow of
    G₂⋉Y into or out of that unit."""
    corr_x, corr_y = _pair(name)
    tg = corr_y.left_tg
    u = next(tg.src[a] for a in range(tg.n_arrows) if tg.src[a] != tg.dst[a])

    def tamper(b):
        values = list(b.value)
        values[u] *= 2
        return dataclasses.replace(b, value=tuple(values))

    _wrap(monkeypatch, "build_b", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(corr_x, corr_y)
    line = _line(info.value.report, "b_ratio_relation")
    assert not line.passed and line.residual > 0
    touching = {tg.arrow_ids[a] for a in range(tg.n_arrows) if u in (tg.src[a], tg.dst[a]) and tg.src[a] != tg.dst[a]}
    assert line.witness in touching


@pytest.mark.parametrize("name", ["induction-finite", "mix-3", "ladder-5"])
def test_tampered_mu_names_a_member_of_its_orbit(monkeypatch, name):
    """μ doubled on one orbit: mu_disintegration names a point of Z in
    that orbit."""
    original = composition.push_down
    corr_x, corr_y = _pair(name)
    res = compose(corr_x, corr_y)
    o = res.orbits.n_orbits // 2

    def tamper(orbits, *factors):
        weight = list(original(orbits, *factors))
        weight[o] *= 2
        return tuple(weight)

    monkeypatch.setattr(composition, "push_down", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(corr_x, corr_y)
    line = _line(info.value.report, "mu_disintegration")
    assert not line.passed and line.residual > 0
    assert line.witness in {res.fp.point_ids[z] for z in res.orbits.members[o]}


# ---------------------------------------------------------------------------
# leg identities against the former sweeps of Z⋊G₂


def delta_z_pullback_residual(res):
    """The former transport check of δ_Z, arrow by arrow over Z⋊G₂: the
    worst `rdev` of δ_Z(z, γ) from Δ₂(γ⁻¹, y)."""
    corr_y, g2 = res.corr_y, res.corr_y.left
    return max(
        (rdev(res.delta_z.value[k], corr_y.adjoining_at(g2.inv[a], res.fp.pairs[z][1]))
         for (z, a), k in res.tg_z_index.items()),
        default=0.0,
    )


def b_oracle(res):
    """b split on Z⋊G₂ itself, as `build_b` did before it read the y leg."""
    return decompose_multiplicative(res.delta_z, invariant_probability_family(res.tg_z, res.chi))


def lambda_pi_oracle(res):
    """The former sweep of lambda_pi_rep_independence: the fibre measure
    recomputed from every base point, not just the representative."""
    fp, chi2 = res.fp, res.corr_x.right_haar
    worst = 0.0
    for z in range(len(fp.pairs)):
        acc = {}
        for a in chi2.groupoid.fibre_dst[fp.diagonal.momentum[z]]:
            tgt = fp.diagonal.table[(z, a)]
            acc[tgt] = acc.get(tgt, 0) + chi2.w(a)
        for tgt, w in acc.items():
            worst = max(worst, adev(w, res.lambda_pi.weight[tgt]))
    return worst


def delta12_oracle(res, b):
    """The former member loop of `build_delta12`: Δ₁₂ at each orbit
    representative, and the worst disagreement of the other members."""
    left, orbits, x_of = res.z_bispace.left, res.orbits, [x for x, _ in res.fp.pairs]

    def candidate(a, z):
        return b[z] * res.corr_x.adjoining_at(a, x_of[z]) / b[left.table[(a, z)]]

    values, worst = [], 0.0
    for (a, o), k in res.composite.left_tg_index.items():
        values.append(candidate(a, orbits.reps[o]))
        for z in orbits.members[o]:
            worst = max(worst, rdev(candidate(a, z), values[-1]))
    return tuple(values), worst


def oracle_lines(res, tol=1e-9):
    """Name -> residual of each line of `compose`'s own report, computed
    on Z⋊G₂ as before the leg identities; and the oracle b, e, μ, Δ₁₂."""
    b = b_oracle(res).value
    e = default_cutoff(res.chi)
    m = res.m.weight
    bm = tuple(x * y for x, y in zip(b, m))
    mu = push_down(res.orbits, tuple(x * y for x, y in zip(e, b)), m)
    delta12, wd = delta12_oracle(res, b)
    cocycle = check_cocycle(res.corr_y.adjoining)[0]
    lines = {
        "m_right_invariance": invariance_residual(res.z_bispace.right, m)[0],
        "lambda_pi_rep_independence": lambda_pi_oracle(res),
        "delta_z_cocycle": max(cocycle, delta_z_pullback_residual(res)),
        "delta_z_right_invariance": z_invariance_oracle(
            res.delta_z.value, res.fp, res.z_bispace, res.tg_z_index)[1],
        "b_ratio_relation": coboundary_residual(res.delta_z, b_oracle(res))[0],
        "b_right_invariance": invariance_residual(res.z_bispace.right, b)[0],
        "mu_disintegration": disintegration_residual(mu, res.lambda_pi.weight, res.orbits, bm)[0],
        "delta12_well_defined": wd,
    }
    symmetric = gc.passes(is_symmetric(unit_measure(res.tg_z, bm), res.chi)[0], all_exact(bm) and res.chi.exact, tol)
    return lines, {"b": b, "e": e, "mu": mu, "delta12": delta12, "symmetric": symmetric}


def _leg_pair(name):
    base, kind = name.split("/")
    if base.startswith("coset-"):
        corr_x, corr_y = coset_ladder_pair(*map(int, base[6:].split("-")))
    else:
        corr_x, corr_y = _pair(base)
    if kind == "float":
        corr_x, corr_y = scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False)
    return corr_x, corr_y


LEG_NAMES = [
    f"{base}/{kind}"
    for base in ["ladder-4", "ladder-10", "coset-12-3", "coset-8-4"]
    + list(catalog.EXAMPLE_NAMES) + [f"mix-{i}" for i in range(40)]
    for kind in ("exact", "float")
]


@pytest.mark.parametrize("name", LEG_NAMES)
def test_leg_values_and_lines_equal_the_middle_oracles(name):
    """b, e, λ_π, μ and Δ₁₂ equal their Z⋊G₂ oracles entry for entry, and
    every line of `compose`'s own report has the oracle's name, order,
    verdict and residual.  The one residual that moved is that of
    delta12_well_defined on float data: it measures the G₂ invariance of
    Δ₁ on X, so the rounding of b·Δ₁/b at other members no longer enters;
    there both pass."""
    corr_x, corr_y = _leg_pair(name)
    res = compose(corr_x, corr_y)
    lines, values = oracle_lines(res)
    assert res.b.value == values["b"]
    assert res.e == values["e"]
    assert res.mu.weight == values["mu"]
    assert res.delta12.value == values["delta12"]
    assert lines["lambda_pi_rep_independence"] == 0.0  # λ_π is base-point free
    assert values["symmetric"]
    own = [c for c in res.report.checks if not c.name.startswith("composite_")]
    assert [c.name for c in own] == list(lines)
    for line in own:
        assert line.passed, line.render()
        if line.name == "delta12_well_defined" and name.endswith("/float"):
            assert line.residual <= lines[line.name] <= 1e-9
        else:
            assert line.residual == lines[line.name], line.name


def omega_oracle(res):
    """The former Ω: `orbit_space` of the diagonal action
    (x, y)·γ = (x·γ, γ⁻¹·y), a union-find over every arrow of Z⋊G₂.

    Lemma (balanced product by stabilisers): with x = x₀·t_x for the base
    x₀ of x's G₂-orbit, (x, y) = (x₀, t_x·y)·t_x, and (x₀, y)·γ lies in
    R = {(x₀, y)} iff γ ∈ Stab(x₀).  So each orbit of Z is that of one
    Stab(x₀)-orbit of R, Ω ≅ ⊔_{[x₀]} Stab(x₀)\\Y_{s(x₀)}, and choosing
    the smallest id of each class orders the orbits as this sweep does.
    """
    return orbit_space(res.fp.diagonal)


def lambda_pi_family_oracle(res):
    """The former λ_π: `quotient_family` of χ on Z⋊G₂, the Haar mass of
    the arrows from each point into its orbit's representative.

    Lemma (orbit–stabiliser): those arrows γ ∈ G₂^{m(r)} with r·γ = z form
    a coset of the stabiliser of z, so there are |G₂^{m(z)}|/|[z]| of
    them, each of weight w₂(m(z)) by left invariance of α₂; and the sweep
    adds them in sequence, as `build_lambda_pi` adds its copies.
    """
    return quotient_family(res.chi, res.orbits)


LEMMA_NAMES = [
    f"{base}/{kind}"
    for base in list(catalog.EXAMPLE_NAMES) + [f"mix-{i}" for i in range(40)]
    + ["ladder-4", "ladder-10", "ladder-32"] + [f"coset-24-{d}" for d in (2, 3, 4, 6)]
    for kind in ("exact", "float")
]


@pytest.mark.parametrize("name", LEMMA_NAMES)
def test_omega_and_lambda_pi_equal_the_middle_oracles(name):
    """Ω from X's orbits and their stabilisers has the ids, projection,
    representatives and order of `orbit_space` on the diagonal action, and
    λ_π from the orbit–stabiliser sum is bit for bit `quotient_family`
    on Z⋊G₂."""
    res = compose(*_leg_pair(name))
    oracle = omega_oracle(res)
    assert res.orbits.orbit_ids == oracle.orbit_ids
    assert res.orbits.proj == oracle.proj
    assert res.orbits.reps == oracle.reps
    family = lambda_pi_family_oracle(res)
    assert [repr(w) for w in res.lambda_pi.weight] == [repr(w) for w in family.weight]


def test_middle_reduction_has_one_arrow_per_point_on_the_ladder():
    """On the ladder G₂ acts freely on X, so every stabiliser is trivial
    and the reduction to R has n points and n identity arrows; on the
    coset ladder (24, 4) it has |Stab| = 4 arrows at each of its 6 points."""
    corr_x, corr_y = ladder_pair(12)
    fp = gc.fibre_product(corr_x.space.right, corr_y.space.left)
    red = composition.build_middle_groupoid(fp, transversal(corr_x.space.right), corr_x.right_haar)
    assert red.groupoid.n_units == red.groupoid.n_arrows == 12
    corr_x, corr_y = coset_ladder_pair(24, 4)
    fp = gc.fibre_product(corr_x.space.right, corr_y.space.left)
    red = composition.build_middle_groupoid(fp, transversal(corr_x.space.right), corr_x.right_haar)
    assert (red.groupoid.n_units, red.groupoid.n_arrows) == (6, 24)


def test_stabiliser_heavy_lambda_pi_counts_the_stabiliser():
    res = compose(*coset_ladder_pair(12, 3))
    assert res.orbits.n_orbits == 4 and all(len(o) == 4 for o in res.orbits.members)
    assert set(res.lambda_pi.weight) == {Fraction(3)}  # |Stab| = 3 arrows of weight 1
    assert set(res.delta_z.value) != {Fraction(1)}  # premise: nontrivial Δ


def test_compose_leaves_delta_z_unbuilt():
    res = compose(*ladder_pair(12))
    assert "delta_z" not in vars(res)
    assert res.delta_z.groupoid is res.tg_z and "delta_z" in vars(res)


def test_compose_leaves_the_middle_structures_unbuilt():
    """None of the n³ structures is built by `compose`: the diagonal table,
    Z⋊G₂ with its index and χ, δ_Z, and Z's outer G₁ table.  Each is
    built when a caller reads it."""
    res = compose(*ladder_pair(16))
    assert "diagonal" not in vars(res.fp)
    assert {"_middle", "chi", "delta_z"}.isdisjoint(vars(res))
    zb = res.z_bispace
    ids, n, r_mom = zb.point_ids, zb.n_points, [zb.r_momentum(z) for z in range(zb.n_points)]
    assert "left" not in vars(zb)  # the bispace's own readers leave the table unbuilt
    assert res.tg_z_index and res.chi.groupoid is res.tg_z and "_middle" in vars(res)
    assert len(zb.left.table) == 16**3 and "left" in vars(zb)
    assert (ids, n, r_mom) == (zb.left.point_ids, zb.left.n_points, list(zb.left.momentum))
    assert "diagonal" in vars(res.fp)


def _leg_table_reads(n):
    """The reads of the four action tables of the legs in one `compose` of
    ladder n, on copies whose tables count their reads."""
    counters = []

    def counted(corr):
        left, right = (
            dataclasses.replace(act, table=CountingMapping(act.table))
            for act in (corr.space.left, corr.space.right)
        )
        counters.extend((left.table, right.table))
        return dataclasses.replace(corr, space=gc.groupoids.Bispace(left, right))

    corr_x, corr_y = ladder_pair(n)
    compose(counted(corr_x), counted(corr_y))
    return sum(c.reads for c in counters)


def test_compose_reads_the_leg_tables_n_squared_times():
    """Doubling n multiplies |Z| and the leg tables by 4 and Z⋊G₂ by 8;
    `compose` reads the leg tables like the former."""
    small, large = _leg_table_reads(16), _leg_table_reads(32)
    assert 3.5 * small < large <= 4.5 * small, (small, large)


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def _fraction_ops_of_compose(monkeypatch, n):
    """The Fraction sums, differences, products and quotients of one
    `compose` of ladder n."""
    corr_x, corr_y = ladder_pair(n)
    count = [0]

    def counted(op):
        def wrapper(*args):
            count[0] += 1
            return op(*args)
        return wrapper

    with monkeypatch.context() as patch:
        for name in _ARITHMETIC:
            patch.setattr(Fraction, name, counted(getattr(Fraction, name)))
        compose(corr_x, corr_y)
    return count[0]


def test_compose_makes_no_scalar_pass_over_the_middle_arrows(monkeypatch):
    """Doubling n multiplies |Z| and |G₂⋉Y| by 4 and the arrows of Z⋊G₂
    by 8; the Fraction arithmetic of `compose` grows like the former."""
    small, large = (_fraction_ops_of_compose(monkeypatch, n) for n in (8, 16))
    assert large < 5 * small
    assert large < 2 * 16**3  # fewer than two operations per arrow of Z⋊G₂ in all
