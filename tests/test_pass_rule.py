"""The one pass rule, `report.passes`, at every site that judges a residual.

Each site below once took its verdict by a tolerance rule of its own.
`SITES` maps a site to a probe: given a perturbation factor of its input,
the probe returns (residual, passed) as the site computes and judges them
at the default tolerance.  At every site an exact input with a nonzero
residual fails, and on float input the verdict is `residual <= tol`:
a sweep of perturbations passes at residuals up to `DEFAULT_TOL` and
fails just above it.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

import gcorr as gc
from gcorr.cohomology import NotACocycle, coboundary_residual
from gcorr.composition import CompositionStageError, build_b, build_delta_z, build_mu, leg_haar
from gcorr.cstar import verify_theorem
from gcorr.groupoids import OrbitSpace, orbit_space
from gcorr.measures import (
    HaarSystem,
    MeasureFamily,
    NotInvariant,
    cutoff_residual,
    default_cutoff,
    disintegration_residual,
    push_down,
    quotient_family,
)
from gcorr.randgen import SplitMix64, random_groupoid, random_haar
from gcorr.report import DEFAULT_TOL, passes
from tests.conftest import ladder_pair, scaled_family, unit_action

EXACT_FACTOR = 1 + Fraction(1, 10**12)  # an exact input off by a residual far below tol


def _ladder(exact: bool):
    corr_x, corr_y = ladder_pair(3)
    if exact:
        return corr_x, corr_y
    return scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False)


def _line(report, name):
    (line,) = [c for c in report.checks if c.name == name]
    return line.residual, line.passed


def _tampered_adjoining(corr, factor):
    """corr with its adjoining value at the first non-identity arrow times factor."""
    tg = corr.left_tg
    values = list(corr.adjoining.value)
    k = next(a for a in range(tg.n_arrows) if a not in tg.unit_arrow)
    values[k] = values[k] * factor
    return gc.make_correspondence(
        corr.left_haar, corr.right_haar, corr.space, corr.family, values,
        check=False, left_tg=(tg, corr.left_tg_index),
    )


def adjoining_cocycle(factor, exact, tol=DEFAULT_TOL):
    corr_x, _ = _ladder(exact)
    return _line(gc.validate(_tampered_adjoining(corr_x, factor), tol), "adjoining_cocycle")


def delta_z_cocycle(factor, exact, tol=DEFAULT_TOL):
    corr_x, corr_y = _ladder(exact)
    try:
        report = gc.compose(corr_x, _tampered_adjoining(corr_y, factor), tol=tol).report
    except CompositionStageError as exc:
        report = exc.report
    return _line(report, "delta_z_cocycle")


def build_mu_symmetry(factor, exact, tol=DEFAULT_TOL):
    """The symmetry of B·β on G₂⋉Y, `build_mu`'s stage error, with B·β off
    by `factor` at one point."""
    corr_x, corr_y = _ladder(exact)
    res = gc.compose(corr_x, corr_y)
    haar_y = leg_haar(corr_y)
    b_y = build_b(build_delta_z(corr_y), corr_y.left_tg, haar_y)
    bm_y = [b * w for b, w in zip(b_y.value, corr_y.family.weight)]
    bm_y[0] *= factor
    residual, _ = gc.is_symmetric(gc.unit_measure(haar_y.groupoid, bm_y), haar_y)
    try:
        build_mu(res.m, res.b, res.e, res.lambda_pi, res.orbits, res.omega, tuple(bm_y), haar_y, tol)
    except NotInvariant:
        return residual, False
    return residual, True


def _pair_groupoid_data(unit_weights, exact):
    g = gc.pair_groupoid(["1", "2"])
    w = tuple(Fraction(x) if exact else float(x) for x in unit_weights)
    return g, gc.haar_from_unit_weights(g, w), w


def push_cutoff(factor, exact, tol=DEFAULT_TOL):
    """`push_measure_down` with a symmetric m and the cutoff off by
    `factor` at one unit."""
    g, haar, w = _pair_groupoid_data((Fraction(1, 4), Fraction(1, 2)), exact)
    m = gc.unit_measure(g, w)  # m ∝ the unit weights: symmetric
    e = list(default_cutoff(haar))
    e[0] *= factor
    residual = cutoff_residual(haar, e)
    try:
        gc.push_measure_down(m, haar, orbit_space(unit_action(g)), e, tol)
    except ValueError:
        return residual, False
    return residual, True


def push_disintegration(factor, exact, tol=DEFAULT_TOL):
    """`push_measure_down`'s postcondition μ∘[λ] = m.  On float data m is
    off symmetric by `factor` at the light unit of a two-scale pair
    groupoid, so the symmetry residual, divided by the largest weight,
    passes while the relative disintegration residual is about the
    perturbation.  Exact data with any asymmetry stops at the symmetry
    guard, so there a symmetric m is pushed along orbits finer than the
    groupoid's, over which it does not disintegrate."""
    g, haar, w = _pair_groupoid_data((10**6, 1), exact)
    if exact:
        m = gc.unit_measure(g, w)
        orbits = OrbitSpace(("o1", "o2"), (0, 1), (0, 1))
    else:
        m = gc.unit_measure(g, (w[0], w[1] * factor))
        orbits = orbit_space(unit_action(g))
    mu = push_down(orbits, default_cutoff(haar), m.weight)
    residual, _ = disintegration_residual(mu, quotient_family(haar, orbits).weight, orbits, m.weight)
    try:
        gc.push_measure_down(m, haar, orbits, tol=tol)
    except NotInvariant as exc:
        assert str(exc).startswith("push-down failed to disintegrate m")
        return residual, False
    return residual, True


def decompose_guard(factor, exact):
    """`decompose_multiplicative` on a coboundary off by `factor` at one arrow."""
    g, haar, _ = _pair_groupoid_data((1, 1), exact)
    t = gc.Cochain0(g, (Fraction(1), Fraction(2)) if exact else (1.0, 2.0))
    values = list(gc.d0(t).value)
    k = next(a for a in range(g.n_arrows) if a not in g.unit_arrow)
    values[k] *= factor
    delta = gc.Cocycle1(g, tuple(values))
    try:
        b = gc.decompose_multiplicative(delta, gc.invariant_probability_family(g, haar))
    except NotACocycle as exc:
        return exc.deviation, False
    return coboundary_residual(delta, b)[0], True


def gram_isometry(factor, exact, tol=DEFAULT_TOL):
    """`GramReport`'s isometry verdict with one image entry off by `factor`."""
    corr_x, corr_y = _ladder(exact)
    res = gc.compose(corr_x, corr_y)
    bad_b = list(res.b.value)
    bad_b[0] = float(bad_b[0]) * factor
    hacked = dataclasses.replace(res, b=dataclasses.replace(res.b, value=tuple(bad_b)))
    gram = verify_theorem(corr_x, corr_y, hacked, trials=0, seed=0, tol=tol)
    return gram.isometry_max_dev, gram.isometry_ok


SITES = {
    "adjoining_cocycle": adjoining_cocycle,
    "delta_z_cocycle": delta_z_cocycle,
    "build_mu_symmetry": build_mu_symmetry,
    "push_cutoff": push_cutoff,
    "push_disintegration": push_disintegration,
    "decompose_guard": decompose_guard,
    "gram_isometry": gram_isometry,
}
# the certificate computes in floats on any input, so its deviations are
# judged as float data even when the correspondences are exact
FLOAT_ONLY = {"gram_isometry"}
FIXED_TOL = {"decompose_guard"}  # the cohomology layer takes no tol


@pytest.mark.parametrize("site", sorted(set(SITES) - FLOAT_ONLY))
def test_exact_input_with_a_nonzero_residual_fails(site):
    residual, passed = SITES[site](EXACT_FACTOR, exact=True)
    assert residual > 0 and not passed


def test_the_certificate_judges_exact_input_as_float():
    residual, passed = gram_isometry(1 + 1e-12, exact=True)
    assert 0 < residual <= DEFAULT_TOL and passed


@pytest.mark.parametrize("site", sorted(SITES))
def test_float_input_passes_up_to_tol_and_fails_just_above(site):
    """Perturbations 2 % apart from 0.14 to 7 times the tolerance: every
    verdict is `residual <= DEFAULT_TOL`, and the sweep meets both
    verdicts within 10 % of the tolerance."""
    probe = SITES[site]
    below, above = 0.0, math.inf
    for k in range(-100, 101):
        residual, passed = probe(1 + DEFAULT_TOL * 1.02**k, exact=False)
        assert passed == passes(residual, False, DEFAULT_TOL), (k, residual)
        if passed:
            below = max(below, residual)
        else:
            above = min(above, residual)
    assert 0.9 * DEFAULT_TOL <= below <= DEFAULT_TOL < above <= 1.1 * DEFAULT_TOL


@pytest.mark.parametrize("site", sorted(set(SITES) - FIXED_TOL))
def test_a_float_residual_passes_at_tol_equal_to_it(site):
    """The boundary itself, where the site takes `tol`: a float residual
    passes at a tolerance equal to it and fails one ulp below."""
    probe = SITES[site]
    residual, _ = probe(1 + 1e-6, exact=False)
    assert residual > 0
    assert probe(1 + 1e-6, exact=False, tol=residual)[1]
    assert not probe(1 + 1e-6, exact=False, tol=math.nextafter(residual, 0))[1]


# ---------------------------------------------------------------------------
# the orbit-constancy guard of `invariant_probability_family` is exact


@pytest.mark.parametrize("seed", range(10))
def test_float_haar_systems_pass_the_exact_orbit_guard(seed):
    rng = SplitMix64(seed)
    g = random_groupoid(rng, 24)
    unit_w = tuple(float(rng.fraction()) for _ in range(g.n_units))
    profile = tuple(float(rng.fraction()) for _ in range(g.n_units))
    for haar in (
        gc.haar_from_unit_weights(g, unit_w),
        gc.make_haar(g, tuple(float(w) for w in random_haar(rng, g).family.weight)),
    ):
        assert not haar.exact
        for F in (None, profile):
            p = gc.invariant_probability_family(g, haar, F)
            assert len(p.weight) == g.n_arrows


def test_a_fibre_mass_off_by_1e_13_names_the_arrow():
    """A Haar system built without `make_haar`, whose two fibres over one
    orbit differ in mass by 1e-13, is rejected at an arrow between them."""
    g = gc.pair_groupoid(["1", "2"])
    weights = [1.0] * g.n_arrows
    weights[g.unit_arrow[1]] += 1e-13
    haar = HaarSystem(g, MeasureFamily(g.arrow_ids, g.unit_ids, g.dst, tuple(weights)))
    with pytest.raises(gc.cohomology.GcorrError, match="not orbit-constant") as info:
        gc.invariant_probability_family(g, haar)
    joining = [g.arrow_ids[a] for a in range(g.n_arrows) if g.src[a] != g.dst[a]]
    assert any(f"at {arrow} " in str(info.value) for arrow in joining)
