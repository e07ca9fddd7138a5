from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcorr as gc
from gcorr import catalog, cohomology
from gcorr.cohomology import (
    NotACocycle,
    _split_sweep,
    _sweep_cocycle,
    coboundary_residual,
)
from gcorr.composition import compose
from gcorr.groupoids import make_action, transformation_groupoid
from gcorr.randgen import SplitMix64, random_groupoid, random_haar, random_pair
from gcorr.util import rdev
from tests.conftest import probability_family_violation, scaled_family


class TestInvariantProbabilityFamily:
    def test_cyclic_uniform(self, z3):
        p = gc.invariant_probability_family(z3, gc.counting_haar(z3))
        assert p.weight == (F(1, 3),) * 3
        assert probability_family_violation(p) == 0

    def test_pair_groupoid_weighted(self, pair2):
        # w = (1, 2) by source unit: h ≡ 3, fibre weights (1/3, 2/3)
        haar = gc.haar_from_unit_weights(pair2, (F(1), F(2)))
        p = gc.invariant_probability_family(pair2, haar)
        for u in range(2):
            fibre = {pair2.src[a]: p.weight[a] for a in pair2.fibre_dst[u]}
            assert fibre == {0: F(1, 3), 1: F(2, 3)}
        assert probability_family_violation(p) == 0

    def test_profile_scale_cancels(self, z3):
        haar = gc.counting_haar(z3)
        p1 = gc.invariant_probability_family(z3, haar, F=(F(3, 7),))
        p2 = gc.invariant_probability_family(z3, haar, F=(F(6, 7),))
        assert p1.weight == p2.weight

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_instances_exact(self, seed):
        rng = SplitMix64(seed)
        g = random_groupoid(rng, 30)
        haar = random_haar(rng, g)
        fprof = tuple(rng.fraction() for _ in range(g.n_units))
        p = gc.invariant_probability_family(g, haar, F=fprof)
        assert probability_family_violation(p) == 0  # exact rationals


class TestCheckCocycle:
    def test_unit_arrow_witness(self, pair2):
        c = gc.Cocycle1(pair2, (F(2), F(1), F(1), F(2)))
        worst, witness = gc.check_cocycle(c)
        assert not gc.passes(worst, True) and witness is not None

    def test_d0_image_always_passes(self, pair2):
        t = gc.Cochain0(pair2, (F(2), F(5)))
        assert gc.check_cocycle(gc.d0(t)) == (0.0, None)

    def test_multiplicative_positive_required(self, z2):
        with pytest.raises(Exception):
            gc.Cocycle1(z2, (F(1), F(-1)))
        with pytest.raises(Exception):
            gc.Cochain0(z2, (F(0),))


class TestD0:
    def test_constant_cochain_trivial(self, z3):
        assert set(gc.d0(gc.Cochain0(z3, (F(4),))).value) == {1}

    def test_pair_groupoid_ratio(self, pair2):
        t = gc.Cochain0(pair2, (F(1), F(5)))
        c = gc.d0(t)
        for a in range(4):
            assert c.value[a] == t.value[pair2.src[a]] / t.value[pair2.dst[a]]


class TestSolveCoboundary:
    def test_pair_groupoid_recovers_up_to_constant(self, pair2):
        p = gc.invariant_probability_family(pair2, gc.counting_haar(pair2))
        t = gc.Cochain0(pair2, (F(1), F(5)))
        c = gc.d0(t)
        b = gc.decompose_multiplicative(c, p)
        assert coboundary_residual(c, b) == (0.0, None)
        # differs from t by an orbit-constant factor
        ratio = {b.value[u] / t.value[u] for u in range(2)}
        assert len(ratio) == 1

    def test_transformation_groupoid_of_z3_on_six_points(self, z3):
        # Z/3 translating two copies of itself: 6 points, 18 arrows
        pts = [f"{c}{k}" for c in "ab" for k in range(3)]
        table = {
            (p, a): 3 * (p // 3) + (p % 3 + a) % 3
            for p in range(6)
            for a in range(3)
        }
        act = make_action("right", z3, pts, (0,) * 6, table)
        tg, _ = transformation_groupoid(act)
        haar = gc.counting_haar(tg)
        p = gc.invariant_probability_family(tg, haar)
        rng = SplitMix64(11)
        t = gc.Cochain0(tg, tuple(math.exp(2 * rng.random() - 1) for _ in range(6)))
        c = gc.d0(t)
        b = gc.decompose_multiplicative(c, p)
        assert coboundary_residual(c, b)[0] < 1e-12

    def test_output_class_independent_of_p(self, pair2):
        # two different probability families, same coboundary class
        haar = gc.counting_haar(pair2)
        p1 = gc.invariant_probability_family(pair2, haar)
        p2 = gc.invariant_probability_family(pair2, haar, F=(F(1), F(7)))
        t = gc.Cochain0(pair2, (F(2), F(9)))
        c = gc.d0(t)
        b1 = gc.decompose_multiplicative(c, p1)
        b2 = gc.decompose_multiplicative(c, p2)
        assert gc.d0(b1).value == gc.d0(b2).value == c.value


class TestDecomposeMultiplicative:
    def test_trivial_stays_exact(self, z3):
        p = gc.invariant_probability_family(z3, gc.counting_haar(z3))
        delta = gc.Cocycle1(z3, (F(1),) * 3)
        b = gc.decompose_multiplicative(delta, p)
        assert b.value == (F(1),) and isinstance(b.value[0], F)

    def test_pair_groupoid_geometric_mean(self, pair2):
        # Δ = q∘src / q∘dst with q = (1, 4): b(u) averages Δ⁻¹ over the two
        # arrows into u, b = ((1 + 1/4)/2, (1 + 4)/2) = (5/8, 5/2)
        p = gc.invariant_probability_family(pair2, gc.counting_haar(pair2))
        q = gc.Cochain0(pair2, (F(1), F(4)))
        delta = gc.d0(q)
        b = gc.decompose_multiplicative(delta, p)
        assert b.value == (F(5, 8), F(5, 2))
        assert coboundary_residual(delta, b) == (0.0, None)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_transformation_groupoids(self, seed):
        rng = SplitMix64(seed)
        g = random_groupoid(rng, 50)
        haar = random_haar(rng, g)
        p = gc.invariant_probability_family(g, haar)
        t = gc.Cochain0(g, tuple(rng.fraction() for _ in range(g.n_units)))
        delta = gc.d0(t)
        b = gc.decompose_multiplicative(delta, p)
        assert coboundary_residual(delta, b)[0] < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_non_cocycle_fails_the_split_guard(self, seed):
        """On exact data the p-average splits δ iff δ is a cocycle, so the
        O(arrows) split residual rejects exactly what the pair sweep does."""
        rng = SplitMix64(seed)
        g = random_groupoid(rng, 30)
        p = gc.invariant_probability_family(g, random_haar(rng, g))
        t = gc.Cochain0(g, tuple(rng.fraction() for _ in range(g.n_units)))
        values = list(gc.d0(t).value)
        values[rng.randint(0, g.n_arrows - 1)] *= F(3, 2)
        delta = gc.Cocycle1(g, tuple(values))
        assert gc.check_cocycle(delta)[0] > 0
        with pytest.raises(NotACocycle) as info:
            gc.decompose_multiplicative(delta, p)
        assert info.value.deviation > 0 and info.value.witness[0] in g.arrow_ids

    def test_bm_symmetric_for_quasi_invariant_m(self, pair2):
        """The split cochain turns a strongly quasi-invariant measure into a
        symmetric one."""
        haar = gc.counting_haar(pair2)
        m = gc.unit_measure(pair2, (F(1), F(4)))
        fwd = gc.induced_measure(m, haar, "forward")
        inv = gc.induced_measure(m, haar, "inverse")
        delta = gc.Cocycle1(
            pair2,
            tuple(fwd.weight[a] / inv.weight[a] for a in range(4)),
        )
        assert gc.check_cocycle(delta) == (0.0, None)
        p = gc.invariant_probability_family(pair2, haar)
        b = gc.decompose_multiplicative(delta, p)
        bm = gc.unit_measure(pair2, tuple(b.value[u] * m.weight[u] for u in range(2)))
        assert gc.is_symmetric(bm, haar) == (0.0, None)


def _sweep_oracle(c):
    """The per-pair sweep of the cocycle identity on the values as they
    are: a Fraction (or float) product for every composable pair."""
    g = c.groupoid
    worst = 0.0
    witness = None
    for u in range(g.n_units):
        d = rdev(c.value[g.unit_arrow[u]], 1)
        if d > worst:
            worst, witness = d, (g.arrow_ids[g.unit_arrow[u]],)
    for a, b in g.composable_pairs():
        lhs = c.value[g.comp[(a, b)]]
        d = rdev(lhs, c.value[a] * c.value[b])
        if d > worst:
            worst, witness = d, (g.arrow_ids[a], g.arrow_ids[b])
    return worst, witness


def _split_oracle(c, b):
    """The per-arrow split deviation on the values as they are: a Fraction
    (or float) product for every arrow."""
    g = c.groupoid
    worst, witness = 0.0, None
    for a in range(g.n_arrows):
        s, t = g.src[a], g.dst[a]
        d = rdev(c.value[a] * b.value[t], b.value[s])
        if d > worst:
            worst, witness = d, g.arrow_ids[a]
    return worst, witness


def _pipeline(name, exact=True):
    """(corr_x, corr_y, composite) of a named pair; its float copy, the
    families and adjoining cocycles as JSON floats, with exact=False."""
    kind, _, arg = name.partition("-")
    corr_x, corr_y = catalog.example_pair(arg)[:2] if kind == "catalog" else random_pair(int(arg))
    if not exact:
        corr_x, corr_y = scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False)
    return corr_x, corr_y, compose(corr_x, corr_y)


def _pipeline_cocycles(name, exact=True):
    corr_x, corr_y, res = _pipeline(name, exact)
    return [corr_x.adjoining, corr_y.adjoining, res.delta_z, res.delta12]


def _random_cocycle(seed, exact, where, shift):
    """d0 of a seeded cochain on a random groupoid, its value at arrow
    `where` multiplied by 1 + |shift|."""
    rng = SplitMix64(seed)
    g = random_groupoid(rng, 30)
    # small values make equal deviations, so the first witness is tested
    units = tuple(F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(g.n_units))
    t = gc.Cochain0(g, units if exact else tuple(float(v) for v in units))
    values = list(gc.d0(t).value)
    values[where % g.n_arrows] *= 1 + abs(shift)
    return gc.Cocycle1(g, tuple(values)), t


PIPELINE_PAIRS = [f"catalog-{name}" for name in catalog.EXAMPLE_NAMES] + [
    f"random-{i}" for i in range(10)
]


class TestCocycleSweep:
    """The integer sweep gives the oracle's (worst, witness) bit for bit."""

    @pytest.mark.parametrize("name", PIPELINE_PAIRS)
    def test_pipeline_cocycles_match_oracle(self, name):
        for c in _pipeline_cocycles(name):
            fresh = gc.Cocycle1(c.groupoid, c.value)  # no cached sweep
            assert _sweep_cocycle(fresh) == _sweep_oracle(fresh)

    @pytest.mark.parametrize("name", PIPELINE_PAIRS)
    def test_float_pipeline_cocycles_match_oracle(self, name):
        for c in _pipeline_cocycles(name, exact=False):
            assert all(isinstance(v, float) for v in c.value)
            fresh = gc.Cocycle1(c.groupoid, c.value)
            assert _sweep_cocycle(fresh) == _sweep_oracle(fresh)

    @pytest.mark.parametrize("name", PIPELINE_PAIRS)
    def test_perturbed_and_infinite_float_cocycles_match_oracle(self, name):
        for c in _pipeline_cocycles(name, exact=False):
            for k in {0, c.groupoid.n_arrows // 2, c.groupoid.n_arrows - 1}:
                for bad in (c.value[k] * (1 + 3e-13), c.value[k] * 1.5, math.inf):
                    values = list(c.value)
                    values[k] = bad
                    tampered = gc.Cocycle1(c.groupoid, tuple(values))
                    worst, witness = _sweep_cocycle(tampered)
                    assert (worst, witness) == _sweep_oracle(tampered)
                    assert worst == math.inf if bad == math.inf else worst < math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6),
    )
    def test_perturbed_exact_cocycles_match_oracle(self, seed, where, shift):
        c, _ = _random_cocycle(seed, True, where, shift)
        worst, witness = _sweep_cocycle(c)
        assert (worst, witness) == _sweep_oracle(c)
        assert (worst > 0) == (shift != 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 1e-13, -0.25, 2.0, math.inf]),
    )
    def test_float_cocycles_match_oracle(self, seed, where, shift):
        """Float d0 values carry rounding, so many pairs differ by an ulp."""
        c, _ = _random_cocycle(seed, False, where, shift)
        worst, witness = _sweep_cocycle(c)
        assert (worst, witness) == _sweep_oracle(c)
        assert (worst == math.inf) == (shift == math.inf)

    def test_check_cocycle_applies_tolerance_to_the_cached_sweep(self, pair2):
        c = gc.Cocycle1(pair2, (F(1), 1 + F(1, 10**12), F(1), F(1)))
        worst, witness = gc.check_cocycle(c)
        assert 0 < worst <= 1e-9 and witness is not None
        assert not gc.passes(worst, True)  # exact: no tolerance
        assert gc.passes(worst, False, 1e-9)
        assert gc.check_cocycle(c) == (worst, witness)  # the cached sweep


class TestSplitSweep:
    """The integer split sweep gives the float/Fraction oracle's (worst,
    witness) bit for bit."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("name", PIPELINE_PAIRS)
    def test_pipeline_split_matches_oracle(self, name, exact):
        _, _, res = _pipeline(name, exact)
        assert _split_sweep(res.delta_z, res.b) == _split_oracle(res.delta_z, res.b)
        values = list(res.b.value)
        for k in {0, len(values) - 1}:
            for bad in (values[k] * (1 + 3e-13), values[k] * 2, math.inf):
                tampered = gc.Cochain0(res.b.groupoid, tuple(values[:k] + [bad] + values[k + 1:]))
                assert _split_sweep(res.delta_z, tampered) == _split_oracle(res.delta_z, tampered)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.booleans(),
        st.integers(0, 10**6),
        st.sampled_from([F(0), F(1, 3), F(-2), F(1, 10**13), math.inf]),
    )
    def test_random_split_matches_oracle(self, seed, exact, where, shift):
        c, t = _random_cocycle(seed, exact, where, shift)
        worst, witness = _split_sweep(c, t)
        assert (worst, witness) == _split_oracle(c, t)
        assert (worst == math.inf) == (shift == math.inf)


class TestSweepRunsOncePerCocycle:
    def test_composition_sweeps_each_cocycle_once(self, monkeypatch):
        swept = []

        def counting(c):
            swept.append(c)
            return _sweep_cocycle(c)

        monkeypatch.setattr(cohomology, "_sweep_cocycle", counting)
        corr_x, corr_y, _ = catalog.example_pair("induction-finite")
        res = compose(corr_x, corr_y)
        assert any(v != 1 for v in res.delta_z.value)  # premise: nontrivial Δ
        # δ_Z is certified by transport from Y's adjoining cocycle
        assert sum(c is res.delta_z for c in swept) == 0
        assert sum(c is corr_y.adjoining for c in swept) <= 1
        for i, c in enumerate(swept):
            assert not any(c is other for other in swept[i + 1:])
        # Δ₁₂ is the composite's adjoining cocycle, swept once by the final
        # validate
        assert res.delta12 is res.composite.adjoining
        assert len(swept) == 3
        assert {id(c) for c in swept} == {id(corr_x.adjoining), id(corr_y.adjoining), id(res.delta12)}

