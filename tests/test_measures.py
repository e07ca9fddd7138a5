from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcorr as gc
from gcorr.groupoids import orbit_space
from gcorr.measures import (
    MeasureFamily,
    NotHaar,
    NotInvariant,
    cutoff_residual,
    default_cutoff,
    fibre_integral,
    invariance_residual,
)
from gcorr.randgen import SplitMix64, random_groupoid, random_haar
from tests.conftest import compose_with_quotient, translation_action, unit_action


class TestCheckHaar:
    def test_counting_on_groups(self, z3):
        assert gc.check_haar(z3, gc.counting_haar(z3).family) == (0.0, None)

    def test_pair_groupoid_source_weights(self, pair2):
        # w((u,v)) = w_v; brute-force the invariance over all 8 composable pairs
        w = {"1": F(2, 3), "2": F(5)}
        weights = tuple(w[pair2.unit_ids[pair2.src[a]]] for a in range(4))
        fam = MeasureFamily(pair2.arrow_ids, pair2.unit_ids, pair2.dst, weights)
        pairs = list(pair2.composable_pairs())
        assert len(pairs) == 8
        for a, b in pairs:
            assert fam.weight[pair2.comp[(a, b)]] == fam.weight[b]
        assert gc.check_haar(pair2, fam) == (0.0, None)

    def test_violation_with_witness(self, pair2):
        # weight depends on dst instead of src: not translation invariant
        weights = tuple(F(1 + pair2.dst[a]) for a in range(4))
        fam = MeasureFamily(pair2.arrow_ids, pair2.unit_ids, pair2.dst, weights)
        worst, witness = gc.check_haar(pair2, fam)
        assert worst == 1.0 and witness is not None
        with pytest.raises(NotHaar):
            gc.make_haar(pair2, weights)

    def test_zero_weight_rejected_at_load(self, pair2):
        with pytest.raises(ValueError, match="full support"):
            MeasureFamily(pair2.arrow_ids, pair2.unit_ids, pair2.dst, (F(1), F(0), F(1), F(1)))


class TestInducedMeasure:
    def test_z2_uniform_counting_symmetric(self, z2):
        m = gc.unit_measure(z2, (F(1),))
        haar = gc.counting_haar(z2)
        fwd = gc.induced_measure(m, haar, "forward")
        inv = gc.induced_measure(m, haar, "inverse")
        assert fwd.weight == inv.weight == (F(1), F(1))

    def test_pair_groupoid_tables(self, pair2):
        # m = (1,2), w = (1,1): forward weighs by dst, inverse by src
        m = gc.unit_measure(pair2, (F(1), F(2)))
        haar = gc.counting_haar(pair2)
        fwd = gc.induced_measure(m, haar, "forward")
        inv = gc.induced_measure(m, haar, "inverse")
        for a in range(4):
            assert fwd.weight[a] == m.weight[pair2.dst[a]]
            assert inv.weight[a] == m.weight[pair2.src[a]]

    def test_empty_groupoid(self):
        empty = gc.FiniteGroupoid((), (), (), (), {}, (), ())
        haar = gc.HaarSystem(empty, MeasureFamily((), (), (), ()))
        m = gc.unit_measure(empty, ())
        assert gc.induced_measure(m, haar, "forward").weight == ()


class TestIsSymmetric:
    def test_uniform_group_symmetric(self, z3):
        assert gc.is_symmetric(gc.unit_measure(z3, (F(7),)), gc.counting_haar(z3)) == (0.0, None)

    def test_pair_groupoid_residual_one(self, pair2):
        residual, witness = gc.is_symmetric(gc.unit_measure(pair2, (F(1), F(2))), gc.counting_haar(pair2))
        assert residual == 1.0 and witness is not None

    def test_uniform_pair_symmetric(self, pair2):
        assert gc.is_symmetric(gc.unit_measure(pair2, (F(1), F(1))), gc.counting_haar(pair2)) == (0.0, None)


class TestQuotientFamily:
    def test_group_total_mass(self, z3):
        haar = gc.haar_from_unit_weights(z3, (F(2, 5),))
        orb = orbit_space(unit_action(z3))
        ql = gc.quotient_family(haar, orb)
        assert ql.weight == (F(6, 5),)  # 3 arrows of weight 2/5

    def test_pair_groupoid_counting(self, pair2):
        orb = orbit_space(unit_action(pair2))
        ql = gc.quotient_family(gc.counting_haar(pair2), orb)
        assert orb.n_orbits == 1
        # oracle: sum over arrows into the representative, split by source
        assert ql.weight == (F(1), F(1))

    def test_units_only_identity(self):
        g = gc.units_only_groupoid(["u", "v"])
        haar = gc.haar_from_unit_weights(g, (F(3), F(4)))
        orb = orbit_space(unit_action(g))
        assert orb.n_orbits == 2
        assert gc.quotient_family(haar, orb).weight == (F(3), F(4))


class TestPushMeasureDown:
    def test_group_case_total_mass(self, z3):
        haar = gc.counting_haar(z3)
        orb = orbit_space(unit_action(z3))
        mu = gc.push_measure_down(gc.unit_measure(z3, (F(5),)), haar, orb)
        assert mu.weight == (F(5, 3),)
        assert compose_with_quotient(mu, haar, orb).weight == (F(5),)

    def test_pair_groupoid_example(self, pair2):
        haar = gc.counting_haar(pair2)
        orb = orbit_space(unit_action(pair2))
        m = gc.unit_measure(pair2, (F(1), F(1)))
        mu = gc.push_measure_down(m, haar, orb, e=(F(1, 2), F(1, 2)))
        assert mu.weight == (F(1),)
        assert compose_with_quotient(mu, haar, orb).weight == m.weight

    def test_independent_of_cutoff(self, pair2):
        haar = gc.counting_haar(pair2)
        orb = orbit_space(unit_action(pair2))
        m = gc.unit_measure(pair2, (F(1), F(1)))
        mu1 = gc.push_measure_down(m, haar, orb, e=(F(1, 2), F(1, 2)))
        mu2 = gc.push_measure_down(m, haar, orb, e=(F(1), F(0)))  # still normalized
        assert mu1.weight == mu2.weight

    def test_not_invariant_raises(self, pair2):
        m = gc.unit_measure(pair2, (F(1), F(2)))
        with pytest.raises(NotInvariant):
            gc.push_measure_down(m, gc.counting_haar(pair2), orbit_space(unit_action(pair2)))

    def test_bad_cutoff_rejected(self, pair2):
        m = gc.unit_measure(pair2, (F(1), F(1)))
        with pytest.raises(ValueError, match="cutoff"):
            gc.push_measure_down(
                m, gc.counting_haar(pair2), orbit_space(unit_action(pair2)), e=(F(1), F(1))
            )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_induced_from_quotient_is_symmetric(seed):
    """Any measure on the orbit space pulls back to an invariant measure."""
    rng = SplitMix64(seed)
    g = random_groupoid(rng, 24)
    haar = random_haar(rng, g)
    orb = orbit_space(unit_action(g))
    mu = MeasureFamily(
        orb.orbit_ids, ("*",), (0,) * orb.n_orbits,
        tuple(rng.fraction() for _ in range(orb.n_orbits)),
    )
    m = compose_with_quotient(mu, haar, orb)
    assert gc.is_symmetric(m, haar) == (0.0, None)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_and_uniqueness(seed):
    """push down then induce reproduces m exactly; the result ignores e."""
    rng = SplitMix64(seed)
    g = random_groupoid(rng, 24)
    haar = random_haar(rng, g)
    orb = orbit_space(unit_action(g))
    mu0 = MeasureFamily(
        orb.orbit_ids, ("*",), (0,) * orb.n_orbits,
        tuple(rng.fraction() for _ in range(orb.n_orbits)),
    )
    m = compose_with_quotient(mu0, haar, orb)
    mu1 = gc.push_measure_down(m, haar, orb)
    from gcorr.measures import cutoff_from_profile

    e2 = cutoff_from_profile(haar, tuple(rng.fraction() for _ in range(g.n_units)))
    mu2 = gc.push_measure_down(m, haar, orb, e=e2)
    assert mu1.weight == mu2.weight == mu0.weight
    assert compose_with_quotient(mu1, haar, orb).weight == m.weight


def test_default_cutoff_normalized(z3):
    haar = gc.haar_from_unit_weights(z3, (F(3, 7),))
    e = default_cutoff(haar)
    assert cutoff_residual(haar, e) == 0
    assert fibre_integral(haar) == (F(9, 7),)


class TestInvarianceResidual:
    """One tampered value: the worst `rdev` and the first pair comparing it."""

    def test_left_action_names_arrow_then_point(self):
        g = gc.pair_groupoid(["1", "2", "3"])
        act = unit_action(g)
        assert invariance_residual(act, (F(2),) * 3) == (0.0, None)
        # (1,2)·2 = 1 is the first pair that moves the tampered unit 2
        assert invariance_residual(act, (F(2), F(3), F(2))) == (1 / 3, "((1,2), 2)")

    def test_right_action_names_point_then_arrow(self, z3):
        act = translation_action("right", z3)
        assert invariance_residual(act, (1.5,) * 3) == (0.0, None)
        # g0·g2 = g2 is the first pair that reaches the tampered point g2
        assert invariance_residual(act, (F(1), F(1), F(5))) == (0.8, "(g0, g2)")

    def test_float_values_use_rdev(self, z3):
        act = translation_action("right", z3)
        worst, witness = invariance_residual(act, (1e6, 1e6 * (1 + 3e-13), 1e6))
        assert 0 < worst < 1e-12 and witness == "(g0, g1)"
