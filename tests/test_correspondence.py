from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcorr as gc
from gcorr.correspondence import (
    NotAHomomorphism,
    NotASubgroup,
    NotWellDefined,
    quasi_invariance_residual,
    subgroup_groupoid,
)
from gcorr.cohomology import MULTIPLICATIVE, Cocycle1
from gcorr.measures import MeasureFamily, invariance_residual
from gcorr.randgen import SplitMix64, random_pair
from tests.conftest import max_residual, quasi_invariance_residual_dense, translation_correspondence


class TestDeriveAdjoining:
    def test_trivial_left_group(self):
        corr = gc.from_map(["x1", "x2"], ["y"], {"x1": "y", "x2": "y"})
        assert set(corr.adjoining.value) == {F(1)}

    def test_z2_translation_weighted(self):
        # Δ(η, z) = λ(z)/λ(ηz) for counting Haar; 4-entry table from the formula
        corr = translation_correspondence(lam=(1, 3))
        lam = corr.family.weight
        act = corr.space.left
        for (a, p), k in corr.left_tg_index.items():
            q = act.table[(a, p)]
            assert corr.adjoining.value[k] == lam[p] / lam[q]
        assert gc.check_cocycle(corr.adjoining) == (0.0, None)
        # the nontrivial entries are 1/3 and 3
        assert set(corr.adjoining.value) == {F(1), F(1, 3), F(3)}

    def test_induction_constant_one(self):
        # subgroup inclusion with counting weights: adjoining is constantly 1
        g = gc.cyclic_group(4)
        first, second = gc.induction_instance(g, ("g0", "g2"), ("g0", "g2"))
        assert set(first.adjoining.value) == {F(1)}
        assert set(second.adjoining.value) == {F(1)}

    def test_unique_under_permuted_derivation(self):
        corr = translation_correspondence(lam=(2, 5))
        from gcorr.correspondence import derive_adjoining

        values, tg, idx = derive_adjoining(corr.left_haar, corr.space, corr.family)
        redone = [None] * len(values)
        for key in sorted(idx, reverse=True):  # permuted sweep order
            a, p = key
            q = corr.space.left.table[(a, p)]
            redone[idx[key]] = (
                corr.left_haar.w(corr.left.inv[a]) * corr.family.weight[p]
            ) / (corr.left_haar.w(a) * corr.family.weight[q])
        assert tuple(redone) == values == corr.adjoining.value


class TestValidate:
    def test_builders_pass(self):
        corr = translation_correspondence()
        rep = gc.validate(corr)
        assert rep.passed and max_residual(rep) == 0

    def test_family_tamper_detected(self):
        corr = translation_correspondence(lam=(1, 1))
        # push a right-invariance violation: right groupoid is the point
        # groupoid here, so tamper the left-translation instance instead
        z2 = gc.cyclic_group(2)
        pts = ("a0", "a1")
        from gcorr.groupoids import make_action, make_bispace
        from gcorr.measures import MeasureFamily

        left = make_action("left", gc.cyclic_group(1, unit_id="pt*"), pts, (0, 0), {(0, 0): 0, (0, 1): 1})
        right = make_action(
            "right", z2, pts, (0, 0),
            {(p, a): (p + a) % 2 for p in range(2) for a in range(2)},
        )
        space = make_bispace(left, right)
        fam = MeasureFamily(pts, z2.unit_ids, (0, 0), (F(1), F(2)))  # not constant on the orbit
        res, wit = invariance_residual(space.right, fam.weight)
        assert res == 0.5 and wit is not None  # |2 - 1| / max(1, 1, 2)
        with pytest.raises(NotWellDefined):
            gc.make_correspondence(
                gc.counting_haar(left.groupoid), gc.counting_haar(z2), space, fam
            )

    def test_adjoining_tamper_detected(self):
        corr = translation_correspondence()
        bad = list(corr.adjoining.value)
        bad[0] = bad[0] * 2
        rep = gc.validate(
            gc.Correspondence(
                corr.left_haar, corr.right_haar, corr.space, corr.family,
                Cocycle1(corr.left_tg, tuple(bad), MULTIPLICATIVE),
                corr.left_tg, corr.left_tg_index,
            )
        )
        failed = {c.name for c in rep.failures()}
        assert "adjoining_identity" in failed or "adjoining_cocycle" in failed

    def test_exact_adjoining_judged_exactly_beside_float_family(self):
        """The cocycle line takes the exact rule whenever Δ is exact, even
        with a float family: one entry off by 10⁻¹² fails it, while the
        identity line, judged at tol on the float family, passes."""
        corr = translation_correspondence()
        tg = corr.left_tg
        k = next(k for k in range(tg.n_arrows) if k not in tg.unit_arrow)
        values = list(corr.adjoining.value)
        values[k] *= 1 + F(1, 10**12)
        fam = corr.family
        float_fam = MeasureFamily(fam.total_ids, fam.base_ids, fam.along, tuple(float(w) for w in fam.weight))
        bad = gc.make_correspondence(
            corr.left_haar, corr.right_haar, corr.space, float_fam, values, check=False
        )
        failures = gc.validate(bad).failures()
        assert [c.name for c in failures] == ["adjoining_cocycle"]
        assert failures[0].residual == pytest.approx(1e-12)

    def test_dense_identity_oracle(self):
        corr = translation_correspondence(lam=(1, 3))
        rng = SplitMix64(3)
        F_test = {
            key: complex(2 * rng.random() - 1, 2 * rng.random() - 1)
            for key in corr.left_tg_index
        }
        assert quasi_invariance_residual_dense(corr, F_test) < 1e-12


class TestFromMap:
    def test_identity_map(self):
        corr = gc.from_map(["x"], ["x"], {"x": "x"})
        assert gc.validate(corr).passed

    def test_constant_map_three_to_one(self):
        corr = gc.from_map(["a", "b", "c"], ["y"], {p: "y" for p in "abc"})
        assert corr.family.weight == (F(1),) * 3
        assert gc.validate(corr).passed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**5))
    def test_any_map_validates(self, seed):
        rng = SplitMix64(seed)
        xs = [f"x{i}" for i in range(rng.randint(1, 6))]
        ys = [f"y{i}" for i in range(rng.randint(1, 4))]
        f = {x: rng.choice(ys) for x in xs}
        assert gc.validate(gc.from_map(xs, ys, f)).passed


class TestFromGroupHom:
    def test_identity_on_z2(self, z2):
        corr = gc.from_group_hom(z2, gc.cyclic_group(2), {"g0": "g0", "g1": "g1"})
        assert gc.validate(corr).passed

    def test_reduction_z4_to_z2(self):
        corr = gc.from_group_hom(
            gc.cyclic_group(4), gc.cyclic_group(2), {f"g{k}": f"g{k % 2}" for k in range(4)}
        )
        rep = gc.validate(corr)
        assert rep.passed
        # the left action has kernel {g0, g2}: both act as the same translation
        act = corr.space.left
        assert all(act.table[(0, p)] == act.table[(2, p)] for p in range(2))

    def test_trivial_map_z2_to_z3(self, z2, z3):
        corr = gc.from_group_hom(z2, z3, {"g0": "g0", "g1": "g0"})
        assert set(corr.adjoining.value) == {F(1)}
        assert gc.validate(corr).passed

    def test_not_a_homomorphism(self, z2):
        with pytest.raises(NotAHomomorphism):
            gc.from_group_hom(z2, gc.cyclic_group(3), {"g0": "g0", "g1": "g1"})


class TestInduction:
    def test_whole_group_regular_bimodule(self, z3):
        names = tuple(z3.arrow_ids)
        first, second = gc.induction_instance(z3, names, names)
        assert gc.validate(first).passed and gc.validate(second).passed

    def test_s3_with_a3_and_transposition(self):
        s3 = gc.symmetric_group(3)
        first, second = gc.induction_instance(s3, ("s012", "s120", "s201"), ("s012", "s102"))
        assert gc.validate(first).passed and gc.validate(second).passed
        assert first.right == second.left

    def test_z4_even_subgroup(self):
        g = gc.cyclic_group(4)
        first, second = gc.induction_instance(g, ("g0", "g2"), tuple(g.arrow_ids))
        assert gc.validate(first).passed and gc.validate(second).passed

    def test_not_a_subgroup(self):
        g = gc.cyclic_group(4)
        with pytest.raises(NotASubgroup):
            subgroup_groupoid(g, ("g0", "g1"))  # g1+g1 = g2 escapes
        with pytest.raises(NotASubgroup):
            subgroup_groupoid(g, ("g2",))  # identity missing


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_random_correspondences_validate_exactly(seed):
    corr_x, corr_y = random_pair(seed, max_x=12, max_y=12, max_mid=8, check=False)
    for corr in (corr_x, corr_y):
        rep = gc.validate(corr)
        assert rep.passed, rep.render()
        assert max_residual(rep) == 0  # rational data end to end
        res, _ = quasi_invariance_residual(
            corr.left_haar, corr.space, corr.family, corr.adjoining_at
        )
        assert res == 0
