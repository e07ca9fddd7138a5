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
from gcorr.cohomology import Cocycle1
from gcorr.measures import MeasureFamily, invariance_residual
from gcorr.randgen import SplitMix64, random_pair
from gcorr.composition import compose
from tests.conftest import (
    PAIRS_45,
    ladder_pair,
    max_residual,
    pair_45,
    quasi_invariance_residual_dense,
    scaled_family,
    translation_correspondence,
)


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
                Cocycle1(corr.left_tg, tuple(bad)),
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

    @pytest.mark.parametrize("name", ["ladder-5", "induction-finite", "mix-3"])
    def test_builds_no_transformation_groupoid(self, name, monkeypatch):
        """The properness note is counted off the right action table."""
        from gcorr import correspondence, groupoids

        corr_x, corr_y = ladder_pair(5) if name == "ladder-5" else pair_45(name)
        built = []
        for module in (groupoids, correspondence):
            monkeypatch.setattr(module, "transformation_groupoid", lambda act: built.append(act))
        for corr in (corr_x, corr_y):
            assert gc.validate(corr).passed
        assert built == []

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


def _full_sweep(corr):
    return quasi_invariance_residual(corr.left_haar, corr.space, corr.family, corr.adjoining_at)


def _identity_line(corr):
    line = next(c for c in gc.validate(corr).checks if c.name == "adjoining_identity")
    return line.passed, line.residual, line.witness


def _with_adjoining(corr, values):
    return gc.make_correspondence(
        corr.left_haar, corr.right_haar, corr.space, corr.family, values, check=False
    )


class TestAdjoiningIdentityOnGenerators:
    """`validate` checks the quasi-invariance identity on the lifts of G's
    generators where Δ is exact and its cocycle line passes, and runs the
    full sweep for the verdict and witness everywhere else."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("name", PAIRS_45)
    def test_line_equals_the_full_sweep(self, name, exact):
        corr_x, corr_y = pair_45(name)
        if not exact:
            corr_x, corr_y = (scaled_family(c, 1, exact=False) for c in (corr_x, corr_y))
        composite = compose(corr_x, corr_y).composite
        for corr in (corr_x, corr_y, composite):
            res, wit = _full_sweep(corr)
            assert _identity_line(corr) == (gc.passes(res, corr.exact), res, wit), name

    def test_lifts_are_the_only_pairs_read_on_exact_data(self, monkeypatch):
        from gcorr import correspondence

        corr_x, _ = ladder_pair(6)  # Z/6 has the one generator g1
        seen = []

        def adjoining_at(a, p):
            seen.append(a)
            return corr_x.adjoining_at(a, p)

        assert quasi_invariance_residual(
            corr_x.left_haar, corr_x.space, corr_x.family, adjoining_at, on_generators=True
        ) == (0.0, None)
        assert set(seen) == set(corr_x.left.generators) and len(seen) == 6
        float_x = scaled_family(corr_x, 1, exact=False)
        flags = []
        original = correspondence.quasi_invariance_residual
        monkeypatch.setattr(
            correspondence, "quasi_invariance_residual",
            lambda *args, on_generators: flags.append(on_generators) or original(*args, on_generators=on_generators),
        )
        gc.validate(corr_x)
        gc.validate(float_x)
        assert flags == [True, False]

    def test_tamper_at_a_non_generator_arrow_gets_the_full_sweep_witness(self):
        corr_x, _ = ladder_pair(6)
        g = corr_x.left
        a = next(a for a in range(g.n_arrows) if a not in g.generators and a not in g.unit_arrow)
        values = list(corr_x.adjoining.value)
        values[corr_x.left_tg_index[(a, 0)]] *= F(3, 2)
        bad = _with_adjoining(corr_x, values)
        res, wit = _full_sweep(bad)
        assert res > 0 and wit == f"({g.arrow_ids[a]}, {bad.space.point_ids[0]})"
        assert _identity_line(bad) == (False, res, wit)
        # the lifts alone miss it: Δ is no longer a cocycle, so the lemma
        # does not hold and `validate` must not take the generator pass
        assert quasi_invariance_residual(
            bad.left_haar, bad.space, bad.family, bad.adjoining_at, on_generators=True
        ) == (0.0, None)

    @pytest.mark.parametrize("i", [3, 7, 11, 15])
    def test_identity_tamper_breaking_the_cocycle_line_gets_the_full_sweep(self, i):
        """The benchmark's tampered random-mix pairs: one adjoining value of
        the second leg doubled at an identity arrow."""
        _, corr_y = pair_45(f"mix-{i}")
        g = corr_y.left
        k = next(k for (a, _), k in corr_y.left_tg_index.items() if a in g.unit_arrow)
        values = list(corr_y.adjoining.value)
        values[k] *= 2
        bad = _with_adjoining(corr_y, values)
        rep = gc.validate(bad)
        assert not next(c for c in rep.checks if c.name == "adjoining_cocycle").passed
        res, wit = _full_sweep(bad)
        assert _identity_line(bad) == (False, res, wit)

    def test_family_tamper_is_found_on_the_lifts(self):
        """Δ stays a cocycle, so the generator pass runs, finds the
        deviation, and the full sweep supplies residual and witness."""
        corr_x, corr_y = ladder_pair(6)
        weights = list(corr_y.family.weight)
        weights[4] *= F(5, 4)
        fam = MeasureFamily(corr_y.family.total_ids, corr_y.family.base_ids, corr_y.family.along, tuple(weights))
        bad = gc.make_correspondence(corr_y.left_haar, corr_y.right_haar, corr_y.space, fam, corr_y.adjoining.value, check=False)
        assert gc.check_cocycle(bad.adjoining)[0] == 0
        on_lifts = quasi_invariance_residual(bad.left_haar, bad.space, bad.family, bad.adjoining_at, on_generators=True)
        res, wit = _full_sweep(bad)
        assert on_lifts == (res, wit) and res > 0
        assert _identity_line(bad) == (False, res, wit)
