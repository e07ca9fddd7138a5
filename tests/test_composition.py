from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcorr as gc
from gcorr import catalog, composition
from gcorr.composition import (
    CompositionStageError,
    GroupoidMismatch,
    compose,
    find_bispace_isomorphism,
)
from gcorr.measures import cutoff_from_profile
from gcorr.randgen import SplitMix64, random_pair
from tests.conftest import MIX_CAPS, ladder_pair


def weighted_middle_pair(y_weights=(F(1), F(3))):
    """Point group -> (Z/2, counting) -> point group with a weighted second
    family: the smallest instance whose middle cochain is nontrivial."""
    z2 = gc.cyclic_group(2)
    pt1 = gc.cyclic_group(1, unit_id="L")
    pt2 = gc.cyclic_group(1, unit_id="R")
    from gcorr.groupoids import make_action, make_bispace
    from gcorr.measures import MeasureFamily

    xs = ("a0", "a1")
    left_x = make_action("left", pt1, xs, (0, 0), {(0, 0): 0, (0, 1): 1})
    right_x = make_action(
        "right", z2, xs, (0, 0), {(p, a): (p + a) % 2 for p in range(2) for a in range(2)}
    )
    corr_x = gc.make_correspondence(
        gc.counting_haar(pt1), gc.counting_haar(z2),
        make_bispace(left_x, right_x),
        MeasureFamily(xs, z2.unit_ids, (0, 0), (F(1), F(1))),
    )
    ys = ("b0", "b1")
    left_y = make_action(
        "left", z2, ys, (0, 0), {(a, p): (a + p) % 2 for a in range(2) for p in range(2)}
    )
    right_y = make_action("right", pt2, ys, (0, 0), {(p, 0): p for p in range(2)})
    corr_y = gc.make_correspondence(
        gc.counting_haar(z2), gc.counting_haar(pt2),
        make_bispace(left_y, right_y),
        MeasureFamily(ys, pt2.unit_ids, (0, 0), tuple(y_weights)),
    )
    return corr_x, corr_y


class TestStageBehaviour:
    def test_m_is_product_of_weights(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        res = compose(corr_x, corr_y)
        for z, (x, y) in enumerate(res.fp.pairs):
            assert res.m.weight[z] == corr_x.family.weight[x] * corr_y.family.weight[y]

    def test_lambda_pi_free_action(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        # free diagonal Z/2 action: every orbit fibre weighs each point once
        assert set(res.lambda_pi.weight) == {F(1)}
        assert all(len(res.orbits.members[o]) == 2 for o in range(res.orbits.n_orbits))

    def test_lambda_pi_aggregates_stabilizers(self, z2):
        # Z/2 acting trivially on both legs: single points, weights add to 2
        from gcorr.groupoids import make_action, make_bispace
        from gcorr.measures import MeasureFamily

        pt = gc.cyclic_group(1, unit_id="P")
        xs = ("x",)
        left_x = make_action("left", pt, xs, (0,), {(0, 0): 0})
        right_x = make_action("right", z2, xs, (0,), {(0, a): 0 for a in range(2)})
        corr_x = gc.make_correspondence(
            gc.counting_haar(pt), gc.counting_haar(z2),
            make_bispace(left_x, right_x),
            MeasureFamily(xs, z2.unit_ids, (0,), (F(1),)),
        )
        pt2 = gc.cyclic_group(1, unit_id="Q")
        ys = ("y",)
        left_y = make_action("left", z2, ys, (0,), {(a, 0): 0 for a in range(2)})
        right_y = make_action("right", pt2, ys, (0,), {(0, 0): 0})
        corr_y = gc.make_correspondence(
            gc.counting_haar(z2), gc.counting_haar(pt2),
            make_bispace(left_y, right_y),
            MeasureFamily(ys, pt2.unit_ids, (0,), (F(1),)),
        )
        res = compose(corr_x, corr_y)
        assert res.lambda_pi.weight == (F(2),)  # both middle arrows hit the point

    def test_delta_z_trivial_when_second_adjoining_trivial(self):
        corr_x, corr_y, _ = catalog.example_pair("fn-compose")
        res = compose(corr_x, corr_y)
        assert set(res.delta_z.value) <= {F(1)}
        assert set(res.b.value) <= {F(1)}

    def test_delta_z_matches_second_adjoining(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        g2 = corr_y.left
        for (z, a), k in res.tg_z_index.items():
            _, y = res.fp.pairs[z]
            assert res.delta_z.value[k] == corr_y.adjoining_at(g2.inv[a], y)

    def test_b_geometric_means_on_two_point_orbits(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        # weights (1, 3) along the free middle orbit: b is the average of
        # Δ⁻¹ ∈ {1, 3^{±1}}, i.e. (1 + 3)/2 = 2 and (1 + 1/3)/2 = 2/3
        for z, (x, y) in enumerate(res.fp.pairs):
            assert res.b.value[z] == (F(2) if y == 0 else F(2, 3))

    def test_mu_equals_bm_when_middle_trivial(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        res = compose(corr_x, corr_y)
        assert res.orbits.n_orbits == len(res.fp.pairs)
        for z in range(len(res.fp.pairs)):
            assert res.mu.weight[res.orbits.proj[z]] == res.m.weight[z]

    def test_quiver_composite_family_is_product(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        res = compose(corr_x, corr_y)
        for o in range(res.orbits.n_orbits):
            x, y = res.fp.pairs[res.orbits.reps[o]]
            assert res.mu.weight[o] == corr_x.family.weight[x] * corr_y.family.weight[y]

    def test_cutoff_independence_float_mode(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        rng = SplitMix64(5)
        profile = tuple(rng.fraction() for _ in range(res.tg_z.n_units))
        e2 = cutoff_from_profile(res.chi, profile)
        b_of_y = {y: res.b.value[z] for z, (_, y) in enumerate(res.fp.pairs)}
        bm_y = tuple(b_of_y[y] * w for y, w in enumerate(corr_y.family.weight))
        mu2, _ = composition.build_mu(
            res.m, res.b, e2, res.lambda_pi, res.orbits, res.omega, bm_y, composition.leg_haar(corr_y)
        )
        for o in range(res.orbits.n_orbits):
            assert float(mu2.weight[o]) == pytest.approx(float(res.mu.weight[o]), rel=1e-9)

    def test_delta12_trivial_for_trivial_inputs(self):
        corr_x, corr_y, _ = catalog.example_pair("fn-compose")
        res = compose(corr_x, corr_y)
        assert set(res.delta12.value) <= {F(1)}

    def test_b_override_and_ratio_check(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        scaled = tuple(2.0 * float(v) for v in res.b.value)  # same coboundary
        res2 = compose(corr_x, corr_y, b_values=scaled)
        assert res2.report.passed
        check_names = {c.name for c in res2.report.checks}
        assert "override_b_splits_delta" in check_names
        assert "override_b_ratio_orbit_constant" in check_names
        # mu scales with b, and the composite still certifies
        for o in range(res2.orbits.n_orbits):
            assert float(res2.mu.weight[o]) == pytest.approx(2 * float(res.mu.weight[o]), rel=1e-9)

    def test_bad_override_rejected(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        bad = list(float(v) for v in res.b.value)
        bad[0] *= 3.0  # no longer splits the obstruction cocycle
        with pytest.raises(CompositionStageError):
            compose(corr_x, corr_y, b_values=tuple(bad))

    def test_exact_override_off_by_1e_12_fails_at_build_b(self):
        """The override lines take the exact pass rule on exact data: a b
        with one entry times 1 + 10⁻¹² no longer passes them within tol."""
        corr_x, corr_y, _ = catalog.example_pair("induction-finite")
        bad = list(compose(corr_x, corr_y).b.value)
        bad[0] *= 1 + F(1, 10**12)
        with pytest.raises(CompositionStageError) as info:
            compose(corr_x, corr_y, b_values=tuple(bad))
        assert info.value.stage == "build_b"
        line = info.value.report.checks[-1]
        assert line.name == "override_b_splits_delta" and not line.passed
        assert line.residual == pytest.approx(1e-12)


def coset_pair():
    """A pair whose middle acts with stabilizers on both legs.

    Z/4 translates on the two cosets of its even subgroup from either
    side; every diagonal stabilizer is the subgroup itself, so the family
    along the quotient aggregates two middle arrows per point.
    """
    from gcorr.groupoids import make_action, make_bispace
    from gcorr.measures import MeasureFamily, haar_from_unit_weights

    z4 = gc.cyclic_group(4)
    chi2 = haar_from_unit_weights(z4, (F(3, 2),))
    ptL = gc.cyclic_group(1, unit_id="L")
    ptR = gc.cyclic_group(1, unit_id="R")

    xs = ("K", "K1")  # right cosets of {0, 2}
    right_x = make_action(
        "right", z4, xs, (0, 0), {(p, a): (p + a) % 2 for p in range(2) for a in range(4)}
    )
    left_x = make_action("left", ptL, xs, (0, 0), {(0, 0): 0, (0, 1): 1})
    corr_x = gc.make_correspondence(
        gc.counting_haar(ptL), chi2, make_bispace(left_x, right_x),
        MeasureFamily(xs, z4.unit_ids, (0, 0), (F(5, 7), F(5, 7))),
    )

    ys = ("H", "H1")  # left cosets
    left_y = make_action(
        "left", z4, ys, (0, 0), {(a, p): (a + p) % 2 for a in range(4) for p in range(2)}
    )
    right_y = make_action("right", ptR, ys, (0, 0), {(0, 0): 0, (1, 0): 1})
    corr_y = gc.make_correspondence(
        chi2, gc.counting_haar(ptR), make_bispace(left_y, right_y),
        MeasureFamily(ys, ptR.unit_ids, (0, 0), (F(1), F(3))),
    )
    return corr_x, corr_y


class TestStabilizerAggregation:
    def test_lambda_pi_aggregates_and_certifies(self):
        corr_x, corr_y = coset_pair()
        res = compose(corr_x, corr_y)
        # each fibre holds 4 middle arrows collapsing 2-to-1 onto the orbit
        assert set(res.lambda_pi.weight) == {F(3)}  # 2 arrows of weight 3/2
        assert res.orbits.n_orbits == 2
        assert all(len(res.orbits.members[o]) == 2 for o in range(2))
        assert res.report.passed

    def test_theorem_on_stabilizer_instance(self):
        from gcorr.cstar import verify_theorem

        corr_x, corr_y = coset_pair()
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=50, seed=77)
        assert gram.passed, gram.report().render()
        # a nontrivial cochain went through the aggregated path, exactly
        assert set(res.delta_z.value) != {F(1)}
        assert res.mu.exact


class TestPipeline:
    def test_groupoid_mismatch(self):
        corr_x, _, _ = catalog.example_pair("fn-compose")
        _, corr_y, _ = catalog.example_pair("group-hom")
        with pytest.raises(GroupoidMismatch):
            compose(corr_x, corr_y)

    def test_empty_composite_flows_through(self):
        # a two-unit middle with disjoint momentum images: empty fibre product
        from gcorr.correspondence import from_span

        cx = from_span(["l"], ["m1", "m2"], ["x"], {"x": "l"}, {"x": "m1"})
        cy = from_span(["m1", "m2"], ["r"], ["y"], {"y": "m2"}, {"y": "r"})
        res = compose(cx, cy)
        assert res.orbits.n_orbits == 0
        assert res.report.passed
        assert res.composite.space.n_points == 0

    def test_composite_validates_and_rederives_adjoining(self):
        corr_x, corr_y = weighted_middle_pair()
        res = compose(corr_x, corr_y)
        from gcorr.correspondence import derive_adjoining

        derived, _, idx = derive_adjoining(
            res.composite.left_haar, res.composite.space, res.composite.family
        )
        for key, k in idx.items():
            assert float(res.delta12.value[k]) == pytest.approx(float(derived[k]), rel=1e-9)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_pairs_certify(self, seed):
        corr_x, corr_y = random_pair(seed, max_x=14, max_y=14, max_mid=10, check=False)
        res = compose(corr_x, corr_y)
        assert res.report.passed, res.report.render()

    def test_disintegration_against_bruteforce(self):
        """b·m = μ∘λ re-derived from the raw action tables alone."""
        for seed in (31, 32, 33):
            corr_x, corr_y = random_pair(seed, max_x=12, max_y=12, max_mid=10, check=False)
            res = compose(corr_x, corr_y)
            g2 = corr_x.right
            chi2 = corr_x.right_haar
            for z, (x, y) in enumerate(res.fp.pairs):
                lhs = float(res.b.value[z]) * float(
                    corr_x.family.weight[x] * corr_y.family.weight[y]
                )
                o = res.orbits.proj[z]
                rep = res.orbits.reps[o]
                fibre_weight = sum(
                    float(chi2.w(a))
                    for a in g2.fibre_dst[res.fp.diagonal.momentum[rep]]
                    if res.fp.diagonal.table[(rep, a)] == z
                )
                rhs = float(res.mu.weight[o]) * fibre_weight
                assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCatalogEqualities:
    def test_fn_compose_matches_composite_map(self):
        corr_x, corr_y, meta = catalog.example_pair("fn-compose")
        res = compose(corr_x, corr_y)
        target = meta["target"]()
        iso = find_bispace_isomorphism(res.composite, target)
        assert iso is not None
        # the iso must send [y=f(x), x] to x
        for omega_id, x_id in iso.items():
            assert omega_id == f"[({catalog.FN_F[x_id]},{x_id})]"

    def test_group_hom_matches_composite_hom(self):
        corr_x, corr_y, meta = catalog.example_pair("group-hom")
        res = compose(corr_x, corr_y)
        target = meta["target"]()
        assert find_bispace_isomorphism(res.composite, target) is not None

    def test_subgroup_composite_is_regular_bimodule(self):
        # the two subgroup correspondences glue back to the two-sided
        # bimodule on the ambient group with counting weights
        corr_x, corr_y, meta = catalog.example_pair("subgroup")
        res = compose(corr_x, corr_y)
        target = meta["target"]()
        assert res.orbits.n_orbits == target.space.n_points == 6
        assert find_bispace_isomorphism(res.composite, target) is not None

    def test_delta12_trivial_for_group_hom_catalog(self):
        corr_x, corr_y, _ = catalog.example_pair("group-hom")
        res = compose(corr_x, corr_y)
        assert set(res.delta12.value) <= {F(1)}

    def test_fn_compose_negative_control(self):
        # a wrong target (different map) admits no isomorphism
        corr_x, corr_y, _ = catalog.example_pair("fn-compose")
        res = compose(corr_x, corr_y)
        wrong = {x: ("z1" if catalog.FN_G[catalog.FN_F[x]] != "z1" else "z2") for x in catalog.FN_X}
        assert find_bispace_isomorphism(res.composite, gc.from_map(catalog.FN_X, catalog.FN_Z, wrong)) is None

    def test_subgroup_and_induction_pairs_compose(self):
        for name in ("subgroup", "induction-finite"):
            corr_x, corr_y, _ = catalog.example_pair(name)
            res = compose(corr_x, corr_y)
            assert res.report.passed, name


class TestFloatIsomorphism:
    """Float weights are matched to `tol`, not by exact equality."""

    @staticmethod
    def _moved_copy(corr, point, new_weight):
        from gcorr.measures import MeasureFamily

        weights = list(corr.family.weight)
        weights[point] = new_weight
        fam = MeasureFamily(corr.family.total_ids, corr.family.base_ids, corr.family.along, tuple(weights))
        return gc.make_correspondence(
            corr.left_haar, corr.right_haar, corr.space, fam, corr.adjoining.value, check=False
        )

    def test_last_ulp_matches_and_visible_shift_does_not(self):
        corr_x, corr_y = weighted_middle_pair(y_weights=(1.0, 3.0))
        composite = compose(corr_x, corr_y).composite
        w = composite.family.weight[0]
        assert isinstance(w, float)  # premise: a float-mode composite
        ulp = self._moved_copy(composite, 0, math.nextafter(w, math.inf))
        assert ulp.family.weight[0] != w
        assert find_bispace_isomorphism(composite, ulp) is not None
        shifted = self._moved_copy(composite, 0, w + 1e-6)
        assert find_bispace_isomorphism(composite, shifted) is None



class TestExactRegime:
    """The middle cochain is the p-average of Δ⁻¹, so rational input gives
    a rational composite, obstruction cocycle or not."""

    @pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
    def test_catalog_composites_are_exact(self, name):
        corr_x, corr_y, _ = catalog.example_pair(name)
        res = compose(corr_x, corr_y)
        assert res.exact and res.report.notes["scalar_mode"] == "exact"

    def test_mixed_random_composites_are_exact(self):
        for i in range(40):
            res = compose(*random_pair(i, **MIX_CAPS))
            assert res.exact, i

    def test_ladder_composite_is_exact(self):
        res = compose(*ladder_pair(10))
        assert set(res.delta_z.value) != {F(1)}
        assert res.exact


def _wobbled_group_hom(eps):
    """The `group-hom` pair with the second family (1.0, 1 + eps) in floats,
    adjoining cocycle derived, not validated."""
    from gcorr.measures import MeasureFamily

    corr_x, corr_y, _ = catalog.example_pair("group-hom")
    fam = corr_y.family
    wobbled = MeasureFamily(fam.total_ids, fam.base_ids, fam.along, (1.0, 1.0 + eps))
    return corr_x, gc.make_correspondence(
        corr_y.left_haar, corr_y.right_haar, corr_y.space, wobbled, check=False
    )


class TestFloatRightInvariance:
    def test_last_digits_wobble_composes(self):
        res = compose(*_wobbled_group_hom(3e-13))
        m_res = {c.name: c.residual for c in res.report.checks}["m_right_invariance"]
        assert 0 < m_res < 1e-12

    def test_visible_wobble_fails(self):
        with pytest.raises(CompositionStageError, match="m_right_invariance"):
            compose(*_wobbled_group_hom(1e-6))


BUMP = 1 + F(1, 10**12)


def _bumped(values):
    """`values` with its first entry times 1 + 10⁻¹², still exact."""
    return (values[0] * BUMP,) + tuple(values[1:])


def _tampered(name):
    """A stand-in for the builder `composition.<name>` that returns its
    result with one entry times 1 + 10⁻¹²; the B of `build_b` (on G₂⋉Y)
    bypasses the split guard of `decompose_multiplicative`."""
    from gcorr.cohomology import Cochain0
    from gcorr.measures import MeasureFamily

    original = getattr(composition, name)
    if name == "default_cutoff":
        return lambda chi: _bumped(original(chi))
    if name in ("quotient_family", "build_lambda_pi"):
        def family(*args):
            f = original(*args)
            return MeasureFamily(f.total_ids, f.base_ids, f.along, _bumped(f.weight))
        return family

    def build_b(*args):
        b = original(*args)
        return Cochain0(b.groupoid, _bumped(b.value))
    return build_b


class TestExactPassRule:
    """The lines that certify the cutoff, λ_π and b keep the exact half of
    the pass rule: on exact data one entry off by 10⁻¹², far inside `tol`,
    still fails them.  The cutoff and B are tampered on their y leg, so the
    entry moves e or b at every point of Z with that leg: μ moves on every
    orbit alike, and b stays invariant under G₁, which keeps y.  λ_π is
    tampered at the first point of Z, which lies in R on both pairs; the
    fibre measure of the reduction (`quotient_family`) only checks it, so
    its tamper reaches lambda_pi_rep_independence alone."""

    @pytest.mark.parametrize("pair", ["induction-finite", "ladder-5"])
    @pytest.mark.parametrize("builder, stage, failing", [
        ("default_cutoff", "certification", {"mu_disintegration"}),
        ("build_lambda_pi", "certification", {"lambda_pi_rep_independence", "mu_disintegration"}),
        ("quotient_family", "certification", {"lambda_pi_rep_independence"}),
        ("build_b", "build_mu", {"b_ratio_relation"}),
    ])
    def test_one_entry_off_by_1e_12_fails(self, monkeypatch, pair, builder, stage, failing):
        corr_x, corr_y = ladder_pair(5) if pair == "ladder-5" else catalog.example_pair(pair)[:2]
        monkeypatch.setattr(composition, builder, _tampered(builder))
        with pytest.raises(CompositionStageError) as info:
            compose(corr_x, corr_y)
        assert info.value.stage == stage
        failures = info.value.report.failures()
        assert {c.name for c in failures} == failing
        assert all(0 < c.residual < 1e-11 for c in failures)


@pytest.mark.parametrize("builder, stage", [
    ("orbit_space", "x_orbits"),
    ("build_middle_groupoid", "middle_groupoid"),
    ("middle_orbits", "middle_orbits"),
])
def test_each_omega_stage_reports_its_own_name(monkeypatch, builder, stage):
    """The stages that take Ω from X's orbits fail under their own names;
    the lift of the reduction's orbits to Ω is not the orbit sweep."""
    def broken(*args):
        raise gc.util.GcorrError("broken")

    monkeypatch.setattr(composition, builder, broken)
    with pytest.raises(CompositionStageError) as info:
        compose(*ladder_pair(3))
    assert info.value.stage == stage


class TestSymmetryWitness:
    def test_asymmetric_bm_names_a_leg_arrow(self):
        """Δ₂ times the coboundary of t(u) = u + 2 is still a cocycle, so
        b still splits δ_Z, but b·m is no longer symmetric: the build_mu
        stage error names the arrow of G₂⋉Y at which B·β attains the
        residual."""
        from gcorr.cohomology import Cochain0, d0

        corr_x, corr_y, _ = catalog.example_pair("induction-finite")
        tg = corr_y.left_tg
        t = Cochain0(tg, tuple(F(u + 2) for u in range(tg.n_units)))
        values = tuple(v * w for v, w in zip(corr_y.adjoining.value, d0(t).value))
        bad_y = gc.make_correspondence(
            corr_y.left_haar, corr_y.right_haar, corr_y.space, corr_y.family, values, check=False
        )
        with pytest.raises(CompositionStageError) as info:
            compose(corr_x, bad_y)
        assert info.value.stage == "build_mu"
        cause = info.value.cause
        assert cause.residual == pytest.approx(11 / 12)
        assert cause.witness in bad_y.left_tg.arrow_ids
        assert f"at {cause.witness}" in str(info.value)
