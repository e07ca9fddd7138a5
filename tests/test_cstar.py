from __future__ import annotations

import dataclasses
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import gcorr as gc
from gcorr import catalog
from gcorr.composition import compose
from gcorr.cstar import (
    AlgebraElement,
    Mismatch,
    ModuleElement,
    _cmul,
    convolve,
    delta_arrow,
    delta_point,
    inner_product,
    lambda_prime,
    left_action,
    representation_matrices,
    right_action,
    tensor_inner_product,
    verify_theorem,
)
from gcorr.randgen import SplitMix64, random_pair
from gcorr.util import crdev
from tests.conftest import (
    MIX_CAPS,
    PAIRS_45,
    coeff_array,
    coeff_dict,
    full_sweep_certificate,
    involution,
    is_unit_arrow,
    ladder_pair,
    line_verdicts,
    pair_45,
    scaled_family,
    translation_action,
    translation_correspondence,
)


def _dev(a, b) -> float:
    a, b = coeff_dict(a), coeff_dict(b)
    return max(
        (abs(a.get(k, 0j) - b.get(k, 0j)) for k in a.keys() | b.keys()), default=0.0
    )


def rand_alg(rng, g):
    return AlgebraElement(g, np.array([rng.cnum() for _ in range(g.n_arrows)]))


def rand_mod(rng, corr):
    return ModuleElement(corr, np.array([rng.cnum() for _ in range(corr.space.n_points)]))


class TestConvolution:
    def test_unit_mass_is_identity(self, z3):
        haar = gc.counting_haar(z3)
        e = delta_arrow(z3, z3.unit_arrow[0])
        rng = SplitMix64(0)
        phi = rand_alg(rng, z3)
        assert _dev(convolve(e, phi, haar).coeff, phi.coeff) == 0
        assert _dev(convolve(phi, e, haar).coeff, phi.coeff) == 0

    def test_pair_groupoid_is_matrix_product(self):
        n = 5
        pg = gc.pair_groupoid([str(i) for i in range(n)])
        haar = gc.counting_haar(pg)
        rng = SplitMix64(1)

        def to_mat(phi):
            m = np.zeros((n, n), dtype=complex)
            for a, v in coeff_dict(phi.coeff).items():
                m[pg.dst[a], pg.src[a]] = v
            return m

        for _ in range(5):
            phi, psi = rand_alg(rng, pg), rand_alg(rng, pg)
            assert np.allclose(
                to_mat(convolve(phi, psi, haar)), to_mat(phi) @ to_mat(psi), atol=1e-12
            )

    def test_abelian_group_commutative(self, z2):
        haar = gc.counting_haar(z2)
        rng = SplitMix64(2)
        phi, psi = rand_alg(rng, z2), rand_alg(rng, z2)
        assert _dev(convolve(phi, psi, haar).coeff, convolve(psi, phi, haar).coeff) < 1e-14

    def test_associative_to_tolerance(self):
        corr_x, _ = random_pair(3, max_x=8, max_y=8, max_mid=8, check=False)
        g, haar = corr_x.left, corr_x.left_haar
        rng = SplitMix64(3)
        for _ in range(5):
            a, b, c = (rand_alg(rng, g) for _ in range(3))
            lhs = convolve(convolve(a, b, haar), c, haar)
            rhs = convolve(a, convolve(b, c, haar), haar)
            assert _dev(lhs.coeff, rhs.coeff) < 1e-12

    def test_groupoid_mismatch(self, z2, z3):
        with pytest.raises(Exception):
            convolve(delta_arrow(z2, 0), delta_arrow(z3, 0), gc.counting_haar(z2))


class TestInvolution:
    def test_exponent_two_real_fixed(self, z2):
        phi = AlgebraElement(z2, coeff_array({0: 1.5 + 0j, 1: -2.0 + 0j}, 2))
        assert coeff_dict(involution(phi).coeff) == coeff_dict(phi.coeff)

    def test_antimultiplicative(self, z3):
        haar = gc.haar_from_unit_weights(z3, (F(2, 3),))
        rng = SplitMix64(4)
        phi, psi = rand_alg(rng, z3), rand_alg(rng, z3)
        lhs = involution(convolve(phi, psi, haar))
        rhs = convolve(involution(psi), involution(phi), haar)
        assert _dev(lhs.coeff, rhs.coeff) < 1e-12

    def test_involutive(self, z3):
        rng = SplitMix64(5)
        phi = rand_alg(rng, z3)
        assert _dev(involution(involution(phi)).coeff, phi.coeff) == 0


class TestModuleActions:
    def test_unit_mass_acts_trivially(self):
        corr = translation_correspondence()
        f = ModuleElement(corr, coeff_array({0: 1 + 2j, 1: -1j}, 2))
        e = delta_arrow(corr.left, corr.left.unit_arrow[0])
        assert _dev(left_action(e, f, corr).coeff, f.coeff) == 0
        er = delta_arrow(corr.right, corr.right.unit_arrow[0])
        assert _dev(right_action(f, er, corr).coeff, f.coeff) == 0

    def test_representation_property(self):
        corr, _ = random_pair(11, max_x=10, max_y=10, max_mid=8, check=False)
        rng = SplitMix64(6)
        haar = corr.left_haar
        for _ in range(5):
            phi, psi = rand_alg(rng, corr.left), rand_alg(rng, corr.left)
            f = rand_mod(rng, corr)
            lhs = left_action(convolve(phi, psi, haar), f, corr)
            rhs = left_action(phi, left_action(psi, f, corr), corr)
            assert _dev(lhs.coeff, rhs.coeff) < 1e-9

    def test_right_module_associativity(self):
        corr, _ = random_pair(12, max_x=10, max_y=10, max_mid=8, check=False)
        rng = SplitMix64(7)
        haar = corr.right_haar
        for _ in range(5):
            p1, p2 = rand_alg(rng, corr.right), rand_alg(rng, corr.right)
            f = rand_mod(rng, corr)
            lhs = right_action(f, convolve(p1, p2, haar), corr)
            rhs = right_action(right_action(f, p1, corr), p2, corr)
            assert _dev(lhs.coeff, rhs.coeff) < 1e-9

    def test_weighted_two_point_hand_evaluation(self):
        # left translation by the nontrivial element of Z/2, weights (1, 3):
        # (δ_g1·f)(a1) = f(a0)·sqrt(Δ(g1, a0)) with Δ(g1, a0) = λ(a0)/λ(a1) = 1/3
        corr = translation_correspondence(lam=(1, 3))
        f = ModuleElement(corr, coeff_array({0: 1.0 + 0j}, 2))
        out = left_action(delta_arrow(corr.left, 1), f, corr)
        assert coeff_dict(out.coeff) == {1: pytest.approx(math.sqrt(1 / 3))}

    def test_compatibility_inner_with_right(self):
        corr, _ = random_pair(13, max_x=10, max_y=10, max_mid=8, check=False)
        rng = SplitMix64(8)
        haar = corr.right_haar
        for _ in range(5):
            f, g_ = rand_mod(rng, corr), rand_mod(rng, corr)
            psi = rand_alg(rng, corr.right)
            lhs = inner_product(f, right_action(g_, psi, corr), corr)
            rhs = convolve(inner_product(f, g_, corr), psi, haar)
            assert _dev(lhs.coeff, rhs.coeff) < 1e-9


class TestInnerProduct:
    def test_diagonal_positive_at_units(self):
        corr = translation_correspondence(lam=(1, 3))
        rng = SplitMix64(9)
        f = rand_mod(rng, corr)
        ip = inner_product(f, f, corr)
        h = corr.right
        for u in range(h.n_units):
            val = ip(h.unit_arrow[u])
            assert val.imag == pytest.approx(0.0, abs=1e-14)
            assert val.real >= 0

    def test_conjugate_symmetry_exact(self):
        corr, _ = random_pair(14, max_x=10, max_y=10, max_mid=8, check=False)
        rng = SplitMix64(10)
        f, g_ = rand_mod(rng, corr), rand_mod(rng, corr)
        lhs = involution(inner_product(f, g_, corr))
        rhs = inner_product(g_, f, corr)
        assert _dev(lhs.coeff, rhs.coeff) < 1e-13

    def test_positivity_via_representation(self):
        corr, _ = random_pair(15, max_x=10, max_y=10, max_mid=8, check=False)
        rng = SplitMix64(11)
        h, haar = corr.right, corr.right_haar
        reps = [representation_matrices(h, haar, u) for u in range(h.n_units)]
        for _ in range(20):
            f = rand_mod(rng, corr)
            gram = inner_product(f, f, corr)
            for _, apply in reps:
                m = apply(gram)
                if m.size:
                    assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -1e-10


class TestRepresentationMatrices:
    def test_pair_groupoid_full_matrix_algebra(self):
        n = 3
        pg = gc.pair_groupoid([str(i) for i in range(n)])
        haar = gc.counting_haar(pg)
        basis, apply = representation_matrices(pg, haar, 0)
        assert len(basis) == n
        images = [apply(delta_arrow(pg, a)) for a in range(pg.n_arrows)]
        flat = np.array([m.reshape(-1) for m in images])
        assert np.linalg.matrix_rank(flat) == n * n  # spans all of M_n

    def test_group_regular_representation_unitary(self, z3):
        haar = gc.counting_haar(z3)
        _, apply = representation_matrices(z3, haar, 0)
        for a in range(3):
            m = apply(delta_arrow(z3, a))
            assert np.allclose(m @ m.conj().T, np.eye(3), atol=1e-12)

    def test_star_homomorphism_weighted(self):
        corr, _ = random_pair(16, max_x=8, max_y=8, max_mid=8, check=False)
        g, haar = corr.left, corr.left_haar
        rng = SplitMix64(12)
        _, apply = representation_matrices(g, haar, 0)
        for _ in range(5):
            phi, psi = rand_alg(rng, g), rand_alg(rng, g)
            assert np.allclose(
                apply(convolve(phi, psi, haar)), apply(phi) @ apply(psi), atol=1e-12
            )
            assert np.allclose(apply(involution(phi)), apply(phi).conj().T, atol=1e-12)


def triple_sum_oracle(f, g_, f2, g2, corr_x, corr_y):
    """The tensor inner product as one explicit triple sum per arrow,
    written independently of the chained operations."""
    g2g, g3 = corr_x.right, corr_y.right
    act_xr, act_yl, act_yr = corr_x.space.right, corr_y.space.left, corr_y.space.right
    out = {}
    for gbar in range(g3.n_arrows):
        total = 0j
        for y in range(corr_y.space.n_points):
            if act_yr.momentum[y] != g3.dst[gbar]:
                continue
            for gam in g2g.fibre_dst[act_yl.momentum[y]]:
                y1 = act_yl.table[(g2g.inv[gam], act_yr.table[(y, gbar)])]
                for x in range(corr_x.space.n_points):
                    if act_xr.momentum[x] != act_yl.momentum[y]:
                        continue
                    total += (
                        f(x).conjugate()
                        * g_(y).conjugate()
                        * f2(act_xr.table[(x, gam)])
                        * g2(y1)
                        * math.sqrt(float(corr_y.adjoining_at(gam, y1)))
                        * float(corr_x.family.weight[x])
                        * float(corr_x.right_haar.w(gam))
                        * float(corr_y.family.weight[y])
                    )
        if total != 0:
            out[gbar] = total
    return out


class TestTensorInnerProduct:
    def test_singleton_all_ones(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        f = ModuleElement(corr_x, coeff_array({0: 1 + 0j}, corr_x.space.n_points))
        g_ = ModuleElement(corr_y, coeff_array({0: 1 + 0j}, corr_y.space.n_points))
        res = coeff_dict(tensor_inner_product(f, g_, f, g_, corr_x, corr_y).coeff)
        # scalar product of the two weights at the matched points
        if res:
            val = list(res.values())[0]
            assert val.imag == 0 and val.real > 0

    def test_matches_triple_sum_oracle(self):
        for seed in (17, 18):
            corr_x, corr_y = random_pair(seed, max_x=8, max_y=8, max_mid=8, check=False)
            rng = SplitMix64(seed)
            f, f2 = rand_mod(rng, corr_x), rand_mod(rng, corr_x)
            g_, g2 = rand_mod(rng, corr_y), rand_mod(rng, corr_y)
            chained = tensor_inner_product(f, g_, f2, g2, corr_x, corr_y)
            oracle = triple_sum_oracle(f, g_, f2, g2, corr_x, corr_y)
            assert _dev(chained.coeff, oracle) < 1e-12

    def test_sesquilinear_left_slot(self):
        corr_x, corr_y = random_pair(19, max_x=8, max_y=8, max_mid=8, check=False)
        rng = SplitMix64(13)
        f, f2, g_, g2 = (
            rand_mod(rng, corr_x), rand_mod(rng, corr_x),
            rand_mod(rng, corr_y), rand_mod(rng, corr_y),
        )
        z = rng.cnum()
        zf = ModuleElement(corr_x, z * f.coeff)
        lhs = tensor_inner_product(zf, g_, f2, g2, corr_x, corr_y)
        base = tensor_inner_product(f, g_, f2, g2, corr_x, corr_y)
        scaled = z.conjugate() * base.coeff
        assert _dev(lhs.coeff, scaled) < 1e-12


class TestLambdaPrime:
    def test_trivial_middle_pointwise_product(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        res = compose(corr_x, corr_y)
        rng = SplitMix64(14)
        f, g_ = rand_mod(rng, corr_x), rand_mod(rng, corr_y)
        lp = lambda_prime(f, g_, res)
        for o in range(res.orbits.n_orbits):
            x, y = res.fp.pairs[res.orbits.reps[o]]
            lam_w = float(res.lambda_pi.weight[res.orbits.reps[o]])
            expected = f(x) * g_(y) * lam_w
            assert abs(lp(o) - expected) < 1e-12

    def test_bilinear(self):
        corr_x, corr_y = random_pair(20, max_x=8, max_y=8, max_mid=8, check=False)
        res = compose(corr_x, corr_y)
        rng = SplitMix64(15)
        f1, f2 = rand_mod(rng, corr_x), rand_mod(rng, corr_x)
        g_ = rand_mod(rng, corr_y)
        z = rng.cnum()
        combo = ModuleElement(corr_x, z * f1.coeff + f2.coeff)
        lhs = lambda_prime(combo, g_, res)
        rhs = z * lambda_prime(f1, g_, res).coeff + lambda_prime(f2, g_, res).coeff
        assert _dev(lhs.coeff, rhs) < 1e-12

    def test_right_module_map(self):
        corr_x, corr_y = random_pair(21, max_x=8, max_y=8, max_mid=8, check=False)
        res = compose(corr_x, corr_y)
        rng = SplitMix64(16)
        f, g_ = rand_mod(rng, corr_x), rand_mod(rng, corr_y)
        psi = rand_alg(rng, corr_y.right)
        lhs = lambda_prime(f, right_action(g_, psi, corr_y), res)
        rhs = right_action(lambda_prime(f, g_, res), psi, res.composite)
        assert _dev(lhs.coeff, rhs.coeff) < 1e-9


def dense_lambda_prime(f, g_el, result):
    """The comparison map as first written: a double loop over all |X|·|Y|
    pairs, kept as the reference for the fibre-product walk."""
    out = {}
    for x, vx in coeff_dict(f.coeff).items():
        for y, vy in coeff_dict(g_el.coeff).items():
            z = result.fp.index.get((x, y))
            if z is None:
                continue
            o = result.orbits.proj[z]
            val = vx * vy * float(result.b.value[z]) ** -0.5 * float(result.lambda_pi.weight[z])
            out[o] = out.get(o, 0j) + val
    return {k: v for k, v in out.items() if v != 0}


def _sparse_map_instances():
    for name in catalog.EXAMPLE_NAMES:
        corr_x, corr_y, _ = catalog.example_pair(name)
        yield name, corr_x, corr_y
    for seed in (4, 17, 31):
        corr_x, corr_y = random_pair(seed, max_x=12, max_y=12, max_mid=8, check=False)
        yield f"random-{seed}", corr_x, corr_y


class TestSparseComparisonMap:
    def test_lambda_prime_matches_dense_reference(self):
        for name, corr_x, corr_y in _sparse_map_instances():
            res = compose(corr_x, corr_y)
            rng = SplitMix64(8)
            for _ in range(4):
                f, g_ = rand_mod(rng, corr_x), rand_mod(rng, corr_y)
                sparse = coeff_dict(lambda_prime(f, g_, res).coeff)
                dense = dense_lambda_prime(f, g_, res)
                assert sparse.keys() == dense.keys(), name
                scale = max((abs(v) for v in dense.values()), default=1.0)
                assert _dev(sparse, dense) <= 1e-14 * max(1.0, scale), name
            for x in range(corr_x.space.n_points):  # point masses, on and off Z
                for y in range(corr_y.space.n_points):
                    f, g_ = delta_point(corr_x, x), delta_point(corr_y, y)
                    sparse = coeff_dict(lambda_prime(f, g_, res).coeff)
                    assert sparse.keys() == dense_lambda_prime(f, g_, res).keys(), name

    def test_counted_rank_matches_matrix_rank(self):
        from gcorr.cstar import image_rank

        for name, corr_x, corr_y in _sparse_map_instances():
            res = compose(corr_x, corr_y)
            n_z = len(res.fp.pairs)
            mat = np.zeros((res.orbits.n_orbits, max(n_z, 1)))
            for z in range(n_z):
                mat[res.orbits.proj[z], z] = res.ell[z]
            assert image_rank(res) == int(np.linalg.matrix_rank(mat)), name
            assert image_rank(res) == res.orbits.n_orbits, name

    def test_pairs_by_x_indexes_the_fibre_product(self):
        corr_x, corr_y = random_pair(4, max_x=12, max_y=12, max_mid=8, check=False)
        res = compose(corr_x, corr_y)
        flat = sorted((x, y, z) for x, row in enumerate(res.pairs_by_x) for y, z in row)
        assert flat == sorted((x, y, z) for z, (x, y) in enumerate(res.fp.pairs))


class TestVerifyTheorem:
    def test_basis_sweep_matches_operation_chain(self):
        """The sparse Gram assemblies agree entry-by-entry with the generic
        operation chain, on each side separately."""
        from gcorr.cstar import image_basis_gram, tensor_basis_gram

        corr_x, corr_y = random_pair(30, max_x=10, max_y=10, max_mid=8, check=False)
        res = compose(corr_x, corr_y)
        g3 = corr_y.right
        n_z = len(res.fp.pairs)
        q = tensor_basis_gram(corr_x, corr_y, res, range(n_z))
        r = image_basis_gram(res, range(res.orbits.n_orbits))
        rng = SplitMix64(99)
        for _ in range(min(16, n_z * n_z)):
            i, j = rng.randint(0, n_z - 1), rng.randint(0, n_z - 1)
            xi, yi = res.fp.pairs[i]
            xj, yj = res.fp.pairs[j]
            ei = (delta_point(corr_x, xi), delta_point(corr_y, yi))
            ej = (delta_point(corr_x, xj), delta_point(corr_y, yj))
            tensor = tensor_inner_product(*ei, *ej, corr_x, corr_y)
            image = inner_product(
                lambda_prime(*ei, res), lambda_prime(*ej, res), res.composite
            )
            for gbar in range(g3.n_arrows):
                assert abs(q.get((i, j, gbar), 0.0) - tensor(gbar)) < 1e-12
                assert abs(r.get((i, j, gbar), 0.0) - image(gbar)) < 1e-12

    @pytest.mark.parametrize("name", PAIRS_45)
    def test_off_product_point_masses_are_zero_on_both_sides(self, name):
        """δ_x ⊗ δ_y with (x, y) ∉ Z maps to 0 under λ′, which reads only
        pairs of Z, and has tensor norm 0: ⟨δ_x, δ_x⟩ lives on the loops
        at s(x), which act on no δ_y with r(y) ≠ s(x)."""
        corr_x, corr_y = pair_45(name)
        res = compose(corr_x, corr_y)
        n_x, n_y = corr_x.space.n_points, corr_y.space.n_points
        off = [(x, y) for x in range(n_x) for y in range(n_y) if (x, y) not in res.fp.index]
        xs, ys = [x for x, _ in off], [y for _, y in off]
        f = ModuleElement(corr_x, np.eye(n_x, dtype=np.complex128)[xs])
        g_ = ModuleElement(corr_y, np.eye(n_y, dtype=np.complex128)[ys])
        assert lambda_prime(f, g_, res).coeff.shape[0] == len(off)
        assert not lambda_prime(f, g_, res).coeff.any()
        assert not tensor_inner_product(f, g_, f, g_, corr_x, corr_y).coeff.any()

    def test_catalog_instances_pass(self):
        for name in catalog.EXAMPLE_NAMES:
            corr_x, corr_y, _ = catalog.example_pair(name)
            res = compose(corr_x, corr_y)
            gram = verify_theorem(corr_x, corr_y, res, trials=25, seed=42)
            assert gram.passed, f"{name}: {gram.report().render()}"
            if res.report.notes["scalar_mode"] == "exact":
                assert gram.isometry_max_dev < 1e-12
                assert gram.intertwining_max_dev < 1e-12

    def test_fn_compose_basis_exactly_zero(self):
        corr_x, corr_y, _ = catalog.example_pair("fn-compose")
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=0, seed=0)
        assert gram.isometry_max_dev == 0.0
        assert gram.intertwining_max_dev == 0.0

    def test_corrupted_cochain_detected(self):
        corr_x, corr_y = random_pair(22, max_x=10, max_y=10, max_mid=8, check=False)
        res = compose(corr_x, corr_y)
        bad_b = list(res.b.value)
        o = res.orbits.members[0]
        for z in o:
            bad_b[z] = float(bad_b[z]) * 4.0  # scales mu on one orbit only
        hacked = dataclasses.replace(res, b=res.b.__class__(res.tg_z, tuple(bad_b)))
        gram = verify_theorem(corr_x, corr_y, hacked, trials=0, seed=0)
        assert not gram.isometry_ok

    def test_corrupted_adjoining_breaks_intertwining(self):
        corr_x, corr_y = random_pair(24, max_x=10, max_y=10, max_mid=8, check=False)
        res = compose(corr_x, corr_y)
        if res.delta12.groupoid.n_arrows == 0:
            pytest.skip("no left arrows act on the composite")
        bad = [float(v) for v in res.delta12.value]
        k = max(range(len(bad)), key=lambda i: not is_unit_arrow(res.delta12.groupoid, i))
        bad[k] *= 9.0
        from gcorr.correspondence import Correspondence
        from gcorr.cohomology import Cocycle1

        comp = res.composite
        hacked_comp = Correspondence(
            comp.left_haar, comp.right_haar, comp.space, comp.family,
            Cocycle1(comp.left_tg, tuple(bad)),
            comp.left_tg, comp.left_tg_index,
        )
        hacked = dataclasses.replace(
            res, delta12=Cocycle1(res.delta12.groupoid, tuple(bad)), composite=hacked_comp
        )
        gram = verify_theorem(corr_x, corr_y, hacked, trials=0, seed=0)
        assert not gram.intertwining_ok
        assert gram.intertwining_witness is not None

    def test_mismatched_module_elements_raise(self):
        corr_x, corr_y, _ = catalog.example_pair("fn-compose")
        with pytest.raises(Mismatch):
            inner_product(
                delta_point(corr_x, 0), delta_point(corr_x, 0), corr_y
            )


# ---------------------------------------------------------------------------
# float views: the per-element loops as first written, kept as oracles


def oracle_left_action(phi, f, corr):
    g, act = corr.left, corr.space.left
    out = {}
    for a, va in coeff_dict(phi.coeff).items():
        wa = va * float(corr.left_haar.w(a))
        for z, vz in coeff_dict(f.coeff).items():
            if g.src[a] == act.momentum[z]:
                x = act.table[(a, z)]
                out[x] = out.get(x, 0j) + wa * vz * math.sqrt(float(corr.adjoining_at(a, z)))
    return {k: v for k, v in out.items() if v != 0}


def oracle_inner_product(f, g_el, corr):
    h, act = corr.right, corr.space.right
    g_coeff = coeff_dict(g_el.coeff)
    out = {}
    for x, vx in coeff_dict(f.coeff).items():
        lx = vx.conjugate() * float(corr.family.weight[x])
        for eta in h.fibre_dst[act.momentum[x]]:
            gx = g_coeff.get(act.table[(x, eta)])
            if gx:
                out[eta] = out.get(eta, 0j) + lx * gx
    return {k: v for k, v in out.items() if v != 0}


def oracle_tensor_basis_gram(corr_x, corr_y, result, zs):
    g2, g3 = corr_x.right, corr_y.right
    chi2, fp = corr_x.right_haar, result.fp
    act_xr, act_yl, act_yr = corr_x.space.right, corr_y.space.left, corr_y.space.right
    q = {}
    for i in zs:
        x, y = fp.pairs[i]
        ax_by = float(corr_x.family.weight[x]) * float(corr_y.family.weight[y])
        for gbar in g3.fibre_dst[act_yr.momentum[y]]:
            ygbar = act_yr.table[(y, gbar)]
            for gam in g2.fibre_dst[act_yl.momentum[y]]:
                x1 = act_xr.table[(x, gam)]
                y1 = act_yl.table[(g2.inv[gam], ygbar)]
                key = (i, fp.index[(x1, y1)], gbar)
                val = math.sqrt(float(corr_y.adjoining_at(gam, y1))) * ax_by * float(chi2.w(gam))
                q[key] = q.get(key, 0.0) + val
    return q


def _bits(d: dict) -> list:
    """Keys in order with the exact bit patterns of the values."""
    return [(k, complex(v).real.hex(), complex(v).imag.hex()) for k, v in d.items()]


def _float_view_instances():
    for name in catalog.EXAMPLE_NAMES:
        corr_x, corr_y, _ = catalog.example_pair(name)
        yield name, corr_x, corr_y
    for seed in range(10):
        corr_x, corr_y = random_pair(seed)
        yield f"random-{seed}", corr_x, corr_y


class TestFloatViewsBitForBit:
    """The table-reading operations reproduce the per-element loops exactly:
    the same nonzero values, bit for bit, at the same indices."""

    @pytest.fixture(scope="class")
    def instances(self):
        return [
            (name, corr_x, corr_y, compose(corr_x, corr_y))
            for name, corr_x, corr_y in _float_view_instances()
        ]

    def test_left_action_and_inner_product(self, instances):
        rng = SplitMix64(5)
        for name, corr_x, corr_y, res in instances:
            for corr in (corr_x, corr_y, res.composite):
                n_pts = corr.space.n_points
                elements = [rand_mod(rng, corr) for _ in range(3)]
                elements += [delta_point(corr, p) for p in range(n_pts)]
                algebra = [rand_alg(rng, corr.left) for _ in range(3)]
                algebra += [delta_arrow(corr.left, a) for a in range(corr.left.n_arrows)]
                for phi in algebra:
                    for f in elements:
                        got = left_action(phi, f, corr).coeff
                        want = oracle_left_action(phi, f, corr)
                        assert _bits(coeff_dict(got)) == _bits(coeff_dict(want)), name
                for f in elements:
                    for g_ in elements[:11]:
                        got = inner_product(f, g_, corr).coeff
                        want = oracle_inner_product(f, g_, corr)
                        assert _bits(coeff_dict(got)) == _bits(coeff_dict(want)), name

    def test_tensor_basis_gram(self, instances):
        from gcorr.cstar import tensor_basis_gram

        for name, corr_x, corr_y, res in instances:
            zs = range(len(res.fp.pairs))
            got = tensor_basis_gram(corr_x, corr_y, res, zs)
            assert _bits(got) == _bits(oracle_tensor_basis_gram(corr_x, corr_y, res, zs)), name


def _full_formula_apply(table, u, v, conj=False):
    """`cstar._apply` with each real factor r taken as r + 0j through the
    full complex product, as CPython multiplies a complex by a float."""
    ur, ui = u.real[..., table.left], u.imag[..., table.left]
    if conj:
        ui = -ui
    if table.pre is not None:
        ur, ui = _cmul(ur, ui, table.pre, 0.0)
    tr, ti = _cmul(ur, ui, v.real[..., table.right], v.imag[..., table.right])
    if table.post is not None:
        tr, ti = _cmul(tr, ti, table.post, 0.0)
    lead, n = tr.shape[:-1], table.n_out
    rows = math.prod(lead)
    idx = (np.arange(rows)[:, None] * n + table.out).ravel() if lead else table.out
    out = np.empty(lead + (n,), dtype=np.complex128)
    out.real = np.bincount(idx, tr.ravel(), rows * n).reshape(out.shape)
    out.imag = np.bincount(idx, ti.ravel(), rows * n).reshape(out.shape)
    return out


class TestRealFactors:
    """`_apply` multiplies by a real table factor with one product per
    part; every output equals the full complex formula's, bit for bit."""

    @pytest.mark.parametrize("name", PAIRS_45)
    def test_outputs_equal_the_full_formula(self, name, monkeypatch):
        import gcorr.cstar as cstar

        corr_x, corr_y = pair_45(name)
        res = compose(corr_x, corr_y)
        rng = SplitMix64(7)

        def operands(n_u, n_v):
            """Random rows, and negated point masses (their zeros are −0,
            so some terms differ in the sign of zero) against random rows
            on either side."""
            def rand(k, n):
                return rng.cnum_array(k * n).reshape(k, n)
            yield rand(4, n_u), rand(4, n_v)
            yield -np.eye(n_u, dtype=np.complex128), rand(n_u, n_v)
            yield rand(n_v, n_u), -np.eye(n_v, dtype=np.complex128)

        calls = []
        for corr in (corr_x, corr_y, res.composite):
            n_pts = corr.space.n_points
            for haar in (corr.left_haar, corr.right_haar):
                g = haar.groupoid
                for u, v in operands(g.n_arrows, g.n_arrows):
                    calls.append((convolve, AlgebraElement(g, u), AlgebraElement(g, v), haar))
            for u, v in operands(corr.left.n_arrows, n_pts):
                calls.append((left_action, AlgebraElement(corr.left, u), ModuleElement(corr, v), corr))
            for u, v in operands(n_pts, corr.right.n_arrows):
                calls.append((right_action, ModuleElement(corr, u), AlgebraElement(corr.right, v), corr))
            for u, v in operands(n_pts, n_pts):
                calls.append((inner_product, ModuleElement(corr, u), ModuleElement(corr, v), corr))
        for u, v in operands(corr_x.space.n_points, corr_y.space.n_points):
            calls.append((lambda_prime, ModuleElement(corr_x, u), ModuleElement(corr_y, v), res))

        got = [op(*args).coeff for op, *args in calls]
        monkeypatch.setattr(cstar, "_apply", _full_formula_apply)
        want = [op(*args).coeff for op, *args in calls]
        for (op, *_), a, b in zip(calls, got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), op.__name__


class TestBoundedWorkingSet:
    """`_apply` runs a stack of more rows × table entries than
    `WORKING_SET_ENTRIES` in row slices.  Every row equals the per-element
    oracles of `TestFloatViewsBitForBit` bit for bit, on either side of
    the budget, and the certificate does not depend on it."""

    @pytest.fixture(scope="class")
    def corrs(self):
        out = []
        for corr_x, corr_y in [catalog.example_pair("induction-finite")[:2], random_pair(9, **MIX_CAPS)]:
            out += [corr_x, corr_y, compose(corr_x, corr_y).composite]
        return out

    # (stack rows, rows the budget holds): one row below the budget, at it,
    # one row above it, and a single row larger than the budget (0)
    @pytest.mark.parametrize("rows, fit", [(3, 4), (4, 4), (5, 4), (3, 0)], ids=["below", "at", "above", "row-above"])
    def test_stacked_rows_equal_the_oracles(self, corrs, rows, fit, monkeypatch):
        import gcorr.cstar as cstar

        rng = SplitMix64(21)

        def stack(n):
            """Random rows, the last one a point mass."""
            out = rng.cnum_array(rows * n).reshape(rows, n)
            out[-1] = 0
            out[-1, -1] = 1
            return out

        for corr in corrs:
            n_pts, n_left, n_right = corr.space.n_points, corr.left.n_arrows, corr.right.n_arrows
            checks = (
                (corr.left_action_table, stack(n_left), stack(n_pts),
                 lambda u, v: left_action(AlgebraElement(corr.left, u), ModuleElement(corr, v), corr).coeff,
                 lambda u, v: oracle_left_action(AlgebraElement(corr.left, u), ModuleElement(corr, v), corr)),
                (corr.inner_product_table, stack(n_pts), stack(n_pts),
                 lambda u, v: inner_product(ModuleElement(corr, u), ModuleElement(corr, v), corr).coeff,
                 lambda u, v: oracle_inner_product(ModuleElement(corr, u), ModuleElement(corr, v), corr)),
            )
            for table, u, v, op, oracle in checks:
                m = len(table.out)
                budget = fit * m if fit else m - 1
                monkeypatch.setattr(cstar, "WORKING_SET_ENTRIES", budget)
                assert (rows * m > budget) == (rows > fit)
                got = op(u, v)
                assert got.shape[0] == rows
                for r in range(rows):
                    assert _bits(coeff_dict(got[r])) == _bits(coeff_dict(oracle(u[r], v[r])))

    @pytest.mark.parametrize("budget", [1, 2**24], ids=["sliced", "whole"])
    def test_one_element_against_a_stack_broadcasts(self, corrs, budget, monkeypatch):
        """One algebra element acts on a stack of module elements row by
        row, as on each row alone."""
        import gcorr.cstar as cstar

        monkeypatch.setattr(cstar, "WORKING_SET_ENTRIES", budget)
        rng = SplitMix64(5)
        for corr in corrs:
            phi = AlgebraElement(corr.left, rng.cnum_array(corr.left.n_arrows))
            f = rng.cnum_array(3 * corr.space.n_points).reshape(3, -1)
            got = left_action(phi, ModuleElement(corr, f), corr).coeff
            for r in range(3):
                want = left_action(phi, ModuleElement(corr, f[r]), corr).coeff
                assert np.array_equal(got[r].view(np.uint64), want.view(np.uint64))

    def test_certificate_does_not_depend_on_the_budget(self, monkeypatch):
        """A budget of 1 runs every trial in its own block and every stack
        one row at a time; 2²⁴ runs every stack whole."""
        import gcorr.cstar as cstar

        pairs = [catalog.example_pair(name)[:2] for name in catalog.EXAMPLE_NAMES]
        mix = [random_pair(i, **MIX_CAPS) for i in range(10)]
        pairs += mix + [tuple(scaled_family(c, 1, exact=False) for c in p) for p in mix]
        pairs.append(ladder_pair(6))
        for corr_x, corr_y in pairs:
            res = compose(corr_x, corr_y)
            want = repr(verify_theorem(corr_x, corr_y, res, trials=30, seed=1))
            for budget in (1, 2**24):
                monkeypatch.setattr(cstar, "WORKING_SET_ENTRIES", budget)
                assert repr(verify_theorem(corr_x, corr_y, res, trials=30, seed=1)) == want
            monkeypatch.undo()

    def test_warm_certificate_memory_stays_bounded(self):
        """A warm certificate at ladder 64 with 200 trials peaks under
        2 MiB of traced allocations; whole-stack arrays would take about
        6 MiB."""
        import tracemalloc

        corr_x, corr_y = ladder_pair(64)
        res = compose(corr_x, corr_y)
        verify_theorem(corr_x, corr_y, res, trials=200, seed=0)  # builds the cached tables
        tracemalloc.start()
        try:
            verify_theorem(corr_x, corr_y, res, trials=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


def chain_sweep(corr_x, corr_y, res):
    """The basis intertwining sweep through the operations, as first
    written: (worst deviation, its first (arrow, z), check count)."""
    g1, fp = corr_x.left, res.fp
    worst, witness, checks = 0.0, None, 0
    for a1 in range(g1.n_arrows):
        phi = delta_arrow(g1, a1)
        for z, (x, y) in enumerate(fp.pairs):
            if corr_x.space.left.momentum[x] != g1.src[a1]:
                continue
            checks += 1
            fx, gy = delta_point(corr_x, x), delta_point(corr_y, y)
            lhs = lambda_prime(left_action(phi, fx, corr_x), gy, res).coeff.tolist()
            rhs = left_action(phi, lambda_prime(fx, gy, res), res.composite).coeff.tolist()
            d = max(map(crdev, lhs, rhs), default=0.0)
            if d > worst:
                worst, witness = d, (a1, z)
    return worst, witness, checks


class TestIntertwiningSweep:
    def test_table_read_sweep_equals_operation_chain(self):
        """The basis intertwining sweep reads the tables (the lemma of
        `verify_theorem`) and gives the chain's deviation bit for bit."""
        pairs = [catalog.example_pair(name)[:2] for name in catalog.EXAMPLE_NAMES]
        pairs += [random_pair(i, **MIX_CAPS) for i in (3, 9, 19, 24)]
        pairs += [tuple(scaled_family(c, 10**9, exact=False) for c in p) for p in pairs]
        nonzero = 0
        for corr_x, corr_y in pairs:
            res = compose(corr_x, corr_y)
            gram = verify_theorem(corr_x, corr_y, res, trials=0, seed=0, tol=0.0)
            worst, witness, checks = chain_sweep(corr_x, corr_y, res)
            assert gram.intertwining_checks == checks
            assert gram.intertwining_max_dev.hex() == worst.hex()
            if witness is not None:
                a1, z = witness
                want = f"({corr_x.left.arrow_ids[a1]}) on ({res.fp.point_ids[z]})"
                assert gram.intertwining_witness == want
            nonzero += worst > 0
        assert nonzero  # some pair rounds, so the comparison reads bits

    def test_operation_calls_do_not_grow_with_z_or_trials(self, monkeypatch):
        """The basis sweep reads the tables and the trials run as stacked
        rows, so one certificate makes the same operation calls on ladder
        n = 4 and n = 8, with 20 and with 200 trials."""
        import gcorr.cstar as cstar

        corr_x, corr_y, _ = catalog.example_pair("induction-finite")
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=0, seed=0)
        # exact data: the basis sweep runs on S₁ × Z, and G₁ has one generator here
        assert len(corr_x.left.generators) == 1
        assert gram.intertwining_checks == len(corr_x.left.generators) * len(res.fp.pairs)

        ops = ("left_action", "lambda_prime", "inner_product", "tensor_inner_product")
        counts = {}
        for n in (4, 8):
            corr_x, corr_y = ladder_pair(n)
            res = compose(corr_x, corr_y)
            for trials in (20, 200):
                calls = Counter()
                with monkeypatch.context() as m:
                    for op in ops:
                        original = getattr(cstar, op)

                        def counting(*args, _op=op, _original=original):
                            calls[_op] += 1
                            return _original(*args)

                        m.setattr(cstar, op, counting)
                    gram = verify_theorem(corr_x, corr_y, res, trials=trials, seed=0)
                assert gram.passed
                counts[(n, trials)] = dict(calls)
        assert all(counts[(4, 20)][op] > 0 for op in ops)
        assert all(c == counts[(4, 20)] for c in counts.values()), counts


def _tampered_lambda_pi(res, z, factor):
    from gcorr.measures import MeasureFamily

    lp = res.lambda_pi
    weight = list(lp.weight)
    weight[z] *= factor
    return dataclasses.replace(res, lambda_pi=MeasureFamily(lp.total_ids, lp.base_ids, lp.along, tuple(weight)))


def _point_outside_r(res) -> int:
    r_points = set(res.reduction.z_of)
    return next(z for z in range(len(res.fp.pairs)) if z not in r_points)


class TestCertifyOnGenerators:
    """On exact data the basis phases run on the generators (balancing on
    S₂ with the Gram on R×R, intertwining on S₁ × Z); the full sweeps
    decide whenever that pass cannot, and on float data."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("name", PAIRS_45)
    def test_reduced_and_full_passes_agree(self, name, exact):
        corr_x, corr_y = pair_45(name)
        if not exact:
            corr_x, corr_y = (scaled_family(c, 1, exact=False) for c in (corr_x, corr_y))
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=5, seed=0)
        full = full_sweep_certificate(corr_x, corr_y, res, trials=5, seed=0)
        assert line_verdicts(gram) == line_verdicts(full) and gram.passed
        if exact:  # the pass on the generators decided, with no more work
            assert gram.balancing_checks is not None
            assert gram.isometry_pairs <= full.isometry_pairs
            assert gram.intertwining_checks <= full.intertwining_checks
        else:  # float data: the full sweeps, bit for bit
            assert gram == full

    def test_ladder_counts(self):
        corr_x, corr_y = ladder_pair(10)
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=5, seed=0)
        # |R| = 10, |Z|·|S₂| = 100 balancing checks, |S₁|·|Z| = 100 intertwining checks
        assert (gram.isometry_pairs, gram.balancing_checks, gram.intertwining_checks) == (100, 100, 105)
        names = [c.name for c in gram.report().checks[:2]]
        assert names == ["isometry (100 basis pairs on R + 100 balancing + 5 random)", "intertwining (105 checks)"]

    def test_units_only_groupoids(self):
        """With identity arrows only, R = Z and no point moves: the isometry
        compares every basis pair, as the full sweep does, and the
        intertwining has no generator to check (the cocycle lines certify
        Δ₁ = Δ₁₂ = 1 at identities)."""
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=5, seed=0)
        full = full_sweep_certificate(corr_x, corr_y, res, trials=5, seed=0)
        assert gram.balancing_checks == 0 and corr_x.left.generators == ()
        assert gram.report().checks[0] == full.report().checks[0]
        assert gram.intertwining_checks == 5 < full.intertwining_checks

    def test_restricted_image_gram_is_the_full_one_on_r(self):
        from gcorr.cstar import image_basis_gram

        corr_x, corr_y = random_pair(7, **MIX_CAPS)
        res = compose(corr_x, corr_y)
        within = [z in set(res.reduction.z_of) for z in range(len(res.fp.pairs))]
        orbits = range(res.orbits.n_orbits)
        full = image_basis_gram(res, orbits)
        want = {k: v for k, v in full.items() if within[k[0]] and within[k[1]]}
        assert _bits(image_basis_gram(res, orbits, within)) == _bits(want)

    def test_tol_zero_always_runs_the_full_sweeps(self):
        corr_x, corr_y = ladder_pair(5)
        res = compose(corr_x, corr_y)
        gram = verify_theorem(corr_x, corr_y, res, trials=0, seed=0, tol=0.0)
        assert gram == full_sweep_certificate(corr_x, corr_y, res, trials=0, seed=0, tol=0.0)
        assert gram.balancing_checks is None

    @pytest.mark.parametrize("factor", [F(2), F(1, 3)])
    def test_lambda_pi_tamper_outside_r_fails_and_names_the_point(self, factor):
        corr_x, corr_y = ladder_pair(5)
        res = compose(corr_x, corr_y)
        z = _point_outside_r(res)
        bad = _tampered_lambda_pi(res, z, factor)
        assert bad.exact
        gram = verify_theorem(corr_x, corr_y, bad, trials=0, seed=0)
        assert gram == full_sweep_certificate(corr_x, corr_y, bad, trials=0, seed=0)
        assert not gram.isometry_ok and gram.balancing_checks is None
        assert gram.isometry_witness.startswith("basis") and res.fp.point_ids[z] in gram.isometry_witness
        assert not gram.intertwining_ok

    def test_mu_tamper_fails_the_basis_phase(self):
        from gcorr.measures import MeasureFamily

        corr_x, corr_y = random_pair(9, **MIX_CAPS)
        res = compose(corr_x, corr_y)
        mu = res.mu
        weight = list(mu.weight)
        weight[-1] *= 2
        bad = dataclasses.replace(res, mu=MeasureFamily(mu.total_ids, mu.base_ids, mu.along, tuple(weight)))
        assert bad.exact
        gram = verify_theorem(corr_x, corr_y, bad, trials=0, seed=0)
        full = full_sweep_certificate(corr_x, corr_y, bad, trials=0, seed=0)
        assert gram.balancing_checks is None and not gram.isometry_ok
        assert gram.report().checks[0] == full.report().checks[0]
        members = {res.fp.point_ids[z] for z in res.orbits.members[len(weight) - 1]}
        assert any(p in gram.isometry_witness for p in members)

    def test_exact_delta12_tamper_fails_intertwining_and_names_it(self):
        from gcorr.cohomology import Cocycle1
        from gcorr.correspondence import Correspondence

        corr_x, corr_y = ladder_pair(5)
        res = compose(corr_x, corr_y)
        comp = res.composite
        g1 = comp.left  # an arrow off the generators: the lifts alone would miss it
        a = next(a for a in range(g1.n_arrows) if not is_unit_arrow(g1, a) and a not in g1.generators)
        k = comp.left_tg_index[(a, 0)]
        values = list(res.delta12.value)
        values[k] *= F(9)
        delta = Cocycle1(res.delta12.groupoid, tuple(values))
        hacked = dataclasses.replace(res, delta12=delta, composite=Correspondence(
            comp.left_haar, comp.right_haar, comp.space, comp.family, delta, comp.left_tg, comp.left_tg_index,
        ))
        assert hacked.exact
        gram = verify_theorem(corr_x, corr_y, hacked, trials=0, seed=0)
        assert gram == full_sweep_certificate(corr_x, corr_y, hacked, trials=0, seed=0)
        assert not gram.intertwining_ok and gram.isometry_ok
        on = {res.fp.point_ids[z] for z in res.orbits.members[0]}
        assert any(gram.intertwining_witness == f"({g1.arrow_ids[a]}) on ({p})" for p in on)

    def test_word_bound_keeps_a_drift_from_passing(self):
        """λ_π(x_k, y) times (1 + 3·10⁻¹⁰)^min(k, 8 − k) on ladder 8: a
        drift that every generator check reads as 3·10⁻¹⁰, within
        tol = 10⁻⁹, but that grows along words to 2.4·10⁻⁹ at a Gram entry
        and 1.2·10⁻⁹ at an intertwining check.  The word bound
        K·(ρ + ε) + ε > tol keeps the reduced passes from deciding, and
        the full sweeps fail both lines, as without the reduced pass."""
        from gcorr.cstar import balancing_deviation, basis_isometry, intertwining_deviation
        from gcorr.measures import MeasureFamily

        n = 8
        corr_x, corr_y = ladder_pair(n)
        res = compose(corr_x, corr_y)
        lp = res.lambda_pi
        weight = list(lp.weight)
        for z, (x, _) in enumerate(res.fp.pairs):
            k = int(corr_x.space.point_ids[x][1:])
            weight[z] *= (1 + F(3, 10**10)) ** min(k, n - k)
        bad = dataclasses.replace(res, lambda_pi=MeasureFamily(lp.total_ids, lp.base_ids, lp.along, tuple(weight)))
        within = [z in set(res.reduction.z_of) for z in range(len(res.fp.pairs))]
        assert balancing_deviation(corr_x, corr_y, bad)[0] <= 1e-9
        assert basis_isometry(corr_x, corr_y, bad, within)[0] <= 1e-9
        assert intertwining_deviation(corr_x, bad, corr_x.left.generators)[0] <= 1e-9
        gram = verify_theorem(corr_x, corr_y, bad, trials=0, seed=0)
        assert gram == full_sweep_certificate(corr_x, corr_y, bad, trials=0, seed=0)
        assert not gram.isometry_ok and not gram.intertwining_ok

    def test_a_failing_cocycle_line_runs_the_full_sweeps(self):
        corr_x, corr_y = ladder_pair(4)
        res = compose(corr_x, corr_y)
        values = list(corr_x.adjoining.value)
        values[corr_x.left_tg_index[(1, 0)]] *= 2
        bad_x = gc.make_correspondence(corr_x.left_haar, corr_x.right_haar, corr_x.space, corr_x.family, values, check=False)
        hacked = dataclasses.replace(res, corr_x=bad_x)
        gram = verify_theorem(bad_x, corr_y, hacked, trials=0, seed=0)
        assert gram == full_sweep_certificate(bad_x, corr_y, hacked, trials=0, seed=0)
        assert gram.balancing_checks is None and not gram.intertwining_ok


class TestRandomTrials:
    def test_negative_trials_rejected(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        with pytest.raises(ValueError, match="trials"):
            verify_theorem(corr_x, corr_y, compose(corr_x, corr_y), trials=-1)

    def test_planted_inner_product_error_needs_the_trials(self, monkeypatch):
        """An error in one entry of the composite's inner-product table is
        invisible to the basis sweep, which reads ell and μ, and is caught
        by the random trials."""
        corr_x, corr_y, _ = catalog.example_pair("induction-finite")
        res = compose(corr_x, corr_y)
        table = res.composite.inner_product_table
        pre = table.pre.copy()
        pre[0] *= 2.0
        monkeypatch.setitem(vars(res.composite), "inner_product_table", table._replace(pre=pre))
        gram = verify_theorem(corr_x, corr_y, res, trials=20, seed=0)
        assert not gram.isometry_ok
        assert gram.isometry_witness.startswith("random tensor pair (trial ")
        assert verify_theorem(corr_x, corr_y, res, trials=0, seed=0).isometry_ok

    @pytest.mark.parametrize("trials", [200, 0])
    def test_sqrt_adjoining_tamper_off_the_lifts_needs_the_trials(self, trials, monkeypatch):
        """The smallest tamper of the 45 pairs that only the trials catch:
        on exact `subgroup`, X's √Δ doubled at its last key off the
        identities.  That arrow of G₁ is no generator, so the intertwining
        checks on S₁ × Z never read it; the left action of a trial does."""
        corr_x, corr_y, _ = catalog.example_pair("subgroup")
        res = compose(corr_x, corr_y)
        g1, sqrt_adj = corr_x.left, dict(corr_x.sqrt_adjoining)
        key = [(a, x) for a, x in sqrt_adj if g1.unit_arrow[g1.src[a]] != a][-1]
        assert key[0] not in g1.generators
        sqrt_adj[key] *= 2
        monkeypatch.setitem(vars(corr_x), "sqrt_adjoining", sqrt_adj)
        gram = verify_theorem(corr_x, corr_y, res, trials=trials, seed=0)
        assert gram.isometry_ok and gram.intertwining_ok == (trials == 0)
        if trials:
            assert gram.intertwining_witness.startswith("random algebra element (trial ")


# ---------------------------------------------------------------------------
# scale-relative, NaN-safe deviations


def scaled_quiver(scale: int):
    """The `quiver` catalog pair with both exact families multiplied by scale."""
    from gcorr.correspondence import from_span

    xs, vs = ("q1", "q2", "q3", "q4"), ("v1", "v2", "v3")
    f = {"q1": "zA", "q2": "zB", "q3": "zA", "q4": "zB"}
    g = {"q1": "yA", "q2": "yA", "q3": "yB", "q4": "yB"}
    k = {"v1": "yA", "v2": "yB", "v3": "yB"}
    l_ = {"v1": "wA", "v2": "wA", "v3": "wA"}
    lam1 = {"q1": F(1, 2), "q2": F(3), "q3": F(2), "q4": F(5, 3)}
    lam2 = {"v1": F(4), "v2": F(1, 3), "v3": F(7, 2)}
    first = from_span(("zA", "zB"), ("yA", "yB"), xs, f, g, {p: w * scale for p, w in lam1.items()})
    second = from_span(("yA", "yB"), ("wA",), vs, k, l_, {p: w * scale for p, w in lam2.items()})
    return first, second


class TestRelativeDeviations:
    @pytest.mark.parametrize("scale", [10**5, 10**9])
    def test_scaled_pair_passes(self, scale):
        corr_x, corr_y = scaled_quiver(scale)
        res = compose(corr_x, corr_y)
        assert res.report.passed
        gram = verify_theorem(corr_x, corr_y, res, trials=200, seed=0)
        assert gram.passed, gram.report().render()
        assert gram.isometry_max_dev < 1e-12

    @pytest.mark.parametrize("scale", [10**5, 10**9])
    def test_planted_relative_error_fails_with_witness(self, scale):
        corr_x, corr_y = scaled_quiver(scale)
        res = compose(corr_x, corr_y)
        bad_b = list(res.b.value)
        bad_b[0] = float(bad_b[0]) * (1 + 1e-6)  # one image entry off by ~1e-6, relatively
        hacked = dataclasses.replace(res, b=res.b.__class__(res.tg_z, tuple(bad_b)))
        gram = verify_theorem(corr_x, corr_y, hacked, trials=0, seed=0)
        assert not gram.isometry_ok
        assert 1e-7 < gram.isometry_max_dev < 1e-5
        assert gram.isometry_witness is not None and gram.isometry_witness.startswith("basis")

    def test_nan_entry_is_not_dropped(self):
        from gcorr.cstar import _max_dev

        def dev(a: dict, b: dict) -> float:
            n = 1 + max(a.keys() | b.keys())
            return _max_dev(coeff_array(a, n), coeff_array(b, n))

        assert dev({0: math.nan}, {0: 0j}) == math.inf
        assert dev({0: 0j}, {1: complex(0, math.nan)}) == math.inf
        assert dev({0: 0.5 + 0j}, {0: 0.25 + 0j}) == 0.25  # magnitudes ≤ 1: absolute
        assert dev({0: 4e6 + 0j}, {0: 4e6 - 4 + 0j}) == pytest.approx(1e-6, rel=1e-12)


class TestRelativePositivity:
    @pytest.mark.parametrize("i", [24, 28, 30, 34])
    def test_families_scaled_by_1e6_pass(self, i):
        corr_x, corr_y = random_pair(i, **MIX_CAPS)
        sx, sy = scaled_family(corr_x, 10**6), scaled_family(corr_y, 10**6)
        gram = verify_theorem(sx, sy, compose(sx, sy), trials=20, seed=0)
        assert gram.positive_ok, gram.report().render()
        assert gram.passed

    def test_eigenvalue_is_judged_against_the_norm(self):
        from gcorr.cstar import POSITIVITY_TOL, relative_min_eig

        assert relative_min_eig(np.diag([1e6, -1e-5])) == pytest.approx(-1e-11)
        assert relative_min_eig(np.diag([1e6, -1.0])) == pytest.approx(-1e-6)
        assert relative_min_eig(np.diag([0.5, -1e-6])) == pytest.approx(-1e-6)  # norm < 1: absolute
        assert relative_min_eig(np.diag([1e6, -1e-5])) >= -POSITIVITY_TOL

    def test_relative_minus_1e6_fails(self):
        corr_x, corr_y, _ = catalog.example_pair("quiver")
        gram = verify_theorem(corr_x, corr_y, compose(corr_x, corr_y), trials=5, seed=0)
        assert gram.positive_ok
        bad = dataclasses.replace(gram, positivity_min_eig=-1e-6)
        assert not bad.positive_ok and not bad.passed
        line = bad.report().checks[-1]
        assert "relative" in line.name and not line.passed and line.residual == pytest.approx(1e-6)

    def test_non_finite_matrix_reads_nan(self):
        """LAPACK gives a NaN matrix the eigenvalues 0 and −0, so the ratio
        is NaN by the entries; a stack keeps each finite matrix's ratio."""
        from gcorr.cstar import _relative_min_eigs, relative_min_eig

        bad, good = np.array([[math.nan, 0.0], [0.0, 1.0]]), np.diag([2.0, -1e-3])
        assert math.isnan(relative_min_eig(bad))
        assert math.isnan(relative_min_eig(np.diag([math.inf, 1.0])))
        assert type(relative_min_eig(good)) is float
        ratios = _relative_min_eigs(np.stack([good, bad, good]))
        assert math.isnan(ratios[1])
        assert ratios[0] == ratios[2] == relative_min_eig(good) == -1e-3 / 2

    def test_overflowing_family_fails_positivity(self, tmp_path, capsys):
        """Both families of `fn-compose` ×10¹⁵⁴ as JSON floats: the files
        validate, but (m + mᴴ)/2 overflows in some representation
        matrices, and a NaN ratio fails the positivity line quietly."""
        import warnings

        from gcorr import cli
        from gcorr.io_json import serialize_instance

        corr_x, corr_y, _ = catalog.example_pair("fn-compose")
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        x.write_text(serialize_instance([("x", scaled_family(corr_x, 1e154, exact=False))]))
        y.write_text(serialize_instance([("y", scaled_family(corr_y, 1e154, exact=False))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", str(x)]) == 0
            assert cli.main(["validate", str(y)]) == 0
            capsys.readouterr()
            assert cli.main(["verify", str(x), str(y)]) == 3
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
        assert [ln.split()[0] for ln in lines] == ["[ok]"] * 3 + ["[FAIL]"]
        assert "positivity" in lines[-1] and lines[-1].endswith("residual=nan")


def per_matrix_min_eig(corr_x, corr_y, res, trials, seed):
    """The positivity check as first written: one `eigvalsh` per
    representation matrix and a running minimum, after the trials'
    draws."""
    composite, g3 = res.composite, corr_y.right
    rng = SplitMix64(seed)
    width = 2 * corr_x.space.n_points + 2 * corr_y.space.n_points + corr_x.left.n_arrows
    rng.cnum_array(trials * width)
    n_o = composite.space.n_points
    draws = max(1, min(8, trials)) if n_o else 0
    fo = ModuleElement(composite, rng.cnum_array(draws * n_o).reshape(draws, n_o))
    gram = inner_product(fo, fo, composite)
    min_eig = math.inf
    for u in range(g3.n_units):
        basis, apply = representation_matrices(g3, corr_y.right_haar, u)
        if basis:
            for m in apply(gram):
                ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
                min_eig = min(min_eig, float(ev[0]) / max(1.0, float(np.abs(ev).max())))
    return 0.0 if min_eig is math.inf else min_eig


class TestBatchedPositivity:
    """One `eigvalsh` per matrix size gives the minimum the per-matrix
    loop gives, bit for bit and with the sign of a zero."""

    @pytest.mark.parametrize("name", PAIRS_45)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_equals_the_per_matrix_loop(self, name, exact):
        corr_x, corr_y = pair_45(name)
        if not exact:
            corr_x, corr_y = (scaled_family(c, 1, exact=False) for c in (corr_x, corr_y))
        res = compose(corr_x, corr_y)
        for trials, seed in ((0, 0), (5, 2)):
            got = verify_theorem(corr_x, corr_y, res, trials=trials, seed=seed).positivity_min_eig
            assert repr(got) == repr(per_matrix_min_eig(corr_x, corr_y, res, trials, seed))

    def test_memory_stays_near_one_units_matrices(self, monkeypatch):
        """Y's right groupoid is the pair groupoid on 32 units, so each
        unit has eight 32 × 32 matrices (128 KiB) and all units 4 MiB.  The
        positivity phase holds one budget's worth at a time: its traced
        peak stays under 1 MiB, where stacking every unit at once takes
        over 12 MiB."""
        import tracemalloc

        import gcorr.cstar as cstar
        from gcorr import groupoids as gg

        g = gc.pair_groupoid([f"u{i}" for i in range(32)])
        units = gc.units_only_groupoid(g.unit_ids)
        space = gg.make_bispace(
            gg.trivial_action("left", units, g.arrow_ids, g.dst), translation_action("right", g)
        )
        family = gc.MeasureFamily(g.arrow_ids, g.unit_ids, g.src, (F(1),) * g.n_arrows)
        corr = gc.make_correspondence(gc.counting_haar(units), gc.counting_haar(g), space, family)
        n = corr.space.n_points
        fo = ModuleElement(corr, SplitMix64(1).cnum_array(8 * n).reshape(8, n))
        gram = inner_product(fo, fo, corr)

        def peak():
            cstar._positivity_min_eig(gram, corr.right_haar)  # warms numpy and LAPACK
            tracemalloc.start()
            try:
                value = cstar._positivity_min_eig(gram, corr.right_haar)
                return value, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        value, bounded = peak()
        assert bounded < 2**20, bounded
        monkeypatch.setattr(cstar, "WORKING_SET_ENTRIES", 2**40)
        whole_value, whole = peak()
        assert whole > 12 * 2**20, whole
        assert repr(value) == repr(whole_value)
