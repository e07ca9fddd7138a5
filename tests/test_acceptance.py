"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a single summary line (run with `pytest -s` to see
them inline).  The seeded instances are deterministic, so the measured
quantities are reproducible; only the wall-clock bounds depend on the host.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import gcorr as gc
from gcorr import catalog, cstar
from gcorr.cohomology import coboundary_residual
from gcorr.composition import compose, find_bispace_isomorphism
from gcorr.groupoids import orbit_space
from gcorr.measures import MeasureFamily, cutoff_from_profile
from gcorr.randgen import SplitMix64, random_groupoid, random_haar, random_pair
from tests.conftest import coeff_dict, compose_with_quotient, probability_family_violation, unit_action

N_GROUPOIDS = 100
N_MEASURES = 50
N_PAIRS = 50

PAIR_SIZES = [
    (10, 10, 6, 6),
    (14, 14, 8, 6),
    (20, 20, 12, 8),
    (28, 28, 16, 8),
    (40, 40, 24, 10),
]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def solver_instances():
    """100 seeded groupoids (<= 200 arrows) with Haar systems."""
    out = []
    for seed in range(N_GROUPOIDS):
        rng = SplitMix64(1000 + seed)
        g = random_groupoid(rng, 200, max_order=8)
        assert g.n_arrows <= 200
        out.append((g, random_haar(rng, g), rng))
    return out


@pytest.fixture(scope="module")
def seeded_pairs():
    """50 seeded chainable pairs within the |X|,|Y| <= 40, |G2| <= 24 caps."""
    pairs = []
    for seed in range(N_PAIRS):
        mx, my, mmid, mouter = PAIR_SIZES[seed % len(PAIR_SIZES)]
        corr_x, corr_y = random_pair(
            2000 + seed, max_x=mx, max_y=my, max_mid=mmid, max_outer=mouter, check=False
        )
        assert corr_x.space.n_points <= 40 and corr_y.space.n_points <= 40
        assert corr_x.right.n_arrows <= 24
        pairs.append((corr_x, corr_y))
    return pairs


@pytest.fixture(scope="module")
def composed_pairs(seeded_pairs):
    return [(cx, cy, compose(cx, cy)) for cx, cy in seeded_pairs]


def test_criterion_1_coboundary_solver(solver_instances):
    """d0-generated cocycles split back with residual < 1e-12, in < 5 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for g, haar, rng in solver_instances:
        p = gc.invariant_probability_family(g, haar)
        t = gc.Cochain0(g, tuple(math.exp(4 * rng.random() - 2) for _ in range(g.n_units)))
        c = gc.d0(t)
        b = gc.decompose_multiplicative(c, p)
        worst = max(worst, coboundary_residual(c, b)[0])
    elapsed = time.perf_counter() - t0
    _line(
        1,
        worst < 1e-12 and elapsed < 5.0,
        f"coboundary residual {worst:.3e} (< 1e-12) on {N_GROUPOIDS} groupoids in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_probability_families(solver_instances):
    """Fibre masses exactly one and translation invariance exact on all
    indicator functions, for the same 100 instances (rational data)."""
    worst = 0.0
    for g, haar, rng in solver_instances:
        fprof = tuple(rng.fraction() for _ in range(g.n_units))
        p = gc.invariant_probability_family(g, haar, F=fprof)
        worst = max(worst, probability_family_violation(p))
    _line(2, worst == 0.0, f"probability family violation {worst} (exact) on {N_GROUPOIDS} instances")


def test_criterion_3_pushdown_uniqueness():
    """Two independent cutoffs give the same push-down (< 1e-12, here exact)
    and the pushed measure disintegrates back to m exactly."""
    worst_pair = 0.0
    exact_roundtrip = True
    for seed in range(N_MEASURES):
        rng = SplitMix64(3000 + seed)
        g = random_groupoid(rng, 60)
        haar = random_haar(rng, g)
        orb = orbit_space(unit_action(g))
        mu0 = MeasureFamily(
            orb.orbit_ids, ("*",), (0,) * orb.n_orbits,
            tuple(rng.fraction() for _ in range(orb.n_orbits)),
        )
        m = compose_with_quotient(mu0, haar, orb)  # symmetric by construction
        mu1 = gc.push_measure_down(m, haar, orb)
        e2 = cutoff_from_profile(haar, tuple(rng.fraction() for _ in range(g.n_units)))
        mu2 = gc.push_measure_down(m, haar, orb, e=e2)
        worst_pair = max(
            worst_pair,
            max((abs(float(a - b)) for a, b in zip(mu1.weight, mu2.weight)), default=0.0),
        )
        exact_roundtrip &= compose_with_quotient(mu1, haar, orb).weight == m.weight
    _line(
        3,
        worst_pair < 1e-12 and exact_roundtrip,
        f"cutoff independence dev {worst_pair:.3e} (< 1e-12), round-trip exact on {N_MEASURES} measures",
    )


def test_criterion_4_composition_invariances(composed_pairs):
    """mu right-invariant exactly; composite adjoining cocycle independent of
    the orbit representative and the middle cochain ratio relation, both to
    relative 1e-9."""
    mu_worst = rep_worst = ratio_worst = 0.0
    for corr_x, corr_y, res in composed_pairs:
        act = res.omega.right
        for o, c in act.pairs():
            mu_worst = max(mu_worst, abs(float(res.mu.weight[act.table[(o, c)]] - res.mu.weight[o])))
        by_name = {chk.name: chk.residual for chk in res.report.checks}
        rep_worst = max(rep_worst, by_name["delta12_well_defined"] or 0.0)
        ratio_worst = max(ratio_worst, by_name["b_ratio_relation"] or 0.0)
    _line(
        4,
        mu_worst == 0.0 and rep_worst < 1e-9 and ratio_worst < 1e-9,
        f"mu invariance {mu_worst} (exact), representative independence {rep_worst:.3e} (< 1e-9), "
        f"cochain ratio {ratio_worst:.3e} (< 1e-9) on {N_PAIRS} pairs",
    )


def test_criterion_5_main_theorem(composed_pairs):
    """Isometry + intertwining < 1e-9 over the full point-mass basis plus
    200 random vectors, on the catalog and the 50 seeded pairs, in < 60 s."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for name in catalog.EXAMPLE_NAMES:
        corr_x, corr_y, _ = catalog.example_pair(name)
        res = compose(corr_x, corr_y)
        gram = cstar.verify_theorem(corr_x, corr_y, res, trials=200, seed=5000)
        assert gram.passed, f"{name}: {gram.report().render()}"
        worst = max(worst, gram.isometry_max_dev, gram.intertwining_max_dev)
        count += 1
    for k, (corr_x, corr_y, res) in enumerate(composed_pairs):
        gram = cstar.verify_theorem(corr_x, corr_y, res, trials=200, seed=6000 + k)
        assert gram.passed, f"pair {k}: {gram.report().render()}"
        worst = max(worst, gram.isometry_max_dev, gram.intertwining_max_dev)
        count += 1
    elapsed = time.perf_counter() - t0
    _line(
        5,
        worst < 1e-9 and elapsed < 60.0,
        f"max deviation {worst:.3e} (< 1e-9) across {count} instances, "
        f"basis + 200 random vectors each, in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_catalog_equalities():
    """Composites of the map and homomorphism catalogs equal the built-in
    targets via an explicitly found bispace isomorphism."""
    corr_x, corr_y, meta = catalog.example_pair("fn-compose")
    res = compose(corr_x, corr_y)
    iso_fn = find_bispace_isomorphism(res.composite, meta["target"](), max_points=12)
    corr_x, corr_y, meta = catalog.example_pair("group-hom")
    res = compose(corr_x, corr_y)
    iso_gh = find_bispace_isomorphism(res.composite, meta["target"](), max_points=12)
    _line(
        6,
        iso_fn is not None and iso_gh is not None,
        f"map catalog iso {iso_fn}, homomorphism catalog iso {iso_gh}",
    )


def test_criterion_7_oracle_equivalence():
    """Pair-groupoid convolution is matrix multiplication exactly (n = 8,
    Gaussian-integer coefficients) and inner products stay positive:
    min eigenvalue >= -1e-10 over 100 random module elements."""
    n = 8
    pg = gc.pair_groupoid([f"u{i}" for i in range(n)])
    haar = gc.counting_haar(pg)
    rng = SplitMix64(7000)

    def rand_int_alg():
        return cstar.AlgebraElement(
            pg,
            np.array(
                [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(pg.n_arrows)]
            ),
        )

    def to_mat(phi):
        m = np.zeros((n, n), dtype=complex)
        for a, v in coeff_dict(phi.coeff).items():
            m[pg.dst[a], pg.src[a]] = v
        return m

    exact = True
    for _ in range(20):
        phi, psi = rand_int_alg(), rand_int_alg()
        conv = to_mat(cstar.convolve(phi, psi, haar))
        exact &= bool((conv == to_mat(phi) @ to_mat(psi)).all())

    corr_x, corr_y = random_pair(7001, max_x=12, max_y=12, max_mid=8, check=False)
    h, hh = corr_y.right, corr_y.right_haar
    reps = [cstar.representation_matrices(h, hh, u) for u in range(h.n_units)]
    min_eig = math.inf
    for _ in range(100):
        f = cstar.ModuleElement(
            corr_y, np.array([rng.cnum() for _ in range(corr_y.space.n_points)])
        )
        gram = cstar.inner_product(f, f, corr_y)
        for _, apply in reps:
            m = apply(gram)
            if m.size:
                min_eig = min(min_eig, float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()))
    _line(
        7,
        exact and min_eig >= -1e-10,
        f"convolution == matrix product exactly (n={n}), min eigenvalue {min_eig:.3e} (>= -1e-10)",
    )
