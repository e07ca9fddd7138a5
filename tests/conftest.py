from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

import gcorr as gc
from gcorr import catalog
from gcorr.cohomology import ProbabilityFamily
from gcorr.cstar import AlgebraElement
from gcorr.groupoids import FiniteGroupoid, GSpaceAction, make_action, make_bispace
from gcorr.measures import MeasureFamily, counting_haar, quotient_family, unit_measure
from gcorr.randgen import random_pair
from gcorr.report import Report
from gcorr.util import adev, ksum


@pytest.fixture
def pair2():
    return gc.pair_groupoid(["1", "2"])


@pytest.fixture
def z2():
    return gc.cyclic_group(2)


@pytest.fixture
def z3():
    return gc.cyclic_group(3)


class CountingMapping(Mapping):
    """A read-only mapping that counts the reads of the one it wraps."""

    def __init__(self, inner):
        self.inner, self.reads = inner, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.inner[key]

    def __iter__(self):
        self.reads += 1
        return iter(self.inner)

    def __len__(self):
        self.reads += 1
        return len(self.inner)


# ---------------------------------------------------------------------------
# helpers that only the tests read


def translation_action(side: str, g: FiniteGroupoid) -> GSpaceAction:
    """A group(oid) acting on its own arrow set by translation.

    Left: γ·a = γ∘a with momentum dst(a); right: a·γ = a∘γ with momentum
    src(a).  For a one-unit groupoid this is translation of the group on
    itself.
    """
    if side == "left":
        table = {(a, b): g.comp[(a, b)] for a, b in g.composable_pairs()}
        return make_action("left", g, g.arrow_ids, g.dst, table)
    table = {(b, a): g.comp[(b, a)] for b, a in g.composable_pairs()}
    return make_action("right", g, g.arrow_ids, g.src, table)


def unit_action(g: FiniteGroupoid) -> GSpaceAction:
    """The canonical left action of a groupoid on its own units: γ·src(γ) = dst(γ)."""
    table = {(a, g.src[a]): g.dst[a] for a in range(g.n_arrows)}
    return make_action("left", g, g.unit_ids, tuple(range(g.n_units)), table)


def is_unit_arrow(g: FiniteGroupoid, a: int) -> bool:
    return g.unit_arrow[g.src[a]] == a


def max_residual(report: Report) -> float:
    return max((c.residual for c in report.checks if c.residual is not None), default=0.0)


def involution(phi: AlgebraElement) -> AlgebraElement:
    """φ*(γ) = conj φ(γ⁻¹)."""
    g = phi.groupoid
    return AlgebraElement(g, phi.coeff.conj()[..., np.asarray(g.inv, dtype=np.intp)])


def probability_family_violation(p: ProbabilityFamily) -> float:
    """Worst deviation from fibre mass one and from translation invariance."""
    g = p.groupoid
    worst = 0.0
    for u in range(g.n_units):
        worst = max(worst, adev(ksum(p.weight[a] for a in g.fibre_dst[u]), 1))
    # invariance on indicator functions: p(η⁻¹δ) = p(δ) for δ in the fibre at dst(η)
    for eta in range(g.n_arrows):
        for delta in g.fibre_dst[g.dst[eta]]:
            worst = max(worst, adev(p.weight[g.comp[(g.inv[eta], delta)]], p.weight[delta]))
    return worst


def compose_with_quotient(mu: MeasureFamily, haar, orbits) -> MeasureFamily:
    """μ∘[λ]: the measure on the units induced by a measure on the orbits,
    the oracle that `push_measure_down` inverts."""
    ql = quotient_family(haar, orbits)
    return unit_measure(haar.groupoid, tuple(mu.weight[orbits.proj[v]] * ql.weight[v] for v in range(haar.groupoid.n_units)))


def quasi_invariance_residual_dense(corr, F: dict[tuple[int, int], complex]) -> float:
    """The full double-sum identity of quasi-invariance on one arbitrary
    test function: slower than the point-mass sweep of `validate`, so an
    independent fuzz oracle."""
    g = corr.left
    space = corr.space
    lam = corr.family
    lhs_by_unit = [0.0] * corr.right.n_units
    rhs_by_unit = [0.0] * corr.right.n_units
    for p in range(space.n_points):
        u = space.s_momentum(p)
        for a in g.fibre_dst[space.r_momentum(p)]:
            ai = g.inv[a]
            val = F.get((ai, p))
            if val:
                lhs_by_unit[u] += float(corr.left_haar.w(a)) * float(lam.weight[p]) * val
            q = space.left.table[(ai, p)]
            val = F.get((a, q))
            if val:
                rhs_by_unit[u] += (
                    float(corr.adjoining_at(a, q))
                    * float(corr.left_haar.w(a))
                    * float(lam.weight[p])
                    * val
                )
    return max((abs(l - r) for l, r in zip(lhs_by_unit, rhs_by_unit)), default=0.0)


def translation_correspondence(lam=(1, 3)):
    """Z/2 translating on itself from the left over the one-point groupoid,
    with a (generally non-invariant-under-the-left-action) weight family."""
    z2 = gc.cyclic_group(2)
    pt = gc.cyclic_group(1, unit_id="pt*")
    pts = ("a0", "a1")
    left = make_action(
        "left", z2, pts, (0, 0),
        {(a, p): (a + p) % 2 for a in range(2) for p in range(2)},
    )
    right = make_action("right", pt, pts, (0, 0), {(p, 0): p for p in range(2)})
    space = make_bispace(left, right)
    fam = MeasureFamily(pts, pt.unit_ids, (0, 0), tuple(Fraction(v) for v in lam))
    return gc.make_correspondence(counting_haar(z2), counting_haar(pt), space, fam)


def coeff_array(d: dict, n: int) -> np.ndarray:
    """The coefficient array of length n with the values of {index: value}."""
    out = np.zeros(n, dtype=complex)
    for k, v in d.items():
        out[k] = v
    return out


def coeff_dict(c) -> dict:
    """The nonzero coefficients {index: complex} of a coefficient array, or
    of a dict, in index order: the form the per-element loops work on."""
    items = c.items() if isinstance(c, dict) else enumerate(c.tolist())
    return {k: complex(v) for k, v in sorted(items) if v != 0}


# the family caps of the benchmark's random-mix pairs (bench/workloads.py)
MIX_CAPS = {"max_x": 28, "max_y": 28, "max_mid": 16, "max_outer": 8}

# "the 45 pairs": the catalog pairs and random_pair(0..39) at MIX_CAPS
PAIRS_45 = tuple(catalog.EXAMPLE_NAMES) + tuple(f"mix-{i}" for i in range(40))


def pair_45(name):
    """One of `PAIRS_45`, as exact correspondences."""
    if name.startswith("mix-"):
        return random_pair(int(name[4:]), **MIX_CAPS)
    return catalog.example_pair(name)[:2]


def full_sweep_certificate(corr_x, corr_y, result, **kwargs):
    """`verify_theorem` with the reduced passes on the generators never
    deciding: the full basis sweeps supply every verdict, as on float data."""
    from gcorr import cstar

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cstar, "_conclusive", lambda *args: False)
        return cstar.verify_theorem(corr_x, corr_y, result, **kwargs)


def line_verdicts(gram) -> list[bool]:
    return [c.passed for c in gram.report().checks]


def scaled_family(corr, c, exact=True):
    """corr with its family multiplied by c.  With exact=False the family
    and the adjoining cocycle are the floats a JSON file would carry."""
    weights = tuple(c * w if exact else float(c * w) for w in corr.family.weight)
    adjoining = corr.adjoining.value if exact else tuple(float(v) for v in corr.adjoining.value)
    fam = MeasureFamily(corr.family.total_ids, corr.family.base_ids, corr.family.along, weights)
    return gc.make_correspondence(corr.left_haar, corr.right_haar, corr.space, fam, adjoining)


def ladder_pair(n):
    """The ladder at n: the regular Z/n bimodule of Z/n, then Z/n acting
    on itself over the one-point groupoid with family weights 1..n."""
    zn = gc.cyclic_group(n)
    pt = gc.cyclic_group(1, unit_id="pt")
    shift = {(a, p): (a + p) % n for a in range(n) for p in range(n)}
    xs = tuple(f"x{k}" for k in range(n))
    corr_x = gc.make_correspondence(
        counting_haar(zn), counting_haar(zn),
        make_bispace(
            make_action("left", zn, xs, (0,) * n, shift),
            make_action("right", zn, xs, (0,) * n, {(p, a): (p + a) % n for a, p in shift}),
        ),
        MeasureFamily(xs, zn.unit_ids, (0,) * n, (Fraction(1),) * n),
    )
    ys = tuple(f"y{k}" for k in range(n))
    corr_y = gc.make_correspondence(
        counting_haar(zn), counting_haar(pt),
        make_bispace(
            make_action("left", zn, ys, (0,) * n, shift),
            make_action("right", pt, ys, (0,) * n, {(p, 0): p for p in range(n)}),
        ),
        MeasureFamily(ys, pt.unit_ids, (0,) * n, tuple(Fraction(k + 1) for k in range(n))),
    )
    return corr_x, corr_y


def coset_ladder_pair(n, d):
    """The ladder on the m = n/d cosets of Z/d in Z/n: Z/n translating
    them from both sides, then Z/n translating them over the one-point
    groupoid with family weights 1..m.  Every point of Z has the
    stabiliser Z/d, so each orbit has m points and λ_π weighs d arrows."""
    if n % d:
        raise ValueError("d must divide n")
    m = n // d
    zn = gc.cyclic_group(n)
    pt = gc.cyclic_group(1, unit_id="pt")
    shift = {(a, p): (a + p) % m for a in range(n) for p in range(m)}
    xs = tuple(f"x{k}" for k in range(m))
    corr_x = gc.make_correspondence(
        counting_haar(zn), counting_haar(zn),
        make_bispace(
            make_action("left", zn, xs, (0,) * m, shift),
            make_action("right", zn, xs, (0,) * m, {(p, a): (p + a) % m for a, p in shift}),
        ),
        MeasureFamily(xs, zn.unit_ids, (0,) * m, (Fraction(1),) * m),
    )
    ys = tuple(f"y{k}" for k in range(m))
    corr_y = gc.make_correspondence(
        counting_haar(zn), counting_haar(pt),
        make_bispace(
            make_action("left", zn, ys, (0,) * m, shift),
            make_action("right", pt, ys, (0,) * m, {(p, 0): p for p in range(m)}),
        ),
        MeasureFamily(ys, pt.unit_ids, (0,) * m, tuple(Fraction(k + 1) for k in range(m))),
    )
    return corr_x, corr_y
