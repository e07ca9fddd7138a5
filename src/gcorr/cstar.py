"""Convolution *-algebras, pre-Hilbert module structure and the composite
isometry certificate.

Functions on arrows convolve against a Haar system; functions on a
correspondence's points carry a left algebra action (weighted by the square
root of the adjoining cocycle), a right action and an algebra-valued inner
product.  `verify_theorem` certifies numerically that the composite of two
correspondences induces an inner-product preserving, left-action
intertwining map with full range from the balanced tensor product onto the
composite's function space: at finite dimension that is exactly a unitary
of Hilbert modules.

The operations here are the floating-point side of the package.  They read
float views of the exact tables that are built once per object and cached
on it: `MeasureFamily.float_weight` for Haar weights, families and μ, and
`Correspondence.sqrt_adjoining` for √Δ.  Each sum still runs in the order of
the per-element loops, so the values do not depend on the caching.  The
certificate's deviations are relative, |a − b| / max(1, |a|, |b|) per
entry, with NaN or ∞ counted as an infinite deviation; inner products scale
like the families, so an absolute bound would fail valid data that is
merely large.  For the same reason positivity divides the smallest
eigenvalue of each representation matrix by max(1, its spectral norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from .composition import CompositionResult, GroupoidMismatch
from .correspondence import Correspondence
from .groupoids import FiniteGroupoid
from .measures import HaarSystem
from .randgen import SplitMix64
from .report import Report
from .util import GcorrError, crdev


POSITIVITY_TOL = 1e-10  # lower bound −tol on `relative_min_eig`


def relative_min_eig(m: np.ndarray) -> float:
    """λ_min / max(1, ‖M‖₂) of the Hermitian part of M."""
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return float(ev[0]) / max(1.0, float(np.abs(ev).max()))


class Mismatch(GcorrError):
    pass


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A finitely supported complex function on the arrows."""

    groupoid: FiniteGroupoid
    coeff: dict[int, complex]

    def __call__(self, arrow: int) -> complex:
        return self.coeff.get(arrow, 0j)


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """A complex function on the points of a correspondence's space."""

    corr: Correspondence
    coeff: dict[int, complex]

    def __call__(self, point: int) -> complex:
        return self.coeff.get(point, 0j)


def _clean(d: dict[int, complex]) -> dict[int, complex]:
    return {k: v for k, v in d.items() if v != 0}


def delta_arrow(g: FiniteGroupoid, arrow: int) -> AlgebraElement:
    return AlgebraElement(g, {arrow: 1.0 + 0j})


def delta_point(corr: Correspondence, point: int) -> ModuleElement:
    return ModuleElement(corr, {point: 1.0 + 0j})


def convolve(phi: AlgebraElement, psi: AlgebraElement, haar: HaarSystem) -> AlgebraElement:
    """(φ*ψ)(γ) sums φ(η)ψ(η⁻¹γ) against the Haar weight of η."""
    g = haar.groupoid
    if phi.groupoid != g or psi.groupoid != g:
        raise GroupoidMismatch("convolution operands live on different groupoids")
    w = haar.family.float_weight
    out: dict[int, complex] = {}
    for a, va in phi.coeff.items():
        wa = va * w[a]
        for b, vb in psi.coeff.items():
            if g.src[a] == g.dst[b]:
                c = g.comp[(a, b)]
                out[c] = out.get(c, 0j) + wa * vb
    return AlgebraElement(g, _clean(out))


def involution(phi: AlgebraElement) -> AlgebraElement:
    g = phi.groupoid
    return AlgebraElement(g, {g.inv[a]: v.conjugate() for a, v in phi.coeff.items()})


def left_action(phi: AlgebraElement, f: ModuleElement, corr: Correspondence) -> ModuleElement:
    """(φ·f)(x) = Σ φ(γ) f(γ⁻¹x) Δ^{1/2}(γ, γ⁻¹x) w(γ) over the range fibre."""
    if f.corr is not corr:
        raise Mismatch("module element belongs to a different correspondence")
    g = corr.left
    if phi.groupoid != g:
        raise Mismatch("algebra element is not over the left groupoid")
    act = corr.space.left
    table, momentum, src = act.table, act.momentum, g.src
    w, sqrt_adj = corr.left_haar.family.float_weight, corr.sqrt_adjoining
    by_unit: dict[int, list[tuple[int, complex]]] = {}  # f's points over each unit, in order
    for z, vz in f.coeff.items():
        by_unit.setdefault(momentum[z], []).append((z, vz))
    out: dict[int, complex] = {}
    for a, va in phi.coeff.items():
        wa = va * w[a]
        for z, vz in by_unit.get(src[a], ()):
            x = table[(a, z)]
            out[x] = out.get(x, 0j) + wa * vz * sqrt_adj[(a, z)]
    return ModuleElement(corr, _clean(out))


def right_action(f: ModuleElement, psi: AlgebraElement, corr: Correspondence) -> ModuleElement:
    """(f·ψ)(x) = Σ f(xη) ψ(η⁻¹) w(η) over the right fibre at s(x)."""
    if f.corr is not corr:
        raise Mismatch("module element belongs to a different correspondence")
    h = corr.right
    if psi.groupoid != h:
        raise Mismatch("algebra element is not over the right groupoid")
    act = corr.space.right
    w = corr.right_haar.family.float_weight
    out: dict[int, complex] = {}
    for z, vz in f.coeff.items():
        for k, vk in psi.coeff.items():
            if act.momentum[z] == h.dst[k]:
                x = act.table[(z, k)]
                out[x] = out.get(x, 0j) + vz * vk * w[h.inv[k]]
    return ModuleElement(corr, _clean(out))


def inner_product(f: ModuleElement, g_el: ModuleElement, corr: Correspondence) -> AlgebraElement:
    """⟨f, g⟩(η) = Σ conj(f(x)) g(xη) λ(x), an element over the right groupoid."""
    if f.corr is not corr or g_el.corr is not corr:
        raise Mismatch("inner product operands belong to different correspondences")
    h = corr.right
    act = corr.space.right
    table, momentum, fibre_dst = act.table, act.momentum, h.fibre_dst
    lam, g_coeff = corr.family.float_weight, g_el.coeff
    out: dict[int, complex] = {}
    for x, vx in f.coeff.items():
        lx = vx.conjugate() * lam[x]
        for eta in fibre_dst[momentum[x]]:
            gx = g_coeff.get(table[(x, eta)])
            if gx:
                out[eta] = out.get(eta, 0j) + lx * gx
    return AlgebraElement(h, _clean(out))


def tensor_inner_product(
    f: ModuleElement,
    g_el: ModuleElement,
    f2: ModuleElement,
    g2: ModuleElement,
    corr_x: Correspondence,
    corr_y: Correspondence,
) -> AlgebraElement:
    """⟨f⊗g, f'⊗g'⟩ = ⟨g, ⟨f, f'⟩·g'⟩, chaining through the middle algebra."""
    t = inner_product(f, f2, corr_x)
    w = left_action(t, g2, corr_y)
    return inner_product(g_el, w, corr_y)


def lambda_prime(f: ModuleElement, g_el: ModuleElement, result: CompositionResult) -> ModuleElement:
    """The comparison map on an elementary tensor.

    Integrates (f⊗g)·b^{-1/2} over each orbit against the family along the
    quotient map; the middle-arrow sum collapses onto the per-point
    aggregated weights.  Only the fibre-product pairs of each x in the
    support of f are visited.
    """
    if f.corr is not result.corr_x or g_el.corr is not result.corr_y:
        raise Mismatch("tensor legs belong to different correspondences")
    ell, proj, pairs_by_x = result.ell, result.orbits.proj, result.pairs_by_x
    g_coeff = g_el.coeff
    out: dict[int, complex] = {}
    for x, vx in f.coeff.items():
        for y, z in pairs_by_x[x]:
            vy = g_coeff.get(y)
            if vy is None:
                continue
            o = proj[z]
            out[o] = out.get(o, 0j) + vx * vy * ell[z]
    return ModuleElement(result.composite, _clean(out))


def representation_matrices(
    g: FiniteGroupoid, haar: HaarSystem, u: int
) -> tuple[tuple[int, ...], Callable[[AlgebraElement], np.ndarray]]:
    """Left convolution operators on the source fibre at u.

    The returned matrices are conjugated by the square root of the natural
    fibre weights, so the assignment is a *-homomorphism into matrices with
    the standard adjoint: positive algebra elements map to positive
    semidefinite matrices.
    """
    basis = g.fibre_src[u]
    pos = {a: i for i, a in enumerate(basis)}
    w = haar.family.float_weight
    d = np.array([math.sqrt(w[g.unit_arrow[g.dst[a]]]) for a in basis])

    def apply(phi: AlgebraElement) -> np.ndarray:
        if phi.groupoid != g:
            raise GroupoidMismatch("algebra element is not over this groupoid")
        m = np.zeros((len(basis), len(basis)), dtype=complex)
        for i, gamma in enumerate(basis):
            for eta in g.fibre_dst[g.dst[gamma]]:
                val = phi.coeff.get(eta)
                if val:
                    j = pos[g.comp[(g.inv[eta], gamma)]]
                    m[i, j] += val * w[eta]
        return (d[:, None] * m) / d[None, :]

    return basis, apply


# ---------------------------------------------------------------------------
# theorem certificate


@dataclass(frozen=True)
class GramReport:
    tol: float
    trials: int
    isometry_pairs: int
    isometry_max_dev: float
    isometry_witness: Optional[str]
    intertwining_checks: int
    intertwining_max_dev: float
    intertwining_witness: Optional[str]
    surjectivity_rank: int
    omega_dim: int
    positivity_min_eig: float  # min over matrices M of λ_min(M) / max(1, ‖M‖₂)

    @property
    def isometry_ok(self) -> bool:
        return self.isometry_max_dev <= self.tol

    @property
    def intertwining_ok(self) -> bool:
        return self.intertwining_max_dev <= self.tol

    @property
    def surjective(self) -> bool:
        return self.surjectivity_rank == self.omega_dim

    @property
    def positive_ok(self) -> bool:
        return self.positivity_min_eig >= -POSITIVITY_TOL

    @property
    def passed(self) -> bool:
        return self.isometry_ok and self.intertwining_ok and self.surjective and self.positive_ok

    def report(self) -> Report:
        rep = Report("hilbert-module isometry certificate")
        rep.add(
            f"isometry ({self.isometry_pairs} basis pairs + {self.trials} random)",
            self.isometry_ok,
            self.isometry_max_dev,
            self.isometry_witness,
        )
        rep.add(
            f"intertwining ({self.intertwining_checks} checks)",
            self.intertwining_ok,
            self.intertwining_max_dev,
            self.intertwining_witness,
        )
        rep.add(
            f"surjectivity (rank {self.surjectivity_rank} of {self.omega_dim})",
            self.surjective,
        )
        rep.add(
            "inner-product positivity (relative min eigenvalue)",
            self.positive_ok,
            None if self.positivity_min_eig >= 0 else -self.positivity_min_eig,
        )
        rep.notes["certifies"] = (
            "inner-product preservation + full rank: at finite dimension the induced "
            "map of Hilbert modules is unitary and intertwines the left actions"
        )
        return rep


def _dict_dev(a: dict, b: dict) -> float:
    worst = 0.0
    for k in a.keys() | b.keys():
        d = crdev(a.get(k, 0j), b.get(k, 0j))
        if d > worst:
            worst = d
    return worst


def _random_module(rng: SplitMix64, corr: Correspondence) -> ModuleElement:
    return ModuleElement(corr, dict(enumerate(rng.cnums(corr.space.n_points))))


def _random_algebra(rng: SplitMix64, g: FiniteGroupoid) -> AlgebraElement:
    return AlgebraElement(g, dict(enumerate(rng.cnums(g.n_arrows))))


def tensor_basis_gram(
    corr_x: Correspondence,
    corr_y: Correspondence,
    result: CompositionResult,
    zs: Sequence[int],
) -> dict[tuple[int, int, int], float]:
    """Tensor-product inner products of point-mass pairs, assembled from the
    direct triple sum: keys are (basis i, basis j, arrow of the right
    groupoid), values the (real, positive-coefficient) inner product."""
    g2, g3 = corr_x.right, corr_y.right
    chi2 = corr_x.right_haar.family.float_weight
    lam_x, lam_y = corr_x.family.float_weight, corr_y.family.float_weight
    sqrt_adj = corr_y.sqrt_adjoining
    pairs, index = result.fp.pairs, result.fp.index
    xr_table = corr_x.space.right.table
    yl_table, yl_momentum = corr_y.space.left.table, corr_y.space.left.momentum
    yr_table, yr_momentum = corr_y.space.right.table, corr_y.space.right.momentum
    q: dict[tuple[int, int, int], float] = {}
    for i in zs:
        x, y = pairs[i]
        ax_by = lam_x[x] * lam_y[y]
        for gbar in g3.fibre_dst[yr_momentum[y]]:
            ygbar = yr_table[(y, gbar)]
            for gam in g2.fibre_dst[yl_momentum[y]]:
                x1 = xr_table[(x, gam)]
                y1 = yl_table[(g2.inv[gam], ygbar)]
                key = (i, index[(x1, y1)], gbar)
                q[key] = q.get(key, 0.0) + sqrt_adj[(gam, y1)] * ax_by * chi2[gam]
    return q


def image_basis_gram(
    result: CompositionResult, os_: Sequence[int]
) -> dict[tuple[int, int, int], float]:
    """Composite inner products of the point-mass images: each image is
    supported on a single orbit, so the Gram entries factor through the
    per-point weights of the comparison map."""
    orbits = result.orbits
    g3 = result.composite.right
    act_or = result.composite.space.right
    ell = result.ell
    mu = result.mu.float_weight
    r: dict[tuple[int, int, int], float] = {}
    for o in os_:
        for gbar in g3.fibre_dst[act_or.momentum[o]]:
            o2 = act_or.table[(o, gbar)]
            for i in orbits.members[o]:
                li_mu = ell[i] * mu[o]
                for j in orbits.members[o2]:
                    r[(i, j, gbar)] = li_mu * ell[j]
    return r


def image_rank(result: CompositionResult) -> int:
    """Rank of the |Ω|×|Z| image matrix of the point masses.

    Column z holds ell[z] in row π(z) and zeros elsewhere, so the rank is
    exactly the number of orbits that hold a point with finite ell[z] > 0.
    """
    proj = result.orbits.proj
    return len({proj[z] for z, w in enumerate(result.ell) if 0 < w < math.inf})


def verify_theorem(
    corr_x: Correspondence,
    corr_y: Correspondence,
    result: CompositionResult,
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> GramReport:
    """Certify the composite against the balanced tensor product.

    (a) On the full point-mass basis of the tensor product, the tensor
        inner product (direct triple sum) agrees with the composite inner
        product of the images on every arrow of the right groupoid, and the
        same identity is fuzzed with `trials` random elementary tensors
        through the generic operation chain.
    (b) The map intertwines the left actions, on every basis arrow against
        every basis tensor, plus random elements.
    (c) The image matrix has full rank (dense range at finite dimension).
    Positivity spot-checks of inner products round out the report.
    """
    composite = result.composite
    g1, g3 = corr_x.left, corr_y.right
    fp, orbits = result.fp, result.orbits
    n_z = len(fp.pairs)

    iso_dev, iso_wit = 0.0, None
    inter_dev, inter_wit = 0.0, None

    # -- (a) exhaustive basis sweep, sparse on both sides -------------------
    q = tensor_basis_gram(corr_x, corr_y, result, range(n_z))
    r = image_basis_gram(result, range(orbits.n_orbits))

    for key in q.keys() | r.keys():
        d = crdev(q.get(key, 0.0), r.get(key, 0.0))
        if d > iso_dev:
            i, j, gbar = key
            iso_dev = d
            iso_wit = f"basis ({fp.point_ids[i]}, {fp.point_ids[j]}) at {g3.arrow_ids[gbar]}"
    iso_pairs = n_z * n_z

    # point masses off the fibre product map to zero on both sides
    off = (
        (x, y)
        for x in range(corr_x.space.n_points)
        for y in range(corr_y.space.n_points)
        if (x, y) not in fp.index
    )
    for x, y in islice(off, 3):
        f, g_ = delta_point(corr_x, x), delta_point(corr_y, y)
        if lambda_prime(f, g_, result).coeff or tensor_inner_product(f, g_, f, g_, corr_x, corr_y).coeff:
            iso_dev = max(iso_dev, 1.0)
            iso_wit = f"off-product basis ({corr_x.space.point_ids[x]}, {corr_y.space.point_ids[y]})"

    # -- (b) intertwining on the basis --------------------------------------
    # the basis images λ'(δx ⊗ δy) do not depend on the arrow: one per z
    zs_over: dict[int, list[int]] = {}  # left unit -> the z = (x, y) with x over it
    images = []
    for z, (x, y) in enumerate(fp.pairs):
        zs_over.setdefault(corr_x.space.left.momentum[x], []).append(z)
        images.append(lambda_prime(delta_point(corr_x, x), delta_point(corr_y, y), result))
    checks = 0
    for a1 in range(g1.n_arrows):
        phi = delta_arrow(g1, a1)
        for z in zs_over.get(g1.src[a1], ()):
            x, y = fp.pairs[z]
            checks += 1
            lhs = lambda_prime(
                left_action(phi, delta_point(corr_x, x), corr_x),
                delta_point(corr_y, y),
                result,
            )
            rhs = left_action(phi, images[z], composite)
            d = _dict_dev(lhs.coeff, rhs.coeff)
            if d > inter_dev:
                inter_dev = d
                inter_wit = f"({g1.arrow_ids[a1]}) on ({fp.point_ids[z]})"

    # -- random trials through the generic operation chain ------------------
    rng = SplitMix64(seed)
    for t in range(trials):
        f, f2 = _random_module(rng, corr_x), _random_module(rng, corr_x)
        ge, ge2 = _random_module(rng, corr_y), _random_module(rng, corr_y)
        lhs_alg = tensor_inner_product(f, ge, f2, ge2, corr_x, corr_y)
        rhs_alg = inner_product(lambda_prime(f, ge, result), lambda_prime(f2, ge2, result), composite)
        d = _dict_dev(lhs_alg.coeff, rhs_alg.coeff)
        if d > iso_dev:
            iso_dev, iso_wit = d, f"random tensor pair (trial {t})"
        phi = _random_algebra(rng, g1)
        lhs_mod = lambda_prime(left_action(phi, f, corr_x), ge, result)
        rhs_mod = left_action(phi, lambda_prime(f, ge, result), composite)
        d = _dict_dev(lhs_mod.coeff, rhs_mod.coeff)
        if d > inter_dev:
            inter_dev, inter_wit = d, f"random algebra element (trial {t})"
        checks += 1

    # -- (c) surjectivity: the image matrix has full rank -------------------
    rank = image_rank(result)

    # -- positivity spot-checks ---------------------------------------------
    min_eig = math.inf
    reps = [representation_matrices(g3, corr_y.right_haar, u) for u in range(g3.n_units)]
    for _ in range(max(1, min(8, trials)) if composite.space.n_points else 0):
        fo = _random_module(rng, composite)
        gram = inner_product(fo, fo, composite)
        for _, apply in reps:
            m = apply(gram)
            if m.size:
                min_eig = min(min_eig, relative_min_eig(m))
    if min_eig is math.inf:
        min_eig = 0.0

    return GramReport(
        tol=tol,
        trials=trials,
        isometry_pairs=iso_pairs,
        isometry_max_dev=iso_dev,
        isometry_witness=iso_wit if iso_dev > tol else None,
        intertwining_checks=checks,
        intertwining_max_dev=inter_dev,
        intertwining_witness=inter_wit if inter_dev > tol else None,
        surjectivity_rank=rank,
        omega_dim=orbits.n_orbits,
        positivity_min_eig=min_eig,
    )
