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

The operations here are the floating-point side of the package.  An
element's coefficients are a complex array whose last axis is the points
or arrows; leading axes stack several elements, and every operation acts
row by row.  Each bilinear operation is one gather–multiply–scatter
(`_apply`) over an `IndexTable` that the owning object builds once and
caches next to its float views: `HaarSystem.convolution_table`,
`Correspondence.left_action_table` / `right_action_table` /
`inner_product_table` and `CompositionResult.comparison_table`.  A table
lists its terms in the order of the per-element loop it replaces (the
structure's own `pairs()` or `composable_pairs()` enumeration, and the
fibre product by x for the comparison map), and the scatter is a
`np.bincount`, which adds its terms one at a time in that order into
zeros: every sum runs in the loop's order.  So each value is the one the
loop produced, bit for bit, wherever the loop met its input in index
order, as it met every random draw; the terms of zero coefficients, which
the loops skipped, add ±0 and change no finite sum.  The products are taken on
separate real and imaginary float64 arrays by CPython's formula, (a·c −
b·d, a·d + b·c): numpy's own complex multiply may fuse a multiply and an
add into one rounding on hosts with FMA units, which moves values in the
last bit.  A real factor r multiplies both parts, one product each.  On
finite values that differs from CPython's (a + bi)·(r + 0j) only in the
sign of a zero term, and the scatter adds every term into +0, so each
output is the same value.

The kernels keep their working set in cache.  `_apply` gathers into five
working arrays and takes that formula in place on them, overwriting each
factor once it is read, rather than allocating a new array per arithmetic
step.  The arrays hold at most `WORKING_SET_ENTRIES` (2¹⁴ float64
entries, 128 KiB an array), or one row when a row alone is larger, so a
longer stack runs in row slices, one `np.bincount` a slice: every row is
still one sum in table order, so the slicing moves no value.  The random
trials draw in blocks of the same size, and positivity stacks the
representation matrices of one size, up to the same budget, into a single
`eigvalsh`, in which LAPACK still factors each matrix alone.

The certificate's deviations are relative, |a − b| / max(1, |a|, |b|) per
entry, with NaN or ∞ counted as an infinite deviation; inner products scale
like the families, so an absolute bound would fail valid data that is
merely large.  For the same reason positivity divides the smallest
eigenvalue of each representation matrix by max(1, its spectral norm).
The certificate computes in floats on any input, so `GramReport` judges
every deviation by `report.passes` as float data: isometry and
intertwining at `tol`, and the negated relative eigenvalue at
`POSITIVITY_TOL`.

The certificate runs on generators where the data allow it.  The tensor
product is balanced, so the point masses on the transversal
R = {(x₀, y)} that `compose` builds span it modulo balancing: the basis
isometry follows from the balancing of the comparison map on G₂'s
generators and the Gram entries on R×R, and the intertwining from the
checks on G₁'s generators.  These lemmas are exact, so the reduced pass
runs on exact data only (every family and cocycle exact, the adjoining
cocycle lines passing), and it decides only when a word bound places
every full-sweep deviation within `tol`.  Whenever it cannot, and on
float data, the full sweeps run as they always did and supply the
verdict and the witness (`verify_theorem`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .cohomology import check_cocycle
from .composition import CompositionResult, GroupoidMismatch
from .correspondence import Correspondence
from .groupoids import FiniteGroupoid
from .measures import HaarSystem
from .randgen import SplitMix64
from .report import DEFAULT_TOL, Report, passes
from .util import GcorrError, IndexTable, crdev


POSITIVITY_TOL = 1e-10  # lower bound −tol on `relative_min_eig`

# Entries per float64 working array of the certificate's kernels: 2¹⁴, or
# 128 KiB, so that `_apply`'s few arrays stay in cache.  A block of random
# trials draws complex entries that fill at most one such array (and at
# least one trial), so that memory does not grow with `trials`.
WORKING_SET_ENTRIES = 2**14


def relative_min_eig(m: np.ndarray) -> float:
    """λ_min / max(1, ‖M‖₂) of the Hermitian part of the matrix M, or NaN
    where that part has a non-finite entry."""
    return float(_relative_min_eigs(m))


def _relative_min_eigs(m: np.ndarray) -> np.ndarray:
    """`relative_min_eig` of each matrix of a stack, in one `eigvalsh`.
    LAPACK still factors each matrix on its own, so every ratio is the one
    a call on that matrix alone gives.  It reads a NaN matrix as having
    eigenvalues 0 and −0, so only the entries show it."""
    h = (m + m.conj().swapaxes(-1, -2)) / 2
    finite = np.isfinite(h).all(axis=(-2, -1))
    if not finite.all():
        h = np.where(finite[..., None, None], h, 0.0)
    ev = np.linalg.eigvalsh(h)
    ratio = ev[..., 0] / np.maximum(1.0, np.abs(ev).max(axis=-1))
    return np.where(finite, ratio, math.nan)


class Mismatch(GcorrError):
    pass


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Complex functions on the arrows: `coeff[..., a]` is the value at
    arrow a, and leading axes of `coeff` stack several elements."""

    groupoid: FiniteGroupoid
    coeff: np.ndarray

    def __call__(self, arrow: int):
        return self.coeff[..., arrow]


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """Complex functions on the points of a correspondence's space:
    `coeff[..., p]` is the value at point p, stacked like `AlgebraElement`."""

    corr: Correspondence
    coeff: np.ndarray

    def __call__(self, point: int):
        return self.coeff[..., point]


def _cmul(ar, ai, br, bi):
    """CPython's complex product (ar + i·ai)(br + i·bi), on split parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _products(table: IndexTable, ur, ui, vr, vi, ti, conj: bool):
    """((u·pre)·v)·post on the gathered split parts, CPython's product
    formula with each factor overwritten once read: returns the real part
    in ur and the imaginary part in ti."""
    if conj:
        np.negative(ui, out=ui)
    if table.pre is not None:
        ur *= table.pre
        ui *= table.pre
    np.multiply(ur, vi, out=ti)
    ur *= vr
    vr *= ui
    ui *= vi
    ur -= ui  # ur·vr − ui·vi
    ti += vr  # ur·vi + ui·vr
    if table.post is not None:
        ur *= table.post
        ti *= table.post
    return ur, ti


def _apply(table: IndexTable, u: np.ndarray, v: np.ndarray, conj: bool = False) -> np.ndarray:
    """Σ over the table of ((u[left]·pre)·v[right])·post into out, per
    stacked row, each sum in table order; `conj` conjugates u first.

    The working set is bounded: the rows run in slices of at most
    `WORKING_SET_ENTRIES` gathered entries per part (one row when a row
    alone is larger), all through the same five working arrays, and each
    slice is summed by one `np.bincount`."""
    lead = u.shape[:-1]
    if v.shape[:-1] != lead:
        lead = np.broadcast_shapes(lead, v.shape[:-1])
        u, v = np.broadcast_to(u, lead + u.shape[-1:]), np.broadcast_to(v, lead + v.shape[-1:])
    rows, m, n = math.prod(lead), len(table.out), table.n_out
    left, right = table.left, table.right
    step = max(1, min(rows, WORKING_SET_ENTRIES // m if m else rows))
    u, v = u.reshape(rows, u.shape[-1]), v.reshape(rows, v.shape[-1])
    work = np.empty((5, step, m))
    idx = (np.arange(step)[:, None] * n + table.out).ravel()
    out = np.empty((rows, n), dtype=np.complex128)
    for r0 in range(0, rows, step):
        k = min(step, rows - r0)
        ur, ui, vr, vi, ti = work[:, :k]
        us, vs = u[r0 : r0 + k], v[r0 : r0 + k]
        # the tables' indices are in range, so "clip" never clips: it only
        # lets `take` write into its `out` unbuffered
        np.take(us.real, left, axis=1, out=ur, mode="clip")
        np.take(us.imag, left, axis=1, out=ui, mode="clip")
        np.take(vs.real, right, axis=1, out=vr, mode="clip")
        np.take(vs.imag, right, axis=1, out=vi, mode="clip")
        tr, ti = _products(table, ur, ui, vr, vi, ti, conj)
        out.real[r0 : r0 + k] = np.bincount(idx[: k * m], tr.ravel(), k * n).reshape(k, n)
        out.imag[r0 : r0 + k] = np.bincount(idx[: k * m], ti.ravel(), k * n).reshape(k, n)
    return out.reshape(lead + (n,))


def _delta(n: int, k: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.complex128)
    out[k] = 1.0
    return out


def delta_arrow(g: FiniteGroupoid, arrow: int) -> AlgebraElement:
    return AlgebraElement(g, _delta(g.n_arrows, arrow))


def delta_point(corr: Correspondence, point: int) -> ModuleElement:
    return ModuleElement(corr, _delta(corr.space.n_points, point))


def convolve(phi: AlgebraElement, psi: AlgebraElement, haar: HaarSystem) -> AlgebraElement:
    """(φ*ψ)(γ) sums φ(η)ψ(η⁻¹γ) against the Haar weight of η."""
    g = haar.groupoid
    if phi.groupoid != g or psi.groupoid != g:
        raise GroupoidMismatch("convolution operands live on different groupoids")
    return AlgebraElement(g, _apply(haar.convolution_table, phi.coeff, psi.coeff))


def left_action(phi: AlgebraElement, f: ModuleElement, corr: Correspondence) -> ModuleElement:
    """(φ·f)(x) = Σ φ(γ) f(γ⁻¹x) Δ^{1/2}(γ, γ⁻¹x) w(γ) over the range fibre."""
    if f.corr is not corr:
        raise Mismatch("module element belongs to a different correspondence")
    if phi.groupoid != corr.left:
        raise Mismatch("algebra element is not over the left groupoid")
    return ModuleElement(corr, _apply(corr.left_action_table, phi.coeff, f.coeff))


def right_action(f: ModuleElement, psi: AlgebraElement, corr: Correspondence) -> ModuleElement:
    """(f·ψ)(x) = Σ f(xη) ψ(η⁻¹) w(η) over the right fibre at s(x)."""
    if f.corr is not corr:
        raise Mismatch("module element belongs to a different correspondence")
    if psi.groupoid != corr.right:
        raise Mismatch("algebra element is not over the right groupoid")
    return ModuleElement(corr, _apply(corr.right_action_table, f.coeff, psi.coeff))


def inner_product(f: ModuleElement, g_el: ModuleElement, corr: Correspondence) -> AlgebraElement:
    """⟨f, g⟩(η) = Σ conj(f(x)) g(xη) λ(x), an element over the right groupoid."""
    if f.corr is not corr or g_el.corr is not corr:
        raise Mismatch("inner product operands belong to different correspondences")
    return AlgebraElement(
        corr.right, _apply(corr.inner_product_table, f.coeff, g_el.coeff, conj=True)
    )


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
    aggregated weights `ell`, so only the fibre-product pairs are visited.
    """
    if f.corr is not result.corr_x or g_el.corr is not result.corr_y:
        raise Mismatch("tensor legs belong to different correspondences")
    return ModuleElement(
        result.composite, _apply(result.comparison_table, f.coeff, g_el.coeff)
    )


def representation_matrices(
    g: FiniteGroupoid, haar: HaarSystem, u: int
) -> tuple[tuple[int, ...], Callable[[AlgebraElement], np.ndarray]]:
    """Left convolution operators on the source fibre at u.

    The returned matrices are conjugated by the square root of the natural
    fibre weights, so the assignment is a *-homomorphism into matrices with
    the standard adjoint: positive algebra elements map to positive
    semidefinite matrices.  Stacked elements give stacked matrices.
    """
    basis = g.fibre_src[u]
    pos = {a: i for i, a in enumerate(basis)}
    w = haar.family.float_weight
    d = np.array([math.sqrt(w[g.unit_arrow[g.dst[a]]]) for a in basis])
    # entry (row, col) holds φ(η)·w(η) for the one η with η⁻¹∘basis[row] = basis[col]
    row, col, arrow = np.array(
        [
            (i, pos[g.comp[(g.inv[eta], gamma)]], eta)
            for i, gamma in enumerate(basis)
            for eta in g.fibre_dst[g.dst[gamma]]
        ],
        dtype=np.intp,
    ).reshape(-1, 3).T
    w_arrow = np.asarray(w, dtype=np.float64)[arrow]

    def apply(phi: AlgebraElement) -> np.ndarray:
        if phi.groupoid != g:
            raise GroupoidMismatch("algebra element is not over this groupoid")
        re, im = _cmul(phi.coeff.real[..., arrow], phi.coeff.imag[..., arrow], w_arrow, 0.0)
        m = np.zeros(phi.coeff.shape[:-1] + (len(basis), len(basis)), dtype=np.complex128)
        m.real[..., row, col] = re
        m.imag[..., row, col] = im
        return (d[:, None] * m) / d[None, :]

    return basis, apply


# ---------------------------------------------------------------------------
# theorem certificate


@dataclass(frozen=True)
class GramReport:
    tol: float
    trials: int
    isometry_pairs: int  # basis pairs compared: |R|² after balancing, else |Z|²
    balancing_checks: Optional[int]  # None when the full sweep decided
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
        return passes(self.isometry_max_dev, False, self.tol)

    @property
    def intertwining_ok(self) -> bool:
        return passes(self.intertwining_max_dev, False, self.tol)

    @property
    def surjective(self) -> bool:
        return self.surjectivity_rank == self.omega_dim

    @property
    def positive_ok(self) -> bool:
        return passes(-self.positivity_min_eig, False, POSITIVITY_TOL)

    @property
    def passed(self) -> bool:
        return self.isometry_ok and self.intertwining_ok and self.surjective and self.positive_ok

    def report(self) -> Report:
        rep = Report("hilbert-module isometry certificate")
        basis = f"{self.isometry_pairs} basis pairs"
        if self.balancing_checks:  # 0: no generator moves a point, R = Z
            basis += f" on R + {self.balancing_checks} balancing"
        rep.check(
            f"isometry ({basis} + {self.trials} random)",
            self.isometry_max_dev, False, self.tol, self.isometry_witness,
        )
        rep.check(
            f"intertwining ({self.intertwining_checks} checks)",
            self.intertwining_max_dev, False, self.tol, self.intertwining_witness,
        )
        rep.add(f"surjectivity (rank {self.surjectivity_rank} of {self.omega_dim})", self.surjective)
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


def _max_dev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`crdev` entrywise, maximized over the last axis (0 when it is empty).

    Moduli are `np.hypot` of the parts, libm's hypot as in CPython's
    complex abs (numpy's own complex abs rounds differently)."""
    d = np.hypot(a.real - b.real, a.imag - b.imag) / np.maximum(
        np.maximum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)), 1.0
    )
    d[np.isnan(d)] = np.inf
    return d.max(axis=-1, initial=0.0)


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
    result: CompositionResult, os_: Sequence[int], within: Optional[Sequence[bool]] = None
) -> dict[tuple[int, int, int], float]:
    """Composite inner products of the point-mass images: each image is
    supported on a single orbit, so the Gram entries factor through the
    per-point weights of the comparison map.  `within` (a flag per point
    of Z) keeps the entries whose two points it flags."""
    orbits = result.orbits
    g3 = result.composite.right
    act_or = result.composite.space.right
    ell = result.ell
    mu = result.mu.float_weight
    members = orbits.members
    if within is not None:
        members = [[i for i in group if within[i]] for group in members]
    r: dict[tuple[int, int, int], float] = {}
    for o in os_:
        for gbar in g3.fibre_dst[act_or.momentum[o]]:
            o2 = act_or.table[(o, gbar)]
            for i in members[o]:
                li_mu = ell[i] * mu[o]
                for j in members[o2]:
                    r[(i, j, gbar)] = li_mu * ell[j]
    return r


def image_rank(result: CompositionResult) -> int:
    """Rank of the |Ω|×|Z| image matrix of the point masses.

    Column z holds ell[z] in row π(z) and zeros elsewhere, so the rank is
    exactly the number of orbits that hold a point with finite ell[z] > 0.
    """
    proj = result.orbits.proj
    return len({proj[z] for z, w in enumerate(result.ell) if 0 < w < math.inf})


def _devs(lhs: float, rhs: float, same: bool = True) -> tuple[float, float]:
    """`crdev` of the two sides of a check, and their relative deviation
    |a − b| / max(|a|, |b|) (∞ on NaN).  Sides on different orbits
    (`same` False) are compared term by term with 0, at relative ∞."""
    if not same:
        return max(crdev(lhs, 0.0), crdev(0.0, rhs)), math.inf
    d = crdev(lhs, rhs)
    if not d:
        return 0.0, 0.0
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return d, rel if rel == rel else math.inf


def basis_isometry(
    corr_x: Correspondence,
    corr_y: Correspondence,
    result: CompositionResult,
    within: Optional[Sequence[bool]] = None,
) -> tuple[float, Optional[str], float]:
    """`tensor_basis_gram` against `image_basis_gram` on the point masses
    of Z, or on those that `within` flags: the worst `crdev` over the keys
    of either, the first key attaining it, and the worst relative one."""
    n_z, ids, g3 = len(result.fp.pairs), result.fp.point_ids, corr_y.right
    if within is None:
        q = tensor_basis_gram(corr_x, corr_y, result, range(n_z))
    else:
        q = tensor_basis_gram(corr_x, corr_y, result, [z for z in range(n_z) if within[z]])
        q = {key: v for key, v in q.items() if within[key[1]]}
    r = image_basis_gram(result, range(result.orbits.n_orbits), within)
    worst, witness, rho = 0.0, None, 0.0
    for key in q.keys() | r.keys():
        d, rel = _devs(q.get(key, 0.0), r.get(key, 0.0))
        rho = max(rho, rel)
        if d > worst:
            i, j, gbar = key
            worst, witness = d, f"basis ({ids[i]}, {ids[j]}) at {g3.arrow_ids[gbar]}"
    return worst, witness, rho


def balancing_deviation(
    corr_x: Correspondence, corr_y: Correspondence, result: CompositionResult
) -> tuple[float, Optional[str], float, int]:
    """Balancing of the comparison map U on G₂'s `generators`: the worst
    `crdev` of U(δ_x·δ_s ⊗ δ_y) against U(δ_x ⊗ δ_s·δ_y), its first
    witness, the worst relative deviation (`_devs`) and the number of
    checks.

    δ_x·δ_s = w₂(s⁻¹)·δ_{x·s} and δ_s·δ_y = w₂(s)·√Δ₂(s, y)·δ_{s·y}, so
    each check compares w₂(s⁻¹)·ell[(x·s, y)] with
    w₂(s)·√Δ₂(s, y)·ell[(x, s·y)], which U sends to the same orbit.  One
    check runs per z₁ = (x·s, y) in Z and generator s with source m(z₁),
    in O(1).
    """
    g2, fp, orbits = corr_x.right, result.fp, result.orbits
    w2 = corr_x.right_haar.family.float_weight
    sqrt_y = corr_y.sqrt_adjoining
    xr_table, x_momentum = corr_x.space.right.table, corr_x.space.right.momentum
    yl_table = corr_y.space.left.table
    ell, proj, index = result.ell, orbits.proj, fp.index
    gens_from: list[list[int]] = [[] for _ in range(g2.n_units)]
    for s in g2.generators:
        gens_from[g2.src[s]].append(s)
    worst, witness, rho, checks = 0.0, None, 0.0, 0
    for z1, (x1, y) in enumerate(fp.pairs):
        for s in gens_from[x_momentum[x1]]:
            checks += 1
            s_inv = g2.inv[s]
            z2 = index[(xr_table[(x1, s_inv)], yl_table[(s, y)])]
            d, rel = _devs(w2[s_inv] * ell[z1], w2[s] * sqrt_y[(s, y)] * ell[z2], proj[z1] == proj[z2])
            rho = max(rho, rel)
            if d > worst:
                worst, witness = d, f"balancing {fp.point_ids[z1]} ~ {fp.point_ids[z2]} by {g2.arrow_ids[s]}"
    return worst, witness, rho, checks


def intertwining_deviation(
    corr_x: Correspondence, result: CompositionResult, rows: Iterable[int]
) -> tuple[float, Optional[str], float, int]:
    """Intertwining on the point masses for the arrows a of G₁ in `rows`:
    the worst `crdev` of λ′(δ_a·δ_x ⊗ δ_y) against δ_a·λ′(δ_x ⊗ δ_y) over
    z = (x, y) in Z, its first witness, the worst relative deviation
    (`_devs`) and the number of checks.

    The checks read the tables instead of calling the operations.  Lemma:
    for z = (x, y) in Z and an arrow a of G₁ with s(a) = r(x), each side
    of the check has a single term,

        λ′(δ_a·δ_x ⊗ δ_y) = (w₁(a)·√Δ₁(a, x))·ell[(a·x, y)]  at π(a·x, y),
        δ_a·λ′(δ_x ⊗ δ_y) = (w₁(a)·ell[z])·√Δ₁₂(a, πz)       at a·πz,

    because a point mass meets one table entry per operation, and the
    operation chain forms exactly these products: its other factors are
    1 + 0j, exact in every product.  So each check gives the deviation of
    the chain bit for bit, in O(1) instead of O(|fibre|).
    """
    g1, fp, composite = corr_x.left, result.fp, result.composite
    x_left, x_momentum = corr_x.space.left.table, corr_x.space.left.momentum
    o_left = composite.space.left.table
    w_x, w_o = corr_x.left_haar.family.float_weight, composite.left_haar.family.float_weight
    sqrt_x, sqrt_o = corr_x.sqrt_adjoining, composite.sqrt_adjoining
    ell, proj, index = result.ell, result.orbits.proj, fp.index
    zs_over: dict[int, list[int]] = {}  # left unit -> the z = (x, y) with x over it
    for z, (x, _) in enumerate(fp.pairs):
        zs_over.setdefault(x_momentum[x], []).append(z)
    worst, witness, rho, checks = 0.0, None, 0.0, 0
    for a1 in rows:
        for z in zs_over.get(g1.src[a1], ()):
            x, y = fp.pairs[z]
            checks += 1
            z1 = index[(x_left[(a1, x)], y)]
            lhs = w_x[a1] * sqrt_x[(a1, x)] * ell[z1]
            o = proj[z]
            rhs = w_o[a1] * ell[z] * sqrt_o[(a1, o)]
            d, rel = _devs(lhs, rhs, proj[z1] == o_left[(a1, o)])
            rho = max(rho, rel)
            if d > worst:
                worst = d
                witness = f"({g1.arrow_ids[a1]}) on ({fp.point_ids[z]})"
    return worst, witness, rho, checks


def _conclusive(rho: float, length: int, fibre: int, tol: float) -> bool:
    """Whether reduced checks on exact data with worst relative deviation
    rho decide the full sweep's verdict: words of up to `length` checks,
    Gram sums of up to `fibre` terms (the bound in `verify_theorem`)."""
    eps = (fibre + 16) * 2.0**-52
    return length * (rho + eps) + eps <= tol


def _positivity_min_eig(gram: AlgebraElement, haar: HaarSystem) -> float:
    """The first smallest `relative_min_eig` of the representation
    matrices of the stacked elements `gram`, in (unit, row) order as a
    running minimum takes it; NaN when any ratio is NaN, which fails the
    line, and 0.0 when there is no matrix.

    The matrices of one size run through one `eigvalsh`, in stacks of at
    most `WORKING_SET_ENTRIES` float64 entries (or one unit's matrices,
    when they alone are more), so memory does not grow with the units."""
    g = haar.groupoid
    rows = math.prod(gram.coeff.shape[:-1])
    ratios: list[list[float]] = [[] for _ in range(g.n_units)]
    held: dict[int, list[tuple[int, np.ndarray]]] = {}  # size -> (unit, matrices)
    entries = 0
    for u in range(g.n_units):
        basis, apply = representation_matrices(g, haar, u)
        if basis:
            size = 2 * rows * len(basis) ** 2
            if entries + size > WORKING_SET_ENTRIES:
                _eigensolve(held, ratios)
                entries = 0
            held.setdefault(len(basis), []).append((u, apply(gram)))
            entries += size
    _eigensolve(held, ratios)
    flat = [r for row in ratios for r in row]
    return math.nan if any(r != r for r in flat) else min(flat, default=0.0)


def _eigensolve(held: dict[int, list[tuple[int, np.ndarray]]], ratios: list[list[float]]) -> None:
    """Set ratios[u] to the `relative_min_eig` of each of unit u's held
    matrices, one `eigvalsh` per matrix size, and empty `held`."""
    for group in held.values():
        units, stacks = zip(*group)
        for u, row in zip(units, _relative_min_eigs(np.stack(stacks))):
            ratios[u] = row.tolist()
    held.clear()


# Every non-finite value of the certificate already reads as a failing
# deviation (a NaN ratio fails positivity), so numpy's overflow and
# invalid-value warnings would only repeat the report.
@np.errstate(over="ignore", invalid="ignore")
def verify_theorem(
    corr_x: Correspondence,
    corr_y: Correspondence,
    result: CompositionResult,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """Certify the composite against the balanced tensor product.

    (a) The map U(δ_x⊗δ_y) = ell[(x, y)]·δ_{π(x,y)} preserves the inner
        product of point masses: the tensor inner product (direct triple
        sum) agrees with the composite inner product of the images on
        every arrow of the right groupoid; the same identity is fuzzed with
        `trials` random elementary tensors through the generic operation
        chain.  A point mass off Z needs no check: λ′ reads only pairs of
        Z, and ⟨δ_x, δ_x⟩ lives on loops at s(x), which act on no δ_y
        with r(y) ≠ s(x), so both sides are exactly 0.
    (b) U intertwines the left actions on the point masses
        (`intertwining_deviation`), plus random elements.
    (c) The image matrix has full rank (dense range at finite dimension).
    Positivity spot-checks of inner products round out the report.

    Certify on generators.  When X, Y and the composite are exact and
    their adjoining cocycle lines pass, (a) and (b) run first on the
    generating sets S₂ of G₂ and S₁ of G₁ (`FiniteGroupoid.generators`):

    * (a) checks that U is balanced on S₂ (`balancing_deviation`,
      |Z|·|S₂| checks of O(1)) and the basis Gram entries on R×R only,
      R = {(x₀, y)} the transversal that `compose` reduced Z⋊G₂ to
      (`MiddleReduction.z_of`).  The Gram sums then run over R instead of
      Z: Θ(n²) instead of Θ(n³) on the ladder.  Lemma (balancing and
      closure; Holkar 2015, cited in PAPER.md): the tensor inner product
      is balanced by construction, ⟨ξ·φ ⊗ η, ·⟩ = ⟨ξ ⊗ φ·η, ·⟩, and both
      actions are representations, so U is balanced on all of G₂ once it
      is on S₂.  Write x = x₀·t_x with t_x = s₁∘…∘s_k, each s_i in S₂: k
      balancing steps take δ_(x,y) to a positive multiple of
      δ_(x₀, t_x·y), a point of R, on both sides of U.  So every basis
      Gram entry is an entry on R×R times the factors of at most 2k
      balancing steps.  The tensor side is balanced for inputs that pass
      `validate`, which every command checks before composing.
    * (b) sweeps S₁ × Z.  Lemma: with Δ₁ and Δ₁₂ cocycles and w₁ left
      invariant, the ratio of the two sides at a∘b on z is the product of
      the ratios at a on b·z and at b on z; at an identity e both sides
      are w₁(e)·ell[z], as Δ₁ and Δ₁₂ are 1 there.

    The word bound.  The lemmas are exact and the checks are floats, each
    within ε = (F + 16)·2⁻⁵² of its exact value, F the largest range fibre
    of G₁ or G₂ (a Gram entry sums at most F terms).  A shortest word
    e∘s₁∘…∘s_k has distinct prefixes in one range fibre, so k < F, and
    relative deviations multiply along a word.  With ρ the worst relative
    deviation |a − b| / max(|a|, |b|) of the reduced checks, every entry
    of the full sweep therefore deviates by at most K·(ρ + ε) + ε, with
    K = 2F₂ − 1 for (a) and K = F₁ for (b); its `crdev` is no larger.  The
    reduced pass decides only when that bound is within `tol`, and then
    reports its own worst `crdev` and witness.

    The explanation path.  Otherwise (a deviation the bound cannot place
    within `tol`, float data, a failing cocycle line, or tol = 0), the
    full sweep runs as it would without the reduced pass, bit for bit, and
    supplies the verdict, the residual and the witness.

    The random trials run as stacked rows, a block of them per pass of the
    operation chain; each trial draws f, f′, g, g′ and φ in that order, and
    a witness names the first trial that reaches the largest deviation.
    """
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    composite = result.composite
    g1, g2 = corr_x.left, corr_x.right
    fp, orbits = result.fp, result.orbits
    n_z = len(fp.pairs)
    on_generators = all(
        c.exact and passes(check_cocycle(c.adjoining)[0], True) for c in (corr_x, corr_y, composite)
    )
    f1, f2 = (max(map(len, g.fibre_dst), default=1) for g in (g1, g2))
    fibre = max(f1, f2)

    # -- (a) basis isometry: on R×R with balancing, else every pair ----------
    balancing = None
    if on_generators:
        r_points = result.reduction.z_of
        within = bytearray(n_z)
        for z in r_points:
            within[z] = 1
        iso_dev, iso_wit, rho = basis_isometry(corr_x, corr_y, result, within)
        bal_dev, bal_wit, bal_rho, balancing = balancing_deviation(corr_x, corr_y, result)
        if bal_dev > iso_dev:
            iso_dev, iso_wit = bal_dev, bal_wit
        iso_pairs = len(r_points) ** 2
        if not _conclusive(max(rho, bal_rho), 2 * f2 - 1, fibre, tol):
            balancing = None
    if balancing is None:
        iso_dev, iso_wit, _ = basis_isometry(corr_x, corr_y, result)
        iso_pairs = n_z * n_z

    # -- (b) intertwining on the basis: S₁ × Z, else every arrow of G₁ -----
    decided = False
    if on_generators:
        inter_dev, inter_wit, rho, checks = intertwining_deviation(corr_x, result, g1.generators)
        decided = _conclusive(rho, f1, fibre, tol)
    if not decided:
        inter_dev, inter_wit, _, checks = intertwining_deviation(corr_x, result, range(g1.n_arrows))

    # -- random trials through the generic operation chain ------------------
    rng = SplitMix64(seed)
    n_x, n_y = corr_x.space.n_points, corr_y.space.n_points
    cuts = [n_x, 2 * n_x, 2 * n_x + n_y, 2 * n_x + 2 * n_y]
    width = cuts[-1] + g1.n_arrows  # entries one trial draws
    per_block = max(1, WORKING_SET_ENTRIES // (2 * max(1, width)))
    for t0 in range(0, trials, per_block):
        rows = min(per_block, trials - t0)
        draw = rng.cnum_array(rows * width).reshape(rows, width)
        f, f2, ge, ge2, phi = np.split(draw, cuts, axis=1)
        f, f2 = ModuleElement(corr_x, f), ModuleElement(corr_x, f2)
        ge, ge2 = ModuleElement(corr_y, ge), ModuleElement(corr_y, ge2)
        phi = AlgebraElement(g1, phi)
        image = lambda_prime(f, ge, result)
        lhs_alg = tensor_inner_product(f, ge, f2, ge2, corr_x, corr_y)
        rhs_alg = inner_product(image, lambda_prime(f2, ge2, result), composite)
        d = _max_dev(lhs_alg.coeff, rhs_alg.coeff)
        t = int(np.argmax(d))  # the first of the block's worst rows
        if d[t] > iso_dev:
            iso_dev, iso_wit = float(d[t]), f"random tensor pair (trial {t0 + t})"
        lhs_mod = lambda_prime(left_action(phi, f, corr_x), ge, result)
        rhs_mod = left_action(phi, image, composite)
        d = _max_dev(lhs_mod.coeff, rhs_mod.coeff)
        t = int(np.argmax(d))
        if d[t] > inter_dev:
            inter_dev, inter_wit = float(d[t]), f"random algebra element (trial {t0 + t})"
    checks += trials

    # -- (c) surjectivity: the image matrix has full rank -------------------
    rank = image_rank(result)

    # -- positivity spot-checks: one eigvalsh per matrix size and budget ----
    n_o = composite.space.n_points
    draws = max(1, min(8, trials)) if n_o else 0
    fo = ModuleElement(composite, rng.cnum_array(draws * n_o).reshape(draws, n_o))
    gram = inner_product(fo, fo, composite)
    min_eig = _positivity_min_eig(gram, corr_y.right_haar)

    return GramReport(
        tol=tol,
        trials=trials,
        isometry_pairs=iso_pairs,
        balancing_checks=balancing,
        isometry_max_dev=iso_dev,
        isometry_witness=iso_wit,
        intertwining_checks=checks,
        intertwining_max_dev=inter_dev,
        intertwining_witness=inter_wit,
        surjectivity_rank=rank,
        omega_dim=orbits.n_orbits,
        positivity_min_eig=min_eig,
    )
