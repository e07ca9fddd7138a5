"""Families of measures along maps, Haar systems, and measure push-downs.

A family of measures along f: T -> B is stored as one strictly positive
weight per point of T; the measure attached to b in B is the restriction of
that weight table to the fibre f⁻¹(b).  Haar systems are the special case
T = arrows, f = dst, subject to left invariance.

`compose` reads the helpers shared with the stand-alone push-down here:
the fibre integral behind every cutoff, the push-down sum with its
disintegration residual, and the invariance residual of a function on a
G-space.  Each check returns (worst, witness) by `util.worst_of`; the
verdict is `report.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .groupoids import FiniteGroupoid, GSpaceAction, OrbitSpace
from .report import DEFAULT_TOL, passes
from .util import (
    GcorrError, IndexTable, Scalar, adev, all_exact, generators_first, kdot_groups, positive, rdev, same_product,
    to_float, worst_of,
)


class NotHaar(GcorrError):
    def __init__(self, witness, max_violation):
        self.witness = witness
        self.max_violation = max_violation
        super().__init__(f"left invariance fails at {witness}, violation {max_violation}")


class NotInvariant(GcorrError):
    def __init__(self, residual, message="measure is not symmetric", witness=None):
        self.residual = residual
        self.witness = witness
        at = f" at {witness}" if witness else ""
        super().__init__(f"{message}{at} (residual {residual})")


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """Strictly positive weights on `total_ids` fibred along `along`."""

    total_ids: tuple[str, ...]
    base_ids: tuple[str, ...]
    along: tuple[int, ...]  # total -> base
    weight: tuple[Scalar, ...]

    def __post_init__(self):
        if not all(map(positive, self.weight)):
            t, w = next((t, w) for t, w in enumerate(self.weight) if not positive(w))
            raise ValueError(f"full support violated: weight({self.total_ids[t]}) = {w}")

    @cached_property
    def float_weight(self) -> tuple[float, ...]:
        """The weights as floats, converted once for the float-side readers."""
        return tuple(to_float(w) for w in self.weight)

    @cached_property
    def exact(self) -> bool:
        return all_exact(self.weight)

    def __repr__(self) -> str:
        return f"MeasureFamily({len(self.total_ids)} points over {len(self.base_ids)} base)"


def unit_measure(g: FiniteGroupoid, weights: Sequence[Scalar]) -> MeasureFamily:
    """A single measure on the unit space (family over a one-point base)."""
    return MeasureFamily(g.unit_ids, ("*",), (0,) * g.n_units, tuple(weights))


@dataclass(frozen=True, eq=False)
class HaarSystem:
    groupoid: FiniteGroupoid
    family: MeasureFamily  # total = arrows, along = dst

    def w(self, arrow: int) -> Scalar:
        return self.family.weight[arrow]

    @cached_property
    def exact(self) -> bool:
        return self.family.exact

    @cached_property
    def fibre_masses(self) -> tuple[Scalar, ...]:
        """u ↦ Σ_{γ∈G^u} w(γ), the mass of each range fibre, summed once."""
        return kdot_groups(self.groupoid.fibre_dst, self.family.weight)

    @cached_property
    def convolution_table(self) -> IndexTable:
        """`cstar.convolve` over the composable pairs (a, b) in
        `composable_pairs()` order: φ(a)·w(a) times ψ(b), into a∘b."""
        g = self.groupoid
        pairs = list(g.composable_pairs())
        ab = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        return IndexTable(
            ab[:, 0], ab[:, 1],
            np.array([g.comp[p] for p in pairs], dtype=np.intp), g.n_arrows,
            pre=np.asarray(self.family.float_weight, dtype=np.float64)[ab[:, 0]],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HaarSystem):
            return NotImplemented
        return self.groupoid == other.groupoid and self.family.weight == other.family.weight


def _haar_deviations(
    g: FiniteGroupoid, weight: Sequence[Scalar], rows: Iterable[int]
) -> Iterator[tuple[float, tuple[int, int]]]:
    """The (d, (η, γ)) with η in `rows`, γ composable and nonzero
    d = `adev`(weight(η∘γ), weight(γ)), in sweep order."""
    comp, src, fibre_dst = g.comp, g.src, g.fibre_dst
    for a in rows:
        for b in fibre_dst[src[a]]:
            d = adev(weight[comp[(a, b)]], weight[b])
            if d:
                yield d, (a, b)


def check_haar(g: FiniteGroupoid, family: MeasureFamily) -> tuple[float, Optional[tuple[str, str]]]:
    """Left invariance: weight(η∘γ) = weight(γ) on every composable pair;
    the worst `adev` and the first (η, γ) attaining it (None if 0), swept
    `generators_first`.

    Lemma: the arrows η whose deviation is 0 (equal and finite weights)
    against every γ are closed under composition, by associativity:
    weight((η∘η′)∘γ) = weight(η∘(η′∘γ)) = weight(η′∘γ) = weight(γ).
    """
    if len(family.total_ids) != g.n_arrows or family.along != g.dst:
        raise ValueError("family must live on the arrows along dst")
    weight = family.weight
    worst, key = worst_of(generators_first(
        _haar_deviations(g, weight, g.unit_arrow + g.generators),
        _haar_deviations(g, weight, range(g.n_arrows)),
    ))
    return worst, None if key is None else (g.arrow_ids[key[0]], g.arrow_ids[key[1]])


def make_haar(g: FiniteGroupoid, weights: Sequence[Scalar]) -> HaarSystem:
    """The Haar system of `weights`; its left invariance `passes` exact on
    any data, since `check_haar` compares weights with no arithmetic."""
    fam = MeasureFamily(g.arrow_ids, g.unit_ids, g.dst, tuple(weights))
    worst, witness = check_haar(g, fam)
    if not passes(worst, exact=True):
        raise NotHaar(witness, worst)
    return HaarSystem(g, fam)


def counting_haar(g: FiniteGroupoid) -> HaarSystem:
    from .util import ONE

    return make_haar(g, (ONE,) * g.n_arrows)


def haar_from_unit_weights(g: FiniteGroupoid, unit_w: Sequence[Scalar]) -> HaarSystem:
    """Haar system with weight(γ) = unit_w(src(γ)).

    Left invariance forces every finite Haar weight table into this shape
    (compose with the identity at the source); the constructor still
    re-validates.
    """
    return make_haar(g, tuple(unit_w[g.src[a]] for a in range(g.n_arrows)))


@dataclass(frozen=True, eq=False)
class GroupoidMeasure:
    """A single measure on the arrow set (m∘λ and friends)."""

    groupoid: FiniteGroupoid
    weight: tuple[Scalar, ...]


def induced_measure(m: MeasureFamily, haar: HaarSystem, direction: str) -> GroupoidMeasure:
    """m∘λ ("forward") or m∘λ⁻¹ ("inverse") on the arrows.

    Forward weighs γ by m(dst γ)·λ(γ); inverse by m(src γ)·λ(γ⁻¹).
    """
    g = haar.groupoid
    if len(m.total_ids) != g.n_units or len(m.base_ids) != 1:
        raise ValueError("m must be a single measure on the unit space")
    if direction == "forward":
        w = tuple(m.weight[g.dst[a]] * haar.w(a) for a in range(g.n_arrows))
    elif direction == "inverse":
        w = tuple(m.weight[g.src[a]] * haar.w(g.inv[a]) for a in range(g.n_arrows))
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    return GroupoidMeasure(g, w)


def is_symmetric(m: MeasureFamily, haar: HaarSystem) -> tuple[float, Optional[str]]:
    """How far m∘λ is from m∘λ⁻¹, arrow by arrow, and the first arrow
    attaining it (None if 0): the worst |difference|, divided on float
    data by max(1, largest weight), since it is a difference of measures
    rather than a relative deviation.  m is symmetric when the residual
    `passes` (exact when m and λ are).  The two weights of an arrow are
    formed only where `same_product` does not find them equal."""
    g = haar.groupoid
    if len(m.total_ids) != g.n_units or len(m.base_ids) != 1:
        raise ValueError("m must be a single measure on the unit space")
    mw, w, src, dst, inv = m.weight, haar.family.weight, g.src, g.dst, g.inv
    residual, a = worst_of(
        (d, a) for a in range(g.n_arrows)
        if not same_product((mw[dst[a]], w[a]), (mw[src[a]], w[inv[a]]))
        and (d := adev(mw[dst[a]] * w[a], mw[src[a]] * w[inv[a]]))
    )
    if not (m.exact and haar.exact):
        both = induced_measure(m, haar, "forward").weight + induced_measure(m, haar, "inverse").weight
        residual /= max(1.0, max(abs(float(w)) for w in both))
    return residual, None if a is None else g.arrow_ids[a]


def quotient_family(haar: HaarSystem, orbits: OrbitSpace) -> MeasureFamily:
    """The family induced along the orbit projection of the unit space.

    The measure at an orbit weighs a unit v by the Haar mass of the arrows
    from v into the stored representative; invariance makes the choice of
    representative immaterial.
    """
    g = haar.groupoid
    if len(orbits.proj) != g.n_units:
        raise ValueError("orbit space does not match the unit space")
    weight = [None] * g.n_units
    for o in range(orbits.n_orbits):
        rep = orbits.reps[o]
        for a in g.fibre_dst[rep]:
            v = g.src[a]
            weight[v] = haar.w(a) if weight[v] is None else weight[v] + haar.w(a)
    if any(w is None for w in weight):
        raise ValueError("some unit is unreachable from its orbit representative")
    return MeasureFamily(g.unit_ids, orbits.orbit_ids, orbits.proj, tuple(weight))


def fibre_integral(haar: HaarSystem, f: Optional[Sequence[Scalar]] = None) -> tuple[Scalar, ...]:
    """u ↦ Σ_{γ∈G^u} f(src γ)·w(γ), the integral of f∘src over each range
    fibre; with f = 1 (the default) the fibre masses, constant along unit
    orbits."""
    if f is None:
        return haar.fibre_masses
    g = haar.groupoid
    return kdot_groups(g.fibre_dst, [f[s] for s in g.src], haar.family.weight)


def default_cutoff(haar: HaarSystem) -> tuple[Scalar, ...]:
    """e = 1/h with h the range-fibre mass; normalizes to 1 on every fibre."""
    return tuple(1 / h for h in fibre_integral(haar))


def cutoff_from_profile(haar: HaarSystem, profile: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Normalize any positive profile F into a cutoff e = F / h_F.

    h_F(u) sums F(src γ) against the fibre at u and is constant along
    orbits, which is exactly what makes e integrate to one on every fibre.
    """
    h = fibre_integral(haar, profile)
    return tuple(profile[u] / h[u] for u in range(len(h)))


def cutoff_residual(haar: HaarSystem, e: Sequence[Scalar]) -> float:
    """How far e is from satisfying sum over the fibre of e(src γ)·λ(γ) = 1."""
    return max((adev(total, 1) for total in fibre_integral(haar, e)), default=0.0)


def push_down(orbits: OrbitSpace, *factors: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """μ(o) = Σ_{v∈o} Π factors(v), the push-down sum of the weights m
    with the cutoff e, given as the factors (e, m), or (e, b, m) for b·m,
    which is never formed."""
    return kdot_groups(orbits.members, *factors)


def disintegration_residual(
    mu: Sequence[Scalar], ql: Sequence[Scalar], orbits: OrbitSpace, *factors: Sequence[Scalar]
) -> tuple[float, Optional[int]]:
    """Worst `rdev` of m(v) from μ(π v)·ql(v): how far μ∘[λ] is from m,
    where ql is the quotient family along π and m(v) = Π factors(v),
    formed only where `same_product` does not find the two sides equal;
    and the first point v attaining it (None if 0)."""
    proj = orbits.proj
    return worst_of(
        (d, v) for v, fs in enumerate(zip(*factors))
        if not same_product(fs, (mu[proj[v]], ql[v])) and (d := rdev(reduce(mul, fs), mu[proj[v]] * ql[v]))
    )


def _moved_values(
    action: GSpaceAction, values: Sequence[Scalar], rows: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """The (arrow, point) with the arrow in `rows` where the `rdev` of
    values at the moved point from values at the point is nonzero."""
    g, table, at = action.groupoid, action.table, action.points_at
    if action.side == "left":
        for a in rows:
            for p in at[g.src[a]]:
                if rdev(values[table[(a, p)]], values[p]):
                    yield a, p
    else:
        for a in rows:
            for p in at[g.dst[a]]:
                if rdev(values[table[(p, a)]], values[p]):
                    yield a, p


def invariance_residual(action: GSpaceAction, values: Sequence[Scalar]) -> tuple[float, Optional[str]]:
    """Worst `rdev` of a function on the points from its translate,
    values(moved point) against values(point), over the composable pairs
    of the action; and the first pair attaining it, named (arrow, point)
    for a left action and (point, arrow) for a right one (None if 0).  It
    is swept `generators_first`, and the full sweep walks `action.pairs()`,
    so a right action is swept point by point.

    Lemma: the arrows that keep the values exactly (deviation 0: equal and
    finite) at every point are closed under composition, by compatibility:
    values((a∘a′)·x) = values(a·(a′·x)) = values(a′·x) = values(x), and on
    the right likewise.
    """
    g = action.groupoid
    table, at = action.table, 1 if action.side == "left" else 0
    worst, key = worst_of(generators_first(
        _moved_values(action, values, g.unit_arrow + g.generators),
        ((d, pair) for pair in action.pairs() if (d := rdev(values[table[pair]], values[pair[at]]))),
    ))
    if key is None:
        return worst, None
    arrow, point = action.groupoid.arrow_ids[key[1 - at]], action.point_ids[key[at]]
    return worst, f"({arrow}, {point})" if at else f"({point}, {arrow})"


def push_measure_down(
    m: MeasureFamily,
    haar: HaarSystem,
    orbits: OrbitSpace,
    e: Optional[Sequence[Scalar]] = None,
    tol: float = DEFAULT_TOL,
) -> MeasureFamily:
    """Push an invariant measure on the units down to the orbit space.

    Returns the unique measure μ with μ∘[λ] = m.  Requires m symmetric
    (`is_symmetric`) and e a normalized cutoff (`cutoff_residual`); the
    result does not depend on the choice of e.  The postcondition
    μ∘[λ] = m is the `disintegration_residual`.  Each of the three guards
    raises unless its residual `passes` at `tol`, exact when every value
    it reads is.
    """
    res, witness = is_symmetric(m, haar)
    if not passes(res, m.exact and haar.exact, tol):
        raise NotInvariant(res, witness=witness)
    if e is None:
        e = default_cutoff(haar)
    if not passes(cutoff_residual(haar, e), all_exact(e) and haar.exact, tol):
        raise ValueError("cutoff is not normalized on every fibre")
    mu = MeasureFamily(orbits.orbit_ids, ("*",), (0,) * orbits.n_orbits, push_down(orbits, e, m.weight))
    ql = quotient_family(haar, orbits)
    worst, witness = disintegration_residual(mu.weight, ql.weight, orbits, m.weight)
    if not passes(worst, mu.exact and ql.exact and m.exact, tol):
        raise NotInvariant(worst, "push-down failed to disintegrate m", m.total_ids[witness])
    return mu
