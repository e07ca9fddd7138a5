"""1-cocycles on finite groupoids and the canonical coboundary solver.

Every finite groupoid is proper, so every real-valued 1-cocycle is the
coboundary of a 0-cochain.  The solvers integrate against the canonical
invariant family of probability measures (built from the Haar system with
the constant test function), which pins one specific cochain out of the
orbit-constant ambiguity and makes downstream composites deterministic.
The additive solver averages the cocycle; the multiplicative one averages
its reciprocal, so rational data gives a rational cochain.

The homomorphism sweep behind `check_cocycle` runs once per `Cocycle1`
object: its worst deviation and first witness are cached on the object,
so every check of the same cocycle (at any tolerance) shares one pass.
So does the O(arrows) split residual of a cochain against a cocycle
(`coboundary_residual`), once per pair of objects.  Both compare
cross-multiplied integer numerators and denominators, of exact and float
values alike, and evaluate a deviation only at an unequal pair or arrow:
an equal one has deviation 0 on floats too, because an exact float sum
or product is representable, so IEEE arithmetic returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .groupoids import FiniteGroupoid
from .measures import HaarSystem, fibre_integral
from .report import passes
from .util import GcorrError, ONE, Scalar, adev, all_exact, ksum, rdev

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


class NotACocycle(GcorrError):
    def __init__(self, witness, deviation):
        self.witness = witness
        self.deviation = deviation
        super().__init__(f"homomorphism identity fails at {witness} (dev {deviation})")


class NonPositive(GcorrError):
    pass


@dataclass(frozen=True, eq=False)
class Cocycle1:
    groupoid: FiniteGroupoid
    value: tuple[Scalar, ...]  # per arrow
    flavor: str  # ADDITIVE (ℝ-valued) | MULTIPLICATIVE (ℝ⁺-valued)

    def __post_init__(self):
        if self.flavor not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == MULTIPLICATIVE and any(not (v > 0) for v in self.value):
            raise NonPositive("multiplicative cocycle values must be positive")

    @cached_property
    def _sweep(self) -> tuple[float, Optional[tuple[str, ...]]]:
        """(worst deviation, its first witness) of the cocycle identity."""
        return _sweep_cocycle(self)

    @cached_property
    def _splits(self) -> dict["Cochain0", tuple[float, Optional[str]]]:
        """Cochain -> (split residual, first arrow attaining it)."""
        return {}


@dataclass(frozen=True, eq=False)
class Cochain0:
    groupoid: FiniteGroupoid
    value: tuple[Scalar, ...]  # per unit
    flavor: str

    def __post_init__(self):
        if self.flavor == MULTIPLICATIVE and any(not (v > 0) for v in self.value):
            raise NonPositive("multiplicative cochain values must be positive")


@dataclass(frozen=True, eq=False)
class ProbabilityFamily:
    """Nonnegative arrow weights fibred along dst, each fibre of mass 1,
    invariant under left translation."""

    groupoid: FiniteGroupoid
    weight: tuple[Scalar, ...]


def _ratios(values: Sequence[Scalar]) -> tuple[list, list]:
    """Numerators and denominators (> 0) of ints, Fractions and finite
    floats alike.  A non-finite float gets numerator NaN, which makes every
    cross-multiplied comparison it enters unequal, so its `rdev` (∞) is
    taken there."""
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except (OverflowError, ValueError):  # ∞ or NaN
        ratios = [
            (math.nan, 1) if isinstance(v, float) and not math.isfinite(v) else v.as_integer_ratio()
            for v in values
        ]
    return [n for n, _ in ratios], [d for _, d in ratios]


def _unequal_pairs(
    c: Cocycle1, num: Sequence, den: Sequence, rows: Iterable[int]
) -> Iterator[tuple[int, int, int]]:
    """The (a, b, a∘b) with a in `rows` where c(a∘b) differs from
    c(a) + c(b) (or c(a)·c(b)) as cross-multiplied integers, in sweep
    order."""
    g = c.groupoid
    comp, src, fibre_dst = g.comp, g.src, g.fibre_dst
    additive = c.flavor == ADDITIVE
    for a in rows:
        na, da = num[a], den[a]
        for b in fibre_dst[src[a]]:
            k = comp[(a, b)]
            if additive:
                equal = num[k] * da * den[b] == den[k] * (na * den[b] + num[b] * da)
            else:
                equal = num[k] * da * den[b] == den[k] * na * num[b]
            if not equal:
                yield a, b, k


def _sweep_cocycle(c: Cocycle1) -> tuple[float, Optional[tuple[str, ...]]]:
    """Worst `rdev` over the identities at units and the homomorphism
    identity on all composable pairs, with the first pair attaining it.

    Lemma: once c is 1 (or 0) at the units, the arrows a with
    c(a∘b) = c(a)·c(b) (or c(a) + c(b)) exactly for every b are closed
    under composition, by associativity: c((a∘a′)∘b) = c(a∘(a′∘b)) =
    c(a)·c(a′)·c(b) = c(a∘a′)·c(b).  So a pass over the identities and `generators` that
    finds no unequal pair proves the sweep 0; only otherwise does the full
    sweep run.  The test is exact on floats too, and a non-finite value is
    unequal to everything, so it is found at its own identity row.
    """
    g = c.groupoid
    value = c.value
    additive = c.flavor == ADDITIVE
    ident = 0 if additive else 1
    worst = 0.0
    witness = None

    for u in range(g.n_units):
        d = rdev(value[g.unit_arrow[u]], ident)
        if d > worst:
            worst, witness = d, (g.arrow_ids[g.unit_arrow[u]],)

    num, den = _ratios(value)
    if not worst and not any(_unequal_pairs(c, num, den, g.unit_arrow + g.generators)):
        return worst, witness
    for a, b, k in _unequal_pairs(c, num, den, range(g.n_arrows)):
        rhs = value[a] + value[b] if additive else value[a] * value[b]
        d = rdev(value[k], rhs)
        if d > worst:
            worst, witness = d, (g.arrow_ids[a], g.arrow_ids[b])
    return worst, witness


def check_cocycle(c: Cocycle1) -> tuple[float, Optional[tuple[str, ...]]]:
    """Homomorphism identity on all composable pairs, identities at units:
    the worst `rdev` and the first witness attaining it (None if 0), from
    the cached sweep.  c is a cocycle when the deviation `passes` (exact
    when its values are)."""
    return c._sweep


def d0(t: Cochain0) -> Cocycle1:
    """The coboundary of a 0-cochain: t∘src - t∘dst, or t∘src / t∘dst."""
    g = t.groupoid
    if t.flavor == ADDITIVE:
        vals = tuple(t.value[g.src[a]] - t.value[g.dst[a]] for a in range(g.n_arrows))
    else:
        vals = tuple(t.value[g.src[a]] / t.value[g.dst[a]] for a in range(g.n_arrows))
    return Cocycle1(g, vals, t.flavor)


def invariant_probability_family(
    g: FiniteGroupoid,
    haar: HaarSystem,
    F: Optional[Sequence[Scalar]] = None,
) -> ProbabilityFamily:
    """Normalize the Haar system into an invariant probability family.

    h(u) = sum over the range fibre at u of F(src γ)·w(γ) is checked to be
    orbit-constant, then each fibre weight is F(src γ)·w(γ)/h(u).  F
    defaults to the constant 1; only its values up to a per-orbit scale
    matter.

    The check is exact on any data.  Left invariance maps the range fibre
    at s(γ) onto the one at r(γ) and keeps F(src)·w term by term, so the
    fibres of one orbit carry the same multiset of terms, and `ksum` sums
    them exactly or correctly rounded, hence to the same value.
    """
    if haar.groupoid is not g and haar.groupoid != g:
        raise ValueError("Haar system lives on a different groupoid")
    if F is None:
        F = (ONE,) * g.n_units
    if any(not (f > 0) for f in F):
        raise NonPositive("F must be strictly positive")
    h = fibre_integral(haar, F)
    worst, witness = 0.0, None
    for a in range(g.n_arrows):  # h constant along arrows => constant on orbits
        d = adev(h[g.src[a]], h[g.dst[a]])
        if d > worst:
            worst, witness = d, g.arrow_ids[a]
    if not passes(worst, exact=True):
        raise GcorrError(f"fibre mass is not orbit-constant at {witness} (dev {worst})")
    weight = tuple(
        F[g.src[a]] * haar.w(a) / h[g.dst[a]] for a in range(g.n_arrows)
    )
    return ProbabilityFamily(g, weight)


def solve_coboundary_additive(c: Cocycle1, p: ProbabilityFamily) -> Cochain0:
    """Split an additive cocycle as b∘src - b∘dst.

    b(u) is minus the p-average of the cocycle over the range fibre at u
    (the sign makes the stated identity come out; averaging c itself splits
    the cocycle with the opposite sign).  Raises NotACocycle if c fails the
    homomorphism sweep, which `passes` at `DEFAULT_TOL` on float data.
    """
    if c.flavor != ADDITIVE:
        raise ValueError("expected an additive cocycle")
    g = c.groupoid
    worst, witness = check_cocycle(c)
    if not passes(worst, all_exact(c.value)):
        raise NotACocycle(witness, worst)
    vals = tuple(
        -ksum(c.value[a] * p.weight[a] for a in g.fibre_dst[u])
        for u in range(g.n_units)
    )
    return Cochain0(g, vals, ADDITIVE)


def _split_sweep(c: Cocycle1, b: Cochain0) -> tuple[float, Optional[str]]:
    """Worst deviation of c from the coboundary of b, arrow by arrow, and
    the first arrow attaining it: `adev` of c against b∘src - b∘dst, or
    `rdev` of c·(b∘dst) against b∘src."""
    g = c.groupoid
    src, dst = g.src, g.dst
    additive = c.flavor == ADDITIVE
    cv, bv = c.value, b.value
    worst, witness = 0.0, None
    num, den = _ratios(cv)
    bn, bd = _ratios(bv)
    for a in range(g.n_arrows):
        s, t = src[a], dst[a]
        if additive:
            equal = num[a] * bd[s] * bd[t] == den[a] * (bn[s] * bd[t] - bn[t] * bd[s])
        else:
            equal = num[a] * bn[t] * bd[s] == den[a] * bd[t] * bn[s]
        if not equal:
            if additive:
                d = adev(cv[a], bv[s] - bv[t])
            else:
                d = rdev(cv[a] * bv[t], bv[s])
            if d > worst:
                worst, witness = d, g.arrow_ids[a]
    return worst, witness


def coboundary_residual(c: Cocycle1, b: Cochain0) -> float:
    """max over arrows of |c - (b∘src - b∘dst)| (or the ratio version);
    computed once per (c, b) pair of objects."""
    if b not in c._splits:
        c._splits[b] = _split_sweep(c, b)
    return c._splits[b][0]


def coboundary_witness(c: Cocycle1, b: Cochain0) -> Optional[str]:
    """The first arrow attaining `coboundary_residual(c, b)` (None if 0),
    read from the same cache."""
    coboundary_residual(c, b)
    return c._splits[b][1]


def decompose_multiplicative(delta: Cocycle1, p: ProbabilityFamily) -> Cochain0:
    """Positive b with b∘src / b∘dst = delta: the p-average of delta⁻¹,
    b(u) = Σ_{γ∈G^u} p(γ)·delta(γ)⁻¹, exact on rational data.

    Lemma: for γ: s -> t, η ↦ γ∘η maps the range fibre G^s onto G^t, so
    left invariance of p and the cocycle identity give
    b(t) = Σ_{η∈G^s} p(η)·delta(γ)⁻¹·delta(η)⁻¹ = b(s) / delta(γ).
    Conversely a split cocycle is a coboundary, hence a cocycle.  So the
    guard is the O(arrows) split residual of b, which `passes` at
    `DEFAULT_TOL` on float data, not the sweep over composable pairs; it
    raises NotACocycle naming the first arrow that b does not split.
    """
    if delta.flavor != MULTIPLICATIVE:
        raise ValueError("expected a multiplicative cocycle")
    g = delta.groupoid
    vals = tuple(
        ksum(p.weight[a] / delta.value[a] for a in g.fibre_dst[u])
        for u in range(g.n_units)
    )
    b = Cochain0(g, vals, MULTIPLICATIVE)
    res = coboundary_residual(delta, b)
    if not passes(res, all_exact(delta.value) and all_exact(vals)):
        raise NotACocycle((coboundary_witness(delta, b),), res)
    return b
