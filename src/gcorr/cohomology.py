"""Positive 1-cocycles on finite groupoids and the canonical coboundary
solver.

Every cocycle of the construction is ℝ⁺-valued and multiplicative: the
adjoining function Δ of a correspondence, the obstruction δ_Z, its
splitting b and the composite Δ₁₂ (an ℝ-valued cocycle is the log of
one).  Every finite groupoid is proper, so every such cocycle is the
coboundary t∘src / t∘dst of a positive 0-cochain.  The solver averages
the reciprocal of the cocycle against the canonical invariant family of
probability measures (built from the Haar system with the constant test
function), which pins one specific cochain out of the orbit-constant
ambiguity, makes downstream composites deterministic and gives a
rational cochain on rational data.

The homomorphism sweep behind `check_cocycle` runs once per `Cocycle1`
object: its worst deviation and first witness are cached on the object,
so every check of the same cocycle (at any tolerance) shares one pass.
So does the O(arrows) split residual of a cochain against a cocycle
(`coboundary_residual`), once per pair of objects.  Both compare
cross-multiplied integer numerators and denominators, of exact and float
values alike, and evaluate a deviation only at an unequal pair or arrow:
an equal one has deviation 0 on floats too, because an exact float
product is representable, so IEEE arithmetic returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .groupoids import FiniteGroupoid
from .measures import HaarSystem, fibre_integral
from .report import passes
from .util import GcorrError, Scalar, adev, all_exact, generators_first, kquot, positive, rdev, worst_of


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
    value: tuple[Scalar, ...]  # per arrow, positive

    def __post_init__(self):
        if not all(map(positive, self.value)):
            raise NonPositive("cocycle values must be positive")

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
    value: tuple[Scalar, ...]  # per unit, positive

    def __post_init__(self):
        if not all(map(positive, self.value)):
            raise NonPositive("cochain values must be positive")


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
    c(a)·c(b) as cross-multiplied integers, in sweep order."""
    g = c.groupoid
    comp, src, fibre_dst = g.comp, g.src, g.fibre_dst
    for a in rows:
        na, da = num[a], den[a]
        for b in fibre_dst[src[a]]:
            k = comp[(a, b)]
            if num[k] * da * den[b] != den[k] * na * num[b]:
                yield a, b, k


def _sweep_cocycle(c: Cocycle1) -> tuple[float, Optional[tuple[str, ...]]]:
    """Worst `rdev` over the identities at units and then the homomorphism
    identity on all composable pairs, swept `generators_first`, with the
    first unit arrow or pair attaining it.

    Lemma: once c is 1 at the units, the arrows a with c(a∘b) = c(a)·c(b)
    exactly for every b are closed under composition, by associativity:
    c((a∘a′)∘b) = c(a∘(a′∘b)) = c(a)·c(a′)·c(b) = c(a∘a′)·c(b).  A unit
    arrow u with c(u) ≠ 1 is unequal at (u, u), since c(u) > 0, so the
    probe finds it too.  The test is exact on floats, and a non-finite
    value is unequal to everything, so it is found at its own identity row.
    """
    g = c.groupoid
    value = c.value
    num, den = _ratios(value)
    worst, key = worst_of(chain(
        ((d, (u,)) for u in g.unit_arrow if (d := rdev(value[u], 1))),
        generators_first(
            _unequal_pairs(c, num, den, g.unit_arrow + g.generators),
            ((rdev(value[k], value[a] * value[b]), (a, b))
             for a, b, k in _unequal_pairs(c, num, den, range(g.n_arrows))),
        ),
    ))
    return worst, None if key is None else tuple(g.arrow_ids[a] for a in key)


def check_cocycle(c: Cocycle1) -> tuple[float, Optional[tuple[str, ...]]]:
    """Homomorphism identity on all composable pairs, identities at units:
    the worst `rdev` and the first witness attaining it (None if 0), from
    the cached sweep.  c is a cocycle when the deviation `passes` (exact
    when its values are)."""
    return c._sweep


def d0(t: Cochain0) -> Cocycle1:
    """The coboundary of a 0-cochain: t∘src / t∘dst."""
    g = t.groupoid
    return Cocycle1(g, tuple(t.value[g.src[a]] / t.value[g.dst[a]] for a in range(g.n_arrows)))


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
    fibres of one orbit carry the same multiset of terms, and `ksum`/`kdot`
    sum them exactly or correctly rounded, hence to the same value.
    """
    if haar.groupoid is not g and haar.groupoid != g:
        raise ValueError("Haar system lives on a different groupoid")
    if F is not None and not all(map(positive, F)):
        raise NonPositive("F must be strictly positive")
    h = fibre_integral(haar, F)  # with F = 1, the Haar system's cached fibre masses
    # h constant along arrows => constant on orbits
    worst, a = worst_of((d, a) for a, (s, t) in enumerate(zip(g.src, g.dst)) if (d := adev(h[s], h[t])))
    if not passes(worst, exact=True):
        raise GcorrError(f"fibre mass is not orbit-constant at {g.arrow_ids[a]} (dev {worst})")
    w, dst = haar.family.weight, g.dst
    if F is not None:
        w = tuple(F[g.src[a]] * w[a] for a in range(g.n_arrows))
    return ProbabilityFamily(g, tuple(w[a] / h[dst[a]] for a in range(g.n_arrows)))


def _split_sweep(c: Cocycle1, b: Cochain0) -> tuple[float, Optional[str]]:
    """Worst `rdev` of c·(b∘dst) against b∘src, arrow by arrow, and the
    first arrow attaining it."""
    g = c.groupoid
    cv, bv = c.value, b.value
    num, den = _ratios(cv)
    bn, bd = _ratios(bv)
    worst, a = worst_of(
        (rdev(cv[a] * bv[t], bv[s]), a)
        for a, (s, t) in enumerate(zip(g.src, g.dst))
        if num[a] * bn[t] * bd[s] != den[a] * bd[t] * bn[s]
    )
    return worst, None if a is None else g.arrow_ids[a]


def coboundary_residual(c: Cocycle1, b: Cochain0) -> tuple[float, Optional[str]]:
    """How far b fails to split c as b∘src / b∘dst: the worst `rdev` over
    arrows and the first arrow attaining it (None if 0), computed once per
    (c, b) pair of objects."""
    if b not in c._splits:
        c._splits[b] = _split_sweep(c, b)
    return c._splits[b]


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
    g, pw, dv = delta.groupoid, p.weight, delta.value
    vals = tuple(kquot([pw[a] for a in fibre], [dv[a] for a in fibre]) for fibre in g.fibre_dst)
    b = Cochain0(g, vals)
    res, witness = coboundary_residual(delta, b)
    if not passes(res, all_exact(delta.value) and all_exact(vals)):
        raise NotACocycle((witness,), res)
    return b
