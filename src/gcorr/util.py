"""Scalar helpers shared across the package, and the index table of the
array operations in `cstar`.

Weights are exact `Fraction`s whenever the input data is rational, and
every construction keeps them so; IEEE doubles come only from float input
(and from the certificate in `cstar`).  Helpers here keep that split
honest: `ksum` is exact on rationals and correctly rounded (hence
order-independent) on floats, which is what lets several invariance sweeps
compare float results for exact equality.

The deviation helpers `adev` and `rdev` feed every residual sweep, so they
keep one contract: the result is exactly 0.0 iff the arguments are equal
(and finite), it is `math.inf` whenever either argument is a non-finite
float (a NaN could never be dropped by `worst_of`'s `>`), and
otherwise it is the float of the exact deviation on exact inputs and the
IEEE deviation on float ones.  An unequal exact pair never reads 0: a
deviation below the float range reads `math.ulp(0.0)`, and one beyond it
(or an exact argument beyond it) reads `math.inf`.

Every (worst, witness) checker reduces its deviations through `worst_of`:
the residual is the largest deviation, the witness is the first key in
sweep order that attains it, and a sweep with no deviation reads
(0.0, None).  A checker whose identity holds on a set of arrows closed
under composition sweeps through `generators_first`: a probe over the
identities and `generators` that finds no deviation proves the full
sweep 0, so the full sweep runs only when the probe finds one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, TypeVar, Union

import numpy as np

Scalar = Union[int, Fraction, float]
K = TypeVar("K")

ONE = Fraction(1)
ZERO = Fraction(0)


class GcorrError(Exception):
    """Base class for structured errors raised by this package."""


def is_exact(x: Scalar) -> bool:
    if type(x) in (int, Fraction):  # skips the ABC instance check
        return True
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(is_exact(v) for v in values)


def ksum(values: Iterable[Scalar]) -> Scalar:
    """Sum a collection of weights.

    Exact for rational inputs.  For float inputs uses `math.fsum`, whose
    result is the correctly rounded true sum and therefore independent of
    summation order.
    """
    vals = list(values)
    if all_exact(vals):
        return sum(vals, ZERO)
    return math.fsum(float(v) for v in vals)


def _equal_dev(a: Scalar) -> float:
    """The deviation of a value from itself: 0, or ∞ for a non-finite float."""
    return math.inf if isinstance(a, float) and not math.isfinite(a) else 0.0


def _unequal_dev(d: Scalar) -> float:
    """A nonzero exact deviation as a float: `ulp(0)` on underflow, ∞ on overflow."""
    try:
        return float(d) or math.ulp(0.0)
    except OverflowError:
        return math.inf


def adev(a: Scalar, b: Scalar) -> float:
    """Absolute deviation |a - b| as a float (exact zero stays exact)."""
    if a is b or a == b:
        return _equal_dev(a)
    if is_exact(a) and is_exact(b):
        return _unequal_dev(abs(a - b))
    try:
        d = abs(float(a) - float(b))
    except OverflowError:
        return math.inf
    return d if d == d else math.inf


def rdev(a: Scalar, b: Scalar) -> float:
    """Deviation |a - b| / max(1, |a|, |b|); 0 iff equal on exact inputs."""
    if a is b or a == b:
        return _equal_dev(a)
    if is_exact(a) and is_exact(b):
        return _unequal_dev(abs(a - b) / max(1, abs(a), abs(b)))
    try:
        fa, fb = float(a), float(b)
    except OverflowError:
        return math.inf
    d = abs(fa - fb) / max(1.0, abs(fa), abs(fb))
    return d if d == d else math.inf


def crdev(a: complex, b: complex) -> float:
    """Deviation |a - b| / max(1, |a|, |b|) of complex (or float) values;
    `math.inf` whenever either one is NaN or ∞, as for `rdev`."""
    d = abs(a - b) / max(1.0, abs(a), abs(b))
    return d if d == d else math.inf


def worst_of(devs: Iterable[tuple[float, K]]) -> tuple[float, Optional[K]]:
    """The largest d of the (d, key) pairs and the first key attaining it,
    or (0.0, None) if no d is positive.  The deviations are `adev`/`rdev`
    values, never NaN, so ∞ beats every finite d."""
    worst, witness = 0.0, None
    for d, key in devs:
        if d > worst:
            worst, witness = d, key
    return worst, witness


def generators_first(probe: Iterator, full: Iterator) -> Iterable:
    """`full` if `probe` yields anything, and nothing otherwise; `full` is
    not started when `probe` is empty."""
    for _ in probe:
        return full
    return ()


class IndexTable(NamedTuple):
    """The index table of one bilinear operation on coefficient arrays.

    Entry t adds ((u[left[t]]·pre[t])·v[right[t]])·post[t] into out[t] of
    a result with `n_out` entries; a missing `pre` or `post` is a factor
    left out.  The object that owns the operation's structure builds its
    table once, in the order of the per-element loop it replaces, and
    `cstar` runs every operation through one kernel over it.
    """

    left: np.ndarray
    right: np.ndarray
    out: np.ndarray
    n_out: int
    pre: Optional[np.ndarray] = None
    post: Optional[np.ndarray] = None


def to_float(x: Scalar) -> float:
    """A weight as a float for the float-side readers (the certificate's
    tables).  Raises GcorrError, naming the value, unless that float is
    positive and finite: an exact weight beyond the float range, or so
    small that it rounds to 0, has no float to certify with."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not 0.0 < f < math.inf:
        text = str(x)
        if len(text) > 40 and is_exact(x) and x > 0:
            x = Fraction(x)
            text = f"≈ 10^{math.log10(x.numerator) - math.log10(x.denominator):.1f}"
        raise GcorrError(f"weight {text} is not a positive finite float")
    return f


def parse_scalar(raw) -> Scalar:
    """Parse a weight from interchange form.

    Strings are exact: "3/4" and "0.75" both become Fraction(3, 4).
    JSON numbers are taken as they come; a float marks the value inexact.
    Non-finite floats (JSON `Infinity`, `NaN`) are rejected.  A string of
    plain ASCII digits "p" or "p/q" skips `Fraction`'s regex (q = 0 raises
    the same error either way); every other string is left to
    `Fraction(raw)`.
    """
    if isinstance(raw, str):
        if raw.isascii():
            num, slash, den = raw.partition("/")
            if num.isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den) if slash else 1)
        return Fraction(raw)
    if isinstance(raw, bool):
        raise ValueError("boolean is not a weight")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"weight must be finite, got {raw}")
        return raw
    raise ValueError(f"cannot parse scalar from {raw!r}")


def format_scalar(x: Scalar):
    """Serialize a weight: exact values as 'p/q' strings, floats as numbers."""
    if is_exact(x):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)
    return float(x)
