"""Scalar helpers shared across the package, and the index table of the
array operations in `cstar`.

Weights are exact `Fraction`s whenever the input data is rational, and
every construction keeps them so; IEEE doubles come only from float input
(and from the certificate in `cstar`).  Helpers here keep that split
honest: `ksum` is exact on rationals and correctly rounded (hence
order-independent) on floats, which is what lets several invariance sweeps
compare float results for exact equality.

The sum kernels `kdot_groups` and `kquot_groups` take whole columns and
the groups of row indices to sum over (the orbits' members, the range
fibres), and return one sum per group; `ksum` is their one-group case.
Each group is decided exact or float on its own entries.  On
`int`/`Fraction` entries a group adds integer numerators over a running
common denominator and returns one `Fraction`, so a fibre is normalised
once rather than once per term; on any other entries it returns the
`math.fsum` of the same float terms as `sum`-then-`fsum` would.
`same_product` tests Π xs = Π ys on exact values by cross-multiplied
integers, and `positive` and `equal` read a `Fraction`'s numerator and
denominator instead of going through its operators; each gives the value
of the plain expression it replaces.

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
from functools import reduce
from operator import methodcaller, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar, Union

import numpy as np

Scalar = Union[int, Fraction, float]
K = TypeVar("K")

ONE = Fraction(1)


class GcorrError(Exception):
    """Base class for structured errors raised by this package."""


def _exact_type(t: type) -> bool:
    return t is Fraction or t is int or (issubclass(t, (int, Fraction)) and not issubclass(t, bool))


def is_exact(x: Scalar) -> bool:
    return _exact_type(type(x))


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(map(_exact_type, set(map(type, values))))


def positive(x: Scalar) -> bool:
    """x > 0; a `Fraction` by the sign of its numerator."""
    return x.numerator > 0 if type(x) is Fraction else x > 0


def equal(a: Scalar, b: Scalar) -> bool:
    """a == b; two `Fraction`s as (numerator, denominator) pairs."""
    if type(a) is Fraction and type(b) is Fraction:
        return a.as_integer_ratio() == b.as_integer_ratio()
    return a == b


_ratio = methodcaller("as_integer_ratio")  # (numerator, denominator > 0) of an exact value


def _exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Σ n/d over integer pairs (d ≠ 0): the numerators are added over a
    running common denominator, and only the result is normalised."""
    num, den = 0, 1
    for n, d in terms:
        if d != den:
            g = math.gcd(den, d)
            if g != d:  # d does not divide den: extend den to their lcm
                num *= d // g
                den = den // g * d
            n *= den // d
        num += n
    return Fraction(num, den)


def _products(first: list, *rest: list) -> list[tuple[int, int]]:
    """Row by row, (Π numerators, Π denominators) of the (n, d) columns."""
    for column in rest:
        first = [(n * m, d * e) for (n, d), (m, e) in zip(first, column)]
    return first


def _quotients(xs: list, ys: list) -> list[tuple[int, int]]:
    """Row by row, (numerator, denominator) of x / y from the (n, d)
    columns of x and y (y ≠ 0)."""
    return [(n * e, d * m) for (n, d), (m, e) in zip(xs, ys)]


def _float_product(row: Sequence[Scalar]) -> float:
    return float(reduce(mul, row))


def _float_quotient(row: tuple[Scalar, Scalar]) -> float:
    return float(row[0] / row[1])


def _grouped(groups, columns, combine, term) -> tuple[Scalar, ...]:
    """The body of every sum kernel: for each group of row indices of the
    equal-length `columns`, the sum over its rows of one term per row.

    A group whose entries are all exact is the `_exact_sum` of the integer
    pairs that `combine` makes of its rows' (numerator, denominator)
    columns, one `Fraction`; any other group is the `math.fsum` of the
    float `term` of each row.  Each group is decided on its own entries,
    so a mixed column gives exact values at its exact groups."""
    if all(map(all_exact, columns)):
        ratios = combine(*(list(map(_ratio, column)) for column in columns))
        return tuple(_exact_sum(map(ratios.__getitem__, group)) for group in groups)
    rows = list(zip(*columns))
    exact_row = list(map(all_exact, rows))
    return tuple(
        _exact_sum(combine(*([_ratio(v)] for v in rows[i]))[0] for i in group)
        if all(map(exact_row.__getitem__, group))
        else math.fsum(term(rows[i]) for i in group)
        for group in groups
    )


def kdot_groups(groups: Iterable[Sequence[int]], *columns: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Σ_{i∈group} Π_j columns[j][i] for each group of row indices: exact
    when every entry the group reads is, and otherwise the `math.fsum` of
    the products formed left to right."""
    return _grouped(groups, columns, _products, _float_product)


def kquot_groups(groups: Iterable[Sequence[int]], xs: Sequence[Scalar], ys: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Σ_{i∈group} xs[i] / ys[i] for each group of row indices, exact
    (int / int included) when every entry the group reads is, and
    otherwise the `math.fsum` of the quotients, as for `kdot_groups`."""
    return _grouped(groups, (xs, ys), _quotients, _float_quotient)


def ksum(values: Iterable[Scalar]) -> Scalar:
    """Sum a collection of weights.

    Exact for rational inputs.  For float inputs uses `math.fsum`, whose
    result is the correctly rounded true sum and therefore independent of
    summation order.
    """
    vals = tuple(values)
    return kdot_groups((range(len(vals)),), vals)[0]


def same_product(xs: Iterable[Scalar], ys: Iterable[Scalar]) -> bool:
    """True iff every value is exact and Π xs = Π ys, tested on
    cross-multiplied integers with no `Fraction` formed.  False as soon as
    a value is not exact: the caller then compares the products itself."""
    num = den = 1
    for v in xs:
        if type(v) is not Fraction and not is_exact(v):
            return False
        n, d = v.as_integer_ratio()
        num *= n
        den *= d
    for v in ys:
        if type(v) is not Fraction and not is_exact(v):
            return False
        n, d = v.as_integer_ratio()
        num *= d
        den *= n
    return num == den


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
    if a is b or equal(a, b):
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
    if a is b or equal(a, b):
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
        n, d = x.as_integer_ratio()
        return f"{n}/{d}" if d != 1 else str(n)
    return float(x)
