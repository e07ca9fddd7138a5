from __future__ import annotations

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gcorr.util import GcorrError, adev, is_exact, parse_scalar, rdev, to_float


def old_adev(a, b) -> float:
    """The Fraction formula the deviation helpers must keep reproducing."""
    if is_exact(a) and is_exact(b):
        return float(abs(F(a) - F(b)))
    return abs(float(a) - float(b))


def old_rdev(a, b) -> float:
    if is_exact(a) and is_exact(b):
        return 0.0 if F(a) == F(b) else float(
            abs(F(a) - F(b)) / max(1, abs(F(a)), abs(F(b)))
        )
    fa, fb = float(a), float(b)
    return abs(fa - fb) / max(1.0, abs(fa), abs(fb))


ints = st.integers(min_value=-(10**30), max_value=10**30)
fracs = st.fractions(max_denominator=10**12).filter(lambda q: abs(q) < 10**30)
exact = st.one_of(ints, fracs)
floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


@pytest.mark.parametrize(
    "a, b",
    [(3, 3), (F(1, 3), F(2, 6)), (F(4), 4), (0.25, 0.25), (F(1, 4), 0.25), (2, 2.0), (-0.0, 0.0)],
)
def test_equal_inputs_give_exact_zero(a, b):
    assert adev(a, b) == 0.0 and type(adev(a, b)) is float
    assert rdev(a, b) == 0.0 and type(rdev(a, b)) is float


@pytest.mark.parametrize(
    "a, b",
    [(3, 5), (10**20, 10**20 + 1), (7, F(1, 3)), (F(-5, 7), 2), (F(1, 3), F(1, 7)), (F(10**9, 3), F(-1, 10**9))],
)
def test_exact_unequal_match_fraction_formula(a, b):
    assert adev(a, b) == old_adev(a, b) > 0
    assert rdev(a, b) == old_rdev(a, b) > 0


@given(exact, exact)
def test_exact_inputs_bit_for_bit(a, b):
    assert adev(a, b) == old_adev(a, b)
    assert rdev(a, b) == old_rdev(a, b)


@given(st.one_of(exact, floats), floats)
def test_mixed_and_float_inputs(a, b):
    assert adev(a, b) == old_adev(a, b)
    assert adev(b, a) == old_adev(b, a)
    assert rdev(a, b) == old_rdev(a, b)
    assert rdev(b, a) == old_rdev(b, a)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("other", [1, F(1, 3), 2.5, math.inf, -math.inf, math.nan])
def test_nonfinite_inputs_give_inf(bad, other):
    for a, b in ((bad, other), (other, bad)):
        assert adev(a, b) == math.inf
        assert rdev(a, b) == math.inf
    # a NaN residual can no longer hide behind a `d > worst` sweep
    assert max(0.0, rdev(bad, other)) > 1e-9


def test_is_exact():
    assert is_exact(3) and is_exact(F(1, 3))
    assert not is_exact(True) and not is_exact(0.5)


@pytest.mark.parametrize("raw", [math.inf, -math.inf, math.nan])
def test_parse_scalar_rejects_nonfinite(raw):
    with pytest.raises(ValueError, match="finite"):
        parse_scalar(raw)


def test_crdev_is_scale_relative_and_nan_safe():
    from gcorr.util import crdev

    assert crdev(0.5, 0.25) == 0.25  # within the unit ball: absolute
    assert crdev(1e9 + 1, 1e9) == pytest.approx(1e-9)
    assert crdev(2 + 1j, 2 + 1j) == 0.0
    for bad in (math.nan, complex(math.nan, 0), complex(0, math.nan), math.inf):
        assert crdev(bad, 0j) == math.inf
        assert crdev(0.0, bad) == math.inf


@pytest.mark.parametrize(
    "dev, a, b, expected",
    [
        (rdev, F(10**400 + 1, 10**400), 1, math.ulp(0.0)),
        (adev, F(1, 10**400), 0, math.ulp(0.0)),
        (adev, 10**400, 1, math.inf),
        (adev, F(10**400), 1.0, math.inf),
        (rdev, F(10**400), 1.0, math.inf),
    ],
    ids=["rdev-underflow", "adev-underflow", "adev-overflow", "adev-mixed-overflow", "rdev-mixed-overflow"],
)
def test_deviation_beyond_the_float_range_is_never_zero(dev, a, b, expected):
    """An unequal pair reads a positive deviation even where its float
    underflows (the smallest subnormal) or overflows (∞)."""
    assert dev(a, b) == dev(b, a) == expected


class TestToFloat:
    def test_positive_finite_values_convert(self):
        assert to_float(F(3, 4)) == 0.75 and to_float(2) == 2.0 and to_float(1e-310) == 1e-310

    @pytest.mark.parametrize("value, named", [
        (F(10) ** 400, "≈ 10^400.0"),
        (F(1, 10**400), "≈ 10^-400.0"),
        (F(0), "0"),
        (-1.5, "-1.5"),
    ], ids=["overflow", "underflow", "zero", "negative"])
    def test_values_without_a_positive_finite_float_are_named(self, value, named):
        with pytest.raises(GcorrError, match=f"^weight {re.escape(named)} is not a positive finite float$"):
            to_float(value)
