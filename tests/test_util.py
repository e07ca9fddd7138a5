from __future__ import annotations

import dataclasses
import math
import operator
import re
from functools import reduce
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import gcorr as gc
from gcorr import cohomology, composition, correspondence, measures
from gcorr.groupoids import fibre_product, orbit_space
from gcorr.util import (
    GcorrError, adev, equal, format_scalar, generators_first, is_exact, kdot, kdot_groups, kquot, kquot_groups, ksum,
    parse_scalar, positive, rdev, same_product, to_float, worst_of,
)
from tests.conftest import ladder_pair, unit_action


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


# ---------------------------------------------------------------------------
# the exact kernels: the same value as the expression each one replaces


def old_ksum(values):
    """`ksum` before the kernels: `sum` from Fraction(0), or `math.fsum`."""
    values = list(values)
    if all(is_exact(v) for v in values):
        return sum(values, F(0))
    return math.fsum(float(v) for v in values)


def outcome(fn, *args):
    """(type, repr) of fn(*args), or the type of what it raised: repr
    tells -0.0 from 0.0 and reads every NaN alike."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return type(value), repr(value)


# 100-digit numerators over the first primes, so that no two denominators
# share a factor and the running common denominator must grow to the lcm
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
big = st.integers(min_value=-(10**100), max_value=10**100)
coprime_fracs = st.builds(F, big, st.sampled_from(PRIMES))
kernel_exact = st.one_of(big, coprime_fracs, fracs)
kernel_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]),
)
kernel_any = st.one_of(kernel_exact, kernel_floats)
nonzero = kernel_any.filter(lambda v: v != 0)


@given(st.lists(kernel_exact, max_size=12))
def test_ksum_exact_is_the_fraction_sum(xs):
    assert ksum(xs) == sum(xs, F(0)) and type(ksum(xs)) is F
    assert ksum(iter(xs)) == ksum(xs)


@given(st.lists(st.tuples(kernel_exact, kernel_exact, kernel_exact), max_size=10))
def test_kdot_and_kquot_exact_are_the_fraction_sums(rows):
    xs, ys, zs = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    assert kdot(xs, ys) == sum((x * y for x, y in zip(xs, ys)), F(0))
    assert kdot(xs, ys, zs) == sum((x * y * z for x, y, z in zip(xs, ys, zs)), F(0))
    assert type(kdot(xs, ys)) is F
    ys = [y or 1 for y in ys]
    assert kquot(xs, ys) == sum((F(x) / y for x, y in zip(xs, ys)), F(0)) and type(kquot(xs, ys)) is F


def test_exact_sums_over_coprime_denominators():
    xs = [F(1, p) for p in PRIMES[:8]]
    assert ksum(xs) == sum(xs, F(0)) == F(14117683, 9699690)
    assert kdot(xs, xs) == sum((x * x for x in xs), F(0))
    assert kquot(xs, [F(p) for p in PRIMES[:8]]) == sum((x / p for x, p in zip(xs, PRIMES)), F(0))
    assert ksum([]) == kdot([], []) == kquot([], []) == 0


@given(st.lists(kernel_any, max_size=8))
def test_ksum_float_and_mixed_match_fsum_bit_for_bit(xs):
    assert outcome(ksum, xs) == outcome(old_ksum, xs)


@given(st.lists(st.tuples(kernel_any, kernel_any, nonzero), max_size=8))
def test_kdot_and_kquot_float_and_mixed_match_fsum_bit_for_bit(rows):
    xs, ys, zs = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    assert outcome(kdot, xs, ys) == outcome(lambda: old_ksum([x * y for x, y in zip(xs, ys)]))
    assert outcome(kdot, xs, ys, zs) == outcome(lambda: old_ksum([x * y * z for x, y, z in zip(xs, ys, zs)]))
    # a quotient of two exact values is exact, int / int included
    quotients = [F(x) / z if is_exact(x) and is_exact(z) else x / z for x, z in zip(xs, zs)]
    assert outcome(kquot, xs, zs) == outcome(lambda: old_ksum(quotients))


def group_by_group(kernel, groups, columns):
    """`outcome` of `kernel` applied to each group's rows in turn: the
    outcome of each group, or the error of the first group that raises."""
    values = []
    for group in groups:
        result = outcome(kernel, *([column[i] for i in group] for column in columns))
        if not isinstance(result, tuple):
            return result
        values.append(result)
    return values


def grouped(kernel, groups, columns):
    """`outcome` of a grouped kernel, one (type, repr) per group."""
    try:
        return [(type(v), repr(v)) for v in kernel(groups, *columns)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@st.composite
def grouped_columns(draw, values, n_columns, last=None):
    """(groups, columns): `n_columns` columns of `values` of one length n
    (the last one of `last` when given), and groups of row indices, empty
    and repeated ones included."""
    n = draw(st.integers(0, 8))
    columns = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n_columns - 1)]
    columns.append(draw(st.lists(values if last is None else last, min_size=n, max_size=n)))
    group = st.lists(st.integers(0, n - 1), max_size=5) if n else st.just([])
    return draw(st.lists(group, max_size=5)), columns


COLUMN_VALUES = {"exact": kernel_exact, "float": kernel_floats, "mixed": kernel_any}


@pytest.mark.parametrize("kind", list(COLUMN_VALUES))
@pytest.mark.parametrize("n_columns", [1, 2, 3])
@settings(max_examples=50)
@given(data=st.data())
def test_kdot_groups_is_kdot_group_by_group(kind, n_columns, data):
    groups, columns = data.draw(grouped_columns(COLUMN_VALUES[kind], n_columns))
    got = grouped(kdot_groups, groups, columns)
    assert got == group_by_group(kdot, groups, columns)
    # and each group is the sum it replaces, formed without the kernels
    assert got == group_by_group(lambda *cols: old_ksum([reduce(operator.mul, row) for row in zip(*cols)]), groups, columns)


@pytest.mark.parametrize("kind", list(COLUMN_VALUES))
@settings(max_examples=50)
@given(data=st.data())
def test_kquot_groups_is_kquot_group_by_group(kind, data):
    groups, (xs, ys) = data.draw(grouped_columns(COLUMN_VALUES[kind], 2, last=COLUMN_VALUES[kind].filter(lambda v: v != 0)))
    got = grouped(kquot_groups, groups, (xs, ys))
    assert got == group_by_group(kquot, groups, (xs, ys))
    # a quotient of two exact values is exact, int / int included
    quotients = lambda xs, ys: old_ksum([F(x) / y if is_exact(x) and is_exact(y) else x / y for x, y in zip(xs, ys)])
    assert got == group_by_group(quotients, groups, (xs, ys))


def test_a_float_entry_makes_only_its_own_group_float():
    # one float in the weights, as in a family with one weight written as a JSON float
    groups = ((0, 1), (2,), (3, 4))
    weights = [F(1, 2), F(1, 3), 0.25, F(2), F(3, 7)]
    cutoff = [F(1, 2)] * 5
    assert kdot_groups(groups, cutoff, weights) == (F(5, 12), 0.125, F(17, 14))
    assert [type(v) for v in kdot_groups(groups, cutoff, weights)] == [F, float, F]
    assert [type(v) for v in kquot_groups(groups, weights, cutoff)] == [F, float, F]
    assert [type(v) for v in kdot_groups(groups, weights)] == [F, float, F]


SPECIAL = [0, 1, -1, F(0), F(1, 3), F(-1, 3), 0.0, -0.0, 0.5, -0.5, math.inf, -math.inf, math.nan]


@given(kernel_any)
def test_positive_is_greater_than_zero(x):
    assert positive(x) is (x > 0)


@pytest.mark.parametrize("x", SPECIAL)
def test_positive_at_special_values(x):
    assert positive(x) is (x > 0)


@given(kernel_any, kernel_any)
def test_equal_is_equality(a, b):
    assert equal(a, b) is (a == b)
    assert equal(a, a) is (a == a)  # NaN is unequal to itself


@pytest.mark.parametrize("a", SPECIAL)
@pytest.mark.parametrize("b", SPECIAL + [F(2, 6), 1.0])
def test_equal_at_special_values(a, b):
    assert equal(a, b) is (a == b)


@given(kernel_exact, kernel_exact, kernel_exact, kernel_exact)
def test_same_product_is_product_equality_on_exact_values(a, b, c, d):
    assert same_product((a, b), (c, d)) is (a * b == c * d)
    # a pair that is equal by construction: a·b = (a·b/d)·d
    if d:
        assert same_product((a, b), (F(a * b) / d, d))
    assert same_product((a, b, c), (c, b, a)) and same_product((), ())


@given(st.lists(kernel_any, min_size=1, max_size=3), st.lists(kernel_any, min_size=1, max_size=3))
def test_same_product_agrees_on_exact_and_is_false_on_floats(xs, ys):
    if all(map(is_exact, xs + ys)):
        assert same_product(xs, ys) is (reduce(operator.mul, xs) == reduce(operator.mul, ys))
    else:
        assert same_product(xs, ys) is False


@pytest.mark.parametrize("x, text", [(F(3, 4), "3/4"), (F(-5), "-5"), (7, "7"), (10**30, str(10**30)), (0.25, 0.25)])
def test_format_scalar(x, text):
    assert format_scalar(x) == text


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


class TestWorstOf:
    def test_ties_keep_the_first_key(self):
        assert worst_of([(0.5, "a"), (1.0, "b"), (0.25, "c"), (1.0, "d")]) == (1.0, "b")

    def test_infinity_beats_every_finite_deviation(self):
        assert worst_of([(1e308, "a"), (math.inf, "b"), (math.inf, "c"), (1e300, "d")]) == (math.inf, "b")

    def test_empty_and_zero_deviations_give_no_witness(self):
        assert worst_of([]) == (0.0, None)
        assert worst_of(iter([(0.0, "a")])) == (0.0, None)


class TestGeneratorsFirst:
    def test_full_is_never_started_when_probe_is_empty(self):
        started = []

        def full():
            started.append(True)
            yield 1.0, "x"

        assert list(generators_first(iter(()), full())) == [] and not started

    def test_full_is_returned_when_probe_yields(self):
        full = iter([(1.0, "x"), (2.0, "y")])
        assert generators_first(iter([(1.0, "p")]), full) is full
        assert worst_of(generators_first(iter([(1.0, "p")]), iter([(1.0, "x"), (2.0, "y")]))) == (2.0, "y")


def _haar_family(g, weight):
    return measures.MeasureFamily(g.arrow_ids, g.unit_ids, g.dst, tuple(weight))


def _bumped(values, at):
    return tuple(v * 2 if k in at else v for k, v in enumerate(values))


# Each site gives (first, second, run): run(at) is the checker's (worst,
# witness) on data doubled at the entries in `at`, and the entries `first`
# and `second` give equal deviations, `first` met first in sweep order.
def _check_haar():
    g = gc.cyclic_group(3)
    return 1, 2, lambda at: gc.check_haar(g, _haar_family(g, _bumped((F(1),) * 3, at)))


def _is_symmetric():
    pg = gc.pair_groupoid("1234")
    haar = gc.counting_haar(pg)
    return 0, 3, lambda at: gc.is_symmetric(gc.unit_measure(pg, _bumped((F(1),) * 4, at)), haar)


def _disintegration():
    orbits = orbit_space(unit_action(gc.pair_groupoid("1234")))
    return 1, 3, lambda at: measures.disintegration_residual((F(1),), (F(1),) * 4, orbits, _bumped((F(1),) * 4, at))


def _right_invariance():
    corr_x, _ = ladder_pair(4)  # a right action: swept point by point
    return 1, 2, lambda at: measures.invariance_residual(corr_x.space.right, _bumped(corr_x.family.weight, at))


def _cocycle():
    # the identity rows come before every pair row: c = 2 at the unit arrow
    # (2,2) reads 1/2 there, as c = 2 at (1,2) does at ((1,2), (2,1))
    g = gc.pair_groupoid("12")
    return 3, 1, lambda at: gc.check_cocycle(gc.Cocycle1(g, _bumped((F(1),) * 4, at)))


def _fibre_mass():
    pg = gc.pair_groupoid("123")

    def run(at):
        haar = measures.HaarSystem(pg, _haar_family(pg, _bumped((F(1),) * 9, at)))
        with pytest.raises(GcorrError) as exc:
            gc.invariant_probability_family(pg, haar)
        return str(exc.value)

    return 0, 8, run


def _split():
    pg = gc.pair_groupoid("1234")
    c = gc.Cocycle1(pg, (F(1),) * 16)
    return 0, 3, lambda at: cohomology.coboundary_residual(c, gc.Cochain0(pg, _bumped((F(1),) * 4, at)))


def _quasi_invariance():
    corr, _ = ladder_pair(3)
    keys = list(corr.space.left.pairs())

    def run(at):
        tampered = {keys[k] for k in at}
        return correspondence.quasi_invariance_residual(
            corr.left_haar, corr.space, corr.family,
            lambda a, p: corr.adjoining_at(a, p) * (2 if (a, p) in tampered else 1),
        )

    return 4, 7, run


def _lambda_pi():
    res = gc.compose(*ladder_pair(3))
    red, lam = res.reduction, res.lambda_pi
    r_orbits = orbit_space(red.action)

    def run(at):
        weight = _bumped(lam.weight, {red.z_of[r] for r in at})
        return composition.lambda_pi_rep_independence(
            red, r_orbits, measures.MeasureFamily(lam.total_ids, lam.base_ids, lam.along, weight)
        )

    return 0, 2, run


def _delta_z_invariance():
    corr, _ = ladder_pair(3)  # the regular bimodule: G₃ = Z/3 acts on Y
    fp = fibre_product(corr.space.right, corr.space.left)

    def run(at):
        adj = gc.Cocycle1(corr.left_tg, _bumped(corr.adjoining.value, at))
        return composition.delta_z_invariance_residuals(dataclasses.replace(corr, adjoining=adj), fp)

    return 1, 5, run


def _override_split():
    corr_x, corr_y = ladder_pair(3)
    res = gc.compose(corr_x, corr_y)
    members = [z for z in range(len(res.fp.pairs)) if z not in res.orbits.reps]

    def run(at):
        b = gc.Cochain0(res.b.groupoid, _bumped(res.b.value, {members[k] for k in at}))
        return composition.override_split_residual(corr_y, res.fp, res.orbits, b)

    return 0, 3, run


def _delta1_well_defined():
    corr_x, _ = ladder_pair(3)
    x_orbits = composition.transversal(corr_x.space.right).orbits
    keys = [k for (a, x), k in corr_x.left_tg_index.items() if x not in x_orbits.reps]

    def run(at):
        adj = gc.Cocycle1(corr_x.left_tg, _bumped(corr_x.adjoining.value, {keys[k] for k in at}))
        return composition.delta1_invariance_residual(dataclasses.replace(corr_x, adjoining=adj), x_orbits)

    return 0, 3, run


def _override_ratio():
    # float override b·(1 + 1e-12) at two points of Z with the same y leg
    # (the same b, in different orbits): equal ratios, within tol of a split
    corr_x, corr_y = ladder_pair(3)
    res = gc.compose(corr_x, corr_y)
    members = [z for z, (x, y) in enumerate(res.fp.pairs) if y == 0 and z not in res.orbits.reps]

    def run(at):
        b = [float(v) for v in res.b.value]
        for k in at:
            b[members[k]] *= 1 + 1e-12
        line = {c.name: c for c in gc.compose(corr_x, corr_y, b_values=b).report.checks}["override_b_ratio_orbit_constant"]
        return line.residual, line.witness

    return 0, 1, run


@pytest.mark.parametrize("site", [
    _check_haar, _is_symmetric, _disintegration, _right_invariance, _cocycle, _fibre_mass, _split,
    _quasi_invariance, _lambda_pi, _delta_z_invariance, _override_split, _delta1_well_defined, _override_ratio,
], ids=lambda site: site.__name__.strip("_"))
def test_first_witness_in_sweep_order(site):
    """Two tampered entries with equal deviation: every (worst, witness)
    checker names the one its sweep meets first."""
    first, second, run = site()
    only_first, only_second = run({first}), run({second})
    assert only_first != only_second
    if isinstance(only_first, tuple):
        assert only_first[0] == only_second[0] > 0
    assert run({first, second}) == only_first


def test_cocycle_identity_rows_come_before_every_pair_row():
    _, _, run = _cocycle()
    assert run({1, 3}) == (0.5, ("(2,2)",))
