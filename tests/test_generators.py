"""`FiniteGroupoid.generators` and the axiom sweeps that run on it first.

Each of the six sweeps (associativity, both action compatibilities, the
bispace commutation, Haar invariance, the cocycle identity and
`invariance_residual`) first runs its outer loop over a generating set S
and runs the full sweep only when that pass finds something.  The tests
here check that S generates, that it is small, and that on single-entry
tampers the pass on S finds something exactly when the full sweep does,
so that every verdict, residual, witness and violation list is the full
sweep's own.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import pytest

import gcorr as gc
from gcorr import catalog
from gcorr.cohomology import Cochain0, Cocycle1, _ratios, _sweep_cocycle, _unequal_pairs, d0
from gcorr.groupoids import (
    ActionComposition,
    Bispace,
    FiniteGroupoid,
    _incompatible,
    _non_associative,
    _non_commuting,
    action_violations,
    bispace_violations,
    disjoint_union,
    groupoid_violations,
    pair_groupoid,
    symmetric_group,
    transformation_groupoid,
    trivial_action,
    units_only_groupoid,
)
from gcorr.measures import MeasureFamily, _haar_deviations, _moved_values, check_haar, invariance_residual
from gcorr.randgen import random_pair
from tests.conftest import CountingMapping, ladder_pair, scaled_family

PAIR_NAMES = list(catalog.EXAMPLE_NAMES) + [f"random-{i}" for i in range(40)] + [f"ladder-{n}" for n in (2, 5, 8)]


@lru_cache(maxsize=None)
def _pair(name: str):
    if name.startswith("random-"):
        return random_pair(int(name[7:]))
    if name.startswith("ladder-"):
        return ladder_pair(int(name[7:]))
    corr_x, corr_y, _ = catalog.example_pair(name)
    return corr_x, corr_y


def _groupoids_of(name: str) -> list[FiniteGroupoid]:
    """The distinct groupoids of a pair, with the left transformation
    groupoid of each leg."""
    out: list[FiniteGroupoid] = []
    for corr in _pair(name):
        for g in (corr.left, corr.right, corr.left_tg):
            if all(g is not h for h in out):
                out.append(g)
    return out


def closure(g: FiniteGroupoid, gens) -> set[int]:
    """The right products e∘s₁∘…∘s_k of the identities with `gens`."""
    reached = set(g.unit_arrow)
    todo = list(reached)
    while todo:
        a = todo.pop()
        for s in gens:
            if g.src[a] == g.dst[s]:
                c = g.comp[(a, s)]
                if c not in reached:
                    reached.add(c)
                    todo.append(c)
    return reached


def components_and_isotropy(g: FiniteGroupoid) -> tuple[int, list[int]]:
    """The number of components and the order of the isotropy group at a
    unit of each."""
    seen: set[int] = set()
    orders = []
    for u in range(g.n_units):
        if u in seen:
            continue
        orbit = {g.src[a] for a in g.fibre_dst[u]}
        seen |= orbit
        orders.append(sum(1 for a in g.fibre_dst[u] if g.src[a] == u))
    return len(orders), orders


STOCK = {
    "symmetric-3": lambda: symmetric_group(3),
    "symmetric-4": lambda: symmetric_group(4),
    "pair-4": lambda: pair_groupoid(["a", "b", "c", "d"]),
    "units-only-3": lambda: units_only_groupoid(["a", "b", "c"]),
    "union": lambda: disjoint_union(
        symmetric_group(3), pair_groupoid(["a", "b"]), units_only_groupoid(["c"]), gc.cyclic_group(6)
    ),
}


def _all_groupoids():
    for name, make in STOCK.items():
        yield name, make()
    for name in PAIR_NAMES:
        for k, g in enumerate(_groupoids_of(name)):
            yield f"{name}/{k}", g


@pytest.mark.parametrize("name, g", list(_all_groupoids()), ids=lambda v: v if isinstance(v, str) else "")
def test_generators_generate_every_arrow(name, g):
    assert closure(g, g.generators) == set(range(g.n_arrows))
    assert len(set(g.generators)) == len(g.generators)
    assert all(g.src[s] != g.dst[s] or s != g.unit_arrow[g.src[s]] for s in g.generators)


@pytest.mark.parametrize(
    "name, g",
    [(n, g) for n, g in _all_groupoids() if not isinstance(g.comp, ActionComposition)],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_generating_set_is_small(name, g):
    """|S| ≤ 2·(units − components) + Σ ⌈log₂|isotropy|⌉."""
    n_components, orders = components_and_isotropy(g)
    bound = 2 * (g.n_units - n_components) + sum(math.ceil(math.log2(k)) for k in orders)
    assert len(g.generators) <= bound


def test_units_only_groupoid_has_no_generators():
    assert units_only_groupoid(["a", "b"]).generators == ()


def test_cyclic_group_has_one_generator():
    assert len(gc.cyclic_group(10).generators) == 1


def test_action_groupoid_lifts_the_acting_generators():
    corr_x, _ = ladder_pair(5)
    tg = corr_x.left_tg
    assert tg.generators == tuple(corr_x.left_tg_index[(s, p)] for s in corr_x.left.generators for p in range(5))
    right_tg, index = transformation_groupoid(corr_x.space.right)
    assert right_tg.generators == tuple(index[(p, s)] for s in corr_x.right.generators for p in range(5))


def _z2_times_pair() -> FiniteGroupoid:
    """Z/2 × the pair groupoid on {0, 1}: arrow (i, j, k) runs j -> i."""
    arrows = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    index = {a: n for n, a in enumerate(arrows)}
    return FiniteGroupoid(
        unit_ids=("0", "1"),
        arrow_ids=tuple(f"{i}<-{j}:{k}" for i, j, k in arrows),
        src=tuple(j for _, j, _ in arrows),
        dst=tuple(i for i, _, _ in arrows),
        comp={
            (index[(i, j, k)], index[(j, l, m)]): index[(i, l, (k + m) % 2)]
            for i, j, k in arrows for l in range(2) for m in range(2)
        },
        inv=tuple(index[(j, i, k)] for i, j, k in arrows),
        unit_arrow=(index[(0, 0, 0)], index[(1, 1, 0)]),
    )


def test_top_up_covers_a_table_that_is_not_associative():
    """With (1←0, 1)∘(0←1, 0) sent to the identity at 1, no right product
    of the tree and the isotropy generator at 0 reaches the loop
    (1←1, 1); the closure pass adds it to S, and the sweep on S finds the
    broken associativity."""
    g = _z2_times_pair()
    assert groupoid_violations(g) == []
    ids = {a: n for n, a in enumerate(g.arrow_ids)}
    comp = dict(g.comp)
    comp[(ids["1<-0:1"], ids["0<-1:0"])] = ids["1<-1:0"]
    bad = dataclasses.replace(g, comp=comp)
    assert ids["1<-1:1"] in bad.generators
    assert closure(bad, bad.generators) == set(range(bad.n_arrows))
    violations = groupoid_violations(bad)
    assert violations and {v.kind for v in violations} == {"NonAssociative"}
    assert any(_non_associative(bad, bad.generators))


# ---------------------------------------------------------------------------
# parity: the pass on S finds something exactly when the full sweep does


@pytest.fixture
def full_sweeps(monkeypatch):
    """Every sweep runs its full form: S is every arrow."""

    def as_full(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(FiniteGroupoid, "generators", property(lambda g: tuple(range(g.n_arrows))))
            return fn(*args)

    return as_full


def _other(candidates, old):
    """The first candidate other than `old`, or None."""
    return next((c for c in candidates if c != old), None)


def _spread(keys, k=3):
    """Up to k keys spread over the sequence."""
    keys = list(keys)
    return sorted({keys[i * (len(keys) - 1) // max(k - 1, 1)] for i in range(k)}) if keys else []


def _tampered_groupoids(g: FiniteGroupoid):
    """Copies of g with one composite replaced by another arrow with the
    same endpoints, so the linear checks can pass."""
    for key in _spread(sorted(g.comp)):
        c = g.comp[key]
        other = _other((a for a in g.fibre_dst[g.dst[c]] if g.src[a] == g.src[c]), c)
        if other is not None:
            yield dataclasses.replace(g, comp={**g.comp, key: other})


def _tampered_actions(act):
    """Copies of the action with one image replaced by another point of
    the same momentum."""
    for key in _spread(sorted(act.table)):
        q = act.table[key]
        other = _other(act.points_at[act.momentum[q]], q)
        if other is not None:
            yield dataclasses.replace(act, table={**act.table, key: other})


def _conjugated_right(space: Bispace):
    """The bispace with its right action conjugated by a transposition of
    two points with equal momenta on both sides: a valid right action
    that need not commute with the left one."""
    left, right = space.left, space.right
    by_momenta: dict = {}
    for p in range(space.n_points):
        by_momenta.setdefault((left.momentum[p], right.momentum[p]), []).append(p)
    pair = next((ps[:2] for ps in by_momenta.values() if len(ps) > 1), None)
    if pair is None:
        return None
    swap = list(range(space.n_points))
    swap[pair[0]], swap[pair[1]] = pair[1], pair[0]
    table = {(swap[p], a): swap[q] for (p, a), q in right.table.items()}
    return Bispace(left, dataclasses.replace(right, table=table))


def _tampered_values(values, exact: bool):
    """Copies with one value doubled, and on float data one value ∞."""
    for k in _spread(range(len(values))):
        yield values[:k] + (values[k] * 2,) + values[k + 1:]
        if not exact:
            yield values[:k] + (math.inf,) + values[k + 1:]


def _legs(name: str, exact: bool):
    corr_x, corr_y = _pair(name)
    if not exact:
        corr_x, corr_y = scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False)
    return corr_x, corr_y


def _s_finds(helper, g, *args) -> tuple[bool, bool]:
    """Whether the pass finds something on S, and on every arrow."""
    return any(helper(*args, g.generators)), any(helper(*args, range(g.n_arrows)))


def _only_compatibility_fails(violations) -> bool:
    """Whether every earlier, linear check passed: all violations found,
    if any, are of the swept identity."""
    return all(v.kind == "NonAssociative" for v in violations)


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_structure_tampers_agree_with_the_full_sweep(name, full_sweeps):
    """A composite, an action image on either side and a right action
    that need not commute, one at a time: the violations are the full
    sweep's, and once the linear checks pass, the pass on S finds a
    failure exactly when the pass over every arrow does."""
    found = {"assoc": 0, "action": 0}
    for g in _groupoids_of(name):
        if isinstance(g.comp, ActionComposition):
            continue
        for bad in _tampered_groupoids(g):
            violations = groupoid_violations(bad)
            assert violations == full_sweeps(groupoid_violations, bad)
            if _only_compatibility_fails(violations):
                on_s, on_all = _s_finds(_non_associative, bad, bad)
                assert on_s == on_all == bool(violations)
                found["assoc"] += on_all
    for corr in _pair(name):
        for act in (corr.space.left, corr.space.right):
            for bad in _tampered_actions(act):
                violations = action_violations(bad)
                assert violations == full_sweeps(action_violations, bad)
                if _only_compatibility_fails(violations):
                    on_s, on_all = _s_finds(_incompatible, act.groupoid, bad)
                    assert on_s == on_all == bool(violations)
                    found["action"] += on_all
        swapped = _conjugated_right(corr.space)
        if swapped is not None and not action_violations(swapped.right):
            assert bispace_violations(swapped) == full_sweeps(bispace_violations, swapped)
            g, h = swapped.left.groupoid, swapped.right.groupoid
            s_h_at = [[c for c in h.generators if h.dst[c] == u] for u in range(h.n_units)]
            on_s = any(_non_commuting(swapped, g.generators, s_h_at))
            assert on_s == any(_non_commuting(swapped, range(g.n_arrows), h.fibre_dst))
    if name in ("ladder-5", "ladder-8"):  # premise: the tampers reach the swept identities
        assert found["assoc"] and found["action"]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", PAIR_NAMES)
def test_value_tampers_agree_with_the_full_sweep(name, exact, full_sweeps):
    """A Haar weight, a family weight and an adjoining value, one at a
    time: the pass on S (with the identities) finds a deviation exactly
    when the full sweep does, and the result is the full sweep's."""
    for corr in _legs(name, exact):
        for haar in (corr.left_haar, corr.right_haar):
            g, fam = haar.groupoid, haar.family
            weights = fam.weight if exact else tuple(float(w) for w in fam.weight)
            for w in _tampered_values(weights, exact):
                bad = dataclasses.replace(fam, weight=w)
                assert check_haar(g, bad) == full_sweeps(check_haar, g, bad)
                rows = g.unit_arrow + g.generators
                assert any(_haar_deviations(g, w, rows)) == any(_haar_deviations(g, w, range(g.n_arrows)))
        for act in (corr.space.right, corr.space.left):
            g = act.groupoid
            for values in _tampered_values(corr.family.weight, exact):
                assert invariance_residual(act, values) == full_sweeps(invariance_residual, act, values)
                rows = g.unit_arrow + g.generators
                assert any(_moved_values(act, values, rows)) == any(_moved_values(act, values, range(g.n_arrows)))
        tg = corr.left_tg
        # a coboundary that is nontrivial where the adjoining cocycle is 1
        cochain = Cochain0(tg, tuple(Fraction(k % 5 + 1) for k in range(tg.n_units)))
        ratios = d0(cochain).value if exact else tuple(float(v) for v in d0(cochain).value)
        for clean in (corr.adjoining.value, ratios):
            for values in _tampered_values(clean, exact):
                bad = Cocycle1(tg, values)
                assert _sweep_cocycle(bad) == full_sweeps(_sweep_cocycle, bad)
                num, den = _ratios(values)
                rows = tg.unit_arrow + tg.generators
                on_s = any(_unequal_pairs(bad, num, den, rows))
                assert on_s == any(_unequal_pairs(bad, num, den, range(tg.n_arrows)))


def test_infinite_values_still_read_infinite():
    corr_x, _ = _legs("ladder-5", exact=False)
    values = list(corr_x.adjoining.value)
    values[7] = math.inf
    worst, witness = _sweep_cocycle(Cocycle1(corr_x.left_tg, tuple(values)))
    assert worst == math.inf and witness is not None
    weights = list(corr_x.family.weight)
    weights[3] = math.nan
    assert invariance_residual(corr_x.space.right, weights)[0] == math.inf
    g = units_only_groupoid(["a", "b"])  # S is empty: only the identity rows see it
    assert invariance_residual(trivial_action("left", g, ["p", "q"], (0, 1)), [1.0, math.nan])[0] == math.inf
    assert check_haar(g, MeasureFamily(g.arrow_ids, g.unit_ids, g.dst, (1.0, math.inf)))[0] == math.inf


# ---------------------------------------------------------------------------
# lookup counts: the parse-time sweeps grow like n², not n³


def _parse_time_lookups(n: int) -> int:
    """The comp and action-table reads of the sweeps that parsing and
    validating ladder n run, on copies whose tables count their reads."""
    counters: list[CountingMapping] = []

    def counted(table):
        counters.append(CountingMapping(table))
        return counters[-1]

    def counted_groupoid(g):
        return dataclasses.replace(g, comp=counted(g.comp))

    corr_x, corr_y = ladder_pair(n)
    groupoids = {id(g): counted_groupoid(g) for corr in (corr_x, corr_y) for g in (corr.left, corr.right)}
    for g in groupoids.values():
        assert groupoid_violations(g) == []
        assert check_haar(g, MeasureFamily(g.arrow_ids, g.unit_ids, g.dst, (Fraction(1),) * g.n_arrows)) == (0.0, None)
    for corr in (corr_x, corr_y):
        left, right = (
            dataclasses.replace(act, groupoid=groupoids[id(act.groupoid)], table=counted(act.table))
            for act in (corr.space.left, corr.space.right)
        )
        assert action_violations(left) == [] and action_violations(right) == []
        assert bispace_violations(Bispace(left, right)) == []
        assert invariance_residual(right, corr.family.weight) == (0.0, None)
        tg, _ = transformation_groupoid(left)
        assert _sweep_cocycle(Cocycle1(tg, corr.adjoining.value)) == (0.0, None)
    return sum(c.reads for c in counters)


def test_parse_time_lookups_grow_like_n_squared():
    """Doubling n multiplies the composable pairs by 4 and the composable
    triples by 8; the lookups grow like the pairs."""
    small, large = _parse_time_lookups(8), _parse_time_lookups(16)
    assert large <= 4.5 * small, (small, large)
