from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

import gcorr as gc
from gcorr.groupoids import make_action, make_bispace
from gcorr.measures import MeasureFamily, counting_haar


@pytest.fixture
def pair2():
    return gc.pair_groupoid(["1", "2"])


@pytest.fixture
def z2():
    return gc.cyclic_group(2)


@pytest.fixture
def z3():
    return gc.cyclic_group(3)


class CountingMapping(Mapping):
    """A read-only mapping that counts the reads of the one it wraps."""

    def __init__(self, inner):
        self.inner, self.reads = inner, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.inner[key]

    def __iter__(self):
        self.reads += 1
        return iter(self.inner)

    def __len__(self):
        self.reads += 1
        return len(self.inner)


def translation_correspondence(lam=(1, 3)):
    """Z/2 translating on itself from the left over the one-point groupoid,
    with a (generally non-invariant-under-the-left-action) weight family."""
    z2 = gc.cyclic_group(2)
    pt = gc.cyclic_group(1, unit_id="pt*")
    pts = ("a0", "a1")
    left = make_action(
        "left", z2, pts, (0, 0),
        {(a, p): (a + p) % 2 for a in range(2) for p in range(2)},
    )
    right = make_action("right", pt, pts, (0, 0), {(p, 0): p for p in range(2)})
    space = make_bispace(left, right)
    fam = MeasureFamily(pts, pt.unit_ids, (0, 0), tuple(Fraction(v) for v in lam))
    return gc.make_correspondence(counting_haar(z2), counting_haar(pt), space, fam)


def coeff_array(d: dict, n: int) -> np.ndarray:
    """The coefficient array of length n with the values of {index: value}."""
    out = np.zeros(n, dtype=complex)
    for k, v in d.items():
        out[k] = v
    return out


def coeff_dict(c) -> dict:
    """The nonzero coefficients {index: complex} of a coefficient array, or
    of a dict, in index order: the form the per-element loops work on."""
    items = c.items() if isinstance(c, dict) else enumerate(c.tolist())
    return {k: complex(v) for k, v in sorted(items) if v != 0}


# the family caps of the benchmark's random-mix pairs (bench/workloads.py)
MIX_CAPS = {"max_x": 28, "max_y": 28, "max_mid": 16, "max_outer": 8}


def scaled_family(corr, c, exact=True):
    """corr with its family multiplied by c.  With exact=False the family
    and the adjoining cocycle are the floats a JSON file would carry."""
    weights = tuple(c * w if exact else float(c * w) for w in corr.family.weight)
    adjoining = corr.adjoining.value if exact else tuple(float(v) for v in corr.adjoining.value)
    fam = MeasureFamily(corr.family.total_ids, corr.family.base_ids, corr.family.along, weights)
    return gc.make_correspondence(corr.left_haar, corr.right_haar, corr.space, fam, adjoining)


def ladder_pair(n):
    """The ladder at n: the regular Z/n bimodule of Z/n, then Z/n acting
    on itself over the one-point groupoid with family weights 1..n."""
    zn = gc.cyclic_group(n)
    pt = gc.cyclic_group(1, unit_id="pt")
    shift = {(a, p): (a + p) % n for a in range(n) for p in range(n)}
    xs = tuple(f"x{k}" for k in range(n))
    corr_x = gc.make_correspondence(
        counting_haar(zn), counting_haar(zn),
        make_bispace(
            make_action("left", zn, xs, (0,) * n, shift),
            make_action("right", zn, xs, (0,) * n, {(p, a): (p + a) % n for a, p in shift}),
        ),
        MeasureFamily(xs, zn.unit_ids, (0,) * n, (Fraction(1),) * n),
    )
    ys = tuple(f"y{k}" for k in range(n))
    corr_y = gc.make_correspondence(
        counting_haar(zn), counting_haar(pt),
        make_bispace(
            make_action("left", zn, ys, (0,) * n, shift),
            make_action("right", pt, ys, (0,) * n, {(p, 0): p for p in range(n)}),
        ),
        MeasureFamily(ys, pt.unit_ids, (0,) * n, tuple(Fraction(k + 1) for k in range(n))),
    )
    return corr_x, corr_y


def coset_ladder_pair(n, d):
    """The ladder on the m = n/d cosets of Z/d in Z/n: Z/n translating
    them from both sides, then Z/n translating them over the one-point
    groupoid with family weights 1..m.  Every point of Z has the
    stabiliser Z/d, so each orbit has m points and λ_π weighs d arrows."""
    if n % d:
        raise ValueError("d must divide n")
    m = n // d
    zn = gc.cyclic_group(n)
    pt = gc.cyclic_group(1, unit_id="pt")
    shift = {(a, p): (a + p) % m for a in range(n) for p in range(m)}
    xs = tuple(f"x{k}" for k in range(m))
    corr_x = gc.make_correspondence(
        counting_haar(zn), counting_haar(zn),
        make_bispace(
            make_action("left", zn, xs, (0,) * m, shift),
            make_action("right", zn, xs, (0,) * m, {(p, a): (p + a) % m for a, p in shift}),
        ),
        MeasureFamily(xs, zn.unit_ids, (0,) * m, (Fraction(1),) * m),
    )
    ys = tuple(f"y{k}" for k in range(m))
    corr_y = gc.make_correspondence(
        counting_haar(zn), counting_haar(pt),
        make_bispace(
            make_action("left", zn, ys, (0,) * m, shift),
            make_action("right", pt, ys, (0,) * m, {(p, 0): p for p in range(m)}),
        ),
        MeasureFamily(ys, pt.unit_ids, (0,) * m, tuple(Fraction(k + 1) for k in range(m))),
    )
    return corr_x, corr_y
