"""Metamorphic scale test: multiplying both families by c > 0 changes no
verdict.

The composite's family scales like the product of the two families, so on
exact input μ must come out multiplied by exactly c², while Δ₁₂ (a ratio)
must not move at all.  On float input (families and adjoining cocycles as
JSON floats) every check of `compose` and of the certificate must still
pass: their tolerances are relative to the scale of what they compare.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from gcorr import catalog
from gcorr.composition import compose
from gcorr.cstar import verify_theorem
from gcorr.randgen import random_pair
from tests.conftest import MIX_CAPS, scaled_family

# the random-mix pairs that failed at some scale under absolute tolerances
MIX_SCALED = (3, 9, 19, 24, 28, 30, 33, 34)
NAMES = (
    list(catalog.EXAMPLE_NAMES)
    + [f"mix-{i}" for i in MIX_SCALED]
    + [f"random-{i}" for i in range(10)]
)
SCALES = {"1e-9": Fraction(1, 10**9), "1e9": Fraction(10**9)}


@lru_cache(maxsize=None)
def _unscaled(name: str):
    if name.startswith("mix-"):
        corr_x, corr_y = random_pair(int(name[4:]), **MIX_CAPS)
    elif name.startswith("random-"):
        corr_x, corr_y = random_pair(int(name[7:]))
    else:
        corr_x, corr_y, _ = catalog.example_pair(name)
    return corr_x, corr_y, compose(corr_x, corr_y)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("name", NAMES)
def test_scaling_both_families(name, scale, exact):
    c = SCALES[scale]
    corr_x, corr_y, base = _unscaled(name)
    sx, sy = scaled_family(corr_x, c, exact), scaled_family(corr_y, c, exact)
    res = compose(sx, sy)  # raises on any failing check
    gram = verify_theorem(sx, sy, res, trials=5, seed=0)
    assert gram.passed, gram.report().render()
    if exact:
        assert res.mu.weight == tuple(c * c * w for w in base.mu.weight)
        assert res.delta12.value == base.delta12.value
