"""Metamorphic tests: transformations of the input with a known effect on
the composite.

* Multiplying both families by c > 0 changes no verdict.  The composite's
  family scales like the product of the two families, so on exact input μ
  must come out multiplied by exactly c², while Δ₁₂ (a ratio) must not
  move at all.  On float input (families and adjoining cocycles as JSON
  floats) every check of `compose` and of the certificate must still
  pass: their tolerances are relative to the scale of what they compare.
* Multiplying the family of X alone by c multiplies μ by exactly c and
  leaves Δ₁₂ and every verdict as they were.  On float input c is a power
  of two, so that every product and quotient scales without rounding.
* Renaming and reordering the points of X and Y, through the JSON form
  that `gcorr compose` reads, leaves the multisets of μ and of Δ₁₂ as
  they were: neither depends on the numbering or on which member of an
  orbit represents it.  On float input Δ₁₂ is read at the representative
  as b(z)·Δ₁(a, x)/b(a·z), whose rounding depends on that member, so
  there its multiset agrees to 1e-15 relative.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from gcorr import catalog
from gcorr.composition import compose
from gcorr.cstar import verify_theorem
from gcorr.io_json import parse_instance, serialize_instance
from gcorr.randgen import random_pair
from tests.conftest import MIX_CAPS, full_sweep_certificate, line_verdicts, scaled_family

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
    # the pass on the generators (exact data) gives the full sweeps' verdicts
    assert line_verdicts(gram) == line_verdicts(full_sweep_certificate(sx, sy, res, trials=5, seed=0))
    if exact:
        assert res.mu.weight == tuple(c * c * w for w in base.mu.weight)
        assert res.delta12.value == base.delta12.value


MIX_NAMES = list(catalog.EXAMPLE_NAMES) + [f"mix-{i}" for i in range(40)]
ONE_SIDED = {"2^30": Fraction(2**30), "2^-30": Fraction(1, 2**30)}


@lru_cache(maxsize=None)
def _base(name: str, exact: bool):
    corr_x, corr_y, _ = _unscaled(name)
    if not exact:
        corr_x, corr_y = scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False)
    return corr_x, corr_y, compose(corr_x, corr_y)


def _verdicts(res):
    return [(c.name, c.passed) for c in res.report.checks]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("scale", list(ONE_SIDED))
@pytest.mark.parametrize("name", MIX_NAMES)
def test_scaling_the_first_family_alone(name, scale, exact):
    c = ONE_SIDED[scale]
    corr_x, corr_y, base = _base(name, exact)
    res = compose(scaled_family(corr_x, c), corr_y)  # raises on any failing check
    factor = c if exact else float(c)
    assert res.mu.weight == tuple(factor * w for w in base.mu.weight)
    assert res.delta12.value == base.delta12.value
    assert _verdicts(res) == _verdicts(base)


def _relabelled(corr, tag: str, rng: random.Random):
    """`corr` read back from its JSON form with its points renamed in a
    random order and every table of the space shuffled."""
    doc = json.loads(serialize_instance([(tag, corr)]))
    cdoc = doc["correspondences"][0]
    space = cdoc["space"]
    order = list(range(len(space["points"])))
    rng.shuffle(order)
    new = {p: f"{tag}{k:03d}" for p, k in zip(space["points"], order)}
    space["points"] = [new[p] for p in space["points"]]
    space["left_action"] = [[a, new[p], new[q]] for a, p, q in space["left_action"]]
    space["right_action"] = [[new[p], a, new[q]] for p, a, q in space["right_action"]]
    for key in ("left_momentum", "right_momentum"):
        space[key] = {new[p]: u for p, u in space[key].items()}
    cdoc["family"] = {new[p]: w for p, w in cdoc["family"].items()}
    cdoc["adjoining"] = [[a, new[p], v] for a, p, v in cdoc["adjoining"]]
    for table in (space["points"], space["left_action"], space["right_action"], cdoc["adjoining"]):
        rng.shuffle(table)
    return parse_instance(json.dumps(doc)).correspondences[0][1]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", MIX_NAMES)
def test_relabelling_the_points_keeps_the_multisets(name, exact):
    corr_x, corr_y, base = _base(name, exact)
    rng = random.Random(name)
    res = compose(_relabelled(corr_x, "p", rng), _relabelled(corr_y, "q", rng))
    assert sorted(res.mu.weight) == sorted(base.mu.weight)
    if exact:
        assert sorted(res.delta12.value) == sorted(base.delta12.value)
    else:  # b(z)·Δ₁(a, x)/b(a·z) rounds differently at another representative
        assert sorted(res.delta12.value) == pytest.approx(sorted(base.delta12.value), rel=1e-15, abs=0)
    assert _verdicts(res) == _verdicts(base)
