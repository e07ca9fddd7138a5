"""Transport certificates of `compose` against the sweeps they replace.

`compose` certifies the structure it pulls back from its inputs (the Z
action tables, the Haar system χ on Z⋊G₂ and the obstruction cocycle δ_Z)
by O(arrows) transport identities instead of sweeping the composable
pairs of Z⋊G₂.  The former sweeps live here as oracles: wherever the
transport checks pass, the oracles must pass too, and a tampered entry of
each transported table must fail its stage or line, naming the entry.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from functools import lru_cache

import pytest

from gcorr import catalog, composition
from gcorr.cohomology import Cocycle1, check_cocycle
from gcorr.composition import CompositionStageError, compose
from gcorr.groupoids import ActionComposition, GSpaceAction, bispace_violations
from gcorr.measures import HaarSystem, check_haar
from gcorr.randgen import random_pair
from gcorr.util import all_exact, rdev
from tests.conftest import MIX_CAPS, ladder_pair, scaled_family

LADDERS = (2, 5, 8, 16)
NAMES = (
    list(catalog.EXAMPLE_NAMES)
    + [f"mix-{i}" for i in range(40)]
    + [f"ladder-{n}" for n in LADDERS]
)


@lru_cache(maxsize=None)
def _pair(name: str):
    if name.startswith("mix-"):
        return random_pair(int(name[4:]), **MIX_CAPS)
    if name.startswith("ladder-"):
        return ladder_pair(int(name[7:]))
    corr_x, corr_y, _ = catalog.example_pair(name)
    return corr_x, corr_y


def z_invariance_oracle(values, fp, z_bispace, tg_z_index):
    """The former sweep of the G₁ and G₃ invariance of a function on the
    arrows of Z⋊G₂: every outer pair times the whole middle fibre."""
    fibre = fp.diagonal.groupoid.fibre_dst
    g1_worst = g3_worst = 0.0
    for a1, z in z_bispace.left.pairs():
        z1 = z_bispace.left.table[(a1, z)]
        for a2 in fibre[fp.diagonal.momentum[z]]:
            g1_worst = max(g1_worst, rdev(values[tg_z_index[(z1, a2)]], values[tg_z_index[(z, a2)]]))
    for z, a3 in z_bispace.right.pairs():
        z3 = z_bispace.right.table[(z, a3)]
        for a2 in fibre[fp.diagonal.momentum[z]]:
            g3_worst = max(g3_worst, rdev(values[tg_z_index[(z3, a2)]], values[tg_z_index[(z, a2)]]))
    return g1_worst, g3_worst


def _line(report, name):
    (line,) = [c for c in report.checks if c.name == name]
    return line


def _assert_oracles_pass(res, tol=1e-9):
    """Every sweep that a transport check replaced passes on `res`, and no
    line reads a smaller residual than its oracle."""
    exact = all_exact(res.delta_z.value)
    assert bispace_violations(res.z_bispace) == []
    assert check_haar(res.tg_z, res.chi.family).ok
    sweep = check_cocycle(res.delta_z, rel_tol=None if exact else tol)
    assert sweep.ok
    assert sweep.max_deviation <= _line(res.report, "delta_z_cocycle").residual
    g1, g3 = z_invariance_oracle(res.delta_z.value, res.fp, res.z_bispace, res.tg_z_index)
    assert g1 == 0.0
    assert g3 == _line(res.report, "delta_z_right_invariance").residual


@pytest.mark.parametrize("name", NAMES)
def test_oracles_pass_where_transport_passes(name):
    _assert_oracles_pass(compose(*_pair(name)))


@pytest.mark.parametrize("name", [f"mix-{i}" for i in range(0, 40, 5)] + ["induction-finite"])
def test_oracles_pass_on_float_input(name):
    corr_x, corr_y = _pair(name)
    res = compose(scaled_family(corr_x, 1, exact=False), scaled_family(corr_y, 1, exact=False))
    _assert_oracles_pass(res)


class _CountingMapping(Mapping):
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


def test_compose_never_reads_the_middle_composition(monkeypatch):
    """Z⋊G₂ is only ever read through its arrows: its memory is O(arrows)."""
    original = composition.transformation_groupoid

    def counting(act: GSpaceAction):
        tg, idx = original(act)
        if act.side == "right":  # the diagonal action, i.e. Z⋊G₂
            tg = dataclasses.replace(tg, comp=_CountingMapping(tg.comp))
        return tg, idx

    monkeypatch.setattr(composition, "transformation_groupoid", counting)
    res = compose(*ladder_pair(12))
    assert isinstance(res.tg_z.comp, _CountingMapping) and res.tg_z.n_arrows == 12**3
    assert res.tg_z.comp.reads == 0
    assert isinstance(res.tg_z.comp.inner, ActionComposition)
    assert res.tg_z.comp[(0, 0)] == 0 and res.tg_z.comp.reads == 1  # the counter counts


# ---------------------------------------------------------------------------
# tampered transported tables


def _wrap(monkeypatch, name, tamper):
    original = getattr(composition, name)
    monkeypatch.setattr(composition, name, lambda *args: tamper(original(*args)))


def _moving_key(table, fixed):
    """The first key of an action table that does not fix its point."""
    return next(key for key, q in table.items() if q != fixed(key))


@pytest.mark.parametrize("name", ["induction-finite", "mix-3", "ladder-5"])
def test_tampered_z_left_table_fails_its_stage(monkeypatch, name):
    seen = {}

    def tamper(z_bispace):
        table = dict(z_bispace.left.table)
        a, z = _moving_key(table, lambda key: key[1])
        table[(a, z)] = z  # a now fixes z
        seen["witness"] = f"({z_bispace.left.groupoid.arrow_ids[a]}, {z_bispace.point_ids[z]})"
        return dataclasses.replace(z_bispace, left=dataclasses.replace(z_bispace.left, table=table))

    _wrap(monkeypatch, "build_z_bispace", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(*_pair(name))
    assert info.value.stage == "z_bispace"
    assert f"NotAProduct at {seen['witness']}" in str(info.value)


@pytest.mark.parametrize("name", ["induction-finite", "mix-3", "ladder-5"])
def test_tampered_chi_weight_fails_its_stage(monkeypatch, name):
    seen = {}

    def tamper(built):
        tg, idx, chi = built
        weights = list(chi.family.weight)
        k = tg.n_arrows // 2
        weights[k] *= 2
        seen["witness"] = (tg.arrow_ids[k],)
        family = dataclasses.replace(chi.family, weight=tuple(weights))
        return tg, idx, HaarSystem(tg, family)

    _wrap(monkeypatch, "build_middle_groupoid", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(*_pair(name))
    assert info.value.stage == "middle_groupoid"
    assert info.value.cause.witness == seen["witness"]


@pytest.mark.parametrize("name", ["induction-finite", "mix-3", "ladder-5"])
def test_tampered_delta_z_value_fails_its_line(monkeypatch, name):
    seen = {}

    def tamper(delta_z):
        values = list(delta_z.value)
        k = delta_z.groupoid.n_arrows // 2
        values[k] *= 2
        seen["witness"] = delta_z.groupoid.arrow_ids[k]
        return Cocycle1(delta_z.groupoid, tuple(values), delta_z.flavor)

    _wrap(monkeypatch, "build_delta_z", tamper)
    with pytest.raises(CompositionStageError) as info:
        compose(*_pair(name))
    line = _line(info.value.report, "delta_z_cocycle")
    assert not line.passed and line.residual > 0
    assert line.witness == seen["witness"]


def test_product_check_names_a_tampered_right_table_entry():
    corr_x, corr_y = _pair("ladder-5")
    res = compose(corr_x, corr_y)
    table = dict(res.z_bispace.right.table)
    (z, c) = key = next(iter(table))
    table[key] = (table[key] + 1) % len(res.fp.pairs)
    right = dataclasses.replace(res.z_bispace.right, table=table)
    with pytest.raises(composition.GroupoidAxiomError) as info:
        composition.check_z_product(corr_x, corr_y, res.fp, dataclasses.replace(res.z_bispace, right=right))
    assert f"NotAProduct at ({res.fp.point_ids[z]}, {corr_y.right.arrow_ids[c]})" in str(info.value)
