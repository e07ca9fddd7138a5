from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcorr as gc
from gcorr.groupoids import (
    FiniteGroupoid,
    GroupoidAxiomError,
    action_violations,
    bispace_violations,
    groupoid_violations,
    make_action,
)
from gcorr.randgen import SplitMix64, random_groupoid, random_pair
from tests.conftest import is_unit_arrow, translation_action, unit_action


def find_groupoid_isomorphism(a: FiniteGroupoid, b: FiniteGroupoid, max_arrows: int = 16):
    """Search all unit/arrow bijections; None if not isomorphic.

    Deliberately naive: meant for table comparisons in tests on instances
    with at most `max_arrows` arrows.
    """
    if a.n_units != b.n_units or a.n_arrows != b.n_arrows:
        return None
    if a.n_arrows > max_arrows:
        raise ValueError("instance too large for the brute-force helper")
    for uperm in itertools.permutations(range(b.n_units)):
        grouped: list[list[int]] = []
        ok = True
        for x in range(a.n_arrows):
            cands = [
                y
                for y in range(b.n_arrows)
                if b.src[y] == uperm[a.src[x]] and b.dst[y] == uperm[a.dst[x]]
            ]
            if not cands:
                ok = False
                break
            grouped.append(cands)
        if not ok:
            continue
        for assign in itertools.product(*grouped):
            if len(set(assign)) != a.n_arrows:
                continue
            if all(
                b.comp.get((assign[x], assign[y])) == assign[c]
                for (x, y), c in a.comp.items()
            ) and all(b.inv[assign[x]] == assign[a.inv[x]] for x in range(a.n_arrows)):
                return {"units": dict(enumerate(uperm)), "arrows": dict(enumerate(assign))}
    return None


def pair_tables(units):
    def nm(i, j):
        return f"({units[i]},{units[j]})"

    n = len(units)
    arrows = [nm(i, j) for i in range(n) for j in range(n)]
    src = {nm(i, j): units[j] for i in range(n) for j in range(n)}
    dst = {nm(i, j): units[i] for i in range(n) for j in range(n)}
    comp = [
        (nm(i, j), nm(j, k), nm(i, k))
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ]
    inv = {nm(i, j): nm(j, i) for i in range(n) for j in range(n)}
    return arrows, src, dst, comp, inv


class TestBuildGroupoid:
    def test_pair_groupoid_from_tables(self):
        units = ["1", "2"]
        arrows, src, dst, comp, inv = pair_tables(units)
        g = gc.build_groupoid(units, arrows, src, dst, comp, inv)
        assert not groupoid_violations(g)
        assert g.n_arrows == 4

    def test_cyclic_group_is_groupoid(self, z3):
        assert not groupoid_violations(z3)
        assert z3.n_units == 1

    def test_bad_inverse_named(self):
        units = ["1", "2"]
        arrows, src, dst, comp, inv = pair_tables(units)
        inv["(1,2)"] = "(1,2)"  # endpoints not swapped
        with pytest.raises(GroupoidAxiomError) as err:
            gc.build_groupoid(units, arrows, src, dst, comp, inv)
        kinds = {v.kind for v in err.value.violations}
        assert "BadInverse" in kinds
        assert any("(1,2)" in v.where for v in err.value.violations)

    def test_nonassociative_detected(self, z3):
        comp = dict(z3.comp)
        # break g1∘g1 = g2 into g1∘g1 = g0: identities stay fine, associativity dies
        comp[(1, 1)] = 0
        g = gc.FiniteGroupoid(
            z3.unit_ids, z3.arrow_ids, z3.src, z3.dst, comp, z3.inv, z3.unit_arrow
        )
        kinds = {v.kind for v in groupoid_violations(g)}
        assert "NonAssociative" in kinds or "BadInverse" in kinds

    def test_dangling_endpoint(self):
        units = ["1"]
        with pytest.raises(GroupoidAxiomError) as err:
            gc.build_groupoid(units, ["a"], {"a": "nope"}, {"a": "1"}, [("a", "a", "a")], {"a": "a"})
        assert err.value.violations[0].kind == "DanglingEndpoint"

    def test_associativity_holds_everywhere(self, pair2):
        for a, b in pair2.composable_pairs():
            ab = pair2.comp[(a, b)]
            for c in pair2.fibre_dst[pair2.src[b]]:
                assert pair2.comp[(ab, c)] == pair2.comp[(a, pair2.comp[(b, c)])]


class TestTransformationGroupoid:
    def test_trivial_group_on_three_points(self):
        triv = gc.cyclic_group(1)
        act = make_action(
            "right", triv, ["p", "q", "r"], (0, 0, 0), {(i, 0): i for i in range(3)}
        )
        tg, _ = gc.transformation_groupoid(act)
        assert tg.n_units == 3 and tg.n_arrows == 3
        assert all(is_unit_arrow(tg, a) for a in range(3))

    def test_z2_translation_is_pair_groupoid(self, z2):
        tg, _ = gc.transformation_groupoid(translation_action("right", z2))
        assert not groupoid_violations(tg)
        iso = find_groupoid_isomorphism(tg, gc.pair_groupoid(["a", "b"]))
        assert iso is not None

    def test_z2_on_single_point_is_z2(self, z2):
        act = make_action("right", z2, ["p"], (0,), {(0, a): 0 for a in range(2)})
        tg, _ = gc.transformation_groupoid(act)
        assert find_groupoid_isomorphism(tg, z2) is not None

    def test_left_and_right_agree_up_to_iso(self, z3):
        tgl, _ = gc.transformation_groupoid(translation_action("left", z3))
        tgr, _ = gc.transformation_groupoid(translation_action("right", z3))
        assert find_groupoid_isomorphism(tgl, tgr, max_arrows=9) is not None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_output_always_validates(self, seed):
        rng = SplitMix64(seed)
        g = random_groupoid(rng, 24)
        assert not groupoid_violations(g)
        tg, _ = gc.transformation_groupoid(unit_action(g))
        assert not groupoid_violations(tg)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_composition_on_demand_matches_the_stored_table(self, seed, side):
        """The on-demand composition equals, in iteration order too, the
        table built arrow by arrow from the action and G's composition."""
        corr_x, _ = random_pair(seed)
        act = corr_x.space.left if side == "left" else corr_x.space.right
        tg, idx = gc.transformation_groupoid(act)
        g, keys = act.groupoid, list(idx)
        stored = {}
        for i, key in enumerate(keys):
            moved = act.table[key]
            if side == "right":
                (p, a) = key
                for b in g.fibre_dst[g.src[a]]:
                    stored[(i, idx[(moved, b)])] = idx[(p, g.comp[(a, b)])]
            else:
                (a, p) = key
                for b in g.fibre_src[g.dst[a]]:
                    stored[(idx[(b, moved)], i)] = idx[(g.comp[(b, a)], p)]
        assert list(tg.comp.items()) == list(stored.items())
        assert len(tg.comp) == len(stored) and tg.comp == stored
        off = [(i, j) for i in range(tg.n_arrows) for j in range(tg.n_arrows) if tg.src[i] != tg.dst[j]]
        for key in off[:20] + [(-1, 0), (0, tg.n_arrows), ("a", 0), (0,)]:
            assert key not in tg.comp and tg.comp.get(key) is None


class TestCheckProper:
    def test_pair_groupoid_fibres(self, pair2):
        ev = gc.check_proper(pair2)
        assert set(ev.fibre_card.values()) == {1}

    def test_group_fibre_is_order(self, z3):
        ev = gc.check_proper(z3)
        assert ev.fibre_card[("*", "*")] == 3

    def test_disjoint_union_fibres(self, z2):
        g = gc.disjoint_union(z2, gc.pair_groupoid(["1", "2"]), tags=["g", "p"])
        ev = gc.check_proper(g)
        assert ev.fibre_card[("g.*", "g.*")] == 2
        assert ev.fibre_card[("p.1", "p.2")] == 1
        assert ev.fibre_card[("g.*", "p.1")] == 0
        # oracle: recount every (u, v) fibre directly
        for u, v in itertools.product(range(g.n_units), repeat=2):
            count = sum(
                1 for a in range(g.n_arrows) if g.dst[a] == u and g.src[a] == v
            )
            assert ev.fibre_card[(g.unit_ids[u], g.unit_ids[v])] == count


class TestFibreProduct:
    def test_translation_square(self, z2):
        # one unit, so every (x, y) matches: enumeration gives 4 pairs,
        # and the diagonal action folds them into 2 orbits
        x = translation_action("right", z2)
        y = translation_action("left", z2)
        fp = gc.fibre_product(x, y)
        assert len(fp.pairs) == 4
        assert not action_violations(fp.diagonal)
        assert gc.orbit_space(fp.diagonal).n_orbits == 2

    def test_disjoint_images_empty(self, z2):
        triv = gc.units_only_groupoid(["u", "v"])
        x = make_action("right", triv, ["p"], (0,), {(0, 0): 0})
        y = make_action("left", triv, ["q"], (1,), {(1, 0): 0})
        fp = gc.fibre_product(x, y)
        assert fp.pairs == ()

    def test_full_product_over_one_unit(self):
        triv = gc.units_only_groupoid(["u"])
        x = make_action("right", triv, ["a", "b", "c"], (0, 0, 0), {(i, 0): i for i in range(3)})
        y = make_action("left", triv, ["d", "e"], (0, 0), {(0, i): i for i in range(2)})
        assert len(gc.fibre_product(x, y).pairs) == 6


class TestOrbitSpace:
    def test_trivial_action_singletons(self):
        triv = gc.cyclic_group(1)
        act = make_action("right", triv, ["a", "b"], (0, 0), {(i, 0): i for i in range(2)})
        orb = gc.orbit_space(act)
        assert orb.n_orbits == 2

    def test_translation_single_orbit(self, z2):
        orb = gc.orbit_space(translation_action("right", z2))
        assert orb.n_orbits == 1
        assert orb.orbit_ids == ("[g0]",)  # smallest id as representative

    def test_diagonal_z2_on_four_points(self, z2):
        table = {
            (0, 0): 0, (1, 0): 1, (2, 0): 2, (3, 0): 3,
            (0, 1): 1, (1, 1): 0, (2, 1): 3, (3, 1): 2,
        }
        act = make_action("right", z2, ["w", "x", "y", "z"], (0,) * 4, table)
        orb = gc.orbit_space(act)
        assert orb.n_orbits == 2
        # oracle: reachability via transitive closure of the action table
        reach = {p: {p} for p in range(4)}
        changed = True
        while changed:
            changed = False
            for (p, _), q in act.table.items():
                for r in list(reach[p]):
                    if q not in reach[r]:
                        reach[r].add(q)
                        reach[q].add(r)
                        changed = True
        for p in range(4):
            for q in range(4):
                same = orb.proj[p] == orb.proj[q]
                assert same == (q in reach[p])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_projection_matches_reachability(self, seed):
        rng = SplitMix64(seed)
        g = random_groupoid(rng, 20)
        act = unit_action(g)
        orb = gc.orbit_space(act)
        for a in range(g.n_arrows):
            assert orb.proj[g.src[a]] == orb.proj[g.dst[a]]
        # representatives are minimal ids within their orbit
        for o in range(orb.n_orbits):
            ids = [act.point_ids[p] for p in orb.members[o]]
            assert act.point_ids[orb.reps[o]] == min(ids)


class TestBispace:
    def test_commuting_invariant_on_composites(self, z2):
        from tests.conftest import translation_correspondence

        corr = translation_correspondence()
        assert not bispace_violations(corr.space)

    def test_empty_groupoid_flows(self):
        empty = gc.FiniteGroupoid((), (), (), (), {}, (), ())
        assert not groupoid_violations(empty)
        act = make_action("right", empty, [], (), {})
        orb = gc.orbit_space(act)
        assert orb.n_orbits == 0
