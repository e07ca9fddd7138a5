from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcorr as gc
from gcorr.groupoids import (
    FiniteGroupoid,
    GroupoidAxiomError,
    GSpaceAction,
    action_violations,
    bispace_violations,
    groupoid_violations,
    make_action,
)
from gcorr.composition import compose
from gcorr.randgen import SplitMix64, random_groupoid, random_pair
from tests.conftest import (
    MIX_CAPS,
    PAIRS_45,
    coset_ladder_pair,
    is_unit_arrow,
    ladder_pair,
    pair_45,
    translation_action,
    union_find_orbits,
    unit_action,
)


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


    @pytest.mark.parametrize("side", ["left", "right"])
    def test_arrow_ids_read_like_the_tuple_of_formatted_ids(self, z3, side):
        act = translation_action(side, z3)
        tg, idx = gc.transformation_groupoid(act)
        pids, aids = act.point_ids, z3.arrow_ids
        if side == "right":
            ids = tuple(f"({pids[p]};{aids[a]})" for p, a in idx)
        else:
            ids = tuple(f"({aids[a]};{pids[p]})" for a, p in idx)
        assert len(tg.arrow_ids) == tg.n_arrows == len(ids) == 9
        assert tg.arrow_ids == ids and ids == tg.arrow_ids and not tg.arrow_ids != ids
        assert tg.arrow_ids != ids[:-1] and tg.arrow_ids != list(ids)
        assert tuple(tg.arrow_ids) == ids and [tg.arrow_ids[k] for k in (0, 4, -1)] == [ids[0], ids[4], ids[-1]]
        assert all(tg.arrow_index(i) == k for k, i in enumerate(ids))
        assert ids[5] in tg.arrow_ids and "(g9;g9)" not in tg.arrow_ids
        assert gc.transformation_groupoid(act)[0].arrow_ids == tg.arrow_ids
        with pytest.raises(IndexError):
            tg.arrow_ids[9]


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

    @pytest.mark.parametrize("name", PAIRS_45)
    def test_action_counted_off_its_table_equals_its_action_groupoid(self, name):
        """`check_proper` of an action equals, fibre for fibre, that of its
        action groupoid, recounted arrow by arrow, and `validate` notes the
        right action's largest fibre, on both actions of X, Y and the
        composite."""
        corr_x, corr_y = pair_45(name)
        for corr in (corr_x, corr_y, compose(corr_x, corr_y).composite):
            for act in (corr.space.left, corr.space.right):
                tg, _ = gc.transformation_groupoid(act)
                ids = tg.unit_ids
                oracle = Counter((ids[tg.dst[a]], ids[tg.src[a]]) for a in range(tg.n_arrows))
                assert gc.check_proper(act).fibre_card == oracle == gc.check_proper(tg).fibre_card
            max_card = gc.check_proper(gc.transformation_groupoid(corr.space.right)[0]).max_card
            assert gc.validate(corr).notes["properness_max_fibre"] == max_card


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


def _walk_pair(name):
    if name.startswith("coset-"):
        return coset_ladder_pair(*map(int, name[6:].split("-")))
    if name.startswith("ladder-"):
        return ladder_pair(int(name[7:]))
    return random_pair(int(name[4:]), **MIX_CAPS)


def _shuffled(act: GSpaceAction, seed: int) -> GSpaceAction:
    """`act` with its points listed in a seeded order in which the
    smallest id is not first (when there are two points or more)."""
    rng, n = SplitMix64(seed), act.n_points
    new_of = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        new_of[i], new_of[j] = new_of[j], new_of[i]
    smallest = min(range(n), key=act.point_ids.__getitem__, default=None)
    if n > 1 and new_of[smallest] == 0:
        other = new_of.index(1)
        new_of[smallest], new_of[other] = 1, 0
    ids, momentum = [""] * n, [0] * n
    for p in range(n):
        ids[new_of[p]], momentum[new_of[p]] = act.point_ids[p], act.momentum[p]
    if act.side == "right":
        table = {(new_of[p], a): new_of[q] for (p, a), q in act.table.items()}
    else:
        table = {(a, new_of[p]): new_of[q] for (a, p), q in act.table.items()}
    return GSpaceAction(act.side, act.groupoid, tuple(ids), tuple(momentum), table)


WALK_NAMES = [f"mix-{i}" for i in range(40)] + ["coset-24-4", "coset-12-3", "ladder-6"]


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("name", WALK_NAMES)
def test_orbit_walk_matches_the_union_find_and_carries_its_transversal(name, shuffle):
    """On both actions of X and of Y and on the diagonal action of Z, the
    walk has the orbit ids, projection and representatives of the
    union-find over every composable pair, also with the points listed
    out of id order; x₀·t[x] = x with t[x] the first such arrow of the
    fibre at m(x₀), t[x₀] is the identity there, and Stab(x₀) is every
    arrow of that fibre that fixes x₀, in fibre order."""
    corr_x, corr_y = _walk_pair(name)
    diagonal = gc.fibre_product(corr_x.space.right, corr_y.space.left).diagonal
    acts = [corr_x.space.left, corr_x.space.right, corr_y.space.left, corr_y.space.right, diagonal]
    for k, act in enumerate(acts):
        if shuffle:
            act = _shuffled(act, k)
            assert act.n_points < 2 or min(range(act.n_points), key=act.point_ids.__getitem__) != 0
        orb, oracle = gc.orbit_space(act), union_find_orbits(act)
        assert (orb.orbit_ids, orb.proj, orb.reps) == (oracle.orbit_ids, oracle.proj, oracle.reps)
        g, right = act.groupoid, act.side == "right"
        fibres = g.fibre_dst if right else g.fibre_src
        move = (lambda p, a: act.table[(p, a)]) if right else (lambda p, a: act.table[(a, p)])
        for o, x0 in enumerate(orb.reps):
            fibre = fibres[act.momentum[x0]]
            assert orb.t[x0] == g.unit_arrow[act.momentum[x0]]
            assert orb.stab[o] == tuple(a for a in fibre if move(x0, a) == x0)
            for x in orb.members[o]:
                if x != x0:
                    assert orb.t[x] == next(a for a in fibre if move(x0, a) == x)
                assert move(x0, orb.t[x]) == x
    if name.startswith("coset-"):  # premise: Stab(x₀) ≠ 1 on X
        assert all(len(s) > 1 for s in gc.orbit_space(corr_x.space.right).stab)


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
