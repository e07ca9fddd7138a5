"""Finite groupoids, actions on finite sets, bispaces and orbit spaces.

Conventions used throughout the package:

* An arrow ``a`` runs ``src(a) -> dst(a)``; ``dst`` plays the role of the
  range map and ``src`` of the source map.
* ``comp(a, b)`` means "``a`` after ``b``" and is defined exactly when
  ``src(a) == dst(b)``; the composite runs ``src(b) -> dst(a)``.
* The range fibre at a unit ``u`` is ``fibre_dst(u)`` (arrows into ``u``),
  the source fibre is ``fibre_src(u)``.

All ids are opaque strings in the interchange format; internally every
table is indexed by dense integers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .util import GcorrError


@dataclass(frozen=True)
class Violation:
    """One broken groupoid/action axiom, naming the offending arrows."""

    kind: str  # NonAssociative | BadUnit | BadInverse | DanglingEndpoint
    message: str
    where: tuple[str, ...] = ()

    def __str__(self) -> str:
        loc = f" at ({', '.join(self.where)})" if self.where else ""
        return f"{self.kind}{loc}: {self.message}"


class GroupoidAxiomError(GcorrError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations[:5]))


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    unit_ids: tuple[str, ...]
    arrow_ids: Sequence[str]  # a tuple, or an action groupoid's `ActionArrowIds`
    src: tuple[int, ...]
    dst: tuple[int, ...]
    comp: Mapping[tuple[int, int], int]  # (a, b) -> a∘b, iff src[a] == dst[b]
    inv: tuple[int, ...]
    unit_arrow: tuple[int, ...]  # unit -> its identity arrow

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_ids)

    @cached_property
    def fibre_dst(self) -> tuple[tuple[int, ...], ...]:
        """Arrows grouped by dst: fibre_dst[u] is the range fibre at u."""
        out: list[list[int]] = [[] for _ in range(self.n_units)]
        for a, u in enumerate(self.dst):
            out[u].append(a)
        return tuple(tuple(f) for f in out)

    @cached_property
    def fibre_src(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_units)]
        for a, u in enumerate(self.src):
            out[u].append(a)
        return tuple(tuple(f) for f in out)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set S, in the order found: every arrow is a right
        product e∘s₁∘…∘s_k of an identity e with arrows s_i of S.

        S holds a spanning tree of each component with the inverse of each
        tree arrow.  A closure pass by right products from the identities
        then certifies S, and each arrow it misses joins S, in index order.
        Once the tree is in, what S reaches of a component is a subgroupoid
        fixed by its isotropy group at the tree's root, and each arrow that
        joins at least doubles that group.  So the pass adds a greedy
        generating set of the isotropy, at most ⌈log₂|isotropy|⌉ arrows; on
        a table that is not associative it still ends with every arrow
        reached.  An action groupoid lifts the acting groupoid's S instead,
        by lemma (`ActionComposition.generators`).

        Read it only once the linear checks of `groupoid_violations` hold:
        every composable pair has a composite with the right endpoints, and
        the unit laws hold.  The axiom sweeps run over S first: each
        identity they check holds on a set of arrows closed under
        composition, so a pass over S that finds nothing proves the sweep.
        """
        if isinstance(self.comp, ActionComposition):
            return self.comp.generators()
        return _generators(self)

    def composable_pairs(self) -> Iterator[tuple[int, int]]:
        """All (a, b) with src(a) == dst(b), i.e. a∘b defined."""
        for a in range(self.n_arrows):
            for b in self.fibre_dst[self.src[a]]:
                yield a, b

    def unit_index(self, unit_id: str) -> int:
        return self._unit_lookup[unit_id]

    def arrow_index(self, arrow_id: str) -> int:
        return self._arrow_lookup[arrow_id]

    @cached_property
    def _unit_lookup(self) -> dict[str, int]:
        return {uid: i for i, uid in enumerate(self.unit_ids)}

    @cached_property
    def _arrow_lookup(self) -> dict[str, int]:
        return {aid: i for i, aid in enumerate(self.arrow_ids)}

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            self.unit_ids == other.unit_ids
            and self.arrow_ids == other.arrow_ids
            and self.src == other.src
            and self.dst == other.dst
            and self.comp == other.comp
            and self.inv == other.inv
            and self.unit_arrow == other.unit_arrow
        )

    def __repr__(self) -> str:
        return f"FiniteGroupoid({self.n_units} units, {self.n_arrows} arrows)"


def _generators(g: FiniteGroupoid) -> tuple[int, ...]:
    """`FiniteGroupoid.generators` by closure: O(|S|·arrows) lookups."""
    comp, src, dst = g.comp, g.src, g.dst
    gens: list[int] = []
    at_dst: list[list[int]] = [[] for _ in range(g.n_units)]  # S by dst
    reached = bytearray(g.n_arrows)

    def reach(todo: list[int]) -> None:
        while todo:
            a = todo.pop()
            if not reached[a]:
                reached[a] = 1
                todo.extend(comp[(a, s)] for s in at_dst[src[a]])

    def add(s: int) -> None:
        gens.append(s)
        at_dst[dst[s]].append(s)
        reach([comp[(r, s)] for r in g.fibre_src[dst[s]] if reached[r]])

    seen = bytearray(g.n_units)
    for base in range(g.n_units):
        if seen[base]:
            continue
        seen[base] = 1
        tree = [base]
        for u in tree:  # breadth-first spanning tree of the component
            for a in g.fibre_src[u]:
                if not seen[dst[a]]:
                    seen[dst[a]] = 1
                    tree.append(dst[a])
                    add(a)
                    add(g.inv[a])
    reach(list(g.unit_arrow))
    for a in range(g.n_arrows):  # e∘a = a, so adding a reaches it
        if not reached[a]:
            add(a)
    return tuple(gens)


def _non_associative(g: FiniteGroupoid, rows: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The triples (a, b, c) with a in `rows` and (a∘b)∘c != a∘(b∘c), in
    sweep order."""
    comp, src, fibre_dst = g.comp, g.src, g.fibre_dst
    for a in rows:
        for b in fibre_dst[src[a]]:
            ab = comp[(a, b)]
            for c in fibre_dst[src[b]]:
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    yield a, b, c


def groupoid_violations(g: FiniteGroupoid) -> list[Violation]:
    """Check the groupoid axioms, returning every violation.

    Associativity is Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups*, Vol. I, §1.2): the arrows a with (a∘b)∘c =
    a∘(b∘c) for all composable b, c are closed under composition, since
    ((a∘a′)∘b)∘c = (a∘(a′∘b))∘c = a∘((a′∘b)∘c) = a∘(a′∘(b∘c)) =
    (a∘a′)∘(b∘c), and hold the identities by the unit laws.  So once the
    linear checks pass, a pass with a in `generators` that finds nothing
    proves associativity; otherwise the full sweep lists the violations.
    """
    out: list[Violation] = []
    n_u, n_a = g.n_units, g.n_arrows
    ids = g.arrow_ids

    for a in range(n_a):
        if not (0 <= g.src[a] < n_u and 0 <= g.dst[a] < n_u):
            out.append(Violation("DanglingEndpoint", "src/dst out of range", (ids[a],)))
            return out  # unit-indexed sweeps below would be meaningless

    for u in range(n_u):
        e = g.unit_arrow[u]
        if not (0 <= e < n_a):
            out.append(Violation("BadUnit", "missing identity arrow", (g.unit_ids[u],)))
            continue
        if g.src[e] != u or g.dst[e] != u:
            out.append(Violation("BadUnit", "identity arrow endpoints differ from its unit", (ids[e],)))

    # comp domain = exactly the composable pairs
    for (a, b) in g.comp:
        if g.src[a] != g.dst[b]:
            out.append(Violation("DanglingEndpoint", "comp defined on non-matching endpoints", (ids[a], ids[b])))
    for a, b in g.composable_pairs():
        c = g.comp.get((a, b))
        if c is None:
            out.append(Violation("DanglingEndpoint", "comp missing on matching endpoints", (ids[a], ids[b])))
        elif g.src[c] != g.src[b] or g.dst[c] != g.dst[a]:
            out.append(Violation("DanglingEndpoint", "composite has wrong endpoints", (ids[a], ids[b], ids[c])))
    if out:
        return out

    for u in range(n_u):
        e = g.unit_arrow[u]
        for a in g.fibre_src[u]:  # a∘e = a
            if g.comp[(a, e)] != a:
                out.append(Violation("BadUnit", "identity fails on the right", (ids[a], ids[e])))
        for b in g.fibre_dst[u]:  # e∘b = b
            if g.comp[(e, b)] != b:
                out.append(Violation("BadUnit", "identity fails on the left", (ids[e], ids[b])))

    for a in range(n_a):
        ai = g.inv[a]
        if not (0 <= ai < n_a) or g.src[ai] != g.dst[a] or g.dst[ai] != g.src[a]:
            out.append(Violation("BadInverse", "inverse endpoints not swapped", (ids[a],)))
            continue
        if g.comp[(ai, a)] != g.unit_arrow[g.src[a]] or g.comp[(a, ai)] != g.unit_arrow[g.dst[a]]:
            out.append(Violation("BadInverse", "a⁻¹∘a or a∘a⁻¹ is not an identity", (ids[a],)))

    if out or any(_non_associative(g, g.generators)):
        out += [
            Violation("NonAssociative", "(a∘b)∘c != a∘(b∘c)", (ids[a], ids[b], ids[c]))
            for a, b, c in _non_associative(g, range(n_a))
        ]
    return out


def build_groupoid(
    units: Sequence[str],
    arrows: Sequence[str],
    src: dict[str, str],
    dst: dict[str, str],
    comp: Iterable[tuple[str, str, str]],
    inv: dict[str, str],
    unit_arrows: Optional[dict[str, str]] = None,
) -> FiniteGroupoid:
    """Assemble and validate a groupoid from id-keyed tables.

    ``unit_arrows`` may be omitted, in which case the identity at each unit
    is inferred (the arrow e with src = dst = u and e∘e = e).  Raises
    GroupoidAxiomError carrying the full list of violations on bad input.
    """
    unit_ids = tuple(units)
    arrow_ids = tuple(arrows)
    u_idx = {u: i for i, u in enumerate(unit_ids)}
    a_idx = {a: i for i, a in enumerate(arrow_ids)}
    if len(u_idx) != len(unit_ids) or len(a_idx) != len(arrow_ids):
        raise GroupoidAxiomError([Violation("DanglingEndpoint", "duplicate ids")])

    def look(table: dict[str, str], key: str, pool: dict[str, int], what: str) -> int:
        val = table.get(key)
        if val is None or val not in pool:
            raise GroupoidAxiomError([Violation("DanglingEndpoint", f"{what}({key}) = {val!r} unknown", (key,))])
        return pool[val]

    src_t = tuple(look(src, a, u_idx, "src") for a in arrow_ids)
    dst_t = tuple(look(dst, a, u_idx, "dst") for a in arrow_ids)
    inv_t = tuple(look(inv, a, a_idx, "inv") for a in arrow_ids)
    comp_t: dict[tuple[int, int], int] = {}
    for a, b, c in comp:
        if a not in a_idx or b not in a_idx or c not in a_idx:
            raise GroupoidAxiomError([Violation("DanglingEndpoint", "comp entry names unknown arrow", (a, b, c))])
        comp_t[(a_idx[a], a_idx[b])] = a_idx[c]

    if unit_arrows is not None:
        ua_t = tuple(look(unit_arrows, u, a_idx, "unit_arrow") for u in unit_ids)
    else:
        ua: list[int] = []
        for u, uid in enumerate(unit_ids):
            cands = [
                a for a in range(len(arrow_ids))
                if src_t[a] == u and dst_t[a] == u and comp_t.get((a, a)) == a
            ]
            cands = [a for a in cands if all(comp_t.get((a, b)) == b for b in range(len(arrow_ids)) if dst_t[b] == u)]
            if len(cands) != 1:
                raise GroupoidAxiomError([Violation("BadUnit", f"cannot infer identity arrow at {uid}", (uid,))])
            ua.append(cands[0])
        ua_t = tuple(ua)

    g = FiniteGroupoid(unit_ids, arrow_ids, src_t, dst_t, comp_t, inv_t, ua_t)
    bad = groupoid_violations(g)
    if bad:
        raise GroupoidAxiomError(bad)
    return g


# ---------------------------------------------------------------------------
# stock constructors


def units_only_groupoid(unit_ids: Sequence[str]) -> FiniteGroupoid:
    """The co-trivial groupoid of a finite set: identity arrows only."""
    n = len(unit_ids)
    return FiniteGroupoid(
        unit_ids=tuple(unit_ids),
        arrow_ids=tuple(f"id:{u}" for u in unit_ids),
        src=tuple(range(n)),
        dst=tuple(range(n)),
        comp={(i, i): i for i in range(n)},
        inv=tuple(range(n)),
        unit_arrow=tuple(range(n)),
    )


def pair_groupoid(unit_ids: Sequence[str]) -> FiniteGroupoid:
    """All ordered pairs (i, j), composing (i,j)∘(j,k) = (i,k)."""
    units = tuple(unit_ids)
    n = len(units)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    idx = {p: k for k, p in enumerate(pairs)}
    return FiniteGroupoid(
        unit_ids=units,
        arrow_ids=tuple(f"({units[i]},{units[j]})" for i, j in pairs),
        src=tuple(j for _, j in pairs),
        dst=tuple(i for i, _ in pairs),
        comp={(idx[(i, j)], idx[(j, k)]): idx[(i, k)] for i in range(n) for j in range(n) for k in range(n)},
        inv=tuple(idx[(j, i)] for i, j in pairs),
        unit_arrow=tuple(idx[(i, i)] for i in range(n)),
    )


def group_groupoid(names: Sequence[str], mult: dict[tuple[str, str], str], identity: str, unit_id: str = "*") -> FiniteGroupoid:
    """A finite group as a one-unit groupoid; mult[(a, b)] = a∘b."""
    names = tuple(names)
    idx = {x: i for i, x in enumerate(names)}
    inv = [None] * len(names)
    e = idx[identity]
    for a in names:
        for b in names:
            if idx[mult[(a, b)]] == e and idx[mult[(b, a)]] == e:
                inv[idx[a]] = idx[b]
    comp = {(idx[a], idx[b]): idx[mult[(a, b)]] for a in names for b in names}
    g = FiniteGroupoid(
        unit_ids=(unit_id,),
        arrow_ids=names,
        src=(0,) * len(names),
        dst=(0,) * len(names),
        comp=comp,
        inv=tuple(inv),  # type: ignore[arg-type]
        unit_arrow=(e,),
    )
    bad = groupoid_violations(g)
    if bad:
        raise GroupoidAxiomError(bad)
    return g


def cyclic_group(n: int, unit_id: str = "*") -> FiniteGroupoid:
    names = [f"g{k}" for k in range(n)]
    mult = {(f"g{a}", f"g{b}"): f"g{(a + b) % n}" for a in range(n) for b in range(n)}
    return group_groupoid(names, mult, "g0", unit_id)


def symmetric_group(n: int, unit_id: str = "*") -> FiniteGroupoid:
    """S_n on {0..n-1} as a one-unit groupoid (meant for tiny n)."""
    perms = sorted(itertools.permutations(range(n)))
    names = ["s" + "".join(map(str, p)) for p in perms]
    name_of = {p: names[i] for i, p in enumerate(perms)}
    mult = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n))  # p after q
            mult[(name_of[p], name_of[q])] = name_of[pq]
    return group_groupoid(names, mult, name_of[tuple(range(n))], unit_id)


def disjoint_union(*parts: FiniteGroupoid, tags: Optional[Sequence[str]] = None) -> FiniteGroupoid:
    if tags is None:
        tags = [str(i) for i in range(len(parts))]
    unit_ids: list[str] = []
    arrow_ids: list[str] = []
    src: list[int] = []
    dst: list[int] = []
    inv: list[int] = []
    unit_arrow: list[int] = []
    comp: dict[tuple[int, int], int] = {}
    for tag, g in zip(tags, parts):
        ub, ab = len(unit_ids), len(arrow_ids)
        unit_ids += [f"{tag}.{u}" for u in g.unit_ids]
        arrow_ids += [f"{tag}.{a}" for a in g.arrow_ids]
        src += [ub + u for u in g.src]
        dst += [ub + u for u in g.dst]
        inv += [ab + a for a in g.inv]
        unit_arrow += [ab + a for a in g.unit_arrow]
        comp.update({(ab + a, ab + b): ab + c for (a, b), c in g.comp.items()})
    return FiniteGroupoid(tuple(unit_ids), tuple(arrow_ids), tuple(src), tuple(dst), comp, tuple(inv), tuple(unit_arrow))


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True, eq=False)
class GSpaceAction:
    """A groupoid action on a finite point set.

    ``momentum`` anchors the action (the range-style map for left actions,
    the source-style map for right actions).  ``table`` is keyed
    (arrow, point) for left actions and (point, arrow) for right actions,
    and is defined exactly on the fibre product.
    """

    side: str  # "left" | "right"
    groupoid: FiniteGroupoid
    point_ids: tuple[str, ...]
    momentum: tuple[int, ...]  # point -> unit
    table: dict[tuple[int, int], int]

    @property
    def n_points(self) -> int:
        return len(self.point_ids)

    @cached_property
    def points_at(self) -> tuple[tuple[int, ...], ...]:
        """Points grouped by momentum unit."""
        out: list[list[int]] = [[] for _ in range(self.groupoid.n_units)]
        for p, u in enumerate(self.momentum):
            out[u].append(p)
        return tuple(tuple(f) for f in out)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The fibre product: composable (arrow, point) / (point, arrow)."""
        g = self.groupoid
        if self.side == "left":
            for a in range(g.n_arrows):
                for p in self.points_at[g.src[a]]:
                    yield a, p
        else:
            for p in range(self.n_points):
                for a in g.fibre_dst[self.momentum[p]]:
                    yield p, a

    def __repr__(self) -> str:
        return f"GSpaceAction({self.side}, {self.n_points} points over {self.groupoid!r})"


def _incompatible(act: GSpaceAction, rows: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The (a, b, point) with a in `rows` where the action of a∘b differs
    from that of a after b (left) or of a then b (right), in sweep order."""
    g, table = act.groupoid, act.table
    comp, src, fibre_dst = g.comp, g.src, g.fibre_dst
    if act.side == "left":
        for a in rows:
            for b in fibre_dst[src[a]]:
                ab = comp[(a, b)]
                for p in act.points_at[src[b]]:
                    if table[(ab, p)] != table[(a, table[(b, p)])]:
                        yield a, b, p
    else:
        for a in rows:
            points = act.points_at[g.dst[a]]
            for b in fibre_dst[src[a]]:
                ab = comp[(a, b)]
                for p in points:
                    if table[(p, ab)] != table[(table[(p, a)], b)]:
                        yield a, b, p


def action_violations(act: GSpaceAction) -> list[Violation]:
    """Check the action axioms: domain, units, compatibility, momentum.

    Compatibility runs over a in the groupoid's `generators` first.  The
    arrows a with (a∘b)·x = a·(b·x) for all b and x are closed under
    composition, by associativity: ((a∘a′)∘b)·x = a·((a′∘b)·x) =
    a·(a′·(b·x)) = (a∘a′)·(b·x); likewise x·((a∘a′)∘b) = (x·(a∘a′))·b on
    the right.  The unit law puts the identities in that set.  So a pass
    over the generators that finds nothing proves compatibility; otherwise
    the full sweep lists the violations.
    """
    out: list[Violation] = []
    g = act.groupoid
    pids, aids = act.point_ids, g.arrow_ids
    needed = set(act.pairs())
    have = set(act.table)
    for key in have - needed:
        out.append(Violation("DanglingEndpoint", "action defined off the fibre product", _act_where(act, key)))
    for key in needed - have:
        out.append(Violation("DanglingEndpoint", "action missing on the fibre product", _act_where(act, key)))
    if out:
        return out

    if act.side == "left":
        for a, p in needed:
            q = act.table[(a, p)]
            if act.momentum[q] != g.dst[a]:
                out.append(Violation("DanglingEndpoint", "momentum of γ·x is not dst(γ)", (aids[a], pids[p])))
        if out:  # compatibility sweeps chain lookups; stop while keys still resolve
            return out
        for p in range(act.n_points):
            e = g.unit_arrow[act.momentum[p]]
            if act.table[(e, p)] != p:
                out.append(Violation("BadUnit", "unit arrow moves a point", (pids[p],)))
        message = "(a∘b)·x != a·(b·x)"
    else:
        for p, a in needed:
            q = act.table[(p, a)]
            if act.momentum[q] != g.src[a]:
                out.append(Violation("DanglingEndpoint", "momentum of x·γ is not src(γ)", (pids[p], aids[a])))
        if out:
            return out
        for p in range(act.n_points):
            e = g.unit_arrow[act.momentum[p]]
            if act.table[(p, e)] != p:
                out.append(Violation("BadUnit", "unit arrow moves a point", (pids[p],)))
        message = "x·(a∘b) != (x·a)·b"
    if out or any(_incompatible(act, g.generators)):
        left = act.side == "left"
        out += [
            Violation("NonAssociative", message, (aids[a], aids[b], pids[p]) if left else (pids[p], aids[a], aids[b]))
            for a, b, p in _incompatible(act, range(g.n_arrows))
        ]
    return out


def _act_where(act: GSpaceAction, key: tuple[int, int]) -> tuple[str, str]:
    if act.side == "left":
        a, p = key
        return (act.groupoid.arrow_ids[a], act.point_ids[p])
    p, a = key
    return (act.point_ids[p], act.groupoid.arrow_ids[a])


def make_action(side, groupoid, point_ids, momentum, table) -> GSpaceAction:
    act = GSpaceAction(side, groupoid, tuple(point_ids), tuple(momentum), dict(table))
    bad = action_violations(act)
    if bad:
        raise GroupoidAxiomError(bad)
    return act


def trivial_action(side: str, groupoid: FiniteGroupoid, point_ids: Sequence[str], momentum: Sequence[int]) -> GSpaceAction:
    """Action of a units-only groupoid (only identities act)."""
    momentum = tuple(momentum)
    table = {}
    for p, u in enumerate(momentum):
        e = groupoid.unit_arrow[u]
        table[(e, p) if side == "left" else (p, e)] = p
    return make_action(side, groupoid, point_ids, momentum, table)


@dataclass(frozen=True, eq=False)
class Bispace:
    """Commuting left/right actions on the same point set."""

    left: GSpaceAction
    right: GSpaceAction

    @property
    def point_ids(self) -> tuple[str, ...]:
        return self.left.point_ids

    @property
    def n_points(self) -> int:
        return self.left.n_points

    def r_momentum(self, p: int) -> int:
        return self.left.momentum[p]

    def s_momentum(self, p: int) -> int:
        return self.right.momentum[p]


def _non_commuting(
    b: Bispace, g_rows: Iterable[int], h_rows_at: Sequence[Sequence[int]]
) -> Iterator[tuple[int, int, int]]:
    """The (γ, x, η) with γ in `g_rows`, η in `h_rows_at[s(x)]` and
    (γ·x)·η != γ·(x·η), in sweep order."""
    left, right = b.left, b.right
    lt, rt, src = left.table, right.table, left.groupoid.src
    for a in g_rows:
        for p in left.points_at[src[a]]:
            ap = lt[(a, p)]
            for c in h_rows_at[right.momentum[p]]:
                if rt[(ap, c)] != lt[(a, rt[(p, c)])]:
                    yield a, p, c


def bispace_violations(b: Bispace) -> list[Violation]:
    """Check what a bispace adds to its two actions: sides and point set,
    momentum compatibility and commutation.  Assumes each action passes
    `action_violations`, as one built by `make_action` does.

    Commutation runs over `generators` of both groupoids first.  For fixed
    η the arrows γ with (γ·x)·η = γ·(x·η) for every x are closed under
    composition: ((γ∘γ′)·x)·η = γ·((γ′·x)·η) = γ·(γ′·(x·η)); likewise in
    η for fixed γ.  Identities commute with everything, because each
    action keeps the other's momentum.  So a pass over S_G × S_H that
    finds nothing proves commutation; otherwise the full sweep lists the
    violations.
    """
    out: list[Violation] = []
    if b.left.side != "left" or b.right.side != "right":
        out.append(Violation("DanglingEndpoint", "bispace sides are mislabeled"))
        return out
    if b.left.point_ids != b.right.point_ids:
        out.append(Violation("DanglingEndpoint", "left/right actions disagree on the point set"))
        return out
    pids = b.point_ids
    for a, p in b.left.pairs():
        q = b.left.table[(a, p)]
        if b.right.momentum[q] != b.right.momentum[p]:
            out.append(Violation("DanglingEndpoint", "left action moves the right momentum", (b.left.groupoid.arrow_ids[a], pids[p])))
    for p, c in b.right.pairs():
        q = b.right.table[(p, c)]
        if b.left.momentum[q] != b.left.momentum[p]:
            out.append(Violation("DanglingEndpoint", "right action moves the left momentum", (pids[p], b.right.groupoid.arrow_ids[c])))
    if out:  # the commutation sweep chains lookups across both actions
        return out
    g, h = b.left.groupoid, b.right.groupoid
    s_h_at: list[list[int]] = [[] for _ in range(h.n_units)]
    for c in h.generators:
        s_h_at[h.dst[c]].append(c)
    if any(_non_commuting(b, g.generators, s_h_at)):
        out = [
            Violation("NonAssociative", "(γ·x)·η != γ·(x·η)", (g.arrow_ids[a], pids[p], h.arrow_ids[c]))
            for a, p, c in _non_commuting(b, range(g.n_arrows), h.fibre_dst)
        ]
    return out


def make_bispace(left: GSpaceAction, right: GSpaceAction) -> Bispace:
    b = Bispace(left, right)
    bad = bispace_violations(b)
    if bad:
        raise GroupoidAxiomError(bad)
    return b


# ---------------------------------------------------------------------------
# transformation groupoids, properness, fibre products, orbit spaces


class ActionComposition(Mapping):
    """The composition of an action groupoid, computed on demand.

    Right actions: (z, γ)∘(zγ, η) = (z, γ∘η); left actions:
    (γ, ηx)∘(η, x) = (γ∘η, x).  Only the action table and G's composition
    are read, so the action groupoid needs no memory per composable pair.
    Iteration follows the arrow order, then G's fibre order, as a stored
    table built arrow by arrow would.
    """

    def __init__(self, act: GSpaceAction, keys: Sequence[tuple[int, int]],
                 index: dict[tuple[int, int], int], src: Sequence[int], dst: Sequence[int]):
        self._act, self._keys, self._index = act, keys, index
        self._src, self._dst = src, dst

    def __getitem__(self, key: tuple[int, int]) -> int:
        try:
            i, j = key
            if i < 0 or j < 0 or self._src[i] != self._dst[j]:
                raise KeyError(key)
        except (TypeError, ValueError, IndexError):
            raise KeyError(key) from None
        gcomp = self._act.groupoid.comp
        if self._act.side == "right":
            (p, a), (_, b) = self._keys[i], self._keys[j]
            return self._index[(p, gcomp[(a, b)])]
        (a, _), (b, q) = self._keys[i], self._keys[j]
        return self._index[(gcomp[(a, b)], q)]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        act, index, g = self._act, self._index, self._act.groupoid
        for i, key in enumerate(self._keys):
            moved = act.table[key]
            if act.side == "right":
                for b in g.fibre_dst[g.src[key[1]]]:
                    yield i, index[(moved, b)]
            else:
                for b in g.fibre_src[g.dst[key[0]]]:
                    yield index[(b, moved)], i

    def generators(self) -> tuple[int, ...]:
        """The arrows (s, x) of a left action, or (x, s) of a right one,
        for s in the acting groupoid's `generators`; no closure pass.

        Lemma: (γ∘η, x) = (γ, η·x)∘(η, x) and (z, γ∘η) = (z, γ)∘(z·γ, η),
        so a right product e∘s₁∘…∘s_k in G lifts to a right product of an
        identity with these arrows, at every point.
        """
        act, index = self._act, self._index
        g = act.groupoid
        if act.side == "right":
            return tuple(index[(p, s)] for s in g.generators for p in act.points_at[g.dst[s]])
        return tuple(index[(s, p)] for s in g.generators for p in act.points_at[g.src[s]])

    def __len__(self) -> int:
        g = self._act.groupoid
        if self._act.side == "right":
            return sum(len(g.fibre_dst[g.src[a]]) for _, a in self._keys)
        return sum(len(g.fibre_src[g.dst[a]]) for a, _ in self._keys)


class ActionArrowIds(Sequence):
    """The arrow ids of an action groupoid, "(x;γ)" on the right and
    "(γ;x)" on the left, each formatted only when read: by a witness,
    `arrow_index` or `==`.  Equal to the tuple of the same ids."""

    def __init__(self, act: GSpaceAction, keys: Sequence[tuple[int, int]]):
        self._act, self._keys = act, keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, k: int) -> str:
        i, j = self._keys[k]
        act = self._act
        if act.side == "right":
            return f"({act.point_ids[i]};{act.groupoid.arrow_ids[j]})"
        return f"({act.groupoid.arrow_ids[i]};{act.point_ids[j]})"

    def __iter__(self) -> Iterator[str]:
        return map(self.__getitem__, range(len(self._keys)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, ActionArrowIds)):
            return tuple(self) == tuple(other)
        return NotImplemented


def transformation_groupoid(act: GSpaceAction) -> tuple[FiniteGroupoid, dict[tuple[int, int], int]]:
    """The action groupoid; units are the points.

    Right actions: arrow (z, γ) runs z·γ -> z and (z,γ)∘(zγ,η) = (z, γ∘η).
    Left actions: arrow (γ, x) runs x -> γ·x and (γ, ηx)∘(η, x) = (γ∘η, x).
    Also returns the lookup from table keys to arrow indices.  Every table
    is O(arrows): the composition is an `ActionComposition`, and the arrow
    ids are `ActionArrowIds`, formatted only where read.
    """
    g = act.groupoid
    keys = list(act.pairs())
    idx = {k: i for i, k in enumerate(keys)}
    if act.side == "right":
        src = tuple(act.table[k] for k in keys)  # z·γ
        dst = tuple(k[0] for k in keys)  # z
        inv = tuple(idx[(act.table[k], g.inv[k[1]])] for k in keys)
        unit_arrow = tuple(idx[(p, g.unit_arrow[act.momentum[p]])] for p in range(act.n_points))
    else:
        src = tuple(k[1] for k in keys)  # x
        dst = tuple(act.table[k] for k in keys)  # γ·x
        inv = tuple(idx[(g.inv[k[0]], act.table[k])] for k in keys)
        unit_arrow = tuple(idx[(g.unit_arrow[act.momentum[p]], p)] for p in range(act.n_points))
    comp = ActionComposition(act, keys, idx, src, dst)
    tg = FiniteGroupoid(act.point_ids, ActionArrowIds(act, keys), src, dst, comp, inv, unit_arrow)
    return tg, idx


@dataclass(frozen=True)
class ProperEvidence:
    """Finiteness evidence mirroring the compact-fibre hypothesis; every
    finite groupoid is proper, so only the fibre sizes are recorded."""

    fibre_card: Counter[tuple[str, str]]  # (u, v) -> |arrows v -> u|, 0 when absent

    @property
    def max_card(self) -> int:
        return max(self.fibre_card.values(), default=0)


def check_proper(x: FiniteGroupoid | GSpaceAction) -> ProperEvidence:
    """The two-sided fibre sizes of an action groupoid, counted off the
    action table with no groupoid built: (γ, x) of G⋉X runs x -> γ·x and
    (x, γ) of X⋊G runs x·γ -> x.  A groupoid G is counted as its action
    on its units, γ·s(γ) = r(γ), whose action groupoid has G's fibres.
    Only the nonempty fibres are stored."""
    if isinstance(x, FiniteGroupoid):
        x = GSpaceAction("left", x, x.unit_ids, tuple(range(x.n_units)), {(a, u): x.dst[a] for a, u in enumerate(x.src)})
    ids, right = x.point_ids, x.side == "right"
    card = Counter((ids[key[0]], ids[q]) if right else (ids[q], ids[key[1]]) for key, q in x.table.items())
    return ProperEvidence(card)


@dataclass(frozen=True)
class OrbitSpace:
    orbit_ids: tuple[str, ...]
    proj: tuple[int, ...]  # point -> orbit
    reps: tuple[int, ...]  # orbit -> representative point (smallest id)

    @property
    def n_orbits(self) -> int:
        return len(self.orbit_ids)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.orbit_ids]
        for p, o in enumerate(self.proj):
            out[o].append(p)
        return tuple(tuple(m) for m in out)


@dataclass(frozen=True)
class ActionOrbits(OrbitSpace):
    """The orbits of an action, each walked from its representative x₀:
    t[x] is the first arrow of the fibre at m(x₀) that carries x₀ to x
    (the identity at x₀), and stab[o] = Stab(x₀) in fibre order."""

    t: tuple[int, ...]
    stab: tuple[tuple[int, ...], ...]


def orbit_space(act: GSpaceAction) -> ActionOrbits:
    """Orbits of the action, with deterministic representatives, in one
    walk per orbit: O(points·log points + arrows acting on the walked
    representatives).

    The points are visited in id order, and the first one not yet placed
    opens a new orbit as its representative x₀.  So each orbit is
    represented by its lexicographically smallest point id, and orbits are
    ordered by representative id, which keeps downstream golden files
    stable.  Lemma: the orbit of x₀ is its image under the arrows that act
    on it, {x₀·γ : γ ∈ G^{m(x₀)}} for a right action and {γ·x₀ : γ ∈
    G_{m(x₀)}} for a left one, because (x₀·γ)·η = x₀·(γ∘η) and
    η·(γ·x₀) = (η∘γ)·x₀.  One pass over that fibre therefore finds every
    member x, the t[x] with x₀·t[x] = x (t[x]·x₀ = x on the left) and
    Stab(x₀).
    """
    g, table, right = act.groupoid, act.table, act.side == "right"
    proj, t = [-1] * act.n_points, [-1] * act.n_points
    reps, stab = [], []
    for x0 in sorted(range(act.n_points), key=act.point_ids.__getitem__):
        if proj[x0] < 0:
            u, fixed = act.momentum[x0], []
            proj[x0], t[x0] = len(reps), g.unit_arrow[u]
            for a in (g.fibre_dst if right else g.fibre_src)[u]:
                x = table[(x0, a) if right else (a, x0)]
                if x == x0:
                    fixed.append(a)
                elif proj[x] < 0:
                    proj[x], t[x] = len(reps), a
            reps.append(x0)
            stab.append(tuple(fixed))
    return ActionOrbits(
        tuple(f"[{act.point_ids[r]}]" for r in reps), tuple(proj), tuple(reps), tuple(t), tuple(stab)
    )


@dataclass(frozen=True, eq=False)
class FibreProduct:
    """Pairs (x, y) matching right momentum of X with left momentum of Y.

    The diagonal action (x, y)·γ = (x·γ, γ⁻¹·y) of the middle groupoid is
    built when `diagonal` is first read: its table has Σ_z |G^{m(z)}|
    entries, and `compose` works on the legs instead.
    """

    point_ids: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]  # (x index, y index)
    index: dict[tuple[int, int], int]
    x_right: GSpaceAction
    y_left: GSpaceAction

    @cached_property
    def diagonal(self) -> GSpaceAction:
        """The right action of the middle groupoid on Z."""
        x_right, y_left, index = self.x_right, self.y_left, self.index
        g = x_right.groupoid
        momentum = tuple(x_right.momentum[x] for x, _ in self.pairs)
        table = {}
        for i, (x, y) in enumerate(self.pairs):
            for a in g.fibre_dst[momentum[i]]:
                table[(i, a)] = index[(x_right.table[(x, a)], y_left.table[(g.inv[a], y)])]
        return GSpaceAction("right", g, self.point_ids, momentum, table)


def fibre_product(x_right: GSpaceAction, y_left: GSpaceAction) -> FibreProduct:
    """Z = {(x, y) : s_X(x) = r_Y(y)} with the diagonal (x,y)·γ = (xγ, γ⁻¹y)."""
    if x_right.side != "right" or y_left.side != "left":
        raise GroupoidAxiomError([Violation("DanglingEndpoint", "fibre product needs a right and a left action")])
    if x_right.groupoid is not y_left.groupoid and x_right.groupoid != y_left.groupoid:
        raise GroupoidAxiomError([Violation("DanglingEndpoint", "actions live over different middle groupoids")])
    pairs = tuple(
        (x, y)
        for x in range(x_right.n_points)
        for y in y_left.points_at[x_right.momentum[x]]
    )
    index = {p: i for i, p in enumerate(pairs)}
    ids = tuple(f"({x_right.point_ids[x]},{y_left.point_ids[y]})" for x, y in pairs)
    return FibreProduct(ids, pairs, index, x_right, y_left)
