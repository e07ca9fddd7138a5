"""Topological correspondences between finite groupoids with Haar systems.

A correspondence from (G, α) to (H, β) is a G-H-bispace X carrying an
H-invariant, fully supported family of measures λ along the right momentum
map, together with the multiplicative 1-cocycle Δ on the left
transformation groupoid that implements quasi-invariance of λ under
(G, α).  At finite scale Δ is forced by a discrete Radon-Nikodym formula,
so builders derive it rather than ask for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .cohomology import Cocycle1, check_cocycle
from .groupoids import (
    Bispace,
    FiniteGroupoid,
    check_proper,
    group_groupoid,
    make_action,
    make_bispace,
    transformation_groupoid,
    trivial_action,
    units_only_groupoid,
)
from .measures import HaarSystem, MeasureFamily, counting_haar, invariance_residual
from .report import DEFAULT_TOL, Report
from .util import GcorrError, IndexTable, ONE, Scalar, all_exact, generators_first, rdev, same_product, to_float, worst_of


class NotWellDefined(GcorrError):
    pass


class NotAHomomorphism(GcorrError):
    pass


class NotASubgroup(GcorrError):
    pass


@dataclass(frozen=True, eq=False)
class Correspondence:
    left_haar: HaarSystem
    right_haar: HaarSystem
    space: Bispace
    family: MeasureFamily  # along the right momentum map
    adjoining: Cocycle1  # multiplicative, on left_tg
    left_tg: FiniteGroupoid
    left_tg_index: dict[tuple[int, int], int]  # (arrow, point) -> left_tg arrow

    @property
    def left(self) -> FiniteGroupoid:
        return self.left_haar.groupoid

    @property
    def right(self) -> FiniteGroupoid:
        return self.right_haar.groupoid

    def adjoining_at(self, arrow: int, point: int) -> Scalar:
        return self.adjoining.value[self.left_tg_index[(arrow, point)]]

    @cached_property
    def sqrt_adjoining(self) -> dict[tuple[int, int], float]:
        """(arrow, point) -> √Δ as a float, keyed like `left_tg_index`."""
        value = self.adjoining.value
        return {key: math.sqrt(to_float(value[k])) for key, k in self.left_tg_index.items()}

    @cached_property
    def left_action_table(self) -> IndexTable:
        """`cstar.left_action` over (arrow a, point z) in `space.left.pairs()`
        order, into a·z, weighted by w(a) before and √Δ(a, z) after f(z)."""
        keys, a, z, image = _pair_arrays(self.space.left)
        sqrt_adj = self.sqrt_adjoining
        return IndexTable(
            a, z, image, self.space.n_points,
            pre=np.asarray(self.left_haar.family.float_weight, dtype=np.float64)[a],
            post=np.array([sqrt_adj[k] for k in keys], dtype=np.float64),
        )

    @cached_property
    def inner_product_table(self) -> IndexTable:
        """`cstar.inner_product` over (point x, arrow η) in
        `space.right.pairs()` order: conj f(x)·λ(x) times g(x·η), into η."""
        _, x, eta, image = _pair_arrays(self.space.right)
        return IndexTable(
            x, image, eta, self.right.n_arrows,
            pre=np.asarray(self.family.float_weight, dtype=np.float64)[x],
        )

    @cached_property
    def right_action_table(self) -> IndexTable:
        """`cstar.right_action` over (point z, arrow k) in
        `space.right.pairs()` order: f(z)·ψ(k)·w(k⁻¹), into z·k."""
        _, z, k, image = _pair_arrays(self.space.right)
        w = np.asarray(self.right_haar.family.float_weight, dtype=np.float64)
        inv = np.asarray(self.right.inv, dtype=np.intp)
        return IndexTable(z, k, image, self.space.n_points, post=w[inv[k]])

    @cached_property
    def exact(self) -> bool:
        return (
            self.left_haar.exact
            and self.right_haar.exact
            and self.family.exact
            and all_exact(self.adjoining.value)
        )

    def __repr__(self) -> str:
        return (
            f"Correspondence({self.left!r} -> {self.right!r}, "
            f"{self.space.n_points} points)"
        )


def _pair_arrays(act) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray]:
    """An action's table keys in `pairs()` order, with their two index
    columns and their images as arrays."""
    keys = list(act.pairs())
    cols = np.array(keys, dtype=np.intp).reshape(-1, 2)
    image = np.array([act.table[k] for k in keys], dtype=np.intp)
    return keys, cols[:, 0], cols[:, 1], image


def derive_adjoining(
    left_haar: HaarSystem, space: Bispace, family: MeasureFamily
) -> tuple[tuple[Scalar, ...], FiniteGroupoid, dict[tuple[int, int], int]]:
    """The Radon-Nikodym cocycle of the family under the left action.

    For an arrow η acting on a point z,

        Δ(η, z) = w(η⁻¹) λ(z) / (w(η) λ(ηz)).

    Term-by-term this is the unique function making the quasi-invariance
    identity hold on point masses, hence (by spanning) on all test
    functions.  The cocycle property is verified by the caller.
    """
    g = left_haar.groupoid
    tg, idx = transformation_groupoid(space.left)
    values: list[Scalar] = [ONE] * tg.n_arrows
    for (a, p), k in idx.items():
        q = space.left.table[(a, p)]
        values[k] = (left_haar.w(g.inv[a]) * family.weight[p]) / (
            left_haar.w(a) * family.weight[q]
        )
    return tuple(values), tg, idx


def _quasi_invariance_deviations(
    left_haar: HaarSystem,
    space: Bispace,
    family: MeasureFamily,
    adjoining_at: Callable[[int, int], Scalar],
    pairs: Iterable[tuple[int, int]],
) -> Iterator[tuple[float, tuple[int, int]]]:
    """The (d, (η, z)) over `pairs` with nonzero d = `rdev` of the two
    sides of the quasi-invariance identity at the point mass (η, z), in
    order."""
    g, table, w, lam = left_haar.groupoid, space.left.table, left_haar.family.weight, family.weight
    for a, p in pairs:
        lhs = (w[g.inv[a]], lam[p])
        rhs = (adjoining_at(a, p), w[a], lam[table[(a, p)]])
        if not same_product(lhs, rhs) and (d := rdev(lhs[0] * lhs[1], rhs[0] * rhs[1] * rhs[2])):
            yield d, (a, p)


def quasi_invariance_residual(
    left_haar: HaarSystem,
    space: Bispace,
    family: MeasureFamily,
    adjoining_at: Callable[[int, int], Scalar],
    on_generators: bool = False,
) -> tuple[float, Optional[str]]:
    """Worst point-mass violation of the quasi-invariance identity.

    On the point mass at (η, z) the two double sums collapse to

        w(η⁻¹) λ(z)   versus   Δ(η, z) w(η) λ(ηz),

    so the sweep below spans all test functions by linearity.

    `on_generators` sweeps `generators_first`, with the probe over the
    lifts (s, z) of s in the left groupoid's `generators`
    (`ActionComposition.generators`).
    Lemma: the identity says Δ = D for D(η, z) = w(η⁻¹)λ(z) / (w(η)λ(ηz)).
    A Haar system built by `make_haar` is left invariant exactly, so
    w(η) = W(s(η)) for W(u) the weight of the identity at u, and
    D(η, z) = Φ(ηz)/Φ(z) with Φ(z) = W(r(z))/λ(z): a coboundary, hence a
    cocycle, and 1 at identities.  Where Δ is a cocycle too, the arrows on
    which Δ = D hold exactly are closed under composition, so Δ = D on the
    lifts implies Δ = D everywhere.  The caller sets `on_generators` only
    where that holds exactly: exact data whose `adjoining_cocycle` line
    passes; on float data the full sweep runs alone.
    """
    g = left_haar.groupoid
    devs = _quasi_invariance_deviations(left_haar, space, family, adjoining_at, space.left.pairs())
    if on_generators:
        at = space.left.points_at
        lifts = ((s, p) for s in g.generators for p in at[g.src[s]])
        devs = generators_first(_quasi_invariance_deviations(left_haar, space, family, adjoining_at, lifts), devs)
    worst, key = worst_of(devs)
    return worst, None if key is None else f"({g.arrow_ids[key[0]]}, {space.point_ids[key[1]]})"


def make_correspondence(
    left_haar: HaarSystem,
    right_haar: HaarSystem,
    space: Bispace,
    family: MeasureFamily,
    adjoining_values: Optional[Sequence[Scalar]] = None,
    check: bool = True,
    tol: float = DEFAULT_TOL,
    left_tg: Optional[tuple[FiniteGroupoid, dict[tuple[int, int], int]]] = None,
) -> Correspondence:
    """Assemble a correspondence, deriving the adjoining cocycle if absent.

    Given values are indexed like `transformation_groupoid(space.left)`;
    a caller that already built that groupoid for them passes it as
    `left_tg`.
    """
    if space.left.groupoid != left_haar.groupoid or space.right.groupoid != right_haar.groupoid:
        raise GcorrError("bispace actions do not match the given groupoids")
    if family.along != space.right.momentum or family.total_ids != space.point_ids:
        raise GcorrError("family must run along the right momentum map")
    if adjoining_values is None:
        values, tg, idx = derive_adjoining(left_haar, space, family)
    else:
        tg, idx = left_tg or transformation_groupoid(space.left)
        values = tuple(adjoining_values)
    adj = Cocycle1(tg, values)
    corr = Correspondence(left_haar, right_haar, space, family, adj, tg, idx)
    if check:
        rep = validate(corr, tol=tol)
        if not rep.passed:
            raise NotWellDefined("; ".join(c.render() for c in rep.failures()))
    return corr


def validate(corr: Correspondence, tol: float = DEFAULT_TOL) -> Report:
    """Check the measure data, with residuals and witnesses: λ is right
    invariant and Δ is a cocycle implementing its quasi-invariance.  The
    checked constructors that built the structure certified it."""
    rep = Report("correspondence")
    tg_right, _ = transformation_groupoid(corr.space.right)
    rep.notes["properness_max_fibre"] = check_proper(tg_right).max_card

    res, wit = invariance_residual(corr.space.right, corr.family.weight)
    rep.check("family_right_invariance", res, corr.family.exact, tol, wit)

    res, wit = check_cocycle(corr.adjoining)
    cocycle = rep.check("adjoining_cocycle", res, all_exact(corr.adjoining.value), tol, str(wit) if wit else None)

    # on the generators where the lemma of `quasi_invariance_residual` is exact
    res, wit = quasi_invariance_residual(
        corr.left_haar, corr.space, corr.family, corr.adjoining_at,
        on_generators=corr.exact and cocycle.passed,
    )
    rep.check("adjoining_identity", res, corr.exact, tol, wit)
    rep.notes["scalar_mode"] = "exact" if corr.exact else "float"
    return rep


# ---------------------------------------------------------------------------
# builders for the example catalog


def from_span(
    left_units: Sequence[str],
    right_units: Sequence[str],
    space_ids: Sequence[str],
    left_momentum: dict[str, str],
    right_momentum: dict[str, str],
    weights: Optional[dict[str, Scalar]] = None,
    left_haar: Optional[HaarSystem] = None,
    right_haar: Optional[HaarSystem] = None,
) -> Correspondence:
    """A correspondence between two spaces viewed as units-only groupoids.

    The data is just a span of finite sets  left <- space -> right  with a
    positive weight family along the right leg (point masses by default).
    """
    gl = left_haar.groupoid if left_haar else units_only_groupoid(left_units)
    gr = right_haar.groupoid if right_haar else units_only_groupoid(right_units)
    left_haar = left_haar or counting_haar(gl)
    right_haar = right_haar or counting_haar(gr)
    lm = tuple(gl.unit_index(left_momentum[p]) for p in space_ids)
    rm = tuple(gr.unit_index(right_momentum[p]) for p in space_ids)
    space = make_bispace(
        trivial_action("left", gl, space_ids, lm),
        trivial_action("right", gr, space_ids, rm),
    )
    w = tuple(ONE if weights is None else weights[p] for p in space_ids)
    fam = MeasureFamily(tuple(space_ids), gr.unit_ids, rm, w)
    return make_correspondence(left_haar, right_haar, space, fam)


def from_map(x_ids: Sequence[str], y_ids: Sequence[str], f: dict[str, str]) -> Correspondence:
    """The correspondence of a map f: X -> Y, running from Y to X.

    The space is X itself with point masses along the identity; the map
    enters as the left momentum.  The adjoining cocycle derives to 1.
    """
    for x in x_ids:
        if f.get(x) not in y_ids:
            raise GcorrError(f"f({x}) = {f.get(x)!r} is not a point of the target")
    return from_span(
        y_ids,
        x_ids,
        x_ids,
        left_momentum=f,
        right_momentum={x: x for x in x_ids},
    )


def check_group_hom(h: FiniteGroupoid, g: FiniteGroupoid, phi: dict[str, str]) -> dict[int, int]:
    """Validate a homomorphism between one-unit groupoids, as an index map."""
    if h.n_units != 1 or g.n_units != 1:
        raise NotAHomomorphism("expected one-unit groupoids")
    try:
        idx = {a: g.arrow_index(phi[h.arrow_ids[a]]) for a in range(h.n_arrows)}
    except KeyError as exc:
        raise NotAHomomorphism(f"φ is not total: missing {exc}") from exc
    for (a, b), c in h.comp.items():
        if g.comp[(idx[a], idx[b])] != idx[c]:
            raise NotAHomomorphism(
                f"φ({h.arrow_ids[a]})φ({h.arrow_ids[b]}) != φ({h.arrow_ids[c]})"
            )
    return idx


def from_group_hom(
    h: FiniteGroupoid,
    g: FiniteGroupoid,
    phi: dict[str, str],
    h_haar: Optional[HaarSystem] = None,
    g_haar: Optional[HaarSystem] = None,
) -> Correspondence:
    """The correspondence of a group homomorphism φ: H -> G.

    H translates on the group G through φ from the left, G from the right;
    the family is counting (finite groups are unimodular, so the inverted
    Haar measure is counting again and the adjoining cocycle derives to 1).
    """
    idx = check_group_hom(h, g, phi)
    h_haar = h_haar or counting_haar(h)
    g_haar = g_haar or counting_haar(g)
    pts = g.arrow_ids
    left = make_action(
        "left", h, pts, (0,) * len(pts),
        {(a, p): g.comp[(idx[a], p)] for a in range(h.n_arrows) for p in range(len(pts))},
    )
    right = make_action(
        "right", g, pts, (0,) * len(pts),
        {(p, b): g.comp[(p, b)] for p in range(len(pts)) for b in range(g.n_arrows)},
    )
    space = make_bispace(left, right)
    fam = MeasureFamily(pts, g.unit_ids, (0,) * len(pts), (ONE,) * len(pts))
    return make_correspondence(h_haar, g_haar, space, fam)


def subgroup_groupoid(g: FiniteGroupoid, elements: Sequence[str]) -> tuple[FiniteGroupoid, dict[str, str]]:
    """The subgroup on `elements` as its own one-unit groupoid.

    Raises NotASubgroup if the subset is not closed under composition and
    inverses or misses the identity.  Also returns the inclusion map.
    """
    if g.n_units != 1:
        raise NotASubgroup("ambient groupoid must be a group")
    subset = set(elements)
    ident = g.arrow_ids[g.unit_arrow[0]]
    if ident not in subset:
        raise NotASubgroup(f"identity {ident} missing")
    names = tuple(sorted(subset, key=g.arrow_index))
    for a in names:
        if g.arrow_ids[g.inv[g.arrow_index(a)]] not in subset:
            raise NotASubgroup(f"{a} has no inverse in the subset")
        for b in names:
            if g.arrow_ids[g.comp[(g.arrow_index(a), g.arrow_index(b))]] not in subset:
                raise NotASubgroup(f"{a}∘{b} escapes the subset")
    mult = {
        (a, b): g.arrow_ids[g.comp[(g.arrow_index(a), g.arrow_index(b))]]
        for a in names
        for b in names
    }
    return group_groupoid(names, mult, ident), {a: a for a in names}


def regular_bimodule(g: FiniteGroupoid, left_sub: Sequence[str], right_sub: Sequence[str]) -> Correspondence:
    """G as a bimodule over two subgroups: left_sub·x·right_sub, counting weights."""
    hg, _ = subgroup_groupoid(g, left_sub)
    kg, _ = subgroup_groupoid(g, right_sub)
    pts = g.arrow_ids
    left = make_action(
        "left", hg, pts, (0,) * len(pts),
        {
            (a, p): g.comp[(g.arrow_index(hg.arrow_ids[a]), p)]
            for a in range(hg.n_arrows)
            for p in range(len(pts))
        },
    )
    right = make_action(
        "right", kg, pts, (0,) * len(pts),
        {
            (p, b): g.comp[(p, g.arrow_index(kg.arrow_ids[b]))]
            for p in range(len(pts))
            for b in range(kg.n_arrows)
        },
    )
    space = make_bispace(left, right)
    fam = MeasureFamily(pts, kg.unit_ids, (0,) * len(pts), (ONE,) * len(pts))
    return make_correspondence(counting_haar(hg), counting_haar(kg), space, fam)


def induction_instance(
    g: FiniteGroupoid, h_elements: Sequence[str], k_elements: Sequence[str]
) -> tuple[Correspondence, Correspondence]:
    """The two subgroup correspondences (H -> G on G, then G -> K on G)."""
    hg, incl_h = subgroup_groupoid(g, h_elements)
    kg, _ = subgroup_groupoid(g, k_elements)
    first = from_group_hom(hg, g, incl_h)

    pts = g.arrow_ids
    left = make_action(
        "left", g, pts, (0,) * len(pts),
        {(a, p): g.comp[(a, p)] for a in range(g.n_arrows) for p in range(len(pts))},
    )
    right = make_action(
        "right", kg, pts, (0,) * len(pts),
        {
            (p, b): g.comp[(p, g.arrow_index(kg.arrow_ids[b]))]
            for p in range(len(pts))
            for b in range(kg.n_arrows)
        },
    )
    space = make_bispace(left, right)
    fam = MeasureFamily(pts, kg.unit_ids, (0,) * len(pts), (ONE,) * len(pts))
    second = make_correspondence(counting_haar(g), counting_haar(kg), space, fam)
    return first, second
