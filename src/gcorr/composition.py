"""Composition of correspondences.

Given correspondences (X, α): (G₁,χ₁) -> (G₂,χ₂) and (Y, β): (G₂,χ₂) ->
(G₃,χ₃), the composite lives on the orbit space Ω of the fibre product
Z = X ×_{G₂⁰} Y under the diagonal middle action.  The pipeline:

  1. product family m on Z from α and β;
  2. Ω and the family λ along π: Z -> Ω, from the middle transformation
     groupoid Z⋊G₂ reduced to R = {(x₀, y)}, x₀ the base of each
     G₂-orbit of X (`build_middle_groupoid`);
  3. the obstruction cocycle Δ((x,y),γ) = Δ₂(γ⁻¹, y) on Z⋊G₂;
  4. its canonical splitting b (so that b·m is symmetric);
  5. the pushed-down family μ on Ω with b·m = μ∘λ;
  6. the composite adjoining cocycle Δ₁₂(η,[x,y]) = b(ηx,y)⁻¹ Δ₁(η,x) b(x,y).

Every quantity that steps 3–6 need depends on one leg of z = (x, y) only,
so `compose` computes it on that leg and makes no scalar pass over the
arrows of Z⋊G₂.  The leg identities rest on one map: φ(z, γ) = (γ, γ⁻¹·y)
is a groupoid homomorphism Z⋊G₂ -> G₂⋉Y that maps the range fibre at z
bijectively onto the range fibre at y, and pulls back the Haar system
α₂ (`leg_haar`) to χ and the y-leg cocycle a ↦ Δ₂(a⁻¹) (`build_delta_z`)
to δ_Z.  Hence:

  * b(x, y) = B(y) and e(x, y) = 1/h₂(r(y)), with B the split of the
    y-leg cocycle and e the cutoff, both on G₂⋉Y (`build_b`,
    `default_cutoff`); B's split residual is the b_ratio_relation line;
  * λ_π(z) = w₂(m(z))·|G₂^{m(z)}|/|[z]| by orbit–stabiliser
    (`build_lambda_pi`), checked on R (`lambda_pi_rep_independence`);
  * b·m is symmetric on Z⋊G₂ iff B·β is on G₂⋉Y, since X's family is
    G₂-invariant (`build_mu`);
  * Δ₁₂ is read at orbit representatives; it is well defined because Δ₁
    is G₂-invariant on X (`delta1_invariance_residual`);
  * δ_Z is a cocycle because Y's adjoining cocycle is (its cached sweep,
    the delta_z_cocycle line), and its G₃ invariance is Δ₂(γ, y·c) =
    Δ₂(γ, y) on the y legs of Z (`delta_z_invariance_residuals`).

The integer skeleton is built by lemma, with no sweep, and only as far
as `compose` reads it: Z's G₃ table from the X and Y tables
(`build_z_bispace`), the reduction to R with χ = α₂ arrow by arrow
(`build_middle_groupoid`), and Ω's outer actions from the legs
(`build_omega_bispace`): Θ(n²) work on the ladder, where Z⋊G₂ has n³
arrows.  Their axioms follow from those of the inputs, certified at
parse; the tests hold the sweeps that would re-check them as oracles.
`fp.diagonal`, `tg_z` with `tg_z_index` and `chi`, `delta_z` and Z's
outer G₁ table `z_bispace.left` are built only when read.
Every residual line and stage guard is judged by `report.passes`: 0 on
exact data, `tol` on float data; `lambda_pi_rep_independence` is exact
on any data.

Each fact is certified once.  μ is the unique measure with b·m = μ∘λ_π,
so the mu_disintegration line also says that μ is normalized and does
not depend on the cutoff; the symmetry of b·m is a `build_mu` stage
error; and the invariance of μ and the cocycle identity of Δ₁₂ are lines
of the composite's own final `validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .cohomology import (
    Cochain0,
    Cocycle1,
    check_cocycle,
    coboundary_residual,
    decompose_multiplicative,
    invariant_probability_family,
)
from .correspondence import Correspondence, make_correspondence, validate
from .groupoids import (
    Bispace,
    FibreProduct,
    FiniteGroupoid,
    GSpaceAction,
    OrbitSpace,
    fibre_product,
    orbit_space,
    transformation_groupoid,
    units_only_groupoid,
)
from .measures import (
    HaarSystem,
    MeasureFamily,
    NotInvariant,
    default_cutoff,
    disintegration_residual,
    invariance_residual,
    is_symmetric,
    push_down,
    quotient_family,
    unit_measure,
)
from .report import DEFAULT_TOL, Report, passes
from .util import GcorrError, IndexTable, ONE, Scalar, adev, all_exact, rdev, to_float, worst_of


class GroupoidMismatch(GcorrError):
    pass


class CompositionStageError(GcorrError):
    """A failing stage; `report` holds the report lines recorded before it."""

    def __init__(self, stage: str, cause: Exception, report: Optional[Report] = None):
        self.stage = stage
        self.cause = cause
        self.report = report
        super().__init__(f"stage {stage}: {cause}")


@dataclass(frozen=True, eq=False)
class CompositionResult:
    corr_x: Correspondence
    corr_y: Correspondence
    fp: FibreProduct  # Z; its diagonal middle action is built when read
    z_bispace: ZBispace  # outer G₁-G₃ structure on Z
    orbits: OrbitSpace  # π: Z -> Ω
    reduction: MiddleReduction  # Z⋊G₂ reduced to R = {(x₀, y)}; `z_of` lists R
    omega: Bispace
    m: MeasureFamily  # on Z along s_Z
    lambda_pi: MeasureFamily  # along π
    b: Cochain0  # on the units of Z (one value per point of Z)
    e: tuple[Scalar, ...]  # normalized cutoff on Z
    mu: MeasureFamily  # on Ω along s_Ω
    delta12: Cocycle1  # on G₁⋉Ω
    composite: Correspondence
    report: Report

    @property
    def exact(self) -> bool:
        return self.mu.exact and all_exact(self.delta12.value)

    @cached_property
    def _middle(self) -> tuple[FiniteGroupoid, dict[tuple[int, int], int]]:
        """Z⋊G₂ and its index, built when first read: `compose` works on
        its reduction to R (`build_middle_groupoid`)."""
        return transformation_groupoid(self.fp.diagonal)

    tg_z = property(lambda self: self._middle[0])
    tg_z_index = property(lambda self: self._middle[1])

    @cached_property
    def chi(self) -> HaarSystem:
        """χ(z, γ) = α₂(γ) on Z⋊G₂, left invariant because α₂ is:
        (z, η)∘(zη, γ) = (z, η∘γ)."""
        return induced_haar(
            self.tg_z, ((k, a) for (_, a), k in self.tg_z_index.items()), self.corr_x.right_haar
        )

    @cached_property
    def delta_z(self) -> Cocycle1:
        """The obstruction cocycle on Z⋊G₂, δ_Z(z, γ) = Δ₂(γ⁻¹, y), built
        when first read: `compose` works with its y leg instead."""
        g2, y_of = self.corr_y.left, [y for _, y in self.fp.pairs]
        values = [ONE] * self.tg_z.n_arrows
        for (z, a), k in self.tg_z_index.items():
            values[k] = self.corr_y.adjoining_at(g2.inv[a], y_of[z])
        return Cocycle1(self.tg_z, tuple(values))

    @cached_property
    def ell(self) -> tuple[float, ...]:
        """Per-point weights b^{-1/2}·λ_π of the comparison map."""
        return tuple(
            to_float(self.b.value[z]) ** -0.5 * to_float(self.lambda_pi.weight[z])
            for z in range(len(self.fp.pairs))
        )

    @cached_property
    def pairs_by_x(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each point x of X, its (y, z) pairs with z = (x, y) in Z."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.corr_x.space.n_points)]
        for z, (x, y) in enumerate(self.fp.pairs):
            out[x].append((y, z))
        return tuple(tuple(row) for row in out)

    @cached_property
    def comparison_table(self) -> IndexTable:
        """`cstar.lambda_prime` over z = (x, y) in `pairs_by_x` order:
        f(x)·g(y)·ell[z], into π(z)."""
        xyz = np.array(
            [(x, y, z) for x, row in enumerate(self.pairs_by_x) for y, z in row], dtype=np.intp
        ).reshape(-1, 3)
        z = xyz[:, 2]
        return IndexTable(
            xyz[:, 0], xyz[:, 1],
            np.asarray(self.orbits.proj, dtype=np.intp)[z], self.orbits.n_orbits,
            post=np.asarray(self.ell, dtype=np.float64)[z],
        )


def _require_chainable(corr_x: Correspondence, corr_y: Correspondence) -> None:
    if corr_x.right != corr_y.left or corr_x.right_haar != corr_y.left_haar:
        raise GroupoidMismatch(
            "right groupoid/Haar system of the first correspondence must equal "
            "the left one of the second"
        )


def induced_haar(
    tg: FiniteGroupoid, arrows: Iterable[tuple[int, int]], haar: HaarSystem
) -> HaarSystem:
    """The Haar system of an action groupoid `tg` whose arrow k, for each
    (k, γ) of `arrows`, weighs haar.w(γ); each caller states why it is
    left invariant."""
    weights = [ONE] * tg.n_arrows
    for k, a in arrows:
        weights[k] = haar.w(a)
    return HaarSystem(tg, MeasureFamily(tg.arrow_ids, tg.unit_ids, tg.dst, tuple(weights)))


@dataclass(frozen=True, eq=False)
class ZBispace:
    """Z's outer actions a·(x, y)·c = (a·x, y·c).  The G₁ table, which
    `compose` reads off the legs instead, is built when `left` is first
    read; the point ids and momenta read the fibre product."""

    x_left: GSpaceAction  # G₁ on X
    fp: FibreProduct
    right: GSpaceAction  # G₃ on Z

    @property
    def point_ids(self) -> tuple[str, ...]:
        return self.fp.point_ids

    @property
    def n_points(self) -> int:
        return len(self.fp.pairs)

    def r_momentum(self, p: int) -> int:
        return self.x_left.momentum[self.fp.pairs[p][0]]

    def s_momentum(self, p: int) -> int:
        return self.right.momentum[p]

    @cached_property
    def left(self) -> GSpaceAction:
        x_left, fp = self.x_left, self.fp
        r_mom = tuple(x_left.momentum[x] for x, _ in fp.pairs)
        table = {
            (a, z): fp.index[(x_left.table[(a, x)], y)]
            for z, (x, y) in enumerate(fp.pairs)
            for a in x_left.groupoid.fibre_src[r_mom[z]]
        }
        return GSpaceAction("left", x_left.groupoid, fp.point_ids, r_mom, table)


def build_z_bispace(corr_x: Correspondence, corr_y: Correspondence, fp: FibreProduct) -> ZBispace:
    """The outer actions on Z: G₁ moves the X leg, G₃ the Y leg.

    The tables are built directly, with no axiom sweep.  Lemma: on Z the
    product a·(x, y)·c = (a·x, y·c) is a G₁-G₃ bispace whenever X and Y
    are bispaces, because the two groupoids act on different legs and
    a·x keeps the right momentum of x (so (a·x, y) stays in Z).  Those
    axioms were checked when X and Y were built.  Each image is looked up
    in the fibre product's index, so a broken lemma raises KeyError
    rather than storing a point outside Z.
    """
    y_right = corr_y.space.right
    g3 = y_right.groupoid
    s_mom = tuple(y_right.momentum[y] for _, y in fp.pairs)
    right_table = {
        (z, c): fp.index[(x, y_right.table[(y, c)])]
        for z, (x, y) in enumerate(fp.pairs)
        for c in g3.fibre_dst[s_mom[z]]
    }
    return ZBispace(corr_x.space.left, fp, GSpaceAction("right", g3, fp.point_ids, s_mom, right_table))


def build_m(
    corr_x: Correspondence, corr_y: Correspondence, fp: FibreProduct, z_bispace: ZBispace
) -> tuple[MeasureFamily, tuple[float, Optional[str]]]:
    """The product family on Z along s_Z, with its G₃ invariance residual
    and witness."""
    weight = tuple(
        corr_x.family.weight[x] * corr_y.family.weight[y] for x, y in fp.pairs
    )
    m = MeasureFamily(fp.point_ids, corr_y.right.unit_ids, z_bispace.right.momentum, weight)
    return m, invariance_residual(z_bispace.right, weight)


@dataclass(frozen=True)
class Transversal:
    """The orbits of a right action, each based at its representative x₀,
    with t[x] such that x₀·t[x] = x (the identity at x₀) and the
    stabilisers Stab(x₀) = {σ : x₀·σ = x₀}."""

    orbits: OrbitSpace
    base: tuple[int, ...]  # point -> the base x₀ of its orbit
    t: tuple[int, ...]
    stab: tuple[tuple[int, ...], ...]  # orbit -> Stab(x₀)


def transversal(act: GSpaceAction) -> Transversal:
    """`orbit_space` of a right action with its `Transversal`, in
    O(arrows): the orbit of x₀ is {x₀·γ : γ ∈ G^{m(x₀)}}, so one pass over
    that fibre finds every t and Stab(x₀)."""
    orbits = orbit_space(act)
    g, table = act.groupoid, act.table
    t: list[Optional[int]] = [None] * act.n_points
    stab = []
    for x0 in orbits.reps:
        u = act.momentum[x0]
        t[x0] = g.unit_arrow[u]
        fixed = []
        for a in g.fibre_dst[u]:
            x = table[(x0, a)]
            if t[x] is None:
                t[x] = a
            if x == x0:
                fixed.append(a)
        stab.append(tuple(fixed))
    base = tuple(orbits.reps[o] for o in orbits.proj)
    return Transversal(orbits, base, tuple(t), tuple(stab))  # type: ignore[arg-type]


@dataclass(frozen=True, eq=False)
class MiddleReduction:
    """Z⋊G₂ reduced to R = {(x₀, y) : x₀ the base of its X-orbit,
    y ∈ Y_{s(x₀)}}: the action groupoid of `action`."""

    action: GSpaceAction  # R under ⊔ Stab(x₀): (x₀, y)·σ = (x₀, σ⁻¹·y)
    groupoid: FiniteGroupoid
    chi: HaarSystem  # ((x₀, y), σ) weighs α₂(σ)
    z_of: tuple[int, ...]  # point of R -> the same point of Z
    r_of: tuple[int, ...]  # (x, y) in Z -> (x₀, t_x·y) in R


def build_middle_groupoid(fp: FibreProduct, xt: Transversal, chi2: HaarSystem) -> MiddleReduction:
    """Z⋊G₂ reduced to R with χ restricted, built with no sweep in
    O(|Z| + Σ_{[x₀]} |Stab(x₀)|·(|Stab(x₀)| + |Y_{s(x₀)}|)).

    Lemma (balanced product by stabilisers): with x = x₀·t_x,
    (x, y) = (x₀, t_x·y)·t_x, so every orbit of Z meets R; and
    (x₀, y)·γ = (x₀·γ, γ⁻¹·y) lies in R iff γ ∈ Stab(x₀).  So R is a full
    transversal, whose reduction has the orbits of Z⋊G₂ met with R and is
    Morita equivalent to it (Muhly–Renault–Williams, J. Operator Theory
    17, 1987); Ω ≅ ⊔_{[x₀]} Stab(x₀)\\Y_{s(x₀)}.  It is the action
    groupoid of H = ⊔_{[x₀]} Stab(x₀), one unit per orbit of X, on R.
    """
    g2, y_left = chi2.groupoid, fp.y_left
    x_ids, bases, orbit_of = fp.x_right.point_ids, xt.orbits.reps, xt.orbits.proj
    h_arrows = [(o, s) for o, stab in enumerate(xt.stab) for s in stab]
    h_index = {key: k for k, key in enumerate(h_arrows)}
    h = FiniteGroupoid(
        tuple(x_ids[x0] for x0 in bases),
        tuple(f"({x_ids[bases[o]]};{g2.arrow_ids[s]})" for o, s in h_arrows),
        tuple(o for o, _ in h_arrows),
        tuple(o for o, _ in h_arrows),
        {
            (h_index[(o, s)], h_index[(o, s2)]): h_index[(o, g2.comp[(s, s2)])]
            for o, stab in enumerate(xt.stab) for s in stab for s2 in stab
        },
        tuple(h_index[(o, g2.inv[s])] for o, s in h_arrows),
        tuple(h_index[(o, xt.t[x0])] for o, x0 in enumerate(bases)),
    )
    base, t = xt.base, xt.t
    z_of = tuple(z for z, (x, _) in enumerate(fp.pairs) if base[x] == x)
    r_pairs = [fp.pairs[z] for z in z_of]
    r_index = {pair: r for r, pair in enumerate(r_pairs)}
    table = {
        (r, k): r_index[(x0, y_left.table[(g2.inv[h_arrows[k][1]], y)])]
        for r, (x0, y) in enumerate(r_pairs)
        for k in h.fibre_dst[orbit_of[x0]]
    }
    r_of = tuple(r_index[(base[x], y_left.table[(t[x], y)])] for x, y in fp.pairs)
    act = GSpaceAction(
        "right", h, tuple(fp.point_ids[z] for z in z_of), tuple(orbit_of[x0] for x0, _ in r_pairs), table
    )
    tg, idx = transformation_groupoid(act)
    # left invariant as χ is on Z⋊G₂: (r, η)∘(r·η, σ) = (r, η∘σ)
    chi = induced_haar(tg, ((i, h_arrows[k][1]) for (_, k), i in idx.items()), chi2)
    return MiddleReduction(act, tg, chi, z_of, r_of)


def middle_orbits(fp: FibreProduct, red: MiddleReduction, r_orbits: OrbitSpace) -> OrbitSpace:
    """Ω = Z/G₂ from the orbits of the reduction: (x, y) lies in the
    class of (x₀, t_x·y).  O(|Z|).  As `orbit_space` orders orbits, each
    is represented by its smallest point id, in order of that id."""
    ids, r_proj = fp.point_ids, r_orbits.proj
    members: list[list[int]] = [[] for _ in range(r_orbits.n_orbits)]
    for z, r in enumerate(red.r_of):
        members[r_proj[r]].append(z)
    reps = [min(group, key=ids.__getitem__) for group in members]
    order = [k for _, k in sorted((ids[rep], k) for k, rep in enumerate(reps))]
    proj = [0] * len(ids)
    for o, k in enumerate(order):
        for z in members[k]:
            proj[z] = o
    return OrbitSpace(tuple(f"[{ids[reps[k]]}]" for k in order), tuple(proj), tuple(reps[k] for k in order))


def build_lambda_pi(fp: FibreProduct, orbits: OrbitSpace, chi2: HaarSystem) -> MeasureFamily:
    """The family λ_π along π: w₂(m(z)) added |G₂^{m(z)}|/|[z]| times,
    in O(|Z| + Σ_z |Stab z|).

    Lemma (orbit–stabiliser): λ_π(z) weighs the arrows γ ∈ G₂^{m(r)} with
    r·γ = z, for r any base point of the orbit [z].  They form a coset of
    the stabiliser of z, so there are |G₂^{m(z)}|/|[z]| of them whatever r
    is.  Each has source m(z), and left invariance of α₂ gives α₂(γ) =
    w₂(m(z)), the weight of the unit arrow at m(z).  So the fibre measure
    is that many copies of w₂(m(z)), added in sequence as
    `quotient_family` adds them, and the choice of r cannot move it.
    """
    g2, x_mom = chi2.groupoid, fp.x_right.momentum
    weight: list[Scalar] = [ONE] * len(fp.pairs)
    for members in orbits.members:
        for z in members:
            u = x_mom[fp.pairs[z][0]]
            w = total = chi2.w(g2.unit_arrow[u])
            for _ in range(len(g2.fibre_dst[u]) // len(members) - 1):
                total = total + w
            weight[z] = total
    return MeasureFamily(fp.point_ids, orbits.orbit_ids, orbits.proj, tuple(weight))


def lambda_pi_rep_independence(
    red: MiddleReduction, r_orbits: OrbitSpace, lambda_pi: MeasureFamily
) -> tuple[float, Optional[str]]:
    """Worst `adev` over R of λ_π from the fibre measure of the reduction
    (`quotient_family`), and the first point attaining it (None if 0).
    By `build_lambda_pi`'s lemma, with |G₂^u|/|[z]| = |Stab(x₀)|/|orbit
    in R|, the two sum the same terms in the same order."""
    lam_r = quotient_family(red.chi, r_orbits)
    worst, r = worst_of(
        (d, r) for r, z in enumerate(red.z_of) if (d := adev(lam_r.weight[r], lambda_pi.weight[z]))
    )
    return worst, None if r is None else lam_r.total_ids[r]


def leg_haar(corr_y: Correspondence) -> HaarSystem:
    """α₂ pulled back to G₂⋉Y: the arrow (γ, y) weighs α₂(γ).

    Lemma: left invariance forces α₂(γ) = w₂(src γ) = w₂(r(y)), a
    function of the source y of the arrow, so the pullback is left
    invariant on G₂⋉Y with no sweep.
    """
    return induced_haar(
        corr_y.left_tg, ((k, a) for (a, _), k in corr_y.left_tg_index.items()), corr_y.left_haar
    )


def build_delta_z(corr_y: Correspondence) -> Cocycle1:
    """The y leg of the obstruction cocycle: a ↦ Δ₂(a⁻¹) on G₂⋉Y, so the
    arrow (γ, γ⁻¹·y) of the range fibre at y carries Δ₂(γ⁻¹, y).

    δ_Z = δ_Y∘φ for φ(z, γ) = (γ, γ⁻¹·y) (module docstring), and a ↦
    Δ₂(a⁻¹) is a cocycle whenever Δ₂ is one, values commuting.
    """
    tg = corr_y.left_tg
    value = corr_y.adjoining.value
    return Cocycle1(tg, tuple(value[i] for i in tg.inv))


def delta_z_invariance_residuals(corr_y: Correspondence, fp: FibreProduct) -> tuple[float, Optional[str]]:
    """(worst, witness) of the G₃ invariance of δ_Z.

    It rests on δ_Z(z, γ) = Δ₂(γ⁻¹, y), which holds by construction
    (`build_delta_z`): δ_Z reads only the y leg of z.  (x, y)·c = (x, y·c),
    so the line is Δ₂(γ, y·c) = Δ₂(γ, y) on Y for the y legs of Z, with no
    sweep of the middle fibre of every outer pair.  G₁ invariance is
    exact: a·(x, y) = (a·x, y) keeps the y leg.
    """
    g2, y_left, y_right, at = corr_y.left, corr_y.space.left, corr_y.space.right, corr_y.adjoining_at
    worst, key = worst_of(
        (d, (y, c))
        for y in sorted({y for _, y in fp.pairs})
        for c in y_right.groupoid.fibre_dst[y_right.momentum[y]]
        for y1 in [y_right.table[(y, c)]]
        for a in g2.fibre_dst[y_left.momentum[y]]
        if (d := rdev(at(g2.inv[a], y1), at(g2.inv[a], y)))
    )
    return worst, None if key is None else f"({y_right.point_ids[key[0]]}, {y_right.groupoid.arrow_ids[key[1]]})"


def _z_invariance_residuals(values: Sequence[Scalar], z_bispace: ZBispace) -> tuple[float, Optional[str]]:
    """(worst, witness) of the invariance of a function on Z under the
    outer G₃ action.

    Its G₁ invariance is not a line.  The canonical b reads only the y
    leg, and a·(x, y) = (a·x, y) keeps it, so there the line could not
    fail; an override b′ = ρ·b with ρ orbit-constant need not be G₁
    invariant, and Δ₁₂ = b(z)·Δ₁(a, x)/b(a·z) carries ρ∘src/ρ∘dst for it
    (`build_delta12`), so there the line failed a valid cochain.
    """
    return invariance_residual(z_bispace.right, values)


def build_b(delta: Cocycle1, tg: FiniteGroupoid, haar: HaarSystem) -> Cochain0:
    """Split the obstruction cocycle with the canonical probability family
    (constant profile); exact whenever the cocycle and the Haar system are.

    Run on the y leg (G₂⋉Y, `leg_haar`, `build_delta_z`) it gives B with
    b(x, y) = B(y): φ maps each range fibre of Z⋊G₂ bijectively onto one
    of G₂⋉Y and pulls back χ and δ_Y, so the fibre masses, the
    probability weights and the p-averages of δ⁻¹ agree term by term.
    """
    p = invariant_probability_family(tg, haar)
    return decompose_multiplicative(delta, p)


def override_split_residual(
    corr_y: Correspondence, fp: FibreProduct, orbits: OrbitSpace, b: Cochain0
) -> tuple[float, Optional[str]]:
    """Worst split deviation of a cochain b on Z from δ_Z over the arrows
    (r, γ) of Z⋊G₂ into the orbit representatives r, `rdev` of
    δ_Z(r, γ)·b(r) against b(r·γ), and the first arrow attaining it.

    Lemma: every arrow (z, η) of Z⋊G₂ is (r, γ)⁻¹∘(r, γ∘η) with z = r·γ,
    so these arrows generate Z⋊G₂; δ_Z and the coboundary of b are both
    cocycles, so where they agree on the generators they agree on every
    arrow.  r·γ = (x·γ, γ⁻¹·y) is read off the legs, so each member of an
    orbit is compared directly with its representative.  O(Σ_z |Stab z|).
    """
    g2, x_right, y_left, bv = corr_y.left, fp.x_right, fp.y_left, b.value
    worst, key = worst_of(
        (d, (r, a))
        for r in orbits.reps
        for x, y in [fp.pairs[r]]
        for a in g2.fibre_dst[x_right.momentum[x]]
        if (d := rdev(
            corr_y.adjoining_at(g2.inv[a], y) * bv[r],
            bv[fp.index[(x_right.table[(x, a)], y_left.table[(g2.inv[a], y)])]],
        ))
    )
    return worst, None if key is None else f"({fp.point_ids[key[0]]};{g2.arrow_ids[key[1]]})"


def build_mu(
    m: MeasureFamily,
    b: Cochain0,
    e: Sequence[Scalar],
    lambda_pi: MeasureFamily,
    orbits: OrbitSpace,
    omega: Bispace,
    bm_y: Sequence[Scalar],
    haar_y: HaarSystem,
    tol: float = DEFAULT_TOL,
) -> tuple[MeasureFamily, tuple[float, Optional[int]]]:
    """Push b·m down to Ω with the cutoff e, as the sum of m against e·b;
    returns (μ, the disintegration residual of b·m against μ∘λ_π with the
    first point of Z attaining it).

    Raises NotInvariant, naming the worst arrow of G₂⋉Y, when B·β (`bm_y`)
    is not symmetric there, that is when `is_symmetric`'s residual fails
    `passes` at `tol`.  Lemma: on the arrow (z, γ) of Z⋊G₂ the two sides of
    the symmetry of b·m are λ(x)·B(y)β(y)·α₂(γ) and
    λ(x·γ)·B(γ⁻¹y)β(γ⁻¹y)·α₂(γ⁻¹); X's family is G₂-invariant
    (`family_right_invariance` of X), so they agree iff B·β is symmetric
    at φ(z, γ).  An orbit-constant change of b keeps the symmetry.
    """
    bm_y = unit_measure(haar_y.groupoid, bm_y)
    res, witness = is_symmetric(bm_y, haar_y)
    if not passes(res, haar_y.exact and bm_y.exact, tol):
        raise NotInvariant(res, "b·m is not symmetric", witness)
    weight = push_down(orbits, e, b.value, m.weight)
    mu = MeasureFamily(orbits.orbit_ids, m.base_ids, omega.right.momentum, weight)
    return mu, disintegration_residual(weight, lambda_pi.weight, orbits, b.value, m.weight)


def build_omega_bispace(
    corr_x: Correspondence, corr_y: Correspondence, fp: FibreProduct, orbits: OrbitSpace
) -> Bispace:
    """Descend the outer actions to the orbit space, read at the orbit
    representatives.  The tables are built directly, with no axiom sweep.

    Lemma: G₁ and G₃ commute with the diagonal G₂ action, because X and Y
    are bispaces: a·((x, y)·γ) = (a·(x·γ), γ⁻¹·y) = ((a·x)·γ, γ⁻¹·y) =
    (a·(x, y))·γ, and likewise (γ⁻¹·y)·c = γ⁻¹·(y·c) on the y leg.  The
    right action of G₂ keeps the left momentum of X and the left action
    keeps the right momentum of Y, so both outer momenta are constant on
    the orbits.  Hence the outer actions map orbits to orbits whatever
    member is moved, and the action and bispace axioms on Ω are the images
    under π of those on Z (`build_z_bispace`).  a·(x, y) = (a·x, y) and
    (x, y)·c = (x, y·c) are read off the legs.
    """
    x_left, y_right = corr_x.space.left, corr_y.space.right
    g1, g3 = x_left.groupoid, y_right.groupoid
    rep_pairs = [fp.pairs[r] for r in orbits.reps]
    r_mom = tuple(x_left.momentum[x] for x, _ in rep_pairs)
    s_mom = tuple(y_right.momentum[y] for _, y in rep_pairs)
    left_table = {}
    right_table = {}
    for o, (x, y) in enumerate(rep_pairs):
        for a in g1.fibre_src[r_mom[o]]:
            left_table[(a, o)] = orbits.proj[fp.index[(x_left.table[(a, x)], y)]]
        for c in g3.fibre_dst[s_mom[o]]:
            right_table[(o, c)] = orbits.proj[fp.index[(x, y_right.table[(y, c)])]]
    return Bispace(
        GSpaceAction("left", g1, orbits.orbit_ids, r_mom, left_table),
        GSpaceAction("right", g3, orbits.orbit_ids, s_mom, right_table),
    )


def build_delta12(
    corr_x: Correspondence,
    fp: FibreProduct,
    orbits: OrbitSpace,
    omega: Bispace,
    b: Cochain0,
) -> tuple[tuple[Scalar, ...], FiniteGroupoid, dict[tuple[int, int], int]]:
    """The values of the composite adjoining cocycle on G₁⋉Ω, evaluated at
    the stored orbit representatives, with G₁⋉Ω and its index.

    With the canonical b, b(a·x, y) = B(y) = b(x, y), so Δ₁₂(a, [x, y]) is
    Δ₁(a, x), and a cochain b′ = ρ·b with ρ orbit-constant multiplies it
    by ρ∘src/ρ∘dst.  Either way the value does not depend on the member
    of the orbit once Δ₁ is G₂-invariant on X, which
    `delta1_invariance_residual` measures.
    """
    tg_omega, idx = transformation_groupoid(omega.left)
    x_left = corr_x.space.left.table
    values = [ONE] * tg_omega.n_arrows
    for (a, o), k in idx.items():
        rep = orbits.reps[o]
        x, y = fp.pairs[rep]
        b_rep, b_az, d = b.value[rep], b.value[fp.index[(x_left[(a, x)], y)]], corr_x.adjoining_at(a, x)
        # exact b·Δ₁/b is Δ₁ when one b object sits at both points, as the
        # canonical b does; float products are formed, as they round
        values[k] = d if b_rep is b_az and type(b_rep) is type(d) is Fraction else b_rep * d / b_az
    return tuple(values), tg_omega, idx


def delta1_invariance_residual(corr_x: Correspondence, x_orbits: OrbitSpace) -> tuple[float, Optional[str]]:
    """Worst `rdev` of Δ₁(a, x) from Δ₁(a, r), r the representative of the
    G₂-orbit of x in `x_orbits`, over the arrows of G₁⋉X, and the first
    (a, x) attaining it.  (a, r) is an arrow too: the right action keeps
    the left momentum.  O(|G₁⋉X|).

    Lemma: the members of the orbit [x, y] of Z have x legs in one
    G₂-orbit of X, so Δ₁₂ is well defined exactly when Δ₁(a, ·) is
    constant on the G₂-orbits of X that reach Z.
    """
    value, reps, proj = corr_x.adjoining.value, x_orbits.reps, x_orbits.proj
    worst, key = worst_of(
        (d, (a, x)) for (a, x), k in corr_x.left_tg_index.items()
        if (d := rdev(value[k], corr_x.adjoining_at(a, reps[proj[x]])))
    )
    return worst, None if key is None else f"({corr_x.left.arrow_ids[key[0]]}, {corr_x.space.point_ids[key[1]]})"


def compose(
    corr_x: Correspondence,
    corr_y: Correspondence,
    b_values: Optional[Sequence[Scalar]] = None,
    tol: float = DEFAULT_TOL,
) -> CompositionResult:
    """Run the whole pipeline and certify every step.

    `b_values` overrides the canonical middle cochain (it must split the
    obstruction cocycle; the report then records the positive ratio to the
    canonical one, which is constant on middle orbits).  Raises
    CompositionStageError on a failing stage; numerical residuals land in
    the report, judged as the module docstring says.
    """
    _require_chainable(corr_x, corr_y)
    report = Report("composition")
    chi2 = corr_x.right_haar

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GcorrError as exc:
            raise CompositionStageError(name, exc, report) from exc

    fp = stage("fibre_product", fibre_product, corr_x.space.right, corr_y.space.left)
    report.notes["z_points"] = len(fp.pairs)
    z_bispace = stage("z_bispace", build_z_bispace, corr_x, corr_y, fp)
    y_of = tuple(y for _, y in fp.pairs)

    m, (m_res, m_wit) = stage("build_m", build_m, corr_x, corr_y, fp, z_bispace)
    report.check("m_right_invariance", m_res, m.exact, tol, m_wit)

    # Ω from the orbits of X and their stabilisers (`build_middle_groupoid`)
    x_orbits = stage("x_orbits", transversal, corr_x.space.right)
    red = stage("middle_groupoid", build_middle_groupoid, fp, x_orbits, chi2)
    r_orbits = stage("orbit_space", orbit_space, red.action)
    orbits = stage("middle_orbits", middle_orbits, fp, red, r_orbits)
    report.notes["omega_points"] = orbits.n_orbits

    lam_pi = stage("build_lambda_pi", build_lambda_pi, fp, orbits, chi2)
    rep_res, rep_wit = lambda_pi_rep_independence(red, r_orbits, lam_pi)
    report.check("lambda_pi_rep_independence", rep_res, True, tol, rep_wit)

    # δ_Z is read off Y's adjoining cocycle at inverse arrows, so the
    # (cached) sweep of that cocycle certifies it
    haar_y = leg_haar(corr_y)
    delta_y = stage("build_delta_z", build_delta_z, corr_y)
    exact_dz = all_exact(delta_y.value)
    dz_res, dz_wit = check_cocycle(corr_y.adjoining)
    report.check("delta_z_cocycle", dz_res, exact_dz, tol, str(dz_wit) if dz_wit else None)
    g3_res, g3_wit = delta_z_invariance_residuals(corr_y, fp)
    report.check("delta_z_right_invariance", g3_res, exact_dz, tol, g3_wit)

    b_y = stage("build_b", build_b, delta_y, corr_y.left_tg, haar_y)
    z_units = units_only_groupoid(fp.point_ids)
    b = Cochain0(z_units, tuple(b_y.value[y] for y in y_of))
    # the split residual of B, already computed by the guard of
    # `decompose_multiplicative` (or below, for an override)
    split_res, split_wit = coboundary_residual(delta_y, b_y)
    if b_values is not None:
        override = Cochain0(z_units, tuple(b_values))
        split_res, split_wit = override_split_residual(corr_y, fp, orbits, override)
        if not report.check("override_b_splits_delta", split_res, exact_dz and all_exact(override.value), tol, split_wit).passed:
            raise CompositionStageError("build_b", GcorrError("supplied cochain does not split the obstruction cocycle"), report)
        ratio = tuple(b.value[z] / override.value[z] for z in range(len(y_of)))
        ratio_res, ratio_at = worst_of(
            (d, z) for z in range(len(y_of)) if (d := rdev(ratio[z], ratio[orbits.reps[orbits.proj[z]]]))
        )
        ratio_wit = None if ratio_at is None else fp.point_ids[ratio_at]
        report.check("override_b_ratio_orbit_constant", ratio_res, all_exact(ratio), tol, ratio_wit)
        b = override
    exact_b = all_exact(b.value)
    report.check("b_ratio_relation", split_res, exact_b, tol, split_wit)
    bg3, bg3_wit = _z_invariance_residuals(b.value, z_bispace)
    report.check("b_right_invariance", bg3, exact_b, tol, bg3_wit)

    # the cutoff 1/h is normalized because `invariant_probability_family`
    # (in build_b) requires h to be orbit-constant; e(x, y) = e_Y(y)
    e_y = default_cutoff(haar_y)
    e = tuple(e_y[y] for y in y_of)
    beta = corr_y.family.weight
    bm_y = tuple(b_y.value[y] * beta[y] for y in range(len(beta)))
    omega = stage("omega_bispace", build_omega_bispace, corr_x, corr_y, fp, orbits)
    mu, (dis_res, dis_at) = stage("build_mu", build_mu, m, b, e, lam_pi, orbits, omega, bm_y, haar_y, tol)
    exact_mu = mu.exact and exact_b
    report.check("mu_disintegration", dis_res, exact_mu, tol, None if dis_at is None else fp.point_ids[dis_at])

    values12, tg_omega, tg_omega_idx = stage(
        "build_delta12", build_delta12, corr_x, fp, orbits, omega, b
    )
    exact12 = all_exact(values12)
    wd_res, wd_wit = delta1_invariance_residual(corr_x, x_orbits.orbits)
    report.check("delta12_well_defined", wd_res, exact12, tol, wd_wit)
    # Δ₁₂ is the composite's adjoining cocycle itself: the final `validate`
    # certifies its cocycle identity and the invariance of μ
    composite = stage(
        "assemble", make_correspondence, corr_x.left_haar, corr_y.right_haar,
        omega, mu, values12, False, left_tg=(tg_omega, tg_omega_idx),
    )
    delta12 = composite.adjoining
    final = validate(composite, tol=tol)
    final.checks = [c.__class__("composite_" + c.name, c.passed, c.residual, c.witness) for c in final.checks]
    report.extend(final)
    report.notes["scalar_mode"] = "exact" if exact_mu and exact12 else "float"

    result = CompositionResult(
        corr_x, corr_y, fp, z_bispace, orbits, red, omega, m, lam_pi, b, e, mu, delta12,
        composite, report,
    )
    if not report.passed:
        raise CompositionStageError(
            "certification",
            GcorrError("; ".join(c.render() for c in report.failures())),
            report,
        )
    return result


# ---------------------------------------------------------------------------
# equality of correspondences up to an explicit bispace isomorphism


def find_bispace_isomorphism(
    a: Correspondence, b: Correspondence, max_points: int = 12, tol: float = DEFAULT_TOL
) -> Optional[dict[str, str]]:
    """An equivariant, measure-preserving bijection of spaces, or None.

    Both correspondences must share their groupoids and Haar systems on the
    nose.  Backtracking with forced propagation along both actions; meant
    for catalog-sized instances (`max_points` guards it).
    """
    if (
        a.left != b.left
        or a.right != b.right
        or a.left_haar != b.left_haar
        or a.right_haar != b.right_haar
        or a.space.n_points != b.space.n_points
    ):
        return None
    n = a.space.n_points
    if n > max_points:
        raise ValueError(f"instance too large for the brute-force search ({n} points)")

    # candidates are bucketed by momenta only: float weights that differ in
    # the last ulp must still meet, and `verify` compares them to `tol`
    def signature(corr: Correspondence, p: int):
        return corr.space.left.momentum[p], corr.space.right.momentum[p]

    sig_b: dict[tuple, list[int]] = {}
    for q in range(n):
        sig_b.setdefault(signature(b, q), []).append(q)

    def propagate(assign: dict[int, int], used: set[int]) -> bool:
        queue = list(assign.items())
        while queue:
            p, q = queue.pop()
            if a.space.left.momentum[p] != b.space.left.momentum[q] or (
                a.space.right.momentum[p] != b.space.right.momentum[q]
            ):
                return False
            forced = [
                (a.space.left.table[(arr, p)], b.space.left.table[(arr, q)])
                for arr in a.left.fibre_src[a.space.left.momentum[p]]
            ] + [
                (a.space.right.table[(p, arr)], b.space.right.table[(q, arr)])
                for arr in a.right.fibre_dst[a.space.right.momentum[p]]
            ]
            for p2, q2 in forced:
                if p2 in assign:
                    if assign[p2] != q2:
                        return False
                elif q2 in used:
                    return False
                else:
                    assign[p2] = q2
                    used.add(q2)
                    queue.append((p2, q2))
        return True

    def verify(assign: dict[int, int]) -> bool:
        for p in range(n):
            if signature(a, p) != signature(b, assign[p]):
                return False
            if rdev(a.family.weight[p], b.family.weight[assign[p]]) > tol:
                return False
        for (arr, p), k in a.left_tg_index.items():
            q = assign[p]
            if rdev(a.adjoining.value[k], b.adjoining_at(arr, q)) > tol:
                return False
        return True

    def search(assign: dict[int, int], used: set[int]) -> Optional[dict[int, int]]:
        if len(assign) == n:
            return dict(assign) if verify(assign) else None
        p = min(set(range(n)) - set(assign))
        for q in sig_b.get(signature(a, p), []):
            if q in used:
                continue
            trial = dict(assign)
            trial_used = set(used)
            trial[p] = q
            trial_used.add(q)
            if propagate(trial, trial_used):
                found = search(trial, trial_used)
                if found is not None:
                    return found
        return None

    found = search({}, set())
    if found is None:
        return None
    return {a.space.point_ids[p]: b.space.point_ids[q] for p, q in found.items()}
