"""Composition of correspondences.

Given correspondences (X, α): (G₁,χ₁) -> (G₂,χ₂) and (Y, β): (G₂,χ₂) ->
(G₃,χ₃), the composite lives on the orbit space Ω of the fibre product
Z = X ×_{G₂⁰} Y under the diagonal middle action.  The pipeline:

  1. product family m on Z from α and β;
  2. the middle transformation groupoid Z⋊G₂ with its induced Haar system
     and the family λ along the quotient map π: Z -> Ω;
  3. the obstruction cocycle Δ((x,y),γ) = Δ₂(γ⁻¹, y) on Z⋊G₂;
  4. its canonical splitting b (so that b·m is symmetric);
  5. the pushed-down family μ on Ω with b·m = μ∘λ;
  6. the composite adjoining cocycle Δ₁₂(η,[x,y]) = b(ηx,y)⁻¹ Δ₁(η,x) b(x,y).

Every invariance that makes these steps well defined is re-checked on the
finite data and lands in the stage report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .cohomology import (
    MULTIPLICATIVE,
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
    OrbitSpace,
    fibre_product,
    make_action,
    make_bispace,
    orbit_space,
    transformation_groupoid,
)
from .measures import (
    HaarSystem,
    MeasureFamily,
    NotInvariant,
    SymmetryCheck,
    cutoff_from_profile,
    cutoff_residual,
    default_cutoff,
    is_symmetric,
    make_haar,
    quotient_family,
    unit_measure,
)
from .report import Report
from .util import GcorrError, ONE, Scalar, adev, all_exact, ksum, rdev


class GroupoidMismatch(GcorrError):
    pass


class CompositionStageError(GcorrError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


@dataclass(frozen=True, eq=False)
class CompositionResult:
    corr_x: Correspondence
    corr_y: Correspondence
    fp: FibreProduct  # Z with its diagonal middle action
    z_bispace: Bispace  # outer G₁-G₃ structure on Z
    orbits: OrbitSpace  # π: Z -> Ω
    omega: Bispace
    m: MeasureFamily  # on Z along s_Z
    tg_z: FiniteGroupoid  # Z⋊G₂
    tg_z_index: dict[tuple[int, int], int]
    chi: HaarSystem  # induced Haar system on Z⋊G₂
    lambda_pi: MeasureFamily  # along π
    delta_z: Cocycle1  # on Z⋊G₂
    b: Cochain0  # on Z⋊G₂ (one value per point of Z)
    e: tuple[Scalar, ...]  # normalized cutoff on Z
    mu: MeasureFamily  # on Ω along s_Ω
    delta12: Cocycle1  # on G₁⋉Ω
    composite: Correspondence
    report: Report

    @property
    def exact(self) -> bool:
        return self.mu.exact and all_exact(self.delta12.value)

    @cached_property
    def ell(self) -> tuple[float, ...]:
        """Per-point weights b^{-1/2}·λ_π of the comparison map."""
        return tuple(
            float(self.b.value[z]) ** -0.5 * float(self.lambda_pi.weight[z])
            for z in range(len(self.fp.pairs))
        )

    @cached_property
    def pairs_by_x(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each point x of X, its (y, z) pairs with z = (x, y) in Z."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.corr_x.space.n_points)]
        for z, (x, y) in enumerate(self.fp.pairs):
            out[x].append((y, z))
        return tuple(tuple(row) for row in out)


def _require_chainable(corr_x: Correspondence, corr_y: Correspondence) -> None:
    if corr_x.right != corr_y.left or corr_x.right_haar != corr_y.left_haar:
        raise GroupoidMismatch(
            "right groupoid/Haar system of the first correspondence must equal "
            "the left one of the second"
        )


def build_z_bispace(corr_x: Correspondence, corr_y: Correspondence, fp: FibreProduct) -> Bispace:
    """The outer actions on Z: G₁ moves the X leg, G₃ the Y leg."""
    g1 = corr_x.left
    g3 = corr_y.right
    r_mom = tuple(corr_x.space.left.momentum[x] for x, _ in fp.pairs)
    s_mom = tuple(corr_y.space.right.momentum[y] for _, y in fp.pairs)
    left_table = {}
    for i, (x, y) in enumerate(fp.pairs):
        for a in g1.fibre_src[r_mom[i]]:
            left_table[(a, i)] = fp.index[(corr_x.space.left.table[(a, x)], y)]
    right_table = {}
    for i, (x, y) in enumerate(fp.pairs):
        for c in g3.fibre_dst[s_mom[i]]:
            right_table[(i, c)] = fp.index[(x, corr_y.space.right.table[(y, c)])]
    return make_bispace(
        make_action("left", g1, fp.point_ids, r_mom, left_table),
        make_action("right", g3, fp.point_ids, s_mom, right_table),
    )


def build_m(corr_x: Correspondence, corr_y: Correspondence, fp: FibreProduct, z_bispace: Bispace) -> tuple[MeasureFamily, float]:
    """The product family on Z along s_Z, with its invariance residual."""
    weight = tuple(
        corr_x.family.weight[x] * corr_y.family.weight[y] for x, y in fp.pairs
    )
    m = MeasureFamily(fp.point_ids, corr_y.right.unit_ids, z_bispace.right.momentum, weight)
    worst = 0.0
    for i, c in z_bispace.right.pairs():
        worst = max(worst, rdev(m.weight[z_bispace.right.table[(i, c)]], m.weight[i]))
    return m, worst


def build_middle_groupoid(
    fp: FibreProduct, chi2: HaarSystem
) -> tuple[FiniteGroupoid, dict[tuple[int, int], int], HaarSystem]:
    """Z⋊G₂ with the Haar system weighing (z, γ) by the weight of γ."""
    tg, idx = transformation_groupoid(fp.diagonal)
    weights = [ONE] * tg.n_arrows
    for (z, a), k in idx.items():
        weights[k] = chi2.w(a)
    return tg, idx, make_haar(tg, weights)


def lambda_pi_rep_independence(
    fp: FibreProduct, chi2: HaarSystem, lambda_pi: MeasureFamily
) -> float:
    """Recompute the fibre measure from every base point, not just the
    stored representative; Haar invariance says the answer cannot move."""
    g2 = chi2.groupoid
    worst = 0.0
    for z in range(len(fp.pairs)):
        acc: dict[int, Scalar] = {}
        for a in g2.fibre_dst[fp.diagonal.momentum[z]]:
            tgt = fp.diagonal.table[(z, a)]
            acc[tgt] = acc.get(tgt, 0) + chi2.w(a)
        for tgt, w in acc.items():
            worst = max(worst, adev(w, lambda_pi.weight[tgt]))
    return worst


def build_delta_z(
    corr_y: Correspondence,
    fp: FibreProduct,
    tg_z: FiniteGroupoid,
    tg_z_index: dict[tuple[int, int], int],
) -> Cocycle1:
    """The obstruction cocycle on Z⋊G₂: the second adjoining function
    evaluated against the Y leg, Δ((x,y),γ) = Δ₂(γ⁻¹, y)."""
    g2 = corr_y.left
    values = [ONE] * tg_z.n_arrows
    for (z, a), k in tg_z_index.items():
        _, y = fp.pairs[z]
        values[k] = corr_y.adjoining_at(g2.inv[a], y)
    return Cocycle1(tg_z, tuple(values), MULTIPLICATIVE)


def _z_invariance_residuals(
    values: Sequence[Scalar],
    fp: FibreProduct,
    z_bispace: Bispace,
    tg_z_index: Optional[dict[tuple[int, int], int]] = None,
) -> tuple[float, float]:
    """Invariance of a function on Z⋊G₂-arrows (or on Z when index is None)
    under the outer G₁ and G₃ actions."""
    g1_worst = g3_worst = 0.0

    def val(z: int, a: int) -> Scalar:
        return values[z] if tg_z_index is None else values[tg_z_index[(z, a)]]

    # G₁ sweep
    for a1, z in z_bispace.left.pairs():
        z1 = z_bispace.left.table[(a1, z)]
        if tg_z_index is None:
            g1_worst = max(g1_worst, rdev(values[z1], values[z]))
        else:
            for a2 in fp.diagonal.groupoid.fibre_dst[fp.diagonal.momentum[z]]:
                g1_worst = max(g1_worst, rdev(val(z1, a2), val(z, a2)))
    # G₃ sweep
    for z, a3 in z_bispace.right.pairs():
        z3 = z_bispace.right.table[(z, a3)]
        if tg_z_index is None:
            g3_worst = max(g3_worst, rdev(values[z3], values[z]))
        else:
            for a2 in fp.diagonal.groupoid.fibre_dst[fp.diagonal.momentum[z]]:
                g3_worst = max(g3_worst, rdev(val(z3, a2), val(z, a2)))
    return g1_worst, g3_worst


def build_b(delta_z: Cocycle1, tg_z: FiniteGroupoid, chi: HaarSystem) -> Cochain0:
    """Split the obstruction cocycle with the canonical probability family
    (constant profile); exact whenever δ_Z and χ are."""
    p = invariant_probability_family(tg_z, chi)
    return decompose_multiplicative(delta_z, p)


def build_mu(
    m: MeasureFamily,
    b: Cochain0,
    e: Sequence[Scalar],
    lambda_pi: MeasureFamily,
    orbits: OrbitSpace,
    omega: Bispace,
    chi: HaarSystem,
    tol: float = 1e-9,
) -> tuple[MeasureFamily, SymmetryCheck, float]:
    """Push e·b·m down to Ω; returns (μ, the symmetry check of b·m, the
    disintegration residual).  Raises NotInvariant when b·m fails the
    symmetry check."""
    bm = unit_measure(chi.groupoid, tuple(b.value[z] * m.weight[z] for z in range(len(m.weight))))
    sym = is_symmetric(bm, chi, tol)
    if not sym.symmetric:
        raise NotInvariant(sym.residual, "b·m is not symmetric")
    weights = tuple(
        ksum(e[z] * b.value[z] * m.weight[z] for z in orbits.members[o])
        for o in range(orbits.n_orbits)
    )
    mu = MeasureFamily(orbits.orbit_ids, m.base_ids, omega.right.momentum, weights)
    worst = 0.0
    for z in range(len(m.weight)):
        lhs = b.value[z] * m.weight[z]
        rhs = mu.weight[orbits.proj[z]] * lambda_pi.weight[z]
        worst = max(worst, rdev(lhs, rhs))
    return mu, sym, worst


def build_omega_bispace(
    corr_x: Correspondence,
    corr_y: Correspondence,
    fp: FibreProduct,
    z_bispace: Bispace,
    orbits: OrbitSpace,
) -> Bispace:
    """Descend the outer actions to the orbit space."""
    g1, g3 = corr_x.left, corr_y.right
    r_mom = tuple(z_bispace.left.momentum[orbits.reps[o]] for o in range(orbits.n_orbits))
    s_mom = tuple(z_bispace.right.momentum[orbits.reps[o]] for o in range(orbits.n_orbits))
    left_table = {}
    right_table = {}
    for o in range(orbits.n_orbits):
        rep = orbits.reps[o]
        for a in g1.fibre_src[r_mom[o]]:
            left_table[(a, o)] = orbits.proj[z_bispace.left.table[(a, rep)]]
        for c in g3.fibre_dst[s_mom[o]]:
            right_table[(o, c)] = orbits.proj[z_bispace.right.table[(rep, c)]]
    return make_bispace(
        make_action("left", g1, orbits.orbit_ids, r_mom, left_table),
        make_action("right", g3, orbits.orbit_ids, s_mom, right_table),
    )


def build_delta12(
    corr_x: Correspondence,
    fp: FibreProduct,
    z_bispace: Bispace,
    orbits: OrbitSpace,
    omega: Bispace,
    b: Cochain0,
) -> tuple[Cocycle1, FiniteGroupoid, dict[tuple[int, int], int], float]:
    """The composite adjoining cocycle on G₁⋉Ω, evaluated at stored orbit
    representatives, plus the worst disagreement over all other
    representatives (well-definedness residual)."""
    tg_omega, idx = transformation_groupoid(omega.left)
    values = [ONE] * tg_omega.n_arrows

    def candidate(a: int, z: int) -> Scalar:
        x, y = fp.pairs[z]
        az = z_bispace.left.table[(a, z)]
        return b.value[z] * corr_x.adjoining_at(a, x) / b.value[az]

    worst = 0.0
    for (a, o), k in idx.items():
        rep = orbits.reps[o]
        values[k] = candidate(a, rep)
        for z in orbits.members[o]:
            if z != rep:
                worst = max(worst, rdev(candidate(a, z), values[k]))
    return Cocycle1(tg_omega, tuple(values), MULTIPLICATIVE), tg_omega, idx, worst


def compose(
    corr_x: Correspondence,
    corr_y: Correspondence,
    e: Optional[Sequence[Scalar]] = None,
    b_values: Optional[Sequence[Scalar]] = None,
    tol: float = 1e-9,
) -> CompositionResult:
    """Run the whole pipeline and certify every step.

    `e` overrides the default cutoff (it must be normalized), `b_values`
    overrides the canonical middle cochain (it must split the obstruction
    cocycle; the report then records the positive ratio to the canonical
    one, which is constant on middle orbits).  Raises
    CompositionStageError on a failing stage; numerical residuals land in
    the report.
    """
    _require_chainable(corr_x, corr_y)
    report = Report("composition")
    chi2 = corr_x.right_haar

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GcorrError as exc:
            raise CompositionStageError(name, exc) from exc

    fp = stage("fibre_product", fibre_product, corr_x.space.right, corr_y.space.left)
    report.notes["z_points"] = len(fp.pairs)
    z_bispace = stage("z_bispace", build_z_bispace, corr_x, corr_y, fp)

    m, m_res = stage("build_m", build_m, corr_x, corr_y, fp, z_bispace)
    report.add("m_right_invariance", m_res <= (0.0 if m.exact else tol), m_res)

    tg_z, tg_z_index, chi = stage("middle_groupoid", build_middle_groupoid, fp, chi2)
    orbits = stage("orbit_space", orbit_space, fp.diagonal)
    report.notes["omega_points"] = orbits.n_orbits

    # the family along π: weights of middle arrows landing on the same
    # point aggregate, matching the pushforward semantics
    lam_pi = stage("build_lambda_pi", quotient_family, chi, orbits)
    rep_res = lambda_pi_rep_independence(fp, chi2, lam_pi)
    report.add("lambda_pi_rep_independence", rep_res == 0.0, rep_res)

    delta_z = stage("build_delta_z", build_delta_z, corr_y, fp, tg_z, tg_z_index)
    exact_dz = all_exact(delta_z.value)
    chk = check_cocycle(delta_z, rel_tol=None if exact_dz else tol)
    report.add("delta_z_cocycle", chk.ok, chk.max_deviation, str(chk.witness) if chk.witness else None)
    g1_res, g3_res = _z_invariance_residuals(delta_z.value, fp, z_bispace, tg_z_index)
    report.add("delta_z_left_invariance", g1_res <= (0.0 if exact_dz else tol), g1_res)
    report.add("delta_z_right_invariance", g3_res <= (0.0 if exact_dz else tol), g3_res)

    b = stage("build_b", build_b, delta_z, tg_z, chi)
    if b_values is not None:
        override = Cochain0(tg_z, tuple(b_values), MULTIPLICATIVE)
        res = coboundary_residual(delta_z, override)
        report.add("override_b_splits_delta", res <= tol, res)
        if res > tol:
            raise CompositionStageError("build_b", GcorrError("supplied cochain does not split the obstruction cocycle"))
        ratio = tuple(b.value[z] / override.value[z] for z in range(tg_z.n_units))
        ratio_res = max(
            (
                rdev(ratio[z], ratio[orbits.reps[orbits.proj[z]]])
                for z in range(tg_z.n_units)
            ),
            default=0.0,
        )
        report.add("override_b_ratio_orbit_constant", ratio_res <= tol, ratio_res)
        b = override
    exact_b = all_exact(b.value)
    ratio_res = coboundary_residual(delta_z, b)
    report.add("b_ratio_relation", ratio_res <= (0.0 if exact_b else tol), ratio_res)
    bg1, bg3 = _z_invariance_residuals(b.value, fp, z_bispace, None)
    report.add("b_left_invariance", bg1 <= (0.0 if exact_b else tol), bg1)
    report.add("b_right_invariance", bg3 <= (0.0 if exact_b else tol), bg3)

    if e is None:
        e = default_cutoff(chi)
    e = tuple(e)
    e_res = cutoff_residual(chi, e)
    report.add("cutoff_normalized", e_res == 0.0 if all_exact(e) and chi.exact else e_res <= tol, e_res)

    omega = stage("omega_bispace", build_omega_bispace, corr_x, corr_y, fp, z_bispace, orbits)
    mu, sym, dis_res = stage("build_mu", build_mu, m, b, e, lam_pi, orbits, omega, chi, tol)
    exact_mu = mu.exact and exact_b
    # `is_symmetric` judges the residual against tol scaled by the largest weight
    report.add("bm_symmetric", sym.symmetric, sym.residual)
    report.add("mu_disintegration", dis_res <= (0.0 if exact_mu else tol), dis_res)

    # independence of the cutoff: rebuild with a deterministic second profile
    profile = tuple(ONE + Fraction(z % 3, 2) for z in range(tg_z.n_units))
    e2 = cutoff_from_profile(chi, profile)
    if tuple(e2) != e:
        mu2, _, _ = build_mu(m, b, e2, lam_pi, orbits, omega, chi, tol)
        mu_dev = max(
            (rdev(a_, b_) for a_, b_ in zip(mu.weight, mu2.weight)), default=0.0
        )
        report.add("mu_cutoff_independence", mu_dev <= (0.0 if exact_mu else tol), mu_dev)

    # G₃-invariance of μ on the orbit space
    mu_res = 0.0
    for o, c in omega.right.pairs():
        mu_res = max(mu_res, rdev(mu.weight[omega.right.table[(o, c)]], mu.weight[o]))
    report.add("mu_right_invariance", mu_res <= (0.0 if exact_mu else tol), mu_res)

    delta12, tg_omega, tg_omega_idx, wd_res = stage(
        "build_delta12", build_delta12, corr_x, fp, z_bispace, orbits, omega, b
    )
    exact12 = all_exact(delta12.value)
    report.add("delta12_well_defined", wd_res <= (0.0 if exact12 else tol), wd_res)
    chk = check_cocycle(delta12, rel_tol=None if exact12 else tol)
    report.add("delta12_cocycle", chk.ok, chk.max_deviation, str(chk.witness) if chk.witness else None)

    composite = stage(
        "assemble",
        make_correspondence,
        corr_x.left_haar,
        corr_y.right_haar,
        omega,
        mu,
        tuple(delta12.value),
        False,
    )
    final = validate(composite, tol=tol)
    final.checks = [c.__class__("composite_" + c.name, c.passed, c.residual, c.witness) for c in final.checks]
    report.extend(final)
    report.notes["scalar_mode"] = "exact" if exact_mu and exact12 else "float"

    result = CompositionResult(
        corr_x, corr_y, fp, z_bispace, orbits, omega, m, tg_z, tg_z_index, chi,
        lam_pi, delta_z, b, e, mu, delta12, composite, report,
    )
    if not report.passed:
        raise CompositionStageError(
            "certification",
            GcorrError("; ".join(c.render() for c in report.failures())),
        )
    return result


# ---------------------------------------------------------------------------
# equality of correspondences up to an explicit bispace isomorphism


def find_bispace_isomorphism(
    a: Correspondence, b: Correspondence, max_points: int = 12, tol: float = 1e-9
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
