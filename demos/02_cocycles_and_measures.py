#!/usr/bin/env python3
"""Cocycles, the canonical coboundary solver, and measure push-downs.

Every finite groupoid is proper, so positive 1-cocycles split as
coboundaries t∘src / t∘dst.  The solver averages the reciprocal of the
cocycle against the invariant probability family built from the Haar
system, which fixes the orbit-constant ambiguity once and for all.

Run:  python demos/02_cocycles_and_measures.py
"""

from fractions import Fraction as F

import gcorr as gc
from gcorr.cohomology import coboundary_residual
from gcorr.groupoids import make_action, orbit_space
from gcorr.measures import cutoff_from_profile

pg = gc.pair_groupoid(["1", "2"])
haar = gc.counting_haar(pg)
p = gc.invariant_probability_family(pg, haar)
print("probability family weights:", p.weight)

# -- split a cocycle: b is the p-average of Δ⁻¹, exact on rational data -----
q = gc.Cochain0(pg, (F(1), F(4)))
delta = gc.d0(q)  # Δ(arrow) = q(src) / q(dst)
bmul = gc.decompose_multiplicative(delta, p)
print("\nsplit of q∘src/q∘dst, q=(1,4):", tuple(map(str, bmul.value)), "(q times an orbit constant)")
residual, witness = coboundary_residual(delta, bmul)
print("ratio residual:", residual, "at", witness)

# -- measures: induced measures, symmetry, push-down -------------------------
m = gc.unit_measure(pg, (F(1), F(2)))
fwd = gc.induced_measure(m, haar, "forward")
inv = gc.induced_measure(m, haar, "inverse")
print("\nm∘λ   :", fwd.weight)
print("m∘λ⁻¹ :", inv.weight)
# the check returns (residual, witness); `passes` judges it like every
# other check: 0 on exact data, at most tol on float data
residual, witness = gc.is_symmetric(m, haar)
print("symmetry residual:", residual, "at", witness, "-> symmetric?", gc.passes(residual, m.exact and haar.exact))

m_sym = gc.unit_measure(pg, (F(3), F(3)))
# the orbits of the units under γ·src(γ) = dst(γ)
orbits = orbit_space(make_action("left", pg, pg.unit_ids, (0, 1), {(a, pg.src[a]): pg.dst[a] for a in range(pg.n_arrows)}))
mu = gc.push_measure_down(m_sym, haar, orbits)
print("\npushed-down measure:", mu.weight)
# μ∘[λ] weighs a unit v by μ at its orbit times the quotient family at v
ql = gc.quotient_family(haar, orbits)
print("disintegrates back :", tuple(mu.weight[orbits.proj[v]] * ql.weight[v] for v in range(pg.n_units)))

# the push-down ignores the choice of cutoff
e2 = cutoff_from_profile(haar, (F(9), F(1)))
mu2 = gc.push_measure_down(m_sym, haar, orbits, e=e2)
print("same with a skewed cutoff:", mu2.weight, "(identical)")
