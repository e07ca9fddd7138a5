#!/usr/bin/env python3
"""Build finite groupoids, attach Haar systems, and inspect the basics.

Run:  python demos/01_groupoids_and_haar.py
"""

from fractions import Fraction as F

import gcorr as gc
from gcorr.groupoids import groupoid_violations, make_action
from gcorr.measures import fibre_integral

# -- a pair groupoid and a cyclic group -------------------------------------
pg = gc.pair_groupoid(["1", "2", "3"])
z4 = gc.cyclic_group(4)
print("pair groupoid:", pg)
print("cyclic group :", z4)
print("axioms hold  :", not groupoid_violations(pg) and not groupoid_violations(z4))

# -- Haar systems: on a finite groupoid every left-invariant weight table
#    is a positive function of the source unit.  Put weight 1 over unit "1",
#    weight 2 over "2", weight 1/3 over "3":
haar = gc.haar_from_unit_weights(pg, (F(1), F(2), F(1, 3)))
print("\nHaar weights by arrow:")
for a in range(pg.n_arrows):
    print(f"  {pg.arrow_ids[a]:8} -> {haar.w(a)}")
print("left-invariance (worst deviation, witness):", gc.check_haar(pg, haar.family))
print("range-fibre masses   :", fibre_integral(haar))

# breaking invariance is detected with a witness pair
try:
    gc.make_haar(pg, tuple(F(1 + pg.dst[a]) for a in range(pg.n_arrows)))
except Exception as exc:
    print("tampered weights     :", exc)

# -- transformation groupoids: a group acting on itself by right
#    translation, a·γ = a∘γ, is the pair groupoid in disguise
z2 = gc.cyclic_group(2)
translation = make_action("right", z2, z2.arrow_ids, z2.src, {(b, a): z2.comp[(b, a)] for b, a in z2.composable_pairs()})
tg, _ = gc.transformation_groupoid(translation)
one_arrow_per_pair = tg.n_arrows == tg.n_units**2 and gc.check_proper(tg).max_card == 1
print("\nZ/2 acting on itself ~ pair groupoid:", one_arrow_per_pair)

# -- orbit spaces come with deterministic representatives; here the orbits
#    of a groupoid's units under γ·src(γ) = dst(γ)
du = gc.disjoint_union(z2, z4, tags=["a", "b"])
on_units = make_action("left", du, du.unit_ids, tuple(range(du.n_units)), {(a, du.src[a]): du.dst[a] for a in range(du.n_arrows)})
orbits = gc.orbit_space(on_units)
print("orbits of a disjoint union:", orbits.orbit_ids)

# -- properness evidence (finite: always proper, fibres tabulated)
print("properness evidence, max fibre:", gc.check_proper(z4).max_card)
