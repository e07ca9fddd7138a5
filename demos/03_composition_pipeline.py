#!/usr/bin/env python3
"""The full composition pipeline on a weighted instance, stage by stage.

A point group feeds Z/2, which feeds another point group; the second leg
carries weights (1, 3), so the middle obstruction cocycle is nontrivial.
The canonical cochain averages its reciprocal over each middle fibre,
b = ((1 + 3)/2, (1 + 1/3)/2) = (2, 2/3), so every stage stays exact.

Run:  python demos/03_composition_pipeline.py
"""

from fractions import Fraction as F

import gcorr as gc
from gcorr.composition import compose
from gcorr.groupoids import make_action, make_bispace
from gcorr.measures import MeasureFamily

z2 = gc.cyclic_group(2)
ptL = gc.cyclic_group(1, unit_id="L")
ptR = gc.cyclic_group(1, unit_id="R")

# X = Z/2 with the right translation action of the middle groupoid
xs = ("a0", "a1")
corr_x = gc.make_correspondence(
    gc.counting_haar(ptL),
    gc.counting_haar(z2),
    make_bispace(
        make_action("left", ptL, xs, (0, 0), {(0, 0): 0, (0, 1): 1}),
        make_action("right", z2, xs, (0, 0), {(p, a): (p + a) % 2 for p in range(2) for a in range(2)}),
    ),
    MeasureFamily(xs, z2.unit_ids, (0, 0), (F(1), F(1))),
)

# Y = Z/2 with the left translation action and weights (1, 3)
ys = ("b0", "b1")
corr_y = gc.make_correspondence(
    gc.counting_haar(z2),
    gc.counting_haar(ptR),
    make_bispace(
        make_action("left", z2, ys, (0, 0), {(a, p): (a + p) % 2 for a in range(2) for p in range(2)}),
        make_action("right", ptR, ys, (0, 0), {(0, 0): 0, (1, 0): 1}),
    ),
    MeasureFamily(ys, ptR.unit_ids, (0, 0), (F(1), F(3))),
)
print("second adjoining cocycle (the obstruction):", corr_y.adjoining.value)

result = compose(corr_x, corr_y)
print("\nfibre product points:", result.fp.point_ids)
print("orbits:", result.orbits.orbit_ids)
print("product family m:", result.m.weight)
print("family along the quotient:", result.lambda_pi.weight)
print("middle cochain b (fibre averages of 1/Δ):", result.b.value)
print("composite family mu:", result.mu.weight)
print("composite adjoining cocycle:", result.delta12.value)
print()
print(result.report.render())
