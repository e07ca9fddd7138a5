#!/usr/bin/env python3
"""Certify that composition matches the balanced tensor product.

For each catalog pair and one seeded random pair, the comparison map is
checked to preserve the algebra-valued inner products (on the point-mass
basis, modulo balancing on exact data, and on random vectors), to
intertwine the left actions, and to have full rank: a unitary of Hilbert
modules at finite dimension.

Run:  python demos/04_theorem_certificate.py
"""

from gcorr import catalog, cstar
from gcorr.composition import compose, find_bispace_isomorphism
from gcorr.randgen import random_pair

for name in catalog.EXAMPLE_NAMES:
    corr_x, corr_y, meta = catalog.example_pair(name)
    result = compose(corr_x, corr_y)
    gram = cstar.verify_theorem(corr_x, corr_y, result, trials=100, seed=0)
    print(f"{name:17} {'PASS' if gram.passed else 'FAIL'}  "
          f"isometry dev {gram.isometry_max_dev:.2e}  "
          f"intertwining dev {gram.intertwining_max_dev:.2e}  "
          f"rank {gram.surjectivity_rank}/{gram.omega_dim}")

# the catalog composites agree with their closed-form targets
corr_x, corr_y, meta = catalog.example_pair("fn-compose")
iso = find_bispace_isomorphism(compose(corr_x, corr_y).composite, meta["target"]())
print("\nfn-compose composite ~ correspondence of the composite map:")
for omega, x in sorted(iso.items()):
    print(f"  {omega} -> {x}")

corr_x, corr_y = random_pair(2024, max_x=20, max_y=20, max_mid=12)
result = compose(corr_x, corr_y)
gram = cstar.verify_theorem(corr_x, corr_y, result, trials=100, seed=1)
print(f"\nseeded random pair: |X|={corr_x.space.n_points} |Y|={corr_y.space.n_points} "
      f"|G2|={corr_x.right.n_arrows}")
print(gram.report().render())
