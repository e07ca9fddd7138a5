"""Finite groupoid correspondences and their composites.

The package is organized around the pipeline

    groupoids -> measures -> cohomology -> correspondence -> composition -> cstar

with `cli` (plus `io_json`, `catalog`, `randgen`) wrapping it for batch
verification.  Everything is immutable after construction; weights stay
exact rationals on rational input, through every stage of `compose`.
"""

from .groupoids import (
    Bispace,
    FiniteGroupoid,
    GSpaceAction,
    build_groupoid,
    check_proper,
    cyclic_group,
    disjoint_union,
    fibre_product,
    group_groupoid,
    orbit_space,
    pair_groupoid,
    symmetric_group,
    transformation_groupoid,
    units_only_groupoid,
)
from .measures import (
    GroupoidMeasure,
    HaarSystem,
    MeasureFamily,
    check_haar,
    counting_haar,
    haar_from_unit_weights,
    induced_measure,
    is_symmetric,
    make_haar,
    push_measure_down,
    quotient_family,
    unit_measure,
)
from .cohomology import (
    Cochain0,
    Cocycle1,
    ProbabilityFamily,
    check_cocycle,
    d0,
    decompose_multiplicative,
    invariant_probability_family,
)
from .correspondence import (
    Correspondence,
    derive_adjoining,
    from_group_hom,
    from_map,
    from_span,
    induction_instance,
    make_correspondence,
    regular_bimodule,
    validate,
)
from .composition import CompositionResult, compose, find_bispace_isomorphism
from .cstar import GramReport, verify_theorem
from .report import DEFAULT_TOL, passes

__version__ = "0.1.0"
