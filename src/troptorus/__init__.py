"""Exact-arithmetic polyhedral toolkit for periodic convex functions on
real tori: polarized lattices, periodic barycentric triangulations,
convexity certificates, dyadic contraction, piecewise Haar measures and
equidistribution experiments.
"""

from .linalg import TroptorusError
from .lattice import (
    Lattice,
    LatticeError,
    NotPositiveDefiniteError,
    Polarization,
    bilinear,
    covolume,
    identity_polarization,
    orthogonalize,
    quadratic,
    reduce_mod,
    standard_lattice,
    superlattice,
)
from .complexes import (
    AdjacentPair,
    ComplexError,
    PeriodicComplex,
    Simplex,
    adjacent_pairs,
    barycentric_triangulation,
    check_common_faces,
    check_tiling,
    dyadic_refine,
    is_refinement,
    simplex_volume,
    unfold,
)
from .paf import (
    Cocycle,
    CocycleFunction,
    ConvexityCertificate,
    NotCertifiedError,
    PafError,
    TestFunction,
    auto_epsilon,
    build_model_function,
    change_period,
    check_strongly_convex,
    choose_twist_bound,
    evaluate,
    evaluate_test,
    hat_test_functions,
    interpolate_test,
    sup_distance_to_quadratic,
    tate_iterate,
    test_sup_abs,
    twist,
)
from .measures import (
    EmpiricalMeasure,
    IntegralAffineMap,
    MeasureError,
    NoCommonRefinementError,
    NonInjectiveAtomError,
    PolytopalMeasure,
    empirical,
    empirical_averages,
    haar,
    integrate,
    integrate_empirical,
    mass_near,
    monte_carlo_pushforward,
    pushforward,
    simplex_k_volume,
)
from .equidist import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    collapse_experiment,
    difference_map,
    discrepancy,
    fixed_denominator_obstruction,
    product_lattice,
    run_equidistribution,
    torsion_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
