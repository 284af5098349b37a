"""Curvature of embedded simplicial complexes via normalized angle defects.

The package computes exact combinatorial data (Bernoulli numbers, the angle
defect weight sequence, stratification ranks, stratified Euler
characteristics) alongside numerical solid angles (closed-form up to
codimension 2, quadrature at codimension 4 and 5, Monte Carlo at
codimension 3 and above 5), and verifies Gauss-Bonnet style identities with
propagated statistical error.
"""

from simcurv.sequences import (
    angle_defect_sequence,
    angle_defect_term,
    bernoulli,
    bernoulli_poly,
    binomial,
    verify_recursion,
)
from simcurv.complexes import Simplex, SimplicialComplex, as_simplex, join_complexes
from simcurv.geometry import (
    AngleCache,
    AngleConfig,
    AngleValue,
    DegeneratePositionError,
    EmbeddedComplex,
    GeometryError,
    convex_hull_boundary,
    solid_angle,
    sommerville_residuals,
)
from simcurv.stratification import (
    StratumAssignment,
    StratumInfo,
    stratified_euler_characteristic,
    stratify,
)
from simcurv.curvature import (
    CurvatureValue,
    HypothesisError,
    TheoremReport,
    ascending_stratified_curvature,
    carrier_alternating_sum,
    cone_vertex_curvature_factor,
    curvature_table,
    gauss_bonnet_check,
    generalized_angle_defect,
    sommerville_check,
    stratified_curvature_at_vertex,
    subdivision_relation_check,
    vanishing_check,
    vanishing_hypothesis_check,
)
from simcurv.subdivision import (
    SubdivisionPair,
    barycentric_subdivide,
    stellar_subdivide,
)

__version__ = "0.1.0"

__all__ = [
    "AngleCache",
    "AngleConfig",
    "AngleValue",
    "CurvatureValue",
    "DegeneratePositionError",
    "EmbeddedComplex",
    "GeometryError",
    "HypothesisError",
    "Simplex",
    "SimplicialComplex",
    "StratumAssignment",
    "StratumInfo",
    "SubdivisionPair",
    "TheoremReport",
    "angle_defect_sequence",
    "angle_defect_term",
    "as_simplex",
    "ascending_stratified_curvature",
    "barycentric_subdivide",
    "bernoulli",
    "bernoulli_poly",
    "binomial",
    "carrier_alternating_sum",
    "cone_vertex_curvature_factor",
    "convex_hull_boundary",
    "curvature_table",
    "gauss_bonnet_check",
    "generalized_angle_defect",
    "join_complexes",
    "solid_angle",
    "sommerville_check",
    "sommerville_residuals",
    "stellar_subdivide",
    "stratified_curvature_at_vertex",
    "stratified_euler_characteristic",
    "stratify",
    "subdivision_relation_check",
    "vanishing_check",
    "vanishing_hypothesis_check",
    "verify_recursion",
]
