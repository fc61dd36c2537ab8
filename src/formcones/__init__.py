"""Exact-arithmetic cones of divisors and curves on spaces of complete forms.

The package models spaces of complete collineations and complete quadrics
through their Picard lattices: integer divisor classes, the effective,
nef, movable, Mori, and moving-curve cones, chamber decompositions of the
effective cone, and the closed-form dimension counts behind them.  All
computation is over the integers and rationals; no floating point.
"""

from .chambers import (
    Chamber,
    ChamberFan,
    Wall,
    gkz_fan,
    locate,
    sbl_merge,
)
from .cones import (
    Cone,
    cone_from_halfspaces,
    cone_from_rays,
    dd_convert,
    dual,
    extremal_rays,
    interior_point,
    intersect,
)
from .errors import (
    BoundaryPoint,
    DegenerateRay,
    DegenerateSpace,
    DimensionMismatch,
    FormconesError,
    InternalError,
    NoReferenceData,
    NotFullDimensional,
    NotPointed,
    OutsideEffective,
    RankUnsupported,
    RouteMismatch,
)
from .formulas import (
    FormulaResult,
    ambient_projective_dim,
    cox_generator_count,
    dim_cox,
    dim_section_space,
    minor_multiplicity,
    movable_ray_count,
    osculating_degree,
    plucker_relation_count,
    secant_codim,
    section_space_routes,
    weyl_dim,
)
from .reports import VERSION
from .spaces import (
    CurveClass,
    DivisorClass,
    GradingMatrix,
    SpaceSpec,
    anticanonical_class,
    canonical_class,
    collineations,
    divisor_D,
    divisor_E,
    effective_cone,
    grading_matrix,
    is_fano,
    mori_cone,
    movable_cone,
    moving_curve_cone,
    nef_cone,
    pairing,
    quadrics,
)

__version__ = VERSION

__all__ = [
    "__version__",
    "VERSION",
    # cones
    "Cone",
    "cone_from_rays",
    "cone_from_halfspaces",
    "dd_convert",
    "dual",
    "intersect",
    "extremal_rays",
    "interior_point",
    # spaces and catalog
    "SpaceSpec",
    "collineations",
    "quadrics",
    "DivisorClass",
    "CurveClass",
    "GradingMatrix",
    "divisor_D",
    "divisor_E",
    "canonical_class",
    "anticanonical_class",
    "grading_matrix",
    "effective_cone",
    "nef_cone",
    "movable_cone",
    "mori_cone",
    "moving_curve_cone",
    "pairing",
    "is_fano",
    # chambers
    "Chamber",
    "ChamberFan",
    "Wall",
    "gkz_fan",
    "locate",
    "sbl_merge",
    # formulas
    "FormulaResult",
    "minor_multiplicity",
    "secant_codim",
    "section_space_routes",
    "dim_section_space",
    "weyl_dim",
    "plucker_relation_count",
    "ambient_projective_dim",
    "cox_generator_count",
    "dim_cox",
    "movable_ray_count",
    "osculating_degree",
    # errors
    "FormconesError",
    "DegenerateRay",
    "DimensionMismatch",
    "NotPointed",
    "NotFullDimensional",
    "DegenerateSpace",
    "RankUnsupported",
    "OutsideEffective",
    "BoundaryPoint",
    "NoReferenceData",
    "RouteMismatch",
    "InternalError",
]
