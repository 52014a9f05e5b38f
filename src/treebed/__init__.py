"""treebed: embedding of rescaled hyperbolic space into a product of trees.

The package builds the colored nested-cube patterns that define one
simplicial tree per color, the point-to-tree-product embedding, and a
verification harness that checks the exact combinatorial properties of the
patterns and measures the embedding's metric distortion empirically.
"""

from .core import (
    DimensionMismatch,
    InvalidParams,
    Params,
    RationalBox,
    boundary_margin,
    box_gap_sq,
    validate_params,
)
from .cubes import (
    ColorMismatch,
    CoveringReport,
    CubeId,
    LevelOrder,
    ResourceLimit,
    SeparationKind,
    SeparationVerdict,
    locate,
    nearest_in_level,
    realize,
    separation_verdict,
    verify_covering_level0,
)
from .embedding import (
    EmbeddedPoint,
    embed,
    per_color_distances,
    product_distance,
)
from .hyperbolic import (
    DistanceOverflow,
    HoroPoint,
    horo_distance,
    hyp_distance,
    project,
)
from .tree import (
    EdgeSet,
    ancestor_chain,
    brute_force_edges,
    export_subtree,
    parent,
    tree_distance,
    tree_path,
)
from .verifier import (
    DegenerateSample,
    DistortionReport,
    Region,
    SamplePlan,
    TrendReport,
    VerticalCheckReport,
    count_violations,
    evaluate_pairs,
    fit_qi_constants,
    sample_pairs,
    stability_probe,
    vertical_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "validate_params",
    "InvalidParams",
    "DimensionMismatch",
    "RationalBox",
    "box_gap_sq",
    "boundary_margin",
    "HoroPoint",
    "hyp_distance",
    "horo_distance",
    "project",
    "DistanceOverflow",
    "CubeId",
    "realize",
    "locate",
    "nearest_in_level",
    "SeparationKind",
    "SeparationVerdict",
    "separation_verdict",
    "CoveringReport",
    "verify_covering_level0",
    "ColorMismatch",
    "LevelOrder",
    "ResourceLimit",
    "parent",
    "ancestor_chain",
    "tree_distance",
    "tree_path",
    "brute_force_edges",
    "EdgeSet",
    "export_subtree",
    "EmbeddedPoint",
    "embed",
    "per_color_distances",
    "product_distance",
    "Region",
    "SamplePlan",
    "sample_pairs",
    "evaluate_pairs",
    "fit_qi_constants",
    "count_violations",
    "vertical_bound_check",
    "stability_probe",
    "DistortionReport",
    "VerticalCheckReport",
    "TrendReport",
    "DegenerateSample",
]
