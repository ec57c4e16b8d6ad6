"""Numerical toolkit for parabolic visual quasimetrics on the ideal
boundary of negatively curved R^n x| R."""

__version__ = "0.1.0"

from .linalg import (
    check_matrix,
    frob_sq,
    jordan_block,
    load_matrix,
    mat_exp,
    nilpotent_exp,
    nilpotent_shift,
    numerical_rank,
    save_matrix,
)
from .metric import (
    BoundarySpace,
    block_distance_check,
    dist,
    dist_pairs,
    fiber_hausdorff,
    fiber_restriction_check,
    point_to_fiber,
    quasimetric_constant,
)
from .spectral import (
    ClassificationResult,
    EigenCluster,
    RealPartJordanForm,
    canonical_matrix,
    classify,
    eigen_clusters,
    real_part_jordan_form,
)
from .variation import (
    PackingSpec,
    TestFunction,
    VariationReport,
    count_cells,
    enumerate_packing,
    fit_exponents,
    oscillation,
    variation_sum,
    volume_estimate,
)
from .maps import (
    Composition,
    JordanFamilyMap,
    LinearMap,
    PiecewiseLinear,
    PolyNilpotent,
    Shear,
    Translation,
    compose_jordan,
    conformal_probe,
    distortion_profile,
    empirical_bilip,
    eval_map,
    eval_map_batch,
    jordan_family_bound,
    load_map,
    map_from_json_dict,
    map_to_json_dict,
    poly_bilip_bound,
    qs_profile,
    save_map,
    shear_bilip_bound,
    transfer_check,
)
