"""Numerical toolkit for parabolic visual quasimetrics on the ideal
boundary of negatively curved R^n x| R.

``import heintze`` loads numpy and the ``linalg`` base only; every other
layer loads on first use of one of its names (PEP 562).
"""

__version__ = "0.1.0"

from .linalg import (check_matrix, frob_sq, jordan_block, load_matrix,
                     mat_exp, nilpotent_exp, nilpotent_shift, numerical_rank,
                     save_matrix)

_LAYERS = {
    "metric": """BoundarySpace block_distance_check dist dist_pairs
        fiber_hausdorff fiber_restriction_check point_to_fiber
        quasimetric_constant""",
    "spectral": """ClassificationResult EigenCluster RealPartJordanForm
        canonical_matrix classify eigen_clusters real_part_jordan_form""",
    "variation": """PackingSpec TestFunction VariationReport count_cells
        enumerate_packing fit_exponents oscillation variation_sum
        volume_estimate""",
    "maps": """Composition JordanFamilyMap LinearMap PiecewiseLinear
        PolyNilpotent Shear Translation compose_jordan conformal_probe
        distortion_profile empirical_bilip eval_map eval_map_batch
        jordan_family_bound load_map map_from_json_dict map_to_json_dict
        poly_bilip_bound qs_profile save_map shear_bilip_bound
        transfer_check""",
}
_OWNER = {name: layer for layer, names in _LAYERS.items()
          for name in names.split()}

# the linalg functions bound above, then every lazily loaded name
__all__ = [name for name, value in globals().items()
           if name[0] != "_" and callable(value)] + list(_OWNER)


def __getattr__(name):
    """Import the layer that owns ``name`` and bind the name here, so
    that every later lookup is a plain module attribute."""
    layer = _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
