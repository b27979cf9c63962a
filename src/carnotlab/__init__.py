"""carnotlab: computation on filiform groups.

Group arithmetic, horizontal frames, homogeneous norms and their derivative
tables, empirical verification of pointwise gradient and sub-Laplacian
bounds, Gibbs-type measures with U-bound and Poincare checks, a Galerkin
spectral-gap estimator, and upper bounds on the Carnot-Caratheodory distance
via horizontal path optimisation.

Importing the package loads none of its modules: each name in `__all__` is
imported from its module on first access (PEP 562), so `carnotlab.cli`
starts without the library and each command loads only what it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Batches behind every batch-means standard error (`measures.batch_mean_se`);
# the CLI's count schemas need it before numpy loads.
N_BATCHES = 50

# The module that defines each name in `__all__`.
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "verify_engel_gradient_bound",
        "verify_engel_laplacian_bound",
        "verify_engel_x2_lower",
        "verify_filiform_bounds",
        "verify_filiform_x1_lower",
    ),
    "calculus": ("fd_frame_first", "fd_frame_second", "norm_derivative_tables"),
    "family": ("TestFunctionFamily", "default_family"),
    "frames": ("left_frame", "right_frame_engel"),
    "geodesics": (
        "DistanceEstimate",
        "EquivalenceBand",
        "HorizontalPath",
        "approx_distance",
        "equivalence_scan",
    ),
    "group": ("FiliformGroup", "GroupPoint", "engel_group"),
    "inequalities": (
        "GapEstimate",
        "LocalizationParams",
        "PoincareReport",
        "UBoundReport",
        "gaussian_calibration_gap",
        "localization_decomposition",
        "poincare_scan",
        "spectral_gap_galerkin",
        "translation_trick_check",
        "ubound_fit",
    ),
    "measures": ("MeasureSpec", "SampleBatch", "estimate_Z", "load_batch", "sample", "save_batch"),
    "norms": ("aux_seminorm", "engel_kind", "filiform_kind", "norm_value"),
    "seeding": ("derive_rng", "seed_sequence"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BoundReport",
    "DistanceEstimate",
    "EquivalenceBand",
    "FiliformGroup",
    "GapEstimate",
    "GroupPoint",
    "HorizontalPath",
    "LocalizationParams",
    "MeasureSpec",
    "PoincareReport",
    "SampleBatch",
    "TestFunctionFamily",
    "UBoundReport",
    "__version__",
    "approx_distance",
    "aux_seminorm",
    "default_family",
    "derive_rng",
    "engel_group",
    "engel_kind",
    "equivalence_scan",
    "estimate_Z",
    "fd_frame_first",
    "fd_frame_second",
    "filiform_kind",
    "gaussian_calibration_gap",
    "left_frame",
    "load_batch",
    "localization_decomposition",
    "norm_derivative_tables",
    "norm_value",
    "poincare_scan",
    "right_frame_engel",
    "sample",
    "save_batch",
    "seed_sequence",
    "spectral_gap_galerkin",
    "translation_trick_check",
    "ubound_fit",
    "verify_engel_gradient_bound",
    "verify_engel_laplacian_bound",
    "verify_engel_x2_lower",
    "verify_filiform_bounds",
    "verify_filiform_x1_lower",
]
