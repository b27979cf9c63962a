"""carnotlab: computation on filiform groups.

Group arithmetic, horizontal frames, homogeneous norms and their derivative
tables, empirical verification of pointwise gradient and sub-Laplacian
bounds, Gibbs-type measures with U-bound and Poincare checks, a Galerkin
spectral-gap estimator, and upper bounds on the Carnot-Caratheodory distance
via horizontal path optimisation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    verify_engel_gradient_bound,
    verify_engel_laplacian_bound,
    verify_engel_x2_lower,
    verify_filiform_bounds,
    verify_filiform_x1_lower,
)
from .calculus import fd_frame_first, fd_frame_second, norm_derivative_tables
from .family import TestFunctionFamily, default_family
from .frames import left_frame, right_frame_engel
from .geodesics import (
    DistanceEstimate,
    EquivalenceBand,
    HorizontalPath,
    approx_distance,
    equivalence_scan,
)
from .group import FiliformGroup, GroupPoint, engel_group
from .inequalities import (
    GapEstimate,
    LocalizationParams,
    PoincareReport,
    UBoundReport,
    gaussian_calibration_gap,
    localization_decomposition,
    poincare_scan,
    spectral_gap_galerkin,
    translation_trick_check,
    ubound_fit,
)
from .measures import MeasureSpec, SampleBatch, estimate_Z, load_batch, sample, save_batch
from .norms import aux_seminorm, engel_kind, filiform_kind, norm_value
from .seeding import derive_rng, seed_sequence

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
