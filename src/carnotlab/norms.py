"""Homogeneous norms on filiform groups and their smooth regions.

Two norm families are provided on the step-n group.

Step-3 norm (`engel_norm`), built from the seminorm
``|x| = (x_1^2 + x_2^2 + |x_3|)^(1/2)``:

    N(x) = (|x|^3 + |x_4|)^(1/3).

General filiform norm (`filiform_norm`), any step n >= 3, built from

    |x|^n = sum_{j=2}^{n} S_j^(2n/(n+1)),
    S_j = |x_1|^((n+1)/2) + |x_2|^((n+1)/2) + |x_j|^((n+1)/(2(j-1))),

as ``(|x|^n + |x_{n+1}|)^(1/n)``.  Note the j = 2 summand counts |x_2| twice
(its own power term coincides with the shared one); the formula is kept
verbatim.  `filiform_rows` is the one place that builds the S_j rows: the
norm, the seminorm and the derivative tables of `calculus` all read them,
and the tables take N and |x| from the same power sum.

Both norms are exactly 1-homogeneous under the weighted dilations, positive
off the origin, continuous, and invariant under flipping the sign of any one
coordinate.  The step-3 norm is smooth except on {x_3 = 0} and {x_4 = 0}; the
filiform norm is smooth except on every coordinate hyperplane.  The scalar
seminorm `aux_seminorm` (|x_2| for the step-3 kind, |x_1| for the filiform
kind) is the quantity whose powers weight the energy-method inequalities in
the measures and inequality modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import FiliformGroup, _as_batch, engel_group

ENGEL = "engel"
FILIFORM = "filiform"

SINGULAR_RTOL = 1e-9


@dataclass(frozen=True)
class NormKind:
    """Selects one norm family on a concrete group.

    variant "engel" requires a step-3 group; "filiform" accepts any step.
    """

    variant: str
    group: FiliformGroup

    def __post_init__(self) -> None:
        if self.variant not in (ENGEL, FILIFORM):
            raise ValueError(f"unknown norm variant {self.variant!r}")
        if self.variant == ENGEL and self.group.step != 3:
            raise ValueError("the engel norm kind requires a step-3 group")

    @property
    def singular_axes(self) -> tuple[int, ...]:
        """0-based coordinate indices whose vanishing breaks smoothness."""
        if self.variant == ENGEL:
            return (2, 3)
        return tuple(range(self.group.dimension))

    @property
    def aux_axis(self) -> int:
        """0-based index of the coordinate returned by aux_seminorm."""
        return 1 if self.variant == ENGEL else 0


def engel_kind() -> NormKind:
    return NormKind(ENGEL, engel_group())


def filiform_kind(n: int) -> NormKind:
    return NormKind(FILIFORM, FiliformGroup(n))


def engel_from_seminorm(sem: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """The step-3 norm (sem^3 + |x_4|)^(1/3) from a validated batch's seminorm."""
    return np.cbrt(sem**3 + np.abs(xb[:, 3]))


def _engel_kernel(xb: np.ndarray, with_top: bool = True) -> np.ndarray:
    sem = np.sqrt(xb[:, 0] ** 2 + xb[:, 1] ** 2 + np.abs(xb[:, 2]))
    return engel_from_seminorm(sem, xb) if with_top else sem


def filiform_rows(n: int, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows S_j, j = 2..n, of a validated step-n batch and |x|^n.

    Returns the (n-1, m) stack of S_j = A + B + T_j, with A = |x_1|^((n+1)/2),
    B = |x_2|^((n+1)/2) and T_j = |x_j|^((n+1)/(2(j-1))), so T_2 = B and S_2
    counts x_2 twice; and the power sum |x|^n = sum_j S_j^(2n/(n+1)).
    """
    half = (n + 1) / 2.0
    b_pow = np.abs(xb[:, 1]) ** half
    ab = np.abs(xb[:, 0]) ** half + b_pow
    rows = np.empty((n - 1, xb.shape[0]))
    np.add(ab, b_pow, out=rows[0])
    for j in range(3, n + 1):
        np.add(ab, np.abs(xb[:, j - 1]) ** ((n + 1) / (2.0 * (j - 1))), out=rows[j - 2])
    # np.sum, not a row fold: NumPy sums a one-point column pairwise.
    return rows, np.sum(rows ** (2.0 * n / (n + 1)), axis=0)


def filiform_from_sum(power_sum: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """The filiform norm (|x|^n + |x_{n+1}|)^(1/n) from a validated batch's |x|^n."""
    return (power_sum + np.abs(xb[:, -1])) ** (1.0 / (xb.shape[1] - 1))


def _filiform_kernel(xb: np.ndarray, with_top: bool = True) -> np.ndarray:
    n = xb.shape[1] - 1
    power_sum = filiform_rows(n, xb)[1]
    return filiform_from_sum(power_sum, xb) if with_top else power_sum ** (1.0 / n)


def norm_kernel(kind: NormKind) -> Callable[[np.ndarray], np.ndarray]:
    """The closed-form norm of `kind` on validated (m, d) float64 batches."""
    return _engel_kernel if kind.variant == ENGEL else _filiform_kernel


def engel_seminorm(x: np.ndarray) -> np.ndarray:
    """(x_1^2 + x_2^2 + |x_3|)^(1/2) on the step-3 group."""
    xb, single = _as_batch(x, 4)
    out = _engel_kernel(xb, with_top=False)
    return out[0] if single else out


def engel_norm(x: np.ndarray) -> np.ndarray:
    """(seminorm^3 + |x_4|)^(1/3) on the step-3 group."""
    xb, single = _as_batch(x, 4)
    out = _engel_kernel(xb)
    return out[0] if single else out


def filiform_seminorm(group: FiliformGroup, x: np.ndarray) -> np.ndarray:
    """The degree-1 homogeneous seminorm |x| with |x|^n = sum_j S_j^(2n/(n+1))."""
    xb, single = _as_batch(x, group.dimension)
    out = _filiform_kernel(xb, with_top=False)
    return out[0] if single else out


def filiform_norm(group: FiliformGroup, x: np.ndarray) -> np.ndarray:
    """(|x|^n + |x_{n+1}|)^(1/n) for the filiform seminorm above."""
    xb, single = _as_batch(x, group.dimension)
    out = _filiform_kernel(xb)
    return out[0] if single else out


def norm_value(kind: NormKind, x: np.ndarray) -> np.ndarray:
    """Evaluate the norm selected by `kind`."""
    xb, single = _as_batch(x, kind.group.dimension)
    out = norm_kernel(kind)(xb)
    return out[0] if single else out


def aux_seminorm(kind: NormKind, x: np.ndarray) -> np.ndarray:
    """|x_2| for the engel kind, |x_1| for the filiform kind."""
    xb, single = _as_batch(x, kind.group.dimension)
    out = np.abs(xb[:, kind.aux_axis])
    return out[0] if single else out


def smooth_mask(kind: NormKind, x: np.ndarray) -> np.ndarray:
    """Smooth-region membership of a single point or a batch.

    A coordinate counts as vanishing when |x_j| < 1e-9 * (1 + max_k |x_k|);
    the relative tolerance keeps sign functions meaningful on the scale of
    the point itself.
    """
    xb, single = _as_batch(x, kind.group.dimension)
    tol = SINGULAR_RTOL * (1.0 + np.max(np.abs(xb), axis=1))
    ok = np.ones(xb.shape[0], dtype=bool)
    for j in kind.singular_axes:
        ok &= np.abs(xb[:, j]) >= tol
    return ok[0] if single else ok
