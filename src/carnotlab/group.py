"""Filiform groups of step n on R^(n+1) in exponential coordinates.

The model space is R^(n+1) with coordinates x = (x_1, ..., x_{n+1}) and the
polynomial product

    (x o y)_1 = x_1 + y_1
    (x o y)_2 = x_2 + y_2
    (x o y)_k = x_k + y_k + sum_{i=2}^{k-1} y_i * x_1^(k-i) / (k-i)!,  k >= 3.

Coordinate weights are (1, 1, 2, 3, ..., n); the dilations

    delta_lam(x) = (lam*x_1, lam*x_2, lam^2*x_3, ..., lam^n*x_{n+1})

are group automorphisms.  The homogeneous dimension is 1 + n(n+1)/2.

All operations are vectorised: coordinate arrays may be a single point of
shape (n+1,) or a batch of shape (m, n+1), and `compose` broadcasts a single
point against a batch.  The step is capped at 12 so every factorial involved
is exactly representable in float64 and the polynomial sums stay well
conditioned on the boxes used throughout the package.

Products and inverses walk a batch in blocks of 4096 rows, so the
n(n-1)/2 column passes of the Taylor sums read data that sits in cache
rather than striding through the whole batch each time.  Inside a block
every output element sees the same float operations in the same order as
an unblocked pass (Taylor powers of its own x_1, then a sum folded from 0
in increasing i), so the bits are the same.  The one exception is the sign
bit of a NaN.  When two NaNs of opposite sign meet, numpy's scalar and SIMD
loops keep different ones, and a short tail block can take the other loop.
That needs inf or NaN inputs, or overflow in the inverse, whose negations
make NaNs of both signs.
`row_max_abs` takes row-wise maxima by block in the same way; a max
rounds nothing, so it is bit-equal to np.max(np.abs(a), axis=1).  The CLI
draws the inputs of its group-law and invariance checks one `row_blocks`
block at a time and reduces each block before it draws the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_STEP = 12
# Rows per block of the batched product and inverse; see the module docstring.
_BLOCK_ROWS = 4096


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce `x` to shape (m, dim); report whether input was a single point."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"expected {dim} coordinates, got {arr.shape[0]}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ValueError(f"expected trailing dimension {dim}, got {arr.shape[1]}")
        return arr, False
    raise ValueError(f"coordinate array must be 1- or 2-dimensional, got shape {arr.shape}")


def _restore(arr: np.ndarray, single: bool) -> np.ndarray:
    return arr[0] if single else arr


def row_blocks(m: int):
    """Slices of at most `_BLOCK_ROWS` consecutive rows covering range(m)."""
    return (slice(lo, min(lo + _BLOCK_ROWS, m)) for lo in range(0, m, _BLOCK_ROWS))


def row_max_abs(a: np.ndarray) -> np.ndarray:
    """max_j |a_ij| of a 2-D array, bit-equal to np.max(np.abs(a), axis=1).

    Each block of rows folds its columns with np.maximum; a max rounds
    nothing, so the fold order cannot change a bit.
    """
    out = np.empty(a.shape[0])
    for rows in row_blocks(a.shape[0]):
        blk = np.abs(a[rows])
        acc = out[rows]
        acc[:] = blk[:, 0]
        for j in range(1, blk.shape[1]):
            np.maximum(acc, blk[:, j], out=acc)
    return out


@dataclass(frozen=True)
class FiliformGroup:
    """Descriptor of the step-`step` filiform group on R^(step+1).

    Parameters
    ----------
    step:
        Nilpotency step n, between 3 and 12 inclusive.

    Attributes
    ----------
    dimension:
        Topological dimension n + 1.
    weights:
        Coordinate weights (1, 1, 2, ..., n) as an integer tuple.
    homogeneous_dimension:
        1 + n(n+1)/2, the scaling exponent of the Haar measure.
    """

    step: int

    def __post_init__(self) -> None:
        if not isinstance(self.step, int):
            raise TypeError("step must be an int")
        if not 3 <= self.step <= MAX_STEP:
            raise ValueError(f"step must lie in [3, {MAX_STEP}], got {self.step}")

    @property
    def dimension(self) -> int:
        return self.step + 1

    @property
    def weights(self) -> tuple[int, ...]:
        return (1, 1) + tuple(range(2, self.step + 1))

    @property
    def homogeneous_dimension(self) -> int:
        return 1 + self.step * (self.step + 1) // 2

    def identity(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def taylor_powers(self, x1: np.ndarray) -> np.ndarray:
        """Rows of x1^j / j! for j = 0 .. step-1, shape (step, m).

        The product, the inverse, the left frame and the filiform derivative
        table all read their Taylor coefficients from here.
        """
        out = np.empty((self.step, x1.shape[0]))
        out[0] = 1.0
        for j in range(1, self.step):
            out[j] = out[j - 1] * x1 / j
        return out

    def _product(self, x: np.ndarray, y: np.ndarray, reflect: bool) -> np.ndarray:
        """x o y, with the Taylor powers taken in -x_1 when `reflect` is set."""
        d = self.dimension
        xb, xs = _as_batch(x, d)
        yb, ys = _as_batch(y, d)
        if xb.shape[0] != yb.shape[0]:
            if xb.shape[0] == 1:
                xb = np.broadcast_to(xb, yb.shape)
            elif yb.shape[0] == 1:
                yb = np.broadcast_to(yb, xb.shape)
            else:
                raise ValueError("batch sizes do not broadcast")
        out = xb + yb
        for rows in row_blocks(out.shape[0]):
            x1 = xb[rows, 0]
            pw = self.taylor_powers(-x1 if reflect else x1)
            yblk = yb[rows]
            oblk = out[rows]
            for k in range(3, d + 1):
                acc = np.zeros(oblk.shape[0])
                for i in range(2, k):
                    acc += yblk[:, i - 1] * pw[k - i]
                oblk[:, k - 1] += acc
        return _restore(out, xs and ys)

    def compose(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Group product x o y.  Accepts single points or batches."""
        return self._product(x, y, reflect=False)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Group inverse, via back-substitution in the triangular product."""
        d = self.dimension
        xb, single = _as_batch(x, d)
        inv = np.empty_like(xb)
        for rows in row_blocks(xb.shape[0]):
            xblk = xb[rows]
            iblk = inv[rows]
            iblk[:, 0] = -xblk[:, 0]
            iblk[:, 1] = -xblk[:, 1]
            pw = self.taylor_powers(xblk[:, 0])
            for k in range(3, d + 1):
                acc = xblk[:, k - 1].copy()
                for i in range(2, k):
                    acc += iblk[:, i - 1] * pw[k - i]
                iblk[:, k - 1] = -acc
        return _restore(inv, single)

    def dilate(self, lam: float, x: np.ndarray) -> np.ndarray:
        """Apply the weighted dilation delta_lam."""
        xb, single = _as_batch(x, self.dimension)
        scale = np.array([float(lam) ** w for w in self.weights])
        return _restore(xb * scale, single)

    def reflected_compose(self, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Product in the presentation with the first coordinate negated.

        Returns kappa(kappa(x) o kappa(alpha)) where kappa flips the sign of
        coordinate 1.  Explicitly

            out_1 = x_1 + alpha_1,   out_2 = x_2 + alpha_2,
            out_k = x_k + alpha_k + sum_{i=2}^{k-1} alpha_i (-x_1)^(k-i)/(k-i)!.

        The map x -> reflected_compose(x, alpha) is the right translation
        under which the canonical right frame (see frames.right_frame_engel)
        is exactly invariant.
        """
        return self._product(x, alpha, reflect=True)

    def point(self, coords: np.ndarray) -> "GroupPoint":
        return GroupPoint(self, np.asarray(coords, dtype=np.float64))


@dataclass(frozen=True)
class GroupPoint:
    """A single group element: a descriptor plus a coordinate vector."""

    group: FiliformGroup
    coords: np.ndarray = field(repr=True)

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=np.float64)
        if arr.shape != (self.group.dimension,):
            raise ValueError(
                f"coords must have shape ({self.group.dimension},), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def compose(self, other: "GroupPoint") -> "GroupPoint":
        if other.group != self.group:
            raise ValueError("points belong to different groups")
        return GroupPoint(self.group, self.group.compose(self.coords, other.coords))

    def inverse(self) -> "GroupPoint":
        return GroupPoint(self.group, self.group.inverse(self.coords))

    def dilate(self, lam: float) -> "GroupPoint":
        return GroupPoint(self.group, self.group.dilate(lam, self.coords))

    def __matmul__(self, other: "GroupPoint") -> "GroupPoint":
        return self.compose(other)


def engel_group() -> FiliformGroup:
    """The step-3 group on R^4."""
    return FiliformGroup(3)
