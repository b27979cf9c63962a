"""Horizontal gradient and sub-Laplacian along a two-generator frame.

For a frame with horizontal fields X_1, X_2 the horizontal gradient of a
scalar field f is (X_1 f, X_2 f) and the sub-Laplacian is X_1^2 f + X_2^2 f.
Two routes compute them.

`norm_derivative_tables` builds closed-form first and second frame
derivatives of the homogeneous norms: the step-3 norm along the
right-canonical frame and the filiform norm along the left-canonical frame.
All table methods are vectorised over point batches and valid on the norm's
smooth region only (`norms.smooth_mask`); a `NormJet` shares one derivative
pass between every quantity read off a batch.

`fd_frame_first` and `fd_frame_second` take finite differences of any
vectorised value map along frame directions:

* first order: 4th-order central stencil on t -> f(x + t V) with V the frame
  coefficient vector frozen at x (exact convention for first derivatives,
  since X f(x) = V . grad f(x));
* second order: a central difference of the first-order map z -> (X f)(z),
  which re-evaluates the coefficients at the displaced points, so the
  product-rule term of non-constant coefficients is picked up.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .frames import Frame, left_frame, right_frame_engel
from .group import _as_batch
from .norms import (
    ENGEL,
    NormKind,
    engel_from_seminorm,
    engel_norm,
    engel_seminorm,
    filiform_from_sum,
    filiform_norm,
    filiform_rows,
    filiform_seminorm,
)


def pair_length(pairs: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (m, 2) array.

    Bitwise np.sqrt(np.sum(pairs**2, axis=-1)), without the cost of a
    reduction over a length-2 axis (0.96 -> 0.25 ms at 30,000 rows).
    """
    x, y = pairs[:, 0], pairs[:, 1]
    return np.sqrt(x * x + y * y)


def pair_sum(pairs: np.ndarray) -> np.ndarray:
    """Row sums of an (m, 2) array, bitwise np.sum(pairs, axis=-1).

    That reduction starts from +0, so a row (-0, -0) sums to +0; adding
    +0 keeps every other sum as it is.  (`pair_length` needs no such step:
    a sum of squares is never -0.)
    """
    out = pairs[:, 0] + pairs[:, 1]
    out += 0.0
    return out


def directional_stencil(
    value_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    v: np.ndarray,
    h: float,
) -> np.ndarray:
    """4th-order central difference of t -> value_fn(x + t v) at t = 0."""
    return (
        -value_fn(x + 2 * h * v)
        + 8.0 * value_fn(x + h * v)
        - 8.0 * value_fn(x - h * v)
        + value_fn(x - 2 * h * v)
    ) / (12.0 * h)


def fd_frame_first(
    value_fn: Callable[[np.ndarray], np.ndarray],
    frame: Frame,
    x: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Finite-difference (X_1 f, X_2 f), shape (m, 2)."""
    xb, _ = _as_batch(x, frame.group.dimension)
    cols = [
        directional_stencil(value_fn, xb, f.coefficients(xb), h)
        for f in frame.horizontal
    ]
    return np.stack(cols, axis=-1)


def fd_frame_second(
    value_fn: Callable[[np.ndarray], np.ndarray],
    frame: Frame,
    x: np.ndarray,
    h1: float = 1e-5,
    h2: float = 1e-4,
) -> np.ndarray:
    """Finite-difference (X_1^2 f, X_2^2 f), shape (m, 2).

    The outer difference displaces along the coefficient vector frozen at x
    while the inner first-derivative map re-reads coefficients at the
    displaced points, matching the composition X(X f).
    """
    xb, _ = _as_batch(x, frame.group.dimension)
    out = []
    for f in frame.horizontal:
        def first(z, f=f):
            return directional_stencil(value_fn, z, f.coefficients(z), h1)

        v = f.coefficients(xb)
        out.append((first(xb + h2 * v) - first(xb - h2 * v)) / (2.0 * h2))
    return np.stack(out, axis=-1)


class NormDerivativeTable:
    """Closed-form frame derivatives of a homogeneous norm.

    Subclasses fix the norm kind and its natural frame and implement
    vectorised `value`, `seminorm`, `first` (X_i N, shape (m, 2)) and
    `second` (X_i^2 N, shape (m, 2)).  `first` and `second` are read off a
    `NormJet`, built from the subclass's `_pieces` and `_jet_second`; a
    jet's pieces serve both derivative orders.  `_pieces` starts with
    (N, seminorm, X_1 g, X_2 g), where g = N^n and n is the step (3 for
    Engel): the pass that builds the derivatives also gives N and the
    seminorm, and `_chain_first` turns X_i g into X_i N for either kind.
    `first` builds no second-order piece: the Engel pieces hold none, and
    the filiform `first` reads only `_first_pieces`, the first half of its
    `_pieces`.  Each subclass defines `first` and `second` in its own body,
    where the per-layer tracer of the benchmark wraps them.  Values are only
    meaningful on the smooth region; no masking is applied here.
    """

    kind: NormKind
    frame: Frame

    def gradient_norm(self, x: np.ndarray) -> np.ndarray:
        return self._read(x, "gradient_norm")

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        return self._read(x, "laplacian")

    def jet(self, x: np.ndarray) -> "NormJet":
        """The norm quantities of the batch x, each computed at most once."""
        return NormJet(self, _as_batch(x, self.kind.group.dimension)[0])

    def _chain_first(self, nval: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
        """(X_1 N, X_2 N) = (X_1 g, X_2 g) / (n N^(n-1)) for g = N^n, n the step."""
        n = self.kind.group.step
        denom = n * nval ** (n - 1)
        return np.stack([g1 / denom, g2 / denom], axis=-1)

    def _read(self, x: np.ndarray, name: str) -> np.ndarray:
        xb, single = _as_batch(x, self.kind.group.dimension)
        out = getattr(self.jet(xb), name)
        return out[0] if single else out


class NormJet:
    """Norm, seminorm and frame derivatives of one point batch.

    Each quantity is computed on first access and kept, so every ratio built
    on one batch shares a single derivative pass; the table's intermediate
    pieces (`pieces`) are likewise computed once for both derivative orders,
    and N and the seminorm are read off them.  The arrays are bitwise those
    of the table's `value`, `seminorm`, `first`, `second`, `gradient_norm`
    and `laplacian` on the same batch.
    """

    def __init__(self, table: NormDerivativeTable, xb: np.ndarray):
        self.table = table
        self.xb = xb

    @cached_property
    def pieces(self) -> tuple:
        return self.table._pieces(self.xb)

    @property
    def value(self) -> np.ndarray:
        return self.pieces[0]

    @property
    def seminorm(self) -> np.ndarray:
        return self.pieces[1]

    @cached_property
    def first(self) -> np.ndarray:
        nval, _, g1, g2 = self.pieces[:4]
        return self.table._chain_first(nval, g1, g2)

    @cached_property
    def second(self) -> np.ndarray:
        return self.table._jet_second(self)

    @cached_property
    def gradient_norm(self) -> np.ndarray:
        return pair_length(self.first)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return pair_sum(self.second)


class EngelNormTable(NormDerivativeTable):
    """Step-3 norm along the right-canonical frame.

    With g = |x|^3 + |x_4|, s_k = sgn(x_k) and w = 2 x_1 - x_2 s_3:

        X_1 g = 1.5 |x| w - x_3 s_4          X_2 g = 3 |x| x_2
        X_1^2 g = 3 w^2/(4|x|) + 3|x| + x_2 s_4
        X_2^2 g = 3 x_2^2/|x| + 3 |x|

    and N = g^(1/3) gives X_i N = X_i g/(3 N^2),
    X_i^2 N = X_i^2 g/(3 N^2) - (2/9)(X_i g)^2/N^5.
    """

    def __init__(self, kind: NormKind):
        if kind.variant != ENGEL:
            raise ValueError("EngelNormTable requires the engel norm kind")
        self.kind = kind
        self.frame = right_frame_engel(kind.group)

    def value(self, x: np.ndarray) -> np.ndarray:
        return engel_norm(x)

    def seminorm(self, x: np.ndarray) -> np.ndarray:
        return engel_seminorm(x)

    def _pieces(self, xb: np.ndarray):
        sem = engel_seminorm(xb)
        nval = engel_from_seminorm(sem, xb)
        s3 = np.sign(xb[:, 2])
        s4 = np.sign(xb[:, 3])
        w = 2.0 * xb[:, 0] - xb[:, 1] * s3
        g1 = 1.5 * sem * w - xb[:, 2] * s4
        g2 = 3.0 * sem * xb[:, 1]
        return nval, sem, g1, g2, s4, w

    def _jet_second(self, jet: NormJet) -> np.ndarray:
        xb = jet.xb
        nval, sem, g1, g2, s4, w = jet.pieces
        gg1 = 0.75 * w**2 / sem + 3.0 * sem + xb[:, 1] * s4
        gg2 = 3.0 * xb[:, 1] ** 2 / sem + 3.0 * sem
        denom = 3.0 * nval**2
        quint = nval**5
        return np.stack(
            [
                gg1 / denom - (2.0 / 9.0) * g1**2 / quint,
                gg2 / denom - (2.0 / 9.0) * g2**2 / quint,
            ],
            axis=-1,
        )

    def first(self, x: np.ndarray) -> np.ndarray:
        return self._read(x, "first")

    def second(self, x: np.ndarray) -> np.ndarray:
        return self._read(x, "second")


class FiliformNormTable(NormDerivativeTable):
    """Filiform norm along the left-canonical frame, any step n.

    Writes g = sum_{j=2}^n S_j^beta + |x_{n+1}| with beta = 2n/(n+1),
    S_j = A + B + T_j, A = |x_1|^((n+1)/2), B = |x_2|^((n+1)/2),
    T_j = |x_j|^(alpha_j), alpha_j = (n+1)/(2(j-1)); the j = 2 term has
    T_2 = B, so x_2 enters it twice and all x_2-derivatives carry the factor
    (1 + [j=2]).  First derivatives:

        X_1 g = beta A' sum_j S_j^(beta-1)
        X_2 g = sum_{k>=2} c_k dg/dx_k,   c_k = x_1^(k-2)/(k-2)!

    and second derivatives assemble the Hessian entries of g over the
    coordinates that X_2 touches (the X_2 coefficients depend on x_1 only
    and the field has no d/dx_1 component, so no correction term appears).
    N = g^(1/n) then gives X_i N = X_i g/(n N^(n-1)) and
    X_i^2 N = X_i^2 g/(n N^(n-1)) - ((n-1)/n^2)(X_i g)^2/N^(2n-1).
    """

    def __init__(self, kind: NormKind):
        if kind.variant == ENGEL:
            raise ValueError("FiliformNormTable requires the filiform norm kind")
        self.kind = kind
        self.frame = left_frame(kind.group)
        n = kind.group.step
        self.n = n
        self.beta = 2.0 * n / (n + 1)
        self.alphas = {j: (n + 1) / (2.0 * (j - 1)) for j in range(3, n + 1)}

    def value(self, x: np.ndarray) -> np.ndarray:
        return filiform_norm(self.kind.group, x)

    def seminorm(self, x: np.ndarray) -> np.ndarray:
        return filiform_seminorm(self.kind.group, x)

    def _first_pieces(self, xb: np.ndarray):
        """|x|^n and (X_1 g, X_2 g) on the batch, then the intermediates the
        second derivatives reuse: the S_j rows, S_j^(beta-1), its row sum,
        A', B', T_j' (j >= 3) and the X_2 coefficients.  N is left to the
        callers: taken last, it adds no array at the pass's memory peak."""
        n = self.n
        beta = self.beta
        half = (n + 1) / 2.0
        # The power sum first: no (n-1, m) array besides the rows is alive yet.
        s, power_sum = filiform_rows(n, xb)  # s: (n-1, m), rows j = 2..n
        sb1 = s ** (beta - 1.0)
        a_p = half * np.abs(xb[:, 0]) ** (half - 1.0) * np.sign(xb[:, 0])
        b_p = half * np.abs(xb[:, 1]) ** (half - 1.0) * np.sign(xb[:, 1])
        t_p = {
            j: aj * np.abs(xb[:, j - 1]) ** (aj - 1.0) * np.sign(xb[:, j - 1])
            for j, aj in self.alphas.items()
        }
        sum_sb1 = np.sum(sb1, axis=0)
        # Left X_2 coefficients c_k = x_1^(k-2)/(k-2)!, rows k = 2..n+1.
        c = self.kind.group.taylor_powers(xb[:, 0])

        g1 = beta * a_p * sum_sb1
        # dg/dx2 counts the j=2 row twice.
        d2g = beta * b_p * (sum_sb1 + sb1[0])
        x2g = c[0] * d2g
        for j in range(3, n + 1):
            x2g = x2g + c[j - 2] * beta * sb1[j - 2] * t_p[j]
        x2g = x2g + c[n - 1] * np.sign(xb[:, -1])
        return power_sum, g1, x2g, s, sb1, sum_sb1, a_p, b_p, t_p, c

    def _pieces(self, xb: np.ndarray):
        """(N, |x|, X_1 g, X_2 g, X_1^2 g, X_2^2 g) on the batch, in one pass."""
        power_sum, g1, x2g, s, sb1, sum_sb1, a_p, b_p, t_p, c = self._first_pieces(xb)
        n = self.n
        beta = self.beta
        half = (n + 1) / 2.0
        sb2 = s ** (beta - 2.0)
        a_pp = half * (half - 1.0) * np.abs(xb[:, 0]) ** (half - 2.0)
        b_pp = half * (half - 1.0) * np.abs(xb[:, 1]) ** (half - 2.0)
        sum_sb2 = np.sum(sb2, axis=0)

        gg1 = beta * ((beta - 1.0) * a_p**2 * sum_sb2 + a_pp * sum_sb1)

        # Hessian block over coordinates 2..n+1 contracted with c.
        mult = np.ones(n - 1)
        mult[0] = 2.0  # j = 2 row's x_2 multiplicity
        h22 = beta * (
            (beta - 1.0) * b_p**2 * np.einsum("j,jm->m", mult**2, sb2)
            + b_pp * np.einsum("j,jm->m", mult, sb1)
        )
        gg2 = c[0] ** 2 * h22
        for j in range(3, n + 1):
            aj = self.alphas[j]
            if aj == 1.0:
                t_pp = np.zeros(xb.shape[0])
            else:
                t_pp = aj * (aj - 1.0) * np.abs(xb[:, j - 1]) ** (aj - 2.0)
            h2k = beta * (beta - 1.0) * sb2[j - 2] * b_p * t_p[j]
            hkk = beta * ((beta - 1.0) * sb2[j - 2] * t_p[j] ** 2 + sb1[j - 2] * t_pp)
            gg2 = gg2 + 2.0 * c[0] * c[j - 2] * h2k + c[j - 2] ** 2 * hkk
        return filiform_from_sum(power_sum, xb), power_sum ** (1.0 / n), g1, x2g, gg1, gg2

    def _jet_second(self, jet: NormJet) -> np.ndarray:
        nval, _, g1, g2, gg1, gg2 = jet.pieces
        n = self.n
        denom = n * nval ** (n - 1)
        corr = (n - 1.0) / n**2 / nval ** (2 * n - 1)
        return np.stack(
            [gg1 / denom - corr * g1**2, gg2 / denom - corr * g2**2], axis=-1
        )

    def first(self, x: np.ndarray) -> np.ndarray:
        # First-order pieces only: no jet, whose pieces hold both orders.
        xb, single = _as_batch(x, self.kind.group.dimension)
        power_sum, g1, g2 = self._first_pieces(xb)[:3]
        out = self._chain_first(filiform_from_sum(power_sum, xb), g1, g2)
        return out[0] if single else out

    def second(self, x: np.ndarray) -> np.ndarray:
        return self._read(x, "second")


def norm_derivative_tables(kind: NormKind) -> NormDerivativeTable:
    """Analytic first/second frame-derivative table for the given norm kind."""
    if kind.variant == ENGEL:
        return EngelNormTable(kind)
    return FiliformNormTable(kind)
