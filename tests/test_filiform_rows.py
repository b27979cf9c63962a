"""The filiform S_j rows: one builder, bitwise the code it replaced.

`norms.filiform_rows` builds the rows for the norm, the seminorm and the
derivative tables.  The references below are the two copies of the row
formula that it replaced, the closed-form kernel and the first-order pass
of `FiliformNormTable`, kept verbatim; the new code must match them bit
for bit, on random points and on rows holding 0, -0, 1e-150 and 1e150.
"""

from __future__ import annotations

import numpy as np
import pytest

from carnotlab.calculus import FiliformNormTable
from carnotlab.group import FiliformGroup
from carnotlab.norms import filiform_kind, filiform_norm, filiform_rows, filiform_seminorm

SPECIALS = np.array([0.0, -0.0, 1e-150, 1e150, -1e-150, -1e150, 1.0, -0.7])


def _reference_kernel(n: int, with_top: bool):
    half = (n + 1) / 2.0
    alphas = [(n + 1) / (2.0 * (j - 1)) for j in range(3, n + 1)]
    beta, inv_n = 2.0 * n / (n + 1), 1.0 / n

    def kernel(xb: np.ndarray) -> np.ndarray:
        b_pow = np.abs(xb[:, 1]) ** half
        ab = np.abs(xb[:, 0]) ** half + b_pow  # S_2 has T_2 = B
        rows = [ab + b_pow] + [ab + np.abs(xb[:, j]) ** al for j, al in enumerate(alphas, 2)]
        total = np.sum(np.stack(rows) ** beta, axis=0)
        if with_top:
            total += np.abs(xb[:, -1])
        return total**inv_n

    return kernel


def _reference_first(group: FiliformGroup, xb: np.ndarray) -> np.ndarray:
    n = group.step
    beta = 2.0 * n / (n + 1)
    alphas = {j: (n + 1) / (2.0 * (j - 1)) for j in range(2, n + 1)}
    half = (n + 1) / 2.0
    ax1 = np.abs(xb[:, 0])
    ax2 = np.abs(xb[:, 1])
    a_pow = ax1**half
    b_pow = ax2**half
    s_rows = []
    t_p = {}
    for j in range(2, n + 1):
        aj = alphas[j]
        axj = np.abs(xb[:, j - 1])
        s_rows.append(a_pow + b_pow + axj**aj)
        t_p[j] = aj * axj ** (aj - 1.0) * np.sign(xb[:, j - 1])
    s = np.stack(s_rows, axis=0)
    sb1 = s ** (beta - 1.0)
    a_p = half * ax1 ** (half - 1.0) * np.sign(xb[:, 0])
    b_p = half * ax2 ** (half - 1.0) * np.sign(xb[:, 1])
    sum_sb1 = np.sum(sb1, axis=0)
    c = group.taylor_powers(xb[:, 0])
    g1 = beta * a_p * sum_sb1
    d2g = beta * b_p * (sum_sb1 + sb1[0])
    x2g = c[0] * d2g
    for j in range(3, n + 1):
        x2g = x2g + c[j - 2] * beta * sb1[j - 2] * t_p[j]
    x2g = x2g + c[n - 1] * np.sign(xb[:, -1])
    nval = _reference_kernel(n, True)(xb)
    denom = n * nval ** (n - 1)
    return np.stack([g1 / denom, x2g / denom], axis=-1)


def _points(n: int) -> np.ndarray:
    """Smooth random rows, then rows drawn from SPECIALS alone and rows
    with one special entry in a random coordinate."""
    rng = np.random.default_rng(1200 + n)
    scale = rng.uniform(0.01, 30.0, size=(2000, 1)) ** np.array(FiliformGroup(n).weights)
    smooth = rng.normal(size=(2000, n + 1)) * scale
    special = rng.choice(SPECIALS, size=(500, n + 1))
    mixed = rng.normal(size=(500, n + 1))
    mixed[np.arange(500), rng.integers(0, n + 1, size=500)] = rng.choice(SPECIALS, size=500)
    return np.concatenate([smooth, special, mixed])


@pytest.mark.parametrize("n", range(3, 13))
def test_norm_and_seminorm_match_the_reference_kernel(n):
    g = FiliformGroup(n)
    xb = _points(n)
    with np.errstate(all="ignore"):
        assert filiform_norm(g, xb).tobytes() == _reference_kernel(n, True)(xb).tobytes()
        assert filiform_seminorm(g, xb).tobytes() == _reference_kernel(n, False)(xb).tobytes()
        # One-point batches: NumPy sums a one-point column pairwise.
        for i in range(0, xb.shape[0], 50):
            one = xb[i : i + 1]
            assert filiform_norm(g, one).tobytes() == _reference_kernel(n, True)(one).tobytes()
            assert filiform_seminorm(g, one).tobytes() == _reference_kernel(n, False)(one).tobytes()


@pytest.mark.parametrize("n", range(3, 13))
def test_first_matches_the_reference_pass(n):
    g = FiliformGroup(n)
    table = FiliformNormTable(filiform_kind(n))
    xb = _points(n)
    with np.errstate(all="ignore"):
        assert table.first(xb).tobytes() == _reference_first(g, xb).tobytes()
        for i in range(0, xb.shape[0], 50):
            one = xb[i : i + 1]
            assert table.first(one).tobytes() == _reference_first(g, one).tobytes()


@pytest.mark.parametrize("n", [3, 4, 9, 12])
def test_rows_count_x2_twice(n):
    # S_2 = A + B + B; S_j = A + B + |x_j|^((n+1)/(2(j-1))) for j >= 3.
    xb = np.random.default_rng(n).uniform(0.1, 2.0, size=(7, n + 1))
    rows, power_sum = filiform_rows(n, xb)
    half = (n + 1) / 2.0
    ab = xb[:, 0] ** half + xb[:, 1] ** half
    assert rows.shape == (n - 1, 7)
    np.testing.assert_allclose(rows[0], ab + xb[:, 1] ** half, rtol=1e-15)
    for j in range(3, n + 1):
        np.testing.assert_allclose(rows[j - 2], ab + xb[:, j - 1] ** ((n + 1) / (2.0 * (j - 1))),
                                   rtol=1e-15)
    np.testing.assert_allclose(power_sum, np.sum(rows ** (2.0 * n / (n + 1)), axis=0), rtol=1e-15)
