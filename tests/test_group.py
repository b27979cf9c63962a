"""Group arithmetic: pinned values, axioms, dilation compatibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotlab.group import _BLOCK_ROWS, FiliformGroup, engel_group, row_max_abs


def coords_strategy(dim: int, bound: float = 10.0):
    return st.lists(
        st.floats(-bound, bound, allow_nan=False, allow_infinity=False, width=64),
        min_size=dim,
        max_size=dim,
    ).map(np.array)


class TestPinnedValues:
    def test_engel_basic_product(self):
        g = engel_group()
        out = g.compose(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 0.5], rtol=0, atol=1e-15)

    def test_engel_inverse(self):
        g = engel_group()
        out = g.inverse(np.array([1.0, 1, 1, 1]))
        np.testing.assert_allclose(out, [-1.0, -1.0, 0.0, -0.5], rtol=0, atol=1e-15)

    def test_engel_dilation(self):
        g = engel_group()
        out = g.dilate(2.0, np.array([1.0, 1, 1, 1]))
        np.testing.assert_allclose(out, [2.0, 2.0, 4.0, 8.0], rtol=0, atol=0)

    def test_engel_product_third_fourth_rows(self):
        # (x o y)_3 = x3 + y3 + y2 x1 and (x o y)_4 = x4 + y4 + y3 x1 + y2 x1^2/2
        g = engel_group()
        x = np.array([2.0, -1.0, 0.5, 3.0])
        y = np.array([-1.5, 2.0, 1.0, -0.5])
        out = g.compose(x, y)
        assert out[2] == pytest.approx(0.5 + 1.0 + 2.0 * 2.0, abs=1e-14)
        assert out[3] == pytest.approx(3.0 - 0.5 + 1.0 * 2.0 + 2.0 * 2.0, abs=1e-14)


class TestDescriptor:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 12])
    def test_weights_and_homogeneous_dimension(self, n):
        g = FiliformGroup(n)
        assert g.dimension == n + 1
        assert g.weights == (1, 1) + tuple(range(2, n + 1))
        assert g.homogeneous_dimension == 1 + n * (n + 1) // 2

    def test_engel_homogeneous_dimension_is_seven(self):
        assert engel_group().homogeneous_dimension == 7

    @pytest.mark.parametrize("n", [0, 1, 2, 13, 50])
    def test_step_out_of_range(self, n):
        with pytest.raises(ValueError):
            FiliformGroup(n)

    def test_step_type_checked(self):
        with pytest.raises(TypeError):
            FiliformGroup(3.0)  # type: ignore[arg-type]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestAxioms:
    def tol(self, *pts) -> float:
        m = max(np.max(np.abs(p)) for p in pts)
        return 1e-10 * (1.0 + m)

    def test_associativity(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(1000 + n)
        x, y, z = rng.uniform(-10, 10, size=(3, 500, n + 1))
        lhs = g.compose(g.compose(x, y), z)
        rhs = g.compose(x, g.compose(y, z))
        assert np.max(np.abs(lhs - rhs)) <= self.tol(x, y, z)

    def test_identity(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(2000 + n)
        x = rng.uniform(-10, 10, size=(200, n + 1))
        e = g.identity()
        np.testing.assert_allclose(g.compose(x, e), x, atol=0)
        np.testing.assert_allclose(g.compose(e, x), x, atol=0)

    def test_inverse_cancels(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(3000 + n)
        x = rng.uniform(-10, 10, size=(200, n + 1))
        assert np.max(np.abs(g.compose(x, g.inverse(x)))) <= self.tol(x)
        assert np.max(np.abs(g.compose(g.inverse(x), x))) <= self.tol(x)

    def test_inverse_is_involution(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(4000 + n)
        x = rng.uniform(-10, 10, size=(200, n + 1))
        assert np.max(np.abs(g.inverse(g.inverse(x)) - x)) <= self.tol(x)

    def test_dilation_is_automorphism(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(5000 + n)
        x, y = rng.uniform(-5, 5, size=(2, 200, n + 1))
        for lam in (0.25, 1.0, 3.0):
            lhs = g.dilate(lam, g.compose(x, y))
            rhs = g.compose(g.dilate(lam, x), g.dilate(lam, y))
            assert np.max(np.abs(lhs - rhs)) <= self.tol(x, y) * max(1.0, lam) ** n

    def test_dilation_composes(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(6000 + n)
        x = rng.uniform(-5, 5, size=(50, n + 1))
        np.testing.assert_allclose(
            g.dilate(2.0, g.dilate(3.0, x)), g.dilate(6.0, x), rtol=1e-13
        )


class TestReflectedCompose:
    def test_engel_rows(self):
        # out_3 = x3 + a3 - a2 x1, out_4 = x4 + a4 - a3 x1 + a2 x1^2/2
        g = engel_group()
        x = np.array([2.0, 0.3, -1.0, 0.7])
        a = np.array([-0.5, 1.2, 0.4, 2.0])
        out = g.reflected_compose(x, a)
        assert out[0] == pytest.approx(1.5)
        assert out[1] == pytest.approx(1.5)
        assert out[2] == pytest.approx(-1.0 + 0.4 - 1.2 * 2.0, abs=1e-14)
        assert out[3] == pytest.approx(0.7 + 2.0 - 0.4 * 2.0 + 1.2 * 2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_reflection_conjugation(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(42)
        x, a = rng.uniform(-3, 3, size=(2, 100, n + 1))
        kappa = np.ones(n + 1)
        kappa[0] = -1.0
        expected = kappa * g.compose(kappa * x, kappa * a)
        np.testing.assert_allclose(g.reflected_compose(x, a), expected, atol=1e-12)

    def test_cancelled_first_coordinate_is_positive_zero(self):
        # Conjugating compose by kappa would give -0.0 here.
        g = engel_group()
        out = g.reflected_compose(np.array([0.5, 0.0, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0, 0.0]))
        assert out[0] == 0.0 and not np.signbit(out[0])

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_is_group_law(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(43)
        x, y, z = rng.uniform(-3, 3, size=(3, 100, n + 1))
        lhs = g.reflected_compose(g.reflected_compose(x, y), z)
        rhs = g.reflected_compose(x, g.reflected_compose(y, z))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestGroupPoint:
    def test_compose_and_operators(self):
        g = engel_group()
        p = g.point([1.0, 0, 0, 0])
        q = g.point([0.0, 1, 0, 0])
        np.testing.assert_allclose((p @ q).coords, [1, 1, 1, 0.5])
        np.testing.assert_allclose(p.inverse().coords, [-1, 0, 0, 0])
        np.testing.assert_allclose(p.dilate(3.0).coords, [3, 0, 0, 0])

    def test_coords_are_frozen(self):
        p = engel_group().point([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            p.coords[0] = 9.0

    def test_group_mismatch_rejected(self):
        p = FiliformGroup(3).point([1.0, 0, 0, 0])
        q = FiliformGroup(4).point([1.0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            p.compose(q)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            engel_group().point([1.0, 2.0])


@given(
    x=coords_strategy(5, 8.0),
    y=coords_strategy(5, 8.0),
    z=coords_strategy(5, 8.0),
)
@settings(max_examples=100, deadline=None)
def test_associativity_property(x, y, z):
    g = FiliformGroup(4)
    lhs = g.compose(g.compose(x, y), z)
    rhs = g.compose(x, g.compose(y, z))
    scale = 1.0 + max(np.max(np.abs(v)) for v in (x, y, z))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


@given(x=coords_strategy(4, 10.0))
@settings(max_examples=100, deadline=None)
def test_inverse_property(x):
    g = engel_group()
    out = g.compose(x, g.inverse(x))
    assert np.max(np.abs(out)) <= 1e-10 * (1.0 + np.max(np.abs(x)))


# Reference: the product and inverse as one pass over the whole batch, the
# loops the row-blocked kernels replace.
def _ref_product(g, x, y, reflect):
    xb, yb = np.broadcast_arrays(np.atleast_2d(x), np.atleast_2d(y))
    out = xb + yb
    pw = g.taylor_powers(-xb[:, 0] if reflect else xb[:, 0])
    for k in range(3, g.dimension + 1):
        acc = np.zeros(out.shape[0])
        for i in range(2, k):
            acc += yb[:, i - 1] * pw[k - i]
        out[:, k - 1] += acc
    return out


def _ref_inverse(g, x):
    inv = np.empty_like(x)
    inv[:, 0] = -x[:, 0]
    inv[:, 1] = -x[:, 1]
    pw = g.taylor_powers(x[:, 0])
    for k in range(3, g.dimension + 1):
        acc = x[:, k - 1].copy()
        for i in range(2, k):
            acc += inv[:, i - 1] * pw[k - i]
        inv[:, k - 1] = -acc
    return inv


_ORDINARY = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-3, 1.5, -0.75, 3.0, -2.0]
_OVERFLOWING = _ORDINARY + [1e300, -1e300]
_NONFINITE = _OVERFLOWING + [np.inf, -np.inf, np.nan, -np.nan]
_SIZES = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


def _kernel_cases(g, pool, seed):
    """(kernel, case, blocked result, reference) for every size and broadcast side."""
    rng = np.random.default_rng(seed)
    d = g.dimension
    for m in _SIZES:
        x, y = rng.choice(pool, size=(2, m, d))
        p = rng.choice(pool, size=d)
        for reflect in (False, True):
            op = g.reflected_compose if reflect else g.compose
            for a, b, case in ((x, y, "batch"), (p, y, "point o batch"), (x, p, "batch o point")):
                name = f"{case} m={m} reflect={reflect}"
                yield "product", name, op(a, b), _ref_product(g, a, b, reflect)
        yield "inverse", f"inverse m={m}", g.inverse(x), _ref_inverse(g, x)


def _bits(a, nan_sign):
    """The bytes of `a`; without `nan_sign` every NaN is first made the same NaN."""
    return (a if nan_sign else np.where(np.isnan(a), np.nan, a)).tobytes()


# Products are bit-equal even where overflow makes NaNs, since every NaN they
# make is the default NaN.  The inverse negates, so NaNs of both signs meet,
# and numpy's scalar and SIMD loops pick different ones; seen in 3-row tail
# blocks.  inf and NaN inputs do the same to every kernel.
@pytest.mark.parametrize("pool, exact", [
    (_ORDINARY, {"product", "inverse"}), (_OVERFLOWING, {"product"}), (_NONFINITE, set()),
], ids=["ordinary", "overflowing", "nonfinite"])
@pytest.mark.parametrize("n", range(3, 13))
def test_blocked_kernels_match_the_unblocked_loops(n, pool, exact):
    g = FiliformGroup(n)
    with np.errstate(all="ignore"):
        for kernel, case, out, ref in _kernel_cases(g, np.array(pool), 100 * len(pool) + n):
            assert out.shape == ref.shape, case
            assert _bits(out, kernel in exact) == _bits(ref, kernel in exact), case


@pytest.mark.parametrize("m", _SIZES)
@pytest.mark.parametrize("width", [1, 4, 13])
def test_row_max_abs_is_bit_equal(m, width):
    rng = np.random.default_rng(m + width)
    a = rng.choice(np.array(_NONFINITE), size=(m, width))
    for arr in (a, np.asfortranarray(a), -a):
        out = row_max_abs(arr)
        ref = np.max(np.abs(arr), axis=1)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
