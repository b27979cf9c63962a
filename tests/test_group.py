"""Group arithmetic: pinned values, axioms, dilation compatibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotlab.group import FiliformGroup, engel_group


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
