"""Norms: pinned values, homogeneity, symmetry, smooth-region flags."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotlab.group import FiliformGroup, engel_group
from carnotlab.norms import (
    NormKind,
    aux_seminorm,
    engel_kind,
    engel_norm,
    engel_seminorm,
    filiform_kind,
    filiform_norm,
    filiform_seminorm,
    norm_kernel,
    norm_value,
    smooth_mask,
)


class TestPinnedValues:
    def test_engel_seminorm_ignores_top_coordinate(self):
        assert engel_seminorm(np.array([0.0, 0, 0, 5])) == 0.0

    def test_engel_seminorm_value(self):
        assert engel_seminorm(np.array([1.0, 1, 1, 1])) == pytest.approx(
            np.sqrt(3), abs=1e-12
        )

    def test_engel_norm_at_origin(self):
        assert engel_norm(np.zeros(4)) == 0.0

    def test_engel_norm_value(self):
        expected = (3.0**1.5 + 1.0) ** (1.0 / 3.0)
        assert engel_norm(np.array([1.0, 1, 1, 1])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.8368, abs=1e-4)

    def test_filiform_norm_step3_value(self):
        g = FiliformGroup(3)
        expected = (2.0 * 3.0**1.5 + 1.0) ** (1.0 / 3.0)
        got = filiform_norm(g, np.array([1.0, 1, 1, 1]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.2501, abs=1e-4)
        # The step-3 filiform and Engel norms are equivalent but not equal:
        # their ratio lies in a proper band that reaches above 1.05.
        pts = np.random.default_rng(0).uniform(-5, 5, size=(20_000, 4))
        ratio = filiform_norm(g, pts) / engel_norm(pts)
        assert 0 < ratio.min() <= ratio.max() < np.inf
        assert ratio.max() > 1.05

    def test_filiform_norm_first_axis(self):
        # Single nonzero x_1 = 1: every S_j equals 1, so |x|^n = n - 1.
        for n in (3, 4, 6):
            g = FiliformGroup(n)
            x = np.zeros(n + 1)
            x[0] = 1.0
            assert filiform_norm(g, x) == pytest.approx((n - 1) ** (1.0 / n), abs=1e-12)
        assert filiform_norm(FiliformGroup(3), np.array([1.0, 0, 0, 0])) == pytest.approx(
            2.0 ** (1.0 / 3.0), abs=1e-12
        )

    def test_filiform_x2_double_count(self):
        # The j=2 summand is (|x1|^((n+1)/2) + 2|x2|^((n+1)/2))^beta.
        n = 4
        g = FiliformGroup(n)
        x = np.array([0.0, 1.0, 0, 0, 0])
        beta = 2.0 * n / (n + 1)
        expected = (2.0**beta + 1.0 + 1.0) ** (1.0 / n)  # S_2 = 2, S_3 = S_4 = 1
        assert filiform_norm(g, x) == pytest.approx(expected, abs=1e-12)

    def test_aux_seminorm(self):
        assert aux_seminorm(engel_kind(), np.array([3.0, -2, 1, 1])) == 2.0
        assert aux_seminorm(filiform_kind(4), np.array([-2.0, 5, 0, 0, 0])) == 2.0
        assert aux_seminorm(engel_kind(), np.zeros(4)) == 0.0


class TestKindValidation:
    def test_engel_requires_step_three(self):
        with pytest.raises(ValueError):
            NormKind("engel", FiliformGroup(4))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            NormKind("other", engel_group())

    def test_filiform_any_step(self):
        for n in (3, 5, 12):
            NormKind("filiform", FiliformGroup(n))


@pytest.mark.parametrize(
    "kind",
    [engel_kind(), filiform_kind(3), filiform_kind(4), filiform_kind(6)],
    ids=lambda k: f"{k.variant}-n{k.group.step}",
)
class TestHomogeneityAndSymmetry:
    def test_exact_homogeneity(self, kind):
        g = kind.group
        rng = np.random.default_rng(11)
        x = rng.uniform(-5, 5, size=(2000, g.dimension))
        lam = rng.uniform(0.1, 4.0, size=2000)
        scaled = np.stack([g.dilate(l, xi) for l, xi in zip(lam, x)])
        n_x = norm_value(kind, x)
        n_s = norm_value(kind, scaled)
        assert np.max(np.abs(n_s - lam * n_x)) <= 1e-12 * np.max(lam * n_x) * 10

    def test_positive_off_origin(self, kind):
        g = kind.group
        rng = np.random.default_rng(12)
        x = rng.uniform(-5, 5, size=(500, g.dimension))
        vals = norm_value(kind, x)
        assert np.all(vals[np.max(np.abs(x), axis=1) > 1e-9] > 0)
        assert norm_value(kind, np.zeros(g.dimension)) == 0.0

    def test_single_sign_flip_invariance(self, kind):
        g = kind.group
        rng = np.random.default_rng(13)
        x = rng.uniform(-5, 5, size=(500, g.dimension))
        base = norm_value(kind, x)
        for j in range(g.dimension):
            flipped = x.copy()
            flipped[:, j] *= -1.0
            np.testing.assert_allclose(norm_value(kind, flipped), base, rtol=1e-14)

    def test_continuity_at_hyperplanes(self, kind):
        # Values approaching a singular hyperplane converge to the on-plane value.
        g = kind.group
        rng = np.random.default_rng(14)
        x = rng.uniform(-3, 3, size=(100, g.dimension))
        for j in kind.singular_axes:
            on = x.copy()
            on[:, j] = 0.0
            near = on.copy()
            near[:, j] = 1e-9
            assert np.max(np.abs(norm_value(kind, near) - norm_value(kind, on))) < 1e-5


class TestSmoothRegion:
    def test_engel_smooth_point(self):
        assert smooth_mask(engel_kind(), np.array([1.0, 1, 1, 1]))
        assert smooth_mask(engel_kind(), np.array([1.0, 1, -1, -1]))

    def test_engel_hyperplane_point(self):
        assert not smooth_mask(engel_kind(), np.array([1.0, 1, 0, 1]))
        assert not smooth_mask(engel_kind(), np.array([1.0, 1, 1, 0]))

    def test_engel_first_coordinates_do_not_matter(self):
        assert smooth_mask(engel_kind(), np.array([0.0, 0, 1, 1]))

    def test_filiform_all_axes_matter(self):
        kind = filiform_kind(4)
        assert smooth_mask(kind, np.array([1.0, 1, 1, 1, 1]))
        for j in range(5):
            x = np.ones(5)
            x[j] = 0.0
            assert not smooth_mask(kind, x)

    def test_relative_tolerance(self):
        # |x_3| below 1e-9*(1+max|x|) counts as vanishing.
        kind = engel_kind()
        assert not smooth_mask(kind, np.array([100.0, 0, 5e-8, 1]))
        assert smooth_mask(kind, np.array([0.1, 0.1, 5e-8, 1]))

    def test_mask_matches_flags(self):
        # The batch mask agrees with the mask of each point taken alone.
        kind = filiform_kind(3)
        rng = np.random.default_rng(15)
        pts = rng.uniform(-2, 2, size=(200, 4))
        pts[::5, 2] = 0.0
        mask = smooth_mask(kind, pts)
        assert not np.any(mask[::5])
        for p, ok in zip(pts, mask):
            assert smooth_mask(kind, p) == ok


@given(
    lam=st.floats(0.05, 10.0, allow_nan=False),
    coords=st.lists(st.floats(-8, 8, width=64), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_filiform_homogeneity_property(lam, coords):
    g = FiliformGroup(4)
    x = np.array(coords)
    lhs = filiform_norm(g, g.dilate(lam, x))
    rhs = lam * filiform_norm(g, x)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, rhs)


def test_seminorm_homogeneity():
    g = FiliformGroup(5)
    rng = np.random.default_rng(77)
    x = rng.uniform(-4, 4, size=(300, 6))
    lam = 1.7
    np.testing.assert_allclose(
        filiform_seminorm(g, g.dilate(lam, x)),
        lam * filiform_seminorm(g, x),
        rtol=1e-12,
    )


def _reference_filiform(n: int, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x|^n and N written as np.stack / np.sum over S_j^beta, the formula's plain form."""
    half = (n + 1) / 2.0
    a_pow = np.abs(xb[:, 0]) ** half
    b_pow = np.abs(xb[:, 1]) ** half
    rows = [a_pow + b_pow + np.abs(xb[:, j - 1]) ** ((n + 1) / (2.0 * (j - 1))) for j in range(2, n + 1)]
    power_sum = np.sum(np.stack(rows, axis=0) ** (2.0 * n / (n + 1)), axis=0)
    return power_sum ** (1.0 / n), (power_sum + np.abs(xb[:, -1])) ** (1.0 / n)


@pytest.mark.parametrize("n", range(3, 13))
def test_kernel_bytes_match_stack_sum_formula(n):
    # NumPy sums one column pairwise once it has eight terms (n >= 9), so the
    # one-point batches check the kernel keeps np.sum's order there.
    g = FiliformGroup(n)
    rng = np.random.default_rng(900 + n)
    xb = rng.normal(size=(4099, n + 1)) * rng.uniform(0.01, 30.0, size=(4099, 1)) ** np.array(g.weights)
    xb[::97, rng.integers(0, n + 1)] = 0.0
    sem_ref, norm_ref = _reference_filiform(n, xb)
    kernel = norm_kernel(filiform_kind(n))
    assert kernel(xb).tobytes() == norm_ref.tobytes()
    assert filiform_norm(g, xb).tobytes() == norm_ref.tobytes()
    assert filiform_seminorm(g, xb).tobytes() == sem_ref.tobytes()
    for i in range(64):
        sem_one, norm_one = _reference_filiform(n, xb[i : i + 1])
        assert kernel(xb[i : i + 1]).tobytes() == norm_one.tobytes()
        assert norm_value(filiform_kind(n), xb[i]).tobytes() == norm_one[0].tobytes()
        assert filiform_seminorm(g, xb[i]).tobytes() == sem_one[0].tobytes()


def test_engel_kernel_bytes_match_formula():
    rng = np.random.default_rng(902)
    xb = rng.normal(size=(4099, 4)) * np.array([1.0, 1.0, 4.0, 8.0])
    sem = np.sqrt(xb[:, 0] ** 2 + xb[:, 1] ** 2 + np.abs(xb[:, 2]))
    ref = np.cbrt(sem**3 + np.abs(xb[:, 3]))
    assert norm_kernel(engel_kind())(xb).tobytes() == ref.tobytes()
    assert engel_norm(xb).tobytes() == ref.tobytes()
    assert engel_seminorm(xb).tobytes() == sem.tobytes()
    assert all(norm_value(engel_kind(), xb[i]).tobytes() == ref[i].tobytes() for i in range(64))
