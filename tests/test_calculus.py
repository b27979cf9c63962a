"""Frame derivatives: tables vs finite differences, algebraic identities."""

from __future__ import annotations

import numpy as np
import pytest

from carnotlab.calculus import (
    EngelNormTable,
    FiliformNormTable,
    fd_frame_first,
    fd_frame_second,
    norm_derivative_tables,
    pair_length,
    pair_sum,
)
from carnotlab.frames import left_frame
from carnotlab.group import FiliformGroup, engel_group
from carnotlab.norms import engel_kind, engel_norm, filiform_kind, smooth_mask


def smooth_points(kind, count, seed, box=5.0, standoff=0.3):
    """Random box points kept clear of the kind's singular hyperplanes."""
    rng = np.random.default_rng(seed)
    d = kind.group.dimension
    out = np.empty((0, d))
    while out.shape[0] < count:
        cand = rng.uniform(-box, box, size=(count * 2, d))
        ok = np.ones(cand.shape[0], dtype=bool)
        for j in kind.singular_axes:
            ok &= np.abs(cand[:, j]) > standoff
        out = np.vstack([out, cand[ok]])
    return out[:count]


class TestSimpleFields:
    def test_coordinate_field_gradient(self):
        g = FiliformGroup(4)
        grad = fd_frame_first(lambda X: X[:, 0], left_frame(g), np.array([3.0, 1, 2, 0, 1]))
        np.testing.assert_allclose(grad[0], [1.0, 0.0], atol=1e-9)

    def test_third_coordinate_gradient(self):
        # X_2 x_3 = x_1 in the left frame.
        x = np.array([2.0, 5, 1, 3])
        grad = fd_frame_first(lambda X: X[:, 2], left_frame(engel_group()), x)
        np.testing.assert_allclose(grad[0], [0.0, 2.0], atol=1e-9)

    def test_square_laplacian(self):
        x = np.array([1.5, 2, 3, 4])
        second = fd_frame_second(lambda X: X[:, 0] ** 2, left_frame(engel_group()), x)
        assert np.sum(second[0]) == pytest.approx(2.0, abs=5e-7)

    def test_x3_squared_laplacian(self):
        # X_2^2 x_3^2 = 2 x_1^2; X_1^2 x_3^2 = 0.
        x = np.array([2.0, 1, 0.5, 3])
        second = fd_frame_second(lambda X: X[:, 2] ** 2, left_frame(engel_group()), x)
        assert np.sum(second[0]) == pytest.approx(2.0 * 4.0, abs=1e-6)

    def test_batch_shapes(self):
        frame = left_frame(engel_group())
        pts = np.random.default_rng(0).uniform(-2, 2, size=(9, 4))
        assert fd_frame_first(lambda X: X[:, 0] * X[:, 1], frame, pts).shape == (9, 2)
        assert fd_frame_second(lambda X: X[:, 0] * X[:, 1], frame, pts).shape == (9, 2)
        table = norm_derivative_tables(engel_kind())
        for name in ("first", "second"):
            assert getattr(table, name)(pts).shape == (9, 2)
        for name in ("gradient_norm", "laplacian"):
            assert getattr(table, name)(pts).shape == (9,)


class TestEngelTable:
    def test_pinned_gradient(self):
        table = norm_derivative_tables(engel_kind())
        first = table.first(np.array([1.0, 1, 1, 1]))
        np.testing.assert_allclose(first, [0.1579, 0.5135], atol=1e-3)
        nval = engel_norm(np.array([1.0, 1, 1, 1]))
        assert first[1] == pytest.approx(np.sqrt(3) / nval**2, abs=1e-12)

    def test_pinned_gradient_closed_form(self):
        # X_1 N = (1.5|x|(2x1 - sgn(x3) x2) - sgn(x4) x3)/(3N^2) at (1,1,1,1).
        table = norm_derivative_tables(engel_kind())
        x = np.array([1.0, 1, 1, 1])
        nval = engel_norm(x)
        expected = (1.5 * np.sqrt(3) * 1.0 - 1.0) / (3 * nval**2)
        assert table.first(x)[0] == pytest.approx(expected, abs=1e-14)

    def test_first_vs_fd(self):
        kind = engel_kind()
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 500, seed=21)
        an = table.first(pts)
        fd = fd_frame_first(lambda X: engel_norm(X), table.frame, pts)
        scale = np.maximum(np.max(np.abs(an), axis=1), 1e-8)
        assert np.max(np.max(np.abs(fd - an), axis=1) / scale) < 1e-6

    def test_second_vs_fd(self):
        kind = engel_kind()
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 500, seed=22)
        an = table.second(pts)
        fd = fd_frame_second(lambda X: engel_norm(X), table.frame, pts)
        scale = np.maximum(np.max(np.abs(an), axis=1), 1e-6)
        assert np.max(np.max(np.abs(fd - an), axis=1) / scale) < 1e-4

    def test_x2_ratio_identity(self):
        # |X_2 N| N^2 = |x| |x_2| exactly on the smooth region.
        kind = engel_kind()
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 2000, seed=23)
        pts = pts[np.abs(pts[:, 1]) > 1e-6]
        ratio = (
            np.abs(table.first(pts)[:, 1])
            * table.value(pts) ** 2
            / (table.seminorm(pts) * np.abs(pts[:, 1]))
        )
        np.testing.assert_allclose(ratio, 1.0, atol=1e-12)

    def test_scale_invariance_of_first(self):
        kind = engel_kind()
        table = norm_derivative_tables(kind)
        g = kind.group
        pts = smooth_points(kind, 200, seed=24)
        for lam in (0.5, 2.0, 7.0):
            scaled = g.dilate(lam, pts)
            np.testing.assert_allclose(table.first(scaled), table.first(pts), rtol=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestFiliformTable:
    def test_first_vs_fd(self, n):
        kind = filiform_kind(n)
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 400, seed=30 + n)
        an = table.first(pts)
        value_fn = table.value
        fd = fd_frame_first(value_fn, table.frame, pts)
        scale = np.maximum(np.max(np.abs(an), axis=1), 1e-8)
        assert np.max(np.max(np.abs(fd - an), axis=1) / scale) < 1e-6

    def test_second_vs_fd(self, n):
        kind = filiform_kind(n)
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 400, seed=40 + n)
        an = table.second(pts)
        fd = fd_frame_second(table.value, table.frame, pts)
        scale = np.maximum(np.max(np.abs(an), axis=1), 1e-6)
        assert np.max(np.max(np.abs(fd - an), axis=1) / scale) < 1e-4

    def test_x1_sign(self, n):
        kind = filiform_kind(n)
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 500, seed=50 + n)
        first = table.first(pts)
        assert np.all(np.sign(first[:, 0]) == np.sign(pts[:, 0]))

    def test_lower_ratio_at_least_one(self, n):
        kind = filiform_kind(n)
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 2000, seed=60 + n)
        ratio = (
            np.abs(table.first(pts)[:, 0])
            * table.value(pts) ** (n - 1)
            / (table.seminorm(pts) * np.abs(pts[:, 0])) ** ((n - 1) / 2.0)
        )
        assert np.min(ratio) >= 1.0 - 1e-9

    def test_scale_invariance_of_first(self, n):
        kind = filiform_kind(n)
        table = norm_derivative_tables(kind)
        g = kind.group
        pts = smooth_points(kind, 100, seed=70 + n)
        scaled = g.dilate(3.0, pts)
        np.testing.assert_allclose(table.first(scaled), table.first(pts), rtol=1e-10)


class TestLeibnizAndChain:
    def test_leibniz_identity(self):
        g = FiliformGroup(4)
        frame = left_frame(g)
        rng = np.random.default_rng(5)
        exps = rng.integers(0, 3, size=(6, 2, 5))
        pts = rng.uniform(-2, 2, size=(50, 5))
        for ef, eg in exps:
            def f(X, e=ef):
                return np.prod(X**e, axis=1)

            def h(X, e=eg):
                return np.prod(X**e, axis=1)

            lhs = fd_frame_first(lambda X: f(X) * h(X), frame, pts)
            rhs = (
                f(pts)[:, None] * fd_frame_first(h, frame, pts)
                + h(pts)[:, None] * fd_frame_first(f, frame, pts)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * (1 + np.max(np.abs(rhs)))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_norm_power_chain_rule(self, p):
        kind = engel_kind()
        table = norm_derivative_tables(kind)
        pts = smooth_points(kind, 300, seed=80)
        lhs = fd_frame_first(lambda X: engel_norm(X) ** p, table.frame, pts)
        nval = table.value(pts)
        rhs = p * nval[:, None] ** (p - 1) * table.first(pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * (1 + np.max(np.abs(rhs)))


class TestSingularHandling:
    # The tables are valid on the smooth region only; smooth_mask is the
    # guard their callers apply.
    def test_singular_point_rejected(self):
        assert not smooth_mask(engel_kind(), np.array([1.0, 1.0, 0.0, 1.0]))

    def test_singular_point_rejected_in_batch(self):
        pts = np.array([[1.0, 1, 1, 1], [1.0, 0.0, 1, 1]])
        np.testing.assert_array_equal(smooth_mask(filiform_kind(3), pts), [True, False])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EngelNormTable(filiform_kind(3))
        with pytest.raises(ValueError):
            FiliformNormTable(engel_kind())


def test_equality_approach_when_single_term_dominates():
    # When one S_j term carries almost all of the sum the power-sum
    # inequality behind the lower ratio becomes an equality.
    n = 5
    kind = filiform_kind(n)
    table = norm_derivative_tables(kind)
    base = np.array([1e-3, 1e-3, 1e-3, 10.0, 1e-3, 0.9])
    ratio = (
        np.abs(table.first(base[None, :])[0, 0])
        * table.value(base[None, :])[0] ** (n - 1)
        / (table.seminorm(base[None, :])[0] * abs(base[0])) ** ((n - 1) / 2.0)
    )
    assert ratio == pytest.approx(1.0, abs=1e-2)


def test_smooth_mask_feeds_tables():
    kind = filiform_kind(4)
    pts = smooth_points(kind, 100, seed=90)
    assert np.all(smooth_mask(kind, pts))


def reference_x2_coefficients(group, xb):
    """The left X_2 coefficient loop the filiform table used before it read
    FiliformGroup.taylor_powers: c_k = x_1^(k-2)/(k-2)!, rows k = 2..n+1."""
    d = group.dimension
    out = np.empty((d - 1, xb.shape[0]))
    out[0] = 1.0
    for k in range(3, d + 1):
        out[k - 2] = out[k - 3] * xb[:, 0] / (k - 2)
    return out


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_x2_coefficients_bytes_match_reference_loop(n, scale):
    g = FiliformGroup(n)
    xb = scale * np.random.default_rng(n).uniform(-1, 1, size=(64, g.dimension))
    xb[:2, 0] = [0.0, -0.0]
    assert g.taylor_powers(xb[:, 0]).tobytes() == reference_x2_coefficients(g, xb).tobytes()


def _special_pairs() -> np.ndarray:
    """(m, 2) rows pairing 0, -0, subnormals, extremes, inf and NaN."""
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([
        0.0, -0.0, tiny, -tiny, 1e-310, -2.5e-320, np.finfo(float).tiny,
        1e-160, 1.5, -3.0, 1e154, 1e200, -1e308, np.inf, -np.inf, np.nan, -np.nan,
    ])
    # Quiet and signalling NaNs with payloads.
    nans = np.array([0x7FF8000000000123, 0xFFF8000000000456, 0x7FF0000000000001], dtype=np.uint64)
    values = np.concatenate([values, nans.view(np.float64)])
    rows = np.array([(a, b) for a in values for b in values])
    rng = np.random.default_rng(0)
    return np.vstack([rows, rng.normal(size=(500, 2)) * 10.0 ** rng.integers(-300, 300, size=(500, 1))])


def test_pair_helpers_match_axis_sums_bitwise():
    # The length-2 sums replace np.sum over the last axis in the norm jet
    # and in member_series; they must not move a bit, signed zeros, NaNs
    # and overflow included.
    pairs = _special_pairs()
    with np.errstate(all="ignore"):
        assert pair_length(pairs).tobytes() == np.sqrt(np.sum(pairs**2, axis=-1)).tobytes()
        assert pair_sum(pairs).tobytes() == np.sum(pairs, axis=-1).tobytes()


@pytest.mark.parametrize(
    "kind", [engel_kind()] + [filiform_kind(n) for n in range(3, 13)],
    ids=lambda k: f"{k.variant}-{k.group.step}",
)
def test_first_alone_matches_the_shared_jet(kind, monkeypatch):
    # `first` builds no second-order piece, yet equals the first
    # derivatives of a jet that also served `second`.
    table = norm_derivative_tables(kind)
    x = smooth_points(kind, 2_000, seed=kind.group.step)
    jet = table.jet(x)
    jet.second
    shared = jet.first

    def no_second(self, arg):
        raise AssertionError("first() built second-order pieces")

    monkeypatch.setattr(type(table), "_jet_second", no_second)
    if isinstance(table, FiliformNormTable):
        # The filiform pieces of a jet hold both orders.
        monkeypatch.setattr(FiliformNormTable, "_pieces", no_second)
    assert table.first(x).tobytes() == shared.tobytes()
