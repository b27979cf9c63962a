"""Horizontal paths: flows, Jacobians, warm starts, distance bounds."""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest

from carnotlab.geodesics import (
    DistanceEstimate,
    EquivalenceBand,
    HorizontalPath,
    InfeasiblePathError,
    approx_distance,
    dump_path_csv,
    endpoint_and_jacobian,
    endpoint_only,
    equivalence_scan,
    rk4_endpoint,
    staircase_controls,
)
from carnotlab.group import FiliformGroup, GroupPoint
from carnotlab.norms import engel_kind

ENGEL = FiliformGroup(3)


# Reference: the per-segment scalar loop the vectorised kernel replaces.
# The kernel must reproduce its floating-point operations in order, so the
# comparison below is byte equality, not a tolerance.


def _ref_poly_integrals(x1, u1, tau, max_m):
    i_vals = np.zeros(max_m + 1)
    j_vals = np.zeros(max_m + 1)
    for m in range(max_m + 1):
        acc_i = 0.0
        acc_j = 0.0
        for j in range(m + 1):
            base = x1 ** (m - j) / factorial(m - j) * u1**j / factorial(j)
            acc_i += base * tau ** (j + 1) / (j + 1)
            acc_j += base * tau ** (j + 2) / (j + 2)
        i_vals[m] = acc_i
        j_vals[m] = acc_j
    return i_vals, j_vals


def _ref_segment_flow(d, x, u1, u2, tau):
    i_vals, j_vals = _ref_poly_integrals(float(x[0]), u1, tau, d - 2)
    new = x.copy()
    new[0] += u1 * tau
    for k in range(2, d + 1):
        new[k - 1] += u2 * i_vals[k - 2]
    jac_x_col = np.zeros(d)
    for k in range(3, d + 1):
        jac_x_col[k - 1] = u2 * i_vals[k - 3]
    jac_u = np.zeros((d, 2))
    jac_u[0, 0] = tau
    for k in range(3, d + 1):
        jac_u[k - 1, 0] = u2 * j_vals[k - 3]
    for k in range(2, d + 1):
        jac_u[k - 1, 1] = i_vals[k - 2]
    return new, jac_x_col, jac_u


def _ref_path(group, controls):
    """States after each segment and the endpoint Jacobian."""
    k_seg = controls.shape[0]
    tau = 1.0 / k_seg
    d = group.dimension
    x = np.zeros(d)
    states = np.zeros((k_seg, d))
    jac = np.zeros((d, 2 * k_seg))
    for s in range(k_seg):
        u1, u2 = controls[s]
        x, col, jac_u = _ref_segment_flow(d, x, u1, u2, tau)
        jac += np.outer(col, jac[0, :])
        jac[:, 2 * s : 2 * s + 2] = jac_u
        states[s] = x
    return states, jac


def _signed_zero_controls(rng, k_seg, scale):
    controls = rng.normal(scale=scale, size=(k_seg, 2))
    mask = rng.random(size=controls.shape)
    controls[mask < 0.2] = 0.0
    controls[mask > 0.8] = -0.0
    return controls


class TestKernelMatchesReferenceLoop:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("k_seg", [4, 7, 13, 32])
    def test_byte_equal(self, n, k_seg):
        g = FiliformGroup(n)
        rng = np.random.default_rng(1000 * n + k_seg)
        cases = [np.zeros((k_seg, 2)), np.full((k_seg, 2), -0.0)]
        for scale in (1e-3, 1.0, 30.0):
            cases.append(rng.normal(scale=scale, size=(k_seg, 2)))
            cases.append(_signed_zero_controls(rng, k_seg, scale))
        for controls in cases:
            ref_states, ref_jac = _ref_path(g, controls)
            end, jac = endpoint_and_jacobian(g, controls)
            assert end.tobytes() == ref_states[-1].tobytes()
            assert jac.tobytes() == ref_jac.tobytes()
            assert endpoint_only(g, controls).tobytes() == ref_states[-1].tobytes()
            states = HorizontalPath(g, controls).states()
            assert states.tobytes() == ref_states.tobytes()


class TestSegmentFlow:
    def test_pure_x1_motion(self):
        controls = np.tile([1.0, 0.0], (4, 1))
        end = endpoint_only(ENGEL, controls)
        np.testing.assert_allclose(end, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_pure_x2_motion_at_zero_x1(self):
        controls = np.tile([0.0, 1.0], (4, 1))
        end = endpoint_only(ENGEL, controls)
        np.testing.assert_allclose(end, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_closed_form_matches_one_step_rk4_for_step3(self):
        # Segment dynamics are quadratic in time at step 3, inside the
        # exactness range of a single 4th-order step.
        rng = np.random.default_rng(7)
        for _ in range(10):
            controls = rng.normal(size=(6, 2))
            a = endpoint_only(ENGEL, controls)
            b = rk4_endpoint(ENGEL, controls, substeps=1)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_substepped_rk4_matches_higher_steps(self):
        g6 = FiliformGroup(6)
        rng = np.random.default_rng(8)
        controls = rng.normal(size=(8, 2))
        coarse = rk4_endpoint(g6, controls, substeps=1)
        fine = rk4_endpoint(g6, controls, substeps=64)
        exact = endpoint_only(g6, controls)
        assert np.max(np.abs(fine - exact)) <= 1e-12
        # The single-step integrator is visibly off at step 6.
        assert np.max(np.abs(coarse - exact)) > 1e-10

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        controls = rng.normal(size=(5, 2))
        _, jac = endpoint_and_jacobian(ENGEL, controls)
        flat = controls.ravel()
        h = 1e-6
        fd = np.zeros_like(jac)
        for i in range(flat.size):
            up = flat.copy()
            up[i] += h
            dn = flat.copy()
            dn[i] -= h
            fd[:, i] = (
                endpoint_only(ENGEL, up.reshape(-1, 2))
                - endpoint_only(ENGEL, dn.reshape(-1, 2))
            ) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-8

    def test_reversed_negated_controls_reach_the_inverse(self):
        # Left-invariant flow: running the controls backwards with flipped
        # signs retraces the path after translation, ending at x^-1.
        rng = np.random.default_rng(11)
        for g in (ENGEL, FiliformGroup(5)):
            controls = rng.normal(size=(6, 2))
            x = endpoint_only(g, controls)
            back = endpoint_only(g, -controls[::-1])
            np.testing.assert_allclose(back, g.inverse(x), atol=1e-12)


class TestHorizontalPath:
    def test_endpoint_and_length(self):
        path = HorizontalPath(ENGEL, np.tile([3.0, 4.0], (5, 1)))
        assert path.segments == 5
        assert path.length() == pytest.approx(5.0)  # 5 segments of |u|/5
        assert isinstance(path.endpoint(), GroupPoint)

    def test_refinement_preserves_trajectory(self):
        rng = np.random.default_rng(2)
        path = HorizontalPath(ENGEL, rng.normal(size=(6, 2)))
        fine = path.refined()
        assert fine.segments == 12
        assert fine.length() == pytest.approx(path.length(), abs=1e-15)
        np.testing.assert_allclose(
            fine.endpoint().coords, path.endpoint().coords, atol=1e-13
        )

    def test_states_end_at_endpoint(self):
        rng = np.random.default_rng(4)
        path = HorizontalPath(ENGEL, rng.normal(size=(7, 2)))
        states = path.states()
        assert states.shape == (7, 4)
        np.testing.assert_allclose(states[-1], path.endpoint().coords, atol=1e-14)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            HorizontalPath(ENGEL, np.zeros((4, 3)))


class TestStaircase:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_exactly_feasible(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            target = rng.normal(size=g.dimension)
            controls = staircase_controls(g, target, 2 * n + 1)
            end = endpoint_only(g, controls)
            assert np.max(np.abs(end - target)) <= 1e-9 * (
                1 + np.max(np.abs(target))
            )

    def test_requires_enough_segments(self):
        assert staircase_controls(ENGEL, np.ones(4), 6) is None
        assert staircase_controls(ENGEL, np.ones(4), 7) is not None


class TestApproxDistance:
    def test_identity_target_is_zero(self):
        est = approx_distance(GroupPoint(ENGEL, np.zeros(4)), 8)
        assert est.value == 0.0
        assert est.residual == 0.0

    def test_axis_targets_near_one(self):
        for coords in ([1.0, 0, 0, 0], [0.0, 1, 0, 0]):
            est = approx_distance(
                GroupPoint(ENGEL, np.array(coords)), 8, restarts=3, seed=0
            )
            assert 1.0 <= est.value <= 1.02
            assert est.residual <= 1e-6 * 2.5

    def test_value_bounds_first_coordinate(self):
        # Any horizontal path spends at least |x1| of length on X1.
        target = np.array([2.0, 0.3, 0.1, 0.0])
        est = approx_distance(GroupPoint(ENGEL, target), 8, restarts=2, seed=1)
        assert est.value >= 2.0

    def test_monotone_in_segments(self):
        target = GroupPoint(ENGEL, np.array([0.4, -0.2, 0.3, -0.1]))
        v8 = approx_distance(target, 8, restarts=2, seed=0).value
        v16 = approx_distance(target, 16, restarts=2, seed=0).value
        assert v16 <= v8 + 1e-8

    def test_dilation_consistency(self):
        x = np.array([0.4, -0.2, 0.3, -0.1])
        base = approx_distance(GroupPoint(ENGEL, x), 8, restarts=2, seed=0).value
        doubled = approx_distance(
            GroupPoint(ENGEL, ENGEL.dilate(2.0, x)), 8, restarts=2, seed=0
        ).value
        assert abs(doubled / (2.0 * base) - 1.0) <= 0.03

    def test_deterministic(self):
        target = GroupPoint(ENGEL, np.array([0.2, 0.5, -0.3, 0.4]))
        a = approx_distance(target, 8, restarts=2, seed=3)
        b = approx_distance(target, 8, restarts=2, seed=3)
        assert a.value == b.value
        np.testing.assert_array_equal(a.path.controls, b.path.controls)

    def test_center_target_costs_more_than_norm(self):
        # Reaching (0, 0, 1, 0) needs an enclosing loop; the bound is
        # well above 1 but finite and feasible.
        est = approx_distance(
            GroupPoint(ENGEL, np.array([0.0, 0.0, 1.0, 0.0])), 8, restarts=3, seed=0
        )
        assert 3.0 <= est.value <= 4.5
        assert est.residual <= 1e-6 * 2.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="segments"):
            approx_distance(GroupPoint(ENGEL, np.ones(4)), 3)
        with pytest.raises(ValueError, match="finite"):
            approx_distance(GroupPoint(ENGEL, np.array([np.nan, 0, 0, 0])), 8)

    def test_estimate_fields(self):
        est = approx_distance(GroupPoint(ENGEL, np.ones(4)), 8, restarts=2, seed=0)
        assert isinstance(est, DistanceEstimate)
        assert est.segments == est.path.segments
        assert est.iterations > 0
        end = est.path.endpoint().coords
        assert np.max(np.abs(end - np.ones(4))) <= 1e-6

    def test_infeasible_error_carries_residual(self):
        err = InfeasiblePathError("no path", best_residual=0.5)
        assert err.best_residual == 0.5


class TestEquivalenceScan:
    def test_band_on_random_points(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(8, 4))
        band = equivalence_scan(engel_kind(), pts, k_segments=8, seed=0)
        assert isinstance(band, EquivalenceBand)
        assert 0.0 < band.ratio_min <= band.ratio_max
        assert band.spread >= 1.0
        assert band.count == 8
        assert band.caveat

    def test_rejects_origin(self):
        pts = np.zeros((1, 4))
        with pytest.raises(ValueError, match="origin"):
            equivalence_scan(engel_kind(), pts, k_segments=8, seed=0)

    def test_ratios_respect_norm_equivalence(self):
        # The distance bound can exceed the norm but stays within a modest
        # multiple on moderate points; the lower edge stays positive.
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(6, 4))
        band = equivalence_scan(engel_kind(), pts, k_segments=8, seed=0)
        assert band.ratio_max <= 10.0
        assert band.ratio_min >= 0.5


class TestPathDump:
    def test_csv_round_trip(self, tmp_path):
        est = approx_distance(
            GroupPoint(ENGEL, np.array([0.5, 0.5, 0.2, 0.1])), 8, restarts=2, seed=0
        )
        out = tmp_path / "path.csv"
        dump_path_csv(est.path, out)
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "segment,u1,u2,x1,x2,x3,x4"
        assert len(rows) == 1 + est.path.segments
        last = np.array([float(v) for v in rows[-1].split(",")[3:]])
        np.testing.assert_allclose(last, est.path.endpoint().coords, atol=1e-15)
        controls = np.array(
            [[float(v) for v in r.split(",")[1:3]] for r in rows[1:]]
        )
        np.testing.assert_allclose(controls, est.path.controls, atol=1e-15)
