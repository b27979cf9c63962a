"""Horizontal paths: flows, Jacobians, warm starts, distance bounds."""

from __future__ import annotations

import hashlib
import json
import warnings
from math import factorial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from carnotlab.cli import main
from carnotlab.geodesics import (
    LBFGS_MAXITER,
    RESIDUAL_REPORT_FACTOR,
    VALUE_PAD_ABS,
    VALUE_PAD_REL,
    DistanceEstimate,
    EquivalenceBand,
    HorizontalPath,
    InfeasiblePathError,
    _augmented_objective,
    _drive_lbfgsb,
    _optimize_all,
    approx_distance,
    endpoint_and_jacobian,
    endpoint_only,
    equivalence_scan,
    staircase_controls,
)
from carnotlab.group import FiliformGroup, GroupPoint
from carnotlab.norms import engel_kind, filiform_norm, norm_value
from carnotlab.seeding import derive_rng
from test_imports import _run_fresh

ENGEL = FiliformGroup(3)


def rk4_endpoint(
    group: FiliformGroup, controls: np.ndarray, substeps: int = 1
) -> np.ndarray:
    """Classical one-step (or substepped) 4th-order endpoint integrator,
    an independent check of the closed-form flow.

    For step 3 the segment dynamics are polynomial of degree <= 2 in time,
    so a single 4th-order step is exact; higher steps need substeps to
    reach comparable accuracy.
    """
    d = group.dimension
    x = np.zeros(d)
    tau = 1.0 / controls.shape[0]
    h = tau / substeps

    def rhs(state, u1, u2):
        out = np.zeros(d)
        out[0] = u1
        for k in range(2, d + 1):
            out[k - 1] = u2 * state[0] ** (k - 2) / factorial(k - 2)
        return out

    for u1, u2 in controls:
        for _ in range(substeps):
            k1 = rhs(x, u1, u2)
            k2 = rhs(x + 0.5 * h * k1, u1, u2)
            k3 = rhs(x + 0.5 * h * k2, u1, u2)
            k4 = rhs(x + h * k3, u1, u2)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x



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


def _ref_augmented_objective(flat, group, target, lam, rho, eps):
    """One path's augmented-Lagrangian value and gradient, as the optimiser
    computed it before paths were batched; the batched objective must match
    it byte for byte."""
    controls = flat.reshape(-1, 2)
    k_seg = controls.shape[0]
    mags = np.sqrt(np.sum(controls**2, axis=1) + eps**2)
    length, grad_len = float(np.sum(mags) / k_seg), controls / mags[:, None] / k_seg
    endpoint, jac = endpoint_and_jacobian(group, controls)
    resid = endpoint - target
    value = length + float(lam @ resid) + 0.5 * rho * float(resid @ resid)
    grad = grad_len.ravel() + jac.T @ (lam + rho * resid)
    return value, grad


class TestBatchedObjective:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("k_seg", [4, 7, 13, 32])
    def test_rows_byte_equal_to_single_paths(self, n, k_seg):
        g = FiliformGroup(n)
        rng = np.random.default_rng(2000 * n + k_seg)
        target = rng.normal(size=g.dimension)
        for rows in (1, 5, 37):
            scales = rng.choice([1e-3, 1.0, 30.0], size=rows)
            flats = np.stack([_signed_zero_controls(rng, k_seg, s).ravel() for s in scales])
            args = [
                (rng.normal(scale=s, size=g.dimension), 10.0 * 6.0 ** int(rng.integers(4)),
                 1e-9 * (1.0 + s))
                for s in scales
            ]
            values, grads = _augmented_objective(flats, g, target, args)
            assert grads.shape == flats.shape
            for flat, arg, value, grad in zip(flats, args, values, grads):
                ref_value, ref_grad = _ref_augmented_objective(flat, g, target, *arg)
                assert type(value) is float
                assert value.hex() == ref_value.hex()
                assert grad.tobytes() == ref_grad.tobytes()

    @staticmethod
    def _overflow_case(n, segment, u1):
        g = FiliformGroup(n)
        rng = np.random.default_rng(n)
        flats = rng.normal(size=(3, 16))
        flats[1, 2 * segment] = u1
        return g, flats, [(np.zeros(g.dimension), 10.0, 1e-9)] * 3, np.ones(g.dimension)

    def test_overflowing_x1_level_raises(self):
        # The first segment's u1 puts every later x1 level at 1e100 / 8, a
        # Python float whose cube raises, as in the single-path kernel.
        g, flats, args, target = self._overflow_case(6, 0, 1e100)
        with pytest.raises(OverflowError):
            _ref_augmented_objective(flats[1], g, target, *args[1])
        with pytest.raises(OverflowError):
            _augmented_objective(flats, g, target, args)

    def test_overflowing_u1_gives_inf_with_a_warning(self):
        # The last segment's u1 enters no x1 level; its NumPy-scalar fifth
        # power overflows to inf with a RuntimeWarning, row by row as alone.
        g, flats, args, target = self._overflow_case(6, 7, 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            refs = [_ref_augmented_objective(f, g, target, *a) for f, a in zip(flats, args)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values, grads = _augmented_objective(flats, g, target, args)
        assert any("overflow encountered in scalar power" in str(w.message) for w in caught)
        assert not np.isfinite(values[1])
        for (ref_value, ref_grad), value, grad in zip(refs, values, grads):
            assert value.hex() == ref_value.hex()
            assert grad.tobytes() == ref_grad.tobytes()


def _drive_alone(x0, group, target, args):
    """Run the L-BFGS-B driver on one path with the single-path objective."""
    solver = _drive_lbfgsb(x0, args)
    request = next(solver)
    while True:
        x, request_args = request
        try:
            request = solver.send(_ref_augmented_objective(x, group, target, *request_args))
        except StopIteration as done:
            return done.value


def _scipy_lbfgsb(x0, group, target, args):
    return scipy.optimize.minimize(
        _ref_augmented_objective,
        x0,
        args=(group, target, *args),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-12},
    )


class TestLbfgsbDriver:
    """The driver calls scipy's private `setulb` the way
    `scipy.optimize.minimize(method="L-BFGS-B")` does; these fail first if
    scipy changes that routine or its calling convention."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scipy_minimize(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(40 + n)
        target = rng.normal(size=g.dimension)
        k_seg = 2 * n + 1
        scale = float(filiform_norm(g, target))
        args = (rng.normal(size=g.dimension), 10.0, 1e-9 * (1.0 + scale))
        starts = [
            staircase_controls(g, target, k_seg),
            np.tile(target[:2], (k_seg, 1)),
            rng.normal(scale=scale, size=(k_seg, 2)),
        ]
        for start in starts:
            expected = _scipy_lbfgsb(start.ravel(), g, target, args)
            x, nit = _drive_alone(start.ravel(), g, target, args)
            assert nit == expected.nit
            assert x.tobytes() == expected.x.tobytes()

    def test_stops_at_the_iteration_limit(self):
        g = FiliformGroup(4)
        target = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        start = staircase_controls(g, target, 9).ravel()
        args = (np.zeros(5), 10.0, 1e-9 * (1.0 + float(filiform_norm(g, target))))
        expected = _scipy_lbfgsb(start, g, target, args)
        x, nit = _drive_alone(start, g, target, args)
        assert expected.nit == nit == LBFGS_MAXITER
        assert x.tobytes() == expected.x.tobytes()


class TestLockstep:
    def test_results_do_not_depend_on_the_other_starts(self):
        rng = np.random.default_rng(9)
        target = rng.normal(size=4)
        starts = [staircase_controls(ENGEL, target, 7), np.tile(target[:2], (7, 1))]
        starts += [rng.normal(size=(7, 2)) for _ in range(2)]
        together = _optimize_all(ENGEL, target, starts, 1.0)
        for start, (controls, rnorm, iterations) in zip(starts, together):
            [(alone, alone_rnorm, alone_iterations)] = _optimize_all(ENGEL, target, [start], 1.0)
            assert controls.tobytes() == alone.tobytes()
            assert (rnorm, iterations) == (alone_rnorm, alone_iterations)


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

    def test_default_segments_reach_e_top_at_step_8(self):
        # A fixed default of 16 is below 2n + 1 = 17 here: no level of the
        # cascade had a staircase start, and no start reached e_top.
        group = FiliformGroup(8)
        est = approx_distance(GroupPoint(group, np.eye(9)[8]))
        assert est.segments == 32
        assert est.residual <= RESIDUAL_REPORT_FACTOR * 2.0

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
        args = ["geodesic", "--target", "0.5,0.5,0.2,0.1", "--segments", "8", "--restarts", "2"]
        assert main([*args, "--out", str(tmp_path)]) == 0
        est = approx_distance(
            GroupPoint(ENGEL, np.array([0.5, 0.5, 0.2, 0.1])), 8, restarts=2, seed=0
        )
        rows = (tmp_path / "geodesic_path.csv").read_text().strip().split("\n")
        assert rows[0] == "segment,u1,u2,x1,x2,x3,x4"
        assert len(rows) == 1 + est.path.segments
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_array_equal(table[:, 0], np.arange(est.path.segments))
        np.testing.assert_array_equal(table[:, 1:3], est.path.controls)
        np.testing.assert_array_equal(table[:, 3:], est.path.states())
        np.testing.assert_allclose(table[-1, 3:], est.path.endpoint().coords, atol=1e-15)


class TestNearOriginTarget:
    """delta_0.1(e_top) at step 3 is (0, 0, 0, 0.001): every optimised start
    collapses towards the zero path, and the staircase still reaches it."""

    def test_approx_distance_keeps_the_staircase(self):
        target = ENGEL.dilate(0.1, np.array([0.0, 0.0, 0.0, 1.0]))
        est = approx_distance(GroupPoint(ENGEL, target), 8, restarts=3, seed=0)
        stair = HorizontalPath(ENGEL, staircase_controls(ENGEL, target, 8))
        assert est.residual <= RESIDUAL_REPORT_FACTOR
        assert est.value == stair.length() * (1.0 + VALUE_PAD_REL) + VALUE_PAD_ABS

    def test_cli_passes_within_the_staircase_length(self, tmp_path, capsys):
        assert main(["geodesic", "--target", "0,0,0,0.001", "--out", str(tmp_path)]) == 0
        assert "[geo-residual] PASS" in capsys.readouterr().out
        value = json.loads((tmp_path / "geodesic.json").read_text())["results"]["value"]
        target = np.array([0.0, 0.0, 0.0, 0.001])
        stair = HorizontalPath(ENGEL, staircase_controls(ENGEL, target, 8))
        assert value <= stair.length() * (1.0 + VALUE_PAD_REL) + VALUE_PAD_ABS


# approx_distance on the `distance` benchmark workload's targets: e_1 and
# e_top at steps 3-6, 2n + 1 segments, restarts 3, seed 0.  Values from
# before the restarts ran in lockstep: (step, target, value, residual,
# iterations, SHA-256 of the path controls).  The e_top iteration counts
# come from after the Gauss-Newton polish began to stop on an all-zero step.
DISTANCE_PINS = [
    (3, "e1", 1.0000000010010002, 1.1560200495865536e-24, 120, "7b9f95a5be97dc491265ab7eb2fe45c10fdad11d126b8c43d044bb1c0a59eeff"),
    (3, "etop", 6.689622795917439, 5.969465536882245e-16, 1878, "0336bca5d38eac81a832337aca78edc54e3baa4f1e2d8d1d1b0d3ff25a2cf546"),
    (4, "e1", 1.0000000010010002, 2.220446049250313e-16, 156, "fc9ff126f84318119a74641658872e2e5a8d25bdd5414515c2ac1e7fd61839cf"),
    (4, "etop", 9.764277693414588, 2.5287995121132612e-14, 2721, "90045e01159c4cf91456415caec273580b1b8bdbf88d4cc55bcecdb056ea6dbf"),
    (5, "e1", 1.000000001001, 1.1102230246252332e-16, 178, "1dd5ae286270bba9d11c9bdc14510493289298b4d4bd7a3d7ca8485c8def9f3c"),
    (5, "etop", 12.713629886107059, 2.3100817239948898e-15, 3491, "ff5dc2b99fa86022e82cae7191c57c26a50954ae68e322c3162ed13c71a494eb"),
    (6, "e1", 1.000000001001, 1.1102230260930748e-16, 180, "fbfffc7ad20b85f7df244ce8e50f266d094a3662a06be12cdb60c195ea28b3cc"),
    (6, "etop", 2996.8320297451164, 8.92365263231185e-11, 3525, "ef7776d3f3725568c0745a81c8a432c12657efcf8e34e92aef94fbb24555a4c0"),
]


LOAD_ORDER = """
import hashlib, sys
import numpy as np
from carnotlab.geodesics import approx_distance
from carnotlab.group import FiliformGroup, GroupPoint

def solve():
    est = approx_distance(GroupPoint(FiliformGroup(4), np.eye(5)[4]), 9, restarts=3, seed=0)
    digest = hashlib.sha256(est.path.controls.tobytes()).hexdigest()
    got = tuple(map(repr, (est.value, est.residual, est.iterations, digest)))
    assert got == PIN, got

solve()
assert "scipy.optimize._lbfgsb" in sys.modules and "scipy.optimize" not in sys.modules
import scipy.optimize
solve()
sys.path.insert(0, sys.argv[1])
from test_geodesics import TestLbfgsbDriver
TestLbfgsbDriver().test_matches_scipy_minimize(4)
"""


class TestDistancePins:
    @pytest.mark.parametrize("n,name,value,residual,iterations,digest", DISTANCE_PINS)
    def test_workload_target(self, n, name, value, residual, iterations, digest):
        target = np.zeros(n + 1)
        target[0 if name == "e1" else n] = 1.0
        est = approx_distance(GroupPoint(FiliformGroup(n), target), 2 * n + 1, restarts=3, seed=0)
        assert (repr(est.value), repr(est.residual)) == (repr(value), repr(residual))
        assert est.iterations == iterations
        assert hashlib.sha256(est.path.controls.tobytes()).hexdigest() == digest

    def test_load_order_cannot_change_results(self):
        # A fresh process solves the step-4 e_top row with the L-BFGS-B core
        # loaded alone, then again after importing scipy.optimize, and then
        # repeats one comparison with scipy.optimize.minimize.
        pin = next(row[2:] for row in DISTANCE_PINS if row[:2] == (4, "etop"))
        _run_fresh(f"PIN = {tuple(map(repr, pin))!r}\n" + LOAD_ORDER, str(Path(__file__).parent))

    def test_workload_scan_band(self):
        # The workload's scan: two Engel points from the CLI's scan stream.
        kind = engel_kind()
        pts = derive_rng(0, "geodesic-scan-points").normal(scale=1.5, size=(2, 4))
        assert np.all(norm_value(kind, pts) > 1e-6)
        band = equivalence_scan(kind, pts, k_segments=7, seed=0)
        assert (repr(band.ratio_min), repr(band.ratio_max)) == (
            "1.3459381067822667", "3.2658668797993995")
