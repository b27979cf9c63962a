"""Inequality pipelines: LP fits, scans, localization, translation, gaps."""

from __future__ import annotations

import numpy as np
import pytest

from carnotlab.family import (
    MemberBatch,
    TestFunction,
    default_family,
    member_series,
    monomial_member,
)
from carnotlab.inequalities import (
    ConditioningError,
    InfeasibleFitError,
    _fit_vertex_lp,
    annulus_samples,
    ball_poincare_check,
    batch_mean_se,
    gaussian_calibration_gap,
    localization_decomposition,
    LocalizationParams,
    poincare_scan,
    spectral_gap_galerkin,
    translation_trick_check,
    ubound_fit,
    ubound_weight,
    uniform_ball_samples,
)
from carnotlab.measures import MeasureSpec, sample
from carnotlab.norms import (
    aux_seminorm,
    engel_kind,
    filiform_kind,
    norm_value,
)

ENGEL_SPEC = MeasureSpec(kind=engel_kind(), a=1.0, p=3.0)
FIL4_SPEC = MeasureSpec(kind=filiform_kind(4), a=1.0, p=4.0)


@pytest.fixture(scope="module")
def engel_batch():
    return sample(ENGEL_SPEC, 150_000, seed=20)


@pytest.fixture(scope="module")
def engel_family():
    return default_family(ENGEL_SPEC.kind, q=ENGEL_SPEC.q)


class TestBatchMeans:
    def test_constant_series(self):
        mean, se = batch_mean_se(np.full(5_000, 4.25))
        assert mean == 4.25
        assert se == 0.0

    def test_iid_normal_scaling(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=100_000)
        mean, se = batch_mean_se(vals)
        # True SE is 1/sqrt(m); batch means at 50 blocks agree to a factor.
        assert abs(mean) < 4 * se
        assert 0.5 / np.sqrt(100_000) < se < 2.0 / np.sqrt(100_000)

    def test_short_series(self):
        mean, se = batch_mean_se(np.array([2.0]))
        assert mean == 2.0
        assert se == 0.0

    def test_fewer_points_than_batches(self):
        # Below N_BATCHES points each point is its own batch.
        vals = np.array([1.0, 4.0, 2.0, 8.0, 5.0, 7.0])
        mean, se = batch_mean_se(vals)
        assert mean == pytest.approx(4.5, rel=1e-15)
        assert se == pytest.approx(np.std(vals, ddof=1) / np.sqrt(6), rel=1e-15)

    def test_remainder_left_out_of_batches_only(self):
        # 105 points in 50 batches: the batches use the first 100, the mean all.
        vals = np.r_[np.arange(100.0), np.full(5, 1000.0)]
        mean, se = batch_mean_se(vals)
        assert mean == pytest.approx(vals.mean(), rel=1e-15)
        batch_means = np.arange(100.0).reshape(50, 2).mean(axis=1)
        assert se == pytest.approx(np.std(batch_means, ddof=1) / np.sqrt(50), rel=1e-15)


class TestVertexLP:
    def test_single_constraint_prefers_small_c(self):
        c, d = _fit_vertex_lp([("f", 1.0, 1.0, 1.0)])
        assert (c, d) == (0.0, 1.0)

    def test_two_axis_constraints(self):
        c, d = _fit_vertex_lp([("f", 1.0, 1.0, 0.0), ("g", 1.0, 0.0, 1.0)])
        assert c == pytest.approx(1.0)
        assert d == pytest.approx(1.0)

    def test_pure_gradient_constraint(self):
        c, d = _fit_vertex_lp([("f", 1.0, 2.0, 0.0)])
        assert c == pytest.approx(0.5)
        assert d == 0.0

    def test_zero_lhs_gives_origin(self):
        c, d = _fit_vertex_lp([("f", 0.0, 1.0, 1.0)])
        assert (c, d) == (0.0, 0.0)

    def test_intersection_vertex(self):
        # Rows 1 <= C + 3D and 1 <= 3C + D: feasible axis vertices cost 1,
        # the crossing C = D = 1/4 costs 1/2 and wins.
        c, d = _fit_vertex_lp([("f", 1.0, 1.0, 3.0), ("g", 1.0, 3.0, 1.0)])
        assert c == pytest.approx(0.25)
        assert d == pytest.approx(0.25)

    def test_feasibility_of_returned_point(self):
        rng = np.random.default_rng(7)
        rows = [
            (f"f{i}", float(a), float(b), float(cc))
            for i, (a, b, cc) in enumerate(
                rng.uniform(0.05, 2.0, size=(25, 3))
            )
        ]
        c, d = _fit_vertex_lp(rows)
        assert c >= 0.0 and d >= 0.0
        for _, a, b, cc in rows:
            assert a <= c * b + d * cc + 1e-8
        # Enlarging the coefficients keeps every constraint satisfied.
        for _, a, b, cc in rows:
            assert a <= (c + 0.5) * b + (d + 0.5) * cc + 1e-8

    def test_infeasible_when_lhs_has_no_support(self):
        with pytest.raises(InfeasibleFitError, match="bad"):
            _fit_vertex_lp([("bad", 1.0, 0.0, 0.0)])


class TestUBound:
    def test_engel_fit_feasible_with_holdout(self, engel_batch, engel_family):
        rep = ubound_fit(ENGEL_SPEC, engel_family, engel_batch, holdout_count=60_000)
        assert rep.feasible is True
        assert rep.holdout_pass is True
        assert rep.fitted_c >= 0.0 and rep.fitted_d >= 0.0
        assert len(rep.train) == 50
        assert len(rep.holdout) == len(engel_family) - 50
        assert rep.train_seed == 20
        assert rep.holdout_seed != rep.train_seed

    def test_constant_member_pins_d(self, engel_batch, engel_family):
        # f = 1 forces A_one <= D, with A_one = mu(weight).
        rep = ubound_fit(ENGEL_SPEC, engel_family, engel_batch, holdout_count=60_000)
        one = next(fm for fm in rep.train if fm.label == "one")
        w = ubound_weight(ENGEL_SPEC, MemberBatch(ENGEL_SPEC.kind, engel_batch.coords))
        assert one.a == pytest.approx(float(np.mean(w)))
        assert one.b == 0.0
        assert one.c == pytest.approx(1.0)
        assert rep.fitted_d >= one.a - 3.0 * one.a_se - 1e-9

    def test_rerun_identical(self, engel_family):
        batch = sample(ENGEL_SPEC, 40_000, seed=3)
        r1 = ubound_fit(ENGEL_SPEC, engel_family, batch, holdout_count=20_000)
        r2 = ubound_fit(ENGEL_SPEC, engel_family, batch, holdout_count=20_000)
        assert r1 == r2


@pytest.mark.parametrize("spec", [ENGEL_SPEC, FIL4_SPEC], ids=["engel", "filiform-n4"])
def test_ubound_training_moments_equal_family_audit(spec):
    # ubound_fit evaluates members through member_series, so the training
    # moments C and B equal the series means bit for bit.
    fam = default_family(spec.kind, q=spec.q)
    batch = sample(spec, 4_000, seed=31)
    report = ubound_fit(spec, fam, batch, holdout_count=500)
    context = MemberBatch(spec.kind, batch.coords)
    assert len(report.train) == len(fam.train_indices)
    for idx, fm in zip(fam.train_indices, report.train):
        member = fam.members[idx]
        vals, gmag = member_series(member, context, fam.q)
        assert fm.label == member.label
        assert fm.c == float(np.mean(np.abs(vals) ** fam.q))
        assert fm.b == float(np.mean(gmag))


@pytest.mark.parametrize("spec", [ENGEL_SPEC, FIL4_SPEC], ids=["engel", "filiform-n4"])
def test_ubound_weight_reads_the_batch_norm(spec):
    # The weight takes N from the member context, the same kernel as
    # norm_value, so it keeps the bytes of the formula written out.
    x = sample(spec, 2_000, seed=32).coords
    n = spec.kind.group.step
    ref = norm_value(spec.kind, x) ** (spec.p - n) * aux_seminorm(spec.kind, x) ** n
    assert ubound_weight(spec, MemberBatch(spec.kind, x)).tobytes() == ref.tobytes()


class TestPoincare:
    def test_scan_excludes_constant(self, engel_batch, engel_family):
        rep = poincare_scan(ENGEL_SPEC, engel_family, engel_batch, holdout_count=60_000)
        assert "one" in rep.excluded
        assert rep.sup_ratio > 0.0
        assert rep.c0_candidate == pytest.approx(1.1 * rep.sup_ratio)
        assert rep.holdout_pass is True
        assert rep.regime_flag is False
        labels = {e.label for e in rep.entries}
        assert "one" not in labels

    def test_below_threshold_sets_regime_flag(self, engel_family):
        with pytest.warns(UserWarning):
            soft = MeasureSpec(kind=engel_kind(), a=1.0, p=2.0)
        fam = default_family(soft.kind, q=soft.q)
        batch = sample(soft, 30_000, seed=6)
        rep = poincare_scan(soft, fam, batch, holdout_count=15_000)
        assert rep.regime_flag is True

    def test_centering_makes_level_shifts_free(self, engel_batch):
        # f and f + const give identical centered moments and gradients, so
        # their ratios must agree exactly on shared samples.
        kind = ENGEL_SPEC.kind
        x2 = monomial_member(kind, (0, 1))
        lifted = TestFunction(
            label="x2+5",
            value=lambda X: x2.value(X) + 5.0,
            gradient=x2.gradient,
        )
        from carnotlab.family import TestFunctionFamily

        fam = TestFunctionFamily(
            kind=kind,
            q=ENGEL_SPEC.q,
            members=(x2, lifted),
            train_indices=(0, 1),
            holdout_indices=(),
            description="level-shift pair",
        )
        rep = poincare_scan(ENGEL_SPEC, fam, engel_batch, holdout_count=2_000)
        assert rep.entries[0].ratio == pytest.approx(
            rep.entries[1].ratio, rel=1e-12
        )


class TestBallUniform:
    def test_samples_inside_ball(self):
        kind = engel_kind()
        coords, acc = uniform_ball_samples(kind, 2.0, 5_000, seed=1)
        assert coords.shape == (5_000, 4)
        assert np.all(norm_value(kind, coords) <= 2.0 + 1e-12)
        assert 0.0 < acc < 1.0

    def test_deterministic(self):
        kind = filiform_kind(4)
        a, acc_a = uniform_ball_samples(kind, 1.0, 2_000, seed=9)
        b, acc_b = uniform_ball_samples(kind, 1.0, 2_000, seed=9)
        np.testing.assert_array_equal(a, b)
        assert acc_a == acc_b

    @pytest.mark.parametrize("kind", [engel_kind(), filiform_kind(4), filiform_kind(8), filiform_kind(12)])
    def test_radial_law_is_uniform(self, kind):
        # Uniform on B_r means P(N <= s) = (s/r)^Q, so (N/r)^Q is U(0, 1).
        coords, acc = uniform_ball_samples(kind, 1.5, 100_000, seed=4)
        assert 0.5 < acc < 0.8
        vals = (norm_value(kind, coords) / 1.5) ** kind.group.homogeneous_dimension
        mean, se = batch_mean_se(vals)
        assert abs(mean - 0.5) <= 4.0 * se
        assert np.max(vals) <= 1.0 + 1e-12

    def test_ball_check_reports(self, engel_family):
        rep = ball_poincare_check(
            engel_kind(), 2.0, ENGEL_SPEC.p, engel_family, 20_000, seed=2
        )
        assert rep.sup_ratio > 0.0
        assert np.isfinite(rep.sup_ratio)
        assert "one" in rep.excluded
        assert rep.sample_count == 20_000
        assert rep.exponent == 3.0

    def test_sup_grows_with_radius(self, engel_family):
        # Recorded diagnostic: larger balls allow slower functions.
        sups = [
            ball_poincare_check(
                engel_kind(), r, ENGEL_SPEC.p, engel_family, 20_000, seed=2
            ).sup_ratio
            for r in (1.0, 2.0)
        ]
        assert sups[0] < sups[1]


class TestLocalization:
    def test_partition_and_chebyshev(self, engel_batch, engel_family):
        member = next(m for m in engel_family.members if m.label == "x2")
        params = LocalizationParams(
            kind=ENGEL_SPEC.kind, radius_r=1.0, level_l=2.0
        )
        rep = localization_decomposition(ENGEL_SPEC, member, params, engel_batch)
        assert rep.partition_defect <= 1e-12
        three = rep.term_far + rep.term_ball + rep.term_annulus
        assert rep.total == pytest.approx(three, abs=1e-12)
        assert rep.chebyshev_ok is True
        assert rep.term_far <= rep.chebyshev_bound + 1e-12
        assert sum(rep.region_fractions) == pytest.approx(1.0, abs=1e-12)
        assert rep.shift_claims_pass is True
        assert rep.degenerate_regions == ()

    def test_envelope_matches_chebyshev_at_critical_exponent(
        self, engel_batch, engel_family
    ):
        # p = n makes the norm factor N^(p-n) identically one.
        member = next(m for m in engel_family.members if m.label == "x1")
        params = LocalizationParams(
            kind=ENGEL_SPEC.kind, radius_r=1.0, level_l=2.0
        )
        rep = localization_decomposition(ENGEL_SPEC, member, params, engel_batch)
        assert rep.envelope_bound == pytest.approx(rep.chebyshev_bound, rel=1e-12)

    def test_chebyshev_soundness_recomputed(self, engel_batch, engel_family):
        # Independent check of mu(g 1{w >= R}) <= mu(g w) / R for g >= 0.
        member = next(m for m in engel_family.members if m.label == "tanh2")
        xb = engel_batch.coords
        n = ENGEL_SPEC.kind.group.step
        w = aux_seminorm(ENGEL_SPEC.kind, xb) ** n
        vals = member.value(xb)
        g = np.abs(vals - np.mean(vals)) ** ENGEL_SPEC.q
        for big_r in (0.5, 1.0, 4.0):
            lhs = float(np.mean(g * (w >= big_r)))
            rhs = float(np.mean(g * w)) / big_r
            assert lhs <= rhs + 1e-12

    def test_degenerate_region_warns(self, engel_batch, engel_family):
        member = engel_family.members[1]
        params = LocalizationParams(
            kind=ENGEL_SPEC.kind, radius_r=1e9, level_l=2.0
        )
        with pytest.warns(UserWarning, match="far"):
            rep = localization_decomposition(
                ENGEL_SPEC, member, params, engel_batch
            )
        assert "far" in rep.degenerate_regions

    def test_param_validation(self):
        with pytest.raises(ValueError, match="R"):
            LocalizationParams(kind=engel_kind(), radius_r=0.0, level_l=2.0)
        with pytest.raises(ValueError, match="L"):
            LocalizationParams(kind=engel_kind(), radius_r=1.0, level_l=1.0)


class TestTranslation:
    def test_annulus_membership(self):
        kind = engel_kind()
        pts = annulus_samples(kind, 1.0, 2.0, 3_000, seed=4)
        n = kind.group.step
        assert pts.shape[0] == 3_000
        assert np.all(aux_seminorm(kind, pts) ** n <= 1.0 + 1e-12)
        assert np.all(norm_value(kind, pts) >= 2.0 - 1e-12)

    @pytest.mark.parametrize(
        "kind", [engel_kind(), filiform_kind(4)], ids=["engel", "fil4"]
    )
    def test_every_sample_passes(self, kind):
        rep = translation_trick_check(kind, 1.0, 2.0, 10_000, seed=0)
        assert rep.all_pass is True
        assert rep.norm_claim_passes == rep.sample_count == 10_000
        assert rep.aux_claim_passes == 10_000
        assert rep.min_norm_margin >= -1e-12
        assert rep.min_aux_margin >= -1e-12

    def test_deterministic(self):
        kind = filiform_kind(4)
        a = translation_trick_check(kind, 1.0, 2.0, 2_000, seed=5)
        b = translation_trick_check(kind, 1.0, 2.0, 2_000, seed=5)
        assert a == b

    def test_shift_element_moves_one_coordinate(self):
        params = LocalizationParams(kind=engel_kind(), radius_r=8.0, level_l=2.0)
        h = params.shift_element()
        np.testing.assert_allclose(h, [0.0, 2.0 * 2.0, 0.0, 0.0])
        params4 = LocalizationParams(
            kind=filiform_kind(4), radius_r=16.0, level_l=2.0
        )
        h4 = params4.shift_element()
        np.testing.assert_allclose(h4, [2.0 * 2.0, 0.0, 0.0, 0.0, 0.0])


class TestSpectralGap:
    def test_gaussian_calibration(self):
        est = gaussian_calibration_gap(300_000, seed=0)
        assert est.mode == "gaussian-calibration"
        assert est.basis_size == 14
        assert abs(est.value - 1.0) <= 0.05
        assert est.value <= 1.0 + 3.0 * est.standard_error
        assert est.standard_error > 0.0

    def test_engel_gap_positive_and_monotone(self, engel_batch):
        g2 = spectral_gap_galerkin(ENGEL_SPEC, 2, engel_batch)
        g3 = spectral_gap_galerkin(ENGEL_SPEC, 3, engel_batch)
        assert g2.mode == "carnot"
        assert g2.value > 0.0
        assert g3.value > 0.0
        # Larger basis can only lower the variational minimum.
        assert g3.value <= g2.value + 3.0 * (g2.standard_error + g3.standard_error)
        assert g2.basis_size == 6  # degree-2 monomials minus the constant
        assert g3.basis_size == 13

    def test_uses_requested_blocks(self, engel_batch):
        est = spectral_gap_galerkin(ENGEL_SPEC, 2, engel_batch, jackknife_blocks=10)
        assert est.standard_error > 0.0

    def test_conditioning_error_on_duplicate_basis(self):
        # A batch supported on a single point has zero covariance.
        batch = sample(ENGEL_SPEC, 2_000, seed=0)
        frozen = batch.coords.copy()
        frozen[:] = frozen[0]
        from carnotlab.measures import SampleBatch

        fake = SampleBatch(
            spec=ENGEL_SPEC,
            coords=frozen,
            seed=0,
            diagnostics=batch.diagnostics,
        )
        with pytest.raises(ConditioningError):
            spectral_gap_galerkin(ENGEL_SPEC, 2, fake)

    def test_too_few_samples_for_jackknife(self):
        batch = sample(ENGEL_SPEC, 30, seed=0)
        with pytest.raises(ValueError, match="jackknife"):
            spectral_gap_galerkin(ENGEL_SPEC, 2, batch, jackknife_blocks=20)


class TestFiliformPipelines:
    def test_fil4_ubound_feasible(self):
        fam = default_family(FIL4_SPEC.kind, q=FIL4_SPEC.q)
        batch = sample(FIL4_SPEC, 60_000, seed=21)
        rep = ubound_fit(FIL4_SPEC, fam, batch, holdout_count=30_000)
        assert rep.feasible is True
        assert rep.holdout_pass is True
        assert rep.q == pytest.approx(4.0 / 3.0)

    def test_fil4_localization(self):
        fam = default_family(FIL4_SPEC.kind, q=FIL4_SPEC.q)
        batch = sample(FIL4_SPEC, 60_000, seed=22)
        member = next(m for m in fam.members if m.label == "x2")
        # L = 1.1 keeps all three regions populated at this sample size.
        params = LocalizationParams(kind=FIL4_SPEC.kind, radius_r=1.0, level_l=1.1)
        rep = localization_decomposition(FIL4_SPEC, member, params, batch)
        assert rep.degenerate_regions == ()
        assert rep.partition_defect <= 1e-12
        assert rep.chebyshev_ok is True
        assert rep.shift_claims_pass is True
