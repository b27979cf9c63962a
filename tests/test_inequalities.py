"""Inequality pipelines: LP fits, scans, localization, translation, gaps."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from carnotlab import inequalities
from carnotlab.cli import main as cli_main
from carnotlab.family import (
    MemberBatch,
    TestFunction,
    default_family,
    member_series,
    monomial_member,
    weighted_monomial_exponents,
)
from carnotlab.inequalities import (
    ConditioningError,
    InfeasibleFitError,
    _eigvalsh,
    _fit_vertex_lp,
    _gap_from_sums,
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
from carnotlab.measures import MeasureSpec, SampleBatch, sample
from carnotlab.norms import (
    aux_seminorm,
    engel_kind,
    filiform_kind,
    norm_value,
)
from carnotlab.seeding import derive_rng
from test_imports import _run_fresh

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
        )
        rep = poincare_scan(ENGEL_SPEC, fam, engel_batch, holdout_count=2_000)
        assert rep.entries[0].ratio == pytest.approx(
            rep.entries[1].ratio, rel=1e-12
        )


class TestKindMismatch:
    """A family or region built for another norm kind than the measure's is
    rejected before any member is evaluated."""

    def test_engel_poincare_scan_with_the_filiform_3_family(self):
        # Scanned, this reported sup 15.97 and passed its holdout; the Engel
        # family gives 2.51 on the same batch.
        batch = sample(ENGEL_SPEC, 20_000, seed=1)
        family = default_family(filiform_kind(3), q=ENGEL_SPEC.q)
        with pytest.raises(ValueError, match="family"):
            poincare_scan(ENGEL_SPEC, family, batch, holdout_count=5_000)

    @pytest.mark.parametrize("run", [ubound_fit, poincare_scan])
    def test_filiform_4_spec_with_the_engel_family(self, run, engel_family):
        batch = sample(FIL4_SPEC, 2_000, seed=1)
        with pytest.raises(ValueError, match="family"):
            run(FIL4_SPEC, engel_family, batch, holdout_count=1_000)

    def test_ball_check_with_the_engel_family(self, engel_family):
        with pytest.raises(ValueError, match="family"):
            ball_poincare_check(filiform_kind(3), 2.0, engel_family, 2_000, seed=0)

    def test_localization_with_filiform_params(self):
        batch = sample(ENGEL_SPEC, 2_000, seed=1)
        params = LocalizationParams(kind=filiform_kind(3), radius_r=4.0, level_l=2.0)
        with pytest.raises(ValueError, match="localization"):
            localization_decomposition(
                ENGEL_SPEC, monomial_member(engel_kind(), (1,)), params, batch
            )


class TestBallUniform:
    def test_samples_inside_ball(self):
        kind = engel_kind()
        coords, acc = uniform_ball_samples(kind, 5_000, seed=1)
        assert coords.shape == (5_000, 4)
        assert np.all(norm_value(kind, coords) <= 1.0 + 1e-12)
        assert 0.0 < acc < 1.0

    def test_deterministic(self):
        kind = filiform_kind(4)
        a, acc_a = uniform_ball_samples(kind, 2_000, seed=9)
        b, acc_b = uniform_ball_samples(kind, 2_000, seed=9)
        np.testing.assert_array_equal(a, b)
        assert acc_a == acc_b

    @pytest.mark.parametrize("kind", [engel_kind(), filiform_kind(4), filiform_kind(8), filiform_kind(12)])
    def test_radial_law_is_uniform(self, kind):
        # Uniform on B_1 means P(N <= s) = s^Q, so N^Q is U(0, 1).
        coords, acc = uniform_ball_samples(kind, 100_000, seed=4)
        assert 0.5 < acc < 0.8
        vals = norm_value(kind, coords) ** kind.group.homogeneous_dimension
        mean, se = batch_mean_se(vals)
        assert abs(mean - 0.5) <= 4.0 * se
        assert np.max(vals) <= 1.0 + 1e-12

    def test_ball_check_reports(self, engel_family):
        rep = ball_poincare_check(engel_kind(), ENGEL_SPEC.p, engel_family, 20_000, seed=2)
        assert rep.sup_ratio > 0.0
        assert np.isfinite(rep.sup_ratio)
        assert "one" in rep.excluded
        assert rep.sample_count == 20_000
        assert rep.exponent == 3.0

    @pytest.mark.parametrize("kind", [engel_kind(), filiform_kind(5)], ids=["engel", "filiform-5"])
    def test_ratio_on_a_dilated_ball_scales_by_r_to_the_s(self, kind):
        # delta_r carries the uniform measure on B_1 onto the one on B_r and
        # divides horizontal gradients by r, so a homogeneous member, which
        # f o delta_r only rescales, has ratio r^s R(f) on B_r: the law
        # ball-check reports every radius by.
        s = 3.0
        monomials = [
            monomial_member(kind, e) for e in weighted_monomial_exponents(kind, 3) if any(e)
        ]
        unit, _ = uniform_ball_samples(kind, 4_000, seed=6)
        base, excluded = inequalities._ratio_scan(monomials, MemberBatch(kind, unit), s)
        assert not excluded
        for r in (2.0, 0.7):
            ball_r = kind.group.dilate(r, unit)
            scaled, _ = inequalities._ratio_scan(monomials, MemberBatch(kind, ball_r), s)
            assert [e.label for e in scaled] == [e.label for e in base]
            for got, want in zip(scaled, base):
                assert got.ratio == pytest.approx(r**s * want.ratio, rel=1e-12), got.label


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

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("kind", [engel_kind(), filiform_kind(5)], ids=["engel", "filiform-5"])
    def test_gap_scales_as_a_to_the_2_over_p(self, kind, degree):
        # A draw at a is delta_(a^(-1/p)) of the a = 1 draw on the same seed
        # (up to rounding), and the monomial basis is closed under dilation,
        # so the Galerkin gap and its jackknife SE scale by a^(2/p) exactly
        # in exact arithmetic.  Measured on these 5,000-point draws (numpy
        # 2.4.6): values agree to 2.1e-12 relative and SEs to 1.6e-11; the
        # tolerance is 1e-9 for both.
        p = float(kind.group.step)
        spec1 = MeasureSpec(kind, 1.0, p)
        ref = spectral_gap_galerkin(spec1, degree, sample(spec1, 5_000, seed=3))
        for a in (0.3, 8.0):
            spec = MeasureSpec(kind, a, p)
            est = spectral_gap_galerkin(spec, degree, sample(spec, 5_000, seed=3))
            scale = a ** (2.0 / p)
            assert est.value == pytest.approx(scale * ref.value, rel=1e-9)
            assert est.standard_error == pytest.approx(scale * ref.standard_error, rel=1e-9)


def _reference_block_sums(phi, grads, jackknife_blocks):
    # The per-block sums before the Gram rewrite, verbatim: gradients laid
    # out (m, k, 2) and the stiffness summed by einsum.
    m = phi.shape[0]
    edges = np.linspace(0, m, jackknife_blocks + 1, dtype=int)
    blocks = []
    for b in range(jackknife_blocks):
        lo, hi = edges[b], edges[b + 1]
        pb = phi[lo:hi]
        gb = grads[lo:hi]
        blocks.append(
            (
                hi - lo,
                pb.sum(axis=0),
                pb.T @ pb,
                np.einsum("mkg,mlg->kl", gb, gb),
            )
        )
    return blocks


def _reference_calibration_basis(count, seed, degree=4):
    # The calibration basis before it was streamed, verbatim.
    rng = derive_rng(seed, "gap-calibration")
    pts = rng.normal(size=(count, 2))
    exponent_sets = [
        (i, j)
        for i in range(degree + 1)
        for j in range(degree + 1)
        if 0 < i + j <= degree
    ]
    phi = np.stack([pts[:, 0] ** i * pts[:, 1] ** j for i, j in exponent_sets], axis=1)
    grads = np.stack(
        [
            np.stack(
                [
                    i * pts[:, 0] ** max(i - 1, 0) * pts[:, 1] ** j,
                    j * pts[:, 0] ** i * pts[:, 1] ** max(j - 1, 0),
                ],
                axis=-1,
            )
            for i, j in exponent_sets
        ],
        axis=1,
    )
    return phi, grads


def _reference_galerkin_basis(spec, degree, coords):
    # The Galerkin basis before it was written in place: a list of series,
    # then np.stack.
    members = [
        monomial_member(spec.kind, expts)
        for expts in weighted_monomial_exponents(spec.kind, degree)
        if any(expts)
    ]
    batch = MemberBatch(spec.kind, coords)
    series = [mm.evaluate(batch) for mm in members]
    phi = np.stack([vals for vals, _ in series], axis=1)
    grads = np.stack([g for _, g in series], axis=1)
    return phi, grads


def _streamed_blocks(monkeypatch, run):
    """Every block `_gap_with_jackknife` reduces during `run()`, with its sums."""
    seen = []
    block_sums = inequalities._block_sums

    def spy(phi, grads):
        sums = block_sums(phi, grads)
        seen.append((phi.copy(), grads.copy(), sums))
        return sums

    monkeypatch.setattr(inequalities, "_block_sums", spy)
    run()
    return seen


def _frobenius_rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# `gap --kind engel --step 3 --count 20000 --calibration-count 50000
# --seed 0` (the benchmark's gap-engel operation) before the Gram rewrite.
PARENT_GAP_CSV = {
    ("carnot", 2): (0.23990705653642083, 0.0035132890001604573),
    ("carnot", 3): (0.010203358820048084, 0.00017893945795801404),
    ("gaussian-calibration", 4): (1.0047396778478006, 0.006543771748190763),
}


class TestGramSums:
    # 100,003 rows in 20 blocks: edges fall at 5,000 and 5,001 rows.
    COUNT = 100_003

    def test_streamed_calibration_basis_is_byte_equal(self, monkeypatch):
        seen = _streamed_blocks(
            monkeypatch, lambda: gaussian_calibration_gap(self.COUNT, seed=3)
        )
        sizes = {phi.shape[0] for phi, _, _ in seen}
        assert len(seen) == 20 and sizes == {5_000, 5_001}
        phi_ref, grads_ref = _reference_calibration_basis(self.COUNT, seed=3)
        phi = np.concatenate([phi for phi, _, _ in seen])
        grads = np.concatenate([grads for _, grads, _ in seen])
        assert phi.tobytes() == phi_ref.tobytes()
        assert grads.tobytes() == np.ascontiguousarray(grads_ref.transpose(0, 2, 1)).tobytes()

    def test_galerkin_basis_is_byte_equal(self, monkeypatch):
        coords = np.random.default_rng(4).normal(size=(30_011, 4))
        samples = SampleBatch(spec=ENGEL_SPEC, coords=coords, seed=4, diagnostics=None)
        seen = _streamed_blocks(
            monkeypatch, lambda: spectral_gap_galerkin(ENGEL_SPEC, 3, samples)
        )
        phi_ref, grads_ref = _reference_galerkin_basis(ENGEL_SPEC, 3, coords)
        phi = np.concatenate([phi for phi, _, _ in seen])
        grads = np.concatenate([grads for _, grads, _ in seen])
        assert phi.tobytes() == phi_ref.tobytes()
        assert grads.tobytes() == np.ascontiguousarray(grads_ref.transpose(0, 2, 1)).tobytes()

    @pytest.mark.parametrize("degree", [None, 2, 3], ids=["calibration", "engel-deg2", "engel-deg3"])
    def test_gram_sums_match_einsum_reference(self, degree, monkeypatch, engel_batch):
        if degree is None:
            seen = _streamed_blocks(
                monkeypatch, lambda: gaussian_calibration_gap(self.COUNT, seed=3)
            )
            phi_ref, grads_ref = _reference_calibration_basis(self.COUNT, seed=3)
        else:
            seen = _streamed_blocks(
                monkeypatch, lambda: spectral_gap_galerkin(ENGEL_SPEC, degree, engel_batch)
            )
            phi_ref, grads_ref = _reference_galerkin_basis(ENGEL_SPEC, degree, engel_batch.coords)
        reference = _reference_block_sums(phi_ref, grads_ref, 20)
        assert len(seen) == len(reference)
        for (_, _, got), want in zip(seen, reference):
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert _frobenius_rel(got[2], want[2]) <= 1e-13
            assert _frobenius_rel(got[3], want[3]) <= 1e-13
            # One syrk each: both Gram sums are exactly symmetric.
            assert np.array_equal(got[2], got[2].T)
            assert np.array_equal(got[3], got[3].T)

    def test_workload_gap_matches_the_einsum_numbers(self, tmp_path):
        argv = ["gap", "--kind", "engel", "--step", "3", "--count", "20000",
                "--calibration-count", "50000", "--seed", "0", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        results = json.loads((tmp_path / "gap.json").read_text())["results"]
        got = {
            (e["mode"], e["degree"]): (e["value"], e["standard_error"])
            for e in results["estimates"] + [results["calibration"]]
        }
        assert got.keys() == PARENT_GAP_CSV.keys()
        for key, (value, se) in PARENT_GAP_CSV.items():
            assert abs(got[key][0] - value) <= 1e-12 * abs(value), key
            assert abs(got[key][1] - se) <= 1e-9 * se, key


def _scipy_gap_from_sums(count, sum_phi, sum_outer, sum_stiff):
    """`_gap_from_sums` as written on scipy.linalg.eigvalsh, the reference."""
    mean = sum_phi / count
    cov = sum_outer / count - np.outer(mean, mean)
    stiff = sum_stiff / count
    scale = 1.0 / np.sqrt(np.diag(cov).copy())
    cov_s = cov * np.outer(scale, scale)
    stiff_s = stiff * np.outer(scale, scale)
    eigvals = scipy.linalg.eigvalsh(cov_s)
    assert eigvals.min() >= 1e-10 * eigvals.max()
    return float(scipy.linalg.eigvalsh(stiff_s, cov_s)[0])


def _random_sums(k: int, seed: int):
    """Gram sums of k random basis values and gradients, as `_block_sums` forms them."""
    rng = np.random.default_rng(seed)
    count = 20 * k
    phi = rng.standard_normal((count, k)) * rng.uniform(0.1, 10.0, size=k)
    grads = rng.standard_normal((2 * count, k))
    return count, phi.sum(axis=0), phi.T @ phi, grads.T @ grads


class TestStandaloneLapack:
    """`_eigvalsh` makes scipy.linalg.eigvalsh's LAPACK calls without scipy.linalg."""

    def test_gap_from_sums_is_bit_equal_to_scipy_eigvalsh(self):
        for k in range(2, 41):
            sums = _random_sums(k, seed=k)
            assert _gap_from_sums(*sums).hex() == _scipy_gap_from_sums(*sums).hex(), k

    def test_eigenvalues_are_bit_equal_to_scipy_eigvalsh(self):
        for k in range(2, 41):
            count, _, outer, stiff = _random_sums(k, seed=100 + k)
            for args in ((outer,), (stiff, outer)):
                got = [v.hex() for v in _eigvalsh(*args)]
                assert got == [v.hex() for v in scipy.linalg.eigvalsh(*args)], k

    def test_indefinite_covariance_raises_scipys_linalg_error(self):
        stiff, cov = np.eye(3), np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError) as want:
            scipy.linalg.eigvalsh(stiff, cov)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _eigvalsh(stiff, cov)
        assert str(got.value) == str(want.value)
        assert "leading minor of order 2 of B is not positive definite" in str(got.value)

    def test_nan_raises_scipys_value_error(self):
        count, sum_phi, sum_outer, sum_stiff = _random_sums(5, seed=0)
        sum_stiff[1, 2] = sum_stiff[2, 1] = np.nan
        with pytest.raises(ValueError) as want:
            _scipy_gap_from_sums(count, sum_phi, sum_outer, sum_stiff)
        with pytest.raises(ValueError) as got:
            _gap_from_sums(count, sum_phi, sum_outer, sum_stiff)
        assert str(got.value) == str(want.value) == "array must not contain infs or NaNs"
        sum_outer[0, 1] = sum_outer[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            _gap_from_sums(count, sum_phi, sum_outer, sum_stiff)

    def test_load_order_cannot_change_results(self):
        _run_fresh(LOAD_ORDER)


# A fresh process computes Gamma on every argument Q/p + 1 the schema allows
# (Q <= 79 at step 12 and p > 1 give (1, 80]) plus the closed forms' and
# overflowing ones, Galerkin gaps, Z and LAPACK eigenvalues with the
# extensions loaded alone; then it imports scipy.special and scipy.linalg,
# checks that their functions are the same objects, and repeats everything
# bit for bit, the eigenvalues through scipy.linalg.eigvalsh.
LOAD_ORDER = """
import sys
import numpy as np
from carnotlab.extensions import load_extension
from carnotlab.inequalities import _eigvalsh, spectral_gap_galerkin
from carnotlab.measures import MeasureSpec, estimate_Z, sample
from carnotlab.norms import engel_kind

closed = [4 / 3, 10 / 3] + [(1 + n * (n + 1) // 2) / n + 1 for n in range(3, 13)]
ARGS = np.concatenate([np.linspace(1.0, 80.0, 200_001), closed, [171.7, 1e3, 1e300]])
PENCILS = []
for k in range(2, 41):
    phi, grads = np.random.default_rng(k).standard_normal((2, 20 * k, k))
    PENCILS.append((phi.T @ phi, grads.T @ grads))
SPEC = MeasureSpec(engel_kind(), 1.0, 3.0)

def gamma_bits(gamma):
    with np.errstate(over="ignore"):
        values = gamma(ARGS)
    assert np.all(np.isinf(values[-3:])) and np.all(np.isfinite(values[:-3]))
    return values.tobytes()

def eig_bits(eigvalsh):
    return [eigvalsh(stiff, outer).tobytes() + eigvalsh(outer).tobytes() for outer, stiff in PENCILS]

def solve():
    gaps = [spectral_gap_galerkin(SPEC, d, sample(SPEC, 5_000, seed=3)) for d in (2, 3)]
    return [(g.value.hex(), g.standard_error.hex()) for g in gaps], estimate_Z(SPEC)

first = solve()
bits = gamma_bits(load_extension("scipy.special._special_ufuncs").gamma), eig_bits(_eigvalsh)
assert "scipy.special" not in sys.modules and "scipy.linalg" not in sys.modules
import scipy.linalg
import scipy.special
flapack = load_extension("scipy.linalg._flapack")
assert scipy.special.gamma is load_extension("scipy.special._special_ufuncs").gamma
funcs = scipy.linalg.get_lapack_funcs(("syevr", "syevr_lwork", "sygvd"), [np.eye(2)])
assert all(map(lambda a, b: a is b, funcs, (flapack.dsyevr, flapack.dsyevr_lwork, flapack.dsygvd)))
assert solve() == first
assert (gamma_bits(scipy.special.gamma), eig_bits(scipy.linalg.eigvalsh)) == bits
"""


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
