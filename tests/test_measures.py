"""Tests for the Gibbs measure module: densities, sampling, Z, certificates."""

import hashlib
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.special import gamma

from carnotlab.calculus import ScalarField, norm_derivative_tables
from carnotlab.group import GroupPoint
from carnotlab.measures import (
    SampleDiagnostics,
    MeasureSpec,
    Perturbation,
    SampleBatch,
    ZEstimate,
    _effective_samples,
    check_perturbation_certificate,
    cone_samples,
    estimate_Z,
    expectation,
    export_csv,
    load_batch,
    log_unnormalized_density,
    sample,
    save_batch,
)
from carnotlab.norms import engel_kind, filiform_kind, norm_value, smooth_mask

ENGEL_SPEC = MeasureSpec(engel_kind(), a=1.0, p=3.0)


def test_log_density_at_identity():
    assert log_unnormalized_density(ENGEL_SPEC, np.zeros(4)) == 0.0


def test_log_density_engel_pinned():
    # N((1,1,1,1))^3 = (1+1+1)^{3/2} + 1 = 3^{3/2} + 1.
    got = log_unnormalized_density(ENGEL_SPEC, np.array([1.0, 1.0, 1.0, 1.0]))
    assert got == pytest.approx(-(3.0**1.5 + 1.0), rel=1e-14)
    assert got == pytest.approx(-6.196152422706632, rel=1e-12)


def test_log_density_even_under_sign_flips():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, size=(40, 4))
    base = log_unnormalized_density(ENGEL_SPEC, pts)
    for axis in range(4):
        flipped = pts.copy()
        flipped[:, axis] *= -1.0
        np.testing.assert_allclose(
            log_unnormalized_density(ENGEL_SPEC, flipped), base, rtol=1e-14
        )


def test_log_density_subtracts_potential():
    pert = Perturbation(
        potential=ScalarField(value=lambda X: X[:, 0] ** 2, smooth=None),
        delta=1.0,
        gamma_delta=10.0,
        c_tilde=1.0,
    )
    spec = MeasureSpec(engel_kind(), a=1.0, p=3.0, perturbation=pert)
    x = np.array([2.0, 0.0, 0.0, 0.0])
    plain = log_unnormalized_density(ENGEL_SPEC, x)
    assert log_unnormalized_density(spec, x) == pytest.approx(plain - 4.0, rel=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(engel_kind(), a=0.0, p=3.0)
    with pytest.raises(ValueError):
        MeasureSpec(engel_kind(), a=1.0, p=1.0)


def test_conjugate_exponent():
    spec = MeasureSpec(engel_kind(), a=1.0, p=3.0)
    assert 1.0 / spec.p + 1.0 / spec.q == pytest.approx(1.0, abs=1e-15)
    assert spec.q == pytest.approx(1.5)


def test_threshold_warning_engel():
    with pytest.warns(UserWarning, match="threshold"):
        MeasureSpec(engel_kind(), a=1.0, p=2.5)


def test_threshold_warning_filiform():
    with pytest.warns(UserWarning, match="threshold"):
        MeasureSpec(filiform_kind(5), a=1.0, p=4.0)


def test_no_warning_at_threshold(recwarn):
    MeasureSpec(engel_kind(), a=1.0, p=3.0)
    MeasureSpec(filiform_kind(5), a=1.0, p=5.0)
    assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]


def test_sample_deterministic():
    a = sample(ENGEL_SPEC, 4000, seed=11)
    b = sample(ENGEL_SPEC, 4000, seed=11)
    assert np.array_equal(a.coords, b.coords)
    assert a.diagnostics == b.diagnostics


def test_sample_seed_sensitivity():
    a = sample(ENGEL_SPEC, 2000, seed=1)
    b = sample(ENGEL_SPEC, 2000, seed=2)
    assert not np.array_equal(a.coords, b.coords)


def test_sample_count_and_diagnostics():
    batch = sample(ENGEL_SPEC, 1003, seed=5)
    assert batch.coords.shape == (1003, 4)
    assert len(batch) == 1003
    d = batch.diagnostics
    assert d.method == "exact"
    assert 0.0 < d.acceptance_rate < 1.0
    assert d.effective_samples == 1003.0
    assert d.tail_audit_count == 0


def test_sample_symmetry_and_moment():
    batch = sample(ENGEL_SPEC, 200_000, seed=0)
    mean_x1, se_x1 = expectation(batch, lambda X: X[:, 0])
    assert abs(mean_x1) <= 3.0 * se_x1
    # Radial identity: E[a N^p] = Q / p with Q = 7 for the Engel group,
    # obtained by differentiating the Z scaling law in a.
    mean_np, se_np = expectation(batch, lambda X: norm_value(ENGEL_SPEC.kind, X) ** 3)
    assert mean_np == pytest.approx(7.0 / 3.0, abs=4.0 * se_np)


def test_sample_two_seed_agreement():
    f = lambda X: norm_value(ENGEL_SPEC.kind, X) ** 3
    m1, s1 = expectation(sample(ENGEL_SPEC, 120_000, seed=21), f)
    m2, s2 = expectation(sample(ENGEL_SPEC, 120_000, seed=22), f)
    assert abs(m1 - m2) <= 3.0 * float(np.hypot(s1, s2))


def test_sampler_stationarity_identity():
    # Integration by parts for X2 = d/dx2 of the right frame: the mean of
    # X2 f - f * X2(a N^p) vanishes for polynomial f.
    batch = sample(ENGEL_SPEC, 200_000, seed=33)
    table = norm_derivative_tables(ENGEL_SPEC.kind)

    def residual_linear(X):
        x2n = table.first(X)[:, 1]
        nval = table.value(X)
        return 1.0 - X[:, 1] * 3.0 * nval**2 * x2n

    def residual_cubic(X):
        x2n = table.first(X)[:, 1]
        nval = table.value(X)
        return 3.0 * X[:, 1] ** 2 - X[:, 1] ** 3 * 3.0 * nval**2 * x2n

    for g in (residual_linear, residual_cubic):
        mean, se = expectation(batch, g)
        assert abs(mean) <= 4.0 * se


def test_sampler_filiform_runs():
    spec = MeasureSpec(filiform_kind(4), a=1.0, p=4.0)
    batch = sample(spec, 50_000, seed=9)
    assert 0.05 < batch.diagnostics.acceptance_rate < 0.95
    mean, se = expectation(batch, lambda X: norm_value(spec.kind, X) ** 4)
    # Q = 1 + 4*5/2 = 11 and p = 4.
    assert mean == pytest.approx(11.0 / 4.0, abs=5.0 * se)


def _kind(variant, step):
    return engel_kind() if variant == "engel" else filiform_kind(step)


# (variant, step) over Engel and filiform steps 3-12, each at p = n with
# a = 1 and a = 2, and at p = n + 1.5 with a = 0.5.
KINDS = [("engel", 3)] + [("filiform", n) for n in range(3, 13)]
MOMENT_CASES = [
    (variant, step, a, p)
    for variant, step in KINDS
    for a, p in ((1.0, float(step)), (2.0, float(step)), (0.5, step + 1.5))
]


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("variant,step,a,p", MOMENT_CASES)
def test_radial_and_top_moments_are_exact(variant, step, a, p, seed):
    # a N^p is Gamma(Q/p, 1) distributed, so E[a N^p] = Q/p.  At p = n the
    # density factorises as exp(-a |x'|^n) exp(-a |x_top|) (n = 3 for
    # Engel), so x_top is Laplace(1/a) and E|x_top| = 1/a.
    kind = _kind(variant, step)
    batch = sample(MeasureSpec(kind, a=a, p=p), 100_000, seed)
    mean, se = expectation(batch, lambda X: a * norm_value(kind, X) ** p)
    assert abs(mean - kind.group.homogeneous_dimension / p) <= 4.0 * se
    if p == step:
        mean, se = expectation(batch, lambda X: a * np.abs(X[:, -1]))
        assert abs(mean - 1.0) <= 4.0 * se


@pytest.mark.parametrize(
    "variant,step,a,b", [("engel", 3, 1.0, 1.0), ("filiform", 5, 1.0, 2.0), ("filiform", 8, 0.5, 1.0)]
)
def test_perturbed_chain_radial_moment(variant, step, a, b):
    # W = b N keeps the law radial, so by polar coordinates E[N^p] is the
    # ratio of the integrals of r^(Q-1+p) and r^(Q-1) against exp(-a r^p - b r).
    kind = _kind(variant, step)
    p = float(step)
    potential = ScalarField(value=lambda X: b * norm_value(kind, X), smooth=None)
    spec = MeasureSpec(kind, a=a, p=p, perturbation=Perturbation(potential, 1.0, 1.0, b))
    batch = sample(spec, 100_000, seed=5)
    d = batch.diagnostics
    assert d.method == "independence-metropolis"
    assert 0.0 < d.acceptance_rate < 1.0
    assert 1_000.0 < d.effective_samples < 100_000.0
    q_hom = kind.group.homogeneous_dimension
    radial = lambda k: quad(lambda r: r ** (q_hom - 1 + k) * np.exp(-a * r**p - b * r), 0, np.inf)[0]
    mean, se = expectation(batch, lambda X: norm_value(kind, X) ** p)
    assert abs(mean - radial(p) / radial(0.0)) <= 4.0 * se
    assert sample(spec, 100_000, seed=5).coords.tobytes() == batch.coords.tobytes()


def test_effective_samples_is_smallest_over_columns():
    # An AR(1) column with coefficient 0.9 has ESS about m (1 - 0.9)/(1 + 0.9).
    rng = np.random.default_rng(0)
    iid = rng.standard_normal(20_000)
    ar = lfilter([1.0], [1.0, -0.9], rng.standard_normal(20_000))
    assert _effective_samples(iid[:, None]) > 15_000
    assert _effective_samples(np.column_stack([iid, ar])) == pytest.approx(20_000 / 19, rel=0.25)


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample(ENGEL_SPEC, 0, seed=1)


def _z_at_step(variant, step, a=1.0):
    return estimate_Z(MeasureSpec(_kind(variant, step), a=a, p=float(step)))


def test_estimate_z_quadrature_engel():
    # Closed form (8 pi/3) Gamma(4/3); the retired tensor Gauss-Legendre
    # ladder read 7.4810076598 with reported error 3.4e-6.
    z = estimate_Z(ENGEL_SPEC)
    assert z.method == "polar-exact"
    assert z.standard_error == 0.0
    assert z.value == pytest.approx(8.0 * np.pi / 3.0 * gamma(4.0 / 3.0), rel=1e-15)
    assert abs(z.value - 7.4810076598) <= 3.4e-6


def test_estimate_z_filiform_quadrature():
    # The retired ladder's values with its own reported errors.
    for step, ladder, error in ((3, 4.2631320450, 2.1e-6), (4, 7.2736416703, 5.8e-6)):
        z = _z_at_step("filiform", step)
        assert z.method == "polar-quadrature"
        assert abs(z.value - ladder) <= error


def test_estimate_z_matches_nested_quad_ball_volumes():
    # |B_1| = Z(1, n)/Gamma(Q/n + 1), computed independently with nested
    # scipy quad/dblquad at steps 3-5, and Z(1, 6) likewise.
    for step, volume in ((3, 1.5345167811888), (4, 1.6445084904645), (5, 1.7439751251704)):
        q_hom = 1 + step * (step + 1) // 2
        assert _z_at_step("filiform", step).value / gamma(q_hom / step + 1.0) == pytest.approx(
            volume, rel=1e-12
        )
    assert _z_at_step("filiform", 6).value == pytest.approx(25.8841420675, rel=1e-10)


def test_estimate_z_agrees_with_importance_value_at_step_6():
    # The retired importance sampler read 25.890 +- 0.019 at step 6.
    assert abs(_z_at_step("filiform", 6).value - 25.890) <= 3.0 * 0.019


def test_estimate_z_two_resolutions_agree():
    # The reported error is the gap between two exp-sinh node spacings; it
    # stays within the smp-z tolerance at every step.
    for step in range(3, 13):
        z = _z_at_step("filiform", step)
        assert 0.0 <= z.standard_error <= 1e-9 * z.value


def test_estimate_z_scaling_law_quadrature():
    # Z(a, p) a^(Q/p) = Gamma(Q/p + 1) |B_1| does not depend on a.
    for kind, p in (
        (engel_kind(), 3.0),
        (filiform_kind(4), 4.0),
        (filiform_kind(4), 5.5),
        (filiform_kind(9), 9.0),
    ):
        exponent = kind.group.homogeneous_dimension / p
        base = estimate_Z(MeasureSpec(kind, a=1.0, p=p)).value
        for a in (0.25, 2.0, 7.5):
            scaled = estimate_Z(MeasureSpec(kind, a=a, p=p)).value * a**exponent
            assert scaled == pytest.approx(base, rel=1e-12)


def test_estimate_z_importance_scaling_law():
    # Filiform step 6 was the importance-sampled case; the law Z(2) =
    # 2^(-Q/6) Z(1) must hold within the errors the estimates report.
    spec1 = MeasureSpec(filiform_kind(6), a=1.0, p=6.0)
    spec2 = MeasureSpec(filiform_kind(6), a=2.0, p=6.0)
    z1 = estimate_Z(spec1)
    z2 = estimate_Z(spec2)
    lam = (1.0 / 2.0) ** (1.0 / 6.0)
    q_hom = 1 + 6 * 7 // 2
    target = lam**q_hom * z1.value
    band = 3.0 * float(np.hypot(z2.standard_error, lam**q_hom * z1.standard_error))
    assert abs(z2.value - target) <= band


@pytest.mark.parametrize("variant,step", KINDS)
def test_estimate_z_matches_cone_envelope_acceptance(variant, step):
    # cone_samples accepts draws from the envelope exp(-sum_k c_k |y_k|^(n/w_k))
    # with probability Z(1, n)/Z_E, where Z_E = prod_k 2 Gamma(1 + w_k/n)
    # c_k^(-w_k/n) is the envelope's mass, so acceptance * Z_E estimates Z.
    kind = _kind(variant, step)
    weights = np.array(kind.group.weights, dtype=np.float64)
    coef = np.ones(weights.size)
    if variant == "filiform":
        coef[:2] = (step - 1, step)
    z_env = float(np.prod(2.0 * gamma(1.0 + weights / step) * coef ** (-weights / step)))
    count = 200_000
    _, acc = cone_samples(kind, count, np.random.default_rng(step))
    # count/acc slightly undercounts the proposals, so the SE errs large.
    se = z_env * np.sqrt(acc * (1.0 - acc) * acc / count)
    assert abs(acc * z_env - _z_at_step(variant, step).value) <= 4.0 * se


def test_estimate_z_rejects_perturbed_spec():
    pert = Perturbation(
        potential=ScalarField(value=lambda X: 0.0 * X[:, 0], smooth=None),
        delta=1.0,
        gamma_delta=1.0,
        c_tilde=1.0,
    )
    spec = MeasureSpec(engel_kind(), a=1.0, p=3.0, perturbation=pert)
    with pytest.raises(ValueError):
        estimate_Z(spec)


def test_zestimate_validation():
    with pytest.raises(ValueError):
        ZEstimate(value=-1.0, standard_error=0.0, method="quadrature")
    with pytest.raises(ValueError):
        ZEstimate(value=1.0, standard_error=-1.0, method="quadrature")


def test_expectation_constant():
    batch = sample(ENGEL_SPEC, 5000, seed=7)
    mean, se = expectation(batch, lambda X: np.ones(X.shape[0]))
    assert mean == 1.0
    assert se == 0.0


def test_expectation_indicator_monotone():
    batch = sample(ENGEL_SPEC, 100_000, seed=8)
    nvals = norm_value(ENGEL_SPEC.kind, batch.coords)
    last = -1.0
    for level in (0.5, 1.0, 2.0, 4.0, 8.0):
        mean, _ = expectation(batch, lambda X, L=level: (norm_value(ENGEL_SPEC.kind, X) <= L) * 1.0)
        assert mean >= last
        last = mean
    assert last == 1.0
    assert nvals.max() < 8.0


def test_expectation_spec_draws_internally():
    direct = expectation(ENGEL_SPEC, lambda X: X[:, 3], count=4000, seed=19)
    batch = sample(ENGEL_SPEC, 4000, seed=19)
    via_batch = expectation(batch, lambda X: X[:, 3])
    assert direct == via_batch


def test_expectation_nan_reports_points():
    batch = sample(ENGEL_SPEC, 2000, seed=12)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        expectation(batch, lambda X: np.sqrt(X[:, 0]))


def test_expectation_tail_warning():
    # A hand-built batch with mass far beyond the tail-audit radius.
    coords = np.zeros((100, 4))
    coords[:, 0] = 1.0
    coords[:5, 0] = 1e4
    diag = SampleDiagnostics("exact", 0.3, 100.0, 5)
    batch = SampleBatch(spec=ENGEL_SPEC, coords=coords, seed=0, diagnostics=diag)
    with pytest.warns(UserWarning, match="tail"):
        expectation(batch, lambda X: X[:, 0])


def test_sample_batch_rejects_nonfinite():
    coords = np.zeros((3, 4))
    coords[1, 2] = np.nan
    diag = SampleDiagnostics("exact", 0.3, 3.0, 0)
    with pytest.raises(ValueError):
        SampleBatch(spec=ENGEL_SPEC, coords=coords, seed=0, diagnostics=diag)


def test_sample_batch_group_points():
    batch = sample(ENGEL_SPEC, 50, seed=3)
    pts = batch.as_group_points()
    assert len(pts) == 50
    assert isinstance(pts[0], GroupPoint)
    np.testing.assert_array_equal(pts[7].coords, batch.coords[7])


def _zero_potential():
    return Perturbation(
        potential=ScalarField(value=lambda X: np.zeros(X.shape[0]), smooth=None),
        delta=0.5,
        gamma_delta=1.0,
        c_tilde=1.0,
    )


def test_certificate_zero_potential_holds():
    spec = MeasureSpec(engel_kind(), a=1.0, p=3.0, perturbation=_zero_potential())
    rng = np.random.default_rng(6)
    pts = rng.uniform(-4, 4, size=(500, 4))
    report = check_perturbation_certificate(spec, pts)
    assert report.holds
    assert report.max_gradient_violation <= -1.0 + 1e-12
    assert report.sample_count == 500


def test_certificate_scaled_norm_potential():
    kind = engel_kind()
    c_scale = 0.5
    pot = ScalarField(
        value=lambda X: c_scale * norm_value(kind, X),
        smooth=lambda X: smooth_mask(kind, X),
    )
    pert = Perturbation(potential=pot, delta=1.0, gamma_delta=10.0, c_tilde=0.5)
    spec = MeasureSpec(kind, a=1.0, p=3.0, perturbation=pert)
    rng = np.random.default_rng(14)
    pts = rng.uniform(-4, 4, size=(800, 4))
    report = check_perturbation_certificate(spec, pts)
    # Growth condition W <= C N is exact equality here, so the max
    # violation sits at zero up to roundoff; the gradient condition holds
    # because |grad N| stays bounded on the smooth region.
    assert report.max_growth_violation <= 1e-10
    assert report.max_gradient_violation <= 0.0
    assert report.sample_count <= 800


def test_certificate_quadratic_potential_fails_growth():
    pot = ScalarField(value=lambda X: X[:, 0] ** 2, smooth=None)
    pert = Perturbation(potential=pot, delta=1.0, gamma_delta=1e6, c_tilde=2.0)
    spec = MeasureSpec(engel_kind(), a=1.0, p=3.0, perturbation=pert)
    pts = np.zeros((3, 4))
    pts[:, 0] = np.array([1.0, 10.0, 100.0])
    report = check_perturbation_certificate(spec, pts)
    assert not report.holds
    # At x1 = 100: W = 10^4 while C N = 200.
    assert report.max_growth_violation >= 9000.0


def test_certificate_requires_perturbation():
    with pytest.raises(ValueError):
        check_perturbation_certificate(ENGEL_SPEC, np.zeros((4, 4)))


def test_save_load_roundtrip(tmp_path):
    batch = sample(ENGEL_SPEC, 750, seed=42)
    path = tmp_path / "batch.ccmb"
    save_batch(path, batch)
    header, coords = load_batch(path)
    assert header["step"] == 3
    assert header["a"] == 1.0
    assert header["p"] == 3.0
    assert header["kind_code"] == 0.0
    assert header["perturbed"] is False
    assert header["seed"] == 42
    assert header["count"] == 750
    np.testing.assert_array_equal(coords, batch.coords)


def test_save_rerun_bit_identical(tmp_path):
    batch = sample(ENGEL_SPEC, 300, seed=13)
    p1 = tmp_path / "one.ccmb"
    p2 = tmp_path / "two.ccmb"
    save_batch(p1, batch)
    save_batch(p2, sample(ENGEL_SPEC, 300, seed=13))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ccmb"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(ValueError, match="CCMB"):
        load_batch(path)


def test_csv_mirror(tmp_path):
    batch = sample(ENGEL_SPEC, 25, seed=2)
    path = tmp_path / "batch.csv"
    export_csv(path, batch)
    lines = path.read_text().splitlines()
    header_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("seed: 2" in ln for ln in header_lines)
    assert lines[len(header_lines)] == "x1,x2,x3,x4"
    rows = lines[len(header_lines) + 1 :]
    assert len(rows) == 25
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(parsed, batch.coords)


def test_filiform_kind_code_roundtrip(tmp_path):
    spec = MeasureSpec(filiform_kind(5), a=1.5, p=5.0)
    batch = sample(spec, 100, seed=77)
    path = tmp_path / "fil.ccmb"
    save_batch(path, batch)
    header, coords = load_batch(path)
    assert header["step"] == 5
    assert header["kind_code"] == 1.0
    assert header["a"] == 1.5
    assert coords.shape == (100, 6)


# SHA-256 of coords.tobytes() followed by repr((method, acceptance rate,
# effective samples, tail count)) for sample(spec, count, seed), p = 3 for
# Engel and p = n for filiform step n, recorded from the exact sampler.  They
# pin the draws byte for byte: any change to the substreams, their order or
# the float operations that form a point shows here.
SAMPLER_DIGESTS = {
    ("engel", 3, 1, 0): "28a926503dab8a30a55bc708c612895187167d86d279c3c03cb530e935f7223a",
    ("engel", 3, 1, 7): "8ff3fc41903c19e9b6ec876b3f358c303342b40e47b161c09b34451da5716eb6",
    ("engel", 3, 37, 0): "7a9922973cfa1eb2a164540051d96c0332c9ce9822842bd7fd2aa35bcaa0a324",
    ("engel", 3, 37, 7): "ced6c1706aee64811de7402c014d90477d782e49d091103b6f21c02489e2a073",
    ("engel", 3, 300, 0): "0d38c6b40c36f2acd145212736f43c8c09b73841598906edbf3aa0937803f5a1",
    ("engel", 3, 300, 7): "9aa8d40b73643cd493291c4122f664dd00280ad9e6f2bd6f9ef7f27919f44606",
    ("filiform", 3, 1, 0): "c132d74997e2eb60497a7243d32db12998d5c7c93ded37904e2728e5dd9cef02",
    ("filiform", 3, 1, 7): "68174bff4e70a259a6702b9e835d7c3b28497c3e9a2f8d46cce94ea75e42ced8",
    ("filiform", 3, 37, 0): "d64fc63d2245beb5180e07bcbae4548a6187e18c3c065e25cf365f625ae9c7ec",
    ("filiform", 3, 37, 7): "befb409bb613d6c6fcc7ed99e84af6d5aff531f3b5d4acaed17be6b67254d72a",
    ("filiform", 3, 300, 0): "7c77a1d5126e08f4ebc5bd04c90f66eecdd094793c521c23d1782312d8a5c9ed",
    ("filiform", 3, 300, 7): "3c34c66876467be2c5a7b266bf38cc780f1648545166a28b4a1198d194a05bff",
    ("filiform", 4, 1, 0): "d412c197f5c0f9e1ea90bc6d51371ab3db9a350673c09d4444eeff4a14841f44",
    ("filiform", 4, 1, 7): "554997f3c8c9ceda6707ec97260a84375646e6a2f1c6a15dd14b5dc95b06f1c1",
    ("filiform", 4, 37, 0): "56aa781b8fe5e4396a3e169b8e0e950ddc40f30f1a43097eca32e0783c1fb6e8",
    ("filiform", 4, 37, 7): "dba62fddd1c27a802d09d7f456191ef0dd87b35b50f0605a524b2798fddd4ec5",
    ("filiform", 4, 300, 0): "f7c0a635f800e119911a9dd6de7e2fb2c08a88531668ece4de4e09d1bf7c48b6",
    ("filiform", 4, 300, 7): "9151f7dfeea2f4792eedb42500c6f3f7be2ac9267633d3a9e53c948bb04588da",
    ("filiform", 5, 1, 0): "dbed617792ac8977b8e4669bc6d24d581a1ffb4eefefbbc341e6968209b7eaed",
    ("filiform", 5, 1, 7): "8ac8ea9c4abf659355f46c514a1c997adffed36f64b49154cabe706ddd4239cc",
    ("filiform", 5, 37, 0): "612447797f5cec1c0912dc17a4322ccc157d43efacfbb8100ff87c4a2100e8ff",
    ("filiform", 5, 37, 7): "f390cf577331fcf2700db64dda015c4dfbbc5ce78254c8cecf4aadf0fd566d2c",
    ("filiform", 5, 300, 0): "90dc2eb6561a3e7c0d76a61cfea7d09f515de06115f23dcd8ee23470d49c05bb",
    ("filiform", 5, 300, 7): "e56895da921f24dd6824acfe5f0273a2f6b1540880029ef665bede37e2e94ecd",
    ("filiform", 6, 1, 0): "ec817b5f8b450ee2e7b6f6e832f9499fc237a37df615ff962fd4e5976b2f18b4",
    ("filiform", 6, 1, 7): "42c1fe4788ae1417f1a0d05ee52fe5d528607a8d8174148b28c126564f408b8c",
    ("filiform", 6, 37, 0): "45d4e7e33f44123c915f58b45c9c24023bd92d6144f7b2dfea0945b866d44290",
    ("filiform", 6, 37, 7): "5957d5ae8a05b52c87f24f3818266751ac65a03e120d7c65ecfc493c7dc763a9",
    ("filiform", 6, 300, 0): "0a33d639c65ef1335bfea20715e2129590d1c2e051d12116b3b91459ae8208c9",
    ("filiform", 6, 300, 7): "c0763643027fd1bd5194be09d4e481fcf4abbf453db482c4e1a614281037f5b3",
    ("filiform", 7, 1, 0): "2ea06798885560d01bdb44f8168ebe8a5af9dc69e8b523b076c61109f7ec2578",
    ("filiform", 7, 1, 7): "0459007dcb911a38e3600ffc50c048d5ae52eb9ddf08feee3abbce40cf30c0b9",
    ("filiform", 7, 37, 0): "c551e337d34471ceca8ff66ef06458065f55206968c7f4a6d4e6d6c854c5924e",
    ("filiform", 7, 37, 7): "a3295295271371b2a89fef8bd08952f42beaca630a28eaeabd637c6fdb241d92",
    ("filiform", 7, 300, 0): "cb9cfd75b8ba54b29688028117b31900a05bda076d7b647f93b0c0448ab9bae3",
    ("filiform", 7, 300, 7): "7c8efafddaa9ebdbbfefa1ae14dd0d39d256a70b4d249dc0f73fde407a5fa4fa",
    ("filiform", 8, 1, 0): "de0063b1d9bca29ccfacfd7849f57362640ee8b6978e38cc5ecb31fdeab38491",
    ("filiform", 8, 1, 7): "9bdc330738a504ba40436b284681805812f0c8f70756c4102f9f27e7306dfa66",
    ("filiform", 8, 37, 0): "d8ff342b4b4f1542b114a242321f60230e3d1c34d0b54257ef756125e8b3d279",
    ("filiform", 8, 37, 7): "82da0a61793dd8635978b8813ac6c75cd3768c5a0af3f61f1859e7677af16ba9",
    ("filiform", 8, 300, 0): "2926295d6e0ab84e5f0f65d87e514a21a78efa5ebd59eb38ea9a0d817cb32a40",
    ("filiform", 8, 300, 7): "b9ceeedf1d36245225a0b644a952127ade1caf35c8ed84edc7a0205524d8b6ea",
    ("filiform", 9, 1, 0): "b6c55cece32493f72323954f3db458d2385b9a6c55e94f0f7930948196455713",
    ("filiform", 9, 1, 7): "4cfe48936c732e91388ead8b4be8c37c2a0d91311f7d0383bca8c10f64a496a4",
    ("filiform", 9, 37, 0): "39004f9c6aa383ccd3c57d4c0e48208f80dbe35da79a175898639d21bdbe1621",
    ("filiform", 9, 37, 7): "be636669f59df3350383145a85662d0e4760ee5caafd56dc29e19790e125bd93",
    ("filiform", 9, 300, 0): "8c0d2931ed7d881f1f3cb1c85519125b169b8ecc6deae26b12b0ea1f54e3279f",
    ("filiform", 9, 300, 7): "8d5aa321b3b49fbaab79e6789e3498d3920332970091d6053b636864f0437220",
    ("filiform", 10, 1, 0): "6bff9b6e526055cdfc457b5a363b798d770b335135b05dca53dc6fe23f1db22a",
    ("filiform", 10, 1, 7): "bfdf9e37012f1a59ac23ba39e7cb1fe0d57cce19d9f0128006c19a0d739d5eba",
    ("filiform", 10, 37, 0): "ebf088aef54dff1170a508af541e54c25dbad47ddbeef8c18f457dfc7e9bcc97",
    ("filiform", 10, 37, 7): "0a0ffce7c1ee4615c847484bab7e606ae9867f7f899327b2151fdea83a09b972",
    ("filiform", 10, 300, 0): "200e3b0bd00a13d871403ab4a756f94dd84d77cdff627bae3c3f09dd98255752",
    ("filiform", 10, 300, 7): "c6ca771e7602652d2480354a640bf3d2e56bf285c581f357e892902ed7ca543e",
    ("filiform", 11, 1, 0): "ca538a25e02e9306c194dff3e4d666902e48130ddeee22f93efb87819ae79604",
    ("filiform", 11, 1, 7): "371515e23a4699944b2251912ef71ad7bef97fef3164f1429042d181c52156b0",
    ("filiform", 11, 37, 0): "5ea078a5382b139ae328077ed4c5cb3ce6131338f8a8f72d870c86880a02461f",
    ("filiform", 11, 37, 7): "2c4fa08afb5f84106579184e0ff4fb39997777d672f6611f7f766a01f5d8a63e",
    ("filiform", 11, 300, 0): "adbb2199beb1e80f67e42ad4d84542a81d11127df420d36c79d2c15690ec1327",
    ("filiform", 11, 300, 7): "befe347ae9e886abc8e2792f33fa631d2105fa198af6d0af6a7526b3214c3aa7",
    ("filiform", 12, 1, 0): "18059c6c18749ea3088f3e652e53c7539d144e568e89c0581305d50353c48e01",
    ("filiform", 12, 1, 7): "bf6dfa3984d8f00ce1bbf1573d1a23e8edea5ea68ffc83b2f4887c109fe5c3d0",
    ("filiform", 12, 37, 0): "729b1ce0dce78a78de7e25d530d8a953639b601e23b3c269b0f7c9b7c717fd91",
    ("filiform", 12, 37, 7): "acc163e660c0fc77d1950bbcdd6930eda8601e4b62cf3497c93be9ad07e4025a",
    ("filiform", 12, 300, 0): "d3223048dbe5073250c64382a4623d3203d941e25295931683eb14ef5e102c13",
    ("filiform", 12, 300, 7): "66f72d22aeb42841a1958c833d7216358814f0f0542406f6ecbba25270ae2ff4",
}


@pytest.mark.parametrize("variant,step,count,seed", sorted(SAMPLER_DIGESTS))
def test_sampler_bytes_pinned(variant, step, count, seed):
    kind = _kind(variant, step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = sample(MeasureSpec(kind, a=1.0, p=float(step)), count, seed)
    d = batch.diagnostics
    digest = hashlib.sha256(batch.coords.tobytes())
    digest.update(repr((d.method, d.acceptance_rate, d.effective_samples, d.tail_audit_count)).encode())
    assert digest.hexdigest() == SAMPLER_DIGESTS[variant, step, count, seed]
