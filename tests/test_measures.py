"""Tests for the Gibbs measure module: densities, sampling, Z, certificates."""

import hashlib
import warnings

import numpy as np
import pytest

from carnotlab.calculus import ScalarField, norm_derivative_tables
from carnotlab.group import GroupPoint
from carnotlab.measures import (
    ChainDiagnostics,
    MeasureSpec,
    Perturbation,
    PrecisionError,
    SampleBatch,
    ZEstimate,
    check_perturbation_certificate,
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
        potential=ScalarField(value=lambda X: X[:, 0] ** 2, smooth=None, table=None),
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
    a = sample(ENGEL_SPEC, 4000, seed=11, burn_in=500)
    b = sample(ENGEL_SPEC, 4000, seed=11, burn_in=500)
    assert np.array_equal(a.coords, b.coords)
    assert a.diagnostics == b.diagnostics


def test_sample_seed_sensitivity():
    a = sample(ENGEL_SPEC, 2000, seed=1, burn_in=300)
    b = sample(ENGEL_SPEC, 2000, seed=2, burn_in=300)
    assert not np.array_equal(a.coords, b.coords)


def test_sample_count_and_diagnostics():
    batch = sample(ENGEL_SPEC, 1003, seed=5, burn_in=300)
    assert batch.coords.shape == (1003, 4)
    assert len(batch) == 1003
    d = batch.diagnostics
    assert 0.0 < d.acceptance_rate < 1.0
    assert d.burn_in == 300
    assert d.step_scale > 0
    assert d.effective_samples > 0
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
    batch = sample(spec, 50_000, seed=9, burn_in=2000)
    assert 0.05 < batch.diagnostics.acceptance_rate < 0.95
    mean, se = expectation(batch, lambda X: norm_value(spec.kind, X) ** 4)
    # Q = 1 + 4*5/2 = 11 and p = 4.
    assert mean == pytest.approx(11.0 / 4.0, abs=5.0 * se)


def test_sample_acceptance_warning():
    # Frozen oversized steps (no adaptation) drive acceptance to ~0.
    with pytest.warns(UserWarning, match="acceptance"):
        sample(ENGEL_SPEC, 2000, seed=4, step_scale=200.0, burn_in=0)


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample(ENGEL_SPEC, 0, seed=1)
    with pytest.raises(ValueError):
        sample(ENGEL_SPEC, 10, seed=1, step_scale=0.0)


def test_estimate_z_quadrature_engel():
    z = estimate_Z(ENGEL_SPEC)
    assert z.method == "quadrature"
    assert z.value > 0
    assert z.standard_error >= 0
    assert z.value == pytest.approx(7.481008, rel=1e-5)


def test_estimate_z_two_resolutions_agree():
    coarse = estimate_Z(ENGEL_SPEC, rtol=1e-6)
    fine = estimate_Z(ENGEL_SPEC, rtol=1e-7)
    assert abs(coarse.value - fine.value) <= 3.0 * (
        coarse.standard_error + fine.standard_error
    )


def test_estimate_z_scaling_law_quadrature():
    z1 = estimate_Z(ENGEL_SPEC)
    z2 = estimate_Z(MeasureSpec(engel_kind(), a=2.0, p=3.0))
    lam = (1.0 / 2.0) ** (1.0 / 3.0)
    assert z2.value == pytest.approx(lam**7 * z1.value, rel=1e-6)


def test_estimate_z_filiform_quadrature():
    z = estimate_Z(MeasureSpec(filiform_kind(4), a=1.0, p=4.0))
    assert z.method == "quadrature"
    assert z.value == pytest.approx(7.273642, rel=1e-5)


def test_estimate_z_budget_exhaustion():
    with pytest.raises(PrecisionError, match="relative error"):
        estimate_Z(ENGEL_SPEC, budget=5000)


def test_estimate_z_importance_path():
    spec = MeasureSpec(filiform_kind(6), a=1.0, p=6.0)
    z1 = estimate_Z(spec, budget=100_000, seed=1)
    z2 = estimate_Z(spec, budget=100_000, seed=2)
    assert z1.method == "importance"
    assert z1.value > 0 and z1.standard_error > 0
    assert abs(z1.value - z2.value) <= 3.0 * float(
        np.hypot(z1.standard_error, z2.standard_error)
    )


def test_estimate_z_importance_scaling_law():
    spec1 = MeasureSpec(filiform_kind(6), a=1.0, p=6.0)
    spec2 = MeasureSpec(filiform_kind(6), a=2.0, p=6.0)
    z1 = estimate_Z(spec1, budget=150_000, seed=3)
    z2 = estimate_Z(spec2, budget=150_000, seed=4)
    lam = (1.0 / 2.0) ** (1.0 / 6.0)
    q_hom = 1 + 6 * 7 // 2
    target = lam**q_hom * z1.value
    band = 3.0 * float(np.hypot(z2.standard_error, lam**q_hom * z1.standard_error))
    assert abs(z2.value - target) <= band


def test_estimate_z_rejects_perturbed_spec():
    pert = Perturbation(
        potential=ScalarField(value=lambda X: 0.0 * X[:, 0], smooth=None, table=None),
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
    batch = sample(ENGEL_SPEC, 5000, seed=7, burn_in=500)
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
    batch = sample(ENGEL_SPEC, 2000, seed=12, burn_in=300)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        expectation(batch, lambda X: np.sqrt(X[:, 0]))


def test_expectation_tail_warning():
    # A hand-built batch with mass far beyond the tail-audit radius.
    coords = np.zeros((100, 4))
    coords[:, 0] = 1.0
    coords[:5, 0] = 1e4
    diag = ChainDiagnostics(0.3, 100.0, 0, 1.0, 1, 5)
    batch = SampleBatch(spec=ENGEL_SPEC, coords=coords, seed=0, diagnostics=diag)
    with pytest.warns(UserWarning, match="tail"):
        expectation(batch, lambda X: X[:, 0])


def test_sample_batch_rejects_nonfinite():
    coords = np.zeros((3, 4))
    coords[1, 2] = np.nan
    diag = ChainDiagnostics(0.3, 3.0, 0, 1.0, 1, 0)
    with pytest.raises(ValueError):
        SampleBatch(spec=ENGEL_SPEC, coords=coords, seed=0, diagnostics=diag)


def test_sample_batch_group_points():
    batch = sample(ENGEL_SPEC, 50, seed=3, burn_in=100)
    pts = batch.as_group_points()
    assert len(pts) == 50
    assert isinstance(pts[0], GroupPoint)
    np.testing.assert_array_equal(pts[7].coords, batch.coords[7])


def _zero_potential():
    return Perturbation(
        potential=ScalarField(
            value=lambda X: np.zeros(X.shape[0]), smooth=None, table=None
        ),
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
        table=None,
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
    pot = ScalarField(value=lambda X: X[:, 0] ** 2, smooth=None, table=None)
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
    batch = sample(ENGEL_SPEC, 750, seed=42, burn_in=200)
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
    batch = sample(ENGEL_SPEC, 300, seed=13, burn_in=100)
    p1 = tmp_path / "one.ccmb"
    p2 = tmp_path / "two.ccmb"
    save_batch(p1, batch)
    save_batch(p2, sample(ENGEL_SPEC, 300, seed=13, burn_in=100))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ccmb"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(ValueError, match="CCMB"):
        load_batch(path)


def test_csv_mirror(tmp_path):
    batch = sample(ENGEL_SPEC, 25, seed=2, burn_in=100)
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
    batch = sample(spec, 100, seed=77, burn_in=100)
    path = tmp_path / "fil.ccmb"
    save_batch(path, batch)
    header, coords = load_batch(path)
    assert header["step"] == 5
    assert header["kind_code"] == 1.0
    assert header["a"] == 1.5
    assert coords.shape == (100, 6)


# SHA-256 of coords.tobytes() followed by repr((acceptance rate, effective
# samples, step scale, tail count)) for sample(spec, count, seed,
# burn_in=300), p = 3 for Engel and p = n for filiform step n.  They pin
# the chains byte for byte: any change to a sweep's RNG calls or to the order
# of its float operations that moves a draw shows here.
SAMPLER_DIGESTS = {
    ("engel", 3, 1, 0): "42d8b2517ec711399777042e80df4f06701f6a1814a4c12e0bc89bbed20f701c",
    ("engel", 3, 1, 7): "9d7a09bdef69ed71b45c9b1fe2de37dac10f9e1a6617971c150031864362bc6d",
    ("engel", 3, 37, 0): "bd2cec19c06e44fd0a31280c7c8cfd2ea40facb301fba83e4e3c8f84b5245ce2",
    ("engel", 3, 37, 7): "34365c5a5ca5932a9ca50bb194d8122d454e69450f2107528e6ceb1899e8d4ab",
    ("engel", 3, 300, 0): "04f533b9c656321593d571b618765176b6cd0842f8024987b9cc7a4f330a796d",
    ("engel", 3, 300, 7): "c0d59278dd54aa768f566760be0c60bc9838a723c269f28a0496cd10978b64b1",
    ("filiform", 3, 1, 0): "ec9b547a243e9cab55394e772d0eaadbd07e9dbab0111da9fa47ab6d5e698e7f",
    ("filiform", 3, 1, 7): "353fff4f8a9da9eb558cbc65e1e925d213adbf0d25ed3525d33be215f32020cc",
    ("filiform", 3, 37, 0): "1de9dbc51d056923287ba685703246a839e33ea2aad72b8165f47f7114c0733d",
    ("filiform", 3, 37, 7): "b426d382e164b146c3dbd7ab11da5d8ec5d74a708a6b1961cb6ccccf56716be0",
    ("filiform", 3, 300, 0): "8dff0c6b8de133171f49ae6aee8af27323fa0b6cf37bcaa89082e3738edf227a",
    ("filiform", 3, 300, 7): "4e10954bd1d158e4041041fe1798a3908f615c72e4b10e626af1248cd27cfaa0",
    ("filiform", 4, 1, 0): "8e5501c00a16c84fd0c892358f1ea91f399c99bfe46f2b46c49383b851c3c38e",
    ("filiform", 4, 1, 7): "8bde3968bf6219ba95d85ce983f30bc34556d29e1985ba1bc433cbb4b694e38f",
    ("filiform", 4, 37, 0): "1f472cabb38ce1d392ea5e8b9182cd768ace4a8803dc3172604151aedc734f53",
    ("filiform", 4, 37, 7): "b1d52232e055be11ecba82f0d97d44b485e23e461be4182818a23dacf84c218a",
    ("filiform", 4, 300, 0): "ff8705a43cb5b59d5b67a8f8406f152c51dc39fdb85e63d26617cfea5d47622f",
    ("filiform", 4, 300, 7): "e79fec1d05656b5830c2c9a00d1c94137da9a0450e65eee210ac01572cb698eb",
    ("filiform", 5, 1, 0): "ca3f0d93ec22b536935693da692b9a2d4b05e3a9be8ca54cd04fd47179623160",
    ("filiform", 5, 1, 7): "05dda8b182ee640a1dbbc974288f808620f6f32a14c8fb1ea9c476844cc6b177",
    ("filiform", 5, 37, 0): "2f696c2c02b3e5fb79399a756e56c5e5999332f73ee7d7cd2202dd826a741a70",
    ("filiform", 5, 37, 7): "aae1ab0c67f0558535abd1b9072c382f0ea448411baf68bc82e0ac1c73a95336",
    ("filiform", 5, 300, 0): "e5221072466e2261b31bc41d42d23884e818059a3a263ec118d8565a8a0685f8",
    ("filiform", 5, 300, 7): "97d153ddf4a588ee6c52c82381e99c7795ae9c38809485453f535260fae1db76",
    ("filiform", 6, 1, 0): "4b29ca04f533f3484011154d5744bcd660cbe8d76de7b5f749259c81d38099bb",
    ("filiform", 6, 1, 7): "b9fff97f27416e36362d1a60d47e3591813cfd8009d15665ce00eed0d8f5408d",
    ("filiform", 6, 37, 0): "a15778f31fef80564db136f9f10b8fb77b3503882c7b989ee5df08e9dfe9d96b",
    ("filiform", 6, 37, 7): "507494e3ce585e8e649d12ae7a1d5fbfa15c1391b54232a086158127d4485820",
    ("filiform", 6, 300, 0): "3dd0468babbf442097189477e7f7dcaa21637a389a19f7eb397c9bd30f7a5e10",
    ("filiform", 6, 300, 7): "7e5069c01269c79453cdbeab4999f407d8eb25f29e1dd614999a873818d13950",
    ("filiform", 7, 1, 0): "682bd3cc8550229c2d35b650ff21e29fe049361209b5c58e52ef10a93b7f4113",
    ("filiform", 7, 1, 7): "6945016f140c35d8d572a52ece850cf494e86e4a91f852574a8eab54c4a53972",
    ("filiform", 7, 37, 0): "448192780341211d3cd9be13aac5021569ebd05e0cff3f9ad8a3f655d9f1c2da",
    ("filiform", 7, 37, 7): "d322088c6804845695c6e78bdce182a8e2b131d3c3c57d94ac8cd55eed9f7f8e",
    ("filiform", 7, 300, 0): "64c7d6f1400c6ede958cdfab99a85af376824ce62303fa15102eccce8a1cc005",
    ("filiform", 7, 300, 7): "5b6f026e7b1a5b50b09e368b6361a14cb6a6041259faa575b25034078d8c5d70",
    ("filiform", 8, 1, 0): "ea1bb7e3e13736e9e08c550f0ba7065c29ff3c1ab0870f05d8d37a5ddf92108c",
    ("filiform", 8, 1, 7): "3834e49acec6c01a21e639359244ba610c8eadf0f6a447d878226211ef01170d",
    ("filiform", 8, 37, 0): "bf1f28a20443f74de1e2f9e32daa9ce68fa4fc9eecb012073a1ff41db25854fd",
    ("filiform", 8, 37, 7): "cee73e4d6bdc69a4f8a2d87634bc7014c7f55d91a74c063fef2b8cc29e0db0ad",
    ("filiform", 8, 300, 0): "9e19e1689aa1c09ef0fe70cdddaeaecc4c91a692af8238efe4050efff9040b00",
    ("filiform", 8, 300, 7): "d5cdc66c576ba5de1fedebea8b8fe98508ae868243e4d75ea51e88b9d09a0bb3",
    ("filiform", 9, 1, 0): "6c0ae3c85a5021b4aebcbeb58bd6228d2bbc53f15698cf65a13a981beb77deb5",
    ("filiform", 9, 1, 7): "5c3bbf98791885e6433ad5d0579f00581bac49c43832ea2d03038f74920a94c0",
    ("filiform", 9, 37, 0): "4266427fefee5c263775ff17a9bf32dacecfd6ac1cec2619e9ea6b0e9bbd2033",
    ("filiform", 9, 37, 7): "54d6c49fae0614d7ae98b0752d6932965683a3677f31733fcb0d26b07792feff",
    ("filiform", 9, 300, 0): "550d348cca7460219064a54fbab82321ad7a1f9d679a7b7a01603da15d7c3c36",
    ("filiform", 9, 300, 7): "25752e0f9b88f9aeb26abc59708e6b3260d4868bbe7b64a48b2d216a090deae9",
    ("filiform", 10, 1, 0): "401b81b97e0f51cc9bfc9385bdac8082cf3bfaaad999a4d2166b387f0eb7b650",
    ("filiform", 10, 1, 7): "49027303de0613a8ceac7cb85cc596dc287f0d20ac010723f2a55ea0ee62b937",
    ("filiform", 10, 37, 0): "18011addf6bca3f0110ace4b69f2766ac1bfefe17d20cba29e38096b6b2e6dc2",
    ("filiform", 10, 37, 7): "f89848fa3500936f7d3fcb406926bd3eba2fcbca389135828cb9f166c7343b40",
    ("filiform", 10, 300, 0): "8c7aa2f2c98e2366d0bafa62d58122f458dc18cb6a6aeda49049ee2d2158b820",
    ("filiform", 10, 300, 7): "8238d8d0ad74776ea8e4a3b19e8b55eef7fff9a2682739b28c1195fdbc86345c",
    ("filiform", 11, 1, 0): "dfea670173d5483a0bc3f9bc9a1a437c5a3386cb94973c6b745c870e22f5fe15",
    ("filiform", 11, 1, 7): "4f0493c9c28132385c01d455fcd622a848fa54a14ec5bd8dd6d0d74aeb1da1da",
    ("filiform", 11, 37, 0): "736cbe010403b118edc7f02a83a9b8251bb396f04e21e637b78da6f528729c38",
    ("filiform", 11, 37, 7): "e337ee62ae18ea2241121c5b46f67558bf7bb24f88062e6cefaa1f0a568b7840",
    ("filiform", 11, 300, 0): "bcb0cf62773a00b64db1c9e0751a67e26798b723f9769e62285d33d215e4a753",
    ("filiform", 11, 300, 7): "49e5387211cdbf302bac0ea77940c15e0105879d2717b5b5c1519df0d9f76513",
    ("filiform", 12, 1, 0): "fc08319ce79b18662e1a07cf092787b70dbf3133cbd394f7e1cdccf5472a4c8d",
    ("filiform", 12, 1, 7): "e6fdff7a9958aed681fd65fb74b8786b19cd08e90b7d190e8e05d981f9234135",
    ("filiform", 12, 37, 0): "4fe9502b13e917cf755f539dc47af22da172a075408aa09b438924fe394e74b9",
    ("filiform", 12, 37, 7): "26c80d548e7d12418a72fc67772142a11877fdca28d2e982c2c1c8332c4eeb82",
    ("filiform", 12, 300, 0): "c127737a85e9fa552cf1d4ea4cc2aa76126c3c26fcec236e3eab1aa6645d8e42",
    ("filiform", 12, 300, 7): "5a610a632e0dc9106c8dfd2f21709d6a3a1dcc55e79f7d4f8fa007b497326dac",
}


@pytest.mark.parametrize("variant,step,count,seed", sorted(SAMPLER_DIGESTS))
def test_sampler_bytes_pinned(variant, step, count, seed):
    kind = engel_kind() if variant == "engel" else filiform_kind(step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = sample(MeasureSpec(kind, a=1.0, p=float(step)), count, seed, burn_in=300)
    d = batch.diagnostics
    digest = hashlib.sha256(batch.coords.tobytes())
    digest.update(repr((d.acceptance_rate, d.effective_samples, d.step_scale, d.tail_audit_count)).encode())
    assert digest.hexdigest() == SAMPLER_DIGESTS[variant, step, count, seed]
