"""Tests for the Gibbs measure module: sampling, Z and the CCMB format."""

import hashlib
import struct
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from carnotlab.calculus import norm_derivative_tables
from carnotlab.cli import main
from carnotlab.measures import (
    SampleDiagnostics,
    MeasureSpec,
    SampleBatch,
    ZEstimate,
    batch_mean_se,
    cone_samples,
    estimate_Z,
    load_batch,
    sample,
    save_batch,
)
from carnotlab.norms import engel_kind, filiform_kind, norm_value

ENGEL_SPEC = MeasureSpec(engel_kind(), a=1.0, p=3.0)


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
    assert 0.0 < d.acceptance_rate < 1.0
    assert d.effective_samples == 1003.0


def test_sample_symmetry_and_moment():
    batch = sample(ENGEL_SPEC, 200_000, seed=0)
    mean_x1, se_x1 = batch_mean_se(batch.coords[:, 0])
    assert abs(mean_x1) <= 3.0 * se_x1
    # Radial identity: E[a N^p] = Q / p with Q = 7 for the Engel group,
    # obtained by differentiating the Z scaling law in a.
    mean_np, se_np = batch_mean_se(norm_value(ENGEL_SPEC.kind, batch.coords) ** 3)
    assert mean_np == pytest.approx(7.0 / 3.0, abs=4.0 * se_np)


def test_sample_two_seed_agreement():
    f = lambda X: norm_value(ENGEL_SPEC.kind, X) ** 3
    m1, s1 = batch_mean_se(f(sample(ENGEL_SPEC, 120_000, seed=21).coords))
    m2, s2 = batch_mean_se(f(sample(ENGEL_SPEC, 120_000, seed=22).coords))
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
        mean, se = batch_mean_se(g(batch.coords))
        assert abs(mean) <= 4.0 * se


def test_sampler_filiform_runs():
    spec = MeasureSpec(filiform_kind(4), a=1.0, p=4.0)
    batch = sample(spec, 50_000, seed=9)
    assert 0.05 < batch.diagnostics.acceptance_rate < 0.95
    mean, se = batch_mean_se(norm_value(spec.kind, batch.coords) ** 4)
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
    mean, se = batch_mean_se(a * norm_value(kind, batch.coords) ** p)
    assert abs(mean - kind.group.homogeneous_dimension / p) <= 4.0 * se
    if p == step:
        mean, se = batch_mean_se(a * np.abs(batch.coords[:, -1]))
        assert abs(mean - 1.0) <= 4.0 * se


@pytest.mark.parametrize("variant,step", KINDS)
def test_cone_samples_lie_on_unit_sphere(variant, step):
    # Theta = delta_{1/N(Y)} Y, so N(Theta) = 1 by homogeneity of N.
    kind = _kind(variant, step)
    theta, acc = cone_samples(kind, 2_000, np.random.default_rng(step))
    assert theta.shape == (2_000, kind.group.dimension)
    assert 0.0 < acc < 1.0
    np.testing.assert_allclose(norm_value(kind, theta), 1.0, rtol=1e-12)


def test_indicator_means_monotone_in_level():
    # P(N <= L) rises with L and reaches 1 once L exceeds every drawn norm.
    batch = sample(ENGEL_SPEC, 100_000, seed=8)
    nvals = norm_value(ENGEL_SPEC.kind, batch.coords)
    last = -1.0
    for level in (0.5, 1.0, 2.0, 4.0, 8.0):
        mean, _ = batch_mean_se((nvals <= level) * 1.0)
        assert mean >= last
        last = mean
    assert last == 1.0
    assert nvals.max() < 8.0


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


def test_zestimate_validation():
    with pytest.raises(ValueError):
        ZEstimate(value=-1.0, standard_error=0.0, method="quadrature")
    with pytest.raises(ValueError):
        ZEstimate(value=1.0, standard_error=-1.0, method="quadrature")


def test_sample_batch_rejects_nonfinite():
    coords = np.zeros((3, 4))
    coords[1, 2] = np.nan
    diag = SampleDiagnostics(0.3, 3.0)
    with pytest.raises(ValueError):
        SampleBatch(spec=ENGEL_SPEC, coords=coords, seed=0, diagnostics=diag)


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


@pytest.mark.parametrize(
    "cut,match",
    [
        (lambda raw: b"", "needs 60 bytes, file has 0"),
        (lambda raw: raw[:30], "needs 60 bytes, file has 30"),
        (lambda raw: raw[:-1], "needs 3200 bytes, file has 3199"),
        (lambda raw: raw + b"\0", "needs 3200 bytes, file has 3201"),
    ],
    ids=["empty", "30-byte", "truncated", "trailing-byte"],
)
def test_load_rejects_malformed_size(tmp_path, cut, match):
    path = tmp_path / "batch.ccmb"
    save_batch(path, sample(ENGEL_SPEC, 100, seed=4))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=match):
        load_batch(path)


def test_load_rejects_unsupported_version(tmp_path):
    path = tmp_path / "batch.ccmb"
    save_batch(path, sample(ENGEL_SPEC, 10, seed=4))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported CCMB version 2"):
        load_batch(path)


def test_save_writes_zero_flag_at_offset_36(tmp_path):
    # Format version 1 keeps an f64 flag after a, p and the kind code; it is
    # always written as 0.0, and a reader still reports it.
    path = tmp_path / "batch.ccmb"
    save_batch(path, sample(ENGEL_SPEC, 10, seed=4))
    raw = bytearray(path.read_bytes())
    assert bytes(raw[36:44]) == struct.pack("<d", 0.0)
    raw[36:44] = struct.pack("<d", 1.0)
    path.write_bytes(bytes(raw))
    header, _ = load_batch(path)
    assert header["perturbed"] is True


def _sample_csv(tmp_path, *args):
    """The lines of `carnotlab sample`'s samples.csv and the CCMB coordinates."""
    assert main(["sample", *args, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    return lines, load_batch(tmp_path / "samples.ccmb")[1]


def test_csv_mirror(tmp_path):
    lines, coords = _sample_csv(tmp_path, "--count", "100", "--csv-rows", "25", "--seed", "2")
    header_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("seed: 2" in ln for ln in header_lines)
    assert lines[len(header_lines)] == "x1,x2,x3,x4"
    rows = lines[len(header_lines) + 1 :]
    assert len(rows) == 25
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(parsed, coords[:25])
    np.testing.assert_array_equal(coords, sample(ENGEL_SPEC, 100, seed=2).coords)


def test_csv_mirror_filiform_columns(tmp_path):
    lines, coords = _sample_csv(
        tmp_path, "--kind", "filiform", "--step", "5", "--a", "1.5", "--p", "5",
        "--count", "100", "--csv-rows", "12", "--seed", "3",
    )
    assert lines[:6] == [
        "# kind: filiform",
        "# step: 5",
        "# a: 1.5",
        "# p: 5.0",
        "# seed: 3",
        "# count: 12",
    ]
    assert lines[6] == "x1,x2,x3,x4,x5,x6"
    parsed = np.array([[float(v) for v in row.split(",")] for row in lines[7:]])
    np.testing.assert_array_equal(parsed, coords[:12])


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


# SHA-256 of coords.tobytes() followed by repr((acceptance rate, effective
# samples)) for sample(spec, count, seed), p = 3 for Engel and p = n for
# filiform step n, recorded from the exact sampler.  They pin the draws byte
# for byte: any change to the substreams, their order or the float
# operations that form a point shows here.
SAMPLER_DIGESTS = {
    ("engel", 3, 1, 0): "13e17f21f634cb88c8aea533213bdae2df4b534a2d937c993324b9d8800d2f3c",
    ("engel", 3, 1, 7): "d80345402251c202d379137bd39d6d5ac9bd91df12d48d84e6a3534cdea75ecd",
    ("engel", 3, 37, 0): "cf646c0046e921410417db6475903c4c61273ad316cae68f1ce4ff47ed551c0d",
    ("engel", 3, 37, 7): "b818e3febe8010bca829d1d335e2754878be64498658ae5d2dcd677de4439ffe",
    ("engel", 3, 300, 0): "8e9aa8140115f34b076a8a1250663937ea4e1897bceb56334e11ed2ba249c4a1",
    ("engel", 3, 300, 7): "14d2bb734d47d3447892c65d313a38eb7733b4c90f919768145da5eab1d6031f",
    ("filiform", 3, 1, 0): "643aa33fb242561166a647afacf264a1687e708e37a715ee590ed4cca2c6415d",
    ("filiform", 3, 1, 7): "cad3f8ca94a245302188b8f78e60bfa835f8f34fb3d0522fe128214e9267f01f",
    ("filiform", 3, 37, 0): "b15a19694f4fbc451bf564054c17dd244625e1fec697270abe0ba64dadaeb185",
    ("filiform", 3, 37, 7): "057d1ba76a615711922837936ff6a5a337f66399c1ae9e559319f01d8bd213fd",
    ("filiform", 3, 300, 0): "951fa0289d9e5a0f39313186ef5e8642c017dc6990422eca3a69ffc5d03f76b6",
    ("filiform", 3, 300, 7): "cf0d1ce095efa9024e9945700df27cdd601fbbc44586e34783c4df602c08c61f",
    ("filiform", 4, 1, 0): "45695d036973b953270a723c0672526ac5052ddd8c576d3198eb8bf811febbfc",
    ("filiform", 4, 1, 7): "d8559994028ae9b82f62d2d6595d64db360a5dc1b2b9460614d4e45066e5d5ef",
    ("filiform", 4, 37, 0): "64debb4b2e29ae4d637122ce56156e6f607c023570f3d571cc723333992c6199",
    ("filiform", 4, 37, 7): "7dc6d05a7f5319beb9d922f5abe08f708c799d631c253e5e0863521c7e7a4fff",
    ("filiform", 4, 300, 0): "72965172a23746c2acf73905d200d37d56a70e8096fce61d5571156aaa19e6ba",
    ("filiform", 4, 300, 7): "6c3bf2e5c58767c563a733ebb3d4f5763903c1fef192aea0d8930ad56341bb98",
    ("filiform", 5, 1, 0): "a1555c02114f5efd3b54fe8db57bafd3e3dc1591ece14913a7798384671a8d04",
    ("filiform", 5, 1, 7): "d7083864f8820e56734b5fa0875deda941473e5982b71781d495a340c0c8e3f6",
    ("filiform", 5, 37, 0): "f85d3cb5514be2fb5b800abff7a30ad891ce2cccf631db4466b1c6ac3014b634",
    ("filiform", 5, 37, 7): "79cbf69e67de88140769ffa1578824671717883009288db85a3e6c10d1686e7d",
    ("filiform", 5, 300, 0): "f9ef36fa2d9316a9cd23167fe2b49a804d9fe3cc94dbf03d60994b617dc01d14",
    ("filiform", 5, 300, 7): "4bd4d4b4bfc21d57770d87aa905b6769f117bc7ca126c6ac9a32446c317673ff",
    ("filiform", 6, 1, 0): "64d74d8ad5e24f52a154d75ecbd3e71743b3d119f21650deb9d988b4e1872ac5",
    ("filiform", 6, 1, 7): "4beb6a7faac0769fddbf549efcce1260175f0f5027cb4e2b93165bf70e66b124",
    ("filiform", 6, 37, 0): "d0e513424f53aea195681bf4064ec7b6cdcf87a6fad17bcb6bd016203b400f7c",
    ("filiform", 6, 37, 7): "91efedf1156d0895d08991ba823f8f03273ca4bec08a2461fc8061bd1af21fd0",
    ("filiform", 6, 300, 0): "251afd1be28597ac5f1436c9f98db278ad52dbb12b41f488879d9cd9a872e685",
    ("filiform", 6, 300, 7): "ca23933d2818bd219fec5120abaedc5d515d06e8fb98f275a679c98eda24e188",
    ("filiform", 7, 1, 0): "35f6f673f01b24fe7ca3fb6493081efd753ac865a36240033e3c646bbbfbc6da",
    ("filiform", 7, 1, 7): "d6127398539be77d3459941cd9735bea9a09169412b6ef6f7936c08f25ec6be0",
    ("filiform", 7, 37, 0): "478946d87701b205089c3a527c393fce9409e7572b170e35a12ab721fb3f6e83",
    ("filiform", 7, 37, 7): "59337b3d4842aed536c04271a6530e617a98095cdbe80b3f5ce8d83b56dafefe",
    ("filiform", 7, 300, 0): "918f7ad6c217cf58e1fcc051deb19cf34514b35990ae3e8d43a5941a64c1da0b",
    ("filiform", 7, 300, 7): "2d25bc7cf0b829079b3cbd50ae1a348d9d525b86d86a30cf224c4708067732e8",
    ("filiform", 8, 1, 0): "18c879de23c6e62a02e4b9e93520dfb79f68e148b0c23c296e54de7d796ba8b1",
    ("filiform", 8, 1, 7): "95d2bb815e37984fe623331efa12f6289bc0951da82d6ae7b17c13610144f032",
    ("filiform", 8, 37, 0): "bd9eabca196bbcad04770588285ec009c3624a99db28ded6bbe49c7688e0e6c8",
    ("filiform", 8, 37, 7): "1dc9b28d433ee68675157c471beef7ffb0868a828cded5af22c56feca437a304",
    ("filiform", 8, 300, 0): "96ea6df219e93a8fcf9e936452510bc627b811281595367f07c901f725a582b3",
    ("filiform", 8, 300, 7): "6b5d1699c73ba724a6f166ee1f41bfbdaa21ba371dc8e9ce09e2b9bdc159e90d",
    ("filiform", 9, 1, 0): "cf89b3fce489299ba653efe4c32dd849dc5b8ae55f59f5dc622f8fd01a97064c",
    ("filiform", 9, 1, 7): "8d2f5b958dc32fb5684e46dd9978ef69669a5eb90e134afb1ba9ae669d9dbde9",
    ("filiform", 9, 37, 0): "b3aca734d11e35625ae764ef6ce7e1be2b1c4d3db97179cf22321c0eeca11e3a",
    ("filiform", 9, 37, 7): "8eb87941d0d209a228344e398e51d60d96d2a72b7de0ebb3b6bd4a09d95d839f",
    ("filiform", 9, 300, 0): "ba29b33f47be85455a766528f203a5783bf1073a57fbb407a045bd959e9cf35b",
    ("filiform", 9, 300, 7): "2a36e6125eb94021fc814baa3f8101c65b9d9aaf22cb9bbba63eaecdea9a9eb3",
    ("filiform", 10, 1, 0): "7f03d51988cc3451e35812b82a658c67b5f80d9c5ab7e6e072e307b52ce5484a",
    ("filiform", 10, 1, 7): "58440055125f016e3dd129ebb440fb86b78068f7dd6d940141bf64fe8d845c78",
    ("filiform", 10, 37, 0): "9622ef215b53b962087f7d9340d0ed6f086001ac80203a72c4dace4e8143106d",
    ("filiform", 10, 37, 7): "ce68cdf36eb006c97c5632de03e7c390fca9189c251e2ed698d7a5f2bf594df4",
    ("filiform", 10, 300, 0): "4b329f7bb83bc08afb65cc5fdcff86c760096c32972b53f11e031f7893cc6104",
    ("filiform", 10, 300, 7): "5cc4e61ddb9cb41efa93557ffb595261df1d743ca02be0f2d9b65853d01d5fe9",
    ("filiform", 11, 1, 0): "a8abc438549a6474c6e73b0e013b58ba9b1a5554561f38945f3cf66182888faa",
    ("filiform", 11, 1, 7): "88a0f7641e6d3b00a38c463963b8fab29a087d4b0fb607b9b2cbc190b7a77f64",
    ("filiform", 11, 37, 0): "d26bb63d7e2b13af7fb146d095ec7a094f60565882c1f38cf05218dd008ebb79",
    ("filiform", 11, 37, 7): "8ad15fcf9b72e0135d138b85239ffebb0f41506f4a0aa2bfe533d9ed86def931",
    ("filiform", 11, 300, 0): "a07d639c2bd47d2987ab619380ae6328adfb0381f6c855f44c9c765b1ff645f3",
    ("filiform", 11, 300, 7): "2dc3f328920eaa0baef49c7e6db13f86c1c3ce3e58ab95575383f1735935beb0",
    ("filiform", 12, 1, 0): "18bb2766d35c445bf55c1a513b4029e43e29bd2d8411c24e673ea2be0956ee0b",
    ("filiform", 12, 1, 7): "a351224ed3e452fefde0285337e99eafc39fe95761504edd4b277bfd05ab3a47",
    ("filiform", 12, 37, 0): "a7e2118ffaaa430a72b52d1d6ec9760fabfe08bf6494c7896d3f0ebe5f84190a",
    ("filiform", 12, 37, 7): "abe01bea52e36b832db0952ac1db4e19f50da6e0ce84f7976953f6aae076968b",
    ("filiform", 12, 300, 0): "88a7fb669f56c7faf8b7b22b694b0cfeea895502e42dcab81a89273f39c0d65b",
    ("filiform", 12, 300, 7): "ad4c955ca9ffc52d5a9a767f1b88b51b884d1689a35c6b7196df3768ff1c44da",
}


@pytest.mark.parametrize("variant,step,count,seed", sorted(SAMPLER_DIGESTS))
def test_sampler_bytes_pinned(variant, step, count, seed):
    kind = _kind(variant, step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = sample(MeasureSpec(kind, a=1.0, p=float(step)), count, seed)
    d = batch.diagnostics
    digest = hashlib.sha256(batch.coords.tobytes())
    digest.update(repr((d.acceptance_rate, d.effective_samples)).encode())
    assert digest.hexdigest() == SAMPLER_DIGESTS[variant, step, count, seed]
