"""Frame fields: pinned coefficients, invariance, brackets, rank."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from carnotlab.cli import main
from carnotlab.frames import (
    LEFT_LABEL,
    RIGHT_LABEL,
    VectorField,
    check_invariance,
    commutator_coefficients,
    commutator_table,
    frame_commutators,
    invariance_residuals,
    left_frame,
    right_frame_engel,
    translation_jacobian,
)
from carnotlab.group import FiliformGroup, engel_group


class TestPinnedCoefficients:
    def test_left_x2_at_axis_point(self):
        # X_2 = d/dx2 + x1 d/dx3 + x1^2/2 d/dx4 at x1 = 2
        f = VectorField(engel_group(), LEFT_LABEL, 2)
        np.testing.assert_allclose(
            f.coefficients(np.array([2.0, 0, 0, 0])), [0, 1, 2, 2], atol=0
        )

    def test_right_x1_pinned(self):
        f = VectorField(engel_group(), RIGHT_LABEL, 1)
        np.testing.assert_allclose(
            f.coefficients(np.array([5.0, 2.0, 3.0, 7.0])), [1, 0, -2, -3], atol=0
        )

    def test_left_x1_is_first_coordinate_field(self):
        f = VectorField(FiliformGroup(5), LEFT_LABEL, 1)
        x = np.array([3.0, 1.0, -2.0, 0.5, 4.0, 1.5])
        np.testing.assert_allclose(f.coefficients(x), [1, 0, 0, 0, 0, 0], atol=0)

    def test_left_top_field_is_constant(self):
        g = FiliformGroup(4)
        f = VectorField(g, LEFT_LABEL, 5)
        x = np.array([2.0, 3.0, 1.0, 0.0, -1.0])
        np.testing.assert_allclose(f.coefficients(x), [0, 0, 0, 0, 1], atol=0)

    def test_batch_shapes(self):
        f = VectorField(engel_group(), LEFT_LABEL, 2)
        out = f.coefficients(np.zeros((7, 4)))
        assert out.shape == (7, 4)


class TestFrameConstruction:
    def test_left_frame_sizes(self):
        fr = left_frame(FiliformGroup(6))
        assert len(fr) == 7
        assert len(fr.horizontal) == 2
        assert [f.index for f in fr.fields] == list(range(1, 8))

    def test_right_frame_requires_step_three(self):
        with pytest.raises(ValueError):
            right_frame_engel(FiliformGroup(4))

    def test_right_frame_fields(self):
        fr = right_frame_engel(engel_group())
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(fr.fields[1].coefficients(x), [0, 1, 0, 0])
        np.testing.assert_allclose(fr.fields[3].coefficients(x), [0, 0, 0, 1])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestLeftInvariance:
    def test_residual_vanishes(self, n):
        g = FiliformGroup(n)
        fr = left_frame(g)
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            alpha = rng.uniform(-3, 3, g.dimension)
            x = rng.uniform(-3, 3, g.dimension)
            for f in fr.fields:
                assert check_invariance(f, alpha, x) < 1e-10

    def test_translation_jacobian_matches_fd(self, n):
        g = FiliformGroup(n)
        rng = np.random.default_rng(200 + n)
        alpha = rng.uniform(-2, 2, g.dimension)
        x = rng.uniform(-2, 2, g.dimension)
        jac = translation_jacobian(g, LEFT_LABEL, alpha, x)
        h = 1e-6
        for l in range(g.dimension):
            e = np.zeros(g.dimension)
            e[l] = h
            col = (g.compose(alpha, x + e) - g.compose(alpha, x - e)) / (2 * h)
            np.testing.assert_allclose(jac[:, l], col, atol=1e-7)


class TestRightInvariance:
    def test_residual_vanishes(self):
        g = engel_group()
        fr = right_frame_engel(g)
        rng = np.random.default_rng(300)
        for _ in range(200):
            alpha = rng.uniform(-3, 3, 4)
            x = rng.uniform(-3, 3, 4)
            for f in fr.fields:
                assert check_invariance(f, alpha, x) < 1e-10

    def test_translation_jacobian_matches_fd(self):
        g = engel_group()
        rng = np.random.default_rng(301)
        alpha = rng.uniform(-2, 2, 4)
        x = rng.uniform(-2, 2, 4)
        jac = translation_jacobian(g, RIGHT_LABEL, alpha, x)
        h = 1e-6
        for l in range(4):
            e = np.zeros(4)
            e[l] = h
            col = (
                g.reflected_compose(x + e, alpha) - g.reflected_compose(x - e, alpha)
            ) / (2 * h)
            np.testing.assert_allclose(jac[:, l], col, atol=1e-7)

    def test_plain_right_translation_breaks_minus_frame(self):
        # The minus-sign field is tied to the adapted translation; pushing it
        # through x -> x o alpha instead leaves a nonzero residual.
        g = engel_group()
        f = right_frame_engel(g).fields[0]
        alpha = np.array([0.0, 1.0, 0.0, 0.0])
        x = np.array([0.5, 0.0, 0.0, 0.0])
        z = g.compose(x, alpha)
        h = 1e-6
        jac = np.zeros((4, 4))
        for l in range(4):
            e = np.zeros(4)
            e[l] = h
            jac[:, l] = (g.compose(x + e, alpha) - g.compose(x - e, alpha)) / (2 * h)
        residual = np.max(np.abs(f.coefficients(z) - jac @ f.coefficients(x)))
        assert residual > 0.5


@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestCommutators:
    def test_left_structure_constants(self, n):
        g = FiliformGroup(n)
        table = commutator_table(left_frame(g))
        d = g.dimension
        for (i, j), coeffs in table.items():
            expected = np.zeros(d)
            if i == 1 and j <= n:
                expected[j] = 1.0  # [X_1, X_j] = X_{j+1}
            np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_fd_matches_analytic(self, n):
        g = FiliformGroup(n)
        fr = left_frame(g)
        rng = np.random.default_rng(400 + n)
        x = rng.uniform(-2, 2, g.dimension)
        for i in range(len(fr.fields)):
            for j in range(i + 1, len(fr.fields)):
                an = commutator_coefficients(fr.fields[i], fr.fields[j], x)
                fd = commutator_coefficients(fr.fields[i], fr.fields[j], x, method="fd")
                np.testing.assert_allclose(fd, an, atol=1e-8)


class TestRightCommutators:
    def test_structure_constants(self):
        table = commutator_table(right_frame_engel(engel_group()))
        np.testing.assert_allclose(table[(1, 2)], [0, 0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(table[(1, 3)], [0, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(table[(1, 4)], np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(table[(2, 3)], np.zeros(4), atol=1e-12)


class TestMixedBrackets:
    """Right fields against left fields on Engel; only [X_1^R, X_2^L] and
    [X_1^R, X_3^L] are nonzero."""

    @staticmethod
    def expected(i, j, x):
        if (i, j) == (1, 2):
            return np.array([0.0, 0.0, 2.0, 2.0 * x[0]])  # 2 X_3^L
        if (i, j) == (1, 3):
            return np.array([0.0, 0.0, 0.0, 2.0])  # 2 X_4^L
        return np.zeros(4)

    @pytest.mark.parametrize("x", [[0.7, -1.2, 0.4, 2.0], [-1.5, 0.3, -0.8, 0.1]])
    def test_pinned(self, x):
        g = engel_group()
        x = np.array(x)
        for right in right_frame_engel(g).fields:
            for left in left_frame(g).fields:
                want = self.expected(right.index, left.index, x)
                np.testing.assert_array_equal(commutator_coefficients(right, left, x), want)
                np.testing.assert_array_equal(commutator_coefficients(left, right, x), -want)
                fd = commutator_coefficients(right, left, x, method="fd")
                np.testing.assert_allclose(fd, want, atol=1e-8)
                fd = commutator_coefficients(left, right, x, method="fd")
                np.testing.assert_allclose(fd, -want, atol=1e-8)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_fd_brackets_read_one_table_for_the_shifted_points(n, monkeypatch):
    # One Taylor table at the point and one for all 2d shifted points, where
    # single-point shifts took 1 + 2d^2.
    calls = []
    powers = FiliformGroup.taylor_powers
    monkeypatch.setattr(
        FiliformGroup, "taylor_powers", lambda self, x1: calls.append(x1.shape) or powers(self, x1)
    )
    d = n + 1
    frame_commutators(left_frame(FiliformGroup(n)), np.linspace(-1.0, 1.0, d), "fd")
    assert calls == [(1,), (2 * d,)]


def test_field_index_validation():
    with pytest.raises(ValueError):
        VectorField(engel_group(), LEFT_LABEL, 0)
    with pytest.raises(ValueError):
        VectorField(engel_group(), LEFT_LABEL, 5)
    with pytest.raises(ValueError):
        VectorField(engel_group(), "other", 1)
    with pytest.raises(ValueError):
        VectorField(FiliformGroup(5), RIGHT_LABEL, 1)


# ------------------------------------------------------------------
# References: the per-pair and per-field loops the frame-level paths
# replaced.  Each recomputes the basis, the coefficients, the Jacobians and
# the translation for every pair or field; the shared paths must give the
# same bytes.


def reference_bracket(fa, fb, x, method):
    def fd_jacobian(field, h=1e-5):
        d = field.group.dimension
        jac = np.zeros((d, d))
        for l in range(d):
            e = np.zeros(d)
            e[l] = h
            jac[:, l] = (field.coefficients(x + e) - field.coefficients(x - e)) / (2 * h)
        return jac

    a = fa.coefficients(x)
    b = fb.coefficients(x)
    if method == "analytic":
        ja = fa.coefficient_jacobian(x)
        jb = fb.coefficient_jacobian(x)
    else:
        ja = fd_jacobian(fa)
        jb = fd_jacobian(fb)
    return jb @ a - ja @ b


def reference_commutator_table(frame, points):
    table = {}
    for i in range(1, len(frame.fields) + 1):
        for j in range(i + 1, len(frame.fields) + 1):
            rows = []
            for p in np.atleast_2d(points):
                comm = reference_bracket(frame.fields[i - 1], frame.fields[j - 1], p, "analytic")
                basis = np.stack([f.coefficients(p) for f in frame.fields], axis=1)
                rows.append(np.linalg.solve(basis, comm))
            table[(i, j)] = np.array(rows)[0]
    return table


def reference_fd_defect(frame, probe):
    defect = 0.0
    for i in range(len(frame.fields)):
        for j in range(i + 1, len(frame.fields)):
            an = reference_bracket(frame.fields[i], frame.fields[j], probe, "analytic")
            fd = reference_bracket(frame.fields[i], frame.fields[j], probe, "fd")
            defect = max(defect, float(np.max(np.abs(an - fd))))
    return defect


def reference_invariance(field, alpha, x):
    g = field.group
    if field.label == LEFT_LABEL:
        z = g.compose(alpha, x)
    else:
        z = g.reflected_compose(x, alpha)
    jac = translation_jacobian(g, field.label, alpha, x)
    pushed = jac @ field.coefficients(x)
    return float(np.max(np.abs(field.coefficients(z) - pushed)))


REFERENCE_FRAMES = [
    pytest.param(left_frame(FiliformGroup(n)), id=f"left-n{n}") for n in range(3, 13)
] + [pytest.param(right_frame_engel(engel_group()), id="right-engel")]


@pytest.mark.parametrize("frame", REFERENCE_FRAMES)
class TestSharedPathsMatchReferences:
    def test_commutator_table_bytes(self, frame):
        pts = np.random.default_rng(600 + len(frame)).uniform(-2, 2, (5, len(frame)))
        table = commutator_table(frame, pts)
        ref = reference_commutator_table(frame, pts)
        assert list(table) == list(ref)
        for key, coeffs in ref.items():
            assert table[key].tobytes() == coeffs.tobytes()

    def test_frame_commutators_bytes_and_fd_defect(self, frame):
        probe = np.random.default_rng(700 + len(frame)).uniform(-2, 2, len(frame))
        for method in ("analytic", "fd"):
            brackets = frame_commutators(frame, probe, method)
            for (i, j), comm in brackets.items():
                ref = reference_bracket(frame.fields[i - 1], frame.fields[j - 1], probe, method)
                assert comm.tobytes() == ref.tobytes()
        fd = frame_commutators(frame, probe, "fd")
        defect = 0.0
        for pair, an in frame_commutators(frame, probe).items():
            defect = max(defect, float(np.max(np.abs(an - fd[pair]))))
        assert defect == reference_fd_defect(frame, probe)

    def test_invariance_residuals_equal_per_field(self, frame):
        rng = np.random.default_rng(800 + len(frame))
        for _ in range(30):
            alpha = rng.uniform(-2, 2, len(frame))
            x = rng.uniform(-2, 2, len(frame))
            expected = [reference_invariance(f, alpha, x) for f in frame.fields]
            assert invariance_residuals(frame, alpha, x) == expected
            assert [check_invariance(f, alpha, x) for f in frame.fields] == expected

    @pytest.mark.parametrize("k", [1, 30])
    def test_batched_invariance_residuals_equal_per_pair(self, frame, k):
        alphas, xs = np.random.default_rng(850 + k).uniform(-2, 2, (2, k, len(frame)))
        batched = invariance_residuals(frame, alphas, xs)
        per_pair = np.array([invariance_residuals(frame, a, x) for a, x in zip(alphas, xs)])
        assert np.array(batched).tobytes() == per_pair.T.tobytes()
        for f, residuals in zip(frame.fields, batched):
            assert check_invariance(f, alphas, xs).tobytes() == residuals.tobytes()


# ------------------------------------------------------------------
# References: the x_1^t/t! loops each left-frame quantity typed out before
# all of them read FiliformGroup.taylor_powers.  The shared table must give
# the same bytes.


def reference_left_coefficients(field, xb):
    d = field.group.dimension
    out = np.zeros((xb.shape[0], d))
    j = field.index
    if j == 1:
        out[:, 0] = 1.0
    else:
        term = np.ones(xb.shape[0])
        for k in range(j, d + 1):
            out[:, k - 1] = term
            term = term * xb[:, 0] / (k - j + 1)
    return out


def reference_left_coefficient_jacobian(field, xb):
    d = field.group.dimension
    jac = np.zeros((xb.shape[0], d, d))
    j = field.index
    if j >= 2:
        term = np.ones(xb.shape[0])
        for k in range(j + 1, d + 1):
            jac[:, k - 1, 0] = term
            term = term * xb[:, 0] / (k - j)
    return jac


def reference_translation_jacobian(group, label, a, xp):
    d = group.dimension
    jac = np.eye(d)
    if label == LEFT_LABEL:
        term_row = np.empty(d)
        term_row[0] = 1.0
        for t in range(1, d):
            term_row[t] = term_row[t - 1] * a[0] / t
        for k in range(3, d + 1):
            for i in range(2, k):
                jac[k - 1, i - 1] += term_row[k - i]
    else:
        neg = np.empty(d)
        neg[0] = 1.0
        for t in range(1, d):
            neg[t] = neg[t - 1] * (-xp[0]) / t
        for k in range(3, d + 1):
            acc = 0.0
            for i in range(2, k):
                acc -= a[i - 1] * neg[k - i - 1]
            jac[k - 1, 0] += acc
    return jac


def _scaled_points(n, scale, count=40, seed=900):
    """Box points at the given scale, led by rows with x_1 = +0.0 and -0.0."""
    pts = scale * np.random.default_rng(seed + n).uniform(-1, 1, size=(count, n + 1))
    pts[:2, 0] = [0.0, -0.0]
    return pts


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
class TestTaylorTableMatchesReferenceLoops:
    def test_left_coefficients_bytes(self, n, scale):
        xb = _scaled_points(n, scale)
        for field in left_frame(FiliformGroup(n)).fields:
            ref = reference_left_coefficients(field, xb)
            assert field.coefficients(xb).tobytes() == ref.tobytes()
            assert field.coefficients(xb[1]).tobytes() == ref[1].tobytes()

    def test_left_coefficient_jacobian_bytes(self, n, scale):
        xb = _scaled_points(n, scale)
        for field in left_frame(FiliformGroup(n)).fields:
            ref = reference_left_coefficient_jacobian(field, xb)
            assert field.coefficient_jacobian(xb).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("label", [LEFT_LABEL, RIGHT_LABEL])
    def test_translation_jacobian_bytes(self, n, scale, label):
        g = FiliformGroup(n)
        alphas = _scaled_points(n, scale, count=12)
        xs = _scaled_points(n, scale, count=12, seed=950)
        batch = translation_jacobian(g, label, alphas, xs)
        assert batch.shape == (len(alphas), n + 1, n + 1)
        for alpha, x, row in zip(alphas, xs, batch):
            ref = reference_translation_jacobian(g, label, alpha, x)
            assert translation_jacobian(g, label, alpha, x).tobytes() == ref.tobytes()
            assert row.tobytes() == ref.tobytes()


def _canonical_digest(path):
    """SHA-256 of a JSON artifact without its interpreter/library versions block."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("versions")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_verify_algebra_artifacts_pinned(tmp_path):
    # Digests recorded before the products, commutator tables and
    # translations were shared across checks.
    steps = ",".join(str(n) for n in range(3, 13))
    argv = ["verify-algebra", "--steps", steps, "--samples", "2000", "--invariance-samples", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    csv = hashlib.sha256((tmp_path / "algebra.csv").read_bytes()).hexdigest()
    assert csv == "5034f6b09e59988e5426dd5bb00289a5997145b5336261ec8881e0db2c2b8944"
    assert _canonical_digest(tmp_path / "algebra.json") == (
        "a91259a7f89107da13a2c08d75aa1b2e4ed683a6a8a65a0133f87e2ef1062a82"
    )
