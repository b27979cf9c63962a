"""Test-function family: construction, exact gradients, symmetry, audits."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from carnotlab.calculus import fd_frame_first, norm_derivative_tables
from carnotlab.family import (
    MemberBatch,
    TestFunction,
    TestFunctionFamily,
    central_shift_member,
    default_family,
    member_series,
    monomial_member,
    weighted_monomial_exponents,
)
from carnotlab.frames import left_frame, right_frame_engel
from carnotlab.norms import ENGEL, NormKind, engel_kind, filiform_kind


def natural_frame(kind: NormKind):
    if kind.variant == ENGEL:
        return right_frame_engel(kind.group)
    return left_frame(kind.group)


def smooth_points(kind: NormKind, count: int, seed: int) -> np.ndarray:
    """Points with every coordinate well inside one sign region.

    The top coordinate sits in (2.2, 3.0) so the +-1 central shifts stay
    clear of the norm's singular set too.
    """
    rng = np.random.default_rng(seed)
    d = kind.group.dimension
    pts = rng.uniform(0.4, 1.4, size=(count, d))
    pts[:, -1] = rng.uniform(2.2, 3.0, size=count)
    return pts


def mirror(x: np.ndarray) -> np.ndarray:
    """The automorphism x_1 -> -x_1, x_k -> (-1)^k x_k for k >= 2."""
    out = np.array(x, dtype=np.float64, copy=True)
    out[..., 0] = -out[..., 0]
    for k in range(2, out.shape[-1] + 1):
        out[..., k - 1] = (-1.0) ** k * out[..., k - 1]
    return out


class TestEnumeration:
    def test_engel_count_and_order(self):
        expts = weighted_monomial_exponents(engel_kind(), 3)
        assert len(expts) == 14
        assert expts[0] == (0, 0, 0, 0)
        weights = (1, 1, 2, 3)
        degs = [sum(e * w for e, w in zip(t, weights)) for t in expts]
        assert degs == sorted(degs)
        assert max(degs) <= 3
        # Within a degree the order is lexicographic.
        for d in set(degs):
            chunk = [t for t, dd in zip(expts, degs) if dd == d]
            assert chunk == sorted(chunk)

    def test_count_is_step_independent(self):
        # Coordinates past x4 have weight > 3 and cannot appear.
        for n in (4, 5, 6):
            assert len(weighted_monomial_exponents(filiform_kind(n), 3)) == 14

    def test_no_duplicates(self):
        expts = weighted_monomial_exponents(filiform_kind(5), 3)
        assert len(set(expts)) == len(expts)


class TestConstruction:
    def test_size_and_split(self):
        fam = default_family(engel_kind(), q=1.5)
        assert len(fam) >= 70
        assert len(fam.train_indices) == 50
        assert len(fam.holdout_indices) == len(fam) - 50
        assert len(fam.holdout_indices) >= 20
        assert not set(fam.train_indices) & set(fam.holdout_indices)
        assert sorted(fam.train_indices + fam.holdout_indices) == list(
            range(len(fam))
        )

    def test_contains_coordinates_and_constant(self):
        fam = default_family(engel_kind(), q=1.5)
        labels = [m.label for m in fam.members]
        assert "x1" in labels
        assert "x2" in labels
        constant = [m for m in fam.members if m.is_constant]
        assert len(constant) == 1
        assert constant[0].label == "one"
        assert constant[0] in fam.train_members

    def test_labels_unique(self):
        for kind in (engel_kind(), filiform_kind(4)):
            fam = default_family(kind, q=2.0)
            labels = [m.label for m in fam.members]
            assert len(set(labels)) == len(labels)

    def test_deterministic(self):
        a = default_family(engel_kind(), q=1.5)
        b = default_family(engel_kind(), q=1.5)
        assert [m.label for m in a.members] == [m.label for m in b.members]
        assert a.train_indices == b.train_indices
        assert a.holdout_indices == b.holdout_indices

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            default_family(engel_kind(), q=1.0)

    def test_rejects_overlapping_split(self):
        fam = default_family(engel_kind(), q=1.5)
        with pytest.raises(ValueError, match="overlap"):
            TestFunctionFamily(
                kind=fam.kind,
                q=fam.q,
                members=fam.members,
                train_indices=(0, 1),
                holdout_indices=(1, 2),
                description="bad",
            )


class TestGradients:
    @pytest.mark.parametrize(
        "kind",
        [engel_kind(), filiform_kind(4), filiform_kind(5), filiform_kind(8), filiform_kind(12)],
        ids=["engel", "fil4", "fil5", "fil8", "fil12"],
    )
    def test_every_member_matches_finite_differences(self, kind):
        fam = default_family(kind, q=1.5)
        frame = natural_frame(kind)
        pts = smooth_points(kind, 25, seed=11)
        for member in fam.members:
            exact = member.gradient(pts)
            approx = fd_frame_first(member.value, frame, pts, h=1e-3)
            scale = np.max(np.abs(exact)) + 1.0
            assert np.max(np.abs(exact - approx)) <= 1e-6 * scale, member.label

    def test_constant_gradient_is_zero(self):
        fam = default_family(engel_kind(), q=1.5)
        one = next(m for m in fam.members if m.is_constant)
        pts = smooth_points(engel_kind(), 10, seed=3)
        assert np.all(one.gradient(pts) == 0.0)
        assert np.all(one.value(pts) == 1.0)

    def test_monomial_values(self):
        kind = engel_kind()
        member = monomial_member(kind, (2, 1))
        pts = smooth_points(kind, 8, seed=5)
        np.testing.assert_allclose(
            member.value(pts), pts[:, 0] ** 2 * pts[:, 1], rtol=1e-15
        )


class TestSymmetry:
    def test_mirror_is_automorphism(self):
        g = engel_kind().group
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        y = rng.normal(size=(50, 4))
        lhs = mirror(g.compose(x, y))
        rhs = g.compose(mirror(x), mirror(y))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize(
        "kind", [engel_kind(), filiform_kind(4)], ids=["engel", "fil4"]
    )
    def test_mirror_closure(self, kind):
        """Each member composed with the mirror is +- some member."""
        fam = default_family(kind, q=1.5)
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, kind.group.dimension))
        values = np.stack([m.value(pts) for m in fam.members])
        mirrored = np.stack([m.value(mirror(pts)) for m in fam.members])
        for i, row in enumerate(mirrored):
            hit = np.any(
                np.all(np.abs(values - row) <= 1e-12, axis=1)
                | np.all(np.abs(values + row) <= 1e-12, axis=1)
            )
            assert hit, fam.members[i].label


class TestShifts:
    def test_central_shift_is_group_translation(self):
        # The shift element lies in the center: both product orders agree
        # and reduce to coordinate addition, which the member exploits.
        kind = engel_kind()
        g = kind.group
        base = monomial_member(kind, (1, 1))
        member = central_shift_member(kind, base, 0.7)
        c = np.zeros(4)
        c[-1] = 0.7
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 4))
        right = np.array([g.compose(p, c) for p in pts])
        left = np.array([g.compose(c, p) for p in pts])
        np.testing.assert_allclose(right, pts + c, atol=1e-14)
        np.testing.assert_allclose(left, pts + c, atol=1e-14)
        np.testing.assert_allclose(
            member.value(pts), base.value(right), atol=1e-14
        )


class TestAudit:
    def test_moments_finite_on_gaussianish_cloud(self):
        kind = engel_kind()
        fam = default_family(kind, q=1.5)
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(4_000, 4))
        context = MemberBatch(kind, coords)
        labels, value_moments, gradient_moments = [], [], []
        for member in fam.members:
            vals, gmag = member_series(member, context, fam.q)
            labels.append(member.label)
            value_moments.append(float(np.mean(np.abs(vals) ** fam.q)))
            gradient_moments.append(float(np.mean(gmag)))
        assert np.all(np.isfinite(value_moments + gradient_moments))
        assert len(labels) == len(fam)
        one_idx = labels.index("one")
        assert value_moments[one_idx] == pytest.approx(1.0)
        assert gradient_moments[one_idx] == 0.0

    def test_nonconstant_requirement(self):
        kind = engel_kind()
        one = monomial_member(kind, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="nonconstant"):
            TestFunctionFamily(
                kind=kind,
                q=2.0,
                members=(one,),
                train_indices=(0,),
                holdout_indices=(),
                description="only the constant",
            )


class TestTags:
    def test_tags_partition_sensibly(self):
        fam = default_family(engel_kind(), q=1.5)
        by_tag = {}
        for m in fam.members:
            for t in m.tags:
                by_tag.setdefault(t, []).append(m.label)
        assert len(by_tag.get("monomial", [])) >= 14
        assert len(by_tag.get("bump", [])) >= 42
        assert len(by_tag.get("shifted", [])) == 12  # 6 shifts + 6 rescaled
        assert len(by_tag.get("rescaled", [])) == 6
        assert len(by_tag.get("truncation", [])) >= 3


# SHA-256 over every default_family member's values then gradients, in
# member order, on standard-normal points (seed step, or 10 for Engel); the
# one-point case is the first of those points.  Recorded before the members
# moved onto the shared batch context, so they pin its results bit for bit.
MEMBER_DIGESTS = {
    ("engel", 4099): "f6fafd4f7153b89cc3d870c87d2cce95b7503d97de7d635b4964cc38a6519820",
    ("engel", 1): "6cc79b7b2fee7626a9a0c5abae6dc837da6366fac96a2d492ef75cb37737d46f",
    ("filiform-3", 4099): "8f3415f1acf6266e406390b94063647d2c956ee8736b4a49ccc0e26e0558fe49",
    ("filiform-3", 1): "a3808e2be1197eca919528361e7ddb93a371ed84fc312e710c6b35d27d06e0c9",
    ("filiform-4", 4099): "c6972dcf2b1c85b36003bd1f7dc214b6d3b12dddac7a26d6027afff765927f03",
    ("filiform-4", 1): "b43c3909a5c8673e091094a365e6dd555de3207e3f40016bdc42518424314ff6",
    ("filiform-5", 4099): "e02bdf0d131f74e6fd9daf9fdae3c95b6e352a79e0b87c96cee2ac957ffd2515",
    ("filiform-5", 1): "6a9cd5d2cf59af8a7a4d88fa8c1c9b6468ac0d7102e523dc71d5ad805d080a3a",
    ("filiform-6", 4099): "81ee874965cbe09a520dbad167f340e0dc31e92ff6cb06c72cace8cd8351235f",
    ("filiform-6", 1): "ac6420d3bbe587b1908a0b924532b4bd6d8d30209e2e69b82058514fd15fb9b8",
    ("filiform-7", 4099): "a8f92df0f4a8e9e0f6ada1d76f54f64a27553ca27d3a110ab9d122d36af1ba62",
    ("filiform-7", 1): "399de8451dd2deb7e2bafe90e57dd1fedfd8bba2f0d928f19915780ea56a947f",
    ("filiform-8", 4099): "fa9b5e254a21fa7c7653ea0cdc53c305ff7238eca4e335e987288350aac0624b",
    ("filiform-8", 1): "161d62a7f93d68a7aadb835027191920a14f3f7a50e42a6bf0003b3ec83a97a6",
    ("filiform-9", 4099): "1821b393d952698ab2f9d9c9f2bf5d2a875ac0acfe42f2c6145e712c3aaef7e4",
    ("filiform-9", 1): "3628e036ef98d17e86a1a677a428ae28447ad2a1a68d49bc2a6538ab179e8bfb",
    ("filiform-10", 4099): "99e40b8459bf54ab7e00999841a405673f7f67a598d4c29774e8ade1cd8cc6cf",
    ("filiform-10", 1): "5a2114c54930a9c735218498eeaaafd8c5c1c897914cae3708f7b5fa8eb284d1",
    ("filiform-11", 4099): "37220baa635f57a14324cdd907903b4dcad283f0b39b34ead3475b39bacac5ed",
    ("filiform-11", 1): "e293fcaa00958dbff978fb7b87c883ccfd36618cb3f014d674189aaf6e8aa0ad",
    ("filiform-12", 4099): "85ef170454ef2b84072ff111c6723530652088f88c3d3e8abc19906969fea4f6",
    ("filiform-12", 1): "a4d886ed8d452443adcaef2f745578163bffe61d6813db60afbdf4950e779231",
}
DIGEST_KINDS = {"engel": engel_kind(), **{f"filiform-{n}": filiform_kind(n) for n in range(3, 13)}}


def digest_points(kind: NormKind) -> np.ndarray:
    seed = 10 if kind.variant == ENGEL else kind.group.step
    return np.random.default_rng(seed).normal(size=(4099, kind.group.dimension))


@pytest.mark.parametrize(("name", "m"), sorted(MEMBER_DIGESTS), ids=lambda v: str(v))
def test_member_bytes_are_pinned(name, m):
    kind = DIGEST_KINDS[name]
    xb = digest_points(kind)[:m]
    h = hashlib.sha256()
    for member in default_family(kind, q=1.5).members:
        h.update(member.value(xb).tobytes())
        h.update(member.gradient(xb).tobytes())
    assert h.hexdigest() == MEMBER_DIGESTS[(name, m)]
