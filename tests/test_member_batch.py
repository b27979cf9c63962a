"""The per-batch member context: shared arrays, moved children, replaced
maps, and the grouped scan that evaluates each monomial once per context."""

from __future__ import annotations

import dataclasses
import functools
import struct
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from carnotlab import family as family_module
from carnotlab import inequalities
from carnotlab.family import (
    MemberBatch,
    TestFunction,
    default_family,
    member_series,
    monomial_member,
    scan_members,
    weighted_monomial_exponents,
)
from carnotlab.measures import MeasureSpec, sample
from carnotlab.norms import engel_kind, filiform_kind

KINDS = {"engel": engel_kind(), "filiform-4": filiform_kind(4), "filiform-12": filiform_kind(12)}


def normal_points(kind, count: int) -> np.ndarray:
    return np.random.default_rng(kind.group.step).normal(size=(count, kind.group.dimension))


class TestBatchContext:
    @pytest.mark.parametrize("name", ["engel", "filiform-4", "filiform-12"])
    def test_shared_context_equals_per_member_maps(self, name):
        # One context serves every member, its moved children included,
        # and changes no bit against evaluating each member on its own.
        kind = KINDS[name]
        xb = normal_points(kind, 257)
        batch = MemberBatch(kind, xb)
        for member in default_family(kind, q=1.5).members:
            vals, grads = member.evaluate(batch)
            assert vals.tobytes() == member.value(xb).tobytes(), member.label
            assert grads.tobytes() == member.gradient(xb).tobytes(), member.label

    def test_context_computes_shared_arrays_once(self):
        kind = filiform_kind(4)
        batch = MemberBatch(kind, normal_points(kind, 64))
        assert batch.norm is batch.norm
        assert batch.norm_first is batch.norm_first
        assert batch.bump(2.0) is batch.bump(2.0)
        assert batch.shifted(1.0) is batch.shifted(1.0)
        assert batch.dilated(2.0).shifted(-1.0) is batch.dilated(2.0).shifted(-1.0)
        np.testing.assert_array_equal(batch.shifted(1.0).xb[:, -1], batch.xb[:, -1] + 1.0)

    def test_replaced_maps_are_honoured(self):
        # A member whose maps are swapped for wrappers evaluates through
        # them: pass-through wrappers (which set __wrapped__) receive the
        # context, bare maps receive the points.
        kind = engel_kind()
        member = next(m for m in default_family(kind, q=1.5).members if m.label == "x1*bump2")
        xb = normal_points(kind, 100)
        batch = MemberBatch(kind, xb)
        seen = []

        def passthrough(fn):
            @functools.wraps(fn)
            def wrapper(points):
                seen.append(type(points))
                return fn(points)

            return wrapper

        wrapped = TestFunction(
            label=member.label,
            value=passthrough(member.value),
            gradient=passthrough(member.gradient),
        )
        vals, grads = wrapped.evaluate(batch)
        assert seen == [MemberBatch, MemberBatch]
        ref_vals, ref_grads = member.evaluate(batch)
        assert vals.tobytes() == ref_vals.tobytes()
        assert grads.tobytes() == ref_grads.tobytes()

        lifted = TestFunction(
            label="x1*bump2+1",
            value=lambda X: member.value(X) + 1.0,
            gradient=member.gradient,
        )
        lifted_vals, gq = member_series(lifted, batch, 2.0)
        np.testing.assert_array_equal(lifted_vals, ref_vals + 1.0)
        np.testing.assert_array_equal(gq, np.sqrt(np.sum(ref_grads**2, axis=-1)) ** 2.0)


# q -> the p of the measure exp(-a N^p) whose conjugate exponent it is.
P_FOR_Q = {4.0 / 3.0: 4.0, 1.5: 3.0, 2.0: 2.0}


def _report_bytes(obj) -> bytes:
    """Every float of a report as its 8 bytes, everything else by repr,
    so two reports compare equal only if each number is bit-identical."""
    if dataclasses.is_dataclass(obj):
        return b"|".join(
            f.name.encode() + b"=" + _report_bytes(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return b"[" + b",".join(_report_bytes(v) for v in obj) + b"]"
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    return repr(obj).encode()


def _fresh_context_scan(members, batch, fn):
    """The reference: each member on its own new context, in member order."""
    return [fn(member, MemberBatch(batch.kind, batch.xb)) for member in members]


@pytest.mark.filterwarnings("ignore:p = .* is below the theorem threshold")
@pytest.mark.parametrize("q", sorted(P_FOR_Q), ids=lambda q: f"q{q:.3g}")
@pytest.mark.parametrize("name", ["engel", "filiform-4", "filiform-12"])
def test_grouped_scans_match_fresh_contexts(name, q, monkeypatch):
    # Grouped evaluation on one shared context reorders the work only:
    # every report, entry order and excluded order included, is the one
    # built from members each evaluated on a context of their own.
    kind = KINDS[name]
    spec = MeasureSpec(kind, 1.0, P_FOR_Q[q])
    fam = default_family(kind, q=q)
    rng = np.random.default_rng(kind.group.step)
    dim = kind.group.dimension
    train = types.SimpleNamespace(coords=rng.normal(size=(1500, dim)), seed=11)
    holdout = types.SimpleNamespace(coords=rng.normal(size=(1000, dim)), seed=12)
    monkeypatch.setattr(inequalities, "_holdout_batch", lambda *args: (holdout, holdout.seed))

    def reports():
        return (
            inequalities.ubound_fit(spec, fam, train),
            inequalities.poincare_scan(spec, fam, train),
            inequalities.ball_poincare_check(kind, q, fam, 1500, seed=3),
            inequalities.spectral_gap_galerkin(spec, 3, train, jackknife_blocks=5),
        )

    grouped = reports()
    monkeypatch.setattr(inequalities, "scan_members", _fresh_context_scan)
    reference = reports()
    for got, want in zip(grouped, reference):
        assert _report_bytes(got) == _report_bytes(want), type(got).__name__
    poincare, ball = grouped[1], grouped[2]
    assert poincare.excluded and ball.excluded  # the constant member at least


@pytest.mark.parametrize("name", ["engel", "filiform-4", "filiform-12"])
def test_scan_evaluates_each_monomial_once_per_context(name, monkeypatch):
    # One full default-family scan: every (context, monomial) pair is
    # computed exactly once, and no earlier monomial series is still alive
    # when the next one is computed, so the scan never holds two.
    kind = KINDS[name]
    fam = default_family(kind, q=1.5)
    batch = MemberBatch(kind, normal_points(kind, 300))
    computed: list[tuple[int, tuple]] = []
    alive: list[weakref.ref] = []
    original = family_module._monomial_series

    def counting(kind, active, xb):
        assert all(ref() is None for ref in alive), "two monomial series held at once"
        computed.append((id(xb), tuple(active)))
        vals, grads = original(kind, active, xb)
        alive.extend((weakref.ref(vals), weakref.ref(grads)))
        return vals, grads

    monkeypatch.setattr(family_module, "_monomial_series", counting)
    scan_members(fam.members, batch, lambda m, context: member_series(m, context, 1.5)[1].sum())
    assert len(computed) == len(set(computed))
    # 14 monomials on the batch itself, then x1 and x2 (the shift bases) on
    # each of the four moved contexts.
    root = [key for key in computed if key[0] == id(batch.xb)]
    assert len(root) == 14 and len(computed) == 14 + 4 * 2
    assert all(ref() is None for ref in alive)


def test_galerkin_basis_is_not_held_on_the_context(monkeypatch):
    # spectral_gap_galerkin writes the basis itself: each basis monomial is
    # its own group, so the context drops it before the next is computed.
    kind = filiform_kind(4)
    spec = MeasureSpec(kind, 1.0, 4.0)
    alive: list[weakref.ref] = []
    original = family_module._monomial_series
    released = []

    def counting(kind, active, xb):
        vals, grads = original(kind, active, xb)
        alive.append(weakref.ref(grads))
        return vals, grads

    def tracking_scan(members, batch, fn):
        out = scan_members(members, batch, fn)
        released.append(batch._held is None)
        return out

    monkeypatch.setattr(family_module, "_monomial_series", counting)
    monkeypatch.setattr(inequalities, "scan_members", tracking_scan)
    samples = types.SimpleNamespace(coords=normal_points(kind, 2000), seed=1)
    inequalities.spectral_gap_galerkin(spec, 3, samples, jackknife_blocks=5)
    assert released == [True]
    # Each gradient series was dropped once written: nothing else held it.
    assert alive and all(ref() is None for ref in alive)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# tracemalloc peak of the poincare_scan below at the commit before grouped
# evaluation (numpy 2.4.6): 81.64 MB.  Grouping may add at most one
# monomial's (values, gradients) at 100,000 points: 3 columns, 2.4 MB.
PARENT_SCAN_PEAK = 81.64e6
ONE_MONOMIAL = 100_000 * 3 * 8


def test_poincare_scan_memory_is_bounded():
    spec = MeasureSpec(filiform_kind(4), 1.0, 4.0)
    samples = sample(spec, 100_000, seed=5)
    fam = default_family(spec.kind, q=spec.q)
    peak = _traced_peak(lambda: inequalities.poincare_scan(spec, fam, samples))
    assert peak <= PARENT_SCAN_PEAK + ONE_MONOMIAL, f"peak {peak / 1e6:.2f} MB"


# tracemalloc peak of gaussian_calibration_gap(1_000_000, seed=5) while it
# held the whole (count, 14) basis and (count, 14, 2) gradients (numpy
# 2.4.6): 577 MB.  Built one jackknife block at a time it needs the points
# plus one block's arrays.
CALIBRATION_PEAK_BOUND = 100e6


def test_calibration_gap_memory_is_bounded():
    peak = _traced_peak(lambda: inequalities.gaussian_calibration_gap(1_000_000, seed=5))
    assert peak <= CALIBRATION_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB"


# Room for the k x k block sums and the context's own bookkeeping.
GALERKIN_SLACK = 0.25e6


def test_galerkin_holds_the_basis_and_one_member_series():
    # The degree-3 Engel basis costs its (m, k) values and (m, 2, k)
    # gradients plus the footprint of one member's evaluation; a list of
    # series stacked afterwards would hold the basis twice.
    kind = engel_kind()
    spec = MeasureSpec(kind, 1.0, 3.0)
    coords = normal_points(kind, 100_000)
    members = [
        monomial_member(kind, expts)
        for expts in weighted_monomial_exponents(kind, 3)
        if any(expts)
    ]
    one_member = max(
        _traced_peak(lambda: member.evaluate(MemberBatch(kind, coords)))
        for member in members
    )
    basis = coords.shape[0] * len(members) * 3 * 8
    samples = types.SimpleNamespace(coords=coords, seed=1)
    peak = _traced_peak(lambda: inequalities.spectral_gap_galerkin(spec, 3, samples))
    assert peak <= basis + one_member + GALERKIN_SLACK, (
        f"peak {peak / 1e6:.2f} MB, basis {basis / 1e6:.2f} MB, "
        f"one member {one_member / 1e6:.2f} MB"
    )
