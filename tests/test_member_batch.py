"""The per-batch member context: shared arrays, moved children, replaced maps."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from carnotlab.family import MemberBatch, TestFunction, default_family, member_series
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
