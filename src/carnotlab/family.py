"""Test-function families with exact horizontal-frame gradients.

Members pair a vectorised value map with a closed-form horizontal gradient
(X_1 f, X_2 f) taken along the norm kind's natural frame.  The default
family combines:

  * monomials in the coordinates up to weighted degree 3 (the constant 1
    included; it pins the zero-gradient corner of the U-bound fit),
  * each monomial times a smooth radial bump chi(N / L0),
  * the radial profile N times the same bumps,
  * smooth tanh truncations of N at several scales,
  * central shifts of selected bump members along the top coordinate, and
  * dilation rescales of those shifts.

Gradients are assembled by the Leibniz and chain rules from coordinate
gradients and the norm's derivative table, so no finite differences enter
moment estimation.  Shifts use the central element (0, ..., 0, u): central
translations commute with both frames, making the shifted gradient the
shifted original gradient exactly.

Every member is defined once, by an `evaluate(batch) -> (values,
gradients)` on a `MemberBatch`: the per-batch context that computes the
norm N, its frame derivatives (X_1 N, X_2 N) and the bump factors once,
and holds one child context per moved batch (the central shifts and the
dilation of the rescales).  A family evaluated on one context therefore
computes each of those arrays once per batch, not once per member.  The
member's `value` and `gradient` maps are read off the same `evaluate`;
they stay replaceable fields, and a member built from bare maps is
evaluated through its maps.

A monomial and its bump products form one group (`TestFunction.monomial`).
`scan_members` evaluates a member list one group at a time: the context
holds the group's monomial series while the group runs and drops it when
the group ends, so each monomial is evaluated once per context and at most
one monomial's arrays are held at any time.  Members are pure functions of
the context, so only the evaluation order changes; results come back in
member order.

The family is mirror-symmetric: flipping the sign of x_1 maps every member
onto plus or minus another member, which keeps symmetry diagnostics exact.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .calculus import norm_derivative_tables, pair_length
from .group import _as_batch
from .norms import ENGEL, NormKind

BUMP_SCALES = (1.0, 2.0, 4.0)
TANH_SCALES = (1.0, 2.0, 4.0)
SHIFT_OFFSETS = (1.0, -1.0)
RESCALE_FACTOR = 2.0
TRAIN_TARGET = 50


class MemberBatch:
    """One point batch plus the arrays every member shares on it.

    N, (X_1 N, X_2 N) and the bump factors of each scale are computed on
    first use and then kept; `shifted` and `dilated` return child contexts
    on the moved batch, built once each.  Besides those, a context holds at
    most one monomial's (values, gradients), the last one evaluated on it,
    until `release`; so it costs a few columns per batch whatever the
    family size.  (X_1 N, X_2 N) comes from the norm table's
    first-derivative path, which builds no second-order piece.
    """

    def __init__(self, kind: NormKind, points: np.ndarray):
        self.kind = kind
        self.xb, _ = _as_batch(points, kind.group.dimension)
        self.table = norm_derivative_tables(kind)
        self._bumps: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._children: dict[tuple[str, float], MemberBatch] = {}
        self._held: tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray]] | None = None

    @cached_property
    def norm(self) -> np.ndarray:
        return self.table.value(self.xb)

    @cached_property
    def norm_first(self) -> np.ndarray:
        """(X_1 N, X_2 N), shape (m, 2)."""
        return self.table.first(self.xb)

    def bump(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """chi = bump(N / scale) and chi' = bump'(N / scale) / scale."""
        if scale not in self._bumps:
            t = self.norm / scale
            self._bumps[scale] = (_bump(t), _bump_prime(t) / scale)
        return self._bumps[scale]

    def monomial(
        self, expts: tuple[int, ...], compute: Callable[[], tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The series of the monomial x^expts: the held one if it is that
        monomial, else `compute()`, which then replaces it as the held one.
        Callers must not write to the arrays: the group's other members
        read them too."""
        if self._held is None or self._held[0] != expts:
            self._held = (expts, compute())
        return self._held[1]

    def release(self) -> None:
        """Drop the held monomial series here and in every child context."""
        self._held = None
        for child in self._children.values():
            child.release()

    def _child(self, key: tuple[str, float], move: Callable[[], np.ndarray]) -> MemberBatch:
        if key not in self._children:
            self._children[key] = MemberBatch(self.kind, move())
        return self._children[key]

    def shifted(self, offset: float) -> MemberBatch:
        """The batch x * (0, ..., 0, offset), which is x + offset e_top."""
        delta = np.zeros(self.kind.group.dimension)
        delta[-1] = offset
        return self._child(("shift", offset), lambda: self.xb + delta)

    def dilated(self, factor: float) -> MemberBatch:
        return self._child(("dilate", factor), lambda: self.kind.group.dilate(factor, self.xb))


Evaluate = Callable[[MemberBatch], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class _Derived:
    """The value map (part 0) or gradient map (part 1) of a member's evaluate.

    Takes a point array, or a `MemberBatch` to evaluate on a shared context.
    """

    evaluate: Evaluate
    kind: NormKind
    part: int

    def __call__(self, points) -> np.ndarray:
        batch = points if isinstance(points, MemberBatch) else MemberBatch(self.kind, points)
        return self.evaluate(batch)[self.part]


def _map_input(fn: Callable, batch: MemberBatch):
    """A derived map, also under pass-through wrappers that set
    `__wrapped__`, takes the context itself; any other map its points."""
    return batch if isinstance(inspect.unwrap(fn), _Derived) else batch.xb


@dataclass(frozen=True)
class TestFunction:
    """One member: value map plus exact frame-gradient map.

    `gradient` returns the pair (X_1 f, X_2 f) as an (m, 2) array for a
    batch of m points, using the same frame as the family's norm kind.
    """

    __test__ = False  # "Test" prefix is descriptive, not a pytest marker

    label: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    is_constant: bool = False
    tags: tuple[str, ...] = ()
    # Exponents of the monomial factor evaluated on the member's own
    # context: the members that share one form its evaluation group.
    monomial: tuple[int, ...] | None = None

    def evaluate(self, batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        """(values, gradients) on a batch context.

        One pass of the member's own evaluate while both maps are still the
        ones derived from it; otherwise one call of each map.
        """
        value, gradient = self.value, self.gradient
        if (
            isinstance(value, _Derived)
            and isinstance(gradient, _Derived)
            and value.evaluate is gradient.evaluate
        ):
            return value.evaluate(batch)
        return value(_map_input(value, batch)), gradient(_map_input(gradient, batch))


def _member(
    kind: NormKind,
    label: str,
    evaluate: Evaluate,
    tags: tuple[str, ...],
    is_constant: bool = False,
    monomial: tuple[int, ...] | None = None,
) -> TestFunction:
    return TestFunction(
        label=label,
        value=_Derived(evaluate, kind, 0),
        gradient=_Derived(evaluate, kind, 1),
        is_constant=is_constant,
        tags=tags,
        monomial=monomial,
    )


@dataclass(frozen=True)
class TestFunctionFamily:
    __test__ = False

    kind: NormKind
    q: float
    members: tuple[TestFunction, ...]
    train_indices: tuple[int, ...]
    holdout_indices: tuple[int, ...]
    description: str

    def __post_init__(self) -> None:
        overlap = set(self.train_indices) & set(self.holdout_indices)
        if overlap:
            raise ValueError(f"train/holdout overlap at indices {sorted(overlap)}")
        if not any(not m.is_constant for m in self.members):
            raise ValueError("family must contain nonconstant members")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def train_members(self) -> tuple[TestFunction, ...]:
        return tuple(self.members[i] for i in self.train_indices)

    @property
    def holdout_members(self) -> tuple[TestFunction, ...]:
        return tuple(self.members[i] for i in self.holdout_indices)


def weighted_monomial_exponents(kind: NormKind, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with weighted degree <= max_degree, constant first.

    Deterministic order: by weighted degree, then lexicographic.
    """
    weights = kind.group.weights
    d = len(weights)
    found: list[tuple[int, tuple[int, ...]]] = []

    def recurse(idx: int, remaining: int, current: list[int]) -> None:
        if idx == d:
            deg = sum(e * w for e, w in zip(current, weights))
            found.append((deg, tuple(current)))
            return
        max_e = remaining // weights[idx]
        for e in range(max_e + 1):
            current.append(e)
            recurse(idx + 1, remaining - e * weights[idx], current)
            current.pop()

    recurse(0, max_degree, [])
    found.sort()
    return [expts for _, expts in found]


def _monomial_label(expts: tuple[int, ...]) -> str:
    parts = []
    for k, e in enumerate(expts, start=1):
        if e == 1:
            parts.append(f"x{k}")
        elif e > 1:
            parts.append(f"x{k}^{e}")
    return "*".join(parts) if parts else "one"


def _coordinate_gradient(kind: NormKind, j: int, xb: np.ndarray) -> np.ndarray:
    """(X_1 x_j, X_2 x_j) for the kind's natural frame; j is 1-based."""
    # Typed out, not read from VectorField.coefficients: that cost 1.3-2.7 ms
    # against 27-166 us here per 30,000-point call.
    m = xb.shape[0]
    out = np.zeros((m, 2))
    if kind.variant == ENGEL:
        # Right frame: X_1 = d1 - x2 d3 - x3 d4, X_2 = d2.
        if j == 1:
            out[:, 0] = 1.0
        elif j == 2:
            out[:, 1] = 1.0
        elif j == 3:
            out[:, 0] = -xb[:, 1]
        elif j == 4:
            out[:, 0] = -xb[:, 2]
    else:
        # Left frame: X_1 = d1, X_2 = sum_k x1^(k-2)/(k-2)! dk.
        if j == 1:
            out[:, 0] = 1.0
        else:
            out[:, 1] = xb[:, 0] ** (j - 2) / factorial(j - 2)
    return out


def _monomial_series(
    kind: NormKind, active: list[tuple[int, int]], xb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values and frame gradient of prod x_k^e over the (k, e) in `active`."""
    m = xb.shape[0]
    vals = np.ones(m)
    for k, e in active:
        vals = vals * xb[:, k] ** e
    total = np.zeros((m, 2))
    for k, e in active:
        partial = np.full(m, float(e)) * xb[:, k] ** (e - 1)
        for kk, ee in active:
            if kk != k:
                partial = partial * xb[:, kk] ** ee
        total += partial[:, None] * _coordinate_gradient(kind, k + 1, xb)
    return vals, total


def monomial_member(kind: NormKind, expts: tuple[int, ...]) -> TestFunction:
    d = kind.group.dimension
    expts = tuple(expts) + (0,) * (d - len(expts))
    active = [(k, e) for k, e in enumerate(expts) if e > 0]

    def evaluate(batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        return batch.monomial(expts, lambda: _monomial_series(kind, active, batch.xb))

    return _member(
        kind, _monomial_label(expts), evaluate, ("monomial",), is_constant=not active,
        monomial=expts,
    )


def _bump(t: np.ndarray) -> np.ndarray:
    return np.exp(-(t**4))


def _bump_prime(t: np.ndarray) -> np.ndarray:
    return -4.0 * t**3 * np.exp(-(t**4))


def bump_product_member(kind: NormKind, base: TestFunction, scale: float) -> TestFunction:
    def evaluate(batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        base_vals, base_grads = base.evaluate(batch)
        chi, chi_p = batch.bump(scale)
        return base_vals * chi, (
            chi[:, None] * base_grads + (base_vals * chi_p)[:, None] * batch.norm_first
        )

    return _member(
        kind, f"{base.label}*bump{scale:g}", evaluate, ("bump",) + base.tags,
        monomial=base.monomial,
    )


def radial_bump_member(kind: NormKind, scale: float) -> TestFunction:
    def evaluate(batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        nval = batch.norm
        chi, _ = batch.bump(scale)
        # (nval * b') / scale, not nval * chi': the two differ where b' is
        # subnormal, and this order is the one the pinned digests record.
        factor = chi + nval * _bump_prime(nval / scale) / scale
        return nval * chi, factor[:, None] * batch.norm_first

    return _member(kind, f"N*bump{scale:g}", evaluate, ("radial", "bump"))


def tanh_truncation_member(kind: NormKind, scale: float) -> TestFunction:
    def evaluate(batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        th = np.tanh(batch.norm / scale)
        return scale * th, (1.0 - th**2)[:, None] * batch.norm_first

    return _member(kind, f"tanh{scale:g}", evaluate, ("truncation",))


def central_shift_member(kind: NormKind, base: TestFunction, offset: float) -> TestFunction:
    """f(x * c) with c = (0, ..., 0, offset) central.

    Central translations commute with both natural frames, so the shifted
    gradient is the original gradient evaluated at the shifted point.
    """

    def evaluate(batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        return base.evaluate(batch.shifted(offset))

    return _member(kind, f"{base.label}@top{offset:+g}", evaluate, ("shifted",) + base.tags)


def rescale_member(kind: NormKind, base: TestFunction, factor: float) -> TestFunction:
    """f(delta_factor x); horizontal gradients pick up one power of factor."""

    def evaluate(batch: MemberBatch) -> tuple[np.ndarray, np.ndarray]:
        vals, grads = base.evaluate(batch.dilated(factor))
        return vals, factor * grads

    return _member(kind, f"{base.label}|scale{factor:g}", evaluate, ("rescaled",) + base.tags)


def default_family(kind: NormKind, q: float) -> TestFunctionFamily:
    """The standard >= 70 member family with a fixed 50-train split.

    Holdout indices are every third member (index mod 3 == 2), which lands
    the constant member and the raw coordinates x1, x2 in training.
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    members: list[TestFunction] = []

    monomials = [
        monomial_member(kind, expts)
        for expts in weighted_monomial_exponents(kind, 3)
    ]
    members.extend(monomials)
    for scale in BUMP_SCALES:
        for mono in monomials:
            members.append(bump_product_member(kind, mono, scale))
    for scale in BUMP_SCALES:
        members.append(radial_bump_member(kind, scale))
    for scale in TANH_SCALES:
        members.append(tanh_truncation_member(kind, scale))

    shift_bases = [
        bump_product_member(kind, monomial_member(kind, (1,)), 2.0),
        bump_product_member(kind, monomial_member(kind, (0, 1)), 2.0),
        tanh_truncation_member(kind, 2.0),
    ]
    shifted = [
        central_shift_member(kind, base, offset)
        for base in shift_bases
        for offset in SHIFT_OFFSETS
    ]
    members.extend(shifted)
    members.extend(rescale_member(kind, m, RESCALE_FACTOR) for m in shifted)

    total = len(members)
    holdout = tuple(i for i in range(total) if i % 3 == 2)
    train = tuple(i for i in range(total) if i % 3 != 2)
    if len(train) > TRAIN_TARGET:
        # Move surplus training members to holdout, keeping determinism.
        surplus = len(train) - TRAIN_TARGET
        moved = train[-surplus:]
        train = train[:-surplus]
        holdout = tuple(sorted(holdout + moved))
    return TestFunctionFamily(
        kind=kind,
        q=q,
        members=tuple(members),
        train_indices=train,
        holdout_indices=holdout,
        description=(
            f"monomials deg<=3 with bumps {BUMP_SCALES}, radial bumps, "
            f"tanh truncations {TANH_SCALES}, central shifts and rescales "
            f"({total} members)"
        ),
    )


def member_series(
    member: TestFunction, batch: MemberBatch, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values f and |grad f|^q of one member on a batch context.

    The one place members are evaluated for moment statistics: each call
    is one `TestFunction.evaluate` on the shared context.
    """
    vals, grads = member.evaluate(batch)
    return vals, pair_length(grads) ** q


def scan_members(
    members: Sequence[TestFunction],
    batch: MemberBatch,
    fn: Callable[[TestFunction, MemberBatch], object],
) -> list:
    """fn(member, batch) for every member, one monomial group at a time.

    Members sharing a `monomial` run together, in member order within the
    group and the groups in order of first appearance; every other member
    is a group of its own.  The context releases its held monomial after
    each group.  Results come back in member order.
    """
    groups: dict[object, list[int]] = {}
    for i, member in enumerate(members):
        key = ("member", i) if member.monomial is None else member.monomial
        groups.setdefault(key, []).append(i)
    results = [None] * len(members)
    for indices in groups.values():
        for i in indices:
            results[i] = fn(members[i], batch)
        batch.release()
    return results
