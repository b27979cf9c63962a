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

The family is mirror-symmetric: flipping the sign of x_1 maps every member
onto plus or minus another member, which keeps symmetry diagnostics exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .calculus import NormDerivativeTable, norm_derivative_tables
from .group import _as_batch
from .norms import ENGEL, NormKind

BUMP_SCALES = (1.0, 2.0, 4.0)
TANH_SCALES = (1.0, 2.0, 4.0)
SHIFT_OFFSETS = (1.0, -1.0)
RESCALE_FACTOR = 2.0
TRAIN_TARGET = 50


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


def monomial_member(kind: NormKind, expts: tuple[int, ...]) -> TestFunction:
    d = kind.group.dimension
    expts = tuple(expts) + (0,) * (d - len(expts))
    active = [(k, e) for k, e in enumerate(expts) if e > 0]

    def value(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        out = np.ones(xb.shape[0])
        for k, e in active:
            out = out * xb[:, k] ** e
        return out

    def gradient(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        total = np.zeros((xb.shape[0], 2))
        for k, e in active:
            partial = np.full(xb.shape[0], float(e)) * xb[:, k] ** (e - 1)
            for kk, ee in active:
                if kk != k:
                    partial = partial * xb[:, kk] ** ee
            total += partial[:, None] * _coordinate_gradient(kind, k + 1, xb)
        return total

    return TestFunction(
        label=_monomial_label(expts),
        value=value,
        gradient=gradient,
        is_constant=not active,
        tags=("monomial",),
    )


def _bump(t: np.ndarray) -> np.ndarray:
    return np.exp(-(t**4))


def _bump_prime(t: np.ndarray) -> np.ndarray:
    return -4.0 * t**3 * np.exp(-(t**4))


def bump_product_member(
    kind: NormKind, base: TestFunction, table: NormDerivativeTable, scale: float
) -> TestFunction:
    d = kind.group.dimension

    def value(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        return base.value(xb) * _bump(table.value(xb) / scale)

    def gradient(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        nval = table.value(xb)
        chi = _bump(nval / scale)
        chi_p = _bump_prime(nval / scale) / scale
        grad_n = table.first(xb)
        return (
            chi[:, None] * base.gradient(xb)
            + (base.value(xb) * chi_p)[:, None] * grad_n
        )

    return TestFunction(
        label=f"{base.label}*bump{scale:g}",
        value=value,
        gradient=gradient,
        tags=("bump",) + base.tags,
    )


def radial_bump_member(
    kind: NormKind, table: NormDerivativeTable, scale: float
) -> TestFunction:
    d = kind.group.dimension

    def value(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        nval = table.value(xb)
        return nval * _bump(nval / scale)

    def gradient(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        nval = table.value(xb)
        factor = _bump(nval / scale) + nval * _bump_prime(nval / scale) / scale
        return factor[:, None] * table.first(xb)

    return TestFunction(
        label=f"N*bump{scale:g}",
        value=value,
        gradient=gradient,
        tags=("radial", "bump"),
    )


def tanh_truncation_member(
    kind: NormKind, table: NormDerivativeTable, scale: float
) -> TestFunction:
    d = kind.group.dimension

    def value(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        return scale * np.tanh(table.value(xb) / scale)

    def gradient(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        th = np.tanh(table.value(xb) / scale)
        return (1.0 - th**2)[:, None] * table.first(xb)

    return TestFunction(
        label=f"tanh{scale:g}",
        value=value,
        gradient=gradient,
        tags=("truncation",),
    )


def central_shift_member(kind: NormKind, base: TestFunction, offset: float) -> TestFunction:
    """f(x * c) with c = (0, ..., 0, offset) central.

    Central translations commute with both natural frames, so the shifted
    gradient is the original gradient evaluated at the shifted point.
    """
    d = kind.group.dimension
    delta = np.zeros(d)
    delta[-1] = offset

    def value(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        return base.value(xb + delta)

    def gradient(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        return base.gradient(xb + delta)

    return TestFunction(
        label=f"{base.label}@top{offset:+g}",
        value=value,
        gradient=gradient,
        tags=("shifted",) + base.tags,
    )


def rescale_member(kind: NormKind, base: TestFunction, factor: float) -> TestFunction:
    """f(delta_factor x); horizontal gradients pick up one power of factor."""
    d = kind.group.dimension
    group = kind.group

    def value(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        return base.value(group.dilate(factor, xb))

    def gradient(X: np.ndarray) -> np.ndarray:
        xb, _ = _as_batch(X, d)
        return factor * base.gradient(group.dilate(factor, xb))

    return TestFunction(
        label=f"{base.label}|scale{factor:g}",
        value=value,
        gradient=gradient,
        tags=("rescaled",) + base.tags,
    )


def default_family(kind: NormKind, q: float) -> TestFunctionFamily:
    """The standard >= 70 member family with a fixed 50-train split.

    Holdout indices are every third member (index mod 3 == 2), which lands
    the constant member and the raw coordinates x1, x2 in training.
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    table = norm_derivative_tables(kind)
    members: list[TestFunction] = []

    monomials = [
        monomial_member(kind, expts)
        for expts in weighted_monomial_exponents(kind, 3)
    ]
    members.extend(monomials)
    for scale in BUMP_SCALES:
        for mono in monomials:
            members.append(bump_product_member(kind, mono, table, scale))
    for scale in BUMP_SCALES:
        members.append(radial_bump_member(kind, table, scale))
    for scale in TANH_SCALES:
        members.append(tanh_truncation_member(kind, table, scale))

    shift_bases = [
        bump_product_member(kind, monomial_member(kind, (1,)), table, 2.0),
        bump_product_member(kind, monomial_member(kind, (0, 1)), table, 2.0),
        tanh_truncation_member(kind, table, 2.0),
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
    member: TestFunction, xb: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values f and |grad f|^q of one member on a point batch.

    The one place members are evaluated for moment statistics: each call
    makes one `value` and one `gradient` call.
    """
    vals = member.value(xb)
    grads = member.gradient(xb)
    return vals, np.sqrt(np.sum(grads**2, axis=-1)) ** q


@dataclass(frozen=True)
class FamilyAudit:
    """Empirical finiteness audit of the family's q-moments."""

    labels: tuple[str, ...]
    value_moments: tuple[float, ...]
    gradient_moments: tuple[float, ...]
    all_finite: bool


def family_audit(family: TestFunctionFamily, coords: np.ndarray) -> FamilyAudit:
    """Evaluate mu(|f|^q) and mu(|grad f|^q) per member on the given points."""
    xb, _ = _as_batch(coords, family.kind.group.dimension)
    q = family.q
    labels = []
    vmoms = []
    gmoms = []
    ok = True
    for member in family.members:
        vals, gmag = member_series(member, xb, q)
        vm = float(np.mean(np.abs(vals) ** q))
        gm = float(np.mean(gmag))
        ok = ok and np.isfinite(vm) and np.isfinite(gm)
        labels.append(member.label)
        vmoms.append(vm)
        gmoms.append(gm)
    return FamilyAudit(
        labels=tuple(labels),
        value_moments=tuple(vmoms),
        gradient_moments=tuple(gmoms),
        all_finite=bool(ok),
    )
