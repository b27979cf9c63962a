"""Empirical sup/inf certification of the pointwise norm-derivative bounds.

The six ratios sit in one table, each built from the norm, its paired
seminorm, and its frame derivatives.  One driver, `verify_kind`, draws the
smooth region of one norm kind once, builds one derivative jet per chunk of
that draw, evaluates every requested ratio of the kind on it, and reports
each extreme value together with its witness point.  The CLI makes one
call per kind (three Engel ratios, three per filiform step); the public
`verify_*` functions are one call each for a single ratio or pair.

Ratios with an explicit target constant (the step-3 gradient bound
sqrt(5), the step-3 sub-Laplacian bound 7, and the two exact lower bounds
at 1) get a pass flag; the filiform upper-ratio constants are only
recorded, since no closed-form target exists, and for steps n >= 4 the
ratios genuinely diverge as the singular hyperplanes are approached (the
sampled sup then reflects the standoff, which the domain description
states).

Sampling follows a fixed design with no rejection step: a seeded bulk of
uniform points in [-box, box]^(n+1) whose singular coordinates are drawn
directly from [-box, -standoff] U [standoff, box], plus a deterministic
quasi-random shell batch per singular axis placed at distance exactly
`standoff`.  Bulk and shells share one affine map of [-box, box] onto that
admissible set, so every draw takes one pass whatever the standoff.
Extremes of these ratios concentrate near the singular set, so the
seed-independent shell pins the reported extremum and makes reruns with
different seeds agree closely; the seeded bulk explores the rest of the
box.  Reports are bit-identical for a fixed seed.

The shell batch is the unscrambled Halton sequence in the first d primes,
computed in-house (`_halton`) so that importing this module loads no part
of scipy; the tests check it bit-equal to scipy's
`qmc.Halton(d, scramble=False)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .calculus import NormJet, norm_derivative_tables
from .norms import NormKind, engel_kind, filiform_kind

DEFAULT_BOX = 5.0
DEFAULT_STANDOFF = 1e-2
SHELL_PER_AXIS = 4096
PASS_SLACK = 1e-9
RATIO_CHUNK = 8_192


class EmptyDomainError(ValueError):
    """Raised when no smooth sample points are available."""


@dataclass(frozen=True)
class BoundSpec:
    """Declarative description of one ratio bound.

    direction is "upper" (report the sup, pass if sup <= target) or "lower"
    (report the inf, pass if inf >= target); target None means record only.
    """

    name: str
    direction: str
    target: float | None
    tolerance: float = PASS_SLACK


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one empirical bound check."""

    name: str
    kind_variant: str
    step: int
    direction: str
    sample_count: int
    extremum: float
    arg_point: tuple[float, ...]
    target: float | None
    passed: bool | None
    domain: str
    seed: int


# The first 13 primes: a group has at most MAX_STEP + 1 = 13 coordinates.
_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _halton(d: int, count: int) -> np.ndarray:
    """First `count` points of the unscrambled Halton sequence in [0, 1)^d.

    Column k is the radical inverse of 0, 1, ..., count-1 in the k-th prime,
    accumulated digit by digit from the least significant one.
    """
    out = np.empty((count, d))
    for k, base in enumerate(_HALTON_BASES[:d]):
        seq, q, b2r = np.zeros(count), np.arange(count), 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            seq += digit * b2r
            b2r /= base
        out[:, k] = seq
    return out


def _shell_batch(
    kind: NormKind, axis: int, count: int, box: float, standoff: float
) -> np.ndarray:
    """Deterministic quasi-random points at |x_axis| = standoff exactly."""
    d = kind.group.dimension
    u = _halton(d, count)
    pts = -box + 2.0 * box * u
    # First quasi-random column doubles as the sign of the pinned axis.
    sign = np.where(u[:, axis] >= 0.5, 1.0, -1.0)
    _push_off_hyperplanes(pts, tuple(j for j in kind.singular_axes if j != axis), box, standoff)
    pts[:, axis] = sign * standoff
    return pts


def _push_off_hyperplanes(
    pts: np.ndarray, axes: tuple[int, ...], box: float, standoff: float
) -> None:
    """Map columns `axes` of points in [-box, box] into the admissible set, in place.

    c -> sgn(c) (standoff + |c| (box - standoff) / box) is affine on each
    half, so it sends the uniform law on [-box, box] to the uniform law on
    [-box, -standoff] U [standoff, box].
    """
    for j in axes:
        c = pts[:, j]
        s = np.where(c >= 0, 1.0, -1.0)
        pts[:, j] = s * (standoff + np.abs(c) * (box - standoff) / box)


def stratified_smooth_samples(
    kind: NormKind,
    count: int,
    seed: int,
    box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> np.ndarray:
    """Deterministic shell batches plus a seeded uniform bulk; `count` total.

    A standoff of at least the box half-width leaves no admissible point.
    """
    if standoff >= box:
        raise EmptyDomainError(f"standoff {standoff:g} is not below the box half-width {box:g}")
    if count < 1:
        raise EmptyDomainError("no smooth sample points generated")
    axes = kind.singular_axes
    shells = [
        _shell_batch(kind, j, min(SHELL_PER_AXIS, max(count // (4 * len(axes)), 16)), box, standoff)
        for j in axes
    ]
    # Shells beyond `count` are cut; the bulk fills what they leave of it.
    shell = np.concatenate(shells)[:count]
    out = np.empty((count, kind.group.dimension))
    out[: shell.shape[0]] = shell
    bulk = out[shell.shape[0] :]
    # Drawn straight into `out` a block at a time: the generator's stream does
    # not depend on the block sizes, and the whole draw is never held twice.
    rng = np.random.default_rng(seed)
    for i in range(0, bulk.shape[0], RATIO_CHUNK):
        block = bulk[i : i + RATIO_CHUNK]
        block[:] = rng.uniform(-box, box, size=block.shape)
    _push_off_hyperplanes(bulk, axes, box, standoff)
    return out


def _extremal_report(
    spec: BoundSpec,
    kind: NormKind,
    ratios: np.ndarray,
    pts: np.ndarray,
    rows: np.ndarray | None,
    seed: int,
    domain: str,
) -> BoundReport:
    """The extreme of `ratios`, the ratios of pts[rows] (of all of pts if rows is None)."""
    if spec.direction == "upper":
        idx = int(np.argmax(ratios))
        passed = None if spec.target is None else bool(ratios[idx] <= spec.target + spec.tolerance)
    else:
        idx = int(np.argmin(ratios))
        passed = None if spec.target is None else bool(ratios[idx] >= spec.target - spec.tolerance)
    witness = pts[idx if rows is None else rows[idx]]
    return BoundReport(
        name=spec.name,
        kind_variant=kind.variant,
        step=kind.group.step,
        direction=spec.direction,
        sample_count=int(ratios.size),
        extremum=float(ratios[idx]),
        arg_point=tuple(float(c) for c in witness),
        target=spec.target,
        passed=passed,
        domain=domain,
        seed=seed,
    )


_FILIFORM_NOTE = "recorded sup is standoff-dependent for n >= 4"

# One row per bound: its spec (the name may hold {n}, the step), its ratio
# as (norm jet of a point chunk, the chunk, n) -> values, the axis whose
# points with |x_axis| <= 1e-8 are dropped because the ratio divides by
# |x_axis| (None keeps every point), and a note appended to the domain text.
_Ratio = Callable[[NormJet, np.ndarray, int], np.ndarray]
_BOUNDS: dict[str, tuple[BoundSpec, _Ratio, int | None, str]] = {
    "engel-gradient": (
        BoundSpec("engel-gradient-sup", "upper", math.sqrt(5.0)),
        lambda t, x, n: t.gradient_norm * t.value ** 2 / t.seminorm ** 2,
        None, "",
    ),
    "engel-laplacian": (
        BoundSpec("engel-laplacian-sup", "upper", 7.0),
        lambda t, x, n: t.laplacian * t.value ** 2 / t.seminorm,
        None, "",
    ),
    "engel-x2-lower": (
        BoundSpec("engel-x2-lower", "lower", 1.0, tolerance=1e-12),
        lambda t, x, n: (
            np.abs(t.first[:, 1]) * t.value ** 2 / (t.seminorm * np.abs(x[:, 1]))
        ),
        1, "points with |x_2| <= 1e-8 excluded",
    ),
    "filiform-gradient": (
        BoundSpec("filiform-gradient-sup-n{n}", "upper", None),
        lambda t, x, n: t.gradient_norm * t.value ** (n - 1) / t.seminorm ** (n - 1),
        None, _FILIFORM_NOTE,
    ),
    "filiform-laplacian": (
        BoundSpec("filiform-laplacian-sup-n{n}", "upper", None),
        lambda t, x, n: t.laplacian * t.value ** (n - 1) / t.seminorm ** (n - 2),
        None, _FILIFORM_NOTE,
    ),
    "filiform-x1-lower": (
        BoundSpec("filiform-x1-lower-n{n}", "lower", 1.0),
        lambda t, x, n: (
            np.abs(t.first[:, 0])
            * t.value ** (n - 1)
            / (t.seminorm * np.abs(x[:, 0])) ** ((n - 1) / 2.0)
        ),
        0, "points with |x_1| <= 1e-8 excluded",
    ),
}


def verify_kind(
    kind: NormKind, keys: tuple[str, ...], samples: int, seed: int, box: float,
    standoff: float,
) -> list[BoundReport]:
    """One report per `_BOUNDS` key, from one draw and one derivative table.

    Every key's ratio is evaluated on the whole draw, one `NormJet` per
    chunk of `RATIO_CHUNK` rows, so the norm, seminorm and frame derivatives
    are computed once for all keys of the kind while the chunk's jet sits in
    cache; ratios are row-wise, so the chunk size moves no bit.  They go
    into one (keys, samples) array.  Only then does a key with an axis keep
    the rows with |x_axis| > 1e-8 (its ratio divides by |x_axis|), and its
    extreme is taken over those rows' ratios; the draw is never copied.  A
    key left with no point raises `EmptyDomainError`.
    """
    n = kind.group.step
    table = norm_derivative_tables(kind)
    pts = stratified_smooth_samples(kind, samples, seed, box, standoff)
    domain = (
        f"box [-{box:g},{box:g}]^{kind.group.dimension}, smooth region with hyperplane "
        f"standoff {standoff:g}, deterministic shell batches at the standoff"
    )
    ratios = np.empty((len(keys), pts.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, pts.shape[0], RATIO_CHUNK):
            chunk = pts[i : i + RATIO_CHUNK]
            jet = table.jet(chunk)
            for key, row in zip(keys, ratios):
                row[i : i + RATIO_CHUNK] = _BOUNDS[key][1](jet, chunk, n)
    reports = []
    for key, values in zip(keys, ratios):
        spec, _, axis, note = _BOUNDS[key]
        spec = replace(spec, name=spec.name.format(n=n))
        rows = None
        if axis is not None:
            rows = np.flatnonzero(np.abs(pts[:, axis]) > 1e-8)
            values = values[rows]
        if values.size == 0:
            raise EmptyDomainError(f"no admissible samples for bound {spec.name}")
        reports.append(_extremal_report(
            spec, kind, values, pts, rows, seed, f"{domain}; {note}" if note else domain
        ))
    return reports


def verify_engel_gradient_bound(
    samples: int = 1_000_000, seed: int = 0, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> BoundReport:
    """sup |grad N| N^2 / |x|^2 over smooth samples; target sqrt(5)."""
    return verify_kind(engel_kind(), ("engel-gradient",), samples, seed, box, standoff)[0]


def verify_engel_laplacian_bound(
    samples: int = 1_000_000, seed: int = 0, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> BoundReport:
    """sup (Delta N) N^2 / |x| over smooth samples; target 7 (upper only)."""
    return verify_kind(engel_kind(), ("engel-laplacian",), samples, seed, box, standoff)[0]


def verify_engel_x2_lower(
    samples: int = 1_000_000, seed: int = 0, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> BoundReport:
    """inf |X_2 N| N^2 / (|x| |x_2|), an exact cancellation equal to 1."""
    return verify_kind(engel_kind(), ("engel-x2-lower",), samples, seed, box, standoff)[0]


def verify_filiform_bounds(
    n: int, samples: int = 1_000_000, seed: int = 0, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> tuple[BoundReport, BoundReport]:
    """Recorded sups of the filiform gradient and sub-Laplacian ratios.

    Returns (gradient report, laplacian report).  No numeric target exists;
    the reports record the empirical constants over the sampled set.  For
    n >= 4 the true sups over the whole smooth region are infinite (negative
    powers of |x_j| survive in the derivatives), so the recorded values are
    standoff-dependent by design.
    """
    keys = ("filiform-gradient", "filiform-laplacian")
    return tuple(verify_kind(filiform_kind(n), keys, samples, seed, box, standoff))


def verify_filiform_x1_lower(
    n: int, samples: int = 1_000_000, seed: int = 0, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> BoundReport:
    """inf |X_1 N| N^(n-1) / (seminorm |x_1|)^((n-1)/2); at least 1.

    The ratio reduces to sum_j t_j^a / (sum_j t_j)^a with a = (n-1)/(2n) < 1,
    so the power-sum inequality forces it >= 1 with equality only when a
    single summand survives.
    """
    return verify_kind(filiform_kind(n), ("filiform-x1-lower",), samples, seed, box, standoff)[0]
