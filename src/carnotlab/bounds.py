"""Empirical sup/inf certification of the pointwise norm-derivative bounds.

The six ratios sit in one table, each built from the norm, its paired
seminorm, and its frame derivatives.  One driver, `verify_kind`, walks one
draw of the smooth region of one norm kind chunk by chunk, builds one
derivative jet per chunk, evaluates every requested ratio of the kind on
it, and folds each ratio's extreme value and witness point over the
chunks, so no array as long as the draw is ever held.  The CLI makes one
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
admissible set, so every draw takes one pass whatever the standoff, and
the bulk is drawn one chunk at a time (`smooth_sample_chunks`).
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
from dataclasses import dataclass
from typing import Callable, Iterator

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


def smooth_sample_chunks(
    kind: NormKind, count: int, seed: int, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> Iterator[np.ndarray]:
    """Deterministic shell batches plus a seeded uniform bulk; `count` rows in all.

    Yields rows [i, i + RATIO_CHUNK) of that draw for i = 0, RATIO_CHUNK, ...:
    the shells first, then the bulk, each chunk's bulk rows drawn and pushed
    off the hyperplanes when it is yielded.  The generator's stream does not
    depend on the chunk sizes, so only the shells (at most SHELL_PER_AXIS
    rows per axis) and one chunk are ever held.  A standoff of at least the
    box half-width leaves no admissible point.
    """
    if standoff >= box:
        raise EmptyDomainError(f"standoff {standoff:g} is not below the box half-width {box:g}")
    if count < 1:
        raise EmptyDomainError("no smooth sample points generated")
    axes = kind.singular_axes
    per_axis = min(SHELL_PER_AXIS, max(count // (4 * len(axes)), 16))
    # Shells beyond `count` are cut; the bulk fills what they leave of it.
    shell = np.concatenate([_shell_batch(kind, j, per_axis, box, standoff) for j in axes])[:count]
    rng = np.random.default_rng(seed)
    for lo in range(0, count, RATIO_CHUNK):
        chunk = np.empty((min(RATIO_CHUNK, count - lo), kind.group.dimension))
        head = shell[lo : lo + RATIO_CHUNK]
        chunk[: head.shape[0]] = head
        bulk = chunk[head.shape[0] :]
        bulk[:] = rng.uniform(-box, box, size=bulk.shape)
        _push_off_hyperplanes(bulk, axes, box, standoff)
        yield chunk


def stratified_smooth_samples(
    kind: NormKind, count: int, seed: int, box: float = DEFAULT_BOX,
    standoff: float = DEFAULT_STANDOFF,
) -> np.ndarray:
    """The whole draw of `smooth_sample_chunks` as one (count, d) array."""
    return np.concatenate(list(smooth_sample_chunks(kind, count, seed, box, standoff)))


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
    """One report per `_BOUNDS` key, from one pass over one draw.

    Each `smooth_sample_chunks` chunk gets one `NormJet`, so the norm,
    seminorm and frame derivatives are computed once for all keys of the
    kind while the chunk's jet sits in cache; ratios are row-wise, so the
    chunk size moves no bit.  A key with an axis keeps the chunk's rows with
    |x_axis| > 1e-8 (its ratio divides by |x_axis|).  Each key folds its row
    count, extreme and witness point over the chunks by the rules of
    np.argmax/np.argmin on the whole draw: the first index wins a tie and
    the first NaN wins over everything.  So memory does not grow with
    `samples`.  A key left with no point raises `EmptyDomainError`.
    """
    n = kind.group.step
    table = norm_derivative_tables(kind)
    entries = [_BOUNDS[key] for key in keys]
    folds = [[0, None, None] for _ in keys]  # row count, extreme, witness point
    with np.errstate(divide="ignore", invalid="ignore"):
        for chunk in smooth_sample_chunks(kind, samples, seed, box, standoff):
            jet = table.jet(chunk)
            for (spec, ratio, axis, _), fold in zip(entries, folds):
                values, rows = ratio(jet, chunk, n), None
                if axis is not None:
                    rows = np.flatnonzero(np.abs(chunk[:, axis]) > 1e-8)
                    values = values[rows]
                fold[0] += values.size
                if values.size == 0:
                    continue
                upper = spec.direction == "upper"
                idx = int(np.argmax(values) if upper else np.argmin(values))
                new, old = values[idx], fold[1]
                if old is None or not np.isnan(old) and (
                    np.isnan(new) or (new > old if upper else new < old)
                ):
                    fold[1], fold[2] = new, chunk[idx if rows is None else rows[idx]].copy()
    domain = (
        f"box [-{box:g},{box:g}]^{kind.group.dimension}, smooth region with hyperplane "
        f"standoff {standoff:g}, deterministic shell batches at the standoff"
    )
    reports = []
    for (spec, _, _, note), (count, extremum, witness) in zip(entries, folds):
        name = spec.name.format(n=n)
        if count == 0:
            raise EmptyDomainError(f"no admissible samples for bound {name}")
        passed = None if spec.target is None else bool(
            extremum <= spec.target + spec.tolerance if spec.direction == "upper"
            else extremum >= spec.target - spec.tolerance
        )
        reports.append(BoundReport(
            name=name, kind_variant=kind.variant, step=n, direction=spec.direction,
            sample_count=count, extremum=float(extremum),
            arg_point=tuple(float(c) for c in witness), target=spec.target, passed=passed,
            domain=f"{domain}; {note}" if note else domain, seed=seed,
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
