"""Empirical functional-inequality checks for the Gibbs measures.

Six pipelines, all Monte Carlo over shared immutable sample batches with
batch-means standard errors (50 batches):

  * `ubound_fit`: per-function moments (A, B, C) = (mu(|f|^q w), mu(|grad
    f|^q), mu(|f|^q)) with weight w = N^(p-n) |||x|||^n, then the
    two-variable feasibility A_f <= C_coef * B_f + D_coef * C_f solved by
    vertex enumeration, validated on holdout members with fresh samples.
  * `poincare_scan`: ratios mu(|f - mu f|^q) / mu(|grad f|^q), the training
    sup, a 1.1x candidate constant, and an independent holdout validation.
  * `ball_poincare_check`: the same ratios for exponent s under the uniform
    measure on the unit norm ball, drawn in homogeneous polar coordinates;
    the ball of radius r has sup r^s times the unit ball's.
  * `localization_decomposition`: exact three-indicator split of
    mu(|f - m|^q) with the Chebyshev bound on the far region and the shift
    consistency of the intermediate region.
  * `translation_trick_check`: pointwise shift inequalities on the annular
    region {|||x|||^n <= R, Norm >= L}; these must hold for every sample.
  * `spectral_gap_galerkin`: variational upper bound for the 2-spectral gap
    from a monomial basis, with an exact-sampler Gaussian calibration mode;
    its pencil eigenvalue is LAPACK's, called through scipy's compiled
    `_flapack` without importing scipy.linalg.

Reports are plain frozen dataclasses.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .extensions import load_extension
from .family import (
    MemberBatch,
    TestFunction,
    TestFunctionFamily,
    member_series,
    monomial_member,
    scan_members,
    weighted_monomial_exponents,
)
from .measures import MeasureSpec, SampleBatch, batch_mean_se, cone_samples, sample
from .norms import ENGEL, NormKind, aux_seminorm, norm_value
from .seeding import derive_rng

HOLDOUT_MARGIN = 1.05
CANDIDATE_FACTOR = 1.1
SE_SLACK = 3.0
EXCLUSION_SE_FACTOR = 10.0


class ConditioningError(RuntimeError):
    """A Galerkin matrix is numerically singular at this sample size."""


class InfeasibleFitError(RuntimeError):
    """The U-bound feasibility problem has contradictory constraints."""


def _require_kind(kind: NormKind, other: NormKind, what: str) -> None:
    """ValueError unless `other`, the norm kind of `what`, is `kind`."""
    if other != kind:
        raise ValueError(f"{what} is built on {other}, the measure on {kind}")


def ubound_weight(spec: MeasureSpec, batch: MemberBatch) -> np.ndarray:
    """w(x) = N^(p-n) * |||x|||^n on the batch, the U-bound right-hand weight."""
    n = spec.kind.group.step
    return batch.norm ** (spec.p - n) * aux_seminorm(spec.kind, batch.xb) ** n


@dataclass(frozen=True)
class FunctionMoments:
    label: str
    a: float
    a_se: float
    b: float
    b_se: float
    c: float
    c_se: float


@dataclass(frozen=True)
class HoldoutCheck:
    label: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class UBoundReport:
    spec_kind: str
    step: int
    a_coef: float
    p: float
    q: float
    train: tuple[FunctionMoments, ...]
    fitted_c: float
    fitted_d: float
    feasible: bool
    holdout: tuple[HoldoutCheck, ...]
    holdout_pass: bool
    train_seed: int
    holdout_seed: int


def _holdout_batch(
    spec: MeasureSpec, samples: SampleBatch, holdout_count: int | None, label: str
) -> tuple[SampleBatch, int]:
    """A fresh batch for holdout members and its seed.

    The seed is derived from the training batch's seed under `label`; the
    count defaults to the training batch's.
    """
    count = holdout_count or samples.coords.shape[0]
    holdout_seed = int(derive_rng(samples.seed, label).integers(2**31))
    return sample(spec, count, seed=holdout_seed), holdout_seed


def _fit_vertex_lp(
    constraints: list[tuple[str, float, float, float]],
) -> tuple[float, float]:
    """min C + D subject to A_i <= C*B_i + D*C_i, C, D >= 0.

    Two unknowns: the optimum sits where two constraints are active or one
    constraint meets an axis, so enumerate those vertices and keep the best
    feasible one.  The feasible set is upward closed, which the caller's
    sanity test exploits.
    """
    rows = [(a, b, c) for _, a, b, c in constraints]
    scale = max(1.0, max(abs(a) for a, _, _ in rows))
    tol = 1e-9 * scale

    for label, a, b, c in constraints:
        if a > tol and b <= tol / scale and c <= tol / scale:
            raise InfeasibleFitError(
                f"constraint for {label!r} needs A <= 0 but A = {a:.3e}"
            )

    candidates = [(0.0, 0.0)]
    for a, b, c in rows:
        if b > 0:
            candidates.append((a / b, 0.0))
        if c > 0:
            candidates.append((0.0, a / c))
    for i in range(len(rows)):
        a1, b1, c1 = rows[i]
        for j in range(i + 1, len(rows)):
            a2, b2, c2 = rows[j]
            det = b1 * c2 - b2 * c1
            if abs(det) < 1e-14:
                continue
            cc = (a1 * c2 - a2 * c1) / det
            dd = (b1 * a2 - b2 * a1) / det
            if cc >= -1e-12 and dd >= -1e-12:
                candidates.append((max(cc, 0.0), max(dd, 0.0)))

    best = None
    for cc, dd in candidates:
        if all(a <= cc * b + dd * c + tol for a, b, c in rows):
            key = (cc + dd, cc)
            if best is None or key < best[0]:
                best = (key, (cc, dd))
    if best is None:
        raise InfeasibleFitError("no feasible vertex found")
    return best[1]


def ubound_fit(
    spec: MeasureSpec,
    family: TestFunctionFamily,
    samples: SampleBatch,
    holdout_count: int | None = None,
) -> UBoundReport:
    """Fit (C, D) on training members, validate on holdout with new samples.

    Holdout samples are drawn independently with a seed derived from the
    training batch's seed; each holdout member must satisfy the fitted
    inequality with multiplicative margin 1.05 plus 3 SE slack.
    """
    _require_kind(spec.kind, family.kind, "the family")
    q = spec.q
    train_batch = MemberBatch(spec.kind, samples.coords)
    train_weight = ubound_weight(spec, train_batch)

    def moments(member: TestFunction, batch: MemberBatch) -> FunctionMoments:
        vals, gq = member_series(member, batch, q)
        fq = np.abs(vals) ** q
        a, a_se = batch_mean_se(fq * train_weight)
        b, b_se = batch_mean_se(gq)
        c, c_se = batch_mean_se(fq)
        return FunctionMoments(member.label, a, a_se, b, b_se, c, c_se)

    train_stats = scan_members(family.train_members, train_batch, moments)
    del train_batch  # free its cached columns before the holdout draw
    fitted_c, fitted_d = _fit_vertex_lp([(fm.label, fm.a, fm.b, fm.c) for fm in train_stats])
    feasible = all(
        fm.a <= fitted_c * fm.b + fitted_d * fm.c + SE_SLACK * fm.a_se + 1e-9
        for fm in train_stats
    )

    fresh, holdout_seed = _holdout_batch(spec, samples, holdout_count, "ubound-holdout")
    holdout_batch = MemberBatch(spec.kind, fresh.coords)
    holdout_weight = ubound_weight(spec, holdout_batch)

    def check(member: TestFunction, batch: MemberBatch) -> HoldoutCheck:
        vals, gq = member_series(member, batch, q)
        fq = np.abs(vals) ** q
        fqw = fq * holdout_weight
        resid, resid_se = batch_mean_se(fqw - fitted_c * gq - fitted_d * fq)
        rhs_mean = float(np.mean(fitted_c * gq + fitted_d * fq))
        slack = (HOLDOUT_MARGIN - 1.0) * rhs_mean + SE_SLACK * resid_se
        return HoldoutCheck(
            label=member.label,
            lhs=float(np.mean(fqw)),
            rhs=rhs_mean,
            slack=slack,
            passed=resid <= slack,
        )

    checks = scan_members(family.holdout_members, holdout_batch, check)

    return UBoundReport(
        spec_kind=spec.kind.variant,
        step=spec.kind.group.step,
        a_coef=spec.a,
        p=spec.p,
        q=spec.q,
        train=tuple(train_stats),
        fitted_c=fitted_c,
        fitted_d=fitted_d,
        feasible=feasible,
        holdout=tuple(checks),
        holdout_pass=all(h.passed for h in checks),
        train_seed=samples.seed,
        holdout_seed=holdout_seed,
    )


@dataclass(frozen=True)
class RatioEntry:
    label: str
    ratio: float
    ratio_se: float


@dataclass(frozen=True)
class PoincareReport:
    q: float
    entries: tuple[RatioEntry, ...]
    excluded: tuple[str, ...]
    sup_ratio: float
    c0_candidate: float
    holdout: tuple[HoldoutCheck, ...]
    holdout_pass: bool
    regime_flag: bool
    train_seed: int
    holdout_seed: int


def _screened_series(
    members,
    batch: MemberBatch,
    q: float,
    excluded: list[str],
    stat: Callable[[str, np.ndarray, np.ndarray, float, float], object],
) -> list:
    """stat(label, |f - mu f|^q, |grad f|^q, b, b_se) per member, in member order.

    b is the batch-means gradient moment.  A member whose b sits within
    EXCLUSION_SE_FACTOR SE of zero, or is zero, is skipped and its label
    appended to `excluded`, in member order; the constant member lands
    here.  Members are evaluated one monomial group at a time.
    """

    def screen(member: TestFunction, context: MemberBatch):
        vals, grads = member_series(member, context, q)
        b, b_se = batch_mean_se(grads)
        if b <= EXCLUSION_SE_FACTOR * b_se or b == 0.0:
            return None
        return stat(member.label, np.abs(vals - np.mean(vals)) ** q, grads, b, b_se)

    kept = []
    for member, result in zip(members, scan_members(members, batch, screen)):
        if result is None:
            excluded.append(member.label)
        else:
            kept.append(result)
    return kept


def _ratio_entry(
    label: str, centered: np.ndarray, grads: np.ndarray, b: float, b_se: float
) -> RatioEntry:
    l, l_se = batch_mean_se(centered)
    ratio = l / b
    ratio_se = ratio * float(np.hypot(l_se / l if l > 0 else 0.0, b_se / b))
    return RatioEntry(label, ratio, ratio_se)


def _ratio_scan(
    members, batch: MemberBatch, q: float
) -> tuple[list[RatioEntry], list[str]]:
    """Ratios mu(|f - mu f|^q) / mu(|grad f|^q) and the excluded labels."""
    excluded: list[str] = []
    return _screened_series(members, batch, q, excluded, _ratio_entry), excluded


def poincare_scan(
    spec: MeasureSpec,
    family: TestFunctionFamily,
    samples: SampleBatch,
    holdout_count: int | None = None,
) -> PoincareReport:
    """Per-function Poincare ratios, training sup, holdout validation.

    Members whose gradient moment sits within 10 SE of zero are excluded
    from ratios (the constant member lands here).  The candidate constant
    is 1.1 times the training sup; holdout members must satisfy
    lhs <= c0 * rhs within 3 SE on independently drawn samples.
    """
    _require_kind(spec.kind, family.kind, "the family")
    q = spec.q
    entries, excluded = _ratio_scan(
        family.train_members, MemberBatch(spec.kind, samples.coords), q
    )
    if not entries:
        raise ValueError("every training member was excluded")
    sup_ratio = max(e.ratio for e in entries)
    c0 = CANDIDATE_FACTOR * sup_ratio

    fresh, holdout_seed = _holdout_batch(spec, samples, holdout_count, "poincare-holdout")

    def check(label: str, centered: np.ndarray, grads: np.ndarray, b: float, _) -> HoldoutCheck:
        resid, resid_se = batch_mean_se(centered - c0 * grads)
        return HoldoutCheck(
            label=label,
            lhs=float(np.mean(centered)),
            rhs=c0 * b,
            slack=SE_SLACK * resid_se,
            passed=resid <= SE_SLACK * resid_se,
        )

    checks = _screened_series(
        family.holdout_members, MemberBatch(spec.kind, fresh.coords), q, excluded, check
    )

    return PoincareReport(
        q=q,
        entries=tuple(entries),
        excluded=tuple(excluded),
        sup_ratio=sup_ratio,
        c0_candidate=c0,
        holdout=tuple(checks),
        holdout_pass=all(h.passed for h in checks),
        regime_flag=not spec.meets_theorem_threshold,
        train_seed=samples.seed,
        holdout_seed=holdout_seed,
    )


@dataclass(frozen=True)
class BallPoincareReport:
    kind_variant: str
    step: int
    exponent: float
    entries: tuple[RatioEntry, ...]
    excluded: tuple[str, ...]
    sup_ratio: float
    sample_count: int
    acceptance_rate: float
    seed: int


def uniform_ball_samples(kind: NormKind, count: int, seed: int) -> tuple[np.ndarray, float]:
    """Uniform samples from the unit norm ball {N <= 1}.

    The ball {N <= s} has volume s^Q |B_1|, so delta_{U^(1/Q)} Theta with U
    uniform on [0, 1] and Theta from `cone_samples` is uniform on B_1.
    The returned rate is the cone sampler's envelope acceptance.
    """
    theta, acc = cone_samples(kind, count, derive_rng(seed, "ball", "shape"))
    u = derive_rng(seed, "ball", "radius").random(count)
    radii = u ** (1.0 / kind.group.homogeneous_dimension)
    return theta * radii[:, None] ** np.array(kind.group.weights, dtype=np.float64), acc


def ball_poincare_check(
    kind: NormKind,
    exponent: float,
    family: TestFunctionFamily,
    count: int,
    seed: int,
) -> BallPoincareReport:
    """Poincare ratios under the uniform measure on the unit norm ball.

    Every other radius follows by dilation: delta_r maps the uniform
    measure on B_1 onto the one on B_r, and the ratio of f on B_r is r^s
    times the ratio of f o delta_r on B_1 (s the exponent), so the family
    carried to B_r (each f o delta_(1/r)) has sup r^s `sup_ratio` there.
    The norm ball stands in for the metric ball through the norm-distance
    equivalence band; no numeric target exists for the constant, so the
    sup ratio is recorded as an empirical lower bound only.
    """
    _require_kind(kind, family.kind, "the family")
    coords, acc = uniform_ball_samples(kind, count, seed)
    entries, excluded = _ratio_scan(family.members, MemberBatch(kind, coords), exponent)
    if not entries:
        raise ValueError("every member was excluded in the ball check")
    return BallPoincareReport(
        kind_variant=kind.variant,
        step=kind.group.step,
        exponent=exponent,
        entries=tuple(entries),
        excluded=tuple(excluded),
        sup_ratio=max(e.ratio for e in entries),
        sample_count=count,
        acceptance_rate=acc,
        seed=seed,
    )


@dataclass(frozen=True)
class LocalizationParams:
    """Region parameters for the three-way splitting of mu(|f - m|^q).

    The shift element is pinned by the kind: (0, 2 R^(1/3), 0, 0) composed
    on the left for the Engel kind, (2 R^(1/n), 0, ..., 0) composed on the
    right for the filiform kinds.
    """

    kind: NormKind
    radius_r: float
    level_l: float

    def __post_init__(self) -> None:
        if self.radius_r <= 0:
            raise ValueError("R must be positive")
        if self.level_l <= 1:
            raise ValueError("L must exceed 1")

    def shift_element(self) -> np.ndarray:
        h = np.zeros(self.kind.group.dimension)
        h[self.kind.aux_axis] = 2.0 * self.radius_r ** (1.0 / self.kind.group.step)
        return h

    def shift_margins(self, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """N(s) - N(x) and |||s||| - R^(1/n) per row x of xb, s its shifted point.

        The two shift claims say both margins are nonnegative on the annulus.
        """
        h = self.shift_element()
        group = self.kind.group
        shifted = group.compose(h, xb) if self.kind.variant == ENGEL else group.compose(xb, h)
        return (
            norm_value(self.kind, shifted) - norm_value(self.kind, xb),
            aux_seminorm(self.kind, shifted) - self.radius_r ** (1.0 / group.step),
        )


@dataclass(frozen=True)
class LocalizationReport:
    total: float
    term_far: float
    term_ball: float
    term_annulus: float
    partition_defect: float
    chebyshev_bound: float
    chebyshev_ok: bool
    envelope_bound: float
    region_fractions: tuple[float, float, float]
    ball_mean: float
    shift_claims_pass: bool
    degenerate_regions: tuple[str, ...]


def localization_decomposition(
    spec: MeasureSpec,
    member: TestFunction,
    params: LocalizationParams,
    samples: SampleBatch,
) -> LocalizationReport:
    """Split mu(|f - m|^q) over far / ball / annulus indicator regions.

    m is the empirical mean of f over the ball region {N <= L}.  The far
    region {|||x|||^n >= R} carries the Chebyshev bound with weight
    |||x|||^n, which holds exactly on shared samples; the annulus region
    A_{L,R} is re-checked against the translation-shift claims.
    """
    _require_kind(spec.kind, params.kind, "the localization")
    batch = MemberBatch(spec.kind, samples.coords)
    xb = batch.xb
    q = spec.q
    n = spec.kind.group.step
    aux_n = aux_seminorm(spec.kind, xb) ** n
    nval = batch.norm
    far = aux_n >= params.radius_r
    ball = (~far) & (nval <= params.level_l)
    annulus = (~far) & (nval > params.level_l)

    degenerate = tuple(
        name
        for name, mask in (("far", far), ("ball", ball), ("annulus", annulus))
        if int(mask.sum()) == 0
    )
    if degenerate:
        warnings.warn(
            f"localization regions with no samples: {', '.join(degenerate)}",
            UserWarning,
            stacklevel=2,
        )

    vals, _ = member.evaluate(batch)
    m_ball = float(np.mean(vals[ball])) if ball.any() else float(np.mean(vals))
    g = np.abs(vals - m_ball) ** q

    total = float(np.mean(g))
    term_far = float(np.mean(g * far))
    term_ball = float(np.mean(g * ball))
    term_annulus = float(np.mean(g * annulus))
    defect = abs(total - (term_far + term_ball + term_annulus))

    cheb = float(np.mean(g * aux_n)) / params.radius_r
    envelope = (
        float(np.mean(g * nval ** (spec.p - n) * aux_n)) / params.radius_r
    )

    norm_margin, aux_margin = params.shift_margins(xb[annulus])

    return LocalizationReport(
        total=total,
        term_far=term_far,
        term_ball=term_ball,
        term_annulus=term_annulus,
        partition_defect=defect,
        chebyshev_bound=cheb,
        chebyshev_ok=term_far <= cheb + 1e-12 * max(1.0, cheb),
        envelope_bound=envelope,
        region_fractions=(
            float(np.mean(far)),
            float(np.mean(ball)),
            float(np.mean(annulus)),
        ),
        ball_mean=m_ball,
        shift_claims_pass=bool(np.all(norm_margin >= -1e-12) and np.all(aux_margin >= -1e-12)),
        degenerate_regions=degenerate,
    )


@dataclass(frozen=True)
class TranslationReport:
    kind_variant: str
    step: int
    radius_r: float
    level_l: float
    sample_count: int
    norm_claim_passes: int
    aux_claim_passes: int
    all_pass: bool
    min_norm_margin: float
    min_aux_margin: float
    seed: int


def annulus_samples(
    kind: NormKind, radius_r: float, level_l: float, count: int, seed: int
) -> np.ndarray:
    """Rejection samples from A_{L,R} = {|||x|||^n <= R, Norm >= L}.

    The top coordinate is windowed to [L^n - R, 3 L^n] magnitudes, a slab
    that always intersects the region since Norm^n <= |||x|||^n + |top|.
    """
    n = kind.group.step
    d = kind.group.dimension
    rng = derive_rng(seed, "annulus-rejection")
    half = np.array(
        [radius_r ** (w / n) for w in kind.group.weights[:-1]] + [0.0]
    )
    top_hi = 3.0 * level_l**n
    rows = []
    kept = 0
    guard = 0
    while kept < count:
        block = max(4 * count, 1024)
        pts = rng.uniform(-1.0, 1.0, size=(block, d)) * half
        pts[:, -1] = rng.uniform(-top_hi, top_hi, size=block)
        mask = (aux_seminorm(kind, pts) ** n <= radius_r) & (
            norm_value(kind, pts) >= level_l
        )
        rows.append(pts[mask])
        kept += int(mask.sum())
        guard += 1
        if guard > 200 and kept == 0:
            raise ValueError("annulus region appears empty at these parameters")
    return np.concatenate(rows)[:count]


def translation_trick_check(
    kind: NormKind, radius_r: float, level_l: float, count: int, seed: int
) -> TranslationReport:
    """Verify both shift inequalities pointwise on annulus samples.

    Engel: with h = (0, 2 R^(1/3), 0, 0), the product h * x only moves x_2,
    pushing |x_2| past R^(1/3); filiform: x * h with h = (2 R^(1/n), 0, ...)
    only moves x_1.  Both leave the norm no smaller and force the scalar
    seminorm above R^(1/n).  These are set-level facts, so every sample
    must pass.
    """
    xb = annulus_samples(kind, radius_r, level_l, count, seed)
    params = LocalizationParams(kind=kind, radius_r=radius_r, level_l=level_l)
    norm_margin, aux_margin = params.shift_margins(xb)
    norm_passes = int(np.sum(norm_margin >= -1e-12))
    aux_passes = int(np.sum(aux_margin >= -1e-12))
    return TranslationReport(
        kind_variant=kind.variant,
        step=kind.group.step,
        radius_r=radius_r,
        level_l=level_l,
        sample_count=xb.shape[0],
        norm_claim_passes=norm_passes,
        aux_claim_passes=aux_passes,
        all_pass=norm_passes == xb.shape[0] and aux_passes == xb.shape[0],
        min_norm_margin=float(norm_margin.min()),
        min_aux_margin=float(aux_margin.min()),
        seed=seed,
    )


@dataclass(frozen=True)
class GapEstimate:
    value: float
    standard_error: float
    basis_size: int
    degree: int
    sample_count: int
    seed: int
    mode: str


def _eigvalsh(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of symmetric a, or of the pencil (a, b) with b
    positive definite: scipy.linalg.eigvalsh(a, b) on float64 input.

    The LAPACK calls are those eigvalsh makes (dsyevr after its workspace
    query, or dsygvd), from scipy's compiled `_flapack` loaded without the
    scipy.linalg package; the finiteness check and the LinAlgError messages
    are eigvalsh's too.
    """
    flapack = load_extension("scipy.linalg._flapack")
    a = np.asarray_chkfinite(a)
    n = a.shape[0]
    if b is None:
        driver = "dsyevr"
        work, iwork, info = flapack.dsyevr_lwork(n, lower=1)
        if info != 0:
            raise ValueError(f"Internal work array size computation failed: {info}")
        w, _, _, _, info = flapack.dsyevr(
            a, compute_v=0, lower=1, lwork=int(work), liwork=int(iwork), overwrite_a=0
        )
    else:
        driver = "dsygvd"
        w, _, info = flapack.dsygvd(
            a, np.asarray_chkfinite(b), itype=1, jobz="N", uplo="L", overwrite_a=0, overwrite_b=0
        )
    if info == 0:
        return w
    if info < -1:
        raise np.linalg.LinAlgError(f"Illegal value in argument {-info} of internal {driver}")
    if info > n:
        raise np.linalg.LinAlgError(
            f"The leading minor of order {info - n} of B is not positive definite. The "
            "factorization of B could not be completed and no eigenvalues or eigenvectors "
            "were computed."
        )
    if b is None:
        raise np.linalg.LinAlgError("Internal Error.")
    raise np.linalg.LinAlgError(
        f"The algorithm failed to converge; {info} off-diagonal elements of an "
        "intermediate tridiagonal form did not converge to zero."
    )


def _gap_from_sums(
    count: int, sum_phi: np.ndarray, sum_outer: np.ndarray, sum_stiff: np.ndarray
) -> float:
    """Smallest generalized eigenvalue of (stiffness, covariance) from sums.

    Matrices are rescaled by the covariance diagonal before solving: the
    pencil eigenvalues are invariant under that diagonal scaling while the
    conditioning improves by orders of magnitude for raw monomials.
    """
    mean = sum_phi / count
    cov = sum_outer / count - np.outer(mean, mean)
    stiff = sum_stiff / count
    diag = np.diag(cov).copy()
    if np.any(diag <= 0):
        raise ConditioningError("a basis function is constant on the samples")
    scale = 1.0 / np.sqrt(diag)
    cov_s = cov * np.outer(scale, scale)
    stiff_s = stiff * np.outer(scale, scale)
    eigvals = _eigvalsh(cov_s)
    if eigvals.min() < 1e-10 * eigvals.max():
        raise ConditioningError(
            "covariance matrix near singular; use more samples or a smaller degree"
        )
    return float(_eigvalsh(stiff_s, cov_s)[0])


def _block_edges(count: int, jackknife_blocks: int) -> list[tuple[int, int]]:
    """(lo, hi) row bounds of the jackknife blocks of a `count`-row sample."""
    if count < 2 * jackknife_blocks:
        raise ValueError("too few samples for the jackknife block count")
    edges = np.linspace(0, count, jackknife_blocks + 1, dtype=int).tolist()
    return list(zip(edges, edges[1:]))


def _block_sums(
    phi: np.ndarray, grads: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Sufficient statistics of one block: (rows, sum phi, phi^T phi, G^T G).

    `phi` is (m_b, k) and `grads` is (m_b, 2, k), so a C-contiguous block
    reshapes for free to the (2 m_b, k) matrix G whose Gram matrix is the
    stiffness sum sum_m grad phi_k . grad phi_l.  Both Gram products are
    one BLAS syrk each, and their results are exactly symmetric.
    """
    stacked = grads.reshape(-1, grads.shape[-1])
    return phi.shape[0], phi.sum(axis=0), phi.T @ phi, stacked.T @ stacked


def _gap_with_jackknife(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, float]:
    """Point estimate plus leave-one-block-out jackknife standard error.

    `blocks` yields each jackknife block's basis values (m_b, k) and
    horizontal gradients (m_b, 2, k) in turn.  Each block is reduced at once
    to its row count, sum phi and two Gram sums, phi^T phi and G^T G with G
    the (2 m_b, k) view of its gradients (`_block_sums`), and dropped; the
    estimates then come from those sums alone.  So a caller may build each
    block on demand, and no sample-sized array is copied per block.
    """
    # starmap drops each block before it asks for the next one.
    sums = list(starmap(_block_sums, blocks))
    tot_n = sum(b[0] for b in sums)
    tot_phi = sum(b[1] for b in sums)
    tot_outer = sum(b[2] for b in sums)
    tot_stiff = sum(b[3] for b in sums)
    value = _gap_from_sums(tot_n, tot_phi, tot_outer, tot_stiff)
    estimates = np.array(
        [
            _gap_from_sums(
                tot_n - nb, tot_phi - sp, tot_outer - so, tot_stiff - ss
            )
            for nb, sp, so, ss in sums
        ]
    )
    n_blocks = len(sums)
    se = float(
        np.sqrt(
            (n_blocks - 1)
            / n_blocks
            * np.sum((estimates - estimates.mean()) ** 2)
        )
    )
    return value, se


def spectral_gap_galerkin(
    spec: MeasureSpec,
    degree: int,
    samples: SampleBatch,
    jackknife_blocks: int = 20,
) -> GapEstimate:
    """Variational 2-spectral-gap upper bound from a monomial basis.

    Assembles stiffness mu(grad phi_i . grad phi_j) and covariance
    Cov(phi_i, phi_j) by Monte Carlo over the batch and takes the smallest
    eigenvalue of the pencil.  The result bounds the true gap from above
    (Rayleigh quotient restricted to the span).  The standard error comes
    from leave-one-block-out jackknifing.

    Member c's values go straight into column c of one (m, k) array and
    its horizontal gradient into column c of one (m, 2, k) array, so the
    basis costs those two arrays plus one member's series; the jackknife
    then reduces contiguous row blocks of both to BLAS Gram sums.
    """
    members = [
        monomial_member(spec.kind, expts)
        for expts in weighted_monomial_exponents(spec.kind, degree)
        if any(expts)
    ]
    batch = MemberBatch(spec.kind, samples.coords)
    m = batch.xb.shape[0]
    edges = _block_edges(m, jackknife_blocks)
    phi = np.empty((m, len(members)))
    grads = np.empty((m, 2, len(members)))
    column = {id(member): c for c, member in enumerate(members)}

    def store(member: TestFunction, context: MemberBatch) -> None:
        c = column[id(member)]
        phi[:, c], grads[:, :, c] = member.evaluate(context)

    # Each basis monomial is its own group, so the context holds no copy of
    # the basis.
    scan_members(members, batch, store)
    value, se = _gap_with_jackknife(
        (phi[lo:hi], grads[lo:hi]) for lo, hi in edges
    )
    return GapEstimate(
        value=value,
        standard_error=se,
        basis_size=len(members),
        degree=degree,
        sample_count=m,
        seed=samples.seed,
        mode="carnot",
    )


def _calibration_exponents(degree: int) -> list[tuple[int, int]]:
    """(i, j) of the plane monomials x^i y^j with 0 < i + j <= degree."""
    return [
        (i, j)
        for i in range(degree + 1)
        for j in range(degree + 1)
        if 0 < i + j <= degree
    ]


def _calibration_basis(
    pts: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Values (m, k) and Euclidean gradients (m, 2, k) of the calibration basis.

    Every column is formed from the power tables x^i and y^j exactly as
    `x ** i * y ** j`, `i * x ** (i-1) * y ** j` and `j * x ** i * y ** (j-1)`
    (exponents floored at 0), so a row depends only on its own point and
    any block of rows is byte-equal to the same rows of the whole sample.
    """
    x, y = pts[:, 0], pts[:, 1]
    xp = [x**i for i in range(degree + 1)]
    yp = [y**j for j in range(degree + 1)]
    exponents = _calibration_exponents(degree)
    phi = np.empty((pts.shape[0], len(exponents)))
    grads = np.empty((pts.shape[0], 2, len(exponents)))
    for c, (i, j) in enumerate(exponents):
        phi[:, c] = xp[i] * yp[j]
        grads[:, 0, c] = i * xp[max(i - 1, 0)] * yp[j]
        grads[:, 1, c] = j * xp[i] * yp[max(j - 1, 0)]
    return phi, grads


def gaussian_calibration_gap(
    count: int, seed: int, degree: int = 4, jackknife_blocks: int = 20
) -> GapEstimate:
    """Exact-sampler calibration: standard Gaussian on the plane.

    For the density exp(-|z|^2 / 2) with the Euclidean gradient, the
    generator's spectrum is the nonnegative integers, so the true gap is 1;
    a degree-4 polynomial basis contains the optimal function z_1.

    The basis is built one jackknife block at a time (`_calibration_basis`,
    values (m_b, k) and gradients (m_b, 2, k)) and reduced to that block's
    Gram sums before the next is built, so only the points and one block's
    arrays are held, never the whole (count, k) basis.
    """
    rng = derive_rng(seed, "gap-calibration")
    pts = rng.normal(size=(count, 2))
    value, se = _gap_with_jackknife(
        _calibration_basis(pts[lo:hi], degree)
        for lo, hi in _block_edges(count, jackknife_blocks)
    )
    return GapEstimate(
        value=value,
        standard_error=se,
        basis_size=len(_calibration_exponents(degree)),
        degree=degree,
        sample_count=count,
        seed=seed,
        mode="gaussian-calibration",
    )
