"""Horizontal-path optimization: upper bounds on the metric distance.

A path is K segments of constant controls (u1, u2) over total time 1,
flowing along the left frame: x1' = u1, xk' = u2 x1^(k-2)/(k-2)!.  Each
segment's flow is polynomial in time, so the endpoint and its Jacobian in
the controls come from closed-form binomial moments, built for all K
segments of a batch of paths at once by one vectorised kernel.  It repeats
a per-segment loop's floating-point operations in order (scalar `pow`,
sequential sums), so each path's results are bit-identical to that loop,
which tests/test_geodesics.py keeps as the reference: NumPy's SIMD array
power can differ by an ulp, and the optimiser below turns ulps into
different bounds.  The tests also integrate the same dynamics by RK4 as
an independent check (exactly for step 3, and with substeps beyond).

`approx_distance` minimizes the path length sum (1/K) |u_s| subject to the
endpoint constraint via an augmented Lagrangian with analytic gradients, a
Gauss-Newton feasibility polish, and a cascade over segment counts that
warm-starts each level from the refined previous optimum.  A staircase
construction (move x1 to a ladder of levels, pulse u2 at each) solves a
Vandermonde system to reach any target exactly, so every optimization
starts feasible.  Each inner minimisation is L-BFGS-B, driven here through
scipy's compiled reverse-communication core (`scipy.optimize._lbfgsb`)
with the calls `scipy.optimize.minimize` would make; the core is loaded on
its own by `extensions.load_extension`, without the rest of
`scipy.optimize`.  The starts of a level run
in lockstep: every round answers all their pending evaluations with one
batched objective, and each start's iterates are those it would take
alone.

Dilations are group automorphisms and the distance is 1-homogeneous,
d(delta_lam x) = lam d(x), so every target x is solved at unit norm:
`approx_distance` optimises towards u = delta_(1/N)(x), N the filiform
norm of x, and reports N times that bound with the controls scaled by N.
Every tolerance is therefore a constant, and the result is homogeneous to
the rounding of N.  Results are genuine distance upper bounds: the unit
optimum is padded by a relative 1e-9 plus 1e-12 before it is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .extensions import load_extension
from .group import FiliformGroup, GroupPoint, _as_batch
from .norms import NormKind, filiform_norm, norm_value
from .seeding import derive_rng

# Endpoint residual accepted in the unit-norm problem.
RESIDUAL_TOLERANCE = 2e-6
VALUE_PAD_REL = 1e-9
VALUE_PAD_ABS = 1e-12


class InfeasiblePathError(RuntimeError):
    """No path met the endpoint tolerance; carries the best residual."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@lru_cache(maxsize=64)
def _kernel_constants(n: int, k_seg: int):
    """Per-(step, K) tables: the terms j <= m of the moment sums and their
    m - j, the exponents as Python ints, factorials, tau^(j+r) and j + r
    for I_m (r = 1) and J_m (r = 2), and which segments follow each one."""
    tau = 1.0 / k_seg
    m, j = np.arange(n)[:, None], np.arange(n)[None, :]
    tau_pow = np.array([[tau ** (p + r) for p in range(n)] for r in (1, 2)])
    div = np.array([[float(p + r) for p in range(n)] for r in (1, 2)])
    later = np.arange(k_seg)[None, :] > np.arange(k_seg)[:, None]
    tables = (j <= m, np.where(j <= m, m - j, 0), np.arange(n, dtype=object),
              np.array([float(factorial(p)) for p in range(n)]),
              tau_pow[:, None, None, :], div[:, None, None, :], later[:, None, :, None])
    for table in tables:  # shared by every caller through the cache
        table.flags.writeable = False
    return tables


def _path_tables(controls: np.ndarray, n: int):
    """Moments I_m, J_m (m < n) of every segment and the states after each,
    for a batch of paths: controls has shape (B, K, 2).

    With a the x1 level entering a segment and u its u1 control,
    I_m = sum_j a^(m-j)/(m-j)! u^j/j! tau^(j+1)/(j+1), and J_m has
    tau^(j+2)/(j+2).  Sums over j and over segments are sequential folds
    from +0.0 (`+ 0.0` turns a leading -0.0 of `np.cumsum` into +0.0), so
    each row is byte-equal to the same path computed alone.
    Returns (I, J), shape (B, 2, K, n), and the states, shape (B, K, n + 1).
    """
    rows, k_seg = controls.shape[:2]
    lower, gap, powers, fact, tau_pow, div, _ = _kernel_constants(n, k_seg)
    u1, u2 = controls[..., 0], controls[..., 1:]
    x1 = (u1 * (1.0 / k_seg)).cumsum(axis=1) + 0.0
    # Scalar pow through an object array (see the module docstring).  The
    # x1 levels are Python floats and u1 stays NumPy scalars, so overflow
    # raises OverflowError or gives inf with a warning, as in the
    # reference loop.
    bases = np.array(
        [[0.0, *levels[:-1], *u] for levels, u in zip(x1.tolist(), u1)], dtype=object
    )
    pows = (bases[..., None] ** powers).astype(np.float64)
    base = (pows[:, :k_seg] / fact)[:, :, gap] * pows[:, k_seg:, None, :] / fact
    terms = np.where(lower, base, 0.0)[:, None] * tau_pow / div
    moments = terms.cumsum(axis=-1)[..., -1] + 0.0
    states = np.empty((rows, k_seg, n + 1))
    states[..., 0] = x1
    states[..., 1:] = (u2 * moments[:, 0]).cumsum(axis=1) + 0.0
    return moments, states


def _endpoint_and_jacobian(controls: np.ndarray, n: int):
    """Endpoints, shape (B, d), and d x 2K Jacobians, shape (B, d, 2K), of a
    batch of paths from the identity; controls has shape (B, K, 2).

    A control of segment t enters row c >= 2 directly, then through x1 in
    every later segment s as (u2_s I_(c-2)) * dx1.  Those terms are folded
    in segment order after a prefix of -0.0, the additive identity.
    """
    rows, k_seg = controls.shape[:2]
    later = _kernel_constants(n, k_seg)[-1]
    moments, states = _path_tables(controls, n)
    i_tab, j_tab = moments[:, 0], moments[:, 1]
    u2, seg = controls[..., 1:], np.arange(k_seg)
    dx1 = np.array([1.0 / k_seg, 0.0])[:, None, None]
    # terms[b, t, r, s, c]: control r of segment t, row c + 2, segment s.
    terms = np.where(later, ((u2 * i_tab[..., :-1])[:, None] * dx1)[:, None], -0.0)
    terms[:, seg, 0, seg] = u2 * j_tab[..., :-1]
    terms[:, seg, 1, seg] = i_tab[..., 1:]
    jac = np.zeros((rows, n + 1, 2 * k_seg))
    jac[:, 0, 0::2] = 1.0 / k_seg
    jac[:, 1, 1::2] = i_tab[..., 0]
    folded = terms.cumsum(axis=3)[:, :, :, -1].reshape(rows, 2 * k_seg, n - 1)
    jac[:, 2:] = folded.transpose(0, 2, 1)
    return states[:, -1], jac


def endpoint_and_jacobian(group: FiliformGroup, controls: np.ndarray):
    """Endpoint of the path from the identity, plus d x 2K Jacobian."""
    endpoint, jac = _endpoint_and_jacobian(controls[None], group.step)
    return endpoint[0], jac[0]


def endpoint_only(group: FiliformGroup, controls: np.ndarray) -> np.ndarray:
    return _path_tables(controls[None], group.step)[1][0, -1]


@dataclass(frozen=True)
class HorizontalPath:
    """A piecewise-constant control path from the identity."""

    group: FiliformGroup
    controls: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.controls, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError("controls must have shape (K, 2)")
        object.__setattr__(self, "controls", c)

    @property
    def segments(self) -> int:
        return self.controls.shape[0]

    def endpoint(self) -> GroupPoint:
        return GroupPoint(self.group, endpoint_only(self.group, self.controls))

    def length(self) -> float:
        return float(
            np.sum(np.sqrt(np.sum(self.controls**2, axis=1))) / self.segments
        )

    def states(self) -> np.ndarray:
        """States after each segment, shape (K, dimension)."""
        return _path_tables(self.controls[None], self.group.step)[1][0]


@dataclass(frozen=True)
class DistanceEstimate:
    target: GroupPoint
    value: float
    residual: float
    segments: int
    iterations: int
    path: HorizontalPath


def default_segments(step: int) -> int:
    """The default K: 2n + 1, the fewest segments that admit the staircase
    start, rounded up to a power of two (2^bits(2n), as 2n + 1 is odd)."""
    return 1 << (2 * step).bit_length()


def staircase_controls(
    group: FiliformGroup, target: np.ndarray, k_seg: int
) -> np.ndarray | None:
    """Exactly feasible warm start: x1 staircase with u2 pulses.

    Move x1 through n distinct levels; at each level fire a pure-u2 pulse.
    The pulse increments form a Vandermonde-type system in the levels, so
    any target is reached exactly with 2n + 1 segments.  Returns None when
    K is too small for the construction.
    """
    n = group.step
    d = group.dimension
    if k_seg < 2 * n + 1:
        return None
    scale = float(np.max(np.abs(target) ** (1.0 / np.array(group.weights))))
    base = np.linspace(-1.0, 1.0, n) if n > 1 else np.array([1.0])
    levels = scale * (base + 0.1)  # offset keeps levels distinct from 0
    tau = 1.0 / k_seg
    vand = np.zeros((n, n))
    for row, k in enumerate(range(2, d + 1)):
        for col, a in enumerate(levels):
            vand[row, col] = a ** (k - 2) / factorial(k - 2) * tau
    pulses = np.linalg.solve(vand, target[1:])
    controls = np.zeros((k_seg, 2))
    prev = 0.0
    seg = 0
    for a, c in zip(levels, pulses):
        controls[seg, 0] = (a - prev) / tau
        seg += 1
        controls[seg, 1] = c
        seg += 1
        prev = a
    controls[seg, 0] = (target[0] - prev) / tau
    return controls


def _augmented_objective(flats: np.ndarray, group: FiliformGroup, target: np.ndarray, args):
    """Augmented-Lagrangian value and gradient of B paths at once.

    Row b is the smoothed length sum (1/K) sqrt(|u_s|^2 + eps^2) plus
    lam . r + (rho/2) |r|^2, r the endpoint residual, for flats[b] and
    args[b] = (lam, rho, eps); it is byte-equal to that path evaluated alone.
    Returns the values (Python floats) and the gradients, shape (B, 2K).
    """
    rows = len(flats)
    controls = flats.reshape(rows, -1, 2)
    k_seg = controls.shape[1]
    lam = np.array([a[0] for a in args])
    rho = np.array([a[1] for a in args])
    eps_sq = np.array([a[2] ** 2 for a in args])
    mags = np.sqrt((controls**2).sum(axis=2) + eps_sq[:, None])
    lengths = mags.sum(axis=1) / k_seg
    grads = (controls / mags[..., None] / k_seg).reshape(rows, -1)
    endpoint, jac = _endpoint_and_jacobian(controls, group.step)
    resid = endpoint - target
    # A stacked matmul makes, row by row, the BLAS call (dot or gemv, on the
    # same strides) that a single path's `lam @ resid`, `resid @ resid` and
    # `jac.T @ w` make, so each row keeps the single path's sums.
    lam_resid = (lam[:, None, :] @ resid[..., None])[:, 0, 0]
    resid_sq = (resid[:, None, :] @ resid[..., None])[:, 0, 0]
    grads += (jac.transpose(0, 2, 1) @ (lam + rho[:, None] * resid)[..., None])[..., 0]
    return (lengths + lam_resid + 0.5 * rho * resid_sq).tolist(), grads


# L-BFGS-B settings: scipy.optimize.minimize's defaults (m = 10, maxls = 20,
# maxfun = 15000) with maxiter 300, ftol 1e-14 and gtol 1e-12.
LBFGS_MEMORY = 10
LBFGS_MAXLS = 20
LBFGS_MAXFUN = 15_000
LBFGS_MAXITER = 300
LBFGS_FACTR = 1e-14 / np.finfo(float).eps
LBFGS_PGTOL = 1e-12
# Augmented-Lagrangian rounds, each one L-BFGS-B solve and a multiplier update.
MAX_OUTER = 10


def _drive_lbfgsb(x0: np.ndarray, args: tuple):
    """Unconstrained L-BFGS-B from x0, driven by its caller.

    A generator: it yields (x, args) for every value and gradient it needs,
    is sent back (f, g), and returns (x, iterations).  L-BFGS-B hands control
    back for each evaluation (reverse communication), so the caller can
    answer many runs with one batched objective.  The calls repeat
    scipy.optimize.minimize(method="L-BFGS-B") with the settings above
    exactly: f and g are taken at x0 first, an unchanged x reuses the last
    (f, g), and an iteration counts on each NEW_X task.  `setulb` comes from
    the extension scipy.optimize._lbfgsb, loaded without the scipy.optimize
    package (about 40 MB and half a second); it is private, with this
    signature since scipy 1.15.
    """
    setulb = load_extension("scipy.optimize._lbfgsb").setulb
    n, m = x0.size, LBFGS_MEMORY
    x = np.array(x0, dtype=np.float64)
    unbounded, nbd = np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    f, g = np.array(0.0), np.zeros(n)
    evaluated = x.copy()
    fx, gx = yield evaluated, args
    nfev, nit = 1, 0
    while True:
        setulb(m, x, unbounded, unbounded, nbd, f, g.astype(np.float64), LBFGS_FACTR,
               LBFGS_PGTOL, wa, iwa, task, lsave, isave, dsave, LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # FG: evaluate at x
            if not np.array_equal(x, evaluated):
                evaluated = x.copy()
                fx, gx = yield evaluated, args
                nfev += 1
            f, g = fx, gx
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= LBFGS_MAXITER:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > LBFGS_MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x, nit


def _optimize_from(group: FiliformGroup, target: np.ndarray, controls: np.ndarray):
    """Augmented-Lagrangian descent followed by Gauss-Newton projection.

    A generator: it yields (flat controls, (lam, rho, eps)) for every
    `_augmented_objective` evaluation it needs, is sent back (value,
    gradient), and returns (controls, residual, iterations).
    """
    d = group.dimension
    lam = np.zeros(d)
    rho = 10.0
    eps = 2e-9
    iterations = 0
    flat = controls.ravel().copy()
    prev_resid = np.inf
    for _ in range(MAX_OUTER):
        flat, nit = yield from _drive_lbfgsb(flat, (lam, rho, eps))
        iterations += nit
        endpoint = endpoint_only(group, flat.reshape(-1, 2))
        resid = endpoint - target
        rnorm = float(np.linalg.norm(resid))
        lam = lam + rho * resid
        if rnorm > 0.3 * prev_resid:
            rho *= 6.0
        prev_resid = rnorm
        if rnorm < 2e-11:
            break

    # Feasibility polish: full Newton steps on the endpoint constraint.
    controls = flat.reshape(-1, 2)
    for _ in range(40):
        endpoint, jac = endpoint_and_jacobian(group, controls)
        resid = endpoint - target
        rnorm = float(np.linalg.norm(resid))
        if rnorm <= 2e-13:
            break
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        if not step.any():  # every further pass would repeat this step
            break
        controls = controls + step.reshape(-1, 2)
        iterations += 1
    endpoint = endpoint_only(group, controls)
    rnorm = float(np.linalg.norm(endpoint - target))
    return controls, rnorm, iterations


def _optimize_all(
    group: FiliformGroup, target: np.ndarray, starts: list[np.ndarray]
) -> list[tuple[np.ndarray, float, int]]:
    """`_optimize_from` on every start in lockstep, results in start order.

    Each round answers every pending request with one batched objective;
    a run that finishes drops out.  Runs never see each other's values, so
    each result equals that start optimised alone.
    """
    runs = [_optimize_from(group, target, start) for start in starts]
    pending = {i: next(run) for i, run in enumerate(runs)}
    results: list = [None] * len(runs)
    while pending:
        order = list(pending)
        flats = np.array([pending[i][0] for i in order])
        values, grads = _augmented_objective(flats, group, target, [pending[i][1] for i in order])
        for i, value, grad in zip(order, values, grads):
            try:
                pending[i] = runs[i].send((value, grad))
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
    return results


def approx_distance(
    target: GroupPoint, k_segments: int | None = None, restarts: int = 3, seed: int = 0
) -> DistanceEstimate:
    """Upper bound on the metric distance from the identity to `target`.

    Solves at unit norm (see the module docstring).  Cascades over
    doubling segment counts up to K (`default_segments` of the step unless
    given), warm-starting each level with the refined previous optimum
    plus staircase, constant, and randomized initial paths, which run in
    lockstep; restarts merge deterministically by taking the shortest
    feasible result (ties keep the earliest).  The estimate's residual is
    that of the unit-norm problem.
    """
    group = target.group
    if k_segments is None:
        k_segments = default_segments(group.step)
    if k_segments < 4:
        raise ValueError("need at least 4 segments")
    tvec = np.asarray(target.coords, dtype=np.float64)
    if not np.all(np.isfinite(tvec)):
        raise ValueError("target must be finite")
    if not tvec.any():
        path = HorizontalPath(group, np.zeros((k_segments, 2)))
        return DistanceEstimate(
            target=target,
            value=0.0,
            residual=0.0,
            segments=k_segments,
            iterations=0,
            path=path,
        )
    # N = 2^e N(v) for v = delta_(2^-e)(x), e the largest binary exponent of
    # |x_k|^(1/w_k): the norm of v neither overflows nor underflows, and
    # scaling by a power of two is exact, so delta_2 raises e by one and
    # leaves v, u and the whole unit solve bit-equal.
    weights, nonzero = np.array(group.weights), tvec != 0.0
    exp = int(np.max((np.frexp(tvec[nonzero])[1] - 1) // weights[nonzero]))
    v = np.ldexp(tvec, -exp * weights)
    v_norm = float(filiform_norm(group, v))
    nval = float(np.ldexp(v_norm, exp))
    unit = group.dilate(1.0 / v_norm, v)
    # The paths aim at u rounded to 40 fractional bits.  A dilation moves u
    # by a few ulps, which leave the rounded goal, and so the whole solve,
    # unchanged unless u lies within them of a rounding boundary.
    goal = np.ldexp(np.rint(np.ldexp(unit, 40)), -40)
    rng = derive_rng(seed, "distance-restarts")

    levels = [k_segments]
    while levels[0] > 8:
        levels.insert(0, levels[0] // 2)

    best_controls = None
    best_length = np.inf
    total_iterations = 0
    best_residual = np.inf
    for level_idx, k_seg in enumerate(levels):
        starts: list[np.ndarray] = []
        if best_controls is not None:
            # Each previous segment split in two; an odd level repeats the last once more.
            starts.append(best_controls[np.minimum(np.arange(k_seg) // 2, len(best_controls) - 1)])
        stair = staircase_controls(group, goal, k_seg)
        if stair is not None:
            starts.append(stair)
        starts.append(np.tile(goal[:2], (k_seg, 1)))
        n_random = restarts if level_idx == len(levels) - 1 else 1
        for _ in range(n_random):
            starts.append(rng.normal(size=(k_seg, 2)))

        level_best = None
        level_len = np.inf
        for controls, rnorm, iters in _optimize_all(group, goal, starts):
            total_iterations += iters
            best_residual = min(best_residual, rnorm)
            if rnorm <= RESIDUAL_TOLERANCE:
                length = HorizontalPath(group, controls).length()
                if length < level_len:
                    level_len = length
                    level_best = controls
        if level_best is not None:
            best_controls = level_best
            best_length = level_len

    if best_controls is None:
        raise InfeasiblePathError(
            f"no path reached the target within tolerance; best unit-norm residual "
            f"{best_residual:.3e}",
            best_residual,
        )
    residual = float(np.linalg.norm(endpoint_only(group, best_controls) - unit))
    return DistanceEstimate(
        target=target,
        value=nval * (best_length * (1.0 + VALUE_PAD_REL) + VALUE_PAD_ABS),
        residual=residual,
        segments=len(best_controls),
        iterations=total_iterations,
        path=HorizontalPath(group, nval * best_controls),
    )


@dataclass(frozen=True)
class EquivalenceBand:
    """Empirical envelope of approx_distance(x) / Norm(x) over sample points."""

    kind_variant: str
    step: int
    ratio_min: float
    ratio_max: float
    spread: float
    count: int
    segments: int
    seed: int


def equivalence_scan(
    kind: NormKind, points: np.ndarray, k_segments: int | None = None, seed: int = 0,
    restarts: int = 3,
) -> EquivalenceBand:
    """Ratio band of the distance upper bound against the homogeneous norm;
    K defaults to `default_segments` of the kind's step."""
    xb, _ = _as_batch(points, kind.group.dimension)
    if k_segments is None:
        k_segments = default_segments(kind.group.step)
    ratios = []
    for row in xb:
        nval = float(norm_value(kind, row))
        if nval <= 0:
            raise ValueError("scan points must avoid the origin")
        est = approx_distance(
            GroupPoint(kind.group, row), k_segments, restarts=restarts, seed=seed
        )
        ratios.append(est.value / nval)
    ratios = np.asarray(ratios)
    return EquivalenceBand(
        kind_variant=kind.variant,
        step=kind.group.step,
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        spread=float(ratios.max() / ratios.min()),
        count=len(ratios),
        segments=k_segments,
        seed=seed,
    )
