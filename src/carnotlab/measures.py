"""Gibbs-type probability measures exp(-a N^p)/Z and their estimation.

A `MeasureSpec` fixes a norm kind, the coefficient a > 0 and the exponent
p > 1 (the conjugate q = p/(p-1) drives the functional inequalities), giving
the unnormalised density

    u(x) = exp(-a N(x)^p).

The density depends on x only through N, so homogeneous polar coordinates
sample it exactly and iid (see `sample`) and reduce Z to Gamma(Q/p + 1)
a^(-Q/p) times the unit-ball volume of the kind (see `estimate_Z`).
`batch_mean_se` gives Monte Carlo means with batch-means errors.

Sample batches serialise to a small binary format ("CCMB"): magic bytes,
u32 version and step, f64 spec fields (a, p, kind code, and a flag that
is always 0 in format version 1), u64 seed and count, then the points
row-major as little-endian f64.  Outputs carry no timestamps, so a
rerun with the same inputs is bit-identical.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .norms import ENGEL, FILIFORM, NormKind, norm_kernel
from .seeding import derive_rng

MAGIC = b"CCMB"
FORMAT_VERSION = 1
KIND_CODES = {ENGEL: 0.0, FILIFORM: 1.0}
_HEADER = struct.Struct("<4sII4dQQ")
N_BATCHES = 50


@dataclass(frozen=True)
class MeasureSpec:
    """Parameters of the measure exp(-a N^p)/Z.

    The coercive-inequality theorems need p >= 3 for the engel kind and
    p >= n for the filiform kind; a spec below the threshold is legal (the
    density is still well defined) but carries `meets_theorem_threshold` =
    False and triggers a warning at construction.
    """

    kind: NormKind
    a: float = 1.0
    p: float = 3.0

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError("a must be positive")
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if not self.meets_theorem_threshold:
            warnings.warn(
                f"p = {self.p} is below the theorem threshold "
                f"{self.threshold_p} for this kind; density is fine but the "
                "coercive inequalities are not guaranteed",
                UserWarning,
                stacklevel=2,
            )

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def threshold_p(self) -> float:
        return 3.0 if self.kind.variant == ENGEL else float(self.kind.group.step)

    @property
    def meets_theorem_threshold(self) -> bool:
        return self.p >= self.threshold_p

    def tail_radius(self) -> float:
        return 3.0 * (50.0 / self.a) ** (1.0 / self.p)


@dataclass(frozen=True)
class SampleDiagnostics:
    """How a batch was drawn: `method` is always "exact" (iid draws),
    `acceptance_rate` is the cone sampler's envelope acceptance,
    `effective_samples` equals the count, and `tail_audit_count` counts the
    points beyond `MeasureSpec.tail_radius`."""

    method: str
    acceptance_rate: float
    effective_samples: float
    tail_audit_count: int


@dataclass(frozen=True)
class SampleBatch:
    """Points drawn from the measure, with sampler diagnostics."""

    spec: MeasureSpec
    coords: np.ndarray
    seed: int
    diagnostics: SampleDiagnostics

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("sample batch contains non-finite points")

    def __len__(self) -> int:
        return self.coords.shape[0]


# Proposals per rejection block: enough for one block to fill most requests
# at the 61-68% envelope acceptance, capped to bound the block's memory.
_BLOCK_FACTOR = 1.8
_MAX_BLOCK = 1 << 18


def cone_samples(kind: NormKind, count: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """`count` iid points of {N = 1} under the normalised cone measure.

    Draws Y from exp(-N(Y)^n) (n the step, 3 for Engel) and returns
    Theta = delta_{1/N(Y)} Y, independent of N(Y) by homogeneous polar
    coordinates (Folland & Stein, Hardy Spaces on Homogeneous Groups,
    Prop. 1.15).
    Superadditivity of s^beta, beta >= 1, gives N^n >= sum_k c_k |y_k|^(n/w_k)
    with w_k the weights, c = (n-1, n, 1, ..., 1) for filiform and all ones
    for Engel.  Y is drawn from that product envelope, with each term
    Gamma(w_k/n) distributed and a fair sign, and accepted with probability
    exp(envelope - N(Y)^n).  Returns Theta and the acceptance rate.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    group = kind.group
    n = 3 if kind.variant == ENGEL else group.step
    weights = np.array(group.weights, dtype=np.float64)
    coef = np.ones(group.dimension)
    if kind.variant != ENGEL:
        coef[:2] = (n - 1, n)
    shapes = weights / n
    norm = norm_kernel(kind)
    out = np.empty((count, group.dimension))
    kept = accepted = proposed = 0
    while kept < count:
        block = min(int(_BLOCK_FACTOR * (count - kept)) + 64, _MAX_BLOCK)
        gam = rng.standard_gamma(shapes, size=(block, group.dimension))
        y = (gam / coef) ** shapes
        np.negative(y, out=y, where=rng.integers(0, 2, size=y.shape, dtype=bool))
        nv = norm(y)
        accept = rng.random(block) < np.exp(gam.sum(axis=1) - nv**n)
        take = np.flatnonzero(accept)
        accepted += take.size
        proposed += block
        take = take[: count - kept]
        out[kept : kept + take.size] = y[take] / nv[take, None] ** weights
        kept += take.size
    return out, accepted / proposed


def sample(spec: MeasureSpec, count: int, seed: int) -> SampleBatch:
    """Draw `count` points from exp(-a N^p)/Z, exactly and iid.

    X = delta_R Theta with Theta from `cone_samples` and a R^p ~
    Gamma(Q/p, 1), Q the homogeneous dimension.  Every draw comes from a
    named substream of `seed`, so the batch is bit-reproducible.
    """
    group = spec.kind.group
    theta, envelope_rate = cone_samples(
        spec.kind, count, derive_rng(seed, "measure-sampler", "shape")
    )
    gam = derive_rng(seed, "measure-sampler", "radius").standard_gamma(
        group.homogeneous_dimension / spec.p, size=count
    )
    radii = (gam / spec.a) ** (1.0 / spec.p)
    coords = theta * radii[:, None] ** np.array(group.weights, dtype=np.float64)
    diag = SampleDiagnostics(
        method="exact",
        acceptance_rate=float(envelope_rate),
        effective_samples=float(count),
        tail_audit_count=int(np.count_nonzero(radii > spec.tail_radius())),
    )
    return SampleBatch(spec=spec, coords=coords, seed=seed, diagnostics=diag)


@dataclass(frozen=True)
class ZEstimate:
    value: float
    standard_error: float
    method: str

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("Z must be positive")
        if self.standard_error < 0:
            raise ValueError("standard error must be nonnegative")


def estimate_Z(spec: MeasureSpec) -> ZEstimate:
    """Normalisation constant Z = integral of exp(-a N^p), with its error.

    The density depends on x only through N, so homogeneous polar
    coordinates (Folland & Stein, Hardy Spaces on Homogeneous Groups,
    Prop. 1.15) give Z(a, p) = Gamma(Q/p + 1) a^(-Q/p) |B_1|, with Q the
    homogeneous dimension and |B_1| the volume of the unit ball, a constant
    of the kind.  |B_1| is exact for Engel and a quadrature for filiform
    (`_filiform_ball_volume`), whose error the estimate carries.
    """
    from scipy.special import gamma  # deferred: only commands computing Z load it

    if spec.kind.variant == ENGEL:
        # int exp(-N^3) = 4 pi int_0^inf w exp(-w^(3/2)) dw = (8 pi/3) Gamma(4/3),
        # with w = x1^2 + x2^2 + |x3|, and equals Gamma(Q/3 + 1) |B_1|, Q = 7.
        volume, error = 8.0 * np.pi / 3.0 * gamma(4.0 / 3.0) / gamma(10.0 / 3.0), 0.0
        method = "polar-exact"
    else:
        volume, error = _filiform_ball_volume(spec.kind.group.step)
        method = "polar-quadrature"
    q_over_p = spec.kind.group.homogeneous_dimension / spec.p
    with np.errstate(over="ignore"):
        scale = gamma(q_over_p + 1.0) * np.float64(spec.a) ** -q_over_p
    if not 0.0 < scale < np.inf:
        raise ArithmeticError(f"Z leaves the float64 range at a = {spec.a!r}, p = {spec.p!r}")
    return ZEstimate(float(scale * volume), float(scale * error), method)


# Exp-sinh spacings of the two rules whose difference is the reported error.
# Widening the s-range or doubling the Gauss-Jacobi order moves |B_1| by at
# most 2e-15 relative at every step from 3 to 12; below s = -6.5 the nodes
# underflow to 0.
_POLAR_SPACINGS = (0.05, 0.035)
_JACOBI_NODES = 32


@lru_cache(maxsize=None)
def _filiform_ball_volume(n: int) -> tuple[float, float]:
    """|B_1| of the step-n filiform norm and its quadrature error.

    Integrating out x_{n+1} and the signs, then A = |x_1|^h, B = |x_2|^h with
    c = A + B and B = c t, gives

        Gamma(Q/n + 1) |B_1| = int exp(-N^n)
            = (8/h^2) int_0^inf c^(2/h-1) T(c) prod_{j=3..n} G_j(c) dc,
        T(c) = int_0^1 (t(1-t))^(1/h-1) exp(-(c(1+t))^beta) dt,
        G_j(c) = 2 int_0^inf exp(-(c + y^alpha_j)^beta) dy,

    with h = (n+1)/2, beta = 2n/(n+1) and alpha_j = (n+1)/(2(j-1)).  The
    c and y integrals use exp-sinh nodes, t uses Gauss-Jacobi nodes for the
    endpoint weight.  Returns the finer rule's value and its distance from
    the coarser one.
    """
    from scipy.special import gamma, roots_jacobi

    half = (n + 1) / 2.0
    beta = 2.0 * n / (n + 1)
    jac = 1.0 / half - 1.0
    u, wu = roots_jacobi(_JACOBI_NODES, jac, jac)
    t, wt = 0.5 * (1.0 + u), wu * 2.0 ** (-2.0 * jac - 1.0)
    values = []
    for spacing in _POLAR_SPACINGS:
        # Exp-sinh nodes c = exp(pi/2 sinh s) on an s-grid over [-6, 3].
        s = spacing * np.arange(np.ceil(-6.0 / spacing), np.floor(3.0 / spacing) + 1.0)
        c = np.exp(0.5 * np.pi * np.sinh(s))
        wc = spacing * 0.5 * np.pi * np.cosh(s) * c
        integrand = c ** (2.0 / half - 1.0) * (np.exp(-((c[:, None] * (1.0 + t)) ** beta)) @ wt)
        for j in range(3, n + 1):
            y_pow = c ** ((n + 1) / (2.0 * (j - 1)))  # the y-grid equals the c-grid
            integrand *= 2.0 * (np.exp(-((c[:, None] + y_pow) ** beta)) @ wc)
        values.append(8.0 / half**2 * float(integrand @ wc))
    scale = 1.0 / gamma((1 + n * (n + 1) // 2) / n + 1.0)  # 1/Gamma(Q/n + 1)
    return values[-1] * scale, abs(values[-1] - values[0]) * scale


def batch_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and batch-means standard error of a series over N_BATCHES batches."""
    m = values.shape[0]
    nb = min(N_BATCHES, m)
    usable = m - (m % nb)
    means = values[:usable].reshape(nb, -1).mean(axis=1)
    se = float(np.std(means, ddof=1) / np.sqrt(nb)) if nb > 1 else 0.0
    return float(np.mean(values)), se


def save_batch(path, batch: SampleBatch) -> None:
    """Write the binary columnar format described in the module docstring."""
    spec = batch.spec
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        spec.kind.group.step,
        spec.a,
        spec.p,
        KIND_CODES[spec.kind.variant],
        0.0,  # perturbation flag, kept for format version 1
        batch.seed % 2**64,
        batch.coords.shape[0],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(batch.coords, dtype="<f8").tobytes())


def load_batch(path) -> tuple[dict, np.ndarray]:
    """Read a CCMB file; returns (header dict, coords array).

    Raises ValueError for a short header, a wrong magic or version, or a
    payload whose size is not count * (step + 1) * 8 bytes.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"CCMB header needs {_HEADER.size} bytes, file has {len(raw)}")
        magic, version, step, a, p, kind_code, pert_flag, seed, count = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError("not a CCMB file")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported CCMB version {version}")
        payload = fh.read()
    expected = count * (step + 1) * 8
    if len(payload) != expected:
        raise ValueError(
            f"CCMB payload of {count} points at step {step} needs {expected} bytes, "
            f"file has {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(count, step + 1)
    header = {
        "version": version,
        "step": step,
        "a": a,
        "p": p,
        "kind_code": kind_code,
        "perturbed": bool(pert_flag),
        "seed": seed,
        "count": count,
    }
    return header, np.array(data)
