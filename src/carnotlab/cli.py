"""Command-line front end: deterministic runs writing plain-file artifacts.

Nine subcommands cover the library surface:

  verify-algebra   group axioms, commutator tables, frame invariance
  verify-bounds    pointwise norm-derivative bound certification
  sample           Metropolis sampling to CCMB + CSV, optional Z estimate
  ubound           U-bound moment fit with holdout validation
  poincare         q-Poincare ratio scan with holdout validation
  gap              Galerkin spectral-gap estimates, optional calibration
  ball-check       Poincare ratios on uniform norm balls
  localize         localization split, Chebyshev bound, translation trick
  geodesic         distance upper bound, path dump, equivalence scan

Every command reads an optional JSON config (--config), merges explicit
flags over it, validates the result against the schema in
docs/config_schema.json (unknown keys are rejected), and writes its
artifacts plus a one-page summary.txt into --out.  Outputs embed the
resolved config, the master seed, and package versions; nothing embeds a
timestamp, so a rerun with the same config and seed is bit-identical.

The master seed is consumed only through named substreams
(`seeding.seed_sequence(seed, *labels)`), so different consumers never
share or shift each other's random streams.

Exit codes: 0 all checks passed, 2 at least one check failed, 3 invalid
input or configuration, 4 a numerical procedure failed to converge.

Failure messages are prefixed with stable check ids (for example
[ub-holdout]); the full id list lives in the README.  CARNOT_THREADS caps
the process CPU affinity and the BLAS thread pools at startup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .bounds import (
    reports_to_csv,
    verify_engel_gradient_bound,
    verify_engel_laplacian_bound,
    verify_engel_x2_lower,
    verify_filiform_bounds,
    verify_filiform_x1_lower,
)
from .family import default_family
from .frames import (
    check_invariance,
    commutator_coefficients,
    commutator_table,
    left_frame,
    right_frame_engel,
)
from .geodesics import (
    InfeasiblePathError,
    approx_distance,
    dump_path_csv,
    equivalence_scan,
)
from .group import FiliformGroup, GroupPoint
from .inequalities import (
    ConditioningError,
    InfeasibleFitError,
    LocalizationParams,
    ball_poincare_check,
    localization_decomposition,
    poincare_scan,
    spectral_gap_galerkin,
    gaussian_calibration_gap,
    translation_trick_check,
    ubound_fit,
)
from .measures import (
    MeasureSpec,
    PrecisionError,
    SampleBatch,
    estimate_Z,
    export_csv,
    sample,
    save_batch,
)
from .norms import engel_kind, filiform_kind, norm_value
from .seeding import derive_rng

EXIT_PASS = 0
EXIT_CHECK_FAIL = 2
EXIT_INPUT_ERROR = 3
EXIT_NUMERIC_ERROR = 4

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CHECK_IDS = {
    "cfg-schema": "run configuration validates against the shipped schema",
    "alg-assoc": "group composition is associative on random triples",
    "alg-identity": "the origin is a two-sided identity",
    "alg-inverse": "group inverses cancel to the identity",
    "alg-dilation": "dilations are group automorphisms",
    "frame-comm": "frame commutators match the ladder structure constants",
    "frame-comm-fd": "finite-difference commutators agree with analytic ones",
    "frame-invar": "frame fields are invariant under their translations",
    "bnd-engel-grad": "step-3 gradient ratio stays below sqrt(5)",
    "bnd-engel-lap": "step-3 sub-Laplacian ratio stays below 7",
    "bnd-engel-x2": "step-3 first-derivative identity equals 1",
    "bnd-fil-x1": "filiform first-derivative ratio stays above 1",
    "bnd-fil-sup": "filiform ratio sups are finite (values recorded)",
    "smp-finite": "all retained samples are finite",
    "smp-z": "the normalization estimate converged within budget",
    "ub-feasible": "the U-bound fit is feasible on training members",
    "ub-holdout": "fitted coefficients validate on holdout members",
    "poi-sup": "the training Poincare sup ratio is finite",
    "poi-holdout": "the candidate constant validates on holdout members",
    "ball-finite": "ball Poincare sup ratios are finite (values recorded)",
    "loc-partition": "the three-region split reproduces the total moment",
    "loc-chebyshev": "the far-region Chebyshev bound holds on shared samples",
    "loc-shift": "annulus shift claims hold pointwise",
    "loc-translation": "translation-trick inequalities hold on every sample",
    "gap-positive": "spectral gap estimates are strictly positive",
    "gap-monotone": "gap estimates do not increase with basis degree (3 SE)",
    "gap-calibration": "the Gaussian calibration gap is within 1.0 +- 0.05",
    "geo-residual": "the best path meets the endpoint residual tolerance",
    "geo-band": "equivalence scan ratios are positive and finite",
}

DEFAULTS: dict[str, dict] = {
    "verify-algebra": {
        "steps": [3, 4, 5, 6],
        "samples": 100_000,
        "invariance_samples": 1_000,
        "tolerance": 1e-10,
        "comm_tolerance": 1e-12,
        "fd_tolerance": 1e-8,
        "seed": 0,
    },
    "verify-bounds": {
        "samples": 1_000_000,
        "filiform_steps": [3, 4, 5, 6],
        "box": 5.0,
        "standoff": 1e-2,
        "seed": 0,
    },
    "sample": {
        "kind": "engel",
        "step": 3,
        "a": 1.0,
        "p": None,
        "count": 100_000,
        "step_scale": 0.7,
        "burn_in": 10_000,
        "chains": 256,
        "csv_rows": 10_000,
        "z_budget": 0,
        "seed": 0,
    },
    "ubound": {
        "kind": "engel",
        "step": 3,
        "a": 1.0,
        "p": None,
        "count": 200_000,
        "holdout_count": None,
        "seed": 0,
    },
    "poincare": {
        "kind": "engel",
        "step": 3,
        "a": 1.0,
        "p": None,
        "count": 200_000,
        "holdout_count": None,
        "seed": 0,
    },
    "gap": {
        "kind": "engel",
        "step": 3,
        "a": 1.0,
        "p": None,
        "count": 200_000,
        "degrees": [2, 3],
        "calibration_count": 0,
        "jackknife_blocks": 20,
        "seed": 0,
    },
    "ball-check": {
        "kind": "engel",
        "step": 3,
        "radii": [1.0, 2.0, 4.0],
        "exponent": None,
        "count": 100_000,
        "seed": 0,
    },
    "localize": {
        "kind": "engel",
        "step": 3,
        "a": 1.0,
        "p": None,
        "count": 200_000,
        "radius_r": 1.0,
        "level_l": 2.0,
        "member": "x2",
        "translation_count": 10_000,
        "seed": 0,
    },
    "geodesic": {
        "kind": "engel",
        "step": 3,
        "target": [1.0, 0.0, 0.0, 0.0],
        "segments": 8,
        "restarts": 3,
        "scan_points": 0,
        "scan_box": 1.5,
        "seed": 0,
    },
}

_INT = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0}
_POS = {"type": "number", "exclusiveMinimum": 0}
_KIND = {"enum": ["engel", "filiform"]}
_STEP = {"type": "integer", "minimum": 3, "maximum": 12}
_P_OR_NULL = {"anyOf": [{"type": "number", "exclusiveMinimum": 1}, {"type": "null"}]}


def _schema(properties: dict) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": sorted(properties),
        "additionalProperties": False,
    }


SCHEMAS: dict[str, dict] = {
    "verify-algebra": _schema(
        {
            "steps": {"type": "array", "items": _STEP, "minItems": 1},
            "samples": _INT,
            "invariance_samples": _INT,
            "tolerance": _POS,
            "comm_tolerance": _POS,
            "fd_tolerance": _POS,
            "seed": _SEED,
        }
    ),
    "verify-bounds": _schema(
        {
            "samples": _INT,
            "filiform_steps": {"type": "array", "items": _STEP, "minItems": 1},
            "box": _POS,
            "standoff": _POS,
            "seed": _SEED,
        }
    ),
    "sample": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "a": _POS,
            "p": _P_OR_NULL,
            "count": _INT,
            "step_scale": _POS,
            "burn_in": {"type": "integer", "minimum": 0},
            "chains": _INT,
            "csv_rows": {"type": "integer", "minimum": 0},
            "z_budget": {"type": "integer", "minimum": 0},
            "seed": _SEED,
        }
    ),
    "ubound": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "a": _POS,
            "p": _P_OR_NULL,
            "count": _INT,
            "holdout_count": {"anyOf": [_INT, {"type": "null"}]},
            "seed": _SEED,
        }
    ),
    "poincare": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "a": _POS,
            "p": _P_OR_NULL,
            "count": _INT,
            "holdout_count": {"anyOf": [_INT, {"type": "null"}]},
            "seed": _SEED,
        }
    ),
    "gap": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "a": _POS,
            "p": _P_OR_NULL,
            "count": _INT,
            "degrees": {"type": "array", "items": _INT, "minItems": 1},
            "calibration_count": {"type": "integer", "minimum": 0},
            "jackknife_blocks": {"type": "integer", "minimum": 2},
            "seed": _SEED,
        }
    ),
    "ball-check": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "radii": {"type": "array", "items": _POS, "minItems": 1},
            "exponent": _P_OR_NULL,
            "count": _INT,
            "seed": _SEED,
        }
    ),
    "localize": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "a": _POS,
            "p": _P_OR_NULL,
            "count": _INT,
            "radius_r": _POS,
            "level_l": {"type": "number", "exclusiveMinimum": 1},
            "member": {"type": "string", "minLength": 1},
            "translation_count": _INT,
            "seed": _SEED,
        }
    ),
    "geodesic": _schema(
        {
            "kind": _KIND,
            "step": _STEP,
            "target": {"type": "array", "items": {"type": "number"}, "minItems": 4},
            "segments": {"type": "integer", "minimum": 4},
            "restarts": _INT,
            "scan_points": {"type": "integer", "minimum": 0},
            "scan_box": _POS,
            "seed": _SEED,
        }
    ),
}


class ConfigError(ValueError):
    """Invalid configuration or command-line input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; we use 3
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _apply_thread_cap() -> None:
    cap = os.environ.get("CARNOT_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        raise ConfigError(f"CARNOT_THREADS must be an integer, got {cap!r}")
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(n)
    if hasattr(os, "sched_setaffinity"):
        try:
            current = os.sched_getaffinity(0)
            os.sched_setaffinity(0, set(sorted(current)[:n]))
        except OSError:
            pass


def _versions() -> dict:
    return {
        "carnotlab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _payload(command: str, params: dict, results: dict) -> dict:
    return {
        "command": command,
        "config": params,
        "versions": _versions(),
        "results": results,
    }


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(value: float) -> str:
    return repr(float(value))


class RunContext:
    """Accumulates check outcomes and summary lines for one command."""

    def __init__(self, command: str, params: dict, out: Path):
        self.command = command
        self.params = params
        self.out = out
        self.checks: list[tuple[str, bool, str]] = []
        self.notes: list[str] = []

    def check(self, check_id: str, passed: bool, detail: str) -> None:
        if check_id not in CHECK_IDS:
            raise KeyError(f"unknown check id {check_id!r}")
        self.checks.append((check_id, bool(passed), detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary_lines(self) -> list[str]:
        lines = [f"carnotlab {self.command}"]
        lines.append(
            " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        )
        for cid, ok, detail in self.checks:
            lines.append(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
        for note in self.notes:
            lines.append(f"NOTE {note}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines

    def finish(self) -> int:
        lines = self.summary_lines()
        _write_lines(self.out / "summary.txt", lines)
        print("\n".join(lines))
        return EXIT_PASS if self.passed else EXIT_CHECK_FAIL

    def results_checks(self) -> list[dict]:
        return [
            {"id": cid, "passed": ok, "detail": detail}
            for cid, ok, detail in self.checks
        ]


def _measure_spec(params: dict) -> MeasureSpec:
    kind_name = params["kind"]
    step = params["step"]
    if kind_name == "engel":
        if step != 3:
            raise ConfigError("the engel kind fixes step = 3")
        kind = engel_kind()
        default_p = 3.0
    else:
        kind = filiform_kind(step)
        default_p = float(step)
    p = params["p"] if params["p"] is not None else default_p
    params["p"] = p
    try:
        return MeasureSpec(kind=kind, a=params["a"], p=p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _norm_kind(params: dict):
    if params["kind"] == "engel":
        if params["step"] != 3:
            raise ConfigError("the engel kind fixes step = 3")
        return engel_kind()
    return filiform_kind(params["step"])


# ---------------------------------------------------------------- commands


def _run_verify_algebra(params: dict, out: Path) -> int:
    ctx = RunContext("verify-algebra", params, out)
    tol = params["tolerance"]
    rng = derive_rng(params["seed"], "verify-algebra")
    per_step: dict[str, dict[str, float]] = {}
    csv_rows = ["check,step,frame,samples,defect,tolerance,passed"]

    def record(cid: str, step: int, frame: str, count: int, defect: float, bound: float):
        per_step.setdefault(cid, {})[f"n{step}:{frame}"] = defect
        ok = defect <= bound
        csv_rows.append(
            f"{cid},{step},{frame},{count},{_fmt(defect)},{_fmt(bound)},{str(ok).lower()}"
        )
        return ok

    worst: dict[str, float] = {}
    all_ok: dict[str, bool] = {}
    for n in params["steps"]:
        g = FiliformGroup(n)
        d = g.dimension
        m = params["samples"]
        x = rng.uniform(-3.0, 3.0, size=(m, d))
        y = rng.uniform(-3.0, 3.0, size=(m, d))
        z = rng.uniform(-3.0, 3.0, size=(m, d))
        ref = np.max(np.abs(g.compose(g.compose(x, y), z)), axis=1) + 1.0

        assoc = np.max(
            np.max(np.abs(g.compose(g.compose(x, y), z) - g.compose(x, g.compose(y, z))), axis=1)
            / ref
        )
        ident = max(
            float(np.max(np.abs(g.compose(x, g.identity()) - x))),
            float(np.max(np.abs(g.compose(g.identity(), x) - x))),
        ) / float(np.max(np.abs(x)) + 1.0)
        inv = np.max(
            np.max(np.abs(g.compose(x, g.inverse(x))), axis=1)
            / (np.max(np.abs(x), axis=1) + 1.0)
        )
        dil = 0.0
        for lam in (0.5, 1.7):
            lhs = g.dilate(lam, g.compose(x, y))
            rhs = g.compose(g.dilate(lam, x), g.dilate(lam, y))
            dil = max(
                dil,
                float(np.max(np.max(np.abs(lhs - rhs), axis=1) / (np.max(np.abs(lhs), axis=1) + 1.0))),
            )
        for cid, defect in (
            ("alg-assoc", float(assoc)),
            ("alg-identity", float(ident)),
            ("alg-inverse", float(inv)),
            ("alg-dilation", float(dil)),
        ):
            ok = record(cid, n, "-", m, defect, tol)
            worst[cid] = max(worst.get(cid, 0.0), defect)
            all_ok[cid] = all_ok.get(cid, True) and ok

        frames = [left_frame(g)]
        if n == 3:
            frames.append(right_frame_engel(g))
        for frame in frames:
            pts = rng.uniform(-2.0, 2.0, size=(5, d))
            table = commutator_table(frame, pts)
            comm_defect = 0.0
            for (i, j), coeffs in table.items():
                expected = np.zeros(d)
                if i == 1 and j <= n:
                    expected[j] = 1.0
                comm_defect = max(comm_defect, float(np.max(np.abs(coeffs - expected))))
            ok = record(
                "frame-comm", n, frame.label, 5, comm_defect, params["comm_tolerance"]
            )
            worst["frame-comm"] = max(worst.get("frame-comm", 0.0), comm_defect)
            all_ok["frame-comm"] = all_ok.get("frame-comm", True) and ok

            fd_defect = 0.0
            probe = rng.uniform(-2.0, 2.0, size=d)
            for i in range(len(frame.fields)):
                for j in range(i + 1, len(frame.fields)):
                    an = commutator_coefficients(frame.fields[i], frame.fields[j], probe)
                    fd = commutator_coefficients(
                        frame.fields[i], frame.fields[j], probe, method="fd"
                    )
                    fd_defect = max(fd_defect, float(np.max(np.abs(an - fd))))
            ok = record(
                "frame-comm-fd", n, frame.label, 1, fd_defect, params["fd_tolerance"]
            )
            worst["frame-comm-fd"] = max(worst.get("frame-comm-fd", 0.0), fd_defect)
            all_ok["frame-comm-fd"] = all_ok.get("frame-comm-fd", True) and ok

            inv_defect = 0.0
            k = params["invariance_samples"]
            alphas = rng.uniform(-2.0, 2.0, size=(k, d))
            points = rng.uniform(-2.0, 2.0, size=(k, d))
            for alpha, pt in zip(alphas, points):
                for f in frame.fields:
                    inv_defect = max(inv_defect, check_invariance(f, alpha, pt))
            ok = record("frame-invar", n, frame.label, k, inv_defect, tol)
            worst["frame-invar"] = max(worst.get("frame-invar", 0.0), inv_defect)
            all_ok["frame-invar"] = all_ok.get("frame-invar", True) and ok

    for cid in (
        "alg-assoc",
        "alg-identity",
        "alg-inverse",
        "alg-dilation",
        "frame-comm",
        "frame-comm-fd",
        "frame-invar",
    ):
        ctx.check(cid, all_ok[cid], f"worst defect {_fmt(worst[cid])}")

    _write_lines(out / "algebra.csv", csv_rows)
    _write_json(
        out / "algebra.json",
        _payload(
            "verify-algebra",
            params,
            {"defects": per_step, "checks": ctx.results_checks()},
        ),
    )
    return ctx.finish()


def _run_verify_bounds(params: dict, out: Path) -> int:
    ctx = RunContext("verify-bounds", params, out)
    m = params["samples"]
    seed = params["seed"]
    box = params["box"]
    standoff = params["standoff"]
    reports = [
        verify_engel_gradient_bound(m, seed, box, standoff),
        verify_engel_laplacian_bound(m, seed, box, standoff),
        verify_engel_x2_lower(m, seed, box, standoff),
    ]
    ctx.check(
        "bnd-engel-grad",
        bool(reports[0].passed),
        f"sup {_fmt(reports[0].extremum)} target {_fmt(reports[0].target)}",
    )
    ctx.check(
        "bnd-engel-lap",
        bool(reports[1].passed),
        f"sup {_fmt(reports[1].extremum)} target {_fmt(reports[1].target)}",
    )
    ctx.check(
        "bnd-engel-x2",
        bool(reports[2].passed),
        f"inf {_fmt(reports[2].extremum)} target {_fmt(reports[2].target)}",
    )

    sup_ok = True
    lower_ok = True
    lower_worst = np.inf
    for n in params["filiform_steps"]:
        grad_rep, lap_rep = verify_filiform_bounds(n, m, seed, box, standoff)
        reports.extend([grad_rep, lap_rep])
        sup_ok = sup_ok and np.isfinite(grad_rep.extremum) and np.isfinite(lap_rep.extremum)
        low = verify_filiform_x1_lower(n, m, seed, box, standoff)
        reports.append(low)
        lower_ok = lower_ok and bool(low.passed)
        lower_worst = min(lower_worst, low.extremum)
    ctx.check("bnd-fil-sup", sup_ok, f"{2 * len(params['filiform_steps'])} sups recorded")
    ctx.check("bnd-fil-x1", lower_ok, f"worst inf {_fmt(lower_worst)}")

    (out / "bounds.csv").write_text(reports_to_csv(reports), encoding="utf-8")
    _write_json(
        out / "bounds.json",
        _payload(
            "verify-bounds",
            params,
            {
                "reports": [dataclasses.asdict(r) for r in reports],
                "checks": ctx.results_checks(),
            },
        ),
    )
    return ctx.finish()


def _run_sample(params: dict, out: Path) -> int:
    ctx = RunContext("sample", params, out)
    spec = _measure_spec(params)
    batch = sample(
        spec,
        params["count"],
        seed=params["seed"],
        step_scale=params["step_scale"],
        burn_in=params["burn_in"],
        chains=params["chains"],
    )
    finite = bool(np.all(np.isfinite(batch.coords)))
    ctx.check(
        "smp-finite",
        finite,
        f"{batch.coords.shape[0]} samples, acceptance "
        f"{_fmt(batch.diagnostics.acceptance_rate)}, "
        f"ess {_fmt(batch.diagnostics.effective_samples)}",
    )
    save_batch(out / "samples.ccmb", batch)
    rows = min(params["csv_rows"], batch.coords.shape[0])
    if rows > 0:
        head = SampleBatch(
            spec=spec,
            coords=batch.coords[:rows],
            seed=batch.seed,
            diagnostics=batch.diagnostics,
        )
        export_csv(out / "samples.csv", head)
        ctx.note(f"samples.csv holds the first {rows} rows; samples.ccmb holds all")

    results = {
        "diagnostics": dataclasses.asdict(batch.diagnostics),
        "count": int(batch.coords.shape[0]),
    }
    if params["z_budget"] > 0:
        z = estimate_Z(spec, budget=params["z_budget"], seed=params["seed"])
        ctx.check(
            "smp-z",
            True,
            f"Z {_fmt(z.value)} se {_fmt(z.standard_error)} via {z.method}",
        )
        results["normalization"] = dataclasses.asdict(z)
    results["checks"] = ctx.results_checks()
    _write_json(out / "sample.json", _payload("sample", params, results))
    return ctx.finish()


def _run_ubound(params: dict, out: Path) -> int:
    ctx = RunContext("ubound", params, out)
    spec = _measure_spec(params)
    family = default_family(spec.kind, q=spec.q)
    batch = sample(spec, params["count"], seed=params["seed"])
    report = ubound_fit(spec, family, batch, holdout_count=params["holdout_count"])
    ctx.check(
        "ub-feasible",
        report.feasible,
        f"C {_fmt(report.fitted_c)} D {_fmt(report.fitted_d)} "
        f"over {len(report.train)} members",
    )
    n_pass = sum(1 for h in report.holdout if h.passed)
    ctx.check(
        "ub-holdout", report.holdout_pass, f"{n_pass}/{len(report.holdout)} members"
    )

    train_rows = ["label,a,a_se,b,b_se,c,c_se"]
    for fm in report.train:
        train_rows.append(
            f"{fm.label},{_fmt(fm.a)},{_fmt(fm.a_se)},{_fmt(fm.b)},"
            f"{_fmt(fm.b_se)},{_fmt(fm.c)},{_fmt(fm.c_se)}"
        )
    _write_lines(out / "ubound_train.csv", train_rows)
    hold_rows = ["label,lhs,rhs,slack,passed"]
    for h in report.holdout:
        hold_rows.append(
            f"{h.label},{_fmt(h.lhs)},{_fmt(h.rhs)},{_fmt(h.slack)},{str(h.passed).lower()}"
        )
    _write_lines(out / "ubound_holdout.csv", hold_rows)
    _write_json(
        out / "ubound.json",
        _payload(
            "ubound",
            params,
            {"report": dataclasses.asdict(report), "checks": ctx.results_checks()},
        ),
    )
    return ctx.finish()


def _run_poincare(params: dict, out: Path) -> int:
    ctx = RunContext("poincare", params, out)
    spec = _measure_spec(params)
    family = default_family(spec.kind, q=spec.q)
    batch = sample(spec, params["count"], seed=params["seed"])
    report = poincare_scan(spec, family, batch, holdout_count=params["holdout_count"])
    ctx.check(
        "poi-sup",
        bool(np.isfinite(report.sup_ratio)) and report.sup_ratio > 0,
        f"sup {_fmt(report.sup_ratio)} c0 {_fmt(report.c0_candidate)}",
    )
    n_pass = sum(1 for h in report.holdout if h.passed)
    ctx.check(
        "poi-holdout", report.holdout_pass, f"{n_pass}/{len(report.holdout)} members"
    )
    if report.regime_flag:
        ctx.note(
            "p is below the theorem threshold for this kind; "
            "ratios are reported outside the proven regime"
        )
    rows = ["label,ratio,ratio_se"]
    for e in report.entries:
        rows.append(f"{e.label},{_fmt(e.ratio)},{_fmt(e.ratio_se)}")
    _write_lines(out / "poincare_ratios.csv", rows)
    hold_rows = ["label,lhs,rhs,slack,passed"]
    for h in report.holdout:
        hold_rows.append(
            f"{h.label},{_fmt(h.lhs)},{_fmt(h.rhs)},{_fmt(h.slack)},{str(h.passed).lower()}"
        )
    _write_lines(out / "poincare_holdout.csv", hold_rows)
    _write_json(
        out / "poincare.json",
        _payload(
            "poincare",
            params,
            {"report": dataclasses.asdict(report), "checks": ctx.results_checks()},
        ),
    )
    return ctx.finish()


def _run_gap(params: dict, out: Path) -> int:
    ctx = RunContext("gap", params, out)
    spec = _measure_spec(params)
    batch = sample(spec, params["count"], seed=params["seed"])
    estimates = [
        spectral_gap_galerkin(spec, deg, batch, params["jackknife_blocks"])
        for deg in params["degrees"]
    ]
    positive = all(e.value > 0 for e in estimates)
    ctx.check(
        "gap-positive",
        positive,
        " ".join(f"deg{e.degree}={_fmt(e.value)}" for e in estimates),
    )
    mono = True
    ordered = sorted(estimates, key=lambda e: e.degree)
    for lo, hi in zip(ordered, ordered[1:]):
        slack = 3.0 * (lo.standard_error + hi.standard_error)
        mono = mono and hi.value <= lo.value + slack
    ctx.check("gap-monotone", mono, f"{len(estimates)} degrees compared")

    results = {"estimates": [dataclasses.asdict(e) for e in estimates]}
    if params["calibration_count"] > 0:
        cal = gaussian_calibration_gap(
            params["calibration_count"],
            params["seed"],
            jackknife_blocks=params["jackknife_blocks"],
        )
        ctx.check(
            "gap-calibration",
            abs(cal.value - 1.0) <= 0.05,
            f"gap {_fmt(cal.value)} se {_fmt(cal.standard_error)}",
        )
        results["calibration"] = dataclasses.asdict(cal)

    rows = ["mode,degree,basis_size,value,standard_error,samples"]
    for e in estimates + ([cal] if params["calibration_count"] > 0 else []):
        rows.append(
            f"{e.mode},{e.degree},{e.basis_size},{_fmt(e.value)},"
            f"{_fmt(e.standard_error)},{e.sample_count}"
        )
    _write_lines(out / "gap.csv", rows)
    results["checks"] = ctx.results_checks()
    _write_json(out / "gap.json", _payload("gap", params, results))
    return ctx.finish()


def _run_ball_check(params: dict, out: Path) -> int:
    ctx = RunContext("ball-check", params, out)
    kind = _norm_kind(params)
    exponent = params["exponent"]
    if exponent is None:
        exponent = 3.0 if params["kind"] == "engel" else float(params["step"])
        params["exponent"] = exponent
    family = default_family(kind, q=exponent)
    reports = [
        ball_poincare_check(
            kind, r, exponent, family, params["count"], params["seed"]
        )
        for r in params["radii"]
    ]
    finite = all(np.isfinite(r.sup_ratio) and r.sup_ratio > 0 for r in reports)
    ctx.check(
        "ball-finite",
        finite,
        " ".join(f"r={rep.radius:g}:{_fmt(rep.sup_ratio)}" for rep in reports),
    )
    sups = [rep.sup_ratio for rep in reports]
    if sups == sorted(sups):
        ctx.note("sup ratios are nondecreasing in the radius (recorded)")
    rows = ["radius,exponent,sup_ratio,samples,acceptance"]
    for rep in reports:
        rows.append(
            f"{_fmt(rep.radius)},{_fmt(rep.exponent)},{_fmt(rep.sup_ratio)},"
            f"{rep.sample_count},{_fmt(rep.acceptance_rate)}"
        )
    _write_lines(out / "ball.csv", rows)
    _write_json(
        out / "ball.json",
        _payload(
            "ball-check",
            params,
            {
                "reports": [
                    {
                        key: val
                        for key, val in dataclasses.asdict(rep).items()
                        if key != "entries"
                    }
                    for rep in reports
                ],
                "sup_ratios": sups,
                "checks": ctx.results_checks(),
            },
        ),
    )
    return ctx.finish()


def _run_localize(params: dict, out: Path) -> int:
    ctx = RunContext("localize", params, out)
    spec = _measure_spec(params)
    family = default_family(spec.kind, q=spec.q)
    wanted = params["member"]
    matches = [m for m in family.members if m.label == wanted]
    if not matches:
        raise ConfigError(
            f"no family member labelled {wanted!r}; try one of "
            f"{', '.join(m.label for m in family.members[:8])}, ..."
        )
    member = matches[0]
    batch = sample(spec, params["count"], seed=params["seed"])
    loc = LocalizationParams(
        kind=spec.kind, radius_r=params["radius_r"], level_l=params["level_l"]
    )
    rep = localization_decomposition(spec, member, loc, batch)
    ctx.check(
        "loc-partition",
        rep.partition_defect <= 1e-12,
        f"defect {_fmt(rep.partition_defect)}",
    )
    ctx.check(
        "loc-chebyshev",
        rep.chebyshev_ok,
        f"far {_fmt(rep.term_far)} <= bound {_fmt(rep.chebyshev_bound)}",
    )
    ctx.check("loc-shift", rep.shift_claims_pass, "annulus shift inequalities")
    if rep.degenerate_regions:
        ctx.note(f"regions without samples: {', '.join(rep.degenerate_regions)}")

    trn = translation_trick_check(
        spec.kind,
        params["radius_r"],
        params["level_l"],
        params["translation_count"],
        params["seed"],
    )
    ctx.check(
        "loc-translation",
        trn.all_pass,
        f"{trn.norm_claim_passes}/{trn.sample_count} norm, "
        f"{trn.aux_claim_passes}/{trn.sample_count} seminorm",
    )
    _write_json(
        out / "localize.json",
        _payload(
            "localize",
            params,
            {
                "localization": dataclasses.asdict(rep),
                "translation": dataclasses.asdict(trn),
                "checks": ctx.results_checks(),
            },
        ),
    )
    return ctx.finish()


def _run_geodesic(params: dict, out: Path) -> int:
    ctx = RunContext("geodesic", params, out)
    kind = _norm_kind(params)
    group = kind.group
    target = np.asarray(params["target"], dtype=np.float64)
    if target.shape != (group.dimension,):
        raise ConfigError(
            f"target needs {group.dimension} coordinates for step {group.step}"
        )
    if not np.all(np.isfinite(target)):
        raise ConfigError("target coordinates must be finite")
    if params["segments"] < 2 * group.step + 1:
        raise ConfigError(
            f"segments must be at least {2 * group.step + 1} for step {group.step}"
        )
    est = approx_distance(
        GroupPoint(group, target),
        k_segments=params["segments"],
        restarts=params["restarts"],
        seed=params["seed"],
    )
    nval = float(norm_value(kind, target))
    ctx.check(
        "geo-residual",
        est.residual <= 1e-6 * (1.0 + nval),
        f"value {_fmt(est.value)} residual {_fmt(est.residual)} "
        f"segments {est.segments}",
    )
    dump_path_csv(est.path, out / "geodesic_path.csv")
    results = {
        "value": est.value,
        "residual": est.residual,
        "segments": est.segments,
        "iterations": est.iterations,
        "norm": nval,
    }

    if params["scan_points"] > 0:
        rng = derive_rng(params["seed"], "geodesic-scan-points")
        pts = rng.normal(scale=params["scan_box"], size=(params["scan_points"], group.dimension))
        keep = norm_value(kind, pts) > 1e-6
        band = equivalence_scan(
            kind, pts[keep], k_segments=params["segments"], seed=params["seed"]
        )
        ctx.check(
            "geo-band",
            band.ratio_min > 0 and np.isfinite(band.ratio_max),
            f"ratios in [{_fmt(band.ratio_min)}, {_fmt(band.ratio_max)}] "
            f"on {band.count} points",
        )
        results["scan"] = dataclasses.asdict(band)

    results["checks"] = ctx.results_checks()
    _write_json(out / "geodesic.json", _payload("geodesic", params, results))
    return ctx.finish()


RUNNERS = {
    "verify-algebra": _run_verify_algebra,
    "verify-bounds": _run_verify_bounds,
    "sample": _run_sample,
    "ubound": _run_ubound,
    "poincare": _run_poincare,
    "gap": _run_gap,
    "ball-check": _run_ball_check,
    "localize": _run_localize,
    "geodesic": _run_geodesic,
}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_measure_flags(sub: argparse.ArgumentParser, command: str) -> None:
    d = DEFAULTS[command]
    sub.add_argument(
        "--kind", choices=["engel", "filiform"],
        help=f"norm and frame family (default: {d['kind']})",
    )
    sub.add_argument(
        "--step", type=int, help=f"group step n (default: {d['step']})"
    )
    if "a" in d:
        sub.add_argument(
            "--a", type=float, help=f"potential coefficient (default: {d['a']})"
        )
        sub.add_argument(
            "--p", type=float,
            help="potential exponent (default: 3 for engel, n for filiform)",
        )
    if "count" in d:
        sub.add_argument(
            "--count", type=int, help=f"sample count (default: {d['count']})"
        )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="carnotlab",
        description=(
            "Deterministic computations on filiform groups: algebra and "
            "bound verification, Gibbs sampling, functional-inequality "
            "scans, spectral gaps, and distance upper bounds."
        ),
        epilog=(
            "Each command merges --config JSON under its explicit flags, "
            "validates against docs/config_schema.json, and writes "
            "artifacts plus summary.txt to --out.  Reruns with identical "
            "config and seed are bit-identical.  CARNOT_THREADS caps CPU "
            "affinity and BLAS threads."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(sub):
        sub.add_argument(
            "--out", default=None,
            help="output directory (default: carnotlab-out/<command>)",
        )
        sub.add_argument("--config", default=None, help="JSON config file")
        sub.add_argument(
            "--seed", type=int, default=None, help="master seed (default: 0)"
        )

    sub = subs.add_parser(
        "verify-algebra", help="group axioms, commutators, invariance"
    )
    common(sub)
    sub.add_argument("--steps", type=_int_list, help="steps to check (default: 3,4,5,6)")
    sub.add_argument("--samples", type=int, help="random instances per axiom (default: 100000)")
    sub.add_argument(
        "--invariance-samples", dest="invariance_samples", type=int,
        help="random (alpha, x) pairs per frame (default: 1000)",
    )
    sub.add_argument("--tolerance", type=float, help="axiom tolerance (default: 1e-10)")
    sub.add_argument(
        "--comm-tolerance", dest="comm_tolerance", type=float,
        help="structure-constant tolerance (default: 1e-12)",
    )
    sub.add_argument(
        "--fd-tolerance", dest="fd_tolerance", type=float,
        help="finite-difference commutator tolerance (default: 1e-8)",
    )

    sub = subs.add_parser("verify-bounds", help="norm-derivative bound certification")
    common(sub)
    sub.add_argument("--samples", type=int, help="sample count per bound (default: 1000000)")
    sub.add_argument(
        "--filiform-steps", dest="filiform_steps", type=_int_list,
        help="filiform steps to scan (default: 3,4,5,6)",
    )
    sub.add_argument("--box", type=float, help="sampling box half-width (default: 5.0)")
    sub.add_argument(
        "--standoff", type=float,
        help="distance kept from singular hyperplanes (default: 0.01)",
    )

    sub = subs.add_parser("sample", help="Metropolis sampling to CCMB and CSV")
    common(sub)
    _add_measure_flags(sub, "sample")
    sub.add_argument(
        "--step-scale", dest="step_scale", type=float,
        help="initial proposal scale (default: 0.7)",
    )
    sub.add_argument("--burn-in", dest="burn_in", type=int, help="burn-in sweeps (default: 10000)")
    sub.add_argument("--chains", type=int, help="parallel chains (default: 256)")
    sub.add_argument(
        "--csv-rows", dest="csv_rows", type=int,
        help="rows mirrored to CSV, 0 disables (default: 10000)",
    )
    sub.add_argument(
        "--z-budget", dest="z_budget", type=int,
        help="integrand evaluations for the Z estimate, 0 skips (default: 0)",
    )

    sub = subs.add_parser("ubound", help="U-bound moment fit with holdout")
    common(sub)
    _add_measure_flags(sub, "ubound")
    sub.add_argument(
        "--holdout-count", dest="holdout_count", type=int,
        help="fresh samples for holdout (default: same as count)",
    )

    sub = subs.add_parser("poincare", help="q-Poincare ratio scan with holdout")
    common(sub)
    _add_measure_flags(sub, "poincare")
    sub.add_argument(
        "--holdout-count", dest="holdout_count", type=int,
        help="fresh samples for holdout (default: same as count)",
    )

    sub = subs.add_parser("gap", help="Galerkin spectral-gap estimates")
    common(sub)
    _add_measure_flags(sub, "gap")
    sub.add_argument("--degrees", type=_int_list, help="basis degrees (default: 2,3)")
    sub.add_argument(
        "--calibration-count", dest="calibration_count", type=int,
        help="Gaussian calibration samples, 0 skips (default: 0)",
    )
    sub.add_argument(
        "--jackknife-blocks", dest="jackknife_blocks", type=int,
        help="jackknife blocks for standard errors (default: 20)",
    )

    sub = subs.add_parser("ball-check", help="Poincare ratios on uniform norm balls")
    common(sub)
    _add_measure_flags(sub, "ball-check")
    sub.add_argument("--radii", type=_float_list, help="ball radii (default: 1,2,4)")
    sub.add_argument(
        "--exponent", type=float,
        help="moment exponent (default: 3 for engel, n for filiform)",
    )

    sub = subs.add_parser("localize", help="localization split and translation trick")
    common(sub)
    _add_measure_flags(sub, "localize")
    sub.add_argument("--radius-r", dest="radius_r", type=float, help="far-region level R (default: 1.0)")
    sub.add_argument("--level-l", dest="level_l", type=float, help="ball level L (default: 2.0)")
    sub.add_argument("--member", help="family member label to decompose (default: x2)")
    sub.add_argument(
        "--translation-count", dest="translation_count", type=int,
        help="annulus samples for the shift claims (default: 10000)",
    )

    sub = subs.add_parser("geodesic", help="distance upper bound and scan")
    common(sub)
    sub.add_argument(
        "--kind", choices=["engel", "filiform"],
        help="norm used for ratios (default: engel)",
    )
    sub.add_argument("--step", type=int, help="group step n (default: 3)")
    sub.add_argument(
        "--target", type=_float_list,
        help="comma-separated coordinates (default: 1,0,0,0)",
    )
    sub.add_argument("--segments", type=int, help="path segments K, at least 2n+1 (default: 8)")
    sub.add_argument("--restarts", type=int, help="randomized restarts (default: 3)")
    sub.add_argument(
        "--scan-points", dest="scan_points", type=int,
        help="points for the equivalence scan, 0 skips (default: 0)",
    )
    sub.add_argument(
        "--scan-box", dest="scan_box", type=float,
        help="scale of the scan point cloud (default: 1.5)",
    )
    return parser


def _resolve_params(command: str, args: argparse.Namespace) -> dict:
    params = dict(DEFAULTS[command])
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        params.update(loaded)
    for key in DEFAULTS[command]:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    try:
        jsonschema.validate(instance=params, schema=SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"[cfg-schema] {exc.message}") from exc
    return params


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT_ERROR
    try:
        _apply_thread_cap()
        params = _resolve_params(args.command, args)
        out = Path(args.out) if args.out else Path("carnotlab-out") / args.command
        out.mkdir(parents=True, exist_ok=True)
        return RUNNERS[args.command](params, out)
    except ConfigError as exc:
        print(f"carnotlab: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (
        PrecisionError,
        ConditioningError,
        InfeasibleFitError,
        InfeasiblePathError,
        ArithmeticError,
        np.linalg.LinAlgError,
        ValueError,
        RuntimeError,
    ) as exc:
        print(f"carnotlab: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
