"""Command-line front end: deterministic runs writing plain-file artifacts.

Nine subcommands cover the library surface:

  verify-algebra   group axioms, commutator tables, frame invariance
  verify-bounds    pointwise norm-derivative bound certification
  sample           exact sampling to CCMB + CSV, optional Z estimate
  ubound           U-bound moment fit with holdout validation
  poincare         q-Poincare ratio scan with holdout validation
  gap              Galerkin spectral-gap estimates, optional calibration
  ball-check       Poincare ratios on uniform norm balls, from the unit ball
  localize         localization split, Chebyshev bound, translation trick
  geodesic         distance upper bound, path dump, equivalence scan

Every command reads an optional JSON config (--config), merges explicit
flags over it, validates the result against the schema in
docs/config_schema.json (unknown keys are rejected), and writes its
artifacts plus a one-page summary.txt into --out.  The defaults, the
schemas and the flags all come from the COMMANDS table below, and
`carnotlab --dump-schema` generates that file from it.  Outputs embed the
resolved config, the master seed, and package versions; nothing embeds a
timestamp, so a rerun with the same config and seed is bit-identical.
CSV/JSON shaping lives here: the library returns arrays and dataclasses,
this module writes every text artifact (through `_write_json`,
`_write_lines` and `_write_csv`), and only `measures.save_batch` writes a
file elsewhere, the binary CCMB batch.

The master seed is consumed only through named substreams
(`seeding.seed_sequence(seed, *labels)`), so different consumers never
share or shift each other's random streams.

Exit codes: 0 all checks passed, 2 at least one check failed, 3 invalid
input or configuration, 4 a numerical procedure failed to converge.

Failure messages are prefixed with stable check ids (for example
[ub-holdout]); the full id list lives in the README.  CARNOT_THREADS caps
the process CPU affinity at startup.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import importlib
import json
import math
import numbers
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from . import N_BATCHES, __version__

# The library names the commands call, by module.  Importing this module
# loads none of them: `main` binds the names of the modules a command calls
# (`_COMMAND_MODULES`) when it dispatches it, and `__getattr__` binds a
# name read from outside.  A name already set here, say a test's stand-in,
# is kept.
_LIBRARY = {
    "bounds": ("verify_kind",),
    "family": ("default_family",),
    "frames": (
        "commutator_table", "frame_commutators", "invariance_residuals", "left_frame",
        "right_frame_engel",
    ),
    "geodesics": (
        "RESIDUAL_REPORT_FACTOR", "approx_distance", "default_segments", "equivalence_scan",
    ),
    "group": ("FiliformGroup", "GroupPoint", "row_blocks", "row_max_abs"),
    "inequalities": (
        "LocalizationParams", "ball_poincare_check", "gaussian_calibration_gap",
        "localization_decomposition", "poincare_scan", "spectral_gap_galerkin",
        "translation_trick_check", "ubound_fit",
    ),
    "measures": ("MeasureSpec", "batch_mean_se", "estimate_Z", "sample", "save_batch"),
    "norms": ("NormKind", "engel_kind", "filiform_kind", "norm_value"),
    "seeding": ("derive_rng",),
}
_HOME = {name: module for module, names in _LIBRARY.items() for name in names}
_INEQUALITY_MODULES = ("family", "group", "inequalities", "measures", "norms")
_COMMAND_MODULES = {
    "verify-algebra": ("frames", "group", "seeding"),
    "verify-bounds": ("bounds", "norms"),
    "sample": ("group", "measures", "norms"),
    "ubound": _INEQUALITY_MODULES,
    "poincare": _INEQUALITY_MODULES,
    "gap": _INEQUALITY_MODULES,
    "ball-check": _INEQUALITY_MODULES,
    "localize": _INEQUALITY_MODULES,
    "geodesic": ("geodesics", "group", "norms", "seeding"),
}


def _load(module: str) -> None:
    """Import carnotlab.<module> and bind each of its `_LIBRARY` names not yet set here."""
    library = importlib.import_module(f".{module}", __package__)
    for name in _LIBRARY[module]:
        globals().setdefault(name, getattr(library, name))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_HOME[name])
    return globals()[name]


EXIT_PASS = 0
EXIT_CHECK_FAIL = 2
EXIT_INPUT_ERROR = 3
EXIT_NUMERIC_ERROR = 4

# Standard errors allowed between the sample mean of a N^p and Q/p.
MOMENT_SE_FACTOR = 5.0
# Largest relative quadrature error the normalization constant may carry.
Z_RTOL = 1e-9
# Scan points with a norm at or below this are dropped before the scan.
SCAN_NORM_FLOOR = 1e-6

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
    "smp-moment": "E[a N^p] matches Q/p within 5 standard errors",
    "smp-z": "the normalization constant is finite with relative error <= 1e-9",
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

_INT = {"type": "integer", "minimum": 1}
_NONNEG = {"type": "integer", "minimum": 0}
_POS = {"type": "number", "exclusiveMinimum": 0}
_STEP = {"type": "integer", "minimum": 3, "maximum": 12}
_P_OR_NULL = {"anyOf": [{"type": "number", "exclusiveMinimum": 1}, {"type": "null"}]}
# Moment runs report batch-means standard errors over N_BATCHES batches, so
# their sample counts need at least one sample per batch.
_MOMENT_COUNT = {"type": "integer", "minimum": N_BATCHES}


def _array(items: dict, min_items: int = 1) -> dict:
    return {"type": "array", "items": items, "minItems": min_items}


# Results are keyed by step, degree and radius, so a repeated entry is rejected.
_STEPS, _DEGREES, _RADII = ({**_array(s), "uniqueItems": True} for s in (_STEP, _INT, _POS))


# Measure-command draws are capped.  Each help quotes the command's
# tracemalloc peak at step 12, the widest rows, at the cap: measured there
# where it is at most 1 GB, else twice the peak at 1,000,000 (peaks grow
# linearly in the count from 200,000 on).
MAX_COUNT = 2_000_000


def _count(default: int, peak: str, schema: dict = _INT) -> tuple:
    return (default, {**schema, "maximum": MAX_COUNT},
            f"sample count, at most {MAX_COUNT:,} (at step 12: {peak})")


# A config field is (default, schema, help); a None default also carries the
# prose its help shows in place of the default.  Each field yields its entry
# in DEFAULTS and SCHEMAS and one flag, --<key> with "_" turned into "-".
_GROUP = {
    "kind": ("engel", {"enum": ["engel", "filiform"]}, "norm and frame family"),
    "step": (3, _STEP, "group step n"),
}
_GIBBS = {
    **_GROUP,
    "a": (1.0, _POS, "potential coefficient"),
    "p": (None, _P_OR_NULL, "potential exponent", "3 for engel, n for filiform"),
}
_HOLDOUT_COUNT = (
    None, {"anyOf": [{**_MOMENT_COUNT, "maximum": MAX_COUNT}, {"type": "null"}]},
    f"fresh samples for holdout, at most {MAX_COUNT:,} (1.3 kB each at step 12: 2.6 GB)",
    "same as count",
)
_SEED = {"seed": (0, _NONNEG, "master seed")}

COMMANDS: dict[str, tuple[str, dict[str, tuple]]] = {
    "verify-algebra": ("group axioms, commutators, invariance", {
        "steps": ([3, 4, 5, 6], _STEPS, "steps to check"),
        "samples": (100_000, {**_INT, "maximum": 10_000_000}, "random instances per axiom, "
                    "at most 10,000,000 (drawn 4,096 at a time: a 5.7 MB peak at step 12 at "
                    "15,000 and at 1,000,000)"),
        "invariance_samples": (1_000, {**_INT, "maximum": 1_000_000}, "(alpha, x) pairs per "
                               "frame, at most 1,000,000 (drawn 4,096 at a time: a 20 MB peak "
                               "at step 12 at 16,384 and at 250,000)"),
        "tolerance": (1e-10, _POS, "axiom tolerance"),
        "comm_tolerance": (1e-12, _POS, "structure-constant tolerance"),
        "fd_tolerance": (1e-8, _POS, "finite-difference commutator tolerance"),
        **_SEED,
    }),
    "verify-bounds": ("norm-derivative bound certification", {
        "samples": (1_000_000, {**_INT, "maximum": 10_000_000}, "sample count per bound, at "
                    "most 10,000,000 (drawn 8,192 at a time: an 11.4 MB peak at step 12 at "
                    "250,000 and at 1,000,000)"),
        "filiform_steps": ([3, 4, 5, 6], _STEPS, "filiform steps to scan"),
        "box": (5.0, _POS, "sampling box half-width"),
        "standoff": (1e-2, _POS, "distance kept from singular hyperplanes"),
        **_SEED,
    }),
    "sample": ("exact sampling to CCMB and CSV", {
        **_GIBBS,
        "count": _count(100_000, "0.61 GB", _MOMENT_COUNT),
        "csv_rows": (10_000, _NONNEG, "rows mirrored to CSV, 0 disables"),
        "z_budget": (0, _NONNEG, "0 skips Z; any positive value computes its closed form"),
        **_SEED,
    }),
    "ubound": ("U-bound moment fit with holdout", {
        **_GIBBS, "count": _count(200_000, "2.9 GB with as many holdout samples", _MOMENT_COUNT),
        "holdout_count": _HOLDOUT_COUNT,
        **_SEED,
    }),
    "poincare": ("q-Poincare ratio scan with holdout", {
        **_GIBBS, "count": _count(200_000, "2.8 GB with as many holdout samples", _MOMENT_COUNT),
        "holdout_count": _HOLDOUT_COUNT,
        **_SEED,
    }),
    "gap": ("Galerkin spectral-gap estimates", {
        **_GIBBS,
        "count": _count(200_000, "0.96 GB"),
        "degrees": ([2, 3], _DEGREES, "basis degrees"),
        "calibration_count": (
            0, {**_NONNEG, "maximum": 10_000_000},
            "Gaussian calibration samples, 0 skips, at most 10,000,000 (drawn and summed "
            "block by block: 0.37 GB)",
        ),
        "jackknife_blocks": (
            20, {"type": "integer", "minimum": 2}, "jackknife blocks for standard errors"
        ),
        **_SEED,
    }),
    "ball-check": ("Poincare ratios on uniform norm balls", {
        **_GROUP,
        "radii": ([1.0, 2.0, 4.0], _RADII,
                  "ball radii r; each reports r^s times the unit-ball sup, s the exponent"),
        "exponent": (None, _P_OR_NULL, "moment exponent", "3 for engel, n for filiform"),
        "count": _count(100_000, "2.6 GB", _MOMENT_COUNT),
        **_SEED,
    }),
    "localize": ("localization split and translation trick", {
        **_GIBBS,
        "count": _count(200_000, "0.62 GB", _MOMENT_COUNT),
        "radius_r": (1.0, _POS, "far-region level R"),
        "level_l": (2.0, {"type": "number", "exclusiveMinimum": 1}, "ball level L"),
        "member": ("x2", {"type": "string", "minLength": 1}, "family member label to decompose"),
        "translation_count": (10_000, {**_INT, "maximum": 1_000_000}, "annulus samples for "
                              "the shift claims, at most 1,000,000 (at step 12: 1.2 GB)"),
        **_SEED,
    }),
    "geodesic": ("distance upper bound and scan", {
        **_GROUP,
        "target": (None, {"anyOf": [_array({"type": "number"}, 4), {"type": "null"}]},
                   "comma-separated coordinates", "unit point on x1"),
        # Each start's Jacobian kernel holds two (K, 2, K, n-1) float64 tensors,
        # 32 K^2 (n-1) bytes, and the last level batches restarts + 3 starts.
        "segments": (
            None,
            {"anyOf": [{"type": "integer", "minimum": 4, "maximum": 256}, {"type": "null"}]},
            "path segments K, at least 2n+1 and at most 256 (at 256, the Jacobian "
            "kernel takes 23 MB per start at step 12)",
            "2n+1 rounded up to a power of two",
        ),
        "restarts": (
            3, {**_INT, "maximum": 16},
            "randomized restarts, at most 16 (the last level runs restarts + 3 starts "
            "at once: 0.44 GB at 256 segments and step 12)",
        ),
        "scan_points": (
            0, {**_NONNEG, "maximum": 1000},
            "points for the equivalence scan, 0 skips, at most 1000 (solved one at a "
            "time, so the scan adds 0.1 MB of points to one solve's memory)",
        ),
        "scan_box": (1.5, _POS, "scale of the scan point cloud"),
        **_SEED,
    }),
}

DEFAULTS: dict[str, dict] = {
    cmd: {key: f[0] for key, f in fields.items()} for cmd, (_, fields) in COMMANDS.items()
}
SCHEMAS: dict[str, dict] = {
    cmd: {
        "type": "object",
        "properties": {key: f[1] for key, f in fields.items()},
        "required": sorted(fields),
        "additionalProperties": False,
    }
    for cmd, (_, fields) in COMMANDS.items()
}


def config_schema_text() -> str:
    """The text of docs/config_schema.json, generated from COMMANDS."""
    doc = {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "carnotlab run configuration",
        "description": (
            "Per-command parameter schemas; a config file holds one flat object "
            "validated against the invoked command's entry. Unknown keys are "
            "rejected. Defaults listed under each command are applied before "
            "validation, so a config may set any subset of keys."
        ),
        "commands": {
            cmd: {"defaults": DEFAULTS[cmd], "schema": SCHEMAS[cmd]} for cmd in COMMANDS
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
    if hasattr(os, "sched_setaffinity"):
        try:
            current = os.sched_getaffinity(0)
            os.sched_setaffinity(0, set(sorted(current)[:n]))
        except OSError:
            pass


def _versions() -> dict:
    import scipy

    return {
        "carnotlab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
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


def _cell(value) -> str:
    # Most cells are Python floats (rows from .tolist()); an np.float64 is a
    # float subclass whose repr differs, so it takes the generic path.
    if type(value) is float:
        return repr(value)
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    return "" if value is None else str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    """`header`, then one line per row: bools lower-case, floats by repr,
    None empty, the rest by str."""
    _write_lines(path, [header, *(",".join(map(_cell, row)) for row in rows)])


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

    def finish(self, json_name: str, results: dict) -> int:
        """Write the JSON artifact and summary.txt; return the exit code."""
        results["checks"] = [
            {"id": cid, "passed": ok, "detail": detail}
            for cid, ok, detail in self.checks
        ]
        _write_json(
            self.out / json_name,
            {
                "command": self.command,
                "config": self.params,
                "versions": _versions(),
                "results": results,
            },
        )
        lines = self.summary_lines()
        _write_lines(self.out / "summary.txt", lines)
        print("\n".join(lines))
        return EXIT_PASS if self.passed else EXIT_CHECK_FAIL


def _norm_kind(params: dict) -> NormKind:
    try:
        return NormKind(params["kind"], FiliformGroup(params["step"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _measure_spec(params: dict) -> MeasureSpec:
    kind = _norm_kind(params)
    if params["p"] is None:
        # The default exponent is the step: 3 for engel, n for filiform.
        params["p"] = float(params["step"])
    try:
        return MeasureSpec(kind=kind, a=params["a"], p=params["p"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_HOLDOUT_HEADER = "label,lhs,rhs,slack,passed"


# ---------------------------------------------------------------- commands


def _uniform_row_blocks(rng: np.random.Generator, parts: int, m: int, d: int, bound: float):
    """rng.uniform(-bound, bound, size=(parts, m, d)), one `row_blocks` block at a time.

    Each block is a tuple of the parts' rows.  Part k is read from a copy of
    rng advanced past the k*m*d doubles before it (PCG64 spends one draw per
    double), and rng itself moves past all parts*m*d at once, so every block
    equals its slice of the whole draw and every later draw is unchanged.
    """
    cursors = [np.random.Generator(copy.deepcopy(rng.bit_generator).advance(k * m * d))
               for k in range(parts)]
    rng.bit_generator.advance(parts * m * d)
    return (tuple(c.uniform(-bound, bound, size=(blk.stop - blk.start, d)) for c in cursors)
            for blk in row_blocks(m))


def _group_law_defects(g: FiliformGroup, blocks) -> list[tuple[str, float]]:
    """Associativity, identity, inverse and dilation defects on row blocks (x, y, z).

    A block's products stay in cache for every check that shares them.
    Each defect, and max |x|, folds the blocks' maxima with np.maximum or
    max, which round nothing; np.maximum keeps a NaN.
    """
    assoc = ident = inv = dil = x_max = 0.0
    for xb, yb, zb in blocks:
        xy = g.compose(xb, yb)
        xy_z = g.compose(xy, zb)
        x_yz = g.compose(xb, g.compose(yb, zb))
        assoc = np.maximum(assoc, np.max(row_max_abs(xy_z - x_yz) / (row_max_abs(xy_z) + 1.0)))
        for ex in (g.compose(xb, g.identity()), g.compose(g.identity(), xb)):
            ident = np.maximum(ident, np.max(np.abs(ex - xb)))
        inv = np.maximum(inv, np.max(
            row_max_abs(g.compose(xb, g.inverse(xb))) / (row_max_abs(xb) + 1.0)))
        for lam in (0.5, 1.7):
            lhs = g.dilate(lam, xy)
            rhs = g.compose(g.dilate(lam, xb), g.dilate(lam, yb))
            dil = np.maximum(dil, np.max(row_max_abs(lhs - rhs) / (row_max_abs(lhs) + 1.0)))
        x_max = max(x_max, xb.max(), -xb.min())  # max |x|, exactly and with no copy
    ident /= float(x_max + 1.0)
    return [("alg-assoc", float(assoc)), ("alg-identity", float(ident)),
            ("alg-inverse", float(inv)), ("alg-dilation", float(dil))]


def _run_verify_algebra(params: dict, out: Path) -> int:
    ctx = RunContext("verify-algebra", params, out)
    rng = derive_rng(params["seed"], "verify-algebra")
    tolerances = {"frame-comm": params["comm_tolerance"], "frame-comm-fd": params["fd_tolerance"]}
    per_step: dict[str, dict[str, float]] = {}
    rows: list[tuple] = []

    def record(cid: str, step: int, frame: str, count: int, defect: float) -> None:
        per_step.setdefault(cid, {})[f"n{step}:{frame}"] = defect
        bound = float(tolerances.get(cid, params["tolerance"]))
        rows.append((cid, step, frame, count, defect, bound, defect <= bound))

    for n in params["steps"]:
        g = FiliformGroup(n)
        d = g.dimension
        m = params["samples"]
        # x, y and z are drawn one row block at a time, so memory does not grow with m.
        for cid, defect in _group_law_defects(g, _uniform_row_blocks(rng, 3, m, d, 3.0)):
            record(cid, n, "-", m, defect)

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
            record("frame-comm", n, frame.label, 5, comm_defect)

            fd_defect = 0.0
            probe = rng.uniform(-2.0, 2.0, size=d)
            fd_brackets = frame_commutators(frame, probe, method="fd")
            for pair, an in frame_commutators(frame, probe).items():
                fd_defect = max(fd_defect, float(np.max(np.abs(an - fd_brackets[pair]))))
            record("frame-comm-fd", n, frame.label, 1, fd_defect)

            inv_defect = 0.0
            k = params["invariance_samples"]
            for alphas, points in _uniform_row_blocks(rng, 2, k, d, 2.0):
                for residuals in invariance_residuals(frame, alphas, points):
                    inv_defect = np.maximum(inv_defect, np.max(residuals))
            record("frame-invar", n, frame.label, k, float(inv_defect))

    # Checks in the order of their first row; the worst defect folds from 0.0.
    for cid in per_step:
        mine = [row for row in rows if row[0] == cid]
        worst = max([0.0, *(row[4] for row in mine)])
        ctx.check(cid, all(row[6] for row in mine), f"worst defect {_fmt(worst)}")

    _write_csv(out / "algebra.csv", "check,step,frame,samples,defect,tolerance,passed", rows)
    return ctx.finish("algebra.json", {"defects": per_step})


def _run_verify_bounds(params: dict, out: Path) -> int:
    ctx = RunContext("verify-bounds", params, out)
    draw = (params["samples"], params["seed"], params["box"], params["standoff"])
    # One draw and one derivative jet per kind serve all of its ratios.
    reports = verify_kind(engel_kind(), ("engel-gradient", "engel-laplacian", "engel-x2-lower"),
                          *draw)
    for cid, rep in zip(("bnd-engel-grad", "bnd-engel-lap", "bnd-engel-x2"), reports):
        bound = "sup" if rep.direction == "upper" else "inf"
        ctx.check(cid, bool(rep.passed), f"{bound} {_fmt(rep.extremum)} target {_fmt(rep.target)}")

    sup_ok = True
    lower_ok = True
    lower_worst = np.inf
    for n in params["filiform_steps"]:
        grad_rep, lap_rep, low = verify_kind(
            filiform_kind(n), ("filiform-gradient", "filiform-laplacian", "filiform-x1-lower"),
            *draw,
        )
        reports.extend([grad_rep, lap_rep, low])
        sup_ok = sup_ok and np.isfinite(grad_rep.extremum) and np.isfinite(lap_rep.extremum)
        lower_ok = lower_ok and bool(low.passed)
        lower_worst = min(lower_worst, low.extremum)
    ctx.check("bnd-fil-sup", sup_ok, f"{2 * len(params['filiform_steps'])} sups recorded")
    ctx.check("bnd-fil-x1", lower_ok, f"worst inf {_fmt(lower_worst)}")

    _write_csv(out / "bounds.csv", "name,kind,step,direction,samples,extremum,target,passed,seed", [
        (r.name, r.kind_variant, r.step, r.direction, r.sample_count, r.extremum, r.target,
         r.passed, r.seed)
        for r in reports
    ])
    return ctx.finish("bounds.json", {"reports": [dataclasses.asdict(r) for r in reports]})


def _run_sample(params: dict, out: Path) -> int:
    ctx = RunContext("sample", params, out)
    spec = _measure_spec(params)
    batch = sample(spec, params["count"], seed=params["seed"])
    # a N^p is Gamma(Q/p, 1) distributed, so its mean is exactly Q/p.
    mean, se = batch_mean_se(spec.a * norm_value(spec.kind, batch.coords) ** spec.p)
    target = spec.kind.group.homogeneous_dimension / spec.p
    margin = MOMENT_SE_FACTOR * se - abs(mean - target)
    detail = f"E[a N^p] {_fmt(mean)} vs Q/p {_fmt(target)}, se {_fmt(se)}, margin {_fmt(margin)}"
    ctx.check("smp-moment", margin >= 0.0, detail)
    save_batch(out / "samples.ccmb", batch)
    rows = min(params["csv_rows"], batch.coords.shape[0])
    if rows > 0:
        # Rows go as Python floats, which format faster than NumPy scalars.
        header = "\n".join([
            f"# kind: {spec.kind.variant}",
            f"# step: {spec.kind.group.step}",
            f"# a: {spec.a!r}",
            f"# p: {spec.p!r}",
            f"# seed: {batch.seed}",
            f"# count: {rows}",
            ",".join(f"x{k}" for k in range(1, spec.kind.group.dimension + 1)),
        ])
        _write_csv(out / "samples.csv", header, batch.coords[:rows].tolist())
        ctx.note(f"samples.csv holds the first {rows} rows; samples.ccmb holds all")

    results = {
        "diagnostics": dataclasses.asdict(batch.diagnostics),
        "count": int(batch.coords.shape[0]),
        "moment": {"mean": mean, "se": se, "target": target, "margin": margin},
    }
    if params["z_budget"] > 0:
        z = estimate_Z(spec)
        margin = Z_RTOL * z.value - z.standard_error
        ctx.check(
            "smp-z",
            bool(np.isfinite(z.value)) and margin >= 0.0,
            f"Z {_fmt(z.value)} se {_fmt(z.standard_error)} via {z.method}, margin {_fmt(margin)}",
        )
        results["normalization"] = {**dataclasses.asdict(z), "margin": margin}
    return ctx.finish("sample.json", results)


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

    _write_csv(out / "ubound_train.csv", "label,a,a_se,b,b_se,c,c_se",
               map(dataclasses.astuple, report.train))
    _write_csv(out / "ubound_holdout.csv", _HOLDOUT_HEADER,
               map(dataclasses.astuple, report.holdout))
    return ctx.finish("ubound.json", {"report": dataclasses.asdict(report)})


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
    _write_csv(out / "poincare_ratios.csv", "label,ratio,ratio_se",
               map(dataclasses.astuple, report.entries))
    _write_csv(out / "poincare_holdout.csv", _HOLDOUT_HEADER,
               map(dataclasses.astuple, report.holdout))
    return ctx.finish("poincare.json", {"report": dataclasses.asdict(report)})


def _run_gap(params: dict, out: Path) -> int:
    ctx = RunContext("gap", params, out)
    spec = _measure_spec(params)
    # The jackknife needs at least two samples per block.
    floor = 2 * params["jackknife_blocks"]
    for key in ("count", "calibration_count"):
        if 0 < params[key] < floor:
            raise ConfigError(
                f"{key} {params[key]} is below the jackknife floor {floor} "
                f"(2 samples x {params['jackknife_blocks']} jackknife_blocks)"
            )
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

    _write_csv(out / "gap.csv", "mode,degree,basis_size,value,standard_error,samples", [
        (e.mode, e.degree, e.basis_size, e.value, e.standard_error, e.sample_count)
        for e in estimates + ([cal] if params["calibration_count"] > 0 else [])
    ])
    return ctx.finish("gap.json", results)


def _run_ball_check(params: dict, out: Path) -> int:
    ctx = RunContext("ball-check", params, out)
    kind = _norm_kind(params)
    exponent = params["exponent"]
    if exponent is None:
        exponent = float(params["step"])
        params["exponent"] = exponent
    family = default_family(kind, q=exponent)
    rep = ball_poincare_check(kind, exponent, family, params["count"], params["seed"])
    # Radius and exponent may be JSON integers; their columns stay floats.
    radii = [float(r) for r in params["radii"]]
    # Radius r scales the unit-ball sup by exactly r^s (see ball_poincare_check).
    # An extreme radius overflows to inf or underflows to 0 and fails ball-finite.
    with np.errstate(all="ignore"):
        sups = [float(np.float64(r) ** exponent * rep.sup_ratio) for r in radii]
    ctx.check(
        "ball-finite",
        all(np.isfinite(sup) and sup > 0 for sup in sups),
        " ".join(f"r={r:g}:{_fmt(sup)}" for r, sup in zip(radii, sups)),
    )
    _write_csv(out / "ball.csv", "radius,exponent,sup_ratio,samples,acceptance", [
        (r, float(exponent), sup, rep.sample_count, rep.acceptance_rate)
        for r, sup in zip(radii, sups)
    ])
    unit_ball = {key: val for key, val in dataclasses.asdict(rep).items() if key != "entries"}
    return ctx.finish("ball.json", {"unit_ball": unit_ball, "sup_ratios": sups})


def _run_localize(params: dict, out: Path) -> int:
    ctx = RunContext("localize", params, out)
    spec = _measure_spec(params)
    # The annulus sampler draws the top coordinate from a window 6 L^n wide.
    limit = (sys.float_info.max / 6.0) ** (1.0 / spec.kind.group.step)
    if not params["level_l"] < limit:
        raise ConfigError(
            f"level_l {params['level_l']!r} is too large: the limit at step "
            f"{spec.kind.group.step} is {limit:.6g}, where the annulus window 6 L^n "
            f"overflows float64"
        )
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
    with warnings.catch_warnings():  # the NOTE below reports empty regions
        warnings.filterwarnings("ignore", "localization regions with no samples")
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
    return ctx.finish(
        "localize.json",
        {
            "localization": dataclasses.asdict(rep),
            "translation": dataclasses.asdict(trn),
        },
    )


def _run_geodesic(params: dict, out: Path) -> int:
    ctx = RunContext("geodesic", params, out)
    kind = _norm_kind(params)
    group = kind.group
    if params["target"] is None:
        params["target"] = [1.0] + [0.0] * group.step
    target = np.asarray(params["target"], dtype=np.float64)
    if target.shape != (group.dimension,):
        raise ConfigError(
            f"target needs {group.dimension} coordinates for step {group.step}"
        )
    if not np.all(np.isfinite(target)):
        raise ConfigError("target coordinates must be finite")
    with np.errstate(over="ignore"):
        nval = float(norm_value(kind, target))
    # The path optimiser squares endpoint residuals of size up to N^n.
    limit = sys.float_info.max ** (1.0 / (2 * group.step))
    if not nval < limit:
        raise ConfigError(
            f"target {params['target']} is too large: its norm {nval!r} reaches "
            f"{limit:.6g}, where N^(2n) overflows float64"
        )
    if params["segments"] is None:
        params["segments"] = default_segments(group.step)
    if params["segments"] < 2 * group.step + 1:
        raise ConfigError(
            f"segments must be at least {2 * group.step + 1} for step {group.step}"
        )
    if params["scan_points"] > 0:
        rng = derive_rng(params["seed"], "geodesic-scan-points")
        pts = rng.normal(scale=params["scan_box"], size=(params["scan_points"], group.dimension))
        with np.errstate(over="ignore"):
            norms = norm_value(kind, pts)
        if not np.all(norms < limit):
            raise ConfigError(
                f"scan_box {params['scan_box']:g} is too large: a scan point's norm "
                f"{float(np.max(norms))!r} reaches {limit:.6g}, where N^(2n) overflows float64"
            )
        scan_pts = pts[norms > SCAN_NORM_FLOOR]
        if scan_pts.shape[0] == 0:
            raise ConfigError(
                f"no scan point has norm above {SCAN_NORM_FLOOR:g}; "
                f"scan_box {params['scan_box']:g} is too small"
            )
    est = approx_distance(
        GroupPoint(group, target),
        k_segments=params["segments"],
        restarts=params["restarts"],
        seed=params["seed"],
    )
    ctx.check(
        "geo-residual",
        est.residual <= RESIDUAL_REPORT_FACTOR * (1.0 + nval),
        f"value {_fmt(est.value)} residual {_fmt(est.residual)} "
        f"segments {est.segments}",
    )
    # One row per segment: its controls, then the state after it.
    _write_csv(
        out / "geodesic_path.csv",
        "segment,u1,u2," + ",".join(f"x{k}" for k in range(1, group.dimension + 1)),
        ((s, *u, *x) for s, (u, x) in enumerate(zip(est.path.controls, est.path.states()))),
    )
    results = {
        "value": est.value,
        "residual": est.residual,
        "segments": est.segments,
        "iterations": est.iterations,
        "norm": nval,
    }

    if params["scan_points"] > 0:
        band = equivalence_scan(
            kind, scan_pts, k_segments=params["segments"], seed=params["seed"],
            restarts=params["restarts"],
        )
        ctx.check(
            "geo-band",
            band.ratio_min > 0 and np.isfinite(band.ratio_max),
            f"ratios in [{_fmt(band.ratio_min)}, {_fmt(band.ratio_max)}] "
            f"on {band.count} points",
        )
        results["scan"] = dataclasses.asdict(band)

    return ctx.finish("geodesic.json", results)


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


_FLAG_TYPES = {"integer": int, "number": float, "string": str}
_LIST_TYPES = {"integer": _int_list, "number": _float_list}


def _flag_type(schema: dict) -> dict:
    """argparse keywords that parse a flag value of this schema."""
    schema = schema.get("anyOf", [schema])[0]
    if "enum" in schema:
        return {"choices": schema["enum"]}
    if schema["type"] == "array":
        return {"type": _LIST_TYPES[schema["items"]["type"]]}
    return {"type": _FLAG_TYPES[schema["type"]]}


def _flag_help(text: str, default, prose: str | None = None) -> str:
    if prose is None:
        prose = ",".join(map(str, default)) if isinstance(default, list) else str(default)
    return f"{text} (default: {prose})"


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
            "affinity."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--dump-schema", action="store_true",
        help="print the config schema document (docs/config_schema.json) and exit",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (summary, fields) in COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument(
            "--out", default=None,
            help="output directory (default: carnotlab-out/<command>)",
        )
        sub.add_argument("--config", default=None, help="JSON config file")
        for key, (default, schema, text, *prose) in fields.items():
            sub.add_argument(
                "--" + key.replace("_", "-"), dest=key,
                help=_flag_help(text, default, *prose), **_flag_type(schema),
            )
    return parser


# ------------------------------------------------------- config validation
#
# jsonschema's Draft 2020-12 verdict and `best_match` message for the
# keywords SCHEMAS uses, without importing jsonschema: the same checks in
# the same order with the same messages, and the same choice among them.
# tests/test_config_validation.py checks it against jsonschema itself.

_TYPES = {
    "array": lambda v: isinstance(v, list),
    # As in Draft 6 on, a float with an integral value is an integer.
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


@dataclasses.dataclass(frozen=True)
class _SchemaError:
    message: str
    path: tuple  # into the instance the enclosing anyOf tested, else into the config
    keyword: str
    off_type: bool  # the failing schema names no "type", or one the value is not
    context: tuple = ()  # an anyOf's errors, one option after another


_TRUE, _FALSE = object(), object()


def _unbool(value):
    """A bool as a token equal only to itself, so True and 1 differ."""
    return _TRUE if value is True else _FALSE if value is False else value


def _equal(one, two) -> bool:
    """JSON equality: bools differ from numbers, lists and objects compare item by item."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(k in two and _equal(v, two[k]) for k, v in one.items())
    return _unbool(one) == _unbool(two)


def _unique(items: list) -> bool:
    # Sorted neighbours when the items sort, else every pair, as jsonschema
    # does; on the sorted path a NaN equals only the same NaN object beside it.
    items = [_unbool(item) for item in items]
    try:
        ordered = sorted(items)
    except TypeError:
        return not any(_equal(a, b) for k, b in enumerate(items) for a in items[:k])
    return not any(map(_equal, ordered, ordered[1:]))


def _keyword_messages(keyword: str, arg, value, schema: dict) -> list[str]:
    """Messages of one non-descending keyword, in jsonschema's words."""
    is_a = lambda name: _TYPES[name](value)  # noqa: E731
    if keyword == "type":
        return [] if is_a(arg) else [f"{value!r} is not of type {arg!r}"]
    if keyword == "enum":
        if any(_equal(each, value) for each in arg):
            return []
        return [f"{value!r} is not one of {arg!r}"]
    if keyword in ("minimum", "maximum", "exclusiveMinimum"):
        if not is_a("number"):
            return []
        if keyword == "minimum" and value < arg:
            return [f"{value!r} is less than the minimum of {arg!r}"]
        if keyword == "maximum" and value > arg:
            return [f"{value!r} is greater than the maximum of {arg!r}"]
        if keyword == "exclusiveMinimum" and value <= arg:
            return [f"{value!r} is less than or equal to the minimum of {arg!r}"]
        return []
    if keyword in ("minItems", "minLength"):
        if is_a("array" if keyword == "minItems" else "string") and len(value) < arg:
            return [f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"]
        return []
    if keyword == "uniqueItems":
        if arg and is_a("array") and not _unique(value):
            return [f"{value!r} has non-unique elements"]
        return []
    if keyword == "required":
        missing = [key for key in arg if key not in value] if is_a("object") else []
        return [f"{key!r} is a required property" for key in missing]
    if keyword == "additionalProperties":
        if arg is not False or not is_a("object"):
            return []
        extras = sorted(key for key in value if key not in schema.get("properties", {}))
        if not extras:
            return []
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(map(repr, extras))
        return [f"Additional properties are not allowed ({names} {verb} unexpected)"]
    raise KeyError(f"schema keyword {keyword!r} is not implemented")


def _schema_errors(value, schema: dict):
    """The errors jsonschema's iter_errors yields for `value`, in its order."""
    off_type = "type" not in schema or not _TYPES[schema["type"]](value)
    for keyword, arg in schema.items():
        if keyword in ("properties", "items"):
            children = []
            if keyword == "properties" and _TYPES["object"](value):
                children = [(key, value[key], arg[key]) for key in arg if key in value]
            elif keyword == "items" and _TYPES["array"](value):
                children = [(index, item, arg) for index, item in enumerate(value)]
            for step, item, subschema in children:
                for error in _schema_errors(item, subschema):
                    yield dataclasses.replace(error, path=(step, *error.path))
        elif keyword == "anyOf":
            context = []
            for option in arg:
                errors = list(_schema_errors(value, option))
                if not errors:
                    break
                context += errors
            else:
                yield _SchemaError(f"{value!r} is not valid under any of the given schemas",
                                   (), keyword, off_type, tuple(context))
        else:
            for message in _keyword_messages(keyword, arg, value, schema):
                yield _SchemaError(message, (), keyword, off_type)


def _relevance(error: _SchemaError) -> tuple:
    """jsonschema's `relevance` key.  `_schema_message` takes the greatest:
    the shallowest error, then the last sibling, then not an anyOf; inside an
    anyOf's context it takes the least: the deepest, then one whose schema's
    type the value has."""
    return (-len(error.path), error.path, error.keyword != "anyOf", error.off_type)


def _schema_message(value, schema: dict) -> str | None:
    """jsonschema's `best_match(...).message` for `value`, or None when it is valid."""
    best = max(_schema_errors(value, schema), key=_relevance, default=None)
    if best is None:
        return None
    # Into an anyOf's context, unless its two least errors tie.
    while best.context:
        first, *second = sorted(best.context, key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        best = first
    return best.message


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
    message = _schema_message(params, SCHEMAS[command])
    if message is not None:
        raise ConfigError(f"[cfg-schema] {message}")
    for key, schema in SCHEMAS[command]["properties"].items():
        params[key] = _as_floats(key, params[key], schema)
    return params


def _as_floats(key: str, value, schema: dict):
    """A validated value with each JSON number in a "number" slot made a finite float.

    JSON integers have no size limit, and Python's JSON reader turns 1e400
    into inf and reads NaN and Infinity; all of them pass the schema's
    bounds, so they are rejected here rather than deep in a command.
    """
    for option in schema.get("anyOf", [schema]):
        if option.get("type") == "array" and isinstance(value, list):
            return [_as_floats(key, item, option["items"]) for item in value]
        if option.get("type") == "number" and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if not math.isfinite(number):
                raise ConfigError(f"[cfg-schema] {key} holds a number that is not a finite float64")
            return number
    return value


def _input_errors() -> tuple:
    """ConfigError, and bounds.EmptyDomainError once bounds is loaded (nothing else raises it)."""
    bounds = sys.modules.get(f"{__package__}.bounds")
    return (ConfigError,) if bounds is None else (ConfigError, bounds.EmptyDomainError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_schema:
        sys.stdout.write(config_schema_text())
        return EXIT_PASS
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT_ERROR
    try:
        _apply_thread_cap()
        params = _resolve_params(args.command, args)
        out = Path(args.out) if args.out else Path("carnotlab-out") / args.command
        out.mkdir(parents=True, exist_ok=True)
        for module in _COMMAND_MODULES[args.command]:
            _load(module)
        return RUNNERS[args.command](params, out)
    except _input_errors() as exc:
        print(f"carnotlab: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # These cover LinAlgError (a ValueError), carnotlab's RuntimeErrors and sizes too big for RAM.
    except (ArithmeticError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"carnotlab: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
