"""carnotlab benchmark: CLI workloads timed end to end, plus a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload pointwise|certify|distance \
        --seed N --seconds S --trace 0|1

The benchmark imports carnotlab from ./src and calls `carnotlab.cli.main`
in-process, one pass of the workload's operations after another, as many
as fit in S seconds.  Every operation's outputs are checked: its exit
code, every `[check-id]` line, the workload's own checks in workloads.py,
and the SHA-256 of its artifacts, which must repeat exactly on every pass.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: set-up
time (median of fresh processes importing carnotlab.cli and building its
parser), the median pass time in reference units, peak resident memory
and the share of operations that passed.  A fixed reference kernel (an
interpreter loop plus memory-bound numpy sweeps, no carnotlab code) is
timed before every operation, and `run_ref` is the pass time divided by
the reference time of the same pass: on a shared host whose CPU speed
drifts by a third over a minute, raw pass seconds spread by 20-35% across
runs, while the ratio cancels most of the drift.  Raw pass seconds are in
the record line.  The first pass in a process runs slower while
allocations and lazily loaded code settle, so it is a warm-up whose time
counts only when no other pass fits.  --trace 1 runs one warm-up pass,
then alternates untraced and traced passes, and reports the per-layer
metrics from the traced ones (see layers.py), operation latencies from the
untraced ones, the tracing overhead, the share of traced time no layer
span covers, and how many of the workload's known failures still fail.

Every metric is printed as `metric <name> = <value> <unit>`, after one
`record` line of run facts (machine, versions, thread caps, seed, src/
line count, pass times, artifact digests).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Artifacts and the span dump go to ./bench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"
SPEC = ROOT / "BENCHMARK.json"

# Pools are capped before numpy loads: CARNOT_THREADS would set these only
# after import, and applying it in-process would also pin the benchmark's
# CPU affinity, so it is removed from the environment.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = "1"
SETUP_REPEATS = 3
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import carnotlab.cli\n"
    "carnotlab.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
CHECK_LINE = re.compile(r"^\[([a-z0-9-]+)\] (PASS|FAIL)\b", re.MULTILINE)
# The reference kernel timed before every operation: an interpreter loop and
# memory-bound sweeps over a 1M-float buffer, about 45 ms together.
REFERENCE_LOOP = 200_000
REFERENCE_SWEEPS = 4
REFERENCE_POINTS = 1_000_000


def _parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _prepare_environment() -> None:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("CARNOT_THREADS", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def _measure_setup() -> list[float]:
    """Fresh-process import of carnotlab.cli plus build_parser(), in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact (relative name and bytes), and their size."""
    sha = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        sha.update(path.relative_to(out).as_posix().encode() + b"\0")
        sha.update(data)
        size += len(data)
    return sha.hexdigest(), size


def _reference_seconds(buf) -> float:
    """Time one run of the reference kernel, which carnotlab never touches."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    for _ in range(REFERENCE_SWEEPS):
        float(np.sum(np.sqrt(np.abs(buf) + 1.0)))
    return perf_counter() - start


def _call_cli(argv: list[str], stdout: io.StringIO, stderr=None) -> tuple[int | None, list[str]]:
    """Run `carnotlab.cli.main` in-process; an escaped exception is a problem."""
    import carnotlab.cli as cli

    problems = []
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr or sys.stderr):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # reported as a failed operation, never raised
        rc = None
        problems.append("exception:\n" + traceback.format_exc())
    return rc, problems


class Runner:
    """Runs passes of one workload's operations and checks their outputs."""

    def __init__(self, workload: str, seed: int):
        from workloads import WORKLOADS

        self.ops = WORKLOADS[workload](seed)
        self.out = OUT / workload
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.observed: dict = {}
        self.artifact_bytes = 0
        import numpy as np

        self._reference_buf = np.random.default_rng(0).normal(size=REFERENCE_POINTS)

    def _run_op(self, op, observed: dict) -> tuple[float, list[str], int]:
        import carnotlab.cli as cli

        out = self.out / op.label
        if out.exists():
            shutil.rmtree(out)
        captured: list = []
        original = getattr(cli, op.capture) if op.capture else None
        if original is not None:

            def capture(*args, **kwargs):
                result = original(*args, **kwargs)
                captured.append(result)
                return result

            setattr(cli, op.capture, capture)
        stdout = io.StringIO()
        start = perf_counter()
        try:
            rc, problems = _call_cli([*op.argv, "--out", str(out)], stdout)
        finally:
            latency = perf_counter() - start
            if original is not None:
                setattr(cli, op.capture, original)

        if rc != 0:
            problems.append(f"exit code {rc}")
        checks = CHECK_LINE.findall(stdout.getvalue())
        if not checks and rc == 0:
            problems.append("no [check-id] lines printed")
        problems += [f"[{cid}] FAIL" for cid, verdict in checks if verdict == "FAIL"]
        if rc == 0 and op.check is not None:
            try:
                problems += op.check(out, captured, observed)
            except Exception:  # a check that cannot read its inputs fails the op
                problems.append("check raised:\n" + traceback.format_exc())
        digest, size = _digest(out) if out.exists() else ("", 0)
        if self.digests.setdefault(op.label, digest) != digest:
            problems.append("artifacts differ from the first pass with this seed")
        return latency, problems, size

    def run_pass(self) -> tuple[float, list[float], float]:
        """One pass over every operation: (wall seconds without the reference
        kernel, op latencies, reference kernel seconds)."""
        observed: dict = {}
        latencies = []
        artifact_bytes = 0
        reference = 0.0
        start = perf_counter()
        for op in self.ops:
            reference += _reference_seconds(self._reference_buf)
            latency, problems, size = self._run_op(op, observed)
            latencies.append(latency)
            artifact_bytes += size
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {op.label}: " + "; ".join(problems), file=sys.stderr)
        wall = perf_counter() - start - reference
        self.observed = observed
        self.artifact_bytes = artifact_bytes
        return wall, latencies, reference


def _fits(elapsed: float, next_pass: float, seconds: float) -> bool:
    return elapsed + next_pass <= seconds


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def _run_record(args, runner: Runner) -> dict:
    import numpy
    import scipy

    import carnotlab

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(affinity) if affinity is not None else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "carnotlab": carnotlab.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "src_lines": _src_lines(),
        "ops_per_pass": len(runner.ops),
        "artifact_sha256": runner.digests,
    }


def _distance_ratios(observed: dict) -> dict[str, float]:
    """Median and maximum of distance bound / homogeneous norm, else zero."""
    ratios = observed.get("geo_ratios", [])
    if not ratios:
        return {"geodesics.ratio_p50": 0.0, "geodesics.ratio_max": 0.0}
    return {
        "geodesics.ratio_p50": statistics.median(ratios),
        "geodesics.ratio_max": max(ratios + observed.get("scan_ratio_max", [])),
    }


def _end_to_end(args) -> tuple[Runner, dict, dict]:
    setup = _measure_setup()
    runner = Runner(args.workload, args.seed)
    walls: list[float] = []
    latencies: list[list[float]] = []
    references: list[float] = []
    start = perf_counter()
    while not walls or _fits(perf_counter() - start, statistics.median(walls), args.seconds):
        wall, lat, reference = runner.run_pass()
        walls.append(wall)
        latencies.append(lat)
        references.append(reference)
    # The first pass in a process is a warm-up; it is reported only if it
    # is the only pass that fit.
    timed = slice(1, None) if len(walls) > 1 else slice(None)
    run_s = statistics.median(walls[timed])
    values = {
        "setup_s": statistics.median(setup),
        "run_ref": statistics.median(
            w / r for w, r in zip(walls[timed], references[timed])
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    record = _run_record(args, runner)
    record.update(
        setup_samples_s=setup,
        setup_s_quartiles=_quartiles(setup),
        run_s=run_s,
        pass_s=walls,
        pass_s_quartiles=_quartiles(walls[timed]),
        reference_s=references,
        op_latency_s={op.label: list(lat) for op, lat in zip(runner.ops, zip(*latencies))},
        **_distance_ratios(runner.observed),
    )
    return runner, values, record


def _probe_known_failures(workload: str, seed: int) -> tuple[float, dict[str, int | None]]:
    """Run the workload's known failures once, untraced; count those still failing."""
    from workloads import KNOWN_FAILURES

    codes = {}
    for label, argv in KNOWN_FAILURES.get(workload, {}).items():
        out = OUT / workload / "known-failures" / label
        rc, _ = _call_cli([*argv, "--seed", str(seed), "--out", str(out)],
                          io.StringIO(), io.StringIO())
        codes[label] = rc
    return float(sum(1 for rc in codes.values() if rc != 0)), codes


def _layers(args, names: list[str]) -> tuple[Runner, dict, dict]:
    from layers import Tracer, layer_metrics

    runner = Runner(args.workload, args.seed)
    tracer = Tracer()
    plain: list[float] = []
    plain_latencies: list[list[float]] = []
    traced: list[float] = []
    start = perf_counter()
    # Both sides of the overhead comparison must be warm passes.
    warmup = runner.run_pass()[0]
    while True:
        if len(traced) < len(plain):
            tracer.pass_id = len(traced)
            tracer.install()
            try:
                traced.append(runner.run_pass()[0])
            finally:
                tracer.uninstall()
        else:
            wall, latencies, _ = runner.run_pass()
            plain.append(wall)
            plain_latencies.append(latencies)
        upcoming = traced if len(traced) < len(plain) else plain
        if traced and not _fits(perf_counter() - start, statistics.median(upcoming), args.seconds):
            break

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"{args.workload}-spans.csv")
    open_failures, probe_codes = _probe_known_failures(args.workload, args.seed)
    extra = {
        "cli.artifact_bytes": float(runner.artifact_bytes),
        "cli.op_p50_s": statistics.median(statistics.median(p) for p in plain_latencies),
        "cli.op_max_s": statistics.median(max(p) for p in plain_latencies),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.uncovered_share": 1.0 - tracer.covered_time() / sum(traced),
        "known_failures.open": open_failures,
        **_distance_ratios(runner.observed),
    }
    values = layer_metrics(tracer, len(traced), extra, names)
    record = _run_record(args, runner)
    record.update(
        warmup_pass_s=warmup,
        untraced_pass_s=plain,
        traced_pass_s=traced,
        op_latency_samples=len(plain) * len(runner.ops),
        spans=len(tracer.spans),
        known_failure_exit_codes=probe_codes,
    )
    return runner, values, record


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "carnotlab" / "__init__.py").is_file():
        print(f"bench: no carnotlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    _prepare_environment()
    if (OUT / args.workload).exists():
        shutil.rmtree(OUT / args.workload)

    if args.trace:
        runner, values, record = _layers(args, [m["name"] for m in wanted])
    else:
        runner, values, record = _end_to_end(args)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
