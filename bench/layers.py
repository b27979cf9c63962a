"""In-memory span tracing of carnotlab's layers, installed from outside.

Nothing in the library is edited: `Tracer.install()` replaces the public
functions of each layer module with wrappers, on the module itself and on
every carnotlab module that imported the same object under its own name
(for example both `carnotlab.inequalities.ubound_fit` and
`carnotlab.cli.ubound_fit`).  `Tracer.uninstall()` puts every original
back, so untraced passes run the library exactly as shipped.

A span records its name, start, end, parent span and pass id.  Spans stay
in memory until `write_spans`; per-layer metrics are derived from them
after the run.  A layer's self time is its span durations minus the time
its child spans cover; calls run on one thread, so children nest strictly
and their durations simply add.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from time import perf_counter

_FLOAT = 8  # bytes per float64

# Kernel spans whose points and computed bytes are recorded: span name ->
# float64 columns returned per point.  Each takes its point batch last.
_KERNEL_OUT_COLS = {
    "norms.norm_value": 1,
    "norms.kernel": 1,
    "calculus.first": 2,
    "calculus.second": 2,
}


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _cols(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[-1]) if shape else 0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, pass_id]
        self.counts: dict[str, float] = {}
        self.pass_id = -1
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def span(self, name: str, fn, after=None):
        """Wrap `fn` so every call records a span; `after(args, kwargs, result)`
        may add counts once the call returns."""
        spans = self.spans
        stack = self._stack
        opened = self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id])
            stack.append(idx)
            opened[name] = opened.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                opened[name] -= 1
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap `fn` with a call count only: a span on a call this frequent
        would distort the trace."""

        def wrapper(*args, **kwargs):
            self._add(name + ".calls", 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, module, attr: str, make, skip=()) -> None:
        """Replace `module.attr` and every carnotlab alias of the same object."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name in skip:
                continue
            if mod_name != "carnotlab" and not mod_name.startswith("carnotlab."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapped)

    def install(self) -> None:
        import carnotlab.bounds as bounds
        import carnotlab.calculus as calculus
        import carnotlab.cli as cli
        import carnotlab.family as family
        import carnotlab.frames as frames
        import carnotlab.geodesics as geodesics
        import carnotlab.group as group
        import carnotlab.inequalities as inequalities
        import carnotlab.measures as measures
        import carnotlab.norms as norms

        if self._patches:
            raise RuntimeError("tracer already installed")

        self._patch(group.FiliformGroup, "compose", self.span(
            "group.compose", group.FiliformGroup.compose,
            lambda a, k, r: self._add("group.compose.points", _rows(r))))

        for name in ("check_invariance", "commutator_table"):
            self._patch_everywhere(frames, name, lambda f, n=name: self.span(f"frames.{n}", f))

        self._patch_everywhere(norms, "norm_value", lambda f: self.span(
            "norms.norm_value", f, self._kernel_after("norms.norm_value")))
        # The closed-form norms themselves, which the derivative tables call
        # directly rather than through norm_value.
        for name in ("engel_norm", "filiform_norm"):
            self._patch_everywhere(norms, name, lambda f: self.span(
                "norms.kernel", f, self._kernel_after("norms.kernel")))

        for cls in (calculus.EngelNormTable, calculus.FiliformNormTable):
            for name in ("first", "second"):
                self._patch(cls, name, self.span(
                    f"calculus.{name}", vars(cls)[name], self._kernel_after(f"calculus.{name}")))

        for name in (
            "verify_engel_gradient_bound",
            "verify_engel_laplacian_bound",
            "verify_engel_x2_lower",
            "verify_filiform_bounds",
            "verify_filiform_x1_lower",
        ):
            self._patch_everywhere(bounds, name, lambda f: self.span(
                "bounds.verify", f, self._bounds_after))
        self._patch_everywhere(bounds, "stratified_smooth_samples",
                               lambda f: self.span("bounds.stratified_smooth_samples", f))

        self._patch_everywhere(measures, "sample", lambda f: self.span(
            "measures.sample", f, self._sample_after))
        self._patch_everywhere(measures, "estimate_Z", lambda f: self.span("measures.estimate_Z", f))
        self._patch_everywhere(measures, "save_batch", lambda f: self.span(
            "measures.save_batch", f, self._file_bytes_after("measures.save_batch")))
        self._patch_everywhere(measures, "load_batch", lambda f: self.span(
            "measures.load_batch", f, self._file_bytes_after("measures.load_batch")))

        # Members built inside carnotlab.family (bases of bumps, shifts and
        # rescales) stay unwrapped, so each top-level member call is one span.
        for name in ("default_family", "monomial_member"):
            self._patch_everywhere(family, name, self._member_wrapping, skip=("carnotlab.family",))

        for name in (
            "ubound_fit",
            "poincare_scan",
            "spectral_gap_galerkin",
            "gaussian_calibration_gap",
            "localization_decomposition",
            "translation_trick_check",
        ):
            self._patch_everywhere(inequalities, name, lambda f, n=name: self.span(f"inequalities.{n}", f))
        self._patch_everywhere(inequalities, "ball_poincare_check", lambda f: self.span(
            "inequalities.ball_poincare_check", f, self._ball_after))

        self._patch_everywhere(geodesics, "approx_distance", lambda f: self.span(
            "geodesics.approx_distance", f, self._distance_after))
        self._patch_everywhere(geodesics, "equivalence_scan",
                               lambda f: self.span("geodesics.equivalence_scan", f))
        self._patch_everywhere(geodesics, "endpoint_and_jacobian",
                               lambda f: self.counter("geodesics.endpoint_and_jacobian", f))

        self._patch_everywhere(cli, "main", lambda f: self.span("cli.main", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------ count hooks

    def _kernel_after(self, name: str):
        out_cols = _KERNEL_OUT_COLS[name]

        def after(args, kwargs, result):
            x = args[-1]
            points = _rows(x)
            self._add(name + ".points", points)
            self._add(name + ".computed_bytes_in", points * _cols(x) * _FLOAT)
            self._add(name + ".computed_bytes_out", points * out_cols * _FLOAT)
            if name == "norms.norm_value" and self._open.get("measures.estimate_Z"):
                self._add("measures.estimate_Z.evals", points)

        return after

    def _bounds_after(self, args, kwargs, result) -> None:
        report = result[0] if isinstance(result, tuple) else result
        self._add("bounds.verify.points", report.sample_count)

    def _sample_after(self, args, kwargs, batch) -> None:
        self._add("measures.sample.points", len(batch))
        self._add("measures.sample.accepted", batch.diagnostics.acceptance_rate * len(batch))
        self._add("measures.sample.ess", batch.diagnostics.effective_samples)

    def _file_bytes_after(self, name: str):
        def after(args, kwargs, result):
            self._add(name + ".bytes", os.path.getsize(args[0]))

        return after

    def _ball_after(self, args, kwargs, report) -> None:
        self._add("inequalities.ball_poincare_check.accept_weighted",
                  report.acceptance_rate * report.sample_count)
        self._add("inequalities.ball_poincare_check.samples", report.sample_count)

    def _distance_after(self, args, kwargs, estimate) -> None:
        self._add("geodesics.iterations", estimate.iterations)
        self._add("geodesics.approx_distance.feasible", 1)

    def _member_wrapping(self, make_fn):
        def wrap_member(member):
            return dataclasses.replace(
                member,
                value=self.span("family.value", member.value),
                gradient=self.span("family.gradient", member.gradient),
            )

        def wrapper(*args, **kwargs):
            made = make_fn(*args, **kwargs)
            if hasattr(made, "members"):
                return dataclasses.replace(made, members=tuple(wrap_member(m) for m in made.members))
            return wrap_member(made)

        wrapper.__wrapped__ = make_fn
        return wrapper

    # --------------------------------------------------------- reduction

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[idx]
        return totals

    def call_counts(self) -> dict[str, int]:
        calls: dict[str, int] = {}
        for name, *_ in self.spans:
            calls[name] = calls.get(name, 0) + 1
        return calls

    def covered_time(self) -> float:
        """Time covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,pass\n")
            for idx, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent},{pass_id}\n")


def layer_metrics(
    tracer: Tracer, traced_passes: int, extra: dict[str, float], names: list[str]
) -> dict[str, float]:
    """Per-pass values of the named layer metrics, from the traced passes.

    A name is `<layer>.<function>.<quantity>`: quantity `s` is self time,
    `calls` a span count, anything else a count the wrappers recorded.
    Times and counts are totals divided by the number of traced passes;
    ratios are pooled over every call.  `extra` supplies values measured
    outside the spans.  A layer the workload never reaches reads zero.
    """
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    ratios = {
        "norms.norm_value.points_per_call": (
            counts.get("norms.norm_value.points", 0.0), calls.get("norms.norm_value", 0)),
        "measures.sample.acceptance": (
            counts.get("measures.sample.accepted", 0.0), counts.get("measures.sample.points", 0.0)),
        "measures.sample.ess_ratio": (
            counts.get("measures.sample.ess", 0.0), counts.get("measures.sample.points", 0.0)),
        "geodesics.feasible_ratio": (
            counts.get("geodesics.approx_distance.feasible", 0.0),
            calls.get("geodesics.approx_distance", 0)),
        "inequalities.ball_poincare_check.acceptance": (
            counts.get("inequalities.ball_poincare_check.accept_weighted", 0.0),
            counts.get("inequalities.ball_poincare_check.samples", 0.0)),
    }
    values: dict[str, float] = {}
    for key in names:
        base, _, quantity = key.rpartition(".")
        if key in extra:
            values[key] = extra[key]
        elif key in ratios:
            num, den = ratios[key]
            values[key] = num / den if den else 0.0
        elif quantity == "s":
            values[key] = selfs.get(base, 0.0) / traced_passes
        elif quantity == "calls" and base in calls:
            values[key] = calls[base] / traced_passes
        else:
            values[key] = counts.get(key, 0.0) / traced_passes
    return values
