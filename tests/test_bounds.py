"""Bound verifiers: targets met, determinism, scale invariance, reports."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from carnotlab import bounds, calculus
from carnotlab.bounds import (
    DEFAULT_BOX,
    DEFAULT_STANDOFF,
    EmptyDomainError,
    stratified_smooth_samples,
    verify_engel_gradient_bound,
    verify_engel_laplacian_bound,
    verify_engel_x2_lower,
    verify_filiform_bounds,
    verify_filiform_x1_lower,
    verify_kind,
)
from carnotlab.calculus import norm_derivative_tables
from carnotlab.cli import main
from carnotlab.norms import (
    ENGEL,
    engel_kind,
    engel_seminorm,
    filiform_kind,
    filiform_seminorm,
    norm_value,
    smooth_mask,
)
from test_member_batch import _traced_peak

SAMPLES = 60_000  # acceptance reruns these at full scale


class TestSampling:
    def test_counts_and_smoothness(self):
        kind = engel_kind()
        pts = stratified_smooth_samples(kind, 20_000, seed=1)
        assert pts.shape == (20_000, 4)
        assert np.all(smooth_mask(kind, pts))
        assert np.all(np.abs(pts[:, 2]) >= 1e-2 - 1e-12)
        assert np.all(np.abs(pts[:, 3]) >= 1e-2 - 1e-12)

    def test_shell_points_present(self):
        kind = engel_kind()
        pts = stratified_smooth_samples(kind, 20_000, seed=1)
        assert np.any(np.isclose(np.abs(pts[:, 2]), 1e-2))
        assert np.any(np.isclose(np.abs(pts[:, 3]), 1e-2))

    @pytest.mark.parametrize("d", range(4, 14))
    def test_halton_matches_scipy(self, d):
        from scipy.stats import qmc

        for count in (1, 2, 7, 1_000, 250_000):
            ours = bounds._halton(d, count)
            ref = qmc.Halton(d=d, scramble=False).random(count)
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes(), (d, count)

    def test_shells_are_seed_independent(self):
        kind = filiform_kind(4)
        a = stratified_smooth_samples(kind, 5_000, seed=1)
        b = stratified_smooth_samples(kind, 5_000, seed=2)
        # Shell block leads the array and matches; bulk differs.
        n_shell = sum(
            1 for r in a if any(np.isclose(abs(c), 1e-2, atol=1e-15) for c in r)
        )
        assert n_shell > 0
        np.testing.assert_array_equal(a[:n_shell], b[:n_shell])
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("count", [100, 20_000])
    def test_draw_holds_no_surplus_rows(self, count):
        # The returned array must not keep a surplus of drawn rows alive.
        # Count 100 is cut from the shells: seven singular axes with at
        # least 16 shell rows each.
        pts = stratified_smooth_samples(filiform_kind(6), count, seed=1)
        owner = pts if pts.base is None else pts.base
        assert pts.shape[0] == count
        assert owner.shape[0] == count

    def test_determinism(self):
        kind = engel_kind()
        a = stratified_smooth_samples(kind, 10_000, seed=5)
        b = stratified_smooth_samples(kind, 10_000, seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", [engel_kind(), filiform_kind(4)], ids=["engel", "fil4"])
    def test_bulk_is_uniform_on_the_admissible_set(self, kind):
        # On every singular axis |x_j| of a bulk row is uniform on
        # [standoff, box], with mean (box + standoff) / 2.
        box, standoff, count = 1.0, 0.5, 20_000
        axes = kind.singular_axes
        pts = stratified_smooth_samples(kind, count, seed=7, box=box, standoff=standoff)
        # count // (4 * len(axes)) shell rows per axis lead the array.
        bulk = np.abs(pts[len(axes) * (count // (4 * len(axes))):, list(axes)])
        assert bulk.shape[0] >= count // 2
        assert np.all((bulk >= standoff) & (bulk <= box))
        se = bulk.std(axis=0, ddof=1) / math.sqrt(bulk.shape[0])
        assert np.all(np.abs(bulk.mean(axis=0) - (box + standoff) / 2) <= 4 * se)


def test_wide_standoff_verify_bounds_exits_promptly(tmp_path):
    # Rejecting uniform bulk candidates kept one in 0.1^7 here, and the
    # command ran until killed.
    src = str(Path(bounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "carnotlab.cli", "verify-bounds", "--samples", "1000",
         "--box", "1", "--standoff", "0.9", "--filiform-steps", "6", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _decades(lo: int, hi: int):
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.0), st.integers(lo, hi))


# The standoff is drawn as a multiple of the box, from 1e-6 up to 9, so about
# one draw in seven leaves no admissible point.
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=st.integers(1, 2_000), box=_decades(-4, 2), ratio=_decades(-6, 0),
       steps=st.lists(st.integers(3, 12), min_size=1, max_size=3, unique=True))
@example(samples=1_000, box=1.0, ratio=0.9, steps=[6])
@example(samples=2_000, box=0.01, ratio=1.0, steps=[12])
def test_verify_bounds_flags_keep_the_exit_contract(tmp_path, samples, box, ratio, steps):
    code = main([
        "verify-bounds", "--samples", str(samples), "--box", repr(box),
        "--standoff", repr(ratio * box), "--filiform-steps", ",".join(map(str, steps)),
        "--out", str(tmp_path),
    ])
    assert code in {0, 2, 3, 4}


class TestEngelBounds:
    def test_gradient_bound(self):
        rep = verify_engel_gradient_bound(samples=SAMPLES, seed=0)
        assert rep.passed is True
        assert rep.extremum <= math.sqrt(5.0)
        assert rep.target == pytest.approx(math.sqrt(5.0))
        assert rep.sample_count == SAMPLES

    def test_laplacian_bound(self):
        rep = verify_engel_laplacian_bound(samples=SAMPLES, seed=0)
        assert rep.passed is True
        assert rep.extremum <= 7.0

    def test_laplacian_can_be_negative(self):
        # Only the upper side is asserted; the ratio itself changes sign.
        kind = engel_kind()
        table = norm_derivative_tables(kind)
        x = np.array([[0.011, 0.0, 0.011, -4.9]])
        val = table.laplacian(x) * table.value(x) ** 2 / table.seminorm(x)
        assert np.isfinite(val[0])

    def test_x2_lower_is_exactly_one(self):
        rep = verify_engel_x2_lower(samples=SAMPLES, seed=0)
        assert rep.passed is True
        assert rep.extremum == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_reports(self):
        a = verify_engel_gradient_bound(samples=20_000, seed=3)
        b = verify_engel_gradient_bound(samples=20_000, seed=3)
        assert a == b

    def test_argpoint_reproduces_extremum(self):
        rep = verify_engel_gradient_bound(samples=SAMPLES, seed=0)
        table = norm_derivative_tables(engel_kind())
        x = np.array(rep.arg_point)[None, :]
        val = table.gradient_norm(x) * table.value(x) ** 2 / table.seminorm(x) ** 2
        assert val[0] == pytest.approx(rep.extremum, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestFiliformBounds:
    def test_sups_finite_and_recorded(self, n):
        grad, lap = verify_filiform_bounds(n, samples=SAMPLES, seed=0)
        assert np.isfinite(grad.extremum) and grad.extremum > 0
        assert np.isfinite(lap.extremum)
        assert grad.passed is None and lap.passed is None
        assert grad.target is None

    def test_scale_invariance(self, n):
        kind = filiform_kind(n)
        table = norm_derivative_tables(kind)
        g = kind.group
        pts = stratified_smooth_samples(kind, 2_000, seed=9)

        def ratio(x):
            return (
                table.gradient_norm(x)
                * table.value(x) ** (n - 1)
                / table.seminorm(x) ** (n - 1)
            )

        for lam in (0.3, 2.0, 5.0):
            scaled = g.dilate(lam, pts)
            assert np.max(np.abs(ratio(scaled) - ratio(pts))) < 1e-10 * (
                1 + np.max(np.abs(ratio(pts)))
            )

    def test_x1_lower(self, n):
        rep = verify_filiform_x1_lower(n, samples=SAMPLES, seed=0)
        assert rep.passed is True
        assert rep.extremum >= 1.0 - 1e-9


def test_two_seed_stability_step3():
    # Step 3 has genuinely bounded ratios; two seeds agree within 5%.
    for seed_a, seed_b in [(0, 1)]:
        ga, la = verify_filiform_bounds(3, samples=SAMPLES, seed=seed_a)
        gb, lb = verify_filiform_bounds(3, samples=SAMPLES, seed=seed_b)
        assert abs(ga.extremum - gb.extremum) <= 0.05 * max(ga.extremum, gb.extremum)
        assert abs(la.extremum - lb.extremum) <= 0.05 * max(la.extremum, lb.extremum)


def test_step3_engel_and_filiform_constants_differ():
    eng = verify_engel_gradient_bound(samples=SAMPLES, seed=0)
    fil, _ = verify_filiform_bounds(3, samples=SAMPLES, seed=0)
    assert abs(eng.extremum - fil.extremum) > 1e-3


class TestReportSerialization:
    def test_csv(self, tmp_path):
        args = ["verify-bounds", "--samples", "2000", "--filiform-steps", "3,5"]
        assert main([*args, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "name,kind,step,direction,samples,extremum,target,passed,seed"
        assert len(lines) == 1 + 3 + 3 * 2
        cells = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # The filiform sups are recorded without a target: empty cells.
        for n in (3, 5):
            for name in (f"filiform-gradient-sup-n{n}", f"filiform-laplacian-sup-n{n}"):
                assert cells[name][6:8] == ["", ""]
            assert cells[f"filiform-x1-lower-n{n}"][6:8] == ["1.0", "true"]
        assert cells["engel-laplacian-sup"][6:] == ["7.0", "true", "0"]


def test_empty_domain_error():
    with pytest.raises(EmptyDomainError):
        stratified_smooth_samples(engel_kind(), 0, seed=0)


@pytest.mark.parametrize("standoff", [0.001, 0.01])
def test_standoff_not_below_box_is_an_empty_domain(standoff):
    # The bulk rejection loop accepts no point there and used to spin forever.
    with pytest.raises(EmptyDomainError, match=f"standoff {standoff:g} .* box half-width 0.001"):
        stratified_smooth_samples(filiform_kind(3), 1_000, seed=0, box=0.001, standoff=standoff)


@pytest.mark.parametrize(
    "kind", [engel_kind()] + [filiform_kind(n) for n in range(3, 13)], ids=lambda k: f"{k.variant}-{k.group.step}"
)
def test_norm_jet_is_order_independent_and_matches_norms(kind):
    # One jet serves every ratio of a chunk: its arrays must not depend on
    # the order the ratios read them in, and N and the seminorm must be the
    # norm module's bytes (the Engel jet takes both from its pieces).
    table = norm_derivative_tables(kind)
    x = stratified_smooth_samples(kind, 3_000, seed=4)
    names = ("value", "seminorm", "first", "second", "gradient_norm", "laplacian")
    forward, backward = table.jet(x), table.jet(x)
    for name in reversed(names):
        getattr(backward, name)
    for name in names:
        assert getattr(forward, name).tobytes() == getattr(backward, name).tobytes(), name
    assert forward.value.tobytes() == norm_value(kind, x).tobytes()
    if kind.variant == ENGEL:
        seminorm = engel_seminorm(x)
    else:
        seminorm = filiform_seminorm(kind.group, x)
    assert forward.seminorm.tobytes() == seminorm.tobytes()


def test_chunked_filiform_reports_match_whole_batch(monkeypatch):
    # Several chunks share nothing but the keys; each ratio must equal the
    # one the table methods give on the whole batch.
    monkeypatch.setattr(bounds, "RATIO_CHUNK", 700)
    n, samples = 5, 5_000
    grad, lap = verify_filiform_bounds(n, samples, seed=3)
    table = norm_derivative_tables(filiform_kind(n))
    x = stratified_smooth_samples(filiform_kind(n), samples, seed=3)
    ratios = (
        table.gradient_norm(x) * table.value(x) ** (n - 1) / table.seminorm(x) ** (n - 1),
        table.laplacian(x) * table.value(x) ** (n - 1) / table.seminorm(x) ** (n - 2),
    )
    for rep, ratio in zip((grad, lap), ratios):
        idx = int(np.argmax(ratio))
        assert rep.extremum == float(ratio[idx])
        assert rep.arg_point == tuple(float(c) for c in x[idx])


def test_verify_bounds_csv_pinned(tmp_path):
    # Digest recorded before each chunk's derivatives were shared by its keys.
    assert main(["verify-bounds", "--samples", "20000", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
    assert digest == "76bf9b4cf01892a8d5c14d7aa4b0d08e8c0db4791bb7a882c1664c41fd26606f"


def test_verify_bounds_csv_pinned_across_chunks(tmp_path):
    # 1,000,000 samples span many RATIO_CHUNK chunks (four when a chunk held
    # 250,000 rows), cut from the unfiltered draw; digest recorded when each
    # key's axis filter ran before the chunks were cut.
    args = ["verify-bounds", "--samples", "1000000", "--filiform-steps", "3,4"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
    assert digest == "f1970b2059fdbae476807540d9f06ec8710aa58e3c8b875802555180e7a7686e"


# tracemalloc peak of these calls (numpy 2.4.6) while the draw was held
# whole beside one ratio row per key: 6.8 and 19.5 MB at step 6, 11.2 and
# 33.8 MB at step 12, for 50,000 and 200,000 samples.  Streamed, they read
# 4.9 and 5.0 MB at step 6 and 7.1 and 11.0 MB at step 12: the shells (at
# most SHELL_PER_AXIS rows per axis, 5.5 MB at step 12), one chunk and its
# jet, which holds second derivatives (5 MB at step 12), whatever the count.
VERIFY_KIND_PEAK_BOUND = 12e6


@pytest.mark.parametrize("samples", [50_000, 200_000])
@pytest.mark.parametrize("n", [6, 12])
def test_verify_kind_memory_is_bounded(n, samples):
    keys = ("filiform-gradient", "filiform-laplacian", "filiform-x1-lower")
    peak = _traced_peak(
        lambda: verify_kind(filiform_kind(n), keys, samples, 0, DEFAULT_BOX, DEFAULT_STANDOFF)
    )
    assert peak <= VERIFY_KIND_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB"


def _whole_draw_report(kind, direction, ratio, axis, samples, seed, box, standoff):
    """(sample_count, extremum, arg_point) by np.argmax/np.argmin over the whole draw."""
    pts = stratified_smooth_samples(kind, samples, seed, box, standoff)
    if axis is not None:
        pts = pts[np.abs(pts[:, axis]) > 1e-8]
    values = ratio(None, pts, kind.group.step)
    idx = int(np.argmax(values) if direction == "upper" else np.argmin(values))
    return values.size, values[idx], tuple(float(c) for c in pts[idx])


FOLD_CHUNK = 64


def _marked_ratio(kind, samples, box, standoff, rows, value):
    """x_2, except `value` at the given rows of the draw."""
    marked = stratified_smooth_samples(kind, samples, 0, box, standoff)[rows]

    def ratio(t, x, n):
        hit = (x[:, None, :] == marked[None]).all(axis=2).any(axis=1)
        return np.where(hit, value, x[:, 1])

    return ratio


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("case", ["ties", "nan-later", "filtered-empty-chunk", "long-shells"])
def test_streamed_fold_equals_whole_draw_argmax(monkeypatch, case, direction):
    # The fold over chunks must give the whole-draw np.argmax/np.argmin
    # report: the first index wins a tie, the first NaN wins over everything.
    samples, box, standoff, axis = 2_000, DEFAULT_BOX, DEFAULT_STANDOFF, None
    kind = filiform_kind(4)
    if case == "ties":
        # floor takes 10 values, so the extremes tie across many chunks.
        ratio = lambda t, x, n: np.floor(x[:, 1])  # noqa: E731
    elif case == "nan-later":
        # NaN at two rows in later chunks; the first must win.
        rows = [3 * FOLD_CHUNK + 5, 5 * FOLD_CHUNK + 1]
        ratio = _marked_ratio(kind, samples, box, standoff, rows, np.nan)
    elif case == "filtered-empty-chunk":
        # The x_1 shell (rows 0-99) sits at |x_1| = 1e-9, inside the filter,
        # so the first chunk keeps no row and the second only its last 28;
        # the extreme is one of those.
        standoff, axis = 1e-9, 0
        value = 100.0 if direction == "upper" else -100.0
        ratio = _marked_ratio(kind, samples, box, standoff, [110], value)
    else:
        # 13 shells of 57 rows each span 12 chunks before the bulk starts.
        kind, samples = filiform_kind(12), 3_000
        ratio = lambda t, x, n: np.floor(x[:, 2])  # noqa: E731
    monkeypatch.setattr(bounds, "RATIO_CHUNK", FOLD_CHUNK)
    monkeypatch.setitem(
        bounds._BOUNDS, "probe", (bounds.BoundSpec("probe", direction, None), ratio, axis, "")
    )
    rep = verify_kind(kind, ("probe",), samples, 0, box, standoff)[0]
    count, extremum, witness = _whole_draw_report(
        kind, direction, ratio, axis, samples, 0, box, standoff
    )
    assert rep.sample_count == count
    assert np.float64(rep.extremum).tobytes() == np.float64(extremum).tobytes()
    assert rep.arg_point == witness
    if case == "nan-later":
        assert np.isnan(rep.extremum)
    if case == "filtered-empty-chunk":
        assert count < samples


def test_cli_reports_equal_the_single_ratio_wrappers(tmp_path):
    samples = 20_000
    args = ["verify-bounds", "--samples", str(samples), "--filiform-steps", "3,4"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    reports = [
        verify_engel_gradient_bound(samples),
        verify_engel_laplacian_bound(samples),
        verify_engel_x2_lower(samples),
    ]
    for n in (3, 4):
        reports.extend(verify_filiform_bounds(n, samples))
        reports.append(verify_filiform_x1_lower(n, samples))
    rows = [line.split(",") for line in (tmp_path / "bounds.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(reports)
    for row, r in zip(rows, reports):
        assert row[:5] == [r.name, r.kind_variant, str(r.step), r.direction, str(r.sample_count)]
        assert float(row[5]) == r.extremum and row[8] == str(r.seed)
        assert row[6] == ("" if r.target is None else repr(r.target))
        assert row[7] == ("" if r.passed is None else str(r.passed).lower())
    written = json.loads((tmp_path / "bounds.json").read_text())["results"]["reports"]
    assert written == json.loads(json.dumps([dataclasses.asdict(r) for r in reports]))


def test_verify_bounds_draws_and_builds_a_jet_once_per_kind(tmp_path, monkeypatch):
    calls = {"draw": 0, "jet": 0}
    draw, jet = bounds.smooth_sample_chunks, calculus.NormDerivativeTable.jet

    def counted_draw(*args, **kwargs):
        calls["draw"] += 1
        return draw(*args, **kwargs)

    def counted_jet(self, x):
        calls["jet"] += 1
        return jet(self, x)

    monkeypatch.setattr(bounds, "smooth_sample_chunks", counted_draw)
    monkeypatch.setattr(calculus.NormDerivativeTable, "jet", counted_jet)
    steps = (3, 4, 5, 6)
    args = ["verify-bounds", "--samples", "2000", "--filiform-steps", ",".join(map(str, steps))]
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert calls == {"draw": 1 + len(steps), "jet": 1 + len(steps)}


@pytest.mark.parametrize(
    "kind, keys, single, box, standoff",
    [
        (engel_kind(), ("engel-gradient", "engel-x2-lower"), verify_engel_x2_lower,
         DEFAULT_BOX, DEFAULT_STANDOFF),
        # A box this small puts about half the x_2 draws within 1e-8 of 0.
        (engel_kind(), ("engel-gradient", "engel-x2-lower"), verify_engel_x2_lower, 2e-8, 1e-9),
        # A standoff below 1e-8 puts the x_1 shell inside the x1-lower filter.
        (filiform_kind(4), ("filiform-gradient", "filiform-x1-lower"),
         lambda *a: verify_filiform_x1_lower(4, *a), DEFAULT_BOX, 1e-9),
    ],
    ids=["engel", "engel-filtered", "filiform4-filtered"],
)
def test_mixed_axis_call_matches_single_key_calls(kind, keys, single, box, standoff):
    # An unfiltered and a filtered key share one draw; each report must be
    # the one its key gives alone, sample count and witness included.
    samples, seed = 5_000, 2
    whole, filtered = verify_kind(kind, keys, samples, seed, box, standoff)
    assert whole == verify_kind(kind, keys[:1], samples, seed, box, standoff)[0]
    assert whole.sample_count == samples
    assert filtered == single(samples, seed, box, standoff)
    if standoff < 1e-8:
        assert filtered.sample_count < samples
