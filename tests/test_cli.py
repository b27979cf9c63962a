"""CLI: config handling, artifacts, exit codes, reproducibility."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from carnotlab import cli, geodesics
from carnotlab.bounds import EmptyDomainError
from carnotlab.cli import (
    CHECK_IDS,
    DEFAULTS,
    EXIT_CHECK_FAIL,
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_ERROR,
    EXIT_PASS,
    SCHEMAS,
    _resolve_params,
    build_parser,
    config_schema_text,
    main,
)
from carnotlab.geodesics import InfeasiblePathError
from carnotlab.group import _BLOCK_ROWS, FiliformGroup
from carnotlab.inequalities import ConditioningError, InfeasibleFitError
from carnotlab.measures import N_BATCHES, load_batch
from carnotlab.seeding import derive_rng
from test_member_batch import _traced_peak

REPO_ROOT = Path(__file__).resolve().parents[1]

FAST_ALGEBRA = [
    "verify-algebra",
    "--steps", "3,4",
    "--samples", "2000",
    "--invariance-samples", "50",
]


def run(args, out):
    return main(args + ["--out", str(out)])


def _schema_value(schema):
    """A schema-valid value, chosen away from the defaults."""
    schema = schema.get("anyOf", [schema])[0]
    if "enum" in schema:
        return schema["enum"][-1]
    kind = schema["type"]
    if kind == "array":
        return [_schema_value(schema["items"])] * schema["minItems"]
    if kind == "integer":
        return schema["minimum"] + 7
    if kind == "number":
        return schema.get("exclusiveMinimum", 0) + 0.5
    return "x3"


def _flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _subparser(command):
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


CONFIG_KEYS = [(cmd, key) for cmd in DEFAULTS for key in DEFAULTS[cmd]]


class TestSchema:
    def test_docs_schema_matches_module(self):
        doc = json.loads(
            (REPO_ROOT / "docs" / "config_schema.json").read_text(encoding="utf-8")
        )
        assert set(doc["commands"]) == set(SCHEMAS)
        for cmd, entry in doc["commands"].items():
            assert entry["schema"] == SCHEMAS[cmd]
            assert entry["defaults"] == DEFAULTS[cmd]

    def test_docs_schema_is_the_generated_text(self, capsys):
        doc = (REPO_ROOT / "docs" / "config_schema.json").read_text(encoding="utf-8")
        assert doc == config_schema_text()
        assert main(["--dump-schema"]) == EXIT_PASS
        assert capsys.readouterr().out == doc

    def test_every_command_has_schema_and_defaults(self):
        assert set(SCHEMAS) == set(DEFAULTS)
        for cmd, schema in SCHEMAS.items():
            assert schema["additionalProperties"] is False
            assert set(schema["required"]) == set(DEFAULTS[cmd])

    @pytest.mark.parametrize(("command", "key"), CONFIG_KEYS)
    def test_every_config_key_has_a_flag(self, command, key):
        value = _schema_value(SCHEMAS[command]["properties"][key])
        assert value != DEFAULTS[command][key]
        flag = "--" + key.replace("_", "-")
        args = build_parser().parse_args([command, flag, _flag_text(value)])
        assert _resolve_params(command, args)[key] == value
        actions = {a.dest: a for a in _subparser(command)._actions}
        assert flag in actions[key].option_strings
        assert "default:" in actions[key].help

    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_schema_passes_its_metaschema(self, command):
        schema = SCHEMAS[command]
        validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        ("command", "bad"),
        [
            ("geodesic", {"target": [1, 0], "restarts": 0}),
            ("ubound", {"count": 49, "typo_key": 1}),
            ("verify-algebra", {"steps": [3, 3], "tolerance": -1.0}),
        ],
    )
    def test_schema_message_matches_jsonschema_validate(self, tmp_path, command, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(instance={**DEFAULTS[command], **bad}, schema=SCHEMAS[command])
        args = build_parser().parse_args([command, "--config", str(cfg)])
        with pytest.raises(cli.ConfigError) as got:
            _resolve_params(command, args)
        assert str(got.value) == f"[cfg-schema] {expected.value.message}"

    def test_check_ids_are_kebab_case(self):
        for cid, desc in CHECK_IDS.items():
            assert cid == cid.lower()
            assert " " not in cid
            assert desc


class TestBasicRuns:
    def test_verify_algebra_artifacts(self, tmp_path, capsys):
        code = run(FAST_ALGEBRA, tmp_path)
        assert code == EXIT_PASS
        assert (tmp_path / "summary.txt").is_file()
        assert (tmp_path / "algebra.csv").is_file()
        payload = json.loads((tmp_path / "algebra.json").read_text())
        assert payload["command"] == "verify-algebra"
        assert payload["config"]["samples"] == 2000
        assert payload["config"]["steps"] == [3, 4]
        assert "carnotlab" in payload["versions"]
        assert all(c["passed"] for c in payload["results"]["checks"])
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "[alg-assoc] PASS" in out

    def test_sample_artifacts_round_trip(self, tmp_path):
        code = run(
            ["sample", "--count", "5000", "--csv-rows", "100"],
            tmp_path,
        )
        assert code == EXIT_PASS
        header, coords = load_batch(tmp_path / "samples.ccmb")
        assert header["count"] == 5000
        assert header["step"] == 3
        assert coords.shape == (5000, 4)
        csv_lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert csv_lines[0] == "# kind: engel"
        assert len([ln for ln in csv_lines if not ln.startswith("#")]) == 101
        payload = json.loads((tmp_path / "sample.json").read_text())
        assert payload["results"]["count"] == 5000
        assert set(payload["results"]["diagnostics"]) == {"acceptance_rate", "effective_samples"}
        assert payload["results"]["diagnostics"]["effective_samples"] == 5000.0
        # A non-finite draw cannot reach a check: SampleBatch raises on it.
        assert [c["id"] for c in payload["results"]["checks"]] == ["smp-moment"]

    def test_ball_check_scans_the_unit_ball_once(self, tmp_path, monkeypatch):
        # Every radius is r^s times the one unit-ball sup; the other columns
        # are the unit-ball run's.  Powers of two keep r^s exact.
        calls = []
        scan = cli.ball_poincare_check

        def counting(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(cli, "ball_poincare_check", counting)
        code = run(["ball-check", "--radii", "1,2,4,8", "--count", "2000"], tmp_path)
        assert code == EXIT_PASS
        assert len(calls) == 1
        lines = (tmp_path / "ball.csv").read_text().splitlines()
        assert lines[0] == "radius,exponent,sup_ratio,samples,acceptance"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(row[0]) for row in rows] == [1.0, 2.0, 4.0, 8.0]
        unit = float(rows[0][2])
        for row in rows:
            assert float(row[2]) == float(row[0]) ** 3 * unit
            assert row[1] == "3.0" and row[3:] == rows[0][3:]
        results = json.loads((tmp_path / "ball.json").read_text())["results"]
        assert results["unit_ball"]["sup_ratio"] == unit
        assert results["sup_ratios"] == [float(row[2]) for row in rows]

    @pytest.mark.parametrize("seed", range(11))
    def test_sample_moment_check_passes(self, tmp_path, capsys, seed):
        # The benchmark's Engel sample size; a N^p has mean Q/p = 7/3.
        code = run(
            ["sample", "--count", "40000", "--csv-rows", "0", "--seed", str(seed)], tmp_path
        )
        assert code == EXIT_PASS
        assert "[smp-moment] PASS E[a N^p] " in capsys.readouterr().out
        moment = json.loads((tmp_path / "sample.json").read_text())["results"]["moment"]
        assert moment["target"] == 7.0 / 3.0
        assert moment["margin"] == 5.0 * moment["se"] - abs(moment["mean"] - moment["target"])
        assert moment["margin"] >= 0.0

    def test_localize_all_checks_listed(self, tmp_path, capsys):
        code = run(
            ["localize", "--count", "30000", "--translation-count", "2000"],
            tmp_path,
        )
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        for cid in ("loc-partition", "loc-chebyshev", "loc-shift", "loc-translation"):
            assert f"[{cid}] PASS" in out

    def test_localize_empty_region_is_a_note_not_a_warning(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["localize", "--count", "50", "--translation-count", "1000"], tmp_path)
        assert code == EXIT_PASS
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        captured = capsys.readouterr()
        assert "NOTE regions without samples: annulus" in captured.out
        assert "UserWarning" not in captured.err

    def test_sample_z_check_records_margin(self, tmp_path, capsys):
        code = run(
            ["sample", "--kind", "filiform", "--step", "5", "--count", "1000",
             "--csv-rows", "0", "--z-budget", "1"],
            tmp_path,
        )
        assert code == EXIT_PASS
        assert "[smp-z] PASS Z " in capsys.readouterr().out
        z = json.loads((tmp_path / "sample.json").read_text())["results"]["normalization"]
        assert z["method"] == "polar-quadrature"
        assert z["margin"] == 1e-9 * z["value"] - z["standard_error"]
        assert z["margin"] >= 0.0

    def test_sample_z_beyond_float_range_exits_four(self, tmp_path, capsys):
        # Z = Gamma(Q/p + 1) a^(-Q/p) |B_1| overflows float64 for tiny a.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["sample", "--count", "1000", "--a", "1e-300", "--z-budget", "1"], tmp_path)
        assert code == EXIT_NUMERIC_ERROR
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "numerical error: Z leaves the float64 range at a = 1e-300" in err
        assert "Traceback" not in err

    def test_geodesic_path_artifact(self, tmp_path):
        code = run(["geodesic", "--segments", "8", "--restarts", "2"], tmp_path)
        assert code == EXIT_PASS
        payload = json.loads((tmp_path / "geodesic.json").read_text())
        assert 1.0 <= payload["results"]["value"] <= 1.02
        path_lines = (tmp_path / "geodesic_path.csv").read_text().splitlines()
        assert path_lines[0].startswith("segment,u1,u2,")
        assert len(path_lines) == 9

    def test_config_file_merges_under_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 4000, "a": 1.5, "csv_rows": 0}))
        out = tmp_path / "out"
        code = main(
            ["sample", "--config", str(cfg), "--count", "6000", "--out", str(out)]
        )
        assert code == EXIT_PASS
        payload = json.loads((out / "sample.json").read_text())
        # Flag wins over config; config wins over defaults.
        assert payload["config"]["count"] == 6000
        assert payload["config"]["a"] == 1.5
        assert not (out / "samples.csv").exists()


class TestReproducibility:
    def test_rerun_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["localize", "--count", "20000", "--translation-count", "1000"]
        assert run(list(args), a) == EXIT_PASS
        assert run(list(args), b) == EXIT_PASS
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        base = ["sample", "--count", "2000", "--csv-rows", "0"]
        assert run(base + ["--seed", "1"], a) == EXIT_PASS
        assert run(base + ["--seed", "2"], b) == EXIT_PASS
        assert (a / "samples.ccmb").read_bytes() != (b / "samples.ccmb").read_bytes()


_CSV_PINS = [
    (["ubound", "--count", "4000"], None, {
        "ubound_train.csv": "028179b419f358dc6f014b24a6a5baceafdfb6dbbe24c387cb95d81d6adbe3c3",
        "ubound_holdout.csv": "b14bfe2581fc19dbbe07094cdb0ddce13ae77c159015601d2c1346f6d90dbad7",
    }),
    (["poincare", "--count", "4000"], None, {
        "poincare_ratios.csv": "e291fca77e5bd69a57a66217950c1594902b3c2ff043626108b202a0fd9f61b4",
        "poincare_holdout.csv": "ef52d3f323ddfa10210c9d5ccc9520082b33d88176b5064232975fd897987991",
    }),
    (["gap", "--count", "2000", "--calibration-count", "2000"], None, {
        "gap.csv": "ce07eeb1fb06efce5263501e605338d35ec55fa38d77e61f67ad6aed7c121e42",
    }),
    # Integer JSON values in float columns still print as floats ("1.0").
    (["ball-check"], {"radii": [1, 2], "count": 2000}, {
        "ball.csv": "902427bfa86727397f66b9b4bfa11b4e7002e260fa9dd4f25ae0177d298662e3",
    }),
    (["verify-algebra"], {"tolerance": 1, "steps": [3, 4], "samples": 2000,
                          "invariance_samples": 50}, {
        "algebra.csv": "5d627b13f9ff4d994f1e29cfac742a23f39d7f52c5c68fa1cc294b4147e790cc",
    }),
    # Filiform runs reach the shifted and rescaled child contexts and the
    # first-derivative-only norm table.
    (["ubound", "--kind", "filiform", "--step", "4", "--count", "4000"], None, {
        "ubound_train.csv": "0335eb6d4f846a532cf2c23642e01035f7935dd84de2cb00bb562e0c1a0ac0cc",
        "ubound_holdout.csv": "8f3b4f39c2dc367766061b7886b7618f996252be5c4449c2a8f2c8d9959778dd",
    }),
    (["poincare", "--kind", "filiform", "--step", "5", "--count", "4000"], None, {
        "poincare_ratios.csv": "dd2a0f46f28a8783bede141b3e4bc1f9cc29142deb53e8ab0ef4796af0364b9c",
        "poincare_holdout.csv": "1c9392464904d00c81369bfe8f5149ab55e3bb71719bfa77439818d16fcfdd21",
    }),
    (["ball-check", "--kind", "filiform", "--step", "4", "--count", "2000"], None, {
        # The r = 2 and 4 rows are 2^4 and 4^4 times the unit-ball sup.
        "ball.csv": "4704f59f90c79c74d37adbb3b8cde20b9e167669adbfb7d29d2bf142bccceec5",
    }),
    # 9,000 samples span three row blocks of the group product and inverse.
    (["verify-algebra", "--steps", "3,12"], {"samples": 9000, "invariance_samples": 5,
                                             "tolerance": 1}, {
        "algebra.csv": "b28e8bd5ff0ae98702d6dc04b3bf85cb87df09e10a027611323693eafe8bcbab",
    }),
    # The filiform sups carry no target or verdict: empty cells.
    (["verify-bounds", "--samples", "20000", "--filiform-steps", "3,4"], None, {
        "bounds.csv": "3677b2e9406c231212ea770a1c3c80f23509dd2f25a60de64a661522a98abae3",
    }),
    # Provenance lines first; "# count" is the row count of the CSV.
    (["sample", "--count", "2000", "--csv-rows", "100"], None, {
        "samples.csv": "f922ed3bd6b34d7979f02868775d446e55685b177f2d080b5b264425bce75416",
    }),
    (["sample", "--kind", "filiform", "--step", "5", "--a", "1.5", "--p", "5",
      "--count", "2000", "--csv-rows", "100"], None, {
        "samples.csv": "fb0953c4373e9fc0444d029a36cb1fb7b64a8696f808dfbaa078412a97c538b6",
    }),
    (["geodesic", "--segments", "8", "--restarts", "2"], None, {
        "geodesic_path.csv": "e3f4c399f83b450e4ec0e3932529e6ba0538a4614cc8fcd45aa23027130ecd62",
    }),
]


def _pin_id(args: list[str]) -> str:
    """The command name, with the kind and step or the steps where the pin sets them."""
    if "--steps" in args:
        return f"{args[0]}-steps{args[args.index('--steps') + 1].replace(',', '-')}"
    if "--kind" not in args:
        return args[0]
    return f"{args[0]}-{args[args.index('--kind') + 1]}{args[args.index('--step') + 1]}"


@pytest.mark.parametrize("args, config, digests", _CSV_PINS, ids=[_pin_id(a) for a, _, _ in _CSV_PINS])
def test_csv_artifacts_pinned(tmp_path, args, config, digests):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run(args, out) == EXIT_PASS
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("value", [0.1, np.float64(0.1), np.float32(0.1), -0.0, 1e-310, float("inf")])
def test_csv_float_cells_print_the_plain_repr(value):
    # np.float64 subclasses float but its repr reads "np.float64(0.1)".
    assert cli._cell(value) == repr(float(value))


def _decades(lo: int, hi: int):
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.0), st.integers(lo, hi))


# --samples crosses the row block of the group product and inverse; the
# tolerances reach far enough down that some checks fail (exit 2).
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=st.integers(1, 9_000), invariance=st.integers(1, 50),
       steps=st.lists(st.integers(3, 12), min_size=1, max_size=4, unique=True),
       tolerance=_decades(-18, 1), comm=_decades(-18, 1), fd=_decades(-18, 1))
@example(samples=_BLOCK_ROWS + 1, invariance=1, steps=[12], tolerance=1e-10, comm=1e-12, fd=1e-8)
def test_verify_algebra_flags_keep_the_exit_contract(
    tmp_path, samples, invariance, steps, tolerance, comm, fd
):
    code = run([
        "verify-algebra", "--samples", str(samples), "--invariance-samples", str(invariance),
        "--steps", ",".join(map(str, steps)), "--tolerance", repr(tolerance),
        "--comm-tolerance", repr(comm), "--fd-tolerance", repr(fd),
    ], tmp_path)
    assert code in {0, 2, 3, 4}


def reference_group_law_defects(g, x, y, z):
    """The four group-law defects as verify-algebra took them on whole arrays."""
    def row_max(a):
        return np.max(np.abs(a), axis=1)

    xy = g.compose(x, y)
    xy_z = g.compose(xy, z)
    x_yz = g.compose(x, g.compose(y, z))
    assoc = np.max(row_max(xy_z - x_yz) / (row_max(xy_z) + 1.0))
    ident = max(
        float(np.max(np.abs(g.compose(x, g.identity()) - x))),
        float(np.max(np.abs(g.compose(g.identity(), x) - x))),
    ) / float(np.max(np.abs(x)) + 1.0)
    inv = np.max(row_max(g.compose(x, g.inverse(x))) / (row_max(x) + 1.0))
    dil = 0.0
    for lam in (0.5, 1.7):
        lhs = g.dilate(lam, xy)
        rhs = g.compose(g.dilate(lam, x), g.dilate(lam, y))
        dil = max(dil, float(np.max(row_max(lhs - rhs) / (row_max(lhs) + 1.0))))
    return {"alg-assoc": float(assoc), "alg-identity": ident, "alg-inverse": float(inv),
            "alg-dilation": dil}


# The laws run block by block; sample counts around the block size leave
# short tail blocks, and one sample leaves a single short block.
@pytest.mark.parametrize("m", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 10_001])
@pytest.mark.parametrize("n", [3, 7, 12])
def test_blocked_group_law_defects_equal_whole_array_reference(tmp_path, n, m):
    argv = ["verify-algebra", "--steps", str(n), "--samples", str(m), "--invariance-samples", "1",
            "--seed", "11"]
    assert run(argv, tmp_path) == EXIT_PASS
    defects = json.loads((tmp_path / "algebra.json").read_text())["results"]["defects"]
    rng = derive_rng(11, "verify-algebra")
    x, y, z = (rng.uniform(-3.0, 3.0, size=(m, n + 1)) for _ in range(3))
    for cid, value in reference_group_law_defects(FiliformGroup(n), x, y, z).items():
        assert defects[cid][f"n{n}:-"] == value, cid


@pytest.mark.parametrize("m", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 10_001])
def test_uniform_row_blocks_equal_the_whole_draw(m):
    # Each part's blocks, laid end to end, are the bytes of its slice of one
    # (3, m, d) draw, and the generator's next draw is the one after it.
    d = 6
    whole_rng, rng = derive_rng(5, "blocks"), derive_rng(5, "blocks")
    whole = whole_rng.uniform(-3.0, 3.0, size=(3, m, d))
    blocks = list(cli._uniform_row_blocks(rng, 3, m, d, 3.0))
    assert all(len(part) <= _BLOCK_ROWS for blk in blocks for part in blk)
    for k, part in enumerate(zip(*blocks)):
        assert np.concatenate(part).tobytes() == whole[k].tobytes(), k
    assert rng.uniform(-2.0, 2.0, size=(4, d)).tobytes() == whole_rng.uniform(
        -2.0, 2.0, size=(4, d)).tobytes()


# tracemalloc peak of this step-12 run (numpy 2.4.6) while verify-algebra
# built every product on the whole batch: 70.1 MB at 60,000 samples.  With
# the products blocked but x, y and z drawn whole: 12.9 MB at 25,000 samples
# and 35.6 MB at 100,000.  Drawn a block at a time, it reads 5.7 MB at both:
# a few block-sized arrays, whatever the count.
ALGEBRA_PEAK_BOUND = 24 * _BLOCK_ROWS * 13 * 8


@pytest.mark.parametrize("samples", [25_000, 100_000])
def test_verify_algebra_memory_is_bounded(tmp_path, samples):
    argv = ["verify-algebra", "--steps", "12", "--samples", str(samples),
            "--invariance-samples", "30"]
    peak = _traced_peak(lambda: run(argv, tmp_path))
    assert (tmp_path / "summary.txt").read_text().endswith("overall: PASS\n")
    assert peak <= ALGEBRA_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB"


# No other test runs the measure commands above step 6.  `gap` needs its
# jackknife blocks at most count/2, which counts from 50 always allow.
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["sample", "ubound", "poincare", "gap", "ball-check", "localize"]),
       step=st.integers(3, 12), count=st.integers(N_BATCHES, 2_000),
       blocks=st.integers(2, N_BATCHES // 2), seed=st.integers(0, 2**16))
@example(command="gap", step=12, count=2_000, blocks=2, seed=0)
@example(command="localize", step=12, count=N_BATCHES, blocks=2, seed=0)
def test_measure_commands_keep_the_exit_contract(tmp_path, command, step, count, blocks, seed):
    args = [command, "--kind", "filiform", "--step", str(step), "--count", str(count),
            "--seed", str(seed)]
    if command == "gap":
        args += ["--jackknife-blocks", str(blocks)]
    assert run(args, tmp_path) in {0, 2, 3, 4}


class TestExitCodes:
    def test_check_failure_exits_two(self, tmp_path, capsys):
        # An impossible tolerance turns rounding noise into a failure.
        code = run(FAST_ALGEBRA + ["--tolerance", "1e-20"], tmp_path)
        assert code == EXIT_CHECK_FAIL
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "overall: FAIL" in out
        summary = (tmp_path / "summary.txt").read_text()
        assert "overall: FAIL" in summary

    def test_unknown_config_key_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 100, "typo_key": 1}))
        code = main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "typo_key" in err
        assert "cfg-schema" in err

    def test_malformed_config_exits_three(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT_ERROR

    def test_missing_config_exits_three(self, tmp_path):
        code = main(
            ["sample", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_INPUT_ERROR

    def test_schema_violation_exits_three(self, tmp_path):
        code = run(["sample", "--count", "-4"], tmp_path)
        assert code == EXIT_INPUT_ERROR

    def test_ball_check_single_sample_exits_three(self, tmp_path, capsys):
        # A batch-means SE needs one sample per batch; one sample used to
        # report FAIL with sup ratio 0 and exit 2.
        code = run(["ball-check", "--count", "1"], tmp_path)
        assert code == EXIT_INPUT_ERROR
        assert "cfg-schema" in capsys.readouterr().err
        assert not (tmp_path / "ball.json").exists()

    @pytest.mark.parametrize(("radii", "extreme"), [("1,1e200", "inf"), ("1e-200,1", "0.0")])
    def test_ball_check_extreme_radius_fails_without_warnings(
        self, tmp_path, capsys, radii, extreme
    ):
        # r^3 leaves the float64 range: 1e200^3 overflows to inf and
        # 1e-200^3 underflows to 0.  (Python's 1e200 ** 3.0 would raise
        # OverflowError instead, which exits 4.)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["ball-check", "--count", "2000", "--radii", radii], tmp_path)
        assert code == EXIT_CHECK_FAIL
        assert not caught
        captured = capsys.readouterr()
        assert "[ball-finite] FAIL" in captured.out
        assert captured.err == ""
        sups = [line.split(",")[2] for line in (tmp_path / "ball.csv").read_text().splitlines()[1:]]
        assert extreme in sups and float(sups[radii.split(",").index("1")]) > 0.0

    @pytest.mark.parametrize(
        ("command", "flag"),
        [(cmd, flag) for cmd in ("ubound", "poincare") for flag in ("--count", "--holdout-count")]
        + [("ball-check", "--count"), ("localize", "--count"), ("sample", "--count")],
    )
    def test_moment_counts_below_batch_count_exit_three(self, tmp_path, command, flag):
        assert run([command, flag, str(N_BATCHES - 1)], tmp_path) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "args",
        [
            ["verify-algebra", "--steps", "3,3", "--samples", "100"],
            ["verify-bounds", "--filiform-steps", "4,5,4", "--samples", "100"],
            ["gap", "--count", "2000", "--degrees", "2,2"],
            ["ball-check", "--count", "100", "--radii", "1,1"],
            ["ball-check", "--count", "100", "--radii", "2,1,2.0"],
        ],
    )
    def test_repeated_step_exits_three(self, tmp_path, capsys, args):
        # Defects are keyed by step; a repeated step used to overwrite the
        # first one's entries in algebra.json while the CSV kept both rows.
        # A repeated degree compared one gap estimate with itself in
        # gap-monotone, and a repeated radius repeated one ball.csv row.
        assert run(args, tmp_path) == EXIT_INPUT_ERROR
        assert "non-unique" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("count", [1, 39])
    def test_gap_count_below_jackknife_floor_exits_three(self, tmp_path, capsys, count):
        # 20 jackknife blocks need 40 samples; fewer used to exit 4.
        assert run(["gap", "--count", str(count)], tmp_path) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"count {count} is below the jackknife floor 40" in err
        assert "numerical error" not in err

    def test_gap_count_at_jackknife_floor_runs(self, tmp_path):
        assert run(["gap", "--count", "40"], tmp_path) in (EXIT_PASS, EXIT_CHECK_FAIL)
        assert (tmp_path / "gap.json").exists()

    def test_gap_calibration_count_below_jackknife_floor_exits_three(self, tmp_path, capsys):
        code = run(
            ["gap", "--count", "100", "--calibration-count", "11", "--jackknife-blocks", "6"],
            tmp_path,
        )
        assert code == EXIT_INPUT_ERROR
        assert "calibration_count 11 is below the jackknife floor 12" in capsys.readouterr().err

    def test_engel_step_conflict_exits_three(self, tmp_path):
        code = run(["ubound", "--kind", "engel", "--step", "4"], tmp_path)
        assert code == EXIT_INPUT_ERROR

    def test_unknown_member_exits_three(self, tmp_path, capsys):
        code = run(["localize", "--count", "2000", "--member", "nope"], tmp_path)
        assert code == EXIT_INPUT_ERROR
        assert "nope" in capsys.readouterr().err

    def test_unknown_flag_exits_three(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--frobnicate", "1", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("flag", ["--burn-in", "--step-scale", "--chains"])
    def test_removed_sampler_flags_exit_three(self, tmp_path, flag):
        # The exact sampler has no burn-in, proposal scale or chain count.
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--count", "100", flag, "1"], tmp_path)
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_numeric_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        def failing_sample(*args, **kwargs):
            raise ArithmeticError("sampler overflow")

        monkeypatch.setattr(cli, "sample", failing_sample)
        code = run(["sample", "--count", "1000"], tmp_path)
        assert code == EXIT_NUMERIC_ERROR
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "error, code",
        [
            (cli.ConfigError("bad input"), EXIT_INPUT_ERROR),
            (EmptyDomainError("no smooth points"), EXIT_INPUT_ERROR),
            (ConditioningError("constant basis function"), EXIT_NUMERIC_ERROR),
            (InfeasibleFitError("no feasible vertex"), EXIT_NUMERIC_ERROR),
            (InfeasiblePathError("no path", best_residual=1.0), EXIT_NUMERIC_ERROR),
            (np.linalg.LinAlgError("singular matrix"), EXIT_NUMERIC_ERROR),
            (FloatingPointError("overflow"), EXIT_NUMERIC_ERROR),
            (ValueError("bad value"), EXIT_NUMERIC_ERROR),
            (RuntimeError("no convergence"), EXIT_NUMERIC_ERROR),
            (MemoryError("Unable to allocate 7.28 TiB for an array"), EXIT_NUMERIC_ERROR),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_runner_errors_keep_the_exit_contract(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        def failing_runner(params, out):
            raise error

        monkeypatch.setitem(cli.RUNNERS, "verify-bounds", failing_runner)
        assert run(["verify-bounds"], tmp_path) == code
        err = capsys.readouterr().err
        assert str(error) in err
        assert "Traceback" not in err

    def test_overflowing_geodesic_target_exits_three(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["geodesic", "--target", "1e200,0,0,0"], tmp_path)
        assert code == EXIT_INPUT_ERROR
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "target [1e+200, 0.0, 0.0, 0.0]" in err
        assert "overflows" in err
        assert "Traceback" not in err

    def test_geodesic_target_beyond_float_range_exits_three(self, tmp_path, capsys):
        # The norm (2.2e83) is finite, but N^(2n) overflows float64.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["geodesic", "--target", "0,0,0,1e250"], tmp_path)
        assert code == EXIT_INPUT_ERROR
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "target [0.0, 0.0, 0.0, 1e+250]" in err
        assert "overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("box", ["1e300", "1e100"])
    def test_geodesic_scan_box_beyond_float_range_exits_three(self, tmp_path, capsys, box):
        # At 1e300 the drawn points' norms overflow; at 1e100 they are finite,
        # but N^(2n) overflows float64.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["geodesic", "--scan-points", "2", "--scan-box", box], tmp_path)
        assert code == EXIT_INPUT_ERROR
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert f"scan_box {float(box):g} is too large" in err
        assert "overflows float64" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(("kind", "step"), [("engel", 3), ("filiform", 12)])
    def test_localize_level_l_beyond_float_range_exits_three(self, tmp_path, capsys, kind, step):
        limit = (sys.float_info.max / 6.0) ** (1.0 / step)
        args = ["localize", "--kind", kind, "--step", str(step), "--count", "200",
                "--translation-count", "50"]
        code = run([*args, "--level-l", "1e200"], tmp_path / "over")
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"level_l 1e+200 is too large: the limit at step {step} is {limit:.6g}" in err
        assert "Traceback" not in err
        # Just below the limit the annulus window stays finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([*args, "--level-l", repr(limit * 0.999)], tmp_path / "under") == EXIT_PASS

    def test_default_geodesic_target_follows_step(self, tmp_path, capsys):
        code = run(
            ["geodesic", "--kind", "filiform", "--step", "4",
             "--segments", "9", "--restarts", "1"],
            tmp_path,
        )
        assert code == EXIT_PASS
        assert "target=[1.0, 0.0, 0.0, 0.0, 0.0]" in capsys.readouterr().out
        config = json.loads((tmp_path / "geodesic.json").read_text())["config"]
        assert config["target"] == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("target", ["nan,0,0,0", "inf,0,0,0", "0,0,-inf,0"])
    def test_non_finite_geodesic_target_exits_three(self, tmp_path, capsys, target):
        code = run(["geodesic", "--target", target], tmp_path)
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err

    def test_too_few_geodesic_segments_exits_three(self, tmp_path, capsys):
        code = run(
            ["geodesic", "--kind", "filiform", "--step", "4",
             "--target", "0,0,0,0,1", "--segments", "8"],
            tmp_path,
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "segments must be at least 9 for step 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step, segments", [(3, 8), (4, 16), (8, 32), (12, 32)])
    def test_default_geodesic_segments_follow_step(self, tmp_path, capsys, step, segments):
        # 2n+1 rounded up to a power of two; 8 is too few from step 4 on.
        code = run(["geodesic", "--kind", "filiform", "--step", str(step)], tmp_path)
        assert code == EXIT_PASS
        assert f"segments={segments}" in capsys.readouterr().out
        doc = json.loads((tmp_path / "geodesic.json").read_text())
        assert doc["config"]["segments"] == doc["results"]["segments"] == segments

    def test_odd_segment_count_is_kept(self, tmp_path, capsys):
        code = run(
            ["geodesic", "--kind", "filiform", "--step", "4",
             "--segments", "9", "--restarts", "1"],
            tmp_path,
        )
        assert code == EXIT_PASS
        assert "segments 9" in capsys.readouterr().out
        assert json.loads((tmp_path / "geodesic.json").read_text())["results"]["segments"] == 9

    def test_geodesic_scan_below_the_norm_floor_exits_three(self, tmp_path, capsys):
        # Every scan point falls under the norm floor; the scan used to
        # reduce an empty ratio array and exit 4.
        code = run(["geodesic", "--scan-points", "2", "--scan-box", "1e-30"], tmp_path)
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "input error: no scan point has norm above 1e-06" in err
        assert "Traceback" not in err
        assert not (tmp_path / "geodesic_path.csv").exists()

    def test_geodesic_scan_uses_the_restart_count(self, tmp_path, monkeypatch):
        seen = []
        real = cli.approx_distance

        def spy(target, k_segments=16, restarts=3, seed=0):
            seen.append(restarts)
            return real(target, k_segments, restarts, seed)

        monkeypatch.setattr(cli, "approx_distance", spy)
        monkeypatch.setattr(geodesics, "approx_distance", spy)
        code = run(["geodesic", "--segments", "8", "--restarts", "1", "--scan-points", "2"],
                   tmp_path)
        assert code == EXIT_PASS
        assert seen == [1, 1, 1]

    @pytest.mark.parametrize("command, key, cap", [
        ("geodesic", "segments", 256), ("geodesic", "restarts", 16),
        ("geodesic", "scan_points", 1000), ("verify-algebra", "samples", 10_000_000),
        ("verify-algebra", "invariance_samples", 1_000_000),
        ("verify-bounds", "samples", 10_000_000),
        *((command, "count", 2_000_000)
          for command in ("sample", "ubound", "poincare", "gap", "ball-check", "localize")),
        ("ubound", "holdout_count", 2_000_000), ("poincare", "holdout_count", 2_000_000),
        ("gap", "calibration_count", 10_000_000), ("localize", "translation_count", 1_000_000),
    ])
    def test_sizes_above_their_caps_exit_three(
        self, tmp_path, capsys, monkeypatch, command, key, cap
    ):
        # Each cap bounds the command's memory; one above it must be
        # rejected before the runner draws or solves anything.  The caps
        # themselves pass the schema but are never run here.
        calls = []
        monkeypatch.setitem(cli.RUNNERS, command, lambda params, out: calls.append(params))
        flag = "--" + key.replace("_", "-")
        args = build_parser().parse_args([command, flag, str(cap)])
        assert _resolve_params(command, args)[key] == cap
        code = run([command, flag, str(cap + 1)], tmp_path)
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"[cfg-schema] {cap + 1} is greater than the maximum of {cap}" in err
        assert "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize("command, config, key", [
        ("ball-check", '{"radii": [1, 1%s]}' % ("0" * 400), "radii"),
        ("sample", '{"a": 1%s}' % ("0" * 400), "a"),
        ("sample", '{"a": 1e400}', "a"),
        ("ball-check", '{"radii": [1, NaN]}', "radii"),
    ])
    def test_numbers_beyond_float64_exit_three(
        self, tmp_path, capsys, monkeypatch, command, config, key
    ):
        # These pass the schema's bounds; a 401-digit integer used to exit 4
        # from a `float()` in the runner, and 1e400 (read as inf) or NaN ran.
        calls = []
        monkeypatch.setitem(cli.RUNNERS, command, lambda params, out: calls.append(params))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = run([command, "--count", "100", "--config", str(cfg)], tmp_path)
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"[cfg-schema] {key} holds a number that is not a finite float64" in err
        assert "Traceback" not in err
        assert calls == []

    def test_integers_in_number_fields_resolve_to_floats(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 2, "radius_r": 1, "count": 100}))
        params = _resolve_params("localize", build_parser().parse_args(
            ["localize", "--config", str(cfg)]))
        assert (type(params["a"]), type(params["radius_r"]), type(params["count"])) == (
            float, float, int)
        cfg.write_text(json.dumps({"target": [1, 0, 0, 2]}))
        params = _resolve_params("geodesic", build_parser().parse_args(
            ["geodesic", "--config", str(cfg)]))
        assert params["target"] == [1.0, 0.0, 0.0, 2.0]
        assert all(type(x) is float for x in params["target"])

    def test_empty_axis_filter_exits_three(self, tmp_path, capsys):
        code = run(
            ["verify-bounds", "--samples", "1", "--standoff", "1e-9", "--filiform-steps", "3"],
            tmp_path,
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "input error: no admissible samples for bound" in err
        assert "Traceback" not in err

    def test_standoff_not_below_box_exits_three(self, tmp_path, capsys):
        # The bulk rejection loop used to run until killed here.
        code = run(["verify-bounds", "--samples", "1000", "--box", "0.001", "--standoff", "0.01"],
                   tmp_path)
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "input error: standoff 0.01 is not below the box half-width 0.001" in err

    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == EXIT_INPUT_ERROR
        assert "COMMAND" in capsys.readouterr().out
        for command in DEFAULTS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == EXIT_PASS
            assert f"carnotlab {command}" in capsys.readouterr().out


class TestThreadCap:
    def test_cap_applies_and_restores(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARNOT_THREADS", "2")
        had_affinity = hasattr(os, "sched_getaffinity")
        before = os.sched_getaffinity(0) if had_affinity else None
        try:
            code = run(FAST_ALGEBRA, tmp_path)
            assert code == EXIT_PASS
            if had_affinity:
                assert len(os.sched_getaffinity(0)) <= 2
        finally:
            if had_affinity:
                os.sched_setaffinity(0, before)

    def test_invalid_cap_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CARNOT_THREADS", "soon")
        code = run(FAST_ALGEBRA, tmp_path)
        assert code == EXIT_INPUT_ERROR
        assert "CARNOT_THREADS" in capsys.readouterr().err
