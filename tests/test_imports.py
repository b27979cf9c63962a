"""Start-up cost: importing the CLI loads no carnotlab library module,
jsonschema or scipy, each command loads only the modules it runs, and the
pointwise, geodesic, gap and Z commands load no heavy scipy submodule; no
module imports a name it never uses, and no package function or class goes
unnamed."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

# Each costs 0.1-1.1 s to import; a command that needs one imports it in
# the function that uses it.  The geodesic driver, the Galerkin gap and the
# Engel Z need none of them: `carnotlab.extensions.load_extension` loads the
# one compiled extension each calls (scipy.optimize._lbfgsb,
# scipy.linalg._flapack, scipy.special._special_ufuncs) by itself.  The
# filiform Z still imports scipy.special, for `roots_jacobi`.
HEAVY = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.stats", "numpy.f2py")

CHECK = f"""
import sys
from carnotlab.cli import build_parser, main

def check(step):
    loaded = sorted(m for m in {HEAVY!r} if m in sys.modules)
    if loaded:
        print(step, "loaded", loaded)
        sys.exit(1)

check("import")
"""

GUARD = CHECK + """
build_parser()
check("build_parser")
code = main(["verify-algebra", "--steps", "3,4", "--samples", "500",
             "--invariance-samples", "20", "--out", sys.argv[1] + "/algebra"])
assert code == 0, code
check("verify-algebra")
code = main(["verify-bounds", "--samples", "2000", "--filiform-steps", "3",
             "--out", sys.argv[1] + "/bounds"])
assert code == 0, code
check("verify-bounds")
"""

GEODESIC_GUARD = CHECK + """
import numpy as np
from carnotlab.geodesics import approx_distance
from carnotlab.group import FiliformGroup, GroupPoint

assert "scipy.optimize._lbfgsb" not in sys.modules
approx_distance(GroupPoint(FiliformGroup(3), np.array([0.0, 0.0, 0.0, 1.0])), 7)
check("approx_distance")
assert "scipy.optimize._lbfgsb" in sys.modules
code = main(["geodesic", "--target", "1,0,0,0", "--out", sys.argv[1] + "/geodesic"])
assert code == 0, code
check("geodesic")
code = main(["geodesic", "--segments", "7", "--restarts", "1", "--scan-points", "2",
             "--out", sys.argv[1] + "/scan"])
assert code == 0, code
check("geodesic --scan-points 2")
"""

GAP_AND_Z_GUARD = CHECK + """
code = main(["gap", "--count", "2000", "--out", sys.argv[1] + "/gap"])
assert code == 0, code
check("gap")
code = main(["gap", "--kind", "filiform", "--step", "4", "--count", "2000",
             "--calibration-count", "2000", "--out", sys.argv[1] + "/gap-fil4"])
assert code == 0, code
check("gap --kind filiform --step 4")
assert "scipy.linalg._flapack" in sys.modules
assert "scipy.special._special_ufuncs" not in sys.modules
code = main(["sample", "--count", "1000", "--z-budget", "2000000",
             "--out", sys.argv[1] + "/sample"])
assert code == 0, code
check("sample --z-budget 2000000")
assert "scipy.special._special_ufuncs" in sys.modules
"""


# Until a command runs, the CLI holds the library, jsonschema (a test-only
# dependency) and scipy unloaded: parsing flags, printing the schema and
# rejecting a config need none of them.
STARTUP_GUARD = """
import contextlib
import io
import sys
from carnotlab.cli import build_parser, main

def check(step):
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("jsonschema", "scipy")
                    or m.startswith("carnotlab.") and m != "carnotlab.cli")
    if loaded:
        print(step, "loaded", loaded)
        sys.exit(1)

check("import")
build_parser()
check("build_parser")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--dump-schema"]) == 0
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
check("--dump-schema and --help")
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert main(["sample", "--count", "1", "--out", sys.argv[1]]) == 3
assert "[cfg-schema]" in err.getvalue(), err.getvalue()
check("an exit-3 config error")
"""

COMMAND_GUARD = """
import contextlib
import io
import json
import sys
from carnotlab.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main([*sys.argv[2:], "--out", sys.argv[1]])
assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("carnotlab."))))
"""

# Each command at a small size, and the carnotlab modules it loads: the ones
# it calls and their imports.
_INEQUALITIES = ["calculus", "extensions", "family", "frames", "group", "inequalities",
                 "measures", "norms", "seeding"]
COMMAND_MODULES = {
    "verify-algebra": (["--steps", "3", "--samples", "200", "--invariance-samples", "10"],
                       ["frames", "group", "seeding"]),
    "verify-bounds": (["--samples", "2000", "--filiform-steps", "3"],
                      ["bounds", "calculus", "frames", "group", "norms"]),
    "sample": (["--count", "200"], ["extensions", "group", "measures", "norms", "seeding"]),
    "ubound": (["--count", "2000"], _INEQUALITIES),
    "poincare": (["--count", "2000"], _INEQUALITIES),
    "gap": (["--count", "2000"], _INEQUALITIES),
    "ball-check": (["--count", "2000"], _INEQUALITIES),
    "localize": (["--count", "1000", "--translation-count", "100"], _INEQUALITIES),
    "geodesic": (["--target", "1,0,0,0", "--restarts", "1"],
                 ["extensions", "geodesics", "group", "norms", "seeding"]),
}


def _run_fresh(*argv: str) -> str:
    """Run `python -c` in a fresh process with ./src first on the path; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_cli_start_up_loads_no_library_jsonschema_or_scipy(tmp_path):
    _run_fresh(STARTUP_GUARD, str(tmp_path))


def test_package_exports_each_name_from_its_module():
    import carnotlab

    assert sorted([*carnotlab._HOME, "__version__"]) == sorted(carnotlab.__all__)
    for name, module in carnotlab._HOME.items():
        home = importlib.import_module(f"carnotlab.{module}")
        assert getattr(carnotlab, name) is getattr(home, name), name


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(tmp_path, command):
    flags, modules = COMMAND_MODULES[command]
    loaded = json.loads(_run_fresh(COMMAND_GUARD, str(tmp_path), command, *flags).splitlines()[-1])
    assert loaded == sorted(["carnotlab.cli", *(f"carnotlab.{m}" for m in modules)])


def test_cli_and_pointwise_commands_load_no_heavy_module(tmp_path):
    _run_fresh(GUARD, str(tmp_path))


def test_geodesics_import_loads_no_heavy_module(tmp_path):
    # The first solve loads the L-BFGS-B core, and nothing else of scipy.optimize.
    _run_fresh(GEODESIC_GUARD, str(tmp_path))


def test_gap_and_engel_z_load_no_heavy_module(tmp_path):
    # Each loads one compiled extension: LAPACK for the gap, Gamma for Z.
    _run_fresh(GAP_AND_Z_GUARD, str(tmp_path))


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_source_module_imports_scipy_stats():
    offenders = {
        path.name: sorted(m for m in _imported_modules(path) if m.startswith("scipy.stats"))
        for path in sorted((SRC / "carnotlab").glob("*.py"))
    }
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; `__all__` entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_keeps_an_unused_import():
    paths = [
        *sorted((SRC / "carnotlab").glob("*.py")),
        *sorted((REPO_ROOT / "tests").glob("*.py")),
        *sorted((REPO_ROOT / "bench").glob("*.py")),
    ]
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def test_every_package_definition_is_named_elsewhere():
    """A top-level function or class of the package that no module, test,
    benchmark or the README names again is unused API.  The search is on
    text, so the benchmark tracer's string names count as uses."""
    texts = [
        path.read_text(encoding="utf-8")
        for path in (
            *sorted(SRC.rglob("*.py")),
            *sorted((REPO_ROOT / "tests").glob("*.py")),
            *sorted((REPO_ROOT / "bench").glob("*.py")),
            REPO_ROOT / "README.md",
        )
    ]
    unused = []
    for path in sorted((SRC / "carnotlab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{node.name}\b")
                # The definition itself is one occurrence.
                if sum(len(word.findall(text)) for text in texts) < 2:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
