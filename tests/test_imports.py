"""Start-up cost: importing the CLI loads no heavy scipy submodule."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

# Each costs 0.1-1.1 s to import; a command that needs one imports it in
# the function that uses it.
HEAVY = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.stats", "numpy.f2py")

GUARD = """
import sys
from carnotlab.cli import build_parser, main

HEAVY = {heavy!r}

def check(step):
    loaded = sorted(m for m in HEAVY if m in sys.modules)
    if loaded:
        print(step, "loaded", loaded)
        sys.exit(1)

check("import")
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


def _run_fresh(*argv: str) -> None:
    """Run `python -c` in a fresh process with ./src first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_and_pointwise_commands_load_no_heavy_module(tmp_path):
    _run_fresh(GUARD.format(heavy=HEAVY), str(tmp_path))


def test_geodesics_import_loads_no_heavy_module():
    # The L-BFGS-B core is imported inside the driver, on the first solve.
    _run_fresh(
        "import sys, carnotlab.geodesics\n"
        f"loaded = sorted(m for m in {HEAVY!r} if m in sys.modules)\n"
        "assert not loaded, loaded\n"
    )


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
