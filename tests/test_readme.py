"""The README's library example runs against the current API, and its
check-id list is the CLI's."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from carnotlab.cli import CHECK_IDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_in_one_minute_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library in one minute", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[-1]) == pytest.approx(1.0, abs=1e-6)


def test_check_id_list_matches_the_cli():
    section = README.read_text(encoding="utf-8").split("### Check ids", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", section) == list(CHECK_IDS)
