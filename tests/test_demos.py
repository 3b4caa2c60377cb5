"""Every script under demos/, and the README's library example, runs to
completion against the installed sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo: Path):
    result = _run(str(demo))
    assert result.returncode == 0, result.stderr


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = _run("-c", snippet)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 20  # one line per cs-uk system
