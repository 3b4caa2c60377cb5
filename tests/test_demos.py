"""Every script under demos/, and the README's library example, runs to
completion against the installed sources, and every public name has a
use outside its own module."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = ROOT / "src" / "autorank"


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


def test_every_public_name_has_a_user():
    # a name that only its own module and __all__ mention is surface nobody needs
    import autorank

    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    defined_in = {
        alias.name: f"{node.module}.py"
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    docs = [(ROOT / "README.md").read_text(encoding="utf-8")]
    docs += [demo.read_text(encoding="utf-8") for demo in DEMOS]

    def used(name: str) -> bool:
        own = ("__init__.py", defined_in[name])
        texts = docs + [text for file, text in modules.items() if file not in own]
        return any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)

    assert [name for name in autorank.__all__ if name != "__version__" and not used(name)] == []
