"""Every name a module of ``autorank`` imports is used in that module.

A parameter or type that leaves the engine tends to leave its import
behind; this test finds such a leftover by reading each module's
syntax tree.  A name counts as used when the module loads it anywhere
(a ``Name`` node read, not assigned), or names it in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parents[1] / "src" / "autorank"

# imported and never used, so that perfbench/tracer.py can rebind the name
# on the importing module and see the calls the engine makes through it
KEPT_FOR_THE_TRACER = {
    ("cli", "validate_golden_pair"),
    ("cli", "render_report"),
    ("render", "display_str"),
}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        # the names a package re-exports through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    unused = set(_unused_imports(path)) - {
        name for module, name in KEPT_FOR_THE_TRACER if module == path.stem
    }
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_the_tracer_exemptions_are_still_unused_imports():
    # an exemption whose name is used again, or no longer imported, goes
    for module, name in KEPT_FOR_THE_TRACER:
        assert name in _unused_imports(SOURCES / f"{module}.py"), (module, name)


def test_an_unused_import_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from collections.abc import Iterable, Sequence\n"
        "import math\n"
        "import os.path\n"
        "from .model import METRICS as COLUMNS, MetricSpec\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Iterable') -> float:\n"
        "    return math.pi + len(COLUMNS) + len(os.sep)\n"
    )
    # an annotation given as a string does not count as a use
    assert _unused_imports(source) == ["Iterable", "MetricSpec"]
