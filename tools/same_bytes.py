#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as another revision.

    python3 tools/same_bytes.py REV

Exports REV's ``src/`` with ``git archive`` into a temporary directory,
then runs one matrix of commands with each side's ``src`` on
``PYTHONPATH``:

* ``rank`` in all four formats, each plain, with ``--show-reasons
  --exclude-closed`` and with ``--span n-1 --cutoff-gap 1.0``, to stdout
  and under ``--out``, on the bundled WMT24 corpus and on the seed-1
  100 x 100 campaign;
* ``verify`` on WMT24, with and without the allow list, and on the
  seed-1 8 x 400 campaign against its oracle goldens.

The campaigns come from ``perfbench/gen.py`` and the goldens from
``perfbench/oracle.py``.  Each command's exit status, stdout, stderr and
``--out`` tree are compared.  Every command that differs is printed, and
the exit status is 1 if any differs, else 0.  Standard library only.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402

FORMATS = ("text", "md", "latex", "json")
VARIANTS = ((), ("--show-reasons", "--exclude-closed"), ("--span", "n-1", "--cutoff-gap", "1.0"))


def export_src(rev: str, into: Path) -> Path:
    """REV's ``src/`` tree, unpacked under ``into``."""

    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def make_inputs(work: Path) -> dict[str, tuple[Path, Path]]:
    """(scores, systems) of each corpus; the wide campaign gets oracle goldens."""

    corpora = {"wmt24": ROOT / "data" / "wmt24"}
    for name, shape in (("campaign", (100, 100)), ("wide", (8, 400))):
        corpora[name] = work / name
        gen.write_campaign(corpora[name], *shape, 1)
    wide = corpora["wide"]
    oracle.write_goldens(
        wide / "golden",
        (wide / "systems.tsv").read_text(encoding="utf-8"),
        (wide / "scores.tsv").read_text(encoding="utf-8"),
    )
    return {name: (path / "scores.tsv", path / "systems.tsv") for name, path in corpora.items()}


def commands(inputs: dict[str, tuple[Path, Path]]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command in the matrix; ``--out`` is relative."""

    matrix = []
    for corpus in ("wmt24", "campaign"):
        scores, systems = inputs[corpus]
        for fmt in FORMATS:
            for variant in VARIANTS:
                for out in ((), ("--out", "out")):
                    argv = ["rank", "--scores", str(scores), "--systems", str(systems)]
                    argv += ["--format", fmt, *variant, *out]
                    matrix.append((f"{corpus}: {' '.join(argv[5:])}", argv))
    wmt24 = ["--golden", str(ROOT / "data" / "wmt24" / "golden")]
    allow = ["--allow-mismatch", str(ROOT / "data" / "wmt24" / "allow_mismatch.txt")]
    wide = ["--golden", str(inputs["wide"][0].parent / "golden"), "--autorank-tol", "1e-9"]
    for corpus, extra in (("wmt24", wmt24), ("wmt24", wmt24 + allow), ("wide", wide)):
        scores, systems = inputs[corpus]
        argv = ["verify", "--scores", str(scores), "--systems", str(systems), *extra]
        matrix.append((f"{corpus}: verify {' '.join(extra[2:])}".rstrip(), argv))
    return matrix


def run(src: Path, argv: list[str], cwd: Path) -> tuple:
    """Exit status, stdout, stderr and the ``out`` tree of one command."""

    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "autorank.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    tree = {
        str(path.relative_to(cwd)): path.read_bytes()
        for path in sorted((cwd / "out").rglob("*"))
        if path.is_file()
    }
    return done.returncode, done.stdout, done.stderr, tree


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sides = {"base": export_src(argv[0], work / "base"), "head": ROOT / "src"}
        matrix = commands(make_inputs(work / "inputs"))
        differing = 0
        for i, (label, command) in enumerate(matrix):
            base, head = (run(src, command, work / side / str(i)) for side, src in sides.items())
            if base != head:
                differing += 1
                names = ("exit", "stdout", "stderr", "out")
                parts = [name for name, a, b in zip(names, base, head) if a != b]
                print(f"differs ({', '.join(parts)}): {label}")
        print(f"{len(matrix)} commands, {differing} differing from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
