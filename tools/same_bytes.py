#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as another revision.

    python3 tools/same_bytes.py REV

Exports REV's ``src/``, ``demos/`` and ``data/`` with ``git archive``
into a temporary directory, then runs one matrix of commands with each
side's ``src`` on ``PYTHONPATH``:

* ``rank`` in all four formats, each plain and with ``--show-reasons
  --exclude-closed``, to stdout and under ``--out``, on the bundled
  WMT24 corpus and on the seed-1 100 x 100 campaign;
* ``verify`` on WMT24, with and without the allow list, and on the
  seed-1 8 x 400 campaign against its oracle goldens;
* ``rank --format json`` on a corpus of faulty scores files: one per
  fault (see ``FAULTS``), every two of them in both line orders, lines
  holding several faults (``MIXED``), CRLF line endings, a byte-order
  mark, a duplicate whose two lines fall on either side of a block
  boundary (one file each for blocks of 64 K characters and of
  ``io.DEFAULT_BUFFER_SIZE``, the parser's block size before and after
  it shrank), one valid file with pairs interleaved and CometKiwi lines
  before MetricX lines, and one valid file in which a later pair first
  scores names an earlier pair brought and then a new one.  Each side
  must report the same first fault;
* every ``demos/*.py`` script, the library-level view of the same
  engine.  Each side runs its own copy of each demo, which reads its
  own ``data/``, so a library call a change rewrites in a demo differs
  only if what the demo prints does.  A demo that one side lacks
  differs.

The campaigns come from ``perfbench/gen.py`` and the goldens from
``perfbench/oracle.py``.  Each command's exit status, stdout, stderr and
``--out`` tree are compared; a demo writes no ``--out`` tree.  Every
command that differs is printed, and the exit status is 1 if any
differs, else 0.  Standard library only.
"""

from __future__ import annotations

import io
import itertools
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
VARIANTS = ((), ("--show-reasons", "--exclude-closed"))


def export(rev: str, into: Path) -> Path:
    """REV's ``src/``, ``demos/`` and ``data/`` trees, unpacked under
    ``into``, which is returned: the root of REV's side."""

    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "demos", "data"],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


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


SCORES_HEADER = "pair\tsystem\tmetric\tscore"
METRICS = ("metricx-23-xl", "cometkiwi-da-xl")
# the lines a fault adds to a valid file; "hole" and "range" are found
# after parsing, in pairs no valid line scores
FAULTS = {
    "columns": ["cs-uk\tA\tmetricx-23-xl"],
    "pair": ["csuk\tA\tmetricx-23-xl\t1.0"],
    "system": ["cs-uk\tGhost\tmetricx-23-xl\t1.0"],
    "metric": ["cs-uk\tA\tbleu\t30.1"],
    "malformed": ["cs-uk\tA\tcometkiwi-da-xl\t0,5"],
    "1e999": ["en-de\tB\tmetricx-23-xl\t1e999"],
    "1e-400": ["en-de\tB\tcometkiwi-da-xl\t1e-400"],
    "duplicate": ["cs-uk\tB\tmetricx-23-xl\t2.5"],
    "hole": ["en-ja\tA\tmetricx-23-xl\t1.0"],
    "range": [
        "en-zh\tA\tmetricx-23-xl\t1e308",
        "en-zh\tA\tcometkiwi-da-xl\t0.5",
        "en-zh\tB\tmetricx-23-xl\t-1e308",
        "en-zh\tB\tcometkiwi-da-xl\t0.6",
    ],
}
# lines holding several faults at once: the parser checks a line's fields
# in a fixed order
MIXED = {
    "pair+system": ["csuk\tGhost\tmetricx-23-xl\t1.0"],
    "system+metric": ["cs-uk\tGhost\tbleu\t0,5"],
    "metric+score": ["cs-uk\tA\tbleu\t1e999"],
    "duplicate+score": ["cs-uk\tB\tmetricx-23-xl\t1e-400"],
}


def _straddling(block: int) -> str:
    """A scores file whose first block of ``block`` characters ends with
    a duplicated line, so that its second copy starts the next block."""

    lines = [SCORES_HEADER]
    size = len(SCORES_HEADER) + 1
    for i in range(2000):
        line = f"cs-uk\tS{i // 2:04d}\t{METRICS[i % 2]}\t0.{i:04d}"
        if size + len(line) + 1 > block - 40:
            break
        lines.append(line)
        size += len(line) + 1
    duplicate = "cs-uk\tA\tmetricx-23-xl\t1." + "5" * (block - size - 25)
    assert size + len(duplicate) + 1 == block
    return "\n".join([*lines, duplicate, duplicate]) + "\n"


def fault_corpus(work: Path) -> list[tuple[str, Path, Path]]:
    """(label, scores, systems) of every file in the fault corpus."""

    work.mkdir(parents=True)
    systems = work / "systems.tsv"
    names = ["A", "B", "C"] + [f"S{i:04d}" for i in range(1000)]
    registry = ["system\tcategory\twithdrawn\tunsupported_pairs"]
    categories = itertools.cycle(("open", "closed", "constrained"))
    registry += [f"{name}\t{category}\t0\t" for name, category in zip(names, categories)]
    systems.write_text("\n".join(registry) + "\n", encoding="utf-8")
    valid = [
        f"{pair}\t{name}\t{metric}\t{score}"
        for pair in ("cs-uk", "en-de")
        for name, scores in (("A", ("1.5", "0.7")), ("B", ("2.0", "0.65")), ("C", ("3.25", "0.6")))
        for metric, score in zip(METRICS, scores)
    ]
    files = {f"fault {name}": valid + lines for name, lines in {**FAULTS, **MIXED}.items()}
    for first, second in itertools.permutations(FAULTS, 2):
        files[f"faults {first} then {second}"] = valid + FAULTS[first] + FAULTS[second]
    # the valid lines by system: pairs interleaved, each CometKiwi line first
    files["valid, interleaved"] = sorted(valid, key=lambda line: (line.split("\t")[1], line))
    texts = {label: "\n".join([SCORES_HEADER, *lines]) + "\n" for label, lines in files.items()}
    texts["crlf"] = texts["valid, interleaved"].replace("\n", "\r\n")
    texts["byte-order mark"] = "\ufeff" + texts["valid, interleaved"]
    for block in (1 << 16, io.DEFAULT_BUFFER_SIZE):
        texts[f"duplicate across the {block}-character block boundary"] = _straddling(block)
    # numbered names met in a new order: en-de first scores the two names
    # cs-uk brought, then a third, which cs-uk scores last
    texts["valid, names met anew"] = "\n".join(
        [SCORES_HEADER]
        + [
            f"{pair}\t{name}\t{metric}\t{score}"
            for pair, name, scores in (
                ("cs-uk", "A", ("1.5", "0.7")),
                ("cs-uk", "B", ("2.0", "0.65")),
                ("en-de", "B", ("2.5", "0.6")),
                ("en-de", "A", ("1.0", "0.75")),
                ("en-de", "C", ("3.0", "0.55")),
                ("cs-uk", "C", ("3.25", "0.6")),
            )
            for metric, score in zip(METRICS, scores)
        ]
    ) + "\n"
    corpus = []
    for i, (label, text) in enumerate(texts.items()):
        scores = work / f"scores-{i:03d}.tsv"
        scores.write_bytes(text.encode("utf-8"))
        corpus.append((label, scores, systems))
    return corpus


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


def fault_commands(corpus: list[tuple[str, Path, Path]]) -> list[tuple[str, list[str]]]:
    """(label, argv) of ``rank --format json`` on each file of the fault corpus."""

    return [
        (label, ["rank", "--scores", str(scores), "--systems", str(systems), "--format", "json"])
        for label, scores, systems in corpus
    ]


def demo_commands(roots: list[Path]) -> list[tuple[str, list[str]]]:
    """(label, interpreter argv) of each demo script either side has; the
    script's path is relative to the side's root."""

    names = sorted({path.name for root in roots for path in (root / "demos").glob("*.py")})
    return [(f"demo {name}", [f"demos/{name}"]) for name in names]


def run(root: Path, argv: list[str], cwd: Path) -> tuple:
    """Exit status, stdout, stderr and the ``out`` tree of one command,
    run with ``root``'s ``src`` on ``PYTHONPATH``.

    ``argv`` is the interpreter's arguments: ``-m autorank.cli ...`` or
    a demo script's path relative to ``root``.
    """

    cwd.mkdir(parents=True)
    if argv[0] != "-m":
        argv = [str(root / argv[0])]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)
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
        sides = {"base": export(argv[0], work / "base"), "head": ROOT}
        cli = commands(make_inputs(work / "inputs"))
        cli += fault_commands(fault_corpus(work / "faults"))
        matrix = [(label, ["-m", "autorank.cli", *args]) for label, args in cli]
        matrix += demo_commands(list(sides.values()))
        differing = 0
        for i, (label, command) in enumerate(matrix):
            base, head = (run(root, command, work / side / str(i)) for side, root in sides.items())
            if base != head:
                differing += 1
                names = ("exit", "stdout", "stderr", "out")
                parts = [name for name, a, b in zip(names, base, head) if a != b]
                print(f"differs ({', '.join(parts)}): {label}")
        print(f"{len(matrix)} commands, {differing} differing from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
