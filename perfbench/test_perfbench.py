"""Tests for the benchmark's own parts.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import BINDINGS, Tracer, self_times  # noqa: E402

WMT24 = ROOT / "data" / "wmt24"


def test_generator_is_deterministic():
    first = gen.campaign(12, 30, seed=5)
    assert gen.campaign(12, 30, seed=5) == first
    assert gen.campaign(12, 30, seed=6) != first
    systems, scores = first
    assert scores.count("\n") == 1 + 2 * 12 * 30
    assert all(len(score.split(".")[1]) == 3 for score in _column(scores, 3))


def test_generator_mixes_registry_features():
    systems, _ = gen.campaign(20, 100, seed=1)
    rows = [line.split("\t") for line in systems.splitlines()[1:]]
    assert {row[1] for row in rows} == {"constrained", "open", "closed"}
    withdrawn = {row[2] for row in rows}
    assert "1" in withdrawn and any("-" in token for token in withdrawn)
    assert any(row[3] for row in rows)


def test_oracle_reproduces_wmt24_goldens():
    goldens = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((WMT24 / "golden").glob("*.json"))
    }
    systems = (WMT24 / "systems.tsv").read_text(encoding="utf-8")
    scores = (WMT24 / "scores.tsv").read_text(encoding="utf-8")
    assert len(goldens) == 11
    allow = frozenset({("cs-uk", "Llama3-70B")})
    assert oracle.check_against_goldens(systems, scores, goldens, allow) == []
    # the allow-listed flag is the only decision the oracle does not reproduce
    assert oracle.check_against_goldens(systems, scores, goldens) == [
        "cs-uk: Llama3-70B: selected True"
    ]


def test_oracle_does_not_import_autorank():
    code = "import sys, oracle; print(any(m.startswith('autorank') for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_tracer_restores_every_name_it_rebinds():
    import importlib

    modules = {name: importlib.import_module(name) for name, *_ in BINDINGS}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = Tracer()
    with tracer:
        for name, attr, *_ in BINDINGS:
            assert getattr(modules[name], attr) is not before[name][attr]
    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[key] is before[name][key] for key in after)


def test_traced_cli_records_nested_spans_and_counts(capsys):
    import autorank.cli

    argv = [
        "rank", "--scores", str(WMT24 / "scores.tsv"),
        "--systems", str(WMT24 / "systems.tsv"), "--format", "json",
    ]
    assert autorank.cli.main(argv) == 0
    plain = capsys.readouterr().out
    with Tracer() as tracer:
        assert autorank.cli.main(argv) == 0
    assert capsys.readouterr().out == plain
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and names.count("pipeline.rank_pair") == 11
    assert tracer.counts["ingest.records_scanned"] == 11 * 488
    own = self_times(tracer.spans)
    assert all(value >= 0 for value in own)
    assert own[0] < tracer.spans[0][2] - tracer.spans[0][1]


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["parent", 0, 100, -1, 1],
        ["child", 10, 30, 0, 1],
        ["grandchild", 12, 20, 1, 1],
        ["child", 40, 50, 0, 1],
    ]
    assert self_times(spans) == [70, 12, 8, 10]


def _column(tsv: str, index: int) -> list[str]:
    return [line.split("\t")[index] for line in tsv.splitlines()[1:]]
