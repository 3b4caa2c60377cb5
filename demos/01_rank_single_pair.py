"""
Ranking one language pair from the bundled fixtures
====================================================

"""

from pathlib import Path

# the package ships the WMT24 fixture corpus next to the sources
from autorank import (
    LanguagePair,
    RenderOptions,
    TableFormat,
    parse_registry,
    parse_scores,
    rank_pair,
    render_table,
)

data = Path(__file__).resolve().parents[1] / "data" / "wmt24"

# the registry says who participated, in which category, and whether
# they withdrew; the scores file holds one row per (pair, system, metric).
# The parsers read an open file in blocks, as the CLI does
with open(data / "systems.tsv", encoding="utf-8", newline="") as handle:
    registry = parse_registry(handle)
with open(data / "scores.tsv", encoding="utf-8", newline="") as handle:
    scores = parse_scores(handle, registry)

# rank Czech-to-Ukrainian: normalize both metrics onto a shared 1..1+N
# scale, average them, sort, draw the quality line, mark selections
table = rank_pair(registry, scores, LanguagePair.from_code("cs-uk"))

print(render_table(table, RenderOptions(format=TableFormat.TEXT)))

# the exact aggregate behind the one-decimal display of the leader
top = table.rows[0]
print(f"leader: {top.name}, exact aggregate {top.autorank_exact!r}")
