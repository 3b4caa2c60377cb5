"""
One table, four output formats
==============================

"""

import json
from pathlib import Path

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
with open(data / "systems.tsv", encoding="utf-8", newline="") as handle:
    registry = parse_registry(handle)
with open(data / "scores.tsv", encoding="utf-8", newline="") as handle:
    scores = parse_scores(handle, registry)
table = rank_pair(registry, scores, LanguagePair.from_code("en-is"))

# markdown for READMEs and issue trackers
print(render_table(table, RenderOptions(format=TableFormat.MARKDOWN)))

# latex for camera-ready proceedings; closed systems can be filtered
# out, which is how the published open-track tables were produced
latex = render_table(
    table, RenderOptions(format=TableFormat.LATEX, include_closed=False)
)
print("\n".join(latex.splitlines()[:6]))
print("...")

# json round-trips every exact value, so a saved report can serve as a
# golden for later verify runs
payload = json.loads(render_table(table, RenderOptions(format=TableFormat.JSON)))
entry = payload["pairs"][0]
print(f"\njson: pair {entry['pair']}, {len(entry['rows'])} rows,"
      f" cutoff at position {entry['cutoff_position']}")
