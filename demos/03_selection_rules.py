"""
How systems qualify for human evaluation
========================================

"""

from pathlib import Path

from autorank import LanguagePair, parse_registry, parse_scores, rank_pair
from autorank.selection import category_limits

data = Path(__file__).resolve().parents[1] / "data" / "wmt24"
with open(data / "systems.tsv", encoding="utf-8", newline="") as handle:
    registry = parse_registry(handle)
with open(data / "scores.tsv", encoding="utf-8", newline="") as handle:
    scores = parse_scores(handle, registry)

# English-to-Hindi has the tightest quality line in the corpus: the
# first aggregate jump over 1.5 is 1.62, between positions 15 and 16
table = rank_pair(registry, scores, LanguagePair.from_code("en-hi"))
above = table.rows[table.cutoff_position - 2]
below = table.rows[table.cutoff_position - 1]
print(f"{table.pair.code}: N={table.n_systems}, cutoff at position {table.cutoff_position}")
print(f"  last above the line: {above.name} ({above.autorank_exact:.3f})")
print(f"  first below:         {below.name} ({below.autorank_exact:.3f})")
print(f"  gap: {below.autorank_exact - above.autorank_exact:.3f}\n")

# category depth limits on top of the cutoff: closed systems only count
# in the top third, open systems in the top two thirds, constrained
# systems everywhere above the line
closed_limit, open_limit = category_limits(table.n_systems)
print(f"closed systems qualify through position {closed_limit},"
      f" open through {open_limit}\n")

# every verdict carries machine-readable reasons
for row in table.rows:
    mark = "+" if row.selected else "-"
    codes = ", ".join(reason.value for reason in row.reasons)
    print(f"  {mark} {row.position:>2} {row.name:<22} {codes}")
