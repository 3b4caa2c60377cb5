"""
Verifying a recomputation against golden tables
===============================================

"""

from decimal import Decimal
from pathlib import Path

from autorank import (
    compare_pair,
    parse_golden,
    parse_registry,
    parse_scores,
    rank_pair,
)

data = Path(__file__).resolve().parents[1] / "data" / "wmt24"
with open(data / "systems.tsv", encoding="utf-8", newline="") as handle:
    registry = parse_registry(handle)
with open(data / "scores.tsv", encoding="utf-8", newline="") as handle:
    scores = parse_scores(handle, registry)

# the goldens were transcribed from the published tables, so their
# aggregates carry display precision only; comparison allows 0.05 slack
# plus half an ulp of each printed value
tolerance = Decimal("0.05")

# one known disagreement is waived: the published cs-uk table leaves
# Llama3-70B unchecked although it sits above the line and inside the
# open-category depth limit
allow = {("cs-uk", "Llama3-70B")}

# parse_golden checks every field, and that the report's config, if it
# has one, states the rules the engine ranks by; it returns each pair
# entry parsed: a LanguagePair, the cutoff and typed rows that
# compare_pair reads as they are
for path in sorted((data / "golden").glob("*.json")):
    for entry in parse_golden(path.read_bytes().decode("utf-8")):
        table = rank_pair(registry, scores, entry["pair"])
        comparison = compare_pair(table, entry, tolerance, allow)
        state = "ok" if comparison.ok else "MISMATCH"
        print(f"{entry['pair']}: {state} ({table.n_systems} systems)")
        for mismatch in comparison.mismatches:
            print(f"  {mismatch}")
        for note in comparison.notes:
            print(f"  note: {note}")
