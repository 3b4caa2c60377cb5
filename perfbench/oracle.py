"""Reference ranker: the decision oracle for the benchmark's output checks.

Written from the ranking rules in the project README, in exact
``Fraction`` arithmetic on the scores' decimal text.  It never imports
``autorank``, so a defect in the engine cannot hide in both.

Rules implemented:

* each metric column of a pair is rescaled linearly so the best observed
  score maps to 1 and the worst to 1 + N (N - 1 with span "n-1"); a
  column where everyone scored the same maps to 1;
* the aggregate is the mean of the rescaled columns;
* rows order by aggregate, then by the first metric's rescaled value,
  then by system name;
* the first jump in the aggregate larger than the cutoff gap draws the
  line: that row and every row under it are below the cutoff;
* closed systems qualify only in the top ceil(N * closed_fraction)
  positions, open systems in the top floor(N * open_fraction),
  constrained systems anywhere above the line, withdrawn systems never.

The module also writes golden reports in the engine's JSON golden
format, and ``python3 perfbench/oracle.py`` checks the oracle against
the bundled WMT24 goldens.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Mapping

METRICS = (("metricx-23-xl", "lower"), ("cometkiwi-da-xl", "higher"))
DEFAULT_CONFIG = {
    "closed_fraction": "1/3",
    "cutoff_gap": "1.5",
    "display_decimals": 1,
    "open_fraction": "2/3",
    "scale_span": "n",
}
REASONS = (
    "selected_constrained",
    "selected_open_top_two_thirds",
    "selected_closed_top_third",
    "excluded_closed_below_third",
    "excluded_open_below_two_thirds",
    "excluded_below_cutoff",
    "excluded_withdrawn",
)
_SELECTED = {
    "constrained": "selected_constrained",
    "open": "selected_open_top_two_thirds",
    "closed": "selected_closed_top_third",
}


@dataclass(frozen=True)
class System:
    name: str
    category: str
    withdrawn_everywhere: bool
    withdrawn_pairs: frozenset[str]
    unsupported_pairs: frozenset[str]


@dataclass(frozen=True)
class Row:
    system: str
    category: str
    position: int
    aggregate: Fraction
    withdrawn: bool
    claimed_support: bool
    above_cutoff: bool
    selected: bool
    reasons: frozenset[str]


@dataclass(frozen=True)
class Decision:
    pair: str
    cutoff_position: int | None
    rows: tuple[Row, ...]


def _table(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split("\t") for line in lines[1:]]


def read_systems(text: str) -> dict[str, System]:
    systems = {}
    for name, category, withdrawn, unsupported in _table(
        text, "system\tcategory\twithdrawn\tunsupported_pairs"
    ):
        pairs = frozenset(withdrawn.split(",")) if withdrawn not in ("0", "1") else frozenset()
        systems[name] = System(
            name=name,
            category=category,
            withdrawn_everywhere=withdrawn == "1",
            withdrawn_pairs=pairs,
            unsupported_pairs=frozenset(p for p in unsupported.split(",") if p),
        )
    return systems


def read_scores(text: str) -> dict[str, dict[str, dict[str, str]]]:
    """pair -> system -> metric -> score text, in file order."""

    scores: dict[str, dict[str, dict[str, str]]] = {}
    for pair, system, metric, score in _table(text, "pair\tsystem\tmetric\tscore"):
        scores.setdefault(pair, {}).setdefault(system, {})[metric] = score
    return scores


def rank(
    pair: str,
    scores: Mapping[str, Mapping[str, str]],
    systems: Mapping[str, System],
    config: Mapping[str, object] = DEFAULT_CONFIG,
) -> Decision:
    """Decide one pair; ``scores`` is system -> metric -> score text."""

    n = len(scores)
    span = n if config.get("scale_span", "n") == "n" else n - 1
    exact = {name: {m: Fraction(v) for m, v in row.items()} for name, row in scores.items()}
    normalized: dict[str, dict[str, Fraction]] = {name: {} for name in exact}
    for metric, orientation in METRICS:
        column = [row[metric] for row in exact.values()]
        best = min(column) if orientation == "lower" else max(column)
        worst_gap = abs(max(column) - min(column))
        for name, row in exact.items():
            gap = abs(row[metric] - best)
            normalized[name][metric] = 1 + span * gap / worst_gap if worst_gap else Fraction(1)
    aggregate = {
        name: sum(values[m] for m, _ in METRICS) / len(METRICS)
        for name, values in normalized.items()
    }
    first = METRICS[0][0]
    order = sorted(exact, key=lambda name: (aggregate[name], normalized[name][first], name))

    gap_limit = Fraction(str(config.get("cutoff_gap", "1.5")))
    cutoff = None
    for position in range(2, n + 1):
        if aggregate[order[position - 1]] - aggregate[order[position - 2]] > gap_limit:
            cutoff = position
            break
    closed_limit = math.ceil(n * Fraction(str(config.get("closed_fraction", "1/3"))))
    open_limit = math.floor(n * Fraction(str(config.get("open_fraction", "2/3"))))

    rows = []
    for position, name in enumerate(order, start=1):
        system = systems[name]
        withdrawn = system.withdrawn_everywhere or pair in system.withdrawn_pairs
        above = cutoff is None or position < cutoff
        reasons = set()
        if withdrawn:
            reasons.add("excluded_withdrawn")
        if not above:
            reasons.add("excluded_below_cutoff")
        if system.category == "closed" and position > closed_limit:
            reasons.add("excluded_closed_below_third")
        if system.category == "open" and position > open_limit:
            reasons.add("excluded_open_below_two_thirds")
        selected = not reasons
        if selected:
            reasons.add(_SELECTED[system.category])
        rows.append(
            Row(
                system=name,
                category=system.category,
                position=position,
                aggregate=aggregate[name],
                withdrawn=withdrawn,
                claimed_support=pair not in system.unsupported_pairs,
                above_cutoff=above,
                selected=selected,
                reasons=frozenset(reasons),
            )
        )
    return Decision(pair=pair, cutoff_position=cutoff, rows=tuple(rows))


def rank_all(
    systems_text: str, scores_text: str, config: Mapping[str, object] = DEFAULT_CONFIG
) -> dict[str, Decision]:
    """Decide every pair of a campaign, keyed by pair code."""

    systems = read_systems(systems_text)
    scores = read_scores(scores_text)
    return {pair: rank(pair, scores[pair], systems, config) for pair in sorted(scores)}


def decimal_text(value: Fraction, places: int) -> str:
    """``value`` rounded half away from zero to ``places`` decimals."""

    with localcontext() as ctx:
        ctx.prec = 60
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quotient.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


def golden_report(
    decision: Decision,
    scores: Mapping[str, Mapping[str, str]],
    config: Mapping[str, object] = DEFAULT_CONFIG,
) -> str:
    """A golden report for one pair, aggregates at 12 decimals."""

    display = int(config.get("display_decimals", 1))  # type: ignore[arg-type]
    rows = [
        {
            "above_cutoff": row.above_cutoff,
            "autorank_display": decimal_text(row.aggregate, display),
            "autorank_exact": decimal_text(row.aggregate, 12),
            "category": row.category,
            "claimed_support": row.claimed_support,
            "position": row.position,
            "reasons": sorted(row.reasons),
            "scores": dict(scores[row.system]),
            "selected": row.selected,
            "system": row.system,
            "withdrawn": row.withdrawn,
        }
        for row in decision.rows
    ]
    pair = {
        "cutoff_position": decision.cutoff_position,
        "n_systems": len(rows),
        "pair": decision.pair,
        "rows": rows,
    }
    return json.dumps({"config": dict(config), "pairs": [pair]}, indent=2, sort_keys=True) + "\n"


def write_goldens(out: Path, systems_text: str, scores_text: str) -> None:
    """One golden file per pair, named ``<pair>.json``."""

    out.mkdir(parents=True, exist_ok=True)
    scores = read_scores(scores_text)
    for pair, decision in rank_all(systems_text, scores_text).items():
        text = golden_report(decision, scores[pair])
        (out / f"{pair}.json").write_text(text, encoding="utf-8")


def _band(text: str, tolerance: Decimal) -> Decimal:
    # a transcribed value stands for an interval: tolerance plus half an ulp
    return tolerance + Decimal(1).scaleb(int(Decimal(text).as_tuple().exponent)) / 2


def check_against_goldens(
    systems_text: str,
    scores_text: str,
    goldens: Mapping[str, Mapping[str, object]],
    allow: frozenset[tuple[str, str]] = frozenset(),
    tolerance: Decimal = Decimal("0.05"),
) -> list[str]:
    """Differences between oracle decisions and transcribed goldens.

    Goldens transcribed from published tables carry display-precision
    aggregates, so they are read as the README says: cutoffs must match;
    relative order binds only between rows whose uncertainty bands are
    disjoint; a selection flag may differ inside a displayed tie when
    the tie keeps its per-category selected counts, or when the
    (pair, system) is allow-listed.
    """

    systems = read_systems(systems_text)
    scores = read_scores(scores_text)
    problems = []
    for pair, golden in sorted(goldens.items()):
        config = golden.get("config") or DEFAULT_CONFIG
        for entry in golden["pairs"]:  # type: ignore[union-attr]
            decision = rank(pair, scores[pair], systems, config)  # type: ignore[arg-type]
            if entry["cutoff_position"] != decision.cutoff_position:
                problems.append(
                    f"{pair}: cutoff {decision.cutoff_position}, golden {entry['cutoff_position']}"
                )
            mine = {row.system: row for row in decision.rows}
            grows = entry["rows"]
            for i, earlier in enumerate(grows):
                high = Decimal(earlier["autorank_exact"]) + _band(earlier["autorank_exact"], tolerance)
                for later in grows[i + 1 :]:
                    low = Decimal(later["autorank_exact"]) - _band(later["autorank_exact"], tolerance)
                    if high < low and mine[earlier["system"]].position > mine[later["system"]].position:
                        problems.append(f"{pair}: {earlier['system']} ranked after {later['system']}")
            ties: dict[str, list[Mapping[str, object]]] = {}
            for grow in grows:
                ties.setdefault(grow["autorank_exact"], []).append(grow)
            for grow in grows:
                name = grow["system"]
                if mine[name].selected == grow["selected"] or (pair, name) in allow:
                    continue
                group = ties[grow["autorank_exact"]]
                counts = [
                    sorted((g["category"], g["selected"]) for g in group),
                    sorted((g["category"], mine[g["system"]].selected) for g in group),
                ]
                if counts[0] != counts[1]:
                    problems.append(f"{pair}: {name}: selected {mine[name].selected}")
    return problems


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("data/wmt24")
    goldens = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((root / "golden").glob("*.json"))
    }
    allow = frozenset(
        tuple(line.split("/", 1))
        for line in (root / "allow_mismatch.txt").read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    )
    problems = check_against_goldens(
        (root / "systems.tsv").read_text(encoding="utf-8"),
        (root / "scores.tsv").read_text(encoding="utf-8"),
        goldens,
        allow,  # type: ignore[arg-type]
    )
    for line in problems:
        print(line)
    print(f"{len(goldens)} goldens, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
