"""Golden-report comparison for regression verification.

A golden file is a JSON report (see :mod:`autorank.render`), either
generated by an earlier engine run or transcribed from a published
table.  Transcribed goldens carry aggregates at display precision and
metric inputs rounded to a few decimals, so a recomputation cannot hit
their cells exactly.  Comparison therefore works with an uncertainty
band per golden value: the configured tolerance plus half an ulp of the
golden's own textual precision ("1.9" is any value in [1.85, 1.95)).

Three consequences, all reported as notes rather than failures:

* an aggregate matches when it lands within the band around the golden
  value;
* relative order is enforced only between rows whose bands do not
  overlap, since rounding noise can legitimately permute near-ties.
  The check is exact and O(N log N): one sweep finds whether any such
  pair is inverted, and only then are the inverted pairs listed;
* a selection flag may swap between rows sharing one displayed
  aggregate when the swap preserves, per category, how many rows of
  that tie group are selected.  Anything else is a mismatch unless the
  (pair, system) is explicitly allow-listed.

With full-precision engine goldens the bands collapse and every check
becomes effectively exact.
"""

from __future__ import annotations

from bisect import bisect_left
from decimal import Decimal, InvalidOperation
from typing import Mapping, Sequence

from .model import LeaderboardTable

REQUIRED_ROW_FIELDS = ("system", "autorank_exact", "position", "selected", "category")


class PairComparison:
    """Outcome of checking one recomputed pair against its golden.

    ``compare_pair`` fills the three lists as it goes.
    """

    __slots__ = ("pair", "mismatches", "notes", "allow_used")

    def __init__(self, pair: str) -> None:
        self.pair = pair
        self.mismatches: list[str] = []
        self.notes: list[str] = []
        self.allow_used: list[tuple[str, str]] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches


def parse_allow_list(text: str) -> set[tuple[str, str]]:
    """Parse allow-list lines of the form ``pair/system``; '#' comments."""

    entries: set[tuple[str, str]] = set()
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "/" not in line:
            raise ValueError(f"allow-list line {number}: expected pair/system, got {line!r}")
        pair, system = line.split("/", 1)
        entries.add((pair, system))
    return entries


def validate_golden_pair(payload: Mapping[str, object]) -> None:
    """Raise ValueError unless a golden pair entry has the shape compare_pair reads.

    That is an object whose ``rows`` is a list of objects, one per
    system, each holding the required fields, an integer ``position``, a
    boolean ``selected`` and a finite decimal ``autorank_exact`` whose
    uncertainty band, the value plus and minus half an ulp, fits the
    decimal context.
    """

    if not isinstance(payload, dict):
        raise ValueError("golden pair entry is not an object")
    for key in ("pair", "rows"):
        if key not in payload:
            raise ValueError(f"golden pair entry missing field {key!r}")
    rows = payload["rows"]
    if not isinstance(rows, list):
        raise ValueError("golden field 'rows' is not a list")
    systems: set[str] = set()
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError("golden row is not an object")
        for key in REQUIRED_ROW_FIELDS:
            if key not in row:
                raise ValueError(f"golden row missing field {key!r}")
        system = str(row["system"])
        if system in systems:
            raise ValueError(f"duplicate golden row for system {system!r}")
        systems.add(system)
        position = row["position"]
        if not isinstance(position, int) or isinstance(position, bool):
            raise ValueError(f"golden row position is not an integer: {position!r}")
        if not isinstance(row["selected"], bool):
            raise ValueError(f"golden row selected is not a boolean: {row['selected']!r}")
        text = str(row["autorank_exact"])
        try:
            value = Decimal(text)
        except InvalidOperation:
            value = Decimal("NaN")
        if not value.is_finite():
            raise ValueError(f"golden row autorank_exact is not a finite decimal: {text!r}")
        try:
            # compare_pair computes both band edges; the decimal context must hold them
            half_ulp = _half_ulp(value)
            value - half_ulp, value + half_ulp
        except ArithmeticError:
            raise ValueError(f"golden row autorank_exact is out of range: {text!r}") from None


def _half_ulp(value: Decimal) -> Decimal:
    return Decimal(1).scaleb(int(value.as_tuple().exponent)) / 2


def _has_binding_inversion(
    hi: Sequence[Decimal], lo: Sequence[Decimal], positions: Sequence[int]
) -> bool:
    """Whether some i < j has ``hi[i] < lo[j]`` and ``positions[i] > positions[j]``.

    One sweep in index order over a Fenwick prefix-max of positions,
    keyed by the rank of each ``hi`` among the sorted upper edges: an
    earlier row i has ``hi[i] < lo[j]`` exactly when its rank is below
    ``bisect_left(edges, lo[j])``.
    """

    edges = sorted(hi)
    size = len(edges)
    best = [float("-inf")] * (size + 1)
    for upper, lower, position in zip(hi, lo, positions):
        k = bisect_left(edges, lower)
        top = float("-inf")
        while k:
            if best[k] > top:
                top = best[k]
            k &= k - 1
        if top > position:
            return True
        k = bisect_left(edges, upper) + 1
        while k <= size:
            if best[k] < position:
                best[k] = position
            k += k & -k
    return False


def compare_pair(
    table: LeaderboardTable,
    golden: Mapping[str, object],
    tolerance: Decimal,
    allow: frozenset[tuple[str, str]] | set[tuple[str, str]] = frozenset(),
) -> PairComparison:
    """Compare a recomputed table against one golden pair entry.

    Args:
        table: freshly computed leaderboard for the same pair.
        golden: one entry of the golden report's "pairs" list.
        tolerance: allowed |computed - golden| slack on aggregates, on
            top of the golden value's own textual precision.
        allow: (pair, system) entries whose selection flag may differ.

    Returns:
        A ``PairComparison``; ``ok`` is true when nothing beyond notes
        and allow-listed differences was found.
    """

    pair = str(golden["pair"])
    result = PairComparison(pair=pair)
    rows: Sequence[Mapping[str, object]] = golden["rows"]  # type: ignore[assignment]

    computed = {row.name: row for row in table.rows}
    # each golden row's fields, read once: system, aggregate text,
    # position, selected, category
    fields = [
        (
            str(row["system"]),
            str(row["autorank_exact"]),
            row["position"],
            bool(row["selected"]),
            str(row["category"]),
        )
        for row in rows
    ]
    for name, *_ in fields:
        if name not in computed:
            result.mismatches.append(f"{pair}: {name}: missing from computed table")
    golden_set = {name for name, *_ in fields}
    for name in computed:
        if name not in golden_set:
            result.mismatches.append(f"{pair}: {name}: absent from golden table")
    if result.mismatches:
        return result

    golden_cutoff = golden.get("cutoff_position")
    if golden_cutoff != table.cutoff_position:
        result.mismatches.append(
            f"{pair}: cutoff_position: expected {golden_cutoff}, got {table.cutoff_position}"
        )

    hi: list[Decimal] = []
    lo: list[Decimal] = []
    positions: list[int] = []
    differing: list[int] = []  # rows whose selection flag disagrees
    for i, (name, text, golden_position, expected, _) in enumerate(fields):
        row = computed[name]
        value = Decimal(text)
        band = tolerance + _half_ulp(value)
        got = Decimal(repr(row.autorank_exact))
        if abs(got - value) > band:
            result.mismatches.append(
                f"{pair}: {name}: autorank: expected {text} (±{band}), got {got}"
            )
        hi.append(value + band)
        lo.append(value - band)
        positions.append(row.position)
        if row.position != int(golden_position):  # type: ignore[call-overload]
            result.notes.append(
                f"{pair}: {name}: position {row.position} vs golden "
                f"{golden_position} (within rounding uncertainty)"
            )
        if row.selected != expected:
            differing.append(i)

    # order is binding only between rows whose uncertainty bands are disjoint
    if _has_binding_inversion(hi, lo, positions):
        for i, (earlier, *_) in enumerate(fields):
            for j in range(i + 1, len(fields)):
                if hi[i] < lo[j] and positions[i] > positions[j]:
                    result.mismatches.append(
                        f"{pair}: order inversion: {earlier} ranked after {fields[j][0]}"
                    )
    if not differing:
        return result

    # selection: exact, except allow-list and swaps inside a display tie
    # (rows sharing one golden text) that keep each category's count
    surplus: dict[tuple[str, str], int] = {}
    for name, text, _, expected, category in fields:
        key = (text, category)
        surplus[key] = surplus.get(key, 0) + computed[name].selected - expected
    unbalanced = {text for (text, _), count in surplus.items() if count}
    for i in differing:
        name, text, _, expected, _ = fields[i]
        got = computed[name].selected
        if (pair, name) in allow:
            result.allow_used.append((pair, name))
            result.notes.append(
                f"{pair}: {name}: selection differs (expected {expected}, got {got}), allow-listed"
            )
        elif text not in unbalanced:
            result.notes.append(
                f"{pair}: {name}: selection swapped within display tie "
                f"(expected {expected}, got {got})"
            )
        else:
            result.mismatches.append(f"{pair}: {name}: selected: expected {expected}, got {got}")
    return result
