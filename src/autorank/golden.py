"""Golden-report parsing and comparison for regression verification.

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

Only ``verify`` reads decimals: ``validate_golden_pair`` and
``compare_pair`` each import ``decimal`` when called, so ``rank`` never
loads it.  The annotations that name ``Decimal`` are never evaluated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence

from .model import _NUMBER, _RULES, LanguagePair, LeaderboardTable, _check_name


# a parsed golden row: ``text`` is the aggregate as written, ``value``
# its decimal and ``half_ulp`` half a unit in its last written place
GoldenRow = namedtuple("GoldenRow", "system category selected text value half_ulp")


class PairComparison(namedtuple("PairComparison", "mismatches notes")):
    """Outcome of checking one recomputed pair against its golden.

    ``compare_pair`` fills both lists as it goes.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def parse_allow_list(text: str) -> set[tuple[str, str]]:
    """Parse allow-list lines, any line ending, of the form ``pair/system``; '#' comments.

    ``pair`` must be a language pair code and ``system`` a name the
    registry accepts (see ``SystemEntry``).
    """

    entries: set[tuple[str, str]] = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pair, _, system = line.partition("/")
        if not system:
            raise ValueError(f"allow-list line {number}: expected pair/system, got {line!r}")
        try:
            LanguagePair.from_code(pair)
            _check_name(system)
        except ValueError as exc:
            raise ValueError(f"allow-list line {number}: {exc}") from None
        entries.add((pair, system))
    return entries


class _Written(float):
    """A finite JSON number that keeps the text it was written as, so that
    ``1.70`` is read at its precision; ``1e999`` reads as a plain inf."""

    def __new__(cls, text: str) -> float:
        number = float.__new__(cls, text)
        number.text = text
        return number if math.isfinite(number) else float(number)


def parse_golden(text: str) -> list[dict]:
    """Parse a golden JSON report into each ``pairs`` entry as
    ``validate_golden_pair`` returns it.  Its ``config`` may be absent,
    null, or an object whose every key is one of the rules the engine
    ranks by (``model._RULES``), with exactly the value and type the
    report writes.  Any fault raises one ValueError: the JSON parser's
    own message, or ``malformed golden report: `` and what is wrong.
    """

    import json  # only verify reads JSON

    try:
        report = json.loads(text, parse_float=_Written)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer too long to convert, or nesting too deep
        raise ValueError(str(exc)) from None
    try:
        if not isinstance(report, dict):
            raise ValueError("top level is not an object")
        config = report.get("config")
        if not isinstance(config, (dict, type(None))):
            raise ValueError("config is not an object")
        for key, value in (config or {}).items():
            if key not in _RULES:
                raise ValueError(f"unknown config key {key!r}")
            rule = _RULES[key]
            if type(value) is not type(rule) or value != rule:
                raise ValueError(f"{key} must be {rule!r}, got {value!r}")
        if "pairs" not in report:
            raise ValueError("golden report missing field 'pairs'")
        if not isinstance(report["pairs"], list):
            raise ValueError("golden field 'pairs' is not a list")
        return [validate_golden_pair(entry) for entry in report["pairs"]]
    except ValueError as exc:
        raise ValueError(f"malformed golden report: {exc}") from None


def validate_golden_pair(entry: object) -> dict:
    """Parse one golden pair entry into the dict ``compare_pair`` reads.

    ``pair`` becomes a ``LanguagePair``, ``cutoff_position`` (absent,
    null or a positive integer) an int or None, and ``rows`` a tuple of
    ``GoldenRow``.  Each row needs a ``system`` name the registry
    accepts (see ``SystemEntry``) that no other row has, a ``category``
    of open, closed or constrained, a ``position`` equal to its 1-based
    place in the list, a boolean ``selected`` and a finite decimal
    ``autorank_exact`` whose band, the value ± half an ulp, fits the
    decimal context.  Where the entry carries them, ``n_systems`` must
    be the row count and each row's ``above_cutoff`` must say whether
    its position is above the cutoff.  Raises ValueError on the first
    fault.
    """

    if not isinstance(entry, dict):
        raise ValueError("golden pair entry is not an object")
    for key in ("pair", "rows"):
        if key not in entry:
            raise ValueError(f"golden pair entry missing field {key!r}")
    rows = entry["rows"]
    if not isinstance(rows, list):
        raise ValueError("golden field 'rows' is not a list")
    parsed: dict[str, GoldenRow] = {}
    for golden_row in _golden_rows(rows):
        if golden_row.system in parsed:
            raise ValueError(f"duplicate golden row for system {golden_row.system!r}")
        parsed[golden_row.system] = golden_row
    cutoff = entry.get("cutoff_position")
    if cutoff is not None and (type(cutoff) is not int or cutoff < 1):
        raise ValueError(f"golden cutoff_position is not null or a positive integer: {cutoff!r}")
    # the fields the report derives from the rows and the cutoff, where carried
    n = entry.get("n_systems", len(rows))
    if type(n) is not int or n != len(rows):
        raise ValueError(f"golden n_systems is not {len(rows)}, the row count: {n!r}")
    for place, row in enumerate(rows, start=1):
        above = cutoff is None or place < cutoff
        if row.get("above_cutoff", above) is not above:
            raise ValueError(
                f"golden row above_cutoff is not {str(above).lower()} at position {place}"
                f" under cutoff_position {cutoff or 'null'}: {row['above_cutoff']!r}"
            )
    pair = LanguagePair.from_code(str(entry["pair"]))
    return {"pair": pair, "cutoff_position": cutoff, "rows": tuple(parsed.values())}


def _golden_rows(rows: list) -> Iterator[GoldenRow]:
    """Each of ``rows`` as a ``GoldenRow``, in order; ValueError on the first fault."""

    from decimal import Decimal, InvalidOperation

    for place, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            raise ValueError("golden row is not an object")
        try:
            system, category, position = row["system"], row["category"], row["position"]
            selected, text = row["selected"], row["autorank_exact"]
        except KeyError as exc:
            raise ValueError(f"golden row missing field {exc.args[0]!r}") from None
        if not isinstance(system, str) or not system:
            raise ValueError(f"golden row system is not a non-empty string: {system!r}")
        _check_name(system)  # as the registry's: no control or bidi character
        # a tuple, not a set: an unhashable category must compare unequal, not raise
        if category not in ("open", "closed", "constrained"):
            raise ValueError(
                f"golden row category is not open, closed or constrained: {category!r}"
            )
        if not isinstance(position, int) or isinstance(position, bool):
            raise ValueError(f"golden row position is not an integer: {position!r}")
        if position != place:
            raise ValueError(
                f"golden row position is not {place}, its place in the list: {position}"
            )
        if not isinstance(selected, bool):
            raise ValueError(f"golden row selected is not a boolean: {selected!r}")
        text = str(getattr(text, "text", text))  # a finite number as written
        try:
            # a score's ASCII syntax, which has no inf or nan: Decimal alone
            # also reads "١.٠", "1_0" and blanks
            if not _NUMBER.fullmatch(text):
                raise InvalidOperation
            value = Decimal(text)
        except InvalidOperation:
            raise ValueError(
                f"golden row autorank_exact is not a finite decimal: {text!r}"
            ) from None
        try:
            # compare_pair computes both band edges; the decimal context must hold them
            half_ulp = _half_ulp(value)
            value - half_ulp, value + half_ulp
        except ArithmeticError:
            raise ValueError(f"golden row autorank_exact is out of range: {text!r}") from None
        yield GoldenRow(system, category, selected, text, value, half_ulp)


def _half_ulp(value: Decimal) -> Decimal:
    # one in the last place of value, made by value's own class, Decimal
    return type(value)(1).scaleb(int(value.as_tuple().exponent)) / 2


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
        golden: one entry of the golden report's "pairs" list, as
            ``validate_golden_pair`` returns it.
        tolerance: allowed |computed - golden| slack on aggregates, on
            top of the golden value's own textual precision.
        allow: (pair, system) entries whose selection flag may differ.

    Returns:
        A ``PairComparison``; ``ok`` is true when nothing beyond notes
        and allow-listed differences was found.
    """

    from decimal import Decimal

    pair = golden["pair"].code  # type: ignore[attr-defined]
    result = PairComparison([], [])
    rows: Sequence[GoldenRow] = golden["rows"]  # type: ignore[assignment]

    computed = {row.name: row for row in table.rows}
    for gold in rows:
        if gold.system not in computed:
            result.mismatches.append(f"{pair}: {gold.system}: missing from computed table")
    golden_set = {gold.system for gold in rows}
    for name in computed:
        if name not in golden_set:
            result.mismatches.append(f"{pair}: {name}: absent from golden table")
    if result.mismatches:
        return result

    golden_cutoff = golden["cutoff_position"]
    if golden_cutoff != table.cutoff_position:
        result.mismatches.append(
            f"{pair}: cutoff_position: expected {golden_cutoff}, got {table.cutoff_position}"
        )

    hi: list[Decimal] = []
    lo: list[Decimal] = []
    positions: list[int] = []
    differing: list[int] = []  # rows whose selection flag disagrees
    for i, gold in enumerate(rows):
        row = computed[gold.system]
        band = tolerance + gold.half_ulp
        got = Decimal(repr(row.autorank_exact))
        if abs(got - gold.value) > band:
            result.mismatches.append(
                f"{pair}: {gold.system}: autorank: expected {gold.text} (±{band}), got {got}"
            )
        hi.append(gold.value + band)
        lo.append(gold.value - band)
        positions.append(row.position)
        if row.position != i + 1:
            result.notes.append(
                f"{pair}: {gold.system}: position {row.position} vs golden "
                f"{i + 1} (within rounding uncertainty)"
            )
        if row.selected != gold.selected:
            differing.append(i)

    # order is binding only between rows whose uncertainty bands are disjoint
    if _has_binding_inversion(hi, lo, positions):
        for i, earlier in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if hi[i] < lo[j] and positions[i] > positions[j]:
                    result.mismatches.append(
                        f"{pair}: order inversion: {earlier.system} ranked after {rows[j].system}"
                    )
    if not differing:
        return result

    # selection: exact, except allow-list and swaps inside a display tie
    # (rows sharing one golden text) that keep each category's count
    surplus: dict[tuple[str, str], int] = {}
    for gold in rows:
        key = (gold.text, gold.category)
        surplus[key] = surplus.get(key, 0) + computed[gold.system].selected - gold.selected
    unbalanced = {text for (text, _), count in surplus.items() if count}
    for i in differing:
        name, expected, text = rows[i].system, rows[i].selected, rows[i].text
        got = computed[name].selected
        if (pair, name) in allow:
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
