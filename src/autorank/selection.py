"""Human-evaluation selection rules.

Two rules prune the automatic ranking before human judgment, with the
values every published table uses (``model._RULES``):

* A quality cutoff: scanning down the ordered table, the first jump in
  the exact aggregate, on the 1 to 1 + N scale of ``ranking``, larger
  than 1.5 draws a line; that row and everything under it is out.
  Withdrawn systems keep their positions and their aggregates count
  toward the gaps.

* Category depth limits: closed systems only qualify within the top
  ``ceil(N / 3)`` positions and open systems within the top
  ``floor(2N / 3)``, with N the full table size.  Constrained systems
  have no depth limit.

A system is selected when it is not withdrawn for the pair, sits above
the cutoff, and meets its category's depth limit.

The stages read the sort keys ``ranking.order_rows`` returns, in
leaderboard order; a key's position is its index plus one.
``find_cutoff`` and ``select_for_human_eval`` decide on the keys, and
``apply_selection`` then builds each ``RankedRow`` once, with its final
position, reason codes and display, and the raw scores tuple its key
ends in.  Gaps and depths are computed on integers, so a gap of exactly
1.5 never draws the line and ``ceil(27 / 3)`` is 9.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import gcd

from .model import _RULES, LanguagePair, RankedRow, ReasonCode, SystemCategory, SystemEntry
from .ranking import RankKey


def _ratio(text: str) -> tuple[int, int]:
    """A rule of ``_RULES``, a decimal ("1.5") or a fraction ("1/3"), as
    (numerator, denominator) in lowest terms."""

    numerator, slash, denominator = text.partition("/")
    if not slash:
        whole, _, places = text.partition(".")
        numerator, denominator = whole + places, 10 ** len(places)
    numerator, denominator = int(numerator), int(denominator)
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


# each rule as (numerator, denominator), read once from the text of _RULES
_GAP, _CLOSED, _OPEN = (
    _ratio(_RULES[key]) for key in ("cutoff_gap", "closed_fraction", "open_fraction")
)


def find_cutoff(ordered: Sequence[RankKey], unit: int) -> int | None:
    """Position of the first row below the quality line, or None.

    Returns the smallest position p >= 2 whose aggregate exceeds the
    previous row's by more than the cutoff gap, 1.5.  ``ordered`` is in
    leaderboard order as ``order_rows`` returns it, and ``unit`` is the
    pair's ``M * prod D`` from ``build_context``, so an aggregate is
    ``1 + N * K / unit`` on a table of N rows.  The test is
    ``2 * N * (K_p - K_(p-1)) > 3 * unit``, on integers.
    """

    (gap, per), n = _GAP, len(ordered)
    scale, limit = n * per, gap * unit
    for position in range(1, n):
        if (ordered[position][0] - ordered[position - 1][0]) * scale > limit:
            return position + 1
    return None


def category_limits(n_systems: int) -> tuple[int, int]:
    """(closed_limit, open_limit), ``(ceil(N / 3), floor(2N / 3))``, for a
    table of N = ``n_systems`` rows, in integer arithmetic."""

    (closed, per_closed), (open_, per_open) = _CLOSED, _OPEN
    return -(-n_systems * closed // per_closed), n_systems * open_ // per_open


def select_for_human_eval(
    ordered: Sequence[RankKey],
    cutoff_position: int | None,
    registry: Mapping[str, SystemEntry],
    pair: LanguagePair,
) -> list[tuple[ReasonCode, ...]]:
    """Decide which rows go to human evaluation.

    Args:
        ordered: every system's key in leaderboard order (see
            ``order_rows``); a key's position is its index plus one.
        cutoff_position: result of ``find_cutoff`` on the same keys.
        registry: ``parse_registry``'s name -> entry mapping.
        pair: the direction being ranked, for pair-scoped withdrawals.

    Returns:
        One reason tuple per key, in order: exactly one selected code,
        or every exclusion code that applies.
    """

    closed_limit, open_limit = category_limits(len(ordered))
    verdicts = []
    for position, key in enumerate(ordered, start=1):
        entry = registry[key[2]]
        category = entry.category
        exclusions: list[ReasonCode] = []
        if entry.is_withdrawn(pair):
            exclusions.append(ReasonCode.EXCLUDED_WITHDRAWN)
        if cutoff_position is not None and position >= cutoff_position:
            exclusions.append(ReasonCode.EXCLUDED_BELOW_CUTOFF)
        if category is SystemCategory.CLOSED and position > closed_limit:
            exclusions.append(ReasonCode.EXCLUDED_CLOSED_BELOW_THIRD)
        elif category is SystemCategory.OPEN and position > open_limit:
            exclusions.append(ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS)
        verdicts.append(tuple(exclusions) or _SELECTED[category])
    return verdicts


_SELECTED = {
    SystemCategory.CONSTRAINED: (ReasonCode.SELECTED_CONSTRAINED,),
    SystemCategory.OPEN: (ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,),
    SystemCategory.CLOSED: (ReasonCode.SELECTED_CLOSED_TOP_THIRD,),
}


def apply_selection(
    ordered: Sequence[RankKey],
    verdicts: Sequence[tuple[ReasonCode, ...]],
    registry: Mapping[str, SystemEntry],
    pair: LanguagePair,
) -> list[RankedRow]:
    """Build the finished rows, each once, with its position and reasons.

    ``verdicts`` is ``select_for_human_eval``'s result for the same
    keys, and ``registry`` is ``parse_registry``'s name -> entry
    mapping, read once per row for its category and claimed support.
    Each row's ``raw_scores`` is the tuple its key ends in.  This is the
    one place a ranked pair's ``RankedRow``s are constructed.
    """

    return [
        RankedRow(
            name,
            entry.category,
            scores,
            autorank,
            display,
            position,
            entry.claims_support(pair),
            reasons,
        )
        for position, ((_, _, name, autorank, display, scores), reasons) in enumerate(
            zip(ordered, verdicts), start=1
        )
        for entry in [registry[name]]
    ]
