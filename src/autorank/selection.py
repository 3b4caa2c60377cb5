"""Human-evaluation selection rules.

Two mechanisms prune the automatic ranking before human judgment:

* A quality cutoff: scanning down the ordered table, the first jump in
  the exact aggregate larger than ``cutoff_gap`` draws a line; that row
  and everything under it is out.  Withdrawn systems keep their
  positions and their aggregates count toward the gaps.

* Category depth limits: closed systems only qualify within the top
  ``ceil(N * closed_fraction)`` positions and open systems within the
  top ``floor(N * open_fraction)``, with N the full table size.
  Constrained systems have no depth limit.

A system is selected when it is not withdrawn for the pair, sits above
the cutoff, and meets its category's depth limit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

from .model import RankedRow, RankingConfig, ReasonCode, SystemCategory


def find_cutoff(ordered: Sequence[RankedRow], config: RankingConfig) -> int | None:
    """Position of the first row below the quality line, or None.

    Returns the smallest position p >= 2 whose exact aggregate exceeds
    the previous row's by more than ``cutoff_gap``.  Rows are assumed
    ordered and 1-based as produced by ``order_rows``.
    """

    for previous, current in zip(ordered, ordered[1:]):
        if current.autorank_exact - previous.autorank_exact > config.cutoff_gap:
            return current.position
    return None


def category_limits(n_systems: int, config: RankingConfig) -> tuple[int, int]:
    """(closed_limit, open_limit) for a table of ``n_systems`` rows.

    Exact rational arithmetic: ceil(27 * 1/3) must be 9, not a float
    whisker above it.
    """

    closed_limit = math.ceil(n_systems * config.closed_fraction)
    open_limit = math.floor(n_systems * config.open_fraction)
    return closed_limit, open_limit


def select_for_human_eval(
    ordered: Sequence[RankedRow],
    cutoff_position: int | None,
    config: RankingConfig,
) -> list[tuple[ReasonCode, ...]]:
    """Decide which rows go to human evaluation.

    Args:
        ordered: full table in leaderboard order, positions stamped.
        cutoff_position: result of ``find_cutoff`` on the same rows.
        config: category fractions.

    Returns:
        One reason tuple per row, in row order: exactly one selected
        code, or every exclusion code that applies.
    """

    closed_limit, open_limit = category_limits(len(ordered), config)
    verdicts = []
    for row in ordered:
        exclusions: list[ReasonCode] = []
        if row.withdrawn:
            exclusions.append(ReasonCode.EXCLUDED_WITHDRAWN)
        if cutoff_position is not None and row.position >= cutoff_position:
            exclusions.append(ReasonCode.EXCLUDED_BELOW_CUTOFF)
        if row.category is SystemCategory.CLOSED and row.position > closed_limit:
            exclusions.append(ReasonCode.EXCLUDED_CLOSED_BELOW_THIRD)
        elif row.category is SystemCategory.OPEN and row.position > open_limit:
            exclusions.append(ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS)
        verdicts.append(tuple(exclusions) or (_SELECTED[row.category],))
    return verdicts


_SELECTED = {
    SystemCategory.CONSTRAINED: ReasonCode.SELECTED_CONSTRAINED,
    SystemCategory.OPEN: ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,
    SystemCategory.CLOSED: ReasonCode.SELECTED_CLOSED_TOP_THIRD,
}


def apply_selection(
    ordered: Sequence[RankedRow],
    verdicts: Sequence[tuple[ReasonCode, ...]],
) -> list[RankedRow]:
    """Stamp each row with its reason tuple from ``select_for_human_eval``."""

    return [replace(row, reasons=reasons) for row, reasons in zip(ordered, verdicts)]
