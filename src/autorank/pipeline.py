"""End-to-end assembly: parsed scores in, finished leaderboard out.

Each stage runs once per pair.  ``build_context`` scales the pair's
scores to exact integers, every system becomes a plain sort key
(``ranking.RankKey``) whose integer decides its order, the cutoff and
reason codes are decided on the ordered keys, and ``apply_selection``
builds each ``RankedRow`` once.  The table keeps no decision of its
own: its cutoff is read from the rows' reasons.
"""

from __future__ import annotations

from collections.abc import Mapping

from .ingest import check_completeness
from .model import (
    DEFAULT_METRICS,
    LanguagePair,
    LeaderboardTable,
    MetricSpec,
    RankingConfig,
    SystemEntry,
)
from .ranking import build_context, compute_autorank, order_rows
from .selection import apply_selection, find_cutoff, select_for_human_eval


def rank_pair(
    registry: Mapping[str, SystemEntry],
    scores: Mapping[LanguagePair, Mapping[str, Mapping[str, float]]],
    pair: LanguagePair,
    metrics: tuple[MetricSpec, ...] = DEFAULT_METRICS,
    config: RankingConfig = RankingConfig(),
) -> LeaderboardTable:
    """Rank one language pair.

    Args:
        registry: every known system by name, as ``parse_registry``
            returns it; only the pair's participants are looked up.
        scores: pair -> system name -> metric id -> raw score, as
            ``parse_scores`` returns; only ``pair``'s matrix is read.
        pair: the direction to rank.
        metrics: metric columns in display order.
        config: ranking and selection knobs.

    Returns:
        The finished table: ordered rows, each with its verdict.  It
        has no rows when nobody scored the pair.

    Raises:
        ValueError: incomplete score matrix, non-finite score,
            unregistered system, or a score range too wide for a float.
    """

    matrix = scores.get(pair, {})
    check_completeness(matrix, registry, metrics, pair)
    rows = []
    if matrix:
        context = build_context(pair, matrix, metrics)
        ordered = order_rows(compute_autorank(matrix, context, config))
        cutoff = find_cutoff(ordered, config, context[0])
        verdicts = select_for_human_eval(ordered, cutoff, registry, pair, config)
        rows = apply_selection(ordered, verdicts, registry, matrix, pair)
    return LeaderboardTable(pair, metrics, tuple(rows), config)


def pairs_in(scores: Mapping[LanguagePair, object]) -> list[LanguagePair]:
    """The scored pairs, canonically sorted."""

    return sorted(scores)
