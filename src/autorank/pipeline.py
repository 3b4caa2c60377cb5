"""End-to-end assembly: records in, finished leaderboard out."""

from __future__ import annotations

from typing import Iterable, Sequence

from .ingest import check_completeness
from .model import (
    DEFAULT_METRICS,
    LanguagePair,
    LeaderboardTable,
    MetricSpec,
    RankingConfig,
    ScoreRecord,
    SystemEntry,
)
from .ranking import build_context, compute_autorank, order_rows
from .selection import apply_selection, find_cutoff, select_for_human_eval


def rank_pair(
    registry: Sequence[SystemEntry],
    records: Iterable[ScoreRecord],
    pair: LanguagePair,
    metrics: tuple[MetricSpec, ...] = DEFAULT_METRICS,
    config: RankingConfig = RankingConfig(),
) -> LeaderboardTable:
    """Rank one language pair.

    Every record passed in is scanned, so a caller ranking many pairs
    should group the records by pair once and pass each pair's slice;
    passing every record gives the same table at O(pairs x records).

    Args:
        registry: all known systems (participants and not).
        records: score records; other pairs' records are ignored.
        pair: the direction to rank.
        metrics: metric columns in display order.
        config: ranking and selection knobs.

    Returns:
        The finished table: ordered rows, cutoff, selection verdicts.

    Raises:
        ValueError: incomplete score matrix or unregistered system.
    """

    scores_by_system = check_completeness(list(records), registry, metrics, pair)
    if not scores_by_system:
        return LeaderboardTable(
            pair=pair, metrics=metrics, rows=(), cutoff_position=None, config=config
        )

    entries = {entry.name: entry for entry in registry}
    context = build_context(pair, scores_by_system, metrics)
    rows = compute_autorank(entries, scores_by_system, context, metrics, config)
    ordered = order_rows(rows, metrics[0])
    cutoff = find_cutoff(ordered, config)
    outcome = select_for_human_eval(ordered, cutoff, config)
    final = apply_selection(ordered, outcome)
    return LeaderboardTable(
        pair=pair,
        metrics=metrics,
        rows=tuple(final),
        cutoff_position=cutoff,
        config=config,
    )


def pairs_in(records: Iterable[ScoreRecord]) -> list[LanguagePair]:
    """Distinct pairs present in the records, canonically sorted."""

    return sorted({record.pair for record in records})
