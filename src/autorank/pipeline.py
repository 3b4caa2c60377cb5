"""End-to-end assembly: parsed scores in, finished leaderboard out.

Each stage runs once per pair, on the pair's names and score columns
(one per metric of ``model.METRICS``) as ``parse_scores`` holds them.
``build_context`` scales the pair's scores to exact integers, every
system becomes a plain sort key (``ranking.RankKey``) whose integer
decides its order, the cutoff and reason codes are decided on the
ordered keys, and ``apply_selection`` builds each ``RankedRow`` once
from its key, whose last element is the system's scores as the columns
hold them.  The table keeps no decision of its own: its cutoff is read
from the rows' reasons.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .ingest import check_completeness
from .model import METRICS, LanguagePair, LeaderboardTable, SystemEntry
from .ranking import build_context, compute_autorank, order_rows
from .selection import apply_selection, find_cutoff, select_for_human_eval


def rank_pair(
    registry: Mapping[str, SystemEntry],
    scores: Mapping[LanguagePair, tuple[Sequence[str], Sequence[Sequence[float]]]],
    pair: LanguagePair,
) -> LeaderboardTable:
    """Rank one language pair.

    Args:
        registry: every known system by name, as ``parse_registry``
            returns it; only the pair's participants are looked up.
        scores: pair -> (names, columns), as ``parse_scores``
            returns it, with one column per metric of ``METRICS``;
            only ``pair``'s entry is read.
        pair: the direction to rank.

    Returns:
        The finished table: ordered rows, each with its verdict.  It
        has no rows when nobody scored the pair.

    Raises:
        ValueError: what ``check_completeness`` rejects: a malformed
            entry, an unregistered system, an infinite score, a hole, or
            a score range too wide for a float.
    """

    # a pair nobody scored has no names and an empty column per metric
    names, columns = scores.get(pair, ((), ((),) * len(METRICS)))
    check_completeness(names, columns, registry, pair)
    rows = []
    if names:
        context = build_context(pair, names, columns)
        ordered = order_rows(compute_autorank(names, columns, context))
        cutoff = find_cutoff(ordered, context[0])
        verdicts = select_for_human_eval(ordered, cutoff, registry, pair)
        rows = apply_selection(ordered, verdicts, registry, pair)
    return LeaderboardTable(pair, tuple(rows))


def pairs_in(scores: Mapping[LanguagePair, object]) -> list[LanguagePair]:
    """The scored pairs, canonically sorted."""

    return sorted(scores)
