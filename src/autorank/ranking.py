"""Rank normalization and aggregation.

Each metric column is rescaled linearly onto rank units before
averaging, so metrics with very different native scales contribute
equally.  For a pair with N ranked systems and a metric whose observed
best and worst raw scores are b and w:

    normalized(s) = 1 + span * disadvantage(s) / disadvantage(w)

where disadvantage(s) is ``s - b`` for lower-is-better metrics and
``b - s`` for higher-is-better ones, and span is N (default) or N - 1
depending on configuration.  The best observed score therefore maps to
exactly 1.0 and the worst to exactly 1 + span.  A degenerate column
where every system scored the same maps everyone to 1.0.

The aggregate ("autorank") is the arithmetic mean of the normalized
values across metrics, computed at full float precision.  Rounding
happens only at display time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import fmean
from typing import Iterable, Mapping

from .model import (
    LanguagePair,
    MetricSpec,
    Orientation,
    RankedRow,
    RankingConfig,
    ScaleSpan,
    SystemEntry,
    round_display,
)


@dataclass(frozen=True)
class NormalizationContext:
    """Observed per-metric extremes for one language pair.

    ``best`` and ``worst`` map metric ids to raw scores actually attained
    by some participant; ``n_systems`` counts the participants being
    ranked.  The context pins down the linear rescaling completely, so
    holding it fixed makes normalization a pure function of the score.
    """

    pair: LanguagePair
    n_systems: int
    best: Mapping[str, float]
    worst: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.n_systems < 1:
            raise ValueError("a normalization context needs at least one system")
        if set(self.best) != set(self.worst):
            raise ValueError("best and worst must cover the same metrics")

    def worst_disadvantage(self, metric: MetricSpec) -> float:
        """Distance of the worst score from the best, in raw units. Never negative."""
        b, w = self.best[metric.id], self.worst[metric.id]
        return w - b if metric.orientation is Orientation.LOWER_BETTER else b - w


def build_context(
    pair: LanguagePair,
    scores_by_system: Mapping[str, Mapping[str, float]],
    metrics: Iterable[MetricSpec],
) -> NormalizationContext:
    """Extract observed extremes from a complete score matrix.

    Args:
        pair: the direction being ranked.
        scores_by_system: system name -> metric id -> raw score; every
            system must have a score for every metric (see
            ``check_completeness``).
        metrics: the metric columns, with orientations.

    Returns:
        The context for ``normalize_score``.

    Raises:
        ValueError: empty matrix.
    """

    if not scores_by_system:
        raise ValueError(f"no participants for {pair}")
    best: dict[str, float] = {}
    worst: dict[str, float] = {}
    for metric in metrics:
        column = [row[metric.id] for row in scores_by_system.values()]
        if metric.orientation is Orientation.LOWER_BETTER:
            best[metric.id], worst[metric.id] = min(column), max(column)
        else:
            best[metric.id], worst[metric.id] = max(column), min(column)
    return NormalizationContext(pair=pair, n_systems=len(scores_by_system), best=best, worst=worst)


def _span(config: RankingConfig, n_systems: int) -> int:
    return n_systems if config.scale_span is ScaleSpan.FULL_N else n_systems - 1


def normalize_score(
    score: float,
    metric: MetricSpec,
    context: NormalizationContext,
    config: RankingConfig,
) -> float:
    """Map one raw score onto the rank scale.

    The score must lie within the context's observed range for the
    metric; anything outside it means the context was built from
    different data, which is a caller bug worth failing loudly on.
    """

    if metric.id not in context.best:
        raise ValueError(f"metric {metric.id!r} not covered by this context")
    best = context.best[metric.id]
    if metric.orientation is Orientation.LOWER_BETTER:
        disadvantage = score - best
    else:
        disadvantage = best - score
    worst_disadvantage = context.worst_disadvantage(metric)
    if disadvantage < 0 or disadvantage > worst_disadvantage:
        raise ValueError(
            f"score {score!r} for {metric.id!r} outside observed range "
            f"[{context.best[metric.id]!r}, {context.worst[metric.id]!r}]"
        )
    if worst_disadvantage == 0:
        # every participant scored identically on this metric
        return 1.0
    # divide before scaling: the worst score's ratio is then exactly 1.0,
    # keeping both scale endpoints exact in float arithmetic
    return 1.0 + _span(config, context.n_systems) * (disadvantage / worst_disadvantage)


def compute_autorank(
    entries: Mapping[str, SystemEntry],
    scores_by_system: Mapping[str, Mapping[str, float]],
    context: NormalizationContext,
    metrics: tuple[MetricSpec, ...],
    config: RankingConfig,
) -> list[RankedRow]:
    """Build unordered rows with normalized columns and the aggregate.

    Args:
        entries: registry lookup covering every scored system.
        scores_by_system: complete matrix, system -> metric -> raw score
            (see ``check_completeness``).
        context: observed extremes for this pair (see ``build_context``).
        metrics: metric columns in display order.
        config: scale span and display precision.

    Returns:
        One row per system, positions not yet assigned.
    """

    rows = []
    for name, raw in scores_by_system.items():
        entry = entries[name]
        normalized = {m.id: normalize_score(raw[m.id], m, context, config) for m in metrics}
        exact = fmean(normalized[m.id] for m in metrics)
        rows.append(
            RankedRow(
                system=entry,
                raw_scores=dict(raw),
                normalized=normalized,
                autorank_exact=exact,
                autorank_display=round_display(exact, config.display_decimals),
                withdrawn=entry.is_withdrawn(context.pair),
                claimed_support=entry.claims_support(context.pair),
            )
        )
    return rows


def order_rows(rows: Iterable[RankedRow], first_metric: MetricSpec) -> list[RankedRow]:
    """Sort rows into leaderboard order and stamp 1-based positions.

    Ties on the exact aggregate break by the first metric's normalized
    value, then by system name; the sort is stable beyond that.
    """

    ordered = sorted(
        rows,
        key=lambda r: (r.autorank_exact, r.normalized[first_metric.id], r.name),
    )
    return [replace(row, position=i) for i, row in enumerate(ordered, start=1)]
