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
happens only at display time (``model.display_str``).

No row is built here.  ``compute_autorank`` turns each system into a
plain ``RankKey`` tuple, with each column's constants computed once per
pair, and ``order_rows`` sorts the keys into leaderboard order.  The
selection stages decide on the ordered keys and
``selection.apply_selection`` builds each ``RankedRow`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .model import LanguagePair, MetricSpec, Orientation, RankingConfig, ScaleSpan


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
        ValueError: empty matrix, or a metric whose best and worst
            scores lie further apart than a float can hold.
    """

    if not scores_by_system:
        raise ValueError(f"no participants for {pair}")
    best: dict[str, float] = {}
    worst: dict[str, float] = {}
    for metric in metrics:
        column = [row[metric.id] for row in scores_by_system.values()]
        low, high = min(column), max(column)
        if not math.isfinite(high - low):
            raise ValueError(
                f"{pair} score range for {metric.id} is not finite: {low!r} to {high!r}"
            )
        if metric.orientation is Orientation.LOWER_BETTER:
            best[metric.id], worst[metric.id] = low, high
        else:
            best[metric.id], worst[metric.id] = high, low
    return NormalizationContext(pair=pair, n_systems=len(scores_by_system), best=best, worst=worst)


def _normalizer(
    metric: MetricSpec, context: NormalizationContext, config: RankingConfig
) -> Callable[[float], float]:
    """``normalize_score`` for one column, its constants computed once."""

    if metric.id not in context.best:
        raise ValueError(f"metric {metric.id!r} not covered by this context")
    best = context.best[metric.id]
    lower_better = metric.orientation is Orientation.LOWER_BETTER
    worst_disadvantage = context.worst_disadvantage(metric)
    n = context.n_systems
    span = n if config.scale_span is ScaleSpan.FULL_N else n - 1

    def normalize(score: float) -> float:
        disadvantage = score - best if lower_better else best - score
        if disadvantage < 0 or disadvantage > worst_disadvantage:
            raise ValueError(
                f"score {score!r} for {metric.id!r} outside observed range "
                f"[{best!r}, {context.worst[metric.id]!r}]"
            )
        if worst_disadvantage == 0:
            # every participant scored identically on this metric
            return 1.0
        # divide before scaling: the worst score's ratio is then exactly 1.0,
        # keeping both scale endpoints exact in float arithmetic
        return 1.0 + span * (disadvantage / worst_disadvantage)

    return normalize


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

    return _normalizer(metric, context, config)(score)


# (autorank_exact, first metric's normalized value, system name,
# metric id -> normalized value); names are unique within a pair, so
# tuple order is the leaderboard order and the mapping is never compared
RankKey = tuple[float, float, str, dict[str, float]]


def compute_autorank(
    scores_by_system: Mapping[str, Mapping[str, float]],
    context: NormalizationContext,
    metrics: tuple[MetricSpec, ...],
    config: RankingConfig,
) -> list[RankKey]:
    """Normalize every system's scores and average them into its sort key.

    Args:
        scores_by_system: complete matrix, system -> metric -> raw score
            (see ``check_completeness``).
        context: observed extremes for this pair (see ``build_context``).
        metrics: metric columns in display order; the first breaks
            aggregate ties.
        config: scale span.

    Returns:
        One ``RankKey`` per system, in matrix order.
    """

    if not metrics:
        raise ValueError("ranking needs at least one metric")
    ids = [m.id for m in metrics]
    columns = [(m.id, _normalizer(m, context, config)) for m in metrics]
    keys = []
    for name, raw in scores_by_system.items():
        values = [normalize(raw[metric_id]) for metric_id, normalize in columns]
        # fsum(values) / n is statistics.fmean(values), bit for bit
        keys.append((math.fsum(values) / len(values), values[0], name, dict(zip(ids, values))))
    return keys


def order_rows(keys: Iterable[RankKey]) -> list[RankKey]:
    """Sort keys into leaderboard order; a key's index plus one is its position.

    Ties on the exact aggregate break by the first metric's normalized
    value, then by system name.
    """

    return sorted(keys)
