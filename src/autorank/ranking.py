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

Ties are decided exactly.  The floats are sorted first; ``ExactScale``
bounds their rounding error, and only the keys whose float aggregates
lie within that bound of a neighbour are compared again, in ``Fraction``
arithmetic on each score's shortest ``repr``.  The exact order is the
order of (aggregate, first metric's normalized value, system name),
and ``selection.find_cutoff`` decides a gap near ``cutoff_gap`` the same
way.  Floats stay the values every row carries and every format prints.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping

from .model import LanguagePair, MetricSpec, Orientation, RankingConfig, ScaleSpan


class NormalizationContext(namedtuple("NormalizationContext", "pair n_systems best worst")):
    """Observed per-metric extremes for one language pair.

    ``best`` and ``worst`` map metric ids to raw scores actually attained
    by some participant; ``n_systems`` counts the participants being
    ranked.  The context pins down the linear rescaling completely, so
    holding it fixed makes normalization a pure function of the score.
    """

    __slots__ = ()

    def __new__(
        cls,
        pair: LanguagePair,
        n_systems: int,
        best: Mapping[str, float],
        worst: Mapping[str, float],
    ) -> "NormalizationContext":
        if n_systems < 1:
            raise ValueError("a normalization context needs at least one system")
        if set(best) != set(worst):
            raise ValueError("best and worst must cover the same metrics")
        return tuple.__new__(cls, (pair, n_systems, best, worst))

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


def _normalize_column(
    metric: MetricSpec,
    context: NormalizationContext,
    config: RankingConfig,
    scores: list[float],
) -> list[float]:
    """``normalize_score`` over a column of scores, its constants computed once."""

    if metric.id not in context.best:
        raise ValueError(f"metric {metric.id!r} not covered by this context")
    best = context.best[metric.id]
    worst_disadvantage = context.worst_disadvantage(metric)
    if metric.orientation is Orientation.LOWER_BETTER:
        disadvantages = [score - best for score in scores]
    else:
        disadvantages = [best - score for score in scores]
    if disadvantages and (min(disadvantages) < 0 or max(disadvantages) > worst_disadvantage):
        score = next(
            score
            for score, disadvantage in zip(scores, disadvantages)
            if disadvantage < 0 or disadvantage > worst_disadvantage
        )
        raise ValueError(
            f"score {score!r} for {metric.id!r} outside observed range "
            f"[{best!r}, {context.worst[metric.id]!r}]"
        )
    if worst_disadvantage == 0:
        # every participant scored identically on this metric
        return [1.0] * len(scores)
    n = context.n_systems
    span = n if config.scale_span is ScaleSpan.FULL_N else n - 1
    # divide before scaling: the worst score's ratio is then exactly 1.0,
    # keeping both scale endpoints exact in float arithmetic
    return [1.0 + span * (disadvantage / worst_disadvantage) for disadvantage in disadvantages]


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

    return _normalize_column(metric, context, config, [score])[0]


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
    rows = scores_by_system.values()
    ids = [m.id for m in metrics]
    columns = [_normalize_column(m, context, config, [row[m.id] for row in rows]) for m in metrics]
    # fsum(values) / M is statistics.fmean(values), bit for bit
    return [
        (math.fsum(values) / len(ids), values[0], name, dict(zip(ids, values)))
        for name, values in zip(scores_by_system, zip(*columns))
    ]


class ExactScale:
    """Exact rank-unit arithmetic for one pair, used only near float ties.

    ``key(name)`` is a system's (aggregate, first metric's normalized
    value, name) in ``Fraction`` arithmetic on ``Fraction(repr(score))``:
    the decimal each score was written as, when it was written with at
    most 15 significant digits.  Keys are computed on demand and kept.

    ``epsilon`` bounds how far the float difference of two aggregates,
    as ``compute_autorank`` and one float subtraction produce them, can
    lie from the exact difference.  With ``ulp = math.ulp``, N systems,
    M metrics, and per column its largest magnitude S = max(|b|, |w|)
    and float range R = |w - b|:

    * a float score lies within ulp(S)/2 of its repr's value, and each
      float subtraction ``s - b`` or ``w - b`` is off by at most
      ulp(R)/2 <= ulp(S), so both disadvantages are within
      delta = 2 ulp(S) of the exact ones;
    * then ``d / D`` is within 2 delta / R of the exact ratio (d <= D),
      plus ulp(1)/2 for the division; times span <= N, plus ulp(N)/2
      for the product and ulp(N+1)/2 for adding 1, a normalized value
      is off by at most e_m = N (4 ulp(S) / R + ulp(1)/2) + ulp(N+1),
      and by nothing on a constant column (R = 0: every value is 1.0);
    * ``fsum`` rounds once and the division by M once, so an aggregate
      is off by at most e = sum(e_m) / M + 2 ulp(N+1);
    * the float difference of two aggregates is off by at most 2 e,
      plus ulp(N+1)/2 for the subtraction.

    ``epsilon`` is at least twice that, 4 e + 2 ulp(N+1): a loose bound
    only sends more keys to an exact comparison, a tight one would let
    a float decide a tie.  A tiny range R makes it large, even
    infinite, and then every key of the pair is compared exactly.
    """

    __slots__ = ("epsilon", "_matrix", "_columns", "_span", "_keys")

    def __init__(
        self,
        matrix: Mapping[str, Mapping[str, float]],
        context: NormalizationContext,
        metrics: tuple[MetricSpec, ...],
        config: RankingConfig,
    ) -> None:
        n = context.n_systems
        unit = math.ulp(n + 1)
        per_column = 0.0
        # (metric id, exact best score, exact worst disadvantage)
        self._columns: list[tuple[str, Fraction, Fraction]] = []
        for metric in metrics:
            best, worst = context.best[metric.id], context.worst[metric.id]
            spread = abs(worst - best)
            if spread:
                magnitude = max(abs(best), abs(worst))
                per_column += n * (4 * math.ulp(magnitude) / spread + math.ulp(1.0) / 2) + unit
            exact_best = Fraction(repr(best))
            self._columns.append((metric.id, exact_best, abs(Fraction(repr(worst)) - exact_best)))
        self.epsilon = 4 * (per_column / len(metrics) + 2 * unit) + 2 * unit
        self._matrix = matrix
        self._span = n if config.scale_span is ScaleSpan.FULL_N else n - 1
        self._keys: dict[str, tuple[Fraction, Fraction, str]] = {}

    def key(self, name: str) -> tuple[Fraction, Fraction, str]:
        key = self._keys.get(name)
        if key is None:
            raw = self._matrix[name]
            ratios = [
                abs(Fraction(repr(raw[metric_id])) - best) / spread if spread else Fraction(0)
                for metric_id, best, spread in self._columns
            ]
            aggregate = 1 + self._span * sum(ratios) / len(ratios)
            key = self._keys[name] = (aggregate, 1 + self._span * ratios[0], name)
        return key


def order_rows(keys: Iterable[RankKey], exact: ExactScale | None = None) -> list[RankKey]:
    """Sort keys into leaderboard order; a key's index plus one is its position.

    Ties on the aggregate break by the first metric's normalized value,
    then by system name.  With ``exact``, every maximal run of keys
    whose neighbouring float aggregates lie within ``exact.epsilon`` is
    sorted again by its exact keys; outside such runs the float order
    is the exact order.  Without it, the floats decide.
    """

    ordered = sorted(keys)
    if exact is None:
        return ordered
    epsilon = exact.epsilon
    aggregates = [key[0] for key in ordered]
    # index i of every key within epsilon of the key before it
    near = [i for i in range(1, len(ordered)) if aggregates[i] - aggregates[i - 1] <= epsilon]
    start = end = 0
    for i in near + [0]:  # the sentinel 0 closes the last run
        if i != end:
            if end:
                ordered[start:end] = sorted(ordered[start:end], key=lambda k: exact.key(k[2]))
            start = i - 1
        end = i + 1
    return ordered
