"""Rank normalization and aggregation, decided on one exact integer key.

Each metric column is rescaled linearly onto rank units before
averaging, so metrics with very different native scales contribute
equally.  On a metric, a system's disadvantage d is its distance from
the best observed score (``s - b`` for lower-is-better metrics,
``b - s`` for higher-is-better ones), D is the worst system's, and

    normalized = 1 + N * d / D

with N the number of ranked systems, the span of every published table
and a rule of the engine, not a setting.  The best score maps to 1, the
worst to 1 + N, and a column where everyone scored the same maps
everyone to 1.  The aggregate ("autorank") is the mean of the
normalized values.

The stages read a pair's scores as ``parse_scores`` holds them: the
names, and per metric of ``model.METRICS``, the paper's two, a column
of raw scores in names order.

Every decision is made on integers.  A score is the decimal of its
``repr``; ``build_context`` scales each column by one power of ten, so
every d_m and D_m is an integer (D_m = 1 for a constant column).  With
M metrics, K = sum_m d_m * prod_{k != m} D_k makes the aggregate
exactly 1 + N * K / (M * prod D).  ``compute_autorank`` keys each
system by (K, d_1 times a positive constant, name), rounds its display
from K and ends the key in its raw scores; ``selection.find_cutoff``
compares gaps in K with the cutoff gap.  The one float computed for a
row, ``autorank_exact``, the ``fsum`` over M of the normalized values
``1.0 + N * (d / D)``, is output only.  No row is built here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .model import METRICS, LanguagePair, Orientation, _tenths

# 10.0**k is exact for k <= 22; adding and subtracting 1.5 * 2**52
# rounds a float under 2**51 in magnitude to an integer
_POWERS = [10.0**k for k in range(23)]
_FAST_LIMIT = 2.0**50
_ROUNDER = 1.5 * 2.0**52


def _decimal(x: float) -> tuple[int, int]:
    """(digits, places): the decimal of ``repr(x)`` is digits / 10**places."""

    mantissa, _, exponent = repr(x).partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), len(fraction) - int(exponent or 0)


def _decimal_column(column: list[float], low: float, high: float) -> list[int]:
    """Each score's ``repr`` decimal times 10**k, for one k per column.

    ``low`` and ``high`` are the column's extremes, and k is the most
    decimals either one's repr has.  While max|x| * 10**k < 2**50,
    x * 10.0**k lies within 1/4 of an integer i when x's repr has at
    most k decimals, and the exactly rounded check ``i / 10.0**k == x``
    admits only that i, as the multiples of 10**-k lie over four float
    spacings apart (so the shortest decimal that rounds to x has at most
    k decimals too).  A column that fails the check, with more decimals
    inside than at its extremes or with a subnormal score, is read from
    each repr's digits.
    """

    k = max(_decimal(low)[1], _decimal(high)[1])
    if 0 <= k <= 22 and max(-low, high) * _POWERS[k] < _FAST_LIMIT:
        scale = _POWERS[k]
        rounded = [(x * scale + _ROUNDER) - _ROUNDER for x in column]
        if [r / scale for r in rounded] == column:
            return list(map(int, rounded))
    parts = [_decimal(x) for x in column]
    k = max(places for _, places in parts)
    return [digits * 10 ** (k - places) for digits, places in parts]


# (unit, per metric: (float best, float worst disadvantage, each
# system's integer d_m(s) * prod_{k != m} D_k in names order)), where
# unit = M * prod_k D_k
Context = tuple[int, list[tuple[float, float, list[int]]]]


def build_context(
    pair: LanguagePair, names: Sequence[str], columns: Sequence[Sequence[float]]
) -> Context:
    """Scale a pair's complete scores to exact integer disadvantages.

    Args:
        pair: the direction being ranked.
        names: the participants, as ``parse_scores`` gives them.
        columns: per metric of ``METRICS``, each participant's raw
            score in ``names`` order; scores ``ingest.check_completeness``
            passed: every score finite, no hole, and each metric's range
            finite.

    Returns:
        The pair's ``Context`` for ``compute_autorank``; its unit is
        what ``find_cutoff`` measures gaps against.

    Raises:
        ValueError: no participant.
    """

    if not names:
        raise ValueError(f"no participants for {pair}")
    scaled = []
    for metric, scores in zip(METRICS, columns):
        column = list(scores)  # _decimal_column compares it with a list
        low, high = min(column), max(column)
        exact = _decimal_column(column, low, high)
        exact_low, exact_high = min(exact), max(exact)
        lower = metric.orientation is Orientation.LOWER_BETTER
        best, exact_best = (low, exact_low) if lower else (high, exact_high)
        worst = exact_high - exact_low or 1
        scaled.append((best, high - low, exact, exact_best, worst))
    product = math.prod(worst for *_, worst in scaled)
    return len(scaled) * product, [
        (best, spread, [abs(i - exact_best) * factor for i in exact])
        for best, spread, exact, exact_best, worst in scaled
        for factor in [product // worst]
    ]


# (K, first metric's weighted disadvantage, system name, autorank_exact,
# displayed aggregate, raw scores in METRICS order); names are unique within
# a pair, so the first three decide the order and the rest is never compared
RankKey = tuple[int, int, str, float, str, tuple[float, ...]]


def compute_autorank(
    names: Sequence[str],
    columns: Sequence[Sequence[float]],
    context: Context,
) -> list[RankKey]:
    """Give every system its sort key, float aggregate and display.

    Args:
        names: the participants.
        columns: per metric, each participant's raw score in ``names``
            order (see ``check_completeness``).
        context: the pair's integer columns (see ``build_context``).

    Returns:
        One ``RankKey`` per system, in ``names`` order.
    """

    unit, scaled = context
    n = len(names)
    # divide before scaling: the worst score's ratio is then exactly 1.0,
    # keeping both scale endpoints exact in float arithmetic
    normalized = [
        [1.0 + n * (abs(score - best) / spread) for score in column] if spread else [1.0] * n
        for column, (best, spread, _) in zip(columns, scaled)
    ]
    weighted = [exact for *_, exact in scaled]
    keys = list(map(sum, zip(*weighted)))
    displays = _tenths([unit + n * k for k in keys], unit)
    m = len(scaled)
    # fsum(values) / M is statistics.fmean(values), bit for bit
    return [
        (k, first, name, math.fsum(values) / m, display, scores)
        for name, k, first, values, display, scores in zip(
            names, keys, weighted[0], zip(*normalized), displays, zip(*columns)
        )
    ]


def order_rows(keys: Iterable[RankKey]) -> list[RankKey]:
    """Sort keys into leaderboard order; a key's index plus one is its position.

    Ties on the exact aggregate break by the first metric, then by
    system name.
    """

    return sorted(keys)
