from __future__ import annotations

from fractions import Fraction
from statistics import fmean

import pytest

from autorank import (
    DEFAULT_METRICS,
    LanguagePair,
    MetricSpec,
    Orientation,
    RankedRow,
    RankingConfig,
    ScaleSpan,
    SystemCategory,
    SystemEntry,
    display_str,
    rank_pair,
)
from autorank.ranking import (
    ExactScale,
    NormalizationContext,
    build_context,
    compute_autorank,
    normalize_score,
    order_rows,
)

MX, CK = DEFAULT_METRICS
CSUK = LanguagePair.from_code("cs-uk")

# observed extremes of the Czech-Ukrainian fixture: MetricX best 0.9 worst
# 19.5, CometKiwi best 0.719 worst 0.146, twenty systems
CSUK_CTX = NormalizationContext(
    pair=CSUK,
    n_systems=20,
    best={MX.id: 0.9, CK.id: 0.719},
    worst={MX.id: 19.5, CK.id: 0.146},
)


def oracle(score: float, best: float, worst: float, n: int, lower_better: bool) -> float:
    """Direct evaluation of the rescaling formula, kept independent of the
    library code path on purpose."""
    disadvantage = (score - best) if lower_better else (best - score)
    worst_disadvantage = (worst - best) if lower_better else (best - worst)
    if worst_disadvantage == 0:
        return 1.0
    return 1.0 + n * disadvantage / worst_disadvantage


def test_normalize_lower_better_interior_point():
    # 1 + 20 * (1.3 - 0.9) / (19.5 - 0.9) = 1.4301...
    got = normalize_score(1.3, MX, CSUK_CTX, RankingConfig())
    assert got == pytest.approx(oracle(1.3, 0.9, 19.5, 20, True), rel=1e-12)
    assert got == pytest.approx(1.4301, abs=5e-5)


def test_normalize_best_maps_to_one_exactly():
    assert normalize_score(0.719, CK, CSUK_CTX, RankingConfig()) == 1.0
    assert normalize_score(0.9, MX, CSUK_CTX, RankingConfig()) == 1.0


def test_normalize_worst_maps_to_one_plus_n_exactly():
    assert normalize_score(19.5, MX, CSUK_CTX, RankingConfig()) == 21.0
    assert normalize_score(0.146, CK, CSUK_CTX, RankingConfig()) == 21.0


def test_normalize_span_n_minus_one_variant():
    config = RankingConfig(scale_span=ScaleSpan.N_MINUS_ONE)
    assert normalize_score(19.5, MX, CSUK_CTX, config) == 20.0
    assert normalize_score(1.3, MX, CSUK_CTX, config) == pytest.approx(
        oracle(1.3, 0.9, 19.5, 19, True), rel=1e-12
    )


def test_normalize_all_equal_column_returns_one():
    ctx = NormalizationContext(
        pair=CSUK, n_systems=3, best={MX.id: 5.0, CK.id: 0.5}, worst={MX.id: 5.0, CK.id: 0.5}
    )
    assert normalize_score(5.0, MX, ctx, RankingConfig()) == 1.0
    assert normalize_score(0.5, CK, ctx, RankingConfig()) == 1.0


def test_normalize_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        normalize_score(0.8, MX, CSUK_CTX, RankingConfig())  # better than observed best
    with pytest.raises(ValueError):
        normalize_score(19.6, MX, CSUK_CTX, RankingConfig())
    with pytest.raises(ValueError):
        normalize_score(0.720, CK, CSUK_CTX, RankingConfig())


def test_normalize_rejects_unknown_metric():
    rogue = MetricSpec("bleu", Orientation.HIGHER_BETTER, "BLEU")
    with pytest.raises(ValueError):
        normalize_score(30.0, rogue, CSUK_CTX, RankingConfig())


def test_build_context_from_score_matrix():
    matrix = {
        "A": {MX.id: 1.0, CK.id: 0.70},
        "B": {MX.id: 3.0, CK.id: 0.50},
        "C": {MX.id: 2.0, CK.id: 0.60},
    }
    ctx = build_context(CSUK, matrix, DEFAULT_METRICS)
    assert ctx.n_systems == 3
    assert ctx.best == {MX.id: 1.0, CK.id: 0.70}
    assert ctx.worst == {MX.id: 3.0, CK.id: 0.50}
    assert ctx.worst_disadvantage(MX) == 2.0
    assert ctx.worst_disadvantage(CK) == pytest.approx(0.20)


def test_build_context_rejects_empty():
    # holes are check_completeness's to reject, see test_ingest
    with pytest.raises(ValueError):
        build_context(CSUK, {}, DEFAULT_METRICS)


def test_build_context_rejects_range_beyond_float():
    # best - worst would be inf, and inf / inf a NaN AutoRank
    matrix = {"A": {MX.id: -1e308, CK.id: 0.7}, "B": {MX.id: 1e308, CK.id: 0.5}}
    with pytest.raises(ValueError, match="score range for metricx-23-xl is not finite"):
        build_context(CSUK, matrix, DEFAULT_METRICS)


def _entry(name: str, category=SystemCategory.OPEN) -> SystemEntry:
    return SystemEntry(name=name, category=category)


def test_compute_autorank_published_examples():
    # IOL-Research and GPT-4 from the Czech-Ukrainian fixture
    matrix = {
        "IOL-Research": {MX.id: 1.3, CK.id: 0.681},
        "GPT-4": {MX.id: 1.4, CK.id: 0.677},
        "Unbabel-Tower70B": {MX.id: 0.9, CK.id: 0.719},
        "CycleL": {MX.id: 19.5, CK.id: 0.146},
    }
    aggregates = {
        name: autorank
        for autorank, _, name, _ in compute_autorank(
            matrix, CSUK_CTX, DEFAULT_METRICS, RankingConfig()
        )
    }

    iol_expected = (
        oracle(1.3, 0.9, 19.5, 20, True) + oracle(0.681, 0.719, 0.146, 20, False)
    ) / 2
    assert aggregates["IOL-Research"] == pytest.approx(iol_expected, rel=1e-12)
    assert aggregates["IOL-Research"] == pytest.approx(1.878, abs=5e-4)
    assert display_str(aggregates["IOL-Research"]) == "1.9"

    gpt4_expected = (
        oracle(1.4, 0.9, 19.5, 20, True) + oracle(0.677, 0.719, 0.146, 20, False)
    ) / 2
    assert aggregates["GPT-4"] == pytest.approx(gpt4_expected, rel=1e-12)
    assert aggregates["GPT-4"] == pytest.approx(2.0018, abs=5e-5)
    assert display_str(aggregates["GPT-4"]) == "2.0"

    assert aggregates["Unbabel-Tower70B"] == 1.0
    assert aggregates["CycleL"] == 21.0


def test_compute_autorank_key_carries_the_tie_breaks_and_columns():
    matrix = {"A": {MX.id: 1.3, CK.id: 0.681}}
    ((autorank, first, name, normalized),) = compute_autorank(
        matrix, CSUK_CTX, DEFAULT_METRICS, RankingConfig()
    )
    assert normalized == {
        metric.id: normalize_score(matrix["A"][metric.id], metric, CSUK_CTX, RankingConfig())
        for metric in DEFAULT_METRICS
    }
    assert first == normalized[MX.id] and name == "A"
    # the mean of the columns, as statistics.fmean computes it
    assert autorank == fmean(normalized.values())


def test_compute_autorank_rejects_scores_outside_the_context():
    matrix = {"A": {MX.id: 0.8, CK.id: 0.7}}  # better than the observed best
    with pytest.raises(ValueError, match="outside observed range"):
        compute_autorank(matrix, CSUK_CTX, DEFAULT_METRICS, RankingConfig())


def test_rank_pair_requires_complete_matrix():
    matrix = {"A": {MX.id: 1.0, CK.id: 0.7}, "B": {MX.id: 2.0}}
    with pytest.raises(ValueError) as info:
        rank_pair([_entry("A"), _entry("B")], {CSUK: matrix}, CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: B/cometkiwi-da-xl"


def test_rank_pair_requires_registered_systems():
    matrix = {"A": {MX.id: 1.0, CK.id: 0.7}}
    with pytest.raises(ValueError) as info:
        rank_pair([], {CSUK: matrix}, CSUK)
    assert str(info.value) == "system 'A' has scores but no registry entry"


def test_compute_autorank_single_system_is_one():
    matrix = {"Solo": {MX.id: 4.2, CK.id: 0.33}}
    ctx = build_context(CSUK, matrix, DEFAULT_METRICS)
    ((autorank, *_),) = compute_autorank(matrix, ctx, DEFAULT_METRICS, RankingConfig())
    assert autorank == 1.0


def test_rank_pair_resolves_pair_scoped_flags():
    matrix = {"W": {MX.id: 1.0, CK.id: 0.7}, "V": {MX.id: 2.0, CK.id: 0.6}}
    registry = [
        SystemEntry(name="W", category=SystemCategory.OPEN, withdrawn_pairs=frozenset({CSUK})),
        SystemEntry(name="V", category=SystemCategory.OPEN, unsupported_pairs=frozenset({CSUK})),
    ]
    rows = {r.name: r for r in rank_pair(registry, {CSUK: matrix}, CSUK).rows}
    assert rows["W"].withdrawn and rows["W"].claimed_support
    assert not rows["V"].withdrawn and not rows["V"].claimed_support


def _ranked(matrix):
    ctx = build_context(CSUK, matrix, DEFAULT_METRICS)
    return compute_autorank(matrix, ctx, DEFAULT_METRICS, RankingConfig())


def _names(keys):
    return [name for _, _, name, _ in keys]


def test_order_breaks_display_tie_by_exact_value():
    # IOL-Research and CommandR-plus round to the same display cell but
    # their exact aggregates differ; the exact value decides
    matrix = {
        "CommandR-plus": {MX.id: 1.3, CK.id: 0.677},
        "IOL-Research": {MX.id: 1.3, CK.id: 0.681},
        "Unbabel-Tower70B": {MX.id: 0.9, CK.id: 0.719},
        "CycleL": {MX.id: 19.5, CK.id: 0.146},
    }
    ordered = order_rows(_ranked(matrix))
    assert _names(ordered) == [
        "Unbabel-Tower70B",
        "IOL-Research",
        "CommandR-plus",
        "CycleL",
    ]
    assert display_str(ordered[1][0]) == display_str(ordered[2][0])
    assert ordered[1][0] < ordered[2][0]


def test_order_breaks_exact_tie_by_first_metric_then_name():
    # same aggregate, different balance across metrics: the first metric wins
    matrix = {
        "Balanced": {MX.id: 2.0, CK.id: 0.6},
        "FirstMetricStrong": {MX.id: 1.5, CK.id: 0.55},
        "Best": {MX.id: 1.0, CK.id: 0.7},
        "Worst": {MX.id: 3.0, CK.id: 0.5},
    }
    names = _names(order_rows(_ranked(matrix)))
    assert names[0] == "Best" and names[-1] == "Worst"
    assert names[1] == "FirstMetricStrong"  # beats Balanced on MetricX

    # identical scores throughout: lexicographic last resort
    matrix = {
        "Zeta": {MX.id: 2.0, CK.id: 0.6},
        "Alpha": {MX.id: 2.0, CK.id: 0.6},
        "Best": {MX.id: 1.0, CK.id: 0.7},
    }
    assert _names(order_rows(_ranked(matrix))) == ["Best", "Alpha", "Zeta"]


def test_order_is_input_order_invariant():
    matrix = {
        "A": {MX.id: 1.0, CK.id: 0.7},
        "B": {MX.id: 1.5, CK.id: 0.65},
        "C": {MX.id: 2.0, CK.id: 0.6},
    }
    keys = _ranked(matrix)
    assert order_rows(keys) == order_rows(list(reversed(keys)))


def test_rank_pair_builds_each_row_once(monkeypatch):
    built = []
    new = RankedRow.__new__

    def counting_new(cls, system, *args):
        built.append(system)
        return new(cls, system, *args)

    # every RankedRow, _replace copies included, is built through __new__
    monkeypatch.setattr(RankedRow, "__new__", staticmethod(counting_new))
    matrix = {f"S{i}": {MX.id: float(i), CK.id: 1.0 / (i + 1)} for i in range(7)}
    registry = [_entry(name, category) for name, category in zip(matrix, list(SystemCategory) * 3)]
    table = rank_pair(registry, {CSUK: matrix}, CSUK)
    assert len(table.rows) == 7
    assert len(built) == 7
    assert {entry.name for entry in built} == set(matrix)


def test_exact_aggregate_tie_is_not_split_by_float_rounding():
    # A and C both aggregate to exactly 13/7; A's better MetricX breaks the
    # tie, although C's float aggregate comes out one ulp lower
    matrix = {
        "A": {MX.id: 1.1, CK.id: 1.3},
        "B": {MX.id: 1.8, CK.id: 1.2},
        "C": {MX.id: 1.4, CK.id: 1.6},
        "D": {MX.id: 1.7, CK.id: 0.9},
    }
    rows = rank_pair([_entry(name) for name in matrix], {CSUK: matrix}, CSUK).rows
    assert [row.name for row in rows] == ["A", "C", "B", "D"]
    assert rows[1].autorank_exact < rows[0].autorank_exact  # the floats, unchanged


def test_gap_of_exactly_cutoff_gap_draws_no_line():
    # B sits exactly 1.5 below A (1 + 3 * 1/2 = 2.5), which is not more
    # than cutoff_gap; its float aggregate is a hair above 2.5
    matrix = {
        "A": {MX.id: 1.5, CK.id: 1.9},
        "B": {MX.id: 1.6, CK.id: 1.3},
        "C": {MX.id: 1.7, CK.id: 0.7},
    }
    table = rank_pair([_entry(name) for name in matrix], {CSUK: matrix}, CSUK)
    assert [row.name for row in table.rows] == ["A", "B", "C"]
    assert table.rows[1].autorank_exact - table.rows[0].autorank_exact > 1.5
    assert table.cutoff_position is None
    assert all(row.above_cutoff for row in table.rows)


@pytest.mark.parametrize("low,high", [(0.0, 0.004), (1000.001, 1000.004), (-1e6, 1e6)])
def test_exact_scale_epsilon_covers_the_float_error(low, high):
    # every pair of float aggregates lies within epsilon of its exact difference
    step = (high - low) / 7
    matrix = {
        f"S{i}": {MX.id: low + step * i, CK.id: low + step * ((3 * i) % 8)} for i in range(8)
    }
    context = build_context(CSUK, matrix, DEFAULT_METRICS)
    keys = compute_autorank(matrix, context, DEFAULT_METRICS, RankingConfig())
    exact = ExactScale(matrix, context, DEFAULT_METRICS, RankingConfig())
    for first in keys:
        for second in keys:
            float_gap = second[0] - first[0]
            exact_gap = exact.key(second[2])[0] - exact.key(first[2])[0]
            assert abs(Fraction(float_gap) - exact_gap) <= Fraction(exact.epsilon)
    assert exact.epsilon < 1e-6
