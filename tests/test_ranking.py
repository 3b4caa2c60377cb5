from __future__ import annotations

import pytest

from autorank import (
    DEFAULT_METRICS,
    LanguagePair,
    MetricSpec,
    NormalizationContext,
    Orientation,
    RankingConfig,
    ScaleSpan,
    ScoreRecord,
    SystemCategory,
    SystemEntry,
    build_context,
    compute_autorank,
    normalize_score,
    order_rows,
    rank_pair,
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
    ctx = CSUK_CTX
    entries = {name: _entry(name) for name in matrix}
    rows = {
        row.name: row
        for row in compute_autorank(entries, matrix, ctx, DEFAULT_METRICS, RankingConfig())
    }

    iol_expected = (
        oracle(1.3, 0.9, 19.5, 20, True) + oracle(0.681, 0.719, 0.146, 20, False)
    ) / 2
    assert rows["IOL-Research"].autorank_exact == pytest.approx(iol_expected, rel=1e-12)
    assert rows["IOL-Research"].autorank_exact == pytest.approx(1.878, abs=5e-4)
    assert rows["IOL-Research"].autorank_display == 1.9

    gpt4_expected = (
        oracle(1.4, 0.9, 19.5, 20, True) + oracle(0.677, 0.719, 0.146, 20, False)
    ) / 2
    assert rows["GPT-4"].autorank_exact == pytest.approx(gpt4_expected, rel=1e-12)
    assert rows["GPT-4"].autorank_exact == pytest.approx(2.0018, abs=5e-5)
    assert rows["GPT-4"].autorank_display == 2.0

    assert rows["Unbabel-Tower70B"].autorank_exact == 1.0
    assert rows["CycleL"].autorank_exact == 21.0


def _records(matrix):
    return [
        ScoreRecord(CSUK, name, metric, score)
        for name, scores in matrix.items()
        for metric, score in scores.items()
    ]


def test_rank_pair_requires_complete_matrix():
    matrix = {"A": {MX.id: 1.0, CK.id: 0.7}, "B": {MX.id: 2.0}}
    with pytest.raises(ValueError) as info:
        rank_pair([_entry("A"), _entry("B")], _records(matrix), CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: B/cometkiwi-da-xl"


def test_rank_pair_requires_registered_systems():
    matrix = {"A": {MX.id: 1.0, CK.id: 0.7}}
    with pytest.raises(ValueError) as info:
        rank_pair([], _records(matrix), CSUK)
    assert str(info.value) == "system 'A' has scores but no registry entry"


def test_compute_autorank_single_system_is_one():
    matrix = {"Solo": {MX.id: 4.2, CK.id: 0.33}}
    ctx = build_context(CSUK, matrix, DEFAULT_METRICS)
    (row,) = compute_autorank(
        {"Solo": _entry("Solo")}, matrix, ctx, DEFAULT_METRICS, RankingConfig()
    )
    assert row.autorank_exact == 1.0


def test_compute_autorank_resolves_pair_scoped_flags():
    matrix = {"W": {MX.id: 1.0, CK.id: 0.7}, "V": {MX.id: 2.0, CK.id: 0.6}}
    ctx = build_context(CSUK, matrix, DEFAULT_METRICS)
    entries = {
        "W": SystemEntry(name="W", category=SystemCategory.OPEN, withdrawn_pairs=frozenset({CSUK})),
        "V": SystemEntry(
            name="V", category=SystemCategory.OPEN, unsupported_pairs=frozenset({CSUK})
        ),
    }
    rows = {
        r.name: r for r in compute_autorank(entries, matrix, ctx, DEFAULT_METRICS, RankingConfig())
    }
    assert rows["W"].withdrawn and rows["W"].claimed_support
    assert not rows["V"].withdrawn and not rows["V"].claimed_support


def _ranked(matrix):
    ctx = build_context(CSUK, matrix, DEFAULT_METRICS)
    entries = {name: _entry(name) for name in matrix}
    return compute_autorank(entries, matrix, ctx, DEFAULT_METRICS, RankingConfig())


def test_order_breaks_display_tie_by_exact_value():
    # IOL-Research and CommandR-plus round to the same display cell but
    # their exact aggregates differ; the exact value decides
    matrix = {
        "CommandR-plus": {MX.id: 1.3, CK.id: 0.677},
        "IOL-Research": {MX.id: 1.3, CK.id: 0.681},
        "Unbabel-Tower70B": {MX.id: 0.9, CK.id: 0.719},
        "CycleL": {MX.id: 19.5, CK.id: 0.146},
    }
    ordered = order_rows(_ranked(matrix), DEFAULT_METRICS[0])
    assert [row.name for row in ordered] == [
        "Unbabel-Tower70B",
        "IOL-Research",
        "CommandR-plus",
        "CycleL",
    ]
    assert [row.position for row in ordered] == [1, 2, 3, 4]
    assert ordered[1].autorank_display == ordered[2].autorank_display
    assert ordered[1].autorank_exact < ordered[2].autorank_exact


def test_order_breaks_exact_tie_by_first_metric_then_name():
    # same aggregate, different balance across metrics: the first metric wins
    matrix = {
        "Balanced": {MX.id: 2.0, CK.id: 0.6},
        "FirstMetricStrong": {MX.id: 1.5, CK.id: 0.55},
        "Best": {MX.id: 1.0, CK.id: 0.7},
        "Worst": {MX.id: 3.0, CK.id: 0.5},
    }
    ordered = order_rows(_ranked(matrix), DEFAULT_METRICS[0])
    names = [row.name for row in ordered]
    assert names[0] == "Best" and names[-1] == "Worst"
    assert names[1] == "FirstMetricStrong"  # beats Balanced on MetricX

    # identical scores throughout: lexicographic last resort
    matrix = {
        "Zeta": {MX.id: 2.0, CK.id: 0.6},
        "Alpha": {MX.id: 2.0, CK.id: 0.6},
        "Best": {MX.id: 1.0, CK.id: 0.7},
    }
    ordered = order_rows(_ranked(matrix), DEFAULT_METRICS[0])
    assert [row.name for row in ordered] == ["Best", "Alpha", "Zeta"]


def test_order_is_input_order_invariant():
    matrix = {
        "A": {MX.id: 1.0, CK.id: 0.7},
        "B": {MX.id: 1.5, CK.id: 0.65},
        "C": {MX.id: 2.0, CK.id: 0.6},
    }
    rows = _ranked(matrix)
    forward = order_rows(rows, DEFAULT_METRICS[0])
    backward = order_rows(list(reversed(rows)), DEFAULT_METRICS[0])
    assert forward == backward
