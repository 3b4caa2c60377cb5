from __future__ import annotations

from fractions import Fraction
from statistics import fmean

import pytest

from autorank import (
    LanguagePair,
    RankedRow,
    SystemCategory,
    SystemEntry,
    rank_pair,
)
from autorank.model import METRICS, Orientation, display_str
from autorank.ranking import build_context, compute_autorank, order_rows

from _tsv import matrix_of, registry_of

MX, CK = METRICS
CSUK = LanguagePair.from_code("cs-uk")


def oracle(score: float, best: float, worst: float, n: int, lower_better: bool) -> float:
    """Direct evaluation of the rescaling formula, kept independent of the
    library code path on purpose."""
    disadvantage = (score - best) if lower_better else (best - score)
    worst_disadvantage = (worst - best) if lower_better else (best - worst)
    if worst_disadvantage == 0:
        return 1.0
    return 1.0 + n * disadvantage / worst_disadvantage


def _entry(name: str, category=SystemCategory.OPEN) -> SystemEntry:
    return SystemEntry(name=name, category=category)


def _csuk(**systems: tuple[float, float]) -> dict[str, dict[str, float]]:
    """Twenty systems with the Czech-Ukrainian fixture's observed extremes
    (MetricX best 0.9 worst 19.5, CometKiwi best 0.719 worst 0.146): the
    two extreme systems, ``systems``, and middling fillers."""
    named = {"Unbabel-Tower70B": (0.9, 0.719), "CycleL": (19.5, 0.146), **systems}
    named.update({f"Filler{i:02d}": (5.0, 0.5) for i in range(20 - len(named))})
    return {name: {MX.id: mx, CK.id: ck} for name, (mx, ck) in named.items()}


def _rows(matrix) -> dict[str, RankedRow]:
    registry = registry_of(_entry(name) for name in matrix)
    table = rank_pair(registry, {CSUK: matrix_of(matrix)}, CSUK)
    return {row.name: row for row in table.rows}


def _normalized(matrix) -> dict[str, dict[str, float]]:
    """Each system's normalized value per metric, keyed by name: ranked
    beside a constant column, which normalizes to 1 for everyone, a row's
    aggregate is ``fsum([x, 1.0]) / 2``, so x is twice it less one, and
    exactly x at both ends of the scale."""
    values: dict[str, dict[str, float]] = {name: {} for name in matrix}
    for metric, other in zip(METRICS, METRICS[::-1]):
        alone = {name: {metric.id: row[metric.id], other.id: 0.0} for name, row in matrix.items()}
        for row in _rows(alone).values():
            values[row.name][metric.id] = 2 * row.autorank_exact - 1
    return values


def _float_normalized(matrix, span: int) -> dict[str, list[float]]:
    """Each system's normalized value per metric, in ``METRICS`` order, by
    the float formula ``autorank_exact`` averages: 1.0 + span * (d / D)."""
    values: dict[str, list[float]] = {name: [] for name in matrix}
    for metric in METRICS:
        column = {name: row[metric.id] for name, row in matrix.items()}
        lower = metric.orientation is Orientation.LOWER_BETTER
        best = min(column.values()) if lower else max(column.values())
        spread = max(column.values()) - min(column.values())
        for name, score in column.items():
            values[name].append(1.0 + span * (abs(score - best) / spread) if spread else 1.0)
    return values


def _exact_aggregates(matrix, span: int) -> dict[str, Fraction]:
    """Each system's aggregate in Fraction arithmetic on its scores' reprs."""
    ratios = {name: [] for name in matrix}
    for metric in METRICS:
        column = {name: Fraction(repr(row[metric.id])) for name, row in matrix.items()}
        lower = metric.orientation is Orientation.LOWER_BETTER
        best = min(column.values()) if lower else max(column.values())
        spread = max(column.values()) - min(column.values())
        for name, value in column.items():
            ratios[name].append(abs(value - best) / spread if spread else Fraction(0))
    return {name: 1 + span * sum(r) / len(r) for name, r in ratios.items()}


def test_normalize_lower_better_interior_point():
    # 1 + 20 * (1.3 - 0.9) / (19.5 - 0.9) = 1.4301...
    got = _normalized(_csuk(IOL=(1.3, 0.681)))["IOL"][MX.id]
    assert got == pytest.approx(oracle(1.3, 0.9, 19.5, 20, True), rel=1e-12)
    assert got == pytest.approx(1.4301, abs=5e-5)


def test_normalize_best_maps_to_one_exactly():
    assert _normalized(_csuk())["Unbabel-Tower70B"] == {MX.id: 1.0, CK.id: 1.0}


def test_normalize_worst_maps_to_one_plus_n_exactly():
    assert _normalized(_csuk())["CycleL"] == {MX.id: 21.0, CK.id: 21.0}


def test_normalize_all_equal_column_returns_one():
    matrix = {name: {MX.id: 5.0, CK.id: 0.5} for name in "ABC"}
    assert _normalized(matrix) == {name: {MX.id: 1.0, CK.id: 1.0} for name in matrix}
    for row in _rows(matrix).values():
        assert (row.autorank_exact, row.autorank_display) == (1.0, "1.0")


def test_normalize_rejects_unknown_metric():
    # scores under another metric's id leave the CometKiwi column empty,
    # which cannot be normalized
    matrix = {name: {MX.id: row[MX.id], "bleu": 30.0} for name, row in _csuk().items()}
    with pytest.raises(ValueError, match="missing scores: CycleL/cometkiwi-da-xl, "):
        _rows(matrix)


def test_build_context_from_score_matrix():
    matrix = {
        "A": {MX.id: 1.0, CK.id: 0.70},
        "B": {MX.id: 3.0, CK.id: 0.50},
        "C": {MX.id: 2.0, CK.id: 0.60},
    }
    unit, columns = build_context(CSUK, *matrix_of(matrix))
    # per metric: float best, float worst disadvantage, weighted integers
    assert [column[:2] for column in columns] == [(1.0, 2.0), (0.7, 0.7 - 0.5)]
    mx, ck = columns[0][2], columns[1][2]
    # K / unit is the mean of the exact ratios d / D, system by system
    assert [Fraction(a + b, unit) for a, b in zip(mx, ck)] == [0, 1, Fraction(1, 2)]
    assert [Fraction(a * len(columns), unit) for a in mx] == [0, 1, Fraction(1, 2)]


def test_build_context_rejects_empty():
    # holes are check_completeness's to reject, see test_ingest
    with pytest.raises(ValueError):
        build_context(CSUK, *matrix_of({}))


def _keys(matrix):
    names, columns = matrix_of(matrix)
    context = build_context(CSUK, names, columns)
    return compute_autorank(names, columns, context)


def test_compute_autorank_published_examples():
    # IOL-Research and GPT-4 from the Czech-Ukrainian fixture
    matrix = _csuk(**{"IOL-Research": (1.3, 0.681), "GPT-4": (1.4, 0.677)})
    keys = {name: (exact, display) for _, _, name, exact, display, _ in _keys(matrix)}

    iol_expected = (
        oracle(1.3, 0.9, 19.5, 20, True) + oracle(0.681, 0.719, 0.146, 20, False)
    ) / 2
    assert keys["IOL-Research"][0] == pytest.approx(iol_expected, rel=1e-12)
    assert keys["IOL-Research"][0] == pytest.approx(1.878, abs=5e-4)
    assert keys["IOL-Research"][1] == "1.9"

    gpt4_expected = (
        oracle(1.4, 0.9, 19.5, 20, True) + oracle(0.677, 0.719, 0.146, 20, False)
    ) / 2
    assert keys["GPT-4"][0] == pytest.approx(gpt4_expected, rel=1e-12)
    assert keys["GPT-4"][0] == pytest.approx(2.0018, abs=5e-5)
    assert keys["GPT-4"][1] == "2.0"

    assert keys["Unbabel-Tower70B"] == (1.0, "1.0")
    assert keys["CycleL"] == (21.0, "21.0")


def test_compute_autorank_key_carries_the_tie_breaks_and_columns():
    matrix = _csuk(A=(1.3, 0.681), B=(1.3, 0.7))
    keys = {key[2]: key for key in _keys(matrix)}
    rows = _rows(matrix)
    normalized = _float_normalized(matrix, 20)
    read_back = _normalized(matrix)
    exact = _exact_aggregates(matrix, 20)
    for name, (k, first, key_name, autorank, display, scores) in keys.items():
        assert key_name == name
        # the raw scores in metrics order, as the row carries them
        assert scores == (matrix[name][MX.id], matrix[name][CK.id]) == rows[name].raw_scores
        assert autorank == rows[name].autorank_exact
        # the mean of the columns, as statistics.fmean computes it
        assert autorank == fmean(normalized[name])
        assert normalized[name] == pytest.approx(list(read_back[name].values()))
        assert display == rows[name].autorank_display == display_str(exact[name])
    # K orders by the exact aggregate; the first metric breaks its ties
    ordered = sorted(keys, key=lambda name: keys[name][:3])
    assert ordered == sorted(matrix, key=lambda name: (exact[name], matrix[name][MX.id], name))
    assert keys["A"][1] == keys["B"][1] and keys["A"][0] > keys["B"][0]


def test_rank_pair_requires_complete_matrix():
    matrix = {"A": {MX.id: 1.0, CK.id: 0.7}, "B": {MX.id: 2.0}}
    with pytest.raises(ValueError) as info:
        rank_pair(registry_of([_entry("A"), _entry("B")]), {CSUK: matrix_of(matrix)}, CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: B/cometkiwi-da-xl"


def test_rank_pair_requires_registered_systems():
    matrix = {"A": {MX.id: 1.0, CK.id: 0.7}}
    with pytest.raises(ValueError) as info:
        rank_pair(registry_of([]), {CSUK: matrix_of(matrix)}, CSUK)
    assert str(info.value) == "system 'A' has scores but no registry entry"


def test_compute_autorank_single_system_is_one():
    matrix = {"Solo": {MX.id: 4.2, CK.id: 0.33}}
    ((k, _, _, autorank, display, scores),) = _keys(matrix)
    assert (k, autorank, display, scores) == (0, 1.0, "1.0", (4.2, 0.33))


def test_rank_pair_resolves_pair_scoped_flags():
    matrix = {"W": {MX.id: 1.0, CK.id: 0.7}, "V": {MX.id: 2.0, CK.id: 0.6}}
    registry = registry_of(
        [
            SystemEntry("W", SystemCategory.OPEN, withdrawn_pairs=frozenset({CSUK})),
            SystemEntry("V", SystemCategory.OPEN, unsupported_pairs=frozenset({CSUK})),
        ]
    )
    rows = {r.name: r for r in rank_pair(registry, {CSUK: matrix_of(matrix)}, CSUK).rows}
    assert rows["W"].withdrawn and rows["W"].claimed_support
    assert not rows["V"].withdrawn and not rows["V"].claimed_support


def _names(keys):
    return [key[2] for key in keys]


def test_order_breaks_display_tie_by_exact_value():
    # IOL-Research and CommandR-plus round to the same display cell but
    # their exact aggregates differ; the exact value decides
    matrix = {
        "CommandR-plus": {MX.id: 1.3, CK.id: 0.677},
        "IOL-Research": {MX.id: 1.3, CK.id: 0.681},
        "Unbabel-Tower70B": {MX.id: 0.9, CK.id: 0.719},
        "CycleL": {MX.id: 19.5, CK.id: 0.146},
    }
    ordered = order_rows(_keys(matrix))
    assert _names(ordered) == [
        "Unbabel-Tower70B",
        "IOL-Research",
        "CommandR-plus",
        "CycleL",
    ]
    assert ordered[1][4] == ordered[2][4]
    assert ordered[1][0] < ordered[2][0]


def test_order_breaks_exact_tie_by_first_metric_then_name():
    # same aggregate, different balance across metrics: the first metric wins
    matrix = {
        "Balanced": {MX.id: 2.0, CK.id: 0.6},
        "FirstMetricStrong": {MX.id: 1.5, CK.id: 0.55},
        "Best": {MX.id: 1.0, CK.id: 0.7},
        "Worst": {MX.id: 3.0, CK.id: 0.5},
    }
    names = _names(order_rows(_keys(matrix)))
    assert names[0] == "Best" and names[-1] == "Worst"
    assert names[1] == "FirstMetricStrong"  # beats Balanced on MetricX

    # identical scores throughout: lexicographic last resort
    matrix = {
        "Zeta": {MX.id: 2.0, CK.id: 0.6},
        "Alpha": {MX.id: 2.0, CK.id: 0.6},
        "Best": {MX.id: 1.0, CK.id: 0.7},
    }
    assert _names(order_rows(_keys(matrix))) == ["Best", "Alpha", "Zeta"]


def test_order_is_input_order_invariant():
    matrix = {
        "A": {MX.id: 1.0, CK.id: 0.7},
        "B": {MX.id: 1.5, CK.id: 0.65},
        "C": {MX.id: 2.0, CK.id: 0.6},
    }
    keys = _keys(matrix)
    assert order_rows(keys) == order_rows(list(reversed(keys)))


def test_rank_pair_builds_each_row_once(monkeypatch):
    built = []
    new, make = RankedRow.__new__, RankedRow._make

    def counting_new(cls, name, *args):
        built.append(name)
        return new(cls, name, *args)

    def counting_make(cls, iterable):
        fields = tuple(iterable)
        built.append(fields[0])
        return make(fields)

    # every RankedRow is built through __new__ or, as _replace copies are, _make
    monkeypatch.setattr(RankedRow, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(RankedRow, "_make", classmethod(counting_make))
    matrix = {f"S{i}": {MX.id: float(i), CK.id: 1.0 / (i + 1)} for i in range(7)}
    registry = registry_of(map(_entry, matrix, list(SystemCategory) * 3))
    table = rank_pair(registry, {CSUK: matrix_of(matrix)}, CSUK)
    assert len(table.rows) == 7
    assert len(built) == 7
    assert set(built) == set(matrix)


def test_exact_aggregate_tie_is_not_split_by_float_rounding():
    # A and C both aggregate to exactly 13/7; A's better MetricX breaks the
    # tie, although C's float aggregate comes out one ulp lower
    matrix = {
        "A": {MX.id: 1.1, CK.id: 1.3},
        "B": {MX.id: 1.8, CK.id: 1.2},
        "C": {MX.id: 1.4, CK.id: 1.6},
        "D": {MX.id: 1.7, CK.id: 0.9},
    }
    registry = registry_of(_entry(name) for name in matrix)
    rows = rank_pair(registry, {CSUK: matrix_of(matrix)}, CSUK).rows
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
    registry = registry_of(_entry(name) for name in matrix)
    table = rank_pair(registry, {CSUK: matrix_of(matrix)}, CSUK)
    assert [row.name for row in table.rows] == ["A", "B", "C"]
    assert table.rows[1].autorank_exact - table.rows[0].autorank_exact > 1.5
    assert table.cutoff_position is None
    assert all(row.above_cutoff for row in table.rows)


def test_aggregate_of_exactly_1_25_displays_1_3():
    # S0 aggregates to exactly (1 + 1.5) / 2 = 1.25; its float is
    # 1.2499999999999996, which rounds to 1.2
    matrix = {
        "S0": {MX.id: 0.1, CK.id: 1.1},
        "S1": {MX.id: 2.0, CK.id: 1.2},
        "S2": {MX.id: 1.2, CK.id: 0.6},
    }
    row = _rows(matrix)["S0"]
    assert row.autorank_exact < 1.25
    assert row.autorank_display == display_str(Fraction(5, 4)) == "1.3"


@pytest.mark.parametrize("low,high", [(0.0, 0.004), (1000.001, 1000.004), (-1e6, 1e6)])
def test_integer_key_is_exact_on_narrow_and_wide_columns(low, high):
    # large in magnitude and narrow in range, or wide: K / unit is the
    # exact mean of the ratios, whatever the floats' rounding error
    step = (high - low) / 7
    matrix = {
        f"S{i}": {MX.id: low + step * i, CK.id: low + step * ((3 * i) % 8)} for i in range(8)
    }
    names, columns = matrix_of(matrix)
    unit, _ = context = build_context(CSUK, names, columns)
    exact = _exact_aggregates(matrix, 8)
    keys = compute_autorank(names, columns, context)
    for k, _, name, autorank, display, _ in keys:
        assert 1 + Fraction(8 * k, unit) == exact[name]
        assert display == display_str(exact[name])
        assert abs(Fraction(autorank) - exact[name]) < Fraction(1, 10**6)
    assert _names(order_rows(keys)) == sorted(
        matrix, key=lambda name: (exact[name], Fraction(repr(matrix[name][MX.id])), name)
    )
