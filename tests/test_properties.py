"""Property-based checks of the arithmetic and serialization invariants."""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorank import (
    DEFAULT_METRICS,
    LanguagePair,
    NormalizationContext,
    RankingConfig,
    RenderOptions,
    ScaleSpan,
    ScoreRecord,
    SystemCategory,
    SystemEntry,
    TableFormat,
    apply_selection,
    build_context,
    compute_autorank,
    display_str,
    find_cutoff,
    normalize_score,
    order_rows,
    parse_registry,
    parse_scores,
    rank_pair,
    render_report,
    render_table,
    select_for_human_eval,
    serialize_registry,
    serialize_scores,
)
from autorank.model import RankedRow
from autorank.render import _dump_json

MX, CK = DEFAULT_METRICS
PAIR = LanguagePair.from_code("xx-yy")

_CODES = st.sampled_from(["cs-uk", "en-de", "en-ja", "xx-yy", "zz-ww", "ab-cd"])
_NAMES = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1,
    max_size=24,
).filter(lambda s: s.strip() == s and s)
_SCORES = st.floats(allow_nan=False, allow_infinity=False, width=64)


# --- serialization round-trips ----------------------------------------------


@st.composite
def _score_rows(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    triples = draw(
        st.lists(
            st.tuples(_CODES, st.sampled_from(names), st.sampled_from([MX.id, CK.id])),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    return names, [
        ScoreRecord(
            pair=LanguagePair.from_code(code), system=system, metric=metric, score=draw(_SCORES)
        )
        for code, system, metric in triples
    ]


@given(_score_rows())
def test_scores_serialize_parse_round_trip(data):
    names, records = data
    registry = [SystemEntry(name=n, category=SystemCategory.OPEN) for n in names]
    text = serialize_scores(records)
    assert parse_scores(text, registry, DEFAULT_METRICS) == records
    # canonical form is a fixed point
    assert serialize_scores(parse_scores(text, registry, DEFAULT_METRICS)) == text


@st.composite
def _registry_entries(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=8, unique=True))
    entries = []
    for name in names:
        blanket = draw(st.booleans())
        pair_scoped = frozenset() if blanket else frozenset(
            LanguagePair.from_code(c)
            for c in draw(st.lists(_CODES, max_size=3, unique=True))
        )
        entries.append(
            SystemEntry(
                name=name,
                category=draw(st.sampled_from(SystemCategory)),
                withdrawn=blanket and draw(st.booleans()),
                withdrawn_pairs=pair_scoped,
                unsupported_pairs=frozenset(
                    LanguagePair.from_code(c)
                    for c in draw(st.lists(_CODES, max_size=3, unique=True))
                ),
            )
        )
    return entries


@given(_registry_entries())
def test_registry_serialize_parse_round_trip(entries):
    text = serialize_registry(entries)
    assert parse_registry(text) == entries


# --- normalization -----------------------------------------------------------


@st.composite
def _columns(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    pool = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
    mx = draw(st.lists(pool, min_size=n, max_size=n))
    ck = draw(st.lists(pool, min_size=n, max_size=n))
    # keep the divisor well away from float underflow unless degenerate
    for column in (mx, ck):
        spread = max(column) - min(column)
        if 0 < spread < 1e-3:
            column[0] = min(column) + 1.0
    matrix = {
        f"S{i:02d}": {MX.id: mx[i], CK.id: ck[i]} for i in range(n)
    }
    return matrix


@given(_columns())
def test_normalized_values_live_on_the_rank_scale(matrix):
    ctx = build_context(PAIR, matrix, DEFAULT_METRICS)
    config = RankingConfig()
    n = ctx.n_systems
    for scores in matrix.values():
        for metric in DEFAULT_METRICS:
            value = normalize_score(scores[metric.id], metric, ctx, config)
            assert 1.0 - 1e-9 <= value <= 1.0 + n + 1e-9


@given(_columns())
def test_extremes_hit_scale_endpoints(matrix):
    ctx = build_context(PAIR, matrix, DEFAULT_METRICS)
    config = RankingConfig()
    for metric in DEFAULT_METRICS:
        values = [
            normalize_score(scores[metric.id], metric, ctx, config)
            for scores in matrix.values()
        ]
        assert min(values) == 1.0
        column = [scores[metric.id] for scores in matrix.values()]
        if max(column) > min(column):
            assert max(values) == 1.0 + ctx.n_systems
        else:
            assert set(values) == {1.0}


@given(_columns())
def test_normalization_is_antitone_in_quality(matrix):
    # for a lower-better metric, a larger raw score never gets a smaller
    # normalized value; mirrored for higher-better
    ctx = build_context(PAIR, matrix, DEFAULT_METRICS)
    config = RankingConfig()
    rows = list(matrix.values())
    for metric, sign in ((MX, 1.0), (CK, -1.0)):
        pairs = sorted(
            (sign * scores[metric.id], normalize_score(scores[metric.id], metric, ctx, config))
            for scores in rows
        )
        for (_, left), (_, right) in zip(pairs, pairs[1:]):
            assert left <= right + 1e-12


@given(
    _columns(),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_normalization_invariant_under_positive_affine_maps(matrix, a, b):
    ctx = build_context(PAIR, matrix, DEFAULT_METRICS)
    mapped = {
        name: {mid: a * value + b for mid, value in scores.items()}
        for name, scores in matrix.items()
    }
    mapped_ctx = build_context(PAIR, mapped, DEFAULT_METRICS)
    config = RankingConfig()
    for name, scores in matrix.items():
        for metric in DEFAULT_METRICS:
            original = normalize_score(scores[metric.id], metric, ctx, config)
            transformed = normalize_score(
                mapped[name][metric.id], metric, mapped_ctx, config
            )
            assert math.isclose(original, transformed, rel_tol=1e-6, abs_tol=1e-6)


# --- ordering ----------------------------------------------------------------


@given(_columns(), st.randoms(use_true_random=False))
def test_leaderboard_order_ignores_input_order(matrix, rng):
    entries = {
        name: SystemEntry(name=name, category=SystemCategory.OPEN) for name in matrix
    }
    ctx = build_context(PAIR, matrix, DEFAULT_METRICS)
    rows = compute_autorank(entries, matrix, ctx, DEFAULT_METRICS, RankingConfig())
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert order_rows(shuffled, MX) == order_rows(rows, MX)


@given(_columns())
def test_order_is_sorted_and_positions_sequential(matrix):
    entries = {
        name: SystemEntry(name=name, category=SystemCategory.OPEN) for name in matrix
    }
    ctx = build_context(PAIR, matrix, DEFAULT_METRICS)
    ordered = order_rows(
        compute_autorank(entries, matrix, ctx, DEFAULT_METRICS, RankingConfig()), MX
    )
    assert [row.position for row in ordered] == list(range(1, len(ordered) + 1))
    for left, right in zip(ordered, ordered[1:]):
        assert left.autorank_exact <= right.autorank_exact


# --- selection ---------------------------------------------------------------


def _ordered_rows(aggregates, withdrawn, categories):
    rows = []
    for i, (value, gone, category) in enumerate(zip(aggregates, withdrawn, categories), start=1):
        rows.append(
            RankedRow(
                system=SystemEntry(name=f"S{i:02d}", category=category),
                raw_scores={MX.id: 0.0, CK.id: 0.0},
                normalized={},
                autorank_exact=value,
                position=i,
                withdrawn=gone,
            )
        )
    return rows


@st.composite
def _tables(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    steps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    aggregates = []
    total = 1.0
    for step in steps:
        total += step
        aggregates.append(total)
    withdrawn = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    categories = draw(st.lists(st.sampled_from(SystemCategory), min_size=n, max_size=n))
    return _ordered_rows(aggregates, withdrawn, categories)


@given(_tables(), st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.0, max_value=3.0))
def test_cutoff_position_monotone_in_gap(rows, gap, extra):
    tight = find_cutoff(rows, RankingConfig(cutoff_gap=gap))
    loose = find_cutoff(rows, RankingConfig(cutoff_gap=gap + extra))
    if loose is not None:
        assert tight is not None and tight <= loose


def _selected_rows(rows):
    config = RankingConfig()
    return apply_selection(rows, select_for_human_eval(rows, find_cutoff(rows, config), config))


@given(_tables())
def test_selection_is_per_category_prefix(rows):
    stamped = _selected_rows(rows)
    for category in SystemCategory:
        flags = [row.selected for row in stamped if row.category is category and not row.withdrawn]
        # once selection stops within a category it never resumes
        assert flags == sorted(flags, reverse=True)


@given(_tables())
def test_withdrawn_rows_never_selected(rows):
    for row in _selected_rows(rows):
        if row.withdrawn:
            assert not row.selected


@given(_tables())
def test_every_row_gets_coherent_reasons(rows):
    for row in _selected_rows(rows):
        assert row.reasons
        if row.selected:
            assert len(row.reasons) == 1 and row.reasons[0].is_selected
        else:
            assert all(not code.is_selected for code in row.reasons)


# --- display rounding ---------------------------------------------------------


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_display_rounds_to_nearest_ties_away_from_zero(value):
    # independent oracle in exact rational arithmetic
    exact = Fraction(Decimal(repr(value)))
    quantum = Fraction(1, 10)
    quotient = exact / quantum
    floor = quotient.numerator // quotient.denominator
    candidates = [floor * quantum, (floor + 1) * quantum]
    distances = [abs(exact - c) for c in candidates]
    if distances[0] < distances[1]:
        want = candidates[0]
    elif distances[1] < distances[0]:
        want = candidates[1]
    else:  # tie: away from zero
        want = max(candidates, key=abs)
    got = Fraction(Decimal(display_str(value)))
    assert got == want


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_display_string_has_requested_precision(value):
    # the precision is the ranking rule's: one decimal, always
    assert len(display_str(value).split(".")[1]) == 1


# --- JSON layout ---------------------------------------------------------------

_JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x01\x08\x0c\x1f\x7f\r\n\t\u2028\u2029' "\U0001d11e😀翻訳システム"),
        st.characters(codec="utf-8"),
    ),
    max_size=12,
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


def _stdlib_layout(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@given(_JSON_VALUES)
def test_json_layout_matches_stdlib_encoder(payload):
    assert _dump_json(payload) == _stdlib_layout(payload)


@settings(max_examples=50)
@given(
    st.lists(
        _JSON_TEXT.filter(lambda s: s and "\t" not in s and "\n" not in s),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
def test_rendered_json_matches_stdlib_encoder(names):
    registry = [SystemEntry(name=name, category=SystemCategory.OPEN) for name in names]
    other = LanguagePair.from_code("zz-ww")
    records = [
        ScoreRecord(pair, name, metric.id, float(i) + offset)
        for pair, offset in ((PAIR, 0.0), (other, 0.5))
        for i, name in enumerate(names)
        for metric in DEFAULT_METRICS
    ]
    tables = [rank_pair(registry, records, pair) for pair in (PAIR, other)]
    rendered = [render_table(table, RenderOptions(TableFormat.JSON)) for table in tables]
    rendered.append(render_report(tables))
    for text in rendered:
        assert text == _stdlib_layout(json.loads(text))


# --- Markdown escaping ---------------------------------------------------------

# GFM splits a row on every pipe that no backslash escapes
_MD_CELL_BREAK = re.compile(r"(?<!\\)\|")


@settings(max_examples=50)
@given(
    st.lists(
        st.text(alphabet="a |\\翻訳システム", min_size=1, max_size=8),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.booleans(),
)
def test_markdown_column_count_survives_hostile_names(names, show_reasons):
    registry = [
        SystemEntry(
            name=name,
            category=list(SystemCategory)[i % 3],
            withdrawn=i % 4 == 1,
            unsupported_pairs=frozenset({PAIR}) if i % 2 else frozenset(),
        )
        for i, name in enumerate(names)
    ]
    records = [
        ScoreRecord(PAIR, name, metric.id, float(i * i))
        for i, name in enumerate(names)
        for metric in DEFAULT_METRICS
    ]
    table = rank_pair(registry, records, PAIR)
    out = render_table(table, RenderOptions(TableFormat.MARKDOWN, show_reasons=show_reasons))
    lines = out.splitlines()
    assert len(lines) == 2 + len(names) + (table.cutoff_position is not None)
    assert {len(_MD_CELL_BREAK.split(line)) for line in lines} == {len(lines[0].split("|"))}


# --- config text ---------------------------------------------------------------

_CONFIGS = st.builds(
    lambda gap, fractions, span: RankingConfig(gap, min(fractions), max(fractions), span),
    st.floats(min_value=1e-6, max_value=1e6),
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(bool),
        min_size=2,
        max_size=2,
    ),
    st.sampled_from(ScaleSpan),
)


@given(_CONFIGS, st.text(min_size=1, max_size=12))
def test_config_text_round_trips_and_rejects_extra_keys(config, key):
    text = json.loads(json.dumps(config.as_dict()))
    assert RankingConfig.from_dict(text) == config
    if key not in text:
        with pytest.raises(ValueError, match="unknown config key"):
            RankingConfig.from_dict({**text, key: "1"})
