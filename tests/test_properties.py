"""Property-based checks of the arithmetic and serialization invariants."""

from __future__ import annotations

import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorank import (
    DEFAULT_METRICS,
    LanguagePair,
    LeaderboardTable,
    NormalizationContext,
    RankingConfig,
    RenderOptions,
    ScaleSpan,
    SystemCategory,
    SystemEntry,
    TableFormat,
    apply_selection,
    build_context,
    compare_pair,
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
from autorank.cli import main
from autorank.golden import _has_binding_inversion
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
def _score_indexes(draw):
    """Names and a pair -> system -> metric -> score index over them, any order."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    index = {}
    for code in draw(st.lists(_CODES, min_size=1, max_size=3, unique=True)):
        systems = draw(st.lists(st.sampled_from(names), min_size=1, max_size=6, unique=True))
        index[LanguagePair.from_code(code)] = {
            system: {
                metric: draw(_SCORES)
                for metric in draw(st.permutations([MX.id, CK.id]))[: draw(st.integers(1, 2))]
            }
            for system in systems
        }
    return names, index


def _nested_items(index):
    return [(p, [(s, list(row.items())) for s, row in m.items()]) for p, m in index.items()]


@given(_score_indexes())
def test_scores_serialize_parse_round_trip(data):
    names, index = data
    registry = [SystemEntry(name=n, category=SystemCategory.OPEN) for n in names]
    text = serialize_scores(index)
    parsed = parse_scores(text, registry, DEFAULT_METRICS)
    # same scores, with pairs, systems and metrics in the same order
    assert _nested_items(parsed) == _nested_items(index)
    # canonical form is a fixed point
    assert serialize_scores(parsed) == text


@settings(max_examples=50)
@given(st.lists(_NAMES, min_size=1, max_size=8, unique=True), st.data())
def test_shuffled_score_lines_render_identically(names, data):
    registry = [
        SystemEntry(name=name, category=list(SystemCategory)[i % 3], withdrawn=i % 5 == 4)
        for i, name in enumerate(names)
    ]
    pairs = [PAIR, LanguagePair.from_code("zz-ww")]
    score = st.floats(min_value=-100, max_value=100).map(lambda x: round(x, 2))
    index = {
        pair: {name: {m.id: data.draw(score) for m in DEFAULT_METRICS} for name in names}
        for pair in pairs
    }
    text = serialize_scores(index)
    header, *lines = text.split("\n")[:-1]
    shuffled = "\n".join([header, *data.draw(st.permutations(lines))]) + "\n"

    def rendered(scores_text):
        scores = parse_scores(scores_text, registry, DEFAULT_METRICS)
        tables = [rank_pair(registry, scores, pair) for pair in pairs]
        return [render_report(tables)] + [
            render_table(table, RenderOptions(fmt, show_reasons=True))
            for table in tables
            for fmt in TableFormat
        ]

    assert rendered(shuffled) == rendered(text)


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
    scores = {
        pair: {
            name: {metric.id: float(i) + offset for metric in DEFAULT_METRICS}
            for i, name in enumerate(names)
        }
        for pair, offset in ((PAIR, 0.0), (other, 0.5))
    }
    tables = [rank_pair(registry, scores, pair) for pair in (PAIR, other)]
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
    scores = {
        PAIR: {
            name: {metric.id: float(i * i) for metric in DEFAULT_METRICS}
            for i, name in enumerate(names)
        }
    }
    table = rank_pair(registry, scores, PAIR)
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


# --- golden order check -------------------------------------------------------


def _band_edges(rows, tolerance):
    hi, lo = [], []
    for row in rows:
        value = Decimal(row["autorank_exact"])
        band = tolerance + Decimal(1).scaleb(value.as_tuple().exponent) / 2
        hi.append(value + band)
        lo.append(value - band)
    return hi, lo


def _pairwise_inversions(pair, rows, positions, tolerance):
    """The O(N^2) binding-order scan compare_pair must agree with, line for line."""
    hi, lo = _band_edges(rows, tolerance)
    return [
        f"{pair}: order inversion: {rows[i]['system']} ranked after {rows[j]['system']}"
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if hi[i] < lo[j] and positions[rows[i]["system"]] > positions[rows[j]["system"]]
    ]


@st.composite
def _golden_texts(draw, tolerance):
    """1-12 decimal texts in no particular order, at mixed textual precisions.

    A value comes at several precisions ("2E+1", "20", "20.0"), each
    with its own half-ulp.  Some texts step from an earlier one at its
    precision by exactly the two bands, so the two band edges are equal
    and the strict comparison must not bind their order.
    """
    texts = []
    for _ in range(draw(st.integers(1, 12))):
        digits = draw(st.integers(-30, 30))
        exponent = draw(st.integers(-2, 1))
        pad = draw(st.integers(0, 2))
        text = str(Decimal(digits * 10**pad).scaleb(exponent - pad))
        if texts and draw(st.booleans()):
            base = Decimal(draw(st.sampled_from(texts)))
            ulp = Decimal(1).scaleb(base.as_tuple().exponent)
            touching = base + draw(st.sampled_from([1, -1])) * (2 * tolerance + ulp)
            if touching == touching.quantize(ulp):
                text = str(touching.quantize(ulp))
        texts.append(text)
    return texts


@given(st.sampled_from(["0", "0.05", "0.1", "0.25"]).map(Decimal), st.data())
def test_order_check_matches_pairwise_scan(tolerance, data):
    values = data.draw(_golden_texts(tolerance))
    n = len(values)
    names = [f"S{i:02d}" for i in range(n)]
    positions = dict(zip(names, data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))))
    golden_rows = [
        {"system": name, "category": "open", "autorank_exact": text, "position": 1, "selected": False}
        for name, text in zip(names, values)
    ]
    table_rows = [
        RankedRow(
            system=SystemEntry(name=row["system"], category=SystemCategory.OPEN),
            raw_scores={},
            normalized={},
            autorank_exact=float(row["autorank_exact"]),
            position=positions[row["system"]],
        )
        for row in data.draw(st.permutations(golden_rows))
    ]
    table = LeaderboardTable(
        pair=PAIR, metrics=DEFAULT_METRICS, rows=tuple(table_rows), cutoff_position=None
    )
    golden = {"pair": PAIR.code, "cutoff_position": None, "rows": golden_rows}
    expected = _pairwise_inversions(PAIR.code, golden_rows, positions, tolerance)
    assert compare_pair(table, golden, tolerance).mismatches == expected
    # the sweep alone decides whether the pairwise listing runs at all
    hi, lo = _band_edges(golden_rows, tolerance)
    assert _has_binding_inversion(hi, lo, [positions[name] for name in names]) == bool(expected)


# --- hostile input files -------------------------------------------------------

_SYSTEM_NAMES = ["A", "B", "C|\\", "翻訳システム"]


def _rarely():
    """True about one draw in ten, so most fuzzed files get past the parsers."""
    return st.integers(0, 9).map(lambda k: k == 5)


def _usually(strategy, odd):
    return _rarely().flatmap(lambda rare: odd if rare else strategy)


def _mostly(common, rare):
    """Usually one of ``common``; now and then one of ``rare`` or arbitrary text."""
    odd = st.one_of(st.sampled_from(rare), st.text(max_size=4))
    return _usually(st.sampled_from(common), odd)


_SCORE_TEXT = _mostly(["1.5", "0.7", "-2", "3", "0", "1e308", "-1e308"], ["nan", "1e999", "1_0"])


@st.composite
def _hostile_tsv(draw, header, rows):
    """A TSV file built from valid rows, then now and then damaged."""
    lines = draw(st.permutations(rows))
    for _ in range(draw(st.integers(1, 2)) if draw(_rarely()) else 0):
        at = draw(st.integers(0, len(lines)))
        damage = draw(st.sampled_from(["drop", "repeat", "cell", "extra"]))
        if at < len(lines):
            line = list(lines[at])
            if damage == "drop":
                del lines[at]
            elif damage == "repeat":
                lines.insert(at, line)
            elif damage == "cell":
                line[draw(st.integers(0, len(line) - 1))] = draw(st.text(max_size=6))
                lines[at] = line
            else:
                lines[at] = line + [""]
    first = draw(_mostly([header], [header + "\tx"]))
    text = "\n".join([first, *("\t".join(line) for line in lines)]) + "\n"
    return draw(st.binary(max_size=20)) if draw(_rarely()) else text.encode("utf-8")


@st.composite
def _hostile_inputs(draw):
    """A systems file and a scores file, mostly consistent with each other."""
    names = draw(st.lists(st.sampled_from(_SYSTEM_NAMES), min_size=1, max_size=4, unique=True))
    registry = [
        [
            name,
            draw(_mostly(["open", "closed", "constrained"], ["public"])),
            draw(_mostly(["0", "0", "1", "xx-yy"], ["2", "xx-yy,zz-ww", "xxyy"])),
            draw(_mostly(["", "", "xx-yy"], ["zz-ww,xx-yy", "xx-xx"])),
        ]
        for name in names
    ]
    scored = names + ["Ghost"] if draw(_rarely()) else names
    scores = [
        [pair, system, metric.id, draw(_SCORE_TEXT)]
        for pair in draw(st.lists(_mostly(["xx-yy", "zz-ww"], ["xx-xx"]), min_size=1, max_size=2))
        for system in draw(st.lists(st.sampled_from(scored), min_size=1, unique=True))
        for metric in DEFAULT_METRICS
    ]
    return (
        draw(_hostile_tsv("system\tcategory\twithdrawn\tunsupported_pairs", registry)),
        draw(_hostile_tsv("pair\tsystem\tmetric\tscore", scores)),
    )


_GOLDEN_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    st.sampled_from(["1.0", "2.5", "1e999999999", "NaN", "A", "open", "closed", "xx-yy"]),
)


def _hostile_golden():
    """A golden report close to the real shape, now and then any JSON or any text."""
    row = st.fixed_dictionaries(
        {
            "system": _mostly(_SYSTEM_NAMES, [""]),
            "category": _mostly(["open", "closed", "constrained"], ["public"]),
            "autorank_exact": _mostly(
                ["1.0", "2.5", "4.0"],
                ["1e999999999", "9.9999999999999999999999999999e999999", "NaN", "x"],
            ),
            "position": _usually(st.integers(1, 4), _GOLDEN_VALUES),
            "selected": _usually(st.booleans(), _GOLDEN_VALUES),
        }
    )
    entry = st.fixed_dictionaries(
        {
            "pair": _mostly(["xx-yy", "zz-ww"], ["xxyy", "xx-xx"]),
            "cutoff_position": _usually(st.none() | st.integers(1, 4), _GOLDEN_VALUES),
            "rows": st.lists(row, max_size=4),
        }
    )
    config = _usually(st.sampled_from([None, {"cutoff_gap": "1.0"}]), _GOLDEN_VALUES)
    report = st.builds(lambda c, p: {"config": c, "pairs": p}, config, st.lists(entry, max_size=2))
    odd = st.one_of(_JSON_VALUES.map(json.dumps), st.text())
    return _usually(report.map(json.dumps), odd).map(lambda text: text.encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(
    _hostile_inputs(),
    st.one_of(st.none(), _hostile_golden()),
    st.sampled_from([f.value for f in TableFormat]),
)
def test_cli_ends_hostile_files_with_an_exit_code_and_one_line(inputs, golden, fmt):
    systems, scores = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "systems.tsv").write_bytes(systems)
        (root / "scores.tsv").write_bytes(scores)
        argv = ["--scores", str(root / "scores.tsv"), "--systems", str(root / "systems.tsv")]
        if golden is None:
            argv = ["rank", *argv, "--format", fmt]
        else:
            (root / "golden").mkdir()
            (root / "golden" / "report.json").write_bytes(golden)
            argv = ["verify", *argv, "--golden", str(root / "golden")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)  # an exception here is the traceback a user would see
    assert code in (0, 1, 2, 3)
    assert err.getvalue() == "" or (code and err.getvalue().count("\n") == 1), err.getvalue()
