"""Acceptance gate for the bundled WMT24 corpus.

One test per shipping criterion; the pytest -v line of each
``test_criterion_*`` function is that criterion's pass/fail verdict.
All expectations below were frozen from the published leaderboard
transcriptions under data/wmt24/golden and are compared at the
tolerances the goldens themselves support: the published aggregates
carry one decimal and were computed from unrounded metric scores,
while the engine recomputes from the rounded scores shipped in
scores.tsv, so a recomputed cell may legitimately sit anywhere within
half a display ulp plus the stated 0.05 slack of the printed value.
"""

from __future__ import annotations

import json
import math
import random
import re
from decimal import Decimal
from statistics import fmean

import pytest

from autorank import (
    LanguagePair,
    ParseError,
    ReasonCode,
    RenderOptions,
    SystemCategory,
    SystemEntry,
    TableFormat,
    compare_pair,
    parse_registry,
    parse_scores,
    rank_pair,
    render_table,
    parse_manifest,
)
from autorank.cli import main
from autorank.golden import validate_golden_pair
from autorank.model import METRICS, Orientation, display_str
from autorank.render import file_extension, visible_rows
from autorank.selection import category_limits

from _tsv import matrix_of, registry_of, serialize_manifest, serialize_registry, serialize_scores

TOLERANCE = Decimal("0.05")

# Cells where recomputing from the rounded per-metric scores lands on
# the other side of a display boundary than the published aggregate.
# Every one of them is within half an ulp plus tolerance of the golden
# value; the set is frozen so a regression cannot hide inside it.
# Tuples are (pair, system, published display, recomputed display).
ROUNDING_FLIPS = {
    ("cs-uk", "Gemini-1.5-Pro", "2.0", "2.1"),
    ("cs-uk", "ONLINE-G", "2.8", "2.9"),
    ("en-cs", "CUNI-Transformer", "4.7", "4.8"),
    ("en-cs", "Phi-3-Medium", "15.0", "14.9"),
    ("en-cs", "CycleL2", "24.2", "24.3"),
    ("en-de", "Dubformer", "1.8", "1.7"),
    ("en-de", "TranssionMT", "1.8", "1.9"),
    ("en-de", "ONLINE-B", "1.8", "1.9"),
    ("en-de", "CommandR-plus", "2.0", "1.9"),
    ("en-de", "Claude-3.5", "1.9", "2.0"),
    ("en-de", "Mistral-Large", "2.0", "2.1"),
    ("en-de", "Aya23", "2.7", "2.8"),
    ("en-de", "Phi-3-Medium", "3.4", "3.5"),
    ("en-de", "CUNI-NL", "4.2", "4.3"),
    ("en-de", "AIST-AIRC", "7.2", "7.3"),
    ("en-de", "MSLC", "11.9", "12.0"),
    ("en-de", "TSU-HITs", "13.3", "13.4"),
    ("en-es", "Mistral-Large", "2.2", "2.1"),
    ("en-es", "TranssionMT", "2.8", "2.7"),
    ("en-es", "Phi-3-Medium", "3.0", "2.9"),
    ("en-es", "IKUN-C", "3.4", "3.3"),
    ("en-es", "TSU-HITs", "16.3", "16.2"),
    ("en-hi", "CommandR-plus", "2.3", "2.4"),
    ("en-hi", "ONLINE-A", "3.5", "3.6"),
    ("en-hi", "Mistral-Large", "5.0", "5.1"),
    ("en-is", "Dubformer", "2.5", "2.4"),
    ("en-is", "IKUN", "3.2", "3.3"),
    ("en-is", "IKUN-C", "3.7", "3.8"),
    ("en-is", "IOL-Research", "4.3", "4.2"),
    ("en-is", "Aya23", "15.2", "15.3"),
    ("en-is", "Phi-3-Medium", "16.2", "16.3"),
    ("en-ja", "Gemini-1.5-Pro", "1.7", "1.8"),
    ("en-ja", "GPT-4", "1.7", "1.8"),
    ("en-ja", "CommandR-plus", "1.9", "2.0"),
    ("en-ja", "Aya23", "2.3", "2.4"),
    ("en-ja", "Llama3-70B", "2.6", "2.7"),
    ("en-ja", "DLUT-GTCOM", "2.6", "2.7"),
    ("en-ja", "Mistral-Large", "2.9", "3.0"),
    ("en-ja", "ONLINE-W", "2.9", "3.0"),
    ("en-ja", "AIST-AIRC", "6.6", "6.7"),
    ("en-ru", "ONLINE-G", "2.2", "2.1"),
    ("en-ru", "Gemini-1.5-Pro", "2.3", "2.2"),
    ("en-ru", "Mistral-Large", "2.7", "2.6"),
    ("en-ru", "Llama3-70B", "3.1", "3.0"),
    ("en-ru", "IKUN", "3.2", "3.1"),
    ("en-ru", "ONLINE-A", "3.4", "3.3"),
    ("en-uk", "ONLINE-A", "3.3", "3.4"),
    ("en-uk", "IKUN-C", "3.9", "3.8"),
    ("en-uk", "Phi-3-Medium", "11.1", "11.2"),
    ("en-zh", "ONLINE-B", "1.7", "1.8"),
    ("en-zh", "HW-TSC", "2.3", "2.4"),
    ("en-zh", "Phi-3-Medium", "3.1", "3.2"),
    ("ja-zh", "GPT-4", "2.1", "2.0"),
    ("ja-zh", "CommandR-plus", "2.8", "2.7"),
    ("ja-zh", "Mistral-Large", "3.5", "3.4"),
    ("ja-zh", "Aya23", "3.7", "3.6"),
    ("ja-zh", "ONLINE-B", "5.2", "5.1"),
}

EXPECTED_CUTOFFS = {
    "cs-uk": 18,
    "en-cs": 22,
    "en-de": 20,
    "en-es": 22,
    "en-hi": 16,
    "en-is": 14,
    "en-ja": 19,
    "en-ru": 20,
    "en-uk": 18,
    "en-zh": 19,
    "ja-zh": 20,
}

# last system above the quality line, where the published tables call
# the boundary out explicitly
LAST_ABOVE_LINE = {
    "cs-uk": "IKUN-C",
    "en-cs": "ONLINE-G",
    "en-hi": "NVIDIA-NeMo",
    "en-is": "ONLINE-G",
}

ALLOW = frozenset({("cs-uk", "Llama3-70B")})


def _half_ulp(text: str) -> Decimal:
    return Decimal(1).scaleb(int(Decimal(text).as_tuple().exponent)) / 2


def test_criterion_1_aggregates_match_published_tables(tables, goldens):
    """Every recomputed aggregate within 0.05 + half ulp of the golden."""

    checked = 0
    flips = set()
    for code in sorted(tables):
        table = tables[code]
        golden_rows = {r["system"]: r for r in goldens[code]["rows"]}
        assert set(golden_rows) == {row.name for row in table.rows}
        for row in table.rows:
            text = str(golden_rows[row.name]["autorank_exact"])
            band = TOLERANCE + _half_ulp(text)
            drift = abs(Decimal(repr(row.autorank_exact)) - Decimal(text))
            assert drift <= band, (
                f"{code}/{row.name}: recomputed {row.autorank_exact!r} "
                f"is {drift} from published {text}, band {band}"
            )
            checked += 1
            shown = display_str(row.autorank_exact)
            if shown != text:
                flips.add((code, row.name, text, shown))
    assert checked == 244
    # display flips stay within the frozen witness set, both directions
    assert flips == ROUNDING_FLIPS


def test_criterion_2_scale_endpoints_exact(tables, scores):
    """Best on both metrics lands on 1.0, worst on both on 1 + N, exactly."""

    metric_x, comet = METRICS
    for code in sorted(tables):
        table = tables[code]
        names, (mx, ck) = scores[LanguagePair.from_code(code)]
        matrix = {name: {metric_x.id: x, comet.id: c} for name, x, c in zip(names, mx, ck)}
        best_x, worst_x, best_c, worst_c = min(mx), max(mx), max(ck), min(ck)
        rows = {row.name: row for row in table.rows}
        dominant = [
            name
            for name, s in matrix.items()
            if s[metric_x.id] == best_x and s[comet.id] == best_c
        ]
        dominated = [
            name
            for name, s in matrix.items()
            if s[metric_x.id] == worst_x and s[comet.id] == worst_c
        ]
        assert dominant and dominated, code
        for name in dominant:
            assert rows[name].autorank_exact == 1.0, (code, name)
        for name in dominated:
            assert rows[name].autorank_exact == 1.0 + table.n_systems, (code, name)

    # the corpus's own anchor points
    cs_uk = {row.name: row for row in tables["cs-uk"].rows}
    assert tables["cs-uk"].n_systems == 20
    assert cs_uk["Unbabel-Tower70B"].autorank_exact == 1.0
    assert cs_uk["CycleL"].autorank_exact == 21.0
    en_cs = {row.name: row for row in tables["en-cs"].rows}
    assert tables["en-cs"].n_systems == 26
    assert en_cs["CycleL"].autorank_exact == 27.0


def test_criterion_3_cutoff_lines_match_published_tables(tables, goldens):
    """All eleven quality cutoffs land exactly where the goldens put them."""

    assert sorted(tables) == sorted(EXPECTED_CUTOFFS)
    for code in sorted(tables):
        table = tables[code]
        assert table.cutoff_position == EXPECTED_CUTOFFS[code], code
        assert table.cutoff_position == goldens[code]["cutoff_position"], code

    for code, name in LAST_ABOVE_LINE.items():
        table = tables[code]
        above = table.rows[table.cutoff_position - 2]
        assert above.name == name, (code, above.name)

    # the tightest line in the corpus: the triggering jump rounds to 1.6
    en_hi = tables["en-hi"]
    above = en_hi.rows[en_hi.cutoff_position - 2]
    below = en_hi.rows[en_hi.cutoff_position - 1]
    gap = below.autorank_exact - above.autorank_exact
    assert gap > 1.5
    assert display_str(gap) == "1.6"


def test_criterion_4_selection_matches_published_checkmarks(tables, goldens):
    """Selection agrees with the goldens up to one allow-listed system."""

    # without the allow list, cs-uk disagrees on exactly one flag
    parsed = {code: validate_golden_pair(goldens[code]) for code in tables}
    bare = compare_pair(tables["cs-uk"], parsed["cs-uk"], TOLERANCE)
    assert bare.mismatches == [
        "cs-uk: Llama3-70B: selected: expected False, got True"
    ]

    allowed: list[str] = []
    swaps: list[str] = []
    for code in sorted(tables):
        comparison = compare_pair(tables[code], parsed[code], TOLERANCE, ALLOW)
        assert comparison.ok, comparison.mismatches
        allowed.extend(n for n in comparison.notes if n.endswith("allow-listed"))
        swaps.extend(n for n in comparison.notes if "selection swapped" in n)
    assert allowed == [
        "cs-uk: Llama3-70B: selection differs (expected False, got True), allow-listed"
    ]
    swapped = {(n.split(": ")[0], n.split(": ")[1]) for n in swaps}
    assert swapped == {("en-de", "Gemini-1.5-Pro"), ("en-de", "ONLINE-W")}

    # reason codes must restate each verdict from the row's own facts
    selected_reason = {
        SystemCategory.CONSTRAINED: ReasonCode.SELECTED_CONSTRAINED,
        SystemCategory.OPEN: ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,
        SystemCategory.CLOSED: ReasonCode.SELECTED_CLOSED_TOP_THIRD,
    }
    for code in sorted(tables):
        table = tables[code]
        closed_limit, open_limit = category_limits(table.n_systems)
        for row in table.rows:
            above = table.cutoff_position is None or row.position < table.cutoff_position
            exclusions = []
            if row.withdrawn:
                exclusions.append(ReasonCode.EXCLUDED_WITHDRAWN)
            if not above:
                exclusions.append(ReasonCode.EXCLUDED_BELOW_CUTOFF)
            if row.category is SystemCategory.CLOSED and row.position > closed_limit:
                exclusions.append(ReasonCode.EXCLUDED_CLOSED_BELOW_THIRD)
            elif row.category is SystemCategory.OPEN and row.position > open_limit:
                exclusions.append(ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS)
            assert row.above_cutoff == above, (code, row.name)
            assert row.selected == (not exclusions), (code, row.name)
            expected = tuple(exclusions) or (selected_reason[row.category],)
            assert row.reasons == expected, (code, row.name)


def test_criterion_5_open_track_view_agrees_with_full_table(tables):
    """Hiding closed systems changes membership only, never shared rows."""

    for code in sorted(tables):
        table = tables[code]
        shared = [row.name for row in visible_rows(table, include_closed=False)]
        assert shared  # every pair fields open or constrained systems

        full_payload = json.loads(
            render_table(table, RenderOptions(format=TableFormat.JSON))
        )
        part_payload = json.loads(
            render_table(
                table, RenderOptions(format=TableFormat.JSON, include_closed=False)
            )
        )
        full_rows = {r["system"]: r for r in full_payload["pairs"][0]["rows"]}
        part_rows = {r["system"]: r for r in part_payload["pairs"][0]["rows"]}
        assert list(part_rows) == shared
        for name in shared:
            assert part_rows[name] == full_rows[name], (code, name)

        for fmt in (TableFormat.TEXT, TableFormat.MARKDOWN, TableFormat.LATEX):
            full_text = render_table(table, RenderOptions(format=fmt))
            part_text = render_table(
                table, RenderOptions(format=fmt, include_closed=False)
            )
            for name in shared:
                pattern = re.compile(rf"(?<![\w-]){re.escape(name)}(?![\w-])")
                full_lines = [l for l in full_text.splitlines() if pattern.search(l)]
                part_lines = [l for l in part_text.splitlines() if pattern.search(l)]
                assert len(full_lines) == 1 and len(part_lines) == 1, (code, name, fmt)
                assert " ".join(full_lines[0].split()) == " ".join(
                    part_lines[0].split()
                ), (code, name, fmt)

    # the published open-track cs-uk table, frozen
    rows = visible_rows(tables["cs-uk"], include_closed=False)
    assert [row.name for row in rows] == [
        "IOL-Research",
        "IKUN",
        "Aya23",
        "Llama3-70B",
        "CUNI-Transformer",
        "IKUN-C",
        "CycleL",
    ]
    assert [display_str(row.autorank_exact) for row in rows] == [
        "1.9", "2.3", "2.5", "2.6", "3.0", "3.0", "21.0",
    ]
    # Llama3-70B is the allow-listed flag: published unchecked, engine selects
    assert [row.selected for row in rows] == [True] * 6 + [False]
    assert rows[3].claimed_support is False
    assert all(row.claimed_support for i, row in enumerate(rows) if i != 3)


def test_criterion_6_randomized_instances_match_direct_formula():
    """1000 random tables: oracle, range, endpoints, monotonicity, symmetry.

    Both orientations are checked in every table: MetricX is
    lower-is-better and CometKiwi higher-is-better.  A metric's
    normalized value x is read by ranking its column beside a constant
    one, which normalizes to 1 for everyone, so the aggregate is
    (x + 1) / 2.
    """

    rng = random.Random(240817)
    pair = LanguagePair.from_code("xx-yy")

    def oracle(score: float, column: list[float], lower_better: bool, n: int) -> float:
        best = min(column) if lower_better else max(column)
        worst = max(column) if lower_better else min(column)
        disadvantage = score - best if lower_better else best - score
        worst_disadvantage = worst - best if lower_better else best - worst
        if worst_disadvantage == 0:
            return 1.0
        return 1.0 + n * (disadvantage / worst_disadvantage)

    trials = 1000
    for _ in range(trials):
        n = rng.randint(1, 40)
        names = [f"S{i:02d}" for i in range(n)]
        def column() -> dict[str, float]:
            if rng.random() < 0.1:  # a metric where everyone ties
                value = round(rng.uniform(-30.0, 30.0), 3)
                return {name: value for name in names}
            return {name: rng.uniform(-30.0, 30.0) for name in names}

        columns = [column(), column()]
        scores = {
            name: {METRICS[j].id: columns[j][name] for j in range(2)}
            for name in names
        }
        registry = registry_of(SystemEntry(name, SystemCategory.OPEN) for name in names)

        def ranked(matrix):
            return rank_pair(registry, {pair: matrix_of(matrix)}, pair).rows

        ordered = ranked(scores)
        # each metric's rows, ranked beside a constant column: a row's
        # aggregate is fsum([x, 1.0]) / 2, so 2 * aggregate - 1 is x, and
        # exactly x at both ends of the scale
        alone = {
            metric.id: {
                row.name: row
                for row in ranked(
                    {name: {metric.id: columns[j][name], other.id: 0.0} for name in names}
                )
            }
            for j, (metric, other) in enumerate(zip(METRICS, METRICS[::-1]))
        }
        normalized = {
            metric_id: {name: 2 * row.autorank_exact - 1 for name, row in rows.items()}
            for metric_id, rows in alone.items()
        }

        for row in ordered:
            expected = []
            for j, metric in enumerate(METRICS):
                col = list(columns[j].values())
                lower = metric.orientation is Orientation.LOWER_BETTER
                want = oracle(columns[j][row.name], col, lower, n)
                got = normalized[metric.id][row.name]
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
                assert 1.0 <= got <= 1.0 + n
                if columns[j][row.name] == (min(col) if lower else max(col)):
                    assert got == 1.0
                if len(set(col)) > 1 and columns[j][row.name] == (
                    max(col) if lower else min(col)
                ):
                    assert got == 1.0 + n
                expected.append(want)
            assert math.isclose(
                row.autorank_exact, fmean(expected), rel_tol=1e-12, abs_tol=1e-12
            )

        # strictly better raw score, strictly earlier place: the order is
        # decided on the exact key, so no float rounding can tie two rows
        if n >= 2:
            for j, metric in enumerate(METRICS):
                col = columns[j]
                if len(set(col.values())) == 1:
                    continue
                lower = metric.orientation is Orientation.LOWER_BETTER
                for _ in range(5):
                    a, b = rng.sample(names, 2)
                    if col[a] == col[b]:
                        assert normalized[metric.id][a] == normalized[metric.id][b]
                        continue
                    better = a if (col[a] < col[b]) == lower else b
                    other = b if better == a else a
                    rows = alone[metric.id]
                    assert rows[better].position < rows[other].position
                    assert normalized[metric.id][better] <= normalized[metric.id][other]

        # positive affine rescaling of one metric's raw column is invisible
        scale, shift = rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0)
        rescaled = {
            name: {
                METRICS[0].id: scale * scores[name][METRICS[0].id] + shift,
                METRICS[1].id: scores[name][METRICS[1].id],
            }
            for name in names
        }
        recomputed = ranked(rescaled)
        for before, after in zip(ordered, recomputed):
            assert before.name == after.name
            assert math.isclose(
                before.autorank_exact, after.autorank_exact, rel_tol=1e-9, abs_tol=1e-9
            )

        # input order is irrelevant to the final ordering
        shuffled_names = names[:]
        rng.shuffle(shuffled_names)
        reordered = ranked({name: scores[name] for name in shuffled_names})
        assert [row.name for row in reordered] == [row.name for row in ordered]
        assert [row.position for row in reordered] == [row.position for row in ordered]


def test_criterion_7_ingest_round_trips_and_rejects(data_dir, registry):
    """Fixture files survive parse/serialize byte for byte; bad input names its line."""

    systems_text = (data_dir / "systems.tsv").read_text(encoding="utf-8")
    scores_text = (data_dir / "scores.tsv").read_text(encoding="utf-8")
    manifest_text = (data_dir / "manifest.tsv").read_text(encoding="utf-8")
    assert serialize_registry(parse_registry(systems_text)) == systems_text
    assert (
        serialize_scores(parse_scores(scores_text, registry))
        == scores_text
    )
    assert serialize_manifest(parse_manifest(manifest_text)) == manifest_text

    mini_registry = parse_registry(
        "system\tcategory\twithdrawn\tunsupported_pairs\nOk\topen\t0\t\n"
    )
    scores_header = "pair\tsystem\tmetric\tscore\n"

    with pytest.raises(ParseError) as err:
        parse_scores(
            scores_header
            + "xx-yy\tOk\tmetricx-23-xl\t1.0\n"
            + "xx-yy\tOk\tmetricx-23-xl\t2.0\n",
            mini_registry,
        )
    assert err.value.line == 3
    assert "duplicate score for xx-yy/Ok/metricx-23-xl" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_scores(
            scores_header + "xx-yy\tGhost\tmetricx-23-xl\t1.0\n",
            mini_registry,
        )
    assert err.value.line == 2
    assert "unknown system 'Ghost'" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_registry(
            "system\tcategory\twithdrawn\tunsupported_pairs\n"
            "Ok\topen\t0\t\n"
            "Weird\tplatinum\t0\t\n"
        )
    assert err.value.line == 3
    assert "unknown category 'platinum'" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_scores(
            scores_header + "xx-yy\tOk\tmetricx-23-xl\t1e999\n",
            mini_registry,
        )
    assert err.value.line == 2
    assert "score must be finite" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_scores(
            scores_header + "xx-yy\tOk\tmetricx-23-xl\tnan\n",
            mini_registry,
        )
    assert err.value.line == 2
    assert "malformed score 'nan'" in str(err.value)


def test_criterion_8_reruns_are_byte_identical(data_dir, tmp_path):
    """Two full CLI runs per format write exactly the same bytes."""

    formats = [f.value for f in TableFormat]
    for run in ("one", "two"):
        for fmt in formats:
            out_dir = tmp_path / run / fmt
            code = main(
                [
                    "rank",
                    "--scores", str(data_dir / "scores.tsv"),
                    "--systems", str(data_dir / "systems.tsv"),
                    "--manifest", str(data_dir / "manifest.tsv"),
                    "--format", fmt,
                    "--out", str(out_dir),
                ]
            )
            assert code == 0

    for fmt in formats:
        first = sorted((tmp_path / "one" / fmt).iterdir())
        second = sorted((tmp_path / "two" / fmt).iterdir())
        assert [p.name for p in first] == [p.name for p in second]
        assert len(first) == 11
        extension = file_extension(TableFormat(fmt))
        for a, b in zip(first, second):
            assert a.suffix == f".{extension}"
            assert a.read_bytes() == b.read_bytes(), a.name
