from __future__ import annotations

import json
import re

import pytest

from autorank import (
    LanguagePair,
    LeaderboardTable,
    RankedRow,
    ReasonCode,
    RenderOptions,
    SystemCategory,
    TableFormat,
    parse_registry,
    parse_scores,
    rank_pair,
    render_report,
    render_table,
)
from autorank.model import METRICS, display_str
from autorank.render import (
    _BATCH,
    _PLAIN,
    _Columns,
    file_extension,
    report_chunks,
    visible_rows,
)

MX, CK = METRICS


def _opts(fmt: TableFormat, **kwargs) -> RenderOptions:
    return RenderOptions(format=fmt, **kwargs)


def _tiny_table() -> LeaderboardTable:
    def row(name, category, exact, pos, reason, support=True):
        return RankedRow(
            name=name,
            category=category,
            raw_scores=(1.0, 0.5),
            autorank_exact=exact,
            autorank_display=display_str(exact),
            position=pos,
            claimed_support=support,
            reasons=(reason,),
        )

    rows = (
        row("Alpha", SystemCategory.CLOSED, 1.0, 1, ReasonCode.SELECTED_CLOSED_TOP_THIRD),
        row(
            "Bravo & Co",
            SystemCategory.OPEN,
            1.5,
            2,
            ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,
            support=False,
        ),
        row(
            "Charlie",
            SystemCategory.CONSTRAINED,
            1.8,
            3,
            ReasonCode.EXCLUDED_WITHDRAWN,
        ),
        row("Delta", SystemCategory.OPEN, 3.5, 4, ReasonCode.EXCLUDED_BELOW_CUTOFF),
    )
    return LeaderboardTable(pair=LanguagePair.from_code("xx-yy"), rows=rows)


class TestVisibleRows:
    def test_exclude_closed_drops_only_closed(self, tables):
        table = tables["cs-uk"]
        kept = visible_rows(table, include_closed=False)
        assert [r.name for r in kept] == [
            "IOL-Research",
            "IKUN",
            "Aya23",
            "Llama3-70B",
            "CUNI-Transformer",
            "IKUN-C",
            "CycleL",
        ]

    def test_filtered_rows_are_the_same_objects(self, tables):
        # values and verdicts must come from the full computation, not a rerun
        table = tables["en-de"]
        kept = visible_rows(table, include_closed=False)
        by_name = {r.name: r for r in table.rows}
        for row in kept:
            assert row is by_name[row.name]


class TestText:
    def test_structure(self, tables):
        out = render_table(tables["cs-uk"], _opts(TableFormat.TEXT))
        lines = out.splitlines()
        assert lines[0] == "cs-uk  (N=20)"
        assert lines[1].startswith("System Name")
        assert "AutoRank ↓" in lines[1]
        assert "MetricX ↓" in lines[1] and "CometKiwi ↑" in lines[1]
        assert set(lines[2]) == {"─"}
        # 20 rows plus one cutoff rule between positions 17 and 18
        body = lines[3:]
        assert len(body) == 21
        (rule_at,) = [i for i, ln in enumerate(body) if set(ln) == {"╌"}]
        assert body[rule_at - 1].lstrip("●○⊘ ").startswith("IKUN-C")
        assert body[rule_at + 1].lstrip("●○⊘ ").startswith("Phi-3-Medium")

    def test_checkmarks_match_selection(self, tables):
        for code, table in tables.items():
            out = render_table(table, _opts(TableFormat.TEXT))
            assert out.count("✓") == sum(r.selected for r in table.rows), code

    def test_category_markers_and_flags(self):
        out = render_table(_tiny_table(), _opts(TableFormat.TEXT))
        assert "● Alpha" in out
        assert "○ ⊘ Bravo & Co" in out
        assert "Charlie †" in out and not out.splitlines()[5].startswith("●")

    def test_wide_characters_count_two_columns(self):
        # each CJK character fills two terminal columns, so the rows still line up
        table = _tiny_table()
        wide = table.rows[1]._replace(name="翻訳システム")
        table = table._replace(rows=(table.rows[0], wide))
        assert render_table(table, _opts(TableFormat.TEXT)) == (
            "xx-yy  (N=2)\n"
            "System Name       AutoRank ↓  MetricX ↓  CometKiwi ↑  Human eval?\n"
            "─────────────────────────────────────────────────────────────────\n"
            "● Alpha                  1.0        1.0          0.5            ✓\n"
            "○ ⊘ 翻訳システム         1.5        1.0          0.5            ✓\n"
        )

    @pytest.mark.parametrize("name", ["Cafe\u0301", "Cafe\u20dd", "Ca\u200dfe"])
    def test_zero_width_characters_take_no_column(self, name):
        # a combining or enclosing mark, or a joiner, adds nothing to the
        # row's width: it renders exactly like the plain four letters
        table = _tiny_table()

        def rendered(system_name):
            row = table.rows[1]._replace(name=system_name)
            return render_table(table._replace(rows=(table.rows[0], row)), _opts(TableFormat.TEXT))

        assert rendered(name).replace(name, "Cafe") == rendered("Cafe")

    def test_no_cutoff_no_dashed_rule(self, tables):
        table = tables["cs-uk"]
        below = ReasonCode.EXCLUDED_BELOW_CUTOFF
        full = LeaderboardTable(
            pair=table.pair,
            rows=tuple(
                r._replace(reasons=tuple(c for c in r.reasons if c is not below))
                for r in table.rows
            ),
        )
        assert "╌" not in render_table(full, _opts(TableFormat.TEXT))

    def test_empty_table_renders_header_only(self):
        table = LeaderboardTable(pair=LanguagePair.from_code("xx-yy"), rows=())
        lines = render_table(table, _opts(TableFormat.TEXT)).splitlines()
        assert lines[0] == "xx-yy  (N=0)"
        assert len(lines) == 3  # title, header, rule

    def test_color_flag_controls_ansi(self, tables):
        plain = render_table(tables["cs-uk"], _opts(TableFormat.TEXT))
        assert "\x1b[" not in plain
        colored = render_table(tables["cs-uk"], _opts(TableFormat.TEXT, color=True))
        assert "\x1b[1m" in colored and "\x1b[32m" in colored
        # stripping the codes recovers the plain rendering
        stripped = (
            colored.replace("\x1b[1m", "")
            .replace("\x1b[2m", "")
            .replace("\x1b[32m", "")
            .replace("\x1b[0m", "")
        )
        assert stripped == plain

    @pytest.mark.parametrize("show_reasons", [False, True])
    def test_color_marks_only_the_human_eval_check(self, show_reasons):
        # a ✓ inside a system name used to turn green with the check
        table = _tiny_table()
        table = table._replace(rows=(table.rows[0]._replace(name="Good✓Sys"), *table.rows[1:]))
        options = _opts(TableFormat.TEXT, color=True, show_reasons=show_reasons)
        line = render_table(table, options).splitlines()[3]
        assert "● Good✓Sys " in line and line.count("\x1b[32m") == 1
        assert line.index("\x1b[32m✓\x1b[0m") > line.index("Good✓Sys")

    def test_show_reasons_appends_column(self, tables):
        out = render_table(tables["cs-uk"], _opts(TableFormat.TEXT, show_reasons=True))
        assert "Reasons" in out.splitlines()[1]
        assert "excluded_below_cutoff" in out
        assert "selected_constrained" in out


class TestMarkdown:
    @pytest.mark.parametrize("cutoff", [4, None])
    def test_rule_and_json_cutoff_agree_on_a_hand_built_table(self, cutoff):
        # a table holds no cutoff of its own: the rule and the JSON both read the rows
        table = _tiny_table()
        if cutoff is None:
            delta = table.rows[3]._replace(reasons=(ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS,))
            table = table._replace(rows=(*table.rows[:3], delta))
        lines = render_table(table, _opts(TableFormat.MARKDOWN)).splitlines()[2:]
        report = json.loads(render_table(table, _opts(TableFormat.JSON)))["pairs"][0]
        assert table.cutoff_position == report["cutoff_position"] == cutoff
        rules = [place for place, line in enumerate(lines, start=1) if "╌╌╌" in line]
        assert rules == [cutoff] * (cutoff is not None)
        rows = [line for line in lines if "╌╌╌" not in line]
        for row, line in zip(report["rows"], rows, strict=True):
            assert row["above_cutoff"] == (cutoff is None or row["position"] < cutoff)
            assert row["withdrawn"] == ("†" in line) == (row["system"] == "Charlie")
            assert row["selected"] == ("✓" in line)

    def test_structure(self, tables):
        out = render_table(tables["cs-uk"], _opts(TableFormat.MARKDOWN))
        lines = out.splitlines()
        assert lines[0].startswith("| System Name |")
        assert lines[1] == "| :--- | ---: | ---: | ---: | :---: |"
        assert all(ln.startswith("| ") and ln.endswith(" |") for ln in lines)
        assert len(lines) == 2 + 20 + 1  # header, alignment, rows, cutoff row
        cut_rows = [ln for ln in lines if "╌╌╌" in ln]
        assert len(cut_rows) == 1

    def test_cell_count_consistent(self, tables):
        out = render_table(tables["en-ja"], _opts(TableFormat.MARKDOWN, show_reasons=True))
        widths = {ln.count(" | ") for ln in out.splitlines()}
        assert len(widths) == 1


class TestLatex:
    def test_structure(self, tables):
        out = render_table(tables["cs-uk"], _opts(TableFormat.LATEX))
        lines = out.splitlines()
        assert lines[0] == "\\begin{tabular}{R{40mm}C{22mm}C{22mm}C{22mm}C{22mm}}"
        assert lines[1].startswith("\\bf System Name & \\bf AutoRank $\\downarrow$")
        assert lines[2] == "\\toprule"
        assert lines[-2] == "\\bottomrule"
        assert lines[-1] == "\\end{tabular}"
        body = lines[3:-2]
        assert len(body) == 21
        (rule_at,) = [i for i, ln in enumerate(body) if ln == "\\midrule"]
        assert "IKUN-C" in body[rule_at - 1]
        assert "Phi-3-Medium" in body[rule_at + 1]

    def test_checkmark_count_matches_selection(self, tables):
        table = tables["cs-uk"]
        out = render_table(table, _opts(TableFormat.LATEX))
        want = sum(r.selected for r in table.rows)
        assert out.count("\\colorbox{black}{\\textcolor{white}{\\ding{51}}}") == want == 12

    def test_track_shading_and_flags(self):
        out = render_table(_tiny_table(), _opts(TableFormat.LATEX))
        assert "\\closedtrack{Alpha &" in out
        assert "\\opentrack{\\nonsupporting{Bravo \\& Co}" in out
        assert "Charlie $\\dagger$" in out
        # constrained rows get no wrapper
        charlie_line = [ln for ln in out.splitlines() if "Charlie" in ln][0]
        assert not charlie_line.startswith("\\closedtrack") and not charlie_line.startswith(
            "\\opentrack"
        )

    def test_special_characters_escaped(self):
        out = render_table(_tiny_table(), _opts(TableFormat.LATEX))
        assert "Bravo \\& Co" in out

    def test_hostile_name_escaped_in_one_pass(self):
        table = _tiny_table()
        rows = (table.rows[0]._replace(name="c\\~^ & {x}_1"),) + table.rows[1:]
        out = render_table(table._replace(rows=rows), _opts(TableFormat.LATEX))
        assert out.splitlines()[3] == (
            "\\closedtrack{c\\textbackslash{}\\textasciitilde{}\\textasciicircum{} "
            "\\& \\{x\\}\\_1 & 1.0 & 1.0 & 0.5 & "
            "\\colorbox{black}{\\textcolor{white}{\\ding{51}}}} \\\\"
        )


class TestJson:
    def test_single_pair_payload(self, tables):
        out = render_table(tables["cs-uk"], _opts(TableFormat.JSON))
        payload = json.loads(out)
        assert set(payload) == {"config", "pairs"}
        (entry,) = payload["pairs"]
        assert entry["pair"] == "cs-uk"
        assert entry["n_systems"] == 20
        assert entry["cutoff_position"] == 18
        assert [r["position"] for r in entry["rows"]] == list(range(1, 21))
        row = entry["rows"][0]
        assert set(row) == {
            "system",
            "category",
            "withdrawn",
            "claimed_support",
            "scores",
            "autorank_exact",
            "autorank_display",
            "position",
            "above_cutoff",
            "selected",
            "reasons",
        }
        assert row["autorank_exact"] == "1.0"
        assert row["autorank_display"] == "1.0"
        # reals as strings, full precision retained
        assert isinstance(row["scores"][MX.id], str)
        assert float(row["scores"][MX.id]) == tables["cs-uk"].rows[0].raw_scores[0]

    def test_round_trips_byte_identical(self, tables):
        out = render_table(tables["en-de"], _opts(TableFormat.JSON))
        again = json.dumps(json.loads(out), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert again == out

    def test_exclude_closed_filters_rows(self, tables):
        out = render_table(tables["cs-uk"], _opts(TableFormat.JSON, include_closed=False))
        payload = json.loads(out)
        rows = payload["pairs"][0]["rows"]
        assert [r["system"] for r in rows] == [
            "IOL-Research",
            "IKUN",
            "Aya23",
            "Llama3-70B",
            "CUNI-Transformer",
            "IKUN-C",
            "CycleL",
        ]
        # verdicts identical to the full table on shared rows
        full = json.loads(render_table(tables["cs-uk"], _opts(TableFormat.JSON)))
        by_name = {r["system"]: r for r in full["pairs"][0]["rows"]}
        for row in rows:
            assert row == by_name[row["system"]]

    def test_empty_reasons_keep_the_stdlib_layout(self):
        # only a hand-built row has no reasons
        row = RankedRow(
            name="Solo",
            category=SystemCategory.OPEN,
            raw_scores=(1.0, 0.5),
            autorank_exact=1.0,
            autorank_display="1.0",
            position=1,
        )
        table = LeaderboardTable(pair=LanguagePair.from_code("xx-yy"), rows=(row,))
        out = render_report([table])
        again = json.dumps(json.loads(out), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert again == out
        assert '"reasons": [],' in out
        assert json.loads(out)["pairs"][0]["rows"][0]["scores"] == {
            "cometkiwi-da-xl": "0.5",
            "metricx-23-xl": "1.0",
        }

    def test_report_combines_sorted_pairs(self, tables):
        out = render_report([tables["en-de"], tables["cs-uk"]])
        payload = json.loads(out)
        assert [p["pair"] for p in payload["pairs"]] == ["cs-uk", "en-de"]
        # the rules every published table is ranked by
        assert payload["config"] == {
            "closed_fraction": "1/3",
            "cutoff_gap": "1.5",
            "display_decimals": 1,
            "open_fraction": "2/3",
            "scale_span": "n",
        }

    def test_empty_report_states_no_rules(self):
        # no table was ranked, so no rule was applied
        assert json.loads(render_report([])) == {"config": None, "pairs": []}

    def test_report_chunks_are_the_head_each_pairs_batches_and_the_tail(self, tables):
        pairs = [tables["cs-uk"], tables["en-de"]]
        chunks = list(report_chunks(pairs))
        assert "".join(chunks) == render_report([tables["en-de"], tables["cs-uk"]])
        head, *batches, tail = chunks
        assert head.startswith('{\n  "config": {') and head.endswith('"pairs": [')
        assert tail == "\n  ]\n}\n"
        # a one-pair report is the head, the pair's entry and the tail
        entries = [render_report([table])[len(head) : -len(tail)] for table in pairs]
        entries[1] = "," + entries[1]
        for table, entry in zip(pairs, entries):
            # more than one batch, so the entry is cut between rows
            sizes = [len(table.rows[i : i + _BATCH]) for i in range(0, len(table.rows), _BATCH)]
            assert len(sizes) > 1
            taken, batches = batches[: len(sizes)], batches[len(sizes) :]
            assert "".join(taken) == entry
            assert taken[0].startswith(entry[: entry.index('"rows": [') + 9])
            assert all(batch.startswith(",\n        {\n") for batch in taken[1:])
            assert [batch.count('"system": ') for batch in taken] == sizes
        assert batches == []
        assert list(report_chunks([])) == [render_report([])]

    def test_no_chunk_holds_more_than_one_batch_of_a_wide_table(self):
        # 400 rows: one pair's entry is about 200 KB, a batch of rows 8 KB
        base = _tiny_table()
        rows = tuple(
            base.rows[i % 4]._replace(name=f"S{i:03d}", position=i + 1) for i in range(400)
        )
        table = base._replace(rows=rows)
        chunks = list(report_chunks([table]))
        report = render_report([table])
        assert "".join(chunks) == report
        # the longest row's text, and the entry's head and close around no row
        longest = max(len(render_report([table._replace(rows=(row,))])) for row in rows)
        empty = render_report([table._replace(rows=())])
        head = len(empty) - len(chunks[0]) - len(chunks[-1])
        row = longest - len(empty)
        assert max(map(len, chunks)) <= head + _BATCH * row < len(report) / 20

    def test_report_chunks_list_the_pairs_in_the_order_given(self, tables):
        pairs = [tables["en-de"], tables["cs-uk"]]
        report = json.loads("".join(report_chunks(pairs)))
        assert [p["pair"] for p in report["pairs"]] == ["en-de", "cs-uk"]
        # each table is taken from the iterator only once its turn comes
        taken = []

        def lazily():
            for table in pairs:
                taken.append(table.pair.code)
                yield table

        chunks = report_chunks(lazily())
        assert taken == []
        next(chunks), next(chunks)
        assert taken == ["en-de"]
        assert "".join(chunks).endswith("\n  ]\n}\n") and taken == ["en-de", "cs-uk"]


@pytest.mark.parametrize("fmt", list(TableFormat))
@pytest.mark.parametrize("scores", [(1.0,), (1.0, 0.5, 0.25)], ids=["short", "long"])
def test_a_row_without_one_score_per_metric_is_not_rendered(fmt, scores):
    # a hand-built row's scores are positional: no format may shift them
    # into the wrong column or drop one
    table = _tiny_table()
    table = table._replace(rows=(table.rows[0]._replace(raw_scores=scores),))
    with pytest.raises(ValueError, match="^xx-yy has a row without one score per metric$"):
        render_table(table, _opts(fmt))


class TestSharedRowAgreement:
    @pytest.mark.parametrize("fmt", list(TableFormat))
    def test_full_and_filtered_agree_on_shared_rows(self, tables, fmt):
        for table in tables.values():
            full = render_table(table, _opts(fmt))
            part = render_table(table, _opts(fmt, include_closed=False))
            open_names = [
                r.name for r in table.rows if r.category is not SystemCategory.CLOSED
            ]
            if fmt is TableFormat.JSON:
                full_rows = {
                    r["system"]: r for r in json.loads(full)["pairs"][0]["rows"]
                }
                for row in json.loads(part)["pairs"][0]["rows"]:
                    assert row == full_rows[row["system"]]
            else:
                # every shared system's row matches modulo column padding
                for name in open_names:
                    pattern = re.compile(rf"(?<![\w-]){re.escape(name)}(?![\w-])")
                    full_row = next(ln for ln in full.splitlines() if pattern.search(ln))
                    part_row = next(ln for ln in part.splitlines() if pattern.search(ln))
                    assert part_row.replace(" ", "") == full_row.replace(" ", ""), (
                        table.pair.code,
                        name,
                        fmt,
                    )


def test_plain_look_glyphs_take_one_column_each():
    # text measures only the header and name cells by terminal columns and
    # every other cell by its length, so each glyph the plain look adds,
    # and each reason code, must be as wide as it is long
    columns = _Columns()
    glyphs = [
        *_PLAIN.markers.values(),
        _PLAIN.unsupported.format(""),
        _PLAIN.dagger,
        _PLAIN.check,
        *_PLAIN.arrows.values(),
        *(code.value for code in ReasonCode),
    ]
    assert [columns(glyph) for glyph in glyphs] == [len(glyph) for glyph in glyphs]
    # an ASCII text, ESC and the other control characters included, is
    # measured by its length: that must be its characters' own lookups
    texts = ["".join(map(chr, range(128))), "\x1b[1mAlpha\x1b[0m", "\t\r\n\x00\x7f", ""]
    assert [columns(text) for text in texts] == [len(text) for text in texts]
    assert [len(text) for text in texts] == [sum(map(columns.__getitem__, text)) for text in texts]


def test_file_extensions():
    assert file_extension(TableFormat.TEXT) == "txt"
    assert file_extension(TableFormat.MARKDOWN) == "md"
    assert file_extension(TableFormat.LATEX) == "tex"
    assert file_extension(TableFormat.JSON) == "json"


# C aggregates to exactly (3.7 + 1) / 2 = 2.35, a display tie; its float
# is 2.3499999999999996, which a float rounding shows as 2.3
_HALF_TENTH_SCORES = """pair\tsystem\tmetric\tscore
cs-uk\tA\tmetricx-23-xl\t0.3
cs-uk\tA\tcometkiwi-da-xl\t0.2
cs-uk\tB\tmetricx-23-xl\t1.3
cs-uk\tB\tcometkiwi-da-xl\t1.0
cs-uk\tC\tmetricx-23-xl\t1.2
cs-uk\tC\tcometkiwi-da-xl\t1.7
"""


@pytest.mark.parametrize("fmt", list(TableFormat), ids=lambda fmt: fmt.value)
def test_exact_half_tenth_rounds_up_in_every_format(fmt):
    registry = parse_registry(
        "system\tcategory\twithdrawn\tunsupported_pairs\n"
        + "".join(f"{name}\topen\t0\t\n" for name in "ABC")
    )
    scores = parse_scores(_HALF_TENTH_SCORES, registry)
    table = rank_pair(registry, scores, LanguagePair.from_code("cs-uk"))
    row = table.rows[0]
    assert (row.name, row.autorank_exact < 2.35, row.autorank_display) == ("C", True, "2.4")
    out = render_table(table, _opts(fmt))
    if fmt is TableFormat.JSON:
        assert json.loads(out)["pairs"][0]["rows"][0]["autorank_display"] == "2.4"
    else:
        line = next(line for line in out.splitlines() if "C " in line and "1.2" in line)
        assert re.search(r"(^|[ |&])2\.4( |$)", line), line
        assert "2.3" not in line

