from __future__ import annotations

import copy
import json
import time
from decimal import Decimal

import pytest

from autorank import (
    LanguagePair,
    LeaderboardTable,
    RankedRow,
    ReasonCode,
    SystemCategory,
    compare_pair,
    parse_allow_list,
    parse_golden,
)
from autorank.golden import GoldenRow, validate_golden_pair
from autorank.model import _RULES, display_str

TOL = Decimal("0.05")


def _row(name, exact, pos):
    return RankedRow(
        name=name,
        category=SystemCategory.OPEN,
        raw_scores=(0.0, 0.0),
        autorank_exact=exact,
        autorank_display=display_str(exact),
        position=pos,
        reasons=(ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,),
    )


def _table(rows):
    return LeaderboardTable(pair=LanguagePair.from_code("xx-yy"), rows=tuple(rows))


def _golden(rows):
    """A golden entry for xx-yy from (system, autorank_exact text, position) triples."""
    return {
        "pair": "xx-yy",
        "cutoff_position": None,
        "rows": [
            {
                "system": name,
                "category": "open",
                "autorank_exact": text,
                "position": position,
                "selected": True,
            }
            for name, text, position in rows
        ],
    }


@pytest.fixture()
def two_row_table():
    return _table([_row("A", 1.0, 1), _row("B", 2.0, 2)])


class TestParseAllowList:
    def test_entries_comments_and_blanks(self):
        text = "# regression exceptions\n\ncs-uk/Llama3-70B\nen-de/ONLINE-W  \n"
        assert parse_allow_list(text) == {("cs-uk", "Llama3-70B"), ("en-de", "ONLINE-W")}

    def test_system_names_may_contain_slashes(self):
        assert parse_allow_list("en-de/team/variant") == {("en-de", "team/variant")}

    def test_rejects_bare_token(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_allow_list("cs-uk/ok\nnot-an-entry")

    def test_empty(self):
        assert parse_allow_list("") == set()

    @pytest.mark.parametrize(
        "line,error",
        [
            ("cs_uk/X", "malformed language pair code: 'cs_uk'"),
            ("cs-cs/X", "source and target must differ: 'cs-cs'"),
            ("/X", "malformed language pair code: ''"),
            ("cs-uk/", "expected pair/system, got 'cs-uk/'"),
            # the registry's name rule: verify wrote these raw in its unmatched-entry note
            ("cs-uk/A\x1b[2J", "system name may not contain control or bidi character "
             "U+001B: 'A\\x1b[2J'"),
            ("cs-uk/A\u202eB", "system name may not contain control or bidi character "
             "U+202E: 'A\\u202eB'"),
        ],
        ids=["underscore", "same-language", "no-pair", "no-system", "esc-name", "rlo-name"],
    )
    def test_rejects_a_pair_that_is_no_pair_code_or_an_empty_system(self, line, error):
        # each used to be read as an entry that matches no row
        with pytest.raises(ValueError) as info:
            parse_allow_list(f"cs-uk/ok\n{line}\n")
        assert str(info.value) == f"allow-list line 2: {error}"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_line_ending_reads_the_same_entries(self, newline):
        text = "# regression exceptions\n\ncs-uk/Llama3-70B\nen-de/ONLINE-W  \n"
        assert parse_allow_list(text.replace("\n", newline)) == parse_allow_list(text)
        with pytest.raises(ValueError, match="line 2"):
            parse_allow_list(f"cs-uk/ok{newline}not-an-entry")


class TestValidateGoldenPair:
    def test_accepts_fixture_goldens(self, goldens):
        for entry in goldens.values():
            validate_golden_pair(entry)

    def test_rejects_missing_top_level_field(self):
        with pytest.raises(ValueError, match="rows"):
            validate_golden_pair({"pair": "cs-uk"})

    def test_rejects_missing_row_field(self, goldens):
        entry = copy.deepcopy(goldens["cs-uk"])
        del entry["rows"][0]["selected"]
        with pytest.raises(ValueError, match="selected"):
            validate_golden_pair(entry)

    @pytest.mark.parametrize("char", ["\x1b", "\n", "\u202e"])
    def test_rejects_a_system_name_the_registry_rejects(self, goldens, char):
        # compare_pair used to write such a name raw when no row matched it
        entry = copy.deepcopy(goldens["cs-uk"])
        name = entry["rows"][1]["system"] = f"Evil{char}[2Jname"
        with pytest.raises(ValueError) as info:
            validate_golden_pair(entry)
        assert str(info.value) == (
            f"system name may not contain control or bidi character U+{ord(char):04X}: {name!r}"
        )

    @pytest.mark.parametrize("value", ["1.0", 1e-05, -0.0, 3, ".25", "2.5E-1"])
    def test_reads_a_value_in_the_syntax_of_a_score(self, value):
        (row,) = validate_golden_pair(_golden([("A", value, 1)]))["rows"]
        assert row.text == str(value) and row.value == Decimal(str(value))


class TestParseGolden:
    def test_parses_config_pair_cutoff_and_rows(self, data_dir):
        text = (data_dir / "golden" / "cs-uk.json").read_text(encoding="utf-8")
        (entry,) = parse_golden(text)
        assert entry["pair"] == LanguagePair("cs", "uk")
        assert entry["cutoff_position"] == 18
        assert len(entry["rows"]) == 20
        assert entry["rows"][0] == GoldenRow(
            "Unbabel-Tower70B", "closed", True, "1.0", Decimal("1.0"), Decimal("0.05")
        )

    @pytest.mark.parametrize(
        "key,value",
        [("cutoff_gap", value) for value in ("1.0", "1.50", 1.5, "3/2", None)]
        + [("closed_fraction", value) for value in ("1/2", "2/6", "0.333", 1)]
        + [("open_fraction", value) for value in ("3/4", "4/6", None)]
        + [("display_decimals", value) for value in (1.9, 1.0, True, 2, 0, "1", None)]
        + [("scale_span", value) for value in ("n-1", "N", " n", 1, None, ["n"])],
    )
    def test_config_may_only_state_the_rules(self, key, value):
        # each key may be left out, but not set to anything the report does not write
        rule = _RULES[key]
        assert parse_golden(json.dumps({"config": {key: rule}, "pairs": []})) == []
        with pytest.raises(ValueError) as info:
            parse_golden(json.dumps({"config": {key: value}, "pairs": []}))
        assert str(info.value) == f"malformed golden report: {key} must be {rule!r}, got {value!r}"

    @pytest.mark.parametrize("config", ["abc", [], ["cutoff_gap"], 1.5, True])
    def test_config_that_is_not_an_object_is_rejected(self, config):
        # absent and null mean the rules; anything else must be an object
        with pytest.raises(ValueError) as info:
            parse_golden(json.dumps({"config": config, "pairs": []}))
        assert str(info.value) == "malformed golden report: config is not an object"

    def test_json_fault_is_the_parser_message_alone(self):
        with pytest.raises(ValueError) as info:
            parse_golden("{")
        assert str(info.value) == (
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        )

    def test_shape_fault_is_a_malformed_report(self):
        with pytest.raises(ValueError) as info:
            parse_golden("[]")
        assert str(info.value) == "malformed golden report: top level is not an object"

    def test_leaves_the_raw_entry_as_it_was(self, goldens):
        entry = copy.deepcopy(goldens["en-de"])
        validate_golden_pair(entry)
        assert entry == goldens["en-de"]


class TestComparePair:
    def test_clean_pair_passes(self, tables, goldens):
        result = compare_pair(tables["en-is"], validate_golden_pair(goldens["en-is"]), TOL)
        assert result.ok
        assert not any(note.endswith("allow-listed") for note in result.notes)

    def test_autorank_deviation_beyond_band_is_named(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-is"])
        victim = golden["rows"][2]
        victim["autorank_exact"] = str(Decimal(victim["autorank_exact"]) + Decimal("0.2"))
        result = compare_pair(tables["en-is"], validate_golden_pair(golden), TOL)
        assert not result.ok
        (message,) = [m for m in result.mismatches if "autorank" in m]
        assert victim["system"] in message
        assert "expected" in message and "got" in message

    def test_band_is_tolerance_plus_half_ulp(self, two_row_table):
        # computed aggregates are exactly 1.0 and 2.0.  The same golden
        # value written at two precisions gets two different bands:
        # "1.1" (half-ulp 0.05, band 0.1) absorbs the 0.1 drift while
        # "1.10" (half-ulp 0.005, band 0.055) does not.
        def golden(text: str) -> dict:
            return {
                "pair": "xx-yy",
                "cutoff_position": None,
                "rows": [
                    {
                        "system": "A",
                        "category": "open",
                        "autorank_exact": text,
                        "position": 1,
                        "selected": True,
                    },
                    {
                        "system": "B",
                        "category": "open",
                        "autorank_exact": "2.0",
                        "position": 2,
                        "selected": True,
                    },
                ],
            }

        assert compare_pair(two_row_table, validate_golden_pair(golden("1.1")), TOL).ok
        fine = compare_pair(two_row_table, validate_golden_pair(golden("1.10")), TOL)
        assert any("autorank" in m for m in fine.mismatches)

    def test_order_inversion_detected_when_bands_disjoint(self, two_row_table):
        from autorank import LeaderboardTable

        # computed table puts B (aggregate 2.0) ahead of A (1.0); the
        # golden separates them by far more than the bands allow
        a, b = two_row_table.rows
        contradicted = LeaderboardTable(
            pair=two_row_table.pair,
            rows=(a._replace(position=2), b._replace(position=1)),
        )
        golden = {
            "pair": "xx-yy",
            "cutoff_position": None,
            "rows": [
                {
                    "system": "A",
                    "category": "open",
                    "autorank_exact": "1.0",
                    "position": 1,
                    "selected": True,
                },
                {
                    "system": "B",
                    "category": "open",
                    "autorank_exact": "2.0",
                    "position": 2,
                    "selected": True,
                },
            ],
        }
        result = compare_pair(contradicted, validate_golden_pair(golden), TOL)
        assert any("order inversion" in m and "A" in m for m in result.mismatches)

    def test_order_inversions_listed_in_golden_order(self):
        # golden order is not sorted by value.  With tolerance 0.05 and
        # one-decimal text every band is ±0.1, so A's upper edge (2.1)
        # equals D's lower edge (2.1): touching bands bind no order.
        golden = _golden(
            [("A", "2.0", 1), ("B", "1.0", 2), ("C", "3.0", 3), ("D", "2.2", 4), ("E", "1.5", 5)]
        )
        computed = _table(
            [
                _row("C", 3.0, 1),
                _row("D", 2.2, 2),
                _row("E", 1.5, 3),
                _row("A", 2.0, 4),
                _row("B", 1.0, 5),
            ]
        )
        result = compare_pair(computed, validate_golden_pair(golden), TOL)
        assert result.mismatches == [
            "xx-yy: order inversion: A ranked after C",
            "xx-yy: order inversion: B ranked after C",
            "xx-yy: order inversion: B ranked after D",
            "xx-yy: order inversion: B ranked after E",
        ]

    def test_order_check_is_not_quadratic(self):
        # 3,000 rows hold about 4.5M row pairs.  A pairwise band scan
        # takes about 2 s for them on a 2-vCPU VM; the sweep takes tens
        # of milliseconds.
        rows = [_row(f"S{i:04d}", i / 10, i) for i in range(1, 3001)]
        golden = _golden([(row.name, repr(row.autorank_exact), row.position) for row in rows])
        parsed = validate_golden_pair(golden)
        computed = _table(rows)
        start = time.perf_counter()
        result = compare_pair(computed, parsed, TOL)
        elapsed = time.perf_counter() - start
        assert result.ok
        assert elapsed < 1.0

    def test_position_drift_within_band_is_a_note(self, tables, goldens):
        # en-de carries a published near-tie the engine orders differently
        result = compare_pair(tables["en-de"], validate_golden_pair(goldens["en-de"]), TOL)
        assert result.ok
        assert any("position" in n and "rounding" in n for n in result.notes)

    def test_cutoff_mismatch_is_fatal(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-is"])
        golden["cutoff_position"] = 3
        for place, row in enumerate(golden["rows"], start=1):
            row["above_cutoff"] = place < 3  # the rows agree with the golden's cutoff
        result = compare_pair(tables["en-is"], validate_golden_pair(golden), TOL)
        assert any("cutoff_position" in m for m in result.mismatches)

    def test_membership_checked_both_ways(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-is"])
        renamed = golden["rows"][0]["system"]
        golden["rows"][0]["system"] = "Imposter"
        result = compare_pair(tables["en-is"], validate_golden_pair(golden), TOL)
        assert any("Imposter" in m and "missing from computed" in m for m in result.mismatches)
        assert any(renamed in m and "absent from golden" in m for m in result.mismatches)

    def test_selection_mismatch_without_allowance(self, tables, goldens):
        result = compare_pair(tables["cs-uk"], validate_golden_pair(goldens["cs-uk"]), TOL)
        assert result.mismatches == [
            "cs-uk: Llama3-70B: selected: expected False, got True"
        ]

    def test_allow_list_converts_mismatch_to_note(self, tables, goldens):
        allow = {("cs-uk", "Llama3-70B")}
        result = compare_pair(tables["cs-uk"], validate_golden_pair(goldens["cs-uk"]), TOL, allow)
        assert result.ok
        assert [n for n in result.notes if n.endswith("allow-listed")] == [
            "cs-uk: Llama3-70B: selection differs (expected False, got True), allow-listed"
        ]

    def test_allowance_for_other_pair_does_not_leak(self, tables, goldens):
        allow = {("en-cs", "Llama3-70B")}
        result = compare_pair(tables["cs-uk"], validate_golden_pair(goldens["cs-uk"]), TOL, allow)
        assert not result.ok
        assert not any(note.endswith("allow-listed") for note in result.notes)

    def test_tie_swap_preserving_counts_is_a_note(self, tables, goldens):
        # en-de: the engine swaps which of two closed systems sharing a
        # displayed aggregate is selected; counts per category survive
        result = compare_pair(tables["en-de"], validate_golden_pair(goldens["en-de"]), TOL)
        assert result.ok
        swaps = [n for n in result.notes if "selection swapped within display tie" in n]
        assert {n.split(":")[1].strip() for n in swaps} == {"Gemini-1.5-Pro", "ONLINE-W"}

    def test_tie_swap_across_categories_not_forgiven(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-de"])
        # make the golden demand a selected count the computed table cannot
        # honour inside the tie group
        for row in golden["rows"]:
            if row["system"] == "Gemini-1.5-Pro":
                row["category"] = "open"
        result = compare_pair(tables["en-de"], validate_golden_pair(golden), TOL)
        assert any("selected" in m for m in result.mismatches)
