from __future__ import annotations

import copy
import time
from decimal import Decimal

import pytest

from autorank import (
    DEFAULT_METRICS,
    LanguagePair,
    LeaderboardTable,
    RankedRow,
    ReasonCode,
    SystemCategory,
    SystemEntry,
    compare_pair,
    parse_allow_list,
    validate_golden_pair,
)

TOL = Decimal("0.05")


def _row(name, exact, pos):
    return RankedRow(
        system=SystemEntry(name=name, category=SystemCategory.OPEN),
        raw_scores={m.id: 0.0 for m in DEFAULT_METRICS},
        normalized={m.id: exact for m in DEFAULT_METRICS},
        autorank_exact=exact,
        position=pos,
        reasons=(ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,),
    )


def _table(rows):
    return LeaderboardTable(
        pair=LanguagePair.from_code("xx-yy"),
        metrics=DEFAULT_METRICS,
        rows=tuple(rows),
        cutoff_position=None,
    )


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


class TestComparePair:
    def test_clean_pair_passes(self, tables, goldens):
        result = compare_pair(tables["en-is"], goldens["en-is"], TOL)
        assert result.ok
        assert result.allow_used == []

    def test_autorank_deviation_beyond_band_is_named(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-is"])
        victim = golden["rows"][2]
        victim["autorank_exact"] = str(Decimal(victim["autorank_exact"]) + Decimal("0.2"))
        result = compare_pair(tables["en-is"], golden, TOL)
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

        assert compare_pair(two_row_table, golden("1.1"), TOL).ok
        fine = compare_pair(two_row_table, golden("1.10"), TOL)
        assert any("autorank" in m for m in fine.mismatches)

    def test_order_inversion_detected_when_bands_disjoint(self, two_row_table):
        from dataclasses import replace

        from autorank import LeaderboardTable

        # computed table puts B (aggregate 2.0) ahead of A (1.0); the
        # golden separates them by far more than the bands allow
        a, b = two_row_table.rows
        contradicted = LeaderboardTable(
            pair=two_row_table.pair,
            metrics=two_row_table.metrics,
            rows=(replace(a, position=2), replace(b, position=1)),
            cutoff_position=None,
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
        result = compare_pair(contradicted, golden, TOL)
        assert any("order inversion" in m and "A" in m for m in result.mismatches)

    def test_order_inversions_listed_in_golden_order(self):
        # golden order is not sorted by value.  With tolerance 0.05 and
        # one-decimal text every band is ±0.1, so A's upper edge (2.1)
        # equals D's lower edge (2.1): touching bands bind no order.
        golden = _golden(
            [("A", "2.0", 3), ("B", "1.0", 1), ("C", "3.0", 5), ("D", "2.2", 4), ("E", "1.5", 2)]
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
        result = compare_pair(computed, golden, TOL)
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
        computed = _table(rows)
        start = time.perf_counter()
        result = compare_pair(computed, golden, TOL)
        elapsed = time.perf_counter() - start
        assert result.ok
        assert elapsed < 1.0

    def test_position_drift_within_band_is_a_note(self, tables, goldens):
        # en-de carries a published near-tie the engine orders differently
        result = compare_pair(tables["en-de"], goldens["en-de"], TOL)
        assert result.ok
        assert any("position" in n and "rounding" in n for n in result.notes)

    def test_cutoff_mismatch_is_fatal(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-is"])
        golden["cutoff_position"] = 3
        result = compare_pair(tables["en-is"], golden, TOL)
        assert any("cutoff_position" in m for m in result.mismatches)

    def test_membership_checked_both_ways(self, tables, goldens):
        golden = copy.deepcopy(goldens["en-is"])
        renamed = golden["rows"][0]["system"]
        golden["rows"][0]["system"] = "Imposter"
        result = compare_pair(tables["en-is"], golden, TOL)
        assert any("Imposter" in m and "missing from computed" in m for m in result.mismatches)
        assert any(renamed in m and "absent from golden" in m for m in result.mismatches)

    def test_selection_mismatch_without_allowance(self, tables, goldens):
        result = compare_pair(tables["cs-uk"], goldens["cs-uk"], TOL)
        assert result.mismatches == [
            "cs-uk: Llama3-70B: selected: expected False, got True"
        ]

    def test_allow_list_converts_mismatch_to_note(self, tables, goldens):
        allow = {("cs-uk", "Llama3-70B")}
        result = compare_pair(tables["cs-uk"], goldens["cs-uk"], TOL, allow)
        assert result.ok
        assert result.allow_used == [("cs-uk", "Llama3-70B")]
        assert any("allow-listed" in n for n in result.notes)

    def test_allowance_for_other_pair_does_not_leak(self, tables, goldens):
        allow = {("en-cs", "Llama3-70B")}
        result = compare_pair(tables["cs-uk"], goldens["cs-uk"], TOL, allow)
        assert not result.ok
        assert result.allow_used == []

    def test_tie_swap_preserving_counts_is_a_note(self, tables, goldens):
        # en-de: the engine swaps which of two closed systems sharing a
        # displayed aggregate is selected; counts per category survive
        result = compare_pair(tables["en-de"], goldens["en-de"], TOL)
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
        result = compare_pair(tables["en-de"], golden, TOL)
        assert any("selected" in m for m in result.mismatches)
