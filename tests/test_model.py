from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from autorank import (
    LanguagePair,
    RankedRow,
    ReasonCode,
    SystemCategory,
    SystemEntry,
    rank_pair,
)
from autorank.model import _RULES, METRICS, display_str
from autorank.selection import category_limits

from _tsv import matrix_of, registry_of


def test_language_pair_code_round_trip():
    pair = LanguagePair.from_code("cs-uk")
    assert pair.source == "cs" and pair.target == "uk"
    assert pair.code == "cs-uk" == str(pair)


@pytest.mark.parametrize(
    "bad", ["", "csuk", "cs-uk-en", "CS-UK", "c-u", "cs-", "en-en", "e1-de", "cs-uk\n"]
)
def test_language_pair_rejects_malformed_codes(bad):
    with pytest.raises(ValueError):
        LanguagePair.from_code(bad)


def test_language_pairs_sort_by_code():
    codes = ["ja-zh", "cs-uk", "en-zh", "en-cs"]
    ordered = sorted(LanguagePair.from_code(c) for c in codes)
    assert [p.code for p in ordered] == ["cs-uk", "en-cs", "en-zh", "ja-zh"]


def test_system_entry_pair_scoped_flags():
    encs = LanguagePair.from_code("en-cs")
    csuk = LanguagePair.from_code("cs-uk")
    entry = SystemEntry(
        name="CUNI-Transformer",
        category=SystemCategory.CONSTRAINED,
        withdrawn_pairs=frozenset({encs}),
        unsupported_pairs=frozenset({csuk}),
    )
    assert entry.is_withdrawn(encs) and not entry.is_withdrawn(csuk)
    assert entry.claims_support(encs) and not entry.claims_support(csuk)
    everywhere = SystemEntry(name="X", category=SystemCategory.CLOSED, withdrawn=True)
    assert everywhere.is_withdrawn(encs) and everywhere.is_withdrawn(csuk)


def test_system_entry_rejects_bad_names():
    with pytest.raises(ValueError):
        SystemEntry(name="", category=SystemCategory.OPEN)
    with pytest.raises(ValueError):
        SystemEntry(name="a\tb", category=SystemCategory.OPEN)


@pytest.mark.parametrize(
    "char",
    ["\x1b", "\x00", "\r", "\x7f", "\x85", "\x9b", "\u2028", "\u2029"]
    + [chr(c) for c in range(0x202A, 0x202F)]
    + [chr(c) for c in range(0x2066, 0x206A)],
)
def test_system_entry_rejects_terminal_controls(char):
    name = f"Evil{char}[31mSystem"
    with pytest.raises(ValueError) as info:
        SystemEntry(name=name, category=SystemCategory.OPEN)
    assert str(info.value) == (
        f"system name may not contain control or bidi character U+{ord(char):04X}: {name!r}"
    )


def test_system_entry_keeps_marks_and_joiners():
    for name in ("Cafe\u0301", "a\u200db", "翻訳システム", "x\u20dd"):
        assert SystemEntry(name=name, category=SystemCategory.OPEN).name == name


def test_records_are_read_only():
    pair = LanguagePair.from_code("cs-uk")
    entry = SystemEntry(name="A", category=SystemCategory.OPEN)
    for record, attr in ((pair, "source"), (entry, "name")):
        with pytest.raises(AttributeError):
            setattr(record, attr, "x")
        with pytest.raises(AttributeError):
            record.extra = 1  # type: ignore[attr-defined]
    assert hash(pair) == hash(LanguagePair("cs", "uk"))
    with pytest.raises(ValueError, match="malformed language pair code"):
        LanguagePair("EN", "de")


def test_score_record_rejects_non_finite():
    # parse_scores never yields an infinite score; hand-built scores are checked by rank_pair
    pair = LanguagePair.from_code("en-de")
    registry = registry_of(SystemEntry(name=name, category=SystemCategory.OPEN) for name in "ST")
    mx, ck = (metric.id for metric in METRICS)
    for bad in (float("inf"), float("-inf")):
        scores = {pair: matrix_of({"S": {mx: 1.0, ck: 0.5}, "T": {mx: 2.0, ck: bad}})}
        with pytest.raises(ValueError) as info:
            rank_pair(registry, scores, pair)
        assert str(info.value) == f"en-de score for T/{ck} is not finite: {bad!r}"
    # a NaN slot is a hole
    scores = {pair: matrix_of({"S": {mx: 1.0, ck: 0.5}, "T": {mx: 2.0, ck: float("nan")}})}
    with pytest.raises(ValueError) as info:
        rank_pair(registry, scores, pair)
    assert str(info.value) == f"en-de is not rankable, missing scores: T/{ck}"


_GOLDEN = Path(__file__).resolve().parents[1] / "data" / "wmt24" / "golden"


@pytest.mark.parametrize("pair", sorted(path.stem for path in _GOLDEN.glob("*.json")))
def test_rules_are_the_config_of_every_shipped_table(pair):
    report = json.loads((_GOLDEN / f"{pair}.json").read_text(encoding="utf-8"))
    config = report["config"]
    assert config == _RULES and [type(v) for v in config.values()] == [
        type(_RULES[key]) for key in config
    ]
    # the depths the engine applies are the fractions the table states
    n = report["pairs"][0]["n_systems"]
    closed, open_ = Fraction(config["closed_fraction"]), Fraction(config["open_fraction"])
    assert category_limits(n) == (math.ceil(n * closed), math.floor(n * open_))
    assert Fraction(config["cutoff_gap"]) == Fraction(3, 2)


DISPLAY_CASES = [
    (1.85, "1.9"),  # ties away from zero, not banker's
    (2.25, "2.3"),
    (1.84999, "1.8"),
    (21.0, "21.0"),
    (1.9513, "2.0"),
    (-0.25, "-0.3"),
]


# ids read value-decimals-expected; every aggregate displays with one decimal
@pytest.mark.parametrize(
    "value,expected", DISPLAY_CASES, ids=[f"{v}-1-{e}" for v, e in DISPLAY_CASES]
)
def test_display_rounding_half_away_from_zero(value, expected):
    assert display_str(value) == expected


def test_reason_codes_partition_into_selected_and_excluded():
    selected = {code for code in ReasonCode if code.is_selected}
    assert selected == {
        ReasonCode.SELECTED_CONSTRAINED,
        ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,
        ReasonCode.SELECTED_CLOSED_TOP_THIRD,
    }
    assert len(ReasonCode) == 7


@pytest.mark.parametrize(
    "reasons,selected,above_cutoff",
    [
        ((), False, True),
        ((ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,), True, True),
        ((ReasonCode.EXCLUDED_CLOSED_BELOW_THIRD,), False, True),
        ((ReasonCode.EXCLUDED_WITHDRAWN, ReasonCode.EXCLUDED_BELOW_CUTOFF), False, False),
    ],
)
def test_ranked_row_verdict_is_read_from_reasons(reasons, selected, above_cutoff):
    row = RankedRow(
        name="A",
        category=SystemCategory.OPEN,
        raw_scores=(0.5, 0.7),
        autorank_exact=1.0,
        autorank_display="1.0",
        reasons=reasons,
    )
    assert (row.selected, row.above_cutoff) == (selected, above_cutoff)
    with pytest.raises(AttributeError):
        row.selected = not selected  # type: ignore[misc]
    # a copy re-reads the verdict from its reasons
    copy = row._replace(reasons=(ReasonCode.EXCLUDED_BELOW_CUTOFF,))
    assert (copy.selected, copy.above_cutoff, copy.name) == (False, False, "A")
    # every field is immutable, raw scores included, so a row hashes
    assert len({row, row._replace(), copy}) == 2
