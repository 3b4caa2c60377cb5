from __future__ import annotations

import pytest

from autorank import (
    DEFAULT_METRICS,
    LanguagePair,
    ParseError,
    SystemCategory,
    SystemEntry,
    parse_manifest,
    parse_registry,
    parse_scores,
)
from autorank.ingest import check_completeness

from _tsv import serialize_manifest, serialize_registry, serialize_scores

REGISTRY = (
    "system\tcategory\twithdrawn\tunsupported_pairs\n"
    "Unbabel-Tower70B\tclosed\t0\t\n"
    "BJFU-LPT\tclosed\t1\t\n"
    "IKUN\topen\t0\t\n"
    "CUNI-Transformer\tconstrained\ten-cs\t\n"
    "GPT-4\tclosed\t0\tcs-uk,en-cs\n"
)

SCORES = (
    "pair\tsystem\tmetric\tscore\n"
    "cs-uk\tIKUN\tmetricx-23-xl\t1.6\n"
    "cs-uk\tIKUN\tcometkiwi-da-xl\t0.664\n"
    "cs-uk\tGPT-4\tmetricx-23-xl\t1.4\n"
    "cs-uk\tGPT-4\tcometkiwi-da-xl\t0.677\n"
)
CSUK = LanguagePair.from_code("cs-uk")


def _registry():
    return parse_registry(REGISTRY)


def test_parse_registry_categories_and_flags():
    entries = {e.name: e for e in _registry()}
    assert entries["Unbabel-Tower70B"].category is SystemCategory.CLOSED
    assert not entries["Unbabel-Tower70B"].withdrawn

    # the blanket withdrawal form
    assert entries["BJFU-LPT"].withdrawn
    assert entries["BJFU-LPT"].is_withdrawn(LanguagePair.from_code("cs-uk"))

    # the pair-scoped withdrawal form
    cuni = entries["CUNI-Transformer"]
    assert not cuni.withdrawn
    assert cuni.is_withdrawn(LanguagePair.from_code("en-cs"))
    assert not cuni.is_withdrawn(LanguagePair.from_code("cs-uk"))

    assert entries["GPT-4"].unsupported_pairs == frozenset(
        {LanguagePair.from_code("cs-uk"), LanguagePair.from_code("en-cs")}
    )


def test_parse_registry_preserves_file_order():
    assert [e.name for e in _registry()] == [
        "Unbabel-Tower70B",
        "BJFU-LPT",
        "IKUN",
        "CUNI-Transformer",
        "GPT-4",
    ]


def _line_of(error: ParseError) -> int:
    return error.line


@pytest.mark.parametrize(
    "mutant,line,needle",
    [
        ("IKUN\topen\t0\t", 7, "duplicate system name"),
        ("Ghost\tpublic\t0\t", 7, "unknown category"),
        ("Ghost\topen\t2\t", 7, "withdrawn"),
        ("Ghost\topen\t0\tnot-a-pair-code", 7, "malformed language pair"),
        ("Ghost\topen\t0", 7, "columns"),
        ("Ghost\topen\t0\t\textra", 7, "columns"),
        ("\topen\t0\t", 7, "empty system name"),
    ],
)
def test_parse_registry_rejects_bad_rows_with_line_numbers(mutant, line, needle):
    with pytest.raises(ParseError) as info:
        parse_registry(REGISTRY + mutant + "\n")
    assert info.value.line == line
    assert needle in str(info.value)


def test_parse_registry_rejects_wrong_header():
    with pytest.raises(ParseError) as info:
        parse_registry("name\tcategory\twithdrawn\tunsupported_pairs\n")
    assert info.value.line == 1
    # unknown extra columns are schema drift, not data
    with pytest.raises(ParseError):
        parse_registry(REGISTRY.replace("unsupported_pairs", "unsupported_pairs\tnotes"))


def test_parse_scores_basic():
    scores = parse_scores(SCORES, _registry(), DEFAULT_METRICS)
    assert scores == {
        CSUK: {
            "IKUN": {"metricx-23-xl": 1.6, "cometkiwi-da-xl": 0.664},
            "GPT-4": {"metricx-23-xl": 1.4, "cometkiwi-da-xl": 0.677},
        }
    }
    assert list(scores[CSUK]) == ["IKUN", "GPT-4"]


@pytest.mark.parametrize(
    "mutant,needle",
    [
        ("cs-uk\tIKUN\tmetricx-23-xl\t1.6", "duplicate score"),
        ("cs-uk\tGhost\tmetricx-23-xl\t1.0", "unknown system"),
        ("cs-uk\tIKUN\tbleu\t30.1", "unknown metric"),
        ("cs-uk\tIKUN\tcometkiwi-da-xl\tnan", "malformed score"),
        ("cs-uk\tIKUN\tcometkiwi-da-xl\tinf", "malformed score"),
        ("cs-uk\tIKUN\tcometkiwi-da-xl\t1_0", "malformed score"),
        ("cs-uk\tIKUN\tcometkiwi-da-xl\t", "malformed score"),
        ("csuk\tIKUN\tmetricx-23-xl\t1.6", "malformed language pair"),
        ("cs-uk\tIKUN\tmetricx-23-xl", "columns"),
    ],
)
def test_parse_scores_rejects_bad_rows_with_line_numbers(mutant, needle):
    with pytest.raises(ParseError) as info:
        parse_scores(SCORES + mutant + "\n", _registry(), DEFAULT_METRICS)
    assert info.value.line == 6
    assert needle in str(info.value)


@pytest.mark.parametrize("token", ["1e-400", "-3E-400", "1.23456789e-320", "2.2e-308"])
def test_parse_scores_rejects_nonzero_scores_too_small_for_a_float(token):
    # 1e-400 reads as 0.0 and 1.23456789e-320 as a subnormal whose repr
    # is 1.2347e-320: either way the decimal in the file is lost
    text = SCORES + f"cs-uk\tUnbabel-Tower70B\tmetricx-23-xl\t{token}\n"
    with pytest.raises(ParseError) as info:
        parse_scores(text, _registry(), DEFAULT_METRICS)
    assert info.value.line == 6
    assert str(info.value) == (
        f"line 6: score {token!r} is too small for a float: a nonzero score needs a"
        " magnitude of at least 2.2250738585072014e-308"
    )


@pytest.mark.parametrize("token", ["0", "-0.0", "0e-400", "000.000E+5", "2.2250738585072014e-308"])
def test_parse_scores_keeps_zero_and_the_smallest_normal_float(token):
    text = SCORES + f"cs-uk\tUnbabel-Tower70B\tmetricx-23-xl\t{token}\n"
    assert parse_scores(text, _registry(), DEFAULT_METRICS)[CSUK]["Unbabel-Tower70B"] == {
        "metricx-23-xl": float(token)
    }


def test_parse_scores_reports_a_repeated_bad_pair_token_at_its_first_line():
    bad = "csuk\tIKUN\tmetricx-23-xl\t1.6\n"
    text = SCORES + bad + bad
    with pytest.raises(ParseError) as info:
        parse_scores(text, _registry(), DEFAULT_METRICS)
    assert info.value.line == 6
    assert str(info.value) == "line 6: malformed language pair code: 'csuk'"


def test_parse_scores_reports_a_duplicate_triple_at_its_second_line():
    text = SCORES + "en-cs\tIKUN\tmetricx-23-xl\t1.0\n" + "cs-uk\tIKUN\tmetricx-23-xl\t1.7\n"
    with pytest.raises(ParseError) as info:
        parse_scores(text, _registry(), DEFAULT_METRICS)
    assert info.value.line == 7
    assert str(info.value) == "line 7: duplicate score for cs-uk/IKUN/metricx-23-xl"


def test_parse_scores_shares_one_pair_object_per_token():
    # interleaved pairs still index under one key each, in first-seen order
    encs = LanguagePair.from_code("en-cs")
    text = SCORES + "en-cs\tIKUN\tmetricx-23-xl\t1.0\n" + "cs-uk\tIOL\tmetricx-23-xl\t2.0\n"
    registry = _registry() + [SystemEntry(name="IOL", category=SystemCategory.OPEN)]
    scores = parse_scores(text, registry, DEFAULT_METRICS)
    assert list(scores) == [CSUK, encs]
    assert list(scores[CSUK]) == ["IKUN", "GPT-4", "IOL"]
    assert scores[encs] == {"IKUN": {"metricx-23-xl": 1.0}}


def test_parse_scores_keeps_full_precision():
    text = "pair\tsystem\tmetric\tscore\ncs-uk\tIKUN\tmetricx-23-xl\t1.6000000000000001\n"
    scores = parse_scores(text, _registry(), DEFAULT_METRICS)
    assert scores[CSUK]["IKUN"]["metricx-23-xl"] == 1.6000000000000001


def test_registry_round_trip_bytes():
    assert serialize_registry(parse_registry(REGISTRY)) == REGISTRY


def test_scores_round_trip_bytes():
    assert serialize_scores(parse_scores(SCORES, _registry(), DEFAULT_METRICS)) == SCORES


def test_wmt24_fixture_round_trips_byte_exactly(data_dir, registry, scores):
    assert serialize_registry(registry) == (data_dir / "systems.tsv").read_text(encoding="utf-8")
    assert serialize_scores(scores) == (data_dir / "scores.tsv").read_text(encoding="utf-8")


def test_parse_manifest_and_round_trip():
    text = "pair\tsegments\twords\ncs-uk\t2300\t32000\nen-de\t1000\t32000\n"
    manifest = parse_manifest(text)
    assert manifest[LanguagePair.from_code("cs-uk")] == (2300, 32000)
    assert serialize_manifest(manifest) == text


@pytest.mark.parametrize(
    "row,needle",
    [
        ("cs-uk\t0\t32000", "positive"),
        ("cs-uk\t-5\t32000", "positive"),
        ("cs-uk\t2300\tlots", "positive"),
        ("cs-uk\t2300", "columns"),
    ],
)
def test_parse_manifest_rejects_bad_rows(row, needle):
    with pytest.raises(ParseError) as info:
        parse_manifest("pair\tsegments\twords\n" + row + "\n")
    assert info.value.line == 2
    assert needle in str(info.value)


@pytest.mark.parametrize(
    "row,needle",
    [
        # superscript two: str.isdigit holds, int() raises a bare ValueError
        ("cs-uk\t\u00b2\t32000", "segments must be a positive integer, got '\u00b2'"),
        # Arabic-Indic three: int() reads it as 3
        ("cs-uk\t2300\t\u0663", "words must be a positive integer, got '\u0663'"),
    ],
)
def test_parse_manifest_rejects_non_ascii_digits(row, needle):
    with pytest.raises(ParseError) as info:
        parse_manifest("pair\tsegments\twords\n" + row + "\n")
    assert info.value.line == 2
    assert needle in str(info.value)


def test_parse_scores_rejects_non_ascii_digits():
    # Arabic-Indic 3.5: float() reads it, the file format does not
    with pytest.raises(ParseError) as info:
        parse_scores(
            SCORES + "en-de\tIKUN\tcometkiwi-da-xl\t\u0663.\u0665\n", _registry(), DEFAULT_METRICS
        )
    assert info.value.line == 6
    assert "malformed score" in str(info.value)


def test_parse_manifest_rejects_duplicate_pair():
    text = "pair\tsegments\twords\ncs-uk\t2300\t32000\ncs-uk\t2300\t32000\n"
    with pytest.raises(ParseError) as info:
        parse_manifest(text)
    assert info.value.line == 3


def test_check_completeness_full_matrix(registry, scores):
    matrix = scores[CSUK]
    check_completeness(matrix, {e.name: e for e in registry}, DEFAULT_METRICS, CSUK)
    assert len(matrix) == 20
    assert all(set(row) == {m.id for m in DEFAULT_METRICS} for row in matrix.values())
    assert matrix["IOL-Research"] == {"metricx-23-xl": 1.3, "cometkiwi-da-xl": 0.681}


def test_check_completeness_flags_missing_metric():
    registry = _registry()
    matrix = parse_scores(SCORES, registry, DEFAULT_METRICS)[CSUK]
    del matrix["GPT-4"]["cometkiwi-da-xl"]
    with pytest.raises(ValueError) as info:
        check_completeness(matrix, {e.name: e for e in registry}, DEFAULT_METRICS, CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: GPT-4/cometkiwi-da-xl"


def test_check_completeness_lists_holes_by_system_then_metric():
    # the lone-metric matrix build_context used to reject, plus a second
    # hole that sorts first although its row comes later
    registry = [
        SystemEntry(name="A", category=SystemCategory.OPEN),
        SystemEntry(name="0", category=SystemCategory.OPEN),
    ]
    matrix = {"A": {"metricx-23-xl": 1.0}}
    with pytest.raises(ValueError) as info:
        check_completeness(matrix, {e.name: e for e in registry}, DEFAULT_METRICS, CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: A/cometkiwi-da-xl"
    matrix["0"] = {"cometkiwi-da-xl": 0.5}
    with pytest.raises(ValueError) as info:
        check_completeness(matrix, {e.name: e for e in registry}, DEFAULT_METRICS, CSUK)
    assert str(info.value) == (
        "cs-uk is not rankable, missing scores: 0/metricx-23-xl, A/cometkiwi-da-xl"
    )


def test_check_completeness_empty_pair_is_vacuously_rankable():
    check_completeness(
        {}, {e.name: e for e in _registry()}, DEFAULT_METRICS, LanguagePair.from_code("en-xh")
    )


def test_parse_registry_rejects_terminal_escapes_in_names():
    text = REGISTRY.replace("\n", "\nEvil\x1b[31m\topen\t0\t\n", 1)
    with pytest.raises(ParseError) as info:
        parse_registry(text)
    assert str(info.value) == (
        "line 2: system name may not contain control or bidi character U+001B: 'Evil\\x1b[31m'"
    )
