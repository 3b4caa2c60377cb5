from __future__ import annotations

import io
import math
import tracemalloc

import pytest

from autorank import (
    LanguagePair,
    ParseError,
    SystemCategory,
    SystemEntry,
    parse_manifest,
    parse_registry,
    parse_scores,
    rank_pair,
)
import autorank.ingest
from autorank.ingest import check_completeness
from autorank.model import METRICS

from _tsv import (
    block_size,
    matrix_of,
    parse_scratch_size,
    registry_of,
    serialize_manifest,
    serialize_registry,
    serialize_scores,
)

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
    entries = _registry()
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
    registry = _registry()
    assert list(registry) == [e.name for e in registry.values()] == [
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


def _row(scores, pair, system):
    """``system``'s scores in ``pair``, metric id -> score, holes left out."""
    names, columns = scores[pair]
    slot = names.index(system)
    return {
        metric.id: column[slot]
        for metric, column in zip(METRICS, columns)
        if not math.isnan(column[slot])
    }


def _filled(scores, pair):
    """How many of ``pair``'s slots hold a score."""
    return sum(not math.isnan(score) for column in scores[pair][1] for score in column)


def test_parse_scores_basic():
    scores = parse_scores(SCORES, _registry())
    assert list(scores) == [CSUK]
    names, columns = scores[CSUK]
    assert names == ("IKUN", "GPT-4")
    # one array('d') per metric, in metrics order, slot i being names[i]'s
    assert [(column.typecode, list(column)) for column in columns] == [
        ("d", [1.6, 1.4]),
        ("d", [0.664, 0.677]),
    ]


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
        parse_scores(SCORES + mutant + "\n", _registry())
    assert info.value.line == 6
    assert needle in str(info.value)


@pytest.mark.parametrize("token", ["1e-400", "-3E-400", "1.23456789e-320", "2.2e-308"])
def test_parse_scores_rejects_nonzero_scores_too_small_for_a_float(token):
    # 1e-400 reads as 0.0 and 1.23456789e-320 as a subnormal whose repr
    # is 1.2347e-320: either way the decimal in the file is lost
    text = SCORES + f"cs-uk\tUnbabel-Tower70B\tmetricx-23-xl\t{token}\n"
    with pytest.raises(ParseError) as info:
        parse_scores(text, _registry())
    assert info.value.line == 6
    assert str(info.value) == (
        f"line 6: score {token!r} is too small for a float: a nonzero score needs a"
        " magnitude of at least 2.2250738585072014e-308"
    )


@pytest.mark.parametrize("token", ["0", "-0.0", "0e-400", "000.000E+5", "2.2250738585072014e-308"])
def test_parse_scores_keeps_zero_and_the_smallest_normal_float(token):
    text = SCORES + f"cs-uk\tUnbabel-Tower70B\tmetricx-23-xl\t{token}\n"
    scores = parse_scores(text, _registry())
    assert _row(scores, CSUK, "Unbabel-Tower70B") == {"metricx-23-xl": float(token)}


def test_parse_scores_reports_a_repeated_bad_pair_token_at_its_first_line():
    bad = "csuk\tIKUN\tmetricx-23-xl\t1.6\n"
    text = SCORES + bad + bad
    with pytest.raises(ParseError) as info:
        parse_scores(text, _registry())
    assert info.value.line == 6
    assert str(info.value) == "line 6: malformed language pair code: 'csuk'"


def test_parse_scores_reports_a_duplicate_triple_at_its_second_line():
    text = SCORES + "en-cs\tIKUN\tmetricx-23-xl\t1.0\n" + "cs-uk\tIKUN\tmetricx-23-xl\t1.7\n"
    with pytest.raises(ParseError) as info:
        parse_scores(text, _registry())
    assert info.value.line == 7
    assert str(info.value) == "line 7: duplicate score for cs-uk/IKUN/metricx-23-xl"


def test_parse_scores_shares_one_pair_object_per_token():
    # interleaved pairs still index under one key each, in first-seen order
    encs = LanguagePair.from_code("en-cs")
    text = SCORES + "en-cs\tIKUN\tmetricx-23-xl\t1.0\n" + "cs-uk\tIOL\tmetricx-23-xl\t2.0\n"
    registry = registry_of(
        [*_registry().values(), SystemEntry(name="IOL", category=SystemCategory.OPEN)]
    )
    scores = parse_scores(text, registry)
    assert list(scores) == [CSUK, encs]
    assert scores[CSUK][0] == ("IKUN", "GPT-4", "IOL")
    assert scores[encs][0] == ("IKUN",) and _row(scores, encs, "IKUN") == {"metricx-23-xl": 1.0}


def test_parse_scores_keeps_full_precision():
    text = "pair\tsystem\tmetric\tscore\ncs-uk\tIKUN\tmetricx-23-xl\t1.6000000000000001\n"
    scores = parse_scores(text, _registry())
    assert _row(scores, CSUK, "IKUN") == {"metricx-23-xl": 1.6000000000000001}


def test_registry_round_trip_bytes():
    assert serialize_registry(parse_registry(REGISTRY)) == REGISTRY


def test_scores_round_trip_bytes():
    assert serialize_scores(parse_scores(SCORES, _registry())) == SCORES


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
            SCORES + "en-de\tIKUN\tcometkiwi-da-xl\t\u0663.\u0665\n", _registry()
        )
    assert info.value.line == 6
    assert "malformed score" in str(info.value)


def test_parse_manifest_rejects_duplicate_pair():
    text = "pair\tsegments\twords\ncs-uk\t2300\t32000\ncs-uk\t2300\t32000\n"
    with pytest.raises(ParseError) as info:
        parse_manifest(text)
    assert info.value.line == 3


def test_check_completeness_full_matrix(registry, scores):
    names, columns = scores[CSUK]
    check_completeness(names, columns, registry, CSUK)
    assert len(names) == 20 and _filled(scores, CSUK) == 40
    assert _row(scores, CSUK, "IOL-Research") == {"metricx-23-xl": 1.3, "cometkiwi-da-xl": 0.681}


def test_check_completeness_flags_missing_metric():
    registry = _registry()
    names, columns = parse_scores(SCORES, registry)[CSUK]
    columns[1][names.index("GPT-4")] = math.nan
    with pytest.raises(ValueError) as info:
        check_completeness(names, columns, registry, CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: GPT-4/cometkiwi-da-xl"


def test_check_completeness_lists_holes_by_system_then_metric():
    # the lone-metric matrix build_context used to reject, plus a second
    # hole that sorts first although its row comes later
    registry = registry_of(SystemEntry(name=name, category=SystemCategory.OPEN) for name in "A0")
    matrix = {"A": {"metricx-23-xl": 1.0}}
    with pytest.raises(ValueError) as info:
        check_completeness(*matrix_of(matrix), registry, CSUK)
    assert str(info.value) == "cs-uk is not rankable, missing scores: A/cometkiwi-da-xl"
    matrix["0"] = {"cometkiwi-da-xl": 0.5}
    with pytest.raises(ValueError) as info:
        check_completeness(*matrix_of(matrix), registry, CSUK)
    assert str(info.value) == (
        "cs-uk is not rankable, missing scores: 0/metricx-23-xl, A/cometkiwi-da-xl"
    )


def test_check_completeness_empty_pair_is_vacuously_rankable():
    check_completeness(*matrix_of({}), _registry(), LanguagePair.from_code("en-xh"))


def test_check_completeness_rejects_range_beyond_float():
    # best - worst would be inf, and inf / inf a NaN AutoRank
    matrix = {
        "A": {"metricx-23-xl": -1e308, "cometkiwi-da-xl": 0.7},
        "B": {"metricx-23-xl": 1e308, "cometkiwi-da-xl": 0.5},
    }
    registry = registry_of(SystemEntry(name=name, category=SystemCategory.OPEN) for name in "AB")
    message = "cs-uk score range for metricx-23-xl is not finite: -1e+308 to 1e+308"
    with pytest.raises(ValueError) as info:
        check_completeness(*matrix_of(matrix), registry, CSUK)
    assert str(info.value) == message
    # library callers of rank_pair meet the same check
    scores = {CSUK: matrix_of(matrix)}
    with pytest.raises(ValueError) as info:
        rank_pair(registry, scores, CSUK)
    assert str(info.value) == message


def test_check_completeness_reports_the_first_problem_in_a_fixed_order():
    # the registry for every name; then each metric's infinite scores;
    # then holes; then each metric's range
    registry = registry_of(SystemEntry(name=name, category=SystemCategory.OPEN) for name in "ABC")

    def first_problem(matrix):
        with pytest.raises(ValueError) as info:
            check_completeness(*matrix_of(matrix), registry, CSUK)
        return str(info.value)

    huge = {"metricx-23-xl": 1e308, "cometkiwi-da-xl": 0.5}
    tiny = {"metricx-23-xl": -1e308, "cometkiwi-da-xl": 0.5}
    holed = {"metricx-23-xl": 1.0}
    infinite = {"metricx-23-xl": 1.0, "cometkiwi-da-xl": -math.inf}
    nan = {"metricx-23-xl": 1.0, "cometkiwi-da-xl": math.nan}
    assert first_problem({"A": huge, "B": tiny, "C": holed}) == (
        "cs-uk is not rankable, missing scores: C/cometkiwi-da-xl"
    )
    # a NaN in the middle of a column, which min and max can pass over, is a hole
    assert first_problem({"A": huge, "B": nan, "C": tiny}) == (
        "cs-uk is not rankable, missing scores: B/cometkiwi-da-xl"
    )
    assert first_problem({"A": holed, "B": infinite, "C": tiny}) == (
        "cs-uk score for B/cometkiwi-da-xl is not finite: -inf"
    )
    assert first_problem({"A": infinite, "B": tiny, "Z": nan}) == (
        "system 'Z' has scores but no registry entry"
    )
    plain = {"metricx-23-xl": 1.0, "cometkiwi-da-xl": 0.5}
    assert first_problem({"A": plain, "Z": dict(plain)}) == (
        "system 'Z' has scores but no registry entry"
    )
    # finite scores whose sum overflows are still rankable
    overflowing = {"A": huge, "B": dict(huge), "C": dict(huge)}
    check_completeness(*matrix_of(overflowing), registry, CSUK)


def test_check_completeness_rejects_a_name_listed_twice():
    names, columns = matrix_of({"IKUN": {"metricx-23-xl": 1.0, "cometkiwi-da-xl": 0.5}})
    with pytest.raises(ValueError, match="^cs-uk lists system 'IKUN' twice$"):
        check_completeness(names * 2, [c * 2 for c in columns], _registry(), CSUK)


def test_check_completeness_rejects_a_column_per_metric_missing():
    names, columns = matrix_of({"IKUN": {"metricx-23-xl": 1.0}})
    with pytest.raises(ValueError, match="^cs-uk has 1 score columns for 2 metrics$"):
        check_completeness(names, columns[:1], _registry(), CSUK)


def test_check_completeness_rejects_a_column_of_the_wrong_length():
    names, columns = matrix_of({"IKUN": {"metricx-23-xl": 1.0, "cometkiwi-da-xl": 0.5}})
    with pytest.raises(ValueError, match="^cs-uk metricx-23-xl column has 2 scores for 1 systems$"):
        check_completeness(names, (columns[0] * 2, columns[1]), _registry(), CSUK)


# what each parser makes of a short file: the number of entries it
# returns, or the line and message it rejects the file with
_EDGE_ROWS = {
    "registry": ("Ada\topen\t0\t", "Bell\tclosed\t1\tcs-uk"),
    "scores": ("cs-uk\tAda\tmetricx-23-xl\t1.5", "cs-uk\tAda\tcometkiwi-da-xl\t0.5"),
    "manifest": ("cs-uk\t2300\t32000", "en-de\t1\t2"),
}
_EDGE_HEADERS = {
    "registry": autorank.ingest.REGISTRY_HEADER,
    "scores": autorank.ingest.SCORES_HEADER,
    "manifest": autorank.ingest.MANIFEST_HEADER,
}
_EDGE_CR = {
    "registry": "malformed language pair code: '\\r'",
    "scores": "malformed score '1.5\\r'",
    "manifest": "words must be a positive integer, got '32000\\r'",
}


def _edge_parse(kind: str, text: str):
    if kind == "registry":
        return parse_registry(text)
    if kind == "manifest":
        return parse_manifest(text)
    registry = parse_registry(f"{autorank.ingest.REGISTRY_HEADER}\nAda\topen\t0\t\n")
    return parse_scores(text, registry)


def _edge_outcome(kind: str, text: str):
    try:
        return len(_edge_parse(kind, text))
    except ParseError as exc:
        return exc.line, str(exc)


@pytest.mark.parametrize("kind", ["registry", "scores", "manifest"])
def test_rows_edge_cases_keep_their_line_numbers_and_messages(kind):
    header = _EDGE_HEADERS[kind]
    a, b = _EDGE_ROWS[kind]
    width = header.count("\t") + 1
    no_header = (1, f"line 1: expected header {header!r}")
    blank = f"expected {width} tab-separated columns, got 1"
    # a scores file keys by (pair, system); both rows are one system's
    entries = 1 if kind == "scores" else 2
    cases = {
        "": no_header,
        "\n": no_header,
        header: 0,
        header + "\n": 0,
        f"{header}\n{a}\n{b}": entries,
        f"{header}\n{a}\n\n{b}\n": (3, f"line 3: {blank}"),
        f"{header}\n{a}\n{b}\n\n": (4, f"line 4: {blank}"),
        f"{header}\r\n{a}\r\n": no_header,
        f"{header}\n{a}\r\n{b}\r\n": (2, f"line 2: {_EDGE_CR[kind]}"),
    }
    for text, expected in cases.items():
        assert _edge_outcome(kind, text) == expected, repr(text)


@pytest.mark.parametrize("kind", ["registry", "scores", "manifest"])
def test_byte_order_mark_is_named_in_the_header_error(kind):
    header = _EDGE_HEADERS[kind]
    a, b = _EDGE_ROWS[kind]
    assert _edge_outcome(kind, f"\ufeff{header}\n{a}\n{b}\n") == (
        1,
        f"line 1: expected header {header!r} (the file starts with a UTF-8 byte-order mark)",
    )


@pytest.mark.parametrize("kind", ["registry", "scores", "manifest"])
@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13, 64])
def test_rows_give_the_same_result_at_any_block_size(kind, block, monkeypatch):
    # blocks far shorter than a line cut every line at a block boundary
    header = _EDGE_HEADERS[kind]
    a, b = _EDGE_ROWS[kind]
    texts = [
        header,
        f"{header}\n{a}\n{b}\n",
        f"{header}\n{a}\n{b}",
        f"{header}\n{a}\n\n{b}\n",
        f"{header}\n{a}\n{b}\n\n",
        f"{header}\n\n",
        "\n\n",
    ]
    expected = [_edge_outcome(kind, text) for text in texts]
    monkeypatch.setattr(autorank.ingest, "_BLOCK", block)
    assert [_edge_outcome(kind, text) for text in texts] == expected


@pytest.mark.parametrize("kind", ["registry", "scores", "manifest"])
@pytest.mark.parametrize("block", [1, 3, 64, 1 << 16])
def test_an_open_file_reads_as_its_text_at_any_block_size(kind, block, tmp_path, monkeypatch):
    header = _EDGE_HEADERS[kind]
    a, b = _EDGE_ROWS[kind]
    texts = [
        "",
        "\n",
        header,
        f"{header}\n{a}\n{b}\n",
        f"{header}\n{a}\n{b}",
        f"{header}\n{a}\n\n{b}\n",
        f"{header}\n{a}\n{b}\n\n",
        f"{header}\r\n{a}\r\n",
        f"{header}\n{a}\r{b}\r\n",
        f"\ufeff{header}\n{a}\n",
    ]
    expected = [_edge_outcome(kind, text) for text in texts]
    monkeypatch.setattr(autorank.ingest, "_BLOCK", block)
    path = tmp_path / "input.tsv"
    outcomes = []
    for text in texts:
        path.write_bytes(text.encode("utf-8"))
        # as the CLI opens it: the characters as stored
        with open(path, encoding="utf-8", newline="") as handle:
            outcomes.append(_edge_outcome(kind, handle))
    assert outcomes == expected


def test_rows_line_straddling_a_block_boundary():
    registry = parse_registry(
        f"{autorank.ingest.REGISTRY_HEADER}\n"
        + "".join(f"S{i:04d}\topen\t0\t\n" for i in range(2000))
    )
    lines = [autorank.ingest.SCORES_HEADER]
    size = len(lines[0]) + 1
    i = 0
    while size < autorank.ingest._BLOCK - 40:
        lines.append(f"cs-uk\tS{i // 2:04d}\t{METRICS[i % 2].id}\t0.{i:04d}")
        size += len(lines[-1]) + 1
        i += 1
    # this line starts under 40 characters before the block's end and
    # runs past it
    bad = len(lines) + 1
    token = "1.5" + "0" * 40
    lines.append(f"cs-uk\tS{i // 2:04d}\t{METRICS[i % 2].id}\t{token}.0")
    text = "\n".join(lines) + "\n"
    assert size < autorank.ingest._BLOCK < size + len(lines[-1])
    with pytest.raises(ParseError) as info:
        parse_scores(text + "cs-uk\tS0000\tmetricx-23-xl\t1\n", registry)
    assert str(info.value) == f"line {bad}: malformed score '{token}.0'"
    lines[-1] = lines[-1][:-2]
    scores = parse_scores("\n".join(lines), registry)
    assert _filled(scores, CSUK) == len(lines) - 1
    assert _row(scores, CSUK, f"S{i // 2:04d}")[METRICS[i % 2].id] == 1.5


def test_parse_scores_never_holds_every_line_at_once():
    # a scores file large enough for several blocks
    registry = parse_registry(
        f"{autorank.ingest.REGISTRY_HEADER}\n"
        + "".join(f"S{i:04d}\topen\t0\t\n" for i in range(1000))
    )
    text = autorank.ingest.SCORES_HEADER + "\n" + "".join(
        f"{pair}\tS{i:04d}\t{metric.id}\t0.{i:04d}\n"
        for pair in ("cs-uk", "en-de", "ja-zh", "en-es", "en-hi")
        for i in range(1000)
        for metric in METRICS
    )
    assert len(text) > 4 * autorank.ingest._BLOCK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scores = parse_scores(text, registry)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(_filled(scores, pair) for pair in scores) == 10_000
    # over what it keeps, the parse holds the numbers of the names and
    # each pair's slot table and entry, which it drops on return, and one
    # block of the text, as much as a text file's buffer reads, with its
    # lines; splitting the whole text at once would peak at about three
    # times its size, and a name -> slot dict per pair held 0.29 MB
    scratch = parse_scratch_size(scores) + block_size(text[: io.DEFAULT_BUFFER_SIZE])
    assert live > start and peak - live < scratch


def test_parse_registry_rejects_terminal_escapes_in_names():
    text = REGISTRY.replace("\n", "\nEvil\x1b[31m\topen\t0\t\n", 1)
    with pytest.raises(ParseError) as info:
        parse_registry(text)
    assert str(info.value) == (
        "line 2: system name may not contain control or bidi character U+001B: 'Evil\\x1b[31m'"
    )
