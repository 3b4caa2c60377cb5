from __future__ import annotations

import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from autorank import (
    LanguagePair,
    RankedRow,
    RankingConfig,
    ReasonCode,
    SystemCategory,
    SystemEntry,
    rank_pair,
)
from autorank.model import METRICS, display_str

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
    for record, attr in ((pair, "source"), (entry, "name"), (RankingConfig(), "cutoff_gap")):
        with pytest.raises(AttributeError):
            setattr(record, attr, "x")
        with pytest.raises(AttributeError):
            record.extra = 1  # type: ignore[attr-defined]
    assert hash(pair) == hash(LanguagePair("cs", "uk"))
    assert hash(RankingConfig()) == hash(RankingConfig.from_dict({}))
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


def test_config_defaults_match_shipped_tables():
    config = RankingConfig()
    assert config.cutoff_gap == 1.5
    assert config.closed_fraction == Fraction(1, 3)
    assert config.open_fraction == Fraction(2, 3)
    assert config.as_dict()["display_decimals"] == 1
    assert config.as_dict()["scale_span"] == "n"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cutoff_gap": 0.0},
        {"cutoff_gap": -1.0},
        {"closed_fraction": 0},
        {"closed_fraction": Fraction(3, 4), "open_fraction": Fraction(1, 2)},
        {"open_fraction": Fraction(5, 4)},
        {"cutoff_gap": float("nan")},
    ],
)
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        RankingConfig(**kwargs)


@pytest.mark.parametrize("value", ["1/3", 0.5, True])
def test_config_rejects_inexact_fractions(value):
    # text is parsed by from_dict only; a float would carry its binary expansion
    with pytest.raises(TypeError, match="closed_fraction must be a Fraction or int"):
        RankingConfig(closed_fraction=value)


@pytest.mark.parametrize(
    "value", [Fraction(3, 2), Decimal("1.5"), True, "1.5"], ids=["Fraction", "Decimal", "bool", "str"]
)
def test_config_rejects_cutoff_gap_that_is_not_an_int_or_float(value):
    # find_cutoff reads the gap from its repr, as from_dict reads as_dict's text
    with pytest.raises(TypeError, match="^cutoff_gap must be an int or float, got "):
        RankingConfig(cutoff_gap=value)
    config = RankingConfig(cutoff_gap=2)
    assert RankingConfig.from_dict(config.as_dict()) == config


def test_config_accepts_textual_fractions():
    config = RankingConfig.from_dict({"closed_fraction": "1/3", "open_fraction": "0.5"})
    assert config.closed_fraction == Fraction(1, 3)
    assert config.open_fraction == Fraction(1, 2)
    # a JSON float means the decimal that was typed
    assert RankingConfig.from_dict({"closed_fraction": 0.1}).closed_fraction == Fraction(1, 10)


@pytest.mark.parametrize(
    "text,value",
    [("1/3", Fraction(1, 3)), ("+1/4", Fraction(1, 4)), ("2.5e-1", Fraction(1, 4)),
     (".5", Fraction(1, 2)), ("1.", Fraction(1)), ("1e-0400", Fraction(1, 10**400)),
     ("0.1E+0000001", Fraction(1))],
)
def test_config_fraction_syntax(text, value):
    config = RankingConfig.from_dict({"closed_fraction": text, "open_fraction": "1"})
    assert config.closed_fraction == value


@pytest.mark.parametrize(
    "key,text,error",
    [
        ("cutoff_gap", "\u0663", "could not convert string to float: '\u0663'"),
        ("cutoff_gap", "1_0", "could not convert string to float: '1_0'"),
        ("cutoff_gap", " 2", "could not convert string to float: ' 2'"),
        ("cutoff_gap", "2\n", "could not convert string to float: '2\\n'"),
        ("closed_fraction", "\u0663/\u0664", "Invalid literal for Fraction: '\u0663/\u0664'"),
        ("closed_fraction", "1_0/30", "Invalid literal for Fraction: '1_0/30'"),
        ("closed_fraction", " 1/3", "Invalid literal for Fraction: ' 1/3'"),
        ("closed_fraction", "1e-9999999", "exponent out of range: '1e-9999999'"),
        ("open_fraction", "1e+00012345", "exponent out of range: '1e+00012345'"),
        # its denominator would have 4401 digits, too many for as_dict to write
        ("closed_fraction", "1e-4400", "closed_fraction has too many digits to write as text"),
    ],
    ids=["arabic-indic-real", "underscore-real", "blank-real", "newline-real",
         "arabic-indic-fraction", "underscore-fraction", "blank-fraction",
         "long-exponent", "five-digit-exponent", "unwritable-fraction"],
)
def test_config_numbers_are_ascii_with_a_bounded_exponent(key, text, error):
    # float() and Fraction() read the first seven; Fraction("1e-9999999")
    # takes seconds to compute and "1e-4400" made a JSON report fail
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        RankingConfig.from_dict({key: text})
    assert time.perf_counter() - start < 1
    assert str(info.value).startswith(error)


@pytest.mark.parametrize(
    "key,text,error",
    [
        ("cutoff_gap", "abc", ValueError("could not convert string to float: 'abc'")),
        ("cutoff_gap", "nan", ValueError("cutoff_gap must be a positive real, got nan")),
        ("cutoff_gap", "1e999", ValueError("cutoff_gap must be a positive real, got inf")),
        ("closed_fraction", "abc", ValueError("Invalid literal for Fraction: 'abc'")),
        ("closed_fraction", "nan", ValueError("Invalid literal for Fraction: 'nan'")),
        ("closed_fraction", "1/0", ZeroDivisionError("Fraction(1, 0)")),
    ],
)
def test_config_text_rejected_by_float_or_fraction_keeps_its_error(key, text, error):
    with pytest.raises(type(error)) as info:
        RankingConfig.from_dict({key: text})
    assert str(info.value) == str(error)


def test_config_dict_round_trip():
    config = RankingConfig(cutoff_gap=2.0, closed_fraction=Fraction(1, 4))
    assert RankingConfig.from_dict(config.as_dict()) == config
    # reals travel as strings so the echo is format-stable
    assert config.as_dict()["cutoff_gap"] == "2.0"
    assert RankingConfig.from_dict({}) == RankingConfig()


_INEXACT_GAP = "cutoff_gap must be an int a float holds exactly, got "


@pytest.mark.parametrize(
    "kwargs,error",
    [
        ({"cutoff_gap": 10**400}, f"{_INEXACT_GAP}{10**400}"),
        ({"cutoff_gap": 2**60 + 1}, f"{_INEXACT_GAP}1152921504606846977"),
        ({"closed_fraction": Fraction(1, 10**5000)}, "closed_fraction has too many digits"),
        ({"open_fraction": Fraction(10**4400 - 1, 10**4400)}, "open_fraction has too many digits"),
    ],
    ids=["gap-past-float-range", "gap-past-2**53", "fraction-too-long-to-write", "open-fraction"],
)
def test_config_holds_only_values_its_text_form_carries(kwargs, error):
    # these used to raise OverflowError, read back from as_dict's text as
    # another number, and construct but fail in as_dict, after ranking
    with pytest.raises(ValueError) as info:
        RankingConfig(**kwargs)
    assert str(info.value).startswith(error)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: RankingConfig.from_dict({"closed_fraction": "1e-4400"}), "closed_fraction"),
        (lambda: RankingConfig.from_dict({"closed_fraction": "1" * 5000}), "closed_fraction"),
        (lambda: RankingConfig.from_dict({"open_fraction": "1/" + "3" * 5000}), "open_fraction"),
        (lambda: RankingConfig(cutoff_gap=10**5000), "cutoff_gap"),
        (lambda: RankingConfig(closed_fraction=Fraction(1, 10**5000)), "closed_fraction"),
    ],
    ids=["text-term-past-limit", "text-too-long", "ratio-too-long", "gap", "fraction"],
)
def test_config_value_too_long_to_write_names_its_field(build, field):
    # these ended in the interpreter's own integer-limit message, which
    # names no field and advises a call no command-line user can make
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"{field} has too many digits to write as text"


_PROPER = st.fractions(min_value=0, max_value=1).filter(bool) | st.builds(
    Fraction, st.integers(1, 10**4400), st.integers(10**4400, 10**4401)
)


@given(
    gap=st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.integers(1, 2**1100),
    fractions=st.lists(_PROPER | st.just(1), min_size=2, max_size=2).map(sorted),
)
@example(gap=2**60, fractions=[Fraction(1, 3), 1])
@example(gap=2**60 + 1, fractions=[Fraction(1, 3), 1])
@example(gap=10**400, fractions=[Fraction(1, 3), 1])
def test_accepted_configs_round_trip_through_their_text(gap, fractions):
    try:
        config = RankingConfig(gap, *fractions)
    except ValueError:
        return
    assert RankingConfig.from_dict(config.as_dict()) == config


@pytest.mark.parametrize("data", ["abc", [], ["cutoff_gap"], None])
def test_config_from_non_mapping_is_rejected(data):
    with pytest.raises(TypeError, match="config is not an object"):
        RankingConfig.from_dict(data)


@pytest.mark.parametrize(
    "key,value",
    [("display_decimals", value) for value in (1.9, 1.0, True, 2, 0, "1", None)]
    + [("scale_span", value) for value in ("n-1", "N", " n", 1, None, ["n"])],
)
def test_config_from_dict_requires_one_display_decimal(key, value):
    # both are rules of the engine, written by as_dict as every table has them
    rule = RankingConfig().as_dict()[key]
    with pytest.raises(ValueError) as info:
        RankingConfig.from_dict({key: value})
    assert str(info.value) == f"{key} must be {rule!r}, got {value!r}"
    assert RankingConfig.from_dict({key: rule}) == RankingConfig()


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
