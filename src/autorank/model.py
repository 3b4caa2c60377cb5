"""Core domain types for the leaderboard engine.

Everything downstream (parsing, ranking, selection, rendering) works in
terms of these types and of ``METRICS``, the paper's two metric columns,
which every stage reads as a constant.  They are deliberately dumb
containers with validation at construction time; the arithmetic lives
in :mod:`autorank.ranking` and :mod:`autorank.selection`.

Each record is a named tuple: its fields are read-only, setting any
attribute raises ``AttributeError``, and equality, hashing and ordering
are the tuple's, done in C.  A record that validates its fields does
so in ``__new__``; a ``RankedRow`` stores only what the tables print,
its raw scores as a tuple, and reads its verdict flags from its
reasons, as a ``LeaderboardTable`` reads its cutoff from its rows.
The floats a record keeps are output values; every decision is made on
the exact integers of :mod:`autorank.ranking`, and ``_tenths`` is the
one rule that rounds a displayed aggregate.  The scale's span, N, and
the one displayed decimal are rules too, not ``RankingConfig`` fields.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction

_PAIR_CODE = re.compile(r"[a-z]{2}-[a-z]{2}")
# the syntax of every number read from a file or flag: ASCII decimal or
# scientific notation; float() and Fraction() also take "1_0", "٣" and blanks
_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_RATIO = re.compile(r"[+-]?[0-9]+/[0-9]+")
# category Cc (C0, DEL, C1), the line and paragraph separators, and the
# bidi embeddings, overrides and isolates: none may reach a terminal
_HOSTILE_NAME_CHARS = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029\u202a-\u202e\u2066-\u2069]")


class LanguagePair(namedtuple("LanguagePair", "source target")):
    """A directed translation direction, e.g. Czech into Ukrainian.

    Both fields are two-letter ISO 639-1 codes.  The canonical textual
    form is ``source-target`` ("cs-uk") and is what every file format
    and report uses.  Pairs order by (source, target), which is the
    order of their codes.
    """

    __slots__ = ()

    def __new__(cls, source: str, target: str) -> "LanguagePair":
        code = f"{source}-{target}"
        if not _PAIR_CODE.fullmatch(code):
            raise ValueError(f"malformed language pair code: {code!r}")
        if source == target:
            raise ValueError(f"source and target must differ: {code!r}")
        return tuple.__new__(cls, (source, target))

    @classmethod
    def from_code(cls, code: str) -> "LanguagePair":
        if code.count("-") != 1:
            raise ValueError(f"malformed language pair code: {code!r}")
        source, target = code.split("-")
        return cls(source, target)

    @property
    def code(self) -> str:
        return f"{self.source}-{self.target}"

    def __str__(self) -> str:
        return self.code


class SystemCategory(Enum):
    """Submission track of a system.

    Constrained systems trained only on allowed public data, open systems
    on anything public, closed systems are commercial or otherwise
    irreproducible.  The category drives how deep into the table a system
    may sit and still be picked for human evaluation.
    """

    CONSTRAINED = "constrained"
    OPEN = "open"
    CLOSED = "closed"

    # members are singletons that compare by identity, so an identity hash
    # agrees with equality; it runs in C, where Enum's hashes the name in
    # Python, and every row looks its category up
    __hash__ = object.__hash__


class Orientation(Enum):
    """Whether smaller or larger raw metric scores mean better output."""

    LOWER_BETTER = "lower"
    HIGHER_BETTER = "higher"


# one automatic metric column: its id in the scores file, its Orientation
# and the name heading its column
MetricSpec = namedtuple("MetricSpec", "id orientation display_name")

# The paper's two quality-estimation columns, in table order.  Order
# matters: the first metric breaks aggregate ties.
METRICS = (
    MetricSpec("metricx-23-xl", Orientation.LOWER_BETTER, "MetricX"),
    MetricSpec("cometkiwi-da-xl", Orientation.HIGHER_BETTER, "CometKiwi"),
)


def _check_name(name: str) -> None:
    """The one name rule (see ``SystemEntry``): ValueError unless ``name`` may name a system."""

    if not name:
        raise ValueError("system name must be non-empty")
    hostile = _HOSTILE_NAME_CHARS.search(name)
    if hostile:
        raise ValueError(
            f"system name may not contain control or bidi character "
            f"U+{ord(hostile.group()):04X}: {name!r}"
        )


class SystemEntry(
    namedtuple("SystemEntry", "name category withdrawn withdrawn_pairs unsupported_pairs")
):
    """Registry row for one submitted system.

    Withdrawal is pair-scoped: a system can be pulled from human
    evaluation for one direction while staying a normal candidate in
    another.  ``withdrawn=True`` is the blanket form covering every
    pair.  ``unsupported_pairs`` lists directions the submitter never
    claimed to support; such rows still get ranked but are flagged in
    rendered tables.

    A name is non-empty and holds no control character (category
    ``Cc``: tabs, newlines, ESC, DEL, the C1 range), no line or
    paragraph separator and no bidi embedding, override or isolate
    (U+202A-202E, U+2066-2069), so it cannot restyle a terminal or
    reorder the cells around it.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        category: SystemCategory,
        withdrawn: bool = False,
        withdrawn_pairs: frozenset[LanguagePair] = frozenset(),
        unsupported_pairs: frozenset[LanguagePair] = frozenset(),
    ) -> "SystemEntry":
        _check_name(name)
        return tuple.__new__(cls, (name, category, withdrawn, withdrawn_pairs, unsupported_pairs))

    def is_withdrawn(self, pair: LanguagePair) -> bool:
        return self.withdrawn or pair in self.withdrawn_pairs

    def claims_support(self, pair: LanguagePair) -> bool:
        return pair not in self.unsupported_pairs


# ranking rules, not settings: aggregates display with one decimal, and
# on a table of N systems each metric's worst score normalizes to 1 + N;
# as_dict writes both, and from_dict accepts each only with this value
_RULES = {"display_decimals": 1, "scale_span": "n"}

_TOO_LONG = "{} has too many digits to write as text"


def _real(text: str) -> float:
    """``float(text)``, for ``_NUMBER`` text or what reads as inf or nan.

    Other text raises the ValueError ``float`` raises for text it rejects.
    """

    value = float(text)
    if math.isfinite(value) and not _NUMBER.fullmatch(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return value


def _fraction(text: str, name: str) -> Fraction:
    """``Fraction(text)``, for ``p/q`` or ``_NUMBER`` text, as field ``name``.

    Other text raises the ValueError ``Fraction`` raises for text it
    rejects.  The exponent has at most four digits, as no power of ten
    it asks for then takes long to compute.
    """

    number = _NUMBER.fullmatch(text)
    if not (number or _RATIO.fullmatch(text)):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    if number and len((number[2] or "e").lstrip("eE+-0")) > 4:
        raise ValueError(f"exponent out of range: {text!r}")
    try:
        return Fraction(text)
    except ValueError:  # Fraction reads this syntax, so a term is too long to read
        raise ValueError(_TOO_LONG.format(name)) from None


def _text(name: str, value: object) -> str:
    """``str(value)``, or a ValueError naming field ``name`` for a term
    past the interpreter's integer digit limit."""

    try:
        return str(value)
    except ValueError:
        raise ValueError(_TOO_LONG.format(name)) from None


class RankingConfig(namedtuple("RankingConfig", "cutoff_gap closed_fraction open_fraction")):
    """Tunable knobs of the ranking and selection procedure.

    Defaults reproduce the shipped leaderboards: systems whose aggregate
    rank trails the previous one by more than 1.5 fall below the cutoff,
    closed systems may occupy at most the top third of positions and
    open systems at most the top two thirds.  The gap is an ``int`` or
    ``float``, the fractions exact: a ``Fraction`` or an ``int``.  Each
    holds only what ``as_dict`` writes, so ``from_dict`` reads it back.
    """

    __slots__ = ()

    def __new__(
        cls,
        cutoff_gap: float = 1.5,
        closed_fraction: Fraction = Fraction(1, 3),
        open_fraction: Fraction = Fraction(2, 3),
    ) -> "RankingConfig":
        for name, value in (("closed_fraction", closed_fraction), ("open_fraction", open_fraction)):
            if not isinstance(value, (Fraction, int)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a Fraction or int, got {value!r}")
            _text(name, value)  # as_dict writes it
        if not isinstance(cutoff_gap, (int, float)) or isinstance(cutoff_gap, bool):
            raise TypeError(f"cutoff_gap must be an int or float, got {cutoff_gap!r}")
        if not 0 < cutoff_gap < math.inf:  # an int compares exactly, however large
            raise ValueError(f"cutoff_gap must be a positive real, got {cutoff_gap!r}")
        if float(_text("cutoff_gap", cutoff_gap)) != cutoff_gap:  # as from_dict reads it
            raise ValueError(f"cutoff_gap must be an int a float holds exactly, got {cutoff_gap}")
        if not 0 < closed_fraction <= open_fraction <= 1:
            raise ValueError(
                "fractions must satisfy 0 < closed_fraction <= open_fraction <= 1, "
                f"got {closed_fraction}, {open_fraction}"
            )
        return tuple.__new__(cls, (cutoff_gap, closed_fraction, open_fraction))

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form; reals as strings so no float formatting drifts."""
        return {
            "cutoff_gap": repr(self.cutoff_gap),
            "closed_fraction": str(self.closed_fraction),
            "open_fraction": str(self.open_fraction),
            **_RULES,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RankingConfig":
        """Parse the ``as_dict`` form; absent keys keep their defaults.

        This is the only text-to-config parser.  Reals and fractions are
        read from their text, so "0.25" means the decimal typed, not a
        binary float expansion.  Unknown keys, and a ``display_decimals``
        other than the integer 1 or a ``scale_span`` other than the
        string "n", raise ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise TypeError("config is not an object")
        kwargs: dict[str, object] = {}
        for key, value in data.items():
            if key in _RULES:
                rule = _RULES[key]
                if type(value) is not type(rule) or value != rule:
                    raise ValueError(f"{key} must be {rule!r}, got {value!r}")
            elif key == "cutoff_gap":
                kwargs[key] = _real(_text(key, value))
            elif key in cls._fields:
                kwargs[key] = _fraction(_text(key, value), key)
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**kwargs)  # type: ignore[arg-type]


class ReasonCode(Enum):
    """Why a row was or was not sent to human evaluation."""

    SELECTED_CONSTRAINED = "selected_constrained"
    SELECTED_OPEN_TOP_TWO_THIRDS = "selected_open_top_two_thirds"
    SELECTED_CLOSED_TOP_THIRD = "selected_closed_top_third"
    EXCLUDED_CLOSED_BELOW_THIRD = "excluded_closed_below_third"
    EXCLUDED_OPEN_BELOW_TWO_THIRDS = "excluded_open_below_two_thirds"
    EXCLUDED_BELOW_CUTOFF = "excluded_below_cutoff"
    EXCLUDED_WITHDRAWN = "excluded_withdrawn"

    __hash__ = object.__hash__  # as SystemCategory's

    @property
    def is_selected(self) -> bool:
        return self.name.startswith("SELECTED")


def _tenths(numerators: Iterable[int], denominator: int) -> list[str]:
    """Each ``numerator / denominator`` with one decimal, halves rounded up.

    The one rounding rule for displayed aggregates.  ``denominator`` is
    positive and every numerator non-negative.
    """

    twice = 2 * denominator
    return [
        f"{tenths // 10}.{tenths % 10}"
        for numerator in numerators
        for tenths in [(20 * numerator + denominator) // twice]
    ]


def display_str(value: float | Fraction) -> str:
    """The display form of ``value``: one decimal, ties away from zero.

    A float is read as the decimal of its shortest repr, so 2.25 shows
    as 2.3 regardless of the binary representation underneath.
    """

    exact = Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
    return "-" * (exact < 0) + _tenths([abs(exact.numerator)], exact.denominator)[0]


# the codes RankedRow and LeaderboardTable read their decisions from
_SELECTED_CODES = tuple(code for code in ReasonCode if code.is_selected)
_BELOW_CUTOFF = ReasonCode.EXCLUDED_BELOW_CUTOFF
_WITHDRAWN = ReasonCode.EXCLUDED_WITHDRAWN


class RankedRow(
    namedtuple(
        "RankedRow",
        "name category raw_scores autorank_exact autorank_display position claimed_support reasons",
        defaults=(0, True, ()),
    )
):
    """One system's line in a finished leaderboard: what the tables print.

    ``raw_scores`` is the input scores in ``METRICS`` order,
    ``autorank_exact`` the float aggregate and ``autorank_display`` its
    shown rounding.  ``claimed_support`` is the entry's flag resolved
    against the table's language pair.  ``reasons`` is the row's
    verdict: exactly one selected code, or every exclusion code that
    applies; ``selected``, ``above_cutoff`` and ``withdrawn`` read it.
    """

    __slots__ = ()

    @property
    def selected(self) -> bool:
        """The first reason is a selected code."""
        return bool(self.reasons) and self.reasons[0] in _SELECTED_CODES

    @property
    def above_cutoff(self) -> bool:
        """No reason is ``excluded_below_cutoff``."""
        return _BELOW_CUTOFF not in self.reasons

    @property
    def withdrawn(self) -> bool:
        """A reason is ``excluded_withdrawn``."""
        return _WITHDRAWN in self.reasons


class LeaderboardTable(
    namedtuple("LeaderboardTable", "pair rows config", defaults=[RankingConfig()])
):
    """A fully ranked language pair: ordered rows, which carry the decisions."""

    __slots__ = ()

    @property
    def n_systems(self) -> int:
        return len(self.rows)

    @property
    def cutoff_position(self) -> int | None:
        """Position of the first row below the cutoff, or None."""
        return next((row.position for row in self.rows if not row.above_cutoff), None)
