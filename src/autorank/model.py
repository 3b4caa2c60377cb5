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
one rule that rounds a displayed aggregate.  The cutoff gap, the
category depths, the scale's span and the one displayed decimal are
rules of the engine, not settings: ``_RULES`` holds them as the report
writes them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum

_PAIR_CODE = re.compile(r"[a-z]{2}-[a-z]{2}")
# the syntax of every number read from a file or flag: ASCII decimal or
# scientific notation; float() and Decimal() also take "1_0", "٣" and blanks
_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
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


# The rules every published table is ranked by, as the JSON report's
# config writes them: a row whose aggregate trails the one above it by
# more than 1.5 falls below the cutoff; closed systems qualify within the
# top third of positions and open systems within the top two thirds;
# aggregates display with one decimal; and on a table of N systems each
# metric's worst score normalizes to 1 + N.  A golden's config may only
# repeat them.
_RULES = {
    "closed_fraction": "1/3",
    "cutoff_gap": "1.5",
    "display_decimals": 1,
    "open_fraction": "2/3",
    "scale_span": "n",
}


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

    from fractions import Fraction  # loaded by its first call, not by the engine

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


class LeaderboardTable(namedtuple("LeaderboardTable", "pair rows")):
    """A fully ranked language pair: ordered rows, which carry the decisions."""

    __slots__ = ()

    @property
    def n_systems(self) -> int:
        return len(self.rows)

    @property
    def cutoff_position(self) -> int | None:
        """Position of the first row below the cutoff, or None."""
        return next((row.position for row in self.rows if not row.above_cutoff), None)
