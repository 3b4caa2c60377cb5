"""Core domain types for the leaderboard engine.

Everything downstream (parsing, ranking, selection, rendering) works in
terms of these types.  They are deliberately dumb containers with
validation at construction time; the arithmetic lives in
:mod:`autorank.ranking` and :mod:`autorank.selection`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from fractions import Fraction
from typing import Mapping

_PAIR_CODE = re.compile(r"^[a-z]{2}-[a-z]{2}$")


@dataclass(frozen=True, order=True)
class LanguagePair:
    """A directed translation direction, e.g. Czech into Ukrainian.

    Both fields are two-letter ISO 639-1 codes.  The canonical textual
    form is ``source-target`` ("cs-uk") and is what every file format
    and report uses.
    """

    source: str
    target: str

    def __post_init__(self) -> None:
        code = f"{self.source}-{self.target}"
        if not _PAIR_CODE.match(code):
            raise ValueError(f"malformed language pair code: {code!r}")
        if self.source == self.target:
            raise ValueError(f"source and target must differ: {code!r}")

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


class Orientation(Enum):
    """Whether smaller or larger raw metric scores mean better output."""

    LOWER_BETTER = "lower"
    HIGHER_BETTER = "higher"


@dataclass(frozen=True)
class MetricSpec:
    """Identity and orientation of one automatic metric column."""

    id: str
    orientation: Orientation
    display_name: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("metric id must be non-empty")


# The two quality-estimation columns every shipped table uses, in column
# order.  Order matters: the first metric breaks aggregate ties.
DEFAULT_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("metricx-23-xl", Orientation.LOWER_BETTER, "MetricX"),
    MetricSpec("cometkiwi-da-xl", Orientation.HIGHER_BETTER, "CometKiwi"),
)


@dataclass(frozen=True)
class SystemEntry:
    """Registry row for one submitted system.

    Withdrawal is pair-scoped: a system can be pulled from human
    evaluation for one direction while staying a normal candidate in
    another.  ``withdrawn=True`` is the blanket form covering every
    pair.  ``unsupported_pairs`` lists directions the submitter never
    claimed to support; such rows still get ranked but are flagged in
    rendered tables.
    """

    name: str
    category: SystemCategory
    withdrawn: bool = False
    withdrawn_pairs: frozenset[LanguagePair] = frozenset()
    unsupported_pairs: frozenset[LanguagePair] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("system name must be non-empty")
        if "\t" in self.name or "\n" in self.name:
            raise ValueError(f"system name may not contain tabs or newlines: {self.name!r}")

    def is_withdrawn(self, pair: LanguagePair) -> bool:
        return self.withdrawn or pair in self.withdrawn_pairs

    def claims_support(self, pair: LanguagePair) -> bool:
        return pair not in self.unsupported_pairs


class ScaleSpan(Enum):
    """Width of the normalized rank scale.

    ``FULL_N`` maps the observed worst score to ``1 + N`` where N is the
    number of ranked systems; ``N_MINUS_ONE`` maps it to ``N``.  The
    shipped tables use ``FULL_N``.
    """

    FULL_N = "n"
    N_MINUS_ONE = "n-1"


# a ranking rule, not a setting: aggregates display with one decimal
DISPLAY_DECIMALS = 1
_DISPLAY_QUANTUM = Decimal(1).scaleb(-DISPLAY_DECIMALS)
# how from_dict reads each field back from the text as_dict wrote
_CONFIG_PARSERS = dict(
    cutoff_gap=float, closed_fraction=Fraction, open_fraction=Fraction, scale_span=ScaleSpan
)


@dataclass(frozen=True)
class RankingConfig:
    """Tunable knobs of the ranking and selection procedure.

    Defaults reproduce the shipped leaderboards: systems whose aggregate
    rank trails the previous one by more than 1.5 fall below the cutoff,
    closed systems may occupy at most the top third of positions and
    open systems at most the top two thirds.  Fractions must be exact
    (``Fraction`` or ``int``); ``from_dict`` reads them from text.
    """

    cutoff_gap: float = 1.5
    closed_fraction: Fraction = Fraction(1, 3)
    open_fraction: Fraction = Fraction(2, 3)
    scale_span: ScaleSpan = ScaleSpan.FULL_N

    def __post_init__(self) -> None:
        for name in ("closed_fraction", "open_fraction"):
            value = getattr(self, name)
            if not isinstance(value, (Fraction, int)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a Fraction or int, got {value!r}")
        if not isinstance(self.scale_span, ScaleSpan):
            raise TypeError(f"scale_span must be a ScaleSpan, got {self.scale_span!r}")
        if not (math.isfinite(self.cutoff_gap) and self.cutoff_gap > 0):
            raise ValueError(f"cutoff_gap must be a positive real, got {self.cutoff_gap!r}")
        if not 0 < self.closed_fraction <= self.open_fraction <= 1:
            raise ValueError(
                "fractions must satisfy 0 < closed_fraction <= open_fraction <= 1, "
                f"got {self.closed_fraction}, {self.open_fraction}"
            )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form; reals as strings so no float formatting drifts."""
        return {
            "cutoff_gap": repr(self.cutoff_gap),
            "closed_fraction": str(self.closed_fraction),
            "open_fraction": str(self.open_fraction),
            "display_decimals": DISPLAY_DECIMALS,
            "scale_span": self.scale_span.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RankingConfig":
        """Parse the ``as_dict`` form; absent keys keep their defaults.

        This is the only text-to-config parser.  Reals and fractions are
        read from their text, so "0.25" means the decimal typed, not a
        binary float expansion.  Unknown keys, and a ``display_decimals``
        other than the integer 1, raise ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise TypeError("config is not an object")
        kwargs: dict[str, object] = {}
        for key, value in data.items():
            if key == "display_decimals":
                if type(value) is not int or value != DISPLAY_DECIMALS:
                    raise ValueError(f"display_decimals must be {DISPLAY_DECIMALS}, got {value!r}")
            elif key in _CONFIG_PARSERS:
                kwargs[key] = _CONFIG_PARSERS[key](str(value))
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

    @property
    def is_selected(self) -> bool:
        return self.name.startswith("SELECTED")


def display_str(value: float) -> str:
    """The display form of ``value``: one decimal, ties away from zero.

    Built on :class:`decimal.Decimal` over the shortest repr, so 2.25
    shows as 2.3 regardless of the binary representation underneath.
    """

    return str(Decimal(repr(value)).quantize(_DISPLAY_QUANTUM, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class RankedRow:
    """One system's line in a finished leaderboard.

    ``withdrawn`` and ``claimed_support`` are the entry's flags resolved
    against the table's language pair.  ``reasons`` is the row's only
    stored verdict: exactly one selected code, or every exclusion code
    that applies.  ``selected`` and ``above_cutoff`` are read from it.
    """

    system: SystemEntry
    raw_scores: Mapping[str, float]
    normalized: Mapping[str, float]
    autorank_exact: float
    position: int = 0
    withdrawn: bool = False
    claimed_support: bool = True
    reasons: tuple[ReasonCode, ...] = ()

    @property
    def name(self) -> str:
        return self.system.name

    @property
    def category(self) -> SystemCategory:
        return self.system.category

    @property
    def selected(self) -> bool:
        return bool(self.reasons) and self.reasons[0].is_selected

    @property
    def above_cutoff(self) -> bool:
        return ReasonCode.EXCLUDED_BELOW_CUTOFF not in self.reasons


@dataclass(frozen=True)
class LeaderboardTable:
    """A fully ranked language pair: ordered rows plus the decisions."""

    pair: LanguagePair
    metrics: tuple[MetricSpec, ...]
    rows: tuple[RankedRow, ...]
    cutoff_position: int | None
    config: RankingConfig = field(default_factory=RankingConfig)

    @property
    def n_systems(self) -> int:
        return len(self.rows)
