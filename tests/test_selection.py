from __future__ import annotations

import math
from fractions import Fraction

import pytest

from autorank import (
    LanguagePair,
    RankedRow,
    ReasonCode,
    SystemCategory,
    SystemEntry,
)
from autorank.model import _RULES, display_str
from autorank.selection import (
    _CLOSED,
    _GAP,
    _OPEN,
    apply_selection,
    category_limits,
    find_cutoff,
    select_for_human_eval,
)

from _tsv import registry_of

PAIR = LanguagePair.from_code("xx-yy")


def _system(
    name: str,
    autorank: float,
    category: SystemCategory = SystemCategory.OPEN,
    withdrawn: bool = False,
) -> tuple[SystemEntry, float]:
    return SystemEntry(name=name, category=category, withdrawn=withdrawn), autorank


def _table(*values: float, withdrawn: set[int] = frozenset()) -> list[tuple[SystemEntry, float]]:
    """Open systems S01, S02, ... in leaderboard order with these aggregates."""
    return [
        _system(f"S{i:02d}", v, withdrawn=i in withdrawn) for i, v in enumerate(values, start=1)
    ]


def _scale(systems) -> int:
    """A common denominator of the aggregates' reprs."""
    return math.lcm(*(Fraction(repr(v)).denominator for _, v in systems))


def _keys(systems) -> list[tuple]:
    """The ordered sort keys ``order_rows`` would return for ``systems``.

    A key's K is (aggregate - 1) * ``_scale(systems)``, so with span N
    the pair's unit is N * ``_scale(systems)``.  The raw scores, one per
    metric, are the row's index and 0.5, so each row's differ.
    """
    scale = _scale(systems)
    keys = []
    for i, (entry, v) in enumerate(systems):
        k = int((Fraction(repr(v)) - 1) * scale)
        keys.append((k, k, entry.name, v, display_str(v), (float(i), 0.5)))
    return keys


def _cutoff(systems) -> int | None:
    return find_cutoff(_keys(systems), len(systems) * _scale(systems))


class TestFindCutoff:
    def test_large_tail_gap_cuts_last_row(self):
        # the Czech-Ukrainian shape: a 6.1 jump onto the last row
        assert _cutoff(_table(1.0, 1.9, 2.0, 2.9, 9.0)) == 5

    def test_gap_just_over_threshold_triggers(self):
        # 3.0 -> 4.62 is a 1.62 jump, strictly above 1.5; the 0.33 jump
        # after it changes nothing
        assert _cutoff(_table(1.0, 2.0, 3.0, 4.62, 4.95)) == 4

    def test_gap_under_threshold_does_not_trigger(self):
        assert _cutoff(_table(1.0, 1.33, 2.5, 3.3)) is None

    def test_gap_exactly_threshold_does_not_trigger(self):
        assert _cutoff(_table(1.0, 2.5)) is None
        assert _cutoff(_table(1.0, 2.5 + 1e-9)) == 2

    def test_first_qualifying_gap_wins(self):
        assert _cutoff(_table(1.0, 3.0, 3.1, 5.0)) == 2

    def test_all_equal_has_no_cutoff(self):
        assert _cutoff(_table(1.0, 1.0, 1.0)) is None

    def test_withdrawn_rows_still_carry_gaps(self):
        # the jump lands on a withdrawn row; the line is drawn all the same
        systems = [
            _system(f"S{i}", v, SystemCategory.CONSTRAINED, withdrawn=i == 3)
            for i, v in enumerate((1.0, 1.2, 4.0, 4.1), start=1)
        ]
        assert _cutoff(systems) == 3
        outcome = _outcome(systems)
        assert outcome["S3"].reasons == (
            ReasonCode.EXCLUDED_WITHDRAWN,
            ReasonCode.EXCLUDED_BELOW_CUTOFF,
        )
        assert outcome["S4"].reasons == (ReasonCode.EXCLUDED_BELOW_CUTOFF,)

    def test_empty_and_singleton(self):
        assert find_cutoff([], 1) is None
        assert _cutoff(_table(1.0)) is None


def test_rules_are_read_as_their_ratios_in_lowest_terms():
    # "1.5", "1/3" and "2/3" as fractions.Fraction reads them
    for rule, key in ((_GAP, "cutoff_gap"), (_CLOSED, "closed_fraction"), (_OPEN, "open_fraction")):
        assert rule == Fraction(_RULES[key]).as_integer_ratio(), key


class TestCategoryLimits:
    @pytest.mark.parametrize(
        "n, closed, open_",
        [
            (20, 7, 13),
            (21, 7, 14),
            (22, 8, 14),
            (25, 9, 16),
            (1, 1, 0),
            (0, 0, 0),
        ],
    )
    def test_limits(self, n, closed, open_):
        assert category_limits(n) == (closed, open_)

    def test_exact_thirds_avoid_float_creep(self):
        # 27/3 must be exactly 9: float arithmetic would give
        # ceil(27 * (1/3.0)) == ceil(9.000000000000002) == 10
        assert category_limits(27) == (9, 18)
        assert category_limits(24) == (8, 16)

    @pytest.mark.parametrize(
        "n, closed, open_",
        [(1, 1, 0), (2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 2, 3), (6, 2, 4),
         (7, 3, 4), (8, 3, 5), (9, 3, 6), (10, 4, 6), (11, 4, 7), (12, 4, 8)],
    )
    def test_every_residue_mod_three_selects_to_its_limit(self, n, closed, open_):
        # (ceil(N/3), floor(2N/3)), and the rows at a limit and one past it
        assert category_limits(n) == (closed, open_)
        for category, limit, excluded in (
            (SystemCategory.CLOSED, closed, ReasonCode.EXCLUDED_CLOSED_BELOW_THIRD),
            (SystemCategory.OPEN, open_, ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS),
        ):
            # a flat table of one track: no cutoff, so the depth alone decides
            outcome = _outcome([_system(f"S{i:02d}", 1.0, category) for i in range(1, n + 1)])
            if limit >= 1:
                assert outcome[f"S{limit:02d}"].selected
            if limit < n:
                assert outcome[f"S{limit + 1:02d}"].reasons == (excluded,)
            assert [row.selected for row in outcome.values()] == [
                position <= limit for position in range(1, n + 1)
            ]


def _outcome(systems) -> dict[str, RankedRow]:
    """The finished rows of ``systems`` (in leaderboard order), keyed by name."""
    ordered = _keys(systems)
    registry = registry_of(entry for entry, _ in systems)
    verdicts = select_for_human_eval(ordered, _cutoff(systems), registry, PAIR)
    built = apply_selection(ordered, verdicts, registry, PAIR)
    return {row.name: row for row in built}


class TestSelection:
    def test_closed_depth_limit_boundary(self):
        # 26 systems: closed limit ceil(26/3) = 9.  A closed system at
        # position 9 qualifies, at position 10 it does not.
        rows = _table(*[1.0 + 0.1 * i for i in range(26)])
        rows[8] = _system("ClosedIn", rows[8][1], SystemCategory.CLOSED)
        rows[9] = _system("ClosedOut", rows[9][1], SystemCategory.CLOSED)
        outcome = _outcome(rows)
        assert outcome["ClosedIn"].selected
        assert not outcome["ClosedOut"].selected
        assert outcome["ClosedOut"].reasons == (ReasonCode.EXCLUDED_CLOSED_BELOW_THIRD,)

    def test_open_depth_limit_boundary(self):
        # 20 systems: open limit floor(40/3) = 13
        rows = _table(*[1.0 + 0.1 * i for i in range(20)])
        outcome = _outcome(rows)
        assert outcome["S13"].selected
        assert not outcome["S14"].selected
        assert outcome["S13"].reasons == (ReasonCode.SELECTED_OPEN_TOP_TWO_THIRDS,)
        assert outcome["S14"].reasons == (ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS,)

    def test_constrained_has_no_depth_limit(self):
        rows = _table(*[1.0 + 0.1 * i for i in range(20)])
        rows[-1] = _system("Tail", rows[-1][1], SystemCategory.CONSTRAINED)
        outcome = _outcome(rows)
        assert outcome["Tail"].selected
        assert outcome["Tail"].reasons == (ReasonCode.SELECTED_CONSTRAINED,)

    def test_withdrawn_always_excluded_but_keeps_position(self):
        # constrained rows dodge the depth limits, isolating withdrawal
        rows = [
            _system("S01", 1.0, SystemCategory.CONSTRAINED, withdrawn=True),
            _system("S02", 1.1, SystemCategory.CONSTRAINED),
            _system("S03", 1.2, SystemCategory.CONSTRAINED),
        ]
        outcome = _outcome(rows)
        assert not outcome["S01"].selected
        assert outcome["S01"].reasons == (ReasonCode.EXCLUDED_WITHDRAWN,)
        assert outcome["S01"].position == 1
        # the rows under it are judged at their own positions
        assert outcome["S02"].selected and outcome["S03"].selected

    def test_below_cutoff_excluded_even_when_constrained(self):
        rows = [
            _system("Top", 1.0, SystemCategory.CONSTRAINED),
            _system("Dropped", 3.0, SystemCategory.CONSTRAINED),
        ]
        assert _cutoff(rows) == 2
        outcome = _outcome(rows)
        assert not outcome["Dropped"].above_cutoff
        assert outcome["Top"].selected
        assert not outcome["Dropped"].selected
        assert outcome["Dropped"].reasons == (ReasonCode.EXCLUDED_BELOW_CUTOFF,)

    def test_multiple_exclusion_reasons_accumulate(self):
        rows = _table(*([1.0] * 29 + [3.0]), withdrawn={30})
        outcome = _outcome(rows)
        assert outcome["S30"].reasons == (
            ReasonCode.EXCLUDED_WITHDRAWN,
            ReasonCode.EXCLUDED_BELOW_CUTOFF,
            ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS,
        )

    def test_reason_partition_invariant(self):
        rows = _table(*[1.0 + 0.2 * i for i in range(15)], withdrawn={4, 9})
        rows[2] = _system("C", rows[2][1], SystemCategory.CLOSED)
        ordered = _keys(rows)
        registry = registry_of(entry for entry, _ in rows)
        cutoff = _cutoff(rows)
        verdicts = select_for_human_eval(ordered, cutoff, registry, PAIR)
        assert len(verdicts) == len(rows)
        for codes in verdicts:
            assert codes
            if codes[0].is_selected:
                assert len(codes) == 1
            else:
                assert all(not code.is_selected for code in codes)

    def test_apply_selection_stamps_rows(self):
        rows = _table(1.0, 1.2, 3.0)
        ordered = _keys(rows)
        registry = registry_of(entry for entry, _ in rows)
        verdicts = select_for_human_eval(ordered, 3, registry, PAIR)
        built = apply_selection(ordered, verdicts, registry, PAIR)
        assert [r.position for r in built] == [1, 2, 3]
        assert [r.above_cutoff for r in built] == [True, True, False]
        assert [r.selected for r in built] == [True, True, False]
        # S03 is both under the cutoff and past the open depth (floor(6/3)=2)
        assert built[2].reasons == (
            ReasonCode.EXCLUDED_BELOW_CUTOFF,
            ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS,
        )
        assert [r.autorank_exact for r in built] == [1.0, 1.2, 3.0]
        assert [r.autorank_display for r in built] == ["1.0", "1.2", "3.0"]
        # name, category and claimed support come from the registry entry
        assert [(r.name, r.category, r.claimed_support) for r in built] == [
            (f"S0{i}", SystemCategory.OPEN, True) for i in (1, 2, 3)
        ]
        # each row's raw scores are the tuple its key ends in
        assert [r.raw_scores for r in built] == [(float(i), 0.5) for i in range(3)]
        assert all(r.raw_scores is key[5] for r, key in zip(built, ordered))
