from __future__ import annotations

from fractions import Fraction

import pytest

from autorank import (
    DEFAULT_METRICS,
    RankedRow,
    RankingConfig,
    ReasonCode,
    SystemCategory,
    SystemEntry,
    apply_selection,
    category_limits,
    find_cutoff,
    select_for_human_eval,
)

MX, CK = DEFAULT_METRICS


def _row(
    name: str,
    autorank: float,
    position: int,
    category: SystemCategory = SystemCategory.OPEN,
    withdrawn: bool = False,
) -> RankedRow:
    entry = SystemEntry(name=name, category=category)
    return RankedRow(
        system=entry,
        raw_scores={MX.id: 0.0, CK.id: 0.0},
        normalized={MX.id: autorank, CK.id: autorank},
        autorank_exact=autorank,
        position=position,
        withdrawn=withdrawn,
    )


def _table(*values: float, withdrawn: set[int] = frozenset()) -> list[RankedRow]:
    return [
        _row(f"S{i:02d}", v, i, withdrawn=i in withdrawn)
        for i, v in enumerate(values, start=1)
    ]


class TestFindCutoff:
    def test_large_tail_gap_cuts_last_row(self):
        # the Czech-Ukrainian shape: a 6.1 jump onto the last row
        assert find_cutoff(_table(1.0, 1.9, 2.0, 2.9, 9.0), RankingConfig()) == 5

    def test_gap_just_over_threshold_triggers(self):
        # 3.0 -> 4.62 is a 1.62 jump, strictly above 1.5; the 0.33 jump
        # after it changes nothing
        assert find_cutoff(_table(1.0, 2.0, 3.0, 4.62, 4.95), RankingConfig()) == 4

    def test_gap_under_threshold_does_not_trigger(self):
        assert find_cutoff(_table(1.0, 1.33, 2.5, 3.3), RankingConfig()) is None

    def test_gap_exactly_threshold_does_not_trigger(self):
        assert find_cutoff(_table(1.0, 2.5), RankingConfig()) is None
        assert find_cutoff(_table(1.0, 2.5 + 1e-9), RankingConfig()) == 2

    def test_first_qualifying_gap_wins(self):
        assert find_cutoff(_table(1.0, 3.0, 3.1, 5.0), RankingConfig()) == 2

    def test_all_equal_has_no_cutoff(self):
        assert find_cutoff(_table(1.0, 1.0, 1.0), RankingConfig()) is None

    def test_withdrawn_rows_still_carry_gaps(self):
        # the jump lands on a withdrawn row; the line is drawn all the same
        ordered = _table(1.0, 1.2, 4.0, 4.1, withdrawn={3})
        assert find_cutoff(ordered, RankingConfig()) == 3

    def test_configurable_gap(self):
        ordered = _table(1.0, 2.0, 3.0)
        assert find_cutoff(ordered, RankingConfig(cutoff_gap=0.5)) == 2
        assert find_cutoff(ordered, RankingConfig(cutoff_gap=2.0)) is None

    def test_empty_and_singleton(self):
        assert find_cutoff([], RankingConfig()) is None
        assert find_cutoff(_table(1.0), RankingConfig()) is None


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
        assert category_limits(n, RankingConfig()) == (closed, open_)

    def test_exact_thirds_avoid_float_creep(self):
        # 27/3 must be exactly 9: float arithmetic would give
        # ceil(27 * (1/3.0)) == ceil(9.000000000000002) == 10
        assert category_limits(27, RankingConfig()) == (9, 18)
        assert category_limits(24, RankingConfig()) == (8, 16)

    def test_custom_fractions(self):
        config = RankingConfig(closed_fraction=Fraction(1, 2), open_fraction=Fraction(1, 1))
        assert category_limits(9, config) == (5, 9)


def _outcome(rows, config=None) -> dict[str, RankedRow]:
    """The rows stamped with their verdicts, keyed by system name."""
    config = config or RankingConfig()
    verdicts = select_for_human_eval(rows, find_cutoff(rows, config), config)
    return {row.name: row for row in apply_selection(rows, verdicts)}


class TestSelection:
    def test_closed_depth_limit_boundary(self):
        # 26 systems: closed limit ceil(26/3) = 9.  A closed system at
        # position 9 qualifies, at position 10 it does not.
        rows = _table(*[1.0 + 0.1 * i for i in range(26)])
        rows[8] = _row("ClosedIn", rows[8].autorank_exact, 9, SystemCategory.CLOSED)
        rows[9] = _row("ClosedOut", rows[9].autorank_exact, 10, SystemCategory.CLOSED)
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
        rows[-1] = _row("Tail", rows[-1].autorank_exact, 20, SystemCategory.CONSTRAINED)
        outcome = _outcome(rows)
        assert outcome["Tail"].selected
        assert outcome["Tail"].reasons == (ReasonCode.SELECTED_CONSTRAINED,)

    def test_withdrawn_always_excluded_but_keeps_position(self):
        # constrained rows dodge the depth limits, isolating withdrawal
        rows = [
            _row("S01", 1.0, 1, SystemCategory.CONSTRAINED, withdrawn=True),
            _row("S02", 1.1, 2, SystemCategory.CONSTRAINED),
            _row("S03", 1.2, 3, SystemCategory.CONSTRAINED),
        ]
        outcome = _outcome(rows)
        assert not outcome["S01"].selected
        assert outcome["S01"].reasons == (ReasonCode.EXCLUDED_WITHDRAWN,)
        # the rows under it are judged at their stated positions
        assert outcome["S02"].selected and outcome["S03"].selected

    def test_below_cutoff_excluded_even_when_constrained(self):
        rows = [
            _row("Top", 1.0, 1, SystemCategory.CONSTRAINED),
            _row("Dropped", 3.0, 2, SystemCategory.CONSTRAINED),
        ]
        assert find_cutoff(rows, RankingConfig()) == 2
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
        rows[2] = _row("C", rows[2].autorank_exact, 3, SystemCategory.CLOSED)
        verdicts = select_for_human_eval(rows, find_cutoff(rows, RankingConfig()), RankingConfig())
        assert len(verdicts) == len(rows)
        for codes in verdicts:
            assert codes
            if codes[0].is_selected:
                assert len(codes) == 1
            else:
                assert all(not code.is_selected for code in codes)

    def test_apply_selection_stamps_rows(self):
        rows = _table(1.0, 1.2, 3.0)
        stamped = apply_selection(rows, select_for_human_eval(rows, 3, RankingConfig()))
        assert [r.above_cutoff for r in stamped] == [True, True, False]
        assert [r.selected for r in stamped] == [True, True, False]
        # S03 is both under the cutoff and past the open depth (floor(6/3)=2)
        assert stamped[2].reasons == (
            ReasonCode.EXCLUDED_BELOW_CUTOFF,
            ReasonCode.EXCLUDED_OPEN_BELOW_TWO_THIRDS,
        )
        # originals untouched
        assert all(r.reasons == () for r in rows)
