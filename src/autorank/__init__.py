"""Leaderboard engine for multi-metric MT evaluation.

Ingests per-system automatic metric scores, aggregates them onto a
common rank scale, applies the human-evaluation selection rules, and
renders the result as text, Markdown, LaTeX or a JSON report.
"""

from .golden import PairComparison, compare_pair, parse_allow_list, validate_golden_pair
from .ingest import (
    Manifest,
    ParseError,
    check_completeness,
    parse_manifest,
    parse_registry,
    parse_scores,
    serialize_manifest,
    serialize_registry,
    serialize_scores,
)
from .model import (
    DEFAULT_METRICS,
    LanguagePair,
    LeaderboardTable,
    MetricSpec,
    Orientation,
    RankedRow,
    RankingConfig,
    ReasonCode,
    ScaleSpan,
    ScoreRecord,
    SystemCategory,
    SystemEntry,
    display_str,
    round_display,
)
from .pipeline import pairs_in, rank_pair
from .ranking import (
    NormalizationContext,
    build_context,
    compute_autorank,
    normalize_score,
    order_rows,
)
from .render import (
    RenderOptions,
    TableFormat,
    file_extension,
    render_report,
    render_table,
    visible_rows,
)
from .selection import (
    SelectionOutcome,
    apply_selection,
    category_limits,
    find_cutoff,
    select_for_human_eval,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_METRICS",
    "LanguagePair",
    "LeaderboardTable",
    "Manifest",
    "MetricSpec",
    "NormalizationContext",
    "Orientation",
    "PairComparison",
    "ParseError",
    "RankedRow",
    "RankingConfig",
    "ReasonCode",
    "RenderOptions",
    "ScaleSpan",
    "ScoreRecord",
    "SelectionOutcome",
    "SystemCategory",
    "SystemEntry",
    "TableFormat",
    "apply_selection",
    "build_context",
    "category_limits",
    "check_completeness",
    "compare_pair",
    "compute_autorank",
    "display_str",
    "file_extension",
    "find_cutoff",
    "normalize_score",
    "order_rows",
    "pairs_in",
    "parse_allow_list",
    "parse_manifest",
    "parse_registry",
    "parse_scores",
    "rank_pair",
    "render_report",
    "render_table",
    "round_display",
    "select_for_human_eval",
    "serialize_manifest",
    "serialize_registry",
    "serialize_scores",
    "validate_golden_pair",
    "visible_rows",
    "__version__",
]
