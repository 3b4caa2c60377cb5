"""Leaderboard engine for multi-metric MT evaluation.

Ingests per-system automatic metric scores, aggregates them onto a
common rank scale, applies the human-evaluation selection rules, and
renders the result as text, Markdown, LaTeX or a JSON report.
"""

from .golden import compare_pair, parse_allow_list, parse_golden
from .ingest import (
    ParseError,
    parse_manifest,
    parse_registry,
    parse_scores,
)
from .model import (
    LanguagePair,
    LeaderboardTable,
    RankedRow,
    ReasonCode,
    SystemCategory,
    SystemEntry,
)
from .pipeline import rank_pair
from .render import RenderOptions, TableFormat, render_report, render_table

__version__ = "0.1.0"

__all__ = [
    "LanguagePair",
    "LeaderboardTable",
    "ParseError",
    "RankedRow",
    "ReasonCode",
    "RenderOptions",
    "SystemCategory",
    "SystemEntry",
    "TableFormat",
    "compare_pair",
    "parse_allow_list",
    "parse_golden",
    "parse_manifest",
    "parse_registry",
    "parse_scores",
    "rank_pair",
    "render_report",
    "render_table",
    "__version__",
]
