"""Table rendering: text, Markdown, LaTeX and a JSON report.

All formats present the same view: rows in leaderboard order, a
horizontal rule where the quality cutoff falls, a marker for the
system's track, a dagger for withdrawn systems, a slashed circle for
directions the submitter never claimed, and a checkmark for rows picked
for human evaluation.  Filtering out closed systems keeps every
surviving row's values and verdicts exactly as in the full table; the
cutoff rule is re-derived from the stored above/below flags, never
recomputed.

The JSON report is the machine-readable golden format: deterministic
key order, rows sorted by position, pairs sorted by code, and every
real number carried as a decimal string.  Its bytes equal
``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)``
plus a final newline; a small layout function writes them because the
standard library's indenting encoder runs in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from typing import Iterable, Sequence

from .model import (
    LeaderboardTable,
    MetricSpec,
    Orientation,
    RankedRow,
    SystemCategory,
    display_str,
)


class TableFormat(Enum):
    TEXT = "text"
    MARKDOWN = "md"
    LATEX = "latex"
    JSON = "json"


@dataclass(frozen=True)
class RenderOptions:
    format: TableFormat
    include_closed: bool = True
    show_reasons: bool = False
    color: bool = False  # ANSI styling, text format only


_EXTENSIONS = {
    TableFormat.TEXT: "txt",
    TableFormat.MARKDOWN: "md",
    TableFormat.LATEX: "tex",
    TableFormat.JSON: "json",
}


def file_extension(fmt: TableFormat) -> str:
    return _EXTENSIONS[fmt]


def visible_rows(table: LeaderboardTable, include_closed: bool) -> list[RankedRow]:
    if include_closed:
        return list(table.rows)
    return [row for row in table.rows if row.category is not SystemCategory.CLOSED]


def render_table(table: LeaderboardTable, options: RenderOptions) -> str:
    """Render one pair's table in the requested format."""

    rows = visible_rows(table, options.include_closed)
    if options.format is TableFormat.TEXT:
        return _render_text(table, rows, options)
    if options.format is TableFormat.MARKDOWN:
        return _render_markdown(table, rows, options)
    if options.format is TableFormat.LATEX:
        return _render_latex(table, rows, options)
    return _dump_json({"config": table.config.as_dict(), "pairs": [_pair_dict(table, rows)]})


def render_report(tables: Sequence[LeaderboardTable]) -> str:
    """Combined JSON report over several pairs, sorted by pair code.

    All tables must share one configuration; it is echoed once at the
    top so a verification run can reproduce the computation.
    """

    tables = sorted(tables, key=lambda t: t.pair.code)
    config = None
    for table in tables:
        if config is None:
            config = table.config
        elif table.config != config:
            raise ValueError("tables in one report must share a single config")
    config_dict = config.as_dict() if config is not None else None
    return _dump_json(
        {"config": config_dict, "pairs": [_pair_dict(t, list(t.rows)) for t in tables]}
    )


def _dump_json(payload: object) -> str:
    return _layout(payload, "\n") + "\n"


def _layout(value: object, newline: str) -> str:
    # json.dumps(indent=2, sort_keys=True, ensure_ascii=False) for the
    # types a report holds; strings go through the C encoder
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring(key)}: {_layout(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_layout(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _pair_dict(table: LeaderboardTable, rows: Iterable[RankedRow]) -> dict[str, object]:
    return {
        "pair": table.pair.code,
        "n_systems": table.n_systems,
        "cutoff_position": table.cutoff_position,
        "rows": [_row_dict(table, row) for row in rows],
    }


def _row_dict(table: LeaderboardTable, row: RankedRow) -> dict[str, object]:
    decimals = table.config.display_decimals
    return {
        "system": row.name,
        "category": row.category.value,
        "withdrawn": row.withdrawn,
        "claimed_support": row.claimed_support,
        "scores": {m.id: repr(row.raw_scores[m.id]) for m in table.metrics},
        "autorank_exact": repr(row.autorank_exact),
        "autorank_display": display_str(row.autorank_exact, decimals),
        "position": row.position,
        "above_cutoff": row.above_cutoff,
        "selected": row.selected,
        "reasons": [reason.value for reason in row.reasons],
    }


# --- shared cell helpers ---------------------------------------------------

_MARKERS = {
    SystemCategory.CLOSED: "●",  # dark marker
    SystemCategory.OPEN: "○",  # light marker
    SystemCategory.CONSTRAINED: " ",
}
_CHECK = "✓"
_DAGGER = "†"
_NO_SUPPORT = "⊘"


def _name_cell(row: RankedRow) -> str:
    name = row.name
    if not row.claimed_support:
        name = f"{_NO_SUPPORT} {name}"
    if row.withdrawn:
        name = f"{name} {_DAGGER}"
    return f"{_MARKERS[row.category]} {name}"


def _metric_header(metric: MetricSpec) -> str:
    arrow = "↓" if metric.orientation is Orientation.LOWER_BETTER else "↑"
    return f"{metric.display_name} {arrow}"


def _score_cells(table: LeaderboardTable, row: RankedRow, check: str = _CHECK) -> list[str]:
    decimals = table.config.display_decimals
    cells = [display_str(row.autorank_exact, decimals)]
    cells.extend(repr(row.raw_scores[m.id]) for m in table.metrics)
    cells.append(check if row.selected else "")
    return cells


def _reason_cell(row: RankedRow) -> str:
    return ", ".join(reason.value for reason in row.reasons)


def _header_cells(table: LeaderboardTable, options: RenderOptions) -> list[str]:
    cells = ["System Name", "AutoRank ↓"]
    cells.extend(_metric_header(m) for m in table.metrics)
    cells.append("Human eval?")
    if options.show_reasons:
        cells.append("Reasons")
    return cells


def _body_cells(table: LeaderboardTable, row: RankedRow, options: RenderOptions) -> list[str]:
    cells = [_name_cell(row)] + _score_cells(table, row)
    if options.show_reasons:
        cells.append(_reason_cell(row))
    return cells


def _cutoff_index(rows: Sequence[RankedRow]) -> int | None:
    # first retained row that fell under the quality line
    for i, row in enumerate(rows):
        if not row.above_cutoff:
            return i
    return None


# --- text ------------------------------------------------------------------

_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


def _render_text(
    table: LeaderboardTable, rows: Sequence[RankedRow], options: RenderOptions
) -> str:
    header = _header_cells(table, options)
    body = [_body_cells(table, row, options) for row in rows]
    widths = [len(cell) for cell in header]
    for cells in body:
        widths = [max(w, len(cell)) for w, cell in zip(widths, cells)]

    def line(cells: list[str]) -> str:
        padded = [
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(cells, widths))
        ]
        return "  ".join(padded).rstrip()

    total = sum(widths) + 2 * (len(widths) - 1)
    cut = _cutoff_index(rows)
    title = f"{table.pair.code}  (N={table.n_systems})"
    header_line = line(header)
    rule = "─" * total
    cutoff_rule = "╌" * total
    out = [title, header_line, rule]
    for i, (row, cells) in enumerate(zip(rows, body)):
        if cut is not None and i == cut:
            out.append(cutoff_rule)
        rendered = line(cells)
        if options.color:
            if row.withdrawn:
                rendered = f"{_DIM}{rendered}{_RESET}"
            elif row.selected:
                rendered = rendered.replace(_CHECK, f"{_GREEN}{_CHECK}{_RESET}")
        out.append(rendered)
    if options.color:
        out[1] = f"{_BOLD}{header_line}{_RESET}"
    return "\n".join(out) + "\n"


# --- markdown ---------------------------------------------------------------


def _render_markdown(
    table: LeaderboardTable, rows: Sequence[RankedRow], options: RenderOptions
) -> str:
    header = _header_cells(table, options)
    aligns = [":---"] + ["---:"] * (1 + len(table.metrics)) + [":---:"]
    if options.show_reasons:
        aligns.append(":---")
    out = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join(aligns) + " |",
    ]
    cut = _cutoff_index(rows)
    for i, row in enumerate(rows):
        if cut is not None and i == cut:
            out.append("| " + " | ".join(["╌╌╌"] * len(header)) + " |")
        cells = _body_cells(table, row, options)
        out.append("| " + " | ".join(cell if cell else " " for cell in cells) + " |")
    return "\n".join(out) + "\n"


# --- latex -------------------------------------------------------------------

_LATEX_CHECK = "\\colorbox{black}{\\textcolor{white}{\\ding{51}}}"


def _latex_escape(text: str) -> str:
    for char in "&%$#_{}":
        text = text.replace(char, "\\" + char)
    return text


def _latex_name(row: RankedRow) -> str:
    name = _latex_escape(row.name)
    if not row.claimed_support:
        name = f"\\nonsupporting{{{name}}}"
    if row.withdrawn:
        name = f"{name} $\\dagger$"
    return name


def _render_latex(
    table: LeaderboardTable, rows: Sequence[RankedRow], options: RenderOptions
) -> str:
    n_value_columns = 2 + len(table.metrics)  # autorank + metrics + checkmark
    column_spec = "R{40mm}" + "C{22mm}" * n_value_columns
    header = ["\\bf System Name", "\\bf AutoRank $\\downarrow$"]
    for metric in table.metrics:
        arrow = "\\downarrow" if metric.orientation is Orientation.LOWER_BETTER else "\\uparrow"
        header.append(f"\\bf {_latex_escape(metric.display_name)} ${arrow}$")
    header.append("\\bf Human evaluation?")
    if options.show_reasons:
        header.append("\\bf Reasons")
        column_spec += "C{40mm}"

    out = [f"\\begin{{tabular}}{{{column_spec}}}", " & ".join(header) + " \\\\", "\\toprule"]
    cut = _cutoff_index(rows)
    for i, row in enumerate(rows):
        if cut is not None and i == cut:
            out.append("\\midrule")
        cells = [_latex_name(row)] + _score_cells(table, row, _LATEX_CHECK)
        if options.show_reasons:
            cells.append(_latex_escape(_reason_cell(row)))
        core = " & ".join(cells)
        if row.category is SystemCategory.CLOSED:
            core = f"\\closedtrack{{{core}}}"
        elif row.category is SystemCategory.OPEN:
            core = f"\\opentrack{{{core}}}"
        out.append(f"{core} \\\\")
    out.append("\\bottomrule")
    out.append("\\end{tabular}")
    return "\n".join(out) + "\n"
