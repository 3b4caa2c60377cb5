"""Table rendering: text, Markdown, LaTeX and a JSON report.

All formats present the same view: rows in leaderboard order, a
horizontal rule where the quality cutoff falls, a marker for the
system's track, a dagger for withdrawn systems, a slashed circle for
directions the submitter never claimed, and a checkmark for rows picked
for human evaluation.  Filtering out closed systems keeps every
surviving row's values and verdicts exactly as in the full table; the
cutoff rule is re-derived from the rows' reason codes, never
recomputed.  The JSON report honours the same filter.  Markdown and
LaTeX escape cell text, so a system name cannot break the columns.

The JSON report is the machine-readable golden format: deterministic
key order, rows sorted by position, pairs sorted by code, and every
real number carried as a decimal string.  Its bytes equal
``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)``
plus a final newline.  The standard library's indenting encoder runs in
pure Python, so each row is written from a fixed per-table template
instead: keys in sorted order, metric ids encoded once per table,
strings through the C encoder ``encode_basestring``.  Only the JSON
report imports ``json``; the other formats never load it.

No format rounds: every one prints the ``autorank_display`` the ranker
set on each row.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence
from unicodedata import category, east_asian_width

from .model import (
    LeaderboardTable,
    MetricSpec,
    Orientation,
    RankedRow,
    ReasonCode,
    SystemCategory,
    display_str,  # unused here; kept a module-level name for perfbench/tracer.py
)


class TableFormat(Enum):
    TEXT = "text"
    MARKDOWN = "md"
    LATEX = "latex"
    JSON = "json"


class RenderOptions(NamedTuple):
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

    if options.format is TableFormat.JSON:
        return render_report([table], options.include_closed)
    rows = visible_rows(table, options.include_closed)
    if options.format is TableFormat.TEXT:
        return _render_text(table, rows, options)
    if options.format is TableFormat.MARKDOWN:
        return _render_markdown(table, rows, options)
    return _render_latex(table, rows, options)


def render_report(tables: Sequence[LeaderboardTable], include_closed: bool = True) -> str:
    """Combined JSON report over several pairs, sorted by pair code.

    All tables must share one configuration; it is echoed once at the
    top so a verification run can reproduce the computation.
    """

    import json

    tables = sorted(tables, key=lambda t: t.pair.code)
    if len({table.config for table in tables}) > 1:
        raise ValueError("tables in one report must share a single config")
    if not tables:
        return '{\n  "config": null,\n  "pairs": []\n}\n'
    # the config is a handful of keys; the stdlib lays it out, one level in
    config = json.dumps(tables[0].config.as_dict(), indent=2, sort_keys=True, ensure_ascii=False)
    config = config.replace("\n", "\n  ")
    pairs = ",".join([_pair_json(t, visible_rows(t, include_closed)) for t in tables])
    return '{\n  "config": ' + config + ',\n  "pairs": [' + pairs + "\n  ]\n}\n"


# JSON text of each enum value a row carries, quoted once (the values are
# lowercase ASCII words, which JSON needs no escape for); a reason code
# comes with the newline and indent of its place in "reasons"
_CATEGORY_JSON = {member: f'"{member.value}"' for member in SystemCategory}
_REASON_JSON = {code: "\n" + " " * 12 + f'"{code.value}"' for code in ReasonCode}
_CLOSE_LIST = "\n" + " " * 10 + "]"
_CLOSE_OBJECT = "\n" + " " * 10 + "}"


def _pair_json(table: LeaderboardTable, rows: Sequence[RankedRow]) -> str:
    from json.encoder import encode_basestring

    # one entry of "pairs" as json.dumps(indent=2, sort_keys=True) lays it
    # out at that depth; a float's repr and a pair code need no escaping
    # inside quotes
    cutoff = "null" if table.cutoff_position is None else table.cutoff_position
    head = (
        f'\n    {{\n      "cutoff_position": {cutoff},\n      "n_systems": {table.n_systems},'
        f'\n      "pair": "{table.pair.code}",\n      "rows": '
    )
    if not rows:
        return head + "[]\n    }"
    score_keys = [
        (metric_id, "\n" + " " * 12 + encode_basestring(metric_id) + ': "')
        for metric_id in sorted({m.id for m in table.metrics})
    ]
    texts = []
    for row in rows:
        raw = row.raw_scores
        scores = ",".join([key + repr(raw[metric_id]) + '"' for metric_id, key in score_keys])
        reasons = ",".join([_REASON_JSON[code] for code in row.reasons])
        texts.append(
            f"""
        {{
          "above_cutoff": {"true" if row.above_cutoff else "false"},
          "autorank_display": {encode_basestring(row.autorank_display)},
          "autorank_exact": "{row.autorank_exact!r}",
          "category": {_CATEGORY_JSON[row.category]},
          "claimed_support": {"true" if row.claimed_support else "false"},
          "position": {row.position},
          "reasons": {"[" + reasons + _CLOSE_LIST if reasons else "[]"},
          "scores": {"{" + scores + _CLOSE_OBJECT if scores else "{}"},
          "selected": {"true" if row.selected else "false"},
          "system": {encode_basestring(row.name)},
          "withdrawn": {"true" if row.withdrawn else "false"}
        }}"""
        )
    return head + "[" + ",".join(texts) + "\n      ]\n    }"


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
    cells = [row.autorank_display]
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


class _Columns(dict):
    """Terminal columns of a text; each distinct character is looked up once.

    Combining marks (``Mn``, ``Me``) and format characters (``Cf``, such
    as a zero-width joiner) take none, East-Asian wide and fullwidth
    characters two, everything else one.
    """

    def __missing__(self, char: str) -> int:
        if category(char) in ("Mn", "Me", "Cf"):
            width = 0
        else:
            width = 2 if east_asian_width(char) in ("W", "F") else 1
        self[char] = width
        return width

    def __call__(self, text: str) -> int:
        return sum(map(self.__getitem__, text))


def _render_text(
    table: LeaderboardTable, rows: Sequence[RankedRow], options: RenderOptions
) -> str:
    header = _header_cells(table, options)
    body = [_body_cells(table, row, options) for row in rows]
    columns = _Columns()
    # each cell is measured once
    measured = [(cells, [columns(cell) for cell in cells]) for cells in [header, *body]]
    widths = [max(column) for column in zip(*[sizes for _, sizes in measured])]

    def line(index: int) -> str:
        cells, sizes = measured[index]
        padded = [cells[0] + " " * (widths[0] - sizes[0])]
        padded += [" " * (w - n) + cell for cell, w, n in zip(cells[1:], widths[1:], sizes[1:])]
        return "  ".join(padded).rstrip()

    total = sum(widths) + 2 * (len(widths) - 1)
    cut = _cutoff_index(rows)
    title = f"{table.pair.code}  (N={table.n_systems})"
    header_line = line(0)
    rule = "─" * total
    cutoff_rule = "╌" * total
    out = [title, header_line, rule]
    for i, row in enumerate(rows):
        if cut is not None and i == cut:
            out.append(cutoff_rule)
        rendered = line(i + 1)
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
        cells = [cell.replace("|", "\\|") or " " for cell in _body_cells(table, row, options)]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


# --- latex -------------------------------------------------------------------

_LATEX_CHECK = "\\colorbox{black}{\\textcolor{white}{\\ding{51}}}"
# one translate pass, so the braces a replacement inserts are not escaped again
_LATEX_ESCAPES = str.maketrans(
    {"\\": "\\textbackslash{}", "~": "\\textasciitilde{}", "^": "\\textasciicircum{}"}
    | {char: "\\" + char for char in "&%$#_{}"}
)


def _latex_escape(text: str) -> str:
    return text.translate(_LATEX_ESCAPES)


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
