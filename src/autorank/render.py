"""Table rendering: text, Markdown, LaTeX and a JSON report.

All formats present the same view: rows in leaderboard order, a
horizontal rule where the quality cutoff falls, a marker for the
system's track, a dagger for withdrawn systems, a slashed circle for
directions the submitter never claimed, and a checkmark for rows picked
for human evaluation.  Filtering out closed systems keeps every
surviving row's values and verdicts, and the cutoff rule, exactly as in
the full table.  The JSON report honours the same filter.

Text, Markdown and LaTeX share one cell builder, ``_cells``, which
reads what to print from a look: the plain look of text and Markdown or
the LaTeX look.  Each format is a layout over the cells.  Text pads
every cell by its terminal columns, and only text output loads
``unicodedata``, to measure a non-ASCII character.  Markdown escapes
``|`` in every cell and LaTeX escapes through its look, so no system or
metric name breaks a column.

The JSON report is the machine-readable golden format: deterministic
key order, rows sorted by position, pairs sorted by code, and every
real number carried as a decimal string.  Its bytes equal
``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)``
plus a final newline.  The standard library's indenting encoder runs in
pure Python, so each row is written from a fixed template instead:
keys in sorted order, the score keys of ``model.METRICS`` written once
at import, strings through the C encoder ``encode_basestring``.  Only
the JSON report imports ``json``; the other formats never load it.

The report has one writer, ``report_chunks``: the head with the
config, the rules of ``model._RULES`` written once at import, then
each pair's entry in batches of ``_BATCH`` rows, then the tail.  It
takes each table from its iterable only when it reaches it and drops
it once its last batch is written, so a caller that hands it tables as
they are ranked and writes the chunks as they come holds one table and
one batch of its text at a time, never every table, the whole report
or even one pair's whole entry.  The report lists its
pairs by code.  A ``LanguagePair`` sorts in that order, as its two
halves are fixed two-letter codes, so ``render_report`` sorts the
tables by pair and joins the chunks into one string, and a caller that
ranks the pairs in report order sorts them.

No format rounds: every one prints the ``autorank_display`` the ranker
set on each row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum

from .model import (
    _RULES,
    METRICS,
    LeaderboardTable,
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


# format is a TableFormat; color is ANSI styling, text format only
RenderOptions = namedtuple(
    "RenderOptions", "format include_closed show_reasons color", defaults=[True, False, False]
)


_EXTENSIONS = {
    TableFormat.TEXT: "txt",
    TableFormat.MARKDOWN: "md",
    TableFormat.LATEX: "tex",
    TableFormat.JSON: "json",
}


def file_extension(fmt: TableFormat) -> str:
    return _EXTENSIONS[fmt]


def visible_rows(table: LeaderboardTable, include_closed: bool) -> list[RankedRow]:
    """The rows every format prints; each must hold one score per metric."""
    if {len(row.raw_scores) for row in table.rows} - {len(METRICS)}:
        raise ValueError(f"{table.pair} has a row without one score per metric")
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
        return _render_markdown(rows, options)
    return _render_latex(rows, options)


def render_report(tables: Sequence[LeaderboardTable], include_closed: bool = True) -> str:
    """Combined JSON report over several pairs, sorted by pair code.

    The rules the tables were ranked by head it as its config, so a
    verification run can check a golden against them.
    """

    ordered = sorted(tables, key=lambda table: table.pair)
    return "".join(report_chunks(ordered, include_closed))


def report_chunks(
    tables: Iterable[LeaderboardTable], include_closed: bool = True
) -> Iterator[str]:
    """The text of a JSON report over ``tables``: the head, each pair's
    entry ``_BATCH`` rows at a time, then the tail.

    The pairs are listed in the order ``tables`` gives them; sorted by
    pair, that is ``render_report``'s text.  Each table is read only
    when the iterator reaches it and is dropped once its last batch is
    taken, so a lazy ``tables`` keeps one table alive at a time.  The
    rules head the report as its config; a report with no pair has none.
    """

    comma = None  # until the head is written
    for table in tables:
        if comma is None:
            yield _REPORT_HEAD
            comma = ""
        yield from _pair_json(table, visible_rows(table, include_closed), comma)
        comma = ","
        del table  # so that it is freed before the next table is made
    yield '{\n  "config": null,\n  "pairs": []\n}\n' if comma is None else "\n  ]\n}\n"


# the report up to its first pair: the rules as json.dumps(indent=2,
# sort_keys=True) lays them out one level in; each value is an int or a
# string JSON needs no escape for
_REPORT_HEAD = (
    '{\n  "config": {'
    + ",".join(
        f'\n    "{key}": ' + (f'"{value}"' if isinstance(value, str) else f"{value}")
        for key, value in sorted(_RULES.items())
    )
    + '\n  },\n  "pairs": ['
)


# JSON text of each enum value a row carries, quoted once (the values are
# lowercase ASCII words, which JSON needs no escape for); a reason code
# comes with the newline and indent of its place in "reasons"
_CATEGORY_JSON = {member: f'"{member.value}"' for member in SystemCategory}
_REASON_JSON = {code: "\n" + " " * 12 + f'"{code.value}"' for code in ReasonCode}
_CLOSE_LIST = "\n" + " " * 10 + "]"
_CLOSE_OBJECT = "\n" + " " * 10 + "}"
# each key of a row's "scores" up to its value's quote, and the index of
# the value in raw_scores; the ids need no JSON escape and sort the texts
_SCORE_KEYS = sorted((f'\n{" " * 12}"{m.id}": "', i) for i, m in enumerate(METRICS))


# rows of a pair written in one chunk: about 8 KB of text
_BATCH = 16


def _pair_json(table: LeaderboardTable, rows: Sequence[RankedRow], comma: str) -> Iterator[str]:
    """One entry of "pairs", ``comma`` before it, ``_BATCH`` rows at a time."""

    from json.encoder import encode_basestring

    # the entry as json.dumps(indent=2, sort_keys=True) lays it out at that
    # depth; a float's repr and a pair code need no escaping inside quotes
    cutoff = "null" if table.cutoff_position is None else table.cutoff_position
    head = (
        f'{comma}\n    {{\n      "cutoff_position": {cutoff},'
        f'\n      "n_systems": {table.n_systems},\n      "pair": "{table.pair.code}",'
        '\n      "rows": '
    )
    if not rows:
        yield head + "[]\n    }"
        return
    texts = [head, "["]
    sep = ""  # before every row but the first
    for start in range(0, len(rows), _BATCH):
        for row in rows[start : start + _BATCH]:
            raw = row.raw_scores
            scores = ",".join([key + repr(raw[i]) + '"' for key, i in _SCORE_KEYS])
            reasons = ",".join([_REASON_JSON[code] for code in row.reasons])
            texts.append(
                f"""{sep}
        {{
          "above_cutoff": {"true" if row.above_cutoff else "false"},
          "autorank_display": {encode_basestring(row.autorank_display)},
          "autorank_exact": "{row.autorank_exact!r}",
          "category": {_CATEGORY_JSON[row.category]},
          "claimed_support": {"true" if row.claimed_support else "false"},
          "position": {row.position},
          "reasons": {"[" + reasons + _CLOSE_LIST if reasons else "[]"},
          "scores": {"{" + scores + _CLOSE_OBJECT},
          "selected": {"true" if row.selected else "false"},
          "system": {encode_basestring(row.name)},
          "withdrawn": {"true" if row.withdrawn else "false"}
        }}"""
            )
            sep = ","
        if start + _BATCH >= len(rows):
            texts.append("\n      ]\n    }")
        yield "".join(texts)
        texts = []


# What a format prints in the cells; _cells reads it as data.  _PLAIN
# says what each field holds.
_Look = namedtuple("_Look", "escape header arrows human markers unsupported dagger check")


_PLAIN = _Look(
    escape=str,  # applied to names and reason codes
    header="{}",  # template of every header cell
    arrows={Orientation.LOWER_BETTER: "↓", Orientation.HIGHER_BETTER: "↑"},
    human="Human eval?",  # label of the human-evaluation column
    markers={  # prefix of the name cell, per track
        SystemCategory.CLOSED: "● ",  # dark marker
        SystemCategory.OPEN: "○ ",  # light marker
        SystemCategory.CONSTRAINED: "  ",
    },
    unsupported="⊘ {}",  # template of a name whose direction was never claimed
    dagger=" †",  # suffix of a withdrawn system's name
    check="✓",  # the cell of a row picked for human evaluation
)
# one translate pass, so the braces a replacement inserts are not escaped again
_LATEX_ESCAPES = str.maketrans(
    {"\\": "\\textbackslash{}", "~": "\\textasciitilde{}", "^": "\\textasciicircum{}"}
    | {char: "\\" + char for char in "&%$#_{}"}
)
_LATEX = _Look(
    escape=lambda text: text.translate(_LATEX_ESCAPES),
    header="\\bf {}",
    arrows={Orientation.LOWER_BETTER: "$\\downarrow$", Orientation.HIGHER_BETTER: "$\\uparrow$"},
    human="Human evaluation?",
    markers=dict.fromkeys(SystemCategory, ""),
    unsupported="\\nonsupporting{{{}}}",
    dagger=" $\\dagger$",
    check="\\colorbox{black}{\\textcolor{white}{\\ding{51}}}",
)


def _cells(
    rows: list[RankedRow], options: RenderOptions, look: _Look
) -> tuple[list[str], list[list[str]]]:
    """The header cells and each row's cells, in column order."""

    escape, arrows = look.escape, look.arrows
    header = ["System Name", "AutoRank " + arrows[Orientation.LOWER_BETTER]]
    header += [f"{escape(m.display_name)} {arrows[m.orientation]}" for m in METRICS]
    header += [look.human, "Reasons"][: 1 + options.show_reasons]
    body = []
    for row in rows:
        name = escape(row.name)
        if not row.claimed_support:
            name = look.unsupported.format(name)
        if row.withdrawn:
            name += look.dagger
        cells = [look.markers[row.category] + name, row.autorank_display]
        cells += map(repr, row.raw_scores)
        cells.append(look.check if row.selected else "")
        if options.show_reasons:
            cells.append(escape(", ".join([code.value for code in row.reasons])))
        body.append(cells)
    return [look.header.format(cell) for cell in header], body


def _with_cutoff(lines: list[str], rows: list[RankedRow], rule: str) -> list[str]:
    """``lines``, one per row, with ``rule`` before the first row under the cutoff."""

    for i, row in enumerate(rows):
        if not row.above_cutoff:
            return [*lines[:i], rule, *lines[i:]]
    return lines


# --- text ------------------------------------------------------------------

_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


class _Columns(dict):
    """Terminal columns of a text; each distinct character is looked up once.

    Combining marks (``Mn``, ``Me``) and format characters (``Cf``, such
    as a zero-width joiner) take none, East-Asian wide and fullwidth
    characters two, everything else one.  Every ASCII character, control
    characters included, is in the last group, so an ASCII text takes
    its length and never loads ``unicodedata``.
    """

    def __missing__(self, char: str) -> int:
        from unicodedata import category, east_asian_width

        if category(char) in ("Mn", "Me", "Cf"):
            width = 0
        else:
            width = 2 if east_asian_width(char) in ("W", "F") else 1
        self[char] = width
        return width

    def __call__(self, text: str) -> int:
        return len(text) if text.isascii() else sum(map(self.__getitem__, text))


# one cache for every table: the widths of a character never change
_COLUMNS = _Columns()


def _render_text(table: LeaderboardTable, rows: list[RankedRow], options: RenderOptions) -> str:
    header, body = _cells(rows, options, _PLAIN)
    sizes = [[_COLUMNS(cell) for cell in cells] for cells in [header, *body]]
    widths = list(map(max, zip(*sizes)))

    def line(cells: list[str], columns: list[int]) -> str:
        first, *rest = [" " * (width - n) for width, n in zip(widths, columns)]
        return "  ".join([cells[0] + first, *map(str.__add__, rest, cells[1:])]).rstrip()

    header_line, *lines = map(line, [header, *body], sizes)
    if options.color:
        header_line = f"{_BOLD}{header_line}{_RESET}"
        for i, row in enumerate(rows):
            if row.withdrawn:
                lines[i] = f"{_DIM}{lines[i]}{_RESET}"
            elif row.selected:
                # the check is the line's last ✓: names come first, reason codes are ASCII
                head, check, tail = lines[i].rpartition(_PLAIN.check)
                lines[i] = f"{head}{_GREEN}{check}{_RESET}{tail}"
    total = sum(widths) + 2 * (len(widths) - 1)
    out = [f"{table.pair.code}  (N={table.n_systems})", header_line, "─" * total]
    return "\n".join(out + _with_cutoff(lines, rows, "╌" * total)) + "\n"


# --- markdown ---------------------------------------------------------------


def _markdown_line(cells: list[str]) -> str:
    return "| " + " | ".join([cell.replace("|", "\\|") or " " for cell in cells]) + " |"


def _render_markdown(rows: list[RankedRow], options: RenderOptions) -> str:
    header, body = _cells(rows, options, _PLAIN)
    aligns = [":---", "---:", *["---:"] * len(METRICS), ":---:", ":---"][: len(header)]
    lines = [_markdown_line(cells) for cells in body]
    out = [_markdown_line(header), _markdown_line(aligns)]
    out += _with_cutoff(lines, rows, _markdown_line(["╌╌╌"] * len(header)))
    return "\n".join(out) + "\n"


# --- latex -------------------------------------------------------------------

# the macro around each row of a track; constrained rows stand bare
_TRACKS = {SystemCategory.CLOSED: "\\closedtrack{{{}}}", SystemCategory.OPEN: "\\opentrack{{{}}}"}


def _render_latex(rows: list[RankedRow], options: RenderOptions) -> str:
    header, body = _cells(rows, options, _LATEX)
    # name, autorank, metrics, checkmark and reasons
    spec = ["R{40mm}", *["C{22mm}"] * (2 + len(METRICS)), "C{40mm}"][: len(header)]
    wraps = [_TRACKS.get(row.category, "{}") for row in rows]
    lines = [wrap.format(" & ".join(cells)) + " \\\\" for wrap, cells in zip(wraps, body)]
    out = [f"\\begin{{tabular}}{{{''.join(spec)}}}", " & ".join(header) + " \\\\", "\\toprule"]
    out += _with_cutoff(lines, rows, "\\midrule")
    return "\n".join(out + ["\\bottomrule", "\\end{tabular}"]) + "\n"
