"""TSV ingestion.

Three tab-separated formats, all UTF-8 with LF line endings and an
exact header line:

registry    system<TAB>category<TAB>withdrawn<TAB>unsupported_pairs
scores      pair<TAB>system<TAB>metric<TAB>score
manifest    pair<TAB>segments<TAB>words

The parsers are strict: wrong column counts, unknown columns, duplicate
keys, unregistered names and malformed values are all rejected with the
1-based line number.

``parse_scores`` holds each pair's scores as columns: a tuple of the
pair's systems and one ``array('d')`` per metric of ``model.METRICS``,
NaN where a system has no score for the metric.  The ``metric`` column
of a scores file holds one of those two ids.  ``check_completeness``
takes the columns as they are.  While it runs, the parse numbers each
scored system once for the whole file and finds a system's slot in a
pair through the pair's ``array('i')`` table indexed by that number: 4
bytes per pair and number, so it holds less than a name -> slot dict
per pair unless a pair scores under about 1 in 12 of the file's
systems.

Each parser takes the text as a ``str`` or as an open text file (opened
with ``encoding="utf-8", newline=""`` to read what is stored).  A file
is read in blocks of ``io.DEFAULT_BUFFER_SIZE`` characters and cut into
lines by the same loop that cuts a ``str``, so neither the whole text
nor a list of every line is held.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from collections.abc import Iterator, Mapping, Sequence
from functools import partial
from io import DEFAULT_BUFFER_SIZE, TextIOBase
from itertools import chain, compress, repeat

from .model import _NUMBER, METRICS, LanguagePair, SystemCategory, SystemEntry

REGISTRY_HEADER = "system\tcategory\twithdrawn\tunsupported_pairs"
SCORES_HEADER = "pair\tsystem\tmetric\tscore"
MANIFEST_HEADER = "pair\tsegments\twords"

# a nonzero score under the smallest normal float would lose its digits
_NONZERO_MANTISSA = re.compile(r"^[^eE]*[1-9]")
_SMALLEST_NORMAL = sys.float_info.min


class ParseError(ValueError):
    """A rejected input line; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# _rows reads the text in blocks of this many characters, what a text
# file's own buffer reads at a time, and cuts them into lines, so neither
# the whole text of a file nor a list of every line is ever held
_BLOCK = DEFAULT_BUFFER_SIZE


def _blocks(text: str | TextIOBase) -> Iterator[str]:
    """``text`` in pieces of ``_BLOCK`` characters, the last one shorter."""

    if isinstance(text, str):
        return (text[start : start + _BLOCK] for start in range(0, len(text), _BLOCK))
    return iter(partial(text.read, _BLOCK), "")


def _line_blocks(text: str | TextIOBase) -> Iterator[list[str]]:
    """The lines of ``text``, less one final newline, a block at a time."""

    pieces: list[str] = []  # a line that runs on past the blocks read so far
    cut = False
    # no name holds a block once it is split
    for lines in map(str.split, _blocks(text), repeat("\n")):
        pieces.append(lines[0])
        if len(lines) > 1:
            lines[0] = "".join(pieces)
            pieces = [lines.pop()]
            cut = True
            yield lines
            del lines  # so that it is freed before the next block is read
    last = "".join(pieces)
    if last or not cut:
        yield [last]


def _rows(text: str | TextIOBase, header: str) -> Iterator[tuple[int, list[str]]]:
    lines = chain.from_iterable(_line_blocks(text))
    first = next(lines)
    if first != header:
        bom = " (the file starts with a UTF-8 byte-order mark)" if first[:1] == "\ufeff" else ""
        raise ParseError(1, f"expected header {header!r}{bom}")
    width = header.count("\t") + 1
    for number, line in enumerate(lines, start=2):
        fields = line.split("\t")
        if len(fields) != width:
            raise ParseError(number, f"expected {width} tab-separated columns, got {len(fields)}")
        yield number, fields


def _parse_pair(token: str, line: int) -> LanguagePair:
    try:
        return LanguagePair.from_code(token)
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None


def _parse_pair_set(token: str, line: int) -> frozenset[LanguagePair]:
    if not token:
        return frozenset()
    return frozenset(_parse_pair(part, line) for part in token.split(","))


def parse_registry(text: str | TextIOBase) -> dict[str, SystemEntry]:
    """Parse the system registry into name -> entry, in file order.

    The withdrawn column is "0" (not withdrawn), "1" (withdrawn from
    every pair), or a comma-separated list of pair codes the system was
    withdrawn from.  Every later stage takes this mapping as it is.
    """

    registry: dict[str, SystemEntry] = {}
    for line, (name, category_token, withdrawn_token, unsupported_token) in _rows(
        text, REGISTRY_HEADER
    ):
        if not name:
            raise ParseError(line, "empty system name")
        if name in registry:
            raise ParseError(line, f"duplicate system name {name!r}")
        try:
            category = SystemCategory(category_token)
        except ValueError:
            raise ParseError(line, f"unknown category {category_token!r}") from None
        withdrawn, withdrawn_pairs = withdrawn_token == "1", frozenset()
        if withdrawn_token not in ("0", "1"):
            malformed = f"malformed withdrawn flag {withdrawn_token!r}"
            try:
                withdrawn_pairs = _parse_pair_set(withdrawn_token, line)
            except ParseError:
                raise ParseError(line, f"{malformed} (want 0, 1 or pair codes)") from None
            if not withdrawn_pairs:
                raise ParseError(line, malformed)
        unsupported_pairs = _parse_pair_set(unsupported_token, line)
        try:
            registry[name] = SystemEntry(
                name, category, withdrawn, withdrawn_pairs, unsupported_pairs
            )
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
    return registry


def parse_scores(
    text: str | TextIOBase, registry: Mapping[str, SystemEntry]
) -> dict[LanguagePair, tuple[tuple[str, ...], tuple[array, ...]]]:
    """Parse a scores file into pair -> (names, columns).

    ``names`` holds the pair's participants in the order they first
    appear, and ``columns`` one ``array('d')`` per metric, in
    ``METRICS`` order, whose slot i is ``names[i]``'s score.  A hole, a
    participant with no score for a metric, is a NaN slot: scores are
    finite, so NaN is never a score.  Pairs keep the order they first
    appear in.

    ``registry`` is ``parse_registry``'s name -> entry mapping.  Rejects
    unknown systems, unknown metrics, non-finite or non-numeric scores,
    nonzero scores too small for a normal float (they would read as
    zero or lose digits), and duplicate (pair, system, metric) triples.
    Each distinct pair token is parsed once.
    """

    # each scored name's number: one count for the whole file, in the
    # order the names first appear, keyed by the registry's own string
    numbers: dict[str, int] = {}
    # pair token -> (pair, names, slots, metric id -> column); a valid
    # token is its pair's code, so each pair has one entry.  A pair's
    # slots map a name's number to its slot in names and the columns, -1
    # where the name has no slot yet; they run up to the file's count
    # when the pair last met a name past their end
    parsed: dict[str, tuple[LanguagePair, list[str], array, dict[str, array]]] = {}
    for line, (pair_token, system_token, metric_token, score_token) in _rows(text, SCORES_HEADER):
        entry = parsed.get(pair_token)
        if entry is None:
            columns = {metric.id: array("d") for metric in METRICS}
            entry = parsed[pair_token] = _parse_pair(pair_token, line), [], array("i"), columns
        _, names, slots, columns = entry
        number = numbers.get(system_token)
        if number is None:
            if system_token not in registry:
                raise ParseError(line, f"unknown system {system_token!r}")
            number = numbers[registry[system_token].name] = len(numbers)
        try:
            slot = slots[number]
        except IndexError:
            slots.fromlist([-1] * (len(numbers) - len(slots)))
            slot = -1
        if slot < 0:
            slot = slots[number] = len(names)
            # the registry's own string: every pair shares one copy
            names.append(registry[system_token].name)
        column = columns.get(metric_token)
        if column is None:
            raise ParseError(line, f"unknown metric {metric_token!r}")
        if not _NUMBER.fullmatch(score_token):
            raise ParseError(line, f"malformed score {score_token!r}")
        score = float(score_token)
        if not math.isfinite(score):
            raise ParseError(line, f"score must be finite, got {score_token!r}")
        if abs(score) < _SMALLEST_NORMAL and _NONZERO_MANTISSA.match(score_token):
            raise ParseError(
                line,
                f"score {score_token!r} is too small for a float: a nonzero score needs"
                f" a magnitude of at least {_SMALLEST_NORMAL!r}",
            )
        # a column reaches a slot when the slot is first scored; the slots
        # it passes over are holes until then
        missing = slot - len(column)
        if missing >= 0:
            if missing:
                column.fromlist([math.nan] * missing)
            column.append(score)
        elif not math.isnan(column[slot]):
            raise ParseError(
                line, f"duplicate score for {pair_token}/{system_token}/{metric_token}"
            )
        else:
            column[slot] = score
    scores = {}
    for pair_token in list(parsed):
        # each pair's list of names and its slots go as its entry is made
        pair, names, _, columns = parsed.pop(pair_token)
        for column in columns.values():
            column.fromlist([math.nan] * (len(names) - len(column)))
        scores[pair] = tuple(names), tuple(columns.values())
    return scores


def parse_manifest(text: str | TextIOBase) -> dict[LanguagePair, tuple[int, int]]:
    """Parse the evaluation-data manifest into pair -> (segments, words).

    Both counts must be positive integers.  Ranking only checks that a
    pair is listed; the counts are validated but not used.
    """

    entries: dict[LanguagePair, tuple[int, int]] = {}
    for line, (pair_token, segments_token, words_token) in _rows(text, MANIFEST_HEADER):
        pair = _parse_pair(pair_token, line)
        if pair in entries:
            raise ParseError(line, f"duplicate manifest entry for {pair}")
        counts = []
        for label, token in (("segments", segments_token), ("words", words_token)):
            # str.isdigit also holds for "²" and "٣", which int() rejects or reads
            if not (token.isascii() and token.isdigit()) or int(token) <= 0:
                raise ParseError(line, f"{label} must be a positive integer, got {token!r}")
            counts.append(int(token))
        entries[pair] = (counts[0], counts[1])
    return entries


def check_completeness(
    names: Sequence[str],
    columns: Sequence[Sequence[float]],
    registry: Mapping[str, SystemEntry],
    pair: LanguagePair,
) -> None:
    """Check that ``pair``'s scores are rankable.

    ``names`` and ``columns`` are the pair's entry as ``parse_scores``
    returns it: the participants, and per metric of ``METRICS`` a
    column whose slot i is ``names[i]``'s score, NaN for a hole.  A
    system that is not named did not take part, so a pair with no
    names passes.  ``registry`` is ``parse_registry``'s name -> entry
    mapping.  Scores that pass cannot fail in ``ranking.build_context``
    or any later stage.

    Raises:
        ValueError: a column count other than ``len(METRICS)``, a
            column length other than ``len(names)``, a name listed
            twice, a named system missing from ``registry``, an
            infinite score, a hole, or a metric whose best and worst
            scores lie further apart than a float can hold.  The first
            of these found, in that order, is raised.
    """

    if len(columns) != len(METRICS):
        raise ValueError(f"{pair} has {len(columns)} score columns for {len(METRICS)} metrics")
    for metric, column in zip(METRICS, columns):
        if len(column) != len(names):
            raise ValueError(
                f"{pair} {metric.id} column has {len(column)} scores for {len(names)} systems"
            )
    if len(set(names)) != len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"{pair} lists system {twice!r} twice")
    for system in names:
        if system not in registry:
            raise ValueError(f"system {system!r} has scores but no registry entry")
    for metric, column in zip(METRICS, columns):
        # the first infinite score, if there is one, raises
        for system, score in compress(zip(names, column), map(math.isinf, column)):
            raise ValueError(f"{pair} score for {system}/{metric.id} is not finite: {score!r}")
    # (system, metric index) of each hole, by system and then in METRICS order
    holes = sorted(
        (system, index)
        for index, column in enumerate(columns)
        for system in compress(names, map(math.isnan, column))
    )
    if holes:
        listed = ", ".join(f"{system}/{METRICS[index].id}" for system, index in holes)
        raise ValueError(f"{pair} is not rankable, missing scores: {listed}")
    if not names:
        return
    for metric, column in zip(METRICS, columns):
        low, high = min(column), max(column)
        # best - worst would be inf, and inf / inf a NaN aggregate
        if not math.isfinite(high - low):
            raise ValueError(
                f"{pair} score range for {metric.id} is not finite: {low!r} to {high!r}"
            )
