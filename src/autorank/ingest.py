"""TSV ingestion.

Three tab-separated formats, all UTF-8 with LF line endings and an
exact header line:

registry    system<TAB>category<TAB>withdrawn<TAB>unsupported_pairs
scores      pair<TAB>system<TAB>metric<TAB>score
manifest    pair<TAB>segments<TAB>words

The parsers are strict: wrong column counts, unknown columns, duplicate
keys, unregistered names and malformed values are all rejected with the
1-based line number.

Each parser takes the text as a ``str`` or as an open text file (opened
with ``encoding="utf-8", newline=""`` to read what is stored).  A file
is read in blocks and cut into lines by the same loop that cuts a
``str``, so neither the whole text nor a list of every line is held.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator, Mapping, Sequence
from functools import partial
from io import TextIOBase
from itertools import chain, repeat

from .model import _NUMBER, LanguagePair, MetricSpec, SystemCategory, SystemEntry

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


# _rows reads the text in blocks of this many characters and cuts them
# into lines, so neither the whole text of a file nor a list of every
# line is ever held
_BLOCK = 1 << 16


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
    text: str | TextIOBase,
    registry: Mapping[str, SystemEntry],
    metrics: Sequence[MetricSpec],
) -> dict[LanguagePair, dict[str, dict[str, float]]]:
    """Parse a scores file into pair -> system name -> metric id -> score.

    ``registry`` is ``parse_registry``'s name -> entry mapping.  Rejects
    unknown systems, unknown metrics, non-finite or non-numeric scores,
    nonzero scores too small for a normal float (they would read as
    zero or lose digits), and duplicate (pair, system, metric) triples.
    Pairs, systems and metrics keep the order they first appear in.
    Each distinct pair token is parsed once.
    """

    known_metrics = {metric.id: metric.id for metric in metrics}
    scores: dict[LanguagePair, dict[str, dict[str, float]]] = {}
    # a valid token is its pair's code, so the raw token finds the matrix
    matrices: dict[str, dict[str, dict[str, float]]] = {}
    for line, (pair_token, system_token, metric_token, score_token) in _rows(text, SCORES_HEADER):
        matrix = matrices.get(pair_token)
        if matrix is None:
            matrix = scores[_parse_pair(pair_token, line)] = matrices[pair_token] = {}
        row = matrix.get(system_token)
        if row is None:
            if system_token not in registry:
                raise ParseError(line, f"unknown system {system_token!r}")
            # keyed by the registry's own string: every pair shares one copy
            row = matrix[registry[system_token].name] = {}
        metric = known_metrics.get(metric_token)
        if metric is None:
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
        if metric in row:
            raise ParseError(line, f"duplicate score for {pair_token}/{system_token}/{metric}")
        row[metric] = score
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
    matrix: Mapping[str, Mapping[str, float]],
    registry: Mapping[str, SystemEntry],
    metrics: Sequence[MetricSpec],
    pair: LanguagePair,
) -> None:
    """Check that ``pair``'s score matrix, system -> metric -> score, is rankable.

    A participant is any system with a row in the matrix; systems with
    none simply did not take part, so an empty matrix passes.
    ``registry`` is ``parse_registry``'s name -> entry mapping.  A
    matrix that passes cannot fail in ``ranking.build_context`` or any
    later stage.

    Raises:
        ValueError: a scored system missing from ``registry``, a score
            that is not finite, a participant lacking a score for one
            of ``metrics``, or a metric whose best and worst scores lie
            further apart than a float can hold.  The first of these
            found, in that order, is the one raised.
    """

    for system, row in matrix.items():
        if system not in registry:
            raise ValueError(f"system {system!r} has scores but no registry entry")
        for metric, score in row.items():
            if not math.isfinite(score):
                raise ValueError(f"{pair} score for {system}/{metric} is not finite: {score!r}")
    holes = ", ".join(
        f"{system}/{metric.id}"
        for system in sorted(matrix)
        for metric in metrics
        if metric.id not in matrix[system]
    )
    if holes:
        raise ValueError(f"{pair} is not rankable, missing scores: {holes}")
    if not matrix:
        return
    for metric in metrics:
        column = [row[metric.id] for row in matrix.values()]
        low, high = min(column), max(column)
        # best - worst would be inf, and inf / inf a NaN aggregate
        if not math.isfinite(high - low):
            raise ValueError(
                f"{pair} score range for {metric.id} is not finite: {low!r} to {high!r}"
            )
