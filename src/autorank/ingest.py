"""TSV ingestion and serialization.

Three tab-separated formats, all UTF-8 with LF line endings and an
exact header line:

registry    system<TAB>category<TAB>withdrawn<TAB>unsupported_pairs
scores      pair<TAB>system<TAB>metric<TAB>score
manifest    pair<TAB>segments<TAB>words

The parsers are strict: wrong column counts, unknown columns, duplicate
keys, unregistered names and malformed values are all rejected with the
1-based line number.  ``serialize_* (parse_*(text))`` reproduces a
canonically formatted input byte for byte.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    LanguagePair,
    MetricSpec,
    ScoreRecord,
    SystemCategory,
    SystemEntry,
)

REGISTRY_HEADER = "system\tcategory\twithdrawn\tunsupported_pairs"
SCORES_HEADER = "pair\tsystem\tmetric\tscore"
MANIFEST_HEADER = "pair\tsegments\twords"

# float() is looser than we want (it takes "1_0" and "nan"); scores in
# files must look like ordinary decimal or scientific notation
_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class ParseError(ValueError):
    """A rejected input line; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


def _rows(text: str, header: str) -> Iterable[tuple[int, list[str]]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines or lines[0] != header:
        raise ParseError(1, f"expected header {header!r}")
    width = header.count("\t") + 1
    for number, line in enumerate(lines[1:], start=2):
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


def parse_registry(text: str) -> list[SystemEntry]:
    """Parse the system registry.

    The withdrawn column is "0" (not withdrawn), "1" (withdrawn from
    every pair), or a comma-separated list of pair codes the system was
    withdrawn from.  Returns entries in file order.
    """

    entries: list[SystemEntry] = []
    seen: set[str] = set()
    for line, (name, category_token, withdrawn_token, unsupported_token) in _rows(
        text, REGISTRY_HEADER
    ):
        if not name:
            raise ParseError(line, "empty system name")
        if name in seen:
            raise ParseError(line, f"duplicate system name {name!r}")
        seen.add(name)
        try:
            category = SystemCategory(category_token)
        except ValueError:
            raise ParseError(line, f"unknown category {category_token!r}") from None
        if withdrawn_token == "0":
            withdrawn, withdrawn_pairs = False, frozenset()
        elif withdrawn_token == "1":
            withdrawn, withdrawn_pairs = True, frozenset()
        else:
            withdrawn = False
            try:
                withdrawn_pairs = _parse_pair_set(withdrawn_token, line)
            except ParseError:
                raise ParseError(
                    line,
                    f"malformed withdrawn flag {withdrawn_token!r} (want 0, 1 or pair codes)",
                ) from None
            if not withdrawn_pairs:
                raise ParseError(line, f"malformed withdrawn flag {withdrawn_token!r}")
        entries.append(
            SystemEntry(
                name=name,
                category=category,
                withdrawn=withdrawn,
                withdrawn_pairs=withdrawn_pairs,
                unsupported_pairs=_parse_pair_set(unsupported_token, line),
            )
        )
    return entries


def parse_scores(
    text: str,
    registry: Sequence[SystemEntry],
    metrics: Sequence[MetricSpec],
) -> list[ScoreRecord]:
    """Parse score records against a registry and known metrics.

    Rejects unknown systems, unknown metrics, non-finite or non-numeric
    scores, and duplicate (pair, system, metric) triples.  File order is
    preserved.  Each distinct pair token is parsed once; records of one
    pair share its ``LanguagePair``.
    """

    known_systems = {entry.name for entry in registry}
    known_metrics = {metric.id for metric in metrics}
    records: list[ScoreRecord] = []
    pairs: dict[str, LanguagePair] = {}
    # a valid token is its pair's code, so the raw token keys the triple
    seen: set[tuple[str, str, str]] = set()
    for line, (pair_token, system, metric, score_token) in _rows(text, SCORES_HEADER):
        pair = pairs.get(pair_token)
        if pair is None:
            pair = pairs[pair_token] = _parse_pair(pair_token, line)
        if system not in known_systems:
            raise ParseError(line, f"unknown system {system!r}")
        if metric not in known_metrics:
            raise ParseError(line, f"unknown metric {metric!r}")
        if not _NUMBER.match(score_token):
            raise ParseError(line, f"malformed score {score_token!r}")
        score = float(score_token)
        if not math.isfinite(score):
            raise ParseError(line, f"score must be finite, got {score_token!r}")
        key = (pair_token, system, metric)
        if key in seen:
            raise ParseError(line, f"duplicate score for {pair}/{system}/{metric}")
        seen.add(key)
        records.append(ScoreRecord(pair=pair, system=system, metric=metric, score=score))
    return records


@dataclass(frozen=True)
class Manifest:
    """Declared corpus sizes per language pair."""

    entries: dict[LanguagePair, tuple[int, int]]  # pair -> (segments, words)

    def pairs(self) -> list[LanguagePair]:
        return sorted(self.entries)


def parse_manifest(text: str) -> Manifest:
    """Parse the evaluation-data manifest; counts must be positive integers."""

    entries: dict[LanguagePair, tuple[int, int]] = {}
    for line, (pair_token, segments_token, words_token) in _rows(text, MANIFEST_HEADER):
        pair = _parse_pair(pair_token, line)
        if pair in entries:
            raise ParseError(line, f"duplicate manifest entry for {pair}")
        counts = []
        for label, token in (("segments", segments_token), ("words", words_token)):
            if not token.isdigit() or int(token) <= 0:
                raise ParseError(line, f"{label} must be a positive integer, got {token!r}")
            counts.append(int(token))
        entries[pair] = (counts[0], counts[1])
    return Manifest(entries=entries)


def _withdrawn_token(entry: SystemEntry) -> str:
    if entry.withdrawn:
        return "1"
    if entry.withdrawn_pairs:
        return ",".join(sorted(pair.code for pair in entry.withdrawn_pairs))
    return "0"


def serialize_registry(entries: Iterable[SystemEntry]) -> str:
    lines = [REGISTRY_HEADER]
    for entry in entries:
        lines.append(
            "\t".join(
                (
                    entry.name,
                    entry.category.value,
                    _withdrawn_token(entry),
                    ",".join(sorted(pair.code for pair in entry.unsupported_pairs)),
                )
            )
        )
    return "\n".join(lines) + "\n"


def serialize_scores(records: Iterable[ScoreRecord]) -> str:
    lines = [SCORES_HEADER]
    for record in records:
        lines.append(
            "\t".join((record.pair.code, record.system, record.metric, repr(record.score)))
        )
    return "\n".join(lines) + "\n"


def serialize_manifest(manifest: Manifest) -> str:
    lines = [MANIFEST_HEADER]
    for pair in manifest.pairs():
        segments, words = manifest.entries[pair]
        lines.append(f"{pair.code}\t{segments}\t{words}")
    return "\n".join(lines) + "\n"


def check_completeness(
    records: Iterable[ScoreRecord],
    registry: Sequence[SystemEntry],
    metrics: Sequence[MetricSpec],
    pair: LanguagePair,
) -> dict[str, dict[str, float]]:
    """Collect ``pair``'s score matrix and check that it is complete.

    A participant is any registered system with at least one score
    record for the pair; systems with none simply did not take part.

    Returns:
        system name -> metric id -> raw score, systems in the order
        they first appear in ``records``; empty when nobody scored the
        pair.

    Raises:
        ValueError: a scored system missing from ``registry``, or a
            participant lacking a score for one of ``metrics``.
    """

    known = {entry.name for entry in registry}
    matrix: dict[str, dict[str, float]] = {}
    for record in records:
        if record.pair != pair:
            continue
        if record.system not in known:
            raise ValueError(f"system {record.system!r} has scores but no registry entry")
        matrix.setdefault(record.system, {})[record.metric] = record.score
    holes = ", ".join(
        f"{system}/{metric.id}"
        for system in sorted(matrix)
        for metric in metrics
        if metric.id not in matrix[system]
    )
    if holes:
        raise ValueError(f"{pair} is not rankable, missing scores: {holes}")
    return matrix
