"""Reference serializers for the three TSV inputs, for round-trip tests,
the one builder each of a registry and of a pair's scores made by hand,
and the sizes of what ``parse_scores`` holds while it runs.

autorank reads these files and never writes them, so the writers live
here: ``serialize_*(parse_*(text))`` reproduces a canonically formatted
input byte for byte, which pins what each parser keeps.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Iterable, Mapping, Sequence

from autorank import LanguagePair, SystemEntry
from autorank.ingest import MANIFEST_HEADER, REGISTRY_HEADER, SCORES_HEADER
from autorank.model import METRICS


def _withdrawn_token(entry: SystemEntry) -> str:
    if entry.withdrawn:
        return "1"
    if entry.withdrawn_pairs:
        return ",".join(sorted(pair.code for pair in entry.withdrawn_pairs))
    return "0"


def registry_of(entries: Iterable[SystemEntry]) -> dict[str, SystemEntry]:
    """A registry as ``parse_registry`` returns it: name -> entry, in order."""

    registry: dict[str, SystemEntry] = {}
    for entry in entries:
        assert entry.name not in registry, f"duplicate system name {entry.name!r}"
        registry[entry.name] = entry
    return registry


def matrix_of(
    rows: Mapping[str, Mapping[str, float]],
) -> tuple[tuple[str, ...], tuple[array, ...]]:
    """One pair's scores as ``parse_scores`` holds them, from system ->
    metric id -> score: (names, one column per metric of ``METRICS``),
    NaN for a hole.  A metric id outside ``METRICS`` is dropped."""

    names = tuple(rows)
    return names, tuple(
        array("d", [rows[name].get(metric.id, math.nan) for name in names]) for metric in METRICS
    )


def parse_scratch_size(
    scores: Mapping[LanguagePair, tuple[Sequence[str], Sequence[Sequence[float]]]],
) -> int:
    """Bytes ``parse_scores`` holds besides ``scores`` until it returns
    them, measured on objects built the same way.

    The dict that numbers each scored name once for the file takes one
    insert per name and an int object for each number past the
    interpreter's cache of small ints (0 to 256).  Each pair has an
    ``array('i')`` slot table, at most as long as the file's count of
    names, the length each is sized to here; the dict of its columns;
    its entry; and its names grown in a list, of which only the room
    past the tuple they become is counted.
    """

    names = list(dict.fromkeys(name for names, _ in scores.values() for name in names))
    table = array("i")
    table.fromlist([-1] * len(names))
    columns = {metric.id: array("d") for metric in METRICS}
    size = sys.getsizeof(dict.fromkeys(names)) + sum(map(sys.getsizeof, range(257, len(names))))
    for pair, (pair_names, _) in scores.items():
        grown = []
        for name in pair_names:
            grown.append(name)
        entry = (pair, grown, table, columns)
        size += sys.getsizeof(table) + sys.getsizeof(columns) + sys.getsizeof(entry)
        size += sys.getsizeof(grown) - sys.getsizeof(tuple(pair_names))
    return size


def block_size(block: str) -> int:
    """Bytes of ``block`` and of the lines it splits into, which the
    parse holds at once while it cuts a block."""

    lines = block.split("\n")
    return sys.getsizeof(block) + sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))


def serialize_registry(registry: Mapping[str, SystemEntry]) -> str:
    lines = [REGISTRY_HEADER]
    for entry in registry.values():
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


def serialize_scores(
    scores: Mapping[LanguagePair, tuple[Sequence[str], Sequence[Sequence[float]]]],
) -> str:
    """One line per score, pair by pair and system by system, with each
    system's scores in ``METRICS`` order; a hole writes no line."""

    lines = [SCORES_HEADER]
    for pair, (names, columns) in scores.items():
        for slot, system in enumerate(names):
            for metric, column in zip(METRICS, columns):
                if not math.isnan(column[slot]):
                    lines.append(f"{pair.code}\t{system}\t{metric.id}\t{column[slot]!r}")
    return "\n".join(lines) + "\n"


def serialize_manifest(entries: dict[LanguagePair, tuple[int, int]]) -> str:
    lines = [MANIFEST_HEADER]
    for pair in sorted(entries):
        segments, words = entries[pair]
        lines.append(f"{pair.code}\t{segments}\t{words}")
    return "\n".join(lines) + "\n"
