"""Reference serializers for the three TSV inputs, for round-trip tests,
and the one builder of a registry made by hand.

autorank reads these files and never writes them, so the writers live
here: ``serialize_*(parse_*(text))`` reproduces a canonically formatted
input byte for byte, which pins what each parser keeps.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from autorank import LanguagePair, SystemEntry
from autorank.ingest import MANIFEST_HEADER, REGISTRY_HEADER, SCORES_HEADER


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


def serialize_scores(scores: Mapping[LanguagePair, Mapping[str, Mapping[str, float]]]) -> str:
    lines = [SCORES_HEADER]
    for pair, matrix in scores.items():
        for system, row in matrix.items():
            for metric, score in row.items():
                lines.append(f"{pair.code}\t{system}\t{metric}\t{score!r}")
    return "\n".join(lines) + "\n"


def serialize_manifest(entries: dict[LanguagePair, tuple[int, int]]) -> str:
    lines = [MANIFEST_HEADER]
    for pair in sorted(entries):
        segments, words = entries[pair]
        lines.append(f"{pair.code}\t{segments}\t{words}")
    return "\n".join(lines) + "\n"
