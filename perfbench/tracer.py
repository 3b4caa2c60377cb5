"""In-process span tracer for autorank's layers.

The tracer wraps autorank's public functions from outside the program:
it rebinds the name a calling module imported (``autorank.cli.rank_pair``,
``autorank.pipeline.check_completeness``, ...) to a wrapper that records
a span, and puts every original back when it is closed.  Nothing in
``autorank`` changes on disk and nothing is wrapped outside the process
that installs the tracer.

A span is ``[name, start_ns, end_ns, parent_index, op]``; ``op`` numbers
the CLI invocation the span belongs to.  Spans stay in memory until
``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Sequence

Counted = Callable[[Counter, tuple, Any], None]


def _count_records(counts: Counter, args: tuple, result: Any) -> None:
    counts["ingest.records"] += len(result)


def _count_completeness(counts: Counter, args: tuple, result: Any) -> None:
    counts["ingest.check_completeness_calls"] += 1
    counts["ingest.records_scanned"] += len(args[0])


def _count_rank_pair(counts: Counter, args: tuple, result: Any) -> None:
    counts["pipeline.rank_pair_calls"] += 1


def _count_rows(counts: Counter, args: tuple, result: Any) -> None:
    counts["ranking.rows"] += len(result)


def _count_rendered(counts: Counter, args: tuple, result: Any) -> None:
    counts["render.bytes"] += len(result.encode("utf-8"))


def _count_display(counts: Counter, args: tuple, result: Any) -> None:
    counts["model.display_str_calls"] += 1


def _count_compare(counts: Counter, args: tuple, result: Any) -> None:
    n = len(args[1]["rows"])
    counts["golden.compare_pair_calls"] += 1
    counts["golden.order_checks"] += n * (n - 1) // 2


def _render_span(args: tuple) -> str:
    return f"render.{args[1].format.value}"


# (calling module, imported name, span name or namer, counter)
BINDINGS: tuple[tuple[str, str, str | Callable[[tuple], str], Counted | None], ...] = (
    ("autorank.cli", "main", "cli.main", None),
    ("autorank.cli", "parse_registry", "ingest.parse_registry", None),
    ("autorank.cli", "parse_scores", "ingest.parse_scores", _count_records),
    ("autorank.cli", "parse_manifest", "ingest.parse_manifest", None),
    ("autorank.cli", "rank_pair", "pipeline.rank_pair", _count_rank_pair),
    ("autorank.cli", "pairs_in", "pipeline.pairs_in", None),
    ("autorank.cli", "render_table", _render_span, _count_rendered),
    ("autorank.cli", "render_report", "render.report", _count_rendered),
    ("autorank.cli", "file_extension", "render.file_extension", None),
    ("autorank.cli", "compare_pair", "golden.compare_pair", _count_compare),
    ("autorank.cli", "parse_allow_list", "golden.parse_allow_list", None),
    ("autorank.cli", "validate_golden_pair", "golden.validate_golden_pair", None),
    ("autorank.pipeline", "check_completeness", "ingest.check_completeness", _count_completeness),
    ("autorank.pipeline", "build_context", "ranking.build_context", None),
    ("autorank.pipeline", "compute_autorank", "ranking.compute_autorank", _count_rows),
    ("autorank.pipeline", "order_rows", "ranking.order_rows", None),
    ("autorank.pipeline", "find_cutoff", "selection.find_cutoff", None),
    ("autorank.pipeline", "select_for_human_eval", "selection.select_for_human_eval", None),
    ("autorank.pipeline", "apply_selection", "selection.apply_selection", None),
    ("autorank.render", "display_str", "model.display_str", _count_display),
    # round_display calls display_str through autorank.model's own global
    ("autorank.model", "display_str", "model.display_str", _count_display),
)


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        name: str | Callable[[tuple], str],
        count: Counted | None = None,
    ) -> None:
        """Rebind ``module.attr`` to a span-recording wrapper."""

        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [
                name(args) if callable(name) else name,
                perf_counter_ns(),
                0,
                stack[-1] if stack else -1,
                self.op,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        self._undo.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, bindings: Sequence[tuple] = BINDINGS) -> "Tracer":
        for module_name, attr, name, count in bindings:
            self.wrap(importlib.import_module(module_name), attr, name, count)
        return self

    def restore(self) -> None:
        """Put back every original the tracer rebound, last first."""

        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        """Write spans as JSON lines: name, start_ns, end_ns, parent, op."""

        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""

    covered = [0] * len(spans)
    reach = [0] * len(spans)  # end of the covered interval so far, per parent
    for name, start, end, parent, op in spans:
        if parent < 0:
            continue
        # children of one parent arrive in start order; merge overlaps
        begin = max(start, reach[parent])
        if end > begin:
            covered[parent] += end - begin
            reach[parent] = end
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]
