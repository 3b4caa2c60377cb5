"""Command-line interface.

Two subcommands:

``rank``    ingest scores and system metadata, rank the requested
            language pairs, render tables to stdout or one file per
            pair under --out.
``verify``  recompute every pair found in a directory of golden JSON
            reports and compare, with an uncertainty-aware tolerance
            and an optional allow-list for known selection ambiguities.

Exit codes: 0 ok, 1 validation error, 2 golden mismatch, 3 usage error.
Setting the environment variable AUTORANK_NO_COLOR suppresses ANSI
styling on text output to a terminal.  File output is always plain and
written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .golden import compare_pair, parse_allow_list, validate_golden_pair
from .ingest import ParseError, parse_manifest, parse_registry, parse_scores
from .model import DEFAULT_METRICS, LanguagePair, RankingConfig, ScaleSpan, ScoreRecord
from .pipeline import pairs_in, rank_pair
from .render import RenderOptions, TableFormat, file_extension, render_report, render_table


class ExitStatus(IntEnum):
    OK = 0
    VALIDATION_ERROR = 1
    GOLDEN_MISMATCH = 2
    USAGE_ERROR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2); route flag problems to our exit code
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


class _ValidationError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autorank", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="rank language pairs and render tables")
    rank.add_argument("--scores", required=True, help="scores TSV file")
    rank.add_argument("--systems", required=True, help="system registry TSV file")
    rank.add_argument("--manifest", help="evaluated-data manifest TSV file")
    rank.add_argument(
        "--pair",
        action="append",
        default=None,
        metavar="CODE",
        help="language pair to rank (repeatable; default: all pairs in the scores file)",
    )
    rank.add_argument(
        "--format",
        required=True,
        choices=[f.value for f in TableFormat],
        help="output format",
    )
    rank.add_argument("--out", help="output directory, one file per pair")
    rank.add_argument("--cutoff-gap", type=float, default=None, help="quality cutoff gap")
    rank.add_argument("--closed-fraction", default=None, help="closed-track depth, e.g. 1/3")
    rank.add_argument("--open-fraction", default=None, help="open-track depth, e.g. 2/3")
    rank.add_argument(
        "--span",
        choices=[s.value for s in ScaleSpan],
        default=None,
        help="normalized scale width: n (worst at 1+N) or n-1 (worst at N)",
    )
    rank.add_argument("--exclude-closed", action="store_true", help="omit closed systems")
    rank.add_argument("--show-reasons", action="store_true", help="append a reason-code column")

    verify = sub.add_parser("verify", help="recompute pairs and compare against golden reports")
    verify.add_argument("--scores", required=True, help="scores TSV file")
    verify.add_argument("--systems", required=True, help="system registry TSV file")
    verify.add_argument("--golden", required=True, help="directory of golden JSON reports")
    verify.add_argument(
        "--autorank-tol",
        type=float,
        default=0.05,
        help="aggregate tolerance on top of each golden value's own precision (default 0.05)",
    )
    verify.add_argument("--allow-mismatch", help="file of pair/system selection exceptions")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_inputs(args: argparse.Namespace):
    try:
        registry = parse_registry(_read(args.systems))
    except ParseError as exc:
        raise _ValidationError(f"{args.systems}: {exc}") from None
    try:
        records = parse_scores(_read(args.scores), registry, DEFAULT_METRICS)
    except ParseError as exc:
        raise _ValidationError(f"{args.scores}: {exc}") from None
    return registry, records


def _group_by_pair(records: list[ScoreRecord]) -> dict[LanguagePair, list[ScoreRecord]]:
    # one pass, so ranking every pair costs O(records), not O(pairs x records)
    by_pair: dict[LanguagePair, list[ScoreRecord]] = {}
    for record in records:
        by_pair.setdefault(record.pair, []).append(record)
    return by_pair


def _config_from(args: argparse.Namespace) -> RankingConfig:
    defaults = RankingConfig()
    try:
        return RankingConfig(
            cutoff_gap=args.cutoff_gap if args.cutoff_gap is not None else defaults.cutoff_gap,
            closed_fraction=(
                Fraction(args.closed_fraction)
                if args.closed_fraction is not None
                else defaults.closed_fraction
            ),
            open_fraction=(
                Fraction(args.open_fraction)
                if args.open_fraction is not None
                else defaults.open_fraction
            ),
            scale_span=ScaleSpan(args.span) if args.span is not None else defaults.scale_span,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(str(exc)) from None


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _want_color(fmt: TableFormat) -> bool:
    if fmt is not TableFormat.TEXT:
        return False
    if os.environ.get("AUTORANK_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _cmd_rank(args: argparse.Namespace) -> ExitStatus:
    registry, records = _parse_inputs(args)
    config = _config_from(args)
    fmt = TableFormat(args.format)

    if args.pair:
        try:
            pairs = [LanguagePair.from_code(code) for code in args.pair]
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    else:
        pairs = pairs_in(records)
        if not pairs:
            raise _ValidationError(f"{args.scores}: no score records, nothing to rank")

    if args.manifest is not None:
        try:
            manifest = parse_manifest(_read(args.manifest))
        except ParseError as exc:
            raise _ValidationError(f"{args.manifest}: {exc}") from None
        absent = [pair.code for pair in pairs if pair not in manifest.entries]
        if absent:
            raise _ValidationError(
                f"{args.manifest}: no manifest entry for pair(s): {', '.join(absent)}"
            )

    by_pair = _group_by_pair(records)
    tables = []
    for pair in pairs:
        if pair not in by_pair:
            raise _ValidationError(f"{args.scores}: no scores for pair {pair.code}")
        try:
            tables.append(rank_pair(registry, by_pair[pair], pair, DEFAULT_METRICS, config))
        except ValueError as exc:
            raise _ValidationError(str(exc)) from None

    options = RenderOptions(
        format=fmt,
        include_closed=not args.exclude_closed,
        show_reasons=args.show_reasons,
        color=False,
    )

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for table in tables:
            path = out_dir / f"{table.pair.code}.{file_extension(fmt)}"
            _write_atomic(path, render_table(table, options))
        return ExitStatus.OK

    if fmt is TableFormat.JSON and len(tables) > 1:
        sys.stdout.write(render_report(tables))
        return ExitStatus.OK
    stdout_options = (
        RenderOptions(
            format=fmt,
            include_closed=options.include_closed,
            show_reasons=options.show_reasons,
            color=True,
        )
        if _want_color(fmt)
        else options
    )
    sys.stdout.write("\n".join(render_table(table, stdout_options) for table in tables))
    return ExitStatus.OK


def _cmd_verify(args: argparse.Namespace) -> ExitStatus:
    registry, records = _parse_inputs(args)
    tolerance = Decimal(str(args.autorank_tol))
    if tolerance < 0:
        raise _UsageError("--autorank-tol must be >= 0")

    allow: set[tuple[str, str]] = set()
    if args.allow_mismatch is not None:
        try:
            allow = parse_allow_list(_read(args.allow_mismatch))
        except ValueError as exc:
            raise _ValidationError(f"{args.allow_mismatch}: {exc}") from None

    golden_dir = Path(args.golden)
    if not golden_dir.is_dir():
        raise _ValidationError(f"{args.golden}: not a directory")
    golden_files = sorted(golden_dir.glob("*.json"))

    by_pair = _group_by_pair(records)
    compared = 0
    failed = 0
    for path in golden_files:
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _ValidationError(f"{path}: {exc}") from None
        if not isinstance(report, dict):
            raise _ValidationError(f"{path}: malformed golden report: top level is not an object")
        try:
            config = RankingConfig.from_dict(report.get("config") or {})
            entries = report["pairs"]
            pairs = []
            for entry in entries:
                validate_golden_pair(entry)
                pairs.append(LanguagePair.from_code(str(entry["pair"])))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise _ValidationError(f"{path}: malformed golden report: {exc}") from None

        for pair, entry in zip(pairs, entries):
            compared += 1
            if pair not in by_pair:
                failed += 1
                print(f"{pair.code}: MISMATCH")
                print(f"  {pair.code}: no scores for this pair")
                continue
            try:
                table = rank_pair(registry, by_pair[pair], pair, DEFAULT_METRICS, config)
            except ValueError as exc:
                raise _ValidationError(str(exc)) from None
            result = compare_pair(table, entry, tolerance, allow)
            status = "ok" if result.ok else "MISMATCH"
            print(f"{pair.code}: {status} ({len(table.rows)} systems)")
            for line in result.mismatches:
                print(f"  {line}")
            for line in result.notes:
                print(f"  note: {line}")
            if not result.ok:
                failed += 1

    print(f"compared {compared} pair(s): {compared - failed} ok, {failed} mismatched")
    if compared == 0:
        print("warning: golden directory contained no pair entries")
    return ExitStatus.OK if failed == 0 else ExitStatus.GOLDEN_MISMATCH


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rank":
            return _cmd_rank(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return ExitStatus.USAGE_ERROR
    except _ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitStatus.VALIDATION_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
