"""Command-line interface.

Two subcommands:

``rank``    ingest scores and system metadata, rank the requested
            language pairs, render tables to stdout or one file per
            pair under --out.
``verify``  recompute every pair found in a directory of golden JSON
            reports and compare, with an uncertainty-aware tolerance
            and an optional allow-list for known selection ambiguities.

Exit codes: 0 ok, 1 validation error, 2 golden mismatch, 3 usage error.
Usage errors are reported before any input file is read.  A stdout
that cannot be written (a closed pipe, a full disk) is a validation
error too, reported in one line.
Setting the environment variable AUTORANK_NO_COLOR suppresses ANSI
styling on text output to a terminal.  Output is UTF-8 whatever the
encoding of stdout.  File output is always plain and written atomically
(temp file then rename), with the mode of the file it replaces, or the
mode the umask gives a new file.

Each command loads only what it runs: ``decimal`` is imported by
``verify`` alone, ``unicodedata`` by text output alone, ``json`` by the
JSON report and ``verify``, and no command loads ``fractions``.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from collections.abc import Sequence
from enum import IntEnum

from .golden import compare_pair, parse_allow_list, parse_golden
# unused here; kept a module-level name for perfbench/tracer.py
from .golden import validate_golden_pair
from .ingest import (
    ParseError,
    check_completeness,
    parse_manifest,
    parse_registry,
    parse_scores,
)
from .model import _NUMBER, LanguagePair, LeaderboardTable
from .pipeline import pairs_in, rank_pair
from .render import (
    RenderOptions,
    TableFormat,
    file_extension,
    render_report,  # unused here; kept a module-level name for perfbench/tracer.py
    render_table,
    report_chunks,
)


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


def _real_flag(text: str) -> float:
    """``float(text)``, for ``_NUMBER`` text or what reads as inf or nan."""

    try:
        value = float(text)
        if math.isfinite(value) and not _NUMBER.fullmatch(text):
            raise ValueError
        return value
    except ValueError:
        # argparse's own message for a type=float flag
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autorank", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--scores", required=True, help="scores TSV file")
    inputs.add_argument("--systems", required=True, help="system registry TSV file")

    rank = sub.add_parser("rank", parents=[inputs], help="rank language pairs and render tables")
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
    rank.add_argument("--exclude-closed", action="store_true", help="omit closed systems")
    rank.add_argument("--show-reasons", action="store_true", help="append a reason-code column")

    verify = sub.add_parser(
        "verify", parents=[inputs], help="recompute pairs and compare against golden reports"
    )
    verify.add_argument("--golden", required=True, help="directory of golden JSON reports")
    verify.add_argument(
        "--autorank-tol",
        type=_real_flag,
        default=0.05,
        help="aggregate tolerance on top of each golden value's own precision (default 0.05)",
    )
    verify.add_argument("--allow-mismatch", help="file of pair/system selection exceptions")
    return parser


def _read(parse, path: str):
    """``parse(text)`` on the whole text of the golden or allow-list file
    at ``path``; any fault ends in one ``_ValidationError``."""

    try:
        # decoded as stored, with no newline translation, as _parse reads a TSV file
        with open(path or os.curdir, "rb") as handle:  # "" is the current directory
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _ValidationError(f"cannot read {path}: {reason}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise _ValidationError(f"{path}: {exc}") from None


def _parse(parse, path: str, *args):
    """``parse(file, *args)`` on the TSV file at ``path``, which the parser
    reads in blocks; any fault ends in one ``_ValidationError``."""

    try:
        try:
            # the characters as stored, with no newline translation, as a library caller's text is
            with open(path or os.curdir, encoding="utf-8", newline="") as handle:
                return parse(handle, *args)
        except UnicodeDecodeError as exc:
            reason = exc  # the position it names counts from the decoder's last read
        # decoded whole, the file names the byte's own offset; and a faulty
        # line that ends before that byte is the first fault in the file
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = exc
            if head := data.rfind(b"\n", 0, exc.start) + 1:
                parse(data[:head].decode("utf-8"), *args)
        raise _ValidationError(f"cannot read {path}: {reason}")
    except ParseError as exc:
        raise _ValidationError(f"{path}: {exc}") from None
    except OSError as exc:
        raise _ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_inputs(args: argparse.Namespace):
    registry = _parse(parse_registry, args.systems)
    return registry, _parse(parse_scores, args.scores, registry)


def _write_atomic(path: str, text: str) -> None:
    directory, base = os.path.split(path)
    tmp = os.path.join(directory, f".{base}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # 0o666 less the umask
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            try:  # a replaced file keeps its mode
                os.fchmod(fd, os.stat(path).st_mode & 0o777)
            except FileNotFoundError:
                pass
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(text: str) -> None:
    try:
        sys.stdout.write(text)
    except OSError as exc:  # a closed pipe, a full disk
        raise _ValidationError(f"cannot write to stdout: {exc.strerror or exc}") from None


def _discard_stdout() -> None:
    """Point the process's stdout at the null device.

    The interpreter flushes stdout again at exit; with the text still
    buffered that flush would fail the same way and print a traceback.
    """

    if sys.stdout is not sys.__stdout__:
        return
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):
        pass


def _want_color(fmt: TableFormat) -> bool:
    if fmt is not TableFormat.TEXT:
        return False
    if os.environ.get("AUTORANK_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _cmd_rank(args: argparse.Namespace) -> ExitStatus:
    fmt = TableFormat(args.format)
    try:
        # a repeated --pair is ranked once, in first-seen order
        pairs = list(dict.fromkeys(LanguagePair.from_code(code) for code in args.pair or ()))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    registry, scores = _parse_inputs(args)
    if not pairs:
        pairs = pairs_in(scores)
        if not pairs:
            raise _ValidationError(f"{args.scores}: no score records, nothing to rank")

    if args.manifest is not None:
        manifest = _parse(parse_manifest, args.manifest)
        absent = [pair.code for pair in pairs if pair not in manifest]
        if absent:
            raise _ValidationError(
                f"{args.manifest}: no manifest entry for pair(s): {', '.join(absent)}"
            )

    # every pair is checked before the first is ranked: a checked pair
    # cannot fail in ranking, so an error leaves stdout empty and writes
    # no file under --out
    for pair in pairs:
        if pair not in scores:
            raise _ValidationError(f"{args.scores}: no scores for pair {pair.code}")
        try:
            check_completeness(*scores[pair], registry, pair)
        except ValueError as exc:
            raise _ValidationError(str(exc)) from None

    options = RenderOptions(
        format=fmt,
        include_closed=not args.exclude_closed,
        show_reasons=args.show_reasons,
        color=args.out is None and _want_color(fmt),
    )

    def ranked(pair: LanguagePair) -> LeaderboardTable:
        return rank_pair(registry, scores, pair)

    # then each pair is ranked, rendered and written before the next one
    # is ranked, and nothing keeps its table: at most one is alive
    if args.out is not None:
        target = args.out
        try:
            os.makedirs(args.out or os.curdir, exist_ok=True)
            for pair in pairs:
                target = os.path.join(args.out, f"{pair.code}.{file_extension(fmt)}")
                _write_atomic(target, render_table(ranked(pair), options))
        except OSError as exc:
            raise _ValidationError(f"cannot write {target}: {exc.strerror or exc}") from None
    elif fmt is TableFormat.JSON:
        tables = map(ranked, sorted(pairs))
        for chunk in report_chunks(tables, options.include_closed):
            _write(chunk)
    else:
        for i, pair in enumerate(pairs):
            _write("\n" * (i > 0) + render_table(ranked(pair), options))
    return ExitStatus.OK


def _verify_golden(
    path: str,
    registry: dict,
    scores: dict,
    tolerance: Decimal,
    allow: set[tuple[str, str]],
    listed_in: dict[LanguagePair, str],
    unmatched: set[tuple[str, str]],
) -> tuple[int, int]:
    """Verify each pair of the golden file at ``path``; return how many
    pairs it holds and how many of them mismatched.  Allow-list entries
    that name a row of a compared table leave ``unmatched``.

    Its own scope: nothing parsed or ranked for one golden file is alive
    while the next is read.
    """

    entries = _read(parse_golden, path)
    failed = 0
    for entry in entries:
        pair = entry["pair"]
        if pair in listed_in:
            first = listed_in[pair]
            raise _ValidationError(f"{path}: pair {pair.code} is also listed in {first}")
        listed_in[pair] = path
        if pair not in scores:
            failed += 1
            _write(f"{pair.code}: MISMATCH\n  {pair.code}: no scores for this pair\n")
            continue
        try:
            table = rank_pair(registry, scores, pair)
        except ValueError as exc:
            raise _ValidationError(str(exc)) from None
        result = compare_pair(table, entry, tolerance, allow)
        unmatched.difference_update((pair.code, row.name) for row in table.rows)
        status = "ok" if result.ok else "MISMATCH"
        _write(f"{pair.code}: {status} ({len(table.rows)} systems)\n")
        for line in result.mismatches:
            _write(f"  {line}\n")
        for line in result.notes:
            _write(f"  note: {line}\n")
        if not result.ok:
            failed += 1
    return len(entries), failed


def _cmd_verify(args: argparse.Namespace) -> ExitStatus:
    if not (math.isfinite(args.autorank_tol) and args.autorank_tol >= 0):
        raise _UsageError("--autorank-tol must be a finite number >= 0")
    from decimal import Decimal  # only verify reads decimals

    tolerance = Decimal(str(args.autorank_tol))

    registry, scores = _parse_inputs(args)
    allow: set[tuple[str, str]] = set()
    if args.allow_mismatch is not None:
        allow = _read(parse_allow_list, args.allow_mismatch)

    try:
        names = sorted(n for n in os.listdir(args.golden or os.curdir) if n.endswith(".json"))
    except (FileNotFoundError, NotADirectoryError):
        raise _ValidationError(f"{args.golden}: not a directory") from None
    except OSError as exc:
        raise _ValidationError(f"cannot read {args.golden}: {exc.strerror or exc}") from None

    compared = failed = 0
    listed_in: dict[LanguagePair, str] = {}  # the golden file each pair was found in
    unmatched = set(allow)
    for name in names:
        path = os.path.join(args.golden, name)
        pairs, mismatched = _verify_golden(
            path, registry, scores, tolerance, allow, listed_in, unmatched
        )
        compared += pairs
        failed += mismatched

    for code, system in sorted(unmatched):
        _write(f"note: allow-list entry {code}/{system} matches no row of any verified pair\n")
    _write(f"compared {compared} pair(s): {compared - failed} ok, {failed} mismatched\n")
    if compared == 0:
        _write("warning: golden directory contained no pair entries\n")
    return ExitStatus.OK if failed == 0 else ExitStatus.GOLDEN_MISMATCH


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    message = None
    try:
        args = parser.parse_args(argv)
        status = _cmd_rank(args) if args.command == "rank" else _cmd_verify(args)
    except _UsageError as exc:
        message, status = f"usage error: {exc}", ExitStatus.USAGE_ERROR
    except _ValidationError as exc:
        message, status = f"error: {exc}", ExitStatus.VALIDATION_ERROR
    # what is still buffered fails here, not at the interpreter's exit
    try:
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        if message is None:
            reason = exc.strerror or exc
            message, status = f"error: cannot write to stdout: {reason}", ExitStatus.VALIDATION_ERROR
    if message is not None:
        print(message, file=sys.stderr)
    return status


def entrypoint() -> None:
    # UTF-8, as under --out, whatever encoding the process's stdout has
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
