"""autorank benchmark: drives the real CLI and checks every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wmt24 --seed 1 --seconds 20 --trace 0

``--workload`` is ``wmt24``, ``campaign``, ``wide-verify`` or ``all``.
With ``--trace 0`` one client runs the workload's commands as
``python -m autorank.cli`` subprocesses in a closed loop (each starts
after the previous one exits) and the end-to-end metrics are reported.
With ``--trace 1`` the same commands run in-process through
``autorank.cli.main(argv)``, alternating untraced and traced cycles, and
the per-layer metrics are reported.  Either way a summary table goes to
stdout and the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Generated inputs, outputs, spans and the bytecode cache live under
``.perfbench/`` in the checkout.  See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Mapping

import gen
import oracle
from tracer import Tracer, self_times

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("wmt24", "campaign", "wide-verify")
CAMPAIGN_SHAPE = (100, 100)  # pairs, systems
WIDE_SHAPE = (8, 400)
CANARY_SEED = 7  # fixed-seed synthetic inputs whose output digests are recorded
SETUP_REPEATS = 15  # fresh interpreters per setup_s / startup.* measurement
P90_MIN_SAMPLES = 100
AGGREGATE_TOLERANCE = Fraction(1, 10**9)

# the metrics BENCHMARK.json gates, and the JSON result carries
END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Invocation wall-time percentiles go to the summary only.  On a machine
# whose speed drifts between phases, a run's median jumps between them
# where the mean (records_per_s) moves smoothly.  The 90th percentile is
# printed only where a run holds enough invocations to be a tail estimate.
TAIL_METRIC = "wall_p90_ms"
PER_LAYER_UNITS = {
    "startup.interp_ms": "ms",
    "startup.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_out": "bytes",
    "ingest.parse_registry_ms": "ms",
    "ingest.parse_scores_ms": "ms",
    "ingest.records": "count",
    "ingest.check_completeness_ms": "ms",
    "ingest.check_completeness_calls": "count",
    "ingest.records_scanned": "count",
    "pipeline.rank_pair_ms": "ms",
    "pipeline.rank_pair_calls": "count",
    "pipeline.self_ms": "ms",
    "ranking.build_context_ms": "ms",
    "ranking.compute_autorank_ms": "ms",
    "ranking.order_rows_ms": "ms",
    "ranking.rows": "count",
    "selection.find_cutoff_ms": "ms",
    "selection.select_for_human_eval_ms": "ms",
    "selection.apply_selection_ms": "ms",
    "model.display_str_ms": "ms",
    "model.display_str_calls": "count",
    "render.text_ms": "ms",
    "render.md_ms": "ms",
    "render.latex_ms": "ms",
    "render.json_ms": "ms",
    "render.report_ms": "ms",
    "render.bytes": "bytes",
    "golden.compare_pair_ms": "ms",
    "golden.compare_pair_calls": "count",
    "golden.order_checks": "count",
    "trace.overhead_frac": "ratio",
}
# per-layer times that are a span's own time rather than its whole duration
SELF_SPANS = {"cli.self_ms": "cli.main", "pipeline.self_ms": "pipeline.rank_pair"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Command:
    label: str
    args: list[str]
    out_dir: Path | None = None


@dataclass
class Output:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]

    def digests(self) -> dict[str, str]:
        found = {"stdout": hashlib.sha256(self.stdout).hexdigest()}
        for name, data in self.files.items():
            found[name] = hashlib.sha256(data).hexdigest()
        return found

    @property
    def size(self) -> int:
        return len(self.stdout) + sum(len(data) for data in self.files.values())


@dataclass
class Verdict:
    """A failed operation; ``known`` marks the float-split tie defect."""

    cause: str
    known: bool = False


Check = Callable[[Output], "Verdict | None"]


@dataclass
class Plan:
    """One workload, ready to run."""

    name: str
    commands: list[Command]
    checks: dict[str, Check]
    records: int  # score records each invocation reads
    canary: list[tuple[Command, Check]] = field(default_factory=list)


# --- running the CLI ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Runner:
    """Runs CLI children in ``work`` through ``spawner.py`` (see there for why)."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self._helper = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc: object) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()

    def spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """Run one child to completion: (wall seconds, exit code, max RSS in KiB)."""

        request = {
            "argv": argv,
            "env": child_env(),
            "stdout": str(self.work / "stdout"),
            "stderr": str(self.work / "stderr"),
        }
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise BenchError(f"spawner exited with code {self._helper.wait()}")
        wall, code, rss = json.loads(reply)
        return wall, code, rss

    def child(self, command: Command) -> tuple[Output, float, int]:
        clear(command)
        wall, code, rss = self.spawn(["-m", "autorank.cli", *command.args])
        stdout, stderr = (self.work / "stdout").read_bytes(), (self.work / "stderr").read_bytes()
        return collect(command, code, stdout, stderr), wall, rss

    def interpreter_ms(self, code: str, repeats: int) -> list[float]:
        """Wall times in ms of ``repeats`` fresh interpreters running ``code``."""

        times = []
        for _ in range(repeats):
            wall, status, _ = self.spawn(["-c", code])
            if status != 0:
                detail = (self.work / "stderr").read_text(encoding="utf-8", errors="replace")
                raise BenchError(f"python -c {code!r} exited {status}: {detail.strip()}")
            times.append(wall * 1000)
        return times


def collect(command: Command, code: int, stdout: bytes, stderr: bytes) -> Output:
    files = {}
    if command.out_dir is not None and command.out_dir.is_dir():
        for path in sorted(command.out_dir.iterdir()):
            files[path.name] = path.read_bytes()
    return Output(code, stdout, stderr, files)


def clear(command: Command) -> None:
    if command.out_dir is not None:
        shutil.rmtree(command.out_dir, ignore_errors=True)


def run_inprocess(command: Command) -> tuple[Output, int]:
    import autorank.cli

    clear(command)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter_ns()
        code = autorank.cli.main(command.args)
        elapsed = perf_counter_ns() - start
    return collect(command, code, out.getvalue().encode(), err.getvalue().encode()), elapsed


# --- output checks --------------------------------------------------------------


def digest_check(expected: Mapping[str, str]) -> Check:
    """Byte identity with digests recorded from the engine."""

    def check(output: Output) -> Verdict | None:
        found = output.digests()
        for name in sorted(set(expected) | set(found)):
            if expected.get(name) != found.get(name):
                return Verdict(f"{name} differs from the recorded SHA-256")
        return None

    return check


def both(*checks: Check) -> Check:
    def check(output: Output) -> Verdict | None:
        for one in checks:
            verdict = one(output)
            if verdict is not None:
                return verdict
        return None

    return check


@dataclass
class ViewRow:
    system: str
    position: int
    selected: bool
    above_cutoff: bool
    reasons: frozenset[str] | None = None
    aggregate: str | None = None


def json_views(output: Output) -> dict[str, tuple[int | None, list[ViewRow]]]:
    report = json.loads(output.stdout)
    return {
        entry["pair"]: (
            entry["cutoff_position"],
            [
                ViewRow(
                    system=row["system"],
                    position=row["position"],
                    selected=row["selected"],
                    above_cutoff=row["above_cutoff"],
                    reasons=frozenset(row["reasons"]),
                    aggregate=row["autorank_exact"],
                )
                for row in entry["rows"]
            ],
        )
        for entry in report["pairs"]
    }


def markdown_view(text: str) -> tuple[int | None, list[ViewRow]]:
    """Order, cutoff line and checkmarks of a rendered Markdown table."""

    rows: list[ViewRow] = []
    cut = None
    for line in text.splitlines()[2:]:
        cells = line[2:-2].split(" | ")
        if all(cell == "╌╌╌" for cell in cells):
            cut = len(rows) + 1
            continue
        name = cells[0][2:].removeprefix("⊘ ").removesuffix(" †")
        rows.append(ViewRow(name, len(rows) + 1, cells[-1] == "✓", cut is None))
    return cut, rows


def compare_pair(
    decision: oracle.Decision, cutoff: int | None, rows: list[ViewRow]
) -> tuple[list[str], list[str]]:
    """(unexplained differences, float-split ties) of one pair's view."""

    pair = decision.pair
    mine = {row.system: row for row in decision.rows}
    if sorted(mine) != sorted(row.system for row in rows):
        return [f"{pair}: rows differ from the oracle's"], []
    tied: dict[Fraction, set[int]] = {}
    for row in decision.rows:
        tied.setdefault(row.aggregate, set()).add(row.position)
    problems, splits = [], []
    split_groups = set()
    for row in rows:
        exact = mine[row.system]
        if row.aggregate is not None and abs(Fraction(row.aggregate) - exact.aggregate) > AGGREGATE_TOLERANCE:
            problems.append(f"{pair}: {row.system}: aggregate {row.aggregate}")
        if row.position != exact.position:
            if row.position in tied[exact.aggregate]:
                split_groups.add(exact.aggregate)
            else:
                problems.append(f"{pair}: {row.system}: position {row.position}, oracle {exact.position}")
    for aggregate in sorted(split_groups):
        names = sorted(r.system for r in decision.rows if r.aggregate == aggregate)
        splits.append(f"{pair} ({', '.join(names)})")

    cutoff_split = False
    if cutoff != decision.cutoff_position:
        gap_limit = Fraction(oracle.DEFAULT_CONFIG["cutoff_gap"])
        order = [r.aggregate for r in decision.rows]
        if cutoff is not None and order[cutoff - 1] - order[cutoff - 2] == gap_limit:
            cutoff_split = True
            splits.append(f"{pair} (cutoff gap exactly {gap_limit})")
        else:
            problems.append(f"{pair}: cutoff {cutoff}, oracle {decision.cutoff_position}")
    for row in rows:
        exact = mine[row.system]
        if cutoff_split or exact.aggregate in split_groups:
            continue
        if (row.selected, row.above_cutoff) != (exact.selected, exact.above_cutoff) or (
            row.reasons is not None and row.reasons != exact.reasons
        ):
            problems.append(f"{pair}: {row.system}: verdict differs from the oracle's")
    return problems, splits


def decisions_check(
    decisions: Mapping[str, oracle.Decision],
    views: Callable[[Output], Mapping[str, tuple[int | None, list[ViewRow]]]],
) -> Check:
    """Positions, cutoff, verdicts and aggregates against the oracle."""

    def check(output: Output) -> Verdict | None:
        try:
            found = views(output)
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(f"unreadable output: {exc!r}")
        if sorted(found) != sorted(decisions):
            return Verdict(f"pairs {sorted(found)[:3]}... differ from the oracle's")
        problems, splits = [], []
        for pair, (cutoff, rows) in found.items():
            p, s = compare_pair(decisions[pair], cutoff, rows)
            problems += p
            splits += s
        if problems:
            return Verdict(f"{len(problems)} differences from the oracle, first: {problems[0]}")
        if splits:
            return Verdict(f"float-split tie in {'; '.join(splits)}", known=True)
        return None

    return check


def exit_check(output: Output) -> Verdict | None:
    if output.code != 0:
        first = output.stderr.decode("utf-8", "replace").strip().split("\n")[0]
        return Verdict(f"exit code {output.code}: {first}")
    return None


def verify_check(n_pairs: int, decisions: Mapping[str, oracle.Decision] | None = None) -> Check:
    """Every pair verified ok; a selection mismatch on exactly tied rows is
    the known float-split defect."""

    summary = f"compared {n_pairs} pair(s): {n_pairs} ok, 0 mismatched"
    tied = set()
    for decision in (decisions or {}).values():
        groups: dict[Fraction, list[str]] = {}
        for row in decision.rows:
            groups.setdefault(row.aggregate, []).append(row.system)
        tied |= {(decision.pair, n) for names in groups.values() if len(names) > 1 for n in names}

    def check(output: Output) -> Verdict | None:
        lines = output.stdout.decode("utf-8").splitlines()
        if output.code == 0 and lines and lines[-1] == summary:
            return None
        if output.code not in (0, 2):
            return exit_check(output)
        mismatches = [line.strip() for line in lines if line.startswith("  ") and "note:" not in line]
        if mismatches and all(
            ": selected: " in line and tuple(line.split(": ")[:2]) in tied for line in mismatches
        ):
            return Verdict(f"float-split tie: {mismatches[0]}", known=True)
        return Verdict(f"verify: {mismatches[0] if mismatches else (lines or ['no output'])[-1]}")

    return check


# --- workloads ----------------------------------------------------------------


def recorded_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def rank_args(scores: Path, systems: Path, fmt: str, *extra: str) -> list[str]:
    return ["rank", "--scores", str(scores), "--systems", str(systems), "--format", fmt, *extra]


def wmt24_commands(work: Path) -> list[Command]:
    data = ROOT / "data" / "wmt24"
    scores, systems = data / "scores.tsv", data / "systems.tsv"
    latex = work / "latex"
    return [
        Command("rank-text", rank_args(scores, systems, "text")),
        Command("rank-json", rank_args(scores, systems, "json")),
        Command(
            "rank-latex",
            rank_args(scores, systems, "latex", "--out", str(latex), "--exclude-closed", "--show-reasons"),
            latex,
        ),
        Command(
            "verify",
            [
                "verify", "--scores", str(scores), "--systems", str(systems),
                "--golden", str(data / "golden"),
                "--allow-mismatch", str(data / "allow_mismatch.txt"),
            ],
        ),
    ]


def campaign_commands(inputs: Path, work: Path) -> list[Command]:
    scores, systems = inputs / "scores.tsv", inputs / "systems.tsv"
    md = work / "md"
    return [
        Command("rank-json", rank_args(scores, systems, "json")),
        Command("rank-md", rank_args(scores, systems, "md", "--out", str(md)), md),
    ]


def wide_commands(inputs: Path) -> list[Command]:
    return [
        Command(
            "verify",
            [
                "verify", "--scores", str(inputs / "scores.tsv"),
                "--systems", str(inputs / "systems.tsv"),
                "--golden", str(inputs / "golden"), "--autorank-tol", "1e-9",
            ],
        )
    ]


def read_inputs(inputs: Path) -> tuple[str, str]:
    return (
        (inputs / "systems.tsv").read_text(encoding="utf-8"),
        (inputs / "scores.tsv").read_text(encoding="utf-8"),
    )


def make_wide_inputs(inputs: Path, seed: int) -> dict[str, oracle.Decision]:
    gen.write_campaign(inputs, *WIDE_SHAPE, seed)
    systems_text, scores_text = read_inputs(inputs)
    oracle.write_goldens(inputs / "golden", systems_text, scores_text)
    return oracle.rank_all(systems_text, scores_text)


def prepare(name: str, seed: int, work: Path) -> Plan:
    digests = recorded_digests()
    if name == "wmt24":
        # the bundled corpus: the seed does not change these inputs
        commands = wmt24_commands(work)
        systems_text, scores_text = read_inputs(ROOT / "data" / "wmt24")
        decisions = oracle.rank_all(systems_text, scores_text)
        recorded = {label: digest_check(d) for label, d in digests["wmt24"].items()}
        checks = {
            "rank-text": both(exit_check, recorded["rank-text"]),
            "rank-json": both(exit_check, recorded["rank-json"], decisions_check(decisions, json_views)),
            "rank-latex": both(exit_check, recorded["rank-latex"]),
            "verify": both(verify_check(len(decisions)), recorded["verify"]),
        }
        return Plan(name, commands, checks, scores_text.count("\n") - 1)

    if name == "campaign":
        inputs = work / "in"
        gen.write_campaign(inputs, *CAMPAIGN_SHAPE, seed)
        systems_text, scores_text = read_inputs(inputs)
        decisions = oracle.rank_all(systems_text, scores_text)
        seen = {reason for d in decisions.values() for row in d.rows for reason in row.reasons}
        if seen != set(oracle.REASONS):
            raise BenchError(f"seed {seed}: reason codes never used: {sorted(set(oracle.REASONS) - seen)}")

        def md_views(output: Output) -> dict:
            return {
                name.removesuffix(".md"): markdown_view(data.decode("utf-8"))
                for name, data in output.files.items()
            }

        checks = {
            "rank-json": both(exit_check, decisions_check(decisions, json_views)),
            "rank-md": both(exit_check, decisions_check(decisions, md_views)),
        }
        canary_in = work / "canary"
        gen.write_campaign(canary_in, *CAMPAIGN_SHAPE, CANARY_SEED)
        canary = [
            (command, both(exit_check, digest_check(digests["campaign"][command.label])))
            for command in campaign_commands(canary_in, canary_in)
        ]
        return Plan(name, campaign_commands(inputs, work), checks, scores_text.count("\n") - 1, canary)

    if name == "wide-verify":
        inputs = work / "in"
        decisions = make_wide_inputs(inputs, seed)
        scores_lines = (inputs / "scores.tsv").read_text(encoding="utf-8").count("\n") - 1
        checks = {"verify": verify_check(len(decisions), decisions)}
        canary_in = work / "canary"
        canary_decisions = make_wide_inputs(canary_in, CANARY_SEED)
        canary = [
            (
                command,
                both(
                    verify_check(len(canary_decisions), canary_decisions),
                    digest_check(digests["wide-verify"]["verify"]),
                ),
            )
            for command in wide_commands(canary_in)
        ]
        return Plan(name, wide_commands(inputs), checks, scores_lines, canary)

    raise BenchError(f"unknown workload {name!r}")


# --- measuring ----------------------------------------------------------------------


class Ledger:
    """Checks every operation once per distinct output and tallies failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.correct = True
        self._seen: dict[tuple[str, str], Verdict | None] = {}
        self._first: dict[str, str] = {}

    def record(self, label: str, check: Check, output: Output) -> None:
        self.attempted += 1
        key = (label, json.dumps([output.code, output.digests()], sort_keys=True))
        if key not in self._seen:
            verdict = check(output)
            # reruns on the same input must give the same bytes
            if verdict is None and self._first.setdefault(label, key[1]) != key[1]:
                verdict = Verdict("output bytes differ from an earlier run of the same command")
            self._seen[key] = verdict
        verdict = self._seen[key]
        if verdict is not None:
            cause = f"{label}: {verdict.cause}"
            self.failures[cause] = self.failures.get(cause, 0) + 1
            self.correct = self.correct and verdict.known

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure_end_to_end(plan: Plan, seconds: float, runner: Runner, ledger: Ledger) -> dict:
    runner.interpreter_ms("import autorank.cli", 1)  # fills the bytecode cache
    # the machine's speed drifts over seconds, so import timings are taken
    # one per cycle across the whole run, topped up at the end
    imports: list[float] = []
    # the canary (or, without one, a first cycle) also warms caches
    for command, check in plan.canary or [(c, plan.checks[c.label]) for c in plan.commands]:
        output, _, _ = runner.child(command)
        ledger.record(f"canary {command.label}" if plan.canary else command.label, check, output)

    walls: list[float] = []
    peak_kib = 0
    deadline = perf_counter() + seconds
    while True:
        imports += runner.interpreter_ms("import autorank.cli", 1)
        for command in plan.commands:
            output, wall, rss = runner.child(command)
            walls.append(wall)
            peak_kib = max(peak_kib, rss)
            ledger.record(command.label, plan.checks[command.label], output)
        if perf_counter() >= deadline:
            break
    if len(imports) < SETUP_REPEATS:
        imports += runner.interpreter_ms("import autorank.cli", SETUP_REPEATS - len(imports))
    n = len(walls)
    metrics = {
        "setup_s": (statistics.median(imports) / 1000, "s", len(imports)),
        "records_per_s": (plan.records * n / sum(walls), "1/s", n),
        "peak_rss_mb": (peak_kib / 1024, "MB", n),
        "wall_p50_ms": (statistics.median(walls) * 1000, "ms", n),
    }
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1]
        metrics[TAIL_METRIC] = (p90 * 1000, "ms", n)
    return metrics


def layer_values(spans: list[list], own: list[int], counts: Mapping[str, int], n_ops: int) -> dict[str, float]:
    """Per-invocation layer metrics of one traced cycle."""

    totals: dict[str, int] = {}
    selfs: dict[str, int] = {}
    for span, self_ns in zip(spans, own):
        totals[span[0]] = totals.get(span[0], 0) + span[2] - span[1]
        selfs[span[0]] = selfs.get(span[0], 0) + self_ns
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in SELF_SPANS:
            values[name] = selfs.get(SELF_SPANS[name], 0) / 1e6 / n_ops
        elif unit == "ms" and not name.startswith("startup."):
            values[name] = totals.get(name.removesuffix("_ms"), 0) / 1e6 / n_ops
        elif unit in ("count", "bytes"):
            values[name] = counts.get(name, 0) / n_ops
    return values


def measure_layers(plan: Plan, seconds: float, runner: Runner, ledger: Ledger) -> dict:
    runner.interpreter_ms("import autorank.cli", 1)  # fills the bytecode cache
    interp = runner.interpreter_ms("pass", SETUP_REPEATS)
    imports = runner.interpreter_ms("import autorank.cli", SETUP_REPEATS)

    sys.pycache_prefix = str(STATE / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    import autorank.cli

    if Path(autorank.cli.__file__).resolve() != (ROOT / "src" / "autorank" / "cli.py").resolve():
        raise BenchError(f"imported autorank from {autorank.cli.__file__}, not from this checkout")

    tracer = Tracer()
    n_ops = len(plan.commands)
    plain_ns: list[int] = []
    traced_ns: list[int] = []
    cycles: list[tuple[int, int, dict[str, int]]] = []  # span slice, counts
    deadline = perf_counter() + seconds
    while len(traced_ns) < 2 or perf_counter() < deadline:
        for traced in (False, True):
            first_span = len(tracer.spans)
            before = dict(tracer.counts)
            if traced:
                tracer.install()
            elapsed = size = 0
            try:
                for command in plan.commands:
                    tracer.op += 1
                    output, ns = run_inprocess(command)
                    elapsed += ns
                    size += output.size
                    ledger.record(command.label, plan.checks[command.label], output)
            finally:
                tracer.restore()
            (traced_ns if traced else plain_ns).append(elapsed)
            if traced:
                counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
                counts["cli.bytes_out"] = size
                cycles.append((first_span, len(tracer.spans), counts))

    tracer.write(runner.work / "spans.jsonl")
    own = self_times(tracer.spans)
    per_cycle = [
        layer_values(tracer.spans[a:b], own[a:b], counts, n_ops) for a, b, counts in cycles
    ]
    values: dict[str, float] = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name not in per_cycle[0]:
            continue
        samples = [cycle[name] for cycle in per_cycle]
        if unit != "ms" and len(set(samples)) != 1:
            ledger.failures[f"count {name} differs between cycles: {samples}"] = 1
            ledger.correct = False
        values[name] = statistics.median(samples)
    values["startup.interp_ms"] = statistics.median(interp)
    values["startup.import_ms"] = statistics.median(imports) - values["startup.interp_ms"]
    values["trace.overhead_frac"] = statistics.median(traced_ns) / statistics.median(plain_ns) - 1
    samples = {"startup.interp_ms": len(interp), "startup.import_ms": len(imports)}
    return {
        name: (values[name], unit, samples.get(name, len(cycles)))
        for name, unit in PER_LAYER_UNITS.items()
    }


# --- reporting ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Ledger, dict]:
    work = STATE / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with Runner(work) as runner:
        plan = prepare(name, seed, work)
        ledger = Ledger()
        measure = measure_layers if trace else measure_end_to_end
        return ledger, measure(plan, seconds, runner, ledger)


def print_summary(name: str, ledger: Ledger, metrics: dict) -> None:
    print(f"== {name}: {ledger.attempted} operations, {ledger.failed} failed")
    for metric, (value, unit, n) in metrics.items():
        gated = metric in END_TO_END_UNITS or metric in PER_LAYER_UNITS
        print(f"   {metric:38s} {value:16.4f} {unit:6s} n={n}{'' if gated else '  (summary only)'}")
    if "wall_p50_ms" in metrics and TAIL_METRIC not in metrics:
        n = metrics["wall_p50_ms"][2]
        print(f"   {TAIL_METRIC:38s} {'omitted':>16s} ms     n={n} < {P90_MIN_SAMPLES}")
    for cause, count in sorted(ledger.failures.items()):
        print(f"   FAILED {count} x {cause}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "autorank" / "cli.py").is_file() or not (ROOT / "data" / "wmt24").is_dir():
        print(f"error: {ROOT} is not an autorank checkout (no src/autorank, data/wmt24)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ledger, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_summary(name, ledger, found)
            correct = correct and ledger.correct
            attempted += ledger.attempted
            failed += ledger.failed
            for metric, (value, unit, _) in found.items():
                if metric not in END_TO_END_UNITS and metric not in PER_LAYER_UNITS:
                    continue
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
