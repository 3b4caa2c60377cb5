"""Seeded synthetic campaign generator.

Writes a ``systems.tsv`` and a ``scores.tsv`` in autorank's input
formats.  Every system scores every pair on both default metrics, so a
campaign of P pairs and S systems holds 2 * P * S score records.

The score distribution imitates WMT24: per pair a dense head of systems
close to the best one and a long tail of weak ones, MetricX (lower is
better) and CometKiwi (higher is better) correlated but noisy, all
scores printed with three decimals.  Where the tail begins varies from
pair to pair, so the quality cutoff lands at varied depths.  The
registry mixes all three categories, blanket and per-pair withdrawals,
and directions a system does not claim to support.

The same (pairs, systems, seed) always gives the same bytes.

Usage: python3 perfbench/gen.py --pairs 100 --systems 100 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

LANGUAGES = (
    "ar", "cs", "de", "en", "es", "fi", "fr", "hi", "is", "it",
    "ja", "ko", "nl", "pl", "pt", "ru", "sv", "tr", "uk", "zh",
)
STEMS = (
    "AIST", "CUNI", "CycleL", "Dubformer", "HW_TSC", "IKUN", "IOL", "MSLC",
    "NTTSU", "ONLINE", "Occiglot", "Phi-3.5", "SCIR", "TSU", "Tower", "UvA",
)
CATEGORIES = (("constrained", 0.4), ("open", 0.3), ("closed", 0.3))


def _milli(value: float) -> str:
    """Three-decimal text of ``value``, rounded through integer thousandths."""

    m = max(1, round(value * 1000))
    return f"{m // 1000}.{m % 1000:03d}"


def campaign(pairs: int, systems: int, seed: int) -> tuple[str, str]:
    """Return ``(systems_tsv, scores_tsv)`` for a seeded campaign."""

    all_pairs = [f"{s}-{t}" for s in LANGUAGES for t in LANGUAGES if s != t]
    if not 1 <= pairs <= len(all_pairs):
        raise ValueError(f"pairs must be in 1..{len(all_pairs)}, got {pairs}")
    if systems < 1:
        raise ValueError(f"systems must be >= 1, got {systems}")
    rng = random.Random(seed)
    codes = sorted(rng.sample(all_pairs, pairs))

    names = [f"{rng.choice(STEMS)}-{i:03d}" for i in range(systems)]
    registry = ["system\tcategory\twithdrawn\tunsupported_pairs"]
    for name in names:
        draw = rng.random()
        category = "closed"
        for label, share in CATEGORIES:
            if draw < share:
                category = label
                break
            draw -= share
        withdrawn = "0"
        roll = rng.random()
        if roll < 0.03:
            withdrawn = "1"
        elif roll < 0.08:
            withdrawn = ",".join(sorted(rng.sample(codes, min(len(codes), rng.randint(1, 3)))))
        unsupported = ""
        if rng.random() < 0.2:
            unsupported = ",".join(sorted(rng.sample(codes, min(len(codes), rng.randint(1, 5)))))
        registry.append(f"{name}\t{category}\t{withdrawn}\t{unsupported}")

    scores = ["pair\tsystem\tmetric\tscore"]
    for code in codes:
        best = rng.uniform(0.8, 3.5)
        top_kiwi = rng.uniform(0.6, 0.76)
        tail_share = rng.uniform(0.05, 0.3)
        head_spread = rng.uniform(0.6, 2.5)
        for name in names:
            if rng.random() < tail_share:
                gap = rng.uniform(4.0, 21.0)
            else:
                gap = rng.expovariate(1.0 / head_spread)
            metricx = best + gap + rng.gauss(0.0, 0.05)
            kiwi = min(0.9, top_kiwi - 0.03 * gap + rng.gauss(0.0, 0.005))
            scores.append(f"{code}\t{name}\tmetricx-23-xl\t{_milli(metricx)}")
            scores.append(f"{code}\t{name}\tcometkiwi-da-xl\t{_milli(kiwi)}")
    return "\n".join(registry) + "\n", "\n".join(scores) + "\n"


def write_campaign(out: Path, pairs: int, systems: int, seed: int) -> None:
    systems_tsv, scores_tsv = campaign(pairs, systems, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "systems.tsv").write_text(systems_tsv, encoding="utf-8")
    (out / "scores.tsv").write_text(scores_tsv, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--systems", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_campaign(args.out, args.pairs, args.systems, args.seed)


if __name__ == "__main__":
    main()
