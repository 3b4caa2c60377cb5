from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

from autorank import LanguagePair, parse_registry, parse_scores, rank_pair

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "wmt24"

# No test may hang the suite: each one, with its setup and teardown, fails
# once it runs this long.  The whole suite takes well under a minute.
TEST_TIME_BOUND_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on Windows; run unbounded
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran longer than {TEST_TIME_BOUND_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def registry():
    return parse_registry((DATA_DIR / "systems.tsv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def scores(registry):
    return parse_scores((DATA_DIR / "scores.tsv").read_text(encoding="utf-8"), registry)


@pytest.fixture(scope="session")
def goldens() -> dict[str, dict]:
    """Transcribed published tables, one golden report per pair."""
    out = {}
    for path in sorted((DATA_DIR / "golden").glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        for entry in report["pairs"]:
            out[entry["pair"]] = entry
    return out


@pytest.fixture(scope="session")
def tables(registry, scores, goldens):
    """Engine-ranked tables for every pair in the fixture corpus."""
    return {code: rank_pair(registry, scores, LanguagePair.from_code(code)) for code in goldens}
