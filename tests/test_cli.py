from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import autorank.pipeline
from autorank.cli import ExitStatus, main

REGISTRY = """system\tcategory\twithdrawn\tunsupported_pairs
Ada\topen\t0\t
Bell\tclosed\t0\t
Cray\tconstrained\t0\t
"""

SCORES = """pair\tsystem\tmetric\tscore
xx-yy\tAda\tmetricx-23-xl\t1.0
xx-yy\tAda\tcometkiwi-da-xl\t0.7
xx-yy\tBell\tmetricx-23-xl\t2.0
xx-yy\tBell\tcometkiwi-da-xl\t0.6
xx-yy\tCray\tmetricx-23-xl\t3.0
xx-yy\tCray\tcometkiwi-da-xl\t0.5
zz-ww\tAda\tmetricx-23-xl\t1.5
zz-ww\tAda\tcometkiwi-da-xl\t0.65
zz-ww\tBell\tmetricx-23-xl\t2.5
zz-ww\tBell\tcometkiwi-da-xl\t0.55
"""

MANIFEST = """pair\tsegments\twords
xx-yy\t1000\t32000
"""


@pytest.fixture()
def inputs(tmp_path: Path) -> dict[str, str]:
    scores = tmp_path / "scores.tsv"
    systems = tmp_path / "systems.tsv"
    manifest = tmp_path / "manifest.tsv"
    scores.write_text(SCORES, encoding="utf-8")
    systems.write_text(REGISTRY, encoding="utf-8")
    manifest.write_text(MANIFEST, encoding="utf-8")
    return {"scores": str(scores), "systems": str(systems), "manifest": str(manifest)}


def _rank(inputs, *extra: str) -> list[str]:
    return [
        "rank",
        "--scores",
        inputs["scores"],
        "--systems",
        inputs["systems"],
        *extra,
    ]


class TestRankStdout:
    def test_single_pair_text(self, inputs, capsys):
        code = main(_rank(inputs, "--pair", "xx-yy", "--format", "text"))
        assert code == ExitStatus.OK == 0
        out = capsys.readouterr().out
        assert out.startswith("xx-yy  (N=3)")
        assert "Ada" in out and "Bell" in out and "Cray" in out
        assert "\x1b[" not in out  # captured stdout is not a tty

    def test_all_pairs_ranked_by_default(self, inputs, capsys):
        code = main(_rank(inputs, "--format", "text"))
        assert code == 0
        out = capsys.readouterr().out
        assert "xx-yy  (N=3)" in out and "zz-ww  (N=2)" in out

    def test_multi_pair_json_is_one_report(self, inputs, capsys):
        code = main(_rank(inputs, "--format", "json"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["pair"] for p in payload["pairs"]] == ["xx-yy", "zz-ww"]
        assert payload["config"]["cutoff_gap"] == "1.5"

    def test_exclude_closed_filters(self, inputs, capsys):
        code = main(_rank(inputs, "--pair", "xx-yy", "--format", "json", "--exclude-closed"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["system"] for r in payload["pairs"][0]["rows"]] == ["Ada", "Cray"]

    def test_show_reasons_column(self, inputs, capsys):
        code = main(_rank(inputs, "--pair", "xx-yy", "--format", "md", "--show-reasons"))
        assert code == 0
        out = capsys.readouterr().out
        assert "Reasons" in out and "selected_constrained" in out

    def test_span_option_changes_scale(self, inputs, capsys):
        main(_rank(inputs, "--pair", "xx-yy", "--format", "json"))
        full = json.loads(capsys.readouterr().out)
        main(_rank(inputs, "--pair", "xx-yy", "--format", "json", "--span", "n-1"))
        narrow = json.loads(capsys.readouterr().out)
        worst_full = full["pairs"][0]["rows"][-1]
        worst_narrow = narrow["pairs"][0]["rows"][-1]
        assert worst_full["autorank_exact"] == "4.0"  # 1 + N with N=3
        assert worst_narrow["autorank_exact"] == "3.0"  # 1 + (N-1)
        assert narrow["config"]["scale_span"] == "n-1"

    def test_manifest_gate_passes_when_pair_listed(self, inputs, capsys):
        code = main(
            _rank(inputs, "--pair", "xx-yy", "--format", "text", "--manifest", inputs["manifest"])
        )
        assert code == 0


class TestRankFiles:
    def test_out_writes_one_file_per_pair(self, inputs, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(_rank(inputs, "--format", "latex", "--out", str(out_dir)))
        assert code == 0
        assert capsys.readouterr().out == ""
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["xx-yy.tex", "zz-ww.tex"]
        body = (out_dir / "xx-yy.tex").read_text(encoding="utf-8")
        assert body.startswith("\\begin{tabular}")

    @pytest.mark.parametrize(
        "fmt, ext", [("text", "txt"), ("md", "md"), ("latex", "tex"), ("json", "json")]
    )
    def test_extension_per_format(self, inputs, tmp_path, fmt, ext):
        out_dir = tmp_path / "out"
        assert main(_rank(inputs, "--pair", "xx-yy", "--format", fmt, "--out", str(out_dir))) == 0
        assert [p.name for p in out_dir.iterdir()] == [f"xx-yy.{ext}"]

    def test_no_temp_files_left_behind(self, inputs, tmp_path):
        out_dir = tmp_path / "out"
        main(_rank(inputs, "--format", "json", "--out", str(out_dir)))
        leftovers = [p.name for p in out_dir.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_reruns_are_byte_identical(self, inputs, tmp_path):
        out_dir = tmp_path / "out"
        main(_rank(inputs, "--format", "json", "--out", str(out_dir)))
        first = (out_dir / "xx-yy.json").read_bytes()
        main(_rank(inputs, "--format", "json", "--out", str(out_dir)))
        assert (out_dir / "xx-yy.json").read_bytes() == first


class TestRankErrors:
    def test_malformed_pair_code_is_usage_error(self, inputs, capsys):
        code = main(_rank(inputs, "--pair", "xxyy", "--format", "text"))
        assert code == ExitStatus.USAGE_ERROR == 3
        assert "usage error" in capsys.readouterr().err

    def test_unknown_format_is_usage_error(self, inputs, capsys):
        assert main(_rank(inputs, "--format", "csv")) == 3

    def test_bad_fraction_is_usage_error(self, inputs):
        assert main(_rank(inputs, "--format", "text", "--closed-fraction", "banana")) == 3
        assert main(_rank(inputs, "--format", "text", "--closed-fraction", "1/0")) == 3

    def test_unscored_pair_is_validation_error(self, inputs, capsys):
        code = main(_rank(inputs, "--pair", "qq-rr", "--format", "text"))
        assert code == ExitStatus.VALIDATION_ERROR == 1
        assert "no scores for pair qq-rr" in capsys.readouterr().err

    def test_missing_scores_file_is_validation_error(self, inputs, capsys):
        inputs["scores"] = inputs["scores"] + ".absent"
        code = main(_rank(inputs, "--format", "text"))
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_manifest_without_pair_is_validation_error(self, inputs, capsys):
        code = main(
            _rank(inputs, "--pair", "zz-ww", "--format", "text", "--manifest", inputs["manifest"])
        )
        assert code == 1
        assert "no manifest entry for pair(s): zz-ww" in capsys.readouterr().err

    def test_malformed_scores_file_reports_line(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad_scores.tsv"
        bad.write_text(
            "pair\tsystem\tmetric\tscore\nxx-yy\tAda\tmetricx-23-xl\tnan\n", encoding="utf-8"
        )
        inputs["scores"] = str(bad)
        code = main(_rank(inputs, "--format", "text"))
        assert code == 1
        err = capsys.readouterr().err
        assert "bad_scores.tsv" in err and "line 2" in err


DATA = Path(__file__).resolve().parents[1] / "data" / "wmt24"


def _verify(*extra: str) -> list[str]:
    return [
        "verify",
        "--scores",
        str(DATA / "scores.tsv"),
        "--systems",
        str(DATA / "systems.tsv"),
        *extra,
    ]


class TestVerify:
    def test_corpus_with_allowances_is_ok(self, capsys):
        code = main(
            _verify(
                "--golden",
                str(DATA / "golden"),
                "--allow-mismatch",
                str(DATA / "allow_mismatch.txt"),
            )
        )
        out = capsys.readouterr().out
        assert code == ExitStatus.OK == 0
        assert "compared 11 pair(s): 11 ok, 0 mismatched" in out
        assert out.count(": ok") == 11

    def test_corpus_without_allowances_mismatches(self, capsys):
        code = main(_verify("--golden", str(DATA / "golden")))
        out = capsys.readouterr().out
        assert code == ExitStatus.GOLDEN_MISMATCH == 2
        assert "cs-uk: MISMATCH" in out
        assert "Llama3-70B" in out
        assert "compared 11 pair(s): 10 ok, 1 mismatched" in out

    def test_empty_golden_dir_warns_but_passes(self, tmp_path, capsys):
        code = main(_verify("--golden", str(tmp_path)))
        out = capsys.readouterr().out
        assert code == 0
        assert "warning: golden directory contained no pair entries" in out

    def test_golden_not_a_directory(self, tmp_path, capsys):
        code = main(_verify("--golden", str(tmp_path / "nowhere")))
        assert code == 1
        assert "not a directory" in capsys.readouterr().err

    def test_malformed_golden_report(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text('{"pairs": [{"pair": "cs-uk"}]}', encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert "malformed golden report" in capsys.readouterr().err

    def test_malformed_golden_pair_code(self, tmp_path, capsys):
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["pair"] = "cs"
        path = tmp_path / "cs.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: {path}: malformed golden report: malformed language pair code: 'cs'\n"
        )

    def test_golden_pair_with_score_hole_is_validation_error(self, tmp_path, capsys):
        # dropping the first score row leaves cs-uk's matrix with a hole
        lines = (DATA / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        scores = tmp_path / "scores.tsv"
        scores.write_text(lines[0] + "".join(lines[2:]), encoding="utf-8")
        golden = tmp_path / "golden"
        golden.mkdir()
        (golden / "cs-uk.json").write_bytes((DATA / "golden" / "cs-uk.json").read_bytes())
        argv = _verify("--golden", str(golden))
        argv[argv.index("--scores") + 1] = str(scores)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: cs-uk is not rankable, missing scores: Unbabel-Tower70B/metricx-23-xl\n"
        )

    def test_golden_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]", encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: top level is not an object\n"
        )

    @pytest.mark.parametrize(
        "field,value,reason",
        [
            ("autorank_exact", "high", "golden row autorank_exact is not a finite decimal: 'high'"),
            ("autorank_exact", "NaN", "golden row autorank_exact is not a finite decimal: 'NaN'"),
            ("position", "first", "golden row position is not an integer: 'first'"),
            ("position", 1.5, "golden row position is not an integer: 1.5"),
        ],
        ids=["word-score", "nan-score", "word-position", "fractional-position"],
    )
    def test_golden_row_with_bad_value(self, tmp_path, capsys, field, value, reason):
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["rows"][3][field] = value
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: malformed golden report: {reason}\n"

    def test_golden_config_with_zero_denominator(self, tmp_path, capsys):
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["config"]["closed_fraction"] = "1/0"
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed golden report: ")
        assert err.count("\n") == 1

    def test_invalid_json_golden(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{", encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path))) == 1

    def test_golden_pair_without_scores_mismatches(self, tmp_path, capsys):
        report = {
            "config": None,
            "pairs": [
                {
                    "pair": "qq-rr",
                    "cutoff_position": None,
                    "rows": [
                        {
                            "system": "Ghost",
                            "category": "open",
                            "autorank_exact": "1.0",
                            "position": 1,
                            "selected": True,
                        }
                    ],
                }
            ],
        }
        (tmp_path / "qq-rr.json").write_text(json.dumps(report), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        out = capsys.readouterr().out
        assert code == 2
        assert "qq-rr: MISMATCH" in out
        assert "no scores for this pair" in out

    def test_negative_tolerance_is_usage_error(self, tmp_path):
        assert main(_verify("--golden", str(tmp_path), "--autorank-tol", "-0.1")) == 3

    def test_zero_tolerance_tightens_bands(self, capsys):
        # with no slack beyond each value's own precision, the corpus no
        # longer verifies: recomputed aggregates drift past the half-ulp
        code = main(
            _verify(
                "--golden",
                str(DATA / "golden"),
                "--allow-mismatch",
                str(DATA / "allow_mismatch.txt"),
                "--autorank-tol",
                "0",
            )
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "autorank" in out


WMT24_INPUTS = ["--scores", str(DATA / "scores.tsv"), "--systems", str(DATA / "systems.tsv")]


class TestLinearity:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--format", "text"],
            [
                "verify",
                "--golden",
                str(DATA / "golden"),
                "--allow-mismatch",
                str(DATA / "allow_mismatch.txt"),
            ],
        ],
        ids=["rank", "verify"],
    )
    def test_completeness_sees_each_record_once(self, argv, monkeypatch, capsys):
        original = autorank.pipeline.check_completeness
        received = []

        def counting(records, *rest):
            received.append(len(records))
            return original(records, *rest)

        monkeypatch.setattr(autorank.pipeline, "check_completeness", counting)
        assert main(argv[:1] + WMT24_INPUTS + argv[1:]) == 0
        capsys.readouterr()
        assert len(received) == 11
        assert sum(received) == 488


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestRecordedDigests:
    """WMT24 outputs stay byte-identical to the digests the benchmark recorded."""

    @pytest.mark.parametrize(
        "label,extra",
        [
            ("rank-text", ["--format", "text"]),
            ("rank-json", ["--format", "json"]),
            (
                "rank-latex",
                ["--format", "latex", "--out", "{out}", "--exclude-closed", "--show-reasons"],
            ),
        ],
    )
    def test_wmt24_rank_output(self, label, extra, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rank", *WMT24_INPUTS] + [arg.format(out=out) for arg in extra]) == 0
        found = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
        if out.is_dir():
            found.update((path.name, _sha256(path.read_bytes())) for path in out.iterdir())
        assert found == json.loads(DIGESTS.read_text(encoding="utf-8"))["wmt24"][label]


class TestEntrypoint:
    def test_console_script_runs(self, inputs):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "autorank.cli",
                "rank",
                "--scores",
                inputs["scores"],
                "--systems",
                inputs["systems"],
                "--format",
                "text",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "xx-yy" in result.stdout

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 3
        capsys.readouterr()
