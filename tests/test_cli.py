from __future__ import annotations

import contextlib
import errno
import hashlib
import importlib
import io
import itertools
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import autorank.cli
import autorank.golden
import autorank.ingest
import autorank.pipeline
from autorank import (
    ParseError,
    RenderOptions,
    TableFormat,
    parse_manifest,
    parse_registry,
    parse_scores,
    rank_pair,
    render_report,
    render_table,
)
from autorank.cli import ExitStatus, main

from _tsv import block_size, parse_scratch_size

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


_HUGE_RANGE_SCORES = """pair\tsystem\tmetric\tscore
xx-yy\tAda\tmetricx-23-xl\t1e308
xx-yy\tAda\tcometkiwi-da-xl\t0.5
xx-yy\tBell\tmetricx-23-xl\t-1e308
xx-yy\tBell\tcometkiwi-da-xl\t0.6
"""


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

    def test_span_option_is_usage_error(self, inputs, capsys):
        # the scale is every published table's, 1 to 1 + N; --span n-1 used to narrow it
        main(_rank(inputs, "--pair", "xx-yy", "--format", "json"))
        full = json.loads(capsys.readouterr().out)
        assert full["pairs"][0]["rows"][-1]["autorank_exact"] == "4.0"  # 1 + N with N=3
        assert full["config"]["scale_span"] == "n"
        argv = _rank(inputs, "--pair", "xx-yy", "--format", "json", "--span", "n-1")
        assert main(argv) == ExitStatus.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: unrecognized arguments: --span n-1\n"

    @pytest.mark.parametrize(
        "flag,value",
        [("--cutoff-gap", "1.0"), ("--closed-fraction", "1/2"), ("--open-fraction", "3/4")],
    )
    def test_rule_options_are_usage_errors(self, inputs, tmp_path, capsys, flag, value):
        # the cutoff gap and the depths are every published table's rules
        out_dir = tmp_path / "out"
        for out in ([], ["--out", str(out_dir)]):
            argv = _rank(inputs, "--format", "json", flag, value, *out)
            assert main(argv) == ExitStatus.USAGE_ERROR
            error = f"usage error: unrecognized arguments: {flag} {value}\n"
            assert capsys.readouterr() == ("", error)
        assert not out_dir.exists()

    def test_repeated_pair_is_ranked_once(self, inputs, capsys):
        pairs = ["--pair", "zz-ww", "--pair", "xx-yy", "--pair", "zz-ww"]
        assert main(_rank(inputs, *pairs, "--format", "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["pair"] for p in payload["pairs"]] == ["xx-yy", "zz-ww"]
        assert main(_rank(inputs, *pairs, "--format", "text")) == 0
        titles = [line for line in capsys.readouterr().out.splitlines() if "(N=" in line]
        assert titles == ["zz-ww  (N=2)", "xx-yy  (N=3)"]

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


    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=["022", "027", "077"])
    def test_out_file_mode_follows_the_umask_and_a_replaced_file_keeps_its_own(
        self, inputs, tmp_path, umask
    ):
        # every table used to be written 0600, and a replaced 0644 file became 0600
        out_dir = tmp_path / "out"
        argv = _rank(inputs, "--pair", "xx-yy", "--format", "md", "--out", str(out_dir))
        old = os.umask(umask)
        try:
            assert main(argv) == 0
            table = out_dir / "xx-yy.md"
            assert table.stat().st_mode & 0o777 == 0o666 & ~umask
            table.chmod(0o604)
            assert main(argv) == 0
        finally:
            os.umask(old)
        assert table.stat().st_mode & 0o777 == 0o604

class TestRankErrors:
    def test_malformed_pair_code_is_usage_error(self, inputs, capsys):
        code = main(_rank(inputs, "--pair", "xxyy", "--format", "text"))
        assert code == ExitStatus.USAGE_ERROR == 3
        assert "usage error" in capsys.readouterr().err

    def test_unknown_format_is_usage_error(self, inputs, capsys):
        assert main(_rank(inputs, "--format", "csv")) == 3

    def test_pair_code_with_a_final_newline_is_usage_error(self, inputs, capsys):
        # it used to be read as a pair with no scores: a two-line error, exit 1
        assert main(_rank(inputs, "--pair", "xx-yy\n", "--format", "text")) == 3
        assert capsys.readouterr().err == (
            "usage error: malformed language pair code: 'xx-yy\\n'\n"
        )

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

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663"])  # superscript 2, Arabic-Indic 3
    def test_manifest_count_in_non_ascii_digits_is_validation_error(self, inputs, count, capsys):
        Path(inputs["manifest"]).write_text(MANIFEST.replace("1000", count), encoding="utf-8")
        code = main(_rank(inputs, "--format", "text", "--manifest", inputs["manifest"]))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {inputs['manifest']}: line 2: "
            f"segments must be a positive integer, got {count!r}\n"
        )

    @pytest.mark.parametrize("which", ["systems", "scores", "manifest"])
    def test_input_not_utf8_is_validation_error(self, inputs, which, capsys):
        Path(inputs[which]).write_bytes(b"pair\xff\n")
        code = main(_rank(inputs, "--format", "text", "--manifest", inputs["manifest"]))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read {inputs[which]}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    @pytest.mark.parametrize("which", ["systems", "scores", "manifest"])
    def test_byte_order_mark_is_named(self, inputs, which, capsys):
        path = Path(inputs[which])
        text = path.read_text(encoding="utf-8")
        path.write_text("\ufeff" + text, encoding="utf-8")
        code = main(_rank(inputs, "--format", "text", "--manifest", inputs["manifest"]))
        assert code == ExitStatus.VALIDATION_ERROR
        header = text.split("\n", 1)[0]
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: expected header {header!r}"
            " (the file starts with a UTF-8 byte-order mark)\n"
        )

    def test_out_naming_a_file_is_validation_error(self, inputs, tmp_path, capsys):
        taken = tmp_path / "taken.txt"
        taken.write_text("keep me\n", encoding="utf-8")
        code = main(_rank(inputs, "--format", "text", "--out", str(taken)))
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"
        assert taken.read_text(encoding="utf-8") == "keep me\n"

    def test_out_write_failure_names_the_file_and_keeps_earlier_ones(
        self, inputs, tmp_path, capsys
    ):
        out = tmp_path / "out"
        (out / "zz-ww.txt").mkdir(parents=True)
        code = main(_rank(inputs, "--format", "text", "--out", str(out)))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'zz-ww.txt'}: Is a directory\n"
        )
        # pairs are written in code order; xx-yy came first and stays
        assert (out / "xx-yy.txt").read_text(encoding="utf-8").startswith("xx-yy  (N=3)")
        assert sorted(path.name for path in out.iterdir()) == ["xx-yy.txt", "zz-ww.txt"]

    def test_score_range_beyond_float_is_validation_error(self, inputs, capsys):
        # 1e308 - -1e308 overflows; Ada used to rank first with a NaN AutoRank
        Path(inputs["scores"]).write_text(_HUGE_RANGE_SCORES, encoding="utf-8")
        code = main(_rank(inputs, "--format", "text"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: xx-yy score range for metricx-23-xl is not finite: -1e+308 to 1e+308\n"
        )

    def test_underflowing_scores_are_validation_errors(self, inputs, capsys):
        # as floats all three are 0.0, a three-way tie; the file orders them
        # Ada, Cray, Bell
        Path(inputs["scores"]).write_text(
            "pair\tsystem\tmetric\tscore\n"
            + "".join(
                f"xx-yy\t{name}\t{metric}\t{score}\n"
                for name, score in (("Ada", "1e-400"), ("Bell", "3e-400"), ("Cray", "2e-400"))
                for metric in ("metricx-23-xl", "cometkiwi-da-xl")
            ),
            encoding="utf-8",
        )
        assert main(_rank(inputs, "--format", "text")) == ExitStatus.VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {inputs['scores']}: line 2: score '1e-400' is too small for a float:"
            " a nonzero score needs a magnitude of at least 2.2250738585072014e-308\n"
        )

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
ALLOW = DATA / "allow_mismatch.txt"


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

    def test_allow_list_entry_matching_no_row_is_noted(self, tmp_path, capsys):
        # a typo, a system the pair does not score, and a pair no golden lists;
        # the typo alone used to read as an engine mismatch, with no word on the entry
        allow = tmp_path / "allow.txt"
        allow.write_text("cs-uk/Llama3-70b\n", encoding="utf-8")
        code = main(_verify("--golden", str(DATA / "golden"), "--allow-mismatch", str(allow)))
        out = capsys.readouterr().out
        assert code == ExitStatus.GOLDEN_MISMATCH
        assert "cs-uk: Llama3-70B: selected" in out
        assert out.endswith(
            "note: allow-list entry cs-uk/Llama3-70b matches no row of any verified pair\n"
            "compared 11 pair(s): 10 ok, 1 mismatched\n"
        )
        allow.write_text(
            "xx-yy/Llama3-70B\ncs-uk/Llama3-70B\ncs-uk/CUNI-NL\nen-de/CUNI-NL\n", encoding="utf-8"
        )
        code = main(_verify("--golden", str(DATA / "golden"), "--allow-mismatch", str(allow)))
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        assert out.endswith(
            "note: allow-list entry cs-uk/CUNI-NL matches no row of any verified pair\n"
            "note: allow-list entry xx-yy/Llama3-70B matches no row of any verified pair\n"
            "compared 11 pair(s): 11 ok, 0 mismatched\n"
        )
        # the bundled list names a row: no note
        assert main(_verify("--golden", str(DATA / "golden"), "--allow-mismatch", str(ALLOW))) == 0
        assert "allow-list entry" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("pair", ["cs", "cs-uk\n"])
    def test_malformed_golden_pair_code(self, tmp_path, capsys, pair):
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["pair"] = pair
        path = tmp_path / "cs.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: {path}: malformed golden report: malformed language pair code: {pair!r}\n"
        )

    @pytest.mark.parametrize(
        "value", ["\u0661.\u0660", "1_0.0"], ids=["arabic-indic", "underscore"]
    )
    def test_golden_value_outside_the_ascii_syntax(self, value, tmp_path, capsys):
        # the first row's "1.0" as "\u0661.\u0660" used to verify as ok, and
        # "1_0.0" read as 10.0, a mismatch
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["rows"][0]["autorank_exact"] = value
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path), "--allow-mismatch", str(ALLOW))) == 1
        assert capsys.readouterr() == (
            "",
            f"error: {path}: malformed golden report: "
            f"golden row autorank_exact is not a finite decimal: {value!r}\n",
        )

    @pytest.mark.parametrize(
        "number,string",
        [("1.70", "1.70"), ("1.7", "1.7"), ("17e-1", "17e-1"), ("1e999", "inf")],
        ids=["trailing-zero", "plain", "exponent", "past-float-range"],
    )
    def test_golden_number_is_read_at_the_precision_it_is_written_with(
        self, number, string, tmp_path, capsys
    ):
        # the number 1.70 used to be read as 1.7, so its band was ten times
        # the string "1.70"'s; 1e999 still reads as inf
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        row = golden["pairs"][0]["rows"][1]
        assert row["system"] == "Claude-3.5"
        row["autorank_exact"] = "@"
        text = json.dumps(golden)
        outputs = []
        for value in (number, json.dumps(string)):
            (tmp_path / "cs-uk.json").write_text(text.replace('"@"', value), encoding="utf-8")
            outputs.append((main(_verify("--golden", str(tmp_path), "--autorank-tol", "0")),
                            capsys.readouterr()))
        assert outputs[0] == outputs[1]
        claude = "Claude-3.5: autorank: expected 1.70 (±0.005), got 1.6820356921691142"
        assert (claude in outputs[0][1].out) is (number == "1.70")

    @pytest.mark.parametrize("files", [1, 2], ids=["one-file", "two-files"])
    def test_pair_listed_twice_is_validation_error(self, tmp_path, capsys, files):
        # each entry used to be compared and counted, and verify passed
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"] *= 3 - files
        paths = [tmp_path / f"{name}.json" for name in "ab"[:files]]
        for path in paths:
            path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path), "--allow-mismatch", str(ALLOW)))
        out, err = capsys.readouterr()
        assert code == 1
        assert out.startswith("cs-uk: ok (20 systems)\n") and out.count("cs-uk: ok") == 1
        assert err == f"error: {paths[-1]}: pair cs-uk is also listed in {paths[0]}\n"

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
            (
                "autorank_exact",
                "1e999999999",
                "golden row autorank_exact is out of range: '1e999999999'",
            ),
            (
                "autorank_exact",
                "1e-3000000",
                "golden row autorank_exact is out of range: '1e-3000000'",
            ),
            (
                "autorank_exact",
                "9.9999999999999999999999999999e999999",
                "golden row autorank_exact is out of range: "
                "'9.9999999999999999999999999999e999999'",
            ),
            ("position", "first", "golden row position is not an integer: 'first'"),
            ("position", 1.5, "golden row position is not an integer: 1.5"),
            ("selected", "false", "golden row selected is not a boolean: 'false'"),
            ("selected", 0, "golden row selected is not a boolean: 0"),
            ("selected", None, "golden row selected is not a boolean: None"),
            ("system", None, "golden row system is not a non-empty string: None"),
            ("system", "", "golden row system is not a non-empty string: ''"),
            ("system", 7, "golden row system is not a non-empty string: 7"),
            (
                "category",
                "banana",
                "golden row category is not open, closed or constrained: 'banana'",
            ),
            ("category", "Open", "golden row category is not open, closed or constrained: 'Open'"),
            (
                "category",
                ["open"],
                "golden row category is not open, closed or constrained: ['open']",
            ),
            ("position", 0, "golden row position is not 4, its place in the list: 0"),
            ("position", 21, "golden row position is not 4, its place in the list: 21"),
            ("position", -3, "golden row position is not 4, its place in the list: -3"),
        ],
        ids=[
            "word-score",
            "nan-score",
            "huge-exponent-score",
            "tiny-exponent-score",
            "band-edge-overflow-score",
            "word-position",
            "fractional-position",
            "string-selected",
            "zero-selected",
            "null-selected",
            "null-system",
            "empty-system",
            "number-system",
            "unknown-category",
            "capitalised-category",
            "list-category",
            "zero-position",
            "position-past-row-count",
            "negative-position",
        ],
    )
    def test_golden_row_with_bad_value(self, tmp_path, capsys, field, value, reason):
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["rows"][3][field] = value
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: malformed golden report: {reason}\n"

    def test_duplicate_golden_row(self, tmp_path, capsys):
        # 21 rows for cs-uk's 20 systems used to verify as ok
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        rows = golden["pairs"][0]["rows"]
        rows.append(dict(rows[4], position=21))
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: "
            f"duplicate golden row for system {rows[4]['system']!r}\n"
        )

    def test_golden_positions_follow_the_row_list(self, tmp_path, capsys):
        # every position 1 used to verify as ok, with a note per moved row
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        for row in golden["pairs"][0]["rows"]:
            row["position"] = 1
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: "
            "golden row position is not 2, its place in the list: 1\n"
        )

    def test_report_written_with_exclude_closed_is_no_golden(self, tmp_path, capsys):
        # the filtered report keeps each row's position in the full table, so
        # its first row, cs-uk's best open system, is third
        golden = tmp_path / "golden"
        wmt24 = {"scores": str(DATA / "scores.tsv"), "systems": str(DATA / "systems.tsv")}
        filtered = ("--format", "json", "--exclude-closed", "--pair", "cs-uk")
        assert main(_rank(wmt24, *filtered, "--out", str(golden))) == 0
        rows = json.loads((golden / "cs-uk.json").read_text(encoding="utf-8"))["pairs"][0]["rows"]
        assert [row["position"] for row in rows][:1] == [3]
        capsys.readouterr()
        assert main(_verify("--golden", str(golden))) == ExitStatus.VALIDATION_ERROR == 1
        assert capsys.readouterr() == (
            "",
            f"error: {golden / 'cs-uk.json'}: malformed golden report: "
            "golden row position is not 1, its place in the list: 3\n",
        )

    @pytest.mark.parametrize(
        "value,shown",
        [("18", "'18'"), (True, "True"), (False, "False"), (0, "0"), (-1, "-1"), (18.0, "18.0")],
        ids=["text", "true", "false", "zero", "negative", "float"],
    )
    def test_golden_cutoff_not_null_or_positive_integer(self, tmp_path, capsys, value, shown):
        # "18" used to print "cutoff_position: expected 18, got 18" and exit 2
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["cutoff_position"] = value
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: "
            f"golden cutoff_position is not null or a positive integer: {shown}\n"
        )

    @pytest.mark.parametrize(
        "value,shown", [(21, "21"), (19, "19"), ("20", "'20'"), (True, "True"), (None, "None")]
    )
    def test_golden_n_systems_is_the_row_count(self, tmp_path, capsys, value, shown):
        # an n_systems that contradicted the entry's own rows used to verify as ok
        golden = json.loads((DATA / "golden" / "en-de.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["n_systems"] = value
        path = tmp_path / "en-de.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path))) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: "
            f"golden n_systems is not 26, the row count: {shown}\n"
        )

    @pytest.mark.parametrize(
        "cutoff,place,value,reason",
        [
            (20, 20, True, "is not false at position 20 under cutoff_position 20: True"),
            (20, 19, False, "is not true at position 19 under cutoff_position 20: False"),
            (None, 26, False, "is not true at position 26 under cutoff_position null: False"),
            (20, 1, 1, "is not true at position 1 under cutoff_position 20: 1"),
        ],
        ids=["at-cutoff", "above-cutoff", "no-cutoff", "not-a-boolean"],
    )
    def test_golden_above_cutoff_follows_the_cutoff(
        self, tmp_path, capsys, cutoff, place, value, reason
    ):
        # a row's above_cutoff that contradicted the entry's cutoff used to verify as ok
        golden = json.loads((DATA / "golden" / "en-de.json").read_text(encoding="utf-8"))
        entry = golden["pairs"][0]
        entry["cutoff_position"] = cutoff
        for row in entry["rows"]:
            row["above_cutoff"] = cutoff is None or row["position"] < cutoff
        entry["rows"][place - 1]["above_cutoff"] = value
        path = tmp_path / "en-de.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path))) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: golden row above_cutoff {reason}\n"
        )

    @pytest.mark.parametrize(
        "report,reason",
        [
            ({"config": None}, "golden report missing field 'pairs'"),
            ({"pairs": 3}, "golden field 'pairs' is not a list"),
            ({"pairs": None}, "golden field 'pairs' is not a list"),
            ({"pairs": "cs-uk"}, "golden field 'pairs' is not a list"),
            ({"pairs": {"pair": "cs-uk"}}, "golden field 'pairs' is not a list"),
        ],
        ids=["missing", "int", "null", "string", "object"],
    )
    def test_golden_pairs_field_not_a_list(self, tmp_path, capsys, report, reason):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: malformed golden report: {reason}\n"

    def test_each_golden_row_is_parsed_once(self, monkeypatch, capsys):
        original = autorank.golden._half_ulp
        calls = []

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(autorank.golden, "_half_ulp", counting)
        argv = _verify(
            "--golden", str(DATA / "golden"), "--allow-mismatch", str(DATA / "allow_mismatch.txt")
        )
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 244  # the rows of the eleven WMT24 goldens

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"pairs": ' + "1" * 5000 + "}"],
        ids=["deep", "long"],
    )
    def test_golden_json_beyond_parser_limits(self, tmp_path, capsys, text):
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config", ["abc", [], 0, ["cutoff_gap"]], ids=["string", "empty-list", "zero", "key-list"]
    )
    def test_golden_config_not_an_object(self, tmp_path, capsys, config):
        golden = json.loads((DATA / "golden" / "en-de.json").read_text(encoding="utf-8"))
        golden["config"] = config
        path = tmp_path / "en-de.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed golden report: config is not an object\n"
        )

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("cutoff_gap", "1.0", "cutoff_gap must be '1.5', got '1.0'"),
            ("cutoff_gap", "1.50", "cutoff_gap must be '1.5', got '1.50'"),
            ("cutoff_gap", 1.5, "cutoff_gap must be '1.5', got 1.5"),
            # "\u0663" used to read as a cutoff gap of 3.0
            ("cutoff_gap", "\u0663", "cutoff_gap must be '1.5', got '\u0663'"),
            ("closed_fraction", "1/2", "closed_fraction must be '1/3', got '1/2'"),
            ("closed_fraction", "2/6", "closed_fraction must be '1/3', got '2/6'"),
            ("closed_fraction", "1/0", "closed_fraction must be '1/3', got '1/0'"),
            ("open_fraction", "3/4", "open_fraction must be '2/3', got '3/4'"),
            ("cutof_gap", "1.5", "unknown config key 'cutof_gap'"),
            ("display_decimals", 1.9, "display_decimals must be 1, got 1.9"),
            ("display_decimals", True, "display_decimals must be 1, got True"),
            ("display_decimals", 2, "display_decimals must be 1, got 2"),
            ("display_decimals", "1", "display_decimals must be 1, got '1'"),
            # verify used to rank this golden on the N - 1 scale
            ("scale_span", "n-1", "scale_span must be 'n', got 'n-1'"),
            ("scale_span", "x", "scale_span must be 'n', got 'x'"),
        ],
        ids=["other-gap", "gap-text-with-zero", "gap-number", "arabic-indic-gap",
             "other-closed", "closed-unreduced", "closed-zero-denominator", "other-open",
             "typo-key", "fractional-decimals", "bool-decimals", "two-decimals", "text-decimals",
             "n-minus-one-span", "unknown-span"],
    )
    def test_golden_config_states_the_rules(self, tmp_path, capsys, key, value, reason):
        # each key may only repeat the rule the engine ranks by, as the report writes it
        golden = json.loads((DATA / "golden" / "en-de.json").read_text(encoding="utf-8"))
        golden["config"][key] = value
        path = tmp_path / "en-de.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        code = main(_verify("--golden", str(tmp_path)))
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {path}: malformed golden report: {reason}\n")

    def test_golden_not_utf8_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "en-de.json"
        path.write_bytes(b'{"pairs": "\xff"}')
        code = main(_verify("--golden", str(tmp_path)))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read {path}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    @pytest.mark.parametrize("config", ["absent", None, {}], ids=["absent", "null", "empty"])
    def test_golden_without_config_uses_default(self, tmp_path, capsys, config):
        golden = json.loads((DATA / "golden" / "en-de.json").read_text(encoding="utf-8"))
        if config == "absent":
            del golden["config"]
        else:
            golden["config"] = config
        (tmp_path / "en-de.json").write_text(json.dumps(golden), encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path))) == 0
        assert "en-de: ok" in capsys.readouterr().out

    def test_invalid_json_golden(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{", encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path))) == 1

    def test_golden_pair_with_score_range_beyond_float(self, inputs, tmp_path, capsys):
        Path(inputs["scores"]).write_text(_HUGE_RANGE_SCORES, encoding="utf-8")
        row = {"category": "open", "autorank_exact": "1.0", "selected": True}
        rows = [dict(row, system="Bell", position=1), dict(row, system="Ada", position=2)]
        entry = {"pair": "xx-yy", "cutoff_position": None, "rows": rows}
        report = {"config": None, "pairs": [entry]}
        (tmp_path / "golden").mkdir()
        (tmp_path / "golden" / "xx-yy.json").write_text(json.dumps(report), encoding="utf-8")
        argv = _rank(inputs, "--golden", str(tmp_path / "golden"))
        argv[0] = "verify"
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: xx-yy score range for metricx-23-xl is not finite: -1e+308 to 1e+308\n"
        )

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

    @pytest.mark.parametrize("char", ["\x1b", "\u202e"], ids=["esc", "rlo"])
    def test_allow_list_name_with_a_control_or_bidi_character_is_validation_error(
        self, tmp_path, capsys, char
    ):
        # it used to come back raw in the note on an entry that matches no row
        name = f"Evil{char}[2Jname"
        allow = tmp_path / "allow.txt"
        allow.write_text(f"cs-uk/Llama3-70B\ncs-uk/{name}\n", encoding="utf-8")
        code = main(_verify("--golden", str(DATA / "golden"), "--allow-mismatch", str(allow)))
        assert code == ExitStatus.VALIDATION_ERROR
        assert capsys.readouterr() == (
            "",
            f"error: {allow}: allow-list line 2: system name may not contain control or bidi "
            f"character U+{ord(char):04X}: {name!r}\n",
        )

    def test_golden_row_name_with_a_control_character_is_validation_error(
        self, tmp_path, capsys
    ):
        # it used to come back raw in a "missing from computed table" line
        golden = json.loads((DATA / "golden" / "cs-uk.json").read_text(encoding="utf-8"))
        golden["pairs"][0]["rows"][0]["system"] = "Evil\x1b[2Jname"
        path = tmp_path / "cs-uk.json"
        path.write_text(json.dumps(golden), encoding="utf-8")
        assert main(_verify("--golden", str(tmp_path))) == ExitStatus.VALIDATION_ERROR
        assert capsys.readouterr() == (
            "",
            f"error: {path}: malformed golden report: system name may not contain control or "
            "bidi character U+001B: 'Evil\\x1b[2Jname'\n",
        )

    def test_allow_list_line_naming_no_pair_is_validation_error(self, tmp_path, capsys):
        # "cs_uk/Llama3-70B" used to be read, match nothing, and leave cs-uk mismatched
        allow = tmp_path / "allow.txt"
        allow.write_text("cs_uk/Llama3-70B\n", encoding="utf-8")
        code = main(_verify("--golden", str(DATA / "golden"), "--allow-mismatch", str(allow)))
        assert code == ExitStatus.VALIDATION_ERROR
        assert capsys.readouterr() == (
            "",
            f"error: {allow}: allow-list line 1: malformed language pair code: 'cs_uk'\n",
        )

    @pytest.mark.parametrize(
        "value",
        ["\u0663", "1_0", " 2", "2\n", "abc", "1/3", "", "0x10", "1e"],
        ids=["arabic-indic", "underscore", "blank", "newline",
             "word", "ratio", "empty", "hex", "bare-exponent"],
    )
    def test_tolerance_outside_the_ascii_syntax_is_usage_error(self, tmp_path, capsys, value):
        # "\u0663" used to read as a tolerance of 3.0; float() reads the first four
        assert main(_verify("--golden", str(tmp_path), "--autorank-tol", value)) == 3
        assert capsys.readouterr() == (
            "", f"usage error: argument --autorank-tol: invalid float value: {value!r}\n"
        )

    @pytest.mark.parametrize(
        "value,tolerance",
        [("2.5e-1", 0.25), (".5", 0.5), ("1.", 1.0), ("+1", 1.0), ("0", 0.0),
         ("1e-0400", 0.0), ("0.1E+0000001", 1.0)],
    )
    def test_tolerance_reads_the_syntax_of_a_score(self, value, tolerance):
        # the ASCII decimal or scientific text every number in a file is read in
        argv = _verify("--golden", "golden", "--autorank-tol", value)
        assert autorank.cli._build_parser().parse_args(argv).autorank_tol == tolerance

    def test_negative_tolerance_is_usage_error(self, tmp_path, capsys):
        # a non-finite tolerance is no tolerance either: inf would pass anything
        for value in ("-0.1", "nan", "inf"):
            assert main(_verify("--golden", str(tmp_path), "--autorank-tol", value)) == 3
            assert capsys.readouterr().err == (
                "usage error: --autorank-tol must be a finite number >= 0\n"
            ), value

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


class TestUsageErrorsComeFirst:
    """A usage error is reported before any input file is read."""

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["rank", "--format", "text", "--closed-fraction", "1/2"],
             "unrecognized arguments: --closed-fraction 1/2"),
            (["rank", "--format", "text", "--pair", "xxyy"],
             "malformed language pair code: 'xxyy'"),
            (["verify", "--golden", str(DATA / "golden"), "--autorank-tol", "-1"],
             "--autorank-tol must be a finite number >= 0"),
        ],
        ids=["closed-fraction", "pair", "autorank-tol"],
    )
    def test_with_a_missing_scores_file(self, argv, error, tmp_path, capsys):
        # each used to end in "cannot read" and exit 1
        absent = ["--scores", str(tmp_path / "absent.tsv"), "--systems", str(DATA / "systems.tsv")]
        assert main([argv[0], *absent, *argv[1:]]) == ExitStatus.USAGE_ERROR
        assert capsys.readouterr() == ("", f"usage error: {error}\n")


class TestPaths:
    """Which files verify reads, where rank writes, and how paths are named."""

    def test_golden_discovery(self, tmp_path, capsys):
        golden = tmp_path / "golden"
        golden.mkdir()
        # the names sort in another order than the pairs they hold
        for name, pair in ((".x.json", "en-de"), ("a.json", "ja-zh"), ("c.json", "cs-uk")):
            (golden / name).write_bytes((DATA / "golden" / f"{pair}.json").read_bytes())
        (golden / "b.JSON").write_text("not read: the suffix is matched exactly", encoding="utf-8")
        (golden / "d.json").mkdir()
        code = main(_verify("--golden", str(golden), "--allow-mismatch", str(ALLOW)))
        out, err = capsys.readouterr()
        assert code == 1
        heads = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
        assert heads == ["en-de", "ja-zh", "cs-uk"]
        assert err == f"error: cannot read {golden / 'd.json'}: Is a directory\n"

    def test_out_creates_nested_directories(self, inputs, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert main(_rank(inputs, "--format", "md", "--out", str(out))) == 0
        assert sorted(path.name for path in out.iterdir()) == ["xx-yy.md", "zz-ww.md"]

    def test_paths_are_named_as_typed(self, tmp_path, monkeypatch, capsys):
        # "./golden/" used to be named "golden"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "golden").mkdir()
        (tmp_path / "golden" / "list.json").write_text("[]", encoding="utf-8")
        assert main(_verify("--golden", "./golden/")) == 1
        assert capsys.readouterr().err == (
            "error: ./golden/list.json: malformed golden report: top level is not an object\n"
        )

    def test_an_empty_path_is_the_current_directory(self, inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(_rank(inputs, "--format", "md", "--out", "", "--pair", "xx-yy")) == 0
        assert (tmp_path / "xx-yy.md").is_file()
        (tmp_path / "list.json").write_text("[]", encoding="utf-8")
        assert main(_verify("--golden", "")) == 1
        assert capsys.readouterr().err == (
            "error: list.json: malformed golden report: top level is not an object\n"
        )
        assert main(_rank(inputs, "--format", "md") + ["--manifest", ""]) == 1
        assert capsys.readouterr().err == "error: cannot read : Is a directory\n"

    def test_unreadable_golden_directory_is_validation_error(self, tmp_path, monkeypatch, capsys):
        # an unreadable directory used to list as empty: verify warned and passed
        def refuse(path):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(autorank.cli.os, "listdir", refuse)
        assert main(_verify("--golden", str(tmp_path))) == 1
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Permission denied\n"


# rank and verify on WMT24, each exiting 0
_WMT24_COMMANDS = pytest.mark.parametrize(
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


class TestLinearity:
    @_WMT24_COMMANDS
    def test_completeness_sees_each_record_once(self, argv, monkeypatch, capsys):
        original = autorank.pipeline.check_completeness
        received = []

        def counting(matrix, *rest):
            received.append(len(matrix))
            return original(matrix, *rest)

        monkeypatch.setattr(autorank.pipeline, "check_completeness", counting)
        assert main(argv[:1] + WMT24_INPUTS + argv[1:]) == 0
        capsys.readouterr()
        # one call per pair, each seeing only that pair's systems
        assert len(received) == 11
        assert sum(received) == 244

    @_WMT24_COMMANDS
    def test_registry_is_never_walked_after_parsing(self, argv, monkeypatch, capsys):
        parse = autorank.cli.parse_registry
        registries = []

        class Walked(dict):
            """A registry that counts each walk over its names or entries."""

            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

            def keys(self):
                self.walks += 1
                return super().keys()

            def values(self):
                self.walks += 1
                return super().values()

            def items(self):
                self.walks += 1
                return super().items()

        def parsing(text):
            registries.append(Walked(parse(text)))
            return registries[-1]

        monkeypatch.setattr(autorank.cli, "parse_registry", parsing)
        assert main(argv[:1] + WMT24_INPUTS + argv[1:]) == 0
        capsys.readouterr()
        # every stage looks names up in the one index and never rebuilds it
        assert len(registries) == 1
        assert registries[0].walks == 0


_WMT24_FILES = {"systems": "systems.tsv", "scores": "scores.tsv", "manifest": "manifest.tsv"}


def _library_error(which: str, text: str) -> str:
    """The message the library rejects ``text`` with, read as the ``which`` input."""
    with pytest.raises(ParseError) as info:
        if which == "systems":
            parse_registry(text)
        elif which == "scores":
            registry = parse_registry((DATA / "systems.tsv").read_text(encoding="utf-8"))
            parse_scores(text, registry)
        else:
            parse_manifest(text)
    return str(info.value)


class TestLineEndings:
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("which", list(_WMT24_FILES))
    def test_cli_rejects_what_the_library_rejects(self, which, newline, tmp_path, capsys):
        paths = {kind: str(DATA / name) for kind, name in _WMT24_FILES.items()}
        text = (DATA / _WMT24_FILES[which]).read_bytes().decode("utf-8").replace("\n", newline)
        copy = tmp_path / _WMT24_FILES[which]
        copy.write_bytes(text.encode("utf-8"))
        paths[which] = str(copy)
        argv = ["rank", "--format", "json", "--manifest", paths["manifest"]]
        argv += ["--scores", paths["scores"], "--systems", paths["systems"]]
        assert main(argv) == ExitStatus.VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {copy}: {_library_error(which, text)}\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_goldens_and_allow_list_read_the_same_at_any_line_ending(
        self, newline, tmp_path, capsys
    ):
        allow = DATA / "allow_mismatch.txt"
        assert main(_verify("--golden", str(DATA / "golden"), "--allow-mismatch", str(allow))) == 0
        expected = capsys.readouterr()
        golden = tmp_path / "golden"
        golden.mkdir()
        for path in (DATA / "golden").glob("*.json"):
            (golden / path.name).write_bytes(path.read_bytes().replace(b"\n", newline))
        copy = tmp_path / allow.name
        copy.write_bytes(allow.read_bytes().replace(b"\n", newline))
        assert main(_verify("--golden", str(golden), "--allow-mismatch", str(copy))) == 0
        assert capsys.readouterr() == expected


def _filler(which: str) -> bytes:
    """Valid rows for the ``which`` input, none of them in WMT24, that fill more than a block."""
    row = {
        "systems": "Filler-{}{}{}\topen\t0\t\n",
        "scores": "q{}-{}{}\tCycleL\tmetricx-23-xl\t1.5\n",
        "manifest": "q{}-{}{}\t1000\t32000\n",
    }[which]
    letters = "abcdefghijklmnopqrstuvwxyz"
    # the second letter is never q, so no pair's target is its source
    codes = itertools.product(letters[:8], letters.replace("q", ""), letters)
    data = "".join(row.format(*code) for code in codes)
    assert len(data) > autorank.ingest._BLOCK
    return data.encode("utf-8")


class TestReadErrors:
    """A TSV input that is not UTF-8 is named at the bad byte's offset in the
    file, unless a line wholly before that byte is at fault."""

    def _run(self, which: str, data: bytes, tmp_path: Path, capsys):
        paths = {kind: str(DATA / name) for kind, name in _WMT24_FILES.items()}
        copy = tmp_path / _WMT24_FILES[which]
        copy.write_bytes(data)
        paths[which] = str(copy)
        argv = ["rank", "--format", "json", "--manifest", paths["manifest"]]
        argv += ["--scores", paths["scores"], "--systems", paths["systems"]]
        assert main(argv) == ExitStatus.VALIDATION_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        return copy, err

    @pytest.mark.parametrize("which", list(_WMT24_FILES))
    def test_bad_byte_past_the_first_block(self, which, tmp_path, capsys):
        data = (DATA / _WMT24_FILES[which]).read_bytes() + _filler(which) + b"\xff\n"
        assert data.index(b"\xff") > autorank.ingest._BLOCK
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        copy, err = self._run(which, data, tmp_path, capsys)
        assert err == f"error: cannot read {copy}: {info.value}\n"

    @pytest.mark.parametrize("which", list(_WMT24_FILES))
    def test_a_fault_on_an_earlier_line_comes_first(self, which, tmp_path, capsys):
        # the invalid byte used to be reported, wherever it was
        header, rest = (DATA / _WMT24_FILES[which]).read_bytes().split(b"\n", 1)
        text = f"{header.decode()}\nmalformed\n{rest.decode()}"
        copy, err = self._run(which, text.encode("utf-8") + b"\xff", tmp_path, capsys)
        message = _library_error(which, text)
        assert message.startswith("line 2: ")
        assert err == f"error: {copy}: {message}\n"


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the benchmark's fixed-seed canary inputs (see perfbench/run.py): a
# campaign of 100 pairs x 100 systems and a wide one of 8 x 400 verified
# against the reference ranker's goldens, both from seed 7
CANARY_SEED = 7


def _recorded(workload: str, label: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload][label]


def _digests(argv: list[str], out: Path | None, capsys) -> dict[str, str]:
    """The digests of one in-process run, as perfbench/run.py records them."""
    assert main(argv) == 0
    found = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    if out is not None and out.is_dir():
        found.update((path.name, _sha256(path.read_bytes())) for path in out.iterdir())
    return found


@pytest.fixture(scope="module")
def canary(tmp_path_factory) -> Path:
    """The canary inputs, generated with perfbench's gen.py and oracle.py
    run from their files, as the benchmark makes them."""
    gen = runpy.run_path(str(PERFBENCH / "gen.py"))
    oracle = runpy.run_path(str(PERFBENCH / "oracle.py"))
    root = tmp_path_factory.mktemp("canary")
    gen["write_campaign"](root / "campaign", 100, 100, CANARY_SEED)
    wide = root / "wide"
    gen["write_campaign"](wide, 8, 400, CANARY_SEED)
    oracle["write_goldens"](
        wide / "golden",
        (wide / "systems.tsv").read_text(encoding="utf-8"),
        (wide / "scores.tsv").read_text(encoding="utf-8"),
    )
    return root


class TestRecordedDigests:
    """Outputs stay byte-identical to the digests the benchmark recorded."""

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

    def test_wmt24_verify_output(self, capsys):
        argv = _verify(
            "--golden", str(DATA / "golden"), "--allow-mismatch", str(DATA / "allow_mismatch.txt")
        )
        assert _digests(argv, None, capsys) == _recorded("wmt24", "verify")

    @pytest.mark.parametrize("label,extra", [("rank-json", []), ("rank-md", ["--out", "{out}"])])
    def test_canary_campaign_rank_output(self, label, extra, canary, tmp_path, capsys):
        inputs = canary / "campaign"
        out = tmp_path / "out"
        argv = [
            "rank", "--scores", str(inputs / "scores.tsv"),
            "--systems", str(inputs / "systems.tsv"),
            "--format", label.removeprefix("rank-"), *[arg.format(out=out) for arg in extra],
        ]
        assert _digests(argv, out, capsys) == _recorded("campaign", label)

    def test_canary_wide_verify_output(self, canary, capsys):
        wide = canary / "wide"
        argv = [
            "verify", "--scores", str(wide / "scores.tsv"), "--systems", str(wide / "systems.tsv"),
            "--golden", str(wide / "golden"), "--autorank-tol", "1e-9",
        ]
        assert _digests(argv, None, capsys) == _recorded("wide-verify", "verify")


# SHA-256 of verify's stdout on the seed-7 wide canary with cs-fr damaged
# as _damage_cs_fr does, recorded at 36fb121
DAMAGED_VERIFY_DIGEST = "870da01b4f40b8ea3f945d578c4ed5abc686c2bc1973a4e94a40bbdc52213cc8"


def _damage_cs_fr(golden_dir: Path) -> None:
    """Damage the cs-fr golden so that verify prints every kind of line."""
    path = golden_dir / "cs-fr.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    entry = report["pairs"][0]
    rows = entry["rows"]
    # two closed, selected systems trade names: their aggregates and
    # positions disagree, and three pairs of rows invert
    rows[3]["system"], rows[5]["system"] = rows[5]["system"], rows[3]["system"]
    entry["cutoff_position"] -= 1
    # the row now at the cutoff says so, as a golden that agrees with itself must
    rows[entry["cutoff_position"] - 1]["above_cutoff"] = False
    rows[21]["selected"] = not rows[21]["selected"]  # open, unbalanced
    rows[31]["selected"] = not rows[31]["selected"]  # allow-listed below
    # two closed rows share the coarse text "8" (band ±0.5) and swap
    # their selection flags: the tie group keeps its count
    for row in rows[35:37]:
        row["autorank_exact"] = "8"
        row["selected"] = not row["selected"]
    path.write_text(json.dumps(report), encoding="utf-8")


def test_damaged_wide_golden_verify_output(canary, tmp_path, capsys):
    wide = canary / "wide"
    golden = tmp_path / "golden"
    golden.mkdir()
    for path in (wide / "golden").iterdir():
        (golden / path.name).write_bytes(path.read_bytes())
    _damage_cs_fr(golden)
    allow = tmp_path / "allow.txt"
    allow.write_text("cs-fr/Dubformer-265\n", encoding="utf-8")
    argv = [
        "verify", "--scores", str(wide / "scores.tsv"), "--systems", str(wide / "systems.tsv"),
        "--golden", str(golden), "--autorank-tol", "1e-9", "--allow-mismatch", str(allow),
    ]
    assert main(argv) == ExitStatus.GOLDEN_MISMATCH
    out = capsys.readouterr().out
    for kind in (
        ": autorank: expected ",
        ": order inversion: ",
        ": cutoff_position: expected ",
        ": selected: expected ",
        "selection swapped within display tie",
        "allow-listed",
        "(within rounding uncertainty)",
    ):
        assert kind in out, kind
    assert _sha256(out.encode("utf-8")) == DAMAGED_VERIFY_DIGEST


# SHA-256 of text, Markdown and LaTeX renders as the engine wrote them at
# a016523, before the three formats shared one cell builder: the CLI's
# stdout on the seed-7 canary campaign, and WMT24 cs-uk in colour
RENDER_DIGESTS = {
    "text": "092e42a51975a33733c841a6807462cd69ce2cbfefb359c7cd712e015ef05999",
    "text-show-reasons": "e60cd5de93bfdf0d036c0e8407f305767ac8bb2d93b167c4c98cceb45e03cc5c",
    "text-exclude-closed": "13ec20d3036b73d51023fd57fb75dc2a52de42b45e6a2837c5118ae6d4b48e38",
    "md-show-reasons-exclude-closed": (
        "7a5124599e265e25f9308f1f99b55fa7553dfb61814f9a1af9007453ae2ccb15"
    ),
    "latex": "3cf1d9527b793bb811ed032bc08eca4e102b08901d4410bf1f53ea2b6cfae5c3",
    "wmt24-cs-uk-color": "1f6f49606ca618d4198997a3eac383abe602c53dd87a01fe725d14e2c5aa1e0c",
}


class TestRenderDigests:
    """Text, Markdown and LaTeX keep the bytes the per-format renderers wrote."""

    @pytest.mark.parametrize(
        "label,extra",
        [
            ("text", ["--format", "text"]),
            ("text-show-reasons", ["--format", "text", "--show-reasons"]),
            ("text-exclude-closed", ["--format", "text", "--exclude-closed"]),
            (
                "md-show-reasons-exclude-closed",
                ["--format", "md", "--show-reasons", "--exclude-closed"],
            ),
            ("latex", ["--format", "latex"]),
        ],
    )
    def test_canary_campaign_render(self, label, extra, canary, capsys):
        inputs = canary / "campaign"
        argv = [
            "rank", "--scores", str(inputs / "scores.tsv"),
            "--systems", str(inputs / "systems.tsv"), *extra,
        ]
        assert _digests(argv, None, capsys) == {"stdout": RENDER_DIGESTS[label]}

    def test_wmt24_colored_text(self, tables):
        out = render_table(tables["cs-uk"], RenderOptions(TableFormat.TEXT, color=True))
        assert _sha256(out.encode("utf-8")) == RENDER_DIGESTS["wmt24-cs-uk-color"]


class TestJsonConsistency:
    """One JSON writer: every way of asking for a pair's report agrees."""

    def _json(self, capsys, *extra: str) -> str:
        assert main(["rank", *WMT24_INPUTS, "--format", "json", *extra]) == 0
        return capsys.readouterr().out

    def test_multi_pair_report_honours_exclude_closed(self, capsys):
        report = json.loads(self._json(capsys, "--exclude-closed"))
        assert len(report["pairs"]) == 11
        rows = [row for entry in report["pairs"] for row in entry["rows"]]
        assert rows and all(row["category"] != "closed" for row in rows)
        for entry in report["pairs"]:
            single = json.loads(self._json(capsys, "--pair", entry["pair"], "--exclude-closed"))
            assert single == {"config": report["config"], "pairs": [entry]}

    @pytest.mark.parametrize("extra", [[], ["--exclude-closed"]], ids=["full", "open"])
    def test_single_pair_stdout_equals_out_file(self, extra, tmp_path, capsys):
        stdout = self._json(capsys, "--pair", "cs-uk", *extra)
        self._json(capsys, "--pair", "cs-uk", "--out", str(tmp_path), *extra)
        assert (tmp_path / "cs-uk.json").read_bytes() == stdout.encode("utf-8")


def _ranked(inputs: dict[str, str]) -> list:
    """Every pair of ``inputs`` ranked through the library, in the CLI's order."""
    registry = parse_registry(Path(inputs["systems"]).read_text(encoding="utf-8"))
    scores = parse_scores(Path(inputs["scores"]).read_text(encoding="utf-8"), registry)
    return [rank_pair(registry, scores, pair) for pair in autorank.pipeline.pairs_in(scores)]


class _Sink:
    """A stdout that counts the characters it is given and keeps none."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


# a fault in zz-ww, the pair ranked last, and the one error line it gives
_LAST_PAIR_FAULTS = {
    "hole": (
        lambda text: text.replace("zz-ww\tBell\tcometkiwi-da-xl\t0.55\n", ""),
        "error: zz-ww is not rankable, missing scores: Bell/cometkiwi-da-xl\n",
    ),
    "range": (
        lambda text: text.replace("Ada\tmetricx-23-xl\t1.5", "Ada\tmetricx-23-xl\t-1e308")
        .replace("Bell\tmetricx-23-xl\t2.5", "Bell\tmetricx-23-xl\t1e308"),
        "error: zz-ww score range for metricx-23-xl is not finite: -1e+308 to 1e+308\n",
    ),
    "unregistered": (
        lambda text: text + "zz-ww\tZed\tmetricx-23-xl\t1.0\n",
        "error: {scores}: line 12: unknown system 'Zed'\n",
    ),
}


class TestStreamedStdout:
    """rank writes pair by pair the text the renderers return, once every pair is checked."""

    @pytest.mark.parametrize("fmt", ["text", "md", "latex", "json"])
    @pytest.mark.parametrize(
        "extra", [[], ["--exclude-closed", "--show-reasons"]], ids=["all", "open-reasons"]
    )
    @pytest.mark.parametrize("corpus", ["wmt24", "two-pair"])
    def test_stdout_is_the_rendered_tables(self, corpus, extra, fmt, inputs, capsys):
        if corpus == "wmt24":
            inputs = {"scores": str(DATA / "scores.tsv"), "systems": str(DATA / "systems.tsv")}
        tables = _ranked(inputs)
        assert len(tables) > 1
        options = RenderOptions(
            TableFormat(fmt),
            include_closed="--exclude-closed" not in extra,
            show_reasons="--show-reasons" in extra,
        )
        if fmt == "json":
            expected = render_report(tables, options.include_closed)
        else:
            expected = "\n".join(render_table(table, options) for table in tables)
        assert main(_rank(inputs, "--format", fmt, *extra)) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt", ["json", "text", "md", "latex"])
    def test_hole_in_the_last_pair_leaves_stdout_empty(self, fmt, inputs, capsys):
        # zz-ww sorts after xx-yy, so it is ranked last
        holed = SCORES.replace("zz-ww\tBell\tcometkiwi-da-xl\t0.55\n", "")
        Path(inputs["scores"]).write_text(holed, encoding="utf-8")
        assert main(_rank(inputs, "--format", fmt)) == ExitStatus.VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: zz-ww is not rankable, missing scores: Bell/cometkiwi-da-xl\n"

    @pytest.mark.parametrize("fmt", ["json", "text", "md", "latex"])
    @pytest.mark.parametrize("fault", ["hole", "range", "unregistered"])
    def test_fault_in_the_last_pair_leaves_stdout_empty_and_no_out_file(
        self, fault, fmt, inputs, tmp_path, capsys
    ):
        edit, message = _LAST_PAIR_FAULTS[fault]
        Path(inputs["scores"]).write_text(edit(SCORES), encoding="utf-8")
        message = message.format(scores=inputs["scores"])
        assert main(_rank(inputs, "--format", fmt)) == ExitStatus.VALIDATION_ERROR
        assert capsys.readouterr() == ("", message)
        out = tmp_path / "out"
        assert main(_rank(inputs, "--format", fmt, "--out", str(out))) == 1
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_pairs_are_checked_in_the_order_given(self, inputs, capsys):
        # both pairs are faulty; the first one named is the one reported
        huge, huge_range = _LAST_PAIR_FAULTS["range"]
        both = huge(SCORES).replace("xx-yy\tCray\tcometkiwi-da-xl\t0.5\n", "")
        Path(inputs["scores"]).write_text(both, encoding="utf-8")
        for order, message in [
            (["zz-ww", "xx-yy"], huge_range),
            (
                ["xx-yy", "zz-ww"],
                "error: xx-yy is not rankable, missing scores: Cray/cometkiwi-da-xl\n",
            ),
        ]:
            pairs = [arg for code in order for arg in ("--pair", code)]
            assert main(_rank(inputs, "--format", "json", *pairs)) == 1
            assert capsys.readouterr() == ("", message)

    def test_json_report_is_never_held_whole(self, canary, monkeypatch):
        inputs = canary / "campaign"
        rank = autorank.cli.rank_pair
        ranked = []  # memory in use just after each pair is ranked

        def rank_and_mark(*args, **kwargs):
            table = rank(*args, **kwargs)
            tracemalloc.reset_peak()
            ranked.append(tracemalloc.get_traced_memory()[0])
            return table

        monkeypatch.setattr(autorank.cli, "rank_pair", rank_and_mark)
        sink = _Sink()
        argv = [
            "rank", "--scores", str(inputs / "scores.tsv"),
            "--systems", str(inputs / "systems.tsv"), "--format", "json",
        ]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(argv) == 0
            # the peak since the last pair was ranked covers all the writing
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ranked) == 100 and sink.size > 4_000_000
        assert peak - ranked[-1] < sink.size / 4

    # with --out, pathlib interns each file name, and the interpreter's table
    # of interned strings can double in size partway through; the check that
    # each file is written before the next pair is ranked covers --out
    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_one_table_is_held_at_a_time(self, fmt, canary, monkeypatch):
        inputs = canary / "campaign"
        rank = autorank.cli.rank_pair
        ranked = []  # memory in use just after each pair is ranked

        def rank_and_mark(*args, **kwargs):
            table = rank(*args, **kwargs)
            ranked.append(tracemalloc.get_traced_memory()[0])
            return table

        monkeypatch.setattr(autorank.cli, "rank_pair", rank_and_mark)
        argv = [
            "rank", "--scores", str(inputs / "scores.tsv"),
            "--systems", str(inputs / "systems.tsv"), "--format", fmt,
        ]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Sink()):
                assert main(argv) == 0
        finally:
            tracemalloc.stop()
        assert len(ranked) == 100
        # keeping every table to the end grows by about 6.7 MB here
        assert ranked[-1] - ranked[0] < 670_000

    @pytest.mark.parametrize("fmt", ["text", "md", "latex", "json"])
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_each_pair_is_written_before_the_next_is_ranked(self, out, fmt, tmp_path, monkeypatch):
        rank = autorank.cli.rank_pair
        target = tmp_path / "out"
        stdout = io.StringIO()
        written = []  # what was written when each pair came to be ranked

        def rank_and_look(*args, **kwargs):
            if out:
                written.append(len(list(target.iterdir())))
            else:
                written.append(len(stdout.getvalue()))
            return rank(*args, **kwargs)

        monkeypatch.setattr(autorank.cli, "rank_pair", rank_and_look)
        argv = ["rank", *WMT24_INPUTS, "--format", fmt] + ["--out", str(target)] * out
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        assert len(written) == 11
        if out:
            assert written == list(range(11))
        else:
            assert written[0] == 0 and all(b > a for a, b in zip(written, written[1:]))
            assert len(stdout.getvalue()) > written[-1]


class TestOneInputAtATime:
    """rank and verify never hold a whole TSV input, nor two goldens' worth."""

    def test_scores_are_parsed_without_holding_the_file(self, canary, monkeypatch):
        inputs = canary / "campaign"
        marks, results = {}, {}

        def mark(name, function):
            def marked(*args):
                result = results[name] = function(*args)
                marks[name] = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                return result

            monkeypatch.setattr(autorank.cli, name, marked)

        # memory in use as each returns, and the peak since the one before:
        # the scores' peak covers reading and parsing the scores file, and
        # pairs_in sees the parsed scores held alone
        mark("parse_registry", autorank.cli.parse_registry)
        mark("parse_scores", autorank.cli.parse_scores)
        mark("pairs_in", autorank.cli.pairs_in)
        argv = [
            "rank", "--scores", str(inputs / "scores.tsv"),
            "--systems", str(inputs / "systems.tsv"), "--format", "json",
        ]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Sink()):
                assert main(argv) == 0
        finally:
            tracemalloc.stop()
        size = (inputs / "scores.tsv").stat().st_size
        start, parsed = marks["parse_registry"][0], marks["parse_scores"][1]
        matrix = marks["pairs_in"][0] - start
        # a float per slot and a tuple of names: about a third of the file
        assert size > 700_000 and matrix < size / 2
        # the parse's peak is what it returns, the numbers of the names and
        # each pair's slot table and entry, which it drops on return, and
        # one block of the file, as much as a text file's buffer reads at a
        # time, with its lines.  A name -> slot dict per pair held 0.33 MB
        # more, and 64 K-character blocks about 0.15 MB; reading the file
        # whole, which holds its text and, while it is decoded, its bytes
        # too, would pass that by about the file's size
        with open(inputs / "scores.tsv", encoding="utf-8", newline="") as handle:
            block = handle.read(io.DEFAULT_BUFFER_SIZE)
        scratch = parse_scratch_size(results["parse_scores"]) + block_size(block)
        assert parsed - start < matrix + scratch

    def test_parsed_campaign_is_held_in_columns(self, canary):
        inputs = canary / "campaign"
        registry = parse_registry((inputs / "systems.tsv").read_text(encoding="utf-8"))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with open(inputs / "scores.tsv", encoding="utf-8", newline="") as handle:
                scores = parse_scores(handle, registry)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(scores) == 100
        assert all(len(names) == 100 and len(columns) == 2 for names, columns in scores.values())
        # 100 x 100 x 2 floats and 100 tuples of shared names; a dict per
        # (pair, system) held 2.67 MB
        assert held < 600_000

    def test_verify_holds_one_golden_at_a_time(self, canary, tmp_path, monkeypatch):
        wide = canary / "wide"
        parse = autorank.cli.parse_golden
        started = []  # memory in use when the first golden is parsed

        def parse_and_mark(text):
            if not started:
                tracemalloc.reset_peak()
                started.append(tracemalloc.get_traced_memory()[0])
            return parse(text)

        monkeypatch.setattr(autorank.cli, "parse_golden", parse_and_mark)

        def golden_peak(golden: Path) -> int:
            """verify's traced peak from its first golden on, above what it held then."""
            started.clear()
            argv = ["verify", "--scores", str(wide / "scores.tsv")]
            argv += ["--systems", str(wide / "systems.tsv"), "--golden", str(golden)]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(_Sink()):
                    assert main(argv + ["--autorank-tol", "1e-9"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - started[0]

        goldens = sorted((wide / "golden").glob("*.json"))
        assert len(goldens) == 8
        alone = []
        for path in goldens:
            single = tmp_path / path.stem
            single.mkdir()
            (single / path.name).write_bytes(path.read_bytes())
            alone.append(golden_peak(single))
        # keeping one golden's rows, table and comparison while the next is
        # read adds about 0.47 MB here
        assert golden_peak(wide / "golden") < max(alone) + 100_000


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src"


class TestTracedStages:
    """Every stage the benchmark's tracer rebinds still exists, and a
    traced run prints what a plain run prints."""

    def test_every_binding_names_a_callable(self):
        # run_path compiles the file without writing a bytecode cache
        bindings = runpy.run_path(str(TRACER))["BINDINGS"]
        assert bindings
        for module_name, attr, *_ in bindings:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

    _COMMANDS = {
        **{
            f"rank-{fmt}": (["rank", *WMT24_INPUTS, "--format", fmt], stages)
            for fmt, stages in [
                ("text", {"render.text": 11}),
                ("md", {"render.md": 11}),
                ("latex", {"render.latex": 11}),
                ("json", {}),  # the report is streamed by report_chunks, which is not bound
            ]
        },
        "verify": (
            ["verify", *WMT24_INPUTS, "--golden", str(DATA / "golden"),
             "--allow-mismatch", str(ALLOW)],
            {"golden.parse_allow_list": 1, "golden.compare_pair": 11},
        ),
    }

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_traced_run_matches_the_plain_run(self, command, capsys):
        tracer_module = runpy.run_path(str(TRACER))
        argv, stages = self._COMMANDS[command]
        plain = autorank.cli.main(argv), capsys.readouterr().out
        modules = {name: importlib.import_module(name) for name, *_ in tracer_module["BINDINGS"]}
        before = {name: dict(vars(module)) for name, module in modules.items()}
        tracer = tracer_module["Tracer"]().install()
        try:
            traced = autorank.cli.main(argv), capsys.readouterr().out
        finally:
            tracer.restore()
        assert plain[0] == ExitStatus.OK and traced == plain
        names = [span[0] for span in tracer.spans]
        expected = {
            "cli.main": 1,
            "ingest.parse_registry": 1,
            "ingest.parse_scores": 1,
            "pipeline.rank_pair": 11,  # one per pair
            **stages,
        }
        assert {name: names.count(name) for name in expected} == expected
        for name, module in modules.items():
            after = vars(module)
            assert after.keys() == before[name].keys(), name
            assert all(after[key] is before[name][key] for key in after), name


class _FailingStdout:
    """A stdout whose ``write`` or ``flush`` raises ``error``."""

    def __init__(self, error: OSError, failing: str) -> None:
        self.error, self.failing = error, failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise self.error
        return len(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise self.error

    def isatty(self) -> bool:
        return False


_WRITE_ERRORS = {
    "broken-pipe": (BrokenPipeError(errno.EPIPE, "Broken pipe"), "Broken pipe"),
    "disk-full": (OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
}
_WRITING_COMMANDS = {
    "rank-text": ["rank", *WMT24_INPUTS, "--format", "text"],
    "rank-json": ["rank", *WMT24_INPUTS, "--format", "json"],
    "verify": [
        "verify", *WMT24_INPUTS, "--golden", str(DATA / "golden"),
        "--allow-mismatch", str(DATA / "allow_mismatch.txt"),
    ],
}


class TestStdoutErrors:
    """A stdout that cannot be written ends the run with one line and exit 1."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("error", _WRITE_ERRORS)
    @pytest.mark.parametrize("command", _WRITING_COMMANDS)
    def test_write_error_is_one_line(self, command, error, failing, monkeypatch, capsys):
        exc, reason = _WRITE_ERRORS[error]
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc, failing))
        assert main(_WRITING_COMMANDS[command]) == ExitStatus.VALIDATION_ERROR
        assert capsys.readouterr().err == f"error: cannot write to stdout: {reason}\n"

    @staticmethod
    def _run(argv: list[str], stdout) -> subprocess.CompletedProcess:
        # stdout block-buffered, as it is by default for a file or a pipe
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run(
            [sys.executable, "-m", "autorank.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [
            _WRITING_COMMANDS["rank-json"],
            _WRITING_COMMANDS["verify"],
            # a few hundred bytes: they stay buffered until the final flush
            ["rank", *WMT24_INPUTS, "--format", "md", "--pair", "cs-uk"],
        ],
        ids=["rank-json", "verify", "buffered"],
    )
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            result = self._run(argv, full)
        assert result.returncode == 1
        assert result.stderr == "error: cannot write to stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_validation_error_after_output_is_the_one_line(self, tmp_path):
        # verify prints cs-uk's lines, then meets a golden that is not JSON
        golden = tmp_path / "golden"
        golden.mkdir()
        (golden / "a.json").write_bytes((DATA / "golden" / "cs-uk.json").read_bytes())
        (golden / "z.json").write_text("{\n", encoding="utf-8")
        argv = ["verify", *WMT24_INPUTS, "--golden", str(golden)]
        with open("/dev/full", "w") as full:
            result = self._run(argv, full)
        assert result.returncode == 1
        assert result.stderr == (
            f"error: {golden / 'z.json'}: Expecting property name enclosed in double quotes:"
            " line 2 column 1 (char 2)\n"
        )

    def test_closed_pipe(self):
        read, write = os.pipe()
        os.close(read)  # nobody will read: every write fails with EPIPE
        try:
            result = self._run(_WRITING_COMMANDS["rank-text"], write)
        finally:
            os.close(write)
        assert result.returncode == 1
        assert result.stderr == "error: cannot write to stdout: Broken pipe\n"


class TestStdoutEncoding:
    """stdout gets UTF-8 bytes, the bytes of the --out file, whatever its encoding."""

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-16"])
    @pytest.mark.parametrize("fmt", [f.value for f in TableFormat])
    def test_stdout_bytes_are_the_out_file(self, fmt, encoding, tmp_path):
        # text and md used to die on the first glyph under ascii and latin-1
        # with a UnicodeEncodeError traceback, and utf-16 wrote other bytes
        argv = [sys.executable, "-m", "autorank.cli", "rank", *WMT24_INPUTS, "--pair", "cs-uk"]
        argv += ["--format", fmt]
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": encoding}
        result = subprocess.run(argv, capture_output=True, env=env)
        assert (result.returncode, result.stderr) == (0, b"")
        assert subprocess.run([*argv, "--out", str(tmp_path)], env=env).returncode == 0
        (table,) = tmp_path.iterdir()
        assert result.stdout == table.read_bytes()

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
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0
        assert "xx-yy" in result.stdout

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 3
        capsys.readouterr()


class TestHostileNames:
    def test_terminal_escape_in_a_name_exits_with_one_line(self, inputs, capsys):
        Path(inputs["systems"]).write_text(
            REGISTRY.replace("Ada\t", "Ada\x1b[31m\t"), encoding="utf-8"
        )
        assert main(_rank(inputs, "--format", "text")) == ExitStatus.VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {inputs['systems']}: line 2: system name may not contain control or bidi "
            "character U+001B: 'Ada\\x1b[31m'\n"
        )


# site can load modules of its own (a .pth file may import typing), which
# would hide the CLI's imports, so each probe also runs under -S
_SITE = pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
# stdlib modules the CLI does not need to rank or verify
_UNNEEDED = {"typing", "pathlib", "tempfile"}
# stdlib modules only some commands need: verify's decimals, text widths,
# and the Fraction of model.display_str, which no command calls
_DEFERRED = {"decimal", "fractions", "unicodedata"}


class TestImportGraph:
    """The CLI loads only what the command it runs needs."""

    def _loaded(self, code: str, flags: list[str]) -> set[str]:
        probe = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run(
            [sys.executable, *flags, "-c", probe],
            capture_output=True, text=True, env=env, check=True,
        )
        return set(result.stdout.split("\n")[-2].split())

    def _run(self, argv: list[str], flags: list[str]) -> set[str]:
        return self._loaded(f"from autorank.cli import main\nassert main({argv!r}) == 0", flags)

    @_SITE
    def test_importing_the_cli_loads_no_dataclasses_inspect_or_json(self, flags):
        loaded = self._loaded("import autorank.cli", flags)
        assert "autorank.cli" in loaded
        assert not {"dataclasses", "inspect", "json"} & loaded

    @_SITE
    def test_text_ranking_never_loads_json(self, flags):
        loaded = self._run(["rank", *WMT24_INPUTS, "--format", "text"], flags)
        assert "autorank.render" in loaded
        assert not {"dataclasses", "inspect", "json"} & loaded

    def test_importing_the_cli_loads_no_typing_pathlib_or_tempfile(self):
        loaded = self._loaded("import autorank.cli", ["-S"])
        assert "autorank.cli" in loaded
        assert not _UNNEEDED & loaded

    @pytest.mark.parametrize("command", ["rank-text", "verify", "rank-out"])
    def test_no_command_loads_typing_pathlib_or_tempfile(self, command, tmp_path):
        argv = {
            "rank-text": ["rank", *WMT24_INPUTS, "--format", "text"],
            "verify": ["verify", *WMT24_INPUTS, "--golden", str(DATA / "golden"),
                       "--allow-mismatch", str(ALLOW)],
            "rank-out": ["rank", *WMT24_INPUTS, "--format", "md", "--out", str(tmp_path)],
        }[command]
        loaded = self._run(argv, ["-S"])
        assert "autorank.render" in loaded
        # --out names its temporary file itself, so even rank-out needs no tempfile
        assert not _UNNEEDED & loaded

    @_SITE
    def test_importing_the_cli_loads_no_decimal_fractions_or_unicodedata(self, flags):
        loaded = self._loaded("import autorank.cli", flags)
        assert "autorank.cli" in loaded
        assert not _DEFERRED & loaded

    @_SITE
    @pytest.mark.parametrize("fmt", ["json", "md", "latex"])
    def test_ranking_but_as_text_loads_no_decimal_fractions_or_unicodedata(self, fmt, flags):
        loaded = self._run(["rank", *WMT24_INPUTS, "--format", fmt], flags)
        assert "autorank.render" in loaded
        assert not _DEFERRED & loaded

    @_SITE
    def test_text_ranking_loads_unicodedata_but_no_decimal_or_fractions(self, flags):
        loaded = self._run(["rank", *WMT24_INPUTS, "--format", "text"], flags)
        assert "unicodedata" in loaded  # the track markers are not ASCII
        assert not {"decimal", "fractions"} & loaded

    @_SITE
    def test_verify_loads_decimal_but_no_fractions_or_unicodedata(self, flags):
        argv = ["verify", *WMT24_INPUTS, "--golden", str(DATA / "golden"),
                "--allow-mismatch", str(ALLOW)]
        loaded = self._run(argv, flags)
        assert "decimal" in loaded
        assert not {"fractions", "unicodedata"} & loaded
