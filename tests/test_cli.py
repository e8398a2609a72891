from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recindex import axioms, cli, ingest
from recindex.axioms import build_domain
from recindex.cli import main
from recindex.enumeration import DomainSpec, count_vectors

TRIO = (
    "grace," + ",".join(["10"] * 10) + "\n"
    "solo,100\n"
    "flat," + ",".join(["1"] * 100) + "\n"
)


@pytest.fixture
def trio_csv(tmp_path):
    path = tmp_path / "trio.csv"
    path.write_text(TRIO, encoding="utf-8")
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_table_reports_equal_chi(trio_csv):
    code, text = run_cli("compute", trio_csv)
    lines = text.splitlines()
    assert code == 0
    assert len(lines) == 4
    assert lines[0].split()[:3] == ["id", "n", "citations"]
    for line in lines[1:]:
        assert "10.0000" in line  # chi agrees for all three shapes
    grace = next(line for line in lines if line.startswith("grace"))
    assert grace.split() == [
        "grace", "10", "100", "10", "10", "10", "10",
        "31.6228", "100", "10.0000", "100", "100", "10", "balanced",
    ]


def test_compute_csv_and_jsonl_agree(trio_csv):
    code, csv_text = run_cli("compute", trio_csv, "--format", "csv")
    assert code == 0
    header, *rows = csv_text.splitlines()
    assert header.startswith("id,n,citations,max,h,g,w,euclidean,rec,chi")
    assert len(rows) == 3

    code, jsonl_text = run_cli("compute", trio_csv, "--format", "jsonl")
    assert code == 0
    payloads = [json.loads(line) for line in jsonl_text.splitlines()]
    by_id = {p["id"]: p for p in payloads}
    assert by_id["solo"]["vector"] == [100]
    assert by_id["solo"]["rec"] == 100
    assert by_id["solo"]["chi"] == 10.0
    assert by_id["solo"]["classification"] == "influential"
    assert by_id["flat"]["n"] == 100
    assert by_id["flat"]["classification"] == "prolific"
    assert by_id["grace"]["classification"] == "balanced"
    for p in payloads:
        assert p["chi"] == pytest.approx(p["rec"] ** 0.5, abs=1e-4)


def test_compute_output_is_byte_deterministic(trio_csv):
    first = run_cli("compute", trio_csv, "--format", "jsonl")
    second = run_cli("compute", trio_csv, "--format", "jsonl")
    assert first == second


def test_compute_ceil_chi(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a,2,1\n", encoding="utf-8")
    code, plain = run_cli("compute", str(path), "--format", "jsonl")
    assert code == 0
    assert json.loads(plain)["chi"] == pytest.approx(1.4142)
    code, ceiled = run_cli("compute", str(path), "--format", "jsonl", "--ceil-chi")
    assert code == 0
    assert json.loads(ceiled)["chi"] == 2


def test_compute_show_maximizers(tmp_path):
    path = tmp_path / "tie.csv"
    path.write_text("tie,4,2,1\n", encoding="utf-8")
    code, text = run_cli("compute", str(path), "--format", "jsonl", "--show-maximizers")
    payload = json.loads(text)
    assert code == 0
    assert payload["rec"] == 4
    assert payload["maximizers"] == [1, 2]
    code, table = run_cli("compute", str(path), "--show-maximizers")
    assert "maximizers" in table.splitlines()[0]
    assert "1|2" in table.splitlines()[1]


# ---------------------------------------------------------------------------
# rank and classify
# ---------------------------------------------------------------------------


def test_rank_by_chi_breaks_ties_by_id(trio_csv):
    code, text = run_cli("rank", trio_csv, "--by", "chi", "--format", "csv")
    assert code == 0
    assert text.splitlines() == [
        "rank,id,chi",
        "1,flat,10.0000",
        "1,grace,10.0000",
        "1,solo,10.0000",
    ]


def test_rank_by_h(trio_csv):
    code, text = run_cli("rank", trio_csv, "--by", "h", "--format", "csv")
    assert text.splitlines() == ["rank,id,h", "1,grace,10", "2,flat,1", "2,solo,1"]
    assert code == 0


def test_rank_by_rec_and_chi_order_identically(trio_csv, tmp_path):
    path = tmp_path / "spread.csv"
    path.write_text("a,6,4,3,1\nb,10,10\nc,5\nd,1,1,1\n", encoding="utf-8")
    _, by_rec = run_cli("rank", str(path), "--by", "rec", "--format", "jsonl")
    _, by_chi = run_cli("rank", str(path), "--by", "chi", "--format", "jsonl")
    rec_order = [(json.loads(l)["rank"], json.loads(l)["id"]) for l in by_rec.splitlines()]
    chi_order = [(json.loads(l)["rank"], json.loads(l)["id"]) for l in by_chi.splitlines()]
    assert rec_order == chi_order  # chi is a monotone transform of rec


def test_rank_ascending(trio_csv):
    code, text = run_cli("rank", trio_csv, "--by", "n", "--ascending", "--format", "csv")
    assert text.splitlines()[1] == "1,solo,1"
    assert code == 0


def test_rank_unknown_column_fails_validation(trio_csv, capsys):
    code, text = run_cli("rank", trio_csv, "--by", "sociability")
    assert code == 1
    assert text == ""
    assert "cannot rank by 'sociability'" in capsys.readouterr().err


def test_rank_unknown_column_is_refused_before_the_dataset_is_read(tmp_path, capsys):
    code, text = run_cli("rank", str(tmp_path / "missing.csv"), "--by", "sociability")
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert f"cannot rank by 'sociability'; choose one of {', '.join(ingest.RANKABLE_COLUMNS)}" in err
    assert "cannot read dataset" not in err


@pytest.mark.parametrize(
    "command, passes_per_row",
    [
        *((f"rank --by {by}", 0) for by in ("chi", "rec", "h", "n", "citations", "w")),
        ("classify", 0),
        ("compute", 1),
        ("rank --by g", 1),
    ],
)
def test_report_commands_run_the_full_pass_only_for_the_columns_that_need_it(
    trio_csv, monkeypatch, command, passes_per_row
):
    calls = []
    full_pass = ingest.report_indices

    def counting(x):
        calls.append(x)
        return full_pass(x)

    monkeypatch.setattr(ingest, "report_indices", counting)
    name, *options = command.split()
    assert run_cli(name, trio_csv, *options)[0] == 0
    assert len(calls) == 3 * passes_per_row


def test_classify_table_and_summary(trio_csv):
    code, text = run_cli("classify", trio_csv)
    lines = text.splitlines()
    assert code == 0
    assert lines[0].split() == ["id", "rec", "rect_width", "classification"]
    assert lines[-1].startswith("classification summary: ")
    assert "influential 1 (33.3%)" in lines[-1]
    assert "prolific 1 (33.3%)" in lines[-1]
    assert "balanced 1 (33.3%)" in lines[-1]
    assert "empty 0 (0.0%)" in lines[-1]


def test_classify_jsonl_summary_object(trio_csv):
    code, text = run_cli("classify", trio_csv, "--format", "jsonl")
    lines = [json.loads(l) for l in text.splitlines()]
    assert code == 0
    assert lines[-1] == {
        "summary": {"influential": 1, "prolific": 1, "balanced": 1, "empty": 0},
        "total": 3,
    }
    solo = next(l for l in lines if l.get("id") == "solo")
    assert solo == {"id": "solo", "rec": 100, "rect_width": 1, "classification": "influential"}


@pytest.mark.parametrize(
    "command, module, row_builder",
    # classify builds its rows with the function it imported, so the hook goes on cli.
    [("compute", ingest, "report_row"), ("classify", cli, "classify_row")],
    ids=["compute", "classify"],
)
@pytest.mark.parametrize("fmt, header_lines", [("csv", 1), ("jsonl", 0)])
def test_report_rows_are_written_as_they_are_built(
    trio_csv, monkeypatch, command, module, row_builder, fmt, header_lines
):
    out = io.StringIO()
    written = []  # the length of the output each time a row is about to be built
    build = getattr(module, row_builder)

    def recording(record):
        written.append(len(out.getvalue()))
        return build(record)

    monkeypatch.setattr(module, row_builder, recording)
    assert main([command, trio_csv, "--format", fmt], out=out) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert written == [len("".join(lines[: header_lines + k])) for k in range(3)]


@pytest.mark.parametrize("argv", [["compute"], ["rank", "--by", "rec"], ["classify"]])
@pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
def test_a_bad_last_line_writes_no_rows(tmp_path, capsys, argv, fmt):
    path = tmp_path / "late.csv"
    path.write_text(TRIO + "late,1,x\n", encoding="utf-8")
    code, text = run_cli(argv[0], str(path), *argv[1:], "--format", fmt)
    assert code == 1 and text == ""
    assert "line 4: invalid citation count 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "headers, rows, want",
    [
        (["id", "rec"], [], "id  rec\n"),
        # A cell is a value of the line's template, never part of it; widths count characters, not bytes.
        (
            ["id", "note", "n"],
            [("Żółć-Ω", "{}", "7"), ("b", "{0}", "12")],
            "id      note  n\nŻółć-Ω  {}    7\nb       {0}   12\n",
        ),
    ],
    ids=["no-rows", "braces-and-non-ascii"],
)
def test_table_pads_each_column_to_its_widest_cell(headers, rows, want):
    out = io.StringIO()
    cli._table(out, headers, rows)
    assert out.getvalue() == want


def test_table_widens_a_column_past_a_missing_first_value():
    out = io.StringIO()
    cli._emit(out, "table", ["id", "rect_width", "classification"], [("a", None, "empty"), ("b", 12, "prolific")])
    assert out.getvalue() == "id  rect_width  classification\na   -           empty\nb   12          prolific\n"


# ---------------------------------------------------------------------------
# sequence and conjugate
# ---------------------------------------------------------------------------


def test_sequence_square(tmp_path):
    code, text = run_cli("sequence", "2,2")
    lines = text.splitlines()
    assert code == 0
    assert lines[0].split() == ["step", "vector", "rec"]
    assert len(lines) == 6
    assert lines[1].split() == ["0", "<>", "0"]
    assert lines[-1].split() == ["4", "<2,2>", "4"]


def test_sequence_staircase_passes_through_the_rectangle():
    code, text = run_cli("sequence", "6,4,3,1")
    lines = text.splitlines()
    assert code == 0
    assert len(lines) == 16  # header + one row per citation + empty start
    assert any("<3,3,3>" in line for line in lines)
    assert lines[-1].split() == ["14", "<6,4,3,1>", "9"]


def test_sequence_jsonl():
    code, text = run_cli("sequence", "6,4,3,1", "--format", "jsonl")
    payload = json.loads(text)
    assert code == 0
    assert payload["target"] == [6, 4, 3, 1]
    assert len(payload["steps"]) == 15
    assert payload["steps"][0] == []
    assert payload["rec"][-1] == 9
    assert payload["rec"] == sorted(payload["rec"])  # never decreases


def test_sequence_accepts_angle_brackets_and_unsorted_input():
    code, text = run_cli("sequence", "<1,3,2>", "--format", "jsonl")
    assert code == 0
    assert json.loads(text)["target"] == [3, 2, 1]


def test_sequence_rejects_garbage(capsys):
    code, _ = run_cli("sequence", "a,b")
    assert code == 1
    assert "invalid vector literal" in capsys.readouterr().err
    code, _ = run_cli("sequence", "3,-1")
    assert code == 1


def test_invalid_vector_literal_is_echoed_short(capsys):
    code, text = run_cli("conjugate", "9" * 5000)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert "invalid vector literal '99999999999999999999'... (5000 characters)" in err
    assert len(err) < 300


def test_conjugate_round_trip():
    code, text = run_cli("conjugate", "6,4,3,1")
    assert code == 0
    assert text.strip() == "4,3,3,2,1,1"
    code, back = run_cli("conjugate", text.strip())
    assert back.strip() == "6,4,3,1"


def test_conjugate_jsonl_and_empty():
    code, text = run_cli("conjugate", "-", "--format", "jsonl")
    assert code == 0
    assert json.loads(text) == {"vector": [], "conjugate": []}
    code, text = run_cli("conjugate", "6,4,3,1", "--format", "jsonl")
    assert code == 0
    assert text == '{"vector": [6, 4, 3, 1], "conjugate": [4, 3, 3, 2, 1, 1]}\n'


@pytest.mark.parametrize("x1", [10**20, 10**7 + 1])
def test_conjugate_refuses_vectors_past_the_size_limit(capsys, x1):
    # Both are refused before anything is built: 10^20 used to end in an
    # OverflowError and 10^7 + 1 would build a list of that many entries.
    code, text = run_cli("conjugate", f"{x1},2")
    assert code == 1 and text == ""
    assert f"x_1 = {x1}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target", ["10000000", "4999999,1", "9999999", ",".join(["99999"] * 10), "1500000", ",".join(["65625"] * 10)]
)
def test_sequence_refuses_targets_past_the_entry_limit(capsys, target):
    # Each step is charged len + 6 entries.  (citation_count + 1) * (len + 6) is
    # 7.0e7, 4.0e7, 7.0e7 and 1.6e7 for the first four: 9999999 and 99999 x 10
    # hold fewer than 10^7 entries, but would take about 1.6 GB and 381 MB.
    # The last two, at 10,500,007 and 10,500,016, are just past the limit.
    code, text = run_cli("sequence", target)
    assert code == 1 and text == ""
    assert capsys.readouterr().err == "error: a sequence to this target exceeds the limit of 10500000 entries\n"


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axioms_default_domain_reports_single_mismatch():
    code, text = run_cli("axioms")
    lines = text.splitlines()
    assert code == 2
    assert lines[0] == "domain: n_max=6 c_max=6 (exhaustive, 924 vectors)"
    assert "independence matrix:" in lines
    assert "full axiom matrix:" in lines
    assert "single-citation chi bound (chi never grows by more than 1): pass" in lines
    assert "documented-pattern mismatches: 1" in lines
    assert (
        "  min_n_x1 / UE: claimed pass, computed FAIL (counterexample x=<2,1>)" in lines
    )


def test_axioms_tiny_domain_cannot_expose_the_claimed_failures():
    code, text = run_cli("axioms", "--n-max", "1", "--c-max", "1")
    assert code == 2
    unexposed = [l for l in text.splitlines() if "claimed FAIL, not exposed" in l]
    assert len(unexposed) == 7  # every claimed violation needs vectors beyond 1x1
    assert not any("computed FAIL" in l for l in text.splitlines())


def test_axioms_jsonl_verdicts(tmp_path):
    code, text = run_cli("axioms", "--n-max", "4", "--c-max", "4", "--format", "jsonl")
    lines = [json.loads(l) for l in text.splitlines()]
    assert code == 2
    verdicts = [l for l in lines if "axiom" in l and "status" in l]
    assert len(verdicts) == 8 * 13 + 1  # full matrix plus the chi bound
    assert all(v.get("exhaustive", True) for v in verdicts)
    mismatches = lines[-1]["mismatches"]
    assert len(mismatches) == 1
    assert mismatches[0]["index"] == "min_n_x1"
    assert mismatches[0]["axiom"] == "UE"
    assert mismatches[0]["claimed"] == "satisfied-on-domain"
    assert mismatches[0]["computed"] == "violated"
    assert mismatches[0]["counterexample"]["x"] == [2, 1]


def test_axioms_jsonl_is_byte_deterministic():
    first = run_cli("axioms", "--n-max", "3", "--c-max", "3", "--format", "jsonl")
    second = run_cli("axioms", "--n-max", "3", "--c-max", "3", "--format", "jsonl")
    assert first == second


def test_axioms_oversized_domain_is_refused(capsys):
    code, text = run_cli("axioms", "--n-max", "40", "--c-max", "40")
    assert code == 3
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("refused:")
    assert "seed" in err


def test_axioms_refusal_of_a_huge_domain_names_the_bound_not_the_count(capsys):
    # The box holds about 10^6019 vectors, past the 4300 digits str() allows.
    code, text = run_cli("axioms", "--n-max", "10000", "--c-max", "10000")
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "refused: the image tables of domain 10000x10000 hold 10000 values for each vector, so at most 1000 vectors "
        "fit the budget of 10000000, fewer than its box holds; supply a seed for a sampled (non-exhaustive) scan\n"
    )


def test_axioms_sampled_mode_is_labelled():
    code, text = run_cli(
        "axioms", "--n-max", "40", "--c-max", "40", "--seed", "11", "--sample-size", "30"
    )
    assert code in (0, 2)
    assert "sampled, non-exhaustive" in text.splitlines()[0]
    assert any("n/a" in line for line in text.splitlines())  # refused UI cells


def test_axioms_seeded_12x12_is_sampled_not_refused():
    # 12x12 is past the image budget as a box (2,704,156 vectors x 12 values), not as a sample.
    code, text = run_cli("axioms", "--n-max", "12", "--c-max", "12", "--seed", "1", "--sample-size", "30")
    scanned = len(build_domain(DomainSpec(12, 12, seed=1), 30).vectors)
    assert code == 2
    assert text.splitlines()[0] == f"domain: n_max=12 c_max=12 (sampled, non-exhaustive, {scanned} of 2704156 vectors)"


def test_axioms_sampled_domain_line_counts_the_scanned_vectors():
    code, text = run_cli("axioms", "--n-max", "40", "--c-max", "40", "--seed", "7", "--sample-size", "60")
    scanned = len(build_domain(DomainSpec(40, 40, seed=7), 60).vectors)
    assert code in (0, 2)
    assert text.splitlines()[0] == (
        f"domain: n_max=40 c_max=40 (sampled, non-exhaustive, {scanned} of {count_vectors(40, 40)} vectors)"
    )


def test_axioms_sample_size_below_1_exits_1(capsys):
    code, text = run_cli("axioms", "--n-max", "14", "--c-max", "14", "--seed", "1", "--sample-size", "-5")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: sample size must be at least 1, got -5\n"
    # an exhaustive domain draws no sample, so the option is not read
    assert run_cli("axioms", "--n-max", "3", "--c-max", "3", "--sample-size", "0") == run_cli(
        "axioms", "--n-max", "3", "--c-max", "3"
    )


def test_axioms_sample_size_above_the_budget_exits_3(capsys, monkeypatch):
    # A stand-in draw keeps the scan small, and shows that a refused sample is never drawn.
    drawn = []
    monkeypatch.setattr(axioms, "sample_vectors", lambda spec, size: drawn.append(size) or [(), (1,)])
    code, text = run_cli("axioms", "--n-max", "40", "--c-max", "40", "--seed", "1", "--sample-size", "250000")
    assert (code, text, drawn) == (3, "", [])
    assert capsys.readouterr().err == (
        "refused: the image tables of domain 40x40 hold 40 values for each vector, so at most 250000 vectors fit "
        "the budget of 10000000, fewer than a sample of 250000 holds with the empty vector\n"
    )
    assert run_cli("axioms", "--n-max", "3", "--c-max", "3", "--sample-size", "10000001") == run_cli(
        "axioms", "--n-max", "3", "--c-max", "3"
    )
    # One draw fewer fits, as the empty vector is kept too.
    assert build_domain(DomainSpec(40, 40, seed=1), 249_999).vectors == [(), (1,)]
    assert drawn == [249_999]


@pytest.mark.parametrize(
    "argv, domain",
    [(("--n-max", "1", "--c-max", "100000"), "1x100000"), (("--n-max", "2", "--c-max", "1000000", "--seed", "1"), "2x1000000")],
)
def test_axioms_image_tables_above_the_budget_exit_3(capsys, monkeypatch, argv, domain):
    # Were the rule to admit them, these domains would be built and scanned, not refused.
    for name in ("enumerate_vectors", "sample_vectors"):
        monkeypatch.setattr(axioms, name, lambda spec, *size: pytest.fail(f"{spec} was built"))
    code, text = run_cli("axioms", *argv)
    assert (code, text) == (3, "")
    assert capsys.readouterr().err.startswith(f"refused: the image tables of domain {domain} hold")


@pytest.mark.parametrize(
    "argv", [("--n-max", "3", "--c-max", "3"), ("--n-max", "40", "--c-max", "40", "--seed", "11", "--sample-size", "30")]
)
def test_axioms_table_reads_what_jsonl_reads(argv):
    # Each format is pinned by its own golden files; this pins one to the other.
    words = {"satisfied-on-domain": "pass", "violated": "FAIL", "refused": "n/a"}
    code, text = run_cli("axioms", *argv)
    jsonl_code, jsonl = run_cli("axioms", *argv, "--format", "jsonl")
    assert jsonl_code == code == 2
    *cells, chi, last = map(json.loads, jsonl.splitlines())
    expected = {(cell["index"], cell["axiom"]): words[cell["status"]] for cell in cells}
    _, independence, full, chi_line, tail = text.rstrip("\n").split("\n\n")
    for matrix, axioms_shown in (independence, ["M", "UC", "UE"]), (full, [a.value for a in axioms.AxiomId]):
        title, header, *rows = matrix.splitlines()
        assert header.split() == ["index", *axioms_shown]
        shown = {(row.split()[0], axiom): word for row in rows for axiom, word in zip(axioms_shown, row.split()[1:])}
        assert shown == {key: word for key, word in expected.items() if key[1] in axioms_shown}
    assert chi["axiom"] == "CHI_STEP_BOUND"
    assert chi_line == f"single-citation chi bound (chi never grows by more than 1): {words[chi['status']]}"
    mismatches = last["mismatches"]
    assert tail.splitlines() == [f"documented-pattern mismatches: {len(mismatches)}"] + [
        f"  {m['index']} / {m['axiom']}: claimed pass, computed FAIL "
        f"(counterexample x=<{','.join(map(str, m['counterexample']['x']))}>)"
        if m["computed"] == "violated"
        else f"  {m['index']} / {m['axiom']}: claimed FAIL, not exposed on this domain (domain too small?)"
        for m in mismatches
    ]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_missing_dataset_exits_1(tmp_path, capsys):
    code, text = run_cli("compute", str(tmp_path / "absent.csv"))
    assert code == 1
    assert "cannot read dataset" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    code, _ = run_cli("frobnicate")
    assert code == 1


def test_help_exits_0(capsys):
    code, _ = run_cli("--help")
    assert code == 0


def test_one_parser_serves_every_call_without_carrying_options_over(trio_csv, capsys):
    # main() builds the parser on its first call and reuses it for the life of the process.
    assert cli.build_parser() is cli.build_parser()
    descending = (0, "rank,id,n\n1,flat,100\n2,grace,10\n3,solo,1\n")
    assert run_cli("rank", trio_csv, "--by", "n", "--ascending", "--format", "csv") == (
        0, "rank,id,n\n1,solo,1\n2,grace,10\n3,flat,100\n"
    )
    assert run_cli("rank", trio_csv, "--by", "n", "--format", "csv") == descending
    assert run_cli("rank", trio_csv, "--by", "n", "--format", "xml") == (1, "")
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert run_cli("rank", trio_csv, "--by", "n", "--format", "csv") == descending


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("recindex") is None,
    reason="the recindex executable is not on PATH; run `pip install -e .` to install it",
)
def test_console_script_is_wired():
    proc = subprocess.run(
        ["recindex", "conjugate", "6,4,3,1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4,3,3,2,1,1"


def test_console_script_entry_point_runs_without_install():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["recindex"] == "recindex.cli:run"

    # Call the target the way the generated console-script wrapper does.
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
    code = "import sys; from recindex.cli import run; sys.argv[0] = 'recindex'; run()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "conjugate", "6,4,3,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "4,3,3,2,1,1"


def test_python_dash_m_runs_the_cli():
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "recindex", "conjugate", "6,4,3,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "4,3,3,2,1,1"
    proc = subprocess.run([sys.executable, "-m", "recindex", "frobnicate"], capture_output=True, env=env)
    assert proc.returncode == 1


def test_importing_the_cli_skips_dataclasses_and_inspect():
    # The import is the cold start of every command; dataclasses alone pulls
    # in inspect, ast, dis and tokenize, and pathlib pulls in urllib.parse and
    # ipaddress.  -S keeps site's imports out of it.
    loaded = "import sys, recindex, recindex.cli; print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", loaded], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_report_commands_start_without_the_scanner(tmp_path):
    # axioms and sequences load on first use, so the report commands and
    # conjugate never compile them, and axioms and sequence each load only
    # their own.  Each command runs in a child of its own; -S keeps site's
    # imports out, as above.
    path = tmp_path / "three.csv"
    path.write_text("ada,6,4,3,1\nbob,2\ncy,1,1,1\n", encoding="utf-8")
    script = """import io, sys
from recindex.cli import main
code = main(sys.argv[1:], out=io.StringIO())
print(code, *sorted(name for name in sys.modules if name.startswith("recindex.")))"""
    commands = [
        ["compute", str(path)],
        ["rank", str(path), "--by", "rec"],
        ["classify", str(path)],
        ["conjugate", "6,4,3,1"],
        ["sequence", "2,1"],
        ["axioms", "--n-max", "2", "--c-max", "2"],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs[argv[0]] = proc.stdout.split()
    base = ["recindex.cli", "recindex.core", "recindex.enumeration", "recindex.ingest"]
    # 2x2 exits 2: it cannot expose n_times_min / M, and min_n_x1 fails UE there.
    assert runs == {
        "compute": ["0", *base],
        "rank": ["0", *base],
        "classify": ["0", *base],
        "conjugate": ["0", *base],
        "sequence": ["0", *base, "recindex.sequences"],
        "axioms": ["2", "recindex.axioms", *base],
    }


def test_importing_the_scanner_skips_the_sequence_search():
    # The scan reads the step rule from core, so `recindex axioms` never compiles sequences.
    loaded = "import sys, recindex.axioms; print('recindex.sequences' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", loaded], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_closed_stdout_ends_quietly_with_exit_1():
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
    # 200 kB of output cannot fit in the pipe, so the writer meets the
    # closed end whatever the timing.
    with subprocess.Popen(
        [sys.executable, "-m", "recindex", "conjugate", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(10) == b"1,1,1,1,1,"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_stdout_closed_after_the_first_table_line_ends_quietly_with_exit_1():
    # sequence writes its table a line at a time; 3,001 steps to 40 entries of 60 take 320 kB, more than
    # the pipe holds, so the writer meets the closed end whether or not stdout is buffered.
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
    with subprocess.Popen(
        [sys.executable, "-m", "recindex", "sequence", ",".join(["60"] * 40)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline().split() == [b"step", b"vector", b"rec"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_rounded_floats_print_the_same_4_decimals(x):
    # JSONL rounds a float to 4 decimals, and tables and CSV format the
    # unrounded float with 4 decimals: both formats show the same digits.
    assert f"{round(x, 4):.4f}" == f"{x:.4f}"


def test_csv_outputs_quote_ids_and_read_back(tmp_path):
    ids = ["plain", "Smith, J", 'O"Brien']
    path = tmp_path / "names.jsonl"
    lines = [json.dumps({"id": i, "citations": [3, 2, 1]}) for i in ids]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for argv in (["compute"], ["rank", "--by", "rec"], ["classify"]):
        code, text = run_cli(argv[0], str(path), *argv[1:], "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(text))
        if argv[0] == "classify":
            assert rows.pop()[0].startswith("# summary")
        assert all(len(row) == len(header) for row in rows), argv
        assert sorted(row[header.index("id")] for row in rows) == sorted(ids)
        assert '"plain"' not in text
        assert '"Smith, J"' in text and '"O""Brien"' in text


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300), suffix=st.sampled_from([".csv", ".jsonl"]))
def test_compute_on_random_bytes_exits_0_or_1(data, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("random" + suffix)
        path.write_bytes(data)
        assert main(["compute", str(path)], out=io.StringIO()) in (0, 1)


@pytest.mark.parametrize(
    "big",
    # The last count passes only on the exact sum of squares: twice its
    # square exceeds the largest float, but its square plus 4 does not.
    [3_000_000, 10**20, math.isqrt(int(sys.float_info.max)) - 1],
)
def test_compute_reports_huge_counts(tmp_path, big):
    path = tmp_path / "huge.csv"
    path.write_text(f"a,{big},2\n", encoding="utf-8")
    code, text = run_cli("compute", str(path), "--format", "jsonl")
    assert code == 0
    row = json.loads(text)
    assert row["vector"] == [big, 2]
    assert (row["max"], row["rec"], row["rec_i"], row["rec_p"], row["w"]) == (big, big, big, 4, 2)


HUGE = "9" * 200  # its square overflows a float


@pytest.mark.parametrize(
    "name, text",
    [
        ("huge.csv", f"ok,1\na,{HUGE}\n"),
        ("huge.jsonl", f'{{"id": "ok", "citations": [1]}}\n{{"id": "a", "citations": [{HUGE}]}}\n'),
    ],
)
def test_compute_rejects_counts_beyond_float_range(tmp_path, capsys, name, text):
    # The valid first row makes the message name line 2, not just line 1.
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, text = run_cli("compute", str(path))
    assert code == 1 and text == ""
    assert "line 2: researcher 'a': citation counts too large" in capsys.readouterr().err


LONG = "9" * 5000  # more digits than Python converts to an int by default


@pytest.mark.parametrize(
    "name, text, shown",
    [
        ("long.csv", f"ok,1\na,{LONG}\n", "invalid citation count '99999999999999999999'... (5000 characters)"),
        ("long.jsonl", f'{{"id": "ok", "citations": [1]}}\n{{"id": "a", "citations": [{LONG}]}}\n', "invalid JSON"),
    ],
)
def test_compute_names_the_line_of_an_overlong_integer(tmp_path, capsys, name, text, shown):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("compute", str(path))
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert f"line 2: {shown}" in err
    assert len(err) < 300
