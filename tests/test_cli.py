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


@pytest.mark.parametrize("x1", [10**20, 10**7 + 1])
def test_conjugate_refuses_vectors_past_the_size_limit(capsys, x1):
    # Both are refused before anything is built: 10^20 used to end in an
    # OverflowError and 10^7 + 1 would build a list of that many entries.
    code, text = run_cli("conjugate", f"{x1},2")
    assert code == 1 and text == ""
    assert f"x_1 = {x1}" in capsys.readouterr().err


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


def test_axioms_sampled_mode_is_labelled():
    code, text = run_cli(
        "axioms", "--n-max", "40", "--c-max", "40", "--seed", "11", "--sample-size", "30"
    )
    assert code in (0, 2)
    assert "sampled, non-exhaustive" in text.splitlines()[0]
    assert any("n/a" in line for line in text.splitlines())  # refused UI cells


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


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_rounded_floats_print_the_same_4_decimals(x):
    # JSONL rows hold floats rounded to 4 decimals, and tables and CSV
    # print those same rounded values.
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
