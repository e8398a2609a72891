"""CLI output, byte for byte, against recorded runs.

``data/report_mixed.csv`` was drawn with ``random.Random(2026)``: twelve
Pareto(1.2) rows of up to 40 papers (about half uncited, one count of
768), four rows of 100-200 exponential counts (mean 25), rows of tied
counts, an empty and an all-zero researcher, and ids holding ``,`` and
``"``.  Its report outputs were recorded with the per-citation
``conjugate`` and the O(n^2) w-index search, so they pin the linear-time
indices to the old ones.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from recindex.axioms import CHI, VIOLATED, AxiomVerdict, counterexample_registry, replay_counterexample
from recindex.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "recorded, argv, exit_code",
    [
        ("axioms_4x4.jsonl", ["axioms", "--n-max", "4", "--c-max", "4", "--format", "jsonl"], 2),
        ("axioms_6x6.txt", ["axioms"], 2),
        (
            "axioms_40x40_seed7_sample60.jsonl",
            ["axioms", "--n-max", "40", "--c-max", "40", "--seed", "7", "--sample-size", "60",
             "--format", "jsonl"],
            2,
        ),
        ("axioms_3x7.jsonl", ["axioms", "--n-max", "3", "--c-max", "7", "--format", "jsonl"], 2),
        ("axioms_7x3.jsonl", ["axioms", "--n-max", "7", "--c-max", "3", "--format", "jsonl"], 2),
    ],
)
def test_axioms_output_matches_recorded_run(recorded, argv, exit_code):
    out = io.StringIO()
    assert main(argv, out=out) == exit_code
    assert out.getvalue().encode("utf-8") == (DATA / recorded).read_bytes()


@pytest.mark.parametrize(
    "recorded, witnesses",
    [
        ("axioms_4x4.jsonl", 49),
        ("axioms_3x7.jsonl", 49),
        ("axioms_7x3.jsonl", 49),
        ("axioms_40x40_seed7_sample60.jsonl", 46),
    ],
)
def test_every_recorded_witness_replays_for_the_index_it_names(recorded, witnesses):
    indices = {index.name: index for index in [*counterexample_registry(), CHI]}
    rows = [json.loads(line) for line in (DATA / recorded).read_text().splitlines()]
    violated = [row for row in rows if row.get("status") == VIOLATED]
    assert len(violated) == witnesses
    assert [row for row in violated if not replay_counterexample(AxiomVerdict(**row), indices[row["index"]])] == []
    # n_times_min drops from x to y along domination; with x and y swapped, x no longer lies under y.
    row = next(row for row in violated if (row["index"], row["axiom"]) == ("n_times_min", "M"))
    ce = row["counterexample"]
    swapped = AxiomVerdict(**{**row, "counterexample": {**ce, "x": ce["y"], "y": ce["x"]}})
    assert replay_counterexample(swapped, indices["n_times_min"]) is False


REPORT = str(DATA / "report_mixed.csv")


@pytest.mark.parametrize(
    "recorded, argv",
    [
        ("report_compute.txt", ["compute", REPORT]),
        ("report_compute.csv", ["compute", REPORT, "--format", "csv"]),
        ("report_compute.jsonl", ["compute", REPORT, "--format", "jsonl"]),
        ("report_compute_ceil_chi.jsonl", ["compute", REPORT, "--format", "jsonl", "--ceil-chi"]),
        ("report_compute_maximizers.csv", ["compute", REPORT, "--format", "csv", "--show-maximizers"]),
        ("report_compute_ceil_chi_maximizers.txt", ["compute", REPORT, "--ceil-chi", "--show-maximizers"]),
        ("report_rank_w.txt", ["rank", REPORT, "--by", "w"]),
        ("report_rank_rec_i.txt", ["rank", REPORT, "--by", "rec_i"]),
        ("report_rank_rec_p.txt", ["rank", REPORT, "--by", "rec_p"]),
        ("report_rank_chi.csv", ["rank", REPORT, "--by", "chi", "--format", "csv"]),
        ("report_rank_euclidean.jsonl", ["rank", REPORT, "--by", "euclidean", "--format", "jsonl"]),
        ("report_classify.txt", ["classify", REPORT]),
        ("report_classify.csv", ["classify", REPORT, "--format", "csv"]),
        ("report_classify.jsonl", ["classify", REPORT, "--format", "jsonl"]),
    ],
)
def test_report_output_matches_recorded_run(recorded, argv):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    assert out.getvalue().encode("utf-8") == (DATA / recorded).read_bytes()


@pytest.mark.parametrize(
    "recorded, argv",
    [
        # rec 4 of <4,2,1,1> is reached at widths 1, 2 and 4; the builder grows the narrowest rectangle
        ("sequence_4211.txt", ["sequence", "4,2,1,1"]),
        ("sequence_4211.jsonl", ["sequence", "4,2,1,1", "--format", "jsonl"]),
        ("conjugate_6431.txt", ["conjugate", "6,4,3,1"]),
        ("conjugate_6431.jsonl", ["conjugate", "6,4,3,1", "--format", "jsonl"]),
    ],
)
def test_vector_output_matches_recorded_run(recorded, argv):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    assert out.getvalue().encode("utf-8") == (DATA / recorded).read_bytes()
