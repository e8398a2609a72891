"""The axiom scan's output, byte for byte, against recorded runs."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

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
    ],
)
def test_axioms_output_matches_recorded_run(recorded, argv, exit_code):
    out = io.StringIO()
    assert main(argv, out=out) == exit_code
    assert out.getvalue().encode("utf-8") == (DATA / recorded).read_bytes()
