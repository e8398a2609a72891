"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every tolerance is stated inline; integer claims
use exact equality.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import pytest

from recindex.axioms import (
    CHI,
    CITATION_COUNT,
    H,
    SATISFIED,
    VIOLATED,
    build_domain,
    check_axiom,
    counterexample_registry,
    expected_independence_pattern,
    independence_matrix,
    pattern_mismatches,
    replay_counterexample,
)
from recindex.cli import main
from recindex.core import (
    add_citation_at,
    chi_index,
    citation_count,
    conjugate,
    h_index,
    is_uniform,
    rec,
    valid_positions,
)
from recindex.enumeration import (
    DomainSpec,
    brute_force_rec,
    count_vectors,
    enumerate_vectors,
)
from recindex.ingest import build_report, parse_dataset
from recindex.sequences import build_rec_incremental, is_constructive, is_f_incremental

ABS_TOL = 1e-9


def _cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_criterion_01_extreme_profiles_share_chi_but_not_h(tmp_path):
    """<100>, <10 x 10> and <1 x 100> report chi = 10 and h = 1, 10, 1."""
    path = tmp_path / "trio.csv"
    path.write_text(
        "solo,100\n"
        "square," + ",".join(["10"] * 10) + "\n"
        "flat," + ",".join(["1"] * 100) + "\n",
        encoding="utf-8",
    )
    rows = {r.id: r for r in build_report(parse_dataset(path))}
    for name in ("solo", "square", "flat"):
        assert abs(rows[name].chi - 10.0) <= ABS_TOL
    assert rows["solo"].h == 1
    assert rows["square"].h == 10
    assert rows["flat"].h == 1


def test_criterion_02_staircase_rectangle_growth():
    """rec(<6,4,3,1>) is 9; one citation at k=3 lifts it to 12, at k=4 leaves it at 9."""
    x = (6, 4, 3, 1)
    assert rec(x) == 9
    assert rec(add_citation_at(x, 3)) == 12
    assert rec(add_citation_at(x, 4)) == 9


def test_criterion_03_conjugation_is_an_involution_on_the_full_domain():
    """conjugate(<6,4,3,1>) = <4,3,3,2,1,1>; conjugation is an involution on all of 8x8."""
    assert conjugate((6, 4, 3, 1)) == (4, 3, 3, 2, 1, 1)
    domain = list(enumerate_vectors(DomainSpec(8, 8)))
    assert len(domain) == count_vectors(8, 8) == math.comb(16, 8)
    for x in domain:
        assert conjugate(conjugate(x)) == x


def test_criterion_04_closed_form_matches_brute_force_oracle():
    """max over dominated uniform vectors equals max_i i*x_i on all of 8x8."""
    mismatches = [
        x
        for x in enumerate_vectors(DomainSpec(8, 8))
        if brute_force_rec(x) != rec(x)
    ]
    assert mismatches == []


def test_criterion_05_independence_matrix_matches_documented_pattern():
    """The 6x6 verdict matrix equals the documented pattern in every cell but
    the refuted min_n_x1/UE one; M, UC and UE are independent; axioms exits 2.

    The documented pattern claims min(n, x_1) keeps UE.  It does not:
    min(n, x_1) of <2,1> is 2, and the uniform vectors dominated by <2,1>
    are exactly <>, <1>, <2> and <1,1> (a uniform <c x j> is dominated iff
    j <= n and c <= x_j), which score 0, 1, 1 and 1.  No dominated uniform
    vector scores 2, so UE fails.  The pattern is kept as documented (README,
    "Known mismatch"), so that cell is pinned to the refutation here.
    """
    matrix = independence_matrix(build_domain(DomainSpec(6, 6)))
    expected = expected_independence_pattern()
    refuted = ("min_n_x1", "UE")

    # (a) every other cell agrees with the documented pattern
    assert {name: set(row) for name, row in matrix.items()} == {
        name: set(row) for name, row in expected.items()
    }
    disagreements = [
        (name, axiom, expected[name][axiom], verdict.status)
        for name, row in matrix.items()
        for axiom, verdict in row.items()
        if (name, axiom) != refuted and verdict.status != expected[name][axiom]
    ]
    assert disagreements == []

    # (b) the refuted cell, its witness and the hand-listed candidates
    cell = matrix["min_n_x1"]["UE"]
    assert cell.status == VIOLATED
    assert cell.counterexample["x"] == (2, 1)
    assert cell.counterexample["f_x"] == 2
    assert cell.counterexample["candidates"] == [
        [(), 0],
        [(1,), 1],
        [(2,), 1],
        [(1, 1), 1],
    ]
    min_n_x1 = next(i for i in counterexample_registry() if i.name == "min_n_x1")
    assert replay_counterexample(cell, min_n_x1)

    # (c) each core property is failed alone by some index; rec keeps all three
    core = ("M", "UC", "UE")
    profiles = {
        name: tuple(row[a].status for a in core) for name, row in matrix.items()
    }
    assert profiles["rec"] == (SATISFIED,) * 3
    for axiom in core:
        alone = tuple(VIOLATED if a == axiom else SATISFIED for a in core)
        assert alone in profiles.values(), f"no registry index fails only {axiom}"

    # (d) the disagreement is reported, and axioms exits 2 for it
    mismatches = pattern_mismatches(matrix)
    assert [(n, a, want, v.status) for n, a, want, v in mismatches] == [
        ("min_n_x1", "UE", SATISFIED, VIOLATED)
    ]
    code, text = _cli("axioms")
    assert code == 2
    assert "documented-pattern mismatches: 1" in text.splitlines()


def test_criterion_06_chi_never_gains_more_than_one_per_citation():
    """chi(x + one citation) <= chi(x) + 1 with slack >= -1e-9, everywhere on 6x6."""
    violations = []
    for x in enumerate_vectors(DomainSpec(6, 6)):
        before = chi_index(x)
        for k in valid_positions(x):
            slack = before + 1.0 - chi_index(add_citation_at(x, k))
            if slack < -ABS_TOL:
                violations.append((x, k, slack))
    assert violations == []


def test_criterion_07_rec_recurrence_is_exact():
    """rec(x + citation at k) = max(rec(x), k*(x_k+1)) exactly, everywhere on 6x6."""
    for x in enumerate_vectors(DomainSpec(6, 6)):
        base = rec(x)
        for k in valid_positions(x):
            old = x[k - 1] if k <= len(x) else 0
            assert rec(add_citation_at(x, k)) == max(base, k * (old + 1)), (x, k)


def test_criterion_08_builder_is_sound_for_every_small_target():
    """build_rec_incremental verifies on every 6x6 target; its last uniform step carries rec."""
    targets = list(enumerate_vectors(DomainSpec(6, 6)))
    assert len(targets) == count_vectors(6, 6)
    for target in targets:
        built = build_rec_incremental(target)
        assert is_constructive(built.steps, target)
        assert is_f_incremental(built, rec)
        terminal_uniform = [s for s in built.steps if is_uniform(s)][-1]
        assert citation_count(terminal_uniform) == rec(target)
    # The exact steps of all 924 targets, pinned by their sha256.
    steps = "\n".join(repr(build_rec_incremental(v).steps) for v in targets)
    assert hashlib.sha256(steps.encode()).hexdigest() == "6e1087e96c9ca9a0752c8022816eb6e14ad86c3ce2d88ba2684f88f29238fb15"


def test_criterion_09_rank_invariance_findings():
    """h breaks rank scale invariance, h and chi break rank independence, with
    replayable witnesses; citation count keeps SM and both rank properties (5x5)."""
    domain = build_domain(DomainSpec(5, 5))
    h_scale = check_axiom(H, "RANK_SI", domain)
    assert not h_scale.ok
    assert replay_counterexample(h_scale, H)
    for index in (H, CHI):
        verdict = check_axiom(index, "RANK_IND", domain)
        assert not verdict.ok
        assert replay_counterexample(verdict, index)
    for axiom in ("SM", "RANK_IND", "RANK_SI"):
        assert check_axiom(CITATION_COUNT, axiom, domain).ok


def test_criterion_10_classification_split_on_a_synthetic_cohort(tmp_path):
    """classify reports the influential/prolific split; a cohort built to be
    93 tall profiles to 7 wide ones reports exactly 93/7."""
    lines = []
    for i in range(93):
        height = 2 + (i % 7)
        lines.append(f"tall_{i:02d},{height}" + (",1" if i % 3 == 0 else ""))
    for i in range(7):
        width = 3 + i
        lines.append(f"wide_{i}," + ",".join(["1"] * width))
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    code, text = _cli("classify", str(path), "--format", "jsonl")
    assert code == 0
    summary = json.loads(text.splitlines()[-1])
    assert summary == {
        "summary": {"influential": 93, "prolific": 7, "balanced": 0, "empty": 0},
        "total": 100,
    }
    code, table = _cli("classify", str(path))
    assert code == 0
    assert "influential 93 (93.0%)" in table.splitlines()[-1]
    assert "prolific 7 (7.0%)" in table.splitlines()[-1]
