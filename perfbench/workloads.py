"""The benchmark's workloads: seeded inputs, commands and output checks.

Each workload turns a seed into input files and a list of ``recindex``
command lines, together with a check for each command that reads the
output back and compares it to the benchmark's own oracle.  The oracle
for reports is computed here from the generated raw counts; the axiom
scans are checked against a reference recorded from the package and by
replaying every reported witness.

An *operation* is one emitted report row, or one axiom verdict cell
(the chi step bound counts as a cell).  A bad row or cell is a failed
operation; a wrong exit code or a malformed scan summary is a problem
with the whole run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from string import ascii_uppercase
from typing import Callable

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# results of a check
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with a sample of what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # whole-run faults
    failures: list[str] = field(default_factory=list)  # first failed operations

    def fail(self, where: str, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {what}")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.failures += other.failures[: max(0, 20 - len(self.failures))]


@dataclass
class Command:
    argv: list[str]
    label: str  # e.g. "compute --format csv"; names the output in failure reports
    check: Callable[[str, int, str], Tally]  # (label, exit code, output) -> tally

    def verify(self, code: int, text: str) -> Tally:
        return self.check(self.label, code, text)


def dataset_command(path: Path, args: list[str], check) -> Command:
    """``recindex <args[0]> <path> <args[1:]>``, labelled without the path."""
    return Command([args[0], str(path), *args[1:]], " ".join(args), check)


@dataclass
class Prepared:
    """One workload made concrete for a seed."""

    commands: list[Command]
    records: int  # operations emitted per pass: report rows or verdict cells
    vectors: int  # citation vectors scored per pass
    inputs: dict  # description of the generated inputs, for the result file


# ---------------------------------------------------------------------------
# report inputs and oracle
# ---------------------------------------------------------------------------

SURNAMES = ("Smith", "Garcia", "Chen", "Okafor", "Kowalski", "Nguyen", "Silva", "Novak", 'O"Brien', 'O"Neill')


def researcher_id(rng: random.Random, i: int) -> str:
    """Mostly plain ids, with a share of ``Surname, I.`` and ``O"Brien`` forms."""
    r = rng.random()
    if r < 0.10:
        return f"{rng.choice(SURNAMES)}, {rng.choice(ascii_uppercase)}. ({i})"
    if r < 0.12:
        return f'O"{rng.choice(("Brien", "Neill", "Connor"))} ({i})'
    return f"R{i:06d}"


@dataclass(frozen=True)
class Expected:
    """Oracle values for one researcher, from its raw citation counts."""

    id: str
    n: int
    citations: int
    h: int
    rec: int
    w: int
    rect_width: int | None
    classification: str


def oracle(rid: str, counts: list[int]) -> Expected:
    x = sorted((c for c in counts if c > 0), reverse=True)
    h = rec = w = 0
    width = None
    lowest = math.inf  # min over i <= w of x_i + i - 1; w is the last rank where it is >= rank
    for i, c in enumerate(x, 1):
        if c >= i:
            h = i
        if i * c > rec:
            rec, width = i * c, i
        lowest = min(lowest, c + i - 1)
        if lowest >= i:
            w = i
    if width is None:
        classification = "empty"
    else:
        height = x[width - 1]
        classification = "influential" if height > width else "prolific" if height < width else "balanced"
    return Expected(rid, len(x), sum(x), h, rec, w, width, classification)


def pareto_counts(rng: random.Random) -> list[int]:
    # Pareto(1.2) shifted to start at 0; about half the papers are uncited.
    return [min(int(rng.paretovariate(1.2)) - 1, 70_000) for _ in range(rng.randint(0, 80))]


def exponential_counts(rng: random.Random) -> list[int]:
    return [int(rng.expovariate(1 / 25)) for _ in range(rng.randint(100, 400))]


def write_dataset(path: Path, seed: int, researchers: int, counts_of, fmt: str) -> list[Expected]:
    """Stream a dataset to disk and return the oracle row of each researcher."""
    rng = random.Random(seed)
    expected = []
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        if fmt == "csv":
            writer.writerow(["id", "citations"])
        for i in range(researchers):
            rid = researcher_id(rng, i)
            counts = counts_of(rng)
            if fmt == "csv":
                writer.writerow([rid, *counts])
            else:
                f.write(json.dumps({"id": rid, "citations": counts}) + "\n")
            expected.append(oracle(rid, counts))
    return expected


# ---------------------------------------------------------------------------
# reading report outputs back
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ["id", "n", "citations", "max", "h", "g", "w", "euclidean", "rec", "chi", "rec_i", "rec_p", "rect_width"]


def parse_rows(text: str, fmt: str) -> tuple[list[str] | None, list[dict | None]]:
    """Header (None for jsonl) and one dict per output row; None marks a row
    whose field count disagrees with the header or that does not parse."""
    if fmt == "jsonl":
        rows: list[dict | None] = []
        for line in text.splitlines():
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                obj = None
            rows.append(obj if isinstance(obj, dict) else None)
        return None, rows
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
        if not lines:
            return [], []
        header = lines[0]
        return header, [dict(zip(header, r)) if len(r) == len(header) else None for r in lines[1:]]
    # table: cells are padded to the column width and joined by two spaces,
    # so every column starts where its header name starts.
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split()
    starts, pos = [], 0
    for name in header:
        pos = lines[0].index(name, pos)
        starts.append(pos)
        pos += len(name)
    bounds = list(zip(starts, starts[1:] + [None]))
    rows = []
    for line in lines[1:]:
        cells = [line[a:b].strip() for a, b in bounds]
        rows.append(dict(zip(header, cells)) if all(cells) else None)
    return header, rows


def _render(value, fmt: str):
    """An oracle value as the output format writes it."""
    if fmt == "jsonl":
        return round(value, 4) if isinstance(value, float) else value
    if isinstance(value, float):
        return f"{value:.4f}"
    return "-" if value is None else str(value)


def check_rows(label: str, fmt: str, columns: list[str], expected: list[dict], code: int, text: str) -> Tally:
    """Compare every output row with its oracle row, field by field."""
    tally = Tally(attempted=len(expected))
    if code != 0:
        tally.problems.append(f"{label}: exit code {code}, expected 0")
    header, rows = parse_rows(text, fmt)
    if header is not None and header != columns:
        tally.problems.append(f"{label}: header {header} differs from {columns}")
    for i, want in enumerate(expected):
        got = rows[i] if i < len(rows) else None
        where = f"{label} row {i + 1}"
        if got is None:
            tally.fail(where, "missing, unparsable or wrong field count")
            continue
        if fmt == "jsonl" and sorted(got) != sorted(columns):
            tally.fail(where, f"keys {sorted(got)}")
            continue
        wrong = [k for k, v in want.items() if got.get(k) != _render(v, fmt)]
        if wrong:
            tally.fail(where, "; ".join(f"{k}={got.get(k)!r} want {_render(want[k], fmt)!r}" for k in wrong))
    for i in range(len(expected), len(rows)):
        tally.attempted += 1
        tally.fail(f"{label} row {i + 1}", "unexpected extra row")
    return tally


def compute_check(fmt: str, expected: list[Expected], show_maximizers: bool):
    columns = REPORT_COLUMNS + (["maximizers"] if show_maximizers else []) + ["classification"]
    if fmt == "jsonl":
        columns = columns + ["vector"]
    rows = [{"id": e.id, "n": e.n, "citations": e.citations, "h": e.h, "rec": e.rec} for e in expected]
    return lambda label, code, text: check_rows(label, fmt, columns, rows, code, text)


def rank_check(fmt: str, expected: list[Expected], by: str):
    value_of = {"chi": lambda e: math.sqrt(e.rec), "w": lambda e: e.w}[by]
    keyed = sorted(((value_of(e), e.id) for e in expected), key=lambda kv: (-kv[0], kv[1]))
    rows, rank, previous = [], 0, None
    for position, (value, rid) in enumerate(keyed, 1):
        if value != previous:
            rank, previous = position, value
        rows.append({"rank": rank, "id": rid, by: value})
    return lambda label, code, text: check_rows(label, fmt, ["rank", "id", by], rows, code, text)


def classify_jsonl_check(expected: list[Expected]):
    columns = ["id", "rec", "rect_width", "classification"]
    rows = [{"id": e.id, "rec": e.rec, "rect_width": e.rect_width, "classification": e.classification} for e in expected]
    summary = {c: 0 for c in ("influential", "prolific", "balanced", "empty")}
    for e in expected:
        summary[e.classification] += 1

    def check(label: str, code: int, text: str) -> Tally:
        body, _, last = text.rstrip("\n").rpartition("\n")
        tally = check_rows(label, "jsonl", columns, rows, code, body)
        try:
            tail = json.loads(last)
        except json.JSONDecodeError:
            tail = None
        if tail != {"summary": summary, "total": len(expected)}:
            tally.problems.append(f"{label}: summary line {last!r} differs from {summary}")
        return tally

    return check


# ---------------------------------------------------------------------------
# axiom scans
# ---------------------------------------------------------------------------


def replays(cell: dict, modules, registry: dict) -> bool:
    """True when a violated cell's witness still exhibits the violation."""
    ax, core = modules["axioms"], modules["core"]
    ce = cell["counterexample"]
    if cell["axiom"] == "CHI_STEP_BOUND":
        x = tuple(ce["x"])
        return core.chi_index(core.add_citation_at(x, ce["position"])) > core.chi_index(x) + 1
    fields = {k: cell[k] for k in ("index", "axiom", "n_max", "c_max", "status", "counterexample", "exhaustive")}
    return ax.replay_counterexample(ax.AxiomVerdict(**fields), registry[cell["index"]])


def check_axioms(label: str, code: int, text: str, modules, reference: dict | None) -> Tally:
    """Check a ``recindex axioms --format jsonl`` output.

    Every cell of every registry index appears once in order, every
    violated witness replays, and the exit code agrees with the mismatch
    line.  With a reference (exhaustive scans), every cell, the mismatch
    line and the exit code must equal the recorded ones.
    """
    ax = modules["axioms"]
    registry = {index.name: index for index in ax.counterexample_registry()}
    order = [(name, axiom.value) for name in registry for axiom in ax.AxiomId] + [("chi", "CHI_STEP_BOUND")]
    tally = Tally(attempted=len(order))
    try:
        lines = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        lines = []
    if len(lines) != len(order) + 1:
        tally.problems.append(f"{label}: {len(lines)} lines, expected {len(order) + 1}")
        for where in order:
            tally.fail(f"{label} {where}", "missing")
        return tally
    *cells, tail = lines
    mismatches = tail.get("mismatches") if isinstance(tail, dict) else None
    if not isinstance(mismatches, list):
        tally.problems.append(f"{label}: last line is not the mismatch list")
    elif code != (2 if mismatches else 0):
        tally.problems.append(f"{label}: exit code {code} with {len(mismatches)} mismatches")
    if reference is not None:
        if code != reference["exit_code"]:
            tally.problems.append(f"{label}: exit code {code}, reference {reference['exit_code']}")
        if tail != reference["lines"][-1]:
            tally.problems.append(f"{label}: mismatch line differs from the reference")
    for i, ((name, axiom), cell) in enumerate(zip(order, cells)):
        where = f"{label} {name}/{axiom}"
        if not isinstance(cell, dict):
            tally.fail(where, f"not an object: {cell!r}")
        elif (cell.get("index"), cell.get("axiom")) != (name, axiom):
            tally.fail(where, f"cell out of order: {cell.get('index')}/{cell.get('axiom')}")
        elif reference is not None and cell != reference["lines"][i]:
            tally.fail(where, f"{cell.get('status')} differs from the reference {reference['lines'][i].get('status')}")
        elif cell.get("status") == "refused":
            if reference is None and axiom != "UI":
                tally.fail(where, "refused; only UI needs an exhaustive domain")
        elif cell.get("status") not in ("satisfied-on-domain", "violated"):
            tally.fail(where, f"status {cell.get('status')!r}")
        elif cell["status"] == "violated" and not replays(cell, modules, registry):
            tally.fail(where, f"witness {cell.get('counterexample')} does not replay")
    return tally


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int  # researchers for reports, domain bound or sample size for scans
    prepare: Callable  # (workload, work_dir, seed, recindex modules) -> Prepared
    moves: dict  # layer -> the end-to-end metric its per-layer metrics should move here
    pass_s: float  # seconds of one timed pass, calibration included, on a slow spell of a 2-core shared host

    def passes(self, seconds: float) -> int:
        """Timed passes in a run of ``seconds``: a function of the arguments
        only, so that the operations a seed attempts never depend on the host."""
        return max(3, round(seconds / self.pass_s))


def prepare_pareto(w: Workload, work_dir: Path, seed: int, modules) -> Prepared:
    path = work_dir / "researchers.csv"
    expected = write_dataset(path, seed, w.size, pareto_counts, "csv")
    commands = [
        dataset_command(path, ["compute", "--format", "csv"], compute_check("csv", expected, False)),
        dataset_command(path, ["rank", "--by", "chi"], rank_check("table", expected, "chi")),
        dataset_command(path, ["classify", "--format", "jsonl"], classify_jsonl_check(expected)),
    ]
    rows = len(commands) * len(expected)
    return Prepared(commands, rows, rows, {"researchers": len(expected), "format": "csv"})


def prepare_long(w: Workload, work_dir: Path, seed: int, modules) -> Prepared:
    path = work_dir / "researchers.jsonl"
    expected = write_dataset(path, seed, w.size, exponential_counts, "jsonl")
    commands = [
        dataset_command(path, ["compute", "--format", "jsonl", "--ceil-chi"], compute_check("jsonl", expected, False)),
        dataset_command(
            path, ["compute", "--format", "table", "--show-maximizers"], compute_check("table", expected, True)
        ),
        dataset_command(path, ["rank", "--by", "w", "--format", "csv"], rank_check("csv", expected, "w")),
    ]
    rows = len(commands) * len(expected)
    return Prepared(commands, rows, rows, {"researchers": len(expected), "format": "jsonl"})


def axioms_command(argv: list[str], modules, reference: dict | None) -> tuple[Command, int, int]:
    """The scan command, its verdict cells and the number of registry indices."""
    ax = modules["axioms"]
    indices = len(ax.counterexample_registry())

    def check(label: str, code: int, text: str) -> Tally:
        return check_axioms(label, code, text, modules, reference)

    return Command(argv, " ".join(argv), check), indices * len(ax.AxiomId) + 1, indices


def count_vectors(n_max: int, c_max: int) -> int:
    """Vectors with at most n_max entries in 1..c_max, descending, plus ()."""
    return math.comb(n_max + c_max, n_max)


def reference_path(bound: int) -> Path:
    return HERE / f"axioms_reference_{bound}x{bound}.json"


def prepare_exhaustive(w: Workload, work_dir: Path, seed: int, modules) -> Prepared:
    # The domain is closed and fixed; the seed does not change this input.
    n = str(w.size)
    path = reference_path(w.size)
    reference = json.loads(path.read_text()) if path.exists() else None
    argv = ["axioms", "--n-max", n, "--c-max", n, "--format", "jsonl"]
    command, cells, _ = axioms_command(argv, modules, reference)
    vectors = count_vectors(w.size, w.size)
    inputs = {"domain": f"{n}x{n}", "vectors": vectors, "reference": reference is not None}
    return Prepared([command], cells, vectors * cells, inputs)


SAMPLED_BOUND = 40


def prepare_sampled(w: Workload, work_dir: Path, seed: int, modules) -> Prepared:
    spec = modules["enumeration"].DomainSpec(SAMPLED_BOUND, SAMPLED_BOUND, seed=seed)
    vectors = len(modules["enumeration"].sample_vectors(spec, w.size))
    b = str(SAMPLED_BOUND)
    argv = ["axioms", "--n-max", b, "--c-max", b, "--sample-size", str(w.size), "--seed", str(seed), "--format", "jsonl"]
    command, cells, indices = axioms_command(argv, modules, None)
    inputs = {"domain": f"{b}x{b}", "sample_size": w.size, "vectors": vectors}
    # A sampled domain is not closed, so each index's UI cell is refused.
    return Prepared([command], cells, vectors * (cells - indices), inputs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-pareto-csv",
            "many short CSV rows with Pareto counts, so per-row parse and emit cost weighs as much as the index arithmetic",
            2500,
            prepare_pareto,
            {
                "ingest": "wall_s and records_per_s move most here (parse_s, build_report_s, report_row_s, rank_rows_s)",
                "core": "wall_s, second to report-long-jsonl",
                "cli": "records_per_s (emit_s, output_bytes)",
                "enumeration": "not exercised",
                "axioms": "not exercised",
                "sequences": "not exercised",
            },
            pass_s=0.85,
        ),
        Workload(
            "report-long-jsonl",
            "few long JSONL rows with exponential counts, so conjugate and the w-index loop in core dominate",
            250,
            prepare_long,
            {
                "ingest": "small share; parse_s should move wall_s little",
                "core": "wall_s moves most here (conjugate_s, aux_indices_s, rec_variants_s)",
                "cli": "small share",
                "enumeration": "not exercised",
                "axioms": "not exercised",
                "sequences": "not exercised",
            },
            pass_s=0.62,
        ),
        Workload(
            "axioms-exhaustive",
            "full axiom matrix over a closed 5x5 domain: 105 re-enumerations, edge, pair and reachability scans",
            5,
            prepare_exhaustive,
            {
                "ingest": "no change predicted",
                "core": "dominates_calls (M/SM pair fallback, UM) moves wall_s",
                "cli": "small share",
                "enumeration": "wall_s moves (enumerate_s, 105 enumerate_calls per pass)",
                "axioms": "wall_s and vectors_per_s move (check.<ID>_s, index_evals)",
                "sequences": "UI witness search; small share, no wall_s change predicted",
            },
            pass_s=0.48,
        ),
        Workload(
            "axioms-sampled",
            "seeded 40x40 sample where nothing is enumerated, UI is refused and the UM uniform x sample scan dominates",
            20,
            prepare_sampled,
            {
                "ingest": "no change predicted",
                "core": "dominates_calls moves wall_s most here",
                "cli": "small share",
                "enumeration": "sample_s only; enumerate_s predicted unchanged (0 calls)",
                "axioms": "check.UM_s and check.M_s move wall_s and vectors_per_s most here",
                "sequences": "not exercised",
            },
            pass_s=0.93,
        ),
    )
}
