"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 the axiom scan disagreed
with the documented verdict pattern, 3 a scan was refused because its
domain is over the budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import operator
import os
import sys
from itertools import chain
from typing import Iterable, Sequence

from .core import Vector, citation_count, conjugate, make_vector, rec
from .enumeration import DEFAULT_SAMPLE_SIZE, DomainBudgetError, DomainSpec, count_vectors
from .ingest import (
    CLASSIFICATIONS,
    RANKABLE_COLUMNS,
    build_report,
    ceil_chi,
    classify_row,
    parse_dataset,
    rank_index,
    rank_rows,
    short_repr,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PATTERN_MISMATCH = 2
EXIT_BUDGET = 3

#: Most vector entries one command builds: the conjugate has x_1 of them.
ENTRY_LIMIT = 10**7
#: A sequence is charged (citation_count(x) + 1) * (len(x) + 6): its steps, each
#: of up to len(x) entries and about 6 more for its tuple, its rec and their JSON.
SEQUENCE_LIMIT = 105 * 10**5

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved here, so remap.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _render_vector(x: Vector) -> str:
    return "<" + ",".join(str(c) for c in x) + ">"


def _parse_vector_literal(text: str) -> Vector:
    text = text.strip()
    if not text or text in ("<>", "-"):
        return ()
    text = text.strip("<>")
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"invalid vector literal {short_repr(text)}; expected e.g. 6,4,3,1") from None
    return make_vector(values)


def _table(out, headers: list[str], rows: list[tuple[str, ...]]) -> None:
    """Write the headers and rows, each column padded to its widest cell, one line as it is rendered."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    template = "  ".join(f"{{:<{w}}}" for w in widths)
    out.writelines(template.format(*row).rstrip() + "\n" for row in chain([headers], rows))


# ---------------------------------------------------------------------------
# row output
# ---------------------------------------------------------------------------


def _cells(row: Sequence) -> tuple[str, ...]:
    """A table or CSV row's cells: floats with 4 decimals, ``-`` for missing, ``|`` between tuple items."""
    cells = []
    for v in row:
        kind = type(v)
        cells.append(
            f"{v:.4f}" if kind is float else "-" if v is None else "|".join(map(str, v)) if kind is tuple else str(v)
        )
    return tuple(cells)


def _emit(out, fmt: str, columns: list[str], rows: Iterable[Sequence]) -> None:
    """Write rows of values in ``columns`` order, every float with 4 decimals.

    jsonl writes each row as ``{column: value}`` with its floats rounded;
    table and csv cells are rendered by ``_cells``.
    """
    if fmt == "jsonl":
        encode = json.JSONEncoder(check_circular=False).encode  # no row holds itself
        out.writelines(
            encode({c: round(v, 4) if type(v) is float else v for c, v in zip(columns, row)}) + "\n" for row in rows
        )
        return
    cells = map(_cells, rows)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
    else:
        _table(out, columns, list(cells))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compute(args, out) -> int:
    report = build_report(parse_dataset(args.dataset, args.input_format))
    counts = ["n", "citations", "max", "h", "g", "w"]
    tail = ["rec_i", "rec_p", "rect_width"] + ["maximizers"] * args.show_maximizers + ["classification"]
    # JSONL keeps its recorded key order: the vector, then rec before euclidean.
    head = ["vector", *counts, "rec", "euclidean"] if args.format == "jsonl" else [*counts, "euclidean", "rec"]
    columns = ["id", *head, "chi", *tail]
    if args.ceil_chi:
        report = (r._replace(chi=ceil_chi(r.rec)) for r in report)
    _emit(out, args.format, columns, map(operator.attrgetter(*columns), report))
    return EXIT_OK


def _cmd_rank(args, out) -> int:
    rank_index(args.by)  # an unknown column is refused before the dataset is read
    # Handed over as an iterator, so the parsed records are dropped once ranked.
    records = iter(parse_dataset(args.dataset, args.input_format))
    _emit(out, args.format, ["rank", "id", args.by], rank_rows(records, args.by, ascending=args.ascending))
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    rows = map(classify_row, parse_dataset(args.dataset, args.input_format))
    summary = dict.fromkeys(CLASSIFICATIONS, 0)

    def counted(row: tuple) -> tuple:
        summary[row[-1]] += 1
        return row

    _emit(out, args.format, ["id", "rec", "rect_width", "classification"], map(counted, rows))
    total = sum(summary.values())
    if args.format == "table":
        shares = ", ".join(
            f"{name} {count} ({100.0 * count / total if total else 0.0:.1f}%)"
            for name, count in summary.items()
        )
        print(f"classification summary: {shares}", file=out)
    elif args.format == "csv":
        counts = " ".join(f"{k}={v}" for k, v in summary.items())
        print(f"# summary {counts} total={total}", file=out)
    else:
        _emit(out, "jsonl", ["summary", "total"], [(summary, total)])
    return EXIT_OK


def _cmd_conjugate(args, out) -> int:
    x = _parse_vector_literal(args.vector)
    if x and x[0] > ENTRY_LIMIT:
        raise ValueError(f"x_1 = {x[0]} exceeds the limit of {ENTRY_LIMIT} entries for a conjugate")
    p = conjugate(x)
    if args.format == "jsonl":
        _emit(out, "jsonl", ["vector", "conjugate"], [(x, p)])
    else:
        print(",".join(str(c) for c in p), file=out)
    return EXIT_OK


def _cmd_sequence(args, out) -> int:
    from . import sequences as seq

    target = _parse_vector_literal(args.vector)
    if (citation_count(target) + 1) * (len(target) + 6) > SEQUENCE_LIMIT:
        raise ValueError(f"a sequence to this target exceeds the limit of {SEQUENCE_LIMIT} entries")
    steps = seq.build_rec_incremental(target).steps
    rec_values = [rec(step) for step in steps]
    if args.format == "jsonl":
        _emit(out, "jsonl", ["target", "steps", "rec"], [(target, steps, rec_values)])
    else:
        rows = [(i, _render_vector(step), r) for i, (step, r) in enumerate(zip(steps, rec_values))]
        _emit(out, "table", ["step", "vector", "rec"], rows)
    return EXIT_OK


def _cmd_axioms(args, out) -> int:
    # Imported on first use, like sequences, so the report commands start without the scanner.
    from . import axioms as ax

    # How each cell status reads in the text matrices.
    status_words = {ax.SATISFIED: "pass", ax.VIOLATED: "FAIL", "refused": "n/a"}

    spec = DomainSpec(args.n_max, args.c_max, seed=args.seed)
    domain = ax.build_domain(spec, args.sample_size)
    # One call for the registry, so each image is built once for every index;
    # None marks a check that needs an exhaustive domain.
    full = ax.check_registry(ax.counterexample_registry(), domain)
    # Each cell's JSONL row, the dict that AxiomVerdict(**row) reads back; both formats read these.
    cells = {
        (name, axiom): {"index": name, "axiom": axiom, "status": "refused", "reason": "needs an exhaustive domain"}
        if verdict is None
        else verdict._asdict()
        for name, row in full.items()
        for axiom, verdict in row.items()
    }
    mismatches = [
        {"index": name, "axiom": axiom, "claimed": want, "computed": v.status, "counterexample": v.counterexample}
        for name, axiom, want, v in ax.pattern_mismatches(full)
    ]
    bound = ax.chi_increment_bound(domain)._asdict()
    code = EXIT_PATTERN_MISMATCH if mismatches else EXIT_OK

    if args.format == "jsonl":
        # Written as built: their keys differ by row, and their witnesses are nested.
        for record in [*cells.values(), bound, {"mismatches": mismatches}]:
            print(json.dumps(record), file=out)
        return code

    # Counted only now: build_domain has refused a box whose count would take long to compute.
    size = count_vectors(spec.n_max, spec.c_max)
    scanned = f"exhaustive, {size}" if domain.exhaustive else f"sampled, non-exhaustive, {len(domain.vectors)} of {size}"
    print(f"domain: n_max={spec.n_max} c_max={spec.c_max} ({scanned} vectors)", file=out)
    for title, axioms in ("independence matrix", ax.INDEPENDENCE_AXIOMS), ("full axiom matrix", ax.AxiomId):
        columns = [a.value for a in axioms]
        rows = ((name, *(status_words[cells[name, a]["status"]] for a in columns)) for name in full)
        print(f"\n{title}:", file=out)
        _emit(out, "table", ["index", *columns], rows)
    print(f"\nsingle-citation chi bound (chi never grows by more than 1): {status_words[bound['status']]}", file=out)
    print("", file=out)
    if not mismatches:
        print("independence matrix matches the documented pattern.", file=out)
    else:
        print(f"documented-pattern mismatches: {len(mismatches)}", file=out)
        for m in mismatches:
            # Only M, UC and UE cells can mismatch, and each of their witnesses names x.
            if m["computed"] == ax.VIOLATED:
                detail = f"claimed pass, computed FAIL (counterexample x={_render_vector(m['counterexample']['x'])})"
            else:
                detail = "claimed FAIL, not exposed on this domain (domain too small?)"
            print(f"  {m['index']} / {m['axiom']}: {detail}", file=out)
    return code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_dataset_options(p: _Parser) -> None:
    p.add_argument("dataset", help="path to a CSV or JSONL dataset")
    p.add_argument(
        "--input-format",
        choices=("auto", "csv", "jsonl"),
        default="auto",
        help="dataset format (default: decide from the file)",
    )


def _add_format_option(p: _Parser, choices=("table", "csv", "jsonl")) -> None:
    p.add_argument("--format", choices=choices, default="table", help="output format")


@functools.cache  # built on the first main() call, not at import, then reused
def build_parser() -> _Parser:
    parser = _Parser(prog="recindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compute", help="per-researcher index report")
    _add_dataset_options(p)
    _add_format_option(p)
    p.add_argument("--ceil-chi", action="store_true", help="report the integer ceiling of chi")
    p.add_argument(
        "--show-maximizers",
        action="store_true",
        help="include every rectangle width attaining rec",
    )
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("rank", help="rank researchers by one index")
    _add_dataset_options(p)
    _add_format_option(p)
    p.add_argument("--by", required=True, help=f"index column: {', '.join(RANKABLE_COLUMNS)}")
    p.add_argument("--ascending", action="store_true", help="rank lowest first")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("classify", help="influential / prolific / balanced split")
    _add_dataset_options(p)
    _add_format_option(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("axioms", help="scan axiom checkers over a finite domain")
    _add_format_option(p, choices=("table", "jsonl"))
    p.add_argument("--n-max", type=int, default=6, help="max publications (default 6)")
    p.add_argument("--c-max", type=int, default=6, help="max citations per publication (default 6)")
    p.add_argument("--seed", type=int, default=None, help="sample over-budget domains with this seed")
    p.add_argument("--sample-size", type=int, default=DEFAULT_SAMPLE_SIZE, help="vectors drawn in sampled mode")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("sequence", help="rec-incremental constructive sequence for a vector")
    p.add_argument("vector", help="vector literal, e.g. 6,4,3,1")
    _add_format_option(p, choices=("table", "jsonl"))
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("conjugate", help="conjugate of a vector")
    p.add_argument("vector", help="vector literal, e.g. 6,4,3,1")
    _add_format_option(p, choices=("table", "jsonl"))
    p.set_defaults(func=_cmd_conjugate)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainBudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # flush at interpreter exit cannot fail again (the idiom of the
        # ``signal`` module docs), and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_VALIDATION
    sys.exit(code)
