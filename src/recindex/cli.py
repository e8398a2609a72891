"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 the axiom scan disagreed
with the documented verdict pattern, 3 a scan was refused because the
domain exceeds the exhaustive budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from . import axioms as ax
from . import sequences as seq
from .core import Vector, chi_index, conjugate, make_vector, rec
from .enumeration import DomainBudgetError, DomainSpec, count_vectors
from .ingest import (
    RANKABLE_COLUMNS,
    DatasetError,
    Report,
    build_report,
    ceil_chi,
    parse_dataset,
    rank_rows,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PATTERN_MISMATCH = 2
EXIT_BUDGET = 3

#: The conjugate has x_1 entries; ``conjugate`` refuses vectors with more.
CONJUGATE_LIMIT = 10**7

_FLOAT_COLUMNS = ("euclidean", "chi")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved here, so remap.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(self._validation_exit(message))

    def _validation_exit(self, message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION


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
        raise ValueError(f"invalid vector literal {text!r}; expected e.g. 6,4,3,1") from None
    return make_vector(values)


def _write_csv(out, header: list[str], rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _report_columns(args) -> list[str]:
    columns = ["id", "n", "citations", "max", "h", "g", "w", "euclidean", "rec", "chi"]
    columns += ["rec_i", "rec_p", "rect_width"]
    if args.show_maximizers:
        columns.append("maximizers")
    columns.append("classification")
    return columns


def _cell(row, column: str, args) -> str:
    if column == "chi" and args.ceil_chi:
        return str(ceil_chi(row.rec))
    value = getattr(row, column)
    if column in _FLOAT_COLUMNS:
        return f"{value:.4f}"
    if column == "rect_width":
        return "-" if value is None else str(value)
    if column == "maximizers":
        return "|".join(str(m) for m in value)
    return str(value)


def _row_json(row, args) -> dict:
    out: dict = {"id": row.id, "vector": list(row.vector)}
    for column in ("n", "citations", "max", "h", "g", "w", "rec"):
        out[column] = getattr(row, column)
    out["euclidean"] = round(row.euclidean, 4)
    out["chi"] = ceil_chi(row.rec) if args.ceil_chi else round(row.chi, 4)
    out["rec_i"] = row.rec_i
    out["rec_p"] = row.rec_p
    out["rect_width"] = row.rect_width
    if args.show_maximizers:
        out["maximizers"] = list(row.maximizers)
    out["classification"] = row.classification
    return out


def _emit_report(report: Report, args, out) -> None:
    columns = _report_columns(args)
    if args.format == "table":
        print(_table(columns, [[_cell(r, c, args) for c in columns] for r in report.rows]), file=out)
    elif args.format == "csv":
        _write_csv(out, columns, ([_cell(r, c, args) for c in columns] for r in report.rows))
    else:
        for r in report.rows:
            print(json.dumps(_row_json(r, args)), file=out)


def _summary_text(report: Report) -> str:
    total = len(report.rows)
    parts = []
    for name, count in report.summary.items():
        share = 100.0 * count / total if total else 0.0
        parts.append(f"{name} {count} ({share:.1f}%)")
    return "classification summary: " + ", ".join(parts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compute(args, out) -> int:
    report = build_report(parse_dataset(args.dataset, args.input_format))
    _emit_report(report, args, out)
    return EXIT_OK


def _cmd_rank(args, out) -> int:
    report = build_report(parse_dataset(args.dataset, args.input_format))
    ranked = rank_rows(report, args.by, ascending=args.ascending)
    float_valued = args.by in _FLOAT_COLUMNS

    def fmt(value) -> str:
        return f"{value:.4f}" if float_valued else str(value)

    if args.format == "table":
        rows = [[str(rank), name, fmt(value)] for rank, name, value in ranked]
        print(_table(["rank", "id", args.by], rows), file=out)
    elif args.format == "csv":
        _write_csv(out, ["rank", "id", args.by], ([rank, name, fmt(value)] for rank, name, value in ranked))
    else:
        for rank, name, value in ranked:
            value_out = round(value, 4) if float_valued else value
            print(json.dumps({"rank": rank, "id": name, args.by: value_out}), file=out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    report = build_report(parse_dataset(args.dataset, args.input_format))
    total = len(report.rows)
    if args.format == "table":
        rows = [
            [r.id, str(r.rec), "-" if r.rect_width is None else str(r.rect_width), r.classification]
            for r in report.rows
        ]
        print(_table(["id", "rec", "rect_width", "classification"], rows), file=out)
        print(_summary_text(report), file=out)
    elif args.format == "csv":
        rows = ([r.id, r.rec, r.rect_width, r.classification] for r in report.rows)
        _write_csv(out, ["id", "rec", "rect_width", "classification"], rows)
        counts = " ".join(f"{k}={v}" for k, v in report.summary.items())
        print(f"# summary {counts} total={total}", file=out)
    else:
        for r in report.rows:
            print(
                json.dumps(
                    {
                        "id": r.id,
                        "rec": r.rec,
                        "rect_width": r.rect_width,
                        "classification": r.classification,
                    }
                ),
                file=out,
            )
        print(json.dumps({"summary": report.summary, "total": total}), file=out)
    return EXIT_OK


def _cmd_conjugate(args, out) -> int:
    x = _parse_vector_literal(args.vector)
    if x and x[0] > CONJUGATE_LIMIT:
        raise ValueError(f"x_1 = {x[0]} exceeds the limit of {CONJUGATE_LIMIT} entries for a conjugate")
    p = conjugate(x)
    if args.format == "jsonl":
        print(json.dumps({"vector": list(x), "conjugate": list(p)}), file=out)
    else:
        print(",".join(str(c) for c in p), file=out)
    return EXIT_OK


def _cmd_sequence(args, out) -> int:
    target = _parse_vector_literal(args.vector)
    built = seq.build_rec_incremental(target)
    rec_values = [rec(step) for step in built.steps]
    if args.format == "jsonl":
        print(
            json.dumps(
                {
                    "target": list(target),
                    "steps": [list(step) for step in built.steps],
                    "rec": rec_values,
                }
            ),
            file=out,
        )
    else:
        rows = [
            [str(i), _render_vector(step), str(r)]
            for i, (step, r) in enumerate(zip(built.steps, rec_values))
        ]
        print(_table(["step", "vector", "rec"], rows), file=out)
    return EXIT_OK


def _verdict_cell(verdict: ax.AxiomVerdict) -> str:
    return "pass" if verdict.ok else "FAIL"


def _cmd_axioms(args, out) -> int:
    spec = DomainSpec(args.n_max, args.c_max, seed=args.seed)
    size = count_vectors(spec.n_max, spec.c_max)
    domain = ax.build_domain(spec, args.sample_size)
    registry = ax.counterexample_registry()

    matrix = ax.independence_matrix(domain)
    mismatches = ax.pattern_mismatches(matrix)

    full: dict[str, dict[str, ax.AxiomVerdict | None]] = {}
    for index in registry:
        row: dict[str, ax.AxiomVerdict | None] = {}
        for axiom in ax.AxiomId:
            if axiom.value in matrix[index.name]:
                row[axiom.value] = matrix[index.name][axiom.value]
                continue
            try:
                row[axiom.value] = ax.check_axiom(index, axiom, domain)
            except DomainBudgetError:
                row[axiom.value] = None  # needs an exhaustive domain
        full[index.name] = row
    bound = ax.chi_increment_bound(domain)

    if args.format == "jsonl":
        for name, row in full.items():
            for axiom_id, verdict in row.items():
                if verdict is None:
                    print(
                        json.dumps(
                            {
                                "index": name,
                                "axiom": axiom_id,
                                "status": "refused",
                                "reason": "needs an exhaustive domain",
                            }
                        ),
                        file=out,
                    )
                else:
                    print(json.dumps(verdict.to_json()), file=out)
        print(json.dumps(bound.to_json()), file=out)
        print(
            json.dumps(
                {
                    "mismatches": [
                        {
                            "index": name,
                            "axiom": axiom,
                            "claimed": want,
                            "computed": verdict.status,
                            "counterexample": ax._jsonable(verdict.counterexample),
                        }
                        for name, axiom, want, verdict in mismatches
                    ]
                }
            ),
            file=out,
        )
    else:
        mode = "exhaustive" if domain.exhaustive else "sampled, non-exhaustive"
        print(f"domain: n_max={spec.n_max} c_max={spec.c_max} ({mode}, {size} vectors)", file=out)
        print("", file=out)
        print("independence matrix:", file=out)
        headers = ["index"] + [a.value for a in ax.INDEPENDENCE_AXIOMS]
        rows = [
            [name] + [_verdict_cell(matrix[name][a.value]) for a in ax.INDEPENDENCE_AXIOMS]
            for name in matrix
        ]
        print(_table(headers, rows), file=out)
        print("", file=out)
        print("full axiom matrix:", file=out)
        headers = ["index"] + [a.value for a in ax.AxiomId]
        rows = []
        for name, row in full.items():
            rows.append(
                [name]
                + [("n/a" if row[a.value] is None else _verdict_cell(row[a.value])) for a in ax.AxiomId]
            )
        print(_table(headers, rows), file=out)
        print("", file=out)
        status = "pass" if bound.ok else "FAIL"
        print(f"single-citation chi bound (chi never grows by more than 1): {status}", file=out)
        print("", file=out)
        if not mismatches:
            print("independence matrix matches the documented pattern.", file=out)
        else:
            print(f"documented-pattern mismatches: {len(mismatches)}", file=out)
            for name, axiom, want, verdict in mismatches:
                if verdict.status == ax.VIOLATED:
                    witness = verdict.counterexample or {}
                    where = witness.get("x", witness.get("target"))
                    detail = f"counterexample x={_render_vector(tuple(where))}" if where is not None else "counterexample found"
                    print(
                        f"  {name} / {axiom}: claimed pass, computed FAIL ({detail})",
                        file=out,
                    )
                else:
                    print(
                        f"  {name} / {axiom}: claimed FAIL, not exposed on this domain "
                        f"(domain too small?)",
                        file=out,
                    )
    return EXIT_PATTERN_MISMATCH if mismatches else EXIT_OK


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
    p.add_argument("--sample-size", type=int, default=500, help="vectors drawn in sampled mode")
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
    except (DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainBudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    sys.exit(main())
