"""Dataset ingestion and per-researcher index reports.

Two input shapes are accepted: CSV rows ``id,c1,c2,...`` (an optional
header line starting ``id,`` in any case is skipped) and JSON lines holding
``{"id": ..., "citations": [...]}`` with a string or integer id.  Both
readers yield ``(line, id, vector)`` from the open file to
``parse_dataset``, which checks ids and sizes once over all rows.
Zero-cited researchers are kept; their report rows are all zeros with
classification ``empty``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

# perfbench/tracing.py wraps rec_index, h_index, aux_indices and rec_variants here by name; only h_index is used.
from .core import (
    BALANCED,
    EMPTY,
    INFLUENTIAL,
    PROLIFIC,
    ReportIndices,
    Vector,
    aux_indices,
    chi_index,
    citation_count,
    classify,
    h_index,
    make_vector,
    max_uniform_dominated,
    rec,
    rec_index,
    rec_variants,
    report_indices,
    w_index,
)

CLASSIFICATIONS = (INFLUENTIAL, PROLIFIC, BALANCED, EMPTY)

#: Report columns that name a numeric index a ranking can sort by: the fields of ``ReportIndices`` up to rec_p.
RANKABLE_COLUMNS = ReportIndices._fields[: ReportIndices._fields.index("rec_p") + 1]


def _report_field(name: str) -> Callable[[Vector], float]:
    position = ReportIndices._fields.index(name)
    return lambda x: report_indices(x)[position]


#: The function of a vector that gives each rankable column, in ``RANKABLE_COLUMNS`` order: core's own
#: function where it has one, else that field of the full ``report_indices`` pass.
RANKABLE_INDICES: dict[str, Callable[[Vector], float]] = {
    **{name: _report_field(name) for name in RANKABLE_COLUMNS},
    "n": len,
    "citations": citation_count,
    "h": h_index,
    "rec": rec,
    "chi": chi_index,
    "w": w_index,
}


class DatasetError(ValueError):
    """A dataset failed validation; the message pinpoints the cause."""


#: The Euclidean index is the float square root of the sum of squared
#: counts, so that sum must not exceed the largest float.
_FLOAT_MAX = int(sys.float_info.max)


class ResearcherRecord(NamedTuple):
    id: str
    vector: Vector


#: A researcher's id and vector, then the fields of ``core.ReportIndices``.
ReportRow = NamedTuple("ReportRow", [("id", str), ("vector", Vector), *ReportIndices.__annotations__.items()])


def short_repr(text: str) -> str:
    """repr of an echoed input, cut to its first 20 characters and its length."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


class _CountCache(dict):
    # int() of each count cell, kept only for cells of at most 4 characters, so memory stays bounded.
    def __missing__(self, cell: str) -> int:
        count = int(cell)
        if len(cell) <= 4:
            self[cell] = count
        return count


def _vector(line_no: int, name: str, counts: list) -> Vector:
    """``make_vector`` of one researcher's counts; its error names the line and the researcher."""
    try:
        return make_vector(counts)
    except ValueError as exc:
        raise DatasetError(f"line {line_no}: researcher {name!r}: {exc}") from None


def _parse_csv_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, Vector]]:
    """(line number, id, vector) of each row but blank ones and a header.  Every
    row must end on its own line, so a quote left open cannot swallow the rows after it."""
    count_of = _CountCache({"": 0}).__getitem__  # an empty padding cell reads 0 and is dropped with the zeros
    reader = csv.reader(lines, strict=True)
    line_no = 0
    maybe_header = True  # only the first non-blank row may be a header
    try:
        for row in reader:
            if reader.line_num != line_no + 1:
                raise csv.Error
            line_no += 1
            if not row or len(row) == 1 and not row[0].strip():
                continue
            name = row[0].strip()
            if maybe_header:
                maybe_header = False
                if name.lower() == "id" and len(row) > 1:
                    continue
            if not name:
                raise DatasetError(f"line {line_no}: empty researcher id")
            del row[0]  # the counts are the rest of the row; dropping the id in place spares a copy
            try:
                # int() ignores surrounding blanks itself; a blank-only cell fails it.
                vector = tuple(sorted(filter(None, map(count_of, row)), reverse=True))
                if vector and vector[-1] < 0:
                    raise ValueError
            except ValueError:  # a blank-only, bad or negative cell: the one per-cell loop
                counts = []
                for cell in filter(None, map(str.strip, row)):  # exports pad short rows with blank cells
                    try:
                        counts.append(count_of(cell))
                    except ValueError:
                        raise DatasetError(
                            f"line {line_no}: invalid citation count {short_repr(cell)} for researcher {name!r}"
                        ) from None
                # make_vector names a negative count's position among the non-blank cells
                vector = _vector(line_no, name, counts)
            yield line_no, name, vector
    except csv.Error as exc:
        # A row that ran past its own line or to the end of the file left a quote open there, whatever came after.
        if reader.line_num != line_no + 1 or str(exc) == "unexpected end of data":
            exc = "quote left open at the end of the line"
        raise DatasetError(f"line {line_no + 1}: malformed CSV row: {exc}") from None


def _parse_jsonl_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, Vector]]:
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.removesuffix("\n"))  # a string left open must not run into the line end
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise DatasetError(f"line {line_no}: invalid JSON: {getattr(exc, 'msg', exc)}") from None
        except RecursionError:
            raise DatasetError(f"line {line_no}: invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict) or "id" not in obj or "citations" not in obj:
            raise DatasetError(f'line {line_no}: expected an object with "id" and "citations"')
        name = obj["id"]
        if isinstance(name, bool) or not isinstance(name, (str, int)):
            raise DatasetError(f"line {line_no}: researcher id must be a string or an integer")
        name = str(name).strip()
        if not name:
            raise DatasetError(f"line {line_no}: empty researcher id")
        counts = obj["citations"]
        if not isinstance(counts, list):
            raise DatasetError(f"line {line_no}: citations of researcher {name!r} must be a list")
        yield line_no, name, _vector(line_no, name, counts)


def _check_rows(rows: Iterable[tuple[int, str, Vector]]) -> None:
    """Raise on the first duplicate id or float overflow in ``rows``, in line order."""
    seen: dict[str, int] = {}
    for line_no, name, vector in rows:
        first = seen.setdefault(name, line_no)
        if first != line_no:
            raise DatasetError(f"duplicate researcher id {name!r} on lines {first} and {line_no}")
        # n * x_1^2 bounds the sum in O(1); the exact sum runs only past it.
        if vector and len(vector) * vector[0] ** 2 > _FLOAT_MAX and sum(c * c for c in vector) > _FLOAT_MAX:
            raise DatasetError(
                f"line {line_no}: researcher {name!r}: citation counts too large; "
                "the sum of their squares exceeds the largest float"
            )


def _read_records(file: Iterator[str], path: str | os.PathLike, fmt: str) -> list[ResearcherRecord]:
    """The records of the lines of ``file``, the open dataset at ``path``."""
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    head = [next(file, "").removeprefix("\ufeff")]
    if fmt == "auto":
        suffix = os.path.splitext(path)[1].lower()
        if suffix == ".csv":
            fmt = "csv"
        elif suffix in (".jsonl", ".ndjson", ".json"):
            fmt = "jsonl"
        else:
            while not head[-1].strip() and (line := next(file, None)) is not None:
                head.append(line)
            fmt = "jsonl" if head[-1].lstrip().startswith("{") else "csv"
    readers = {"csv": _parse_csv_lines, "jsonl": _parse_jsonl_lines}
    if fmt not in readers:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    rows: list[tuple[int, str, Vector]] = []
    try:
        # Text mode ends each line at "\n", "\r\n" or "\r" alone; str.splitlines() would also break at U+2028.
        rows.extend(readers[fmt](chain(head, file)))
    except DatasetError:
        _check_rows(rows)  # extend kept the rows before the bad one, and an error on an earlier line wins
        raise
    # One pass over all rows for each check; the per-row loop runs only to name the line of an error.
    vectors = list(map(itemgetter(2), rows))
    top = max(vectors, default=())
    if len(set(map(itemgetter(1), rows))) < len(rows) or top and max(map(len, vectors)) * top[0] ** 2 > _FLOAT_MAX:
        _check_rows(rows)
    return list(map(ResearcherRecord._make, map(itemgetter(1, 2), rows)))


def parse_dataset(path: str | os.PathLike, fmt: str = "auto") -> list[ResearcherRecord]:
    """Read a researcher dataset from disk, one line at a time.

    ``fmt`` is ``csv``, ``jsonl`` or ``auto`` (decide by extension, then
    by whether the first non-blank character is an opening brace).
    """
    try:
        with open(path, encoding="utf-8") as file:
            try:
                return _read_records(file, path, fmt)
            except DatasetError:
                while file.read(1 << 16):  # a bad byte anywhere in the file wins over a bad row
                    pass
                raise
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # The text layer decodes a chunk at a time; decoding the whole file gives the offset in the file.
        with open(path, "rb") as file:
            try:
                file.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
        raise DatasetError(f"cannot read dataset {path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


# ---------------------------------------------------------------------------
# report building
# ---------------------------------------------------------------------------


def report_row(record: ResearcherRecord) -> ReportRow:
    """The report row of one researcher: its id, its vector and ``report_indices`` of the vector."""
    # _make of one concatenated tuple is faster than 16 positional arguments.
    return ReportRow._make((record.id, record.vector) + report_indices(record.vector))


def build_report(records: Iterable[ResearcherRecord]) -> Iterator[ReportRow]:
    """The report rows of ``records``, built one at a time in record order."""
    return map(report_row, records)


def classify_row(record: ResearcherRecord) -> tuple[str, int, int | None, str]:
    """``(id, rec, rect_width, classification)`` of one researcher, as in its report row: rec,
    then the narrowest rectangle of that area and its shape, and no other index."""
    u = max_uniform_dominated(record.vector)
    if not u:
        return record.id, 0, None, EMPTY
    width, height = len(u), u[0]
    return record.id, width * height, width, classify(width, height)


def ceil_chi(rec_value: int) -> int:
    """Exact integer ceiling of sqrt(rec), computed without floats."""
    root = math.isqrt(rec_value)
    return root if root * root == rec_value else root + 1


def rank_index(by: str) -> Callable[[Vector], float]:
    """The ``RANKABLE_INDICES`` function of column ``by``; an unknown column is a ValueError."""
    if by not in RANKABLE_INDICES:
        raise ValueError(
            f"cannot rank by {by!r}; choose one of {', '.join(RANKABLE_COLUMNS)}"
        )
    return RANKABLE_INDICES[by]


def rank_rows(
    rows: Iterable[ResearcherRecord | ReportRow], by: str, ascending: bool = False
) -> list[tuple[int, str, float]]:
    """Stable ranking of researchers by one index column.

    The value is ``rank_index(by)`` of each row's vector, so a record ranks
    like its report row; only the ``(value, id)`` pair of each row is kept.

    Ties break by id ascending for display order but share the same rank
    number (competition style: 1, 1, 3).
    """
    index = rank_index(by)
    keyed = [(index(row.vector), row.id) for row in rows]
    keyed.sort(key=itemgetter(1))  # the sort by value is stable, with ``reverse`` too, so ties keep this order
    keyed.sort(key=itemgetter(0), reverse=not ascending)
    ranked: list[tuple[int, str, float]] = []
    rank, previous = 0, None
    for position, (value, name) in enumerate(keyed, 1):
        if value != previous:
            rank, previous = position, value
        ranked.append((rank, name, value))
    return ranked
