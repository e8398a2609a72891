from __future__ import annotations

import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import citation_vectors, wide_citation_vectors
from recindex.cli import main
from recindex.core import ReportIndices, chi_index, make_vector, rec, report_indices
from recindex.ingest import (
    DatasetError,
    RANKABLE_COLUMNS,
    RANKABLE_INDICES,
    ResearcherRecord,
    _CountCache,
    _parse_csv_lines,
    build_report,
    ceil_chi,
    classify_row,
    parse_dataset,
    rank_rows,
    short_repr,
)

CSV_BODY = """\
id,c1,c2,c3,c4
ada,6,4,3,1
grace,10,10,10,10,10,10,10,10,10,10
zero,0,0

solo,100
"""


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(CSV_BODY, encoding="utf-8")
    return path


@pytest.fixture
def jsonl_file(tmp_path):
    rows = [
        {"id": "ada", "citations": [1, 3, 6, 4]},
        {"id": "zero", "citations": []},
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def test_csv_parsing_shapes(csv_file):
    records = parse_dataset(csv_file)
    assert [r.id for r in records] == ["ada", "grace", "zero", "solo"]
    by_id = {r.id: r for r in records}
    assert by_id["ada"].vector == (6, 4, 3, 1)
    assert by_id["grace"].vector == (10,) * 10
    assert by_id["zero"].vector == ()
    assert by_id["solo"].vector == (100,)


def test_csv_sorts_and_drops_zeros(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("mix,1,0,3,0,6,4\n", encoding="utf-8")
    (record,) = parse_dataset(path)
    assert record.vector == (6, 4, 3, 1)


def test_csv_skips_padding_cells(tmp_path, csv_file):
    path = tmp_path / "padded.csv"
    path.write_text("a,2,,1,\nb,,,\n", encoding="utf-8")
    records = parse_dataset(path)
    assert records[0].vector == (2, 1)
    assert records[1].vector == ()
    # a blank-only cell fails int(); the row is then walked cell by cell, stripped
    path.write_text("\n".join(line + ", " if line else line for line in CSV_BODY.split("\n")), encoding="utf-8")
    assert parse_dataset(path) == parse_dataset(csv_file)
    path.write_text("ada,6,4, \nbob,3,x, \n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"line 2: invalid citation count 'x' for researcher 'bob'"):
        parse_dataset(path)


def test_csv_header_requires_more_than_the_id_cell(tmp_path):
    # a lone "id" first line is data (with no counts), not a header, and
    # "id" is a fine researcher name on any later line
    path = tmp_path / "noheader.csv"
    path.write_text("id\n", encoding="utf-8")
    (record,) = parse_dataset(path)
    assert (record.id, record.vector) == ("id", ())
    path.write_text("ada,1\nid,2\n", encoding="utf-8")
    assert [r.id for r in parse_dataset(path)] == ["ada", "id"]
    # a header's id cell may come in any case, as spreadsheets write it
    for header in ("id", "ID", "Id"):
        path.write_text(f"{header},c1,c2\nada,3,2\n", encoding="utf-8")
        assert [(r.id, r.vector) for r in parse_dataset(path)] == [("ada", (3, 2))], header
    path.write_text("ID\n", encoding="utf-8")
    assert [r.id for r in parse_dataset(path)] == ["ID"]
    # the header is the first non-blank row, after a byte-order mark and blank "\r\n" lines too
    for blank in ("\n", "\ufeff\r\n \r\n"):
        path.write_bytes(f"{blank}id,c1,c2\nada,3,2\nid,1\n".replace("\n", "\r\n").encode())
        assert [(r.id, r.vector) for r in parse_dataset(path)] == [("ada", (3, 2)), ("id", (1,))], repr(blank)


def test_csv_rejects_bad_count_with_line_and_id(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ada,6,4\nbob,3,x\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"line 2: invalid citation count 'x' for researcher 'bob'"):
        parse_dataset(path)


def test_csv_rejects_negative_counts_via_vector_validation(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("ada,6,-4\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"line 1: researcher 'ada'"):
        parse_dataset(path)


def test_csv_rejects_duplicate_ids_naming_both_lines(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("ada,1\nbob,2\nada,3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"duplicate researcher id 'ada' on lines 1 and 3"):
        parse_dataset(path)


def test_a_repeated_id_with_a_bad_count_reports_the_count(tmp_path):
    # Each reader checks a row's own counts before parse_dataset compares its id with earlier rows.
    path = tmp_path / "dup.csv"
    path.write_text("ada,1\nada,-3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"^line 2: researcher 'ada': negative citation count -3 at position 0$"):
        parse_dataset(path)
    path = tmp_path / "dup.jsonl"
    path.write_text('{"id": "ada", "citations": [1]}\n{"id": "ada", "citations": [true]}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match=r"^line 2: researcher 'ada': citation count at position 0 is not"):
        parse_dataset(path)


def test_csv_rejects_blank_id(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(" ,1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1: empty researcher id"):
        parse_dataset(path)


def loop_counts(cells, line_no, name):
    """The per-cell loop that converted CSV counts before the ``map(int)``
    fast path: strip each cell, skip blanks, name the first bad cell."""
    counts = []
    for cell in cells:
        cell = cell.strip()
        if not cell:
            continue
        try:
            counts.append(int(cell))
        except ValueError:
            raise DatasetError(
                f"line {line_no}: invalid citation count {short_repr(cell)} for researcher {name!r}"
            ) from None
    return counts


def loop_vector(cells, line_no, name):
    """make_vector of ``loop_counts``, its error named as parse_dataset names it."""
    counts = loop_counts(cells, line_no, name)
    try:
        return make_vector(counts)
    except ValueError as exc:
        raise DatasetError(f"line {line_no}: researcher {name!r}: {exc}") from None


def outcome(parse):
    try:
        return parse()
    except DatasetError as exc:
        return f"DatasetError: {exc}"


CELL = st.lists(st.sampled_from([*"0123456789", "", " ", "\x1c", "\xa0", "_", "+", "-", "x"]), max_size=6).map("".join)


@given(st.lists(CELL | st.integers(-3, 5).map(str), max_size=8))
@example(["3", " 2", "\x1c1\x1c", ""])
@example(["1", "9" * 5000])
@example(["1_0", "+4", "\xa05\xa0", " "])
@example(["3", "0", "-2", "-1"])  # make_vector names the position of the first negative count
@example(["1", "", "0", "2", ""])
@example([" ", "-1"])
@example(["0", " ", "2"])  # a blank cell sends the row through the loop, which drops its zeros too
def test_csv_counts_match_the_per_cell_loop(cells):
    line = ",".join(["r", *cells])
    got = outcome(lambda: list(_parse_csv_lines([line])))
    expected = outcome(lambda: [(1, "r", loop_vector(cells, 1, "r"))])
    assert got == expected


@given(st.lists(CELL, min_size=1, max_size=6), st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=6))
@example(["7", " 7", "7 ", "x"], [[0, 1, 2], [2, 1, 0], [0, 0, 3]])
@example(["12345", "99999", ""], [[0, 1], [1, 0, 2], [0]])
def test_csv_counts_match_the_per_cell_loop_across_rows(pool, picks):
    # Rows pick their cells from one small pool, so later rows repeat the
    # cells of earlier ones and read them from the parse's count cache.
    rows = [[pool[i % len(pool)] for i in picked] for picked in picks]
    lines = [",".join([f"r{k}", *cells]) for k, cells in enumerate(rows, 1)]
    got = outcome(lambda: list(_parse_csv_lines(lines)))
    expected = outcome(lambda: [(k, f"r{k}", loop_vector(cells, k, f"r{k}")) for k, cells in enumerate(rows, 1)])
    assert got == expected


def test_the_count_cache_keeps_only_short_cells_that_convert():
    cache = _CountCache()
    assert cache["12345"] == 12345
    assert cache["\xa07 "] == 7
    with pytest.raises(ValueError):
        cache["x"]
    assert "12345" not in cache and "x" not in cache
    assert cache == {"\xa07 ": 7}


def test_jsonl_parsing(jsonl_file):
    records = parse_dataset(jsonl_file)
    assert [r.id for r in records] == ["ada", "zero"]
    assert records[0].vector == (6, 4, 3, 1)
    assert records[1].vector == ()


def test_jsonl_error_messages(tmp_path):
    cases = [
        ("{not json}\n", "line 1: invalid JSON"),
        # a string left open ends at the end of its line, not at the line break
        ('{"id": "a\n', "line 1: invalid JSON: Unterminated string starting at"),
        ("[1, 2]\n", 'expected an object with "id" and "citations"'),
        ('{"id": "a"}\n', 'expected an object with "id" and "citations"'),
        ('{"id": "  ", "citations": []}\n', "empty researcher id"),
        *(
            (f'{{"id": {ident}, "citations": [1]}}\n', "line 1: researcher id must be a string or an integer")
            for ident in ("null", "true", "false", "1.5", "[1]", '{"a": 1}')
        ),
        ('{"id": "a", "citations": [1]}\n{"id": null, "citations": [2]}\n', "line 2: researcher id must be"),
        ('{"id": "a", "citations": 3}\n', "must be a list"),
        ('{"id": "a", "citations": [1.5]}\n', "researcher 'a'"),
        (
            '{"id": "a", "citations": [1]}\n{"id": "a", "citations": [2]}\n',
            "duplicate researcher id 'a' on lines 1 and 2",
        ),
    ]
    for body, fragment in cases:
        path = tmp_path / "case.jsonl"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DatasetError, match=fragment):
            parse_dataset(path)


def test_jsonl_integer_ids_read_as_their_digits(tmp_path):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"id": 7, "citations": [2]}\n{"id": "None", "citations": [1]}\n', encoding="utf-8")
    assert [r.id for r in parse_dataset(path)] == ["7", "None"]
    path.write_text('{"id": 7, "citations": [2]}\n{"id": "7", "citations": [1]}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate researcher id '7' on lines 1 and 2"):
        parse_dataset(path)


@pytest.mark.parametrize(
    "name, body, message",
    [
        # the id is checked before the counts
        ("a.csv", ",x\n", "line 1: empty researcher id"),
        # a bad count is reported before the duplicate id on its line
        ("b.csv", "a,1\na,x\n", "line 2: invalid citation count 'x' for researcher 'a'"),
        # so is a citations value that is not a list
        (
            "c.jsonl",
            '{"id": "a", "citations": [1]}\n{"id": "a", "citations": 3}\n',
            "line 2: citations of researcher 'a' must be a list",
        ),
    ],
)
def test_errors_within_one_line_keep_their_order(tmp_path, name, body, message):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        parse_dataset(path)
    assert str(info.value) == message


def test_format_autodetection(tmp_path):
    sniffed = tmp_path / "data.txt"
    sniffed.write_text('{"id": "a", "citations": [2, 1]}\n', encoding="utf-8")
    assert parse_dataset(sniffed)[0].vector == (2, 1)
    sniffed.write_text("a,2,1\n", encoding="utf-8")
    assert parse_dataset(sniffed)[0].vector == (2, 1)


def test_format_override_and_unknown_format(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('{"id": "a", "citations": [1]}\n', encoding="utf-8")
    assert parse_dataset(path, fmt="jsonl")[0].id == "a"
    with pytest.raises(DatasetError, match="unknown dataset format 'tsv'"):
        parse_dataset(path, fmt="tsv")


def test_missing_file_is_a_dataset_error(tmp_path):
    with pytest.raises(DatasetError, match="cannot read dataset"):
        parse_dataset(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_row_values(csv_file):
    ada = next(r for r in build_report(parse_dataset(csv_file)) if r.id == "ada")
    assert ada.vector == (6, 4, 3, 1)
    assert (ada.n, ada.citations, ada.max) == (4, 14, 6)
    assert (ada.h, ada.g, ada.w) == (3, 3, 4)
    assert ada.euclidean == pytest.approx(math.sqrt(62))
    assert (ada.rec, ada.rec_i, ada.rec_p) == (9, 9, 9)
    assert ada.chi == pytest.approx(3.0)
    assert ada.rect_width == 3
    assert ada.maximizers == (3,)
    assert ada.classification == "balanced"


def test_report_row_for_zero_cited_researcher(csv_file):
    zero = next(r for r in build_report(parse_dataset(csv_file)) if r.id == "zero")
    assert zero.vector == ()
    assert (zero.n, zero.citations, zero.rec, zero.chi) == (0, 0, 0, 0.0)
    assert zero.rect_width is None
    assert zero.maximizers == ()
    assert zero.classification == "empty"


@settings(deadline=None)
@given(st.one_of(wide_citation_vectors(), citation_vectors()))
@example(())
@example((60, 30, 20, 15, 12, 10))  # six maximizers: the narrowest is the rect_width
@example((12, 6, 4, 3, 2, 2, 1))
def test_narrow_entries_match_the_full_pass(x):
    """Each rankable column's function and the classify row read what the
    full pass reports, down to the type: an int and a float render differently."""
    assert tuple(RANKABLE_INDICES) == RANKABLE_COLUMNS  # the --by help and error list them in this order
    full = ReportIndices._make(report_indices(x))
    for name, index in RANKABLE_INDICES.items():
        value, want = index(x), getattr(full, name)
        assert (value, type(value)) == (want, type(want)), name
    row, want = classify_row(ResearcherRecord("r", x)), ("r", full.rec, full.rect_width, full.classification)
    assert (row, list(map(type, row))) == (want, list(map(type, want)))


def test_records_and_rows_are_immutable(csv_file):
    record = parse_dataset(csv_file)[0]
    for value in (record, *build_report([record])):
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)


def test_report_summary_counts(csv_file):
    out = io.StringIO()
    assert main(["classify", str(csv_file), "--format", "jsonl"], out=out) == 0
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert summary == {"summary": {"influential": 1, "prolific": 0, "balanced": 2, "empty": 1}, "total": 4}


def test_report_chi_squares_back_to_rec(csv_file):
    for row in build_report(parse_dataset(csv_file)):
        assert row.chi == pytest.approx(chi_index(row.vector))
        assert row.chi**2 == pytest.approx(rec(row.vector))


def test_csv_jsonl_round_trip(tmp_path, csv_file):
    records = parse_dataset(csv_file)
    out = tmp_path / "copy.jsonl"
    out.write_text(
        "\n".join(
            json.dumps({"id": r.id, "citations": list(r.vector)}) for r in records
        ),
        encoding="utf-8",
    )
    again = parse_dataset(out)
    assert [(r.id, r.vector) for r in again] == [(r.id, r.vector) for r in records]


# ---------------------------------------------------------------------------
# ceil-chi and ranking
# ---------------------------------------------------------------------------


def test_ceil_chi_is_exact():
    assert ceil_chi(0) == 0
    assert ceil_chi(1) == 1
    assert ceil_chi(2) == 2
    assert ceil_chi(9) == 3
    assert ceil_chi(10) == 4
    big = 10**12
    assert ceil_chi(big) == 10**6  # float sqrt would already wobble here
    assert ceil_chi(big + 1) == 10**6 + 1


def test_rank_rows_competition_style(csv_file):
    ranked = rank_rows(build_report(parse_dataset(csv_file)), "chi")
    assert [(rank, name) for rank, name, _ in ranked] == [
        (1, "grace"),
        (1, "solo"),
        (3, "ada"),
        (4, "zero"),
    ]
    values = [value for _, _, value in ranked]
    assert values[0] == pytest.approx(10.0) and values[1] == pytest.approx(10.0)


def test_rank_rows_ascending(csv_file):
    ranked = rank_rows(build_report(parse_dataset(csv_file)), "n", ascending=True)
    assert [name for _, name, _ in ranked] == ["zero", "solo", "ada", "grace"]
    assert [rank for rank, _, _ in ranked] == [1, 2, 3, 4]


def test_rank_rows_rejects_unknown_column(csv_file):
    report = list(build_report(parse_dataset(csv_file)))
    with pytest.raises(ValueError, match="cannot rank by 'sociability'"):
        rank_rows(report, "sociability")
    for column in RANKABLE_COLUMNS:
        rank_rows(report, column)  # all advertised columns really work


# Short vectors of small counts, so that h ties often and chi, a float, ties whenever rec does.
@settings(max_examples=200)
@given(
    st.lists(st.lists(st.integers(1, 4), max_size=4), max_size=12),
    st.sampled_from(["h", "chi"]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_rank_rows_match_a_naive_sort(counts, by, ascending, rng):
    records = [ResearcherRecord(f"r{i:02d}", make_vector(c)) for i, c in enumerate(counts)]
    rng.shuffle(records)
    sign = 1 if ascending else -1
    keyed = sorted(((RANKABLE_INDICES[by](r.vector), r.id) for r in records), key=lambda kv: (sign * kv[0], kv[1]))
    # Competition style: one more than the number of rows strictly ahead.
    want = [(1 + sum(sign * other < sign * value for other, _ in keyed), name, value) for value, name in keyed]
    assert rank_rows(records, by, ascending=ascending) == want


@pytest.mark.parametrize(
    "name, body",
    [
        ("bom.csv", "id,c1,c2\na,3,2\nb,1,1,1\n"),
        ("bom.jsonl", '{"id": "a", "citations": [3, 2]}\n{"id": "b", "citations": [1, 1, 1]}\n'),
    ],
)
def test_a_utf8_byte_order_mark_is_ignored(tmp_path, name, body):
    plain = tmp_path / name
    plain.write_text(body, encoding="utf-8")
    marked = tmp_path / f"marked-{name}"
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    assert list(build_report(parse_dataset(marked))) == list(build_report(parse_dataset(plain)))


def test_a_byte_order_mark_does_not_shift_the_bad_byte(tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbfcaf\xe9,1\n")
    with pytest.raises(DatasetError, match=re.escape("not UTF-8 text (byte 6: invalid continuation byte)")):
        parse_dataset(marked)
    cut = tmp_path / "cut.csv"
    cut.write_bytes(b"\xef\xbb")  # the first two bytes of a mark
    with pytest.raises(DatasetError, match=re.escape("not UTF-8 text (byte 0: unexpected end of data)")):
        parse_dataset(cut)


def test_malformed_input_names_the_line_or_the_path(tmp_path):
    cases = [
        ("open.csv", b'id,c\na,1\n"open quote,3,4\nb,5\n', "line 3: malformed CSV row"),
        ("stray.csv", b'a,1\n"x"y,2\n', "line 2: malformed CSV row"),
        ("span.csv", b'a,1\n"two\nlines",2\n', "line 2: malformed CSV row: quote left open"),
        ("deep.jsonl", b'{"id": "a", "citations": ' + b"[" * 100_000, "line 1: invalid JSON: nested"),
        ("latin1.csv", "caf\xe9,1\n".encode("latin-1"), "latin1.csv: not UTF-8 text"),
    ]
    for name, body, fragment in cases:
        path = tmp_path / name
        path.write_bytes(body)
        with pytest.raises(DatasetError, match=re.escape(fragment)):
            parse_dataset(path)


@pytest.mark.parametrize(
    "name, body, ids, bad",
    [
        # U+2028 inside a JSON string: json.loads reads it raw
        ("sep.jsonl", '{"id": "a\u2028b", "citations": [3, 2]}\n', ["a\u2028b"], '{"id": "c", "citations": 3}'),
        # "\x1c" and "\x0b" are blanks around a CSV count, as int() reads them
        ("sep.csv", "a,3,2\nb,1\x1c,2\x0b\n", ["a", "b"], "c,x"),
    ],
)
def test_lines_end_only_at_line_breaks(tmp_path, name, body, ids, bad):
    # str.splitlines() would also break at these characters.
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    assert [r.id for r in parse_dataset(path)] == ids
    assert main(["compute", str(path)], out=io.StringIO()) == 0
    # "\r\n" and "\r" end a line as "\n" does, and a blank line made of those
    # other characters counts as one line, so the bad line comes two lines on.
    path.write_bytes((body.replace("\n", "\r\n", 1) + " \x85\x1e\x0c\r" + bad + "\n").encode("utf-8"))
    with pytest.raises(DatasetError, match=f"^line {len(ids) + 2}: "):
        parse_dataset(path)


def test_a_bad_byte_past_the_first_chunk_beats_an_earlier_bad_row(tmp_path):
    # The file is read a chunk at a time: the bad row on line 2 is met long before the bad byte,
    # whose offset is still counted from the start of the file, past the byte-order mark too.
    padding = "".join(f"r{k},{k % 7},1\n" for k in range(3, 9000)).encode()
    for mark in (b"", b"\xef\xbb\xbf"):
        head = mark + b"id,c1\nbob,3,x\n" + padding
        assert len(head) > 64 * 1024
        path = tmp_path / "late.csv"
        path.write_bytes(head + b"caf\xe9,1\n")
        with pytest.raises(DatasetError) as info:
            parse_dataset(path)
        bad_byte = f"byte {len(head) + 3}: invalid continuation byte"
        assert str(info.value) == f"cannot read dataset {path}: not UTF-8 text ({bad_byte})"


@pytest.mark.parametrize(
    "name, body, message",
    [
        # the duplicate on line 2 comes before the bad row on line 3
        ("dup.csv", "a,1\na,2\nb,x\n", "duplicate researcher id 'a' on lines 1 and 2"),
        (
            "dup.jsonl",
            '{"id": "a", "citations": [1]}\n{"id": "a", "citations": [2]}\n{"id": "b", "citations": 3}\n',
            "duplicate researcher id 'a' on lines 1 and 2",
        ),
        # the overflow on line 2 comes before the duplicate on line 3
        (
            "big.csv",
            f"a,1\nb,{10 ** 200},{10 ** 200}\na,3\n",
            "line 2: researcher 'b': citation counts too large; the sum of their squares exceeds the largest float",
        ),
        (
            "big.jsonl",
            f'{{"id": "a", "citations": [1]}}\n{{"id": "b", "citations": [{10 ** 200}, {10 ** 200}]}}\n'
            '{"id": "a", "citations": [3]}\n',
            "line 2: researcher 'b': citation counts too large; the sum of their squares exceeds the largest float",
        ),
        # a bound over every row trips here, but no one row overflows, so the duplicate is the error
        (
            "near.csv",
            f"a,{10 ** 154}\nb,1,1,1,1,1,1,1,1,1,1,1,1\na,1\n",
            "duplicate researcher id 'a' on lines 1 and 3",
        ),
    ],
)
def test_the_first_bad_line_wins(tmp_path, name, body, message):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        parse_dataset(path)
    assert str(info.value) == message


def test_a_bound_over_the_file_that_no_row_passes_keeps_every_row(tmp_path):
    # The longest row times the largest first count squared passes the largest float; no one row's sum does.
    path = tmp_path / "near.csv"
    path.write_text(f"a,{10 ** 154}\nb,{'1,' * 12}1\n", encoding="utf-8")
    assert parse_dataset(path) == [("a", (10**154,)), ("b", (1,) * 13)]


@pytest.mark.parametrize("mark", ["", "\ufeff"])
@pytest.mark.parametrize("blank", [" \r\n", "\x85\n", " \r\n\x85\n\n"])
def test_the_format_is_sniffed_past_leading_blank_lines(tmp_path, mark, blank):
    path = tmp_path / "data.txt"
    path.write_bytes(f'{mark}{blank}{{"id": "a", "citations": [2, 1]}}\n'.encode())
    assert parse_dataset(path) == [("a", (2, 1))]
    path.write_bytes(f"{mark}{blank}a,2,1\n".encode())
    assert parse_dataset(path) == [("a", (2, 1))]
    # a CSV row after the blank lines reads as CSV even when a later line holds an object
    path.write_bytes(f'{mark}{blank}a,2,1\n{{"id": "b"}}\n'.encode())
    assert [r.id for r in parse_dataset(path)] == ["a", '{"id": "b"}']
