"""The readers parse each distinct cell once and share its value, a
column both files have once per run, and the cells of a row in column
order; the writer writes what csv writes.

Every reader check runs on a seeded simulated corpus or on small fixtures;
the reference for each value is a fresh parse of its cell with the public
parse functions, one cell at a time.  The writer's reference is
``csv.writer`` on the values themselves.
"""

import csv
import random
import re
from collections import Counter, namedtuple
from datetime import date
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import psa_audit.cli as cli
import psa_audit.io as psa_io
from psa_audit.charges import parse_charge_code
from psa_audit.cli import main
from psa_audit.engine import SupervisionLevel
from psa_audit.io import (
    COURT_COLUMNS,
    FLAG_TEXT,
    GROUND_TRUTH_COLUMNS,
    PSA_COLUMNS,
    SCHEMA_DOC,
    parse_bool,
    parse_date,
    parse_int,
    read_court_cases,
    read_psa_records,
    render_cell,
    write_csv,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["simulate", "--n", "2000", "--seed", "2026", "--out", str(out)]) == 0
    return out


def _cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write(path, columns, rows):
    write_csv(path, columns, [[render_cell(row[c]) for c in columns] for row in rows])


def _charges(cell):
    return tuple(parse_charge_code(t.strip()) for t in cell.split(";") if t.strip())


def _raw(charges):
    return tuple(c.raw for c in charges)


def _fresh_psa(row):
    """The record fields of one PSA row, each parsed from its own cell."""
    level = row["recorded_recommendation"].strip()
    return {
        "record_id": row["record_id"].strip(),
        "sfid": row["sfid"].strip(),
        "name": row["name"].strip(),
        **{c: parse_date(row[c]) for c in ("dob", "arrest_date", "psa_date")},
        **{c: parse_int(row[c]) for c in ("fta", "nca", "age_at_arrest", "prior_violent_convictions")},
        **{c: parse_bool(row[c])
           for c in ("nvca_flag", "prior_conviction", "recorded_exclusion", "recorded_bumpup")},
        "booking_charges": _charges(row["booking_charges"]),
        "recorded_recommendation": SupervisionLevel.from_label(level) if level else None,
    }


def _fresh_court(row):
    """The case fields of one court row, each parsed from its own cell."""
    filed = _charges(row["filed_charges"])
    disposed = row["dispositions"].strip()
    return {
        "court_number": row["court_number"].strip(),
        "sfid": row["sfid"].strip(),
        "name": row["name"].strip(),
        "dob": parse_date(row["dob"]),
        "arrest_date": parse_date(row["arrest_date"]),
        "race": row["race"].strip().upper(),
        "booking_charges": _charges(row["booking_charges"]),
        "filed_charges": filed,
        "dispositions": (tuple(parse_int(p) for p in disposed.split(";"))
                         if disposed else (None,) * len(filed)),
    }


def _value_key(value):
    # charge codes compare equal across spellings; a shared tuple also
    # shares its spellings
    if isinstance(value, tuple) and value and hasattr(value[0], "raw"):
        return value, _raw(value)
    return value


@pytest.mark.parametrize("name, read, fields", [
    ("psa_records.csv", read_psa_records, ("dob", "arrest_date", "name", "booking_charges")),
    ("court_cases.csv", read_court_cases,
     ("dob", "arrest_date", "name", "booking_charges", "filed_charges", "dispositions")),
])
def test_repeated_cells_share_one_value(corpus, name, read, fields):
    items, issues = read(corpus / name)
    assert len(items) > 1000 and not [i for i in issues if not i.message.startswith("warning:")]
    for field in fields:
        values = [getattr(x, field) for x in items]
        distinct = {_value_key(v) for v in values}
        assert len(distinct) < len(values), field  # the corpus repeats some cells of each column
        assert len({id(v) for v in values}) == len(distinct), field


@pytest.mark.parametrize("name, read, fresh", [
    ("psa_records.csv", read_psa_records, _fresh_psa),
    ("court_cases.csv", read_court_cases, _fresh_court),
])
def test_each_value_equals_a_fresh_parse_of_its_cell(corpus, name, read, fresh):
    items, _ = read(corpus / name)
    rows = _cells(corpus / name)
    assert len(items) == len(rows)
    for item, row in zip(items, rows):
        expected = fresh(row)
        assert {f: getattr(item, f) for f in expected} == expected
        for f in ("booking_charges", "filed_charges"):
            if f in expected:
                assert _raw(getattr(item, f)) == _raw(expected[f])


# (column, bad cell, its message) for each input file, one or more for
# each parsed column but sfid and name (whose one fault, a "\r", the
# writer here cannot quote; tests/test_cli.py plants it); a date is only
# YYYY-MM-DD and an integer only ASCII digits, on every Python version
BAD_CELLS = {
    "psa_records.csv": [
        ("dob", "2016-13-01", "dob: expected YYYY-MM-DD, got '2016-13-01'"),
        ("dob", "20160701", "dob: expected YYYY-MM-DD, got '20160701'"),
        ("arrest_date", "2016-W27-5", "arrest_date: expected YYYY-MM-DD, got '2016-W27-5'"),
        ("psa_date", "2016-7-1", "psa_date: expected YYYY-MM-DD, got '2016-7-1'"),
        ("fta", "\u0663", "fta: expected an integer, got '\u0663'"),
        ("nca", "0", "nca: must be in 1..6, got 0"),
        ("nvca_flag", "yes", "nvca_flag: expected true/false, got 'yes'"),
        ("age_at_arrest", "1_9", "age_at_arrest: expected an integer, got '1_9'"),
        ("prior_conviction", "1", "prior_conviction: expected true/false, got '1'"),
        ("prior_violent_convictions", "-1", "prior_violent_convictions: must be >= 0, got -1"),
        ("recorded_exclusion", "no", "recorded_exclusion: expected true/false, got 'no'"),
        ("recorded_bumpup", "T", "recorded_bumpup: expected true/false, got 'T'"),
        ("booking_charges", "PC F", "booking_charges: no leading statute number in 'PC F'"),
        ("recorded_recommendation", "\u0663", "recorded_recommendation: unknown supervision level '\u0663'"),
    ],
    "court_cases.csv": [
        ("dob", "2016-13-01", "dob: expected YYYY-MM-DD, got '2016-13-01'"),
        ("arrest_date", "20160701", "arrest_date: expected YYYY-MM-DD, got '20160701'"),
        ("race", "Z", "race: unknown designation 'Z'"),
        ("dispositions", "1_60", "dispositions: expected an integer, got '1_60'"),
        ("dispositions", "\u0661\u0666\u0660", "dispositions: expected an integer, got '\u0661\u0666\u0660'"),
        ("dispositions", "-170;-170;-170", "dispositions: must be >= 0, got -170"),
        ("booking_charges", "PC F", "booking_charges: no leading statute number in 'PC F'"),
        ("filed_charges", "PC F", "filed_charges: no leading statute number in 'PC F'"),
    ],
}


@pytest.mark.parametrize("name, columns, read, key", [
    ("psa_records.csv", PSA_COLUMNS, read_psa_records, "record_id"),
    ("court_cases.csv", COURT_COLUMNS, read_court_cases, "court_number"),
])
def test_a_bad_cell_on_two_rows_gives_two_row_issues(corpus, tmp_path, name, columns, read, key):
    for column, bad, message in BAD_CELLS[name]:
        rows = _cells(corpus / name)[:4]
        for row in rows[0], rows[2]:
            row[column] = bad
        path = tmp_path / name
        _write(path, columns, rows)
        items, issues = read(path)
        assert [(i.row, i.record_id, i.message) for i in issues if not i.message.startswith("warning:")] == [
            (1, rows[0][key], message),
            (3, rows[2][key], message),
        ], column
        assert [getattr(x, key) for x in items] == [rows[1][key], rows[3][key]]


@pytest.mark.parametrize("name, columns, read, bad_cells, first", [
    ("court_cases.csv", COURT_COLUMNS, read_court_cases, {"race": "Z", "dob": "2016-13-01"}, "dob:"),
    ("court_cases.csv", COURT_COLUMNS, read_court_cases, {"dispositions": "x", "booking_charges": "PC F"},
     "booking_charges: no leading statute number"),
    ("psa_records.csv", PSA_COLUMNS, read_psa_records, {"recorded_recommendation": "X", "fta": "9"}, "fta:"),
])
def test_a_row_with_two_bad_cells_names_the_first_in_column_order(corpus, tmp_path, name, columns, read,
                                                                   bad_cells, first):
    rows = _cells(corpus / name)[:2]
    rows[0].update(bad_cells)
    _write(tmp_path / name, columns, rows)
    items, issues = read(tmp_path / name)
    assert len(items) == 1
    (issue,) = [i for i in issues if not i.message.startswith("warning:")]
    assert issue.message.startswith(first), issue


def test_the_schema_text_lists_each_column_under_its_file():
    """``--schema`` prints its own list of the files' columns, so a column
    added to a file must be added there too."""
    parts = re.split(r"^(\w+\.csv) ", SCHEMA_DOC, flags=re.M)
    sections = {name: text.split("\n\n")[0] for name, text in zip(parts[1::2], parts[2::2])}
    for name, columns in (("psa_records.csv", PSA_COLUMNS), ("court_cases.csv", COURT_COLUMNS),
                          ("ground_truth.csv", GROUND_TRUTH_COLUMNS)):
        assert [c for c in columns if not re.search(rf"\b{c}\b", sections[name])] == [], name


@pytest.mark.parametrize("text", ["20160701", "2016-W27-5", "2016W275", "2016-07-01T00:00", "2016-7-1",
                                  "\u0662\u0660\u0661\u0666-07-01", "+2016-07-01"])
def test_a_date_cell_is_only_yyyy_mm_dd(text):
    assert parse_date(" 2016-07-01 ") == date(2016, 7, 1)
    with pytest.raises(ValueError, match="expected YYYY-MM-DD"):
        parse_date(text)


def _plant_bad_cells(rows, column, bad, every):
    for row in rows[every - 1::every]:
        row[column] = bad


@pytest.mark.parametrize("name, columns, read, column, bad", [
    ("psa_records.csv", PSA_COLUMNS, read_psa_records, "fta", "9"),
    ("court_cases.csv", COURT_COLUMNS, read_court_cases, "race", "Z"),
])
def test_column_order_and_unknown_columns_do_not_change_what_is_read(corpus, tmp_path, name, columns, read,
                                                                     column, bad):
    rows = _cells(corpus / name)
    _plant_bad_cells(rows, column, bad, every=37)
    _write(tmp_path / "plain.csv", columns, rows)
    shuffled = list(columns) + ["note"]
    random.Random(2026).shuffle(shuffled)
    for k, row in enumerate(rows):
        row["note"] = f"free text {k % 7}"
    _write(tmp_path / "shuffled.csv", shuffled, rows)
    plain, plain_issues = read(tmp_path / "plain.csv")
    items, issues = read(tmp_path / "shuffled.csv")
    assert plain_issues and issues == plain_issues
    assert items == plain
    assert [_raw(x.booking_charges) for x in items] == [_raw(x.booking_charges) for x in plain]


@pytest.mark.parametrize("command, flag, columns, column", [
    ("score", "--psa", PSA_COLUMNS, "fta"),
    ("consistency", "--court", COURT_COLUMNS, "race"),
])
def test_a_repeated_required_column_is_a_schema_error(tmp_path, capsys, command, flag, columns, column):
    path = tmp_path / "in.csv"
    header = ",".join([*columns, column])
    path.write_text(header + "\n" + ",".join(["x"] * (len(columns) + 1)) + "\n", encoding="utf-8")
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"repeated columns ['{column}']" in err and "Traceback" not in err


def _write_quoted(path, columns, rows):
    """Write dict rows with every cell quoted, so a "\\r" stays inside its
    cell; a row given as a list is written as it is (a ragged row)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row if isinstance(row, list) else [row.get(c, "") for c in columns])


def _faulty_pair(tmp_path):
    """A record file and a court file that share sfids, names, dobs and
    charge cells, with the same faults planted in both: a bad dob, an
    unparseable charge text alone and after a good one, and a charge cell
    holding "\\r" (booked on a record, filed on a case), plus a ragged
    row in each."""
    person = {"sfid": "S1", "name": "ADAMS, ALEX", "dob": "1990-01-02", "arrest_date": "2016-09-01"}
    psa = [
        {**person, "record_id": "R1", "booking_charges": "459 PC F;484 PC M"},
        {**person, "record_id": "R2", "sfid": "S2", "dob": "2016-13-01", "booking_charges": "459 PC F"},
        {**person, "record_id": "R3", "sfid": "S3", "booking_charges": "PC F"},
        ["R4", "S4", "BAKER, BO"],
        {**person, "record_id": "R5", "booking_charges": "459 PC F;PC F"},
        {**person, "record_id": "R6", "booking_charges": "459\rPC F"},
        {**person, "record_id": "R7", "arrest_date": "2017-02-03", "booking_charges": "484 PC M"},
    ]
    for row in psa[:3] + psa[4:]:
        row.update(psa_date=row["arrest_date"], fta="2", nca="3", nvca_flag="false")
    court = [
        {**person, "court_number": "C1", "booking_charges": "459 PC F;484 PC M",
         "filed_charges": "459 PC F;484 PC M", "dispositions": "160;160"},
        {**person, "court_number": "C2", "sfid": "S2", "dob": "2016-13-01", "booking_charges": "459 PC F",
         "filed_charges": "459 PC F", "dispositions": "160"},
        {**person, "court_number": "C3", "sfid": "S3", "booking_charges": "PC F", "filed_charges": "459 PC F",
         "dispositions": "160"},
        {**person, "court_number": "C4", "booking_charges": "459 PC F;PC F", "filed_charges": "484 PC M",
         "dispositions": "160"},
        {**person, "court_number": "C5", "booking_charges": "459 PC F", "filed_charges": "459\rPC F",
         "dispositions": "160"},
        ["C6", "S4"],
        {**person, "court_number": "C7", "arrest_date": "2017-02-03", "booking_charges": "484 PC M",
         "filed_charges": "484 PC M", "dispositions": ""},
    ]
    for row in court[:5] + court[6:]:
        row["race"] = "W"
    _write_quoted(tmp_path / "psa.csv", PSA_COLUMNS, psa)
    _write_quoted(tmp_path / "court.csv", COURT_COLUMNS, court)
    return tmp_path / "psa.csv", tmp_path / "court.csv"


def _read_outcome(read, path, **kw):
    items, issues = read(path, **kw)
    return items, [_raw(x.booking_charges) for x in items], issues, items.rows


@pytest.mark.parametrize("court_first", [False, True])
def test_shared_memos_read_what_each_file_reads_alone(tmp_path, court_first):
    psa, court = _faulty_pair(tmp_path)
    alone = {read: _read_outcome(read, path) for read, path in ((read_psa_records, psa), (read_court_cases, court))}
    memos = psa_io._ColumnMemos()
    order = [(read_psa_records, psa), (read_court_cases, court)]
    shared = {read: _read_outcome(read, path, memos=memos) for read, path in order[::-1 if court_first else 1]}
    assert shared == alone
    psa_messages = [i.message for i in alone[read_psa_records][2]]
    court_messages = [i.message for i in alone[read_court_cases][2]]
    for messages in psa_messages, court_messages:
        assert "dob: expected YYYY-MM-DD, got '2016-13-01'" in messages
        assert messages.count("booking_charges: no leading statute number in 'PC F'") == 2
        assert any(m.startswith("row has ") for m in messages)
    assert "booking_charges: must not hold a carriage return, got '459\\rPC F'" in psa_messages
    assert "filed_charges: must not hold a carriage return, got '459\\rPC F'" in court_messages
    assert [r.record_id for r in alone[read_psa_records][0]] == ["R1", "R7"]
    assert [c.court_number for c in alone[read_court_cases][0]] == ["C1", "C7"]
    # what the shared memos parsed, both files share
    records, cases = shared[read_psa_records][0], shared[read_court_cases][0]
    for record, case in zip(records, cases):
        assert case.sfid is record.sfid and case.name is record.name and case.dob is record.dob
        assert case.booking_charges is record.booking_charges


def test_the_audit_intake_parses_each_charge_text_once_and_shares_it(corpus, tmp_path, monkeypatch):
    parsed = Counter()

    def counting(text, *args):
        parsed[text] += 1
        return parse_charge_code(text, *args)

    linked = []
    link_records = cli.link_records

    def linking(records, cases):
        report = link_records(records, cases)
        linked.extend((m.psa, m.matched_cases[0]) for m in report.matched)
        return report

    monkeypatch.setattr(psa_io, "parse_charge_code", counting)
    monkeypatch.setattr(cli, "link_records", linking)
    assert main(["audit", "--psa", str(corpus / "psa_records.csv"), "--court", str(corpus / "court_cases.csv"),
                 "--out", str(tmp_path / "out")]) == 0
    assert parsed and set(parsed.values()) == {1}
    assert len(linked) > 1000
    assert all(case.sfid is record.sfid for record, case in linked)
    same_cell = [(record, case) for record, case in linked
                 if _raw(case.booking_charges) == _raw(record.booking_charges)]
    assert len(same_cell) > len(linked) // 2
    assert all(case.booking_charges is record.booking_charges for record, case in same_cell)


#: An item of an ("id", "x") table: a reader reads a kept id back as the
#: item's attribute named by the first column.
_Row = namedtuple("_Row", "id x")


def test_a_reader_counts_its_rows_apart_from_what_it_keeps(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,x\n\nA,1\nB,bad\n\nC\nA,2\nD,warn\n\n", encoding="utf-8")

    def parse(x):
        if x == "bad":
            raise ValueError("bad")
        return x

    items, issues = psa_io._read_table(path, ("id", "x"), [psa_io._Memo(parse)], _Row,
                                       lambda item: ["odd"] if item[1] == "warn" else [])
    assert items == [("A", "1"), ("D", "warn")]
    assert [(i.row, i.message) for i in issues] == [
        (2, "x: bad"), (3, "row has 1 cells, header has 2"), (4, "id 'A' repeats row 1"), (5, "warning: odd")]
    assert items.rows == 5  # the non-blank lines after the header

    def make_warning(key, x):
        raise ValueError("warning: read as a warning, yet the row is dropped")

    with pytest.raises(RuntimeError, match="5 data rows, but 0 items and 1 row errors"):
        psa_io._read_table(path, ("id", "x"), [psa_io._Memo(str)], make_warning, None)


def test_a_repeat_names_its_first_row_in_an_earlier_block(tmp_path):
    """A repeated id's first row is found where its block was read a
    column at a time, or where the row loop kept it."""
    path = tmp_path / "t.csv"
    path.write_text("id,x\nA,1\nB,bad\nC,1\n\nD,1\nE,1\nC,2\nD,2\nA,2\n", encoding="utf-8")

    def parse(x):
        if x == "bad":
            raise ValueError("bad")
        return x

    # blocks of two: A a column at a time and B by the row loop, C and D a
    # column at a time, E a column at a time and C by the row loop, D and A by it
    with mock.patch.object(psa_io, "_BLOCK_ROWS", 2):
        items, issues = psa_io._read_table(path, ("id", "x"), [psa_io._Memo(parse)], _Row, None)
    assert items == [("A", "1"), ("C", "1"), ("D", "1"), ("E", "1")]
    assert [(i.row, i.message) for i in issues] == [
        (2, "x: bad"), (6, "id 'C' repeats row 3"), (7, "id 'D' repeats row 4"), (8, "id 'A' repeats row 1")]


#: A valid record row, by column, and what each drawn row may change.
_PSA_ROW = dict(zip(PSA_COLUMNS, (
    "R", "S1", "N", "1980-01-01", "2020-01-05", "2020-01-05", "1", "2", "false", "459 PC F;484 PC M",
    "40", "false", "0", "false", "false", "")))
_FAULTY_ROWS = st.lists(st.tuples(
    st.sampled_from(("R1", "R2", "R3", "R4", "R5", " R1 ", "", "R\r6")),  # empty, repeated, holding "\r"
    st.sampled_from(("S1", "S2", "")),  # an empty sfid: the record refuses the whole row
    st.sampled_from(("2020-01-05", "2020-01-04", "2020-01-01")),  # psa_date; the last is a warning
    st.sampled_from(("1", "6", "9", "x")),  # fta; the last two do not parse
    st.sampled_from((0, 0, 0, 1, -1)),  # cells added to or taken from the row
    st.booleans(),  # a blank line before the row
), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_FAULTY_ROWS)
def test_a_table_reads_alike_in_blocks_of_any_size(tmp_path_factory, drawn):
    """Only the rows of a block before its first row error are read a
    column at a time, so every block size gives the row loop's items and
    issues."""
    lines = [",".join(PSA_COLUMNS)]
    for record_id, sfid, psa_date, fta, cells, blank in drawn:
        row = [*{**_PSA_ROW, "record_id": record_id, "sfid": sfid, "psa_date": psa_date, "fta": fta}.values()]
        row = row + ["x"] * cells if cells >= 0 else row[:cells]
        lines += [""] * blank + [",".join(f'"{cell}"' if "\r" in cell else cell for cell in row)]
    path = tmp_path_factory.mktemp("blocks") / "psa.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reads = []
    for block_rows in (1, 2, 3, psa_io._BLOCK_ROWS):
        with mock.patch.object(psa_io, "_BLOCK_ROWS", block_rows):
            records, issues = read_psa_records(path)
        reads.append((list(records), issues, records.rows))
    assert reads[1:] == reads[:1] * 3


def _schema_form(value):
    """What csv is given for ``value``: the schema's text of a bool, a
    float or a level, which csv has no form for, and any other value as
    it is."""
    kind = type(value)
    if kind is bool:
        return FLAG_TEXT[value]
    if kind is float:
        return format(value, ".10g")
    if kind is SupervisionLevel:
        return value.label
    return value


#: Texts rich in what csv quotes or must not split on.
_TEXTS = st.text(st.one_of(st.sampled_from([",", '"', "\n", "\r", ";", " ", "a", "\u00e9", "\u65e5"]),
                           st.characters(blacklist_categories=("Cs",))), max_size=6)
_VALUES = st.one_of(_TEXTS, st.none(), st.booleans(), st.integers(), st.floats(), st.dates(),
                    st.sampled_from(SupervisionLevel))


@st.composite
def _tables(draw):
    columns = draw(st.lists(_TEXTS, min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(_VALUES, min_size=len(columns), max_size=len(columns)), max_size=12))
    return columns, rows


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(1, 5))
@example((["only"], [[""], ["x"], [None], [""]]), 2)
@example((["a,b", 'say "hi"'], [["x\ry", "\u00e9,\u65e5"], ["", None], ["line\nbreak", 1.5]]), 1)
def test_write_csv_of_rendered_cells_is_what_csv_writes(tmp_path_factory, table, chunk_rows):
    """write_csv over render_cell's texts writes, byte for byte, what
    csv.writer(lineterminator="\\n") writes of the values; chunks of a
    few rows put chunk edges among the drawn rows."""
    columns, rows = table
    out = tmp_path_factory.getbasetemp() / "writer"
    written, reference = out / "written.csv", out / "reference.csv"
    with mock.patch.object(psa_io, "_CHUNK_ROWS", chunk_rows):
        write_csv(written, columns, [[render_cell(v) for v in row] for row in rows])
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([[_schema_form(v) for v in row] for row in rows])
    assert written.read_bytes() == reference.read_bytes()
