import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import pytest

import psa_audit
import psa_audit.cli as cli
from psa_audit.charges import data_path
from psa_audit.cli import _HANDLERS, main
from psa_audit.counterfactual import COMPONENTS
from psa_audit.engine import SupervisionLevel
from psa_audit.io import COURT_COLUMNS, PSA_COLUMNS, read_court_cases, read_psa_records, render_cell, write_csv
from psa_audit.linkage import CourtCase, PsaRecord
from psa_audit.stats import AffectedRow, RateRow
from psa_audit.synth import DEFAULT_CHARGE_POOLS


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run(["simulate", "--n", 800, "--seed", 3, "--out", out]) == 0
    return out


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_table(path, columns, rows):
    """Write dict rows, such as the fixtures below, with their cells in column order."""
    write_csv(path, columns, [[render_cell(row[c]) for c in columns] for row in rows])


def psa_row(record_id="R1", sfid="S1", **kw):
    row = {c: "" for c in PSA_COLUMNS}
    row.update({
        "record_id": record_id,
        "sfid": sfid,
        "arrest_date": "2016-09-01",
        "psa_date": "2016-09-01",
        "fta": "2",
        "nca": "3",
        "nvca_flag": "false",
        "booking_charges": "459 PC F",
    })
    row.update(kw)
    return row


def court_row(court_number="C1", sfid="S1", charges="459 PC F", dispositions="160", **kw):
    row = {c: "" for c in COURT_COLUMNS}
    row.update({
        "court_number": court_number,
        "sfid": sfid,
        "arrest_date": "2016-09-01",
        "race": "W",
        "booking_charges": charges,
        "filed_charges": charges,
        "dispositions": dispositions,
    })
    row.update(kw)
    return row


def test_schema_flag(capsys):
    assert run(["--schema"]) == 0
    out = capsys.readouterr().out
    assert "psa_records.csv" in out and "court_cases.csv" in out


def test_no_command_prints_help_and_is_a_usage_failure(capsys):
    assert run([]) == 2
    assert capsys.readouterr().out.startswith("usage: psa-audit")


def test_score_fixture(tmp_path):
    psa = tmp_path / "psa.csv"
    rows = [psa_row(f"R{i}", f"S{i}") for i in range(3)]
    rows[0]["booking_charges"] = ""  # fta=2, nca=3, no charges
    write_table(psa, PSA_COLUMNS, rows)
    out = tmp_path / "out"
    assert run(["score", "--psa", psa, "--out", out]) == 0
    results = read_rows(out / "score_results.csv")
    assert len(results) == 3
    assert results[0]["initial"] == "OR-NAS" and results[0]["final"] == "OR-NAS"


def test_score_partial_failure_exit_code(tmp_path):
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [
        psa_row("R1"),
        psa_row("R2", "S2", fta=""),   # missing prediction
        psa_row("R3", "S3", nca="9"),  # outside the decision matrix
    ])
    out = tmp_path / "out"
    assert run(["score", "--psa", psa, "--out", out]) == 3
    assert len(read_rows(out / "score_results.csv")) == 1
    errors = read_rows(out / "score_errors.csv")
    assert {e["record_id"] for e in errors} == {"R2", "R3"}


def test_score_empty_result_exit_code(tmp_path):
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [])
    out = tmp_path / "out"
    assert run(["score", "--psa", psa, "--out", out]) == 4


def test_missing_column_is_schema_failure(tmp_path):
    psa = tmp_path / "psa.csv"
    psa.write_text("record_id,sfid\nR1,S1\n")
    assert run(["score", "--psa", psa, "--out", tmp_path / "out"]) == 2


def _unusable_input(tmp_path, kind):
    """A --psa/--court path the readers cannot read: no file, a directory,
    or a file of both files' columns whose rows turn to non-UTF-8 bytes
    after its good first rows, or whose second row holds a name longer
    than csv's field size limit."""
    path = tmp_path / "bad.csv"
    header = ",".join(dict.fromkeys(PSA_COLUMNS + COURT_COLUMNS))
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        good = header + "\n" + "C1,S1\n" * 5000
        path.write_bytes(good.encode() + b"C2,\xff\xfe\n")
    elif kind == "over-long field":
        path.write_text(f"{header}\nX1,S1\nX2,S2,{'N' * (csv.field_size_limit() + 1)}\n", encoding="utf-8")
    return path


#: The start of each unusable input's error, after its path.
_UNUSABLE = {"missing": "cannot read file", "directory": "cannot read file", "not-utf8": "not UTF-8 text",
             "over-long field": f"line 3: field larger than field limit ({csv.field_size_limit()})"}


@pytest.mark.parametrize("kind", list(_UNUSABLE))
def test_missing_file_is_schema_failure(tmp_path, capsys, kind):
    limit, message = csv.field_size_limit(), _UNUSABLE[kind]
    bad = _unusable_input(tmp_path, kind)
    for args in (["score", "--psa", bad], ["consistency", "--court", bad]):
        capsys.readouterr()
        assert run([*args, "--out", tmp_path / "out"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {bad}: {message}")
        assert not (tmp_path / "out").exists()
    assert csv.field_size_limit() == limit  # no reader raises the process-wide limit


@pytest.mark.parametrize("kind", ["a file", "under a file"])
def test_an_out_path_that_cannot_be_a_directory_is_a_usage_failure(tmp_path, capsys, kind):
    (tmp_path / "taken").write_text("not a directory\n")
    out = tmp_path / "taken" if kind == "a file" else tmp_path / "taken" / "out"
    assert run(["simulate", "--n", 20, "--seed", 1, "--out", out]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {out}: ")
    assert (tmp_path / "taken").read_text() == "not a directory\n"


def test_empty_and_repeated_ids_are_row_errors(tmp_path):
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [psa_row("R1"), psa_row("R1"), psa_row("")])
    court = tmp_path / "court.csv"
    write_table(court, COURT_COLUMNS, [court_row("C1")])
    out = tmp_path / "audit"
    assert run(["audit", "--psa", psa, "--court", court, "--out", out]) == 3
    errors = read_rows(out / "input_errors.csv")
    assert [(e["row"], e["record_id"], e["message"]) for e in errors] == [
        ("2", "R1", "record_id 'R1' repeats row 1"),
        ("3", "", "record_id must be non-empty"),
    ]
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert counts["psa_input_rows"] == 3
    assert counts["psa_input_rows"] == counts["records_parsed"] + counts["row_errors"]

    write_table(court, COURT_COLUMNS, [court_row("C1"), court_row("C1"), court_row("C2")])
    assert run(["consistency", "--court", court, "--out", out]) == 3
    errors = read_rows(out / "input_errors.csv")
    assert [(e["row"], e["message"]) for e in errors] == [("2", "court_number 'C1' repeats row 1")]


def test_readers_share_parsed_charges_but_report_every_bad_row(tmp_path):
    court = tmp_path / "court.csv"
    write_table(court, COURT_COLUMNS, [
        court_row("C1", charges="459 PC F;484 PC M", dispositions="160;160"),
        court_row("C2", charges=" 484 PC M ;459 PC F", dispositions="160;160"),
        court_row("C3", charges="PC F"),
        court_row("C4", charges="PC F"),
        court_row("C5", dispositions="160;160"),
        court_row("C6", dispositions="160;160", dob="2016-13-01"),  # a bad cell is named before the count
    ])
    cases, issues = read_court_cases(court)
    c1, c2 = cases
    assert c1.booking_charges[0] is c1.filed_charges[0] is c2.booking_charges[1]
    assert c1.booking_charges[1] is c2.filed_charges[0]
    assert [(i.row, i.record_id, i.message) for i in issues] == [
        (3, "C3", "booking_charges: no leading statute number in 'PC F'"),
        (4, "C4", "booking_charges: no leading statute number in 'PC F'"),
        (5, "C5", "dispositions: 2 codes for 1 filed charges"),
        (6, "C6", "dob: expected YYYY-MM-DD, got '2016-13-01'"),
    ]

    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [
        psa_row("R1"),
        psa_row("R2", "S2", booking_charges="459 PC F;PC F"),
        psa_row("R3", "S3", booking_charges="PC F"),
    ])
    write_table(court, COURT_COLUMNS, [court_row("C1")])
    out = tmp_path / "audit"
    assert run(["audit", "--psa", psa, "--court", court, "--out", out]) == 3
    errors = read_rows(out / "input_errors.csv")
    assert [(e["row"], e["record_id"], e["message"]) for e in errors] == [
        ("2", "R2", "booking_charges: no leading statute number in 'PC F'"),
        ("3", "R3", "booking_charges: no leading statute number in 'PC F'"),
    ]
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert counts["psa_input_rows"] == 3
    assert counts["psa_input_rows"] == counts["records_parsed"] + counts["row_errors"]


def _ragged_copy(src: Path, dst: Path, drop_rows: bool = False) -> list[list[str]]:
    """Copy ``src`` with data row 5 three cells short and data row 9 one
    cell long, or with both rows left out; returns the source's rows."""
    with open(src, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    ragged = list(lines)
    if drop_rows:
        del ragged[9], ragged[5]
    else:
        ragged[5] = ragged[5][:-3]
        ragged[9] = ragged[9] + ["extra"]
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(ragged)
    return lines


@pytest.mark.parametrize("name, columns, input_rows", [
    ("psa_records.csv", PSA_COLUMNS, "psa_input_rows"),
    ("court_cases.csv", COURT_COLUMNS, "court_input_rows"),
])
def test_ragged_rows_are_row_errors(sim_dir, tmp_path, name, columns, input_rows):
    outs = {}
    for variant in ("ragged", "dropped"):
        inputs = tmp_path / variant
        inputs.mkdir()
        for other in ("psa_records.csv", "court_cases.csv"):
            (inputs / other).write_bytes((sim_dir / other).read_bytes())
        lines = _ragged_copy(sim_dir / name, inputs / name, drop_rows=variant == "dropped")
        outs[variant] = out = tmp_path / f"audit-{variant}"
        rc = run(["audit", "--psa", inputs / "psa_records.csv", "--court", inputs / "court_cases.csv",
                  "--out", out, "--sensitivity"])
        assert rc == (3 if variant == "ragged" else 0)
        # each file's rows are its parsed rows plus its own row errors
        counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
        cases, _ = read_court_cases(inputs / "court_cases.csv")
        assert counts["psa_input_rows"] == counts["records_parsed"] + counts["row_errors"]
        assert counts["court_input_rows"] == len(cases) + counts["court_row_errors"]

    width = len(columns)
    errors = read_rows(outs["ragged"] / "input_errors.csv")
    assert [(e["row"], e["record_id"], e["message"]) for e in errors] == [
        ("5", lines[5][0], f"row has {width - 3} cells, header has {width}"),
        ("9", lines[9][0], f"row has {width + 1} cells, header has {width}"),
    ]
    counts = {r["stage"]: int(r["count"]) for r in read_rows(outs["ragged"] / "counts_summary.csv")}
    assert counts[input_rows] == len(lines) - 1
    for rows, row_errors in (("psa_input_rows", "row_errors"), ("court_input_rows", "court_row_errors")):
        assert counts[row_errors] == (2 if rows == input_rows else 0)
    # every other row gives the same outputs as when the two rows are absent
    skip = ("input_errors.csv", "counts_summary.csv", "test_summary.txt", "run_manifest.json")
    assert _tree_bytes(outs["ragged"], skip) == _tree_bytes(outs["dropped"], skip)


def test_ragged_rows_are_score_errors(sim_dir, tmp_path):
    lines = _ragged_copy(sim_dir / "psa_records.csv", tmp_path / "psa.csv")
    ragged_ids = {lines[5][0], lines[9][0]}
    # the corpus's incomplete records are score errors already
    assert run(["score", "--psa", sim_dir / "psa_records.csv", "--out", tmp_path / "whole"]) == 3
    assert run(["score", "--psa", tmp_path / "psa.csv", "--out", tmp_path / "ragged"]) == 3
    whole = {name: [r for r in read_rows(tmp_path / "whole" / name) if r["record_id"] not in ragged_ids]
             for name in ("score_results.csv", "score_errors.csv")}
    errors = read_rows(tmp_path / "ragged" / "score_errors.csv")
    assert [(e["row"], e["record_id"], e["message"]) for e in errors[:2]] == [
        ("5", lines[5][0], "row has 13 cells, header has 16"),
        ("9", lines[9][0], "row has 17 cells, header has 16"),
    ]
    assert errors[2:] == whole["score_errors.csv"]
    assert read_rows(tmp_path / "ragged" / "score_results.csv") == whole["score_results.csv"]


@pytest.mark.parametrize("columns, make_row, read", [
    (PSA_COLUMNS, psa_row, read_psa_records),
    (COURT_COLUMNS, court_row, read_court_cases),
])
def test_blank_lines_are_skipped_and_not_numbered(tmp_path, columns, make_row, read):
    lines = [",".join(make_row(f"X{k}", f"S{k}")[c] for c in columns) for k in range(1, 5)]
    ragged = lines[2].rsplit(",", 1)[0]  # the third data row, one cell short
    path = tmp_path / "in.csv"
    # blank lines after the header, between rows and at the end
    text = "\n".join([",".join(columns), "", lines[0], lines[1], "", "", ragged, "", lines[3], "", ""])
    path.write_text(text, encoding="utf-8")
    items, issues = read(path)
    assert [getattr(x, columns[0]) for x in items] == ["X1", "X2", "X4"]
    width = len(columns)
    assert [(i.row, i.record_id, i.message) for i in issues] == [
        (3, "X3", f"row has {width - 1} cells, header has {width}"),
    ]


@pytest.mark.parametrize("columns, make_row, read", [
    (PSA_COLUMNS, psa_row, read_psa_records),
    (COURT_COLUMNS, court_row, read_court_cases),
])
def test_a_row_issue_names_the_first_rule_the_row_breaks(tmp_path, columns, make_row, read):
    key, width = columns[0], len(columns)
    rows = [make_row("X1", "S1"), make_row("X1", "S2"), make_row("", "S3", dob="2016-13-01"),
            make_row("X1", "S4", dob="2016-13-01")]
    lines = [",".join(row[c] for c in columns) for row in rows]
    lines[1] += ",extra"  # ragged, and its id repeats row 1
    path = tmp_path / "in.csv"
    path.write_text("\n".join([",".join(columns), *lines]) + "\n", encoding="utf-8")
    items, issues = read(path)
    assert [getattr(x, key) for x in items] == ["X1"]
    assert [(i.row, i.record_id, i.message) for i in issues] == [
        (2, "X1", f"row has {width + 1} cells, header has {width}"),
        (3, "", f"{key} must be non-empty"),
        (4, "X1", f"{key} 'X1' repeats row 1"),
    ]


def test_every_command_lists_the_same_row_issues(sim_dir, tmp_path):
    bad = _corrupt_copy(sim_dir, tmp_path / "corrupt")
    psa, court = ["--psa", bad / "psa_records.csv"], ["--court", bad / "court_cases.csv"]
    errors = {}
    for command, inputs in (
        ("audit", [*psa, *court]),
        ("validate", [*psa, *court]),
        ("dedupe", psa),
        ("consistency", court),
        ("score", psa),
    ):
        out = tmp_path / command
        assert run([command, *inputs, "--out", out]) == 3
        errors[command] = out / ("score_errors.csv" if command == "score" else "input_errors.csv")
    both = errors["audit"].read_bytes()
    assert errors["validate"].read_bytes() == both
    psa_rows, court_rows = read_rows(errors["dedupe"]), read_rows(errors["consistency"])
    assert psa_rows and court_rows
    assert read_rows(errors["audit"]) == psa_rows + court_rows
    assert [r for r in read_rows(errors["score"]) if r["message"] != "missing sub-scores"] == psa_rows


def test_score_errors_name_each_input_row_in_row_order(sim_dir, tmp_path):
    bad = _corrupt_copy(sim_dir, tmp_path / "corrupt")
    out = tmp_path / "score"
    assert run(["score", "--psa", bad / "psa_records.csv", "--out", out]) == 3
    rows = read_rows(bad / "psa_records.csv")
    errors = [(int(e["row"]), e["record_id"], e["message"]) for e in read_rows(out / "score_errors.csv")]
    assert [e[0] for e in errors] == sorted(e[0] for e in errors)
    assert all(rows[n - 1]["record_id"] == record_id for n, record_id, _ in errors)
    incomplete = [n for n, row in enumerate(rows, start=1)
                  if row["dob"] != "not-a-date" and "" in (row["fta"], row["nca"], row["nvca_flag"])]
    assert incomplete and len(incomplete) < len(errors)
    assert [n for n, _, message in errors if message == "missing sub-scores"] == incomplete


@pytest.mark.parametrize("column, value", [("age_at_arrest", "-4"), ("prior_violent_convictions", "-1")])
def test_negative_counts_are_row_errors(tmp_path, capsys, column, value):
    psa, court = tmp_path / "psa.csv", tmp_path / "court.csv"
    write_table(psa, PSA_COLUMNS, [psa_row("R1", "S1"), psa_row("R2", "S2", **{column: value})])
    write_table(court, COURT_COLUMNS, [court_row("C1", "S1"), court_row("C2", "S2")])
    for command, inputs, errors in (
        ("audit", ["--psa", psa, "--court", court], "input_errors.csv"),
        ("validate", ["--psa", psa, "--court", court], "input_errors.csv"),
        ("score", ["--psa", psa], "score_errors.csv"),
    ):
        out = tmp_path / command
        assert run([command, *inputs, "--out", out]) == 3
        assert [(e["row"], e["record_id"], e["message"]) for e in read_rows(out / errors)] == [
            ("2", "R2", f"{column}: must be >= 0, got {value}"),
        ]
        assert "Traceback" not in capsys.readouterr().err


def test_write_csv_writes_each_cell_as_the_schema_says(tmp_path):
    columns = ("none", "empty", "yes", "no", "sum", "tiny", "level", "day", "zero", "text")
    header = b"none,empty,yes,no,sum,tiny,level,day,zero,text\n"
    path = tmp_path / "cells.csv"
    values = [None, "", True, False, 0.1 + 0.2, 1e-12, SupervisionLevel.SFPDP_ACM, date(2016, 9, 1), 0, 'a, "b"']
    write_csv(path, columns, [[render_cell(v) for v in values]])
    assert path.read_bytes() == header + b',,true,false,0.3,1e-12,SFPDP-ACM,2016-09-01,0,"a, ""b"""\n'
    write_csv(path, columns, [])
    assert path.read_bytes() == header


def test_reader_does_not_turn_program_errors_into_row_errors(tmp_path, monkeypatch):
    def broken(text):
        raise TypeError("bug")

    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [psa_row("R1")])
    monkeypatch.setitem(psa_audit.io._PARSERS, "dob", broken)
    with pytest.raises(TypeError, match="bug"):
        read_psa_records(psa)


def test_utf8_bom_input_gives_the_same_outputs(sim_dir, tmp_path):
    bom = tmp_path / "bom"
    bom.mkdir()
    for name in ("psa_records.csv", "court_cases.csv"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (sim_dir / name).read_bytes())
    outs = []
    for src in (sim_dir, bom):
        out = tmp_path / f"audit-{src.name}"
        assert run(["audit", "--psa", src / "psa_records.csv", "--court", src / "court_cases.csv",
                    "--out", out, "--sensitivity"]) == 0
        outs.append(_tree_bytes(out, skip=("run_manifest.json",)))
    assert outs[0] == outs[1]


def test_audit_tallies_the_pairs_once(sim_dir, tmp_path, monkeypatch):
    """Every table, the sensitivity tables and ``sensitivity_excluded``
    are read from one tally of the pairs."""
    calls = []

    def counted(pairs, tally=cli.tally):
        calls.append(len(pairs))
        return tally(pairs)

    monkeypatch.setattr(cli, "tally", counted)
    out = tmp_path / "audit"
    assert run(["audit", "--sensitivity", "--psa", sim_dir / "psa_records.csv",
                "--court", sim_dir / "court_cases.csv", "--out", out]) == 0
    pairs = read_rows(out / "audit_pairs.csv")
    assert calls == [len(pairs)]
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    excluded = sum(p["excluded_by_sensitivity"] == "true" for p in pairs)
    assert counts["sensitivity_excluded"] == excluded > 0


def test_audit_on_simulated_data(sim_dir, tmp_path):
    out = tmp_path / "audit"
    rc = run([
        "audit", "--psa", sim_dir / "psa_records.csv",
        "--court", sim_dir / "court_cases.csv",
        "--out", out, "--sensitivity",
    ])
    assert rc == 0
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert counts["records_parsed"] == 800
    assert (
        counts["matched"] + counts["unresolved"] + counts["dropped_incomplete"] + counts["dropped_duplicates"]
        == counts["records_parsed"]
    )
    rates = read_rows(out / "rate_table.csv")
    scopes = {r["scope"] for r in rates}
    assert scopes == {"all", "B", "non-B"}
    affected = read_rows(out / "affected_table.csv")
    assert {r["component"] for r in affected} == {"exclusion", "bumpup", "nvca_flag", "recommendation"}
    assert (out / "rate_table_sensitivity.csv").exists()
    assert (out / "test_summary.txt").exists()
    dist = read_rows(out / "initial_distribution.csv")
    assert {r["scope"] for r in dist} == {"all", "B", "non-B"}


def test_audit_rejects_bad_alpha(sim_dir, tmp_path):
    rc = run([
        "audit", "--psa", sim_dir / "psa_records.csv",
        "--court", sim_dir / "court_cases.csv",
        "--out", tmp_path / "a", "--alpha", "2",
    ])
    assert rc == 2


def test_audit_groups_each_person_by_any_of_their_cases(tmp_path):
    psa, court = tmp_path / "psa.csv", tmp_path / "court.csv"
    write_table(psa, PSA_COLUMNS, [
        # P1: one record on a W case, one on a B case
        psa_row("R1", "P1"),
        psa_row("R2", "P1", arrest_date="2017-03-01", psa_date="2017-03-01"),
        psa_row("R3", "P2"),
        # P3: the B case matches none of P3's records
        psa_row("R4", "P3"),
        # P4: no race designation
        psa_row("R5", "P4"),
    ])
    write_table(court, COURT_COLUMNS, [
        court_row("C1", "P1"),
        court_row("C2", "P1", arrest_date="2017-03-01", race="B"),
        court_row("C3", "P2"),
        court_row("C4", "P3"),
        court_row("C5", "P3", arrest_date="2018-01-01", race="B"),
        court_row("C6", "P4", race=""),
    ])
    out = tmp_path / "audit"
    assert run(["audit", "--psa", psa, "--court", court, "--out", out]) == 0
    groups = {r["record_id"]: r["group"] for r in read_rows(out / "audit_pairs.csv")}
    assert groups == {"R1": "B", "R2": "B", "R3": "non-B", "R4": "B", "R5": "non-B"}
    assert {r["scope"]: int(r["n"]) for r in read_rows(out / "rate_table.csv")} == {"all": 5, "B": 3, "non-B": 2}


def test_audit_has_no_group_by_option(sim_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv",
             "--out", tmp_path / "audit", "--group-by", "none"])
    assert exc.value.code == 2


def test_audit_empty_court_file(sim_dir, tmp_path):
    court = tmp_path / "court.csv"
    write_table(court, COURT_COLUMNS, [])
    out = tmp_path / "audit"
    rc = run(["audit", "--psa", sim_dir / "psa_records.csv", "--court", court, "--out", out])
    assert rc == 4
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert counts["matched"] == 0 and counts["analyzed_pairs"] == 0
    assert counts["unresolved"] > 0
    assert read_rows(out / "rate_table.csv") == []
    assert len(read_rows(out / "review_unresolved.csv")) == counts["unresolved"]


@pytest.mark.parametrize("corpus", ["all_excluded", "empty_court"])
def test_sensitivity_tables_are_written_when_no_pair_is_kept(tmp_path, corpus):
    """``--sensitivity`` always writes both sensitivity tables, holding only
    their header when every pair is excluded or there are no pairs, as
    the main tables do when there are no pairs."""
    sim = tmp_path / "sim"
    assert run(["simulate", "--n", 200, "--seed", 3, "--overbooking-rate", 0, "--plea-other-rate", 1.0,
                "--out", sim]) == 0
    court = sim / "court_cases.csv"
    if corpus == "empty_court":
        court = tmp_path / "court.csv"
        write_table(court, COURT_COLUMNS, [])
    out = tmp_path / "audit"
    assert run(["audit", "--sensitivity", "--psa", sim / "psa_records.csv", "--court", court,
                "--out", out]) == (0 if corpus == "all_excluded" else 4)
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert counts["sensitivity_excluded"] == counts["analyzed_pairs"]
    assert (counts["analyzed_pairs"] > 0) == (corpus == "all_excluded")
    for name, row_type in (("rate_table", RateRow), ("affected_table", AffectedRow)):
        text = (out / f"{name}_sensitivity.csv").read_text(encoding="utf-8")
        assert text == ",".join(("scope", "n", *row_type._fields)) + "\n"


def test_validate_self_consistency(sim_dir, tmp_path):
    out = tmp_path / "val"
    rc = run(["validate", "--psa", sim_dir / "psa_records.csv",
              "--court", sim_dir / "court_cases.csv", "--out", out])
    assert rc == 0
    report = {r["component"]: r for r in read_rows(out / "validation_report.csv")}
    assert list(report) == [c.name for c in COMPONENTS]
    for component in ("nvca_flag", "exclusion", "bumpup", "recommendation"):
        assert report[component]["agreement_rate"] == "1"
    # the bump-up comparison is masked to non-excluded rows
    assert int(report["bumpup"]["n"]) < int(report["exclusion"]["n"])
    assert read_rows(out / "validation_mismatches.csv") == []


def test_validate_planted_discrepancy(tmp_path):
    # one planted recorded-column discrepancy per 1000 records -> 99.9%
    rows = [psa_row(f"R{i:04d}", f"S{i:04d}", recorded_exclusion="false",
                    recorded_bumpup="false", recorded_recommendation="OR-NAS")
            for i in range(1000)]
    rows[7]["recorded_recommendation"] = "SFPDP-ACM"
    rows[3]["recorded_recommendation"] = "1"  # a level may be written as its rank
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, rows)
    court = tmp_path / "court.csv"
    write_table(court, COURT_COLUMNS, [court_row(f"C{i:04d}", f"S{i:04d}") for i in range(1000)])
    out = tmp_path / "val"
    assert run(["validate", "--psa", psa, "--court", court, "--out", out]) == 0
    report = {r["component"]: r for r in read_rows(out / "validation_report.csv")}
    assert report["recommendation"]["agreement_rate"] == "0.999"
    assert report["exclusion"]["agreement_rate"] == "1"
    mism = read_rows(out / "validation_mismatches.csv")
    assert len(mism) == 1 and mism[0]["record_id"] == "R0007"


def test_consistency_command(tmp_path):
    court = tmp_path / "court.csv"
    write_table(court, COURT_COLUMNS, [
        court_row("C1", "S1", race="B"), court_row("C2", "S1", race="B"),
        court_row("C3", "S1", race="W"), court_row("C4", "S2", race="B"),
        court_row("C5", "S2", race="B"), court_row("C6", "S3", race="H"),
    ])
    out = tmp_path / "cons"
    assert run(["consistency", "--court", court, "--out", out]) == 0
    rows = {r["designation"]: r for r in read_rows(out / "race_consistency.csv")}
    assert float(rows["B"]["B"]) == pytest.approx(100 * (2 / 3 + 1) / 2)
    assert "H" not in rows  # single-record individual excluded


def test_a_court_row_without_an_sfid_is_a_row_error(tmp_path):
    """Each blank-sfid case is listed, and none of them is counted as one
    person with several designations."""
    court = tmp_path / "court.csv"
    write_table(court, COURT_COLUMNS, [
        court_row("C1", "S1", race="B"), court_row("C2", "S1", race="B"),
        court_row("C3", "", race="B"), court_row("C4", "  ", race="W"), court_row("C5", "", race="W"),
    ])
    out = tmp_path / "cons"
    assert run(["consistency", "--court", court, "--out", out]) == 3
    errors = read_rows(out / "input_errors.csv")
    assert [(e["row"], e["record_id"], e["message"]) for e in errors] == [
        (str(n), f"C{n}", "sfid must be non-empty") for n in (3, 4, 5)]
    rows = read_rows(out / "race_consistency.csv")
    assert [(r["designation"], r["n_individuals"]) for r in rows] == [("B", "1")]


def test_dedupe_command(tmp_path):
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [psa_row("R1"), psa_row("R2"), psa_row("R3", fta="")])
    out = tmp_path / "dedupe"
    assert run(["dedupe", "--psa", psa, "--out", out]) == 0
    assert len(read_rows(out / "deduped_records.csv")) == 1
    dropped = {r["record_id"]: r["reason"] for r in read_rows(out / "dedupe_dropped.csv")}
    assert dropped == {"R2": "duplicate", "R3": "incomplete"}


def test_dedupe_counts_conserve_every_row(sim_dir, tmp_path):
    """Every input row is parsed or a row error, and every parsed record is
    kept or dropped as incomplete or as a duplicate."""
    bad = _corrupt_copy(sim_dir, tmp_path / "corrupt")
    out = tmp_path / "dedupe"
    assert run(["dedupe", "--psa", bad / "psa_records.csv", "--out", out]) == 3
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert list(counts) == ["psa_input_rows", "row_errors", "records_parsed",
                            "dropped_incomplete", "dropped_duplicates", "kept"]
    assert counts["psa_input_rows"] == len(read_rows(bad / "psa_records.csv"))
    assert counts["psa_input_rows"] == counts["records_parsed"] + counts["row_errors"]
    assert counts["row_errors"] == len(read_rows(out / "input_errors.csv")) > 0
    assert counts["records_parsed"] == counts["kept"] + counts["dropped_incomplete"] + counts["dropped_duplicates"]
    assert counts["kept"] == len(read_rows(out / "deduped_records.csv"))
    assert counts["dropped_incomplete"] > 0 and counts["dropped_duplicates"] > 0


def test_every_run_writes_a_manifest(sim_dir, tmp_path):
    out = tmp_path / "dedupe"
    run(["dedupe", "--psa", sim_dir / "psa_records.csv", "--out", out])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "dedupe"
    assert manifest["tool"] == "psa-audit"
    assert Path(manifest["options"]["psa"]).is_absolute()


def _tree_bytes(root: Path, skip=()):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file() and p.name not in skip
    }


def test_rerun_simulate_byte_identical(tmp_path):
    first = tmp_path / "first"
    assert run(["simulate", "--n", 150, "--seed", 11, "--out", first]) == 0
    second = tmp_path / "second"
    assert run(["rerun", first / "run_manifest.json", "--out", second]) == 0
    assert _tree_bytes(first) == _tree_bytes(second)


@pytest.mark.parametrize("command", ["score", "audit", "consistency", "validate", "dedupe"])
def test_rerun_byte_identical(sim_dir, tmp_path, command):
    psa, court = ["--psa", sim_dir / "psa_records.csv"], ["--court", sim_dir / "court_cases.csv"]
    args = {
        "score": psa,
        "audit": [*psa, *court, "--sensitivity"],
        "consistency": court,
        # a resolved engine-file option round-trips too
        "validate": [*psa, *court, "--config-dir", _copy_packaged_config(tmp_path / "cfg")],
        "dedupe": psa,
    }[command]
    first = tmp_path / "first"
    rc = run([command, *args, "--out", first])
    assert rc in (0, 3)
    second = tmp_path / "second"
    assert run(["rerun", first / "run_manifest.json", "--out", second]) == rc
    assert _tree_bytes(first) == _tree_bytes(second)


def test_a_closed_stdout_changes_neither_the_outputs_nor_the_exit_code(sim_dir, tmp_path):
    args = ["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv", "--sensitivity"]
    assert run([*args, "--out", tmp_path / "normal"]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        env = {**os.environ, "PYTHONPATH": str(Path(psa_audit.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "psa_audit.cli", *map(str, args), "--out", tmp_path / "piped"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert _tree_bytes(tmp_path / "piped") == _tree_bytes(tmp_path / "normal")


class _ClosedPipe:
    """A stdout whose reader has gone: each write raises BrokenPipeError.
    Its file descriptor is ``fd``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_report_to_a_closed_pipe_goes_to_devnull_in_process(sim_dir, tmp_path, monkeypatch):
    """The same as the test above, in this process, so that the handler of
    the closed pipe is seen to run: it points the descriptor at devnull."""
    args = ["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv", "--sensitivity"]
    assert run([*args, "--out", tmp_path / "normal"]) == 0
    sink = tmp_path / "stdout.txt"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert run([*args, "--out", tmp_path / "piped"]) == 0
        os.write(fd, b"unseen")
    finally:
        os.close(fd)
    assert sink.read_bytes() == b""
    assert _tree_bytes(tmp_path / "piped") == _tree_bytes(tmp_path / "normal")


@pytest.mark.parametrize("command, key, value", [("audit", "group_by", "none"), ("simulate", "n", 7)])
def test_rerun_drops_the_dead_options_of_an_older_manifest(sim_dir, tmp_path, command, key, value):
    """An option no command reads shapes nothing, so the rerun's manifest
    leaves it out: an older audit's ``group_by``, or a flag of simulate's
    beside the ``resolved_generator`` that holds it."""
    args = {
        "audit": ["--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv"],
        "simulate": ["--n", 50, "--seed", 4],
    }[command]
    first = tmp_path / "first"
    assert run([command, *args, "--out", first]) == 0
    manifest = json.loads((first / "run_manifest.json").read_text())
    manifest["options"][key] = value
    older = tmp_path / "older.json"
    older.write_text(json.dumps(manifest))
    second = tmp_path / "second"
    assert run(["rerun", older, "--out", second]) == 0
    assert _tree_bytes(second) == _tree_bytes(first)


def test_rerun_rejects_bad_manifest(tmp_path, capsys):
    audit = {"psa": str(tmp_path / "psa.csv"), "court": str(tmp_path / "court.csv"), "alpha": 0.001,
             "conviction_threshold": 159, "plea_to_other_code": 72,
             "sensitivity": False, "no_companion_zero": False}
    manifests = [
        {},
        [],
        {"subcommand": "audit", "options": []},
        {"subcommand": ["audit"], "options": {}},
        {"subcommand": "audit", "options": {k: v for k, v in audit.items() if k != "alpha"}},
        {"subcommand": "audit", "options": {k: v for k, v in audit.items() if k not in ("psa", "court")}},
        {"subcommand": "audit", "options": {**audit, "conviction_threshold": "159"}},
        {"subcommand": "audit", "options": {**audit, "alpha": 1}},
        {"subcommand": "audit", "options": {**audit, "sensitivity": 1}},
        {"subcommand": "dedupe", "options": {"psa": 5}},
        # the link command is gone; audit writes each of its files
        {"subcommand": "link", "options": {"psa": audit["psa"], "court": audit["court"]}},
        {"subcommand": "simulate", "options": {"resolved_generator": [150, 11]}},
        {"subcommand": "simulate", "options": {}},
        {"subcommand": "simulate", "options": {"resolved_generator": {"bogus": 1}}},
        {"subcommand": "simulate", "options": {"resolved_generator": {"n_records": -1}}},
    ]
    bad = tmp_path / "m.json"
    for manifest in manifests:
        bad.write_text(json.dumps(manifest))
        assert run(["rerun", bad, "--out", tmp_path / "out"]) == 2, manifest
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not (tmp_path / "out").exists()
    bad.write_bytes(b"\xff{}")
    for path in (bad, tmp_path / "missing.json", tmp_path):
        assert run(["rerun", path, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_every_write_csv_call_gets_sized_rows(sim_dir, tmp_path, monkeypatch):
    """Each table reaches write_csv as rows whose len() is their count, as
    perfbench's write hook reads it: a bare generator would break it."""
    import psa_audit.synth as synth

    written = []
    for module in (cli, synth):
        def sized(path, columns, rows, write=module.write_csv):
            n = len(rows)
            write(path, columns, rows)
            written.append((Path(path), n))
        monkeypatch.setattr(module, "write_csv", sized)
    psa, court = ["--psa", sim_dir / "psa_records.csv"], ["--court", sim_dir / "court_cases.csv"]
    commands = {
        "audit": ["--sensitivity", *psa, *court],
        "validate": [*psa, *court],
        "score": psa,
        "simulate": ["--n", 300, "--seed", 5],
    }
    for command, args in commands.items():
        assert run([command, *args, "--out", tmp_path / command]) in (0, 3)
    assert {path.parent.name for path, _ in written} == set(commands)
    for path, n in written:
        with open(path, newline="", encoding="utf-8") as fh:
            assert sum(1 for _ in csv.reader(fh)) - 1 == n, path


def test_every_write_csv_call_gets_written_cells(sim_dir, tmp_path, monkeypatch):
    """write_csv joins each cell as it is given, so every caller renders
    every cell to its CSV field text first (see render_cell): each cell is
    a str."""
    import psa_audit.synth as synth

    written = []
    for module in (cli, synth):
        def check(path, columns, rows, write=module.write_csv):
            rows = list(rows)
            kinds = {type(cell) for row in rows for cell in row}
            written.append(Path(path))
            assert kinds <= {str}, (path, kinds)
            write(path, columns, rows)
        monkeypatch.setattr(module, "write_csv", check)
    psa, court = ["--psa", sim_dir / "psa_records.csv"], ["--court", sim_dir / "court_cases.csv"]
    commands = {
        "audit": ["--sensitivity", *psa, *court],
        "validate": [*psa, *court],
        "score": psa,
        "simulate": ["--n", 300, "--seed", 5],
        "consistency": court,
        "dedupe": psa,
    }
    assert set(commands) == set(_HANDLERS)
    for command, args in commands.items():
        assert run([command, *args, "--out", tmp_path / command]) in (0, 3)
    assert {path.parent.name for path in written} == set(commands)


def _write_quoting_carriage_returns(path, columns, rows):
    """Write dict rows with CRLF line ends, so csv quotes a cell holding "\\r"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def _assert_every_csv_reads_back_whole(out: Path):
    for path in out.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows), path


@pytest.mark.parametrize("column, cell", [("record_id", "R\r3"), ("sfid", "S\r3"), ("name", "ADAMS\rALEX")])
def test_a_carriage_return_in_an_id_sfid_or_name_is_a_row_error(tmp_path, column, cell):
    """csv quotes a cell holding "\\r" only when it ends its lines with one,
    so such a cell, written back into an output, would split its row."""
    record_id = "" if column == "record_id" else "R3"
    message = f"{column}: must not hold a carriage return, got {cell!r}"
    psa_rows = [psa_row(f"R{i}", f"S{i}", name="ADAMS, ALEX", dob="1980-01-01") for i in range(1, 6)]
    psa_rows[2][column] = cell
    psa = tmp_path / "psa.csv"
    _write_quoting_carriage_returns(psa, PSA_COLUMNS, psa_rows)

    out = tmp_path / "dedupe"
    assert run(["dedupe", "--psa", psa, "--out", out]) == 3
    assert [(e["row"], e["record_id"], e["message"]) for e in read_rows(out / "input_errors.csv")] == [
        ("3", record_id, message)]
    _assert_every_csv_reads_back_whole(out)
    records, issues = read_psa_records(out / "deduped_records.csv")
    assert [r.record_id for r in records] == ["R1", "R2", "R4", "R5"] and issues == []

    court_column = "court_number" if column == "record_id" else column
    court_rows = [court_row(f"C{i}", f"S{i}", name="ADAMS, ALEX", dob="1980-01-01") for i in range(1, 6)]
    court_rows[3][court_column] = cell.replace("3", "4")
    court = tmp_path / "court.csv"
    _write_quoting_carriage_returns(court, COURT_COLUMNS, court_rows)
    out = tmp_path / "audit"
    assert run(["audit", "--psa", psa, "--court", court, "--out", out]) == 3
    court_message = f"{court_column}: must not hold a carriage return, got {cell.replace('3', '4')!r}"
    assert [(e["row"], e["record_id"], e["message"]) for e in read_rows(out / "input_errors.csv")] == [
        ("3", record_id, message), ("4", "" if column == "record_id" else "C4", court_message)]
    _assert_every_csv_reads_back_whole(out)
    assert sorted(m["record_id"] for m in read_rows(out / "matches.csv")) == ["R1", "R2", "R4", "R5"]
    assert [p["record_id"] for p in read_rows(out / "audit_pairs.csv")] == ["R1", "R2", "R5"]


@pytest.mark.parametrize("column", ["booking_charges", "filed_charges"])
def test_a_carriage_return_in_a_charge_text_is_a_row_error(tmp_path, column):
    """A charge keeps its text, which dedupe, matches and review outputs
    copy, so a "\\r" inside one is a row error that names its column; the
    court file's two charge columns share one memo of cells."""
    cell = "459\rPC F"
    psa_rows = [psa_row(f"R{i}", f"S{i}") for i in range(1, 6)]
    psa_rows[2]["booking_charges"] = cell
    psa = tmp_path / "psa.csv"
    _write_quoting_carriage_returns(psa, PSA_COLUMNS, psa_rows)
    psa_issue = ("3", "R3", f"booking_charges: must not hold a carriage return, got {cell!r}")

    out = tmp_path / "dedupe"
    assert run(["dedupe", "--psa", psa, "--out", out]) == 3
    assert [(e["row"], e["record_id"], e["message"]) for e in read_rows(out / "input_errors.csv")] == [psa_issue]
    _assert_every_csv_reads_back_whole(out)
    records, issues = read_psa_records(out / "deduped_records.csv")
    assert [r.record_id for r in records] == ["R1", "R2", "R4", "R5"] and issues == []

    court_rows = [court_row(f"C{i}", f"S{i}") for i in range(1, 6)]
    court_rows[3][column] = cell
    court = tmp_path / "court.csv"
    _write_quoting_carriage_returns(court, COURT_COLUMNS, court_rows)
    out = tmp_path / "audit"
    assert run(["audit", "--psa", psa, "--court", court, "--out", out]) == 3
    assert [(e["row"], e["record_id"], e["message"]) for e in read_rows(out / "input_errors.csv")] == [
        psa_issue, ("4", "C4", f"{column}: must not hold a carriage return, got {cell!r}")]
    _assert_every_csv_reads_back_whole(out)
    assert [p["record_id"] for p in read_rows(out / "audit_pairs.csv")] == ["R1", "R2", "R5"]


# ---------------------------------------------------------------------------
# settings: config files and generator settings


CONFIG_FILES = ("charge_catalog.yaml", "dmf.yaml", "weights.yaml")


def _copy_packaged_config(directory: Path) -> Path:
    directory.mkdir()
    for name in CONFIG_FILES:
        (directory / name).write_bytes(data_path(name).read_bytes())
    return directory


def _assert_one_config_error(capsys, path):
    """The run reported exactly one error line, and it names ``path``."""
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}"), err


@pytest.mark.parametrize("flag", ["--catalog", "--dmf", "--weights"])
def test_missing_config_file_is_a_config_error(sim_dir, tmp_path, capsys, flag):
    missing = tmp_path / "missing.yaml"
    rc = run(["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv",
              flag, missing, "--out", tmp_path / "out"])
    assert rc == 2
    _assert_one_config_error(capsys, missing)


@pytest.mark.parametrize("name", CONFIG_FILES)
def test_config_dir_lacking_a_file_is_a_config_error(sim_dir, tmp_path, capsys, name):
    config_dir = _copy_packaged_config(tmp_path / "cfg")
    (config_dir / name).unlink()
    rc = run(["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv",
              "--config-dir", config_dir, "--out", tmp_path / "out"])
    assert rc == 2
    _assert_one_config_error(capsys, config_dir / name)


@pytest.mark.parametrize("level", ["OR-NAS", "Release-Not-Recommended"])
def test_simulate_needs_both_low_and_top_matrix_cells(tmp_path, capsys, level):
    """The overbooked scenarios pin a low or a top cell, so a matrix of one
    level cannot plant them."""
    dmf = tmp_path / "dmf.yaml"
    dmf.write_text("rows:\n" + f"  - [{', '.join([level] * 6)}]\n" * 6, encoding="utf-8")
    assert run(["simulate", "--n", 10, "--dmf", dmf, "--out", tmp_path / "sim"]) == 2
    err = capsys.readouterr().err
    assert f"error: {dmf}: decision matrix must offer both low and top non-split cells" in err
    assert not (tmp_path / "sim").exists()


_SIX = "[1, 1, 1, 1, 1, 1]"
_DIST = f"{{fta: {_SIX}, nca: {_SIX}}}"
#: A pool charge that breaks its pool's rule.  The rule is checked against
#: the run's catalog, and the error starts with the file's path like every
#: other error in the file (test_synth checks that it names the pool and
#: the charge).
_BAD_POOL = "charge_pools: " + json.dumps({**DEFAULT_CHARGE_POOLS, "neutral_felonies": ["187(A) PC F"]}) + "\n"


@pytest.mark.parametrize("text", [
    None,  # no file at all
    "n_records: [50\n",  # not valid YAML
    "- 50\n",  # not a mapping
    "bogus_rate: 0.5\n",  # unknown key
    'overbooking_rate: "0.5"\n',
    "n_records: abc\n",
    "group_mix: 0.5\n",
    "group_mix: {B: 1.5, non-B: -0.5}\n",  # sums to 1 through a negative share
    "group_mix: {B: .nan, non-B: 0.5}\n",
    "group_mix: {B: 0.5, X: 0.5}\n",  # X has no score distribution
    # group names that are not strings: they do not sort among strings, and
    # a manifest's JSON turns them into strings that sort otherwise
    *(f"group_mix: {{{a}: 0.5, {b}: 0.5}}\nscore_distributions: {{{a}: {_DIST}, {b}: {_DIST}}}\n"
      for a, b in (("1", "B"), ("2", "10"))),
    *(f"score_distributions: {{B: {b_entry}, non-B: {{fta: {_SIX}, nca: {_SIX}}}}}\n" for b_entry in (
        f"{{fta: {_SIX}}}",  # no nca
        f"{{fta: {_SIX}, nca: {_SIX}, nvca: {_SIX}}}",  # a third scale
        f"[{_SIX}, {_SIX}]",  # not a mapping
        f"{{fta: 6, nca: {_SIX}}}",  # not a list
        f"{{fta: [1, 1, 1, 1, 1], nca: {_SIX}}}",  # five weights
        f"{{fta: [1, 1, 1, 1, 1, -1], nca: {_SIX}}}",
        f"{{fta: [0, 0, 0, 0, 0, 0], nca: {_SIX}}}",
        f"{{fta: [1, 1, 1, 1, 1, .inf], nca: {_SIX}}}",
        f"{{fta: [1, 1, 1, 1, 1, a], nca: {_SIX}}}",
    )),
    # the five pools and one the generator never draws from
    "charge_pools: " + json.dumps({**DEFAULT_CHARGE_POOLS, "violent_felonies": ["246 PC F"]}) + "\n",
    _BAD_POOL,
    "charge_pools: " + json.dumps({**DEFAULT_CHARGE_POOLS, "violent": ["abc"]}) + "\n",  # does not parse
    # two charges in one text, and a text that splits its row: each is one
    # cell of a corpus the readers would not read back as planted
    *("charge_pools: " + json.dumps({**DEFAULT_CHARGE_POOLS, "exclusion": [text]}) + "\n"
      for text in ("211 PC F;187(A) PC F", "211 PC\r F")),
    "duplicate_rate: 0.8\nincomplete_rate: 0.5\n",  # more than every record
])
def test_bad_gen_config_is_a_config_error(tmp_path, capsys, text):
    gen = tmp_path / "gen.yaml"
    if text is not None:
        gen.write_text(text, encoding="utf-8")
    assert run(["simulate", "--gen-config", gen, "--out", tmp_path / "out"]) == 2
    _assert_one_config_error(capsys, gen)
    assert not (tmp_path / "out").exists()


def _catalog_without_240(path):
    """The packaged catalog without its 240 PC M entry, which the default
    violent pool draws from, written to ``path``."""
    lines = data_path("charge_catalog.yaml").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if '"240 PC M"' not in line]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept), encoding="utf-8")
    return path


_NOT_VIOLENT = "charge pool 'violent' takes only violent charges, got '240 PC M'"


def test_a_catalog_that_fails_the_default_pools_is_named(tmp_path, capsys):
    catalog = _catalog_without_240(tmp_path / "catalog.yaml")
    assert run(["simulate", "--n", 10, "--catalog", catalog, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {catalog.resolve()}: {_NOT_VIOLENT}\n"
    assert not (tmp_path / "out").exists()


def test_a_config_dir_catalog_that_fails_the_default_pools_is_named(tmp_path, capsys):
    config_dir = _copy_packaged_config(tmp_path / "config")
    catalog = _catalog_without_240(config_dir / "charge_catalog.yaml")
    assert run(["simulate", "--n", 10, "--config-dir", config_dir, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {catalog.resolve()}: {_NOT_VIOLENT}\n"
    assert not (tmp_path / "out").exists()


def test_a_manifest_whose_pools_fail_its_catalog_is_named(tmp_path, capsys):
    assert run(["simulate", "--n", 10, "--out", tmp_path / "sim"]) == 0
    manifest_path = tmp_path / "sim" / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["options"]["resolved_generator"]["charge_pools"]["violent"] = ["459 PC F"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert run(["rerun", manifest_path, "--out", tmp_path / "again"]) == 2
    assert capsys.readouterr().err == (f"error: {manifest_path}: option 'resolved_generator': "
                                       "charge pool 'violent' takes only violent charges, got '459 PC F'\n")
    assert not (tmp_path / "again").exists()


def test_gen_config_settings_reach_the_generator_and_flags_beat_them(tmp_path):
    gen = tmp_path / "gen.yaml"
    gen.write_text("n_records: 50\nseed: 5\n", encoding="utf-8")
    assert run(["simulate", "--gen-config", gen, "--out", tmp_path / "file"]) == 0
    assert run(["simulate", "--n", 50, "--seed", 5, "--out", tmp_path / "flags"]) == 0
    assert _tree_bytes(tmp_path / "file") == _tree_bytes(tmp_path / "flags")

    assert run(["simulate", "--gen-config", gen, "--n", 60, "--out", tmp_path / "both"]) == 0
    assert run(["simulate", "--n", 60, "--seed", 5, "--out", tmp_path / "flags60"]) == 0
    assert _tree_bytes(tmp_path / "both") == _tree_bytes(tmp_path / "flags60")
    planted = {r["quantity"]: r["count"] for r in read_rows(tmp_path / "both" / "planted_counts.csv")}
    assert planted["records"] == "60"


def test_gen_config_score_distributions_may_zero_some_scores(tmp_path):
    gen = tmp_path / "gen.yaml"
    gen.write_text(f"score_distributions: {{B: {{fta: [0, 0, 1, 1, 0, 0], nca: {_SIX}}}, "
                   f"non-B: {{fta: {_SIX}, nca: [2, 0, 0, 0, 0, 0]}}}}\n", encoding="utf-8")
    assert run(["simulate", "--gen-config", gen, "--n", 200, "--out", tmp_path / "sim"]) == 0


#: Group B draws fta and nca 6 only, a top cell, so an overbooked-affected
#: B record never draws a low cell and takes one by ``rng.choice`` after its
#: 200 tries.  SHA-256 of ``simulate --n 3000 --seed 4`` on it.
_B_TOP_ONLY = (f"score_distributions: {{B: {{fta: [0, 0, 0, 0, 0, 1], nca: [0, 0, 0, 0, 0, 1]}}, "
               f"non-B: {{fta: [30, 25, 20, 12, 8, 5], nca: [28, 25, 20, 13, 9, 5]}}}}\n")
_B_TOP_ONLY_PINS = {
    "court_cases.csv": "5077de8de51e0389557bf7d0a0e96fe5b3cfc30213b8e5f568a800d7eec48573",
    "ground_truth.csv": "94af0b05df6ba9c28106353757093b6cc62d5ff0c75eb931f77cbc02b7df894c",
    "psa_records.csv": "442f8c8ec9268debc11908c810db7b2d8128ce5a1531308226b2ff6d91b1f94f",
}


def test_a_pinned_cell_the_draws_never_reach_keeps_its_output_bytes(tmp_path):
    gen = tmp_path / "gen.yaml"
    gen.write_text(_B_TOP_ONLY, encoding="utf-8")
    out = tmp_path / "sim"
    assert run(["simulate", "--gen-config", gen, "--n", 3000, "--seed", 4, "--out", out]) == 0
    # the retry fallback ran: B records were planted as affected anyway
    affected_b = [r for r in read_rows(out / "ground_truth.csv")
                  if r["scenario"] == "overbooked_affected" and r["group"] == "B"]
    assert len(affected_b) > 100
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _B_TOP_ONLY_PINS} \
        == _B_TOP_ONLY_PINS


@pytest.mark.parametrize("flags, named", [
    (["--duplicate-rate", 0.8, "--incomplete-rate", 0.5], "duplicate_rate + incomplete_rate"),
    (["--overbooking-rate", 0.9, "--plea-other-rate", 0.5], "overbooking_rate + plea_other_rate"),
])
def test_scenario_rates_summing_past_one_are_config_errors(tmp_path, capsys, flags, named):
    assert run(["simulate", "--n", 2000, "--seed", 5, *flags, "--out", tmp_path / "sim"]) == 2
    assert f"{named} must be at most 1" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_bad_flag_values_are_config_errors(sim_dir, tmp_path, capsys):
    assert run(["simulate", "--n", 10, "--overbooking-rate", 1.5, "--out", tmp_path / "sim"]) == 2
    assert "overbooking_rate" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()
    inputs = ["--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv"]
    rc = run(["audit", *inputs, "--conviction-threshold", 0, "--out", tmp_path / "audit"])
    assert rc == 2
    assert "conviction_threshold" in capsys.readouterr().err
    assert not (tmp_path / "audit").exists()
    for code in (0, 160):
        rc = run(["audit", *inputs, "--plea-to-other-code", code, "--out", tmp_path / "audit"])
        assert rc == 2
        assert "plea_to_other_code must be in 1..conviction_threshold" in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()
    assert run(["audit", *inputs, "--alpha", 2, "--out", tmp_path / "audit"]) == 2
    assert "--alpha must be in (0, 1), got 2.0" in capsys.readouterr().err
    assert not (tmp_path / "audit").exists()
    # nor does a rerun with a bad setting
    options = {"psa": str(sim_dir / "psa_records.csv"), "court": str(sim_dir / "court_cases.csv"),
               "alpha": 0.05, "conviction_threshold": 159, "plea_to_other_code": 72,
               "sensitivity": False, "no_companion_zero": False}
    manifest = tmp_path / "run_manifest.json"
    for bad in ({"alpha": 2.0}, {"plea_to_other_code": 0}):
        manifest.write_text(json.dumps({"subcommand": "audit", "options": {**options, **bad}}))
        assert run(["rerun", manifest, "--out", tmp_path / "rerun"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "rerun").exists()


def test_config_dir_with_packaged_copies_matches_the_defaults(sim_dir, tmp_path):
    config_dir = _copy_packaged_config(tmp_path / "cfg")
    inputs = ["--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv", "--sensitivity"]
    assert run(["audit", *inputs, "--out", tmp_path / "default"]) == 0
    assert run(["audit", *inputs, "--config-dir", config_dir, "--out", tmp_path / "copies"]) == 0
    skip = ("run_manifest.json",)
    assert _tree_bytes(tmp_path / "default", skip) == _tree_bytes(tmp_path / "copies", skip)


# ---------------------------------------------------------------------------
# the cyclic collector is paused while a command runs


def _corrupt_copy(sim: Path, out: Path) -> Path:
    """Copies of a simulated corpus with every third assessment row's dob
    and every fourth court row's race invalid, so each reader's row-error
    path runs."""
    out.mkdir()
    for name, columns, every, column, bad in (
        ("psa_records.csv", PSA_COLUMNS, 3, "dob", "not-a-date"),
        ("court_cases.csv", COURT_COLUMNS, 4, "race", "Z"),
    ):
        rows = read_rows(sim / name)
        for row in rows[every - 1::every]:
            row[column] = bad
        write_table(out / name, columns, rows)
    return out


def _garbage_per_command(tmp_path: Path, n: int) -> dict[str, int]:
    """What ``gc.collect()`` finds after each command, run at ``n`` records
    with the collector off."""
    sim = tmp_path / f"sim-{n}"
    found = {}
    gc.disable()
    try:
        gc.collect()
        assert run(["simulate", "--n", n, "--seed", 5, "--out", sim]) == 0
        found["simulate"] = gc.collect()
        bad = _corrupt_copy(sim, tmp_path / f"corrupt-{n}")
        psa, court = ["--psa", bad / "psa_records.csv"], ["--court", bad / "court_cases.csv"]
        for command, args in (
            ("audit", ["audit", "--sensitivity", *psa, *court]),
            ("validate", ["validate", *psa, *court]),
            ("score", ["score", *psa]),
        ):
            gc.collect()
            assert run([*args, "--out", tmp_path / f"{command}-{n}"]) == 3
            found[command] = gc.collect()
    finally:
        gc.enable()
    return found


def test_commands_leave_no_garbage_that_grows_with_the_input(tmp_path):
    """The pause is safe only while reference counting frees what a
    command builds: garbage left for the collector must not scale with
    the record count."""
    small = _garbage_per_command(tmp_path, 300)
    large = _garbage_per_command(tmp_path, 3000)
    assert small.keys() == large.keys() == {"simulate", "audit", "validate", "score"}
    for command in small:
        assert large[command] <= small[command] + 50, (command, small, large)


@pytest.mark.parametrize("library", ["glibc", "no_mallopt", "no_c_library"])
def test_commands_run_with_or_without_mallopt(tmp_path, monkeypatch, library):
    """main fixes glibc's mmap threshold through mallopt where the C
    library has it, and runs the same without it; the outputs are the
    same either way."""
    calls = []

    def mallopt(*args):
        calls.append(args)
        return 1

    def cdll(name):
        if library == "no_c_library":
            raise OSError("no C library")
        return SimpleNamespace(mallopt=mallopt) if library == "glibc" else SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert run(["simulate", "--n", 200, "--seed", 4, "--out", tmp_path / "patched"]) == 0
    monkeypatch.undo()
    assert run(["simulate", "--n", 200, "--seed", 4, "--out", tmp_path / "real"]) == 0
    assert calls == ([(-3, 128 * 1024)] if library == "glibc" else [])
    for name in ("psa_records.csv", "court_cases.csv", "ground_truth.csv", "planted_counts.csv"):
        assert (tmp_path / "patched" / name).read_bytes() == (tmp_path / "real" / name).read_bytes()


def _live(cls) -> int:
    return sum(type(o) is cls for o in gc.get_objects())


def test_audit_frees_the_intake_before_writing_the_pairs(tmp_path, monkeypatch):
    """Once the pairs are built, no record or court case is left alive, so
    the audit_pairs.csv rows do not add to the intake's memory."""
    sim = tmp_path / "sim"
    assert run(["simulate", "--n", 2000, "--seed", 2026, "--out", sim]) == 0
    gc.collect()
    before = {cls: _live(cls) for cls in (CourtCase, PsaRecord)}
    alive = {}
    write_pairs = cli._write_pairs

    def counting(*args):
        alive.update({cls.__name__: _live(cls) - n for cls, n in before.items()})
        return write_pairs(*args)

    monkeypatch.setattr(cli, "_write_pairs", counting)
    assert run(["audit", "--sensitivity", "--psa", sim / "psa_records.csv", "--court", sim / "court_cases.csv",
                "--out", tmp_path / "audit"]) == 0
    assert alive == {"CourtCase": 0, "PsaRecord": 0}


def test_audit_pair_stage_frees_more_than_it_builds(tmp_path, monkeypatch):
    """The records, cases and link report are dropped before the pairs are
    built, and each match as its pair is built, so the traced memory
    after the pair stage is below the traced memory before it."""
    sim = tmp_path / "sim"
    assert run(["simulate", "--n", 2000, "--seed", 2026, "--out", sim]) == 0
    traced = {}
    build_audit_pairs = cli.build_audit_pairs

    def measured(*args):
        traced["before"] = tracemalloc.get_traced_memory()[0]
        result = build_audit_pairs(*args)
        traced["after"] = tracemalloc.get_traced_memory()[0]
        return result

    monkeypatch.setattr(cli, "build_audit_pairs", measured)
    tracemalloc.start()
    try:
        assert run(["audit", "--sensitivity", "--psa", sim / "psa_records.csv",
                    "--court", sim / "court_cases.csv", "--out", tmp_path / "audit"]) == 0
    finally:
        tracemalloc.stop()
    assert traced["after"] < traced["before"], traced


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_collector_and_restores_the_callers_setting(tmp_path, monkeypatch, collecting):
    seen = []
    monkeypatch.setitem(_HANDLERS, "score", lambda opts, out: seen.append(gc.isenabled()) or 0)
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [psa_row()])
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(["score", "--psa", psa, "--out", tmp_path / "ok"]) == 0
        assert seen == [False]
        assert gc.isenabled() is collecting
        # a command that ends in a config error restores it too
        assert run(["audit", "--psa", tmp_path / "missing.csv", "--court", psa, "--out", tmp_path / "bad"]) == 2
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
