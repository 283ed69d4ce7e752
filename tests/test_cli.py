import csv
import gc
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import psa_audit
import psa_audit.cli as cli
from psa_audit.cli import _HANDLERS, main
from psa_audit.counterfactual import COMPONENTS
from psa_audit.engine import SupervisionLevel
from psa_audit.io import COURT_COLUMNS, PSA_COLUMNS, read_court_cases, read_psa_records, write_csv
from psa_audit.linkage import CourtCase, PsaRecord


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
    write_csv(path, columns, [[row[c] for c in columns] for row in rows])


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


def test_missing_file_is_schema_failure(tmp_path):
    assert run(["score", "--psa", tmp_path / "nope.csv", "--out", tmp_path / "out"]) == 2


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
    ])
    cases, issues = read_court_cases(court)
    c1, c2 = cases
    assert c1.booking_charges[0] is c1.filed_charges[0] is c2.booking_charges[1]
    assert c1.booking_charges[1] is c2.filed_charges[0]
    assert [(i.row, i.record_id, i.message) for i in issues] == [
        (3, "C3", "no leading statute number in 'PC F'"),
        (4, "C4", "no leading statute number in 'PC F'"),
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
        ("2", "R2", "no leading statute number in 'PC F'"),
        ("3", "R3", "no leading statute number in 'PC F'"),
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


def test_every_command_lists_the_same_row_issues(sim_dir, tmp_path):
    bad = _corrupt_copy(sim_dir, tmp_path / "corrupt")
    psa, court = ["--psa", bad / "psa_records.csv"], ["--court", bad / "court_cases.csv"]
    errors = {}
    for command, inputs in (
        ("audit", [*psa, *court]),
        ("validate", [*psa, *court]),
        ("link", [*psa, *court]),
        ("dedupe", psa),
        ("consistency", court),
        ("score", psa),
    ):
        out = tmp_path / command
        assert run([command, *inputs, "--out", out]) == 3
        errors[command] = out / ("score_errors.csv" if command == "score" else "input_errors.csv")
    both = errors["audit"].read_bytes()
    assert errors["validate"].read_bytes() == both
    assert errors["link"].read_bytes() == both
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
    write_csv(path, columns, [
        [None, "", True, False, 0.1 + 0.2, 1e-12, SupervisionLevel.SFPDP_ACM, date(2016, 9, 1), 0, 'a, "b"'],
    ])
    assert path.read_bytes() == header + b',,true,false,0.3,1e-12,SFPDP-ACM,2016-09-01,0,"a, ""b"""\n'
    write_csv(path, columns, [])
    assert path.read_bytes() == header


def test_reader_does_not_turn_program_errors_into_row_errors(tmp_path, monkeypatch):
    def broken(text, where):
        raise TypeError("bug")

    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [psa_row("R1")])
    monkeypatch.setattr("psa_audit.io.parse_date", broken)
    with pytest.raises(TypeError):
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


def test_dedupe_command(tmp_path):
    psa = tmp_path / "psa.csv"
    write_table(psa, PSA_COLUMNS, [psa_row("R1"), psa_row("R2"), psa_row("R3", fta="")])
    out = tmp_path / "dedupe"
    assert run(["dedupe", "--psa", psa, "--out", out]) == 0
    assert len(read_rows(out / "deduped_records.csv")) == 1
    dropped = {r["record_id"]: r["reason"] for r in read_rows(out / "dedupe_dropped.csv")}
    assert dropped == {"R2": "duplicate", "R3": "incomplete"}


def test_link_command(sim_dir, tmp_path):
    out = tmp_path / "link"
    rc = run(["link", "--psa", sim_dir / "psa_records.csv",
              "--court", sim_dir / "court_cases.csv", "--out", out])
    assert rc == 0
    matches = read_rows(out / "matches.csv")
    counts = {r["stage"]: int(r["count"]) for r in read_rows(out / "counts_summary.csv")}
    assert len(matches) == 800
    assert sum(counts.values()) == 800


def test_every_run_writes_a_manifest(sim_dir, tmp_path):
    out = tmp_path / "link"
    run(["link", "--psa", sim_dir / "psa_records.csv",
         "--court", sim_dir / "court_cases.csv", "--out", out])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "link"
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


def test_rerun_audit_byte_identical(sim_dir, tmp_path):
    first = tmp_path / "first"
    rc = run(["audit", "--psa", sim_dir / "psa_records.csv",
              "--court", sim_dir / "court_cases.csv", "--out", first, "--sensitivity"])
    assert rc == 0
    second = tmp_path / "second"
    assert run(["rerun", first / "run_manifest.json", "--out", second]) == 0
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


def test_rerun_ignores_the_group_by_key_of_an_older_manifest(sim_dir, tmp_path):
    first = tmp_path / "first"
    assert run(["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv",
                "--out", first]) == 0
    manifest = json.loads((first / "run_manifest.json").read_text())
    manifest["options"]["group_by"] = "none"
    older = tmp_path / "older.json"
    older.write_text(json.dumps(manifest))
    second = tmp_path / "second"
    assert run(["rerun", older, "--out", second]) == 0
    assert _tree_bytes(second) == _tree_bytes(first)


def test_rerun_rejects_bad_manifest(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{}")
    assert run(["rerun", bad, "--out", tmp_path / "out"]) == 2
    assert run(["rerun", tmp_path / "missing.json", "--out", tmp_path / "out"]) == 2


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
        "link": [*psa, *court],
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


# ---------------------------------------------------------------------------
# settings: config files and generator settings


CONFIG_FILES = ("charge_catalog.yaml", "dmf.yaml", "weights.yaml")


def _copy_packaged_config(directory: Path) -> Path:
    from psa_audit.charges import data_path

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


_SIX = "[1, 1, 1, 1, 1, 1]"


@pytest.mark.parametrize("text", [
    None,  # no file at all
    "n_records: [50\n",  # not valid YAML
    "- 50\n",  # not a mapping
    "bogus_rate: 0.5\n",  # unknown key
    'overbooking_rate: "0.5"\n',
    "n_records: abc\n",
    "group_mix: 0.5\n",
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
])
def test_bad_gen_config_is_a_config_error(tmp_path, capsys, text):
    gen = tmp_path / "gen.yaml"
    if text is not None:
        gen.write_text(text, encoding="utf-8")
    assert run(["simulate", "--gen-config", gen, "--out", tmp_path / "out"]) == 2
    _assert_one_config_error(capsys, gen)


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


def test_bad_flag_values_are_config_errors(sim_dir, tmp_path, capsys):
    assert run(["simulate", "--n", 10, "--overbooking-rate", 1.5, "--out", tmp_path / "sim"]) == 2
    assert "overbooking_rate" in capsys.readouterr().err
    rc = run(["audit", "--psa", sim_dir / "psa_records.csv", "--court", sim_dir / "court_cases.csv",
              "--conviction-threshold", 0, "--out", tmp_path / "audit"])
    assert rc == 2
    assert "conviction_threshold" in capsys.readouterr().err


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
