"""Correctness checks on one run's ``--out`` tree.

Each check returns a list of problems; an empty list means the run's
outputs are correct.  Only the standard library is used, so the checks
read the files exactly as a user of the tool would.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from corpus import CORPUS_FILES, sha256_file


def tree_hash(root: Path) -> str:
    """SHA-256 over every file's relative path and content under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(sha256_file(path).encode() + b"\n")
    return digest.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _counts(path: Path, key: str, value: str) -> dict[str, int]:
    return {row[key]: int(row[value]) for row in _read_csv(path)}


def check_audit(out: Path, planted: dict) -> list[str]:
    """Planted truth is recovered and every record is accounted for."""
    problems = []
    for name in ("counts_summary.csv", "affected_table.csv"):
        if not (out / name).is_file():
            return [f"{name} missing"]
    counts = _counts(out / "counts_summary.csv", "stage", "count")
    affected = [
        int(row["count"])
        for row in _read_csv(out / "affected_table.csv")
        if row["scope"] == "all" and row["component"] == "recommendation"
    ]
    if affected != [planted["affected"]]:
        problems.append(f"affected {affected}, planted {planted['affected']}")
    for stage, truth in (("dropped_duplicates", "duplicates"),
                         ("dropped_incomplete", "incomplete"),
                         ("unresolved", "unmatched")):
        if counts.get(stage) != planted[truth]:
            problems.append(f"{stage} {counts.get(stage)}, planted {truth} {planted[truth]}")
    parsed = counts.get("records_parsed")
    if counts.get("psa_input_rows") != parsed + counts.get("row_errors", 0):
        problems.append(f"psa_input_rows {counts.get('psa_input_rows')} != records_parsed + row_errors")
    partitions = sum(counts.get(k, 0) for k in ("matched", "unresolved", "dropped_incomplete", "dropped_duplicates"))
    if partitions != parsed:
        problems.append(f"link partitions sum to {partitions}, records_parsed {parsed}")
    return problems


def check_simulate(out: Path, pinned: dict) -> list[str]:
    """The generated files and planted counts equal the pinned corpus."""
    problems = []
    if not (out / "planted_counts.csv").is_file():
        return ["planted_counts.csv missing"]
    planted = _counts(out / "planted_counts.csv", "quantity", "count")
    if planted != pinned["planted"]:
        problems.append(f"planted counts {planted}, pinned {pinned['planted']}")
    for name in CORPUS_FILES:
        path = out / name
        got = sha256_file(path) if path.is_file() else None
        if got != pinned["files"][name]:
            problems.append(f"{name} sha256 {got}, pinned {pinned['files'][name]}")
    return problems
