"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces functions where their callers look them
up (``assess`` in ``counterfactual`` and in ``synth``, among others).  A
refactor that drops one of those lookups breaks the traced benchmark run
without failing the untraced commands, so each traced command is run here
on a small corpus and its counts are checked against the outputs.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import psa_audit

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def traced(trace: Path, *command) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(psa_audit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(TRACER), "--json", str(trace), "--", *map(str, command)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["exit_code"] == 0
    return doc


def test_traced_simulate_and_audit_count_every_assess(tmp_path):
    sim = tmp_path / "sim"
    doc = traced(tmp_path / "simulate.json", "simulate", "--n", 300, "--seed", 2026, "--out", sim)
    with open(sim / "planted_counts.csv", newline="", encoding="utf-8") as fh:
        planted = {row["quantity"]: int(row["count"]) for row in csv.DictReader(fh)}
    # one assess per base record: duplicates copy a row, incomplete rows are not scored
    scored = planted["records"] - planted["duplicates"] - planted["incomplete"]
    assert doc["totals"]["engine.assess"]["calls"] == scored > 0
    # the pool check and the generator share one memo, so each pool text is parsed once
    assert doc["totals"]["charges.parse"]["calls"] == doc["distinct"]["charges.parse"] > 0

    out = tmp_path / "audit"
    doc = traced(tmp_path / "audit.json", "audit", "--sensitivity", "--psa", sim / "psa_records.csv",
                 "--court", sim / "court_cases.csv", "--out", out)
    pairs = doc["counts"]["counterfactual.pairs"]
    assert pairs > 0
    assert doc["totals"]["engine.assess"]["calls"] == 2 * pairs
    # both readers share one memo of charge texts, so each is parsed once per run
    assert doc["totals"]["charges.parse"]["calls"] == doc["distinct"]["charges.parse"] > 0
    # the table layer: the main and the sensitivity scope's rate and
    # affected tables, the main scope's distribution, and one write per file
    calls = {name: doc["totals"][name]["calls"]
             for name in ("stats.rate_table", "stats.affected", "stats.distribution", "io.write")}
    assert calls == {"stats.rate_table": 2, "stats.affected": 2, "stats.distribution": 1,
                     "io.write": len(list(out.glob("*.csv")))}
