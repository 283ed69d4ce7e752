"""Tests of the benchmark's own parts, on small corpora.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import corpus
import run
import tracer
from psa_audit.charges import default_catalog, parse_charge_code
from psa_audit.cli import main as cli_main

N = 2000
BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    return out, corpus.prepare(out, n_records=N, seed=corpus.SEED, wide_extra=100)


def _audit(inputs_dir: Path, name: str, out: Path) -> int:
    return cli_main(["audit", "--sensitivity", "--psa", str(inputs_dir / name / "psa_records.csv"),
                     "--court", str(inputs_dir / name / "court_cases.csv"), "--out", str(out)])


@pytest.mark.parametrize("name", ["default", "wide"])
def test_audit_recovers_planted_truth_and_reruns_identically(inputs, name, tmp_path):
    inputs_dir, manifest = inputs
    planted = manifest["corpora"][name]["planted"]
    assert _audit(inputs_dir, name, tmp_path / "a") == 0
    assert _audit(inputs_dir, name, tmp_path / "b") == 0
    assert checks.check_audit(tmp_path / "a", planted) == []
    assert checks.tree_hash(tmp_path / "a") == checks.tree_hash(tmp_path / "b")


def test_simulate_matches_the_generated_corpus(inputs, tmp_path):
    _, manifest = inputs
    assert cli_main(["simulate", "--n", str(N), "--seed", str(corpus.SEED), "--out", str(tmp_path)]) == 0
    assert checks.check_simulate(tmp_path, manifest["corpora"]["default"]) == []
    (tmp_path / "psa_records.csv").write_text("changed\n", encoding="utf-8")
    assert checks.check_simulate(tmp_path, manifest["corpora"]["default"])


def _rewrite(path: Path, column: str, match: dict, value) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if all(row[k] == v for k, v in match.items()):
            row[column] = str(value)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_checks_catch_a_wrong_affected_count_and_lost_records(inputs, tmp_path):
    inputs_dir, manifest = inputs
    planted = manifest["corpora"]["default"]["planted"]
    assert _audit(inputs_dir, "default", tmp_path) == 0
    before = checks.tree_hash(tmp_path)
    _rewrite(tmp_path / "affected_table.csv", "count", {"scope": "all", "component": "recommendation"},
             planted["affected"] + 1)
    _rewrite(tmp_path / "counts_summary.csv", "count", {"stage": "matched"}, 0)
    problems = checks.check_audit(tmp_path, planted)
    assert any(p.startswith("affected") for p in problems)
    assert any(p.startswith("link partitions") for p in problems)
    assert checks.tree_hash(tmp_path) != before


def test_wide_pools_are_deterministic_and_off_catalog():
    catalog = default_catalog()
    pools = corpus.wide_charge_pools(7, catalog, extra=50)
    assert pools == corpus.wide_charge_pools(7, catalog, extra=50)
    assert pools != corpus.wide_charge_pools(8, catalog, extra=50)
    texts = pools["neutral_felonies"] + pools["neutral_misdemeanors"]
    assert len(set(texts)) == len(texts) == 2 * 50 + 9
    for text in texts:
        code = parse_charge_code(text, catalog.derivative_prefixes)
        assert not (catalog.is_violent(code) or catalog.is_exclusion_charge(code)
                    or catalog.is_bumpup_charge(code))


def test_pins_report_every_difference(inputs):
    _, manifest = inputs
    assert corpus.pin_mismatches(manifest, manifest) == []
    changed = json.loads(json.dumps(manifest))
    changed["corpora"]["wide"]["files"]["court_cases.csv"] = "0" * 64
    changed["corpora"]["default"]["planted"]["affected"] += 1
    assert len(corpus.pin_mismatches(manifest, changed)) == 2


def test_traced_run_reports_every_layer_and_accounts_for_its_wall_time(inputs, tmp_path):
    inputs_dir, manifest = inputs
    trace_json = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    argv = [sys.executable, str(BENCH / "tracer.py"), "--json", str(trace_json), "--",
            "audit", "--sensitivity", "--psa", str(inputs_dir / "default" / "psa_records.csv"),
            "--court", str(inputs_dir / "default" / "court_cases.csv"), "--out", str(tmp_path / "out")]
    assert subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, timeout=120).returncode == 0
    assert checks.check_audit(tmp_path / "out", manifest["corpora"]["default"]["planted"]) == []

    trace = json.loads(trace_json.read_text(encoding="utf-8"))
    metrics = tracer.layer_metrics(trace)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["charges.parse_distinct"] == 19
    assert 0 < metrics["engine.assess_distinct"] <= metrics["engine.assess_calls"]
    assert metrics["counterfactual.pairs"] * 2 == metrics["engine.assess_calls"]
    court_rows = (inputs_dir / "default" / "court_cases.csv").read_text(encoding="utf-8").count("\n") - 1
    assert metrics["io.rows_read"] == N + court_rows
    root = trace["spans"][0]
    children = sum(s["end"] - s["start"] for s in trace["spans"] if s["parent"] == root["id"])
    assert children + metrics["cli.self_s"] == pytest.approx(trace["wall_s"], abs=1e-9)
    assert metrics["cli.self_s"] < 0.5 * trace["wall_s"]


def test_spawn_reports_the_child_exit_code_and_peak_rss(tmp_path):
    sample = run.spawn([sys.executable, "-c", "import sys; b = bytearray(64 << 20); sys.exit(3)"],
                       tmp_path / "child.log", timeout=60)
    assert sample["exit_code"] == 3
    assert sample["peak_rss_mb"] >= 64
    assert sample["wall_s"] > 0 and sample["cpu_s"] > 0


def test_calibrator_samples_the_cpu_a_busy_child_runs_on(tmp_path):
    calibrator = calibrate.Calibrator()
    sample = run.spawn([sys.executable, "-c", "import time\nend = time.time() + 3\nwhile time.time() < end: pass"],
                       tmp_path / "child.log", timeout=60, calibrator=calibrator)
    assert sample["exit_code"] == 0
    assert all(helper.poll() is not None for helper in calibrator.helpers)
    assert len(calibrator.reports) == min(len(os.sched_getaffinity(0)), calibrate.MAX_HELPERS)
    if len(calibrator.reports) > 1:  # one helper shared the child's CPU, another ran alone
        assert sum(r["shared_units"] for r in calibrator.reports) >= 1
        assert sum(r["units"] for r in calibrator.reports) > 100
    assert 0.1 < calibrator.scale() < 10
