"""Benchmark of one ``psa-audit`` command per workload, run from a checkout.

    python3 perfbench/run.py --workload audit-100k --seed 1 --seconds 10 --trace 0

Each run of the program is a fresh child process (``python3 -m
psa_audit.cli`` with the checkout's ``src`` on ``PYTHONPATH``), one at a
time.  The program receives only generated files.

Inputs.  The first run in a checkout generates every corpus through
``psa_audit.synth`` (``corpus.py``) under ``perfbench/_work/inputs``; the
widened corpus alone takes about two minutes, so later runs reuse the
files.  Every run hashes the files it uses and fails when they differ
from ``pins.json``, so a generator change cannot silently change what is
measured.  The corpora are the seed-2026 ones the workloads are defined
on; ``--seed`` seeds only the benchmark's own schedule, namely how many
of the set-up runs go before the measured runs and how many after.

``--trace 0`` runs the workload command back to back until ``--seconds``
have been measured (at least once) and the set-up command ``SETUP_RUNS``
times, and reports the end-to-end metrics: medians of wall time, child
CPU time and child peak RSS over the measured runs, the median set-up
time, and the share of runs that passed.  Wall, CPU and set-up times are
reported at the speed of a reference host: each is multiplied by the
factor ``calibrate.Calibrator`` measured on the CPUs while that child
ran, because the shared hosts this runs on change speed by up to a
factor of two within seconds.  The uncalibrated times and the factors
are printed too, and kept in the result set.

``--trace 1`` runs the command once under ``tracer.py`` and reports the
per-layer metrics, with the tracing overhead as the traced wall time
minus the median untraced wall time of this checkout's earlier runs (one
untraced run is made first when there are none).

Every run is checked: exit code, planted truth and record conservation
(``checks.py``), and a hash of the whole ``--out`` tree that must equal
the one every earlier run of the same source recorded.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit, and the run context (Python version, nproc, git sha,
source digest, load average) goes with the result set into
``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import corpus
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
INPUTS = WORK / "inputs"
STATE = WORK / "state.json"

SETUP_RUNS = 15
#: Wall-clock budget of one invocation's child runs once the inputs exist,
#: so that an invocation ends within three minutes even if a child hangs.
RUN_BUDGET_S = 160.0

#: workload -> corpus its audit reads (None: the command generates it)
WORKLOADS = {"audit-100k": "default", "audit-wide-100k": "wide", "simulate-100k": None}


def workload_command(workload: str, out: Path, setup: bool = False) -> list[str]:
    corpus_name = WORKLOADS[workload]
    if corpus_name is None:
        n = 0 if setup else corpus.N_RECORDS
        return ["simulate", "--n", str(n), "--seed", str(corpus.SEED), "--out", str(out)]
    inputs = INPUTS / ("empty" if setup else corpus_name)
    return ["audit", "--sensitivity", "--psa", str(inputs / "psa_records.csv"),
            "--court", str(inputs / "court_cases.csv"), "--out", str(out)]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path, timeout: float, calibrator=contextlib.nullcontext()) -> dict:
    """Run one child to completion; wall time is spawn to exit, CPU time
    and peak RSS come from the child's own rusage.  ``calibrator`` is
    entered around the child's whole life."""
    with open(log, "wb") as fh, calibrator:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """The checkout's commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg": list(os.getloadavg()),
    }


def ensure_inputs() -> dict:
    """Generate the corpora once per checkout; returns their manifest."""
    manifest = INPUTS / "manifest.json"
    if not manifest.is_file():
        staging = WORK / "inputs.partial"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        subprocess.run([sys.executable, str(BENCH / "corpus.py"), "--out", str(staging)],
                       cwd=ROOT, env=child_env(), check=True, timeout=800)
        shutil.rmtree(INPUTS, ignore_errors=True)
        staging.rename(INPUTS)
    return json.loads(manifest.read_text(encoding="utf-8"))


def input_problems(workload: str, manifest: dict, pins: dict) -> list[str]:
    """Differences between this workload's inputs and their pins: the
    manifest generated in this checkout, and the bytes on disk now."""
    problems = corpus.pin_mismatches(manifest, pins)
    corpus_name = WORKLOADS[workload]
    for name in ("empty",) + ((corpus_name,) if corpus_name else ()):
        for fname, pinned in pins["corpora"][name]["files"].items():
            path = INPUTS / name / fname
            if not path.is_file() or corpus.sha256_file(path) != pinned:
                problems.append(f"{name}/{fname} on disk differs from its pin")
    return problems


class Runner:
    """Runs and checks the children of one benchmark invocation."""

    def __init__(self, workload: str, pins: dict, state: dict, deadline: float):
        self.workload = workload
        self.pins = pins
        self.state = state
        self.deadline = deadline
        self.out = WORK / "out" / workload
        self.logs = WORK / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def _python(self, argv: list[str], log_name: str, **kwargs) -> dict:
        self.attempted += 1
        return spawn([sys.executable] + argv, self.logs / log_name, self.deadline - perf_counter(), **kwargs)

    def setup(self) -> dict:
        out = WORK / "out" / f"{self.workload}-setup"
        shutil.rmtree(out, ignore_errors=True)
        sample = self._python(["-m", "psa_audit.cli"] + workload_command(self.workload, out, setup=True),
                              f"{self.workload}-setup.log")
        # header-only audit inputs give an empty result set, exit code 4
        expected = 0 if WORKLOADS[self.workload] is None else 4
        if sample["exit_code"] != expected:
            self._fail("setup", [f"exit code {sample['exit_code']}, expected {expected}"])
        return sample

    def measured(self, trace_json: Path | None = None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["-m", "psa_audit.cli"]
        if trace_json is not None:
            argv = [str(BENCH / "tracer.py"), "--json", str(trace_json), "--"]
        calibrator = calibrate.Calibrator()
        sample = self._python(argv + workload_command(self.workload, self.out),
                              f"{self.workload}{'-traced' if trace_json else ''}.log", calibrator=calibrator)
        sample["scale"] = calibrator.scale()
        problems = self.check(sample["exit_code"])
        if problems:
            self._fail("traced run" if trace_json else "run", problems)
        return sample

    def check(self, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        corpus_name = WORKLOADS[self.workload]
        if corpus_name is None:
            problems = checks.check_simulate(self.out, self.pins["corpora"]["default"])
        else:
            problems = checks.check_audit(self.out, self.pins["corpora"][corpus_name]["planted"])
        tree = checks.tree_hash(self.out)
        first = self.state["tree_sha256"].setdefault(self.workload, tree)
        if tree != first:
            problems.append(f"--out tree sha256 {tree} differs from earlier runs' {first}")
        return problems


def load_state(digest: str) -> dict:
    """Per-checkout record of earlier runs of the same source."""
    if STATE.is_file():
        state = json.loads(STATE.read_text(encoding="utf-8"))
        if state.get("source_sha256") == digest:
            return state
    return {"source_sha256": digest, "tree_sha256": {}, "untraced_wall_s": {}}


def setup_batch(runner: Runner, count: int) -> list[dict]:
    if not count:
        return []
    with calibrate.Calibrator() as calibrator:
        setups = [runner.setup() for _ in range(count)]
    for sample in setups:
        sample["scale"] = calibrator.scale()
    return setups


def measure_untraced(runner: Runner, seconds: float, seed: int) -> dict[str, float]:
    before = random.Random(seed).randint(0, SETUP_RUNS)
    setups = setup_batch(runner, before)
    runs = []
    start = perf_counter()
    while not runs or (perf_counter() - start < seconds and perf_counter() < runner.deadline):
        runs.append(runner.measured())
    setups += setup_batch(runner, SETUP_RUNS - before)
    walls = runner.state["untraced_wall_s"].setdefault(runner.workload, [])
    walls.append(statistics.median(r["wall_s"] for r in runs))
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "host_scale": statistics.median(r["scale"] for r in runs),
        "wall_ref_s": statistics.median(r["wall_s"] * r["scale"] for r in runs),
        "cpu_ref_s": statistics.median(r["cpu_s"] * r["scale"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_raw_s": statistics.median(s["wall_s"] for s in setups),
        "setup_s": statistics.median(s["wall_s"] * s["scale"] for s in setups),
    }


def measure_traced(runner: Runner, seed: int) -> dict[str, float]:
    walls = runner.state["untraced_wall_s"].get(runner.workload) or []
    if not walls:
        walls.append(runner.measured()["wall_s"])
        runner.state["untraced_wall_s"][runner.workload] = walls
    trace_json = WORK / "traces" / f"{runner.workload}-seed{seed}.json"
    trace_json.parent.mkdir(parents=True, exist_ok=True)
    trace_json.unlink(missing_ok=True)
    sample = runner.measured(trace_json)
    metrics = {name: 0 for name in tracer.LAYER_METRICS}
    if trace_json.is_file():  # absent only when the traced run crashed, which failed it
        metrics.update(tracer.layer_metrics(json.loads(trace_json.read_text(encoding="utf-8"))))
    metrics["trace.wall_s"] = sample["wall_s"]
    metrics["trace.overhead_s"] = sample["wall_s"] - statistics.median(walls)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="psa-audit benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "psa_audit" / "cli.py").is_file():
        print(f"error: no psa_audit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    context = run_context(args)
    WORK.mkdir(exist_ok=True)
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    manifest = ensure_inputs()
    # the first run in a checkout also generates the inputs; the budget
    # for the measured children starts after that
    deadline = perf_counter() + RUN_BUDGET_S
    state = load_state(context["source_sha256"])
    runner = Runner(args.workload, pins, state, deadline)
    bad_inputs = input_problems(args.workload, manifest, pins)

    if args.trace:
        values, metric_specs = measure_traced(runner, args.seed), spec["per_layer"]
    else:
        values, metric_specs = measure_untraced(runner, args.seconds, args.seed), spec["end_to_end"]
    if bad_inputs:  # nothing measured on inputs that differ from their pins counts
        runner.failed = runner.attempted
        runner.problems += [f"inputs: {p}" for p in bad_inputs]
    values["ok_share"] = (runner.attempted - runner.failed) / runner.attempted
    STATE.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "problems": runner.problems, "values": values, **result},
                   indent=1) + "\n",
        encoding="utf-8")

    print("context: " + json.dumps(context, sort_keys=True))
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    for name in sorted(set(values) - set(metrics)):  # uncalibrated times and the host's speed factor
        print(f"{args.workload} {name} = {values[name]} (not a metric)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
