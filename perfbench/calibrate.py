"""A reference for the host's CPU speed while timed children run.

The small shared hosts the benchmark runs on change the speed of each
virtual CPU by up to a factor of two within seconds, and a run's wall and
CPU time move with it.  While a timed child runs, ``Calibrator`` keeps
one helper process pinned to each CPU the benchmark may use, at low
priority (``NICE``).  Each helper times a fixed unit of standard-library
Python work (CSV parsing, a regular expression, dict building and
sorting on a built-in text) over and over, in its own CPU time.  Nothing
in the unit depends on the program under test.

A helper on the CPU the child runs on gets a slice now and then, so its
units take much longer in wall time than in CPU time; a helper on an
idle CPU runs its units straight through.  The CPU time of those
*shared* units samples the speed of the CPU at the moments the child
used it, wherever the scheduler moved the child, and takes a few per
cent of that CPU from the child.  A child's time multiplied by
``Calibrator.scale()`` is its time on a host whose shared unit takes
``REFERENCE_UNIT_S``.

Run as a script, this file is one helper: ``calibrate.py CPU`` pins
itself to CPU, prints ``ready``, times units until SIGTERM (or until its
parent is gone) and then prints one JSON line with its counts.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

#: CPU time of one shared unit on the reference host: about the median
#: on a 2-vCPU Xeon VM with Python 3.11.7.
REFERENCE_UNIT_S = 0.0095
#: At most this many helpers, one per CPU of the benchmark's affinity.
MAX_HELPERS = 8
#: Helper priority: at nice 15 a helper takes about 5% of a CPU it shares
#: with the child, twice the samples of nice 19, for a fixed cost.
NICE = 15
#: A unit shared its CPU when its wall time exceeds this many times its
#: CPU time; fewer than MIN_SHARED such units fall back to all units.
SHARED = 2.0
MIN_SHARED = 5

_ROWS = "\n".join(
    f"{i},P{i:06d},{i * 7919 % 40000}(A) PC F,2020-{1 + i % 12:02d}-{1 + i % 28:02d},name{i % 977} x"
    for i in range(3000))
_CHARGE = re.compile(r"(\d+)\(([A-Z])\) (\w+) ([FM])")


def unit() -> list:
    groups: dict[tuple[str, str], list[str]] = {}
    for row in csv.reader(io.StringIO(_ROWS)):
        match = _CHARGE.match(row[2])
        groups.setdefault((match.group(1), row[4].split()[0]), []).append(row[1].lower())
    return sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))[:10]


def unit_cpu_s() -> float:
    start = time.thread_time()
    unit()
    return time.thread_time() - start


class Calibrator:
    """Context manager: runs the helpers from entry to exit."""

    def __enter__(self) -> "Calibrator":
        self.helpers: list[subprocess.Popen] = []
        self.reports: list[dict] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0))[:MAX_HELPERS]:
                self.helpers.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True))
            for helper in self.helpers:
                helper.stdout.readline()  # "ready"
        except BaseException:
            self._stop(kill=True)
            raise
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._stop(kill=exc_type is not None)

    def _stop(self, kill: bool) -> None:
        for helper in self.helpers:
            if helper.poll() is None:
                helper.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
        for helper in self.helpers:
            try:
                out, _ = helper.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                out, _ = helper.communicate()
            lines = (out or "").strip().splitlines()
            if not kill and helper.returncode == 0 and lines:
                self.reports.append(json.loads(lines[-1]))

    def unit_s(self) -> float:
        """Mean unit time of the units that shared their CPU with other
        work, or of all units when fewer than ``MIN_SHARED`` did."""
        shared = sum(r["shared_units"] for r in self.reports)
        if shared >= MIN_SHARED:
            return sum(r["shared_cpu_s"] for r in self.reports) / shared
        units = sum(r["units"] for r in self.reports)
        if not units:
            raise RuntimeError("no calibration helper reported a unit")
        return sum(r["unit_cpu_s"] for r in self.reports) / units

    def scale(self) -> float:
        """Factor that converts a time measured inside the context to the
        reference host."""
        return REFERENCE_UNIT_S / self.unit_s()


def helper_main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    os.setpriority(os.PRIO_PROCESS, 0, NICE)
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    unit()
    print("ready", flush=True)
    report = {"cpu": cpu, "units": 0, "unit_cpu_s": 0.0, "shared_units": 0, "shared_cpu_s": 0.0}
    parent = os.getppid()
    while not stopping and os.getppid() == parent:  # also stop if the benchmark died
        wall = time.perf_counter()
        cpu_s = unit_cpu_s()
        wall = time.perf_counter() - wall
        report["units"] += 1
        report["unit_cpu_s"] += cpu_s
        if wall > SHARED * cpu_s:
            report["shared_units"] += 1
            report["shared_cpu_s"] += cpu_s
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(helper_main(int(sys.argv[1])))
