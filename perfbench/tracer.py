"""Run one ``psa-audit`` command with spans around each module's calls.

    PYTHONPATH=src python3 perfbench/tracer.py --json TRACE.json -- audit --psa ... --out ...

Nothing inside the package changes: each public function is replaced,
where its caller looks it up, by a wrapper that records its time and
counts.  Coarse calls (a reader, the linker, a table writer) become one
span each with name, start, end and parent.  Hot calls (charge parsing,
catalog lookups, ``assess``, candidate search) are aggregated per
(name, parent), since one span per call would cost more than the call.
The trace, with per-layer counts and the self time of every name, is
written as JSON when the command ends; the exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans and counters of one traced run, kept in memory until dumped.

    The stack holds the id (an int) of each open span or the name (a str)
    of each open hot call, so every record knows what encloses it."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self.hot: dict[tuple, list] = {}  # (name, parent) -> [calls, total_s]
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.stack: list = []

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self.stack[-1] if self.stack else None,
                  "start": perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            self.stack.pop()
            record["end"] = perf_counter() - self.origin

    def wrap_span(self, owner, attr: str, name: str, count=None) -> None:
        """One span per call; ``count(args, result)`` adds counters."""
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
                if count is not None:
                    count(args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_hot(self, owner, attr: str, name: str, key=None, count=None) -> None:
        """Aggregated time per (name, parent); ``key(args)`` feeds the
        distinct-input count of ``name``."""
        inner = getattr(owner, attr)
        stack, hot = self.stack, self.hot
        seen = self.distinct.setdefault(name, set()) if key is not None else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                cell = hot.get((name, parent))
                if cell is None:
                    hot[(name, parent)] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
                if seen is not None:
                    seen.add(key(args))
                if count is not None:
                    count(args)

        setattr(owner, attr, wrapper)

    def totals(self) -> dict[str, dict]:
        """Calls, inclusive time and self time per name.  Self time is the
        inclusive time minus what the child spans and hot calls cover."""
        out: dict[str, dict] = {}
        child_time: dict = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        for s in self.spans:
            duration = s["end"] - s["start"]
            e = entry(s["name"])
            e["calls"] += 1
            e["total_s"] += duration
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration
        for (name, parent), (calls, total) in self.hot.items():
            e = entry(name)
            e["calls"] += calls
            e["total_s"] += total
            child_time[parent] = child_time.get(parent, 0.0) + total
        for s in self.spans:
            out[s["name"]]["self_s"] += (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        for name in {n for n, _ in self.hot}:
            out[name]["self_s"] += out[name]["total_s"] - child_time.get(name, 0.0)
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [{"name": n, "parent": p, "calls": c, "total_s": t}
                    for (n, p), (c, t) in sorted(self.hot.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
            "distinct": {name: len(keys) for name, keys in sorted(self.distinct.items())},
            "totals": self.totals(),
        }


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public calls where their callers look them up."""
    import psa_audit.charges as charges
    import psa_audit.cli as cli
    import psa_audit.counterfactual as counterfactual
    import psa_audit.io as io
    import psa_audit.linkage as linkage
    import psa_audit.synth as synth

    def read(args, result):
        records, issues = result
        skipped = sum(1 for i in issues if not i.message.startswith("warning:"))
        tracer.add("io.rows_read", len(records) + skipped)
        tracer.add("io.row_issues", len(issues))

    def written(args, result):
        tracer.add("io.rows_written", len(args[2]))
        tracer.add("io.bytes_written", os.path.getsize(args[0]))

    tracer.wrap_span(cli, "read_psa_records", "io.read_psa", read)
    tracer.wrap_span(cli, "read_court_cases", "io.read_court", read)
    for module in (cli, synth):
        tracer.wrap_span(module, "write_csv", "io.write", written)

    # the readers' and the generator's parses; the catalog's own pattern
    # parses stay inside engine.config_load
    for module in (io, synth):
        tracer.wrap_hot(module, "parse_charge_code", "charges.parse", key=lambda a: a[0])
    for method in ("is_violent", "is_exclusion_charge", "is_bumpup_charge"):
        tracer.wrap_hot(charges.ChargeCatalog, method, "charges.catalog")

    tracer.wrap_span(cli, "load_engine_config", "engine.config_load")
    for module in (cli, counterfactual, synth):
        tracer.wrap_hot(module, "assess", "engine.assess", key=lambda a: (a[0], tuple(a[1]), a[2]))

    tracer.wrap_span(cli, "link_records", "linkage.link",
                     lambda a, r: tracer.add("linkage.matched", len(r.matched)))
    tracer.wrap_hot(linkage, "find_candidates", "linkage.find_candidates",
                    count=lambda a: tracer.add("linkage.cases_scanned", len(a[1])))

    def pairs(args, result):
        tracer.add("counterfactual.pairs", len(result[0]))
        tracer.add("counterfactual.skipped", len(result[1]))

    tracer.wrap_span(cli, "build_audit_pairs", "counterfactual.build_pairs", pairs)

    tracer.wrap_span(cli, "rate_table", "stats.rate_table")
    tracer.wrap_span(cli, "proportion_affected", "stats.affected")
    tracer.wrap_span(cli, "initial_distribution", "stats.distribution")

    tracer.wrap_span(cli, "generate", "synth.generate",
                     lambda a, r: tracer.add("synth.rows_generated",
                                             len(r.psa_rows) + len(r.court_rows) + len(r.truth_rows)))
    tracer.wrap_span(cli, "write_dataset", "synth.write_dataset")


#: Per-layer metric -> (source, name, field) in a dumped trace.
LAYER_METRICS = {
    "io.read_psa_s": ("totals", "io.read_psa", "total_s"),
    "io.read_court_s": ("totals", "io.read_court", "total_s"),
    "io.rows_read": ("counts", "io.rows_read", None),
    "io.row_issues": ("counts", "io.row_issues", None),
    "io.write_s": ("totals", "io.write", "total_s"),
    "io.rows_written": ("counts", "io.rows_written", None),
    "io.bytes_written": ("counts", "io.bytes_written", None),
    "charges.parse_calls": ("totals", "charges.parse", "calls"),
    "charges.parse_distinct": ("distinct", "charges.parse", None),
    "charges.parse_s": ("totals", "charges.parse", "total_s"),
    "charges.catalog_lookups": ("totals", "charges.catalog", "calls"),
    "charges.catalog_s": ("totals", "charges.catalog", "total_s"),
    "engine.config_load_s": ("totals", "engine.config_load", "total_s"),
    "engine.assess_calls": ("totals", "engine.assess", "calls"),
    "engine.assess_distinct": ("distinct", "engine.assess", None),
    "engine.assess_s": ("totals", "engine.assess", "total_s"),
    "linkage.link_s": ("totals", "linkage.link", "total_s"),
    "linkage.find_candidates_s": ("totals", "linkage.find_candidates", "total_s"),
    "linkage.cases_scanned": ("counts", "linkage.cases_scanned", None),
    "linkage.matched": ("counts", "linkage.matched", None),
    "counterfactual.build_pairs_s": ("totals", "counterfactual.build_pairs", "total_s"),
    "counterfactual.pairs": ("counts", "counterfactual.pairs", None),
    "counterfactual.skipped": ("counts", "counterfactual.skipped", None),
    "stats.rate_table_s": ("totals", "stats.rate_table", "total_s"),
    "stats.affected_s": ("totals", "stats.affected", "total_s"),
    "stats.distribution_s": ("totals", "stats.distribution", "total_s"),
    "synth.generate_s": ("totals", "synth.generate", "total_s"),
    "synth.write_dataset_s": ("totals", "synth.write_dataset", "total_s"),
    "synth.rows_generated": ("counts", "synth.rows_generated", None),
    "cli.import_s": ("totals", "cli.import", "total_s"),
    "cli.self_s": ("totals", "cli", "self_s"),
}


def layer_metrics(trace: dict) -> dict[str, float | int]:
    """The per-layer metrics of one dumped trace; a layer the command never
    entered reads 0."""
    out = {}
    for metric, (source, name, field) in LAYER_METRICS.items():
        value = trace[source].get(name, 0)
        out[metric] = value.get(field, 0) if isinstance(value, dict) else value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one psa-audit command traced")
    parser.add_argument("--json", required=True, help="where to write the trace")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="psa-audit arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    with tracer.span("cli") as root:
        with tracer.span("cli.import"):
            import psa_audit.cli
        instrument(tracer)
        code = psa_audit.cli.main(command)
    doc = tracer.dump()
    doc["command"] = command
    doc["exit_code"] = code
    doc["wall_s"] = root["end"] - root["start"]
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
