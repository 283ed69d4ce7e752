"""Command-line entry point orchestrating the pipeline end to end.

Exit codes: 0 success; 2 schema/config/usage failure; 3 the run finished
but some rows failed and were skipped; 4 the run finished but produced an
empty result set.  Every command writes a ``run_manifest.json`` next to
its outputs with everything needed to re-execute it byte-identically.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import asdict, astuple, fields, replace
from io import StringIO
from itertools import count
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from .charges import read_config
from .counterfactual import (
    COMPONENTS,
    AuditPair,
    DispositionPolicy,
    booking_charges,
    build_audit_pairs,
    changes,
    counterfactual_assess,
)
from .engine import EngineConfig, SupervisionLevel, assess, load_engine_config
from .errors import ConfigError, PsaAuditError, SchemaError
from .io import (
    PSA_COLUMNS,
    SCHEMA_DOC,
    RowIssue,
    join_charges,
    read_court_cases,
    read_psa_records,
    write_csv,
)
from .linkage import MatchResult, deduplicate, filter_complete, link_records
from .stats import (
    DEFAULT_ALPHA,
    AffectedRow,
    AffectedTable,
    RateRow,
    RateTable,
    agreement_rate,
    initial_distribution,
    proportion_affected,
    race_consistency,
    rate_table,
)
from .synth import GeneratorConfig, generate, write_dataset

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PARTIAL = 3
EXIT_EMPTY = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        _emit(SCHEMA_DOC)
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_SCHEMA
    # A command builds one large graph of records, cases, matches and pairs
    # that holds no reference cycles: reference counting frees it, and the
    # cyclic collector would only rescan it again and again, reclaiming
    # nothing.  So pause the collector for the command and restore the
    # caller's setting.  tests/test_cli.py checks that the garbage a command
    # leaves for the collector does not grow with its input.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "rerun":
            return _cmd_rerun(args)
        opts = _collect_options(args)
        out_dir = Path(args.out)
        return _dispatch(args.command, opts, out_dir)
    except PsaAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    finally:
        if collecting:
            gc.enable()


def _dispatch(command: str, opts: dict, out_dir: Path) -> int:
    """Run one command, holding back what it prints until its outputs and
    its manifest are written, so a closed stdout cannot cut the run short."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with redirect_stdout(StringIO()) as report:
        code = _HANDLERS[command](opts, out_dir)
    _write_manifest(out_dir, command, opts)
    _emit(report.getvalue())
    return code


def _emit(text: str) -> None:
    """Print ``text``.  A reader that closed the pipe early
    (``psa-audit ... | head -1``) changes neither the run nor its exit code:
    stdout then points at devnull, so the interpreter's own last flush of
    the unwritten text cannot fail either."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psa-audit",
        description="Reproduce a charge-driven pre-trial assessment and audit "
        "how booking charges that never convict move its recommendations.",
    )
    parser.add_argument("--schema", action="store_true", help="print the file schemas and exit")
    parser.add_argument("--version", action="version", version=f"psa-audit {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, *, needs_config=True):
        p.add_argument("--out", required=True, help="output directory")
        if needs_config:
            p.add_argument("--config-dir", help="directory with charge_catalog.yaml, dmf.yaml, weights.yaml")
            p.add_argument("--catalog", help="charge catalog file (overrides --config-dir)")
            p.add_argument("--dmf", help="decision matrix file (overrides --config-dir)")
            p.add_argument("--weights", help="weight config file (overrides --config-dir)")

    p = sub.add_parser("score", help="score each assessment record over its booked charges")
    p.add_argument("--psa", required=True, help="assessment records file")
    add_common(p)

    p = sub.add_parser("audit", help="full booking-vs-conviction audit pipeline")
    p.add_argument("--psa", required=True)
    p.add_argument("--court", required=True)
    p.add_argument("--sensitivity", action="store_true",
                   help="also emit tables excluding records whose only plea points outside the case")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--conviction-threshold", type=int, default=DispositionPolicy.conviction_threshold)
    p.add_argument("--plea-to-other-code", type=int, default=DispositionPolicy.plea_to_other_code)
    p.add_argument("--no-companion-zero", action="store_true")
    add_common(p)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with planted ground truth")
    p.add_argument("--n", type=int, help=f"number of records (default {GeneratorConfig.n_records})")
    p.add_argument("--seed", type=int, help=f"random seed (default {GeneratorConfig.seed})")
    for flag in _SIMULATE_RATE_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=float)
    p.add_argument("--gen-config", help="YAML file of generator settings (flags override it)")
    add_common(p)

    p = sub.add_parser("consistency", help="race-designation consistency matrix from court data")
    p.add_argument("--court", required=True)
    add_common(p, needs_config=False)

    p = sub.add_parser("validate", help="agreement of engine outputs with recorded form columns")
    p.add_argument("--psa", required=True)
    p.add_argument("--court", required=True)
    add_common(p)

    p = sub.add_parser("dedupe", help="completeness filter and de-duplication only")
    p.add_argument("--psa", required=True)
    add_common(p, needs_config=False)

    p = sub.add_parser("link", help="de-duplicate and link records to court cases")
    p.add_argument("--psa", required=True)
    p.add_argument("--court", required=True)
    add_common(p, needs_config=False)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="path to a run_manifest.json")
    p.add_argument("--out", required=True, help="output directory for the re-run")
    return parser


def _collect_options(args: argparse.Namespace) -> dict:
    skip = {"command", "schema", "out"}
    opts = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        opts[key] = str(Path(value).resolve()) if key in ("psa", "court", "config_dir", "catalog", "dmf", "weights", "gen_config") else value
    return opts


def _write_manifest(out_dir: Path, command: str, opts: dict) -> None:
    manifest = {
        "tool": "psa-audit",
        "version": __version__,
        "subcommand": command,
        "options": {k: opts[k] for k in sorted(opts)},
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_rerun(args: argparse.Namespace) -> int:
    path = Path(args.manifest)
    if not path.exists():
        raise SchemaError(f"{path}: manifest not found")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        command = manifest["subcommand"]
        opts = manifest["options"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise SchemaError(f"{path}: not a valid run manifest: {exc}") from None
    if command not in _HANDLERS:
        raise SchemaError(f"{path}: unknown subcommand {command!r}")
    # an older manifest may carry options no command reads any more; drop
    # them, so the new manifest names only what shaped the outputs
    known = _option_keys(command) | ({"resolved_generator"} if command == "simulate" else set())
    return _dispatch(command, {k: v for k, v in opts.items() if k in known}, Path(args.out))


def _option_keys(command: str) -> set[str]:
    """The option keys the parser of ``command`` defines."""
    [commands] = [a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in commands[command]._actions}


def _engine_config(opts: dict) -> EngineConfig:
    return load_engine_config(
        opts.get("config_dir"),
        catalog_path=opts.get("catalog"),
        dmf_path=opts.get("dmf"),
        weights_path=opts.get("weights"),
    )


def _policy(opts: dict) -> DispositionPolicy:
    codes = {k: opts[k] for k in ("conviction_threshold", "plea_to_other_code") if k in opts}
    try:
        return DispositionPolicy(**codes, companion_zero_rule=not opts.get("no_companion_zero", False))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_inputs(opts: dict, out_dir: Path):
    """Load the engine config and read whichever of ``--psa`` and
    ``--court`` the command takes, parsing charges with the catalog's
    derivative prefixes, and list every row issue in ``input_errors.csv``.

    Returns (config, records, cases, issues, counts); counts are the
    intake stages of ``counts_summary.csv``, where ``row_errors`` and
    ``court_row_errors`` count the rows of the record and of the case
    file that were skipped, so each file's input rows are its parsed rows
    plus its row errors.
    """
    config = _engine_config(opts)
    prefixes = config.catalog.derivative_prefixes
    records, psa_issues = read_psa_records(opts["psa"], prefixes) if "psa" in opts else ([], [])
    cases, court_issues = read_court_cases(opts["court"], prefixes) if "court" in opts else ([], [])
    issues = psa_issues + court_issues
    _write_issues(out_dir / "input_errors.csv", issues)
    psa_errors, court_errors = len(_hard_issues(psa_issues)), len(_hard_issues(court_issues))
    counts = {
        "psa_input_rows": len(records) + psa_errors,
        "court_input_rows": len(cases) + court_errors,
        "row_errors": psa_errors,
        "court_row_errors": court_errors,
        "records_parsed": len(records),
    }
    return config, records, cases, issues, counts


def _write_counts(path: Path, key: str, counts: dict) -> None:
    write_csv(path, (key, "count"), list(counts.items()))
    for k, v in counts.items():
        print(f"{k}: {v}")


def _write_issues(path: Path, issues) -> None:
    write_csv(path, ("row", "record_id", "message"), [(i.row, i.record_id, i.message) for i in issues])


def _hard_issues(issues):
    return [i for i in issues if not i.message.startswith("warning:")]


def _exit_code(produced: bool, issues) -> int:
    """EXIT_EMPTY when nothing was produced, else EXIT_PARTIAL when rows
    were skipped, else EXIT_OK."""
    if not produced:
        return EXIT_EMPTY
    if _hard_issues(issues):
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# score


#: The columns of one engine result after its sub-scores, in
#: score_results.csv and on each side of audit_pairs.csv.
_RESULT_COLUMNS = ("exclusion", "exclusion_reason", "bumpup", "bumpup_reason", "initial", "final")


_result_cells = attrgetter(*_RESULT_COLUMNS)


def cmd_score(opts: dict, out_dir: Path) -> int:
    config = _engine_config(opts)
    records, issues = read_psa_records(opts["psa"], config.catalog.derivative_prefixes)
    # every input row is a record or a hard issue, so the records, in order,
    # hold the row numbers the hard issues leave free
    skipped = {i.row for i in _hard_issues(issues)}
    record_rows = (n for n in count(1) if n not in skipped)
    rows, row_errors = [], list(issues)
    for row, rec in zip(record_rows, records):
        subs = rec.subscores
        if subs is None:
            row_errors.append(RowIssue(row=row, record_id=rec.record_id, message="missing sub-scores"))
            continue
        res = assess(subs, rec.booking_charges, False, config.dmf, config.catalog)
        rows.append((rec.record_id, subs.fta, subs.nca, subs.nvca_flag, *_result_cells(res)))
    write_csv(out_dir / "score_results.csv", ("record_id", "fta", "nca", "nvca_flag", *_RESULT_COLUMNS), rows)
    _write_issues(out_dir / "score_errors.csv", sorted(row_errors, key=attrgetter("row")))
    print(f"scored {len(rows)} records, {len(_hard_issues(row_errors))} row errors")
    return _exit_code(bool(rows), row_errors)


# ---------------------------------------------------------------------------
# audit


def _group_labels(matches: list[MatchResult], cases) -> dict[str, str]:
    """Each matched person's (sfid's) group, resolved per individual: a
    person designated B on any of their court cases is group B for all of
    their records; everyone else (missing designations included) is non-B."""
    b_people = {c.sfid for c in cases if c.race == "B"}
    return {m.psa.sfid: ("B" if m.psa.sfid in b_people else "non-B") for m in matches}


def _write_scoped_tables(path: Path, tables: dict[str, RateTable | AffectedTable], row_type: type) -> None:
    """One line per table row: its scope and n, then the row's fields."""
    rows = [(scope, t.n, *astuple(r)) for scope, t in tables.items() for r in t.rows]
    write_csv(path, ("scope", "n", *(f.name for f in fields(row_type))), rows)


def _write_summary(
    path: Path, counts: dict, tables: dict[str, RateTable], affected: dict[str, AffectedTable], alpha: float
) -> None:
    lines = ["# audit summary", ""]
    for key, value in counts.items():
        lines.append(f"{key}: {value}")
    lines.append(f"alpha: {format(alpha, '.10g')} (Bonferroni-corrected within each table)")
    lines.append("")
    for scope, t in tables.items():
        lines.append(f"[rates {scope}] n={t.n}")
        for r in t.rows:
            stat = "n/a" if r.statistic is None else format(r.statistic, ".6g")
            p = "n/a" if r.p_value is None else format(r.p_value, ".6g")
            sig = "n/a" if r.significant is None else ("*" if r.significant else "ns")
            lines.append(
                f"  {r.component}: booking={r.booking:.6g} conviction={r.conviction:.6g} "
                f"difference={r.difference:.6g} statistic={stat} p={p} {sig}"
            )
    for scope, t in affected.items():
        lines.append(f"[affected {scope}] n={t.n}")
        for r in t.rows:
            lines.append(f"  {r.component}: count={r.count} fraction={r.fraction:.6g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _SizedRows:
    """``count`` table rows that ``rows()`` makes one at a time while
    ``write_csv`` writes them, so a large table is never held whole.  It
    is sized, not a bare generator, because a caller of ``write_csv`` may
    count the rows it is given (perfbench's write hook does)."""

    __slots__ = ("_count", "_rows")

    def __init__(self, count: int, rows: Callable[[], Iterator[tuple]]):
        self._count, self._rows = count, rows

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple]:
        return self._rows()


def _write_matches(path: Path, report) -> None:
    results = report.all_results

    def rows():
        for m in results:
            yield m.psa.record_id, m.psa.sfid, m.status.value, ";".join(c.court_number for c in m.matched_cases)

    write_csv(path, ("record_id", "sfid", "status", "court_numbers"), _SizedRows(len(results), rows))


def _write_review(path: Path, unresolved) -> None:
    rows = [(m.psa.record_id, m.psa.sfid, m.psa.name, m.psa.arrest_date, m.psa.psa_date,
             join_charges(m.psa.booking_charges), m.note or "no-candidates")
            for m in unresolved]
    write_csv(path, ("record_id", "sfid", "name", "arrest_date", "psa_date", "booking_charges", "reason"), rows)


def _write_pairs(path: Path, pairs: list[AuditPair]) -> None:
    def rows():
        for p, change in zip(pairs, changes(pairs)):
            yield (p.record_id, p.group,
                   p.booking_result.subscores.nvca_flag, *_result_cells(p.booking_result),
                   p.conviction_result.subscores.nvca_flag, *_result_cells(p.conviction_result),
                   *change, p.excluded_by_sensitivity)

    write_csv(path, (
        "record_id", "group",
        *(f"{side}_{c}" for side in ("booking", "conviction") for c in ("nvca", *_RESULT_COLUMNS)),
        *(c.column for c in COMPONENTS), "excluded_by_sensitivity"), _SizedRows(len(pairs), rows))


def _write_distribution(path: Path, hists) -> None:
    rows = [(scope, h.n, int(level), level, h.counts[level - 1], h.fractions[level - 1], h.empty)
            for scope, h in hists.items() for level in SupervisionLevel]
    write_csv(path, ("scope", "n", "level_rank", "level", "count", "fraction", "empty_group"), rows)


def _audit_intake(opts: dict, out_dir: Path, policy: DispositionPolicy):
    """Read, link and pair: write ``input_errors.csv``, ``matches.csv`` and
    ``review_unresolved.csv``, and return (pairs, counts, issues).

    The records, cases and matches stay in here, so they are freed on
    return, before the pair tables are built; a pair keeps only its record
    id, its group and its two results.
    """
    config, records, cases, issues, intake = _read_inputs(opts, out_dir)

    report = link_records(records, cases)
    _write_matches(out_dir / "matches.csv", report)
    _write_review(out_dir / "review_unresolved.csv", report.unresolved)

    pairs, skipped = build_audit_pairs(report.matched, policy, config, _group_labels(report.matched, cases))

    counts = {
        **intake,
        **report.counts(),
        "not_fully_disposed": len(skipped),
        "analyzed_pairs": len(pairs),
        "sensitivity_excluded": sum(p.excluded_by_sensitivity for p in pairs),
    }
    return pairs, counts, issues


def cmd_audit(opts: dict, out_dir: Path) -> int:
    policy = _policy(opts)
    alpha = opts["alpha"]
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"--alpha must be in (0, 1), got {alpha}")
    pairs, counts, issues = _audit_intake(opts, out_dir, policy)
    _write_counts(out_dir / "counts_summary.csv", "stage", counts)

    _write_pairs(out_dir / "audit_pairs.csv", pairs)

    tables = affected = hists = {}
    if pairs:
        tables = rate_table(pairs, alpha=alpha)
        affected = proportion_affected(pairs)
        hists = initial_distribution(pairs)
    _write_scoped_tables(out_dir / "rate_table.csv", tables, RateRow)
    _write_scoped_tables(out_dir / "affected_table.csv", affected, AffectedRow)
    _write_distribution(out_dir / "initial_distribution.csv", hists)
    _write_summary(out_dir / "test_summary.txt", counts, tables, affected, alpha)
    keep = [p for p in pairs if not p.excluded_by_sensitivity] if opts.get("sensitivity") else []
    if keep:
        _write_scoped_tables(out_dir / "rate_table_sensitivity.csv",
                             rate_table(keep, alpha=alpha), RateRow)
        _write_scoped_tables(out_dir / "affected_table_sensitivity.csv",
                             proportion_affected(keep), AffectedRow)
    return _exit_code(bool(pairs), issues)


# ---------------------------------------------------------------------------
# simulate


_SIMULATE_RATE_FLAGS = (
    "overbooking_rate",
    "saturation_share",
    "duplicate_rate",
    "incomplete_rate",
    "disposed_rate",
    "plea_other_rate",
    "unmatched_rate",
)


def cmd_simulate(opts: dict, out_dir: Path) -> int:
    if "resolved_generator" in opts:
        gen_config = GeneratorConfig.from_dict(opts["resolved_generator"])
    else:
        # a flag beats the --gen-config file, which beats the default
        gen_config = GeneratorConfig()
        path = opts.get("gen_config")
        if path:
            doc = read_config(path)
            try:
                gen_config = GeneratorConfig.from_dict(doc)
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        flags = {"n": "n_records", "seed": "seed", **{f: f for f in _SIMULATE_RATE_FLAGS}}
        gen_config = replace(gen_config, **{key: opts[flag] for flag, key in flags.items() if flag in opts})
        # freeze the fully resolved generator settings into the manifest
        # options so a rerun reproduces this dataset even if defaults change
        for flag in ("gen_config", *flags):
            opts.pop(flag, None)
        opts["resolved_generator"] = asdict(gen_config)
    config = _engine_config(opts)
    dataset = generate(gen_config, config)
    write_dataset(dataset, out_dir)
    _write_counts(out_dir / "planted_counts.csv", "quantity", dataset.planted_counts())
    return EXIT_OK


# ---------------------------------------------------------------------------
# consistency / validate / dedupe / link


def cmd_consistency(opts: dict, out_dir: Path) -> int:
    _, _, cases, issues, _ = _read_inputs(opts, out_dir)
    matrix = race_consistency(cases)
    rows = [(cat, matrix.individuals[cat], *percents) for cat, percents in matrix.rows.items()]
    write_csv(out_dir / "race_consistency.csv",
              ("designation", "n_individuals") + matrix.categories, rows)
    print(f"consistency rows: {len(rows)} (multi-record individuals only)")
    return _exit_code(bool(rows), issues)


def cmd_validate(opts: dict, out_dir: Path) -> int:
    config, records, cases, issues, _ = _read_inputs(opts, out_dir)
    report = link_records(records, cases)
    comparisons = {c.name: [] for c in COMPONENTS}
    mismatches = []
    for m in report.matched:
        rec = m.psa
        if rec.fta is None or rec.nca is None:
            continue
        res = counterfactual_assess(rec, booking_charges(m), config)
        for c in COMPONENTS:
            recorded = c.recorded(rec)
            if recorded is None:
                continue
            engine_value = c.read(res)
            comparisons[c.name].append((engine_value, recorded))
            if engine_value != recorded:
                mismatches.append((rec.record_id, c.name, engine_value, recorded))

    rows = []
    for component, pairs in comparisons.items():
        agree = sum(e == r for e, r in pairs)
        rate = agreement_rate(*zip(*pairs)) if pairs else None
        rows.append((component, len(pairs), agree, rate))
        print(f"{component}: {agree}/{len(pairs)}"
              + (" (no comparable rows)" if rate is None else f" = {rate:.6g}"))
    write_csv(out_dir / "validation_report.csv", ("component", "n", "agree", "agreement_rate"), rows)
    write_csv(out_dir / "validation_mismatches.csv", ("record_id", "component", "engine", "recorded"),
              mismatches)
    return _exit_code(any(comparisons.values()), issues)


def cmd_dedupe(opts: dict, out_dir: Path) -> int:
    _, records, _, issues, _ = _read_inputs(opts, out_dir)
    complete, incomplete = filter_complete(records)
    unique, duplicates = deduplicate(complete)
    rows = [[join_charges(r.booking_charges) if c == "booking_charges" else getattr(r, c) for c in PSA_COLUMNS]
            for r in unique]
    write_csv(out_dir / "deduped_records.csv", PSA_COLUMNS, rows)
    dropped = [(r.record_id, "incomplete") for r in incomplete]
    dropped += [(r.record_id, "duplicate") for r in duplicates]
    write_csv(out_dir / "dedupe_dropped.csv", ("record_id", "reason"), dropped)
    print(f"kept {len(unique)}, dropped {len(incomplete)} incomplete, {len(duplicates)} duplicates")
    return _exit_code(bool(unique), issues)


def cmd_link(opts: dict, out_dir: Path) -> int:
    _, records, cases, issues, _ = _read_inputs(opts, out_dir)
    report = link_records(records, cases)
    _write_matches(out_dir / "matches.csv", report)
    _write_review(out_dir / "review_unresolved.csv", report.unresolved)
    _write_counts(out_dir / "counts_summary.csv", "stage", report.counts())
    return _exit_code(bool(report.matched), issues)


_HANDLERS = {
    "score": cmd_score,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
    "consistency": cmd_consistency,
    "validate": cmd_validate,
    "dedupe": cmd_dedupe,
    "link": cmd_link,
}


if __name__ == "__main__":
    sys.exit(main())
