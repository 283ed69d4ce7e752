"""Command-line entry point orchestrating the pipeline end to end.

Exit codes: 0 success; 2 schema/config/usage failure; 3 the run finished
but some rows failed and were skipped; 4 the run finished but produced an
empty result set.  Every command writes a ``run_manifest.json`` next to
its outputs with everything needed to re-execute it byte-identically.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import asdict, fields, replace
from io import StringIO
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
from .engine import EngineConfig, PsaResult, assess, config_path, load_engine_config
from .errors import ConfigError, PsaAuditError, SchemaError
from .io import (
    FLAG_TEXT,
    PSA_COLUMNS,
    SCHEMA_DOC,
    RowIssue,
    _ColumnMemos,
    _Items,
    _hard_issues,
    _item_rows,
    join_charges,
    read_court_cases,
    read_psa_records,
    render_cell,
    write_csv,
)
from .linkage import deduplicate, filter_complete, link_records
from .stats import (
    DEFAULT_ALPHA,
    AffectedRow,
    LevelRow,
    RateRow,
    Table,
    TallyEntry,
    agreement_rate,
    count_by,
    initial_distribution,
    proportion_affected,
    race_consistency,
    rate_table,
    tally,
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
    _map_large_blocks()
    try:
        if args.command == "rerun":
            return _cmd_rerun(args)
        return _dispatch(args.command, _collect_options(args.command, args), Path(args.out))
    except PsaAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    finally:
        if collecting:
            gc.enable()


#: glibc's mallopt parameter for the size from which a block gets its own
#: mapping, and its default value.
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD = -3, 128 * 1024


def _map_large_blocks() -> None:
    """Keep glibc's malloc giving each block of 128 KiB or more a mapping
    of its own, which goes back to the system when it is freed.  By
    default glibc raises that threshold to the size of every such block
    freed, and the intake frees large memo tables as it goes (the record
    reader's per-file tables when it returns, the shared ones when
    ``_read_inputs`` returns); later large blocks then come from the
    heap, under blocks the run keeps, and stay resident, so the wide
    100k audit's peak read 85.6-87.9 MB with the length of the
    checkout's path alone, and 84.6-85.0 MB with the threshold fixed.
    Where the C library has no ``mallopt``, this does nothing.  The
    setting lasts for the process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _dispatch(command: str, opts: dict, out_dir: Path) -> int:
    """Run one command, holding back what it prints until its outputs and
    its manifest are written, so a closed stdout cannot cut the run short.
    A run that fails before it writes anything leaves no ``out_dir`` that
    it made."""
    made = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path, or above it
        raise SchemaError(f"{out_dir}: cannot make the output directory: {exc.strerror or exc}") from None
    try:
        with redirect_stdout(StringIO()) as report:
            code = _HANDLERS[command](opts, out_dir)
    except PsaAuditError:
        if made and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise
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


class _Option(NamedTuple):
    """One option of a command.  Its flag is ``--`` plus its manifest key,
    with dashes; a ``Path`` is kept resolved and a ``bool`` is a switch."""

    key: str
    type: type
    default: object = None
    required: bool = False
    help: str | None = None


_PSA = _Option("psa", Path, required=True, help="assessment records file")
_COURT = _Option("court", Path, required=True, help="court cases file")
_ENGINE_FILES = (
    _Option("config_dir", Path, help="directory with charge_catalog.yaml, dmf.yaml, weights.yaml"),
    _Option("catalog", Path, help="charge catalog file (overrides --config-dir)"),
    _Option("dmf", Path, help="decision matrix file (overrides --config-dir)"),
    _Option("weights", Path, help="weight config file (overrides --config-dir)"),
)

#: simulate's generator flags, each with the ``GeneratorConfig`` field it sets.
_GENERATOR_FLAGS = {"n": "n_records", "seed": "seed", **{f: f for f in (
    "overbooking_rate", "saturation_share", "duplicate_rate", "incomplete_rate",
    "disposed_rate", "plea_other_rate", "unmatched_rate")}}

#: Each command's help and options, in the form a handler receives and a
#: manifest records them; a manifest must hold each option that is required
#: or has a default.  simulate's command line gives ``resolved_generator``,
#: a whole ``GeneratorConfig``, as ``--gen-config`` and the generator flags.
_COMMANDS = {
    "score": ("score each assessment record over its booked charges", (_PSA, *_ENGINE_FILES)),
    "audit": ("full booking-vs-conviction audit pipeline", (
        _PSA, _COURT,
        _Option("sensitivity", bool, False,
                help="also emit tables excluding records whose only plea points outside the case"),
        _Option("alpha", float, DEFAULT_ALPHA),
        _Option("conviction_threshold", int, DispositionPolicy.conviction_threshold),
        _Option("plea_to_other_code", int, DispositionPolicy.plea_to_other_code),
        _Option("no_companion_zero", bool, False),
        *_ENGINE_FILES)),
    "simulate": ("generate a synthetic dataset with planted ground truth",
                 (_Option("resolved_generator", dict, required=True), *_ENGINE_FILES)),
    "consistency": ("race-designation consistency matrix from court data", (_COURT,)),
    "validate": ("agreement of engine outputs with recorded form columns", (_PSA, _COURT, *_ENGINE_FILES)),
    "dedupe": ("completeness filter and de-duplication only", (_PSA,)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psa-audit",
        description="Reproduce a charge-driven pre-trial assessment and audit "
        "how booking charges that never convict move its recommendations.",
    )
    parser.add_argument("--schema", action="store_true", help="print the file schemas and exit")
    parser.add_argument("--version", action="version", version=f"psa-audit {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in options:
            flag = "--" + o.key.replace("_", "-")
            if o.type is dict:
                for key, name in _GENERATOR_FLAGS.items():
                    default = getattr(GeneratorConfig, name)
                    p.add_argument("--" + key.replace("_", "-"), type=type(default),
                                   help=f"{name} (default {default})")
                p.add_argument("--gen-config", help="YAML file of generator settings (flags override it)")
            elif o.type is bool:
                p.add_argument(flag, action="store_true", help=o.help)
            else:
                p.add_argument(flag, type=None if o.type is Path else o.type, default=o.default,
                               required=o.required, help=o.help)
        p.add_argument("--out", required=True, help="output directory")
    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="path to a run_manifest.json")
    p.add_argument("--out", required=True, help="output directory for the re-run")
    return parser


def _collect_options(command: str, args: argparse.Namespace) -> dict:
    """The given options of a command line in their manifest form: paths
    resolved, and simulate's generator settings frozen into
    ``resolved_generator``, so a rerun ignores later changes of defaults."""
    options = _COMMANDS[command][1]
    opts = {}
    for o in options:
        if o.type is not dict and (value := getattr(args, o.key)) is not None:
            opts[o.key] = str(Path(value).resolve()) if o.type is Path else value
    # after the engine files, whose catalog checks a --gen-config file's pools
    for o in options:
        if o.type is dict:
            opts[o.key] = asdict(_generator_config(args, opts))
    return opts


def _generator_config(args: argparse.Namespace, opts: dict) -> GeneratorConfig:
    """A generator flag beats the ``--gen-config`` file, which beats the
    default.  Every error in the file, its pools' fit to the run's catalog
    included, is reported under the file's path.  Without the file, the
    default pools' fit to a catalog the run names (``--catalog`` or
    ``--config-dir``) is reported under the catalog's path."""
    gen_config, path = GeneratorConfig(), None  # the default pools fit the packaged catalog
    if args.gen_config is not None:
        path = Path(args.gen_config).resolve()
    elif "catalog" in opts or "config_dir" in opts:
        path = config_path("catalog", opts.get("catalog"), opts.get("config_dir"))
    if path is not None:
        catalog = _engine_config(opts).catalog
        doc = read_config(path) if args.gen_config is not None else {}
        try:
            gen_config = GeneratorConfig.from_dict(doc)
            gen_config.check_pools(catalog)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    flags = {name: getattr(args, key) for key, name in _GENERATOR_FLAGS.items() if getattr(args, key) is not None}
    return replace(gen_config, **flags)


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
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read the manifest: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SchemaError(f"{path}: not a valid run manifest: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("options"), dict)):
        raise SchemaError(f"{path}: not a valid run manifest: needs a mapping with an 'options' mapping")
    command = manifest.get("subcommand")
    if not isinstance(command, str) or command not in _HANDLERS:
        raise SchemaError(f"{path}: unknown subcommand {command!r}")
    return _dispatch(command, _manifest_options(path, command, manifest["options"]), Path(args.out))


def _manifest_options(path: Path, command: str, opts: dict) -> dict:
    """The options of a manifest for ``command``, checked against its
    table: each option that is required or has a default is present, with
    the option's type (a string for a path), and ``resolved_generator``
    is valid, its pools fitting the manifest's catalog.  Keys the table
    lacks are dropped, so the new manifest names only what shaped the
    outputs."""
    options = _COMMANDS[command][1]
    missing = sorted(o.key for o in options if (o.required or o.default is not None) and o.key not in opts)
    if missing:
        raise SchemaError(f"{path}: run manifest lacks options {missing}")
    checked = {}
    for o in options:
        if o.key not in opts:
            continue
        value, kind = opts[o.key], str if o.type is Path else o.type
        if type(value) is not kind:
            raise SchemaError(f"{path}: option {o.key!r} must be of type {kind.__name__}, got {value!r}")
        checked[o.key] = value
    if "resolved_generator" in checked:
        catalog = _engine_config(checked).catalog
        try:
            GeneratorConfig.from_dict(checked["resolved_generator"]).check_pools(catalog)
        except (ConfigError, TypeError) as exc:
            raise SchemaError(f"{path}: option 'resolved_generator': {exc}") from None
    return checked


def _engine_config(opts: dict) -> EngineConfig:
    return load_engine_config(
        opts.get("config_dir"),
        catalog_path=opts.get("catalog"),
        dmf_path=opts.get("dmf"),
        weights_path=opts.get("weights"),
    )


def _audit_settings(opts: dict) -> tuple[DispositionPolicy, float]:
    """The audit's disposition policy and its alpha, or a ConfigError."""
    alpha = opts["alpha"]
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"--alpha must be in (0, 1), got {alpha}")
    try:
        policy = DispositionPolicy(opts["conviction_threshold"], opts["plea_to_other_code"],
                                   companion_zero_rule=not opts["no_companion_zero"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return policy, alpha


def _read_inputs(opts: dict, out_dir: Path):
    """Load the engine config and read whichever of ``--psa`` and
    ``--court`` the command takes, parsing charges with the catalog's
    derivative prefixes, and list every row issue in ``input_errors.csv``.
    Both readers get one set of column memos, so each cell text is parsed
    once per run in each column name, and a record and its case share
    the value of a column both files have; the set is dropped on return.

    Returns (config, records, cases, issues, counts); counts are the
    intake stages of ``counts_summary.csv``.  Each file's input rows are
    the data rows its reader numbered, and ``row_errors`` and
    ``court_row_errors`` count the rows of the record and of the case
    file that were skipped; the reader checks that its input rows are its
    parsed rows plus its row errors.
    """
    config = _engine_config(opts)
    memos = _ColumnMemos(config.catalog.derivative_prefixes)
    records, psa_issues = read_psa_records(opts["psa"], memos=memos) if "psa" in opts else (_Items(), [])
    cases, court_issues = read_court_cases(opts["court"], memos=memos) if "court" in opts else (_Items(), [])
    issues = psa_issues + court_issues
    _write_issues(out_dir / "input_errors.csv", issues)
    psa_errors, court_errors = len(_hard_issues(psa_issues)), len(_hard_issues(court_issues))
    counts = {
        "psa_input_rows": records.rows,
        "court_input_rows": cases.rows,
        "row_errors": psa_errors,
        "court_row_errors": court_errors,
        "records_parsed": len(records),
    }
    return config, records, cases, issues, counts


def _write_counts(path: Path, key: str, counts: dict) -> None:
    write_csv(path, (key, "count"), list(map(_rendered, counts.items())))
    for k, v in counts.items():
        print(f"{k}: {v}")


def _write_issues(path: Path, issues) -> None:
    write_csv(path, ("row", "record_id", "message"), [_rendered((i.row, i.record_id, i.message)) for i in issues])


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
#: score_results.csv and on each side of audit_pairs.csv: the fields of
#: ``PsaResult`` after its first, ``subscores``.
_RESULT_COLUMNS = tuple(f.name for f in fields(PsaResult))[1:]


_result_cells = attrgetter(*_RESULT_COLUMNS)


def _rendered(values) -> tuple:
    return tuple(map(render_cell, values))


def cmd_score(opts: dict, out_dir: Path) -> int:
    config = _engine_config(opts)
    records, issues = read_psa_records(opts["psa"], config.catalog.derivative_prefixes)
    record_rows = _item_rows({i.row for i in _hard_issues(issues)})
    rows, row_errors = [], list(issues)
    for row, rec in zip(record_rows, records):
        subs = rec.subscores
        if subs is None:
            row_errors.append(RowIssue(row=row, record_id=rec.record_id, message="missing sub-scores"))
            continue
        res = assess(subs, rec.booking_charges, False, config.dmf, config.catalog)
        rows.append(_rendered((rec.record_id, subs.fta, subs.nca, subs.nvca_flag, *_result_cells(res))))
    write_csv(out_dir / "score_results.csv", ("record_id", "fta", "nca", "nvca_flag", *_RESULT_COLUMNS), rows)
    _write_issues(out_dir / "score_errors.csv", sorted(row_errors, key=attrgetter("row")))
    print(f"scored {len(rows)} records, {len(_hard_issues(row_errors))} row errors")
    return _exit_code(bool(rows), row_errors)


# ---------------------------------------------------------------------------
# audit


def _write_scoped_tables(path: Path, tables: dict[str, Table], row_type: type) -> None:
    """One line per table row: its scope and n, then the row's fields."""
    rows = [_rendered((scope, t.n, *r)) for scope, t in tables.items() for r in t.rows]
    write_csv(path, ("scope", "n", *row_type._fields), rows)


def _write_summary(path: Path, counts: dict, tables: dict[str, Table], affected: dict[str, Table],
                   alpha: float) -> None:
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
    def rows():
        for m in report.all_results:
            yield (render_cell(m.psa.record_id), render_cell(m.psa.sfid), m.status.value,
                   render_cell(";".join(c.court_number for c in m.matched_cases)))

    write_csv(path, ("record_id", "sfid", "status", "court_numbers"),
              _SizedRows(sum(report.counts().values()), rows))


def _write_review(path: Path, unresolved) -> None:
    rows = [_rendered((m.psa.record_id, m.psa.sfid, m.psa.name, m.psa.arrest_date, m.psa.psa_date,
                       join_charges(m.psa.booking_charges), m.note))
            for m in unresolved]
    write_csv(path, ("record_id", "sfid", "name", "arrest_date", "psa_date", "booking_charges", "reason"), rows)


def _write_pairs(path: Path, pairs: list[AuditPair], entries: list[TallyEntry]) -> None:
    """One row per pair.  The 18 cells after its group depend only on its
    two results, so they are rendered once per distinct result pair of
    ``entries``, the pairs' tally, before any row is written, keyed by the
    identity of the two results (which the pairs hold, so no key is
    reused meanwhile).  A group is one of ``GROUPS`` or "", a field text
    as it is."""
    tails = {}
    for e in entries:
        b, c = e.booking, e.conviction
        if (key := (id(b), id(c))) not in tails:
            tails[key] = _rendered((b.subscores.nvca_flag, *_result_cells(b),
                                    c.subscores.nvca_flag, *_result_cells(c), *changes(b, c)))

    def rows():
        for p in pairs:
            yield (render_cell(p.record_id), p.group, *tails[id(p.booking_result), id(p.conviction_result)],
                   FLAG_TEXT[p.excluded_by_sensitivity])

    write_csv(path, (
        "record_id", "group",
        *(f"{side}_{c}" for side in ("booking", "conviction") for c in ("nvca", *_RESULT_COLUMNS)),
        *(c.column for c in COMPONENTS), "excluded_by_sensitivity"), _SizedRows(len(pairs), rows))


def _write_tables(out_dir: Path, suffix: str, entries: list[TallyEntry], alpha: float) -> tuple[dict, dict]:
    """Write the rate and the affected table of the pairs that ``entries``
    count, as ``rate_table{suffix}.csv`` and ``affected_table{suffix}.csv``;
    with no entries, each file holds only its header.  Returns the two
    tables."""
    tables = rate_table(entries, alpha=alpha) if entries else {}
    affected = proportion_affected(entries) if entries else {}
    _write_scoped_tables(out_dir / f"rate_table{suffix}.csv", tables, RateRow)
    _write_scoped_tables(out_dir / f"affected_table{suffix}.csv", affected, AffectedRow)
    return tables, affected


def _popped(items: list) -> Iterator:
    """The items of ``items`` in order, each taken off the list as it is
    given, so the list holds only those not given yet."""
    items.reverse()
    while items:
        yield items.pop()


def _audit_intake(opts: dict, out_dir: Path, policy: DispositionPolicy):
    """Read, link and pair: write ``input_errors.csv``, ``matches.csv`` and
    ``review_unresolved.csv``, and return (pairs, counts, issues).

    The records, the cases and the link report are dropped before the
    pairs are built, and each match is taken off its list as its pair is
    built, so the intake is freed while the pairs grow; a pair keeps only
    its record id, its group and its two results.
    """
    config, records, cases, issues, intake = _read_inputs(opts, out_dir)

    report = link_records(records, cases)
    _write_matches(out_dir / "matches.csv", report)
    _write_review(out_dir / "review_unresolved.csv", report.unresolved)
    b_people = {c.sfid for c in cases if c.race == "B"}
    counts = {**intake, **report.counts()}
    matched = report.matched
    del records, cases, report

    pairs, skipped = build_audit_pairs(_popped(matched), policy, config, b_people)

    counts.update(not_fully_disposed=len(skipped), analyzed_pairs=len(pairs))
    return pairs, counts, issues


def cmd_audit(opts: dict, out_dir: Path) -> int:
    """Every table, ``audit_pairs.csv`` and ``sensitivity_excluded`` read one
    tally; the sensitivity scope is its entries not ``excluded_by_sensitivity``."""
    policy, alpha = _audit_settings(opts)
    pairs, counts, issues = _audit_intake(opts, out_dir, policy)
    entries = tally(pairs)
    counts["sensitivity_excluded"] = count_by(entries, attrgetter("excluded_by_sensitivity"))[True]
    _write_counts(out_dir / "counts_summary.csv", "stage", counts)

    _write_pairs(out_dir / "audit_pairs.csv", pairs, entries)
    tables, affected = _write_tables(out_dir, "", entries, alpha)
    _write_scoped_tables(out_dir / "initial_distribution.csv", initial_distribution(entries) if entries else {},
                         LevelRow)
    _write_summary(out_dir / "test_summary.txt", counts, tables, affected, alpha)
    if opts["sensitivity"]:
        _write_tables(out_dir, "_sensitivity", [e for e in entries if not e.excluded_by_sensitivity], alpha)
    return _exit_code(bool(pairs), issues)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(opts: dict, out_dir: Path) -> int:
    dataset = generate(GeneratorConfig.from_dict(opts["resolved_generator"]), _engine_config(opts))
    write_dataset(dataset, out_dir)
    _write_counts(out_dir / "planted_counts.csv", "quantity", dataset.planted_counts())
    return EXIT_OK


# ---------------------------------------------------------------------------
# consistency / validate / dedupe


def cmd_consistency(opts: dict, out_dir: Path) -> int:
    _, _, cases, issues, _ = _read_inputs(opts, out_dir)
    matrix = race_consistency(cases)
    rows = [_rendered((cat, matrix.individuals[cat], *percents)) for cat, percents in matrix.rows.items()]
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
        res = counterfactual_assess(rec, booking_charges(m), config)
        for c in COMPONENTS:
            recorded = c.recorded(rec)
            if recorded is None:
                continue
            engine_value = c.read(res)
            comparisons[c.name].append((engine_value, recorded))
            if engine_value != recorded:
                mismatches.append(_rendered((rec.record_id, c.name, engine_value, recorded)))

    rows = []
    for component, pairs in comparisons.items():
        agree = sum(e == r for e, r in pairs)
        rate = agreement_rate(*zip(*pairs)) if pairs else None
        rows.append(_rendered((component, len(pairs), agree, rate)))
        print(f"{component}: {agree}/{len(pairs)}"
              + (" (no comparable rows)" if rate is None else f" = {rate:.6g}"))
    write_csv(out_dir / "validation_report.csv", ("component", "n", "agree", "agreement_rate"), rows)
    write_csv(out_dir / "validation_mismatches.csv", ("record_id", "component", "engine", "recorded"),
              mismatches)
    return _exit_code(any(comparisons.values()), issues)


def cmd_dedupe(opts: dict, out_dir: Path) -> int:
    _, records, _, issues, intake = _read_inputs(opts, out_dir)
    complete, incomplete = filter_complete(records)
    unique, duplicates = deduplicate(complete)
    rows = [_rendered(join_charges(r.booking_charges) if c == "booking_charges" else getattr(r, c)
                      for c in PSA_COLUMNS) for r in unique]
    write_csv(out_dir / "deduped_records.csv", PSA_COLUMNS, rows)
    dropped = [(render_cell(r.record_id), "incomplete") for r in incomplete]
    dropped += [(render_cell(r.record_id), "duplicate") for r in duplicates]
    write_csv(out_dir / "dedupe_dropped.csv", ("record_id", "reason"), dropped)
    counts = {k: intake[k] for k in ("psa_input_rows", "row_errors", "records_parsed")}
    counts.update(dropped_incomplete=len(incomplete), dropped_duplicates=len(duplicates), kept=len(unique))
    _write_counts(out_dir / "counts_summary.csv", "stage", counts)
    return _exit_code(bool(unique), issues)


_HANDLERS = {
    "score": cmd_score,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
    "consistency": cmd_consistency,
    "validate": cmd_validate,
    "dedupe": cmd_dedupe,
}


if __name__ == "__main__":
    sys.exit(main())
