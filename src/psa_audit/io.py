"""Tabular file schemas and readers/writers.

All files are comma-separated UTF-8 with a header row; readers also accept
a leading byte-order mark.  Multi-valued cells (charge lists, disposition
lists) join their elements with ";".  Dates are YYYY-MM-DD, integers are an
optional sign and ASCII digits, booleans are "true"/"false", missing values
are empty cells; so a cell reads the same on every Python version.  A
written cell is its CSV field text: ``render_cell`` gives the field that
``csv.writer(lineterminator="\\n")`` writes for a value, quoted as csv
quotes it, and each caller renders each distinct value once.  So
``write_csv`` takes each row as a sequence of field texts in column order
and only joins them; rows end in "\\n", so repeated runs are
byte-identical.

csv quotes a field holding "\\n" but not one holding a bare "\\r", which
then splits the row when it is read back.  So the free-text cells that
outputs copy (ids, sfids, names and charge texts) are row errors when
they hold "\\r".

Each input file's row is stated once, on its carrier: its columns are
the fields of ``PsaRecord`` or ``CourtCase``, in order, and the
carrier's constructor holds the rules on the whole row (a non-empty
sfid, one disposition per filed charge).  Both files go through one
reader, ``_read_table``, which numbers the rows, makes each carrier from
the row's cells, parsed in column order, files every row issue and
checks that each numbered row is either an item or a row error.  It
reads the rows in blocks: the rows of a block before its first row
error are parsed a column at a time, and the rest go through its row
loop, the one place that names a row error and a bad cell's column.
The row errors are the issues that are not warnings; ``_hard_issues``
picks them, for the commands too.  Each column's parser reads the cell's
text alone; it is stated once, in ``_PARSERS`` under its name, and read
through a memo: each distinct cell text is parsed once, and every row
carrying it shares the resulting immutable value (a date, a charge
tuple, a level, ...).  A run keeps one set of memos, ``_ColumnMemos``,
keyed by column name, so a text both files carry in a column of one name
is parsed once and a record and its case share its value.  Only the row
ids, which are unique, are not memoized.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, fields, replace
from datetime import date
from itertools import chain, compress, count, filterfalse, islice
from operator import attrgetter, getitem, itemgetter
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .charges import ChargeCode, Derivative, parse_charge_code
from .engine import SupervisionLevel
from .errors import ParseError, SchemaError
from .linkage import RACE_CATEGORIES, CourtCase, PsaRecord

#: Each input file's columns are its row carrier's fields, in order: the
#: readers build a carrier from a row's cells positionally.
PSA_COLUMNS = tuple(f.name for f in fields(PsaRecord))
COURT_COLUMNS = tuple(f.name for f in fields(CourtCase))

GROUND_TRUTH_COLUMNS = (
    "record_id",
    "kind",
    "scenario",
    "group",
    "true_match",
    "disposed",
    "conviction_charges",
    "affected",
    "duplicate_of",
)

@dataclass(frozen=True)
class RowIssue:
    row: int  # 1-based data row number (header not counted)
    record_id: str
    message: str


def parse_bool(text: str) -> bool | None:
    t = text.strip().lower()
    if t == "":
        return None
    if t == "true":
        return True
    if t == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def parse_int(text: str) -> int | None:
    t = text.strip()
    if t == "":
        return None
    digits = t[1:] if t[0] in "+-" else t
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(t)


#: The one date form; from Python 3.11 on, date.fromisoformat takes others too.
_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> date | None:
    t = text.strip()
    if t == "":
        return None
    try:
        if _DATE_SHAPE.fullmatch(t):
            return date.fromisoformat(t)
    except ValueError:
        pass
    raise ValueError(f"expected YYYY-MM-DD, got {text!r}")


def join_charges(charges: Iterable[ChargeCode]) -> str:
    return ";".join(c.raw or c.normalized for c in charges)


class _Memo(dict):
    """One column's parser: maps each distinct cell text to
    its parsed value, calling ``parse(text, *args)`` the first time a text is
    looked up, so every row carrying that text shares one immutable value.
    A text whose parse raises is not stored, so each row carrying it raises
    its own error.  The generator keeps one of its pool texts' charges, and
    one the other way round, from each repeated value it writes (a cell's
    text, a count or a date) to its field text, ``render_cell``'s."""

    __slots__ = ("parse", "args")

    def __init__(self, parse: Callable, *args):
        super().__init__()
        self.parse = parse
        self.args = args

    def __missing__(self, text):
        value = self[text] = self.parse(text, *self.args)
        return value


def _split_charges(cell: str, codes: _Memo) -> tuple[ChargeCode, ...]:
    """A ';'-joined charge cell.  ``codes`` is the memo of charge texts,
    so each distinct stripped text is parsed once and its ChargeCode is
    shared by every cell that carries it.  A charge keeps its text in
    ``raw``, which the outputs copy, so a charge text holding "\\r" is a
    row error too."""
    return tuple(codes[text] for part in cell.split(";") if (text := _parse_text(part)))


class _Items(list):
    """A reader's items, and in ``rows`` the non-blank data rows it
    numbered; an empty one with no rows stands for a file not read."""

    rows = 0


def _hard_issues(issues: Iterable[RowIssue]) -> list[RowIssue]:
    """The row errors among ``issues``: each issue but a ``warning:``."""
    return [i for i in issues if not i.message.startswith("warning:")]


def _item_rows(error_rows: Container[int]) -> Iterator[int]:
    """The row numbers of a reader's items, in order, given its row
    errors' row numbers: every numbered row is one or the other."""
    return filterfalse(error_rows.__contains__, count(1))


#: The non-blank rows ``_read_table`` reads at a time: the rows of a
#: block before its first row error are parsed a column at a time and
#: the rest row by row, so a small block loses little to a row error.
_BLOCK_ROWS = 128


def _read_table(
    path: str | Path, columns: Sequence[str], parsers: Sequence[_Memo], make: Callable, warnings: Callable | None
) -> tuple[_Items, list[RowIssue]]:
    """(items, issues) of a table keyed by its first column.  The header
    must name each of ``columns`` once.  Data rows are numbered from 1, and
    blank lines are skipped and not numbered.  A row is an issue, in this
    order, when its cell count is not the header's, when its id (a join
    key) holds "\\r" (the issue then gives an empty id), is empty or
    repeats an earlier row's, or when ``make(id, *values)``, each other
    cell's value looked up in its column's memo in ``parsers``, raises
    ValueError or ParseError: the issue is then ``_cell_issue``'s, else
    (a rule on the whole row) ``make``'s message.  Else ``make``'s value
    is an item, and each of ``warnings(item)``, unless None, is a
    ``warning:`` issue.
    The non-blank rows are read ``_BLOCK_ROWS`` at a time.  The rows of a
    block before its first row error are made a column at a time
    (``_made_by_column``), and the rest of the block goes through the row
    loop, the one place that names a row error; so either way a row gives
    the same item or issue.  The reader keeps a set of the items' ids,
    and names a repeated id's first row once the table is read: the row
    of the item whose ``columns[0]`` attribute is that id.
    ``items.rows`` is the number of rows numbered, counted apart from the
    items and issues: a RuntimeError is raised unless it equals the items
    plus the issues that are not warnings.  A file that cannot be read,
    is not UTF-8 text or holds a line that csv cannot split (a field
    longer than ``csv.field_size_limit()``) is a SchemaError naming it."""
    items, issues = _Items(), []
    seen: set[str] = set()  # the items' ids
    repeats: list[int] = []  # the places in issues of the repeated ids' issues

    def warn(number: int, key: str, softs: Iterable[str]) -> None:
        issues.extend(RowIssue(number, key, f"warning: {soft}") for soft in softs)

    number = 0
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required columns {missing}")
            repeated = [c for c in columns if header.count(c) > 1]
            if repeated:
                raise SchemaError(f"{path}: repeated columns {repeated}")
            at = header.index(columns[0])
            pick = itemgetter(*map(header.index, columns[1:]), at)  # a tuple; map and zip drop the id
            lookups = [memo.__getitem__ for memo in parsers]
            parses = (_parse_text, *lookups)
            width = len(header)
            pad = [""] * width
            rows = filter(None, reader)
            while block := list(islice(rows, _BLOCK_ROWS)):
                made, ids = _made_by_column(block, width, pick, lookups, make, seen)
                if made:
                    items += made
                    seen.update(ids[: len(made)])
                    if warnings is not None:
                        softs = list(map(warnings, made))
                        for i in compress(range(len(softs)), softs):
                            warn(number + 1 + i, ids[i], softs[i])
                    number += len(made)
                for number, row in enumerate(block[len(made) :], start=number + 1):
                    error = None
                    if len(row) != width:
                        error = f"row has {len(row)} cells, header has {width}"
                        row = (row + pad)[:width]  # so that every column has a cell
                    key = row[at].strip()
                    if "\r" in key:  # the issue's own id cell is written too
                        error = error or _cell_issue(columns, parses, (key,))
                        key = ""
                    if not key:
                        error = error or f"{columns[0]} must be non-empty"
                    elif key in seen and not error:  # worded once the table is read, with its first row
                        repeats.append(len(issues))
                        error = "repeat"
                    if not error:
                        try:
                            item = make(key, *map(getitem, parsers, pick(row)))
                        except (ValueError, ParseError) as exc:
                            error = _cell_issue(columns, parses, (key, *pick(row))) or str(exc)
                    if error:
                        issues.append(RowIssue(number, key, error))
                        continue
                    items.append(item)
                    seen.add(key)
                    if warnings is not None and (softs := warnings(item)):
                        warn(number, key, softs)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:  # a field over csv's field_size_limit, say
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None
    if repeats:
        wanted = {issues[i].record_id for i in repeats}
        item_rows = _item_rows({i.row for i in _hard_issues(issues)})
        first = {key: row for key, row in zip(map(attrgetter(columns[0]), items), item_rows) if key in wanted}
        for i in repeats:
            key = issues[i].record_id
            issues[i] = replace(issues[i], message=f"{columns[0]} {key!r} repeats row {first[key]}")
    errors = len(_hard_issues(issues))
    if len(items) + errors != number:
        raise RuntimeError(f"{path}: {number} data rows, but {len(items)} items and {errors} row errors")
    items.rows = number
    return items, issues


def _made_by_column(
    block: list[list[str]], width: int, pick: Callable, lookups: Sequence[Callable], make: Callable, seen: set[str]
) -> tuple[list, list[str]]:
    """The items of ``block``'s rows before its first row error, made a
    column at a time, and the stripped ids of the rows before its first
    ragged one.  Those rows' cells go column by column through ``pick``
    (each column's cells, the ids last), their other cells through
    ``lookups`` and into ``make``, up to the first row whose id is empty,
    holds "\\r" or repeats an id of ``seen`` or of the block, or
    whose cell or ``make`` raises.  A warning is no row error."""
    n = len(block)
    if set(map(len, block)) != {width}:
        n = next(compress(count(), map(width.__ne__, map(len, block))))  # the rows before a ragged one
    if not n:
        return [], []
    cells = pick(list(zip(*block[:n])))
    ids = list(map(str.strip, cells[-1]))
    if not (all(ids) and "\r" not in "".join(ids) and len(set(ids)) == n and seen.isdisjoint(ids)):
        fresh = set()
        for i, key in enumerate(ids):
            if not key or "\r" in key or key in seen or key in fresh:
                n = i
                break
            fresh.add(key)
    made = []
    try:
        made.extend(map(make, ids[:n], *map(map, lookups, cells)))  # keeps the items made before a raise
    except (ValueError, ParseError):
        pass
    return made, ids


def _cell_issue(columns: Sequence[str], parses: Iterable[Callable], cells: Iterable[str]) -> str | None:
    """The issue of the first cell, in column order, whose parse raises:
    its column's name and the error.  None if every cell parses."""
    for column, parse, cell in zip(columns, parses, cells):
        try:
            parse(cell)
        except (ValueError, ParseError) as exc:
            return f"{column}: {exc}"
    return None


def _parse_text(text: str) -> str:
    """A free-text cell, stripped; one holding "\\r" inside would be
    written back unquoted (see the module docstring)."""
    t = text.strip()
    if "\r" in t:
        raise ValueError(f"must not hold a carriage return, got {t!r}")
    return t


def _parse_score(text: str) -> int | None:
    v = parse_int(text)
    if v is not None and not (1 <= v <= 6):
        raise ValueError(f"must be in 1..6, got {v}")
    return v


def _parse_count(text: str) -> int | None:
    v = parse_int(text)
    if v is not None and v < 0:
        raise ValueError(f"must be >= 0, got {v}")
    return v


def _parse_level(text: str) -> SupervisionLevel | None:
    t = text.strip()
    if t == "":
        return None
    return SupervisionLevel.from_label(t)


def _parse_race(text: str) -> str:
    race = text.strip().upper()
    if race and race not in RACE_CATEGORIES:
        raise ValueError(f"unknown designation {race!r}")
    return race


def _parse_dispositions(text: str) -> tuple[int | None, ...]:
    """A dispositions cell's codes, or () for an entirely empty cell."""
    t = text.strip()
    return tuple(_parse_count(part) for part in t.split(";")) if t else ()


#: Each input column's parser, by column name: ``parse(text)``, whose
#: error says what is wrong with the text; ``_read_table`` names the
#: column.  The charge cells' parser, ``_split_charges``, also takes the
#: run's memo of charge texts; filed_charges reads the booking memo.
_PARSERS = {
    "sfid": _parse_text, "name": _parse_text, "race": _parse_race,
    "dob": parse_date, "arrest_date": parse_date, "psa_date": parse_date,
    "fta": _parse_score, "nca": _parse_score,
    "age_at_arrest": _parse_count, "prior_violent_convictions": _parse_count,
    "nvca_flag": parse_bool, "prior_conviction": parse_bool,
    "recorded_exclusion": parse_bool, "recorded_bumpup": parse_bool,
    "recorded_recommendation": _parse_level,
    "booking_charges": _split_charges, "dispositions": _parse_dispositions,
}


class _ColumnMemos(dict):
    """A run's memo of each column, by column name, made from its
    ``_PARSERS`` entry on first use, and in ``codes`` the memo of charge
    texts, parsed with ``prefixes``.  Both readers given one set share a
    memo where their files share a column name.  A memo stores only
    successful parses, so sharing changes no row's issues."""

    def __init__(self, prefixes: Mapping[str, Derivative] | None = None):
        super().__init__()
        self.codes = _Memo(parse_charge_code, prefixes)

    def __missing__(self, column: str) -> _Memo:
        parse = _PARSERS[column]
        memo = self[column] = _Memo(parse, self.codes) if parse is _split_charges else _Memo(parse)
        return memo


def read_psa_records(
    path: str | Path, prefixes: Mapping[str, Derivative] | None = None, *, memos: _ColumnMemos | None = None
) -> tuple[_Items[PsaRecord], list[RowIssue]]:
    """Parse an assessment-record file.

    Returns (records, issues).  Rows that cannot be parsed are skipped and
    reported, as are rows with an empty or repeated ``record_id``; soft
    invariant violations (e.g. a form date more than a day before the
    arrest date) keep the row but add a warning issue.  ``memos`` is the
    run's set, which then sets the prefixes; without it the reader makes
    its own from ``prefixes``.
    """
    if memos is None:
        memos = _ColumnMemos(prefixes)
    parsers = [memos[column] for column in PSA_COLUMNS[1:]]
    return _read_table(path, PSA_COLUMNS, parsers, PsaRecord, PsaRecord.validate)


def read_court_cases(
    path: str | Path, prefixes: Mapping[str, Derivative] | None = None, *, memos: _ColumnMemos | None = None
) -> tuple[_Items[CourtCase], list[RowIssue]]:
    """Parse a court-case file into (cases, issues), as
    ``read_psa_records`` parses a record file, with ``memos`` and
    ``prefixes`` as there.  A filed_charges cell is read by the
    booking_charges memo, and an entirely empty dispositions cell means
    every filed charge is pending."""
    if memos is None:
        memos = _ColumnMemos(prefixes)
    parsers = [memos["booking_charges" if c == "filed_charges" else c] for c in COURT_COLUMNS[1:]]
    pending = _Memo((None,).__mul__)  # n -> (None,) * n

    def make(*values):  # the last two: the filed charges and their dispositions
        return CourtCase(*values[:-1], values[-1] or pending[len(values[-2])])

    return _read_table(path, COURT_COLUMNS, parsers, make, None)


#: The rows ``write_csv`` joins into one string and writes at a time: tens
#: of kilobytes of text, so one write serves many rows, yet little beside
#: the audit's intake, which writes matches.csv at its memory peak.
_CHUNK_ROWS = 256


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header of ``columns``, then each row: its field texts in
    column order, as ``render_cell`` gives them, joined by "," and ended
    by "\\n".  As csv does, a row of one empty field is written ``""``,
    so that it is not a blank line.  The rows are joined and written
    ``_CHUNK_ROWS`` at a time, so the file is never one string."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    rows = chain((tuple(map(render_cell, columns)),), rows)
    with p.open("w", encoding="utf-8", newline="") as fh:
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            lines = list(map(",".join, chunk))
            if not all(lines):
                lines = [line if line or len(row) != 1 else '""' for line, row in zip(lines, chunk)]
            lines.append("")
            fh.write("\n".join(lines))


#: A flag's written text, indexed by the flag: ``FLAG_TEXT[True] == "true"``.
FLAG_TEXT = ("false", "true")


def render_cell(value) -> str:
    """The CSV field of ``value``: the text that
    ``csv.writer(lineterminator="\\n")`` writes for it, with the schema's
    forms.  None is the empty field, a bool is true/false (``FLAG_TEXT``),
    a float has ten significant digits, a level is its label, a date its
    ISO form and an int its digits.  A text, or any other value's ``str``,
    is quoted as csv's QUOTE_MINIMAL quotes it: when it holds ",", '"' or
    "\\n", it is wrapped in '"' with each inner '"' doubled; a bare "\\r"
    is not quoted (see the module docstring).  Values come as plain
    bools, floats and levels, so exact type tests suffice."""
    kind = type(value)
    if kind is str:
        text = value
    elif kind is int:
        return str(value)
    elif kind is bool:
        return FLAG_TEXT[value]
    elif value is None:
        return ""
    elif kind is float:
        return format(value, ".10g")
    elif kind is SupervisionLevel:
        return value.label
    else:
        text = str(value)  # a date is its ISO form
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text:
        return '"' + text + '"'
    return text


SCHEMA_DOC = """\
File schemas (all comma-separated UTF-8 with a header row; lists join
elements with ';'; dates YYYY-MM-DD; integers ASCII digits with an
optional sign; booleans true/false; missing = empty; a row with more or
fewer cells than the header is a row error, and so is a row whose id,
sfid, name or charge text holds a carriage return (\\r) inside it;
columns may come in any order, and other columns are ignored, but a
header that names a required column twice is a schema error)

psa_records.csv (input to score/audit/validate)
  record_id     unique, non-empty row id; an empty or repeated id makes
                the row a row error
  sfid          person identifier shared with the court file
  name, dob     as recorded
  arrest_date   date of the arrest that triggered the assessment
  psa_date      date the assessment was administered
  fta, nca      1..6 scaled predictions
  nvca_flag     recorded violence flag (true/false)
  booking_charges            ';'-joined charge codes, first = top charge
  age_at_arrest              years, >= 0
  prior_conviction           true/false
  prior_violent_convictions  count, >= 0
  recorded_exclusion, recorded_bumpup   as recorded on the form
  recorded_recommendation    OR-NAS | OR-Minimum | SFPDP-ACM |
                             Release-Not-Recommended (or rank 1..4)

court_cases.csv (input to audit/validate/consistency)
  court_number  unique, non-empty case id (one person may have several);
                an empty or repeated id makes the row a row error
  sfid, name, dob
  arrest_date   the case's arrest date
  race          one of B C F H I J O U W, or empty
  booking_charges  ';'-joined charge codes booked at intake
  filed_charges    ';'-joined charge codes filed by the prosecutor
  dispositions     ';'-joined non-negative integer codes aligned with
                   filed_charges; an empty element means that charge is
                   still pending, and an entirely empty cell means all
                   charges are pending

ground_truth.csv (written by simulate)
  record_id, kind (base|duplicate|incomplete), scenario, group,
  true_match (';'-joined court numbers), disposed, conviction_charges,
  affected (final recommendation strictly higher under booking),
  duplicate_of (record_id of the copied row, duplicates only)

Charge code syntax: [prefix/]statute[(sub)(sub)] [body] [class] [degree]
  e.g. '187(A) PC F 1', '664/288(A) PC F'. '664/' marks an attempt; other
  derivative prefixes are defined by the charge catalog.
"""
