"""De-duplication of assessment records and linkage to court cases.

The decision rules, in pipeline order:

  1. drop records missing the arrest date or any of the three predictions;
  2. collapse records that share (person id, form date, booked charge set)
     to a single representative;
  3. candidate cases share the person id and have an arrest date from one
     day before to two days after the record's;
  4. a single candidate is the match; among several, candidates containing
     the record's top charge survive, then those containing the second
     charge; all remaining survivors are declared matches together.

Records with no candidate at all go to a manual-review queue instead of
being silently dropped.  All date arithmetic is calendar-day based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from .charges import ChargeCode
from .engine import SubScores, SupervisionLevel

WINDOW_BEFORE = timedelta(days=1)
WINDOW_AFTER = timedelta(days=2)
_ONE_DAY = timedelta(days=1)


@dataclass(slots=True)
class PsaRecord:
    """One assessment record.  Like ``CourtCase`` and ``MatchResult`` it is
    a per-row carrier, made once per input row and never changed: it is
    not frozen only because a frozen dataclass sets each field through
    ``object.__setattr__``, which makes building one several times slower.
    No code hashes a record or keys a memo on one.  Its fields are the
    record file's columns, in order (``io.PSA_COLUMNS``); the reader
    parses each cell, and the constructor holds the rules on the row."""

    record_id: str
    sfid: str
    name: str = ""
    dob: date | None = None
    arrest_date: date | None = None
    psa_date: date | None = None
    fta: int | None = None
    nca: int | None = None
    nvca_flag: bool | None = None
    booking_charges: tuple[ChargeCode, ...] = ()
    age_at_arrest: int | None = None
    prior_conviction: bool | None = None
    prior_violent_convictions: int | None = None
    recorded_exclusion: bool | None = None
    recorded_bumpup: bool | None = None
    recorded_recommendation: SupervisionLevel | None = None

    def __post_init__(self):
        if not self.sfid:
            raise ValueError("sfid must be non-empty")

    @property
    def subscores(self) -> SubScores | None:
        if self.fta is None or self.nca is None or self.nvca_flag is None:
            return None
        return SubScores(fta=self.fta, nca=self.nca, nvca_flag=self.nvca_flag)

    def validate(self) -> list[str]:
        """Soft invariant checks, reported as diagnostics rather than raised:
        source data with transposed dates must still reach the review queue."""
        issues = []
        if self.psa_date and self.arrest_date and self.psa_date < self.arrest_date - _ONE_DAY:
            issues.append("psa_date earlier than one day before arrest_date")
        return issues


#: Court race designations, in the column order of race_consistency.csv.
RACE_CATEGORIES = ("B", "C", "F", "H", "I", "J", "O", "U", "W")


@dataclass(slots=True)
class CourtCase:
    """One court case; a per-row carrier, not frozen for the same reason
    as ``PsaRecord``.  Its fields are the court file's columns, in order
    (``io.COURT_COLUMNS``)."""

    court_number: str
    sfid: str
    name: str = ""
    dob: date | None = None
    arrest_date: date | None = None
    race: str = ""  # one of RACE_CATEGORIES, or "" when missing
    booking_charges: tuple[ChargeCode, ...] = ()
    filed_charges: tuple[ChargeCode, ...] = ()
    dispositions: tuple[int | None, ...] = ()

    def __post_init__(self):
        if not self.sfid:
            raise ValueError("sfid must be non-empty")
        if len(self.dispositions) != len(self.filed_charges):
            raise ValueError(
                f"dispositions: {len(self.dispositions)} codes for {len(self.filed_charges)} filed charges")


class MatchStatus(Enum):
    MATCHED = "Matched"
    UNRESOLVED = "Unresolved"
    DROPPED_INCOMPLETE = "DroppedIncomplete"
    DROPPED_DUPLICATE = "DroppedDuplicate"


@dataclass(slots=True)
class MatchResult:
    """One record's linkage outcome; a per-row carrier, not frozen for the
    same reason as ``PsaRecord``.  ``note`` holds why an Unresolved record
    went to review ("no-candidates") and, on a DroppedDuplicate, the id of
    the record it duplicates; it is empty otherwise."""

    psa: PsaRecord
    matched_cases: tuple[CourtCase, ...]
    status: MatchStatus
    note: str = ""

    def __post_init__(self):
        if self.status is MatchStatus.MATCHED and not self.matched_cases:
            raise ValueError("Matched result needs at least one case")
        if self.status is not MatchStatus.MATCHED and self.matched_cases:
            raise ValueError("only Matched results carry cases")


def filter_complete(records: Iterable[PsaRecord]) -> tuple[list[PsaRecord], list[PsaRecord]]:
    """Split records into (kept, dropped-incomplete).

    A record is complete when it has an arrest date, a form date, and all
    three predictions.  The form date is required because it keys
    de-duplication.
    """
    kept, dropped = [], []
    for r in records:
        missing = (
            r.arrest_date is None
            or r.psa_date is None
            or r.fta is None
            or r.nca is None
            or r.nvca_flag is None
        )
        (dropped if missing else kept).append(r)
    return kept, dropped


def _charge_key(record: PsaRecord) -> tuple[str, ...]:
    return tuple(sorted(c.text_key for c in record.booking_charges))


def _content_order(record: PsaRecord, charge_key: tuple[str, ...]):
    """The records' content-only order, given the record's
    ``_charge_key``.  Its first four fields order them by (sfid, form
    date, charge key), a missing form date before every date, so records
    with equal de-duplication keys sort next to each other."""
    return (
        record.sfid,
        record.psa_date is not None,
        record.psa_date or date.min,
        charge_key,
        record.arrest_date or date.min,
        record.fta or 0,
        record.nca or 0,
        bool(record.nvca_flag),
        record.name,
        record.record_id,
    )


_sfid = attrgetter("sfid")
_court_number = attrgetter("court_number")


def _in_content_order(records: Iterable[PsaRecord]) -> Iterator[tuple[tuple | None, PsaRecord]]:
    """Each record with its ``_content_order`` key, in that order.  The
    key leads with the sfid, so the records are sorted by sfid first and
    then one person at a time by the whole key: the content keys live
    only while their person is sorted.  A person's only record needs no
    key to be placed, and comes with None instead.  Records share their
    booking cells, so each cell's charge key is computed once per call and
    kept, by the cell's identity, until the call ends: the records hold
    the cells until then."""
    charge_keys: dict[int, tuple[str, ...]] = {}

    def order(r: PsaRecord):
        key = charge_keys.get(id(r.booking_charges))
        if key is None:
            key = charge_keys[id(r.booking_charges)] = _charge_key(r)
        return _content_order(r, key)

    for _, person in groupby(sorted(records, key=_sfid), key=_sfid):
        person = list(person)
        if len(person) == 1:
            yield None, person[0]
        else:
            yield from sorted(((order(r), r) for r in person), key=itemgetter(0))


def deduplicate(records: Iterable[PsaRecord]) -> tuple[list[PsaRecord], list[tuple[PsaRecord, PsaRecord]]]:
    """Keep one representative per (sfid, psa_date, charge multiset).

    The representative is the least record under a content-only ordering,
    so the outcome does not depend on input order.  Returns (unique,
    dropped), each dropped duplicate paired with its representative:
    (duplicate, kept).
    """
    unique, dropped = [], []
    kept = None  # the key of the last representative; equal keys are adjacent
    for order, r in _in_content_order(records):
        key = order and order[:4]  # None for a person's only record
        if key is not None and key == kept:
            dropped.append((r, unique[-1]))
        else:
            kept = key
            unique.append(r)
    return unique, dropped


def find_candidates(psa: PsaRecord, cases: Iterable[CourtCase]) -> list[CourtCase]:
    """Cases sharing the record's sfid with an arrest date in the
    one-day-before to two-days-after window, in the order of ``cases``
    (``resolve_match`` orders two or more by court number)."""
    if psa.arrest_date is None:
        return []
    lo = psa.arrest_date - WINDOW_BEFORE
    hi = psa.arrest_date + WINDOW_AFTER
    return [
        c
        for c in cases
        if c.sfid == psa.sfid and c.arrest_date is not None and lo <= c.arrest_date <= hi
    ]


def resolve_match(psa: PsaRecord, candidates: Sequence[CourtCase]) -> MatchResult:
    """Narrow multiple candidates by top charge, then by second charge.

    A filter step that would eliminate every candidate is skipped (all
    candidates are then equally plausible), and every survivor of both
    steps is declared a match.  No candidate at all means the record goes
    to manual review.
    """
    if not candidates:
        return MatchResult(psa=psa, matched_cases=(), status=MatchStatus.UNRESOLVED, note="no-candidates")
    if len(candidates) == 1:
        return MatchResult(psa=psa, matched_cases=tuple(candidates), status=MatchStatus.MATCHED)
    pool = sorted(candidates, key=_court_number)
    # each candidate with the texts of its booked and filed charges; built
    # per call rather than cached on the case, so the sets die with the call
    pool = [(c, frozenset(ch.text_key for ch in c.booking_charges + c.filed_charges)) for c in pool]
    for listed in psa.booking_charges[:2]:
        narrowed = [(c, texts) for c, texts in pool if listed.text_key in texts]
        if narrowed:
            pool = narrowed
        if len(pool) == 1:
            break
    return MatchResult(psa=psa, matched_cases=tuple(c for c, _ in pool), status=MatchStatus.MATCHED)


@dataclass
class LinkReport:
    """One MatchResult per input record, partitioned for accounting."""

    matched: list[MatchResult] = field(default_factory=list)
    unresolved: list[MatchResult] = field(default_factory=list)
    dropped_incomplete: list[MatchResult] = field(default_factory=list)
    dropped_duplicates: list[MatchResult] = field(default_factory=list)

    @property
    def all_results(self) -> Iterator[MatchResult]:
        """Every result, partition by partition, without a list of them all."""
        return chain(self.matched, self.unresolved, self.dropped_incomplete, self.dropped_duplicates)

    def counts(self) -> dict[str, int]:
        """Each partition's size, in pipeline order."""
        return {
            "dropped_incomplete": len(self.dropped_incomplete),
            "dropped_duplicates": len(self.dropped_duplicates),
            "unresolved": len(self.unresolved),
            "matched": len(self.matched),
        }


def link_records(records: Sequence[PsaRecord], cases: Sequence[CourtCase]) -> LinkReport:
    """Full pipeline: completeness filter, de-duplication, candidate search,
    match resolution.  Record conservation holds: every input record lands
    in exactly one partition of the report."""
    report = LinkReport()
    complete, incomplete = filter_complete(records)
    for _, r in _in_content_order(incomplete):
        report.dropped_incomplete.append(
            MatchResult(psa=r, matched_cases=(), status=MatchStatus.DROPPED_INCOMPLETE)
        )
    unique, duplicates = deduplicate(complete)
    del complete  # ``unique`` and ``duplicates`` now hold its records
    for r, kept in duplicates:
        report.dropped_duplicates.append(
            MatchResult(psa=r, matched_cases=(), status=MatchStatus.DROPPED_DUPLICATE, note=kept.record_id)
        )
    del duplicates  # the results now hold its records; its pairs would last the whole walk
    # ``unique`` is in sfid order, so one walk over the cases in sfid order
    # finds each person's cases
    cases = sorted(cases, key=_sfid)
    person, i, n = None, 0, len(cases)
    for r in unique:
        if r.sfid != person:
            person = r.sfid
            while i < n and cases[i].sfid < person:
                i += 1
            lo = i
            while i < n and cases[i].sfid == person:
                i += 1
            own = cases[lo:i]
        result = resolve_match(r, find_candidates(r, own))
        if result.status is MatchStatus.MATCHED:
            report.matched.append(result)
        else:
            report.unresolved.append(result)
    return report
