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
from typing import Iterable, Sequence

from .charges import ChargeCode
from .engine import SubScores, SupervisionLevel

WINDOW_BEFORE = timedelta(days=1)
WINDOW_AFTER = timedelta(days=2)


@dataclass(frozen=True, slots=True)
class PsaRecord:
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
        if self.psa_date and self.arrest_date and self.psa_date < self.arrest_date - timedelta(days=1):
            issues.append("psa_date earlier than one day before arrest_date")
        return issues


#: Court race designations, in the column order of race_consistency.csv.
RACE_CATEGORIES = ("B", "C", "F", "H", "I", "J", "O", "U", "W")


@dataclass(frozen=True, slots=True)
class CourtCase:
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
        if len(self.dispositions) != len(self.filed_charges):
            raise ValueError("each filed charge needs exactly one disposition slot")


class MatchStatus(Enum):
    MATCHED = "Matched"
    UNRESOLVED = "Unresolved"
    DROPPED_INCOMPLETE = "DroppedIncomplete"
    DROPPED_DUPLICATE = "DroppedDuplicate"


@dataclass(frozen=True, slots=True)
class MatchResult:
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


def _dedup_key(record: PsaRecord):
    return (record.sfid, record.psa_date, _charge_key(record))


def _content_order(record: PsaRecord):
    """The records' content-only order.  Its first four fields order them
    by ``_dedup_key``, a missing form date before every date, so records
    with equal keys sort next to each other."""
    return (
        record.sfid,
        record.psa_date is not None,
        record.psa_date or date.min,
        _charge_key(record),
        record.arrest_date or date.min,
        record.fta or 0,
        record.nca or 0,
        bool(record.nvca_flag),
        record.name,
        record.record_id,
    )


def deduplicate(records: Iterable[PsaRecord]) -> tuple[list[PsaRecord], list[PsaRecord]]:
    """Keep one representative per (sfid, psa_date, charge multiset).

    The representative is the least record under a content-only ordering,
    so the outcome does not depend on input order.  Returns (unique,
    dropped duplicates).
    """
    unique, dropped = [], []
    kept = None  # the key of the last representative; equal keys are adjacent
    for r in sorted(records, key=_content_order):
        key = _dedup_key(r)
        if key == kept:
            dropped.append(r)
        else:
            kept = key
            unique.append(r)
    return unique, dropped


def find_candidates(psa: PsaRecord, cases: Iterable[CourtCase]) -> list[CourtCase]:
    """Cases sharing the record's sfid with an arrest date in the
    one-day-before to two-days-after window, ordered by court number."""
    if psa.arrest_date is None:
        return []
    lo = psa.arrest_date - WINDOW_BEFORE
    hi = psa.arrest_date + WINDOW_AFTER
    out = [
        c
        for c in cases
        if c.sfid == psa.sfid and c.arrest_date is not None and lo <= c.arrest_date <= hi
    ]
    out.sort(key=lambda c: c.court_number)
    return out


def resolve_match(psa: PsaRecord, candidates: Sequence[CourtCase]) -> MatchResult:
    """Narrow multiple candidates by top charge, then by second charge.

    A filter step that would eliminate every candidate is skipped (all
    candidates are then equally plausible), and every survivor of both
    steps is declared a match.  No candidate at all means the record goes
    to manual review.
    """
    pool = sorted(candidates, key=lambda c: c.court_number)
    if not pool:
        return MatchResult(psa=psa, matched_cases=(), status=MatchStatus.UNRESOLVED, note="no-candidates")
    if len(pool) == 1:
        return MatchResult(psa=psa, matched_cases=tuple(pool), status=MatchStatus.MATCHED)
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
    def all_results(self) -> list[MatchResult]:
        return self.matched + self.unresolved + self.dropped_incomplete + self.dropped_duplicates

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
    for r in sorted(incomplete, key=_content_order):
        report.dropped_incomplete.append(
            MatchResult(psa=r, matched_cases=(), status=MatchStatus.DROPPED_INCOMPLETE)
        )
    unique, duplicates = deduplicate(complete)
    for r in duplicates:
        report.dropped_duplicates.append(
            MatchResult(psa=r, matched_cases=(), status=MatchStatus.DROPPED_DUPLICATE)
        )
    by_sfid: dict[str, list[CourtCase]] = {}
    for c in cases:
        by_sfid.setdefault(c.sfid, []).append(c)
    for r in unique:
        result = resolve_match(r, find_candidates(r, by_sfid.get(r.sfid, ())))
        if result.status is MatchStatus.MATCHED:
            report.matched.append(result)
        else:
            report.unresolved.append(result)
    return report
