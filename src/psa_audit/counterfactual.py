"""Conviction-charge determination and counterfactual re-scoring.

Each linked record is scored twice with the same engine: once over the
booked charges from the matched court case(s) and once over only the
charges that ended in a conviction.  The two 1..6 predictions are carried
over from the administered form unchanged (they do not depend on booked
charges); the violence flag is re-derived because its current-offense
input does.  Either side may be given as the charges stand, in any order
and with repeats: the engine reads only order-free facts of a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, gt, sub
from typing import Any, Callable, Container, Iterable, NamedTuple, Sequence

from .charges import ChargeCode, _normalized
from .engine import EngineConfig, PsaResult, assess, derive_subscores
from .errors import NotDisposed
from .linkage import CourtCase, MatchResult, MatchStatus, PsaRecord


@dataclass(frozen=True)
class DispositionPolicy:
    """Jurisdiction-specific disposition semantics.

    conviction_threshold: codes strictly greater are convictions.
    plea_to_other_code: marks a guilty plea that names other charges; in
        1..conviction_threshold, so that a plea charge never convicts.
    companion_zero_rule: in a fully resolved case containing the plea code,
        the zero-coded companion charges are the convictions.
    """

    conviction_threshold: int = 159
    plea_to_other_code: int = 72
    companion_zero_rule: bool = True

    def __post_init__(self):
        if self.conviction_threshold <= 0:
            raise ValueError("conviction_threshold must be > 0")
        if not 1 <= self.plea_to_other_code <= self.conviction_threshold:
            raise ValueError("plea_to_other_code must be in 1..conviction_threshold")


def fully_disposed(case: CourtCase) -> bool:
    """True when every filed charge carries a terminal disposition code."""
    return None not in case.dispositions


def is_conviction(code: int | None, case: CourtCase, policy: DispositionPolicy) -> bool:
    """Whether one charge's disposition code denotes a conviction.

    Codes above the threshold always do.  A zero code counts only under
    the companion rule: the case is fully resolved and some sibling charge
    carries the plea-to-other-charges code.
    """
    if code is None:
        return False
    if code > policy.conviction_threshold:
        return True
    if (
        policy.companion_zero_rule
        and code == 0
        and fully_disposed(case)
        and policy.plea_to_other_code in case.dispositions
    ):
        return True
    return False


def _dedup_sorted(charges: Sequence[ChargeCode]) -> tuple[ChargeCode, ...]:
    """The first of ``charges`` with each normalized text, in normalized-text order."""
    if len(charges) < 2:
        return tuple(charges)
    last_first = charges[::-1]
    by_text = dict(zip(map(_normalized, last_first), last_first))
    return tuple(map(by_text.__getitem__, sorted(by_text)))


def conviction_charges(match: MatchResult, policy: DispositionPolicy) -> tuple[ChargeCode, ...]:
    """Union over matched cases of the charges that ended in conviction.

    May be empty even when a plea was entered, when none of the pleaded
    charges belong to the matched case(s).  Raises NotDisposed if any
    matched case still has pending charges; such records are excluded
    from the analysis.
    """
    if match.status is not MatchStatus.MATCHED:
        raise ValueError("conviction_charges needs a Matched record")
    convicted = []
    for case in match.matched_cases:
        mask = _conviction_mask(case, policy)
        if mask is None:
            raise NotDisposed(f"case {case.court_number} has pending charges")
        convicted += compress(case.filed_charges, mask)
    return _dedup_sorted(convicted)


def _conviction_mask(case: CourtCase, policy: DispositionPolicy) -> tuple[bool, ...] | None:
    """Which filed charges of ``case`` ended in conviction under
    ``policy``, or None while a charge is pending.  It reads nothing of
    the case but its disposition codes."""
    codes = case.dispositions
    if None in codes:
        return None
    # every code is terminal, so ``is_conviction`` reduces to the threshold
    # plus one per-case answer: whether a zero code convicts there, asked
    # only of a case that holds one
    threshold = policy.conviction_threshold
    zero = 0 in codes and is_conviction(0, case, policy)
    return tuple(code > threshold or (zero and code == 0) for code in codes)


def booking_charges(match: MatchResult) -> tuple[ChargeCode, ...]:
    """Union of booked charges across the matched case(s)."""
    cases = match.matched_cases
    if len(cases) == 1:
        return _dedup_sorted(cases[0].booking_charges)
    return _dedup_sorted([c for case in cases for c in case.booking_charges])


def counterfactual_assess(
    record: PsaRecord,
    charges: Sequence[ChargeCode],
    config: EngineConfig,
) -> PsaResult:
    """Score a record over an arbitrary charge set.

    FTA and NCA come verbatim from the record; the violence flag is
    recomputed with only its current-offense-violent input re-derived
    from ``charges``.  Extradition is treated as false: the counterfactual
    concerns charges only, and the source data carries no extradition
    field.
    """
    if record.fta is None or record.nca is None:
        raise ValueError(f"record {record.record_id} has no sub-scores")
    subs = derive_subscores(record.fta, record.nca, record.age_at_arrest, record.prior_conviction,
                            record.prior_violent_convictions, charges, config)
    return assess(subs, charges, False, config.dmf, config.catalog)


class Component(NamedTuple):
    """One audited component of a result.

    name: its row in the rate, affected and validation tables;
    read: its value in a PsaResult;
    recorded: its value recorded on the assessment form, read from a
        PsaRecord, or None where the form gives none to compare;
    column: its audit_pairs.csv column;
    change: that column's value from the booking and the conviction value:
        ``gt`` for a flag (held under booking only, i.e. lost), ``sub``
        for the recommendation (the signed level difference).
    """

    name: str
    read: Callable[[PsaResult], Any]
    recorded: Callable[[PsaRecord], Any]
    column: str
    change: Callable[[Any, Any], Any]


#: The audited components, in report order.  One rule covers all four:
#: booking charges raised a component when its booking value is greater
#: than its conviction value (``True > False`` for a flag, a strictly
#: higher level for the recommendation), i.e. when its change is positive.
COMPONENTS = (
    Component("exclusion", attrgetter("exclusion"), attrgetter("recorded_exclusion"), "exclusion_lost", gt),
    # the form skips the bump-up determination once an exclusion is
    # recorded, so only non-excluded records have one to compare
    Component("bumpup", attrgetter("bumpup"),
              lambda rec: rec.recorded_bumpup if rec.recorded_exclusion is False else None, "bumpup_lost", gt),
    Component("nvca_flag", attrgetter("subscores.nvca_flag"), attrgetter("nvca_flag"), "nvca_lost", gt),
    Component("recommendation", attrgetter("final"), attrgetter("recorded_recommendation"),
              "recommendation_delta", sub),
)

#: The person groups each audit table reports beside "all", in report order.
GROUPS = ("B", "non-B")


@dataclass(slots=True)
class AuditPair:
    """Booking-based vs conviction-based result for one linked record,
    and its person's group: one of ``GROUPS``, or "" when ungrouped.

    A per-row carrier like ``PsaRecord``, made once per pair and never
    changed; it is not frozen because a frozen dataclass sets each field
    through ``object.__setattr__``, which makes building one several times
    slower.  No code hashes a pair or keys a memo on one: the tables key
    on the identity of its two shared results."""

    record_id: str
    booking_result: PsaResult
    conviction_result: PsaResult
    excluded_by_sensitivity: bool
    group: str = ""


def changes(booking: PsaResult, conviction: PsaResult) -> tuple:
    """One result pair's component changes from conviction to booking
    charges, in ``COMPONENTS`` order: whether each flag was lost, then the
    signed recommendation level difference."""
    return tuple(c.change(c.read(booking), c.read(conviction)) for c in COMPONENTS)


#: The most entries ``build_audit_pairs``' dispositions memo holds; a full
#: memo keeps what it holds and stores nothing more.  The seeded 100k
#: audit's one-case matches carry 15,302 distinct dispositions cells;
#: keeping the first cells instead of clearing a full memo misses less on
#: both benchmark corpora.
_PAIR_MEMO_SIZE = 4096


def build_audit_pairs(
    matches: Iterable[MatchResult],
    policy: DispositionPolicy,
    config: EngineConfig,
    b_people: Container[str],
) -> tuple[list[AuditPair], list[str]]:
    """One AuditPair per Matched, fully disposed match, in its person's group,
    resolved per individual: a person (sfid) in ``b_people``, those
    designated B on any of their court cases, is group B for all of their
    records; everyone else (missing designations included) is non-B.

    Returns (pairs, the record ids of the matches skipped as not fully
    disposed); a match that is not Matched raises ValueError, as in
    ``conviction_charges``.  No match is kept, so a caller that hands the
    matches over one at a time frees each as its pair is built.  Pairs
    flagged ``excluded_by_sensitivity`` stay in the main set; the
    sensitivity variant of the analysis drops them.

    A match with one case, as about 98% are, reads its dispositions from
    a memo that lives for this call only, so no answer that depends on
    ``policy`` outlives it.  The readers share one tuple per distinct
    cell, so the memo is keyed on the identity of a case's dispositions
    tuple, to its conviction mask (None while a charge is pending) and
    whether the plea code was entered.  Each entry holds the tuple whose
    id keys it, so that id is not reused while the entry lives, and the
    memo stores at most ``_PAIR_MEMO_SIZE`` entries.  The booking side is
    scored over the case's booked cell as the reader shares it, and the
    conviction side over the filed charges its mask keeps, in filing
    order: the engine reads neither order nor repeats, so neither set is
    sorted or de-duplicated.  A match with several cases takes its sets
    from ``booking_charges`` and ``conviction_charges``.  Either way each
    pair scores both its sets through ``counterfactual_assess``.
    """
    plea = policy.plea_to_other_code
    outcomes = {}
    pairs, skipped = [], []
    for m in matches:
        record = m.psa
        cases = m.matched_cases
        if len(cases) == 1 and m.status is MatchStatus.MATCHED:
            case = cases[0]
            codes = case.dispositions
            outcome = outcomes.get(id(codes))
            if outcome is None:
                outcome = (codes, _conviction_mask(case, policy), plea in codes)
                if len(outcomes) < _PAIR_MEMO_SIZE:
                    outcomes[id(codes)] = outcome
            _, mask, plea_entered = outcome
            if mask is None:
                skipped.append(record.record_id)
                continue
            convicted = tuple(compress(case.filed_charges, mask))
            booked = case.booking_charges
        else:
            try:
                convicted = conviction_charges(m, policy)
            except NotDisposed:
                skipped.append(record.record_id)
                continue
            booked = booking_charges(m)
            plea_entered = any(plea in case.dispositions for case in cases)
        pairs.append(AuditPair(record.record_id, counterfactual_assess(record, booked, config),
                               counterfactual_assess(record, convicted, config), plea_entered and not convicted,
                               "B" if record.sfid in b_people else "non-B"))
    return pairs, skipped
