"""Conviction-charge determination and counterfactual re-scoring.

Each linked record is scored twice with the same engine: once over the
booked charges from the matched court case(s) and once over only the
charges that ended in a conviction.  The two 1..6 predictions are carried
over from the administered form unchanged (they do not depend on booked
charges); the violence flag is re-derived because its current-offense
input does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, gt, sub
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .charges import ChargeCode
from .engine import EngineConfig, PsaResult, RiskFactors, SubScores, assess, nvca_flag_value
from .errors import NotDisposed
from .linkage import CourtCase, MatchResult, MatchStatus, PsaRecord


@dataclass(frozen=True)
class DispositionPolicy:
    """Jurisdiction-specific disposition semantics.

    conviction_threshold: codes strictly greater are convictions.
    plea_to_other_code: marks a guilty plea that names other charges.
    companion_zero_rule: in a fully resolved case containing the plea code,
        the zero-coded companion charges are the convictions.
    """

    conviction_threshold: int = 159
    plea_to_other_code: int = 72
    companion_zero_rule: bool = True

    def __post_init__(self):
        if self.conviction_threshold <= 0:
            raise ValueError("conviction_threshold must be > 0")


def fully_disposed(case: CourtCase) -> bool:
    """True when every filed charge carries a terminal disposition code."""
    return all(d is not None for d in case.dispositions)


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
        and any(d == policy.plea_to_other_code for d in case.dispositions)
    ):
        return True
    return False


def _dedup_sorted(charges: Iterable[ChargeCode]) -> tuple[ChargeCode, ...]:
    seen = {}
    for c in charges:
        seen.setdefault(c.normalized, c)
    return tuple(seen[k] for k in sorted(seen))


def conviction_charges(match: MatchResult, policy: DispositionPolicy) -> tuple[ChargeCode, ...]:
    """Union over matched cases of the charges that ended in conviction.

    May be empty even when a plea was entered, when none of the pleaded
    charges belong to the matched case(s).  Raises NotDisposed if any
    matched case still has pending charges; such records are excluded
    from the analysis.
    """
    if match.status is not MatchStatus.MATCHED:
        raise ValueError("conviction_charges needs a Matched record")
    for case in match.matched_cases:
        if not fully_disposed(case):
            raise NotDisposed(f"case {case.court_number} has pending charges")
    out = []
    for case in match.matched_cases:
        for charge, code in zip(case.filed_charges, case.dispositions):
            if is_conviction(code, case, policy):
                out.append(charge)
    return _dedup_sorted(out)


def booking_charges(match: MatchResult) -> tuple[ChargeCode, ...]:
    """Union of booked charges across the matched case(s)."""
    return _dedup_sorted(c for case in match.matched_cases for c in case.booking_charges)


def record_factors(
    age_at_arrest: int | None,
    prior_conviction: bool | None,
    prior_violent_convictions: int | None,
    current_offense_violent: bool,
) -> RiskFactors:
    """Risk factors from the fields an assessment record carries; absent
    fields contribute nothing to the violence-flag score."""
    return RiskFactors(
        age_at_arrest=age_at_arrest or 0,
        prior_conviction=bool(prior_conviction),
        prior_violent_convictions=prior_violent_convictions or 0,
        current_offense_violent=current_offense_violent,
    )


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

    The flag is computed once per distinct (age at arrest, prior
    conviction, prior violent convictions, current offense violent) and
    each SubScores built once per distinct (fta, nca, flag) under a config.
    """
    if record.fta is None or record.nca is None:
        raise ValueError(f"record {record.record_id} has no sub-scores")
    violent = any(config.catalog.is_violent(c) for c in charges)
    key = (record.age_at_arrest, record.prior_conviction, record.prior_violent_convictions, violent)
    nvca = config.flag_memo.get(key)
    if nvca is None:
        nvca = config.flag_memo[key] = nvca_flag_value(record_factors(*key), config.weights)
    key = (record.fta, record.nca, nvca)
    subs = config.subscore_memo.get(key)
    if subs is None:
        subs = config.subscore_memo[key] = SubScores(*key)
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


@dataclass(frozen=True, slots=True)
class AuditPair:
    """Booking-based vs conviction-based result for one linked record,
    and its person's group: one of ``GROUPS``, or "" when ungrouped."""

    record_id: str
    booking_result: PsaResult
    conviction_result: PsaResult
    excluded_by_sensitivity: bool
    group: str = ""


def changes(pairs: Sequence[AuditPair]) -> Iterator[tuple]:
    """Each pair's component changes from conviction to booking charges,
    in ``COMPONENTS`` order: whether each flag was lost, then the signed
    recommendation level difference."""
    booking = [p.booking_result for p in pairs]
    conviction = [p.conviction_result for p in pairs]
    return zip(*[map(c.change, map(c.read, booking), map(c.read, conviction)) for c in COMPONENTS])


def build_audit_pair(match: MatchResult, policy: DispositionPolicy, config: EngineConfig, group: str) -> AuditPair:
    booked = booking_charges(match)
    convicted = conviction_charges(match, policy)
    plea_entered = any(
        d == policy.plea_to_other_code for case in match.matched_cases for d in case.dispositions
    )
    return AuditPair(
        record_id=match.psa.record_id,
        booking_result=counterfactual_assess(match.psa, booked, config),
        conviction_result=counterfactual_assess(match.psa, convicted, config),
        excluded_by_sensitivity=plea_entered and not convicted,
        group=group,
    )


def build_audit_pairs(
    matches: Sequence[MatchResult],
    policy: DispositionPolicy,
    config: EngineConfig,
    groups: Mapping[str, str],
) -> tuple[list[AuditPair], list[MatchResult]]:
    """One AuditPair per matched, fully disposed record, in the group
    ``groups`` gives its person (sfid), or "" for a person it omits.

    Returns (pairs, skipped-not-disposed).  Pairs flagged
    ``excluded_by_sensitivity`` stay in the main set; the sensitivity
    variant of the analysis drops them.
    """
    pairs, skipped = [], []
    for m in matches:
        if m.status is not MatchStatus.MATCHED:
            continue
        if not all(fully_disposed(c) for c in m.matched_cases):
            skipped.append(m)
            continue
        pairs.append(build_audit_pair(m, policy, config, groups.get(m.psa.sfid, "")))
    return pairs, skipped
