import random
from dataclasses import replace
from datetime import date

import pytest

from psa_audit.charges import parse_charge_code
from psa_audit.counterfactual import (
    AuditPair,
    DispositionPolicy,
    booking_charges,
    build_audit_pair,
    build_audit_pairs,
    changes,
    conviction_charges,
    counterfactual_assess,
    fully_disposed,
    is_conviction,
)
from psa_audit.engine import FlagSpec, SupervisionLevel, WeightConfig
from psa_audit.errors import NotDisposed
from psa_audit.linkage import CourtCase, MatchResult, MatchStatus, PsaRecord

L = SupervisionLevel
POLICY = DispositionPolicy()


def q(text):
    return parse_charge_code(text)


def rec(record_id="R1", fta=2, nca=3, nvca=False, prior_conviction=False, pv=0, charges=()):
    return PsaRecord(
        record_id=record_id,
        sfid="S1",
        arrest_date=date(2016, 9, 1),
        psa_date=date(2016, 9, 1),
        fta=fta,
        nca=nca,
        nvca_flag=nvca,
        prior_conviction=prior_conviction,
        prior_violent_convictions=pv,
        booking_charges=tuple(q(c) for c in charges),
    )


def case(charges, dispositions, court_number="C1"):
    parsed = tuple(q(c) for c in charges)
    return CourtCase(
        court_number=court_number,
        sfid="S1",
        arrest_date=date(2016, 9, 1),
        booking_charges=parsed,
        filed_charges=parsed,
        dispositions=tuple(dispositions),
    )


def matched(*cases, record=None):
    return MatchResult(psa=record or rec(), matched_cases=tuple(cases), status=MatchStatus.MATCHED)


# ---------------------------------------------------------------------------
# disposition semantics


def test_threshold_is_exclusive():
    c = case(["459 PC F"], [160])
    assert is_conviction(160, c, POLICY)
    c159 = case(["459 PC F"], [159])
    assert not is_conviction(159, c159, POLICY)


def test_plea_code_alone_is_not_a_conviction():
    c = case(["459 PC F"], [72])
    assert not is_conviction(72, c, POLICY)


def test_companion_zero_rule():
    c = case(["459 PC F", "484 PC M"], [72, 0])
    assert is_conviction(0, c, POLICY)
    assert not is_conviction(72, c, POLICY)
    # zero without a plea companion is not a conviction
    c2 = case(["459 PC F", "484 PC M"], [30, 0])
    assert not is_conviction(0, c2, POLICY)
    # rule can be switched off
    off = DispositionPolicy(companion_zero_rule=False)
    assert not is_conviction(0, c, off)


def test_companion_zero_requires_resolved_case():
    c = case(["459 PC F", "484 PC M", "466 PC M"], [72, 0, None])
    assert not is_conviction(0, c, POLICY)


def test_fully_disposed():
    assert fully_disposed(case(["459 PC F"], [30]))
    assert not fully_disposed(case(["459 PC F", "484 PC M"], [160, None]))


def test_policy_validation():
    with pytest.raises(ValueError):
        DispositionPolicy(conviction_threshold=0)


# ---------------------------------------------------------------------------
# conviction charge sets


def test_conviction_set_threshold_rule():
    m = matched(case(["187(A) PC F", "240 PC M"], [30, 160]))
    assert [c.normalized for c in conviction_charges(m, POLICY)] == ["240 PC M"]


def test_conviction_set_all_dismissed_is_empty():
    m = matched(case(["187(A) PC F", "240 PC M"], [30, 40]))
    assert conviction_charges(m, POLICY) == ()


def test_conviction_set_plea_to_other_case_only_is_empty():
    m = matched(case(["459 PC F"], [72]))
    assert conviction_charges(m, POLICY) == ()


def test_conviction_set_companion_zero():
    m = matched(case(["459 PC F", "484 PC M"], [72, 0]))
    assert [c.normalized for c in conviction_charges(m, POLICY)] == ["484 PC M"]


def test_conviction_union_over_matched_cases_dedups():
    m = matched(
        case(["459 PC F"], [160], court_number="C1"),
        case(["459 PC F", "484 PC M"], [160, 160], court_number="C2"),
    )
    assert [c.normalized for c in conviction_charges(m, POLICY)] == ["459 PC F", "484 PC M"]


def test_conviction_requires_disposed():
    m = matched(case(["459 PC F", "484 PC M"], [160, None]))
    with pytest.raises(NotDisposed):
        conviction_charges(m, POLICY)


# ---------------------------------------------------------------------------
# counterfactual scoring


def test_identity_when_convicted_of_everything(config):
    r = rec()
    charges = [q("459 PC F"), q("484 PC M")]
    assert counterfactual_assess(r, charges, config) == counterfactual_assess(r, list(charges), config)


def test_empty_conviction_set_keeps_initial(config):
    r = rec(fta=2, nca=3)
    res = counterfactual_assess(r, [], config)
    assert res.initial is L.OR_NAS and res.final is L.OR_NAS
    assert not res.exclusion and not res.bumpup


def test_nvca_recomputed_from_charges(config):
    # history alone scores 2 of the 3 threshold points; violence adds 2
    r = rec(prior_conviction=True, pv=1)
    with_violence = counterfactual_assess(r, [q("240 PC M")], config)
    without = counterfactual_assess(r, [], config)
    assert with_violence.subscores.nvca_flag
    assert not without.subscores.nvca_flag


def test_violence_flag_memo_belongs_to_its_config(config):
    # the default weights set the flag; a copy with an unreachable threshold
    # must not be answered from the default config's memo
    r = rec(prior_conviction=True, pv=1)
    assert counterfactual_assess(r, [q("240 PC M")], config).subscores.nvca_flag
    strict = replace(config, weights=WeightConfig(nvca=FlagSpec(
        weights=config.weights.nvca.weights, threshold=100)))
    assert not strict.flag_memo and not strict.subscore_memo
    assert not counterfactual_assess(r, [q("240 PC M")], strict).subscores.nvca_flag
    assert counterfactual_assess(r, [q("240 PC M")], config).subscores.nvca_flag


def test_each_distinct_input_is_memoized_once(config):
    fresh = replace(config)  # a copy starts with empty memos
    for record_id, charge in (("R1", "459 PC F"), ("R2", "484 PC M")):
        counterfactual_assess(rec(record_id=record_id, fta=4, nca=5), [q(charge)], fresh)
    assert len(fresh.flag_memo) == len(fresh.subscore_memo) == 1
    counterfactual_assess(rec(fta=4, nca=5, prior_conviction=True, pv=1), [q("240 PC M")], fresh)
    assert len(fresh.flag_memo) == len(fresh.subscore_memo) == 2


def test_exclusion_lost_at_top_initial_keeps_final(config):
    # initial is already the top level, so losing the exclusion charge
    # cannot lower the final recommendation
    r = rec(fta=6, nca=6)
    m = matched(case(["187(A) PC F", "459 PC F"], [30, 160]), record=r)
    pair = build_audit_pair(m, POLICY, config, "")
    [(exclusion_lost, _, _, delta)] = changes([pair])
    assert pair.booking_result.exclusion and not pair.conviction_result.exclusion
    assert exclusion_lost
    assert pair.booking_result.final is L.RELEASE_NOT_RECOMMENDED
    assert pair.conviction_result.final is L.RELEASE_NOT_RECOMMENDED
    assert delta == 0


def test_exclusion_downgraded_to_bumpup_saturates(config):
    # initial SFPDP-ACM: exclusion at booking, bump-up conviction charge.
    # both route to the top level; the exclusion is still counted as lost.
    r = rec(fta=4, nca=4)
    m = matched(case(["273.5(A) PC F", "273.5(A) PC M"], [30, 160]), record=r)
    pair = build_audit_pair(m, POLICY, config, "")
    assert pair.booking_result.initial is L.SFPDP_ACM
    assert pair.booking_result.exclusion
    assert pair.conviction_result.bumpup and not pair.conviction_result.exclusion
    assert pair.booking_result.final is L.RELEASE_NOT_RECOMMENDED
    assert pair.conviction_result.final is L.RELEASE_NOT_RECOMMENDED
    [(exclusion_lost, _, _, delta)] = changes([pair])
    assert exclusion_lost and delta == 0


def test_bumpup_lost_lowers_final(config):
    r = rec(fta=2, nca=3)
    m = matched(case(["646.9 PC M", "459 PC F"], [30, 160]), record=r)
    pair = build_audit_pair(m, POLICY, config, "")
    [(_, bumpup_lost, _, delta)] = changes([pair])
    assert bumpup_lost
    assert delta == 1
    assert pair.booking_result.final is L.OR_MINIMUM
    assert pair.conviction_result.final is L.OR_NAS


def test_sensitivity_flag_marks_plea_to_other_case_only(config):
    m = matched(case(["459 PC F"], [72]))
    pair = build_audit_pair(m, POLICY, config, "")
    assert pair.excluded_by_sensitivity
    # a plea with an in-case companion conviction is not flagged
    m2 = matched(case(["459 PC F", "484 PC M"], [72, 0]))
    assert not build_audit_pair(m2, POLICY, config, "").excluded_by_sensitivity


def test_build_audit_pairs_empty_input(config):
    pairs, skipped = build_audit_pairs([], POLICY, config, {})
    assert pairs == [] and skipped == []


def test_build_audit_pairs_skips_undisposed(config):
    pending = matched(case(["459 PC F"], [None]))
    done = matched(case(["459 PC F"], [160]), record=rec(record_id="R2"))
    pairs, skipped = build_audit_pairs([pending, done], POLICY, config, {})
    assert [p.record_id for p in pairs] == ["R2"]
    assert [m.psa.record_id for m in skipped] == ["R1"]


def test_subset_monotonicity_and_delta_implication(config):
    rng = random.Random(555)
    pool = ["187(A) PC F", "211 PC F", "240 PC M", "273.5(A) PC M", "646.9 PC M",
            "459 PC F", "484 PC M", "10851(A) VC F", "853.7 PC M"]
    for i in range(400):
        booked = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        keep = [rng.random() < 0.5 for _ in booked]
        dispositions = [160 if k else 30 for k in keep]
        r = rec(
            record_id=f"R{i}",
            fta=rng.randint(1, 6),
            nca=rng.randint(1, 6),
            prior_conviction=rng.random() < 0.5,
            pv=rng.randint(0, 2),
        )
        m = matched(case(booked, dispositions), record=r)
        pair = build_audit_pair(m, POLICY, config, "")
        [(exclusion_lost, bumpup_lost, nvca_lost, delta)] = changes([pair])
        assert pair.conviction_result.final <= pair.booking_result.final
        if delta > 0:
            # the split cell adds a fourth mechanism: losing the only felony
            # (or violent misdemeanor) flips the split determination without
            # any exclusion/bump-up/flag being lost
            split_flip = config.dmf.cell(r.fta, r.nca) == "SPLIT" and (
                pair.booking_result.initial != pair.conviction_result.initial
            )
            assert exclusion_lost or bumpup_lost or nvca_lost or split_flip
        if all(keep):
            assert delta == 0
            assert not (exclusion_lost or bumpup_lost or nvca_lost)


def test_per_record_types_stay_slotted(config):
    # one __dict__ per record, case, match, pair or result costs megabytes
    # at 100k records; a cached_property would silently bring it back
    m = matched(case(["459 PC F", "484 PC M"], [160, 30]))
    pair = build_audit_pair(m, POLICY, config, "B")
    instances = (m.psa, m.matched_cases[0], m, pair, pair.booking_result, pair.booking_result.subscores)
    assert [type(x).__name__ for x in instances] == [
        "PsaRecord", "CourtCase", "MatchResult", "AuditPair", "PsaResult", "SubScores"]
    assert [type(x).__name__ for x in instances if hasattr(x, "__dict__")] == []
