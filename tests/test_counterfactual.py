import random
from dataclasses import replace
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from psa_audit import counterfactual
from psa_audit.charges import parse_charge_code
from psa_audit.counterfactual import (
    AuditPair,
    DispositionPolicy,
    booking_charges,
    build_audit_pairs,
    changes,
    conviction_charges,
    counterfactual_assess,
    fully_disposed,
    is_conviction,
)
from psa_audit.engine import FlagSpec, SupervisionLevel, WeightConfig, derive_subscores
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
    assert not is_conviction(None, c, POLICY)  # a pending charge


def test_fully_disposed():
    assert fully_disposed(case(["459 PC F"], [30]))
    assert not fully_disposed(case(["459 PC F", "484 PC M"], [160, None]))


def test_policy_validation():
    with pytest.raises(ValueError):
        DispositionPolicy(conviction_threshold=0)
    # the plea code lies in 1..conviction_threshold, so the plea charge never convicts
    for bad in ({"plea_to_other_code": 0}, {"plea_to_other_code": 160}, {"conviction_threshold": 50}):
        with pytest.raises(ValueError, match="plea_to_other_code"):
            DispositionPolicy(**bad)
    DispositionPolicy(plea_to_other_code=1)
    DispositionPolicy(plea_to_other_code=159)


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


@pytest.mark.parametrize("scores", [{"fta": None}, {"nca": None}])
def test_a_record_without_fta_or_nca_cannot_be_rescored(config, scores):
    with pytest.raises(ValueError, match="record R1 has no sub-scores"):
        counterfactual_assess(rec(**scores), [q("459 PC F")], config)


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


def test_violence_flag_follows_its_config(config):
    # the default weights set the flag; a copy with an unreachable threshold
    # must not, and scoring under it leaves the default config's answer as is
    r = rec(prior_conviction=True, pv=1)
    assert counterfactual_assess(r, [q("240 PC M")], config).subscores.nvca_flag
    strict = replace(config, weights=WeightConfig(nvca=FlagSpec(
        weights=config.weights.nvca.weights, threshold=100)))
    assert not counterfactual_assess(r, [q("240 PC M")], strict).subscores.nvca_flag
    assert counterfactual_assess(r, [q("240 PC M")], config).subscores.nvca_flag


def test_equal_inputs_share_one_subscores(config):
    # equal inputs share one SubScores, and so do inputs that differ only in
    # what the weights ignore (age) or in which non-violent charges they
    # carry; a violent charge on a history that reaches the threshold gives
    # another, under any copy of the config
    first = derive_subscores(4, 5, 30, False, 0, [q("459 PC F")], config)
    assert derive_subscores(4, 5, 30, False, 0, [q("459 PC F")], config) is first
    assert derive_subscores(4, 5, 41, False, 0, [q("484 PC M")], config) is first
    violent = derive_subscores(4, 5, 30, True, 1, [q("240 PC M")], config)
    assert violent.nvca_flag and violent is not first
    assert derive_subscores(4, 5, 30, True, 1, [q("240 PC M")], replace(config)) is violent


def test_exclusion_lost_at_top_initial_keeps_final(config):
    # initial is already the top level, so losing the exclusion charge
    # cannot lower the final recommendation
    r = rec(fta=6, nca=6)
    m = matched(case(["187(A) PC F", "459 PC F"], [30, 160]), record=r)
    [pair], _ = build_audit_pairs([m], POLICY, config, set())
    exclusion_lost, _, _, delta = changes(pair.booking_result, pair.conviction_result)
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
    [pair], _ = build_audit_pairs([m], POLICY, config, set())
    assert pair.booking_result.initial is L.SFPDP_ACM
    assert pair.booking_result.exclusion
    assert pair.conviction_result.bumpup and not pair.conviction_result.exclusion
    assert pair.booking_result.final is L.RELEASE_NOT_RECOMMENDED
    assert pair.conviction_result.final is L.RELEASE_NOT_RECOMMENDED
    exclusion_lost, _, _, delta = changes(pair.booking_result, pair.conviction_result)
    assert exclusion_lost and delta == 0


def test_bumpup_lost_lowers_final(config):
    r = rec(fta=2, nca=3)
    m = matched(case(["646.9 PC M", "459 PC F"], [30, 160]), record=r)
    [pair], _ = build_audit_pairs([m], POLICY, config, set())
    _, bumpup_lost, _, delta = changes(pair.booking_result, pair.conviction_result)
    assert bumpup_lost
    assert delta == 1
    assert pair.booking_result.final is L.OR_MINIMUM
    assert pair.conviction_result.final is L.OR_NAS


def test_sensitivity_flag_marks_plea_to_other_case_only(config):
    m = matched(case(["459 PC F"], [72]))
    [pair], _ = build_audit_pairs([m], POLICY, config, set())
    assert pair.excluded_by_sensitivity
    # a plea with an in-case companion conviction is not flagged
    m2 = matched(case(["459 PC F", "484 PC M"], [72, 0]))
    [pair2], _ = build_audit_pairs([m2], POLICY, config, set())
    assert not pair2.excluded_by_sensitivity


def test_build_audit_pairs_empty_input(config):
    pairs, skipped = build_audit_pairs([], POLICY, config, set())
    assert pairs == [] and skipped == []


def test_build_audit_pairs_skips_undisposed(config):
    pending = matched(case(["459 PC F"], [None]))
    done = matched(case(["459 PC F"], [160]), record=rec(record_id="R2"))
    pairs, skipped = build_audit_pairs([pending, done], POLICY, config, set())
    assert [p.record_id for p in pairs] == ["R2"]
    assert skipped == ["R1"]


def test_build_audit_pairs_rejects_an_unresolved_match(config):
    unresolved = MatchResult(psa=rec(), matched_cases=(), status=MatchStatus.UNRESOLVED)
    with pytest.raises(ValueError, match="Matched record"):
        build_audit_pairs([matched(case(["459 PC F"], [160])), unresolved], POLICY, config, set())


def test_build_audit_pairs_labels_each_person_from_the_b_set(config):
    people = ["S1", "S2", "S3", "S1"]
    ms = [matched(case(["459 PC F"], [160]), record=replace(rec(record_id=f"R{i}"), sfid=sfid))
          for i, sfid in enumerate(people)]
    pairs, skipped = build_audit_pairs(ms, POLICY, config, {"S1", "S9"})
    assert skipped == []
    # a member of the set is B on every record, anyone else is non-B; no pair is ungrouped
    assert [(p.record_id, p.group) for p in pairs] == [("R0", "B"), ("R1", "non-B"), ("R2", "non-B"), ("R3", "B")]


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
        [pair], _ = build_audit_pairs([m], POLICY, config, set())
        exclusion_lost, bumpup_lost, nvca_lost, delta = changes(pair.booking_result, pair.conviction_result)
        assert pair.conviction_result.final <= pair.booking_result.final
        if delta > 0:
            # the split cell adds a fourth mechanism: losing the only felony
            # (or violent misdemeanor) flips the split determination without
            # any exclusion/bump-up/flag being lost
            split_flip = config.dmf.cells[r.fta - 1][r.nca - 1] == "SPLIT" and (
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
    [pair], _ = build_audit_pairs([m], POLICY, config, set())
    instances = (m.psa, m.matched_cases[0], m, pair, pair.booking_result, pair.booking_result.subscores)
    assert [type(x).__name__ for x in instances] == [
        "PsaRecord", "CourtCase", "MatchResult", "AuditPair", "PsaResult", "SubScores"]
    assert [type(x).__name__ for x in instances if hasattr(x, "__dict__")] == []


# ---------------------------------------------------------------------------
# the pair path against a per-charge reference


def _ref_union(charges):
    """The first of ``charges`` with each normalized text, in normalized-text order."""
    first = {}
    for c in charges:
        first.setdefault(c.normalized, c)
    return tuple(first[text] for text in sorted(first))


def _ref_conviction_charges(match, policy):
    for c in match.matched_cases:
        if not fully_disposed(c):
            raise NotDisposed(c.court_number)
    return _ref_union([charge for c in match.matched_cases
                       for charge, code in zip(c.filed_charges, c.dispositions) if is_conviction(code, c, policy)])


def _ref_booking_charges(match):
    return _ref_union([charge for c in match.matched_cases for charge in c.booking_charges])


def _ref_build_audit_pairs(matches, policy, config, b_people):
    pairs, skipped = [], []
    for m in matches:
        try:
            convicted = _ref_conviction_charges(m, policy)
        except NotDisposed:
            skipped.append(m.psa.record_id)
            continue
        plea_entered = any(policy.plea_to_other_code in c.dispositions for c in m.matched_cases)
        pairs.append(AuditPair(
            record_id=m.psa.record_id,
            booking_result=counterfactual_assess(m.psa, _ref_booking_charges(m), config),
            conviction_result=counterfactual_assess(m.psa, convicted, config),
            excluded_by_sensitivity=plea_entered and not convicted,
            group="B" if m.psa.sfid in b_people else "non-B",
        ))
    return pairs, skipped


# two spellings of 459 and of 484, so equal normalized texts meet across
# cases and the union must keep the first spelling it sees
_DIFF_CHARGES = ("459 PC F", "459PC F", "484 PC M", "484  PC M", "187(A) PC F", "240 PC M", "211 PC F")


#: Thresholds of 2 and 159, each with the plea codes 1, 72 (or the
#: threshold, if lower) and the threshold, with the companion rule off and on.
_POLICIES = [DispositionPolicy(threshold, plea, zero_rule) for threshold in (2, 159)
             for plea in sorted({1, min(72, threshold), threshold}) for zero_rule in (False, True)]


def _policies():
    return st.sampled_from(_POLICIES)


@st.composite
def _matches(draw, policy, record_id):
    threshold, plea = policy.conviction_threshold, policy.plea_to_other_code
    # pending slots, zero, the plea code and the threshold's neighbours
    codes = st.sampled_from((None, 0, plea, threshold - 1, threshold, threshold + 1, 300))
    cases = []
    for n in range(draw(st.integers(1, 3))):
        filed = draw(st.lists(st.sampled_from(_DIFF_CHARGES), min_size=1, max_size=4))
        cases.append(CourtCase(
            court_number=f"C{n}",
            sfid="S1",
            arrest_date=date(2016, 9, 1),
            booking_charges=tuple(q(c) for c in draw(st.lists(st.sampled_from(_DIFF_CHARGES), max_size=3))),
            filed_charges=tuple(q(c) for c in filed),
            dispositions=tuple(draw(codes) for _ in filed),
        ))
    record = replace(rec(record_id=record_id, fta=draw(st.integers(1, 6)), nca=draw(st.integers(1, 6)),
                         prior_conviction=draw(st.booleans()), pv=draw(st.integers(0, 2))),
                     sfid=draw(st.sampled_from(("S1", "S2"))))
    return matched(*cases, record=record)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_path_equals_the_per_charge_reference(config, data):
    policy = data.draw(_policies())
    matches = [data.draw(_matches(policy, f"R{i}")) for i in range(data.draw(st.integers(1, 4)))]
    for m in matches:
        assert list(map(id, booking_charges(m))) == list(map(id, _ref_booking_charges(m)))
        try:
            reference = _ref_conviction_charges(m, policy)
        except NotDisposed:
            with pytest.raises(NotDisposed):
                conviction_charges(m, policy)
        else:
            assert list(map(id, conviction_charges(m, policy))) == list(map(id, reference))
    pairs, skipped = build_audit_pairs(matches, policy, config, {"S1"})
    ref_pairs, ref_skipped = _ref_build_audit_pairs(matches, policy, config, {"S1"})
    assert skipped == ref_skipped
    assert pairs == ref_pairs
    assert [p.excluded_by_sensitivity for p in pairs] == [p.excluded_by_sensitivity for p in ref_pairs]


# the readers share one tuple per distinct cell: a record and its case, two
# cases, and a case's booked and filed columns may all hold one object
_SHARED_CODES = {text: q(text) for text in _DIFF_CHARGES}


@st.composite
def _shared_matches(draw, policy):
    """Matches whose cases draw their charge and disposition tuples from
    one pool of shared objects, each charge cell booked at least once."""
    threshold, plea = policy.conviction_threshold, policy.plea_to_other_code
    codes = st.sampled_from((None, 0, plea, threshold - 1, threshold, threshold + 1, 300))
    texts = st.lists(st.sampled_from(_DIFF_CHARGES), max_size=4)
    charge_cells = [tuple(map(_SHARED_CODES.get, cell))
                    for cell in draw(st.lists(texts, min_size=4, max_size=10, unique_by=tuple))]
    disposition_cells = {n: draw(st.lists(st.tuples(*[codes] * n), min_size=1, max_size=3)) for n in range(5)}
    matches = []
    for i in range(draw(st.integers(len(charge_cells), 3 * len(charge_cells)))):
        cases = []
        for n in range(draw(st.sampled_from((1, 1, 1, 2)))):
            booked = charge_cells[i % len(charge_cells)] if n == 0 else draw(st.sampled_from(charge_cells))
            filed = draw(st.sampled_from(charge_cells))
            cases.append(CourtCase(court_number=f"C{n}", sfid="S1", arrest_date=date(2016, 9, 1),
                                   booking_charges=booked, filed_charges=filed,
                                   dispositions=draw(st.sampled_from(disposition_cells[len(filed)]))))
        record = replace(rec(record_id=f"R{i}", fta=draw(st.integers(1, 6)), nca=draw(st.integers(1, 6)),
                             prior_conviction=draw(st.booleans()), pv=draw(st.integers(0, 2))),
                         sfid=draw(st.sampled_from(("S1", "S2"))), booking_charges=cases[0].booking_charges)
        matches.append(matched(*cases, record=record))
    return matches, sum(map(len, disposition_cells.values()))


@pytest.mark.parametrize("policy", _POLICIES, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_pair_memos_equal_the_reference_over_shared_cells_past_their_bound(config, policy, data):
    matches, cells = data.draw(_shared_matches(policy))
    # fewer entries than the dispositions cells, so the memo fills mid-call
    bound = data.draw(st.integers(1, cells - 1))
    scored = []

    def recording(subscores, charges, *rest):
        scored.append(sorted({c.normalized for c in charges}))
        return assess(subscores, charges, *rest)

    assess = counterfactual.assess
    with mock.patch.object(counterfactual, "_PAIR_MEMO_SIZE", bound), \
            mock.patch.object(counterfactual, "assess", recording):
        pairs, skipped = build_audit_pairs(matches, policy, config, {"S1"})
        memo_sets, scored[:] = scored[:], []
        ref_pairs, ref_skipped = _ref_build_audit_pairs(matches, policy, config, {"S1"})
    assert skipped == ref_skipped
    assert pairs == ref_pairs
    # each side is scored over the same normalized charge set as the reference's
    assert memo_sets == scored
