import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from psa_audit.charges import parse_charge_code
from psa_audit.linkage import (
    CourtCase,
    MatchStatus,
    PsaRecord,
    _content_order,
    _dedup_key,
    deduplicate,
    filter_complete,
    find_candidates,
    link_records,
    resolve_match,
)


def rec(record_id="R1", sfid="S1", arrest="2016-09-01", psa="2016-09-01",
        fta=2, nca=3, nvca=False, charges=("459 PC F",), **kw):
    return PsaRecord(
        record_id=record_id,
        sfid=sfid,
        arrest_date=date.fromisoformat(arrest) if arrest else None,
        psa_date=date.fromisoformat(psa) if psa else None,
        fta=fta,
        nca=nca,
        nvca_flag=nvca,
        booking_charges=tuple(parse_charge_code(c) for c in charges),
        **kw,
    )


def case(court_number="C1", sfid="S1", arrest="2016-09-01", charges=("459 PC F",),
         filed=None, dispositions=None, race="W"):
    filed = charges if filed is None else filed
    dispositions = tuple([160] * len(filed)) if dispositions is None else tuple(dispositions)
    return CourtCase(
        court_number=court_number,
        sfid=sfid,
        arrest_date=date.fromisoformat(arrest),
        race=race,
        booking_charges=tuple(parse_charge_code(c) for c in charges),
        filed_charges=tuple(parse_charge_code(c) for c in filed),
        dispositions=dispositions,
    )


def test_filter_complete_drops_missing_prediction():
    kept, dropped = filter_complete([rec(nca=None), rec(record_id="R2")])
    assert [r.record_id for r in dropped] == ["R1"]
    assert [r.record_id for r in kept] == ["R2"]


def test_filter_complete_requires_arrest_date():
    kept, dropped = filter_complete([rec(arrest=None)])
    assert not kept and len(dropped) == 1


def test_filter_complete_planted_count():
    rng = random.Random(3)
    records, planted = [], 0
    for i in range(200):
        if rng.random() < 0.1:
            records.append(rec(record_id=f"R{i}", sfid=f"S{i}", fta=None))
            planted += 1
        else:
            records.append(rec(record_id=f"R{i}", sfid=f"S{i}"))
    kept, dropped = filter_complete(records)
    assert len(dropped) == planted
    assert len(kept) + len(dropped) == 200


def test_dedup_identical_records_keep_one():
    a = rec(record_id="R1")
    b = rec(record_id="R2")
    unique, dropped = deduplicate([a, b])
    assert [u.record_id for u in unique] == ["R1"]
    assert [d.record_id for d in dropped] == ["R2"]


def test_dedup_same_day_different_charges_both_kept():
    a = rec(record_id="R1", charges=("459 PC F",))
    b = rec(record_id="R2", charges=("484 PC M",))
    unique, dropped = deduplicate([a, b])
    assert len(unique) == 2 and not dropped


def test_dedup_charge_key_uses_normalized_raw_multiset():
    a = rec(record_id="R1", charges=("459 PC F", "484  PC M"))
    b = rec(record_id="R2", charges=("484 PC M", "459 PC F"))
    unique, _ = deduplicate([a, b])
    assert len(unique) == 1


def test_dedup_idempotent_and_order_independent():
    rng = random.Random(9)
    records = []
    for i in range(60):
        records.append(rec(record_id=f"R{i}", sfid=f"S{i % 20}", psa="2016-09-0%d" % (i % 9 + 1)))
    once, dropped1 = deduplicate(records)
    twice, dropped2 = deduplicate(once)
    assert twice == once and not dropped2
    shuffled = records[:]
    rng.shuffle(shuffled)
    again, _ = deduplicate(shuffled)
    assert again == once


_RECORD_FIELDS = st.tuples(
    st.sampled_from(("S1", "S2")),
    st.sampled_from((None, "0001-01-01", "2016-09-01")),  # psa_date, date.min included
    # one charge spelled two ways; lists repeat charges in any order
    st.lists(st.sampled_from(("459 PC F", "484 PC M", "484  PC M", "245(A)(1) PC F")), max_size=3),
    st.sampled_from((None, "0001-01-01", "2016-09-02")),  # arrest_date
    st.sampled_from((None, 1, 2)),  # fta
    st.sampled_from((None, False, True)),  # nvca_flag
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjacency_dedupe_equals_the_set_based_rule(data):
    drawn = data.draw(st.lists(_RECORD_FIELDS, max_size=12))
    records = [rec(record_id=f"R{i}", sfid=sfid, psa=psa, charges=charges, arrest=arrest, fta=fta, nvca=nvca)
               for i, (sfid, psa, charges, arrest, fta, nvca) in enumerate(drawn)]
    seen, unique, dropped = set(), [], []
    for r in sorted(records, key=_content_order):
        key = _dedup_key(r)
        (dropped if key in seen else unique).append(r)
        seen.add(key)
    assert deduplicate(data.draw(st.permutations(records))) == (unique, dropped)


def test_candidate_window_offsets():
    base = date(2016, 9, 10)
    r = rec(arrest="2016-09-10")
    accepted = []
    for offset in range(-2, 4):
        c = case(court_number=f"C{offset + 2}", arrest=(base + timedelta(days=offset)).isoformat())
        if find_candidates(r, [c]):
            accepted.append(offset)
    assert accepted == [-1, 0, 1, 2]


def test_candidates_never_cross_sfids():
    r = rec(sfid="S1")
    c = case(sfid="S2")
    assert find_candidates(r, [c]) == []


def test_resolve_single_candidate():
    r = rec()
    m = resolve_match(r, [case()])
    assert m.status is MatchStatus.MATCHED
    assert [c.court_number for c in m.matched_cases] == ["C1"]


def test_resolve_zero_candidates_goes_to_review():
    m = resolve_match(rec(), [])
    assert m.status is MatchStatus.UNRESOLVED
    assert m.matched_cases == ()


def test_resolve_top_charge_filter():
    r = rec(charges=("187(A) PC F", "459 PC F"))
    c1 = case(court_number="C1", charges=("484 PC M",))
    c2 = case(court_number="C2", charges=("187(A) PC F", "459 PC F"))
    m = resolve_match(r, [c1, c2])
    assert [c.court_number for c in m.matched_cases] == ["C2"]


def test_resolve_second_charge_filter():
    r = rec(charges=("459 PC F", "484 PC M"))
    c1 = case(court_number="C1", charges=("459 PC F",))
    c2 = case(court_number="C2", charges=("459 PC F", "484 PC M"))
    m = resolve_match(r, [c1, c2])
    assert [c.court_number for c in m.matched_cases] == ["C2"]


def test_resolve_survivors_of_both_filters_all_match():
    r = rec(charges=("459 PC F", "484 PC M"))
    c1 = case(court_number="C1", charges=("459 PC F", "484 PC M"))
    c2 = case(court_number="C2", charges=("459 PC F", "484 PC M"))
    m = resolve_match(r, [c1, c2])
    assert [c.court_number for c in m.matched_cases] == ["C1", "C2"]


def test_resolve_filter_that_would_empty_pool_is_skipped():
    # neither candidate lists the top charge; both remain and are matched
    r = rec(charges=("187(A) PC F",))
    c1 = case(court_number="C1", charges=("459 PC F",))
    c2 = case(court_number="C2", charges=("484 PC M",))
    m = resolve_match(r, [c1, c2])
    assert m.status is MatchStatus.MATCHED
    assert len(m.matched_cases) == 2


def test_link_pipeline_conservation_and_order_independence():
    rng = random.Random(17)
    records, cases = [], []
    for i in range(120):
        sfid = f"S{i}"
        day = date(2016, 9, 1) + timedelta(days=i % 28)
        r = rec(record_id=f"R{i:03d}", sfid=sfid, arrest=day.isoformat(), psa=day.isoformat())
        roll = rng.random()
        if roll < 0.1:
            r = rec(record_id=f"R{i:03d}", sfid=sfid, arrest=day.isoformat(), psa=day.isoformat(), fta=None)
        elif roll < 0.2:
            records.append(r)
            records.append(rec(record_id=f"R{i:03d}D", sfid=sfid, arrest=day.isoformat(), psa=day.isoformat()))
            cases.append(case(court_number=f"C{i:03d}", sfid=sfid, arrest=day.isoformat()))
            continue
        elif roll < 0.3:
            records.append(r)  # no case: unresolved
            continue
        else:
            cases.append(case(court_number=f"C{i:03d}", sfid=sfid, arrest=day.isoformat()))
        records.append(r)

    report = link_records(records, cases)
    counts = report.counts()
    assert sum(counts.values()) == len(records)
    assert counts["unresolved"] > 0 and counts["dropped_incomplete"] > 0 and counts["dropped_duplicates"] > 0

    shuffled_r, shuffled_c = records[:], cases[:]
    rng.shuffle(shuffled_r)
    rng.shuffle(shuffled_c)
    report2 = link_records(shuffled_r, shuffled_c)
    assert report2.counts() == counts
    assert [m.psa.record_id for m in report2.matched] == [m.psa.record_id for m in report.matched]
    assert [
        tuple(c.court_number for c in m.matched_cases) for m in report2.matched
    ] == [tuple(c.court_number for c in m.matched_cases) for m in report.matched]


def test_psa_record_requires_sfid():
    with pytest.raises(ValueError):
        PsaRecord(record_id="R1", sfid="")


def test_court_case_disposition_arity_enforced():
    with pytest.raises(ValueError):
        CourtCase(
            court_number="C1",
            sfid="S1",
            filed_charges=(parse_charge_code("459 PC F"),),
            dispositions=(),
        )


def test_transposed_date_is_flagged_not_fatal():
    r = rec(arrest="2016-09-10", psa="2016-03-05")
    assert r.validate()
