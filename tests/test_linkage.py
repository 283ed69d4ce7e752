import random
import tracemalloc
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from psa_audit.charges import parse_charge_code
from psa_audit.io import read_court_cases, read_psa_records
from psa_audit.linkage import (
    CourtCase,
    LinkReport,
    MatchResult,
    MatchStatus,
    PsaRecord,
    _charge_key,
    _content_order,
    deduplicate,
    filter_complete,
    find_candidates,
    link_records,
    resolve_match,
)
from psa_audit.synth import GeneratorConfig, generate, write_dataset


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
    assert [(d.record_id, k.record_id) for d, k in dropped] == [("R2", "R1")]


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


def _dedup_key(record):
    return (record.sfid, record.psa_date, _charge_key(record))


def _order(record):
    """The record's content order, its charge key sorted afresh."""
    return _content_order(record, _charge_key(record))


def _reference_deduplicate(records):
    """De-duplication by one sort of every record by its whole content key
    and a dict of the records kept by their keys: (unique, [(duplicate,
    the record kept for its key)])."""
    kept = {}
    unique, dropped = [], []
    for r in sorted(records, key=_order):
        key = _dedup_key(r)
        if key in kept:
            dropped.append((r, kept[key]))
        else:
            kept[key] = r
            unique.append(r)
    return unique, dropped


def _reference_link_records(records, cases):
    """Linkage with the global-sort de-duplication and each person's cases
    looked up in a dict of per-sfid lists."""
    report = LinkReport()
    complete, incomplete = filter_complete(records)
    for r in sorted(incomplete, key=_order):
        report.dropped_incomplete.append(MatchResult(psa=r, matched_cases=(), status=MatchStatus.DROPPED_INCOMPLETE))
    unique, duplicates = _reference_deduplicate(complete)
    for r, kept in duplicates:
        report.dropped_duplicates.append(
            MatchResult(psa=r, matched_cases=(), status=MatchStatus.DROPPED_DUPLICATE, note=kept.record_id))
    by_sfid = {}
    for c in cases:
        by_sfid.setdefault(c.sfid, []).append(c)
    for r in unique:
        result = resolve_match(r, find_candidates(r, by_sfid.get(r.sfid, ())))
        (report.matched if result.status is MatchStatus.MATCHED else report.unresolved).append(result)
    return report


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
    assert deduplicate(data.draw(st.permutations(records))) == _reference_deduplicate(records)


def _identities(results):
    """Each result's record and cases by identity, with its status and note."""
    return [(id(m.psa), tuple(map(id, m.matched_cases)), m.status, m.note) for m in results]


_LINK_CHARGES = ("459 PC F", "484 PC M", "245(A)(1) PC F")
_LINK_RECORD = st.tuples(
    st.sampled_from(("S1", "S3", "S5")),  # shared by several records
    st.sampled_from((None, "2016-09-01", "2016-09-02")),  # psa_date
    st.lists(st.sampled_from(_LINK_CHARGES), max_size=2),
    st.sampled_from((None, "2016-09-01", "2016-09-03")),  # arrest_date
    st.sampled_from((None, 1, 2)),  # fta
    st.sampled_from(("", "A", "B")),  # name: equal dedup keys, other fields differ
)
_LINK_CASE = st.tuples(
    # S0, S2, S4 and S6 have no record; S2 and S4 sort between the records' sfids
    st.sampled_from(("S0", "S1", "S2", "S3", "S4", "S5", "S6")),
    st.sampled_from(("2016-08-31", "2016-09-01", "2016-09-02", "2016-09-04", "2016-09-06")),
    st.lists(st.sampled_from(_LINK_CHARGES), min_size=1, max_size=2),
    st.sampled_from(("C1", "C2", "C3")),  # court numbers may repeat
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINK_RECORD, max_size=14), st.lists(_LINK_CASE, max_size=10))
def test_per_person_linkage_equals_the_global_sort_reference(drawn_records, drawn_cases):
    records = [rec(record_id=f"R{i}", sfid=sfid, psa=psa, charges=charges, arrest=arrest, fta=fta, name=name)
               for i, (sfid, psa, charges, arrest, fta, name) in enumerate(drawn_records)]
    cases = [case(court_number=number, sfid=sfid, arrest=arrest, charges=charges)
             for sfid, arrest, charges, number in drawn_cases]
    # records with a missing form or arrest date reach deduplicate here too
    unique, dropped = deduplicate(records)
    ref_unique, ref_dropped = _reference_deduplicate(records)
    assert list(map(id, unique)) == list(map(id, ref_unique))
    assert [(id(d), id(k)) for d, k in dropped] == [(id(d), id(k)) for d, k in ref_dropped]
    report, reference = link_records(records, cases), _reference_link_records(records, cases)
    for partition in ("matched", "unresolved", "dropped_incomplete", "dropped_duplicates"):
        assert _identities(getattr(report, partition)) == _identities(getattr(reference, partition)), partition
    assert _identities(report.all_results) == _identities(reference.all_results)


def _outcomes(results):
    """Each result's record id, court numbers, status and note."""
    return [(m.psa.record_id, tuple(c.court_number for c in m.matched_cases), m.status, m.note) for m in results]


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINK_RECORD, max_size=14), st.lists(_LINK_CASE, max_size=10))
def test_shared_and_separate_equal_booking_cells_link_alike(drawn_records, drawn_cases):
    """The walk keys each booking cell's sorted charge texts by the cell's
    identity: records whose equal cells are one tuple, as the reader's
    memo makes them, and records whose equal cells are separate tuples
    de-duplicate and link alike."""
    separate = [rec(record_id=f"R{i}", sfid=sfid, psa=psa, charges=charges, arrest=arrest, fta=fta, name=name)
                for i, (sfid, psa, charges, arrest, fta, name) in enumerate(drawn_records)]
    shared = [rec(record_id=r.record_id, sfid=r.sfid, psa=r.psa_date and r.psa_date.isoformat(), charges=(),
                  arrest=r.arrest_date and r.arrest_date.isoformat(), fta=r.fta, name=r.name) for r in separate]
    cells = {}
    for r, drawn in zip(shared, drawn_records):
        r.booking_charges = cells.setdefault(tuple(drawn[2]), tuple(map(parse_charge_code, drawn[2])))
    assert shared == separate
    cases = [case(court_number=number, sfid=sfid, arrest=arrest, charges=charges)
             for sfid, arrest, charges, number in drawn_cases]
    (unique, dropped), (shared_unique, shared_dropped) = deduplicate(separate), deduplicate(shared)
    assert [r.record_id for r in unique] == [r.record_id for r in shared_unique]
    assert [(d.record_id, k.record_id) for d, k in dropped] == [(d.record_id, k.record_id) for d, k in shared_dropped]
    report, other = link_records(separate, cases), link_records(shared, cases)
    assert _outcomes(report.all_results) == _outcomes(other.all_results)
    assert report.counts() == other.counts()


def test_resolve_match_of_unsorted_candidates():
    """0, 1 and several candidates given in reverse court-number order."""
    r = rec(charges=("459 PC F", "484 PC M"))
    c1, c2, c3 = (case(court_number=f"C{i}", charges=charges)
                  for i, charges in enumerate([("459 PC F", "484 PC M"), ("245(A)(1) PC F",), ("459 PC F",)], 1))
    none = resolve_match(r, [])
    assert (none.psa, none.matched_cases, none.status, none.note) == (r, (), MatchStatus.UNRESOLVED, "no-candidates")
    one = resolve_match(r, [c3])
    assert (one.psa, one.matched_cases, one.status, one.note) == (r, (c3,), MatchStatus.MATCHED, "")
    # the top charge keeps C3 and C1, the second C1 alone
    assert resolve_match(r, [c3, c2, c1]).matched_cases == (c1,)
    # no candidate holds either charge: every one matches, in court-number order
    assert resolve_match(rec(charges=("187(A) PC F",)), [c3, c2, c1]).matched_cases == (c1, c2, c3)
    # the top charge keeps C3 and C1, and no second charge narrows them
    assert resolve_match(rec(charges=("459 PC F",)), [c3, c2, c1]).matched_cases == (c1, c3)


def test_link_peak_stays_near_its_net_growth(tmp_path, config):
    """Linkage holds one person's sort keys at a time and no per-person
    case lists, so its traced peak is close to the report it returns."""
    write_dataset(generate(GeneratorConfig(n_records=5000, seed=2026), config), tmp_path)
    prefixes = config.catalog.derivative_prefixes
    records, _ = read_psa_records(tmp_path / "psa_records.csv", prefixes)
    cases, _ = read_court_cases(tmp_path / "court_cases.csv", prefixes)
    # a first, untraced run fills each charge's cached text key, so the
    # traced run counts only what linkage builds, whatever ran before it
    link_records(records, cases)
    tracemalloc.start()
    try:
        report = link_records(records, cases)
        growth, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(report.counts().values()) == len(records)
    assert peak <= 1.25 * growth, (peak, growth, peak / growth)


def test_candidate_window_offsets():
    base = date(2016, 9, 10)
    r = rec(arrest="2016-09-10")
    accepted = []
    for offset in range(-2, 4):
        c = case(court_number=f"C{offset + 2}", arrest=(base + timedelta(days=offset)).isoformat())
        if find_candidates(r, [c]):
            accepted.append(offset)
    assert accepted == [-1, 0, 1, 2]
    assert find_candidates(rec(arrest=None), [case()]) == []  # no window without an arrest date


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
    with pytest.raises(ValueError, match="dispositions: 0 codes for 1 filed charges"):
        CourtCase(
            court_number="C1",
            sfid="S1",
            filed_charges=(parse_charge_code("459 PC F"),),
            dispositions=(),
        )


@pytest.mark.parametrize("status, cases, message", [
    (MatchStatus.MATCHED, (), "Matched result needs at least one case"),
    (MatchStatus.UNRESOLVED, (case(),), "only Matched results carry cases"),
    (MatchStatus.DROPPED_DUPLICATE, (case(),), "only Matched results carry cases"),
])
def test_only_a_match_carries_cases_and_it_carries_one_at_least(status, cases, message):
    with pytest.raises(ValueError, match=message):
        MatchResult(psa=rec(), matched_cases=cases, status=status)


def test_transposed_date_is_flagged_not_fatal():
    r = rec(arrest="2016-09-10", psa="2016-03-05")
    assert r.validate()
