import csv
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from psa_audit import cli
from psa_audit.counterfactual import COMPONENTS, GROUPS, AuditPair, changes
from psa_audit.engine import PsaResult, SubScores, SupervisionLevel
from psa_audit.errors import DegenerateInput, EmptyInput, LengthMismatch
from psa_audit.io import render_cell, write_csv
from psa_audit.linkage import CourtCase
from psa_audit.stats import (
    DEFAULT_ALPHA,
    AffectedRow,
    LevelRow,
    RateRow,
    Table,
    _midranks,
    agreement_rate,
    bonferroni,
    initial_distribution,
    proportion_affected,
    race_consistency,
    rate_table,
    tally,
    two_proportion_test,
    wilcoxon_rank_sum,
)

L = SupervisionLevel


def result(nvca=False, exclusion=False, bumpup=False, initial=L.OR_NAS, final=None):
    final = final if final is not None else (L.RELEASE_NOT_RECOMMENDED if exclusion else initial)
    return PsaResult(
        subscores=SubScores(2, 3, nvca),
        exclusion=exclusion,
        exclusion_reason="x" if exclusion else "",
        bumpup=bumpup,
        bumpup_reason="b" if bumpup else "",
        initial=initial,
        final=final,
    )


def pair(record_id, booking, conviction, group=""):
    return AuditPair(
        record_id=record_id,
        booking_result=booking,
        conviction_result=conviction,
        excluded_by_sensitivity=False,
        group=group,
    )


# ---------------------------------------------------------------------------
# two-proportion z-test


def test_two_proportion_equal_rates():
    z, p = two_proportion_test(20, 100, 10, 50)
    assert z == 0.0 and p == 1.0


def test_two_proportion_frozen_hand_values():
    # (30/100 vs 10/100): z = sqrt(12.5), p = erfc(2.5); values computed
    # independently with 30-digit arithmetic
    z, p = two_proportion_test(30, 100, 10, 100)
    assert abs(z - 3.5355339059327378) < 1e-10
    assert abs(p - 4.069520174449589e-04) < 1e-14
    z2, p2 = two_proportion_test(45, 120, 30, 150)
    assert abs(z2 - 3.19012900631355) < 1e-10
    assert abs(p2 - 1.4220929725245871e-03) < 1e-13


def test_two_proportion_degenerate():
    with pytest.raises(DegenerateInput):
        two_proportion_test(0, 10, 0, 10)
    with pytest.raises(DegenerateInput):
        two_proportion_test(10, 10, 10, 10)
    with pytest.raises(DegenerateInput):
        two_proportion_test(1, 0, 1, 10)


def test_two_proportion_counts_validated():
    with pytest.raises(ValueError):
        two_proportion_test(11, 10, 1, 10)


@given(
    st.integers(0, 40), st.integers(1, 40), st.integers(0, 40), st.integers(1, 40)
)
def test_two_proportion_symmetry(x1, n1, x2, n2):
    x1, x2 = min(x1, n1), min(x2, n2)
    try:
        z, p = two_proportion_test(x1, n1, x2, n2)
    except DegenerateInput:
        return
    z_swapped, p_swapped = two_proportion_test(x2, n2, x1, n1)
    assert math.isclose(z_swapped, -z, abs_tol=1e-12)
    assert math.isclose(p_swapped, p, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum


def exact_two_sided_p(a, b):
    """Permutation enumeration of the rank-sum statistic: probability of a
    deviation from the null mean at least as large as observed."""
    pooled = list(a) + list(b)
    n1, n = len(a), len(a) + len(b)
    ranks = _midranks(pooled)
    mean = n1 * (n + 1) / 2.0
    obs = abs(sum(ranks[:n1]) - mean)
    hits = total = 0
    for combo in itertools.combinations(range(n), n1):
        total += 1
        if abs(sum(ranks[i] for i in combo) - mean) >= obs - 1e-12:
            hits += 1
    return hits / total


def test_wilcoxon_identical_samples():
    z, p = wilcoxon_rank_sum([1, 2, 3, 4], [1, 2, 3, 4])
    assert z == 0.0 and p == 1.0


def test_wilcoxon_degenerate_all_identical():
    with pytest.raises(DegenerateInput):
        wilcoxon_rank_sum([2, 2], [2, 2])
    with pytest.raises(DegenerateInput):
        wilcoxon_rank_sum([], [1, 2])


def test_wilcoxon_tie_correction_shrinks_variance():
    # identical z numerator; the tied sample must standardize to a larger |z|
    tied = [1, 1, 2, 2, 3, 3, 4, 4]
    z_tied, _ = wilcoxon_rank_sum(tied[:4], tied[4:], continuity=False)
    untied = [1, 2, 3, 4, 5, 6, 7, 8]
    z_untied, _ = wilcoxon_rank_sum(untied[:4], untied[4:], continuity=False)
    # rank sums coincide (ranks are midranks of the same pattern); only the
    # variance differs, and the tie-corrected variance is strictly smaller
    assert abs(z_tied) > abs(z_untied)


def test_wilcoxon_exact_agreement_large_homogeneous():
    # shifted ordinal samples large enough for the approximation to track
    # enumeration closely (enumeration stays feasible at 8v8)
    a = [1, 1, 2, 2, 2, 3, 3, 4]
    b = [2, 2, 3, 3, 3, 4, 4, 4]
    z, p = wilcoxon_rank_sum(a, b)
    pe = exact_two_sided_p(a, b)
    assert abs(p - pe) < 0.05


def test_wilcoxon_z_statistic_formula_against_direct_computation():
    rng = random.Random(99)
    for _ in range(200):
        n1, n2 = rng.randint(2, 10), rng.randint(2, 10)
        a = [rng.randint(1, 4) for _ in range(n1)]
        b = [rng.randint(1, 4) for _ in range(n2)]
        if all(v == (a + b)[0] for v in a + b):
            continue
        z, p = wilcoxon_rank_sum(a, b)
        # independent computation of the same closed form
        pooled = a + b
        n = n1 + n2
        srt = sorted(pooled)
        rank_of = {}
        i = 0
        while i < n:
            j = i
            while j + 1 < n and srt[j + 1] == srt[i]:
                j += 1
            rank_of[srt[i]] = (i + j) / 2 + 1
            i = j + 1
        w = sum(rank_of[v] for v in a)
        mu = n1 * (n + 1) / 2
        ties = sum(t**3 - t for t in (srt.count(v) for v in set(srt)))
        var = n1 * n2 / 12 * ((n + 1) - ties / (n * (n - 1)))
        d = w - mu
        d = math.copysign(max(abs(d) - 0.5, 0.0), d) if d else 0.0
        assert math.isclose(z, d / math.sqrt(var), abs_tol=1e-12)
        assert math.isclose(p, min(1.0, math.erfc(abs(z) / math.sqrt(2))), abs_tol=1e-12)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=10),
    st.lists(st.integers(1, 4), min_size=1, max_size=10),
)
def test_wilcoxon_symmetry(a, b):
    try:
        z, p = wilcoxon_rank_sum(a, b)
    except DegenerateInput:
        return
    z_swapped, p_swapped = wilcoxon_rank_sum(b, a)
    assert math.isclose(z_swapped, -z, abs_tol=1e-12)
    assert math.isclose(p_swapped, p, abs_tol=1e-12)


def sorting_midranks(values):
    """The sort-based midranks that the counting ``_midranks`` replaced."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def sorting_wilcoxon(a, b, continuity=True):
    """``wilcoxon_rank_sum`` as it was over the sort-based midranks."""
    n1, n2 = len(a), len(b)
    pooled = list(a) + list(b)
    if all(v == pooled[0] for v in pooled):
        raise DegenerateInput("all values identical across both samples")
    n = n1 + n2
    ranks = sorting_midranks(pooled)
    w = sum(ranks[:n1])
    mean = n1 * (n + 1) / 2.0
    tie_term = 0.0
    for v in set(pooled):
        t = pooled.count(v)
        tie_term += t**3 - t
    sd = math.sqrt(n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))))
    d = w - mean
    if continuity:
        d = math.copysign(max(abs(d) - 0.5, 0.0), d) if d != 0.0 else 0.0
    z = d / sd
    return z, min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def _bits(test, a, b, continuity):
    try:
        return [x.hex() for x in test(a, b, continuity=continuity)]
    except DegenerateInput:
        return "degenerate"


def assert_ranks_match_the_sorting_code(a, b, continuity):
    pooled = a + b
    assert [r.hex() for r in _midranks(pooled)] == [r.hex() for r in sorting_midranks(pooled)]
    assert _bits(wilcoxon_rank_sum, a, b, continuity) == _bits(sorting_wilcoxon, a, b, continuity)


#: Samples with many ties: integers 1..4, or draws from a few finite floats.
tied_samples = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=60),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
    ),
)


@given(tied_samples, tied_samples, st.booleans())
def test_counted_ranks_equal_the_sorting_code_bit_for_bit(a, b, continuity):
    assert_ranks_match_the_sorting_code(a, b, continuity)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 8), st.booleans(), st.randoms(use_true_random=False))
def test_counted_ranks_equal_the_sorting_code_on_thousands_of_values(n1, n2, distinct, integers, rng):
    pool = list(range(1, 5)) if integers else [rng.uniform(-1e6, 1e6) for _ in range(distinct)]
    a = [rng.choice(pool) for _ in range(n1)]
    b = [rng.choice(pool) for _ in range(n2)]
    assert_ranks_match_the_sorting_code(a, b, continuity=True)


# ---------------------------------------------------------------------------
# Bonferroni


def test_bonferroni_single_test_reduces_to_alpha():
    assert bonferroni([0.04], 0.05) == [True]
    assert bonferroni([0.06], 0.05) == [False]


def test_bonferroni_worked_example():
    assert bonferroni([0.0005, 0.02], 0.001) == [True, False]


def test_bonferroni_all_ones():
    assert bonferroni([1.0, 1.0, 1.0], 0.05) == [False, False, False]


def test_bonferroni_alpha_validated():
    with pytest.raises(ValueError):
        bonferroni([0.01], 0.0)


@given(st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_bonferroni_monotone_in_alpha(ps):
    lo = bonferroni(ps, 0.01)
    hi = bonferroni(ps, 0.05)
    assert all(h or not l for l, h in zip(lo, hi))


# ---------------------------------------------------------------------------
# agreement rate


def test_agreement_identical():
    assert agreement_rate([1, 2, 3], [1, 2, 3]) == 1.0


def test_agreement_one_in_thousand():
    a = [True] * 1000
    b = [True] * 999 + [False]
    assert agreement_rate(a, b) == 0.999


def test_agreement_length_mismatch():
    with pytest.raises(LengthMismatch):
        agreement_rate([1], [1, 2])
    with pytest.raises(EmptyInput):
        agreement_rate([], [])


# ---------------------------------------------------------------------------
# tables


def test_rate_table_identical_pairs_zero_differences():
    p = [pair(f"R{i}", result(), result()) for i in range(5)]
    tables = rate_table(tally(p))
    assert list(tables) == ["all"]
    t = tables["all"]
    for row in t.rows:
        assert row.difference == 0.0
        if row.component == "recommendation":
            assert row.booking == 1.0  # mean rank of OR-NAS
    assert t.n == 5


def test_rate_table_hand_counted_fixture():
    pairs = [
        pair("R0", result(exclusion=True), result()),
        pair("R1", result(), result()),
        pair("R2", result(), result()),
        pair("R3", result(), result()),
    ]
    t = rate_table(tally(pairs))["all"]
    by = {r.component: r for r in t.rows}
    assert by["exclusion"].booking == 0.25
    assert by["exclusion"].conviction == 0.0
    assert by["exclusion"].difference == 0.25
    # booking finals: [4,1,1,1] mean 1.75; conviction all 1
    assert by["recommendation"].booking == 1.75
    assert by["recommendation"].conviction == 1.0


def test_rate_table_grouped():
    pairs = [pair(f"R{i}", result(exclusion=(i < 2)), result(), group=GROUPS[i % 2]) for i in range(4)]
    tables = rate_table(tally(pairs))
    assert list(tables) == ["all", "B", "non-B"]
    assert list(proportion_affected(tally(pairs))) == ["all", "B", "non-B"]
    b = {r.component: r for r in tables["B"].rows}
    assert b["exclusion"].booking == 0.5


def test_rate_table_empty_raises():
    with pytest.raises(EmptyInput):
        rate_table(tally([]))
    with pytest.raises(EmptyInput):
        proportion_affected([])


def test_proportion_affected_wrong_direction_not_counted():
    up = pair("R0", result(initial=L.OR_NAS), result(initial=L.OR_MINIMUM, final=L.OR_MINIMUM))
    *_, delta = changes(up.booking_result, up.conviction_result)
    assert delta == -1
    t = proportion_affected(tally([up]))["all"]
    by = {r.component: r for r in t.rows}
    assert by["recommendation"].fraction == 0.0


def test_proportion_affected_exact_fixture():
    pairs = []
    for i in range(100):
        if i < 27:
            pairs.append(pair(f"R{i}", result(bumpup=True, initial=L.OR_NAS, final=L.OR_MINIMUM), result()))
        else:
            pairs.append(pair(f"R{i}", result(), result()))
    t = proportion_affected(tally(pairs))["all"]
    by = {r.component: r for r in t.rows}
    assert by["recommendation"].fraction == 0.27
    assert by["bumpup"].fraction == 0.27
    assert by["exclusion"].fraction == 0.0


def test_proportion_affected_zero_delta_pairs_only_scale_the_denominator():
    affected = [pair(f"A{i}", result(bumpup=True, initial=L.OR_NAS, final=L.OR_MINIMUM), result())
                for i in range(3)]
    inert = [pair(f"I{i}", result(), result()) for i in range(9)]
    small = {r.component: r for r in proportion_affected(tally(affected))["all"].rows}
    big = {r.component: r for r in proportion_affected(tally(affected + inert))["all"].rows}
    for component in small:
        assert big[component].count == small[component].count
        assert big[component].fraction == small[component].count / 12


results = st.builds(
    result,
    nvca=st.booleans(),
    exclusion=st.booleans(),
    bumpup=st.booleans(),
    initial=st.sampled_from(L),
    final=st.none() | st.sampled_from(L),
)


@given(st.lists(st.tuples(results, results), min_size=1, max_size=12))
def test_each_pair_change_is_the_papers_definition(sides):
    pairs = [pair(f"R{i}", booking, conviction) for i, (booking, conviction) in enumerate(sides)]
    # a component is lost when booking holds it and conviction does not;
    # the recommendation moves by the difference of the two final levels
    definitions = [
        (
            booking.exclusion and not conviction.exclusion,
            booking.bumpup and not conviction.bumpup,
            booking.subscores.nvca_flag and not conviction.subscores.nvca_flag,
            int(booking.final) - int(conviction.final),
        )
        for booking, conviction in sides
    ]
    derived = [changes(p.booking_result, p.conviction_result) for p in pairs]
    assert derived == definitions
    # audit_pairs.csv prints a flag as true/false and the delta as a number
    assert all([type(v) for v in d] == [bool, bool, bool, int] for d in derived)
    counts = {r.component: r.count for r in proportion_affected(tally(pairs))["all"].rows}
    assert counts == {
        "exclusion": sum(d[0] for d in definitions),
        "bumpup": sum(d[1] for d in definitions),
        "nvca_flag": sum(d[2] for d in definitions),
        "recommendation": sum(d[3] > 0 for d in definitions),
    }


def test_proportion_affected_saturation_counts_component_not_recommendation():
    sat = pair(
        "R0",
        result(exclusion=True, initial=L.RELEASE_NOT_RECOMMENDED),
        result(initial=L.RELEASE_NOT_RECOMMENDED),
    )
    t = proportion_affected(tally([sat]))["all"]
    by = {r.component: r for r in t.rows}
    assert by["exclusion"].fraction == 1.0
    assert by["recommendation"].fraction == 0.0


def test_initial_distribution_single_group_sums_to_one():
    pairs = [pair(f"R{i}", result(initial=L(1 + i % 3)), result()) for i in range(9)]
    hists = initial_distribution(tally(pairs))
    # ungrouped pairs leave each group's rows empty
    assert list(hists) == ["all", "B", "non-B"]
    assert all(r.empty_group for g in GROUPS for r in hists[g].rows)
    assert not any(r.empty_group for r in hists["all"].rows)
    assert [r.level_rank for r in hists["all"].rows] == [1, 2, 3, 4]
    assert sum(r.fraction for r in hists["all"].rows) == pytest.approx(1.0)
    assert sum(r.count for r in hists["all"].rows) == 9


def test_initial_distribution_planted_group_shift_recovered():
    pairs = []
    for i in range(200):
        initial = L.SFPDP_ACM if i % 2 else L.OR_NAS
        pairs.append(pair(f"R{i}", result(initial=initial), result(), group="B" if i % 2 else "non-B"))
    hists = initial_distribution(tally(pairs))
    assert hists["B"].rows[2].fraction == 1.0
    assert hists["non-B"].rows[0].fraction == 1.0


def test_initial_distribution_empty_group_flagged():
    pairs = [pair("R0", result(), result(), group="B")]
    hists = initial_distribution(tally(pairs))
    assert all(r.empty_group for r in hists["non-B"].rows)
    assert [r.count for r in hists["non-B"].rows] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# the per-pair tables that the tallies replaced
#
# The tables are made from one tally per run, and audit_pairs.csv from one
# rendering per distinct result pair, both keyed by the identity of the two
# results.  The code below is the per-pair code they replaced, kept as the
# reference they must equal.


def _reference_scopes(pairs):
    scopes = {"all": pairs, **{g: [] for g in GROUPS}}
    for p in pairs:
        if p.group:
            scopes[p.group].append(p)
    return scopes


def _reference_values(pairs):
    for c in COMPONENTS:
        yield c, [c.read(p.booking_result) for p in pairs], [c.read(p.conviction_result) for p in pairs]


def _reference_rate_table(pairs, alpha=DEFAULT_ALPHA):
    tables = {}
    for scope, subset in _reference_scopes(pairs).items():
        if not subset:
            continue
        n = len(subset)
        rows, tests = [], []
        for c, b_vals, c_vals in _reference_values(subset):
            b_sum, c_sum = sum(b_vals), sum(c_vals)
            try:
                if c.change is operator.gt:
                    tests.append(two_proportion_test(b_sum, n, c_sum, n))
                else:
                    tests.append(sorting_wilcoxon(b_vals, c_vals))
            except DegenerateInput:
                tests.append(None)
            rows.append((c.name, b_sum / n, c_sum / n))
        usable = [t[1] for t in tests if t is not None]
        flags = iter(bonferroni(usable, alpha) if usable else [])
        tables[scope] = Table(n, tuple(
            RateRow(name, b, c, b - c, None, None, None) if t is None
            else RateRow(name, b, c, b - c, t[0], t[1], next(flags))
            for (name, b, c), t in zip(rows, tests)))
    return tables


def _reference_affected(pairs):
    return {scope: Table(len(subset), tuple(
                AffectedRow(c.name, k, k / len(subset))
                for c, b_vals, c_vals in _reference_values(subset)
                for k in [sum(map(operator.gt, b_vals, c_vals))]))
            for scope, subset in _reference_scopes(pairs).items() if subset}


def _reference_distribution(pairs):
    out = {}
    for scope, subset in _reference_scopes(pairs).items():
        n = len(subset)
        counts = Counter(p.booking_result.initial for p in subset)
        out[scope] = Table(n, tuple(LevelRow(int(level), level, counts[level], counts[level] / n if n else 0.0, n == 0)
                                    for level in SupervisionLevel))
    return out


_RESULT_CELLS = ("exclusion", "exclusion_reason", "bumpup", "bumpup_reason", "initial", "final")


def _reference_pair_rows(pairs):
    for p in pairs:
        b, c = p.booking_result, p.conviction_result
        yield (p.record_id, p.group,
               b.subscores.nvca_flag, *(getattr(b, a) for a in _RESULT_CELLS),
               c.subscores.nvca_flag, *(getattr(c, a) for a in _RESULT_CELLS),
               *(k.change(k.read(b), k.read(c)) for k in COMPONENTS), p.excluded_by_sensitivity)


def assert_tables_equal_the_per_pair_code(pairs, tmp_path):
    """Every table, to the bit (``repr`` tells -0.0 from 0.0), and the
    bytes of audit_pairs.csv.  The sensitivity tables are made as the
    audit makes them, from the tally's entries of the pairs that are not
    excluded by sensitivity, and must equal the per-pair code over those
    pairs."""
    entries = tally(pairs)
    if pairs:
        assert repr(rate_table(entries)) == repr(_reference_rate_table(pairs))
        assert repr(rate_table(entries, alpha=0.05)) == repr(_reference_rate_table(pairs, alpha=0.05))
        assert repr(proportion_affected(entries)) == repr(_reference_affected(pairs))
    assert repr(initial_distribution(entries)) == repr(_reference_distribution(pairs))

    kept = [e for e in entries if not e.excluded_by_sensitivity]
    kept_pairs = [p for p in pairs if not p.excluded_by_sensitivity]
    assert bool(kept) == bool(kept_pairs)
    assert sum(e.count for e in entries if e.excluded_by_sensitivity) == len(pairs) - len(kept_pairs)
    if kept_pairs:
        assert repr(rate_table(kept)) == repr(_reference_rate_table(kept_pairs))
        assert repr(proportion_affected(kept)) == repr(_reference_affected(kept_pairs))

    written, reference = tmp_path / "audit_pairs.csv", tmp_path / "reference.csv"
    cli._write_pairs(written, pairs, entries)
    with open(written, encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    write_csv(reference, header, [[render_cell(v) for v in row] for row in _reference_pair_rows(pairs)])
    assert written.read_bytes() == reference.read_bytes()


def _distinct_copy(r):
    """An equal result that is another object, as results made by two
    different configs would be."""
    return replace(r, subscores=replace(r.subscores))


@st.composite
def audit_pairs(draw):
    """Up to 16 pairs over a pool of up to 4 results, some of them repeated
    as equal results that are distinct objects, in random groups."""
    pool = draw(st.lists(results, min_size=1, max_size=4))
    pool += [_distinct_copy(r) for r in draw(st.lists(st.sampled_from(pool), max_size=2))]
    sides = st.sampled_from(pool)
    drawn = draw(st.lists(st.tuples(sides, sides, st.sampled_from(("", *GROUPS)), st.booleans()), max_size=16))
    return [AuditPair(f"R{i}", b, c, excluded, group) for i, (b, c, group, excluded) in enumerate(drawn)]


@settings(deadline=None)
@given(audit_pairs())
def test_tallied_tables_equal_the_per_pair_code(tmp_path_factory, pairs):
    assert_tables_equal_the_per_pair_code(pairs, tmp_path_factory.mktemp("pairs"))


def test_tallied_tables_equal_the_per_pair_code_on_named_cases(tmp_path):
    up = result(exclusion=True, initial=L.SFPDP_ACM)
    down = result(initial=L.OR_MINIMUM)
    cases = {
        # equal results that are distinct objects, in one scope
        "equal distinct results": [pair("R0", up, down, "B"), pair("R1", _distinct_copy(up), _distinct_copy(down), "B"),
                                   pair("R2", up, _distinct_copy(down), "B")],
        # non-B has no pairs
        "an empty group": [pair("R0", up, down, "B"), pair("R1", down, down, "B")],
        # every final level equal: the rank-sum test is degenerate
        "a degenerate rank sum": [pair("R0", down, down, "non-B"), pair("R1", _distinct_copy(down), down, "")],
        "no pairs": [],
    }
    for name, pairs in cases.items():
        assert_tables_equal_the_per_pair_code(pairs, tmp_path / name.replace(" ", "_"))
    t = rate_table(tally(cases["a degenerate rank sum"]))["all"]
    assert t.rows[-1].component == "recommendation" and t.rows[-1].statistic is None


# ---------------------------------------------------------------------------
# race-designation consistency


def _case(sfid, race, n):
    return CourtCase(court_number=f"C{sfid}{n}", sfid=sfid, race=race)


def test_consistency_stable_labels_give_100_diagonal():
    cases = [_case("S1", "B", i) for i in range(3)] + [_case("S2", "W", i) for i in range(2)]
    m = race_consistency(cases)
    b = dict(zip(m.categories, m.rows["B"]))
    w = dict(zip(m.categories, m.rows["W"]))
    assert b["B"] == 100.0 and b["W"] == 0.0
    assert w["W"] == 100.0


def test_consistency_hand_computed_fixture():
    # individual 1: B, B, W; individual 2: B, B
    cases = [
        _case("S1", "B", 0), _case("S1", "B", 1), _case("S1", "W", 2),
        _case("S2", "B", 0), _case("S2", "B", 1),
    ]
    m = race_consistency(cases)
    b = dict(zip(m.categories, m.rows["B"]))
    assert b["B"] == pytest.approx(100 * (2 / 3 + 1) / 2)  # 83.33
    assert b["W"] == pytest.approx(100 * (1 / 3 + 0) / 2)  # 16.67
    # W row: only individual 1 qualifies
    w = dict(zip(m.categories, m.rows["W"]))
    assert w["B"] == pytest.approx(100 * 2 / 3)
    assert w["W"] == pytest.approx(100 * 1 / 3)
    assert m.individuals == {"B": 2, "W": 1}


def test_consistency_single_record_individuals_excluded():
    base = [
        _case("S1", "B", 0), _case("S1", "B", 1), _case("S1", "W", 2),
        _case("S2", "B", 0), _case("S2", "B", 1),
    ]
    with_single = base + [_case("S3", "H", 0)]
    assert race_consistency(base) == race_consistency(with_single)


def test_consistency_missing_race_stays_in_denominator():
    cases = [_case("S1", "B", 0), _case("S1", "", 1)]
    m = race_consistency(cases)
    b = dict(zip(m.categories, m.rows["B"]))
    assert b["B"] == 50.0
    assert sum(m.rows["B"]) == 50.0  # missing has no column; row does not sum to 100


def test_consistency_diagonal_tracks_label_stability():
    # individuals whose records carry a stable label 98% of the time produce
    # a diagonal entry near 98
    rng = random.Random(12)
    cases = []
    for i in range(400):
        sfid = f"S{i}"
        for n in range(rng.randint(2, 4)):
            race = "B" if rng.random() < 0.98 else rng.choice(["W", "O", "U"])
            cases.append(_case(sfid, race, n))
    m = race_consistency(cases)
    diag = dict(zip(m.categories, m.rows["B"]))["B"]
    assert abs(diag - 98.0) < 1.5


def test_rate_table_values_in_range():
    rng = random.Random(77)
    levels = list(SupervisionLevel)
    pairs = []
    for i in range(300):
        b = result(nvca=rng.random() < 0.3, exclusion=rng.random() < 0.2,
                   bumpup=rng.random() < 0.3, initial=rng.choice(levels))
        c = result(nvca=rng.random() < 0.2, exclusion=rng.random() < 0.1,
                   bumpup=rng.random() < 0.2, initial=rng.choice(levels))
        pairs.append(pair(f"R{i}", b, c))
    t = rate_table(tally(pairs))["all"]
    for row in t.rows:
        if row.component == "recommendation":
            assert 1.0 <= row.booking <= 4.0 and 1.0 <= row.conviction <= 4.0
            assert -3.0 <= row.difference <= 3.0
        else:
            assert 0.0 <= row.booking <= 1.0 and 0.0 <= row.conviction <= 1.0
            assert -1.0 <= row.difference <= 1.0
    a = proportion_affected(tally(pairs))["all"]
    for row in a.rows:
        assert 0.0 <= row.fraction <= 1.0
    hists = initial_distribution(tally(pairs))
    assert sum(r.count for r in hists["all"].rows) == len(pairs)
