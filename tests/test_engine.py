import csv
import itertools
import random
from dataclasses import replace

import pytest
import yaml

from psa_audit import engine
from psa_audit.charges import ChargeCatalog, data_path, parse_charge_code
from psa_audit.engine import (
    DmfConfig,
    FlagSpec,
    PsaResult,
    SubScores,
    SupervisionLevel,
    WeightConfig,
    assess,
    derive_subscores,
    load_dmf_config,
    load_weight_config,
)
from psa_audit.errors import ConfigError
from psa_audit.synth import DEFAULT_CHARGE_POOLS

L = SupervisionLevel


def q(text):
    return parse_charge_code(text)


# ---------------------------------------------------------------------------
# sub-scores


def flag(config, charges=(), *, age=None, prior_conviction=None, pv=None):
    return derive_subscores(2, 3, age, prior_conviction, pv, [q(c) for c in charges], config).nvca_flag


def test_nvca_flag_value_default_factors_is_false(config):
    assert flag(config) is False
    assert flag(config, age=0, prior_conviction=False, pv=0) is False


def test_nvca_raw_monotone_in_violent_priors(config):
    # a prior conviction scores 1 of the 3 threshold points, each violent prior 1 more
    assert not flag(config, prior_conviction=True, pv=0)
    assert flag(config, prior_conviction=True, pv=2)


def test_nvca_flag_value_matches_straight_line_sum(config):
    # independent re-summation of the linear form against the threshold,
    # under the default weights and under weights on all four inputs
    rng = random.Random(11)
    every_input = replace(config, weights=WeightConfig(nvca=FlagSpec(weights={
        "age_at_arrest": 1, "prior_conviction": 9, "prior_violent_convictions": 7,
        "current_offense_violent": 11}, threshold=45)))
    for cfg in (config, every_input):
        nv = cfg.weights.nvca
        for _ in range(500):
            inputs = {
                "age_at_arrest": rng.randrange(18, 70),
                "prior_conviction": rng.random() < 0.5,
                "prior_violent_convictions": rng.randrange(0, 3),
            }
            charges = ["240 PC M"] if rng.random() < 0.3 else ["459 PC F"]
            values = {**inputs, "current_offense_violent": charges == ["240 PC M"]}
            nv_total = sum(w * int(values[name]) for name, w in nv.weights.items())
            subs = derive_subscores(4, 5, *inputs.values(), [q(c) for c in charges], cfg)
            assert (subs.fta, subs.nca) == (4, 5)
            assert subs.nvca_flag == (nv_total >= nv.threshold)


def test_risk_factor_invariants(config):
    with pytest.raises(ValueError):
        flag(config, age=-1)
    with pytest.raises(ValueError):
        flag(config, pv=-2)


def test_subscores_range_validated():
    with pytest.raises(ValueError):
        SubScores(fta=0, nca=3, nvca_flag=False)
    with pytest.raises(ValueError):
        SubScores(fta=2, nca=7, nvca_flag=False)


# ---------------------------------------------------------------------------
# exclusion / bump-up / matrix


def scored(config, charges, *, extradited=False, nvca=False, fta=2, nca=3):
    return assess(SubScores(fta, nca, nvca), charges, extradited, config.dmf, config.catalog)


def test_exclusion_listed_charge(config):
    res = scored(config, [q("187(A) PC F")])
    assert res.exclusion and res.exclusion_reason == "exclusion-list:187(A) PC F"


def test_exclusion_flag_without_violent_charge(config):
    res = scored(config, [], nvca=True)
    assert not res.exclusion and res.exclusion_reason == ""


def test_exclusion_violent_plus_flag(config):
    res = scored(config, [q("240 PC M")], nvca=True)
    assert res.exclusion and res.exclusion_reason == "violent+nvca:240 PC M"


def test_exclusion_extradition_dominates(config):
    res = scored(config, [q("187(A) PC F")], extradited=True)
    assert res.exclusion and res.exclusion_reason == "extradited"


def test_exclusion_reason_charge_order_is_input_order_independent(config):
    charges = [q("211 PC F"), q("187(A) PC F")]
    a = scored(config, charges)
    b = scored(config, list(reversed(charges)))
    assert (a.exclusion, a.exclusion_reason) == (b.exclusion, b.exclusion_reason) == (
        True, "exclusion-list:187(A) PC F")


def test_bumpup_listed_charge(config):
    res = scored(config, [q("273.5(A) PC M")])
    assert res.bumpup and res.bumpup_reason == "bumpup-list:273.5(A) PC M"


def test_bumpup_empty(config):
    res = scored(config, [])
    assert (res.bumpup, res.bumpup_reason) == (False, "")


def test_bumpup_flag_without_violent(config):
    res = scored(config, [q("484 PC M")], nvca=True)
    assert res.bumpup and res.bumpup_reason == "nvca-no-violent"


def test_bumpup_flag_with_violent_charge_does_not_fire(config):
    assert not scored(config, [q("240 PC M")], nvca=True).bumpup


def test_dmf_anchor(config):
    assert scored(config, [], fta=2, nca=3).initial is L.OR_NAS


def test_split_cell(config):
    def initial(charges):
        return scored(config, charges, fta=5, nca=4).initial

    assert initial([q("459 PC F")]) is L.RELEASE_NOT_RECOMMENDED
    assert initial([q("484 PC M")]) is L.SFPDP_ACM
    # violent misdemeanor also forces the top level
    assert initial([q("240 PC M")]) is L.RELEASE_NOT_RECOMMENDED
    # unspecified class is neither a felony nor a violent misdemeanor
    assert initial([q("484 PC")]) is L.SFPDP_ACM


def test_shipped_dmf_is_monotone(config):
    # monotone non-decreasing in both indices for every realization of the
    # split cell, i.e. whether it resolves to its lower (3) or upper (4) branch
    cells = config.dmf.cells
    for split_value in (3, 4):
        grid = [[split_value if v == "SPLIT" else int(v) for v in row] for row in cells]
        for i in range(6):
            for j in range(6):
                if i + 1 < 6:
                    assert grid[i][j] <= grid[i + 1][j]
                if j + 1 < 6:
                    assert grid[i][j] <= grid[i][j + 1]
    assert [(f, n) for f in range(1, 7) for n in range(1, 7) if config.dmf.cells[f - 1][n - 1] == "SPLIT"] == [(5, 4)]


def test_assess_trivial_composition(config):
    res = assess(SubScores(2, 3, False), [], False, config.dmf, config.catalog)
    assert not res.exclusion and not res.bumpup
    assert res.initial is L.OR_NAS and res.final is L.OR_NAS


def test_assess_bumpup_from_second_highest_reaches_top(config):
    # (4,4) maps to SFPDP-ACM in the shipped matrix
    res = assess(SubScores(4, 4, False), [q("273.5(A) PC M")], False, config.dmf, config.catalog)
    assert res.initial is L.SFPDP_ACM
    assert res.bumpup and res.final is L.RELEASE_NOT_RECOMMENDED


def test_assess_initial_computed_under_exclusion(config):
    res = assess(SubScores(2, 3, False), [q("187(A) PC F")], False, config.dmf, config.catalog)
    assert res.exclusion
    assert res.initial is L.OR_NAS
    assert res.final is L.RELEASE_NOT_RECOMMENDED


def test_dmf_loader_rejects_bad_shapes(tmp_path):
    p = tmp_path / "dmf.yaml"
    p.write_text("rows:\n  - [OR-NAS]\n")
    with pytest.raises(ConfigError):
        load_dmf_config(p)
    p.write_text("rows:\n" + "  - [OR-NAS, OR-NAS, OR-NAS, OR-NAS, OR-NAS, nonsense]\n" * 6)
    with pytest.raises(ConfigError):
        load_dmf_config(p)
    p.write_text("rows:\n" + "  - [SPLIT, OR-NAS, OR-NAS, OR-NAS, OR-NAS, OR-NAS]\n" * 6)
    with pytest.raises(ConfigError):
        load_dmf_config(p)
    # a level rank is an ASCII digit, not any Unicode digit
    p.write_text("rows:\n" + "  - [OR-NAS, OR-NAS, OR-NAS, OR-NAS, OR-NAS, '\u0663']\n" * 6, encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown supervision level"):
        load_dmf_config(p)


def test_dmf_config_is_checked_when_made(config):
    rows = config.dmf.cells
    for cells in (rows[:5], rows[:5] + (rows[5][:5],), rows[:5] + (rows[5][:5] + (None,),)):
        with pytest.raises(ConfigError):
            DmfConfig(cells=cells)
    # the engine reads each cell unchecked, as the matrix checked when made holds it
    no_charges = engine._summarize((), config.catalog)
    for fta, nca in itertools.product(range(1, 7), repeat=2):
        cell = config.dmf.cells[fta - 1][nca - 1]
        expected = L.SFPDP_ACM if cell == "SPLIT" else cell
        assert engine._initial(SubScores(fta, nca, False), no_charges, config.dmf) is expected


def test_weights_loader_rejects_bad_config(tmp_path):
    p = tmp_path / "weights.yaml"
    for doc in (
        # a factor that no assessment record carries would silently add 0
        "nvca:\n  weights: {pending_charge: 1}\n  threshold: 1\n",
        "nvca:\n  weights: {bogus_factor: 1}\n  threshold: 1\n",
        "nvca:\n  weights: {prior_conviction: 1}\n  threshold: true\n",
        # the audit's monotonicity relies on non-negative weights
        "nvca:\n  weights: {current_offense_violent: -2}\n  threshold: 1\n",
        "nvca:\n  weights: {prior_conviction: 1}\n",
        "fta: {}\n",
        "nvca:\n  weights: {prior_conviction: 1}\n  threshold: 1\nbogus: {}\n",
    ):
        p.write_text(doc)
        with pytest.raises(ConfigError):
            load_weight_config(p)


def test_weights_loader_ignores_old_fta_nca_sections(tmp_path):
    assert set(yaml.safe_load(data_path("weights.yaml").read_text())) == {"nvca"}
    p = tmp_path / "weights.yaml"
    p.write_text(
        data_path("weights.yaml").read_text()
        + "fta:\n  weights: {pending_charge: 1}\n  bins: [{min: 0, max: 9, score: 1}]\n"
        "nca:\n  weights: {prior_incarceration: 1}\n  bins: [{min: 0, max: 2, score: 2}, {min: 3, max: 4, score: 1}]\n"
    )
    assert load_weight_config(p) == load_weight_config(data_path("weights.yaml"))


# ---------------------------------------------------------------------------
# randomized invariants (the acceptance suite re-runs these at full size)


CHARGE_POOL = [
    "187(A) PC F", "211 PC F", "215(A) PC F", "664/187(A) PC F", "664/288(A) PC F",
    "240 PC M", "246 PC F", "243(B) PC M", "273.5(A) PC M", "273.5(A) PC F",
    "646.9 PC M", "166(A)(4) PC M", "417.4 PC", "25850(A) PC",
    "459 PC F", "484 PC M", "10851(A) VC F", "11350(A) HS M", "594(B)(1) PC M",
    "148(A)(1) PC M", "853.7 PC M", "9999 PC M",
]


def random_inputs(rng):
    subs = SubScores(fta=rng.randint(1, 6), nca=rng.randint(1, 6), nvca_flag=rng.random() < 0.3)
    charges = [q(rng.choice(CHARGE_POOL)) for _ in range(rng.randint(0, 4))]
    extradited = rng.random() < 0.05
    return subs, charges, extradited


def test_invariants_random_battery(config):
    rng = random.Random(4242)
    for _ in range(1200):
        subs, charges, extradited = random_inputs(rng)
        res = assess(subs, charges, extradited, config.dmf, config.catalog)
        assert res.final >= res.initial
        if res.exclusion:
            assert res.final is L.RELEASE_NOT_RECOMMENDED
        else:
            assert int(res.final) - int(res.initial) in (0, 1)
        if res.initial is L.RELEASE_NOT_RECOMMENDED:
            assert res.final is L.RELEASE_NOT_RECOMMENDED
        # determinism, including reason strings
        again = assess(subs, list(charges), extradited, config.dmf, config.catalog)
        assert again == res


def test_charge_subset_monotonicity(config):
    # the violence flag is recomputed per charge set from a fixed history
    # score, mirroring how the audit re-derives it
    rng = random.Random(777)
    nv = config.weights.nvca
    violence_weight = nv.weights["current_offense_violent"]
    for _ in range(1200):
        history = rng.randint(0, 2)
        fta, nca = rng.randint(1, 6), rng.randint(1, 6)
        full = [q(rng.choice(CHARGE_POOL)) for _ in range(rng.randint(1, 4))]
        subset = [c for c in full if rng.random() < 0.6]

        def result(charges):
            violent = any(config.catalog.is_violent(c) for c in charges)
            flag = history + violence_weight * int(violent) >= nv.threshold
            return assess(SubScores(fta, nca, flag), charges, False, config.dmf, config.catalog)

        assert result(subset).final <= result(full).final


# ---------------------------------------------------------------------------
# equivalence with the per-clause engine that walked each charge set once per
# clause; kept here verbatim as the reference for the single-walk engine


def ref_check_exclusion(charges, extradited, nvca_flag, catalog):
    if extradited:
        return True, "extradited"
    listed = [c.normalized for c in charges if catalog.facts(c).exclusion]
    if listed:
        return True, f"exclusion-list:{min(listed)}"
    if nvca_flag:
        violent = [c.normalized for c in charges if catalog.facts(c).violent]
        if violent:
            return True, f"violent+nvca:{min(violent)}"
    return False, ""


def ref_check_bumpup(charges, nvca_flag, catalog):
    listed = [c.normalized for c in charges if catalog.facts(c).bumpup]
    if listed:
        return True, f"bumpup-list:{min(listed)}"
    if nvca_flag and not any(catalog.facts(c).violent for c in charges):
        return True, "nvca-no-violent"
    return False, ""


def ref_initial_recommendation(subscores, charges, dmf, catalog):
    value = dmf.cells[subscores.fta - 1][subscores.nca - 1]
    if value == "SPLIT":
        for c in charges:
            if c.is_felony() or (c.is_misdemeanor() and catalog.facts(c).violent):
                return L.RELEASE_NOT_RECOMMENDED
        return L.SFPDP_ACM
    return value


def ref_assess(subscores, charges, extradited, dmf, catalog):
    exclusion, exclusion_reason = ref_check_exclusion(charges, extradited, subscores.nvca_flag, catalog)
    initial = ref_initial_recommendation(subscores, charges, dmf, catalog)
    bumpup, bumpup_reason = ref_check_bumpup(charges, subscores.nvca_flag, catalog)
    if exclusion:
        final = L.RELEASE_NOT_RECOMMENDED
    elif bumpup:
        final = L(min(initial + 1, L.RELEASE_NOT_RECOMMENDED))
    else:
        final = initial
    return PsaResult(subscores, exclusion, exclusion_reason, bumpup, bumpup_reason, initial, final)


def _catalogs(config):
    cat = config.catalog
    derivatives = ChargeCatalog(
        cat.entries, violent_includes_derivatives=True, derivative_prefixes=cat.derivative_prefixes
    )
    return {"default": cat, "violent_includes_derivatives": derivatives}


POOL_CHARGES = [q(t) for pool in DEFAULT_CHARGE_POOLS.values() for t in pool]


@pytest.mark.parametrize("catalog_name", ["default", "violent_includes_derivatives"])
def test_single_walk_engine_equals_the_per_clause_engine(config, catalog_name):
    """Every set of at most 3 of the 19 pool charges, in both orders, at every
    (fta, nca) cell, with and without the violence flag and extradition."""
    catalog, dmf = _catalogs(config)[catalog_name], config.dmf
    assert len(POOL_CHARGES) == 19
    flags = (False, True)
    grid = [SubScores(fta, nca, nvca) for fta in range(1, 7) for nca in range(1, 7) for nvca in flags]
    sets = [charges for size in range(4) for subset in itertools.combinations(POOL_CHARGES, size)
            for charges in (list(subset), list(reversed(subset)))]
    assert len(sets) == 2 * (1 + 19 + 171 + 969)
    wrong = []
    for charges in sets:
        for subs in grid:
            for extradited in flags:
                got = assess(subs, charges, extradited, dmf, catalog)
                want = ref_assess(subs, charges, extradited, dmf, catalog)
                if got != want:
                    wrong.append((charges, subs, extradited, got, want))
    assert wrong == []


def test_the_derivative_catalog_changes_some_decision(config):
    # guards the test above: its second catalog must score some pool charge differently
    cats = _catalogs(config)
    assert any(cats["default"].facts(c) != cats["violent_includes_derivatives"].facts(c) for c in POOL_CHARGES)


def test_equal_decisions_share_one_result(config):
    first = assess(SubScores(5, 4, True), [q("240 PC M"), q("459 PC F")], False, config.dmf, config.catalog)
    again = assess(SubScores(5, 4, True), (q("459 PC F"), q("240 PC M")), False, config.dmf, config.catalog)
    assert again is first
    assert first.exclusion_reason == "violent+nvca:240 PC M"


def test_the_result_memo_does_not_grow_with_the_charge_sets(config):
    # off-catalog misdemeanors: every set below is a distinct charge set
    # that makes the same decision
    results = [
        assess(SubScores(3, 2, False), [q(f"{90000 + i} PC M"), q(f"{95000 + i // 2} PC M")],
               False, config.dmf, config.catalog)
        for i in range(1000)
    ]
    assert all(r is results[0] for r in results)
    assert results[0] == ref_assess(SubScores(3, 2, False), [q("90000 PC M")], False, config.dmf, config.catalog)


# ---------------------------------------------------------------------------
# the charge-set summary memo


def test_an_audit_walks_each_distinct_charge_set_once(tmp_path, monkeypatch):
    """``derive_subscores`` reads the violence flag from the summary that
    ``assess`` reads, so a seeded audit asks the catalog no ``is_violent``
    question and walks each distinct charge set once: one ``facts`` call
    per charge of each distinct set, however often the set is scored."""
    import psa_audit.counterfactual as counterfactual
    from psa_audit.cli import main

    sim = tmp_path / "sim"
    assert main(["simulate", "--n", "5000", "--seed", "2026", "--out", str(sim)]) == 0

    scored = []

    def recording(subscores, charges, *rest):
        scored.append(tuple(charges))
        return assess(subscores, charges, *rest)

    violent_questions, facts_calls = [], []
    facts = ChargeCatalog.facts
    monkeypatch.setattr(counterfactual, "assess", recording)
    monkeypatch.setattr(ChargeCatalog, "is_violent", lambda self, c: violent_questions.append(c))
    monkeypatch.setattr(ChargeCatalog, "facts", lambda self, c: facts_calls.append(c) or facts(self, c))
    engine._summarize.cache_clear()
    assert main(["audit", "--sensitivity", "--psa", str(sim / "psa_records.csv"),
                 "--court", str(sim / "court_cases.csv"), "--out", str(tmp_path / "audit")]) == 0

    distinct = set(scored)
    assert len(scored) > 5 * len(distinct) > 0
    assert len(distinct) < engine._SUMMARY_MEMO_SIZE  # so nothing was evicted
    assert violent_questions == []
    assert engine._summarize.cache_info().misses == len(distinct)
    assert len(facts_calls) == sum(map(len, distinct))


def _count_column(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return {key: int(count) for key, count in csv.reader(fh) if count != "count"}


def test_each_scored_charge_set_looks_its_summary_up_once(tmp_path):
    """``derive_subscores`` and then ``assess`` are given one tuple in
    turn, and ``assess`` reuses the summary the first found, so the memo
    is asked once per scored set: once per record the generator scores,
    and once per side of each audit pair."""
    from psa_audit.cli import main

    def asked():
        info = engine._summarize.cache_info()
        return info.hits + info.misses

    sim, out = tmp_path / "sim", tmp_path / "audit"
    before = asked()
    assert main(["simulate", "--n", "1500", "--seed", "7", "--out", str(sim)]) == 0
    planted = _count_column(sim / "planted_counts.csv")
    assert asked() - before == planted["records"] - planted["duplicates"] - planted["incomplete"]
    before = asked()
    assert main(["audit", "--sensitivity", "--psa", str(sim / "psa_records.csv"),
                 "--court", str(sim / "court_cases.csv"), "--out", str(out)]) == 0
    assert asked() - before == 2 * _count_column(out / "counts_summary.csv")["analyzed_pairs"] > 0


def test_assess_reuses_the_summary_of_the_tuple_derive_subscores_was_given(config):
    charges = (q("240 PC M"), q("459 PC F"))
    before = engine._summarize.cache_info()
    subs = derive_subscores(4, 5, 30, True, 1, charges, config)
    result = assess(subs, charges, False, config.dmf, config.catalog)
    after = engine._summarize.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    # an equal tuple, a list or another catalog is looked up again, to the same answer
    assert assess(subs, tuple(list(charges)), False, config.dmf, config.catalog) is result
    assert assess(subs, list(charges), False, config.dmf, config.catalog) is result
    other = ChargeCatalog.from_file(data_path("charge_catalog.yaml"))
    assert assess(subs, charges, False, config.dmf, other) == result
    final = engine._summarize.cache_info()
    assert final.hits + final.misses == after.hits + after.misses + 3


def test_the_summary_memo_stays_within_its_bound(config):
    bound = engine._SUMMARY_MEMO_SIZE
    assert engine._summarize.cache_info().maxsize == bound
    subs = SubScores(3, 2, False)
    # off-catalog misdemeanors, one distinct single-charge set each
    sets = [(q(f"{70000 + i} PC M"),) for i in range(bound + 200)]
    first = assess(subs, sets[0], False, config.dmf, config.catalog)
    for s in sets:
        derive_subscores(3, 2, None, None, None, s, config)
        assess(subs, s, False, config.dmf, config.catalog)
    assert engine._summarize.cache_info().currsize <= bound
    # the first set's summary was evicted: scoring it again walks it anew,
    # to the same result
    misses = engine._summarize.cache_info().misses
    assert assess(subs, sets[0], False, config.dmf, config.catalog) is first
    assert engine._summarize.cache_info().misses == misses + 1


def test_a_list_and_its_tuple_share_one_summary_and_one_result(config):
    charges = [q("240 PC M"), q("646.9 PC M"), q("459 PC F")]
    subs = derive_subscores(4, 5, 30, True, 1, charges, config)
    assert derive_subscores(4, 5, 30, True, 1, tuple(charges), config) is subs
    result = assess(subs, charges, False, config.dmf, config.catalog)
    assert assess(subs, tuple(charges), False, config.dmf, config.catalog) is result
    assert engine._summarize(tuple(charges), config.catalog) is engine._summarize(tuple(charges), config.catalog)
