import csv
import itertools
import random
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from psa_audit import charges as charges_module
from psa_audit import engine
from psa_audit.charges import ChargeCatalog, ChargeFacts, data_path, parse_charge_code
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
    load_engine_config,
    load_weight_config,
)
from psa_audit.errors import ConfigError
from psa_audit.oracle import oracle_assess
from psa_audit.synth import DEFAULT_CHARGE_POOLS
from test_acceptance import ORACLE_POOL

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
    for text in (
        "rows:\n  - [OR-NAS]\n",
        "rows:\n" + "  - [OR-NAS, OR-NAS, OR-NAS, OR-NAS, OR-NAS, OR-NAS]\n" * 5 + "  - [OR-NAS, OR-NAS]\n",
        "rows:\n" + "  - [OR-NAS, OR-NAS, OR-NAS, OR-NAS, OR-NAS, null]\n" * 6,
    ):
        p.write_text(text)
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


def test_dmf_levels_may_be_written_as_their_ranks(tmp_path):
    text = data_path("dmf.yaml").read_text(encoding="utf-8")
    for level in L:
        text = text.replace(level.label, str(level.value))
    p = tmp_path / "dmf.yaml"
    p.write_text(text, encoding="utf-8")
    assert load_dmf_config(p) == load_dmf_config(data_path("dmf.yaml"))


def test_dmf_config_is_checked_when_made(config):
    rows = config.dmf.cells
    for cells in (rows[:5], rows[:5] + (rows[5][:5],), rows[:5] + (rows[5][:5] + (None,),)):
        with pytest.raises(ConfigError):
            DmfConfig(cells=cells)
    # the engine reads each cell unchecked, as the matrix checked when made holds it
    no_charges = config.catalog.facts_of(())
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
        "nvca:\n  weights: {}\n  threshold: 1\n",
        "nvca:\n  weights: {prior_conviction: 1.5}\n  threshold: 1\n",
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


# catalog charges, a second spelling of two of them, and off-catalog codes
# of each class, so that a drawn set mixes shared and fresh charge texts
_ANY_CHARGE_TEXTS = (*CHARGE_POOL, *(t for pool in DEFAULT_CHARGE_POOLS.values() for t in pool),
                     "240  pc M", "459PC F", "70001 PC M", "70002 PC F", "70003 PC", "70004 VC M 2")


@st.composite
def _order_free_inputs(draw):
    charges = tuple(map(q, draw(st.lists(st.sampled_from(_ANY_CHARGE_TEXTS), max_size=5))))
    # the same charges reordered, with some repeated, each repeat a copy
    # of its charge where the draw says so
    variant = list(draw(st.permutations(charges)))
    for c in draw(st.lists(st.sampled_from(charges), max_size=3)) if charges else ():
        variant.insert(draw(st.integers(0, len(variant))), q(c.raw) if draw(st.booleans()) else c)
    form = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.none() | st.integers(0, 60)),
            draw(st.none() | st.booleans()), draw(st.none() | st.integers(0, 3)))
    return charges, tuple(variant) if draw(st.booleans()) else variant, form, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(inputs=_order_free_inputs(), catalog_name=st.sampled_from(["default", "violent_includes_derivatives"]))
def test_order_and_repeats_change_no_result(config, inputs, catalog_name):
    """The engine reads only order-free facts of a charge set, which lets
    the pair stage score a reader's cell without sorting or
    de-duplicating it: a set in any order, with any charge repeated, gives
    the very same sub-scores and result, equal to the oracle's."""
    charges, variant, form, extradited = inputs
    catalog = _catalogs(config)[catalog_name]
    scored = replace(config, catalog=catalog)
    subs = derive_subscores(*form, charges, scored)
    result = assess(subs, charges, extradited, config.dmf, catalog)
    assert derive_subscores(*form, variant, scored) is subs
    assert assess(subs, variant, extradited, config.dmf, catalog) is result
    assert result == oracle_assess(subs, charges, extradited, config.dmf, catalog)


# ---------------------------------------------------------------------------
# the engine's whole decision space


#: The fact vectors (violent, exclusion-listed, bump-up-listed, felony or
#: violent misdemeanor) that no set of at most three of c02's pool charges
#: has under the default catalog, because each exclusion-listed charge in
#: the pool is a felony.  A catalog or pool change that reaches one shows
#: up here.
_UNREACHED_BY_THE_ORACLE_POOL = {
    (False, True, False, False), (False, True, True, False),
    (True, True, False, False), (True, True, True, False),
}
#: An exclusion-listed charge with no class, which reaches those vectors.
_UNCLASSED_EXCLUSION = "187(A) PC"


def _fact_vector(facts):
    return (facts.violent is not None, facts.exclusion is not None, facts.bumpup is not None,
            facts.felony_or_violent_misdemeanor)


def test_the_engine_equals_the_oracle_over_its_whole_decision_space(config, fresh_catalog):
    """``assess`` reads a charge set only through its four facts, so one
    witness set per fact vector, scored at every sub-score triple and
    extradition value, makes every decision it can: 72 x 2 x 16 = 2,304
    cells.  Each vector's witness is the first set of at most three of
    c02's pool charges that has it, or else the unclassed exclusion charge
    with at most two of them.  On every cell the result, reasons included,
    is the oracle's; and the final level never falls as a fact or the
    violence flag is added, the premise of "booking charges can only
    raise"."""
    catalog, dmf = fresh_catalog, config.dmf
    pool = [parse_charge_code(t, catalog.derivative_prefixes) for t in ORACLE_POOL]
    witnesses = {}
    for size in range(4):
        for subset in itertools.combinations(pool, size):
            witnesses.setdefault(_fact_vector(catalog.facts_of(subset)), subset)
    vectors = set(itertools.product((False, True), repeat=4))
    assert vectors - witnesses.keys() == _UNREACHED_BY_THE_ORACLE_POOL
    unclassed = (parse_charge_code(_UNCLASSED_EXCLUSION, catalog.derivative_prefixes),)
    for size in range(3):
        for subset in itertools.combinations(pool, size):
            witnesses.setdefault(_fact_vector(catalog.facts_of(unclassed + subset)), unclassed + subset)
    assert witnesses.keys() == vectors

    final, wrong = {}, []
    for vector, charges in witnesses.items():
        for fta, nca, nvca, extradited in itertools.product(range(1, 7), range(1, 7), (False, True), (False, True)):
            subs = SubScores(fta, nca, nvca)
            got = assess(subs, charges, extradited, dmf, catalog)
            if got != oracle_assess(subs, charges, extradited, dmf, catalog):
                wrong.append((charges, subs, extradited))
            final[fta, nca, extradited, (*vector, nvca)] = got.final
    assert wrong == []
    assert len(final) == 2304
    # one fact or the flag added at a time: every ordered pair of cells is
    # a chain of these steps
    fell = [(cell, i) for cell, level in final.items() for i, held in enumerate(cell[3]) if not held
            and final[(*cell[:3], (*cell[3][:i], True, *cell[3][i + 1:]))] < level]
    assert fell == []


# ---------------------------------------------------------------------------
# the catalog's per-charge and per-set memos


@pytest.fixture
def fresh_catalog():
    """The packaged catalog, made anew so that its memos start empty."""
    return ChargeCatalog.from_file(data_path("charge_catalog.yaml"))


def _spy(monkeypatch, owner, name):
    """Record the arguments of each call of ``owner.name`` (a method)."""
    calls, method = [], getattr(owner, name)

    def recording(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _texts(charges):
    return tuple(c.normalized for c in charges)


def test_an_audit_walks_each_distinct_charge_set_once(tmp_path, monkeypatch, fresh_catalog):
    """``derive_subscores`` reads the violence flag from the facts that
    ``assess`` reads, so a seeded audit asks the catalog no ``is_violent``
    question; it folds each distinct tuple of charge texts once and
    classifies each distinct charge text once, however often a set is
    scored."""
    import psa_audit.counterfactual as counterfactual
    from psa_audit.cli import main

    sim = tmp_path / "sim"
    assert main(["simulate", "--n", "5000", "--seed", "2026", "--out", str(sim)]) == 0

    scored = []

    def recording(subscores, charges, *rest):
        scored.append(_texts(charges))
        return assess(subscores, charges, *rest)

    violent_questions = []
    monkeypatch.setattr(engine, "default_catalog", lambda: fresh_catalog)
    monkeypatch.setattr(counterfactual, "assess", recording)
    monkeypatch.setattr(ChargeCatalog, "is_violent", lambda self, c: violent_questions.append(c))
    folded = _spy(monkeypatch, ChargeCatalog, "_fold")
    classified = _spy(monkeypatch, ChargeCatalog, "_classify")
    assert main(["audit", "--sensitivity", "--psa", str(sim / "psa_records.csv"),
                 "--court", str(sim / "court_cases.csv"), "--out", str(tmp_path / "audit")]) == 0

    distinct = set(scored)
    assert len(scored) > 5 * len(distinct) > 0
    assert len(distinct) < charges_module._SET_MEMO_SIZE  # so every set was kept
    assert violent_questions == []
    assert sorted(texts for texts, _ in folded) == sorted(distinct)
    texts = [c.normalized for (c,) in classified]
    assert sorted(texts) == sorted({text for s in distinct for text in s})


def test_each_distinct_charge_text_is_classified_once_per_catalog(monkeypatch, fresh_catalog, config):
    classified = _spy(monkeypatch, ChargeCatalog, "_classify")
    subs = SubScores(4, 5, False)
    # two spellings of one charge, in many sets, orders and repeats
    spellings = [q("240 PC M"), q("240  pc M"), q("459 PC F"), q("9999 PC M")]
    assert spellings[0] is not spellings[1] and spellings[0].normalized == spellings[1].normalized
    for charges in itertools.permutations(spellings + spellings[:2], 3):
        assess(subs, charges, False, config.dmf, fresh_catalog)
        fresh_catalog.facts(charges[0])
    assert sorted(c.normalized for (c,) in classified) == ["240 PC M", "459 PC F", "9999 PC M"]
    # another catalog keeps its own table
    other = ChargeCatalog.from_file(data_path("charge_catalog.yaml"))
    assess(subs, spellings, False, config.dmf, other)
    assert len(classified) == 6


def _count_column(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return {key: int(count) for key, count in csv.reader(fh) if count != "count"}


def test_each_scored_charge_set_looks_its_summary_up_once(tmp_path, monkeypatch):
    """``derive_subscores`` and then ``assess`` are given one tuple in
    turn, and the catalog reuses the facts it found for the first, so the
    set memo is asked once per scored set: once per record the generator
    scores, and once per side of each audit pair."""
    from psa_audit.cli import main

    asked = _spy(monkeypatch, ChargeCatalog, "_lookup")
    sim, out = tmp_path / "sim", tmp_path / "audit"
    assert main(["simulate", "--n", "1500", "--seed", "7", "--out", str(sim)]) == 0
    planted = _count_column(sim / "planted_counts.csv")
    assert len(asked) == planted["records"] - planted["duplicates"] - planted["incomplete"]
    asked.clear()
    assert main(["audit", "--sensitivity", "--psa", str(sim / "psa_records.csv"),
                 "--court", str(sim / "court_cases.csv"), "--out", str(out)]) == 0
    assert len(asked) == 2 * _count_column(out / "counts_summary.csv")["analyzed_pairs"] > 0


def test_assess_reuses_the_summary_of_the_tuple_derive_subscores_was_given(monkeypatch, config):
    asked = _spy(monkeypatch, ChargeCatalog, "_lookup")
    charges = (q("240 PC M"), q("459 PC F"))
    subs = derive_subscores(4, 5, 30, True, 1, charges, config)
    result = assess(subs, charges, False, config.dmf, config.catalog)
    assert len(asked) == 1
    # an equal tuple, a list or another catalog is looked up again, to the same answer
    assert assess(subs, tuple(list(charges)), False, config.dmf, config.catalog) is result
    assert assess(subs, list(charges), False, config.dmf, config.catalog) is result
    other = ChargeCatalog.from_file(data_path("charge_catalog.yaml"))
    assert assess(subs, charges, False, config.dmf, other) == result
    assert len(asked) == 4
    # a list is never reused by identity: one changed between two asks is read anew
    booked = [q("459 PC F")]
    derive_subscores(4, 5, 30, True, 1, booked, config)
    booked.append(q("240 PC M"))
    flagged = SubScores(4, 5, True)
    assert assess(flagged, booked, False, config.dmf, config.catalog).exclusion_reason == "violent+nvca:240 PC M"
    assert len(asked) == 6
    assert all(type(charges) is tuple for (charges,) in asked)


def test_the_summary_memo_stays_within_its_bound(monkeypatch, fresh_catalog, config):
    bound = charges_module._SET_MEMO_SIZE
    subs = SubScores(3, 2, False)
    # off-catalog misdemeanors, one distinct single-charge set each
    sets = [(q(f"{70000 + i} PC M"),) for i in range(bound + 200)]
    first = assess(subs, sets[0], False, config.dmf, fresh_catalog)
    for s in sets:
        derive_subscores(3, 2, None, None, None, s, replace(config, catalog=fresh_catalog))
        assess(subs, s, False, config.dmf, fresh_catalog)
    assert len(fresh_catalog._set_facts) == bound
    # the memo keeps the first sets it met: the first is looked up, a set
    # past the bound is folded anew, each to the same result
    folded = _spy(monkeypatch, ChargeCatalog, "_fold")
    assert assess(subs, sets[0], False, config.dmf, fresh_catalog) is first
    assert folded == []
    assert assess(subs, sets[-1], False, config.dmf, fresh_catalog) is first
    # an equal but distinct tuple is looked up again, and so is the first
    # once another tuple was asked about last
    again = tuple(list(sets[-1]))
    assert again is not sets[-1]
    assert fresh_catalog.facts_of(again) == fresh_catalog.facts_of(sets[-1])
    assert len(folded) == 3
    assert len(fresh_catalog._set_facts) == bound


def test_a_list_and_its_tuple_share_one_summary_and_one_result(fresh_catalog, config):
    charges = [q("240 PC M"), q("646.9 PC M"), q("459 PC F")]
    config = replace(config, catalog=fresh_catalog)
    subs = derive_subscores(4, 5, 30, True, 1, charges, config)
    assert derive_subscores(4, 5, 30, True, 1, tuple(charges), config) is subs
    result = assess(subs, charges, False, config.dmf, config.catalog)
    assert assess(subs, tuple(charges), False, config.dmf, config.catalog) is result
    assert fresh_catalog.facts_of(tuple(charges)) is fresh_catalog.facts_of(charges)


def test_the_first_ask_about_no_charges_is_looked_up(fresh_catalog):
    # the empty tuple is one shared object, so it must not match the
    # last-asked slot of a catalog that has been asked nothing
    assert fresh_catalog.facts_of(()) == ChargeFacts(None, None, None, False)


def test_each_loaded_config_has_its_own_catalog_with_empty_memos(config):
    config.catalog.facts_of((q("240 PC M"),))
    first, second = load_engine_config(), load_engine_config()
    assert first.catalog is not second.catalog
    assert first.catalog is not config.catalog
    for catalog in (first.catalog, second.catalog):
        assert catalog._facts == {} and catalog._set_facts == {}
        assert catalog._last == (None, None)


def test_an_audit_folds_as_many_sets_after_another_audit_as_alone(tmp_path, monkeypatch):
    """No memo outlives its run: an audit run after another in the same
    process folds the sets it folds on a catalog of its own."""
    from psa_audit.cli import main

    for name, seed in (("first", 1), ("second", 2)):
        assert main(["simulate", "--n", "2000", "--seed", str(seed), "--out", str(tmp_path / name)]) == 0
    catalog_copy = tmp_path / "charge_catalog.yaml"
    catalog_copy.write_bytes(data_path("charge_catalog.yaml").read_bytes())

    def folds(name, *options):
        folded = _spy(monkeypatch, ChargeCatalog, "_fold")
        sim = tmp_path / name
        assert main(["audit", "--psa", str(sim / "psa_records.csv"), "--court", str(sim / "court_cases.csv"),
                     "--out", str(tmp_path / f"audit-{name}-{len(options)}"), *options]) == 0
        monkeypatch.undo()
        return len(folded)

    # a catalog read from a copy of the packaged file is one no other run shares
    alone = folds("second", "--catalog", str(catalog_copy))
    assert folds("first") > 0
    assert folds("second") == alone > 0
