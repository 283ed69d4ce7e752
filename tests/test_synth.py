import random
import re
import tracemalloc
from dataclasses import asdict, fields

import pytest

from psa_audit.counterfactual import DispositionPolicy, build_audit_pairs, changes
from psa_audit.errors import ConfigError
from psa_audit.io import (
    COURT_COLUMNS,
    GROUND_TRUTH_COLUMNS,
    PSA_COLUMNS,
    read_court_cases,
    read_psa_records,
)
from psa_audit.linkage import link_records
from psa_audit.oracle import oracle_assess
from psa_audit.engine import SubScores, assess
from psa_audit.synth import (
    DEFAULT_CHARGE_POOLS,
    DEFAULT_SCORE_DISTRIBUTIONS,
    NONB_RACE_WEIGHTS,
    NONB_RACES,
    GeneratorConfig,
    _draw_below,
    _Generator,
    generate,
    write_dataset,
)


def test_zero_records_gives_empty_dataset():
    ds = generate(GeneratorConfig(n_records=0, seed=1))
    assert ds.psa_rows == [] and ds.court_rows == [] and ds.truth_rows == []


def test_seeded_determinism_in_memory():
    cfg = GeneratorConfig(n_records=300, seed=42)
    a, b = generate(cfg), generate(cfg)
    assert a.psa_rows == b.psa_rows
    assert a.court_rows == b.court_rows
    assert a.truth_rows == b.truth_rows


def test_seeded_determinism_on_disk(tmp_path):
    cfg = GeneratorConfig(n_records=200, seed=5)
    p1 = write_dataset(generate(cfg), tmp_path / "a")
    p2 = write_dataset(generate(cfg), tmp_path / "b")
    for key in p1:
        assert p1[key].read_bytes() == p2[key].read_bytes()


def test_different_seed_changes_output():
    a = generate(GeneratorConfig(n_records=100, seed=1))
    b = generate(GeneratorConfig(n_records=100, seed=2))
    assert a.psa_rows != b.psa_rows


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(duplicate_rate=1.5)
    with pytest.raises(ConfigError):
        GeneratorConfig(n_records=-1)
    with pytest.raises(ConfigError):
        GeneratorConfig(group_mix={"B": 0.5, "non-B": 0.6})
    with pytest.raises(ConfigError):
        GeneratorConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        GeneratorConfig(charge_pools={"neutral_felonies": ("459 PC F",)})
    with pytest.raises(ConfigError, match="non-empty list of strings"):
        GeneratorConfig(charge_pools={**DEFAULT_CHARGE_POOLS, "violent": (246,)})
    with pytest.raises(ConfigError, match=r"unknown pools \['violent_felonies'\]"):
        GeneratorConfig(charge_pools={**DEFAULT_CHARGE_POOLS, "violent_felonies": ("246 PC F",)})
    dist = DEFAULT_SCORE_DISTRIBUTIONS["B"]
    with pytest.raises(ConfigError, match="group_mix keys must be strings, got 1"):
        GeneratorConfig(group_mix={1: 0.5, "B": 0.5}, score_distributions={1: dist, "B": dist})
    with pytest.raises(ConfigError, match="score_distributions keys must be strings, got 2"):
        GeneratorConfig(group_mix={"B": 1.0}, score_distributions={"B": dist, 2: dist})


#: The config's rates, read off its fields, so that a rate added later is checked too.
_RATES = [f.name for f in fields(GeneratorConfig) if f.type in (float, "float")]


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), "x"])
@pytest.mark.parametrize("name", _RATES)
def test_every_rate_must_be_a_number_in_0_1(name, value):
    assert len(_RATES) >= 11
    with pytest.raises(ConfigError, match=rf"^{name} must be a number in \[0, 1\], got "):
        GeneratorConfig(**{name: value})


_KIND_COLUMN, _SCENARIO_COLUMN = GROUND_TRUTH_COLUMNS.index("kind"), GROUND_TRUTH_COLUMNS.index("scenario")


@pytest.mark.parametrize("first, second, planted", [
    ("duplicate_rate", "incomplete_rate", "incomplete"),
    ("overbooking_rate", "plea_other_rate", "plea_other_case"),
])
def test_two_scenario_rates_past_one_are_a_config_error(first, second, planted):
    # each record is one of the two kinds at most, so rates summing past 1
    # would plant fewer of the second kind than asked
    with pytest.raises(ConfigError, match=rf"{first} \+ {second} must be at most 1, got 0.8 \+ 0.5"):
        GeneratorConfig(**{first: 0.8, second: 0.5})
    # a sum of exactly 1 plants the second kind at its own rate
    ds = generate(GeneratorConfig(n_records=2000, seed=5, **{first: 0.5, second: 0.5}))
    column = _KIND_COLUMN if planted == "incomplete" else _SCENARIO_COLUMN
    rows = [r for r in ds.truth_rows if planted == "incomplete" or r[_KIND_COLUMN] == "base"]
    assert 0.45 < sum(r[column] == planted for r in rows) / len(rows) < 0.55


#: A config whose weighted draws include a zero share and zero weights: the
#: group mix leaves group Z out and score scales skip some values.
_ZERO_WEIGHT_CONFIG = GeneratorConfig(
    group_mix={"A": 0.25, "B": 0.45, "Z": 0.0, "non-B": 0.3},
    score_distributions={
        "A": {"fta": (0, 0, 1, 1, 0, 0), "nca": (5, 0, 0, 0, 0, 1)},
        "Z": {"fta": (0, 0, 0, 0, 0, 1), "nca": (1, 1, 1, 1, 1, 1)},
        **GeneratorConfig().score_distributions,
    },
)
#: table name -> (the generator's draw, its population, its weights)
_DRAW_TABLES = {
    "group_mix": (lambda g: g._draw_group, ("A", "B", "Z", "non-B"), (0.25, 0.45, 0.0, 0.3)),
    "nonb_race": (lambda g: g._draw_nonb_race, NONB_RACES, NONB_RACE_WEIGHTS),
    "pv": (lambda g: g._draw_pv, (0, 1, 2), (70, 20, 10)),
    "case_arrest_offset": (lambda g: g._draw_case_arrest_offset, (-1, 0, 1, 2), (5, 80, 10, 5)),
    "assessment_offset": (lambda g: g._draw_assessment_offset, (0, 1), (85, 15)),
    **{f"{scale}:{group}": (lambda g, group=group, i=i: g._draw_scores[group][i], range(1, 7), dist[scale])
       for group, dist in _ZERO_WEIGHT_CONFIG.score_distributions.items()
       for i, scale in enumerate(("fta", "nca"))},
}


@pytest.mark.parametrize("table", sorted(_DRAW_TABLES))
def test_each_draw_table_draws_what_random_choices_draws(config, table):
    """The generator's seeded bytes rest on its draw tables agreeing with
    ``Random.choices`` value for value and leaving the stream where
    ``choices`` would; a Python release that changes ``choices`` fails here."""
    get_draw, population, weights = _DRAW_TABLES[table]
    generator = _Generator(_ZERO_WEIGHT_CONFIG, config)
    draw = get_draw(generator)
    for seed in (0, 1, 2026, 2**40 + 7):
        generator.rng.seed(seed)
        reference = random.Random(seed)
        drawn = [draw() for _ in range(300)]
        assert drawn == [reference.choices(population, weights=weights)[0] for _ in range(300)]
        assert generator.rng.getstate() == reference.getstate()
        assert all(w > 0 for v, w in zip(population, weights) if v in drawn)


@pytest.mark.parametrize("seed", [0, 1, 2026, 2**40 + 7])
def test_draw_below_draws_what_randrange_randint_and_choice_draw(seed):
    """The generator's seeded bytes rest on ``below`` taking the same bits
    as the three ``Random`` methods it replaces and leaving the stream
    where they would; a Python release that changes them fails here."""
    rng, reference = random.Random(seed), random.Random(seed)
    below = _draw_below(rng)
    for n in range(1, 71):
        items = tuple(range(100, 100 + n))
        for _ in range(3):
            assert below(n) == reference.randrange(n)
            assert below(n) == reference.randrange(0, n)
            assert 3 + below(n) == reference.randint(3, 3 + n - 1)
            assert items[below(len(items))] == reference.choice(items)
            assert rng.getstate() == reference.getstate()


def test_generating_records_calls_no_random_choices(config, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Random.choices called")

    monkeypatch.setattr(random.Random, "choices", refuse)
    ds = generate(GeneratorConfig(n_records=500, seed=3), config)
    assert len(ds.truth_rows) == 500


def test_generating_records_calls_no_randrange_randint_or_choice(config, monkeypatch):
    for method in ("randrange", "randint", "choice"):
        def refuse(*args, method=method, **kwargs):
            raise AssertionError(f"Random.{method} called")

        monkeypatch.setattr(random.Random, method, refuse)
    ds = generate(GeneratorConfig(n_records=500, seed=3), config)
    assert len(ds.truth_rows) == 500


@pytest.mark.parametrize("pool, text, rule", [
    ("neutral_felonies", "187(A) PC F", "no violent"),
    ("neutral_misdemeanors", "240 PC M", "no violent"),
    ("neutral_misdemeanors", "459 PC F", "no felony"),
    ("violent", "484 PC M", "only violent"),
    ("violent", "187(A) PC F", "no exclusion-listed"),
    ("exclusion", "246 PC F", "only exclusion-listed"),
    ("bumpup_nonviolent", "484 PC M", "only bump-up-listed"),
])
def test_a_pool_charge_that_breaks_its_scenario_is_a_config_error(config, pool, text, rule):
    pools = {k: tuple(v) for k, v in DEFAULT_CHARGE_POOLS.items()}
    pools[pool] += (text,)
    with pytest.raises(ConfigError, match=rf"charge pool '{pool}' takes {rule} charges, got '{re.escape(text)}'"):
        generate(GeneratorConfig(n_records=0, seed=3, charge_pools=pools), config)


def test_the_packaged_pools_meet_every_pool_rule(config):
    generate(GeneratorConfig(n_records=0, charge_pools=dict(DEFAULT_CHARGE_POOLS)), config)


def test_rows_are_tuples_and_equal_cells_are_one_object(config):
    ds = generate(GeneratorConfig(n_records=3000, seed=8), config)
    for rows, columns in ((ds.psa_rows, PSA_COLUMNS), (ds.court_rows, COURT_COLUMNS),
                          (ds.truth_rows, GROUND_TRUTH_COLUMNS)):
        assert rows and all(type(r) is tuple and len(r) == len(columns) for r in rows)
    cells = [r[PSA_COLUMNS.index("booking_charges")] for r in ds.psa_rows]
    for column in ("booking_charges", "filed_charges", "dispositions", "name"):
        cells += [r[COURT_COLUMNS.index(column)] for r in ds.court_rows]
    cells += [r[GROUND_TRUTH_COLUMNS.index("conviction_charges")] for r in ds.truth_rows]
    dates = [r[PSA_COLUMNS.index(column)] for column in ("dob", "arrest_date", "psa_date") for r in ds.psa_rows]
    dates += [r[COURT_COLUMNS.index(column)] for column in ("dob", "arrest_date") for r in ds.court_rows]
    assert all(type(d) is str and len(d) == 10 for d in dates if d != "")
    cells += dates
    objects = {}
    for cell in cells:
        assert objects.setdefault(cell, cell) is cell


def test_generate_holds_under_800_bytes_per_record(config):
    n = 20_000
    generate(GeneratorConfig(n_records=50, seed=1), config)  # the engine's own memos fill first
    tracemalloc.start()
    try:
        ds = generate(GeneratorConfig(n_records=n, seed=2026), config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds.truth_rows) == n
    assert held / n < 800


def test_config_roundtrips_through_dict():
    cfg = GeneratorConfig(n_records=50, seed=9, overbooking_rate=0.4)
    again = GeneratorConfig.from_dict(asdict(cfg))
    assert generate(again).psa_rows == generate(cfg).psa_rows


def test_roundtrip_through_files(tmp_path, config):
    cfg = GeneratorConfig(n_records=250, seed=13)
    ds = generate(cfg, config)
    paths = write_dataset(ds, tmp_path)
    records, issues = read_psa_records(paths["psa_records"], config.catalog.derivative_prefixes)
    cases, case_issues = read_court_cases(paths["court_cases"], config.catalog.derivative_prefixes)
    assert not [i for i in issues if not i.message.startswith("warning:")]
    assert not case_issues
    assert len(records) == 250


def test_overbooking_zero_means_no_deltas(config):
    cfg = GeneratorConfig(n_records=400, seed=21, overbooking_rate=0.0)
    ds = generate(cfg, config)
    paths_records = _parse(ds, config)
    report = link_records(*paths_records)
    pairs, _ = build_audit_pairs(report.matched, DispositionPolicy(), config, set())
    assert pairs
    assert {changes(p.booking_result, p.conviction_result) for p in pairs} == {(False, False, False, 0)}


def _parse(ds, config):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        paths = write_dataset(ds, d)
        records, _ = read_psa_records(paths["psa_records"], config.catalog.derivative_prefixes)
        cases, _ = read_court_cases(paths["court_cases"], config.catalog.derivative_prefixes)
    return records, cases


def test_planted_scenarios_verified_by_pipeline(config):
    # every ground-truth claim is checked against what the real pipeline
    # computes: matches, conviction sets, and the affected flag
    cfg = GeneratorConfig(n_records=600, seed=99)
    ds = generate(cfg, config)
    truth = {r[0]: dict(zip(GROUND_TRUTH_COLUMNS, r)) for r in ds.truth_rows}
    records, cases = _parse(ds, config)
    report = link_records(records, cases)

    matched_ids = {m.psa.record_id for m in report.matched}
    for m in report.matched:
        t = truth[m.psa.record_id]
        assert t["kind"] == "base"
        assert ";".join(c.court_number for c in m.matched_cases) == t["true_match"]
    for m in report.unresolved:
        assert truth[m.psa.record_id]["scenario"] == "unmatched"
    for m in report.dropped_incomplete:
        assert truth[m.psa.record_id]["kind"] == "incomplete"
    for m in report.dropped_duplicates:
        assert truth[m.psa.record_id]["kind"] == "duplicate"

    pairs, skipped = build_audit_pairs(report.matched, DispositionPolicy(), config, set())
    for record_id in skipped:
        assert truth[record_id]["disposed"] == "false"
    from psa_audit.charges import normalize_text
    from psa_audit.counterfactual import conviction_charges

    by_id = {m.psa.record_id: m for m in report.matched}
    assert pairs
    for p in pairs:
        *_, delta = changes(p.booking_result, p.conviction_result)
        t = truth[p.record_id]
        assert t["disposed"] == "true"
        convicted = conviction_charges(by_id[p.record_id], DispositionPolicy())
        planted = {normalize_text(s) for s in t["conviction_charges"].split(";") if s}
        assert {normalize_text(c.raw) for c in convicted} == planted
        assert (delta > 0) == (t["affected"] == "true")
        if t["scenario"] == "plea_other_case":
            assert p.excluded_by_sensitivity


def test_affected_rate_recovery_small(config):
    cfg = GeneratorConfig(n_records=2000, seed=31, overbooking_rate=0.27, saturation_share=0.0)
    ds = generate(cfg, config)
    records, cases = _parse(ds, config)
    report = link_records(records, cases)
    pairs, _ = build_audit_pairs(report.matched, DispositionPolicy(), config, set())
    affected = sum(changes(p.booking_result, p.conviction_result)[-1] > 0 for p in pairs) / len(pairs)
    assert abs(affected - 0.27) < 0.03


def test_oracle_matches_engine_on_spec_examples(config):
    from psa_audit.charges import parse_charge_code as q
    from psa_audit.engine import SupervisionLevel as L

    cases = [
        (SubScores(2, 3, False), [], False),
        (SubScores(4, 4, False), [q("273.5(A) PC M")], False),
        (SubScores(2, 3, False), [q("187(A) PC F")], False),
        (SubScores(5, 4, False), [q("459 PC F")], False),
        (SubScores(5, 4, True), [q("484 PC M")], False),
        (SubScores(1, 1, True), [], True),
    ]
    for subs, charges, extradited in cases:
        assert oracle_assess(subs, charges, extradited, config.dmf, config.catalog) == assess(
            subs, charges, extradited, config.dmf, config.catalog
        )
    res = oracle_assess(SubScores(2, 3, False), [q("187(A) PC F")], False, config.dmf, config.catalog)
    assert res.final is L.RELEASE_NOT_RECOMMENDED


CHARGE_POOL = [
    "187(A) PC F", "211 PC F", "215(A) PC F", "664/187(A) PC F", "664/288(A) PC F",
    "182/211 PC F", "653F/187(A) PC F", "1320/459 PC F",
    "240 PC M", "246 PC F", "243(B) PC M", "273.5(A) PC M", "273.5(A) PC F",
    "646.9 PC M", "166(A)(4) PC M", "417.4 PC", "25850(A) PC",
    "459 PC F", "484 PC M", "10851(A) VC F", "11350(A) HS M", "594(B)(1) PC M",
    "148(A)(1) PC M", "853.7 PC M", "9999 PC M", "288 A(A) PC F", "203PC F",
]


def random_assess_inputs(rng, catalog):
    from psa_audit.charges import parse_charge_code

    subs = SubScores(fta=rng.randint(1, 6), nca=rng.randint(1, 6), nvca_flag=rng.random() < 0.3)
    charges = [
        parse_charge_code(rng.choice(CHARGE_POOL), catalog.derivative_prefixes)
        for _ in range(rng.randint(0, 4))
    ]
    return subs, charges, rng.random() < 0.05


def test_oracle_agreement_random_small(config):
    rng = random.Random(1234)
    for _ in range(1000):
        subs, charges, extradited = random_assess_inputs(rng, config.catalog)
        assert assess(subs, charges, extradited, config.dmf, config.catalog) == oracle_assess(
            subs, charges, extradited, config.dmf, config.catalog
        )
