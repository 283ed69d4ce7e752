"""Seeded synthetic dataset generator with planted ground truth.

Every dataset row is driven by one random stream, so a config (including
its seed) fully determines the output bytes.  Each record is planted as
one of a small set of scenarios whose audit outcome is guaranteed by
construction:

  identical    every booked charge is convicted (sometimes encoded through
               the plea-code-plus-zero companion convention); booking and
               conviction results coincide.
  overbooked   an exclusion or bump-up charge is booked but dismissed.
               The "affected" variant pins the initial recommendation low
               enough that the final strictly drops; the "saturated"
               variant pins it at the top so the final cannot move even
               though the component is lost.
  plea_other   the only guilty plea points outside the case, so the
               conviction set is empty; results still coincide because the
               booked charges are inert misdemeanors.

Planted duplicate and incomplete rows exercise the intake filters, decoy
and twin court cases exercise the match-resolution rules, and withheld
court cases exercise the manual-review queue.

The recorded assessment columns are produced by the scoring engine
itself, which is what lets a validation run against this data close at
100% agreement.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import accumulate, count, islice
from operator import itemgetter
from pathlib import Path

from .charges import ChargeCatalog, parse_charge_code
from .engine import EngineConfig, SupervisionLevel, assess, derive_subscores, load_engine_config
from .errors import ConfigError
from .io import (
    COURT_COLUMNS,
    FLAG_TEXT,
    GROUND_TRUTH_COLUMNS,
    PSA_COLUMNS,
    _Memo,
    render_cell,
    write_csv,
)

FIRST_NAMES = (
    "ALEX", "BLAKE", "CAMERON", "DANA", "ELLIS", "FRANKIE", "GRAY", "HARPER",
    "INDIGO", "JORDAN", "KENDALL", "LANE", "MORGAN", "NOEL", "OAKLEY", "PARKER",
    "QUINN", "RILEY", "SAGE", "TAYLOR",
)
LAST_NAMES = (
    "ADAMS", "BARNES", "CRUZ", "DELGADO", "ELLISON", "FOSTER", "GARCIA", "HUANG",
    "IBARRA", "JOHNSON", "KIM", "LOPEZ", "MORENO", "NGUYEN", "OKAFOR", "PHAM",
    "QUINTERO", "ROSS", "SANTOS", "TRAN",
)

#: Default charge pools.  The scenario guarantees lean on their semantics,
#: which ``GeneratorConfig.check_pools`` enforces against the run's catalog.
DEFAULT_CHARGE_POOLS = {
    "neutral_felonies": ("459 PC F", "10851(A) VC F", "487(A) PC F"),
    "neutral_misdemeanors": ("484 PC M", "11350(A) HS M", "594(B)(1) PC M", "148(A)(1) PC M", "466 PC M", "853.7 PC M"),
    "violent": ("240 PC M", "243(B) PC M", "246 PC F"),
    "exclusion": ("187(A) PC F", "211 PC F", "215(A) PC F", "664/187(A) PC F"),
    "bumpup_nonviolent": ("646.9 PC M", "166(A)(4) PC M", "243.4 PC M"),
}

DEFAULT_GROUP_MIX = {"B": 0.45, "non-B": 0.55}
DEFAULT_SCORE_DISTRIBUTIONS = {
    "B": {"fta": (15, 18, 22, 20, 15, 10), "nca": (14, 18, 22, 20, 16, 10)},
    "non-B": {"fta": (30, 25, 20, 12, 8, 5), "nca": (28, 25, 20, 13, 9, 5)},
}
NONB_RACES = ("W", "H", "C", "O", "U")
NONB_RACE_WEIGHTS = (55, 20, 10, 8, 7)

#: The disposition texts of a convicted charge: codes 160..199.
_CODES = tuple(map(str, range(160, 200)))
#: The PSA columns an incomplete record leaves empty, one each.
_BLANKABLE = ("arrest_date", "fta", "nca", "nvca_flag")
#: Dates of birth are drawn from the _DOB_DAYS days from _FIRST_DOB on.
_FIRST_DOB, _DOB_DAYS = date(1955, 1, 1), 365 * 43


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthetic dataset.

    Rates are per emitted record.  ``overbooking_rate`` is the fraction of
    records where a booked exclusion or bump-up charge is dropped at
    disposition; ``saturation_share`` of those are planted with a
    top-level initial recommendation so the drop cannot move the final.
    The planted affected rate is therefore
    overbooking_rate * (1 - saturation_share).
    """

    n_records: int = 2450
    seed: int = 0
    overbooking_rate: float = 0.32
    saturation_share: float = 0.15
    duplicate_rate: float = 0.17
    incomplete_rate: float = 0.026
    disposed_rate: float = 0.883
    plea_other_rate: float = 0.03
    unmatched_rate: float = 0.013
    decoy_rate: float = 0.06
    twin_rate: float = 0.02
    companion_zero_share: float = 0.25
    person_reuse_rate: float = 0.38
    group_mix: dict = field(default_factory=lambda: dict(DEFAULT_GROUP_MIX))
    score_distributions: dict = field(default_factory=lambda: {
        g: {k: tuple(v) for k, v in d.items()} for g, d in DEFAULT_SCORE_DISTRIBUTIONS.items()
    })
    charge_pools: dict = field(default_factory=lambda: {
        k: tuple(v) for k, v in DEFAULT_CHARGE_POOLS.items()
    })

    def __post_init__(self):
        for name in ("n_records", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_records < 0:
            raise ConfigError("n_records must be >= 0")
        for name in ("group_mix", "score_distributions", "charge_pools"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a mapping")
        missing = set(DEFAULT_CHARGE_POOLS) - set(self.charge_pools)
        if missing:
            raise ConfigError(f"charge_pools missing {sorted(missing)}")
        unknown = set(self.charge_pools) - set(DEFAULT_CHARGE_POOLS)
        if unknown:
            raise ConfigError(f"charge_pools has unknown pools {sorted(unknown)}")
        for pool, texts in self.charge_pools.items():
            if not (isinstance(texts, (list, tuple)) and texts and all(isinstance(t, str) for t in texts)):
                raise ConfigError(f"charge pool {pool!r} must be a non-empty list of strings, got {texts!r}")
        for name in (
            "overbooking_rate", "saturation_share", "duplicate_rate", "incomplete_rate",
            "disposed_rate", "plea_other_rate", "unmatched_rate", "decoy_rate",
            "twin_rate", "companion_zero_share", "person_reuse_rate",
        ):
            value = getattr(self, name)
            if not _is_number(value) or not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")
        # one roll picks each of these records' kinds, so a pair of rates
        # summing past 1 would plant fewer of the second kind than asked
        for first, second in (("duplicate_rate", "incomplete_rate"), ("overbooking_rate", "plea_other_rate")):
            rates = getattr(self, first), getattr(self, second)
            if sum(rates) > 1.0 + 1e-9:
                raise ConfigError(f"{first} + {second} must be at most 1, got {rates[0]!r} + {rates[1]!r}")
        mix = list(self.group_mix.values())
        if not all(_is_number(m) and math.isfinite(m) and m >= 0 for m in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigError(
                f"group_mix must map each group to a finite number >= 0, summing to 1, got {self.group_mix!r}"
            )
        for group in self.group_mix:
            if group not in self.score_distributions:
                raise ConfigError(f"score_distributions missing group {group!r}")
        for group, dist in self.score_distributions.items():
            if not isinstance(dist, dict) or set(dist) != {"fta", "nca"}:
                raise ConfigError(f"score_distributions[{group!r}] must map exactly fta and nca, got {dist!r}")
            for scale, weights in dist.items():
                if not (
                    isinstance(weights, (list, tuple))
                    and len(weights) == 6
                    and all(_is_number(w) and math.isfinite(w) and w >= 0 for w in weights)
                    and sum(weights) > 0
                ):
                    raise ConfigError(
                        f"score_distributions[{group!r}][{scale!r}] must be six finite non-negative "
                        f"numbers with a positive sum, got {weights!r}"
                    )

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
        return cls(**doc)

    def check_pools(self, catalog: ChargeCatalog) -> _Memo:
        """Raise ConfigError unless ``catalog`` says of each pool's charges
        what the scenarios' planted outcomes need (``_POOL_RULES``).  The
        rest of the config is checked on construction; this part needs the
        run's catalog.  Returns the memo of the pool texts' charges it
        parsed, each text once, for the generator to draw from."""
        charges = _Memo(parse_charge_code, catalog.derivative_prefixes)
        for pool, rules in _POOL_RULES.items():
            for text in self.charge_pools[pool]:
                charge = charges[text]
                facts = catalog.facts(charge)
                have = {"violent": facts.violent is not None, "exclusion-listed": facts.exclusion is not None,
                        "bump-up-listed": facts.bumpup is not None, "felony": charge.is_felony()}
                for fact, required in rules:
                    if have[fact] is not required:
                        rule = f"only {fact}" if required else f"no {fact}"
                        raise ConfigError(f"charge pool {pool!r} takes {rule} charges, got {text!r}")
        return charges


@dataclass(slots=True)
class _Person:
    sfid: str
    name: str  # its field text: quoted, as it holds a comma
    dob: date  # equal dobs are one date
    group: str
    base_race: str
    last_arrest: date | None = None

    def age_at(self, day: date) -> int:
        return (day - self.dob).days // 365


@dataclass
class SynthDataset:
    """The generated files' rows, each a tuple of cells in its file's
    column order: ``PSA_COLUMNS``, ``COURT_COLUMNS`` and
    ``GROUND_TRUTH_COLUMNS``.  Each cell is its CSV field text, as
    ``io.render_cell`` gives it and ``write_csv`` joins it: a name such as
    ``ADAMS, ALEX`` is held quoted, counts are digits and a blank is "".
    Equal charge-list, disposition, name and count cells are one shared
    text, and so are equal dates (dobs, arrest, assessment and court
    dates), so the rows hold little beyond their own ids."""

    psa_rows: list[tuple]
    court_rows: list[tuple]
    truth_rows: list[tuple]

    def planted_counts(self) -> dict[str, int]:
        # one pass: the rows per distinct (kind, scenario, disposed, affected)
        tally = Counter(map(_PLANTED_CELLS, self.truth_rows))

        def rows(cell: int, text: str) -> int:
            return sum(n for cells, n in tally.items() if cells[cell] == text)

        return {
            "records": len(self.truth_rows),
            "duplicates": rows(0, "duplicate"),
            "incomplete": rows(0, "incomplete"),
            "unmatched": rows(1, "unmatched"),
            "disposed": rows(2, FLAG_TEXT[True]),
            "affected": rows(3, FLAG_TEXT[True]),
        }


_PLANTED_CELLS = itemgetter(*map(GROUND_TRUTH_COLUMNS.index, ("kind", "scenario", "disposed", "affected")))


#: What the catalog must say of each pool's charges for the scenarios'
#: planted outcomes to hold: (fact, required value) pairs.
_POOL_RULES = {
    "neutral_felonies": (("violent", False), ("exclusion-listed", False), ("bump-up-listed", False)),
    "neutral_misdemeanors": (("violent", False), ("exclusion-listed", False), ("bump-up-listed", False),
                             ("felony", False)),
    "violent": (("violent", True), ("exclusion-listed", False)),
    "exclusion": (("exclusion-listed", True),),
    "bumpup_nonviolent": (("bump-up-listed", True), ("violent", False)),
}


def _weighted_draw(rng: random.Random, population, weights):
    """A no-argument function drawing one of ``population`` by ``weights``.

    Its body is CPython 3.11's ``Random.choices`` for ``k=1`` with the
    cumulative weights built once rather than on every call: one
    ``rng.random()`` per draw, scaled by the same float total and bisected
    over the same sums.  So each draw returns what
    ``rng.choices(population, weights)[0]`` would and leaves ``rng`` in the
    same state, and the seeded output bytes are those ``choices`` gave
    (``tests/test_synth.py`` checks both, so a release that changes
    ``choices`` fails there).  ``GeneratorConfig`` has already checked that
    the weights are finite, non-negative and sum above zero.
    """
    population = tuple(population)
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    hi = len(cum_weights) - 1
    rand = rng.random
    return lambda: population[bisect(cum_weights, rand() * total, 0, hi)]


def _draw_below(rng: random.Random):
    """A function ``below(n)`` drawing an int in ``range(n)`` for n > 0.

    Its body is CPython 3.11's ``Random._randbelow_with_getrandbits`` line
    for line, which ``randrange``, ``randint`` and ``choice`` all end in:
    ``rng.randrange(n)`` is ``below(n)``, ``rng.randint(a, b)`` is
    ``a + below(b - a + 1)`` and ``rng.choice(s)`` is ``s[below(len(s))]``,
    each taking the same bits from ``rng`` without those methods' own
    frames.  So the seeded output bytes are those the three methods gave
    (``tests/test_synth.py`` checks the values and the stream's state, so
    a release that changes them fails there).
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()  # not (n-1): n may be 1
        r = getrandbits(k)  # 0 <= r < 2**k
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class _Generator:
    def __init__(self, config: GeneratorConfig, engine: EngineConfig):
        self.cfg = config
        self.engine = engine
        self.pools = {k: tuple(v) for k, v in config.charge_pools.items()}
        # one shared ChargeCode per distinct pool text, parsed by the check
        self._charges = config.check_pools(engine.catalog)
        self.neutrals = self.pools["neutral_misdemeanors"] + self.pools["neutral_felonies"]
        self.identical_pool = self.neutrals + self.pools["violent"]
        self.rng = random.Random(config.seed)
        self.persons: list[_Person] = []
        self.psa_rows: list[tuple] = []
        self.court_rows: list[tuple] = []
        self.truth_rows: list[tuple] = []
        self.base_rows: list[tuple] = []  # the psa_rows a duplicate may copy
        # the field text of a repeated cell's text, rendered the first time
        # and then the one object every row holding it shares
        self._share = _Memo(render_cell).__getitem__
        self._count_text = _Memo(str)  # each count's text: fta, nca, age, prior violence
        self._arrests: dict = {}  # each arrest date
        # each distinct date's text, and each dob by its day in the dob range
        self._date_text = _Memo(date.isoformat)
        self._dobs: list[date | None] = [None] * _DOB_DAYS
        # the next row id: R000001, R000002, ... and CN0000001, ...
        self._next_record_id = map("R{:06d}".format, count(1)).__next__
        self._next_court_number = map("CN{:07d}".format, count(1)).__next__
        # every draw is built once, here, not per record
        rng = self.rng
        self._below = _draw_below(rng)
        groups = sorted(config.group_mix)
        self._draw_group = _weighted_draw(rng, groups, [config.group_mix[g] for g in groups])
        self._draw_nonb_race = _weighted_draw(rng, NONB_RACES, NONB_RACE_WEIGHTS)
        self._draw_scores = {
            group: (_weighted_draw(rng, range(1, 7), dist["fta"]), _weighted_draw(rng, range(1, 7), dist["nca"]))
            for group, dist in config.score_distributions.items()
        }
        self._draw_pv = _weighted_draw(rng, (0, 1, 2), (70, 20, 10))
        self._draw_case_arrest_offset = _weighted_draw(rng, (-1, 0, 1, 2), (5, 80, 10, 5))
        self._draw_assessment_offset = _weighted_draw(rng, (0, 1), (85, 15))
        # overbooked scenarios pin the cell: each maps to its cells in matrix
        # order (the retry fallback draws from that list) and as a set
        low, top = self._classify_cells()
        self._pinned_cells = {"overbooked_affected": (low, frozenset(low)),
                              "overbooked_saturated": (top, frozenset(top))}

    def _classify_cells(self):
        low, top = [], []
        for fta in range(1, 7):
            for nca in range(1, 7):
                value = self.engine.dmf.cells[fta - 1][nca - 1]
                if not isinstance(value, SupervisionLevel):  # the split cell
                    continue
                if value <= 3:
                    low.append((fta, nca))
                else:
                    top.append((fta, nca))
        if not low or not top:
            raise ConfigError("decision matrix must offer both low and top non-split cells")
        return low, top

    # -- small draw helpers ------------------------------------------------

    def _draw_person(self) -> _Person:
        if self.persons and self.rng.random() < self.cfg.person_reuse_rate:
            return self.persons[self._below(len(self.persons))]
        group = self._draw_group()
        base_race = "B" if group == "B" else self._draw_nonb_race()
        below = self._below
        name = self._share(f"{LAST_NAMES[below(len(LAST_NAMES))]}, {FIRST_NAMES[below(len(FIRST_NAMES))]}")
        days = below(_DOB_DAYS)
        dob = self._dobs[days]
        if dob is None:
            dob = self._dobs[days] = _FIRST_DOB + timedelta(days=days)
        person = _Person(f"SF{len(self.persons) + 1:06d}", name, dob, group, base_race)
        self.persons.append(person)
        return person

    def _draw_arrest_date(self, person: _Person) -> date:
        # keep one person's arrests at least 5 days apart so candidate
        # windows never overlap across their records
        if person.last_arrest is None:
            arrest = date(2016, 7, 1) + timedelta(days=self._below(330))
        else:
            arrest = person.last_arrest + timedelta(days=5 + self._below(60))
        person.last_arrest = arrest = self._arrests.setdefault(arrest, arrest)
        return arrest

    def _draw_fta_nca(self, group: str, pinned: tuple[list, frozenset] | None) -> tuple[int, int]:
        # overbooked scenarios pin the cell: a low cell guarantees the drop is
        # visible in the final recommendation, a top cell guarantees it is not.
        # identity-preserving scenarios may land anywhere, split cell included.
        draw_fta, draw_nca = self._draw_scores[group]
        if pinned is None:
            return draw_fta(), draw_nca()
        cells, wanted = pinned
        for _ in range(200):
            cell = (draw_fta(), draw_nca())
            if cell in wanted:
                return cell
        return cells[self._below(len(cells))]

    def _draw_race(self, person: _Person) -> str:
        if self.rng.random() < 0.97:
            return person.base_race
        others = [r for r in ("B", "C", "H", "O", "U", "W") if r != person.base_race]
        return others[self._below(len(others))]

    def _offset_text(self, day: date, draw_offset) -> str:
        """The text of ``day`` moved by ``draw_offset()`` days."""
        offset = draw_offset()
        return self._date_text[day + timedelta(days=offset) if offset else day]

    # -- record assembly ---------------------------------------------------

    def run(self) -> SynthDataset:
        for _ in range(self.cfg.n_records):
            roll = self.rng.random()
            if roll < self.cfg.duplicate_rate:
                # until a base record exists there is nothing to copy
                if self.base_rows:
                    self._emit_duplicate()
                else:
                    self._emit_base()
            elif roll < self.cfg.duplicate_rate + self.cfg.incomplete_rate:
                self._emit_incomplete()
            else:
                self._emit_base()
        return SynthDataset(self.psa_rows, self.court_rows, self.truth_rows)

    def _emit_duplicate(self):
        source = self.base_rows[self._below(len(self.base_rows))]
        # record_id leads PSA_COLUMNS; every other cell is copied
        row = (self._next_record_id(), *source[1:])
        self.psa_rows.append(row)
        self.truth_rows.append((row[0], "duplicate", "", "", "", "", "", "", source[0]))

    def _emit_incomplete(self):
        person = self._draw_person()
        arrest = self._draw_arrest_date(person)
        fta, nca = self._draw_fta_nca(person.group, None)
        # a one-charge list is its pool text
        misdemeanors = self.pools["neutral_misdemeanors"]
        booked = self._share(misdemeanors[self._below(len(misdemeanors))])
        row = self._psa_row(person, arrest, person.age_at(arrest), fta, nca, False, booked,
                            prior_conviction=False, pv=0)
        blank = _BLANKABLE[self._below(len(_BLANKABLE))]
        i = PSA_COLUMNS.index(blank)
        row = (*row[:i], "", *row[i + 1:])
        self.psa_rows.append(row)
        self.truth_rows.append((row[0], "incomplete", self._share(f"missing:{blank}"), self._share(person.group),
                                "", "", "", "", ""))

    def _emit_base(self):
        cfg = self.cfg
        person = self._draw_person()
        arrest = self._draw_arrest_date(person)
        disposed = self.rng.random() < cfg.disposed_rate
        unmatched = self.rng.random() < cfg.unmatched_rate

        roll = self.rng.random()
        if roll < cfg.overbooking_rate * (1 - cfg.saturation_share):
            scenario = "overbooked_affected"
        elif roll < cfg.overbooking_rate:
            scenario = "overbooked_saturated"
        elif roll < cfg.overbooking_rate + cfg.plea_other_rate:
            scenario = "plea_other_case"
        else:
            scenario = "identical"

        prior_conviction = self.rng.random() < 0.35
        if scenario.startswith("overbooked"):
            pv = self._below(2)
        else:
            pv = self._draw_pv()

        texts, dispositions, first_convicted = self._plan_charges(scenario, disposed)
        # a tuple, so that assess reuses the facts the catalog found for derive_subscores
        charges = tuple(map(self._charges.__getitem__, texts))
        fta, nca = self._draw_fta_nca(person.group, self._pinned_cells.get(scenario))

        # the row is scored exactly as the audit re-scores it; scoring draws
        # no random numbers, so it may come before the row
        age = person.age_at(arrest)
        subs = derive_subscores(fta, nca, age, prior_conviction, pv, charges, self.engine)
        result = assess(subs, charges, False, self.engine.dmf, self.engine.catalog)
        booked = self._share(";".join(texts))
        row = self._psa_row(person, arrest, age, fta, nca, subs.nvca_flag, booked, prior_conviction, pv,
                            (FLAG_TEXT[result.exclusion], FLAG_TEXT[result.bumpup], result.final.label))
        self.psa_rows.append(row)
        self.base_rows.append(row)

        matched_numbers = []
        if not unmatched:
            matched_numbers.append(self._emit_case(person, arrest, booked, dispositions))
            if self.rng.random() < cfg.twin_rate:
                matched_numbers.append(self._emit_case(person, arrest, booked, dispositions))
            if self.rng.random() < cfg.decoy_rate:
                self._emit_decoy(person, arrest, texts)

        convicted = ";".join(texts[first_convicted:]) if disposed else ""
        self.truth_rows.append((
            row[0], "base", "unmatched" if unmatched else scenario, self._share(person.group),
            ";".join(matched_numbers),
            FLAG_TEXT[disposed], self._share(convicted),
            FLAG_TEXT[scenario == "overbooked_affected" and disposed and not unmatched], "",
        ))

    def _plan_charges(self, scenario: str, disposed: bool) -> tuple[list[str], list[str], int]:
        """The charges' pool texts, their disposition texts, and the index
        of the first convicted charge: it and every charge after it are
        convicted when the record is disposed.

        Dispositions are planned for the disposed case; when the record is
        not disposed one slot is blanked afterwards.
        """
        rng, below, pools = self.rng, self._below, self.pools
        neutrals, misdemeanors = self.neutrals, pools["neutral_misdemeanors"]
        if scenario == "overbooked_affected":
            pool = pools["bumpup_nonviolent"] if rng.random() < 0.5 else pools["exclusion"]
            texts, codes, first = [pool[below(len(pool))]], ["30"], 1
            for _ in range(below(3)):
                texts.append(neutrals[below(len(neutrals))])
                codes.append(_CODES[below(40)])
        elif scenario == "overbooked_saturated":
            pool = pools["exclusion"] if rng.random() < 0.5 else pools["bumpup_nonviolent"]
            texts, codes, first = [pool[below(len(pool))]], ["30"], 1
            for _ in range(1 + below(2)):
                texts.append(neutrals[below(len(neutrals))])
                codes.append(_CODES[below(40)])
        elif scenario == "plea_other_case":
            texts, codes = [misdemeanors[below(len(misdemeanors))]], ["72"]
            for _ in range(below(2)):
                texts.append(misdemeanors[below(len(misdemeanors))])
                codes.append("30")
            first = len(texts)  # none convicted
        else:  # identical
            pool = self.identical_pool
            texts = [pool[below(len(pool))] for _ in range(1 + below(3))]
            if rng.random() < self.cfg.companion_zero_share:
                # plea-code encoding: the pleaded charge is an inert
                # misdemeanor; its zero-coded companions are the convictions
                texts.insert(0, misdemeanors[below(len(misdemeanors))])
                codes, first = ["72"] + ["0"] * (len(texts) - 1), 1
            else:
                codes, first = [_CODES[below(40)] for _ in texts], 0

        if not disposed:
            codes[below(len(texts))] = ""
        return texts, codes, first

    def _emit_case(self, person: _Person, psa_arrest: date, booked: str, dispositions: list[str]) -> str:
        """One court row filing and booking the ``booked`` charge list."""
        arrest = self._offset_text(psa_arrest, self._draw_case_arrest_offset)
        number = self._next_court_number()
        self.court_rows.append((
            number, person.sfid, person.name, self._date_text[person.dob], arrest,
            self._draw_race(person), booked, booked, self._share(";".join(dispositions)),
        ))
        return number

    def _emit_decoy(self, person: _Person, psa_arrest: date, booked: list[str]):
        texts = list(islice((t for t in self.pools["neutral_misdemeanors"] if t not in booked), 2))
        if texts:
            self._emit_case(person, psa_arrest, self._share(";".join(texts)), ["30"] * len(texts))

    def _psa_row(self, person: _Person, arrest: date, age: int, fta: int, nca: int, nvca: bool, booked: str,
                 prior_conviction: bool, pv: int, recorded=("", "", "")) -> tuple:
        """One assessment row in PSA_COLUMNS order; ``booked`` is the joined
        charge list's field text and ``recorded`` holds the texts of the
        form's exclusion, bump-up and recommendation."""
        text = self._count_text
        return (
            self._next_record_id(), person.sfid, person.name, self._date_text[person.dob], self._date_text[arrest],
            self._offset_text(arrest, self._draw_assessment_offset), text[fta], text[nca], FLAG_TEXT[nvca],
            booked, text[age], FLAG_TEXT[prior_conviction], text[pv], *recorded,
        )


def generate(config: GeneratorConfig, engine: EngineConfig | None = None) -> SynthDataset:
    engine = engine or load_engine_config()
    return _Generator(config, engine).run()


def write_dataset(dataset: SynthDataset, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    paths = {
        "psa_records": out / "psa_records.csv",
        "court_cases": out / "court_cases.csv",
        "ground_truth": out / "ground_truth.csv",
    }
    write_csv(paths["psa_records"], PSA_COLUMNS, dataset.psa_rows)
    write_csv(paths["court_cases"], COURT_COLUMNS, dataset.court_rows)
    write_csv(paths["ground_truth"], GROUND_TRUTH_COLUMNS, dataset.truth_rows)
    return paths
