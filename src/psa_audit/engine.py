"""Assessment engine: sub-scores, charge-based exclusion, decision matrix
lookup, and bump-up, producing initial and final supervision recommendations.

Every operation here is a pure function (the catalog's memos change no
answer), so records can be scored in parallel.  The four-step shape:

  1. sub-scores (two 1..6 scales plus a binary violence flag): the scales
     are taken from the form, and ``derive_subscores`` derives the violence
     flag from the form's inputs and the charges under the nvca weights;
  2. charge-based exclusion (extradition, a listed serious offense, or a
     violent charge combined with the violence flag) forces the most
     restrictive recommendation;
  3. the decision matrix maps (fta, nca) to an initial recommendation,
     with one split cell whose outcome depends on charge class;
  4. charge-based bump-up (a listed offense, or the violence flag without
     any violent charge) raises the recommendation one level, capped at
     the top.

The initial recommendation is always computed, even under an exclusion,
so that audits can compare like with like.

A charge set is read only through its ``ChargeFacts``: the least violent,
exclusion-listed and bump-up-listed charge text, and whether any charge is
a felony or a violent misdemeanor.  None of these depends on the order of
the set or on a repeated charge, so the engine takes any sequence of
charges, such as a reader's booked cell as it stands, and never sorts or
de-duplicates one.  The catalog owns every memo of charge facts, the
last tuple asked about included, so one side's tuple given to
``derive_subscores`` and then to ``assess`` costs one lookup.  Equal
decisions then share one immutable ``PsaResult``, reason strings
included, from a second memo keyed on what the decision reads: the
sub-score values, extradition, the set's facts and the initial level.
That one is bounded by the distinct decisions, not by the distinct charge
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from .charges import ChargeCatalog, ChargeCode, ChargeFacts, _require_keys, data_path, default_catalog, read_config
from .errors import ConfigError


class SupervisionLevel(IntEnum):
    OR_NAS = 1
    OR_MINIMUM = 2
    SFPDP_ACM = 3
    RELEASE_NOT_RECOMMENDED = 4

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "SupervisionLevel":
        t = text.strip()
        if t in _LABEL_LEVELS:
            return _LABEL_LEVELS[t]
        if t in ("1", "2", "3", "4"):
            return cls(int(t))
        raise ValueError(f"unknown supervision level {text!r}")


_LEVEL_LABELS = {
    SupervisionLevel.OR_NAS: "OR-NAS",
    SupervisionLevel.OR_MINIMUM: "OR-Minimum",
    SupervisionLevel.SFPDP_ACM: "SFPDP-ACM",
    SupervisionLevel.RELEASE_NOT_RECOMMENDED: "Release-Not-Recommended",
}
_LABEL_LEVELS = {v: k for k, v in _LEVEL_LABELS.items()}


#: The violence-flag inputs that ``derive_subscores`` weighs.
_FACTORS = ("age_at_arrest", "prior_conviction", "prior_violent_convictions", "current_offense_violent")


@dataclass(frozen=True, slots=True)
class SubScores:
    fta: int
    nca: int
    nvca_flag: bool

    def __post_init__(self):
        if not (1 <= self.fta <= 6 and 1 <= self.nca <= 6):
            raise ValueError(f"fta/nca must be in 1..6, got ({self.fta}, {self.nca})")


@dataclass(frozen=True)
class FlagSpec:
    """Integer weights plus the threshold for the binary violence flag.
    ``factor_weights`` holds the weights in ``_FACTORS`` order, an absent
    factor's as 0, read from ``weights`` once, when the spec is made."""

    weights: Mapping[str, int]
    threshold: int
    factor_weights: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factor_weights", tuple(self.weights.get(name, 0) for name in _FACTORS))


@dataclass(frozen=True)
class WeightConfig:
    nvca: FlagSpec


def derive_subscores(fta: int, nca: int, age_at_arrest: int | None, prior_conviction: bool | None,
                     prior_violent_convictions: int | None, charges: Sequence[ChargeCode],
                     config: EngineConfig) -> SubScores:
    """Step 1: the sub-scores of a form scored over ``charges``.

    FTA and NCA are the form's.  The violence flag is set when the sum of
    its inputs, weighted by ``config.weights.nvca``, reaches the threshold;
    of those inputs only "current offense violent" (any charge violent)
    depends on the charges.  An absent input counts as 0, and a negative
    count raises ValueError.  Equal sub-scores are one shared value.
    """
    age, priors = age_at_arrest or 0, prior_violent_convictions or 0
    if age < 0 or priors < 0:
        raise ValueError(f"age_at_arrest and prior_violent_convictions must be >= 0, got {age} and {priors}")
    violent = config.catalog.facts_of(charges).violent is not None
    nvca = config.weights.nvca
    w_age, w_conviction, w_priors, w_violent = nvca.factor_weights
    score = w_age * age + w_conviction * bool(prior_conviction) + w_priors * priors + w_violent * violent
    return _subscores(fta, nca, score >= nvca.threshold)


#: One shared SubScores per distinct (fta, nca, flag): at most 72, whatever the config.
_subscores = lru_cache(maxsize=None)(SubScores)


_SPLIT = "SPLIT"


@dataclass(frozen=True)
class DmfConfig:
    """6x6 decision matrix indexed (fta, nca), values SupervisionLevel
    or the split-cell marker; checked once, when made, to be 6x6 with
    no missing cell.  ``path`` names the file it was loaded from, for
    errors ("" for a matrix made in code); it takes no part in equality."""

    cells: tuple[tuple[SupervisionLevel | str, ...], ...]
    path: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.cells) != 6 or any(len(row) != 6 or None in row for row in self.cells):
            raise ConfigError("decision matrix must be 6x6 (fta 1..6 by nca 1..6) with no missing cell")


@dataclass(frozen=True, slots=True)
class PsaResult:
    subscores: SubScores
    exclusion: bool
    exclusion_reason: str
    bumpup: bool
    bumpup_reason: str
    initial: SupervisionLevel
    final: SupervisionLevel


def _exclusion(summary: ChargeFacts, extradited: bool, nvca_flag: bool) -> tuple[bool, str]:
    if extradited:
        return True, "extradited"
    if summary.exclusion is not None:
        return True, f"exclusion-list:{summary.exclusion}"
    if nvca_flag and summary.violent is not None:
        return True, f"violent+nvca:{summary.violent}"
    return False, ""


def _bumpup(summary: ChargeFacts, nvca_flag: bool) -> tuple[bool, str]:
    if summary.bumpup is not None:
        return True, f"bumpup-list:{summary.bumpup}"
    if nvca_flag and summary.violent is None:
        return True, "nvca-no-violent"
    return False, ""


def _initial(subscores: SubScores, summary: ChargeFacts, dmf: DmfConfig) -> SupervisionLevel:
    # SubScores holds fta and nca in 1..6 and DmfConfig is checked 6x6
    # with every cell present, so the cell needs no check here
    value = dmf.cells[subscores.fta - 1][subscores.nca - 1]
    if value == _SPLIT:
        if summary.felony_or_violent_misdemeanor:
            return SupervisionLevel.RELEASE_NOT_RECOMMENDED
        return SupervisionLevel.SFPDP_ACM
    return value


def assess(
    subscores: SubScores,
    charges: Sequence[ChargeCode],
    extradited: bool,
    dmf: DmfConfig,
    catalog: ChargeCatalog,
) -> PsaResult:
    """Run steps 2..4 over given sub-scores and booked charges.

    Exclusion fires on extradition, then on any listed exclusion offense
    (including derivative forms), then on any violent charge combined with
    the violence flag.  Bump-up fires on any listed bump-up offense
    (including derivative forms, and honoring the weapon-use grey-zone
    policy), or when the violence flag is set while no charge is violent.
    Each reason names the first clause that fired and, of the charges that
    fired it, the least in normalized-text order, so it does not depend on
    the order of ``charges``.  At the split cell of the decision matrix
    the initial level is the top one if any charge is a felony or a
    violent misdemeanor, otherwise the second-highest.

    Equal decisions return one shared result.
    """
    summary = catalog.facts_of(charges)
    return _decide(subscores.fta, subscores.nca, subscores.nvca_flag, extradited, summary,
                   _initial(subscores, summary, dmf))


@lru_cache(maxsize=None)
def _decide(
    fta: int, nca: int, nvca_flag: bool, extradited: bool, summary: ChargeFacts, initial: SupervisionLevel
) -> PsaResult:
    """The result of one decision, holding the shared sub-scores.  The key
    holds only what the decision reads of a charge set, never the set
    itself, so the memo grows with the distinct decisions, not the
    distinct charge sets; each part of it hashes without a Python call."""
    exclusion, exclusion_reason = _exclusion(summary, extradited, nvca_flag)
    bumpup, bumpup_reason = _bumpup(summary, nvca_flag)
    if exclusion:
        final = SupervisionLevel.RELEASE_NOT_RECOMMENDED
    elif bumpup:
        final = SupervisionLevel(min(initial + 1, SupervisionLevel.RELEASE_NOT_RECOMMENDED))
    else:
        final = initial
    return PsaResult(
        subscores=_subscores(fta, nca, nvca_flag),
        exclusion=exclusion,
        exclusion_reason=exclusion_reason,
        bumpup=bumpup,
        bumpup_reason=bumpup_reason,
        initial=initial,
        final=final,
    )


# ---------------------------------------------------------------------------
# config loading


def _load_weights_map(doc, where: str) -> dict[str, int]:
    if not isinstance(doc, dict) or not doc:
        raise ConfigError(f"{where}: weights must be a non-empty mapping")
    out = {}
    for name, w in doc.items():
        if name not in _FACTORS:
            raise ConfigError(f"{where}: unknown factor {name!r}")
        if not isinstance(w, int) or isinstance(w, bool):
            raise ConfigError(f"{where}: weight for {name!r} must be an integer")
        if w < 0:
            # the audit relies on it: fewer charges never set the violence flag
            raise ConfigError(f"{where}: weight for {name!r} must not be negative, got {w}")
        out[name] = w
    return out


def load_weight_config(path: str | Path) -> WeightConfig:
    """Load the violence-flag weights.

    Older files also carry ``fta``/``nca`` scale sections; the audit takes
    those scales from the form, so the sections are accepted and ignored.
    """
    doc = read_config(path)
    _require_keys(doc, {"fta", "nca", "nvca"}, {"nvca"}, str(path))
    nvca = doc["nvca"]
    _require_keys(nvca, {"weights", "threshold"}, {"weights", "threshold"}, f"{path}:nvca")
    if not isinstance(nvca["threshold"], int) or isinstance(nvca["threshold"], bool):
        raise ConfigError(f"{path}:nvca threshold must be an integer")
    return WeightConfig(
        nvca=FlagSpec(weights=_load_weights_map(nvca["weights"], f"{path}:nvca"), threshold=nvca["threshold"]),
    )


def load_dmf_config(path: str | Path) -> DmfConfig:
    doc = read_config(path)
    _require_keys(doc, {"rows"}, {"rows"}, str(path))
    rows = doc["rows"]
    if not isinstance(rows, list) or len(rows) != 6:
        raise ConfigError(f"{path}: decision matrix needs exactly 6 rows (fta 1..6)")
    cells = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 6:
            raise ConfigError(f"{path}: row {i + 1} needs exactly 6 entries (nca 1..6)")
        parsed_row = []
        for j, token in enumerate(row):
            if token is None or str(token).strip() == "":
                raise ConfigError(f"{path}: cell ({i + 1}, {j + 1}) is missing")
            if str(token).strip() == _SPLIT:
                parsed_row.append(_SPLIT)
                continue
            try:
                parsed_row.append(SupervisionLevel.from_label(str(token)))
            except ValueError as exc:
                raise ConfigError(f"{path}: cell ({i + 1}, {j + 1}): {exc}") from None
        cells.append(tuple(parsed_row))
    if sum(row.count(_SPLIT) for row in cells) > 1:
        raise ConfigError(f"{path}: more than one SPLIT cell")
    return DmfConfig(cells=tuple(cells), path=str(path))


@dataclass(frozen=True)
class EngineConfig:
    catalog: ChargeCatalog
    dmf: DmfConfig
    weights: WeightConfig


CONFIG_FILENAMES = {"catalog": "charge_catalog.yaml", "dmf": "dmf.yaml", "weights": "weights.yaml"}


def config_path(name: str, explicit: str | Path | None, config_dir: str | Path | None) -> Path:
    """The engine config file ``name`` (a key of ``CONFIG_FILENAMES``) that
    a run reads: an explicit path wins; otherwise the file is taken from
    ``config_dir``; otherwise the packaged default is used."""
    if explicit is not None:
        return Path(explicit)
    if config_dir is not None:
        return Path(config_dir) / CONFIG_FILENAMES[name]
    return data_path(CONFIG_FILENAMES[name])


def load_engine_config(
    config_dir: str | Path | None = None,
    *,
    catalog_path: str | Path | None = None,
    dmf_path: str | Path | None = None,
    weights_path: str | Path | None = None,
) -> EngineConfig:
    """Resolve (``config_path``) and load the three engine config files.
    Each call makes its own catalog, whose memos start empty.
    """
    cat_p = config_path("catalog", catalog_path, config_dir)
    dmf_p = config_path("dmf", dmf_path, config_dir)
    wts_p = config_path("weights", weights_path, config_dir)
    catalog = default_catalog() if cat_p == data_path(CONFIG_FILENAMES["catalog"]) else ChargeCatalog.from_file(cat_p)
    return EngineConfig(
        catalog=catalog,
        dmf=load_dmf_config(dmf_p),
        weights=load_weight_config(wts_p),
    )
