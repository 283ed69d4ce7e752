"""Assessment engine: sub-scores, charge-based exclusion, decision matrix
lookup, and bump-up, producing initial and final supervision recommendations.

Every operation here is a pure function, so records can be scored in
parallel with no coordination; the catalog memoizes each charge's list
membership, but its answers never change.  The four-step shape:

  1. sub-scores (two 1..6 scales plus a binary violence flag): the scales
     are taken from the form, and the violence flag is derived from risk
     factors under the nvca weights;
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

``assess`` walks each charge set once, into the few facts steps 2..4 read
of it (the least violent, exclusion-listed and bump-up-listed charge, and
whether any charge is a felony or a violent misdemeanor).  Equal decisions
then share one immutable ``PsaResult``, reason strings included, from a
memo keyed on what the decision reads: sub-scores, extradition, those
charge facts and the initial level.  The memo is bounded by the distinct
decisions, not by the distinct charge sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .charges import ChargeCatalog, ChargeCode, _require_keys, data_path, default_catalog, read_config
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
        if t.isdigit() and 1 <= int(t) <= 4:
            return cls(int(t))
        raise ValueError(f"unknown supervision level {text!r}")


_LEVEL_LABELS = {
    SupervisionLevel.OR_NAS: "OR-NAS",
    SupervisionLevel.OR_MINIMUM: "OR-Minimum",
    SupervisionLevel.SFPDP_ACM: "SFPDP-ACM",
    SupervisionLevel.RELEASE_NOT_RECOMMENDED: "Release-Not-Recommended",
}
_LABEL_LEVELS = {v: k for k, v in _LEVEL_LABELS.items()}


@dataclass(frozen=True, slots=True)
class RiskFactors:
    """The violence-flag inputs an assessment record carries."""

    age_at_arrest: int = 0
    prior_conviction: bool = False
    prior_violent_convictions: int = 0
    current_offense_violent: bool = False

    def __post_init__(self):
        if self.age_at_arrest < 0:
            raise ValueError("age_at_arrest must be >= 0")
        if self.prior_violent_convictions < 0:
            raise ValueError("counts must be >= 0")


#: Numeric value each factor contributes per unit of weight.
FACTOR_VALUES = {
    "age_at_arrest": lambda f: f.age_at_arrest,
    "prior_conviction": lambda f: int(f.prior_conviction),
    "prior_violent_convictions": lambda f: f.prior_violent_convictions,
    "current_offense_violent": lambda f: int(f.current_offense_violent),
}


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
    """Integer weights plus the threshold for the binary violence flag."""

    weights: Mapping[str, int]
    threshold: int


@dataclass(frozen=True)
class WeightConfig:
    nvca: FlagSpec


def raw_score(weights: Mapping[str, int], factors: RiskFactors) -> int:
    return sum(w * FACTOR_VALUES[name](factors) for name, w in weights.items())


def nvca_flag_value(factors: RiskFactors, config: WeightConfig) -> bool:
    return raw_score(config.nvca.weights, factors) >= config.nvca.threshold


_SPLIT = "SPLIT"


@dataclass(frozen=True)
class DmfConfig:
    """6x6 decision matrix indexed (fta, nca), values SupervisionLevel
    or the split-cell marker."""

    cells: tuple[tuple[SupervisionLevel | str, ...], ...]

    def cell(self, fta: int, nca: int) -> SupervisionLevel | str:
        if not (1 <= fta <= len(self.cells) and 1 <= nca <= len(self.cells[0])):
            raise ConfigError(f"decision matrix has no cell ({fta}, {nca})")
        value = self.cells[fta - 1][nca - 1]
        if value is None:
            raise ConfigError(f"decision matrix cell ({fta}, {nca}) is missing")
        return value


@dataclass(frozen=True, slots=True)
class PsaResult:
    subscores: SubScores
    exclusion: bool
    exclusion_reason: str
    bumpup: bool
    bumpup_reason: str
    initial: SupervisionLevel
    final: SupervisionLevel


class _ChargeSummary(NamedTuple):
    """What steps 2..4 read of a charge set, from one walk over it: the
    least (normalized) violent, exclusion-listed and bump-up-listed
    charges, or None, and whether any charge is a felony or a violent
    misdemeanor."""

    violent: str | None
    exclusion: str | None
    bumpup: str | None
    felony_or_violent_misdemeanor: bool


def _least(current: str | None, text: str) -> str:
    return text if current is None or text < current else current


def _summarize(charges: Sequence[ChargeCode], catalog: ChargeCatalog) -> _ChargeSummary:
    violent = exclusion = bumpup = None
    top = False
    for c in charges:
        facts = catalog.facts(c)
        if facts.violent:
            violent = _least(violent, c.normalized)
            top = top or c.is_misdemeanor()
        if facts.exclusion:
            exclusion = _least(exclusion, c.normalized)
        if facts.bumpup:
            bumpup = _least(bumpup, c.normalized)
        top = top or c.is_felony()
    return _ChargeSummary(violent, exclusion, bumpup, top)


def _exclusion(summary: _ChargeSummary, extradited: bool, nvca_flag: bool) -> tuple[bool, str]:
    if extradited:
        return True, "extradited"
    if summary.exclusion is not None:
        return True, f"exclusion-list:{summary.exclusion}"
    if nvca_flag and summary.violent is not None:
        return True, f"violent+nvca:{summary.violent}"
    return False, ""


def _bumpup(summary: _ChargeSummary, nvca_flag: bool) -> tuple[bool, str]:
    if summary.bumpup is not None:
        return True, f"bumpup-list:{summary.bumpup}"
    if nvca_flag and summary.violent is None:
        return True, "nvca-no-violent"
    return False, ""


def _initial(subscores: SubScores, summary: _ChargeSummary, dmf: DmfConfig) -> SupervisionLevel:
    value = dmf.cell(subscores.fta, subscores.nca)
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
    summary = _summarize(charges, catalog)
    return _decide(subscores, extradited, summary, _initial(subscores, summary, dmf))


@lru_cache(maxsize=None)
def _decide(
    subscores: SubScores, extradited: bool, summary: _ChargeSummary, initial: SupervisionLevel
) -> PsaResult:
    """The result of one decision.  The key holds only what the decision
    reads of a charge set, never the set itself, so the memo grows with
    the distinct decisions, not the distinct charge sets."""
    exclusion, exclusion_reason = _exclusion(summary, extradited, subscores.nvca_flag)
    bumpup, bumpup_reason = _bumpup(summary, subscores.nvca_flag)
    if exclusion:
        final = SupervisionLevel.RELEASE_NOT_RECOMMENDED
    elif bumpup:
        final = SupervisionLevel(min(initial + 1, SupervisionLevel.RELEASE_NOT_RECOMMENDED))
    else:
        final = initial
    return PsaResult(
        subscores=subscores,
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
        if name not in FACTOR_VALUES:
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
    return DmfConfig(cells=tuple(cells))


@dataclass(frozen=True)
class EngineConfig:
    catalog: ChargeCatalog
    dmf: DmfConfig
    weights: WeightConfig
    # counterfactual_assess's memos of the violence flag and of SubScores,
    # kept here so that they live exactly as long as the weights behind them
    flag_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    subscore_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


CONFIG_FILENAMES = {"catalog": "charge_catalog.yaml", "dmf": "dmf.yaml", "weights": "weights.yaml"}


def load_engine_config(
    config_dir: str | Path | None = None,
    *,
    catalog_path: str | Path | None = None,
    dmf_path: str | Path | None = None,
    weights_path: str | Path | None = None,
) -> EngineConfig:
    """Resolve and load the three engine config files.

    Explicit per-file paths win; otherwise files are taken from
    ``config_dir``; otherwise the packaged defaults are used.
    """
    base = Path(config_dir) if config_dir is not None else None

    def resolve(explicit, name):
        if explicit is not None:
            return Path(explicit)
        if base is not None:
            return base / CONFIG_FILENAMES[name]
        return data_path(CONFIG_FILENAMES[name])

    cat_p = resolve(catalog_path, "catalog")
    dmf_p = resolve(dmf_path, "dmf")
    wts_p = resolve(weights_path, "weights")
    catalog = default_catalog() if cat_p == data_path(CONFIG_FILENAMES["catalog"]) else ChargeCatalog.from_file(cat_p)
    return EngineConfig(
        catalog=catalog,
        dmf=load_dmf_config(dmf_p),
        weights=load_weight_config(wts_p),
    )
