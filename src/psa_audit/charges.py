"""Statute charge-code parsing and charge-list membership queries.

Charge strings follow the shorthand used on California booking sheets and
court dockets: a statute number, optional parenthesized subdivisions, an
optional code body (PC, VC, HS, ...), an optional offense-class letter
(F or M), and an optional degree digit, e.g. ``187(A) PC F 1``.

A leading ``664/`` marks an attempt of the base offense.  Conspiracy,
solicitation, and failure-to-appear derivative forms have no single
documented string convention, so they are recognized through a
configurable prefix table (``182/``, ``653F/``, ``1320/`` by default)
that a catalog file may extend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import yaml

from .errors import ConfigError, ParseError


class ChargeClass(Enum):
    FELONY = "F"
    MISDEMEANOR = "M"
    UNSPECIFIED = ""


class Derivative(Enum):
    NONE = "none"
    ATTEMPT = "attempt"
    CONSPIRACY = "conspiracy"
    SOLICITATION = "solicitation"
    FTA_OF = "fta_of"


#: Statute prefixes that mark a derivative form of the offense that follows.
DEFAULT_DERIVATIVE_PREFIXES: dict[str, Derivative] = {
    "664": Derivative.ATTEMPT,
    "182": Derivative.CONSPIRACY,
    "653F": Derivative.SOLICITATION,
    "1320": Derivative.FTA_OF,
    "1320.5": Derivative.FTA_OF,
}

#: Prefix used when rendering a derivative charge back to canonical text.
CANONICAL_PREFIX = {
    Derivative.ATTEMPT: "664",
    Derivative.CONSPIRACY: "182",
    Derivative.SOLICITATION: "653F",
    Derivative.FTA_OF: "1320",
}

KNOWN_BODIES = ("PC", "VC", "HS")


def normalize_text(text: str) -> str:
    """Uppercase and collapse runs of whitespace. Used for raw-string keys."""
    return " ".join(text.upper().split())


@dataclass(frozen=True)
class ChargeCode:
    """One parsed statute reference.

    ``raw`` keeps the string exactly as ingested (including any tokens the
    parser did not understand) and is excluded from equality, so two codes
    compare equal whenever their parsed components agree.  The hash is that
    of ``normalized``, which equal codes share.
    """

    statute: str
    subdivisions: tuple[str, ...] = ()
    code_body: str = ""  # "" = unspecified; "PC"/"VC"/"HS" or another body token
    charge_class: ChargeClass = ChargeClass.UNSPECIFIED
    degree: int | None = None
    derivative: Derivative = Derivative.NONE
    raw: str = field(default="", compare=False)

    def __post_init__(self):
        if self.degree is not None and self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")

    def __hash__(self) -> int:
        return hash(self.normalized)

    @cached_property
    def normalized(self) -> str:
        """Canonical text form; re-parsing it yields an equal ChargeCode."""
        head = ""
        if self.derivative is not Derivative.NONE:
            head = CANONICAL_PREFIX[self.derivative] + "/"
        parts = [head + self.statute + "".join(f"({s})" for s in self.subdivisions)]
        if self.code_body:
            parts.append(self.code_body)
        if self.charge_class is not ChargeClass.UNSPECIFIED:
            parts.append(self.charge_class.value)
        if self.degree is not None:
            parts.append(str(self.degree))
        return " ".join(parts)

    @cached_property
    def text_key(self) -> str:
        """The raw string uppercased with whitespace collapsed (``normalized``
        when there is no raw string).  Linkage keys on it rather than on the
        parsed structure, so parser policy cannot change which records are
        duplicates or which cases contain a charge."""
        return normalize_text(self.raw) or self.normalized

    @property
    def base(self) -> "ChargeCode":
        """The underlying offense, with any derivative form stripped."""
        if self.derivative is Derivative.NONE:
            return self
        return replace(self, derivative=Derivative.NONE)

    def is_felony(self) -> bool:
        return self.charge_class is ChargeClass.FELONY

    def is_misdemeanor(self) -> bool:
        return self.charge_class is ChargeClass.MISDEMEANOR


_PREFIX_RE = re.compile(r"(\d+(?:\.\d+)?[A-Z]?)\s*/\s*(?=\d)")
_STATUTE_RE = re.compile(r"(\d+(?:\.\d+)?)([A-Z](?![A-Z]))?")
_SPACED_SUFFIX_RE = re.compile(r" ([A-Z])(?=\()")
_SUBDIV_RE = re.compile(r"\s*\(([A-Z0-9]+)\)")
_TOKEN_RE = re.compile(r"\s*(\S+)")
_DEGREE_RE = re.compile(r"[1-9]")


def parse_charge_code(
    text: str,
    derivative_prefixes: Mapping[str, Derivative] | None = None,
) -> ChargeCode:
    """Parse one charge string.

    Unknown trailing tokens are preserved only in ``raw``.  Raises
    ``ParseError`` when no leading statute number can be found, which
    signals a malformed input row.
    """
    prefixes = DEFAULT_DERIVATIVE_PREFIXES if derivative_prefixes is None else derivative_prefixes
    s = normalize_text(text)
    if not s:
        raise ParseError("empty charge string")

    pos = 0
    derivative = Derivative.NONE
    m = _PREFIX_RE.match(s)
    if m and m.group(1) in prefixes:
        derivative = prefixes[m.group(1)]
        pos = m.end()

    m = _STATUTE_RE.match(s, pos)
    if not m:
        raise ParseError(f"no leading statute number in {text!r}")
    statute = m.group(1) + (m.group(2) or "")
    pos = m.end()
    sm = _SPACED_SUFFIX_RE.match(s, pos)
    if sm:
        statute += sm.group(1)
        pos = sm.end()

    subdivisions: list[str] = []
    body = ""
    charge_class = ChargeClass.UNSPECIFIED
    degree: int | None = None
    while pos < len(s):
        m = _SUBDIV_RE.match(s, pos)
        if m:
            subdivisions.append(m.group(1))
            pos = m.end()
            continue
        m = _TOKEN_RE.match(s, pos)
        tok = m.group(1)
        pos = m.end()
        if tok in KNOWN_BODIES and not body:
            body = tok
        elif tok in ("M", "F") and charge_class is ChargeClass.UNSPECIFIED:
            charge_class = ChargeClass(tok)
        elif degree is None and _DEGREE_RE.fullmatch(tok):
            degree = int(tok)
        elif not body and re.fullmatch(r"[A-Z]{2,}", tok):
            body = tok
        # anything else is an unknown trailing token, kept in raw only

    return ChargeCode(
        statute=statute,
        subdivisions=tuple(subdivisions),
        code_body=body,
        charge_class=charge_class,
        degree=degree,
        derivative=derivative,
        raw=text,
    )


def matches(charge: ChargeCode, pattern: ChargeCode) -> bool:
    """True when ``pattern`` covers ``charge``.

    A pattern is a (possibly partial) charge code: unspecified pattern
    components (empty body, Unspecified class, missing degree, no
    subdivisions) match anything; specified ones must agree.  Pattern
    subdivisions must be a prefix of the charge's, so ``220`` covers
    ``220(A)(1)``.  A charge with an unspecified body matches a pattern
    that names one, but a charge with an unspecified class never matches
    a pattern that requires F or M.
    """
    if charge.derivative is not pattern.derivative:
        return False
    if charge.statute != pattern.statute:
        return False
    if pattern.subdivisions and charge.subdivisions[: len(pattern.subdivisions)] != pattern.subdivisions:
        return False
    if pattern.code_body and charge.code_body and pattern.code_body != charge.code_body:
        return False
    if pattern.charge_class is not ChargeClass.UNSPECIFIED and charge.charge_class is not pattern.charge_class:
        return False
    if pattern.degree is not None and charge.degree != pattern.degree:
        return False
    return True


CATEGORIES = ("violent", "exclusion", "bumpup", "weapon_ambiguous")


@dataclass(frozen=True)
class CatalogEntry:
    pattern: ChargeCode
    category: str
    treat_as_bumpup: bool = False  # only meaningful for weapon_ambiguous


class ChargeFacts(NamedTuple):
    """One charge's membership in the catalog's lists."""

    violent: bool
    exclusion: bool
    bumpup: bool


class ChargeCatalog:
    """Membership oracle over the violent, exclusion, and bump-up lists.

    The lists do not change after construction.  Each distinct charge is
    classified against them once, on first query, and its facts are
    memoized in this catalog instance.

    Exclusion and bump-up membership is derivative-blind: an attempt,
    conspiracy, solicitation, or FTA form of a listed offense counts the
    same as the base offense.  Violent membership matches the charge as
    written (the violent list names its derivative forms explicitly)
    unless ``violent_includes_derivatives`` is set, in which case the base
    offense is also consulted.

    Charges in the weapon-use grey zone (imitation or merely carried
    firearms) carry a per-pattern policy flag saying whether they count
    as bump-ups; the shipped default is the stricter reading (they do not).
    """

    def __init__(
        self,
        entries: Iterable[CatalogEntry],
        *,
        violent_includes_derivatives: bool = False,
        derivative_prefixes: Mapping[str, Derivative] | None = None,
    ):
        self.entries = tuple(entries)
        self.violent_includes_derivatives = violent_includes_derivatives
        self.derivative_prefixes = dict(DEFAULT_DERIVATIVE_PREFIXES)
        if derivative_prefixes:
            self.derivative_prefixes.update(derivative_prefixes)
        self._by_category: dict[str, dict[str, list[CatalogEntry]]] = {c: {} for c in CATEGORIES}
        for e in self.entries:
            if e.category not in CATEGORIES:
                raise ConfigError(f"unknown catalog category {e.category!r}")
            self._by_category[e.category].setdefault(e.pattern.statute, []).append(e)
        self._facts: dict[ChargeCode, ChargeFacts] = {}

    def _member(self, category: str, charge: ChargeCode) -> bool:
        for e in self._by_category[category].get(charge.statute, ()):
            if matches(charge, e.pattern):
                return True
        return False

    def _classify(self, charge: ChargeCode) -> ChargeFacts:
        base = charge.base
        violent = self._member("violent", charge) or (
            self.violent_includes_derivatives
            and charge.derivative is not Derivative.NONE
            and self._member("violent", base)
        )
        bumpup = self._member("bumpup", base) or any(
            e.treat_as_bumpup and matches(base, e.pattern)
            for e in self._by_category["weapon_ambiguous"].get(base.statute, ())
        )
        return ChargeFacts(violent=violent, exclusion=self._member("exclusion", base), bumpup=bumpup)

    def facts(self, charge: ChargeCode) -> ChargeFacts:
        """The charge's violent, exclusion and bump-up membership."""
        found = self._facts.get(charge)
        if found is None:
            found = self._facts[charge] = self._classify(charge)
        return found

    def is_violent(self, charge: ChargeCode) -> bool:
        return self.facts(charge).violent

    def is_exclusion_charge(self, charge: ChargeCode) -> bool:
        return self.facts(charge).exclusion

    def is_bumpup_charge(self, charge: ChargeCode) -> bool:
        return self.facts(charge).bumpup

    @classmethod
    def from_dict(cls, doc: dict) -> "ChargeCatalog":
        _require_keys(doc, {"violent_includes_derivatives", "derivative_prefixes", "patterns"},
                      {"patterns"}, "catalog")
        prefixes = dict(DEFAULT_DERIVATIVE_PREFIXES)
        for key, name in (doc.get("derivative_prefixes") or {}).items():
            try:
                prefixes[str(key).upper()] = Derivative(name)
            except ValueError:
                raise ConfigError(f"unknown derivative kind {name!r} for prefix {key!r}") from None
        raw_patterns = doc["patterns"]
        if not isinstance(raw_patterns, list) or not raw_patterns:
            raise ConfigError("catalog needs a non-empty 'patterns' list")
        entries = []
        for i, item in enumerate(raw_patterns):
            _require_keys(item, {"pattern", "category", "note", "treat_as_bumpup"}, {"pattern", "category"},
                          f"patterns[{i}]")
            category = item["category"]
            if category not in CATEGORIES:
                raise ConfigError(f"patterns[{i}] has invalid category {category!r}")
            if "treat_as_bumpup" in item and category != "weapon_ambiguous":
                raise ConfigError(f"patterns[{i}]: treat_as_bumpup only applies to weapon_ambiguous")
            try:
                pattern = parse_charge_code(str(item["pattern"]), prefixes)
            except ParseError as exc:
                raise ConfigError(f"patterns[{i}]: {exc}") from None
            entries.append(
                CatalogEntry(
                    pattern=pattern,
                    category=category,
                    treat_as_bumpup=bool(item.get("treat_as_bumpup", False)),
                )
            )
        return cls(
            entries,
            violent_includes_derivatives=bool(doc.get("violent_includes_derivatives", False)),
            derivative_prefixes=prefixes,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ChargeCatalog":
        doc = read_config(path)
        try:
            return cls.from_dict(doc)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def data_path(name: str) -> Path:
    """Path to a packaged default config file."""
    return Path(__file__).parent / "data" / name


def read_config(path: str | Path) -> dict:
    """The top-level mapping of a YAML config file.  A file that cannot be
    read, is not valid YAML or holds anything but a mapping is a
    ConfigError naming the file."""
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"{path}: not valid YAML{where}: {detail}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must contain a mapping")
    return doc


def _require_keys(doc, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


@lru_cache(maxsize=None)
def default_catalog() -> ChargeCatalog:
    return ChargeCatalog.from_file(data_path("charge_catalog.yaml"))
