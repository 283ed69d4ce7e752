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
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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


_PREFIX_KEY_RE = re.compile(r"\d+(?:\.\d+)?[A-Z]?")
_PREFIX_RE = re.compile(rf"({_PREFIX_KEY_RE.pattern})\s*/\s*(?=\d)")
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
    """What the engine reads of a charge set: the least (normalized)
    violent, exclusion-listed and bump-up-listed charge text, or None,
    and whether any charge is a felony or a violent misdemeanor.  A
    charge's own facts are those of the set holding it alone, and a set's
    are its charges' facts folded together, so neither the order of a set
    nor a repeated charge changes them."""

    violent: str | None
    exclusion: str | None
    bumpup: str | None
    felony_or_violent_misdemeanor: bool


_normalized = attrgetter("normalized")

#: The most charge-text tuples whose facts a catalog keeps: the first it
#: meets.  The seeded 100k audit's first 2,048 of 5,738 distinct tuples
#: answer 87% of its lookups; full, the memo holds about 0.4 MB.
_SET_MEMO_SIZE = 2048


class ChargeCatalog:
    """Membership oracle over the violent, exclusion, and bump-up lists.

    The lists do not change after construction.  Each distinct charge text
    is classified against them once, on first query, and its facts are
    memoized in this catalog instance under its normalized text, which
    equal charges share.  The facts of a charge set are its charges'
    facts folded together, memoized under the tuple of its charges' texts
    for the first ``_SET_MEMO_SIZE`` tuples asked about.  Each loaded
    config has its own catalog, so no memo outlives the run that filled it.

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
        self._facts: dict[str, ChargeFacts] = {}
        self._set_facts: dict[tuple[str, ...], ChargeFacts] = {}
        # (last tuple, its facts), set in one step: racing threads cost each other a lookup, never
        # wrong facts.  Holding the tuple keeps its id from reuse.  It starts as None: () is shared.
        self._last: tuple = (None, None)

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
        text = charge.normalized
        return ChargeFacts(text if violent else None, text if self._member("exclusion", base) else None,
                           text if bumpup else None, charge.is_felony() or (violent and charge.is_misdemeanor()))

    def facts(self, charge: ChargeCode) -> ChargeFacts:
        """The facts of ``charge`` alone: its violent, exclusion and
        bump-up membership, each as its normalized text or None."""
        found = self._facts.get(charge.normalized)
        if found is None:
            found = self._facts[charge.normalized] = self._classify(charge)
        return found

    def facts_of(self, charges: Sequence[ChargeCode]) -> ChargeFacts:
        """The facts of the set of ``charges``, reused for the tuple object
        asked about last.  A list is copied, so it is always read anew."""
        last, found = self._last
        if charges is not last:
            charges = tuple(charges)
            found = self._lookup(charges)
            self._last = (charges, found)
        return found

    def _lookup(self, charges: tuple[ChargeCode, ...]) -> ChargeFacts:
        """The facts of ``charges``, memoized or folded.  Threads racing past
        the bound's check may store a few tuples more, changing no answer."""
        texts = tuple(map(_normalized, charges))
        found = self._set_facts.get(texts)
        if found is None:
            found = self._fold(texts, charges)
            if len(self._set_facts) < _SET_MEMO_SIZE:
                self._set_facts[texts] = found
        return found

    def _fold(self, texts: tuple[str, ...], charges: Sequence[ChargeCode]) -> ChargeFacts:
        each = list(map(self._facts.get, texts))
        if None in each:
            each = list(map(self.facts, charges))
        if len(each) == 1:
            return each[0]
        violent = exclusion = bumpup = None
        top = False
        for v, e, b, t in each:
            if v is not None and (violent is None or v < violent):
                violent = v
            if e is not None and (exclusion is None or e < exclusion):
                exclusion = e
            if b is not None and (bumpup is None or b < bumpup):
                bumpup = b
            top = top or t
        return ChargeFacts(violent, exclusion, bumpup, top)

    # perfbench calls these three by name, and its tracer wraps them on the class
    def is_violent(self, charge: ChargeCode) -> bool:
        return self.facts(charge).violent is not None

    def is_exclusion_charge(self, charge: ChargeCode) -> bool:
        return self.facts(charge).exclusion is not None

    def is_bumpup_charge(self, charge: ChargeCode) -> bool:
        return self.facts(charge).bumpup is not None

    @classmethod
    def from_dict(cls, doc: dict) -> "ChargeCatalog":
        _require_keys(doc, {"violent_includes_derivatives", "derivative_prefixes", "patterns"},
                      {"patterns"}, "catalog")
        prefixes = dict(DEFAULT_DERIVATIVE_PREFIXES)
        for key, name in (doc.get("derivative_prefixes") or {}).items():
            prefix = str(key).upper()
            if not _PREFIX_KEY_RE.fullmatch(prefix):
                raise ConfigError(f"derivative prefix {key!r} must be a statute without its slash, such as '664'")
            try:
                prefixes[prefix] = Derivative(name)
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
                    treat_as_bumpup=_flag(item, "treat_as_bumpup", f"patterns[{i}]"),
                )
            )
        return cls(
            entries,
            violent_includes_derivatives=_flag(doc, "violent_includes_derivatives", "catalog"),
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


#: libyaml's safe loader where PyYAML has it: SafeLoader's constructor and
#: resolver, so the same values, parsed about seven times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_config(path: str | Path) -> dict:
    """The top-level mapping of a YAML config file.  A file that cannot be
    read, is not valid YAML or holds anything but a mapping is a
    ConfigError naming the file."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_YAML_LOADER)
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


def _flag(doc: dict, key: str, where: str) -> bool:
    """``doc[key]`` when it is a YAML boolean, False when it is absent."""
    value = doc.get(key, False)
    if type(value) is not bool:
        raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
    return value


def _require_keys(doc, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def default_catalog() -> ChargeCatalog:
    """The packaged catalog, made anew, so that its memos start empty."""
    return ChargeCatalog.from_file(data_path("charge_catalog.yaml"))
