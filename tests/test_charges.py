import re

import pytest
import yaml
from hypothesis import given, strategies as st

from psa_audit import charges
from psa_audit.charges import (
    CatalogEntry,
    ChargeCatalog,
    ChargeClass,
    ChargeCode,
    Derivative,
    data_path,
    default_catalog,
    matches,
    normalize_text,
    parse_charge_code,
    read_config,
)
from psa_audit.errors import ConfigError, ParseError
from psa_audit.synth import DEFAULT_CHARGE_POOLS


def with_weapon_bumpup(cat, pattern_text):
    """A catalog of ``cat``'s entries in which the weapon-ambiguous
    ``pattern_text`` counts as a bump-up."""
    target = parse_charge_code(pattern_text, cat.derivative_prefixes)
    entries = [
        CatalogEntry(e.pattern, e.category, treat_as_bumpup=True)
        if e.category == "weapon_ambiguous" and e.pattern == target else e
        for e in cat.entries
    ]
    assert entries != list(cat.entries)
    return ChargeCatalog(entries, violent_includes_derivatives=cat.violent_includes_derivatives,
                         derivative_prefixes=cat.derivative_prefixes)


def test_parse_full_form():
    c = parse_charge_code("187(A) PC F 1")
    assert c.statute == "187"
    assert c.subdivisions == ("A",)
    assert c.code_body == "PC"
    assert c.charge_class is ChargeClass.FELONY
    assert c.degree == 1
    assert c.derivative is Derivative.NONE
    assert c.raw == "187(A) PC F 1"


def test_parse_attempt_prefix():
    c = parse_charge_code("664/288 (A) PC F")
    assert c.derivative is Derivative.ATTEMPT
    assert c.statute == "288"
    assert c.subdivisions == ("A",)
    assert c.charge_class is ChargeClass.FELONY
    assert c.degree is None


def test_parse_empty_raises():
    with pytest.raises(ParseError):
        parse_charge_code("")
    with pytest.raises(ParseError):
        parse_charge_code("   ")


def test_parse_no_statute_raises():
    with pytest.raises(ParseError):
        parse_charge_code("PC F")


@given(st.text())
def test_parse_arbitrary_text_returns_or_raises_parse_error(text):
    # readers treat ParseError as a row diagnostic; anything else is a bug
    try:
        parse_charge_code(text)
    except ParseError:
        pass


@pytest.mark.parametrize(
    "text, statute, subdivs, body, cls",
    [
        ("203PC F", "203", (), "PC", ChargeClass.FELONY),
        ("140(a) M", "140", ("A",), "", ChargeClass.MISDEMEANOR),
        ("151", "151", (), "", ChargeClass.UNSPECIFIED),
        ("273 A(B) PC M", "273A", ("B",), "PC", ChargeClass.MISDEMEANOR),
        ("288 A(A) PC F", "288A", ("A",), "PC", ChargeClass.FELONY),
        ("653F(B) PC F", "653F", ("B",), "PC", ChargeClass.FELONY),
        ("241.4 M  F", "241.4", (), "", ChargeClass.MISDEMEANOR),
        ("368(b)(2)(B) PC F", "368", ("B", "2", "B"), "PC", ChargeClass.FELONY),
        ("220 (A)(1) PC F", "220", ("A", "1"), "PC", ChargeClass.FELONY),
        ("18755 (a) F", "18755", ("A",), "", ChargeClass.FELONY),
        ("4500 F", "4500", (), "", ChargeClass.FELONY),
        ("10851(A) VC F", "10851", ("A",), "VC", ChargeClass.FELONY),
        ("11350(A) HS M", "11350", ("A",), "HS", ChargeClass.MISDEMEANOR),
    ],
)
def test_parse_corpus_shapes(text, statute, subdivs, body, cls):
    c = parse_charge_code(text)
    assert c.statute == statute
    assert c.subdivisions == subdivs
    assert c.code_body == body
    assert c.charge_class is cls


def test_unknown_prefix_is_not_a_derivative():
    # 602 is not a derivative prefix; the leading number is the statute and
    # the rest survives only in raw.
    c = parse_charge_code("602/187 PC")
    assert c.derivative is Derivative.NONE
    assert c.statute == "602"
    assert c.raw == "602/187 PC"


def test_catalog_fixture_corpus_parses_totally():
    cat = default_catalog()
    assert len(cat.entries) > 60
    for entry in cat.entries:
        # from_file already parsed them; re-parse the normalized form too
        reparsed = parse_charge_code(entry.pattern.normalized, cat.derivative_prefixes)
        assert reparsed == entry.pattern


def test_normalized_roundtrip_on_corpus():
    cat = default_catalog()
    for entry in cat.entries:
        c = entry.pattern
        assert parse_charge_code(normalize_text(c.raw) or c.normalized, cat.derivative_prefixes) == c


_statutes = st.from_regex(r"[1-9][0-9]{0,4}(\.[0-9]{1,2})?[A-Z]?", fullmatch=True)
_subdivs = st.lists(st.from_regex(r"[A-Z0-9]{1,2}", fullmatch=True), max_size=3)
_bodies = st.sampled_from(["", "PC", "VC", "HS", "WI", "BP"])
_classes = st.sampled_from(list(ChargeClass))
_degrees = st.one_of(st.none(), st.integers(min_value=1, max_value=9))
_derivatives = st.sampled_from(list(Derivative))


@given(_statutes, _subdivs, _bodies, _classes, _degrees, _derivatives)
def test_normalized_roundtrip_property(statute, subdivs, body, cls, degree, derivative):
    c = ChargeCode(
        statute=statute,
        subdivisions=tuple(subdivs),
        code_body=body,
        charge_class=cls,
        degree=degree,
        derivative=derivative,
    )
    assert parse_charge_code(c.normalized) == c
    assert hash(parse_charge_code(c.normalized)) == hash(c)


def test_raw_excluded_from_equality():
    a = parse_charge_code("664/288 (A) PC F")
    b = parse_charge_code("664/288(A)  PC F")
    assert a == b
    assert a.raw != b.raw
    assert hash(a) == hash(b)


def test_spellings_of_one_charge_are_equal_and_hash_equal_but_keep_their_raw_text():
    a = parse_charge_code("187(a)  pc f 1")
    b = parse_charge_code("187(A) PC F 1")
    assert a == b and hash(a) == hash(b)
    assert (a.raw, b.raw) == ("187(a)  pc f 1", "187(A) PC F 1")
    assert len({a, b}) == 1
    assert a.text_key == b.text_key == "187(A) PC F 1"


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        ChargeCode(statute="187", degree=0)


class TestMembership:
    def setup_method(self):
        self.cat = default_catalog()

    def q(self, text):
        return parse_charge_code(text, self.cat.derivative_prefixes)

    def test_violent_examples(self):
        assert self.cat.is_violent(self.q("211 PC F 1"))
        assert self.cat.is_violent(self.q("240 PC M"))
        assert not self.cat.is_violent(self.q("9999 PC M"))

    def test_violent_listed_attempt_form(self):
        assert self.cat.is_violent(self.q("664/288 (A) PC F"))
        # base offense of an unlisted attempt is not consulted by default
        assert not self.cat.is_violent(self.q("664/187(A) PC F"))

    def test_exclusion_examples(self):
        assert self.cat.is_exclusion_charge(self.q("187(A) PC F"))
        assert self.cat.is_exclusion_charge(self.q("664/187(A) PC F"))
        assert not self.cat.is_exclusion_charge(self.q("240 PC M"))

    def test_exclusion_all_derivative_kinds(self):
        for prefix in ("664", "182", "653F", "1320"):
            assert self.cat.is_exclusion_charge(self.q(f"{prefix}/187(A) PC F"))

    def test_bumpup_examples(self):
        assert self.cat.is_bumpup_charge(self.q("273.5(A) PC M"))
        assert not self.cat.is_bumpup_charge(self.q("9999 PC M"))

    def test_weapon_ambiguous_policy_default_false(self):
        assert not self.cat.is_bumpup_charge(self.q("417.4 PC"))
        assert not self.cat.is_bumpup_charge(self.q("25850(A) PC"))

    def test_weapon_ambiguous_policy_flip(self):
        permissive = with_weapon_bumpup(self.cat, "417.4 PC")
        assert permissive.is_bumpup_charge(self.q("417.4 PC"))
        # the other grey-zone entry is untouched
        assert not permissive.is_bumpup_charge(self.q("25850(A) PC"))

    def test_felony_vs_misdemeanor_domestic_violence(self):
        assert self.cat.is_exclusion_charge(self.q("273.5(A) PC F"))
        assert not self.cat.is_exclusion_charge(self.q("273.5(A) PC M"))
        assert self.cat.is_bumpup_charge(self.q("273.5(A) PC M"))
        assert not self.cat.is_bumpup_charge(self.q("273.5(A) PC F"))

    def test_unspecified_class_never_matches_classed_pattern(self):
        assert not self.cat.is_exclusion_charge(self.q("273.5(A) PC"))

    def test_derivative_equivalence_property(self):
        bases = ["187(A) PC F", "211 PC F", "273.5(A) PC M", "459 PC F", "240 PC M", "646.9 PC M"]
        for text in bases:
            base = self.q(text)
            for prefix in ("664", "182", "653F", "1320"):
                deriv = self.q(f"{prefix}/{text}")
                assert deriv.derivative is not Derivative.NONE
                assert self.cat.is_exclusion_charge(deriv) == self.cat.is_exclusion_charge(base)
                assert self.cat.is_bumpup_charge(deriv) == self.cat.is_bumpup_charge(base)

    def test_membership_is_pure(self):
        c = self.q("187(A) PC F")
        assert [self.cat.is_exclusion_charge(c) for _ in range(3)] == [True] * 3


def _scan(catalog, charge):
    """Membership by the documented rules, scanning every catalog entry."""

    def listed(category, c):
        return [e for e in catalog.entries if e.category == category and matches(c, e.pattern)]

    base = charge.base
    violent = bool(listed("violent", charge)) or (
        catalog.violent_includes_derivatives
        and charge.derivative is not Derivative.NONE
        and bool(listed("violent", base))
    )
    bumpup = bool(listed("bumpup", base)) or any(e.treat_as_bumpup for e in listed("weapon_ambiguous", base))
    return violent, bool(listed("exclusion", base)), bumpup


def test_catalog_facts_agree_with_a_scan_of_every_entry():
    cat = default_catalog()
    texts = [e.pattern.normalized for e in cat.entries]
    texts += [f"{prefix}/{e.pattern.base.normalized}" for e in cat.entries
              for prefix in ("664", "182", "653F", "1320")]
    texts += [t for pool in DEFAULT_CHARGE_POOLS.values() for t in pool]
    inclusive = ChargeCatalog(cat.entries, violent_includes_derivatives=True,
                              derivative_prefixes=cat.derivative_prefixes)
    for catalog in (cat, inclusive):
        for text in texts:
            c = parse_charge_code(text, catalog.derivative_prefixes)
            asked = (catalog.is_violent(c), catalog.is_exclusion_charge(c), catalog.is_bumpup_charge(c))
            assert asked == _scan(catalog, c), text
    # the flag changes some answer, so both branches of the violent rule ran
    attempt = parse_charge_code("664/187(A) PC F", cat.derivative_prefixes)
    assert not cat.is_violent(attempt) and inclusive.is_violent(attempt)


def test_catalog_copies_do_not_share_memoized_facts():
    cat = default_catalog()
    grey = parse_charge_code("417.4 PC", cat.derivative_prefixes)
    assert not cat.is_bumpup_charge(grey)  # memoized in the default catalog
    permissive = with_weapon_bumpup(cat, "417.4 PC")
    assert permissive.is_bumpup_charge(grey)
    assert not cat.is_bumpup_charge(grey)


def test_pattern_subdivision_prefix_semantics():
    broad = parse_charge_code("220 PC")
    assert matches(parse_charge_code("220(A)(1) PC F"), broad)
    narrow = parse_charge_code("187(A) PC")
    assert not matches(parse_charge_code("187(B) PC F"), narrow)
    assert not matches(parse_charge_code("187 PC F"), narrow)


def test_catalog_rejects_bad_category():
    from psa_audit.charges import ChargeCatalog

    with pytest.raises(ConfigError):
        ChargeCatalog.from_dict({"patterns": [{"pattern": "187 PC", "category": "nope"}]})
    with pytest.raises(ConfigError):
        ChargeCatalog.from_dict({"patterns": [{"pattern": "187 PC", "category": "violent", "treat_as_bumpup": True}]})
    with pytest.raises(ConfigError):
        ChargeCatalog.from_dict({"patterns": []})


def _catalog_file(tmp_path, extra):
    """A catalog file of one exclusion pattern and the lines of ``extra``."""
    path = tmp_path / "catalog.yaml"
    path.write_text(extra + '\npatterns:\n  - {pattern: "187(A) PC", category: exclusion}\n'
                    '  - {pattern: "417.4 PC", category: weapon_ambiguous, treat_as_bumpup: false}\n',
                    encoding="utf-8")
    return path


def test_catalog_flags_must_be_yaml_booleans(tmp_path):
    grey = parse_charge_code("417.4 PC")
    strict = ChargeCatalog.from_file(_catalog_file(tmp_path, "violent_includes_derivatives: false"))
    assert not strict.is_bumpup_charge(grey)
    for extra, key in (('violent_includes_derivatives: "false"', "violent_includes_derivatives"),
                       ("violent_includes_derivatives: 0", "violent_includes_derivatives"),
                       ("violent_includes_derivatives:", "violent_includes_derivatives")):
        path = _catalog_file(tmp_path, extra)
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: .*{key} must be true or false"):
            ChargeCatalog.from_file(path)
    path = _catalog_file(tmp_path, "")
    path.write_text(path.read_text(encoding="utf-8").replace("treat_as_bumpup: false", 'treat_as_bumpup: "false"'),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: patterns\[1\]: treat_as_bumpup must be"):
        ChargeCatalog.from_file(path)


def test_catalog_prefix_keys_name_a_statute_without_its_slash(tmp_path):
    for key in ("600/", "600 /", "/600", "600(A)", "x"):
        path = _catalog_file(tmp_path, f'derivative_prefixes: {{"{key}": conspiracy}}')
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: derivative prefix '{re.escape(key)}'"):
            ChargeCatalog.from_file(path)
    # a key without its slash applies, in either case
    cat = ChargeCatalog.from_file(_catalog_file(tmp_path, 'derivative_prefixes: {"600": conspiracy, "77b": attempt}'))
    for text, kind in (("600/187(A) PC F", Derivative.CONSPIRACY), ("77B/187(A) PC F", Derivative.ATTEMPT)):
        charge = parse_charge_code(text, cat.derivative_prefixes)
        assert charge.derivative is kind and charge.statute == "187"
        assert cat.is_exclusion_charge(charge)


#: The YAML loaders this PyYAML offers: libyaml's only when it was built with it.
_LOADERS = [name for name in ("SafeLoader", "CSafeLoader") if hasattr(yaml, name)]


@pytest.mark.parametrize("loader", _LOADERS)
def test_each_yaml_loader_reads_the_configs_alike_and_places_a_syntax_error(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(charges, "_YAML_LOADER", getattr(yaml, loader))
    for name in ("charge_catalog.yaml", "dmf.yaml", "weights.yaml"):
        assert read_config(data_path(name)) == yaml.safe_load(data_path(name).read_text(encoding="utf-8"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("n_records: [50\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"not valid YAML at line 2, column 1: "):
        read_config(bad)
