"""Sortie identifier grammars: parse, validate, canonically format.

Four labeling families occur on the archive's boxes. Three are regular and
parseable; pre-standardization USAAF labels are stored raw and accepted
only when the caller says that is what they are holding.

A regular family is a record with a full-string `pattern` and a
`canonical()` text. The grammar checks the tokens of a parsed id, and
`from_groups` fills the record from them without checking them again; only
a number below 1 goes through the validated constructor, for its error.
`__post_init__` checks a record built directly. The three families are
mutually exclusive, so no string is ambiguous: a commercial survey has four
segments and the other two have three, and a contract's middle segment is
two letters where a military service has at least three. So `58/RN/0456`
is contract imagery and never a military mission. `parse` relies on this:
it full-matches one alternation of the three patterns and reads the family
from the alternative that matched. Canonical formatting zero-pads film and
mission numbers to four digits; parsing accepts them with or without
padding.

A record holds the one shared string of its country code: `_COUNTRY_CODES`
builds each of the 676 codes the grammar allows once, so 1.7 M ids over
the archive's 65 countries keep 65 code strings, not a 51-byte copy each.
Only identity is shared; values, hashes and texts are unchanged. Units,
services and companies are open vocabularies and stay the caller's
strings: sharing them would take a cache that grows with its input.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass, fields
from typing import Union

from .errors import ParseError

# Segment tokens. Family patterns are built from them; records check their
# text fields with the compiled ones, their country code against
# `_COUNTRY_CODES` and their numbers by type and value.
_DIGITS = "[0-9]+"
_YEAR = "[0-9]{2}"
_COUNTRY = "[A-Z]{2}"
# every code `_COUNTRY` allows, each its own key and value
_COUNTRY_CODES = {
    code: code for code in (a + b for a in string.ascii_uppercase for b in string.ascii_uppercase)
}
_UNIT_TOKEN = re.compile("[A-Z0-9]+")
# Three letters minimum keeps military strings apart from contract imagery,
# whose middle segment is exactly two letters.
_SERVICE_TOKEN = re.compile("[A-Z]{3,}")
_COMPANY_TOKEN = re.compile("[A-Z]+")


def _validate_token(rule: str, token: re.Pattern, value: str) -> None:
    if not (isinstance(value, str) and token.fullmatch(value)):
        raise ParseError(f"{rule}, got {value!r}")


def _shared_country_code(value: str) -> str:
    """The table's own string for the code `value`, which records store."""
    code = _COUNTRY_CODES.get(value) if isinstance(value, str) else None
    if code is None:
        raise ParseError(f"country code must be two uppercase letters, got {value!r}")
    return code


def _validate_int(name: str, value: int) -> None:
    # a bool, float or string would not format to this record's canonical text
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r}")


def _validate_positive(name: str, value: int) -> None:
    _validate_int(name, value)
    if value < 1:
        raise ParseError(f"{name} must be a positive integer, got {value}")


def _slot_setters(cls) -> tuple:
    """The `__set__` of each of `cls`'s field slots, in field order. They
    fill an `object.__new__(cls)` past the frozen `__setattr__` and
    `__post_init__`, so only values the grammar has checked go through them."""
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))


class _SortieRecord:
    """A sortie id is written with a leading `variant` tag, then its fields,
    then the properties named in `derived`. It is never read back, so it
    has no JSON decoder."""

    __slots__ = ()
    derived = ()

    def to_json_dict(self) -> dict:
        out = {"variant": self.variant}
        out.update((f.name, getattr(self, f.name)) for f in fields(self))
        out.update((name, getattr(self, name)) for name in self.derived)
        return out


@dataclass(frozen=True, slots=True)
class DosContract(_SortieRecord):
    """Government contract imagery: contract/country/film."""

    contract_number: int
    country_code: str
    film_number: int

    variant = "dos_contract"
    expects = "contract digits/two-letter country/film digits"
    pattern = re.compile(f"({_DIGITS})/({_COUNTRY})/({_DIGITS})")

    @classmethod
    def from_groups(cls, contract: str, country: str, film: str) -> DosContract:
        contract_number, film_number = int(contract), int(film)
        if contract_number < 1 or film_number < 1:
            return cls(contract_number, country, film_number)
        record = object.__new__(cls)
        set_contract, set_country, set_film = _DOS_CONTRACT_SLOTS
        set_contract(record, contract_number)
        set_country(record, _COUNTRY_CODES[country])
        set_film(record, film_number)
        return record

    def __post_init__(self) -> None:
        _validate_positive("contract number", self.contract_number)
        object.__setattr__(self, "country_code", _shared_country_code(self.country_code))
        _validate_positive("film number", self.film_number)

    def canonical(self) -> str:
        return "%s/%s/%04d" % (self.contract_number, self.country_code, self.film_number)


@dataclass(frozen=True, slots=True)
class MilitaryUnit(_SortieRecord):
    """Military mission imagery: unit/service/mission."""

    unit: str
    service: str
    mission_number: int

    variant = "military_unit"
    expects = "alphanumeric unit/service of three or more letters/mission digits"
    pattern = re.compile(f"({_UNIT_TOKEN.pattern})/({_SERVICE_TOKEN.pattern})/({_DIGITS})")

    @classmethod
    def from_groups(cls, unit: str, service: str, mission: str) -> MilitaryUnit:
        mission_number = int(mission)
        if mission_number < 1:
            return cls(unit, service, mission_number)
        record = object.__new__(cls)
        set_unit, set_service, set_mission = _MILITARY_UNIT_SLOTS
        set_unit(record, unit)
        set_service(record, service)
        set_mission(record, mission_number)
        return record

    def __post_init__(self) -> None:
        _validate_token("unit must be an uppercase alphanumeric token", _UNIT_TOKEN, self.unit)
        _validate_token(
            "service must be three or more uppercase letters", _SERVICE_TOKEN, self.service
        )
        _validate_positive("mission number", self.mission_number)

    def canonical(self) -> str:
        return "%s/%s/%04d" % (self.unit, self.service, self.mission_number)


@dataclass(frozen=True, slots=True)
class CommercialSurvey(_SortieRecord):
    """Commercial survey imagery: company/country/two-digit year/film."""

    company: str
    country_code: str
    year_two_digit: int
    film_number: int

    variant = "commercial_survey"
    derived = ("full_year",)
    expects = "company letters/two-letter country/two-digit year/film digits"
    pattern = re.compile(
        f"({_COMPANY_TOKEN.pattern})/({_COUNTRY})/({_YEAR})/({_DIGITS})"
    )

    @classmethod
    def from_groups(cls, company: str, country: str, year: str, film: str) -> CommercialSurvey:
        year_two_digit, film_number = int(year), int(film)
        if film_number < 1:
            return cls(company, country, year_two_digit, film_number)
        record = object.__new__(cls)
        set_company, set_country, set_year, set_film = _COMMERCIAL_SURVEY_SLOTS
        set_company(record, company)
        set_country(record, _COUNTRY_CODES[country])
        set_year(record, year_two_digit)
        set_film(record, film_number)
        return record

    def __post_init__(self) -> None:
        _validate_token("company must be an uppercase token", _COMPANY_TOKEN, self.company)
        object.__setattr__(self, "country_code", _shared_country_code(self.country_code))
        _validate_int("two-digit year", self.year_two_digit)
        if not 0 <= self.year_two_digit <= 99:
            raise ParseError(f"two-digit year must be 0-99, got {self.year_two_digit}")
        _validate_positive("film number", self.film_number)

    def canonical(self) -> str:
        return "%s/%s/%02d/%04d" % (
            self.company, self.country_code, self.year_two_digit, self.film_number
        )

    @property
    def full_year(self) -> int:
        # Two-digit years map to 19xx; the 2000-01 tail of the archive is
        # not representable without external metadata.
        return 1900 + self.year_two_digit


@dataclass(frozen=True, slots=True)
class UsArmyAirForce(_SortieRecord):
    """Pre-standardization USAAF label, kept as raw tokens.

    `standardized` records whether the tokens happen to follow the
    later military unit/service/mission shape.
    """

    raw: tuple[str, ...]
    standardized: bool

    variant = "us_army_air_force"

    def __post_init__(self) -> None:
        if not self.raw or any(not token for token in self.raw):
            raise ParseError("USAAF label must have non-empty tokens")

    def canonical(self) -> str:
        return "/".join(self.raw)


SortieId = Union[DosContract, MilitaryUnit, CommercialSurvey, UsArmyAirForce]

_DOS_CONTRACT_SLOTS = _slot_setters(DosContract)
_MILITARY_UNIT_SLOTS = _slot_setters(MilitaryUnit)
_COMMERCIAL_SURVEY_SLOTS = _slot_setters(CommercialSurvey)

# Mutually exclusive (see the module docstring), so at most one
# alternative of `_GRAMMAR` matches; each is a group named by its variant.
_FAMILIES = (DosContract, MilitaryUnit, CommercialSurvey)
_GRAMMAR = re.compile(
    "|".join(f"(?P<{family.variant}>{family.pattern.pattern})" for family in _FAMILIES)
)


def _token_slice(family) -> slice:
    """Where `family`'s tokens sit in a `_GRAMMAR` match's `groups()`: right
    after the group of its whole alternative."""
    start = _GRAMMAR.groupindex[family.variant]
    return slice(start, start + family.pattern.groups)


_ALTERNATIVES = {family.variant: (family, _token_slice(family)) for family in _FAMILIES}


def _record(match: re.Match):
    """The record that a `_GRAMMAR` match spells, or the error its numbers raise."""
    family, tokens = _ALTERNATIVES[match.lastgroup]
    try:
        return family.from_groups(*match.groups()[tokens])
    except ValueError as exc:  # a zero number, or one too long to convert
        return exc


def parse(text: str, usaaf: bool = False) -> SortieId:
    """Parse an identifier string into the one variant it spells.

    With `usaaf=True` the string is taken to be a pre-standardization
    USAAF label and stored raw; `standardized` reflects whether it
    happens to match the military grammar.
    """
    if not text:
        raise ParseError("empty identifier")
    match = _GRAMMAR.fullmatch(text)
    parsed = None if match is None else _record(match)
    if usaaf:
        return UsArmyAirForce(tuple(text.split("/")), isinstance(parsed, MilitaryUnit))
    if isinstance(parsed, _SortieRecord):
        return parsed
    segments = text.count("/") + 1
    if not 2 <= segments <= 4:
        raise ParseError(
            f"expected 2 to 4 slash-separated segments, got {segments} in {text!r}"
            " (pass usaaf=True for pre-standardization labels)"
        )
    reasons = {family.variant: f"expected {family.expects}" for family in _FAMILIES}
    if match is not None:
        reasons[match.lastgroup] = str(parsed)
    rules = "; ".join(f"{variant}: {reason}" for variant, reason in reasons.items())
    raise ParseError(f"no identifier grammar matched {text!r} (letters are uppercase A-Z): {rules}")


def canonical_format(sortie_id: SortieId) -> str:
    """Canonical identifier string; `parse` inverts it for every valid id."""
    return sortie_id.canonical()
