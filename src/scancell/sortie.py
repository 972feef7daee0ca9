"""Sortie identifier grammars: parse, validate, canonically format.

Four labeling families occur on the archive's boxes. Three are regular and
parseable; pre-standardization USAAF labels are stored raw and accepted
only when the caller says that is what they are holding.

A regular family is a record with a full-string `pattern` and a
`canonical()` text; only its `__post_init__` validates tokens. Parsing
precedence when a string is ambiguous: contract imagery, then military
missions, then commercial surveys. Canonical formatting zero-pads film and
mission numbers to four digits; parsing accepts them with or without
padding.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Union

from .errors import ParseError

# Segment tokens. Family patterns are built from them; records check their
# text fields with the compiled ones and their numbers by value.
_DIGITS = "[0-9]+"
_YEAR = "[0-9]{2}"
_COUNTRY_CODE = re.compile("[A-Z]{2}")
_UNIT_TOKEN = re.compile("[A-Z0-9]+")
# Three letters minimum keeps canonical military strings from re-parsing
# as contract imagery (which claims any digits/AA/digits string first).
_SERVICE_TOKEN = re.compile("[A-Z]{3,}")
_COMPANY_TOKEN = re.compile("[A-Z]+")


def _validate_token(rule: str, token: re.Pattern, value: str) -> None:
    if not token.fullmatch(value):
        raise ParseError(f"{rule}, got {value!r}")


def _validate_positive(name: str, value: int) -> None:
    if value < 1:
        raise ParseError(f"{name} must be a positive integer, got {value}")


class _SortieRecord:
    """A sortie id is written with a leading `variant` tag, then its fields,
    then the properties named in `derived`. It is never read back, so it
    has no JSON decoder."""

    derived = ()

    def to_json_dict(self) -> dict:
        out = {"variant": self.variant}
        out.update((f.name, getattr(self, f.name)) for f in fields(self))
        out.update((name, getattr(self, name)) for name in self.derived)
        return out


@dataclass(frozen=True)
class DosContract(_SortieRecord):
    """Government contract imagery: contract/country/film."""

    contract_number: int
    country_code: str
    film_number: int

    variant = "dos_contract"
    expects = "contract digits/two-letter country/film digits"
    pattern = re.compile(f"({_DIGITS})/({_COUNTRY_CODE.pattern})/({_DIGITS})")

    @classmethod
    def from_groups(cls, contract: str, country: str, film: str) -> DosContract:
        return cls(int(contract), country, int(film))

    def __post_init__(self) -> None:
        _validate_positive("contract number", self.contract_number)
        _validate_token(
            "country code must be two uppercase letters", _COUNTRY_CODE, self.country_code
        )
        _validate_positive("film number", self.film_number)

    def canonical(self) -> str:
        return f"{self.contract_number}/{self.country_code}/{self.film_number:04d}"


@dataclass(frozen=True)
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
        return cls(unit, service, int(mission))

    def __post_init__(self) -> None:
        _validate_token("unit must be an uppercase alphanumeric token", _UNIT_TOKEN, self.unit)
        _validate_token(
            "service must be three or more uppercase letters", _SERVICE_TOKEN, self.service
        )
        _validate_positive("mission number", self.mission_number)

    def canonical(self) -> str:
        return f"{self.unit}/{self.service}/{self.mission_number:04d}"


@dataclass(frozen=True)
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
        f"({_COMPANY_TOKEN.pattern})/({_COUNTRY_CODE.pattern})/({_YEAR})/({_DIGITS})"
    )

    @classmethod
    def from_groups(cls, company: str, country: str, year: str, film: str) -> CommercialSurvey:
        return cls(company, country, int(year), int(film))

    def __post_init__(self) -> None:
        _validate_token("company must be an uppercase token", _COMPANY_TOKEN, self.company)
        _validate_token(
            "country code must be two uppercase letters", _COUNTRY_CODE, self.country_code
        )
        if not 0 <= self.year_two_digit <= 99:
            raise ParseError(f"two-digit year must be 0-99, got {self.year_two_digit}")
        _validate_positive("film number", self.film_number)

    def canonical(self) -> str:
        return (
            f"{self.company}/{self.country_code}"
            f"/{self.year_two_digit:02d}/{self.film_number:04d}"
        )

    @property
    def full_year(self) -> int:
        # Two-digit years map to 19xx; the 2000-01 tail of the archive is
        # not representable without external metadata.
        return 1900 + self.year_two_digit


@dataclass(frozen=True)
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

_FAMILIES = (DosContract, MilitaryUnit, CommercialSurvey)  # in parsing precedence


def _parse_family(family, text: str):
    """The `family` record that `text` spells, or the reason it is not one."""
    match = family.pattern.fullmatch(text)
    if match is None:
        return f"{family.variant}: expected {family.expects}"
    try:
        return family.from_groups(*match.groups())
    except ValueError as exc:  # a zero number, or one too long to convert
        return f"{family.variant}: {exc}"


def parse(text: str, usaaf: bool = False) -> SortieId:
    """Parse an identifier string into its first matching variant.

    With `usaaf=True` the string is taken to be a pre-standardization
    USAAF label and stored raw; `standardized` reflects whether it
    happens to match the military grammar.
    """
    if not text:
        raise ParseError("empty identifier")
    if usaaf:
        standardized = isinstance(_parse_family(MilitaryUnit, text), MilitaryUnit)
        return UsArmyAirForce(tuple(text.split("/")), standardized)
    failures = []
    for family in _FAMILIES:
        parsed = _parse_family(family, text)
        if isinstance(parsed, family):
            return parsed
        failures.append(parsed)
    segments = text.count("/") + 1
    if not 2 <= segments <= 4:
        raise ParseError(
            f"expected 2 to 4 slash-separated segments, got {segments} in {text!r}"
            " (pass usaaf=True for pre-standardization labels)"
        )
    rules = "; ".join(failures)
    raise ParseError(f"no identifier grammar matched {text!r} (letters are uppercase A-Z): {rules}")


def canonical_format(sortie_id: SortieId) -> str:
    """Canonical identifier string; `parse` inverts it for every valid id."""
    return sortie_id.canonical()
