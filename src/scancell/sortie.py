"""Sortie identifier grammars: parse, validate, canonically format.

Four labeling families occur on the archive's boxes. Three are regular and
parseable; pre-standardization USAAF labels are stored raw and accepted
only when the caller says that is what they are holding.

Parsing precedence when a string is ambiguous: contract imagery, then
military missions, then commercial surveys. Canonical formatting zero-pads
film and mission numbers to four digits; parsing accepts them with or
without padding.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .codec import JsonRecord
from .errors import ParseError

_COUNTRY_CODE = re.compile(r"^[A-Z]{2}$")
_DIGITS = re.compile(r"^[0-9]+$")
_UNIT_TOKEN = re.compile(r"^[A-Z0-9]+$")
# Three letters minimum keeps canonical military strings from re-parsing
# as contract imagery (which claims any digits/AA/digits string first).
_SERVICE_TOKEN = re.compile(r"^[A-Z]{3,}$")
_COMPANY_TOKEN = re.compile(r"^[A-Z]+$")
_YEAR_TOKEN = re.compile(r"^[0-9]{2}$")


def _validate_country_code(code: str) -> None:
    if not _COUNTRY_CODE.match(code):
        raise ParseError(f"country code must be two uppercase letters, got {code!r}")


def _validate_positive(name: str, value: int) -> None:
    if value < 1:
        raise ParseError(f"{name} must be a positive integer, got {value}")


class _SortieRecord(JsonRecord):
    """A sortie id is written with a leading `variant` tag, and with the
    properties named in `derived` after its fields; both are ignored on
    input."""

    derived = ()

    def to_json_dict(self) -> dict:
        out = {"variant": self.variant, **super().to_json_dict()}
        out.update((name, getattr(self, name)) for name in self.derived)
        return out

    @classmethod
    def from_json_dict(cls, data):
        if isinstance(data, dict):
            ignored = ("variant", *cls.derived)
            data = {key: value for key, value in data.items() if key not in ignored}
        return super().from_json_dict(data)


@dataclass(frozen=True)
class DosContract(_SortieRecord):
    """Government contract imagery: contract/country/film."""

    contract_number: int
    country_code: str
    film_number: int

    variant = "dos_contract"

    def __post_init__(self) -> None:
        _validate_positive("contract number", self.contract_number)
        _validate_country_code(self.country_code)
        _validate_positive("film number", self.film_number)


@dataclass(frozen=True)
class MilitaryUnit(_SortieRecord):
    """Military mission imagery: unit/service/mission."""

    unit: str
    service: str
    mission_number: int

    variant = "military_unit"

    def __post_init__(self) -> None:
        if not _UNIT_TOKEN.match(self.unit):
            raise ParseError(f"unit must be an uppercase alphanumeric token, got {self.unit!r}")
        if not _SERVICE_TOKEN.match(self.service):
            raise ParseError(
                f"service must be three or more uppercase letters, got {self.service!r}"
            )
        _validate_positive("mission number", self.mission_number)


@dataclass(frozen=True)
class CommercialSurvey(_SortieRecord):
    """Commercial survey imagery: company/country/two-digit year/film."""

    company: str
    country_code: str
    year_two_digit: int
    film_number: int

    variant = "commercial_survey"
    derived = ("full_year",)

    def __post_init__(self) -> None:
        if not _COMPANY_TOKEN.match(self.company):
            raise ParseError(f"company must be an uppercase token, got {self.company!r}")
        _validate_country_code(self.country_code)
        if not 0 <= self.year_two_digit <= 99:
            raise ParseError(f"two-digit year must be 0-99, got {self.year_two_digit}")
        _validate_positive("film number", self.film_number)

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


SortieId = Union[DosContract, MilitaryUnit, CommercialSurvey, UsArmyAirForce]


def _try_dos_contract(segments: list[str]) -> DosContract:
    if len(segments) != 3:
        raise ParseError("expected 3 segments (contract/country/film)")
    contract, country, film = segments
    if not _DIGITS.match(contract):
        raise ParseError(f"contract number must be digits, got {contract!r}")
    if not _COUNTRY_CODE.match(country):
        raise ParseError(f"country code must be two uppercase letters, got {country!r}")
    if not _DIGITS.match(film):
        raise ParseError(f"film number must be digits, got {film!r}")
    return DosContract(int(contract), country, int(film))


def _try_military_unit(segments: list[str]) -> MilitaryUnit:
    if len(segments) != 3:
        raise ParseError("expected 3 segments (unit/service/mission)")
    unit, service, mission = segments
    if not _UNIT_TOKEN.match(unit):
        raise ParseError(f"unit must be an uppercase alphanumeric token, got {unit!r}")
    if not _SERVICE_TOKEN.match(service):
        raise ParseError(f"service must be three or more uppercase letters, got {service!r}")
    if not _DIGITS.match(mission):
        raise ParseError(f"mission number must be digits, got {mission!r}")
    return MilitaryUnit(unit, service, int(mission))


def _try_commercial_survey(segments: list[str]) -> CommercialSurvey:
    if len(segments) != 4:
        raise ParseError("expected 4 segments (company/country/year/film)")
    company, country, year, film = segments
    if not _COMPANY_TOKEN.match(company):
        raise ParseError(f"company must be an uppercase token, got {company!r}")
    if not _COUNTRY_CODE.match(country):
        raise ParseError(f"country code must be two uppercase letters, got {country!r}")
    if not _YEAR_TOKEN.match(year):
        raise ParseError(f"year must be two digits, got {year!r}")
    if not _DIGITS.match(film):
        raise ParseError(f"film number must be digits, got {film!r}")
    return CommercialSurvey(company, country, int(year), int(film))


_GRAMMARS = (
    ("dos_contract", _try_dos_contract),
    ("military_unit", _try_military_unit),
    ("commercial_survey", _try_commercial_survey),
)


def parse(text: str, usaaf: bool = False) -> SortieId:
    """Parse an identifier string into its first matching variant.

    With `usaaf=True` the string is taken to be a pre-standardization
    USAAF label and stored raw; `standardized` reflects whether it
    happens to match the military grammar.
    """
    if not text:
        raise ParseError("empty identifier")
    segments = text.split("/")
    if usaaf:
        try:
            _try_military_unit(segments)
            standardized = True
        except ParseError:
            standardized = False
        return UsArmyAirForce(tuple(segments), standardized)
    if not 2 <= len(segments) <= 4:
        raise ParseError(
            f"expected 2 to 4 slash-separated segments, got {len(segments)} in {text!r}"
            " (pass usaaf=True for pre-standardization labels)"
        )
    failures = []
    for name, grammar in _GRAMMARS:
        try:
            return grammar(segments)
        except ParseError as exc:
            failures.append(f"{name}: {exc}")
    raise ParseError(
        "no identifier grammar matched {!r}: {}".format(text, "; ".join(failures))
    )


def canonical_format(sortie_id: SortieId) -> str:
    """Canonical identifier string; `parse` inverts it for every valid id."""
    if isinstance(sortie_id, DosContract):
        return (
            f"{sortie_id.contract_number}/{sortie_id.country_code}"
            f"/{sortie_id.film_number:04d}"
        )
    if isinstance(sortie_id, MilitaryUnit):
        return f"{sortie_id.unit}/{sortie_id.service}/{sortie_id.mission_number:04d}"
    if isinstance(sortie_id, CommercialSurvey):
        return (
            f"{sortie_id.company}/{sortie_id.country_code}"
            f"/{sortie_id.year_two_digit:02d}/{sortie_id.film_number:04d}"
        )
    if isinstance(sortie_id, UsArmyAirForce):
        return "/".join(sortie_id.raw)
    raise TypeError(f"not a sortie identifier: {sortie_id!r}")


_VARIANTS = {
    cls.variant: cls for cls in (DosContract, MilitaryUnit, CommercialSurvey, UsArmyAirForce)
}


def to_json_dict(sortie_id: SortieId) -> dict:
    """JSON-ready mapping with a `variant` discriminator field."""
    if not isinstance(sortie_id, _SortieRecord):
        raise TypeError(f"not a sortie identifier: {sortie_id!r}")
    return sortie_id.to_json_dict()


def from_json_dict(data: dict) -> SortieId:
    variant = data.get("variant") if isinstance(data, dict) else None
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ParseError(f"unknown identifier variant: {variant!r}")
    return _VARIANTS[variant].from_json_dict(data)
