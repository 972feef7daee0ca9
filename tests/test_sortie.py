import random
import string

import pytest
from hypothesis import given, strategies as st

from scancell.errors import ParseError
from scancell.sortie import (
    CommercialSurvey,
    DosContract,
    MilitaryUnit,
    UsArmyAirForce,
    canonical_format,
    parse,
)


class TestParseExemplars:
    def test_dos_contract(self):
        assert parse("4/BC/0056") == DosContract(4, "BC", 56)

    def test_military_unit(self):
        assert parse("58/RAF/0456") == MilitaryUnit("58", "RAF", 456)

    def test_commercial_survey(self):
        assert parse("HSL/GH/64/0034") == CommercialSurvey("HSL", "GH", 64, 34)

    def test_exemplars_round_trip_byte_identically(self):
        for text in ("4/BC/0056", "58/RAF/0456", "HSL/GH/64/0034"):
            assert canonical_format(parse(text)) == text


class TestParseRules:
    def test_empty_string(self):
        with pytest.raises(ParseError, match="empty"):
            parse("")

    def test_unpadded_film_number(self):
        assert parse("4/BC/56") == DosContract(4, "BC", 56)

    def test_too_few_segments(self):
        with pytest.raises(ParseError, match="2 to 4"):
            parse("justonetoken")

    def test_too_many_segments(self):
        with pytest.raises(ParseError, match="2 to 4"):
            parse("A/B/C/D/E")

    def test_error_names_failed_grammar_rules(self):
        with pytest.raises(ParseError) as excinfo:
            parse("xx/yy")
        message = str(excinfo.value)
        assert "dos_contract" in message
        assert "military_unit" in message
        assert "commercial_survey" in message
        # each family's expectation in words, not as a regex
        assert "contract digits/two-letter country/film digits" in message
        assert "service of three or more letters" in message
        assert "two-digit year" in message
        assert "uppercase" in message

    def test_precedence_dos_contract_over_military(self):
        # two-letter second segment with numeric first reads as contract imagery
        assert parse("58/RN/0456") == DosContract(58, "RN", 456)

    def test_zero_film_number_rejected(self):
        with pytest.raises(ParseError):
            parse("4/BC/0000")

    def test_lowercase_country_rejected(self):
        with pytest.raises(ParseError):
            parse("4/bc/0056")

    @pytest.mark.parametrize(
        "text",
        ["4/BC\n/0056", "4/BC/0056\n", "58\n/RAF/0456", "9" * 5000 + "/BC/0056"],
        ids=["newline-in-token", "trailing-newline", "newline-in-unit", "5000-digit-contract"],
    )
    def test_text_outside_the_grammar_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestRecordChecks:
    @pytest.mark.parametrize(
        "cls, args, match",
        [
            (DosContract, (4, "BC\n", 56), "country code"),
            (MilitaryUnit, ("58\n", "RAF", 456), "unit"),
            (MilitaryUnit, ("58", "RAF\n", 456), "service"),
            (CommercialSurvey, ("HSL\n", "GH", 64, 34), "company"),
            (CommercialSurvey, ("HSL", "GH\n", 64, 34), "country code"),
        ],
    )
    def test_trailing_newline_in_a_token_rejected(self, cls, args, match):
        with pytest.raises(ParseError, match=match):
            cls(*args)


class TestUsaaf:
    def test_requires_hint(self):
        with pytest.raises(ParseError):
            parse("BATCH 7 STRIP 2".replace(" ", "/") + "/X/Y")

    def test_hint_accepts_any_token_run(self):
        parsed = parse("K17/LOCAL/NOTES/EXTRA/MORE", usaaf=True)
        assert isinstance(parsed, UsArmyAirForce)
        assert parsed.raw == ("K17", "LOCAL", "NOTES", "EXTRA", "MORE")
        assert not parsed.standardized

    def test_hint_detects_standardized_shape(self):
        parsed = parse("7/USAAF/0012", usaaf=True)
        assert isinstance(parsed, UsArmyAirForce)
        assert parsed.standardized

    def test_round_trip(self):
        parsed = parse("K17/LOCAL/NOTES", usaaf=True)
        assert parse(canonical_format(parsed), usaaf=True) == parsed


class TestCanonicalFormat:
    def test_dos_contract_padding(self):
        assert canonical_format(DosContract(4, "BC", 56)) == "4/BC/0056"

    def test_military_unit_padding(self):
        assert canonical_format(MilitaryUnit("58", "RAF", 456)) == "58/RAF/0456"

    def test_commercial_survey_padding(self):
        assert canonical_format(CommercialSurvey("HSL", "GH", 64, 34)) == "HSL/GH/64/0034"

    def test_wide_numbers_not_truncated(self):
        assert canonical_format(DosContract(123, "KE", 12345)) == "123/KE/12345"


def _country_codes():
    return st.text(alphabet=string.ascii_uppercase, min_size=2, max_size=2)


dos_ids = st.builds(
    DosContract,
    contract_number=st.integers(1, 9999),
    country_code=_country_codes(),
    film_number=st.integers(1, 99999),
)
military_ids = st.builds(
    MilitaryUnit,
    unit=st.text(alphabet=string.ascii_uppercase + string.digits, min_size=1, max_size=4),
    service=st.text(alphabet=string.ascii_uppercase, min_size=3, max_size=6),
    mission_number=st.integers(1, 99999),
)
survey_ids = st.builds(
    CommercialSurvey,
    company=st.text(alphabet=string.ascii_uppercase, min_size=2, max_size=5),
    country_code=_country_codes(),
    year_two_digit=st.integers(0, 99),
    film_number=st.integers(1, 99999),
)


class TestRoundTripProperty:
    @given(sortie_id=st.one_of(dos_ids, military_ids, survey_ids))
    def test_parse_inverts_canonical_format(self, sortie_id):
        assert parse(canonical_format(sortie_id)) == sortie_id

    def test_bulk_generated_ids(self):
        rng = random.Random(2024)
        for _ in range(1000):
            kind = rng.randrange(3)
            if kind == 0:
                sid = DosContract(
                    rng.randint(1, 999),
                    "".join(rng.choices(string.ascii_uppercase, k=2)),
                    rng.randint(1, 9999),
                )
            elif kind == 1:
                sid = MilitaryUnit(
                    str(rng.randint(1, 999)),
                    "".join(rng.choices(string.ascii_uppercase, k=rng.randint(3, 5))),
                    rng.randint(1, 9999),
                )
            else:
                sid = CommercialSurvey(
                    "".join(rng.choices(string.ascii_uppercase, k=rng.randint(2, 4))),
                    "".join(rng.choices(string.ascii_uppercase, k=2)),
                    rng.randint(0, 99),
                    rng.randint(1, 9999),
                )
            assert parse(canonical_format(sid)) == sid


def test_year_maps_to_twentieth_century():
    assert CommercialSurvey("HSL", "GH", 64, 34).full_year == 1964
    assert CommercialSurvey("HSL", "GH", 1, 34).full_year == 1901
