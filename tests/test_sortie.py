import copy
import dataclasses
import pickle
import random
import string
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from scancell import sortie
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

    def test_two_letter_middle_segment_is_contract_imagery(self):
        # a military service has three or more letters, so this is no mission
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


_EXPECTS = {
    "dos_contract": "expected contract digits/two-letter country/film digits",
    "military_unit": "expected alphanumeric unit/service of three or more letters/mission digits",
    "commercial_survey": "expected company letters/two-letter country/two-digit year/film digits",
}
_LONG_CONTRACT = "9" * 5000 + "/BC/0056"
_LONG_MISSION = "58/RAF/" + "9" * 5000
_LONG_SURVEY_FILM = "HSL/GH/64/" + "9" * 5000


def _no_match(text, **reasons):
    """The message for `text`, with each family's reason `expected ...` unless given."""
    rules = "; ".join(
        f"{variant}: {reasons.get(variant, expects)}" for variant, expects in _EXPECTS.items()
    )
    return f"no identifier grammar matched {text!r} (letters are uppercase A-Z): {rules}"


def _int_error(digits):
    """The interpreter's own text for a number too long to convert (it differs by version)."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{len(digits)} digits converted")


def _segments(text, count):
    return (
        f"expected 2 to 4 slash-separated segments, got {count} in {text!r}"
        " (pass usaaf=True for pre-standardization labels)"
    )


class TestParseErrorText:
    @pytest.mark.parametrize(
        "text, usaaf, message",
        [
            ("xx/yy", False, _no_match("xx/yy")),
            (
                "0/BC/0056",
                False,
                _no_match(
                    "0/BC/0056", dos_contract="contract number must be a positive integer, got 0"
                ),
            ),
            (
                "58/RAF/0000",
                False,
                _no_match(
                    "58/RAF/0000", military_unit="mission number must be a positive integer, got 0"
                ),
            ),
            (
                "HSL/GH/64/0000",
                False,
                _no_match(
                    "HSL/GH/64/0000", commercial_survey="film number must be a positive integer, got 0"
                ),
            ),
            (
                "4/BC/0000",
                False,
                _no_match(
                    "4/BC/0000", dos_contract="film number must be a positive integer, got 0"
                ),
            ),
            (
                "0/BC/0000",
                False,
                _no_match(
                    "0/BC/0000", dos_contract="contract number must be a positive integer, got 0"
                ),
            ),
            (
                _LONG_CONTRACT,
                False,
                _no_match(_LONG_CONTRACT, dos_contract=_int_error("9" * 5000)),
            ),
            (
                _LONG_MISSION,
                False,
                _no_match(_LONG_MISSION, military_unit=_int_error("9" * 5000)),
            ),
            (
                _LONG_SURVEY_FILM,
                False,
                _no_match(_LONG_SURVEY_FILM, commercial_survey=_int_error("9" * 5000)),
            ),
            ("justonetoken", False, _segments("justonetoken", 1)),
            ("A/B/C/D/E", False, _segments("A/B/C/D/E", 5)),
            ("4/bc/0056", False, _no_match("4/bc/0056")),
            ("hsl/gh/64/0034", False, _no_match("hsl/gh/64/0034")),
            ("4/BC/0056\n", False, _no_match("4/BC/0056\n")),
            ("K17//X", True, "USAAF label must have non-empty tokens"),
        ],
        ids=[
            "no-family",
            "zero-contract",
            "zero-mission",
            "zero-survey-film",
            "zero-film",
            "zero-contract-named-first",
            "5000-digit-contract",
            "5000-digit-mission",
            "5000-digit-survey-film",
            "one-segment",
            "five-segments",
            "lowercase-country",
            "lowercase-survey",
            "trailing-newline",
            "usaaf-empty-token",
        ],
    )
    def test_message_text_pinned(self, text, usaaf, message):
        with pytest.raises(ParseError) as excinfo:
            parse(text, usaaf=usaaf)
        assert str(excinfo.value) == message


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

    @pytest.mark.parametrize(
        "cls, args, message",
        [
            (MilitaryUnit, (58, "RAF", 456), "unit must be an uppercase alphanumeric token, got 58"),
            (
                MilitaryUnit,
                ("58", b"RAF", 456),
                "service must be three or more uppercase letters, got b'RAF'",
            ),
            (CommercialSurvey, (7, "GH", 64, 34), "company must be an uppercase token, got 7"),
            (
                CommercialSurvey,
                ("HSL", None, 64, 34),
                "country code must be two uppercase letters, got None",
            ),
            (DosContract, (4, ["B"], 1), "country code must be two uppercase letters, got ['B']"),
        ],
        ids=["unit", "service", "company", "survey-country", "contract-country"],
    )
    def test_text_field_that_is_not_a_str_rejected(self, cls, args, message):
        with pytest.raises(ParseError) as excinfo:
            cls(*args)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("year", [-1, 100])
    def test_year_beyond_two_digits_rejected(self, year):
        with pytest.raises(ParseError, match=f"two-digit year must be 0-99, got {year}"):
            CommercialSurvey("HSL", "GH", year, 34)

    @pytest.mark.parametrize("value", [True, 56.5, "56"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize(
        "cls, args, position, name",
        [
            (DosContract, (4, "BC", 56), 0, "contract number"),
            (DosContract, (4, "BC", 56), 2, "film number"),
            (MilitaryUnit, ("58", "RAF", 456), 2, "mission number"),
            (CommercialSurvey, ("HSL", "GH", 64, 34), 2, "two-digit year"),
            (CommercialSurvey, ("HSL", "GH", 64, 34), 3, "film number"),
        ],
        ids=["contract", "contract-film", "mission", "survey-year", "survey-film"],
    )
    def test_number_that_is_not_an_int_rejected(self, cls, args, position, name, value):
        # `True/BC/0001` does not parse, and `4/BC/0056.5` formats as another id
        args = args[:position] + (value,) + args[position + 1:]
        with pytest.raises(ParseError) as excinfo:
            cls(*args)
        assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


class TestSharedCountryCode:
    @pytest.mark.parametrize(
        "texts, built",
        [
            (("4/BC/0056", "7/BC/1"), DosContract(1, "BC", 1)),
            (("HSL/GH/64/0034", "AB/GH/01/1"), CommercialSurvey("X", "GH", 1, 1)),
        ],
        ids=["DosContract", "CommercialSurvey"],
    )
    def test_parsed_and_built_records_share_the_code(self, texts, built):
        first, second = (parse(text).country_code for text in texts)
        assert first is second is built.country_code

    def test_str_subclass_stored_as_str(self):
        class Code(str):
            pass

        shared = DosContract(1, "BC", 1).country_code
        for record in (DosContract(4, Code("BC"), 56), CommercialSurvey("HSL", Code("BC"), 64, 34)):
            assert type(record.country_code) is str
            assert record.country_code is shared

    def test_parsed_ids_hold_no_copy_of_the_code(self):
        # 114 bytes per id with the shared code on Python 3.11; a copy per record held 165
        rng = random.Random(3)
        letters = string.ascii_uppercase
        codes = rng.sample([a + b for a in letters for b in letters], 65)
        texts = [
            f"{rng.randint(1, 999)}/{rng.choice(codes)}/{rng.randint(1, 99_999):04d}"
            for _ in range(20_000)
        ]
        tracemalloc.start()
        try:
            parsed = [parse(text) for text in texts]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(parsed) == 20_000
        assert held / len(texts) <= 130, f"{held / len(texts):.0f} bytes per id"


class TestParseChecksTokensOnce:
    def test_valid_ids_skip_the_record_token_checks(self, monkeypatch):
        calls = []
        checked = sortie._validate_token

        def counting(*args):
            calls.append(args)
            checked(*args)

        monkeypatch.setattr(sortie, "_validate_token", counting)
        for text in ("4/BC/0056", "58/RAF/0456", "HSL/GH/64/0034", "7/AB/1", "K9/USN/12"):
            parse(text)
        assert calls == []
        # a record built directly still checks its tokens
        MilitaryUnit("58", "RAF", 456)
        assert len(calls) == 2


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

    @pytest.mark.parametrize("text", ["7/USAAF/0000", "58/RN/0456", "HSL/GH/64/0034"])
    def test_not_standardized_unless_a_valid_military_id(self, text):
        assert not parse(text, usaaf=True).standardized

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


# Segment alphabets: digits with optional zero padding, and 2-, 3- and
# 5-letter tokens (a country, a service, a company).
_segment = st.one_of(
    st.builds(lambda pad, n: "0" * pad + str(n), st.integers(0, 3), st.integers(0, 99999)),
    *(st.text(alphabet=string.ascii_uppercase, min_size=k, max_size=k) for k in (2, 3, 5)),
)
_FAMILIES = (DosContract, MilitaryUnit, CommercialSurvey)


class TestFamiliesAreExclusive:
    @settings(max_examples=500, deadline=None)
    @given(segments=st.lists(_segment, min_size=1, max_size=5))
    @example(segments=["58", "RN", "0456"])
    @example(segments=["58", "RAF", "0456"])
    @example(segments=["HSL", "GH", "64", "0034"])
    def test_at_most_one_family_matches(self, segments):
        text = "/".join(segments)
        matching = [family for family in _FAMILIES if family.pattern.fullmatch(text)]
        assert len(matching) <= 1
        try:
            parsed = parse(text)
        except ParseError:
            return
        assert type(parsed) is matching[0]


_BUILT = (
    DosContract(4, "BC", 56),
    MilitaryUnit("58", "RAF", 456),
    CommercialSurvey("HSL", "GH", 64, 34),
    UsArmyAirForce(("K17", "LOCAL"), False),
)
_PARSED = (
    parse("4/BC/0056"),
    parse("58/RAF/0456"),
    parse("HSL/GH/64/0034"),
    parse("K17/LOCAL", usaaf=True),
)


class TestRecordLayout:
    @pytest.mark.parametrize(
        "record, built",
        [*zip(_BUILT, _BUILT), *zip(_PARSED, _BUILT)],
        ids=[type(record).__name__ for record in _BUILT]
        + [f"parsed-{type(record).__name__}" for record in _BUILT],
    )
    def test_slotted_and_copyable(self, record, built):
        """A pickled record is reloaded without `__post_init__`, so it need
        not hold the shared country code; it equals the original."""
        assert not hasattr(record, "__dict__")
        assert type(record) is type(built)
        assert record == built
        assert hash(record) == hash(built)
        assert repr(record) == repr(built)
        assert record.to_json_dict() == built.to_json_dict()
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(built, field.name))
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record)
            assert copied == record
            assert copied.to_json_dict() == record.to_json_dict()


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
