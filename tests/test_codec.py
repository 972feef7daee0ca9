"""The one JSON codec behind every record's to_json_dict/from_json_dict."""
import json
from dataclasses import fields
from fractions import Fraction

import pytest

from scancell import sortie
from scancell.cell import (
    CellConfig,
    HandlingTime,
    WeeklySchedule,
    fleet_throughput,
    observed_vs_theoretical,
    productivity_ratio,
    simulate,
    theoretical_throughput,
)
from scancell.codec import JsonRecord
from scancell.economics import CostItem, CostParams, manual_benchmark, weeks_to_volume
from scancell.errors import ConfigError, DomainError
from scancell.preservation import (
    IssueRates,
    MouldState,
    PrintCondition,
    RipDamage,
    aggregate_rates,
    all_conditions,
    plan_remediation,
)
from scancell.qc.analyze import CalibrationReport, ScaleMeasurement

CONDITION = PrintCondition(mould=MouldState.ACTIVE, rips_or_peeling=RipDamage.MINOR)

# One instance of each record read as JSON. CalibrationReport (as in
# `qc analyze`) and the sortie ids (as in `parse-id`) are only written, so
# they are left out.
RECORDS = [
    HandlingTime("lognormal", 60.0, 0.2),
    WeeklySchedule(((0, 8.0, 18.0), (3, 9.0, 12.5))),
    CellConfig(hopper_capacity=None, handling_time=HandlingTime("uniform", 50.0, 0.1)),
    simulate(CellConfig(hopper_capacity=3), seed=2, horizon_seconds=1800)[1],
    theoretical_throughput("robotic"),
    fleet_throughput(14),
    productivity_ratio(theoretical_throughput("robotic"), theoretical_throughput("human_operated")),
    observed_vs_theoretical(9090, 36084, fleet_throughput(14)),
    ScaleMeasurement(7199.5, 7200.0, 8.2, True),
    CONDITION,
    plan_remediation(CONDITION),
    aggregate_rates(all_conditions()),
    IssueRates(mould=0.5),
    CostItem("scanner", Fraction(22, 100), 2),
    manual_benchmark(),
    weeks_to_volume(2_363_059, 36_288.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_round_trip_through_json_text(record):
    text = json.dumps(record.to_json_dict())
    assert type(record).from_json_dict(json.loads(text)) == record


def test_fields_written_in_declaration_order_as_json_types():
    data = CellConfig().to_json_dict()
    assert list(data) == [f.name for f in fields(CellConfig)]
    assert data["handling_time"] == {"kind": "fixed", "mean_seconds": 66.7, "spread": 0.0}
    assert data["attendance"] == [[day, 9.0, 17.0] for day in range(5)]
    assert plan_remediation(CONDITION).to_json_dict() == {
        "steps": ["clean_mould", "sleeve_protect", "vacuum_pack"],
        "routing": "mould_isolated",
        "scan_route": "manual_flatbed",
    }
    assert CostItem("scanner", Fraction(3, 400), 2).to_json_dict() == {
        "label": "scanner",
        "unit_cost": 0.0075,
        "quantity": 2,
    }


def test_sortie_ids_are_written_only():
    dos = sortie.parse("4/BC/0056")
    assert not isinstance(dos, JsonRecord)
    assert not hasattr(dos, "from_json_dict")
    assert dos.to_json_dict() == {
        "variant": "dos_contract", "contract_number": 4, "country_code": "BC", "film_number": 56
    }
    label = sortie.parse("K17/LOCAL/NOTES", usaaf=True).to_json_dict()
    assert json.loads(json.dumps(label)) == {
        "variant": "us_army_air_force", "raw": ["K17", "LOCAL", "NOTES"], "standardized": False
    }


def test_calibration_report_is_written_only():
    wedge = tuple(range(0, 210, 10))
    report = CalibrationReport(7199.5, 7200.0, 8.2, False, wedge, True, 42.3, (1, 2, 30, 40))
    assert not isinstance(report, JsonRecord)
    assert not hasattr(report, "from_json_dict")
    data = report.to_json_dict()
    assert list(data) == [f.name for f in fields(CalibrationReport)]
    assert json.loads(json.dumps(data)) == {
        "measured_scale_px": 7199.5,
        "expected_scale_px": 7200.0,
        "scale_tolerance_px": 8.2,
        "scale_verdict": "fail",
        "wedge_values": list(wedge),
        "wedge_monotone": True,
        "smallest_resolvable_um": 42.3,
        "crop_box": [1, 2, 30, 40],
    }


def test_documented_layouts():
    params = CostParams(Fraction(1, 10), (CostItem("arm", Fraction(5), 1),), Fraction(7))
    assert params.to_json_dict() == {
        "per_scan_variable": 0.1,
        "fixed_items": [["arm", 5.0, 1]],
        "fixed_total": 7.0,
    }
    survey = sortie.parse("HSL/GH/64/0034").to_json_dict()
    assert list(survey) == [
        "variant", "company", "country_code", "year_two_digit", "film_number", "full_year"
    ]


def test_numbers_kept_as_given_and_money_read_exactly():
    params = CostParams.from_json_dict(
        {"per_scan_variable": "0.22", "fixed_items": [["s", 0.0075, 2]], "weekly_capacity": 3500}
    )
    assert params.per_scan_variable == Fraction(22, 100)
    assert params.fixed_items[0].unit_cost == Fraction(75, 10_000)
    assert params.to_json_dict()["weekly_capacity"] == 3500
    assert type(params.weekly_capacity) is int


@pytest.mark.parametrize(
    "cls, data, match",
    [
        (PrintCondition, {"blocking": "false"}, "PrintCondition.blocking"),
        (PrintCondition, {"blocking": 1}, "true or false"),
        (PrintCondition, {"mould": "wet"}, "PrintCondition.mould"),
        (PrintCondition, {"bloking": True, "curlng": True}, "unknown .* bloking, curlng"),
        (PrintCondition, [], "JSON object"),
        (CellConfig, {"hopper_capacity": 300.0}, "an integer"),
        (CellConfig, {"scanners_per_robot": True}, "an integer"),
        (CellConfig, {"scan_seconds": "45"}, "a number"),
        (CellConfig, {"scan_seconds": False}, "a number"),
        (CellConfig, {"scan_seconds": 10**400}, "too large"),
        (CellConfig, {"attendance": [[0.0, 9, 17]]}, "an integer"),
        (CellConfig, {"attendance": [[0, 9]]}, "expected 3 items"),
        (CellConfig, {"attendance": {"0": [9, 17]}}, "a list"),
        (CellConfig, {"handling_time": {"kind": 1}}, "a string"),
        (CostItem, {"label": "x", "unit_cost": "abc", "quantity": 1}, "unit_cost"),
        (CostItem, {"label": "x", "unit_cost": [], "quantity": 1}, "unit_cost"),
        (CostItem, {"label": "x", "unit_cost": "1/0", "quantity": 1}, "unit_cost"),
        (CostItem, {"label": "x", "unit_cost": 1}, "missing CostItem keys: quantity"),
        (CostParams, {"per_scan_variable": 1, "fixed_total_override": 5}, "unknown"),
        (CostParams, {"per_scan_variable": 1, "fixed_items": [["x", 1, 1, 1]]}, "row"),
        (IssueRates, {"mould": None}, "a number"),
    ],
)
def test_malformed_values_raise_config_error(cls, data, match):
    with pytest.raises(ConfigError, match=match):
        cls.from_json_dict(data)


def test_range_checks_stay_with_the_record():
    with pytest.raises(DomainError, match="mould"):
        IssueRates.from_json_dict({"mould": 2.0})
    with pytest.raises(DomainError, match="finite"):
        CostParams.from_json_dict({"per_scan_variable": float("nan"), "fixed_total": 1})
    with pytest.raises(ConfigError, match="finite"):
        CellConfig.from_json_dict({"reload_seconds": float("inf")})
