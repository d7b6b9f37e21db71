"""Metrics: hand-checked oracles, aggregation identities, exclusions, files."""

import csv
import datetime
import json

import numpy as np
import pytest

from loadshift.core import LoadCurve
from loadshift.metrics import (
    PERIOD_LABELS,
    REPORT_CSV_COLUMNS,
    compute_metrics,
    period_label,
    report_to_dict,
    write_report,
)
from loadshift.objective import ObjectiveCurve
from loadshift.scheduler import ScheduleAssignment
from loadshift.simulate import DayResult

from conftest import make_pricing

PEAK = slice(34, 44)  # external slots 35-44


def make_result(household_id, day, before, after, after_total=None):
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    total = after if after_total is None else np.asarray(after_total, dtype=float)
    predicted = LoadCurve(before.copy())
    return DayResult(
        household_id=household_id,
        day=day,
        before=LoadCurve(before),
        after=LoadCurve(after),
        after_total=LoadCurve(total),
        assignment=ScheduleAssignment(starts={}),
        objective=ObjectiveCurve(
            values=before.copy(),
            provenance=("predicted",) * 48,
        ),
        predicted=predicted,
    )


def two_step_curves():
    """Before: 2 kW through the peak, 1 kW elsewhere.  After: peak halved."""
    before = np.ones(48)
    before[PEAK] = 2.0
    after = np.ones(48)
    after[0:10] = 2.0  # the displaced energy lands in the overnight valley
    return before, after


def test_period_labels_cover_the_year():
    assert period_label(datetime.date(2025, 1, 1)) == "jan-feb"
    assert period_label(datetime.date(2025, 2, 28)) == "jan-feb"
    assert period_label(datetime.date(2025, 3, 1)) == "mar-apr"
    assert period_label(datetime.date(2025, 12, 31)) == "nov-dec"
    assert len(PERIOD_LABELS) == 6


def test_single_day_hand_oracle():
    before, after = two_step_curves()
    pricing = make_pricing()  # peak 0.30 over slots 35-44, off-peak 0.10
    report = compute_metrics(
        [make_result("h1", datetime.date(2025, 2, 10), before, after)], pricing
    )
    assert len(report.rows) == 1
    row = report.rows[0]

    # peak-window energy: 10 slots of 2 kW vs 1 kW, half an hour each
    assert row.peak_kwh_before == pytest.approx(10.0, rel=1e-12)
    assert row.peak_kwh_after == pytest.approx(5.0, rel=1e-12)
    assert row.peak_reduction_pct == pytest.approx(50.0, rel=1e-12)

    # both curves peak at 2 kW with identical totals, so the ratio matches
    assert row.load_factor_before == pytest.approx((58 / 48) / 2.0, rel=1e-12)
    assert row.load_factor_after == pytest.approx((58 / 48) / 2.0, rel=1e-12)

    assert row.bill_before == pytest.approx(
        2.0 * 0.5 * 0.30 * 10 + 1.0 * 0.5 * 0.10 * 38, rel=1e-12
    )
    assert row.bill_after == pytest.approx(
        1.0 * 0.5 * 0.30 * 10 + 2.0 * 0.5 * 0.10 * 10 + 1.0 * 0.5 * 0.10 * 28,
        rel=1e-12,
    )
    assert row.energy_kwh_before == pytest.approx(29.0, rel=1e-12)


def test_identity_day_has_zero_deltas():
    before, _ = two_step_curves()
    report = compute_metrics(
        [make_result("h1", datetime.date(2025, 6, 1), before, before)], make_pricing()
    )
    row = report.rows[0]
    assert row.peak_reduction_pct == 0.0
    assert row.load_factor_before == row.load_factor_after
    assert row.bill_before == row.bill_after
    assert report.fleet.peak_reduction_pct == 0.0


def test_fleet_reduction_is_energy_weighted():
    before, after = two_step_curves()
    results = [
        make_result("h1", datetime.date(2025, 2, 10), before, after),
        make_result("h2", datetime.date(2025, 2, 10), 3.0 * before, 3.0 * after),
        make_result("h3", datetime.date(2025, 2, 11), before, before),
    ]
    report = compute_metrics(results, make_pricing())
    rows = report.rows

    total_before = sum(r.peak_kwh_before for r in rows)
    expected = sum(r.peak_reduction_pct * r.peak_kwh_before for r in rows) / total_before
    assert report.fleet.peak_reduction_pct == pytest.approx(expected, rel=1e-12)
    assert report.fleet.day_count == 3

    weight = sum(r.energy_kwh_before for r in rows)
    expected_lf = sum(r.load_factor_after * r.energy_kwh_before for r in rows) / weight
    assert report.fleet.load_factor_after == pytest.approx(expected_lf, rel=1e-12)

    assert report.fleet.bill_before == pytest.approx(
        sum(r.bill_before for r in rows), rel=1e-12
    )


def test_periods_split_by_calendar():
    before, after = two_step_curves()
    results = [
        make_result("h1", datetime.date(2025, 2, 10), before, after),
        make_result("h1", datetime.date(2025, 3, 10), before, after),
        make_result("h1", datetime.date(2025, 3, 11), before, after),
    ]
    report = compute_metrics(results, make_pricing())
    by_label = {p.label: p for p in report.periods}
    assert set(by_label) == set(PERIOD_LABELS)
    assert by_label["jan-feb"].day_count == 1
    assert by_label["mar-apr"].day_count == 2
    assert by_label["may-jun"].day_count == 0
    assert by_label["may-jun"].peak_reduction_pct is None
    assert by_label["may-jun"].load_factor_before is None


def test_no_peak_energy_is_excluded_with_warning():
    quiet = np.ones(48)
    quiet[PEAK] = 0.0
    before, after = two_step_curves()
    results = [
        make_result("h1", datetime.date(2025, 2, 10), quiet, quiet),
        make_result("h2", datetime.date(2025, 2, 10), before, after),
    ]
    with pytest.warns(UserWarning, match=r"h1 2025-02-10: no peak-window energy"):
        report = compute_metrics(results, make_pricing())
    assert [r.household_id for r in report.rows] == ["h2"]
    assert report.excluded == (
        ("h1", "2025-02-10", "no peak-window energy before scheduling"),
    )
    assert report.fleet.day_count == 1


def test_undefined_load_factor_is_excluded():
    before, _ = two_step_curves()
    results = [
        make_result("h1", datetime.date(2025, 2, 10), before, np.zeros(48)),
    ]
    with pytest.warns(UserWarning, match=r"load factor"):
        report = compute_metrics(results, make_pricing())
    assert report.rows == ()
    assert report.excluded[0][0] == "h1"
    assert report.fleet.day_count == 0
    assert report.fleet.peak_reduction_pct is None


def test_rows_are_sorted_by_household_then_day():
    before, after = two_step_curves()
    results = [
        make_result("h2", datetime.date(2025, 2, 11), before, after),
        make_result("h1", datetime.date(2025, 2, 12), before, after),
        make_result("h1", datetime.date(2025, 2, 10), before, after),
    ]
    report = compute_metrics(results, make_pricing())
    keys = [(r.household_id, r.day) for r in report.rows]
    assert keys == sorted(keys)


def test_written_report_round_trips(tmp_path):
    before, after = two_step_curves()
    results = [
        make_result("h1", datetime.date(2025, 2, 10), before, after),
        make_result("h2", datetime.date(2025, 7, 3), 2.0 * before, 2.0 * after),
    ]
    report = compute_metrics(results, make_pricing())
    json_path, csv_path = write_report(report, tmp_path)

    doc = json.loads(json_path.read_text())
    assert doc == report_to_dict(report)
    assert [h["household"] for h in doc["households"]] == ["h1", "h2"]
    assert doc["fleet"]["day_count"] == 2
    assert len(doc["periods"]) == 6
    assert all(set(h) == set(REPORT_CSV_COLUMNS) for h in doc["households"])

    with csv_path.open() as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    assert tuple(reader.fieldnames) == REPORT_CSV_COLUMNS
    assert len(rows) == 2
    assert float(rows[0]["peak_kwh_before"]) == report.rows[0].peak_kwh_before
    assert float(rows[1]["bill_after"]) == report.rows[1].bill_after

    # byte stability: same report, same files
    json2, csv2 = write_report(report, tmp_path / "again")
    assert json2.read_bytes() == json_path.read_bytes()
    assert csv2.read_bytes() == csv_path.read_bytes()
