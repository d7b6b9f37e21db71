"""Before/after metrics per household-day, aggregated to periods and fleet.

Peak reduction compares energy inside the tariff's peak windows; the fleet
figure is the ratio of summed energies, which equals the energy-weighted
mean of the per-household percentages.  Load factors aggregate weighted by
each day's total pre-scheduling energy.  Household-days whose metrics are
undefined (no peak-window energy, all-zero curve) are excluded from the
aggregates and reported.
"""

from __future__ import annotations

import csv
import datetime
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .core import SLOT_HOURS, PricingSignal, bill, load_factor
from .errors import UndefinedMetricError
from .simulate import DayResult

PERIOD_LABELS = ("jan-feb", "mar-apr", "may-jun", "jul-aug", "sep-oct", "nov-dec")

REPORT_CSV_COLUMNS = (
    "household",
    "day",
    "period",
    "peak_kwh_before",
    "peak_kwh_after",
    "peak_reduction_pct",
    "load_factor_before",
    "load_factor_after",
    "bill_before",
    "bill_after",
)


def period_label(day: datetime.date) -> str:
    """Calendar two-month window a date falls into."""
    return PERIOD_LABELS[(day.month - 1) // 2]


@dataclass(frozen=True, eq=False)
class HouseholdDayMetrics:
    household_id: str
    day: datetime.date
    period: str
    peak_kwh_before: float
    peak_kwh_after: float
    peak_reduction_pct: float
    load_factor_before: float
    load_factor_after: float
    bill_before: float
    bill_after: float
    energy_kwh_before: float


@dataclass(frozen=True, eq=False)
class Aggregate:
    """Metrics rolled up over a set of household-days.

    Ratio metrics are None when the window holds no days.
    """

    label: str
    day_count: int
    peak_kwh_before: float
    peak_kwh_after: float
    peak_reduction_pct: float | None
    load_factor_before: float | None
    load_factor_after: float | None
    bill_before: float
    bill_after: float
    bill_reduction_pct: float | None


@dataclass(frozen=True, eq=False)
class MetricsReport:
    rows: tuple[HouseholdDayMetrics, ...]
    fleet: Aggregate
    periods: tuple[Aggregate, ...]
    excluded: tuple[tuple[str, str, str], ...]


def _aggregate(rows: Sequence[HouseholdDayMetrics], label: str) -> Aggregate:
    if not rows:
        return Aggregate(label, 0, 0.0, 0.0, None, None, None, 0.0, 0.0, None)
    peak_before = sum(r.peak_kwh_before for r in rows)
    peak_after = sum(r.peak_kwh_after for r in rows)
    bill_before = sum(r.bill_before for r in rows)
    bill_after = sum(r.bill_after for r in rows)
    weight = sum(r.energy_kwh_before for r in rows)
    lf_before = sum(r.load_factor_before * r.energy_kwh_before for r in rows) / weight
    lf_after = sum(r.load_factor_after * r.energy_kwh_before for r in rows) / weight
    return Aggregate(
        label=label,
        day_count=len(rows),
        peak_kwh_before=peak_before,
        peak_kwh_after=peak_after,
        peak_reduction_pct=100.0 * (peak_before - peak_after) / peak_before,
        load_factor_before=lf_before,
        load_factor_after=lf_after,
        bill_before=bill_before,
        bill_after=bill_after,
        bill_reduction_pct=(
            100.0 * (bill_before - bill_after) / bill_before if bill_before > 0 else None
        ),
    )


def compute_metrics(
    results: Sequence[DayResult], pricing: PricingSignal
) -> MetricsReport:
    """Score every household-day and aggregate to periods and the fleet.

    Household-days with zero peak-window energy before scheduling (the
    reduction percentage would divide by zero) or an undefined load factor
    are excluded from every aggregate, with a warning naming them.
    """
    peak_mask = pricing.peak_mask()
    rows = []
    excluded = []
    for result in sorted(results, key=lambda r: (r.household_id, r.day)):
        peak_before = float(result.before.values[peak_mask].sum() * SLOT_HOURS)
        if peak_before <= 0.0:
            reason = "no peak-window energy before scheduling"
            warnings.warn(f"{result.household_id} {result.day}: {reason}, excluded")
            excluded.append((result.household_id, result.day.isoformat(), reason))
            continue
        try:
            lf_before = load_factor(result.before)
            lf_after = load_factor(result.after)
        except UndefinedMetricError as exc:
            warnings.warn(f"{result.household_id} {result.day}: {exc}, excluded")
            excluded.append((result.household_id, result.day.isoformat(), str(exc)))
            continue
        peak_after = float(result.after.values[peak_mask].sum() * SLOT_HOURS)
        rows.append(
            HouseholdDayMetrics(
                household_id=result.household_id,
                day=result.day,
                period=period_label(result.day),
                peak_kwh_before=peak_before,
                peak_kwh_after=peak_after,
                peak_reduction_pct=100.0 * (peak_before - peak_after) / peak_before,
                load_factor_before=lf_before,
                load_factor_after=lf_after,
                bill_before=bill(result.before, pricing),
                bill_after=bill(result.after, pricing),
                energy_kwh_before=result.before.energy_kwh(),
            )
        )
    rows = tuple(rows)
    periods = tuple(
        _aggregate([r for r in rows if r.period == label], label)
        for label in PERIOD_LABELS
    )
    return MetricsReport(
        rows=rows,
        fleet=_aggregate(rows, "fleet"),
        periods=periods,
        excluded=tuple(excluded),
    )


# ---------------------------------------------------------------- serialization


def _household_row(r: HouseholdDayMetrics) -> dict:
    """One report row keyed by ``REPORT_CSV_COLUMNS``, for JSON and CSV alike."""
    row = {"household": r.household_id, "day": r.day.isoformat()}
    row.update((name, getattr(r, name)) for name in REPORT_CSV_COLUMNS[2:])
    return row


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-ready view of the report; deterministic for fixed inputs."""
    return {
        "fleet": asdict(report.fleet),
        "periods": [asdict(p) for p in report.periods],
        "households": [_household_row(r) for r in report.rows],
        "excluded": [
            {"household": h, "day": d, "reason": reason}
            for h, d, reason in report.excluded
        ],
    }


def write_report(report: MetricsReport, out_dir) -> tuple[Path, Path]:
    """Write report.json and report.csv; both are byte-stable per input."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "report.csv"
    json_path.write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    with csv_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, REPORT_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_household_row(r) for r in report.rows)
    return json_path, csv_path
