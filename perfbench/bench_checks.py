"""Output checks the benchmark applies to every pass it times.

Each function returns a list of problems; an empty list means the outputs
are correct.  A run with any problem reports ``"correct": false`` and
exits non-zero.
"""

from __future__ import annotations

import math

import numpy as np

from loadshift.scheduler import validate_assignment

ENERGY_RTOL = 1e-9
ENERGY_ATOL = 1e-9


def check_results(fleet, results) -> list[str]:
    """Schedules feasible, energy conserved, curves finite and >= 0."""
    instances = {h.id: h.instances() for h in fleet.households}
    problems = []
    for r in results:
        tag = f"{r.household_id} {r.day.isoformat()}"
        for violation in validate_assignment(instances[r.household_id], r.assignment):
            problems.append(f"{tag}: infeasible schedule: {violation}")
        before, after = r.before.energy_kwh(), r.after_total.energy_kwh()
        if not math.isclose(after, before, rel_tol=ENERGY_RTOL, abs_tol=ENERGY_ATOL):
            problems.append(f"{tag}: after_total energy {after!r} kWh != before {before!r} kWh")
        curves = {
            "objective": r.objective.values,
            "predicted": r.predicted.values,
            "before": r.before.values,
            "after": r.after.values,
            "after_total": r.after_total.values,
        }
        for label, values in curves.items():
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                problems.append(f"{tag}: {label} curve has non-finite or negative values")
    return problems


def check_report(report, result_count: int) -> list[str]:
    """Every household-day scored and the fleet aggregates finite."""
    problems = []
    scored = len(report.rows) + len(report.excluded)
    if scored != result_count:
        problems.append(f"report covers {scored} household-days, expected {result_count}")
    fleet = report.fleet
    for name in ("peak_reduction_pct", "bill_reduction_pct", "load_factor_after"):
        value = getattr(fleet, name)
        if value is None or not math.isfinite(value):
            problems.append(f"fleet {name} is {value!r}")
    return problems
