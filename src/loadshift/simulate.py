"""Household and fleet simulation: forecast, objective, schedule, compare.

``run_day`` executes the full pipeline for one household and one day; the
"before" curve is every appliance at its preferred start drawing from the
grid, the "after" curve is the optimized schedule's grid consumption.  In
online mode the day is replayed slot by slot: each slot's realized
consumption (forecast plus seeded noise) updates the objective curve, and
appliances that have not started yet are re-solved against it.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    SLOT_COUNT,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    preferred_starts,
    split_consumption,
    total_curve,
)
from .errors import (
    DatasetTooSmallError,
    InfeasibleProblemError,
    LoadshiftError,
    ParameterError,
    TemporalConsistencyError,
    TrainingFailedError,
)
from .forecast import TrainingConfig, fit_series, hourly_series_from_history, predict_day
from .objective import ObjectiveCurve, build_objective, fit_peak_regression, update_online
from .scheduler import ScheduleAssignment, pv_arbitrate, solve

MODES = ("offline", "online")


def derive_seed(base: int, *parts) -> int:
    """Stable per-task seed from a base seed and identifying strings."""
    text = ":".join([str(int(base)), *(str(p) for p in parts)])
    digest = hashlib.blake2s(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class RunParams:
    """Pipeline knobs shared by every household in a run.

    ``history_window_days`` caps how much history feeds training and the
    peak regression; ``online_noise_kw`` is the std-dev of the seeded noise
    that stands in for real telemetry in online mode.  Every solve runs with
    the default all-zero ``DiscomfortWeights``, so only deviation from the
    objective curve is priced.
    """

    lag: int = 24
    hidden_size: int = 10
    max_epochs: int = 60
    history_window_days: int = 120
    segment_count: int = 2
    degree: int = 1
    l_min: float = 2.0
    online_noise_kw: float = 0.05

    def __post_init__(self):
        if self.lag < 1 or self.hidden_size < 1 or self.max_epochs < 1:
            raise ParameterError("lag, hidden_size and max_epochs must be >= 1")
        if self.history_window_days < 2:
            raise ParameterError("history_window_days must be >= 2")
        if self.segment_count < 1 or self.degree < 1:
            raise ParameterError("segment_count and degree must be >= 1")
        if not (np.isfinite(self.l_min) and self.l_min > 0):
            raise ParameterError("l_min must be > 0")
        if not (np.isfinite(self.online_noise_kw) and self.online_noise_kw >= 0):
            raise ParameterError("online_noise_kw must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class FleetConfig:
    """A simulatable fleet: households, tariff, days to run, and mode."""

    households: tuple[Household, ...]
    pricing: PricingSignal
    days: tuple[datetime.date, ...]
    mode: str = "offline"
    recipe: dict | None = None

    def __post_init__(self):
        households = tuple(self.households)
        if not households:
            raise ParameterError("fleet needs at least one household")
        ids = [h.id for h in households]
        if len(set(ids)) != len(ids):
            raise ParameterError("household ids must be unique")
        object.__setattr__(self, "households", households)

        days = tuple(self.days)
        if not days:
            raise ParameterError("fleet needs at least one simulation day")
        for day in days:
            if not isinstance(day, datetime.date):
                raise ParameterError(f"simulation day {day!r} is not a date")
        if any(b <= a for a, b in zip(days, days[1:])):
            raise ParameterError("simulation days must be strictly increasing")
        object.__setattr__(self, "days", days)

        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")

    def household(self, household_id: str) -> Household:
        for h in self.households:
            if h.id == household_id:
                return h
        raise ParameterError(f"no household {household_id!r} in this fleet")


@dataclass(frozen=True, eq=False)
class DayResult:
    """One household-day outcome: curves, schedule and the tracked objective.

    ``after`` is grid consumption only; ``after_total`` additionally includes
    the PV/battery-supplied energy, so it is directly comparable to
    ``before`` on total appliance energy.
    """

    household_id: str
    day: datetime.date
    mode: str
    before: LoadCurve
    after: LoadCurve
    after_total: LoadCurve
    assignment: ScheduleAssignment
    objective: ObjectiveCurve
    predicted: LoadCurve


def _with_context(exc: LoadshiftError, context: str) -> LoadshiftError:
    message = f"{context}: {exc}"
    if isinstance(exc, InfeasibleProblemError):
        return InfeasibleProblemError(message, offenders=exc.offenders)
    if isinstance(exc, TrainingFailedError):
        return TrainingFailedError(message, trace=exc.trace)
    return type(exc)(message)


def _usable_history(
    records, day: datetime.date, window_days: int
) -> tuple[DailyRecord, ...]:
    past = sorted((r for r in records if r.day < day), key=lambda r: r.day)
    if len(past) < 3:
        raise DatasetTooSmallError(
            f"needs at least 3 history days before {day}, found {len(past)}"
        )
    past = past[-window_days:]
    if past[-1].day != day - datetime.timedelta(days=1):
        raise TemporalConsistencyError(
            f"history ends {past[-1].day}, cannot forecast {day}"
        )
    return tuple(past)


def _forecast_curve(history, day, params: RunParams, seed: int) -> LoadCurve:
    series = hourly_series_from_history(history, lag=params.lag)
    cfg = TrainingConfig(max_epochs=params.max_epochs, rng_seed=seed)
    result, _ = fit_series(series, cfg, hidden_size=params.hidden_size)
    return predict_day(result.network, series)


def run_day(
    household: Household,
    day: datetime.date,
    pricing: PricingSignal,
    mode: str = "offline",
    params: RunParams | None = None,
    seed: int = 0,
) -> DayResult:
    """Run the forecast -> objective -> schedule pipeline for one day.

    Raises:
        LoadshiftError subclasses from the underlying modules, re-raised with
        the household id and day prefixed to the message.
    """
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    params = params or RunParams()
    context = f"{household.id} {day.isoformat()}"
    try:
        return _run_day(household, day, pricing, mode, params, seed)
    except LoadshiftError as exc:
        raise _with_context(exc, context) from exc


def _run_day(household, day, pricing, mode, params, seed) -> DayResult:
    instances = household.instances()
    shiftable = [i for i in instances if i.kind == "shiftable"]
    fixed = [i for i in instances if i.kind == "fixed"]
    before = total_curve(instances, preferred_starts(instances))

    history = _usable_history(household.history, day, params.history_window_days)
    predicted = _forecast_curve(
        history, day, params, derive_seed(seed, household.id, day, "load")
    )
    model = fit_peak_regression(
        history, pricing, segment_count=params.segment_count, degree=params.degree
    )
    objective = build_objective(predicted, pricing, model, params.l_min, history=history)

    pv = household.pv
    if pv is not None and pv.history:
        pv_history = _usable_history(pv.history, day, params.history_window_days)
        generation = _forecast_curve(
            pv_history, day, params, derive_seed(seed, household.id, day, "pv")
        )
        pv = dataclasses.replace(pv, generation=generation.values)

    result = solve(instances, objective, pricing=pricing, pv=pv)
    assignment = result.assignment

    if mode == "online" and shiftable:
        assignment, objective = _replay_online(
            instances, shiftable, fixed, assignment, objective,
            predicted, pricing, pv, params, seed, household.id, day,
        )

    parts = split_consumption(instances, assignment.starts, assignment.pv_flags)
    return DayResult(
        household_id=household.id,
        day=day,
        mode=mode,
        before=before,
        after=parts.grid,
        after_total=parts.total,
        assignment=assignment,
        objective=objective,
        predicted=predicted,
    )


def _replay_online(
    instances, shiftable, fixed, assignment, objective,
    predicted, pricing, pv, params, seed, household_id, day,
):
    """Slot-by-slot replay: observe, update the objective, re-solve the rest.

    Runs already started keep their slots; only appliances whose starts lie
    ahead are reconsidered.  The re-solves see no PV: committed runs add
    their grid share under the day-ahead flags as a baseline, and open runs
    are costed as drawn entirely from the grid.  The final schedule then
    gets one fresh PV arbitration of its whole shiftable demand, which
    re-decides every slot, elapsed ones included, so the reported flags,
    battery trajectory and curves all follow the executed demand.
    """
    rng = np.random.default_rng(derive_seed(seed, household_id, day, "online"))
    noise = rng.normal(0.0, params.online_noise_kw, SLOT_COUNT)
    realized_full = np.maximum(predicted.values + noise, 0.0)

    starts = dict(assignment.starts)
    current = objective
    for slot_now in range(2, SLOT_COUNT + 1):
        open_instances = [i for i in shiftable if starts[i.instance_id] >= slot_now]
        if not open_instances:
            break
        current = update_online(current, realized_full[: slot_now - 1], pricing, slot_now)
        committed = [i for i in shiftable if starts[i.instance_id] < slot_now]
        committed_starts = {i.instance_id: starts[i.instance_id] for i in committed}
        baseline = split_consumption(
            committed, committed_starts, assignment.pv_flags
        ).grid.values
        partial = solve(
            open_instances + fixed, current, baseline=baseline, not_before=slot_now
        )
        for inst in open_instances:
            starts[inst.instance_id] = partial.assignment.starts[inst.instance_id]

    flags = None
    soc = None
    if pv is not None:
        max_duration = max((i.duration_slots for i in shiftable), default=0)
        arb = pv_arbitrate(pv, total_curve(shiftable, starts), pricing, max_duration)
        flags, soc = arb.flags, arb.soc
    return ScheduleAssignment(starts=starts, pv_flags=flags, battery_soc=soc), current


def run_fleet(
    config: FleetConfig,
    params: RunParams | None = None,
    seed: int = 0,
    workers: int = 1,
) -> tuple[DayResult, ...]:
    """Simulate every household over every configured day.

    Households are independent, so with ``workers > 1`` they run in a thread
    pool; results are merged in (household, day) order either way.
    """
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    params = params or RunParams()
    jobs = [(h, day) for h in config.households for day in config.days]

    def one(job):
        household, day = job
        return run_day(household, day, config.pricing, config.mode, params, seed)

    if workers == 1 or len(jobs) == 1:
        results = [one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, jobs))
    return tuple(sorted(results, key=lambda r: (r.household_id, r.day)))
