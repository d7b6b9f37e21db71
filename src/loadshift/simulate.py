"""Household and fleet simulation: forecast, objective, schedule, compare.

``run_day`` executes the full pipeline for one household and one day; the
"before" curve is every appliance at its preferred start drawing from the
grid, the "after" curve is the optimized schedule's grid consumption.  In
online mode the day is replayed slot by slot: each slot's realized
consumption (forecast plus seeded noise) updates the objective curve, and
appliances that have not started yet are re-solved against it.

Each household's load and PV forecasters are fitted once per calendar week,
on the history window before the week's anchor day (its Monday, or later
when the history starts later), and every day of the week is predicted by
that network from the curve of the day before it, the PV one giving the
generation ``solve`` and ``pv_arbitrate`` take.  A two-entry cache keyed
by the anchor window's records, epoch budget, seed and fit function keeps
the week's fits while one household's days run in order, so a day whose
fits are cached builds no hourly series.  A result or an error never
depends on what the cache holds, so ``run_day`` stays a pure function of
(household, day).

A ``Household`` and its ``PvSystem`` hold their histories sorted by day,
without repeats, so every window is a slice of one, checked from its ends:
the ``history_window_days`` days before the simulated day feed the peak
regression, the last of them the prediction input and the cap condition,
and the days before the week's anchor feed the fit.  A window must end the
day before its target day and may not skip a day.
``RunParams`` sets the window; the model's shape is fixed by the constants
of ``forecast`` and ``objective`` that it lists.
"""

from __future__ import annotations

import bisect
import contextlib
import datetime
import functools
import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    SLOT_COUNT,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    _whole_number,
    preferred_starts,
    split_consumption,
    total_curve,
)
from .errors import (
    DatasetTooSmallError,
    LoadshiftError,
    ParameterError,
    TemporalConsistencyError,
)
from .forecast import (
    NarNetwork,
    TrainingConfig,
    fit_series,
    hourly_series_from_history,
    predict_day,
)
from .objective import (
    SEGMENT_COUNT,
    ObjectiveCurve,
    build_objective,
    fit_peak_regression,
    update_online,
)
from .scheduler import ScheduleAssignment, pv_arbitrate, solve

MODES = ("offline", "online")


def derive_seed(base: int, *parts) -> int:
    """Stable per-task seed from a base seed and identifying strings."""
    text = ":".join([str(int(base)), *(str(p) for p in parts)])
    digest = hashlib.blake2s(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


# Std-dev (kW) of the seeded noise added to the load forecast to stand in
# for the realized consumption an online replay observes.
ONLINE_NOISE_KW = 0.05

# the fewest history days before a target day that a forecast takes, and the
# shortest window both a forecast and the peak regression accept
MIN_HISTORY_DAYS = 3
MIN_WINDOW_DAYS = max(MIN_HISTORY_DAYS, SEGMENT_COUNT + 1)


@dataclass(frozen=True)
class RunParams:
    """Pipeline knobs shared by every household in a run.

    ``max_epochs`` caps each forecaster's LM training; ``history_window_days``
    (at least ``MIN_WINDOW_DAYS``) caps how much history feeds training and
    the peak regression.  Module constants fix the rest: every forecaster has
    lag ``forecast.FORECAST_LAG`` and ``forecast.HIDDEN_UNITS`` hidden units,
    the peak regression is linear in ``objective.SEGMENT_COUNT`` off-peak
    segment means, the cap's threshold is ``objective.L_MIN_KW``, online
    replays observe noise of std-dev ``ONLINE_NOISE_KW``, and every solve
    minimizes the squared deviation from the objective alone.
    """

    max_epochs: int = 60
    history_window_days: int = 120

    def __post_init__(self):
        for name, least in (("max_epochs", 1), ("history_window_days", MIN_WINDOW_DAYS)):
            object.__setattr__(self, name, _whole_number(getattr(self, name), least, name))


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


@dataclass(frozen=True, eq=False)
class DayResult:
    """One household-day outcome: curves, schedule and the tracked objective.

    ``after`` is grid consumption only; ``after_total`` additionally includes
    the PV/battery-supplied energy, so it is directly comparable to
    ``before`` on total appliance energy.
    """

    household_id: str
    day: datetime.date
    before: LoadCurve
    after: LoadCurve
    after_total: LoadCurve
    assignment: ScheduleAssignment
    objective: ObjectiveCurve
    predicted: LoadCurve


_record_day = operator.attrgetter("day")
_ONE_DAY = datetime.timedelta(days=1)


def _usable_history(
    ordered: tuple[DailyRecord, ...], day: datetime.date, window_days: int
) -> tuple[DailyRecord, ...]:
    """The last ``window_days`` records before ``day`` of a day-sorted history
    without repeats, so they skip no day iff their ends are ``len - 1`` days apart."""
    past = ordered[: bisect.bisect_left(ordered, day, key=_record_day)]
    if len(past) < MIN_HISTORY_DAYS:
        raise DatasetTooSmallError(
            f"needs at least {MIN_HISTORY_DAYS} history days before {day}, found {len(past)}"
        )
    past = past[-window_days:]
    if past[-1].day != day - _ONE_DAY:
        raise TemporalConsistencyError(f"history ends {past[-1].day}, cannot forecast {day}")
    if (past[-1].day - past[0].day).days != len(past) - 1:
        gap = next((a.day, b.day) for a, b in zip(past, past[1:]) if b.day - a.day != _ONE_DAY)
        raise TemporalConsistencyError("history days not consecutive: %s -> %s" % gap)
    return past


def _week_anchor(ordered: tuple[DailyRecord, ...], day: datetime.date) -> datetime.date:
    """The day whose forecaster serves ``day``: the Monday of its week, or
    the first day with enough history before it when the history starts later.

    ``ordered`` is a day-sorted history, and ``day`` itself must have
    ``MIN_HISTORY_DAYS`` history days before it, as ``_usable_history`` checks.
    """
    monday = day - datetime.timedelta(days=day.weekday())
    return max(monday, ordered[MIN_HISTORY_DAYS - 1].day + _ONE_DAY)


# two entries: a household's load and PV forecasters; a NarNetwork is
# immutable, so every day of the week can share the cached one.  The key is
# the anchor window's records themselves: a ``DailyRecord`` is immutable and
# hashes by identity, so the week's later days find the fit without building
# the window's series.  ``fit`` is part of the key, so a substituted or
# wrapped ``fit_series`` (a test stub, a tracer) never gets a network fitted
# without it.
@functools.lru_cache(maxsize=2)
def _fit_network(window: tuple[DailyRecord, ...], max_epochs: int, seed: int, fit) -> NarNetwork:
    series = hourly_series_from_history(window)
    result, _ = fit(series, TrainingConfig(max_epochs=max_epochs, rng_seed=seed))
    return result.network


def _forecast_curve(ordered, window, day, params: RunParams, seed, household_id, kind):
    """Day-ahead curve for ``day`` from the forecaster of its week.

    ``ordered`` is the series' day-sorted history and ``window`` its checked
    ``history_window_days`` before ``day`` (``_usable_history``).  The
    network is fitted on the ``history_window_days`` before the week's
    anchor (``_week_anchor``) with seed
    ``derive_seed(seed, household_id, anchor, kind)``, then predicts ``day``
    from ``window[-1].curve``, the day before it.  The anchor's window is
    checked before the cache is looked up.  The fit depends only on the
    anchor's window and seed, so the cache that lets the week's later days
    reuse it never changes a result.
    """
    anchor = _week_anchor(ordered, day)
    fit_window = _usable_history(ordered, anchor, params.history_window_days)
    network = _fit_network(
        fit_window,
        params.max_epochs,
        derive_seed(seed, household_id, anchor, kind),
        fit_series,
    )
    return predict_day(network, window[-1].curve)


def run_day(
    household: Household,
    day: datetime.date,
    pricing: PricingSignal,
    mode: str = "offline",
    params: RunParams | None = None,
    seed: int = 0,
) -> DayResult:
    """Run the forecast -> objective -> schedule pipeline for one day.

    The forecasts come from the networks of ``day``'s week, fitted on the
    history before the week's anchor day (see ``_forecast_curve``); the
    peak regression uses the history before ``day``, the cap its last day.
    Running the same household's days of one week in a row fits each
    network once; any order gives the same results.

    Raises:
        LoadshiftError subclasses from the underlying modules, with the
        household id and day prefixed to the message in place.
    """
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    params = params or RunParams()
    with _labelled(household.id, day):
        return _run_day(household, day, pricing, mode, params, seed)


@contextlib.contextmanager
def _labelled(household_id: str, day: datetime.date):
    """Prefix ``"<household_id> <day>: "`` to a ``LoadshiftError``'s message in place."""
    try:
        yield
    except LoadshiftError as exc:
        exc.args = (f"{household_id} {day.isoformat()}: {exc}",)
        raise


def _run_day(household, day, pricing, mode, params, seed) -> DayResult:
    instances = household.instances()
    shiftable = [i for i in instances if i.kind == "shiftable"]
    fixed = [i for i in instances if i.kind == "fixed"]
    before = total_curve(instances, preferred_starts(instances))

    history = _usable_history(household.history, day, params.history_window_days)
    predicted = _forecast_curve(household.history, history, day, params, seed, household.id, "load")
    model = fit_peak_regression(history, pricing)
    objective = build_objective(predicted, pricing, model, history[-1].curve)

    pv = household.pv
    generation = None
    if pv is not None:
        pv_window = _usable_history(pv.history, day, params.history_window_days)
        generation = _forecast_curve(pv.history, pv_window, day, params, seed, household.id, "pv")

    result = solve(instances, objective, pricing=pricing, pv=pv, generation=generation)
    assignment = result.assignment

    if mode == "online" and shiftable:
        assignment, objective = _replay_online(
            shiftable, fixed, assignment, objective, predicted, model,
            history[-1].curve, pricing, pv, generation, seed, household.id, day,
        )

    parts = split_consumption(instances, assignment.starts, assignment.pv_flags)
    return DayResult(
        household_id=household.id,
        day=day,
        before=before,
        after=parts.grid,
        after_total=parts.total,
        assignment=assignment,
        objective=objective,
        predicted=predicted,
    )


def _replay_online(
    shiftable, fixed, assignment, objective, predicted, model,
    previous_day, pricing, pv, generation, seed, household_id, day,
):
    """Slot-by-slot replay: observe, update the objective, re-solve the rest.

    Before each re-solve the objective is rebuilt from the day-ahead inputs
    (forecast, regression ``model`` and ``previous_day``) plus the realized
    prefix; the cap is conditioned on ``previous_day`` with that prefix
    overlaid.  The returned objective is the last refresh, or
    the day-ahead ``objective`` when nothing was left to re-solve.

    Runs already started keep their slots; only appliances whose starts lie
    ahead are reconsidered.  The re-solves see no PV: committed runs add
    their grid share under the day-ahead flags as a baseline, and open runs
    are costed as drawn entirely from the grid.  The final schedule then
    gets one fresh PV arbitration of its whole shiftable demand against
    ``generation``, which re-decides every slot, elapsed ones included, so
    the reported flags and curves follow the executed demand.
    """
    rng = np.random.default_rng(derive_seed(seed, household_id, day, "online"))
    noise = rng.normal(0.0, ONLINE_NOISE_KW, SLOT_COUNT)
    realized = np.maximum(predicted.values + noise, 0.0)

    starts = dict(assignment.starts)
    current = objective
    for slot_now in range(2, SLOT_COUNT + 1):
        open_instances = [i for i in shiftable if starts[i.instance_id] >= slot_now]
        if not open_instances:
            break
        current = update_online(predicted, pricing, model, previous_day, realized[: slot_now - 1])
        committed = [i for i in shiftable if starts[i.instance_id] < slot_now]
        committed_starts = {i.instance_id: starts[i.instance_id] for i in committed}
        baseline = split_consumption(committed, committed_starts, assignment.pv_flags).grid
        partial = solve(
            open_instances + fixed, current, baseline=baseline, not_before=slot_now
        )
        for inst in open_instances:
            starts[inst.instance_id] = partial.assignment.starts[inst.instance_id]

    flags = None
    if pv is not None:
        longest = max(i.duration_slots for i in shiftable)
        flags = pv_arbitrate(pv, generation, total_curve(shiftable, starts), pricing, longest).flags
    return ScheduleAssignment(starts=starts, pv_flags=flags), current


def run_fleet(
    config: FleetConfig,
    params: RunParams | None = None,
    seed: int = 0,
) -> tuple[DayResult, ...]:
    """Simulate every household over every configured day.

    Results are sorted by (household id, day), whatever the order of
    ``config.households``.  Every load and PV window that ``run_day`` reads,
    the day's and its week anchor's, is checked before the first fit, with
    ``run_day``'s message.
    """
    params = params or RunParams()
    for household in config.households:
        series = [household.history] + ([] if household.pv is None else [household.pv.history])
        for day in config.days:
            with _labelled(household.id, day):
                for ordered in series:
                    _usable_history(ordered, day, params.history_window_days)
                    anchor = _week_anchor(ordered, day)
                    _usable_history(ordered, anchor, params.history_window_days)
    results = [
        run_day(household, day, config.pricing, config.mode, params, seed)
        for household in config.households
        for day in config.days
    ]
    return tuple(sorted(results, key=lambda r: (r.household_id, r.day)))
