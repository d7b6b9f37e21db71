"""Domain model for daily load scheduling on a half-hour grid.

A day is 48 half-hour slots, numbered 1..48 in every public interface (slot 1
is 00:00-00:30).  Internally numpy arrays are 0-based; conversion happens at
the dataclass boundary.  Power values are kW per slot; the energy carried by
one slot is ``value_kw * 0.5`` kWh.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, ParameterError, PlacementError, UndefinedMetricError

SLOT_COUNT = 48
SLOT_MINUTES = 30
SLOT_HOURS = SLOT_MINUTES / 60.0

APPLIANCE_KINDS = ("fixed", "shiftable")


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LoadCurve:
    """One day of per-slot power values (kW), immutable.

    Args:
        values: 48 finite, non-negative floats.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (SLOT_COUNT,):
            raise FormatError(f"load curve needs {SLOT_COUNT} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("load curve contains non-finite values")
        if np.any(arr < 0):
            raise ParameterError("load curve contains negative power")
        object.__setattr__(self, "values", _readonly(arr))

    @classmethod
    def zeros(cls) -> "LoadCurve":
        return cls(np.zeros(SLOT_COUNT))

    def energy_kwh(self) -> float:
        """Total energy under the curve for the day."""
        return float(self.values.sum() * SLOT_HOURS)

    def __add__(self, other: "LoadCurve") -> "LoadCurve":
        if not isinstance(other, LoadCurve):
            return NotImplemented
        return LoadCurve(self.values + other.values)


@dataclass(frozen=True, eq=False)
class DailyRecord:
    """A dated daily curve, the unit of consumption/generation history."""

    day: datetime.date
    curve: LoadCurve

    def __post_init__(self):
        if not isinstance(self.day, datetime.date):
            raise FormatError(f"day must be a date, got {type(self.day).__name__}")
        if not isinstance(self.curve, LoadCurve):
            object.__setattr__(self, "curve", LoadCurve(self.curve))


@dataclass(frozen=True, eq=False)
class ApplianceSpec:
    """A household appliance type and its scheduling constraints.

    Args:
        id: unique name within the household.
        kind: "fixed" (runs at the preferred start, always) or "shiftable".
        power_profile: kW drawn in each occupied slot, length ``duration_slots``.
        duration_slots: number of consecutive slots one run occupies.
        window_start, window_end: permitted window (external slots, inclusive).
        preferred_start: the customer's preferred start slot.
        max_shift: the most slots a run may start away from
            ``preferred_start``, in either direction; 0 for a fixed appliance.
        count: number of identical instances of this appliance.
    """

    id: str
    kind: str
    power_profile: np.ndarray
    duration_slots: int
    window_start: int
    window_end: int
    preferred_start: int
    max_shift: int
    count: int = 1

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ParameterError("appliance id must be a non-empty string")
        if self.kind not in APPLIANCE_KINDS:
            raise ParameterError(f"appliance {self.id}: unknown kind {self.kind!r}")
        if int(self.duration_slots) != self.duration_slots or self.duration_slots < 1:
            raise ParameterError(f"appliance {self.id}: duration must be a positive integer")
        object.__setattr__(self, "duration_slots", int(self.duration_slots))

        profile = np.asarray(self.power_profile, dtype=float)
        if profile.shape != (self.duration_slots,):
            raise FormatError(
                f"appliance {self.id}: power profile length {profile.shape} "
                f"!= duration {self.duration_slots}"
            )
        if not np.all(np.isfinite(profile)) or np.any(profile < 0):
            raise ParameterError(f"appliance {self.id}: power profile must be finite and >= 0")
        object.__setattr__(self, "power_profile", _readonly(profile))

        ws, we, pref = int(self.window_start), int(self.window_end), int(self.preferred_start)
        object.__setattr__(self, "window_start", ws)
        object.__setattr__(self, "window_end", we)
        object.__setattr__(self, "preferred_start", pref)
        if not (1 <= ws <= we <= SLOT_COUNT):
            raise ParameterError(f"appliance {self.id}: window [{ws},{we}] outside the day")
        if we - ws + 1 < self.duration_slots:
            raise ParameterError(f"appliance {self.id}: window shorter than one run")
        if not (ws <= pref <= we - self.duration_slots + 1):
            raise ParameterError(
                f"appliance {self.id}: preferred start {pref} does not fit window [{ws},{we}]"
            )

        if int(self.max_shift) != self.max_shift or self.max_shift < 0:
            raise ParameterError(f"appliance {self.id}: max_shift must be an integer >= 0")
        object.__setattr__(self, "max_shift", int(self.max_shift))

        if int(self.count) != self.count or self.count < 1:
            raise ParameterError(f"appliance {self.id}: count must be a positive integer")
        object.__setattr__(self, "count", int(self.count))

        if self.kind == "fixed":
            # a fixed appliance is a degenerate shiftable one: window == run, no shift
            if (ws, we) != (pref, pref + self.duration_slots - 1):
                raise ParameterError(
                    f"appliance {self.id}: fixed appliance window must equal its run"
                )
            if self.max_shift:
                raise ParameterError(
                    f"appliance {self.id}: fixed appliance cannot permit shifts"
                )

    def energy_kwh(self) -> float:
        return float(self.power_profile.sum() * SLOT_HOURS)


@dataclass(frozen=True, eq=False)
class ApplianceInstance:
    """One schedulable run of an appliance (specs with count > 1 expand to many)."""

    instance_id: str
    type_id: str
    kind: str
    power_profile: np.ndarray
    duration_slots: int
    window_start: int
    window_end: int
    preferred_start: int
    max_shift: int

    def energy_kwh(self) -> float:
        return float(np.sum(self.power_profile) * SLOT_HOURS)


def expand_instances(specs: Sequence[ApplianceSpec]) -> tuple[ApplianceInstance, ...]:
    """Expand appliance specs into individually schedulable instances.

    A spec with ``count == 1`` keeps its id; larger counts get ``id#1 .. id#n``.
    """
    instances = []
    for spec in specs:
        for k in range(spec.count):
            name = spec.id if spec.count == 1 else f"{spec.id}#{k + 1}"
            instances.append(
                ApplianceInstance(
                    instance_id=name,
                    type_id=spec.id,
                    kind=spec.kind,
                    power_profile=spec.power_profile,
                    duration_slots=spec.duration_slots,
                    window_start=spec.window_start,
                    window_end=spec.window_end,
                    preferred_start=spec.preferred_start,
                    max_shift=spec.max_shift,
                )
            )
    return tuple(instances)


def preferred_starts(instances: Iterable[ApplianceInstance]) -> dict[str, int]:
    """The do-nothing schedule: every instance at its preferred start."""
    return {inst.instance_id: inst.preferred_start for inst in instances}


@dataclass(frozen=True, eq=False)
class PricingSignal:
    """Per-slot tariff with declared peak windows.

    Args:
        prices: 48 positive per-kWh prices.
        peak_windows: inclusive (start, end) slot pairs; must not overlap.
    """

    prices: np.ndarray
    peak_windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.shape != (SLOT_COUNT,):
            raise FormatError(f"pricing needs {SLOT_COUNT} prices, got shape {prices.shape}")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0):
            raise ParameterError("prices must be finite and > 0")
        object.__setattr__(self, "prices", _readonly(prices))

        windows = tuple(sorted((int(a), int(b)) for a, b in self.peak_windows))
        for start, end in windows:
            if not (1 <= start <= end <= SLOT_COUNT):
                raise ParameterError(f"peak window [{start},{end}] outside the day")
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            if next_start <= prev_end:
                raise ParameterError("peak windows overlap")
        object.__setattr__(self, "peak_windows", windows)

    def peak_mask(self) -> np.ndarray:
        """Boolean array over slot indices, True inside a peak window."""
        mask = np.zeros(SLOT_COUNT, dtype=bool)
        for start, end in self.peak_windows:
            mask[start - 1 : end] = True
        return mask


@dataclass(frozen=True, eq=False)
class PvSystem:
    """Rooftop PV with a battery in line.

    Args:
        generation: per-slot generation forecast for the day (kW, >= 0).
        battery_capacity: usable battery capacity (kWh).
        battery_soc: charge held at the start of the day (kWh), in
            [0, capacity].  ``pv_arbitrate`` derives the per-slot trajectory.
        charge_rate: charging power used to estimate time-to-full (kW).
        charge_efficiency: fraction of generated energy that reaches the
            battery, in (0, 1].
        history: dated generation curves, used to forecast ``generation``.
    """

    generation: np.ndarray
    battery_capacity: float
    battery_soc: float = 0.0
    charge_rate: float = 1.0
    charge_efficiency: float = 0.95
    history: tuple[DailyRecord, ...] = ()

    def __post_init__(self):
        gen = np.asarray(self.generation, dtype=float)
        if gen.shape != (SLOT_COUNT,):
            raise FormatError(f"generation needs {SLOT_COUNT} values, got shape {gen.shape}")
        if not np.all(np.isfinite(gen)) or np.any(gen < 0):
            raise ParameterError("generation must be finite and >= 0")
        object.__setattr__(self, "generation", _readonly(gen))

        if not (np.isfinite(self.battery_capacity) and self.battery_capacity > 0):
            raise ParameterError("battery capacity must be > 0")
        object.__setattr__(self, "battery_capacity", float(self.battery_capacity))

        if np.ndim(self.battery_soc) != 0:
            raise FormatError("battery soc must be a scalar: the charge at the start of the day")
        soc = float(self.battery_soc)
        if not 0 <= soc <= self.battery_capacity:
            raise ParameterError("battery soc must lie in [0, capacity]")
        object.__setattr__(self, "battery_soc", soc)

        if not (np.isfinite(self.charge_rate) and self.charge_rate > 0):
            raise ParameterError("charge rate must be > 0")
        if not (0 < self.charge_efficiency <= 1):
            raise ParameterError("charge efficiency must be in (0, 1]")
        object.__setattr__(self, "history", tuple(self.history))


@dataclass(frozen=True, eq=False)
class Household:
    """One customer: appliances, optional PV system, consumption history."""

    id: str
    appliances: tuple[ApplianceSpec, ...]
    pv: PvSystem | None = None
    history: tuple[DailyRecord, ...] = ()

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ParameterError("household id must be a non-empty string")
        appliances = tuple(self.appliances)
        if not appliances:
            raise ParameterError(f"household {self.id}: needs at least one appliance")
        ids = [a.id for a in appliances]
        if len(set(ids)) != len(ids):
            raise ParameterError(f"household {self.id}: duplicate appliance ids")
        object.__setattr__(self, "appliances", appliances)
        object.__setattr__(self, "history", tuple(self.history))

    def instances(self) -> tuple[ApplianceInstance, ...]:
        return expand_instances(self.appliances)


def total_curve(
    instances: Sequence[ApplianceInstance], starts: Mapping[str, int]
) -> LoadCurve:
    """Aggregate consumption of the given placements.

    Args:
        instances: appliance instances to place.
        starts: external start slot per instance id.

    Returns:
        The summed load curve.

    Raises:
        PlacementError: an instance has no start, or its run leaves the grid.
            Window and shift-cap violations are the scheduler validator's job,
            not this function's.
    """
    values = np.zeros(SLOT_COUNT)
    for inst in instances:
        try:
            start = int(starts[inst.instance_id])
        except KeyError:
            raise PlacementError(f"no start slot for appliance {inst.instance_id}") from None
        first = start - 1
        last = first + inst.duration_slots
        if first < 0 or last > SLOT_COUNT:
            raise PlacementError(
                f"appliance {inst.instance_id}: run at slot {start} leaves the day grid"
            )
        values[first:last] += inst.power_profile
    return LoadCurve(values)


@dataclass(frozen=True, eq=False)
class ConsumptionBreakdown:
    """Scheduled consumption split by category and by supply source."""

    total: LoadCurve
    fixed: LoadCurve
    shiftable: LoadCurve
    grid: LoadCurve
    pv: LoadCurve


def split_consumption(
    instances: Sequence[ApplianceInstance],
    starts: Mapping[str, int],
    pv_flags: np.ndarray | None = None,
) -> ConsumptionBreakdown:
    """Split placed consumption into fixed/shiftable and grid/PV components.

    In a flagged slot the PV/battery supplies the shiftable demand; fixed
    demand always comes from the grid.
    """
    fixed = total_curve([i for i in instances if i.kind == "fixed"], starts)
    shiftable = total_curve([i for i in instances if i.kind == "shiftable"], starts)
    total = fixed + shiftable
    if pv_flags is None:
        pv_values = np.zeros(SLOT_COUNT)
    else:
        flags = np.asarray(pv_flags, dtype=bool)
        if flags.shape != (SLOT_COUNT,):
            raise FormatError(f"pv_flags needs {SLOT_COUNT} entries")
        pv_values = np.where(flags, shiftable.values, 0.0)
    pv = LoadCurve(pv_values)
    grid = LoadCurve(total.values - pv.values)
    return ConsumptionBreakdown(total=total, fixed=fixed, shiftable=shiftable, grid=grid, pv=pv)


def load_factor(curve: LoadCurve) -> float:
    """Mean-to-peak ratio of a daily curve.

    Raises:
        UndefinedMetricError: all-zero curve (no peak to divide by).
    """
    peak = float(curve.values.max())
    if peak == 0.0:
        raise UndefinedMetricError("load factor undefined for an all-zero curve")
    return float(curve.values.mean()) / peak


def bill(curve: LoadCurve | np.ndarray, pricing: PricingSignal) -> float:
    """Daily cost of a curve under a tariff: sum(kW * 0.5h * price)."""
    values = curve.values if isinstance(curve, LoadCurve) else np.asarray(curve, dtype=float)
    if values.shape != (SLOT_COUNT,):
        raise FormatError(
            f"bill needs a {SLOT_COUNT}-slot curve, got shape {values.shape}"
        )
    return float(np.sum(values * SLOT_HOURS * pricing.prices))
