"""Seeded synthetic fleets: households, yearly history, tariff and PV.

The generator stands in for real utility data.  Households carry a mix of
appliance archetypes whose preferred starts sit in the evening price peak,
while their historical runs are placed diffusely across the day, the way
usage looks before any price signal exists.  History curves combine a
morning/evening ambient shape with those sampled runs and are scaled to a
daily energy target; PV generation is a daylight bell capped at the panel
rating, zero at night.

The calendar, tariff and PV sizing are module constants, not recipe fields:
the archetypes' preferred starts are chosen inside ``PEAK_WINDOW``.
"""

from __future__ import annotations

import dataclasses
import datetime
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    SLOT_COUNT,
    SLOT_HOURS,
    ApplianceSpec,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    PvSystem,
    _real,
    _whole_number,
)
from .errors import ParameterError
from .simulate import MODES, FleetConfig, derive_seed

START_DAY = datetime.date(2025, 1, 1)  # the first history day
PEAK_WINDOW = (35, 44)  # inclusive slots, 17:00-22:00
PEAK_PRICE = 0.30
OFF_PEAK_PRICE = 0.10
PV_PEAK_KW = 1.0  # panel rating
BATTERY_CAPACITY_KWH = 4.0
BATTERY_SOC_KWH = 2.0  # charge at the start of each day
CHARGE_RATE_KW = 1.5
CHARGE_EFFICIENCY = 0.9


@dataclass(frozen=True)
class Archetype:
    """Template for one appliance type, including its habitual-usage odds."""

    kind: str
    power_kw: float
    duration_slots: int
    window: tuple[int, int]
    preferred_start: int
    max_shift: int
    daily_use_probability: float


# shiftable preferred starts lie inside PEAK_WINDOW; windows leave room to
# escape it in at least one direction
ARCHETYPES: dict[str, Archetype] = {
    "air_conditioner": Archetype("shiftable", 1.5, 6, (26, 48), 35, 10, 0.75),
    "dishwasher": Archetype("shiftable", 1.0, 3, (20, 48), 37, 10, 0.85),
    "laundry_machine": Archetype("shiftable", 0.8, 4, (18, 46), 36, 12, 0.80),
    "iron": Archetype("shiftable", 1.2, 2, (28, 48), 40, 8, 0.70),
    "refrigerator": Archetype("fixed", 0.12, 48, (1, 48), 1, 0, 1.0),
    "lamp": Archetype("fixed", 0.15, 10, (36, 45), 36, 0, 1.0),
}

DEFAULT_MIX = {
    "refrigerator": 1.0,
    "lamp": 1.0,
    "air_conditioner": 0.6,
    "dishwasher": 0.85,
    "laundry_machine": 0.8,
    "iron": 0.7,
}


@dataclass(frozen=True)
class SyntheticRecipe:
    """What a fleet varies besides the seed; checked before any household is generated."""

    household_count: int = 50
    appliance_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    daily_energy_kwh: float = 16.0
    history_days: int = 364
    simulated_days: int = 1
    mode: str = "offline"
    pv_fraction: float = 1.0

    def __post_init__(self):
        for name, least in (("household_count", 1), ("history_days", 5), ("simulated_days", 1)):
            object.__setattr__(self, name, _whole_number(getattr(self, name), least, name))
        if not isinstance(self.appliance_mix, Mapping):
            raise ParameterError(f"appliance_mix must be a mapping, got {self.appliance_mix!r}")
        mix = {}
        for name, probability in self.appliance_mix.items():
            if name not in ARCHETYPES:
                known = ", ".join(sorted(ARCHETYPES))
                raise ParameterError(f"appliance_mix: unknown archetype {name!r}; known: {known}")
            mix[name] = _real(probability, f"appliance_mix[{name!r}]")
            if not 0.0 <= mix[name] <= 1.0:
                raise ParameterError(f"inclusion probability for {name} must be in [0, 1]")
        object.__setattr__(self, "appliance_mix", mix)
        for name in ("daily_energy_kwh", "pv_fraction"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 0.0 < self.daily_energy_kwh < np.inf:
            raise ParameterError("daily_energy_kwh must be finite and > 0")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.pv_fraction <= 1.0:
            raise ParameterError("pv_fraction must be in [0, 1]")

    def pricing(self) -> PricingSignal:
        prices = np.full(SLOT_COUNT, OFF_PEAK_PRICE)
        prices[PEAK_WINDOW[0] - 1 : PEAK_WINDOW[1]] = PEAK_PRICE
        return PricingSignal(prices=prices, peak_windows=(PEAK_WINDOW,))

    def simulation_days(self) -> tuple[datetime.date, ...]:
        first = START_DAY + datetime.timedelta(days=self.history_days)
        return tuple(first + datetime.timedelta(days=i) for i in range(self.simulated_days))


def recipe_to_dict(recipe: SyntheticRecipe, seed: int) -> dict:
    return {**dataclasses.asdict(recipe), "seed": int(seed)}


def _appliance_from(name: str, archetype: Archetype, power_scale: float) -> ApplianceSpec:
    return ApplianceSpec(
        id=name,
        kind=archetype.kind,
        power_profile=np.full(archetype.duration_slots, archetype.power_kw * power_scale),
        duration_slots=archetype.duration_slots,
        window_start=archetype.window[0],
        window_end=archetype.window[1],
        preferred_start=archetype.preferred_start,
        max_shift=archetype.max_shift,
        count=1,
    )


def _ambient_shape() -> np.ndarray:
    idx = np.arange(SLOT_COUNT, dtype=float)
    shape = np.full(SLOT_COUNT, 0.28)
    shape += 0.65 * np.exp(-0.5 * ((idx - 15.0) / 2.5) ** 2)  # morning
    shape += 0.35 * np.exp(-0.5 * ((idx - 25.0) / 6.0) ** 2)  # midday
    shape += 0.60 * np.exp(-0.5 * ((idx - 38.0) / 3.0) ** 2)  # evening
    return shape


_SHAPE = _ambient_shape()
_SHAPE_ENERGY = float(_SHAPE.sum() * SLOT_HOURS)


def _habit_start(rng, archetype: Archetype) -> int:
    """Sample a historical start: mostly ending before the peak, sometimes not."""
    lo = archetype.window[0]
    hi = archetype.window[1] - archetype.duration_slots + 1
    early_hi = min(hi, PEAK_WINDOW[0] - archetype.duration_slots)
    if early_hi >= lo and rng.random() < 0.9:
        return int(rng.integers(lo, early_hi + 1))
    return int(rng.integers(lo, hi + 1))


def _history_day(rng, specs, recipe, day_index: int) -> LoadCurve:
    season = 1.0 + 0.10 * np.cos(2.0 * np.pi * (day_index - 20) / 365.25)
    target = recipe.daily_energy_kwh * season * float(
        np.clip(rng.normal(1.0, 0.06), 0.75, 1.25)
    )

    runs = np.zeros(SLOT_COUNT)
    for spec in specs:
        archetype = ARCHETYPES[spec.id]
        if rng.random() >= archetype.daily_use_probability:
            continue
        if spec.kind == "fixed":
            start = spec.preferred_start
        else:
            start = _habit_start(rng, archetype)
        runs[start - 1 : start - 1 + spec.duration_slots] += spec.power_profile
    run_energy = float(runs.sum() * SLOT_HOURS)

    # floor keeps a continuous base signal even when appliance runs alone
    # exceed the target; 10% is small enough not to bias the calibration
    ambient_energy = max(target - run_energy, 0.10 * target)
    ambient = _SHAPE * (ambient_energy / _SHAPE_ENERGY)
    ambient = ambient * np.clip(1.0 + 0.07 * rng.standard_normal(SLOT_COUNT), 0.3, 1.7)
    return LoadCurve(np.maximum(ambient + runs, 0.0))


def _pv_day(rng) -> LoadCurve:
    gen = np.zeros(SLOT_COUNT)
    daylight = np.arange(14, 39)  # 07:00 through 19:30
    x = (daylight - 13) / 26.0
    bell = np.sin(np.pi * x) ** 2
    weather = rng.uniform(0.5, 1.0)
    texture = 1.0 - 0.2 * rng.uniform(size=daylight.size)
    gen[daylight] = PV_PEAK_KW * weather * bell * texture
    return LoadCurve(gen)


def generate_fleet(recipe: SyntheticRecipe, seed: int = 0) -> FleetConfig:
    """Build a seeded fleet with history; identical seeds give identical fleets."""
    households = []
    for i in range(recipe.household_count):
        hid = f"h{i + 1:03d}"
        rng = np.random.default_rng(derive_seed(seed, "household", hid))

        specs = []
        for name, archetype in ARCHETYPES.items():
            if rng.random() < recipe.appliance_mix.get(name, 0.0):
                scale = float(rng.uniform(0.85, 1.15))
                specs.append(_appliance_from(name, archetype, scale))
        if not specs:
            raise ParameterError("appliance_mix left a household empty; raise the probabilities")

        # habitual behaviour continues through the simulation span (minus its
        # last day), so every simulated day can train on data ending the day
        # before it; each day still sees only its own past
        covered = recipe.history_days + recipe.simulated_days - 1
        days = [START_DAY + datetime.timedelta(days=d) for d in range(covered)]
        history = tuple(
            DailyRecord(day, _history_day(rng, specs, recipe, d)) for d, day in enumerate(days)
        )

        pv = None
        if rng.random() < recipe.pv_fraction:
            pv_history = tuple(DailyRecord(day, _pv_day(rng)) for day in days)
            pv = PvSystem(
                battery_capacity=BATTERY_CAPACITY_KWH,
                battery_soc=BATTERY_SOC_KWH,
                charge_rate=CHARGE_RATE_KW,
                charge_efficiency=CHARGE_EFFICIENCY,
                history=pv_history,
            )

        households.append(Household(id=hid, appliances=tuple(specs), pv=pv, history=history))

    return FleetConfig(
        households=tuple(households),
        pricing=recipe.pricing(),
        days=recipe.simulation_days(),
        mode=recipe.mode,
        recipe=recipe_to_dict(recipe, seed),
    )
