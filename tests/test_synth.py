"""Synthetic fleet generator: determinism, calibration, PV plausibility."""

import dataclasses
import datetime
import json

import numpy as np
import pytest

from loadshift.errors import ParameterError
from loadshift.synth import (
    ARCHETYPES,
    OFF_PEAK_PRICE,
    PEAK_PRICE,
    PEAK_WINDOW,
    PV_PEAK_KW,
    START_DAY,
    SyntheticRecipe,
    _habit_start,
    generate_fleet,
    recipe_to_dict,
)


def small_recipe(**overrides):
    base = dict(
        household_count=3,
        history_days=10,
        simulated_days=1,
        daily_energy_kwh=12.0,
        pv_fraction=1.0,
    )
    base.update(overrides)
    return SyntheticRecipe(**base)


def test_same_seed_is_bit_identical():
    a = generate_fleet(small_recipe(), seed=42)
    b = generate_fleet(small_recipe(), seed=42)
    assert [h.id for h in a.households] == [h.id for h in b.households]
    for ha, hb in zip(a.households, b.households):
        assert [s.id for s in ha.appliances] == [s.id for s in hb.appliances]
        for sa, sb in zip(ha.appliances, hb.appliances):
            assert np.array_equal(sa.power_profile, sb.power_profile)
        for ra, rb in zip(ha.history, hb.history):
            assert ra.day == rb.day
            assert np.array_equal(ra.curve.values, rb.curve.values)
        assert (ha.pv is None) == (hb.pv is None)
        if ha.pv is not None:
            for ra, rb in zip(ha.pv.history, hb.pv.history):
                assert np.array_equal(ra.curve.values, rb.curve.values)


def test_different_seeds_differ():
    a = generate_fleet(small_recipe(), seed=1)
    b = generate_fleet(small_recipe(), seed=2)
    assert not np.array_equal(
        a.households[0].history[0].curve.values,
        b.households[0].history[0].curve.values,
    )


def test_households_are_seed_stable_regardless_of_count():
    # adding households must not disturb the ones already generated
    small = generate_fleet(small_recipe(household_count=2), seed=9)
    large = generate_fleet(small_recipe(household_count=4), seed=9)
    for ha, hb in zip(small.households, large.households):
        assert ha.id == hb.id
        for ra, rb in zip(ha.history, hb.history):
            assert np.array_equal(ra.curve.values, rb.curve.values)


def test_pv_traces_stay_inside_the_panel_rating():
    fleet = generate_fleet(small_recipe(), seed=5)
    night = np.r_[0:14, 39:48]  # external slots 1-14 and 40-48
    for household in fleet.households:
        assert household.pv is not None
        for record in household.pv.history:
            values = record.curve.values
            assert np.all(values >= 0.0)
            assert np.all(values <= PV_PEAK_KW + 1e-12)
            assert np.all(values[night] == 0.0)
            assert values.max() > 0.0  # some sun every day


def test_fleet_daily_energy_matches_the_target():
    # annual mean, so the seasonal swing cancels; two seeds guard against a fluke
    recipe = small_recipe(household_count=6, history_days=364)
    energies = [
        record.curve.energy_kwh()
        for seed in (7, 8)
        for household in generate_fleet(recipe, seed=seed).households
        for record in household.history
    ]
    mean = float(np.mean(energies))
    assert abs(mean - recipe.daily_energy_kwh) / recipe.daily_energy_kwh < 0.10


def test_unknown_archetype_is_rejected():
    with pytest.raises(ParameterError, match=r"^appliance_mix: unknown archetype 'sauna'"):
        small_recipe(appliance_mix={"sauna": 1.0})


def test_empty_household_is_rejected():
    with pytest.raises(ParameterError, match=r"^appliance_mix left a household empty"):
        generate_fleet(small_recipe(appliance_mix={"iron": 0.0}))


def test_bad_probability_is_rejected():
    with pytest.raises(ParameterError, match=r"inclusion probability"):
        small_recipe(appliance_mix={"dishwasher": 1.5})


@pytest.mark.parametrize(
    "field, value",
    [
        ("daily_energy_kwh", float("nan")),
        ("daily_energy_kwh", float("inf")),
    ],
)
def test_non_finite_recipe_values_are_rejected(field, value):
    with pytest.raises(ParameterError, match=rf"{field} must be finite"):
        small_recipe(**{field: value})


@pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), "3", None])
@pytest.mark.parametrize("field", ["household_count", "history_days", "simulated_days"])
def test_recipe_counts_must_be_whole_numbers(field, value):
    with pytest.raises(ParameterError, match=rf"^{field} must be a whole number >= "):
        small_recipe(**{field: value})


@pytest.mark.parametrize(
    "field, least", [("household_count", 1), ("history_days", 5), ("simulated_days", 1)]
)
def test_recipe_counts_have_minimums_and_take_whole_floats(field, least):
    with pytest.raises(ParameterError, match=rf"^{field} must be a whole number >= {least}, "):
        small_recipe(**{field: least - 1})
    recipe = small_recipe(**{field: float(least + 1)})
    assert type(getattr(recipe, field)) is int and getattr(recipe, field) == least + 1


def test_recipe_holds_only_the_fields_callers_vary():
    assert [f.name for f in dataclasses.fields(SyntheticRecipe)] == [
        "household_count",
        "appliance_mix",
        "daily_energy_kwh",
        "history_days",
        "simulated_days",
        "mode",
        "pv_fraction",
    ]


def test_recipe_survives_dict_round_trip():
    recipe = small_recipe(
        appliance_mix={"refrigerator": 1, "iron": np.float32(0.5)},
        daily_energy_kwh=np.float32(12.5),
        mode="online",
    )
    doc = recipe_to_dict(recipe, seed=13)
    assert doc == {**dataclasses.asdict(recipe), "seed": 13}
    names = {f.name for f in dataclasses.fields(SyntheticRecipe)}
    assert set(doc) == names | {"seed"}
    assert doc["seed"] == 13
    for name in names:
        assert doc[name] == getattr(recipe, name), name
    assert json.loads(json.dumps(doc)) == doc  # the recipe is written into the bundle manifest


def test_pricing_marks_the_peak_slots():
    pricing = small_recipe().pricing()
    mask = pricing.peak_mask()
    assert pricing.peak_windows == (PEAK_WINDOW,) == ((35, 44),)
    assert np.array_equal(np.flatnonzero(mask) + 1, np.arange(35, 45))
    assert np.all(pricing.prices[mask] == PEAK_PRICE)
    assert np.all(pricing.prices[~mask] == OFF_PEAK_PRICE)
    assert mask.sum() == 10


def test_simulation_days_follow_the_history():
    recipe = small_recipe(history_days=10, simulated_days=3)
    days = recipe.simulation_days()
    assert days[0] == START_DAY + datetime.timedelta(days=10)
    assert len(days) == 3
    assert days[2] - days[0] == datetime.timedelta(days=2)


def test_shiftable_archetypes_prefer_the_evening_peak():
    # the whole point of the exercise: habits that collide with the peak tariff
    for name, archetype in ARCHETYPES.items():
        if archetype.kind != "shiftable":
            continue
        end = archetype.preferred_start + archetype.duration_slots - 1
        assert PEAK_WINDOW[0] <= archetype.preferred_start <= PEAK_WINDOW[1], name
        assert end <= 46, name  # run must not dangle past the day

    fleet = generate_fleet(small_recipe(), seed=0)
    for household in fleet.households:
        kinds = {s.id for s in household.appliances}
        assert "refrigerator" in kinds  # mix includes it with probability 1


def test_habitual_runs_mostly_avoid_the_peak():
    # history predates the price signal: most sampled runs end before the peak
    rng = np.random.default_rng(2025)
    for name, archetype in ARCHETYPES.items():
        if archetype.kind != "shiftable":
            continue
        starts = np.array([_habit_start(rng, archetype) for _ in range(4000)])
        ends = starts + archetype.duration_slots - 1
        assert starts.min() >= archetype.window[0] and ends.max() <= archetype.window[1], name
        touches = (starts <= PEAK_WINDOW[1]) & (ends >= PEAK_WINDOW[0])
        assert 0.0 < touches.mean() < 0.10, name


@pytest.mark.parametrize(
    "field, value",
    [
        ("daily_energy_kwh", "16"),
        ("daily_energy_kwh", None),
        ("pv_fraction", "0.5"),
        ("pv_fraction", True),
        ("appliance_mix", {"refrigerator": "0.5"}),
        ("appliance_mix", {"refrigerator": None}),
        ("appliance_mix", None),
        ("mode", "sometime"),
        ("mode", None),
    ],
)
def test_recipe_fields_are_checked_before_any_household(field, value):
    # the recipe itself refuses, so generate_fleet never starts on it
    with pytest.raises(ParameterError, match=rf"^{field}\b"):
        small_recipe(**{field: value})
