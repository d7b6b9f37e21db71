"""Domain-type construction rules and curve arithmetic."""

from __future__ import annotations

import datetime

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_fixed, make_pricing, make_shiftable
from loadshift.core import (
    ApplianceSpec,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    PvSystem,
    bill,
    expand_instances,
    load_factor,
    preferred_starts,
    split_consumption,
    total_curve,
)
from loadshift.errors import (
    FormatError,
    ParameterError,
    PlacementError,
    UndefinedMetricError,
)


# ---------------------------------------------------------------- curves


def test_load_curve_validation():
    with pytest.raises(FormatError):
        LoadCurve(np.zeros(47))
    with pytest.raises(FormatError):
        LoadCurve(np.full(48, np.nan))
    with pytest.raises(ParameterError):
        LoadCurve(np.full(48, -0.1))
    curve = LoadCurve(np.ones(48))
    with pytest.raises(ValueError):
        curve.values[0] = 2.0  # read-only


def test_curve_energy():
    # 1 kW for 48 half-hour slots is 24 kWh
    assert LoadCurve(np.ones(48)).energy_kwh() == pytest.approx(24.0)


def test_curve_arithmetic():
    rng = np.random.default_rng(7)
    a = LoadCurve(rng.uniform(0, 2, 48))
    b = LoadCurve(rng.uniform(0, 2, 48))
    npt.assert_allclose((a + b).values, a.values + b.values)


# ---------------------------------------------------------------- appliances


def test_fixed_appliance_must_be_pinned():
    with pytest.raises(ParameterError):
        ApplianceSpec(
            id="fridge",
            kind="fixed",
            power_profile=np.ones(2),
            duration_slots=2,
            window_start=5,
            window_end=10,  # window wider than the run
            preferred_start=5,
            max_shift=0,
        )
    with pytest.raises(ParameterError):
        ApplianceSpec(
            id="fridge",
            kind="fixed",
            power_profile=np.ones(2),
            duration_slots=2,
            window_start=5,
            window_end=6,
            preferred_start=5,
            max_shift=3,  # fixed cannot shift
        )


def test_window_must_hold_one_run():
    with pytest.raises(ParameterError):
        make_shiftable(duration=4, window=(10, 12))
    with pytest.raises(ParameterError):
        make_shiftable(duration=2, window=(10, 20), preferred=20)  # run leaves window
    with pytest.raises(ParameterError):
        make_shiftable(window=(10, 50))


def test_profile_and_counts():
    with pytest.raises(FormatError):
        ApplianceSpec(
            id="x",
            kind="shiftable",
            power_profile=np.ones(3),
            duration_slots=2,
            window_start=1,
            window_end=10,
            preferred_start=1,
            max_shift=2,
        )
    with pytest.raises(ParameterError):
        make_shiftable(power=-1.0)
    with pytest.raises(ParameterError):
        make_shiftable(count=0)
    with pytest.raises(ParameterError):
        make_shiftable(max_shift=-1)


def test_expand_instances_names_and_count():
    spec = make_shiftable(id="washer", count=3)
    single = make_shiftable(id="iron", count=1)
    instances = expand_instances([spec, single])
    assert [i.instance_id for i in instances] == ["washer#1", "washer#2", "washer#3", "iron"]
    assert all(i.type_id == "washer" for i in instances[:3])
    assert instances[0].max_shift == spec.max_shift


def test_max_shift_validation():
    with pytest.raises(ParameterError, match="max_shift"):
        make_shiftable(max_shift=-1)
    with pytest.raises(ParameterError, match="max_shift"):
        make_shiftable(max_shift=2.5)
    with pytest.raises(ParameterError, match="cannot permit shifts"):
        ApplianceSpec(
            id="lamp",
            kind="fixed",
            power_profile=np.ones(2),
            duration_slots=2,
            window_start=5,
            window_end=6,
            preferred_start=5,
            max_shift=1,
        )
    spec = make_shiftable(max_shift=np.int64(7))
    assert spec.max_shift == 7 and type(spec.max_shift) is int
    assert make_fixed().max_shift == 0


# ---------------------------------------------------------------- total_curve


def test_total_curve_single_device():
    spec = make_fixed(id="heater", power=1.0, duration=2, start=5)
    instances = expand_instances([spec])
    curve = total_curve(instances, {"heater": 5})
    expected = np.zeros(48)
    expected[4:6] = 1.0
    npt.assert_array_equal(curve.values, expected)


def test_total_curve_empty():
    npt.assert_array_equal(total_curve([], {}).values, np.zeros(48))


def test_total_curve_overlapping_against_accumulation_oracle():
    specs = [
        make_shiftable(id="a", power=1.2, duration=4, preferred=10),
        make_shiftable(id="b", power=0.7, duration=6, preferred=12),
        make_shiftable(id="c", power=2.0, duration=3, preferred=13),
    ]
    instances = expand_instances(specs)
    starts = {"a": 10, "b": 12, "c": 13}
    curve = total_curve(instances, starts)

    # independent accumulation over (device, slot) pairs
    oracle = np.zeros(48)
    for inst in instances:
        for k in range(inst.duration_slots):
            oracle[starts[inst.instance_id] - 1 + k] += inst.power_profile[k]
    npt.assert_allclose(curve.values, oracle)


def test_total_curve_additive_over_disjoint_sets():
    rng = np.random.default_rng(3)
    specs = [
        make_shiftable(id=f"d{i}", power=rng.uniform(0.2, 2.0), duration=int(rng.integers(1, 5)))
        for i in range(6)
    ]
    instances = expand_instances(specs)
    starts = {i.instance_id: int(rng.integers(1, 44)) for i in instances}
    whole = total_curve(instances, starts)
    part_a = total_curve(instances[:3], starts)
    part_b = total_curve(instances[3:], starts)
    npt.assert_allclose(whole.values, (part_a + part_b).values)


def test_total_curve_errors_name_appliance_and_slot():
    inst = expand_instances([make_shiftable(id="oven", duration=4)])
    with pytest.raises(PlacementError, match="oven") as err:
        total_curve(inst, {"oven": 47})  # run 47..50 leaves the grid
    assert "47" in str(err.value)
    with pytest.raises(PlacementError, match="oven"):
        total_curve(inst, {})


def test_split_consumption_sources():
    specs = [make_fixed(id="base", power=0.5, duration=48, start=1),
             make_shiftable(id="dev", power=2.0, duration=2, preferred=10)]
    instances = expand_instances(specs)
    flags = np.zeros(48, dtype=bool)
    flags[9] = True  # PV covers slot 10
    parts = split_consumption(instances, preferred_starts(instances), flags)
    npt.assert_allclose(parts.total.values, parts.grid.values + parts.pv.values)
    npt.assert_allclose(parts.total.values, parts.fixed.values + parts.shiftable.values)
    assert parts.pv.values[9] == 2.0  # shiftable demand only
    assert parts.grid.values[9] == 0.5  # fixed stays on the grid
    assert parts.pv.values[10] == 0.0


# ---------------------------------------------------------------- load factor


def test_load_factor_flat_curve():
    assert load_factor(LoadCurve(np.full(48, 2.0))) == pytest.approx(1.0)


def test_load_factor_single_spike():
    values = np.zeros(48)
    values[20] = 4.0
    assert load_factor(LoadCurve(values)) == pytest.approx(1.0 / 48.0)


def test_load_factor_matches_direct_recomputation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.uniform(0.0, 5.0, 48)
        curve = LoadCurve(values)
        assert load_factor(curve) == pytest.approx(values.mean() / values.max())


def test_load_factor_scale_invariant():
    rng = np.random.default_rng(12)
    values = rng.uniform(0.1, 3.0, 48)
    base = load_factor(LoadCurve(values))
    for k in (0.5, 2.0, 17.0):
        assert load_factor(LoadCurve(k * values)) == pytest.approx(base)


def test_load_factor_zero_curve_undefined():
    with pytest.raises(UndefinedMetricError):
        load_factor(LoadCurve.zeros())


# ---------------------------------------------------------------- billing


def test_bill_zero_curve():
    assert bill(LoadCurve.zeros(), make_pricing()) == 0.0


def test_bill_flat_curve_flat_price():
    pricing = make_pricing(peak_price=0.10, off_price=0.10)
    assert bill(LoadCurve(np.ones(48)), pricing) == pytest.approx(2.40)


def test_bill_two_tier_matches_slot_sum():
    pricing = make_pricing(peak_price=0.30, off_price=0.10, peak_windows=((35, 44),))
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 3, 48)
    oracle = sum(values[h] * 0.5 * pricing.prices[h] for h in range(48))
    assert bill(LoadCurve(values), pricing) == pytest.approx(oracle)


def test_bill_linear():
    pricing = make_pricing()
    rng = np.random.default_rng(6)
    a = LoadCurve(rng.uniform(0, 2, 48))
    b = LoadCurve(rng.uniform(0, 2, 48))
    assert bill(a + b, pricing) == pytest.approx(bill(a, pricing) + bill(b, pricing))
    assert bill(LoadCurve(3.0 * a.values), pricing) == pytest.approx(3.0 * bill(a, pricing))


def test_bill_length_mismatch():
    with pytest.raises(FormatError):
        bill(np.ones(24), make_pricing())


# ---------------------------------------------------------------- pricing / pv / household


def test_pricing_validation():
    with pytest.raises(ParameterError):
        make_pricing(off_price=0.0)
    with pytest.raises(ParameterError):
        PricingSignal(prices=np.full(48, 0.1), peak_windows=((10, 20), (15, 25)))
    with pytest.raises(ParameterError):
        PricingSignal(prices=np.full(48, 0.1), peak_windows=((0, 5),))
    with pytest.raises(FormatError):
        PricingSignal(prices=np.full(24, 0.1), peak_windows=())


def test_pricing_peak_mask():
    pricing = make_pricing(peak_windows=((10, 12), (40, 41)))
    mask = pricing.peak_mask()
    assert mask.shape == (48,) and mask.dtype == bool
    assert tuple(np.flatnonzero(mask) + 1) == (10, 11, 12, 40, 41)
    assert mask[10 - 1] and not mask[13 - 1]
    assert int(np.count_nonzero(~mask)) == 43


def test_pv_system_validation():
    gen = np.zeros(48)
    with pytest.raises(ParameterError):
        PvSystem(generation=gen, battery_capacity=2.0, battery_soc=2.5)
    with pytest.raises(ParameterError):
        PvSystem(generation=np.full(48, -0.1), battery_capacity=2.0)
    with pytest.raises(ParameterError):
        PvSystem(generation=gen, battery_capacity=2.0, charge_efficiency=1.5)
    with pytest.raises(ParameterError):
        PvSystem(generation=gen, battery_capacity=2.0, battery_soc=-0.1)
    with pytest.raises(FormatError, match="scalar"):
        PvSystem(generation=gen, battery_capacity=2.0, battery_soc=np.full(48, 1.0))
    pv = PvSystem(generation=gen, battery_capacity=2.0, battery_soc=np.float64(1))
    assert pv.battery_soc == 1.0 and type(pv.battery_soc) is float


def test_household_validation():
    dev = make_shiftable(id="dev")
    with pytest.raises(ParameterError):
        Household(id="h1", appliances=())
    with pytest.raises(ParameterError):
        Household(id="h1", appliances=(dev, make_shiftable(id="dev")))
    record = DailyRecord(day=datetime.date(2025, 3, 1), curve=LoadCurve(np.ones(48)))
    house = Household(id="h1", appliances=(dev,), history=(record,))
    assert len(house.instances()) == 1
    with pytest.raises(FormatError):
        DailyRecord(day="2025-03-01", curve=LoadCurve(np.ones(48)))
