"""Domain-type construction rules and curve arithmetic."""

from __future__ import annotations

import datetime

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_fixed, make_pricing, make_shiftable
from loadshift.core import (
    MAX_CANDIDATE_STARTS,
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
from loadshift.forecast import NarNetwork, TrainingConfig
from loadshift.objective import SEGMENT_COUNT, PeakRegressionModel
from loadshift.scheduler import ScheduleAssignment
from loadshift.simulate import RunParams
from loadshift.synth import SyntheticRecipe


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_curve_reports_non_finite_before_negative(bad):
    values = np.full(48, -0.5)
    values[7] = bad
    with pytest.raises(FormatError, match="non-finite"):
        LoadCurve(values)
    with pytest.raises(FormatError, match="non-finite"):
        LoadCurve(values[::-1].tolist())


def test_load_curve_keeps_its_own_copy_and_negative_zero():
    values = np.zeros(48)
    values[3] = -0.0
    curve = LoadCurve(values)
    values[0] = 9.0
    assert curve.values[0] == 0.0
    assert np.signbit(curve.values[3]) and not np.signbit(curve.values[4])
    assert curve.values.dtype == float and not curve.values.flags.writeable


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


def test_appliance_count_is_bounded_by_the_candidate_start_limit():
    assert make_shiftable(count=MAX_CANDIDATE_STARTS).count == MAX_CANDIDATE_STARTS
    message = f"appliance dev: count must be <= {MAX_CANDIDATE_STARTS}, got 1025"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        make_shiftable(count=MAX_CANDIDATE_STARTS + 1)


def test_expand_instances_names_and_count():
    spec = make_shiftable(id="washer", count=3)
    single = make_shiftable(id="iron", count=1)
    instances = expand_instances([spec, single])
    assert [i.instance_id for i in instances] == ["washer#1", "washer#2", "washer#3", "iron"]
    assert instances[0].max_shift == spec.max_shift


@pytest.mark.parametrize(
    "field",
    ["duration_slots", "window_start", "window_end", "preferred_start", "max_shift", "count"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10.7, "3"])
def test_slot_fields_must_be_whole_numbers(field, value):
    fields = dict(
        id="dev", kind="shiftable", power_profile=np.ones(2), duration_slots=2,
        window_start=1, window_end=40, preferred_start=10, max_shift=4, count=1,
    )
    fields[field] = value
    with pytest.raises(ParameterError, match=f"dev: {field} must be a whole number"):
        ApplianceSpec(**fields)


def test_whole_float_slot_fields_become_ints():
    spec = make_shiftable(window=(1.0, 40.0), preferred=10.0)
    assert (spec.window_start, spec.window_end, spec.preferred_start) == (1, 40, 10)
    assert all(type(v) is int for v in (spec.window_start, spec.window_end, spec.preferred_start))


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
    placed = total_curve(instances, preferred_starts(instances))
    npt.assert_allclose(parts.total.values, placed.values)
    off_grid = parts.total.values - parts.grid.values
    assert off_grid[9] == 2.0  # shiftable demand only
    assert parts.grid.values[9] == 0.5  # fixed stays on the grid
    assert off_grid[10] == 0.0
    npt.assert_array_equal(np.delete(off_grid, 9), 0.0)  # only the flagged slot


@pytest.mark.parametrize(
    "flags",
    [[float("nan")] * 48, [0.5] * 48, [2] * 48, ["1"] * 48, [None] * 48, [0, 1] * 23,
     [[0, 1]] * 24],
    ids=["nan", "half", "two", "str", "none", "short", "nested"],
)
def test_pv_flags_must_be_48_bools_or_0_1(flags):
    instances = expand_instances([make_shiftable(id="dev", preferred=10)])
    with pytest.raises(FormatError, match="pv_flags needs 48 entries, each a bool or 0/1"):
        split_consumption(instances, preferred_starts(instances), flags)
    with pytest.raises(FormatError, match="pv_flags needs 48 entries, each a bool or 0/1"):
        ScheduleAssignment({}, pv_flags=flags)
    # 0/1 numbers and numpy bools read as bools
    for ok in ([0, 1] * 24, np.tile([0.0, 1.0], 24), [np.True_] * 48):
        assert ScheduleAssignment({}, pv_flags=ok).pv_flags.tolist() == [bool(x) for x in ok]


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
        load_factor(LoadCurve(np.zeros(48)))


# ---------------------------------------------------------------- billing


def test_bill_zero_curve():
    assert bill(LoadCurve(np.zeros(48)), make_pricing()) == 0.0


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


@pytest.mark.parametrize("bound", [35.7, float("nan"), float("inf"), "35", None])
def test_peak_window_bounds_must_be_whole_numbers(bound):
    with pytest.raises(ParameterError, match=r"peak window \[.*\] bound must be a whole number"):
        PricingSignal(prices=np.full(48, 0.1), peak_windows=((bound, 44),))


def test_pricing_peak_mask():
    pricing = make_pricing(peak_windows=((10, 12), (40, 41)))
    mask = pricing.peak_mask()
    assert mask.shape == (48,) and mask.dtype == bool
    assert tuple(np.flatnonzero(mask) + 1) == (10, 11, 12, 40, 41)
    assert mask[10 - 1] and not mask[13 - 1]
    assert int(np.count_nonzero(~mask)) == 43


def test_pv_system_validation():
    with pytest.raises(ParameterError):
        PvSystem(battery_capacity=2.0, battery_soc=2.5)
    with pytest.raises(ParameterError):
        PvSystem(battery_capacity=2.0, charge_efficiency=1.5)
    with pytest.raises(ParameterError):
        PvSystem(battery_capacity=2.0, battery_soc=-0.1)
    with pytest.raises(ParameterError, match="battery_soc must be a number, got array"):
        PvSystem(battery_capacity=2.0, battery_soc=np.full(48, 1.0))
    pv = PvSystem(battery_capacity=2.0, battery_soc=np.float64(1))
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


def test_household_rejects_instance_ids_that_collide_after_expansion():
    # "a" with count 2 expands to a#1 and a#2, beside an appliance named a#1
    appliances = (make_shiftable(id="a", count=2), make_shiftable(id="a#1"))
    message = r"^household h1: appliance instance id 'a#1' repeats after expansion$"
    with pytest.raises(ParameterError, match=message):
        Household(id="h1", appliances=appliances)
    appliances = (make_shiftable(id="a", count=2), make_shiftable(id="a#3"))
    house = Household(id="h1", appliances=appliances)
    assert [i.instance_id for i in house.instances()] == ["a#1", "a#2", "a#3"]


def test_histories_are_held_sorted_by_day():
    records = [
        DailyRecord(day=datetime.date(2025, 3, d), curve=LoadCurve(np.full(48, float(d))))
        for d in (3, 1, 2)
    ]
    house = Household(id="h1", appliances=(make_shiftable(),), history=records)
    pv = PvSystem(battery_capacity=2.0, history=iter(records))
    for history in (house.history, pv.history):
        assert isinstance(history, tuple)
        assert [r.day.day for r in history] == [1, 2, 3]
        assert {id(r) for r in history} == {id(r) for r in records}
    ordered = tuple(sorted(records, key=lambda r: r.day))
    backwards = PvSystem(battery_capacity=2.0, history=ordered[::-1])
    assert backwards.history == ordered
    assert Household(id="h1", appliances=(make_shiftable(),), history=ordered).history == ordered
    bare = LoadCurve(np.ones(48))
    with pytest.raises(FormatError, match="household h1 history holds a LoadCurve"):
        Household(id="h1", appliances=(make_shiftable(),), history=(records[0], bare))
    with pytest.raises(FormatError, match="pv history holds a LoadCurve"):
        PvSystem(battery_capacity=2.0, history=(bare,))


def test_histories_reject_a_repeated_day():
    records = [
        DailyRecord(day=datetime.date(2025, 3, d), curve=LoadCurve(np.full(48, float(d))))
        for d in (1, 2, 3)
    ]
    # a repeat out of order, and one in otherwise sorted history
    for repeated in (records + [records[1]], records[:2] + records[1:]):
        with pytest.raises(FormatError, match=r"^household h1 history repeats day 2025-03-02$"):
            Household(id="h1", appliances=(make_shiftable(),), history=repeated)
        with pytest.raises(FormatError, match=r"^pv history repeats day 2025-03-02$"):
            PvSystem(battery_capacity=2.0, history=repeated)


# ---------------------------------------------------------------- scalars

# each builder takes one malformed scalar; the field its error must name
MALFORMED_SCALARS = {
    "capacity-str": (lambda: PvSystem(battery_capacity="4"), "battery_capacity"),
    "capacity-bool": (lambda: PvSystem(battery_capacity=True), "battery_capacity"),
    "capacity-huge-int": (lambda: PvSystem(battery_capacity=10**400), "battery_capacity"),
    "soc-str": (lambda: PvSystem(battery_capacity=2.0, battery_soc="1"), "battery_soc"),
    "soc-numpy-bool": (
        lambda: PvSystem(battery_capacity=2.0, battery_soc=np.bool_(True)), "battery_soc"
    ),
    "rate-none": (lambda: PvSystem(battery_capacity=2.0, charge_rate=None), "charge_rate"),
    "efficiency-str": (
        lambda: PvSystem(battery_capacity=2.0, charge_efficiency="0.9"), "charge_efficiency"
    ),
    "efficiency-none": (
        lambda: PvSystem(battery_capacity=2.0, charge_efficiency=None), "charge_efficiency"
    ),
    "intercept-str": (
        lambda: PeakRegressionModel(np.ones(SEGMENT_COUNT), "1"), "intercept"
    ),
    "intercept-none": (
        lambda: PeakRegressionModel(np.ones(SEGMENT_COUNT), None), "intercept"
    ),
    "b_out-str": (lambda: NarNetwork(np.ones((2, 3)), np.zeros(2), np.ones(2), "1"), "b_out"),
    "norm_max-str": (
        lambda: NarNetwork(np.ones((2, 3)), np.zeros(2), np.ones(2), 0.0, norm_max="2"),
        "norm_max",
    ),
    "max_epochs-bool": (lambda: RunParams(max_epochs=True), "max_epochs"),
    "count-bool": (lambda: make_shiftable(count=True), "count"),
    "household_count-bool": (lambda: SyntheticRecipe(household_count=True), "household_count"),
    "rng_seed-bool": (lambda: TrainingConfig(rng_seed=True), "rng_seed"),
    "rng_seed-numpy-bool": (lambda: TrainingConfig(rng_seed=np.bool_(False)), "rng_seed"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCALARS))
def test_a_malformed_scalar_is_a_parameter_error_naming_its_field(case):
    build, field = MALFORMED_SCALARS[case]
    with pytest.raises(ParameterError) as err:
        build()
    assert field in str(err.value)


def test_scalars_are_held_as_floats():
    pv = PvSystem(battery_capacity=np.float32(4), battery_soc=np.int64(1), charge_rate=2,
                  charge_efficiency=1)
    numbers = (pv.battery_capacity, pv.battery_soc, pv.charge_rate, pv.charge_efficiency)
    assert numbers == (4.0, 1.0, 2.0, 1.0) and {type(x) for x in numbers} == {float}
    net = NarNetwork(np.ones((2, 3)), np.zeros(2), np.ones(2), np.int64(1), norm_min=0,
                     norm_max=np.float64(2))
    assert (net.b_out, net.norm_min, net.norm_max) == (1.0, 0.0, 2.0)
    assert PeakRegressionModel(np.ones(SEGMENT_COUNT), 3).intercept == 3.0
    # NaN and inf reach each field's own range check
    with pytest.raises(ParameterError, match="battery capacity must be > 0"):
        PvSystem(battery_capacity=float("inf"))
    with pytest.raises(FormatError, match="network parameters must be finite"):
        NarNetwork(np.ones((2, 3)), np.zeros(2), np.ones(2), float("nan"))
