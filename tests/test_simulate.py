"""Pipeline harness: run_day/run_fleet semantics, determinism, online replay."""

import datetime

import numpy as np
import numpy.testing as npt
import pytest

from loadshift import simulate
from loadshift.core import DailyRecord, Household, LoadCurve, split_consumption, total_curve
from loadshift.errors import DatasetTooSmallError, ParameterError, TemporalConsistencyError
from loadshift.scheduler import validate_assignment
from loadshift.simulate import FleetConfig, RunParams, derive_seed, run_day, run_fleet
from loadshift.synth import SyntheticRecipe, generate_fleet

from conftest import make_fixed, make_pricing, make_shiftable

FAST = RunParams(max_epochs=10, history_window_days=30)


def small_fleet(seed=21, **overrides):
    base = dict(
        household_count=2,
        history_days=14,
        simulated_days=2,
        daily_energy_kwh=10.0,
        pv_fraction=1.0,
    )
    base.update(overrides)
    return generate_fleet(SyntheticRecipe(**base), seed=seed)


def flat_history(days, start=datetime.date(2025, 5, 1), level=0.8):
    rng = np.random.default_rng(99)
    return tuple(
        DailyRecord(
            day=start + datetime.timedelta(days=d),
            curve=LoadCurve(np.maximum(level + 0.05 * rng.standard_normal(48), 0.0)),
        )
        for d in range(days)
    )


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(0, "h001", "load") == derive_seed(0, "h001", "load")
    assert derive_seed(0, "h001", "load") != derive_seed(0, "h001", "pv")
    assert derive_seed(0, "h001", "load") != derive_seed(1, "h001", "load")
    # pinned so an accidental change to the derivation scheme is caught
    assert derive_seed(0, "x") == 84517839


def test_fixed_only_household_keeps_its_curve():
    household = Household(
        id="h1",
        appliances=(make_fixed(id="fridge", power=0.2, duration=48, start=1),),
        pv=None,
        history=flat_history(10),
    )
    result = run_day(
        household, datetime.date(2025, 5, 11), make_pricing(), params=FAST
    )
    assert np.array_equal(result.after.values, result.before.values)
    assert np.array_equal(result.after_total.values, result.before.values)
    assert result.assignment.starts == {"fridge": 1}
    assert not result.assignment.pv_flags.any()


def test_grid_energy_is_conserved_without_pv():
    household = Household(
        id="h1",
        appliances=(
            make_fixed(id="base", power=0.3, duration=48, start=1),
            make_shiftable(id="wash", power=1.0, duration=3, preferred=38, max_shift=10),
        ),
        pv=None,
        history=flat_history(10),
    )
    result = run_day(
        household, datetime.date(2025, 5, 11), make_pricing(), params=FAST
    )
    assert result.after.energy_kwh() == pytest.approx(
        result.before.energy_kwh(), rel=1e-12
    )


def test_appliance_energy_is_conserved_with_pv():
    fleet = small_fleet()
    for result in run_fleet(fleet, FAST, seed=3):
        assert result.after_total.energy_kwh() == pytest.approx(
            result.before.energy_kwh(), rel=1e-9
        )
        # grid curve never exceeds the total curve
        assert np.all(result.after.values <= result.after_total.values + 1e-12)


def test_schedules_are_valid_for_their_households():
    fleet = small_fleet()
    by_id = {h.id: h.instances() for h in fleet.households}
    for result in run_fleet(fleet, FAST, seed=3):
        assert validate_assignment(by_id[result.household_id], result.assignment) == ()


def test_run_fleet_is_deterministic():
    fleet = small_fleet()
    a = run_fleet(fleet, FAST, seed=5)
    b = run_fleet(fleet, FAST, seed=5)
    assert len(a) == len(b) == 4
    for ra, rb in zip(a, b):
        assert (ra.household_id, ra.day) == (rb.household_id, rb.day)
        assert ra.assignment.starts == rb.assignment.starts
        assert np.array_equal(ra.after.values, rb.after.values)
        assert np.array_equal(ra.assignment.pv_flags, rb.assignment.pv_flags)


def test_worker_count_does_not_change_results():
    fleet = small_fleet()
    serial = run_fleet(fleet, FAST, seed=5, workers=1)
    threaded = run_fleet(fleet, FAST, seed=5, workers=4)
    for ra, rb in zip(serial, threaded):
        assert (ra.household_id, ra.day) == (rb.household_id, rb.day)
        assert ra.assignment.starts == rb.assignment.starts
        assert np.array_equal(ra.after.values, rb.after.values)


def test_results_come_back_sorted():
    fleet = small_fleet()
    results = run_fleet(fleet, FAST, seed=5, workers=4)
    keys = [(r.household_id, r.day) for r in results]
    assert keys == sorted(keys)


def test_online_mode_tracks_realized_consumption():
    fleet = small_fleet(mode="online")
    results = run_fleet(fleet, FAST, seed=6)
    by_id = {h.id: h.instances() for h in fleet.households}
    saw_online = False
    for result in results:
        assert result.mode == "online"
        assert validate_assignment(by_id[result.household_id], result.assignment) == ()
        if "realized" in result.objective.provenance:
            saw_online = True
            assert result.objective.mode == "online"
        assert result.after_total.energy_kwh() == pytest.approx(
            result.before.energy_kwh(), rel=1e-9
        )
    assert saw_online  # at least one household-day actually replayed


def test_online_pv_replay_reports_the_final_arbitration(monkeypatch):
    # re-solves see no PV; one arbitration of the executed shiftable demand
    # decides the day's flags and battery trajectory, and the reported
    # curves are split by exactly those flags
    real = simulate.pv_arbitrate
    calls = []

    def recording(pv, demand, pricing, max_app_duration):
        arb = real(pv, demand, pricing, max_app_duration)
        calls.append((demand, arb))
        return arb

    monkeypatch.setattr(simulate, "pv_arbitrate", recording)
    fleet = small_fleet(mode="online")
    flagged = 0
    for household in fleet.households:
        assert household.pv is not None
        instances = household.instances()
        shiftable = [i for i in instances if i.kind == "shiftable"]
        for day in fleet.days:
            calls.clear()
            result = run_day(household, day, fleet.pricing, "online", FAST, seed=6)
            starts, flags = result.assignment.starts, result.assignment.pv_flags
            parts = split_consumption(instances, starts, flags)
            npt.assert_array_equal(result.after.values, parts.grid.values)
            npt.assert_array_equal(result.after_total.values, parts.total.values)
            demand, arb = calls[-1]
            npt.assert_array_equal(demand.values, total_curve(shiftable, starts).values)
            npt.assert_array_equal(arb.flags, flags)
            npt.assert_array_equal(arb.soc, result.assignment.battery_soc)
            flagged += int(flags.any())
    assert flagged  # the battery covered demand somewhere


def test_online_and_offline_disagree():
    fleet_off = small_fleet(mode="offline")
    fleet_on = small_fleet(mode="online")
    off = run_fleet(fleet_off, FAST, seed=6)
    on = run_fleet(fleet_on, FAST, seed=6)
    assert any(
        ra.assignment.starts != rb.assignment.starts
        or not np.array_equal(ra.objective.values, rb.objective.values)
        for ra, rb in zip(off, on)
    )


def test_too_little_history_names_household_and_day():
    household = Household(
        id="h9",
        appliances=(make_fixed(),),
        pv=None,
        history=flat_history(2),
    )
    with pytest.raises(DatasetTooSmallError, match=r"^h9 2025-05-03: "):
        run_day(household, datetime.date(2025, 5, 3), make_pricing(), params=FAST)


def test_history_gap_is_rejected():
    household = Household(
        id="h9",
        appliances=(make_fixed(),),
        pv=None,
        history=flat_history(10),
    )
    # last history day is 2025-05-10; asking for the 14th leaves a gap
    with pytest.raises(TemporalConsistencyError, match=r"h9 2025-05-14: .*2025-05-10"):
        run_day(household, datetime.date(2025, 5, 14), make_pricing(), params=FAST)


def test_mode_and_worker_validation():
    fleet = small_fleet()
    with pytest.raises(ParameterError, match="mode"):
        run_day(
            fleet.households[0], fleet.days[0], fleet.pricing, mode="sideways",
            params=FAST,
        )
    with pytest.raises(ParameterError, match="workers"):
        run_fleet(fleet, FAST, workers=0)


def test_fleet_config_rejects_bad_days():
    fleet = small_fleet()
    with pytest.raises(ParameterError, match="strictly increasing"):
        FleetConfig(
            households=fleet.households,
            pricing=fleet.pricing,
            days=(fleet.days[0], fleet.days[0]),
        )


def test_run_params_validation():
    with pytest.raises(ParameterError):
        RunParams(max_epochs=0)
    with pytest.raises(ParameterError):
        RunParams(l_min=-1.0)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="online_noise_kw must be finite and >= 0"):
            RunParams(online_noise_kw=noise)
