"""Scheduler tests: feasible sets, PV arbitration, cost math, and the solver."""

from __future__ import annotations

import itertools
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.core import (
    MAX_CANDIDATE_STARTS,
    ApplianceInstance,
    PvSystem,
    expand_instances,
    preferred_starts,
    total_curve,
)
from loadshift.errors import (
    FeasibilityError,
    FormatError,
    InfeasibleApplianceError,
    InfeasibleProblemError,
    ParameterError,
)
from loadshift import scheduler
from loadshift.objective import ObjectiveCurve
from loadshift.scheduler import (
    ScheduleAssignment,
    evaluate_cost,
    feasible_starts,
    pv_arbitrate,
    solve,
    validate_assignment,
)

from conftest import make_fixed, make_pricing, make_shiftable


def make_objective(values) -> ObjectiveCurve:
    values = np.asarray(values, dtype=float)
    return ObjectiveCurve(values=values, provenance=("predicted",) * 48)


def make_instance(
    instance_id="dev",
    power=1.0,
    duration=2,
    window=(1, 48),
    preferred=10,
    max_shift=48,
    kind="shiftable",
):
    return ApplianceInstance(
        instance_id=instance_id,
        kind=kind,
        power_profile=np.full(duration, float(power)),
        duration_slots=duration,
        window_start=window[0],
        window_end=window[1],
        preferred_start=preferred,
        max_shift=max_shift,
    )


# ---------------------------------------------------------------- feasible_starts


def test_feasible_starts_window_arithmetic():
    spec = make_shiftable(duration=4, window=(10, 20), preferred=12)
    assert feasible_starts(spec) == tuple(range(10, 18))


def test_feasible_starts_zero_shift_pins_preferred():
    spec = make_shiftable(duration=4, window=(10, 20), preferred=12, max_shift=0)
    assert feasible_starts(spec) == (12,)


def test_feasible_starts_shift_cap_clips_window():
    spec = make_shiftable(duration=2, window=(5, 30), preferred=15, max_shift=3)
    assert feasible_starts(spec) == tuple(range(12, 19))


@settings(max_examples=200, deadline=None)
@given(
    ws=st.integers(1, 48),
    width=st.integers(0, 47),
    duration=st.integers(1, 8),
    preferred=st.integers(1, 48),
    cap=st.integers(0, 48),
    not_before=st.integers(1, 48),
)
def test_feasible_starts_matches_brute_force(ws, width, duration, preferred, cap, not_before):
    we = min(ws + width, 48)
    inst = make_instance(duration=duration, window=(ws, we), preferred=preferred, max_shift=cap)
    expected = [
        n
        for n in range(1, 49)
        if ws <= n <= we - duration + 1 and abs(n - preferred) <= cap and n >= not_before
    ]
    if expected:
        assert list(feasible_starts(inst, not_before=not_before)) == expected
    else:
        with pytest.raises(InfeasibleApplianceError):
            feasible_starts(inst, not_before=not_before)


@pytest.mark.parametrize("not_before", [6.7, 0, float("nan"), float("inf")])
def test_feasible_starts_rejects_a_start_bound_that_is_not_a_whole_slot(not_before):
    inst = make_shiftable(duration=2, window=(1, 48), preferred=10)
    with pytest.raises(ParameterError, match="not_before must be a whole number >= 1"):
        feasible_starts(inst, not_before=not_before)
    assert feasible_starts(inst, not_before=7.0)[0] == 7


def test_feasible_starts_names_binding_constraint():
    late = make_shiftable(duration=4, window=(10, 20), preferred=10)
    with pytest.raises(InfeasibleApplianceError, match="window"):
        feasible_starts(late, not_before=18)
    pinned = make_shiftable(duration=2, window=(5, 30), preferred=10, max_shift=0)
    with pytest.raises(InfeasibleApplianceError, match="shift cap"):
        feasible_starts(pinned, not_before=11)


# ---------------------------------------------------------------- pv_arbitrate


def assert_soc_recurrence(pv, gen, demand, result):
    """The battery delivers a flagged slot's whole demand and nothing else:
    ``soc[h+1] == clip(soc[h] + eff*gen[h]*0.5 - flags[h]*demand[h]*0.5, 0, cap)``."""
    soc = result.soc
    assert soc[0] == pv.battery_soc
    step = soc[:-1] + pv.charge_efficiency * gen[:-1] * 0.5
    step = step - (result.flags * demand * 0.5)[:-1]
    npt.assert_array_equal(soc[1:], np.clip(step, 0.0, pv.battery_capacity))


def test_pv_arbitrate_hand_simulation():
    # full 2 kWh battery, no sun, flat 0.2 kW shiftable demand, peak at 35-44
    pv = PvSystem(battery_capacity=2.0, battery_soc=2.0, charge_rate=1.0, charge_efficiency=1.0)
    gen = np.zeros(48)
    pricing = make_pricing()
    demand = np.full(48, 0.2)
    result = pv_arbitrate(pv, gen, demand, pricing, max_app_duration=4)

    # supplies 0.1 kWh per slot until only 0.1 kWh remains (strict > demand),
    # which happens entering slot 20; the time condition holds well past that
    expected = np.zeros(48, dtype=bool)
    expected[:19] = True
    npt.assert_array_equal(result.flags, expected)
    npt.assert_allclose(result.soc[:20], 2.0 - 0.1 * np.arange(20))
    npt.assert_allclose(result.soc[20:], 0.1)
    assert_soc_recurrence(pv, gen, demand, result)
    assert (result.flags * demand * 0.5).sum() == pytest.approx(1.9)


def test_pv_arbitrate_waits_to_recharge_before_peak():
    # slow charger: recharge takes 8*(2 - soc) slots, so even a tiny drain
    # eventually eats the margin required before the 35-44 peak
    pv = PvSystem(battery_capacity=2.0, battery_soc=2.0, charge_rate=0.25, charge_efficiency=1.0)
    gen = np.zeros(48)
    pricing = make_pricing()
    demand = np.full(48, 0.05)
    result = pv_arbitrate(pv, gen, demand, pricing, max_app_duration=6)

    # drain 0.025 kWh/slot: at slot h the margin is (35-h) - 0.2*(h-1) slots,
    # which drops to max_app_duration entering slot 25; supply resumes inside
    # the peak window and again afterwards, when no peak remains to save for
    expected = np.ones(48, dtype=bool)
    expected[24:34] = False
    npt.assert_array_equal(result.flags, expected)
    npt.assert_allclose(result.soc[24:34], 2.0 - 0.025 * 24)
    assert_soc_recurrence(pv, gen, demand, result)
    assert (result.flags * demand * 0.5).sum() <= pv.battery_soc + 1e-9


def test_pv_arbitrate_empty_battery_never_raises():
    pv = PvSystem(battery_capacity=1.0, battery_soc=0.0)
    gen = np.zeros(48)
    demand = np.full(48, 1.0)
    result = pv_arbitrate(pv, gen, demand, make_pricing(), max_app_duration=2)
    assert not result.flags.any()
    assert_soc_recurrence(pv, gen, demand, result)
    npt.assert_allclose(result.soc, 0.0)


def test_pv_arbitrate_charging_trajectory():
    pv = PvSystem(battery_capacity=10.0, battery_soc=0.0, charge_rate=2.0, charge_efficiency=0.9)
    gen = np.full(48, 1.0)
    demand = np.zeros(48)
    result = pv_arbitrate(pv, gen, demand, make_pricing(), max_app_duration=2)
    npt.assert_allclose(result.soc, np.minimum(0.45 * np.arange(48), 10.0))
    assert_soc_recurrence(pv, gen, demand, result)


def test_pv_arbitrate_energy_conservation():
    rng = np.random.default_rng(7)
    pricing = make_pricing()
    for _ in range(20):
        capacity = float(rng.uniform(0.5, 6.0))
        gen = rng.uniform(0, 2, 48)
        pv = PvSystem(
            battery_capacity=capacity,
            battery_soc=float(rng.uniform(0, capacity)),
            charge_rate=float(rng.uniform(0.2, 3.0)),
            charge_efficiency=float(rng.uniform(0.5, 1.0)),
        )
        demand = rng.uniform(0, 3, 48)
        result = pv_arbitrate(pv, gen, demand, pricing, max_app_duration=int(rng.integers(1, 8)))
        available = pv.battery_soc + pv.charge_efficiency * gen.sum() * 0.5
        assert (result.flags * demand * 0.5).sum() <= available + 1e-9
        assert (result.soc >= -1e-12).all() and (result.soc <= capacity + 1e-12).all()
        assert_soc_recurrence(pv, gen, demand, result)


def pv_arbitrate_on_arrays(pv, gen, demand, pricing, max_app_duration):
    """The slot loop reading numpy arrays and scalars; the reference for ``pv_arbitrate``."""
    peak_mask = pricing.peak_mask()
    starts = sorted(start for start, _ in pricing.peak_windows)
    flags = np.zeros(48, dtype=bool)
    soc_trace = np.empty(48)
    soc = pv.battery_soc
    for idx in range(48):
        slot = idx + 1
        next_start = next((s for s in starts if s > slot), None)
        soc_trace[idx] = soc
        if peak_mask[idx] or next_start is None:
            time_ok = True
        else:
            recharge_slots = (pv.battery_capacity - soc) / pv.charge_rate / 0.5
            time_ok = (next_start - slot) - recharge_slots > max_app_duration
        demand_kwh = demand[idx] * 0.5
        supplied = 0.0
        if time_ok and soc > demand_kwh:
            flags[idx] = True
            supplied = demand_kwh
        charged = pv.charge_efficiency * gen[idx] * 0.5
        soc = min(max(soc + charged - supplied, 0.0), pv.battery_capacity)
    return flags, soc_trace


def test_pv_arbitrate_matches_the_array_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    window_sets = (((35, 44),), ((8, 12), (35, 44)), ((1, 4), (20, 22), (45, 48)), ())
    for trial in range(300):
        capacity = float(rng.uniform(0.5, 6.0))
        soc = capacity if trial % 3 == 0 else float(rng.uniform(0, capacity))  # full battery
        gen = rng.uniform(0, 2, 48) * (rng.random(48) < 0.6)
        pv = PvSystem(
            battery_capacity=capacity,
            battery_soc=soc,
            charge_rate=float(rng.uniform(0.2, 3.0)),
            charge_efficiency=float(rng.uniform(0.5, 1.0)),
        )
        demand = rng.uniform(0, 3, 48) * (rng.random(48) < 0.5)
        if trial % 5 == 0:
            demand = np.zeros(48)
        pricing = make_pricing(peak_windows=window_sets[trial % len(window_sets)])
        duration = int(rng.integers(0, 8))
        result = pv_arbitrate(pv, gen, demand, pricing, max_app_duration=duration)
        flags, soc_trace = pv_arbitrate_on_arrays(pv, gen, demand, pricing, duration)
        npt.assert_array_equal(result.flags, flags)
        assert np.array_equal(result.soc.view(np.uint64), soc_trace.view(np.uint64))


@pytest.mark.parametrize(
    "demand, max_app_duration, error",
    [
        (np.full(48, -0.5), 2, ParameterError),
        (np.where(np.arange(48) == 10, np.nan, 0.5), 2, FormatError),
        (np.where(np.arange(48) == 10, np.inf, 0.5), 2, FormatError),
        (np.full(47, 0.5), 2, FormatError),
        ("3", 2, FormatError),
        (None, 2, FormatError),
        (np.full(48, 0.5), float("nan"), ParameterError),
        (np.full(48, 0.5), 2.5, ParameterError),
        (np.full(48, 0.5), -1, ParameterError),
        (np.full(48, 0.5), "3", ParameterError),
        (np.full(48, 0.5), None, ParameterError),
    ],
    ids=[
        "negative-demand", "nan-demand", "inf-demand", "short-demand", "str-demand",
        "none-demand", "nan-duration", "fractional-duration", "negative-duration",
        "str-duration", "none-duration",
    ],
)
def test_pv_arbitrate_rejects_malformed_input(demand, max_app_duration, error):
    pv = PvSystem(battery_capacity=4.0, battery_soc=4.0)
    with pytest.raises(error):
        pv_arbitrate(pv, np.ones(48), demand, make_pricing(), max_app_duration)


BAD_GENERATION = [
    (np.full(47, 1.0), FormatError, "load curve needs 48 values"),
    (np.where(np.arange(48) == 10, np.nan, 1.0), FormatError, "non-finite"),
    (np.full(48, -0.1), ParameterError, "negative power"),
]
BAD_GENERATION_IDS = ["short-generation", "nan-generation", "negative-generation"]


@pytest.mark.parametrize("gen, error, message", BAD_GENERATION, ids=BAD_GENERATION_IDS)
def test_pv_arbitrate_rejects_malformed_generation(gen, error, message):
    pv = PvSystem(battery_capacity=4.0, battery_soc=4.0)
    with pytest.raises(error, match=message):
        pv_arbitrate(pv, gen, np.full(48, 0.5), make_pricing(), 2)


# ---------------------------------------------------------------- evaluate_cost


def test_cost_zero_when_objective_matches_preferred():
    instances = expand_instances(
        [make_shiftable("wash", power=1.2, duration=3, preferred=8), make_fixed("base")]
    )
    starts = preferred_starts(instances)
    objective = make_objective(total_curve(instances, starts).values)
    assert evaluate_cost(ScheduleAssignment(starts), objective, instances) == 0.0


def test_cost_matches_slot_by_slot_recomputation():
    rng = np.random.default_rng(3)
    for _ in range(12):
        specs = [
            make_shiftable("a", power=rng.uniform(0.5, 2), duration=3, preferred=6),
            make_shiftable("b", power=rng.uniform(0.5, 2), duration=2, preferred=20, count=2),
            make_fixed("f", power=rng.uniform(0.1, 1), duration=6, start=30),
        ]
        instances = expand_instances(specs)
        starts = {
            inst.instance_id: int(rng.integers(1, 48 - inst.duration_slots + 2))
            for inst in instances
            if inst.kind == "shiftable"
        }
        starts.update(preferred_starts(i for i in instances if i.kind == "fixed"))
        flags = rng.uniform(size=48) < 0.3
        objective = make_objective(rng.uniform(0, 2, 48))
        assignment = ScheduleAssignment(starts, pv_flags=flags)
        cost = evaluate_cost(assignment, objective, instances)

        grid = np.zeros(48)
        for inst in instances:
            start = starts[inst.instance_id]
            for k in range(inst.duration_slots):
                idx = start - 1 + k
                if inst.kind == "fixed" or not flags[idx]:
                    grid[idx] += inst.power_profile[k]
        deviation = float(np.sum((grid - objective.values) ** 2))
        assert cost == pytest.approx(deviation, rel=1e-12)


def test_cost_refuses_infeasible_assignment():
    inst = make_instance("wash", duration=4, window=(10, 20), preferred=12)
    objective = make_objective(np.zeros(48))
    with pytest.raises(FeasibilityError, match="outside window"):
        evaluate_cost(ScheduleAssignment({"wash": 18}), objective, [inst])
    with pytest.raises(FeasibilityError, match="no start"):
        evaluate_cost(ScheduleAssignment({}), objective, [inst])
    with pytest.raises(FeasibilityError, match="start nan is not a whole slot"):
        evaluate_cost(ScheduleAssignment({"wash": float("nan")}), objective, [inst])


def test_validate_assignment_reports_each_violation():
    instances = [
        make_instance("a", duration=4, window=(10, 20), preferred=12, max_shift=2),
        make_instance("b", duration=2, preferred=30),
    ]
    ok = validate_assignment(
        instances, ScheduleAssignment({"a": 11, "b": 30})
    )
    assert ok == ()

    messages = validate_assignment(
        instances, ScheduleAssignment({"a": 18, "ghost": 5})
    )
    joined = " | ".join(messages)
    assert "unknown appliance ghost" in joined
    assert "no start for appliance b" in joined
    assert "outside window" in joined

    capped = validate_assignment(instances, ScheduleAssignment({"a": 15, "b": 30}))
    assert any("exceeds" in m and "cap 2" in m for m in capped)

    fractional = validate_assignment(
        instances, ScheduleAssignment({"a": 11.5, "b": 30})
    )
    assert any("whole slot" in m for m in fractional)

    for bad in (float("nan"), float("inf"), float("-inf")):
        messages = validate_assignment(instances, ScheduleAssignment({"a": bad, "b": 30}))
        assert messages == (f"a: start {bad!r} is not a whole slot",)


def test_validate_assignment_flags_moved_fixed_instance():
    # hand-built fixed instances whose window and cap would let them move
    lamps = [
        make_instance(f"lamp#{k}", duration=2, window=(10, 20), preferred=10, kind="fixed")
        for k in (1, 2)
    ]
    both_moved = validate_assignment(lamps, ScheduleAssignment({"lamp#1": 12, "lamp#2": 12}))
    assert both_moved == (
        "lamp#1: fixed appliance moved from slot 10 to 12",
        "lamp#2: fixed appliance moved from slot 10 to 12",
    )

    beside_shiftable = [lamps[0], make_instance("wash", duration=2, preferred=30)]
    messages = validate_assignment(
        beside_shiftable, ScheduleAssignment({"lamp#1": 14, "wash": 30})
    )
    assert messages == ("lamp#1: fixed appliance moved from slot 10 to 14",)
    assert validate_assignment(
        beside_shiftable, ScheduleAssignment({"lamp#1": 10, "wash": 33})
    ) == ()


# ---------------------------------------------------------------- solve: exact


# (screening block, scoring chunk) sizes: the defaults; tiny blocks and
# chunks, which split each product into many of both; tiny blocks beside
# chunks that hold a whole block; and the default block with tiny chunks,
# which splits each block's survivors.  The first two keep the ids they had
# when one size served both.
BLOCK_SIZES = [
    pytest.param(scheduler._SCREEN_ROWS, scheduler._BLOCK_ROWS, id=str(scheduler._BLOCK_ROWS)),
    pytest.param(8, 8, id="8"),
    pytest.param(64, scheduler._BLOCK_ROWS, id="screen64"),
    pytest.param(scheduler._SCREEN_ROWS, 8, id="chunk8"),
]


def set_block_sizes(monkeypatch, screen_rows, block_rows):
    monkeypatch.setattr(scheduler, "_SCREEN_ROWS", screen_rows)
    monkeypatch.setattr(scheduler, "_BLOCK_ROWS", block_rows)


def random_problem(rng, n_appliances=3, with_fixed=True):
    specs = []
    for i in range(n_appliances):
        duration = int(rng.integers(1, 5))
        ws = int(rng.integers(1, 40))
        we = min(int(ws + duration + rng.integers(3, 10)), 48)
        preferred = int(rng.integers(ws, we - duration + 2))
        specs.append(
            make_shiftable(
                f"app{i}",
                power=float(rng.uniform(0.3, 2.5)),
                duration=duration,
                window=(ws, we),
                preferred=preferred,
                max_shift=int(rng.integers(2, 12)),
            )
        )
    if with_fixed:
        specs.append(make_fixed("fridge", power=float(rng.uniform(0.05, 0.4)), duration=48))
    instances = expand_instances(specs)
    objective = make_objective(rng.uniform(0.0, 2.0, 48))
    # two draws left unused: they keep every seeded trial after this one on
    # the instances and objectives its checks were written for
    rng.uniform(0, 0.5, 2)
    return instances, objective


def brute_force_optimum(instances, objective, baseline=None, not_before=1):
    shiftable = sorted(
        (i for i in instances if i.kind == "shiftable"), key=lambda i: i.instance_id
    )
    fixed = {i.instance_id: i.preferred_start for i in instances if i.kind == "fixed"}
    best = None
    for combo in itertools.product(*(feasible_starts(i, not_before) for i in shiftable)):
        starts = dict(fixed)
        starts.update({inst.instance_id: s for inst, s in zip(shiftable, combo)})
        cost = evaluate_cost(
            ScheduleAssignment(starts), objective, instances,
            baseline=baseline, active_from=not_before,
        )
        shift_sum = sum(abs(s - i.preferred_start) for i, s in zip(shiftable, combo))
        key = (cost, shift_sum, combo)
        if best is None or key < best[0]:
            best = (key, starts)
    return best


def test_solve_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        instances, objective = random_problem(rng)
        result = solve(instances, objective)
        assert result.mode == "exhaustive"
        assert validate_assignment(instances, result.assignment) == ()
        best_key, best_starts = brute_force_optimum(instances, objective)
        assert result.cost == best_key[0]
        assert result.assignment.starts == best_starts


@pytest.mark.parametrize("screen_rows, block_rows", BLOCK_SIZES)
def test_solve_matches_exhaustive_oracle_on_online_resolves(
    monkeypatch, screen_rows, block_rows
):
    # the call shape of an intra-day re-solve: committed load as a baseline
    # and starts (and scored slots) clipped to not_before > 1; tiny blocks
    # split each product across many of them
    set_block_sizes(monkeypatch, screen_rows, block_rows)
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 8:
        instances, objective = random_problem(rng)
        shiftable = [i for i in instances if i.kind == "shiftable"]
        not_before = int(rng.integers(2, 25))
        try:
            sets = [feasible_starts(i, not_before) for i in shiftable]
        except InfeasibleApplianceError:
            continue
        baseline = np.zeros(48)
        baseline[: not_before - 1] = rng.uniform(0.0, 1.5, not_before - 1)
        baseline += rng.uniform(0.0, 0.5, 48)
        result = solve(instances, objective, baseline=baseline, not_before=not_before)
        assert result.mode == "exhaustive"
        assert result.evaluations == int(np.prod([len(s) for s in sets]))
        best_key, best_starts = brute_force_optimum(
            instances, objective, baseline=baseline, not_before=not_before
        )
        assert result.cost == best_key[0]
        assert result.assignment.starts == best_starts
        checked += 1


def prefix_loop_reference(space):
    """Exhaustive search one start prefix at a time: the arithmetic and the
    tie-break that block enumeration must reproduce exactly."""
    best_key, best_choice = None, None
    last = len(space.starts) - 1
    for prefix in itertools.product(*(range(s.size) for s in space.starts[:-1])):
        curve = space.residual.copy()
        for i, row in enumerate(prefix):
            curve += space.contribs[i][row]
        gaps = curve + space.contribs[last]
        totals = np.einsum("ij,ij->i", gaps, gaps)
        for row, total in enumerate(totals):
            choice = prefix + (row,)
            key = (
                float(total),
                sum(int(space.shift_abs[i][c]) for i, c in enumerate(choice)),
                tuple(int(space.starts[i][c]) for i, c in enumerate(choice)),
            )
            if best_key is None or key < best_key:
                best_key, best_choice = key, choice
    return best_choice, best_key


@pytest.mark.parametrize("screen_rows, block_rows", BLOCK_SIZES)
def test_enumerate_exact_matches_prefix_loop_reference(monkeypatch, screen_rows, block_rows):
    # random float problems, and flat unreachable targets with integer
    # powers, where exact ties are everywhere
    set_block_sizes(monkeypatch, screen_rows, block_rows)
    rng = np.random.default_rng(37)
    for trial in range(12):
        instances, objective = random_problem(rng, with_fixed=False)
        if trial % 2:
            instances = [
                make_instance(
                    inst.instance_id, power=float(rng.integers(1, 3)),
                    duration=inst.duration_slots, preferred=inst.preferred_start,
                    window=(inst.window_start, inst.window_end), max_shift=inst.max_shift,
                )
                for inst in instances
            ]
            objective = make_objective(np.full(48, 50.0))
        not_before = 1 + int(rng.integers(0, 3))
        try:
            sets = {i.instance_id: feasible_starts(i, not_before) for i in instances}
        except InfeasibleApplianceError:
            continue
        space = scheduler._CandidateSpace(
            sorted(instances, key=lambda i: i.instance_id),
            rng.uniform(-1.0, 0.0, 48) if trial % 2 == 0 else -objective.values,
            rng.uniform(size=48) < 0.2,
            not_before,
            sets,
        )
        choice, key, evaluations = scheduler._enumerate_exact(space)
        assert (choice, key) == prefix_loop_reference(space)
        assert evaluations == int(np.prod([len(s) for s in sets.values()]))

    # not_before at one instance's last start leaves it that start alone,
    # beside the instances still feasible then, some with several starts
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 6:
        instances, objective = random_problem(rng, n_appliances=4, with_fixed=False)
        not_before = feasible_starts(instances[int(rng.integers(4))])[-1]
        sets = {}
        for inst in instances:
            try:
                sets[inst.instance_id] = feasible_starts(inst, not_before)
            except InfeasibleApplianceError:
                continue
        sizes = sorted(len(s) for s in sets.values())
        if len(sizes) < 2 or sizes[0] != 1 or sizes[-1] == 1:
            continue
        space = scheduler._CandidateSpace(
            sorted((i for i in instances if i.instance_id in sets), key=lambda i: i.instance_id),
            rng.uniform(-1.0, 0.0, 48),
            rng.uniform(size=48) < 0.2,
            not_before,
            sets,
        )
        choice, key, evaluations = scheduler._enumerate_exact(space)
        assert (choice, key) == prefix_loop_reference(space)
        assert evaluations == int(np.prod(sizes))
        checked += 1


def candidate_space(instances, residual, flags=None, not_before=1):
    """The candidate space of ``instances`` over all of their feasible starts."""
    instances = sorted(instances, key=lambda i: i.instance_id)
    sets = {i.instance_id: feasible_starts(i, not_before) for i in instances}
    return scheduler._CandidateSpace(
        instances,
        residual,
        np.zeros(48, dtype=bool) if flags is None else flags,
        not_before,
        sets,
    )


def count_exact_scores(monkeypatch):
    """Record how many candidates each exact-scorer call sees; returns the list."""
    seen = []
    exact = scheduler._exact_totals

    def spy(space, picked):
        totals = exact(space, picked)
        seen.append(totals.size)
        return totals

    monkeypatch.setattr(scheduler, "_exact_totals", spy)
    return seen


def traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The working memory one ``_enumerate_exact`` call may take, whatever the
# size of the start product: three scoring chunks of candidate curves at
# once, plus a screening block's survivor indices.
WORKING_MEMORY_BOUND = 3 * scheduler._BLOCK_ROWS * 48 * 8 + 500_000


def real_total(space, choice):
    """A candidate's squared deviation in exact rational arithmetic."""
    curve = [Fraction(float(v)) for v in space.residual]
    for i, row in enumerate(choice):
        curve = [g + Fraction(float(c)) for g, c in zip(curve, space.contribs[i][row])]
    return sum(g * g for g in curve)


@pytest.mark.parametrize("screen_rows, block_rows", BLOCK_SIZES)
@pytest.mark.parametrize("flavour", ["equal in reals", "equal in floats"])
def test_enumerate_exact_keeps_near_ties_through_the_screen(
    monkeypatch, screen_rows, block_rows, flavour
):
    # Separated runs on a flat residual share one real total, but the einsum
    # adds the same squares in an order set by where the runs lie, so their
    # float totals differ by ulps.  A residual perturbed by ulps instead
    # gives real totals that differ by less than the totals' ulp, so that
    # many of them round to one float.  The screen must keep every
    # candidate that could score exactly at or below the winner.
    set_block_sizes(monkeypatch, screen_rows, block_rows)
    rng = np.random.default_rng(53)
    for _ in range(3):
        level = float(rng.uniform(2.0, 3.0))
        residual = np.full(48, -level)
        if flavour == "equal in floats":
            residual += rng.integers(-2, 3, 48) * np.spacing(level)
        instances = [
            make_instance(
                f"a{i}", power=float(rng.uniform(0.3, 1.5)), duration=int(rng.integers(1, 4)),
                preferred=int(rng.integers(5, 42)), max_shift=4,
            )
            for i in range(4)
        ]
        space = candidate_space(instances, residual)
        choice, key, evaluations = scheduler._enumerate_exact(space)
        assert (choice, key) == prefix_loop_reference(space)
        assert evaluations == 9**4 > block_rows

        totals = {
            combo: key_reference(space, combo)[0]
            for combo in itertools.product(*(range(s.size) for s in space.starts))
        }
        if flavour == "equal in reals":  # the winner's real total, many float totals
            near = {t: c for c, t in totals.items() if t - key[0] < 1e-12 * key[0]}
            assert len(near) > 1
            assert {real_total(space, c) for c in near.values()} == {real_total(space, choice)}
        else:  # float ties on the winner's total that differ in reals
            tied = [c for c, t in totals.items() if t == key[0]]
            assert len({real_total(space, c) for c in tied[:40]}) > 1


@pytest.mark.parametrize("screen_rows, block_rows", BLOCK_SIZES)
def test_enumerate_exact_scores_a_tie_saturated_product_exactly(
    monkeypatch, screen_rows, block_rows
):
    # runs in disjoint windows with integer powers under a flat unreachable
    # target: every placement adds the same integer squares, so every
    # candidate ties exactly, survives the screen and is scored exactly,
    # over more than 4 blocks; the preferred starts win on the least shift
    set_block_sizes(monkeypatch, screen_rows, block_rows)
    seen = count_exact_scores(monkeypatch)
    instances = [
        make_instance(
            f"a{i}", power=float(1 + i % 2), duration=1, window=(1 + 12 * i, 12 + 12 * i),
            preferred=6 + 12 * i,
        )
        for i in range(4)
    ]
    space = candidate_space(instances, np.full(48, -50.0))
    (choice, key, evaluations), peak = traced_peak(lambda: scheduler._enumerate_exact(space))
    assert (choice, key) == prefix_loop_reference(space)
    assert key[1:] == (0, (6, 18, 30, 42))
    assert evaluations == 12**4 > 4 * block_rows
    assert sum(seen) == evaluations
    assert peak < WORKING_MEMORY_BOUND


def test_enumerate_exact_scores_many_survivors_of_one_block_in_chunks(monkeypatch):
    # two unit runs share one window and two more have a window each, under
    # a flat unreachable target: the 12 * 11 * 12^2 placements that keep the
    # shared pair apart tie exactly, and the screen drops the collisions.
    # The product fits one screening block, so its 19008 survivors fill
    # several scoring chunks; the least shift wins, then the least starts.
    seen = count_exact_scores(monkeypatch)
    instances = [
        make_instance(name, power=1.0, duration=1, window=window, preferred=preferred)
        for name, window, preferred in (
            ("a", (1, 12), 6), ("b", (1, 12), 6), ("c", (13, 24), 18), ("d", (25, 36), 30),
        )
    ]
    space = candidate_space(instances, np.full(48, -50.0))
    (choice, key, evaluations), peak = traced_peak(lambda: scheduler._enumerate_exact(space))
    assert (choice, key) == prefix_loop_reference(space)
    assert key[1:] == (1, (5, 6, 18, 30))
    assert evaluations == 12**4 <= scheduler._SCREEN_ROWS
    assert sum(seen) == 12 * 11 * 12**2 > 4 * scheduler._BLOCK_ROWS
    assert max(seen) == scheduler._BLOCK_ROWS
    assert peak < WORKING_MEMORY_BOUND


def test_enumerate_exact_screen_prunes_with_bounded_memory(monkeypatch):
    # on a random float problem few candidates come within the screen's
    # bound of the least screened total, so the exact scorer sees under 1%
    # of a product of ~10^6 candidates; blocks keep the call's memory to a
    # few MB where the product's totals alone would take 7.4 MB
    seen = count_exact_scores(monkeypatch)
    rng = np.random.default_rng(61)
    instances = [
        make_instance(
            f"a{i}", power=float(rng.uniform(0.3, 2.5)), duration=int(rng.integers(1, 5)),
            preferred=int(rng.integers(17, 24)), max_shift=15,
        )
        for i in range(4)
    ]
    space = candidate_space(instances, -rng.uniform(0.0, 2.0, 48))
    (choice, key, evaluations), peak = traced_peak(lambda: scheduler._enumerate_exact(space))
    assert evaluations == 31**4
    assert 0 < sum(seen) < evaluations / 100
    assert peak < WORKING_MEMORY_BOUND
    assert key == key_reference(space, choice)


def test_candidate_space_places_each_run_like_a_per_start_loop():
    # the contribution rows are bit-identical to placing each start's power
    # profile in its own row, masked by the PV flags, on the scored columns
    rng = np.random.default_rng(67)
    instances = []
    for i in range(3):
        duration = int(rng.integers(1, 6))
        instances.append(
            ApplianceInstance(
                instance_id=f"a{i}", kind="shiftable", power_profile=rng.uniform(0.1, 2.0, duration),
                duration_slots=duration, window_start=1, window_end=48,
                preferred_start=int(rng.integers(10, 40)), max_shift=int(rng.integers(1, 9)),
            )
        )
    flags = rng.uniform(size=48) < 0.3
    space = candidate_space(instances, -rng.uniform(0.0, 2.0, 48), flags=flags, not_before=4)
    for inst, starts, contrib in zip(instances, space.starts, space.contribs):
        expected = np.zeros((starts.size, 48))
        for row, start in enumerate(starts):
            expected[row, start - 1 : start - 1 + inst.duration_slots] = inst.power_profile
        expected *= (~flags).astype(float)
        assert contrib.tobytes() == np.ascontiguousarray(expected[:, 3:]).tobytes()


def test_solve_flat_unreachable_objective_keeps_preferred():
    # far-above-reach flat target: every start ties on deviation (integer
    # powers keep the float sums exact), so the preferred slots must win
    # through the least-shift tie-break
    instances = expand_instances(
        [
            make_shiftable("a", power=1.0, duration=3, window=(1, 24), preferred=9),
            make_shiftable("b", power=2.0, duration=2, window=(30, 48), preferred=40),
        ]
    )
    objective = make_objective(np.full(48, 50.0))
    result = solve(instances, objective)
    assert result.assignment.starts == {"a": 9, "b": 40}


def test_solve_breaks_exact_ties_lexicographically():
    objective = make_objective(np.full(48, 50.0))
    # separating the two runs beats stacking them; among the cost ties with
    # total displacement 1, (9, 10) is the lexicographically least start pair
    pair = [
        make_instance("a1", power=1.0, duration=1, preferred=10),
        make_instance("a2", power=1.0, duration=1, preferred=10),
    ]
    result = solve(pair, objective)
    assert result.assignment.starts == {"a1": 9, "a2": 10}

    # the same collision ahead of three 17-start runs: every placement with
    # no two runs in one slot ties on cost, the first blocks already hold
    # such ties at larger shifts, and the four displacement-1 ties lie in
    # three screening blocks; the earliest of them, (3, 4), must survive the
    # rest
    collision = [
        make_instance("a1", power=1.0, duration=1, window=(1, 8), preferred=4),
        make_instance("a2", power=1.0, duration=1, window=(1, 8), preferred=4),
    ] + [
        make_instance(name, power=1.0, duration=1, window=(9, 48), preferred=p, max_shift=8)
        for name, p in (("b", 20), ("c", 30), ("d", 40))
    ]
    result = solve(collision, objective)
    assert result.evaluations == 8 * 8 * 17**3 > 4 * scheduler._BLOCK_ROWS
    assert result.assignment.starts == {"a1": 3, "a2": 4, "b": 20, "c": 30, "d": 40}


def test_solve_achievable_objective_reaches_zero_deviation():
    rng = np.random.default_rng(23)
    for _ in range(5):
        instances, _ = random_problem(rng, with_fixed=True)
        target_starts = {}
        for inst in instances:
            if inst.kind == "shiftable":
                choices = feasible_starts(inst)
                target_starts[inst.instance_id] = int(rng.choice(choices))
            else:
                target_starts[inst.instance_id] = inst.preferred_start
        objective = make_objective(total_curve(instances, target_starts).values)
        result = solve(instances, objective)
        assert result.cost == pytest.approx(0.0, abs=1e-18)


def test_solve_without_shiftable_scores_fixed_remainder():
    instances = expand_instances([make_fixed("f", power=1.0, duration=10, start=5)])
    objective = make_objective(np.zeros(48))
    result = solve(instances, objective)
    assert result.assignment.starts == {"f": 5}
    assert result.cost == pytest.approx(10 * 1.0)
    assert result.mode == "exhaustive"


def test_solve_energy_is_placement_invariant():
    rng = np.random.default_rng(31)
    instances, objective = random_problem(rng, n_appliances=3)
    result = solve(instances, objective)
    scheduled = total_curve(instances, result.assignment.starts)
    expected = total_curve(instances, preferred_starts(instances)).energy_kwh()
    assert scheduled.energy_kwh() == pytest.approx(expected, rel=1e-12)


def test_solve_infeasible_problem_names_offenders():
    instances = [
        make_instance("early", duration=4, window=(2, 8), preferred=3),
        make_instance("late", duration=2, window=(40, 48), preferred=44),
    ]
    objective = make_objective(np.zeros(48))
    with pytest.raises(InfeasibleProblemError) as excinfo:
        solve(instances, objective, not_before=20)
    assert excinfo.value.offenders == ("early",)
    assert "early" in str(excinfo.value)


def test_solve_refuses_more_candidate_starts_than_the_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a candidate space was built")

    monkeypatch.setattr(scheduler, "_CandidateSpace", refuse)
    # 600 instances with starts 1 and 2 each: 1200 candidate starts in all
    spec = make_shiftable(count=600, duration=2, window=(1, 3), preferred=1, max_shift=1)
    message = f"^1200 candidate starts exceed MAX_CANDIDATE_STARTS {MAX_CANDIDATE_STARTS}$"
    with pytest.raises(ParameterError, match=message):
        solve(expand_instances([spec]), make_objective(np.zeros(48)))


def test_solve_not_before_clips_starts_and_deviation():
    inst = make_instance("a", power=2.0, duration=2, preferred=5)
    # huge objective mismatch before slot 20 must not influence the score
    values = np.zeros(48)
    values[:19] = 99.0
    objective = make_objective(values)
    result = solve([inst], objective, not_before=20)
    # all feasible placements tie at deviation 8, so the smallest shift wins
    assert result.assignment.starts["a"] == 20
    assert result.cost == pytest.approx(8.0)
    assert result.cost == evaluate_cost(result.assignment, objective, [inst], active_from=20)


def test_solve_pricing_required_with_pv():
    inst = make_instance("a", duration=2, preferred=10)
    pv = PvSystem(battery_capacity=1.0)
    with pytest.raises(ParameterError, match="pricing"):
        solve([inst], make_objective(np.zeros(48)), pv=pv, generation=np.zeros(48))


# ---------------------------------------------------------------- solve: local search


def spy_least_key(monkeypatch):
    """Record each ``_least_key`` call as (picked, choice, key), in order.

    In local search that is each descent start (every entry of ``picked``
    one row) and each move (one instance's entry holds all of its rows)."""
    calls = []
    least_key = scheduler._least_key

    def spy(space, picked):
        choice, key = least_key(space, picked)
        calls.append((picked, choice, key))
        return choice, key

    monkeypatch.setattr(scheduler, "_least_key", spy)
    return calls


def test_solve_switches_to_local_search_beyond_threshold(monkeypatch):
    monkeypatch.setattr(scheduler, "_EXACT_LIMIT", 10)
    calls = spy_least_key(monkeypatch)
    rng = np.random.default_rng(5)
    instances, objective = random_problem(rng, n_appliances=3)
    result = solve(instances, objective)
    assert result.mode == "local_search"
    assert validate_assignment(instances, result.assignment) == ()
    # non-increasing descent: a move scores one instance's rows with the rest
    # held, from the choice the call before it won
    moves = [n for n, (picked, _, _) in enumerate(calls) if any(np.ndim(r) for r in picked)]
    assert moves and moves[0] > 0
    assert all(calls[n][2][0] <= calls[n - 1][2][0] for n in moves)

    # descent starts at the preferred schedule, so it can never end worse
    baseline = evaluate_cost(ScheduleAssignment(preferred_starts(instances)), objective, instances)
    assert result.cost <= baseline + 1e-12


def test_solve_local_search_finds_exact_optimum_here(monkeypatch):
    rng = np.random.default_rng(17)
    for _ in range(5):
        instances, objective = random_problem(rng, n_appliances=2)
        exact = solve(instances, objective)
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "_EXACT_LIMIT", 1)
            local = solve(instances, objective)
        assert local.cost <= exact.cost + 1e-9
        assert local.mode == "local_search" and exact.mode == "exhaustive"


def test_solve_is_deterministic(monkeypatch):
    monkeypatch.setattr(scheduler, "_EXACT_LIMIT", 10)
    calls = spy_least_key(monkeypatch)
    rng = np.random.default_rng(41)
    instances, objective = random_problem(rng, n_appliances=4)
    first = solve(instances, objective)
    first_moves = [(choice, key) for _, choice, key in calls]
    calls.clear()
    second = solve(instances, objective)
    assert first.assignment.starts == second.assignment.starts
    assert first.cost == second.cost
    assert first_moves == [(choice, key) for _, choice, key in calls]


def key_reference(space, choice):
    """One candidate scored alone: (cost, total |shift|, start tuple).

    The squared deviation is the scorer's one-row einsum.  ``np.sum``'s
    pairwise order can differ from it in the last bit, which decides
    near-ties differently: on one online re-solve two starts of a run came
    out equal under ``np.sum`` and one ulp apart under einsum."""
    curve = space.residual.copy()
    for i, row in enumerate(choice):
        curve += space.contribs[i][row]
    total = float(np.einsum("ij,ij->i", curve[np.newaxis], curve[np.newaxis])[0])
    shift = sum(int(space.shift_abs[i][row]) for i, row in enumerate(choice))
    return (total, shift, tuple(int(space.starts[i][row]) for i, row in enumerate(choice)))


def local_search_reference(space, restarts=3, max_passes=60):
    """Hill descent that scores each single-instance move on its own and
    keeps a trial only when its key is strictly lower than the best so far:
    the move rule that block-scored moves must reproduce.

    Returns (choice, trace, evaluations, moves): ``trace`` holds the winning
    descent's start cost and its cost after each move, and ``moves`` the
    (choice, key) after each descent start and each tried move, in the order
    ``_local_search`` scores them with ``_least_key``."""
    rng = np.random.default_rng(0)
    k = len(space.starts)
    evaluations = 0
    moves = []

    def polish(start):
        nonlocal evaluations
        current = list(start)
        key = key_reference(space, current)
        trace = [key[0]]
        moves.append((tuple(current), key))
        for _ in range(max_passes):
            improved = False
            for i in range(k):
                best_row, best_key = current[i], key_reference(space, current)
                for row in range(space.starts[i].size):
                    if row == current[i]:
                        continue
                    trial = current.copy()
                    trial[i] = row
                    trial_key = key_reference(space, trial)
                    evaluations += 1
                    if trial_key < best_key:
                        best_key, best_row = trial_key, row
                if best_row != current[i]:
                    current[i] = best_row
                    trace.append(best_key[0])
                    improved = True
                moves.append((tuple(current), best_key))
            if not improved:
                break
        return tuple(current), key_reference(space, current), trace

    best = polish(tuple(int(np.argmin(shifts)) for shifts in space.shift_abs))
    for _ in range(restarts):
        found = polish(tuple(int(rng.integers(s.size)) for s in space.starts))
        if found[1] < best[1]:
            best = found
    return best[0], tuple(best[2]), evaluations, moves


def local_search_problem(rng, trial):
    """Random windows; whole-day windows with count-2 duplicates; or the
    duplicates under a flat unreachable target with integer powers, where
    exact ties are everywhere."""
    if trial % 3 == 0:
        return random_problem(rng, n_appliances=int(rng.integers(3, 6)), with_fixed=False)
    specs = [
        make_shiftable(
            f"app{i}",
            power=float(rng.integers(1, 3)) if trial % 3 == 2 else float(rng.uniform(0.3, 2.5)),
            duration=int(rng.integers(1, 5)),
            preferred=int(rng.integers(1, 40)),
            count=2,
        )
        for i in range(2)
    ]
    if trial % 3 == 2:
        return expand_instances(specs), make_objective(np.full(48, 50.0))
    # two draws left unused: they keep every seeded trial after this one on
    # the instances and objectives its checks were written for
    rng.uniform(0, 0.5, 2)
    return expand_instances(specs), make_objective(rng.uniform(0.0, 2.0, 48))


@pytest.mark.parametrize("screen_rows, block_rows", BLOCK_SIZES)
def test_local_search_matches_single_move_reference(monkeypatch, screen_rows, block_rows):
    set_block_sizes(monkeypatch, screen_rows, block_rows)
    rng = np.random.default_rng(43)
    for trial in range(12):
        instances, objective = local_search_problem(rng, trial)
        instances = sorted(instances, key=lambda i: i.instance_id)
        not_before = 1 + int(rng.integers(0, 3))
        try:
            sets = {i.instance_id: feasible_starts(i, not_before) for i in instances}
        except InfeasibleApplianceError:
            continue
        flags = rng.uniform(size=48) < 0.2
        rng.uniform(0.1, 0.5)  # left unused, so the trials after this one stay as written
        space = scheduler._CandidateSpace(instances, -objective.values, flags, not_before, sets)
        calls = spy_least_key(monkeypatch)
        choice, evaluations = scheduler._local_search(space)
        ref_choice, ref_trace, ref_evaluations, ref_moves = local_search_reference(space)
        assert choice == ref_choice
        assert evaluations == ref_evaluations
        assert [(choice, key) for _, choice, key in calls] == ref_moves and len(ref_trace) > 1


def test_local_search_never_enumerates_a_start_product(monkeypatch):
    # a move scores one appliance's starts directly, so local search runs
    # with the exhaustive scorer gone
    def no_enumeration(*args, **kwargs):
        raise AssertionError("local search enumerated a start product")

    monkeypatch.setattr(scheduler, "_enumerate_exact", no_enumeration)
    monkeypatch.setattr(scheduler, "_EXACT_LIMIT", 1)
    rng = np.random.default_rng(47)
    for trial in range(3):
        instances, objective = local_search_problem(rng, trial)
        space = candidate_space(instances, -objective.values)
        ref_choice, _, ref_evaluations, _ = local_search_reference(space)
        assert scheduler._local_search(space) == (ref_choice, ref_evaluations)
        result = solve(instances, objective)
        assert result.mode == "local_search"
        assert result.assignment.starts == space.starts_mapping(ref_choice)


def test_local_search_builds_no_screen_terms(monkeypatch):
    # only exhaustive enumeration reads the unary and pairwise terms
    monkeypatch.setattr(scheduler, "_EXACT_LIMIT", 1)
    rng = np.random.default_rng(47)
    instances, objective = local_search_problem(rng, 1)
    unpatched = solve(instances, objective)

    def refuse(space):
        raise AssertionError("a local-search round built screen terms")

    monkeypatch.setattr(scheduler, "_screen_terms", refuse)
    result = solve(instances, objective)
    assert result.mode == "local_search"
    assert result.assignment.starts == unpatched.assignment.starts
    assert result.cost == unpatched.cost


# ---------------------------------------------------------------- solve: pv


def peaked_pv_problem():
    specs = [
        make_shiftable("oven", power=2.0, duration=3, window=(30, 48), preferred=36, max_shift=6),
        make_shiftable("wash", power=1.0, duration=2, window=(20, 48), preferred=38, max_shift=10),
        make_fixed("base", power=0.3, duration=48),
    ]
    instances = expand_instances(specs)
    pricing = make_pricing()
    gen = np.zeros(48)
    gen[16:32] = 1.5  # sun from 08:00 to 16:00
    pv = PvSystem(battery_capacity=4.0, battery_soc=1.0, charge_rate=1.5, charge_efficiency=0.9)
    objective = make_objective(np.full(48, 0.5))
    return instances, objective, pricing, pv, gen


def test_solve_with_pv_reaches_consistent_flags():
    instances, objective, pricing, pv, gen = peaked_pv_problem()
    result = solve(instances, objective, pricing=pricing, pv=pv, generation=gen)
    shiftable = [i for i in instances if i.kind == "shiftable"]
    demand = total_curve(shiftable, result.assignment.starts)
    again = pv_arbitrate(pv, gen, demand, pricing, max_app_duration=3)
    npt.assert_array_equal(result.assignment.pv_flags, again.flags)

    assert result.cost == evaluate_cost(result.assignment, objective, instances)


def test_pv_fixed_point_stops_at_a_repeated_flag_state(monkeypatch):
    # an arbitration that flips between two flag states: a run inside
    # state A's slots gets state B, any other run gets A, and the optimum
    # under either state moves the run into its flagged slots.  The loop
    # stops once it would optimize for A again, after two rounds, where
    # running all ``_PV_ITERATION_CAP`` rounds only repeats candidates.
    state_a = np.zeros(48, dtype=bool)
    state_a[4:14] = True
    state_b = np.zeros(48, dtype=bool)
    state_b[29:39] = True

    def cycling(pv, gen, demand, pricing, max_app_duration):
        flags = state_b if demand.values[state_a].any() else state_a
        return SimpleNamespace(flags=flags.copy())

    built = []

    class CountedSpace(scheduler._CandidateSpace):
        def __init__(self, *args):
            built.append(args[2].copy())
            super().__init__(*args)

    monkeypatch.setattr(scheduler, "pv_arbitrate", cycling)
    monkeypatch.setattr(scheduler, "_CandidateSpace", CountedSpace)
    instances = expand_instances(
        [
            make_shiftable("wash", power=1.0, duration=2, preferred=10),
            make_fixed("base", power=0.3, duration=48),
        ]
    )
    pricing = make_pricing()
    pv = PvSystem(battery_capacity=4.0)
    gen = np.zeros(48)
    objective = make_objective(np.zeros(48))
    result = solve(instances, objective, pricing=pricing, pv=pv, generation=gen)
    assert len(built) == 2
    npt.assert_array_equal(built[0], state_b)  # the preferred start lies in A
    npt.assert_array_equal(built[1], state_a)

    # the loop as it ran before: every round, each optimizing by brute force
    wash, base = instances
    fixed = {"base": base.preferred_start}
    flags = cycling(pv, gen, total_curve([wash], {"wash": wash.preferred_start}), pricing, 2).flags
    best = None
    for _ in range(scheduler._PV_ITERATION_CAP):
        start = min(
            feasible_starts(wash),
            key=lambda t: (
                evaluate_cost(ScheduleAssignment({"wash": t, **fixed}, flags), objective, instances),
                abs(t - wash.preferred_start),
                t,
            ),
        )
        flags = cycling(pv, gen, total_curve([wash], {"wash": start}), pricing, 2).flags
        candidate = ScheduleAssignment({"wash": start, **fixed}, flags)
        cost = evaluate_cost(candidate, objective, instances)
        if best is None or cost < best[0]:
            best = (cost, candidate)
    cost, assignment = best
    assert result.cost == cost
    assert result.assignment.starts == assignment.starts
    npt.assert_array_equal(result.assignment.pv_flags, assignment.pv_flags)


def test_solve_big_battery_leaves_only_fixed_load_on_grid():
    # a battery that can cover the whole run: the grid sees just the fixed
    # base load wherever the run lands, so scores are exactly computable
    instances = expand_instances(
        [
            make_shiftable("wash", power=1.0, duration=2, preferred=10, max_shift=5),
            make_fixed("base", power=0.3, duration=48),
        ]
    )
    pricing = make_pricing()
    pv = PvSystem(battery_capacity=10.0, battery_soc=10.0, charge_rate=1.0)
    objective = make_objective(np.zeros(48))
    result = solve(instances, objective, pricing=pricing, pv=pv, generation=np.zeros(48))

    assert result.assignment.starts["wash"] == 10  # all placements tie, keep preferred
    assert result.assignment.pv_flags[9] and result.assignment.pv_flags[10]
    assert result.cost == pytest.approx(48 * 0.3**2)

    without = solve(instances, objective)
    expected = 46 * 0.3**2 + 2 * 1.3**2
    assert without.cost == pytest.approx(expected)
    assert result.cost < without.cost


# ---------------------------------------------------------------- export


def test_assignment_export_schema():
    instances = [
        make_instance("wash", duration=3, preferred=10),
        make_instance("oven", duration=2, preferred=30),
    ]
    flags = np.zeros(48, dtype=bool)
    flags[5] = True
    assignment = ScheduleAssignment({"wash": 12, "oven": 30}, pv_flags=flags)
    payload = assignment.to_json_dict(instances)
    text = json.dumps(payload)  # must be serializable as-is
    assert "wash" in text

    oven, wash = payload["appliances"]
    assert wash == {
        "id": "wash",
        "preferred_start": 10,
        "scheduled_start": 12,
        "shift": 2,
        "source_slots": [12, 13, 14],
    }
    assert oven["shift"] == 0
    assert payload["pv_flags"][5] == 1 and sum(payload["pv_flags"]) == 1


# a baseline is checked as a LoadCurve, with LoadCurve's messages
SHORT_BASELINE = (FormatError, r"load curve needs 48 values, got shape \(47,\)")
NON_FINITE_BASELINE = (FormatError, "load curve contains non-finite values")
BAD_NOT_BEFORE = (ParameterError, "not_before must be a whole number >= 1")
UNPAIRED = (ParameterError, "pv and generation must be given together")
WITH_PV = {"pricing": make_pricing(), "pv": PvSystem(battery_capacity=4.0, battery_soc=4.0)}


@pytest.mark.parametrize(
    "bad, expected",
    [
        ({"baseline": np.zeros(47)}, SHORT_BASELINE),
        ({"baseline": np.array([0.0])},
         (FormatError, r"load curve needs 48 values, got shape \(1,\)")),
        ({"baseline": np.full(48, np.nan)}, NON_FINITE_BASELINE),
        ({"baseline": np.full(48, np.inf)}, NON_FINITE_BASELINE),
        ({"baseline": np.full(48, -0.1)}, (ParameterError, "load curve contains negative power")),
        ({"baseline": ["kw"] * 48}, (FormatError, "load curve needs 48 numbers")),
        ({"not_before": 0}, BAD_NOT_BEFORE),
        ({"not_before": 2.5}, BAD_NOT_BEFORE),
        ({"not_before": float("nan")}, BAD_NOT_BEFORE),
        ({"not_before": 49}, (ParameterError, "not_before must be <= 48, got 49")),
        (WITH_PV, UNPAIRED),
        ({"generation": np.zeros(48)}, UNPAIRED),
        *(({**WITH_PV, "generation": gen}, (error, message))
          for gen, error, message in BAD_GENERATION),
    ],
    ids=["baseline of 47", "baseline of 1", "baseline nan", "baseline inf", "baseline negative",
         "baseline of words", "not_before 0",
         "not_before 2.5", "not_before nan", "not_before 49", "pv without generation",
         "generation without pv", *BAD_GENERATION_IDS],
)
def test_solve_rejects_bad_input_before_searching(bad, expected, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the arguments were checked")

    monkeypatch.setattr(scheduler, "_enumerate_exact", no_search)
    monkeypatch.setattr(scheduler, "_local_search", no_search)
    error, message = expected
    inst = make_instance("wash", duration=2, preferred=10)
    objective = make_objective(np.ones(48))
    with pytest.raises(error, match=message):
        solve([inst], objective, **bad)
    if "baseline" in bad:  # evaluate_cost shares the check
        with pytest.raises(error, match=message):
            evaluate_cost(
                ScheduleAssignment({"wash": 10}), objective, [inst], **bad
            )
    if "not_before" in bad:  # evaluate_cost's active_from is checked the same way
        with pytest.raises(error, match=message.replace("not_before", "active_from")):
            evaluate_cost(
                ScheduleAssignment({"wash": 10}), objective, [inst],
                active_from=bad["not_before"],
            )
