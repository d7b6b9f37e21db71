"""Scheduler tests: feasible sets, PV arbitration, cost math, and the solver."""

from __future__ import annotations

import itertools
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.core import (
    ApplianceInstance,
    LoadCurve,
    PvSystem,
    expand_instances,
    preferred_starts,
    total_curve,
)
from loadshift.errors import (
    FeasibilityError,
    InfeasibleApplianceError,
    InfeasibleProblemError,
    ParameterError,
)
from loadshift import scheduler
from loadshift.objective import ObjectiveCurve
from loadshift.scheduler import (
    DiscomfortWeights,
    ScheduleAssignment,
    default_blend,
    evaluate_cost,
    feasible_starts,
    pv_arbitrate,
    solve,
    validate_assignment,
)

from conftest import make_fixed, make_pricing, make_shiftable


def make_objective(values) -> ObjectiveCurve:
    values = np.asarray(values, dtype=float)
    return ObjectiveCurve(
        values=values,
        mode="offline",
        provenance=("predicted",) * 48,
        predicted=LoadCurve(values),
    )


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
        type_id=instance_id.split("#")[0],
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


def test_feasible_starts_names_binding_constraint():
    late = make_shiftable(duration=4, window=(10, 20), preferred=10)
    with pytest.raises(InfeasibleApplianceError, match="window"):
        feasible_starts(late, not_before=18)
    pinned = make_shiftable(duration=2, window=(5, 30), preferred=10, max_shift=0)
    with pytest.raises(InfeasibleApplianceError, match="shift cap"):
        feasible_starts(pinned, not_before=11)


# ---------------------------------------------------------------- pv_arbitrate


def test_pv_arbitrate_hand_simulation():
    # full 2 kWh battery, no sun, flat 0.2 kW shiftable demand, peak at 35-44
    pv = PvSystem(
        generation=np.zeros(48),
        battery_capacity=2.0,
        battery_soc=2.0,
        charge_rate=1.0,
        charge_efficiency=1.0,
    )
    pricing = make_pricing()
    result = pv_arbitrate(pv, np.full(48, 0.2), pricing, max_app_duration=4)

    # supplies 0.1 kWh per slot until only 0.1 kWh remains (strict > demand),
    # which happens entering slot 20; the time condition holds well past that
    expected = np.zeros(48, dtype=bool)
    expected[:19] = True
    npt.assert_array_equal(result.flags, expected)
    npt.assert_allclose(result.soc[:20], 2.0 - 0.1 * np.arange(20))
    npt.assert_allclose(result.soc[20:], 0.1)
    assert result.supplied_kwh.sum() == pytest.approx(1.9)


def test_pv_arbitrate_waits_to_recharge_before_peak():
    # slow charger: recharge takes 8*(2 - soc) slots, so even a tiny drain
    # eventually eats the margin required before the 35-44 peak
    pv = PvSystem(
        generation=np.zeros(48),
        battery_capacity=2.0,
        battery_soc=2.0,
        charge_rate=0.25,
        charge_efficiency=1.0,
    )
    pricing = make_pricing()
    result = pv_arbitrate(pv, np.full(48, 0.05), pricing, max_app_duration=6)

    # drain 0.025 kWh/slot: at slot h the margin is (35-h) - 0.2*(h-1) slots,
    # which drops to max_app_duration entering slot 25; supply resumes inside
    # the peak window and again afterwards, when no peak remains to save for
    expected = np.ones(48, dtype=bool)
    expected[24:34] = False
    npt.assert_array_equal(result.flags, expected)
    npt.assert_allclose(result.soc[24:34], 2.0 - 0.025 * 24)
    assert result.supplied_kwh.sum() <= pv.battery_soc + 1e-9


def test_pv_arbitrate_empty_battery_never_raises():
    pv = PvSystem(generation=np.zeros(48), battery_capacity=1.0, battery_soc=0.0)
    result = pv_arbitrate(pv, np.full(48, 1.0), make_pricing(), max_app_duration=2)
    assert not result.flags.any()
    assert result.supplied_kwh.sum() == 0.0
    npt.assert_allclose(result.soc, 0.0)


def test_pv_arbitrate_charging_trajectory():
    pv = PvSystem(
        generation=np.full(48, 1.0),
        battery_capacity=10.0,
        battery_soc=0.0,
        charge_rate=2.0,
        charge_efficiency=0.9,
    )
    result = pv_arbitrate(pv, np.zeros(48), make_pricing(), max_app_duration=2)
    npt.assert_allclose(result.soc, np.minimum(0.45 * np.arange(48), 10.0))
    assert result.supplied_kwh.sum() == 0.0


def test_pv_arbitrate_energy_conservation():
    rng = np.random.default_rng(7)
    pricing = make_pricing()
    for _ in range(20):
        capacity = float(rng.uniform(0.5, 6.0))
        pv = PvSystem(
            generation=rng.uniform(0, 2, 48),
            battery_capacity=capacity,
            battery_soc=float(rng.uniform(0, capacity)),
            charge_rate=float(rng.uniform(0.2, 3.0)),
            charge_efficiency=float(rng.uniform(0.5, 1.0)),
        )
        demand = rng.uniform(0, 3, 48)
        result = pv_arbitrate(pv, demand, pricing, max_app_duration=int(rng.integers(1, 8)))
        available = pv.battery_soc + pv.charge_efficiency * pv.generation.sum() * 0.5
        assert result.supplied_kwh.sum() <= available + 1e-9
        assert (result.soc >= -1e-12).all() and (result.soc <= capacity + 1e-12).all()
        npt.assert_allclose(result.supplied_kwh[result.flags], demand[result.flags] * 0.5)
        assert (result.supplied_kwh[~result.flags] == 0).all()


# ---------------------------------------------------------------- evaluate_cost


def test_cost_zero_when_objective_matches_preferred():
    instances = expand_instances(
        [make_shiftable("wash", power=1.2, duration=3, preferred=8), make_fixed("base")]
    )
    starts = preferred_starts(instances)
    objective = make_objective(total_curve(instances, starts).values)
    cost = evaluate_cost(
        ScheduleAssignment(starts), objective, DiscomfortWeights(), instances
    )
    assert cost.deviation == 0.0
    assert cost.discomfort == 0.0
    assert cost.total == 0.0


def test_cost_counts_shift_and_delay():
    inst = make_instance("wash", power=1.0, duration=2, preferred=10)
    starts = {"wash": 12}
    objective = make_objective(total_curve([inst], starts).values)
    weights = DiscomfortWeights(shift_weight=1.0, delay_weight=1.0)
    cost = evaluate_cost(
        ScheduleAssignment(starts), objective, weights, [inst], blend=1.0
    )
    assert cost.deviation == 0.0
    assert cost.discomfort == 4.0  # |+2| shift plus 2 slots of delay
    assert cost.total == 4.0


def test_cost_delay_ignores_earlier_starts():
    inst = make_instance("wash", duration=2, preferred=10)
    objective = make_objective(np.zeros(48))
    weights = DiscomfortWeights(shift_weight=0.5, delay_weight=2.0)
    early = evaluate_cost(
        ScheduleAssignment({"wash": 7}), objective, weights, [inst], blend=1.0
    )
    assert early.discomfort == pytest.approx(1.5)  # 0.5*3, no delay term


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
        weights = DiscomfortWeights(shift_weight=0.7, delay_weight=0.3)
        assignment = ScheduleAssignment(starts, pv_flags=flags)
        cost = evaluate_cost(assignment, objective, weights, instances, blend=0.25)

        grid = np.zeros(48)
        discomfort = 0.0
        for inst in instances:
            start = starts[inst.instance_id]
            for k in range(inst.duration_slots):
                idx = start - 1 + k
                if inst.kind == "fixed" or not flags[idx]:
                    grid[idx] += inst.power_profile[k]
            if inst.kind == "shiftable":
                shift = start - inst.preferred_start
                discomfort += 0.7 * abs(shift) + 0.3 * max(0, shift)
        deviation = float(np.sum((grid - objective.values) ** 2))
        assert cost.deviation == pytest.approx(deviation, rel=1e-12)
        assert cost.discomfort == pytest.approx(discomfort, rel=1e-12)
        assert cost.total == pytest.approx(deviation + 0.25 * discomfort, rel=1e-12)


def test_cost_refuses_infeasible_assignment():
    inst = make_instance("wash", duration=4, window=(10, 20), preferred=12)
    objective = make_objective(np.zeros(48))
    with pytest.raises(FeasibilityError, match="outside window"):
        evaluate_cost(
            ScheduleAssignment({"wash": 18}), objective, DiscomfortWeights(), [inst]
        )
    with pytest.raises(FeasibilityError, match="no start"):
        evaluate_cost(ScheduleAssignment({}), objective, DiscomfortWeights(), [inst])


def test_default_blend_is_tenth_of_mean_power_squared():
    objective = make_objective(np.full(48, 1.4))
    assert default_blend(objective) == pytest.approx(0.1 * 1.4**2)
    inst = make_instance("wash", duration=2, preferred=10)
    cost = evaluate_cost(
        ScheduleAssignment({"wash": 11}),
        objective,
        DiscomfortWeights(shift_weight=1.0),
        [inst],
    )
    assert cost.blend == pytest.approx(0.196)
    assert cost.total == pytest.approx(cost.deviation + 0.196 * 1.0)


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
    weights = DiscomfortWeights(
        shift_weight=float(rng.uniform(0, 0.5)), delay_weight=float(rng.uniform(0, 0.5))
    )
    return instances, objective, weights


def brute_force_optimum(instances, objective, weights, blend, baseline=None, not_before=1):
    shiftable = sorted(
        (i for i in instances if i.kind == "shiftable"), key=lambda i: i.instance_id
    )
    fixed = {i.instance_id: i.preferred_start for i in instances if i.kind == "fixed"}
    best = None
    for combo in itertools.product(*(feasible_starts(i, not_before) for i in shiftable)):
        starts = dict(fixed)
        starts.update({inst.instance_id: s for inst, s in zip(shiftable, combo)})
        cost = evaluate_cost(
            ScheduleAssignment(starts), objective, weights, instances,
            blend=blend, baseline=baseline, active_from=not_before,
        )
        shift_sum = sum(abs(s - i.preferred_start) for i, s in zip(shiftable, combo))
        key = (cost.total, shift_sum, combo)
        if best is None or key < best[0]:
            best = (key, starts)
    return best


def test_solve_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        instances, objective, weights = random_problem(rng)
        result = solve(instances, objective, weights, blend=0.2)
        assert result.mode == "exhaustive"
        assert validate_assignment(instances, result.assignment) == ()
        best_key, best_starts = brute_force_optimum(instances, objective, weights, blend=0.2)
        assert result.cost.total == best_key[0]
        assert result.assignment.starts == best_starts


@pytest.mark.parametrize("block_rows", [scheduler._BLOCK_ROWS, 8])
def test_solve_matches_exhaustive_oracle_on_online_resolves(monkeypatch, block_rows):
    # the call shape of an intra-day re-solve: committed load as a baseline
    # and starts (and scored slots) clipped to not_before > 1; tiny blocks
    # split each product across many of them
    monkeypatch.setattr(scheduler, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 8:
        instances, objective, weights = random_problem(rng)
        shiftable = [i for i in instances if i.kind == "shiftable"]
        not_before = int(rng.integers(2, 25))
        try:
            sets = [feasible_starts(i, not_before) for i in shiftable]
        except InfeasibleApplianceError:
            continue
        baseline = np.zeros(48)
        baseline[: not_before - 1] = rng.uniform(0.0, 1.5, not_before - 1)
        baseline += rng.uniform(0.0, 0.5, 48)
        result = solve(
            instances, objective, weights, blend=0.2,
            baseline=baseline, not_before=not_before,
        )
        assert result.mode == "exhaustive"
        assert result.evaluations == int(np.prod([len(s) for s in sets]))
        best_key, best_starts = brute_force_optimum(
            instances, objective, weights, blend=0.2,
            baseline=baseline, not_before=not_before,
        )
        assert result.cost.total == best_key[0]
        assert result.assignment.starts == best_starts
        checked += 1


def prefix_loop_reference(space):
    """Exhaustive search one start prefix at a time: the arithmetic and the
    tie-break that block enumeration must reproduce exactly."""
    best_key, best_choice = None, None
    last = len(space.starts) - 1
    for prefix in itertools.product(*(range(s.size) for s in space.starts[:-1])):
        curve = space.residual.copy()
        penalty = 0.0
        for i, row in enumerate(prefix):
            curve += space.contribs[i][row]
            penalty += space.penalties[i][row]
        gaps = curve + space.contribs[last]
        totals = np.einsum("ij,ij->i", gaps, gaps) + space.blend * (penalty + space.penalties[last])
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


@pytest.mark.parametrize("block_rows", [scheduler._BLOCK_ROWS, 8])
def test_enumerate_exact_matches_prefix_loop_reference(monkeypatch, block_rows):
    # random float problems, and flat unreachable targets with integer
    # powers and zero weights, where exact ties are everywhere
    monkeypatch.setattr(scheduler, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(37)
    for trial in range(12):
        instances, objective, weights = random_problem(rng, with_fixed=False)
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
            weights = DiscomfortWeights()
        not_before = 1 + int(rng.integers(0, 3))
        try:
            sets = {i.instance_id: feasible_starts(i, not_before) for i in instances}
        except InfeasibleApplianceError:
            continue
        space = scheduler._CandidateSpace(
            sorted(instances, key=lambda i: i.instance_id),
            rng.uniform(-1.0, 0.0, 48) if trial % 2 == 0 else -objective.values,
            rng.uniform(size=48) < 0.2,
            weights,
            0.2,
            not_before,
            sets,
        )
        choice, key, evaluations = scheduler._enumerate_exact(space)
        assert (choice, key) == prefix_loop_reference(space)
        assert evaluations == int(np.prod([len(s) for s in sets.values()]))


def test_solve_flat_unreachable_objective_keeps_preferred():
    # far-above-reach flat target: every start ties on deviation (integer
    # powers keep the float sums exact), so the zero-discomfort preferred
    # slots must win through the tie-break even with zero weights
    instances = expand_instances(
        [
            make_shiftable("a", power=1.0, duration=3, window=(1, 24), preferred=9),
            make_shiftable("b", power=2.0, duration=2, window=(30, 48), preferred=40),
        ]
    )
    objective = make_objective(np.full(48, 50.0))
    result = solve(instances, objective, DiscomfortWeights())
    assert result.assignment.starts == {"a": 9, "b": 40}
    assert result.cost.discomfort == 0.0


def test_solve_breaks_exact_ties_lexicographically():
    objective = make_objective(np.full(48, 50.0))
    # separating the two runs beats stacking them; among the cost ties with
    # total displacement 1, (9, 10) is the lexicographically least start pair
    pair = [
        make_instance("a1", power=1.0, duration=1, preferred=10),
        make_instance("a2", power=1.0, duration=1, preferred=10),
    ]
    result = solve(pair, objective, DiscomfortWeights())
    assert result.assignment.starts == {"a1": 9, "a2": 10}

    # the same collision ahead of three 17-start runs: every placement with
    # no two runs in one slot ties on cost, the first blocks already hold
    # such ties at larger shifts, and the four displacement-1 ties lie in
    # different blocks; the earliest of them, (3, 4), must survive the rest
    collision = [
        make_instance("a1", power=1.0, duration=1, window=(1, 8), preferred=4),
        make_instance("a2", power=1.0, duration=1, window=(1, 8), preferred=4),
    ] + [
        make_instance(name, power=1.0, duration=1, window=(9, 48), preferred=p, max_shift=8)
        for name, p in (("b", 20), ("c", 30), ("d", 40))
    ]
    result = solve(collision, objective, DiscomfortWeights())
    assert result.evaluations == 8 * 8 * 17**3 > 4 * scheduler._BLOCK_ROWS
    assert result.assignment.starts == {"a1": 3, "a2": 4, "b": 20, "c": 30, "d": 40}


def test_solve_achievable_objective_reaches_zero_deviation():
    rng = np.random.default_rng(23)
    for _ in range(5):
        instances, _, _ = random_problem(rng, with_fixed=True)
        target_starts = {}
        for inst in instances:
            if inst.kind == "shiftable":
                choices = feasible_starts(inst)
                target_starts[inst.instance_id] = int(rng.choice(choices))
            else:
                target_starts[inst.instance_id] = inst.preferred_start
        objective = make_objective(total_curve(instances, target_starts).values)
        result = solve(instances, objective, DiscomfortWeights())
        assert result.cost.deviation == pytest.approx(0.0, abs=1e-18)


def test_solve_without_shiftable_scores_fixed_remainder():
    instances = expand_instances([make_fixed("f", power=1.0, duration=10, start=5)])
    objective = make_objective(np.zeros(48))
    result = solve(instances, objective)
    assert result.assignment.starts == {"f": 5}
    assert result.cost.deviation == pytest.approx(10 * 1.0)
    assert result.mode == "exhaustive"


def test_solve_energy_is_placement_invariant():
    rng = np.random.default_rng(31)
    instances, objective, weights = random_problem(rng, n_appliances=3)
    result = solve(instances, objective, weights)
    scheduled = total_curve(instances, result.assignment.starts)
    expected = sum(inst.energy_kwh() for inst in instances)
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


def test_solve_not_before_clips_starts_and_deviation():
    inst = make_instance("a", power=2.0, duration=2, preferred=5)
    # huge objective mismatch before slot 20 must not influence the score
    values = np.zeros(48)
    values[:19] = 99.0
    objective = make_objective(values)
    result = solve([inst], objective, not_before=20)
    # all feasible placements tie at deviation 8, so the smallest shift wins
    assert result.assignment.starts["a"] == 20
    assert result.cost.deviation == pytest.approx(8.0)
    manual = evaluate_cost(
        result.assignment, objective, DiscomfortWeights(), [inst],
        blend=result.cost.blend, active_from=20,
    )
    assert result.cost.total == manual.total


def test_solve_pricing_required_with_pv():
    inst = make_instance("a", duration=2, preferred=10)
    pv = PvSystem(generation=np.zeros(48), battery_capacity=1.0)
    with pytest.raises(ParameterError, match="pricing"):
        solve([inst], make_objective(np.zeros(48)), pv=pv)


# ---------------------------------------------------------------- solve: local search


def test_solve_switches_to_local_search_beyond_threshold(monkeypatch):
    monkeypatch.setattr(scheduler, "_EXACT_LIMIT", 10)
    rng = np.random.default_rng(5)
    instances, objective, weights = random_problem(rng, n_appliances=3)
    result = solve(instances, objective, weights, blend=0.2)
    assert result.mode == "local_search"
    assert validate_assignment(instances, result.assignment) == ()
    assert np.all(np.diff(result.trace) <= 1e-12)  # non-increasing descent

    # descent starts at the preferred schedule, so it can never end worse
    baseline = evaluate_cost(
        ScheduleAssignment(preferred_starts(instances)),
        objective,
        weights,
        instances,
        blend=0.2,
    )
    assert result.cost.total <= baseline.total + 1e-12


def test_solve_local_search_finds_exact_optimum_here(monkeypatch):
    rng = np.random.default_rng(17)
    for _ in range(5):
        instances, objective, weights = random_problem(rng, n_appliances=2)
        exact = solve(instances, objective, weights, blend=0.3)
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "_EXACT_LIMIT", 1)
            local = solve(instances, objective, weights, blend=0.3)
        assert local.cost.total <= exact.cost.total + 1e-9
        assert local.mode == "local_search" and exact.mode == "exhaustive"


def test_solve_is_deterministic(monkeypatch):
    monkeypatch.setattr(scheduler, "_EXACT_LIMIT", 10)
    rng = np.random.default_rng(41)
    instances, objective, weights = random_problem(rng, n_appliances=4)
    first = solve(instances, objective, weights)
    second = solve(instances, objective, weights)
    assert first.assignment.starts == second.assignment.starts
    assert first.cost.total == second.cost.total
    assert first.trace == second.trace


def key_reference(space, choice):
    """One candidate scored alone: (total cost, total |shift|, start tuple).

    The squared deviation is the scorer's one-row einsum.  ``np.sum``'s
    pairwise order can differ from it in the last bit, which decides
    near-ties differently: on one online re-solve two starts of a run came
    out equal under ``np.sum`` and one ulp apart under einsum."""
    curve = space.residual.copy()
    penalty = 0.0
    for i, row in enumerate(choice):
        curve += space.contribs[i][row]
        penalty += space.penalties[i][row]
    total = float(np.einsum("ij,ij->i", curve[np.newaxis], curve[np.newaxis])[0])
    total += space.blend * penalty
    shift = sum(int(space.shift_abs[i][row]) for i, row in enumerate(choice))
    return (total, shift, tuple(int(space.starts[i][row]) for i, row in enumerate(choice)))


def local_search_reference(space, restarts=3, max_passes=60):
    """Hill descent that scores each single-instance move on its own and
    keeps a trial only when its key is strictly lower than the best so far:
    the move rule that block-scored moves must reproduce."""
    rng = np.random.default_rng(0)
    k = len(space.starts)
    evaluations = 0

    def polish(start):
        nonlocal evaluations
        current = list(start)
        trace = [key_reference(space, current)[0]]
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
            if not improved:
                break
        return tuple(current), key_reference(space, current), trace

    best = polish(tuple(int(np.argmin(shifts)) for shifts in space.shift_abs))
    for _ in range(restarts):
        found = polish(tuple(int(rng.integers(s.size)) for s in space.starts))
        if found[1] < best[1]:
            best = found
    return best[0], tuple(best[2]), evaluations


def local_search_problem(rng, trial):
    """Random windows; whole-day windows with count-2 duplicates; or the
    duplicates under a flat unreachable target with integer powers and zero
    weights, where exact ties are everywhere."""
    if trial % 3 == 0:
        instances, objective, weights = random_problem(
            rng, n_appliances=int(rng.integers(3, 6)), with_fixed=False
        )
        return instances, objective, weights
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
        return expand_instances(specs), make_objective(np.full(48, 50.0)), DiscomfortWeights()
    weights = DiscomfortWeights(
        shift_weight=float(rng.uniform(0, 0.5)), delay_weight=float(rng.uniform(0, 0.5))
    )
    return expand_instances(specs), make_objective(rng.uniform(0.0, 2.0, 48)), weights


@pytest.mark.parametrize("block_rows", [scheduler._BLOCK_ROWS, 8])
def test_local_search_matches_single_move_reference(monkeypatch, block_rows):
    monkeypatch.setattr(scheduler, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(43)
    for trial in range(12):
        instances, objective, weights = local_search_problem(rng, trial)
        instances = sorted(instances, key=lambda i: i.instance_id)
        not_before = 1 + int(rng.integers(0, 3))
        try:
            sets = {i.instance_id: feasible_starts(i, not_before) for i in instances}
        except InfeasibleApplianceError:
            continue
        space = scheduler._CandidateSpace(
            instances,
            -objective.values,
            rng.uniform(size=48) < 0.2,
            weights,
            float(rng.uniform(0.1, 0.5)),
            not_before,
            sets,
        )
        choice, trace, evaluations = scheduler._local_search(space)
        ref_choice, ref_trace, ref_evaluations = local_search_reference(space)
        assert choice == ref_choice
        assert evaluations == ref_evaluations
        assert trace == ref_trace and len(trace) > 1


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
    pv = PvSystem(
        generation=gen,
        battery_capacity=4.0,
        battery_soc=1.0,
        charge_rate=1.5,
        charge_efficiency=0.9,
    )
    objective = make_objective(np.full(48, 0.5))
    return instances, objective, pricing, pv


def test_solve_with_pv_reaches_consistent_flags():
    instances, objective, pricing, pv = peaked_pv_problem()
    result = solve(instances, objective, pricing=pricing, pv=pv)
    shiftable = [i for i in instances if i.kind == "shiftable"]
    demand = total_curve(shiftable, result.assignment.starts)
    again = pv_arbitrate(pv, demand, pricing, max_app_duration=3)
    npt.assert_array_equal(result.assignment.pv_flags, again.flags)
    npt.assert_allclose(result.assignment.battery_soc, again.soc)

    recomputed = evaluate_cost(
        result.assignment, objective, DiscomfortWeights(), instances,
        blend=result.cost.blend,
    )
    assert result.cost.total == recomputed.total


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
    pv = PvSystem(
        generation=np.zeros(48),
        battery_capacity=10.0,
        battery_soc=10.0,
        charge_rate=1.0,
    )
    objective = make_objective(np.zeros(48))
    result = solve(instances, objective, pricing=pricing, pv=pv)

    assert result.assignment.starts["wash"] == 10  # all placements tie, keep preferred
    assert result.assignment.pv_flags[9] and result.assignment.pv_flags[10]
    assert result.cost.deviation == pytest.approx(48 * 0.3**2)

    without = solve(instances, objective)
    expected = 46 * 0.3**2 + 2 * 1.3**2
    assert without.cost.deviation == pytest.approx(expected)
    assert result.cost.total < without.cost.total


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


def test_discomfort_weights_validation():
    with pytest.raises(ParameterError):
        DiscomfortWeights(shift_weight=-0.1)
    with pytest.raises(ParameterError):
        DiscomfortWeights(delay_weight=-0.1)
