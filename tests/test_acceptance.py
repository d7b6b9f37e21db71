"""Acceptance suite: the nine package-level criteria.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL`` verdict line (visible
with ``pytest -s``) and asserts it.  Criteria with a time budget enforce it.
"""

import datetime
import itertools
import json
import time

import numpy as np

from loadshift import cli
from loadshift.core import expand_instances
from loadshift.forecast import (
    SeriesDataset,
    TrainingConfig,
    error_autocorrelation,
    flatten_params,
    initialize_network,
    prediction_jacobian,
    split_dataset,
    train_lm,
    with_params,
)
from loadshift.metrics import compute_metrics
from loadshift.objective import ObjectiveCurve, build_objective, fit_peak_regression
from loadshift.scheduler import (
    DiscomfortWeights,
    ScheduleAssignment,
    evaluate_cost,
    feasible_starts,
    solve,
    validate_assignment,
)
from loadshift.simulate import RunParams, run_fleet
from loadshift.synth import SyntheticRecipe, generate_fleet

from conftest import make_fixed, make_pricing, make_shiftable

MIDNIGHT = datetime.datetime(2025, 1, 1)


def conclude(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {number}: {detail}"


# ---------------------------------------------------------------- helpers


def make_objective(values) -> ObjectiveCurve:
    values = np.asarray(values, dtype=float)
    return ObjectiveCurve(
        values=values,
        mode="offline",
        provenance=("predicted",) * 48,
        predicted=None,
    )


def random_problem(rng, max_appliances=3, wide=False):
    specs = []
    for i in range(int(rng.integers(1, max_appliances + 1))):
        duration = int(rng.integers(1, 5))
        if wide:  # whole-day windows push the solver onto the local-search path
            ws, we = 1, 48
            max_shift = 47
        else:
            ws = int(rng.integers(1, 40))
            we = min(int(ws + duration + rng.integers(3, 9)), 48)
            max_shift = int(rng.integers(1, 12))
        preferred = int(rng.integers(ws, we - duration + 2))
        specs.append(
            make_shiftable(
                f"app{i}",
                power=float(rng.uniform(0.3, 2.5)),
                duration=duration,
                window=(ws, we),
                preferred=preferred,
                max_shift=max_shift,
            )
        )
    if rng.random() < 0.5:
        specs.append(make_fixed("base", power=float(rng.uniform(0.05, 0.4)), duration=48))
    instances = expand_instances(specs)
    objective = make_objective(rng.uniform(0.0, 2.0, 48))
    weights = DiscomfortWeights(
        shift_weight=float(rng.uniform(0, 0.5)),
        delay_weight=float(rng.uniform(0, 0.5)),
    )
    return instances, objective, weights


def brute_force_total(instances, objective, weights, blend):
    shiftable = sorted(
        (i for i in instances if i.kind == "shiftable"), key=lambda i: i.instance_id
    )
    fixed = {i.instance_id: i.preferred_start for i in instances if i.kind == "fixed"}
    best = None
    for combo in itertools.product(*(feasible_starts(i) for i in shiftable)):
        starts = dict(fixed)
        starts.update({inst.instance_id: s for inst, s in zip(shiftable, combo)})
        total = evaluate_cost(
            ScheduleAssignment(starts), objective, weights, instances, blend=blend
        ).total
        if best is None or total < best:
            best = total
    return best


def fleet_50(seed=0):
    recipe = SyntheticRecipe(household_count=50, history_days=150, simulated_days=1)
    return generate_fleet(recipe, seed=seed)


# ---------------------------------------------------------------- criteria


def test_1_split_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    year = SeriesDataset(values=rng.uniform(0.1, 2.0, 8760), start=MIDNIGHT, lag=24)
    sizes = split_dataset(year, TrainingConfig()).sizes()
    elapsed = time.monotonic() - t0
    ok = sizes == (6132, 1314, 1314) and elapsed < 1.0
    conclude(1, ok, f"sizes={sizes}, {elapsed:.3f}s")


def test_2_trainer_correctness():
    t0 = time.monotonic()

    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        input_size = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 6))
        base = initialize_network(input_size=input_size, hidden_size=hidden, seed=0)
        net = with_params(base, rng.normal(scale=0.8, size=flatten_params(base).size))
        x = rng.uniform(-1, 1, size=(8, input_size))
        analytic = prediction_jacobian(net, x)

        theta = flatten_params(net)
        numeric = np.empty_like(analytic)
        h = 1e-6
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            net_up, net_dn = with_params(net, up), with_params(net, down)
            f_up = np.tanh(x @ net_up.w_in.T + net_up.b_in) @ net_up.w_out + net_up.b_out
            f_dn = np.tanh(x @ net_dn.w_in.T + net_dn.b_in) @ net_dn.w_out + net_dn.b_out
            numeric[:, j] = (f_up - f_dn) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        worst = max(worst, float(rel))
    jacobian_ok = worst < 1e-5

    # noiseless AR(1): the fit must be essentially exact within 100 epochs
    values = np.empty(140)
    values[0] = 1.0
    for t in range(1, 140):
        values[t] = 0.8 * values[t - 1]
    ds = SeriesDataset(values=values, start=MIDNIGHT, lag=1)
    x_all, y_all = ds.pairs_for_targets(np.arange(ds.lag, ds.sample_count))
    net = initialize_network(input_size=1, hidden_size=6, seed=1)
    result = train_lm(
        net, (x_all[:-20], y_all[:-20]), (x_all[-20:], y_all[-20:]),
        TrainingConfig(max_epochs=100),
    )
    mse = result.train_mse[-1]
    epochs = len(result.train_mse) - 1
    fit_ok = mse < 1e-4 and epochs <= 100

    elapsed = time.monotonic() - t0
    ok = jacobian_ok and fit_ok and elapsed < 30.0
    conclude(
        2, ok, f"jacobian rel err={worst:.2e}, ar1 mse={mse:.2e} in {epochs} epochs, "
        f"{elapsed:.1f}s"
    )


def test_3_autocorrelation_calibration():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    residuals = rng.standard_normal(1000)
    result = error_autocorrelation(residuals, max_lag=20)
    inside = 20 - len(result.lags_outside_bound())
    bound_ok = abs(result.confidence_bound - 1.96 / np.sqrt(1000)) < 1e-12
    elapsed = time.monotonic() - t0
    ok = inside / 20 >= 0.93 and bound_ok and elapsed < 5.0
    conclude(3, ok, f"{inside}/20 lags inside ±1.96/√1000, {elapsed:.3f}s")


def test_4_scheduler_matches_exhaustive_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        instances, objective, weights = random_problem(rng)
        result = solve(instances, objective, weights, blend=0.25)
        oracle = brute_force_total(instances, objective, weights, blend=0.25)
        if result.cost.total != oracle:  # tolerance 0: exact float equality
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120.0
    conclude(4, ok, f"{mismatches}/100 mismatches, {elapsed:.1f}s")


def test_5_validator_passes_all_solver_outputs():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    violations = 0
    for trial in range(1000):
        instances, objective, weights = random_problem(
            rng, max_appliances=5, wide=trial % 5 == 0
        )
        result = solve(instances, objective, weights)
        if validate_assignment(instances, result.assignment) != ():
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    conclude(5, ok, f"{violations}/1000 violating schedules, {elapsed:.1f}s")


def test_6_energy_invariance_on_harness_runs():
    t0 = time.monotonic()
    fast = RunParams(max_epochs=10, history_window_days=30)
    offline = generate_fleet(
        SyntheticRecipe(household_count=6, history_days=14, simulated_days=2,
                        pv_fraction=0.5),
        seed=2,
    )
    online = generate_fleet(
        SyntheticRecipe(household_count=4, history_days=14, simulated_days=1,
                        mode="online"),
        seed=3,
    )
    worst = 0.0
    runs = 0
    for fleet in (offline, online):
        for result in run_fleet(fleet, fast, seed=1):
            rel = abs(
                result.after_total.energy_kwh() - result.before.energy_kwh()
            ) / result.before.energy_kwh()
            worst = max(worst, rel)
            runs += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9
    conclude(6, ok, f"worst relative drift {worst:.2e} over {runs} runs, {elapsed:.1f}s")


def test_7_fleet_improves_without_harming_anyone():
    t0 = time.monotonic()
    fleet = fleet_50()
    # no-harm property is stated for zero discomfort weights, which every
    # pipeline solve uses
    results = run_fleet(fleet, RunParams(), seed=0, workers=4)
    report = compute_metrics(results, fleet.pricing)

    reduction = report.fleet.peak_reduction_pct
    lf_up = sum(
        1 for r in report.rows if r.load_factor_after > r.load_factor_before
    )
    lf_fraction = lf_up / len(report.rows)
    worst_bill = max(r.bill_after - r.bill_before for r in report.rows)
    elapsed = time.monotonic() - t0
    ok = (
        len(report.rows) == 50
        and report.excluded == ()
        and reduction > 0.0
        and lf_fraction >= 0.90
        and worst_bill <= 1e-9
        and elapsed < 300.0
    )
    conclude(
        7, ok, f"peak -{reduction:.1f}%, LF up {lf_up}/50, "
        f"worst bill delta {worst_bill:+.2e}, {elapsed:.0f}s"
    )


def test_8_objective_conserves_predicted_energy():
    fleet = generate_fleet(
        SyntheticRecipe(household_count=3, history_days=30, simulated_days=1), seed=4
    )
    pricing = fleet.pricing
    worst = 0.0
    for household in fleet.households:
        history = household.history
        predicted = history[-1].curve  # any plausible day works as a prediction
        model = fit_peak_regression(history, pricing, segment_count=2, degree=1)
        # a tiny consumption threshold keeps the peak cap from ever engaging
        objective = build_objective(predicted, pricing, model, l_min=1e-12,
                                    history=history)
        assert "capped" not in objective.provenance
        rel = abs(objective.energy_kwh() - predicted.energy_kwh()) / predicted.energy_kwh()
        worst = max(worst, rel)
    ok = worst < 1e-9
    conclude(8, ok, f"worst relative energy drift {worst:.2e}")


def test_9_pipeline_is_byte_deterministic(tmp_path):
    t0 = time.monotonic()

    def pipeline(tag):
        bundle = tmp_path / tag / "bundle"
        out = tmp_path / tag / "out"
        assert cli.main(
            ["generate", "--out", str(bundle), "--households", "3", "--seed", "31",
             "--history-days", "20", "--target-kwh", "12"]
        ) == 0
        assert cli.main(
            ["run", "--bundle", str(bundle), "--out", str(out), "--seed", "9",
             "--epochs", "15"]
        ) == 0
        return bundle, out

    bundle_a, out_a = pipeline("a")
    bundle_b, out_b = pipeline("b")

    identical = []
    for name in ("results.json", "report.json", "report.csv"):
        identical.append((out_a / name).read_bytes() == (out_b / name).read_bytes())
    manifests_equal = (
        (bundle_a / "manifest.json").read_bytes()
        == (bundle_b / "manifest.json").read_bytes()
    )
    elapsed = time.monotonic() - t0
    ok = all(identical) and manifests_equal
    conclude(9, ok, f"3 report files byte-identical={all(identical)}, {elapsed:.1f}s")
