"""Forecaster tests: splitting, LM training, prediction, diagnostics."""

from __future__ import annotations

import datetime
import math

import numpy as np
import numpy.testing as npt
import pytest

from loadshift.core import DailyRecord, LoadCurve
from loadshift import forecast
from loadshift.errors import (
    DatasetTooSmallError,
    FormatError,
    TemporalConsistencyError,
    TrainingFailedError,
    UndefinedMetricError,
)
from loadshift.forecast import (
    NarNetwork,
    SeriesDataset,
    TrainingConfig,
    damped_step,
    error_autocorrelation,
    fit_series,
    flatten_params,
    forward,
    hourly_series_from_history,
    initialize_network,
    load_network,
    normal_equations,
    predict_day,
    prediction_jacobian,
    save_network,
    split_dataset,
    train_lm,
    with_params,
)

MIDNIGHT = datetime.datetime(2025, 1, 1)


def make_series(values, lag=24, step=60):
    return SeriesDataset(values=values, start=MIDNIGHT, step_minutes=step, lag=lag)


def ar1_series(n, phi=0.8, y0=1.0, noise=0.0, seed=None):
    values = np.empty(n)
    values[0] = y0
    rng = np.random.default_rng(seed) if noise else None
    for t in range(1, n):
        values[t] = phi * values[t - 1] + (noise * rng.standard_normal() if noise else 0.0)
    return values


# ---------------------------------------------------------------- dataset


def test_pair_count_and_windows():
    ds = make_series(np.arange(30, dtype=float), lag=5)
    assert ds.sample_count - ds.lag == 25
    X, y = ds.pairs_for_targets(np.arange(ds.lag, ds.sample_count))
    assert X.shape == (25, 5)
    npt.assert_array_equal(X[0], np.arange(5.0))  # window is the 5 values before target
    npt.assert_array_equal(y, np.arange(5.0, 30.0))
    # targets below the lag have no window and are dropped
    X2, y2 = ds.pairs_for_targets([2, 5, 7])
    assert y2.tolist() == [5.0, 7.0]
    npt.assert_array_equal(X2[0], np.arange(5.0))


def test_hourly_series_from_history():
    day1 = LoadCurve(np.arange(48, dtype=float))
    day2 = LoadCurve(np.ones(48))
    records = (
        DailyRecord(day=datetime.date(2025, 3, 1), curve=day1),
        DailyRecord(day=datetime.date(2025, 3, 2), curve=day2),
    )
    ds = hourly_series_from_history(records, lag=4)
    assert ds.sample_count == 48
    # hour h averages slots 2h+1 and 2h+2
    npt.assert_allclose(ds.values[:24], np.arange(48).reshape(24, 2).mean(axis=1))
    npt.assert_allclose(ds.values[24:], 1.0)
    assert ds.start == datetime.datetime(2025, 3, 1)


def test_hourly_series_rejects_gaps():
    curve = LoadCurve(np.ones(48))
    records = (
        DailyRecord(day=datetime.date(2025, 3, 1), curve=curve),
        DailyRecord(day=datetime.date(2025, 3, 3), curve=curve),
    )
    with pytest.raises(TemporalConsistencyError):
        hourly_series_from_history(records)


# ---------------------------------------------------------------- splitting


def test_split_year_sizes():
    ds = make_series(np.sin(np.arange(8760) / 24.0) + 2.0)
    split = split_dataset(ds, TrainingConfig(rng_seed=3))
    assert split.sizes() == (6132, 1314, 1314)


def test_split_hundred_samples():
    ds = make_series(np.linspace(0, 1, 100), lag=4)
    split = split_dataset(ds, TrainingConfig())
    assert split.sizes() == (70, 15, 15)


def test_split_disjoint_cover():
    ds = make_series(np.arange(500, dtype=float), lag=24)
    split = split_dataset(ds, TrainingConfig(rng_seed=9))
    train, val, test = (set(a.tolist()) for a in
                        (split.train_indices, split.validation_indices, split.test_indices))
    assert not (train & val) and not (train & test) and not (val & test)
    assert train | val | test == set(range(500))
    # training is the contiguous prefix
    assert split.train_indices.tolist() == list(range(len(train)))
    # every supervised pair lands in exactly one partition
    covered = sum(ds.pairs_for_targets(sorted(part))[1].size for part in (train, val, test))
    assert covered == ds.sample_count - ds.lag


def test_split_deterministic_per_seed():
    ds = make_series(np.arange(200, dtype=float))
    a = split_dataset(ds, TrainingConfig(rng_seed=5))
    b = split_dataset(ds, TrainingConfig(rng_seed=5))
    c = split_dataset(ds, TrainingConfig(rng_seed=6))
    npt.assert_array_equal(a.validation_indices, b.validation_indices)
    assert not np.array_equal(a.validation_indices, c.validation_indices)


def test_split_too_small():
    with pytest.raises(DatasetTooSmallError):
        split_dataset(make_series(np.ones(30), lag=24), TrainingConfig())


# ---------------------------------------------------------------- forward


def test_forward_zero_net_outputs_zero():
    net = NarNetwork(w_in=np.zeros((3, 4)), b_in=np.zeros(3), w_out=np.zeros(3), b_out=0.0)
    assert forward(net, [5.0, -2.0, 0.3, 9.0]) == 0.0


def test_forward_output_bias_passthrough():
    net = NarNetwork(w_in=np.ones((3, 2)), b_in=np.ones(3), w_out=np.zeros(3), b_out=0.7)
    assert forward(net, [1.0, 2.0]) == pytest.approx(0.7)


def test_forward_matches_per_neuron_hand_evaluation():
    rng = np.random.default_rng(42)
    net = NarNetwork(
        w_in=rng.normal(size=(3, 2)),
        b_in=rng.normal(size=3),
        w_out=rng.normal(size=3),
        b_out=rng.normal(),
    )
    window = [0.4, -1.2]
    expected = net.b_out
    for j in range(3):
        pre = net.b_in[j] + sum(net.w_in[j, k] * window[k] for k in range(2))
        expected += net.w_out[j] * math.tanh(pre)
    assert forward(net, window) == pytest.approx(expected, rel=1e-12)


def test_forward_window_shape_checked():
    net = initialize_network(input_size=4, hidden_size=2, seed=0)
    with pytest.raises(FormatError):
        forward(net, [1.0, 2.0])
    with pytest.raises(FormatError):
        forward(net, [1.0, 2.0, np.nan, 4.0])


# ---------------------------------------------------------------- LM pieces


def test_damped_step_matches_closed_form_toy():
    # two-parameter linear least squares: rows (a_i, b_i), residuals r_i
    jac = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    res = np.array([0.5, -1.0, 2.0])
    lam = 0.7
    jtj, jtr = normal_equations(jac, res)
    npt.assert_array_equal(jtj, [[35.0, 44.0], [44.0, 56.0]])
    npt.assert_array_equal(jtr, [7.5, 9.0])
    delta = damped_step(jtj, jtr, lam)
    oracle = np.linalg.solve(jac.T @ jac + lam * np.eye(2), jac.T @ res)
    npt.assert_allclose(delta, oracle, rtol=1e-12)
    # every damping retry of an epoch reuses the same normal equations
    npt.assert_array_equal(jtj, [[35.0, 44.0], [44.0, 56.0]])
    npt.assert_array_equal(damped_step(jtj, jtr, lam), delta)


def central_difference_jacobian(net, x_norm, h=1e-6):
    theta = flatten_params(net)
    rows = np.atleast_2d(x_norm)
    jac = np.empty((rows.shape[0], theta.size))
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        f_up = np.tanh(rows @ with_params(net, up).w_in.T + with_params(net, up).b_in) @ with_params(net, up).w_out + with_params(net, up).b_out
        f_dn = np.tanh(rows @ with_params(net, down).w_in.T + with_params(net, down).b_in) @ with_params(net, down).w_out + with_params(net, down).b_out
        jac[:, j] = (f_up - f_dn) / (2 * h)
    return jac


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(17)
    for _ in range(3):
        net = NarNetwork(
            w_in=rng.normal(scale=0.8, size=(4, 3)),
            b_in=rng.normal(scale=0.5, size=4),
            w_out=rng.normal(scale=0.8, size=4),
            b_out=rng.normal(),
        )
        x = rng.uniform(-1, 1, size=(6, 3))
        analytic = prediction_jacobian(net, x)
        numeric = central_difference_jacobian(net, x)
        npt.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_flatten_roundtrip():
    net = initialize_network(input_size=5, hidden_size=3, seed=2)
    theta = flatten_params(net)
    assert theta.size == net.parameter_count == 5 * 3 + 3 + 3 + 1
    again = with_params(net, theta)
    npt.assert_array_equal(again.w_in, net.w_in)
    npt.assert_array_equal(again.w_out, net.w_out)
    assert again.b_out == net.b_out


# ---------------------------------------------------------------- training


def toy_pairs(values, lag):
    ds = SeriesDataset(values=values, start=MIDNIGHT, lag=lag)
    return ds.pairs_for_targets(np.arange(ds.lag, ds.sample_count))


def test_train_zero_data_stops_immediately():
    X = np.zeros((12, 4))
    y = np.zeros(12)
    net = initialize_network(input_size=4, hidden_size=3, seed=0)
    result = train_lm(net, (X, y), (X[:3], y[:3]), TrainingConfig())
    assert result.stop_reason == "perfect_fit"
    assert result.train_mse == (0.0,)
    # fresh networks have zero biases, so the zero map is exact
    assert forward(result.network, np.zeros(4)) == 0.0


def test_train_noiseless_ar1_converges():
    values = ar1_series(120, phi=0.8, y0=1.0)
    X, y = toy_pairs(values, lag=1)
    n_val = max(len(y) // 5, 1)
    train = (X[:-n_val], y[:-n_val])
    val = (X[-n_val:], y[-n_val:])
    net = initialize_network(input_size=1, hidden_size=6, seed=1)
    result = train_lm(net, train, val, TrainingConfig(max_epochs=100))
    assert result.train_mse[-1] < 1e-4
    assert len(result.train_mse) - 1 <= 100


def test_train_trace_non_increasing():
    values = ar1_series(200, phi=0.6, y0=1.0, noise=0.05, seed=8)
    X, y = toy_pairs(values, lag=3)
    net = initialize_network(input_size=3, hidden_size=5, seed=3)
    result = train_lm(net, (X[:150], y[:150]), (X[150:], y[150:]),
                      TrainingConfig(max_epochs=40))
    trace = np.array(result.train_mse)
    assert np.all(np.diff(trace) <= 0)
    assert len(result.validation_mse) == len(trace)


def test_train_returns_best_validation_epoch():
    values = ar1_series(150, phi=0.7, y0=1.0, noise=0.1, seed=4)
    X, y = toy_pairs(values, lag=2)
    net = initialize_network(input_size=2, hidden_size=8, seed=5)
    result = train_lm(net, (X[:100], y[:100]), (X[100:], y[100:]),
                      TrainingConfig(max_epochs=60))
    assert result.validation_mse[result.best_epoch] == min(result.validation_mse)


def test_train_deterministic():
    values = ar1_series(100, phi=0.5, y0=1.0, noise=0.02, seed=6)
    X, y = toy_pairs(values, lag=2)
    cfg = TrainingConfig(max_epochs=25)
    runs = []
    for _ in range(2):
        net = initialize_network(input_size=2, hidden_size=4, seed=7)
        runs.append(train_lm(net, (X[:70], y[:70]), (X[70:], y[70:]), cfg))
    npt.assert_array_equal(flatten_params(runs[0].network), flatten_params(runs[1].network))
    assert runs[0].train_mse == runs[1].train_mse


def test_train_empty_partition_rejected():
    net = initialize_network(input_size=2, hidden_size=2, seed=0)
    X, y = np.ones((5, 2)), np.ones(5)
    with pytest.raises(DatasetTooSmallError):
        train_lm(net, (X, y), (np.empty((0, 2)), np.empty(0)), TrainingConfig())


def reference_train_lm(net, train, validation, cfg):
    """Levenberg-Marquardt as ``train_lm`` computed it before the normal
    equations were shared between damping retries: every retry rebuilds
    ``J^T J`` and ``J^T r`` and every residual goes through a validated
    ``NarNetwork``."""
    x_train, y_train = (np.asarray(a, dtype=float) for a in train)
    x_val, y_val = (np.asarray(a, dtype=float) for a in validation)
    lo = min(x_train.min(), y_train.min())
    hi = max(x_train.max(), y_train.max())
    net = NarNetwork(w_in=net.w_in, b_in=net.b_in, w_out=net.w_out, b_out=net.b_out,
                     norm_min=float(lo), norm_max=float(hi))
    scale_sq = ((hi - lo) / 2.0) ** 2
    xn_train, yn_train = net.normalize(x_train), net.normalize(y_train)
    xn_val, yn_val = net.normalize(x_val), net.normalize(y_val)

    def predict(theta, x):
        p = with_params(net, theta)
        return np.tanh(x @ p.w_in.T + p.b_in) @ p.w_out + p.b_out

    def residuals(theta):
        return yn_train - predict(theta, xn_train)

    def val_mse(theta):
        return float(np.mean((yn_val - predict(theta, xn_val)) ** 2) * scale_sq)

    def step(jac, r, damping):
        jtj = jac.T @ jac
        jtj[np.diag_indices_from(jtj)] += damping
        return np.linalg.solve(jtj, jac.T @ r)

    theta = flatten_params(net)
    r = residuals(theta)
    sse = float(np.sum(r**2))
    train_trace, val_trace = [sse / y_train.size * scale_sq], [val_mse(theta)]
    best_theta, best_val, best_epoch = theta.copy(), val_trace[0], 0
    if sse == 0.0:
        return best_theta, train_trace, val_trace, best_epoch, "perfect_fit"
    damping, stale = forecast.LM_INITIAL_DAMPING, 0
    for _ in range(cfg.max_epochs):
        jac = prediction_jacobian(with_params(net, theta), xn_train)
        accepted = False
        while True:
            failed = False
            try:
                delta = step(jac, r, damping)
                failed = not np.all(np.isfinite(delta))
            except np.linalg.LinAlgError:
                failed = True
            if not failed:
                r_new = residuals(theta + delta)
                sse_new = float(np.sum(r_new**2))
                if np.isfinite(sse_new) and sse_new < sse:
                    theta, r, sse = theta + delta, r_new, sse_new
                    damping = max(damping / forecast.LM_DAMPING_DOWN, 1e-12)
                    accepted = True
                    break
            damping *= forecast.LM_DAMPING_UP
            if damping > forecast.LM_DAMPING_CAP:
                if failed:
                    raise TrainingFailedError("unsolvable at the cap", trace=tuple(train_trace))
                break
        if not accepted:
            return best_theta, train_trace, val_trace, best_epoch, "damping_cap"
        train_trace.append(sse / y_train.size * scale_sq)
        current = val_mse(theta)
        val_trace.append(current)
        if current < best_val * (1.0 - forecast.IMPROVEMENT_TOL):
            best_theta, best_val, best_epoch, stale = theta.copy(), current, len(val_trace) - 1, 0
        else:
            stale += 1
        if sse == 0.0:
            return theta.copy(), train_trace, val_trace, len(val_trace) - 1, "perfect_fit"
        if stale >= forecast.STOP_PATIENCE:
            return best_theta, train_trace, val_trace, best_epoch, "early_stop"
    return best_theta, train_trace, val_trace, best_epoch, "max_epochs"


def seeded_problem(seed, pairs, lag, hidden):
    """A noisy daily-cycle series cut into (window, next value) pairs."""
    rng = np.random.default_rng(seed)
    t = np.arange(pairs + pairs // 4 + lag)
    values = 1.5 + np.sin(2 * np.pi * t / 24) + 0.3 * rng.standard_normal(t.size)
    X = np.lib.stride_tricks.sliding_window_view(values[:-1], lag).copy()
    y = values[lag:]
    net = initialize_network(input_size=lag, hidden_size=hidden, seed=seed)
    return net, (X[:pairs], y[:pairs]), (X[pairs:], y[pairs:])


@pytest.mark.parametrize(
    "seed, pairs, lag, hidden, stops_at_max_epochs, max_epochs",
    [
        (1, 200, 4, 3, False, 40),
        (2, 300, 6, 5, False, 40),
        (3, 200, 4, 3, False, 40),
        (4, 300, 6, 5, True, 10),
        (5, 150, 2, 8, False, 8),  # early stop on the last allowed epoch
        (6, 2016, 24, 10, False, 12),  # the pipeline's shapes
    ],
)
def test_train_lm_matches_per_retry_reference(monkeypatch, seed, pairs, lag, hidden,
                                              stops_at_max_epochs, max_epochs):
    net, train, val = seeded_problem(seed, pairs, lag, hidden)
    cfg = TrainingConfig(max_epochs=max_epochs)
    steps = []

    def counted(jtj, jtr, damping):
        steps.append(damping)
        return damped_step(jtj, jtr, damping)

    monkeypatch.setattr(forecast, "damped_step", counted)
    result = train_lm(net, train, val, cfg)
    theta, train_trace, val_trace, best_epoch, reason = reference_train_lm(net, train, val, cfg)
    npt.assert_array_equal(flatten_params(result.network), theta)
    assert result.train_mse == tuple(train_trace)
    assert result.validation_mse == tuple(val_trace)
    assert (result.best_epoch, result.stop_reason) == (best_epoch, reason)
    assert reason == ("max_epochs" if stops_at_max_epochs else "early_stop")
    # damping retries happen, and all of them reuse one set of normal equations
    assert len(steps) > len(result.train_mse) - 1


def test_zero_steps_stop_at_the_damping_cap(monkeypatch):
    net, train, val = seeded_problem(8, 120, 3, 3)
    dampings = []

    def no_progress(jtj, jtr, damping):
        dampings.append(damping)
        return np.zeros_like(jtr)

    monkeypatch.setattr(forecast, "damped_step", no_progress)
    cfg = TrainingConfig(max_epochs=20)
    result = train_lm(net, train, val, cfg)
    assert result.stop_reason == "damping_cap"
    assert len(result.train_mse) == 1 and result.best_epoch == 0
    npt.assert_array_equal(flatten_params(result.network), flatten_params(net))
    # every retry raised the damping, up to the cap and no further
    assert dampings[0] == forecast.LM_INITIAL_DAMPING
    assert all(b > a for a, b in zip(dampings, dampings[1:]))
    assert dampings[-1] <= forecast.LM_DAMPING_CAP < dampings[-1] * forecast.LM_DAMPING_UP


def test_non_finite_steps_fail_with_the_trace(monkeypatch):
    net, train, val = seeded_problem(8, 120, 3, 3)
    cfg = TrainingConfig(max_epochs=20)
    monkeypatch.setattr(forecast, "damped_step", lambda jtj, jtr, damping: np.zeros_like(jtr))
    stalled = train_lm(net, train, val, cfg)
    monkeypatch.setattr(
        forecast, "damped_step", lambda jtj, jtr, damping: np.full_like(jtr, np.nan)
    )
    with pytest.raises(TrainingFailedError) as info:
        train_lm(net, train, val, cfg)
    assert info.value.trace == stalled.train_mse


def test_fit_series_beats_persistence_baseline():
    # forecast skill: one-step test MSE no worse than predicting the last value
    values = ar1_series(600, phi=0.5, y0=1.0, noise=0.1, seed=13) + 2.0
    ds = SeriesDataset(values=values, start=MIDNIGHT, lag=4)
    result, split = fit_series(ds, TrainingConfig(max_epochs=50, rng_seed=13), hidden_size=4)
    X_test, y_test = ds.pairs_for_targets(split.test_indices)
    net = result.network
    preds = np.array([forward(net, row) for row in X_test])
    model_mse = float(np.mean((preds - y_test) ** 2))
    persistence_mse = float(np.mean((X_test[:, -1] - y_test) ** 2))
    assert model_mse <= persistence_mse


# ---------------------------------------------------------------- prediction


def test_predict_day_constant_net():
    net = NarNetwork(w_in=np.zeros((2, 3)), b_in=np.zeros(2), w_out=np.zeros(2), b_out=1.5)
    history = make_series(np.ones(24), lag=3)
    curve = predict_day(net, history)
    npt.assert_allclose(curve.values, 1.5)


def test_predict_day_matches_analytic_ar1_recursion():
    # hidden layer in its linear regime realizes y = 0.8 x almost exactly
    net = NarNetwork(
        w_in=np.array([[1e-6]]), b_in=np.zeros(1), w_out=np.array([0.8e6]), b_out=0.0
    )
    history = make_series(ar1_series(48, phi=0.8, y0=1.0), lag=1)
    curve = predict_day(net, history)

    last = history.values[-1]
    hourly = np.array([last * 0.8 ** (k + 1) for k in range(24)])
    hour_centers = np.arange(24) + 0.5
    slot_centers = (np.arange(48) + 0.5) * 0.5
    oracle = np.interp(slot_centers, hour_centers, hourly)
    npt.assert_allclose(curve.values, oracle, atol=1e-9)


def test_predict_day_interpolation_pattern():
    # slot 2h averages hours h,h+1 at 3:1; check the hand-derived stencil
    net = NarNetwork(w_in=np.zeros((1, 2)), b_in=np.zeros(1), w_out=np.zeros(1), b_out=0.0)
    # constant net gives flat curves; use the stencil directly on a known series
    hourly = np.arange(24, dtype=float)
    slot_centers = (np.arange(48) + 0.5) * 0.5
    interp = np.interp(slot_centers, np.arange(24) + 0.5, hourly)
    assert interp[0] == hourly[0]  # clamped start
    assert interp[47] == hourly[23]  # clamped end
    assert interp[1] == pytest.approx(0.75 * hourly[0] + 0.25 * hourly[1])
    assert interp[2] == pytest.approx(0.25 * hourly[0] + 0.75 * hourly[1])
    curve = predict_day(net, make_series(np.ones(24), lag=2))
    assert curve.values.shape == (48,)


def test_predict_day_clamps_negative():
    net = NarNetwork(w_in=np.zeros((1, 2)), b_in=np.zeros(1), w_out=np.zeros(1), b_out=-2.0)
    curve = predict_day(net, make_series(np.ones(24), lag=2))
    npt.assert_array_equal(curve.values, np.zeros(48))


def test_predict_day_requires_enough_history():
    net = initialize_network(input_size=24, hidden_size=3, seed=0)
    with pytest.raises(DatasetTooSmallError):
        predict_day(net, make_series(np.ones(24), lag=24).__class__(
            values=np.ones(12), start=MIDNIGHT, step_minutes=60, lag=24))


def test_predict_day_requires_day_alignment():
    net = initialize_network(input_size=4, hidden_size=3, seed=0)
    with pytest.raises(TemporalConsistencyError):
        predict_day(net, make_series(np.ones(30), lag=4))  # ends mid-day


# ---------------------------------------------------------------- diagnostics


def test_autocorrelation_alternating_series():
    n = 200
    residuals = np.resize([1.0, -1.0], n)
    result = error_autocorrelation(residuals, max_lag=2)
    assert result.values[0] == 1.0
    assert result.values[1] == pytest.approx(-(n - 1) / n)
    assert result.values[2] == pytest.approx((n - 2) / n)


def test_autocorrelation_r0_always_one():
    rng = np.random.default_rng(19)
    for _ in range(5):
        result = error_autocorrelation(rng.normal(size=100))
        assert result.values[0] == 1.0


def test_autocorrelation_white_noise_calibration():
    inside = 0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        result = error_autocorrelation(rng.standard_normal(1000), max_lag=20)
        total += 20
        inside += 20 - len(result.lags_outside_bound())
        assert result.confidence_bound == pytest.approx(1.96 / np.sqrt(1000))
    assert inside / total >= 0.93


def test_autocorrelation_rejects_constant_and_short():
    with pytest.raises(UndefinedMetricError):
        error_autocorrelation(np.full(50, 3.3))
    with pytest.raises(DatasetTooSmallError):
        error_autocorrelation(np.arange(10.0))


# ---------------------------------------------------------------- persistence


def test_network_save_load_roundtrip(tmp_path):
    values = ar1_series(120, phi=0.7, y0=1.0, noise=0.05, seed=21) + 1.0
    ds = SeriesDataset(values=values, start=MIDNIGHT, lag=3)
    result, _ = fit_series(ds, TrainingConfig(max_epochs=10, rng_seed=21), hidden_size=3)
    path = tmp_path / "net.json"
    save_network(result.network, path, seed=21, config=TrainingConfig(max_epochs=10, rng_seed=21))
    loaded = load_network(path)
    npt.assert_array_equal(flatten_params(loaded), flatten_params(result.network))
    assert loaded.norm_min == result.network.norm_min
    window = values[-3:]
    assert forward(loaded, window) == forward(result.network, window)


def test_network_load_verifies_counts(tmp_path):
    net = initialize_network(input_size=3, hidden_size=2, seed=0)
    path = tmp_path / "net.json"
    save_network(net, path)
    import json

    doc = json.loads(path.read_text())
    doc["parameters"]["w_in"] = doc["parameters"]["w_in"][:-1]  # drop one weight
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_network(path)
