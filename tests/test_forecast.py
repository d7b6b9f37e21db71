"""Forecaster tests: splitting, LM training, prediction, diagnostics."""

from __future__ import annotations

import datetime
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from loadshift.core import DailyRecord, LoadCurve
from loadshift import forecast
from loadshift.errors import (
    DatasetTooSmallError,
    FormatError,
    ParameterError,
    TemporalConsistencyError,
    TrainingFailedError,
    UndefinedMetricError,
)
from loadshift.forecast import (
    AUTOCORRELATION_LAGS,
    FORECAST_LAG,
    HIDDEN_UNITS,
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
    predict_day,
    prediction_jacobian,
    split_dataset,
    train_lm,
    with_params,
)

def make_series(values, lag=24):
    return SeriesDataset(values=values, lag=lag)


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


def looped_pairs(ds, target_indices):
    """(window, next value) pairs gathered one row at a time."""
    targets = np.asarray(sorted(int(i) for i in target_indices), dtype=int)
    if targets.size and (targets[0] < 0 or targets[-1] >= ds.sample_count):
        raise ParameterError("target index outside the series")
    targets = targets[targets >= ds.lag]
    X = np.empty((targets.size, ds.lag))
    for row, t in enumerate(targets):
        X[row] = ds.values[t - ds.lag : t]
    return X, ds.values[targets]


def test_pairs_match_a_row_by_row_gather():
    rng = np.random.default_rng(3)
    ds = make_series(rng.normal(size=200), lag=7)
    cases = [
        rng.permutation(200)[:60],  # unsorted
        rng.integers(0, 200, size=80),  # duplicated
        np.arange(200),
        [3, 199, 7, 0, 7],  # below the lag, both ends of the series
        [],
        np.array([5], dtype=np.int32),
    ]
    for targets in cases:
        X, y = ds.pairs_for_targets(targets)
        X_ref, y_ref = looped_pairs(ds, targets)
        assert X.shape == X_ref.shape and X.dtype == X_ref.dtype
        assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes()
    for bad in ([0, 200], [-1, 5], [250]):
        with pytest.raises(ParameterError, match="target index outside the series"):
            ds.pairs_for_targets(bad)


@pytest.mark.parametrize(
    "targets",
    [[10.7], [10.0], [[10, 11]], ["x"], [True], [None, 10], [[10], [11, 12]]],
    ids=["fraction", "float", "nested", "str", "bool", "none", "ragged"],
)
def test_pairs_need_a_1d_sequence_of_int_targets(targets):
    ds = make_series(np.arange(40.0), lag=3)
    with pytest.raises(ParameterError, match="target indices must be a 1-D sequence of ints"):
        ds.pairs_for_targets(targets)


def test_hourly_series_from_history():
    day1 = LoadCurve(np.arange(48, dtype=float))
    day2 = LoadCurve(np.ones(48))
    records = (
        DailyRecord(day=datetime.date(2025, 3, 1), curve=day1),
        DailyRecord(day=datetime.date(2025, 3, 2), curve=day2),
    )
    ds = hourly_series_from_history(records)
    assert ds.sample_count == 48 and ds.lag == FORECAST_LAG
    # hour h averages slots 2h+1 and 2h+2
    npt.assert_allclose(ds.values[:24], np.arange(48).reshape(24, 2).mean(axis=1))
    npt.assert_allclose(ds.values[24:], 1.0)


def test_hourly_series_rejects_gaps():
    curve = LoadCurve(np.ones(48))
    records = (
        DailyRecord(day=datetime.date(2025, 3, 1), curve=curve),
        DailyRecord(day=datetime.date(2025, 3, 3), curve=curve),
    )
    with pytest.raises(TemporalConsistencyError):
        hourly_series_from_history(records)


# The per-record series builder that the whole-window one replaced: one
# reshape(24, 2).mean per day, then a concatenation.  Kept as the reference the
# whole-window builder must match bit for bit, errors included.
def reference_hourly_series(records):
    if not records:
        raise DatasetTooSmallError("history is empty")
    days = [rec.day for rec in records]
    for prev, nxt in zip(days, days[1:]):
        if nxt != prev + datetime.timedelta(days=1):
            raise TemporalConsistencyError(f"history days not consecutive: {prev} -> {nxt}")
    hourly = np.concatenate(
        [rec.curve.values.reshape(24, 2).mean(axis=1) for rec in records]
    )
    return SeriesDataset(values=hourly, lag=FORECAST_LAG)


def extreme_history(seed, days, start=datetime.date(2025, 3, 1)):
    """Seeded daily curves mixing zeros, subnormals and values up to 1e300."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 3.0, (days, 48))
    kinds = rng.integers(0, 6, (days, 48))
    values[kinds == 0] = 0.0
    values[kinds == 1] = rng.choice([5e-324, 1e-310, 2.2e-308], size=int((kinds == 1).sum()))
    values[kinds == 2] *= 10.0 ** rng.integers(3, 300, size=int((kinds == 2).sum()))
    return [
        DailyRecord(day=start + datetime.timedelta(days=d), curve=LoadCurve(values[d]))
        for d in range(days)
    ]


def outcome(build, *args, **kwargs):
    """What a call gives: its result, or the type and message it raised."""
    try:
        return build(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared against the reference
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("days", [1, 2, 7, 120])
def test_hourly_series_matches_the_per_record_reference(seed, days):
    records = extreme_history(seed, days)
    got = hourly_series_from_history(records)
    ref = reference_hourly_series(records)
    assert got.lag == ref.lag
    assert got.values.tobytes() == ref.values.tobytes()


def test_hourly_series_errors_match_the_per_record_reference():
    records = extreme_history(5, 6)
    cases = [
        [],
        records[:2] + records[3:],  # a gap
        records[::-1],  # descending
        records[:3] + records[2:],  # a repeated day
        [records[1], records[0]] + records[2:],  # out of order
        records[:3],  # valid
    ]
    for case in cases:
        got = outcome(hourly_series_from_history, case)
        ref = outcome(reference_hourly_series, case)
        if isinstance(ref, SeriesDataset):
            assert got.values.tobytes() == ref.values.tobytes()
        else:
            assert got == ref


@pytest.mark.parametrize("lag", [0, -1, 1.5, float("nan"), float("inf"), "3", None])
def test_series_lag_must_be_a_whole_number(lag):
    with pytest.raises(ParameterError, match="lag must be a whole number >= 1"):
        SeriesDataset(values=np.arange(40.0), lag=lag)


def test_series_lag_takes_whole_floats_as_ints():
    for lag in (3.0, np.float64(3.0), np.int64(3)):
        ds = SeriesDataset(values=np.arange(40.0), lag=lag)
        assert type(ds.lag) is int and ds.lag == 3
        X, y = ds.pairs_for_targets(np.arange(40))
        assert X.shape == (37, 3) and y[0] == 3.0


# ---------------------------------------------------------------- splitting


def test_split_year_sizes():
    ds = make_series(np.sin(np.arange(8760) / 24.0) + 2.0)
    split = split_dataset(ds, TrainingConfig(rng_seed=3))
    indices = (split.train_indices, split.validation_indices, split.test_indices)
    assert tuple(part.size for part in indices) == (6132, 1314, 1314)


def test_split_hundred_samples():
    ds = make_series(np.linspace(0, 1, 100), lag=4)
    split = split_dataset(ds, TrainingConfig())
    indices = (split.train_indices, split.validation_indices, split.test_indices)
    assert tuple(part.size for part in indices) == (70, 15, 15)


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
    jtj, jtr = jac.T @ jac, jac.T @ res
    npt.assert_array_equal(jtj, [[35.0, 44.0], [44.0, 56.0]])
    npt.assert_array_equal(jtr, [7.5, 9.0])
    delta = damped_step(jtj, jtr, lam)
    oracle = np.linalg.solve(jac.T @ jac + lam * np.eye(2), jac.T @ res)
    npt.assert_allclose(delta, oracle, rtol=1e-12)
    # every damping retry of an epoch reuses the same normal equations
    npt.assert_array_equal(jtj, [[35.0, 44.0], [44.0, 56.0]])
    npt.assert_array_equal(damped_step(jtj, jtr, lam), delta)


def test_damped_step_restores_the_equations_when_the_solve_fails():
    jtj, jtr = np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError):
        damped_step(jtj, jtr, 0.0)
    npt.assert_array_equal(jtj, [[1.0, 2.0], [2.0, 4.0]])


def random_network(rng, inputs, hidden, scale=0.8):
    return NarNetwork(
        w_in=rng.normal(scale=scale, size=(hidden, inputs)),
        b_in=rng.normal(scale=0.5, size=hidden),
        w_out=rng.normal(scale=0.8, size=hidden),
        b_out=rng.normal(),
    )


@pytest.mark.parametrize(
    "pairs, lag, hidden, scale, constant_column",
    [
        (1992, 24, 10, 0.3, None),  # the pipeline's shapes
        (40, 1, 1, 0.8, None),
        (30, 6, 5, 0.8, None),  # fewer pairs than parameters (41)
        (300, 5, 4, 0.8, 2),
        (200, 6, 3, 10.0, None),  # saturated tanh
        (1024, 3, 2, 0.8, None),  # whole row blocks only
    ],
)
def test_structured_normal_equations_match_the_dense_jacobian(
    pairs, lag, hidden, scale, constant_column
):
    rng = np.random.default_rng(pairs + lag + hidden)
    net = random_network(rng, lag, hidden, scale)
    x = rng.uniform(-1, 1, size=(pairs, lag))
    if constant_column is not None:
        x[:, constant_column] = 0.4
    r = rng.normal(size=pairs)
    hidden_out = np.tanh(x @ net.w_in.T + net.b_in)
    jtj, jtr = forecast._NormalEquations(x, hidden)(hidden_out, net.w_out, r)
    jac = prediction_jacobian(net, x)
    dense = jac.T @ jac
    assert jtj.shape == dense.shape and jtr.shape == (net.parameter_count,)
    assert np.max(np.abs(jtj - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert np.max(np.abs(jtr - jac.T @ r)) <= 1e-13 * np.max(np.abs(jac.T @ r))
    npt.assert_array_equal(jtj, jtj.T)


def test_training_never_forms_the_jacobian(monkeypatch):
    def forbidden(*args):
        raise AssertionError("train_lm built the dense Jacobian")

    monkeypatch.setattr(forecast, "prediction_jacobian", forbidden)
    net, train, val = seeded_problem(6, 300, 24, 10)
    result = train_lm(net, train, val, TrainingConfig(max_epochs=5))
    assert len(result.train_mse) > 1


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
    ds = SeriesDataset(values=values, lag=lag)
    return ds.pairs_for_targets(np.arange(ds.lag, ds.sample_count))


def test_training_config_takes_whole_epoch_counts():
    for count in (0, 2.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="max_epochs must be a whole number >= 1"):
            TrainingConfig(max_epochs=count)
    assert type(TrainingConfig(max_epochs=4.0).max_epochs) is int
    for seed in (-1, 2.5, float("nan"), float("inf"), "3"):
        with pytest.raises(ParameterError, match="rng_seed must be a whole number >= 0"):
            TrainingConfig(rng_seed=seed)
    assert type(TrainingConfig(rng_seed=3.0).rng_seed) is int


@pytest.mark.parametrize("size", [0, 2.5, float("nan"), float("inf"), "3", None])
@pytest.mark.parametrize("layer", ["input_size", "hidden_size"])
def test_layer_sizes_must_be_whole_numbers(layer, size):
    with pytest.raises(ParameterError, match=f"{layer} must be a whole number >= 1"):
        initialize_network(**{"input_size": 3, "hidden_size": 2, layer: size})
    net = initialize_network(input_size=3.0, hidden_size=2.0)
    assert net.w_in.shape == (2, 3) and net.b_in.shape == net.w_out.shape == (2,)


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), "x", None, True])
def test_initialize_network_seed_must_be_a_whole_number(seed):
    with pytest.raises(ParameterError, match="seed must be a whole number >= 0"):
        initialize_network(input_size=3, hidden_size=2, seed=seed)
    same = initialize_network(input_size=3, hidden_size=2, seed=4.0)
    assert same.w_in.tobytes() == initialize_network(3, 2, seed=4).w_in.tobytes()


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
    ``J^T J`` and ``J^T r`` (with the same structured kernel) from a fresh
    forward pass, and every residual goes through a validated
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

    equations = forecast._NormalEquations(xn_train, net.hidden_size)

    def step(theta, r, damping):
        p = with_params(net, theta)
        jtj, jtr = equations(np.tanh(xn_train @ p.w_in.T + p.b_in), p.w_out, r)
        jtj[np.diag_indices_from(jtj)] += damping
        return np.linalg.solve(jtj, jtr)

    theta = flatten_params(net)
    r = residuals(theta)
    sse = float(np.sum(r**2))
    train_trace, val_trace = [sse / y_train.size * scale_sq], [val_mse(theta)]
    best_theta, best_val, best_epoch = theta.copy(), val_trace[0], 0
    if sse == 0.0:
        return best_theta, train_trace, val_trace, best_epoch, "perfect_fit"
    damping, stale = forecast.LM_INITIAL_DAMPING, 0
    for _ in range(cfg.max_epochs):
        accepted = False
        while True:
            failed = False
            try:
                delta = step(theta, r, damping)
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
    ds = make_series(values, lag=4)
    result, split = fit_series(ds, TrainingConfig(max_epochs=50, rng_seed=13))
    assert result.network.hidden_size == HIDDEN_UNITS
    X_test, y_test = ds.pairs_for_targets(split.test_indices)
    net = result.network
    preds = np.array([forward(net, row) for row in X_test])
    model_mse = float(np.mean((preds - y_test) ** 2))
    persistence_mse = float(np.mean((X_test[:, -1] - y_test) ** 2))
    assert model_mse <= persistence_mse


# ---------------------------------------------------------------- prediction


def day_of(hourly):
    """A one-day curve whose hourly means are exactly ``hourly``."""
    return LoadCurve(np.repeat(np.asarray(hourly, dtype=float), 2))


def test_predict_day_constant_net():
    net = NarNetwork(w_in=np.zeros((2, 3)), b_in=np.zeros(2), w_out=np.zeros(2), b_out=1.5)
    curve = predict_day(net, day_of(np.ones(24)))
    npt.assert_allclose(curve.values, 1.5)


def test_predict_day_matches_analytic_ar1_recursion():
    # hidden layer in its linear regime realizes y = 0.8 x almost exactly
    net = NarNetwork(
        w_in=np.array([[1e-6]]), b_in=np.zeros(1), w_out=np.array([0.8e6]), b_out=0.0
    )
    hourly_history = ar1_series(24, phi=0.8, y0=1.0)
    curve = predict_day(net, day_of(hourly_history))

    last = hourly_history[-1]
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
    curve = predict_day(net, day_of(np.ones(24)))
    assert curve.values.shape == (48,)


def test_predict_day_clamps_negative():
    net = NarNetwork(w_in=np.zeros((1, 2)), b_in=np.zeros(1), w_out=np.zeros(1), b_out=-2.0)
    curve = predict_day(net, day_of(np.ones(24)))
    npt.assert_array_equal(curve.values, np.zeros(48))


def test_predict_day_requires_enough_history():
    # one day holds 24 hourly means, one fewer than a lag-25 window
    net = initialize_network(input_size=25, hidden_size=3, seed=0)
    with pytest.raises(DatasetTooSmallError, match="need 25 history values, got 24"):
        predict_day(net, day_of(np.ones(24)))


# The series-based closed loop that the one-day one replaced: it took an
# hourly ``SeriesDataset`` and checked its length and midnight alignment.
# Kept as the reference the one-day loop must match bit for bit.
def reference_predict_day(net, history):
    if history.sample_count < net.input_size:
        raise DatasetTooSmallError(
            f"need {net.input_size} history values, got {history.sample_count}"
        )
    if history.sample_count % 24 != 0:
        raise TemporalConsistencyError(f"{history.sample_count} hours do not end at midnight")
    window = net.normalize(history.values[-net.input_size :]).copy()
    preds = np.empty(24)
    layers = forecast._layers(net)
    for k in range(24):
        preds[k] = forecast._forward_normalized(*layers, window[None, :])[0]
        window[:-1] = window[1:]
        window[-1] = preds[k]
    hourly = np.maximum(net.denormalize(preds), 0.0)
    slot_centers = (np.arange(48) + 0.5) * 0.5
    return LoadCurve(np.interp(slot_centers, np.arange(24) + 0.5, hourly))


def seeded_net(lag, seed):
    """A lag-``lag`` forecaster with seeded weights, biases and bounds."""
    rng = np.random.default_rng(seed)
    net = initialize_network(input_size=lag, hidden_size=HIDDEN_UNITS, seed=seed)
    net = with_params(net, rng.normal(0.0, 0.6, net.parameter_count))
    low = float(rng.uniform(0.0, 0.5))
    return replace(net, norm_min=low, norm_max=low + float(rng.uniform(1.0, 4.0)))


@pytest.mark.parametrize("lag", [1, 4, 24])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predict_day_matches_the_series_reference(lag, seed):
    net = seeded_net(lag, seed)
    rng = np.random.default_rng(100 + seed)
    days = [rng.uniform(0.0, 3.0, 48), np.zeros(48)]
    start = datetime.date(2025, 3, 1)
    for values in days:
        records = [
            DailyRecord(day=start, curve=LoadCurve(rng.uniform(0.0, 3.0, 48))),
            DailyRecord(day=start + datetime.timedelta(days=1), curve=LoadCurve(values)),
        ]
        got = predict_day(net, records[-1].curve)
        # what the pipeline passed before: the previous day's one-day series
        one_day = reference_predict_day(net, hourly_series_from_history(records[-1:]))
        assert got.values.tobytes() == one_day.values.tobytes()
        # the reference reads only the last hours of a longer series too
        two_days = reference_predict_day(net, hourly_series_from_history(records))
        assert got.values.tobytes() == two_days.values.tobytes()


# ---------------------------------------------------------------- diagnostics


def test_autocorrelation_alternating_series():
    n = 200
    residuals = np.resize([1.0, -1.0], n)
    result = error_autocorrelation(residuals)
    assert result.values.size == AUTOCORRELATION_LAGS + 1
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
        result = error_autocorrelation(rng.standard_normal(1000))
        total += 20
        inside += 20 - len(result.lags_outside_bound())
        assert result.confidence_bound == pytest.approx(1.96 / np.sqrt(1000))
    assert inside / total >= 0.93


def test_autocorrelation_rejects_constant_and_short():
    with pytest.raises(UndefinedMetricError):
        error_autocorrelation(np.full(50, 3.3))
    with pytest.raises(DatasetTooSmallError):
        error_autocorrelation(np.arange(10.0))
