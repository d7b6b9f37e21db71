"""Day-ahead forecasting with a small autoregressive neural network.

One hidden tanh layer maps the last ``lag`` values of an hourly series to the
next value.  Training is damped Gauss-Newton (Levenberg-Marquardt) on the
flattened parameter vector; day-ahead curves come from closed-loop multi-step
prediction, linearly interpolated onto the 48-slot grid.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import SLOT_COUNT, SLOT_MINUTES, DailyRecord, LoadCurve
from .errors import (
    DatasetTooSmallError,
    FormatError,
    ParameterError,
    TemporalConsistencyError,
    TrainingFailedError,
    UndefinedMetricError,
)

MINUTES_PER_DAY = 24 * 60


# ---------------------------------------------------------------- datasets


@dataclass(frozen=True, eq=False)
class SeriesDataset:
    """A regularly sampled series with its autoregressive window length.

    Args:
        values: the series (kW), time-ordered.
        start: timestamp of ``values[0]``.
        step_minutes: sampling step; 60 for the hourly series used throughout.
        lag: window length t_d; supervised pairs map ``lag`` consecutive
            values to the next one, so there are ``len(values) - lag`` pairs.
    """

    values: np.ndarray
    start: datetime.datetime
    step_minutes: int = 60
    lag: int = 24

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise FormatError("series values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise FormatError("series contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if not isinstance(self.start, datetime.datetime):
            raise FormatError("start must be a datetime")
        if self.step_minutes < 1:
            raise ParameterError("step_minutes must be >= 1")
        if self.lag < 1:
            raise ParameterError("lag must be >= 1")

    @property
    def sample_count(self) -> int:
        return int(self.values.size)

    def timestamp(self, index: int) -> datetime.datetime:
        return self.start + datetime.timedelta(minutes=index * self.step_minutes)

    def pairs_for_targets(self, target_indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Supervised (window, next value) pairs for the given target samples.

        Indices below ``lag`` have no full window and are skipped.
        """
        targets = np.asarray(sorted(int(i) for i in target_indices), dtype=int)
        if targets.size and (targets[0] < 0 or targets[-1] >= self.sample_count):
            raise ParameterError("target index outside the series")
        targets = targets[targets >= self.lag]
        X = np.empty((targets.size, self.lag))
        for row, t in enumerate(targets):
            X[row] = self.values[t - self.lag : t]
        return X, self.values[targets]


def hourly_series_from_history(
    records: Sequence[DailyRecord], lag: int = 24
) -> SeriesDataset:
    """Collapse dated half-hour curves into one contiguous hourly series.

    Each hour's value is the mean of its two half-hour slots.  Days must be
    consecutive; a gap would silently break the autoregressive windows.
    """
    if not records:
        raise DatasetTooSmallError("history is empty")
    days = [rec.day for rec in records]
    for prev, nxt in zip(days, days[1:]):
        if nxt != prev + datetime.timedelta(days=1):
            raise TemporalConsistencyError(f"history days not consecutive: {prev} -> {nxt}")
    hourly = np.concatenate(
        [rec.curve.values.reshape(24, 2).mean(axis=1) for rec in records]
    )
    start = datetime.datetime.combine(days[0], datetime.time.min)
    return SeriesDataset(values=hourly, start=start, step_minutes=60, lag=lag)


# ---------------------------------------------------------------- config


# Fixed training policy, used by train_lm and split_dataset.
LM_INITIAL_DAMPING = 1e-3
LM_DAMPING_UP = 10.0
LM_DAMPING_DOWN = 10.0
LM_DAMPING_CAP = 1e10
STOP_PATIENCE = 6
IMPROVEMENT_TOL = 1e-6  # validation MSE must beat best * (1 - IMPROVEMENT_TOL)
VALIDATION_FRACTION = 0.15
TEST_FRACTION = 0.15


@dataclass(frozen=True)
class TrainingConfig:
    """Per-fit training settings: the epoch budget and the seed.

    The seed draws the validation/test split and the initial weights.
    """

    max_epochs: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")


# ---------------------------------------------------------------- network


@dataclass(frozen=True, eq=False)
class NarNetwork:
    """One-hidden-layer autoregressive net: tanh hidden units, identity output.

    ``norm_min``/``norm_max`` are the affine normalization bounds learned from
    the training data; inputs and targets are mapped to [-1, 1] inside the
    network, so callers always work in original units.  The defaults (-1, 1)
    make normalization the identity.
    """

    w_in: np.ndarray  # (hidden, input)
    b_in: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden,)
    b_out: float
    norm_min: float = -1.0
    norm_max: float = 1.0

    def __post_init__(self):
        w_in = np.asarray(self.w_in, dtype=float)
        b_in = np.asarray(self.b_in, dtype=float)
        w_out = np.asarray(self.w_out, dtype=float)
        if w_in.ndim != 2:
            raise FormatError("w_in must be a (hidden, input) matrix")
        hidden = w_in.shape[0]
        if b_in.shape != (hidden,) or w_out.shape != (hidden,):
            raise FormatError("bias/output vectors inconsistent with hidden size")
        for arr in (w_in, b_in, w_out):
            if not np.all(np.isfinite(arr)):
                raise FormatError("network parameters must be finite")
        if not np.isfinite(self.b_out):
            raise FormatError("network parameters must be finite")
        if not self.norm_max > self.norm_min:
            raise ParameterError("norm_max must exceed norm_min")
        for name, arr in (("w_in", w_in), ("b_in", b_in), ("w_out", w_out)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "b_out", float(self.b_out))

    @property
    def input_size(self) -> int:
        return int(self.w_in.shape[1])

    @property
    def hidden_size(self) -> int:
        return int(self.w_in.shape[0])

    @property
    def parameter_count(self) -> int:
        h, d = self.hidden_size, self.input_size
        return h * d + h + h + 1

    def normalize(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.norm_min) / (
            self.norm_max - self.norm_min
        ) - 1.0

    def denormalize(self, y):
        return (np.asarray(y, dtype=float) + 1.0) / 2.0 * (
            self.norm_max - self.norm_min
        ) + self.norm_min


def initialize_network(input_size: int = 24, hidden_size: int = 10, seed: int = 0) -> NarNetwork:
    """Fresh network: weights uniform in [-0.5, 0.5]/sqrt(fan-in), zero biases."""
    if input_size < 1 or hidden_size < 1:
        raise ParameterError("layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5, 0.5, size=(hidden_size, input_size)) / np.sqrt(input_size)
    w_out = rng.uniform(-0.5, 0.5, size=hidden_size) / np.sqrt(hidden_size)
    return NarNetwork(w_in=w_in, b_in=np.zeros(hidden_size), w_out=w_out, b_out=0.0)


def flatten_params(net: NarNetwork) -> np.ndarray:
    """Parameters as one vector, ordered [w_in (row-major), b_in, w_out, b_out]."""
    return np.concatenate([net.w_in.ravel(), net.b_in, net.w_out, [net.b_out]])


def with_params(net: NarNetwork, theta: np.ndarray) -> NarNetwork:
    """The same architecture/normalization with a new flat parameter vector."""
    theta = np.asarray(theta, dtype=float)
    h, d = net.hidden_size, net.input_size
    if theta.shape != (net.parameter_count,):
        raise FormatError(
            f"parameter vector needs {net.parameter_count} entries, got {theta.shape}"
        )
    w_in, b_in, w_out, b_out = _unpack(theta, h, d)
    return replace(net, w_in=w_in, b_in=b_in, w_out=w_out, b_out=float(b_out))


def _unpack(theta: np.ndarray, hidden: int, inputs: int):
    """Views (w_in, b_in, w_out, b_out) of a flat vector in ``flatten_params`` order.

    ``w_in`` is a C-contiguous (hidden, inputs) view, laid out like the
    copy a ``NarNetwork`` stores, so products with it round the same way.
    """
    split = hidden * inputs
    return (
        theta[:split].reshape(hidden, inputs),
        theta[split : split + hidden],
        theta[split + hidden : split + 2 * hidden],
        theta[-1],
    )


def _forward_normalized(w_in, b_in, w_out, b_out, x_norm: np.ndarray) -> np.ndarray:
    hidden = np.tanh(x_norm @ w_in.T + b_in)
    return hidden @ w_out + b_out


def _layers(net: NarNetwork):
    return net.w_in, net.b_in, net.w_out, net.b_out


def forward(net: NarNetwork, window: Sequence[float]) -> float:
    """Predict the next value from one lag window (original units).

    Raises:
        FormatError: wrong window length or non-finite values.
    """
    arr = np.asarray(window, dtype=float)
    if arr.shape != (net.input_size,):
        raise FormatError(f"window needs {net.input_size} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("window contains non-finite values")
    y_norm = _forward_normalized(*_layers(net), net.normalize(arr)[None, :])[0]
    return float(net.denormalize(y_norm))


def prediction_jacobian(net: NarNetwork, x_norm: np.ndarray) -> np.ndarray:
    """Jacobian of normalized predictions w.r.t. the flat parameter vector.

    Args:
        x_norm: (n, input_size) inputs already in normalized space.

    Returns:
        (n, parameter_count) C-contiguous matrix, columns ordered like
        ``flatten_params``; each block is written in place, with no
        intermediate copy of the (n, hidden*input) weight block.
    """
    x_norm = np.atleast_2d(np.asarray(x_norm, dtype=float))
    hidden = np.tanh(x_norm @ net.w_in.T + net.b_in)  # (n, h)
    gain = (1.0 - hidden**2) * net.w_out  # d y / d preactivation_j
    n, (h, d) = x_norm.shape[0], net.w_in.shape
    jac = np.empty((n, net.parameter_count))
    # einsum adds each product to a zeroed output, so an exact-zero product is
    # stored as +0.0; np.multiply would keep -0.0 and could flip zero signs in J^T J
    np.einsum("nj,nk->njk", gain, x_norm, out=jac[:, : h * d].reshape(n, h, d))
    jac[:, h * d : h * d + h] = gain
    jac[:, h * d + h : -1] = hidden
    jac[:, -1] = 1.0
    return jac


def normal_equations(
    jacobian: np.ndarray, residuals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Newton normal-equation terms ``(J^T J, J^T r)``.

    They depend only on the current parameters, so ``train_lm`` builds them
    once per epoch and every damping retry of that epoch reuses them.
    """
    return jacobian.T @ jacobian, jacobian.T @ residuals


def damped_step(jtj: np.ndarray, jtr: np.ndarray, damping: float) -> np.ndarray:
    """Solve the damped normal equations (J^T J + damping*I) delta = J^T r.

    ``jtj`` and ``jtr`` come from ``normal_equations`` and are not modified:
    the damping is added to the diagonal of a copy.  The residuals behind
    ``jtr`` follow the target-minus-prediction convention, so the returned
    delta is added to the parameters.
    """
    damped = jtj.copy()
    damped[np.diag_indices_from(damped)] += damping
    return np.linalg.solve(damped, jtr)


# ---------------------------------------------------------------- splitting


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Sample-index partition: contiguous training prefix, random val/test."""

    train_indices: np.ndarray
    validation_indices: np.ndarray
    test_indices: np.ndarray

    def sizes(self) -> tuple[int, int, int]:
        return (
            int(self.train_indices.size),
            int(self.validation_indices.size),
            int(self.test_indices.size),
        )


def split_dataset(ds: SeriesDataset, cfg: TrainingConfig) -> DatasetSplit:
    """Partition the dataset's sample indices for training.

    Sizes are computed on sample counts (``round(N * VALIDATION_FRACTION)``
    and ``round(N * TEST_FRACTION)``, remainder for training).  Training
    takes the contiguous prefix; validation and test are drawn
    seeded-randomly from the rest, so an 8760-sample year at 70/15/15 yields
    6132/1314/1314.

    Raises:
        DatasetTooSmallError: fewer than ``lag + 10`` samples.
    """
    n = ds.sample_count
    if n < ds.lag + 10:
        raise DatasetTooSmallError(f"need at least lag + 10 = {ds.lag + 10} samples, got {n}")
    n_val = int(round(n * VALIDATION_FRACTION))
    n_test = int(round(n * TEST_FRACTION))
    n_train = n - n_val - n_test
    if n_train <= ds.lag:
        raise DatasetTooSmallError("training prefix would contain no supervised pairs")
    rng = np.random.default_rng(cfg.rng_seed)
    remainder = rng.permutation(np.arange(n_train, n))
    val = np.sort(remainder[:n_val])
    test = np.sort(remainder[n_val : n_val + n_test])
    return DatasetSplit(
        train_indices=np.arange(n_train),
        validation_indices=val,
        test_indices=test,
    )


# ---------------------------------------------------------------- training


@dataclass(frozen=True, eq=False)
class TrainingResult:
    """A trained network plus its per-epoch MSE traces (original units).

    ``train_mse[0]`` is the pre-training error; each later entry is one
    accepted Levenberg-Marquardt step.  ``network`` carries the parameters of
    the best validation epoch, not necessarily the last.
    """

    network: NarNetwork
    train_mse: tuple[float, ...]
    validation_mse: tuple[float, ...]
    best_epoch: int
    stop_reason: str


def train_lm(
    net: NarNetwork,
    train: tuple[np.ndarray, np.ndarray],
    validation: tuple[np.ndarray, np.ndarray],
    cfg: TrainingConfig,
) -> TrainingResult:
    """Train by Levenberg-Marquardt on raw-unit (window, target) pairs.

    Every training residual counts equally in the squared error.
    Normalization bounds are taken from the training pairs and stored on the
    returned network.  Each epoch builds J^T J and J^T r once
    (``normal_equations``) at the current parameters, then solves
    (J^T J + lam*I) delta = J^T r (``damped_step``) for each damping lam it
    tries: lam shrinks after an accepted step and grows after a rejected
    one, which is retried from the same normal equations.  Residuals of the
    candidate steps are computed straight from the flat parameter vector;
    only the returned network is built as a ``NarNetwork``.  Training stops
    at ``max_epochs``, when validation MSE stops improving for
    ``STOP_PATIENCE`` epochs, on an exact fit, or when lam passes
    ``LM_DAMPING_CAP``.

    Args:
        net: initial network (normalization bounds are overwritten).
        train: (X, y) training pairs in original units.
        validation: (X, y) validation pairs in original units.
        cfg: epoch budget.

    Returns:
        TrainingResult with best-validation parameters and MSE traces.

    Raises:
        DatasetTooSmallError: an empty partition.
        TrainingFailedError: the damped normal equations stay unsolvable at
            the damping cap.
    """
    x_train, y_train = (np.asarray(a, dtype=float) for a in train)
    x_val, y_val = (np.asarray(a, dtype=float) for a in validation)
    if x_train.size == 0 or x_val.size == 0:
        raise DatasetTooSmallError("training and validation partitions must be non-empty")
    if x_train.ndim != 2 or x_train.shape[1] != net.input_size:
        raise FormatError(f"training windows must be (n, {net.input_size})")
    if x_val.ndim != 2 or x_val.shape[1] != net.input_size:
        raise FormatError(f"validation windows must be (n, {net.input_size})")

    lo = min(x_train.min(), y_train.min())
    hi = max(x_train.max(), y_train.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, lo + 1.0  # constant series: keep the map well-defined
    net = replace(net, norm_min=float(lo), norm_max=float(hi))
    scale_sq = ((hi - lo) / 2.0) ** 2  # normalized MSE -> original units

    xn_train, yn_train = net.normalize(x_train), net.normalize(y_train)
    xn_val, yn_val = net.normalize(x_val), net.normalize(y_val)

    h, d = net.hidden_size, net.input_size

    def residuals(theta: np.ndarray) -> np.ndarray:
        return yn_train - _forward_normalized(*_unpack(theta, h, d), xn_train)

    def val_mse(theta: np.ndarray) -> float:
        err = yn_val - _forward_normalized(*_unpack(theta, h, d), xn_val)
        return float(np.mean(err**2) * scale_sq)

    theta = flatten_params(net)
    r = residuals(theta)
    sse = float(np.sum(r**2))
    n_train = y_train.size

    train_trace = [sse / n_train * scale_sq]
    val_trace = [val_mse(theta)]
    best_theta, best_val, best_epoch = theta.copy(), val_trace[0], 0

    def finish(reason: str) -> TrainingResult:
        return TrainingResult(
            network=with_params(net, best_theta),
            train_mse=tuple(train_trace),
            validation_mse=tuple(val_trace),
            best_epoch=best_epoch,
            stop_reason=reason,
        )

    if sse == 0.0:
        return finish("perfect_fit")

    damping = LM_INITIAL_DAMPING
    stale_epochs = 0
    for _ in range(cfg.max_epochs):
        jac = prediction_jacobian(with_params(net, theta), xn_train)
        jtj, jtr = normal_equations(jac, r)
        del jac  # free it before the retries: they need only the normal equations
        accepted = False
        while True:
            solve_failed = False
            try:
                delta = damped_step(jtj, jtr, damping)
                if not np.all(np.isfinite(delta)):
                    solve_failed = True
            except np.linalg.LinAlgError:
                solve_failed = True
            if not solve_failed:
                candidate = theta + delta
                r_new = residuals(candidate)
                sse_new = float(np.sum(r_new**2))
                if np.isfinite(sse_new) and sse_new < sse:
                    theta, r, sse = candidate, r_new, sse_new
                    damping = max(damping / LM_DAMPING_DOWN, 1e-12)
                    accepted = True
                    break
            damping *= LM_DAMPING_UP
            if damping > LM_DAMPING_CAP:
                if solve_failed:
                    raise TrainingFailedError(
                        "damped normal equations unsolvable at the damping cap",
                        trace=tuple(train_trace),
                    )
                break  # no downhill step left: treat as converged

        if not accepted:
            return finish("damping_cap")

        train_trace.append(sse / n_train * scale_sq)
        current_val = val_mse(theta)
        val_trace.append(current_val)
        epoch = len(train_trace) - 1

        if current_val < best_val * (1.0 - IMPROVEMENT_TOL):
            best_theta, best_val, best_epoch = theta.copy(), current_val, epoch
            stale_epochs = 0
        else:
            stale_epochs += 1

        if sse == 0.0:
            best_theta, best_val, best_epoch = theta.copy(), current_val, epoch
            return finish("perfect_fit")
        if stale_epochs >= STOP_PATIENCE:
            return finish("early_stop")

    return finish("max_epochs")


def fit_series(
    ds: SeriesDataset, cfg: TrainingConfig, hidden_size: int = 10
) -> tuple[TrainingResult, DatasetSplit]:
    """Split, initialize and train a forecaster for one series."""
    split = split_dataset(ds, cfg)
    x_train, y_train = ds.pairs_for_targets(split.train_indices)
    x_val, y_val = ds.pairs_for_targets(split.validation_indices)
    net = initialize_network(input_size=ds.lag, hidden_size=hidden_size, seed=cfg.rng_seed)
    result = train_lm(net, (x_train, y_train), (x_val, y_val), cfg)
    return result, split


# ---------------------------------------------------------------- prediction


def predict_day(net: NarNetwork, history: SeriesDataset) -> LoadCurve:
    """Closed-loop forecast of the next day as a 48-slot curve.

    The last ``input_size`` history values seed the lag window; each
    prediction is fed back until one day is covered.  Step-level outputs sit
    at their interval midpoints and are linearly interpolated to the 48
    half-hour slot midpoints (ends clamped), then negative values are cut off
    at zero.

    Raises:
        DatasetTooSmallError: fewer history values than the lag window.
        TemporalConsistencyError: history does not end on a day boundary.
    """
    if history.sample_count < net.input_size:
        raise DatasetTooSmallError(
            f"need {net.input_size} history values, got {history.sample_count}"
        )
    if MINUTES_PER_DAY % history.step_minutes != 0:
        raise ParameterError("step_minutes must divide one day")
    end = history.timestamp(history.sample_count)
    if (end.hour, end.minute, end.second, end.microsecond) != (0, 0, 0, 0):
        raise TemporalConsistencyError(f"history must end at midnight, ends {end}")

    steps = MINUTES_PER_DAY // history.step_minutes
    window = net.normalize(history.values[-net.input_size :]).copy()
    preds = np.empty(steps)
    layers = _layers(net)
    for k in range(steps):
        preds[k] = _forward_normalized(*layers, window[None, :])[0]
        window[:-1] = window[1:]
        window[-1] = preds[k]
    hourly = np.maximum(net.denormalize(preds), 0.0)

    step_hours = history.step_minutes / 60.0
    pred_centers = (np.arange(steps) + 0.5) * step_hours
    slot_centers = (np.arange(SLOT_COUNT) + 0.5) * (SLOT_MINUTES / 60.0)
    return LoadCurve(np.interp(slot_centers, pred_centers, hourly))


# ---------------------------------------------------------------- diagnostics


@dataclass(frozen=True, eq=False)
class AutocorrelationResult:
    """Normalized residual autocorrelations with their 95% confidence bound."""

    values: np.ndarray  # r(0) .. r(max_lag)
    confidence_bound: float
    sample_count: int

    def lags_outside_bound(self) -> tuple[int, ...]:
        outside = np.flatnonzero(np.abs(self.values[1:]) > self.confidence_bound) + 1
        return tuple(int(k) for k in outside)


def error_autocorrelation(residuals: Sequence[float], max_lag: int = 20) -> AutocorrelationResult:
    """Non-centered residual autocorrelation r(k) = sum(e_t e_{t+k}) / sum(e_t^2).

    r(0) is 1 by construction; the 95% confidence bound for white residuals
    is 1.96/sqrt(N).

    Raises:
        DatasetTooSmallError: fewer than 20 residuals.
        UndefinedMetricError: constant residuals (zero variance).
    """
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 1 or e.size < 20:
        raise DatasetTooSmallError("need at least 20 residuals")
    if not np.all(np.isfinite(e)):
        raise FormatError("residuals contain non-finite values")
    if np.ptp(e) == 0.0:
        raise UndefinedMetricError("autocorrelation undefined for constant residuals")
    if max_lag < 1:
        raise ParameterError("max_lag must be >= 1")
    max_lag = min(max_lag, e.size - 1)
    denom = float(np.sum(e * e))
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for k in range(1, max_lag + 1):
        values[k] = float(np.sum(e[:-k] * e[k:])) / denom
    return AutocorrelationResult(
        values=values,
        confidence_bound=1.96 / np.sqrt(e.size),
        sample_count=int(e.size),
    )


# ---------------------------------------------------------------- persistence


def network_to_dict(net: NarNetwork, seed: int | None = None, config: TrainingConfig | None = None) -> dict:
    doc = {
        "input_size": net.input_size,
        "hidden_size": net.hidden_size,
        "output_size": 1,
        "hidden_activation": "tanh",
        "output_activation": "identity",
        "parameters": {
            "w_in": net.w_in.ravel().tolist(),
            "b_in": net.b_in.tolist(),
            "w_out": net.w_out.tolist(),
            "b_out": net.b_out,
        },
        "normalization": {"min": net.norm_min, "max": net.norm_max},
        "seed": seed,
        "config": None,
    }
    if config is not None:
        doc["config"] = {
            "max_epochs": config.max_epochs,
            "lm_initial_damping": LM_INITIAL_DAMPING,
            "lm_damping_up": LM_DAMPING_UP,
            "lm_damping_down": LM_DAMPING_DOWN,
            "lm_damping_cap": LM_DAMPING_CAP,
            "stop_patience": STOP_PATIENCE,
            "improvement_tol": IMPROVEMENT_TOL,
            "validation_fraction": VALIDATION_FRACTION,
            "test_fraction": TEST_FRACTION,
            "rng_seed": config.rng_seed,
        }
    return doc


def network_from_dict(doc: dict) -> NarNetwork:
    try:
        d, h = int(doc["input_size"]), int(doc["hidden_size"])
        params = doc["parameters"]
        w_in = np.asarray(params["w_in"], dtype=float)
        b_in = np.asarray(params["b_in"], dtype=float)
        w_out = np.asarray(params["w_out"], dtype=float)
        b_out = float(params["b_out"])
        norm = doc["normalization"]
        lo, hi = float(norm["min"]), float(norm["max"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed network document: {exc}") from exc
    if w_in.shape != (h * d,):
        raise FormatError(f"w_in needs {h * d} entries, got {w_in.size}")
    if b_in.shape != (h,) or w_out.shape != (h,):
        raise FormatError(f"bias/output vectors need {h} entries")
    return NarNetwork(
        w_in=w_in.reshape(h, d), b_in=b_in, w_out=w_out, b_out=b_out,
        norm_min=lo, norm_max=hi,
    )


def save_network(
    net: NarNetwork,
    path,
    seed: int | None = None,
    config: TrainingConfig | None = None,
) -> None:
    """Write the network as a JSON document (layer sizes, flat parameters)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net, seed=seed, config=config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_network(path) -> NarNetwork:
    """Read a network document back, re-verifying parameter counts."""
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))
