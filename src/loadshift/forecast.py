"""Day-ahead forecasting with a small autoregressive neural network.

One hidden tanh layer maps the last ``lag`` values of an hourly series to the
next value.  The network code takes its shape from its arrays; the pipeline's
forecasters all have lag ``FORECAST_LAG`` and ``HIDDEN_UNITS`` hidden units.
Training is damped Gauss-Newton (Levenberg-Marquardt) on the flattened
parameter vector; a day-ahead curve comes from closed-loop multi-step
prediction seeded with the previous day's hourly means, linearly
interpolated onto the 48-slot grid.

Training never forms the (pairs, parameters) Jacobian.  Each epoch builds
J^T J and J^T r from the network's Kronecker structure (``_NormalEquations``),
mostly in one matrix product against the products of every pair of inputs.
Those products depend only on the data, yet each build makes them again,
``_ROW_BLOCK`` pairs at a time in one reused buffer: held for the whole fit,
the (pairs, lag(lag+1)/2) array would take 4.8 MB for the pipeline's 1992
training pairs at lag 24, and rebuilding it costs about a quarter of a build.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import SLOT_COUNT, SLOT_MINUTES, DailyRecord, LoadCurve, _whole_number
from .errors import (
    DatasetTooSmallError,
    FormatError,
    ParameterError,
    TemporalConsistencyError,
    TrainingFailedError,
    UndefinedMetricError,
)

# ---------------------------------------------------------------- datasets


@dataclass(frozen=True, eq=False)
class SeriesDataset:
    """An hourly series that starts at midnight, with its window length.

    Args:
        values: the series (kW), one value per hour, time-ordered.
        lag: window length t_d, a whole number >= 1; supervised pairs map
            ``lag`` consecutive values to the next one, so there are
            ``len(values) - lag`` pairs.
    """

    values: np.ndarray
    lag: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise FormatError("series values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise FormatError("series contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "lag", _whole_number(self.lag, 1, "lag"))

    @property
    def sample_count(self) -> int:
        return int(self.values.size)

    def pairs_for_targets(self, target_indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Supervised (window, next value) pairs for the given target samples.

        Indices below ``lag`` have no full window and are skipped.
        """
        targets = np.sort(np.asarray(target_indices, dtype=int))
        if targets.size and (targets[0] < 0 or targets[-1] >= self.sample_count):
            raise ParameterError("target index outside the series")
        targets = targets[targets >= self.lag]
        X = self.values[targets[:, None] + np.arange(-self.lag, 0)]
        return X, self.values[targets]


_ONE_DAY = datetime.timedelta(days=1)

# the fixed shape of the pipeline's forecasters and of their diagnostics
FORECAST_LAG = 24  # hours in one input window
HIDDEN_UNITS = 10
AUTOCORRELATION_LAGS = 20  # r(1) .. r(20) of the residuals


def _hourly_means(values: np.ndarray) -> np.ndarray:
    """Each hour's mean of its two half-hour slots, for whole days of slots."""
    return values.reshape(-1, 2).mean(axis=1)


def hourly_series_from_history(records: Sequence[DailyRecord]) -> SeriesDataset:
    """Collapse dated half-hour curves into one contiguous hourly series with
    lag ``FORECAST_LAG``.

    Each hour's value is the mean of its two half-hour slots, taken for the
    whole window at once over the concatenated curves.  Days must be given
    in order and be consecutive; a gap would silently break the
    autoregressive windows.
    """
    if not records:
        raise DatasetTooSmallError("history is empty")
    for prev, nxt in zip(records, records[1:]):
        if nxt.day != prev.day + _ONE_DAY:
            raise TemporalConsistencyError(f"history days not consecutive: {prev.day} -> {nxt.day}")
    hourly = _hourly_means(np.concatenate([rec.curve.values for rec in records]))
    return SeriesDataset(values=hourly, lag=FORECAST_LAG)


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
        object.__setattr__(self, "max_epochs", _whole_number(self.max_epochs, 1, "max_epochs"))
        object.__setattr__(self, "rng_seed", _whole_number(self.rng_seed, 0, "rng_seed"))


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


def initialize_network(input_size: int, hidden_size: int, seed: int = 0) -> NarNetwork:
    """Fresh network: weights uniform in [-0.5, 0.5]/sqrt(fan-in), zero biases.

    Raises:
        ParameterError: a layer size is not a whole number >= 1.
    """
    input_size = _whole_number(input_size, 1, "input_size")
    hidden_size = _whole_number(hidden_size, 1, "hidden_size")
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

    Training never forms it (``_NormalEquations`` builds ``J^T J`` from the
    network's structure); it is the dense reference for that build.

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


# training rows that one block of the normal-equation sums covers
_ROW_BLOCK = 512


def _pair_products(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``rows[j] * rows[k]`` for j <= k, in ``np.triu_indices`` order.

    Products run along the last axis, so ``rows`` (m, n) fills ``out``
    (m(m+1)/2, n); nothing else is allocated.
    """
    start = 0
    for j in range(rows.shape[0]):
        stop = start + rows.shape[0] - j
        np.multiply(rows[j], rows[j:], out=out[start:stop])
        start = stop
    return out


def _pair_index(size: int) -> np.ndarray:
    """(size, size) map from (j, k) to the row of ``_pair_products`` holding j*k."""
    index = np.empty((size, size), dtype=np.intp)
    rows, cols = np.triu_indices(size)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return index


class _NormalEquations:
    """The Gauss-Newton terms ``(J^T J, J^T r)`` of one training set, built
    from the network's structure; the Jacobian ``J`` is never formed.

    With hidden activations h, gains g = (1 - h**2) * w_out and u = [1, x],
    the row of ``J`` for one pair holds g_j u_a for the (w_in, b_in)
    parameters of hidden unit j, then h and 1 for w_out and b_out.  So that
    block of J^T J sums g_j g_k u_a u_b over the pairs.  Both factors are
    symmetric, so one GEMM ``M K`` of the products g_j g_k (j <= k) by the
    products x_a x_b (a <= b) gives every distinct x-by-x entry, and ``M x``
    and the row sums of ``M`` the rest.  The w_out/b_out columns and
    ``J^T r`` come from the products g_j z_c, z = [h, 1, r], by x and 1, and
    the last rows from ``z z^T``.

    Every call makes both factors ``_ROW_BLOCK`` training rows at a time,
    in small buffers that each block reuses, so no (n, d(d+1)/2) ``K`` is
    held between calls.  ``x_rows`` holds the inputs transposed, so each
    input product is a multiply of contiguous rows.
    """

    def __init__(self, x_norm: np.ndarray, hidden_size: int):
        d = x_norm.shape[1]
        h = hidden_size
        self.x = x_norm
        self.x_rows = np.ascontiguousarray(x_norm.T)
        # Unit j's d + 1 rows of the (w_in, b_in) block, in u order (b_in row
        # first), read the sums over the pairs (j, k), k = 0..h-1, at the
        # same offsets for every j: row_map[a, column] is k * (pairs of u) +
        # pair(a, b), with k and b the unit and the u index of the column.
        inputs = np.concatenate([np.tile(np.arange(1, d + 1), h), np.zeros(h, dtype=np.intp)])
        units = np.concatenate([np.repeat(np.arange(h), d), np.arange(h)])
        self.row_map = units * ((d + 1) * (d + 2) // 2) + _pair_index(d + 1)[:, inputs]
        self.unit_pairs = _pair_index(h)

    def __call__(
        self, hidden: np.ndarray, w_out: np.ndarray, residuals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(J^T J, J^T r)`` at hidden activations (n, h) and output weights (h,)."""
        x, (n, d), h = self.x, self.x.shape, hidden.shape[1]
        pairs, hd, p = h * (h + 1) // 2, h * d, h * d + 2 * h + 1
        # one block of rows at a time: z = [h, 1, r], the gains, and the
        # products g_j g_k for j <= k followed by g_j z_c
        rows = min(n, _ROW_BLOCK)
        z = np.empty((h + 2, rows))
        z[h] = 1.0
        gain = np.empty((h, rows))
        products = np.empty((pairs + h * (h + 2), rows))
        input_products = np.empty((d * (d + 1) // 2, rows))
        by_pairs = np.zeros((pairs, input_products.shape[0]))
        by_x = np.zeros((products.shape[0], d))
        by_one = np.zeros(products.shape[0])
        tail = np.zeros((h + 1, h + 2))  # [h, 1] by [h, 1, r]
        for start in range(0, n, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, n)
            width = stop - start
            z_block, g, part = z[:, :width], gain[:, :width], products[:, :width]
            inputs = _pair_products(self.x_rows[:, start:stop], input_products[:, :width]).T
            z_block[:h] = hidden[start:stop].T
            z_block[h + 1] = residuals[start:stop]
            np.square(z_block[:h], out=g)
            np.subtract(1.0, g, out=g)
            np.multiply(g, w_out[:, None], out=g)
            _pair_products(g, part[:pairs])
            np.multiply(g[:, None], z_block[None], out=part[pairs:].reshape(h, h + 2, width))
            by_pairs += part[:pairs] @ inputs
            by_x += part @ x[start:stop]
            by_one += part @ z_block[h]
            tail += z_block[: h + 1] @ z_block.T
        del products, part, input_products, inputs  # free the block buffers before jtj
        # columns of both: the pairs of u, then u
        packed = np.concatenate([by_one[:pairs, None], by_x[:pairs], by_pairs], axis=1)
        cross = np.concatenate([by_one[pairs:, None], by_x[pairs:]], axis=1)
        cross = cross.reshape(h, h + 2, d + 1)  # [j, c, a]: sum g_j z_c u_a
        del by_pairs

        jtj, jtr = np.empty((p, p)), np.empty(p)
        for j in range(h):
            unit_rows = np.take(np.take(packed, self.unit_pairs[j], axis=0), self.row_map)
            jtj[j * d : (j + 1) * d, : hd + h] = unit_rows[1:]
            jtj[hd + j, : hd + h] = unit_rows[0]
        jtj[:hd, hd + h :].reshape(h, d, h + 1)[...] = cross[:, : h + 1, 1:].transpose(0, 2, 1)
        jtj[hd : hd + h, hd + h :] = cross[:, : h + 1, 0]
        jtr[:hd] = cross[:, h + 1, 1:].ravel()
        jtr[hd : hd + h] = cross[:, h + 1, 0]
        jtj[hd + h :, : hd + h] = jtj[: hd + h, hd + h :].T
        jtj[hd + h :, hd + h :] = tail[:, : h + 1]
        jtr[hd + h :] = tail[:, h + 1]
        return jtj, jtr


def damped_step(jtj: np.ndarray, jtr: np.ndarray, damping: float) -> np.ndarray:
    """Solve the damped normal equations (J^T J + damping*I) delta = J^T r.

    ``jtj`` and ``jtr`` are the epoch's normal equations, which every
    damping retry of the epoch reuses.  The damping is added to the diagonal
    of ``jtj`` in place for the solve, and the saved diagonal is written back
    afterwards, also when the solve fails: ``jtj`` comes back bit for bit,
    and no second (p, p) matrix is held beside the one the solver copies.
    The residuals behind ``jtr`` follow the target-minus-prediction
    convention, so the returned delta is added to the parameters.
    """
    diagonal = jtj.diagonal().copy()
    jtj.flat[:: jtj.shape[0] + 1] += damping
    try:
        return np.linalg.solve(jtj, jtr)
    finally:
        jtj.flat[:: jtj.shape[0] + 1] = diagonal


# ---------------------------------------------------------------- splitting


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Sample-index partition: contiguous training prefix, random val/test."""

    train_indices: np.ndarray
    validation_indices: np.ndarray
    test_indices: np.ndarray


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
    returned network.  Each epoch builds J^T J and J^T r once at the current
    parameters, from the network's structure rather than the Jacobian
    (``_NormalEquations``), then solves (J^T J + lam*I) delta = J^T r
    (``damped_step``) for each damping lam it tries: lam shrinks after an
    accepted step and grows after a rejected one, which is retried from the
    same normal equations.  Residuals of the candidate steps are computed
    straight from the flat parameter vector, and the accepted step's hidden
    activations feed the next epoch's normal equations; only the returned
    network is built as a ``NarNetwork``.  Training stops
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

    def residuals(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Training residuals and hidden activations at ``theta``."""
        w_in, b_in, w_out, b_out = _unpack(theta, h, d)
        hidden = np.tanh(xn_train @ w_in.T + b_in)
        return yn_train - (hidden @ w_out + b_out), hidden

    def val_mse(theta: np.ndarray) -> float:
        err = yn_val - _forward_normalized(*_unpack(theta, h, d), xn_val)
        return float(np.mean(err**2) * scale_sq)

    theta = flatten_params(net)
    r, hidden = residuals(theta)
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

    normal_equations = _NormalEquations(xn_train, h)
    damping = LM_INITIAL_DAMPING
    stale_epochs = 0
    for _ in range(cfg.max_epochs):
        jtj, jtr = normal_equations(hidden, _unpack(theta, h, d)[2], r)
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
                r_new, hidden_new = residuals(candidate)
                sse_new = float(np.sum(r_new**2))
                if np.isfinite(sse_new) and sse_new < sse:
                    theta, r, hidden, sse = candidate, r_new, hidden_new, sse_new
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


def fit_series(ds: SeriesDataset, cfg: TrainingConfig) -> tuple[TrainingResult, DatasetSplit]:
    """Split, initialize and train a ``HIDDEN_UNITS`` forecaster for one series."""
    split = split_dataset(ds, cfg)
    x_train, y_train = ds.pairs_for_targets(split.train_indices)
    x_val, y_val = ds.pairs_for_targets(split.validation_indices)
    net = initialize_network(input_size=ds.lag, hidden_size=HIDDEN_UNITS, seed=cfg.rng_seed)
    result = train_lm(net, (x_train, y_train), (x_val, y_val), cfg)
    return result, split


# ---------------------------------------------------------------- prediction


def predict_day(net: NarNetwork, previous_day: LoadCurve) -> LoadCurve:
    """Closed-loop forecast of the next day as a 48-slot curve.

    The last ``input_size`` hourly means of ``previous_day`` (each hour the
    mean of its two half-hour slots, as in ``hourly_series_from_history``)
    seed the lag window; each prediction is fed back until 24 hours are
    covered.  Negative hourly outputs are cut off at zero; the hourly values
    sit at their interval midpoints and are linearly interpolated to the 48
    half-hour slot midpoints (ends clamped).

    Raises:
        DatasetTooSmallError: the net's lag window is longer than one day's
            24 hours.
    """
    hours = _hourly_means(previous_day.values)
    if hours.size < net.input_size:
        raise DatasetTooSmallError(f"need {net.input_size} history values, got {hours.size}")

    window = net.normalize(hours[-net.input_size :])
    preds = np.empty(24)
    layers = _layers(net)
    for k in range(24):
        preds[k] = _forward_normalized(*layers, window[None, :])[0]
        window[:-1] = window[1:]
        window[-1] = preds[k]
    hourly = np.maximum(net.denormalize(preds), 0.0)

    slot_centers = (np.arange(SLOT_COUNT) + 0.5) * (SLOT_MINUTES / 60.0)
    return LoadCurve(np.interp(slot_centers, np.arange(24) + 0.5, hourly))


# ---------------------------------------------------------------- diagnostics


@dataclass(frozen=True, eq=False)
class AutocorrelationResult:
    """Normalized residual autocorrelations with their 95% confidence bound."""

    values: np.ndarray  # r(0) .. r(AUTOCORRELATION_LAGS)
    confidence_bound: float
    sample_count: int

    def lags_outside_bound(self) -> tuple[int, ...]:
        outside = np.flatnonzero(np.abs(self.values[1:]) > self.confidence_bound) + 1
        return tuple(int(k) for k in outside)


def error_autocorrelation(residuals: Sequence[float]) -> AutocorrelationResult:
    """Non-centered residual autocorrelation r(k) = sum(e_t e_{t+k}) / sum(e_t^2).

    r(0) is 1 by construction, and k runs to ``AUTOCORRELATION_LAGS`` (at
    most N - 1); the 95% confidence bound for white residuals is
    1.96/sqrt(N).

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
    max_lag = min(AUTOCORRELATION_LAGS, e.size - 1)
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
