"""Objective consumption curves: the per-slot target the scheduler tracks.

The curve follows the predicted load, reshaped off-peak inversely to prices
(cheap slots attract energy) and, when recent off-peak usage falls below the
required minimum ``L_MIN_KW``, capped during peak windows at the maximum
permitted level given by a peak/off-peak regression.  Offline mode builds the
day-ahead curve.  Online mode rebuilds it every half hour from the same
day-ahead inputs plus the realized prefix: elapsed slots take their realized
values, the rest share the remaining energy budget, and the cap is
conditioned on the previous day with that prefix overlaid.  A builder
takes that day's curve, ``previous_day``, and no other history.  One builder
serves both modes; the day-ahead curve is the case of an empty prefix, and a
curve's mode follows from its provenance: ``"online"`` once a slot is
realized.

The peak regression is linear in the means of ``SEGMENT_COUNT`` off-peak
segments and takes one observation per history day it is given, in one pass
over the stacked days; ``simulate`` gives it the window before the simulated
day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SLOT_COUNT, SLOT_HOURS, DailyRecord, LoadCurve, PricingSignal, as_curve
from .errors import DegenerateRegressionError, FormatError, ParameterError

PROVENANCE_FLAGS = ("predicted", "capped", "realized")

# contiguous off-peak segments whose means the peak regression is linear in
SEGMENT_COUNT = 2

# peak windows are capped when the conditioning day's off-peak segment means
# sum below this (kW)
L_MIN_KW = 2.0


# ---------------------------------------------------------------- regression


def _off_peak_segments(pricing: PricingSignal) -> list[np.ndarray]:
    """Off-peak slot indices split into ``SEGMENT_COUNT`` contiguous segments."""
    off_idx = np.flatnonzero(~pricing.peak_mask())
    if off_idx.size < SEGMENT_COUNT:
        raise ParameterError(
            f"the tariff has {off_idx.size} off-peak slot(s); "
            f"the peak regression needs {SEGMENT_COUNT}"
        )
    return np.array_split(off_idx, SEGMENT_COUNT)


def off_peak_segment_means(curve: LoadCurve | np.ndarray, pricing: PricingSignal) -> np.ndarray:
    """Mean consumption of each off-peak segment.

    Off-peak slots (in slot order) are partitioned into ``SEGMENT_COUNT``
    contiguous segments of near-equal size; the mean power of each is
    returned.  ``curve`` is a ``LoadCurve``, or values it checks.
    """
    values = as_curve(curve).values
    return np.array([float(values[seg].mean()) for seg in _off_peak_segments(pricing)])


@dataclass(frozen=True, eq=False)
class PeakRegressionModel:
    """Linear regression of daily peak maxima on off-peak segment means.

    The fitted rule is ``peak_max = sum_i coefficients[i] * mean_i
    + intercept`` over the ``SEGMENT_COUNT`` off-peak segments.
    """

    coefficients: np.ndarray  # (SEGMENT_COUNT,)
    intercept: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != (SEGMENT_COUNT,):
            raise FormatError(f"coefficients need shape ({SEGMENT_COUNT},), got {coef.shape}")
        if not np.all(np.isfinite(coef)) or not np.isfinite(self.intercept):
            raise FormatError("regression parameters must be finite")
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", float(self.intercept))

    def evaluate(self, segment_means: Sequence[float]) -> float:
        """Predicted peak-window maximum for the given segment means."""
        means = np.asarray(segment_means, dtype=float)
        if means.shape != self.coefficients.shape:
            raise FormatError(f"need {self.coefficients.size} segment means, got {means.shape}")
        return float(np.sum(self.coefficients * means) + self.intercept)


def fit_peak_regression(
    history: Sequence[LoadCurve | DailyRecord], pricing: PricingSignal
) -> PeakRegressionModel:
    """Fit the peak/off-peak relationship on historical days.

    Each day contributes one observation: target = maximum consumption over
    the peak-window slots, features = the off-peak segment means.  The days
    are stacked into one (days, 48) array; the targets are one row-wise max,
    and each segment mean is the same per-day 1-D mean that
    :func:`off_peak_segment_means` takes, so a day's features do not depend
    on the rest of the window.  The fit is centered minimum-norm least
    squares, so feature directions with no variance (e.g. a constant
    history) get zero coefficients and the intercept absorbs the mean peak.

    Raises:
        ParameterError: no declared peak windows, or fewer off-peak slots
            than ``SEGMENT_COUNT``.
        DegenerateRegressionError: fewer than ``SEGMENT_COUNT + 1`` days.
    """
    curves = [item.curve if isinstance(item, DailyRecord) else item for item in history]
    if len(curves) <= SEGMENT_COUNT:
        raise DegenerateRegressionError(
            f"need at least {SEGMENT_COUNT + 1} historical days for "
            f"{SEGMENT_COUNT} off-peak segments, got {len(curves)}"
        )
    peak_idx = np.flatnonzero(pricing.peak_mask())
    if peak_idx.size == 0:
        raise ParameterError("pricing declares no peak windows to regress on")
    segments = _off_peak_segments(pricing)

    values = np.stack([curve.values for curve in curves])
    features = np.empty((len(curves), SEGMENT_COUNT))
    for col, seg in enumerate(segments):
        # the sum and division of a per-day 1-D ``.mean()``: ``np.take``
        # copies the segment row-major, so a row-wise reduce sums each day
        # alone, pairwise, as a 1-D sum does.  ``values[:, seg]`` would come
        # out column-major and be summed down its columns, in another order
        # that changes the fitted coefficients' last bits.
        features[:, col] = np.add.reduce(np.take(values, seg, axis=1), axis=1) / seg.size
    targets = values[:, peak_idx].max(axis=1)

    feat_mean = features.mean(axis=0)
    target_mean = targets.mean()
    alpha, *_ = np.linalg.lstsq(features - feat_mean, targets - target_mean, rcond=None)
    return PeakRegressionModel(
        coefficients=alpha,
        intercept=target_mean - float(feat_mean @ alpha),
    )


# ---------------------------------------------------------------- objective


@dataclass(frozen=True, eq=False)
class ObjectiveCurve(LoadCurve):
    """The target consumption curve the scheduler tracks: a ``LoadCurve``
    with a provenance.

    ``provenance`` records, per slot, whether the value came from the
    (reshaped) prediction, the peak cap, or (in online mode) the realized
    consumption of an elapsed slot.  The curve holds no inputs of its own
    refresh: :func:`update_online` takes the day-ahead inputs again.
    """

    provenance: tuple[str, ...]

    def __post_init__(self):
        super().__post_init__()
        prov = tuple(self.provenance)
        if len(prov) != SLOT_COUNT or any(p not in PROVENANCE_FLAGS for p in prov):
            raise FormatError(f"provenance needs {SLOT_COUNT} flags from {PROVENANCE_FLAGS}")
        object.__setattr__(self, "provenance", prov)

    @property
    def mode(self) -> str:
        """``"online"`` once a slot holds realized consumption, else ``"offline"``."""
        return "online" if "realized" in self.provenance else "offline"


def _build(
    predicted: LoadCurve,
    pricing: PricingSignal,
    model: PeakRegressionModel,
    previous_day: LoadCurve | None,
    realized: Sequence[float],
) -> ObjectiveCurve:
    """The one objective builder: a realized prefix, then the rebuilt slots.

    The first ``len(realized)`` slots take the realized values.  The rest
    share the remaining energy budget (predicted total minus realized
    energy): peak slots take the cap (when the condition binds) or the
    prediction; off-peak slots split what is left proportionally to
    prediction/price.  The cap condition reads ``previous_day`` with the
    realized prefix overlaid; with no previous day it never binds.  The
    day-ahead curve is the case of an empty prefix.
    """
    realized = np.asarray(realized, dtype=float)
    if realized.ndim != 1 or realized.size >= SLOT_COUNT:
        raise FormatError(
            f"realized data must be one value per elapsed slot, fewer than "
            f"{SLOT_COUNT}, got shape {realized.shape}"
        )
    if not np.all(np.isfinite(realized)) or np.any(realized < 0):
        raise FormatError("realized values must be finite and >= 0")

    first_index = realized.size
    budget_kwh = max(predicted.energy_kwh() - realized.sum() * SLOT_HOURS, 0.0)
    values = np.zeros(SLOT_COUNT)
    provenance = ["predicted"] * SLOT_COUNT
    values[:first_index] = realized
    provenance[:first_index] = ["realized"] * first_index

    future = np.arange(SLOT_COUNT) >= first_index
    peak_mask = pricing.peak_mask()
    peak_future = peak_mask & future
    cap = None
    if previous_day is not None:
        condition = previous_day.values.copy()
        condition[:first_index] = realized
        condition_means = off_peak_segment_means(condition, pricing)
        if float(condition_means.sum()) < L_MIN_KW:
            cap = max(model.evaluate(condition_means), 0.0)
    if cap is not None:
        values[peak_future] = cap
        for idx in np.flatnonzero(peak_future):
            provenance[idx] = "capped"
    else:
        values[peak_future] = predicted.values[peak_future]

    off_future = ~peak_mask & future
    energy_off = max(budget_kwh - values[peak_future].sum() * SLOT_HOURS, 0.0)
    if np.any(off_future):
        base = predicted.values[off_future] / pricing.prices[off_future]
        base_energy = base.sum() * SLOT_HOURS
        if base_energy > 0:
            values[off_future] = base * (energy_off / base_energy)
        elif energy_off > 0:
            # prediction is zero off-peak: fall back to pure inverse-price weights
            inverse = 1.0 / pricing.prices[off_future]
            values[off_future] = energy_off * (inverse / inverse.sum()) / SLOT_HOURS
    return ObjectiveCurve(values=values, provenance=tuple(provenance))


def build_objective(
    predicted: LoadCurve,
    pricing: PricingSignal,
    model: PeakRegressionModel,
    previous_day: LoadCurve | None = None,
) -> ObjectiveCurve:
    """Day-ahead objective curve from a forecast, prices and the regression.

    Peak-window slots keep the predicted values unless the previous day's
    off-peak segment means sum below ``L_MIN_KW``; then they are set to the
    regression's maximum-permitted level.  Off-peak slots are the prediction
    reshaped inversely to price and renormalized so the whole curve carries
    the predicted total energy.

    Args:
        predicted: the day-ahead forecast.
        pricing: tariff with declared peak windows.
        model: fitted peak regression (evaluated at the conditioning means).
        previous_day: the day before's consumption, which conditions the
            cap.  With no previous day the cap branch is disabled.
    """
    return _build(predicted, pricing, model, previous_day, ())


def update_online(
    predicted: LoadCurve,
    pricing: PricingSignal,
    model: PeakRegressionModel,
    previous_day: LoadCurve | None,
    realized_so_far: Sequence[float],
) -> ObjectiveCurve:
    """Half-hourly objective refresh: freeze the past, rebuild the future.

    Slots ``1 .. len(realized_so_far)`` take their realized values; the later
    slots are rebuilt from the inputs of :func:`build_objective` with the
    remaining energy budget (predicted total minus realized energy), and the
    cap is conditioned on ``previous_day`` with the realized prefix overlaid.
    With an empty prefix the curve is the day-ahead one, mode ``"offline"``
    included.

    Args:
        predicted, pricing, model, previous_day: as for :func:`build_objective`.
        realized_so_far: consumption of the elapsed slots, 0 to 47 values;
            the slot about to begin is ``len(realized_so_far) + 1``.

    Raises:
        FormatError: realized data not a 1-D array of fewer than 48 finite
            values >= 0.
    """
    return _build(predicted, pricing, model, previous_day, realized_so_far)
