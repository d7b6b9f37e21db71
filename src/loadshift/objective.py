"""Objective consumption curves: the per-slot target the scheduler tracks.

The curve follows the predicted load, reshaped off-peak inversely to prices
(cheap slots attract energy) and, when recent off-peak usage falls below the
required minimum ``l_min``, capped during peak windows at the maximum
permitted level given by a peak/off-peak regression.  Offline mode builds the
day-ahead curve; online mode freezes elapsed slots to realized values and
rebuilds the rest from the remaining energy budget every half hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SLOT_COUNT, SLOT_HOURS, DailyRecord, LoadCurve, PricingSignal
from .errors import (
    DegenerateRegressionError,
    FormatError,
    ParameterError,
    TemporalConsistencyError,
)

PROVENANCE_FLAGS = ("predicted", "capped", "realized")


# ---------------------------------------------------------------- regression


def off_peak_segment_means(
    curve: LoadCurve | np.ndarray, pricing: PricingSignal, segment_count: int
) -> np.ndarray:
    """Mean consumption of each off-peak segment.

    Off-peak slots (in slot order) are partitioned into ``segment_count``
    contiguous segments of near-equal size; the mean power of each is
    returned.
    """
    values = curve.values if isinstance(curve, LoadCurve) else np.asarray(curve, dtype=float)
    if values.shape != (SLOT_COUNT,):
        raise FormatError(f"curve needs {SLOT_COUNT} values, got shape {values.shape}")
    off_idx = np.flatnonzero(~pricing.peak_mask())
    if segment_count < 1:
        raise ParameterError("segment_count must be >= 1")
    if segment_count > off_idx.size:
        raise ParameterError(
            f"segment_count {segment_count} exceeds the {off_idx.size} off-peak slots"
        )
    segments = np.array_split(off_idx, segment_count)
    return np.array([float(values[seg].mean()) for seg in segments])


@dataclass(frozen=True, eq=False)
class PeakRegressionModel:
    """Polynomial regression of daily peak maxima on off-peak segment means.

    The fitted rule is ``peak_max = sum_{i,j} coefficients[i, j] * mean_i^j
    + intercept`` with powers j = 1..degree for each of the
    ``segment_count`` off-peak segments.
    """

    segment_count: int
    degree: int
    coefficients: np.ndarray  # (segment_count, degree)
    intercept: float

    def __post_init__(self):
        if self.segment_count < 1 or self.degree < 1:
            raise ParameterError("segment_count and degree must be >= 1")
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != (self.segment_count, self.degree):
            raise FormatError(
                f"coefficients need shape ({self.segment_count}, {self.degree}), "
                f"got {coef.shape}"
            )
        if not np.all(np.isfinite(coef)) or not np.isfinite(self.intercept):
            raise FormatError("regression parameters must be finite")
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", float(self.intercept))

    def evaluate(self, segment_means: Sequence[float]) -> float:
        """Predicted peak-window maximum for the given segment means."""
        means = np.asarray(segment_means, dtype=float)
        if means.shape != (self.segment_count,):
            raise FormatError(f"need {self.segment_count} segment means, got {means.shape}")
        powers = np.arange(1, self.degree + 1)
        return float(np.sum(self.coefficients * means[:, None] ** powers) + self.intercept)


def _history_curves(history: Sequence[LoadCurve | DailyRecord]) -> list[LoadCurve]:
    curves = []
    for item in history:
        curves.append(item.curve if isinstance(item, DailyRecord) else item)
    return curves


def fit_peak_regression(
    history: Sequence[LoadCurve | DailyRecord],
    pricing: PricingSignal,
    segment_count: int = 2,
    degree: int = 1,
) -> PeakRegressionModel:
    """Fit the peak/off-peak relationship on historical days.

    Each day contributes one observation: target = maximum consumption over
    the peak-window slots, features = powers 1..degree of each off-peak
    segment mean.  The fit is centered minimum-norm least squares, so
    feature directions with no variance (e.g. a constant history) get zero
    coefficients and the intercept absorbs the mean peak.

    Raises:
        DegenerateRegressionError: fewer than segment_count*degree + 1 days.
        ParameterError: no declared peak windows.
    """
    curves = _history_curves(history)
    needed = segment_count * degree + 1
    if len(curves) < needed:
        raise DegenerateRegressionError(
            f"need at least {needed} historical days for {segment_count} segment(s) "
            f"at degree {degree}, got {len(curves)}; reduce segments or degree"
        )
    peak_idx = np.flatnonzero(pricing.peak_mask())
    if peak_idx.size == 0:
        raise ParameterError("pricing declares no peak windows to regress on")

    powers = np.arange(1, degree + 1)
    features = np.empty((len(curves), segment_count * degree))
    targets = np.empty(len(curves))
    for row, curve in enumerate(curves):
        means = off_peak_segment_means(curve, pricing, segment_count)
        features[row] = (means[:, None] ** powers).ravel()
        targets[row] = curve.values[peak_idx].max()

    feat_mean = features.mean(axis=0)
    target_mean = targets.mean()
    alpha, *_ = np.linalg.lstsq(features - feat_mean, targets - target_mean, rcond=None)
    return PeakRegressionModel(
        segment_count=segment_count,
        degree=degree,
        coefficients=alpha.reshape(segment_count, degree),
        intercept=target_mean - float(feat_mean @ alpha),
    )


# ---------------------------------------------------------------- objective


@dataclass(frozen=True, eq=False)
class ObjectiveCurve:
    """The target consumption curve plus everything needed to update it.

    ``provenance`` records, per slot, whether the value came from the
    (reshaped) prediction, the peak cap, or (in online mode) the realized
    consumption of an elapsed slot.  The prediction, regression model,
    ``l_min`` and conditioning curve ride along so online updates need only
    the realized data and the latest prices.
    """

    values: np.ndarray
    mode: str
    provenance: tuple[str, ...]
    predicted: LoadCurve
    model: PeakRegressionModel | None = None
    l_min: float | None = None
    condition_base: LoadCurve | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (SLOT_COUNT,):
            raise FormatError(f"objective needs {SLOT_COUNT} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ParameterError("objective values must be finite and >= 0")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.mode not in ("offline", "online"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        prov = tuple(self.provenance)
        if len(prov) != SLOT_COUNT or any(p not in PROVENANCE_FLAGS for p in prov):
            raise FormatError("provenance needs 48 flags from "
                              f"{PROVENANCE_FLAGS}")
        object.__setattr__(self, "provenance", prov)

    def energy_kwh(self) -> float:
        return float(self.values.sum() * SLOT_HOURS)


def _compose(
    predicted: np.ndarray,
    pricing: PricingSignal,
    model: PeakRegressionModel,
    l_min: float,
    condition_means: np.ndarray | None,
    first_index: int,
    budget_kwh: float,
    frozen: np.ndarray | None,
) -> tuple[np.ndarray, list[str]]:
    """Build objective values for slots >= first_index with a fixed prefix.

    ``budget_kwh`` is the energy to place on the rebuilt slots.  Peak slots
    take the cap (when the condition binds) or the prediction; off-peak slots
    share the remaining budget proportionally to prediction/price.
    """
    values = np.zeros(SLOT_COUNT)
    provenance = ["predicted"] * SLOT_COUNT
    if frozen is not None and first_index > 0:
        values[:first_index] = frozen
        provenance[:first_index] = ["realized"] * first_index

    future = np.arange(SLOT_COUNT) >= first_index
    peak_mask = pricing.peak_mask()
    cap_binds = condition_means is not None and float(condition_means.sum()) < l_min

    peak_future = peak_mask & future
    if cap_binds:
        cap_value = max(model.evaluate(condition_means), 0.0)
        values[peak_future] = cap_value
        for idx in np.flatnonzero(peak_future):
            provenance[idx] = "capped"
    else:
        values[peak_future] = predicted[peak_future]

    off_future = ~peak_mask & future
    energy_off = max(budget_kwh - values[peak_future].sum() * SLOT_HOURS, 0.0)
    if np.any(off_future):
        base = predicted[off_future] / pricing.prices[off_future]
        base_energy = base.sum() * SLOT_HOURS
        if base_energy > 0:
            values[off_future] = base * (energy_off / base_energy)
        elif energy_off > 0:
            # prediction is zero off-peak: fall back to pure inverse-price weights
            inverse = 1.0 / pricing.prices[off_future]
            values[off_future] = energy_off * (inverse / inverse.sum()) / SLOT_HOURS
    return values, provenance


def build_objective(
    predicted: LoadCurve,
    pricing: PricingSignal,
    model: PeakRegressionModel,
    l_min: float,
    history: Sequence[LoadCurve | DailyRecord] = (),
) -> ObjectiveCurve:
    """Day-ahead objective curve from a forecast, prices and the regression.

    Peak-window slots keep the predicted values unless the previous day's
    off-peak segment means sum below ``l_min``; then they are set to the
    regression's maximum-permitted level.  Off-peak slots are the prediction
    reshaped inversely to price and renormalized so the whole curve carries
    the predicted total energy.

    Args:
        predicted: the day-ahead forecast.
        pricing: tariff with declared peak windows.
        model: fitted peak regression (evaluated at the conditioning means).
        l_min: minimum required off-peak usage (kW, sum of segment means).
        history: recent daily curves; the last one conditions the cap. With
            no history the cap branch is disabled.

    Raises:
        ParameterError: ``l_min <= 0``.
    """
    if not np.isfinite(l_min) or l_min <= 0:
        raise ParameterError("l_min must be > 0")
    condition_base = None
    condition_means = None
    curves = _history_curves(history)
    if curves:
        condition_base = curves[-1]
        condition_means = off_peak_segment_means(
            condition_base, pricing, model.segment_count
        )
    values, provenance = _compose(
        predicted.values,
        pricing,
        model,
        l_min,
        condition_means,
        first_index=0,
        budget_kwh=predicted.energy_kwh(),
        frozen=None,
    )
    return ObjectiveCurve(
        values=values,
        mode="offline",
        provenance=tuple(provenance),
        predicted=predicted,
        model=model,
        l_min=float(l_min),
        condition_base=condition_base,
    )


def update_online(
    current: ObjectiveCurve,
    realized_so_far: Sequence[float],
    pricing: PricingSignal,
    slot_now: int,
) -> ObjectiveCurve:
    """Half-hourly objective refresh: freeze the past, rebuild the future.

    Slots before ``slot_now`` take their realized values; slots from
    ``slot_now`` on are rebuilt like :func:`build_objective` but with the
    remaining energy budget (predicted total minus realized energy) and the
    latest prices.  The cap condition is re-evaluated on the conditioning
    curve with the realized prefix overlaid.  The regression model and
    ``l_min`` are the ones stored on ``current``.

    Args:
        current: the curve being updated (offline or a previous online one).
        realized_so_far: consumption of slots ``1 .. slot_now - 1``.
        pricing: latest tariff.
        slot_now: the slot about to begin, in 1..48.

    Raises:
        TemporalConsistencyError: realized length != slot_now - 1.
        ParameterError: ``slot_now`` outside 1..48, or ``current`` carries no
            model or no positive ``l_min``.
    """
    if not 1 <= slot_now <= SLOT_COUNT:
        raise ParameterError(f"slot_now {slot_now} outside 1..{SLOT_COUNT}")
    realized = np.asarray(realized_so_far, dtype=float)
    if realized.shape != (slot_now - 1,):
        raise TemporalConsistencyError(
            f"realized data must cover slots 1..{slot_now - 1} exactly, "
            f"got {realized.size} values"
        )
    if realized.size and (not np.all(np.isfinite(realized)) or np.any(realized < 0)):
        raise FormatError("realized values must be finite and >= 0")

    model = current.model
    if model is None:
        raise ParameterError("no regression model available for the update")
    l_min = current.l_min
    if l_min is None or not np.isfinite(l_min) or l_min <= 0:
        raise ParameterError("l_min must be > 0")

    first_index = slot_now - 1
    predicted = current.predicted
    budget = max(predicted.energy_kwh() - realized.sum() * SLOT_HOURS, 0.0)

    condition_base = current.condition_base
    if condition_base is None and first_index > 0:
        condition_base = predicted
    condition_means = None
    if condition_base is not None:
        cond_values = condition_base.values.copy()
        cond_values[:first_index] = realized
        condition_means = off_peak_segment_means(cond_values, pricing, model.segment_count)

    values, provenance = _compose(
        predicted.values,
        pricing,
        model,
        l_min,
        condition_means,
        first_index=first_index,
        budget_kwh=budget,
        frozen=realized,
    )
    return ObjectiveCurve(
        values=values,
        mode="online",
        provenance=tuple(provenance),
        predicted=predicted,
        model=model,
        l_min=l_min,
        condition_base=condition_base,
    )
