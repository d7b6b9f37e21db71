"""Objective-curve construction: regression, capping, reshaping, online updates."""

from __future__ import annotations

import datetime
import re
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_pricing
from loadshift.core import SLOT_HOURS, DailyRecord, LoadCurve, PricingSignal
from loadshift.errors import (
    DegenerateRegressionError,
    FormatError,
    LoadshiftError,
    ParameterError,
    TemporalConsistencyError,
)
from loadshift import objective
from loadshift.objective import (
    L_MIN_KW,
    ObjectiveCurve,
    PeakRegressionModel,
    build_objective,
    fit_peak_regression,
    off_peak_segment_means,
    update_online,
)

PEAK = (35, 44)


def curve_with(off_value, peak_value, pricing=None):
    pricing = pricing or make_pricing(peak_windows=(PEAK,))
    values = np.full(48, float(off_value))
    values[pricing.peak_mask()] = float(peak_value)
    return LoadCurve(values)


def bumpy_prediction(seed=0, base=0.4, scale=1.2):
    rng = np.random.default_rng(seed)
    return LoadCurve(base + scale * rng.uniform(0.1, 1.0, 48))


# ---------------------------------------------------------------- segment means


def test_segment_means_hand_oracle():
    pricing = make_pricing(peak_windows=(PEAK,))
    values = np.arange(48, dtype=float)
    means = off_peak_segment_means(values, pricing)
    off = np.concatenate([np.arange(0, 34), np.arange(44, 48)])  # 0-based indices
    first, second = off[:19], off[19:]
    npt.assert_allclose(means, [values[first].mean(), values[second].mean()])


def test_segment_means_bounds():
    pricing = make_pricing(peak_windows=(PEAK,))
    with pytest.raises(FormatError):
        off_peak_segment_means(np.ones(24), pricing)


# ---------------------------------------------------------------- regression


def segment_curve(first, second, peak_value, pricing):
    """Off-peak slots at ``first`` in the first segment and ``second`` in the
    second (19 slots each around the 35-44 peak), peak slots at ``peak_value``."""
    values = np.full(48, float(second))
    values[np.flatnonzero(~pricing.peak_mask())[:19]] = float(first)
    values[pricing.peak_mask()] = float(peak_value)
    return LoadCurve(values)


def test_fit_recovers_exact_linear_rule():
    pricing = make_pricing(peak_windows=(PEAK,))
    means = [(0.2, 1.0), (0.5, 0.3), (0.8, 1.4), (1.1, 0.6), (1.7, 0.9)]
    days = [segment_curve(a, b, 2.0 * a - 0.5 * b + 1.0, pricing) for a, b in means]
    model = fit_peak_regression(days, pricing)
    npt.assert_allclose(model.coefficients, [2.0, -0.5], atol=1e-6)
    assert model.intercept == pytest.approx(1.0, abs=1e-6)
    assert model.evaluate([0.9, 0.4]) == pytest.approx(2.0 * 0.9 - 0.5 * 0.4 + 1.0, abs=1e-6)


def test_fit_constant_history_zero_slope():
    pricing = make_pricing(peak_windows=(PEAK,))
    days = [curve_with(0.6, 3.1, pricing)] * 5
    model = fit_peak_regression(days, pricing)
    npt.assert_allclose(model.coefficients, 0.0, atol=1e-12)
    assert model.intercept == pytest.approx(3.1)


def test_fit_no_worse_than_mean_model():
    pricing = make_pricing(peak_windows=(PEAK,))
    rng = np.random.default_rng(23)
    days = []
    for _ in range(30):
        values = rng.uniform(0.1, 2.0, 48)
        days.append(LoadCurve(values))
    model = fit_peak_regression(days, pricing)
    peaks = np.array([d.values[pricing.peak_mask()].max() for d in days])
    mean_sse = float(np.sum((peaks - peaks.mean()) ** 2))
    fitted = [model.evaluate(off_peak_segment_means(d, pricing)) for d in days]
    assert float(np.sum((peaks - fitted) ** 2)) <= mean_sse + 1e-12


def test_fit_needs_enough_days():
    pricing = make_pricing(peak_windows=(PEAK,))
    days = [curve_with(0.5, 2.0, pricing)] * 2
    with pytest.raises(DegenerateRegressionError, match="need at least 3 historical days"):
        fit_peak_regression(days, pricing)


def test_fit_requires_peak_windows():
    pricing = make_pricing(peak_windows=())
    with pytest.raises(ParameterError):
        fit_peak_regression([curve_with(0.5, 1.0, make_pricing())] * 4, pricing)


def test_tariff_must_leave_an_off_peak_slot_per_segment():
    pricing = make_pricing(peak_windows=((1, 47),))  # 47 peak slots, 1 off-peak
    message = "the tariff has 1 off-peak slot.*the peak regression needs 2"
    with pytest.raises(ParameterError, match=message) as info:
        fit_peak_regression([curve_with(0.5, 1.0, pricing)] * 4, pricing)
    assert "segment_count" not in str(info.value)


# The per-day regression that the stacked one replaced: one
# off_peak_segment_means call and one peak max per history day.  Kept as the
# reference the stacked fit must match bit for bit, errors included.  Both
# read the segment count from ``objective.SEGMENT_COUNT``, which the
# reference tests set to each of 1..4 so the stacked reduce is checked at
# more shapes than the pipeline's 2.
def reference_fit_peak_regression(history, pricing):
    segment_count = objective.SEGMENT_COUNT
    curves = [item.curve if isinstance(item, DailyRecord) else item for item in history]
    needed = segment_count + 1
    if len(curves) < needed:
        raise DegenerateRegressionError(
            f"need at least {needed} historical days for {segment_count} off-peak segments, "
            f"got {len(curves)}"
        )
    peak_idx = np.flatnonzero(pricing.peak_mask())
    if peak_idx.size == 0:
        raise ParameterError("pricing declares no peak windows to regress on")
    features = np.empty((len(curves), segment_count))
    targets = np.empty(len(curves))
    for row, curve in enumerate(curves):
        features[row] = off_peak_segment_means(curve, pricing)
        targets[row] = curve.values[peak_idx].max()
    feat_mean = features.mean(axis=0)
    target_mean = targets.mean()
    alpha, *_ = np.linalg.lstsq(features - feat_mean, targets - target_mean, rcond=None)
    return PeakRegressionModel(
        coefficients=alpha,
        intercept=target_mean - float(feat_mean @ alpha),
    )


def fit_outcome(fit, *args):
    """The fitted parameters' bytes, or the type and message raised."""
    try:
        model = fit(*args)
    except Exception as exc:  # noqa: BLE001 - compared against the reference
        return type(exc), str(exc)
    return model.coefficients.tobytes(), np.float64(model.intercept).tobytes()


def mixed_history(seed, days, start=datetime.date(2025, 1, 1)):
    """Seeded days with zeros, subnormals and large values; every other day
    is a ``DailyRecord``, the rest bare ``LoadCurve``s."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 3.0, (days, 48))
    kinds = rng.integers(0, 8, (days, 48))
    values[kinds == 0] = 0.0
    values[kinds == 1] = rng.choice([5e-324, 1e-310, 2.2e-308], size=int((kinds == 1).sum()))
    values[kinds == 2] *= 10.0 ** rng.integers(3, 12, size=int((kinds == 2).sum()))
    history = []
    for d in range(days):
        curve = LoadCurve(values[d])
        dated = DailyRecord(day=start + datetime.timedelta(days=d), curve=curve)
        history.append(dated if (d + seed) % 2 else curve)
    return history


PEAK_LAYOUTS = [
    ((35, 44),),
    ((1, 4), (45, 48)),  # at both ends of the day
    ((10, 12), (20, 30), (40, 41)),
    ((17, 40),),  # few off-peak slots left
    ((2, 47),),  # 2 off-peak slots: 3 or 4 segments are too many
]


@pytest.mark.parametrize("segment_count", [1, 2, 3, 4])
@pytest.mark.parametrize("layout", PEAK_LAYOUTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_the_per_day_reference(seed, layout, segment_count, monkeypatch):
    monkeypatch.setattr(objective, "SEGMENT_COUNT", segment_count)
    pricing = make_pricing(peak_windows=layout)
    for days in (120, 9, segment_count + 1):
        history = mixed_history(seed, days)
        expected = fit_outcome(reference_fit_peak_regression, history, pricing)
        assert fit_outcome(fit_peak_regression, history, pricing) == expected


@pytest.mark.parametrize("segment_count", [1, 2, 3, 4])
def test_fit_errors_match_the_per_day_reference(segment_count, monkeypatch):
    monkeypatch.setattr(objective, "SEGMENT_COUNT", segment_count)
    history = mixed_history(4, 10)
    cases = [
        ([], make_pricing()),
        (history[:segment_count], make_pricing()),  # one day too few
        (history, make_pricing(peak_windows=())),
        (history[:segment_count], make_pricing(peak_windows=())),
        (history, make_pricing(peak_windows=((2, 47),))),
        (history, make_pricing(peak_windows=((1, 48),))),  # no off-peak slot
    ]
    for days, pricing in cases:
        expected = fit_outcome(reference_fit_peak_regression, days, pricing)
        assert fit_outcome(fit_peak_regression, days, pricing) == expected


def test_evaluate_polynomial_hand_oracle():
    model = PeakRegressionModel(coefficients=np.array([0.5, -1.5]), intercept=0.3)
    m1, m2 = 0.8, 1.4
    oracle = 0.5 * m1 - 1.5 * m2 + 0.3
    assert model.evaluate([m1, m2]) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(FormatError):
        model.evaluate([1.0])
    with pytest.raises(FormatError, match=r"coefficients need shape \(2,\)"):
        PeakRegressionModel(coefficients=np.ones((2, 1)), intercept=0.0)


# ---------------------------------------------------------------- offline build


def make_model(pricing, slope=2.0, intercept=1.0):
    """Flat off-peak days: both 19-slot segment means equal the off-peak level
    m, so the fit splits the slope over them and caps at ``slope * m + intercept``."""
    days = [curve_with(m, slope * m + intercept, pricing) for m in (0.2, 0.6, 1.0, 1.5)]
    return fit_peak_regression(days, pricing)


def test_uncapped_peak_slots_follow_prediction():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=1)
    rich_day = curve_with(2.0, 1.0, pricing)  # segment means sum 4.0 >= L_MIN_KW
    curve = build_objective(predicted, pricing, model, previous_day=rich_day)
    mask = pricing.peak_mask()
    npt.assert_allclose(curve.values[mask], predicted.values[mask])
    assert all(p == "predicted" for p in curve.provenance)


def test_flat_prices_keep_off_peak_shape():
    pricing = make_pricing(peak_price=0.2, off_price=0.2, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=2)
    curve = build_objective(predicted, pricing, model, previous_day=curve_with(1.5, 1.0, pricing))
    npt.assert_allclose(curve.values, predicted.values, rtol=1e-12)


def test_energy_conserved_when_cap_unbound():
    pricing = make_pricing(peak_price=0.31, off_price=0.08, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=3)
    curve = build_objective(predicted, pricing, model, previous_day=curve_with(1.2, 0.8, pricing))
    assert curve.energy_kwh() == pytest.approx(predicted.energy_kwh(), rel=1e-9)


def test_capped_peak_slots_match_hand_evaluated_rule():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing, slope=2.0, intercept=1.0)
    predicted = bumpy_prediction(seed=4)
    prev = curve_with(0.3, 4.0, pricing)  # segment means sum 0.6 < L_MIN_KW
    curve = build_objective(predicted, pricing, model, previous_day=prev)
    cap = 2.0 * 0.3 + 1.0  # hand evaluation of the fitted rule
    mask = pricing.peak_mask()
    npt.assert_allclose(curve.values[mask], cap, rtol=1e-6)
    assert all(curve.provenance[i] == "capped" for i in np.flatnonzero(mask))
    assert all(curve.provenance[i] == "predicted" for i in np.flatnonzero(~mask))
    # cap dominance: nothing in the window exceeds the permitted max
    assert curve.values[mask].max() <= cap + 1e-12


def test_no_history_disables_cap():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=5)
    curve = build_objective(predicted, pricing, model)
    mask = pricing.peak_mask()
    npt.assert_allclose(curve.values[mask], predicted.values[mask])
    # online too: a realized prefix gives the cap nothing to condition on
    online = update_online(predicted, pricing, model, None, np.zeros(30))
    assert "capped" not in online.provenance
    npt.assert_array_equal(online.values[mask], predicted.values[mask])


def test_off_peak_reshaping_tracks_inverse_price():
    # two off-peak prices: cheaper slots get proportionally more than dearer ones
    prices = np.full(48, 0.10)
    prices[:17] = 0.05
    prices[34:44] = 0.30
    pricing = PricingSignal(prices=prices, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = LoadCurve(np.ones(48))
    curve = build_objective(predicted, pricing, model, previous_day=curve_with(1.5, 1.0, pricing))
    # flat prediction: ratio of objective values equals inverse price ratio
    assert curve.values[0] / curve.values[20] == pytest.approx(0.10 / 0.05, rel=1e-9)


def test_price_monotonicity():
    base_prices = np.full(48, 0.10)
    pricing_low = PricingSignal(prices=base_prices, peak_windows=(PEAK,))
    raised = base_prices.copy()
    raised[5] = 0.25  # slot 6 becomes dearer
    pricing_high = PricingSignal(prices=raised, peak_windows=(PEAK,))
    model = make_model(pricing_low)
    predicted = bumpy_prediction(seed=6)
    previous_day = curve_with(1.5, 1.0, pricing_low)
    low = build_objective(predicted, pricing_low, model, previous_day=previous_day)
    high = build_objective(predicted, pricing_high, model, previous_day=previous_day)
    assert high.values[5] <= low.values[5] + 1e-12


def test_objective_curve_validation():
    with pytest.raises(ParameterError):
        ObjectiveCurve(values=np.full(48, -1.0), provenance=("predicted",) * 48)
    with pytest.raises(FormatError):
        ObjectiveCurve(values=np.ones(48), provenance=("mystery",) * 48)
    curve = ObjectiveCurve(values=np.ones(48), provenance=("predicted",) * 48)
    assert isinstance(curve, LoadCurve)
    assert curve.energy_kwh() == LoadCurve(np.ones(48)).energy_kwh() == 24.0
    # the values are checked by LoadCurve alone: the same error, the same message
    for bad in (np.ones(47), np.full(48, np.nan), np.full(48, np.inf)):
        with pytest.raises(LoadshiftError) as expected:
            LoadCurve(bad)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            ObjectiveCurve(values=bad, provenance=("predicted",) * 48)


def test_mode_follows_the_provenance():
    _, inputs = offline_fixture()
    assert build_objective(*inputs).mode == "offline"
    assert update_online(*inputs, []).mode == "offline"
    realized = inputs[0].values[:1]
    assert update_online(*inputs, realized).mode == "online"
    flags = ("realized",) + ("predicted",) * 47
    assert ObjectiveCurve(values=np.ones(48), provenance=flags).mode == "online"
    assert ObjectiveCurve(values=np.ones(48), provenance=("capped",) * 48).mode == "offline"


# ---------------------------------------------------------------- online updates


def offline_fixture(flat=True, seed=7):
    """Day-ahead inputs (predicted, pricing, model, previous_day) and their curve."""
    if flat:
        pricing = make_pricing(peak_price=0.2, off_price=0.2, peak_windows=(PEAK,))
    else:
        pricing = make_pricing(peak_price=0.3, off_price=0.1, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=seed)
    previous_day = curve_with(1.5, 1.0, pricing)  # segment means sum 3.0 >= L_MIN_KW
    curve = build_objective(predicted, pricing, model, previous_day=previous_day)
    return curve, (predicted, pricing, model, previous_day)


def test_update_at_slot_one_reproduces_offline():
    offline, inputs = offline_fixture(flat=False)
    online = update_online(*inputs, [])
    npt.assert_array_equal(online.values, offline.values)
    assert online.provenance == offline.provenance
    assert online.mode == offline.mode == "offline"


def test_update_zero_correction_under_flat_prices():
    offline, inputs = offline_fixture(flat=True)
    realized = inputs[0].values[:12]  # exactly as predicted
    online = update_online(*inputs, realized)
    npt.assert_allclose(online.values[12:], offline.values[12:], rtol=1e-9)
    npt.assert_array_equal(online.values[:12], realized)
    assert online.provenance[:12] == ("realized",) * 12


def test_update_overshoot_energy_balance():
    offline, inputs = offline_fixture(flat=True)
    predicted = inputs[0]
    realized = 1.1 * predicted.values[:12]  # 10% above prediction
    online = update_online(*inputs, realized)
    overshoot_kwh = 0.1 * predicted.values[:12].sum() * 0.5
    before_future = offline.values[12:].sum() * 0.5
    after_future = online.values[12:].sum() * 0.5
    assert before_future - after_future == pytest.approx(overshoot_kwh, rel=1e-9)


def test_update_rejects_misaligned_realized():
    _, inputs = offline_fixture()
    for bad in (-np.ones(4), np.array([1.0, np.nan]), np.array([np.inf])):
        with pytest.raises(FormatError, match="finite and >= 0"):
            update_online(*inputs, bad)
    for bad in (np.ones(48), np.ones(49), np.ones((2, 3))):  # no slot left, or not 1-D
        with pytest.raises(FormatError, match="one value per elapsed slot"):
            update_online(*inputs, bad)


def test_update_reevaluates_cap_from_realized_prefix():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing, slope=2.0, intercept=1.0)
    predicted = LoadCurve(np.full(48, 1.0))
    prev = curve_with(1.5, 1.0, pricing)  # rich off-peak: cap off at build time
    offline = build_objective(predicted, pricing, model, previous_day=prev)
    assert "capped" not in offline.provenance
    # day realizes almost nothing: conditioning means collapse, cap kicks in
    online = update_online(predicted, pricing, model, prev, np.zeros(30))
    peak_idx = np.flatnonzero(pricing.peak_mask())
    assert all(online.provenance[i] == "capped" for i in peak_idx)
    # cap value recomputed from the overlaid conditioning curve
    cond = prev.values.copy()
    cond[:30] = 0.0
    mean = cond[~pricing.peak_mask()].mean()
    npt.assert_allclose(online.values[peak_idx], 2.0 * mean + 1.0, rtol=1e-9)


# The online refresh this module had before the curve stopped carrying its own
# inputs: it read the prediction, model, l_min and conditioning curve off the
# curve being updated (``current``), and ``_compose`` built the values.  Kept
# as the reference for the values and provenance the one builder must give.


def reference_compose(predicted, pricing, model, l_min, condition_means,
                      first_index, budget_kwh, frozen):
    values = np.zeros(48)
    provenance = ["predicted"] * 48
    if frozen is not None and first_index > 0:
        values[:first_index] = frozen
        provenance[:first_index] = ["realized"] * first_index

    future = np.arange(48) >= first_index
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
            inverse = 1.0 / pricing.prices[off_future]
            values[off_future] = energy_off * (inverse / inverse.sum()) / SLOT_HOURS
    return values, provenance


def reference_update_online(current, realized_so_far, pricing, slot_now):
    if not 1 <= slot_now <= 48:
        raise ParameterError(f"slot_now {slot_now} outside 1..48")
    realized = np.asarray(realized_so_far, dtype=float)
    if realized.shape != (slot_now - 1,):
        raise TemporalConsistencyError("realized data must cover slots 1..slot_now-1")
    if realized.size and (not np.all(np.isfinite(realized)) or np.any(realized < 0)):
        raise FormatError("realized values must be finite and >= 0")
    model, l_min = current.model, L_MIN_KW

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
        condition_means = off_peak_segment_means(cond_values, pricing)

    values, provenance = reference_compose(
        predicted.values, pricing, model, l_min, condition_means,
        first_index=first_index, budget_kwh=budget, frozen=realized,
    )
    return ObjectiveCurve(values=values, provenance=tuple(provenance))


# case: (flat prices, cap binds, prediction zero off-peak)
REFERENCE_CASES = {
    "flat-uncapped": (True, False, False),
    "flat-capped": (True, True, False),
    "peaked-uncapped": (False, False, False),
    "peaked-capped": (False, True, False),
    "zero-off-peak": (False, True, True),
}


def reference_inputs(flat, capped, zero_off_peak, seed):
    """Seeded day-ahead inputs: predicted, pricing, model, previous_day.

    The model is fitted on 8 history days, the last of which is the previous
    day.  The cap binds or not through the conditioning curve: the previous
    day's off-peak level, and the predicted level the realized prefix
    overlays on it, sit on the matching side of ``L_MIN_KW``.
    """
    rng = np.random.default_rng(seed)
    if flat:
        pricing = make_pricing(peak_price=0.2, off_price=0.2, peak_windows=(PEAK,))
    else:
        pricing = make_pricing(peak_price=0.31, off_price=0.08, peak_windows=(PEAK,))
    start = datetime.date(2025, 3, 1)
    days = rng.uniform(0.1, 2.0, (8, 48))
    days[-1, ~pricing.peak_mask()] = 0.3 if capped else 1.5  # means sum 0.6 or 3.0
    history = [
        DailyRecord(start + datetime.timedelta(days=d), LoadCurve(days[d])) for d in range(8)
    ]
    model = fit_peak_regression(history, pricing)
    predicted = bumpy_prediction(seed=seed, base=0.1 if capped else 1.2)
    if zero_off_peak:
        values = np.zeros(48)
        values[pricing.peak_mask()] = 6.0  # far above any cap the model gives
        predicted = LoadCurve(values)
    return predicted, pricing, model, history[-1].curve


@pytest.mark.parametrize("prefix", [0, 1, 12, 30, 47])
@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_update_matches_the_reference_refresh(case, prefix):
    flat, capped, zero_off_peak = REFERENCE_CASES[case]
    inputs = reference_inputs(flat, capped, zero_off_peak, seed=prefix)
    predicted, pricing, model, previous_day = inputs
    noise = np.random.default_rng(100 + prefix).normal(0.0, 0.3, prefix)
    realized = np.maximum(predicted.values[:prefix] + noise, 0.0)
    current = SimpleNamespace(predicted=predicted, model=model, condition_base=previous_day)
    want = reference_update_online(current, realized, pricing, slot_now=prefix + 1)
    got = update_online(*inputs, realized)
    npt.assert_array_equal(got.values, want.values)
    assert got.provenance == want.provenance
    assert got.mode == ("online" if prefix else "offline")
    if prefix == 0:  # the day-ahead curve is the refresh with no prefix
        offline = build_objective(*inputs)
        npt.assert_array_equal(offline.values, want.values)
        assert offline.provenance == want.provenance

    future = np.arange(48) >= prefix
    capped_slots = [i for i in range(48) if got.provenance[i] == "capped"]
    want_capped = np.flatnonzero(pricing.peak_mask() & future) if capped else []
    assert capped_slots == list(want_capped)
    if zero_off_peak and prefix < 44:
        # the capped peak leaves energy off-peak, where the prediction is
        # zero: it is spread by inverse price
        assert np.all(got.values[~pricing.peak_mask() & future] > 0)
