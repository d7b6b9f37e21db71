"""Objective-curve construction: regression, capping, reshaping, online updates."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_pricing
from loadshift.core import LoadCurve, PricingSignal
from loadshift.errors import (
    DegenerateRegressionError,
    FormatError,
    ParameterError,
    TemporalConsistencyError,
)
from loadshift.objective import (
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
    means = off_peak_segment_means(values, pricing, 2)
    off = np.concatenate([np.arange(0, 34), np.arange(44, 48)])  # 0-based indices
    first, second = off[:19], off[19:]
    npt.assert_allclose(means, [values[first].mean(), values[second].mean()])


def test_segment_means_bounds():
    pricing = make_pricing(peak_windows=(PEAK,))
    with pytest.raises(ParameterError):
        off_peak_segment_means(np.ones(48), pricing, 0)
    with pytest.raises(ParameterError):
        off_peak_segment_means(np.ones(48), pricing, 39)  # only 38 off-peak slots
    with pytest.raises(FormatError):
        off_peak_segment_means(np.ones(24), pricing, 2)


# ---------------------------------------------------------------- regression


def test_fit_recovers_exact_linear_rule():
    pricing = make_pricing(peak_windows=(PEAK,))
    days = [curve_with(m, 2.0 * m + 1.0, pricing) for m in (0.2, 0.5, 0.8, 1.1, 1.7)]
    model = fit_peak_regression(days, pricing, segment_count=1, degree=1)
    assert model.coefficients[0, 0] == pytest.approx(2.0, abs=1e-6)
    assert model.intercept == pytest.approx(1.0, abs=1e-6)
    assert model.evaluate([0.9]) == pytest.approx(2.0 * 0.9 + 1.0, abs=1e-6)


def test_fit_constant_history_zero_slope():
    pricing = make_pricing(peak_windows=(PEAK,))
    days = [curve_with(0.6, 3.1, pricing)] * 5
    model = fit_peak_regression(days, pricing, segment_count=2, degree=1)
    npt.assert_allclose(model.coefficients, 0.0, atol=1e-12)
    assert model.intercept == pytest.approx(3.1)


def test_fit_no_worse_than_mean_model():
    pricing = make_pricing(peak_windows=(PEAK,))
    rng = np.random.default_rng(23)
    days = []
    for _ in range(30):
        values = rng.uniform(0.1, 2.0, 48)
        days.append(LoadCurve(values))
    model = fit_peak_regression(days, pricing, segment_count=2, degree=2)
    peaks = np.array([d.values[pricing.peak_mask()].max() for d in days])
    mean_sse = float(np.sum((peaks - peaks.mean()) ** 2))
    assert model.residual_sse <= mean_sse + 1e-12


def test_fit_needs_enough_days():
    pricing = make_pricing(peak_windows=(PEAK,))
    days = [curve_with(0.5, 2.0, pricing)] * 2
    with pytest.raises(DegenerateRegressionError, match="reduce"):
        fit_peak_regression(days, pricing, segment_count=2, degree=1)


def test_fit_requires_peak_windows():
    pricing = make_pricing(peak_windows=())
    with pytest.raises(ParameterError):
        fit_peak_regression([curve_with(0.5, 1.0, make_pricing())] * 4, pricing)


def test_evaluate_polynomial_hand_oracle():
    model = PeakRegressionModel(
        segment_count=2,
        degree=2,
        coefficients=np.array([[0.5, -0.1], [1.5, 0.25]]),
        intercept=0.3,
    )
    m1, m2 = 0.8, 1.4
    oracle = 0.5 * m1 - 0.1 * m1**2 + 1.5 * m2 + 0.25 * m2**2 + 0.3
    assert model.evaluate([m1, m2]) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(FormatError):
        model.evaluate([1.0])


# ---------------------------------------------------------------- offline build


def make_model(pricing, slope=2.0, intercept=1.0):
    days = [curve_with(m, slope * m + intercept, pricing) for m in (0.2, 0.6, 1.0, 1.5)]
    return fit_peak_regression(days, pricing, segment_count=1, degree=1)


def test_uncapped_peak_slots_follow_prediction():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=1)
    rich_day = curve_with(2.0, 1.0, pricing)  # off-peak mean 2.0 >= l_min
    curve = build_objective(predicted, pricing, model, l_min=1.0, history=[rich_day])
    mask = pricing.peak_mask()
    npt.assert_allclose(curve.values[mask], predicted.values[mask])
    assert all(p == "predicted" for p in curve.provenance)


def test_flat_prices_keep_off_peak_shape():
    pricing = make_pricing(peak_price=0.2, off_price=0.2, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=2)
    curve = build_objective(predicted, pricing, model, l_min=0.001,
                            history=[curve_with(1.0, 1.0, pricing)])
    npt.assert_allclose(curve.values, predicted.values, rtol=1e-12)


def test_energy_conserved_when_cap_unbound():
    pricing = make_pricing(peak_price=0.31, off_price=0.08, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=3)
    curve = build_objective(predicted, pricing, model, l_min=0.001,
                            history=[curve_with(1.2, 0.8, pricing)])
    assert curve.energy_kwh() == pytest.approx(predicted.energy_kwh(), rel=1e-9)


def test_capped_peak_slots_match_hand_evaluated_rule():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing, slope=2.0, intercept=1.0)
    predicted = bumpy_prediction(seed=4)
    prev = curve_with(0.3, 4.0, pricing)  # off-peak mean 0.3 < l_min
    curve = build_objective(predicted, pricing, model, l_min=1.0, history=[prev])
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
    curve = build_objective(predicted, pricing, model, l_min=50.0, history=[])
    mask = pricing.peak_mask()
    npt.assert_allclose(curve.values[mask], predicted.values[mask])


def test_off_peak_reshaping_tracks_inverse_price():
    # two off-peak prices: cheaper slots get proportionally more than dearer ones
    prices = np.full(48, 0.10)
    prices[:17] = 0.05
    prices[34:44] = 0.30
    pricing = PricingSignal(prices=prices, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = LoadCurve(np.ones(48))
    curve = build_objective(predicted, pricing, model, l_min=0.001,
                            history=[curve_with(1.0, 1.0, pricing)])
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
    history = [curve_with(1.5, 1.0, pricing_low)]
    low = build_objective(predicted, pricing_low, model, l_min=0.001, history=history)
    high = build_objective(predicted, pricing_high, model, l_min=0.001, history=history)
    assert high.values[5] <= low.values[5] + 1e-12


def test_l_min_must_be_positive():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing)
    with pytest.raises(ParameterError):
        build_objective(bumpy_prediction(), pricing, model, l_min=0.0)
    with pytest.raises(ParameterError):
        build_objective(bumpy_prediction(), pricing, model, l_min=-1.0)


def test_objective_curve_validation():
    with pytest.raises(ParameterError):
        ObjectiveCurve(
            values=np.full(48, -1.0),
            mode="offline",
            provenance=("predicted",) * 48,
            predicted=LoadCurve(np.ones(48)),
        )
    with pytest.raises(FormatError):
        ObjectiveCurve(
            values=np.ones(48),
            mode="offline",
            provenance=("mystery",) * 48,
            predicted=LoadCurve(np.ones(48)),
        )
    with pytest.raises(ParameterError):
        ObjectiveCurve(
            values=np.ones(48),
            mode="sometime",
            provenance=("predicted",) * 48,
            predicted=LoadCurve(np.ones(48)),
        )


# ---------------------------------------------------------------- online updates


def offline_fixture(flat=True, with_history=True, seed=7):
    if flat:
        pricing = make_pricing(peak_price=0.2, off_price=0.2, peak_windows=(PEAK,))
    else:
        pricing = make_pricing(peak_price=0.3, off_price=0.1, peak_windows=(PEAK,))
    model = make_model(pricing)
    predicted = bumpy_prediction(seed=seed)
    history = [curve_with(1.5, 1.0, pricing)] if with_history else []
    curve = build_objective(predicted, pricing, model, l_min=0.001, history=history)
    return curve, pricing, predicted


def test_update_at_slot_one_reproduces_offline():
    offline, pricing, _ = offline_fixture(flat=False, with_history=False)
    online = update_online(offline, [], pricing, slot_now=1)
    npt.assert_array_equal(online.values, offline.values)
    assert online.provenance == offline.provenance
    assert online.mode == "online"


def test_update_zero_correction_under_flat_prices():
    offline, pricing, predicted = offline_fixture(flat=True)
    realized = predicted.values[:12]  # exactly as predicted
    online = update_online(offline, realized, pricing, slot_now=13)
    npt.assert_allclose(online.values[12:], offline.values[12:], rtol=1e-9)
    npt.assert_array_equal(online.values[:12], realized)
    assert online.provenance[:12] == ("realized",) * 12


def test_update_overshoot_energy_balance():
    offline, pricing, predicted = offline_fixture(flat=True)
    realized = 1.1 * predicted.values[:12]  # 10% above prediction
    online = update_online(offline, realized, pricing, slot_now=13)
    overshoot_kwh = 0.1 * predicted.values[:12].sum() * 0.5
    before_future = offline.values[12:].sum() * 0.5
    after_future = online.values[12:].sum() * 0.5
    assert before_future - after_future == pytest.approx(overshoot_kwh, rel=1e-9)


def test_update_rejects_misaligned_realized():
    offline, pricing, _ = offline_fixture()
    with pytest.raises(TemporalConsistencyError):
        update_online(offline, np.ones(12), pricing, slot_now=12)  # 11 expected
    with pytest.raises(TemporalConsistencyError):
        update_online(offline, np.ones(10), pricing, slot_now=12)
    with pytest.raises(ParameterError):
        update_online(offline, np.ones(48), pricing, slot_now=49)
    with pytest.raises(FormatError):
        update_online(offline, -np.ones(4), pricing, slot_now=5)


def test_update_reevaluates_cap_from_realized_prefix():
    pricing = make_pricing(peak_windows=(PEAK,))
    model = make_model(pricing, slope=2.0, intercept=1.0)
    predicted = LoadCurve(np.full(48, 1.0))
    prev = curve_with(1.5, 1.0, pricing)  # rich off-peak: cap off at build time
    offline = build_objective(predicted, pricing, model, l_min=1.0, history=[prev])
    assert "capped" not in offline.provenance
    # day realizes almost nothing: conditioning means collapse, cap kicks in
    online = update_online(offline, np.zeros(30), pricing, slot_now=31)
    peak_idx = np.flatnonzero(pricing.peak_mask())
    assert all(online.provenance[i] == "capped" for i in peak_idx)
    # cap value recomputed from the overlaid conditioning curve
    cond = prev.values.copy()
    cond[:30] = 0.0
    mean = cond[~pricing.peak_mask()].mean()
    npt.assert_allclose(online.values[peak_idx], 2.0 * mean + 1.0, rtol=1e-9)
