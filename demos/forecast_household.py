"""Reproduce one ``run`` forecast on a synthetic household and score it.

Generates a year of habitual consumption and fits the autoregressive load
network exactly as ``run_day`` does for the first simulated day.  That
network serves the day's whole calendar week: it is fitted once, on the
history window before the week's Monday (the anchor), with the anchor's split
seed (history window, epoch budget and seed from ``RunParams`` and
``derive_seed``), and each day of the week is predicted from the curve of
the day before it.  The demo prints the train, validation and held-out test
error, checks that the prediction is the one ``run_day`` schedules against,
and checks the residual autocorrelation diagnostics.
"""

import datetime

import numpy as np

from loadshift import (
    RunParams,
    SyntheticRecipe,
    TrainingConfig,
    derive_seed,
    error_autocorrelation,
    fit_series,
    generate_fleet,
    hourly_series_from_history,
    predict_day,
    run_day,
)
from loadshift.forecast import forward


def main():
    recipe = SyntheticRecipe(household_count=1, history_days=364, simulated_days=1)
    fleet = generate_fleet(recipe, seed=42)
    household = fleet.households[0]
    day = fleet.days[0]
    params = RunParams()
    anchor = day - datetime.timedelta(days=day.weekday())  # the history starts long before
    history = [r for r in household.history if r.day < anchor][-params.history_window_days:]
    print(
        f"household {household.id}: forecasting {day} with the network of the week "
        f"from {anchor}, fitted on {len(history)} days of history"
    )

    series = hourly_series_from_history(history)
    print(f"hourly series: {series.sample_count} samples, lag {series.lag}")

    cfg = TrainingConfig(
        max_epochs=params.max_epochs, rng_seed=derive_seed(0, household.id, anchor, "load")
    )
    result, split = fit_series(series, cfg)
    sizes = (split.train_indices.size, split.validation_indices.size, split.test_indices.size)
    print(f"split sizes (train/val/test): {sizes}")

    # residuals on the held-out test pairs
    x_test, y_test = series.pairs_for_targets(split.test_indices)
    residuals = y_test - np.array([forward(result.network, row) for row in x_test])
    print(
        f"stopped after {len(result.train_mse) - 1} epochs ({result.stop_reason}); "
        f"train MSE {result.train_mse[-1]:.5f}, "
        f"best validation MSE {result.validation_mse[result.best_epoch]:.5f}, "
        f"held-out test MSE {np.mean(residuals ** 2):.5f}"
    )

    # the day before ``day``: its curve is the prediction's input
    (last_day,) = [r for r in household.history if r.day == day - datetime.timedelta(days=1)]
    prediction = predict_day(result.network, last_day.curve)
    print(f"predicted next-day energy: {prediction.energy_kwh():.2f} kWh")
    peak_slot = int(np.argmax(prediction.values)) + 1
    print(f"predicted peak: {prediction.values.max():.2f} kW at slot {peak_slot}")
    scheduled = run_day(household, day, fleet.pricing)
    assert np.array_equal(prediction.values, scheduled.predicted.values)
    print("run_day schedules against this same prediction")

    diag = error_autocorrelation(residuals)
    outside = diag.lags_outside_bound()
    print(
        f"residual autocorrelation: {len(outside)}/20 lags outside "
        f"the ±{diag.confidence_bound:.4f} band {list(outside) or ''}"
    )


if __name__ == "__main__":
    main()
