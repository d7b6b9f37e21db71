"""Shape a price-aware objective consumption curve, then refresh it mid-day.

The objective keeps the forecast's total energy but moves it toward cheap
slots; during peak windows it is capped from a regression on historical
peak/off-peak behaviour whenever yesterday's off-peak usage was low: its
``objective.SEGMENT_COUNT`` off-peak segment means sum below
``objective.L_MIN_KW`` (2.0 kW).  The
mid-day refresh rebuilds the curve from the same day-ahead inputs plus the
consumption realized so far: elapsed slots take their realized values, and
the cap is conditioned on yesterday's curve with that prefix overlaid.  The
regression reads the whole history; the builders read only yesterday's
curve, ``previous_day``.
"""

import numpy as np

from loadshift import (
    LoadCurve,
    PricingSignal,
    build_objective,
    fit_peak_regression,
    update_online,
)

rng = np.random.default_rng(3)

# evening peak at slots 35..44, three times the off-peak price
prices = np.full(48, 0.10)
prices[34:44] = 0.30
pricing = PricingSignal(prices=prices, peak_windows=((35, 44),))

# a week of history: a morning bump plus an evening spike
slots = np.arange(48)
base = 0.4 + 0.3 * np.exp(-0.5 * ((slots - 15) / 4.0) ** 2)
history = []
for _ in range(7):
    day = base + 1.1 * np.exp(-0.5 * ((slots - 38) / 2.5) ** 2)
    history.append(LoadCurve(values=np.clip(day + rng.normal(0, 0.05, 48), 0, None)))

model = fit_peak_regression(history, pricing)
print(f"peak regression: intercept {model.intercept:.3f}, coeffs {np.round(model.coefficients, 3)}")

predicted = LoadCurve(values=history[-1].values)  # stand-in for a forecast
previous_day = history[-1]
objective = build_objective(predicted, pricing, model, previous_day=previous_day)

print(f"predicted energy {predicted.energy_kwh():.2f} kWh, objective {objective.energy_kwh():.2f} kWh")
print(f"provenance flags in use: {sorted(set(objective.provenance))}")
peak = slice(34, 44)
print(f"peak-window mean: predicted {predicted.values[peak].mean():.2f} kW -> objective {objective.values[peak].mean():.2f} kW")
off = np.ones(48, bool)
off[peak] = False
print(f"off-peak mean:   predicted {predicted.values[off].mean():.2f} kW -> objective {objective.values[off].mean():.2f} kW")

# mid-day refresh: the morning ran 20% hotter than forecast; slot 25 is next
realized = predicted.values[:24] * 1.2
updated = update_online(predicted, pricing, model, previous_day, realized)
print(f"\nafter online update at slot 25 (morning +20%):")
print(f"  frozen prefix matches telemetry: {np.array_equal(updated.values[:24], realized)}")
print(f"  remaining budget shrank: {objective.values[24:].sum():.2f} -> {updated.values[24:].sum():.2f} kW summed")
print(f"  provenance now: realized x{updated.provenance.count('realized')}, "
      f"predicted x{updated.provenance.count('predicted')}, "
      f"capped x{updated.provenance.count('capped')}")
