"""End-to-end fleet simulation: generate, schedule, score.

Same pipeline the CLI drives, called as a library. Ten synthetic households,
thirty days of habits each, one simulated day.
"""

from loadshift import (
    RunParams,
    SyntheticRecipe,
    compute_metrics,
    generate_fleet,
    run_fleet,
)

recipe = SyntheticRecipe(household_count=10, history_days=30, simulated_days=1,
                         daily_energy_kwh=14.0, pv_fraction=0.6)
fleet = generate_fleet(recipe, seed=7)
print(f"{len(fleet.households)} households, tariff peak windows {fleet.pricing.peak_windows}")

params = RunParams(max_epochs=25, history_window_days=30)
results = run_fleet(fleet, params, seed=0)

report = compute_metrics(results, fleet.pricing)
agg = report.fleet
print(f"\nfleet ({agg.day_count} household-days):")
print(f"  peak-window energy {agg.peak_kwh_before:.1f} -> {agg.peak_kwh_after:.1f} kWh "
      f"({agg.peak_reduction_pct:.1f}% reduction)")
print(f"  load factor {agg.load_factor_before:.3f} -> {agg.load_factor_after:.3f}")
print(f"  bills {agg.bill_before:.2f} -> {agg.bill_after:.2f} "
      f"({agg.bill_reduction_pct:.1f}% lower)")
if report.excluded:
    print(f"  excluded: {report.excluded}")

print("\nper household:")
for row in report.rows:
    print(f"  {row.household_id}  peak {row.peak_kwh_before:5.2f} -> {row.peak_kwh_after:5.2f} kWh   "
          f"LF {row.load_factor_before:.3f} -> {row.load_factor_after:.3f}   "
          f"bill {row.bill_before:.2f} -> {row.bill_after:.2f}")
