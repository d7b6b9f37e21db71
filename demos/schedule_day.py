"""Schedule a household's shiftable appliances against an objective curve.

Runs the solver twice: grid-only, then with rooftop PV and a battery in
line, and prints where each appliance landed and what the day costs.
"""

import numpy as np

from loadshift import (
    ApplianceSpec,
    ObjectiveCurve,
    PricingSignal,
    PvSystem,
    bill,
    expand_instances,
    pv_arbitrate,
    solve,
    split_consumption,
    total_curve,
    validate_assignment,
)

prices = np.full(48, 0.10)
prices[34:44] = 0.30
pricing = PricingSignal(prices=prices, peak_windows=((35, 44),))


def shiftable(id, kw, duration, window, preferred, max_shift):
    return ApplianceSpec(
        id=id, kind="shiftable", power_profile=np.full(duration, kw),
        duration_slots=duration, window_start=window[0], window_end=window[1],
        preferred_start=preferred, max_shift=max_shift,
    )


specs = [
    shiftable("dishwasher", 1.0, 3, (20, 48), preferred=37, max_shift=14),
    shiftable("laundry", 0.8, 4, (18, 46), preferred=36, max_shift=12),
    shiftable("aircon", 1.5, 6, (26, 48), preferred=35, max_shift=10),
    ApplianceSpec(id="fridge", kind="fixed", power_profile=np.full(48, 0.12),
                  duration_slots=48, window_start=1, window_end=48,
                  preferred_start=1, max_shift=0),
]
instances = expand_instances(specs)

# flat objective: push everything away from the stacked evening spike
objective = ObjectiveCurve(
    values=np.full(48, 0.45),
    provenance=("predicted",) * 48,
)

before = total_curve(instances, {i.instance_id: i.preferred_start for i in instances})
print(f"before: peak {before.values.max():.2f} kW, bill {bill(before, pricing):.2f}")

result = solve(instances, objective)
assert validate_assignment(instances, result.assignment) == ()
after = total_curve(instances, result.assignment.starts)
print(f"grid-only solve ({result.mode}, {result.evaluations} evaluations):")
for app_id, start in sorted(result.assignment.starts.items()):
    print(f"  {app_id:<11} slot {start}")
print(f"  peak {after.values.max():.2f} kW, bill {bill(after, pricing):.2f}, "
      f"squared deviation {result.cost:.4f}")

# same problem with 1 kW PV and a 4 kWh battery arbitrating the peak
gen = np.zeros(48)
gen[16:38] = 1.0 * np.sin(np.linspace(0, np.pi, 22)) ** 2
pv = PvSystem(battery_capacity=4.0, battery_soc=2.0, charge_rate=1.5, charge_efficiency=0.9)
result_pv = solve(instances, objective, pricing=pricing, pv=pv, generation=gen)
split = split_consumption(instances, result_pv.assignment.starts,
                          result_pv.assignment.pv_flags)
pv_slots = np.flatnonzero(result_pv.assignment.pv_flags) + 1
print(f"\nwith PV/battery: {len(pv_slots)} slots served off-grid {pv_slots.tolist()}")
print(f"  grid bill {bill(split.grid, pricing):.2f} "
      f"(appliance energy unchanged: {split.total.energy_kwh():.2f} kWh)")
# the battery trajectory behind the flags: arbitrate the scheduled shiftable demand
movable = [i for i in instances if i.kind == "shiftable"]
demand = total_curve(movable, result_pv.assignment.starts)
soc = pv_arbitrate(pv, gen, demand, pricing, max(i.duration_slots for i in movable)).soc
print(f"  battery SoC start {soc[0]:.2f} kWh, min {soc.min():.2f}, end {soc[-1]:.2f}")
