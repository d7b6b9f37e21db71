"""The benchmark's seeded workloads: which fleet each one simulates.

Every workload is a fleet of synthetic households from ``loadshift.synth``
run with default ``RunParams``.  A household's cost depends mostly on which
shiftable appliances it owns, so the fleet's appliance sets are not drawn
at random: they are the ``households`` sets whose frequencies best match
independent draws from the mix (largest-remainder quotas), the same for
every seed.  The seed drives everything else: appliance power, history,
PV weather and online noise.  The same workload and seed always give the
same fleet.

Run as a script, it saves one workload's bundle and prints its path::

    PYTHONPATH=src python3 perfbench/bench_workloads.py online-pv 1 .bench_work/bundle
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass

from loadshift import bundle, synth
from loadshift.simulate import FleetConfig, derive_seed

HISTORY_DAYS = 364


@dataclass(frozen=True)
class Workload:
    name: str
    households: int
    days: int
    mode: str
    pv_fraction: float
    dense: bool  # every archetype always present, every shiftable spec count 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline-pv", households=8, days=4, mode="offline", pv_fraction=1.0, dense=False),
        Workload("online-pv", households=8, days=2, mode="online", pv_fraction=1.0, dense=False),
        Workload("online-dense", households=6, days=1, mode="online", pv_fraction=0.0, dense=True),
    )
}


def appliance_sets(mix: dict[str, float], count: int) -> list[tuple[str, ...]]:
    """``count`` appliance sets in the proportions independent draws would give."""
    names = list(mix)
    weighted = []
    for picks in itertools.product((True, False), repeat=len(names)):
        p = math.prod(mix[n] if pick else 1.0 - mix[n] for n, pick in zip(names, picks))
        if p > 0:
            weighted.append((p * count, tuple(n for n, pick in zip(names, picks) if pick)))
    quotas = [int(q) for q, _ in weighted]
    by_remainder = sorted(range(len(weighted)), key=lambda i: quotas[i] - weighted[i][0])
    for i in by_remainder[: count - sum(quotas)]:
        quotas[i] += 1
    return [names for (_, names), n in zip(weighted, quotas) for _ in range(n)]


def make_fleet(workload: Workload, seed: int) -> FleetConfig:
    """The workload's fleet for one seed."""
    mix = {name: 1.0 for name in synth.ARCHETYPES} if workload.dense else synth.DEFAULT_MIX
    households = []
    for i, names in enumerate(appliance_sets(mix, workload.households)):
        recipe = synth.SyntheticRecipe(
            household_count=1,
            appliance_mix={name: 1.0 for name in names},
            history_days=HISTORY_DAYS,
            simulated_days=workload.days,
            pv_fraction=workload.pv_fraction,
            mode=workload.mode,
        )
        household = synth.generate_fleet(recipe, seed=derive_seed(seed, workload.name, i))
        household = household.households[0]
        appliances = household.appliances
        if workload.dense:
            appliances = tuple(
                dataclasses.replace(a, count=2) if a.kind == "shiftable" else a
                for a in appliances
            )
        households.append(
            dataclasses.replace(household, id=f"h{i + 1:03d}", appliances=appliances)
        )
    return FleetConfig(
        households=tuple(households),
        pricing=recipe.pricing(),
        days=recipe.simulation_days(),
        mode=workload.mode,
        recipe={"benchmark_workload": workload.name, "seed": int(seed)},
    )


if __name__ == "__main__":
    name, seed, out = sys.argv[1:]
    print(bundle.save_bundle(make_fleet(WORKLOADS[name], int(seed)), out))
