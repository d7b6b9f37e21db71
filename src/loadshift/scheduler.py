"""Start-slot assignment and PV/grid arbitration against an objective curve.

The scheduler picks one start per shiftable appliance run to minimize squared
deviation of the grid-facing curve from the objective plus weighted discomfort
(shift and delay penalties).  Small problems are solved exactly by
enumeration; larger ones by seeded local search.  When a PV/battery system is
present, per-slot sourcing flags are arbitrated against the candidate demand
and the two optimizations alternate to a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    SLOT_COUNT,
    SLOT_HOURS,
    ApplianceInstance,
    ApplianceSpec,
    LoadCurve,
    PricingSignal,
    PvSystem,
    preferred_starts,
    split_consumption,
    total_curve,
)
from .errors import (
    FeasibilityError,
    FormatError,
    InfeasibleApplianceError,
    InfeasibleProblemError,
    ParameterError,
)
from .objective import ObjectiveCurve


# ---------------------------------------------------------------- weights


@dataclass(frozen=True)
class DiscomfortWeights:
    """Shift/delay penalty weights, shared by every appliance.

    ``shift_weight`` prices each slot of absolute displacement from the
    preferred start; ``delay_weight`` prices each slot of forward delay only.
    The simulation pipeline always schedules with the all-zero default.
    """

    shift_weight: float = 0.0
    delay_weight: float = 0.0

    def __post_init__(self):
        if self.shift_weight < 0 or self.delay_weight < 0:
            raise ParameterError("discomfort weights must be >= 0")


# ---------------------------------------------------------------- assignment


@dataclass(frozen=True, eq=False)
class ScheduleAssignment:
    """A complete schedule: start slot per instance plus PV sourcing flags."""

    starts: Mapping[str, int]
    pv_flags: np.ndarray | None = None
    battery_soc: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "starts", dict(self.starts))
        flags = self.pv_flags
        if flags is None:
            flags = np.zeros(SLOT_COUNT, dtype=bool)
        else:
            flags = np.asarray(flags, dtype=bool)
            if flags.shape != (SLOT_COUNT,):
                raise FormatError(f"pv_flags needs {SLOT_COUNT} entries")
        flags = flags.copy()
        flags.setflags(write=False)
        object.__setattr__(self, "pv_flags", flags)
        if self.battery_soc is not None:
            soc = np.asarray(self.battery_soc, dtype=float).copy()
            if soc.shape != (SLOT_COUNT,):
                raise FormatError(f"battery_soc needs {SLOT_COUNT} entries")
            soc.setflags(write=False)
            object.__setattr__(self, "battery_soc", soc)

    def to_json_dict(self, instances: Sequence[ApplianceInstance]) -> dict:
        """Export schema: per-appliance placement plus the sourcing vector.

        ``source_slots`` lists the slots each run occupies.
        """
        appliances = []
        for inst in sorted(instances, key=lambda i: i.instance_id):
            start = int(self.starts[inst.instance_id])
            appliances.append(
                {
                    "id": inst.instance_id,
                    "preferred_start": inst.preferred_start,
                    "scheduled_start": start,
                    "shift": start - inst.preferred_start,
                    "source_slots": list(range(start, start + inst.duration_slots)),
                }
            )
        return {
            "appliances": appliances,
            "pv_flags": [int(b) for b in self.pv_flags],
        }


def validate_assignment(
    instances: Sequence[ApplianceInstance], assignment: ScheduleAssignment
) -> tuple[str, ...]:
    """All hard-constraint violations of an assignment (empty means feasible).

    Checks: exactly one start per instance; integral starts (half-hour
    granularity); runs inside the permitted window; shift caps respected;
    fixed instances at their preferred start.
    """
    violations = []
    ids = {inst.instance_id for inst in instances}
    extra = set(assignment.starts) - ids
    missing = ids - set(assignment.starts)
    for name in sorted(extra):
        violations.append(f"start given for unknown appliance {name}")
    for name in sorted(missing):
        violations.append(f"no start for appliance {name}")

    for inst in sorted(instances, key=lambda i: i.instance_id):
        if inst.instance_id not in assignment.starts:
            continue
        raw = assignment.starts[inst.instance_id]
        if int(raw) != raw:
            violations.append(f"{inst.instance_id}: start {raw!r} is not a whole slot")
            continue
        start = int(raw)
        if start < inst.window_start or start > inst.window_end - inst.duration_slots + 1:
            violations.append(
                f"{inst.instance_id}: start {start} outside window "
                f"[{inst.window_start},{inst.window_end}] for duration {inst.duration_slots}"
            )
        if abs(start - inst.preferred_start) > inst.max_shift:
            violations.append(
                f"{inst.instance_id}: shift {start - inst.preferred_start} exceeds "
                f"cap {inst.max_shift}"
            )
        if inst.kind == "fixed" and start != inst.preferred_start:
            violations.append(
                f"{inst.instance_id}: fixed appliance moved from slot "
                f"{inst.preferred_start} to {start}"
            )
    return tuple(violations)


# ---------------------------------------------------------------- feasibility


def feasible_starts(
    app: ApplianceSpec | ApplianceInstance, not_before: int = 1
) -> tuple[int, ...]:
    """Start slots satisfying the window, duration and shift-cap constraints.

    ``not_before`` narrows the candidates for intra-day re-solves.  Starts are
    whole slots, so the half-hour granularity floor holds by construction.

    Raises:
        InfeasibleApplianceError: no start satisfies every constraint; the
            message names the binding constraint.
    """
    name = getattr(app, "instance_id", None) or app.id
    window_lo = max(app.window_start, int(not_before))
    window_hi = app.window_end - app.duration_slots + 1
    if window_lo > window_hi:
        raise InfeasibleApplianceError(
            f"{name}: permitted window [{app.window_start},{app.window_end}] "
            f"holds no start >= {not_before} for duration {app.duration_slots}"
        )
    lo = max(window_lo, app.preferred_start - app.max_shift)
    hi = min(window_hi, app.preferred_start + app.max_shift)
    if lo > hi:
        raise InfeasibleApplianceError(
            f"{name}: preference shift cap {app.max_shift} around slot "
            f"{app.preferred_start} excludes every start in the permitted window"
        )
    return tuple(range(lo, hi + 1))


# ---------------------------------------------------------------- pv


@dataclass(frozen=True, eq=False)
class PvArbitration:
    """Per-slot sourcing decision and the induced battery trajectory.

    ``soc[h]`` is the stored energy at the start of slot h+1; ``supplied_kwh``
    is the energy the battery actually delivered in each slot.
    """

    flags: np.ndarray
    soc: np.ndarray
    supplied_kwh: np.ndarray


def pv_arbitrate(
    pv: PvSystem,
    shiftable_demand: LoadCurve | np.ndarray,
    pricing: PricingSignal,
    max_app_duration: int,
) -> PvArbitration:
    """Decide, slot by slot, whether the battery covers the shiftable demand.

    The battery discharges in a slot when (a) it holds more energy than that
    slot's shiftable demand, and (b) timing permits: the slot lies inside a
    peak window, no peak window remains today, or the battery can recharge
    before the next peak starts with at least ``max_app_duration`` slots to
    spare (recharge time = (capacity - soc)/charge_rate).  The state of
    charge then evolves as
    ``soc' = clamp(soc + eff*gen*0.5h - supplied, 0, capacity)``.

    Infeasible PV never raises; it simply yields all-zero flags.
    """
    demand = (
        shiftable_demand.values
        if isinstance(shiftable_demand, LoadCurve)
        else np.asarray(shiftable_demand, dtype=float)
    )
    if demand.shape != (SLOT_COUNT,):
        raise FormatError(f"demand needs {SLOT_COUNT} values, got shape {demand.shape}")
    if max_app_duration < 0:
        raise ParameterError("max_app_duration must be >= 0")

    peak_mask = pricing.peak_mask()
    starts = sorted(start for start, _ in pricing.peak_windows)

    flags = np.zeros(SLOT_COUNT, dtype=bool)
    soc_trace = np.empty(SLOT_COUNT)
    supplied = np.zeros(SLOT_COUNT)
    soc = pv.battery_soc
    for idx in range(SLOT_COUNT):
        slot = idx + 1
        soc_trace[idx] = soc
        next_start = next((s for s in starts if s > slot), None)
        if peak_mask[idx] or next_start is None:
            time_ok = True
        else:
            recharge_slots = (pv.battery_capacity - soc) / pv.charge_rate / SLOT_HOURS
            time_ok = (next_start - slot) - recharge_slots > max_app_duration
        demand_kwh = demand[idx] * SLOT_HOURS
        if time_ok and soc > demand_kwh:
            flags[idx] = True
            supplied[idx] = demand_kwh
        charged = pv.charge_efficiency * pv.generation[idx] * SLOT_HOURS
        soc = min(max(soc + charged - supplied[idx], 0.0), pv.battery_capacity)
    return PvArbitration(flags=flags, soc=soc_trace, supplied_kwh=supplied)


# ---------------------------------------------------------------- cost


@dataclass(frozen=True)
class CostBreakdown:
    """Deviation-from-objective and discomfort parts of the schedule cost."""

    deviation: float
    discomfort: float
    total: float
    blend: float


def default_blend(objective: ObjectiveCurve) -> float:
    """Default weight joining discomfort to squared deviation."""
    return 0.1 * float(objective.values.mean()) ** 2


def evaluate_cost(
    assignment: ScheduleAssignment,
    objective: ObjectiveCurve,
    weights: DiscomfortWeights,
    instances: Sequence[ApplianceInstance],
    blend: float | None = None,
    baseline: np.ndarray | None = None,
    active_from: int = 1,
) -> CostBreakdown:
    """Score a feasible assignment against the objective curve.

    Deviation is the squared gap between the grid-facing curve (PV-supplied
    energy excluded, plus any committed ``baseline`` load) and the objective,
    summed over slots >= ``active_from``.  Discomfort sums each run's
    ``w*|shift| + k*max(0, delay)``.  Total = deviation + blend * discomfort,
    with ``blend`` defaulting to 0.1 * (mean objective power)^2.

    Raises:
        FeasibilityError: the assignment violates a hard constraint.
    """
    violations = validate_assignment(instances, assignment)
    if violations:
        raise FeasibilityError("; ".join(violations))
    parts = split_consumption(instances, assignment.starts, assignment.pv_flags)
    grid = parts.grid.values
    if baseline is not None:
        base = np.asarray(baseline, dtype=float)
        if base.shape != (SLOT_COUNT,):
            raise FormatError(f"baseline needs {SLOT_COUNT} values")
        grid = grid + base
    if not 1 <= active_from <= SLOT_COUNT:
        raise ParameterError(f"active_from {active_from} outside 1..{SLOT_COUNT}")
    gap = (grid - objective.values)[active_from - 1 :]
    deviation = float(np.sum(gap * gap))

    w, k = weights.shift_weight, weights.delay_weight
    discomfort = 0.0
    for inst in instances:
        shift = int(assignment.starts[inst.instance_id]) - inst.preferred_start
        discomfort += w * abs(shift) + k * max(0, shift)

    blend_value = default_blend(objective) if blend is None else float(blend)
    if blend_value < 0:
        raise ParameterError("blend must be >= 0")
    return CostBreakdown(
        deviation=deviation,
        discomfort=discomfort,
        total=deviation + blend_value * discomfort,
        blend=blend_value,
    )


# ---------------------------------------------------------------- solver


# Fixed search policy: the largest start product enumerated exhaustively;
# local search's random restarts and sweeps per descent; PV fixed-point rounds.
_EXACT_LIMIT = 1_000_000
_RESTARTS = 3
_MAX_PASSES = 60
_PV_ITERATION_CAP = 5


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver outcome: the assignment, its canonical cost, and diagnostics."""

    assignment: ScheduleAssignment
    cost: CostBreakdown
    trace: tuple[float, ...]
    mode: str
    evaluations: int


class _CandidateSpace:
    """Precomputed per-instance start sets, contributions and penalties.

    Deviation math runs on slot columns >= active_from with PV-flagged slots
    masked out of the shiftable contributions, exactly mirroring
    evaluate_cost's grid-facing curve.
    """

    def __init__(
        self,
        shiftable: list[ApplianceInstance],
        residual: np.ndarray,
        flags: np.ndarray,
        weights: DiscomfortWeights,
        blend: float,
        active_from: int,
        starts_by_id: dict[str, tuple[int, ...]],
    ):
        self.ids = [inst.instance_id for inst in shiftable]
        self.blend = blend
        cols = slice(active_from - 1, SLOT_COUNT)
        keep = (~flags).astype(float)
        w, k = weights.shift_weight, weights.delay_weight
        self.residual = residual[cols]
        self.starts: list[np.ndarray] = []
        self.contribs: list[np.ndarray] = []
        self.penalties: list[np.ndarray] = []
        self.shift_abs: list[np.ndarray] = []
        for inst in shiftable:
            starts = np.asarray(starts_by_id[inst.instance_id], dtype=int)
            contrib = np.zeros((starts.size, SLOT_COUNT))
            for row, start in enumerate(starts):
                contrib[row, start - 1 : start - 1 + inst.duration_slots] = inst.power_profile
            contrib *= keep  # PV-covered slots leave the grid curve
            shift = starts - inst.preferred_start
            self.starts.append(starts)
            self.contribs.append(contrib[:, cols])
            self.penalties.append(w * np.abs(shift) + k * np.maximum(0, shift))
            self.shift_abs.append(np.abs(shift))

    def starts_mapping(self, choice: tuple[int, ...]) -> dict[str, int]:
        return {self.ids[i]: int(self.starts[i][row]) for i, row in enumerate(choice)}


# Candidates scored per block.  At 48 slot columns one block of curves is
# 4096 * 48 * 8 B = 1.5 MB, so working memory stays bounded however large
# the start product is.
_BLOCK_ROWS = 4096


def _enumerate_exact(
    space: _CandidateSpace, rows: list[np.ndarray] | None = None
) -> tuple[tuple[int, ...], tuple[float, int, tuple[int, ...]], int]:
    """Exhaustive search over a start product; returns (choice, key, evaluations).

    ``rows`` restricts instance i to the ascending row indices ``rows[i]``
    (default: all of its rows); ``choice`` holds full row indices and
    ``key`` is the winner's (total cost, total |shift|, start tuple by id).

    Candidates are scored in fixed-size blocks of at most ``_BLOCK_ROWS``
    rows, taken in row-major order of the product: the leading instances'
    rows are gathered for a run of prefixes and the trailing instances are
    broadcast.  Each candidate gets the arithmetic of a one-by-one loop,
    whatever the block or the row subset, so exact float ties stay exact:
    ``residual + c_0 + ... + c_{k-1}`` added element-wise in instance order,
    one row-wise einsum on a C-contiguous block for the squared deviation,
    then ``blend * (0 + p_0 + ... + p_{k-1})``.  Ties on the total go to the
    least total |shift|, then to the least start tuple.
    """
    k = len(space.starts)
    if rows is None:
        rows = [np.arange(s.size) for s in space.starts]
    sizes = [r.size for r in rows]
    # instances split..k-1 are broadcast inside a block (inner rows per
    # prefix); the prefixes over instances 0..split-1 are walked in groups
    split, inner = max(k - 1, 0), sizes[-1] if k else 1
    while split > 0 and inner * sizes[split - 1] <= _BLOCK_ROWS:
        split -= 1
        inner *= sizes[split]
    group = max(1, _BLOCK_ROWS // inner)
    prefixes = math.prod(sizes[:split])
    tail = [(space.contribs[i][rows[i]], space.penalties[i][rows[i]]) for i in range(split, k)]

    best_key: tuple[float, int, tuple[int, ...]] | None = None
    best_choice: tuple[int, ...] = ()
    evaluations = 0
    for lo in range(0, prefixes, group):
        hi = min(lo + group, prefixes)
        picks = np.unravel_index(np.arange(lo, hi), sizes[:split]) if split else ()
        curve = space.residual[np.newaxis]
        penalty = np.zeros(hi - lo)
        for i, pick in enumerate(picks):
            curve = curve + space.contribs[i][rows[i][pick]]
            penalty = penalty + space.penalties[i][rows[i][pick]]
        for contrib, pen in tail:
            curve = (curve[:, np.newaxis] + contrib).reshape(-1, curve.shape[-1])
            penalty = (penalty[:, np.newaxis] + pen).reshape(-1)
        totals = np.einsum("ij,ij->i", curve, curve) + space.blend * penalty
        evaluations += totals.size

        least = totals.min()
        if best_key is not None and least > best_key[0]:
            continue
        # starts rise with the row index, so among the least shifts the
        # first flat index is the least start tuple
        flat = np.flatnonzero(totals == least) + lo * inner
        # (np.unravel_index rejects the empty shape of a problem with no instances)
        tied = [rows[i][pos] for i, pos in enumerate(np.unravel_index(flat, sizes))] if k else []
        shift = sum((space.shift_abs[i][row] for i, row in enumerate(tied)), np.zeros_like(flat))
        pick = int(np.argmin(shift))
        choice = tuple(int(row[pick]) for row in tied)
        key = (
            float(least),
            int(shift[pick]),
            tuple(int(space.starts[i][c]) for i, c in enumerate(choice)),
        )
        if best_key is None or key < best_key:
            best_key, best_choice = key, choice
    return best_choice, best_key, evaluations


def _local_search(space: _CandidateSpace) -> tuple[tuple[int, ...], tuple[float, ...], int]:
    """Multi-restart hill descent over single-appliance moves.

    One move of instance i is one ``_enumerate_exact`` call over all of its
    rows with every other instance held at its current row; the instance
    moves when the winner differs from its current row.  Keys are distinct,
    so that is the candidate with the strictly lowest key.  Each tried row
    other than the current one counts as an evaluation.
    """
    rng = np.random.default_rng(0)
    k = len(space.starts)
    every_row = [np.arange(s.size) for s in space.starts]
    evaluations = 0

    def polish(choice: tuple[int, ...]) -> tuple[tuple[int, ...], tuple, list[float]]:
        nonlocal evaluations
        _, key, _ = _enumerate_exact(space, [np.array([row]) for row in choice])
        trace = [key[0]]
        for _ in range(_MAX_PASSES):
            improved = False
            for i in range(k):
                rows = [np.array([row]) for row in choice]
                rows[i] = every_row[i]
                winner, key, evals = _enumerate_exact(space, rows)
                evaluations += evals - 1
                if winner != choice:
                    choice = winner
                    trace.append(key[0])
                    improved = True
            if not improved:
                break
        return choice, key, trace

    # descent starts at the least-shift rows, then from random rows
    best_choice, best_key, best_trace = polish(tuple(int(np.argmin(a)) for a in space.shift_abs))
    for _ in range(_RESTARTS):
        start = tuple(int(rng.integers(space.starts[i].size)) for i in range(k))
        choice, key, trace = polish(start)
        if key < best_key:
            best_choice, best_key, best_trace = choice, key, trace
    return best_choice, tuple(best_trace), evaluations


def solve(
    instances: Sequence[ApplianceInstance],
    objective: ObjectiveCurve,
    weights: DiscomfortWeights | None = None,
    pricing: PricingSignal | None = None,
    pv: PvSystem | None = None,
    blend: float | None = None,
    baseline: np.ndarray | None = None,
    not_before: int = 1,
) -> SolveResult:
    """Schedule every instance to track the objective curve.

    Fixed instances are pinned at their preferred starts; shiftable ones are
    optimized over their feasible start sets, exhaustively when the product
    of set sizes stays within ``_EXACT_LIMIT``, otherwise by local search
    whose moves score one instance's rows at a time.  Both rank candidates
    through ``_enumerate_exact``, which scores in fixed-size blocks with
    bounded memory and gives each candidate the same arithmetic as when
    scored alone.  With a PV system, sourcing flags are arbitrated against
    each intermediate schedule and start optimization repeats until the
    flags reach a fixed point (or ``_PV_ITERATION_CAP`` rounds); the best
    self-consistent schedule wins.

    Args:
        instances: all appliance instances (fixed and shiftable).
        objective: the curve to track.
        weights: discomfort weights applied to every shiftable run
            (default: all zero, which the simulation pipeline always uses).
        pricing: required when ``pv`` is given (peak windows drive timing).
        pv: optional PV/battery system.
        blend: weight of discomfort in the cost, as in ``evaluate_cost``
            (default ``default_blend(objective)``).
        baseline: committed grid load added to every candidate curve.
        not_before: earliest permitted start (intra-day re-solves); deviation
            is likewise evaluated on slots >= this.

    Raises:
        InfeasibleProblemError: any instance has no feasible start.
    """
    weights = weights or DiscomfortWeights()
    if pv is not None and pricing is None:
        raise ParameterError("pricing is required for PV arbitration")

    fixed = [i for i in instances if i.kind == "fixed"]
    shiftable = sorted(
        (i for i in instances if i.kind == "shiftable"), key=lambda i: i.instance_id
    )

    starts_by_id: dict[str, tuple[int, ...]] = {}
    offenders = []
    problems = []
    for inst in shiftable:
        try:
            starts_by_id[inst.instance_id] = feasible_starts(inst, not_before=not_before)
        except InfeasibleApplianceError as exc:
            offenders.append(inst.instance_id)
            problems.append(str(exc))
    if offenders:
        raise InfeasibleProblemError(
            "; ".join(problems), offenders=tuple(offenders)
        )

    fixed_curve = total_curve(fixed, preferred_starts(fixed)).values
    committed = fixed_curve if baseline is None else fixed_curve + np.asarray(baseline, dtype=float)
    residual = committed - objective.values
    blend = default_blend(objective) if blend is None else float(blend)
    max_duration = max((i.duration_slots for i in shiftable), default=0)

    product = 1
    for starts in starts_by_id.values():
        product *= len(starts)
    mode = "exhaustive" if product <= _EXACT_LIMIT else "local_search"

    def optimize(flags: np.ndarray) -> tuple[dict[str, int], tuple[float, ...], int]:
        space = _CandidateSpace(
            shiftable, residual, flags, weights, blend, not_before, starts_by_id
        )
        if mode == "exhaustive":
            choice, key, evals = _enumerate_exact(space)
            trace = (key[0],)
        else:
            choice, trace, evals = _local_search(space)
        return space.starts_mapping(choice), trace, evals

    def complete(starts: dict[str, int], flags, soc) -> ScheduleAssignment:
        all_starts = {**preferred_starts(fixed), **starts}
        return ScheduleAssignment(starts=all_starts, pv_flags=flags, battery_soc=soc)

    def arbitrated(starts: dict[str, int]) -> tuple[np.ndarray, np.ndarray | None]:
        if pv is None:
            return np.zeros(SLOT_COUNT, dtype=bool), None
        demand = total_curve(shiftable, starts)
        result = pv_arbitrate(pv, demand, pricing, max_duration)
        return result.flags, result.soc

    def score(assignment: ScheduleAssignment) -> CostBreakdown:
        return evaluate_cost(
            assignment, objective, weights, instances,
            blend=blend, baseline=baseline, active_from=not_before,
        )

    evaluations = 0
    flags = np.zeros(SLOT_COUNT, dtype=bool)
    soc = None
    if pv is not None:
        preferred = {i.instance_id: i.preferred_start for i in shiftable}
        flags, soc = arbitrated(preferred)

    best: tuple[CostBreakdown, ScheduleAssignment, tuple[float, ...]] | None = None
    for _ in range(_PV_ITERATION_CAP if pv is not None else 1):
        starts, trace, evals = optimize(flags)
        evaluations += evals
        new_flags, new_soc = arbitrated(starts)
        candidate = complete(starts, new_flags, new_soc)
        cost = score(candidate)
        if best is None or cost.total < best[0].total:
            best = (cost, candidate, trace)
        if pv is None or np.array_equal(new_flags, flags):
            break
        flags, soc = new_flags, new_soc

    cost, assignment, trace = best
    return SolveResult(
        assignment=assignment, cost=cost, trace=trace, mode=mode, evaluations=evaluations
    )
