"""Start-slot assignment and PV/grid arbitration against an objective curve.

The scheduler picks one start per shiftable appliance run to minimize the
squared deviation of the grid-facing curve from the objective; ties go to
the least total displacement from the preferred starts.  Small problems are
solved exactly by enumeration; larger ones by seeded local search, whose
moves score one appliance's starts directly and return a local optimum.
Enumeration screens each candidate with per-start and pairwise terms, built
once per round, and scores exactly only those within a rigorous rounding
bound of the best, so in bounded memory it returns what scoring every
candidate exactly would, ties included.  When a PV/battery system is present, per-slot sourcing
flags are arbitrated against the candidate demand and the two
optimizations alternate to a fixed point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    MAX_CANDIDATE_STARTS,
    SLOT_COUNT,
    SLOT_HOURS,
    ApplianceInstance,
    ApplianceSpec,
    LoadCurve,
    PricingSignal,
    PvSystem,
    _pv_flags,
    _whole_number,
    as_curve,
    preferred_starts,
    split_consumption,
    total_curve,
)
from .errors import (
    FeasibilityError,
    InfeasibleApplianceError,
    InfeasibleProblemError,
    ParameterError,
)
from .objective import ObjectiveCurve


# ---------------------------------------------------------------- assignment


@dataclass(frozen=True, eq=False)
class ScheduleAssignment:
    """A complete schedule: start slot per instance plus PV sourcing flags."""

    starts: Mapping[str, int]
    pv_flags: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "starts", dict(self.starts))
        flags = np.zeros(SLOT_COUNT, dtype=bool) if self.pv_flags is None else self.pv_flags
        object.__setattr__(self, "pv_flags", _pv_flags(flags))

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
        try:
            start = int(raw)
        except (TypeError, ValueError, OverflowError):  # NaN, inf, non-numbers
            start = None
        if start is None or start != raw:
            violations.append(f"{inst.instance_id}: start {raw!r} is not a whole slot")
            continue
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
        ParameterError: ``not_before`` is not a whole number >= 1.
        InfeasibleApplianceError: no start satisfies every constraint; the
            message names the binding constraint.
    """
    name = getattr(app, "instance_id", None) or app.id
    window_lo = max(app.window_start, _whole_number(not_before, 1, "not_before"))
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


def candidate_starts(
    shiftable: Sequence[ApplianceInstance], not_before: int = 1
) -> dict[str, tuple[int, ...]]:
    """The starts one solve scores: each shiftable instance's ``feasible_starts``, by id.

    Raises:
        InfeasibleProblemError: some instance has no feasible start.
        ParameterError: more than ``MAX_CANDIDATE_STARTS`` starts in all.
    """
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
        raise InfeasibleProblemError("; ".join(problems), offenders=tuple(offenders))
    candidates = sum(len(starts) for starts in starts_by_id.values())
    if candidates > MAX_CANDIDATE_STARTS:
        raise ParameterError(
            f"{candidates} candidate starts exceed MAX_CANDIDATE_STARTS {MAX_CANDIDATE_STARTS}"
        )
    return starts_by_id


# ---------------------------------------------------------------- pv


@dataclass(frozen=True, eq=False)
class PvArbitration:
    """Per-slot sourcing decision and the induced battery trajectory.

    ``soc[h]`` is the stored energy at the start of slot h+1.  In a flagged
    slot the battery delivers that slot's whole shiftable demand.
    """

    flags: np.ndarray
    soc: np.ndarray


def pv_arbitrate(
    pv: PvSystem,
    generation: LoadCurve | np.ndarray,
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
    charge then evolves as ``soc' = clamp(soc + eff*gen*0.5h - supplied, 0,
    capacity)``, where ``gen`` is the slot's ``generation`` (kW).

    Infeasible PV never raises; it simply yields all-zero flags.

    Raises:
        FormatError, ParameterError: ``generation`` or ``shiftable_demand``
            is not a valid ``LoadCurve``, or ``max_app_duration`` is not a
            whole number >= 0.
    """
    # Python floats and bools: the 48-slot loop runs the same IEEE arithmetic faster
    demand = as_curve(shiftable_demand).values.tolist()
    generation = as_curve(generation).values.tolist()
    max_app_duration = _whole_number(max_app_duration, 0, "max_app_duration")

    peak_mask = pricing.peak_mask().tolist()
    starts = sorted(start for start, _ in pricing.peak_windows)
    # the first peak start after each slot, None when no peak window follows
    following = np.searchsorted(starts, np.arange(1, SLOT_COUNT + 1), side="right")
    ahead = [*starts, None]
    next_starts = [ahead[j] for j in following.tolist()]

    flags = np.zeros(SLOT_COUNT, dtype=bool)
    soc_trace = np.empty(SLOT_COUNT)
    soc = pv.battery_soc
    for idx, next_start in enumerate(next_starts):
        slot = idx + 1
        soc_trace[idx] = soc
        if peak_mask[idx] or next_start is None:
            time_ok = True
        else:
            recharge_slots = (pv.battery_capacity - soc) / pv.charge_rate / SLOT_HOURS
            time_ok = (next_start - slot) - recharge_slots > max_app_duration
        demand_kwh = demand[idx] * SLOT_HOURS
        supplied = 0.0
        if time_ok and soc > demand_kwh:
            flags[idx] = True
            supplied = demand_kwh
        charged = pv.charge_efficiency * generation[idx] * SLOT_HOURS
        soc = min(max(soc + charged - supplied, 0.0), pv.battery_capacity)
    return PvArbitration(flags=flags, soc=soc_trace)


# ---------------------------------------------------------------- cost


def evaluate_cost(
    assignment: ScheduleAssignment,
    objective: ObjectiveCurve,
    instances: Sequence[ApplianceInstance],
    baseline: LoadCurve | np.ndarray | None = None,
    active_from: int = 1,
) -> float:
    """Squared deviation of a feasible assignment from the objective curve.

    The gap is between the grid-facing curve (PV-supplied energy excluded,
    plus any committed ``baseline`` load, a ``LoadCurve`` or 48 values that
    ``LoadCurve`` checks) and the objective, summed over slots >= ``active_from``.

    Raises:
        FeasibilityError: the assignment violates a hard constraint.
        FormatError, ParameterError: ``baseline`` is not a valid ``LoadCurve``.
        ParameterError: ``active_from`` is not a whole number in
            1..``SLOT_COUNT``.
    """
    violations = validate_assignment(instances, assignment)
    if violations:
        raise FeasibilityError("; ".join(violations))
    parts = split_consumption(instances, assignment.starts, assignment.pv_flags)
    grid = parts.grid.values
    if baseline is not None:
        grid = grid + as_curve(baseline).values
    active_from = _whole_number(active_from, 1, "active_from")
    if active_from > SLOT_COUNT:
        raise ParameterError(f"active_from must be <= {SLOT_COUNT}, got {active_from}")
    gap = (grid - objective.values)[active_from - 1 :]
    return float(np.sum(gap * gap))


# ---------------------------------------------------------------- solver


# Fixed search policy: the largest start product enumerated exhaustively;
# local search's random restarts and sweeps per descent; PV fixed-point rounds.
_EXACT_LIMIT = 1_000_000
_RESTARTS = 3
_MAX_PASSES = 60
_PV_ITERATION_CAP = 5


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver outcome: the assignment, its ``evaluate_cost``, and diagnostics."""

    assignment: ScheduleAssignment
    cost: float
    mode: str
    evaluations: int


class _CandidateSpace:
    """Precomputed per-instance start sets, contributions and displacements.

    Deviation math runs on slot columns >= active_from with PV-flagged slots
    masked out of the shiftable contributions, exactly mirroring
    evaluate_cost's grid-facing curve.

    Every instance's contribution rows are stacked in one C-contiguous
    (rows, columns) array, ``stack``; ``contribs[i]`` is instance i's block
    of it and ``offsets[i]`` that block's first row.
    """

    def __init__(
        self,
        shiftable: list[ApplianceInstance],
        residual: np.ndarray,
        flags: np.ndarray,
        active_from: int,
        starts_by_id: dict[str, tuple[int, ...]],
    ):
        self.ids = [inst.instance_id for inst in shiftable]
        cols = slice(active_from - 1, SLOT_COUNT)
        self.residual = residual[cols]
        self.starts = [
            np.asarray(starts_by_id[inst.instance_id], dtype=int) for inst in shiftable
        ]
        sizes = [starts.size for starts in self.starts]
        self.offsets = np.cumsum([0] + sizes[:-1], dtype=int)
        grid = np.zeros((sum(sizes), SLOT_COUNT))
        for inst, starts, first in zip(shiftable, self.starts, self.offsets):
            cells = (starts - 1)[:, np.newaxis] + np.arange(inst.duration_slots)
            grid[np.arange(first, first + starts.size)[:, np.newaxis], cells] = inst.power_profile
        grid *= (~flags).astype(float)  # PV-covered slots leave the grid curve
        self.stack = np.ascontiguousarray(grid[:, cols])
        self.contribs = [self.stack[first : first + n] for first, n in zip(self.offsets, sizes)]
        self.shift_abs = [
            np.abs(starts - inst.preferred_start) for inst, starts in zip(shiftable, self.starts)
        ]

    def starts_mapping(self, choice: tuple[int, ...]) -> dict[str, int]:
        return {self.ids[i]: int(self.starts[i][row]) for i, row in enumerate(choice)}


def _screen_terms(space: _CandidateSpace) -> tuple[np.ndarray, np.ndarray, float]:
    """The space's screen terms ``(unary, pairs, tol)``, built from its stack.

    With r the residual and c a row's contribution,

        ||r + sum_i c_i||^2
            = ||r||^2 + sum_i unary[row_i] + sum_{i<j} pairs[row_i, row_j]

    where ``unary = 2 c.r + ||c||^2`` and ``pairs = 2 C C^T``
    (8 B per pair of stacked rows).  A candidate whose screened total lies
    more than ``tol`` above another's also scores exactly above it.
    """
    stack = space.stack
    unary = 2.0 * (stack @ space.residual) + np.einsum("ij,ij->i", stack, stack)
    pairs = 2.0 * (stack @ stack.T)
    # Screened (unary and pair terms) or exact (curve, einsum), a total
    # takes at most n = columns + (instances + 2)^2 roundings of sums whose
    # absolute parts add up to at most
    #   magnitude = sum_t (|r_t| + sum_i max|c_i,t|)^2,
    # so it lies within gamma_n * magnitude of its real value, with
    # gamma_n = n u / (1 - n u).  Candidates screened more than
    # 4 gamma_n * magnitude apart therefore score exactly in the same
    # order.  The factor 8 leaves room for the cutoff's own roundings and
    # ``tiny`` for underflow.
    reach = np.abs(space.residual) + sum(
        (np.abs(c).max(axis=0) for c in space.contribs), np.zeros(space.residual.size)
    )
    magnitude = float(reach @ reach)
    n = space.residual.size + (len(space.contribs) + 2) ** 2
    unit = np.finfo(float).eps / 2
    return unary, pairs, 8.0 * n * unit / (1.0 - n * unit) * magnitude + np.finfo(float).tiny


# Candidates per screening block, and the largest product of broadcast
# instances inside one.  A block's screened totals take 2^15 * 8 B = 256 KB,
# and at most one more array of that size lives beside them while they are
# summed and compared; they are freed before the survivors are scored.
# Blocks of 2^14 to 2^16 ran the pipeline's solves about equally fast.
_SCREEN_ROWS = 1 << 15

# Survivors per exact-scoring chunk.  A chunk's curves take at most
# 4096 * 48 * 8 B = 1.5 MB at 48 slot columns, and the scorer holds at most
# three such curve arrays at once, so with a block's survivor indices beside
# them a call's working memory stays within about 5 MB however large the
# start product is.
_BLOCK_ROWS = 4096


def _exact_totals(space: _CandidateSpace, picked: list[np.ndarray | int]) -> np.ndarray:
    """Exact cost of each candidate whose row of instance i is ``picked[i]``.

    ``picked[i]`` is an array of rows, one per candidate, or one row shared
    by every candidate.  The arithmetic is that of scoring one candidate
    alone: ``residual + c_0 + ... + c_{k-1}`` added element-wise in instance
    order, then one row-wise einsum on a C-contiguous block.
    """
    curve = space.residual[np.newaxis]
    for i, row in enumerate(picked):
        curve = curve + space.contribs[i][row]
    return np.einsum("ij,ij->i", curve, curve)


def _least_key(
    space: _CandidateSpace, picked: list[np.ndarray | int]
) -> tuple[tuple[int, ...], tuple[float, int, tuple[int, ...]]]:
    """The least-key candidate of ``picked`` (as for ``_exact_totals``): its rows and key.

    Candidates are scored exactly by one ``_exact_totals`` call and listed in
    ascending row order of the product, so, since starts rise with the row
    index, the first least-shift candidate among the least totals has the
    least start tuple.  The key is (total cost, total |shift|, start tuple).
    """
    totals = _exact_totals(space, picked)
    ties = np.flatnonzero(totals == totals.min())
    rows = [np.broadcast_to(row, totals.shape)[ties] for row in picked]
    shift = sum((space.shift_abs[i][r] for i, r in enumerate(rows)), np.zeros(ties.size, dtype=int))
    first = int(np.argmin(shift))
    choice = tuple(int(r[first]) for r in rows)
    starts = tuple(int(space.starts[i][row]) for i, row in enumerate(choice))
    return choice, (float(totals[ties[first]]), int(shift[first]), starts)


def _enumerate_exact(
    space: _CandidateSpace,
) -> tuple[tuple[int, ...], tuple[float, int, tuple[int, ...]], int]:
    """Exhaustive search over the space's start product; returns (choice, key, evaluations).

    ``choice`` holds the winner's row per instance, ``key`` is its (total
    cost, total |shift|, start tuple by id) and ``evaluations`` counts every
    candidate of the product.

    Candidates are screened in blocks of at most ``_SCREEN_ROWS``, in
    row-major order of the product: the leading instances' rows are gathered
    for a run of prefixes and the trailing instances, whose product may fill
    a block, are broadcast.  Each candidate's screened total adds the
    ``unary`` and ``pairs`` terms of its rows (``_screen_terms``, built once
    per call), a few additions in place of a pass over every slot (terms
    shared by every candidate are left out).  A candidate screened more than
    ``tol`` above the least screened total so far scores exactly above
    another candidate, so it cannot win and is dropped.  A block's survivors
    go to ``_least_key`` in chunks of at most ``_BLOCK_ROWS``;
    ``_exact_totals`` gives each the arithmetic of scoring it alone, whatever
    the block, the chunk or the subset, so exact float ties stay exact.  Ties
    on the total go to the least total |shift|, then to the least start
    tuple, which no order of the chunks changes.  Every candidate that ties
    the least total survives the screen, so the choice and its key are those
    of scoring every candidate exactly.
    """
    unary, pairs, tol = _screen_terms(space)
    k = len(space.starts)
    sizes = [s.size for s in space.starts]
    # instances split..k-1 are broadcast inside a block (inner rows per
    # prefix); the prefixes over instances 0..split-1 are walked in groups
    split, inner = max(k - 1, 0), sizes[-1] if k else 1
    while split > 0 and inner * sizes[split - 1] <= _SCREEN_ROWS:
        split -= 1
        inner *= sizes[split]
    group = max(1, _SCREEN_ROWS // inner)
    prefixes = math.prod(sizes[:split])

    # screen terms are indexed by stacked row; a broadcast instance's rows
    # lie along its own axis
    stacked = [space.offsets[i] + np.arange(sizes[i]) for i in range(k)]
    for i in range(split, k):
        stacked[i] = stacked[i].reshape((1,) * (i - split + 1) + (-1,) + (1,) * (k - 1 - i))
    tail = range(split, k)
    # the part of the screen over the broadcast instances alone, once per call
    tail_screened = sum(unary[stacked[i]] for i in tail) + sum(
        pairs[stacked[i], stacked[j]] for i, j in itertools.combinations(tail, 2)
    )

    best_key: tuple[float, int, tuple[int, ...]] | None = None
    best_choice: tuple[int, ...] = ()
    evaluations = 0
    least_screened = math.inf
    for lo in range(0, prefixes, group):
        hi = min(lo + group, prefixes)
        evaluations += (hi - lo) * inner
        picks = np.unravel_index(np.arange(lo, hi), sizes[:split]) if split else ()
        lead = [stacked[i][picks[i]].reshape((-1,) + (1,) * (k - split)) for i in range(split)]
        # terms over the prefixes first, then each broadcast instance's axis
        # joins, so that few additions run over the whole block
        screened = sum(unary[rows] for rows in lead) + sum(
            pairs[a, b] for a, b in itertools.combinations(lead, 2)
        )
        for j in tail:
            screened = screened + sum(pairs[rows, stacked[j]] for rows in lead)
        screened = np.reshape(screened + tail_screened, -1)
        least_screened = min(least_screened, float(screened.min()))
        survivors = np.flatnonzero(screened <= least_screened + tol)
        del screened
        for first in range(0, survivors.size, _BLOCK_ROWS):
            flat = survivors[first : first + _BLOCK_ROWS] + lo * inner
            # (np.unravel_index rejects the empty shape of a problem with no instances)
            choice, key = _least_key(space, list(np.unravel_index(flat, sizes)) if k else [])
            if best_key is None or key < best_key:
                best_key, best_choice = key, choice
    return best_choice, best_key, evaluations


def _local_search(space: _CandidateSpace) -> tuple[tuple[int, ...], int]:
    """Multi-restart hill descent over single-appliance moves.

    A descent's starting key and each move are one ``_least_key`` call: a
    move of instance i scores every start of i exactly, with every other
    instance held at its current row, and takes the least key.  Keys are
    distinct, so the instance moves only to a strictly lower key.  Each
    tried row other than the current one counts as an evaluation.
    """
    rng = np.random.default_rng(0)
    k = len(space.starts)
    every_row = [np.arange(s.size) for s in space.starts]
    evaluations = 0

    def polish(choice: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
        nonlocal evaluations
        _, key = _least_key(space, list(choice))
        for _ in range(_MAX_PASSES):
            improved = False
            for i in range(k):
                moved, key = _least_key(space, [*choice[:i], every_row[i], *choice[i + 1 :]])
                evaluations += every_row[i].size - 1
                improved |= moved != choice
                choice = moved
            if not improved:
                break
        return choice, key

    # descent starts at the least-shift rows, then from random rows
    best_choice, best_key = polish(tuple(int(np.argmin(a)) for a in space.shift_abs))
    for _ in range(_RESTARTS):
        start = tuple(int(rng.integers(space.starts[i].size)) for i in range(k))
        choice, key = polish(start)
        if key < best_key:
            best_choice, best_key = choice, key
    return best_choice, evaluations


def solve(
    instances: Sequence[ApplianceInstance],
    objective: ObjectiveCurve,
    pricing: PricingSignal | None = None,
    pv: PvSystem | None = None,
    generation: LoadCurve | np.ndarray | None = None,
    baseline: LoadCurve | np.ndarray | None = None,
    not_before: int = 1,
) -> SolveResult:
    """Schedule every instance to track the objective curve.

    The cost is ``evaluate_cost``'s squared deviation; among equal costs the
    least total |shift| from the preferred starts wins, then the least start
    tuple.  Fixed instances are pinned at their preferred starts; shiftable
    ones are optimized over their feasible start sets, exhaustively when the
    product of set sizes stays within ``_EXACT_LIMIT``, otherwise by local
    search, which returns a local optimum.  ``_enumerate_exact`` screens the
    whole product in fixed-size blocks and scores the survivors in
    fixed-size chunks, with bounded memory; a local-search move scores every
    start of one instance with the others held.  Both give each candidate
    they score exactly the same arithmetic as when scored alone.  With a PV
    system, sourcing flags are arbitrated against each intermediate schedule
    and start optimization repeats until the flags repeat a state it has
    optimized for, after which it would only repeat candidates (or until
    ``_PV_ITERATION_CAP`` rounds); the first best self-consistent schedule wins.
    The result holds the starts, the flags and their cost; ``pv_arbitrate``
    of the scheduled shiftable demand gives the battery trajectory behind
    the flags.

    Args:
        instances: all appliance instances (fixed and shiftable).
        objective: the curve to track.
        pricing: required when ``pv`` is given (peak windows drive timing).
        pv: optional PV/battery system.
        generation: the day's PV generation (kW per slot), exactly with
            ``pv``: a ``LoadCurve``, or 48 values that ``LoadCurve`` checks.
        baseline: committed grid load added to every candidate curve, taken
            as ``generation`` is.
        not_before: earliest permitted start (intra-day re-solves); deviation
            is likewise evaluated on slots >= this.

    Raises:
        InfeasibleProblemError: any instance has no feasible start.
        ParameterError: ``not_before`` is not a whole slot number in
            1..SLOT_COUNT, or ``pv`` is given without ``pricing`` or
            ``generation``, or ``generation`` without ``pv``, or the
            shiftable instances have more than ``MAX_CANDIDATE_STARTS``
            feasible starts in all (``candidate_starts``).
        FormatError, ParameterError: ``baseline`` or ``generation`` is not a
            valid ``LoadCurve``.

    Every argument is checked before any search.
    """
    baseline = None if baseline is None else as_curve(baseline)
    not_before = _whole_number(not_before, 1, "not_before")
    if not_before > SLOT_COUNT:
        raise ParameterError(f"not_before must be <= {SLOT_COUNT}, got {not_before}")
    if pv is not None and pricing is None:
        raise ParameterError("pricing is required for PV arbitration")
    if (pv is None) != (generation is None):
        raise ParameterError("pv and generation must be given together")

    fixed = [i for i in instances if i.kind == "fixed"]
    shiftable = sorted(
        (i for i in instances if i.kind == "shiftable"), key=lambda i: i.instance_id
    )

    starts_by_id = candidate_starts(shiftable, not_before)

    fixed_curve = total_curve(fixed, preferred_starts(fixed)).values
    committed = fixed_curve if baseline is None else fixed_curve + baseline.values
    residual = committed - objective.values
    max_duration = max((i.duration_slots for i in shiftable), default=0)

    product = 1
    for starts in starts_by_id.values():
        product *= len(starts)
    mode = "exhaustive" if product <= _EXACT_LIMIT else "local_search"

    def optimize(flags: np.ndarray) -> tuple[dict[str, int], int]:
        space = _CandidateSpace(shiftable, residual, flags, not_before, starts_by_id)
        if mode == "exhaustive":
            choice, _, evals = _enumerate_exact(space)
        else:
            choice, evals = _local_search(space)
        return space.starts_mapping(choice), evals

    def arbitrated(starts: dict[str, int]) -> np.ndarray:
        if pv is None:
            return np.zeros(SLOT_COUNT, dtype=bool)
        demand = total_curve(shiftable, starts)
        return pv_arbitrate(pv, generation, demand, pricing, max_duration).flags

    evaluations = 0
    flags = arbitrated(preferred_starts(shiftable))
    optimized_for: set[bytes] = set()
    best: tuple[float, ScheduleAssignment] | None = None
    for _ in range(_PV_ITERATION_CAP):
        starts, evals = optimize(flags)
        evaluations += evals
        optimized_for.add(flags.tobytes())
        new_flags = arbitrated(starts)
        candidate = ScheduleAssignment({**preferred_starts(fixed), **starts}, new_flags)
        cost = evaluate_cost(
            candidate, objective, instances, baseline=baseline, active_from=not_before
        )
        if best is None or cost < best[0]:
            best = (cost, candidate)
        if new_flags.tobytes() in optimized_for:  # at once without PV: flags stay zero
            break
        flags = new_flags

    cost, assignment = best
    return SolveResult(assignment=assignment, cost=cost, mode=mode, evaluations=evaluations)
