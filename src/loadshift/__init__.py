"""Household demand-response toolkit.

Forecasts half-hourly load and rooftop generation, derives a price-aware
objective consumption curve, schedules shiftable appliances against it and
arbitrates each slot between the grid and a PV/battery system.  The
``simulate`` layer runs whole fleets; ``bundle`` reads and writes the
on-disk CSV/JSON format; the ``loadshift`` console script fronts it all.
"""

from .bundle import lint_bundle, load_bundle, save_bundle
from .core import (
    ApplianceInstance,
    ApplianceSpec,
    ConsumptionBreakdown,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    PvSystem,
    bill,
    expand_instances,
    load_factor,
    preferred_starts,
    split_consumption,
    total_curve,
)
from .errors import (
    DatasetTooSmallError,
    DegenerateRegressionError,
    FeasibilityError,
    FormatError,
    InfeasibleApplianceError,
    InfeasibleProblemError,
    LoadshiftError,
    ParameterError,
    PlacementError,
    TemporalConsistencyError,
    TrainingFailedError,
    UndefinedMetricError,
)
from .forecast import (
    AutocorrelationResult,
    SeriesDataset,
    TrainingConfig,
    TrainingResult,
    error_autocorrelation,
    fit_series,
    hourly_series_from_history,
    predict_day,
)
from .metrics import Aggregate, HouseholdDayMetrics, MetricsReport, compute_metrics, write_report
from .objective import (
    ObjectiveCurve,
    PeakRegressionModel,
    build_objective,
    fit_peak_regression,
    update_online,
)
from .scheduler import (
    PvArbitration,
    ScheduleAssignment,
    SolveResult,
    evaluate_cost,
    feasible_starts,
    pv_arbitrate,
    solve,
    validate_assignment,
)
from .simulate import DayResult, FleetConfig, RunParams, derive_seed, run_day, run_fleet
from .synth import ARCHETYPES, SyntheticRecipe, generate_fleet

__version__ = "0.1.0"

__all__ = [
    "ARCHETYPES",
    "Aggregate",
    "ApplianceInstance",
    "ApplianceSpec",
    "AutocorrelationResult",
    "ConsumptionBreakdown",
    "DailyRecord",
    "DatasetTooSmallError",
    "DayResult",
    "DegenerateRegressionError",
    "FeasibilityError",
    "FleetConfig",
    "FormatError",
    "Household",
    "HouseholdDayMetrics",
    "InfeasibleApplianceError",
    "InfeasibleProblemError",
    "LoadCurve",
    "LoadshiftError",
    "MetricsReport",
    "ObjectiveCurve",
    "ParameterError",
    "PeakRegressionModel",
    "PlacementError",
    "PricingSignal",
    "PvArbitration",
    "PvSystem",
    "RunParams",
    "ScheduleAssignment",
    "SeriesDataset",
    "SolveResult",
    "SyntheticRecipe",
    "TemporalConsistencyError",
    "TrainingConfig",
    "TrainingFailedError",
    "TrainingResult",
    "UndefinedMetricError",
    "bill",
    "build_objective",
    "compute_metrics",
    "derive_seed",
    "error_autocorrelation",
    "evaluate_cost",
    "expand_instances",
    "feasible_starts",
    "fit_peak_regression",
    "fit_series",
    "generate_fleet",
    "hourly_series_from_history",
    "lint_bundle",
    "load_bundle",
    "load_factor",
    "predict_day",
    "preferred_starts",
    "pv_arbitrate",
    "run_day",
    "run_fleet",
    "save_bundle",
    "solve",
    "split_consumption",
    "total_curve",
    "update_online",
    "validate_assignment",
    "write_report",
]
