"""Command line entry point.

Subcommands: ``generate`` a synthetic bundle, ``train`` one household's
forecaster, ``run`` a simulation, ``report`` metrics from saved results,
``validate`` a bundle.  Exit codes: 0 success, 2 validation/input failure
(including an output path that cannot be written), 3 infeasible scheduling
problem.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from .bundle import lint_bundle, load_bundle, read_json, save_bundle
from .core import LoadCurve, PricingSignal
from .errors import FeasibilityError, FormatError, LoadshiftError
from .forecast import TrainingConfig, fit_series, hourly_series_from_history, save_network
from .metrics import compute_metrics, write_report
from .objective import ObjectiveCurve
from .scheduler import ScheduleAssignment
from .simulate import DayResult, FleetConfig, RunParams, run_fleet
from .synth import SyntheticRecipe, generate_fleet

RESULTS_FORMAT_VERSION = 1


def _cmd_generate(args) -> int:
    recipe = SyntheticRecipe(
        household_count=args.households,
        daily_energy_kwh=args.target_kwh,
        history_days=args.history_days,
        simulated_days=args.days,
        pv_fraction=args.pv_fraction,
        mode=args.mode,
    )
    fleet = generate_fleet(recipe, seed=args.seed)
    root = save_bundle(fleet, args.out)
    print(f"wrote {len(fleet.households)} households, {len(fleet.days)} days to {root}")
    return 0


def _cmd_train(args) -> int:
    if args.out:  # an unusable --out fails before the fit
        out = Path(args.out)
        if out.is_dir():
            raise FormatError(f"{out}: is a directory")
        if not out.parent.is_dir():
            raise FormatError(f"{out}: {out.parent} is not a directory")
    fleet = load_bundle(args.bundle)
    household = fleet.household(args.household)
    series = hourly_series_from_history(household.history, lag=args.lag)
    cfg = TrainingConfig(max_epochs=args.epochs, rng_seed=args.seed)
    result, _ = fit_series(series, cfg, hidden_size=args.hidden)
    if args.out:
        save_network(result.network, args.out, seed=args.seed, config=cfg)
    print(
        f"household={household.id} "
        f"train_mse={result.train_mse[-1]:.6g} "
        f"validation_mse={result.validation_mse[result.best_epoch]:.6g} "
        f"epochs={len(result.train_mse) - 1} stop={result.stop_reason}"
    )
    return 0


def _parse_days(text: str) -> tuple[datetime.date, ...]:
    days = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            days.append(datetime.date.fromisoformat(piece))
        except ValueError:
            raise FormatError(f"bad day {piece!r}, expected YYYY-MM-DD") from None
    return tuple(days)


def _results_doc(config: FleetConfig, results, seed: int) -> dict:
    instances_by_id = {h.id: h.instances() for h in config.households}
    rows = []
    for r in results:
        rows.append(
            {
                "household": r.household_id,
                "day": r.day.isoformat(),
                "before": [float(v) for v in r.before.values],
                "after": [float(v) for v in r.after.values],
                "after_total": [float(v) for v in r.after_total.values],
                "predicted": [float(v) for v in r.predicted.values],
                "objective": [float(v) for v in r.objective.values],
                "objective_mode": r.objective.mode,
                "objective_provenance": list(r.objective.provenance),
                "assignment": r.assignment.to_json_dict(instances_by_id[r.household_id]),
            }
        )
    return {
        "format_version": RESULTS_FORMAT_VERSION,
        "mode": config.mode,
        "seed": int(seed),
        "days": [d.isoformat() for d in config.days],
        "pricing": {
            "prices": [float(p) for p in config.pricing.prices],
            "peak_windows": [list(w) for w in config.pricing.peak_windows],
        },
        "results": rows,
    }


def _cmd_run(args) -> int:
    fleet = load_bundle(args.bundle)
    mode = args.mode or fleet.mode
    days = _parse_days(args.days) if args.days else fleet.days
    config = FleetConfig(
        households=fleet.households,
        pricing=fleet.pricing,
        days=days,
        mode=mode,
        recipe=fleet.recipe,
    )
    params = RunParams(max_epochs=args.epochs, history_window_days=args.history_window)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the fleet runs
    results = run_fleet(config, params, seed=args.seed, workers=args.workers)

    doc = _results_doc(config, results, args.seed)
    (out / "results.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    report = compute_metrics(results, config.pricing)
    write_report(report, out)
    fleet_agg = report.fleet
    reduction = fleet_agg.peak_reduction_pct
    print(
        f"simulated {len(results)} household-days ({mode}); "
        f"peak reduction "
        f"{'n/a' if reduction is None else format(reduction, '.2f') + '%'}; "
        f"wrote {out / 'results.json'}, {out / 'report.json'}, {out / 'report.csv'}"
    )
    return 0


def _load_results(path) -> tuple[tuple[DayResult, ...], PricingSignal, str]:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: results file must be a JSON object")
    for key in ("format_version", "mode", "pricing", "results"):
        if key not in doc:
            raise FormatError(f"{path}: results file is missing {key!r}")
    if doc["format_version"] != RESULTS_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {doc['format_version']!r}")
    if not isinstance(doc["results"], list):
        raise FormatError(f"{path}: 'results' must be a list")

    try:
        pricing = PricingSignal(
            prices=np.array(doc["pricing"]["prices"], dtype=float),
            peak_windows=tuple(tuple(w) for w in doc["pricing"]["peak_windows"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad pricing: {exc}") from exc
    mode = doc["mode"]
    results = []
    for row in doc["results"]:
        try:
            if not isinstance(row["household"], str):
                raise TypeError(f"household id {row['household']!r} is not a string")
            predicted = LoadCurve(np.array(row["predicted"], dtype=float))
            assignment = row["assignment"]
            starts = {a["id"]: a["scheduled_start"] for a in assignment["appliances"]}
            results.append(
                DayResult(
                    household_id=row["household"],
                    day=datetime.date.fromisoformat(row["day"]),
                    mode=mode,
                    before=LoadCurve(np.array(row["before"], dtype=float)),
                    after=LoadCurve(np.array(row["after"], dtype=float)),
                    after_total=LoadCurve(np.array(row["after_total"], dtype=float)),
                    assignment=ScheduleAssignment(
                        starts=starts, pv_flags=np.array(assignment["pv_flags"], dtype=bool)
                    ),
                    objective=ObjectiveCurve(
                        values=np.array(row["objective"], dtype=float),
                        mode=row["objective_mode"],
                        provenance=tuple(row["objective_provenance"]),
                        predicted=predicted,
                    ),
                    predicted=predicted,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad result row: {exc}") from exc
    return tuple(results), pricing, mode


def _cmd_report(args) -> int:
    results, pricing, _ = _load_results(args.results)
    report = compute_metrics(results, pricing)
    json_path, csv_path = write_report(report, args.out)
    print(f"wrote {json_path}, {csv_path}")
    return 0


def _cmd_validate(args) -> int:
    problems = lint_bundle(args.bundle)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 2
    print("bundle ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadshift",
        description="Forecast, shape and schedule household consumption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic fleet bundle")
    p.add_argument("--out", required=True, help="bundle directory to create")
    p.add_argument("--households", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history-days", type=int, default=364, dest="history_days")
    p.add_argument("--days", type=int, default=1, help="number of days to simulate")
    p.add_argument("--target-kwh", type=float, default=16.0, dest="target_kwh")
    p.add_argument("--pv-fraction", type=float, default=1.0, dest="pv_fraction")
    p.add_argument("--mode", choices=("offline", "online"), default="offline")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train one household's load forecaster")
    p.add_argument("--bundle", required=True)
    p.add_argument("--household", required=True)
    p.add_argument("--out", help="where to save the network JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--hidden", type=int, default=10)
    p.add_argument("--lag", type=int, default=24)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="simulate a bundle and write results + report")
    p.add_argument("--bundle", required=True)
    p.add_argument("--mode", choices=("offline", "online"), default=None,
                   help="override the bundle's mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", default=None,
                   help="comma-separated YYYY-MM-DD list overriding the bundle's days")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--history-window", type=int, default=120, dest="history_window")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="recompute metrics from saved results")
    p.add_argument("--results", required=True, help="path to results.json")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("validate", help="lint a bundle and list every problem")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LoadshiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
