"""Span tracing from outside the program, and the per-layer metrics.

``Tracer`` wraps public functions of the ``loadshift`` modules on the
attribute each caller actually looks up (``simulate`` imports its stage
functions by name; ``solve`` and ``train_lm`` reach their helpers through
their own module's globals).  Each call records a span: name, start, end,
parent span and the household-day being simulated.  Spans stay in memory
until the benchmark writes them out.  Leaving the ``with`` block restores
every original attribute, so no wrapper survives into an untraced timing.

A span's self time is its duration minus the durations of its child spans
(calls are sequential, so children never overlap).  A layer is the part of
the span name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

from loadshift import bundle, forecast, metrics, scheduler, simulate

LAYERS = ("bundle", "forecast", "objective", "scheduler", "simulate", "metrics", "cli")
RUN_DAY_LAYERS = ("forecast", "objective", "scheduler", "simulate")
STOP_REASONS = ("early_stop", "max_epochs", "damping_cap", "perfect_fit")

# (module, attribute, span name): the lookup each caller makes
TARGETS = (
    (bundle, "load_bundle", "bundle.load_bundle"),
    (simulate, "run_day", "simulate.run_day"),
    (simulate, "hourly_series_from_history", "forecast.hourly_series_from_history"),
    (simulate, "fit_series", "forecast.fit_series"),
    (forecast, "train_lm", "forecast.train_lm"),
    (forecast, "prediction_jacobian", "forecast.prediction_jacobian"),
    (forecast, "damped_step", "forecast.damped_step"),
    (simulate, "predict_day", "forecast.predict_day"),
    (simulate, "fit_peak_regression", "objective.fit_peak_regression"),
    (simulate, "build_objective", "objective.build_objective"),
    (simulate, "update_online", "objective.update_online"),
    (simulate, "solve", "scheduler.solve"),
    (simulate, "pv_arbitrate", "scheduler.pv_arbitrate"),
    (scheduler, "pv_arbitrate", "scheduler.pv_arbitrate"),
    (scheduler, "evaluate_cost", "scheduler.evaluate_cost"),
    (metrics, "compute_metrics", "metrics.compute_metrics"),
    (metrics, "write_report", "metrics.write_report"),
)

# facts kept from a call's return value; other return values are dropped
OBSERVERS = {
    "forecast.fit_series": lambda res: {
        "epochs": len(res[0].train_mse) - 1,
        "stop": res[0].stop_reason,
    },
    "scheduler.solve": lambda res: {"mode": res.mode, "evaluations": res.evaluations},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "facts")

    def __init__(self, name, start, parent, task):
        self.name, self.start, self.end = name, start, start
        self.parent, self.task, self.facts = parent, task, None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "task": self.task,
            "facts": self.facts,
        }


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and removes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), parent, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record.facts = observe(result)
            return result

        traced.perfbench_span = name
        return traced


def leftover_wrappers() -> list[str]:
    """Targets whose attribute is still a tracing wrapper (should be none)."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, _ in TARGETS
        if hasattr(getattr(module, attr), "perfbench_span")
    ]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, times and ratios from one traced pass."""
    duration = np.array([s.end - s.start for s in spans])
    child_time = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += duration[i]
    self_time = duration - child_time

    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    run_day_layer_self: dict[str, float] = defaultdict(float)
    # index of the enclosing run_day span (parents precede children)
    run_day_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s.name == "simulate.run_day":
            run_day_of[i] = i
        elif s.parent >= 0:
            run_day_of[i] = run_day_of[s.parent]
        calls[s.name] += 1
        total[s.name] += duration[i]
        own[s.name] += self_time[i]
        layer = s.name.split(".", 1)[0]
        layer_self[layer] += self_time[i]
        if run_day_of[i] >= 0:
            run_day_layer_self[layer] += self_time[i]

    def of(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    fits = [spans[i].facts for i in of("forecast.fit_series")]
    epochs = sum(f["epochs"] for f in fits)
    stops = Counter(f["stop"] for f in fits)
    solves = of("scheduler.solve")
    solve_facts = [spans[i].facts for i in solves]
    evaluations = sum(f["evaluations"] for f in solve_facts)
    solve_ms = duration[solves] * 1e3 if solves else np.zeros(1)
    solve_set = set(solves)
    pv_under_solve = Counter(
        s.parent for s in spans if s.name == "scheduler.pv_arbitrate" and s.parent in solve_set
    )
    run_days = of("simulate.run_day")
    run_day_s = float(duration[run_days].sum())

    def share(x):
        return 100.0 * x / run_day_s if run_day_s > 0 else 0.0

    out = {
        "bundle.load_bundle.s": (total["bundle.load_bundle"], "s"),
        "forecast.fit_series.calls": (calls["forecast.fit_series"], "count"),
        "forecast.fit_series.s": (total["forecast.fit_series"], "s"),
        "forecast.train_lm.self_s": (own["forecast.train_lm"], "s"),
        "forecast.prediction_jacobian.s": (total["forecast.prediction_jacobian"], "s"),
        "forecast.damped_step.s": (total["forecast.damped_step"], "s"),
        "forecast.damped_step.calls": (calls["forecast.damped_step"], "count"),
        "forecast.predict_day.s": (total["forecast.predict_day"], "s"),
        "forecast.epochs": (epochs, "count"),
        "forecast.lm_accept_ratio": (
            epochs / calls["forecast.damped_step"] if calls["forecast.damped_step"] else 0.0,
            "ratio",
        ),
    }
    for reason in STOP_REASONS:
        out[f"forecast.stop.{reason}"] = (stops[reason], "count")
    out.update(
        {
            "objective.fit_peak_regression.s": (total["objective.fit_peak_regression"], "s"),
            "objective.build_objective.s": (total["objective.build_objective"], "s"),
            "objective.update_online.calls": (calls["objective.update_online"], "count"),
            "scheduler.solve.calls": (len(solves), "count"),
            "scheduler.solve.s": (total["scheduler.solve"], "s"),
            "scheduler.solve.self_s": (own["scheduler.solve"], "s"),
            "scheduler.solve.p50_ms": (float(np.percentile(solve_ms, 50)), "ms"),
            "scheduler.solve.p95_ms": (float(np.percentile(solve_ms, 95)), "ms"),
            "scheduler.solve.evaluations": (evaluations, "count"),
            "scheduler.solve.exhaustive": (
                sum(f["mode"] == "exhaustive" for f in solve_facts), "count"
            ),
            "scheduler.solve.local_search": (
                sum(f["mode"] == "local_search" for f in solve_facts), "count"
            ),
            "scheduler.evaluations_per_s": (
                evaluations / total["scheduler.solve"] if total["scheduler.solve"] else 0.0,
                "1/s",
            ),
            "scheduler.pv_arbitrate.calls": (calls["scheduler.pv_arbitrate"], "count"),
            "scheduler.pv_iterations_mean": (
                sum(pv_under_solve.values()) / len(pv_under_solve) - 1.0
                if pv_under_solve
                else 0.0,
                "count",
            ),
            "scheduler.evaluate_cost.calls": (calls["scheduler.evaluate_cost"], "count"),
            "scheduler.evaluate_cost.s": (total["scheduler.evaluate_cost"], "s"),
            "simulate.run_day.s": (run_day_s, "s"),
            "simulate.run_day.self_s": (own["simulate.run_day"], "s"),
            "simulate.resolves_per_household_day": (
                (len(solves) - len(run_days)) / len(run_days) if run_days else 0.0,
                "count",
            ),
            "metrics.compute_metrics.s": (total["metrics.compute_metrics"], "s"),
            "metrics.write_report.s": (total["metrics.write_report"], "s"),
            "cli.results_json.s": (total["cli.results_json"], "s"),
        }
    )
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    for layer in RUN_DAY_LAYERS:
        out[f"layer.{layer}.run_day_pct"] = (share(run_day_layer_self[layer]), "%")
    out["trace.run_day_accounted_pct"] = (share(sum(run_day_layer_self.values())), "%")
    out["trace.spans"] = (len(spans), "count")
    return out
