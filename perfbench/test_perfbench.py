"""Tests of the benchmark itself: its checks fire, its tracing leaves no trace.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import dataclasses
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from bench_checks import check_report, check_results  # noqa: E402
from bench_trace import TARGETS, Tracer, layer_metrics, leftover_wrappers  # noqa: E402
from bench_workloads import Workload, make_fleet  # noqa: E402
from loadshift import bundle, cli  # noqa: E402
from loadshift.core import LoadCurve  # noqa: E402
from loadshift.scheduler import ScheduleAssignment  # noqa: E402
import run  # noqa: E402
from run import check_passes, run_pass  # noqa: E402

TINY = Workload("tiny", households=1, days=1, mode="online", pv_fraction=1.0, dense=False)
SEED = 3


@pytest.fixture(scope="module")
def fleet():
    return make_fleet(TINY, SEED)


@pytest.fixture(scope="module")
def clean_pass(fleet, tmp_path_factory):
    return run_pass(fleet, tmp_path_factory.mktemp("clean"), SEED)


def test_real_output_passes_every_check(fleet, clean_pass):
    assert clean_pass.failed == 0 and len(clean_pass.results) == 1
    assert check_results(fleet, clean_pass.results) == []
    assert check_report(clean_pass.report, 1) == []
    assert check_passes(fleet, [clean_pass, clean_pass]) == []


def test_start_moved_outside_its_window_fails_the_check(fleet, clean_pass):
    result = clean_pass.results[0]
    inst = next(i for i in fleet.households[0].instances() if i.kind == "shiftable")
    starts = dict(result.assignment.starts)
    starts[inst.instance_id] = inst.window_end  # the run would end past the window
    moved = dataclasses.replace(
        result, assignment=ScheduleAssignment(starts=starts, pv_flags=result.assignment.pv_flags)
    )
    problems = check_results(fleet, [moved])
    assert any("infeasible schedule" in p and inst.instance_id in p for p in problems)


def test_energy_mismatch_fails_the_check(fleet, clean_pass):
    result = clean_pass.results[0]
    inflated = dataclasses.replace(result, after_total=LoadCurve(result.after_total.values * 1.01))
    assert any("after_total energy" in p for p in check_results(fleet, [inflated]))


def test_non_finite_objective_fails_the_check(fleet, clean_pass):
    result = clean_pass.results[0]
    objective = copy.copy(result.objective)
    # bypass ObjectiveCurve's own validation, as a regressed program might
    object.__setattr__(objective, "values", np.full(48, np.nan))
    broken = dataclasses.replace(result, objective=objective)
    assert any("objective curve" in p for p in check_results(fleet, [broken]))


def test_differing_results_bytes_fail_the_check(fleet, clean_pass):
    other = dataclasses.replace(clean_pass, results_json=clean_pass.results_json + b" ")
    assert any("bytes differ" in p for p in check_passes(fleet, [clean_pass, other]))


def test_traced_pass_removes_every_wrapper(fleet, clean_pass, tmp_path):
    originals = [getattr(module, attr) for module, attr, _ in TARGETS]
    tracer = Tracer()
    with tracer:
        assert len(leftover_wrappers()) == len(TARGETS)
        traced = run_pass(fleet, tmp_path, SEED, tracer)
    assert leftover_wrappers() == []
    assert [getattr(module, attr) for module, attr, _ in TARGETS] == originals

    assert traced.results_json == clean_pass.results_json
    names = {s.name for s in tracer.spans}
    assert {"simulate.run_day", "forecast.damped_step", "scheduler.solve",
            "objective.update_online", "cli.results_json"} <= names
    metrics = layer_metrics(tracer.spans)
    assert metrics["trace.run_day_accounted_pct"][0] == pytest.approx(100.0, abs=1e-6)
    assert metrics["scheduler.solve.calls"][0] >= 1


def test_alternating_traced_run_is_checked_and_leaves_no_wrapper(fleet, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(
        run, "prepare_bundle", lambda workload, seed, work: bundle.save_bundle(fleet, work / "bundle")
    )
    metrics, passes, problems = run.run_traced(TINY, SEED, tmp_path)
    assert problems == [] and leftover_wrappers() == []
    assert [p.attempted for p in passes] == [1, 1]
    assert passes[0].results_json == passes[1].results_json
    assert metrics["simulate.run_day.s"][0] > 0
    assert "trace.overhead_pct" in metrics


def test_setup_samples_are_taken_between_days_and_left_out_of_pass_time(
    fleet, monkeypatch, tmp_path
):
    monkeypatch.setattr(
        run, "prepare_bundle", lambda workload, seed, work: bundle.save_bundle(fleet, work / "bundle")
    )
    samples = []

    def slow_setup(root):
        time.sleep(0.2)
        samples.append(root)
        return 0.2

    monkeypatch.setattr(run, "time_setup", slow_setup)
    metrics, passes, problems = run.run_untraced(TINY, SEED, 0.0, tmp_path)
    assert problems == [] and len(passes) == 1
    assert len(samples) == run.SETUP_SAMPLES
    assert passes[0].wall_s - sum(passes[0].day_s) < 0.2
    assert metrics["setup_s"][0] == 0.2
    assert metrics["household_days_per_s"][0] == pytest.approx(1 / passes[0].wall_s)


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert leftover_wrappers() == []


def test_pass_writes_the_bytes_loadshift_run_writes(fleet, clean_pass, tmp_path):
    root = bundle.save_bundle(fleet, tmp_path / "bundle")
    loaded = bundle.load_bundle(root)
    assert cli.main(["run", "--bundle", str(root), "--out", str(tmp_path / "cli"),
                     "--seed", str(SEED)]) == 0
    ours = run_pass(loaded, tmp_path / "bench", SEED)
    assert (tmp_path / "cli" / "results.json").read_bytes() == ours.results_json
    assert ours.results_json == clean_pass.results_json


def test_run_without_the_program_fails_and_prints_no_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", "online-pv"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
