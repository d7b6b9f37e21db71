"""Seeded fleet benchmark for loadshift.

Run from the repository root::

    python3 perfbench/run.py --workload offline-pv --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates the workload's seeded bundle in a child process (not
timed), loads it, then times what ``loadshift run`` does, step by step,
through the public API: passes of one ``run_day`` per household-day (as
``run_fleet(workers=1)`` does, but one at a time so that a failure is
counted instead of aborting), the ``results.json`` write,
``compute_metrics`` and ``write_report``.  No household-day runs before
timing: ``loadshift run`` pays its first-call costs once per process
too.  A further pass starts only while it is expected to end within
``--seconds``, so a run measures at least one pass and at most about
``--seconds``.  Set-up (``import loadshift`` plus ``load_bundle`` in a
fresh interpreter) is sampled several times, spread between the
household-days of the first pass and left out of the pass times, and
reported as the median.  Every pass is checked (see ``bench_checks.py``)
and must write the same ``results.json`` bytes.  This process only loads
the bundle once and runs the passes, so its peak RSS is that of one
``loadshift run``.

BLAS runs on one thread unless the environment already sets the BLAS thread
variables: with one thread per process the figures stay steady on a small
shared machine, where a second BLAS thread waits on whatever else the host
runs.  The variables are set before numpy is imported here or in any child.

BENCHMARK.json gates ``offline-pv`` and ``online-pv``; ``online-dense`` runs
the same way but is not gated (``baseline.json`` says why, and records each
workload's purpose, traced layer shares and ``results.json`` hashes).
``--workload all`` runs the three, each in its own process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
household-day twice, untraced and traced in alternating order, and prints
the per-layer metrics from the spans (see ``bench_trace.py``).  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an output check fails and 2 when ``src/loadshift`` is not under the current
directory.  Scratch files go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # spread between the household-days of the first pass
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); import loadshift; "
    "loadshift.load_bundle(sys.argv[1]); print(time.perf_counter() - t)"
)


@dataclass
class PassResult:
    wall_s: float  # run_day calls, failed ones too, plus results.json and report
    day_s: list[float]
    attempted: int
    failed: int
    results: tuple
    report: object
    results_json: bytes


def household_days(fleet) -> list:
    return [(household, day) for household in fleet.households for day in fleet.days]


def run_household_day(fleet, household, day, seed: int, tracer=None):
    """``(seconds, result)`` of one ``run_day``; the result is None if it raised."""
    from loadshift import simulate

    if tracer is not None:
        tracer.task = f"{household.id} {day.isoformat()}"
    t0 = time.perf_counter()
    try:
        result = simulate.run_day(household, day, fleet.pricing, fleet.mode, simulate.RunParams(), seed)
    except Exception:  # a fleet run counts a failed household-day and goes on
        traceback.print_exc()
        result = None
    finally:
        if tracer is not None:
            tracer.task = None
    return time.perf_counter() - t0, result


def close_pass(fleet, outcomes, out_dir: Path, seed: int, tracer=None) -> PassResult:
    """Write ``results.json`` and the report for the household-day outcomes."""
    from loadshift import cli, metrics

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    done = [(seconds, result) for seconds, result in outcomes if result is not None]
    results = tuple(sorted((r for _, r in done), key=lambda r: (r.household_id, r.day)))
    out_dir.mkdir(parents=True, exist_ok=True)
    with span("cli.results_json"):
        doc = cli._results_doc(fleet, results, seed)
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        (out_dir / "results.json").write_bytes(data)
    report = metrics.compute_metrics(results, fleet.pricing)
    metrics.write_report(report, out_dir)
    return PassResult(
        wall_s=sum(seconds for seconds, _ in outcomes) + time.perf_counter() - t0,
        day_s=[seconds for seconds, _ in done],
        attempted=len(outcomes),
        failed=len(outcomes) - len(done),
        results=results,
        report=report,
        results_json=data,
    )


def run_pass(fleet, out_dir: Path, seed: int, tracer=None, before_day=None) -> PassResult:
    """One ``loadshift run`` over the loaded fleet, from first day to report.

    ``before_day(i)``, if given, runs before the i-th household-day, outside
    the pass's timed wall time.
    """
    outcomes = []
    for i, (household, day) in enumerate(household_days(fleet)):
        if before_day is not None:
            before_day(i)
        outcomes.append(run_household_day(fleet, household, day, seed, tracer))
    return close_pass(fleet, outcomes, out_dir, seed, tracer)


def check_passes(fleet, passes: list[PassResult]) -> list[str]:
    from bench_checks import check_report, check_results

    problems = []
    for i, p in enumerate(passes):
        found = check_results(fleet, p.results) + check_report(p.report, len(p.results))
        problems += [f"pass {i}: {problem}" for problem in found]
        if p.results_json != passes[0].results_json:
            problems.append(f"pass {i}: results.json bytes differ from pass 0")
    return problems


def child(args: list[str]) -> str:
    """Standard output of a fresh interpreter run with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return done.stdout


def time_setup(root: Path) -> float:
    """Seconds a fresh interpreter spends in ``import loadshift`` plus ``load_bundle``."""
    return float(child(["-c", SETUP_PROBE, str(root)]).split()[-1])


def prepare_bundle(workload, seed: int, work: Path) -> Path:
    """Generate and save the seeded bundle in a child process, off this one's peak RSS."""
    script = HERE / "bench_workloads.py"
    return Path(child([str(script), workload.name, str(seed), str(work / "bundle")]).split()[-1])


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": None,
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
    }
    try:
        facts["cgroup_cpu_max"] = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return facts


def recorded_hash(workload: str, seed: int) -> str | None:
    doc = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    return doc["results_sha256"].get(workload, {}).get(str(seed))


def show(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<36} {value:>12.6g} {unit:<6} {note}".rstrip())


def run_untraced(workload, seed: int, seconds: float, work: Path):
    """Set-up timings and timed passes; returns (metrics, passes, problems)."""
    from loadshift import bundle

    root = prepare_bundle(workload, seed, work)
    fleet = bundle.load_bundle(root)

    count = len(household_days(fleet))
    due = Counter(i * count // SETUP_SAMPLES for i in range(SETUP_SAMPLES))
    setup_samples = []

    def between_days(i):
        setup_samples.extend(time_setup(root) for _ in range(due[i]))

    passes: list[PassResult] = []
    wall = 0.0
    while not passes or wall + wall / len(passes) <= seconds:
        sampler = None if passes else between_days
        passes.append(run_pass(fleet, work / f"pass{len(passes)}", seed, before_day=sampler))
        wall += passes[-1].wall_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_passes(fleet, passes)

    days = sum(len(p.results) for p in passes)
    day_s = [t for p in passes for t in p.day_s]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    agg = passes[0].report.fleet
    metrics = {
        "setup_s": (
            statistics.median(setup_samples), "s",
            f"median of {len(setup_samples)} set-ups in fresh interpreters",
        ),
        "household_days_per_s": (
            days / wall, "1/s", f"{days} household-days in {len(passes)} pass(es), {wall:.2f} s",
        ),
        "household_day_p50_s": (
            statistics.median(day_s) if day_s else 0.0, "s", f"median of {len(day_s)} household-days"
        ),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the process that loads the bundle and runs"),
        "completed_frac": (
            (attempted - failed) / attempted, "ratio",
            f"failed_frac {failed / attempted:.6g}: {failed} of {attempted} household-days raised",
        ),
        "peak_reduction_pct": (agg.peak_reduction_pct, "%", "fleet aggregate"),
        "bill_reduction_pct": (agg.bill_reduction_pct, "%", "fleet aggregate"),
        "load_factor_after": (agg.load_factor_after, "ratio", "fleet aggregate"),
    }
    print(f"{workload.name} seed {seed}: {len(fleet.households)} households x {len(fleet.days)} day(s), {fleet.mode}")
    for name, (value, unit, note) in metrics.items():
        show(name, value, unit, f"({note})")
    return metrics, passes, problems


def run_traced(workload, seed: int, work: Path):
    """Each household-day untraced and traced, alternating which goes first.

    Alternating and comparing per household-day keeps warm-up and slow
    machine periods from biasing ``trace.overhead_pct``, which is the median
    over household-days of traced over untraced ``run_day`` time.  Returns
    (metrics, passes, problems).
    """
    from bench_trace import Tracer, layer_metrics, leftover_wrappers
    from loadshift import bundle

    root = prepare_bundle(workload, seed, work)
    bundle_bytes = sum(f.stat().st_size for f in root.rglob("*") if f.is_file())
    fleet = bundle.load_bundle(root)
    tracer = Tracer()
    with tracer:
        bundle.load_bundle(root)
    plain, traced = [], []
    for i, (household, day) in enumerate(household_days(fleet)):
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer:
                    traced.append(run_household_day(fleet, household, day, seed, tracer))
            else:
                plain.append(run_household_day(fleet, household, day, seed))
    untraced_pass = close_pass(fleet, plain, work / "untraced", seed)
    with tracer:
        traced_pass = close_pass(fleet, traced, work / "traced", seed, tracer)
    problems = check_passes(fleet, [untraced_pass, traced_pass])
    problems += [f"wrapper left installed: {name}" for name in leftover_wrappers()]

    ratios = [t / u for (t, r), (u, q) in zip(traced, plain) if r is not None and q is not None]
    metrics = layer_metrics(tracer.spans)
    metrics["bundle.bytes"] = (bundle_bytes, "B")
    metrics["cli.results_json.bytes"] = (len(traced_pass.results_json), "B")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    spans_path = WORK / f"trace-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]) + "\n", encoding="utf-8")

    print(f"{workload.name} seed {seed}: traced household-days, {len(tracer.spans)} spans in {spans_path}")
    for name, (value, unit) in metrics.items():
        show(name, value, unit, "")
    return {k: (v, u, "") for k, (v, u) in metrics.items()}, [untraced_pass, traced_pass], problems


def run_one(args) -> int:
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=WORK))
    try:
        if args.trace:
            metrics, passes, problems = run_traced(workload, args.seed, work)
        else:
            metrics, passes, problems = run_untraced(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = hashlib.sha256(passes[0].results_json).hexdigest()
    recorded = recorded_hash(workload.name, args.seed)
    verdict = (
        "no hash recorded for this seed" if recorded is None
        else "matches the recorded hash" if recorded == digest
        else f"DIFFERS from the recorded {recorded}"
    )
    print(f"results.json sha256 {digest} ({verdict}; {len(passes)} pass(es) compared)")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(p.attempted for p in passes),
                "failed": sum(p.failed for p in passes),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 1 if problems else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    from bench_workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, done.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="offline-pv, online-pv, online-dense or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "loadshift" / "__init__.py").is_file():
        print(f"perfbench: no {SRC / 'loadshift'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
