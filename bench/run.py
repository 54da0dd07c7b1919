"""Benchmark entry point.

    python3 bench/run.py --workload vqls-warm --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; the package is imported from ./src.  With
`--trace 0` the last stdout line is the end-to-end result; with `--trace 1`
the same jobs (at half size) run once untraced and once under span wrappers,
and the last line carries the per-layer metrics.  The line before it is a
JSON record of the environment and the run.  `--workload all` runs every
workload untraced in its own process, one after another, and prints a table.

Untraced runs time `calibrate()` around every job and rescale each job's
time to a nominal host speed; README.md explains why.
"""
from __future__ import annotations

import os

# Pin native thread pools before numpy loads: all load comes from this one
# process, single-threaded, so runs on a 2-CPU host do not compete with
# themselves.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919    # never used while tuning: check claims on it too
SETUP_SAMPLES = 15
SETUP_CODE = "import lorenz_vqls, lorenz_vqls.cli"
# Seconds one `calibrate()` takes on the 2-vCPU 2.1 GHz Xeon VM the baseline
# was measured on; it fixes the scale of a reference second.
CALIBRATION_NOMINAL_S = 0.03
CALIBRATION_LOOPS = 1500


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import lorenz_vqls from this checkout's src/, and nothing else."""
    if not (SRC / "lorenz_vqls" / "__init__.py").is_file():
        fail(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import lorenz_vqls

    if not Path(lorenz_vqls.__file__).resolve().is_relative_to(SRC):
        fail(f"lorenz_vqls imported from {lorenz_vqls.__file__}, not {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the package and CLI.

    Each sample's wall time is rescaled to the nominal host speed by the
    `calibrate()` times around it, as job times are.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = calibrate()
        samples.append(wall * CALIBRATION_NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def environment(seed: int, solver_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed, "solver_seed": solver_seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def calibrate() -> float:
    """Time a fixed loop of the program's kind of work, but not its code.

    Each pass applies three 2x2 gates to a 3-qubit state with einsum, as the
    ansatz does, takes a forward-Euler Lorenz step in Python floats, and
    multiplies by an 8x8 matrix.  The host's speed drifts by 20-40% over
    minutes and this loop drifts with it, so a run divides each job's time
    by the loop times measured around it.
    """
    gate = np.array([[0.6, -0.8j], [0.8, 0.6j]])
    ring = np.array([0, 1, 3, 2, 6, 7, 5, 4])
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[0, 0, 0] = 1.0
    a = np.eye(8) + 0.1
    v = np.ones(8)
    x, y, z, h = 1.0, -2.0, 4.0, 1e-3
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        psi = np.einsum("ad,be,cf,def->abc", gate, gate, gate, psi).reshape(-1)[ring]
        psi = (psi / np.linalg.norm(psi)).reshape(2, 2, 2)
        x, y, z = (x + h * 10 * (y - x), y + h * (x * (28 - z) - y),
                   z + h * (x * y - 8 / 3 * z))
        v = a @ v
        v = v / float(np.linalg.norm(v))
    return time.perf_counter() - t0


def run_pass(rounds, workdir, seed, calibrations=None):
    """Run every round once; the check sample is re-seeded so passes agree.

    With `calibrations`, `calibrate()` runs before the first job and after
    every job, and its times are appended there: job i of the flattened
    pass ran between calibrations i and i + 1 of that pass.
    """
    rng = np.random.default_rng(seed)
    done = []
    for jobs in rounds:
        results = []
        for job in jobs:
            if calibrations is not None and not calibrations:
                calibrations.append(calibrate())
            results.append(job.run(workdir, rng))
            if calibrations is not None:
                calibrations.append(calibrate())
        done.append(results)
    return done


def timed_run(plan, seconds, workdir, seed):
    """Run passes of `plan(first)`, the rounds numbered from `first`, while
    another pass still fits in `seconds`.  Each pass takes the next rounds,
    so none repeats another's inputs.

    Returns each round's results, the calibration times around the jobs and
    the number of passes.
    """
    done, wall, calibrations, passes = [], 0.0, [], 0
    while True:
        batch = run_pass(plan(len(done)), workdir, seed, calibrations)
        done += batch
        passes += 1
        pass_wall = sum(r.wall_s for results in batch for r in results)
        wall += pass_wall
        if wall + pass_wall > seconds:
            return done, calibrations, passes


def reference_seconds(results, calibrations) -> float:
    """Time inside the program, each job rescaled to the nominal host speed."""
    return sum(
        r.wall_s * CALIBRATION_NOMINAL_S / ((before + after) / 2)
        for r, before, after in zip(results, calibrations, calibrations[1:])
    )


def traced_run(rounds, workdir, seed, spans_path):
    """An untraced pass, then the same rounds traced; both passes' results and
    the per-layer metrics.  Traced outputs that differ fail every traced step."""
    plain = [r for results in run_pass(rounds, workdir, seed) for r in results]
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        traced = [r for results in run_pass(rounds, workdir, seed) for r in results]
    traced_wall = time.perf_counter() - t0
    tracer.save(spans_path)
    metrics = tracer.layer_metrics(traced_wall)
    metrics["trace.overhead_frac"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1
    )
    metrics["cli.csv_bytes"] = sum(r.csv_bytes for r in traced)
    if [r.digests for r in plain] != [r.digests for r in traced]:
        for r in traced:
            r.failed = r.steps
            r.problems.append("traced outputs differ from untraced outputs")
    return plain, traced, metrics


def quality(results) -> dict:
    """VQLS solution quality; None for workloads that run no VQLS."""
    residuals = [x for r in results for x in r.residuals]
    rel = [r.rel_err for r in results if r.rel_err is not None]
    return {
        "max_residual": max(residuals, default=None),
        "mean_rel_err": statistics.fmean(rel) if rel else None,
    }


def run_workload(name, seed, solver_seed, seconds, trace) -> tuple[dict, dict]:
    """One benchmark run: the environment/run record and the result object."""
    record = environment(seed, solver_seed)
    record.update(workload=name, seconds=seconds, trace=trace)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            rounds = WORKLOADS[name](seed, solver_seed, seconds / 2)
            plain, traced, metrics = traced_run(
                rounds, workdir, seed, WORK / f"spans-{name}.npz"
            )
            results = plain + traced
            q = quality(traced)
            metrics["vqls.max_residual"] = q["max_residual"] or 0.0
            metrics["analysis.mean_rel_err"] = q["mean_rel_err"] or 0.0
        else:
            setup_s = measure_setup()
            plan = functools.partial(WORKLOADS[name], seed, solver_seed, seconds)
            done, calibrations, passes = timed_run(plan, seconds, workdir, seed)
            results = [r for round_results in done for r in round_results]
            steps = sum(r.steps for r in results)
            wall = sum(r.wall_s for r in results)
            metrics = {
                "steps_per_ref_s": steps / reference_seconds(results, calibrations),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
            record.update(passes=passes, rounds=len(done), wall_s=wall,
                          steps_per_s=steps / wall,
                          calibration_s=statistics.median(calibrations))
            q = quality(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.steps for r in results)
    failed = sum(r.failed for r in results)
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    record.update(q, fail_frac=failed / attempted,
                  problems=[p for r in results for p in r.problems][:20])
    units = load_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(seed, solver_seed, seconds) -> int:
    """Every workload untraced, each in a fresh process, then one table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--solver-seed", str(solver_seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-2]), json.loads(lines[-1])))
    for name, record, result in rows:
        print(f"{name}  seed={record['seed']}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        extra = {"fail_frac": record["fail_frac"], "max_residual": record["max_residual"],
                 "mean_rel_err": record["mean_rel_err"]}
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        metrics.update({k: (v, "1") for k, v in extra.items() if v is not None})
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<14} {value:>14.6g} {unit}")
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="run seed: inputs of the classical workload, check samples")
    parser.add_argument("--solver-seed", type=int, default=DEFAULT_SEED,
                        help="solver seed of the VQLS workload")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.solver_seed, args.seconds)
    record, result = run_workload(
        args.workload, args.seed, args.solver_seed, args.seconds, args.trace
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_package()
    import numpy as np
    from spans import Tracer
    from workloads import WORKLOADS

    sys.exit(main())
