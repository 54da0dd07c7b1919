"""Measure the baseline: ten run seeds per workload, plus two traced runs each.

    python3 bench/prove.py                # writes bench/baseline.json
    python3 bench/prove.py --out check.json

For every workload and end-to-end metric it reports the median, the
quartiles and the spread (interquartile range over median) across run seeds.
It runs each workload traced twice at the default seed and checks that the
count metrics repeat exactly.  Runs alternate between workloads so that a
slow spell on the host is shared between them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("vqls.iterations_total", "vqls.restarts", "lorenz.build_nonlinear_system.calls",
          "circuit.run_ansatz.calls", "linalg.solve_dense.calls")
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180,
    )
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    print(workload, seed, f"trace={trace}", json.dumps(result)[:300], flush=True)
    return {"record": record, "result": result}


def describe(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    timed = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            timed[name].append(run(name, seed, seconds, 0))
    traced = {name: [run(name, 0, seconds, 1) for _ in range(2)] for name in names}

    report = {"run_seconds": seconds, "seeds": list(SEEDS),
              "environment": timed[names[0]][0]["record"], "workloads": {}}
    ok = True
    for name in names:
        results = [r["result"] for r in timed[name]]
        ok &= all(r["correct"] for r in results)
        end_to_end = {
            m["name"]: describe([r["metrics"][m["name"]]["value"] for r in results])
            for m in spec["end_to_end"]
        }
        first, second = (t["result"]["metrics"] for t in traced[name])
        repeat = {k: first[k]["value"] == second[k]["value"] for k in COUNTS}
        ok &= all(repeat.values()) and all(t["result"]["correct"] for t in traced[name])
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in first.items()},
            "counts_repeat": repeat,
        }
        for metric, d in end_to_end.items():
            print(f"{name:<10} {metric:<12} median {d['median']:.6g}  spread {d['spread']:.4f}")
        print(f"{name:<10} counts repeat: {repeat}")
    # Set-up time does not depend on the workload: pool its samples.
    setup = describe([r["result"]["metrics"]["setup_s"]["value"]
                      for name in names for r in timed[name]])
    report["setup_s_all_workloads"] = setup
    print(f"all        setup_s      median {setup['median']:.6g}  spread {setup['spread']:.4f}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
