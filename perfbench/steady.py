"""Steadiness check: run every workload repeatedly and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed-base 1]
                                [--seconds S] [--out results.json]

Round ``i`` runs each workload once with seed ``seed-base + i``; the
workload order alternates between rounds so slow drift of the machine
does not land on one workload. For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``, plus each run's failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=400)
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    noise = [line for line in lines if line.startswith("noise ")]
    result["noise"] = json.loads(noise[-1][len("noise "):]) if noise else {}
    result["noise"]["wall_s"] = wall_s
    return result


def summarize(results: dict, spec: dict) -> bool:
    """Print the table; returns whether every spread is within its bound."""
    steady = True
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, all correct: {correct}, failed shares: {shares}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            within = spread <= metric["bound"]
            steady &= within
            flag = "ok" if spread < metric["bound"] / 3 else ("within" if within else "OVER")
            print(f"  {metric['name']:<20} median {median:10.4f} {metric['unit']:<9}"
                  f" q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f}"
                  f" bound {metric['bound']:.2f} {flag}")
    return steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="also write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, args.seed_base + index, args.seconds)
            results[workload].append(result)
            print(f"round {index} {workload}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + " noise " + json.dumps(result["noise"]), flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if summarize(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
