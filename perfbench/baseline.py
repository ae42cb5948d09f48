"""Record a baseline: every workload over ten seeds, plus one traced run each.

    python3 perfbench/baseline.py        # writes perfbench/BASELINE.json

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  For each workload and
end-to-end metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
range as a share of the median, over ten untraced runs with seeds 1..10.
One traced run per workload (seed 1) gives the per-layer numbers, including
``trace.overhead_s``: mean traced minus mean untraced operation time within
that run.  Runs go one at a time, never in parallel.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
OUT = HERE / "BASELINE.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result object and its metadata line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return json.loads(lines[-1]), meta


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        results, metas = [], []
        for seed in range(1, RUNS + 1):
            result, meta = run_once(name, seed, seconds, 0)
            results.append(result)
            metas.append(meta)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {metric: {**summarize([r["metrics"][metric]["value"] for r in results]),
                               "bound": bound} for metric, bound in bounds.items()}
        traced, _ = run_once(name, 1, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer_seed1": layers,
            "metadata": metas,
        }
        for metric, stats in end_to_end.items():
            print(f"{name} {metric}: median {stats['median']:.4f} spread {stats['spread']:.3f} "
                  f"(bound {bounds[metric]})", flush=True)
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
