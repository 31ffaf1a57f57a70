"""Runs the benchmark several times and summarises the runs.

    python3 perfbench/record.py --workload verify-n5 tables --seeds 1 2 3 \
        --traced 2 --out perfbench/trajectory/NAME.json

For each workload, run.py runs once per seed untraced; for each
end-to-end metric this prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  Then the
traced run repeats --traced times, and every count must come out the same
each time.  --out writes the environment, every run's metrics and the
summary as one JSON file: a point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    env = next(line["environment"] for line in lines if "environment" in line)
    info = next(line["info"] for line in lines if "info" in line)
    return env, info, lines[-1]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def record(workload: str, seeds: list, traced: int, spec: dict) -> dict:
    runs = []
    for seed in seeds:
        env, info, result = run(workload, seed, spec["run_seconds"], 0)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect output: {result}")
        runs.append({"seed": seed, "environment": env, "info": info, "result": result})
        print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    out = {"runs": runs, "end_to_end": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = summary([r["result"]["metrics"][name]["value"] for r in runs])
        out["end_to_end"][name] = {**stats, "unit": metric["unit"], "bound": metric["bound"]}
        flag = "" if stats["spread"] < metric["bound"] / 3 else "  (above a third of the bound)"
        print(f"  {name:12s} median {stats['median']:.4f} spread {stats['spread']:.3f} "
              f"bound {metric['bound']}{flag}", flush=True)
    traces = []
    for i in range(traced):
        env, info, result = run(workload, seeds[i % len(seeds)], spec["run_seconds"], 1)
        if not result["correct"]:
            raise SystemExit(f"{workload} traced: incorrect output: {result}")
        traces.append({"environment": env, "info": info, "result": result})
    if traces:
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items() if v["unit"] == "count"}
                  for t in traces]
        out["counts_repeat"] = all(c == counts[0] for c in counts)
        out["per_layer"] = traces[0]["result"]["metrics"]
        out["traces"] = traces
        print(f"  traced x{traced}: counts repeat: {out['counts_repeat']}, "
              f"overhead {[round(t['result']['metrics']['trace.overhead_s']['value'], 2) for t in traces]}",
              flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"workloads": {w: record(w, args.seeds, args.traced, spec) for w in args.workload}}
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
