#!/usr/bin/env python3
"""Run the benchmark once per seed and report the spread of each metric.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --baseline perfbench/baseline.json

Runs every workload of BENCHMARK.json once for each of the seeds 1-10, for
run_seconds each, one run at a time, from the checkout root.  For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, against the metric's bound in
BENCHMARK.json.  With --baseline it also makes one traced run per workload
(seed 1) and writes the medians, quartiles, spreads, the full layer tables
and the machine record to that file.
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
SEEDS = range(1, 11)
NOTE = ("Absolute times depend on the host's speed when they were measured and "
        "cannot be compared with times taken at another time. Compare a change with its "
        "parent only through alternating parent/change pairs run back to back; use this file "
        "for counts, spreads and layer shares.")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    machine = next((ln[len("machine "):].strip() for ln in lines
                    if ln.startswith("machine ")), "")
    return {"result": json.loads(lines[-1]), "machine": machine}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, traced = {}, {}
    machine = ""
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {name: [] for name in bounds}
        for seed in SEEDS:
            run = run_once(workload, seed, seconds)
            machine = run["machine"]
            res = run["result"]
            if not res["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: wrong answer")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v[-1]:.4f}" for k, v in values.items())
                + f"  failed={res['failed']}/{res['attempted']}", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(vals)}
            flag = "" if spread < bounds[name] / 3 else \
                "  <-- above bound/3" if spread < bounds[name] else "  <-- ABOVE BOUND"
            print(f"  {workload:<17} {name:<13} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {spread:.3f} (bound {bounds[name]}){flag}", flush=True)
        summary[workload] = rows
        if args.baseline:
            if not run_once(workload, SEEDS[0], seconds, trace=1)["result"]["correct"]:
                raise RuntimeError(f"{workload} traced run: wrong answer")
            layers = HERE / "out" / f"layers-{workload}-seed{SEEDS[0]}.json"
            traced[workload] = {"seed": SEEDS[0], "seconds": seconds,
                                "metrics": json.loads(layers.read_text())["metrics"]}
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "note": NOTE, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "seconds": seconds,
            "machine": machine, "workloads": summary, "traced": traced},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
