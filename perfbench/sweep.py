"""Run the benchmark over ten seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --traced --out perfbench/baseline.json

For every workload in ``BENCHMARK.json``, runs ``run.py`` once per seed
(seeds 1 to 10) with ``run_seconds`` from ``BENCHMARK.json``, then
reports each end-to-end metric's median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median.  A spread should stay below a
third of the metric's bound.  With ``--traced`` it adds one traced run
per workload at seed 1.  ``--out`` writes everything, with the machine
facts, as JSON.  This records the spread of one commit's runs; it does
not compare commits.
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


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed with code {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{proc.stdout}")
    machine = next(json.loads(ln[len("machine "):]) for ln in lines if ln.startswith("machine "))
    for ln in lines:
        if ln.startswith("unlisted "):
            result["metrics"].update(json.loads(ln[len("unlisted "):]))
    return result, machine


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        per_metric = {}
        attempted = []
        for seed in SEEDS:
            result, record["machine"] = run_once(spec, name, seed, 0)
            attempted.append(result["attempted"])
            for metric, v in result["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"ops_per_run": attempted,
                 "metrics": {k: summarise(v) for k, v in per_metric.items()}}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric, s in entry["metrics"].items():
            bound = bounds.get(metric)
            flag = ("not gated" if bound is None else "ok" if s["spread"] < bound / 3
                    else "WIDE" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {name:<14} {metric:<12} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}) {flag}", flush=True)
        if args.traced:
            traced, _ = run_once(spec, name, SEEDS[0], 1)
            entry["traced"] = {"seed": SEEDS[0], "attempted": traced["attempted"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
