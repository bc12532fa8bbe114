"""Measure a baseline: every workload over several seeds, untraced, plus one
traced run per workload, summarized as median and quartiles per metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/out/baseline.json

Spread is (Q3 - Q1) / median over the seeds, with quartiles as
statistics.quantiles(values, n=4) gives them; it is the figure each
end-to-end metric's bound in BENCHMARK.json is set against.
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


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": [first, last], "workloads": {}}
    for name in args.workloads.split(","):
        values, fails = {}, 0
        for seed in range(first, last + 1):
            prov, res = run(name, seed, seconds, 0)
            fails += res["failed"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        _, traced = run(name, first, seconds, 1)
        out["provenance"] = {k: v for k, v in prov.items()
                             if k not in ("workload", "seed", "trace")}
        out["workloads"][name] = {
            "failed": fails,
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
