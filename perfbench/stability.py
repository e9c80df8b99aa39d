"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 10]
                                   [--first-seed 1] [--seconds 20] [--trace 0]

Each run is one ``run.py`` invocation with its own seed, one at a time.
For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the bound in BENCHMARK.json, and the share of
failed operations, which must be the same in every run.  The bounds in
BENCHMARK.json are set from what this measures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((res["failed"] / res["attempted"], res["correct"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items() if k in bounds),
                flush=True)
        print(f"{workload}: failed share and correctness per run {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[f"{workload}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                             "spread": spread}
            bound = bounds.get(name)
            note = f"  bound {bound}  spread/bound {spread / bound:.2f}" if bound else ""
            print(f"  {name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:.4f}{note}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
