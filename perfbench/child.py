"""One round of one workload, in a fresh interpreter with cold caches.

Usage: child.py WORKLOAD SEED ROUND TRACE, with constel importable (run.py
puts the checkout's src/ on PYTHONPATH).  Prints one JSON line: attempted
and failed operations, wrong results, wall time from the first call into
constel until the last result is checked, the time of a fixed calibration
loop run in the same process before and after the workload, peak resident
set, a digest of the observed outputs and, when TRACE is 1, the per-layer
metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import sys
import traceback
from time import perf_counter

from constel import algebra, cli, contfrac, eulerian, hankel, paths, solver, verify

import spans
import workloads


def calibrate() -> float:
    """Time a fixed sparse polynomial product written in plain Python.

    It exercises what constel's inner loops do (tuple keys, dict updates,
    integer products) without calling constel, so the ratio of a round's
    wall time to it cancels the machine's speed at that moment.
    """
    rng = random.Random(5)
    # few distinct keys, so that the product stays small in memory
    a = [(tuple(sorted(rng.randrange(1, 6) for _ in range(4))), rng.randrange(1, 99))
         for _ in range(400)]
    b = [(tuple(sorted(rng.randrange(1, 6) for _ in range(3))), rng.randrange(1, 99))
         for _ in range(400)]
    # the collector is off so that the size of the workload's heap, which
    # sets the cost of a full collection, cannot leak into the calibration
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(2):
            out: dict = {}
            get = out.get
            for ka, ca in a:
                for kb, cb in b:
                    k = tuple(sorted(ka + kb))
                    out[k] = get(k, 0) + ca * cb
        return perf_counter() - start
    finally:
        gc.enable()


def main(argv) -> int:
    name, seed, round_no, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    mods = {"algebra": algebra, "paths": paths, "contfrac": contfrac,
            "hankel": hankel, "solver": solver, "eulerian": eulerian,
            "verify": verify, "cli": cli}
    ops = workloads.build(name, random.Random(f"{name}:{seed}:{round_no}"), mods)
    tracer = spans.Tracer().install(mods) if traced else None
    failed = wrong = 0
    observed = []
    calib_before = calibrate()
    start = perf_counter()
    for op_name, op in ops:
        try:
            observed.append(op())
        except workloads.Mismatch as exc:
            failed += 1
            wrong += 1
            observed.append(None)
            print(f"wrong result: {op_name}: {exc}", file=sys.stderr)
        except Exception:
            failed += 1
            observed.append(None)
            print(f"failed: {op_name}", file=sys.stderr)
            traceback.print_exc()
    wall = perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "wall_s": wall,
        "calib_s": (calib_before + calibrate()) / 2,
        "peak_rss_mib": peak_rss_mib,
        "digest": hashlib.sha256(json.dumps(observed).encode()).hexdigest(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
