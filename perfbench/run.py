"""constel benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding constel's source under src/.  The
run repeats whole rounds of the workload, each in a fresh child
interpreter with cold caches, until S seconds have passed, one child at a
time.  With --trace 0 it reports the end-to-end metrics wall_s (median
over rounds), setup_s (median over spawns of a fresh interpreter that
imports constel), both at reference speed (see CALIB_REF_S), and
peak_rss_mib (median over rounds).  With --trace 1
it alternates untraced and traced rounds and reports the per-layer metrics
as medians over the traced rounds, with the tracing overhead (median traced
wall time over median untraced wall time).
Every metric is printed by name with its unit; the last line of stdout is
one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import selftest
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 15
DEADLINE_S = 170.0   # the whole run, children included, ends before this
# Times are reported at a reference speed: the machine this benchmark was
# written on drifts by 10-50% within minutes, and every child times a fixed
# calibration loop (child.calibrate) in its own process.  A time t measured
# while the loop took c seconds is reported as t * CALIB_REF_S / c, i.e. in
# seconds on a machine where the loop takes CALIB_REF_S.
CALIB_REF_S = 0.3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _env(round_seed=None):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if round_seed is not None:
        env["PYTHONHASHSEED"] = str(round_seed)
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports constel."""
    argv = [sys.executable, "-c", "import constel"]
    env = _env()
    times = []
    for k in range(SETUP_SPAWNS + 1):  # the first spawn only warms the file cache
        t0 = perf_counter()
        # no timeout: with one, wait() polls with sleeps of up to 50 ms,
        # which would quantise the measurement
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def run_round(workload, seed, round_no, traced, timeout):
    """One child round; returns its result dict, or None if it died."""
    hash_seed = random.Random(f"hash:{seed}:{round_no}").randrange(1 << 32)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            str(round_no), "1" if traced else "0"]
    try:
        proc = subprocess.run(argv, env=_env(hash_seed), cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        print(f"round {round_no}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round {round_no}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    begin = perf_counter()

    if not (ROOT / "src" / "constel" / "__init__.py").is_file():
        print(f"perfbench: no constel source at {ROOT / 'src' / 'constel'}",
              file=sys.stderr)
        return 2
    failures = selftest.run(args.seed)
    if failures:
        print(f"perfbench: oracle self-tests failed: {failures}", file=sys.stderr)
        return 3

    setup_s = None if args.trace else measure_setup()
    rounds, dead = [], 0
    clock = perf_counter()
    while (not rounds or perf_counter() - clock < args.seconds
           or (args.trace and not any(r["traced"] for r in rounds))):
        # traced and untraced rounds alternate, so that the overhead ratio
        # compares rounds measured under the same machine conditions
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = perf_counter()
        res = run_round(args.workload, args.seed, len(rounds) + dead, traced,
                        max(1.0, DEADLINE_S - (perf_counter() - begin)))
        if res is None:
            dead += 1
            if perf_counter() - begin > DEADLINE_S or dead > 2:
                break
            continue
        res["traced"] = traced
        rounds.append(res)
        print(f"round {len(rounds) - 1}: wall {res['wall_s']:.4f} s"
              f"  calibration {res['calib_s']:.4f} s{' traced' if traced else ''}",
              file=sys.stderr)
        if perf_counter() - begin > DEADLINE_S - 2 * (perf_counter() - t0):
            break
    if args.trace and not any(r["traced"] for r in rounds) and rounds:
        print("perfbench: no traced round finished", file=sys.stderr)
        return 1
    if not rounds:
        print("perfbench: every round died", file=sys.stderr)
        return 1

    per_round = rounds[0]["attempted"]
    attempted = sum(r["attempted"] for r in rounds) + dead * per_round
    failed = sum(r["failed"] for r in rounds) + dead * per_round
    digests = {r["digest"] for r in rounds}
    correct = dead == 0 and not any(r["wrong"] for r in rounds) and len(digests) == 1
    if len(digests) != 1:
        print("perfbench: outputs differ between rounds (or under tracing)",
              file=sys.stderr)

    def scaled_wall(rs):
        return statistics.median(r["wall_s"] / r["calib_s"] for r in rs) * CALIB_REF_S

    calib_s = statistics.median(r["calib_s"] for r in rounds)
    metrics = {}
    if args.trace:
        plain = [r for r in rounds if not r["traced"]]
        traced_rounds = [r for r in rounds if r["traced"]]
        for name, unit, _ in spans.PER_LAYER:
            if name == "trace.overhead":
                value = scaled_wall(traced_rounds) / scaled_wall(plain)
            else:
                value = statistics.median(r["layers"][name] for r in traced_rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics["wall_s"] = scaled_wall(rounds)
        metrics["setup_s"] = setup_s * CALIB_REF_S / calib_s
        metrics["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in rounds)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  (traced {sum(r['traced'] for r in rounds)})  dead {dead}")
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(f"as measured: median wall {statistics.median(r['wall_s'] for r in rounds):.6g} s"
          f"  calibration {calib_s:.6g} s (reference {CALIB_REF_S} s)"
          + ("" if setup_s is None else f"  setup {setup_s:.6g} s"))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
