"""constel BENCH file: end-to-end numbers for a list of commits, one row each.

    python3 bench/run.py --out BENCH_31.json \
        --rev seed=cacbfcb --rev parent=6728855 --rev change=WORKTREE

Each ``--rev LABEL=REV`` is unpacked with ``git archive`` into a work
directory (``WORKTREE`` copies the checkout's tracked and unignored files
as they are on disk), and every number of its row is taken from that
copy: its own source, its own tests and its own perfbench.  Children run
one at a time, and each repeated measurement visits the revisions in
turn, so machine drift falls on every row alike.  Stdlib only.  A row
holds:

- ``tier1``: wall time of the tier-1 pytest run, its summary line, and
  each acceptance criterion's elapsed time (from its ``PASS`` line);
- ``verify_all``: the default ``constel verify-all``, the median wall
  time and max RSS (``os.wait4``) over ``SPAWNS`` runs, and the
  SHA-256 of its stdout;
- ``perfbench``: per workload, the median over ``PERF_RUNS`` runs of
  ``perfbench/run.py`` of ``wall_s`` and ``peak_rss_mib``, the minimum
  and the median of ``setup_s``, and the failed operations;
- ``import``: the median wall time over ``SPAWNS`` spawns of a fresh
  interpreter that runs nothing (``interpreter_s``), and of one that
  imports constel, compiling the package from source and reading its
  cached bytecode; the heap the import retains (tracemalloc); and which
  of a few heavy stdlib modules it loads;
- ``large``: each CLI size in ``LARGE``, run ``LARGE_RUNS`` times under a
  time cap and an address-space cap (``MEMORY_CAP``): the median wall time
  and max RSS, and every run's exit code and ``capped``, which is
  ``"time"`` or ``"memory"`` for a run that hit a cap (its time is then
  the cap's, not the size's).  The revisions take turns on each size, and
  which goes first alternates from run to run.

A row replaces the row of its label in ``--out`` and keeps the others,
so a later change adds its own row to a BENCH file.  Timings are one
machine's: compare rows of one file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("walk_fraction", "hankel_ladder", "solver_series", "verify_all")
# (CLI arguments, time cap in s): the large sizes of ROADMAP item 1, and three
# inputs whose monomials no packed key can hold, which should fail at once
LARGE = [
    ("invert --p 3 --i 25", 120),
    ("hankel --p 3 --m 1 --n 8", 120),
    ("contfrac --p 3 --order 12", 120),
    ("contfrac --p 3 --order 12 --json", 120),
    ("fn --p 3 --n 11 --json", 120),
    ("fn --p 70000 --n 1", 15),
    ("contfrac --p 70000 --order 1", 15),
    ("lgv --p 70000 --m 0 --n 1", 15),
]
MEMORY_CAP = 2 << 30  # bytes of address space for each large-size child
LARGE_RUNS = 3  # runs of each large size per revision
PERF_RUNS, PERF_SECONDS = 3, 5.0  # perfbench runs per workload, and their --seconds
SPAWNS = 15  # verify-all runs, and interpreter spawns per import mode
HEAVY = ("ast", "dataclasses", "decimal", "dis", "fractions", "inspect")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(rev: str, dest: Path) -> str:
    """Put the files of ``rev`` under ``dest``; returns the row's commit."""
    if rev == "WORKTREE":
        listed = _git("ls-files", "-co", "--exclude-standard", "-z")
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return _git("rev-parse", "HEAD") + "+worktree"
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench: git archive {rev} failed")
    return _git("rev-parse", rev)


def _env(tree: Path, bytecode: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def timed(argv, tree: Path, env: dict, stdout=subprocess.DEVNULL,
          cap_s: float | None = None, memory: int | None = None) -> dict:
    """Run argv in ``tree``: wall time, max RSS (``os.wait4``), exit code,
    the last stderr line, and which cap it hit, if any."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=tree, env=env, stdout=stdout,
                            stderr=subprocess.PIPE,
                            preexec_fn=limit if memory else None)
    timer = threading.Timer(cap_s, proc.kill) if cap_s else None
    if timer:
        timer.start()
    err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    proc.stderr.close()
    capped = None
    if timer:
        timer.cancel()
        if proc.returncode == -9:
            capped = "time"
    if "MemoryError" in err or "out of memory" in err:
        capped = "memory"
    lines = err.strip().splitlines()
    return {"wall_s": round(wall, 4), "max_rss_mib": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode, "capped": capped,
            "stderr_tail": lines[-1][:200] if lines else ""}


def tier1(tree: Path) -> dict:
    with tempfile.TemporaryFile() as out:
        run = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"], tree, _env(tree), stdout=out)
        out.seek(0)
        text = out.read().decode(errors="replace")
    summary = [line for line in text.splitlines()
               if re.search(r"\d+ (passed|failed)", line)]
    return {"wall_s": run["wall_s"], "exit": run["exit"],
            "summary": summary[-1].strip("= ") if summary else "",
            "acceptance_s": {m[1]: float(m[2]) for m in
                             re.finditer(r"PASS ([^\n(]+) \(([\d.]+)s\)", text)}}


def verify_all(tree: Path) -> dict:
    with tempfile.TemporaryFile() as out:
        run = timed([sys.executable, "-m", "constel", "verify-all"], tree, _env(tree),
                    stdout=out)
        out.seek(0)
        text = out.read()
    run["sha256"] = hashlib.sha256(text).hexdigest()
    run["last_line"] = text.decode().strip().splitlines()[-1]
    return run


def perfbench(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(PERF_SECONDS)],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"}
    return json.loads(lines[-1])


def import_times(trees: dict) -> dict:
    """Per revision, the median wall time over ``SPAWNS`` spawns of a bare
    interpreter, of ``import constel`` compiled from source, and of the
    import read from bytecode that one earlier run wrote under a pycache
    prefix of its own, so the source tree never holds any.  The spawns of
    every revision and mode interleave."""
    modes = (("interpreter_s", "pass", False),
             ("from_source_s", "import constel", False),
             ("cached_bytecode_s", "import constel", True))
    prefix = {label: {"PYTHONPYCACHEPREFIX": str(tree / ".bytecode")}
              for label, tree in trees.items()}
    for label, tree in trees.items():
        subprocess.run([sys.executable, "-c", "import constel"], cwd=tree,
                       env=_env(tree, True) | prefix[label], check=True)
    times = {label: {mode: [] for mode, _, _ in modes} for label in trees}
    for _ in range(SPAWNS):
        for label, tree in trees.items():
            for mode, code, cached in modes:
                env = _env(tree) | (prefix[label] if cached else {})
                times[label][mode].append(
                    timed([sys.executable, "-B", "-c", code], tree, env)["wall_s"])
    return {label: {mode: round(statistics.median(ts), 4) for mode, ts in by_mode.items()}
            for label, by_mode in times.items()}


def import_heap(tree: Path) -> dict:
    code = ("import json, sys, tracemalloc; tracemalloc.start(); import constel; "
            "print(tracemalloc.get_traced_memory()[0]); "
            f"print(json.dumps(sorted(set({HEAVY!r}) & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-B", "-c", code], cwd=tree, env=_env(tree),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    return {"retained_kib": round(int(out[0]) / 1024), "heavy_modules": json.loads(out[1])}


def large(trees: dict) -> dict:
    """Per revision, each size of ``LARGE`` run ``LARGE_RUNS`` times.  The
    revisions take turns on a size, the first of one run last in the next,
    as perfbench's alternating pairs do, so a slow phase of the machine
    falls on every revision alike instead of on one whole row."""
    rows = {label: [] for label in trees}
    for cli, cap in LARGE:
        order, runs = list(trees.items()), {label: [] for label in trees}
        for rep in range(LARGE_RUNS):
            for label, tree in order if rep % 2 == 0 else order[::-1]:
                print(f"bench: {label} large {cli}", file=sys.stderr, flush=True)
                runs[label].append(timed([sys.executable, "-m", "constel", *cli.split()],
                                         tree, _env(tree), cap_s=cap, memory=MEMORY_CAP))
        for label, samples in runs.items():
            rows[label].append({
                "argv": cli, "cap_s": cap,
                "wall_s": statistics.median(s["wall_s"] for s in samples),
                "max_rss_mib": statistics.median(s["max_rss_mib"] for s in samples),
                "exit": [s["exit"] for s in samples],
                "capped": [s["capped"] for s in samples],
                "stderr_tail": samples[-1]["stderr_tail"]})
    return rows


def _perf_summary(samples: list[dict]) -> dict:
    errors = [s["error"] for s in samples if "error" in s]
    good = [s for s in samples if "error" not in s]
    if not good:
        return {"errors": errors}
    metric = {name: [s["metrics"][name]["value"] for s in good]
              for name in ("wall_s", "setup_s", "peak_rss_mib")}
    return {"runs": len(good), "errors": errors,
            "wall_s": round(statistics.median(metric["wall_s"]), 5),
            "peak_rss_mib": round(statistics.median(metric["peak_rss_mib"]), 3),
            "setup_s_min": round(min(metric["setup_s"]), 4),
            "setup_s_median": round(statistics.median(metric["setup_s"]), 4),
            "correct": all(s["correct"] for s in good),
            "failed": sum(s["failed"] for s in good)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", action="append", required=True,
                    help="LABEL=REV, REV a git revision or WORKTREE; repeatable")
    ap.add_argument("--out", required=True, help="the BENCH JSON file to merge into")
    args = ap.parse_args(argv)
    settings = {"perf_runs": PERF_RUNS, "perf_seconds": PERF_SECONDS, "spawns": SPAWNS,
                "memory_cap_bytes": MEMORY_CAP, "large_runs": LARGE_RUNS}

    with tempfile.TemporaryDirectory(prefix="constel-bench-") as work:
        trees, rows = {}, {}
        for spec in args.rev:
            label, _, rev = spec.rpartition("=")
            tree = Path(work) / (label or rev)
            tree.mkdir()
            trees[label or rev] = tree
            rows[label or rev] = {
                "label": label or rev, "commit": unpack(rev, tree),
                "python": platform.python_version(), "cores": os.cpu_count(),
                "platform": platform.platform(), "settings": settings}

        def each(name, measure):
            # one pass over the revisions; repeated passes interleave them
            out = {}
            for label, tree in trees.items():
                print(f"bench: {label} {name}", file=sys.stderr, flush=True)
                out[label] = measure(tree)
            return out

        for label, t in each("tier1", tier1).items():
            rows[label]["tier1"] = t
        runs = [each("verify-all", verify_all) for _ in range(SPAWNS)]
        for label in rows:
            samples = [run[label] for run in runs]
            rows[label]["verify_all"] = samples[-1] | {
                key: statistics.median(s[key] for s in samples)
                for key in ("wall_s", "max_rss_mib")}
        print("bench: import times", file=sys.stderr, flush=True)
        spawned = import_times(trees)
        for label, heap in each("import heap", import_heap).items():
            rows[label]["import"] = spawned[label] | heap
        perf = {w: [each(f"perfbench {w} seed {seed}", lambda tree, w=w, seed=seed:
                         perfbench(tree, w, seed))
                    for seed in range(1, PERF_RUNS + 1)] for w in WORKLOADS}
        for label in rows:
            rows[label]["perfbench"] = {
                w: _perf_summary([run[label] for run in perf[w]]) for w in WORKLOADS}
        for label, sizes in large(trees).items():
            rows[label]["large"] = sizes

    out = Path(args.out)
    kept = json.loads(out.read_text())["rows"] if out.exists() else []
    report = {"script": "bench/run.py",
              "rows": [row for row in kept if row["label"] not in rows]
              + list(rows.values())}
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
