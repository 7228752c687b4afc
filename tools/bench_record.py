"""Record one benchmark entry, ``BENCH_<pr>.json`` at the repository root.

Runs ``perfbench/run.py --seed 1 --seconds 38`` on each of its workloads,
first at ``--trace 0`` (the end-to-end metrics), then at ``--trace 1`` (the
per-layer metrics), one run at a time, each with an empty embedding cache of
its own.  Then times the tier-1 test suite.  The file records:

- perfbench's environment block, from the first run (its ``git_commit``
  names the checkout's commit, its ``src_sha256`` the measured source);
- every run's last-line result, with the load average it started at;
- the line count of each module under ``src/``, and their total;
- the median wall time of 11 fresh ``python -c "import numpy"`` processes
  and of 11 ``python -c "import mlqmcgrad.cli"`` ones, interleaved;
- the tier-1 wall time and its summary line.

Usage (from the repository root)::

    python tools/bench_record.py --pr N

``perfbench/`` is only run, never changed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("p1-mlqmc-L4", "p2-mlqmc-L5", "p1-mlmc-L4")
SEED, SECONDS = 1, 38       # every record runs the same length, so they compare
IMPORTS, IMPORT_PROCESSES = ("numpy", "mlqmcgrad.cli"), 11
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def line_counts() -> dict:
    """Lines per module under ``src/``, keyed by path, and their total."""
    counts = {path.relative_to(SRC).as_posix(): len(path.read_bytes().splitlines())
              for path in sorted(SRC.rglob("*.py"))}
    return {"modules": counts, "total": sum(counts.values())}


def bench(workload: str, trace: int):
    """One perfbench run: its environment block and last-line result."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, XDG_CACHE_HOME=cache)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
            cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench {workload} --trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def src_env() -> dict:
    """The environment with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_times() -> dict:
    """Median wall time of a fresh process that imports each of
    ``IMPORTS``, the modules taking turns."""
    times = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_PROCESSES):
        for name in IMPORTS:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", f"import {name}"], cwd=ROOT,
                           env=src_env(), check=True)
            times[name].append(time.perf_counter() - t0)
    return {"processes": IMPORT_PROCESSES,
            "median_s": {name: round(statistics.median(t), 3) for name, t in times.items()}}


def tier1() -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=src_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
            "wall_s": round(wall, 1), "returncode": proc.returncode,
            "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    args = parser.parse_args(argv)
    record = {"environment": None, "runs": []}
    for trace in (0, 1):
        for workload in WORKLOADS:
            env, result = bench(workload, trace)
            record["environment"] = record["environment"] or env
            record["runs"].append({"workload": workload, "trace": trace,
                                   "seed": SEED, "seconds": SECONDS,
                                   "loadavg_start": env["loadavg_start"],
                                   "result": result})
            print(f"{workload} --trace {trace}: done", file=sys.stderr, flush=True)
    record["src_lines"] = line_counts()
    record["import"] = import_times()
    record["tier1"] = tier1()
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
