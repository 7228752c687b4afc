"""How far a benchmark workload's pooled correctness check is from failing.

``perfbench/run.py --seed g`` runs program seeds ``1000 * g + k`` for
k = 0, 1, ... and checks the mean gradient of all its repeats against the
workload's reference (``perfbench/gate.py::check_pooled``).  Whether that
check passes depends on how many repeats fit in the run.  This tool runs
the first ``--runs`` repeats of each seed group in process, with the
workload's preset and config, and prints the pooled distance and the
check's bound after each count in ``--at``, so a change can be judged on
the same groups and counts as its parent.

Usage (from the repository root; ``PYTHONPATH`` picks the program)::

    PYTHONPATH=src python tools/pooled_margin.py --workload p1-mlqmc-L4 \\
        --groups 1-20 --runs 75 --at 40,55,75

Each line gives the group, the repeat count, the distance, the bound,
their ratio and PASS or FAIL; a last line per count tallies the failing
groups.  ``perfbench/`` is only read.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

# first, so that the package pins OpenBLAS to one thread before numpy loads
from mlqmcgrad import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
import run as bench  # noqa: E402


def parse_groups(text: str) -> list:
    """``"1-20,31"`` -> [1, ..., 20, 31]."""
    groups = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        groups += range(int(lo), int(hi or lo) + 1)
    return groups


def one_run(workload: str, seed: int, workdir: Path):
    """The gradient and reported RMSE of one in-process run."""
    spec = bench.WORKLOADS[workload]
    config = workdir / "config.json"
    config.write_text(json.dumps(spec["config"]))
    out = workdir / f"out-{seed}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--preset", spec["preset"], "--config", str(config),
                         "--out", str(out), "--seed", str(seed)])
    if code != 0:
        raise SystemExit(f"program seed {seed} exited with code {code}")
    manifest = json.loads((out / "manifest.json").read_text())
    return gate.read_gradient(out / "gradient.txt"), manifest["final"]["rmse_quadrature"]


def pooled(gradients: list, rmses: list, reference: dict):
    """The distance and bound that ``gate.check_pooled`` compares."""
    n = len(gradients)
    rmse = math.sqrt(sum(r * r for r in rmses)) / n
    dist = gate.l2_distance(sum(gradients) / n, reference["gradient"])
    return dist, gate.POOLED_FACTOR * math.hypot(rmse, reference["rmse"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), required=True)
    parser.add_argument("--groups", default="1-20", help="benchmark seeds, e.g. 1-20,31")
    parser.add_argument("--runs", type=int, default=75, help="repeats per group")
    parser.add_argument("--at", default="20,30,40,55,75",
                        help="repeat counts at which to check (at most --runs)")
    args = parser.parse_args(argv)
    counts = sorted({int(c) for c in args.at.split(",") if int(c) <= args.runs})
    reference = gate.load_reference(
        bench.REFERENCE_DIR / f"{bench.WORKLOADS[args.workload]['reference']}.npz")
    failing = {c: [] for c in counts}
    print("group runs distance bound ratio result", flush=True)
    for g in parse_groups(args.groups):
        gradients, rmses = [], []
        with tempfile.TemporaryDirectory() as tmp:
            for k in range(args.runs):
                grad, rmse = one_run(args.workload, 1000 * g + k, Path(tmp))
                gradients.append(grad)
                rmses.append(rmse)
                n = k + 1
                if n not in failing:
                    continue
                dist, bound = pooled(gradients, rmses, reference)
                ok = not gate.check_pooled(gradients, rmses, reference)
                assert ok == (dist <= bound)
                if not ok:
                    failing[n].append(g)
                print(f"{g} {n} {dist:.6e} {bound:.6e} {dist / bound:.4f} "
                      f"{'PASS' if ok else 'FAIL'}", flush=True)
    for n, groups in failing.items():
        print(f"# {n} runs: {len(groups)} failing groups {groups}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
