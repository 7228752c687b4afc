"""Benchmark of ``mlqmcgrad run``: three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload p1-mlqmc-L4 --seed 1 --seconds 38 --trace 0

Each repeat is one ``mlqmcgrad run`` in a fresh process, started through
``perfbench/tracer.py`` (which calls ``mlqmcgrad.cli.main``), one at a
time.  Repeat ``k`` passes ``--seed`` ``1000 * seed + k`` to the program,
so a run is a pure function of the benchmark seed and of how many
repeats fit in ``--seconds``.  A new repeat starts while at least half
of the median repeat still fits in the remaining time.

With ``--trace 0`` the run reports the end-to-end metrics as medians over
its repeats.  With ``--trace 1`` it runs pairs of untraced and traced
repeats on one program seed and reports the per-layer metrics (medians
over the traced repeats) and the tracing overhead.  Every repeat passes
through the correctness gate (``gate.py``).  Earlier stdout lines hold the
environment block and per-repeat records; the last line is the result.
See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from gate import check_pooled, check_run, load_reference, read_gradient, save_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 2024
RUN_DEADLINE_S = 170.0  # repeats still running then are killed, so a run exits within 180 s

# Reference gradients, one per discretization, from one run to a much
# smaller tolerance than the workloads use, so that the gate's bound is
# set mostly by the checked run's own error.
REFERENCES = {
    "problem1-L4": {
        "preset": "problem1",
        "config": {"geometry": {"L": 4},
                   "estimator": {"eps": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 5e-5, 3e-5]}},
    },
    "problem2-L5": {
        "preset": "problem2",
        "config": {"geometry": {"L": 5},
                   "estimator": {"eps": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 5e-5, 3e-5]}},
    },
}

WORKLOADS = {
    "p1-mlqmc-L4": {
        "preset": "problem1",
        "reference": "problem1-L4",
        "config": {"geometry": {"L": 4},
                   "estimator": {"eps": [1e-2, 3e-3, 1e-3, 3e-4]}},
    },
    "p2-mlqmc-L5": {
        "preset": "problem2",
        "reference": "problem2-L5",
        "config": {"geometry": {"L": 5},
                   "estimator": {"eps": [1e-2, 3e-3, 1e-3, 3e-4]}},
    },
    "p1-mlmc-L4": {
        "preset": "problem1",
        "reference": "problem1-L4",
        "config": {"geometry": {"L": 4},
                   "estimator": {"method": "mlmc",
                                 "eps": [1e-2, 3e-3, 1e-3, 3e-4]}},
    },
}

# spans that must fire (calls > 0) or must not (calls == 0) per workload
_COMMON_SPANS = (
    "cli.run_experiment", "cli.build_hierarchy_from_config",
    "estimators.estimator_sweep", "estimators.allocate_samples",
    "estimators.refine", "estimators.evaluate", "estimators.coupled_sample",
    "circulant_field.build_embedding", "circulant_field.sample_field",
    "circulant_field.restrict_to_coarse", "circulant_field.eval_field",
    "qmc.extend_vector", "qmc.shift_rng",
    "fem.build_fe_level", "fem.assemble_stiffness", "fem.OperatorSet.setup",
    "fem.OperatorSet.solve", "fem.assemble_load", "fem.prolong",
)
_QMC_SPANS = ("qmc.sequence_point", "qmc.cube_to_normal", "qmc.make_shift_set")
EXPECTED_SPANS = {
    "p1-mlqmc-L4": (_COMMON_SPANS + _QMC_SPANS, ()),
    "p2-mlqmc-L5": (_COMMON_SPANS + _QMC_SPANS, ()),
    "p1-mlmc-L4": (_COMMON_SPANS, _QMC_SPANS),
}

MAX_LEVEL = 5          # per-level metrics are reported for levels 0..MAX_LEVEL
TAIL_BEYOND = 10       # samples that must lie beyond a reported tail percentile
MODULES = ("cli", "estimators", "circulant_field", "qmc", "fem")


def _median(values):
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    """Machine and library facts recorded next to every result."""
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "openblas_configuration": info.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        # only a repository rooted at this checkout names its commit
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlqmcgrad").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_repeat(workload: str, program_seed: int, workdir: Path, traced: bool,
               timeout: float) -> dict:
    """One ``mlqmcgrad run`` in a fresh process; wall, CPU, RSS and outputs."""
    spec = WORKLOADS[workload]
    tag = f"{'t' if traced else 'u'}{program_seed}-{time.monotonic_ns()}"
    rundir = workdir / tag
    rundir.mkdir()
    config = rundir / "config.json"
    config.write_text(json.dumps(spec["config"]))
    summary = rundir / "summary.json"
    cmd = [sys.executable, str(HERE / "tracer.py"), "--summary", str(summary)]
    if traced:
        cmd.append("--trace")
    cmd += ["--", "run", "--preset", spec["preset"], "--config", str(config),
            "--out", str(rundir / "out"), "--seed", str(program_seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(rundir / "stdout", "w") as out, open(rundir / "stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0
    rec = {
        "program_seed": program_seed,
        "traced": traced,
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rundir": rundir,
    }
    stderr_text = (rundir / "stderr").read_text(errors="replace")
    failures = ["timed out"] if timed_out else check_run(
        proc.returncode, stderr_text, rundir / "out",
        load_reference(REFERENCE_DIR / f"{spec['reference']}.npz"))
    if not failures:
        summ = json.loads(summary.read_text())
        setup = summ["spans"].get("cli.build_hierarchy_from_config", {"calls": 0})
        if setup["calls"] != 1:
            failures.append("set-up span fired %d times, expected once" % setup["calls"])
    if not failures:
        rec["summary"] = summ
        rec["setup_s"] = setup["s"]
        manifest = json.loads((rundir / "out" / "manifest.json").read_text())
        rec["cost_model"] = manifest["final"]["cost_model_normalized"]
        rec["timing"] = json.loads((rundir / "out" / "timing.json").read_text())
        rec["fe_offset"] = manifest["config"]["geometry"]["fe_offset"]
        rec["rmse"] = manifest["final"]["rmse_quadrature"]
        rec["gradient"] = read_gradient(rundir / "out" / "gradient.txt")
    rec["failures"] = failures
    return rec


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _public(rec: dict) -> dict:
    keys = ("program_seed", "traced", "returncode", "wall_s", "cpu_s",
            "peak_rss_mb", "setup_s", "cost_model", "failures")
    return {k: rec[k] for k in keys if k in rec}


def end_to_end_metrics(recs: list) -> dict:
    ok = [r for r in recs if not r["failures"]]
    throughput = [r["cost_model"] / (r["wall_s"] - r["setup_s"]) for r in ok]
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in ok]), "s"),
        "setup_s": (_median([r["setup_s"] for r in ok]), "s"),
        "cpu_s": (_median([r["cpu_s"] for r in ok]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok]), "MB"),
        "cost_model": (_median([r["cost_model"] for r in ok]), "finest_samples"),
        "finest_equiv_per_s": (_median(throughput), "1/s"),
        "success_frac": (len(ok) / len(recs), "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced repeat, as {name: (value, unit)}."""
    summ = rec["summary"]
    spans, counters = summ["spans"], summ["counters"]

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    out = {}
    for name in ("cli.build_hierarchy_from_config", "circulant_field.build_embedding",
                 "circulant_field.sample_field", "circulant_field.restrict_to_coarse",
                 "circulant_field.eval_field", "qmc.sequence_point", "qmc.cube_to_normal",
                 "qmc.make_shift_set", "qmc.shift_rng", "qmc.extend_vector",
                 "fem.build_fe_level", "fem.assemble_stiffness", "fem.OperatorSet.solve",
                 "fem.assemble_load", "fem.prolong"):
        out[f"{name}.s"] = (span(name), "s")
    for name in ("circulant_field.sample_field", "qmc.sequence_point", "qmc.shift_rng",
                 "fem.assemble_stiffness", "fem.OperatorSet.solve"):
        out[f"{name}.calls"] = (span(name, "calls"), "count")
    out["cli.artifacts.s"] = (span("cli.run_experiment", "self_s"), "s")
    out["fem.OperatorSet.setup.s"] = (span("fem.OperatorSet.setup", "self_s"), "s")
    out["estimators.allocate_samples.self_s"] = (
        span("estimators.allocate_samples", "self_s"), "s")
    out["estimators.doublings"] = (counters.get("estimators.doublings", 0), "count")
    out["circulant_field.pad_attempts"] = (
        counters.get("circulant_field.pad_attempts", 0), "count")
    out["circulant_field.s_finest"] = (counters.get("circulant_field.s_finest", 0), "count")
    out["circulant_field.sample_field.bytes"] = (
        counters.get("circulant_field.sample_field.bytes", 0), "B")
    out["qmc.make_shift_set.bytes"] = (counters.get("qmc.make_shift_set.bytes", 0), "B")
    iters = summ["pcg_iters"]
    out["fem.pcg.iters_mean"] = (sum(iters) / len(iters) if iters else 0.0, "count")
    out["fem.pcg.iters_max"] = (max(iters, default=0), "count")

    # per-level sample cost: coupled_sample is the interval the program's
    # own ledger times; evaluate adds point generation and the normal map
    coupled = {int(k): v for k, v in summ["levels"].get("estimators.coupled_sample", {}).items()}
    evaluate = {int(k): v for k, v in summ["levels"].get("estimators.evaluate", {}).items()}
    for lev in range(MAX_LEVEL + 1):
        ms = sorted(1e3 * d for d in coupled.get(lev, []))
        out[f"estimators.coupled_sample.calls.L{lev}"] = (len(ms), "count")
        out[f"estimators.coupled_sample.ms_p50.L{lev}"] = (
            statistics.median(ms) if ms else 0.0, "ms")
        # the highest percentile with TAIL_BEYOND samples beyond it: the
        # (n - TAIL_BEYOND)-th smallest of n; p99 only from n = 1000
        out[f"estimators.coupled_sample.ms_tail.L{lev}"] = (
            ms[-TAIL_BEYOND - 1] if len(ms) > TAIL_BEYOND else 0.0, "ms")
    levels = sorted(evaluate)
    if len(levels) >= 2:
        log_h = [math.log(2.0 ** -(rec["fe_offset"] + lev)) for lev in levels]
        log_t = [math.log(statistics.median(evaluate[lev])) for lev in levels]
        slope = statistics.linear_regression(log_h, log_t).slope
        out["estimators.kappa_measured"] = (-slope, "1")
    else:
        out["estimators.kappa_measured"] = (0.0, "1")
    total_eval = sum(sum(v) for v in evaluate.values())
    total_coupled = sum(sum(v) for v in coupled.values())
    out["estimators.ledger_miss_frac"] = (
        1.0 - total_coupled / total_eval if total_eval else 0.0, "fraction")
    finest = max(levels, default=None)
    out["estimators.ledger_miss_frac.finest"] = (
        1.0 - statistics.median(coupled[finest]) / statistics.median(evaluate[finest])
        if finest is not None else 0.0, "fraction")
    ledger = {row["level"]: row["total_seconds_median"]
              for row in rec["timing"]["levels"] if row["samples"]}
    out["estimators.ledger_p50_dev_max"] = (max(
        (abs(statistics.median(coupled[lev]) / ledger[lev] - 1.0)
         for lev in ledger if lev in coupled), default=0.0), "fraction")

    run_s = span("cli.run_experiment")
    for module in MODULES:
        self_s = sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == module)
        out[f"{module}.share"] = (self_s / run_s if run_s else 0.0, "fraction")
    return out


def trace_checks(workload: str, rec: dict, layers: dict) -> list:
    """Span-binding and nesting checks of one traced repeat."""
    summ = rec["summary"]
    spans = summ["spans"]
    must_fire, must_not = EXPECTED_SPANS[workload]
    problems = []
    for name, count in summ["bindings"].items():
        if count < 1:
            problems.append(f"span {name} was bound nowhere")
    for name in must_fire:
        if spans.get(name, {}).get("calls", 0) == 0:
            problems.append(f"span {name} never fired")
    for name in must_not:
        if spans.get(name, {}).get("calls", 0) != 0:
            problems.append(f"span {name} fired but should not")
    if summ["child_over_parent"]:
        problems.append(f"{summ['child_over_parent']} frames with child time > parent time")
    for name, stat in spans.items():
        if stat["self_s"] < -1e-6:
            problems.append(f"span {name} has negative self time")
    dev = layers["estimators.ledger_p50_dev_max"][0]
    if dev > 0.1:
        problems.append(f"traced coupled_sample medians deviate {dev:.1%} from timing.json")
    return problems


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    """Closed loop of repeats (or untraced/traced pairs) for ``seconds``."""
    recs, pairs, durations = [], [], []
    t_loop = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        remaining = RUN_DEADLINE_S - (t0 - t_loop)
        if traced:
            # alternate which side of the pair runs first
            sides = (False, True) if k % 2 == 0 else (True, False)
            pair = {side: run_repeat(workload, 1000 * seed, workdir, side, remaining)
                    for side in sides}
            pairs.append(pair)
            recs += [pair[False], pair[True]]
        else:
            recs.append(run_repeat(workload, 1000 * seed + k, workdir, False, remaining))
        for rec in recs[-2 if traced else -1:]:
            print(json.dumps(_public(rec)), flush=True)
        durations.append(time.perf_counter() - t0)
        k += 1
        # stop where the run ends closest to ``seconds``: at most half a
        # repeat early or late
        elapsed = time.perf_counter() - t_loop
        if elapsed + statistics.median(durations) / 2 > seconds:
            return recs, pairs


def result(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir_root = HERE / "_work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workdir_root))
    try:
        recs, pairs = measure(workload, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in recs if r["failures"])
    correct = failed == 0
    if not traced:
        metrics = end_to_end_metrics(recs)
        ok = [r for r in recs if not r["failures"]]
        if len(ok) >= 2:
            reference = load_reference(REFERENCE_DIR / f"{WORKLOADS[workload]['reference']}.npz")
            problems = check_pooled([r["gradient"] for r in ok], [r["rmse"] for r in ok],
                                    reference)
            if problems:
                correct = False
                print(json.dumps({"pooled_gate_failures": problems}), flush=True)
    else:
        traced_recs = [p[True] for p in pairs if not p[True]["failures"]]
        per = [layer_metrics(r) for r in traced_recs]
        for rec, layers in zip(traced_recs, per):
            problems = trace_checks(workload, rec, layers)
            if problems:
                correct = False
                print(json.dumps({"trace_check_failures": problems}), flush=True)
        metrics = {}
        if per:
            for name, (_, unit) in per[0].items():
                metrics[name] = {"value": _median([p[name][0] for p in per]), "unit": unit}
        overhead = [p[True]["wall_s"] / p[False]["wall_s"] - 1.0 for p in pairs
                    if not (p[True]["failures"] or p[False]["failures"])]
        metrics["trace.overhead_frac"] = {"value": _median(overhead), "unit": "fraction"}
    return {"correct": correct, "attempted": len(recs),
            "failed": failed, "metrics": metrics}


def write_references():
    """Regenerate ``reference/<name>.npz`` from one run per discretization."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        for name, spec in REFERENCES.items():
            config = workdir / f"{name}.json"
            config.write_text(json.dumps(spec["config"]))
            subprocess.run([sys.executable, "-m", "mlqmcgrad", "run", "--preset",
                            spec["preset"], "--config", str(config),
                            "--out", str(workdir / name), "--seed", str(REFERENCE_SEED)],
                           env=env, check=True, capture_output=True)
            save_reference(REFERENCE_DIR / f"{name}.npz", workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mlqmcgrad run benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate the committed reference gradients and exit")
    args = parser.parse_args(argv)
    if not (SRC / "mlqmcgrad" / "cli.py").is_file():
        print(f"no mlqmcgrad sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = [r for r in REFERENCES if not (REFERENCE_DIR / f"{r}.npz").is_file()]
    if missing:
        print(f"missing reference gradients for {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}), flush=True)
    out = result(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
