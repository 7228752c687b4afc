"""Correctness gate applied to every benchmark repeat.

A repeat passes when all four checks hold:

1. the process exited with code 0 and printed no traceback;
2. every tolerance-sweep point in ``manifest.json`` satisfies
   ``sum(V) <= eps**2``;
3. the final gradient in ``gradient.txt`` is finite;
4. its L2 distance from the workload's committed reference gradient is
   at most ``DISTANCE_FACTOR * sqrt(rmse**2 + rmse_ref**2)``, where the
   two RMSEs are the quadrature errors the run and the reference report.

Two independent unbiased estimates on the same discretization differ by
an error whose mean square is ``rmse**2 + rmse_ref**2``, so the bound
holds for any seed, and an exact solver swap (same discretization, new
algorithm) passes it.  The factor leaves room for the shift-based
variance estimate, which uses only R = 10 shifts.

``check_pooled`` adds a run-level check on the mean of independent
repeats, whose bound is tighter by the square root of their number.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DISTANCE_FACTOR = 8.0
POOLED_FACTOR = 5.0


def read_gradient(path: Path) -> np.ndarray:
    """Nodal values of a ``gradient.txt`` dump (row-major square grid)."""
    values, n = [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key == "nodes_per_axis":
                n = int(rest)
            elif key in ("d", "level"):
                continue
            else:
                values.append(float(line))
    if n is None or len(values) != n * n:
        raise ValueError(f"{path}: expected nodes_per_axis**2 nodal values")
    return np.asarray(values).reshape(n, n)


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """L2 norm of the difference of two nodal fields on the unit square,
    with trapezoid weights (the lumped P1 mass on a uniform mesh)."""
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    w = np.ones(n)
    w[[0, -1]] = 0.5
    weights = np.outer(w, w) / (n - 1) ** 2
    d = a - b
    return math.sqrt(float(np.sum(weights * d * d)))


def check_run(returncode: int, stderr: str, outdir: Path,
              reference: dict) -> list:
    """Return the failed checks of one repeat (empty when it passed).

    ``reference`` holds ``gradient`` (nodal array) and ``rmse``.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    failures = []
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        grad = read_gradient(outdir / "gradient.txt")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    for point in manifest["sweep"]:
        if sum(point["V"]) > point["eps"] ** 2:
            failures.append(f"sum(V) > eps^2 at eps={point['eps']}")
    if not np.all(np.isfinite(grad)):
        failures.append("non-finite gradient")
        return failures
    rmse = manifest["final"]["rmse_quadrature"]
    dist = l2_distance(grad, reference["gradient"])
    bound = DISTANCE_FACTOR * math.hypot(rmse, reference["rmse"])
    if not dist <= bound:
        failures.append(f"L2 distance {dist:.3g} from reference > bound {bound:.3g}")
    return failures


def check_pooled(gradients: list, rmses: list, reference: dict) -> list:
    """Check the mean of independent repeats (distinct program seeds).

    The mean's error has mean square ``sum(rmse**2) / n**2``, estimated
    from 9 shift degrees of freedom per repeat, so its bound is far
    tighter than one repeat's: it catches a bias that every repeat
    alone hides inside its own error.
    """
    n = len(gradients)
    mean = sum(gradients) / n
    rmse = math.sqrt(sum(r * r for r in rmses)) / n
    dist = l2_distance(mean, reference["gradient"])
    bound = POOLED_FACTOR * math.hypot(rmse, reference["rmse"])
    if not dist <= bound:
        return [f"mean of {n} repeats is {dist:.3g} from reference > bound {bound:.3g}"]
    return []


def load_reference(path: Path) -> dict:
    with np.load(path) as data:
        return {"gradient": data["gradient"], "rmse": float(data["rmse"])}


def save_reference(path: Path, outdir: Path):
    """Store a run's gradient and reported RMSE as a workload reference."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    np.savez_compressed(path, gradient=read_gradient(outdir / "gradient.txt"),
                        rmse=manifest["final"]["rmse_quadrature"])
