"""Configuration-driven experiment runner.

Subcommands:

- ``run``: execute the configured estimator over its tolerance sweep,
  writing a manifest, the gradient field dump, and timing data.
- ``variance-study``: per-level variance contributions over a dyadic
  sample sweep, with fitted decay slopes.
- ``cost-curve``: all four estimators on a shared hierarchy, one row per
  (method, tolerance), with fitted cost exponents.
- ``dump-gradient``: another name for ``run``.  Continuing the
  allocation over the sweep reaches the state a fresh run at the
  smallest tolerance reaches, so the sweep costs nothing extra.

Every estimator runs through ``estimators.estimator_sweep``.

Configs are JSON (key/value with nesting).  Every artifact is written
atomically (temp file + rename); re-running a config with the same seed
reproduces all non-timing outputs bitwise.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np
import scipy

from . import OPENBLAS_NUM_THREADS, __version__, estimators, fem, qmc
from .circulant_field import PaddingExhausted
from .covariance import MaternParams, MeanField
from .estimators import BudgetExceeded, LevelHierarchy, estimator_sweep
from .fem import SolverDiverged, TargetAndControl

__all__ = [
    "RunConfig",
    "RunArtifacts",
    "ConfigError",
    "preset_config",
    "load_config",
    "make_field_function",
    "build_hierarchy_from_config",
    "run_experiment",
    "variance_study",
    "cost_curve",
    "main",
]

MAX_LEVELS = 6
# The finest FE mesh has 2^(fe_offset + L) + 1 nodes per axis.  Its banded
# Cholesky factor grows as N^1.5 in the N nodes: 134 MB at 257^2, about
# 1 GB at 513^2, so meshes stop at 257 nodes per axis.
MAX_FE_EXPONENT = 8

_DEFAULTS = {
    "problem": {"sigma2": 0.1, "lambda_c": 1.0, "nu": 0.5, "mean": 0.0},
    "geometry": {"L": 4, "fe_offset": 2, "ce_offset": 0, "ce_tol": 1e-13},
    "qmc": {"generating_vector": None, "R": 10, "n_min": 8, "n_max": 2**20},
    "estimator": {
        "method": "mlqmc",
        "eps": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
        "cost_cap": 1e8,
        "kappa": 2.5,
        "warmup_qmc": 2,
        "warmup_mc": None,
    },
    "objective": {
        "g": {"kind": "indicator_square", "lo": 0.25, "hi": 0.75},
        "z": {"kind": "cosine_bumps", "scale": 5.0},
        "alpha": 1e-4,
    },
    "variance_study": {"n_exp_min": 0, "n_exp_max": 9, "fit_n_exp_min": 3},
    "output": "runs/out",
    "seed": 2024,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_from(lo: int):
    return (lambda v: _is_int(v) and v >= lo), f"an integer >= {lo}"


_POSITIVE = (lambda v: _is_number(v) and v > 0), "a number > 0"
_OBJECT = (lambda v: isinstance(v, dict)), "an object"

# (section, key) -> (accepts, what it must be) for every value of
# _DEFAULTS, key None for a top-level one; RunConfig._validate adds the
# checks that span several values
_RULES = {
    ("problem", "sigma2"): _POSITIVE, ("problem", "lambda_c"): _POSITIVE,
    ("problem", "nu"): _POSITIVE,
    ("problem", "mean"): ((lambda v: _is_number(v) and np.isfinite(v)),
                          "a finite number"),
    ("geometry", "L"): ((lambda v: _is_int(v) and 0 <= v <= MAX_LEVELS),
                        f"an integer in [0, {MAX_LEVELS}]"),
    ("geometry", "fe_offset"): _int_from(1), ("geometry", "ce_offset"): _int_from(0),
    ("geometry", "ce_tol"): ((lambda v: _is_number(v) and v >= 0), "a number >= 0"),
    ("qmc", "generating_vector"): ((lambda v: v is None or isinstance(v, str)),
                                   "null or a path"),
    ("qmc", "R"): _int_from(2), ("qmc", "n_min"): _int_from(1),
    ("qmc", "n_max"): _int_from(1),
    ("estimator", "method"): ((lambda v: v in estimators.METHODS),
                              f"one of {estimators.METHODS}"),
    ("estimator", "eps"): ((lambda v: isinstance(v, list) and len(v) > 0
                            and all(_is_number(e) and e > 0 for e in v)),
                           "a non-empty list of numbers > 0"),
    ("estimator", "cost_cap"): _POSITIVE, ("estimator", "kappa"): _POSITIVE,
    ("estimator", "warmup_qmc"): _int_from(1),
    ("estimator", "warmup_mc"): ((lambda v: v is None or (_is_int(v) and v >= 2)),
                                 "null or an integer >= 2"),
    ("objective", "g"): _OBJECT, ("objective", "z"): _OBJECT,
    ("objective", "alpha"): _POSITIVE,
    ("variance_study", "n_exp_min"): _int_from(0),
    ("variance_study", "n_exp_max"): _int_from(0),
    ("variance_study", "fit_n_exp_min"): _int_from(0),
    ("output", None): ((lambda v: isinstance(v, str)), "a path"),
    ("seed", None): _int_from(0),
}


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Normalized run configuration (defaults filled in), with the lattice
    vector read from the file ``qmc.generating_vector`` names, if any."""

    data: dict
    base_vector: Optional[qmc.GeneratingVector] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        # frozen, so the vector that validation read is set past __setattr__
        object.__setattr__(self, "base_vector", self._validate(self.data))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        # sections with fixed keys reject unknown ones (typos would
        # otherwise fall back to the default silently); the objective's
        # field specs g and z stay free-form
        for sec, val in raw.items():
            if isinstance(_DEFAULTS[sec], dict):
                if not isinstance(val, dict):
                    raise ConfigError(f"{sec} must be an object, got {val!r}")
                unknown = set(val) - set(_DEFAULTS[sec])
                if unknown:
                    raise ConfigError(f"unknown keys in {sec}: {sorted(unknown)}")
        return cls(_deep_merge(_DEFAULTS, raw))

    @staticmethod
    def _validate(data: dict) -> Optional[qmc.GeneratingVector]:
        """Check ``data`` against ``_RULES`` and across values; return the
        generating vector read from the file it names, if any."""
        for (sec, key), (accepts, what) in _RULES.items():
            value = data[sec] if key is None else data[sec][key]
            if not accepts(value):
                where = sec if key is None else f"{sec}.{key}"
                raise ConfigError(f"{where} must be {what}, got {value!r}")
        geo, qcfg, vs_cfg = data["geometry"], data["qmc"], data["variance_study"]
        if geo["fe_offset"] + geo["L"] > MAX_FE_EXPONENT:
            raise ConfigError(
                f"geometry.fe_offset + L must be <= {MAX_FE_EXPONENT} (finest mesh "
                f"at most {2 ** MAX_FE_EXPONENT + 1} nodes per axis), "
                f"got {geo['fe_offset']} + {geo['L']}")
        if qcfg["n_max"] < qcfg["n_min"]:
            raise ConfigError("qmc.n_max must be >= qmc.n_min")
        if vs_cfg["n_exp_max"] < vs_cfg["n_exp_min"]:
            raise ConfigError("variance_study.n_exp_max must be >= n_exp_min")
        eps = data["estimator"]["eps"]
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("estimator.eps must be strictly descending")
        for key in ("g", "z"):
            try:
                make_field_function(data["objective"][key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"objective.{key}: {exc}") from None
        if not qcfg["generating_vector"]:
            return None
        try:
            return qmc.load_generating_vector(qcfg["generating_vector"],
                                              n_min=qcfg["n_min"], n_max=qcfg["n_max"])
        except (OSError, ValueError, OverflowError) as exc:
            raise ConfigError(f"qmc.generating_vector: {exc}") from None

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def __getitem__(self, key):
        return self.data[key]


def preset_config(name: str) -> dict:
    """Built-in problem presets (smoothness differs, all else shared)."""
    if name == "problem1":
        return {"problem": {"nu": 0.5}}
    if name == "problem2":
        return {"problem": {"nu": 2.5}}
    raise ConfigError(f"unknown preset {name!r}; expected problem1 or problem2")


def load_config(path=None, preset: Optional[str] = None,
                seed: Optional[int] = None) -> RunConfig:
    """The run configuration: the ``preset``, overlaid by the JSON file at
    ``path``, overlaid by ``seed``; each layer is optional."""
    raw = preset_config(preset) if preset else {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # malformed JSON or text encoding
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        raw = _deep_merge(raw, loaded)
    if seed is not None:
        raw = _deep_merge(raw, {"seed": seed})
    return RunConfig.from_dict(raw)


# -- objective functions -------------------------------------------------------


def make_field_function(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Build a target/control callable from its config spec."""
    kind = spec.get("kind")
    if kind == "indicator_square":
        lo, hi = float(spec.get("lo", 0.25)), float(spec.get("hi", 0.75))

        def indicator(x: np.ndarray) -> np.ndarray:
            # signed distance to the square; points on the jump get the
            # midpoint value, so quadrature converges to the L2 target
            inside = np.minimum(
                np.minimum(x[:, 0] - lo, hi - x[:, 0]),
                np.minimum(x[:, 1] - lo, hi - x[:, 1]),
            )
            return np.where(inside > 1e-12, 1.0,
                            np.where(inside < -1e-12, 0.0, 0.5))

        return indicator
    if kind == "cosine_bumps":
        scale = float(spec.get("scale", 5.0))

        def bumps(x: np.ndarray) -> np.ndarray:
            return scale * (1.0 - np.cos(2 * np.pi * x[:, 0])) \
                * (1.0 - np.cos(2 * np.pi * x[:, 1]))

        return bumps
    if kind == "zero":
        return lambda x: np.zeros(x.shape[0])
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        return lambda x: np.full(x.shape[0], value)
    raise ConfigError(f"unknown field function kind {kind!r}")


def build_hierarchy_from_config(cfg: RunConfig) -> LevelHierarchy:
    prob, geo, qcfg, ecfg, obj = (cfg["problem"], cfg["geometry"], cfg["qmc"],
                                  cfg["estimator"], cfg["objective"])
    kernel = MaternParams(prob["sigma2"], prob["lambda_c"], prob["nu"])
    mean = MeanField(prob["mean"])
    objective = TargetAndControl(
        g=make_field_function(obj["g"]),
        z=make_field_function(obj["z"]),
        alpha=obj["alpha"],
    )
    # a configured vector was read by validation; without one the
    # hierarchy reads the packaged vector, as part of the set-up
    return LevelHierarchy(
        kernel, mean, objective, geo["L"],
        fe_offset=geo["fe_offset"], ce_offset=geo["ce_offset"],
        R=qcfg["R"], master_seed=cfg["seed"], kappa=ecfg["kappa"],
        base_vector=cfg.base_vector, ce_tol=geo["ce_tol"],
        warmup_qmc=ecfg["warmup_qmc"], warmup_mc=ecfg["warmup_mc"],
    )


# -- atomic artifact writers ---------------------------------------------------


def _atomic_write(path: Path, write_fn: Callable[[io.TextIOBase], None]) -> Path:
    """Write via a temp file in the same directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _write_json(path: Path, obj: dict) -> Path:
    return _atomic_write(path, lambda fh: fh.write(json.dumps(obj, indent=2,
                                                              sort_keys=True) + "\n"))


def _write_csv(path: Path, header: list, rows: list) -> Path:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])

    return _atomic_write(path, write)


def _write_gradient(outdir: Path, hier: LevelHierarchy,
                    grad: estimators.GradientEstimate) -> Tuple[Path, Path]:
    """gradient.txt and gradient.csv, each value as its shortest round-trip
    ``repr``; the csv keeps ``csv.writer``'s \\r\\n line ends."""
    lev = hier.fe_levels[grad.gradient.level]
    values = list(map(repr, grad.gradient.nodal_values.tolist()))
    x1, x2 = (map(repr, col) for col in lev.nodes.T.tolist())
    txt = ("# gradient field dump: nodal values, row-major\n"
           f"d 2\nnodes_per_axis {lev.nodes_per_axis}\n"
           f"level {grad.gradient.level}\n" + "\n".join(values) + "\n")
    rows = "".join(f"{x},{y},{v}\r\n" for x, y, v in zip(x1, x2, values))
    return (_atomic_write(outdir / "gradient.txt", lambda fh: fh.write(txt)),
            _atomic_write(outdir / "gradient.csv",
                          lambda fh: fh.write("x1,x2,value\r\n" + rows)))


def _environment() -> dict:
    """Interpreter, library and processor facts a timing depends on.

    numpy and scipy each bundle their own OpenBLAS, which may differ:
    scipy's runs the banded Cholesky factor.
    """
    def library(config: dict, kind: str) -> dict:
        dep = config.get("Build Dependencies", {}).get(kind, {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    try:
        scipy_config = scipy.show_config(mode="dicts")
    except TypeError:  # scipy < 1.11 only prints its configuration
        scipy_config = {}
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_size": len(affinity(0)) if affinity else None,
        "numpy_blas": library(np.show_config(mode="dicts"), "blas"),
        "scipy_lapack": library(scipy_config, "lapack"),
    }


# -- drivers --------------------------------------------------------------------


@dataclass
class RunArtifacts:
    """Paths of everything a driver wrote, plus the in-memory results."""

    outdir: Path
    manifest: dict
    paths: dict


class _Study:
    """The frame of every driver.

    Construction checks the output directory before any work, builds the
    hierarchy (``setup_seconds`` times it) and starts the manifest.  The
    driver adds its results to ``manifest`` and its files to ``paths``,
    then ``finish`` writes ``manifest.json``, ``timing.json`` and
    ``level_cost.csv``.
    """

    def __init__(self, cfg: RunConfig, outdir: Optional[Path]):
        # the output path must be a directory or lie below one; nothing is
        # created here, so a run that fails leaves no directory behind
        self.outdir = probe = Path(outdir or cfg["output"])
        while not os.path.lexists(probe):
            probe = probe.parent
        if not probe.is_dir():
            raise ConfigError(f"output {self.outdir}: {probe} is not a directory")
        t0 = time.perf_counter()
        self.hier = build_hierarchy_from_config(cfg)
        self.setup_seconds = time.perf_counter() - t0
        self.manifest = {"package_version": __version__, "config": cfg.to_dict(),
                         "config_hash": cfg.config_hash, "seed": cfg["seed"]}
        self.paths: dict = {}

    def write_csv(self, name: str, header: list, rows: list):
        self.paths[name] = _write_csv(self.outdir / f"{name}.csv", header, rows)

    def finish(self, allocation=None, coupled: bool = True) -> RunArtifacts:
        """Write the manifest and the timing ledger of ``allocation``
        (final ``(level, R, N)`` rows; None for every sample timed)."""
        self.paths["manifest"] = _write_json(self.outdir / "manifest.json", self.manifest)
        ledger = estimators.cost_ledger(self.hier, allocation, coupled)
        ledger["openblas_num_threads"] = OPENBLAS_NUM_THREADS
        ledger["environment"] = _environment()
        # process high-water marks, after set-up and after the whole run
        ledger["peak_rss_mb_setup"] = self.hier.setup_peak_rss_mb
        ledger["peak_rss_mb_run"] = estimators.peak_rss_mb()
        ledger["setup_seconds"] = self.setup_seconds
        # periodized: the smoothly periodized kernel was accepted;
        # fftn_calls: the kernels tried; from_cache: loaded from the
        # embedding cache (the count is then that of the build that stored it)
        ledger["embeddings"] = [
            {"level": ell, "ext": e.ext_per_axis, "s": e.s, "clamped": e.clamped,
             "periodized": e.periodized, "fftn_calls": e.fftn_calls,
             "from_cache": e.from_cache}
            for ell, e in enumerate(self.hier.embeddings)]
        self.paths["timing"] = _write_json(self.outdir / "timing.json", ledger)
        self.write_csv("level_cost", ["level", "ce_seconds", "fe_seconds", "correction"],
                       [(r["level"], float(r["ce_seconds_mean"]),
                         float(r["fe_seconds_mean"]), r["correction"])
                        for r in ledger["levels"]])
        return RunArtifacts(outdir=self.outdir, manifest=self.manifest, paths=self.paths)


def _sweep_rows(sweep: estimators.SweepResult) -> list:
    """Manifest form of the states at which each tolerance was met."""
    return [{"eps": p.eps, "rmse": p.rmse, "cost_model_normalized": p.cost,
             "N": p.N, "V": p.V} for p in sweep.points]


def _allocation(sweep: estimators.SweepResult) -> list:
    """Final (level, R, N) rows, as ``estimators.cost_ledger`` takes them."""
    return [(lev["level"], lev["R"], lev["N"])
            for lev in sweep.gradient.manifest["levels"]]


def run_experiment(cfg: RunConfig, outdir: Optional[Path] = None) -> RunArtifacts:
    """Run the configured estimator over its tolerance sweep."""
    study = _Study(cfg, outdir)
    ecfg = cfg["estimator"]
    sweep = estimator_sweep(study.hier, ecfg["method"], ecfg["eps"], ecfg["cost_cap"])
    study.manifest.update(method=ecfg["method"], warmup_cost=sweep.warmup_cost,
                          sweep=_sweep_rows(sweep), final=sweep.gradient.manifest)
    study.paths["gradient_txt"], study.paths["gradient_csv"] = _write_gradient(
        study.outdir, study.hier, sweep.gradient)
    return study.finish(_allocation(sweep), sweep.coupled)


def _loglog_slope_or_reason(x: list, y: list, name: str):
    """Log-log slope of y against x, or NaN and why it cannot be fitted."""
    if len(x) < 2:
        return float("nan"), "fewer than 2 points"
    if min(y) <= 0:
        return float("nan"), f"nonpositive {name}"
    return estimators.fit_loglog_slope(x, y), ""


def variance_study(cfg: RunConfig, outdir: Optional[Path] = None) -> RunArtifacts:
    """Per-level variance contributions over a dyadic sample sweep.

    Records R*V_l (independent of the shift count) for every level and
    N in the configured dyadic range, plus fitted per-level slopes and
    the norm of the estimated level corrections.
    """
    study = _Study(cfg, outdir)
    hier = study.hier
    vs_cfg = cfg["variance_study"]
    n_lo, n_hi = vs_cfg["n_exp_min"], vs_cfg["n_exp_max"]
    fit_lo = vs_cfg["fit_n_exp_min"]

    rows, slope_rows = [], []
    corr_norms = {}
    for ell in range(hier.L + 1):
        acc = estimators.QmcLevelAccumulator(hier, ell)
        acc.warmup = 2**n_lo
        Ns, RVs = [], []
        while acc.N < 2**n_hi:
            acc.refine()
            Ns.append(acc.N)
            RVs.append(acc.R * acc.V)
        for N, rv in zip(Ns, RVs):
            rows.append((ell, N, rv))
        fit_pts = [(n, rv) for n, rv in zip(Ns, RVs) if n >= 2**fit_lo]
        slope, reason = _loglog_slope_or_reason(
            [p[0] for p in fit_pts], [p[1] for p in fit_pts], "R_V")
        corr = fem.l2_norm(hier.fe_levels[ell], acc.mean())
        corr_norms[ell] = corr
        slope_rows.append((ell, slope, corr, reason))

    study.manifest["study"] = "variance_decay"
    study.manifest["slopes"] = {str(row[0]): row[1] for row in slope_rows}
    study.manifest["corr_norms"] = {str(row[0]): row[2] for row in slope_rows}
    if hier.L >= 2:
        # decay exponent of the correction mean, reported but not asserted
        hs = [hier.fe_levels[ell].h for ell in range(1, hier.L + 1)]
        study.manifest["rho_fitted"] = _loglog_slope_or_reason(
            hs, [corr_norms[ell] for ell in range(1, hier.L + 1)], "corr_norm")[0]
    study.write_csv("variance_decay", ["level", "N", "R_V"], rows)
    study.write_csv("variance_slopes", ["level", "slope", "corr_norm", "reason"],
                    slope_rows)
    return study.finish()


def cost_curve(cfg: RunConfig, outdir: Optional[Path] = None) -> RunArtifacts:
    """Cost versus tolerance for all four estimators on one hierarchy."""
    study = _Study(cfg, outdir)
    ecfg = cfg["estimator"]
    rows, exp_rows = [], []
    sweeps = {}
    for method in estimators.METHODS:
        sweep = estimator_sweep(study.hier, method, ecfg["eps"], ecfg["cost_cap"])
        sweeps[method] = sweep
        final = _allocation(sweep)
        for p in sweep.points:
            # each row's measured cost from that row's own allocation
            alloc = [(level, R, N) for (level, R, _), N in zip(final, p.N)]
            measured = estimators.measured_cost(study.hier, alloc, sweep.coupled)
            rows.append((method, p.eps, p.rmse, p.cost, measured))
        exp_rows.append((method, sweep.exponent, sweep.warmup_cost,
                         len(sweep.fit_states)))

    study.manifest["study"] = "cost_curve"
    study.manifest["exponents"] = {row[0]: row[1] for row in exp_rows}
    study.manifest["sweeps"] = {m: _sweep_rows(sweep) for m, sweep in sweeps.items()}
    study.write_csv("cost_curve", ["method", "eps", "rmse", "cost_model_normalized",
                                   "cost_measured_normalized"], rows)
    study.write_csv("cost_exponents",
                    ["method", "exponent", "warmup_cost", "states_fitted"], exp_rows)
    return study.finish()


# -- entry point ----------------------------------------------------------------


_COMMANDS = {
    "run": run_experiment,
    "variance-study": variance_study,
    "cost-curve": cost_curve,
    "dump-gradient": run_experiment,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlqmcgrad",
        description="Gradient estimation studies for the lognormal-diffusion "
                    "tracking problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file")
        p.add_argument("--preset", choices=["problem1", "problem2"],
                       default=None, help="built-in problem preset")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config)")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset, args.seed)
        outdir = args.out or os.environ.get("MLQMCGRAD_OUT") or cfg["output"]
        artifacts = _COMMANDS[args.command](cfg, Path(outdir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverDiverged, BudgetExceeded, PaddingExhausted) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {', '.join(str(p) for p in artifacts.paths.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
