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
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require(ok: bool, where: str, what: str, value):
    if not ok:
        raise ConfigError(f"{where} must be {what}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Normalized run configuration (defaults filled in)."""

    data: dict

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
                _require(isinstance(val, dict), sec, "an object", val)
                unknown = set(val) - set(_DEFAULTS[sec])
                if unknown:
                    raise ConfigError(f"unknown keys in {sec}: {sorted(unknown)}")
        data = _deep_merge(_DEFAULTS, raw)
        cls._validate(data)
        return cls(data=data)

    @staticmethod
    def _validate(data: dict):
        ints = {  # (section, key): smallest allowed value
            ("geometry", "L"): 0, ("geometry", "fe_offset"): 1,
            ("geometry", "ce_offset"): 0, ("qmc", "R"): 2, ("qmc", "n_min"): 1,
            ("qmc", "n_max"): 1, ("estimator", "warmup_qmc"): 1,
            ("variance_study", "n_exp_min"): 0, ("variance_study", "n_exp_max"): 0,
            ("variance_study", "fit_n_exp_min"): 0,
        }
        for (sec, key), lo in ints.items():
            v = data[sec][key]
            _require(_is_int(v) and v >= lo, f"{sec}.{key}", f"an integer >= {lo}", v)
        positive = (("problem", "sigma2"), ("problem", "lambda_c"), ("problem", "nu"),
                    ("estimator", "cost_cap"), ("estimator", "kappa"),
                    ("objective", "alpha"))
        for sec, key in positive:
            v = data[sec][key]
            _require(_is_number(v) and v > 0, f"{sec}.{key}", "a number > 0", v)
        geo, est_cfg, obj = data["geometry"], data["estimator"], data["objective"]
        if geo["L"] > MAX_LEVELS:
            raise ConfigError(f"L must be in [0, {MAX_LEVELS}], got {geo['L']}")
        if geo["fe_offset"] + geo["L"] > MAX_FE_EXPONENT:
            raise ConfigError(
                f"geometry.fe_offset + L must be <= {MAX_FE_EXPONENT} (finest mesh "
                f"at most {2 ** MAX_FE_EXPONENT + 1} nodes per axis), "
                f"got {geo['fe_offset']} + {geo['L']}")
        if data["qmc"]["n_max"] < data["qmc"]["n_min"]:
            raise ConfigError("qmc.n_max must be >= qmc.n_min")
        vs_cfg = data["variance_study"]
        if vs_cfg["n_exp_max"] < vs_cfg["n_exp_min"]:
            raise ConfigError("variance_study.n_exp_max must be >= n_exp_min")
        _require(_is_number(geo["ce_tol"]) and geo["ce_tol"] >= 0,
                 "geometry.ce_tol", "a number >= 0", geo["ce_tol"])
        mean = data["problem"]["mean"]
        _require(_is_number(mean) and np.isfinite(mean), "problem.mean",
                 "a finite number", mean)
        warmup_mc = est_cfg["warmup_mc"]
        _require(warmup_mc is None or (_is_int(warmup_mc) and warmup_mc >= 2),
                 "estimator.warmup_mc", "null or an integer >= 2", warmup_mc)
        eps = est_cfg["eps"]
        if not isinstance(eps, list) or not eps \
                or not all(_is_number(e) and e > 0 for e in eps):
            raise ConfigError("estimator.eps must be positive values")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("estimator.eps must be strictly descending")
        if est_cfg["method"] not in estimators.METHODS:
            raise ConfigError(
                f"estimator.method must be one of {estimators.METHODS}")
        for key in ("g", "z"):
            _require(isinstance(obj[key], dict), f"objective.{key}", "an object",
                     obj[key])
        gv = data["qmc"]["generating_vector"]
        _require(gv is None or isinstance(gv, str), "qmc.generating_vector",
                 "null or a path", gv)
        _require(_is_int(data["seed"]) and data["seed"] >= 0, "seed",
                 "an integer >= 0", data["seed"])
        _require(isinstance(data["output"], str), "output", "a path", data["output"])

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)

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


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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
    if qcfg["generating_vector"]:
        base = qmc.load_generating_vector(
            qcfg["generating_vector"], n_min=qcfg["n_min"], n_max=qcfg["n_max"])
    else:
        base = qmc.default_generating_vector()
    return LevelHierarchy(
        kernel, mean, objective, geo["L"],
        fe_offset=geo["fe_offset"], ce_offset=geo["ce_offset"],
        R=qcfg["R"], master_seed=cfg["seed"], kappa=ecfg["kappa"],
        base_vector=base, ce_tol=geo["ce_tol"],
        warmup_qmc=ecfg["warmup_qmc"], warmup_mc=ecfg["warmup_mc"],
    )


# -- atomic artifact writers ---------------------------------------------------


def _atomic_write(path: Path, write_fn: Callable[[io.TextIOBase], None]):
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


def _write_json(path: Path, obj: dict):
    _atomic_write(path, lambda fh: fh.write(json.dumps(obj, indent=2,
                                                       sort_keys=True) + "\n"))


def _write_csv(path: Path, header: list, rows: list):
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])

    _atomic_write(path, write)


def _write_gradient(outdir: Path, hier: LevelHierarchy,
                    grad: estimators.GradientEstimate):
    lev = hier.fe_levels[grad.gradient.level]

    def write_txt(fh):
        fh.write("# gradient field dump: nodal values, row-major\n")
        fh.write(f"d 2\nnodes_per_axis {lev.nodes_per_axis}\n"
                 f"level {grad.gradient.level}\n")
        for v in grad.gradient.nodal_values:
            fh.write(f"{float(v)!r}\n")

    _atomic_write(outdir / "gradient.txt", write_txt)
    rows = [(repr(float(x)), repr(float(y)), repr(float(v))) for (x, y), v in
            zip(lev.nodes, grad.gradient.nodal_values)]
    _write_csv(outdir / "gradient.csv", ["x1", "x2", "value"], rows)


@dataclass
class RunArtifacts:
    """Paths of everything a driver wrote, plus the in-memory results."""

    outdir: Path
    manifest: dict
    paths: dict


def _base_manifest(cfg: RunConfig) -> dict:
    return {
        "package_version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash,
        "seed": cfg["seed"],
    }


def _finish(outdir: Path, cfg: RunConfig, hier: LevelHierarchy, manifest: dict,
            paths: dict, allocation=None, coupled: bool = True) -> RunArtifacts:
    _write_json(outdir / "manifest.json", manifest)
    paths["manifest"] = outdir / "manifest.json"
    ledger = estimators.cost_ledger(hier, allocation, coupled)
    ledger["openblas_num_threads"] = OPENBLAS_NUM_THREADS
    _write_json(outdir / "timing.json", ledger)
    paths["timing"] = outdir / "timing.json"
    rows = [(r["level"], float(r["ce_seconds_mean"]), float(r["fe_seconds_mean"]),
             r["correction"]) for r in ledger["levels"]]
    _write_csv(outdir / "level_cost.csv",
               ["level", "ce_seconds", "fe_seconds", "correction"], rows)
    paths["level_cost"] = outdir / "level_cost.csv"
    return RunArtifacts(outdir=outdir, manifest=manifest, paths=paths)


# -- drivers --------------------------------------------------------------------


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
    outdir = Path(outdir or cfg["output"])
    hier = build_hierarchy_from_config(cfg)
    ecfg = cfg["estimator"]
    sweep = estimator_sweep(hier, ecfg["method"], ecfg["eps"], ecfg["cost_cap"])
    manifest = _base_manifest(cfg)
    manifest["method"] = ecfg["method"]
    manifest["warmup_cost"] = sweep.warmup_cost
    manifest["sweep"] = _sweep_rows(sweep)
    manifest["final"] = sweep.gradient.manifest
    paths = {}
    _write_gradient(outdir, hier, sweep.gradient)
    paths["gradient_txt"] = outdir / "gradient.txt"
    paths["gradient_csv"] = outdir / "gradient.csv"
    return _finish(outdir, cfg, hier, manifest, paths, _allocation(sweep),
                   sweep.coupled)


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
    outdir = Path(outdir or cfg["output"])
    hier = build_hierarchy_from_config(cfg)
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

    manifest = _base_manifest(cfg)
    manifest["study"] = "variance_decay"
    manifest["slopes"] = {str(row[0]): row[1] for row in slope_rows}
    manifest["corr_norms"] = {str(row[0]): row[2] for row in slope_rows}
    if hier.L >= 2:
        # decay exponent of the correction mean, reported but not asserted
        hs = [hier.fe_levels[ell].h for ell in range(1, hier.L + 1)]
        manifest["rho_fitted"] = _loglog_slope_or_reason(
            hs, [corr_norms[ell] for ell in range(1, hier.L + 1)], "corr_norm")[0]
    paths = {}
    _write_csv(outdir / "variance_decay.csv", ["level", "N", "R_V"], rows)
    paths["variance_decay"] = outdir / "variance_decay.csv"
    _write_csv(outdir / "variance_slopes.csv",
               ["level", "slope", "corr_norm", "reason"], slope_rows)
    paths["variance_slopes"] = outdir / "variance_slopes.csv"
    return _finish(outdir, cfg, hier, manifest, paths)


def cost_curve(cfg: RunConfig, outdir: Optional[Path] = None) -> RunArtifacts:
    """Cost versus tolerance for all four estimators on one hierarchy."""
    outdir = Path(outdir or cfg["output"])
    hier = build_hierarchy_from_config(cfg)
    ecfg = cfg["estimator"]
    rows, exp_rows = [], []
    sweeps = {}
    for method in estimators.METHODS:
        sweep = estimator_sweep(hier, method, ecfg["eps"], ecfg["cost_cap"])
        sweeps[method] = sweep
        final = _allocation(sweep)
        for p in sweep.points:
            # each row's measured cost from that row's own allocation
            alloc = [(level, R, N) for (level, R, _), N in zip(final, p.N)]
            measured = estimators.measured_cost(hier, alloc, sweep.coupled)
            rows.append((method, p.eps, p.rmse, p.cost, measured))
        exp_rows.append((method, sweep.exponent, sweep.warmup_cost,
                         len(sweep.fit_states)))

    manifest = _base_manifest(cfg)
    manifest["study"] = "cost_curve"
    manifest["exponents"] = {row[0]: row[1] for row in exp_rows}
    manifest["sweeps"] = {m: _sweep_rows(sweep) for m, sweep in sweeps.items()}
    paths = {}
    _write_csv(outdir / "cost_curve.csv",
               ["method", "eps", "rmse", "cost_model_normalized",
                "cost_measured_normalized"], rows)
    paths["cost_curve"] = outdir / "cost_curve.csv"
    _write_csv(outdir / "cost_exponents.csv",
               ["method", "exponent", "warmup_cost", "states_fitted"], exp_rows)
    paths["cost_exponents"] = outdir / "cost_exponents.csv"
    return _finish(outdir, cfg, hier, manifest, paths)


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
        raw = {}
        if args.preset:
            raw = preset_config(args.preset)
        if args.config:
            with open(args.config) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ConfigError("config must be a JSON object")
            raw = _deep_merge(raw, loaded)
        if args.seed is not None:
            raw = _deep_merge(raw, {"seed": args.seed})
        cfg = RunConfig.from_dict(raw)
        outdir = args.out or os.environ.get("MLQMCGRAD_OUT") or cfg["output"]
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        artifacts = _COMMANDS[args.command](cfg, Path(outdir))
    except (SolverDiverged, BudgetExceeded, PaddingExhausted) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {', '.join(str(p) for p in artifacts.paths.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
