"""Gradient estimators over the level hierarchy.

Implements the four estimators (MC, QMC, MLMC, MLQMC) for the mean
adjoint field, sharing one field/FE stack so that only the quadrature
points differ.  A multilevel estimator telescopes corrections
q_l - q_{l-1}, each computed from the same field realization sampled at
level l and restricted to the coarser grid.

Sample allocation follows the greedy rule: while the summed variance
contributions exceed eps^2, double N at the level with the largest
V_l / (N_l C_l).  Costs entering the allocation are the deterministic
model costs h_l^-kappa so that identical configurations reproduce
identical allocations; wall-clock times are recorded separately.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fem, qmc
from .circulant_field import (
    CirculantEmbedding,
    FieldRealization,
    UniformGrid,
    build_embedding,
    restrict_to_coarse,
    sample_field,
)
from .covariance import MaternParams, MeanField
from .fem import FeFunction, FeLevel, OperatorSet, TargetAndControl

__all__ = [
    "LevelHierarchy",
    "LevelEstimate",
    "GradientEstimate",
    "SweepPoint",
    "SweepResult",
    "BudgetExceeded",
    "InsufficientShifts",
    "adjoint_solution",
    "coupled_sample",
    "qmc_level_estimate",
    "mc_level_estimate",
    "allocate_samples",
    "mlqmc_gradient",
    "mlmc_gradient",
    "qmc_single_level",
    "mc_single_level",
    "estimator_sweep",
    "cost_ledger",
    "fit_loglog_slope",
    "cost_fit_states",
    "fit_cost_exponent",
    "METHODS",
]

METHODS = ("mc", "qmc", "mlmc", "mlqmc")


class BudgetExceeded(RuntimeError):
    """Allocation cost passed the configured cap before reaching eps."""


class InsufficientShifts(ValueError):
    """Shift-based variance estimation needs at least two shifts."""


@dataclass
class _LevelTiming:
    samples: int = 0
    ce_seconds: float = 0.0
    fe_seconds: float = 0.0
    totals: List[float] = dfield(default_factory=list)


class LevelHierarchy:
    """Per-level FE meshes, CE factorizations, lattice vectors and shifts.

    Immutable after construction; estimation only reads it (the timing
    ledger is the one mutable side channel).
    """

    def __init__(self, kernel: MaternParams, mean: MeanField,
                 objective: TargetAndControl, L: int, *,
                 fe_offset: int = 2, ce_offset: int = 0, R: int = 10,
                 master_seed: int = 0, kappa: float = 2.5,
                 base_vector: Optional[qmc.GeneratingVector] = None,
                 ce_tol: float = 1e-13, solver_rtol: float = 1e-10,
                 warmup_qmc: int = 2, warmup_mc: Optional[int] = None):
        if L < 0:
            raise ValueError("L must be >= 0")
        self.kernel = kernel
        self.mean = mean
        self.objective = objective
        self.L = L
        self.R = R
        self.master_seed = master_seed
        self.kappa = kappa
        self.solver_rtol = solver_rtol
        self.warmup_qmc = warmup_qmc
        # default MC warm-up matches the QMC warm-up effort (R shifts of
        # warmup_qmc points each), so method comparisons start from equal
        # per-level budgets and differ only in the point source
        self.warmup_mc = R * warmup_qmc if warmup_mc is None else warmup_mc

        base = base_vector if base_vector is not None else qmc.default_generating_vector()
        self.fe_levels: List[FeLevel] = []
        self.ce_grids: List[UniformGrid] = []
        self.embeddings: List[CirculantEmbedding] = []
        self.vectors: List[qmc.GeneratingVector] = []
        for ell in range(L + 1):
            coarser = self.fe_levels[-1] if self.fe_levels else None
            self.fe_levels.append(
                fem.build_fe_level(ell, 2 ** (fe_offset + ell) + 1, coarser))
            grid = UniformGrid(dim=2, points_per_axis=2 ** (ce_offset + ell) + 1)
            self.ce_grids.append(grid)
            emb = build_embedding(kernel, grid, tol=ce_tol)
            self.embeddings.append(emb)
            self.vectors.append(
                qmc.extend_vector(base, emb.s, seed=[master_seed, 101, ell]))

        # deterministic per-sample model cost, normalized to the finest level
        h = np.array([lev.h for lev in self.fe_levels])
        self.cost_model = (h / h[-1]) ** (-kappa)

        # objective data precomputed per level
        self._b_z = [fem.assemble_load(lev, objective.z) for lev in self.fe_levels]
        self._g_quad = [objective.g(lev.quad_points) for lev in self.fe_levels]

        self.timing: Dict[int, _LevelTiming] = {
            ell: _LevelTiming() for ell in range(L + 1)}

    # -- per-sample machinery ------------------------------------------------

    def shifts_for(self, level: int, R: int) -> np.ndarray:
        """First R shifts of the level's shift stream, shape (R, s_level)."""
        return qmc.make_shift_set(self.master_seed, level, R,
                                  self.embeddings[level].s).shifts

    def s_dim(self, level: int) -> int:
        return self.embeddings[level].s

    def record_timing(self, level: int, ce: float, fe: float):
        t = self.timing[level]
        t.samples += 1
        t.ce_seconds += ce
        t.fe_seconds += fe
        t.totals.append(ce + fe)


def adjoint_solution(hier: LevelHierarchy, ell: int,
                     field: FieldRealization) -> FeFunction:
    """State + adjoint solve at FE level ``ell`` for a given field."""
    ops = OperatorSet(hier.fe_levels, ell, field, rtol=hier.solver_rtol)
    u = ops.solve(hier._b_z[ell])
    lev = hier.fe_levels[ell]
    u_quad = lev._quad_eval @ u.nodal_values
    b_adj = fem.assemble_load(lev, u_quad - hier._g_quad[ell])
    return ops.solve(b_adj)


def coupled_sample(hier: LevelHierarchy, ell: int, y: np.ndarray,
                   coupled: bool = True) -> FeFunction:
    """One sample of q_ell - q_{ell-1} (or plain q_ell at level 0).

    ``y`` holds s_ell standard normals in importance order.  Both terms
    use the same level-``ell`` field realization; the coarse term sees
    its restriction to the coarser CE grid.  With ``coupled=False`` the
    plain level-``ell`` adjoint is returned (single-level estimators).
    """
    t0 = time.perf_counter()
    try:
        fld = sample_field(hier.embeddings[ell], hier.mean, y, level=ell)
    except Exception as exc:
        raise type(exc)(f"level {ell}: {exc}") from exc
    t1 = time.perf_counter()
    try:
        q_fine = adjoint_solution(hier, ell, fld)
        if coupled and ell > 0:
            fld_coarse = restrict_to_coarse(fld, hier.ce_grids[ell - 1])
            q_coarse = adjoint_solution(hier, ell - 1, fld_coarse)
            q_fine = FeFunction(
                level=ell,
                nodal_values=q_fine.nodal_values
                - fem.prolong(q_coarse, hier.fe_levels, ell).nodal_values,
            )
    except fem.SolverDiverged as exc:
        raise fem.SolverDiverged(f"level {ell}: {exc}") from exc
    t2 = time.perf_counter()
    hier.record_timing(ell, t1 - t0, t2 - t1)
    return q_fine


# -- level accumulators --------------------------------------------------------


class QmcLevelAccumulator:
    """Running per-shift sums of the level correction for one lattice rule.

    ``refine()`` doubles N (first call: warm-up), reusing all previously
    evaluated points of the embedded sequence.  Accumulation runs in
    ascending sample index per shift (deterministic reduction).
    """

    def __init__(self, hier: LevelHierarchy, level: int, R: Optional[int] = None,
                 coupled: bool = True):
        R = hier.R if R is None else R
        if R < 2:
            raise InsufficientShifts(f"need R >= 2 shifts, got {R}")
        self.hier = hier
        self.level = level
        self.R = R
        self.coupled = coupled
        self.N = 0
        self.warmup = hier.warmup_qmc
        self.shifts = hier.shifts_for(level, R)
        self.gv = hier.vectors[level]
        M = hier.fe_levels[level].num_nodes
        self.sums = np.zeros((R, M))

    @property
    def C(self) -> float:
        c = self.hier.cost_model[self.level]
        if self.coupled and self.level > 0:
            c = c + self.hier.cost_model[self.level - 1]
        return float(c)

    @property
    def cost(self) -> float:
        return self.R * self.N * self.C

    def _evaluate(self, r: int, k: int) -> np.ndarray:
        xi = qmc.sequence_point(self.gv, k, self.shifts[r])
        y = qmc.cube_to_normal(xi)
        return coupled_sample(self.hier, self.level, y, self.coupled).nodal_values

    def refine(self):
        n_new = self.warmup if self.N == 0 else 2 * self.N
        for r in range(self.R):
            for k in range(self.N, n_new):
                self.sums[r] += self._evaluate(r, k)
        self.N = n_new

    def per_shift_means(self) -> np.ndarray:
        if self.N == 0:
            raise RuntimeError("no samples accumulated yet")
        return self.sums / self.N

    @property
    def V(self) -> float:
        means = self.per_shift_means()
        dev = means - means.mean(axis=0)
        nodal_var = (dev**2).sum(axis=0) / (self.R * (self.R - 1))
        return fem.integrate(self.hier.fe_levels[self.level], nodal_var)

    def mean(self) -> FeFunction:
        return FeFunction(self.level, self.per_shift_means().mean(axis=0))


class McLevelAccumulator:
    """Plain Monte Carlo version: i.i.d. normals, across-sample variance.

    The nodal sums are kept relative to the first sample to avoid
    cancellation in the variance; streams are keyed by
    (seed, method, level, sample index) so growing N extends the
    existing sample set.
    """

    def __init__(self, hier: LevelHierarchy, level: int, stream: str = "mc",
                 coupled: bool = True):
        self.hier = hier
        self.level = level
        self.R = 1
        self.coupled = coupled
        self.stream = stream
        self.N = 0
        self.warmup = hier.warmup_mc
        M = hier.fe_levels[level].num_nodes
        self._ref: Optional[np.ndarray] = None
        self.sum_dev = np.zeros(M)
        self.sum_dev2 = np.zeros(M)

    @property
    def C(self) -> float:
        c = self.hier.cost_model[self.level]
        if self.coupled and self.level > 0:
            c = c + self.hier.cost_model[self.level - 1]
        return float(c)

    @property
    def cost(self) -> float:
        return self.N * self.C

    def _evaluate(self, r: int, k: int) -> np.ndarray:
        rng = qmc.shift_rng(self.hier.master_seed, self.stream, self.level, k)
        y = rng.standard_normal(self.hier.s_dim(self.level))
        return coupled_sample(self.hier, self.level, y, self.coupled).nodal_values

    def refine(self):
        n_new = self.warmup if self.N == 0 else 2 * self.N
        for k in range(self.N, n_new):
            vals = self._evaluate(0, k)
            if self._ref is None:
                self._ref = vals.copy()
            dev = vals - self._ref
            self.sum_dev += dev
            self.sum_dev2 += dev**2
        self.N = n_new

    @property
    def V(self) -> float:
        if self.N < 2:
            raise RuntimeError("variance needs at least 2 samples")
        nodal_var = (self.sum_dev2 - self.sum_dev**2 / self.N) / (self.N - 1)
        nodal_var = np.maximum(nodal_var, 0.0)
        lev = self.hier.fe_levels[self.level]
        return fem.integrate(lev, nodal_var) / self.N

    def per_shift_means(self) -> np.ndarray:
        return self.mean().nodal_values[None, :]

    def mean(self) -> FeFunction:
        return FeFunction(self.level, self._ref + self.sum_dev / self.N)


# -- spec-level wrappers -------------------------------------------------------


@dataclass
class LevelEstimate:
    """Snapshot of one level's estimator state."""

    ell: int
    N_ell: int
    R_ell: int
    per_shift_means: np.ndarray   # (R, M) nodal values
    V_ell: float
    cost_ell: float               # model units, finest-sample-normalized


def qmc_level_estimate(hier: LevelHierarchy, ell: int, N_ell: int,
                       R_ell: Optional[int] = None) -> LevelEstimate:
    """Randomly shifted lattice estimate of the level-``ell`` correction.

    ``N_ell`` must be a power of two (the embedded sequence refines the
    rule dyadically).
    """
    if N_ell < 1 or (N_ell & (N_ell - 1)) != 0:
        raise ValueError(f"N_ell must be a power of two, got {N_ell}")
    acc = QmcLevelAccumulator(hier, ell, R=R_ell)
    acc.warmup = 1
    while acc.N < N_ell:
        acc.refine()
    return LevelEstimate(ell, acc.N, acc.R, acc.per_shift_means(), acc.V, acc.cost)


def mc_level_estimate(hier: LevelHierarchy, ell: int, N_ell: int) -> LevelEstimate:
    """Monte Carlo estimate of the level-``ell`` correction."""
    if N_ell < 2:
        raise ValueError("variance estimation needs N_ell >= 2")
    acc = McLevelAccumulator(hier, ell, stream="mlmc")
    acc.warmup = N_ell
    acc.refine()
    return LevelEstimate(ell, acc.N, 1, acc.per_shift_means(), acc.V, acc.cost)


def allocate_samples(accs: Sequence, eps: float,
                     cost_cap: Optional[float] = None,
                     trace: Optional[List["SweepPoint"]] = None) -> List[int]:
    """Greedy sample allocation until sum of V_l drops below eps^2.

    Doubles N at the level maximizing V_l / (N_l C_l); ties go to the
    smaller level index.  Raises BudgetExceeded when the summed cost
    passes ``cost_cap``.  When ``trace`` is a list, the estimator state
    after every doubling is appended to it (cost-curve fits use these
    intermediate states).
    """
    for acc in accs:
        if acc.N == 0:
            acc.refine()
    while True:
        total_cost = sum(acc.cost for acc in accs)
        if cost_cap is not None and total_cost > cost_cap:
            raise BudgetExceeded(
                f"allocation cost {total_cost:.3g} exceeds cap {cost_cap:.3g} "
                f"before reaching eps={eps:.3g}")
        Vs = np.array([acc.V for acc in accs])
        if Vs.sum() <= eps**2:
            return [acc.N for acc in accs]
        scores = [acc.V / (acc.N * acc.C) for acc in accs]
        accs[int(np.argmax(scores))].refine()
        if trace is not None:
            Vs = [acc.V for acc in accs]
            trace.append(SweepPoint(
                eps=eps,
                rmse=float(np.sqrt(sum(Vs))),
                cost=float(sum(acc.cost for acc in accs)),
                N=[acc.N for acc in accs],
                V=[float(v) for v in Vs],
            ))


@dataclass
class GradientEstimate:
    """Final gradient field E[q] + alpha z with its quadrature error."""

    mean_q: FeFunction
    gradient: FeFunction
    rmse_quadrature: float
    cost_total: float             # model units, finest-sample-normalized
    manifest: dict


@dataclass
class SweepPoint:
    """Estimator state recorded when a tolerance was satisfied."""

    eps: float
    rmse: float
    cost: float                   # model units, finest-sample-normalized
    N: List[int]
    V: List[float]


def _gradient_from_accs(hier: LevelHierarchy, accs: Sequence, method: str,
                        eps: float) -> GradientEstimate:
    L = hier.L if len(accs) > 1 else accs[0].level
    mean_nodal = np.zeros(hier.fe_levels[L].num_nodes)
    for acc in accs:
        mean_nodal += fem.prolong(acc.mean(), hier.fe_levels, L).nodal_values
    mean_q = FeFunction(L, mean_nodal)
    z_nodal = hier.objective.z(hier.fe_levels[L].nodes)
    gradient = FeFunction(L, mean_nodal + hier.objective.alpha * z_nodal)
    Vs = [acc.V for acc in accs]
    rmse = float(np.sqrt(sum(Vs)))
    cost = float(sum(acc.cost for acc in accs))
    manifest = {
        "method": method,
        "eps": eps,
        "seed": hier.master_seed,
        "R": hier.R,
        "kappa": hier.kappa,
        "rmse_quadrature": rmse,
        "cost_model_normalized": cost,
        "levels": [
            {
                "level": acc.level,
                "N": acc.N,
                "R": acc.R,
                "V": acc.V,
                "C_model": acc.C,
                "s": hier.s_dim(acc.level),
                "M": hier.fe_levels[acc.level].num_nodes,
                "low_confidence": acc.N < 8,
            }
            for acc in accs
        ],
    }
    return GradientEstimate(mean_q, gradient, rmse, cost, manifest)


def _make_accs(hier: LevelHierarchy, method: str) -> List:
    if method == "mlqmc":
        return [QmcLevelAccumulator(hier, ell) for ell in range(hier.L + 1)]
    if method == "mlmc":
        return [McLevelAccumulator(hier, ell, stream="mlmc")
                for ell in range(hier.L + 1)]
    if method == "qmc":
        return [QmcLevelAccumulator(hier, hier.L, coupled=False)]
    if method == "mc":
        return [McLevelAccumulator(hier, hier.L, stream="mc", coupled=False)]
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _run_method(hier: LevelHierarchy, method: str, eps: float,
                cost_cap: Optional[float] = None) -> GradientEstimate:
    accs = _make_accs(hier, method)
    allocate_samples(accs, eps, cost_cap)
    return _gradient_from_accs(hier, accs, method, eps)


def mlqmc_gradient(hier: LevelHierarchy, eps: float,
                   cost_cap: Optional[float] = None) -> GradientEstimate:
    """Multilevel QMC gradient estimate to quadrature tolerance ``eps``."""
    return _run_method(hier, "mlqmc", eps, cost_cap)


def mlmc_gradient(hier: LevelHierarchy, eps: float,
                  cost_cap: Optional[float] = None) -> GradientEstimate:
    """Multilevel Monte Carlo gradient estimate."""
    return _run_method(hier, "mlmc", eps, cost_cap)


def qmc_single_level(hier: LevelHierarchy, eps: float,
                     cost_cap: Optional[float] = None) -> GradientEstimate:
    """Single-level randomly shifted lattice estimate at the finest level."""
    return _run_method(hier, "qmc", eps, cost_cap)


def mc_single_level(hier: LevelHierarchy, eps: float,
                    cost_cap: Optional[float] = None) -> GradientEstimate:
    """Single-level Monte Carlo estimate at the finest level."""
    return _run_method(hier, "mc", eps, cost_cap)


@dataclass
class SweepResult:
    """Tolerance sweep of one estimator, plus its final gradient.

    ``points`` holds the state when each requested tolerance was met;
    ``trajectory`` holds every intermediate allocation state (one per
    doubling), which is what the cost-exponent fit uses.  ``warmup_N``
    holds each level's warm-up sample count.
    """

    method: str
    points: List[SweepPoint]
    trajectory: List[SweepPoint]
    warmup_cost: float
    warmup_N: List[int]
    gradient: GradientEstimate

    @property
    def fit_states(self) -> List[SweepPoint]:
        return cost_fit_states(self.trajectory, self.warmup_cost, self.warmup_N)

    @property
    def exponent(self) -> float:
        return fit_cost_exponent(self.trajectory, self.warmup_cost, self.warmup_N)


def estimator_sweep(hier: LevelHierarchy, method: str, eps_list: Sequence[float],
                    cost_cap: Optional[float] = None) -> SweepResult:
    """Run one estimator over a descending tolerance sweep.

    Sample streams are keyed by (level, shift, index), so continuing the
    allocation from the previous tolerance reproduces exactly the state a
    fresh run at the smaller tolerance would reach.
    """
    eps_sorted = sorted(eps_list, reverse=True)
    accs = _make_accs(hier, method)
    for acc in accs:
        acc.refine()
    warmup_cost = float(sum(acc.cost for acc in accs))
    warmup_N = [acc.N for acc in accs]
    points = []
    trajectory: List[SweepPoint] = []
    for eps in eps_sorted:
        allocate_samples(accs, eps, cost_cap, trace=trajectory)
        Vs = [acc.V for acc in accs]
        points.append(SweepPoint(
            eps=eps,
            rmse=float(np.sqrt(sum(Vs))),
            cost=float(sum(acc.cost for acc in accs)),
            N=[acc.N for acc in accs],
            V=[float(v) for v in Vs],
        ))
    grad = _gradient_from_accs(hier, accs, method, eps_sorted[-1])
    return SweepResult(method, points, trajectory, warmup_cost, warmup_N, grad)


# -- cost accounting and fits --------------------------------------------------


def cost_ledger(hier: LevelHierarchy,
                allocation: Optional[Sequence[Tuple[int, int, int]]] = None) -> dict:
    """Measured per-level costs and (optionally) a normalized run cost.

    ``allocation`` rows are (level, R, N).  The normalized measured cost
    divides by the median cost of one finest-level sample; the model
    cost uses h_l^-kappa the same way.
    """
    rows = []
    for ell in range(hier.L + 1):
        t = hier.timing[ell]
        rows.append({
            "level": ell,
            "samples": t.samples,
            "ce_seconds_mean": t.ce_seconds / t.samples if t.samples else np.nan,
            "fe_seconds_mean": t.fe_seconds / t.samples if t.samples else np.nan,
            "total_seconds_median": float(np.median(t.totals)) if t.totals else np.nan,
        })
    out = {"levels": rows}
    medians = {r["level"]: r["total_seconds_median"] for r in rows}
    if allocation is not None:
        finest = medians.get(hier.L, np.nan)
        measured = model = 0.0
        for level, R, N in allocation:
            measured += R * N * medians.get(level, np.nan)
            model += R * N * hier.cost_model[level]
        out["cost_measured_normalized"] = measured / finest
        out["cost_model_normalized"] = model  # cost_model already normalized
    hs = np.array([lev.h for lev in hier.fe_levels])
    med = np.array([medians[ell] for ell in range(hier.L + 1)])
    valid = np.isfinite(med)
    if valid.sum() >= 2:
        out["kappa_measured"] = fit_loglog_slope(hs[valid], med[valid])
    return out


def fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    return float(np.linalg.lstsq(A, ly, rcond=None)[0][0])


def cost_fit_states(points: Sequence[SweepPoint], warmup_cost: float,
                    warmup_N: Sequence[int] = ()) -> List[SweepPoint]:
    """States of a sweep that the cost-exponent fit uses.

    A state qualifies once the allocation, not the warm-up, sets every
    level's sample count: each level's N exceeds its warm-up count in
    ``warmup_N``.  While some level still sits at warm-up, the cost is a
    fixed warm-up share plus a growing part, and the log-log slope of
    that sum is not the asymptotic cost rate (Giles, Acta Numerica
    2015).  Duplicate states are collapsed.

    The empty default of ``warmup_N`` serves callers that know only the
    total warm-up cost: a state then qualifies when its cost exceeds
    ``warmup_cost`` by more than 0.1 %, a weaker rule that keeps states
    in which some level still sits at warm-up.
    """
    seen = set()
    states = []
    for p in points:
        if len(warmup_N):
            moved = all(n > w for n, w in zip(p.N, warmup_N))
        else:
            moved = p.cost > warmup_cost * 1.001
        key = (round(p.cost, 12), round(p.rmse, 15))
        if moved and key not in seen:
            seen.add(key)
            states.append(p)
    return states


def fit_cost_exponent(points: Sequence[SweepPoint], warmup_cost: float,
                      warmup_N: Sequence[int] = ()) -> float:
    """Cost exponent p with cost ~ rmse^-p from a tolerance sweep.

    Fits log cost against log(1/achieved rmse) over the states selected
    by ``cost_fit_states``.  Regressing on the achieved RMSE rather than
    the requested tolerance removes the quantization that doubling-based
    allocation puts into the cost/tolerance relation.  Returns NaN when
    fewer than two such states exist.
    """
    states = cost_fit_states(points, warmup_cost, warmup_N)
    if len(states) < 2:
        return float("nan")
    return fit_loglog_slope([1.0 / p.rmse for p in states], [p.cost for p in states])
