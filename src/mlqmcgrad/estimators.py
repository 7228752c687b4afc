"""Gradient estimators over the level hierarchy.

Implements the four estimators (MC, QMC, MLMC, MLQMC) for the mean
adjoint field, sharing one field/FE stack so that only the quadrature
points differ.  A multilevel estimator telescopes corrections
q_l - q_{l-1}, each computed from the same field realization sampled at
level l and restricted to the coarser grid.  ``estimator_sweep(hier,
method, eps_list)`` runs any of them; its ``.gradient`` is the estimate
at the smallest tolerance.

Sample allocation follows the greedy rule: while the summed variance
contributions exceed eps^2, double N at the level with the largest
V_l / (N_l C_l).  Costs entering the allocation are the deterministic
model costs h_l^-kappa so that identical configurations reproduce
identical allocations; wall-clock times are recorded separately.

A refinement evaluates its new samples in blocks, each one
``coupled_sample`` call whose stages run once over a leading sample
axis, and adds them to the sums one by one in sample order.  Blocks are
sized by ``_block_size``: no block plans more bytes than one sample of
the finest level, and samples of at least 2^16 inputs run one at a
time.  Each sample's values are bitwise those it gives alone, so the
outputs do not depend on the block sizes.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field as dfield
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fem, qmc
from .circulant_field import (
    CirculantEmbedding,
    FieldRealization,
    Stencil,
    UniformGrid,
    build_embedding,
    eval_field,
    interpolation_stencil,
    restrict_to_coarse,
    sample_field,
)
from .covariance import MaternParams, MeanField
from .fem import FeFunction, FeLevel, OperatorSet, TargetAndControl

try:
    import resource
except ImportError:              # not on Windows
    resource = None

__all__ = [
    "LevelHierarchy",
    "QmcLevelAccumulator",
    "McLevelAccumulator",
    "GradientEstimate",
    "SweepPoint",
    "SweepResult",
    "BudgetExceeded",
    "InsufficientShifts",
    "adjoint_solution",
    "coupled_sample",
    "allocate_samples",
    "estimator_sweep",
    "measured_cost",
    "cost_ledger",
    "peak_rss_mb",
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


def peak_rss_mb() -> Optional[float]:
    """The process's resident-set high-water mark so far, in MB; None
    where ``resource`` is missing.  ``ru_maxrss`` counts KiB on Linux and
    bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


@dataclass
class _LevelTiming:
    """One level's ledger: per ``coupled_sample`` call, its seconds
    (``totals``) and its seconds per sample (``per_sample``)."""

    samples: int = 0
    calls: int = 0
    ce_seconds: float = 0.0
    fe_seconds: float = 0.0
    totals: List[float] = dfield(default_factory=list)
    per_sample: List[float] = dfield(default_factory=list)


class LevelHierarchy:
    """Per-level FE meshes, CE factorizations and lattice vectors, plus
    what every sample of a level reuses: the mean log-field on its CE
    grid and the stencil of its FE centroids in that grid (``stencils``,
    the one map from a field to a mesh's per-triangle coefficients).

    Immutable after construction; estimation only reads it (the timing
    ledger is the one mutable side channel).  ``setup_peak_rss_mb`` is
    the process's memory high-water mark when construction ended.
    """

    def __init__(self, kernel: MaternParams, mean: MeanField,
                 objective: TargetAndControl, L: int, *,
                 fe_offset: int = 2, ce_offset: int = 0, R: int = 10,
                 master_seed: int = 0, kappa: float = 2.5,
                 base_vector: Optional[qmc.GeneratingVector] = None,
                 ce_tol: float = 1e-13,
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
        self.mean_values: List[np.ndarray] = []
        self.stencils: List[Stencil] = []
        for ell in range(L + 1):
            coarser = self.fe_levels[-1] if self.fe_levels else None
            lev = fem.build_fe_level(ell, 2 ** (fe_offset + ell) + 1, coarser)
            self.fe_levels.append(lev)
            grid = UniformGrid(dim=2, points_per_axis=2 ** (ce_offset + ell) + 1)
            self.ce_grids.append(grid)
            # evaluated (and checked finite) once, added to every sample
            self.mean_values.append(mean.at(grid.points()))
            # a correction's coarse term puts this level's FE mesh on this
            # level's CE grid too, so one stencil per level serves both terms
            self.stencils.append(interpolation_stencil(grid, lev.centroids))
            emb = build_embedding(kernel, grid, tol=ce_tol)
            self.embeddings.append(emb)
            self.vectors.append(
                qmc.extend_vector(base, emb.s, seed=[master_seed, 101, ell]))

        # deterministic per-sample model cost, normalized to the finest level
        h = np.array([lev.h for lev in self.fe_levels])
        self.cost_model = (h / h[-1]) ** (-kappa)

        # objective data precomputed per level
        self._b_z = [fem.assemble_load(lev, objective.z(lev.quad_points))
                     for lev in self.fe_levels]
        self._g_quad = [objective.g(lev.quad_points) for lev in self.fe_levels]

        # keyed by (level, correction): a correction q_l - q_{l-1} and a
        # plain q_l sample at the same level cost different amounts
        self.timing: Dict[Tuple[int, bool], _LevelTiming] = {}
        self.setup_peak_rss_mb = peak_rss_mb()

    def record_timing(self, level: int, correction: bool, ce: float, fe: float,
                      samples: int = 1):
        """Enter one ``coupled_sample`` call of ``samples`` samples."""
        t = self.timing.setdefault((level, correction), _LevelTiming())
        t.samples += samples
        t.calls += 1
        t.ce_seconds += ce
        t.fe_seconds += fe
        t.totals.append(ce + fe)
        t.per_sample.append((ce + fe) / samples)


def adjoint_solution(hier: LevelHierarchy, ell: int,
                     field: FieldRealization) -> FeFunction:
    """State + adjoint solve at FE level ``ell`` for a field on
    ``hier.ce_grids[ell]`` (ValueError for another grid), whose centroid
    values come through ``hier.stencils[ell]``; a block of fields gives
    a block of adjoints."""
    lev = hier.fe_levels[ell]
    a_elem = eval_field(field, hier.stencils[ell])
    ops = OperatorSet(lev, a_elem)
    u = ops.solve(hier._b_z[ell])
    u_quad = lev.quad_values(u.nodal_values)
    u_quad -= hier._g_quad[ell]
    return ops.solve(fem.assemble_load(lev, u_quad))


def coupled_sample(hier: LevelHierarchy, ell: int, y: np.ndarray,
                   coupled: bool = True) -> FeFunction:
    """One sample of q_ell - q_{ell-1} (or plain q_ell at level 0).

    ``y`` holds s_ell standard normals in importance order.  Both terms
    use the same level-``ell`` field realization; the coarse term sees
    its restriction to the coarser CE grid.  With ``coupled=False`` the
    plain level-``ell`` adjoint is returned (single-level estimators).

    ``y`` of shape (B, s_ell) evaluates a block of B samples, every
    stage once over the block, and returns their nodal values as (B, M)
    rows, each bitwise the sample its row gives alone.  The call enters
    the timing ledger once, with its sample count.
    """
    t0 = time.perf_counter()
    try:
        fld = sample_field(hier.embeddings[ell], hier.mean_values[ell], y, level=ell)
    except Exception as exc:
        raise type(exc)(f"level {ell}: {exc}") from exc
    # the normals are spent: when the caller hands them over unnamed, as
    # the accumulators do, their s doubles are freed before the solves
    # (CPython 3.11 and later pass such an argument's only reference)
    del y
    t1 = time.perf_counter()
    correction = coupled and ell > 0
    try:
        q_fine = adjoint_solution(hier, ell, fld)
        if correction:
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
    hier.record_timing(ell, correction, t1 - t0, t2 - t1,
                       q_fine.nodal_values.size // hier.fe_levels[ell].num_nodes)
    return q_fine


# -- level accumulators --------------------------------------------------------

# The sampling stages already run in chunks of this many inputs (the
# normal map and the spectrum fill), so a sample with at least that many
# has no per-call overhead left to share: such samples run one per block.
_BLOCK_INPUTS = 2**16


def _sample_bytes(hier: LevelHierarchy, level: int, correction: bool) -> int:
    """Bytes of the sample-sized arrays one sample of a block plans for.

    Its lattice point (integer and float), normals and half spectrum,
    8 bytes per entry; then on each FE level it solves on (the coarser
    one too for a correction) its band factor, its stiffness data and
    their block-diagonal indices, the stencil terms and values of its
    coefficient (5 per triangle), its quadrature values (9 per
    triangle) and the nodal vectors of its loads, solutions and
    residuals (6 per node), 8 bytes each.
    """
    emb = hier.embeddings[level]
    spectrum = 2 * (emb.ext_per_axis // 2 + 1) * emb.ext_per_axis ** (emb.grid.dim - 1)
    total = 8 * (3 * emb.s + spectrum)
    for lev in hier.fe_levels[level - correction:level + 1]:
        band = lev.interior.size * (lev._band_kd + 1)
        total += 8 * (band + 2 * lev.mass.nnz + 14 * lev.num_triangles
                      + 6 * lev.num_nodes)
    return total


def _block_size(hier: LevelHierarchy, level: int, coupled: bool) -> int:
    """Samples per block of a refinement at ``level``: as many as hold no
    more bytes (``_sample_bytes``) than one sample of the finest level,
    and no more than ``_BLOCK_INPUTS`` inputs; at least one."""
    finest = _sample_bytes(hier, hier.L, coupled and hier.L > 0)
    fit = finest // _sample_bytes(hier, level, coupled and level > 0)
    return max(1, min(fit, _BLOCK_INPUTS // hier.embeddings[level].s))


def _balanced(count: int, block: int) -> int:
    """The step that covers ``count`` samples with the fewest blocks of
    at most ``block``, n of them, each of ceil(count / n) samples but the
    last, which is short by less than n: a short last block costs more
    per sample than the others."""
    return -(-count // -(-count // block))


def _one_or_block(k: np.ndarray):
    """Sample indices as a block evaluates them: a block of one runs as
    a single sample, whose stages index 1-D arrays (numpy's fastest
    path for the large samples that run one at a time)."""
    return k if k.size > 1 else int(k[0])


def _model_cost(hier: LevelHierarchy, level: int, coupled: bool) -> float:
    """Model cost of one sample in plain finest-level samples; a
    correction (``coupled`` above level 0) adds its coarse solve."""
    c = hier.cost_model[level]
    if coupled and level > 0:
        c = c + hier.cost_model[level - 1]
    return float(c)


class _LevelAccumulator:
    """What the allocation reads from one level: N, V, the per-sample
    model cost C and the total cost R * N * C.

    ``refine()`` doubles N; its first call takes N to ``warmup``.  With
    ``coupled`` a level above 0 samples the correction q_l - q_{l-1},
    whose model cost covers both solves.  A refinement evaluates its new
    samples in blocks of ``block`` (see ``_block_size``), each one
    ``coupled_sample`` call, and adds them to the sums one at a time in
    sample order, so the sums do not depend on the block size.
    """

    R = 1

    def __init__(self, hier: LevelHierarchy, level: int, coupled: bool,
                 warmup: int):
        self.hier = hier
        self.level = level
        self.coupled = coupled
        self.N = 0
        self.warmup = warmup
        self.block = _block_size(hier, level, coupled)

    @property
    def C(self) -> float:
        return _model_cost(self.hier, self.level, self.coupled)

    @property
    def cost(self) -> float:
        return self.R * self.N * self.C


class QmcLevelAccumulator(_LevelAccumulator):
    """Running per-shift sums of the level correction for one lattice rule.

    Refinement reuses all previously evaluated points of the embedded
    sequence.  Accumulation runs in ascending sample index per shift
    (deterministic reduction), so any sequence of refinements that ends
    at the same N gives the same sums bitwise.
    """

    def __init__(self, hier: LevelHierarchy, level: int, R: Optional[int] = None,
                 coupled: bool = True):
        R = hier.R if R is None else R
        if R < 2:
            raise InsufficientShifts(f"need R >= 2 shifts, got {R}")
        super().__init__(hier, level, coupled, hier.warmup_qmc)
        self.R = R
        self.gv = hier.vectors[level]
        M = hier.fe_levels[level].num_nodes
        self.sums = np.zeros((R, M))

    def _evaluate(self, delta: np.ndarray, k) -> np.ndarray:
        # neither the cube points nor the normals are bound to a name here,
        # so each is freed as soon as it is spent (see coupled_sample)
        return np.reshape(coupled_sample(
            self.hier, self.level,
            qmc.cube_to_normal(qmc.sequence_point(self.gv, k, delta)),
            self.coupled).nodal_values, (np.size(k), -1))

    def refine(self):
        # The new (shift, k) pairs run in blocks, shift-major.  Shifts are
        # drawn again on every refinement, one at a time, and a block keeps
        # only the shifts it reaches: keeping all R of them would hold
        # 8 R s bytes per level for the whole run.
        n_old = self.N
        n_new = self.warmup if n_old == 0 else 2 * n_old
        pairs = self.R * (n_new - n_old)
        shifts = qmc.make_shift_set(self.hier.master_seed, self.level, self.R,
                                    self.hier.embeddings[self.level].s)
        held, first = [], 0                 # shifts first, first + 1, ...
        step = _balanced(pairs, self.block)
        for start in range(0, pairs, step):
            rows, k = np.divmod(np.arange(start, min(start + step, pairs)),
                                n_new - n_old)
            del held[:rows[0] - first]      # spent before the next is drawn
            first = rows[0]
            while first + len(held) <= rows[-1]:
                held.append(next(shifts))
            delta = held[0] if len(held) == 1 else np.stack(held)[rows - first]
            for r, vals in zip(rows, self._evaluate(delta, _one_or_block(k + n_old))):
                self.sums[r] += vals
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


class McLevelAccumulator(_LevelAccumulator):
    """Plain Monte Carlo version: i.i.d. normals, across-sample variance.

    The nodal sums are kept relative to the first sample to avoid
    cancellation in the variance; streams are keyed by
    (seed, method, level, sample index) so growing N extends the
    existing sample set.
    """

    def __init__(self, hier: LevelHierarchy, level: int, stream: str = "mc",
                 coupled: bool = True):
        super().__init__(hier, level, coupled, hier.warmup_mc)
        self.stream = stream
        M = hier.fe_levels[level].num_nodes
        self._ref: Optional[np.ndarray] = None
        self.sum_dev = np.zeros(M)
        self.sum_dev2 = np.zeros(M)

    def _normals(self, k) -> np.ndarray:
        """Row i: the normals of sample k[i], from its own keyed stream."""
        y = np.empty(np.shape(k) + (self.hier.embeddings[self.level].s,))
        for i, row in zip(np.atleast_1d(k), y.reshape(-1, y.shape[-1])):
            qmc.shift_rng(self.hier.master_seed, self.stream, self.level,
                          i).standard_normal(out=row)
        return y

    def _evaluate(self, k) -> np.ndarray:
        # the normals are not bound to a name here (see coupled_sample)
        return np.reshape(coupled_sample(self.hier, self.level, self._normals(k),
                                         self.coupled).nodal_values, (np.size(k), -1))

    def refine(self):
        n_new = self.warmup if self.N == 0 else 2 * self.N
        step = _balanced(n_new - self.N, self.block)
        for start in range(self.N, n_new, step):
            for vals in self._evaluate(
                    _one_or_block(np.arange(start, min(start + step, n_new)))):
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

    def mean(self) -> FeFunction:
        return FeFunction(self.level, self._ref + self.sum_dev / self.N)


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
            trace.append(_state(accs, eps))


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


def _state(accs: Sequence, eps: float) -> SweepPoint:
    Vs = [acc.V for acc in accs]
    return SweepPoint(
        eps=eps,
        rmse=float(np.sqrt(sum(Vs))),
        cost=float(sum(acc.cost for acc in accs)),
        N=[acc.N for acc in accs],
        V=[float(v) for v in Vs],
    )


def _gradient_from_accs(hier: LevelHierarchy, accs: Sequence, method: str,
                        eps: float) -> GradientEstimate:
    L = hier.L if len(accs) > 1 else accs[0].level
    mean_nodal = np.zeros(hier.fe_levels[L].num_nodes)
    for acc in accs:
        mean_nodal += fem.prolong(acc.mean(), hier.fe_levels, L).nodal_values
    mean_q = FeFunction(L, mean_nodal)
    z_nodal = hier.objective.z(hier.fe_levels[L].nodes)
    gradient = FeFunction(L, mean_nodal + hier.objective.alpha * z_nodal)
    state = _state(accs, eps)
    manifest = {
        "method": method,
        "eps": eps,
        "seed": hier.master_seed,
        "R": hier.R,
        "kappa": hier.kappa,
        "rmse_quadrature": state.rmse,
        "cost_model_normalized": state.cost,
        "levels": [
            {
                "level": acc.level,
                "N": acc.N,
                "R": acc.R,
                "V": V,
                "C_model": acc.C,
                "s": hier.embeddings[acc.level].s,
                "M": hier.fe_levels[acc.level].num_nodes,
                "low_confidence": acc.N < 8,
            }
            for acc, V in zip(accs, state.V)
        ],
    }
    return GradientEstimate(mean_q, gradient, state.rmse, state.cost, manifest)


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
    def coupled(self) -> bool:
        """Whether levels above 0 sample corrections (the multilevel methods)."""
        return self.method in ("mlmc", "mlqmc")

    @property
    def fit_states(self) -> List[SweepPoint]:
        return cost_fit_states(self.trajectory, self.warmup_N)

    @property
    def exponent(self) -> float:
        return fit_cost_exponent(self.trajectory, self.warmup_N)


def estimator_sweep(hier: LevelHierarchy, method: str, eps_list: Sequence[float],
                    cost_cap: Optional[float] = None) -> SweepResult:
    """Run one estimator (one of ``METHODS``) over a descending tolerance
    sweep; ``cost_cap`` bounds the model cost (``BudgetExceeded``).

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
        points.append(_state(accs, eps))
    grad = _gradient_from_accs(hier, accs, method, eps_sorted[-1])
    return SweepResult(method, points, trajectory, warmup_cost, warmup_N, grad)


# -- cost accounting and fits --------------------------------------------------


def _median_seconds(hier: LevelHierarchy, level: int, correction: bool,
                    per_sample: bool = True) -> float:
    """Median over a level's ``coupled_sample`` calls of their seconds per
    sample, or with ``per_sample=False`` of their seconds."""
    t = hier.timing.get((level, correction))
    if not t:
        return np.nan
    return float(np.median(t.per_sample if per_sample else t.totals))


def measured_cost(hier: LevelHierarchy, allocation: Sequence[Tuple[int, int, int]],
                  coupled: bool = True) -> float:
    """Measured cost of an allocation, in finest-level samples of its kind.

    ``allocation`` rows are (level, R, N); a level above 0 samples the
    correction q_l - q_{l-1} when ``coupled``, else plain q_l.  Each row
    costs R * N median sample times of its own kind (per sample of the
    blocks its level ran), and the sum is divided by the median time of
    one finest-level sample of that kind.
    The model cost counts plain finest-level samples, of which a
    correction costs C_L = 1 + 2^-kappa (about 1.18), so when ``coupled``
    it is C_L times the measured cost even where the model is exact.
    """
    finest = _median_seconds(hier, hier.L, coupled and hier.L > 0)
    total = sum(R * N * _median_seconds(hier, level, coupled and level > 0)
                for level, R, N in allocation)
    return total / finest


def cost_ledger(hier: LevelHierarchy,
                allocation: Optional[Sequence[Tuple[int, int, int]]] = None,
                coupled: bool = True) -> dict:
    """Measured per-level costs and (optionally) a normalized run cost.

    ``levels`` holds one row per level for the samples of the run's
    kind (corrections above level 0 when ``coupled``, plain samples
    otherwise), then a row for each level where the other kind was
    sampled too, as ``cost-curve`` does.  ``allocation`` rows are
    (level, R, N); see ``measured_cost``.  The model cost prices each
    row as the allocation does, in plain finest-level samples with a
    correction's coarse term, so it equals the manifest's
    ``cost_model_normalized``.  ``kappa_measured`` is the
    measured counterpart of the model's kappa: minus the log-log slope of
    the run kind's median sample time against h, positive when cost
    grows as the mesh refines.

    A row's ``calls`` counts its ``coupled_sample`` calls (one per block)
    and ``samples`` their samples; ``ce_seconds_mean`` and
    ``fe_seconds_mean`` are seconds per sample.  ``total_seconds_median``
    is the median seconds of one call, and ``sample_seconds_median`` the
    median over calls of their seconds per sample, which the measured
    costs and ``kappa_measured`` use.
    """
    def row(ell: int, correction: bool) -> dict:
        t = hier.timing.get((ell, correction), _LevelTiming())
        return {
            "level": ell,
            "correction": correction,
            "samples": t.samples,
            "calls": t.calls,
            "ce_seconds_mean": t.ce_seconds / t.samples if t.samples else np.nan,
            "fe_seconds_mean": t.fe_seconds / t.samples if t.samples else np.nan,
            "total_seconds_median": _median_seconds(hier, ell, correction, False),
            "sample_seconds_median": _median_seconds(hier, ell, correction),
        }

    kinds = [coupled and ell > 0 for ell in range(hier.L + 1)]
    rows = [row(ell, kind) for ell, kind in enumerate(kinds)]
    med = np.array([r["sample_seconds_median"] for r in rows])
    rows += [row(ell, not kind) for ell, kind in enumerate(kinds)
             if (ell, not kind) in hier.timing]
    out = {"levels": rows}
    if allocation is not None:
        out["cost_measured_normalized"] = measured_cost(hier, allocation, coupled)
        out["cost_model_normalized"] = sum(
            R * N * _model_cost(hier, level, coupled) for level, R, N in allocation)
    hs = np.array([lev.h for lev in hier.fe_levels])
    valid = np.isfinite(med)
    if valid.sum() >= 2:
        out["kappa_measured"] = -fit_loglog_slope(hs[valid], med[valid])
    return out


def fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    return float(np.linalg.lstsq(A, ly, rcond=None)[0][0])


def cost_fit_states(points: Sequence[SweepPoint],
                    warmup_N: Sequence[int]) -> List[SweepPoint]:
    """States of a sweep that the cost-exponent fit uses.

    A state qualifies once the allocation, not the warm-up, sets every
    level's sample count: each level's N exceeds its warm-up count in
    ``warmup_N``.  While some level still sits at warm-up, the cost is a
    fixed warm-up share plus a growing part, and the log-log slope of
    that sum is not the asymptotic cost rate (Giles, Acta Numerica
    2015).  Duplicate states are collapsed.
    """
    seen = set()
    states = []
    for p in points:
        moved = all(n > w for n, w in zip(p.N, warmup_N))
        key = (round(p.cost, 12), round(p.rmse, 15))
        if moved and key not in seen:
            seen.add(key)
            states.append(p)
    return states


def fit_cost_exponent(points: Sequence[SweepPoint],
                      warmup_N: Sequence[int]) -> float:
    """Cost exponent p with cost ~ rmse^-p from a tolerance sweep.

    Fits log cost against log(1/achieved rmse) over the states selected
    by ``cost_fit_states``.  Regressing on the achieved RMSE rather than
    the requested tolerance removes the quantization that doubling-based
    allocation puts into the cost/tolerance relation.  Returns NaN when
    fewer than two such states exist.
    """
    states = cost_fit_states(points, warmup_N)
    if len(states) < 2:
        return float("nan")
    return fit_loglog_slope([1.0 / p.rmse for p in states], [p.cost for p in states])
