from collections import Counter

import numpy as np
import pytest
from conftest import (control_bumps, make_hierarchy, mass_matrix, quad_eval_matrix,
                      target_indicator, zero_fn)

from mlqmcgrad import circulant_field
from mlqmcgrad import estimators as est
from mlqmcgrad import fem
from mlqmcgrad.circulant_field import UniformGrid, restrict_to_coarse, sample_field
from mlqmcgrad.covariance import MaternParams, MeanField
from mlqmcgrad.estimators import (
    BudgetExceeded,
    InsufficientShifts,
    LevelHierarchy,
    McLevelAccumulator,
    QmcLevelAccumulator,
    SweepPoint,
    allocate_samples,
    coupled_sample,
    fit_cost_exponent,
    fit_loglog_slope,
)
from mlqmcgrad.fem import TargetAndControl


def qmc_level(hier, ell, N, R):
    """Level-``ell`` QMC accumulator holding N points on each of R shifts."""
    acc = QmcLevelAccumulator(hier, ell, R=R)
    acc.warmup = N
    acc.refine()
    return acc


def gradient(hier, method, eps):
    return est.estimator_sweep(hier, method, [eps]).gradient


class TestHierarchy:
    def test_nested_dimensions(self, hier2):
        s = [hier2.embeddings[ell].s for ell in range(3)]
        assert s == sorted(s)
        assert all(len(hier2.vectors[ell]) >= s[ell] for ell in range(3))
        h = [lev.h for lev in hier2.fe_levels]
        assert h[0] == 2 * h[1] == 4 * h[2]

    def test_cost_model_normalized_to_finest(self, hier2):
        assert hier2.cost_model[-1] == 1.0
        assert np.all(np.diff(hier2.cost_model) > 0)

    def test_default_mc_warmup_matches_qmc_effort(self, hier2):
        assert hier2.warmup_mc == hier2.R * hier2.warmup_qmc


class TestCoupledSample:
    def test_level0_is_plain_adjoint(self, hier2):
        y = np.zeros(hier2.embeddings[0].s)
        q = coupled_sample(hier2, 0, y)
        fld = sample_field(hier2.embeddings[0], hier2.mean_values[0], y)
        q_direct = est.adjoint_solution(hier2, 0, fld)
        assert np.array_equal(q.nodal_values, q_direct.nodal_values)

    def test_zero_objective_gives_zero(self):
        hier = make_hierarchy(L=1, objective=TargetAndControl(
            g=zero_fn, z=zero_fn, alpha=1.0))
        for ell in range(2):
            y = np.random.default_rng(0).standard_normal(hier.embeddings[ell].s)
            q = coupled_sample(hier, ell, y)
            assert np.all(q.nodal_values == 0.0)

    def test_deterministic_field_refinement_decay(self):
        # y = 0 freezes the field at exp(mean); the coupled difference is
        # then the pure discretization correction and must shrink with level
        hier = make_hierarchy(L=3)
        norms = []
        for ell in range(1, 4):
            q = coupled_sample(hier, ell, np.zeros(hier.embeddings[ell].s))
            norms.append(fem.l2_norm(hier.fe_levels[ell], q))
        assert norms[1] < norms[0] and norms[2] < norms[1]

    def test_pathwise_telescoping(self, hier2):
        # same realization drives every term: the sum collapses to q_L
        rng = np.random.default_rng(5)
        y = rng.standard_normal(hier2.embeddings[1].s)
        fld = sample_field(hier2.embeddings[1], hier2.mean_values[1], y, level=1)
        q1 = est.adjoint_solution(hier2, 1, fld)
        q0 = est.adjoint_solution(
            hier2, 0, restrict_to_coarse(fld, hier2.ce_grids[0]))
        term0 = fem.prolong(q0, hier2.fe_levels, 1)
        term1 = q1.nodal_values - term0.nodal_values
        total = fem.FeFunction(1, term0.nodal_values + term1 - q1.nodal_values)
        assert fem.l2_norm(hier2.fe_levels[1], total) <= 1e-8

    def test_field_on_another_grid_rejected(self, hier2):
        # level 1's stencil is built for level 1's CE grid only; a field on
        # any other grid is an error, not a reason to build a second stencil
        y = np.zeros(hier2.embeddings[2].s)
        fld = sample_field(hier2.embeddings[2], hier2.mean_values[2], y, level=2)
        with pytest.raises(ValueError, match="stencil"):
            est.adjoint_solution(hier2, 1, fld)

    def test_later_samples_reuse_level_invariants(self, monkeypatch):
        # the mean on the CE grid, the grid points and the centroids'
        # domain check belong to the level, not to each sample
        hier = make_hierarchy(L=2, seed=31)
        rng = np.random.default_rng(4)

        def draw(ell):
            return rng.standard_normal(hier.embeddings[ell].s)

        for ell in range(3):
            coupled_sample(hier, ell, draw(ell))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(MeanField, "at", counted("at", MeanField.at))
        monkeypatch.setattr(UniformGrid, "points", counted("points", UniformGrid.points))
        monkeypatch.setattr(circulant_field, "_check_in_domain",
                            counted("domain", circulant_field._check_in_domain))
        for ell in range(3):
            for coupled in (True, False):
                coupled_sample(hier, ell, draw(ell), coupled)
        assert calls == Counter()
        # the counters are live: building the invariants again pays for them
        grid = hier.ce_grids[0]
        hier.mean.at(grid.points())
        circulant_field.interpolation_stencil(grid, hier.fe_levels[0].centroids)
        assert calls == Counter(at=1, points=1, domain=1)


def smooth_direction(x):
    return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) * (1.0 + x[:, 0])


@pytest.fixture(scope="module", params=[0.5, 2.5], ids=["problem1", "problem2"])
def frozen_levels(request):
    """Levels 0-3 of a preset's hierarchy, each with the adjoint q on one
    frozen field: a level-3 draw, restricted to the coarser grids."""
    objective = TargetAndControl(g=target_indicator, z=control_bumps, alpha=1e-4)
    hier = LevelHierarchy(MaternParams(sigma2=0.1, lambda_c=1.0, nu=request.param),
                          MeanField(0.0), objective, 3, master_seed=5)
    y = np.random.default_rng(11).standard_normal(hier.embeddings[3].s)
    fields = [sample_field(hier.embeddings[3], hier.mean_values[3], y, level=3)]
    for ell in (2, 1, 0):
        fields.insert(0, restrict_to_coarse(fields[0], hier.ce_grids[ell]))
    return hier, fields


class TestAdjointAgainstObjective:
    """The adjoint gives the derivative of the discrete objective
    J(z) = 1/2 int (u - g)^2 + alpha/2 int z^2, both integrals by the
    edge-midpoint rule, with u the FE state for the control z."""

    @staticmethod
    def parts(hier, fields, ell):
        lev = hier.fe_levels[ell]
        obj = hier.objective
        weight = lev.tri_area / 3.0        # edge-midpoint rule, per point
        ops = fem.OperatorSet(lev, est.eval_field(fields[ell], hier.stencils[ell]))
        g = obj.g(lev.quad_points)

        def J(zq):
            u = ops.solve(fem.assemble_load(lev, zq))
            r = quad_eval_matrix(lev) @ u.nodal_values - g
            return 0.5 * weight * (r @ r) + 0.5 * obj.alpha * weight * (zq @ zq)

        q = est.adjoint_solution(hier, ell, fields[ell])
        return lev, J, q, weight

    @pytest.mark.parametrize("ell", range(4))
    def test_central_difference_matches_adjoint(self, frozen_levels, ell):
        # J is quadratic in z, so the central difference is exact up to
        # rounding, whatever the step
        hier, fields = frozen_levels
        lev, J, q, weight = self.parts(hier, fields, ell)
        z = hier.objective.z(lev.quad_points)
        d = smooth_direction(lev.quad_points)
        adjoint = weight * (quad_eval_matrix(lev) @ q.nodal_values
                            + hier.objective.alpha * z) @ d
        central = (J(z + d) - J(z - d)) / 2.0
        assert abs(central - adjoint) <= 1e-12 * abs(adjoint)

    def test_reported_nodal_form_converges_at_h_squared(self, frozen_levels):
        # the reported gradient, nodal q + alpha z paired through the P1
        # mass, differs from the derivative by the O(h^2) interpolation
        # error of the direction and the control; its rms over nine sine
        # modes measures that gap (one direction's can cancel by chance)
        def modes(x):
            return np.stack([np.sin(j * np.pi * x[:, 0]) * np.sin(k * np.pi * x[:, 1])
                             for j in (1, 2, 3) for k in (1, 2, 3)])

        hier, fields = frozen_levels
        alpha, z = hier.objective.alpha, hier.objective.z
        gaps = []
        for ell in range(4):
            lev, _, q, weight = self.parts(hier, fields, ell)
            adjoint = modes(lev.quad_points) @ (
                weight * (quad_eval_matrix(lev) @ q.nodal_values + alpha * z(lev.quad_points)))
            paired = modes(lev.nodes) @ (mass_matrix(lev)
                                         @ (q.nodal_values + alpha * z(lev.nodes)))
            gaps.append(np.sqrt(np.mean((paired - adjoint) ** 2)))
        # level 0 (a 2 x 2 field grid) is not yet asymptotic; 4 is O(h^2)
        assert gaps[1] / gaps[2] >= 2.5
        assert 3.4 <= gaps[2] / gaps[3] <= 4.6


class TestLevelEstimates:
    def test_constant_integrand_zero_variance(self):
        hier = make_hierarchy(L=1, objective=TargetAndControl(
            g=zero_fn, z=zero_fn, alpha=1.0))
        assert qmc_level(hier, 1, N=2, R=4).V == 0.0

    def test_insufficient_shifts(self, hier2):
        with pytest.raises(InsufficientShifts):
            QmcLevelAccumulator(hier2, 0, R=1)

    def test_doubling_shifts_halves_variance(self):
        # ratio of pooled variance estimates over independent replicas
        v_small, v_large = [], []
        for rep in range(40):
            hier = make_hierarchy(L=0, seed=1000 + rep)
            v_small.append(qmc_level(hier, 0, 2, R=8).V)
            v_large.append(qmc_level(hier, 0, 2, R=16).V)
        ratio = np.mean(v_large) / np.mean(v_small)
        assert 0.4 <= ratio <= 0.6

    def test_mc_estimate_variance_of_mean(self, hier2):
        acc = McLevelAccumulator(hier2, 0, stream="mlmc")
        acc.warmup = 64
        acc.refine()
        assert acc.V > 0
        assert acc.N == 64 and acc.R == 1

    def test_mc_variance_slope(self):
        # variance of the MC mean scales like 1/N; measure it directly
        # across independent replica streams (nested in N, so the
        # level-to-level noise largely cancels in the slope fit)
        hier = make_hierarchy(L=0, seed=77)
        K = 24
        accs = [McLevelAccumulator(hier, 0, stream=f"mcslope{k}")
                for k in range(K)]
        for acc in accs:
            acc.warmup = 16
        Ns, Vs = [], []
        while accs[0].N < 2**10:
            for acc in accs:
                acc.refine()
            means = np.array([acc.mean().nodal_values for acc in accs])
            nodal_var = means.var(axis=0, ddof=1)
            Ns.append(accs[0].N)
            Vs.append(fem.integrate(hier.fe_levels[0], nodal_var))
        slope = fit_loglog_slope(Ns, Vs)
        assert -1.15 <= slope <= -0.85


class SyntheticLevel:
    """V(N) = V0/N with deterministic refinement, for allocation tests."""

    def __init__(self, V0, C, N=1):
        self.V0, self.C, self.N = V0, C, N
        self.doubled = 0

    @property
    def V(self):
        return self.V0 / self.N

    @property
    def cost(self):
        return self.N * self.C

    def refine(self):
        self.N *= 2
        self.doubled += 1


class TestAllocation:
    def test_no_op_when_tolerance_met(self):
        levels = [SyntheticLevel(1e-8, 1.0), SyntheticLevel(1e-8, 2.0)]
        Ns = allocate_samples(levels, eps=1e-3)
        assert Ns == [1, 1]

    def test_argmax_selection(self):
        eps = 1e-2
        levels = [SyntheticLevel(8 * eps**2, 1.0),
                  SyntheticLevel(eps**2 / 8, 1.0)]
        allocate_samples(levels, eps=eps)
        # level 0 dominates the score V/(N C) and absorbs every doubling
        assert levels[0].doubled >= 1
        assert levels[1].doubled == 0

    def test_termination_and_balance(self):
        eps = 1e-3
        levels = [SyntheticLevel(1e-4, 1.0), SyntheticLevel(3e-5, 4.0),
                  SyntheticLevel(1e-5, 16.0)]
        allocate_samples(levels, eps=eps)
        assert sum(l.V for l in levels) <= eps**2
        # greedy equalizes the marginal value up to doubling granularity:
        # V ~ 1/N makes V/(N C) move in steps of 4, so 4x is the bound
        scores = [l.V / (l.N * l.C) for l in levels]
        doubled = [l for l in levels if l.doubled > 0]
        assert doubled
        assert max(scores) <= 4.0 * min(l.V / (l.N * l.C) for l in doubled)

    def test_budget_exceeded(self):
        levels = [SyntheticLevel(1.0, 1.0)]
        with pytest.raises(BudgetExceeded):
            allocate_samples(levels, eps=1e-6, cost_cap=100.0)

    def test_trace_records_states(self):
        levels = [SyntheticLevel(1e-4, 1.0)]
        trace = []
        allocate_samples(levels, eps=1e-3, trace=trace)
        assert len(trace) == levels[0].doubled
        costs = [p.cost for p in trace]
        assert costs == sorted(costs)


class TestGradientEstimators:
    def test_sum_v_below_eps_sq(self, hier2):
        eps = 8e-4
        grad = gradient(hier2, "mlqmc", eps)
        Vs = [lev["V"] for lev in grad.manifest["levels"]]
        assert sum(Vs) <= eps**2
        assert grad.rmse_quadrature <= eps

    def test_gradient_is_mean_plus_alpha_z(self, hier2):
        grad = gradient(hier2, "mlqmc", 1e-3)
        z_nodal = hier2.objective.z(hier2.fe_levels[hier2.L].nodes)
        expected = grad.mean_q.nodal_values + hier2.objective.alpha * z_nodal
        assert np.array_equal(grad.gradient.nodal_values, expected)

    def test_single_level_reduction_at_L0(self):
        # a one-level hierarchy makes MLQMC collapse to plain QMC
        hier = make_hierarchy(L=0, seed=5)
        ml = gradient(hier, "mlqmc", 1e-3)
        sl = gradient(hier, "qmc", 1e-3)
        assert np.array_equal(ml.mean_q.nodal_values, sl.mean_q.nodal_values)

    def test_zero_objective_gradient_zero(self):
        hier = make_hierarchy(L=1, objective=TargetAndControl(
            g=zero_fn, z=zero_fn, alpha=3.0))
        grad = gradient(hier, "mlqmc", 1e-3)
        assert np.all(grad.gradient.nodal_values == 0.0)

    def test_determinism(self):
        runs = []
        for _ in range(2):
            hier = make_hierarchy(L=1, seed=42)
            grad = gradient(hier, "mlqmc", 5e-4)
            runs.append(grad)
        assert runs[0].manifest == runs[1].manifest
        assert np.array_equal(runs[0].gradient.nodal_values,
                              runs[1].gradient.nodal_values)

    def test_low_confidence_flags(self, hier2):
        grad = gradient(hier2, "mlqmc", 1e-2)
        for lev in grad.manifest["levels"]:
            assert lev["low_confidence"] == (lev["N"] < 8)

    def test_mc_and_qmc_agree_in_expectation(self):
        # cross-estimator consistency at matched finest level
        hier = make_hierarchy(L=0, seed=9)
        q = gradient(hier, "qmc", 4e-4)
        m = gradient(hier, "mc", 4e-4)
        diff = fem.l2_norm(hier.fe_levels[0], fem.FeFunction(
            0, q.mean_q.nodal_values - m.mean_q.nodal_values))
        combined = np.hypot(q.rmse_quadrature, m.rmse_quadrature)
        assert diff <= 4.0 * combined

    def test_mlmc_and_mlqmc_share_bias(self):
        hier = make_hierarchy(L=1, seed=10)
        a = gradient(hier, "mlqmc", 4e-4)
        b = gradient(hier, "mlmc", 4e-4)
        diff = fem.l2_norm(hier.fe_levels[1], fem.FeFunction(
            1, a.mean_q.nodal_values - b.mean_q.nodal_values))
        combined = np.hypot(a.rmse_quadrature, b.rmse_quadrature)
        assert diff <= 4.0 * combined

    def test_unknown_method(self, hier2):
        with pytest.raises(ValueError):
            est.estimator_sweep(hier2, "sobol", [1e-2])


class TestSweepAndFits:
    def test_sweep_costs_monotone(self, hier2):
        sweep = est.estimator_sweep(hier2, "mlqmc", [3e-3, 1.5e-3, 8e-4])
        costs = [p.cost for p in sweep.points]
        assert costs == sorted(costs)
        for p in sweep.points:
            assert p.rmse <= p.eps

    @pytest.mark.parametrize("method", est.METHODS)
    def test_continuation_matches_fresh_run(self, hier2, method):
        # eps = 2e-4 takes every method past warm-up, so the sweep and
        # the fresh run both double samples
        sweep = est.estimator_sweep(hier2, method, [3e-3, 2e-4])
        fresh = gradient(make_hierarchy(L=2, seed=321), method, 2e-4)
        assert sweep.points[-1].N == [lev["N"] for lev in
                                      fresh.manifest["levels"]]
        assert np.array_equal(sweep.gradient.gradient.nodal_values,
                              fresh.gradient.nodal_values)
        assert sweep.gradient.manifest == fresh.manifest

    def test_fit_cost_exponent_on_synthetic_curve(self):
        # one level with C = 1, every state past a warm-up of 2 samples
        pts = [SweepPoint(eps=0, rmse=r, cost=5.0 / r**2, N=[round(5.0 / r**2)],
                          V=[]) for r in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        expo = fit_cost_exponent(pts, warmup_N=[2])
        assert expo == pytest.approx(2.0, abs=1e-12)

    def test_fit_cost_exponent_needs_two_active_points(self):
        # the first state sits at warm-up, so only one state is fitted
        pts = [SweepPoint(eps=0, rmse=1e-3, cost=10.0, N=[10], V=[]),
               SweepPoint(eps=0, rmse=5e-4, cost=40.0, N=[40], V=[])]
        assert np.isnan(fit_cost_exponent(pts, warmup_N=[10]))

    def test_fit_cost_exponent_waits_for_every_level(self):
        C, warmup_N = np.array([1.0, 4.0]), [2, 2]

        def state(r, N):
            return SweepPoint(eps=0, rmse=r, cost=float(C @ N), N=list(N), V=[])

        # level 1 stays at warm-up: cost = W + c rmse^-2 with W = 8
        early = [state(r, [1e-3 / r**2, 2]) for r in (1e-2, 5e-3, 2.5e-3)]
        assert np.isnan(fit_cost_exponent(early, warmup_N))
        # then every level grows like rmse^-2
        late = [state(r, [1e-3 / r**2, 2e-4 / r**2])
                for r in (1.25e-3, 6.25e-4, 3.125e-4)]
        expo = fit_cost_exponent(early + late, warmup_N)
        assert expo == pytest.approx(2.0, abs=1e-12)

    def test_sweep_fits_only_states_past_warmup(self, hier2):
        sweep = est.estimator_sweep(hier2, "mlqmc", [3e-3, 2e-4])
        assert sweep.warmup_N == [hier2.warmup_qmc] * 3
        past = [p for p in sweep.trajectory
                if all(n > w for n, w in zip(p.N, sweep.warmup_N))]
        assert sweep.fit_states == past
        assert np.isnan(sweep.exponent) == (len(past) < 2)

    def test_loglog_slope(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_loglog_slope(x, 3.0 * x**-1.5) == pytest.approx(-1.5)


class TestCostLedger:
    def test_medians_and_normalization(self, hier2):
        # ensure every level has timing samples
        for ell in range(3):
            qmc_level(hier2, ell, N=2, R=2)
        ledger = est.cost_ledger(hier2, [(ell, 1, 4) for ell in range(3)])
        meds = [row["total_seconds_median"] for row in ledger["levels"]]
        assert all(np.isfinite(m) for m in meds)
        assert ledger["cost_measured_normalized"] > 0
        # a correction's model cost includes its coarse term
        cm = hier2.cost_model
        assert ledger["cost_model_normalized"] == sum(
            4 * (cm[ell] + (cm[ell - 1] if ell else 0.0)) for ell in range(3))
        assert ledger["kappa_measured"] > 0

    def test_corrections_and_plain_samples_kept_apart(self):
        hier = make_hierarchy(L=1, seed=19)
        qmc_level(hier, 1, N=2, R=2)                   # 4 corrections
        acc = McLevelAccumulator(hier, 1, coupled=False)
        acc.warmup = 3
        acc.refine()                                   # 3 plain samples
        ledger = est.cost_ledger(hier)
        rows = [(r["level"], r["correction"], r["samples"]) for r in ledger["levels"]]
        assert rows == [(0, False, 0), (1, True, 4), (1, False, 3)]
        plain = est.cost_ledger(hier, [(1, 1, 5)], coupled=False)
        assert [(r["level"], r["correction"]) for r in plain["levels"]] == [
            (0, False), (1, False), (1, True)]
        # a single-level allocation counts its own finest-level samples
        assert plain["cost_measured_normalized"] == 5.0
        assert est.measured_cost(hier, [(1, 2, 3)], coupled=True) == 6.0

    def test_one_entry_per_call_with_its_samples(self):
        # a refinement's blocks each enter the ledger once; per-sample
        # figures divide by the samples, not by the calls
        hier = make_hierarchy(L=1, seed=23)
        acc = QmcLevelAccumulator(hier, 0, R=3)
        acc.block = 4
        acc.refine()                  # 6 samples, in two equal blocks of 3
        t = hier.timing[(0, False)]
        assert (t.samples, t.calls, len(t.totals)) == (6, 2, 2)
        assert t.per_sample == [total / 3 for total in t.totals]
        row = est.cost_ledger(hier)["levels"][0]
        assert (row["samples"], row["calls"]) == (6, 2)
        assert row["total_seconds_median"] == float(np.median(t.totals))
        assert row["sample_seconds_median"] == float(np.median(t.per_sample))
        assert row["ce_seconds_mean"] == t.ce_seconds / 6

    def test_measured_cost_monotone_in_level(self):
        # 17^2, 33^2 and 65^2 meshes: adjacent levels differ about fivefold
        # in sample time, far beyond what machine load reorders
        hier = make_hierarchy(L=2, seed=17, fe_offset=4)
        for ell in range(3):
            qmc_level(hier, ell, N=16, R=2)
        ledger = est.cost_ledger(hier)
        meds = [row["sample_seconds_median"] for row in ledger["levels"]]
        assert meds[0] <= meds[1] <= meds[2]
