import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from mlqmcgrad import fem
from mlqmcgrad.circulant_field import NestingViolation, UniformGrid, build_embedding, sample_field
from mlqmcgrad.covariance import MaternParams, MeanField
from mlqmcgrad.fem import FeFunction, OperatorSet, SolverDiverged


@pytest.fixture(scope="module")
def levels():
    levs = []
    for ell in range(6):
        levs.append(fem.build_fe_level(ell, 2 ** (2 + ell) + 1,
                                       levs[-1] if levs else None))
    return levs


def u_exact(x):
    return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])


def rhs(x):
    return 2 * np.pi**2 * u_exact(x)


def solve_state(levels, ell, a, z, rtol=1e-10):
    """State solve -div(a grad u) = z at level ``ell``."""
    return OperatorSet(levels, ell, a, rtol=rtol).solve(fem.assemble_load(levels[ell], z))


def solve_adjoint(levels, ell, a, u, g):
    """Adjoint solve -div(a grad q) = u - g at level ``ell``."""
    lev = levels[ell]
    b = fem.assemble_load(lev, lev._quad_eval @ u.nodal_values - g(lev.quad_points))
    return OperatorSet(levels, ell, a).solve(b)


class TestStiffness:
    def test_unit_coefficient_row_sums_vanish(self, levels):
        # gradients annihilate constants: A @ 1 = 0 before elimination
        A = fem.assemble_stiffness(levels[1], 1.0)
        assert np.abs(A @ np.ones(levels[1].num_nodes)).max() < 1e-13

    def test_constant_coefficient_scales_bitwise(self, levels):
        A1 = fem.assemble_stiffness(levels[1], 1.0)
        Ac = fem.assemble_stiffness(levels[1], 3.5)
        assert np.array_equal(Ac.toarray(), (3.5 * A1).toarray())

    def test_random_coefficient_spd(self, levels):
        # dense eigenvalue oracle on the smallest mesh
        emb = build_embedding(MaternParams(0.1, 1.0, 0.5),
                              UniformGrid(dim=2, points_per_axis=5))
        rng = np.random.default_rng(0)
        fld = sample_field(emb, MeanField(0.0), rng.standard_normal(emb.s))
        A = fem.assemble_stiffness(levels[0], fld)
        Ai = A[levels[0].interior][:, levels[0].interior].toarray()
        assert np.abs(Ai - Ai.T).max() == 0.0
        assert np.linalg.eigvalsh(Ai).min() > 0.0


def coo_stiffness(lev, a_elem):
    """Reference assembly: scatter the scaled local matrices, coo -> csr."""
    data = (a_elem[:, None, None] * lev._local_stiff).ravel()
    rows = np.repeat(lev.triangles, 3, axis=1).ravel()
    cols = np.tile(lev.triangles, (1, 3)).ravel()
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(lev.num_nodes, lev.num_nodes)).tocsr()


@settings(max_examples=25, deadline=None)
@given(ell=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       log_spread=st.floats(0.0, 3.0))
def test_fixed_pattern_matches_coo_assembly(levels, ell, seed, log_spread):
    lev = levels[ell]
    rng = np.random.default_rng(seed)
    a_elem = np.exp(log_spread * rng.standard_normal(lev.num_triangles))
    A = fem.assemble_stiffness(lev, a_elem)
    ref = coo_stiffness(lev, a_elem)
    ref.sort_indices()
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.all(np.abs(A.data - ref.data) <= 1e-15 * np.abs(ref.data))


class TestLoad:
    def test_zero(self, levels):
        b = fem.assemble_load(levels[1], lambda x: np.zeros(x.shape[0]))
        assert np.all(b == 0.0)

    def test_partition_of_unity(self, levels):
        b = fem.assemble_load(levels[1], lambda x: np.ones(x.shape[0]),
                              zero_boundary=False)
        assert b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_indicator_area(self, levels):
        # analytic area oracle: the square [0.25,0.75]^2 has area 0.25
        def g(x):
            inside = np.minimum(
                np.minimum(x[:, 0] - 0.25, 0.75 - x[:, 0]),
                np.minimum(x[:, 1] - 0.25, 0.75 - x[:, 1]))
            return np.where(inside > 1e-12, 1.0,
                            np.where(inside < -1e-12, 0.0, 0.5))

        b = fem.assemble_load(levels[2], g, zero_boundary=False)
        assert abs(b.sum() - 0.25) < 0.02

    def test_dirichlet_rows_zeroed(self, levels):
        b = fem.assemble_load(levels[1], lambda x: np.ones(x.shape[0]))
        assert np.all(b[levels[1].boundary_mask] == 0.0)


class TestStateSolve:
    def test_manufactured_convergence(self, levels):
        errs = []
        for ell in range(4):
            u = solve_state(levels, ell, 1.0, rhs)
            diff = FeFunction(ell, u.nodal_values - u_exact(levels[ell].nodes))
            errs.append(fem.l2_norm(levels[ell], diff))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.8) and np.all(rates < 2.2)

    def test_residual_tolerance(self, levels):
        ell = 3
        u = solve_state(levels, ell, 1.0, rhs)
        A = fem.assemble_stiffness(levels[ell], 1.0)
        idx = levels[ell].interior
        Ai = A[idx][:, idx]
        b = fem.assemble_load(levels[ell], rhs)[idx]
        res = np.linalg.norm(Ai @ u.nodal_values[idx] - b) / np.linalg.norm(b)
        assert res <= 1e-10

    def test_zero_control(self, levels):
        u = solve_state(levels, 1, 1.0, lambda x: np.zeros(x.shape[0]))
        assert np.all(u.nodal_values == 0.0)

    def test_coefficient_scaling(self, levels):
        u1 = solve_state(levels, 1, 1.0, rhs)
        u4 = solve_state(levels, 1, 4.0, rhs)
        assert np.allclose(u4.nodal_values, u1.nodal_values / 4.0, atol=1e-11)

    def test_boundary_values_zero(self, levels):
        u = solve_state(levels, 2, 1.0, rhs)
        assert np.all(u.nodal_values[levels[2].boundary_mask] == 0.0)

    def test_energy_estimate(self, levels):
        # a_min ||grad u||^2 <= int z u for the assembled system
        emb = build_embedding(MaternParams(0.1, 1.0, 0.5),
                              UniformGrid(dim=2, points_per_axis=5))
        fld = sample_field(emb, MeanField(0.0),
                           np.random.default_rng(5).standard_normal(emb.s))
        ell = 2
        u = solve_state(levels, ell, fld, rhs)
        a_min = fld.values.min()
        lap = fem.assemble_stiffness(levels[ell], 1.0)
        grad_sq = u.nodal_values @ (lap @ u.nodal_values)
        work = fem.assemble_load(levels[ell], rhs) @ u.nodal_values
        assert a_min * grad_sq <= work * (1 + 1e-12)

    def test_solver_diverged_direct(self, levels):
        # no residual can meet rtol = 0
        with pytest.raises(SolverDiverged):
            solve_state(levels, 2, 1.0, rhs, rtol=0.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_diverges(self, levels, bad):
        # one bad triangle must raise SolverDiverged, whether the factor
        # breaks down or only the residual check sees the damage
        ell = 2
        a_elem = np.ones(levels[ell].num_triangles)
        a_elem[levels[ell].num_triangles // 3] = bad
        with pytest.raises(SolverDiverged):
            solve_state(levels, ell, a_elem, rhs)

    def test_indefinite_operator_fails_to_factor(self, levels):
        # a negative coefficient makes A_int negative definite: dpbtrf
        # reports a non-positive pivot
        with pytest.raises(SolverDiverged, match="not positive definite"):
            OperatorSet(levels, 2, -1.0)

    @pytest.mark.parametrize("ell", range(6))
    def test_matches_sparse_direct_solve(self, levels, ell):
        # reference: scipy's sparse LU on the same interior block, for a
        # lognormal coefficient with unit log-variance
        rtol = 1e-10
        emb = build_embedding(MaternParams(1.0, 0.1, 0.5),
                              UniformGrid(dim=2, points_per_axis=17))
        fld = sample_field(emb, MeanField(0.0),
                           np.random.default_rng(6 + ell).standard_normal(emb.s))
        lev = levels[ell]
        ops = OperatorSet(levels, ell, fld, rtol=rtol)
        b = fem.assemble_load(lev, rhs)
        x = ops.solve(b).nodal_values[lev.interior]
        A = fem.assemble_stiffness(lev, fld)
        x_ref = spla.spsolve(A[lev.interior][:, lev.interior].tocsc(), b[lev.interior])
        assert np.linalg.norm(x - x_ref) <= rtol * np.linalg.norm(x_ref)


@settings(max_examples=25, deadline=None)
@given(ell=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       log_spread=st.floats(0.0, 3.0))
def test_band_scatter_matches_dense_lower_band(levels, ell, seed, log_spread):
    lev = levels[ell]
    rng = np.random.default_rng(seed)
    a_elem = np.exp(log_spread * rng.standard_normal(lev.num_triangles))
    A = fem.assemble_stiffness(lev, a_elem)
    ab = fem._lower_band(lev, A)
    assert ab.flags.f_contiguous
    dense = A[lev.interior][:, lev.interior].toarray()
    n, kd = dense.shape[0], ab.shape[0] - 1
    assert kd == lev.nodes_per_axis - 1  # m + 1 for m interior nodes per axis
    ref = np.zeros_like(ab)
    for d in range(kd + 1):
        ref[d, :n - d] = np.diagonal(dense, -d)
    assert np.array_equal(ab, ref)
    # nothing of the lower triangle lies outside the band
    assert np.array_equal(np.tril(dense, -kd - 1), np.zeros_like(dense))


class TestAdjointSolve:
    def test_state_matching_target_gives_zero(self, levels):
        # u == g at the quadrature points -> zero load -> q == 0
        u = FeFunction(1, np.full(levels[1].num_nodes, 0.75))
        q = solve_adjoint(levels, 1, 1.0, u,
                              lambda x: np.full(x.shape[0], 0.75))
        assert np.all(q.nodal_values == 0.0)

    def test_manufactured_adjoint_convergence(self, levels):
        # u - g = 2 pi^2 sin sin via u = 0, g = -rhs
        errs = []
        for ell in range(4):
            u0 = FeFunction(ell, np.zeros(levels[ell].num_nodes))
            q = solve_adjoint(levels, ell, 1.0, u0, lambda x: -rhs(x))
            diff = FeFunction(ell, q.nodal_values - u_exact(levels[ell].nodes))
            errs.append(fem.l2_norm(levels[ell], diff))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.8) and np.all(rates < 2.2)


class TestProlong:
    def test_constant_preserved(self, levels):
        f = FeFunction(0, np.full(levels[0].num_nodes, 2.0))
        g = fem.prolong(f, levels, 2)
        assert np.allclose(g.nodal_values, 2.0, atol=0)

    def test_linear_reproduced(self, levels):
        nodes_c = levels[1].nodes
        f = FeFunction(1, 1.0 + 2.0 * nodes_c[:, 0] - 0.5 * nodes_c[:, 1])
        g = fem.prolong(f, levels, 3)
        nodes_f = levels[3].nodes
        expected = 1.0 + 2.0 * nodes_f[:, 0] - 0.5 * nodes_f[:, 1]
        assert np.abs(g.nodal_values - expected).max() < 1e-13

    def test_norm_preserved(self, levels):
        rng = np.random.default_rng(2)
        f = FeFunction(1, rng.standard_normal(levels[1].num_nodes))
        g = fem.prolong(f, levels, 3)
        assert fem.l2_norm(levels[3], g) == pytest.approx(
            fem.l2_norm(levels[1], f), abs=1e-12)

    def test_pointwise_exact(self, levels):
        rng = np.random.default_rng(3)
        f = FeFunction(1, rng.standard_normal(levels[1].num_nodes))
        g = fem.prolong(f, levels, 3)
        pts = rng.random((100, 2))
        vc = levels[1].eval_function(f, pts)
        vf = levels[3].eval_function(g, pts)
        assert np.abs(vc - vf).max() < 1e-12

    def test_coarsening_rejected(self, levels):
        f = FeFunction(2, np.zeros(levels[2].num_nodes))
        with pytest.raises(NestingViolation):
            fem.prolong(f, levels, 1)


class TestNorms:
    def test_ones(self, levels):
        f = FeFunction(1, np.ones(levels[1].num_nodes))
        assert fem.l2_norm(levels[1], f) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self, levels):
        f = FeFunction(1, np.zeros(levels[1].num_nodes))
        assert fem.l2_norm(levels[1], f) == 0.0

    def test_sine_interpolant(self, levels):
        # int sin^2(pi x) = 1/2 per axis, so the L2 norm is 1/2
        f = FeFunction(3, u_exact(levels[3].nodes))
        assert fem.l2_norm(levels[3], f) == pytest.approx(0.5, abs=1e-3)

    def test_integrate_matches_mass(self, levels):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(levels[1].num_nodes)
        direct = np.ones(levels[1].num_nodes) @ (levels[1].mass @ v)
        assert fem.integrate(levels[1], v) == pytest.approx(direct, rel=1e-13)


def test_bad_mesh_size():
    with pytest.raises(ValueError):
        fem.FeLevel(0, 4)
    with pytest.raises(ValueError):
        fem.FeLevel(0, 2)
