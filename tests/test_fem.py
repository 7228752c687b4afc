import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from mlqmcgrad import fem
from mlqmcgrad.circulant_field import (
    NestingViolation,
    UniformGrid,
    build_embedding,
    eval_field,
    interpolation_stencil,
    sample_field,
)
from mlqmcgrad.covariance import MaternParams
from mlqmcgrad.fem import FeFunction, OperatorSet, SolverDiverged

from conftest import mass_matrix, quad_eval_matrix, stiffness_matrix


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


def lognormal_field(kernel, n, seed):
    """Zero-mean lognormal field on the n-point grid of the unit square."""
    emb = build_embedding(kernel, UniformGrid(dim=2, points_per_axis=n))
    return sample_field(emb, np.zeros(emb.grid.num_points),
                        np.random.default_rng(seed).standard_normal(emb.s))


def at_centroids(lev, fld):
    """The field's per-triangle coefficient on ``lev``."""
    return eval_field(fld, interpolation_stencil(fld.grid, lev.centroids))


def load(lev, f):
    """Load vector of the callable ``f``, evaluated at the quadrature points."""
    return fem.assemble_load(lev, f(lev.quad_points))


def eval_p1(lev, f, x):
    """Evaluate the P1 function ``f`` on ``lev`` at points ``x`` (npts, 2)."""
    n = lev.nodes_per_axis
    t = np.clip(x, 0.0, 1.0) / lev.h
    i0 = np.minimum(t.astype(np.int64), n - 2)
    lx, ly = (t - i0).T
    v = f.nodal_values.reshape(n, n)
    v00 = v[i0[:, 0], i0[:, 1]]
    v10 = v[i0[:, 0] + 1, i0[:, 1]]
    v01 = v[i0[:, 0], i0[:, 1] + 1]
    v11 = v[i0[:, 0] + 1, i0[:, 1] + 1]
    # the diagonal of each cell runs from (0,0) to (1,1)
    return np.where(lx >= ly,
                    v00 + lx * (v10 - v00) + ly * (v11 - v10),
                    v00 + ly * (v01 - v00) + lx * (v11 - v01))


def solve_state(levels, ell, a, z, rtol=1e-10):
    """State solve -div(a grad u) = z at level ``ell``."""
    lev = levels[ell]
    return OperatorSet(lev, a, rtol=rtol).solve(load(lev, z))


def solve_adjoint(levels, ell, a, u, g):
    """Adjoint solve -div(a grad q) = u - g at level ``ell``."""
    lev = levels[ell]
    b = fem.assemble_load(lev, quad_eval_matrix(lev) @ u.nodal_values - g(lev.quad_points))
    return OperatorSet(lev, a).solve(b)


class TestStiffness:
    def test_unit_coefficient_row_sums_vanish(self, levels):
        # gradients annihilate constants: A @ 1 = 0 before elimination
        A = stiffness_matrix(levels[1], fem.assemble_stiffness(levels[1], 1.0))
        assert np.abs(A @ np.ones(levels[1].num_nodes)).max() < 1e-13

    def test_constant_coefficient_scales_bitwise(self, levels):
        A1 = fem.assemble_stiffness(levels[1], 1.0)
        Ac = fem.assemble_stiffness(levels[1], 3.5)
        assert np.array_equal(Ac, 3.5 * A1)

    def test_random_coefficient_spd(self, levels):
        # dense eigenvalue oracle on the smallest mesh
        fld = lognormal_field(MaternParams(0.1, 1.0, 0.5), 5, seed=0)
        A = stiffness_matrix(levels[0],
                             fem.assemble_stiffness(levels[0], at_centroids(levels[0], fld)))
        Ai = A[levels[0].interior][:, levels[0].interior].toarray()
        assert np.abs(Ai - Ai.T).max() == 0.0
        assert np.linalg.eigvalsh(Ai).min() > 0.0


def unit_local_stiffness(lev):
    """(ntri, 3, 3) P1 stiffness of each triangle for a unit coefficient,
    from ``lev.nodes`` and ``lev.triangles`` alone."""
    coords = lev.nodes[lev.triangles]                  # (ntri, 3, 2)
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    grads = np.stack([-g1 - g2, g1, g2], axis=1)       # (ntri, 3, 2)
    return lev.tri_area * np.einsum("tkd,tld->tkl", grads, grads)


def coo_stiffness(lev, a_elem):
    """Reference assembly: scatter the scaled local matrices, coo -> csr."""
    data = (a_elem[:, None, None] * unit_local_stiffness(lev)).ravel()
    rows = np.repeat(lev.triangles, 3, axis=1).ravel()
    cols = np.tile(lev.triangles, (1, 3)).ravel()
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(lev.num_nodes, lev.num_nodes)).tocsr()


def sorted_construction(lev, coarse=None):
    """The level's operators found by sorting, as the closed-form build's
    oracle: ``np.unique`` over (row, col) keys of the triangles' local
    entries and ``coo -> csr`` conversions."""
    M, ntri = lev.num_nodes, lev.num_triangles
    tri = lev.triangles.astype(np.int64)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    keys, local_pos = np.unique(rows * M + cols, return_inverse=True)
    rows, cols = np.divmod(keys, M)
    ref = {"rows": rows, "indices": cols, "indptr": np.searchsorted(rows, np.arange(M + 1)),
           "local_pos": local_pos}
    ref["G"] = sp.coo_matrix(
        (unit_local_stiffness(lev).ravel(), (local_pos, np.repeat(np.arange(ntri), 9))),
        shape=(keys.size, ntri)).tocsr()
    local_mass = lev.tri_area / 12.0 * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    ref["mass"] = np.bincount(
        local_pos, weights=np.broadcast_to(local_mass, (ntri, 3, 3)).ravel(),
        minlength=keys.size)

    new_index = np.full(M, -1)
    new_index[lev.interior] = np.arange(lev.interior.size)
    rows, cols = new_index[rows], new_index[cols]
    lower = (cols >= 0) & (rows >= cols)
    ref["band_pos"] = np.flatnonzero(lower)
    ref["band_rows"], ref["band_cols"] = rows[lower], cols[lower]
    ref["band_kd"] = int((rows[lower] - cols[lower]).max())

    # the midpoint of edge e (local vertices e, e + 1) is quadrature point 3t + e
    quad = np.arange(3 * ntri).reshape(ntri, 3)
    ends = np.stack([tri, tri[:, [1, 2, 0]]], axis=-1)       # (ntri, 3, 2)
    ref["load"] = sp.coo_matrix(
        (np.full(6 * ntri, lev.tri_area / 3.0 * 0.5),
         (ends.ravel(), np.repeat(quad.ravel(), 2))), shape=(M, 3 * ntri)).tocsr()
    ref["eval"] = sp.coo_matrix(
        (np.full(6 * ntri, 0.5), (np.repeat(quad.ravel(), 2), ends.ravel())),
        shape=(3 * ntri, M)).tocsr()

    if coarse is not None:
        nc, nf = coarse.nodes_per_axis, lev.nodes_per_axis
        fi, fj = (g.ravel() for g in np.meshgrid(np.arange(nf), np.arange(nf),
                                                 indexing="ij"))
        parents = []                     # (fine node, coarse i, coarse j, weight)
        for odd_i, odd_j in ((0, 0), (1, 0), (0, 1), (1, 1)):
            m = (fi % 2 == odd_i) & (fj % 2 == odd_j)
            steps = [(0, 0)] if not (odd_i or odd_j) else [(0, 0), (odd_i, odd_j)]
            for di, dj in steps:
                parents.append((fi[m] * nf + fj[m], fi[m] // 2 + di, fj[m] // 2 + dj,
                                np.full(m.sum(), 1.0 / len(steps))))
        f, ci, cj, w = (np.concatenate(col) for col in zip(*parents))
        ref["P"] = sp.coo_matrix((w, (f, ci * nc + cj)),
                                 shape=(lev.num_nodes, coarse.num_nodes)).tocsr()
    return ref


def rows_of(x):
    return [np.ascontiguousarray(row).tobytes() for row in x]


def pattern_grids(lev, ref, data):
    """Stiffness ``data`` on the sorted pattern as the (3, n, n) grids of
    ``assemble_stiffness``; the couplings across cell diagonals, which
    the grids leave out, must be exactly zero."""
    n = lev.nodes_per_axis
    offset = ref["indices"] - ref["rows"]
    assert np.all(data[offset == n + 1] == 0.0)
    grids = np.zeros((3, n * n))
    for grid, at in zip(grids, (0, 1, n)):
        grid[ref["rows"][offset == at]] = data[offset == at]
    return grids.reshape(3, n, n)


def pattern_band(lev, ref, data):
    """The lower band of the interior block of ``data`` on the sorted
    pattern, kd = m + 1, as a C-ordered (n_int, kd + 1) array."""
    n_int, kd = lev.interior.size, lev.nodes_per_axis - 1
    band = np.zeros(n_int * (kd + 1))
    rows, cols = ref["band_rows"], ref["band_cols"]
    band[cols * (kd + 1) + (rows - cols)] = data[ref["band_pos"]]
    return band.reshape(n_int, kd + 1)


@pytest.mark.parametrize("n", range(3, 130, 2))
def test_closed_form_build_matches_sorted_construction(n):
    # every grid operator against the sparse operator of the sorted
    # construction, bitwise, for one sample and for a block of three
    # whose coefficients arrive transposed, as eval_field hands them over
    # n = 2 nc - 1 with nc odd: the level nests a coarser one
    coarse = fem.FeLevel(0, (n + 1) // 2) if n % 4 == 1 else None
    lev = fem.build_fe_level(1, n, coarse)
    ref = sorted_construction(lev, coarse)
    rng = np.random.default_rng(n)
    a = np.exp(rng.standard_normal((lev.num_triangles, 3))).T
    block = fem.assemble_stiffness(lev, a)
    for i in range(3):
        data = ref["G"] @ a[i]
        A = fem.assemble_stiffness(lev, a[i])
        assert A.tobytes() == pattern_grids(lev, ref, data).tobytes()
        assert block[i].tobytes() == A.tobytes()
        assert np.ascontiguousarray(fem._lower_band(lev, A).T).tobytes() == \
            pattern_band(lev, ref, data).tobytes()
    # the 7-point pattern's lower band reaches m + 1 below the diagonal
    assert ref["band_kd"] == (n - 1 if n > 3 else 0)

    mass = sp.csr_matrix((ref["mass"], ref["indices"], ref["indptr"]),
                         shape=(lev.num_nodes, lev.num_nodes))
    v = rng.standard_normal(lev.num_nodes)
    assert fem._mass_product(lev, v).tobytes() == (mass @ v).tobytes()
    assert lev.mass_lumped.tobytes() == \
        np.add.reduceat(ref["mass"], ref["indptr"][:-1]).tobytes()

    fq = rng.standard_normal((3, 3 * lev.num_triangles))
    loads = ref["load"] @ fq.T
    loads[lev.boundary_mask] = 0.0
    assert fem.assemble_load(lev, fq[0]).tobytes() == loads[:, 0].tobytes()
    assert rows_of(fem.assemble_load(lev, fq)) == rows_of(loads.T)
    u = rng.standard_normal((3, lev.num_nodes))
    assert rows_of(lev.quad_values(u)) == rows_of((ref["eval"] @ u.T).T)

    if coarse is not None:
        vc = rng.standard_normal((3, coarse.num_nodes))
        vc[0, ::7] = -0.0
        up = fem.prolong(FeFunction(0, vc), [coarse, lev], 1).nodal_values
        assert rows_of(up) == rows_of((ref["P"] @ vc.T).T)
        assert fem.prolong(FeFunction(0, vc[0]), [coarse, lev], 1).nodal_values.tobytes() \
            == (ref["P"] @ vc[0]).tobytes()


@pytest.fixture(scope="module")
def constructions(levels):
    """Per level, its sorted construction."""
    return [sorted_construction(lev) for lev in levels]


@settings(max_examples=30, deadline=None)
@given(ell=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       log_spread=st.floats(0.0, 3.0))
def test_stiffness_map_equals_scatter_bitwise(levels, constructions, ell, seed,
                                              log_spread):
    # the map from coefficients to stiffness grids against the scatter of
    # the scaled local matrices, summed by np.bincount triangle by triangle
    lev, ref = levels[ell], constructions[ell]
    rng = np.random.default_rng(seed)
    a_elem = np.exp(log_spread * rng.standard_normal(lev.num_triangles))
    data = np.bincount(ref["local_pos"], weights=(a_elem[:, None, None]
                                                  * unit_local_stiffness(lev)).ravel(),
                       minlength=ref["indices"].size)
    assert fem.assemble_stiffness(lev, a_elem).tobytes() == \
        pattern_grids(lev, ref, data).tobytes()


def test_level_build_memory(levels):
    # the finest preset mesh (129 x 129): the build holds few temporaries
    # next to what the level keeps, and its triangles are 32-bit
    tracemalloc.start()
    try:
        lev = fem.build_fe_level(5, 129, levels[4])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kept
    assert lev.triangles.dtype == np.int32


@settings(max_examples=25, deadline=None)
@given(ell=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       log_spread=st.floats(0.0, 3.0))
def test_fixed_pattern_matches_coo_assembly(levels, ell, seed, log_spread):
    lev = levels[ell]
    rng = np.random.default_rng(seed)
    a_elem = np.exp(log_spread * rng.standard_normal(lev.num_triangles))
    A = stiffness_matrix(lev, fem.assemble_stiffness(lev, a_elem)).toarray()
    ref = coo_stiffness(lev, a_elem).toarray()
    # zero wherever the scatter is, including across the cell diagonals
    assert np.all(np.abs(A - ref) <= 1e-15 * np.abs(ref))


class TestLoad:
    def test_zero(self, levels):
        b = load(levels[1], lambda x: np.zeros(x.shape[0]))
        assert np.all(b == 0.0)

    def test_partition_of_unity(self, levels):
        # the hats sum to one: the interior ones integrate to h^2 each, the
        # 4 m edge ones to h^2 / 2, the corner ones to h^2 / 3 (two) and
        # h^2 / 6 (two), so the interior load of 1 is 1 - (2 m + 1) h^2
        lev = levels[1]
        m, h = lev.nodes_per_axis - 2, lev.h
        b = load(lev, lambda x: np.ones(x.shape[0]))
        assert b[lev.interior] == pytest.approx(h**2, rel=1e-12)
        assert b.sum() + (2 * m + 1) * h**2 == pytest.approx(1.0, abs=1e-12)

    def test_indicator_area(self, levels):
        # analytic area oracle: the square [0.25,0.75]^2 has area 0.25
        def g(x):
            inside = np.minimum(
                np.minimum(x[:, 0] - 0.25, 0.75 - x[:, 0]),
                np.minimum(x[:, 1] - 0.25, 0.75 - x[:, 1]))
            return np.where(inside > 1e-12, 1.0,
                            np.where(inside < -1e-12, 0.0, 0.5))

        b = load(levels[2], g)
        assert abs(b.sum() - 0.25) < 0.02

    def test_dirichlet_rows_zeroed(self, levels):
        b = load(levels[1], lambda x: np.ones(x.shape[0]))
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
        A = stiffness_matrix(levels[ell], fem.assemble_stiffness(levels[ell], 1.0))
        idx = levels[ell].interior
        Ai = A[idx][:, idx]
        b = load(levels[ell], rhs)[idx]
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
        fld = lognormal_field(MaternParams(0.1, 1.0, 0.5), 5, seed=5)
        ell = 2
        u = solve_state(levels, ell, at_centroids(levels[ell], fld), rhs)
        a_min = fld.values.min()
        lap = stiffness_matrix(levels[ell], fem.assemble_stiffness(levels[ell], 1.0))
        grad_sq = u.nodal_values @ (lap @ u.nodal_values)
        work = load(levels[ell], rhs) @ u.nodal_values
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
            OperatorSet(levels[2], -1.0)

    @pytest.mark.parametrize("ell", range(6))
    def test_matches_sparse_direct_solve(self, levels, ell):
        # reference: scipy's sparse LU on the same interior block, for a
        # lognormal coefficient with unit log-variance
        rtol = 1e-10
        lev = levels[ell]
        a_elem = at_centroids(lev, lognormal_field(MaternParams(1.0, 0.1, 0.5), 17,
                                                   seed=6 + ell))
        ops = OperatorSet(lev, a_elem, rtol=rtol)
        b = load(lev, rhs)
        x = ops.solve(b).nodal_values[lev.interior]
        A = stiffness_matrix(lev, fem.assemble_stiffness(lev, a_elem))
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
    dense = stiffness_matrix(lev, A)[lev.interior][:, lev.interior].toarray()
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
        vc = eval_p1(levels[1], f, pts)
        vf = eval_p1(levels[3], g, pts)
        assert np.abs(vc - vf).max() < 1e-12

    def test_coarsening_rejected(self, levels):
        f = FeFunction(2, np.zeros(levels[2].num_nodes))
        with pytest.raises(NestingViolation):
            fem.prolong(f, levels, 1)


def bilinear(A, w, v):
    """w^T A v for one sample's stiffness grids ``A`` (diagonal, east and
    south couplings), row by row of the blocks ``w`` and ``v``."""
    n = A.shape[-1]
    W, V = w.reshape(-1, n, n), v.reshape(-1, n, n)
    terms = (A[0] * W * V,
             A[1][:, :-1] * (W[:, :, :-1] * V[:, :, 1:] + W[:, :, 1:] * V[:, :, :-1]),
             A[2][:-1] * (W[:, :-1] * V[:, 1:] + W[:, 1:] * V[:, :-1]))
    return sum(t.sum(axis=(1, 2)) for t in terms)


@pytest.fixture(scope="module")
def nested_pairs(levels):
    """Coarse and fine levels of factor-2 nesting: the preset levels 0 to
    4 with their refinements, and a non-dyadic pair of 7 and 13 nodes."""
    coarse = fem.build_fe_level(0, 7)
    return ([(levels[k], levels[k + 1]) for k in range(5)]
            + [(coarse, fem.build_fe_level(1, 13, coarse))])


@settings(max_examples=30, deadline=None)
@given(pair=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       log_spread=st.floats(0.0, 3.0))
def test_stiffness_nests(nested_pairs, pair, seed, log_spread):
    # a coefficient constant on each coarse triangle, given to its four
    # children: the fine form restricted to prolonged coarse functions is
    # the coarse form, w^T A_c v = (P w)^T A_f (P v)
    coarse, fine = nested_pairs[pair]
    nc = coarse.nodes_per_axis - 1
    t = fine.centroids / coarse.h
    cell = np.floor(t).astype(int)
    upper = (t - cell)[:, 1] > (t - cell)[:, 0]
    parent = (upper * nc + cell[:, 0]) * nc + cell[:, 1]
    assert np.array_equal(np.bincount(parent), np.full(coarse.num_triangles, 4))

    rng = np.random.default_rng(seed)
    a = np.exp(log_spread * rng.standard_normal(coarse.num_triangles))
    vw = rng.standard_normal((2, coarse.num_nodes))
    Pvw = fem.prolong(FeFunction(0, vw), [coarse, fine], 1).nodal_values
    A_c = fem.assemble_stiffness(coarse, a)
    A_f = fem.assemble_stiffness(fine, a[parent])
    # the cross term, and the energy of each vector
    for w, v in ((0, 1), (0, 0), (1, 1)):
        lhs = bilinear(A_c, vw[w], vw[v])[0]
        rhs = bilinear(A_f, Pvw[w], Pvw[v])[0]
        scale = bilinear(np.abs(A_c), np.abs(vw[w]), np.abs(vw[v]))[0]
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1e-3 * scale)


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
        direct = np.ones(levels[1].num_nodes) @ (mass_matrix(levels[1]) @ v)
        assert fem.integrate(levels[1], v) == pytest.approx(direct, rel=1e-13)


def test_bad_mesh_size():
    with pytest.raises(ValueError):
        fem.FeLevel(0, 4)
    with pytest.raises(ValueError):
        fem.FeLevel(0, 2)
