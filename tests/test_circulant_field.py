import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlqmcgrad.covariance import MaternParams, MeanField, matern_cov
from mlqmcgrad.circulant_field import (
    FieldRealization,
    _circulant_column,
    NestingViolation,
    UniformGrid,
    assign_inputs,
    build_embedding,
    eval_field,
    factor_row,
    interpolation_stencil,
    restrict_to_coarse,
    sample_field,
)

P1_KERNEL = MaternParams(sigma2=0.1, lambda_c=1.0, nu=0.5)
ZERO_MEAN = MeanField(0.0)


def direct_covariance(kernel, grid):
    pts = grid.points()
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return matern_cov(kernel, d)


def dense_factor(emb):
    return np.array([factor_row(emb, i) for i in range(emb.grid.num_points)])


def test_two_point_1d_example():
    # oracle: eigen-decomposition of the explicit 2x2 circulant
    kernel = MaternParams(sigma2=1.0, lambda_c=1.0, nu=0.5)
    emb = build_embedding(kernel, UniformGrid(dim=1, points_per_axis=2))
    assert emb.ext_per_axis == 2 and emb.s == 2
    C = np.array([[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]])
    expected = np.sort(np.linalg.eigvalsh(C))
    assert np.allclose(np.sort(emb.eigenvalues.ravel()), expected, atol=1e-14)
    B = dense_factor(emb)
    assert np.abs(B @ B.T - C).max() < 1e-12


def test_diagonal_surrogate_flat_spectrum():
    sigma2 = 0.7
    grid = UniformGrid(dim=2, points_per_axis=3)
    emb = build_embedding(lambda d: np.where(d == 0.0, sigma2, 0.0), grid)
    assert emb.ext_per_axis == 4  # minimal extension, no padding
    assert np.allclose(emb.eigenvalues, sigma2)
    assert emb.s == 4**2
    B = dense_factor(emb)
    assert np.abs(B @ B.T - sigma2 * np.eye(grid.num_points)).max() < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 5), (1, 9), (2, 3), (2, 5)])
@pytest.mark.parametrize("nu", [0.5, 2.5])
def test_factorization_reproduces_covariance(dim, n, nu):
    kernel = MaternParams(sigma2=0.1, lambda_c=1.0, nu=nu)
    grid = UniformGrid(dim=dim, points_per_axis=n)
    emb = build_embedding(kernel, grid)
    assert emb.clamped == 0
    B = dense_factor(emb)
    sigma = direct_covariance(kernel, grid)
    assert np.abs(B @ B.T - sigma).max() < 1e-10
    # diagonal of B B^T: squared row norms equal the variance
    assert np.allclose((B**2).sum(axis=1), kernel.sigma2, atol=1e-10)


def test_more_padding_for_smoother_kernel():
    grid = UniformGrid(dim=2, points_per_axis=5)
    s1 = build_embedding(MaternParams(0.1, 1.0, 0.5), grid).s
    s2 = build_embedding(MaternParams(0.1, 1.0, 2.5), grid).s
    assert s2 > s1


def test_importance_order_sorted_by_eigenvalue():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=2, points_per_axis=3))
    order = emb.importance_order
    assert sorted(order) == list(range(emb.s))
    eigs = emb._coord_eigs[order]
    assert np.all(np.diff(eigs) <= 1e-15)
    # ties broken by ascending canonical coordinate (frequency) index
    for j in range(emb.s - 1):
        if eigs[j] == eigs[j + 1]:
            assert order[j] < order[j + 1]


def test_zero_input_gives_mean_field():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=2, points_per_axis=3))
    fld = sample_field(emb, MeanField(0.4), np.zeros(emb.s))
    assert np.allclose(fld.values, np.exp(0.4), atol=1e-14)
    assert np.all(fld.values > 0)


def test_fft_sampling_matches_dense_factor():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=1, points_per_axis=5))
    B = dense_factor(emb)
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.standard_normal(emb.s)
        fld = sample_field(emb, MeanField(0.3), y)
        dense = B @ assign_inputs(emb, y) + 0.3
        assert np.abs(fld.log_values.ravel() - dense).max() < 1e-10


def test_sampling_statistics_smoke():
    # small-grid version of the full acceptance check
    grid = UniformGrid(dim=2, points_per_axis=3)
    emb = build_embedding(P1_KERNEL, grid)
    sigma = direct_covariance(P1_KERNEL, grid)
    rng = np.random.default_rng(7)
    nsamp = 4000
    zs = np.empty((nsamp, grid.num_points))
    for i in range(nsamp):
        zs[i] = sample_field(emb, ZERO_MEAN, rng.standard_normal(emb.s)).log_values.ravel()
    emp = np.cov(zs.T)
    se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / nsamp)
    assert np.abs(emp - sigma).max() / se.max() < 5.0


# -- references: the kernel on every lag and the full complex spectrum --------


def reference_column(kernel, grid, ext):
    """First circulant column with the kernel evaluated on all ext^d lags."""
    lag = np.arange(ext)
    lag = np.minimum(lag, ext - lag) * grid.spacing
    if grid.dim == 1:
        dist = lag
    else:
        mesh = np.meshgrid(*([lag] * grid.dim), indexing="ij")
        dist = np.sqrt(sum(m**2 for m in mesh))
    return matern_cov(kernel, dist)


def reference_coordinates(eigs):
    """Canonical coordinates of the full spectrum, sorted by (freq, kind).

    Returns the eigenvalue per coordinate and the flat frequencies of the
    self-conjugate coordinates, of the pair owners (cosine and sine) and
    of their partners, with each group's canonical coordinate indices.
    """
    shape, ext, dim = eigs.shape, eigs.shape[0], eigs.ndim
    idx = np.indices(shape).reshape(dim, -1)
    flat = np.ravel_multi_index(idx, shape)
    conj = np.ravel_multi_index((-idx) % ext, shape)
    self_f, own_f = flat[conj == flat], flat[flat < conj]
    part_f = conj[flat < conj]
    n_self, n_pair = self_f.size, own_f.size
    freq = np.concatenate([self_f, own_f, own_f])
    kind = np.concatenate([np.zeros(n_self + n_pair, np.int8), np.ones(n_pair, np.int8)])
    coord_of = np.empty(freq.size, dtype=np.int64)
    coord_of[np.lexsort((kind, freq))] = np.arange(freq.size)
    c_self, c_cos = coord_of[:n_self], coord_of[n_self:n_self + n_pair]
    c_sin = coord_of[n_self + n_pair:]
    coord_eigs = np.empty(freq.size)
    coord_eigs[c_self] = eigs.ravel()[self_f]
    coord_eigs[c_cos] = coord_eigs[c_sin] = eigs.ravel()[own_f]
    return coord_eigs, (self_f, own_f, part_f), (c_self, c_cos, c_sin)


def reference_synthesis(emb, y):
    """sqrt(s) * Re(ifftn) of the full Hermitian spectrum on the grid."""
    eigs = emb.eigenvalues
    _, (self_f, own_f, part_f), (c_self, c_cos, c_sin) = reference_coordinates(eigs)
    y_canon = np.empty(emb.s)
    y_canon[emb.importance_order] = y
    spec = np.zeros(eigs.size, dtype=complex)
    spec[self_f] = y_canon[c_self]
    pair = (y_canon[c_cos] + 1j * y_canon[c_sin]) / np.sqrt(2.0)
    spec[own_f] = pair
    spec[part_f] = np.conj(pair)
    spec *= np.sqrt(eigs.ravel())
    z = np.sqrt(emb.s) * np.fft.ifftn(spec.reshape(eigs.shape)).real
    return z[(slice(emb.grid.points_per_axis),) * emb.grid.dim]


# small grids in 1-3 dimensions; 3-d grids keep short correlation lengths
# so that the padded spectrum stays below 2^15 entries
grid_cases = st.tuples(
    st.integers(1, 3), st.integers(2, 9), st.sampled_from([0.1, 0.3, 1.0])
).map(lambda t: (t[0], min(t[1], 5) if t[0] == 3 else t[1],
                 min(t[2], 0.3) if t[0] == 3 else t[2]))


@settings(max_examples=40, deadline=None)
@given(case=grid_cases, nu=st.sampled_from([0.5, 1.5, 2.5]), doublings=st.integers(0, 2))
def test_column_bitwise_equals_all_lag_evaluation(case, nu, doublings):
    dim, n, lam = case
    kernel = MaternParams(sigma2=0.1, lambda_c=lam, nu=nu)
    grid = UniformGrid(dim=dim, points_per_axis=n)
    ext = 2 * (n - 1) * 2**doublings
    col = _circulant_column(kernel, grid, ext)
    assert col.shape == (ext,) * dim
    assert col.tobytes() == reference_column(kernel, grid, ext).tobytes()


@settings(max_examples=40, deadline=None)
@given(case=grid_cases, nu=st.sampled_from([0.5, 1.5, 2.5]))
def test_embedding_spectrum_and_order_bitwise(case, nu):
    dim, n, lam = case
    kernel = MaternParams(sigma2=0.1, lambda_c=lam, nu=nu)
    emb = build_embedding(kernel, UniformGrid(dim=dim, points_per_axis=n))
    col = reference_column(kernel, emb.grid, emb.ext_per_axis)
    eigs = np.maximum(np.fft.fftn(col).real, 0.0)
    assert emb.eigenvalues.tobytes() == eigs.tobytes()
    coord_eigs = reference_coordinates(eigs)[0]
    assert emb.s == coord_eigs.size == emb.ext_per_axis**dim
    assert emb._coord_eigs.tobytes() == coord_eigs.tobytes()
    assert np.array_equal(emb.importance_order,
                          np.argsort(-coord_eigs, kind="stable"))


@settings(max_examples=40, deadline=None)
@given(case=grid_cases, nu=st.sampled_from([0.5, 2.5]),
       seed=st.integers(0, 2**32 - 1))
def test_sample_field_matches_full_spectrum_synthesis(case, nu, seed):
    dim, n, lam = case
    emb = build_embedding(MaternParams(sigma2=0.1, lambda_c=lam, nu=nu),
                          UniformGrid(dim=dim, points_per_axis=n))
    y = np.random.default_rng(seed).standard_normal(emb.s)
    ref = reference_synthesis(emb, y)
    fld = sample_field(emb, MeanField(0.25), y, level=3)
    assert fld.log_values.shape == (n,) * dim and fld.level == 3
    assert fld.log_values.flags.c_contiguous
    assert np.abs(fld.log_values - 0.25 - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.array_equal(fld.values, np.exp(fld.log_values))
    # the dense factor rows agree with the synthesis at the grid corners
    for i in (0, emb.grid.num_points - 1):
        assert abs(factor_row(emb, i) @ assign_inputs(emb, y) - ref.flat[i]) \
            <= 1e-10 * np.abs(ref).max()


def test_input_length_mismatch():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=1, points_per_axis=3))
    with pytest.raises(ValueError):
        sample_field(emb, ZERO_MEAN, np.zeros(emb.s + 1))


def test_factor_row_index_error():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=1, points_per_axis=3))
    with pytest.raises(IndexError):
        factor_row(emb, emb.grid.num_points)


def make_field(values, level=0):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    grid = UniformGrid(dim=values.ndim, points_per_axis=n)
    return FieldRealization(level=level, grid=grid,
                            log_values=np.log(values), values=values)


class TestEvalField:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(1)
        vals = np.exp(rng.standard_normal((5, 5)))
        fld = make_field(vals)
        pts = fld.grid.points()
        got = eval_field(fld, pts)
        assert np.array_equal(got, vals.ravel())

    def test_cell_center_is_corner_mean(self):
        vals = np.exp(np.random.default_rng(2).standard_normal((3, 3)))
        fld = make_field(vals)
        center = np.array([0.25, 0.25])
        expected = vals[:2, :2].mean()
        assert eval_field(fld, center) == pytest.approx(expected, rel=1e-14)

    def test_constant_field(self):
        fld = make_field(np.full((4, 4), 2.5))
        pts = np.random.default_rng(3).random((50, 2))
        assert np.allclose(eval_field(fld, pts), 2.5, atol=1e-14)

    def test_bounds(self):
        vals = np.exp(np.random.default_rng(4).standard_normal((6, 6)))
        fld = make_field(vals)
        pts = np.random.default_rng(5).random((200, 2))
        got = eval_field(fld, pts)
        assert np.all(got >= vals.min() - 1e-14)
        assert np.all(got <= vals.max() + 1e-14)

    def test_outside_domain_raises(self):
        fld = make_field(np.ones((3, 3)))
        with pytest.raises(ValueError):
            eval_field(fld, np.array([1.2, 0.5]))
        with pytest.raises(ValueError):
            eval_field(fld, np.array([-0.1, 0.5]))

    def test_gradient_bounded_by_divided_differences(self):
        # piecewise-multilinear fields inherit the nodal Lipschitz bound
        rng = np.random.default_rng(6)
        vals = np.exp(0.3 * rng.standard_normal((5, 5)))
        fld = make_field(vals)
        h = fld.grid.spacing
        bound = max(np.abs(np.diff(vals, axis=0)).max(),
                    np.abs(np.diff(vals, axis=1)).max()) / h
        pts = 0.02 + 0.96 * rng.random((100, 2))
        delta = 1e-7
        for ax in range(2):
            step = np.zeros(2)
            step[ax] = delta
            grad = (eval_field(fld, pts + step) - eval_field(fld, pts - step)) / (2 * delta)
            assert np.all(np.abs(grad) <= bound * (1 + 1e-6) + 1e-12)


def tensor_interpolation(vals, x):
    """Reference: linear interpolation along one axis at a time, from the
    first, in the lower cell at cell boundaries (clamped at the top)."""
    n = vals.shape[0]
    out = []
    for pt in np.atleast_2d(x):
        v = vals
        for xa in pt:
            i = min(int(xa * (n - 1)), n - 2)
            w = xa * (n - 1) - i
            v = (1.0 - w) * v[i] + w * v[i + 1]
        out.append(float(v))
    return np.array(out)


@st.composite
def grid_and_points(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 33))
    # random coordinates, cell boundaries (grid lines) and both edges
    coord = st.one_of(st.floats(0.0, 1.0),
                      st.integers(0, n - 1).map(lambda k: k / (n - 1)),
                      st.sampled_from([0.0, 1.0]))
    npts = draw(st.integers(1, 12))
    pts = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                        min_size=npts, max_size=npts))
    return UniformGrid(dim=dim, points_per_axis=n), np.array(pts, dtype=float)


@settings(max_examples=200, deadline=None)
@given(gp=grid_and_points(), seed=st.integers(0, 2**32 - 1))
def test_stencil_matches_points_form_bitwise(gp, seed):
    grid, pts = gp
    n = grid.points_per_axis
    vals = np.exp(np.random.default_rng(seed).standard_normal((n,) * grid.dim))
    fld = FieldRealization(level=0, grid=grid, log_values=np.log(vals), values=vals)
    direct = eval_field(fld, pts)
    assert np.array_equal(eval_field(fld, interpolation_stencil(grid, pts)), direct)
    np.testing.assert_allclose(direct, tensor_interpolation(vals, pts),
                               rtol=1e-13, atol=0.0)
    # a single point gives a float, equal to its one-point stencil
    single = eval_field(fld, pts[0])
    assert isinstance(single, float)
    assert single == direct[0]
    assert eval_field(fld, interpolation_stencil(grid, pts[0]))[0] == single


def test_stencil_checks_domain_and_grid():
    grid = UniformGrid(dim=2, points_per_axis=3)
    with pytest.raises(ValueError):
        interpolation_stencil(grid, np.array([[0.5, 1.2]]))
    other = FieldRealization(level=0, grid=UniformGrid(dim=2, points_per_axis=5),
                             log_values=np.zeros((5, 5)), values=np.ones((5, 5)))
    with pytest.raises(ValueError, match="stencil"):
        eval_field(other, interpolation_stencil(grid, np.array([[0.5, 0.5]])))


def test_precomputed_mean_bitwise():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=2, points_per_axis=9))
    mean = MeanField(lambda x: 0.3 * x[:, 0] - x[:, 1])
    y = np.random.default_rng(12).standard_normal(emb.s)
    fld = sample_field(emb, mean, y, level=2)
    pre = sample_field(emb, mean.at(emb.grid.points()), y, level=2)
    assert np.array_equal(pre.log_values, fld.log_values)
    assert np.array_equal(pre.values, fld.values)


class TestRestriction:
    def test_bitwise_at_coarse_nodes(self):
        emb = build_embedding(P1_KERNEL, UniformGrid(dim=2, points_per_axis=5))
        rng = np.random.default_rng(8)
        for _ in range(20):
            fld = sample_field(emb, ZERO_MEAN, rng.standard_normal(emb.s), level=2)
            coarse = restrict_to_coarse(fld, UniformGrid(dim=2, points_per_axis=3))
            assert np.array_equal(coarse.log_values, fld.log_values[::2, ::2])
            assert np.array_equal(coarse.values, fld.values[::2, ::2])

    def test_affine_field_reproduced_exactly(self):
        xs = np.linspace(0, 1, 9)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = 1.0 + 0.5 * X + 0.25 * Y
        fld = make_field(vals, level=3)
        coarse = restrict_to_coarse(fld, UniformGrid(dim=2, points_per_axis=3))
        pts = np.random.default_rng(9).random((100, 2))
        expected = 1.0 + 0.5 * pts[:, 0] + 0.25 * pts[:, 1]
        assert np.allclose(eval_field(coarse, pts), expected, atol=1e-13)

    def test_sup_bound_on_coarse_cells_1d(self):
        # brute-force scan of |fine - restricted| against the nodal range
        rng = np.random.default_rng(10)
        vals = np.exp(0.5 * rng.standard_normal(9))
        fld = make_field(vals, level=3)
        coarse_grid = UniformGrid(dim=1, points_per_axis=5)
        coarse = restrict_to_coarse(fld, coarse_grid)
        xs = np.linspace(0, 1, 2001)[:, None]
        diff = np.abs(eval_field(fld, xs) - eval_field(coarse, xs))
        cell = np.minimum((xs[:, 0] * 4).astype(int), 3)
        for c in range(4):
            fine_nodes = vals[2 * c: 2 * c + 3]
            spread = fine_nodes.max() - fine_nodes.min()
            assert diff[cell == c].max() <= spread + 1e-13

    def test_nesting_violation(self):
        fld = make_field(np.ones((4, 4)), level=1)
        with pytest.raises(NestingViolation):
            restrict_to_coarse(fld, UniformGrid(dim=2, points_per_axis=3))
        with pytest.raises(NestingViolation):
            restrict_to_coarse(fld, UniformGrid(dim=1, points_per_axis=2))


def test_sampling_scales_near_linearly():
    # O(s log s) sampling: doubling s should not much more than double time
    kernel = MaternParams(sigma2=0.1, lambda_c=0.05, nu=0.5)
    times = []
    for n in (2049, 4097):
        grid = UniformGrid(dim=1, points_per_axis=n)
        emb = build_embedding(kernel, grid)
        y = np.random.default_rng(0).standard_normal(emb.s)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(10):
                sample_field(emb, ZERO_MEAN, y)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    assert times[1] / times[0] <= 2.5
