import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (doubling_search, factor_row, input_coordinates, periodized_kernel,
                      reference_column, rewrite_cache_file)
from mlqmcgrad import circulant_field as cf, covariance
from mlqmcgrad.covariance import MaternParams, MeanField, matern_cov, smooth_cutoff
from mlqmcgrad.circulant_field import (
    FieldRealization,
    NestingViolation,
    PaddingExhausted,
    UniformGrid,
    build_embedding,
    eval_field,
    interpolation_stencil,
    restrict_to_coarse,
    sample_field,
)

P1_KERNEL = MaternParams(sigma2=0.1, lambda_c=1.0, nu=0.5)


def mean_values(emb, zbar=0.0):
    """The mean log-field's values on the embedding's grid."""
    return MeanField(zbar).at(emb.grid.points())


def direct_covariance(kernel, grid):
    pts = grid.points()
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return matern_cov(kernel, d)


def dense_factor(emb):
    return np.array([factor_row(emb, i) for i in range(emb.grid.num_points)])


def search_spectrum(kernel, grid):
    """The clamped spectrum that ``build_embedding``'s search accepts."""
    return np.maximum(cf._search(kernel, grid, 1e-13, 12)[2], 0.0)


def accepted_spectrum(kernel, grid, emb):
    """The clamped spectrum of the kernel ``emb`` accepted, from its
    values on every lag."""
    ext = emb.ext_per_axis
    if emb.periodized:
        kernel = periodized_kernel(kernel, grid, ext)
    return np.maximum(np.fft.fftn(reference_column(kernel, grid, ext)).real, 0.0)


def test_two_point_1d_example():
    # oracle: eigen-decomposition of the explicit 2x2 circulant
    kernel = MaternParams(sigma2=1.0, lambda_c=1.0, nu=0.5)
    emb = build_embedding(kernel, UniformGrid(dim=1, points_per_axis=2))
    assert emb.ext_per_axis == 2 and emb.s == 2
    C = np.array([[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]])
    expected = np.sort(np.linalg.eigvalsh(C))
    eigs = search_spectrum(kernel, emb.grid)
    assert np.allclose(np.sort(eigs.ravel()), expected, atol=1e-14)
    B = dense_factor(emb)
    assert np.abs(B @ B.T - C).max() < 1e-12


def test_diagonal_surrogate_flat_spectrum():
    sigma2 = 0.7
    grid = UniformGrid(dim=2, points_per_axis=3)
    kernel = lambda d: np.where(d == 0.0, sigma2, 0.0)    # noqa: E731
    emb = build_embedding(kernel, grid)
    assert emb.ext_per_axis == 4  # minimal extension, no padding
    assert np.allclose(search_spectrum(kernel, grid), sigma2)
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
    grid = UniformGrid(dim=2, points_per_axis=3)
    emb = build_embedding(P1_KERNEL, grid)
    order = input_coordinates(emb)
    assert sorted(order) == list(range(emb.s))
    eigs = reference_coordinates(accepted_spectrum(P1_KERNEL, grid, emb))[0][order]
    assert np.all(np.diff(eigs) <= 1e-15)
    # ties broken by ascending canonical coordinate (frequency) index
    for j in range(emb.s - 1):
        if eigs[j] == eigs[j + 1]:
            assert order[j] < order[j + 1]


def test_zero_input_gives_mean_field():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=2, points_per_axis=3))
    fld = sample_field(emb, mean_values(emb, 0.4), np.zeros(emb.s))
    assert np.allclose(fld.values, np.exp(0.4), atol=1e-14)
    assert np.all(fld.values > 0)


def test_fft_sampling_matches_dense_factor():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=1, points_per_axis=5))
    B = dense_factor(emb)
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.standard_normal(emb.s)
        fld = sample_field(emb, mean_values(emb, 0.3), y)
        dense = B @ y + 0.3
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
        zs[i] = sample_field(emb, mean_values(emb), rng.standard_normal(emb.s)).log_values.ravel()
    emp = np.cov(zs.T)
    se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / nsamp)
    assert np.abs(emp - sigma).max() / se.max() < 5.0


# -- references: the kernel on every lag and the full complex spectrum --------


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


def reference_synthesis(emb, eigs, y):
    """sqrt(s) * Re(ifftn) of the full Hermitian spectrum ``eigs`` on the
    grid."""
    _, (self_f, own_f, part_f), (c_self, c_cos, c_sin) = reference_coordinates(eigs)
    y_canon = np.empty(emb.s)
    y_canon[input_coordinates(emb)] = y
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
    col = cf._mirror(cf._lag_block(kernel, grid, ext // 2 + 1), ext)
    assert col.shape == (ext,) * dim
    assert col.tobytes() == reference_column(kernel, grid, ext).tobytes()


def reference_spectrum_map(eigs, order):
    """Per input coordinate (canonical coordinate ``order[r]``), its slot
    in the float64 view of the half spectrum and its signed amplitude."""
    ext, dim, s = eigs.shape[0], eigs.ndim, eigs.size
    coord_eigs, (self_f, own_f, _), (c_self, c_cos, c_sin) = reference_coordinates(eigs)
    freq = np.empty(s, dtype=np.int64)
    freq[c_self], freq[c_cos], freq[c_sin] = self_f, own_f, own_f
    sine = np.zeros(s, dtype=bool)
    sine[c_sin] = True
    k = np.array(np.unravel_index(freq, eigs.shape))
    # a frequency past the stored half of the last axis is read at -k
    mirrored = k[-1] > ext // 2
    k[:, mirrored] = (-k[:, mirrored]) % ext
    slot = np.ravel_multi_index(tuple(k[::-1]), (ext // 2 + 1,) + (ext,) * (dim - 1))
    weight = np.where((k[-1] == 0) | (k[-1] == ext // 2), 2.0, 0.5)
    weight[c_self] = 1.0
    amp = np.sqrt(s * weight * coord_eigs)
    amp[mirrored & sine] *= -1.0
    return (2 * slot + sine)[order], amp[order]


CALLABLE_KERNELS = {
    "exponential": lambda d: 0.1 * np.exp(-d / 0.3),
    "gaussian": lambda d: 0.1 * np.exp(-(d / 0.3) ** 2),
    "damped_cosine": lambda d: 0.1 * np.exp(-d / 0.3) * np.cos(4.0 * d),
    # in 1-D its column is one Fourier mode at every extension, so most
    # eigenvalues are zero up to rounding: clamping
    "cosine": lambda d: 0.1 * np.cos(np.pi * d),
}


def periodizes(kernel, grid, ext):
    """Whether the search tries a smoothly periodized kernel at ``ext``:
    a Matern kernel, with half the period past the cube's diameter."""
    return isinstance(kernel, MaternParams) and ext * grid.spacing / 2 > math.sqrt(grid.dim)


def candidates_of(kernel, grid, emb):
    """Kernels tried by a search that accepted ``emb``: each one at every
    smaller extension, then those up to the accepted one."""
    ext, tried = 2 * (grid.points_per_axis - 1), 0
    while ext < emb.ext_per_axis:
        tried += 1 + periodizes(kernel, grid, ext)
        ext *= 2
    return tried + 1 + emb.periodized


@settings(max_examples=60, deadline=None)
@given(case=grid_cases,
       kernel=st.one_of(st.sampled_from([0.5, 1.5, 2.5]),
                        st.sampled_from(sorted(CALLABLE_KERNELS))),
       tol=st.sampled_from([0.0, 1e-13, 1e-8]), attempts=st.integers(0, 12))
def test_embedding_spectrum_and_order_bitwise(case, kernel, tol, attempts):
    dim, n, lam = case
    if isinstance(kernel, str):
        kernel = CALLABLE_KERNELS[kernel]
    else:
        kernel = MaternParams(sigma2=0.1, lambda_c=lam, nu=kernel)
    grid = UniformGrid(dim=dim, points_per_axis=n)
    # keep the reference's largest spectrum below 2^16 entries
    while (2 * (n - 1) * 2**attempts) ** dim > 2**16:
        attempts -= 1
    ref = doubling_search(kernel, grid, tol, attempts)
    try:
        emb = build_embedding(kernel, grid, tol=tol, max_attempts=attempts)
    except PaddingExhausted:
        assert ref is None
        return
    ext = emb.ext_per_axis
    if ref is not None and ref[0] == ext:
        # as much padding as the doubling search: its embedding, bitwise
        assert not emb.periodized
        _, clamped, eigs = ref
    else:
        # less: the periodized kernel, whose spectrum the reference takes
        # from its values on every lag
        assert ref is None or ext < ref[0]
        assert emb.periodized and isinstance(kernel, MaternParams)
        eigs = np.fft.fftn(reference_column(periodized_kernel(kernel, grid, ext),
                                            grid, ext)).real
        clamped = int(np.count_nonzero(eigs < 0))
        eigs = np.maximum(eigs, 0.0)
    assert (emb.clamped, emb.s) == (clamped, ext**dim)
    assert emb.fftn_calls == candidates_of(kernel, grid, emb)
    coord_eigs = reference_coordinates(eigs)[0]
    order = np.argsort(-coord_eigs, kind="stable")
    pos, amp = reference_spectrum_map(eigs, order)
    assert emb._spec_pos.dtype == np.int32 and np.array_equal(emb._spec_pos, pos)
    assert emb._spec_amp.tobytes() == amp.tobytes()
    assert np.array_equal(input_coordinates(emb), order)
    # the search's spectrum, which ``cbc.ce_weights`` ranks, clamped
    found = cf._search(kernel, grid, tol, attempts)
    assert (found[0], found[1]) == (emb.periodized, ext)
    assert np.maximum(found[2], 0.0).tobytes() == eigs.tobytes()


# -- smooth periodization --------------------------------------------------------

# Matern kernels over a range of correlation lengths on small grids in
# 1-3 dimensions; 3-d grids stay coarse so the doubling search's spectra
# stay below 2^16 entries
matern_cases = st.tuples(
    st.integers(1, 3), st.integers(2, 9), st.floats(0.05, 2.0),
    st.sampled_from([0.5, 1.5, 2.5]),
).map(lambda t: (t[0], min(t[1], 5) if t[0] == 3 else t[1],
                 min(t[2], 0.3) if t[0] == 3 else t[2], t[3]))


@settings(max_examples=60, deadline=None)
@given(case=matern_cases)
def test_periodized_search_pads_less_and_keeps_the_law(case):
    dim, n, lam, nu = case
    kernel = MaternParams(sigma2=0.1, lambda_c=lam, nu=nu)
    grid = UniformGrid(dim=dim, points_per_axis=n)
    attempts = int(math.log2(2**(16 / dim) / (2 * (n - 1))))
    ref = doubling_search(kernel, grid, 1e-13, attempts)
    try:
        emb = build_embedding(kernel, grid, max_attempts=attempts)
    except PaddingExhausted:
        assert ref is None
        return
    ext = emb.ext_per_axis
    # never more padding than doubling alone; the same padding is its
    # embedding bitwise (checked against its spectrum above)
    assert ref is None or ext <= ref[0]
    assert emb.periodized == (ref is None or ext < ref[0])
    # on every lag inside the domain the accepted column is the Matern
    # covariance bitwise, so the sampled field keeps its law on the grid
    inside = (slice(n),) * dim
    block = dict(cf._candidates(kernel, grid, ext, cf._lag_block(kernel, grid, ext // 2 + 1)))
    col = cf._mirror(block[emb.periodized], ext)
    assert col[inside].tobytes() == reference_column(kernel, grid, ext)[inside].tobytes()
    if emb.periodized:
        assert cf._periodized(kernel, grid, ext) == ext * grid.spacing / 2
        # the column vanishes on lags at least half the period long
        dist = np.sqrt(sum(np.minimum(i, ext - i) ** 2 for i in np.indices(col.shape)))
        assert np.all(col[dist * grid.spacing >= ext * grid.spacing / 2] == 0.0)


@settings(max_examples=200, deadline=None)
@given(inner=st.floats(0.5, 4.0), width=st.floats(1e-3, 30.0),
       r=st.floats(0.0, 40.0))
def test_cutoff_is_one_inside_and_zero_past_the_half_period(inner, width, r):
    outer = inner + width
    value = float(smooth_cutoff(r, inner, outer))
    if r <= inner:
        assert value == 1.0
    elif r >= outer:
        assert value == 0.0
    else:
        assert 0.0 <= value <= 1.0


def test_cutoff_decreases_through_one_half():
    r = np.linspace(1.0, 3.0, 20001)
    phi = smooth_cutoff(r, 1.0, 3.0)
    assert np.all(np.diff(phi) <= 0.0)
    assert phi[10000] == pytest.approx(0.5)        # symmetric about the middle


# s per level of both presets (CE grid 2^l + 1 points per axis): the
# levels that doubling padded past the diameter, p1's level 4 and p2's
# levels 4-5, fall back to the periodized kernel at 8 and 16 domain
# lengths per axis, 4x fewer inputs; every other level keeps its size
PRESET_S = {
    0.5: [(4, False), (16, False), (1024, False), (4096, False), (16384, True)],
    2.5: [(4, False), (256, False), (4096, False), (16384, False), (65536, True),
          (262144, True)],
}


@pytest.mark.parametrize("nu", sorted(PRESET_S))
def test_preset_embedding_sizes(nu):
    kernel = MaternParams(sigma2=0.1, lambda_c=1.0, nu=nu)
    for ell, (s, periodized) in enumerate(PRESET_S[nu]):
        emb = build_embedding(kernel, UniformGrid(2, 2**ell + 1))
        assert (emb.s, emb.periodized, emb.clamped) == (s, periodized, 0), ell


def traced(fn):
    """``fn()``, the bytes it left allocated and its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


P2_KERNEL = MaternParams(sigma2=0.1, lambda_c=1.0, nu=2.5)


def test_embedding_build_memory(embedding_cache):
    # problem 2's level 5: s = 2^18, periodized; the build keeps 4 + 8
    # bytes per input (32-bit slot, amplitude) and peaks below three times
    # that, writing to the cache included
    emb, kept, peak = traced(lambda: build_embedding(P2_KERNEL, UniformGrid(2, 33)))
    assert emb.s == 2**18 and emb.periodized and not emb.from_cache
    assert len(list(embedding_cache.iterdir())) == 1
    assert emb._spec_pos.itemsize == 4
    assert kept <= (emb._spec_pos.itemsize + 8) * emb.s + 2**16
    assert peak <= 3 * kept


# -- the disk cache of Matern embeddings ----------------------------------------


def assert_same_embedding(a, b):
    for name in ("grid", "ext_per_axis", "s", "clamped", "periodized", "fftn_calls"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("_spec_pos", "_spec_amp"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# the 3-d grid and both 17-point grids take the periodized kernel
@pytest.mark.parametrize("kernel, grid", [
    (P1_KERNEL, UniformGrid(2, 9)), (P2_KERNEL, UniformGrid(2, 5)),
    (P2_KERNEL, UniformGrid(1, 9)), (P1_KERNEL, UniformGrid(3, 3)),
    (P1_KERNEL, UniformGrid(2, 17)), (P2_KERNEL, UniformGrid(2, 17))])
def test_cache_hit_equals_build_bitwise(embedding_cache, kernel, grid):
    built = build_embedding(kernel, grid)
    loaded = build_embedding(kernel, grid)
    assert (built.from_cache, loaded.from_cache) == (False, True)
    assert built.periodized == (grid.dim == 3 or grid.points_per_axis == 17)
    assert_same_embedding(built, loaded)
    y = np.random.default_rng(3).standard_normal(built.s)
    zbar = mean_values(built, 0.2)
    assert sample_field(loaded, zbar, y).values.tobytes() == \
        sample_field(built, zbar, y).values.tobytes()
    assert len(list(embedding_cache.iterdir())) == 1


def test_cache_hit_memory():
    # a hit keeps what a build keeps, and allocates nothing else s-sized
    build_embedding(P2_KERNEL, UniformGrid(2, 33))
    emb, kept, peak = traced(lambda: build_embedding(P2_KERNEL, UniformGrid(2, 33)))
    assert emb.from_cache
    assert kept <= 12 * emb.s + 2**16
    assert peak <= kept + 2**16


@pytest.mark.parametrize("change", [
    dict(kernel=MaternParams(0.1, 1.0, 1.5)),
    dict(kernel=MaternParams(0.2, 1.0, 0.5)),
    dict(kernel=MaternParams(0.1, 0.5, 0.5)),
    dict(grid=UniformGrid(2, 9)),
    dict(grid=UniformGrid(1, 5)),
    dict(tol=1e-12),
    dict(max_attempts=11),
])
def test_cache_misses_on_any_changed_argument(embedding_cache, change):
    args = dict(kernel=P1_KERNEL, grid=UniformGrid(2, 5), tol=1e-13, max_attempts=12)
    build_embedding(**args)
    args.update(change)
    emb = build_embedding(**args)
    assert not emb.from_cache
    assert len(list(embedding_cache.iterdir())) == 2
    assert build_embedding(**args).from_cache


@pytest.mark.parametrize("module", [cf, covariance])
def test_cache_misses_when_source_changes(embedding_cache, tmp_path, monkeypatch, module):
    grid = UniformGrid(2, 5)
    build_embedding(P1_KERNEL, grid)
    edited = tmp_path / Path(module.__file__).name
    edited.write_bytes(Path(module.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(module, "__file__", str(edited))
    assert not build_embedding(P1_KERNEL, grid).from_cache
    assert len(list(embedding_cache.iterdir())) == 2


def test_callable_kernels_are_not_cached(embedding_cache):
    kernel = lambda d: 0.1 * np.exp(-d)      # noqa: E731
    for _ in range(2):
        assert not build_embedding(kernel, UniformGrid(2, 5)).from_cache
    assert not embedding_cache.exists()


def test_cache_directory_follows_xdg(monkeypatch, tmp_path):
    args = (P1_KERNEL, UniformGrid(2, 3), 1e-13, 12)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert cf._cache_file(*args).parent == tmp_path / "mlqmcgrad"
    for unset in ("", "relative/dir"):
        monkeypatch.setenv("XDG_CACHE_HOME", unset)
        assert cf._cache_file(*args).parent == Path.home() / ".cache" / "mlqmcgrad"


CORRUPTIONS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:-100]),
    "header only": lambda p: p.write_bytes(p.read_bytes()[:60]),
    "empty": lambda p: p.write_bytes(b""),
    "garbage": lambda p: p.write_bytes(np.random.default_rng(0).bytes(4096)),
    "short amplitudes": lambda p: rewrite_cache_file(p, amp=lambda a: a[:-1]),
    "2-d amplitudes": lambda p: rewrite_cache_file(p, amp=lambda a: a.reshape(-1, 2)),
    "float32 amplitudes": lambda p: rewrite_cache_file(p, amp=lambda a: a.astype(np.float32)),
    "int64 slots": lambda p: rewrite_cache_file(p, pos=lambda a: a.astype(np.int64)),
    "slot out of range": lambda p: rewrite_cache_file(p, pos=lambda a: a + 2**20),
    "negative slot": lambda p: rewrite_cache_file(p, pos=lambda a: a - 1),
    "wrong s": lambda p: rewrite_cache_file(p, meta=lambda m: m * [1, 2, 1, 1, 1]),
    "wrong ext": lambda p: rewrite_cache_file(p, meta=lambda m: m // [2, 4, 1, 1, 1]),
    "periodized flag 2": lambda p: rewrite_cache_file(p, meta=lambda m: m + [0, 0, 0, 0, 2]),
    # a file that is whole at 9 points' least extension, 16, flagged
    # periodized: there half the period, 1, is not past the diameter sqrt(2)
    "periodized below the cutoff": lambda p: rewrite_cache_file(
        p, meta=lambda m: np.array([16, 256, 0, m[3], 1]),
        pos=lambda a: a[:256] % cf._slot_count(16, 2), amp=lambda a: a[:256]),
    # format 2 stored six build facts: a DCT screen count before the FFTs
    "format 2": lambda p: rewrite_cache_file(p, meta=lambda m: np.insert(m, 3, m[3])),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_invalid_cache_file_is_rebuilt(embedding_cache, corrupt):
    grid = UniformGrid(2, 9)
    built = build_embedding(P2_KERNEL, grid)
    (path,) = embedding_cache.iterdir()
    CORRUPTIONS[corrupt](path)
    again = build_embedding(P2_KERNEL, grid)
    assert not again.from_cache
    assert_same_embedding(again, built)
    if corrupt != "a directory":     # the rebuilt embedding replaced the file
        assert build_embedding(P2_KERNEL, grid).from_cache


def test_unwritable_cache_directory_still_builds(monkeypatch, tmp_path):
    # a regular file where the cache directory should be: no write can
    # succeed, whoever runs the test
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    grid = UniformGrid(2, 5)
    embs = [build_embedding(P1_KERNEL, grid) for _ in range(2)]
    assert [e.from_cache for e in embs] == [False, False]
    assert_same_embedding(*embs)
    assert blocker.read_text() == "" and list(tmp_path.iterdir()) == [blocker]


def test_cache_write_leaves_no_temp_file(embedding_cache, monkeypatch):
    # a write that fails midway removes its temp file; the build stands
    def failing_save(fh, arr):
        fh.write(b"partial")
        raise OSError("disk full")
    monkeypatch.setattr(np, "save", failing_save)
    emb = build_embedding(P1_KERNEL, UniformGrid(2, 5))
    assert not emb.from_cache and list(embedding_cache.iterdir()) == []


def reference_sample_field(e, zbar, y):
    """One scatter of the whole scaled input and out-of-place transforms."""
    dim, ext, n = e.grid.dim, e.ext_per_axis, e.grid.points_per_axis
    spec_shape = (ext // 2 + 1,) + (ext,) * (dim - 1)
    spec = np.zeros(2 * math.prod(spec_shape))
    spec[e._spec_pos.astype(np.intp)] = e._spec_amp * y
    z = spec.view(complex).reshape(spec_shape)
    for ax in range(dim - 1, 0, -1):
        z = np.fft.ifft(z, axis=ax)[(slice(None),) * ax + (slice(n),)]
    z = np.fft.irfft(z, n=ext, axis=0)[:n]
    return np.ascontiguousarray(z.T) + np.reshape(zbar, (n,) * dim)


@pytest.mark.parametrize("dim,n", [(2, 33), (3, 9)])
def test_blockwise_sampling_bitwise_and_lean(dim, n):
    # several scatter blocks; the sampler holds the half spectrum and one
    # block of products and indices, and nothing else s-sized (the slack
    # covers grid-sized arrays)
    emb = build_embedding(P2_KERNEL if dim == 2 else P1_KERNEL, UniformGrid(dim, n))
    assert emb.s > 2**16
    zbar = mean_values(emb, 0.25)
    y = np.random.default_rng(5).standard_normal(emb.s)
    fld, _, peak = traced(lambda: sample_field(emb, zbar, y))
    assert fld.log_values.tobytes() == reference_sample_field(emb, zbar, y).tobytes()
    ext = emb.ext_per_axis
    half_spectrum = 16 * (ext // 2 + 1) * ext ** (dim - 1)
    assert peak <= half_spectrum + 16 * 2**16 + 2**18


def test_embedding_keeps_only_the_sampling_map():
    emb = build_embedding(MaternParams(0.1, 1.0, 2.5), UniformGrid(dim=2, points_per_axis=9))
    resident = {k for k, v in vars(emb).items() if isinstance(v, np.ndarray)}
    assert resident == {"_spec_pos", "_spec_amp"}
    # four doublings; the three padded past the diameter try the
    # periodized kernel too, one full FFT per kernel tried
    assert (emb.ext_per_axis, emb.fftn_calls) == (128, 6)


@settings(max_examples=40, deadline=None)
@given(case=grid_cases, nu=st.sampled_from([0.5, 2.5]),
       seed=st.integers(0, 2**32 - 1))
def test_sample_field_matches_full_spectrum_synthesis(case, nu, seed):
    dim, n, lam = case
    kernel = MaternParams(sigma2=0.1, lambda_c=lam, nu=nu)
    grid = UniformGrid(dim=dim, points_per_axis=n)
    emb = build_embedding(kernel, grid)
    y = np.random.default_rng(seed).standard_normal(emb.s)
    ref = reference_synthesis(emb, accepted_spectrum(kernel, grid, emb), y)
    fld = sample_field(emb, mean_values(emb, 0.25), y, level=3)
    assert fld.log_values.shape == (n,) * dim and fld.level == 3
    assert fld.log_values.flags.c_contiguous
    assert np.abs(fld.log_values - 0.25 - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.array_equal(fld.values, np.exp(fld.log_values))
    # the dense factor rows agree with the synthesis at the grid corners
    for i in (0, emb.grid.num_points - 1):
        assert abs(factor_row(emb, i) @ y - ref.flat[i]) <= 1e-10 * np.abs(ref).max()


def test_input_length_mismatch():
    emb = build_embedding(P1_KERNEL, UniformGrid(dim=1, points_per_axis=3))
    with pytest.raises(ValueError):
        sample_field(emb, mean_values(emb), np.zeros(emb.s + 1))


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


def at_points(fld, pts):
    """The field at the points ``pts`` ((d,) or (npts, d)), by a stencil."""
    return eval_field(fld, interpolation_stencil(fld.grid, pts))


class TestEvalField:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(1)
        vals = np.exp(rng.standard_normal((5, 5)))
        fld = make_field(vals)
        pts = fld.grid.points()
        got = at_points(fld, pts)
        assert np.array_equal(got, vals.ravel())

    def test_cell_center_is_corner_mean(self):
        vals = np.exp(np.random.default_rng(2).standard_normal((3, 3)))
        fld = make_field(vals)
        center = np.array([0.25, 0.25])
        expected = vals[:2, :2].mean()
        assert at_points(fld, center)[0] == pytest.approx(expected, rel=1e-14)

    def test_constant_field(self):
        fld = make_field(np.full((4, 4), 2.5))
        pts = np.random.default_rng(3).random((50, 2))
        assert np.allclose(at_points(fld, pts), 2.5, atol=1e-14)

    def test_bounds(self):
        vals = np.exp(np.random.default_rng(4).standard_normal((6, 6)))
        fld = make_field(vals)
        pts = np.random.default_rng(5).random((200, 2))
        got = at_points(fld, pts)
        assert np.all(got >= vals.min() - 1e-14)
        assert np.all(got <= vals.max() + 1e-14)

    def test_outside_domain_raises(self):
        fld = make_field(np.ones((3, 3)))
        with pytest.raises(ValueError):
            at_points(fld, np.array([1.2, 0.5]))
        with pytest.raises(ValueError):
            at_points(fld, np.array([-0.1, 0.5]))

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
            grad = (at_points(fld, pts + step) - at_points(fld, pts - step)) / (2 * delta)
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
# on cell faces, weights from x / spacing put 3.6e-15 on a corner worth 45
# here and missed the reference by 2.5e-13 relative; x * (n - 1) gives 0
@example(gp=(UniformGrid(dim=3, points_per_axis=29), np.array([[18 / 28, 1.0, 15 / 28]])),
         seed=1812)
def test_stencil_matches_tensor_interpolation(gp, seed):
    grid, pts = gp
    n = grid.points_per_axis
    vals = np.exp(np.random.default_rng(seed).standard_normal((n,) * grid.dim))
    fld = FieldRealization(level=0, grid=grid, log_values=np.log(vals), values=vals)
    got = eval_field(fld, interpolation_stencil(grid, pts))
    np.testing.assert_allclose(got, tensor_interpolation(vals, pts),
                               rtol=1e-13, atol=0.0)
    # the stencil of a single point (shape (d,)) gives the same bits
    assert np.array_equal(eval_field(fld, interpolation_stencil(grid, pts[0])), got[:1])


def test_stencil_checks_domain_and_grid():
    grid = UniformGrid(dim=2, points_per_axis=3)
    with pytest.raises(ValueError):
        interpolation_stencil(grid, np.array([[0.5, 1.2]]))
    other = FieldRealization(level=0, grid=UniformGrid(dim=2, points_per_axis=5),
                             log_values=np.zeros((5, 5)), values=np.ones((5, 5)))
    with pytest.raises(ValueError, match="stencil"):
        eval_field(other, interpolation_stencil(grid, np.array([[0.5, 0.5]])))


class TestRestriction:
    def test_bitwise_at_coarse_nodes(self):
        emb = build_embedding(P1_KERNEL, UniformGrid(dim=2, points_per_axis=5))
        rng = np.random.default_rng(8)
        for _ in range(20):
            fld = sample_field(emb, mean_values(emb), rng.standard_normal(emb.s), level=2)
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
        assert np.allclose(at_points(coarse, pts), expected, atol=1e-13)

    def test_sup_bound_on_coarse_cells_1d(self):
        # brute-force scan of |fine - restricted| against the nodal range
        rng = np.random.default_rng(10)
        vals = np.exp(0.5 * rng.standard_normal(9))
        fld = make_field(vals, level=3)
        coarse_grid = UniformGrid(dim=1, points_per_axis=5)
        coarse = restrict_to_coarse(fld, coarse_grid)
        xs = np.linspace(0, 1, 2001)[:, None]
        diff = np.abs(at_points(fld, xs) - at_points(coarse, xs))
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
                sample_field(emb, mean_values(emb), y)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    assert times[1] / times[0] <= 2.5
