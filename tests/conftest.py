import numpy as np
import pytest
import scipy.sparse as sp

from mlqmcgrad.covariance import MaternParams, MeanField, matern_cov
from mlqmcgrad.estimators import LevelHierarchy
from mlqmcgrad.fem import TargetAndControl


def target_indicator(x):
    inside = np.minimum(
        np.minimum(x[:, 0] - 0.25, 0.75 - x[:, 0]),
        np.minimum(x[:, 1] - 0.25, 0.75 - x[:, 1]))
    return np.where(inside > 1e-12, 1.0, np.where(inside < -1e-12, 0.0, 0.5))


def control_bumps(x):
    return 5.0 * (1.0 - np.cos(2 * np.pi * x[:, 0])) \
        * (1.0 - np.cos(2 * np.pi * x[:, 1]))


def zero_fn(x):
    return np.zeros(x.shape[0])


PROBLEM1 = MaternParams(sigma2=0.1, lambda_c=1.0, nu=0.5)


def make_hierarchy(L=1, seed=123, kernel=PROBLEM1, **kwargs):
    objective = kwargs.pop("objective", None) or TargetAndControl(
        g=target_indicator, z=control_bumps, alpha=1e-4)
    return LevelHierarchy(kernel, MeanField(0.0), objective, L,
                          master_seed=seed, **kwargs)


@pytest.fixture(scope="session")
def hier2():
    """Shared 3-level Problem-1 hierarchy for estimator tests."""
    return make_hierarchy(L=2, seed=321)


@pytest.fixture(autouse=True)
def embedding_cache(tmp_path_factory, monkeypatch):
    """Each test starts from an empty embedding cache of its own, so no
    test reads or writes the user's; the directory the cache fills."""
    root = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "mlqmcgrad"


def rewrite_cache_file(path, meta=None, pos=None, amp=None):
    """Rewrite a cached embedding with some of its three blocks (build
    facts, slots, amplitudes) passed through the given functions."""
    with open(path, "rb") as fh:
        blocks = [np.load(fh) for _ in range(3)]
    for k, change in enumerate((meta, pos, amp)):
        if change is not None:
            blocks[k] = change(blocks[k])
    with open(path, "wb") as fh:
        for block in blocks:
            np.save(fh, block)


# -- oracles: forms of package data that no package code needs -----------------


def quad_eval_matrix(lev):
    """P1 evaluation at the quadrature points as a sparse matrix: row p
    weighs the two end nodes of point p's edge by 0.5 each."""
    ends = lev._quad_ends.T
    return sp.csr_matrix(
        (np.full(ends.size, 0.5), ends.ravel(), np.arange(0, ends.size + 1, 2)),
        shape=(ends.shape[0], lev.num_nodes))



def assign_inputs(e, y):
    """Scatter an importance-ordered input vector to canonical coordinates:
    input r drives the internal coordinate ``importance_order[r]``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (e.s,):
        raise ValueError(f"expected input of length s={e.s}, got {y.shape}")
    out = np.empty_like(y)
    out[e.importance_order] = y
    return out


def factor_row(e, i):
    """Row i of the factor B (canonical coordinate order), i < m.

    B B^T reproduces the covariance matrix exactly up to FFT roundoff
    whenever no eigenvalue clamping occurred.
    """
    m = e.grid.num_points
    if not (0 <= i < m):
        raise IndexError(f"grid point index {i} out of range [0, {m})")
    dim, ext = e.grid.dim, e.ext_per_axis
    pt = np.unravel_index(i, (e.grid.points_per_axis,) * dim)
    slot, part = np.divmod(e._spec_pos, 2)
    k = np.unravel_index(slot, (ext // 2 + 1,) + (ext,) * (dim - 1))[::-1]
    theta = 2.0 * np.pi * sum(pt[ax] * k[ax] for ax in range(dim)) / ext
    # irfft counts a bin strictly inside the last axis twice
    mult = np.where((k[-1] == 0) | (k[-1] == ext // 2), 1.0, 2.0)
    trig = np.where(part == 0, np.cos(theta), -np.sin(theta))
    row = np.empty(e.s)
    row[e.importance_order] = e._spec_amp * mult * trig / e.s
    return row


def reference_column(kernel, grid, ext):
    """First circulant column with the kernel evaluated on all ext^d lags."""
    lag = np.arange(ext)
    lag = np.minimum(lag, ext - lag) * grid.spacing
    if grid.dim == 1:
        dist = lag
    else:
        mesh = np.meshgrid(*([lag] * grid.dim), indexing="ij")
        dist = np.sqrt(sum(m**2 for m in mesh))
    if callable(kernel):
        return np.asarray(kernel(dist), dtype=float)
    return matern_cov(kernel, dist)


def doubling_search(kernel, grid, tol, max_attempts):
    """The classic doubling search, with the full FFT at every attempt:
    the accepted extension, its clamped count and clamped spectrum, or
    None when the attempts run out.  ``build_embedding`` never pads more
    than this, and where it pads as much its embedding is this one."""
    ext = 2 * (grid.points_per_axis - 1)
    for _ in range(max_attempts + 1):
        eigs = np.fft.fftn(reference_column(kernel, grid, ext)).real
        if eigs.min() >= -tol * eigs.max():
            return ext, int(np.count_nonzero(eigs < 0)), np.maximum(eigs, 0.0)
        ext *= 2
    return None
