"""Circulant-embedding sampling of a lognormal field on uniform grids.

The covariance matrix of a stationary Gaussian field on a uniform
rectilinear grid is (block-)Toeplitz and embeds into a (block-)circulant
matrix whose eigenvalues come out of one multidimensional FFT.  From the
real orthogonal eigen-factorization C = G Lambda G^T one gets exact field
samples Z = B Y + Zbar in O(s log s) per sample, where B is the first m
rows of G sqrt(Lambda) and s is the extended (padded) grid size.

Each conjugate frequency pair of the extension contributes two real
degrees of freedom (a cosine and a sine direction), each self-conjugate
frequency one, so s equals the extended grid size and every component of
Y drives one fixed spatial direction -- the property quasi-Monte Carlo
inputs need.

A sample is synthesized from the half spectrum that a real inverse FFT
reads: ``build_embedding`` maps every input coordinate to one real or
imaginary slot of that spectrum, with a signed amplitude, so drawing a
field is one scatter, an inverse FFT over each leading axis that keeps
only the rows covering the physical grid, and ``irfft`` on the last axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .covariance import MaternParams, MeanField, matern_cov

__all__ = [
    "UniformGrid",
    "CirculantEmbedding",
    "FieldRealization",
    "Stencil",
    "PaddingExhausted",
    "NestingViolation",
    "build_embedding",
    "factor_row",
    "sample_field",
    "interpolation_stencil",
    "eval_field",
    "restrict_to_coarse",
]


class PaddingExhausted(RuntimeError):
    """Padding attempts ran out before the extension became positive
    semidefinite; the kernel/grid combination needs a larger budget."""


class NestingViolation(ValueError):
    """Coarse grid points are not a subset of the fine grid points."""


@dataclass(frozen=True)
class UniformGrid:
    """Uniform rectilinear grid on the closed unit cube [0,1]^d.

    ``points_per_axis`` counts points including both boundaries, so the
    spacing is 1/(points_per_axis - 1).  Grids with points_per_axis of
    the form k*(m-1)+1 are nested refinements of the m-point grid.
    """

    dim: int
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.points_per_axis < 2:
            raise ValueError("need at least 2 points per axis")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.points_per_axis - 1)

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.dim

    def points(self) -> np.ndarray:
        """All grid points as an (num_points, dim) array, C-ordered."""
        axes = [np.linspace(0.0, 1.0, self.points_per_axis)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class CirculantEmbedding:
    """Eigen-factorization of the circulant extension of the covariance.

    ``s`` is the stochastic dimension: the number of real standard-normal
    inputs one sample consumes, equal to the extended grid size.
    ``importance_order[r]`` is the internal coordinate driven by input
    coordinate r; inputs are ranked by descending eigenvalue, ties broken
    by ascending frequency index (cosine before sine).
    """

    grid: UniformGrid
    ext_per_axis: int
    eigenvalues: np.ndarray          # per frequency, extended grid shape
    s: int
    importance_order: np.ndarray     # shape (s,), permutation of range(s)
    clamped: int                     # eigenvalues clamped to zero
    # internal coordinate bookkeeping (canonical order, see _spectrum_map)
    _coord_eigs: np.ndarray = field(repr=False)   # eigenvalue per coordinate
    # per input coordinate (importance order): slot in the float64 view of
    # the complex half spectrum, and the amplitude that scales the input
    _spec_pos: np.ndarray = field(repr=False)
    _spec_amp: np.ndarray = field(repr=False)


@dataclass
class FieldRealization:
    """Lognormal field values on a uniform grid: a = exp(Z), node-exact."""

    level: int
    grid: UniformGrid
    log_values: np.ndarray   # shape (n,)*d
    values: np.ndarray       # exp(log_values), same shape


def _spectrum_map(eigs_flat: np.ndarray, ext: int, dim: int):
    """Enumerate the s real coordinates of the factorization.

    Canonical order: ascending frequency index, one coordinate for a
    self-conjugate frequency (-k == k mod ext on every axis), a cosine
    then a sine coordinate for the smaller flat index of each pair
    {k, -k}, none for its partner.  Input coordinates are ranked by
    descending eigenvalue, ties broken by canonical index.

    Returns the canonical per-coordinate eigenvalues, the importance
    order, and per input coordinate its slot in the float64 view of the
    half spectrum with the amplitude that scales it.  The half spectrum
    keeps ext//2 + 1 bins of the last frequency axis and stores the axes
    in reverse order, shape (ext//2+1,) + (ext,)*(dim-1), so the inverse
    FFT over the first frequency axis runs along contiguous memory.

    A pair lands on whichever of k, -k lies in the half spectrum; from -k
    its sine amplitude changes sign.  ``irfft`` counts a bin strictly
    inside the last axis twice (it and its mirror), so such a pair gets
    sqrt(lambda/2).  On the planes k_last in {0, ext/2} both k and -k are
    stored and ``irfft`` keeps only the real part of the leading-axes
    transform, so the pair fills k alone with sqrt(2 lambda).  The factor
    sqrt(s) undoes the 1/s of the inverse transforms.
    """
    half = ext // 2 + 1
    # flat index of the conjugate frequency -k (mod ext), axis by axis
    neg = (-np.arange(ext)) % ext
    conj = np.zeros((1,) * dim, dtype=np.int64)
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = ext
        conj = conj + (neg * ext ** (dim - 1 - ax)).reshape(shape)
    conj = conj.ravel()
    # one representative per self-conjugate frequency or pair: the smaller
    # flat index, carrying 1 or 2 (cosine, sine) adjacent coordinates
    rep = np.flatnonzero(conj >= np.arange(conj.size))
    rep_conj = conj[rep]
    del conj
    count = 1 + (rep_conj != rep)
    rep_eigs = eigs_flat[rep]
    coord_eigs = np.repeat(rep_eigs, count)
    s = coord_eigs.size

    # half-spectrum slot: k itself, or -k when k_last is past ext/2
    lead, last = np.divmod(rep, ext)
    mirrored = last >= half
    lead[mirrored] = rep_conj[mirrored] // ext
    last[mirrored] = ext - last[mirrored]
    del rep, rep_conj
    # flat index of the leading frequency axes in reverse order
    n_lead = ext ** (dim - 1)
    rev_lead = np.arange(n_lead).reshape((ext,) * (dim - 1)).T.ravel()
    slot = last * n_lead + rev_lead[lead]
    weight = np.where((last == 0) | (last == ext // 2), 2.0, 0.5)
    weight[count == 1] = 1.0                       # self-conjugate
    amp_rep = np.sqrt(s * weight * rep_eigs)
    del lead, last, weight

    # ranking representatives stably and expanding them ranks coordinates
    # stably: a representative's coordinates share one eigenvalue
    order = np.argsort(-rep_eigs, kind="stable")
    first = np.cumsum(count) - count
    count = count[order]
    ends = np.cumsum(count)              # past each representative's inputs
    sine = ends[count == 2] - 1          # input index of each sine coordinate
    importance = np.repeat(first[order], count)
    importance[sine] += 1
    amp = np.repeat(amp_rep[order], count)
    amp[ends[mirrored[order]] - 1] *= -1.0     # mirrored reps are pairs
    pos = np.repeat(2 * slot[order], count)
    pos[sine] += 1
    return coord_eigs, importance, pos, amp


def _circulant_column(kernel, grid: UniformGrid, ext: int) -> np.ndarray:
    """First column of the nested circulant extension of the covariance.

    The folded lag min(l, ext - l) takes ext//2 + 1 values per axis, so
    the kernel is evaluated on that corner block and mirrored out.
    """
    h = grid.spacing
    lag = np.arange(ext // 2 + 1) * h
    if grid.dim == 1:
        dist = lag
    else:
        mesh = np.meshgrid(*([lag] * grid.dim), indexing="ij")
        dist = np.sqrt(sum(m**2 for m in mesh))
    if callable(kernel):
        block = np.asarray(kernel(dist), dtype=float)
    else:
        block = matern_cov(kernel, dist)
    fold = np.arange(ext)
    fold = np.minimum(fold, ext - fold)
    for ax in range(grid.dim):
        block = block.take(fold, axis=ax)
    return block


def build_embedding(kernel, grid: UniformGrid, tol: float = 1e-13,
                    max_attempts: int = 12) -> CirculantEmbedding:
    """Build the circulant embedding of the covariance on ``grid``.

    ``kernel`` is MaternParams, or any callable mapping an array of
    distances to covariance values (homogeneous kernels only).

    Starts from the minimal extension 2*(n-1) per axis and doubles the
    extension until the spectrum is nonnegative up to ``tol`` (relative
    to the largest eigenvalue).  Eigenvalues in [-tol*max, 0) are clamped
    to zero; anything more negative triggers another doubling.

    Raises PaddingExhausted after ``max_attempts`` doublings.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = grid.points_per_axis
    ext = 2 * (n - 1)
    for _ in range(max_attempts + 1):
        eigs = np.fft.fftn(_circulant_column(kernel, grid, ext)).real
        max_eig = eigs.max()
        min_eig = eigs.min()
        if min_eig >= -tol * max_eig:
            clamped = int(np.count_nonzero(eigs < 0))
            eigs = np.maximum(eigs, 0.0)
            coord_eigs, importance, pos, amp = _spectrum_map(
                eigs.ravel(), ext, grid.dim)
            return CirculantEmbedding(
                grid=grid,
                ext_per_axis=ext,
                eigenvalues=eigs,
                s=coord_eigs.size,
                importance_order=importance,
                clamped=clamped,
                _coord_eigs=coord_eigs,
                _spec_pos=pos,
                _spec_amp=amp,
            )
        ext *= 2
    raise PaddingExhausted(
        f"no positive semidefinite extension within {max_attempts} doublings "
        f"(grid n={n}, dim={grid.dim}, kernel={kernel})"
    )


def _check_inputs(e: CirculantEmbedding, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (e.s,):
        raise ValueError(f"expected input of length s={e.s}, got {y.shape}")
    return y


def assign_inputs(e: CirculantEmbedding, y: np.ndarray) -> np.ndarray:
    """Scatter an importance-ordered input vector to canonical coordinates.

    Input coordinate r (the r-th QMC dimension) drives the internal
    coordinate ``importance_order[r]``, so coordinate 0 is attached to
    the largest eigenvalue of the extension.
    """
    y = _check_inputs(e, y)
    out = np.empty_like(y)
    out[e.importance_order] = y
    return out


def sample_field(e: CirculantEmbedding, zbar: Union[MeanField, np.ndarray],
                 y: np.ndarray, level: int = 0) -> FieldRealization:
    """Draw the lognormal field for one vector of standard normals.

    ``y`` is consumed in importance order (coordinate 0 drives the
    largest-eigenvalue direction).  Computes B y from the Hermitian half
    spectrum -- B is never materialized: one scatter of the scaled
    inputs, an inverse FFT over each leading frequency axis that keeps
    only the first n outputs (the physical grid), and one real inverse
    FFT over the last axis.  Then adds the mean and exponentiates.

    ``zbar`` is the mean field, or its values at ``e.grid.points()``
    (C-ordered, any shape with that many entries) already evaluated and
    checked by ``MeanField.at``, which spares the per-sample evaluation.
    """
    y = _check_inputs(e, y)
    dim, ext = e.grid.dim, e.ext_per_axis
    n = e.grid.points_per_axis
    # frequency axes in reverse order, see _spectrum_map
    spec_shape = (ext // 2 + 1,) + (ext,) * (dim - 1)
    spec = np.zeros(2 * math.prod(spec_shape))
    spec[e._spec_pos] = e._spec_amp * y
    z = spec.view(complex).reshape(spec_shape)
    for ax in range(dim - 1, 0, -1):
        z = np.fft.ifft(z, axis=ax)[(slice(None),) * ax + (slice(n),)]
    z = np.fft.irfft(z, n=ext, axis=0)[:n]

    log_vals = np.ascontiguousarray(z.T)
    if isinstance(zbar, MeanField):
        zbar = zbar.at(e.grid.points())
    log_vals += np.reshape(zbar, (n,) * dim)
    return FieldRealization(level=level, grid=e.grid,
                            log_values=log_vals, values=np.exp(log_vals))


def factor_row(e: CirculantEmbedding, i: int) -> np.ndarray:
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


def _check_in_domain(x: np.ndarray, dim: int):
    if x.shape[-1] != dim:
        raise ValueError(f"points must have {dim} components")
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("point outside the closed unit cube")


@dataclass(frozen=True)
class Stencil:
    """Multilinear interpolation stencil of fixed points in a grid.

    Per point, ``index[c]`` is the flat (C-order) index of corner c of
    the point's cell and ``weight[c]`` its weight; corner c takes the
    upper vertex on axis ax when bit ax of c is set.  Built once by
    ``interpolation_stencil``, it evaluates every field on ``grid`` at
    those points without locating them again.
    """

    grid: UniformGrid
    index: np.ndarray    # (2^d, npts) flat vertex indices
    weight: np.ndarray   # (2^d, npts)


def interpolation_stencil(grid: UniformGrid, x: np.ndarray) -> Stencil:
    """Stencil of the points ``x`` ((d,) or (npts, d)) in ``grid``.

    Cell choice at interior cell boundaries takes the lower cell index,
    clamped at the top boundary.  Raises ValueError for points outside
    the closed unit cube.
    """
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    dim = grid.dim
    _check_in_domain(x_arr, dim)
    n = grid.points_per_axis
    t = np.clip(x_arr, 0.0, 1.0) / grid.spacing
    i0 = np.minimum(t.astype(np.int64), n - 2)
    w = t - i0

    npts = x_arr.shape[0]
    index = np.zeros((2**dim, npts), dtype=np.intp)
    weight = np.empty((2**dim, npts))
    for corner in range(2**dim):
        wc = np.ones(npts)
        for ax in range(dim):
            bit = (corner >> ax) & 1
            wc *= w[:, ax] if bit else (1.0 - w[:, ax])
            index[corner] = index[corner] * n + i0[:, ax] + bit
        weight[corner] = wc
    return Stencil(grid=grid, index=index, weight=weight)


def eval_field(f: FieldRealization, x: Union[np.ndarray, Stencil]) -> np.ndarray:
    """Multilinear interpolation of the field at points in the unit cube.

    ``x`` is a point (shape (d,)), an array of points (npts, d), or a
    ``Stencil`` of points built for ``f.grid``.  The interpolation is a
    convex combination of the 2^d surrounding vertex values, exact at
    grid nodes; values stay inside the nodal range.  A point returns a
    float, the other forms an array.
    """
    st = x if isinstance(x, Stencil) else interpolation_stencil(f.grid, x)
    if st.grid != f.grid:
        raise ValueError(f"stencil built for {st.grid}, field lives on {f.grid}")
    terms = f.values.ravel()[st.index]
    terms *= st.weight
    # one corner at a time from zero, in ascending corner order, so that
    # points and a stencil of them give the same bits
    out = np.zeros(terms.shape[1])
    for term in terms:
        out += term
    if not isinstance(x, Stencil) and np.asarray(x).ndim == 1:
        return float(out[0])
    return out


def restrict_to_coarse(f: FieldRealization, coarse: UniformGrid) -> FieldRealization:
    """Restrict a field to a nested coarser grid (exact at shared nodes).

    The restricted realization keeps the fine field's nodal values (both
    a and log a) at the coarse nodes bitwise; evaluation in between uses
    coarse-cell multilinear interpolation.
    """
    if coarse.dim != f.grid.dim:
        raise NestingViolation("coarse grid dimension differs")
    nf, nc = f.grid.points_per_axis, coarse.points_per_axis
    if (nf - 1) % (nc - 1) != 0:
        raise NestingViolation(
            f"coarse grid ({nc} per axis) is not nested in fine grid ({nf} per axis)"
        )
    stride = (nf - 1) // (nc - 1)
    sl = (slice(None, None, stride),) * f.grid.dim
    return FieldRealization(
        level=f.level - 1,
        grid=coarse,
        log_values=f.log_values[sl].copy(),
        values=f.values[sl].copy(),
    )
