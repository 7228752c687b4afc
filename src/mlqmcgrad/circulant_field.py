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

Embeddings of Matern kernels are cached on disk, under
``$XDG_CACHE_HOME/mlqmcgrad`` (``~/.cache/mlqmcgrad`` when that is unset):
a later run of the same discretization loads the slots and amplitudes
instead of building them.  A loaded embedding is bitwise the built one.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import covariance
from .covariance import MaternParams, matern_cov

__all__ = [
    "UniformGrid",
    "CirculantEmbedding",
    "FieldRealization",
    "Stencil",
    "PaddingExhausted",
    "NestingViolation",
    "build_embedding",
    "sample_field",
    "interpolation_stencil",
    "eval_field",
    "restrict_to_coarse",
]


# length of the blocks in which a sample's spectrum is filled, so that the
# fill's temporaries stay small next to the s-long inputs
_BLOCK = 2**16


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

    Only what sampling reads stays resident: per input coordinate, its
    slot in the half spectrum (``int32`` where the slots fit, else
    ``intp``) and its amplitude, 12 s bytes in all (12 MiB at s = 2^20).
    ``eigenvalues``, ``importance_order`` and ``_coord_eigs`` are
    computed from ``kernel`` on first access and then cached; they are
    bitwise the values the build used.  ``dct_screens`` and
    ``fftn_calls`` count the build's PSD screens and full spectra;
    ``from_cache`` says whether this one was loaded from the disk cache
    instead (the counters are then the stored build's).
    """

    grid: UniformGrid
    ext_per_axis: int
    s: int
    clamped: int                     # eigenvalues clamped to zero
    kernel: object = field(repr=False)   # as passed to build_embedding
    # per input coordinate (importance order): slot in the float64 view of
    # the complex half spectrum, and the amplitude that scales the input
    _spec_pos: np.ndarray = field(repr=False)
    _spec_amp: np.ndarray = field(repr=False)
    dct_screens: int
    fftn_calls: int
    from_cache: bool = False

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Per frequency, extended grid shape, negatives clamped to zero."""
        col = _circulant_column(self.kernel, self.grid, self.ext_per_axis)
        return np.maximum(np.fft.fftn(col).real, 0.0)

    @cached_property
    def _canonical(self):
        return _canonical_coordinates(self.eigenvalues.ravel(),
                                      self.ext_per_axis, self.grid.dim)

    @cached_property
    def importance_order(self) -> np.ndarray:
        """Shape (s,), a permutation of range(s)."""
        return self._canonical[1]

    @cached_property
    def _coord_eigs(self) -> np.ndarray:
        """Eigenvalue per canonical coordinate (see _canonical_coordinates)."""
        return self._canonical[0]


@dataclass
class FieldRealization:
    """Lognormal field values on a uniform grid: a = exp(Z), node-exact."""

    level: int
    grid: UniformGrid
    log_values: np.ndarray   # shape (n,)*d
    values: np.ndarray       # exp(log_values), same shape


def _representatives(ext: int, dim: int, idx: type = np.intp):
    """One flat frequency per self-conjugate frequency or pair {k, -k}:
    the smaller flat index, carrying 1 or 2 (cosine, sine) adjacent
    coordinates.  Returns the representatives and their conjugates (as
    ``idx``, which must hold ext^dim) and their coordinate counts (int8),
    in ascending frequency index."""
    # flat index of the conjugate frequency -k (mod ext), axis by axis
    neg = (-np.arange(ext, dtype=idx)) % ext
    conj = np.zeros((ext,) * dim, dtype=idx)
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = ext
        conj += (neg * ext ** (dim - 1 - ax)).reshape(shape)
    conj = conj.ravel()
    flat = np.arange(conj.size, dtype=idx)
    keep = conj >= flat
    rep, rep_conj = flat[keep], conj[keep]
    return rep, rep_conj, (rep_conj != rep) + np.int8(1)


def _ranking(neg_eigs: np.ndarray, count: np.ndarray, idx: type = np.intp):
    """Rank representatives by descending eigenvalue, stably, from their
    negated eigenvalues ``neg_eigs``.

    Expanding them ranks coordinates stably too: a representative's
    coordinates share one eigenvalue.  Returns the order, the ranked
    counts and, per ranked representative, the input index past its
    coordinates (as ``idx``).
    """
    order = np.argsort(neg_eigs, kind="stable")
    count = count[order]
    return order, count, np.cumsum(count, dtype=idx)


def _canonical_coordinates(eigs_flat: np.ndarray, ext: int, dim: int):
    """The eigenvalue per canonical coordinate and the importance order.

    Canonical order: ascending frequency index, one coordinate for a
    self-conjugate frequency (-k == k mod ext on every axis), a cosine
    then a sine coordinate for the smaller flat index of each pair
    {k, -k}, none for its partner.  Input coordinates are ranked by
    descending eigenvalue, ties broken by canonical index.
    """
    rep, _, count = _representatives(ext, dim)
    rep_eigs = eigs_flat[rep]
    order, ranked, ends = _ranking(-rep_eigs, count)
    first = np.cumsum(count) - count
    importance = np.repeat(first[order], ranked)
    importance[ends[ranked == 2] - 1] += 1          # sine coordinates
    return np.repeat(rep_eigs, count), importance


def _slot_count(ext: int, dim: int) -> int:
    """Slots in the float64 view of the half spectrum."""
    return 2 * (ext // 2 + 1) * ext ** (dim - 1)


def _slot_type(ext: int, dim: int) -> type:
    """Index type of the half-spectrum slots: ``int32`` where they fit."""
    return np.int32 if _slot_count(ext, dim) <= 2**31 else np.intp


def _spectrum_map(eigs_flat: np.ndarray, ext: int, dim: int):
    """Per input coordinate, its half-spectrum slot and amplitude.

    Inputs follow the importance order of ``_canonical_coordinates``.
    Returns each input's slot in the float64 view of the half spectrum
    and the amplitude that scales it.  The half spectrum keeps ext//2 + 1
    bins of the last frequency axis and stores the axes in reverse
    order, shape (ext//2+1,) + (ext,)*(dim-1), so the inverse FFT over
    the first frequency axis runs along contiguous memory.

    A pair lands on whichever of k, -k lies in the half spectrum; from -k
    its sine amplitude changes sign.  ``irfft`` counts a bin strictly
    inside the last axis twice (it and its mirror), so such a pair gets
    sqrt(lambda/2).  On the planes k_last in {0, ext/2} both k and -k are
    stored and ``irfft`` keeps only the real part of the leading-axes
    transform, so the pair fills k alone with sqrt(2 lambda).  The factor
    sqrt(s) undoes the 1/s of the inverse transforms.

    ``eigs_flat`` is spent: its buffer takes the amplitudes.  Index
    arithmetic runs in 32 bits where the slots fit, and each array is
    dropped once spent, so at s = 2^20 the map holds at most about 18 MiB
    next to the 8 MiB of ``eigs_flat``.
    """
    half = ext // 2 + 1
    s = ext**dim
    n_lead = ext ** (dim - 1)
    idx = _slot_type(ext, dim)
    rep, rep_conj, count = _representatives(ext, dim, idx)
    rep_eigs = eigs_flat[rep]

    # half-spectrum slot: k itself, or -k when k_last is past ext/2
    lead, last = np.divmod(rep, ext)
    del rep
    mirrored = last >= half
    lead[mirrored] = rep_conj[mirrored] // ext
    del rep_conj
    last[mirrored] = ext - last[mirrored]
    # amplitude sqrt(s * weight * lambda), the products in that order
    amp_rep = np.where((last == 0) | (last == ext // 2), 2.0, 0.5)
    amp_rep[count == 1] = 1.0                      # self-conjugate
    amp_rep *= s
    amp_rep *= rep_eigs
    np.sqrt(amp_rep, out=amp_rep)
    # flat index of the leading frequency axes in reverse order
    rev_lead = np.arange(n_lead, dtype=idx).reshape((ext,) * (dim - 1)).T.ravel()
    slot = rev_lead[lead]
    del lead
    last *= n_lead
    slot += last
    del last

    order, count, ends = _ranking(np.negative(rep_eigs, out=rep_eigs), count, idx)
    del rep_eigs
    amp_rep = amp_rep[order]
    slot = slot[order]
    mirrored = mirrored[order]
    del order
    slot *= 2
    # a ranked representative's inputs run from ends - count (its cosine,
    # or its only coordinate) to ends - 1 (its sine)
    amp, pos = eigs_flat, np.empty(s, dtype=idx)
    at = ends
    at -= count
    amp[at] = amp_rep
    pos[at] = slot
    at += count
    at -= 1
    amp_rep[mirrored] *= -1.0                  # mirrored reps are pairs
    slot += count
    slot -= 1                                  # a sine is an imaginary part
    amp[at] = amp_rep
    pos[at] = slot
    return pos, amp


def _lag_block(kernel, grid: UniformGrid, m: int,
               corner: Optional[np.ndarray] = None) -> np.ndarray:
    """The kernel on the lag block [0, m)^d (lags in units of the spacing).

    Values are computed entry by entry, so the block of a smaller
    extension is bitwise the corner of a larger one: entries inside
    ``corner`` are copied from it, not evaluated again.  In 2-D only lags
    i <= j are evaluated and mirrored, since a^2 + b^2 == b^2 + a^2
    bitwise; in 3-D reordering the three squares changes the rounding.
    """
    dim = grid.dim
    lag = np.arange(m) * grid.spacing
    new = np.ones((m,) * dim, dtype=bool)
    block = np.empty((m,) * dim)
    if corner is not None:
        inner = (slice(corner.shape[0]),) * dim
        new[inner] = False
        block[inner] = corner
    if dim == 2:
        new &= np.tri(m, dtype=bool).T             # i <= j
    sel = np.nonzero(new)
    if dim == 1:
        dist = lag[sel[0]]
    else:
        dist = np.sqrt(sum(lag[i] ** 2 for i in sel))
    if callable(kernel):
        block[sel] = np.asarray(kernel(dist), dtype=float)
    else:
        block[sel] = matern_cov(kernel, dist)
    if dim == 2:
        lower = np.tril_indices(m, -1)
        block[lower] = block.T[lower]
    return block


def _mirror(block: np.ndarray, ext: int,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """The circulant column of a lag block: lag l reads min(l, ext - l).

    Written into ``out`` (shape (ext,)*d, any dtype) when given, without
    temporaries: per axis, the column holds lags 0 .. m-1, then m-2 down
    to 1 (m = ext/2 + 1 the block's length).
    """
    m = block.shape[0]
    if out is None:
        out = np.empty((ext,) * block.ndim)
    halves = ((slice(0, m), slice(None)), (slice(m, None), slice(m - 2, 0, -1)))
    for parts in itertools.product(halves, repeat=block.ndim):
        dst, src = zip(*parts)
        out[dst] = block[src]
    return out


def _circulant_column(kernel, grid: UniformGrid, ext: int) -> np.ndarray:
    """First column of the nested circulant extension of the covariance.

    The folded lag min(l, ext - l) takes ext//2 + 1 values per axis, so
    the kernel is evaluated on that corner block and mirrored out.
    """
    return _mirror(_lag_block(kernel, grid, ext // 2 + 1), ext)


# A screened eigenvalue differs from the FFT's by rounding, a small multiple
# of 1e-16 times the column's l1 norm (below 3e-16 on the preset grids).
_SCREEN_MARGIN = 1e-12


def _screen_rejects(block: np.ndarray, tol: float) -> bool:
    """Whether the extension of ``block`` is surely not PSD up to ``tol``.

    The DCT-I of the lag block gives the eigenvalues of its even
    circulant extension, at frequencies [0, m)^d; the others mirror
    them.  Per axis it is numpy's ``hfft`` of length 2(m - 1), whose
    first m outputs are kept (scipy's ``dctn`` would add scipy.fft to
    every start-up).  It rejects only where the FFT's eigenvalues, each
    within the margin of these, would reject too; NaN never rejects, so
    the FFT decides.
    """
    m = block.shape[0]
    mult = np.full(m, 2.0)                   # copies of a lag in the column
    mult[[0, -1]] = 1.0
    eigs, l1 = block, np.abs(block)
    for ax in range(block.ndim):
        eigs = np.fft.hfft(eigs, n=2 * (m - 1), axis=ax)
        eigs = eigs[(slice(None),) * ax + (slice(m),)]
        l1 = mult @ l1                       # sums out one axis
    margin = _SCREEN_MARGIN * l1
    return bool(eigs.min() + margin < -tol * (eigs.max() + margin))


def build_embedding(kernel, grid: UniformGrid, tol: float = 1e-13,
                    max_attempts: int = 12) -> CirculantEmbedding:
    """Build the circulant embedding of the covariance on ``grid``.

    ``kernel`` is MaternParams, or any callable mapping an array of
    distances to covariance values elementwise (homogeneous kernels
    only).

    Starts from the minimal extension 2*(n-1) per axis and doubles the
    extension until the spectrum is nonnegative up to ``tol`` (relative
    to the largest eigenvalue).  Eigenvalues in [-tol*max, 0) are clamped
    to zero; anything more negative triggers another doubling.  The
    kernel is evaluated once per lag; each attempt is screened by a
    DCT-I of the lag block, and the full FFT runs only where the screen
    cannot reject, so every outcome is the one the FFT gives.

    A MaternParams embedding is first looked up in the disk cache (see
    ``_cache_file``), and a built one is stored there.  The cache is
    optional, so any failure to read, validate or write a file is passed
    over silently: the embedding is then built, as without a cache, and
    the run's outputs and exit code stay what they would be.  Callable
    kernels are never cached.

    Raises PaddingExhausted after ``max_attempts`` doublings.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    path = None
    if isinstance(kernel, MaternParams):
        try:
            path = _cache_file(kernel, grid, tol, max_attempts)
            return _load(path, kernel, grid)
        except Exception:       # absent, unreadable or invalid: build it
            pass
    emb = _build(kernel, grid, tol, max_attempts)
    if path is not None:
        try:
            _store(path, emb)
        except Exception:       # a cache that cannot be written is skipped
            pass
    return emb


def _build(kernel, grid: UniformGrid, tol: float,
           max_attempts: int) -> CirculantEmbedding:
    """The doubling search of ``build_embedding``, without the cache."""
    n = grid.points_per_axis
    ext = 2 * (n - 1)
    block = None
    screens = ffts = 0
    for _ in range(max_attempts + 1):
        block = _lag_block(kernel, grid, ext // 2 + 1, block)
        screens += 1
        if not _screen_rejects(block, tol):
            ffts += 1
            # the column goes straight into a complex array that the FFT
            # overwrites: no real copy or second complex array is held
            spec = np.zeros((ext,) * grid.dim, dtype=complex)
            _mirror(block, ext, out=spec.real)
            eigs = np.fft.fftn(spec, out=spec).real
            if eigs.min() >= -tol * eigs.max():
                clamped = int(np.count_nonzero(eigs < 0))
                eigs = np.maximum(eigs, 0.0).ravel()
                del spec, block          # spent: free them before the map
                pos, amp = _spectrum_map(eigs, ext, grid.dim)   # amp is eigs
                return CirculantEmbedding(
                    grid=grid, ext_per_axis=ext, s=ext**grid.dim,
                    clamped=clamped, kernel=kernel, _spec_pos=pos,
                    _spec_amp=amp, dct_screens=screens, fftn_calls=ffts)
        ext *= 2
    raise PaddingExhausted(
        f"no positive semidefinite extension within {max_attempts} doublings "
        f"(grid n={n}, dim={grid.dim}, kernel={kernel})"
    )


# -- disk cache of Matern embeddings -------------------------------------------

# bump when the file layout changes
_CACHE_FORMAT = 1


def _cache_file(kernel: MaternParams, grid: UniformGrid, tol: float,
                max_attempts: int) -> Path:
    """The cache file of an embedding, named by the sha256 of everything
    that determines it: the arguments, the file layout, the numpy and
    scipy versions, and the source of this module and of ``covariance``.

    The directory is ``$XDG_CACHE_HOME/mlqmcgrad``, or
    ``~/.cache/mlqmcgrad`` when that variable is unset or not absolute.
    """
    key = (_CACHE_FORMAT, kernel, grid, tol, max_attempts,
           np.__version__, scipy.__version__)
    digest = hashlib.sha256(repr(key).encode())
    for source in (__file__, covariance.__file__):
        digest.update(Path(source).read_bytes())
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = Path.home() / ".cache"
    return Path(root, "mlqmcgrad", f"embedding-{digest.hexdigest()}.npy")


def _store(path: Path, e: CirculantEmbedding):
    """Write ``e`` as three .npy blocks (build facts, slots, amplitudes)
    to a temp file beside ``path``, then rename it.  The arrays go to the
    file as they are, without a copy."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, np.array([e.ext_per_axis, e.s, e.clamped,
                                  e.dct_screens, e.fftn_calls], dtype=np.int64))
            np.save(fh, e._spec_pos)
            np.save(fh, e._spec_amp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_block(fh, dtype, count: int) -> np.ndarray:
    """The next .npy block of ``fh``, which must hold ``count`` entries
    of ``dtype``: else ValueError, raised before its data are read."""
    np.lib.format.read_magic(fh)
    shape, _, stored = np.lib.format.read_array_header_1_0(fh)
    dtype = np.dtype(dtype)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if shape != (count,) or stored != dtype or left < count * dtype.itemsize:
        raise ValueError("cached embedding does not match its key")
    return np.fromfile(fh, dtype=dtype, count=count)


def _load(path: Path, kernel: MaternParams, grid: UniformGrid) -> CirculantEmbedding:
    """The embedding stored at ``path``; ValueError unless its shapes,
    types and slot range are those a build on ``grid`` yields."""
    dim = grid.dim
    with open(path, "rb") as fh:
        ext, s, clamped, screens, ffts = map(int, _read_block(fh, np.int64, 5))
        if ext < 2 * (grid.points_per_axis - 1) or s != ext**dim:
            raise ValueError("cached embedding does not match its key")
        pos = _read_block(fh, _slot_type(ext, dim), s)
        amp = _read_block(fh, np.float64, s)
    if pos.min() < 0 or pos.max() >= _slot_count(ext, dim):
        raise ValueError("cached embedding does not match its key")
    # Leave the allocator as a build leaves it, by freeing a block the
    # size of the full spectrum a build frees (never touched, so it costs
    # no memory).  glibc raises its mmap and trim thresholds when it
    # frees a block that large; left low, they make each level-5 sample
    # of problem 2 return its arrays to the system and fault them in
    # again: 1,000-1,600 minor faults per sample against about 100, and
    # 3-4 ms more per sample.
    spectrum = np.empty((ext,) * dim, dtype=complex)
    del spectrum
    return CirculantEmbedding(
        grid=grid, ext_per_axis=ext, s=s, clamped=clamped, kernel=kernel,
        _spec_pos=pos, _spec_amp=amp, dct_screens=screens, fftn_calls=ffts,
        from_cache=True)


def _check_inputs(e: CirculantEmbedding, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (e.s,):
        raise ValueError(f"expected input of length s={e.s}, got {y.shape}")
    return y


def sample_field(e: CirculantEmbedding, zbar: np.ndarray, y: np.ndarray,
                 level: int = 0) -> FieldRealization:
    """Draw the lognormal field for one vector of standard normals.

    ``y`` is consumed in importance order (coordinate 0 drives the
    largest-eigenvalue direction).  Computes B y from the Hermitian half
    spectrum -- B is never materialized: one scatter of the scaled
    inputs, an inverse FFT over each leading frequency axis that keeps
    only the first n outputs (the physical grid), and one real inverse
    FFT over the last axis.  Then adds the mean and exponentiates.  The
    half spectrum is the one s-sized array it allocates: the scatter
    runs in blocks and the leading-axis FFTs overwrite the spectrum.

    ``zbar`` holds the mean log-field's values at ``e.grid.points()``
    (C-ordered, any shape with that many entries), as ``MeanField.at``
    returns them; a hierarchy evaluates them once per level.
    """
    y = _check_inputs(e, y)
    dim, ext = e.grid.dim, e.ext_per_axis
    n = e.grid.points_per_axis
    # frequency axes in reverse order, see _spectrum_map
    spec_shape = (ext // 2 + 1,) + (ext,) * (dim - 1)
    spec = np.zeros(2 * math.prod(spec_shape))
    for a in range(0, e.s, _BLOCK):
        # intp indices take numpy's fast scatter; a block keeps them small
        block = slice(a, a + _BLOCK)
        spec[e._spec_pos[block].astype(np.intp)] = e._spec_amp[block] * y[block]
    z = spec.view(complex).reshape(spec_shape)
    for ax in range(dim - 1, 0, -1):
        z = np.fft.ifft(z, axis=ax, out=z)[(slice(None),) * ax + (slice(n),)]
    z = np.fft.irfft(z, n=ext, axis=0)[:n]

    log_vals = np.ascontiguousarray(z.T)
    log_vals += np.reshape(zbar, (n,) * dim)
    return FieldRealization(level=level, grid=e.grid,
                            log_values=log_vals, values=np.exp(log_vals))


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
    those points (``eval_field``) without locating them again.
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
    # scaled by n - 1, not divided by the spacing: the quotient can round
    # a point on a cell face off it, and weight a far corner by ~1e-15
    t = np.clip(x_arr, 0.0, 1.0) * (n - 1)
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


def eval_field(f: FieldRealization, st: Stencil) -> np.ndarray:
    """Multilinear interpolation of the field at the points of ``st``.

    ``st`` must be built for ``f.grid`` (else ValueError).  The
    interpolation is a convex combination of the 2^d surrounding vertex
    values, exact at grid nodes; values stay inside the nodal range.
    """
    if st.grid != f.grid:
        raise ValueError(f"stencil built for {st.grid}, field lives on {f.grid}")
    terms = f.values.ravel()[st.index]
    terms *= st.weight
    # one corner at a time from zero, in a fixed (ascending) corner order
    out = np.zeros(terms.shape[1])
    for term in terms:
        out += term
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
