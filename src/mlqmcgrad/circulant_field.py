"""Circulant-embedding sampling of a lognormal field on uniform grids.

The covariance matrix of a stationary Gaussian field on a uniform
rectilinear grid is (block-)Toeplitz and embeds into a (block-)circulant
matrix whose eigenvalues come out of one multidimensional FFT.  From the
real orthogonal eigen-factorization C = G Lambda G^T one gets exact field
samples Z = B Y + Zbar in O(s log s) per sample, where B is the first m
rows of G sqrt(Lambda) and s is the extended (padded) grid size.

The extension doubles until the embedding is positive semidefinite.  A
Matern kernel that needs padding is also tried, at each rejected size,
times a smooth cutoff that keeps it exact inside the domain and makes
its periodization smooth (``build_embedding``); its period then stays
fixed as the grid is refined, where the plain kernel's grows.  Each
candidate kernel is tested by one full FFT of its circulant column.

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
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import covariance
from .covariance import MaternParams, matern_cov, smooth_cutoff

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
    """The sampling map of the circulant extension of the covariance.

    ``s`` is the stochastic dimension: the number of real standard-normal
    inputs one sample consumes, equal to the extended grid size.  Inputs
    are ranked by descending eigenvalue, ties broken by ascending
    frequency index (cosine before sine).

    Only what sampling reads is kept: per input coordinate, its slot in
    the half spectrum (``int32`` where the slots fit, else ``intp``) and
    its amplitude, 12 s bytes in all (12 MiB at s = 2^20).
    ``periodized`` says whether the search accepted the smoothly
    periodized Matern kernel.  ``fftn_calls`` counts the kernels the
    build tried, one full spectrum each; ``from_cache`` says whether this
    one was loaded from the disk cache instead (the count is then the
    stored build's).
    """

    grid: UniformGrid
    ext_per_axis: int
    s: int
    clamped: int                     # eigenvalues clamped to zero
    periodized: bool
    # per input coordinate (importance order): slot in the float64 view of
    # the complex half spectrum, and the amplitude that scales the input
    _spec_pos: np.ndarray = field(repr=False)
    _spec_amp: np.ndarray = field(repr=False)
    fftn_calls: int
    from_cache: bool = False


@dataclass
class FieldRealization:
    """Lognormal field values on a uniform grid: a = exp(Z), node-exact.

    A block of B realizations carries a leading sample axis: its arrays
    have shape (B,) + (n,)*d.
    """

    level: int
    grid: UniformGrid
    log_values: np.ndarray   # shape (n,)*d, or (B,) + (n,)*d for a block
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


def _ranked_representatives(eigs_flat: np.ndarray, ext: int, dim: int,
                            idx: type = np.intp):
    """The representatives of ``_representatives``, their conjugates,
    eigenvalues (read from the clamped spectrum ``eigs_flat``) and
    coordinate counts, ranked by descending eigenvalue, stably.

    Expanding them ranks coordinates stably too: a representative's
    coordinates share one eigenvalue.  This is the importance order of
    the inputs.
    """
    rep, rep_conj, count = _representatives(ext, dim, idx)
    rep_eigs = eigs_flat[rep]
    # negated in place for the sort and back: -(-x) is x bitwise
    order = np.argsort(np.negative(rep_eigs, out=rep_eigs), kind="stable")
    np.negative(rep_eigs, out=rep_eigs)
    # one array at a time, each freed once its ranked copy is made
    rep = rep[order]
    rep_conj = rep_conj[order]
    rep_eigs = rep_eigs[order]
    count = count[order]
    return rep, rep_conj, rep_eigs, count


def _slot_count(ext: int, dim: int) -> int:
    """Slots in the float64 view of the half spectrum."""
    return 2 * (ext // 2 + 1) * ext ** (dim - 1)


def _slot_type(ext: int, dim: int) -> type:
    """Index type of the half-spectrum slots: ``int32`` where they fit."""
    return np.int32 if _slot_count(ext, dim) <= 2**31 else np.intp


def _spectrum_map(eigs_flat: np.ndarray, ext: int, dim: int):
    """Per input coordinate, its half-spectrum slot and amplitude.

    Inputs are ranked by ``_ranked_representatives``, a pair's cosine
    before its sine.
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
    dropped once spent, so at s = 2^20 the map holds at most about 17 MiB
    next to the 8 MiB of ``eigs_flat``.
    """
    half = ext // 2 + 1
    s = ext**dim
    n_lead = ext ** (dim - 1)
    idx = _slot_type(ext, dim)
    rep, rep_conj, rep_eigs, count = _ranked_representatives(eigs_flat, ext, dim, idx)

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
    del rep_eigs
    np.sqrt(amp_rep, out=amp_rep)
    # flat index of the leading frequency axes in reverse order
    rev_lead = np.arange(n_lead, dtype=idx).reshape((ext,) * (dim - 1)).T.ravel()
    slot = rev_lead[lead]
    del lead
    last *= n_lead
    slot += last
    del last
    slot *= 2

    # a ranked representative's inputs run from ends - count (its cosine,
    # or its only coordinate) to ends - 1 (its sine)
    amp, pos = eigs_flat, np.empty(s, dtype=idx)
    at = np.cumsum(count, dtype=idx)
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


def _lag_distance(grid: UniformGrid, m: int) -> np.ndarray:
    """Distances of the lags [0, m)^d (in units of the spacing), summing
    the squares in axis order."""
    lag = np.arange(m) * grid.spacing
    if grid.dim == 1:
        return lag
    return np.sqrt(sum(lag[i] ** 2 for i in np.indices((m,) * grid.dim)))


def _lag_block(kernel, grid: UniformGrid, m: int) -> np.ndarray:
    """The kernel on the lag block [0, m)^d (lags in units of the spacing)."""
    dist = _lag_distance(grid, m)
    if callable(kernel):
        return np.asarray(kernel(dist), dtype=float)
    return matern_cov(kernel, dist)


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


def build_embedding(kernel, grid: UniformGrid, tol: float = 1e-13,
                    max_attempts: int = 12) -> CirculantEmbedding:
    """Build the circulant embedding of the covariance on ``grid``.

    ``kernel`` is MaternParams, or any callable mapping an array of
    distances to covariance values elementwise (homogeneous kernels
    only).

    Starts from the minimal extension 2*(n-1) per axis and doubles the
    extension until the spectrum is nonnegative up to ``tol`` (relative
    to the largest eigenvalue).  Eigenvalues in [-tol*max, 0) are clamped
    to zero; anything more negative rejects the attempt.  At each
    extension the kernel itself is tried first.  Where it is rejected, a
    Matern kernel is tried once more at the same extension, smoothly
    periodized (see ``_candidates``), before the extension doubles; the
    first accepted candidate is the embedding, and ``periodized`` records
    which one it was.  Each candidate is tested by one full FFT of its
    circulant column, and the build is paid for once per discretization:
    later runs load it from the cache.

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


def _periodized(kernel, grid: UniformGrid, ext: int) -> Optional[float]:
    """Where a Matern ``kernel`` is smoothly periodized at extension
    ``ext``: the radius, half the period ext * spacing, from which the
    cutoff is 0; it is 1 up to sqrt(d), the diameter of the unit cube.
    None for a callable kernel, or where half the period is not past
    sqrt(d)."""
    if not isinstance(kernel, MaternParams):
        return None
    outer = ext * grid.spacing / 2
    return outer if outer > math.sqrt(grid.dim) else None


def _candidates(kernel, grid: UniformGrid, ext: int, block: np.ndarray):
    """The kernels tried at extension ``ext``, each as whether it is the
    periodized one and its lag block: ``kernel`` itself, then its smoothly
    periodized form where there is one.  The periodized block reuses
    ``block``'s Matern values; inside the domain the cutoff is exactly 1,
    so there it is ``block`` bitwise and the sampled field keeps the
    Matern law on the grid."""
    yield False, block
    outer = _periodized(kernel, grid, ext)
    if outer is not None:
        dist = _lag_distance(grid, block.shape[0])
        yield True, block * smooth_cutoff(dist, math.sqrt(grid.dim), outer)


def _search(kernel, grid: UniformGrid, tol: float = 1e-13,
            max_attempts: int = 12):
    """The search of ``build_embedding``: whether it accepted the
    periodized kernel, the extension and spectrum (a view of the complex
    FFT output), and the kernels it tried, one full FFT each.  Its
    defaults are ``build_embedding``'s."""
    n = grid.points_per_axis
    ext = 2 * (n - 1)
    ffts = 0
    for _ in range(max_attempts + 1):
        block = _lag_block(kernel, grid, ext // 2 + 1)
        for periodized, found_block in _candidates(kernel, grid, ext, block):
            ffts += 1
            # the column goes straight into a complex array that the FFT
            # overwrites: no real copy or second complex array is held
            spec = np.zeros((ext,) * grid.dim, dtype=complex)
            _mirror(found_block, ext, out=spec.real)
            eigs = np.fft.fftn(spec, out=spec).real
            if eigs.min() >= -tol * eigs.max():
                return periodized, ext, eigs, ffts
            del spec, eigs          # freed before the next one is allocated
        ext *= 2
    raise PaddingExhausted(
        f"no positive semidefinite extension within {max_attempts} doublings "
        f"(grid n={n}, dim={grid.dim}, kernel={kernel})"
    )


def _build(kernel, grid: UniformGrid, tol: float,
           max_attempts: int) -> CirculantEmbedding:
    """The embedding ``_search`` accepts, without the cache.  The lag
    blocks are freed with the search, and the complex spectrum once its
    clamped copy is taken, before the map."""
    periodized, ext, eigs, ffts = _search(kernel, grid, tol, max_attempts)
    clamped = int(np.count_nonzero(eigs < 0))
    eigs = np.maximum(eigs, 0.0).ravel()
    pos, amp = _spectrum_map(eigs, ext, grid.dim)   # amp is eigs
    return CirculantEmbedding(
        grid=grid, ext_per_axis=ext, s=ext**grid.dim, clamped=clamped,
        periodized=periodized, _spec_pos=pos, _spec_amp=amp, fftn_calls=ffts)


# -- disk cache of Matern embeddings -------------------------------------------

# bump when the file layout changes
_CACHE_FORMAT = 3


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
    to a temp file beside ``path``, then rename it.  The build facts end
    with 1 for a periodized kernel, else 0.  The arrays go to the file as
    they are, without a copy."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, np.array([e.ext_per_axis, e.s, e.clamped, e.fftn_calls,
                                  e.periodized], dtype=np.int64))
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
    types, periodized flag and slot range are those a build on ``grid``
    can yield."""
    dim = grid.dim
    with open(path, "rb") as fh:
        ext, s, clamped, ffts, periodized = map(
            int, _read_block(fh, np.int64, 5))
        if (ext < 2 * (grid.points_per_axis - 1) or s != ext**dim
                or periodized not in (0, 1)
                or periodized and _periodized(kernel, grid, ext) is None):
            raise ValueError("cached embedding does not match its key")
        pos = _read_block(fh, _slot_type(ext, dim), s)
        amp = _read_block(fh, np.float64, s)
    if pos.min() < 0 or pos.max() >= _slot_count(ext, dim):
        raise ValueError("cached embedding does not match its key")
    return CirculantEmbedding(
        grid=grid, ext_per_axis=ext, s=s, clamped=clamped,
        periodized=bool(periodized), _spec_pos=pos, _spec_amp=amp,
        fftn_calls=ffts, from_cache=True)


def _check_inputs(e: CirculantEmbedding, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != e.s:
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

    ``y`` of shape (B, s) draws a block of B fields, with one spectrum
    per sample and every stage run once over the block; each field is
    bitwise the one its row draws alone.

    ``zbar`` holds the mean log-field's values at ``e.grid.points()``
    (C-ordered, any shape with that many entries), as ``MeanField.at``
    returns them; a hierarchy evaluates them once per level.
    """
    y = _check_inputs(e, y)
    dim, ext = e.grid.dim, e.ext_per_axis
    n = e.grid.points_per_axis
    lead = y.shape[:-1]                    # () or (B,)
    # frequency axes in reverse order, see _spectrum_map
    spec_shape = (ext // 2 + 1,) + (ext,) * (dim - 1)
    spec = np.zeros(lead + (2 * math.prod(spec_shape),))
    for a in range(0, e.s, _BLOCK):
        # intp indices take numpy's fast scatter; a block keeps them small.
        # Indexing the transposes scatters along the slot axis, and is
        # numpy's 1-D fast path when there is no sample axis
        block = slice(a, a + _BLOCK)
        spec.T[e._spec_pos[block].astype(np.intp)] = (e._spec_amp[block] * y[..., block]).T
    z = spec.view(complex).reshape(lead + spec_shape)
    first = len(lead)                      # the first frequency axis
    for ax in range(first + dim - 1, first, -1):
        z = np.fft.ifft(z, axis=ax, out=z)[(slice(None),) * ax + (slice(n),)]
    z = np.fft.irfft(z, n=ext, axis=first)[(slice(None),) * first + (slice(n),)]

    # the spatial axes back in forward order, behind the sample axis
    log_vals = np.ascontiguousarray(
        z.transpose(tuple(range(first)) + tuple(range(z.ndim - 1, first - 1, -1))))
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
    values, exact at grid nodes; values stay inside the nodal range.  A
    block of fields gives one row of values per sample.
    """
    if st.grid != f.grid:
        raise ValueError(f"stencil built for {st.grid}, field lives on {f.grid}")
    lead = f.values.shape[:f.values.ndim - f.grid.dim]
    # gathered node-major, a row of B values per grid node for a block of
    # B fields (numpy's 1-D fast path for one field), and returned as a
    # (B, npts) view of that layout
    terms = f.values.reshape(lead + (-1,)).T[st.index]
    terms *= st.weight.reshape(st.weight.shape + (1,) * len(lead))
    # one corner at a time from zero, in a fixed (ascending) corner order
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out.T


def restrict_to_coarse(f: FieldRealization, coarse: UniformGrid) -> FieldRealization:
    """Restrict a field to a nested coarser grid (exact at shared nodes).

    The restricted realization keeps the fine field's nodal values (both
    a and log a) at the coarse nodes bitwise; evaluation in between uses
    coarse-cell multilinear interpolation.  A block of fields is
    restricted in one slice over its spatial axes.
    """
    if coarse.dim != f.grid.dim:
        raise NestingViolation("coarse grid dimension differs")
    nf, nc = f.grid.points_per_axis, coarse.points_per_axis
    if (nf - 1) % (nc - 1) != 0:
        raise NestingViolation(
            f"coarse grid ({nc} per axis) is not nested in fine grid ({nf} per axis)"
        )
    stride = (nf - 1) // (nc - 1)
    sl = (Ellipsis,) + (slice(None, None, stride),) * f.grid.dim
    return FieldRealization(
        level=f.level - 1,
        grid=coarse,
        log_values=f.log_values[sl].copy(),
        values=f.values[sl].copy(),
    )
