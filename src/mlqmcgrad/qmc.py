"""Rank-1 lattice rules with random shifting.

A shifted lattice point is frac(i*z/N + Delta) for a generating vector z
of positive integers.  Points are generated in embedded-sequence order
(dyadic radical inverse), so that the first 2^m sequence points coincide
with the N = 2^m lattice rule as a set: doubling N then reuses every
point already evaluated.

The inverse standard-normal map takes points from the unit cube to the
Gaussian inputs the field sampler consumes; shifted components are
clamped away from 0 and 1 before the map.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "GeneratingVector",
    "sequence_point",
    "extend_vector",
    "load_generating_vector",
    "default_generating_vector",
    "shift_rng",
]

# length of the blocks in which the normal map runs, so that its
# temporaries stay small next to the s-long input and output
_BLOCK = 2**16

# shifted components are clamped to [_CLAMP_LO, 1 - _CLAMP_LO] before the
# inverse normal CDF; 1 - 2^-53 is the largest double below 1
_CLAMP_LO = 2.0**-53

_DATA_FILE = Path(__file__).parent / "data" / "lattice_default.txt"
# the packaged vector serves the rules with N = 2^DEFAULT_M_MIN .. 2^DEFAULT_M_MAX
DEFAULT_M_MIN = 3
DEFAULT_M_MAX = 12


@dataclass(frozen=True)
class GeneratingVector:
    """Generating vector of a rank-1 lattice rule.

    ``entries`` holds positive integers; the first ``loaded_prefix``
    entries came from a file, the rest from seeded random extension
    (odd integers, coprime with power-of-two point counts).

    Entries lie below ``n_max``, so they are stored as ``int32`` when
    ``n_max <= 2^31`` (4 bytes per entry: 4 MB for the 2^20 entries of
    problem 2's finest level) and as ``int64`` above that.  Products
    with an entry are formed in ``int64``.  With 32-bit spectrum slots
    and blockwise sampling stages besides, a ``p2-mlqmc-L5`` benchmark
    run peaks at about 150 MB resident, against 195 MB with 64-bit
    entries and whole-array stages.
    """

    entries: np.ndarray
    n_max: int = 2**20
    loaded_prefix: int = 0

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.dtype.kind != "i":
            entries = entries.astype(np.int64)
        if entries.size and (entries.min() < 1 or entries.max() >= self.n_max):
            raise ValueError("generating vector entries must lie in [1, n_max)")
        width = np.int32 if self.n_max <= 2**31 else np.int64
        object.__setattr__(self, "entries", entries.astype(width, copy=False))

    def __len__(self) -> int:
        return self.entries.size


def shift_rng(master_seed: int, stream: str, *keys: int) -> np.random.Generator:
    """Counter-style keyed generator: same key, same stream, any order."""
    tokens = [int(master_seed) & 0xFFFFFFFF, zlib.crc32(stream.encode())]
    tokens += [int(k) & 0xFFFFFFFF for k in keys]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tokens)))


def make_shift_set(master_seed: int, level: int, R: int,
                   s: int) -> Iterator[np.ndarray]:
    """Yield R uniform shifts in [0,1)^s one at a time, shift r keyed by
    (seed, level, r): independent across levels, prefix-stable in R.

    Each shift is drawn when it is reached, so a caller that works
    through the shifts in order holds one of them at a time.
    """
    for r in range(R):
        yield shift_rng(master_seed, "shift", level, r).random(s)


def sequence_point(gv: GeneratingVector, k, delta: np.ndarray) -> np.ndarray:
    """Point k of the embedded lattice sequence (k = 0, 1, 2, ...).

    The first 2^m sequence points equal the N = 2^m lattice rule as a
    set; consecutive dyadic blocks refine the rule without discarding
    earlier points.

    With m the bit length of k and rev its m-bit reversal, the radical
    inverse is rev / 2^m, so the lattice part frac(rev * z / 2^m) is
    computed in integers and scaled exactly.  The result equals the
    float form ``((rev / 2^m * z) % 1 + delta) % 1`` bitwise: both sums
    lie in [0, 2), where subtracting 1 is exact.

    ``k`` may also be a 1-D array of B indices, each with its own bit
    length: the points are then the rows of one (B, s) integer product,
    and ``delta`` is one shift of length s or one shift per row, (B, s).
    Each row is bitwise the point of its index alone.
    """
    delta = np.asarray(delta, dtype=float)
    s = delta.shape[-1]
    if len(gv) < s:
        raise ValueError(f"generating vector has {len(gv)} < s = {s} entries")
    ks = [int(i) for i in np.atleast_1d(k)]
    m = np.array([i.bit_length() for i in ks])
    rev = np.array([int(f"{i:b}"[::-1], 2) if i else 0 for i in ks])
    frac = np.multiply(gv.entries[:s], rev[:, None], dtype=np.int64)
    frac &= ((1 << m) - 1)[:, None]
    x = np.multiply(frac, np.ldexp(1.0, -m)[:, None])
    x += delta
    x -= x >= 1.0
    return x if np.ndim(k) else x[0]


def _refine_quantile(y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Two Newton steps on Phi(y) = xi via the scaled complementary erf.

    The library inverse loses absolute accuracy deep in the tails (a few
    1e-6 near xi = 1e-300); Newton with an accurate CDF restores it to
    well below 1e-9 across [1e-300, 1 - 1e-16].
    """
    sqrt2 = np.sqrt(2.0)
    inv_sqrt2pi = 1.0 / np.sqrt(2.0 * np.pi)
    for _ in range(2):
        cdf = 0.5 * erfc(-y / sqrt2)
        pdf = inv_sqrt2pi * np.exp(-0.5 * y * y)
        y = y - (cdf - xi) / pdf
    return y


def _ndtri_refined(xi: np.ndarray, lo: float = 0.0) -> np.ndarray:
    # work on the lower tail only: 1 - xi is exact for xi >= 0.5, and
    # absolute accuracy near 1 is only reachable through the symmetry;
    # q = max(min(xi, 1 - xi), lo) also clamps both ends of the cube.
    # Blocks keep every temporary small; only y is full length.
    xi = np.atleast_1d(xi)
    y = np.empty(xi.shape)
    x_flat, y_flat = xi.reshape(-1), y.reshape(-1)
    for a in range(0, x_flat.size, _BLOCK):
        xb, yb = x_flat[a:a + _BLOCK], y_flat[a:a + _BLOCK]
        ndtri(_lower_quantile(xb, lo, out=yb), out=yb)
        tail = np.flatnonzero(yb < -4.0)
        if tail.size:
            yb[tail] = _refine_quantile(yb[tail], _lower_quantile(xb[tail], lo))
        # yb <= 0 here; the upper half (xi > 0.5) takes the positive sign
        np.copysign(yb, xb - 0.5, out=yb)
    return y


def _lower_quantile(xi: np.ndarray, lo: float,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    q = np.subtract(1.0, xi, out=out)
    np.minimum(q, xi, out=q)
    return np.maximum(q, lo, out=q)


def cube_to_normal(xi: np.ndarray) -> np.ndarray:
    """Clamp shifted cube points to [2^-53, 1 - 2^-53], then map to normals."""
    return _ndtri_refined(np.asarray(xi, dtype=float), _CLAMP_LO)


def extend_vector(gv: GeneratingVector, s_needed: int,
                  seed: Union[int, Sequence[int]]) -> GeneratingVector:
    """Extend a generating vector to ``s_needed`` entries.

    Appended entries are odd integers uniform on the odd values of
    [1, n_max - 1], a pure function of ``seed``; the prefix is untouched.
    Vectors already long enough are returned unchanged (points only ever
    read the first s components).
    """
    if s_needed <= len(gv):
        return gv
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    entries = np.empty(s_needed, dtype=gv.entries.dtype)
    entries[:len(gv)] = gv.entries
    # drawn in the entries' own width: for a range below 2^32, as here
    # whenever that width is 32 bits, numpy draws the same stream in 32
    # and in 64 bits
    tail = entries[len(gv):]
    tail[...] = rng.integers(0, gv.n_max // 2, size=tail.size, dtype=tail.dtype)
    tail *= 2
    tail += 1
    return replace(gv, entries=entries)


def load_generating_vector(path: Union[str, Path], n_max: int = 2**20) -> GeneratingVector:
    """Parse a generating-vector file.

    Lines hold either a single integer or an "index value" pair (the
    published lattice files use the two-column form); lines starting
    with '#' are comments.  Two-column entries must arrive in index
    order starting at 1.  Entries are unsigned decimal integers of at
    most 18 digits, and words are separated by ASCII whitespace.  An
    error names the first line at fault.

    The file is parsed in one vectorized pass over its bytes: a word is
    a run of non-whitespace, its line is one past the newlines before
    it, and its value is formed from its right-aligned digits.
    """
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    # whitespace as bytes.split() sees it, padded on both ends: the
    # difference is -1 where a word starts and 1 just past its end
    gap = np.ones(raw.size + 2, dtype=np.int8)
    gap[1:-1] = (raw == 32) | ((raw >= 9) & (raw <= 13))
    edge = np.diff(gap)
    starts, stops = np.flatnonzero(edge < 0), np.flatnonzero(edge > 0)
    line = np.searchsorted(np.flatnonzero(raw == 10), starts) + 1
    head = np.diff(line, prepend=0) > 0            # first word of its line
    # a line whose first word starts with '#' drops out whole
    keep = (raw[starts[head]] != ord("#"))[np.cumsum(head) - 1]
    starts, stops, line, head = starts[keep], stops[keep], line[keep], head[keep]
    if not starts.size:
        raise ValueError(f"{path}: no generating vector entries found")

    # the last 19 bytes of each word, right-aligned; one more than an
    # entry may have, so an overlong word shows
    width = int(min((stops - starts).max(), 19))
    at = stops[:, None] - np.arange(width, 0, -1)
    pad = at < starts[:, None]
    digits = raw[np.maximum(at, 0)].astype(np.int64) - ord("0")
    digits[pad] = 0
    bad_word = ((digits < 0) | (digits > 9)).any(axis=1) | (stops - starts > 18)
    value = digits @ 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)

    first = np.flatnonzero(head)                   # per data line
    ncols = np.diff(first, append=starts.size)
    index = value[first]
    bad_cols = ncols > 2
    bad_int = np.logical_or.reduceat(bad_word, first)
    bad_index = (ncols == 2) & (index != np.arange(1, first.size + 1))
    bad = bad_cols | bad_int | bad_index
    if bad.any():
        k = int(np.argmax(bad))
        where = f"{path}:{line[first[k]]}"
        if bad_cols[k]:
            raise ValueError(f"{where}: expected 1 or 2 columns")
        if bad_int[k]:
            raise ValueError(f"{where}: expected unsigned decimal integers "
                             f"of at most 18 digits")
        raise ValueError(f"{where}: index {index[k]}, expected {k + 1}")
    return GeneratingVector(
        entries=value[first + ncols - 1], n_max=n_max, loaded_prefix=first.size)


def default_generating_vector() -> GeneratingVector:
    """The packaged default lattice generating vector.

    Built by ``python -m mlqmcgrad.cbc`` for N = 2^3 .. 2^12 points (see
    the file's header); its ``n_max`` is the top of that range.
    """
    return load_generating_vector(_DATA_FILE, n_max=2**DEFAULT_M_MAX)
