"""Rank-1 lattice rules with random shifting.

A shifted lattice point is frac(i*z/N + Delta) for a generating vector z
of positive integers.  Points are also exposed in embedded-sequence order
(dyadic radical inverse), so that the first 2^m sequence points coincide
with the N = 2^m lattice rule as a set: doubling N then reuses every
point already evaluated.

The inverse standard-normal map takes points from the unit cube to the
Gaussian inputs the field sampler consumes; shifted components are
clamped away from 0 and 1 before the map.
"""
from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "GeneratingVector",
    "lattice_point",
    "sequence_point",
    "radical_inverse",
    "to_normal",
    "extend_vector",
    "load_generating_vector",
    "default_generating_vector",
    "shift_rng",
]

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
    ``n_min``/``n_max`` bound the point counts the loaded prefix is
    meant for; using other counts only triggers a warning.
    """

    entries: np.ndarray
    n_min: int = 8
    n_max: int = 2**20
    loaded_prefix: int = 0

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", entries)
        if entries.size and (entries.min() < 1 or entries.max() >= self.n_max):
            raise ValueError("generating vector entries must lie in [1, n_max)")

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


def lattice_point(gv: GeneratingVector, N: int, i: int,
                  delta: np.ndarray) -> np.ndarray:
    """Point i of the N-point shifted rule, i in [1, N].

    The lattice part ((i * z) mod N) / N is computed in integer
    arithmetic; the shift is added modulo 1.
    """
    if not (1 <= i <= N):
        raise IndexError(f"lattice index {i} outside [1, {N}]")
    delta = np.asarray(delta, dtype=float)
    s = delta.size
    if len(gv) < s:
        raise ValueError(f"generating vector has {len(gv)} < s = {s} entries")
    if not (gv.n_min <= N <= gv.n_max):
        warnings.warn(
            f"point count N={N} outside the loaded vector's range "
            f"[{gv.n_min}, {gv.n_max}]", stacklevel=2)
    frac = ((i * gv.entries[:s]) % N).astype(float) / N
    return (frac + delta) % 1.0


def radical_inverse(k: int) -> float:
    """Dyadic radical inverse: bit-reversed fraction of k, in [0,1)."""
    v, f = 0.0, 0.5
    while k:
        if k & 1:
            v += f
        f *= 0.5
        k >>= 1
    return v


def sequence_point(gv: GeneratingVector, k: int, delta: np.ndarray) -> np.ndarray:
    """Point k of the embedded lattice sequence (k = 0, 1, 2, ...).

    The first 2^m sequence points equal the N = 2^m lattice rule as a
    set; consecutive dyadic blocks refine the rule without discarding
    earlier points.

    With m the bit length of k and rev its m-bit reversal, the radical
    inverse is rev / 2^m, so the lattice part frac(rev * z / 2^m) is
    computed in integers and scaled exactly.  The result equals
    ``((radical_inverse(k) * z) % 1 + delta) % 1`` bitwise: both sums
    lie in [0, 2), where subtracting 1 is exact.
    """
    delta = np.asarray(delta, dtype=float)
    s = delta.size
    if len(gv) < s:
        raise ValueError(f"generating vector has {len(gv)} < s = {s} entries")
    m = int(k).bit_length()
    rev = int(f"{int(k):b}"[::-1], 2) if m else 0
    frac = np.multiply(gv.entries[:s], rev)
    frac &= (1 << m) - 1
    x = np.multiply(frac, 2.0**-m)
    x += delta
    x -= x >= 1.0
    return x


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


def to_normal(xi: np.ndarray) -> np.ndarray:
    """Componentwise inverse standard-normal CDF on (0,1).

    Absolute accuracy below 1e-9 over [1e-300, 1 - 1e-16]: the library
    inverse is Newton-refined where |y| > 4 (the tail region where its
    own accuracy degrades).
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or np.any(xi >= 1.0):
        raise ValueError("inverse normal CDF requires components in (0,1)")
    return _ndtri_refined(xi)


def _ndtri_refined(xi: np.ndarray, lo: float = 0.0) -> np.ndarray:
    # work on the lower tail only: 1 - xi is exact for xi >= 0.5, and
    # absolute accuracy near 1 is only reachable through the symmetry;
    # q = max(min(xi, 1 - xi), lo) also clamps both ends of the cube
    xi = np.atleast_1d(xi)
    q = np.subtract(1.0, xi)
    np.minimum(q, xi, out=q)
    np.maximum(q, lo, out=q)
    y = ndtri(q)
    tail = y < -4.0
    if tail.any():
        y[tail] = _refine_quantile(y[tail], q[tail])
    # y <= 0 here; the upper half (xi > 0.5) takes the positive sign
    return np.copysign(y, xi - 0.5, out=y)


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
    extra = 2 * rng.integers(0, gv.n_max // 2, size=s_needed - len(gv)) + 1
    return replace(gv, entries=np.concatenate([gv.entries, extra]))


def load_generating_vector(path: Union[str, Path], n_min: int = 8,
                           n_max: int = 2**20) -> GeneratingVector:
    """Parse a generating-vector file.

    Lines hold either a single integer or an "index value" pair (the
    published lattice files use the two-column form); lines starting
    with '#' are comments.  Two-column entries must arrive in index
    order starting at 1.
    """
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 1:
                entries.append(int(parts[0]))
            elif len(parts) == 2:
                idx, val = int(parts[0]), int(parts[1])
                if idx != len(entries) + 1:
                    raise ValueError(
                        f"{path}:{lineno}: index {idx}, expected {len(entries) + 1}")
                entries.append(val)
            else:
                raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns")
    if not entries:
        raise ValueError(f"{path}: no generating vector entries found")
    return GeneratingVector(
        entries=np.asarray(entries, dtype=np.int64),
        n_min=n_min, n_max=n_max, loaded_prefix=len(entries))


def default_generating_vector() -> GeneratingVector:
    """The packaged default lattice generating vector.

    Built by ``python -m mlqmcgrad.cbc`` for N = 2^3 .. 2^12 points (see
    the file's header); its ``n_min``/``n_max`` state that range.
    """
    return load_generating_vector(_DATA_FILE, n_min=2**DEFAULT_M_MIN,
                                  n_max=2**DEFAULT_M_MAX)
