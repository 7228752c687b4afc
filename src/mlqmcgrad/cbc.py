"""Embedded component-by-component (CBC) construction of lattice rules.

Builds a generating vector for the embedded base-2 sequence of rank-1
lattice rules with N = 2^m_min .. 2^m_max points.  The quality measure is
the shift-averaged worst-case error in the unanchored Sobolev space of
first-order mixed smoothness with product weights gamma_j, whose
shift-invariant kernel is prod_j (1 + gamma_j B2({x_j - y_j})) with
B2(x) = x^2 - x + 1/6:

    e^2_N(z) = -1 + (1/N) sum_{k<N} prod_j (1 + gamma_j B2({k z_j / N})).

Criterion.  Appending component j with candidate c raises e^2_{2^m} by
gamma_j theta_m(c) >= 0 on top of the error of the earlier components,
which all candidates share.  Component j takes the candidate with the
least worst increment ratio

    K_j(c) = max_m theta_m(c) / min_c' theta_m(c').

This departs from the embedded construction of Cools, Kuo and Nuyens
("Constructing embedded lattice rules for multivariate integration",
SISC 2006), who rank candidates by the worst ratio of the totals
e^2_{2^m} to the least total.  The increment ratio is the quantity that
the CBC error bound controls.  Its proof for a single N (Kuo, J.
Complexity 2003; Dick, Kuo and Sloan, Acta Numerica 2013) bounds each
step through the mean over the candidates: for lambda in (1/2, 1],
[e^2_j]^lambda <= [e^2_{j-1}]^lambda + gamma_j^lambda theta(z_j)^lambda,
and theta(z_j)^lambda <= mean_c theta(c)^lambda for the best z_j.  A
choice with theta_m(z_j) <= K_j min_c theta_m(c) meets the same step
with gamma_j replaced by K_j gamma_j, for every m at once, so each rule
of the sequence obeys its single-N bound on e^2 times K = max_j K_j.
The totals ratio does not bound K_j: where the shared error dominates
e^2_{2^m}, as it does at small N, a total within 1 + delta of the least
says little about the increment.

Every odd z_1 gives the same one-dimensional rules, so z_1 = 1.  The
candidates c and 2^m_max - c give mirrored rules with equal errors for
every m, so only odd c < 2^(m_max - 1) are searched.  Sums over points
run in a fixed order, with no BLAS, so the choices do not depend on the
BLAS library or its thread count.

The packaged default vector comes from ``python -m mlqmcgrad.cbc``; its
weights are gamma_j = b_j = sqrt(2 lambda_j / s), the largest pointwise
amplitude of the j-th importance-ordered circulant-embedding direction
(eigenvalue lambda_j, stochastic dimension s).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .circulant_field import UniformGrid, _ranked_representatives, _search
from .covariance import MaternParams
from .qmc import DEFAULT_M_MAX, DEFAULT_M_MIN

__all__ = [
    "bernoulli2",
    "EmbeddedCbc",
    "embedded_cbc",
    "ce_weights",
    "DEFAULT_KERNEL",
    "DEFAULT_POINTS_PER_AXIS",
]

# weights of the packaged vector: problem-1 field (nu = 0.5) on the 9x9
# grid of level 3, whose embedding has s = 4096 directions
DEFAULT_KERNEL = MaternParams(sigma2=0.1, lambda_c=1.0, nu=0.5)
DEFAULT_POINTS_PER_AXIS = 9

_TIE_RTOL = 1e-9

_COMMAND = ("PYTHONPATH=src python -m mlqmcgrad.cbc "
            "--out src/mlqmcgrad/data/lattice_default.txt")


def bernoulli2(x: np.ndarray) -> np.ndarray:
    """Bernoulli polynomial B2(x) = x^2 - x + 1/6."""
    return x * x - x + 1.0 / 6.0


def _bit_reversed(M: int) -> np.ndarray:
    """0 .. 2^M - 1 in bit-reversed order: the first 2^m entries are the
    multiples of 2^(M - m), i.e. the points of the 2^m-point rule."""
    k = np.arange(2**M, dtype=np.int64)
    rev = np.zeros_like(k)
    for bit in range(M):
        rev |= ((k >> bit) & 1) << (M - 1 - bit)
    return rev


class EmbeddedCbc:
    """Incremental embedded CBC search over the odd candidates < 2^(m_max-1).

    Holds B2({k c / 2^m_max}) for every candidate c and point k (points
    in bit-reversed order) and the running product over the components
    chosen so far.  ``ratios`` holds the worst increment ratio K_j of
    each chosen component.
    """

    def __init__(self, m_min: int, m_max: int):
        if not (0 <= m_min <= m_max and m_max >= 1):
            raise ValueError("need 0 <= m_min <= m_max and m_max >= 1")
        N = 2**m_max
        self.ms = np.arange(m_min, m_max + 1)
        self.candidates = np.arange(1, N // 2 + 1, 2, dtype=np.int64)
        j = np.outer(self.candidates, _bit_reversed(m_max)) % N
        # 6 N^2 B2(j / N) is an integer, so omega is exact to rounding and
        # mirrored points (j and N - j) get the same value
        self._omega = (6 * j * j - 6 * j * N + N * N) / (6.0 * N * N)
        self._sizes = 2.0**self.ms
        self._prod = np.ones(N)
        self._work = np.empty_like(self._omega)
        self.z: list = []
        self.ratios: list = []

    def _rule_means(self, values: np.ndarray) -> np.ndarray:
        """Means over the first 2^m points for each m, summed in point
        order; ``values`` is overwritten by its running sums."""
        np.cumsum(values, axis=-1, out=values)
        return values[..., 2**self.ms - 1] / self._sizes

    def current_errors(self) -> np.ndarray:
        """e^2_{2^m} of the components chosen so far, m ascending."""
        return self._rule_means(self._prod.copy()) - 1.0

    def increments(self, gamma_j: float) -> np.ndarray:
        """Rise of e^2_{2^m} when each candidate is appended with weight
        ``gamma_j``; shape (number of candidates, number of m)."""
        np.multiply(self._omega, self._prod, out=self._work)
        return gamma_j * self._rule_means(self._work)

    def append(self, gamma_j: float) -> int:
        """Choose and append the next component; returns it."""
        if not self.z:
            pick, ratio = 0, 1.0
        else:
            inc = self.increments(gamma_j)
            worst = (inc / inc.min(axis=0)).max(axis=1)
            # candidates within rounding of the least worst ratio tie; the
            # smallest of them wins
            pick = int(np.flatnonzero(worst <= worst.min() * (1.0 + _TIE_RTOL))[0])
            ratio = float(worst[pick])
        self._prod *= 1.0 + gamma_j * self._omega[pick]
        self.z.append(int(self.candidates[pick]))
        self.ratios.append(ratio)
        return self.z[-1]


def embedded_cbc(gamma: Sequence[float], m_min: int = DEFAULT_M_MIN,
                 m_max: int = DEFAULT_M_MAX) -> EmbeddedCbc:
    """Embedded CBC search run over len(gamma) components for
    N = 2^m_min .. 2^m_max; its ``z`` is the generating vector."""
    search = EmbeddedCbc(m_min, m_max)
    for g in gamma:
        search.append(float(g))
    return search


def ce_weights(kernel: MaternParams = DEFAULT_KERNEL,
               points_per_axis: int = DEFAULT_POINTS_PER_AXIS,
               count: Optional[int] = None) -> np.ndarray:
    """Product weights b_j = sqrt(2 lambda_j / s) in importance order:
    the clamped spectrum of ``build_embedding``'s search, ranked as the
    embedding ranks its inputs."""
    grid = UniformGrid(dim=2, points_per_axis=points_per_axis)
    _, ext, eigs, _ = _search(kernel, grid)
    _, _, lam, per_rep = _ranked_representatives(np.maximum(eigs, 0.0).ravel(),
                                                  ext, grid.dim)
    b = np.sqrt(2.0 * np.repeat(lam, per_rep) / ext**grid.dim)
    return b if count is None else b[:count]


def _header(s: int, worst_ratio: float) -> str:
    kernel, n = DEFAULT_KERNEL, DEFAULT_POINTS_PER_AXIS
    return "\n".join([
        "# Default rank-1 lattice generating vector (embedded, base 2).",
        f"# Point counts N = 2^{DEFAULT_M_MIN} .. 2^{DEFAULT_M_MAX}; "
        f"odd entries below 2^{DEFAULT_M_MAX - 1}.",
        "# Built by an embedded component-by-component search: each",
        "# component minimizes the worst ratio over m of the rise it causes",
        "# in e^2_{2^m} to the least rise among the candidates, where e is",
        "# the shift-averaged worst-case error in the unanchored Sobolev",
        "# space with kernel prod_j (1 + gamma_j B2(x_j)).  This departs from",
        "# Cools, Kuo and Nuyens (SISC 2006), who compare the totals e^2_{2^m};",
        "# the rise ratio is the factor on gamma_j in the CBC error bound",
        "# (see the mlqmcgrad.cbc docstring).  Largest rise ratio over the",
        f"# components: {worst_ratio:.4f}.",
        "# Product weights gamma_j = b_j = sqrt(2 lambda_j / s): lambda_j are",
        "# the circulant-embedding eigenvalues in importance order of the",
        f"# Matern field sigma2={kernel.sigma2}, lambda_c={kernel.lambda_c}, "
        f"nu={kernel.nu} on the {n}x{n} grid",
        f"# (problem 1, level 3), s = {s}.",
        f"# Regenerate: {_COMMAND}",
    ])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m mlqmcgrad.cbc",
        description="Write the embedded CBC lattice vector used by default.")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    gamma = ce_weights()
    search = embedded_cbc(gamma, DEFAULT_M_MIN, DEFAULT_M_MAX)
    lines = [_header(gamma.size, max(search.ratios))]
    lines += [f"{j} {zj}" for j, zj in enumerate(search.z, 1)]
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
