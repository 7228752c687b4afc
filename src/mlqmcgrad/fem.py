"""P1 finite elements on uniform triangulations of the unit square.

Each square cell is split along the lower-left to upper-right diagonal
into two triangles.  The state and adjoint Poisson problems carry
homogeneous Dirichlet conditions; the sampled diffusion coefficient is
taken piecewise constant per triangle (centroid value), loads use the
three-point edge-midpoint rule (exact for quadratics).

The stiffness matrix is assembled into a CSR pattern fixed per level,
and its Dirichlet-eliminated interior block is gathered by precomputed
positions.  On the row-major grid that block is a band matrix with
half-bandwidth m + 1 for m interior nodes per axis, so it is factorized
once per sampled field with LAPACK's banded Cholesky (``dpbtrf``), and
the state and adjoint solves share the factor (``dpbtrs``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .circulant_field import (
    FieldRealization,
    NestingViolation,
    Stencil,
    UniformGrid,
    eval_field,
    interpolation_stencil,
)

__all__ = [
    "FeLevel",
    "FeFunction",
    "TargetAndControl",
    "SolverDiverged",
    "build_fe_level",
    "assemble_stiffness",
    "assemble_load",
    "OperatorSet",
    "prolong",
    "l2_norm",
    "integrate",
]


class SolverDiverged(RuntimeError):
    """The operator could not be factorized, or a solve missed ``rtol``."""


@dataclass
class FeFunction:
    """Continuous piecewise-linear function given by nodal values."""

    level: int
    nodal_values: np.ndarray  # length M = nodes_per_axis**2


@dataclass(frozen=True)
class TargetAndControl:
    """Objective data: target g, control z, regularization alpha > 0.

    g and z are callables over (npts, 2) point arrays.
    """

    g: Callable[[np.ndarray], np.ndarray]
    z: Callable[[np.ndarray], np.ndarray]
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be > 0")


class FeLevel:
    """Uniform P1 mesh of the unit square with precomputed assembly data.

    Nodes are ordered row-major over the (n x n) grid; ``interior`` masks
    the non-Dirichlet nodes.  ``prolongation`` maps nodal values from the
    next coarser level (n odd, factor-2 nesting) into this level exactly.
    """

    def __init__(self, level: int, nodes_per_axis: int):
        if nodes_per_axis < 3 or (nodes_per_axis - 1) % 2 != 0:
            raise ValueError("nodes_per_axis must be odd and >= 3")
        self.level = level
        self.nodes_per_axis = nodes_per_axis
        self.h = 1.0 / (nodes_per_axis - 1)
        self.num_nodes = nodes_per_axis**2

        n = nodes_per_axis
        xs = np.linspace(0.0, 1.0, n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        self.nodes = np.stack([X.ravel(), Y.ravel()], axis=-1)

        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        boundary = (ii == 0) | (ii == n - 1) | (jj == 0) | (jj == n - 1)
        self.boundary_mask = boundary.ravel()
        self.interior = np.flatnonzero(~self.boundary_mask)

        self._build_triangles()
        self._build_mass()
        self._build_load_operator()
        self.prolongation: Optional[sp.csr_matrix] = None  # set by build_fe_level
        self._stencils: dict = {}   # CE grid -> centroid Stencil

    # -- mesh construction -------------------------------------------------

    def _build_triangles(self):
        n = self.nodes_per_axis
        cell = np.arange(n - 1)
        ci, cj = np.meshgrid(cell, cell, indexing="ij")
        v00 = (ci * n + cj).ravel()
        v10 = v00 + n
        v01 = v00 + 1
        v11 = v10 + 1
        # diagonal v00 -- v11; lower triangle (v00,v10,v11), upper (v00,v11,v01)
        lower = np.stack([v00, v10, v11], axis=1)
        upper = np.stack([v00, v11, v01], axis=1)
        self.triangles = np.concatenate([lower, upper], axis=0)
        self.num_triangles = self.triangles.shape[0]
        self.tri_area = 0.5 * self.h**2

        coords = self.nodes[self.triangles]          # (ntri, 3, 2)
        self.centroids = coords.mean(axis=1)

        # P1 basis gradients per triangle: grad phi_k from edge vectors
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
        g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
        g0 = -g1 - g2
        grads = np.stack([g0, g1, g2], axis=1)       # (ntri, 3, 2)
        # per-triangle local stiffness template, scaled later by a(centroid)
        self._local_stiff = self.tri_area * np.einsum(
            "tkd,tld->tkl", grads, grads)
        self._build_pattern()

        # edge midpoints per triangle, and the two incident local vertices
        mids = 0.5 * (coords[:, [0, 1, 2]] + coords[:, [1, 2, 0]])
        self.quad_points = mids.reshape(-1, 2)       # (3*ntri, 2)

    def _build_pattern(self):
        # CSR pattern of the stiffness and mass matrices (sorted, duplicates
        # merged), the pattern position of each of the 9 local entries per
        # triangle, and the data positions of the lower triangle of the
        # Dirichlet-eliminated interior block with their flat positions in
        # a C-ordered (n_int, kd + 1) band array, whose transpose is
        # LAPACK's lower ``pb`` storage.  The half-bandwidth kd is at most
        # m + 1 for m interior nodes per axis, the offset of the diagonal
        # neighbour.
        M = self.num_nodes
        rows = np.repeat(self.triangles, 3, axis=1).ravel()   # (9*ntri,)
        cols = np.tile(self.triangles, (1, 3)).ravel()
        keys, self._local_pos = np.unique(rows * M + cols, return_inverse=True)
        rows, cols = np.divmod(keys, M)
        self._pattern_indices = cols.astype(np.int32)
        self._pattern_indptr = np.searchsorted(rows, np.arange(M + 1)).astype(np.int32)
        new_index = np.full(M, -1)
        new_index[self.interior] = np.arange(self.interior.size)
        rows, cols = new_index[rows], new_index[cols]
        lower = (cols >= 0) & (rows >= cols)
        self._band_pos = np.flatnonzero(lower)
        rows, cols = rows[lower], cols[lower]
        self._band_kd = int((rows - cols).max())
        self._band_flat = cols * (self._band_kd + 1) + (rows - cols)

    def _assemble(self, local_data: np.ndarray) -> sp.csr_matrix:
        """Sum (ntri, 3, 3) local matrices into the level's CSR pattern."""
        data = np.bincount(self._local_pos, weights=local_data.ravel(),
                           minlength=self._pattern_indices.size)
        return sp.csr_matrix((data, self._pattern_indices, self._pattern_indptr),
                             shape=(self.num_nodes, self.num_nodes))

    def _build_mass(self):
        # consistent P1 mass: (A/12) * [[2,1,1],[1,2,1],[1,1,2]]
        local = self.tri_area / 12.0 * np.array(
            [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        M = self._assemble(np.broadcast_to(local, (self.num_triangles, 3, 3)))
        self.mass = M
        self.mass_lumped = np.asarray(M.sum(axis=1)).ravel()

    def _build_load_operator(self):
        # b = Q f(quad_points): edge-midpoint rule, phi = 1/2 at the two
        # midpoints of edges touching the vertex, 0 at the opposite one
        ntri = self.num_triangles
        w = self.tri_area / 3.0 * 0.5
        tri = self.triangles
        qidx = np.arange(3 * ntri).reshape(ntri, 3)
        # midpoint of edge (k, k+1) contributes to vertices k and k+1
        rows = np.concatenate([
            tri[:, 0], tri[:, 1],   # edge 01
            tri[:, 1], tri[:, 2],   # edge 12
            tri[:, 2], tri[:, 0],   # edge 20
        ])
        cols = np.concatenate([
            qidx[:, 0], qidx[:, 0],
            qidx[:, 1], qidx[:, 1],
            qidx[:, 2], qidx[:, 2],
        ])
        data = np.full(rows.size, w)
        self._load_op = sp.coo_matrix(
            (data, (rows, cols)), shape=(self.num_nodes, 3 * ntri)
        ).tocsr()
        # P1 evaluation at the quadrature points (for FE-function loads)
        ev_rows = np.repeat(np.arange(3 * ntri), 2)
        ev_cols = np.stack([
            np.stack([tri[:, 0], tri[:, 1]], axis=1),
            np.stack([tri[:, 1], tri[:, 2]], axis=1),
            np.stack([tri[:, 2], tri[:, 0]], axis=1),
        ], axis=1).reshape(-1)
        ev_data = np.full(ev_rows.size, 0.5)
        self._quad_eval = sp.coo_matrix(
            (ev_data, (ev_rows, ev_cols)), shape=(3 * ntri, self.num_nodes)
        ).tocsr()

    # -- point evaluation ---------------------------------------------------

    def centroid_stencil(self, grid: UniformGrid) -> Stencil:
        """Interpolation stencil of the triangle centroids in ``grid``,
        built on first use and kept for every later field on that grid."""
        st = self._stencils.get(grid)
        if st is None:
            st = self._stencils[grid] = interpolation_stencil(grid, self.centroids)
        return st

    def eval_function(self, f: FeFunction, x: np.ndarray) -> np.ndarray:
        """Evaluate a P1 function at arbitrary points of the unit square."""
        x_arr = np.atleast_2d(np.asarray(x, dtype=float))
        n = self.nodes_per_axis
        t = np.clip(x_arr, 0.0, 1.0) / self.h
        i0 = np.minimum(t.astype(np.int64), n - 2)
        loc = t - i0
        v = f.nodal_values.reshape(n, n)
        v00 = v[i0[:, 0], i0[:, 1]]
        v10 = v[i0[:, 0] + 1, i0[:, 1]]
        v01 = v[i0[:, 0], i0[:, 1] + 1]
        v11 = v[i0[:, 0] + 1, i0[:, 1] + 1]
        lx, ly = loc[:, 0], loc[:, 1]
        # the diagonal of each cell runs from (0,0) to (1,1)
        lower = lx >= ly
        out = np.where(
            lower,
            v00 + lx * (v10 - v00) + ly * (v11 - v10),
            v00 + ly * (v01 - v00) + lx * (v11 - v01),
        )
        if np.asarray(x).ndim == 1:
            return float(out[0])
        return out


def build_fe_level(level: int, nodes_per_axis: int,
                   coarser: Optional[FeLevel] = None) -> FeLevel:
    """Create a level and wire its prolongation from ``coarser``."""
    lev = FeLevel(level, nodes_per_axis)
    if coarser is not None:
        lev.prolongation = _prolongation_matrix(coarser, lev)
    return lev


def _prolongation_matrix(coarse: FeLevel, fine: FeLevel) -> sp.csr_matrix:
    """P1 embedding of the coarse space into the fine one (factor 2)."""
    nc, nf = coarse.nodes_per_axis, fine.nodes_per_axis
    if nf != 2 * nc - 1:
        raise NestingViolation(
            f"fine mesh ({nf} per axis) is not the 2x refinement of coarse ({nc})"
        )
    rows, cols, data = [], [], []

    def cid(i, j):
        return i * nc + j

    fi, fj = np.meshgrid(np.arange(nf), np.arange(nf), indexing="ij")
    fi, fj = fi.ravel(), fj.ravel()
    fids = fi * nf + fj
    even_i, even_j = fi % 2 == 0, fj % 2 == 0

    m = even_i & even_j
    rows.append(fids[m]); cols.append(cid(fi[m] // 2, fj[m] // 2))
    data.append(np.ones(m.sum()))
    m = (~even_i) & even_j          # midpoint of a horizontal coarse edge
    for di in (0, 1):
        rows.append(fids[m]); cols.append(cid(fi[m] // 2 + di, fj[m] // 2))
        data.append(np.full(m.sum(), 0.5))
    m = even_i & (~even_j)          # midpoint of a vertical coarse edge
    for dj in (0, 1):
        rows.append(fids[m]); cols.append(cid(fi[m] // 2, fj[m] // 2 + dj))
        data.append(np.full(m.sum(), 0.5))
    m = (~even_i) & (~even_j)       # cell center, on the coarse diagonal
    for d in (0, 1):
        rows.append(fids[m]); cols.append(cid(fi[m] // 2 + d, fj[m] // 2 + d))
        data.append(np.full(m.sum(), 0.5))

    P = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.num_nodes, coarse.num_nodes),
    ).tocsr()
    return P


# -- assembly ----------------------------------------------------------------


def assemble_stiffness(lev: FeLevel, a: Union[FieldRealization, np.ndarray, float]
                       ) -> sp.csr_matrix:
    """Stiffness matrix for coefficient ``a`` (full node set, symmetric).

    ``a`` may be a FieldRealization (evaluated at triangle centroids
    through the level's stencil for the field's grid), an array of
    per-triangle values, or a constant.  Dirichlet elimination happens
    in the solver, not here.  The result always has the level's fixed
    CSR pattern, explicit zeros included.
    """
    if isinstance(a, FieldRealization):
        a_elem = eval_field(a, lev.centroid_stencil(a.grid))
    else:
        a_elem = np.broadcast_to(np.asarray(a, dtype=float), (lev.num_triangles,))
    return lev._assemble(a_elem[:, None, None] * lev._local_stiff)


def assemble_load(lev: FeLevel, f: Union[Callable, np.ndarray],
                  zero_boundary: bool = True) -> np.ndarray:
    """Load vector with the edge-midpoint quadrature rule.

    ``f`` is a callable over (npts, 2) points or an array of values at
    ``lev.quad_points``.  Dirichlet rows are zeroed unless
    ``zero_boundary`` is False (used by partition-of-unity checks).
    """
    fq = f(lev.quad_points) if callable(f) else np.asarray(f, dtype=float)
    b = lev._load_op @ fq
    if zero_boundary:
        b[lev.boundary_mask] = 0.0
    return b


# -- solver: banded Cholesky ---------------------------------------------------


def _lower_band(lev: FeLevel, A: sp.csr_matrix) -> np.ndarray:
    """Lower band of the interior block of ``A`` in LAPACK ``pb`` storage:
    an F-ordered ``(kd + 1, n_int)`` view with ``ab[r - c, c] = A_int[r, c]``."""
    n, kd = lev.interior.size, lev._band_kd
    band = np.zeros(n * (kd + 1))
    band[lev._band_flat] = A.data[lev._band_pos]
    return band.reshape(n, kd + 1).T


class OperatorSet:
    """Assembled operator and its banded Cholesky factor for one coefficient.

    Built once per sampled field and reused for the state and adjoint
    solves, which share the same bilinear form.  A factorization that
    meets a non-positive pivot, or a solve whose relative residual
    exceeds ``rtol`` (a NaN residual included), raises ``SolverDiverged``.
    """

    def __init__(self, levels: Sequence[FeLevel], top: int,
                 a: Union[FieldRealization, np.ndarray, float],
                 rtol: float = 1e-10):
        lev = levels[top]
        self.lev = lev
        self.rtol = rtol
        # the full operator serves the residual check: with zero boundary
        # values its interior rows give A_int @ x_int, without building A_int
        self.A = A = assemble_stiffness(lev, a)
        # the F-ordered view is LAPACK's own layout, so f2py factors it in
        # place instead of copying it
        factor, info = dpbtrf(_lower_band(lev, A), lower=1, overwrite_ab=1)
        if info != 0:
            raise SolverDiverged(
                f"banded Cholesky failed (info={info}): the interior "
                f"operator is not positive definite")
        # the factor's solve stands in as _precond, so a wrapper that
        # counts preconditioner applications sees one per solve
        self._precond = lambda b: dpbtrs(factor, b, lower=1)[0]

    def solve(self, b_full: np.ndarray) -> FeFunction:
        lev = self.lev
        b = b_full[lev.interior]
        x = np.zeros(lev.num_nodes)
        x[lev.interior] = self._precond(b)
        res = np.linalg.norm(b - (self.A @ x)[lev.interior])
        nb = np.linalg.norm(b)
        if not res <= self.rtol * nb:
            raise SolverDiverged(
                f"banded Cholesky solve left relative residual {res / nb:.1e} "
                f"above rtol={self.rtol}")
        return FeFunction(level=lev.level, nodal_values=x)


def prolong(f: FeFunction, levels: Sequence[FeLevel], to: int) -> FeFunction:
    """Inject a coarse FE function into a finer nested level (pointwise exact)."""
    if to < f.level:
        raise NestingViolation("prolongation target must be a finer level")
    vals = f.nodal_values
    for k in range(f.level + 1, to + 1):
        P = levels[k].prolongation
        if P is None or P.shape[1] != vals.size:
            raise NestingViolation(f"no prolongation into level {k}")
        vals = P @ vals
    return FeFunction(level=to, nodal_values=vals)


def l2_norm(lev: FeLevel, f: FeFunction) -> float:
    """L2(D) norm via the consistent mass matrix of ``f``'s level."""
    v = f.nodal_values
    return float(np.sqrt(max(v @ (lev.mass @ v), 0.0)))


def integrate(lev: FeLevel, nodal: np.ndarray) -> float:
    """Integral over D of the P1 interpolant of ``nodal`` values."""
    return float(lev.mass_lumped @ nodal)
