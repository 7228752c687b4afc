"""P1 finite elements on uniform triangulations of the unit square.

Each square cell is split along the lower-left to upper-right diagonal
into two triangles.  The state and adjoint Poisson problems carry
homogeneous Dirichlet conditions; the sampled diffusion coefficient is
taken piecewise constant per triangle (centroid value), loads use the
three-point edge-midpoint rule (exact for quadratics).  The layer takes
numbers only: per-triangle coefficients and loads at ``quad_points``.

Every operator is slicing arithmetic on the level's grids: nodal values
on the row-major ``(n, n)`` node grid, per-triangle values on the
``(2, n - 1, n - 1)`` triangle grid (lower triangles, then upper ones,
each by cell) and quadrature values on ``(2, n - 1, n - 1, 3)``.  Both
triangles of a cell are right isosceles, so the coupling across the cell
diagonal vanishes and the stiffness is a five-point operator: a diagonal,
an east and a south coupling per node.  Each entry of the stiffness, the
loads, the consistent mass product and the prolongation sums the same
products in the same order as the sparse (CSR) products the layer once
used, starting from zero: by ascending triangle for the stiffness, by
ascending quadrature point for the loads, by ascending column for the
mass and the prolongation.  So every output is bitwise what those gave.

The Dirichlet-eliminated interior block is, on the row-major grid, a
band matrix with half-bandwidth m + 1 for m interior nodes per axis (its
last band row, the cell diagonal's coupling, is zero), so it is
factorized once per sampled field with LAPACK's banded Cholesky
(``dpbtrf``), and the state and adjoint solves share the factor
(``dpbtrs``).

Assembly, loads, quadrature values, solves and prolongation also take a
block of samples on a leading axis, each stage once over the block; only
the factor and its solves run per sample, so every sample's result is
bitwise the one it gives alone.  Inside a stage a block is laid out
grid-major, its sample axis last, as ``eval_field`` hands it over.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .circulant_field import NestingViolation

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
    nodal_values: np.ndarray  # length M = nodes_per_axis**2; (B, M) for a block


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


# Local vertex k of a lower (0) or upper (1) triangle sits at this offset
# from its cell's lower-left node: lower (v00, v10, v11), upper (v00, v11, v01).
_OFFSET = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
# _AT[half][k] is the window of an (n, n, ...) node grid that holds vertex k
# of each triangle of ``half``, an (n - 1, n - 1, ...) view on the cell
# grid; _LO drops the last row or column, _HI the first
_LO, _HI = slice(None, -1), slice(1, None)
_AT = tuple(tuple((_HI if di else _LO, _HI if dj else _LO) for di, dj in half)
            for half in _OFFSET)
# The six triangles around a node, ascending: (half, local vertex of the
# node); the node's cell offset falls from (1, 1) to (0, 0) in each half.
_AROUND = ((0, 2), (0, 1), (0, 0), (1, 1), (1, 2), (1, 0))
# Per half, the local vertices (k, l) of the node and of its east
# (j + 1) neighbour, then of the node and its south (i + 1) neighbour.
_EAST = ((1, 2), (0, 2))
_SOUTH = ((0, 1), (2, 1))


def _grid(x: np.ndarray, shape: tuple) -> np.ndarray:
    """``x``, samples first (..., N), as ``shape`` followed by its sample
    axes in reverse: a view when ``x`` is the transpose of a C-ordered
    array, as a block reaches this layer."""
    return x.T.reshape(shape + x.shape[-2::-1])


def _flat(g: np.ndarray, k: int) -> np.ndarray:
    """The inverse of ``_grid`` for ``g``'s first ``k`` (grid) axes."""
    return g.reshape((-1,) + g.shape[k:]).T


def _unit_stiffness(p: list, pairs: tuple, area: float, out: np.ndarray):
    """Entries (k, l) of the P1 stiffness for a unit coefficient of the
    triangles with vertices ``p[0]``, ``p[1]``, ``p[2]`` (arrays of
    points), one per row of ``out``: area * grad phi_k . grad phi_l,
    the gradients from the edge vectors."""
    e1, e2 = p[1] - p[0], p[2] - p[0]
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    g1 = (e2[..., 1] / det, -e2[..., 0] / det)
    g2 = (-e1[..., 1] / det, e1[..., 0] / det)
    grads = ((-g1[0] - g2[0], -g1[1] - g2[1]), g1, g2)
    for row, (k, l) in zip(out, pairs):
        (gxk, gyk), (gxl, gyl) = grads[k], grads[l]
        entry = gxk * gxl
        entry += gyk * gyl
        np.multiply(entry, area, out=row)


class FeLevel:
    """Uniform P1 mesh of the unit square with precomputed assembly data.

    Nodes are ordered row-major over the (n x n) grid; ``interior`` masks
    the non-Dirichlet nodes.  ``coarse_nodes_per_axis`` names the next
    coarser level (n odd, factor-2 nesting) that ``prolong`` maps from.
    """

    def __init__(self, level: int, nodes_per_axis: int):
        if nodes_per_axis < 3 or (nodes_per_axis - 1) % 2 != 0:
            raise ValueError("nodes_per_axis must be odd and >= 3")
        self.level = level
        self.nodes_per_axis = n = nodes_per_axis
        self.h = 1.0 / (n - 1)
        self.num_nodes = n * n
        self.coarse_nodes_per_axis: Optional[int] = None   # set by build_fe_level

        xs = np.linspace(0.0, 1.0, n)
        nodes = np.empty((n, n, 2))
        nodes[:, :, 0] = xs[:, None]
        nodes[:, :, 1] = xs
        self.nodes = nodes.reshape(-1, 2)

        boundary = np.ones((n, n), dtype=bool)
        boundary[1:-1, 1:-1] = False
        self.boundary_mask = boundary.ravel()
        self.interior = np.flatnonzero(~self.boundary_mask)

        # triangle t = (half, i, j) has its vertices at these nodes
        c = n - 1
        self.num_triangles = 2 * c * c
        self.tri_area = 0.5 * self.h**2
        corner = np.arange(n * n, dtype=np.int32).reshape(n, n)
        self.triangles = np.stack(
            [np.stack([corner[_AT[half][k]] for k in range(3)], axis=-1)
             for half in (0, 1)]).reshape(-1, 3)

        # the P1 stiffness of each triangle for a unit coefficient, per half
        # on the cell grid: its diagonal, then its east and south couplings
        self._unit = np.empty((2, 5, c, c))
        for half in (0, 1):
            _unit_stiffness([nodes[_AT[half][k]] for k in range(3)],
                            ((0, 0), (1, 1), (2, 2), _EAST[half], _SOUTH[half]),
                            self.tri_area, self._unit[half])
        # centroids and edge midpoints; edge e joins local vertices e and e + 1
        centroids = np.empty((2, c, c, 2))
        mids = np.empty((2, c, c, 3, 2))
        for half in (0, 1):
            p = [nodes[_AT[half][k]] for k in range(3)]
            np.divide(p[0] + p[1] + p[2], 3.0, out=centroids[half])
            for e in range(3):
                np.multiply(0.5, p[e] + p[(e + 1) % 3], out=mids[half, :, :, e])
        self.centroids = centroids.reshape(-1, 2)
        self.quad_points = mids.reshape(-1, 2)              # (3*ntri, 2)

        # consistent P1 mass: (A/12) * [[2,1,1],[1,2,1],[1,1,2]] per
        # triangle; every term of an entry has the same value, so its sum
        # over the entry's 1 to 6 triangles is a table lookup: the
        # diagonal by the triangles around the node, a grid edge by
        # whether it lies on the boundary (an edge between two rows by its
        # column, one within a row by its row), a cell diagonal always by two
        unit = self.tri_area / 12.0
        diag, off = (np.cumsum(np.full(6, unit * w)) for w in (2.0, 1.0))
        around = np.zeros((n, n), dtype=np.intp)
        for half, k in _AROUND:
            around[_AT[half][k]] += 1
        edge = np.full(n, off[1])
        edge[[0, -1]] = off[0]
        # by column, ascending: per neighbour (i - 1, j - 1) to (i + 1, j + 1),
        # the window of the node grid whose rows hold it, the window of
        # their neighbours and its values there
        lo, hi, every = _LO, _HI, slice(None)
        self._mass = (((hi, hi), (lo, lo), off[1]), ((hi, every), (lo, every), edge),
                      ((every, hi), (every, lo), edge[:, None]),
                      ((every, every), (every, every), diag[around - 1]),
                      ((every, lo), (every, hi), edge[:, None]),
                      ((lo, every), (hi, every), edge), ((lo, lo), (hi, hi), off[1]))
        # row sums as np.add.reduceat took them from the CSR data: a row's
        # first entry plus the sum of the others from zero
        first, rest = np.zeros((n, n)), np.zeros((n, n))
        seen = np.zeros((n, n), dtype=bool)
        for rows, _, value in self._mass:
            value = np.broadcast_to(value, seen[rows].shape)
            rest[rows] += np.where(seen[rows], value, 0.0)
            first[rows] = np.where(seen[rows], first[rows], value)
            seen[rows] = True
        self.mass_lumped = (first + rest).ravel()

    @property
    def sample_bytes(self) -> int:
        """Bytes of the arrays one sample of a block holds on this level:
        its coefficient and the products with the unit stiffness (6 per
        triangle), its stiffness grids and band (3 per node, and m + 2
        per interior node), its quadrature values and weighted loads (6
        per triangle) and its nodal loads, solutions and residuals (6
        per node), 8 bytes each."""
        return 8 * (self.interior.size * self.nodes_per_axis
                    + 12 * self.num_triangles + 9 * self.num_nodes)

    def quad_values(self, nodal: np.ndarray) -> np.ndarray:
        """Values of P1 functions at ``quad_points`` from their nodal
        values, (M,) or a block (B, M): each edge midpoint takes
        0.5 * (u[a] + u[b]) of its end nodes.  Halving is exact, so this
        is bitwise the sparse product with two weights of 0.5 per row.
        A block is laid out node-major, a row of B values per node, and
        returned as a (B, 3 ntri) view of that layout."""
        n, c = self.nodes_per_axis, self.nodes_per_axis - 1
        u = np.ascontiguousarray(_grid(nodal, (n, n)))
        out = np.empty((2, c, c, 3) + u.shape[2:])
        for half, e in itertools.product((0, 1), range(3)):
            np.add(u[_AT[half][e]], u[_AT[half][(e + 1) % 3]],
                   out=out[half, :, :, e])
        out *= 0.5
        return _flat(out, 4)


def build_fe_level(level: int, nodes_per_axis: int,
                   coarser: Optional[FeLevel] = None) -> FeLevel:
    """Create a level nested in ``coarser``, whose functions ``prolong``
    maps into it."""
    lev = FeLevel(level, nodes_per_axis)
    if coarser is not None:
        nc = coarser.nodes_per_axis
        if nodes_per_axis != 2 * nc - 1:
            raise NestingViolation(f"fine mesh ({nodes_per_axis} per axis) is not "
                                   f"the 2x refinement of coarse ({nc})")
        lev.coarse_nodes_per_axis = nc
    return lev


# -- assembly ----------------------------------------------------------------


def assemble_stiffness(lev: FeLevel, a: Union[np.ndarray, float]) -> np.ndarray:
    """Stiffness for coefficient ``a`` on the full node grid, as a
    (3, n, n) array: per node its diagonal entry, its coupling to its
    east neighbour (i, j + 1) and to its south neighbour (i + 1, j), 0
    where that neighbour is off the grid.  Dirichlet elimination happens
    in the solver, not here.

    ``a`` holds one value per triangle (the coefficient at its centroid),
    or is a constant.  A block of B coefficients, (B, ntri), gives
    (B, 3, n, n), each sample bitwise its result alone.
    """
    a = np.asarray(a, dtype=float)
    lead = a.shape[:-1]
    n, c = lev.nodes_per_axis, lev.nodes_per_axis - 1
    a = _grid(np.broadcast_to(a, lead + (lev.num_triangles,)), (2, 1, c, c))
    p = lev._unit.reshape(lev._unit.shape + (1,) * len(lead)) * a
    # each entry sums its triangles' products from zero, by ascending
    # triangle: the order of the sparse product this replaced
    A = np.zeros((3, n, n) + lead[::-1])
    for half, k in _AROUND:
        A[0][_AT[half][k]] += p[half, k]
    for row, pairs in ((1, _EAST), (2, _SOUTH)):
        for half, (k, _) in enumerate(pairs):
            A[row][_AT[half][k]] += p[half, 2 + row]
    return _flat(A, 3).reshape(lead + A.shape[:3])


def assemble_load(lev: FeLevel, fq: np.ndarray) -> np.ndarray:
    """Load vector with the edge-midpoint quadrature rule, Dirichlet rows
    zeroed; ``fq`` holds the load's values at ``lev.quad_points``, or one
    row of them per sample, (B, 3 ntri), for a block of loads (B, M).
    A node's entry sums w f over the midpoints of the two edges of each
    triangle around it that end at the node: w = area / 3 times the
    node's basis function there, 1/2."""
    c = lev.nodes_per_axis - 1
    fq = _grid(np.asarray(fq), (2, c, c, 3))
    # weighted values edge-major, so that every term below adds whole rows
    wf = np.empty((2, 3, c, c) + fq.shape[4:])
    np.multiply(lev.tri_area / 3.0 * 0.5, fq.transpose((0, 3, 1, 2) + tuple(range(4, fq.ndim))),
                out=wf)
    b = np.zeros((c + 1, c + 1) + fq.shape[4:])
    inner = b[1:-1, 1:-1]
    for half, k in _AROUND:
        di, dj = _OFFSET[half][k]
        for e in sorted((k, (k - 1) % 3)):
            inner += wf[half, e, 1 - di:c - di, 1 - dj:c - dj]
    return _flat(b, 2)


# -- solver: banded Cholesky ---------------------------------------------------


def _lower_band(lev: FeLevel, A: np.ndarray) -> np.ndarray:
    """Lower band of the interior block of the stiffness grids ``A``
    (one sample's, or a block's on a leading axis) in LAPACK ``pb``
    storage: per sample an F-ordered ``(kd + 1, n_int)`` view with
    ``ab[r - c, c] = A_int[r, c]``, kd = m + 1 for m interior nodes per
    axis, behind the leading axes of ``A``."""
    m = lev.nodes_per_axis - 2
    lead = A.shape[:-3]
    band = np.zeros(lead + (m, m, m + 2))
    band[..., 0] = A[..., 0, 1:-1, 1:-1]
    band[..., :-1, 1] = A[..., 1, 1:-1, 1:-2]
    band[..., :-1, :, m] = A[..., 2, 1:-2, 1:-1]
    return band.reshape(lead + (m * m, m + 2)).swapaxes(-1, -2)


def _interior_product(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A_int x_int for stiffness grids ``A`` and nodal values ``x`` that
    vanish on the boundary, both with the same leading axes."""
    n = A.shape[-1]
    X = x.reshape(x.shape[:-1] + (n, n))
    y = A[..., 0, 1:-1, 1:-1] * X[..., 1:-1, 1:-1]
    y += A[..., 1, 1:-1, 1:-1] * X[..., 1:-1, 2:]
    y += A[..., 1, 1:-1, :-2] * X[..., 1:-1, :-2]
    y += A[..., 2, 1:-1, 1:-1] * X[..., 2:, 1:-1]
    y += A[..., 2, :-2, 1:-1] * X[..., :-2, 1:-1]
    return y.reshape(x.shape[:-1] + (-1,))


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v`` (of ``v`` itself when 1-D)."""
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _band_solves(factors: list, b: np.ndarray) -> np.ndarray:
    """Solve with each sample's band factor for its row of ``b``, or for
    ``b`` itself when it is one vector; one row per factor."""
    x = np.empty((len(factors), b.shape[-1]))
    for factor, rhs, out in zip(factors, b if b.ndim > 1 else itertools.repeat(b), x):
        out[:] = dpbtrs(factor, rhs, lower=1)[0]
    return x


class OperatorSet:
    """Assembled operator and its banded Cholesky factor for one coefficient.

    ``a`` is the coefficient on ``lev`` as ``assemble_stiffness`` takes
    it.  Built once per sampled field and reused for the state and
    adjoint solves, which share the same bilinear form.  A factorization
    that meets a non-positive pivot, or a solve whose relative residual
    exceeds ``rtol`` (a NaN residual included), raises ``SolverDiverged``.

    A block of coefficients (B, ntri) is assembled and checked in block
    operations, with one LAPACK factor per sample (one ``dpbtrf`` call,
    then one ``dpbtrs`` call per solve), so each sample's solution is
    bitwise the one its coefficient gives alone.  Its solves take a load
    per sample, (B, M), or one load for all of them.
    """

    def __init__(self, lev: FeLevel, a: Union[np.ndarray, float],
                 rtol: float = 1e-10):
        self.lev = lev
        self.rtol = rtol
        a = np.asarray(a, dtype=float)
        self.shape = a.shape[:-1]            # () for one coefficient, else (B,)
        # the stiffness grids serve the residual check
        self.A = A = assemble_stiffness(lev, a)
        # each F-ordered view is LAPACK's own layout, so f2py factors it in
        # place instead of copying it
        factors = []
        bands = _lower_band(lev, A)
        for band in bands.reshape((-1,) + bands.shape[-2:]):
            factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
            if info != 0:
                raise SolverDiverged(
                    f"banded Cholesky failed (info={info}): the interior "
                    f"operator is not positive definite")
            factors.append(factor)
        # the factors' solves stand in as _precond, so a wrapper that
        # counts preconditioner applications sees one per solve
        shape = self.shape + (lev.interior.size,)
        self._precond = lambda b: _band_solves(factors, b).reshape(shape)

    def solve(self, b_full: np.ndarray) -> FeFunction:
        # interior rows are indexed through the transposes: numpy's 1-D
        # fast path for one sample, whole rows of the block otherwise
        lev = self.lev
        b = b_full.T[lev.interior].T
        x = np.zeros(self.shape + (lev.num_nodes,))
        x.T[lev.interior] = self._precond(b).T
        r = b - _interior_product(self.A, x)
        res, nb = _norms(r), _norms(b)
        ok = res <= self.rtol * nb
        if not ok.all():
            raise SolverDiverged(
                f"banded Cholesky solve left relative residual "
                f"{(res / nb)[~ok].flat[0]:.1e} above rtol={self.rtol}")
        return FeFunction(level=lev.level, nodal_values=x)


def prolong(f: FeFunction, levels: Sequence[FeLevel], to: int) -> FeFunction:
    """Inject a coarse FE function into a finer nested level (pointwise
    exact); a block of functions (B, M) is injected row by row.

    A fine node on a coarse node takes its value; one halfway along a
    coarse grid line or cell diagonal takes half the sum of its two
    coarse neighbours, the lower-numbered first."""
    if to < f.level:
        raise NestingViolation("prolongation target must be a finer level")
    vals = f.nodal_values
    for k in range(f.level + 1, to + 1):
        nc = levels[k].coarse_nodes_per_axis
        if nc is None or nc * nc != vals.shape[-1]:
            raise NestingViolation(f"no prolongation into level {k}")
        v = np.ascontiguousarray(_grid(vals, (nc, nc)))
        half = 0.5 * v
        fine = np.zeros((2 * nc - 1, 2 * nc - 1) + v.shape[2:])
        fine[::2, ::2] += v
        # fine nodes at odd rows, odd columns or both
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            mid = fine[di::2, dj::2]
            mid += half[:nc - di, :nc - dj]
            mid += half[di:, dj:]
        vals = _flat(fine, 2)
    return FeFunction(level=to, nodal_values=vals)


def _mass_product(lev: FeLevel, v: np.ndarray) -> np.ndarray:
    """The consistent mass matrix times nodal values ``v`` (M,), each
    entry summed by ascending column from zero."""
    n = lev.nodes_per_axis
    V = v.reshape(n, n)
    y = np.zeros((n, n))
    for rows, cols, value in lev._mass:
        y[rows] += value * V[cols]
    return y.ravel()


def l2_norm(lev: FeLevel, f: FeFunction) -> float:
    """L2(D) norm via the consistent mass matrix of ``f``'s level."""
    v = f.nodal_values
    return float(np.sqrt(max(v @ _mass_product(lev, v), 0.0)))


def integrate(lev: FeLevel, nodal: np.ndarray) -> float:
    """Integral over D of the P1 interpolant of ``nodal`` values."""
    return float(lev.mass_lumped @ nodal)
