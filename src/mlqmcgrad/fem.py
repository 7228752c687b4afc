"""P1 finite elements on uniform triangulations of the unit square.

Each square cell is split along the lower-left to upper-right diagonal
into two triangles.  The state and adjoint Poisson problems carry
homogeneous Dirichlet conditions; the sampled diffusion coefficient is
taken piecewise constant per triangle (centroid value), loads use the
three-point edge-midpoint rule (exact for quadratics).  The layer takes
numbers only: per-triangle coefficients and loads at ``quad_points``.

A level is built in closed form, by index arithmetic on the row-major
(i, j) grid: node (i, j) couples with the 7-point stencil (i-1, j-1),
(i-1, j), (i, j-1), (i, j), (i, j+1), (i+1, j), (i+1, j+1) that lies on
the grid, which gives each CSR row its sorted columns; every sparse
operator (stiffness pattern, load, prolongation) is written straight in
canonical CSR form with 32-bit indices, without sorting; the band
positions follow from the pattern, and evaluation at the quadrature
points keeps each edge's two end nodes.  Stiffness assembly
is one fixed sparse map G per level, from per-triangle coefficients to
pattern entries: ``data = G @ a`` sums each entry's triangles in
ascending order, as the scatter it replaced did.  Built this way, the
preset meshes of 5 to 129 nodes per axis take 1.1, 1.1, 1.2, 2.2, 6.6
and 24 ms (medians on one thread of a 2-core Xeon), against 1.4, 1.7,
2.3, 5.5, 19 and 75 ms when the pattern was found by ``np.unique`` and
coo -> csr; the 129 x 129 level grows the process by 19 MB instead of
26 MB; and assembly takes 9.5 us instead of 19 us on the 5 x 5 mesh,
65 us instead of 229 us on 65 x 65.

The Dirichlet-eliminated interior block is gathered from the stiffness
data by precomputed positions.  On the row-major grid that block is a
band matrix with half-bandwidth m + 1 for m interior nodes per axis, so
it is factorized once per sampled field with LAPACK's banded Cholesky
(``dpbtrf``), and the state and adjoint solves share the factor
(``dpbtrs``).

Assembly, loads, quadrature values, solves and prolongation also take a
block of samples on a leading axis, each stage once over the block; only
the factor and its solves run per sample, so every sample's result is
bitwise the one it gives alone.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
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


# The type-1 triangulation couples node (i, j) with the nodes at these
# offsets (di, dj): a 7-point stencil, listed in ascending column order.
_STENCIL = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))

# For each stencil offset, the triangles that hold both nodes, in
# ascending triangle order: the cell (i + di, j + dj), its half (0 lower,
# 1 upper; lower triangles are numbered first) and the local vertex
# indices (k, l) of node (i, j) and of its neighbour.
_SHARED = (
    ((-1, -1, 0, 2, 0), (-1, -1, 1, 1, 0)),
    ((-1, 0, 0, 1, 0), (-1, -1, 1, 1, 2)),
    ((-1, -1, 0, 2, 1), (0, -1, 1, 2, 0)),
    ((-1, -1, 0, 2, 2), (-1, 0, 0, 1, 1), (0, 0, 0, 0, 0),
     (-1, -1, 1, 1, 1), (0, -1, 1, 2, 2), (0, 0, 1, 0, 0)),
    ((-1, 0, 0, 1, 2), (0, 0, 1, 0, 2)),
    ((0, 0, 0, 0, 1), (0, -1, 1, 2, 1)),
    ((0, 0, 0, 0, 2), (0, 0, 1, 0, 1)),
)
_CANDIDATES = np.array([c for shared in _SHARED for c in shared], dtype=np.int32)
_FIRST = np.cumsum([0] + [len(shared) for shared in _SHARED[:-1]])   # per offset
_AROUND = slice(_FIRST[3], _FIRST[4])    # the triangles around a node
# a node that is vertex k of triangle t touches the quadrature points of
# edges k and k - 1, which are 3t + _TOUCH, ascending
_TOUCH = np.array([[0, 2], [0, 1], [1, 2]], dtype=np.int32)[_CANDIDATES[_AROUND, 3]]


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers for the given entries per row, in 32 bits."""
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _stack_rows(n: int, first: np.ndarray, middle: np.ndarray,
                last: np.ndarray, step: int) -> np.ndarray:
    """A grid's array from the pieces of its rows 0, 1 and n - 1: rows 1
    to n - 2 repeat row 1's piece, shifted by ``step`` per row."""
    shift = step * np.arange(n - 2, dtype=np.int32)[:, None]
    return np.concatenate([first, (middle + shift).ravel(), last])


class FeLevel:
    """Uniform P1 mesh of the unit square with precomputed assembly data.

    Nodes are ordered row-major over the (n x n) grid; ``interior`` masks
    the non-Dirichlet nodes.  ``prolongation`` maps nodal values from the
    next coarser level (n odd, factor-2 nesting) into this level exactly.
    Every sparse operator is written in canonical CSR form (sorted
    columns, no duplicates) with 32-bit indices.
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
        nodes = np.empty((n, n, 2))
        nodes[:, :, 0] = xs[:, None]
        nodes[:, :, 1] = xs
        self.nodes = nodes.reshape(-1, 2)

        boundary = np.ones((n, n), dtype=bool)
        boundary[1:-1, 1:-1] = False
        self.boundary_mask = boundary.ravel()
        self.interior = np.flatnonzero(~self.boundary_mask)

        self._build_operators(self._build_triangles())
        self.prolongation: Optional[sp.csr_matrix] = None  # set by build_fe_level

    def quad_values(self, nodal: np.ndarray) -> np.ndarray:
        """Values of P1 functions at ``quad_points`` from their nodal
        values, (M,) or a block (B, M): each edge midpoint takes
        0.5 * (u[a] + u[b]) of its end nodes.  Halving is exact, so this
        is bitwise the sparse product with two weights of 0.5 per row.
        A block is gathered node-major, a row of B values per node, and
        returned as a (B, 3 ntri) view of that layout."""
        by_node = np.ascontiguousarray(nodal.T)
        out = by_node[self._quad_ends[0]]
        out += by_node[self._quad_ends[1]]
        out *= 0.5
        return out.T

    # -- mesh construction -------------------------------------------------

    def _build_triangles(self) -> np.ndarray:
        """Triangles and their geometry; returns the (3, 3, ntri) P1
        stiffness of every triangle for a unit coefficient."""
        n = self.nodes_per_axis
        cell = np.arange(n - 1, dtype=np.int32)
        v00 = (cell[:, None] * n + cell).ravel()
        v10 = v00 + n
        v01 = v00 + 1
        v11 = v10 + 1
        # diagonal v00 -- v11; lower triangle (v00,v10,v11), upper (v00,v11,v01)
        lower = np.stack([v00, v10, v11], axis=1)
        upper = np.stack([v00, v11, v01], axis=1)
        self.triangles = np.concatenate([lower, upper], axis=0)
        self.num_triangles = ntri = self.triangles.shape[0]
        self.tri_area = 0.5 * self.h**2

        p0, p1, p2 = (np.take(self.nodes, self.triangles[:, k], axis=0)
                      for k in range(3))
        self.centroids = (p0 + p1 + p2) / 3.0
        # edge midpoints per triangle: edge e joins local vertices e, e+1
        mids = np.empty((ntri, 3, 2))
        for e, (a, b) in enumerate(((p0, p1), (p1, p2), (p2, p0))):
            np.multiply(0.5, a + b, out=mids[:, e])
        self.quad_points = mids.reshape(-1, 2)       # (3*ntri, 2)

        # P1 basis gradients per triangle: grad phi_k from edge vectors
        e1, e2 = p1 - p0, p2 - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        grads = np.empty((3, 2, ntri))
        grads[1] = e2[:, 1] / det, -e2[:, 0] / det
        grads[2] = -e1[:, 1] / det, e1[:, 0] / det
        grads[0] = -grads[1] - grads[2]
        gx, gy = grads[:, 0], grads[:, 1]
        local = gx[:, None] * gx[None, :]
        local += gy[:, None] * gy[None, :]
        local *= self.tri_area
        return local

    def _build_operators(self, local: np.ndarray):
        # For the nodes of grid row i and each candidate triangle of the
        # stencil tables, ``tri`` is its index and ``held`` whether it
        # lies in the mesh.  Rows 1 to n - 2 see the same tables up to a
        # shift of every index, so they are built for rows 0, 1 and n - 1.
        n, M, ntri = self.nodes_per_axis, self.num_nodes, self.num_triangles
        di, dj, half, k, l = _CANDIDATES.T
        j = np.arange(n, dtype=np.int32)[:, None]
        cj = j + dj                                      # (n, 18)
        j_in = (cj >= 0) & (cj <= n - 2)
        offset = np.array([di * n + dj for di, dj in _STENCIL], dtype=np.int32)

        def row(i):
            """Row i's pieces, ordered by node, then by candidate."""
            ci = i + di
            held = j_in & (ci >= 0) & (ci <= n - 2)
            tri = (half * (n - 1) + ci) * (n - 1) + cj
            count = np.add.reduceat(held, _FIRST, axis=1)    # (n, 7)
            present = count > 0
            node = np.broadcast_to(i * n + j, present.shape)
            around = held[:, _AROUND]
            return {"tri": tri[held], "local": ((3 * k + l) * ntri + tri)[held],
                    "count": count[present], "rows": node[present],
                    "cols": (node + offset)[present], "row_size": present.sum(axis=1),
                    "quad": (3 * tri[:, _AROUND, None] + _TOUCH)[around].ravel(),
                    "touched": 2 * around.sum(axis=1)}

        # per row down the grid, triangle and quadrature indices move by a
        # row of cells, node indices by a row of nodes, and counts repeat
        step = {"tri": n - 1, "local": n - 1, "count": 0, "rows": n, "cols": n,
                "row_size": 0, "quad": 3 * (n - 1), "touched": 0}
        pieces = row(0), row(1), row(n - 1)
        grid = {name: _stack_rows(n, *(piece[name] for piece in pieces), shift)
                for name, shift in step.items()}
        count, rows, cols = grid["count"], grid["rows"], grid["cols"]

        # The pattern of the stiffness and mass matrices holds the stencil
        # neighbours that share a triangle with each node.  G maps
        # per-triangle coefficients to pattern entries (rows: pattern
        # entries; columns: their triangles, ascending; data: the unit
        # local stiffness), so the stiffness data for coefficient a is
        # G @ a, summed in the order of a scatter by triangle.
        indptr = _indptr(grid["row_size"])
        self._stiffness_map = sp.csr_matrix(
            (local.ravel()[grid.pop("local")], grid["tri"], _indptr(count)),
            shape=(cols.size, ntri))
        del local

        # consistent P1 mass: (A/12) * [[2,1,1],[1,2,1],[1,1,2]]; every
        # term of an entry has the same value, so the scatter's running
        # sum over its 1 to 6 triangles is a table lookup
        unit = self.tri_area / 12.0
        diag, off = (np.cumsum(np.full(6, unit * w)) for w in (2.0, 1.0))
        mass = np.where(rows == cols, diag[count - 1], off[count - 1])
        self.mass = sp.csr_matrix((mass, cols, indptr), shape=(M, M))
        self.mass_lumped = np.add.reduceat(mass, indptr[:-1])

        # b = Q f(quad_points): edge-midpoint rule, phi = 1/2 at the two
        # midpoints of edges touching the vertex, 0 at the opposite one
        quad = grid["quad"]
        self._load_op = sp.csr_matrix(
            (np.full(quad.size, self.tri_area / 3.0 * 0.5), quad,
             _indptr(grid["touched"])), shape=(M, 3 * ntri))
        # P1 evaluation at the quadrature points (for FE-function loads):
        # the midpoint of edge e averages its two vertices.  Kept as the
        # edges' end nodes, lower then upper, one row per end so that each
        # end's gather reads one contiguous index array; ``intp``, as numpy
        # would cast 32-bit indices on each use
        a, b = self.triangles, self.triangles[:, [1, 2, 0]]
        self._quad_ends = np.stack([np.minimum(a, b).ravel(),
                                    np.maximum(a, b).ravel()]).astype(np.intp)

        # data positions of the lower triangle of the Dirichlet-eliminated
        # interior block, with their flat positions in a C-ordered
        # (n_int, kd + 1) band array, whose transpose is LAPACK's lower
        # ``pb`` storage.  The half-bandwidth kd is at most m + 1 for m
        # interior nodes per axis, the offset of the diagonal neighbour.
        # Both index every sample's scatter, so they stay ``intp``: numpy
        # would cast 32-bit indices on each use.
        new_index = np.full(M, -1, dtype=np.intp)
        new_index[self.interior] = np.arange(self.interior.size)
        rows, cols = new_index[rows], new_index[cols]
        lower = (cols >= 0) & (rows >= cols)
        self._band_pos = np.flatnonzero(lower)
        rows, cols = rows[lower], cols[lower]
        self._band_kd = int((rows - cols).max())
        self._band_flat = cols * (self._band_kd + 1) + (rows - cols)


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
    # fine node (i, j) takes coarse node (i // 2, j // 2) and, off the
    # coarse nodes, the coarse node one step on: along i (nc), along j (1)
    # or along the cell diagonal (nc + 1) for a cell centre
    f = np.arange(nf, dtype=np.int32)
    first = ((f // 2)[:, None] * nc + f // 2).ravel()
    odd = f % 2
    step = (odd[:, None] * nc + odd).ravel()
    midpoint = step > 0
    parents = np.stack([first, first + step], axis=1)[
        np.stack([np.ones_like(midpoint), midpoint], axis=1)]
    weight = np.where(midpoint, 0.5, 1.0)
    counts = 1 + midpoint
    return sp.csr_matrix((np.repeat(weight, counts), parents, _indptr(counts)),
                         shape=(fine.num_nodes, coarse.num_nodes))


# -- assembly ----------------------------------------------------------------


def assemble_stiffness(lev: FeLevel, a: Union[np.ndarray, float]) -> sp.csr_matrix:
    """Stiffness matrix for coefficient ``a`` (full node set, symmetric).

    ``a`` holds one value per triangle (the coefficient at its centroid),
    or is a constant.  Dirichlet elimination happens in the solver, not
    here.  The result always has the level's fixed CSR pattern, explicit
    zeros included.

    A block of B coefficients, shape (B, ntri), gives the B matrices as
    one block-diagonal matrix of shape (B M, B M), sample by sample; its
    data are the columns of one product G @ a.T, each bitwise the data of
    its sample alone.
    """
    a = np.asarray(a, dtype=float)
    lead = a.shape[:-1]
    data = lev._stiffness_map @ np.broadcast_to(a, lead + (lev.num_triangles,)).T
    # the mass matrix has the same pattern: a shallow copy shares its index
    # arrays and takes data of its own, where the csr constructor would
    # re-check the format at more cost than the product on small levels
    if not lead:
        A = copy.copy(lev.mass)
        A.data = data
        return A
    B, M, nnz = lead[0], lev.num_nodes, lev.mass.nnz
    idx = np.int32 if B * nnz < 2**31 else np.intp
    first = np.arange(B, dtype=idx)[:, None]
    indptr = np.empty(B * M + 1, dtype=idx)
    indptr[:-1] = (lev.mass.indptr[:-1] + nnz * first).ravel()
    indptr[-1] = B * nnz
    return sp.csr_matrix((data.T.ravel(), (lev.mass.indices + M * first).ravel(),
                          indptr), shape=(B * M, B * M))


def assemble_load(lev: FeLevel, fq: np.ndarray) -> np.ndarray:
    """Load vector with the edge-midpoint quadrature rule, Dirichlet rows
    zeroed; ``fq`` holds the load's values at ``lev.quad_points``, or one
    row of them per sample, (B, 3 ntri), for a block of loads (B, M)."""
    b = lev._load_op @ np.asarray(fq).T
    b[lev.boundary_mask] = 0.0
    return b.T


# -- solver: banded Cholesky ---------------------------------------------------


def _lower_band(lev: FeLevel, data: np.ndarray) -> np.ndarray:
    """Lower band of the interior block of the stiffness matrix with
    ``data`` (its CSR data, or one row of them per sample) in LAPACK
    ``pb`` storage: per sample an F-ordered ``(kd + 1, n_int)`` view with
    ``ab[r - c, c] = A_int[r, c]``, behind the leading axes of ``data``."""
    n, kd = lev.interior.size, lev._band_kd
    lead = data.shape[:-1]
    band = np.zeros(lead + (n * (kd + 1),))
    # through the transposes: numpy's 1-D fast path for a single sample
    band.T[lev._band_flat] = data.T[lev._band_pos]
    return band.reshape(lead + (n, kd + 1)).swapaxes(-1, -2)


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
        # the full operator serves the residual check: with zero boundary
        # values its interior rows give A_int @ x_int, without building A_int
        self.A = A = assemble_stiffness(lev, a)
        # each F-ordered view is LAPACK's own layout, so f2py factors it in
        # place instead of copying it
        factors = []
        bands = _lower_band(lev, A.data.reshape(self.shape + (-1,)))
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
        r = b - (self.A @ x.ravel()).reshape(x.shape).T[lev.interior].T
        res, nb = _norms(r), _norms(b)
        ok = res <= self.rtol * nb
        if not ok.all():
            raise SolverDiverged(
                f"banded Cholesky solve left relative residual "
                f"{(res / nb)[~ok].flat[0]:.1e} above rtol={self.rtol}")
        return FeFunction(level=lev.level, nodal_values=x)


def prolong(f: FeFunction, levels: Sequence[FeLevel], to: int) -> FeFunction:
    """Inject a coarse FE function into a finer nested level (pointwise
    exact); a block of functions (B, M) is injected row by row."""
    if to < f.level:
        raise NestingViolation("prolongation target must be a finer level")
    vals = f.nodal_values
    for k in range(f.level + 1, to + 1):
        P = levels[k].prolongation
        if P is None or P.shape[1] != vals.shape[-1]:
            raise NestingViolation(f"no prolongation into level {k}")
        vals = (P @ vals.T).T
    return FeFunction(level=to, nodal_values=vals)


def l2_norm(lev: FeLevel, f: FeFunction) -> float:
    """L2(D) norm via the consistent mass matrix of ``f``'s level."""
    v = f.nodal_values
    return float(np.sqrt(max(v @ (lev.mass @ v), 0.0)))


def integrate(lev: FeLevel, nodal: np.ndarray) -> float:
    """Integral over D of the P1 interpolant of ``nodal`` values."""
    return float(lev.mass_lumped @ nodal)
