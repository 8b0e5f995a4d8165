"""L2 projection onto continuous piecewise-linear splines.

The projection of cellwise-constant data f solves M x = F with the hat-basis
mass matrix M and load F.  On one simplex of volume V in dimension d the mass
contribution is V * (1 + delta_ij) / ((d+1)(d+2)) and the load contribution is
f * V / (d+1), so everything is assembled in closed form; no quadrature is
involved anywhere in this module.

Every solve goes through one sparse LU factorization of the symmetrically
scaled S = D^{-1/2} M D^{-1/2} (D the diagonal of M), its columns in the
symmetric minimum-degree order of S + S^T (MMD_AT_PLUS_A): S is symmetric,
and on large meshes that order keeps about half the fill of the COLAMD
default.  Every solve passes the normalized-residual gate of _mass_solver.
The sup norm of the projector equals the largest L1 norm of a dual function,
a row of M^{-1}; exact_operator_norm solves for the rows in blocks and never
holds M^{-1} whole.  The same rows give the bound (d+2)/2 * ||A^{-1}||_inf
with A = D^{-1} M, and per row the certificate
U_P = (d+2)/2 * sum_Q |psi_P(Q)| M_QQ >= integral |psi_P|, since
|sum_Q c_Q phi_Q| <= sum_Q |c_Q| phi_Q and integral phi_Q = (d+2)/2 * M_QQ.
Rows whose certificate falls below the best integral so far (less the tie
band) cannot be the norm or its witness and are not integrated.  The block
of the most refined vertex (smallest M_PP) goes first, since its dual
function has the largest integral on the shrinking-square meshes and their
pyramid joins, where nearly every other row is then pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import (
    InvalidParameter,
    LengthMismatch,
    SolveFailure,
    UnsupportedDimension,
)

# Largest normalized residual (see solve_with_load) a solve may leave.
RESIDUAL_RTOL = 1e-10

# Sign classification threshold for the exact |linear| integrator: values
# within 1e-14 of the local scale count as zero.
_SIGN_RTOL = 1e-14
# Most vertex values the |linear| integrator gathers at once (dual rows times
# simplices times d + 1); exact_operator_norm sizes its blocks of rows by it.
_BLOCK_VALUES = 2**13
# Dual rows whose integrals are this close to the largest one tie for the
# witness of exact_operator_norm.
_TIE_RTOL = 1e-12
# Rounding allowance of the pruning test of exact_operator_norm: a row is
# integrated unless its bound U_P is below the tie threshold by more than
# this relative margin.  U_P and the integral of |psi_P| are sums of
# nonnegative terms whose rounding stays well below it on meshes of a few
# thousand vertices, and on every mesh measured U_P exceeds the integral by
# 1% or more, so no pruned row's integral comes near the threshold.
_PRUNE_RTOL = 1e-13


def _finite_vector(values, what):
    """values as a read-only float copy; InvalidParameter unless 1-D and finite."""
    values = np.array(values, dtype=float)
    if values.ndim != 1:
        raise InvalidParameter(f"{what} must be a one-dimensional vector")
    if not np.isfinite(values).all():
        raise InvalidParameter(f"{what} must be finite")
    values.setflags(write=False)
    return values


def _vector_of_length(values, n, what):
    """values as a float array; LengthMismatch unless its shape is (n,)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise LengthMismatch(f"expected one {what} ({n}), got {values.shape}")
    return values


@dataclass(frozen=True)
class CellwiseConstant:
    """One value per simplex.  Values must be finite."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_vector(self.values, "cellwise data"))

    @property
    def sup_norm(self):
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class SplineFunction:
    """Continuous piecewise-linear function given by its vertex values."""

    nodal_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodal_values",
                           _finite_vector(self.nodal_values, "nodal values"))

    @property
    def sup_norm(self):
        """Sup norm of the spline; attained at a vertex since it is linear."""
        return float(np.abs(self.nodal_values).max())


@dataclass(frozen=True)
class NormalizedSystem:
    """Galerkin system rescaled to unit diagonal, A = D^{-1} M, b = D^{-1} F."""

    A: np.ndarray
    b: np.ndarray


def assemble_mass(mesh):
    """Sparse hat-function mass matrix, assembled in closed form.

    Entry (P, Q) is sum over shared simplices of V * (1 + delta_PQ)
    / ((d+1)(d+2)); in 2D that is |star(P)| / 6 on the diagonal and the shared
    area / 12 off it.
    """
    d = mesh.dim
    simp = mesh.simplices
    scale = mesh.simplex_volumes / ((d + 1) * (d + 2))
    local = np.ones((d + 1, d + 1)) + np.eye(d + 1)
    vals = scale[:, None, None] * local
    rows = np.broadcast_to(simp[:, :, None], vals.shape)
    cols = np.broadcast_to(simp[:, None, :], vals.shape)
    n = mesh.n_vertices
    M = sparse.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    ).tocsr()
    M.sum_duplicates()
    return M


def assemble_load(mesh, f):
    """Load vector (f, phi_P): each simplex donates f * V / (d+1) per vertex."""
    values = _vector_of_length(getattr(f, "values", f), mesh.n_simplices,
                               "value per simplex")
    contrib = values * mesh.simplex_volumes / (mesh.dim + 1)
    F = np.zeros(mesh.n_vertices)
    np.add.at(F, mesh.simplices, contrib[:, None])
    return F


def normalized_system(mesh, f):
    M = assemble_mass(mesh)
    diag = M.diagonal()
    b = assemble_load(mesh, f) / diag
    A = M.toarray() / diag[:, None]
    return NormalizedSystem(A=A, b=b)


def _mass_solver(M):
    """Factor M once and return solve(b) -> (x, residual) for M x = b.

    The factor is of S = D^{-1/2} M D^{-1/2}, not M: the entries of M span
    dozens of orders of magnitude on the shrinking-square meshes, while the
    eigenvalues of S lie in [1/2, (d+2)/2], so its factorization stays well
    conditioned.  b is a vector or a block of columns; residual is the largest
    ||D^{-1}(M x - b)||_inf / ||D^{-1} b||_inf over the columns, which unlike
    max|M x - b| sees errors on the tiny inner rows of a graded mesh.  Above
    RESIDUAL_RTOL solve raises SolveFailure.
    """
    diag = M.diagonal()
    s = 1.0 / np.sqrt(diag)
    C = M.tocoo()
    S = sparse.csc_matrix((C.data * s[C.row] * s[C.col], (C.row, C.col)), shape=M.shape)
    try:
        lu = splu(S, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolveFailure(f"mass matrix factorization failed: {exc}") from exc

    def solve(b):
        sb, db = (s[:, None], diag[:, None]) if b.ndim == 2 else (s, diag)
        x = sb * lu.solve(sb * b)
        error = np.abs((M @ x - b) / db).max(axis=0)
        scale = np.abs(b / db).max(axis=0)
        residual = float(np.max(error / np.where(scale > 0, scale, 1.0)))
        # written so that a NaN residual fails and a zero load passes
        if not np.all(error <= RESIDUAL_RTOL * scale):
            raise SolveFailure(
                f"projection solve left normalized residual {residual:.3e} "
                f"(allowed {RESIDUAL_RTOL:.0e})",
                residual=residual,
            )
        return x, residual

    return solve


def solve_with_load(mesh, load):
    """Solve M x = load; return x and its normalized residual (_mass_solver)."""
    load = _vector_of_length(load, mesh.n_vertices, "load entry per vertex")
    return _mass_solver(assemble_mass(mesh))(load)


def project(mesh, f):
    """L2 projection of cellwise-constant data onto the linear splines."""
    return SplineFunction(solve_with_load(mesh, assemble_load(mesh, f))[0])


def _abs_integrals(mesh, rows):
    """Exact integral of |g| for each spline g whose vertex values are a row.

    Values within _SIGN_RTOL of a simplex's own largest |value| count as
    zero.  Each simplex of volume V in dimension d is then integrated by one
    of three rules:

    - no sign change: V |mean|, with mean the mean of the vertex values;
    - a lone vertex, the only one with its sign, of value a at vertex i: the
      part of the simplex where g has the sign of a is the corner at i cut
      off where g vanishes on each edge i-j, at fractions a / (a - v_j), so
      integral |g| = 2 integral g_+ - integral g (for a > 0) gives
      V (2 |a| / (d+1) prod_{j != i} a / (a - v_j) - sign(a) mean).
      This ratio form keeps every factor in (0, 1] (up to sub-threshold
      values), so it cannot overflow or underflow as the textbook
      a^(d+1) / prod (a - v_j) does once the values of a graded mesh reach
      1e+-150; the subtraction loses at most a factor of 2.  In 1D and 2D
      every sign change is of this kind;
    - otherwise (two or more vertices of each sign, from 3D on) the simplex
      is split along the zero of g on one sign-changing edge, from the first
      positive vertex i to the first negative vertex j: the zero sits at
      barycentric position theta = v_i / (v_i - v_j), and the two children
      keep all values except that v_j (resp. v_i) is replaced by 0; their
      volumes are theta and (1 - theta) times the parent volume.  Each split
      zeroes one nonzero vertex value and a simplex needs two to change sign,
      so no simplex is split more than d times.

    All simplices of all rows are handled together, one level of splits at a
    time, so callers bound the temporary arrays by the number of rows they
    pass.
    """
    simp = mesh.simplices
    n_simp, k = simp.shape
    # one column per (row, simplex) pair and one array row per simplex vertex,
    # contiguous, so the reductions over a simplex's vertices are elementwise
    vals = np.ascontiguousarray(rows[:, simp.T].swapaxes(0, 1)).reshape(k, -1)
    volume = np.tile(mesh.simplex_volumes, len(rows))
    owner = np.repeat(np.arange(len(rows)), n_simp)
    totals = np.zeros(len(rows))
    while vals.shape[1]:
        vmax = vals.max(axis=0)
        vmin = vals.min(axis=0)
        thr = _SIGN_RTOL * np.maximum(vmax, -vmin)
        pos = vals > thr
        neg = vals < -thr
        mixed = (vmax > thr) & (vmin < -thr)
        lone_pos = mixed & (pos.sum(axis=0) == 1)
        lone = lone_pos | (mixed & (neg.sum(axis=0) == 1))
        mean = vals.sum(axis=0) / k
        part = np.abs(mean)
        lv = vals[:, lone]
        # the lone value is the only one beyond the threshold on its side
        a = np.where(lone_pos[lone], vmax[lone], vmin[lone])
        gap = np.where(lv == a, a, a - lv)  # factor 1 at the lone vertex, no 0/0
        ratio = np.prod(a / gap, axis=0)
        part[lone] = 2.0 * np.abs(a) / k * ratio - np.sign(a) * mean[lone]
        split = mixed & ~lone
        done = ~split
        totals += np.bincount(owner[done], weights=volume[done] * part[done],
                              minlength=len(rows))
        vals, volume, owner = vals[:, split], volume[split], owner[split]
        at = np.arange(vals.shape[1])
        i = pos[:, split].argmax(axis=0)
        j = neg[:, split].argmax(axis=0)
        theta = vals[i, at] / (vals[i, at] - vals[j, at])
        child_a = vals.copy()
        child_a[j, at] = 0.0
        vals[i, at] = 0.0
        vals = np.concatenate([child_a, vals], axis=1)
        volume = np.concatenate([theta * volume, (1.0 - theta) * volume])
        owner = np.concatenate([owner, owner])
    return totals


def spline_abs_integral(mesh, nodal_values):
    """Exact integral of |g| for the spline with the given vertex values."""
    nodal = _vector_of_length(nodal_values, mesh.n_vertices, "nodal value per vertex")
    return float(_abs_integrals(mesh, nodal[None, :])[0])


class OperatorNorm(NamedTuple):
    norm: float
    witness: int
    ainv_bound: float


def exact_operator_norm(mesh):
    """Exact sup-norm operator norm, its witness vertex and the A^{-1} bound.

    The norm is max_P integral of |psi_P| over the dual functions psi_P, the
    rows of M^{-1}; they are solved for through the residual gate one block
    of unit columns at a time (rows times simplices times d + 1 at most
    _BLOCK_VALUES) and dropped once used.  The block holding the vertex with
    the smallest M_PP goes first and is integrated whole; after it, a row is
    integrated only if its certificate U_P = (d+2)/2 * sum_Q |psi_P(Q)| M_QQ,
    an upper bound on its integral, reaches the best integral so far less
    the tie band (and a rounding allowance), so every row that could be the
    norm or tie with it is integrated.  The witness is the smallest vertex id
    whose integral is within a relative 1e-12 of the norm, so roundoff in the
    order of the summation cannot move it between tied vertices.  The bound
    is (d+2)/2 * ||A^{-1}||_inf = max_P U_P over every row, since
    A^{-1} = M^{-1} D.
    """
    M = assemble_mass(mesh)
    return _operator_norm(mesh, M, _mass_solver(M))


def _operator_norm(mesh, M, solve):
    """exact_operator_norm for the mass matrix M of mesh and solve = _mass_solver(M)."""
    n = mesh.n_vertices
    step = max(1, _BLOCK_VALUES // mesh.simplices.size)
    diag = M.diagonal()
    half = 0.5 * (mesh.dim + 2)
    seed = int(np.argmin(diag)) // step * step
    totals = np.zeros(n)
    best = row_sum = 0.0
    for start in [seed, *range(0, seed, step), *range(seed + step, n, step)]:
        stop = min(start + step, n)
        psi = solve(np.eye(n, stop - start, -start))[0].T
        sums = np.abs(psi) @ diag
        row_sum = max(row_sum, float(sums.max()))
        # best is 0 for the seed block, which keeps all of it
        keep = half * sums >= best * (1.0 - _TIE_RTOL) * (1.0 - _PRUNE_RTOL)
        if keep.all():
            totals[start:stop] = _abs_integrals(mesh, psi)
        elif keep.any():
            totals[start:stop][keep] = _abs_integrals(mesh, psi[keep])
        best = max(best, float(totals[start:stop].max()))
    witness = int(np.argmax(totals >= best * (1.0 - _TIE_RTOL)))
    return OperatorNorm(best, witness, half * row_sum)


class Proposition1Result(NamedTuple):
    c0: float
    bound: float
    exact_norm: float
    satisfied: bool


def proposition1_check(mesh, exact_norm):
    """Compare an exact norm against (1 + 2 c0) / c0^2, c0 = min coupling.

    exact_norm is the mesh's exact operator norm, as exact_operator_norm
    returns it.  c0 is the smallest off-diagonal entry of A over neighboring
    vertex pairs.  Defined for 2D meshes; the bound deteriorates as c0 -> 0,
    which is exactly what the shrinking-square family exhibits.
    """
    if mesh.dim != 2:
        raise UnsupportedDimension("the coupling-based bound is stated for 2D meshes")
    M = assemble_mass(mesh)
    diag = M.diagonal()
    M = M.tocoo()
    off = M.row != M.col
    c0 = float((M.data[off] / diag[M.row[off]]).min())
    bound = (1.0 + 2.0 * c0) / c0**2
    return Proposition1Result(c0=c0, bound=bound, exact_norm=exact_norm,
                              satisfied=exact_norm <= bound + 1e-8)
