"""L2 projection onto continuous piecewise-linear splines.

The projection of cellwise-constant data f solves M x = F with the hat-basis
mass matrix M and load F.  On one simplex of volume V in dimension d the mass
contribution is V * (1 + delta_ij) / ((d+1)(d+2)) and the load contribution is
f * V / (d+1), so everything is assembled in closed form; no quadrature is
involved anywhere in this module.

A single load (solve_with_load, behind project) is first solved by
conjugate gradients preconditioned by the diagonal D of M (Jacobi-CG) when
the iteration budget that the spectrum of D^{-1} M, [1/2, (d+2)/2], gives
for the mesh's dimension, size and grading is at most _CG_MAX_ITER: that is
quasi-uniform meshes, not the shrinking-square ones.  The CG iterate is kept
only if its true normalized residual ||D^{-1}(F - M x)||_inf /
||D^{-1} F||_inf, recomputed from M, x and F, is within _CG_RTOL (4 machine
epsilons).  Every other solve, the fallback of a refused iterate and all
dual rows of the norm, goes through one sparse LU factorization of the
symmetrically scaled S = D^{-1/2} M D^{-1/2}, its columns in the symmetric
minimum-degree order of S + S^T (MMD_AT_PLUS_A): S is symmetric, and on
large meshes that order keeps about half the fill of the COLAMD default;
those solves pass the same normalized-residual gate at RESIDUAL_RTOL.
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
pyramid joins, where nearly every other row is then pruned.  On a 2D mesh
the same M also gives c0, the smallest off-diagonal entry of A, and with it
Proposition 1's coupling bound (1 + 2 c0) / c0^2 on the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import InvalidParameter, LengthMismatch, SolveFailure

# Largest normalized residual (see _residual_gate) a solve may leave.
RESIDUAL_RTOL = 1e-10
# Normalized residual a Jacobi-CG iterate must reach to be kept: 4 machine
# epsilons, 8.9e-16.  Rounding in M x alone leaves a few epsilons, and the LU
# leaves 1-4e-16 on quasi-uniform meshes, so a kept iterate is as accurate as
# the factorization it replaces.
_CG_RTOL = 4 * np.finfo(float).eps
# ln(2 / tau) for tau = _CG_RTOL, the constant term of _cg_budget.
_CG_LOG_TARGET = math.log(2.0 / _CG_RTOL)
# Largest Jacobi-CG budget (_cg_budget) that is run before the LU: a
# quasi-uniform mesh (g <= 10) with 10^6 vertices in d = 5 needs 56, while
# the graded meshes need hundreds (287 on cx J=60 at t = 0.01), where one
# factorization costs less.
_CG_MAX_ITER = 64

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
    return np.bincount(mesh.simplices.ravel(), np.repeat(contrib, mesh.dim + 1),
                       mesh.n_vertices)


def normalized_system(mesh, f):
    M = assemble_mass(mesh)
    diag = M.diagonal()
    b = assemble_load(mesh, f) / diag
    A = M.toarray() / diag[:, None]
    return NormalizedSystem(A=A, b=b)


def _residual_gate(M, diag, x, b, rtol):
    """(passed, residual) of a solution x of M x = b, diag the diagonal D of M.

    b is a vector or a block of columns; residual is the largest
    ||D^{-1}(M x - b)||_inf / ||D^{-1} b||_inf over the columns, which unlike
    max|M x - b| sees errors on the tiny inner rows of a graded mesh, and
    passed says whether every column is within rtol.
    """
    db = diag[:, None] if b.ndim == 2 else diag
    error = np.abs((M @ x - b) / db).max(axis=0)
    scale = np.abs(b / db).max(axis=0)
    residual = float(np.max(error / np.where(scale > 0, scale, 1.0)))
    # written so that a NaN residual fails and a zero load passes
    return bool(np.all(error <= rtol * scale)), residual


def _mass_solver(M):
    """Factor M once and return solve(b) -> (x, residual) for M x = b.

    The factor is of S = D^{-1/2} M D^{-1/2}, not M: the entries of M span
    dozens of orders of magnitude on the shrinking-square meshes, while the
    eigenvalues of S lie in [1/2, (d+2)/2], so its factorization stays well
    conditioned.  b is a vector or a block of columns; residual is the
    normalized residual of _residual_gate, and above RESIDUAL_RTOL solve
    raises SolveFailure.
    """
    diag = M.diagonal()
    s = 1.0 / np.sqrt(diag)
    # tocsc() returns M itself when M is CSC: scale a copy, M stays for the gate
    S = M.tocsc(copy=True)
    S.data = S.data * s[S.indices] * s[np.repeat(np.arange(S.shape[1]), np.diff(S.indptr))]
    try:
        lu = splu(S, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolveFailure(f"mass matrix factorization failed: {exc}") from exc

    def solve(b):
        sb = s[:, None] if b.ndim == 2 else s
        x = sb * lu.solve(sb * b)
        passed, residual = _residual_gate(M, diag, x, b, RESIDUAL_RTOL)
        if not passed:
            raise SolveFailure(
                f"projection solve left normalized residual {residual:.3e} "
                f"(allowed {RESIDUAL_RTOL:.0e})",
                residual=residual,
            )
        return x, residual

    return solve


def _cg_budget(d, diag):
    """Jacobi-CG iterations after which the normalized residual is below _CG_RTOL.

    With x_0 = 0 the error e_k of CG on M x = F preconditioned by D falls as
    ||e_k||_M <= 2 rho^k ||x||_M, rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1),
    and kappa <= d + 2 since D^{-1} M has its spectrum in [1/2, (d+2)/2]
    (Wathen 1987).  With n vertices and g = max M_PP / min M_PP,
    ||D^{-1} r||_inf / ||D^{-1} F||_inf <= sqrt(kappa n g) ||e||_M / ||x||_M,
    so k >= ln(2 sqrt(kappa n g) / tau) / ln(1 / rho) iterations suffice;
    this returns that bound unrounded, inf when g overflows.
    """
    kappa = d + 2
    rho = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    g = float(diag.max()) / float(diag.min())
    return (_CG_LOG_TARGET + 0.5 * math.log(kappa * len(diag) * g)) / -math.log(rho)


def _jacobi_cg(M, diag, F, budget):
    """(x, residual) from at most budget Jacobi-CG steps on M x = F, or None.

    An iterate is returned only when its true normalized residual, recomputed
    from M, x and F by _residual_gate, is within _CG_RTOL.  The recursive
    residual r only says when to look: on graded meshes it falls below
    _CG_RTOL while the true one stalls (near 2e-14 on cx J=60, t = 0.01).
    """
    x = np.zeros_like(F)
    r = F.copy()
    z = r / diag
    p = z.copy()
    rz = r @ z
    target = _CG_RTOL * np.abs(z).max()
    for _ in range(budget + 1):
        if np.abs(z).max() <= target:
            passed, residual = _residual_gate(M, diag, x, F, _CG_RTOL)
            if passed:
                return x, residual
        if not rz > 0.0:  # r = 0 or not finite: no step left to take
            return None
        q = M @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = r / diag
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return None


def solve_with_load(mesh, load):
    """Solve M x = load; return x and its normalized residual (_residual_gate).

    When the Jacobi-CG budget of the mesh (_cg_budget, from its dimension,
    vertex count and grading) is at most _CG_MAX_ITER, CG runs first and its
    iterate is kept if its normalized residual is within _CG_RTOL; otherwise,
    and on every graded mesh, the scaled LU of _mass_solver solves, through
    its RESIDUAL_RTOL gate.
    """
    load = _vector_of_length(load, mesh.n_vertices, "load entry per vertex")
    M = assemble_mass(mesh)
    diag = M.diagonal()
    budget = _cg_budget(mesh.dim, diag)
    if budget <= _CG_MAX_ITER:
        solved = _jacobi_cg(M, diag, load, math.ceil(budget))
        if solved is not None:
            return solved
    return _mass_solver(M)(load)


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
    while True:
        vmax = vals.max(axis=0)
        vmin = vals.min(axis=0)
        thr = _SIGN_RTOL * np.maximum(vmax, -vmin)
        pos = vals > thr
        neg = vals < -thr
        mixed = (vmax > thr) & (vmin < -thr)
        lone_pos = mixed & (pos.sum(axis=0) == 1)
        split = mixed & ~lone_pos & (neg.sum(axis=0) != 1)
        lone = np.flatnonzero(mixed ^ split)
        mean = vals.sum(axis=0) / k
        part = np.abs(mean)
        # the lone value is the only one beyond the threshold on its side
        a = np.where(lone_pos[lone], vmax[lone], vmin[lone])
        ratio = 1.0
        for v in vals[:, lone]:  # the order of np.prod(axis=0)
            ratio = ratio * (a / np.where(v == a, a, a - v))  # 1 at the lone vertex, no 0/0
        part[lone] = 2.0 * np.abs(a) / k * ratio - np.sign(a) * mean[lone]
        if not split.any():  # every call in 1D and 2D ends at the first level
            return totals + np.bincount(owner, weights=volume * part, minlength=len(rows))
        done = ~split
        totals += np.bincount(owner[done], weights=volume[done] * part[done],
                              minlength=len(rows))
        split = np.flatnonzero(split)
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


class OperatorNorm(NamedTuple):
    norm: float
    witness: int
    ainv_bound: float
    c0: float | None

    @property
    def prop1_bound(self):
        """Proposition 1's bound (1 + 2 c0) / c0^2 on the norm; None off 2D.

        It deteriorates as c0 -> 0, which is what the shrinking-square family
        exhibits; c0**2 is 0.0 from c0 below about 1e-162, where the bound
        overflows anyway, and the bound is then inf.
        """
        if self.c0 is None:
            return None
        square = self.c0**2
        return (1.0 + 2.0 * self.c0) / square if square > 0.0 else math.inf


def exact_operator_norm(mesh):
    """Exact sup-norm operator norm, its witness vertex, the A^{-1} bound and c0.

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
    A^{-1} = M^{-1} D.  On a 2D mesh c0 is the smallest off-diagonal entry
    of A over neighboring vertex pairs, read from the same M, and the
    result's prop1_bound is Proposition 1's bound from it; off 2D c0 is None.
    """
    M = assemble_mass(mesh)
    solve = _mass_solver(M)
    n = mesh.n_vertices
    step = max(1, _BLOCK_VALUES // mesh.simplices.size)
    diag = M.diagonal()
    c0 = None
    if mesh.dim == 2:
        coo = M.tocoo()
        off = coo.row != coo.col
        c0 = float((coo.data[off] / diag[coo.row[off]]).min())
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
        if keep.any():
            totals[start:stop][keep] = _abs_integrals(mesh, psi[keep])
        best = max(best, float(totals[start:stop].max()))
    witness = int(np.argmax(totals >= best * (1.0 - _TIE_RTOL)))
    return OperatorNorm(best, witness, half * row_sum, c0)
