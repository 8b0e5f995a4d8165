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
default.  The sup norm of the projector equals the largest L1 norm of a
dual function, a row of M^{-1}; the same rows give the bound
(d+2)/2 * ||A^{-1}||_inf with A = D^{-1} M.
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
# Most vertex values the |linear| integrator gathers at once (rows of dual
# functions times simplices times d + 1); it bounds the temporary arrays.
_BLOCK_VALUES = 2**13
# Dual rows whose integrals are this close to the largest one tie for the
# witness of exact_operator_norm.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class CellwiseConstant:
    """One value per simplex.  Values must be finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidParameter("cellwise data must be a one-dimensional vector")
        if not np.isfinite(values).all():
            raise InvalidParameter("cellwise data must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def sup_norm(self):
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class SplineFunction:
    """Continuous piecewise-linear function given by its vertex values."""

    nodal_values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.nodal_values, dtype=float)
        if values.ndim != 1:
            raise InvalidParameter("nodal values must be a one-dimensional vector")
        if not np.isfinite(values).all():
            raise InvalidParameter("nodal values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "nodal_values", values)

    @property
    def sup_norm(self):
        """Sup norm of the spline; attained at a vertex since it is linear."""
        return float(np.abs(self.nodal_values).max())


@dataclass(frozen=True)
class NormalizedSystem:
    """Galerkin system rescaled to unit diagonal, A = D^{-1} M, b = D^{-1} F."""

    A: np.ndarray
    b: np.ndarray


def _cellwise_values(mesh, f):
    values = np.asarray(getattr(f, "values", f), dtype=float)
    if values.shape != (mesh.n_simplices,):
        raise LengthMismatch(
            f"expected one value per simplex ({mesh.n_simplices}), got {values.shape}"
        )
    return values


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
    values = _cellwise_values(mesh, f)
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


def _scaled_factor(M):
    # Factor S = D^{-1/2} M D^{-1/2}, not M: the entries of M span dozens of
    # orders of magnitude on the shrinking-square meshes, while the eigenvalues
    # of S lie in [1/2, (d+2)/2], so its factorization stays well conditioned.
    s = 1.0 / np.sqrt(M.diagonal())
    C = M.tocoo()
    S = sparse.csc_matrix((C.data * s[C.row] * s[C.col], (C.row, C.col)), shape=M.shape)
    try:
        return splu(S, permc_spec="MMD_AT_PLUS_A"), s
    except RuntimeError as exc:
        raise SolveFailure(f"mass matrix factorization failed: {exc}") from exc


def solve_with_load(mesh, load):
    """Solve M x = load; return x and the normalized residual
    ||D^{-1}(M x - load)||_inf / ||D^{-1} load||_inf, which unlike max|M x - load|
    sees errors on the tiny inner rows of a graded mesh.  Above RESIDUAL_RTOL
    the solve raises SolveFailure."""
    load = np.asarray(load, dtype=float)
    if load.shape != (mesh.n_vertices,):
        raise LengthMismatch(
            f"expected one load entry per vertex ({mesh.n_vertices}), got {load.shape}"
        )
    M = assemble_mass(mesh)
    lu, s = _scaled_factor(M)
    x = s * lu.solve(s * load)
    diag = M.diagonal()
    error = float(np.abs((M @ x - load) / diag).max())
    scale = float(np.abs(load / diag).max())
    residual = error / scale if scale else error
    # written so that a NaN residual fails and a zero load passes
    if not error <= RESIDUAL_RTOL * scale:
        raise SolveFailure(
            f"projection solve left normalized residual {residual:.3e} "
            f"(allowed {RESIDUAL_RTOL:.0e})",
            residual=residual,
        )
    return x, residual


def project(mesh, f):
    """L2 projection of cellwise-constant data onto the linear splines."""
    return SplineFunction(solve_with_load(mesh, assemble_load(mesh, f))[0])


def dual_basis(M):
    """Nodal values of the dual functions, i.e. the rows of M^{-1}.

    M is the mesh's mass matrix (assemble_mass).  Row P is the spline
    biorthogonal to the hat at vertex P; the exact operator norm of the
    projection is the largest L1 norm among these rows.
    """
    lu, s = _scaled_factor(M)
    Minv = s[:, None] * lu.solve(np.diag(s))
    return (Minv + Minv.T) / 2


def _abs_integrals(mesh, rows):
    """Exact integral of |g| for each spline g whose vertex values are a row.

    On a simplex where g does not change sign the integral is volume times
    |mean|.  Otherwise the simplex is split along the zero of g on one
    sign-changing edge, from the first positive vertex i to the first negative
    vertex j: the zero sits at barycentric position theta = v_i / (v_i - v_j),
    and the two children keep all values except that v_j (resp. v_i) is
    replaced by 0; their volumes are theta and (1 - theta) times the parent
    volume.  Values within _SIGN_RTOL of a simplex's own largest |value| count
    as zero.  Each split zeroes one nonzero vertex value and a simplex needs
    two to change sign, so no simplex is split more than d times.

    All simplices of a block of rows are split together, one level at a time;
    the block holds at most _BLOCK_VALUES vertex values.
    """
    simp = mesh.simplices
    n_simp, k = simp.shape
    totals = np.zeros(len(rows))
    step = max(1, _BLOCK_VALUES // (n_simp * k))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        vals = block[:, simp].reshape(-1, k)
        volume = np.tile(mesh.simplex_volumes, len(block))
        owner = np.repeat(np.arange(len(block)), n_simp)
        while len(vals):
            thr = _SIGN_RTOL * np.abs(vals).max(axis=1, keepdims=True)
            pos = vals > thr
            neg = vals < -thr
            mixed = pos.any(axis=1) & neg.any(axis=1)
            flat = ~mixed
            totals[start:start + len(block)] += np.bincount(
                owner[flat],
                weights=volume[flat] * np.abs(vals[flat].mean(axis=1)),
                minlength=len(block),
            )
            vals, volume, owner = vals[mixed], volume[mixed], owner[mixed]
            at = np.arange(len(vals))
            i = pos[mixed].argmax(axis=1)
            j = neg[mixed].argmax(axis=1)
            theta = vals[at, i] / (vals[at, i] - vals[at, j])
            child_a = vals.copy()
            child_a[at, j] = 0.0
            vals[at, i] = 0.0
            vals = np.concatenate([child_a, vals])
            volume = np.concatenate([theta * volume, (1.0 - theta) * volume])
            owner = np.concatenate([owner, owner])
    return totals


def spline_abs_integral(mesh, nodal_values):
    """Exact integral of |g| for the spline with the given vertex values."""
    nodal = np.asarray(nodal_values, dtype=float)
    if nodal.shape != (mesh.n_vertices,):
        raise LengthMismatch(
            f"expected one nodal value per vertex ({mesh.n_vertices}), got {nodal.shape}"
        )
    return float(_abs_integrals(mesh, nodal[None, :])[0])


class OperatorNorm(NamedTuple):
    norm: float
    witness: int
    ainv_bound: float


def exact_operator_norm(mesh):
    """Exact sup-norm operator norm, its witness vertex and the A^{-1} bound.

    The norm equals max_P integral of |psi_P| where psi_P are the dual
    functions.  The witness is the smallest vertex id whose integral is
    within a relative 1e-12 of the norm, so roundoff in the order of the
    summation cannot move it between tied vertices.
    """
    M = assemble_mass(mesh)
    dual = dual_basis(M)
    totals = _abs_integrals(mesh, dual)
    best = float(totals.max())
    witness = int(np.argmax(totals >= best * (1.0 - _TIE_RTOL)))
    return OperatorNorm(best, witness, inverse_infinity_norm_bound(mesh, M, dual))


def inverse_infinity_norm_bound(mesh, M, dual):
    """Upper bound (d+2)/2 * ||A^{-1}||_inf for the exact operator norm.

    M is the mesh's mass matrix and dual holds the rows of M^{-1}
    (dual_basis); since A^{-1} = M^{-1} D,
    ||A^{-1}||_inf = max_P sum_Q |psi_P(Q)| M_QQ."""
    return 0.5 * (mesh.dim + 2) * float((np.abs(dual) @ M.diagonal()).max())


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


@dataclass
class ProjectionReport:
    """Everything a projection run reports; serializes to a JSON-ready dict."""

    mesh_data: dict
    nodal_values: np.ndarray | None = None
    sup_norm: float | None = None
    residual: float | None = None
    exact_operator_norm: float | None = None
    ainv_bound: float | None = None
    c0: float | None = None
    prop1_bound: float | None = None

    def to_dict(self):
        return {
            "mesh": self.mesh_data,
            "nodal_values": None
            if self.nodal_values is None
            else np.asarray(self.nodal_values, dtype=float).tolist(),
            "sup_norm": self.sup_norm,
            "residual": self.residual,
            "exact_operator_norm": self.exact_operator_norm,
            "ainv_bound": self.ainv_bound,
            "c0": self.c0,
            "prop1_bound": self.prop1_bound,
        }
