"""Norm-growth experiments on the shrinking-square partitions.

The oscillating witness assigns the value (-1)^j to every simplex of ring j
(the region between squares j-1 and j, with the innermost fan counting as
ring J+1).  Projecting it produces nodal values that alternate and grow
linearly in the ring index; as t -> 0 the normalized Galerkin system,
collapsed onto the rotation orbits, converges to an explicit bidiagonal limit
system whose solution has sup norm 2J+1.  This module builds the reductions,
the limit systems and the parameter sweeps that exhibit the growth.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import InvalidParameter, NotEquivariant
from .mesh import (
    build_counterexample_2d,
    build_pyramid_partition,
    check_integer,
    symmetry_generators,
    symmetry_orbits,
    vertex_roles,
)
from .projection import (
    CellwiseConstant,
    exact_operator_norm,
    normalized_system,
    project,
)

# Orbit rows must agree to this absolute tolerance before a system is
# accepted as equivariant (entries of A are O(1) after normalization).
_EQUIVARIANCE_ATOL = 1e-12


def oscillating_data(mesh):
    """Cellwise data (-1)^j on ring j of a shrinking-square mesh.

    The ring of a simplex is the largest ring index among its vertices, so the
    innermost fan (touching the center) counts as ring J+1.  Works for the 2D
    family and its pyramid joins; requires constructor labels.
    """
    ring, _, _, _ = vertex_roles(mesh)
    simplex_ring = ring[mesh.simplices].max(axis=1)
    values = np.where(simplex_ring % 2 == 0, 1.0, -1.0)
    return CellwiseConstant(values)


@dataclass(frozen=True)
class ReducedSystem:
    """Orbit-collapsed linear system; expand() maps solutions back to vertices."""

    matrix: np.ndarray
    rhs: np.ndarray
    orbit_of: np.ndarray

    @property
    def n_orbits(self):
        return self.rhs.shape[0]

    def solve(self):
        return np.linalg.solve(self.matrix, self.rhs)

    def expand(self, reduced_solution):
        return np.asarray(reduced_solution)[self.orbit_of]


def reduce_by_symmetry(system, orbits):
    """Collapse a normalized system onto vertex orbits.

    Column sums pool the couplings into each orbit; the rows of members of one
    orbit must then coincide (as must their right-hand sides), otherwise the
    system is not equivariant under the group and NotEquivariant is raised.
    """
    A, b = system.A, system.b
    k = orbits.n_orbits
    n = b.shape[0]
    S = np.zeros((n, k))
    for r, orb in enumerate(orbits.orbits):
        S[orb, r] = 1.0
    collapsed = A @ S
    matrix = np.empty((k, k))
    rhs = np.empty(k)
    for r, orb in enumerate(orbits.orbits):
        rows = collapsed[orb]
        if np.abs(rows - rows[0]).max() > _EQUIVARIANCE_ATOL:
            raise NotEquivariant(
                f"orbit {r} rows differ by {np.abs(rows - rows[0]).max():.3e}"
            )
        if np.abs(b[orb] - b[orb[0]]).max() > _EQUIVARIANCE_ATOL:
            raise NotEquivariant(f"orbit {r} right-hand sides differ")
        matrix[r] = rows[0]
        rhs[r] = b[orb[0]]
    return ReducedSystem(matrix=matrix, rhs=rhs, orbit_of=orbits.orbit_of.copy())


def reduced_ring_system(mesh, f=None):
    """Normalized system of a labeled mesh collapsed onto its symmetry orbits.

    Orbits are generated by the 90-degree rotation plus apex transpositions,
    so the reduction has J+2 unknowns in 2D (one per ring plus the center) and
    J+3 for the pyramid joins (all apexes pool into one orbit).
    """
    if f is None:
        f = oscillating_data(mesh)
    system = normalized_system(mesh, f)
    orbits = symmetry_orbits(mesh, symmetry_generators(mesh))
    return reduce_by_symmetry(system, orbits)


@dataclass(frozen=True)
class LimitSystem:
    """The t -> 0 limit of the orbit-reduced normalized system."""

    matrix: np.ndarray
    rhs: np.ndarray

    def solve(self):
        return np.linalg.solve(self.matrix, self.rhs)


def limit_system_2d(J):
    """Limit of the ring-reduced 2D system: unknowns x_0 .. x_{J+1}.

    Row 0 reads (3/2) x_0 + (1/2) x_1 = -2; row j (j = 1..J+1) reads
    x_{j-1} + x_j = 2 (-1)^j.
    """
    check_integer(J, 1, f"J must be an integer >= 1, got {J!r}")
    k = J + 2
    A = np.zeros((k, k))
    b = np.zeros(k)
    A[0, 0] = 1.5
    A[0, 1] = 0.5
    b[0] = -2.0
    for j in range(1, k):
        A[j, j - 1] = 1.0
        A[j, j] = 1.0
        b[j] = 2.0 * (-1.0) ** j
    return LimitSystem(matrix=A, rhs=b)


def limit_solution_2d(J):
    """Closed form x_j = (-1)^j (2j - 1), hence x_0 = x_1 = -1 and
    sup norm 2J + 1 at the center entry."""
    check_integer(J, 1, f"J must be an integer >= 1, got {J!r}")
    j = np.arange(J + 2)
    return (-1.0) ** j * (2 * j - 1)


def limit_system_pyramid(J, d):
    """Limit of the orbit-reduced pyramid system: unknowns x_0..x_{J+1}, x'.

    x' is the common apex value.  Row 0: (3/2) x_0 + (1/2) x_1 +
    ((d-2)/2) x' = -(d+2)/2; rows j = 1..J+1: x_{j-1} + x_j + ((d-2)/2) x'
    = (-1)^j (d+2)/2; apex row: x_0 + (1/2) x_1 + (1 + (d-3)/2) x' = -(d+2)/2.
    """
    check_integer(J, 1, f"J must be an integer >= 1, got {J!r}")
    check_integer(d, 3, f"pyramid limit systems need d >= 3, got {d!r}")
    k = J + 3
    A = np.zeros((k, k))
    b = np.zeros(k)
    apex_coupling = (d - 2) / 2.0
    rhs_scale = (d + 2) / 2.0
    A[0, 0] = 1.5
    A[0, 1] = 0.5
    A[0, -1] = apex_coupling
    b[0] = -rhs_scale
    for j in range(1, J + 2):
        A[j, j - 1] = 1.0
        A[j, j] = 1.0
        A[j, -1] = apex_coupling
        b[j] = rhs_scale * (-1.0) ** j
    A[-1, 0] = 1.0
    A[-1, 1] = 0.5
    A[-1, -1] = 1.0 + (d - 3) / 2.0
    b[-1] = -rhs_scale
    return LimitSystem(matrix=A, rhs=b)


@dataclass
class SweepRecord:
    """One row of a sweep: parameters plus whichever quantities were computed."""

    J: int
    t: float
    d: int
    sup_norm: float
    exact_operator_norm: float | None = None
    limit_error: float | None = None
    ainv_bound: float | None = None


def convergence_study(J, t_list):
    """Reduced solutions of the 2D family against the limit solution.

    For each t the orbit-reduced system is solved and compared entrywise with
    the closed-form limit; limit_error is the largest deviation and shrinks
    like t as t -> 0.
    """
    x_hat = limit_solution_2d(J)
    records = []
    for t in t_list:
        mesh = build_counterexample_2d(J, float(t))
        reduced = reduced_ring_system(mesh)
        x = reduced.solve()
        records.append(
            SweepRecord(
                J=J,
                t=float(t),
                d=2,
                sup_norm=float(np.abs(x).max()),
                limit_error=float(np.abs(x - x_hat).max()),
            )
        )
    return records


def growth_sweep(J_list, t, d=2, with_norms=False):
    """Project the oscillating witness for each J and record the sup norms.

    With with_norms=True the exact operator norm and the inverse-based bound
    are recorded as well (slower: every dual function of each mesh is
    solved for and integrated).
    """
    if d < 2:
        raise InvalidParameter(f"growth sweeps are defined for d >= 2, got {d!r}")
    records = []
    for J in J_list:
        J = int(J)
        if d == 2:
            mesh = build_counterexample_2d(J, float(t))
        else:
            mesh = build_pyramid_partition(J, float(t), d)
        g = project(mesh, oscillating_data(mesh))
        rec = SweepRecord(J=J, t=float(t), d=d, sup_norm=g.sup_norm)
        if with_norms:
            rec.exact_operator_norm, _, rec.ainv_bound = exact_operator_norm(mesh)
        records.append(rec)
    return records


def sweep_to_csv(records):
    """CSV text for sweep records, one column per SweepRecord field in field
    order; integers are written whole and floats carry 12 significant digits."""

    def fmt(x):
        if x is None:
            return ""
        return str(x) if isinstance(x, int) else format(float(x), ".12g")

    lines = [",".join(f.name for f in fields(SweepRecord))]
    lines += [",".join(map(fmt, astuple(r))) for r in records]
    return "\n".join(lines) + "\n"
