"""Norm-growth experiments on the shrinking-square partitions.

The oscillating witness assigns the value (-1)^j to every simplex of ring j
(the region between squares j-1 and j, with the innermost fan counting as
ring J+1).  Projecting it produces nodal values that alternate and grow
linearly in the ring index; as t -> 0 the normalized Galerkin system,
collapsed onto the rotation orbits, converges to an explicit bidiagonal limit
system whose solution has sup norm 2J+1.  The pyramid joins converge to the
same system plus one apex unknown, coupled to every row by (d-2)/2, so the 2D
limit is the pyramid limit at d = 2.  The reduced system also has a
closed-form ring stencil at every t >= 0, written from the ring areas
without building a mesh: growth_sweep and convergence_study (`reproduce`)
solve it, the limit systems are its t = 0 rows, and reduced_ring_system(mesh),
the reduction derived from a labeled mesh, is what checks it.  This module
builds the reductions, the limit systems and the parameter sweeps that
exhibit the growth.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameter, NotEquivariant, SolveFailure
from .mesh import (
    build_counterexample_2d,
    build_pyramid_partition,
    check_integer,
    check_mesh_dimension,
    check_pyramid_dimension,
    check_ring_parameters,
    symmetry_generators,
    symmetry_orbits,
)
from .projection import (
    RESIDUAL_RTOL,
    CellwiseConstant,
    exact_operator_norm,
    normalized_system,
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
    simplex_ring = mesh.ring_roles[0][mesh.simplices].max(axis=1)
    return CellwiseConstant(np.where(simplex_ring % 2 == 0, 1.0, -1.0))


@dataclass(frozen=True)
class LimitSystem:
    """A square linear system matrix @ x = rhs; solve() returns x."""

    matrix: np.ndarray
    rhs: np.ndarray

    def solve(self):
        """x, or SolveFailure if ||matrix @ x - rhs||_inf / ||rhs||_inf > RESIDUAL_RTOL."""
        x = np.linalg.solve(self.matrix, self.rhs)
        residual = float(np.abs(self.matrix @ x - self.rhs).max()
                         / (np.abs(self.rhs).max() or 1.0))
        if not residual <= RESIDUAL_RTOL:  # a NaN residual fails too
            raise SolveFailure(f"ring system solve left normalized residual {residual:.3e} "
                               f"(allowed {RESIDUAL_RTOL:.0e})", residual=residual)
        return x


@dataclass(frozen=True)
class ReducedSystem(LimitSystem):
    """Orbit-collapsed normalized system; expand() maps solutions back to vertices."""

    orbit_of: np.ndarray

    @property
    def n_orbits(self):
        return self.rhs.shape[0]

    def expand(self, reduced_solution):
        return np.asarray(reduced_solution)[self.orbit_of]


def reduce_by_symmetry(system, orbits):
    """Collapse a normalized system onto vertex orbits.

    Column sums pool the couplings into each orbit; the rows of members of one
    orbit must then coincide with the row of its first (smallest) member, as
    must their right-hand sides, otherwise the system is not equivariant under
    the group and NotEquivariant is raised for the smallest failing orbit
    (rows are checked before right-hand sides).
    """
    A, b = system.A, system.b
    orbit_of = orbits.orbit_of
    # member[v, r] says whether vertex v lies in orbit r; orbits list their
    # members ascending, so the first True of column r is its first member
    member = orbit_of[:, None] == np.arange(orbits.n_orbits)
    collapsed = A @ member
    first = member.argmax(axis=0)
    ref = first[orbit_of]
    row_dev = np.abs(collapsed - collapsed[ref]).max(axis=1)
    rhs_dev = np.abs(b - b[ref])
    failing = (row_dev > _EQUIVARIANCE_ATOL) | (rhs_dev > _EQUIVARIANCE_ATOL)
    if failing.any():
        r = orbit_of[failing].min()
        dev = row_dev[orbit_of == r].max()
        if dev > _EQUIVARIANCE_ATOL:
            raise NotEquivariant(f"orbit {r} rows differ by {dev:.3e}")
        raise NotEquivariant(f"orbit {r} right-hand sides differ")
    return ReducedSystem(matrix=collapsed[first], rhs=b[first], orbit_of=orbit_of.copy())


def reduced_ring_system(mesh):
    """Normalized system of the oscillating witness collapsed onto symmetry orbits.

    Orbits are generated by the 90-degree rotation plus apex transpositions,
    so the reduction has J+2 unknowns in 2D (one per ring plus the center) and
    J+3 for the pyramid joins (all apexes pool into one orbit).
    """
    orbits = symmetry_orbits(mesh, symmetry_generators(mesh))
    return reduce_by_symmetry(normalized_system(mesh, oscillating_data(mesh)), orbits)


def limit_system_2d(J):
    """Limit of the ring-reduced 2D system: unknowns x_0 .. x_{J+1}.

    Row 0 reads (3/2) x_0 + (1/2) x_1 = -2; row j (j = 1..J+1) reads
    x_{j-1} + x_j = 2 (-1)^j.
    """
    check_integer(J, 1, f"J must be an integer >= 1, got {J!r}")
    return _ring_system(J, 0.0, 2)


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
    return _ring_system(J, 0.0, d)


def _ring_system(J, t, d):
    """reduced_ring_system of the J-ring family at 0 <= t < 1 in closed form.

    Annulus j lies between the squares of half-widths a = t^(j-1) and
    b = t^j; each of its sides holds triangles of areas T1 = b(a-b) and
    T2 = a(a-b), so an outer corner's star there is T1 + 2 T2 and an inner
    corner's 2 T1 + T2, and the fan triangles have area t^(2J).  Row j is
    divided by annulus j's area scale t^(2(j-1))(1-t) (ring 0 by annulus
    1's), which makes (T1, T2) = (t, 1) in its own annulus and t^2 (t, 1)
    one annulus in, and the fan t^2/(1-t); the center row is divided by
    t^(2J).  At t = 0 the rows are the limit systems.  The join (d >= 3)
    adds an apex column (d-2)/2, scales the base right-hand sides by
    (d+2)/4 and adds the apex row: each orbit's star area over twice the
    square's, and (d+2)/2 times the data's mean over the square.
    """
    # row j's weights of annulus j (its corners inner), annulus j+1 (outer), fan
    j = np.arange(J + 1)
    inner = (j > 0) * 1.0
    outer = np.where(j == 0, 1.0, t * t) * (j < J)
    fan = (j == J) * (t * t / (1.0 - t))
    star = inner * (2 * t + 1) + outer * (t + 2) + 2 * fan
    # entry (j, r): each triangle of a ring-j corner's star times its count of
    # ring-r vertices (the corner twice), over twice the star's area.  Summed
    # on (outer ring, inner ring), an outer corner weighs T1 by (2, 2) and T2
    # by (6, 2), an inner corner T1 by (2, 6) and T2 by (2, 2), and a ring-J
    # corner the fan by (6, 2) on (ring J, center)
    k = J + 2 + (d > 2)
    A = np.zeros((k, k))
    b = np.zeros(k)
    A[j[1:], j[1:] - 1] = (2 * t + 2) / (2 * star[1:])
    A[j, j] = (inner * (6 * t + 2) + outer * (2 * t + 6) + 6 * fan) / (2 * star)
    A[j, j + 1] = (outer * (2 * t + 2) + 2 * fan) / (2 * star)
    A[J + 1, J:J + 2] = 1.0
    sign = (-1.0) ** np.arange(J + 2)
    b[:J + 1] = 2 * sign[:-1] * (inner * (2 * t + 1) - outer * (t + 2) - 2 * fan) / star
    b[J + 1] = 2 * sign[-1]
    if d > 2:
        # float pow per power: numpy's vector pow can be an ulp off the exact one
        scale = np.array([t ** max(2 * k - 2, 0) for k in range(J + 1)]) * (1.0 - t)
        b[:-1] *= (d + 2) / 4.0
        b[-1] = (d + 2) / 2.0 * (sign[1:J + 1] @ scale[1:] * (1.0 + t) + sign[-1] * t ** (2 * J))
        A[:-1, -1] = (d - 2) / 2.0
        A[-1, :-1] = np.append(star * scale, t ** (2 * J)) / 2.0
        A[-1, -1] = (d - 1) / 2.0
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

    Every t is checked against the underflow guard, in order, before any
    system is built.  Then, one t at a time, the closed-form ring stencil
    _ring_system(J, t, 2) is solved and compared entrywise with the
    closed-form limit; limit_error is the largest deviation and shrinks like
    t as t -> 0.  No mesh is built: reduced_ring_system of the built mesh is
    the same system, reduced from the float mesh.
    """
    x_hat = limit_solution_2d(J)
    records = []
    for t in [check_ring_parameters(J, t) for t in t_list]:
        x = _ring_system(J, t, 2).solve()
        records.append(
            SweepRecord(
                J=J,
                t=t,
                d=2,
                sup_norm=float(np.abs(x).max()),
                limit_error=float(np.abs(x - x_hat).max()),
            )
        )
    return records


def growth_sweep(J_list, t, d=2, with_norms=False):
    """Sup norm of the projected oscillating witness for each J.

    The sup norm is the largest entry of the ring stencil's solution
    _ring_system(J, t, d), so no mesh is built for it.  With with_norms=True
    the mesh is built and exact_operator_norm records the exact operator norm
    and the inverse-based bound (slower: every dual function is solved for).
    Every J is checked against the underflow guard, in order, then a
    pyramid's d, and with norms the mesh dimension guard, before the first
    row; a range is never listed, any other iterable is read once into a
    list.
    """
    if d < 2:
        raise InvalidParameter(f"growth sweeps are defined for d >= 2, got {d!r}")
    J_list = J_list if isinstance(J_list, range) else list(J_list)
    for J in J_list:
        check_ring_parameters(int(J), t)
    if d != 2:
        check_pyramid_dimension(d)
    if with_norms:
        check_mesh_dimension(d)
    return [_sweep_record(int(J), float(t), d, with_norms) for J in J_list]


def _sweep_record(J, t, d, with_norms):
    x = _ring_system(J, t, d).solve()
    rec = SweepRecord(J=J, t=t, d=d, sup_norm=float(np.abs(x).max()))
    if with_norms:
        mesh = build_counterexample_2d(J, t) if d == 2 else build_pyramid_partition(J, t, d)
        rec.exact_operator_norm, _, rec.ainv_bound, _ = exact_operator_norm(mesh)
    return rec


def sweep_to_csv(records):
    """CSV text for sweep records, one column per SweepRecord field in field
    order; integers are written whole and floats carry 12 significant digits."""

    def fmt(x):
        if x is None:
            return ""
        return str(x) if isinstance(x, int) else format(float(x), ".12g")

    names = [f.name for f in fields(SweepRecord)]
    lines = [",".join(names)]
    lines += [",".join(fmt(getattr(r, name)) for name in names) for r in records]
    return "\n".join(lines) + "\n"
