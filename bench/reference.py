"""Benchmark-owned meshes and reference computations.

Nothing here imports projnorm.  The benchmark builds its own meshes, writes
them in the documented mesh JSON format, and checks every output the
program produces against the closed-form formulas below:

* mass entries V (1 + delta_ij) / ((d+1)(d+2)) and load entries f V / (d+1);
* the normalized residual ||D^-1 (M x - F)||_inf / ||D^-1 F||_inf, which
  weighs every row by its own diagonal, so rows of size t^(2J) next to the
  apex of a graded mesh count as much as the outer ones;
* for d <= 2, the exact operator norm max_P int |psi_P| from a dense M^-1
  and the closed-form integral of |linear| over each simplex.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sparse

# Normalized residual a projection must meet.  At this commit it is about
# 2e-14 on the graded meshes, and scaling the innermost ring by 1 + 1e-9
# raises it to about 1e-9.
RESIDUAL_TOL = 1e-11
# Relative agreement required between a reported number and its reference.
REL_TOL = 1e-9

_CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])


class Mesh:
    """Vertices, simplices and constructor labels, as the benchmark built them."""

    def __init__(self, vertices, simplices, labels=None, ring=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.simplices = np.asarray(simplices, dtype=np.int64)
        self.labels = labels or {}
        # ring index per vertex (J+1 at the center, -1 at apexes) for the
        # shrinking-square family, None otherwise
        self.ring = ring
        corners = self.vertices[self.simplices]
        edges = corners[:, 1:, :] - corners[:, :1, :]
        self.volumes = np.abs(np.linalg.det(edges)) / math.factorial(self.dim)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_simplices(self):
        return self.simplices.shape[0]

    def to_json(self):
        return json.dumps(
            {
                "dim": self.dim,
                "vertices": self.vertices.tolist(),
                "simplices": self.simplices.tolist(),
                "labels": {str(k): v for k, v in sorted(self.labels.items())},
            }
        )


def shrinking_squares(J, t):
    """[-1,1]^2 triangulated along J+1 squares of half-width t^j, fanned to 0."""
    vertices = (t ** np.arange(J + 1)[:, None, None] * _CORNERS).reshape(-1, 2)
    vertices = np.vstack([vertices, [[0.0, 0.0]]])
    center = 4 * (J + 1)
    tris = []
    for j in range(1, J + 1):
        for i in range(4):
            p = (i - 1) % 4
            tris.append((4 * (j - 1) + p, 4 * j + p, 4 * j + i))
            tris.append((4 * (j - 1) + p, 4 * j + i, 4 * (j - 1) + i))
    for i in range(4):
        tris.append((4 * J + i, 4 * J + (i + 1) % 4, center))
    labels = {4 * j + i: f"ring {j} corner {i + 1}" for j in range(J + 1) for i in range(4)}
    labels[center] = "center"
    ring = np.append(np.repeat(np.arange(J + 1), 4), J + 1)
    return Mesh(vertices, tris, labels, ring)


def pyramid(J, t, d):
    """Join of shrinking_squares(J, t) with the apexes e_3 .. e_d."""
    base = shrinking_squares(J, t)
    n = base.n_vertices
    vertices = np.zeros((n + d - 2, d))
    vertices[:n, :2] = base.vertices
    vertices[n:, 2:] = np.eye(d - 2)
    apexes = np.arange(n, n + d - 2)
    simplices = np.hstack([base.simplices, np.broadcast_to(apexes, (base.n_simplices, d - 2))])
    labels = dict(base.labels)
    labels.update({int(a): f"apex {k + 3}" for k, a in enumerate(apexes)})
    ring = np.append(base.ring, np.full(d - 2, -1))
    return Mesh(vertices, simplices, labels, ring)


def jittered_square(n, rng, jitter=0.15):
    """n x n grid on the unit square, interior vertices moved by up to jitter*h."""
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])
    interior = ((vertices > 0) & (vertices < 1)).all(axis=1)
    vertices[interior] += rng.uniform(-jitter * h, jitter * h, (int(interior.sum()), 2))
    tris = []
    for iy in range(n):
        for ix in range(n):
            ll = iy * (n + 1) + ix
            lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
            if (ix + iy) % 2 == 0:
                tris += [(ll, lr, ur), (ll, ur, ul)]
            else:
                tris += [(ll, lr, ul), (lr, ur, ul)]
    mesh = Mesh(vertices, tris)
    e = mesh.vertices[mesh.simplices[:, 1:]] - mesh.vertices[mesh.simplices[:, :1]]
    signed = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    if not (signed > 0.1 * h * h).all():
        raise RuntimeError("jitter folded a triangle")
    return mesh


def graded_interval(cells, rng):
    """[0, 1] cut into cells whose lengths span about five orders of magnitude."""
    lengths = np.exp(rng.uniform(-12.0, 0.0, cells))
    points = np.concatenate([[0.0], np.cumsum(lengths)]) / lengths.sum()
    points[-1] = 1.0
    return Mesh(points[:, None], np.column_stack([np.arange(cells), np.arange(1, cells + 1)]))


def oscillating_values(mesh):
    """(-1)^j on the simplices of ring j, the ring of a simplex being its largest."""
    simplex_ring = mesh.ring[mesh.simplices].max(axis=1)
    return np.where(simplex_ring % 2 == 0, 1.0, -1.0)


def mass_matrix(mesh):
    d = mesh.dim
    local = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    vals = mesh.volumes[:, None, None] * local
    rows = np.broadcast_to(mesh.simplices[:, :, None], vals.shape)
    cols = np.broadcast_to(mesh.simplices[:, None, :], vals.shape)
    n = mesh.n_vertices
    return sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def load_vector(mesh, values):
    F = np.zeros(mesh.n_vertices)
    np.add.at(F, mesh.simplices, (values * mesh.volumes / (mesh.dim + 1))[:, None])
    return F


def normalized_residual(M, F, x):
    """||D^-1 (M x - F)||_inf / ||D^-1 F||_inf with D = diag(M)."""
    D = M.diagonal()
    return float(np.abs((M @ x - F) / D).max() / np.abs(F / D).max())


def _positive_part_integral(v, vol):
    """int_T max(l, 0) for linear l with vertex values v (rows: simplices).

    Only for d <= 2, where a sign change leaves one vertex alone on its side:
    with a > 0 alone and the others b_k <= 0, the positive part lives on the
    corner simplex cut at a / (a - b_k) along each edge, so its integral is
    V a^(d+1) / ((d+1) prod_k (a - b_k)).
    """
    d = v.shape[-1] - 1
    k = (v > 0).sum(axis=-1)
    out = np.where(k == d + 1, vol * v.mean(axis=-1), 0.0)
    lone = k == 1
    if lone.any():
        vv = v[lone]
        a = vv.max(axis=-1)
        denom = np.prod(np.where(vv > 0, 1.0, a[:, None] - vv), axis=-1)
        out[lone] = vol[lone] * a ** (d + 1) / ((d + 1) * denom)
    two = (k == 2) & (d == 2)
    if two.any():
        # l_+ = l + (-l)_+, and -l has at most one positive vertex here
        out[two] = vol[two] * v[two].mean(axis=-1) + _positive_part_integral(
            -v[two], vol[two]
        )
    return out


def abs_integrals(mesh, nodal):
    """int |g| for each row of nodal values (shape (k, n)), exact for d <= 2."""
    v = np.atleast_2d(nodal)[:, mesh.simplices]  # (k, m, d+1)
    vol = mesh.volumes
    pos = _positive_part_integral(v, np.broadcast_to(vol, v.shape[:-1]))
    return (2.0 * pos - vol * v.mean(axis=-1)).sum(axis=-1)


class DenseReference:
    """Dense scaled inverse of M and the quantities derived from it (small meshes)."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.M = mass_matrix(mesh)
        D = self.M.diagonal()
        s = 1.0 / np.sqrt(D)
        S = self.M.toarray() * s[:, None] * s[None, :]
        Sinv = np.linalg.inv((S + S.T) / 2)
        self.Minv = Sinv * s[:, None] * s[None, :]
        self.D = D

    def solve(self, values):
        return self.Minv @ load_vector(self.mesh, values)

    def ainv_bound(self):
        """(d+2)/2 ||A^-1||_inf with A = D^-1 M, so A^-1 = M^-1 D."""
        return 0.5 * (self.mesh.dim + 2) * float(np.abs(self.Minv * self.D[None, :]).sum(axis=1).max())

    def witness_bound(self):
        """max_P sum_T |int_T psi_P|: the projection of sign(int_T psi_P) at P."""
        m = self.mesh
        cell = self.Minv[:, m.simplices].mean(axis=-1) * m.volumes
        return float(np.abs(cell).sum(axis=1).max())

    def operator_norm(self):
        """max_P int |psi_P|, exact for d <= 2."""
        if self.mesh.dim > 2:
            raise ValueError("closed-form |psi_P| integration needs d <= 2")
        return float(abs_integrals(self.mesh, self.Minv).max())


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)
