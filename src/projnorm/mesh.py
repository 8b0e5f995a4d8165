"""Conforming simplicial meshes in arbitrary dimension.

Vertices are stored as an ``(n, d)`` float array, simplices as an ``(m, d+1)``
integer array of vertex ids.  Meshes are immutable after construction; the
coordinate and connectivity arrays are marked read-only and all constructors
are pure functions of their arguments.

Besides generic helpers (simplex volumes, angle statistics, conformity
validation, symmetry orbits and their generators: the ring rotation first, then
the apex swaps, or MissingLabels) the module provides the partition families
used throughout the package.  One kernel, _facets, gives each simplex its
facet normals n_i and heights h_i = n_i . (p_i - f_i), f_i the first vertex of
the facet opposite p_i: the volume is |h_0| / d!, and n_i . (x - f_i) / h_i is
the barycentric coordinate i of x.  Conformity validation builds one facet
table, the facets grouped by vertex set and _facets of every one, which
both of its passes read.  It first tries a certificate in O(m) small
kernels plus one vertices x boundary-facets product: every facet has at
most two owners, on strictly opposite sides of it; every facet with one
owner supports the vertex set; and the centroid of the largest simplex
lies in that simplex only.  The number of simplices covering a point then
cannot change across any facet inside the convex hull, so it is 1
everywhere: the certificate is sound on any mesh, and it holds on every
conforming mesh of a convex domain, which every family below is.  On a
refusal (a non-conforming mesh, or a conforming one of a non-convex or
disconnected domain) the violations come from an all-pairs pass: it reads
the over-shared facets from the table and makes one blocked pass over
widened simplex bounding boxes for candidate pairs.  The pairs yield the
hanging nodes, by those coordinates, the folds, by the signs of the lone
vertices' heights over the shared facet, and, for pairs sharing s < d
vertices, an exact separating-hyperplane test.  Such a hyperplane contains
the shared face, so pairs with s >= 1 try only the C(2(d+1-s), d-s)
normals through it (15 or 4 in 3D), and vertex-disjoint pairs every facet
normal of P - Q (44 in 3D, 862 in 5D), all in one pass.  Normals are
exterior products of edges, over pairs held coordinate-major, and no
LAPACK routine is called.  The families are:

* ``build_counterexample_2d`` -- a square triangulated along a geometric
  sequence of shrinking concentric squares ("rings"),
* ``build_pyramid_partition`` -- the d-dimensional join of that triangulation
  with unit-vector apexes,
* ``build_uniform_square`` and ``build_interval_partition`` -- reference
  partitions for comparison runs.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import re
import types
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import orjson

from .errors import (
    DegenerateSimplex,
    InvalidParameter,
    MissingLabels,
    NotASymmetry,
    UnderflowRisk,
    UnsupportedDimension,
)

# Volumes at or below this are treated as degenerate.  It is an underflow
# guard, not an element-quality threshold.
VOLUME_EPSILON = 1e-300

# Smallest simplex volume (relative to element count one) a shrinking-square
# construction may produce before we refuse to build it.
_UNDERFLOW_LIMIT = 1e-250

# Square corners in clockwise order (y axis pointing up): corner i of ring j
# sits at t**j times this.
_CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])

# Constructor label of corner i (1..4) of ring j; the bounded ring index
# always fits the int64 ring array.
_CORNER_LABEL = re.compile(r"\s*ring\s+(\d{1,9})\s+corner\s+([1-4])\s*")

# Largest mesh dimension; see check_mesh_dimension.
_MAX_MESH_DIM = 12

# Conformity slack: boxes, barycentric coordinates and separating gaps within
# this fraction of the simplex's (or the pair's) extent count as touching.
_TOUCH_RTOL = 1e-12

# Most array elements one blocked pass of validate_conformity holds at once,
# so its memory is O(block * m), not O(m**2).
_BLOCK_ELEMENTS = 2**18


def _volumes(vertices, simplices):
    """Euclidean volumes |h_0| / d! for every simplex row (_facets)."""
    X = vertices[simplices].transpose(2, 1, 0)
    return np.abs(_facets(X, [0])[2][0]) / math.factorial(vertices.shape[1])


class SimplicialMesh:
    """Immutable simplicial mesh.

    Parameters
    ----------
    vertices : array_like, shape (n, d)
        Vertex coordinates, d >= 1, all finite.
    simplices : array_like, shape (m, d+1)
        Vertex ids of each simplex.  Ids must be in range, distinct within a
        row, and every vertex must be referenced by at least one simplex.
    labels : dict[int, str], optional
        Optional per-vertex labels (the family constructors use these to
        record the ring/corner structure), keyed by vertex id.

    Raises
    ------
    InvalidParameter
        On malformed arrays or labels, out-of-range ids or unreferenced vertices.
    DegenerateSimplex
        If any simplex has volume <= VOLUME_EPSILON.
    """

    def __init__(self, vertices, simplices, labels=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        simplices = np.ascontiguousarray(simplices, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[0] < 1 or vertices.shape[1] < 1:
            raise InvalidParameter("vertices must be a non-empty (n, d) array")
        if not np.isfinite(vertices).all():
            raise InvalidParameter("vertex coordinates must be finite")
        n, d = vertices.shape
        if simplices.ndim != 2 or simplices.shape[0] < 1:
            raise InvalidParameter("simplices must be a non-empty (m, d+1) array")
        if simplices.shape[1] != d + 1:
            raise InvalidParameter(
                f"simplices must have {d + 1} vertices each in dimension {d}, "
                f"got {simplices.shape[1]}"
            )
        if simplices.min() < 0 or simplices.max() >= n:
            raise InvalidParameter("simplex vertex ids out of range")
        ordered = np.sort(simplices, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise InvalidParameter("simplex with repeated vertex ids")
        referenced = np.zeros(n, dtype=bool)
        referenced[simplices] = True
        if not referenced.all():
            orphan = int(np.flatnonzero(~referenced)[0])
            raise InvalidParameter(f"vertex {orphan} is not referenced by any simplex")
        labels = dict(labels) if labels else {}
        for k, label in labels.items():
            # True is not vertex 1, nor None the label "None"; no file holds a
            # surrogate ("\ud800"), which has no UTF-8 form
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < n:
                raise InvalidParameter(f"label key {k!r} is not a vertex id 0..{n - 1}")
            if not isinstance(label, str) or re.search("[\ud800-\udfff]", label):
                raise InvalidParameter(f"label of vertex {k} is not a UTF-8 string: {label!r}")

        check_mesh_dimension(d)
        vols = _volumes(vertices, simplices)
        if (vols <= VOLUME_EPSILON).any():
            bad = int(np.argmin(vols))
            raise DegenerateSimplex(
                f"simplex {bad} has volume {vols[bad]:.3e} <= {VOLUME_EPSILON:.0e}"
            )

        vertices.setflags(write=False)
        simplices.setflags(write=False)
        vols.setflags(write=False)
        self.vertices = vertices
        self.simplices = simplices
        self._volumes = vols
        self._labels = labels

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_simplices(self):
        return self.simplices.shape[0]

    @property
    def simplex_volumes(self):
        return self._volumes

    @property
    def labels(self):
        """Read-only view of the vertex label map."""
        return types.MappingProxyType(self._labels)

    @cached_property
    def ring_roles(self):
        """vertex_roles(self), decoded once per mesh; the arrays are read-only."""
        roles = vertex_roles(self)
        for a in roles[0], roles[1], roles[3]:
            a.setflags(write=False)
        return roles

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.n_vertices}, "
            f"simplices={self.n_simplices})"
        )


# ---------------------------------------------------------------------------
# partition family constructors


def check_integer(x, low, message):
    """Raise InvalidParameter(message) unless x is an int or numpy integer >= low."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool) or x < low:
        raise InvalidParameter(message)


def check_ring_parameters(J, t):
    """Validate J and t of a shrinking-square construction; return t as a float.

    Raises UnderflowRisk when the smallest simplices would underflow.
    """
    check_integer(J, 1, f"J must be an integer >= 1, got {J!r}")
    t = float(t)
    if not 0.0 < t < 1.0:
        raise InvalidParameter(f"t must satisfy 0 < t < 1, got {t!r}")
    # Smallest triangles have area t**(2J) * (1 - t)-ish; refuse once the
    # volumes would sink into the subnormal range.
    if 2 * J * math.log(t) + 2 * math.log1p(-t) < math.log(_UNDERFLOW_LIMIT):
        raise UnderflowRisk(
            f"J={J}, t={t} would produce simplex volumes below {_UNDERFLOW_LIMIT:.0e}"
        )
    return t


def check_mesh_dimension(d):
    """Raise UnsupportedDimension above _MAX_MESH_DIM, before the facet
    kernel (_cross) runs: it expands every minor, about 2.2x the cost per
    dimension.  On a 2-vCPU machine the d = 12 join of cx(40, 0.5) took
    0.13 s to build and 0.45 s to validate, peaking at 125 MB; d = 13 took
    0.32 s, 1.1 s and 188 MB, so d = 20 would take minutes."""
    if d > _MAX_MESH_DIM:
        raise UnsupportedDimension(
            f"d={d} is above {_MAX_MESH_DIM}, the largest mesh dimension supported")


def check_pyramid_dimension(d):
    """Validate the dimension d of a pyramid join before anything is allocated."""
    check_integer(d, 3, f"pyramid partitions need d >= 3, got {d!r}")
    # a simplex has volume 2A/d! on a base triangle of area A <= 2: refuse
    # once even 4/d! is degenerate (d >= 168)
    if math.log(4.0) - math.lgamma(d + 1) <= math.log(VOLUME_EPSILON):
        raise DegenerateSimplex(f"d={d} gives simplex volumes <= 4/d! <= {VOLUME_EPSILON:.0e}")


def build_counterexample_2d(J, t):
    """Triangulate [-1,1]^2 along J+1 shrinking concentric squares.

    Ring j (j = 0..J) consists of the four corners t**j * (+-1, +-1); a final
    vertex sits at the origin.  The trapezoid between consecutive squares on
    each side is split by the diagonal running from corner i-1 of the outer
    square to corner i of the inner square, and the innermost square is fanned
    into the center.  The result has 4J+5 vertices and 8J+4 triangles and is
    invariant under rotation by 90 degrees.

    Vertices are labeled "ring {j} corner {i}" (i = 1..4 clockwise from the
    upper right) and "center".
    """
    t = check_ring_parameters(J, t)
    scales = t ** np.arange(J + 1)
    vertices = (scales[:, None, None] * _CORNERS[None, :, :]).reshape(-1, 2)
    vertices = np.vstack([vertices, [[0.0, 0.0]]])
    center = 4 * (J + 1)

    def vid(j, i):
        # i is the corner index 0..3
        return 4 * j + i

    triangles = []
    for j in range(1, J + 1):
        for i in range(4):
            prev = (i - 1) % 4
            # diagonal of the side-i trapezoid: outer corner i-1 to inner corner i
            triangles.append((vid(j - 1, prev), vid(j, prev), vid(j, i)))
            triangles.append((vid(j - 1, prev), vid(j, i), vid(j - 1, i)))
    for i in range(4):
        triangles.append((vid(J, i), vid(J, (i + 1) % 4), center))

    labels = {vid(j, i): f"ring {j} corner {i + 1}" for j in range(J + 1) for i in range(4)}
    labels[center] = "center"
    return SimplicialMesh(vertices, np.array(triangles), labels)


def build_pyramid_partition(J, t, d):
    """Join of the shrinking-square triangulation with d-2 unit apexes.

    The 2-dimensional triangulation is embedded in the plane of the first two
    coordinates and every triangle is joined with all apexes e_3, ..., e_d to
    form one d-simplex, so the simplex count equals the triangle count.  Apex
    vertices are labeled "apex {m}" (m = 3..d).
    """
    check_pyramid_dimension(d)
    base = build_counterexample_2d(J, t)
    n_base = base.n_vertices
    vertices = np.zeros((n_base + d - 2, d))
    vertices[:n_base, :2] = base.vertices
    apex_ids = np.arange(n_base, n_base + d - 2)
    for k, a in enumerate(apex_ids):
        vertices[a, 2 + k] = 1.0
    simplices = np.hstack(
        [base.simplices, np.broadcast_to(apex_ids, (base.n_simplices, d - 2))]
    )
    labels = dict(base.labels)
    for k, a in enumerate(apex_ids):
        labels[int(a)] = f"apex {k + 3}"
    return SimplicialMesh(vertices, simplices, labels)


def build_uniform_square(n):
    """Uniform n x n grid on the unit square, each cell split by one diagonal.

    Diagonal directions alternate checkerboard-fashion with the cell parity,
    which keeps the vertex valences balanced (every interior vertex meets
    either 8 or 4 triangles instead of 6 everywhere).
    """
    check_integer(n, 1, f"n must be an integer >= 1, got {n!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    triangles = []
    for iy in range(n):
        for ix in range(n):
            ll, lr = vid(ix, iy), vid(ix + 1, iy)
            ul, ur = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            if (ix + iy) % 2 == 0:
                triangles.append((ll, lr, ur))
                triangles.append((ll, ur, ul))
            else:
                triangles.append((ll, lr, ul))
                triangles.append((lr, ur, ul))
    return SimplicialMesh(vertices, np.array(triangles))


def build_interval_partition(breakpoints):
    """1-dimensional mesh from a strictly increasing breakpoint sequence."""
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise InvalidParameter("need at least two breakpoints")
    if not np.isfinite(pts).all():
        raise InvalidParameter("breakpoints must be finite")
    if not (np.diff(pts) > 0).all():
        raise InvalidParameter("breakpoints must be strictly increasing")
    segments = np.column_stack([np.arange(pts.size - 1), np.arange(1, pts.size)])
    return SimplicialMesh(pts[:, None], segments)


# ---------------------------------------------------------------------------
# queries


def angle_stats(mesh):
    """(min, max) interior angle in radians over all triangles (2D only)."""
    if mesh.dim != 2:
        raise UnsupportedDimension("angle statistics are defined for 2D meshes")
    corners = mesh.vertices[mesh.simplices]  # (m, 3, 2)
    amin, amax = math.pi, 0.0
    for k in range(3):
        u = corners[:, (k + 1) % 3, :] - corners[:, k, :]
        v = corners[:, (k + 2) % 3, :] - corners[:, k, :]
        cosang = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        amin = min(amin, float(ang.min()))
        amax = max(amax, float(ang.max()))
    return amin, amax


# ---------------------------------------------------------------------------
# conformity validation


def _row_blocks(n_rows, row_size):
    """Slices of at most _BLOCK_ELEMENTS // row_size rows (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // row_size)
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


def _candidate_edges(d, s):
    """Tail and head indices of the d-1 edges spanning each candidate normal.

    Indices refer to the 2(d+1) stacked vertices of a pair, P's then Q's.
    For pairs sharing s >= 1 vertices, stacked shared-first in the same order
    in both simplices, a separating hyperplane contains the shared face, so
    every candidate joins shared vertex 0 to the s-1 other shared vertices and
    to d-s of the 2(d+1-s) non-shared vertices of either simplex:
    C(2(d+1-s), d-s) candidates (15 or 4 in 3D and on 5D pyramid pairs).  For
    s = 0 and a = 0..d-1, a candidate joins the a edges of an a-face of P at
    its first vertex with the d-1-a edges of a (d-1-a)-face of Q, so every
    facet normal of P - Q is among the cross products (44 in 3D, 862 in 5D,
    the one candidate in 1D).  Candidates come in combination order.
    """
    tails, heads = [], []
    if s:
        loose = [*range(s, d + 1), *range(d + 1 + s, 2 * d + 2)]
        for rest in itertools.combinations(loose, d - s):
            tails.append([0] * (d - 1))
            heads.append([*range(1, s), *rest])
    else:
        for a in range(d):
            p_faces = itertools.combinations(range(d + 1), a + 1) if a else [(0,)]
            q_faces = (itertools.combinations(range(d + 1, 2 * d + 2), d - a)
                       if a < d - 1 else [(d + 1,)])
            for fp, fq in itertools.product(p_faces, q_faces):
                tails.append([fp[0]] * a + [fq[0]] * (d - 1 - a))
                heads.append(list(fp[1:]) + list(fq[1:]))
    shape = (len(tails), d - 1)
    return (np.array(tails, dtype=np.intp).reshape(shape),
            np.array(heads, dtype=np.intp).reshape(shape))


def _cross(E):
    """Generalized cross product of the d-1 edges E[:, i], E of shape (d, d-1, ...):
    component k is (-1)**k times the minor without column k, and w[T] the minor
    of edges 0..i on columns T, expanded along edge i.  For d = 1 it is 1."""
    d = len(E)
    w = {(): np.ones(E.shape[2:])}
    for i in range(d - 1):
        w = {T: sum((-1) ** (i - p) * E[c, i] * w[T[:p] + T[p + 1:]] for p, c in enumerate(T))
             for T in itertools.combinations(range(d), i + 1)}
    return np.stack([(-1) ** k * w[(*range(k), *range(k + 1, d))] for k in range(d)])


def _facets(X, opposite):
    """Normals n, first vertices f and heights h of the facets opposite the
    vertices `opposite` of simplices X[x, v, k], held coordinate-major.

    n[:, c] is the exterior product (_cross) of the edges of the facet
    opposite vertex i = opposite[c], each taken from the facet's first vertex
    f[:, c], and h[c] = n[:, c] . (p_i - f[:, c]) is +-d! times the volume, so
    n[:, c] . (x - f[:, c]) / h[c] is the barycentric coordinate i of x.
    Shapes (d, c, m), (d, c, m) and (c, m).
    """
    d = len(X)
    facet = np.array([[v for v in range(d + 1) if v != i] for i in opposite])
    f = X[:, facet[:, 0]]
    n = _cross(X[:, facet[:, 1:].T] - f[:, None])
    return n, f, np.einsum("xcm,xcm->cm", n, X[:, opposite] - f)


def _unseparated(P, Q, tails, heads):
    """Which pairs (P[k], Q[k]) no candidate normal (tails, heads) separates.

    Edges are taken from the raw coordinates and scaled to unit length,
    projections from coordinates shifted to each pair's box center, and a gap
    within _TOUCH_RTOL of the pair's extent times |n| counts as touching.
    Pairs are held coordinate-major, X[x, v, k] for pair k, so reductions run
    over a leading axis; normals are exterior products (_cross), with no
    LAPACK call.
    """
    K, _, d = P.shape
    overlap = np.empty(K, dtype=bool)
    # per pair: the edges, the normals and the projections
    for rows in _row_blocks(K, len(tails) * (d * d + 2 * (d + 1))):
        X = np.concatenate([P[rows], Q[rows]], axis=1).transpose(2, 1, 0).copy()
        lo, hi = X.min(axis=1), X.max(axis=1)                # (d, k)
        # edges before the shift: shifting a tiny simplex far from the box
        # center would round its edges to zero
        E = X[:, heads.T] - X[:, tails.T]                    # (d, d-1, c, k)
        E /= np.sqrt(np.einsum("x...,x...->...", E, E))
        normals = _cross(E)                                  # (d, c, k)
        size = np.sqrt(np.einsum("x...,x...->...", normals, normals))
        X -= ((lo + hi) / 2)[:, None, :]
        proj = np.einsum("xvk,xck->vck", X, normals)         # (2(d+1), c, k)
        p, q = proj[: d + 1], proj[d + 1 :]
        gap = np.maximum(p.min(axis=0) - q.max(axis=0), q.min(axis=0) - p.max(axis=0))
        slack = _TOUCH_RTOL * (hi - lo).max(axis=0) * size
        overlap[rows] = ~((gap >= -slack) & (size > 0)).any(axis=0)
    return overlap


def _facet_table(mesh):
    """The facet facts both conformity passes read, as one tuple
    (ids, faces, order, starts, owners, normals, firsts, heights).

    ids are the simplex rows by ascending vertex id.  Facet c*m + s is the
    facet of simplex s opposite its c-th smallest vertex id; faces lists
    them sorted, order[k] is the facet at faces[k], and the vertex set
    faces[starts[g]] is the facet of owners[g] simplices.  normals, firsts
    and heights are _facets of every facet, shapes (d, d+1, m), (d, d+1, m)
    and (d+1, m): both owners of a facet take its normal n and first vertex
    f from the same points in the same order, and h = n . (p - f) is the
    signed height of the opposite vertex p.
    """
    d = mesh.dim
    ids = np.sort(mesh.simplices, axis=1)
    keep = [[x for x in range(d + 1) if x != c] for c in range(d + 1)]
    faces = ids[:, keep].transpose(1, 0, 2).reshape(-1, d)
    order = np.lexsort(faces.T[::-1])
    faces = faces[order]
    starts = np.flatnonzero(np.r_[True, (faces[1:] != faces[:-1]).any(axis=1)])
    owners = np.diff(np.r_[starts, len(faces)])
    return (ids, faces, order, starts, owners,
            *_facets(mesh.vertices[ids].transpose(2, 1, 0), range(d + 1)))


def _certify_conformity(mesh, table):
    """True when local facts prove the mesh a face-to-face partition of a
    convex domain; False (a refusal, not a verdict) otherwise.  table is
    _facet_table(mesh).

    1. No facet has more than 2 owners.
    2. The two owners of a facet lie strictly on opposite sides of it: their
       heights have opposite signs, the fold test with no tolerance.
    3. Each facet with 1 owner lies in a supporting hyperplane of the vertex
       set: no vertex is outside it by more than _TOUCH_RTOL times the mesh
       extent times |n|, one vertices x facets product per row block.
    4. The centroid of the largest simplex lies in no other simplex, not
       even within -_TOUCH_RTOL of a barycentric coordinate.

    Steps 2 and 3 make the number of simplices covering a point the same
    across every facet inside the hull, so constant on it: a hanging node
    leaves a 1-owner facet inside the hull, which step 3 refuses.  Step 4
    makes that number 1.  It counts closed simplices, since one that holds
    the centroid on its boundary still meets the largest one's interior.
    Non-convex and disconnected meshes fail step 3.
    """
    d = mesh.dim
    verts = mesh.vertices
    _, _, order, starts, owners, normals, firsts, heights = table
    if (owners > 2).any():
        return False

    sign = np.sign(heights)
    twin = starts[owners == 2]
    if (sign.ravel()[order[twin]] * sign.ravel()[order[twin + 1]] >= 0).any():
        return False

    # inward normals of the 1-owner facets, and coordinates about the box
    # center of the vertices, so the products lose no digits to the offset
    lone = order[starts[owners == 1]]
    inward = normals.reshape(d, -1)[:, lone] * sign.ravel()[lone]
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    mid = (lo + hi) / 2
    offset = np.einsum("xb,xb->b", inward, firsts.reshape(d, -1)[:, lone] - mid[:, None])
    # hypot: |n| of a deep facet squares below the smallest normal float
    slack = _TOUCH_RTOL * (hi - lo).max() * np.hypot.reduce(inward, axis=0)
    centered = verts - mid
    for rows in _row_blocks(len(lone), len(verts)):
        low = np.einsum("vx,xb->vb", centered, inward[:, rows]).min(axis=0)
        if (low - offset[rows] < -slack[rows]).any():
            return False

    c = verts[mesh.simplices[np.argmax(mesh.simplex_volumes)]].mean(axis=0)
    side = np.einsum("xvm,xvm->vm", normals, c[:, None, None] - firsts) * sign
    return int((side >= -_TOUCH_RTOL * np.abs(heights)).all(axis=0).sum()) == 1


def validate_conformity(mesh):
    """Check that the mesh is a face-to-face partition.

    Returns a list of human-readable violations (empty for a conforming
    mesh).  One facet table (_facet_table) feeds both passes.  A mesh that
    _certify_conformity certifies has none, and no pair of simplices is
    compared.  The certificate is sound on every mesh: its facet tests keep
    the number of simplices over a point constant across the convex hull of
    the vertices, and its centroid test makes it 1.  It holds on conforming
    meshes of convex domains, as every constructor here builds, and refuses
    the rest, conforming or not, without a message of its own: then the
    all-pairs pass of _pairwise_violations gives the list.
    """
    table = _facet_table(mesh)
    if _certify_conformity(mesh, table):
        return []
    return _pairwise_violations(mesh, table)


def _pairwise_violations(mesh, table):
    """The violations of validate_conformity, from all pairs of simplices;
    table is _facet_table(mesh).

    The list holds facets shared by more than two simplices, vertices lying
    inside or on a simplex they do not belong to (hanging nodes), duplicate
    or folded simplex pairs, and pairs with overlapping interiors.  One box
    per simplex, widened by _TOUCH_RTOL of its largest extent, picks the
    candidate pairs, whose non-shared vertices are the hanging-node
    candidates: a candidate hangs when each of its barycentric coordinates
    in the simplex, from the table's normals, is at least -_TOUCH_RTOL.  A
    pair sharing d vertices folds unless the heights of its lone vertices
    over the shared facet have opposite signs, as in step 2 of
    _certify_conformity; pairs that share fewer than d vertices go through
    an exact separating-hyperplane test (_unseparated over every candidate
    of _candidate_edges), one call per shared-vertex count.  Nothing calls
    LAPACK.  Memory stays O(block * m): boxes are compared in row blocks.
    """
    ids, faces, _, starts, owners, normals, firsts, heights = table
    d = mesh.dim
    verts = mesh.vertices
    m, n = mesh.n_simplices, mesh.n_vertices
    over = owners > 2
    violations = [f"face {tuple(face)} is shared by {count} simplices"
                  for face, count in zip(faces[starts[over]].tolist(), owners[over].tolist())]

    # one box per simplex, widened relative to its own size so graded meshes
    # stay scale-free; pairs i < j are candidates when their boxes meet
    corners = verts[ids]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    slack = _TOUCH_RTOL * (hi - lo).max(axis=1, keepdims=True)
    lo, hi = lo - slack, hi + slack
    pairs = []
    for rows in _row_blocks(m, m * d):
        rest = slice(rows.start, m)
        meet = np.ones((rows.stop - rows.start, m - rows.start), dtype=bool)
        for x in range(d):
            meet &= lo[rows, None, x] <= hi[rest, x]
            meet &= lo[rest, x] <= hi[rows, None, x]
        i, j = np.nonzero(meet)
        keep = j > i
        pairs.append((i[keep] + rows.start, j[keep] + rows.start))
    i, j = (np.concatenate(a) for a in zip(*pairs))
    same = ids[i][:, :, None] == ids[j][:, None, :]   # (K, d+1, d+1)
    in_j, in_i = same.any(axis=2), same.any(axis=1)

    # hanging nodes: a vertex v on a foreign simplex s lies in the boxes of s
    # and of a simplex of its own, so v is a non-shared vertex of one side of
    # a pair whose other side is s; candidates are ordered by s * n + v.  v's
    # barycentric coordinates in s, times |h|, come with no division
    s, v = np.divmod(np.unique(np.concatenate([
        (j[:, None] * n + ids[i])[~in_j],
        (i[:, None] * n + ids[j])[~in_i]])), n)
    inside = ((verts[v] >= lo[s]) & (verts[v] <= hi[s])).all(axis=1)
    s, v = s[inside], v[inside]
    side = np.einsum("x...,x...->...", normals[:, :, s], verts[v].T[:, None] - firsts[:, :, s])
    on = side * np.sign(heights[:, s]) >= -_TOUCH_RTOL * np.abs(heights[:, s])
    for a, b in zip(*(x[on.all(axis=0)].tolist() for x in (s, v))):
        violations.append(f"vertex {b} lies on simplex {a} without being one of its vertices")

    shared = in_j.sum(axis=1)
    kind = np.zeros(len(i), dtype=np.int8)
    kind[shared == d + 1] = 1

    # a fold: the lone vertices of i and j lie on one side of the shared
    # facet, opposite each of them
    fold = np.flatnonzero(shared == d)
    h_i = heights[np.argmin(in_j[fold], axis=1), i[fold]]
    h_j = heights[np.argmin(in_i[fold], axis=1), j[fold]]
    kind[fold[np.sign(h_i) * np.sign(h_j) >= 0]] = 2

    # one kernel call per shared-vertex count s < d; each pair's shared
    # vertices come first, by id in both simplices
    for s in np.unique(shared[shared < d]).tolist():
        k = np.flatnonzero(shared == s)
        a = np.take_along_axis(ids[i[k]], np.argsort(~in_j[k], axis=1, kind="stable"), 1)
        b = np.take_along_axis(ids[j[k]], np.argsort(~in_i[k], axis=1, kind="stable"), 1)
        kind[k[_unseparated(verts[a], verts[b], *_candidate_edges(d, s))]] = 3

    messages = (
        None,
        "simplices {} and {} are identical",
        "simplices {} and {} fold onto the same side of their shared face",
        "simplices {} and {} have overlapping interiors",
    )
    flagged = kind > 0
    for a, b, k in zip(i[flagged].tolist(), j[flagged].tolist(), kind[flagged].tolist()):
        violations.append(messages[k].format(a, b))
    return violations


# ---------------------------------------------------------------------------
# symmetries and orbits


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex orbits under a group generated by permutations.

    Orbits are sorted by their smallest member, members ascending;
    ``orbit_of[v]`` is the orbit index of vertex v.
    """

    orbits: list
    orbit_of: np.ndarray

    @property
    def n_orbits(self):
        return len(self.orbits)


def symmetry_orbits(mesh, permutations):
    """Vertex orbits of the group generated by one or more mesh symmetries.

    Each permutation must be a bijection of the vertex ids that maps the
    simplex set onto itself (as sets of vertex-id sets); otherwise
    NotASymmetry is raised.

    The orbits come from min-label propagation over the generators, with
    root hooking and pointer jumping, in whole-array numpy steps; no graph
    library is used.  The ring rotation and apex swaps settle in one round.
    No bound of O(log n) rounds is proven, but measured rounds stay near
    the log of the orbit size: at most 12 on 10^5-vertex cycles and on paths
    of two involutions, with ids rising, falling or shuffled along them.
    Pushing labels along the generators without hooking roots takes one
    round per vertex on a cycle whose ids fall along it.
    """
    message = "permutations must have one integer entry per vertex"
    # 0.4 and True are not vertex ids
    perms = _typed_array(permutations, "iu", message)
    if perms.ndim == 1:
        perms = perms[None, :]
    if perms.ndim != 2 or perms.shape[1] != mesh.n_vertices:
        raise InvalidParameter(message)
    perms = perms.astype(np.int64)
    n = mesh.n_vertices
    simplex_set = _sorted_simplices(mesh.simplices)
    for perm in perms:
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise NotASymmetry("not a bijection of the vertex ids")
        mapped = _sorted_simplices(perm[mesh.simplices])
        if not np.array_equal(mapped, simplex_set):
            known = set(map(tuple, simplex_set.tolist()))
            missing = next(row for row in mapped.tolist() if tuple(row) not in known)
            raise NotASymmetry(
                f"permutation sends a simplex to {missing}, which is not in the mesh"
            )

    # min-label propagation with root hooking: label[v] is a vertex of v's
    # orbit no larger than v, so label[label] <= label.  Each round hooks the
    # root label[v] onto the grandparent label of perm[v], and label[perm[v]]
    # onto that of v, then jumps.  Every round that is not the last lowers
    # some label; at the last, every label labels itself and every generator
    # maps each orbit onto one label: its smallest member.
    label = np.arange(n)
    while True:
        grand = label[label]
        hooked = grand.copy()
        for perm in perms:
            np.minimum.at(hooked, label, grand[perm])
            np.minimum.at(hooked, label[perm], grand)
        label = hooked[hooked]
        if (label[label] == label).all() and (label[perms] == label).all():
            break
    # label is the smallest member of the orbit; number orbits in that order
    orbit_of = (np.cumsum(label == np.arange(n)) - 1)[label]
    members = np.argsort(orbit_of, kind="stable")
    ends = np.cumsum(np.bincount(orbit_of)).tolist()
    orbits = [members[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return OrbitPartition(orbits=orbits, orbit_of=orbit_of)


def _sorted_simplices(simplices):
    """Simplices as ascending vertex ids, the rows in lexicographic order."""
    rows = np.sort(simplices, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def vertex_roles(mesh):
    """Decode the constructor labels of a shrinking-square mesh.

    Returns ``(ring, corner, center, apexes)`` where ``ring[v]`` is the square
    index for corner vertices, J+1 for the center and -1 for apexes;
    ``corner[v]`` is 1..4 for corner vertices and 0 otherwise.  Raises
    MissingLabels when the labels are absent, not of the constructor form, or
    name more than one center or one (ring, corner) on two vertices.
    """
    n = mesh.n_vertices
    ring = np.full(n, -1, dtype=np.int64)
    corner = np.zeros(n, dtype=np.int64)
    center = -1
    apexes = []
    labels = mesh.labels
    for v in range(n):
        lab = labels.get(v)
        if lab is None:
            raise MissingLabels(f"vertex {v} carries no constructor label")
        parts = lab.split()
        corner_label = _CORNER_LABEL.fullmatch(lab)
        if lab == "center":
            if center >= 0:
                raise MissingLabels(f"vertices {center} and {v} are both labeled 'center'")
            center = v
        elif len(parts) == 2 and parts[0] == "apex":
            apexes.append(v)
        elif corner_label:
            ring[v], corner[v] = map(int, corner_label.groups())
        else:
            raise MissingLabels(f"unrecognized vertex label {lab!r}")
    if center < 0 or not (corner > 0).any():
        raise MissingLabels("mesh labels lack a center/ring structure")
    key = ring * 5 + corner
    ids = np.flatnonzero(corner > 0)[np.argsort(key[corner > 0], kind="stable")]
    twins = np.flatnonzero(np.diff(key[ids]) == 0)
    if twins.size:
        a, b = ids[twins[0]], ids[twins[0] + 1]
        raise MissingLabels(
            f"vertices {a} and {b} are both labeled ring {ring[a]} corner {corner[a]}")
    ring[center] = ring[corner > 0].max() + 1
    return ring, corner, center, np.array(apexes, dtype=np.int64)


def symmetry_generators(mesh):
    """The 90-degree rotation (corner i -> i+1 on every ring) first, then one
    transposition per pair of consecutive apexes (none in 2D).

    Raises MissingLabels when the labels are not of the constructor form or a
    labeled ring lacks one of its four corners.
    """
    ring, corner, _, apexes = mesh.ring_roles
    # corner vertices in id order, found by key ring * 5 + corner in one
    # sorted lookup; the keys are unique (vertex_roles refuses twins)
    v = np.flatnonzero(corner > 0)
    key = ring[v] * 5 + corner[v]
    order = np.argsort(key)
    want = ring[v] * 5 + corner[v] % 4 + 1
    at = np.minimum(np.searchsorted(key[order], want), len(v) - 1)
    lost = np.flatnonzero(key[order[at]] != want)
    if lost.size:
        u = v[lost[0]]
        raise MissingLabels(f"ring {ring[u]} has no vertex labeled corner {corner[u] % 4 + 1}")
    rotation = np.arange(mesh.n_vertices)
    rotation[v] = v[order[at]]
    generators = [rotation]
    for a, b in zip(apexes[:-1], apexes[1:]):
        perm = np.arange(mesh.n_vertices)
        perm[a], perm[b] = b, a
        generators.append(perm)
    return generators


# ---------------------------------------------------------------------------
# serialization


def to_json(value):
    """Compact JSON bytes of value, by orjson: numpy arrays from their buffers,
    a SimplicialMesh as its mesh-file object, labels as raw UTF-8, and every
    float as the shortest text that reads back to it bit for bit (Ryu)."""
    return orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY, default=lambda mesh: {
        "dim": mesh.dim, "vertices": mesh.vertices, "simplices": mesh.simplices,
        "labels": {str(k): v for k, v in sorted(mesh.labels.items())}})


def mesh_to_dict(mesh):
    """The object of a mesh file, in plain Python floats, ints and strs."""
    return orjson.loads(mesh_to_json(mesh))


def mesh_to_json(mesh):
    """to_json(mesh) plus a newline: a mesh file, and a report's mesh line."""
    return to_json(mesh) + b"\n"


def _typed_array(rows, kinds, message):
    """np.asarray(rows); InvalidParameter(message) if it is not empty and its
    dtype kind is not in kinds or a bool is among its elements.  np.asarray
    reads a bool as 1 in [0, True] and as 1.0 in [0.5, True], so only the
    entries equal to 0 or 1 have the type of their element looked up."""
    array = np.asarray(rows)
    if not array.size:
        return array
    if array.dtype.kind not in kinds:
        raise InvalidParameter(message)
    # argwhere, not nonzero: numpy 2 refuses nonzero on a 0-d array
    for index in np.argwhere((array == 0) | (array == 1)).tolist():
        item = rows
        for i in index:
            item = item[i]
        if type(item) in (bool, np.bool_):
            raise InvalidParameter(message)
    return array


def mesh_from_dict(data):
    try:
        dim = data["dim"]
        # JSON floats (1e30, 2.7) are not vertex ids, strings are not
        # coordinates, and true is neither
        vertices = _typed_array(data["vertices"], "iuf",
                                "mesh data: vertex coordinates must be numbers")
        simplices = _typed_array(data["simplices"], "i",
                                 "mesh data: simplex ids must be integers")
        labels = data.get("labels", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed mesh data: {exc}") from exc
    # 2.5, "2" and true are not dimensions
    if type(dim) is not int:
        raise InvalidParameter("mesh data: dim must be an integer")
    if not isinstance(labels, dict):
        raise InvalidParameter("mesh data: labels must be an object")
    if vertices.ndim != 2 or vertices.shape[1] != dim:
        raise InvalidParameter("mesh data: vertices do not match the declared dim")
    labels = {_vertex_id(k): v for k, v in labels.items()}
    return SimplicialMesh(vertices, simplices, labels)


def _vertex_id(key):
    """The integer whose decimal form the label key is ("1_0", " 2" and "02" are not)."""
    try:
        vertex = int(key)
    except (TypeError, ValueError):
        vertex = None
    if vertex is None or str(vertex) != key:
        raise InvalidParameter(f"mesh data: label key {key!r} is not a vertex id")
    return vertex


def mesh_from_json(text):
    """Mesh from JSON text: a str, or bytes in UTF-8 (a BOM allowed) or UTF-16/32.

    The cyclic garbage collector is paused while the text is parsed and the
    mesh built, and left as it was found: orjson makes one list per row, and
    their allocation would set off collections that scan the whole heap,
    although every one of those lists dies here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            if not isinstance(text, str) and (code := json.detect_encoding(text)) != "utf-8":
                text = text.decode(code)
            data = orjson.loads(text)
        # ValueError: not JSON, bytes that do not decode, or nested over 1024 deep
        except ValueError as exc:
            raise InvalidParameter(f"malformed mesh file: {exc}") from exc
        return mesh_from_dict(data)
    finally:
        if enabled:
            gc.enable()


def save_mesh(mesh, path):
    with open(path, "wb") as fh:
        fh.write(mesh_to_json(mesh))


def load_mesh(path):
    """Mesh from a file of JSON bytes; see mesh_from_json."""
    with open(path, "rb") as fh:
        return mesh_from_json(fh.read())
