"""Conforming simplicial meshes in arbitrary dimension.

Vertices are stored as an ``(n, d)`` float array, simplices as an ``(m, d+1)``
integer array of vertex ids.  Meshes are immutable after construction; the
coordinate and connectivity arrays are marked read-only and all constructors
are pure functions of their arguments.

Besides generic helpers (volumes, stars, angle statistics, conformity
validation, symmetry orbits) the module provides the partition families used
throughout the package:

* ``build_counterexample_2d`` -- a square triangulated along a geometric
  sequence of shrinking concentric squares ("rings"),
* ``build_pyramid_partition`` -- the d-dimensional join of that triangulation
  with unit-vector apexes,
* ``build_uniform_square`` and ``build_interval_partition`` -- reference
  partitions for comparison runs.
"""

from __future__ import annotations

import json
import math
import types
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DegenerateSimplex,
    InvalidParameter,
    InvalidVertex,
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


def _volumes(vertices, simplices):
    """Euclidean volumes |det E| / d! for every simplex row."""
    d = vertices.shape[1]
    corners = vertices[simplices]                  # (m, d+1, d)
    edges = corners[:, 1:, :] - corners[:, :1, :]  # (m, d, d)
    return np.abs(np.linalg.det(edges)) / math.factorial(d)


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
        record the ring/corner structure).

    Raises
    ------
    InvalidParameter
        On malformed arrays, out-of-range ids or unreferenced vertices.
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
        if (np.sort(simplices, axis=1)[:, 1:] == np.sort(simplices, axis=1)[:, :-1]).any():
            raise InvalidParameter("simplex with repeated vertex ids")
        referenced = np.zeros(n, dtype=bool)
        referenced[simplices] = True
        if not referenced.all():
            orphan = int(np.flatnonzero(~referenced)[0])
            raise InvalidParameter(f"vertex {orphan} is not referenced by any simplex")

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
        self._labels = dict(labels) if labels else {}

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
    def vertex_to_simplices(self):
        """List mapping each vertex id to the array of incident simplex ids."""
        buckets = [[] for _ in range(self.n_vertices)]
        for s, row in enumerate(self.simplices):
            for v in row:
                buckets[v].append(s)
        return [np.array(b, dtype=np.int64) for b in buckets]

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.n_vertices}, "
            f"simplices={self.n_simplices})"
        )


def simplex_volume(mesh, simplex):
    """Volume of one simplex, |det E| / d!.

    ``simplex`` is either an index into the mesh simplex table or an explicit
    list of d+1 vertex ids (the ids need not form a stored simplex, which is
    useful for probing candidate elements).
    """
    if np.isscalar(simplex):
        idx = int(simplex)
        if not 0 <= idx < mesh.n_simplices:
            raise InvalidParameter(f"simplex index {idx} out of range")
        ids = mesh.simplices[idx]
    else:
        ids = np.asarray(simplex, dtype=np.int64)
        if ids.shape != (mesh.dim + 1,):
            raise InvalidParameter(
                f"a simplex in dimension {mesh.dim} has {mesh.dim + 1} vertices"
            )
        if ids.min() < 0 or ids.max() >= mesh.n_vertices:
            raise InvalidVertex("vertex id out of range")
        if len(set(ids.tolist())) != len(ids):
            raise InvalidParameter("simplex with repeated vertex ids")
    vol = float(_volumes(mesh.vertices, ids[None, :])[0])
    if vol <= VOLUME_EPSILON:
        raise DegenerateSimplex(f"simplex {list(map(int, ids))} has volume {vol:.3e}")
    return vol


# ---------------------------------------------------------------------------
# partition family constructors


def check_integer(x, low, message):
    """Raise InvalidParameter(message) unless x is an int or numpy integer >= low."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool) or x < low:
        raise InvalidParameter(message)


def _check_ring_parameters(J, t):
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
    t = _check_ring_parameters(J, t)
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
    check_integer(d, 3, f"pyramid partitions need d >= 3, got {d!r}")
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


def vertex_star(mesh, vertex):
    """Simplices incident to a vertex and the neighboring vertex ids."""
    v = int(vertex)
    if not 0 <= v < mesh.n_vertices:
        raise InvalidVertex(f"vertex id {v} out of range")
    star = mesh.vertex_to_simplices[v]
    neighbors = np.unique(mesh.simplices[star])
    neighbors = neighbors[neighbors != v]
    return VertexStar(vertex=v, simplices=star, neighbors=neighbors)


@dataclass(frozen=True)
class VertexStar:
    vertex: int
    simplices: np.ndarray
    neighbors: np.ndarray


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


def _barycentric(coords, point):
    # coords: (d+1, d) simplex corners, point: (d,)
    T = (coords[1:] - coords[0]).T
    lam = np.linalg.solve(T, point - coords[0])
    return np.concatenate([[1.0 - lam.sum()], lam])


def _interiors_overlap(c1, c2):
    """LP feasibility test: do two simplices share an interior point?

    Maximizes the smallest barycentric coordinate t over common points; the
    interiors intersect iff the optimum is positive.  Coordinates are
    recentered and rescaled so the threshold 1e-9 is scale-free.
    """
    d = c1.shape[1]
    nv = d + 1
    shift = (c1.mean(axis=0) + c2.mean(axis=0)) / 2
    scale = max(np.abs(c1 - shift).max(), np.abs(c2 - shift).max(), 1e-30)
    a = (c1 - shift) / scale
    b = (c2 - shift) / scale

    # variables: lambda (nv), mu (nv), t
    n_var = 2 * nv + 1
    A_eq = np.zeros((d + 2, n_var))
    A_eq[:d, :nv] = a.T
    A_eq[:d, nv : 2 * nv] = -b.T
    A_eq[d, :nv] = 1.0
    A_eq[d + 1, nv : 2 * nv] = 1.0
    b_eq = np.zeros(d + 2)
    b_eq[d] = 1.0
    b_eq[d + 1] = 1.0
    # lambda_i >= t and mu_i >= t
    A_ub = np.zeros((2 * nv, n_var))
    A_ub[:nv, :nv] = -np.eye(nv)
    A_ub[nv:, nv : 2 * nv] = -np.eye(nv)
    A_ub[:, -1] = 1.0
    cost = np.zeros(n_var)
    cost[-1] = -1.0
    bounds = [(0.0, 1.0)] * (2 * nv) + [(0.0, 1.0)]
    res = linprog(
        cost, A_ub=A_ub, b_ub=np.zeros(2 * nv), A_eq=A_eq, b_eq=b_eq, bounds=bounds
    )
    if res.status != 0:
        # infeasible means the closed simplices are disjoint
        return False
    return float(res.x[-1]) > 1e-9


def _face_side_sign(face_coords, point):
    # orientation of (face, point); face order must be identical for both calls
    edges = np.vstack([face_coords[1:] - face_coords[0], point - face_coords[0]])
    det = float(np.linalg.det(edges))
    return 0.0 if det == 0 else math.copysign(1.0, det)


def validate_conformity(mesh):
    """Check that the mesh is a face-to-face partition.

    Returns a list of human-readable violations (empty for a conforming
    mesh): boundary faces shared by more than two simplices, vertices lying
    inside or on a simplex they do not belong to (hanging nodes), duplicate
    or folded simplex pairs, and pairs with overlapping interiors.
    """
    violations = []
    d = mesh.dim
    simplices = mesh.simplices
    verts = mesh.vertices

    face_owners = defaultdict(list)
    for s, row in enumerate(simplices):
        for k in range(d + 1):
            face = frozenset(np.delete(row, k).tolist())
            face_owners[face].append(s)
    for face, owners in sorted(face_owners.items(), key=lambda kv: sorted(kv[0])):
        if len(owners) > 2:
            violations.append(
                f"face {tuple(sorted(face))} is shared by {len(owners)} simplices"
            )

    # hanging nodes: a vertex inside the closed simplex of a foreign element
    mins = verts[simplices].min(axis=1)
    maxs = verts[simplices].max(axis=1)
    extent = np.maximum(maxs - mins, 1e-30)
    for s, row in enumerate(simplices):
        own = set(row.tolist())
        lo = mins[s] - 1e-12 * extent[s]
        hi = maxs[s] + 1e-12 * extent[s]
        inside_box = np.flatnonzero(
            ((verts >= lo) & (verts <= hi)).all(axis=1)
        )
        for v in inside_box:
            if int(v) in own:
                continue
            lam = _barycentric(verts[row], verts[v])
            if (lam >= -1e-12).all():
                violations.append(
                    f"vertex {int(v)} lies on simplex {s} without being one of its vertices"
                )

    # pairwise checks on bounding-box colliding pairs
    m = mesh.n_simplices
    vertex_sets = [set(row.tolist()) for row in simplices]
    for i in range(m):
        for j in range(i + 1, m):
            if (mins[i] > maxs[j] + 1e-12 * extent[i]).any() or (
                mins[j] > maxs[i] + 1e-12 * extent[j]
            ).any():
                continue
            shared = vertex_sets[i] & vertex_sets[j]
            if len(shared) == d + 1:
                violations.append(f"simplices {i} and {j} are identical")
            elif len(shared) == d:
                face = sorted(shared)
                pi = next(iter(vertex_sets[i] - shared))
                pj = next(iter(vertex_sets[j] - shared))
                si = _face_side_sign(verts[face], verts[pi])
                sj = _face_side_sign(verts[face], verts[pj])
                if si * sj >= 0:
                    violations.append(
                        f"simplices {i} and {j} fold onto the same side of their shared face"
                    )
            else:
                if _interiors_overlap(verts[simplices[i]], verts[simplices[j]]):
                    violations.append(
                        f"simplices {i} and {j} have overlapping interiors"
                    )
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
    generators: list
    orbit_of: np.ndarray

    @property
    def n_orbits(self):
        return len(self.orbits)


def symmetry_orbits(mesh, permutations):
    """Vertex orbits of the group generated by one or more mesh symmetries.

    Each permutation must be a bijection of the vertex ids that maps the
    simplex set onto itself (as sets of vertex-id sets); otherwise
    NotASymmetry is raised.
    """
    perms = np.asarray(permutations, dtype=np.int64)
    if perms.ndim == 1:
        perms = perms[None, :]
    if perms.ndim != 2 or perms.shape[1] != mesh.n_vertices:
        raise InvalidParameter("permutations must have one entry per vertex")
    simplex_set = {frozenset(row.tolist()) for row in mesh.simplices}
    n = mesh.n_vertices
    for perm in perms:
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise NotASymmetry("not a bijection of the vertex ids")
        mapped = {frozenset(perm[row].tolist()) for row in mesh.simplices}
        if mapped != simplex_set:
            missing = next(iter(mapped - simplex_set))
            raise NotASymmetry(
                f"permutation sends a simplex to {sorted(missing)}, "
                "which is not in the mesh"
            )

    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for perm in perms:
        for v in range(n):
            ra, rb = find(v), find(perm[v])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    roots = np.array([find(v) for v in range(n)])
    groups = defaultdict(list)
    for v, r in enumerate(roots):
        groups[r].append(v)
    orbits = [np.array(groups[r], dtype=np.int64) for r in sorted(groups)]
    orbit_of = np.empty(n, dtype=np.int64)
    for k, orb in enumerate(orbits):
        orbit_of[orb] = k
    return OrbitPartition(orbits=orbits, generators=[p.copy() for p in perms],
                          orbit_of=orbit_of)


def vertex_roles(mesh):
    """Decode the constructor labels of a shrinking-square mesh.

    Returns ``(ring, corner, center, apexes)`` where ``ring[v]`` is the square
    index for corner vertices, J+1 for the center and -1 for apexes;
    ``corner[v]`` is 1..4 for corner vertices and 0 otherwise.  Raises
    MissingLabels when the labels are absent or not of the constructor form.
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
        if lab == "center":
            center = v
        elif parts[0] == "apex" and len(parts) == 2:
            apexes.append(v)
        elif parts[0] == "ring" and len(parts) == 4 and parts[2] == "corner":
            ring[v] = int(parts[1])
            corner[v] = int(parts[3])
        else:
            raise MissingLabels(f"unrecognized vertex label {lab!r}")
    if center < 0 or not (corner > 0).any():
        raise MissingLabels("mesh labels lack a center/ring structure")
    ring[center] = ring[corner > 0].max() + 1
    return ring, corner, center, np.array(apexes, dtype=np.int64)


def ring_rotation_permutation(mesh):
    """Vertex permutation of the 90-degree rotation (corner i -> i+1 per ring)."""
    ring, corner, center, apexes = vertex_roles(mesh)
    where = {}
    for v in range(mesh.n_vertices):
        if corner[v] > 0:
            where[(int(ring[v]), int(corner[v]))] = v
    perm = np.arange(mesh.n_vertices)
    for (j, i), v in where.items():
        perm[v] = where[(j, i % 4 + 1)]
    return perm


def symmetry_generators(mesh):
    """Rotation generator plus apex transpositions (if the mesh has apexes)."""
    generators = [ring_rotation_permutation(mesh)]
    _, _, _, apexes = vertex_roles(mesh)
    for a, b in zip(apexes[:-1], apexes[1:]):
        perm = np.arange(mesh.n_vertices)
        perm[a], perm[b] = b, a
        generators.append(perm)
    return generators


# ---------------------------------------------------------------------------
# serialization


def mesh_to_dict(mesh):
    """JSON-ready dict with full-precision (17 significant digit) coordinates.

    Floats are emitted as strings-of-digits via repr-exact formatting below;
    the dict holds plain Python floats, the writer controls the digits.
    """
    return {
        "dim": mesh.dim,
        "vertices": [[float(c) for c in row] for row in mesh.vertices],
        "simplices": [[int(v) for v in row] for row in mesh.simplices],
        "labels": {str(k): v for k, v in sorted(mesh.labels.items())},
    }


def _fmt(x):
    return format(float(x), ".17g")


def mesh_to_json(mesh):
    """Deterministic JSON text for a mesh (same mesh -> same bytes)."""
    lines = ["{", f'  "dim": {mesh.dim},', '  "vertices": [']
    rows = [
        "    [" + ", ".join(_fmt(c) for c in row) + "]" for row in mesh.vertices
    ]
    lines.append(",\n".join(rows))
    lines.append("  ],")
    lines.append('  "simplices": [')
    rows = [
        "    [" + ", ".join(str(int(v)) for v in row) + "]" for row in mesh.simplices
    ]
    lines.append(",\n".join(rows))
    lines.append("  ],")
    items = [f'    "{k}": {json.dumps(v)}' for k, v in sorted(mesh.labels.items())]
    if items:
        lines.append('  "labels": {')
        lines.append(",\n".join(items))
        lines.append("  }")
    else:
        lines.append('  "labels": {}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def mesh_from_dict(data):
    try:
        dim = int(data["dim"])
        vertices = np.asarray(data["vertices"], dtype=float)
        simplices = np.asarray(data["simplices"], dtype=np.int64)
        labels = {int(k): str(v) for k, v in data.get("labels", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed mesh data: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != dim:
        raise InvalidParameter("mesh data: vertices do not match the declared dim")
    return SimplicialMesh(vertices, simplices, labels)


def mesh_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"malformed mesh file: {exc}") from exc
    return mesh_from_dict(data)


def save_mesh(mesh, path):
    with open(path, "w") as fh:
        fh.write(mesh_to_json(mesh))


def load_mesh(path):
    with open(path) as fh:
        return mesh_from_json(fh.read())
