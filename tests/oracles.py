"""Independent reference computations used to cross-check the library.

Nothing here shares code with the closed-form assembly paths under test:
mass matrices and loads are integrated with a tensor Gauss-Legendre rule
mapped onto the simplex (Duffy transform), absolute integrals of splines are
approximated by centroid rules on fine self-similar subdivisions or computed
simplex by simplex with a scalar recursion, witness norms are found by
brute force over all cellwise sign patterns, the dual functions and the
inverse-norm bound come from explicit dense inverses, overlapping
simplex interiors are found by one linear program per pair, hanging nodes
by a plain loop over every simplex and foreign vertex, vertex stars by a
scan of the simplex rows, symmetry orbits by a walk along the generators'
cycles, and the projected witness on the shrinking-square meshes,
determinants, orientation signs and the local conformity certificate are
computed in exact rational arithmetic.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from projnorm import build_counterexample_2d
from projnorm.mesh import _TOUCH_RTOL


def simplex_quadrature(d, n=8):
    """Barycentric points and weights on the reference d-simplex.

    Tensor Gauss-Legendre points on [0,1]^d mapped by the Duffy transform
    x_k = u_k * prod_{l<k} (1 - u_l); weights sum to the reference volume
    1/d!.  Exact for polynomials well beyond degree 2 for n >= 8.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([x] * d), indexing="ij")
    wgrids = np.meshgrid(*([w] * d), indexing="ij")
    U = np.column_stack([g.ravel() for g in grids])
    W = np.prod(np.column_stack([g.ravel() for g in wgrids]), axis=1)
    X = np.empty_like(U)
    remaining = np.ones(U.shape[0])
    for k in range(d):
        X[:, k] = U[:, k] * remaining
        remaining = remaining * (1.0 - U[:, k])
        if k < d - 1:
            W = W * (1.0 - U[:, k]) ** (d - 1 - k)
    bary = np.column_stack([1.0 - X.sum(axis=1), X])
    return bary, W


def quadrature_mass_matrix(mesh, n=8):
    """Dense mass matrix from numerical quadrature of the hat products."""
    d = mesh.dim
    bary, W = simplex_quadrature(d, n)
    local = (bary * W[:, None]).T @ bary  # reference integrals of lambda_a lambda_b
    nv = mesh.n_vertices
    M = np.zeros((nv, nv))
    for row in mesh.simplices:
        coords = mesh.vertices[row]
        detE = abs(np.linalg.det(coords[1:] - coords[0]))
        M[np.ix_(row, row)] += detE * local
    return M


def quadrature_load(mesh, values, n=8):
    """Load vector from numerical quadrature against cellwise-constant data."""
    d = mesh.dim
    bary, W = simplex_quadrature(d, n)
    local = W @ bary  # reference integrals of lambda_a
    values = np.asarray(values, dtype=float)
    F = np.zeros(mesh.n_vertices)
    for s, row in enumerate(mesh.simplices):
        coords = mesh.vertices[row]
        detE = abs(np.linalg.det(coords[1:] - coords[0]))
        F[row] += values[s] * detE * local
    return F


@functools.cache
def _subdivide_reference_triangle(k):
    """Vertices (barycentric) of the k^2 congruent subtriangles of a triangle.

    Lattice point (i, j) with i + j < k owns the upward triangle
    (i, j), (i+1, j), (i, j+1) and, when i + j < k - 1, the downward one
    (i+1, j), (i+1, j+1), (i, j+1), listed in that order.  The array is
    read-only because every caller with the same k shares it.
    """
    i, j = np.nonzero(np.add.outer(np.arange(k), np.arange(k)) < k)
    corners = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]])
    lattice = np.stack([i, j], -1)[:, None, None, :] + corners  # (P, up/down, 3, 2)
    keep = np.stack([np.ones_like(i, dtype=bool), i + j < k - 1], 1).ravel()
    a, b = np.moveaxis(lattice.reshape(-1, 3, 2)[keep], -1, 0)
    out = np.stack([1.0 - (a + b) / k, a / k, b / k], -1)  # (n_sub, 3, 3)
    out.setflags(write=False)
    return out


def subdivision_abs_integral(mesh, nodal, k=256):
    """Centroid-rule approximation of the integral of |spline|.

    Each simplex is split into k (1D) or k^2 (2D) self-similar pieces; on
    pieces not crossed by the zero line the centroid rule is exact, so the
    error comes only from the O(k) crossing pieces and is O(1/k^2) overall.
    """
    nodal = np.asarray(nodal, dtype=float)
    total = 0.0
    if mesh.dim == 1:
        for s, row in enumerate(mesh.simplices):
            a, b = nodal[row]
            h = float(mesh.simplex_volumes[s]) / k
            mids = a + (np.arange(k) + 0.5) / k * (b - a)
            total += h * np.abs(mids).sum()
        return total
    if mesh.dim == 2:
        sub = _subdivide_reference_triangle(k)
        centroids = sub.mean(axis=1)  # (n_sub, 3) barycentric
        area_frac = 1.0 / k**2
        for s, row in enumerate(mesh.simplices):
            vals = centroids @ nodal[row]
            total += float(mesh.simplex_volumes[s]) * area_frac * np.abs(vals).sum()
        return total
    raise NotImplementedError("subdivision oracle implemented for d = 1, 2")


def _abs_simplex(values, volume, vol_floor, sign_rtol):
    """Integral of |linear| over one simplex by recursive edge splitting.

    Without a sign change the integral is volume times |mean|.  Otherwise the
    simplex is split at the zero theta = v_i / (v_i - v_j) of the edge from
    the first positive vertex i to the first negative vertex j; the children
    replace v_j (resp. v_i) by 0 and have theta (resp. 1 - theta) times the
    volume.  Branches below vol_floor are dropped.
    """
    if volume <= vol_floor:
        return 0.0
    vmax = np.abs(values).max()
    if vmax == 0.0:
        return 0.0
    thr = sign_rtol * vmax
    pos = values > thr
    neg = values < -thr
    if not pos.any() or not neg.any():
        return volume * abs(values.mean())
    i = int(np.argmax(pos))
    j = int(np.argmax(neg))
    theta = values[i] / (values[i] - values[j])
    child_a = values.copy()
    child_a[j] = 0.0
    child_b = values.copy()
    child_b[i] = 0.0
    return _abs_simplex(child_a, theta * volume, vol_floor, sign_rtol) + _abs_simplex(
        child_b, (1.0 - theta) * volume, vol_floor, sign_rtol
    )


def recursive_abs_integral(mesh, nodal, sign_rtol=1e-14, volume_drop=1e-16):
    """Integral of |spline| summed one simplex at a time with _abs_simplex.

    The scalar form of the library's edge-split rule, with the same sign
    threshold; branches thinner than volume_drop times their simplex are
    dropped.
    """
    nodal = np.asarray(nodal, dtype=float)
    total = 0.0
    for row, volume in zip(mesh.simplices, mesh.simplex_volumes):
        total += _abs_simplex(nodal[row], float(volume), volume_drop * float(volume), sign_rtol)
    return total


def brute_force_witness(mesh, mass_dense):
    """Max sup norm of the projection over all cellwise +-1 data patterns.

    Exhaustive over 2^m patterns, so only usable for small simplex counts.
    Returns (best sup norm, best pattern).
    """
    m = mesh.n_simplices
    d = mesh.dim
    # load map: column s spreads volume/(d+1) onto the vertices of simplex s
    L = np.zeros((mesh.n_vertices, m))
    for s, row in enumerate(mesh.simplices):
        L[row, s] += mesh.simplex_volumes[s] / (d + 1)
    patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    X = np.linalg.solve(mass_dense, L @ patterns.T)
    sups = np.abs(X).max(axis=0)
    best = int(np.argmax(sups))
    return float(sups[best]), patterns[best]


def dense_dual_basis(M):
    """Nodal values of the dual functions, the rows of an explicit dense M^{-1}."""
    return np.linalg.inv(M.toarray())


def rational_ring_witness(J, t):
    """Exact ring values of the projected ring-alternating data on cx(J, t).

    t is a Fraction.  Only the connectivity and the ring labels come from
    build_counterexample_2d(J, float(t)): the vertices of ring j are the
    exact points (+-t^j, +-t^j), the center is the origin, and a triangle
    carries the data (-1)^r, r the largest ring among its vertices with the
    center counting as ring J + 1.  M and F are assembled in Fractions in
    closed form (area / 12 times 1 + delta, and area / 3 per vertex), the
    columns of each ring are summed, and the rows of one ring, which must
    agree exactly, give one equation of the (J+2)-unknown system, solved by
    Gauss-Jordan elimination.  Returns the J + 2 values, ring 0 first and the
    center last.
    """
    mesh = build_counterexample_2d(J, float(t))
    ring, points = [], []
    for v, (x, y) in enumerate(mesh.vertices):
        label = mesh.labels[v]
        j = J + 1 if label == "center" else int(label.split()[1])
        scale = Fraction(0) if label == "center" else t**j
        ring.append(j)
        points.append((int(np.sign(x)) * scale, int(np.sign(y)) * scale))
    k = J + 2
    # row P: sum over ring r of M[P, Q] for Q in ring r, then F[P]
    rows = [[Fraction(0)] * (k + 1) for _ in mesh.vertices]
    for tri in mesh.simplices.tolist():
        (x0, y0), (x1, y1), (x2, y2) = (points[v] for v in tri)
        area = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2
        sign = 1 if max(ring[v] for v in tri) % 2 == 0 else -1
        for p in tri:
            rows[p][k] += sign * area / 3
            for q in tri:
                rows[p][ring[q]] += area / 12 * (2 if p == q else 1)
    system = {}
    for p, row in enumerate(rows):
        if system.setdefault(ring[p], row) != row:
            raise AssertionError(f"the rows of ring {ring[p]} differ")
    A = [system[r] for r in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if A[r][c] != 0)
        A[c], A[pivot] = A[pivot], A[c]
        A[c] = [a / A[c][c] for a in A[c]]
        for r in range(k):
            factor = A[r][c]
            if r != c and factor != 0:
                A[r] = [a - factor * b for a, b in zip(A[r], A[c])]
    return [row[k] for row in A]


def inverse_norm_bound(mesh, mass_dense):
    """(d+2)/2 * ||A^{-1}||_inf from an explicit inverse of A = D^{-1} M."""
    A = mass_dense / np.diag(mass_dense)[:, None]
    return 0.5 * (mesh.dim + 2) * float(np.abs(np.linalg.inv(A)).sum(axis=1).max())


def lp_interiors_overlap(c1, c2):
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


def hanging_nodes(mesh):
    """(simplex, vertex) pairs, in that order, of vertices on foreign simplices.

    Loops over every simplex and every vertex not among its own: the vertex
    counts when it lies in the simplex's bounding box widened by _TOUCH_RTOL
    of its largest extent and all its barycentric coordinates are at least
    -_TOUCH_RTOL.
    """
    found = []
    for s, ids in enumerate(mesh.simplices.tolist()):
        corners = mesh.vertices[ids]
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        slack = _TOUCH_RTOL * (hi - lo).max()
        T = (corners[1:] - corners[0]).T
        for v, x in enumerate(mesh.vertices):
            if v in ids or not ((x >= lo - slack) & (x <= hi + slack)).all():
                continue
            lam = np.linalg.solve(T, x - corners[0])
            if 1.0 - lam.sum() >= -_TOUCH_RTOL and (lam >= -_TOUCH_RTOL).all():
                found.append((s, v))
    return found


def permutation_orbits(n, permutations):
    """Orbits, each ascending, sorted by smallest member, of the group the
    permutations of range(n) generate: a depth-first walk from each vertex
    not yet seen, stepping v -> perm[v] for every permutation, which visits
    whole cycles and so needs no inverse."""
    orbit_of = [-1] * n
    orbits = []
    for start in range(n):
        if orbit_of[start] >= 0:
            continue
        orbit_of[start] = len(orbits)
        members, stack = [start], [start]
        while stack:
            v = stack.pop()
            for perm in permutations:
                w = int(perm[v])
                if orbit_of[w] < 0:
                    orbit_of[w] = len(orbits)
                    members.append(w)
                    stack.append(w)
        orbits.append(sorted(members))
    return orbit_of, orbits


def random_interval_mesh(rng, max_segments=50, max_ratio=1e6):
    """Interval partition with segment-length ratios up to max_ratio."""
    n = int(rng.integers(1, max_segments + 1))
    lengths = 10.0 ** rng.uniform(0.0, math.log10(max_ratio), size=n)
    return np.concatenate([[0.0], np.cumsum(lengths)])


def jittered_square_vertices(rng, n, amplitude=0.25):
    """Uniform-grid vertex coordinates perturbed without flipping triangles."""
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel()])
    return verts + rng.uniform(-amplitude / n, amplitude / n, size=verts.shape) * 0.3


def random_stellar_mesh(rng, d, splits, max_grading=1e3):
    """Vertices and simplices of a random d-simplex refined by stellar splits.

    Each split cuts a random simplex of the mesh at an interior point into
    its d + 1 cones, which keeps the mesh conforming; the point's barycentric
    weights spread over max_grading, so the pieces can be graded.
    """
    vertices = list(random_simplex_vertices(rng, d))
    simplices = [list(range(d + 1))]
    for _ in range(splits):
        simplex = simplices.pop(int(rng.integers(len(simplices))))
        weights = 10.0 ** rng.uniform(-math.log10(max_grading), 0.0, d + 1)
        vertices.append(weights @ np.asarray(vertices)[simplex] / weights.sum())
        p = len(vertices) - 1
        simplices += [simplex[:k] + [p] + simplex[k + 1:] for k in range(d + 1)]
    return np.asarray(vertices), simplices


def random_simplex_vertices(rng, d, min_volume=0.05):
    """Coordinates of a single nondegenerate d-simplex."""
    while True:
        coords = rng.uniform(-1.0, 1.0, size=(d + 1, d))
        vol = abs(np.linalg.det(coords[1:] - coords[0])) / math.factorial(d)
        if vol >= min_volume:
            return coords


def vertex_star(mesh, vertex):
    """(simplices, neighbors): the ids of the simplices holding the vertex and
    of the other vertices they hold, both ascending."""
    simplices = np.flatnonzero((mesh.simplices == vertex).any(axis=1))
    neighbors = np.unique(mesh.simplices[simplices])
    return simplices, neighbors[neighbors != vertex]


def _fraction_det(A):
    """Determinant of a square list of Fraction rows, by Gaussian elimination
    (1 for the empty matrix)."""
    A = [list(row) for row in A]
    det = Fraction(1)
    for c in range(len(A)):
        pivot = next((r for r in range(c, len(A)) if A[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, len(A)):
            factor = A[r][c] / A[c][c]
            A[r] = [a - factor * b for a, b in zip(A[r], A[c])]
    return det


def _fraction_points(points):
    """Float points as rows of the Fractions they are."""
    return [[Fraction(x) for x in row] for row in np.asarray(points, dtype=float).tolist()]


def _edges_determinant(p):
    """det[p_1 - p_0, ..., p_d - p_0] of Fraction rows p."""
    return _fraction_det([[a - b for a, b in zip(row, p[0])] for row in p[1:]])


def simplex_determinant(points):
    """det[p_1 - p_0, ..., p_d - p_0] of the d+1 float points of a d-simplex,
    exactly: a Fraction, by Gaussian elimination on Fraction differences."""
    return _edges_determinant(_fraction_points(points))


def orientation_sign(points):
    """Exact sign, -1, 0 or 1, of simplex_determinant(points)."""
    det = simplex_determinant(points)
    return (det > 0) - (det < 0)


def rational_conformity_certificate(mesh):
    """Steps 1-4 of mesh._certify_conformity, on the float coordinates read
    as the Fractions they are, with every sign and height exact.

    1. No facet has more than two owners.
    2. The opposite vertices of a two-owner facet F have opposite
       orientation_signs against F.
    3. No vertex x lies outside a one-owner facet F by more than _TOUCH_RTOL
       times the mesh extent times |n|.  n holds the cofactors of x in
       det[F, x] = n . (x - f), f the first vertex of F, so both sides are
       compared squared.
    4. The centroid c of the first simplex of largest exact volume has every
       barycentric coordinate at least -_TOUCH_RTOL in one simplex only: the
       coordinate i in Q is det[Q with q_i replaced by c] / det[Q].
    """
    simplices = mesh.simplices.tolist()
    opposite = {}
    for row in simplices:
        for v in row:
            opposite.setdefault(tuple(sorted(set(row) - {v})), []).append(v)
    if any(len(lone) > 2 for lone in opposite.values()):
        return False
    for facet, lone in opposite.items():
        if len(lone) == 2 and (orientation_sign(mesh.vertices[[*facet, lone[0]]])
                               * orientation_sign(mesh.vertices[[*facet, lone[1]]]) >= 0):
            return False

    X = _fraction_points(mesh.vertices)
    rtol = Fraction(_TOUCH_RTOL)
    tol = rtol * max(max(col) - min(col) for col in zip(*X))
    for facet, lone in opposite.items():
        if len(lone) == 1:
            f = X[facet[0]]
            E = [[a - b for a, b in zip(X[v], f)] for v in facet[1:]]
            n = [(-1) ** (len(f) - 1 + k) * _fraction_det([r[:k] + r[k + 1:] for r in E])
                 for k in range(len(f))]
            heights = [sum(a * (b - c) for a, b, c in zip(n, x, f)) for x in X]
            inward = heights[lone[0]]
            bound = tol ** 2 * sum(a * a for a in n)
            if any(h * inward < 0 and h * h > bound for h in heights):
                return False

    volumes = [abs(_edges_determinant([X[v] for v in row])) for row in simplices]
    largest = [X[v] for v in simplices[volumes.index(max(volumes))]]
    c = [sum(col) / len(largest) for col in zip(*largest)]
    held = 0
    for row in simplices:
        Q = [X[v] for v in row]
        det = _edges_determinant(Q)
        held += all(_edges_determinant(Q[:i] + [c] + Q[i + 1:]) * det
                    >= -rtol * det * det for i in range(len(Q)))
    return held == 1
