import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import orjson
import pytest
import oracles
from hypothesis import given, settings, strategies as st
from oracles import lp_interiors_overlap, random_simplex_vertices, vertex_star

from projnorm import (
    DegenerateSimplex,
    InvalidParameter,
    MissingLabels,
    NotASymmetry,
    SimplicialMesh,
    UnderflowRisk,
    UnsupportedDimension,
    angle_stats,
    build_counterexample_2d,
    build_interval_partition,
    build_pyramid_partition,
    build_uniform_square,
    load_mesh,
    mesh_from_json,
    mesh_to_dict,
    mesh_to_json,
    reduced_ring_system,
    save_mesh,
    symmetry_generators,
    symmetry_orbits,
    validate_conformity,
    vertex_roles,
)
from projnorm import mesh as meshmod
from projnorm.mesh import _candidate_edges


def negated_corner_join(J, t, d):
    # ring 11 corner 1 reflected through the center folds its simplices over
    # their neighbors
    mesh = build_pyramid_partition(J, t, d)
    verts = mesh.vertices.copy()
    verts[next(v for v, lab in mesh.labels.items() if lab == "ring 11 corner 1"), :2] *= -1
    return SimplicialMesh(verts, mesh.simplices)


def rotated_join(J, t, d):
    mesh = build_pyramid_partition(J, t, d)
    Q = np.linalg.qr(np.random.default_rng(11).standard_normal((d, d)))[0]
    return SimplicialMesh(mesh.vertices @ Q.T, mesh.simplices)


def jittered_join(J, t, d, amplitude, rng):
    # every base vertex moves by up to amplitude times its ring's size
    mesh = build_pyramid_partition(J, t, d)
    ring = vertex_roles(mesh)[0]
    base = ring >= 0
    verts = mesh.vertices.copy()
    verts[base, :2] += rng.uniform(-amplitude, amplitude, (base.sum(), 2)) * t ** ring[base, None]
    return SimplicialMesh(verts, mesh.simplices)


def simplex_soup(d, rng, n, pool=None):
    """n random d-simplices: vertex-disjoint, or drawn from pool shared points."""
    if pool is None:
        verts = np.vstack([random_simplex_vertices(rng, d) + rng.uniform(-1.0, 1.0, d)
                           for _ in range(n)])
        return SimplicialMesh(verts, np.arange(n * (d + 1)).reshape(n, d + 1))
    ids = np.array([rng.choice(pool, d + 1, replace=False) for _ in range(n)])
    used, ids = np.unique(ids, return_inverse=True)
    return SimplicialMesh(rng.uniform(-1.0, 1.0, (pool, d))[used], ids.reshape(n, d + 1))


def deep_star_join(J, t, d):
    """cx(J, t) for d = 2, else its join, plus one simplex on three new
    vertices: a triangle half as wide as the innermost square, pointing up
    across the center's fan, joined to the apexes."""
    mesh = build_counterexample_2d(J, t) if d == 2 else build_pyramid_partition(J, t, d)
    angles = np.pi / 2 + 2 * np.pi / 3 * np.arange(3)
    star = np.zeros((3, d))
    star[:, :2] = 0.5 * t**J * np.column_stack([np.cos(angles), np.sin(angles)])
    n = mesh.n_vertices
    apexes = [v for v, label in mesh.labels.items() if label.startswith("apex")]
    return SimplicialMesh(np.vstack([mesh.vertices, star]),
                          np.vstack([mesh.simplices, [n, n + 1, n + 2, *apexes]]))


def l_shape():
    """Three unit squares of [0, 2]^2, each cut along its rising diagonal: a
    conforming mesh of a non-convex domain."""
    verts = [(x, y) for y in range(3) for x in range(3) if (x, y) != (2, 2)]
    vid = {v: k for k, v in enumerate(verts)}
    tris = []
    for x, y in (0, 0), (1, 0), (0, 1):
        a, b, c, e = vid[x, y], vid[x + 1, y], vid[x + 1, y + 1], vid[x, y + 1]
        tris += [[a, b, c], [a, c, e]]
    return SimplicialMesh(verts, tris)


def double_cover(mesh):
    """Two copies of a mesh, the second on duplicated vertex ids: every
    facet keeps its owners, and every point is covered twice."""
    return SimplicialMesh(np.vstack([mesh.vertices] * 2),
                          np.vstack([mesh.simplices, mesh.simplices + mesh.n_vertices]))


def sheared_double_cover():
    """[0, 3]^2 cut along one diagonal, and again, on duplicated vertex ids,
    along the other: the centroid (2, 1) of the first triangle lies on the
    second cut, in no other simplex's interior."""
    square = [(0, 0), (3, 0), (3, 3), (0, 3)]
    return SimplicialMesh(square * 2, [[0, 1, 2], [0, 2, 3], [4, 5, 7], [5, 6, 7]])


def one_pass_violations(mesh, facets_only=False):
    """_pairwise_violations with every candidate normal (or only the facet
    normals) tried in one pass of _unseparated."""
    def one_pass(P, Q, s):
        tails, heads, facets = _candidate_edges(P.shape[2], s)
        if facets_only:
            tails, heads = tails[:facets], heads[:facets]
        return meshmod._unseparated(P, Q, tails, heads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshmod, "_interiors_overlap", one_pass)
        return meshmod._pairwise_violations(mesh)


def unit_triangle():
    return SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


class TestConstructorValidation:
    def test_rejects_empty_vertices(self):
        with pytest.raises(InvalidParameter):
            SimplicialMesh(np.zeros((0, 2)), [[0, 1, 2]])

    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(InvalidParameter):
            SimplicialMesh([[0, 0], [1, 0], [0, np.nan]], [[0, 1, 2]])

    def test_rejects_bad_simplex_width(self):
        with pytest.raises(InvalidParameter):
            SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1]])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(InvalidParameter):
            SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])

    def test_rejects_repeated_ids(self):
        with pytest.raises(InvalidParameter):
            SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 1]])

    def test_rejects_unreferenced_vertex(self):
        with pytest.raises(InvalidParameter):
            SimplicialMesh([[0, 0], [1, 0], [0, 1], [5, 5]], [[0, 1, 2]])

    def test_rejects_degenerate_simplex(self):
        with pytest.raises(DegenerateSimplex):
            SimplicialMesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])

    @pytest.mark.parametrize("labels", [{7: "x"}, {-1: "y"}, {True: "x"}, {"0": "x"},
                                        {1.0: "x"}, {0: None}, {0: ["ring 1 corner 1"]},
                                        {0: "ring \ud800"}],
                             ids=["key-too-large", "key-negative", "key-bool", "key-str",
                                  "key-float", "label-none", "label-list",
                                  "label-lone-surrogate"])
    def test_rejects_labels_save_mesh_could_not_load(self, labels):
        # keys are vertex ids 0..n-1 and values strings with a UTF-8 form, as
        # save_mesh and load_mesh require
        with pytest.raises(InvalidParameter):
            SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], labels)

    def test_arrays_are_immutable(self):
        mesh = unit_triangle()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 7.0
        with pytest.raises(ValueError):
            mesh.simplices[0, 0] = 2


class TestSimplexVolume:
    def test_unit_triangle(self):
        assert unit_triangle().simplex_volumes[0] == 0.5

    def test_unit_tetrahedron(self):
        mesh = SimplicialMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]]
        )
        assert mesh.simplex_volumes[0] == pytest.approx(1 / 6, rel=1e-15)

    def test_segment_length(self):
        mesh = build_interval_partition([0.0, 0.25, 1.0])
        assert mesh.simplex_volumes[1] == 0.75

    def test_invariance_under_permutation_and_rigid_motion(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(-1, 1, size=(4, 3))
        mesh = SimplicialMesh(coords, [[0, 1, 2, 3]])
        base = mesh.simplex_volumes[0]
        perm = SimplicialMesh(coords[[2, 0, 3, 1]], [[0, 1, 2, 3]])
        assert perm.simplex_volumes[0] == pytest.approx(base, rel=1e-12)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = SimplicialMesh(coords @ Q.T + rng.uniform(-5, 5, 3), [[0, 1, 2, 3]])
        assert moved.simplex_volumes[0] == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: build_counterexample_2d(60, 0.01),
        lambda: build_pyramid_partition(40, 0.01, 3),
        lambda: build_pyramid_partition(40, 0.01, 5),
    ], ids=["cx-J60", "pyramid-d3-J40", "pyramid-d5-J40"])
    def test_graded_volumes_match_exact_determinants(self, build):
        # np.linalg.det computes sign * exp(logdet), so its error grows with
        # |log det|: on these meshes it was off by up to 7.4e-14 relative
        mesh = build()
        scale = math.factorial(mesh.dim)
        for row, volume in zip(mesh.simplices, mesh.simplex_volumes.tolist()):
            exact = abs(oracles.simplex_determinant(mesh.vertices[row])) / scale
            assert abs(Fraction(volume) - exact) <= Fraction(2e-14) * exact, row


class TestShrinkingSquares:
    @pytest.mark.parametrize("J", [1, 2, 3, 7])
    def test_counts(self, J):
        mesh = build_counterexample_2d(J, 0.3)
        assert mesh.n_vertices == 4 * J + 5
        assert mesh.n_simplices == 8 * J + 4

    def test_corner_coordinates_and_labels(self):
        t = 0.37
        mesh = build_counterexample_2d(2, t)
        ring, corner, center, apexes = vertex_roles(mesh)
        assert apexes.size == 0
        assert np.array_equal(mesh.vertices[center], [0.0, 0.0])
        signs = {1: (1, 1), 2: (1, -1), 3: (-1, -1), 4: (-1, 1)}
        for v in range(mesh.n_vertices):
            if v == center:
                continue
            sx, sy = signs[int(corner[v])]
            expect = [sx * t ** ring[v], sy * t ** ring[v]]
            assert mesh.vertices[v] == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_total_area_is_four(self, t):
        for J in range(1, 13):
            mesh = build_counterexample_2d(J, t)
            assert mesh.simplex_volumes.sum() == pytest.approx(4.0, rel=1e-12)

    def test_middle_ring_valence(self):
        mesh = build_counterexample_2d(3, 0.2)
        ring, corner, center, _ = vertex_roles(mesh)
        for v in np.flatnonzero((ring >= 1) & (ring <= 2) & (corner > 0)):
            simplices, neighbors = vertex_star(mesh, v)
            assert len(simplices) == 6
            assert len(neighbors) == 6

    def test_center_star(self):
        mesh = build_counterexample_2d(2, 0.2)
        _, _, center, _ = vertex_roles(mesh)
        simplices, neighbors = vertex_star(mesh, center)
        assert len(simplices) == 4
        assert len(neighbors) == 4

    def test_parameter_validation(self):
        for bad in [(0, 0.3), (-1, 0.3), (2, 0.0), (2, 1.0), (2, 1.5), (2, -0.2)]:
            with pytest.raises(InvalidParameter):
                build_counterexample_2d(*bad)

    def test_underflow_guard(self):
        with pytest.raises(UnderflowRisk):
            build_counterexample_2d(13, 1e-10)
        # well away from the guard this must still work
        build_counterexample_2d(12, 0.01)

    def test_min_angle_degenerates_with_t(self):
        small, _ = angle_stats(build_counterexample_2d(4, 0.01))
        large, _ = angle_stats(build_counterexample_2d(4, 0.1))
        assert small < large


class TestPyramidPartitions:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_counts_and_labels(self, d):
        J = 2
        mesh = build_pyramid_partition(J, 0.3, d)
        assert mesh.dim == d
        assert mesh.n_vertices == 4 * J + 5 + (d - 2)
        assert mesh.n_simplices == 8 * J + 4
        ring, corner, center, apexes = vertex_roles(mesh)
        assert len(apexes) == d - 2
        for k, a in enumerate(apexes):
            expect = np.zeros(d)
            expect[2 + k] = 1.0
            assert np.array_equal(mesh.vertices[a], expect)

    @pytest.mark.parametrize("d", [3, 4])
    def test_volume_scaling(self, d):
        # each d-simplex is the join of a base triangle with unit apexes:
        # volume = (2/d!) * base area, so the total is (2/d!) * 4
        mesh = build_pyramid_partition(1, 0.4, d)
        base = build_counterexample_2d(1, 0.4)
        expect = 2.0 / math.factorial(d) * base.simplex_volumes
        assert mesh.simplex_volumes == pytest.approx(expect, rel=1e-12)

    def test_rejects_low_dimension(self):
        with pytest.raises(InvalidParameter):
            build_pyramid_partition(1, 0.3, 2)

    def test_refuses_degenerate_d_before_allocating(self):
        # numpy would refuse the (n, d) vertex array with a MemoryError
        with pytest.raises(DegenerateSimplex, match="d=1000000000 gives simplex volumes"):
            build_pyramid_partition(1, 0.5, 10**9)


class TestUniformSquare:
    def test_counts(self):
        mesh = build_uniform_square(2)
        assert mesh.n_vertices == 9
        assert mesh.n_simplices == 8
        assert build_uniform_square(1).n_simplices == 2

    def test_all_areas_equal(self):
        mesh = build_uniform_square(3)
        assert mesh.simplex_volumes == pytest.approx(np.full(18, 1 / 18), rel=1e-14)

    def test_angles(self):
        amin, amax = angle_stats(build_uniform_square(2))
        assert amin == pytest.approx(math.pi / 4, rel=1e-12)
        assert amax == pytest.approx(math.pi / 2, rel=1e-12)

    def test_center_vertex_star(self):
        mesh = build_uniform_square(2)
        simplices, neighbors = vertex_star(mesh, 4)  # (0.5, 0.5) on the 3x3 grid
        assert len(simplices) == 8
        assert len(neighbors) == 8

    def test_corner_vertex_star(self):
        simplices, neighbors = vertex_star(build_uniform_square(1), 0)
        assert len(simplices) == 2
        assert len(neighbors) == 3

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameter):
            build_uniform_square(0)


class TestIntervalPartition:
    def test_segment_volumes(self):
        mesh = build_interval_partition([0.0, 0.1, 0.4, 1.0])
        assert mesh.dim == 1
        assert mesh.simplex_volumes == pytest.approx([0.1, 0.3, 0.6], rel=1e-12)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(InvalidParameter):
            build_interval_partition([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(InvalidParameter):
            build_interval_partition([0.0, 0.7, 0.3])
        with pytest.raises(InvalidParameter):
            build_interval_partition([0.0])


class TestConformity:
    @pytest.mark.parametrize(
        "mesh",
        [
            build_counterexample_2d(1, 0.3),
            build_counterexample_2d(3, 0.1),
            build_counterexample_2d(2, 0.01),
            build_uniform_square(1),
            build_uniform_square(3),
            build_interval_partition([0.0, 0.2, 0.3, 1.0]),
            build_pyramid_partition(1, 0.3, 3),
            build_pyramid_partition(2, 0.2, 3),
            build_pyramid_partition(1, 0.3, 4),
            build_pyramid_partition(3, 0.05, 5),
        ],
        ids=lambda m: f"d{m.dim}v{m.n_vertices}",
    )
    def test_constructors_are_conforming(self, mesh):
        assert validate_conformity(mesh) == []

    def test_detects_hanging_node(self):
        mesh = SimplicialMesh(
            [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]],
            [[0, 1, 2], [1, 3, 4]],
        )
        violations = validate_conformity(mesh)
        assert len(violations) == 1
        assert "vertex 4" in violations[0]

    def test_detects_duplicate_simplices(self):
        mesh = SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 2, 1]])
        assert any("identical" in v for v in validate_conformity(mesh))

    def test_detects_fold(self):
        mesh = SimplicialMesh(
            [[0, 0], [1, 0], [0, 1], [0.6, 0.6]], [[0, 1, 2], [0, 1, 3]]
        )
        assert any("fold" in v for v in validate_conformity(mesh))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_folds_match_exact_orientation_signs(self, d, monkeypatch):
        # P and Q share the facet F and fold unless their lone vertices p and
        # q lie strictly on opposite sides of F, as exact rational signs say;
        # the rows list their vertices in shuffled orders
        rng = np.random.default_rng(1100 + d)
        cases = [rng.uniform(-1.0, 1.0, (d + 2, d)) for _ in range(40)]
        # F in x_d = 0 and q above it, and p either 1e-13 above F's centroid,
        # a sliver fold, or in F's plane beyond F's box, a flat P that the
        # constructor accepts only with its volume guard lowered
        for height in 1e-13, 0.0:
            case = rng.uniform(-1.0, 1.0, (d + 2, d))
            case[:d, -1] = 0.0
            case[d] = case[:d].mean(axis=0) if height else 3.0
            case[d:, -1] = height, 0.7
            cases.append(case)
        monkeypatch.setattr(meshmod, "VOLUME_EPSILON", -1.0)
        verdicts = []
        for points in cases:
            mesh = SimplicialMesh(points, [rng.permutation([*range(d), d]),
                                           rng.permutation([*range(d), d + 1])])
            fold = (oracles.orientation_sign(points[:d + 1])
                    * oracles.orientation_sign(points[[*range(d), d + 1]]) >= 0)
            found = ("simplices 0 and 1 fold onto the same side of their shared face"
                     in validate_conformity(mesh))
            assert found == fold, points
            verdicts.append(fold)
        assert oracles.orientation_sign(cases[-1][:d + 1]) == 0
        assert verdicts[-2:] == [True, True]
        assert 5 <= verdicts.count(True) <= len(verdicts) - 5

    def test_detects_overshared_face(self):
        mesh = SimplicialMesh(
            [[0, 0], [1, 0], [0, 1], [0, -1], [0.5, 0.7]],
            [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        )
        assert any("shared by 3" in v for v in validate_conformity(mesh))

    def test_detects_interior_overlap_without_shared_vertices(self):
        mesh = SimplicialMesh(
            [[0, 0], [1, 0], [0, 1], [0.1, 0.1], [0.9, 0.1], [0.1, 0.9]],
            [[0, 1, 2], [3, 4, 5]],
        )
        assert any("overlapping interiors" in v for v in validate_conformity(mesh))

    def test_1d_hanging_segment(self):
        # [0,1] and [0.5, 2]: endpoint 0.5 sits inside the first segment
        mesh = SimplicialMesh([[0.0], [1.0], [0.5], [2.0]], [[0, 1], [2, 3]])
        assert validate_conformity(mesh) != []

    @pytest.mark.parametrize(
        "mesh",
        [
            build_counterexample_2d(20, 0.01),
            build_counterexample_2d(40, 0.01),
            build_counterexample_2d(60, 0.01),
            build_pyramid_partition(6, 0.01, 3),
            build_pyramid_partition(20, 0.01, 3),
            build_pyramid_partition(10, 0.01, 4),
            build_pyramid_partition(40, 0.01, 3),
            build_pyramid_partition(40, 0.01, 5),
        ],
        ids=["cx-J20", "cx-J40", "cx-J60", "pyramid-d3-J6", "pyramid-d3-J20", "pyramid-d4-J10",
             "pyramid-d3-J40", "pyramid-d5-J40"],
    )
    def test_graded_meshes_have_no_false_overlaps(self, mesh):
        assert validate_conformity(mesh) == []

    def test_rotated_join_has_no_false_overlaps(self):
        assert validate_conformity(rotated_join(8, 0.1, 3)) == []

    @pytest.mark.parametrize("J, d, overlaps", [(8, 3, 64), (6, 4, 7)])
    def test_pairwise_pass_reports_false_overlaps_on_rotated_joins(self, J, d, overlaps):
        # a known defect of the kernel, which the certificate keeps out of
        # validate_conformity: each pair shares only the apexes, none
        # overlapped before the rotation, and the candidate normals are cross
        # products of nearly parallel unit edges from the apex, so their
        # direction is off by about eps / t**j, more than the gap slack allows
        # for bases t**j across
        violations = meshmod._pairwise_violations(rotated_join(J, 0.1, d))
        assert len(violations) == overlaps
        assert all(v.endswith("have overlapping interiors") for v in violations)

    @pytest.mark.parametrize("build, violations, second_pass", [
        (lambda: build_pyramid_partition(40, 0.01, 3), 0, False),
        (lambda: build_pyramid_partition(20, 0.01, 4), 0, False),
        (lambda: build_pyramid_partition(40, 0.01, 5), 0, False),
        (lambda: negated_corner_join(12, 0.1, 3), 54, None),
        (lambda: negated_corner_join(12, 0.1, 4), 54, None),
        (lambda: negated_corner_join(12, 0.1, 5), 54, None),
        (lambda: rotated_join(8, 0.1, 3), 64, True),
        (lambda: rotated_join(6, 0.1, 4), 7, None),
        (lambda: simplex_soup(3, np.random.default_rng(3), 8), 11, None),
        (lambda: simplex_soup(4, np.random.default_rng(4), 8), 2, None),
        (lambda: simplex_soup(5, np.random.default_rng(5), 8), 0, True),
        (lambda: simplex_soup(3, np.random.default_rng(13), 8, pool=8), None, None),
        (lambda: simplex_soup(4, np.random.default_rng(14), 8, pool=10), None, None),
        (lambda: simplex_soup(5, np.random.default_rng(15), 8, pool=12), None, None),
    ], ids=["clean-d3-J40", "clean-d4-J20", "clean-d5-J40", "negated-d3", "negated-d4",
            "negated-d5", "rotated-d3-J8", "rotated-d4-J6", "soup-d3", "soup-d4", "soup-d5",
            "shared-soup-d3", "shared-soup-d4", "shared-soup-d5"])
    def test_two_passes_match_one_pass_over_every_candidate(self, monkeypatch, build,
                                                            violations, second_pass):
        # the second pass tries the other candidates only on the pairs the
        # facet normals leave unseparated; passes[k] lists the pairs each
        # pass of kernel call k takes, and second_pass says whether any
        # pair reaches a second pass (None: not asserted)
        mesh = build()
        kernel, unseparated = meshmod._interiors_overlap, meshmod._unseparated
        passes = []

        def traced_kernel(P, Q, s):
            passes.append([])
            return kernel(P, Q, s)

        def traced_unseparated(P, Q, tails, heads):
            passes[-1].append(len(P))
            return unseparated(P, Q, tails, heads)

        monkeypatch.setattr(meshmod, "_interiors_overlap", traced_kernel)
        monkeypatch.setattr(meshmod, "_unseparated", traced_unseparated)
        got = meshmod._pairwise_violations(mesh)
        monkeypatch.undo()
        assert got == one_pass_violations(mesh)
        if violations is not None:
            assert len(got) == violations
        second = sum(sum(p[1:]) for p in passes)
        assert second_pass is None or (second > 0) == second_pass

    def test_facet_normals_alone_report_false_overlaps(self):
        # vertex-disjoint 5-simplices that only edge-combination normals separate
        mesh = simplex_soup(5, np.random.default_rng(5), 8)
        assert meshmod._pairwise_violations(mesh) == []
        false = one_pass_violations(mesh, facets_only=True)
        assert len(false) == 5
        for v in false:
            a, b = map(int, re.findall(r"\d+", v))
            assert not lp_interiors_overlap(*mesh.vertices[mesh.simplices[[a, b]]])

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.floats(0.05, 0.5), st.integers(3, 5), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_two_passes_match_one_pass_on_jittered_joins(self, J, t, d, amplitude, seed):
        mesh = jittered_join(J, t, d, amplitude, np.random.default_rng(seed))
        got = meshmod._pairwise_violations(mesh)
        assert got == one_pass_violations(mesh) == validate_conformity(mesh)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 5), st.integers(2, 10), st.booleans(), st.integers(0, 2**32 - 1))
    def test_two_passes_match_one_pass_on_simplex_soups(self, d, n, shared, seed):
        rng = np.random.default_rng(seed)
        mesh = simplex_soup(d, rng, n, pool=2 * (d + 1) if shared else None)
        got = meshmod._pairwise_violations(mesh)
        assert got == one_pass_violations(mesh) == validate_conformity(mesh)

    def test_star_of_david_crossing(self):
        # no shared vertex, and no vertex of either triangle inside the other
        h = math.sqrt(3) / 2
        mesh = SimplicialMesh(
            [[0, 1], [-h, -0.5], [h, -0.5], [0, -1], [h, 0.5], [-h, 0.5]],
            [[0, 1, 2], [3, 4, 5]],
        )
        assert validate_conformity(mesh) == ["simplices 0 and 1 have overlapping interiors"]

    def test_3d_crossing_with_one_shared_vertex(self):
        mesh = SimplicialMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
             [0.6, 0.6, -0.5], [0.6, -0.5, 0.6], [-0.5, 0.6, 0.6]],
            [[0, 1, 2, 3], [0, 4, 5, 6]],
        )
        assert "simplices 0 and 1 have overlapping interiors" in validate_conformity(mesh)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_separating_hyperplanes_match_lp_oracle(self, d):
        # only pairs with a clear margin: shrinking Q by 10% about its
        # centroid and growing it by 10% must give the same LP verdict
        rng = np.random.default_rng(500 + d)
        verdicts = []
        for _ in range(40):
            P = random_simplex_vertices(rng, d)
            Q = random_simplex_vertices(rng, d) + rng.uniform(-1.0, 1.0, d)
            c = Q.mean(axis=0)
            overlap = lp_interiors_overlap(P, Q)
            if lp_interiors_overlap(P, c + 0.9 * (Q - c)) != lp_interiors_overlap(
                P, c + 1.1 * (Q - c)
            ):
                continue
            mesh = SimplicialMesh(np.vstack([P, Q]), [range(d + 1), range(d + 1, 2 * d + 2)])
            found = "simplices 0 and 1 have overlapping interiors" in validate_conformity(mesh)
            assert found == overlap, (P, Q)
            verdicts.append(overlap)
        assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5

    def test_violations_come_in_index_order(self):
        # hanging nodes come in (simplex, vertex) order, pairs in (i, j) order
        base = build_uniform_square(6)
        rng = np.random.default_rng(41)
        verts = base.vertices + rng.uniform(-0.12, 0.12, base.vertices.shape)
        violations = validate_conformity(SimplicialMesh(verts, base.simplices))
        ids = [[int(k) for k in re.findall(r"\d+", v)] for v in violations]
        nodes = [(a, b) for v, (b, a) in zip(violations, ids) if v.startswith("vertex")]
        pairs = [(a, b) for v, (a, b) in zip(violations, ids) if v.startswith("simplices")]
        assert len(nodes) >= 2 and len(pairs) >= 5
        assert nodes == sorted(nodes) and pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_hanging_nodes_match_the_vertex_loop_oracle(self):
        # jittered meshes overlap their neighbors; every third one also gets a
        # duplicated simplex and every third an extra simplex on random
        # vertices, which covers many foreign ones
        rng = np.random.default_rng(1313)
        total = 0
        for k in range(75):
            d = k % 5 + 1
            if d == 1:
                base = build_interval_partition(np.cumsum(rng.uniform(0.1, 1.0, 12)))
            elif d == 2:
                base = build_uniform_square(int(rng.integers(2, 6)))
            else:
                base = build_pyramid_partition(int(rng.integers(1, 4)), 0.3, d)
            h = base.simplex_volumes.mean() ** (1 / d)
            verts = base.vertices + rng.uniform(-1.0, 1.0, base.vertices.shape) * h
            verts *= 10.0 ** rng.integers(-30, 31)
            simplices = base.simplices
            if k % 3 == 1:
                twin = simplices[rng.integers(len(simplices))][::-1]
                simplices = np.vstack([simplices, twin])
            elif k % 3 == 2:
                extra = rng.choice(base.n_vertices, d + 1, replace=False)
                simplices = np.vstack([simplices, extra])
            mesh = SimplicialMesh(verts, simplices)
            expected = oracles.hanging_nodes(mesh)
            got = [tuple(int(x) for x in re.findall(r"\d+", v))[::-1]
                   for v in validate_conformity(mesh) if v.startswith("vertex")]
            assert got == expected, k
            total += len(expected)
        assert total >= 100

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_shared_vertex_pairs_match_lp_oracle(self, d):
        # Q shares P's first s vertices, listed in a shuffled order; only pairs
        # with a clear margin count: scaling Q's other vertices by 0.9 and by
        # 1.1 about the shared face's centroid must give the same LP verdict
        rng = np.random.default_rng(700 + d)
        verdicts = []
        for s in range(1, d):
            assert len(_candidate_edges(d, s)[0]) == math.comb(2 * (d + 1 - s), d - s)
            for _ in range(20):
                P = random_simplex_vertices(rng, d)
                while True:
                    new = rng.uniform(-1.0, 1.0, (d + 1 - s, d)) + rng.uniform(-1.0, 1.0, d)
                    Q = np.vstack([P[:s], new])
                    if abs(np.linalg.det(Q[1:] - Q[0])) / math.factorial(d) >= 0.05:
                        break
                c = P[:s].mean(axis=0)
                overlap = lp_interiors_overlap(P, Q)
                if lp_interiors_overlap(P, np.vstack([P[:s], c + 0.9 * (new - c)])) != (
                    lp_interiors_overlap(P, np.vstack([P[:s], c + 1.1 * (new - c)]))
                ):
                    continue
                q_ids = [*range(s), *range(d + 1, 2 * d + 2 - s)]
                rng.shuffle(q_ids)
                mesh = SimplicialMesh(np.vstack([P, new]), [range(d + 1), q_ids])
                found = "simplices 0 and 1 have overlapping interiors" in validate_conformity(mesh)
                assert found == overlap, (s, P, Q)
                verdicts.append(overlap)
        assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5

    @pytest.mark.parametrize("d", range(1, 7))
    def test_cross_is_the_exterior_product(self, d):
        # rows R[k] of d-1 edges, scaled over 60 orders of magnitude
        rng = np.random.default_rng(900 + d)
        R = rng.standard_normal((200, d - 1, d)) * 10.0 ** rng.uniform(-30, 30, (200, 1, 1))
        if d > 1:  # the Gram determinant below squares the condition number
            R = R[np.linalg.cond(R) < 100]
        n = meshmod._cross(R.transpose(2, 1, 0)).T                   # (K, d)
        size = np.linalg.norm(n, axis=1)
        dots = np.einsum("kix,kx->ki", R, n)
        assert (np.abs(dots) <= 1e-13 * np.linalg.norm(R, axis=2) * size[:, None]).all()
        gram = np.sqrt(np.linalg.det(R @ R.transpose(0, 2, 1)))
        assert np.allclose(size, gram, rtol=1e-12, atol=0)
        minors = [[c for c in range(d) if c != k] for k in range(d)]
        cofactors = (-1.0) ** np.arange(d) * np.linalg.det(np.moveaxis(R[..., minors], -2, -3))
        assert (np.abs(n - cofactors) <= 1e-12 * size[:, None]).all()
        if d == 1:
            assert (n == 1.0).all()

    def test_memory_is_blocked(self):
        # all i < j pairs of the 8,192 triangles as np.triu_indices would take
        # about 540 MB
        mesh = build_uniform_square(64)
        tracemalloc.start()
        try:
            violations = validate_conformity(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violations == []
        assert peak < 100e6

    def test_box_slack_is_relative_to_each_simplex(self, monkeypatch):
        # the inner rings of cx J=60 are down to 1e-120 across; an absolute
        # floor on the box extent made them all meet each other, and 50,642
        # pairs reached the kernel instead of 2,866
        mesh = build_counterexample_2d(60, 0.01)
        kernel = meshmod._interiors_overlap
        pairs = []

        def counted(P, Q, s):
            pairs.append(len(P))
            return kernel(P, Q, s)

        monkeypatch.setattr(meshmod, "_interiors_overlap", counted)
        assert meshmod._pairwise_violations(mesh) == []
        assert sum(pairs) < 3000
        tiny = SimplicialMesh(build_uniform_square(12).vertices * 1e-40,
                              build_uniform_square(12).simplices)
        assert meshmod._pairwise_violations(tiny) == []

    @pytest.mark.parametrize("module", ["scipy.optimize", "scipy.sparse.csgraph"])
    def test_import_leaves_out(self, module):
        # each costs import time and resident memory in every process
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = f"import sys, projnorm; print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestCertificate:
    # name: (build, certified, number of violations); the lists of refused
    # meshes come from the all-pairs pass, as before the certificate
    CORPUS = {
        "cx-J3": (lambda: build_counterexample_2d(3, 0.1), True, 0),
        "cx-J2-t0.01": (lambda: build_counterexample_2d(2, 0.01), True, 0),
        "uniform-3": (lambda: build_uniform_square(3), True, 0),
        "interval": (lambda: build_interval_partition([0.0, 0.2, 0.3, 1.0]), True, 0),
        "pyramid-d3-J2": (lambda: build_pyramid_partition(2, 0.2, 3), True, 0),
        "pyramid-d4-J1": (lambda: build_pyramid_partition(1, 0.3, 4), True, 0),
        "pyramid-d5-J3": (lambda: build_pyramid_partition(3, 0.05, 5), True, 0),
        "jittered-join": (lambda: jittered_join(3, 0.3, 3, 0.5, np.random.default_rng(1)),
                          True, 0),
        "rotated-d3-J8": (lambda: rotated_join(8, 0.1, 3), True, 0),
        "rotated-d4-J6": (lambda: rotated_join(6, 0.1, 4), True, 0),
        "negated-d3": (lambda: negated_corner_join(12, 0.1, 3), False, 54),
        "negated-d5": (lambda: negated_corner_join(12, 0.1, 5), False, 54),
        "deep-star-d2": (lambda: deep_star_join(6, 0.01, 2), False, 8),
        "deep-star-d3": (lambda: deep_star_join(6, 0.01, 3), False, 4),
        "deep-star-d5": (lambda: deep_star_join(6, 0.01, 5), False, 4),
        # conforming, but a non-convex domain and a disconnected one: a
        # 1-owner facet of each has vertices outside it
        "l-shape": (l_shape, False, 0),
        "soup-d5": (lambda: simplex_soup(5, np.random.default_rng(5), 8), False, 0),
        # both pass every facet test, and the centroid test refuses them: the
        # largest simplex's centroid lies inside its copy, or on the cut of
        # the sheared cover, the boundary of two simplices
        "double-cover": (lambda: double_cover(build_uniform_square(2)), False, 56),
        "sheared-double-cover": (sheared_double_cover, False, 16),
        "shared-soup-d3": (lambda: simplex_soup(3, np.random.default_rng(13), 8, pool=8),
                           False, 19),
        "hanging-node": (lambda: SimplicialMesh([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]],
                                                [[0, 1, 2], [1, 3, 4]]), False, 1),
        "fold": (lambda: SimplicialMesh([[0, 0], [1, 0], [0, 1], [0.6, 0.6]],
                                        [[0, 1, 2], [0, 1, 3]]), False, 1),
        "hanging-segment-1d": (lambda: SimplicialMesh([[0.0], [1.0], [0.5], [2.0]],
                                                      [[0, 1], [2, 3]]), False, 3),
    }

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_matches_rational_oracle(self, name):
        build, certified, violations = self.CORPUS[name]
        mesh = build()
        assert meshmod._certify_conformity(mesh) is certified
        assert oracles.rational_conformity_certificate(mesh) is certified
        assert len(validate_conformity(mesh)) == violations

    @pytest.mark.parametrize("build", [
        lambda: build_counterexample_2d(60, 0.01),
        lambda: build_pyramid_partition(40, 0.01, 3),
        lambda: build_pyramid_partition(40, 0.01, 5),
        lambda: build_uniform_square(64),
        lambda: rotated_join(8, 0.1, 3),
    ], ids=["cx-J60", "pyramid-d3-J40", "pyramid-d5-J40", "uniform-64", "rotated-d3-J8"])
    def test_certified_meshes_compare_no_pairs(self, build, monkeypatch):
        mesh = build()

        def refuse(mesh):
            raise AssertionError("the all-pairs pass ran on a certified mesh")

        monkeypatch.setattr(meshmod, "_pairwise_violations", refuse)
        assert validate_conformity(mesh) == []

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 5), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_stellar_refinements_are_certified(self, d, splits, seed):
        # conforming, on a simplex, with volumes graded over up to 1e3 per split
        vertices, simplices = oracles.random_stellar_mesh(np.random.default_rng(seed), d, splits)
        assert meshmod._certify_conformity(SimplicialMesh(vertices, simplices))


class TestAngleStats:
    def test_equilateral(self):
        mesh = SimplicialMesh(
            [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], [[0, 1, 2]]
        )
        amin, amax = angle_stats(mesh)
        assert amin == pytest.approx(math.pi / 3, rel=1e-12)
        assert amax == pytest.approx(math.pi / 3, rel=1e-12)

    def test_rejects_other_dimensions(self):
        with pytest.raises(UnsupportedDimension):
            angle_stats(build_interval_partition([0.0, 1.0]))
        with pytest.raises(UnsupportedDimension):
            angle_stats(build_pyramid_partition(1, 0.3, 3))


class TestSymmetryOrbits:
    def test_rotation_orbits_follow_rings(self):
        J = 2
        mesh = build_counterexample_2d(J, 0.3)
        orbits = symmetry_orbits(mesh, symmetry_generators(mesh)[0])
        assert [len(o) for o in orbits.orbits] == [4, 4, 4, 1]
        assert orbits.n_orbits == J + 2
        ring, _, center, _ = vertex_roles(mesh)
        assert np.array_equal(orbits.orbit_of, ring)

    def test_identity_gives_singletons(self):
        mesh = build_uniform_square(2)
        orbits = symmetry_orbits(mesh, np.arange(mesh.n_vertices))
        assert orbits.n_orbits == mesh.n_vertices
        # no generators at all: the trivial group
        orbits = symmetry_orbits(mesh, np.empty((0, mesh.n_vertices), dtype=np.int64))
        assert orbits.orbit_of.tolist() == list(range(mesh.n_vertices))

    def test_pyramid_generators_pool_apexes(self):
        mesh = build_pyramid_partition(1, 0.3, 4)
        orbits = symmetry_orbits(mesh, symmetry_generators(mesh))
        assert sorted(len(o) for o in orbits.orbits) == [1, 2, 4, 4]
        assert orbits.n_orbits == 1 + 3  # J + 3

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.integers(0, 2), st.sampled_from(["shuffled", "rising", "falling"]),
           st.integers(0, 2**32 - 1))
    def test_orbits_match_a_cycle_walk_on_triangle_soups(self, T, extra, order, seed):
        # generators move whole triangles, each onto its image with its
        # corners in a random order: one cycle through all T triangles, with
        # ids in the given order along it, up to two random block
        # permutations, and the identity, in a shuffled list
        rng = np.random.default_rng(seed)
        mesh = simplex_soup(2, rng, T)

        def block(onto):
            corners = np.array([rng.permutation(3) for _ in range(T)])
            return (3 * onto[:, None] + corners).ravel()

        path = {"shuffled": rng.permutation(T), "rising": np.arange(T),
                "falling": np.arange(T)[::-1]}[order]
        cycle = np.empty(T, dtype=np.int64)
        cycle[path] = np.roll(path, -1)
        generators = [block(cycle), np.arange(3 * T)]
        generators += [block(rng.permutation(T)) for _ in range(extra)]
        generators = [generators[k] for k in rng.permutation(len(generators))]
        orbit_of, orbits = oracles.permutation_orbits(3 * T, generators)
        got = symmetry_orbits(mesh, generators)
        assert got.orbit_of.tolist() == orbit_of
        assert [o.tolist() for o in got.orbits] == orbits

    @pytest.mark.parametrize("shape", ["falling-cycle", "shuffled-path"])
    def test_long_orbits_take_few_rounds(self, shape):
        # 30,000 triangles in one orbit: a 30,000-cycle whose ids fall along
        # it, or a path of two involutions through the triangles in shuffled
        # order.  Pushing labels along the generators and then jumping
        # (label[label]) without hooking roots takes 30,000 and 16,551
        # rounds on these, root hooking 8 and 11.
        T = 30000
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vertices = (corners + 2.0 * np.arange(T)[:, None, None]).reshape(-1, 2)
        mesh = SimplicialMesh(vertices, np.arange(3 * T).reshape(T, 3))
        if shape == "falling-cycle":
            generators = [(np.arange(3 * T) - 3) % (3 * T)]
        else:
            path = np.random.default_rng(7).permutation(T)
            generators = []
            for first in (0, 1):
                pairs = path[first:first + (T - first) // 2 * 2].reshape(-1, 2)
                onto = np.arange(T)
                onto[pairs[:, 0]], onto[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
                generators.append((3 * onto[:, None] + np.arange(3)).ravel())
        start = time.perf_counter()
        orbits = symmetry_orbits(mesh, generators)
        elapsed = time.perf_counter() - start
        assert orbits.orbit_of.tolist() == [0, 1, 2] * T
        assert elapsed < 5.0

    def test_rotation_is_a_symmetry(self):
        mesh = build_counterexample_2d(3, 0.2)
        perm = symmetry_generators(mesh)[0]
        before = {frozenset(row.tolist()) for row in mesh.simplices}
        after = {frozenset(perm[row].tolist()) for row in mesh.simplices}
        assert before == after

    def test_rejects_non_symmetry(self):
        mesh = build_counterexample_2d(2, 0.3)
        perm = np.arange(mesh.n_vertices)
        perm[0], perm[5] = 5, 0
        with pytest.raises(NotASymmetry):
            symmetry_orbits(mesh, perm)

    def test_rejects_non_bijection(self):
        mesh = build_uniform_square(1)
        with pytest.raises(NotASymmetry):
            symmetry_orbits(mesh, np.zeros(mesh.n_vertices, dtype=int))

    def test_rejects_wrong_length(self):
        mesh = build_uniform_square(1)
        with pytest.raises(InvalidParameter):
            symmetry_orbits(mesh, np.arange(3))

    def test_rejects_non_integer_entries(self):
        # 0.4 added to the rotation used to truncate back to a symmetry
        mesh = build_counterexample_2d(2, 0.3)
        perm = symmetry_generators(mesh)[0]
        # np.asarray reads a True among ints as 1, which made [0, True, 2, 3]
        # pass as the identity and this list as the rotation
        with_bool = [True if v == 1 else v for v in perm.tolist()]
        for bad in (perm + 0.4, perm.tolist()[:-1] + [12.0], perm > 5, with_bool,
                    [perm, with_bool]):
            with pytest.raises(InvalidParameter, match="integer"):
                symmetry_orbits(mesh, bad)
        with pytest.raises(InvalidParameter, match="integer"):
            symmetry_orbits(build_uniform_square(1), [0, True, 2, 3])
        assert symmetry_orbits(mesh, perm.tolist()).n_orbits == 4
        assert symmetry_orbits(mesh, perm.astype(np.int32)).n_orbits == 4

    def test_rejects_numpy_bools_and_scalars(self):
        # np.True_ reads as 1 and np.False_ as 0, like True and False
        mesh = build_uniform_square(1)
        message = "permutations must have one integer entry per vertex"
        for bad in ([0, np.True_, 2, 3], [np.False_, 1, 2, 3], [[0, 1, 2, 3], [0, 1, np.True_, 3]],
                    5, 0, np.True_):
            with pytest.raises(InvalidParameter, match=f"^{message}$"):
                symmetry_orbits(mesh, bad)

    def test_roles_require_labels(self):
        with pytest.raises(MissingLabels):
            vertex_roles(build_uniform_square(2))
        # an apex labeled "center" would become the center and leave the real
        # center neither a ring nor an apex
        mesh = build_pyramid_partition(3, 0.1, 3)
        labels = {v: "center" if lab == "apex 3" else lab for v, lab in mesh.labels.items()}
        with pytest.raises(MissingLabels, match="^vertices 16 and 17 are both labeled 'center'$"):
            vertex_roles(SimplicialMesh(mesh.vertices, mesh.simplices, labels))

    def test_roles_reject_a_corner_label_on_two_vertices(self):
        # with ring 2 relabeled ring 1 the roles used to decode, and project
        # --oscillating printed 2.751 instead of the true sup norm 3.787
        mesh = build_counterexample_2d(2, 0.3)
        labels = {v: lab.replace("ring 2", "ring 1") for v, lab in mesh.labels.items()}
        with pytest.raises(MissingLabels,
                           match="^vertices 4 and 8 are both labeled ring 1 corner 1$"):
            vertex_roles(SimplicialMesh(mesh.vertices, mesh.simplices, labels))

    @pytest.mark.parametrize("entry", [symmetry_generators, reduced_ring_system])
    def test_ring_missing_a_corner(self, entry):
        # every label parses, but ring 1 has lost its corner 2 to an apex
        mesh = build_counterexample_2d(2, 0.3)
        labels = {v: "apex 3" if lab == "ring 1 corner 2" else lab
                  for v, lab in mesh.labels.items()}
        mesh = SimplicialMesh(mesh.vertices, mesh.simplices, labels)
        with pytest.raises(MissingLabels, match="ring 1 has no vertex labeled corner 2"):
            entry(mesh)
        # rings 1 and 2 both lack corner 2, and ring 2's corner 1 has moved to
        # vertex 1, below ring 1's corner 1 (vertex 4): the first corner in
        # id order whose image is missing is named, not the first in ring order
        labels = {**labels, 1: "ring 2 corner 1", 8: "ring 0 corner 2", 9: "apex 4"}
        mesh = SimplicialMesh(mesh.vertices, mesh.simplices, labels)
        with pytest.raises(MissingLabels, match="^ring 2 has no vertex labeled corner 2$"):
            entry(mesh)


# cx J=1 t=0.1 as the earlier row-per-line writer laid it out: 17 significant
# digits, and integer coordinates
ROW_LAYOUT = """{
  "dim": 2,
  "vertices": [
    [1, 1],
    [1, -1],
    [-1, -1],
    [-1, 1],
    [0.10000000000000001, 0.10000000000000001],
    [0.10000000000000001, -0.10000000000000001],
    [-0.10000000000000001, -0.10000000000000001],
    [-0.10000000000000001, 0.10000000000000001],
    [0, 0]
  ],
  "simplices": [
    [3, 7, 4],
    [3, 4, 0],
    [0, 4, 5],
    [0, 5, 1],
    [1, 5, 6],
    [1, 6, 2],
    [2, 6, 7],
    [2, 7, 3],
    [4, 5, 8],
    [5, 6, 8],
    [6, 7, 8],
    [7, 4, 8]
  ],
  "labels": {
    "0": "ring 0 corner 1",
    "1": "ring 0 corner 2",
    "2": "ring 0 corner 3",
    "3": "ring 0 corner 4",
    "4": "ring 1 corner 1",
    "5": "ring 1 corner 2",
    "6": "ring 1 corner 3",
    "7": "ring 1 corner 4",
    "8": "center"
  }
}
"""


def bit_pattern_interval():
    """Interval mesh on random finite doubles of every bit pattern with |x| in
    2**-980..2**997 (about 1e-295..1e300), plus -0.0 and 0.01**60; every cell
    is longer than 2 * VOLUME_EPSILON."""
    rng, size = np.random.default_rng(0), 2000
    bits = (rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
            | rng.integers(1023 - 980, 1023 + 997, size, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 2**52, size, dtype=np.uint64))
    points = np.sort(np.concatenate([bits.view(np.float64), [-0.0, 0.01**60]]))
    # no |x| is below 1e-295, so this keeps -0.0 and 0.01**60
    points = points[np.r_[True, np.diff(points) > 2 * meshmod.VOLUME_EPSILON]]
    assert np.signbit(points[points == 0]).tolist() == [True] and 0.01**60 in points
    return build_interval_partition(points)


def assert_bit_equal(a, b):
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.simplices.tobytes() == b.simplices.tobytes()
    assert dict(a.labels) == dict(b.labels)


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("text", [None, '{"dim": 2, "vertices": [[0.0]], "simplices": [[0]]}'],
                             ids=["good", "malformed"])
    def test_leaves_the_collector_as_found(self, tmp_path, enabled, text):
        path = tmp_path / "mesh.json"
        if text is None:
            save_mesh(build_uniform_square(4), path)
        else:
            path.write_text(text)
        (gc.enable if enabled else gc.disable)()
        try:
            if text is None:
                assert load_mesh(path).n_vertices == 25
            else:
                with pytest.raises(InvalidParameter):
                    load_mesh(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_runs_no_collection(self, tmp_path):
        # orjson makes a list for each of the 19,361 rows of this file
        save_mesh(build_uniform_square(80), tmp_path / "mesh.json")
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            mesh = load_mesh(tmp_path / "mesh.json")
        finally:
            gc.callbacks.remove(count)
        assert mesh.n_vertices == 6561
        assert starts == []
        assert gc.isenabled()


class TestSerialization:
    def test_round_trip_is_exact(self):
        mesh = build_counterexample_2d(3, 0.1)
        again = mesh_from_json(mesh_to_json(mesh))
        assert np.array_equal(mesh.vertices, again.vertices)
        assert np.array_equal(mesh.simplices, again.simplices)
        assert dict(mesh.labels) == dict(again.labels)

    @pytest.mark.parametrize("build", [
        lambda: build_counterexample_2d(60, 0.01),
        lambda: build_pyramid_partition(40, 0.01, 5),
        # -0.0 written as -0 would load as +0.0
        lambda: build_interval_partition([-1.0, -0.0, 1.0]),
        bit_pattern_interval,
    ], ids=["cx-J60", "pyramid-d5-J40", "negative-zero", "bit-patterns"])
    def test_file_round_trip_is_bit_exact(self, tmp_path, build):
        mesh = build()
        save_mesh(mesh, tmp_path / "mesh.json")
        assert_bit_equal(load_mesh(tmp_path / "mesh.json"), mesh)
        # files written by json.dumps, as every float's repr, load the same
        compact = json.dumps(mesh_to_dict(mesh), separators=(",", ":"))
        (tmp_path / "repr.json").write_text(compact + "\n")
        assert_bit_equal(load_mesh(tmp_path / "repr.json"), mesh)

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32",
                                          "utf-32-le"])
    def test_reads_every_encoding_json_reads(self, tmp_path, encoding):
        mesh = SimplicialMesh([[0.0], [0.1], [1.0]], [[0, 1], [1, 2]],
                              {0: "größe", 2: "ring 0 corner 1"})
        save_mesh(mesh, tmp_path / "mesh.json")
        text = (tmp_path / "mesh.json").read_bytes().decode("utf-8")
        (tmp_path / "other.json").write_bytes(text.encode(encoding))
        assert_bit_equal(load_mesh(tmp_path / "other.json"), mesh)

    def test_bytes_deterministic(self):
        a = mesh_to_json(build_pyramid_partition(2, 0.37, 3))
        b = mesh_to_json(build_pyramid_partition(2, 0.37, 3))
        assert a == b

    def test_text_is_the_compact_dict(self):
        # the arrays written from their buffers give orjson's bytes for the
        # same values as lists, on one line; 0.01**J needs an exponent
        for mesh in build_pyramid_partition(2, 0.37, 3), build_counterexample_2d(20, 0.01):
            text = mesh_to_json(mesh)
            assert text == orjson.dumps(mesh_to_dict(mesh)) + b"\n"
            assert text.count(b"\n") == 1
            assert mesh_to_dict(mesh) == {
                "dim": mesh.dim, "vertices": mesh.vertices.tolist(),
                "simplices": mesh.simplices.tolist(),
                "labels": {str(k): v for k, v in sorted(mesh.labels.items())}}

    def test_integers_beyond_64_bits(self):
        # a JSON number, so a coordinate: it reads as its nearest double, as
        # 1e23 does; as a simplex id it is no int64 and is refused
        text = '{"dim":1,"vertices":[[0],[99999999999999999999999]],"simplices":[[0,%s]]}'
        assert mesh_from_json(text % 1).vertices[1, 0] == 1e23
        with pytest.raises(InvalidParameter):
            mesh_from_json(text % 10**22)

    @pytest.mark.parametrize("vertices, simplices, message", [
        ("5", "[[0,1]]", "mesh data: vertices do not match the declared dim"),
        ("true", "[[0,1]]", "mesh data: vertex coordinates must be numbers"),
        ("[[0],[1]]", "1", "simplices must be a non-empty (m, d+1) array"),
        ("[[0],[1]]", "false", "mesh data: simplex ids must be integers"),
    ], ids=["vertices-5", "vertices-true", "simplices-1", "simplices-false"])
    def test_scalar_arrays_keep_their_messages(self, vertices, simplices, message):
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            mesh_from_json(f'{{"dim":1,"vertices":{vertices},"simplices":{simplices}}}')

    def test_reads_the_row_layout(self, tmp_path):
        (tmp_path / "mesh.json").write_text(ROW_LAYOUT)
        assert_bit_equal(load_mesh(tmp_path / "mesh.json"), build_counterexample_2d(1, 0.1))

    def test_malformed_input(self):
        with pytest.raises(InvalidParameter):
            mesh_from_json("not json at all {")
        with pytest.raises(InvalidParameter):
            mesh_from_json('{"dim": 2, "vertices": [[0.0]], "simplices": [[0]]}')
        with pytest.raises(InvalidParameter):
            mesh_from_json('{"vertices": [[0.0, 0.0]], "simplices": [[0, 0, 0]]}')
