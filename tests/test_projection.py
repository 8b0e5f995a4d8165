import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

import oracles
from projnorm import projection
from projnorm import (
    CellwiseConstant,
    InvalidParameter,
    LengthMismatch,
    SimplicialMesh,
    SolveFailure,
    SplineFunction,
    UnsupportedDimension,
    assemble_load,
    assemble_mass,
    build_counterexample_2d,
    build_interval_partition,
    build_pyramid_partition,
    build_uniform_square,
    exact_operator_norm,
    normalized_system,
    oscillating_data,
    project,
    proposition1_check,
    solve_with_load,
    spline_abs_integral,
    vertex_roles,
)


def unit_triangle():
    return SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def unit_tet():
    return SimplicialMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]])


class TestMassMatrix:
    def test_single_triangle_entries(self):
        M = assemble_mass(unit_triangle()).toarray()
        assert np.allclose(np.diag(M), 1 / 12, rtol=1e-15)
        off = M[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1 / 24, rtol=1e-15)

    def test_single_segment_entries(self):
        M = assemble_mass(build_interval_partition([0.0, 1.0])).toarray()
        assert np.allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-15)

    def test_single_tetrahedron_entries(self):
        M = assemble_mass(unit_tet()).toarray()
        assert np.allclose(np.diag(M), 1 / 60, rtol=1e-15)
        off = M[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1 / 120, rtol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_quadrature_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        if d == 1:
            mesh = build_interval_partition(oracles.random_interval_mesh(rng, 12))
        elif d == 2:
            base = build_uniform_square(3)
            mesh = SimplicialMesh(
                oracles.jittered_square_vertices(rng, 3), base.simplices
            )
        else:
            mesh = build_pyramid_partition(2, 0.4, 3)
        Mc = assemble_mass(mesh).toarray()
        Mq = oracles.quadrature_mass_matrix(mesh)
        nz = Mc != 0
        assert (np.abs(Mc - Mq)[nz] / np.abs(Mc)[nz]).max() < 1e-12
        assert np.abs(Mq[~nz]).max() <= 1e-15 * np.abs(Mc).max()

    def test_2d_star_formulas(self):
        # diagonal = |star|/6, neighbor entry = shared area / 12
        mesh = build_counterexample_2d(2, 0.2)
        M = assemble_mass(mesh).toarray()
        vols = mesh.simplex_volumes
        for P in range(mesh.n_vertices):
            simplices, neighbors = oracles.vertex_star(mesh, P)
            assert M[P, P] == pytest.approx(vols[simplices].sum() / 6, rel=1e-14)
            for Q in neighbors:
                shared = [s for s in simplices if Q in mesh.simplices[s]]
                assert M[P, Q] == pytest.approx(vols[shared].sum() / 12, rel=1e-14)

    def test_sparsity_matches_adjacency(self):
        mesh = build_uniform_square(3)
        M = assemble_mass(mesh).toarray()
        for P in range(mesh.n_vertices):
            nz = set(np.flatnonzero(M[P]).tolist())
            assert nz == set(oracles.vertex_star(mesh, P)[1].tolist()) | {P}

    def test_positive_definite_on_random_meshes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mesh = build_interval_partition(oracles.random_interval_mesh(rng, 30))
            scipy.linalg.cho_factor(assemble_mass(mesh).toarray())  # raises if not SPD
        mesh = build_counterexample_2d(4, 0.05)
        M = assemble_mass(mesh).toarray()
        s = 1 / np.sqrt(M.diagonal())
        scipy.linalg.cho_factor(M * s[:, None] * s[None, :])


class TestNormalizedSystem:
    @pytest.mark.parametrize(
        "mesh",
        [
            build_interval_partition([0.0, 0.3, 0.4, 1.0]),
            build_uniform_square(3),
            build_counterexample_2d(3, 0.1),
            build_pyramid_partition(1, 0.3, 3),
            build_pyramid_partition(1, 0.3, 4),
        ],
        ids=lambda m: f"d{m.dim}",
    )
    def test_row_sums_are_half_dimension(self, mesh):
        A = normalized_system(mesh, CellwiseConstant(np.ones(mesh.n_simplices))).A
        assert np.allclose(np.diag(A), 1.0, atol=0)
        off = A.sum(axis=1) - 1.0
        assert np.abs(off - mesh.dim / 2).max() < 1e-13

    @pytest.mark.parametrize(
        "mesh", [build_interval_partition([0.0, 0.5, 2.0]), build_uniform_square(2),
                 build_pyramid_partition(1, 0.3, 3)],
        ids=lambda m: f"d{m.dim}",
    )
    def test_constant_data_gives_constant_rhs(self, mesh):
        f = CellwiseConstant(np.ones(mesh.n_simplices))
        system = normalized_system(mesh, f)
        expect = (mesh.dim + 2) / 2
        assert np.abs(system.b - expect).max() < 1e-13

    def test_rhs_bound_in_2d(self):
        rng = np.random.default_rng(5)
        for mesh in [build_counterexample_2d(3, 0.1), build_uniform_square(4)]:
            for _ in range(25):
                f = CellwiseConstant(rng.choice([-1.0, 1.0], mesh.n_simplices))
                system = normalized_system(mesh, f)
                assert np.abs(system.b).max() <= 2.0 + 1e-13


class TestProjection:
    def test_constants_are_reproduced(self):
        for mesh in [build_uniform_square(3), build_pyramid_partition(1, 0.3, 3)]:
            f = CellwiseConstant(np.full(mesh.n_simplices, 0.7))
            g = project(mesh, f)
            assert np.abs(g.nodal_values - 0.7).max() < 1e-12

    def test_projection_of_spline_data_is_identity(self):
        # M x = M g must return g: the solver round-trips spline functions
        mesh = build_counterexample_2d(3, 0.1)
        rng = np.random.default_rng(8)
        g = rng.uniform(-2, 2, mesh.n_vertices)
        x, residual = solve_with_load(mesh, assemble_mass(mesh) @ g)
        assert np.abs(x - g).max() < 1e-9 * np.abs(g).max()
        assert residual <= projection.RESIDUAL_RTOL

    def test_zero_load_passes_the_residual_gate(self):
        mesh = build_counterexample_2d(3, 0.1)
        x, residual = solve_with_load(mesh, np.zeros(mesh.n_vertices))
        assert not x.any() and residual == 0.0

    def test_singular_factorization_is_a_solve_failure(self):
        with pytest.raises(SolveFailure, match="factorization failed"):
            projection._mass_solver(scipy.sparse.csr_matrix(np.ones((2, 2))))

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_solver_leaves_its_matrix_unchanged(self, fmt):
        # M.tocsc() is M itself for a CSC M, and the residual gate reads M
        M = assemble_mass(build_pyramid_partition(2, 0.1, 4)).asformat(fmt)
        before = [a.copy() for a in (M.data, M.indices, M.indptr)]
        projection._mass_solver(M)(np.ones(M.shape[0]))
        for was, now in zip(before, (M.data, M.indices, M.indptr)):
            assert np.array_equal(was, now)

    @staticmethod
    def _inner_rings_too_large(monkeypatch):
        """cx J=8, t=0.01, with every solve 22% too large on ring 8 and the center."""
        mesh = build_counterexample_2d(8, 0.01)
        weight = np.where(vertex_roles(mesh)[0] >= 8, 1.22, 1.0)
        factor = projection.splu

        def perturbed(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return types.SimpleNamespace(solve=lambda b: (lu.solve(b).T * weight).T)

        monkeypatch.setattr(projection, "splu", perturbed)
        return mesh

    def test_residual_gate_sees_inner_rings(self, monkeypatch):
        # a wrong solution that is 22% too large on the innermost ring and the
        # center leaves max|M x - F| at roundoff level, because those rows of M
        # are about t^(2J) times the outer ones; the normalized residual is 1.55
        mesh = self._inner_rings_too_large(monkeypatch)
        with pytest.raises(SolveFailure) as caught:
            project(mesh, oscillating_data(mesh))
        assert caught.value.residual > 1.0

    def test_residual_gate_covers_dual_rows(self, monkeypatch):
        # the same error in the dual rows that exact_operator_norm integrates
        mesh = self._inner_rings_too_large(monkeypatch)
        with pytest.raises(SolveFailure) as caught:
            exact_operator_norm(mesh)
        assert caught.value.residual > 0.1

    def test_matches_dense_quadrature_solve(self):
        mesh = build_counterexample_2d(1, 0.3)
        f = oscillating_data(mesh)
        x = project(mesh, f).nodal_values
        Mq = oracles.quadrature_mass_matrix(mesh)
        Fq = oracles.quadrature_load(mesh, f.values)
        expect = np.linalg.solve(Mq, Fq)
        assert np.abs(x - expect).max() < 1e-9

    def test_load_examples(self):
        # two triangles forming a square, data +1 / -1: the shared-edge
        # vertices see cancelling contributions
        mesh = SimplicialMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
        F = assemble_load(mesh, CellwiseConstant([1.0, -1.0]))
        assert F[0] == pytest.approx(0.0, abs=1e-16)
        assert F[2] == pytest.approx(0.0, abs=1e-16)
        assert F[1] == pytest.approx(1 / 6, rel=1e-14)
        assert F[3] == pytest.approx(-1 / 6, rel=1e-14)

    def test_length_mismatch(self):
        mesh = build_uniform_square(2)
        with pytest.raises(LengthMismatch):
            assemble_load(mesh, CellwiseConstant([1.0, 2.0]))
        with pytest.raises(LengthMismatch):
            solve_with_load(mesh, np.ones(3))

    def test_nonfinite_data_rejected(self):
        with pytest.raises(InvalidParameter):
            CellwiseConstant([1.0, np.inf])
        with pytest.raises(InvalidParameter):
            SplineFunction([np.nan])

    @pytest.mark.parametrize("cls, field",
                             [(CellwiseConstant, "values"), (SplineFunction, "nodal_values")])
    def test_keeps_a_read_only_copy_of_the_callers_array(self, cls, field):
        a = np.ones(2)
        stored = getattr(cls(a), field)
        a[0] = 2.0
        assert stored.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 3.0

    def test_severe_scaling_still_solves(self):
        mesh = build_counterexample_2d(10, 0.01)  # areas span ~40 decades
        from projnorm import oscillating_data

        g = project(mesh, oscillating_data(mesh))
        # limit value is 2J+1 = 21; at t = 0.01 the finite-t drift is ~1.7
        assert 18.5 < g.sup_norm < 21.0


class TestDualBasis:
    @pytest.mark.parametrize(
        "mesh",
        [
            build_interval_partition([0.0, 0.2, 0.9, 1.0]),
            build_uniform_square(3),
            build_counterexample_2d(4, 0.01),
            build_pyramid_partition(1, 0.3, 3),
        ],
        ids=lambda m: f"d{m.dim}v{m.n_vertices}",
    )
    def test_biorthogonality(self, mesh):
        # the rows exact_operator_norm integrates: the gated solve of unit columns
        M = assemble_mass(mesh)
        unit = np.eye(mesh.n_vertices)
        psi, residual = projection._mass_solver(M)(unit)
        assert residual <= projection.RESIDUAL_RTOL
        err = np.abs(M.toarray() @ psi - unit).max()
        assert err < 1e-9
        reference = oracles.dense_dual_basis(M)
        assert np.abs(psi.T - reference).max() < 1e-9 * np.abs(reference).max()

    def test_center_dual_overshoots_negative(self):
        # on the 8-triangle square the dual at the center is +9 there and -3
        # at every other vertex
        mesh = build_uniform_square(2)
        psi = oracles.dense_dual_basis(assemble_mass(mesh))
        assert psi[4, 4] == pytest.approx(9.0, rel=1e-12)
        others = np.delete(psi[4], 4)
        assert others == pytest.approx(np.full(8, -3.0), rel=1e-12)


class TestAbsIntegral:
    def test_one_signed_is_volume_times_mean(self):
        mesh = unit_triangle()
        assert spline_abs_integral(mesh, [1.0, 2.0, 3.0]) == pytest.approx(
            0.5 * 2.0, rel=1e-15
        )
        assert spline_abs_integral(mesh, [-1.0, -2.0, -3.0]) == pytest.approx(
            0.5 * 2.0, rel=1e-15
        )

    def test_1d_crossing(self):
        # values -1, +1 on [0,1]: two triangles of area 1/4 each
        mesh = build_interval_partition([0.0, 1.0])
        assert spline_abs_integral(mesh, [-1.0, 1.0]) == pytest.approx(0.5, rel=1e-14)

    def test_2d_crossing_against_subdivision_oracle(self):
        rng = np.random.default_rng(17)
        base = build_uniform_square(2)
        mesh = SimplicialMesh(oracles.jittered_square_vertices(rng, 2), base.simplices)
        for _ in range(5):
            nodal = rng.uniform(-1, 1, mesh.n_vertices)
            exact = spline_abs_integral(mesh, nodal)
            approx = oracles.subdivision_abs_integral(mesh, nodal, k=512)
            assert exact == pytest.approx(approx, rel=5e-5)

    def test_zero_function(self):
        assert spline_abs_integral(unit_triangle(), [0.0, 0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spline_abs_integral(unit_triangle(), [1.0, 2.0])


# Batched integrals against the scalar recursion, which splits every
# sign-changing simplex: the batched core integrates lone-vertex simplices in
# closed form and sums in another order, so they agree to a few ulps per
# simplex.
BATCH_RTOL = 1e-13


def _batch_meshes():
    rng = np.random.default_rng(5)
    square = build_uniform_square(3)
    yield build_interval_partition(oracles.random_interval_mesh(rng))
    yield SimplicialMesh(oracles.jittered_square_vertices(rng, 3), square.simplices)
    yield build_counterexample_2d(2, 0.01)
    yield build_pyramid_partition(2, 0.1, 3)
    yield build_pyramid_partition(1, 0.3, 4)
    for d in range(1, 5):
        yield SimplicialMesh(oracles.random_simplex_vertices(rng, d),
                             [list(range(d + 1))])


def _hard_rows(mesh, rng, count=40):
    """Random splines with near-zero values, ties and vanishing faces."""
    rows = rng.uniform(-1.0, 1.0, (count, mesh.n_vertices))
    scale = np.abs(rows).max(axis=1, keepdims=True)
    tiny = rng.random(rows.shape) < 0.2
    rows[tiny] = rng.uniform(-1e-14, 1e-14, tiny.sum()) * np.broadcast_to(scale, rows.shape)[tiny]
    for row in rows[::3]:  # coincident values at the vertices of one simplex
        simplex = mesh.simplices[rng.integers(mesh.n_simplices)]
        row[simplex[1:]] = row[simplex[0]]
    for row in rows[1::3]:  # zero on a whole face of one simplex
        simplex = mesh.simplices[rng.integers(mesh.n_simplices)]
        row[simplex[:-1]] = 0.0
    return rows


def _assert_across_blocks(mesh, monkeypatch, totals, M):
    """exact_operator_norm in blocks of one row, of a few rows and of every
    row at once against the integrals of every dual row and the dense bound."""
    norm = totals.max()
    witness = int(np.argmax(totals >= norm * (1 - 1e-12)))
    bound = oracles.inverse_norm_bound(mesh, M.toarray())
    for rows in (1, 3, mesh.n_vertices):
        monkeypatch.setattr(projection, "_BLOCK_VALUES", rows * mesh.simplices.size)
        result = exact_operator_norm(mesh)
        assert result.norm == pytest.approx(norm, rel=BATCH_RTOL)
        assert result.witness == witness
        assert result.ainv_bound == pytest.approx(bound, rel=BATCH_RTOL)


class TestBatchedAgainstRecursion:
    @pytest.mark.parametrize("mesh", list(_batch_meshes()),
                             ids=lambda m: f"d{m.dim}-m{m.n_simplices}")
    def test_random_rows(self, mesh):
        rng = np.random.default_rng(mesh.n_simplices)
        rows = _hard_rows(mesh, rng)
        batched = projection._abs_integrals(mesh, rows)
        for row, total in zip(rows, batched):
            expected = oracles.recursive_abs_integral(mesh, row)
            assert total == pytest.approx(expected, rel=BATCH_RTOL)
            assert spline_abs_integral(mesh, row) == pytest.approx(expected, rel=BATCH_RTOL)

    @pytest.mark.parametrize("mesh", list(_batch_meshes())[:5],
                             ids=lambda m: f"d{m.dim}-m{m.n_simplices}")
    def test_dual_rows_across_blocks(self, mesh, monkeypatch):
        M = assemble_mass(mesh)
        totals = np.array([oracles.recursive_abs_integral(mesh, row)
                           for row in oracles.dense_dual_basis(M)])
        _assert_across_blocks(mesh, monkeypatch, totals, M)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lone_vertex_at_extreme_scales(self, d):
        # one vertex against d of the other sign, at every position; the other
        # values include zeros, sub-threshold values of either sign and values
        # 1e300 below the scale, and the scales reach 1e+-150 and 1e200, where
        # a^(d+1) / prod (a - v_j) would overflow or underflow
        rng = np.random.default_rng(d)
        mesh = SimplicialMesh(oracles.random_simplex_vertices(rng, d), [list(range(d + 1))])
        others = -np.array([0.5, 3.0, 1.5, 2.0][:d])
        variants = [others]
        for tiny in (0.0, 1e-15, -5e-15, -1e-300):
            variants += [np.where(np.arange(d) == m, tiny, others) for m in range(1, d)]
        rows = np.array([sign * scale * np.insert(rest, p, 0.7)
                         for sign in (1.0, -1.0)
                         for scale in (1e-150, 1.0, 1e150, 1e200)
                         for rest in variants
                         for p in range(d + 1)])
        batched = projection._abs_integrals(mesh, rows)
        assert np.isfinite(batched).all()
        for row, total in zip(rows, batched):
            assert total == pytest.approx(oracles.recursive_abs_integral(mesh, row),
                                          rel=BATCH_RTOL)

    def test_values_at_the_sign_threshold(self):
        # +-1e-14 of the scale is zero; just above it the simplex is split
        mesh = unit_triangle()
        for values in ([1.0, -1e-14, 0.5], [1.0, -1.5e-14, 0.5], [-1.0, 1e-14, -1e-14],
                       [2.0, 2.0, -2.0], [0.0, 0.0, -3.0], [1e-300, -1e-300, 0.0]):
            assert spline_abs_integral(mesh, values) == pytest.approx(
                oracles.recursive_abs_integral(mesh, values), rel=BATCH_RTOL)


class TestExactOperatorNorm:
    def test_single_segment_norm(self):
        # dual at either endpoint of one segment has integral of |psi| = 5/3;
        # the two tie, and ties go to the smallest vertex id
        mesh = build_interval_partition([0.0, 1.0])
        norm, witness, _ = exact_operator_norm(mesh)
        assert norm == pytest.approx(5 / 3, rel=1e-12)
        assert witness == 0

    def test_witness_is_smallest_of_symmetric_ties(self):
        # on the 8 x 8 grid the duals at (3/8, 0) and its seven images under
        # the square's symmetries tie up to roundoff; vertex 3 is the first
        mesh = build_uniform_square(8)
        norm, witness, _ = exact_operator_norm(mesh)
        totals = [spline_abs_integral(mesh, row)
                  for row in oracles.dense_dual_basis(assemble_mass(mesh))]
        assert norm == pytest.approx(max(totals), rel=1e-13)
        assert witness == 3
        assert totals[witness] == pytest.approx(norm, rel=1e-12)
        assert all(t < norm * (1 - 1e-12) for t in totals[:witness])

    def test_memory_is_streamed(self):
        # M^{-1} of these 1,089 vertices alone would take 9.5 MB
        mesh = build_uniform_square(32)
        tracemalloc.start()
        try:
            exact_operator_norm(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_uniform_intervals_stay_bounded(self):
        mesh = build_interval_partition(np.linspace(0.0, 1.0, 25))
        norm = exact_operator_norm(mesh).norm
        assert norm <= 3.0 + 1e-9

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40))
    @example(np.linspace(-6.0, 6.0, 40).tolist())  # geometric, ratio 1e12
    @example([6.0, -6.0] * 20)  # alternating, ratio 1e12
    def test_interval_norms_on_graded_partitions(self, log_lengths):
        # segment lengths 10^x graded up to 1e12; in 1D every sign change of a
        # dual function is a lone-vertex segment, integrated in closed form
        mesh = build_interval_partition(np.cumsum([0.0] + [10.0**x for x in log_lengths]))
        norm, witness, bound = exact_operator_norm(mesh)
        assert norm <= 3.0
        # data sign(integral of psi_witness) per segment projects to at least
        # sum |integral_T psi_witness| at the witness, and to at most the norm
        psi = solve_with_load(mesh, np.eye(mesh.n_vertices)[witness])[0]
        cell = psi[mesh.simplices].mean(axis=1) * mesh.simplex_volumes
        sup = project(mesh, np.where(cell < 0, -1.0, 1.0)).sup_norm
        assert np.abs(cell).sum() <= sup * (1 + 1e-12)
        assert sup <= norm * (1 + 1e-12)
        assert norm <= bound * (1 + 1e-12)

    def test_norm_grows_on_shrinking_squares(self):
        mesh = build_counterexample_2d(3, 0.01)
        norm = exact_operator_norm(mesh).norm
        assert norm >= 6.0

    def test_matches_subdivision_oracle(self):
        # on the 8-triangle square the norm is attained at the boundary, not
        # the center (whose dual has the smaller integral 19/8); note it
        # already exceeds the 1D bound 3
        mesh = build_uniform_square(2)
        norm, witness, _ = exact_operator_norm(mesh)
        psi = oracles.dense_dual_basis(assemble_mass(mesh))
        approx = oracles.subdivision_abs_integral(mesh, psi[witness], k=512)
        assert norm == pytest.approx(approx, rel=1e-5)
        assert witness == 0
        assert norm == pytest.approx(3.002075824636801, rel=1e-12)
        assert spline_abs_integral(mesh, psi[4]) == pytest.approx(19 / 8, rel=1e-12)


class TestRowPruning:
    # (norm, witness, ainv_bound) as exact_operator_norm returns them, in its
    # default row blocks, at t = 0.01 on the simplex volumes |h_0| / d! of the
    # facet-normal kernel (mesh._facets); float.hex pins every bit.  A run
    # with one block of every row, which prunes none, gives the same norm and
    # witness, but ainv_bound depends on the block shape in its last bits
    PINNED = {
        "cx-J20": ("0x1.1a2acb039ad82p+5", 84, "0x1.28555cb94a2a7p+5"),
        "pyramid-d4-J10": ("0x1.ef90bba51c0c0p+4", 44, "0x1.1b33874dc87aap+5"),
    }
    MESHES = {
        "cx-J20": lambda: build_counterexample_2d(20, 0.01),
        "pyramid-d4-J10": lambda: build_pyramid_partition(10, 0.01, 4),
    }

    @pytest.mark.parametrize("name", list(MESHES))
    def test_pins_exact_operator_norm_bits(self, name):
        norm, witness, bound = exact_operator_norm(self.MESHES[name]())
        assert (norm.hex(), witness, bound.hex()) == self.PINNED[name]

    @pytest.mark.parametrize("name", list(MESHES))
    def test_matches_unpruned_rows_across_blocks(self, name, monkeypatch):
        # every row of a dense M^{-1} integrated, none pruned
        mesh = self.MESHES[name]()
        M = assemble_mass(mesh)
        totals = projection._abs_integrals(mesh, oracles.dense_dual_basis(M))
        _assert_across_blocks(mesh, monkeypatch, totals, M)

    def test_pruning_fires(self, monkeypatch):
        # blocks of 16 rows; the seed block, rows 80-84 with the center 84,
        # is integrated whole, and the center row's integral prunes every row
        # of the other blocks
        mesh = build_counterexample_2d(20, 0.01)
        integrate = projection._abs_integrals
        integrated = []

        def counted(mesh, rows):
            integrated.append(len(rows))
            return integrate(mesh, rows)

        monkeypatch.setattr(projection, "_abs_integrals", counted)
        exact_operator_norm(mesh)
        assert integrated == [5]

    def test_rows_in_the_tie_band_are_integrated(self, monkeypatch):
        # integrals replaced by their certificates U_P, the tightest values
        # they may take.  Lowering corner 12 of the 3 x 3 grid makes it the
        # seed (smallest M_PP) with the largest U_P, and leaves corner 3 about
        # 5e-13 below it: a tie, so vertex 3 is the witness, and its row must
        # be integrated although its bound is below the best integral
        square = build_uniform_square(3)
        vertices = square.vertices.copy()
        vertices[12, 1] -= 9e-12
        mesh = SimplicialMesh(vertices, square.simplices)
        diag = assemble_mass(mesh).diagonal()
        monkeypatch.setattr(projection, "_abs_integrals",
                            lambda mesh, rows: 2.0 * (np.abs(rows) @ diag))
        bounds = 2.0 * (np.abs(oracles.dense_dual_basis(assemble_mass(mesh))) @ diag)
        assert np.argmin(diag) == 12 and np.argmax(bounds) == 12
        assert 1e-13 < 1 - bounds[3] / bounds[12] < 1e-12
        for rows in (1, 3, mesh.n_vertices):
            monkeypatch.setattr(projection, "_BLOCK_VALUES", rows * mesh.simplices.size)
            norm, witness, bound = exact_operator_norm(mesh)
            assert witness == 3
            assert norm == pytest.approx(bound, rel=1e-15)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_certificate_bounds_every_dual_integral(self, d, splits, seed):
        # U_P = (d+2)/2 sum_Q |psi_P(Q)| M_QQ >= integral |psi_P| on graded
        # stellar refinements, with the integrals from the recursive oracle
        vertices, simplices = oracles.random_stellar_mesh(np.random.default_rng(seed), d, splits)
        mesh = SimplicialMesh(vertices, simplices)
        M = assemble_mass(mesh)
        psi = oracles.dense_dual_basis(M)
        bounds = 0.5 * (d + 2) * (np.abs(psi) @ M.diagonal())
        for row, bound in zip(psi, bounds):
            assert oracles.recursive_abs_integral(mesh, row) <= bound * (1 + projection._PRUNE_RTOL)


class TestNormBounds:
    @pytest.mark.parametrize(
        "mesh",
        [
            build_counterexample_2d(1, 0.3),
            build_counterexample_2d(3, 0.1),
            build_counterexample_2d(5, 0.01),
            build_pyramid_partition(2, 0.1, 3),
            build_pyramid_partition(1, 0.3, 4),
            build_uniform_square(3),
            build_interval_partition([0.0, 1.0, 1.5, 4.0]),
        ],
        ids=lambda m: f"d{m.dim}v{m.n_vertices}",
    )
    def test_bound_matches_dense_inverse_oracle(self, mesh):
        expected = oracles.inverse_norm_bound(mesh, oracles.quadrature_mass_matrix(mesh))
        assert exact_operator_norm(mesh).ainv_bound == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "mesh",
        [
            build_interval_partition([0.0, 0.4, 0.45, 1.0]),
            build_uniform_square(3),
            build_counterexample_2d(2, 0.1),
            build_pyramid_partition(1, 0.3, 3),
        ],
        ids=lambda m: f"d{m.dim}",
    )
    def test_exact_norm_below_inverse_bound(self, mesh):
        norm, _, bound = exact_operator_norm(mesh)
        assert norm <= bound * (1 + 1e-12) + 1e-12


def _coupling_check(mesh):
    return proposition1_check(mesh, exact_operator_norm(mesh).norm)


class TestCouplingBound:
    def test_smallest_square_mesh(self):
        result = _coupling_check(build_uniform_square(1))
        assert result.c0 == pytest.approx(0.25, rel=1e-14)
        assert result.bound == pytest.approx(24.0, rel=1e-12)
        assert result.satisfied

    def test_coupling_stabilizes_on_refinement(self):
        r5 = _coupling_check(build_uniform_square(5))
        r6 = _coupling_check(build_uniform_square(6))
        assert r5.c0 == pytest.approx(r6.c0, rel=1e-14)
        assert r5.c0 == pytest.approx(0.125, rel=1e-14)

    def test_shrinking_squares_satisfy_but_blow_up(self):
        loose = _coupling_check(build_counterexample_2d(2, 0.3))
        tight = _coupling_check(build_counterexample_2d(2, 0.01))
        assert loose.satisfied and tight.satisfied
        # the coupling degenerates with t, so the bound explodes
        assert tight.c0 < loose.c0
        assert tight.bound > 100 * loose.bound

    def test_requires_2d(self):
        with pytest.raises(UnsupportedDimension):
            proposition1_check(build_interval_partition([0.0, 1.0]), 5 / 3)

    def test_reports_the_norm_it_is_given(self):
        mesh = build_uniform_square(2)
        norm = exact_operator_norm(mesh).norm
        assert proposition1_check(mesh, norm).exact_norm == norm
        assert not proposition1_check(mesh, 1e6).satisfied

