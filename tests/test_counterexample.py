import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from projnorm import counterexample, projection
from projnorm import mesh as meshmod
from projnorm import (
    InvalidParameter,
    MissingLabels,
    NotEquivariant,
    UnsupportedDimension,
    build_counterexample_2d,
    build_pyramid_partition,
    build_uniform_square,
    convergence_study,
    exact_operator_norm,
    growth_sweep,
    limit_solution_2d,
    limit_system_2d,
    limit_system_pyramid,
    normalized_system,
    oscillating_data,
    project,
    reduce_by_symmetry,
    reduced_ring_system,
    sweep_to_csv,
    symmetry_generators,
    symmetry_orbits,
    vertex_roles,
)
from projnorm.mesh import OrbitPartition


class TestOscillatingData:
    def test_ring_values(self):
        mesh = build_counterexample_2d(2, 0.3)
        f = oscillating_data(mesh)
        ring, _, _, _ = vertex_roles(mesh)
        simplex_ring = ring[mesh.simplices].max(axis=1)
        # rings 1, 2 and the inner fan (ring 3): values -1, +1, -1 going inward
        for r, expect in [(1, -1.0), (2, 1.0), (3, -1.0)]:
            assert (f.values[simplex_ring == r] == expect).all()
        assert f.sup_norm == 1.0

    def test_counts_for_one_ring(self):
        mesh = build_counterexample_2d(1, 0.5)
        f = oscillating_data(mesh)
        assert int((f.values == -1.0).sum()) == 8
        assert int((f.values == 1.0).sum()) == 4

    def test_pyramid_inherits_base_pattern(self):
        base = build_counterexample_2d(2, 0.3)
        pyr = build_pyramid_partition(2, 0.3, 4)
        assert np.array_equal(
            oscillating_data(pyr).values, oscillating_data(base).values
        )

    def test_requires_labels(self):
        with pytest.raises(MissingLabels):
            oscillating_data(build_uniform_square(2))


class TestReduction:
    def test_identity_orbits_reproduce_system(self):
        mesh = build_counterexample_2d(1, 0.3)
        system = normalized_system(mesh, oscillating_data(mesh))
        orbits = symmetry_orbits(mesh, np.arange(mesh.n_vertices))
        reduced = reduce_by_symmetry(system, orbits)
        assert np.array_equal(reduced.matrix, system.A)
        assert np.array_equal(reduced.rhs, system.b)

    @pytest.mark.parametrize("J,t", [(1, 0.3), (4, 0.1), (6, 0.01)])
    def test_expansion_matches_full_solution_2d(self, J, t):
        mesh = build_counterexample_2d(J, t)
        full = project(mesh, oscillating_data(mesh)).nodal_values
        reduced = reduced_ring_system(mesh)
        assert reduced.n_orbits == J + 2
        expanded = reduced.expand(reduced.solve())
        assert np.abs(expanded - full).max() < 1e-9 * np.abs(full).max()

    @pytest.mark.parametrize("d", [3, 4])
    def test_expansion_matches_full_solution_pyramid(self, d):
        mesh = build_pyramid_partition(2, 0.1, d)
        full = project(mesh, oscillating_data(mesh)).nodal_values
        reduced = reduced_ring_system(mesh)
        assert reduced.n_orbits == 2 + 3
        expanded = reduced.expand(reduced.solve())
        assert np.abs(expanded - full).max() < 1e-9 * np.abs(full).max()

    def test_reduced_2d_matrix_is_tridiagonal(self):
        mesh = build_counterexample_2d(5, 0.1)
        reduced = reduced_ring_system(mesh)
        k = reduced.n_orbits
        off = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) > 1
        assert np.abs(reduced.matrix[off]).max() == 0.0

    def test_orbit_order_follows_rings(self):
        # orbit r collects ring r, so the reduced unknowns read outward-in
        mesh = build_counterexample_2d(3, 0.2)
        orbits = symmetry_orbits(mesh, symmetry_generators(mesh)[0])
        ring, _, _, _ = vertex_roles(mesh)
        assert np.array_equal(orbits.orbit_of, ring)

    @pytest.mark.parametrize("build", [lambda: build_counterexample_2d(3, 0.1),
                                       lambda: build_pyramid_partition(2, 0.1, 4)],
                             ids=["2d", "pyramid"])
    def test_one_label_decode_per_symmetry_call(self, monkeypatch, build):
        # a mesh decodes its labels once, whatever reads its ring roles and
        # however often, and the decoded arrays cannot be written
        calls = Counter()
        decode = meshmod.vertex_roles

        def counted(mesh):
            calls["vertex_roles"] += 1
            return decode(mesh)

        monkeypatch.setattr(meshmod, "vertex_roles", counted)
        mesh = build()
        for call in (symmetry_generators, oscillating_data, reduced_ring_system,
                     symmetry_generators, reduced_ring_system, oscillating_data):
            call(mesh)
        assert calls == {"vertex_roles": 1}
        ring, corner, _, apexes = mesh.ring_roles
        for array in ring, corner, apexes:
            with pytest.raises(ValueError):
                array[:1] = 7
        assert calls == {"vertex_roles": 1}

    def test_rejects_non_equivariant_orbits(self):
        mesh = build_counterexample_2d(2, 0.3)
        system = normalized_system(mesh, oscillating_data(mesh))
        n = mesh.n_vertices
        # pool the center with an outer corner: rows cannot agree
        orbits = [np.array([0, n - 1])] + [np.array([v]) for v in range(1, n - 1)]
        orbit_of = np.zeros(n, dtype=np.int64)
        for k, orb in enumerate(orbits):
            orbit_of[orb] = k
        bad = OrbitPartition(orbits=orbits, orbit_of=orbit_of)
        with pytest.raises(NotEquivariant):
            reduce_by_symmetry(system, bad)

    @pytest.mark.parametrize("build", [lambda: build_counterexample_2d(5, 0.1),
                                       lambda: build_pyramid_partition(3, 0.01, 4)],
                             ids=["2d", "pyramid"])
    def test_matches_per_orbit_loop(self, build):
        # the per-orbit loop of pooling and picking rows, bit for bit
        mesh = build()
        system = normalized_system(mesh, oscillating_data(mesh))
        orbits = symmetry_orbits(mesh, symmetry_generators(mesh))
        reduced = reduce_by_symmetry(system, orbits)
        S = np.zeros((mesh.n_vertices, orbits.n_orbits))
        for r, orb in enumerate(orbits.orbits):
            S[orb, r] = 1.0
        collapsed = system.A @ S
        for r, orb in enumerate(orbits.orbits):
            assert np.array_equal(reduced.matrix[r], collapsed[orb[0]])
            assert reduced.rhs[r] == system.b[orb[0]]
        assert np.array_equal(reduced.orbit_of, orbits.orbit_of)

    @pytest.mark.parametrize("bad_rows, bad_rhs, message", [
        (True, False, r"^orbit 2 rows differ by 2\.500e-01$"),
        (False, True, r"^orbit 1 right-hand sides differ$"),
        # orbit 2's rows fail as well, but orbit 1 comes first
        (True, True, r"^orbit 1 right-hand sides differ$"),
    ], ids=["rows", "rhs", "smallest-orbit"])
    def test_non_equivariance_message(self, bad_rows, bad_rhs, message):
        mesh = build_counterexample_2d(2, 0.3)
        system = normalized_system(mesh, oscillating_data(mesh))
        orbits = symmetry_orbits(mesh, symmetry_generators(mesh)[0])
        A, b = system.A.copy(), system.b.copy()
        if bad_rows:
            A[orbits.orbits[2][1], 0] += 0.25
        if bad_rhs:
            b[orbits.orbits[1][-1]] += 1.0
        with pytest.raises(NotEquivariant, match=message):
            reduce_by_symmetry(projection.NormalizedSystem(A=A, b=b), orbits)


class TestRationalWitness:
    """Criterion 1's witness values, from an exact rational solve at t = 1/100."""

    @pytest.mark.parametrize("J, rounded", [(6, 12.4245), (7, 14.2000), (8, 15.9408)])
    def test_float_projection_matches_exact_solve(self, J, rounded):
        exact = oracles.rational_ring_witness(J, Fraction(1, 100))
        sup = float(max(abs(x) for x in exact))
        assert round(sup, 4) == rounded
        mesh = build_counterexample_2d(J, 0.01)
        g = project(mesh, oscillating_data(mesh))
        assert abs(g.sup_norm - sup) <= 1e-13 * sup
        ring = vertex_roles(mesh)[0]
        expanded = np.array([float(x) for x in exact])[ring]
        assert np.abs(g.nodal_values - expanded).max() <= 1e-13 * sup


class TestRingStencil:
    """_ring_system, the closed-form reduced system, against its referees."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [0.5, 0.1, 0.01, 1e-4])
    @pytest.mark.parametrize("J", [1, 2, 5, 20])
    def test_matches_reduction_of_built_mesh(self, J, t, d):
        # every (J, t) here passes the underflow guard, J = 20 at t = 1e-4 too
        mesh = build_counterexample_2d(J, t) if d == 2 else build_pyramid_partition(J, t, d)
        reduced = reduced_ring_system(mesh)
        stencil = counterexample._ring_system(J, t, d)
        assert stencil.matrix.shape == reduced.matrix.shape
        assert np.abs(stencil.matrix - reduced.matrix).max() <= 1e-15
        assert np.abs(stencil.rhs - reduced.rhs).max() <= 1e-14 * (d + 2) / 2

    @pytest.mark.parametrize("t", [0.5, 0.1, 0.01, 1e-4])
    @pytest.mark.parametrize("J", [1, 2, 5, 20])
    def test_2d_solution_matches_exact_solve(self, J, t):
        exact = np.array([float(x) for x in oracles.rational_ring_witness(J, Fraction(t))])
        x = counterexample._ring_system(J, t, 2).solve()
        assert np.abs(x - exact).max() <= 1e-14 * (2 * J + 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_t0_rows_are_the_documented_limit_rows(self, d):
        # the limit rows as the limit_system docstrings state them, written
        # out one entry at a time; t = 0 must give them bit for bit
        for J in range(1, 21):
            k = J + 2 + (d > 2)
            A, b = np.zeros((k, k)), np.zeros(k)
            A[0, :2] = 1.5, 0.5
            b[0] = -(d + 2) / 2
            for j in range(1, J + 2):
                A[j, j - 1] = A[j, j] = 1.0
                b[j] = (d + 2) / 2 * (-1.0) ** j
            if d > 2:
                A[:-1, -1] = (d - 2) / 2
                A[-1, :2] = 1.0, 0.5
                A[-1, -1] = 1 + (d - 3) / 2
                b[-1] = -(d + 2) / 2
            lim = counterexample._ring_system(J, 0.0, d)
            assert np.array_equal(lim.matrix, A) and np.array_equal(lim.rhs, b)
            public = limit_system_2d(J) if d == 2 else limit_system_pyramid(J, d)
            assert np.array_equal(public.matrix, A) and np.array_equal(public.rhs, b)


class TestLimitSystems:
    def test_2d_smallest_case_is_explicit(self):
        lim = limit_system_2d(1)
        assert np.array_equal(
            lim.matrix, [[1.5, 0.5, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        )
        assert np.array_equal(lim.rhs, [-2.0, -2.0, 2.0])

    @pytest.mark.parametrize("J", [1, 2, 5, 12, 20])
    def test_solution_matches_closed_form(self, J):
        x = limit_system_2d(J).solve()
        assert np.abs(x - limit_solution_2d(J)).max() < 1e-12

    def test_closed_form_values(self):
        assert np.array_equal(limit_solution_2d(3), [-1.0, -1.0, 3.0, -5.0, 7.0])
        assert np.abs(limit_solution_2d(8)).max() == 2 * 8 + 1

    def test_pyramid_smallest_case_is_explicit(self):
        lim = limit_system_pyramid(1, 3)
        assert np.array_equal(
            lim.matrix,
            [
                [1.5, 0.5, 0.0, 0.5],
                [1.0, 1.0, 0.0, 0.5],
                [0.0, 1.0, 1.0, 0.5],
                [1.0, 0.5, 0.0, 1.0],
            ],
        )
        assert np.array_equal(lim.rhs, [-2.5, -2.5, 2.5, -2.5])

    def test_pyramid_apex_row_scales_with_dimension(self):
        lim = limit_system_pyramid(1, 4)
        assert lim.matrix[-1, -1] == 1.5
        assert lim.matrix[0, -1] == 1.0
        assert np.array_equal(lim.rhs, [-3.0, -3.0, 3.0, -3.0])

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_pyramid_solution_structure(self, d):
        # first two ring values and the apex value all equal -1, the
        # remaining entries alternate in sign and grow
        for J in (1, 3, 6):
            x = limit_system_pyramid(J, d).solve()
            assert abs(x[0] + 1) < 1e-12
            assert abs(x[1] + 1) < 1e-12
            assert abs(x[-1] + 1) < 1e-12
            rings = x[:-1]
            assert (np.sign(rings[1:]) == (-1.0) ** np.arange(1, J + 2)).all()
            mags = np.abs(rings[1:])
            assert (np.diff(mags) > 0).all()

    def test_pyramid_growth_rate_exceeds_2d_rate(self):
        sups3 = [np.abs(limit_system_pyramid(J, 3).solve()).max() for J in range(1, 9)]
        slope = np.polyfit(range(1, 9), sups3, 1)[0]
        assert slope > 2.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            limit_system_2d(0)
        with pytest.raises(InvalidParameter):
            limit_solution_2d(0)
        with pytest.raises(InvalidParameter):
            limit_system_pyramid(1, 2)


class TestLimitConsistency:
    def test_reduced_system_approaches_2d_limit(self):
        lim = limit_system_2d(3)
        devs = []
        for t in (0.04, 0.02, 0.01):
            red = reduced_ring_system(build_counterexample_2d(3, t))
            devs.append(np.abs(red.matrix - lim.matrix).max())
        assert devs[0] > devs[1] > devs[2]
        # dominant deviating entry vanishes linearly in t
        assert 0.4 < devs[2] / devs[1] < 0.6

    @pytest.mark.parametrize("d", [3, 4])
    def test_reduced_system_approaches_pyramid_limit(self, d):
        lim = limit_system_pyramid(3, d)
        red = reduced_ring_system(build_pyramid_partition(3, 1e-3, d))
        assert np.abs(red.matrix - lim.matrix).max() < 0.05
        assert np.abs(red.rhs - lim.rhs).max() < 0.05


class TestSweeps:
    def test_convergence_study_approaches_limit(self):
        records = convergence_study(2, [0.2, 0.1, 0.05])
        errs = [r.limit_error for r in records]
        assert errs[0] > errs[1] > errs[2]
        assert all(r.exact_operator_norm is None for r in records)

    @pytest.mark.parametrize("ts", [[1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4], [0.2, 0.1, 0.05]],
                             ids=["bench", "readme"])
    def test_convergence_study_matches_exact_solves(self, monkeypatch, ts):
        # each row lies within 1e-14 (2J+1) of the exact rational solve at
        # the same float t, and the sweep builds no mesh, decodes no label
        # and forms no orbit
        J = 20
        x_hat = [Fraction(int(v)) for v in limit_solution_2d(J)]
        exact = [oracles.rational_ring_witness(J, Fraction(t)) for t in ts]
        calls = Counter()
        for module, name in ((counterexample, "build_counterexample_2d"),
                             (meshmod, "build_counterexample_2d"),
                             (meshmod, "vertex_roles"),
                             (counterexample, "symmetry_orbits"),
                             (meshmod, "symmetry_orbits")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        records = convergence_study(J, ts)
        assert calls == {}
        assert [(r.J, r.t, r.d) for r in records] == [(J, t, 2) for t in ts]
        for r, x in zip(records, exact):
            sup = float(max(abs(v) for v in x))
            err = float(max(abs(v - w) for v, w in zip(x, x_hat)))
            assert abs(r.sup_norm - sup) <= 1e-14 * (2 * J + 1)
            assert abs(r.limit_error - err) <= 1e-14 * (2 * J + 1)

    def test_convergence_study_near_limit_value(self):
        (rec,) = convergence_study(2, [1e-3])
        assert abs(rec.sup_norm - 5.0) <= 0.1

    def test_growth_sweep_2d(self):
        records = growth_sweep(range(1, 6), 0.01)
        for r in records:
            assert r.sup_norm >= 2 * r.J
            assert r.limit_error is None

    def test_growth_sweep_reads_an_iterator_once(self):
        records = growth_sweep(iter([1, 2]), 0.01)
        assert [r.J for r in records] == [1, 2]

    def test_growth_sweep_with_norms(self):
        records = growth_sweep([1, 2], 0.1, with_norms=True)
        for r in records:
            assert r.exact_operator_norm is not None
            assert r.ainv_bound is not None
            assert r.sup_norm <= r.exact_operator_norm + 1e-9
            assert r.exact_operator_norm <= r.ainv_bound + 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_factorization_per_mesh(self, monkeypatch, d):
        # a sweep with norms builds, assembles and factors each mesh once, for
        # the norm; without norms it builds no mesh at all
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((counterexample, "build_counterexample_2d"),
                             (counterexample, "build_pyramid_partition"),
                             (meshmod, "build_counterexample_2d"),
                             (projection, "assemble_mass"),
                             (projection, "splu")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        # the pyramid builder builds its base through the mesh module's binding
        built = ({"build_counterexample_2d": 2} if d == 2 else
                 {"build_pyramid_partition": 2, "build_counterexample_2d": 2})
        growth_sweep([3, 4], 0.01, d=d, with_norms=True)
        assert calls == {**built, "assemble_mass": 2, "splu": 2}
        calls.clear()
        growth_sweep([3, 4], 0.01, d=d)
        assert calls == {}
        exact_operator_norm(build_counterexample_2d(3, 0.01))
        assert calls == {"assemble_mass": 1, "splu": 1}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1 / 2, 1 / 10, 1 / 100])
    def test_sweep_matches_exact_witness_and_mesh_projection(self, t, d):
        # the stencil's sup norm against the exact rational solve of the
        # built family and against the float projection on the built mesh
        Js = [1, 2, 4, 6]
        for r, J in zip(growth_sweep(Js, t, d=d), Js):
            exact = oracles.rational_ring_witness(J, Fraction(t), d)
            assert abs(r.sup_norm - float(max(map(abs, exact)))) <= 1e-14 * (2 * J + 1)
            mesh = build_counterexample_2d(J, t) if d == 2 else build_pyramid_partition(J, t, d)
            sup = project(mesh, oscillating_data(mesh)).sup_norm
            assert r.sup_norm == pytest.approx(sup, rel=1e-13)

    def test_norm_sweep_checks_the_mesh_dimension_first(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a row was computed before the mesh dimension was checked")

        monkeypatch.setattr(counterexample, "_ring_system", refuse)
        with pytest.raises(UnsupportedDimension, match="d=40 is above 12"):
            growth_sweep([1, 2], 0.5, d=40, with_norms=True)

    def test_growth_sweep_pyramid_increases(self):
        records = growth_sweep(range(2, 7), 0.01, d=3)
        sups = [r.sup_norm for r in records]
        assert all(b > a for a, b in zip(sups, sups[1:]))

    def test_finite_t_drift_at_large_J(self):
        # at fixed t = 0.01 the witness sup falls short of the limit value
        # 2J+1 by an amount growing like t J^2: it drops below 2J at J = 8
        # while the exact operator norm still exceeds 2J
        mesh = build_counterexample_2d(8, 0.01)
        sup = project(mesh, oscillating_data(mesh)).sup_norm
        assert 2 * 8 - 0.1 < sup < 2 * 8
        assert exact_operator_norm(mesh).norm >= 2 * 8

    def test_csv_format(self):
        records = growth_sweep([1], 0.3) + convergence_study(1, [0.2])
        text = sweep_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "J,t,d,sup_norm,exact_operator_norm,limit_error,ainv_bound"
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "2"
        assert first[4] == "" and first[5] == ""  # norms not requested
        second = lines[2].split(",")
        assert second[5] != ""  # limit_error present
        assert len(second[3].replace(".", "").replace("-", "").lstrip("0")) <= 12


INTEGER_ARGUMENTS = [
    pytest.param(lambda v: build_counterexample_2d(v, 0.5), 1,
                 "J must be an integer >= 1", id="counterexample2d-J"),
    pytest.param(lambda v: build_pyramid_partition(v, 0.5, 3), 1,
                 "J must be an integer >= 1", id="pyramid-J"),
    pytest.param(lambda v: build_pyramid_partition(1, 0.5, v), 3,
                 "pyramid partitions need d >= 3", id="pyramid-d"),
    pytest.param(build_uniform_square, 1, "n must be an integer >= 1", id="uniform-n"),
    pytest.param(limit_system_2d, 1, "J must be an integer >= 1", id="limit2d-J"),
    pytest.param(limit_solution_2d, 1, "J must be an integer >= 1", id="limitsol-J"),
    pytest.param(lambda v: limit_system_pyramid(v, 3), 1,
                 "J must be an integer >= 1", id="limitpyr-J"),
    pytest.param(lambda v: limit_system_pyramid(1, v), 3,
                 "pyramid limit systems need d >= 3", id="limitpyr-d"),
]


@pytest.mark.parametrize("kind", ["bool", "float", "int64", "below"])
@pytest.mark.parametrize("call,minimum,message", INTEGER_ARGUMENTS)
def test_integer_parameters(call, minimum, message, kind):
    value = {"bool": True, "float": float(minimum), "int64": np.int64(minimum),
             "below": minimum - 1}[kind]
    if kind == "int64":
        call(value)
        return
    expected = re.escape(f"{message}, got {value!r}")
    with pytest.raises(InvalidParameter, match=f"^{expected}$"):
        call(value)
