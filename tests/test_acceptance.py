"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every test times its own body and folds the runtime budget into the
verdict, so a slow pass is reported as a failure.
"""

import itertools
import time

import numpy as np

from projnorm import (
    CellwiseConstant,
    SimplicialMesh,
    assemble_load,
    assemble_mass,
    build_counterexample_2d,
    build_interval_partition,
    build_pyramid_partition,
    build_uniform_square,
    exact_operator_norm,
    limit_solution_2d,
    limit_system_2d,
    limit_system_pyramid,
    normalized_system,
    oscillating_data,
    project,
    reduced_ring_system,
)
from oracles import (
    brute_force_witness,
    jittered_square_vertices,
    quadrature_mass_matrix,
    random_interval_mesh,
    random_simplex_vertices,
    vertex_star,
)

SEED = 20260814


def _criterion(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


def test_criterion_1_witness_growth_2d():
    start = time.perf_counter()
    rows = []
    for J in range(1, 9):
        mesh = build_counterexample_2d(J, 0.01)
        sup = project(mesh, oscillating_data(mesh)).sup_norm
        rows.append((J, sup, sup >= 2 * J, abs(sup - (2 * J + 1)) <= 0.5))
    elapsed = time.perf_counter() - start
    bad = [f"J={J}: sup={s:.4f}" for J, s, lo, br in rows if not (lo and br)]
    ok = not bad and elapsed < 5.0
    detail = (
        f"sup>=2J and within 0.5 of 2J+1 for J=1..8 at t=0.01; "
        f"violations: {bad if bad else 'none'}; {elapsed:.2f}s"
    )
    _criterion(1, "witness growth in 2D", ok, detail)


def test_criterion_2_limit_solution_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for J in range(1, 21):
        err = np.abs(limit_system_2d(J).solve() - limit_solution_2d(J)).max()
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _criterion(
        2,
        "limit solutions match closed form",
        ok,
        f"max deviation {worst:.3e} over J<=20; {elapsed:.2f}s",
    )


def test_criterion_3_mass_matrix_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0

    def compare(mesh):
        nonlocal worst
        M = assemble_mass(mesh).toarray()
        Q = quadrature_mass_matrix(mesh)
        worst = max(worst, np.abs(M - Q).max() / np.abs(M).max())

    for _ in range(10):
        compare(build_interval_partition(random_interval_mesh(rng, 12)))
    base = build_uniform_square(3)
    for _ in range(7):
        jittered = SimplicialMesh(
            jittered_square_vertices(rng, 3), base.simplices.copy()
        )
        compare(jittered)
    for _ in range(3):
        compare(SimplicialMesh(random_simplex_vertices(rng, 2), [[0, 1, 2]]))
    for _ in range(6):
        compare(SimplicialMesh(random_simplex_vertices(rng, 3), [[0, 1, 2, 3]]))
    for J in (1, 2):
        for t in (0.3, 0.1):
            compare(build_pyramid_partition(J, t, 3))

    # 2D star identities: diagonal |Omega_P|/6, neighbors (shared area)/12
    star_dev = 0.0
    mesh = build_counterexample_2d(3, 0.1)
    M = assemble_mass(mesh).tocsr()
    vols = mesh.simplex_volumes
    for v in range(mesh.n_vertices):
        simplices, neighbors = vertex_star(mesh, v)
        expect = vols[simplices].sum() / 6.0
        star_dev = max(star_dev, abs(M[v, v] - expect) / expect)
        for w in neighbors:
            shared = sum(vols[s] for s in simplices if w in mesh.simplices[s])
            star_dev = max(star_dev, abs(M[v, w] - shared / 12.0) / (shared / 12.0))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and star_dev < 1e-14 and elapsed < 5.0
    _criterion(
        3,
        "closed-form mass matrices match quadrature",
        ok,
        f"quadrature rel dev {worst:.3e} on 30 meshes (d=1,2,3), "
        f"star-formula rel dev {star_dev:.3e}; {elapsed:.2f}s",
    )


def test_criterion_4_normalized_system_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    meshes = [build_uniform_square(n) for n in range(1, 5)]
    meshes += [
        build_counterexample_2d(J, t)
        for J, t in [(1, 0.3), (2, 0.3), (3, 0.1), (5, 0.1), (8, 0.01)]
    ]
    row_dev = 0.0
    b_max = 0.0
    for mesh in meshes:
        f = CellwiseConstant(rng.uniform(-1.0, 1.0, size=mesh.n_simplices))
        system = normalized_system(mesh, f)
        A = system.A
        assert (np.diag(A) == 1.0).all()
        off_sums = A.sum(axis=1) - 1.0
        row_dev = max(row_dev, np.abs(off_sums - 1.0).max())
        b_max = max(b_max, np.abs(system.b).max())
    elapsed = time.perf_counter() - start
    ok = row_dev < 1e-13 and b_max <= 2.0 and elapsed < 2.0
    _criterion(
        4,
        "normalized-system identities in 2D",
        ok,
        f"unit diagonals, off-diagonal row-sum dev {row_dev:.3e}, "
        f"max |b| {b_max:.6f} <= 2 on 9 meshes; {elapsed:.2f}s",
    )


def test_criterion_5_interval_norms_bounded_by_3():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        mesh = build_interval_partition(random_interval_mesh(rng))
        worst = max(worst, exact_operator_norm(mesh).norm)
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 + 1e-9 and elapsed < 10.0
    _criterion(
        5,
        "1D operator norms stay below 3",
        ok,
        f"max norm {worst:.6f} over 100 partitions (<=50 segments, "
        f"length ratios up to 1e6); {elapsed:.2f}s",
    )


def test_criterion_6_norm_chain_and_brute_force():
    start = time.perf_counter()
    chain_meshes = [
        build_counterexample_2d(1, 0.3),
        build_counterexample_2d(3, 0.1),
        build_counterexample_2d(5, 0.01),
        build_pyramid_partition(2, 0.1, 3),
        build_pyramid_partition(1, 0.3, 4),
        build_uniform_square(3),
        build_interval_partition([0.0, 1.0, 1.5, 4.0]),
    ]
    chain_ok = True
    for mesh in chain_meshes:
        norm, _, bound, _ = exact_operator_norm(mesh)
        if mesh.labels:
            sup = project(mesh, oscillating_data(mesh)).sup_norm
            chain_ok &= sup <= norm + 1e-9
        chain_ok &= norm <= bound + 1e-9

    brute_meshes = [
        build_counterexample_2d(1, 0.3),  # 12 simplices
        build_uniform_square(2),  # 8 simplices
        build_interval_partition(np.linspace(0.0, 1.0, 13) ** 2),
        build_pyramid_partition(1, 0.2, 4),  # 12 simplices
    ]
    brute_ok = True
    gap = np.inf
    for mesh in brute_meshes:
        assert mesh.n_simplices <= 12
        norm = exact_operator_norm(mesh).norm
        best, _ = brute_force_witness(mesh, assemble_mass(mesh).toarray())
        brute_ok &= best <= norm + 1e-9
        gap = min(gap, norm - best)
    elapsed = time.perf_counter() - start
    ok = chain_ok and brute_ok and elapsed < 30.0
    _criterion(
        6,
        "witness <= exact norm <= inverse bound",
        ok,
        f"chain holds on 7 meshes; exhaustive +-1 patterns on 4 meshes "
        f"(up to 2^12) never beat the exact norm (min slack {gap:.3e}); "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_symmetry_reduction_matches_full():
    start = time.perf_counter()
    worst = 0.0
    dims_ok = True
    for J in range(1, 11):
        mesh = build_counterexample_2d(J, 0.1)
        full = project(mesh, oscillating_data(mesh)).nodal_values
        reduced = reduced_ring_system(mesh)
        dims_ok &= reduced.n_orbits == J + 2
        expanded = reduced.expand(reduced.solve())
        worst = max(worst, np.abs(expanded - full).max() / np.abs(full).max())
    for d in (3, 4):
        for J in range(1, 7):
            mesh = build_pyramid_partition(J, 0.1, d)
            full = project(mesh, oscillating_data(mesh)).nodal_values
            reduced = reduced_ring_system(mesh)
            dims_ok &= reduced.n_orbits == J + 3
            expanded = reduced.expand(reduced.solve())
            worst = max(worst, np.abs(expanded - full).max() / np.abs(full).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and dims_ok and elapsed < 5.0
    _criterion(
        7,
        "symmetry-reduced solves match full solves",
        ok,
        f"rel dev {worst:.3e}; reduced dims J+2 (2D, J<=10) and J+3 "
        f"(d=3,4, J<=6); {elapsed:.2f}s",
    )


def test_criterion_8_growth_persists_in_higher_dimensions():
    start = time.perf_counter()
    sups = []
    for J in range(2, 9):
        mesh = build_pyramid_partition(J, 0.01, 3)
        sups.append(project(mesh, oscillating_data(mesh)).sup_norm)
    increasing = all(b > a for a, b in zip(sups, sups[1:]))
    slope = float(np.polyfit(range(2, 9), sups, 1)[0])

    lim = limit_system_pyramid(3, 3)
    red = reduced_ring_system(build_pyramid_partition(3, 1e-3, 3))
    matrix_dev = np.abs(red.matrix - lim.matrix).max()
    rhs_dev = np.abs(red.rhs - lim.rhs).max()

    elapsed = time.perf_counter() - start
    ok = (
        increasing
        and slope >= 0.5
        and matrix_dev <= 0.05
        and rhs_dev <= 0.05
        and elapsed < 10.0
    )
    _criterion(
        8,
        "growth persists for d=3 joins",
        ok,
        f"sup norms strictly increasing for J=2..8 at t=0.01, slope "
        f"{slope:.3f} >= 0.5; reduced system at t=1e-3 within "
        f"{max(matrix_dev, rhs_dev):.4f} of its limit; {elapsed:.2f}s",
    )


def test_criterion_9_coupling_bound_holds():
    start = time.perf_counter()
    meshes = [build_uniform_square(n) for n in range(1, 7)]
    meshes += [
        build_counterexample_2d(J, t)
        for J, t in itertools.product(range(1, 6), (0.3, 0.1, 0.01))
    ]
    slack = np.inf
    all_ok = True
    for mesh in meshes:
        result = exact_operator_norm(mesh)
        all_ok &= result.norm <= result.prop1_bound + 1e-8
        slack = min(slack, result.prop1_bound - result.norm)
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 10.0
    _criterion(
        9,
        "norms below the coupling-constant bound",
        ok,
        f"exact norm <= (1+2c0)/c0^2 on {len(meshes)} meshes "
        f"(min slack {slack:.3f}); {elapsed:.2f}s",
    )
