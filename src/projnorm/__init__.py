"""Exact sup-norm operator norms of L2 projections onto linear splines.

The package builds conforming simplicial meshes (including a family of
shrinking-square triangulations on which the projection operator norm grows
without bound), assembles the Galerkin systems of the L2 projection onto
continuous piecewise-linear splines in closed form, and evaluates the
resulting operator norms exactly from the dual functions, the rows of the
inverse mass matrix.
"""

from .errors import (
    DegenerateSimplex,
    InvalidParameter,
    LengthMismatch,
    MissingLabels,
    NotASymmetry,
    NotEquivariant,
    ProjNormError,
    SolveFailure,
    UnderflowRisk,
    UnsupportedDimension,
)
from .mesh import (
    OrbitPartition,
    SimplicialMesh,
    angle_stats,
    build_counterexample_2d,
    build_interval_partition,
    build_pyramid_partition,
    build_uniform_square,
    load_mesh,
    mesh_from_dict,
    mesh_from_json,
    mesh_to_dict,
    mesh_to_json,
    save_mesh,
    symmetry_generators,
    symmetry_orbits,
    validate_conformity,
    vertex_roles,
)
from .projection import (
    CellwiseConstant,
    OperatorNorm,
    Proposition1Result,
    SplineFunction,
    assemble_load,
    assemble_mass,
    exact_operator_norm,
    normalized_system,
    project,
    proposition1_check,
    solve_with_load,
    spline_abs_integral,
)
from .counterexample import (
    LimitSystem,
    ReducedSystem,
    SweepRecord,
    convergence_study,
    growth_sweep,
    limit_solution_2d,
    limit_system_2d,
    limit_system_pyramid,
    oscillating_data,
    reduce_by_symmetry,
    reduced_ring_system,
    sweep_to_csv,
)

__version__ = "0.1.0"
