"""Fast Euclidean projection onto intersections of smooth convex constraints.

The solver maximizes the Lagrangian dual over a multiplier box with a
cutting-plane method whose approximate gradient/value oracles come from
accelerated gradient descent on the primal, then translates the dual
solution back to an approximate projection.
"""

from .agd import SmoothObjective, agd_iterations, agd_minimize
from .cutting_plane import (
    CutTrace,
    DualBox,
    EllipsoidState,
    bisection_maximize,
    cutting_plane_maximize,
    ellipsoid_update,
    separation_oracle_box,
)
from .dual_oracle import InnerSolves, OracleTriple, approx_dual_oracle
from .model import (
    ConstraintOracle,
    ContractViolation,
    NumericalFailure,
    ProjectionProblem,
    QuadraticConstraint,
    SolverConfig,
    eval_constraints,
    factored_quadratic_constraint,
    lagrangian_gradient,
    lagrangian_value,
    problem_from_json,
    problem_to_json,
    quadratic_constraint,
    quadratic_problem,
)
from .norm_duality import DualBallProjector, exact_dual_norm_oracle, project_norm_ball_via_dual
from .projector import (
    ProjectionResult,
    bound_R_quadratic,
    bound_R_single,
    project,
)
from .reference import (
    GridSpec,
    ball_projection_closed_form,
    brute_force_dual_grid,
    project_l1_ball,
    project_l2_ball,
    project_linf_box,
)

__all__ = [
    "SmoothObjective",
    "agd_iterations",
    "agd_minimize",
    "CutTrace",
    "DualBox",
    "EllipsoidState",
    "bisection_maximize",
    "cutting_plane_maximize",
    "ellipsoid_update",
    "separation_oracle_box",
    "InnerSolves",
    "OracleTriple",
    "approx_dual_oracle",
    "ConstraintOracle",
    "ContractViolation",
    "NumericalFailure",
    "ProjectionProblem",
    "QuadraticConstraint",
    "SolverConfig",
    "eval_constraints",
    "factored_quadratic_constraint",
    "lagrangian_gradient",
    "lagrangian_value",
    "problem_from_json",
    "problem_to_json",
    "quadratic_constraint",
    "quadratic_problem",
    "DualBallProjector",
    "exact_dual_norm_oracle",
    "project_norm_ball_via_dual",
    "ProjectionResult",
    "bound_R_quadratic",
    "bound_R_single",
    "project",
    "GridSpec",
    "ball_projection_closed_form",
    "brute_force_dual_grid",
    "project_l1_ball",
    "project_l2_ball",
    "project_linf_box",
]

__version__ = "0.1.0"
