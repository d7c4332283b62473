"""Approximate gradient/value/primal-solution oracles for the dual function.

The dual of the projection problem is ``d(lam) = min_x L(x, lam)`` with
``L(x, lam) = ||x - x0||^2 + lam . h(x)``.  Minimizing L to accuracy
``eps_tilde`` yields a primal point ``x_lam`` whose constraint vector is an
approximate dual gradient and whose Lagrangian value approximates d(lam):

    ||x_lam - x*_lam||^2 <= eps_tilde
    |v - d(lam)|         <= eps_tilde
    ||g - grad d(lam)||  <= sqrt(m G^2 eps_tilde)

The inner minimization is 2-strongly convex and (2 + ||lam||_1 L)-smooth, so
accelerated gradient descent converges at a linear rate (Nesterov,
*Introductory Lectures on Convex Optimization*, 2004, 2.1-2.2).  Optimality
at the requested accuracy is certified through strong convexity: the value
gap is at most ``||grad L||^2 / 4``, so an iterate with
``||grad L||^2 <= 4 eps_tilde`` is accurate enough.  The a-priori AGD
budget caps each solve and doubles until the certificate holds.  With
``stop_on_certificate`` (the m = 1 search) the solve returns the first AGD
iterate that passes; otherwise (m >= 2) every round runs its whole budget
before the certificate is tested, until the ellipsoid stops on its own
certificate too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agd import SmoothObjective, agd_iterations, agd_minimize
from .model import (
    Array,
    ContractViolation,
    ProjectionProblem,
    eval_constraints,
    lagrangian_gradient_fn,
)

# Value gaps below roughly 1e-13 times the problem scale are not resolvable
# in float64; requested accuracies below that are clamped.  The clamped
# accuracy still certifies iterates far tighter than any end-to-end tolerance.
_FLOAT_GAP_REL = 1e-13

# Budget-doubling rounds stop when the certificate holds, when the gradient
# norm stops shrinking (float stagnation), or after this many rounds.
_MAX_DOUBLING_ROUNDS = 8


@dataclass(frozen=True)
class OracleTriple:
    """Approximate primal minimizer with its dual gradient/value estimates.

    ``v`` and ``g`` are recomputed from ``x_lambda`` so the recomputation
    identities hold exactly.
    """

    x_lambda: Array
    g: Array
    v: float


def effective_eps_tilde(problem: ProjectionProblem, eps_tilde: float) -> float:
    """Requested inner accuracy clamped at the float64 resolution floor."""
    scale = 1.0 + float(problem.x0 @ problem.x0)
    return max(eps_tilde, _FLOAT_GAP_REL * scale)


def approx_dual_oracle(
    problem: ProjectionProblem,
    lam: Array,
    eps_tilde: float,
    counters: dict | None = None,
    stop_on_certificate: bool = False,
) -> OracleTriple:
    """Solve ``min_x L(x, lam)`` to ``eps_tilde`` and package (x_lam, g, v).

    The inner solve starts cold at ``x0`` with the AGD budget
    ``agd_iterations(2, beta, 1, eps_eff)``, which doubles until the
    certificate ``||grad L||^2 <= 4 eps_eff`` holds; ``eps_eff`` is
    ``eps_tilde`` (0 allowed) clamped to the float floor.  With
    ``stop_on_certificate`` every AGD round returns the first momentum point
    that passes, and that point is ``x_lam``; without it each round runs its
    whole budget and the certificate is tested at its last iterate.  The
    budget is the cap either way.  ``counters['gradient_evals']`` counts the
    gradient calls made, when supplied.
    """
    gradient = lagrangian_gradient_fn(problem, lam)
    lam = np.asarray(lam, dtype=float)
    if not eps_tilde >= 0:
        raise ContractViolation("eps_tilde must be nonnegative")

    eps_eff = effective_eps_tilde(problem, eps_tilde)
    beta = 2.0 + float(np.sum(lam)) * problem.max_smoothness()
    objective = SmoothObjective(gradient=gradient, alpha=2.0, beta=beta)

    evals = 0
    x = np.array(problem.x0)
    grad = objective.gradient(x)
    evals += 1
    grad_sq = float(grad @ grad)

    if grad_sq > 4.0 * eps_eff:
        budget = agd_iterations(2.0, beta, 1.0, eps_eff)
        tol_sq = 4.0 * eps_eff if stop_on_certificate else -math.inf
        for _ in range(_MAX_DOUBLING_ROUNDS):
            # grad is the gradient at x: AGD's first step reuses it.
            y, grad_y, calls = agd_minimize(objective, x, budget, grad, tol_sq)
            evals += calls
            if grad_y is None:
                grad_y = objective.gradient(y)
                evals += 1
            grad_y_sq = float(grad_y @ grad_y)
            # Stalled progress against the previous round means float64
            # stagnation: no further budget can help.
            stalled = grad_y_sq > 0.5 * grad_sq
            if grad_y_sq < grad_sq:
                x, grad, grad_sq = y, grad_y, grad_y_sq
            if grad_sq <= 4.0 * eps_eff or stalled:
                break
            budget *= 2

    if counters is not None:
        counters["gradient_evals"] = counters.get("gradient_evals", 0) + evals

    # v is model.lagrangian_value's arithmetic on the same g: each constraint
    # is evaluated once.
    g = eval_constraints(problem, x)
    d = x - problem.x0
    v = float(d @ d + lam @ g)
    return OracleTriple(x_lambda=x, g=g, v=v)
