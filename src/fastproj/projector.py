"""Fast projection: cutting planes on the dual fed by inner solves.

``project`` maximizes the Lagrangian dual over the multiplier box
``[0, R]^m`` with ``cutting_plane_maximize``, whose oracle, one approximate
minimization of the Lagrangian in the primal, yields the primal point, dual
gradient and dual value together; the primal solution is the oracle's point
at the dual point the engine returns.  Each solve's inner solves are one
``dual_oracle.InnerSolves``, which fixes their stop, counts their gradient
calls and gives the m = 1 search and the m = 2 polygon the dual's
curvature at lam = 0.  They run AGD from x0, at m = 2 from the start
gradient that the curvature's constraint gradients at x0 give for free,
except on a problem whose one constraint is a quadratic: there every
query of a solve reads its point off the object's one Lanczos basis and is
proven on the products that basis stores, so the basis's products are the
solve's only gradient calls.
``cutting_plane.round_budget`` gives the number of rounds, for every
engine.  With the guaranteed inner-accuracy schedule the output ``x_hat``
satisfies, against every feasible x,

    ||x_hat - x0||^2 <= ||x - x0||^2 + 6 eps      and      h_i(x_hat) <= eps.

The first query is lam = 0, where x0 itself solves the inner problem, so an
interior x0 is returned unchanged after one constraint evaluation, or on a
Lanczos basis after its first product, which also gives the m = 1 search
the dual's curvature at lam = 0.  The search stops as soon as a queried
point passes ``certified``, the weak-duality test that already proves the
tighter bound ``||x_hat - x0||^2 <= ||x - x0||^2 + eps + eps_eff``: the
m = 1 search and the m = 2 polygon test it at every query, the m >= 3
ellipsoid only at lam = 0.  Every result reports the test at its own
answer as ``ProjectionResult.certified``.

When the multiplier bound R is unknown, ``SolverConfig.max_doubling_rounds``
lets ``project`` restart with a doubled R while the answer's multipliers sit
on the boundary of the box.  The result's counts then total every round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .cutting_plane import CutTrace, DualBox, cutting_plane_maximize, round_budget
from .dual_oracle import InnerSolves, OracleTriple, approx_dual_oracle
from .model import (
    Array,
    ContractViolation,
    ProjectionProblem,
    SolverConfig,
)

# project doubles R while any multiplier of the answer reaches this fraction
# of R.
_BOUNDARY_FRACTION = 0.9


@dataclass
class ProjectionResult:
    x_hat: Array
    lambda_bar: Array
    objective: float
    max_violation: float
    dual_value: float
    oracle_calls: int
    inner_gradient_evals: int
    doubling_rounds_used: int
    trace: CutTrace
    # ``certified`` at the returned triple; not part of ``to_json``.
    certified: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_hat": [float(v) for v in self.x_hat],
                "lambda_bar": [float(v) for v in self.lambda_bar],
                "objective": self.objective,
                "max_violation": self.max_violation,
                "dual_value": self.dual_value,
                "oracle_calls": self.oracle_calls,
                "doubling_rounds": self.doubling_rounds_used,
            },
            indent=2,
        )


def bound_R_single(Q: float, B: float) -> float:
    """Multiplier bound 2B/Q for one constraint whose boundary gradient norm
    is at least Q, clamped below at 1.  Q and B must be positive and
    finite: an infinite Q would read R = 1, and an infinite B R = inf."""
    if not (0 < Q < math.inf and 0 < B < math.inf):
        raise ContractViolation("Q and B must be positive and finite")
    return max(1.0, 2.0 * B / Q)


def bound_R_quadratic(c: Array, B: float, X_star: float) -> float:
    """Multiplier bound ``max_i B X* / c_i`` for quadratic constraints with
    positive levels c_i, clamped below at 1.  A NaN would lose every
    comparison in the clamp, so non-finite inputs are refused, as is an
    empty level array, which has no maximum."""
    c = np.asarray(c, dtype=float)
    if c.size == 0:
        raise ContractViolation("at least one level c_i is required")
    if not (np.isfinite(c).all() and math.isfinite(B) and math.isfinite(X_star)):
        raise ContractViolation("the levels, B and X_star must be finite")
    if np.any(c <= 0):
        raise ContractViolation("all levels c_i must be positive")
    return max(1.0, float(np.max(B * X_star / c)))


def certified(lam: Array, triple: OracleTriple, eps: float) -> bool:
    """Weak-duality certificate of the triple at ``lam``: ``max h(x_lam) <= eps``
    and ``-lam . h(x_lam) <= eps``.

    When it holds, ``x_lam`` violates no constraint by more than eps, and
    ``||x_lam - x0||^2 = v - lam . h(x_lam) <= d(lam) + eps_eff + eps``,
    which is at most ``OPT + eps + eps_eff`` since ``d(lam) <= OPT``.
    """
    g = triple.g
    return float(g.max()) <= eps and -float(lam @ g) <= eps


def default_inner_accuracy(eps: float, m: int, R: float, G: float) -> float:
    """The guaranteed inner-accuracy schedule ``eps^4 / (256 (m R G)^6)``, at most
    eps, taken in logarithms: it cannot overflow, on underflow reads 0, and at
    G = 0 reads eps."""
    log_mRG = math.log(m * R * G) if G > 0.0 else -math.inf
    log_schedule = 4.0 * math.log(eps) - math.log(256.0) - 6.0 * log_mRG
    return math.exp(min(log_schedule, math.log(eps)))


def project(problem: ProjectionProblem, config: SolverConfig) -> ProjectionResult:
    """Compute an eps-approximate projection of ``problem.x0``.

    Each solve builds its own ``InnerSolves``, with a Lanczos basis when the
    one constraint is a quadratic, and every AGD inner solve starts cold at
    ``x0``; at m = 2 its start gradient is read off the constraint gradients
    at x0 that the curvature took.  The answer is the engine's own triple at
    ``lambda_bar``; no inner solve is repeated, so without doubling
    ``oracle_calls`` is the number of in-box rounds.  The result's
    ``certified`` says whether that triple passes the ``certified`` duality
    test, which proves its guarantee a posteriori.

    While a multiplier of the answer is at or above 0.9 R, the solve is
    repeated on a copy of ``problem`` with R doubled, at most
    ``config.max_doubling_rounds`` times (0, the default, means one solve);
    ``doubling_rounds_used`` counts the repeats.  ``oracle_calls`` and
    ``inner_gradient_evals`` total the work of every round, while ``trace``
    holds only the final round.  An answer still at the boundary when the
    budget runs out is returned with ``trace.boundary_hit`` set.
    """
    rounds = calls = evals = 0
    while True:
        result = _solve(problem, config)
        calls += result.oracle_calls
        evals += result.inner_gradient_evals
        if np.all(result.lambda_bar < _BOUNDARY_FRACTION * problem.R):
            break
        if rounds >= config.max_doubling_rounds:
            result.trace.boundary_hit = True
            break
        problem = replace(problem, R=2.0 * problem.R)
        rounds += 1
    result.doubling_rounds_used = rounds
    result.oracle_calls, result.inner_gradient_evals = calls, evals
    return result


def _solve(problem: ProjectionProblem, config: SolverConfig) -> ProjectionResult:
    m, R = problem.m, problem.R
    if config.engine == "bisection" and m > 1:
        raise ContractViolation("bisection engine requires m = 1")
    eps = config.epsilon
    G = problem.max_lipschitz()

    eps_tilde = config.epsilon_tilde_override
    if eps_tilde is None:
        eps_tilde = default_inner_accuracy(eps, m, R, G)

    # The lam = 0 query is one of the capped rounds.
    T = round_budget(m, R, eps, G, config.max_outer_iterations - 1)
    solves = InnerSolves(problem, eps_tilde)
    final, lam_bar, trace = cutting_plane_maximize(
        oracle=lambda lam: approx_dual_oracle(solves, lam),
        box=DualBox(R=R, m=m),
        T=T,
        stop=lambda lam, triple: certified(lam, triple, eps),
        curvature=solves.curvature,
    )

    x_hat = final.x_lambda
    return ProjectionResult(
        x_hat=x_hat,
        lambda_bar=np.array(lam_bar),
        objective=float(np.sum((x_hat - problem.x0) ** 2)),
        max_violation=float(final.g.max()),
        dual_value=final.v,
        oracle_calls=sum(trace.in_box),
        inner_gradient_evals=solves.gradient_evals,
        doubling_rounds_used=0,
        trace=trace,
        certified=certified(lam_bar, final, eps),
    )
