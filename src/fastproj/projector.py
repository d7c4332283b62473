"""Fast projection: cutting planes on the dual fed by inner AGD solves.

``project`` maximizes the Lagrangian dual over the multiplier box with a
cutting-plane engine whose oracle, one approximate minimization of the
Lagrangian in the primal, yields the primal point, dual gradient and dual
value together; the primal solution is the oracle's point at the dual point
the engine returns.  With the guaranteed inner-accuracy schedule the output
``x_hat`` satisfies, against every feasible x,

    ||x_hat - x0||^2 <= ||x - x0||^2 + 6 eps      and      h_i(x_hat) <= eps.

The bisection engine stops as soon as a queried point passes ``certified``,
the weak-duality test that already proves the tighter bound
``||x_hat - x0||^2 <= ||x - x0||^2 + eps + eps_eff``; it is given
``ceil(log2(R G / eps)) + ITP_N0`` rounds, so that its interpolated queries
leave at worst plain bisection's final bracket.  Every result reports the
test at its own answer as ``ProjectionResult.certified``.

``project_with_R_doubling`` wraps it with the restart-on-boundary policy for
the case where the multiplier bound R is unknown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .cutting_plane import (
    ITP_N0,
    CutTrace,
    DualBox,
    central_cut_log_factor,
    cutting_plane_maximize,
    log_unit_ball_volume,
)
from .dual_oracle import OracleTriple, approx_dual_oracle
from .model import (
    Array,
    ContractViolation,
    ProjectionProblem,
    SolverConfig,
)


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
    is at least Q, clamped below at 1."""
    if not (Q > 0 and B > 0):
        raise ContractViolation("Q and B must be positive")
    return max(1.0, 2.0 * B / Q)


def bound_R_quadratic(c: Array, B: float, X_star: float) -> float:
    """Multiplier bound ``max_i B X* / c_i`` for quadratic constraints with
    positive levels c_i, clamped below at 1."""
    c = np.asarray(c, dtype=float)
    if np.any(c <= 0):
        raise ContractViolation("all levels c_i must be positive")
    return max(1.0, float(np.max(B * X_star / c)))


def r_epsilon(eps: float, m: int, G: float, H: float) -> float:
    """Radius of a multiplier box guaranteed to sit inside the eps-optimal
    dual set: ``(2m)^{-1} min(eps/H, sqrt(eps)/G)``."""
    if not 0 < eps <= 1:
        raise ContractViolation("eps must lie in (0, 1]")
    if not (G > 0 and H > 0 and m >= 1):
        raise ContractViolation("need positive G, H and m >= 1")
    return min(eps / H, math.sqrt(eps) / G) / (2.0 * m)


def _inscribed_radius(eps: float, m: int, G: float, H: float | None) -> float:
    if H is not None:
        return r_epsilon(eps, m, G, H)
    # Without H, fall back to the conservative G-only form.
    return (eps / (2.0 * m * G)) * min(1.0, 1.0 / math.sqrt(eps))


def certified(lam: Array, triple: OracleTriple, eps: float) -> bool:
    """Weak-duality certificate of the triple at ``lam``: ``max h(x_lam) <= eps``
    and ``-lam . h(x_lam) <= eps``.

    When it holds, ``x_lam`` violates no constraint by more than eps, and
    ``||x_lam - x0||^2 = v - lam . h(x_lam) <= d(lam) + eps_eff + eps``,
    which is at most ``OPT + eps + eps_eff`` since ``d(lam) <= OPT``.
    """
    g = triple.g
    return float(np.max(g)) <= eps and -float(lam @ g) <= eps


def default_inner_accuracy(eps: float, m: int, R: float, G: float) -> float:
    """The guaranteed inner-accuracy schedule ``eps^4 / (256 (m R G)^6)``."""
    return eps**4 / (256.0 * (m * R * G) ** 6)


def _ellipsoid_budget(m: int, R: float, r: float, cap: int) -> tuple[int, float]:
    """Outer round budget and the early-stop log-volume threshold."""
    stop_log_vol = m * math.log(r)
    rate = -central_cut_log_factor(m)
    t_box = 2.0 * m * (m + 1.0) * math.log(max(R / r, 1.0 + 1e-12))
    # The initial localizer is the ball circumscribing the box, so add the
    # rounds needed to shed its extra volume.
    log_vol_initial = log_unit_ball_volume(m) + m * math.log(math.sqrt(m) * R / 2.0)
    t_ball = (log_vol_initial - stop_log_vol) / rate + 1.0
    T = max(1, math.ceil(max(t_box, t_ball)))
    return min(cap, T), stop_log_vol


def project(
    problem: ProjectionProblem,
    config: SolverConfig,
    H: float | None = None,
    B: float | None = None,
) -> ProjectionResult:
    """Compute an eps-approximate projection of ``problem.x0``.

    ``H`` (a bound on ``|h_i|`` over the feasible set) and ``B`` (a bound on
    the distance from x0 to the feasible set) are optional diagnostics: H
    sharpens the outer iteration budget, B the inner one.  Neither affects
    the guarantees.

    The answer is the engine's own triple at ``lambda_bar``; no inner solve
    is repeated.  Only a warm-started triple without a ``certified``
    duality certificate is solved again, cold, at ``lambda_bar``.  The
    result's ``certified`` says whether the returned triple passes that
    test, which proves its guarantee a posteriori.
    """
    m, R = problem.m, problem.R
    eps = config.epsilon
    G = problem.max_lipschitz()

    eps_tilde = config.epsilon_tilde_override
    if eps_tilde is None:
        eps_tilde = default_inner_accuracy(eps, m, R, G)

    dist_sq_bound = None
    if B is not None:
        dist_sq_bound = 2.0 * (B * B + (m * G * R) ** 2)

    counters: dict = {}
    warm = None  # with config.warm_start, the previous call's x_lambda

    def oracle(lam: Array):
        nonlocal warm
        triple = approx_dual_oracle(
            problem,
            lam,
            eps_tilde,
            warm_start=warm,
            dist_sq_bound=dist_sq_bound,
            counters=counters,
        )
        if config.warm_start:
            warm = triple.x_lambda
        return triple

    box = DualBox(R=R, m=m)
    if config.engine == "bisection":
        # The ITP safeguard spends up to ITP_N0 extra rounds on interpolated
        # queries; with them the worst-case bracket is bisection's R 2^-T.
        T = min(
            config.max_outer_iterations,
            max(1, math.ceil(math.log2(max(R * G / eps, 2.0)))) + ITP_N0,
        )
        stop_log_vol = None
    else:
        r = _inscribed_radius(eps, m, G, H)
        T, stop_log_vol = _ellipsoid_budget(m, R, r, config.max_outer_iterations)

    final, lam_bar, trace = cutting_plane_maximize(
        oracle=oracle,
        box=box,
        engine=config.engine,
        T=T,
        early_stop_log_volume=stop_log_vol,
        stop=lambda lam, triple: certified(lam, triple, eps),
    )
    oracle_calls = sum(trace.in_box)
    if config.warm_start and not certified(lam_bar, final, eps):
        # A warm-started solve can stop at a seed that passes the inner test
        # yet lies far from x_lam; without a duality certificate, solve cold.
        final = approx_dual_oracle(
            problem, lam_bar, eps_tilde, dist_sq_bound=dist_sq_bound, counters=counters
        )
        oracle_calls += 1

    x_hat = final.x_lambda
    return ProjectionResult(
        x_hat=x_hat,
        lambda_bar=np.array(lam_bar),
        objective=float(np.sum((x_hat - problem.x0) ** 2)),
        max_violation=float(np.max(final.g)),
        dual_value=final.v,
        oracle_calls=oracle_calls,
        inner_gradient_evals=counters.get("gradient_evals", 0),
        doubling_rounds_used=0,
        trace=trace,
        certified=certified(lam_bar, final, eps),
    )


def project_with_R_doubling(
    problem: ProjectionProblem,
    config: SolverConfig,
    H: float | None = None,
    B: float | None = None,
) -> ProjectionResult:
    """Run ``project``, doubling R whenever the dual solution converges to the
    boundary of the multiplier box, up to ``config.max_doubling_rounds``."""
    R = problem.R
    rounds = 0
    while True:
        result = project(replace(problem, R=R), config, H=H, B=B)
        if np.all(result.lambda_bar < config.boundary_fraction * R):
            return replace(result, doubling_rounds_used=rounds)
        if rounds >= config.max_doubling_rounds:
            # Budget exhausted with the dual still pinned to the boundary:
            # return best effort and let the caller decide.
            result.trace.boundary_hit = True
            return replace(result, doubling_rounds_used=rounds)
        R *= 2.0
        rounds += 1
