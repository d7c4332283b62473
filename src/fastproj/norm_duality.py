"""Projection onto a norm ball through an exact projector for its dual ball.

For a norm P with dual P*, the dual function of ``min ||x - x0||^2 subject to
P(x) <= 1`` evaluates in closed form from the Euclidean projection onto the
dual unit ball: with ``y_lam = proj_{P* <= 1}(2 x0 / lam)``,

    d(lam)  = -lam + ||x0||^2 - (lam^2/4) ||y_lam - 2 x0/lam||^2
    d'(lam) = y_lam . x0 - (lam/2) ||y_lam||^2 - 1          (= P(x_lam) - 1)
    x_lam   = x0 - (lam/2) y_lam

so exact oracles are available and a one-dimensional bracketing search
(``cutting_plane.bisection_maximize``) finds the projection with
logarithmically many projector calls.  The derivative
formula follows from differentiating d at the fixed maximizer y_lam and is
validated against central finite differences of d in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cutting_plane import bisection_maximize
from .dual_oracle import OracleTriple
from .model import Array, ContractViolation


@dataclass(frozen=True)
class DualBallProjector:
    """Exact Euclidean projector onto the dual-norm unit ball {y : P*(y) <= 1}."""

    project: Callable[[Array], Array]


def exact_dual_norm_oracle(x0: Array, lam: float, pi_star: DualBallProjector) -> OracleTriple:
    """Exact dual value/derivative/primal-minimizer at ``lam > 0``.

    The returned ``g`` holds the scalar derivative as a length-1 vector.
    ``lam = 0`` is the caller's short circuit: d(0) = 0 with subgradient
    P(x0) - 1 and minimizer x0.
    """
    if not lam > 0:
        raise ContractViolation("lam must be positive")
    x0 = np.asarray(x0, dtype=float)
    z = (2.0 / lam) * x0
    y = np.asarray(pi_star.project(z), dtype=float)
    diff = y - z
    v = -lam + float(x0 @ x0) - 0.25 * lam * lam * float(diff @ diff)
    g = float(y @ x0) - 0.5 * lam * float(y @ y) - 1.0
    x_lam = x0 - 0.5 * lam * y
    return OracleTriple(x_lambda=x_lam, g=np.array([g]), v=v)


def project_norm_ball_via_dual(
    x0: Array, pi_star: DualBallProjector, R: float, eps: float
) -> Array:
    """Project x0 onto {x : P(x) <= 1} using only the dual-ball projector.

    Runs the safeguarded bisection over [0, R] with the exact oracle for
    ``T = ceil(log2(R max(1, ||x0||) / eps)) + 2`` rounds, one projector call
    each.
    The primal point of the last queried multiplier is returned: the
    oracle's derivative sign is exact, so the final bracket, at most
    ``R 2^(ITP_N0 - T)`` wide, holds the optimal multiplier, and the
    interpolated queries usually pin it to float precision much sooner.
    The best-value query is not used, because far from the ball the dual
    values of distant queries tie to float precision.  Since the dual value
    at lam = 0 is 0 and exceeds d(lam) for every lam > 0 exactly when x0 is
    already feasible, x0 itself is returned whenever no query beats it.
    When every query reads ``g > 0``, one more projector call checks
    ``g(R) <= 0``; otherwise the optimal multiplier exceeds R and a
    ``ContractViolation`` is raised.
    """
    if not (0 < R < math.inf and 0 < eps < math.inf):
        raise ContractViolation("R and eps must be positive and finite")
    x0 = np.asarray(x0, dtype=float)
    # log2(R max(1, ||x0||) / eps) as a sum, since the product may overflow.
    log2_ratio = math.log2(R) + math.log2(max(1.0, float(np.linalg.norm(x0)))) - math.log2(eps)
    T = max(1, math.ceil(log2_ratio) + 2)
    last = None

    def oracle(lam):
        nonlocal last
        last = exact_dual_norm_oracle(x0, lam, pi_star)
        return last

    _, _, trace = bisection_maximize(oracle, R, T)
    # The trace's cut w is -g.  When every query read g > 0 the bracket is
    # [lo, R], which holds the optimum only if g(R) <= 0.
    if all(w[0] < 0.0 for w in trace.w):
        if exact_dual_norm_oracle(x0, R, pi_star).g[0] > 0.0:
            raise ContractViolation("optimal multiplier exceeds R")
    if max(trace.v) <= 0.0:
        return x0.copy()
    return last.x_lambda
