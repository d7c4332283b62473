"""Accelerated gradient descent for smooth strongly convex minimization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import Array, ContractViolation, NumericalFailure


@dataclass(frozen=True)
class SmoothObjective:
    """An alpha-strongly-convex, beta-smooth function given by its gradient
    oracle; ``agd_minimize`` never evaluates the function itself."""

    gradient: Callable[[Array], Array]
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.beta >= self.alpha > 0):
            raise ContractViolation("need beta >= alpha > 0")


class AGDRun(NamedTuple):
    """Where ``agd_minimize`` stopped: the returned point, the gradient
    there, and the gradient calls made."""

    point: Array
    gradient: Array
    gradient_calls: int


def agd_minimize(
    objective: SmoothObjective,
    x_init: Array,
    iterations: int,
    g_init: Array | None = None,
    tol_sq: float = -math.inf,
) -> AGDRun:
    """Run up to ``iterations`` momentum steps.

    Update per step: ``y+ = x - grad(x)/beta`` followed by the momentum
    combination ``x+ = (1 + gamma) y+ - gamma y`` with
    ``gamma = (sqrt(kappa) - 1)/(sqrt(kappa) + 1)``, ``kappa = beta/alpha``.
    No line search, restarts or adaptivity.  ``g_init``, the gradient at
    ``x_init`` when the caller already has it, replaces the first gradient
    call (read only).

    The run returns the first momentum point x whose gradient g, already
    checked finite, has ``g . g <= tol_sq``, with that g.  The default never
    fires: then all steps run and the last y iterate is returned with its
    gradient, checked the same way; ``iterations`` calls are made with
    ``g_init``, ``iterations + 1`` without.
    """
    if iterations < 1:
        raise ContractViolation("iterations must be >= 1")
    beta = objective.beta
    kappa = beta / objective.alpha
    sq = math.sqrt(kappa)
    gamma = (sq - 1.0) / (sq + 1.0)
    seeded = g_init is not None

    x = np.array(x_init, dtype=float)
    y = x.copy()
    for k in range(iterations + 1):
        if k == iterations:
            x = y  # the budget is spent: the run ends on the last y iterate
        g = g_init if k == 0 and seeded else objective.gradient(x)
        gg = g.dot(g)
        # Any inf or nan entry makes g.g non-finite, so the elementwise test
        # runs only then; it clears a finite g whose square overflows.
        if not math.isfinite(gg) and not np.isfinite(g).all():
            raise NumericalFailure("non-finite gradient during AGD", payload=x)
        if gg <= tol_sq or k == iterations:
            return AGDRun(x, g, k + 1 - seeded)
        y_next = x - g / beta
        # x+ = y+ + gamma (y+ - y), built in y's buffer: y is not needed
        # after this step and was never handed to the gradient oracle.
        np.subtract(y_next, y, out=y)
        y *= gamma
        y += y_next
        x, y = y, y_next


def agd_iterations(alpha: float, beta: float, dist_sq_bound: float, eps_tilde: float) -> int:
    """Iteration budget ``ceil(sqrt(beta/alpha) * ln(beta * dist_sq / eps))``, at least 1."""
    if not (alpha > 0 and beta >= alpha and dist_sq_bound > 0 and eps_tilde > 0):
        raise ContractViolation("all inputs must be positive with beta >= alpha")
    ratio = beta * dist_sq_bound / eps_tilde
    if ratio <= 1.0:
        return 1
    return max(1, math.ceil(math.sqrt(beta / alpha) * math.log(ratio)))
