"""Independent reference solutions used to verify the main solver.

Includes the classical analytic norm-ball projectors, the closed form for
projecting onto a Euclidean ball, and a brute-force grid search over the
dual box.  The grid search rests on strong duality: the primal minimizer of
the Lagrangian at the dual maximizer is the projection, and for one or two
constraints the dual box is small enough to sweep exhaustively.  Quadratic
grids are exact: with one constraint the dual is evaluated in A's eigenbasis
(one ``eigh`` for a dense A, none for a WY factor, O(n) per grid point); with
two, each grid point solves its stationarity system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_oracle import approx_dual_oracle
from .model import Array, ContractViolation, ProjectionProblem, QuadraticConstraint


def project_l2_ball(x0: Array) -> Array:
    """Euclidean projection onto the unit l2 ball: radial rescaling."""
    x0 = np.asarray(x0, dtype=float)
    norm = float(np.linalg.norm(x0))
    return x0.copy() if norm <= 1.0 else x0 / norm


def project_linf_box(x0: Array) -> Array:
    """Euclidean projection onto the unit linf ball: componentwise clip."""
    return np.clip(np.asarray(x0, dtype=float), -1.0, 1.0)


def project_l1_ball(x0: Array) -> Array:
    """Euclidean projection onto the unit l1 ball by sort and soft threshold."""
    x0 = np.asarray(x0, dtype=float)
    if np.sum(np.abs(x0)) <= 1.0:
        return x0.copy()
    mags = np.sort(np.abs(x0))[::-1]
    cumulative = np.cumsum(mags) - 1.0
    counts = np.arange(1, x0.size + 1)
    rho = int(np.nonzero(mags * counts > cumulative)[0][-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.sign(x0) * np.maximum(np.abs(x0) - theta, 0.0)


def ball_projection_closed_form(
    x0: Array, center: Array, radius: float
) -> tuple[Array, float]:
    """Projection onto ``{x : ||x - center||^2 <= radius^2}`` and the exact
    multiplier of that squared-norm constraint.

    For an exterior point, stationarity ``2(x* - x0) + 2 lam (x* - center) = 0``
    gives ``lam* = (||x0 - center|| - radius) / radius``.
    """
    x0 = np.asarray(x0, dtype=float)
    center = np.asarray(center, dtype=float)
    dist = float(np.linalg.norm(x0 - center))
    if dist <= radius:
        return x0.copy(), 0.0
    x_star = center + radius * (x0 - center) / dist
    return x_star, (dist - radius) / radius


@dataclass(frozen=True)
class GridSpec:
    """Dual-grid density and the inner accuracy of each grid solve."""

    resolution: int = 200
    eps_ref: float = 1e-10

    def __post_init__(self):
        if self.resolution < 2:
            raise ContractViolation("resolution must be at least 2")
        if not self.eps_ref > 0:
            raise ContractViolation("eps_ref must be positive")


def _eigenbasis_dual_fn(q: QuadraticConstraint, x0: Array):
    """Exact dual values and minimizers of the one-constraint problem, from
    A = Q diag(s) Q^T.

    With ``z = Q^T (x0 - center)`` the stationarity system
    ``(I + lam A) x = x0 + lam A center`` is diagonal: ``x = center + Q y``
    with ``y = z / (1 + lam s)``.  Then ``x - x0 = -lam Q (s y)``, so
    ``d(lam) = ||lam s y||^2 + lam (s . y^2 - c)``, the secular function of
    Moré and Sorensen.  Vectors are rows: ``u Q`` maps into the eigenbasis
    and ``w Q^T`` back.
    """
    u = x0 - q.center
    if q.A is not None:
        s, V = np.linalg.eigh(q.A)
        z = u @ V

        def back(w):
            return w @ V.T
    else:
        Y, T, D2 = q.wy
        s = 0.5 * D2
        z = u - u @ Y @ T @ Y.T

        def back(w):
            return w - w @ Y @ T.T @ Y.T

    def evaluate(lams: Array) -> tuple[Array, Array]:
        lam = lams[:, :1]
        y = z / (1.0 + lam * s)
        vals = np.sum((lam * s * y) ** 2, axis=1) + lam[:, 0] * ((y * y) @ s - q.c)
        return vals, q.center + back(y)

    return evaluate


def _dual_values_quadratic(problem, quad, lams: Array) -> tuple[Array, Array]:
    # For two quadratics the inner minimizer solves the stationarity system
    # (I + sum_i lam_i A_i) x = x0 + sum_i lam_i A_i c_i exactly, which is
    # both faster and independent of the iterative inner solver.
    mats, centers, levels = quad
    x0 = problem.x0
    n, m = problem.n, problem.m
    K = lams.shape[0]
    vals = np.empty(K)
    xs = np.empty((K, n))
    mat_center = [A @ c for A, c in zip(mats, centers)]
    eye = np.eye(n)
    chunk = max(1, (1 << 22) // (n * n))  # ~32 MB of stacked systems at a time
    for start in range(0, K, chunk):
        sl = slice(start, min(K, start + chunk))
        lam_c = lams[sl]
        systems = np.broadcast_to(eye, (lam_c.shape[0], n, n)).copy()
        rhs = np.broadcast_to(x0, (lam_c.shape[0], n)).copy()
        for i in range(m):
            systems += lam_c[:, i, None, None] * mats[i]
            rhs += lam_c[:, i, None] * mat_center[i]
        X = np.linalg.solve(systems, rhs[..., None])[..., 0]
        v = np.sum((X - x0) ** 2, axis=1)
        for i in range(m):
            d = X - centers[i]
            v += lam_c[:, i] * (np.einsum("ki,ij,kj->k", d, mats[i], d) - levels[i])
        vals[sl] = v
        xs[sl] = X
    return vals, xs


def _dual_values_generic(problem, lams: Array, eps_ref: float) -> tuple[Array, Array]:
    vals = np.empty(lams.shape[0])
    xs = np.empty((lams.shape[0], problem.n))
    for i, lam in enumerate(lams):
        triple = approx_dual_oracle(problem, lam, eps_ref)
        vals[i] = triple.v
        xs[i] = triple.x_lambda
    return vals, xs


def brute_force_dual_grid(
    problem: ProjectionProblem,
    spec: GridSpec = GridSpec(),
    pass_values: list | None = None,
) -> tuple[Array, Array, float]:
    """Exhaustive dual-box search returning ``(x_ref, lambda_ref, dual_value)``.

    Sweeps a full ``resolution**m`` grid over ``[0, R]^m``, then refines twice
    around the best point with grids one coarse pitch wide.  Quadratic
    constraints are evaluated exactly: one constraint in A's eigenbasis (one
    ``eigh`` for a dense A, none for a WY factor, O(n) per grid point), two
    by solving each grid point's stationarity system.  Other oracles fall
    back to high-accuracy iterative solves.  ``pass_values``, when given,
    collects the best dual value after each pass (nondecreasing by
    construction).
    """
    if problem.m > 2:
        raise ContractViolation("the dual grid search supports m <= 2")
    R = problem.R
    cons = problem.constraints
    if not all(isinstance(c, QuadraticConstraint) for c in cons):
        def evaluate(lams):
            return _dual_values_generic(problem, lams, spec.eps_ref)
    elif problem.m == 1:
        evaluate = _eigenbasis_dual_fn(cons[0], problem.x0)
    else:
        quad = [c.to_dense() for c in cons], [c.center for c in cons], [c.c for c in cons]

        def evaluate(lams):
            return _dual_values_quadratic(problem, quad, lams)

    lo = np.zeros(problem.m)
    hi = np.full(problem.m, R)
    best_v, best_lam, best_x = -np.inf, None, None
    for _ in range(3):  # full sweep plus two refinements
        axes = [np.linspace(lo[i], hi[i], spec.resolution) for i in range(problem.m)]
        if problem.m == 1:
            lams = axes[0][:, None]
        else:
            grid = np.meshgrid(*axes, indexing="ij")
            lams = np.stack([g.ravel() for g in grid], axis=-1)
        vals, xs = evaluate(lams)
        idx = int(np.argmax(vals))  # first maximum keeps ties deterministic
        if vals[idx] > best_v:
            best_v, best_lam, best_x = float(vals[idx]), lams[idx].copy(), xs[idx].copy()
        if pass_values is not None:
            pass_values.append(best_v)
        pitch = (hi - lo) / (spec.resolution - 1)
        lo = np.maximum(0.0, best_lam - pitch)
        hi = np.minimum(R, best_lam + pitch)
    return best_x, best_lam, best_v
