"""Approximate gradient/value/primal-solution oracles for the dual function.

The dual of the projection problem is ``d(lam) = min_x L(x, lam)`` with
``L(x, lam) = ||x - x0||^2 + lam . h(x)``.  Minimizing L to accuracy
``eps_tilde`` yields a primal point ``x_lam`` whose constraint vector is an
approximate dual gradient and whose Lagrangian value approximates d(lam):

    ||x_lam - x*_lam||^2 <= eps_tilde
    |v - d(lam)|         <= eps_tilde
    ||g - grad d(lam)||  <= sqrt(m G^2 eps_tilde)

The inner minimization is 2-strongly convex and (2 + ||lam||_1 L)-smooth.
Optimality at the requested accuracy is certified through strong
convexity: the value gap is at most ``||grad L||^2 / 4``, so a point with
``||grad L||^2 <= 4 eps_tilde`` is accurate enough.

Two inner solvers produce that point.  A problem whose one constraint is a
``QuadraticConstraint`` ``(x - c)^T A (x - c) - level`` has the inner
solution ``x = c + u`` with ``(I + lam A) u = x0 - c``, whose Krylov space
``K(A, x0 - c)`` does not depend on lam.  One Lanczos basis of it per
projection, held by that projection's ``InnerSolves``, is grown on demand
and shared by every query (the shift invariance GLTR uses for the
trust-region subproblem: Gould, Lucidi, Roma & Toint, SIAM J. Optim.
1999).  Its products are its only gradient calls: a query's certificate is
tested on the gradient at its point summed from the stored products, and
the ``lam = 0`` query and the dual's curvature there come from the first.

Every other problem, and a query the basis cannot serve within
``_MAX_BASIS_VECTORS``, runs accelerated gradient descent, which converges
at a linear rate (Nesterov, *Introductory Lectures on Convex
Optimization*, 2004, 2.1-2.2).  At x0 the Lagrangian gradient is
``sum_i lam_i grad h_i(x0) = lam . J``, with J the constraint gradients
there, so ``InnerSolves`` takes J once per projection, on first use, and
every AGD start from x0, at every m, reads its gradient off it.  A query
makes one AGD run, which returns its first iterate below a
stop threshold that ``InnerSolves`` sets once per projection.  The run is
capped at the step count that this rate proves enough to bring the start's
own gradient down to that threshold.  The certificate is tested on the
constraint gradients that AGD computes at the returned point.

The threshold is the accuracy the outer method needs (Devolder, Glineur &
Nesterov, Math. Program. 2014).  At m = 1 it is ``eps_tilde``.  At m = 2
it is a value gap of ``eps^2 / 10``, so the dual-gradient error
``sqrt(m G^2 eps_tilde)`` stays a fixed fraction of the eps at which the
polygon tests ``certified``.  At m >= 3 it is the float floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agd import SmoothObjective, agd_iterations, agd_minimize
from .model import (
    Array,
    ContractViolation,
    NumericalFailure,
    ProjectionProblem,
    QuadraticConstraint,
    _check_multipliers,
    _lagrangian_gradient_fn,
    eval_constraints,
)

# Value gaps below roughly 1e-13 times the problem scale are not resolvable
# in float64; requested accuracies below that are clamped, and at m >= 3
# AGD runs stop there whatever the accuracy.  The clamped accuracy still
# certifies iterates far tighter than any end-to-end tolerance.
_FLOAT_GAP_REL = 1e-13

# At m = 2 the inner solves stop at the value gap ``_M2_GAP_PER_EPS_SQ eps^2``
# (at least the float floor), far inside the ``eps_eff <= 5 eps`` that
# ``certified`` needs to prove 6 eps.  Measured margin on 64 of the
# benchmark's wy-4096-m2 instances (n = 4096, eps = 1e-3): gaps of 10 eps^2
# and 100 eps^2 stayed certified but took 7 % and 22 % more oracle calls
# than eps^2 / 10, which was certified on all of 486 solves (n = 40 to
# 4096, eps = 1e-2 to 1e-4).
_M2_GAP_PER_EPS_SQ = 0.1

# A Lanczos basis holds at most this many vectors, about the memory of one
# 56-column WY factor; a query that needs more continues with AGD.
_MAX_BASIS_VECTORS = 64

# A Lanczos residual at most this fraction of A's spectral norm means the
# Krylov space is invariant: the basis stops growing.
_BREAKDOWN_REL = 1e-14


@dataclass(frozen=True)
class OracleTriple:
    """Approximate primal minimizer with its dual gradient/value estimates.

    ``v`` and ``g`` are recomputed from ``x_lambda``: ``v = ||x_lambda -
    x0||^2 + lam . g``, and ``g`` is the constraint vector at ``x_lambda``,
    evaluated by each constraint's ``eval``, or on the Krylov path read off
    the quadratic's gradient there as ``(x - c) . grad h(x) / 2 - level``
    (at x0, ``rho^2 alpha_0 - level``), which agrees with ``eval`` to
    rounding.
    """

    x_lambda: Array
    g: Array
    v: float


def float_floor(problem: ProjectionProblem) -> float:
    """The float64 resolution floor ``_FLOAT_GAP_REL (1 + ||x0||^2)`` of a
    value gap."""
    return _FLOAT_GAP_REL * (1.0 + float(problem.x0 @ problem.x0))


def effective_eps_tilde(problem: ProjectionProblem, eps_tilde: float) -> float:
    """Requested inner accuracy clamped at the float64 resolution floor."""
    return max(eps_tilde, float_floor(problem))


class LanczosBasis:
    """Lanczos basis of ``K(A, x0 - c)`` for one quadratic constraint
    ``(x - c)^T A (x - c) - level``, grown on demand and shared by the inner
    solves at every multiplier.

    After k products the rows of ``V[:k]`` are orthonormal and
    ``A V_k^T = V_k^T T_k + beta_k v_{k+1} e_k^T`` with T_k tridiagonal
    (``alpha`` on its diagonal, ``beta`` off it).  Each product
    ``P_i = grad(c + v_i) = 2 A v_i`` goes through the constraint's own
    ``grad``, counts as one gradient evaluation, is kept in ``P[:k]`` and is
    orthogonalized once against every stored vector (classical Gram-Schmidt,
    which subsumes the three-term recurrence).  The basis stops growing when
    ``beta_k`` falls to ``_BREAKDOWN_REL`` of A's spectral norm, and at
    ``_MAX_BASIS_VECTORS`` products.  ``products`` counts the products
    taken; nothing else the basis does calls the constraint.

    The first product, ``2 A v_0`` with ``v_0 = (x0 - c) / rho``, answers
    the ``lam = 0`` query (``origin``) and gives the dual's curvature there
    (``curvature``).
    """

    def __init__(self, quad: QuadraticConstraint, x0: Array):
        self._grad = quad.grad
        self._center = quad.center
        self._level = quad.c
        self._x0 = x0
        self._breakdown = _BREAKDOWN_REL * quad.spectral_norm
        r0 = x0 - quad.center
        self._rho = math.sqrt(float(r0.dot(r0)))
        self._V = np.empty((_MAX_BASIS_VECTORS, x0.size))
        self._P = np.empty_like(self._V)  # row i holds the product 2 A v_i
        self._alpha: list[float] = []
        self._beta: list[float] = []
        # Whether the next product may be taken: x0 = c needs none.
        self._open = self._rho > 0.0
        if self._open:
            np.multiply(r0, 1.0 / self._rho, out=self._V[0])

    @property
    def products(self) -> int:
        """The products ``2 A v_i`` taken so far."""
        return len(self._alpha)

    def origin(self) -> OracleTriple:
        """The triple at ``lam = 0``: ``(copy of x0, h(x0), 0)`` with
        ``h(x0) = rho^2 alpha_0 - level``, read off the first product, which
        this takes unless it is taken already or x0 = c (then ``h = -level``).
        """
        if self._open and not self._alpha:
            self._extend()
        quad = self._rho * self._rho * self._alpha[0] if self._alpha else 0.0
        return OracleTriple(x_lambda=self._x0.copy(), g=np.array([quad - self._level]), v=0.0)

    def curvature(self) -> float:
        """``-d''(0) = ||grad h(x0)||^2 / 2 = rho^2 ||P_0||^2 / 2``, exact: x0
        solves the inner problem at ``lam = 0``, where the Lagrangian's
        Hessian is 2I.  Read off the first product, which ``origin`` takes;
        0 when x0 = c, which takes none."""
        if not self._alpha:
            return 0.0
        p0 = self._P[0]
        return 0.5 * self._rho * self._rho * float(p0.dot(p0))

    def _extend(self) -> None:
        """One product ``A v_k``: stores ``2 A v_k`` in ``P[k]``, appends
        ``alpha_k`` and ``beta_k`` and, while the basis may still grow,
        stores ``v_{k+1}``."""
        k = len(self._alpha)
        V = self._V
        point = self._center + V[k]
        product = self._grad(point)  # 2 A v_k
        self._P[k] = product
        basis = V[: k + 1]
        coef = basis.dot(product)
        w = coef.dot(basis)
        np.subtract(product, w, out=w)
        ww = float(w.dot(w))
        alpha = 0.5 * float(coef[k])
        if not (math.isfinite(alpha) and math.isfinite(ww)):
            raise NumericalFailure("non-finite constraint gradient in the Lanczos basis", payload=point)
        norm = math.sqrt(ww)
        beta = 0.5 * norm
        self._alpha.append(alpha)
        self._beta.append(beta)
        self._open = beta > self._breakdown and k + 1 < _MAX_BASIS_VECTORS
        if self._open:
            np.multiply(w, 1.0 / norm, out=V[k + 1])

    def solve(self, lam: float, tol_sq: float) -> tuple[OracleTriple, Array, float]:
        """The Krylov iterate's triple at ``lam > 0``, with the Lagrangian
        gradient there and its squared norm: ``(triple, grad L, ||grad
        L||^2)``.

        The iterate is ``x = c + V_k^T y`` with ``(I + lam T_k) y = rho e1``,
        ``rho = ||x0 - c||``: the Galerkin solution of
        ``(I + lam A)(x - c) = x0 - c``.  Its Lagrangian gradient is
        ``-2 lam beta_k y_k v_{k+1}``, so the residual estimate
        ``lam beta_k |y_k|`` is the last step of the tridiagonal elimination,
        O(1) per added row.  The basis grows while
        ``4 (lam beta_k y_k)^2 > tol_sq``; then x is formed and the
        certificate ``||grad L(x)||^2 <= tol_sq`` is tested on the
        constraint's gradient at x, assembled from the stored products as
        ``grad h(x) = 2 A V_k^T y = y . P[:k]``.  ``grad`` is affine, so the
        sum is the gradient at x to rounding whatever the orthogonality of
        V and the accuracy of T_k, the two things the test exists to catch.
        A failed test quarters the estimate's target and grows the basis
        further.  When the basis cannot grow, the iterate is returned
        whatever its gradient, for the caller to continue from.
        """
        alpha, beta = self._alpha, self._beta
        # Forward elimination of (I + lam T_k) y = rho e1, one row at a time:
        # pivot ratios c_i and eliminated right-hand sides z_i, so that
        # y_{k-1} = z_{k-1}; e is lam beta_{i-1}.
        cs: list[float] = []
        zs: list[float] = []
        rhs, z, e, c = self._rho, 0.0, 0.0, 0.0
        est_sq = rhs * rhs  # (lam beta_k y_k)^2; with no rows, all of x0 - c
        target_sq = 0.25 * tol_sq
        i = 0
        while True:
            if i == len(alpha):
                if est_sq <= target_sq or not self._open:
                    result = self._iterate(lam, cs, zs)
                    if result[2] <= tol_sq or not self._open:
                        return result
                    # Rounding kept the gradient above the estimate.
                    target_sq = 0.0625 * min(target_sq, est_sq)
                self._extend()
            p = 1.0 + lam * alpha[i] - e * c
            z = (rhs - e * z) / p
            rhs = 0.0
            e = lam * beta[i]
            c = e / p
            cs.append(c)
            zs.append(z)
            est_sq = (e * z) ** 2
            i += 1

    def _iterate(self, lam: float, cs: list[float], zs: list[float]):
        # Back substitution y_i = z_i - c_i y_{i+1}, then u = V_k^T y.
        k = len(zs)
        y = np.empty(k)
        yi = 0.0
        for i in range(k - 1, -1, -1):
            yi = zs[i] - cs[i] * yi
            y[i] = yi
        u = y.dot(self._V[:k])
        grad_h = y.dot(self._P[:k])  # grad h(x) = 2 A u
        x = u + self._center
        d = x - self._x0
        grad_l = lam * grad_h
        grad_l += d
        grad_l += d
        grad_sq = float(grad_l.dot(grad_l))
        if not math.isfinite(grad_sq):
            raise NumericalFailure("non-finite constraint gradient at the Krylov iterate", payload=x)
        # h(x) = u . grad h(x) / 2 - level: no constraint evaluation.
        h = 0.5 * float(u.dot(grad_h)) - self._level
        triple = OracleTriple(x_lambda=x, g=np.array([h]), v=float(d.dot(d)) + lam * h)
        return triple, grad_l, grad_sq


class InnerSolves:
    """The inner solves of one projection: what every ``approx_dual_oracle``
    query of it shares.

    ``eps``, the projection's accuracy, and ``eps_tilde``, the inner
    accuracy asked for (0 allowed for both), are checked once, and the stop
    ``tol_sq`` on ``||grad L||^2`` is set once from them:

    - m = 1: the certificate ``4 eps_eff``, ``eps_eff`` being ``eps_tilde``
      clamped to the float floor;
    - m = 2: ``4 max(eps^2 / 10, float_floor(problem))`` whatever
      ``eps_tilde``, the accuracy the polygon's ``certified`` test needs;
    - m >= 3: ``4 float_floor(problem)`` whatever either accuracy.

    ``basis`` is a ``LanczosBasis`` exactly when the problem's only
    constraint is a ``QuadraticConstraint`` (dense or WY), else None; it
    holds no products yet.  ``smoothness`` is the largest constraint
    smoothness L, which sets each AGD run's ``beta``.  ``gradient_evals``
    counts the constraint gradient calls made by the queries and by
    ``curvature``, Lanczos products included.  ``jacobian`` gives J, the
    constraint gradients at x0, one per row, which the curvature without a
    basis and every AGD start from x0 read.
    """

    def __init__(self, problem: ProjectionProblem, eps: float, eps_tilde: float):
        if not 0 <= eps < math.inf:
            raise ContractViolation("eps must be nonnegative and finite")
        if not eps_tilde >= 0:
            raise ContractViolation("eps_tilde must be nonnegative")
        self.problem = problem
        if problem.m == 1:
            self.tol_sq = 4.0 * effective_eps_tilde(problem, eps_tilde)
        elif problem.m == 2:
            # The polygon tests ``certified`` at every query.
            self.tol_sq = 4.0 * max(_M2_GAP_PER_EPS_SQ * eps * eps, float_floor(problem))
        else:
            # The ellipsoid tests ``certified`` only at lam = 0, so its
            # queries stop at the finest gap float64 resolves (ROADMAP
            # item 3).
            self.tol_sq = 4.0 * float_floor(problem)
        only = problem.constraints[0]
        krylov = problem.m == 1 and isinstance(only, QuadraticConstraint)
        self.basis = LanczosBasis(only, problem.x0) if krylov else None
        self.smoothness = problem.max_smoothness()
        self._jacobian: Array | None = None
        self._evals = 0  # the gradient calls outside the basis

    @property
    def gradient_evals(self) -> int:
        """The gradient calls made so far, the basis's products included."""
        return self._evals + (0 if self.basis is None else self.basis.products)

    def jacobian(self) -> Array:
        """J, the constraint gradients at x0, one per row, taken on first use
        and kept.  Its m gradients count as one eval, like one Lagrangian
        gradient: every AGD start at x0 reads its gradient ``sum_i lam_i
        grad h_i(x0) = lam . J`` off it, exact and uncounted."""
        if self._jacobian is None:
            x0 = self.problem.x0
            self._jacobian = np.array([c.grad(x0) for c in self.problem.constraints])
            self._evals += 1
        return self._jacobian

    def curvature(self) -> float | Array:
        """The dual's curvature ``-Hess d(0) = J J^T / 2`` at ``lam = 0``,
        exact: x0 solves the inner problem there, where the Lagrangian's
        Hessian is 2I, so ``x_lam`` moves as ``-J^T lam / 2`` with J the
        constraint gradients at x0, one per row.

        With a basis it is the float ``||grad h(x0)||^2 / 2``, read off the
        product the ``lam = 0`` query took.  Without one it is ``J J^T / 2``
        on ``jacobian``'s J, at m = 1 the float of its one entry.  The m = 1
        search and the m = 2 polygon call it once, after the ``lam = 0``
        query, and so take J; the ellipsoid never does, so at m >= 3 the
        first AGD start takes it."""
        if self.basis is not None:
            return self.basis.curvature()
        J = self.jacobian()
        H = 0.5 * (J @ J.T)
        return float(H[0, 0]) if self.problem.m == 1 else H


def approx_dual_oracle(solves: InnerSolves, lam: Array) -> OracleTriple:
    """Solve ``min_x L(x, lam)`` to the stop ``solves.tol_sq`` and package
    (x_lam, g, v).

    At ``lam = 0`` x0 itself is the minimizer: the triple is ``(copy of x0,
    h(x0), 0)``, made with one constraint evaluation and no gradient call,
    or with a basis by its ``origin``, which reads h(x0) off the first
    Lanczos product.  Accuracy is proven by ``||grad L||^2 <= tol_sq``.
    ``solves.basis``, when the problem has one, serves every query at
    ``lam > 0``: ``x_lam`` is its Krylov iterate, proven on the
    constraint's gradient there summed from the stored products, which also
    gives ``g``, so the query's only gradient calls are the products it
    adds.  A query it cannot serve within its vector cap continues with AGD
    from that iterate.

    Every other query starts at ``x0``, with the Lagrangian gradient there
    read off ``solves.jacobian()`` as ``lam . J``, exact and uncounted: J
    costs one eval per projection.  A start above ``tol_sq`` makes one AGD
    run, which returns its first momentum point below it, or its last
    iterate at the cap ``agd_iterations(2, beta, ||grad L(start)||^2,
    tol_sq)``, the step count proven to reach it (see the comment at the
    call); the start is kept when the run ends with no smaller gradient.
    ``solves.gradient_evals`` counts every gradient call made.
    """
    problem, basis, tol_sq = solves.problem, solves.basis, solves.tol_sq
    lam = _check_multipliers(problem, lam)
    if not lam.any():
        if basis is None:
            return OracleTriple(problem.x0.copy(), eval_constraints(problem, problem.x0), 0.0)
        return basis.origin()
    x = None  # AGD's start, with grad and grad_sq, when the basis falls short
    if basis is not None:
        triple, grad, grad_sq = basis.solve(float(lam[0]), tol_sq)
        if grad_sq <= tol_sq:
            return triple
        x = triple.x_lambda

    gradient = _lagrangian_gradient_fn(problem, lam)
    beta = 2.0 + float(lam.sum()) * solves.smoothness
    objective = SmoothObjective(gradient=gradient, alpha=2.0, beta=beta)

    if x is None:
        x = np.array(problem.x0)
        grad = lam @ solves.jacobian()  # grad L(x0, lam): the x - x0 term is 0
        grad_sq = float(grad @ grad)
        if not math.isfinite(grad_sq):
            raise NumericalFailure("non-finite Lagrangian gradient norm at x0", payload=x)

    if grad_sq > tol_sq:
        # The cap is proven from the start's gradient g0.  The constant
        # momentum scheme has f(y_k) - f* <= (f(x) - f* + (alpha/2)||x -
        # x*||^2)(1 - 1/sqrt(kappa))^k (Nesterov 2004, 2.2), a bracket that
        # strong convexity bounds by ||g0||^2 / alpha, and smoothness gives
        # ||grad f(y)||^2 <= 2 beta (f(y) - f*).  So sqrt(kappa) ln(2 beta
        # ||g0||^2 / (alpha tol_sq)) steps reach tol_sq, which at alpha = 2
        # is this cap: a run ends on it above tol_sq only through float
        # stagnation or an inconsistent oracle.  grad is the gradient at x,
        # which AGD's first step reuses.
        cap = agd_iterations(2.0, beta, grad_sq, tol_sq)
        y, grad_y, calls = agd_minimize(objective, x, cap, grad, tol_sq)
        solves._evals += calls
        if float(grad_y @ grad_y) < grad_sq:
            x = y

    # v is model.lagrangian_value's arithmetic on the same g: each constraint
    # is evaluated once.
    g = eval_constraints(problem, x)
    d = x - problem.x0
    v = float(d @ d + lam @ g)
    return OracleTriple(x_lambda=x, g=g, v=v)
