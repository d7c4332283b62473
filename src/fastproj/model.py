"""Problem data: constraint oracles, projection instances, Lagrangian helpers.

A projection instance asks for the Euclidean projection of a query point
``x0`` onto the set ``{x : h_i(x) <= 0, i = 1..m}`` described by smooth
convex constraint oracles.  Everything here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class NumericalFailure(RuntimeError):
    """A computation lost numerical validity (non-finite values, PD loss)."""

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


def _readonly(a) -> Array:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ConstraintOracle:
    """One smooth convex constraint ``h(x) <= 0``.

    ``eval`` maps a point of shape ``(n,)`` to the constraint value and
    ``grad`` to its gradient.  ``lipschitz_G`` bounds ``|h(x) - h(y)| /
    ||x - y||`` on the declared working region and ``smoothness_L`` bounds
    the gradient's Lipschitz constant everywhere.
    """

    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    lipschitz_G: float
    smoothness_L: float

    def __post_init__(self):
        if not (0 <= self.lipschitz_G < np.inf and 0 <= self.smoothness_L < np.inf):
            raise ContractViolation("Lipschitz and smoothness bounds must be finite and nonnegative")


# eq=False keeps the base oracle's equality and hash, which never touch arrays.
@dataclass(frozen=True, eq=False)
class QuadraticConstraint(ConstraintOracle):
    """``(x - center)^T A (x - center) - c <= 0`` with A symmetric PSD.

    ``A`` is held either dense or as the compact WY triple ``wy = (Y, T, D2)``
    with ``A = Q diag(D2 / 2) Q^T`` and ``Q = I - Y T Y^T``; exactly one of
    the two is set.  ``spectral_norm`` is A's largest eigenvalue and
    ``sigma_min`` its smallest, floored at 1e-12.  ``eval`` and ``grad`` are
    closures that ``quadratic_constraint`` and
    ``factored_quadratic_constraint`` build from the same data;
    ``dataclasses.replace`` does not rebuild them.
    """

    center: Array
    c: float
    spectral_norm: float
    sigma_min: float
    A: Array | None = None
    wy: tuple[Array, Array, Array] | None = None

    def __post_init__(self):
        super().__post_init__()
        if (self.A is None) == (self.wy is None):
            raise ContractViolation("a quadratic holds exactly one of A and wy")

    def to_dense(self) -> Array:
        """The matrix A, materialized from the WY triple when held factored."""
        if self.A is not None:
            return self.A
        Y, T, D2 = self.wy
        Q = np.eye(Y.shape[0]) - Y @ T @ Y.T
        return Q @ np.diag(0.5 * D2) @ Q.T


@dataclass(frozen=True)
class ProjectionProblem:
    """Finite query point, constraint system and finite multiplier box radius R >= 1."""

    x0: Array
    constraints: tuple[ConstraintOracle, ...]
    R: float

    def __post_init__(self):
        object.__setattr__(self, "x0", _readonly(self.x0))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.x0.ndim != 1 or self.x0.size < 1 or not np.all(np.isfinite(self.x0)):
            raise ContractViolation("x0 must be a nonempty finite 1-D vector")
        if len(self.constraints) < 1:
            raise ContractViolation("at least one constraint is required")
        if not 1.0 <= self.R < np.inf:
            raise ContractViolation("R must be finite and satisfy R >= 1")

    @property
    def n(self) -> int:
        return self.x0.size

    @property
    def m(self) -> int:
        return len(self.constraints)

    def max_lipschitz(self) -> float:
        return max(c.lipschitz_G for c in self.constraints)

    def max_smoothness(self) -> float:
        return max(c.smoothness_L for c in self.constraints)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the projection solver.

    ``epsilon`` is the target accuracy.  When ``epsilon_tilde_override`` is
    absent the inner accuracy follows the guaranteed schedule
    ``eps**4 / (256 (m R G)**6)``, which in practice is clamped to the float
    floor ``1e-13 (1 + ||x0||^2)``; the override, at most eps, exposes the
    practical regime (e.g. ``500 * eps**2``, for eps <= 2e-3 only).
    ``engine`` selects nothing: the number of constraints picks the dual
    engine, so ``"ellipsoid"`` and ``"bisection"`` both run the 1-D search
    at m = 1, and ``"bisection"`` is refused at m >= 2.  The field goes once
    the benchmark stops passing it.  ``max_outer_iterations`` caps the
    rounds of the dual engine, the lam = 0 query included.
    ``max_doubling_rounds`` is how many times ``project`` may double R while
    the answer sits on the box boundary; 0 means one solve.
    """

    epsilon: float
    epsilon_tilde_override: float | None = None
    engine: str = "ellipsoid"
    max_outer_iterations: int = 600
    max_doubling_rounds: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ContractViolation("epsilon must be positive and finite")
        if self.epsilon_tilde_override is not None:
            if not 0 < self.epsilon_tilde_override <= self.epsilon:
                raise ContractViolation("epsilon_tilde_override must lie in (0, epsilon]")
        if self.engine not in ("ellipsoid", "bisection"):
            raise ContractViolation(f"unknown engine {self.engine!r}")
        counts = (self.max_outer_iterations, self.max_doubling_rounds)
        if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in counts):
            raise ContractViolation("max_outer_iterations and max_doubling_rounds must be integers")
        if self.max_outer_iterations < 1:
            raise ContractViolation("max_outer_iterations must be positive")
        if self.max_doubling_rounds < 0:
            raise ContractViolation("max_doubling_rounds must be nonnegative")


def eval_constraints(problem: ProjectionProblem, x: Array) -> Array:
    """Stack the m constraint values at ``x`` into one vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ContractViolation(f"point has shape {x.shape}, expected ({problem.n},)")
    return np.array([float(c.eval(x)) for c in problem.constraints])


def lagrangian_value(problem: ProjectionProblem, x: Array, lam: Array) -> float:
    """``||x - x0||^2 + lam . h(x)`` for finite, elementwise-nonnegative ``lam``."""
    lam = _check_multipliers(problem, lam)
    d = np.asarray(x, dtype=float) - problem.x0
    return float(d @ d + lam @ eval_constraints(problem, x))


def lagrangian_gradient_fn(problem: ProjectionProblem, lam: Array) -> Callable[[Array], Array]:
    """``x -> 2(x - x0) + sum_i lam_i grad h_i(x)``, the gradient in x of the
    Lagrangian at fixed ``lam``.

    ``lam`` is checked here, once; the returned function runs every inner
    step, so it takes points of shape ``(n,)`` unchecked and skips the
    constraints whose multiplier is zero.
    """
    return _lagrangian_gradient_fn(problem, _check_multipliers(problem, lam))


def _lagrangian_gradient_fn(problem: ProjectionProblem, lam: Array) -> Callable[[Array], Array]:
    """``lagrangian_gradient_fn`` for a ``lam`` that ``_check_multipliers``
    has already returned."""
    x0 = problem.x0
    weighted = [(float(li), c.grad) for li, c in zip(lam, problem.constraints) if li != 0.0]

    def gradient(x):
        g = x - x0
        g *= 2.0
        for li, grad in weighted:
            g += li * grad(x)
        return g

    return gradient


def lagrangian_gradient(problem: ProjectionProblem, x: Array, lam: Array) -> Array:
    """Gradient in x of the Lagrangian at one point, with ``x`` and ``lam`` checked."""
    gradient = lagrangian_gradient_fn(problem, lam)
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ContractViolation(f"point has shape {x.shape}, expected ({problem.n},)")
    return gradient(x)


def _check_multipliers(problem: ProjectionProblem, lam) -> Array:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.m,):
        raise ContractViolation(f"lambda has shape {lam.shape}, expected ({problem.m},)")
    # One Python pass over the few multipliers costs less than two array
    # reductions on every oracle call; NaN fails the comparison.
    if not all(0.0 <= v < math.inf for v in lam.tolist()):
        raise ContractViolation("lambda must be finite and elementwise nonnegative")
    return lam


def quadratic_constraint(A: Array, center: Array, c: float) -> QuadraticConstraint:
    """Oracle for ``(x - center)^T A (x - center) - c <= 0`` with A symmetric PSD.

    The Lipschitz bound is region dependent for quadratics; it is attached
    for a radius covering the constraint's own sublevel set.
    ``quadratic_problem`` replaces it with the instance-wide bound.  A, the
    center and the level must be finite.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation("A must be square")
    n = A.shape[0]
    if not (np.all(np.isfinite(A)) and np.allclose(A, A.T, rtol=1e-10, atol=1e-12)):
        raise ContractViolation("A must be finite and symmetric")
    A = _readonly(0.5 * (A + A.T))
    center = _readonly(center)
    if center.shape != (n,):
        raise ContractViolation("center must have the same dimension as A")
    # One eigendecomposition gives the PSD test, the spectral norm and
    # sigma_min.  The jitter admits PSD matrices whose zero eigenvalues
    # round slightly negative; a NaN spectrum fails the test.
    scale = max(1.0, float(np.max(np.abs(np.diag(A)))))
    eigs = np.linalg.eigvalsh(A)
    if not eigs[0] >= -1e-12 * scale:
        raise ContractViolation("A must be positive semidefinite")
    spectral = float(max(eigs[-1], -eigs[0]))
    sigma_min = max(float(eigs[0]), 1e-12)

    # d.dot(A) goes to BLAS, as d @ A does (A is 2-D, so the two agree on
    # every shape of d), but dispatches a vector-matrix product faster; a
    # three-operand einsum would not use BLAS at all.
    def _eval(x, A=A, center=center, c=c):
        d = np.asarray(x, dtype=float) - center
        return np.einsum("...i,...i->...", d.dot(A), d) - c

    def _grad(x, A=A, center=center):
        g = (np.asarray(x, dtype=float) - center).dot(A)
        g *= 2.0
        return g

    return _quadratic(_eval, _grad, center, c, spectral, sigma_min, A=A)


def factored_quadratic_constraint(
    eigenvalues: Array, reflectors: Array, center: Array, c: float
) -> QuadraticConstraint:
    """Quadratic constraint with ``A = Q diag(eigenvalues) Q^T`` kept factored.

    ``Q = H_1 ... H_J`` with ``H_j = I - 2 y_j y_j^T``, ``y_j`` the normalized
    columns of ``reflectors``, is kept in compact WY form ``Q = I - Y T Y^T``,
    so evaluating the constraint costs O(n * J) instead of O(n^2).  One Gram
    product ``G = V^T V`` of the reflectors, O(n J^2) in one BLAS-3 call,
    builds it: the column norms are ``sqrt(diag(G))`` and T is the J x J
    triangular inverse ``(I/2 + strict_upper(Y^T Y))^-1`` (the UT transform
    of Puglisi 1992 and Joffrain et al. 2006).  Every input must be finite.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    center = _readonly(center)
    n = center.size
    if eigenvalues.shape != (n,) or not np.all((eigenvalues >= 0) & (eigenvalues < np.inf)):
        raise ContractViolation("eigenvalues must be a finite nonnegative vector of length n")
    V = np.asarray(reflectors, dtype=float)
    if V.ndim != 2 or V.shape[0] != n:
        raise ContractViolation("reflectors must have shape (n, J)")
    G = V.T @ V
    norms = np.sqrt(np.diag(G))
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise ContractViolation("reflector columns must be nonzero and finite")
    Y = V / norms
    Y.setflags(write=False)
    T = np.linalg.inv(0.5 * np.eye(V.shape[1]) + np.triu(G, 1) / np.outer(norms, norms))
    T.setflags(write=False)
    # Only 2 D is kept: the gradient scales by it, and halving is exact.
    D2 = _readonly(2.0 * eigenvalues)

    # The gradient runs once per inner step, so its fixed cost is kept low:
    # ``ndarray.dot`` dispatches faster than ``@``, the subtractions and the
    # scaling act in place on a fresh array, and the applies are inlined.
    # Rows of u are right-multiplied by Q (u - u Y T Y^T) or Q^T (with T^T).
    def _eval(x, center=center, D2=D2, Y=Y, T=T, Yt=Y.T, c=c):
        u = x - center
        u -= u.dot(Y).dot(T).dot(Yt)
        return 0.5 * np.einsum("...i,...i->...", u, u * D2) - c

    def _grad(x, center=center, D2=D2, Y=Y, T=T, Yt=Y.T, Tt=T.T):
        u = x - center
        u -= u.dot(Y).dot(T).dot(Yt)
        u *= D2
        u -= u.dot(Y).dot(Tt).dot(Yt)
        return u

    spectral = float(np.max(eigenvalues))
    sigma_min = max(float(np.min(eigenvalues)), 1e-12)
    return _quadratic(_eval, _grad, center, c, spectral, sigma_min, wy=(Y, T, D2))


def _quadratic(eval_, grad, center, c, spectral, sigma_min, **matrix) -> QuadraticConstraint:
    if not (np.all(np.isfinite(center)) and 0 < c < np.inf):
        raise ContractViolation("the center must be finite and the level c positive and finite")
    # The Lipschitz bound holds on a radius covering the constraint's own
    # sublevel set.
    radius = float(np.linalg.norm(center) + np.sqrt(c / sigma_min) + 1.0)
    return QuadraticConstraint(
        eval=eval_,
        grad=grad,
        lipschitz_G=2.0 * spectral * radius,
        smoothness_L=2.0 * spectral,
        center=center,
        c=float(c),
        spectral_norm=spectral,
        sigma_min=sigma_min,
        **matrix,
    )


def quadratic_working_radius(x0: Array, quadratics: Sequence[QuadraticConstraint]) -> float:
    """Instance-wide working radius: ``||x0|| + max ||center|| + max radius + 1``."""
    x0 = np.asarray(x0, dtype=float)
    centers = [np.linalg.norm(q.center) for q in quadratics]
    radii = [np.sqrt(q.c / q.sigma_min) for q in quadratics]
    return float(np.linalg.norm(x0) + max(centers) + max(radii) + 1.0)


def quadratic_problem(
    x0: Array, quadratics: Sequence[QuadraticConstraint], R: float
) -> ProjectionProblem:
    """Assemble a problem from quadratic oracles, fixing their Lipschitz bounds
    to the instance-wide working radius (which needs x0 and all constraints).
    The oracles' ``eval``/``grad`` are reused as they are.  An empty list, or
    a quadratic whose center does not have x0's shape, raises
    ``ContractViolation``."""
    x0 = np.asarray(x0, dtype=float)
    if not quadratics:
        raise ContractViolation("at least one constraint is required")
    if any(q.center.shape != x0.shape for q in quadratics):
        raise ContractViolation("every quadratic's center must have the shape of x0")
    rho = quadratic_working_radius(x0, quadratics)
    return ProjectionProblem(
        x0=x0,
        constraints=tuple(
            replace(q, lipschitz_G=2.0 * q.spectral_norm * rho) for q in quadratics
        ),
        R=R,
    )


def problem_to_json(problem: ProjectionProblem) -> str:
    """Serialize an instance whose constraints are quadratics to the canonical
    JSON document (dense row-major A).

    ``tolist`` yields the same Python floats as ``float()`` per entry, and
    ``json.dump`` writes the encoder's chunks as they come instead of joining
    a list of them, so the bytes are those of ``json.dumps(doc, indent=2)``.
    """
    cons = []
    for c in problem.constraints:
        if not isinstance(c, QuadraticConstraint):
            raise ContractViolation("only quadratic constraints serialize to JSON")
        cons.append(
            {
                "type": "quadratic",
                "A": c.to_dense().tolist(),
                "center": c.center.tolist(),
                "c": float(c.c),
            }
        )
    doc = {
        "n": problem.n,
        "m": problem.m,
        "x0": problem.x0.tolist(),
        "R": float(problem.R),
        "constraints": cons,
    }
    out = io.StringIO()
    json.dump(doc, out, indent=2)
    return out.getvalue()


def _json_numbers(value, ndim: int) -> Array:
    """Parsed JSON numbers nested ``ndim`` lists deep, as a float array.
    ``float()`` and ``np.asarray`` alone would accept numeric strings and
    booleans, so the parsed values' types are checked first."""
    entries = [value]
    for _ in range(ndim):
        if not all(type(v) is list for v in entries):
            raise TypeError(f"expected numbers nested {ndim} lists deep")
        entries = list(chain.from_iterable(entries))
    if not {int, float}.issuperset(map(type, entries)):
        raise TypeError("expected JSON numbers")
    return np.asarray(value, dtype=float)


def problem_from_json(text: str) -> ProjectionProblem:
    """Parse the document ``problem_to_json`` writes.  A missing or malformed
    field, a size that is not a JSON integer, a string or boolean where a
    number belongs, a constraint entry that is not a quadratic object and a
    non-finite number each raise ``ContractViolation``."""
    doc = json.loads(text)
    try:
        x0 = _json_numbers(doc["x0"], 1)
        R = float(_json_numbers(doc["R"], 0))
        n, m = doc["n"], doc["m"]
        if type(n) is not int or type(m) is not int:  # not isinstance: bool is an int
            raise TypeError(f"n and m must be JSON integers, got {n!r} and {m!r}")
        raw = list(doc["constraints"])
        if not all(isinstance(e, dict) and e.get("type") == "quadratic" for e in raw):
            raise TypeError("every constraint must be an object of type 'quadratic'")
        As = [_json_numbers(e["A"], 2) for e in raw]
        centers = [_json_numbers(e["center"], 1) for e in raw]
        cs = [float(_json_numbers(e["c"], 0)) for e in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ContractViolation(f"malformed instance document: {err!r}") from err
    if x0.shape != (n,) or len(raw) != m:
        raise ContractViolation("instance dimensions are inconsistent")
    quads = [quadratic_constraint(A, center, c) for A, center, c in zip(As, centers, cs)]
    return quadratic_problem(x0, quads, R)
