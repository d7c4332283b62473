"""The benchmark's workloads: seeded inputs, timed set-up, one op and its check.

An op is one ``fastproj.project`` call, or one ``project_norm_ball_via_dual``
call on the norm workload.  Each workload builds a pool of instances from the
run's seed; ops cycle through the pool.  Input generation is never timed;
set-up time covers the library's public constructors (and, on the norm
workload, the caller's multiplier bound).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import fastproj
from fastproj import cli, dual_oracle, model, norm_duality, projector, reference

EPS = 1e-3
# Same reflector count as `fastproj bench`: O(n * 56) per constraint gradient.
REFLECTORS = 56
# Certificate slack of the paper's guarantee: objective within 6 eps.
CERT_FACTOR = 6.0
# Distance from the direct projector beyond which a norm-ball op fails.
NORM_TOL = 1e-6


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), k])


@dataclass
class Instance:
    """One prepared input: what the op consumes plus its timed set-up."""

    problem: object  # ProjectionProblem, or the query point on the norm workload
    setup_s: float
    norm: str | None = None  # norm workload only
    extra: dict = field(default_factory=dict)


@dataclass
class OpStats:
    grad_evals: int
    oracle_calls: int
    rounds: int = 0
    in_box_rounds: int = 0


@dataclass(frozen=True)
class SolverWorkload:
    """Quadratic constraints solved by ``fastproj.project``."""

    name: str
    n: int
    m: int
    form: str  # "wy": factored constraints; "dense-json": dense A loaded from JSON
    engine: str = "ellipsoid"
    eps_tilde: float | None = None
    pool: int = 8
    grid_checks: int = 0  # instances checked against the dual grid each run
    # m=2 only: keep instances whose projection has both constraints active.
    both_active: bool = False
    root = "projector.project"  # span name of one op in the traced run

    def config(self):
        return fastproj.SolverConfig(
            epsilon=EPS, epsilon_tilde_override=self.eps_tilde, engine=self.engine
        )

    def build(self, seed: int, k: int) -> Instance:
        rng = _rng(seed, self.name, k)
        if self.form == "wy":
            for _ in range(100):
                inst = build_wy(rng, self.n, self.m)
                if not self.both_active or has_both_active(inst):
                    del inst.extra["factors"]  # the generator's copies, not the op's input
                    return inst
            raise RuntimeError("no instance with both constraints active in 100 draws")
        return _build_dense_json(rng, self.n, self.m)

    def op(self, inst: Instance):
        return fastproj.project(inst.problem, self.config())

    def stats(self, result) -> OpStats:
        return OpStats(
            grad_evals=result.inner_gradient_evals,
            oracle_calls=result.oracle_calls,
            rounds=len(result.trace),
            in_box_rounds=int(sum(result.trace.in_box)),
        )

    def check(self, inst: Instance, result) -> str | None:
        """The a-posteriori guarantee: violation <= eps and a weak-duality
        certificate ``objective - (dual_value - eps_eff) <= 6 eps``."""
        problem = inst.problem
        if not result.max_violation <= EPS:
            return f"max_violation {result.max_violation:.3e} > eps"
        eps_tilde = self.eps_tilde
        if eps_tilde is None:
            eps_tilde = projector.default_inner_accuracy(
                EPS, problem.m, problem.R, problem.max_lipschitz()
            )
        eps_eff = dual_oracle.effective_eps_tilde(problem, eps_tilde)
        gap = result.objective - (result.dual_value - eps_eff)
        if not gap <= CERT_FACTOR * EPS:
            return f"certificate gap {gap:.3e} > 6 eps"
        return None

    def grid_check(self, inst: Instance, result) -> str | None:
        """Objective within 6 eps of the brute-force dual grid (m <= 2 only)."""
        x_ref, _, _ = reference.brute_force_dual_grid(inst.problem)
        ref = float(np.sum((x_ref - inst.problem.x0) ** 2))
        if not result.objective <= ref + CERT_FACTOR * EPS:
            return f"objective {result.objective:.6g} above grid {ref:.6g} + 6 eps"
        return None

    def traced(self, inst: Instance, tracer) -> Instance:
        """The same instance with each constraint's grad/eval wrapped in spans."""
        problem = tracer.wrap_constraints(inst.problem)
        return replace(inst, problem=problem)

    def grad_kernel(self) -> dict:
        """Computed (not measured) cost of one constraint-gradient call."""
        n, J = self.n, REFLECTORS
        if self.form == "wy":
            # Four passes over Y (two WY applies, each Y then Y^T).
            return {
                "flops": 8 * n * J + 4 * J * J,
                "bytes": 4 * n * J * 8,
                "working_set_bytes": self.m * n * J * 8,
            }
        return {"flops": 2 * n * n, "bytes": 8 * n * n, "working_set_bytes": self.m * 8 * n * n}


def _unit_spectrum(rng, n):
    # Eigenvalues in [0.05, 1] with one pinned to 1: spectral norm exactly 1.
    vals = rng.uniform(0.05, 1.0, size=n)
    vals[int(rng.integers(n))] = 1.0
    return vals


def _random_center(rng, n):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u) * rng.uniform(0.0, 0.4)


def _exterior_point(rng, quads, anchor):
    """A query point 1 to 3 units outside the feasible set along a random ray
    from the strictly feasible ``anchor`` (the same rule as ``fastproj gen``)."""
    n = anchor.size
    for _ in range(1000):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        t_exit = math.inf
        for q in quads:
            g0 = q.grad(anchor)
            a = 0.5 * float((q.grad(anchor + u) - g0) @ u)
            b = float(g0 @ u)
            c0 = float(q.eval(anchor))
            t_exit = min(t_exit, (-b + math.sqrt(max(b * b - 4.0 * a * c0, 0.0))) / (2.0 * a))
        candidate = anchor + (t_exit + rng.uniform(1.0, 3.0)) * u
        if max(float(q.eval(candidate)) for q in quads) > 0.0:
            return candidate
    raise RuntimeError("could not sample an exterior query point")


def build_wy(rng, n, m) -> Instance:
    spectra = [_unit_spectrum(rng, n) for _ in range(m)]
    centers = [_random_center(rng, n) for _ in range(m)]
    levels = [float(rng.uniform(1.0, 2.0)) for _ in range(m)]
    reflectors = [rng.standard_normal((n, REFLECTORS)) for _ in range(m)]

    t0 = time.perf_counter()
    quads = [
        model.factored_quadratic_constraint(s, V, c, lv)
        for s, V, c, lv in zip(spectra, reflectors, centers, levels)
    ]
    setup = time.perf_counter() - t0

    x0 = _exterior_point(rng, quads, np.mean(centers, axis=0))
    x_star = max(np.linalg.norm(c) for c in centers) + max(
        math.sqrt(lv / float(np.min(s))) for lv, s in zip(levels, spectra)
    )
    R = fastproj.bound_R_quadratic(np.array(levels), B=4.0, X_star=x_star)

    t0 = time.perf_counter()
    problem = model.quadratic_problem(x0, quads, R)
    setup += time.perf_counter() - t0
    factors = (spectra, reflectors, centers, levels)
    return Instance(problem=problem, setup_s=setup, extra={"factors": factors})


def project_onto_one(x0, spectrum, reflectors, center, level):
    """Exact projection onto ``{x : (x-c)^T A (x-c) <= level}`` for
    ``A = Q diag(spectrum) Q^T``, Q the product of the Householder reflections
    of the columns of ``reflectors``: a scalar root-find in Q's eigenbasis."""
    V = reflectors / np.linalg.norm(reflectors, axis=0)

    def reflect(y, order):
        for j in order:
            y = y - 2.0 * V[:, j] * (V[:, j] @ y)
        return y

    z = reflect(x0 - center, range(V.shape[1]))  # Q^T (x0 - c)

    def excess(lam):
        return float(np.sum(spectrum * (z / (1.0 + lam * spectrum)) ** 2)) - level

    if excess(0.0) <= 0.0:
        return np.array(x0, dtype=float)
    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return center + reflect(z / (1.0 + hi * spectrum), reversed(range(V.shape[1])))


def has_both_active(inst: Instance) -> bool:
    """For m=2: the projection onto either constraint alone violates the other,
    so the projection onto their intersection has both active."""
    problem = inst.problem
    (s0, s1), (v0, v1), (c0, c1), (l0, l1) = inst.extra["factors"]
    p0 = project_onto_one(problem.x0, s0, v0, c0, l0)
    p1 = project_onto_one(problem.x0, s1, v1, c1, l1)
    h1, h0 = problem.constraints[1].eval, problem.constraints[0].eval
    return float(h1(p0)) > 0.0 and float(h0(p1)) > 0.0


def _build_dense_json(rng, n, m) -> Instance:
    # Untimed preparation: a dense instance serialized as `fastproj gen` does.
    seed = int(rng.integers(2**31))
    doc = model.problem_to_json(cli.random_quadratic_instance(n, m, seed))
    t0 = time.perf_counter()
    problem = model.problem_from_json(doc)
    return Instance(problem=problem, setup_s=time.perf_counter() - t0)


# (norm, projector onto the dual-norm unit ball, direct projector)
NORMS = (
    ("l1", reference.project_linf_box, reference.project_l1_ball),
    ("l2", reference.project_l2_ball, reference.project_l2_ball),
    ("linf", reference.project_l1_ball, reference.project_linf_box),
)
_SETUP_REPEATS = 5


class CountingProjector:
    """Dual-ball projector that counts its calls (one per dual-derivative
    evaluation of the conversion's exact oracle)."""

    def __init__(self, project):
        self.project = project
        self.calls = 0

    def __call__(self, y):
        self.calls += 1
        return self.project(y)


@dataclass(frozen=True)
class NormWorkload:
    """Norm-ball projection through the dual-ball projector, rotating l1, l2
    and linf so op i uses ``NORMS[i % 3]``."""

    name: str
    n: int
    eps: float = 1e-8
    scale: float = 3.0
    pool: int = 30  # a multiple of 3 keeps every query with one norm
    grid_checks: int = 0
    root = "norm_duality.project"

    def build(self, seed: int, k: int) -> Instance:
        rng = _rng(seed, self.name, k)
        x0 = self.scale * rng.standard_normal(self.n)
        norm, dual_project, direct = NORMS[k % 3]
        # Set-up is what the caller does before the call: build the projector
        # and bound the multiplier.  The constructor alone takes under a
        # microsecond, too little to time steadily; the median of a few
        # repeats keeps one page-faulting allocation from setting the figure.
        times = []
        for _ in range(_SETUP_REPEATS):
            t0 = time.perf_counter()
            norm_duality.DualBallProjector(dual_project)
            # 2 max(1, ||x0||_1) dominates the optimal multiplier for l1/l2/linf.
            R = 2.0 * max(1.0, float(np.sum(np.abs(x0))))
            times.append(time.perf_counter() - t0)
        setup = float(np.median(times))
        return Instance(
            problem=x0,
            setup_s=setup,
            norm=norm,
            extra={"R": R, "dual_project": dual_project, "direct": direct},
        )

    def op(self, inst: Instance):
        counter = CountingProjector(inst.extra["dual_project"])
        x = fastproj.project_norm_ball_via_dual(
            inst.problem, norm_duality.DualBallProjector(counter), R=inst.extra["R"], eps=self.eps
        )
        return x, counter.calls

    def stats(self, result) -> OpStats:
        # The conversion has no inner solver: each projector call yields one
        # exact dual-derivative evaluation, counted as its gradient eval.
        _, calls = result
        return OpStats(grad_evals=calls, oracle_calls=calls)

    def check(self, inst: Instance, result) -> str | None:
        x, _ = result
        dist = float(np.linalg.norm(x - inst.extra["direct"](inst.problem)))
        if not dist <= NORM_TOL:
            return f"{inst.norm}: {dist:.3e} from the direct projector"
        return None

    def traced(self, inst: Instance, tracer) -> Instance:
        extra = dict(inst.extra)
        extra["dual_project"] = tracer.wrap("reference.dual_ball", extra["dual_project"])
        return replace(inst, extra=extra)

    def grad_kernel(self) -> dict:
        return {"flops": 0, "bytes": 0, "working_set_bytes": 0}


# Runnable, but left out of BENCHMARK.json: the library fails this workload's
# check (its conversion lands up to ~1e-5 from the direct projector on
# 3*N(0,1) queries at n=100000), so its runs print "correct": false.
KNOWN_FAILING = ("norm-100k",)

WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            name="wy-4096-m2",
            n=4096,
            m=2,
            form="wy",
            pool=16,
            both_active=True,
        ),
        SolverWorkload(
            name="wy-512-m3-practical",
            n=512,
            m=3,
            form="wy",
            eps_tilde=5e-4,
            # More instances than a 30 s run has ops (~125): with 80, the
            # instances seen twice swayed the median op, whose spread across
            # seeds reached 0.19.
            pool=200,
        ),
        SolverWorkload(
            name="dense-json-512-m1",
            n=512,
            m=1,
            form="dense-json",
            engine="bisection",
            pool=12,
            grid_checks=1,
        ),
        NormWorkload(
            name="norm-100k",
            n=100_000,
        ),
    )
}
