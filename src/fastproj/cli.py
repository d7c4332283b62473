"""Command-line front end: instance generation, solving, verification,
dimension-sweep benchmarking and trace export.

Exit codes: 0 success, 1 input error, 2 accuracy failure.  A reader that
closes the output pipe early (say ``| head``) ends the command with exit
code 1 and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .model import (
    ContractViolation,
    ProjectionProblem,
    SolverConfig,
    _json_numbers,
    factored_quadratic_constraint,
    problem_from_json,
    problem_to_json,
    quadratic_constraint,
    quadratic_problem,
)
from .norm_duality import DualBallProjector, project_norm_ball_via_dual
from .projector import bound_R_quadratic, bound_R_single, project
from .reference import (
    GridSpec,
    brute_force_dual_grid,
    project_l1_ball,
    project_l2_ball,
    project_linf_box,
)

# Factored instances use this many Householder reflectors for the random
# orthogonal factor; evaluation then costs O(n * reflectors) per constraint,
# which keeps large-n solves linear in the dimension.
DEFAULT_REFLECTORS = 56


@dataclass
class BenchRecord:
    n: int
    m: int
    eps: float
    wall_time_seconds: float
    outer_iterations: int
    inner_gradient_evals: int
    objective: float
    max_violation: float
    seed: int


def _unit_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    # Eigenvalues in [0.05, 1] with the top one pinned to 1 so the spectral
    # norm is exactly 1; the floor keeps the sublevel sets bounded.
    vals = rng.uniform(0.05, 1.0, size=n)
    vals[int(rng.integers(n))] = 1.0
    return vals


def _random_center(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    return u * rng.uniform(0.0, 0.4)


def random_quadratic_instance(
    n: int,
    m: int,
    seed: int,
    factored: bool = False,
    ball: bool = False,
) -> ProjectionProblem:
    """Random projection instance with unit-spectral-norm PD quadratics.

    Centers are drawn near the origin so their mean is strictly feasible,
    and the query point is placed 1 to 3 units outside the feasible set
    along a random ray.  ``factored=True`` keeps the matrices in factored
    form (O(n) evaluation, used for large-n benchmarking); otherwise they
    are materialized densely (the serializable form).  ``ball=True`` forces
    the analytic unit-ball instance A=I, center=0, c=1.
    """
    if n < 1 or m < 1:
        raise ContractViolation("need n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)

    if ball:
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        offset = rng.uniform(1.0, 3.0)
        x0 = (1.0 + offset) * u
        quads = [quadratic_constraint(np.eye(n), np.zeros(n), 1.0)]
        R = bound_R_single(Q=2.0, B=offset + 0.5)
        return quadratic_problem(x0, quads, R)

    quads = []
    centers = []
    levels = []
    sigma_mins = []
    for _ in range(m):
        spectrum = _unit_spectrum(rng, n)
        center = _random_center(rng, n)
        level = rng.uniform(1.0, 2.0)
        centers.append(center)
        levels.append(level)
        sigma_mins.append(float(np.min(spectrum)))
        if factored:
            V = rng.standard_normal((n, DEFAULT_REFLECTORS))
            quads.append(factored_quadratic_constraint(spectrum, V, center, level))
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = (Q * spectrum) @ Q.T
            A = 0.5 * (A + A.T)
            quads.append(quadratic_constraint(A, center, level))

    anchor = np.mean(centers, axis=0)  # strictly feasible by construction
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    # First exit of the ray anchor + t u from the feasible set.  The set is
    # convex and holds the anchor strictly, so every point of the ray past
    # that exit is exterior.
    t_exit = np.inf
    for q in quads:
        if q.A is not None:
            Au = q.A @ u
        else:
            Au = 0.5 * q.grad(anchor + u) - 0.5 * q.grad(anchor)
        a = float(u @ Au)
        b = float(q.grad(anchor) @ u)
        c0 = float(q.eval(anchor))
        disc = b * b - 4.0 * a * c0
        t_exit = min(t_exit, (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a))
    x0 = anchor + (t_exit + rng.uniform(1.0, 3.0)) * u

    X_star = max(np.linalg.norm(c) for c in centers) + max(
        math.sqrt(lv / sm) for lv, sm in zip(levels, sigma_mins)
    )
    R = bound_R_quadratic(np.array(levels), B=4.0, X_star=X_star)
    return quadratic_problem(x0, quads, R)


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _load_problem(path: str) -> ProjectionProblem:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ContractViolation(f"cannot read instance file: {err}") from err
    try:
        return problem_from_json(text)
    except json.JSONDecodeError as err:
        raise ContractViolation(f"instance file is not valid JSON: {err}") from err


def _config_from_args(args, max_outer: int | None = None) -> SolverConfig:
    kwargs = dict(
        epsilon=args.eps,
        epsilon_tilde_override=getattr(args, "eps_tilde", None),
        max_doubling_rounds=getattr(args, "max_doubles", 0),
    )
    if max_outer is not None:
        kwargs["max_outer_iterations"] = max_outer
    return SolverConfig(**kwargs)


def cmd_gen(args) -> int:
    problem = random_quadratic_instance(args.n, args.m, args.seed, ball=args.ball)
    _write_or_print(problem_to_json(problem), args.out)
    return 0


def cmd_solve(args) -> int:
    problem = _load_problem(args.instance)
    if args.R is not None:
        problem = replace(problem, R=args.R)
    result = project(problem, _config_from_args(args))
    _write_or_print(result.to_json(), args.out)
    # certified implies max_violation <= eps and proves the objective bound.
    return 0 if result.certified else 2


def cmd_verify(args) -> int:
    problem = _load_problem(args.instance)
    if problem.m > 2:
        raise ContractViolation("verify supports at most two constraints")
    config = _config_from_args(args, max_outer=args.max_outer)
    result = project(problem, config)
    x_ref, lam_ref, dual_ref = brute_force_dual_grid(
        problem, GridSpec(resolution=args.grid_resolution)
    )
    oracle_objective = float(np.sum((x_ref - problem.x0) ** 2))
    obj_ok = result.objective <= oracle_objective + 6.0 * args.eps
    vio_ok = result.max_violation <= args.eps
    print(f"solver objective:  {result.objective:.10g}")
    print(f"oracle objective:  {oracle_objective:.10g}  (lambda_ref {np.array2string(lam_ref)})")
    print(f"objective gap:     {result.objective - oracle_objective:.3e}  (allowed {6.0 * args.eps:.3e})  {'ok' if obj_ok else 'FAIL'}")
    print(f"max violation:     {result.max_violation:.3e}  (allowed {args.eps:.3e})  {'ok' if vio_ok else 'FAIL'}")
    return 0 if (obj_ok and vio_ok) else 2


def cmd_bench(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok]
    if not n_list:
        raise ContractViolation("n-list must not be empty")
    if args.repeats < 1:
        raise ContractViolation("repeats must be at least 1")
    records: list[BenchRecord] = []
    config = SolverConfig(epsilon=args.eps, epsilon_tilde_override=args.eps_tilde)
    # Untimed warmup primes allocator and BLAS state.
    project(random_quadratic_instance(min(n_list), args.m, args.seed + 1, factored=True), config)
    # Repeats are interleaved across sizes so ambient load drifts hit every
    # size alike instead of biasing one median.
    for rep in range(args.repeats):
        for n in n_list:
            seed = args.seed + 1009 * rep + 9973 * n
            problem = random_quadratic_instance(n, args.m, seed, factored=True)
            t0 = time.perf_counter()
            result = project(problem, config)
            elapsed = time.perf_counter() - t0
            records.append(
                BenchRecord(
                    n=n,
                    m=args.m,
                    eps=args.eps,
                    wall_time_seconds=elapsed,
                    outer_iterations=len(result.trace),
                    inner_gradient_evals=result.inner_gradient_evals,
                    objective=result.objective,
                    max_violation=result.max_violation,
                    seed=seed,
                )
            )
    # Per size, the median time splits into the two headline units: inner
    # gradient evals per solve ("fewer steps") and time per eval ("cheaper
    # steps").
    medians = {}
    for n in n_list:
        runs = [r for r in records if r.n == n]
        medians[n] = float(np.median([r.wall_time_seconds for r in runs]))
        evals = float(np.median([r.inner_gradient_evals for r in runs]))
        per_eval = [
            1e6 * r.wall_time_seconds / r.inner_gradient_evals
            for r in runs
            if r.inner_gradient_evals
        ]
        us_per_eval = float(np.median(per_eval)) if per_eval else math.nan
        print(
            f"n={n:6d}  median {medians[n]:.4f}s over {args.repeats} runs"
            f"  {evals:.1f} evals per solve  {us_per_eval:.1f} us per eval"
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(BenchRecord))
    writer.writerows(astuple(r) for r in records)
    _write_or_print(buf.getvalue().rstrip("\n"), args.out)
    if len(medians) >= 2:
        xs = np.log(np.array(sorted(medians)))
        ys = np.log(np.array([medians[n] for n in sorted(medians)]))
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"fitted log-log slope of time vs n: {slope:.3f}")
    return 0


def cmd_trace(args) -> int:
    problem = _load_problem(args.instance)
    result = project(problem, _config_from_args(args))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            result.trace.write_csv(fh)
    else:
        result.trace.write_csv(sys.stdout)
    return 0


_DIRECT_PROJECTORS = {
    "l1": project_l1_ball,
    "l2": project_l2_ball,
    "linf": project_linf_box,
}
_DUAL_PROJECTORS = {"l1": project_linf_box, "l2": project_l2_ball, "linf": project_l1_ball}


def _parse_vector(text: str) -> np.ndarray:
    """Comma-separated floats, or ``@path`` to a JSON array held to the
    instance loader's rules for numbers; a finite 1-D vector."""
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                x = _json_numbers(json.load(fh), 1)
        else:
            x = np.array([float(tok) for tok in text.split(",") if tok])
    except (OSError, TypeError, ValueError) as err:
        raise ContractViolation(f"cannot parse vector: {err}") from err
    if not np.all(np.isfinite(x)):
        raise ContractViolation("x0 must be a finite 1-D vector")
    return x


def cmd_project_norm(args) -> int:
    x0 = _parse_vector(args.x0)
    if x0.size == 0:
        raise ContractViolation("x0 must not be empty")
    direct = _DIRECT_PROJECTORS[args.norm](x0)
    payload = {"norm": args.norm, "x_direct": [float(v) for v in direct]}
    code = 0
    if args.via_dual:
        # 2 max(1, ||x0||_1) provably dominates the optimal multiplier for
        # the l1/l2/linf trio, so no radius doubling is needed here
        R = args.R if args.R is not None else 2.0 * max(1.0, float(np.sum(np.abs(x0))))
        via = project_norm_ball_via_dual(
            x0, DualBallProjector(_DUAL_PROJECTORS[args.norm]), R=R, eps=args.eps
        )
        gap = float(np.linalg.norm(via - direct))
        payload["x_via_dual"] = [float(v) for v in via]
        payload["distance"] = gap
        if gap > max(1e-6, 10.0 * args.eps):
            code = 2
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastproj",
        description="Euclidean projection onto intersections of smooth convex constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random quadratic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ball", action="store_true", help="force the analytic unit-ball instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--eps-tilde", type=float, default=None)
    p.add_argument("--R", type=float, default=None, help="override the instance's multiplier bound")
    p.add_argument("--max-doubles", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solve against the dual-grid oracle")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--eps-tilde", type=float, default=None)
    p.add_argument("--grid-resolution", type=int, default=200)
    p.add_argument("--max-outer", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="dimension sweep benchmark, CSV output")
    p.add_argument("--n-list", required=True, help="comma separated dimensions")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--eps-tilde", type=float, default=None)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace", help="export the per-iteration dual trace as CSV")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--eps-tilde", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("project-norm", help="project onto a unit norm ball")
    p.add_argument("--norm", choices=["l1", "l2", "linf"], required=True)
    p.add_argument("--x0", required=True, help="comma separated floats, or @file.json")
    p.add_argument("--via-dual", action="store_true", help="use the dual-ball conversion and compare")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_project_norm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ContractViolation as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so that the
        # interpreter's final flush cannot raise again (the SIGPIPE note in
        # the Python docs for ``signal``).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
