"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj.cli import main, random_quadratic_instance
from fastproj.cutting_plane import (
    DualBox,
    EllipsoidState,
    central_cut_log_factor,
    cutting_plane_maximize,
    ellipsoid_update,
    log_unit_ball_volume,
)
from fastproj.dual_oracle import InnerSolves, OracleTriple, approx_dual_oracle
from fastproj.model import ConstraintOracle, SolverConfig
from fastproj.norm_duality import DualBallProjector, project_norm_ball_via_dual
from fastproj.projector import project
from fastproj.reference import (
    GridSpec,
    ball_projection_closed_form,
    brute_force_dual_grid,
    project_l1_ball,
    project_l2_ball,
    project_linf_box,
)

from conftest import (
    ball_dual_gradient,
    ball_dual_value,
    ball_primal_minimizer,
    unit_ball_problem,
)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_analytic_projection_equivalence():
    eps = 1e-4
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 10, 100):
        for _ in range(20):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            x0 = u * rng.uniform(1.2, 4.0)
            prob = unit_ball_problem(x0)
            res = project(prob, SolverConfig(epsilon=eps))
            x_star, _ = ball_projection_closed_form(x0, np.zeros(n), 1.0)
            obj_star = float(np.sum((x_star - x0) ** 2))
            assert abs(res.objective - obj_star) <= 6.0 * eps
            assert res.max_violation <= eps
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"{checked} ball projections within 6*eps of closed form in {elapsed:.2f}s")


def test_criterion_2_dual_grid_equivalence():
    eps = 1e-3
    t0 = time.perf_counter()
    for seed in range(20):
        prob = random_quadratic_instance(20, 2, seed=seed)
        res = project(prob, SolverConfig(epsilon=eps))
        x_ref, _, _ = brute_force_dual_grid(prob, GridSpec(resolution=200))
        oracle_obj = float(np.sum((x_ref - prob.x0) ** 2))
        assert res.objective <= oracle_obj + 6.0 * eps, f"seed {seed}"
        assert res.max_violation <= eps, f"seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(2, f"20 seeds within 6*eps of the resolution-200 dual grid in {elapsed:.1f}s")


def test_criterion_3_oracle_accuracy():
    rng = np.random.default_rng(103)
    violations = 0
    pairs = 0
    while pairs < 50:
        n = int(rng.integers(2, 8))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        x0 = u * rng.uniform(1.2, 3.5)
        ball = unit_ball_problem(x0)
        quad = ball.constraints[0]
        plain = ConstraintOracle(quad.eval, quad.grad, quad.lipschitz_G, quad.smoothness_L)
        G = ball.max_lipschitz()
        lam = float(rng.uniform(0.0, ball.R))
        eps_tilde = float(10.0 ** rng.uniform(-10, -4))
        x_star = ball_primal_minimizer(x0, lam)
        # the Krylov path, and AGD on the same ball as a plain constraint
        for prob in (ball, replace(ball, constraints=(plain,))):
            triple = approx_dual_oracle(InnerSolves(prob, 0.0, eps_tilde), np.array([lam]))
            if float(np.sum((triple.x_lambda - x_star) ** 2)) > eps_tilde:
                violations += 1
            if abs(triple.v - ball_dual_value(x0, lam)) > eps_tilde:
                violations += 1
            if abs(triple.g[0] - ball_dual_gradient(x0, lam)) > math.sqrt(G * G * eps_tilde):
                violations += 1
        pairs += 1
    assert violations == 0
    report(3, "50 (lambda, eps~) pairs meet all three oracle accuracy bounds on both inner solvers")


def test_criterion_4_dual_gradient_and_smoothness():
    prob = random_quadratic_instance(20, 2, seed=7)
    rng = np.random.default_rng(104)
    G = prob.max_lipschitz()
    m = prob.m
    eps_ref = 1e-12
    step = 1e-4
    solves = InnerSolves(prob, 0.0, eps_ref)
    grads = []
    lams = []
    for _ in range(50):
        lam = rng.uniform(0.0, prob.R, 2)
        triple = approx_dual_oracle(solves, lam)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd[i] = (
                approx_dual_oracle(solves, lam + e).v
                - approx_dual_oracle(solves, np.maximum(lam - e, 0.0)).v
            ) / (step + min(lam[i], step))
        rel = np.linalg.norm(triple.g - fd) / max(1.0, np.linalg.norm(fd))
        assert rel <= 1e-4, f"relative FD error {rel:.2e}"
        grads.append(triple.g)
        lams.append(lam)
    for _ in range(50):
        i, j = rng.integers(0, 50, 2)
        if np.allclose(lams[i], lams[j]):
            continue
        ratio = np.linalg.norm(grads[i] - grads[j]) / np.linalg.norm(lams[i] - lams[j])
        assert ratio <= m * G * G
    report(4, "50 FD gradient checks at rel<=1e-4 and smoothness ratios within m G^2")


def test_criterion_5_ellipsoid_engine():
    rng = np.random.default_rng(105)
    for m in (2, 3):
        state = EllipsoidState(center=np.zeros(m), factor=np.linalg.cholesky(np.eye(m) * 4.0))
        factor = central_cut_log_factor(m)
        total = 0.0
        for _ in range(25):
            w = rng.standard_normal(m)
            logdet_before = np.linalg.slogdet(state.factor @ state.factor.T)[1]
            new = ellipsoid_update(state, w)
            logdet_after = np.linalg.slogdet(new.factor @ new.factor.T)[1]
            drop = 0.5 * (logdet_after - logdet_before)
            assert abs(drop - factor) <= 1e-10
            total -= drop
            # Monte-Carlo containment of the kept half, 1e4 samples per cut
            u = rng.standard_normal((10_000, m))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            u *= rng.uniform(0.0, 1.0, (10_000, 1)) ** (1.0 / m)
            pts = state.center + u @ np.linalg.cholesky(state.factor @ state.factor.T).T
            kept = pts[(pts - state.center) @ w <= 0.0]
            diff = kept - new.center
            quad = np.einsum("ki,ij,kj->k", diff, np.linalg.inv(new.factor @ new.factor.T), diff)
            assert np.max(quad) <= 1.0 + 1e-9, "sampled point escaped the new ellipsoid"
            state = new
        assert total >= 25.0 / (2.0 * (m + 1.0))
    report(5, "per-cut volume factor analytic to 1e-10, zero containment escapes")


def test_criterion_6_noisy_oracles_value_gap():
    eps, R, m = 1e-3, 3.0, 2
    box = DualBox(R=R, m=m)
    rng = np.random.default_rng(106)
    trials = 50
    for trial in range(trials):
        a = float(rng.uniform(0.5, 2.0))
        target = rng.uniform(0.3 * R, 0.7 * R, m)
        d_true = lambda lam: -a * float((lam - target) @ (lam - target))
        eps_g = eps / (R * math.sqrt(m))
        def noisy_grad(lam):
            u = rng.standard_normal(m)
            return -2.0 * a * (lam - target) + eps_g * u / np.linalg.norm(u)
        def noisy_value(lam):
            return d_true(lam) + eps * float(rng.choice([-1.0, 1.0]))
        side = min(math.sqrt(eps / (a * m)), 0.1 * R)
        log_vol_initial = log_unit_ball_volume(m) + m * math.log(math.sqrt(m) * R / 2.0)
        T = math.ceil((log_vol_initial - m * math.log(side)) / -central_cut_log_factor(m)) + 1
        _, lam_bar, _ = cutting_plane_maximize(
            lambda lam: OracleTriple(lam, noisy_grad(lam), noisy_value(lam)),
            box,
            T,
        )
        gap = -d_true(lam_bar)
        assert gap <= 4.0 * eps, f"trial {trial}: gap {gap:.2e}"
    report(6, f"{trials}/{trials} noisy-oracle trials within the 4*eps value gap")


def test_criterion_7_norm_duality():
    rng = np.random.default_rng(107)
    eps = 1e-8
    n = 50
    cases = {
        "l1 via linf": (project_linf_box, project_l1_ball),
        "linf via l1": (project_l1_ball, project_linf_box),
        "l2 via l2": (project_l2_ball, project_l2_ball),
    }
    for name, (dual_proj, direct) in cases.items():
        for _ in range(100):
            x0 = rng.standard_normal(n)
            x0 *= rng.uniform(0.0, 10.0) / np.linalg.norm(x0)
            R = 2.0 * max(1.0, float(np.sum(np.abs(x0))))
            calls = [0]

            def counting(y, dual_proj=dual_proj):
                calls[0] += 1
                return dual_proj(y)

            via = project_norm_ball_via_dual(x0, DualBallProjector(counting), R=R, eps=eps)
            assert np.linalg.norm(via - direct(x0)) <= 1e-6, name
            bound = math.ceil(math.log2(R * max(1.0, float(np.linalg.norm(x0))) / eps)) + 2
            assert calls[0] <= bound, name
    report(7, "300 conversions match direct projectors at <=1e-6 within the call budget")


def test_criterion_8_linear_scaling(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--n-list",
            "256,512,1024,2048,4096",
            "--m",
            "2",
            "--eps",
            "1e-3",
            "--repeats",
            "5",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    times = {}
    for row in rows:
        times.setdefault(int(row[0]), []).append(float(row[3]))
    medians = {n: float(np.median(ts)) for n, ts in times.items()}
    ratio = medians[4096] / medians[512]
    assert 5.0 <= ratio <= 13.0, f"wall-time ratio {ratio:.2f}"
    ns = np.array(sorted(medians))
    slope = float(np.polyfit(np.log(ns), np.log([medians[n] for n in ns]), 1)[0])
    assert 0.8 <= slope <= 1.3, f"fitted exponent {slope:.3f}"
    report(8, f"512->4096 median ratio {ratio:.2f} in [5,13], exponent {slope:.2f} in [0.8,1.3]")


def test_criterion_8_logarithmic_accuracy_scaling():
    # The abstract's other half: cost logarithmic in 1/eps.  At m = 2 the
    # polygon's inscribed radius is linear in eps and each centroid cut keeps
    # at most 5/9 of its area, so each decade adds 2 ln 10 / ln(9/5) rounds.
    # The m = 2 inner stop, a value gap of eps^2 / 10, tightens a hundredfold
    # per decade, which AGD's linear rate pays for with a logarithm: the
    # extra evals stay within the extra rounds' at the most evals per call.
    decade = math.ceil(2.0 * math.log(10.0) / math.log(9.0 / 5.0)) + 1
    assert decade == 9
    for seed in range(7000, 7003):
        prob = random_quadratic_instance(256, 2, seed, factored=True)
        runs = [project(prob, SolverConfig(epsilon=eps)) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(r.certified for r in runs), seed
        per_call = max(r.inner_gradient_evals / r.oracle_calls for r in runs)
        for loose, tight in zip(runs, runs[1:]):
            assert tight.oracle_calls - loose.oracle_calls <= decade, seed
            assert tight.inner_gradient_evals - loose.inner_gradient_evals <= decade * per_call, seed
    report(8, f"each decade of eps adds at most {decade} calls and {decade} calls' evals")


def test_criterion_9_doubling_trick():
    prob = unit_ball_problem([4.0, 0.0], R=1.0)  # exact multiplier 3
    res = project(prob, SolverConfig(epsilon=1e-4, max_doubling_rounds=8))
    assert res.doubling_rounds_used == 2
    assert res.lambda_bar[0] == pytest.approx(3.0, abs=1e-2)
    assert_allclose(res.x_hat, [1.0, 0.0], atol=1e-3)
    interior = unit_ball_problem([0.3, 0.1], R=1.0)
    res2 = project(interior, SolverConfig(epsilon=1e-4, max_doubling_rounds=8))
    assert res2.doubling_rounds_used == 0
    report(9, "multiplier-3 instance doubles exactly twice, interior instance never")


def test_criterion_10_determinism(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "12", "--m", "2", "--seed", "42", "--out", str(inst)])
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(["solve", str(inst), "--eps", "1e-3", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    json.loads(outs[0])  # well-formed, no volatile fields to exclude
    report(10, "repeated cmd_solve outputs are byte-identical")
