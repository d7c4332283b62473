import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj.agd import SmoothObjective, agd_minimize
from fastproj.cli import random_quadratic_instance
from fastproj.cutting_plane import ITP_N0, round_budget
from fastproj.dual_oracle import (
    InnerSolves,
    OracleTriple,
    approx_dual_oracle,
    effective_eps_tilde,
    float_floor,
)
from fastproj.model import (
    ConstraintOracle,
    ContractViolation,
    ProjectionProblem,
    SolverConfig,
    eval_constraints,
    quadratic_constraint,
    quadratic_problem,
)
from fastproj import projector
from fastproj.projector import (
    bound_R_quadratic,
    bound_R_single,
    certified,
    project,
)
from fastproj.reference import GridSpec, brute_force_dual_grid

from conftest import (
    ball_dual_gradient,
    ball_dual_value,
    random_psd,
    unit_ball_problem,
)


def ball_pair_problem(x0):
    """The unit ball and the inactive ``||x||^2 <= 4``: m = 2, so the
    polygon runs, with the unit ball's projection."""
    ball = unit_ball_problem(x0)
    wide = quadratic_constraint(np.eye(2), np.zeros(2), 4.0)
    return quadratic_problem(ball.x0, [ball.constraints[0], wide], R=ball.R)


def test_ball_projection_both_engines():
    # m picks the engine: the unit ball alone runs the 1-D search
    for p in (unit_ball_problem([2.0, 0.0]), ball_pair_problem([2.0, 0.0])):
        res = project(p, SolverConfig(epsilon=1e-4))
        assert_allclose(res.x_hat, [1.0, 0.0], atol=1e-3)
        assert res.objective == pytest.approx(1.0, abs=6e-4)
        assert res.lambda_bar[0] == pytest.approx(1.0, abs=1e-2)
        assert res.max_violation <= 1e-4
    assert res.lambda_bar[1] == pytest.approx(0.0, abs=1e-2)


def test_interior_point_projects_to_itself():
    prob = unit_ball_problem([0.4, -0.2], R=1.0)
    res = project(prob, SolverConfig(epsilon=1e-4))
    assert_allclose(res.x_hat, prob.x0, atol=1e-5)
    assert res.lambda_bar[0] <= 1e-2


def test_bisection_returns_an_interior_x0_from_its_lam_zero_round():
    # x0 solves the inner problem at lam = 0 exactly, and is feasible.  The
    # lam = 0 triple is x0 itself: a quadratic reads h(x0) off the Lanczos
    # basis's first product, one gradient; a plain oracle with the same
    # eval and grad takes one constraint evaluation and no gradient
    for prob in (unit_ball_problem([0.4, -0.2], R=1.0), unit_ball_problem([0.0, 0.999])):
        quad = prob.constraints[0]
        plain = ConstraintOracle(quad.eval, quad.grad, quad.lipschitz_G, quad.smoothness_L)
        for oracle, gradients in ((quad, 1), (plain, 0)):
            solved = dataclasses.replace(prob, constraints=(oracle,))
            res = project(solved, SolverConfig(epsilon=1e-4))
            assert np.array_equal(res.x_hat, prob.x0)
            assert res.lambda_bar[0] == 0.0 and res.certified
            assert res.oracle_calls == 1 == sum(res.trace.in_box) == len(res.trace)
            assert res.inner_gradient_evals == gradients


def test_m1_opens_with_the_dual_newton_step():
    # unit ball, x0 = (2, 0): h(x0) = 3 and ||grad h(x0)||^2 / 2 = 8
    res = project(unit_ball_problem([2.0, 0.0], R=4.0), SolverConfig(epsilon=1e-4))
    assert res.trace.lam[1][0] == 3.0 / 8.0
    assert res.certified


def test_a_loose_R_costs_nothing_at_m1():
    # the Newton query does not depend on R, so a box a million wide
    # takes the inner steps of the instance's own
    config = SolverConfig(epsilon=1e-3)
    for seed in range(4):
        prob = random_quadratic_instance(128, 1, seed)
        tight = project(prob, config)
        loose = project(dataclasses.replace(prob, R=1e6), config)
        assert tight.certified and loose.certified, seed
        assert loose.inner_gradient_evals <= 1.2 * tight.inner_gradient_evals, seed


def test_a_constraint_with_zero_gradient_takes_the_limit_of_its_logarithms():
    # A = 0 gives the constraint -c <= 0, which always holds, and G = 0
    q = quadratic_constraint(np.zeros((3, 3)), np.zeros(3), 1.0)
    x0 = np.array([2.0, 0.0, 0.0])
    assert projector.default_inner_accuracy(1e-3, 1, 4.0, 0.0) == pytest.approx(1e-3)
    assert round_budget(2, 4.0, 1e-3, 0.0, 600) == 0
    assert round_budget(1, 4.0, 1e-3, 0.0, 600) == 1 + ITP_N0
    for m in (1, 2):
        prob = quadratic_problem(x0, [q] * m, R=4.0)
        assert prob.max_lipschitz() == 0.0
        res = project(prob, SolverConfig(epsilon=1e-3))
        assert np.array_equal(res.x_hat, prob.x0)
        assert res.max_violation == -1.0
        # both engines certify at their lam = 0 round
        assert len(res.trace) == 1
        assert res.certified and not np.any(res.lambda_bar)


def test_bisection_engine_requires_single_constraint(monkeypatch):
    quads = [
        quadratic_constraint(np.eye(2), np.zeros(2), 1.0),
        quadratic_constraint(np.eye(2), np.ones(2) * 0.1, 1.0),
    ]
    prob = quadratic_problem(np.array([3.0, 0.0]), quads, R=4.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran before the engine check")

    monkeypatch.setattr(projector, "approx_dual_oracle", refuse)
    with pytest.raises(ContractViolation, match="m = 1"):
        project(prob, SolverConfig(epsilon=1e-3, engine="bisection"))


def test_matches_dual_grid_oracle(rng):
    n = 12
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.0),
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.4),
    ]
    x0 = rng.standard_normal(n)
    x0 *= 3.0 / np.linalg.norm(x0)
    prob = quadratic_problem(x0, quads, R=6.0)
    eps = 1e-3
    res = project(prob, SolverConfig(epsilon=eps))
    x_ref, _, _ = brute_force_dual_grid(prob, GridSpec(resolution=150))
    assert res.objective <= float(np.sum((x_ref - x0) ** 2)) + 6.0 * eps
    assert res.max_violation <= eps


def test_multiplier_stays_in_box():
    prob = unit_ball_problem([5.0, 0.0], R=16.0)
    res = project(prob, SolverConfig(epsilon=1e-4))
    assert np.all(res.lambda_bar >= 0.0) and np.all(res.lambda_bar <= 16.0)
    assert res.lambda_bar[0] == pytest.approx(4.0, abs=1e-2)


def test_result_fields_recomputed_from_x_hat():
    prob = unit_ball_problem([2.0, 0.0])
    res = project(prob, SolverConfig(epsilon=1e-4))
    assert res.objective == float(np.sum((res.x_hat - prob.x0) ** 2))
    assert res.max_violation == float(res.x_hat @ res.x_hat) - 1.0
    assert res.oracle_calls >= 2
    assert res.inner_gradient_evals > 0


def test_translation_bound_at_returned_dual_point():
    # smooth-concavity bound linking the dual gap to the gradient mismatch
    x0 = np.array([2.0, 0.0])
    prob = unit_ball_problem(x0)
    res = project(prob, SolverConfig(epsilon=1e-4))
    G = prob.max_lipschitz()
    lam_star = 1.0
    lam_bar = float(res.lambda_bar[0])
    gap = ball_dual_value(x0, lam_star) - ball_dual_value(x0, lam_bar)
    grad_diff_sq = (ball_dual_gradient(x0, lam_bar) - ball_dual_gradient(x0, lam_star)) ** 2
    assert grad_diff_sq <= 2.0 * (prob.m * G * G) * gap + 1e-12


def test_primal_recovery_at_exact_multiplier():
    x0 = np.array([2.0, 1.0, 2.0])
    prob = unit_ball_problem(x0)
    lam_star = float(np.linalg.norm(x0)) - 1.0
    triple = approx_dual_oracle(InnerSolves(prob, 0.0, 1e-12), np.array([lam_star]))
    assert_allclose(triple.x_lambda, x0 / np.linalg.norm(x0), atol=1e-6)


def test_scaling_invariance():
    # h -> a h with R -> R/a leaves the feasible set and the output unchanged
    x0 = np.array([2.0, 0.0])
    base = unit_ball_problem(x0, R=4.0)
    res_base = project(base, SolverConfig(epsilon=1e-5))
    a = 8.0
    inner = base.constraints[0]
    scaled = ConstraintOracle(
        eval=lambda x: a * inner.eval(x),
        grad=lambda x: a * inner.grad(x),
        lipschitz_G=a * inner.lipschitz_G,
        smoothness_L=a * inner.smoothness_L,
    )
    # R/a would fall below the R >= 1 convention, so clamp it
    prob = ProjectionProblem(x0=x0, constraints=(scaled,), R=max(1.0, 4.0 / a))
    res = project(prob, SolverConfig(epsilon=1e-5))
    assert np.linalg.norm(res.x_hat - res_base.x_hat) <= 1e-3


def test_monotone_best_value_in_trace():
    # m = 2: the polygon's answer carries the best value of its rounds
    prob = ball_pair_problem([3.0, 1.0])
    res = project(prob, SolverConfig(epsilon=1e-5))
    best = -np.inf
    for in_box, v in zip(res.trace.in_box, res.trace.v):
        if in_box:
            best = max(best, v)
            assert best >= v
    assert res.dual_value == pytest.approx(best, abs=1e-7)


def test_outer_budget_cap_respected():
    # the cap counts every round, the lam = 0 query included
    for prob in (unit_ball_problem([2.0, 0.0]), ball_pair_problem([2.0, 0.0])):
        for cap in (1, 2, 3):
            res = project(prob, SolverConfig(epsilon=1e-6, max_outer_iterations=cap))
            assert len(res.trace) <= cap, (prob.m, cap)


def _closed_form_rounds(m, R, G, eps):
    """Central cuts that take the ball around [0, R]^m below volume r^m."""
    r = (eps / (2 * m * G)) * min(1.0, 1.0 / math.sqrt(eps))
    log_unit_ball = 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0)
    log_shrink = math.log(m / (m + 1.0)) + 0.5 * (m - 1.0) * math.log(m * m / (m * m - 1.0))
    log_excess = log_unit_ball + m * math.log(math.sqrt(m) * R / 2.0) - m * math.log(r)
    return math.floor(log_excess / -log_shrink) + 1


@pytest.mark.parametrize("m", [3])
def test_ellipsoid_runs_its_closed_form_budget(m):
    eps = 1e-3
    prob = random_quadratic_instance(8, m, seed=0)
    rounds = _closed_form_rounds(m, prob.R, prob.max_lipschitz(), eps)
    res = project(prob, SolverConfig(epsilon=eps))
    assert len(res.trace) == rounds + 1  # the lam = 0 round, then the budget
    capped = project(prob, SolverConfig(epsilon=eps, max_outer_iterations=rounds // 2))
    assert len(capped.trace) == rounds // 2


def test_polygon_runs_its_closed_form_budget():
    # m = 2: the first k centroid cuts with R^2 (5/9)^k below r^2, and
    # ITP_N0 + 1 rounds for the model queries its area schedule allows (see
    # cutting_plane.round_budget for the proof), but the polygon tests the
    # certificate at every query, so the solve ends at its first certified
    # round, and a cap below that round is run exactly
    eps = 1e-3
    prob = random_quadratic_instance(8, 2, seed=0)
    G = prob.max_lipschitz()
    r = (eps / (4 * G)) * min(1.0, 1.0 / math.sqrt(eps))
    rounds = math.floor(2.0 * math.log(prob.R / r) / math.log(9.0 / 5.0)) + 1 + ITP_N0 + 1
    assert round_budget(2, prob.R, eps, G, 600) == rounds
    res = project(prob, SolverConfig(epsilon=eps))
    assert res.certified and len(res.trace) <= rounds
    stops = [
        certified(lam, OracleTriple(None, -w, 0.0), eps)
        for lam, w in zip(res.trace.lam, res.trace.w)
    ]
    assert stops[-1] and not any(stops[:-1])
    cap = len(res.trace) - 1
    capped = project(prob, SolverConfig(epsilon=eps, max_outer_iterations=cap))
    assert len(capped.trace) == cap and not capped.certified


def test_an_m1_solve_with_R_below_its_multiplier_stops_at_R():
    # lam* = 3 lies beyond R = 1, so no query certifies.  After the lam = 0
    # round and the dual Newton step 15/32, the secular model's root lies
    # past R, so the third round queries R itself; h > 0 there proves that
    # R maximizes the dual over [0, R], and the search ends at R,
    # uncertified, 3 rounds into its budget of 1 + T
    prob = unit_ball_problem([4.0, 0.0], R=1.0)
    config = SolverConfig(epsilon=1e-4)
    res = project(prob, config)
    assert not res.certified and res.trace.boundary_hit
    cap = config.max_outer_iterations - 1
    T = round_budget(1, prob.R, config.epsilon, prob.max_lipschitz(), cap)
    assert len(res.trace) == res.oracle_calls == 3 < 1 + T
    assert [lam[0] for lam in res.trace.lam] == [0.0, 15.0 / 32.0, 1.0]
    assert res.lambda_bar[0] == res.trace.lam[-1][0] == prob.R
    assert res.max_violation > 0.0
    assert_allclose(res.x_hat, prob.x0 / (1.0 + prob.R), rtol=1e-12)


def test_huge_R_or_eps_overflows_neither_schedule_nor_budget():
    # (m R G)^6, eps^4 and R G / eps overflow a float here; in logarithms the
    # schedule underflows to 0 or stops at eps, and the budgets hit the cap.
    for R in (1e50, 1e200, 1e300):
        assert projector.default_inner_accuracy(1e-3, 2, R, 10.0) < 1e-300
        assert round_budget(3, R, 1e-3, 10.0, 600) == 600
    # the polygon's area factor 5/9 is the steeper: at R = 1e50 it needs 428
    # centroid cuts, and ITP_N0 + 1 rounds for its model queries
    assert round_budget(2, 1e50, 1e-3, 10.0, 600) == 428 + ITP_N0 + 1
    # sqrt(m) R overflows at R = 1.7e308 for m >= 2
    for R in (1e200, 1e300, 1.7e308):
        for m in (1, 2, 3):
            assert round_budget(m, R, 1e-3, 10.0, 600) == 600
    assert projector.default_inner_accuracy(1e100, 1, 1.0, 1.0) == pytest.approx(1e100)
    prob = random_quadratic_instance(6, 2, seed=9)
    for R in (1e200, 1e300, 1.7e308):
        with pytest.raises(ContractViolation, match="too large"):
            project(dataclasses.replace(prob, R=R), SolverConfig(epsilon=1e-3))


def test_a_schedule_that_underflows_solves_at_the_float_floor(monkeypatch):
    # At m = 1 the guaranteed schedule sits below the float floor already,
    # and the m = 2 stop reads no schedule, so reading 0 instead must give
    # the same answer.
    config = SolverConfig(epsilon=1e-3)
    cases = [random_quadratic_instance(6, m, seed=9) for m in (1, 2)]
    expected = [project(prob, config) for prob in cases]
    monkeypatch.setattr(projector, "default_inner_accuracy", lambda *args: 0.0)
    for prob, before in zip(cases, expected):
        res = project(prob, config)
        assert np.array_equal(res.x_hat, before.x_hat)
        assert res.oracle_calls == before.oracle_calls


def test_result_json_shape():
    prob = unit_ball_problem([2.0, 0.0])
    res = project(prob, SolverConfig(epsilon=1e-4))
    doc = json.loads(res.to_json())
    assert set(doc) == {
        "x_hat",
        "lambda_bar",
        "objective",
        "max_violation",
        "dual_value",
        "oracle_calls",
        "doubling_rounds",
    }


# ----------------------------------------------------------------- R bounds


def test_bound_r_single_examples():
    assert bound_R_single(1.0, 2.0) == 4.0
    assert bound_R_single(10.0, 1.0) == 1.0  # clamped
    # unit ball with x0=(2,0): gradient norm 2 on the boundary, distance 1
    assert bound_R_single(2.0, 1.0) >= 1.0


def test_bound_r_single_refuses_a_non_finite_q():
    # Q = inf reads 2B/Q = 0, which the clamp would raise to R = 1
    for Q in (math.inf, math.nan):
        with pytest.raises(ContractViolation):
            bound_R_single(Q, 1.0)


def test_bound_r_single_refuses_a_non_finite_b():
    # B = inf would read R = inf, refused only later by ProjectionProblem
    for B in (math.inf, math.nan):
        with pytest.raises(ContractViolation):
            bound_R_single(1.0, B)


def test_bound_r_quadratic_refuses_an_empty_level_array():
    with pytest.raises(ContractViolation):
        bound_R_quadratic(np.array([]), B=1.0, X_star=1.0)


def test_bound_r_quadratic_examples():
    assert bound_R_quadratic(np.array([1.0, 1.0]), 2.0, 1.0) == 2.0
    assert bound_R_quadratic(np.array([4.0]), 1.0, 1.0) == 1.0  # clamped
    # centered ball x^T x <= 1 with x0=(2,0): exact multiplier 1, bound tight
    assert bound_R_quadratic(np.array([1.0]), 1.0, 1.0) == 1.0


def test_bound_r_quadratic_refuses_non_finite_inputs():
    # a NaN loses every comparison in the clamp max(1, ...), so it would
    # read R = 1
    for bad in (math.nan, math.inf):
        for levels, B, X_star in (([1.0], bad, 1.0), ([1.0], 4.0, bad), ([1.0, bad], 4.0, 1.0)):
            with pytest.raises(ContractViolation):
                bound_R_quadratic(np.array(levels), B=B, X_star=X_star)


# ----------------------------------------------------------------- doubling


def test_doubling_from_underestimated_radius():
    # true multiplier 3: R grows 1 -> 2 -> 4 and the solve then stays interior
    prob = unit_ball_problem([4.0, 0.0], R=1.0)
    res = project(prob, SolverConfig(epsilon=1e-4, max_doubling_rounds=8))
    assert res.doubling_rounds_used == 2
    assert res.lambda_bar[0] == pytest.approx(3.0, abs=1e-2)
    assert_allclose(res.x_hat, [1.0, 0.0], atol=1e-3)
    assert not res.trace.boundary_hit


def test_doubling_interior_point_unchanged():
    prob = unit_ball_problem([0.2, 0.1], R=1.0)
    res = project(prob, SolverConfig(epsilon=1e-4, max_doubling_rounds=8))
    assert res.doubling_rounds_used == 0


def test_doubling_not_triggered_for_interior_multiplier():
    prob = unit_ball_problem([1.5, 0.0], R=1.0)  # multiplier 0.5 < 0.9
    res = project(prob, SolverConfig(epsilon=1e-4, max_doubling_rounds=8))
    assert res.doubling_rounds_used == 0
    assert res.lambda_bar[0] == pytest.approx(0.5, abs=1e-2)


def test_doubling_budget_exhaustion_flags_trace():
    prob = unit_ball_problem([9.0, 0.0], R=1.0)  # multiplier 8 needs 3 doublings
    res = project(prob, SolverConfig(epsilon=1e-4, max_doubling_rounds=1))
    assert res.doubling_rounds_used == 1
    assert res.trace.boundary_hit


def test_doubling_reports_the_work_of_every_round():
    # the CI ball instance: its multiplier lies between 0.9 and 1.8, so at
    # R = 1 project solves twice.  Counting wrappers on the constraint see
    # the work of both rounds, on the quadratic itself (the Krylov path) and
    # on a plain oracle with the same eval and grad (the AGD path).
    ball = random_quadratic_instance(64, 1, 5, ball=True)
    quad = ball.constraints[0]
    plain = ConstraintOracle(quad.eval, quad.grad, quad.lipschitz_G, quad.smoothness_L)
    for oracle in (quad, plain):
        counts = {"eval": 0, "grad": 0}

        def counting(name, fn):
            return lambda x: counts.__setitem__(name, counts[name] + 1) or fn(x)

        counted = dataclasses.replace(
            oracle, eval=counting("eval", oracle.eval), grad=counting("grad", oracle.grad)
        )
        prob = dataclasses.replace(ball, constraints=(counted,), R=1.0)
        res = project(prob, SolverConfig(epsilon=1e-3, max_doubling_rounds=8))
        assert res.doubling_rounds_used == 1
        assert res.oracle_calls > len(res.trace)
        if oracle is quad:
            # h comes from the stored Lanczos products, at lam = 0 as at
            # lam > 0: the Krylov path never evaluates the constraint
            assert counts["eval"] == 0
        else:
            assert res.oracle_calls == counts["eval"]
        # every counted gradient calls the constraint's grad once: on the
        # Krylov path the Lanczos products, the first of them taken at lam =
        # 0; on the AGD path the inner steps, none at lam = 0
        assert res.inner_gradient_evals == counts["grad"]


def test_default_config_solves_a_boundary_multiplier_once(monkeypatch):
    prob = unit_ball_problem([4.0, 0.0], R=1.0)  # multiplier 3, pinned at R
    config = SolverConfig(epsilon=1e-4)
    single = projector._solve(prob, config)
    solved = []
    real = projector._solve
    monkeypatch.setattr(
        projector, "_solve", lambda problem, config: solved.append(problem) or real(problem, config)
    )
    res = project(prob, config)
    assert len(solved) == 1 and solved[0] is prob
    assert res.lambda_bar[0] >= 0.9 * prob.R
    assert res.doubling_rounds_used == 0
    assert res.trace.boundary_hit
    assert np.array_equal(res.x_hat, single.x_hat)


def test_theoretical_schedule_contract_small_sweep(rng):
    # randomized spot check of the end-to-end contract at the default schedule
    for seed in range(3):
        r = np.random.default_rng(seed)
        n = 5
        quads = [
            quadratic_constraint(random_psd(r, n), r.standard_normal(n) * 0.2, 1.0)
        ]
        x0 = r.standard_normal(n)
        x0 *= 2.0 / np.linalg.norm(x0)
        prob = quadratic_problem(x0, quads, R=4.0)
        eps = 1e-3
        res = project(prob, SolverConfig(epsilon=eps))
        x_ref, _, _ = brute_force_dual_grid(prob, GridSpec(resolution=120))
        assert res.max_violation <= eps
        assert res.objective <= float(np.sum((x_ref - x0) ** 2)) + 6 * eps


def test_three_constraints_ellipsoid(rng):
    # the engine is not limited to m <= 2 (only the grid oracle is)
    n = 8
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, c)
        for c in (1.0, 1.3, 1.6)
    ]
    x0 = rng.standard_normal(n)
    x0 *= 3.0 / np.linalg.norm(x0)
    prob = quadratic_problem(x0, quads, R=6.0)
    eps = 1e-3
    res = project(prob, SolverConfig(epsilon=eps))
    assert res.max_violation <= eps
    assert res.lambda_bar.shape == (3,)
    # objective must not beat any feasible point by more than 6 eps;
    # use the most-constrained center direction as a feasible witness
    anchor = np.mean([q.center for q in quads], axis=0)
    assert np.max([float(q.eval(anchor)) for q in quads]) < 0
    assert res.objective <= float(np.sum((anchor - x0) ** 2)) + 6 * eps


def test_bisection_stops_early_on_its_certificate():
    from fastproj.cli import random_quadratic_instance
    from fastproj.dual_oracle import effective_eps_tilde
    from fastproj.projector import default_inner_accuracy

    eps = 1e-3
    cases = [unit_ball_problem([2.5, -1.5, 0.5])]
    cases += [random_quadratic_instance(32, 1, seed) for seed in (3, 4)]
    for prob in cases:
        G = prob.max_lipschitz()
        T = math.ceil(math.log2(prob.R * G / eps))
        res = project(prob, SolverConfig(epsilon=eps))
        eps_eff = effective_eps_tilde(prob, default_inner_accuracy(eps, 1, prob.R, G))
        assert len(res.trace) <= T / 2
        assert res.oracle_calls == len(res.trace)
        assert res.max_violation <= eps
        assert res.objective - res.dual_value <= eps + eps_eff


def test_bisection_matches_dual_grid_on_dense_instances():
    # an outside check of the interpolating m = 1 engine: the dual grid
    # shares neither AGD nor any dual engine with project
    from fastproj.cli import random_quadratic_instance

    eps = 1e-3
    calls, rounds = [], []  # oracle calls, and the paper's bisection rounds T
    for seed in range(6):
        prob = random_quadratic_instance(64, 1, seed)
        rounds.append(math.ceil(math.log2(prob.R * prob.max_lipschitz() / eps)))
        res = project(prob, SolverConfig(epsilon=eps))
        _, _, d_ref = brute_force_dual_grid(prob)
        assert res.certified
        assert res.max_violation <= eps
        assert abs(res.objective - d_ref) <= 6.0 * eps
        calls.append(res.oracle_calls)
    assert np.median(calls) <= min(rounds) / 2


def test_certified_flags_an_uncertified_answer(rng):
    # a truncated polygon budget stops short of the dual optimum; the
    # answer is still returned, and its flag says the certificate fails
    # (the model queries certify seed 1 from 4 rounds on)
    eps = 1e-4
    for seed in range(6):
        truncated = random_quadratic_instance(8, 2, seed)
        for rounds in (1, 2, 3):
            res = project(truncated, SolverConfig(epsilon=eps, max_outer_iterations=rounds))
            h = eval_constraints(truncated, res.x_hat)
            assert float(np.max(h)) > eps or -float(res.lambda_bar @ h) > eps
            assert res.certified is False
    n = 8
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.0),
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.3),
    ]
    x0 = rng.standard_normal(n)
    x0 *= 2.5 / np.linalg.norm(x0)
    prob = quadratic_problem(x0, quads, R=5.0)
    ball = unit_ball_problem([2.0, 0.0])
    for p in (prob, ball):
        cold = project(p, SolverConfig(epsilon=eps))
        assert cold.certified is True
        assert "certified" not in json.loads(cold.to_json())


def test_numerical_failure_carries_partial_trace():
    from fastproj.model import ConstraintOracle, NumericalFailure

    x0 = np.array([2.0, 0.0])
    calls = [0]

    def poisoned_grad(x):
        calls[0] += 1
        if calls[0] > 40:
            return np.full(2, np.nan)
        return 2.0 * x

    def poisoned_off_x0(x):
        # The m = 1 solve certifies within a few constraint-gradient calls,
        # so its poison is the first gradient at a point other than x0: an
        # AGD step of the first inner solve after lam = 0.
        if not np.array_equal(x, x0):
            return np.full(2, np.nan)
        return 2.0 * x

    # m = 1 runs the bisection engine and m = 2 the polygon
    for m, grad in ((1, poisoned_off_x0), (2, poisoned_grad)):
        bad = ConstraintOracle(
            eval=lambda x: float(x @ x) - 1.0,
            grad=grad,
            lipschitz_G=8.0,
            smoothness_L=2.0,
        )
        prob = ProjectionProblem(x0=x0, constraints=(bad,) * m, R=4.0)
        calls[0] = 0
        with pytest.raises(NumericalFailure) as exc:
            project(prob, SolverConfig(epsilon=1e-6))
        # the lam = 0 round completed before the failure
        assert len(exc.value.trace) >= 1, m


def test_oracle_calls_count_every_inner_solve(monkeypatch, rng):
    n = 8
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.0),
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.3),
    ]
    x0 = rng.standard_normal(n)
    x0 *= 2.5 / np.linalg.norm(x0)
    cases = [
        (unit_ball_problem([2.0, 0.0]), None),
        (quadratic_problem(x0, quads, R=5.0), None),
        (quadratic_problem(x0, quads, R=5.0), 1e-5),
    ]
    solves = []  # lam of every inner solve, in order

    def counted(inner, lam):
        solves.append(np.array(lam))
        return approx_dual_oracle(inner, lam)

    monkeypatch.setattr("fastproj.projector.approx_dual_oracle", counted)
    eps = 1e-4
    for prob, eps_tilde in cases:
        solves.clear()
        cfg = SolverConfig(epsilon=eps, epsilon_tilde_override=eps_tilde)
        res = project(prob, cfg)
        assert res.oracle_calls == len(solves) == sum(res.trace.in_box)
        # the engine's triple at lambda_bar is the answer, never solved again
        assert sum(np.array_equal(lam, res.lambda_bar) for lam in solves) == 1


@pytest.mark.parametrize("override", [None, 5e-4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_project_sets_the_inner_stop_by_the_rule(monkeypatch, m, override):
    # the one InnerSolves of a projection gets its eps and its eps_tilde,
    # the schedule's or the override, and sets tol_sq exactly to the rule:
    # 4 eps_eff at m = 1, 4 eps^2 / 10 at m = 2 whatever the override, and
    # 4 float_floor at m = 3
    built = []

    class Recorded(InnerSolves):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(projector, "InnerSolves", Recorded)
    eps = 1e-3
    prob = random_quadratic_instance(12, m, 40 + m)
    res = project(prob, SolverConfig(epsilon=eps, epsilon_tilde_override=override))
    assert res.certified
    (solves,) = built
    floor = float_floor(prob)
    eps_tilde = override
    if eps_tilde is None:
        G = prob.max_lipschitz()
        eps_tilde = projector.default_inner_accuracy(eps, m, prob.R, G)
    expected = {
        1: 4.0 * max(eps_tilde, floor),
        2: 4.0 * max(0.1 * eps * eps, floor),
        3: 4.0 * floor,
    }[m]
    assert solves.tol_sq == expected
    assert (solves.tol_sq > 4.0 * floor) == (m == 2 or (m == 1 and override is not None))


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("n", [40, 128])
def test_the_m2_polygon_certifies_every_answer_at_its_eps_squared_stop(n, eps):
    # inner solves stopped at a gap of eps^2 / 10 still give the polygon a
    # certified answer, within eps of feasibility, on every instance
    for seed in range(10):
        res = project(random_quadratic_instance(n, 2, 900 + seed), SolverConfig(epsilon=eps))
        assert res.certified, seed
        assert res.max_violation <= eps, seed


@pytest.mark.parametrize("m", [2, 3])
def test_inner_solves_stopped_at_the_float_floor_keep_every_answer_certified(m):
    # every answer is certified on the default schedule and at a practical
    # eps_tilde, which neither engine reads: the ellipsoid's inner solves
    # stop at the first AGD point at the float floor, the polygon's at
    # eps^2 / 10
    eps = 1e-3
    for seed in range(300, 306):
        for factored in (False, True):
            prob = random_quadratic_instance(96, m, seed, factored=factored)
            for eps_tilde in (None, 5e-4):
                config = SolverConfig(epsilon=eps, epsilon_tilde_override=eps_tilde)
                res = project(prob, config)
                assert res.certified, (seed, factored, eps_tilde)
                assert res.max_violation <= eps


def test_only_the_m1_and_m2_searches_stop_their_inner_solves_above_the_float_floor(
    monkeypatch, rng
):
    # every AGD run under project returns its first momentum point below
    # tol_sq, or its last iterate at the cap: checked against the same run
    # made without a stop, with every point it visits recorded.  tol_sq is
    # 4 eps_eff at m = 1, 4 eps^2 / 10 at m = 2 and 4 float_floor at
    # m = 3, where the ellipsoid tests the certificate only at lam = 0.
    n = 8
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, level)
        for level in (1.0, 1.3, 1.6)
    ]
    x0 = rng.standard_normal(n)
    x0 *= 2.5 / np.linalg.norm(x0)
    quad = quads[0]
    plain = ConstraintOracle(quad.eval, quad.grad, quad.lipschitz_G, quad.smoothness_L)
    single = dataclasses.replace(quadratic_problem(x0, quads[:1], R=5.0), constraints=(plain,))
    pair = quadratic_problem(x0, quads[:2], R=5.0)
    trio = quadratic_problem(x0, quads, R=5.0)
    eps, eps_tilde = 1e-4, 1e-6
    runs = []  # (objective, x_init, iterations, g_init, tol_sq, run) of every AGD run

    def recorded(objective, x_init, iterations, g_init, tol_sq):
        run = agd_minimize(objective, x_init, iterations, g_init, tol_sq)
        runs.append((objective, np.array(x_init), iterations, g_init.copy(), tol_sq, run))
        return run

    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", recorded)
    for prob in (single, pair, trio):
        floor_sq = 4.0 * float_floor(prob)
        stop_sq = {
            1: 4.0 * effective_eps_tilde(prob, eps_tilde),
            2: 4.0 * 0.1 * eps * eps,
            3: floor_sq,
        }[prob.m]
        assert floor_sq < 4.0 * 0.1 * eps * eps < 4.0 * effective_eps_tilde(prob, eps_tilde)
        runs.clear()
        project(prob, SolverConfig(epsilon=eps, epsilon_tilde_override=eps_tilde))
        assert runs
        early_above_floor = 0  # runs stopped before their cap, above the floor
        for objective, x_init, iterations, g_init, tol_sq, run in runs:
            assert tol_sq == stop_sq
            visited = [(x_init, g_init)]

            def grad(x, inner=objective.gradient):
                g = inner(x)
                visited.append((np.array(x), g.copy()))
                return g

            free = SmoothObjective(grad, objective.alpha, objective.beta)
            agd_minimize(free, x_init, iterations, g_init)
            first = next(
                (k for k, (_, g) in enumerate(visited[:-1]) if g @ g <= tol_sq),
                len(visited) - 1,
            )
            assert run.gradient_calls == first
            assert np.array_equal(run.point, visited[first][0])
            stop = float(run.gradient @ run.gradient)
            early_above_floor += run.gradient_calls < iterations and stop > floor_sq
        # the thresholds differ from the floor in what they return, at
        # m <= 2 only
        assert (early_above_floor > 0) == (prob.m <= 2), prob.m


@pytest.mark.parametrize("factored", [False, True])
def test_the_krylov_and_agd_m1_paths_agree(factored):
    # the same m = 1 instance, dense or WY, as a QuadraticConstraint (one
    # Lanczos basis per solve) and as a plain ConstraintOracle wrapping the
    # same eval and grad (AGD stopped on the certificate)
    eps = 1e-4
    prob = random_quadratic_instance(96, 1, 8, factored=factored)
    quad = prob.constraints[0]
    plain = ConstraintOracle(quad.eval, quad.grad, quad.lipschitz_G, quad.smoothness_L)
    agd_prob = dataclasses.replace(prob, constraints=(plain,))
    assert InnerSolves(prob, 0.0, 0.0).basis is not None
    assert InnerSolves(agd_prob, 0.0, 0.0).basis is None
    eps_eff = effective_eps_tilde(
        prob, projector.default_inner_accuracy(eps, 1, prob.R, prob.max_lipschitz())
    )
    for R in (prob.R, 1e6):
        config = SolverConfig(epsilon=eps)
        krylov = project(dataclasses.replace(prob, R=R), config)
        agd = project(dataclasses.replace(agd_prob, R=R), config)
        assert krylov.certified and agd.certified
        assert abs(krylov.objective - agd.objective) <= eps + eps_eff
        assert krylov.inner_gradient_evals < agd.inner_gradient_evals


@pytest.mark.parametrize("seed", range(4))
def test_the_gradient_count_is_exact_on_both_m1_paths(seed):
    # every constraint-gradient call of a solve is counted once, on the
    # Krylov path (the Lanczos products) and on AGD (its runs and the one
    # gradient at x0 that the curvature takes and every AGD start reads)
    prob = random_quadratic_instance(64, 1, seed)
    quad = prob.constraints[0]
    calls = [0]

    def grad(x):
        calls[0] += 1
        return quad.grad(x)

    krylov = dataclasses.replace(prob, constraints=(dataclasses.replace(quad, grad=grad),))
    plain = ConstraintOracle(quad.eval, grad, quad.lipschitz_G, quad.smoothness_L)
    agd = dataclasses.replace(prob, constraints=(plain,))
    evals = []
    for counted in (krylov, agd):
        calls[0] = 0
        res = project(counted, SolverConfig(epsilon=1e-3))
        assert res.certified
        assert res.inner_gradient_evals == calls[0] > 0
        evals.append(calls[0])
    assert evals[0] < evals[1]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_agd_starts_read_their_gradient_off_one_jacobian(monkeypatch, m, seed):
    # J, the m constraint gradients at x0, is taken once per projection and
    # counted as one eval: by the curvature at m = 1 and 2, by the first AGD
    # start at m = 3, where the ellipsoid asks for no curvature.  Every AGD
    # run then starts at x0 with the gradient lam . J read off it, so the
    # solve's count is 1 plus AGD's own calls, and no constraint gradient is
    # taken at x0 again
    prob = random_quadratic_instance(32, m, seed)
    at_x0 = [0]

    def counted(quad):
        def grad(x):
            at_x0[0] += np.array_equal(x, prob.x0)
            return quad.grad(x)

        return ConstraintOracle(quad.eval, grad, quad.lipschitz_G, quad.smoothness_L)

    wrapped = dataclasses.replace(prob, constraints=tuple(map(counted, prob.constraints)))
    runs = []

    def recorded(objective, x_init, iterations, g_init, tol_sq):
        run = agd_minimize(objective, x_init, iterations, g_init, tol_sq)
        runs.append((objective, np.array(x_init), g_init.copy(), run.gradient_calls))
        return run

    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", recorded)
    res = project(wrapped, SolverConfig(epsilon=1e-3))
    assert res.certified and runs
    assert res.inner_gradient_evals == 1 + sum(calls for *_, calls in runs)
    assert at_x0[0] == m
    for objective, x_init, g_init, _ in runs:
        assert np.array_equal(x_init, prob.x0)
        assert_allclose(g_init, objective.gradient(x_init), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 4, 5, 8])
def test_m2_slack_multipliers_come_out_exactly_zero(seed):
    # each of these instances has a constraint slack at the optimum: the
    # polygon's model queries its box maximizer, which puts that
    # constraint's multiplier at exactly 0, and the first certified query
    # is returned
    res = project(random_quadratic_instance(40, 2, seed), SolverConfig(epsilon=1e-3))
    assert res.certified and 0.0 in res.lambda_bar
    assert res.oracle_calls <= 10


@pytest.mark.parametrize("m", [1, 2])
def test_the_float_floor_is_computed_once_per_projection(monkeypatch, m):
    # the inner solves' stop is set once, when the projection's InnerSolves
    # is built, not on every query
    from fastproj import dual_oracle

    calls = [0]
    real = dual_oracle.float_floor

    def counted(problem):
        calls[0] += 1
        return real(problem)

    monkeypatch.setattr(dual_oracle, "float_floor", counted)
    res = project(random_quadratic_instance(32, m, 5), SolverConfig(epsilon=1e-3))
    assert res.certified and res.oracle_calls > 2
    assert calls[0] == 1


def test_the_ci_m1_instance_takes_at_most_22_inner_gradients():
    # `fastproj gen --n 512 --m 1 --seed 3` solved at eps 1e-4: AGD stopped
    # on the certificate took 43 inner gradients, one shared Lanczos basis
    # per solve takes 14; a loose R must not cost more
    prob = random_quadratic_instance(512, 1, 3)
    for R in (prob.R, 1e6):
        res = project(dataclasses.replace(prob, R=R), SolverConfig(epsilon=1e-4))
        assert res.certified
        assert res.inner_gradient_evals <= 22, R


def test_concurrent_solves_share_problem(rng):
    from concurrent.futures import ThreadPoolExecutor

    n = 8
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.0),
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.2, 1.3),
    ]
    x0 = rng.standard_normal(n)
    x0 *= 2.5 / np.linalg.norm(x0)
    prob = quadratic_problem(x0, quads, R=5.0)
    cfg = SolverConfig(epsilon=1e-4)
    sequential = project(prob, cfg)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: project(prob, cfg), range(4)))
    for res in results:
        assert np.array_equal(res.x_hat, sequential.x_hat)
        assert res.objective == sequential.objective

