from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj.dual_oracle import approx_dual_oracle
from fastproj.model import (
    ContractViolation,
    eval_constraints,
    lagrangian_value,
    quadratic_constraint,
    quadratic_problem,
)
from fastproj.reference import project_l2_ball

from conftest import (
    ball_dual_gradient,
    ball_dual_value,
    ball_primal_minimizer,
    random_psd,
    unit_ball_problem,
)


def two_quadratics_problem(rng, n=6):
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.3, 1.0),
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.3, 1.5),
    ]
    x0 = rng.standard_normal(n)
    x0 *= 2.5 / np.linalg.norm(x0)
    return quadratic_problem(x0, quads, R=4.0)


def test_zero_multiplier_returns_query_point():
    prob = unit_ball_problem([2.0, 0.0])
    triple = approx_dual_oracle(prob, np.zeros(1), 1e-8)
    assert_allclose(triple.x_lambda, prob.x0)
    assert triple.v == 0.0
    assert_allclose(triple.g, eval_constraints(prob, prob.x0))


def test_ball_optimum_closed_form():
    prob = unit_ball_problem([2.0, 0.0])
    triple = approx_dual_oracle(prob, np.array([1.0]), 1e-10)
    assert_allclose(triple.x_lambda, [1.0, 0.0], atol=1e-5)
    assert triple.v == pytest.approx(1.0, abs=1e-9)
    assert triple.g[0] == pytest.approx(0.0, abs=1e-5)


def test_rejects_negative_multiplier():
    prob = unit_ball_problem([2.0, 0.0])
    with pytest.raises(ContractViolation):
        approx_dual_oracle(prob, np.array([-1.0]), 1e-8)


def test_triple_recomputation_identities(rng):
    prob = two_quadratics_problem(rng)
    lam = np.array([0.3, 0.7])
    triple = approx_dual_oracle(prob, lam, 1e-8)
    assert triple.v == lagrangian_value(prob, triple.x_lambda, lam)
    assert np.array_equal(triple.g, eval_constraints(prob, triple.x_lambda))


def test_each_constraint_evaluated_once_per_call(rng):
    prob = two_quadratics_problem(rng)
    calls = [0] * prob.m

    def counted(i, c):
        def _eval(x):
            calls[i] += 1
            return c.eval(x)

        return replace(c, eval=_eval)

    counted_prob = replace(
        prob, constraints=tuple(counted(i, c) for i, c in enumerate(prob.constraints))
    )
    lam = np.array([0.3, 0.7])
    triple = approx_dual_oracle(counted_prob, lam, 1e-8)
    assert calls == [1] * prob.m
    assert triple.v == lagrangian_value(prob, triple.x_lambda, lam)


def test_high_accuracy_dual_values_ball():
    prob = unit_ball_problem([2.0, 0.0])
    assert approx_dual_oracle(prob, np.zeros(1), 1e-12).v == 0.0
    assert approx_dual_oracle(prob, np.array([1.0]), 1e-12).v == pytest.approx(1.0, abs=1e-10)
    # closed form d(0.5) = 4/3 - 1/2 = 5/6
    assert approx_dual_oracle(prob, np.array([0.5]), 1e-12).v == pytest.approx(5.0 / 6.0, abs=1e-10)


def test_oracle_accuracy_bounds_on_ball(rng):
    # closed-form x*_lam makes all three accuracy contracts checkable
    x0 = np.array([2.0, 0.0, 0.0])
    prob = unit_ball_problem(x0)
    G = prob.max_lipschitz()
    for lam in (0.0, 0.3, 1.0, 2.2, 3.7):
        for eps_tilde in (1e-4, 1e-6, 1e-8, 1e-10):
            triple = approx_dual_oracle(prob, np.array([lam]), eps_tilde)
            x_star = ball_primal_minimizer(x0, lam)
            assert float(np.sum((triple.x_lambda - x_star) ** 2)) <= eps_tilde
            assert abs(triple.v - ball_dual_value(x0, lam)) <= eps_tilde
            assert abs(triple.g[0] - ball_dual_gradient(x0, lam)) <= np.sqrt(G * G * eps_tilde)


def test_gradient_matches_finite_differences_of_dual(rng):
    prob = two_quadratics_problem(rng)
    step = 1e-5
    for _ in range(5):
        lam = rng.uniform(0.2, 2.0, 2)
        triple = approx_dual_oracle(prob, lam, 1e-12)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            num = (
                approx_dual_oracle(prob, lam + e, 1e-12).v
                - approx_dual_oracle(prob, lam - e, 1e-12).v
            ) / (2.0 * step)
            assert triple.g[i] == pytest.approx(num, abs=1e-5)


def test_dual_smoothness_and_minimizer_lipschitz(rng):
    prob = two_quadratics_problem(rng)
    G = prob.max_lipschitz()
    m = prob.m
    for _ in range(10):
        lam1 = rng.uniform(0.0, 3.0, 2)
        lam2 = rng.uniform(0.0, 3.0, 2)
        t1 = approx_dual_oracle(prob, lam1, 1e-12)
        t2 = approx_dual_oracle(prob, lam2, 1e-12)
        dlam = float(np.linalg.norm(lam1 - lam2))
        assert np.linalg.norm(t1.g - t2.g) <= m * G * G * dlam + 1e-6
        assert np.linalg.norm(t1.x_lambda - t2.x_lambda) <= np.sqrt(m) * G * dlam + 1e-6


def test_weak_duality_against_feasible_points(rng):
    x0 = np.array([2.0, 1.0, -0.5])
    prob = unit_ball_problem(x0)
    x_f = project_l2_ball(x0)
    obj_f = float(np.sum((x_f - x0) ** 2))
    for lam in (0.1, 0.7, 1.5, 3.0):
        eps_tilde = 1e-9
        triple = approx_dual_oracle(prob, np.array([lam]), eps_tilde)
        assert triple.v - eps_tilde <= obj_f + 1e-12


def test_dual_concavity_sampled(rng):
    prob = two_quadratics_problem(rng)
    eps_tilde = 1e-10
    for _ in range(10):
        lam1 = rng.uniform(0.0, 3.0, 2)
        lam2 = rng.uniform(0.0, 3.0, 2)
        theta = float(rng.uniform(0.1, 0.9))
        mid = theta * lam1 + (1.0 - theta) * lam2
        v_mid = approx_dual_oracle(prob, mid, eps_tilde).v
        v1 = approx_dual_oracle(prob, lam1, eps_tilde).v
        v2 = approx_dual_oracle(prob, lam2, eps_tilde).v
        assert v_mid >= theta * v1 + (1.0 - theta) * v2 - 3.0 * eps_tilde


def test_gradient_counter_matches_real_calls(rng):
    # m = 1 with lam > 0: each Lagrangian gradient calls the constraint's
    # grad once.  AGD starts from the gradient the oracle already took at
    # the start point, so the second call is at a new point.
    n = 6
    quad = quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.3, 1.0)
    prob = quadratic_problem(rng.standard_normal(n) * 3.0, [quad], R=4.0)
    points = []

    def grad(x, inner=prob.constraints[0].grad):
        points.append(np.array(x).tobytes())
        return inner(x)

    prob = replace(prob, constraints=(replace(prob.constraints[0], grad=grad),))
    for eps_tilde in (1e-4, 1e-12):
        points.clear()
        counters = {}
        approx_dual_oracle(prob, np.array([0.7]), eps_tilde, counters=counters)
        assert counters["gradient_evals"] == len(points) > 1
        assert points[0] == prob.x0.tobytes() != points[1]


def test_warm_start_certificate_skip(rng):
    prob = two_quadratics_problem(rng)
    lam = np.array([0.5, 0.5])
    counters = {}
    cold = approx_dual_oracle(prob, lam, 1e-10, counters=counters)
    assert counters["gradient_evals"] > 1
    # an already-optimal warm start certifies with a single gradient check
    counters2 = {}
    warm = approx_dual_oracle(
        prob, lam, 1e-8, warm_start=cold.x_lambda, counters=counters2
    )
    assert counters2["gradient_evals"] == 1
    assert_allclose(warm.x_lambda, cold.x_lambda)
