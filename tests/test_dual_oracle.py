import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj.agd import SmoothObjective, agd_iterations, agd_minimize
from fastproj.cli import random_quadratic_instance
from fastproj.dual_oracle import (
    _MAX_BASIS_VECTORS,
    LanczosBasis,
    approx_dual_oracle,
    effective_eps_tilde,
    float_floor,
    lanczos_basis,
)
from fastproj.model import (
    ConstraintOracle,
    ContractViolation,
    NumericalFailure,
    SolverConfig,
    eval_constraints,
    lagrangian_gradient,
    lagrangian_gradient_fn,
    lagrangian_value,
    quadratic_constraint,
    quadratic_problem,
)
from fastproj.projector import project
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


def test_zero_multiplier_returns_query_point(monkeypatch, rng):
    # x0 minimizes L(., 0) exactly: the triple is read off x0 with one
    # evaluation per constraint, and no gradient, objective or AGD run; m = 1
    # with and without a Lanczos basis, and m = 2
    def refused(*args, **kwargs):
        raise AssertionError("inner solver used at lam = 0")

    monkeypatch.setattr("fastproj.dual_oracle.SmoothObjective", refused)
    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", refused)
    grads = [0]

    def counted(c):
        def grad(x):
            grads[0] += 1
            return c.grad(x)

        return replace(c, grad=grad)

    ball = unit_ball_problem([2.0, 0.0])
    for prob, with_basis in ((ball, False), (ball, True), (two_quadratics_problem(rng), False)):
        prob = replace(prob, constraints=tuple(counted(c) for c in prob.constraints))
        basis = lanczos_basis(prob) if with_basis else None
        counters = {}
        triple = approx_dual_oracle(prob, np.zeros(prob.m), 1e-8, counters, basis=basis)
        assert grads[0] == 0 and counters == {}
        assert triple.v == 0.0
        assert np.array_equal(triple.x_lambda, prob.x0) and triple.x_lambda is not prob.x0
        assert np.array_equal(triple.g, eval_constraints(prob, prob.x0))


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


def test_rejects_non_finite_multipliers(rng):
    # m = 1 with and without a Lanczos basis, and m = 2 in either slot
    ball = unit_ball_problem([2.0, 0.0])
    pair = two_quadratics_problem(rng)
    for bad in (math.nan, math.inf):
        for prob, lam in ((ball, [bad]), (pair, [bad, 0.5]), (pair, [0.0, bad])):
            with pytest.raises(ContractViolation):
                approx_dual_oracle(prob, np.array(lam), 1e-8)
            with pytest.raises(ContractViolation):
                lagrangian_value(prob, prob.x0, lam)
        with pytest.raises(ContractViolation):
            approx_dual_oracle(ball, np.array([bad]), 1e-8, basis=lanczos_basis(ball))


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


def test_an_m1_query_returns_a_certified_point_within_the_first_budget(rng):
    # at m = 1 AGD stops at its first momentum point that passes the
    # certificate 4 eps_eff: the point and count of the same AGD run made
    # directly, its x0 gradient included
    n = 12
    points = [0]

    for _ in range(4):
        quad = quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.3, 1.0)
        prob = quadratic_problem(rng.standard_normal(n) * 3.0, [quad], R=4.0)

        def grad(x, inner=prob.constraints[0].grad):
            points[0] += 1
            return inner(x)

        prob = replace(prob, constraints=(replace(prob.constraints[0], grad=grad),))
        for lam, eps_tilde in ((0.3, 1e-6), (2.0, 1e-10), (3.5, 0.0)):
            lam = np.array([lam])
            eps_eff = effective_eps_tilde(prob, eps_tilde)
            beta = 2.0 + lam[0] * prob.max_smoothness()
            budget = agd_iterations(2.0, beta, 1.0, eps_eff)
            objective = SmoothObjective(lagrangian_gradient_fn(prob, lam), 2.0, beta)
            run = agd_minimize(objective, prob.x0, budget, tol_sq=4.0 * eps_eff)
            points[0] = 0
            counters = {}
            triple = approx_dual_oracle(prob, lam, eps_tilde, counters=counters)
            assert counters["gradient_evals"] == points[0] == run.gradient_calls < 1 + budget
            assert np.array_equal(triple.x_lambda, run.point)
            g = lagrangian_gradient(prob, triple.x_lambda, lam)
            assert float(g @ g) <= 4.0 * eps_eff


def test_a_non_finite_gradient_closing_a_capped_run_raises(rng):
    # the first round's gradients: one at x0, budget - 1 AGD steps, then
    # the one at AGD's last y iterate, which is non-finite here.  At m = 2
    # AGD stops at the float floor, and at this loose eps_tilde the budget
    # is short of it, so the run is capped and no momentum point stops it.
    n = 6
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.3, 1.0)
        for _ in range(2)
    ]
    prob = quadratic_problem(rng.standard_normal(n) * 3.0, quads, R=4.0)
    lam, eps_tilde = np.array([0.7, 0.7]), 1e-2
    eps_eff = effective_eps_tilde(prob, eps_tilde)
    budget = agd_iterations(2.0, 2.0 + lam.sum() * prob.max_smoothness(), 1.0, eps_eff)
    clean = {}
    approx_dual_oracle(prob, lam, eps_tilde, clean)
    assert clean["gradient_evals"] >= 1 + budget
    calls = [0]
    first, second = prob.constraints

    def grad(x, inner=first.grad):
        calls[0] += 1
        g = inner(x)
        if calls[0] == budget + 1:
            g[0] = math.inf
        return g

    bad = replace(prob, constraints=(replace(first, grad=grad), second))
    with pytest.raises(NumericalFailure):
        approx_dual_oracle(bad, lam, eps_tilde)
    assert calls[0] == budget + 1


def test_an_m2_query_stops_at_its_first_point_at_the_float_floor(monkeypatch, rng):
    # On the default schedule eps_eff is the floor: AGD returns the first
    # momentum point whose Lagrangian gradient passes 4 floor, inside the
    # first budget.  A practical eps_tilde keeps the same stop, so each of
    # its rounds ends at the floor or at its cap, never at 4 eps_eff.  Both
    # spectra reach down to 1e-4, so at lam = 10 the practical budget ends
    # short of the floor.
    n = 16
    quads = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (q * np.logspace(-4.0, 0.0, n)) @ q.T
        quads.append(quadratic_constraint(0.5 * (A + A.T), rng.standard_normal(n) * 0.3, 1.0))
    prob = quadratic_problem(rng.standard_normal(n) * 3.0, quads, R=100.0)
    lam = np.array([10.0, 10.0])
    floor_sq = 4.0 * float_floor(prob)
    points = []
    first, second = prob.constraints

    def grad(x, inner=first.grad):
        points.append(np.array(x))
        return inner(x)

    counted = replace(prob, constraints=(replace(first, grad=grad), second))
    beta = 2.0 + lam.sum() * prob.max_smoothness()
    budget = agd_iterations(2.0, beta, 1.0, effective_eps_tilde(prob, 0.0))
    counters = {}
    triple = approx_dual_oracle(counted, lam, 0.0, counters)
    grad_sq = [float(g @ g) for g in (lagrangian_gradient(prob, x, lam) for x in points)]
    assert counters["gradient_evals"] == len(points) < 1 + budget
    assert np.array_equal(triple.x_lambda, points[-1])
    assert grad_sq[-1] <= floor_sq < min(grad_sq[:-1])

    runs = []

    def recorded(objective, x_init, iterations, g_init, tol_sq):
        run = agd_minimize(objective, x_init, iterations, g_init, tol_sq)
        runs.append((iterations, tol_sq, float(run.gradient @ run.gradient), run.gradient_calls))
        return run

    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", recorded)
    eps_tilde = 2e-3
    approx_dual_oracle(prob, lam, eps_tilde)
    for iterations, tol_sq, run_sq, calls in runs:
        assert tol_sq == floor_sq
        assert run_sq <= floor_sq or calls == iterations
    # one capped round, certified above the floor
    assert len(runs) == 1 and floor_sq < runs[0][2] <= 4.0 * eps_tilde


def _recorded_agd(monkeypatch):
    """Every AGD run of ``approx_dual_oracle``: ``(iterations, tol_sq, run)``."""
    runs = []

    def recorded(objective, x_init, iterations, g_init, tol_sq):
        run = agd_minimize(objective, x_init, iterations, g_init, tol_sq)
        runs.append((iterations, tol_sq, run))
        return run

    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", recorded)
    return runs


def test_a_capped_round_is_followed_by_one_with_twice_the_budget(monkeypatch):
    # a budget of 3 steps is far short of the float floor: the first two
    # rounds run to their caps, the third stops at the floor inside its own
    prob = random_quadratic_instance(32, 2, 5, factored=True)
    lam = np.array([1.0, 1.0])
    floor_sq = 4.0 * float_floor(prob)
    runs = _recorded_agd(monkeypatch)
    monkeypatch.setattr("fastproj.dual_oracle.agd_iterations", lambda *args: 3)
    counters = {}
    triple = approx_dual_oracle(prob, lam, 0.0, counters)
    assert [iterations for iterations, *_ in runs] == [3, 6, 12]
    calls = [run.gradient_calls for *_, run in runs]
    assert calls[:2] == [3, 6] and calls[2] < 12
    assert counters["gradient_evals"] == 1 + sum(calls)
    g = lagrangian_gradient(prob, triple.x_lambda, lam)
    assert float(g @ g) <= floor_sq


def test_a_round_that_fails_to_halve_the_gradient_ends_the_inner_solve(monkeypatch):
    # noise of 1e-3 in one constraint gradient keeps every round far above
    # the float floor: the first round runs to its cap, the second ends no
    # better, and the solve returns the better point, uncertified
    prob = random_quadratic_instance(32, 2, 5, factored=True)
    lam = np.array([1.0, 1.0])
    noise = np.random.default_rng(2)
    first, second = prob.constraints

    def grad(x, inner=first.grad):
        return inner(x) + 1e-3 * noise.standard_normal(x.size)

    noisy = replace(prob, constraints=(replace(first, grad=grad), second))
    runs = _recorded_agd(monkeypatch)
    counters = {}
    triple = approx_dual_oracle(noisy, lam, 0.0, counters)
    (cap, _, run1), (doubled, _, run2) = runs
    assert doubled == 2 * cap
    assert run1.gradient_calls == cap and run2.gradient_calls == doubled
    assert counters["gradient_evals"] == 1 + cap + doubled
    sq1, sq2 = (float(run.gradient @ run.gradient) for run in (run1, run2))
    assert sq2 > 0.5 * sq1
    better = run1 if sq1 <= sq2 else run2
    assert np.array_equal(triple.x_lambda, better.point)
    g = lagrangian_gradient(prob, triple.x_lambda, lam)
    assert float(g @ g) > 4.0 * effective_eps_tilde(prob, 0.0)


# ------------------------------------------------------- Lanczos basis (m = 1)


def _counted_grad(prob, calls):
    """``prob`` with its one constraint's grad counting into ``calls[0]``."""
    quad = prob.constraints[0]

    def grad(x, inner=quad.grad):
        calls[0] += 1
        return inner(x)

    return replace(prob, constraints=(replace(quad, grad=grad),))


def _exact_inner_solution(prob, lam):
    # x = c + (I + lam A)^-1 (x0 - c), the exact minimizer of the Lagrangian
    quad = prob.constraints[0]
    A = quad.to_dense()
    return quad.center + np.linalg.solve(np.eye(prob.n) + lam * A, prob.x0 - quad.center)


def test_a_basis_applies_only_to_a_single_quadratic(rng):
    dense = random_quadratic_instance(16, 1, 2)
    factored = random_quadratic_instance(64, 1, 2, factored=True)
    assert isinstance(lanczos_basis(dense), LanczosBasis)
    assert isinstance(lanczos_basis(factored), LanczosBasis)
    quad = dense.constraints[0]
    plain = ConstraintOracle(quad.eval, quad.grad, quad.lipschitz_G, quad.smoothness_L)
    assert lanczos_basis(replace(dense, constraints=(plain,))) is None
    assert lanczos_basis(two_quadratics_problem(rng)) is None


def test_a_ball_basis_breaks_down_after_one_product_and_is_exact():
    # A = I: K(A, x0) is the line through x0, so the first product closes
    # the basis and every query after it costs only its certificate gradient
    calls = [0]
    prob = _counted_grad(unit_ball_problem([2.0, -1.0, 0.5]), calls)
    basis = lanczos_basis(prob)
    for lam, expected_calls in ((1.0, 2), (0.3, 1), (7.5, 1)):
        calls[0] = 0
        counters = {}
        triple = approx_dual_oracle(prob, np.array([lam]), 0.0, counters, basis=basis)
        assert counters["gradient_evals"] == calls[0] == expected_calls
        assert_allclose(triple.x_lambda, prob.x0 / (1.0 + lam), rtol=1e-15)
        assert triple.v == pytest.approx(ball_dual_value(prob.x0, lam), abs=1e-14)


def test_a_rank_r_basis_is_exact_after_r_plus_one_products(rng):
    n, r = 12, 3
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q[:, :r] * np.array([1.0, 0.4, 0.1])) @ q[:, :r].T
    quad = quadratic_constraint(0.5 * (A + A.T), rng.standard_normal(n) * 0.2, 1.0)
    calls = [0]
    prob = _counted_grad(quadratic_problem(rng.standard_normal(n) * 3.0, [quad], R=8.0), calls)
    basis = lanczos_basis(prob)
    evals = []
    for lam in (0.5, 3.0, 6.0):
        calls[0] = 0
        triple = approx_dual_oracle(prob, np.array([lam]), 0.0, basis=basis)
        evals.append(calls[0])
        assert_allclose(triple.x_lambda, _exact_inner_solution(prob, lam), atol=1e-12)
    # x0 - c has components outside A's range, so K(A, x0 - c) has
    # dimension r + 1: the first query takes r + 1 products, and every query
    # one certificate gradient
    assert evals == [r + 2, 1, 1]


def test_the_residual_estimate_predicts_the_certificate(monkeypatch):
    # one basis serves increasing multipliers; each query grows it only
    # while lam beta_k |y_k| misses the certificate, and then the one true
    # gradient at its iterate (one _iterate call) proves it
    proofs = [0]
    iterate = LanczosBasis._iterate

    def counted(self, *args):
        proofs[0] += 1
        return iterate(self, *args)

    monkeypatch.setattr(LanczosBasis, "_iterate", counted)
    for seed, factored in ((0, False), (1, False), (2, True)):
        prob = random_quadratic_instance(64, 1, seed, factored=factored)
        basis = lanczos_basis(prob)
        eps_eff = effective_eps_tilde(prob, 0.0)
        for lam in (0.5, 2.0, 5.0, 20.0):
            lam = np.array([lam])
            proofs[0] = 0
            triple = approx_dual_oracle(prob, lam, 0.0, basis=basis)
            assert proofs[0] == 1, (seed, lam)
            g = lagrangian_gradient(prob, triple.x_lambda, lam)
            assert float(g @ g) <= 4.0 * eps_eff


def test_a_failed_proof_grows_the_basis_and_proves_again(monkeypatch):
    # a true gradient above the Lanczos estimate (rounding) makes the query
    # grow the basis past the estimate's stop, not fall back to AGD
    prob = random_quadratic_instance(64, 1, 3)
    lam = np.array([2.0])
    clean = {}
    approx_dual_oracle(prob, lam, 0.0, clean, basis=lanczos_basis(prob))
    iterate = LanczosBasis._iterate
    proofs = []

    def first_fails(self, *args):
        triple, grad, grad_sq = iterate(self, *args)
        proofs.append(grad_sq)
        return triple, grad, math.inf if len(proofs) == 1 else grad_sq

    def no_agd(*args):
        raise AssertionError("AGD ran")

    monkeypatch.setattr(LanczosBasis, "_iterate", first_fails)
    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", no_agd)
    counters = {}
    triple = approx_dual_oracle(prob, lam, 0.0, counters, basis=lanczos_basis(prob))
    assert len(proofs) == 2
    assert counters["gradient_evals"] > clean["gradient_evals"] + 1
    g = lagrangian_gradient(prob, triple.x_lambda, lam)
    assert float(g @ g) <= 4.0 * effective_eps_tilde(prob, 0.0)


def test_a_non_finite_gradient_mid_basis_raises_with_the_partial_trace():
    prob = random_quadratic_instance(16, 1, 4)
    quad = prob.constraints[0]
    calls = [0]

    def poisoned(x):
        # call 1 is the curvature at x0, calls 2 and 3 the first products
        calls[0] += 1
        return np.full(x.shape, np.nan) if calls[0] == 3 else quad.grad(x)

    bad = replace(prob, constraints=(replace(quad, grad=poisoned),))
    with pytest.raises(NumericalFailure) as exc:
        project(bad, SolverConfig(epsilon=1e-4))
    assert calls[0] == 3
    assert len(exc.value.trace) >= 1  # the lam = 0 round completed


def test_a_query_past_the_vector_cap_continues_with_agd_and_certifies(monkeypatch, rng):
    # eigenvalues down to 1e-8 at lam = 1e4: (I + lam A) spans four decades,
    # more than 64 Lanczos vectors resolve at the float floor
    n = 200
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * np.logspace(-8.0, 0.0, n)) @ q.T
    quad = quadratic_constraint(0.5 * (A + A.T), np.zeros(n), 1.0)
    prob = quadratic_problem(rng.standard_normal(n) * 3.0, [quad], R=1e5)
    runs = []

    def counted(objective, x_init, *args):
        runs.append(x_init)
        return agd_minimize(objective, x_init, *args)

    monkeypatch.setattr("fastproj.dual_oracle.agd_minimize", counted)
    lam = np.array([1e4])
    counters = {}
    triple = approx_dual_oracle(prob, lam, 0.0, counters, basis=lanczos_basis(prob))
    assert runs and counters["gradient_evals"] > _MAX_BASIS_VECTORS
    # AGD starts from the Krylov iterate, not from x0
    assert not np.array_equal(runs[0], prob.x0)
    g = lagrangian_gradient(prob, triple.x_lambda, lam)
    assert float(g @ g) <= 4.0 * effective_eps_tilde(prob, 0.0)
