import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj.agd import SmoothObjective, agd_iterations, agd_minimize
from fastproj.model import ContractViolation, NumericalFailure

from conftest import random_psd


def quadratic_value(M, z, x):
    """F(x) = (x - z)^T M (x - z), whose minimum is 0."""
    return float((x - z) @ (M @ (x - z)))


def quadratic_objective(M, z):
    """F above: alpha = 2 min eig, beta = 2 max eig."""
    eigs = np.linalg.eigvalsh(M)
    return SmoothObjective(
        gradient=lambda x: 2.0 * (M @ (x - z)),
        alpha=2.0 * float(eigs[0]),
        beta=2.0 * float(eigs[-1]),
    )


def test_zero_is_fixed_point():
    obj = SmoothObjective(gradient=lambda x: 2.0 * x, alpha=2.0, beta=2.0)
    assert_allclose(agd_minimize(obj, np.zeros(3), 17).point, np.zeros(3))


def test_isotropic_quadratic_one_exact_step():
    target = np.array([3.0, 4.0])
    obj = SmoothObjective(
        gradient=lambda x: 2.0 * (x - target),
        alpha=2.0,
        beta=2.0,
    )
    assert_allclose(agd_minimize(obj, np.zeros(2), 1).point, target)


def test_anisotropic_quadratic_reaches_value_gap():
    M = np.diag([1.0, 10.0])
    obj = quadratic_objective(M, np.zeros(2))
    x_init = np.array([1.0, 1.0])
    eps = 1e-8
    T = agd_iterations(obj.alpha, obj.beta, float(x_init @ x_init), eps)
    y = agd_minimize(obj, x_init, T).point
    assert quadratic_value(M, np.zeros(2), y) <= eps  # closed-form minimum is 0


def test_iteration_count_clamps_to_one():
    assert agd_iterations(2.0, 2.0, 1.0, 2.0) == 1
    assert agd_iterations(2.0, 2.0, 1.0, 10.0) == 1


def test_iteration_count_formula_value():
    # ceil(10 ln(2e8)) = 192
    assert agd_iterations(2.0, 200.0, 1.0, 1e-6) == 192


def test_iteration_count_sqrt_condition_scaling():
    base = agd_iterations(2.0, 50.0, 1.0, 1e-6)
    quad = agd_iterations(2.0, 200.0, 1.0, 1e-6)
    assert 2.0 <= quad / base <= 2.4  # sqrt(kappa) doubling plus log slack


def test_value_gap_contract_on_random_quadratics(rng):
    for eps in (1e-4, 1e-8):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            M = random_psd(rng, n, rng.uniform(0.2, 3.0, n))
            z = rng.standard_normal(n)
            obj = quadratic_objective(M, z)
            x_init = rng.standard_normal(n)
            dist_sq = float((x_init - z) @ (x_init - z))
            T = agd_iterations(obj.alpha, obj.beta, dist_sq, eps)
            y = agd_minimize(obj, x_init, T).point
            assert quadratic_value(M, z, y) <= eps


def test_geometric_value_decay(rng):
    n = 4
    M = random_psd(rng, n, np.array([0.25, 0.7, 1.2, 4.0]))
    z = rng.standard_normal(n)
    obj = quadratic_objective(M, z)
    kappa = obj.beta / obj.alpha
    x_init = z + rng.standard_normal(n)
    ts = np.arange(5, 60, 5)
    gaps = np.array([quadratic_value(M, z, agd_minimize(obj, x_init, int(t)).point) for t in ts])
    slope = np.polyfit(ts, np.log(gaps), 1)[0]
    assert slope <= -0.9 / math.sqrt(kappa)


def test_deterministic_iterates(rng):
    M = random_psd(rng, 3)
    obj = quadratic_objective(M, np.ones(3))
    x_init = rng.standard_normal(3)
    a = agd_minimize(obj, x_init, 40).point
    b = agd_minimize(obj, x_init, 40).point
    assert np.array_equal(a, b)


def test_non_finite_gradient_raises_with_iterate():
    obj = SmoothObjective(
        gradient=lambda x: np.array([math.nan]),
        alpha=2.0,
        beta=2.0,
    )
    with pytest.raises(NumericalFailure) as exc:
        agd_minimize(obj, np.array([1.0]), 5)
    assert exc.value.payload is not None


def test_inf_mid_vector_raises_with_the_offending_iterate():
    seen = []

    def gradient(x):
        seen.append(x.copy())
        g = 2.0 * x
        if len(seen) == 3:
            g[2] = math.inf
        return g

    obj = SmoothObjective(gradient=gradient, alpha=1.0, beta=4.0)
    with pytest.raises(NumericalFailure) as exc:
        agd_minimize(obj, np.arange(1.0, 6.0), 10)
    assert len(seen) == 3
    assert np.array_equal(exc.value.payload, seen[-1])


def test_non_finite_gradient_at_the_last_y_iterate_raises_with_it():
    # a capped run's closing gradient gets the same check as every other
    x_init = np.arange(1.0, 4.0)
    clean = agd_minimize(SmoothObjective(lambda x: 2.0 * x, 1.0, 4.0), x_init, 5)
    calls = [0]

    def gradient(x):
        calls[0] += 1
        g = 2.0 * x
        if calls[0] == 6:
            g[1] = math.nan
        return g

    with pytest.raises(NumericalFailure) as exc:
        agd_minimize(SmoothObjective(gradient, 1.0, 4.0), x_init, 5)
    assert calls[0] == 6
    assert np.array_equal(exc.value.payload, clean.point)


def test_finite_gradient_whose_square_overflows_is_accepted():
    obj = SmoothObjective(gradient=lambda x: np.full(4, 1e200), alpha=2.0, beta=2.0)
    with np.errstate(over="ignore"):  # g.g overflows; every entry of g is finite
        y = agd_minimize(obj, np.zeros(4), 2).point
    assert np.all(np.isfinite(y))


def test_input_validation():
    obj = SmoothObjective(lambda x: x, alpha=2.0, beta=2.0)
    with pytest.raises(ContractViolation):
        agd_minimize(obj, np.zeros(1), 0)
    with pytest.raises(ContractViolation):
        SmoothObjective(lambda x: x, alpha=3.0, beta=2.0)
    with pytest.raises(ContractViolation):
        agd_iterations(2.0, 1.0, 1.0, 1e-6)


def test_start_gradient_replaces_the_first_call():
    M = np.diag([1.0, 10.0, 3.0])
    base = quadratic_objective(M, np.array([0.5, -1.0, 2.0]))
    calls = [0]

    def counted(x):
        calls[0] += 1
        return base.gradient(x)

    obj = SmoothObjective(gradient=counted, alpha=base.alpha, beta=base.beta)
    x_init = np.array([1.0, 1.0, -1.0])
    plain = agd_minimize(obj, x_init, 12).point
    assert calls[0] == 13  # 12 steps and the gradient at the returned point
    calls[0] = 0
    g_init = base.gradient(x_init)
    seeded = agd_minimize(obj, x_init, 12, g_init).point
    assert calls[0] == 12
    assert np.array_equal(seeded, plain)
    assert np.array_equal(g_init, base.gradient(x_init))  # read, not written


def test_stop_returns_the_first_passing_momentum_point(rng):
    M = random_psd(rng, 5, np.array([0.3, 0.8, 1.5, 2.0, 6.0]))
    z = rng.standard_normal(5)
    base = quadratic_objective(M, z)
    points, sq_norms = [], []

    def recorded(x):
        g = base.gradient(x)
        points.append(x.copy())
        sq_norms.append(float(g @ g))
        return g

    obj = SmoothObjective(gradient=recorded, alpha=base.alpha, beta=base.beta)
    x_init = z + rng.standard_normal(5)
    T = 200
    full = agd_minimize(obj, x_init, T)
    assert full.gradient_calls == T + 1 == len(points)
    # the capped run ends on its last y iterate, with the gradient there
    assert np.array_equal(full.point, points[T])
    assert np.array_equal(full.gradient, base.gradient(full.point))
    tol_sq = 1e-6 * sq_norms[0]
    k = next(i for i, s in enumerate(sq_norms) if s <= tol_sq)
    assert 0 < k < T - 1
    momentum_points = points[:T]  # the full run's x_0 .. x_(T-1)
    points.clear()
    stopped = agd_minimize(obj, x_init, T, tol_sq=tol_sq)
    assert stopped.gradient_calls == k + 1 == len(points)
    assert np.array_equal(stopped.point, momentum_points[k])
    assert np.array_equal(stopped.gradient, base.gradient(momentum_points[k]))
    # a seeded run makes one call fewer and stops at the same point
    points.clear()
    seeded = agd_minimize(obj, x_init, T, base.gradient(x_init), tol_sq)
    assert seeded.gradient_calls == k == len(points)
    assert np.array_equal(seeded.point, stopped.point)


def test_stop_that_never_fires_leaves_the_iterates_unchanged(rng):
    M = random_psd(rng, 4)
    obj = quadratic_objective(M, np.ones(4))
    x_init = rng.standard_normal(4)
    plain = agd_minimize(obj, x_init, 30)
    capped = agd_minimize(obj, x_init, 30, tol_sq=1e-300)
    assert capped.gradient_calls == plain.gradient_calls == 31
    assert np.array_equal(capped.point, plain.point)
    assert np.array_equal(capped.gradient, plain.gradient)


def test_nan_gradient_raises_and_never_passes_the_stop():
    obj = SmoothObjective(gradient=lambda x: np.array([math.nan, 0.0]), alpha=2.0, beta=2.0)
    with pytest.raises(NumericalFailure):
        agd_minimize(obj, np.ones(2), 5, tol_sq=math.inf)
