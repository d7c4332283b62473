import numpy as np
import pytest
from numpy.testing import assert_allclose

import fastproj.reference as reference
from fastproj.cli import random_quadratic_instance
from fastproj.model import (
    ConstraintOracle,
    ContractViolation,
    ProjectionProblem,
    QuadraticConstraint,
    SolverConfig,
    quadratic_constraint,
    quadratic_problem,
)
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

from conftest import unit_ball_problem


def test_l2_examples():
    assert_allclose(project_l2_ball(np.array([2.0, 0.0])), [1.0, 0.0])
    assert_allclose(project_l2_ball(np.array([0.3, 0.4])), [0.3, 0.4])


def test_l2_exterior_lands_on_sphere(rng):
    for _ in range(20):
        x = rng.standard_normal(6) * 3.0
        if np.linalg.norm(x) > 1.0:
            assert np.linalg.norm(project_l2_ball(x)) == pytest.approx(1.0)


def test_linf_examples():
    assert_allclose(project_linf_box(np.array([2.0, 0.5])), [1.0, 0.5])
    interior = np.array([0.7, -0.2])
    assert_allclose(project_linf_box(interior), interior)
    out = project_linf_box(np.array([3.0, -4.0]))
    assert_allclose(project_linf_box(out), out)  # idempotent


def test_l1_examples():
    assert_allclose(project_l1_ball(np.array([1.0, 1.0])), [0.5, 0.5])
    assert_allclose(project_l1_ball(np.array([2.0, 0.0])), [1.0, 0.0])


def test_l1_feasibility_and_local_optimality(rng):
    x0 = rng.standard_normal(10) * 2.0
    proj = project_l1_ball(x0)
    assert np.sum(np.abs(proj)) <= 1.0 + 1e-12
    base = float(np.sum((proj - x0) ** 2))
    for _ in range(2000):
        z = rng.standard_normal(10)
        z = np.sign(z) * rng.dirichlet(np.ones(10)) * rng.uniform(0.0, 1.0)
        assert float(np.sum((z - x0) ** 2)) >= base - 1e-9


def test_variational_inequality_all_projectors(rng):
    samplers = {
        project_l2_ball: lambda: (lambda z: z / max(1.0, np.linalg.norm(z)))(
            rng.standard_normal(6)
        ),
        project_linf_box: lambda: rng.uniform(-1.0, 1.0, 6),
        project_l1_ball: lambda: np.sign(rng.standard_normal(6))
        * rng.dirichlet(np.ones(6))
        * rng.uniform(0.0, 1.0),
    }
    for proj, sample in samplers.items():
        x0 = rng.standard_normal(6) * 3.0
        x_hat = proj(x0)
        for _ in range(1000):
            z = sample()
            assert float((x0 - x_hat) @ (z - x_hat)) <= 1e-9


def test_ball_closed_form_examples():
    x_star, lam_star = ball_projection_closed_form(np.array([2.0, 0.0]), np.zeros(2), 1.0)
    assert_allclose(x_star, [1.0, 0.0])
    assert lam_star == pytest.approx(1.0)
    on_sphere = np.array([0.0, 1.0])
    x_star, lam_star = ball_projection_closed_form(on_sphere, np.zeros(2), 1.0)
    assert lam_star == 0.0
    assert_allclose(x_star, on_sphere)


def test_ball_closed_form_stationarity_residual(rng):
    for _ in range(10):
        center = rng.standard_normal(5)
        radius = float(rng.uniform(0.5, 2.0))
        x0 = center + rng.standard_normal(5) * 3.0
        if np.linalg.norm(x0 - center) <= radius:
            continue
        x_star, lam_star = ball_projection_closed_form(x0, center, radius)
        residual = 2.0 * (x_star - x0) + lam_star * 2.0 * (x_star - center)
        assert np.linalg.norm(residual) <= 1e-12 * max(1.0, np.linalg.norm(x0))


def test_grid_recovers_ball_multiplier():
    prob = unit_ball_problem([2.0, 0.0], R=4.0)
    x_ref, lam_ref, v_ref = brute_force_dual_grid(prob, GridSpec(resolution=100))
    assert lam_ref[0] == pytest.approx(1.0, abs=4.0 / 99 + 1e-9)
    assert_allclose(x_ref, [1.0, 0.0], atol=1e-2)
    assert v_ref == pytest.approx(1.0, abs=1e-4)


def test_grid_interior_point():
    prob = unit_ball_problem([0.3, 0.2], R=2.0)
    x_ref, lam_ref, _ = brute_force_dual_grid(prob, GridSpec(resolution=50))
    assert lam_ref[0] == 0.0
    assert_allclose(x_ref, prob.x0, atol=1e-9)


def test_grid_monotone_under_refinement():
    prob = unit_ball_problem([2.0, 1.0], R=4.0)
    history = []
    brute_force_dual_grid(prob, GridSpec(resolution=30), pass_values=history)
    assert len(history) == 3
    assert history[0] <= history[1] <= history[2]


def test_grid_generic_fallback_matches_quadratic_path():
    prob = unit_ball_problem([2.0, 0.0], R=4.0)
    # a plain oracle, not a QuadraticConstraint, so the generic per-point path runs
    bare = ConstraintOracle(
        eval=prob.constraints[0].eval,
        grad=prob.constraints[0].grad,
        lipschitz_G=prob.constraints[0].lipschitz_G,
        smoothness_L=prob.constraints[0].smoothness_L,
    )
    generic = ProjectionProblem(x0=prob.x0, constraints=(bare,), R=prob.R)
    spec = GridSpec(resolution=30)
    x_a, lam_a, v_a = brute_force_dual_grid(prob, spec)
    x_b, lam_b, v_b = brute_force_dual_grid(generic, spec)
    assert_allclose(lam_a, lam_b, atol=1e-9)
    assert v_a == pytest.approx(v_b, abs=1e-8)
    assert_allclose(x_a, x_b, atol=1e-5)


def _stationarity_dual(A, center, c, x0, lam):
    """d(lam) from a direct solve of (I + lam A) x = x0 + lam A center."""
    x = np.linalg.solve(np.eye(x0.size) + lam * A, x0 + lam * (A @ center))
    d = x - center
    return float((x - x0) @ (x - x0) + lam * (d @ A @ d - c)), x


def test_m1_grid_is_exact_and_never_materializes_a_wy_constraint(monkeypatch):
    wy_prob = random_quadratic_instance(256, 1, 4, factored=True)
    q = wy_prob.constraints[0]
    A = q.to_dense()  # before the patch below
    dense_prob = quadratic_problem(wy_prob.x0, [quadratic_constraint(A, q.center, q.c)], wy_prob.R)

    def refuse(self):
        raise AssertionError("the m = 1 grid materialized A")

    monkeypatch.setattr(QuadraticConstraint, "to_dense", refuse)
    x_ref, lam_ref, v_ref = brute_force_dual_grid(wy_prob)
    v_direct, x_direct = _stationarity_dual(A, q.center, q.c, wy_prob.x0, float(lam_ref[0]))
    assert v_ref == pytest.approx(v_direct, rel=1e-10)
    assert_allclose(x_ref, x_direct, rtol=0, atol=1e-10)

    lams = np.array([[0.0], [0.25 * lam_ref[0]], [lam_ref[0]], [wy_prob.R]])
    for prob in (wy_prob, dense_prob):
        c = prob.constraints[0]
        vals, xs = reference._eigenbasis_dual_fn(c, prob.x0)(lams)
        for lam, v, x in zip(lams[:, 0], vals, xs):
            v_direct, x_direct = _stationarity_dual(A, q.center, q.c, prob.x0, lam)
            assert v == pytest.approx(v_direct, rel=1e-10, abs=1e-14), (c.wy is None, lam)
            assert_allclose(x, x_direct, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_m1_bisection_meets_the_grid_gate_at_n4096(seed):
    eps = 1e-3
    prob = random_quadratic_instance(4096, 1, seed, factored=True)
    result = project(prob, SolverConfig(epsilon=eps))
    x_ref, _, _ = brute_force_dual_grid(prob)
    grid_objective = float(np.sum((x_ref - prob.x0) ** 2))
    assert result.certified
    assert result.max_violation <= eps
    assert result.objective <= grid_objective + 6.0 * eps


def test_grid_rejects_more_than_two_constraints(rng):
    from fastproj.model import quadratic_constraint, quadratic_problem

    quads = [quadratic_constraint(np.eye(2), np.zeros(2), 1.0 + i) for i in range(3)]
    prob = quadratic_problem(np.array([3.0, 0.0]), quads, R=2.0)
    with pytest.raises(ContractViolation):
        brute_force_dual_grid(prob, GridSpec(resolution=5))


def test_l2_self_duality_round_trip(rng):
    for _ in range(10):
        x0 = rng.standard_normal(5) * 2.0
        via = project_norm_ball_via_dual(
            x0, DualBallProjector(project_l2_ball), R=2.0 * max(1.0, np.linalg.norm(x0)), eps=1e-9
        )
        assert np.linalg.norm(via - project_l2_ball(x0)) <= 1e-7
