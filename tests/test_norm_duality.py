import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj import norm_duality
from fastproj.model import ContractViolation
from fastproj.norm_duality import (
    DualBallProjector,
    exact_dual_norm_oracle,
    project_norm_ball_via_dual,
)
from fastproj.reference import project_l1_ball, project_l2_ball, project_linf_box

L2 = DualBallProjector(project_l2_ball)
LINF_CLIP = DualBallProjector(project_linf_box)  # dual ball of l1
L1_SORT = DualBallProjector(project_l1_ball)  # dual ball of linf

_NORMS = {
    "l1": lambda x: float(np.sum(np.abs(x))),
    "l2": lambda x: float(np.linalg.norm(x)),
    "linf": lambda x: float(np.max(np.abs(x))),
}
_PAIRS = {
    "l1": (LINF_CLIP, project_l1_ball),
    "l2": (L2, project_l2_ball),
    "linf": (L1_SORT, project_linf_box),
}


def test_dual_ball_projector_invariants(rng):
    # idempotence, nonexpansiveness, identity on the dual ball itself
    duals = {"l1": project_linf_box, "l2": project_l2_ball, "linf": project_l1_ball}
    norms = {"l1": _NORMS["linf"], "l2": _NORMS["l2"], "linf": _NORMS["l1"]}
    for name, proj in duals.items():
        dual_norm = norms[name]
        for _ in range(25):
            y = rng.standard_normal(6) * 2.0
            z = rng.standard_normal(6) * 2.0
            py, pz = proj(y), proj(z)
            assert_allclose(proj(py), py, atol=1e-12)
            assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12
            inside = y / (2.0 * max(1.0, dual_norm(y)))
            assert_allclose(proj(inside), inside, atol=1e-12)


def test_oracle_inside_dual_ball_consistency():
    # 2 x0 / lam already dual-feasible: x_lam collapses to zero and the value
    # agrees with the Lagrangian at zero
    x0 = np.array([0.05, 0.02])
    lam = 4.0
    triple = exact_dual_norm_oracle(x0, lam, L2)
    assert_allclose(triple.x_lambda, np.zeros(2), atol=1e-15)
    assert triple.v == pytest.approx(float(x0 @ x0) - lam)


def test_oracle_l2_self_dual_closed_form():
    x0 = np.array([2.0, 0.0])
    triple = exact_dual_norm_oracle(x0, 2.0, L2)
    assert_allclose(triple.x_lambda, [1.0, 0.0])
    assert triple.v == pytest.approx(1.0)  # -2 + 4 - 1


def test_oracle_derivative_vanishes_at_optimum():
    # for l2, the dual optimum of projecting x0 is lam* = 2(||x0|| - 1)
    x0 = np.array([3.0, 0.0, 0.0])
    lam_star = 2.0 * (np.linalg.norm(x0) - 1.0)
    triple = exact_dual_norm_oracle(x0, lam_star, L2)
    assert triple.g[0] == pytest.approx(0.0, abs=1e-12)
    assert _NORMS["l2"](triple.x_lambda) == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_nonpositive_lambda():
    with pytest.raises(ContractViolation):
        exact_dual_norm_oracle(np.array([1.0]), 0.0, L2)


def test_derivative_matches_finite_differences(rng):
    # the shipped derivative is the envelope form, validated against central
    # finite differences of the value; this is the build-time arbitration
    for pi_star in (L2, LINF_CLIP, L1_SORT):
        for _ in range(10):
            x0 = rng.standard_normal(6) * 2.0
            lam = float(rng.uniform(0.3, 4.0))
            h = 1e-6
            vp = exact_dual_norm_oracle(x0, lam + h, pi_star).v
            vm = exact_dual_norm_oracle(x0, lam - h, pi_star).v
            g = exact_dual_norm_oracle(x0, lam, pi_star).g[0]
            assert g == pytest.approx((vp - vm) / (2.0 * h), rel=1e-4, abs=1e-6)


def test_derivative_is_primal_constraint_value(rng):
    # d'(lam) = P(x_lam) - 1 for each norm pair
    for name, (pi_star, _) in _PAIRS.items():
        P = _NORMS[name]
        for _ in range(10):
            x0 = rng.standard_normal(5) * 2.0
            lam = float(rng.uniform(0.2, 3.0))
            triple = exact_dual_norm_oracle(x0, lam, pi_star)
            assert triple.g[0] == pytest.approx(P(triple.x_lambda) - 1.0, abs=1e-10)


def test_value_equals_lagrangian_at_minimizer(rng):
    for name, (pi_star, _) in _PAIRS.items():
        P = _NORMS[name]
        for _ in range(10):
            x0 = rng.standard_normal(4) * 1.5
            lam = float(rng.uniform(0.2, 3.0))
            t = exact_dual_norm_oracle(x0, lam, pi_star)
            lag = float(np.sum((t.x_lambda - x0) ** 2)) + lam * (P(t.x_lambda) - 1.0)
            assert t.v == pytest.approx(lag, abs=1e-10)


def test_minimizer_is_stationary_under_perturbation(rng):
    for name, (pi_star, _) in _PAIRS.items():
        P = _NORMS[name]
        x0 = rng.standard_normal(5) * 2.0
        lam = float(rng.uniform(0.5, 2.0))
        t = exact_dual_norm_oracle(x0, lam, pi_star)
        base = float(np.sum((t.x_lambda - x0) ** 2)) + lam * (P(t.x_lambda) - 1.0)
        for _ in range(200):
            delta = rng.standard_normal(5)
            delta *= 1e-4 / np.linalg.norm(delta)
            x = t.x_lambda + delta
            val = float(np.sum((x - x0) ** 2)) + lam * (P(x) - 1.0)
            assert val >= base - 1e-12


def test_projection_examples():
    assert_allclose(
        project_norm_ball_via_dual(np.array([2.0, 0.0]), LINF_CLIP, R=4.0, eps=1e-9),
        [1.0, 0.0],
        atol=1e-7,
    )
    assert_allclose(
        project_norm_ball_via_dual(np.array([1.0, 1.0]), LINF_CLIP, R=4.0, eps=1e-9),
        [0.5, 0.5],
        atol=1e-7,
    )
    assert_allclose(
        project_norm_ball_via_dual(np.array([2.0, 0.5]), L1_SORT, R=6.0, eps=1e-9),
        [1.0, 0.5],
        atol=1e-7,
    )


def test_query_sequence_without_a_curvature_is_pinned(monkeypatch):
    # bisection_maximize is given no curvature here, so its first bracketing
    # query stays the midpoint.  The l1 dual's derivative has a kink at
    # lam = 2: two midpoints, the secant root just below it, then halving up
    # to it from below.
    asked = []
    real = norm_duality.exact_dual_norm_oracle
    monkeypatch.setattr(
        norm_duality,
        "exact_dual_norm_oracle",
        lambda x0, lam, pi_star: asked.append(lam) or real(x0, lam, pi_star),
    )
    x = project_norm_ball_via_dual(np.array([2.0, 0.5]), LINF_CLIP, R=6.0, eps=1e-9)
    assert asked == [3.0, 1.5, 1.9999999999999998] + [2.0 - 2.0**-k for k in range(2, 35)]
    assert_allclose(x, [1.0, 0.0], atol=1e-9)


def test_feasible_point_returned_unchanged():
    x0 = np.array([0.2, -0.3, 0.1])
    out = project_norm_ball_via_dual(x0, LINF_CLIP, R=2.0, eps=1e-9)
    assert np.array_equal(out, x0)


def test_round_trip_against_direct_projectors(rng):
    # R = 2 max(1, ||x0||_1) dominates the optimal multiplier for all three
    # norms (it is 2 ||x0 - x*|| in the respective dual norm)
    for name, (pi_star, direct) in _PAIRS.items():
        for _ in range(25):
            x0 = rng.standard_normal(8)
            x0 *= rng.uniform(0.0, 10.0) / np.linalg.norm(x0)
            R = 2.0 * max(1.0, float(np.sum(np.abs(x0))))
            via = project_norm_ball_via_dual(x0, pi_star, R=R, eps=1e-8)
            assert np.linalg.norm(via - direct(x0)) <= 1e-6, name


def test_far_query_at_large_n_lands_on_direct_projection(rng):
    # At ||x0|| ~ 950 the dual values of nearby midpoints tie to float
    # precision, so only the final bracket locates the projection.
    x0 = 3.0 * rng.standard_normal(100_000)
    R = 2.0 * max(1.0, float(np.sum(np.abs(x0))))
    for name, (pi_star, direct) in _PAIRS.items():
        via = project_norm_ball_via_dual(x0, pi_star, R=R, eps=1e-8)
        assert np.linalg.norm(via - direct(x0)) <= 1e-6, name


def test_too_small_R_is_refused():
    # lam* = 2 (||x0|| - 1) ~ 37 > R: every query reads g > 0, and without
    # the check the last query's point, of norm 15.5, lies 14.5 from the
    # projection.
    x0 = 3.0 * np.random.default_rng(0).standard_normal(50)
    with pytest.raises(ContractViolation, match="exceeds R"):
        project_norm_ball_via_dual(x0, L2, R=8.0, eps=1e-8)


def test_non_finite_R_or_eps_is_refused_and_a_huge_R_solves():
    x0 = np.array([3.0, 1.0, -2.0])
    for R, eps in ((np.inf, 1e-8), (np.nan, 1e-8), (10.0, np.inf)):
        with pytest.raises(ContractViolation):
            project_norm_ball_via_dual(x0, LINF_CLIP, R=R, eps=eps)
    # R max(1, ||x0||) / eps overflows at both; the round count does not.
    for R in (1e300, np.finfo(float).max):
        via = project_norm_ball_via_dual(x0, LINF_CLIP, R=R, eps=1e-8)
        assert np.linalg.norm(via - project_l1_ball(x0)) <= 1e-6


def test_projector_call_count_bound(rng):
    for _ in range(20):
        x0 = rng.standard_normal(6) * 3.0
        eps = 1e-8
        R = 2.0 * max(1.0, float(np.linalg.norm(x0)))
        calls = [0]

        def counting(y):
            calls[0] += 1
            return project_linf_box(y)

        project_norm_ball_via_dual(x0, DualBallProjector(counting), R=R, eps=eps)
        bound = math.ceil(math.log2(R * max(1.0, np.linalg.norm(x0)) / eps)) + 2
        assert calls[0] <= bound
