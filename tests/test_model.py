import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fastproj.model as model
from fastproj.cli import random_quadratic_instance
from fastproj.model import (
    ContractViolation,
    ProjectionProblem,
    SolverConfig,
    eval_constraints,
    factored_quadratic_constraint,
    lagrangian_gradient,
    lagrangian_value,
    problem_from_json,
    problem_to_json,
    quadratic_constraint,
    quadratic_problem,
    quadratic_working_radius,
)

from conftest import fd_gradient, random_psd, unit_ball_problem


def test_eval_constraints_ball_origin():
    prob = unit_ball_problem([2.0, 0.0])
    assert_allclose(eval_constraints(prob, np.zeros(2)), [-1.0])


def test_eval_constraints_shared_center():
    center = np.array([0.3, -0.2, 0.1])
    quads = [
        quadratic_constraint(np.eye(3), center, 1.5),
        quadratic_constraint(2.0 * np.eye(3), center, 0.7),
    ]
    prob = quadratic_problem(np.array([2.0, 0.0, 0.0]), quads, R=2.0)
    assert_allclose(eval_constraints(prob, center), [-1.5, -0.7], atol=1e-14)


def test_eval_constraints_matches_direct_quadratic(rng):
    n = 8
    A = random_psd(rng, n)
    center = rng.standard_normal(n)
    quad = quadratic_constraint(A, center, 1.2)
    prob = quadratic_problem(rng.standard_normal(n), [quad], R=3.0)
    for _ in range(20):
        x = rng.standard_normal(n)
        d = x - center
        expected = float(d @ (A @ d)) - 1.2
        assert_allclose(eval_constraints(prob, x), [expected], rtol=1e-12)


def test_eval_constraints_dimension_mismatch():
    prob = unit_ball_problem([2.0, 0.0])
    with pytest.raises(ContractViolation):
        eval_constraints(prob, np.zeros(3))


def test_lagrangian_value_examples():
    prob = unit_ball_problem([2.0, 0.0])
    x = np.array([0.5, 1.0])
    # lam = 0 leaves only the distance term
    d = x - prob.x0
    assert lagrangian_value(prob, x, np.zeros(1)) == pytest.approx(float(d @ d))
    # x = x0 leaves only the multiplier term
    assert lagrangian_value(prob, prob.x0, np.array([2.0])) == pytest.approx(
        2.0 * (4.0 - 1.0)
    )
    # direct arithmetic at x=(1,0), lam=1
    assert lagrangian_value(prob, np.array([1.0, 0.0]), np.array([1.0])) == pytest.approx(1.0)


def test_lagrangian_value_rejects_negative_multiplier():
    prob = unit_ball_problem([2.0, 0.0])
    with pytest.raises(ContractViolation):
        lagrangian_value(prob, prob.x0, np.array([-0.1]))


def test_lagrangian_gradient_stationary_points():
    prob = unit_ball_problem([2.0, 0.0])
    assert_allclose(lagrangian_gradient(prob, prob.x0, np.zeros(1)), np.zeros(2))
    # dual optimum of the ball instance: x=(1,0), lam=1
    assert_allclose(
        lagrangian_gradient(prob, np.array([1.0, 0.0]), np.array([1.0])),
        np.zeros(2),
        atol=1e-14,
    )


def test_lagrangian_gradient_matches_finite_differences(rng):
    n = 6
    quads = [
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.4, 1.0),
        quadratic_constraint(random_psd(rng, n), rng.standard_normal(n) * 0.4, 1.7),
    ]
    prob = quadratic_problem(rng.standard_normal(n), quads, R=2.0)
    lam = np.array([0.3, 0.7])
    for _ in range(5):
        x = rng.standard_normal(n)
        num = fd_gradient(lambda z: lagrangian_value(prob, z, lam), x)
        ana = lagrangian_gradient(prob, x, lam)
        assert_allclose(ana, num, rtol=1e-6, atol=1e-8)


def test_quadratic_constraint_identity_examples():
    quad = quadratic_constraint(np.eye(2), np.zeros(2), 1.0)
    assert float(quad.eval(np.array([2.0, 0.0]))) == pytest.approx(3.0)
    assert_allclose(quad.grad(np.array([2.0, 0.0])), [4.0, 0.0])
    assert float(quad.eval(np.zeros(2))) == pytest.approx(-1.0)


def test_quadratic_constraint_value_at_center(rng):
    A = random_psd(rng, 5)
    center = rng.standard_normal(5)
    quad = quadratic_constraint(A, center, 2.5)
    assert float(quad.eval(center)) == pytest.approx(-2.5)


def test_quadratic_constraint_gradient_unit_norm_psd(rng):
    spectrum = rng.uniform(0.05, 1.0, 7)
    spectrum[2] = 1.0
    A = random_psd(rng, 7, spectrum)
    quad = quadratic_constraint(A, rng.standard_normal(7) * 0.3, 1.0)
    for _ in range(10):
        x = rng.standard_normal(7)
        assert_allclose(quad.grad(x), fd_gradient(quad.eval, x), rtol=1e-6, atol=1e-8)


def test_quadratic_constraint_rejects_indefinite():
    A = np.diag([1.0, -0.5])
    with pytest.raises(ContractViolation):
        quadratic_constraint(A, np.zeros(2), 1.0)


def test_quadratic_constraint_rejects_asymmetric():
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ContractViolation):
        quadratic_constraint(A, np.zeros(2), 1.0)


def test_gradients_match_finite_differences_many_points(rng):
    # oracle invariant: grad == d(eval) everywhere we sample
    quad = quadratic_constraint(random_psd(rng, 4), rng.standard_normal(4) * 0.5, 1.3)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(4) * 2.0
        num = fd_gradient(quad.eval, x, step=1e-4)
        ana = quad.grad(x)
        scale = max(1.0, float(np.linalg.norm(ana)))
        worst = max(worst, float(np.linalg.norm(ana - num)) / scale)
    assert worst <= 1e-5


def test_lagrangian_midpoint_convexity(rng):
    quads = [quadratic_constraint(random_psd(rng, 5), np.zeros(5), 1.0)]
    prob = quadratic_problem(rng.standard_normal(5), quads, R=2.0)
    lam = np.array([0.8])
    for _ in range(30):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        mid = lagrangian_value(prob, 0.5 * (x + y), lam)
        avg = 0.5 * (lagrangian_value(prob, x, lam) + lagrangian_value(prob, y, lam))
        assert mid <= avg + 1e-10


def test_lagrangian_linear_in_multiplier(rng):
    # Integer matrices and points with dyadic multipliers: every product and
    # sum below is exact in floats, whatever order the kernels add in.
    def small_int_pd():
        M = rng.integers(-3, 4, (4, 4)).astype(float)
        return M.T @ M + np.eye(4)

    quads = [
        quadratic_constraint(small_int_pd(), np.zeros(4), 1.0),
        quadratic_constraint(small_int_pd(), np.zeros(4), 2.0),
    ]
    prob = quadratic_problem(rng.integers(-3, 4, 4).astype(float), quads, R=2.0)
    x = rng.integers(-3, 4, 4).astype(float)
    base = lagrangian_value(prob, x, np.zeros(2))
    lam = np.array([1.25, 0.5])
    # halves are exactly representable, so additivity is exact in floats
    whole = lagrangian_value(prob, x, lam) - base
    half = lagrangian_value(prob, x, lam / 2.0) - base
    assert whole == 2.0 * half
    # generic decompositions hold to rounding
    a = np.array([0.3, 0.1])
    parts = (lagrangian_value(prob, x, a) - base) + (lagrangian_value(prob, x, lam - a) - base)
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-12)


def test_problem_json_round_trip(rng):
    quads = [
        quadratic_constraint(random_psd(rng, 3), rng.standard_normal(3) * 0.4, 1.0),
        quadratic_constraint(random_psd(rng, 3), rng.standard_normal(3) * 0.4, 1.5),
    ]
    prob = quadratic_problem(rng.standard_normal(3), quads, R=2.5)
    doc = problem_to_json(prob)
    back = problem_from_json(doc)
    assert back.n == prob.n and back.m == prob.m and back.R == prob.R
    assert_allclose(back.x0, prob.x0)
    x = rng.standard_normal(3)
    assert_allclose(eval_constraints(back, x), eval_constraints(prob, x), rtol=1e-12)
    assert back.max_lipschitz() == pytest.approx(prob.max_lipschitz(), rel=1e-9)
    assert problem_to_json(back) == doc


@pytest.mark.parametrize(
    "n, m, seed, ball", [(512, 1, 3, False), (20, 2, 7, False), (64, 3, 1, False), (6, 1, 5, True)]
)
def test_problem_to_json_bytes_match_per_entry_floats_and_dumps(n, m, seed, ball):
    # The document as built before tolist() and streaming json.dump.
    prob = random_quadratic_instance(n, m, seed, ball=ball)
    doc = {
        "n": prob.n,
        "m": prob.m,
        "x0": [float(v) for v in prob.x0],
        "R": float(prob.R),
        "constraints": [
            {
                "type": "quadratic",
                "A": [[float(v) for v in row] for row in c.to_dense()],
                "center": [float(v) for v in c.center],
                "c": float(c.c),
            }
            for c in prob.constraints
        ],
    }
    assert problem_to_json(prob) == json.dumps(doc, indent=2)


def test_problem_from_json_rejects_garbage():
    def doc(drop=None, **changes):
        entry = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "center": [0.0, 0.0], "c": 1.0}
        entry.update(changes)
        entry.pop(drop, None)
        return {"n": 2, "m": 1, "x0": [2.0, 0.0], "R": 4.0, "constraints": [entry]}

    problem_from_json(json.dumps(doc()))  # the unchanged document is valid
    garbage = [
        '{"n": 2}',
        *(json.dumps(doc(drop=key)) for key in ("A", "center", "c")),
        json.dumps({**doc(), "constraints": [5]}),
        json.dumps(doc(c="one")),
        json.dumps(doc(A=5.0)),
        json.dumps({**doc(), "x0": [float("nan"), 0.0]}),
        json.dumps(doc(A=[[1.0, 0.0], [0.0, float("inf")]])),
        json.dumps({**doc(), "R": float("inf")}),
        json.dumps({**doc(), "n": 2.7}),
        json.dumps({**doc(), "m": 1.9}),
        json.dumps({**doc(), "R": "4"}),
        json.dumps(doc(c="1.5")),
        json.dumps(doc(A=[[1.0, 0.0], [0.0, True]])),
        json.dumps({**doc(), "R": 10**400}),
        json.dumps(doc(A=np.eye(3).tolist(), center=[0.0, 0.0, 0.0])),  # n = 2
    ]
    for text in garbage:
        with pytest.raises(ContractViolation):
            problem_from_json(text)


def test_factored_matches_dense(rng):
    n, J = 10, 4
    spectrum = rng.uniform(0.05, 1.0, n)
    spectrum[0] = 1.0
    V = rng.standard_normal((n, J))
    center = rng.standard_normal(n) * 0.3
    fac = factored_quadratic_constraint(spectrum, V, center, 1.4)
    dense = quadratic_constraint(fac.to_dense(), center, 1.4)
    X = rng.standard_normal((6, n))
    assert_allclose(fac.eval(X), dense.eval(X), rtol=1e-10, atol=1e-12)
    assert_allclose(fac.grad(X), dense.grad(X), rtol=1e-10, atol=1e-12)
    assert fac.spectral_norm == pytest.approx(1.0)
    eigs = np.linalg.eigvalsh(fac.to_dense())
    assert_allclose(np.sort(eigs), np.sort(spectrum), rtol=1e-9, atol=1e-12)


def _nearly_parallel(rng, n):
    v = rng.standard_normal(n)
    return np.column_stack([v, v + 1e-9 * rng.standard_normal(n)])


@pytest.mark.parametrize("J", [0, 1, 5, 12, 20, "nearly-parallel"])
def test_wy_factor_is_the_reflector_product(rng, J):
    n = 12
    V = _nearly_parallel(rng, n) if J == "nearly-parallel" else rng.standard_normal((n, J))
    V_before = V.copy()
    fac = factored_quadratic_constraint(rng.uniform(0.1, 1.0, n), V, np.zeros(n), 1.0)
    Y, T, _ = fac.wy
    product = np.eye(n)
    for v in V.T:
        v = v / np.linalg.norm(v)
        product = product @ (np.eye(n) - 2.0 * np.outer(v, v))
    Q = np.eye(n) - Y @ T @ Y.T
    assert_allclose(Q, product, rtol=0, atol=1e-12)
    assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-12)
    assert np.array_equal(T, np.triu(T))
    assert not Y.flags.writeable and not T.flags.writeable
    assert np.array_equal(V, V_before)


def test_constructors_refuse_non_finite_data():
    n, nan, inf = 3, float("nan"), float("inf")
    spectrum, V, center = np.ones(n), np.eye(n)[:, :2], np.zeros(n)
    factored_quadratic_constraint(spectrum, V, center, 1.0)  # finite data builds
    quadratic_constraint(np.eye(n), center, 1.0)
    factored = [
        ([1.0, nan, 1.0], V, center, 1.0),
        ([1.0, inf, 1.0], V, center, 1.0),
        (spectrum, V, [0.0, nan, 0.0], 1.0),
        (spectrum, V, [0.0, inf, 0.0], 1.0),
        (spectrum, V, center, inf),
        (spectrum, V, center, nan),
        (spectrum, np.array([[1.0, 0.0], [nan, 0.0], [0.0, 1.0]]), center, 1.0),
    ]
    for args in factored:
        with pytest.raises(ContractViolation):
            factored_quadratic_constraint(*args)
    dense = [
        (np.diag([1.0, inf, 1.0]), center, 1.0),
        (np.diag([1.0, nan, 1.0]), center, 1.0),
        (np.eye(n), [0.0, nan, 0.0], 1.0),
        (np.eye(n), [inf, 0.0, 0.0], 1.0),
        (np.eye(n), center, inf),
    ]
    for args in dense:
        with pytest.raises(ContractViolation):
            quadratic_constraint(*args)
    for G, L in ((inf, 1.0), (nan, 1.0), (1.0, inf)):
        with pytest.raises(ContractViolation):
            model.ConstraintOracle(eval=np.sum, grad=np.sign, lipschitz_G=G, smoothness_L=L)


def test_problem_validation():
    with pytest.raises(ContractViolation):
        ProjectionProblem(x0=np.array([1.0]), constraints=(), R=1.0)
    for R in (0.5, np.inf, np.nan):
        with pytest.raises(ContractViolation):
            unit_ball_problem([2.0, 0.0], R=R)
    with pytest.raises(ContractViolation):
        SolverConfig(epsilon=1e-3, epsilon_tilde_override=1e-2)
    with pytest.raises(ContractViolation):
        SolverConfig(epsilon=1e-3, engine="newton")
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ContractViolation):
            SolverConfig(epsilon=eps)


def test_solver_counts_must_be_integers():
    # a float count would pass the range checks and fail later in range();
    # bool is an int subclass
    for field in ("max_outer_iterations", "max_doubling_rounds"):
        for bad in (2.5, 1.5, 3.0, True, "3"):
            with pytest.raises(ContractViolation):
                SolverConfig(epsilon=1e-3, **{field: bad})
    config = SolverConfig(epsilon=1e-3, max_outer_iterations=np.int64(5), max_doubling_rounds=2)
    assert config.max_outer_iterations == 5


def test_quadratic_problem_needs_a_constraint():
    with pytest.raises(ContractViolation, match="at least one constraint"):
        quadratic_problem(np.array([2.0, 0.0]), [], R=4.0)


def test_quadratic_whose_dimension_differs_from_x0_is_refused():
    x0 = np.array([2.0, 0.0])
    ball2 = quadratic_constraint(np.eye(2), np.zeros(2), 1.0)
    ball3 = quadratic_constraint(np.eye(3), np.zeros(3), 1.0)
    quadratic_problem(x0, [ball2], R=4.0)  # matching dimensions load
    for quads in ([ball3], [ball2, ball3]):
        with pytest.raises(ContractViolation):
            quadratic_problem(x0, quads, R=4.0)


class _LinalgSpy:
    """Stands in for ``np.linalg``, logging (function, ndim of first argument)."""

    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        fn = getattr(np.linalg, name)
        if isinstance(fn, type) or not callable(fn):
            return fn

        def spy(*args, **kwargs):
            self._calls.append((name, np.ndim(args[0]) if args else None))
            return fn(*args, **kwargs)

        return spy


class _NumpySpy:
    def __init__(self, linalg):
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


def test_dense_load_runs_one_eigendecomposition_per_constraint(rng, monkeypatch):
    quads = [
        quadratic_constraint(random_psd(rng, 6), rng.standard_normal(6) * 0.3, 1.0),
        quadratic_constraint(random_psd(rng, 6), rng.standard_normal(6) * 0.3, 1.5),
    ]
    doc = problem_to_json(quadratic_problem(rng.standard_normal(6), quads, R=3.0))
    calls = []
    monkeypatch.setattr(model, "np", _NumpySpy(_LinalgSpy(calls)))
    problem_from_json(doc)
    assert [name for name, _ in calls].count("eigvalsh") == 2
    # Besides that, only the O(n) norms of x0 and the centers may run: no
    # Cholesky, no SVD, no matrix norm.
    assert all(name == "norm" and ndim == 1 for name, ndim in calls if name != "eigvalsh")


def test_quadratic_constraint_psd_boundary():
    quadratic_constraint(np.diag([1.0, 0.0, 0.0]), np.zeros(3), 1.0)
    with pytest.raises(ContractViolation):
        quadratic_constraint(np.diag([1.0, 0.5, -1e-6]), np.zeros(3), 1.0)


def test_spectral_norm_matches_matrix_two_norm(rng):
    for n in (1, 3, 8):
        A = random_psd(rng, n, spectrum=rng.uniform(0.0, 5.0, n))
        quad = quadratic_constraint(A, np.zeros(n), 1.0)
        expected = np.linalg.norm(quad.A, 2)
        assert quad.spectral_norm == pytest.approx(expected, rel=1e-12)


def test_quadratic_problem_reuses_dense_oracles(rng):
    quads = [
        quadratic_constraint(random_psd(rng, 4), rng.standard_normal(4) * 0.3, 1.0),
        quadratic_constraint(random_psd(rng, 4), rng.standard_normal(4) * 0.3, 2.0),
    ]
    x0 = rng.standard_normal(4)
    prob = quadratic_problem(x0, quads, R=2.0)
    rho = quadratic_working_radius(x0, quads)
    for q, p in zip(quads, prob.constraints):
        assert p.eval is q.eval and p.grad is q.grad
        assert p.lipschitz_G == 2.0 * q.spectral_norm * rho
