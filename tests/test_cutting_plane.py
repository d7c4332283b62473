import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastproj import cutting_plane
from fastproj.cutting_plane import (
    ITP_N0,
    CutTrace,
    DualBox,
    EllipsoidState,
    _secular_root,
    bisection_maximize,
    central_cut_log_factor,
    cutting_plane_maximize,
    ellipsoid_update,
    log_unit_ball_volume,
    polygon_centroid,
    polygon_cut,
    round_budget,
    separation_oracle_box,
)
from fastproj.dual_oracle import InnerSolves, OracleTriple, approx_dual_oracle
from fastproj.model import (
    ContractViolation,
    NumericalFailure,
    quadratic_constraint,
    quadratic_problem,
)
from fastproj.projector import certified

from conftest import ball_dual_value, unit_ball_problem


# ---------------------------------------------------------------- separation


def test_separation_components():
    R = 3.0
    assert_allclose(separation_oracle_box(np.array([R + 1.0, R / 2.0]), R), [1.0, 0.0])
    assert_allclose(separation_oracle_box(np.array([-0.1, R + 0.1]), R), [-1.0, 1.0])


def test_separation_rejects_interior_point():
    with pytest.raises(ContractViolation):
        separation_oracle_box(np.array([1.0, 1.0]), 3.0)


def test_separation_keeps_every_box_corner(rng):
    R = 2.0
    corners = np.array([[a, b] for a in (0.0, R) for b in (0.0, R)])
    for _ in range(50):
        lam = rng.uniform(-2.0, 2.0 + R, 2)
        if np.all(lam >= 0) and np.all(lam <= R):
            continue
        w = separation_oracle_box(lam, R)
        assert np.all(corners @ w - float(w @ lam) <= 1e-12)


# ------------------------------------------------------------------ ellipsoid


def shape(state):
    """The localizer matrix ``Q = B B^T`` of an ellipsoid state."""
    return state.factor @ state.factor.T


def test_central_cut_matches_hand_computation():
    state = EllipsoidState(center=np.zeros(2), factor=np.linalg.cholesky(np.eye(2)))
    new = ellipsoid_update(state, np.array([1.0, 0.0]))
    assert_allclose(new.center, [-1.0 / 3.0, 0.0])
    assert_allclose(shape(new), np.diag([4.0 / 9.0, 4.0 / 3.0]), rtol=1e-12)


def test_ellipsoid_refuses_one_multiplier():
    # at m = 1 a central cut is interval halving, which bisection_maximize
    # does; the general formula would divide by m^2 - 1 = 0
    state = EllipsoidState(center=np.array([2.0]), factor=np.array([[2.0]]))
    with pytest.raises(ContractViolation):
        ellipsoid_update(state, np.array([1.0]))
    with pytest.raises(ContractViolation):
        central_cut_log_factor(1)


def test_volume_ratio_two_dimensions():
    # (m/(m+1)) (m^2/(m^2-1))^{(m-1)/2} for m = 2
    expected = (2.0 / 3.0) * math.sqrt(4.0 / 3.0)
    assert math.exp(central_cut_log_factor(2)) == pytest.approx(expected, rel=1e-12)
    assert expected <= math.exp(-1.0 / 6.0)


def test_update_tracks_determinant_volume(rng):
    state = EllipsoidState(center=np.zeros(3), factor=np.linalg.cholesky(np.eye(3) * 2.0))
    logdet0 = np.linalg.slogdet(shape(state))[1]
    for _ in range(25):
        w = rng.standard_normal(3)
        state = ellipsoid_update(state, w)
    logdet = np.linalg.slogdet(shape(state))[1]
    assert 0.5 * (logdet - logdet0) == pytest.approx(25 * central_cut_log_factor(3), abs=1e-9)


def test_kept_half_is_contained(rng):
    state = EllipsoidState(center=rng.standard_normal(2), factor=np.linalg.cholesky(np.eye(2)))
    w = rng.standard_normal(2)
    new = ellipsoid_update(state, w)
    # sample the old ellipsoid uniformly, keep the cut side, check membership
    u = rng.standard_normal((10_000, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= np.sqrt(rng.uniform(0.0, 1.0, (10_000, 1)))
    pts = state.center + u @ np.linalg.cholesky(shape(state)).T
    kept = pts[(pts - state.center) @ w <= 0.0]
    diff = kept - new.center
    quad = np.einsum("ki,ij,kj->k", diff, np.linalg.inv(shape(new)), diff)
    assert np.max(quad) <= 1.0 + 1e-9


def test_update_rejects_zero_direction():
    state = EllipsoidState(center=np.zeros(2), factor=np.linalg.cholesky(np.eye(2)))
    with pytest.raises(ContractViolation):
        ellipsoid_update(state, np.zeros(2))


# ------------------------------------------------------------------- maximize


def run_engine(d, grad, box, T):
    _, lam_bar, trace = cutting_plane_maximize(
        oracle=lambda lam: OracleTriple(lam, np.atleast_1d(grad(lam)), d(lam)),
        box=box,
        T=T,
    )
    return lam_bar, trace


def test_one_dim_quadratic_exact_oracles():
    box = DualBox(R=4.0, m=1)
    d = lambda lam: -((float(lam[0]) - 1.0) ** 2)
    grad = lambda lam: -2.0 * (float(lam[0]) - 1.0)
    lam_bar, _ = run_engine(d, grad, box, 40)
    assert abs(lam_bar[0] - 1.0) <= 1e-6


def test_zero_gradient_short_circuit():
    box = DualBox(R=4.0, m=2)
    target = np.array([2.0, 2.0])
    d = lambda lam: -float((lam - target) @ (lam - target))
    grad = lambda lam: -2.0 * (lam - target)
    lam_bar, trace = run_engine(d, grad, box, 40)
    # the lam = 0 round, then the box center, which is already stationary
    assert len(trace) == 2
    assert_allclose(lam_bar, target)


def test_ellipsoid_opens_at_lam_zero():
    # the dual falls away from lam = 0, so no later center beats the first
    # round's value, which seeds the best value
    box = DualBox(R=4.0, m=3)
    target = np.array([-1.0, -0.5, -0.7])
    calls = []

    def oracle(lam):
        calls.append(np.array(lam))
        return OracleTriple(lam, -2.0 * (lam - target), -float((lam - target) @ (lam - target)))

    triple, lam_bar, trace = cutting_plane_maximize(oracle, box, 30)
    assert len(trace) == 31 and len(calls) == sum(trace.in_box)
    assert not np.any(trace.lam[0]) and not np.any(lam_bar)
    assert triple.v == oracle(np.zeros(3)).v
    # stop is tested at lam = 0, and T = 0 leaves only that round
    for T, stop in ((30, lambda lam, t: True), (0, None)):
        calls.clear()
        _, lam_bar, trace = cutting_plane_maximize(oracle, box, T, stop)
        assert len(trace) == len(calls) == 1 and not np.any(lam_bar)


def test_polygon_opens_at_lam_zero():
    # the dual falls away from lam = 0 into both multipliers, so the cut
    # through lam = 0 keeps only that corner of the box and the run ends
    # there; stop is tested at lam = 0, and T = 0 leaves only that round
    box = DualBox(R=4.0, m=2)
    target = np.array([-1.0, -0.5])
    calls = []

    def oracle(lam):
        calls.append(np.array(lam))
        return OracleTriple(lam, -2.0 * (lam - target), -float((lam - target) @ (lam - target)))

    for T, stop in ((30, None), (30, lambda lam, t: True), (0, None)):
        calls.clear()
        triple, lam_bar, trace = cutting_plane_maximize(oracle, box, T, stop)
        assert len(trace) == len(calls) == 1 and not np.any(lam_bar)
        assert triple.v == oracle(np.zeros(2)).v


def test_ellipsoid_never_calls_the_curvature():
    # project passes its curvature at every m; the ellipsoid never calls it
    def curvature():
        pytest.fail("the ellipsoid called curvature")

    target = np.linspace(0.7, 1.9, 3)
    oracle = lambda lam: OracleTriple(
        lam, -2.0 * (lam - target), -float((lam - target) @ (lam - target))
    )
    _, lam_bar, trace = cutting_plane_maximize(oracle, DualBox(R=4.0, m=3), 40, curvature=curvature)
    assert len(trace) == 41
    assert_allclose(lam_bar, target, atol=0.1)


def test_polygon_calls_the_curvature_once_after_lam_zero():
    # the dual -||lam - target||^2 has curvature 2I, so the model's first
    # query, the Newton step from lam = 0, is the maximizer itself, where g
    # vanishes and the run ends
    target = np.array([0.7, 1.9])
    calls = []
    oracle = lambda lam: calls.append(np.array(lam)) or OracleTriple(
        lam, -2.0 * (lam - target), -float((lam - target) @ (lam - target))
    )
    curvature = lambda: calls.append("curvature") or 2.0 * np.eye(2)
    _, lam_bar, trace = cutting_plane_maximize(oracle, DualBox(R=4.0, m=2), 40, curvature=curvature)
    assert calls[1] == "curvature" and not np.any(calls[0]) and len(calls) == 3
    assert len(trace) == 2 and np.array_equal(lam_bar, target)
    # not when lam = 0 ends the run: on a stop there, a vanishing gradient,
    # or no rounds
    at_zero = lambda lam: OracleTriple(lam, np.zeros(2), 0.0)
    for oracle, T, stop in ((oracle, 40, lambda lam, t: True), (at_zero, 40, None), (oracle, 0, None)):
        calls.clear()
        cutting_plane_maximize(oracle, DualBox(R=4.0, m=2), T, stop, curvature)
        assert not any(isinstance(call, str) for call in calls)


def test_linear_objective_drives_to_corner():
    R, m, eps = 2.0, 2, 1e-3
    box = DualBox(R=R, m=m)
    a = np.array([1.0, 0.5])
    d = lambda lam: float(a @ lam)
    grad = lambda lam: a
    d_star = d(np.array([R, R]))
    # value gap within 4 eps at the budget from the approximate-oracle bound,
    # using a side-eps/|a| box inside the near-optimal corner region
    side = eps / float(np.linalg.norm(a, 1))
    log_vol_initial = log_unit_ball_volume(m) + m * math.log(math.sqrt(m) * R / 2.0)
    T = math.ceil((log_vol_initial - m * math.log(side)) / -central_cut_log_factor(m)) + 1
    lam_bar, _ = run_engine(d, grad, box, T)
    assert d_star - d(lam_bar) <= 4.0 * eps


def test_localizer_soundness_along_a_run(rng):
    # replay a run, checking the kept half of M_t lands inside M_{t+1}
    box = DualBox(R=2.0, m=3)
    target = np.array([1.3, 0.4, 1.7])
    state = EllipsoidState(
        center=box.center(), factor=np.linalg.cholesky(3 * (box.R / 2.0) ** 2 * np.eye(3))
    )
    for _ in range(30):
        lam = state.center
        w = (
            -(-2.0 * (lam - target))
            if box.contains(lam)
            else separation_oracle_box(lam, box.R)
        )
        w = np.asarray(w)
        if not np.any(w):
            break
        new = ellipsoid_update(state, w)
        u = rng.standard_normal((1000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u *= rng.uniform(0.0, 1.0, (1000, 1)) ** (1.0 / 3.0)
        pts = state.center + u @ np.linalg.cholesky(shape(state)).T
        kept = pts[(pts - lam) @ w <= 0.0]
        diff = kept - new.center
        quad = np.einsum("ki,ij,kj->k", diff, np.linalg.inv(shape(new)), diff)
        assert np.max(quad) <= 1.0 + 1e-9
        state = new


def test_volume_decay_rate():
    box = DualBox(R=4.0, m=3)
    target = np.array([2.7, 1.1, 3.2])
    d = lambda lam: -float((lam - target) @ (lam - target))
    grad = lambda lam: -2.0 * (lam - target)
    _, trace = run_engine(d, grad, box, 60)
    # the lam = 0 round makes no cut; every round after it cuts
    log_volume = np.array(trace.log_volume[1:])
    assert np.all(np.diff(log_volume) < 0)
    total = log_volume[0] - log_volume[-1]
    assert total >= (log_volume.size - 1) / (2.0 * (box.m + 1.0)) - 1e-9


def test_triple_oracle_called_once_per_in_box_round():
    # the m = 3 target sits near a corner, so some ellipsoid centers leave
    # the box; m = 2 runs the polygon, which never leaves it, and m = 1 the
    # bisection engine
    for target in ([3.9, 0.2, 0.1], [3.9, 0.2], [3.9]):
        target = np.array(target)
        box = DualBox(R=4.0, m=target.size)
        queried = []

        def oracle(lam):
            assert box.contains(lam), f"m = {box.m} queried the oracle outside the box"
            queried.append(np.array(lam))
            return OracleTriple(lam, -2.0 * (lam - target), -float((lam - target) @ (lam - target)))

        _, _, trace = cutting_plane_maximize(oracle, box, 40)
        in_box = [lam for lam, inside in zip(trace.lam, trace.in_box) if inside]
        assert len(queried) == len(in_box)
        assert all(np.array_equal(q, lam) for q, lam in zip(queried, in_box))
        assert not np.any(queried[0])  # every engine opens at lam = 0
        if box.m == 3:
            assert not all(trace.in_box)
        else:
            assert all(trace.in_box)


def test_noisy_oracle_value_gap(rng):
    # injected worst-case oracle noise still yields a 4 eps-optimal output,
    # from the polygon (m = 2) and the ellipsoid (m = 3), each on the budget
    # its own volume factor gives
    eps, R = 1e-3, 3.0
    failures = 0
    for m in (2, 3) * 10:
        box = DualBox(R=R, m=m)
        a = float(rng.uniform(0.5, 2.0))
        target = rng.uniform(0.3 * R, 0.7 * R, m)
        d_true = lambda lam: -a * float((lam - target) @ (lam - target))
        eps_g = eps / (R * math.sqrt(m))
        eps_v = eps
        def noisy_grad(lam):
            u = rng.standard_normal(m)
            return -2.0 * a * (lam - target) + eps_g * u / np.linalg.norm(u)
        def noisy_value(lam):
            return d_true(lam) + eps_v * float(rng.choice([-1.0, 1.0]))
        side = min(math.sqrt(eps / (a * m)), 0.1 * R)
        if m == 2:
            T = math.floor(2.0 * math.log(R / side) / math.log(9.0 / 5.0)) + 1
        else:
            log_vol_initial = log_unit_ball_volume(m) + m * math.log(math.sqrt(m) * R / 2.0)
            T = math.ceil((log_vol_initial - m * math.log(side)) / -central_cut_log_factor(m)) + 1
        _, lam_bar, _ = cutting_plane_maximize(
            lambda lam: OracleTriple(lam, noisy_grad(lam), noisy_value(lam)),
            box,
            T,
        )
        if -d_true(lam_bar) > 4.0 * eps:
            failures += 1
    assert failures == 0


# -------------------------------------------------------------------- polygon


def _inside(polygon, point, tol=1e-12):
    """Whether a point lies in a counterclockwise convex polygon, to tol."""
    polygon = np.asarray(polygon)
    edges = np.roll(polygon, -1, axis=0) - polygon
    rel = point - polygon
    return bool(np.all(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0] >= -tol))


def test_polygon_cut_through_the_centroid_by_hand():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    area, centroid = polygon_centroid(square)
    assert area == 1.0 and np.array_equal(centroid, [0.5, 0.5])
    half = polygon_cut(square, np.array([1.0, 0.0]), centroid)
    area, centroid = polygon_centroid(half)
    assert area == 0.5 and np.array_equal(centroid, [0.75, 0.5])
    # a diagonal cut through a corner keeps a triangle; one that misses the
    # square keeps all of it, or only a vertex
    triangle = polygon_cut(square, np.array([1.0, -1.0]), np.zeros(2))
    assert len(triangle) == 3 and polygon_centroid(triangle)[0] == 0.5
    assert np.array_equal(polygon_cut(square, np.ones(2), np.zeros(2)), square)
    assert len(polygon_cut(square, -np.ones(2), np.zeros(2))) == 1
    assert polygon_cut(square, np.ones(2), (3.0, 3.0)) == []


def _exact_run(target, box, T, stop=None):
    oracle = lambda lam: OracleTriple(
        lam, -2.0 * (lam - target), -float((lam - target) @ (lam - target))
    )
    return cutting_plane_maximize(oracle, box, T, stop)


def test_polygon_area_falls_by_grunbaum_factor_per_cut():
    box = DualBox(R=4.0, m=2)
    for target in ([2.7, 1.1], [3.9, 0.2], [5.0, -1.0], [0.1, 0.05]):
        _, _, trace = _exact_run(np.array(target), box, 60)
        # lam = 0 sees the box, R^2; the first centroid sees what the cut
        # through lam = 0 kept, and each centroid cut after keeps <= 5/9
        assert trace.log_volume[0] == 2.0 * math.log(box.R)
        assert trace.log_volume[1] <= trace.log_volume[0]
        drops = np.diff(trace.log_volume[1:])
        assert len(drops) >= 20, target
        assert np.all(drops <= -math.log(9.0 / 5.0) + 1e-9), target


def test_polygon_keeps_the_maximizer_along_a_run():
    # replay each run's cuts: with exact oracles the box's maximizer, the
    # target clipped to the box, stays in the polygon, and every query is
    # the polygon's centroid
    box = DualBox(R=4.0, m=2)
    for target in ([2.7, 1.1], [3.9, 0.2], [5.0, -1.0], [0.1, 0.05], [-1.0, 2.0]):
        target = np.array(target)
        maximizer = np.clip(target, 0.0, box.R) / box.R
        _, _, trace = _exact_run(target, box, 40)
        polygon = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        for t, (lam, w) in enumerate(zip(trace.lam, trace.w)):
            if t > 0:
                area, centroid = polygon_centroid(polygon)
                assert_allclose(lam, box.R * np.array(centroid), rtol=0.0, atol=1e-14)
                assert trace.log_volume[t] == pytest.approx(2.0 * math.log(box.R) + math.log(area))
            polygon = polygon_cut(polygon, -w, lam / box.R)
            assert _inside(polygon, maximizer), (target, t)


def test_polygon_queries_stay_in_the_box(rng):
    # targets on, near and beyond the box's faces and corners, and a linear
    # dual, run until the polygon reaches float resolution
    R = 3.0
    box = DualBox(R=R, m=2)
    targets = [rng.uniform(-1.0, R + 1.0, 2) for _ in range(20)]
    targets += [np.array(t) for t in ([R, R], [0.0, R], [R, 1e-300], [R + 1e-9, 0.5])]
    for target in targets:
        _, _, trace = _exact_run(target, box, 400)
        assert all(trace.in_box)
        assert all(box.contains(lam) for lam in trace.lam), target
    a = np.array([1.0, 0.5])
    _, lam_bar, trace = cutting_plane_maximize(lambda lam: OracleTriple(lam, a, float(a @ lam)), box, 400)
    assert all(box.contains(lam) for lam in trace.lam)
    assert len(trace) < 401  # the area floor ends the run
    assert float(a @ lam_bar) >= float(a @ np.full(2, R)) - 1e-9


def test_polygon_stops_at_the_first_certified_query():
    # a two-constraint problem on its real oracle whose second constraint is
    # slack at the optimum: no round before the first certified centroid
    # passes the certificate, and the run returns that centroid and ends
    eps = 1e-3
    quads = [
        quadratic_constraint(np.eye(2), np.zeros(2), 1.0),
        quadratic_constraint(np.diag([1.0, 3.0]), np.array([0.4, 0.0]), 1.2),
    ]
    prob = quadratic_problem(np.array([2.0, 0.8]), quads, R=4.0)
    solves = InnerSolves(prob, 0.0, 1e-12)
    oracle = lambda lam: approx_dual_oracle(solves, lam)
    stop = lambda lam, triple: certified(lam, triple, eps)
    triple, lam_bar, trace = cutting_plane_maximize(oracle, DualBox(R=4.0, m=2), 200, stop)
    passes = [
        certified(lam, OracleTriple(None, -w, 0.0), eps) for lam, w in zip(trace.lam, trace.w)
    ]
    first = passes.index(True)
    assert 2 < first and len(trace) == first + 1
    assert certified(lam_bar, triple, eps) and np.array_equal(lam_bar, trace.lam[first])
    # a predicate that holds only at the third query: the run returns that
    # query, and no round comes after it
    asked = []
    stop_third = lambda lam, triple: asked.append(lam) or len(asked) == 3
    _, lam_bar, trace = cutting_plane_maximize(oracle, DualBox(R=4.0, m=2), 200, stop_third)
    assert np.array_equal(lam_bar, asked[2]) and np.array_equal(trace.lam[2], asked[2])
    assert len(trace) == len(asked) == 3


def _face_oracle(target, coupling=0.0):
    # the exact oracle of -(lam - target) . H (lam - target) on [0, 4]^2, H
    # with unit diagonal and the given coupling
    H = np.array([[1.0, coupling], [coupling, 1.0]])
    target = np.array(target)
    return lambda lam: OracleTriple(
        lam, -2.0 * H @ (lam - target), -float((lam - target) @ H @ (lam - target))
    )


def test_polygon_model_puts_a_slack_multiplier_at_exactly_zero():
    # given the exact curvature -Hess d = 2 H, the model is the dual itself:
    # its first query is the box maximizer, on the face where the slack
    # constraint's multiplier is exactly 0, and that query is certified
    stop = lambda lam, triple: max(triple.g) <= 1e-9 and -float(lam @ triple.g) <= 1e-9
    for target, coupling, expected in (
        ([2.0, -0.5], 0.0, [2.0, 0.0]),
        ([-0.5, 2.0], 0.0, [0.0, 2.0]),
        ([2.0, -0.1], 0.5, [1.95, 0.0]),
    ):
        H = np.array([[1.0, coupling], [coupling, 1.0]])
        oracle = _face_oracle(target, coupling)
        _, lam_bar, trace = cutting_plane_maximize(
            oracle, DualBox(R=4.0, m=2), 200, stop, curvature=lambda: 2.0 * H
        )
        assert len(trace) == 2 and np.array_equal(lam_bar, trace.lam[-1]), target
        assert_allclose(lam_bar, expected, rtol=1e-12, atol=0.0)
        assert min(lam_bar) == 0.0, target


def test_polygon_failure_carries_the_rounds_before_it():
    # an oracle that fails at its k-th query past lam = 0 raises with the
    # trace of the k rounds before it, lam = 0 among them, on a centroid run
    # and on a model run, whose curvature misses the coupling so that it
    # takes six rounds
    exact = _face_oracle([2.7, 1.1], coupling=0.3)
    for curvature in (None, lambda: 2.0 * np.eye(2)):
        for k in (1, 2, 5):
            queries = []

            def oracle(lam):
                if len(queries) == k:
                    raise NumericalFailure("inner solve failed", payload=lam)
                queries.append(lam)
                return exact(lam)

            with pytest.raises(NumericalFailure) as info:
                cutting_plane_maximize(oracle, DualBox(R=4.0, m=2), 30, curvature=curvature)
            trace = info.value.trace
            assert len(trace) == k and np.array_equal(trace.lam[0], [0.0, 0.0]), k
            assert all(np.array_equal(a, b) for a, b in zip(trace.lam, queries[:k])), k


def test_polygon_with_a_singular_curvature_queries_centroids():
    # a curvature without full rank, or not finite, gives the model no
    # maximizer: the run is the centroid run, round for round
    target = np.array([2.7, 1.1])
    oracle = _face_oracle(target, coupling=0.3)
    box = DualBox(R=4.0, m=2)
    _, lam_c, centroids = cutting_plane_maximize(oracle, box, 30)
    for H in ([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)), [[math.nan, 0.0], [0.0, 1.0]]):
        _, lam_bar, trace = cutting_plane_maximize(oracle, box, 30, curvature=lambda: H)
        assert np.array_equal(lam_bar, lam_c) and len(trace) == len(centroids)
        assert all(np.array_equal(a, b) for a, b in zip(trace.lam, centroids.lam))


def test_polygon_area_schedule_survives_a_model_that_cuts_nothing(monkeypatch):
    # an adversarial model whose every point is the polygon's vertex lowest
    # along the last query's g, so a cut through it keeps the whole polygon:
    # the area schedule still forces enough centroid cuts that each round
    # sees an area within (5/9)^(t - ITP_N0 - 1), and round_budget's rounds
    # leave an area below r^2
    def hug(self, R, polygon):
        (_, _), _, (g1, g2) = self.last
        return list(min(polygon, key=lambda p: g1 * p[0] + g2 * p[1]))

    monkeypatch.setattr(cutting_plane._DualModel, "query", hug)
    R, eps, G = 4.0, 1e-3, 1.0
    r = min(eps, math.sqrt(eps)) / (2 * 2 * G)
    T = round_budget(2, R, eps, G, 10**6)
    for target in ([2.7, 1.1], [3.9, 0.2], [0.1, 0.05]):
        oracle = _face_oracle(target, coupling=0.3)
        curvature = lambda: 2.0 * np.eye(2)
        _, _, trace = cutting_plane_maximize(oracle, DualBox(R=R, m=2), T, curvature=curvature)
        assert len(trace) == T + 1, target
        log_cut = math.log(5.0 / 9.0)
        unit_areas = [lv - 2.0 * math.log(R) for lv in trace.log_volume[1:]]
        assert all(a <= (t - ITP_N0 - 1) * log_cut + 1e-9 for t, a in enumerate(unit_areas))
        polygon = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        vertex_queries = 0
        for lam, w in zip(trace.lam, trace.w):
            vertex_queries += any(np.array_equal(lam / R, p) for p in polygon)
            polygon = polygon_cut(polygon, -w, lam / R)
        assert vertex_queries > ITP_N0, target  # the adversary was let in
        assert polygon_centroid(polygon)[0] * R * R <= r * r, target


def test_polygon_budget_is_finite_up_to_the_largest_float():
    # the first k with R^2 (5/9)^k < r^2, r = min(eps, sqrt(eps)) / (2 m G),
    # and ITP_N0 + 1 rounds for the model queries the area schedule allows
    eps, G = 1e-3, 10.0
    r = eps / (4.0 * G)
    for R in (4.0, 1e50, 1e200, 1e300, 1.7e308):
        expected = math.floor(2.0 * (math.log(R) - math.log(r)) / math.log(9.0 / 5.0)) + 1
        expected += ITP_N0 + 1
        assert round_budget(2, R, eps, G, 10**9) == expected < 3000, R


# ------------------------------------------------------------------ bisection


def test_bisection_converges_to_ball_multiplier():
    prob = unit_ball_problem([2.0, 0.0], R=4.0)
    T = 30
    solves = InnerSolves(prob, 0.0, 1e-12)
    oracle = lambda lam: approx_dual_oracle(solves, np.array([lam]))
    triple_tau, lam_tau, trace = bisection_maximize(oracle, 4.0, T)
    assert abs(lam_tau - 1.0) <= 4.0 * 2.0**-T + 1e-6
    assert_allclose(triple_tau.x_lambda, [1.0, 0.0], atol=1e-4)
    assert len(trace) == T


def test_bisection_feasible_point_drives_lambda_to_zero():
    prob = unit_ball_problem([0.3, 0.1], R=2.0)
    solves = InnerSolves(prob, 0.0, 1e-12)
    oracle = lambda lam: approx_dual_oracle(solves, np.array([lam]))
    triple_tau, lam_tau, _ = bisection_maximize(oracle, 2.0, 25)
    assert lam_tau <= 2.0 * 2.0**-24
    assert_allclose(triple_tau.x_lambda, prob.x0, atol=1e-5)


def test_bisection_value_trace_is_unimodal_on_ball():
    x0 = np.array([2.0, 0.0])
    prob = unit_ball_problem(x0, R=4.0)
    solves = InnerSolves(prob, 0.0, 1e-12)
    oracle = lambda lam: approx_dual_oracle(solves, np.array([lam]))
    _, _, trace = bisection_maximize(oracle, 4.0, 20)
    lams = np.array([l[0] for l in trace.lam])
    assert np.allclose(
        trace.v, [ball_dual_value(x0, l) for l in lams], atol=1e-9
    )
    order = np.argsort(lams)
    vals = np.array(trace.v)[order]
    peak = int(np.argmax(vals))
    assert np.all(np.diff(vals[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(vals[peak:]) <= 1e-12)


def test_bisection_stops_where_the_predicate_holds():
    prob = unit_ball_problem([2.0, 0.0], R=4.0)
    solves = InnerSolves(prob, 0.0, 1e-12)
    oracle = lambda lam: approx_dual_oracle(solves, np.array([lam]))
    asked = []

    def stop(mid, triple):
        asked.append(mid)
        return len(asked) == 3

    triple, lam, trace = bisection_maximize(oracle, 4.0, 30, stop)
    assert len(trace) == 3 and lam == asked[-1] == trace.lam[-1][0]
    assert np.array_equal(triple.x_lambda, oracle(lam).x_lambda)


def test_never_certified_oracle_runs_all_rounds():
    # g = 1 > eps everywhere: the certificate never holds, so the run keeps
    # its T rounds and its best-value answer
    oracle = lambda lam: OracleTriple(lam, np.array([1.0]), float(lam[0]))
    box, T = DualBox(R=4.0, m=1), 17
    plain = cutting_plane_maximize(oracle, box, T)
    stopped = cutting_plane_maximize(
        oracle, box, T, stop=lambda lam, t: certified(lam, t, 1e-3)
    )
    # the lam = 0 round comes first, then the T bracketing rounds
    assert len(plain[2]) == len(stopped[2]) == T + 1
    assert np.array_equal(plain[1], stopped[1])
    assert stopped[1][0] == 4.0 * (1.0 - 2.0**-T)


def test_bisection_bracket_keeps_maximizer_with_exact_signs():
    # Exact-sign derivatives, decreasing through lam_star.  "jump" changes
    # slope by a factor of 1e12 across lam_star; "flat" vanishes to ninth
    # order there, which stalls interpolation, so only the ITP clip keeps
    # its bracket within the bound.
    R, T = 4.0, 40
    shapes = {
        "concave": lambda lam, s: -math.expm1(lam - s),
        "convex": lambda lam, s: math.expm1(s - lam),
        "linear": lambda lam, s: s - lam,
        "jump": lambda lam, s: 1e6 * (s - lam) if lam < s else 1e-6 * (s - lam),
        "flat": lambda lam, s: math.copysign(abs(s - lam) ** 9, s - lam),
    }
    cases = [(name, g, lambda lam, s: -abs(lam - s)) for name, g in shapes.items()]
    # "jump" again with v the integral of g, which the secular model fits:
    # its first model query lands far from lam_star, and only the trust rule
    # keeps the next ones from crawling
    integral = lambda lam, s: -0.5e6 * (s - lam) ** 2 if lam < s else -0.5e-6 * (lam - s) ** 2
    cases.append(("jump, integral v", shapes["jump"], integral))
    for name, g, value in cases:
        for lam_star in (1e-3, 1.37, R - 1e-3):
            bracket = [0.0, R]
            queries = []

            def oracle(lam):
                lo, hi = bracket
                assert lo <= lam <= hi, (name, lam_star)
                queries.append(lam)
                slope = g(lam, lam_star)
                bracket[int(slope <= 0.0)] = lam  # g > 0 moves lo, else hi
                assert bracket[0] <= lam_star <= bracket[1], (name, lam_star)
                width_bound = R * 2.0 ** (ITP_N0 - len(queries)) + 4.0 * math.ulp(R)
                assert bracket[1] - bracket[0] <= width_bound, (name, lam_star)
                return OracleTriple(np.array([lam]), np.array([slope]), value(lam, lam_star))

            bisection_maximize(oracle, R, T)
            assert len(queries) == T
            if name != "flat" and lam_star == 1.37:
                # bisection needs 32 rounds to come within 1e-9
                close = [t for t, lam in enumerate(queries, 1) if abs(lam - lam_star) <= 1e-9]
                assert close[0] <= 12, (name, close[0])


def _ball_ends(a, b, s=2.0, z_sq=9.0, c=1.0):
    # the exact dual of one ball constraint, A = s I:
    # d(lam) = z_sq lam s/(1 + lam s) - lam c, d'(lam) = s z_sq/(1 + lam s)^2 - c
    d = lambda lam: z_sq * lam * s / (1.0 + lam * s) - lam * c
    g = lambda lam: s * z_sq / (1.0 + lam * s) ** 2 - c
    lam_star = (math.sqrt(s * z_sq / c) - 1.0) / s
    return (a, d(a), g(a)), (b, d(b), g(b)), lam_star


def test_secular_root_is_one_step_on_a_ball_dual():
    for a, b in ((0.0, 4.0), (0.0, 100.0), (1.0, 1.7), (1e-3, 2.5)):
        lo, hi, lam_star = _ball_ends(a, b)
        assert lo[2] > 0.0 > hi[2]
        assert _secular_root(lo, hi) == pytest.approx(lam_star, rel=1e-12, abs=0.0)


def test_secular_root_extrapolates_from_two_points_below_the_root():
    # both g > 0: the ball's model still holds, and its root lies beyond b
    lo, hi, lam_star = _ball_ends(0.0, 0.8)
    assert lo[2] > hi[2] > 0.0
    assert _secular_root(lo, hi) == pytest.approx(lam_star, rel=1e-12, abs=0.0)
    # a g that does not decrease has no model
    assert _secular_root((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)) is None


def test_secular_root_of_a_linear_g_is_the_secant_root():
    # g = 1.5 - lam with v its integral: rho = 1/2
    for a, b in ((0.5, 3.0), (0.0, 1.6), (1.2, 40.0)):
        lo = (a, 1.5 * a - 0.5 * a * a, 1.5 - a)
        hi = (b, 1.5 * b - 0.5 * b * b, 1.5 - b)
        secant = a + lo[2] * (b - a) / (lo[2] - hi[2])
        assert _secular_root(lo, hi) == pytest.approx(secant, rel=1e-12, abs=0.0)


def test_secular_root_refuses_values_the_model_cannot_fit():
    # rho = (g_a h - (v_b - v_a)) / ((g_a - g_b) h) with h = 1, g_a - g_b = 2
    for v_b, rho in ((5.0, -2.0), (1.0, 0.0), (-1.0, 1.0), (-5.0, 3.0)):
        assert _secular_root((0.0, 0.0, 1.0), (1.0, v_b, -1.0)) is None, rho


def test_bisection_origin_is_the_first_round_and_seeds_the_model():
    # on a ball's exact dual the origin fills the lower end and the first
    # bracketing round bisects; the model then lands on lam_star from the
    # two ends (R = 8) or by extrapolation from 0 and R/2 (R = 3)
    origin_end, _, lam_star = _ball_ends(0.0, 1.0)

    def oracle(lam):
        _, (_, v, g), _ = _ball_ends(0.0, lam)
        return OracleTriple(np.array([lam]), np.array([g]), v)

    origin = OracleTriple(np.array([0.0]), np.array([origin_end[2]]), origin_end[1])
    stop = lambda lam, t: abs(lam - lam_star) <= 1e-12 * lam_star
    for R in (8.0, 3.0):
        _, lam, trace = bisection_maximize(oracle, R, 30, stop, origin=origin)
        assert [l[0] for l in trace.lam][:2] == [0.0, R / 2]
        assert len(trace) == 3 and lam == trace.lam[-1][0]
    # an origin with g <= 0 leaves the bracket [0, 0]: the run returns it
    flat = OracleTriple(np.array([0.0]), np.array([-1.0]), 0.0)
    triple, lam, trace = bisection_maximize(oracle, 8.0, 30, origin=flat)
    assert triple is flat and lam == 0.0 and len(trace) == 1


def test_bisection_opens_with_the_newton_step_of_its_curvature():
    # the ball's d'(lam) = s z_sq/(1 + lam s)^2 - c has -d''(0) = 2 s^2 z_sq
    # = 72; round 2 sits at the Newton root g(0)/72, which undershoots the
    # convex d', and the model extrapolates from 0 and it onto lam_star
    origin_end, _, lam_star = _ball_ends(0.0, 1.0)

    def oracle(lam):
        _, (_, v, g), _ = _ball_ends(0.0, lam)
        return OracleTriple(np.array([lam]), np.array([g]), v)

    origin = OracleTriple(np.array([0.0]), np.array([origin_end[2]]), origin_end[1])
    stop = lambda lam, t: abs(lam - lam_star) <= 1e-12 * lam_star
    asked = []
    curvature = lambda: asked.append(72.0) or 72.0
    _, lam, trace = bisection_maximize(oracle, 8.0, 30, stop, origin, curvature)
    assert trace.lam[1][0] == origin_end[2] / 72.0 < lam_star
    assert len(trace) == 3 and lam == trace.lam[-1][0] and len(asked) == 1
    # a Newton root at R (17/2), beyond it (17/1) or none (curvature 0)
    # leaves the queries of a run without a curvature
    R = 8.5
    plain = [l[0] for l in bisection_maximize(oracle, R, 30, stop, origin)[2].lam]
    for c in (2.0, 1.0, 0.0):
        _, _, trace = bisection_maximize(oracle, R, 30, stop, origin, lambda: c)
        assert [l[0] for l in trace.lam] == plain, c
    # the curvature is not asked for when the run ends at lam = 0
    flat = OracleTriple(np.array([0.0]), np.array([-1.0]), 0.0)
    for start, stop_at in ((flat, None), (origin, lambda lam, t: True)):
        asked.clear()
        _, lam, trace = bisection_maximize(oracle, R, 30, stop_at, start, curvature)
        assert lam == 0.0 and len(trace) == 1 and not asked


def test_bisection_queries_R_when_the_model_root_lies_past_it():
    # R = 1.2 is below the ball's lam_star (about 1.62): the model fitted to
    # 0 and the midpoint 0.6 extrapolates past R, so round 3 queries R
    # itself, and g > 0 there ends the run at R, which maximizes d on [0, R]
    origin_end, _, lam_star = _ball_ends(0.0, 1.0)

    def oracle(lam):
        _, (_, v, g), _ = _ball_ends(0.0, lam)
        return OracleTriple(np.array([lam]), np.array([g]), v)

    origin = OracleTriple(np.array([0.0]), np.array([origin_end[2]]), origin_end[1])
    R = 1.2
    triple, lam, trace = bisection_maximize(oracle, R, 30, origin=origin)
    assert R < lam_star
    assert [l[0] for l in trace.lam] == [0.0, R / 2, R]
    assert lam == R and triple.g[0] > 0.0


def test_trace_csv_layout():
    trace = CutTrace()
    trace.append(True, np.array([0.5, 1.0]), np.array([1.0, 0.0]), -2.0, 1.5)
    trace.append(False, np.array([3.5, 1.0]), np.array([1.0, 0.0]), math.nan, 1.2)
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,in_box,lambda_0,lambda_1,v,grad_norm,log_volume"
    assert len(lines) == 3
    assert lines[1].startswith("1,1,0.5,1.0,-2.0,1.0,1.5")
    assert lines[2].startswith("2,0,3.5,1.0,nan,1.0,1.2")


def test_noisy_bisection_value_gap(rng):
    # with derivative-sign noise the bracket can lose the maximizer, but the
    # best-visited-value output still lands within the 4 eps gap
    eps, R = 1e-3, 4.0
    for _ in range(20):
        a = float(rng.uniform(0.5, 2.0))
        lam_star = float(rng.uniform(0.2 * R, 0.8 * R))
        d = lambda lam: -a * (float(lam[0]) - lam_star) ** 2
        eps_g = eps / R
        grad = lambda lam: np.array(
            [-2.0 * a * (float(lam[0]) - lam_star) + eps_g * float(rng.choice([-1.0, 1.0]))]
        )
        value = lambda lam: d(lam) + eps * float(rng.choice([-1.0, 1.0]))
        side = math.sqrt(eps / a)
        T = max(1, math.ceil(math.log2(R / side))) + 1
        _, lam_bar, _ = cutting_plane_maximize(
            lambda lam: OracleTriple(lam, grad(lam), value(lam)),
            DualBox(R=R, m=1), T,
        )
        assert -d(lam_bar) <= 4.0 * eps
