"""Cutting-plane maximization of a concave dual with approximate oracles.

All three engines query one oracle, ``lam -> OracleTriple``, exactly once
per in-box round; the triple's ``g`` and ``v`` are the approximate dual
gradient and value.  Out-of-box points are never queried.
``cutting_plane_maximize`` first queries lam = 0, where the inner problem is
solved by the query point itself, and then runs the engine the number of
multipliers m selects.  ``round_budget`` gives each engine's round budget
for a target accuracy.  Every engine keeps, with each cut, the half that is
guaranteed to contain every near-optimal dual point that has not already
been certified by a visited iterate; without an early stop it returns the
visited point with the best value estimate (ties broken by earliest visit),
with its triple.

For m >= 3 the localizer starts as an ellipsoid covering the dual box
``[0, R]^m`` and is cut through its center every round: with the negated
approximate gradient when the center lies in the box, with a box separation
vector otherwise.  The localizer volume shrinks by a fixed factor per cut,
so logarithmically many rounds suffice.

For m = 2 the localizer is kept exactly, as a convex polygon that starts as
the box and is clipped every round by the cut through the point it queried,
its centroid: the centre-of-gravity method (Levin 1965; Newman 1965).  By
Grünbaum's theorem (Pacific J. Math. 1960) a line through the centroid
leaves at most 5/9 of the area on either side, and the polygon never leaves
the box, so every round is a query, and the engine can stop on a caller's
predicate, such as a duality certificate, at any of them.  A centroid is
never on a face of the box, so the first centroid where the predicate holds
with a slack constraint is held as the answer, and the same loop's later
rounds query the face where that constraint's multiplier is 0, looking for
a point where the predicate holds with the multiplier exactly 0.  Each face
query cuts the polygon like a centroid, and the next one is the bracketing
search's interpolated root of the other multiplier's derivative, or the
midpoint of the polygon's segment on the face.

For m = 1, where a central cut is interval halving, a bracketing engine
takes its place.  It brackets the maximizer by the sign of the approximate
derivative and queries the root of a one-pole secular model of that
derivative fitted to two queries, the bracket ends once the sign has
changed (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983), falling back to
inverse interpolation and then to the midpoint, all under the ITP safeguard
(the bracket after bracketing round t is at most ``R 2^(ITP_N0 - t)``).
The lam = 0 query holds its lower bracket end from the start.  Given the
dual's curvature there, the first bracketing query is the Newton root from
lam = 0 when it lies inside (0, R): it depends only on the dual's slope and
curvature at 0, not on R, so a loose box costs no deep queries.  This
engine, too, can stop early on a caller's predicate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dual_oracle import OracleTriple
from .model import Array, ContractViolation, NumericalFailure

# Audit cadence for the localizer factor, in updates per dimension.
_PD_CHECK_EVERY = 8
# Slack rounds of the bisection engine's ITP safeguard: interpolated queries
# may leave the bracket after round t as wide as R 2^(ITP_N0 - t), so in the
# worst case they cost ITP_N0 rounds against plain bisection.
ITP_N0 = 3
# Grünbaum: a cut through a polygon's centroid keeps at most 5/9 of its area.
_CENTROID_CUT_LOG_FACTOR = math.log(5.0 / 9.0)
# The m = 2 polygon lives in the unit square; once its area is below that of
# a square one ulp of 1 on a side, its centroid is at float resolution.
_AREA_FLOOR = 2.0**-104


@dataclass(frozen=True)
class DualBox:
    """The multiplier box ``{lam : 0 <= lam_i <= R}``."""

    R: float
    m: int

    def __post_init__(self):
        if not self.R > 0 or self.m < 1:
            raise ContractViolation("need R > 0 and m >= 1")

    def center(self) -> Array:
        return np.full(self.m, self.R / 2.0)

    def contains(self, lam: Array) -> bool:
        return bool(np.all(lam >= 0.0) and np.all(lam <= self.R))


@dataclass
class EllipsoidState:
    """Localizer ellipsoid ``{center + B u : ||u|| <= 1}`` with ``B = factor``.

    The ellipsoid is held only as its factor: rank-one updates on B keep
    ``Q = B B^T`` positive semidefinite by construction, where direct updates
    on Q drift indefinite once the localizer becomes needle shaped (as it
    must whenever a multiplier's optimum sits on the box boundary).
    """

    center: Array
    factor: Array


@dataclass
class CutTrace:
    """Per-round diagnostics of one dual maximization; round t is entry t - 1.

    ``log_volume`` is the log size of the localizer when the round's point is
    chosen: the bracket width at m = 1, the polygon's area at m = 2 and the
    ellipsoid's volume at m >= 3."""

    in_box: list[bool] = field(default_factory=list)
    lam: list[Array] = field(default_factory=list)
    w: list[Array] = field(default_factory=list)
    v: list[float] = field(default_factory=list)
    log_volume: list[float] = field(default_factory=list)
    boundary_hit: bool = False

    def append(self, in_box: bool, lam: Array, w: Array, v: float, log_volume: float):
        self.in_box.append(in_box)
        self.lam.append(np.array(lam))
        self.w.append(np.array(w))
        self.v.append(float(v))
        self.log_volume.append(float(log_volume))

    def __len__(self) -> int:
        return len(self.in_box)

    def write_csv(self, fh) -> None:
        m = self.lam[0].size if self.lam else 0
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "in_box"] + [f"lambda_{i}" for i in range(m)] + ["v", "grad_norm", "log_volume"]
        )
        for i in range(len(self)):
            writer.writerow(
                [i + 1, int(self.in_box[i])]
                + [repr(float(x)) for x in self.lam[i]]
                + [
                    repr(self.v[i]),
                    repr(float(np.linalg.norm(self.w[i]))),
                    repr(self.log_volume[i]),
                ]
            )


def log_unit_ball_volume(m: int) -> float:
    return 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0)


def central_cut_log_factor(m: int) -> float:
    """Analytic log of the volume ratio of one central ellipsoid cut (< 0)."""
    if m < 2:
        raise ContractViolation("the ellipsoid needs m >= 2")
    return math.log(m / (m + 1.0)) + 0.5 * (m - 1.0) * math.log(m * m / (m * m - 1.0))


def _log_initial_volume(m: int, R: float) -> float:
    # The ellipsoid starts as the ball circumscribing [0, R]^m, of radius
    # sqrt(m) R/2; halving R first keeps the product finite for every finite R.
    return log_unit_ball_volume(m) + m * math.log(math.sqrt(m) * (R / 2.0))


def round_budget(m: int, R: float, eps: float, G: float, cap: int) -> int:
    """Rounds after the ``lam = 0`` query that ``cutting_plane_maximize``
    runs on ``[0, R]^m`` for accuracy eps when every constraint gradient is
    at most G in norm, at most ``cap``.

    For m = 1 it is ``ceil(log2(R G / eps)) + ITP_N0`` bracketing rounds (at
    least ``1 + ITP_N0``): the ITP safeguard may spend ITP_N0 rounds on
    interpolated queries, and with them the worst-case bracket is still
    plain bisection's ``R 2^-ceil(log2(R G / eps))``.

    For m >= 2 it is the first round after which the localizer's volume is
    below ``r^m``, at least 1: at m = 2 the polygon's area, starting from the
    box's ``R^2`` and scaled by at most 5/9 per centroid cut, and at m >= 3
    the ellipsoid's volume, starting from the ball circumscribing the box
    and scaled by ``exp(central_cut_log_factor(m))`` per cut.  The
    near-optimal dual set is taken to hold a cube of side r, so from then on
    the localizer cannot contain it and some visited point is near optimal.
    The paper's radius is ``min(eps/bound, sqrt(eps)/G) / (2m)``, the bound
    being one on ``|h_i|`` over the feasible set; problems carry no such
    bound, so G stands in for it: ``r = min(eps, sqrt(eps)) / (2 m G)``.

    Both are taken in logarithms, summed so that ``R G / eps`` cannot
    overflow, and are finite for every finite R.  At ``G = 0`` they take
    their limit: the radius is infinite, so the polygon and the ellipsoid
    need no round after ``lam = 0``, and the bracketing search
    ``1 + ITP_N0``.
    """
    if m == 1:
        log2_G = math.log2(G) if G > 0.0 else -math.inf
        log2_ratio = math.log2(R) + log2_G - math.log2(eps)
        return min(cap, math.ceil(max(log2_ratio, 1.0)) + ITP_N0)
    if G == 0.0:
        return 0
    log_r = math.log(min(eps, math.sqrt(eps)) / (2.0 * m)) - math.log(G)
    if m == 2:
        log_excess, log_cut = 2.0 * (math.log(R) - log_r), _CENTROID_CUT_LOG_FACTOR
    else:
        log_excess, log_cut = _log_initial_volume(m, R) - m * log_r, central_cut_log_factor(m)
    rounds = math.floor(log_excess / -log_cut) + 1
    return min(cap, max(1, rounds))


def separation_oracle_box(lam: Array, R: float) -> Array:
    """Outward normal separating an out-of-box ``lam`` from ``[0, R]^m``:
    +1 where the component overshoots R, -1 where it is negative, else 0."""
    lam = np.asarray(lam, dtype=float)
    w = np.where(lam > R, 1.0, np.where(lam < 0.0, -1.0, 0.0))
    if not np.any(w):
        raise ContractViolation("separation oracle called with a point inside the box")
    return w


def ellipsoid_update(state: EllipsoidState, w: Array) -> EllipsoidState:
    """Central-cut update keeping ``{lam in E : w . (lam - center) <= 0}``.

    Equivalent to ``c' = c - Qw/((m+1) sqrt(wQw))`` and
    ``Q' = m^2/(m^2-1) (Q - 2/(m+1) (Qw)(Qw)^T / wQw)``, performed on the
    factor.
    """
    m = state.center.size
    if m < 2:
        raise ContractViolation("the ellipsoid needs m >= 2")
    w = np.asarray(w, dtype=float)
    if not np.any(w):
        raise ContractViolation("cut direction must be nonzero")
    B = state.factor
    Bw = B.T @ w
    wQw = float(Bw @ Bw)
    if wQw <= 0.0 or not math.isfinite(wQw):
        raise NumericalFailure("localizer degenerate along the cut direction", payload=state)
    p = Bw / math.sqrt(wQw)
    Bp = B @ p
    center = state.center - Bp / (m + 1.0)
    scale = math.sqrt(m * m / (m * m - 1.0))
    gamma = 1.0 - math.sqrt((m - 1.0) / (m + 1.0))
    return EllipsoidState(center=center, factor=scale * (B - gamma * np.outer(Bp, p)))


Point = tuple[float, float]


def polygon_centroid(vertices: list[Point]) -> tuple[float, Point]:
    """Area and centroid of a convex polygon, its vertices in order.

    The shoelace sums run on the vertices taken relative to the first one,
    so a small polygon far from the origin loses no digits to cancellation.
    The area is signed: positive for counterclockwise vertices; a polygon
    of zero area reads its first vertex as centroid.  The polygon has a
    handful of vertices, so plain floats beat numpy here."""
    x0, y0 = vertices[0]
    twice_area = sx = sy = px = py = 0.0
    for x, y in vertices[1:]:
        x, y = x - x0, y - y0
        cross = px * y - x * py
        twice_area += cross
        sx += (px + x) * cross
        sy += (py + y) * cross
        px, py = x, y
    if twice_area == 0.0:
        return 0.0, (x0, y0)
    return 0.5 * twice_area, (x0 + sx / (3.0 * twice_area), y0 + sy / (3.0 * twice_area))


def polygon_cut(vertices: list[Point], g, point) -> list[Point]:
    """The part ``{mu : g . (mu - point) >= 0}`` of a convex polygon, its
    vertices in order (Sutherland & Hodgman, CACM 1974).  Vertices on the
    line are kept once, and an edge that crosses it contributes its
    crossing; the result may have fewer than three vertices."""
    gx, gy = float(g[0]), float(g[1])
    cx, cy = float(point[0]), float(point[1])
    s = [gx * (x - cx) + gy * (y - cy) for x, y in vertices]
    kept = []
    edges = zip(vertices, s, vertices[1:] + vertices[:1], s[1:] + s[:1])
    for (x, y), s_i, (x_next, y_next), s_next in edges:
        if s_i >= 0.0:
            kept.append((x, y))
        if (s_i > 0.0 > s_next) or (s_i < 0.0 < s_next):
            t = s_i / (s_i - s_next)
            kept.append((x + t * (x_next - x), y + t * (y_next - y)))
    return kept


def cutting_plane_maximize(
    oracle: Callable[[Array], OracleTriple],
    box: DualBox,
    T: int,
    stop: Callable[[Array, OracleTriple], bool] | None = None,
    curvature: Callable[[], float] | None = None,
) -> tuple[OracleTriple, Array, CutTrace]:
    """Query ``lam = 0``, then run up to T rounds of ``bisection_maximize``
    for m = 1, of the centroid polygon for m = 2 or of the ellipsoid for
    m >= 3; return ``(triple, lam, trace)`` for the returned point ``lam``
    and the oracle's triple there.

    ``oracle`` is queried once per in-box round and never outside the box.
    The ``lam = 0`` query runs no inner solve, since x0 is the inner
    minimizer there (the oracle evaluates each constraint at x0, or on the
    Krylov path reads h(x0) off its first Lanczos product); it is round 1 of
    the trace, ``stop`` is tested there, and it seeds every engine.  For
    m = 1 its triple is the bisection's ``origin``, and ``curvature``, when
    given, is passed on with it for the Newton first query, so it may read
    what the origin's query computed; at m = 2 its g makes the polygon's
    first cut.  Only the bisection calls ``curvature``.  ``stop(lam,
    triple)`` ends the run at the first queried point where it holds (the
    ellipsoid tests it only at ``lam = 0``) and returns that point;
    otherwise the best visited point is returned.  At m = 2, when a
    component i of g is negative at that point, it is held in reserve and
    the rounds left in the budget query the face ``lam_i = 0`` (see
    ``_polygon_maximize``): the first face query where ``stop`` holds is
    returned, and the reserved point when ``g_i >= 0`` there or when the
    polygon's segment on the face or the rounds run out.  ``round_budget``
    gives the T that the target accuracy needs.  The bisection bracket
    after T rounds is at most ``R 2^(ITP_N0 - T)`` wide.  The polygon and
    the ellipsoid run T rounds unless the approximate gradient vanishes or
    the localizer reaches float resolution: for the polygon, fewer than
    three vertices or an area below ``_AREA_FLOOR`` of the unit square it
    is held in, and for the ellipsoid, an extent along the cut below the
    float resolution of its center.  At m >= 2 an R whose ``m (R/2)^2``
    overflows is refused before any query.
    """
    if T < 0:
        raise ContractViolation("T must be nonnegative")
    # At such an R the inner solves' AGD budget, which grows as sqrt(R),
    # would run on without end in practice.
    if box.m > 1 and box.m * ((box.R / 2.0) * (box.R / 2.0)) == math.inf:
        raise ContractViolation("R is too large: m (R/2)^2 overflows")
    origin = oracle(np.zeros(box.m))
    if box.m == 2:
        return _polygon_maximize(oracle, box, T, stop, origin)
    if box.m > 2:
        return _ellipsoid_maximize(oracle, box, T, stop, origin)
    scalar_stop = None if stop is None else lambda mid, t: stop(np.array([mid]), t)
    scalar_oracle = lambda mid: oracle(np.array([mid]))
    triple, lam, trace = bisection_maximize(
        scalar_oracle, box.R, T, scalar_stop, origin, curvature
    )
    return triple, np.array([lam]), trace


def _ellipsoid_maximize(oracle, box, T, stop, origin):
    m = box.m
    # Smallest ball covering the box: the corners sit at distance sqrt(m) R/2.
    # The radius is sqrt(m (R/2)^2), not sqrt(m) R/2: the two can differ in
    # the last bit, and this one is the exact Cholesky factor of m (R/2)^2 I.
    radius_sq = m * ((box.R / 2.0) * (box.R / 2.0))
    state = EllipsoidState(center=box.center(), factor=math.sqrt(radius_sq) * np.eye(m))
    log_vol_initial = _log_initial_volume(m, box.R)
    log_cut = central_cut_log_factor(m)
    trace = CutTrace()
    lam_0 = np.zeros(m)
    trace.append(True, lam_0, -np.asarray(origin.g, dtype=float), origin.v, log_vol_initial)
    if stop is not None and stop(lam_0, origin):
        return origin, lam_0, trace
    best_v, best = float(origin.v), (lam_0, origin)  # (lam, triple) of the best value
    try:
        for t in range(1, T + 1):
            lam_t = state.center.copy()
            log_vol = log_vol_initial + (t - 1) * log_cut
            if box.contains(lam_t):
                triple = oracle(lam_t)
                g = np.asarray(triple.g, dtype=float)
                v = float(triple.v)
                if v > best_v:
                    best_v, best = v, (lam_t, triple)
                if not np.any(g):
                    # A vanishing approximate gradient certifies
                    # near-optimality and leaves no cut direction; stop here.
                    trace.append(True, lam_t, np.zeros(m), v, log_vol)
                    return triple, lam_t, trace
                w = -g
                trace.append(True, lam_t, w, v, log_vol)
            else:
                w = separation_oracle_box(lam_t, box.R)
                trace.append(False, lam_t, w, math.nan, log_vol)
            # Once the localizer's extent along the cut, sqrt(w^T Q w) / ||w||,
            # is below the float resolution of the query point, further cuts
            # cannot move it.
            extent_tol = 1e-13 * (1.0 + float(np.max(np.abs(lam_t))))
            Bw = state.factor.T @ w
            if float(Bw @ Bw) <= (extent_tol**2) * float(w @ w):
                break
            state = ellipsoid_update(state, w)
            if t % (_PD_CHECK_EVERY * m) == 0:
                sign, logdet = np.linalg.slogdet(state.factor)
                if sign == 0 or not math.isfinite(logdet):
                    raise NumericalFailure(
                        "localizer factor failed its audit", payload=state
                    )
    except NumericalFailure as err:
        err.trace = trace  # partial diagnostics travel with the failure
        raise
    return best[1], best[0], trace


def _polygon_maximize(oracle, box, T, stop, origin):
    # The polygon is held in unit-square coordinates mu = lam / R, where no
    # area can overflow; a cut's sign does not change with the scale.
    R = box.R
    log_area_box = 2.0 * math.log(R)
    trace = CutTrace()
    lam_0 = np.zeros(2)
    g = np.asarray(origin.g, dtype=float)
    trace.append(True, lam_0, -g, origin.v, log_area_box)
    if (stop is not None and stop(lam_0, origin)) or not np.any(g):
        return origin, lam_0, trace
    best_v, best = float(origin.v), (lam_0, origin)  # (lam, triple) of the best value
    polygon = polygon_cut([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], g, lam_0)
    # A multiplier that is 0 at the optimum is never 0 at a centroid, which
    # lies inside the polygon.  So the first certified centroid with a slack
    # constraint i (g_i < 0; of two, the smaller multiplier) is held as the
    # answer, and the rounds after it query the face mu_i = 0 at mu_j = y,
    # from the centroid's point there: face = (i, j).  Face queries cut the
    # polygon but do not compete for the best value.
    face, face_queries = None, []
    try:
        for t in range(T):
            if len(polygon) < 3:
                break
            area, centroid = polygon_centroid(polygon)
            if area <= _AREA_FLOOR:
                break
            if face is None:
                # A centroid rounded past the unit square is clipped back, so
                # the query stays in the box.
                mu = [min(max(c, 0.0), 1.0) for c in centroid]
            else:
                # Cuts through face points leave the vertices on the face at
                # exactly mu_i = 0.  Past the first face query, y is the
                # root of g_j interpolated through the face queries when it
                # lies inside the polygon's segment on the face, else that
                # segment's midpoint.
                i, j = face
                segment = [p[j] for p in polygon if p[i] == 0.0]
                if not segment:
                    break
                lo, hi = min(segment), max(segment)
                if face_queries:
                    x = _interpolated_root(face_queries)
                    y = x if x is not None and lo < x < hi else 0.5 * (lo + hi)
                if not lo < y < hi:
                    break
                mu = [0.0, 0.0]
                mu[j] = y
            lam_t = np.array([R * mu[0], R * mu[1]])
            triple = oracle(lam_t)
            g = np.asarray(triple.g, dtype=float)
            v = float(triple.v)
            trace.append(True, lam_t, -g, v, log_area_box + math.log(area))
            passed = stop is not None and stop(lam_t, triple)
            if face is not None:
                if passed:
                    return triple, lam_t, trace
                if g[i] >= 0.0:
                    break  # constraint i binds on the face
                face_queries.append((y, g[j]))
            elif passed:
                slack = [k for k in (0, 1) if g[k] < 0.0]
                if not slack:
                    return triple, lam_t, trace
                i = min(slack, key=lambda k: mu[k])
                face, y, best = (i, 1 - i), mu[1 - i], (lam_t, triple)
            else:
                if v > best_v:
                    best_v, best = v, (lam_t, triple)
                if not np.any(g):
                    # A vanishing approximate gradient certifies
                    # near-optimality and leaves no cut direction; stop here.
                    return triple, lam_t, trace
            polygon = polygon_cut(polygon, g, mu)
    except NumericalFailure as err:
        err.trace = trace  # partial diagnostics travel with the failure
        raise
    return best[1], best[0], trace


def _log_bracket(width: float) -> float:
    # the bracket can underflow to exactly 0 at extreme budgets
    return math.log(width) if width > 0.0 else -math.inf


def _interpolated_root(queries: list[tuple[float, float]]) -> float | None:
    """Root of g by inverse interpolation through the last queried
    ``(lam, g)`` pairs: inverse-quadratic through the last three, else the
    secant through the last two (Brent, 1973, ch. 4).  The bracketing search
    and the polygon's face rounds both take it.  Pairs are used only
    when their g values take both signs, so the estimate never extrapolates
    from one side, and are skipped when a g value is zero or repeats.  None
    when neither set qualifies."""
    for points in (queries[-3:], queries[-2:]):
        gs = [g for _, g in points]
        usable = len(points) >= 2 and min(gs) < 0.0 < max(gs)
        if not usable or 0.0 in gs or len(set(gs)) < len(gs):
            continue
        # Lagrange form of lam(g) at g = 0; the g values are distinct.
        root = 0.0
        for i, (lam_i, g_i) in enumerate(points):
            term = lam_i
            for j, (_, g_j) in enumerate(points):
                if j != i:
                    term *= g_j / (g_j - g_i)
            root += term
        return root
    return None


def _secular_root(
    lo: tuple[float, float, float], hi: tuple[float, float, float]
) -> float | None:
    """Root of the one-pole secular model ``g(lam) ~ K/(1 + beta (lam - a))^2
    - gamma`` (Moré & Sorensen, 1983) fitted to g at two queries
    ``lo = (a, v_a, g_a)`` and ``hi = (b, v_b, g_b)``, ``a < b``,
    ``g_a > max(g_b, 0)``, and to ``v_b - v_a``, the integral of g.  With
    ``h = b - a`` the fit is ``1 + beta h = rho / (1 - rho)`` for
    ``rho = (g_a h - (v_b - v_a)) / ((g_a - g_b) h)``, then
    ``K = (g_a - g_b) / (1 - (1 + beta h)^-2)`` and ``gamma = K - g_a``, and
    the root ``a + (sqrt(K/gamma) - 1)/beta`` is evaluated as
    ``a + g_a h / (gamma beta h (sqrt(K/gamma) + 1))``, which does not cancel
    and reads the secant root at rho = 1/2, where g is linear.  The root lies
    in ``(a, b]`` when ``g_b <= 0`` and beyond b when ``g_b > 0``.  A ball's
    dual derivative is exactly this model.  None unless 0 < rho < 1 and the
    model has a root."""
    a, v_a, g_a = lo
    b, v_b, g_b = hi
    if not g_a > g_b:
        return None
    h = b - a
    rho = (g_a * h - (v_b - v_a)) / ((g_a - g_b) * h)
    if not 0.0 < rho < 1.0:
        return None
    beta_h = (2.0 * rho - 1.0) / (1.0 - rho)
    K_beta_h = (g_a - g_b) * rho * rho / (1.0 - rho)
    gamma_beta_h = K_beta_h - g_a * beta_h
    if not gamma_beta_h > 0.0:  # g stays above gamma's level: no root
        return None
    return a + g_a * h / (gamma_beta_h * (math.sqrt(K_beta_h / gamma_beta_h) + 1.0))


def bisection_maximize(
    oracle: Callable[[float], OracleTriple],
    R: float,
    T: int,
    stop: Callable[[float, OracleTriple], bool] | None = None,
    origin: OracleTriple | None = None,
    curvature: Callable[[], float] | None = None,
) -> tuple[OracleTriple, float, CutTrace]:
    """Safeguarded root search for the derivative sign change over [0, R],
    driven by a triple oracle.

    The bracket ``[lo, hi]`` moves ``lo`` to queries with ``g > 0`` and
    ``hi`` to queries with ``g <= 0``, and keeps ``(lam, v, g)`` at each end
    once a query sits there.  Each round queries, in this order of
    preference, a root strictly inside the bracket of:

    1. the secular model ``_secular_root``, while the model is trusted,
       fitted to both ends once both hold data, and before that to the
       current lower end and the one before it, so that a maximizer beyond
       the first midpoints is reached by extrapolation; until a query reads
       ``g <= 0``, a model root at or past R makes the query R itself;
    2. the inverse interpolation of g through the last queries, when their g
       values take both signs;
    3. otherwise the midpoint.

    The model stays trusted until its first query whose ``|g|`` exceeds half
    the smaller ``|g|`` at the two points it was fitted to, and then for the
    rest of the run.  The ITP projection (Oliveira & Takahashi, ACM TOMS
    2021) clips a model or interpolated query to within
    ``R 2^(ITP_N0 - t) - (hi - lo)/2`` of the midpoint, so after bracketing
    round t the bracket is at most ``R 2^(ITP_N0 - t)`` wide: ``T + ITP_N0``
    rounds give plain bisection's ``R 2^-T``, while a smooth monotone g is
    found superlinearly.

    ``origin``, when given, is the oracle's triple at ``lam = 0``.  It is
    round 1 of the trace: ``stop`` is tested there, and its g seeds the
    lower bracket end for the model (not the interpolation, whose secant
    through it lands near the midpoint); a g <= 0 there leaves the bracket
    ``[0, 0]``, and the run returns it.  T bracketing rounds follow, so a
    run takes up to T + 1 rounds; T may be 0 only with an origin.

    ``curvature``, given with an origin, returns ``-d''(0) > 0``, the dual's
    curvature at ``lam = 0``.  It is called once, and only when the run goes
    on past the origin.  The first bracketing round, which has neither a
    model nor queries to interpolate, then queries the Newton root
    ``g(0) / curvature`` in place of the midpoint when it lies in
    ``(0, R)``, and the midpoint otherwise.  That query does not depend on
    R, so a loose R costs no deep queries; it is not a model query for the
    trust rule, and the ITP clip and the bracket bound above still hold.
    Without a curvature the queries are those described above.

    Returns ``(triple_tau, lam_tau, trace)``.  When ``stop(lam, triple)``
    holds at a queried point, the run ends there and tau is that round.  A
    query at R that reads ``g > 0`` ends the run there too, since R then
    maximizes d over [0, R], as the origin's ``g <= 0`` does at 0: an R
    below the maximizer costs a few rounds, not the budget.  Otherwise all
    rounds run and tau indexes the queried point with the best value
    estimate.  A ``NumericalFailure`` raised by the oracle carries the
    rounds completed so far as its ``trace``.
    """
    if T < (1 if origin is None else 0):
        raise ContractViolation("T must be positive, or nonnegative with an origin")
    R = float(R)
    lo, hi = 0.0, R
    ends: list[tuple[float, float, float] | None] = [None, None]
    below = None  # the lower end before the current one
    queries: list[tuple[float, float]] = []
    trace = CutTrace()
    best = None
    trusted = True
    newton = None  # the dual Newton root from lam = 0
    try:
        if origin is not None:
            g = float(np.asarray(origin.g).reshape(-1)[0])
            trace.append(True, np.array([0.0]), np.array([-g]), origin.v, _log_bracket(R))
            if g <= 0.0 or (stop is not None and stop(0.0, origin)):
                return origin, 0.0, trace
            best = (origin, 0.0)
            ends[0] = (0.0, origin.v, g)
            if curvature is not None:
                c = float(curvature())
                newton = g / c if c > 0.0 else None
        for t in range(1, T + 1):
            mid = 0.5 * (lo + hi)
            lam = mid
            fit = (ends[0], ends[1]) if ends[1] is not None else (below, ends[0])
            x = _secular_root(*fit) if trusted and None not in fit else None
            # Until a query reads g <= 0, hi is R: a model root at or past it
            # queries R itself.
            past = x is not None and ends[1] is None and x >= R
            if past:
                x = R
            modeled = x is not None and (lo < x < hi or past)
            if not modeled:
                # The first round has no queries to interpolate.
                x = _interpolated_root(queries) if queries else newton
            if modeled or x is not None and lo < x < hi:
                r = max(0.0, R * 2.0 ** (ITP_N0 - t) - 0.5 * (hi - lo))
                lam = min(max(x, mid - r), mid + r)
            triple = oracle(lam)
            g = float(np.asarray(triple.g).reshape(-1)[0])
            trace.append(True, np.array([lam]), np.array([-g]), triple.v, _log_bracket(hi - lo))
            if stop is not None and stop(lam, triple):
                return triple, lam, trace
            if g > 0 and lam == R:  # d rises up to R: R maximizes it on [0, R]
                return triple, lam, trace
            if best is None or triple.v > best[0].v:
                best = (triple, lam)
            if modeled and abs(g) > 0.5 * min(abs(fit[0][2]), abs(fit[1][2])):
                trusted = False
            queries.append((lam, g))
            if g > 0:
                lo = lam
                below, ends[0] = ends[0], (lam, triple.v, g)
            else:
                hi = lam
                ends[1] = (lam, triple.v, g)
    except NumericalFailure as err:
        err.trace = trace  # partial diagnostics travel with the failure
        raise
    return best[0], best[1], trace
