"""Constructors for delayed-CSIT DoF regions, corner points, and plans.

Everything here is exact: antenna counts are integers, all region and
point coordinates are ``fractions.Fraction``.  A point is a plain tuple of
Fractions of length K.

Contents:

* the K-user permutation outer bound and its redundancy-reduced region,
* the two-user region (two weighted-sum lines L1, L2 and their corner Q),
* the equal-antenna three-user region (both branches),
* sum-DoF closed form and the perfect/no-CSIT scalar benchmarks,
* the fixed-d3 plane slice of the three-user region with its named
  special points, and
* exact time-sharing decompositions of any point of the three-user region
  into operating points, each run by the scheme for the number of users
  it serves: the nonzero coordinates of the origin, (N,0,0), (q,q,0) or (b,b,b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import index

from .exactgeom import (
    MAX_VERTEX_K,
    DoFRegion,
    GeometryError,
    HalfSpace,
    UnsupportedDimensionError,
    _integer_row,
    _reciprocal_halfspace,
    contains,
    rat,
    rat_str,
    remove_redundant,
    vertex_enumerate,
)

__all__ = [
    "AntennaConfig",
    "DominantFace",
    "PlaneSlice",
    "PlanComponent",
    "AchievabilityPlan",
    "ThreeUserScopeError",
    "SOURCE_TWO_USER",
    "SOURCE_SINGLE_USER",
    "SOURCE_TIME_DIVISION",
    "SOURCE_EXTERNAL",
    "permutation_inequalities",
    "outer_bound_region",
    "two_user_region",
    "three_user_region",
    "point_Q",
    "sum_dof_closed_form",
    "benchmark_sum_dof",
    "plane_slice",
    "achievability_plan",
    "convex_decompose_2d",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ThreeUserScopeError(GeometryError):
    """Raised for three-user antenna setups outside M <= 2N."""


@dataclass(frozen=True)
class AntennaConfig:
    """Broadcast channel dimensioning: M transmit antennas, K receivers.

    Receive antenna counts are sorted non-increasing: N1 >= ... >= NK > 0.
    """

    M: int
    N: tuple

    def __post_init__(self):
        try:  # operator.index takes numpy's integers too, and refuses floats and Fractions
            object.__setattr__(self, "M", index(self.M))
            object.__setattr__(self, "N", tuple(map(index, self.N)))
        except TypeError:
            raise ValueError("antenna counts must be integers, got M=%r N=%r" % (self.M, self.N)) from None
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if not self.N:
            raise ValueError("need at least one receiver")
        if any(n < 1 for n in self.N):
            raise ValueError("receive antenna counts must be positive")
        if any(a < b for a, b in zip(self.N, self.N[1:])):
            raise ValueError("N must be sorted non-increasing: %r" % (self.N,))

    @property
    def K(self) -> int:
        return len(self.N)


def _permutation_caps(config: AntennaConfig):
    """Each distinct cap tuple of the permutation rows, in first-occurrence
    order, with its facet flag (``outer_bound_region`` proves the rule).

    A permutation is read from its last user; the first user whose tail
    would reach M, and every user before it, sits at M, so the loop stops
    there.  With ``tail`` the sum of N over the users below M, the row is a
    facet iff ``tail + N_u >= M`` for every user u at M.  N is
    non-increasing, so the last of those users has the smallest N_u, and
    the test is made once per distinct row.
    """
    M, N, K = config.M, config.N, config.K
    seen = set()
    for pi in permutations(range(K)):
        caps = [M] * K
        tail = 0
        for user in reversed(pi):
            if tail + N[user] >= M:
                break
            tail += N[user]
            caps[user] = tail
        caps = tuple(caps)
        if caps not in seen:
            seen.add(caps)
            yield caps, M not in caps or tail + N[K - 1 - caps[::-1].index(M)] >= M


def _reciprocal_rows(caps_rows):
    """``HalfSpace(1 / caps, 1)`` for each cap tuple, each distinct 1/cap
    built once and each row's integers read off its caps."""
    inverse = {}
    rows = []
    for caps in caps_rows:
        for c in caps:
            if c not in inverse:
                inverse[c] = Fraction(1, c)
        rows.append(_reciprocal_halfspace(caps, tuple(map(inverse.__getitem__, caps))))
    return rows


def permutation_inequalities(config: AntennaConfig):
    """The distinct raw outer-bound inequalities, in permutation order.

    For permutation pi, the inequality reads
    sum_i d_{pi(i)} / min(M, N_{pi(i)} + ... + N_{pi(K)}) <= 1.
    Permutations that give the same coefficients (users with equal N_i,
    or tails capped at M) yield one half-space, at the first of them; rows
    are keyed by their caps, so a repeat builds nothing, and each distinct
    1/cap is built once.  Every row is returned, facet or not: the rows
    come from the loop that ``outer_bound_region`` reads, which flags the
    facets, and this list ignores the flag.
    """
    return _reciprocal_rows(caps for caps, _ in _permutation_caps(config))


def outer_bound_region(config: AntennaConfig) -> DoFRegion:
    """Outer bound on the delayed-CSIT DoF region, redundancy-reduced.

    Refuses K > MAX_VERTEX_K before building the K! permutation
    inequalities.  The facets are read off the permutations, with no
    double description: the region keeps the facet rows of
    ``permutation_inequalities``, in its order, which are the rows that
    ``remove_redundant`` keeps on those rows.  The region builds its double
    description on its first query, over the facets only.

    Read pi from its last user.  The tails S_1 < ... < S_L < M are those of
    the users s_1, ..., s_L, every tail grows by some N_i >= 1, and every
    other user, the set R, sits at cap M.  A cap tuple fixes R and S_L, so
    the verdict is the same for every permutation of one row.

    Not a facet if some u in R has S_L + N_u < M.  The row of the tail
    s_1, ..., s_L, u has the same caps except a smaller one, S_L + N_u, on
    u.  For d >= 0 it strictly implies this row, so this row's face lies
    in {d_u = 0}.  Every bound is 1 > 0, so the region is
    full-dimensional, a facet's vertices span its hyperplane, and a row
    whose hyperplane is not {d_u = 0} defines no facet there.

    A facet otherwise.  Take y > 0 with y_{s_1} >> ... >> y_{s_L} >> y_R
    and scale it onto this row.  Another row differs from this one first,
    in the order s_1, ..., s_L, at some s_j.  Its tail there is > S_j,
    because tails grow by N >= 1, so its coefficient there is smaller, and
    y is strictly inside it.  A row that agrees on every s_j puts each u in
    R at a tail of at least S_L + N_u >= M, so it is this row.  Then y is
    strictly inside every other row and d > 0 there, so a neighbourhood of
    y in this row's hyperplane lies in the region, and the face has
    dimension K-1.  As the rows are distinct and have bound 1, no two
    define one facet, so ``remove_redundant``'s keep-the-last rule for
    equal incidence never applies, and the two agree row for row.
    """
    if config.K > MAX_VERTEX_K:
        raise UnsupportedDimensionError(
            "outer bound supports K <= %d, got K=%d" % (MAX_VERTEX_K, config.K)
        )
    facets = _reciprocal_rows(caps for caps, facet in _permutation_caps(config) if facet)
    return DoFRegion(config.K, tuple(facets))


def two_user_region(M: int, N1: int, N2: int) -> DoFRegion:
    """Two-user delayed-CSIT region: lines L1 and L2.

    L1: d1/min(M,N1+N2) + d2/min(M,N2) <= 1
    L2: d1/min(M,N1)    + d2/min(M,N1+N2) <= 1

    Every coefficient is positive, so the region is bounded by construction.
    """
    if not 1 <= N2 <= N1:
        raise ValueError("need N1 >= N2 >= 1")
    if M < 1:
        raise ValueError("need M >= 1")
    l1 = HalfSpace((Fraction(1, min(M, N1 + N2)), Fraction(1, min(M, N2))), _ONE)
    l2 = HalfSpace((Fraction(1, min(M, N1)), Fraction(1, min(M, N1 + N2))), _ONE)
    return DoFRegion(2, (l1, l2))


def three_user_region(M: int, N: int) -> DoFRegion:
    """Equal-antenna three-user delayed-CSIT region.

    M <= N gives the no-CSIT simplex d1+d2+d3 <= M; N < M <= 2N gives the
    three cyclic inequalities d_i + d_j + (M/N) d_k <= M.  Every coefficient
    is positive, so the region is bounded by construction.
    """
    if M < 1 or N < 1:
        raise ValueError("need M >= 1 and N >= 1")
    if M > 2 * N:
        raise ThreeUserScopeError("three-user region requires M <= 2N, got M=%d N=%d" % (M, N))
    if M <= N:
        return DoFRegion(3, (HalfSpace((_ONE, _ONE, _ONE), Fraction(M)),))
    ratio = Fraction(M, N)
    rows = []
    for k in range(3):
        coeffs = [_ONE, _ONE, _ONE]
        coeffs[k] = ratio
        rows.append(HalfSpace(tuple(coeffs), Fraction(M)))
    return DoFRegion(3, tuple(rows))


@dataclass(frozen=True)
class DominantFace:
    """Degenerate corner for M <= N1: the single binding line of the region.

    ``line`` holds the face with equality understood; ``endpoints`` are the
    two single-user corners it joins.
    """

    line: HalfSpace
    endpoints: tuple


def point_Q(M: int, N1: int, N2: int):
    """Corner point Q of the two-user region, or its degenerate face.

    N1 < M < N1+N2:  Q = (M N1 (M-N2), M N2 (M-N1)) / (N1(M-N2) + M(M-N1))
    M >= N1+N2:      Q = (N1^2 (N1+N2), N2^2 (N1+N2)) / (N1^2 + N2^2 + N1 N2)
    M <= N1:         the region's dominant face (time division suffices).
    """
    if not 1 <= N2 <= N1:
        raise ValueError("need N1 >= N2 >= 1")
    if M <= N1:
        line = two_user_region(M, N1, N2).halfspaces[0]  # L1; refuses M < 1
        ends = ((Fraction(min(M, N1)), _ZERO), (_ZERO, Fraction(min(M, N2))))
        return DominantFace(line, ends)
    if M < N1 + N2:
        den = N1 * (M - N2) + M * (M - N1)
        return (Fraction(M * N1 * (M - N2), den), Fraction(M * N2 * (M - N1), den))
    den = N1 * N1 + N2 * N2 + N1 * N2
    return (Fraction(N1 * N1 * (N1 + N2), den), Fraction(N2 * N2 * (N1 + N2), den))


def sum_dof_closed_form(K: int, N: int) -> Fraction:
    """Sum-DoF K*N / (1 + 1/2 + ... + 1/K), valid for M >= K*N."""
    if K < 1 or N < 1:
        raise ValueError("need K >= 1 and N >= 1")
    harmonic = sum((Fraction(1, i) for i in range(1, K + 1)), _ZERO)
    return Fraction(K * N) / harmonic


def benchmark_sum_dof(config: AntennaConfig, csit: str) -> Fraction:
    """Scalar sum-DoF comparators: perfect CSIT and no CSIT."""
    if csit == "perfect":
        return Fraction(min(config.M, sum(config.N)))
    if csit == "none":
        return Fraction(min(config.M, max(config.N)))
    raise ValueError("csit must be 'perfect' or 'none', got %r" % (csit,))


# ---------------------------------------------------------------------------
# Three-user plane-slice geometry at fixed d3
# ---------------------------------------------------------------------------

_BOUND_NAMES = ("L0", "L1", "L2")


@dataclass(frozen=True)
class PlaneSlice:
    """The (d1,d2) cross-section of the three-user region at fixed d3.

    ``bounds`` maps L0/L1/L2 to 2-D half-spaces, ``region`` is the slice
    polygon, ``special_points`` maps the named line/axis intersections to
    full 3-D points (None when the intersection falls outside the slice),
    and ``redundant_bounds`` lists which of L0/L1/L2 the others imply.
    """

    M: int
    N: int
    d3: Fraction
    bounds: dict
    region: DoFRegion
    special_points: dict
    redundant_bounds: frozenset


def _slice_region(M: int, N: int, d3: Fraction) -> DoFRegion:
    """The slice polygon at height d3, its rows in the order of _BOUND_NAMES."""
    ratio = Fraction(M, N)
    return DoFRegion(2, (
        HalfSpace((_ONE, _ONE), Fraction(M) - ratio * d3),
        HalfSpace((ratio, _ONE), Fraction(M) - d3),
        HalfSpace((_ONE, ratio), Fraction(M) - d3),
    ))


def d3_max(M: int, N: int) -> Fraction:
    """Largest feasible d3 in the slice family: MN/(M+N)."""
    return Fraction(M * N, M + N)


def d3_mid(M: int, N: int) -> Fraction:
    """The symmetric-corner height MN/(M+2N) (P12 sits on all three lines)."""
    return Fraction(M * N, M + 2 * N)


def plane_slice(M: int, N: int, d3) -> PlaneSlice:
    """Slice S(d3) of the three-user region, with named special points."""
    if not N < M <= 2 * N:
        raise ThreeUserScopeError("plane slice requires N < M <= 2N, got M=%d N=%d" % (M, N))
    d3 = rat(d3)
    if not _ZERO <= d3 <= d3_max(M, N):
        raise ValueError(
            "d3=%s outside [0, %s]" % (rat_str(d3), rat_str(d3_max(M, N)))
        )
    region = _slice_region(M, N, d3)
    bounds = dict(zip(_BOUND_NAMES, region.halfspaces))
    ratio = Fraction(M, N)
    m = Fraction(M)
    p12 = Fraction(N, M + N) * (m - d3)
    candidates = {
        # line-line intersections
        "P01": (d3, m - (1 + ratio) * d3),
        "P02": (m - (1 + ratio) * d3, d3),
        "P12": (p12, p12),
        # line-axis intersections
        "P0d1": (m - ratio * d3, _ZERO),
        "P0d2": (_ZERO, m - ratio * d3),
        "P1d1": ((m - d3) / ratio, _ZERO),
        "P2d2": (_ZERO, (m - d3) / ratio),
    }
    special = {name: (x, y, d3) if contains(region, (x, y)) else None
               for name, (x, y) in candidates.items()}
    kept = remove_redundant(region).halfspaces
    redundant = frozenset(name for name in _BOUND_NAMES if bounds[name] not in kept)
    return PlaneSlice(M, N, d3, bounds, region, special, redundant)


# ---------------------------------------------------------------------------
# Achievability plans: exact convex decomposition into operating points
# ---------------------------------------------------------------------------

SOURCE_TWO_USER = "two-user-scheme"
SOURCE_SINGLE_USER = "single-user"
SOURCE_TIME_DIVISION = "time-division"
SOURCE_EXTERNAL = "external-abdoli"


@dataclass(frozen=True)
class PlanComponent:
    """One time-shared operating point: where it runs, for how long, and how."""

    point: tuple
    weight: Fraction
    source: str
    users: tuple


@dataclass(frozen=True)
class AchievabilityPlan:
    """Exact convex decomposition of ``target``: sum w_i p_i == target."""

    target: tuple
    components: tuple

    def weighted_sum(self):
        k = len(self.target)
        total = [_ZERO] * k
        for comp in self.components:
            for i in range(k):
                total[i] += comp.weight * comp.point[i]
        return tuple(total)

    def total_weight(self) -> Fraction:
        return sum((c.weight for c in self.components), _ZERO)


def convex_decompose_2d(target, corners):
    """Write a 2-D point as an exact convex combination of given corners.

    Deterministic: corners are scanned in sorted order; the first single
    corner, segment, or triangle that contains the target wins.  Returns
    [(corner, weight), ...] with positive rational weights summing to 1.
    Raises GeometryError if the target is outside the hull.

    The target and the corners are scaled to integers by one common
    denominator, which keeps their order, their cross products' signs and
    every weight, so the scan runs in integers: cross products find the
    segments, and Cramer's rule the triangles' weights, as ratios of cross
    products.  Only the weights returned become Fractions.
    """
    tx, ty = rat(target[0]), rat(target[1])
    corners = [(rat(x), rat(y)) for x, y in corners]
    scaled = _integer_row([tx, ty] + [v for corner in corners for v in corner])
    px, py = scaled[0], scaled[1]
    points = dict(zip(zip(scaled[2::2], scaled[3::2]), corners))  # integer corner -> its Fractions
    pts = sorted(points)
    if (px, py) in points:
        return [(points[px, py], _ONE)]
    for a, b in combinations(pts, 2):
        ux, uy = b[0] - a[0], b[1] - a[1]
        wx, wy = px - a[0], py - a[1]
        if ux * wy - uy * wx != 0:
            continue
        num, den = (wx, ux) if ux != 0 else (wy, uy)  # a != b: the points come from a set
        if den < 0:
            num, den = -num, -den
        if 0 <= num <= den:  # a zero cross product puts the target at a + (num/den) (b - a)
            out = [(a, Fraction(den - num, den)), (b, Fraction(num, den))]
            return [(points[p], w) for p, w in out if w > 0]
    for a, b, c in combinations(pts, 3):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if det == 0:
            continue
        # each weight is the signed area of the triangle the target makes
        # with the other two corners, over the whole triangle's
        nums = [(q[0] - px) * (r[1] - py) - (q[1] - py) * (r[0] - px)
                for q, r in ((b, c), (c, a), (a, b))]
        if det < 0:
            det, nums = -det, [-n for n in nums]
        if all(n >= 0 for n in nums):
            return [(points[p], Fraction(n, det)) for p, n in zip((a, b, c), nums) if n > 0]
    raise GeometryError("point (%s, %s) is not in the hull of the corners" % (rat_str(tx), rat_str(ty)))


_SOURCES = (SOURCE_TIME_DIVISION, SOURCE_SINGLE_USER, SOURCE_TWO_USER, SOURCE_EXTERNAL)


def _add(parts, weight, values, users):
    """Add ``weight`` of the point ``values`` on ``users``; its nonzero users name its source."""
    if weight == 0:
        return
    on = dict(zip(users, values))
    served = tuple(user for user in users if on[user] != 0)
    key = (tuple(on.get(i, _ZERO) for i in range(3)), _SOURCES[len(served)], served)
    parts[key] = parts.get(key, _ZERO) + weight


def achievability_plan(M: int, N: int, target) -> AchievabilityPlan:
    """Exact time-sharing decomposition of a three-user DoF point.

    The target is sliced at its smallest coordinate z (at most MN/(M+2N)
    for any feasible point) and decomposed over the slice's four corners.
    A corner on an axis is a point of the two-user region of that axis's
    user and the slice user, split over that region's corners (0,0), (N,0),
    (0,N) and (q,q), q = MN/(M+N).  The off-axis corner P12 time-shares
    (b,b,b), b = MN/(M+2N), with (q,q) on its own two users.  A component's
    ``users`` are its point's nonzero coordinates, and their number names its
    ``source``: none time-division, one single-user, two the two-user scheme,
    three the external corner scheme.  The weighted sum is the target exactly.
    """
    if not N < M <= 2 * N:
        raise ThreeUserScopeError("plans require N < M <= 2N, got M=%d N=%d" % (M, N))
    target = tuple(rat(x) for x in target)
    if len(target) != 3:
        raise ValueError("target must have three coordinates")
    region = three_user_region(M, N)
    if not contains(region, target):
        raise GeometryError(
            "target (%s) is outside the three-user region" % ", ".join(map(rat_str, target))
        )

    k_axis = min(range(3), key=lambda i: (target[i], i))
    p_axis, r_axis = [i for i in range(3) if i != k_axis]
    # the rows sum to (2 + M/N)(d1+d2+d3) <= 3M, so z <= MN/(M+2N): L0 is slack
    z = target[k_axis]
    n, q, b = Fraction(N), d3_max(M, N), d3_mid(M, N)
    pair_corners = ((_ZERO, _ZERO), (n, _ZERO), (_ZERO, n), (q, q))  # of two_user_region(M, N, N)
    parts = {}
    corners = vertex_enumerate(_slice_region(M, N, z))
    for (x, y), weight in convex_decompose_2d((target[p_axis], target[r_axis]), corners):
        if x == 0 or y == 0:
            value, axis = (x, p_axis) if y == 0 else (y, r_axis)
            for corner, w in convex_decompose_2d((value, z), pair_corners):
                _add(parts, weight * w, corner, (axis, k_axis))
        else:  # P12: share the external point with the pair corner
            _add(parts, weight * z / b, (b, b, b), (0, 1, 2))
            _add(parts, weight * (1 - z / b), (q, q), (p_axis, r_axis))

    components = tuple(
        PlanComponent(point, weight, source, users)
        for (point, source, users), weight in sorted(parts.items())
    )
    plan = AchievabilityPlan(target, components)
    if plan.weighted_sum() != target or plan.total_weight() != 1:
        raise AssertionError("plan decomposition failed to reproduce the target exactly")
    return plan
