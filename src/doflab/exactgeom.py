"""Exact rational half-space geometry.

Regions live in the nonnegative orthant of dimension K: a ``DoFRegion``
stores explicit half-spaces ``coeffs . d <= bound`` while the constraints
``d_i >= 0`` are implicit and always enforced.  Every number in this module
is a ``fractions.Fraction``, or an ``int`` inside the double description,
the queries read off its rays, membership and the linear solver; no
floating point enters any computation, so all results are reproducible bit
for bit.

Provided operations: membership, exact linear-objective maximization,
boundedness, vertex enumeration, redundancy removal, and point-set
equality of two regions via mutual inclusion.  Membership reads each
half-space as the integer row the double description uses (``_row_of``),
against the point scaled to integers.  All but membership are read off one
engine, the double description over integer rays (K <= 5): its rays with
t > 0 are the vertices and those with t = 0 the recession
directions.  Each region object builds it at most once, on its first
query, and keeps it; ``remove_redundant`` hands it on to the reduced
region, so reducing a region and then querying the result builds one.
``solve_square`` runs a fraction-free integer solver.  Redundancy
removal reads the facets off the vertex-constraint incidence and needs
every bound > 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational, Real
from operator import mul

__all__ = [
    "GeometryError",
    "DimensionMismatchError",
    "UnsupportedDimensionError",
    "UnboundedRegionError",
    "EmptyRegionError",
    "HalfSpace",
    "DoFRegion",
    "rat",
    "rat_str",
    "dot",
    "contains",
    "lp_max",
    "is_bounded",
    "vertex_enumerate",
    "remove_redundant",
    "region_includes",
    "regions_equal",
    "solve_square",
]


MAX_VERTEX_K = 5  # largest dimension any double-description query accepts


class GeometryError(ValueError):
    """Base class for errors raised by the exact-geometry layer."""


class DimensionMismatchError(GeometryError):
    pass


class UnsupportedDimensionError(GeometryError):
    pass


class UnboundedRegionError(GeometryError):
    pass


class EmptyRegionError(GeometryError):
    pass


def rat(x) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction.

    A Fraction is returned as it is.  Inexact reals (float, numpy floats)
    are rejected: this module is exact by contract.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Real) and not isinstance(x, Rational):
        raise TypeError("floating-point value not allowed in exact geometry: %r" % (x,))
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Render a rational as "p/q" (plain "p" when q == 1); ``rat`` coerces it,
    so a float is refused."""
    return str(rat(x))


def dot(a, b) -> Fraction:
    """Exact inner product; every entry goes through ``rat``."""
    if len(a) != len(b):
        raise DimensionMismatchError("dot: length %d vs %d" % (len(a), len(b)))
    return sum(map(mul, map(rat, a), map(rat, b)), Fraction(0))


@dataclass(frozen=True)
class HalfSpace:
    """One inequality ``coeffs . d <= bound``.

    ``_row`` holds its ``_row_of`` once it is built; it takes no part in
    comparison, hashing or repr.
    """

    coeffs: tuple
    bound: Fraction
    _row: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(rat, self.coeffs)))
        object.__setattr__(self, "bound", rat(self.bound))
        if not self.coeffs:
            raise GeometryError("half-space needs at least one coefficient")
        if not any(self.coeffs):
            raise GeometryError("half-space coefficients must not all be zero")

    def evaluate(self, point) -> Fraction:
        return dot(self.coeffs, point)

    def holds(self, point) -> bool:
        return self.evaluate(point) <= self.bound

    def active(self, point) -> bool:
        return self.evaluate(point) == self.bound

    def render(self) -> str:
        """Human-readable form, e.g. "1/4 d1 + 1/2 d2 <= 1" or "d1 <= 1"."""
        terms = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            name = "d%d" % i
            if c == 1:
                terms.append(name)
            elif c == -1:
                terms.append("-" + name)
            else:
                terms.append("%s %s" % (rat_str(c), name))
        return "%s <= %s" % (" + ".join(terms), rat_str(self.bound))


@dataclass(frozen=True)
class DoFRegion:
    """Region {d >= 0 : coeffs_j . d <= bound_j for all j}.

    Nonnegativity is implicit: it is never stored as a user half-space.
    The region may be empty or unbounded; the queries that need a vertex or
    a finite optimum raise EmptyRegionError or UnboundedRegionError.
    ``_rays`` holds the region's double description once a query has
    built it; it takes no part in comparison, hashing or repr.
    """

    dimension: int
    halfspaces: tuple
    _rays: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if self.dimension < 1:
            raise GeometryError("dimension must be >= 1")
        for hs in self.halfspaces:
            if not isinstance(hs, HalfSpace):
                raise GeometryError("halfspaces must be HalfSpace instances")
            if len(hs.coeffs) != self.dimension:
                raise DimensionMismatchError(
                    "half-space has %d coefficients in a %d-dimensional region"
                    % (len(hs.coeffs), self.dimension)
                )


def contains(region: DoFRegion, point) -> bool:
    """Exact membership: every half-space plus nonnegativity.

    The point, its entries through ``rat``, is scaled to integers with its
    common denominator q last, and each half-space is read as its integer
    row ``_row_of``, whose bound is negated: the point holds a row iff
    row . (q point, q) <= 0, so no Fraction is built.
    """
    if len(point) != region.dimension:
        raise DimensionMismatchError(
            "point of length %d in %d-dimensional region" % (len(point), region.dimension)
        )
    scaled = _integer_row([rat(x) for x in point] + [_ONE])
    if any(x < 0 for x in scaled):
        return False
    return all(sum(map(mul, _row_of(hs), scaled)) <= 0 for hs in region.halfspaces)


# ---------------------------------------------------------------------------
# Linear objectives and boundedness, read off the double description
# ---------------------------------------------------------------------------

_ONE = Fraction(1)


def lp_max(region: DoFRegion, objective) -> Fraction:
    """Exact maximum of objective . d over the region.

    Raises EmptyRegionError / UnboundedRegionError accordingly.
    """
    if len(objective) != region.dimension:
        raise DimensionMismatchError("objective length != region dimension")
    return _support(_rays_of(region)[0], [rat(c) for c in objective])


def is_bounded(region: DoFRegion) -> bool:
    """True iff the region is bounded; raises EmptyRegionError if it is empty.

    With d >= 0 each coordinate is at most d1 + ... + dK, so the region is
    bounded iff the all-ones objective is.
    """
    try:
        _support(_rays_of(region)[0], [_ONE] * region.dimension)
    except UnboundedRegionError:
        return False
    return True


# ---------------------------------------------------------------------------
# Double description: vertex enumeration, redundancy removal, every query
# ---------------------------------------------------------------------------

def _integer_row(values):
    """Rationals scaled by the lcm of their denominators: a list of ints."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


def _solve_int(rows):
    """Fraction-free Gauss-Jordan (Bareiss) on integer rows ``[a_1..a_n, b]``.

    Returns ``(numerators, det)`` with ``det > 0`` and ``x_i =
    numerators[i] / det``, or None if the matrix is singular.  Each update
    is a (k+1)x(k+1) minor by Sylvester's identity, so every ``//`` is exact.
    """
    a = list(rows)
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        p = pk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * v - f * w) // det for v, w in zip(a[i], pk)]
        det = p
    if det < 0:
        return [-row[n] for row in a], -det
    return [row[n] for row in a], det


def solve_square(matrix, rhs):
    """Exact solution of a square rational system; None if singular.

    Every entry goes through ``rat``.  Raises DimensionMismatchError unless
    the matrix is n x n and rhs has n entries.
    """
    matrix = [[rat(x) for x in row] for row in matrix]
    rhs = [rat(x) for x in rhs]
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatchError(
            "solve_square: %d rows of lengths %s against %d right-hand sides"
            % (n, sorted({len(row) for row in matrix}), len(rhs))
        )
    sol = _solve_int([_integer_row(row + [r]) for row, r in zip(matrix, rhs)])
    if sol is None:
        return None
    num, det = sol
    return tuple(Fraction(x, det) for x in num)



def _double_description(region: DoFRegion):
    """Extreme rays of the homogenized region and their zero sets, as two tuples.

    The region is homogenized to the cone {(d, t) >= 0 : bound * t -
    coeffs . d >= 0 for every row}.  It starts as the orthant, whose
    extreme rays are the K+1 unit vectors, and takes the rows one at a
    time in input order (Motzkin et al. 1953; Fukuda & Prodon 1996).

    When row 0 is a . d <= b with every a_i > 0 and b > 0, as in every
    region that ``regions`` builds, the loop starts at row 1 from the cone
    that row 0's pass would leave: the ray e_t, with every d_i >= 0 in
    its zero set, then for i = 0..K-1 the ray (b e_i + a_i e_t) / gcd(a_i,
    b), with d_j >= 0 for j != i and row 0 in its zero set.  That pass
    finds each e_i strictly outside (excess a_i > 0) and e_t strictly
    inside (excess -b < 0), so it keeps e_t alone.  Any two unit vectors
    are adjacent in the orthant, a simplicial cone: Z(e_t) & Z(e_i) has K-1
    bits and only e_t's and e_i's zero sets contain it.  So the pass adds,
    in order of i, the combination a_i e_t + b e_i, gcd-normalized, with
    that common set and row 0's bit: these rays, zero sets and order.  A
    first row with a zero or negative coefficient, or with bound <= 0,
    starts from the orthant.

    Invariant: the rays are exactly the extreme rays of the cone cut so
    far, each a gcd-normalized tuple of ints with its zero set, the
    bitmask of the constraints it meets with equality: bit i < K for
    d_i >= 0, bit K for t >= 0 and bit K+1+j for row j.  Each row is read
    as integers once (``_row_of``), and a ray's excess on it, coeffs . d -
    bound * t, is one ``sum(map(mul, ...))``.  One pass over the rays
    computes each excess once and files the ray: excess <= 0 keeps it,
    with the row's bit added to its zero set when the excess is 0, and
    excess < 0 or > 0 also lists it, with its zero set and excess, as
    strictly inside or strictly outside.  Then, for each p inside and n
    outside that are adjacent, the positive combination of p and n on the
    row's hyperplane is added after the kept rays.  The cone is pointed,
    since it lies in the orthant, so p and n are adjacent iff no third
    ray's zero set contains Z(p) & Z(n); the scan over the zero sets stops
    at the third that does.  The constraints have rank K+1, so adjacency
    also needs |Z(p) & Z(n)| >= K-1, which is checked first.

    The region is a pointed polyhedron, so it is the convex hull of the
    final rays with t > 0, divided by t, plus the cone of those with
    t = 0 (Minkowski-Weyl).  The first are the vertices, with the zero
    sets their incidence with the constraints; the second are the extreme
    recession directions.  No ray with t > 0 means the region is empty.
    Refuses K > MAX_VERTEX_K before any work.
    """
    k = region.dimension
    if k > MAX_VERTEX_K:
        raise UnsupportedDimensionError(
            "exact geometry supports K <= %d, got K=%d" % (MAX_VERTEX_K, k)
        )
    halfspaces = region.halfspaces
    full = (1 << (k + 1)) - 1  # d >= 0 and t >= 0: every orthant constraint
    first = _row_of(halfspaces[0]) if halfspaces else None
    if first is not None and min(first[:k]) > 0 and first[k] < 0:
        b, flag, start = -first[k], 1 << (k + 1), 1
        rays, zeros = [(0,) * k + (1,)], [full ^ (1 << k)]
        for i, a in enumerate(first[:k]):
            g = gcd(a, b)
            rays.append((0,) * i + (b // g,) + (0,) * (k - 1 - i) + (a // g,))
            zeros.append(full ^ (1 << i) ^ (1 << k) | flag)
    else:
        start = 0
        rays = [(0,) * i + (1,) + (0,) * (k - i) for i in range(k + 1)]
        zeros = [full ^ (1 << i) for i in range(k + 1)]
    for bit, hs in enumerate(halfspaces[start:], start=k + 1 + start):
        row = _row_of(hs)
        flag = 1 << bit
        kept_rays, kept_zeros, inside, outside = [], [], [], []
        for r, z in zip(rays, zeros):
            e = sum(map(mul, row, r))
            if e < 0:
                kept_rays.append(r)
                kept_zeros.append(z)
                inside.append((r, z, e))
            elif e:
                outside.append((r, z, e))
            else:
                kept_rays.append(r)
                kept_zeros.append(z | flag)
        for rp, zp, ep in inside:
            for rn, zn, en in outside:
                common = zp & zn
                if common.bit_count() < k - 1:
                    continue
                found = 0  # zero sets that contain common: p's, n's and a third?
                for z in zeros:
                    if z & common == common:
                        found += 1
                        if found > 2:
                            break
                else:
                    ray = [en * a - ep * b for a, b in zip(rp, rn)]
                    g = gcd(*ray)
                    if g > 1:
                        ray = [x // g for x in ray]
                    kept_rays.append(tuple(ray))
                    kept_zeros.append(common | flag)
        rays, zeros = kept_rays, kept_zeros
    return tuple(rays), tuple(zeros)


def _row_of(hs: HalfSpace):
    """The row ``coeffs . d - bound * t`` of the homogenized cone as a tuple of
    ints: coefficients and bound scaled to integers together, the bound
    negated.  Built on the half-space's first use unless its constructor
    set it (``_reciprocal_halfspace``), and kept."""
    if hs._row is None:
        row = _integer_row(hs.coeffs + (hs.bound,))
        row[-1] = -row[-1]
        object.__setattr__(hs, "_row", tuple(row))
    return hs._row


def _reciprocal_halfspace(caps, reciprocals):
    """``HalfSpace(reciprocals, 1)`` for positive int ``caps`` with
    ``reciprocals[i] == 1 / caps[i]``, its ``_row_of`` read off the caps:
    lcm(caps) // caps[i], then -lcm(caps), with no Fraction touched.

    It sets the three fields itself and skips ``__post_init__``, whose
    coercion and checks have nothing to do here: ``reciprocals`` is a
    nonempty tuple of positive Fractions and the bound is Fraction(1), so
    ``rat`` would return each as it is and no coefficient is zero.  The
    row equals, hashes and reprs as the checked ``HalfSpace(reciprocals,
    1)``."""
    hs = object.__new__(HalfSpace)
    scale = lcm(*caps)
    object.__setattr__(hs, "coeffs", reciprocals)
    object.__setattr__(hs, "bound", _ONE)
    object.__setattr__(hs, "_row", tuple([scale // c for c in caps]) + (-scale,))
    return hs


def _rays_of(region: DoFRegion):
    """The region's ``_double_description``, built on its first query only."""
    if region._rays is None:
        object.__setattr__(region, "_rays", _double_description(region))
    return region._rays


def _polytope_rays(region: DoFRegion):
    """``_rays_of`` a region that must be a nonempty polytope."""
    rays, zeros = _rays_of(region)
    if not rays or not all(r[-1] for r in rays):  # empty or unbounded: _support says which
        _support(rays, [_ONE] * region.dimension)
    return rays, zeros


def _support(rays, objective):
    """Maximum of ``objective . d`` over the region with these final rays.

    The objective is scaled to integers, so the one Fraction built is the
    maximum; raises as ``_best_vertex``.
    """
    v, t = _best_vertex(rays, _integer_row(objective))
    return Fraction(v, t * lcm(*(c.denominator for c in objective)))


def _best_vertex(rays, coeffs):
    """``(v, t)`` of the ray with t > 0 that maximizes ``v / t``, v = coeffs . d.

    A linear objective over a nonempty pointed polyhedron either grows
    along a recession ray (t = 0) or attains its maximum at a vertex.
    Raises EmptyRegionError when no ray has t > 0 and UnboundedRegionError
    when the objective is positive on a ray with t = 0.  The integer
    objective ``coeffs`` is exact, and the vertices are compared by
    cross-multiplying.
    """
    k = len(coeffs)
    if not any(r[k] for r in rays):
        raise EmptyRegionError("region is empty")
    best_v, best_t = 0, 0  # no vertex yet
    for r in rays:
        v, t = sum(map(mul, coeffs, r)), r[k]
        if not t:
            if v > 0:
                raise UnboundedRegionError("objective unbounded over region")
        elif not best_t or v * best_t > best_v * t:
            best_v, best_t = v, t
    return best_v, best_t


def vertex_enumerate(region: DoFRegion):
    """Exact vertex set, read off the region's double description.

    Raises EmptyRegionError / UnboundedRegionError unless the region is a
    nonempty polytope.  Output is sorted lexicographically.  It has no
    repeats: the extreme rays are distinct and gcd-normalized, so no two
    are multiples of each other, and dividing by t gives distinct vertices.
    The rays are sorted by an exact integer key, each coordinate x / t
    scaled to x * (L / t) with L the lcm of every t, so no Fraction is
    compared; each distinct coordinate then becomes a Fraction once.
    """
    k = region.dimension
    rays, _ = _polytope_rays(region)
    scale = lcm(*(r[k] for r in rays))
    keys = sorted(tuple(x * m for x in r[:k]) for r in rays for m in (scale // r[k],))
    values = {x: Fraction(x, scale) for x in set().union(*keys)}
    return [tuple(map(values.__getitem__, key)) for key in keys]


def remove_redundant(region: DoFRegion) -> DoFRegion:
    """Drop every half-space implied by the remaining ones.

    The region must be a nonempty polytope, else EmptyRegionError or
    UnboundedRegionError, and then every bound must be > 0, else
    GeometryError.  The result is that of visiting the rows in order and
    dropping each one implied by the current survivors other than itself
    (and nonnegativity); survivors keep their input order.

    Every bound > 0 makes eps * (1, ..., 1) an interior point, so the
    region is a full-dimensional polytope and no row's hyperplane is a
    coordinate hyperplane.  The verdicts are read off the region's own
    double description.  Let T(c) be the set of vertices tight on
    constraint c.  Row j defines a facet iff no other constraint has T(c)
    a strict superset of T(j): a face is the convex hull of its vertices,
    the facets are the maximal proper faces, and every face that is not a
    facet, the empty one included, lies in a facet, which some constraint
    of the system defines.  A row that defines no facet is redundant
    against any system that still describes the region, whatever the
    visiting order, and is dropped.  Two rows with one T define the same
    facet or none: the vertices of a facet span its hyperplane, since the
    region is full-dimensional, so a row tight on all of them has that
    hyperplane.  Rows on one hyperplane are equal after dividing each by
    its bound, and each earlier copy is implied by a later one, so of the
    rows with one T only the last is kept.

    The incidence is built in one pass over each ray's set zero bits: the
    zero sets, read as the rows of a bit matrix, are transposed, so that
    T(c) is a bitmask over the rays.  The reduced region keeps the rays of
    the input, since it is the same polytope; only their zero sets lose
    the bits of the dropped rows, and row j's bit K+1+j moves to K+1+i
    when j is the i-th kept row.  Those zero sets are the transpose back
    of the axes' and the kept rows' T, and when no row is dropped they are
    the input's.
    """
    rows = region.halfspaces
    rays, zeros = _polytope_rays(region)
    if any(hs.bound.numerator <= 0 for hs in rows):
        raise GeometryError("redundancy removal needs every bound > 0")
    k = region.dimension
    tight = _transpose(zeros, k + 1 + len(rows))
    facets = tight[k + 1 :]
    last = {t: j for j, t in enumerate(facets)}
    distinct = set(tight)
    kept = sorted(j for t, j in last.items() if not any(u | t == u != t for u in distinct))
    reduced = DoFRegion(k, tuple(rows[j] for j in kept))
    if len(kept) < len(rows):
        zeros = tuple(_transpose(tight[: k + 1] + [facets[j] for j in kept], len(zeros)))
    object.__setattr__(reduced, "_rays", (rays, zeros))
    return reduced


def _transpose(masks, width):
    """Transposed bit matrix: bit i of ``out[c]`` is bit c of ``masks[i]``.

    One pass over the set bits of each mask, for masks below ``1 << width``.
    """
    out = [0] * width
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


def region_includes(outer: DoFRegion, inner: DoFRegion) -> bool:
    """True iff inner is a subset of outer (exact).

    Inner lies in outer iff no row of outer is exceeded by inner's support
    in that row's direction.  The supports are read off inner's double
    description; they raise as ``lp_max`` on inner would.  Each row and its
    bound are read as integers (``_row_of``), so no Fraction is built.
    """
    if outer.dimension != inner.dimension:
        raise DimensionMismatchError("regions of dimension %d vs %d" % (outer.dimension, inner.dimension))
    rays, _ = _rays_of(inner)
    for hs in outer.halfspaces:
        *coeffs, minus_bound = _row_of(hs)
        v, t = _best_vertex(rays, coeffs)
        if v + minus_bound * t > 0:
            return False
    return True


def regions_equal(a: DoFRegion, b: DoFRegion) -> bool:
    """True iff the two regions have identical point sets."""
    return region_includes(a, b) and region_includes(b, a)
