"""Exact rational half-space geometry.

Regions live in the nonnegative orthant of dimension K: a ``DoFRegion``
stores explicit half-spaces ``coeffs . d <= bound`` while the constraints
``d_i >= 0`` are implicit and always enforced.  Every number in this module
is a ``fractions.Fraction``, or an ``int`` inside the linear solver; no
floating point enters any computation, so all results are reproducible bit
for bit.

Provided operations: membership, exact linear-objective maximization
(two-phase rational simplex with Bland's rule), vertex enumeration by
basis enumeration (K <= 4), redundancy removal, and point-set equality of
two regions via mutual inclusion.  Vertices come from basis enumeration
over one fraction-free integer solver, which ``solve_square`` also uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

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
    "lp_argmax",
    "is_bounded",
    "assert_bounded",
    "vertex_enumerate",
    "remove_redundant",
    "region_includes",
    "regions_equal",
    "solve_square",
]


MAX_VERTEX_K = 4  # largest dimension vertex_enumerate accepts


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

    Floats are rejected: this module is exact by contract.
    """
    if isinstance(x, float):
        raise TypeError("floating-point value not allowed in exact geometry: %r" % (x,))
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Render a rational as "p/q" (plain "p" when q == 1)."""
    return str(Fraction(x))


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatchError("dot: length %d vs %d" % (len(a), len(b)))
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class HalfSpace:
    """One inequality ``coeffs . d <= bound``."""

    coeffs: tuple
    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))
        object.__setattr__(self, "bound", rat(self.bound))
        if not self.coeffs:
            raise GeometryError("half-space needs at least one coefficient")
        if all(c == 0 for c in self.coeffs):
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
    """Bounded region {d >= 0 : coeffs_j . d <= bound_j for all j}.

    Nonnegativity is implicit: it is never stored as a user half-space.
    """

    dimension: int
    halfspaces: tuple

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
    """Exact membership: every half-space plus nonnegativity."""
    if len(point) != region.dimension:
        raise DimensionMismatchError(
            "point of length %d in %d-dimensional region" % (len(point), region.dimension)
        )
    pt = tuple(rat(x) for x in point)
    if any(x < 0 for x in pt):
        return False
    return all(hs.holds(pt) for hs in region.halfspaces)


# ---------------------------------------------------------------------------
# Exact two-phase simplex (Bland's rule, guaranteed termination)
# ---------------------------------------------------------------------------

_OPTIMAL = "optimal"
_UNBOUNDED = "unbounded"
_INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [v - f * p for v, p in zip(r, prow)]
    basis[row] = col


def _run_simplex(tab, basis, m, ncols):
    """Maximize with objective in tab[m]; Bland's rule on both choices."""
    while True:
        enter = -1
        obj = tab[m]
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return _OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return _UNBOUNDED
        _pivot(tab, basis, leave, enter)


def _canonical_objective(tab, basis, m, ncols, costs):
    """Install objective row tab[m] = reduced costs of ``costs`` w.r.t. basis."""
    row = list(costs) + [_ZERO] * (ncols - len(costs)) + [_ZERO]
    for i in range(m):
        c = row[basis[i]]
        if c != 0:
            row = [v - c * t for v, t in zip(row, tab[i])]
    tab[m] = row


def _solve_lp(a_rows, b_vals, objective):
    """max objective . x  s.t.  a_rows x <= b_vals, x >= 0  (all Fractions).

    Returns (status, value, x) with exact rationals.
    """
    m = len(a_rows)
    n = len(objective)
    # Equality form with one slack per row; rows with negative rhs are negated
    # and receive an artificial variable.
    art_of_row = {}
    rows = []
    for i in range(m):
        row = list(a_rows[i]) + [_ZERO] * m
        row[n + i] = _ONE
        rhs = b_vals[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            art_of_row[i] = None
        rows.append((row, rhs))
    n_art = len(art_of_row)
    ncols = n + m + n_art
    for k, i in enumerate(sorted(art_of_row)):
        art_of_row[i] = n + m + k

    tab = []
    basis = []
    for i, (row, rhs) in enumerate(rows):
        full = row + [_ZERO] * n_art + [rhs]
        if i in art_of_row:
            full[art_of_row[i]] = _ONE
            basis.append(art_of_row[i])
        else:
            basis.append(n + i)
        tab.append(full)
    tab.append([_ZERO] * (ncols + 1))

    if n_art:
        phase1 = [_ZERO] * ncols
        for col in art_of_row.values():
            phase1[col] = Fraction(-1)
        _canonical_objective(tab, basis, m, ncols, phase1)
        status = _run_simplex(tab, basis, m, ncols)
        assert status == _OPTIMAL, "phase 1 cannot be unbounded"
        if tab[m][-1] != 0:  # -value != 0  =>  some artificial stayed positive
            return _INFEASIBLE, None, None
        # Drive any basic artificials left at zero out of the basis.
        art_cols = set(art_of_row.values())
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + m):
                    if tab[i][j] != 0:
                        _pivot(tab, basis, i, j)
                        break
        # Discard the artificial columns so they can never re-enter; a row
        # whose artificial could not leave is redundant and is dropped.
        keep = [i for i in range(m) if basis[i] not in art_cols]
        ncols = n + m
        tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(keep)
        tab.append([_ZERO] * (ncols + 1))

    _canonical_objective(tab, basis, m, ncols, list(objective))
    status = _run_simplex(tab, basis, m, ncols)
    if status == _UNBOUNDED:
        return _UNBOUNDED, None, None
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return _OPTIMAL, -tab[m][-1], tuple(x)


def _support(region: DoFRegion, objective):
    a_rows = [hs.coeffs for hs in region.halfspaces]
    b_vals = [hs.bound for hs in region.halfspaces]
    return _solve_lp(a_rows, b_vals, [rat(c) for c in objective])


def lp_argmax(region: DoFRegion, objective):
    """Exact maximum of objective . d over the region, with a maximizer.

    Raises EmptyRegionError / UnboundedRegionError accordingly.
    """
    if len(objective) != region.dimension:
        raise DimensionMismatchError("objective length != region dimension")
    status, value, x = _support(region, objective)
    if status == _INFEASIBLE:
        raise EmptyRegionError("region is empty")
    if status == _UNBOUNDED:
        raise UnboundedRegionError("objective unbounded over region")
    return value, x


def lp_max(region: DoFRegion, objective) -> Fraction:
    value, _ = lp_argmax(region, objective)
    return value


def is_bounded(region: DoFRegion) -> bool:
    """True iff every coordinate is bounded above (d >= 0 bounds below).

    When every coefficient and bound is nonnegative, the origin is feasible
    and coordinate i is bounded iff some half-space has c_i > 0, which is
    read off the rows.  Otherwise, with d >= 0 each coordinate is at most
    d1 + ... + dK, so one LP on the all-ones objective decides it.
    """
    rows = region.halfspaces
    if all(hs.bound >= 0 and min(hs.coeffs) >= 0 for hs in rows):
        return all(any(hs.coeffs[i] > 0 for hs in rows) for i in range(region.dimension))
    status, _, _ = _support(region, [_ONE] * region.dimension)
    if status == _INFEASIBLE:
        raise EmptyRegionError("region is empty")
    return status != _UNBOUNDED


def assert_bounded(region: DoFRegion) -> DoFRegion:
    """The region itself; raises UnboundedRegionError if it is unbounded."""
    if not is_bounded(region):
        raise UnboundedRegionError("region is unbounded")
    return region


# ---------------------------------------------------------------------------
# Vertex enumeration and redundancy removal
# ---------------------------------------------------------------------------

def _integer_row(values):
    """Rationals scaled by the lcm of their denominators: a list of ints."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


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
    """Exact solution of a square rational system; None if singular."""
    sol = _solve_int([_integer_row(list(row) + [r]) for row, r in zip(matrix, rhs)])
    if sol is None:
        return None
    num, det = sol
    return tuple(Fraction(x, det) for x in num)


def vertex_enumerate(region: DoFRegion):
    """Exact vertex set by exhaustive K-subset basis enumeration.

    Each returned point is a basic feasible solution: K linearly
    independent constraints (half-spaces or axes) active, all constraints
    satisfied.  Output is deduplicated and sorted lexicographically.
    """
    k = region.dimension
    if k > MAX_VERTEX_K:
        raise UnsupportedDimensionError(
            "vertex enumeration supports K <= %d, got K=%d" % (MAX_VERTEX_K, k)
        )
    assert_bounded(region)
    rows = [_integer_row(hs.coeffs + (hs.bound,)) for hs in region.halfspaces]
    axes = [[int(j == i) for j in range(k)] + [0] for i in range(k)]
    found = set()
    for basis in combinations(rows + axes, k):
        sol = _solve_int(basis)
        if sol is None:
            continue
        num, det = sol
        if min(num) >= 0 and all(sum(c * x for c, x in zip(row, num)) <= row[k] * det for row in rows):
            found.add(tuple(Fraction(x, det) for x in num))
    return sorted(found)


def remove_redundant(region: DoFRegion) -> DoFRegion:
    """Drop every half-space implied by the remaining ones.

    A half-space is redundant iff maximizing its left side subject to the
    others (and nonnegativity) stays <= its bound; a sub-problem that
    becomes unbounded means the half-space is load-bearing and is kept.
    """
    assert_bounded(region)
    survivors = list(region.halfspaces)
    i = 0
    while i < len(survivors):
        hs = survivors[i]
        others = survivors[:i] + survivors[i + 1 :]
        status, value, _ = _solve_lp(
            [o.coeffs for o in others], [o.bound for o in others], list(hs.coeffs)
        )
        if status == _OPTIMAL and value <= hs.bound:
            survivors.pop(i)
        else:
            i += 1
    return DoFRegion(region.dimension, tuple(survivors))


def region_includes(outer: DoFRegion, inner: DoFRegion) -> bool:
    """True iff inner is a subset of outer (exact, via support LPs)."""
    if outer.dimension != inner.dimension:
        raise DimensionMismatchError("regions of dimension %d vs %d" % (outer.dimension, inner.dimension))
    for hs in outer.halfspaces:
        if lp_max(inner, hs.coeffs) > hs.bound:
            return False
    return True


def regions_equal(a: DoFRegion, b: DoFRegion) -> bool:
    """True iff the two regions have identical point sets."""
    return region_includes(a, b) and region_includes(b, a)
