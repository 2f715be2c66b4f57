"""Reference ``convex_decompose_2d`` for the oracle tests: the Fraction scan.

This is the scan that ``doflab.regions.convex_decompose_2d`` ran before it
moved to integers: the same corners in the same sorted order, each single
corner, segment and triangle tried in turn, in Fraction arithmetic, with
the triangles solved by ``solve_square``.  The integer scan is checked
against it output for output.  The file name keeps pytest from collecting it.
"""

from fractions import Fraction
from itertools import combinations

from doflab.exactgeom import GeometryError, rat, rat_str, solve_square

_ONE = Fraction(1)


def convex_decompose_2d(target, corners):
    """[(corner, weight), ...] with positive weights summing to 1, or GeometryError."""
    tx, ty = rat(target[0]), rat(target[1])
    pts = sorted({(rat(x), rat(y)) for x, y in corners})
    for p in pts:
        if p == (tx, ty):
            return [(p, _ONE)]
    for a, b in combinations(pts, 2):
        ux, uy = b[0] - a[0], b[1] - a[1]
        wx, wy = tx - a[0], ty - a[1]
        if ux * wy - uy * wx != 0:
            continue
        lam = wx / ux if ux != 0 else wy / uy  # a != b: the points come from a set
        if 0 <= lam <= 1:  # a zero cross product puts the target at a + lam (b - a)
            out = [(a, 1 - lam), (b, lam)]
            return [(p, w) for p, w in out if w > 0]
    for a, b, c in combinations(pts, 3):
        mat = ((a[0], b[0], c[0]), (a[1], b[1], c[1]), (_ONE, _ONE, _ONE))
        sol = solve_square(mat, (tx, ty, _ONE))
        if sol is None:
            continue
        if all(w >= 0 for w in sol):
            return [(p, w) for p, w in zip((a, b, c), sol) if w > 0]
    raise GeometryError("point (%s, %s) is not in the hull of the corners" % (rat_str(tx), rat_str(ty)))
