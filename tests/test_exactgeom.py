"""Exact-geometry layer: membership, LP, vertices, redundancy, equality.

Derived expectations are checked against independent oracles: a float LP
solved by scipy (HiGHS) for support values and redundancy, and brute
maximization over enumerated vertices for the simplex.
"""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from doflab import exactgeom
from doflab.exactgeom import (
    DimensionMismatchError,
    DoFRegion,
    EmptyRegionError,
    GeometryError,
    HalfSpace,
    UnboundedRegionError,
    UnsupportedDimensionError,
    contains,
    dot,
    is_bounded,
    lp_argmax,
    lp_max,
    rat,
    rat_str,
    regions_equal,
    remove_redundant,
    solve_square,
    vertex_enumerate,
)
from doflab.regions import AntennaConfig, outer_bound_region, three_user_region, two_user_region
from doflab.serialize import halfspaces_to_csv, parse_vertices_csv, vertices_to_csv


def scipy_support_oracle(region, objective):
    """Independent float route: maximize objective over the region via HiGHS."""
    res = linprog(
        c=[-float(x) for x in objective],
        A_ub=[[float(c) for c in hs.coeffs] for hs in region.halfspaces],
        b_ub=[float(hs.bound) for hs in region.halfspaces],
        bounds=[(0, None)] * region.dimension,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def scipy_redundant_oracle(region, index):
    """Float redundancy test: max LHS_index subject to the other rows."""
    hs = region.halfspaces[index]
    others = [h for i, h in enumerate(region.halfspaces) if i != index]
    res = linprog(
        c=[-float(c) for c in hs.coeffs],
        A_ub=[[float(c) for c in h.coeffs] for h in others] or None,
        b_ub=[float(h.bound) for h in others] or None,
        bounds=[(0, None)] * region.dimension,
        method="highs",
    )
    if res.status == 3:  # unbounded once the row is dropped: row is load-bearing
        return False
    assert res.status == 0, res.message
    return -res.fun <= float(hs.bound) + 1e-9


REGION_432 = two_user_region(4, 3, 2)

TEST_REGIONS = [
    two_user_region(4, 3, 2),
    two_user_region(2, 1, 1),
    two_user_region(1, 1, 1),
    two_user_region(8, 3, 2),
    outer_bound_region(AntennaConfig(3, (1, 1, 1))),
    outer_bound_region(AntennaConfig(5, (2, 2, 1))),
    three_user_region(2, 1),
    three_user_region(3, 2),
    outer_bound_region(AntennaConfig(4, (1, 1, 1, 1))),
]


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("12/5") == F(12, 5)
    assert rat(3) == F(3)


def test_rat_str():
    assert rat_str(F(12, 5)) == "12/5"
    assert rat_str(F(3)) == "3"
    assert rat_str(F(-1, 2)) == "-1/2"


def test_halfspace_validation():
    with pytest.raises(GeometryError):
        HalfSpace((0, 0), 1)
    with pytest.raises(GeometryError):
        HalfSpace((), 1)
    hs = HalfSpace((F(1, 4), F(1, 2)), 1)
    assert hs.render() == "1/4 d1 + 1/2 d2 <= 1"
    assert HalfSpace((1,), 1).render() == "d1 <= 1"


def test_region_validation():
    with pytest.raises(DimensionMismatchError):
        DoFRegion(3, (HalfSpace((1, 1), 1),))
    with pytest.raises(GeometryError):
        DoFRegion(0, ())


def test_contains_point_q():
    assert contains(REGION_432, (F(12, 5), F(4, 5)))


def test_contains_perturbed_point_violates_l1():
    # direct substitution: 12/20 + (4/5 + 1/1000)/2 = 1 + 1/2000 > 1
    assert not contains(REGION_432, (F(12, 5), F(4, 5) + F(1, 1000)))


def test_contains_origin_always():
    for region in TEST_REGIONS:
        assert contains(region, (F(0),) * region.dimension)


def test_contains_rejects_negative_coordinates():
    assert not contains(REGION_432, (F(-1, 10), F(0)))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(REGION_432, (F(1),))


# ---------------------------------------------------------------------------
# remove_redundant
# ---------------------------------------------------------------------------

def test_remove_redundant_case_a_line():
    # Theorem-2 region (3,3,2): second line is implied by the first.
    region = two_user_region(3, 3, 2)
    assert [hs.render() for hs in region.halfspaces] == [
        "1/3 d1 + 1/2 d2 <= 1",
        "1/3 d1 + 1/3 d2 <= 1",
    ]
    reduced = remove_redundant(region)
    assert reduced.halfspaces == (region.halfspaces[0],)


def test_remove_redundant_duplicate():
    dup = HalfSpace((1, 1), 1)
    region = DoFRegion(2, (dup, dup))
    reduced = remove_redundant(region)
    assert reduced.halfspaces == (dup,)


def test_remove_redundant_retains_both_permutation_bounds():
    # Oracle first: the float LP says neither row of the K=2 outer bound
    # for (4,3,2) is implied by the other.
    region = REGION_432
    oracle = [scipy_redundant_oracle(region, i) for i in range(2)]
    assert oracle == [False, False]
    assert remove_redundant(region).halfspaces == region.halfspaces


@pytest.mark.parametrize("region", TEST_REGIONS)
def test_remove_redundant_preserves_membership(region):
    reduced = remove_redundant(region)
    rng = random.Random(2026)
    box = [lp_max(region, tuple(F(1 if j == i else 0) for j in range(region.dimension)))
           for i in range(region.dimension)]
    for _ in range(1000):
        point = tuple(
            F(rng.randint(0, 5 * (b.numerator + b.denominator)), 4 * b.denominator + 1)
            for b in box
        )
        assert contains(region, point) == contains(reduced, point)


def test_remove_redundant_unbounded_error():
    region = DoFRegion(2, (HalfSpace((1, -1), 1),))
    with pytest.raises(UnboundedRegionError):
        remove_redundant(region)


# ---------------------------------------------------------------------------
# vertex_enumerate
# ---------------------------------------------------------------------------

def test_vertices_two_user_432():
    assert vertex_enumerate(REGION_432) == [
        (F(0), F(0)),
        (F(0), F(2)),
        (F(12, 5), F(4, 5)),
        (F(3), F(0)),
    ]


def test_vertices_point_region():
    region = DoFRegion(1, (HalfSpace((1,), 0),))
    assert vertex_enumerate(region) == [(F(0),)]


def test_vertices_three_user_21():
    # Hand derivation: basic solutions of {d_i + d_j + 2 d_k = 2} with axes.
    # Pairwise symmetric corners solve d_i(1 + 2) + ... at 2/3; the fully
    # symmetric corner solves (1+1+2) d = 2 twice over => 1/2 each.
    expected = {
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
        (F(2, 3), F(2, 3), F(0)),
        (F(2, 3), F(0), F(2, 3)),
        (F(0), F(2, 3), F(2, 3)),
        (F(1, 2), F(1, 2), F(1, 2)),
    }
    assert set(vertex_enumerate(three_user_region(2, 1))) == expected


def _active_rank(region, vertex):
    rows = [hs.coeffs for hs in region.halfspaces if hs.active(vertex)]
    for i, x in enumerate(vertex):
        if x == 0:
            rows.append(tuple(F(1 if j == i else 0) for j in range(region.dimension)))
    # exact rank by Gaussian elimination
    rank = 0
    work = [list(r) for r in rows]
    for col in range(region.dimension):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] / work[rank][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("region", TEST_REGIONS)
def test_vertices_feasible_with_full_active_rank(region):
    for vertex in vertex_enumerate(region):
        assert contains(region, vertex)
        assert _active_rank(region, vertex) == region.dimension


def test_vertices_unsupported_dimension():
    region = DoFRegion(5, (HalfSpace((1,) * 5, 1),))
    with pytest.raises(UnsupportedDimensionError):
        vertex_enumerate(region)


def test_vertices_unbounded_error():
    region = DoFRegion(2, (HalfSpace((1, -1), 1),))
    with pytest.raises(UnboundedRegionError):
        vertex_enumerate(region)


# ---------------------------------------------------------------------------
# lp_max
# ---------------------------------------------------------------------------

def test_lp_max_sum_dof_432():
    # max at Q: 12/5 + 4/5 = 16/5 (oracle: evaluate at the enumerated corners)
    verts = vertex_enumerate(REGION_432)
    assert max(v[0] + v[1] for v in verts) == F(16, 5)
    assert lp_max(REGION_432, (F(1), F(1))) == F(16, 5)


def test_lp_max_single_user_corner():
    assert lp_max(REGION_432, (F(1), F(0))) == F(3)


def test_lp_max_three_user_permutation_outer():
    region = outer_bound_region(AntennaConfig(3, (1, 1, 1)))
    assert lp_max(region, (F(1), F(1), F(1))) == F(18, 11)


def test_lp_argmax_point_is_feasible_and_tight():
    value, point = lp_argmax(REGION_432, (F(1), F(1)))
    assert contains(REGION_432, point)
    assert dot(point, (F(1), F(1))) == value


def test_lp_max_empty_region_error():
    region = DoFRegion(1, (HalfSpace((1,), -1),))
    with pytest.raises(EmptyRegionError):
        lp_max(region, (F(1),))


def test_lp_max_unbounded_error():
    region = DoFRegion(2, (HalfSpace((1, -1), 1),))
    with pytest.raises(UnboundedRegionError):
        lp_max(region, (F(0), F(1)))


@pytest.mark.parametrize("region", TEST_REGIONS)
def test_lp_max_equals_vertex_max_on_random_objectives(region):
    rng = random.Random(7)
    verts = vertex_enumerate(region)
    for _ in range(50):
        objective = tuple(F(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(region.dimension))
        if all(c == 0 for c in objective):
            continue
        assert lp_max(region, objective) == max(dot(objective, v) for v in verts)


@pytest.mark.parametrize("region", TEST_REGIONS)
def test_lp_max_matches_scipy_oracle(region):
    rng = random.Random(11)
    for _ in range(10):
        objective = tuple(F(rng.randint(1, 20), rng.randint(1, 7)) for _ in range(region.dimension))
        exact = lp_max(region, objective)
        assert float(exact) == pytest.approx(scipy_support_oracle(region, objective), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24), min_size=4, max_size=4),
    objective=st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12), min_size=2, max_size=2),
)
def test_lp_max_dominates_any_feasible_point(weights, objective):
    # any convex combination of vertices is feasible, so its objective value
    # can never exceed the LP maximum
    region = REGION_432
    total = sum(weights)
    if total == 0 or all(c == 0 for c in objective):
        return
    verts = vertex_enumerate(region)
    point = tuple(
        sum((w / total) * v[i] for w, v in zip(weights, verts)) for i in range(2)
    )
    assert contains(region, point)
    assert dot(objective, point) <= lp_max(region, tuple(objective))


# ---------------------------------------------------------------------------
# regions_equal
# ---------------------------------------------------------------------------

def test_regions_equal_theorem1_vs_theorem2():
    outer = outer_bound_region(AntennaConfig(4, (3, 2)))
    assert regions_equal(outer, REGION_432)


def test_regions_equal_saturation_beyond_n1_plus_n2():
    assert regions_equal(two_user_region(5, 3, 2), two_user_region(7, 3, 2))


def test_regions_not_equal_different_m():
    assert not regions_equal(two_user_region(3, 3, 2), REGION_432)


def test_regions_equal_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        regions_equal(REGION_432, three_user_region(2, 1))


def test_is_bounded():
    assert is_bounded(REGION_432)
    assert not is_bounded(DoFRegion(2, (HalfSpace((1, -1), 1),)))
    # bounded in d1 and d2, unbounded only in the last coordinate
    assert not is_bounded(DoFRegion(3, (HalfSpace((1, 1, 0), 1),)))
    with pytest.raises(EmptyRegionError):
        is_bounded(DoFRegion(2, (HalfSpace((1, 1), -1),)))


def test_nonnegative_region_bounded_without_lp(monkeypatch):
    # nonnegative coefficients and bounds: the origin is feasible and each
    # coordinate is bounded iff some row weighs it, so no LP is needed
    region = outer_bound_region(AntennaConfig(3, (2, 2, 1)))
    expected = vertex_enumerate(region)

    def refuse(*args):
        raise AssertionError("boundedness of a nonnegative region ran an LP")

    monkeypatch.setattr(exactgeom, "_solve_lp", refuse)
    assert vertex_enumerate(region) == expected
    assert is_bounded(DoFRegion(2, (HalfSpace((1, 0), 1), HalfSpace((0, F(1, 2)), 0))))
    assert not is_bounded(DoFRegion(3, (HalfSpace((1, 1, 0), 1), HalfSpace((2, 0, 0), 3))))
    assert not is_bounded(DoFRegion(1, ()))


def test_lp_with_lower_bound_row():
    # regression: a negative-rhs row (x >= 1/3) goes through phase 1; the
    # artificial column must never re-enter afterwards
    region = DoFRegion(1, (
        HalfSpace((F(-4),), 4),
        HalfSpace((F(-3, 2),), F(-1, 2)),
        HalfSpace((F(2, 3),), 7),
    ))
    assert lp_max(region, (F(5, 2),)) == F(105, 4)


def test_lp_differential_against_scipy_random_instances():
    # Random constraint systems, negative bounds included.  Wherever HiGHS
    # certifies an optimum, the rational simplex must agree on the value;
    # our reported maximizer must always be feasible.
    rng = random.Random(314159)
    from doflab.exactgeom import _solve_lp

    optima = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        a_rows = [[F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        b_vals = [F(rng.randint(-3, 8), rng.randint(1, 2)) for _ in range(m)]
        cost = [F(rng.randint(-3, 5), rng.randint(1, 2)) for _ in range(n)]
        status, value, x = _solve_lp(a_rows, b_vals, cost)
        res = linprog(
            c=[-float(v) for v in cost],
            A_ub=[[float(v) for v in row] for row in a_rows],
            b_ub=[float(v) for v in b_vals],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if res.status == 0:
            optima += 1
            assert status == "optimal"
            assert float(value) == pytest.approx(-res.fun, rel=1e-9, abs=1e-9)
        if status == "optimal":
            assert all(xi >= 0 for xi in x)
            for row, bound in zip(a_rows, b_vals):
                assert sum(r * xi for r, xi in zip(row, x)) <= bound
    assert optima > 100  # the comparison actually exercised many optima


def test_solve_square_singular_returns_none():
    assert solve_square(((F(1), F(2)), (F(2), F(4))), (F(1), F(2))) is None


_RATIONAL = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def rational_systems(draw):
    n = draw(st.integers(1, 6))
    matrix = [draw(st.lists(_RATIONAL, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # force a dependent row: a rational combination of the other rows
        target = draw(st.integers(0, n - 1))
        weights = [draw(_RATIONAL) for _ in range(n)]
        matrix[target] = [
            sum((w * row[j] for i, (w, row) in enumerate(zip(weights, matrix)) if i != target), F(0))
            for j in range(n)
        ]
    rhs = draw(st.lists(_RATIONAL, min_size=n, max_size=n))
    return matrix, rhs


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_solve_square_exact_against_sympy_determinant(system):
    matrix, rhs = system
    sol = solve_square(matrix, rhs)
    det = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in matrix]).det()
    assert (sol is None) == (det == 0)
    if sol is not None:
        assert all(isinstance(x, F) for x in sol)
        for row, b in zip(matrix, rhs):
            assert sum(a * x for a, x in zip(row, sol)) == b


def test_vertex_enumerate_does_not_route_through_solve_square(monkeypatch):
    # a traced run wraps every binding of the public solve_square in a span;
    # the per-basis solves must stay off it
    def refuse(*args):
        raise AssertionError("vertex_enumerate called solve_square")

    monkeypatch.setattr(exactgeom, "solve_square", refuse)
    assert vertex_enumerate(REGION_432)[2] == (F(12, 5), F(4, 5))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_vertices_csv_round_trip():
    verts = vertex_enumerate(REGION_432)
    text = vertices_to_csv(verts, 2)
    assert text.splitlines()[0] == "d1,d2"
    assert "12/5,4/5" in text
    dim, parsed = parse_vertices_csv(text)
    assert dim == 2 and parsed == verts
    for blank in ("", "\n \n"):
        with pytest.raises(GeometryError, match="no header"):
            parse_vertices_csv(blank)


def test_halfspaces_csv():
    assert halfspaces_to_csv(REGION_432) == (
        "d1,d2,bound\n1/4,1/2,1\n1/3,1/4,1\n"
    )


def test_everything_stays_rational():
    value, point = lp_argmax(REGION_432, (F(1), F(1)))
    assert isinstance(value, F)
    assert all(isinstance(x, F) for x in point)
    for v in vertex_enumerate(three_user_region(3, 2)):
        assert all(isinstance(x, F) for x in v)
