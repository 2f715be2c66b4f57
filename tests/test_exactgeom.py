"""Exact-geometry layer: membership, LP, vertices, redundancy, equality.

Derived expectations are checked against independent oracles: a float LP
solved by scipy (HiGHS) for support values and redundancy, an exact
rational simplex (``reference_simplex``) for support values, boundedness
and the in-order redundancy loop, and enumeration of every basis for the
double-description vertex enumeration.
"""

import random
import time
from fractions import Fraction as F
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
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
    lp_max,
    rat,
    rat_str,
    region_includes,
    regions_equal,
    remove_redundant,
    solve_square,
    vertex_enumerate,
)
from doflab.regions import (
    AntennaConfig,
    outer_bound_region,
    permutation_inequalities,
    three_user_region,
    two_user_region,
)
from doflab.serialize import halfspaces_to_csv, vertices_to_csv
from reference_dd import double_description as reference_double_description
from reference_simplex import _OPTIMAL, _solve_lp, reference_is_bounded, reference_lp_argmax


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
    outer_bound_region(AntennaConfig(3, (2, 1, 1, 1, 1))),
]


def test_rat_rejects_floats():
    for inexact in (0.5, np.float32(0.5), np.float64(0.5)):
        with pytest.raises(TypeError, match="floating-point value not allowed"):
            rat(inexact)
    assert rat("12/5") == F(12, 5)
    assert rat(3) == F(3)
    third = F(1, 3)
    assert rat(third) is third


def test_rat_str():
    assert rat_str(F(12, 5)) == "12/5"
    assert rat_str(F(3)) == "3"
    assert rat_str(F(-1, 2)) == "-1/2"
    assert rat_str(7) == "7" and rat_str("6/4") == "3/2"
    for inexact in (0.1, np.float64(0.5)):
        with pytest.raises(TypeError):
            rat_str(inexact)


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


def fraction_contains(region, point):
    """Membership in Fraction arithmetic, row by row: the integer test's oracle."""
    pt = [F(x) for x in point]
    return all(x >= 0 for x in pt) and all(
        sum((c * x for c, x in zip(hs.coeffs, pt)), F(0)) <= hs.bound for hs in region.halfspaces)


def _membership_cases(count, seed=33):
    """Regions of any row signs, zero and negative bounds included, each with
    a point on, near or off its rows, in int, Fraction and "p/q" entries."""
    rng = random.Random(seed)

    def rational(lo, hi):
        return F(rng.randint(lo * 12, hi * 12), rng.choice((1, 2, 3, 4, 6, 12)))

    cases = [  # tight, then just outside, at bound 0 and at a negative bound
        (DoFRegion(2, (HalfSpace((-1, 2), 0),)), [F(2), F(1)]),
        (DoFRegion(2, (HalfSpace((-1, 2), 0),)), [F(2), F(1001, 1000)]),
        (DoFRegion(2, (HalfSpace((1, -1), F(-1, 2)),)), [F(1, 2), F(1)]),
        (DoFRegion(2, (HalfSpace((1, -1), F(-1, 2)),)), [F(1, 2), F(999, 1000)]),
        (DoFRegion(1, (HalfSpace((F(-3, 7),), F(-1, 3)),)), [F(7, 9)]),
        (DoFRegion(3, ()), [0, "1/2", F(-1, 3)]),  # off the orthant, no row
    ]
    while len(cases) < count:
        k = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(0, 5)):
            coeffs = [rational(-3, 3) for _ in range(k)]
            if any(coeffs):
                rows.append((coeffs, rational(-3, 3)))
        point = [rational(-1, 4) for _ in range(k)]
        if rows and rng.random() < 0.5:  # onto the first row, where <= is tight
            coeffs, bound = rows[0]
            i = next(i for i, c in enumerate(coeffs) if c)
            point[i] = (bound - sum(c * x for j, (c, x) in enumerate(zip(coeffs, point)) if j != i)) / coeffs[i]
        forms = (F, str, lambda x: int(x) if x.denominator == 1 else x)
        cases.append((DoFRegion(k, [HalfSpace(c, b) for c, b in rows]),
                      [rng.choice(forms)(x) for x in point]))
    return cases


def test_contains_matches_fraction_arithmetic():
    cases = _membership_cases(3000)
    verdicts = [contains(region, point) for region, point in cases]
    assert verdicts == [fraction_contains(region, point) for region, point in cases]
    assert 300 < sum(verdicts) < 2700  # both verdicts are well represented
    assert verdicts[:6] == [True, False, True, False, True, False]


def test_contains_refuses_floats():
    for point in ((0.5, F(0)), (F(1, 2), np.float64(0.0))):
        with pytest.raises(TypeError):
            contains(REGION_432, point)


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
    # the region is checked before the bounds
    with pytest.raises(UnboundedRegionError):
        remove_redundant(DoFRegion(2, (HalfSpace((1, -1), 0),)))


def test_remove_redundant_empty_error():
    with pytest.raises(EmptyRegionError):
        remove_redundant(DoFRegion(2, (HalfSpace((1, 1), -1), HalfSpace((1, 0), 1))))


def _reference_assert_bounded(region):
    if not reference_is_bounded(region):
        raise UnboundedRegionError("region is unbounded")


def sequential_remove_redundant(region):
    """Reference: one cold simplex LP per row against the current survivors, in order."""
    _reference_assert_bounded(region)
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


_COEFF = st.builds(F, st.integers(-1, 5), st.integers(1, 3))
_BOUND = st.builds(F, st.integers(-1, 6), st.integers(1, 3))


@st.composite
def redundancy_regions(draw):
    """K=2..5 rows, some closed under within-class coordinate permutations,
    some with a duplicate, a proportional or a bound <= 0 row."""
    k = draw(st.integers(2, 5))
    rows = [
        (tuple(draw(st.lists(_COEFF, min_size=k, max_size=k))), draw(_BOUND))
        for _ in range(draw(st.integers(1, 4)))
    ]
    rows = [(c, b) for c, b in rows if any(c)] or [((F(1),) * k, F(1))]
    if draw(st.booleans()):
        label = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        perms = [p for p in permutations(range(k)) if all(label[p[j]] == label[j] for j in range(k))]
        closed = []
        for c, b in rows:
            for p in perms:
                row = (tuple(c[p[j]] for j in range(k)), b)
                if row not in closed:
                    closed.append(row)
        rows = closed[:16]
    extra = draw(st.sampled_from(["none", "duplicate", "proportional", "nonpositive"]))
    c, b = draw(st.sampled_from(rows))
    if extra == "duplicate":
        rows.append((c, b))
    elif extra == "proportional":
        scale = draw(st.sampled_from([F(1, 2), F(2), F(3, 2)]))
        rows.append((tuple(x * scale for x in c), b * scale))
    elif extra == "nonpositive":
        rows.append((c, draw(st.sampled_from([F(0), F(-1, 2)]))))
    rows = draw(st.permutations(rows))
    return DoFRegion(k, tuple(HalfSpace(c, b) for c, b in rows))


@settings(max_examples=120, deadline=None)
@given(redundancy_regions())
def test_remove_redundant_matches_sequential_lp_loop(region):
    try:
        expected = sequential_remove_redundant(region)
    except GeometryError as err:
        with pytest.raises(type(err)):
            remove_redundant(region)
        return
    if all(hs.bound > 0 for hs in region.halfspaces):
        with pytest.MonkeyPatch.context() as mp:
            calls = count_double_descriptions(mp)
            assert remove_redundant(region).halfspaces == expected.halfspaces
        assert calls == [region]
    else:
        with pytest.raises(GeometryError, match="every bound > 0"):
            remove_redundant(region)


def _raw_outer_bound(config):
    return DoFRegion(config.K, tuple(dict.fromkeys(permutation_inequalities(config))))


FIXED_REDUNDANCY_REGIONS = [
    _raw_outer_bound(AntennaConfig(3, (2, 1, 1, 1, 1))),
    _raw_outer_bound(AntennaConfig(5, (2, 2, 1, 1))),
    # mirrored rows, but d2 <= 1/2 breaks the swap: (2, 1) is kept, (1, 2) dropped
    DoFRegion(2, (HalfSpace((2, 1), 2), HalfSpace((1, 2), 2), HalfSpace((0, 1), F(1, 2)))),
    # larger coefficients but a larger bound: no dominance, both kept
    DoFRegion(2, (HalfSpace((1, 0), F(3, 2)), HalfSpace((1, 1), 2))),
    # (1,1) <= 1 and (2,2) <= 2 are one half-space, so only the last copy is
    # kept, and (1,0) <= 2 is implied by it
    DoFRegion(2, (HalfSpace((1, 1), 1), HalfSpace((2, 2), 2), HalfSpace((1, 0), 2))),
]


@pytest.mark.parametrize("region", FIXED_REDUNDANCY_REGIONS)
def test_remove_redundant_matches_sequential_lp_loop_on_fixed_regions(monkeypatch, region):
    region = fresh(region)
    calls = count_double_descriptions(monkeypatch)
    assert remove_redundant(region).halfspaces == sequential_remove_redundant(region).halfspaces
    assert calls == [region]


def count_double_descriptions(monkeypatch):
    """Record the region of every ``_double_description`` call."""
    calls = []
    real = exactgeom._double_description

    def counting(region):
        calls.append(region)
        return real(region)

    monkeypatch.setattr(exactgeom, "_double_description", counting)
    return calls


def fresh(region):
    """An equal region that has not built its double description yet.

    A region keeps its double description after its first query, so a test
    that counts builds on a shared region takes a copy, and its count does
    not depend on which test queried the region first.
    """
    return DoFRegion(region.dimension, region.halfspaces)


def test_remove_redundant_reads_outer_bound_facets_without_lp(monkeypatch):
    # one double description per raw outer bound, whatever its number of rows
    calls = count_double_descriptions(monkeypatch)
    assert len(remove_redundant(_raw_outer_bound(AntennaConfig(3, (1,) * 5))).halfspaces) == 20
    assert len(remove_redundant(_raw_outer_bound(AntennaConfig(4, (1,) * 5))).halfspaces) == 60
    config = AntennaConfig(5, (2, 2, 1, 1))
    assert len(_raw_outer_bound(config).halfspaces) == 22
    assert len(remove_redundant(_raw_outer_bound(config)).halfspaces) == 14
    assert len(calls) == 3


def test_remove_redundant_drops_dominated_row_without_lp(monkeypatch):
    calls = count_double_descriptions(monkeypatch)
    region = two_user_region(3, 3, 2)
    assert remove_redundant(region).halfspaces == region.halfspaces[:1]
    assert calls == [region]


@pytest.mark.parametrize("region", [
    # the single point (1, 1): symmetric rows with negative bounds, no interior
    DoFRegion(2, (HalfSpace((-2, -1), -3), HalfSpace((-1, -2), -3), HalfSpace((2, 0), 2), HalfSpace((0, 2), 2))),
    DoFRegion(2, tuple(HalfSpace((1, j), j) for j in range(1, 80)) + (HalfSpace((1, 1), 0),)),
    DoFRegion(3, (HalfSpace((1, 1, 1), 1), HalfSpace((0, 1, 0), 0))),
], ids=["point", "80-rows", "zero-bound"])
def test_remove_redundant_refuses_nonpositive_bound_after_one_double_description(monkeypatch, region):
    region = fresh(region)
    calls = count_double_descriptions(monkeypatch)
    with pytest.raises(GeometryError, match="every bound > 0"):
        remove_redundant(region)
    assert calls == [region]


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
    region = DoFRegion(6, (HalfSpace((1,) * 6, 1),))
    with pytest.raises(UnsupportedDimensionError):
        vertex_enumerate(region)


SIX = DoFRegion(6, (HalfSpace((1,) * 6, 1),))
# a bound of 0 is refused only after the dimension check
SIX_WITH_ZERO_BOUND = DoFRegion(6, SIX.halfspaces + (HalfSpace((1, 0, 0, 0, 0, 0), 0),))


@pytest.mark.parametrize("query", [
    lambda: lp_max(SIX, (1,) * 6),
    lambda: is_bounded(SIX),
    lambda: region_includes(SIX, SIX),
    lambda: regions_equal(SIX, SIX),
    lambda: remove_redundant(SIX),
    lambda: remove_redundant(SIX_WITH_ZERO_BOUND),
], ids=[
    "lp_max", "is_bounded", "region_includes", "regions_equal",
    "remove_redundant-incidence", "remove_redundant-zero-bound",
])
def test_every_query_refuses_six_dimensions_before_any_work(monkeypatch, query):
    # the double description converts each row to integers before anything else
    def refuse(values):
        raise AssertionError("work started on a K=6 region")

    monkeypatch.setattr(exactgeom, "_integer_row", refuse)
    with pytest.raises(UnsupportedDimensionError, match="K <= 5, got K=6"):
        query()


def test_membership_and_square_solves_have_no_dimension_limit():
    assert contains(SIX, (F(1, 6),) * 6)
    assert not contains(SIX, (F(1, 5),) * 6)
    identity = [[F(int(i == j)) for j in range(6)] for i in range(6)]
    assert solve_square(identity, [F(j) for j in range(6)]) == tuple(F(j) for j in range(6))


def test_vertices_five_single_antenna_users_fast():
    # One vertex per set S of served users: d_i = x_s on S, 0 elsewhere, with
    # x_s = 1 / sum_{i<=s} 1/min(M, i) from the permutation bound on S alone.
    region = outer_bound_region(AntennaConfig(4, (1,) * 5))
    start = time.perf_counter()
    verts = vertex_enumerate(region)
    assert time.perf_counter() - start < 1.0
    level = [F(0)] + [1 / sum(F(1, min(4, i)) for i in range(1, s + 1)) for s in range(1, 6)]
    assert level[1:] == [F(1), F(2, 3), F(6, 11), F(12, 25), F(3, 7)]
    served = [tuple(int(b) for b in format(mask, "05b")) for mask in range(32)]
    assert verts == sorted(tuple(level[sum(on)] * b for b in on) for on in served)
    for vertex in verts:
        assert contains(region, vertex)
        assert _active_rank(region, vertex) == 5


def basis_vertex_enumerate(region):
    """Reference: every basic feasible solution, one integer solve per K-subset
    of the rows and axes."""
    k = region.dimension
    _reference_assert_bounded(region)
    rows = [exactgeom._integer_row(hs.coeffs + (hs.bound,)) for hs in region.halfspaces]
    axes = [[int(j == i) for j in range(k)] + [0] for i in range(k)]
    found = set()
    for basis in combinations(rows + axes, k):
        sol = exactgeom._solve_int(basis)
        if sol is None:
            continue
        num, det = sol
        if min(num) >= 0 and all(sum(c * x for c, x in zip(row, num)) <= row[k] * det for row in rows):
            found.add(tuple(F(x, det) for x in num))
    return sorted(found)


@st.composite
def vertex_regions(draw):
    """K=1..4 rows with negative coefficients, zero and negative bounds, and
    duplicated or proportional rows: empty, degenerate and lower-dimensional
    regions included."""
    k = draw(st.integers(1, 4))
    rows = [
        (tuple(draw(st.lists(_COEFF, min_size=k, max_size=k))), draw(_BOUND))
        for _ in range(draw(st.integers(1, 6)))
    ]
    rows = [(c, b) for c, b in rows if any(c)] or [((F(1),) * k, F(1))]
    for _ in range(draw(st.integers(0, 2))):
        c, b = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([F(1), F(1, 2), F(3)]))
        rows.insert(draw(st.integers(0, len(rows))), (tuple(x * scale for x in c), b * scale))
    return DoFRegion(k, tuple(HalfSpace(c, b) for c, b in rows))


@settings(max_examples=200, deadline=None)
@given(vertex_regions())
def test_vertex_enumerate_matches_basis_enumeration(region):
    try:
        expected = basis_vertex_enumerate(region)
    except GeometryError as err:
        with pytest.raises(type(err)):
            vertex_enumerate(region)
        return
    assert vertex_enumerate(region) == expected


@pytest.mark.parametrize("n", [(3, 1, 1, 1, 1), (2, 1, 1, 1, 1)])
def test_vertex_enumerate_matches_basis_enumeration_at_five_users(n):
    region = outer_bound_region(AntennaConfig(3, n))
    assert vertex_enumerate(region) == basis_vertex_enumerate(region)


# ---------------------------------------------------------------------------
# the incidence, vertex and inclusion kernels against plain formulations
# ---------------------------------------------------------------------------

def fraction_sorted_vertices(region):
    """Reference: each ray with t > 0 divided by t as Fractions, then sorted."""
    k = region.dimension
    rays, _ = exactgeom._rays_of(region)
    return sorted(tuple(F(x, r[k]) for x in r[:k]) for r in rays if r[k])


def shift_and_mask_reduction(region):
    """Reference: T(c) of every constraint c, by shifting every zero set once
    per constraint; the kept rows; and the reduced region's rays, with each
    zero set remapped bit by bit."""
    k, rows = region.dimension, region.halfspaces
    rays, zeros = exactgeom._rays_of(region)
    tight = [sum(1 << r for r, z in enumerate(zeros) if z >> c & 1) for c in range(k + 1 + len(rows))]
    last = set({t: j for j, t in enumerate(tight[k + 1:])}.values())
    kept = [j for j, t in enumerate(tight[k + 1:])
            if j in last and not any(u != t and u & t == t for u in tight)]
    axes = (1 << (k + 1)) - 1
    remapped = tuple(
        (z & axes) | sum(1 << i for i, j in enumerate(kept, start=k + 1) if z >> (k + 1 + j) & 1)
        for z in zeros
    )
    return tight, tuple(rows[j] for j in kept), (rays, remapped)


def simplex_includes(outer, inner):
    """Reference: ``region_includes`` by one exact simplex LP per row of outer."""
    return all(reference_lp_argmax(inner, hs.coeffs)[0] <= hs.bound for hs in outer.halfspaces)


def check_kernels(region):
    """Vertices, T(c) sets, kept rows and reduced rays equal the references'
    on a nonempty polytope; the reduction only when every bound is > 0."""
    region = fresh(region)
    try:
        vertices = vertex_enumerate(region)
    except GeometryError:
        return
    assert vertices == fraction_sorted_vertices(region)
    assert all(type(x) is F for v in vertices for x in v)
    if any(hs.bound <= 0 for hs in region.halfspaces):
        return
    tight, rows, rays = shift_and_mask_reduction(region)
    assert exactgeom._transpose(region._rays[1], len(tight)) == tight
    reduced = remove_redundant(region)
    assert reduced.halfspaces == rows
    assert reduced._rays == rays


@st.composite
def raw_outer_bounds(draw):
    """The raw permutation rows of a K=2..5 outer bound, N_i <= 4 (<= 2 at K=5)."""
    k = draw(st.integers(2, 5))
    n = tuple(sorted(draw(st.lists(st.integers(1, 2 if k == 5 else 4), min_size=k, max_size=k)),
                     reverse=True))
    return _raw_outer_bound(AntennaConfig(draw(st.integers(1, sum(n) + 1)), n))


@settings(max_examples=150, deadline=None)
@given(st.one_of(redundancy_regions(), vertex_regions(), raw_outer_bounds()))
def test_kernels_match_plain_formulations(region):
    check_kernels(region)


@pytest.mark.parametrize("region", FIXED_REDUNDANCY_REGIONS)
def test_kernels_match_plain_formulations_on_fixed_regions(region):
    check_kernels(region)


@st.composite
def region_pairs(draw):
    """A region and one of its dimension: its rows with shifted bounds, plus
    one drawn row."""
    inner = draw(vertex_regions())
    k = inner.dimension
    shift = st.sampled_from([F(-1, 2), F(0), F(0), F(1, 3)])
    rows = [HalfSpace(hs.coeffs, hs.bound + draw(shift)) for hs in inner.halfspaces]
    extra = tuple(draw(st.lists(_COEFF, min_size=k, max_size=k)))
    if any(extra):
        rows.insert(draw(st.integers(0, len(rows))), HalfSpace(extra, draw(_BOUND)))
    return inner, DoFRegion(k, tuple(rows))


@settings(max_examples=150, deadline=None)
@given(region_pairs())
def test_region_includes_matches_reference_simplex(pair):
    for outer, inner in (pair, pair[::-1]):
        try:
            expected = simplex_includes(outer, inner)
        except GeometryError as err:
            with pytest.raises(type(err)):
                region_includes(outer, inner)
        else:
            assert region_includes(outer, inner) == expected


def test_vertices_empty_region_error():
    # the homogenized cone is {0}: no ray at all, so no vertex
    region = DoFRegion(1, (HalfSpace((1,), -1),))
    with pytest.raises(EmptyRegionError):
        vertex_enumerate(region)
    with pytest.raises(EmptyRegionError):
        remove_redundant(region)


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
    # vertex enumeration reads boundedness off its own rays, with no separate
    # pass; is_bounded is one double description whatever the signs
    region = remove_redundant(_raw_outer_bound(AntennaConfig(3, (2, 2, 1))))
    calls = count_double_descriptions(monkeypatch)
    # the reduced region came with the rays of the raw rows
    expected = vertex_enumerate(region)
    assert is_bounded(region)
    assert len(calls) == 0
    copy = fresh(region)
    assert vertex_enumerate(copy) == expected
    assert is_bounded(copy)
    assert calls == [copy]
    assert is_bounded(DoFRegion(2, (HalfSpace((1, 0), 1), HalfSpace((0, F(1, 2)), 0))))
    assert not is_bounded(DoFRegion(3, (HalfSpace((1, 1, 0), 1), HalfSpace((2, 0, 0), 3))))
    assert not is_bounded(DoFRegion(1, ()))
    assert len(calls) == 4


def _geometry_op(m, n):
    """One ``geometry`` benchmark op: the outer bound, its vertices (K <= 4)
    and its equality with the closed form where one exists."""
    region = outer_bound_region(AntennaConfig(m, n))
    if len(n) <= 4:
        vertex_enumerate(region)
    closed = None
    if len(n) == 2:
        closed = two_user_region(m, *n)
    elif len(n) == 3 and n[0] == n[2] and m <= 2 * n[0]:
        closed = three_user_region(m, n[0])
    if closed is not None:
        assert regions_equal(region, closed)
    return closed


@pytest.mark.parametrize("m, n", [
    (4, (2, 1)), (7, (4, 2)), (2, (1, 1, 1)), (3, (1, 1, 1)), (4, (2, 2, 1)),
    (4, (2, 1, 1, 1)), (3, (2, 1, 1, 1, 1)),
], ids=["4-21", "7-42", "2-111", "3-111", "4-221", "4-2111", "3-21111"])
def test_geometry_op_builds_each_region_once(monkeypatch, m, n):
    # the bound's facets once for its vertices (none at K = 5, which asks for
    # none), and the closed form once where there is one; building the bound
    # itself runs no double description
    calls = count_double_descriptions(monkeypatch)
    closed = _geometry_op(m, n)
    facets = outer_bound_region(AntennaConfig(m, n)).halfspaces
    assert [c.halfspaces for c in calls[:1]] == ([] if len(n) == 5 else [facets])
    assert calls[1:] == ([] if closed is None else [closed])


def test_cached_double_description_is_invisible_to_equality_hash_and_repr():
    raw = DoFRegion(3, tuple(permutation_inequalities(AntennaConfig(4, (2, 2, 1)))))
    reduced = remove_redundant(raw)
    for region in (raw, reduced):
        copy = fresh(region)
        assert region._rays is not None and copy._rays is None
        assert region == copy and hash(region) == hash(copy) and repr(region) == repr(copy)
        # a built copy stays equal, and each keeps its own rays
        vertex_enumerate(copy)
        assert copy == region and copy._rays is not region._rays


def test_cached_integer_row_is_invisible_to_equality_hash_and_repr():
    built, plain = HalfSpace((F(1, 2), F(1, 3)), 1), HalfSpace((F(1, 2), F(1, 3)), 1)
    assert exactgeom._row_of(built) == (3, 2, -6)
    assert built._row is not None and plain._row is None
    assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)


# ---------------------------------------------------------------------------
# the double description against the earlier row loop (reference_dd)
# ---------------------------------------------------------------------------

ORACLE_BOUNDS = [
    (m, n)
    for k in range(1, 6)
    for n in combinations_with_replacement(range(2 if k == 5 else 3, 0, -1), k)
    for m in range(1, sum(n) + 2)
] + [(12, (5, 4, 3, 2, 1))]


def test_double_description_matches_the_earlier_row_loop_on_raw_outer_bounds():
    # K <= 4 with N_i <= 3, K = 5 with N_i <= 2, every M up to sum(N) + 1,
    # and the K = 5 bound with 102 rows and 341 rays: the same rays and zero
    # sets in the same order, with the rows read off the caps on one side
    # and scaled from their Fractions on the other
    for m, n in ORACLE_BOUNDS:
        region = _raw_outer_bound(AntennaConfig(m, n))
        assert exactgeom._double_description(region) == reference_double_description(region), (m, n)


def _rows_region(k, rows):
    return DoFRegion(k, tuple(HalfSpace(c, b) for c, b in rows))


# the first five examples start from row 0's simplex (K = 1, a gcd(a_i, b) > 1,
# Fraction rows), the last six from the orthant: no rows, or a first row with
# a zero or negative coefficient or a bound <= 0
@example(_rows_region(1, [((3,), 2)]))
@example(_rows_region(1, [((2,), 5), ((1,), 1), ((F(1, 3),), 1)]))
@example(_rows_region(2, [((2, 4), 6)]))
@example(_rows_region(2, [((2, 4), 6), ((1, 1), 2), ((3, 1), 3)]))
@example(_rows_region(3, [((F(1, 2), F(1, 4), F(1, 6)), 1), ((1, 1, 1), 2)]))
@example(_rows_region(2, []))
@example(_rows_region(2, [((0, 1), 2), ((1, 1), 3)]))
@example(_rows_region(2, [((1, 1), 0), ((1, 2), 4)]))
@example(_rows_region(2, [((1, 1), -1), ((1, 1), 3)]))
@example(_rows_region(2, [((-1, 2), 3), ((1, 1), 4)]))
@example(_rows_region(3, [((1, -1, 1), 2), ((1, 1, 1), 3)]))
@settings(max_examples=100, deadline=None)
@given(st.one_of(redundancy_regions(), vertex_regions()))
def test_double_description_matches_the_earlier_row_loop(region):
    # negative coefficients and bounds, duplicated and proportional rows:
    # rays on a row's hyperplane, empty and unbounded regions
    assert exactgeom._double_description(region) == reference_double_description(region)


def test_outer_bound_rows_read_off_the_caps_are_their_scaled_fractions():
    for m, n in ORACLE_BOUNDS:
        for hs in permutation_inequalities(AntennaConfig(m, n)):
            *coeffs, bound = exactgeom._integer_row(hs.coeffs + (hs.bound,))
            assert hs._row == (*coeffs, -bound), (m, n, hs)


@pytest.mark.parametrize("m, n, rays", [
    (3, (1, 1, 1), 8), (12, (5, 4, 3, 2, 1), 341), (15, (5, 4, 3, 2, 1), 548),
], ids=["3-111", "12-54321", "15-54321"])
def test_raw_outer_bound_ray_counts(m, n, rays):
    assert len(exactgeom._double_description(_raw_outer_bound(AntennaConfig(m, n)))[0]) == rays

def test_lp_with_lower_bound_row():
    # regression: a negative-rhs row (x >= 1/3) goes through phase 1; the
    # artificial column must never re-enter afterwards
    region = DoFRegion(1, (
        HalfSpace((F(-4),), 4),
        HalfSpace((F(-3, 2),), F(-1, 2)),
        HalfSpace((F(2, 3),), 7),
    ))
    assert lp_max(region, (F(5, 2),)) == F(105, 4)


@st.composite
def lp_regions(draw):
    """K=1..5 regions with an objective: negative coefficients and zero or
    negative bounds make unbounded and empty regions as well as polytopes."""
    k = draw(st.integers(1, 5))
    rows = [
        (tuple(draw(st.lists(_COEFF, min_size=k, max_size=k))), draw(_BOUND))
        for _ in range(draw(st.integers(0, 6)))
    ]
    region = DoFRegion(k, tuple(HalfSpace(c, b) for c, b in rows if any(c)))
    return region, tuple(draw(st.lists(_COEFF, min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(lp_regions())
def test_lp_max_and_is_bounded_match_reference_simplex(case):
    region, objective = case
    try:
        expected, _ = reference_lp_argmax(region, objective)
    except GeometryError as err:
        with pytest.raises(type(err)):
            lp_max(region, objective)
    else:
        assert lp_max(region, objective) == expected
    try:
        bounded = reference_is_bounded(region)
    except GeometryError as err:
        with pytest.raises(type(err)):
            is_bounded(region)
    else:
        assert is_bounded(region) == bounded


def test_lp_differential_against_scipy_random_instances():
    # Random constraint systems, negative bounds included.  Wherever HiGHS
    # certifies an optimum, lp_max must agree on the value.
    rng = random.Random(314159)

    optima = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        a_rows = [[F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        b_vals = [F(rng.randint(-3, 8), rng.randint(1, 2)) for _ in range(m)]
        cost = [F(rng.randint(-3, 5), rng.randint(1, 2)) for _ in range(n)]
        # a zero row 0 <= b is no half-space: it holds always or never
        region = DoFRegion(n, tuple(HalfSpace(a, b) for a, b in zip(a_rows, b_vals) if any(a)))
        status = None
        if all(b >= 0 for a, b in zip(a_rows, b_vals) if not any(a)):
            try:
                value = lp_max(region, cost)
                status = "optimal"
            except (EmptyRegionError, UnboundedRegionError):
                pass
        res = linprog(
            c=[-float(v) for v in cost],
            A_ub=[[float(v) for v in row] for row in a_rows],
            b_ub=[float(v) for v in b_vals],
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert (res.status == 0) == (status == "optimal")
        if res.status == 0:
            optima += 1
            assert float(value) == pytest.approx(-res.fun, rel=1e-9, abs=1e-9)
    assert optima > 100  # the comparison actually exercised many optima


def test_solve_square_singular_returns_none():
    assert solve_square(((F(1), F(2)), (F(2), F(4))), (F(1), F(2))) is None


@pytest.mark.parametrize("matrix, rhs", [
    ([[1, 2]], [1]),  # one equation, two unknowns
    ([[1, 0], [0, 1]], [1]),  # right-hand side too short
    ([[1, 0], [0, 1]], [1, 2, 3]),  # right-hand side too long
    ([[1, 0], [0]], [1, 1]),  # ragged rows
], ids=["wide", "short-rhs", "long-rhs", "ragged"])
def test_solve_square_refuses_a_system_that_is_not_square(matrix, rhs):
    with pytest.raises(DimensionMismatchError):
        solve_square(matrix, rhs)


def test_solve_square_coerces_every_entry_through_rat():
    assert solve_square([[2]], ["1/3"]) == (F(1, 6),)
    assert solve_square([[1, 1], [1, -1]], [3, 1]) == (F(2), F(1))
    for matrix, rhs in (([[0.5]], [1]), ([[1]], [np.float64(0.5)])):
        with pytest.raises(TypeError, match="floating-point value not allowed"):
            solve_square(matrix, rhs)


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


def test_halfspaces_csv():
    assert halfspaces_to_csv(REGION_432) == (
        "d1,d2,bound\n1/4,1/2,1\n1/3,1/4,1\n"
    )


def test_everything_stays_rational():
    assert isinstance(lp_max(REGION_432, (F(1), F(1))), F)
    assert dot((1, 2), (F(1, 2), 1)) == F(5, 2)
    assert isinstance(dot((1, 2), (3, 4)), F)
    row = HalfSpace((1, 2), 3)
    for query in (partial(dot, (1, 2)), row.evaluate, row.holds, row.active):
        with pytest.raises(TypeError, match="floating-point value not allowed"):
            query((0.5, 1))
    for v in vertex_enumerate(three_user_region(3, 2)):
        assert all(isinstance(x, F) for x in v)
