"""Region constructors, plane-slice geometry, and achievability plans."""

import importlib.util
import json
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doflab import exactgeom, regions
from doflab.exactgeom import (
    DoFRegion,
    GeometryError,
    HalfSpace,
    UnsupportedDimensionError,
    contains,
    lp_max,
    region_includes,
    regions_equal,
    remove_redundant,
    vertex_enumerate,
)
from doflab.regions import (
    SOURCE_EXTERNAL,
    SOURCE_SINGLE_USER,
    SOURCE_TIME_DIVISION,
    SOURCE_TWO_USER,
    AchievabilityPlan,
    AntennaConfig,
    DominantFace,
    ThreeUserScopeError,
    achievability_plan,
    benchmark_sum_dof,
    convex_decompose_2d,
    d3_max,
    d3_mid,
    outer_bound_region,
    permutation_inequalities,
    plane_slice,
    point_Q,
    sum_dof_closed_form,
    three_user_region,
    two_user_region,
)
from doflab.serialize import plan_document, region_document
from reference_convex import convex_decompose_2d as reference_convex_decompose_2d
from test_exactgeom import ORACLE_BOUNDS, count_double_descriptions, fresh, scipy_redundant_oracle

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SOURCES_BY_USER_COUNT = (SOURCE_TIME_DIVISION, SOURCE_SINGLE_USER, SOURCE_TWO_USER, SOURCE_EXTERNAL)
ALLOWED_SOURCES = set(SOURCES_BY_USER_COUNT)


def test_antenna_config_validation():
    with pytest.raises(ValueError):
        AntennaConfig(3, (2, 3))  # not sorted non-increasing
    with pytest.raises(ValueError):
        AntennaConfig(0, (1,))
    with pytest.raises(ValueError):
        AntennaConfig(2, (1, 0))
    cfg = AntennaConfig(4, (3, 2))
    assert cfg.K == 2


# ---------------------------------------------------------------------------
# outer bound
# ---------------------------------------------------------------------------

def test_permutation_inequalities_three_single_antenna_users():
    # Direct enumeration of the 3! permutations with min(M, tail sums):
    # tails are 3, 2, 1 antennas, all capped by M=3, so every inequality is
    # d_{pi(1)}/3 + d_{pi(2)}/2 + d_{pi(3)} <= 1.
    raw = permutation_inequalities(AntennaConfig(3, (1, 1, 1)))
    assert len(raw) == 6
    assert len(set(raw)) == 6
    for hs in raw:
        assert sorted(hs.coeffs) == [F(1, 3), F(1, 2), F(1)]
        assert hs.bound == 1


def test_permutation_inequalities_keep_first_occurrence_of_each_row():
    # M=3 caps the first tail (4 antennas) at 3, so the first two users of
    # every permutation weigh 1/3: 4!/2! = 12 distinct rows of 24.
    expected = []
    for pi in permutations(range(4)):
        coeffs = [None] * 4
        for i, user in enumerate(pi):
            coeffs[user] = F(1, min(3, 4 - i))
        if HalfSpace(tuple(coeffs), 1) not in expected:
            expected.append(HalfSpace(tuple(coeffs), 1))
    assert len(expected) == 12
    assert permutation_inequalities(AntennaConfig(3, (1, 1, 1, 1))) == expected


def test_outer_bound_432_is_the_two_theorem_lines():
    region = outer_bound_region(AntennaConfig(4, (3, 2)))
    assert set(region.halfspaces) == {
        HalfSpace((F(1, 4), F(1, 2)), 1),
        HalfSpace((F(1, 3), F(1, 4)), 1),
    }


def test_outer_bound_single_user():
    region = outer_bound_region(AntennaConfig(1, (1,)))
    assert region.halfspaces == (HalfSpace((F(1),), 1),)


def test_outer_bound_refuses_six_users_fast():
    start = time.perf_counter()
    with pytest.raises(UnsupportedDimensionError, match="K <= 5, got K=6"):
        outer_bound_region(AntennaConfig(4, (1,) * 6))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m, kept", [(12, 60), (15, 120)], ids=["12", "15"])
def test_outer_bound_completes_five_distinct_user_inputs_fast(monkeypatch, m, kept):
    # All receiver counts distinct: no symmetry among the rows.
    calls = count_double_descriptions(monkeypatch)
    config = AntennaConfig(m, (5, 4, 3, 2, 1))
    start = time.perf_counter()
    region = outer_bound_region(config)
    assert time.perf_counter() - start < 2.0
    assert len(region.halfspaces) == kept
    assert len(calls) == 0
    raw = DoFRegion(config.K, tuple(permutation_inequalities(config)))
    for i, hs in enumerate(raw.halfspaces):
        assert scipy_redundant_oracle(raw, i) == (hs not in region.halfspaces), hs.render()


GOLDEN_OUTER_CONFIGS = {(4, (3, 2)), (3, (1, 1, 1)), (3, (1, 1, 1, 1)), (4, (1,) * 5)}


def _benchmark_geometry_configs():
    spec = importlib.util.spec_from_file_location("doflab_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {(op[1], tuple(op[2])) for slot in workloads.GEOMETRY_SLOTS
            for candidate in slot for op in candidate}


def test_reduced_region_keeps_the_rays_of_a_fresh_build():
    # remove_redundant hands its input's rays to the reduced region, with the
    # zero sets remapped to the kept rows; a fresh build of the kept rows must
    # give the same rays and zero sets, in some order
    five = sorted((m, n) for m, n in _benchmark_geometry_configs() if len(n) == 5)
    five += [(4, (1,) * 5), (12, (5, 4, 3, 2, 1))]
    assert len(five) == 5
    # every K <= 4 config with N_i <= 3 and M <= sum(N) + 1, and the five above
    small = [(m, n) for k in range(1, 5) for n in combinations_with_replacement(range(3, 0, -1), k)
             for m in range(1, sum(n) + 2)]
    reduced = [remove_redundant(DoFRegion(len(n), tuple(permutation_inequalities(AntennaConfig(m, n)))))
               for m, n in small + five]
    reduced += [remove_redundant(plane_slice(m, n, d3_max(m, n) * j / 4).region)
                for n in range(1, 5) for m in range(n + 1, 2 * n + 1) for j in range(5)]
    assert len(reduced) == 244 + 5 + 50
    for region in reduced:
        rays, zeros = region._rays
        built = exactgeom._double_description(fresh(region))
        assert sorted(zip(rays, zeros)) == sorted(zip(*built)), region


def test_outer_bound_work_limit_accepts_every_benchmark_and_golden_config(monkeypatch):
    # No double description per bound, and no work limit beyond K <= 5;
    # the real results are pinned elsewhere.
    calls = count_double_descriptions(monkeypatch)
    configs = _benchmark_geometry_configs() | GOLDEN_OUTER_CONFIGS
    assert len(configs) > 100
    for m, n in sorted(configs):
        outer_bound_region(AntennaConfig(m, n))
    assert len(calls) == 0


def test_outer_bound_facets_are_the_rows_the_double_description_keeps():
    # the facet rule against remove_redundant on the raw rows: the same rows
    # in the same order
    configs = set(ORACLE_BOUNDS) | _benchmark_geometry_configs() | GOLDEN_OUTER_CONFIGS
    configs |= {(12, (5, 4, 3, 2, 1)), (15, (5, 4, 3, 2, 1))}
    for m, n in sorted(configs):
        config = AntennaConfig(m, n)
        raw = DoFRegion(config.K, tuple(permutation_inequalities(config)))
        assert outer_bound_region(config).halfspaces == remove_redundant(raw).halfspaces, (m, n)


def test_outer_bound_rows_built_past_the_checks_are_checked_rows():
    # _reciprocal_halfspace sets its fields without HalfSpace.__post_init__:
    # each row is still the row the checked constructor builds
    for m, n in ORACLE_BOUNDS:
        config = AntennaConfig(m, n)
        for hs in (*outer_bound_region(config).halfspaces, *permutation_inequalities(config)):
            checked = HalfSpace(hs.coeffs, 1)
            assert hs == checked and hash(hs) == hash(checked) and repr(hs) == repr(checked), (m, n)
            assert type(hs.coeffs) is tuple and len(hs.coeffs) == config.K
            assert all(type(c) is F and c > 0 for c in hs.coeffs), (m, n, hs)
            assert type(hs.bound) is F and hs.bound == 1


def _tail_order(caps, m):
    """The users below cap M by increasing cap (s_1, ..., s_L), and those at M (R)."""
    below = sorted((c, user) for user, c in enumerate(caps) if c < m)
    return [user for _, user in below], [user for user, c in enumerate(caps) if c == m]


def test_outer_bound_facet_rule_proof_in_exact_arithmetic():
    # The proof in outer_bound_region's docstring, checked row by row with no
    # double description: a dropped row is strictly dominated by the row of
    # its extended tail; a kept row has a point y > 0 on it that is strictly
    # inside every other row, so its face has dimension K - 1.
    rows = 0
    for m, n in ORACLE_BOUNDS:
        config = AntennaConfig(m, n)
        k = config.K
        raw = permutation_inequalities(config)
        assert all(c.numerator == 1 for hs in raw for c in hs.coeffs)
        caps_of = [tuple(c.denominator for c in hs.coeffs) for hs in raw]
        kept = set(outer_bound_region(config).halfspaces)
        scale = math.lcm(*(c for caps in caps_of for c in caps))
        for caps, hs in zip(caps_of, raw):
            rows += 1
            tails, at_m = _tail_order(caps, m)
            top = caps[tails[-1]] if tails else 0
            if hs not in kept:
                u = next(u for u in at_m if top + n[u] < m)
                extended = list(caps)
                extended[u] = top + n[u]
                assert tuple(extended) in caps_of, (m, n, caps)
                assert all(a <= b for a, b in zip(extended, caps)) and extended[u] < caps[u]
                continue
            assert all(top + n[u] >= m for u in at_m), (m, n, caps)
            # y_{s_j} = eps^(j-1) and y_R = eps^L with eps = 1/q, scaled by q^L
            q = 2 * k * m * m
            y = [1] * k
            for j, user in enumerate(tails):
                y[user] = q ** (len(tails) - j)
            value = sum(y[i] * (scale // caps[i]) for i in range(k))
            for other in caps_of:
                if other != caps:
                    assert sum(y[i] * (scale // other[i]) for i in range(k)) < value, (m, n, caps, other)
    assert rows == 4800


def test_outer_bound_is_reduced():
    region = outer_bound_region(AntennaConfig(3, (3, 2)))
    assert remove_redundant(region).halfspaces == region.halfspaces


# ---------------------------------------------------------------------------
# two-user region and Q
# ---------------------------------------------------------------------------

def test_two_user_432_lines():
    region = two_user_region(4, 3, 2)
    assert region.halfspaces[0] == HalfSpace((F(1, 4), F(1, 2)), 1)
    assert region.halfspaces[1] == HalfSpace((F(1, 3), F(1, 4)), 1)


def test_two_user_all_ones_collapses():
    region = two_user_region(1, 1, 1)
    assert region.halfspaces[0] == region.halfspaces[1] == HalfSpace((F(1), F(1)), 1)


def test_two_user_211():
    region = two_user_region(2, 1, 1)
    assert region.halfspaces == (
        HalfSpace((F(1, 2), F(1)), 1),
        HalfSpace((F(1), F(1, 2)), 1),
    )
    assert point_Q(2, 1, 1) == (F(2, 3), F(2, 3))


def test_point_q_case_b():
    assert point_Q(4, 3, 2) == (F(12, 5), F(4, 5))


def test_point_q_case_c():
    # N1^2 (N1+N2) / (N1^2+N2^2+N1N2) = 4*3/7, N2^2 (N1+N2) / 7 = 3/7
    assert point_Q(3, 2, 1) == (F(12, 7), F(3, 7))


def test_point_q_case_boundary_consistent():
    # M = N1+N2 satisfies both closed forms
    assert point_Q(5, 3, 2) == (F(45, 19), F(20, 19))
    b_form = (F(5 * 3 * 3, 3 * 3 + 5 * 2), F(5 * 2 * 2, 19))
    assert point_Q(5, 3, 2) == b_form


def test_point_q_case_a_face():
    face = point_Q(1, 1, 1)
    assert isinstance(face, DominantFace)
    assert face.line == HalfSpace((F(1), F(1)), 1)
    assert face.endpoints == ((F(1), F(0)), (F(0), F(1)))


@pytest.mark.parametrize("m,n1,n2", [(0, 2, 1), (-1, 2, 1), (3, 1, 2)])
def test_point_q_refuses_bad_antenna_counts(m, n1, n2):
    with pytest.raises(ValueError):
        point_Q(m, n1, n2)


@pytest.mark.parametrize("m", range(4, 9))
@pytest.mark.parametrize("n1,n2", [(3, 2), (3, 3), (2, 1), (3, 1), (2, 2)])
def test_point_q_on_both_lines_and_inside(m, n1, n2):
    if m <= n1:
        return
    region = two_user_region(m, n1, n2)
    q = point_Q(m, n1, n2)
    assert contains(region, q)
    assert region.halfspaces[0].active(q)
    assert region.halfspaces[1].active(q)


# ---------------------------------------------------------------------------
# three-user region
# ---------------------------------------------------------------------------

def test_three_user_simplex():
    region = three_user_region(1, 1)
    assert region.halfspaces == (HalfSpace((F(1), F(1), F(1)), 1),)


def test_three_user_21():
    region = three_user_region(2, 1)
    assert set(region.halfspaces) == {
        HalfSpace((F(2), F(1), F(1)), 2),
        HalfSpace((F(1), F(2), F(1)), 2),
        HalfSpace((F(1), F(1), F(2)), 2),
    }
    assert (F(1, 2), F(1, 2), F(1, 2)) in vertex_enumerate(region)


def test_closed_form_regions_solve_no_lp(monkeypatch):
    # positive coefficients bound these regions by construction
    calls = count_double_descriptions(monkeypatch)
    assert len(two_user_region(4, 3, 2).halfspaces) == 2
    assert len(three_user_region(1, 1).halfspaces) == 1
    assert len(three_user_region(2, 1).halfspaces) == 3
    assert len(calls) == 0


def test_three_user_out_of_scope():
    with pytest.raises(ThreeUserScopeError):
        three_user_region(3, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_three_user_matches_outer_bound(n):
    for m in range(n + 1, 2 * n + 1):
        outer = outer_bound_region(AntennaConfig(m, (n, n, n)))
        assert regions_equal(outer, three_user_region(m, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_three_user_below_n_is_simplex(n):
    for m in range(1, n + 1):
        simplex = DoFRegion(3, (HalfSpace((F(1), F(1), F(1)), F(m)),))
        assert regions_equal(three_user_region(m, n), simplex)
        assert regions_equal(outer_bound_region(AntennaConfig(m, (n, n, n))), simplex)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_sum_dof_closed_form():
    assert sum_dof_closed_form(2, 1) == F(4, 3)
    assert sum_dof_closed_form(1, 5) == F(5)
    assert sum_dof_closed_form(3, 1) == F(18, 11)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_remark_two_lp_cross_check(k, n):
    region = outer_bound_region(AntennaConfig(k * n, (n,) * k))
    assert lp_max(region, (F(1),) * k) == sum_dof_closed_form(k, n)


def test_benchmark_sum_dof():
    cfg = AntennaConfig(4, (3, 2))
    assert benchmark_sum_dof(cfg, "perfect") == F(4)
    assert benchmark_sum_dof(cfg, "none") == F(3)
    tiny = AntennaConfig(1, (1, 1))
    assert benchmark_sum_dof(tiny, "perfect") == F(1)
    assert benchmark_sum_dof(tiny, "none") == F(1)
    with pytest.raises(ValueError):
        benchmark_sum_dof(cfg, "delayed")


def test_monotonicity_and_saturation_in_m():
    for m in range(1, 6):
        assert region_includes(two_user_region(m + 1, 3, 2), two_user_region(m, 3, 2))
    assert regions_equal(two_user_region(5, 3, 2), two_user_region(6, 3, 2))
    assert regions_equal(two_user_region(6, 3, 2), two_user_region(7, 3, 2))


# ---------------------------------------------------------------------------
# plane slices
# ---------------------------------------------------------------------------

def test_plane_slice_top_corner():
    slc = plane_slice(2, 1, F(2, 3))
    assert slc.redundant_bounds == {"L1", "L2"}
    merged = (F(2, 3), F(0), F(2, 3))
    assert slc.special_points["P01"] == merged
    assert slc.special_points["P0d1"] == merged
    assert slc.special_points["P1d1"] == merged


def test_plane_slice_symmetric_corner():
    slc = plane_slice(2, 1, F(1, 2))
    assert slc.redundant_bounds == {"L0"}
    assert slc.special_points["P12"] == (F(1, 2), F(1, 2), F(1, 2))
    assert slc.special_points["P01"] == (F(1, 2), F(1, 2), F(1, 2))


def test_plane_slice_bottom_is_two_user_region():
    slc = plane_slice(2, 1, 0)
    corners = [(v[0], v[1]) for v in vertex_enumerate(slc.region)]
    assert corners == [(v[0], v[1]) for v in vertex_enumerate(two_user_region(2, 1, 1))]


def test_plane_slice_case4_point():
    # substitution into (d3, M - [1 + M/N] d3, d3) at (M,N)=(3,2), d3=1
    slc = plane_slice(3, 2, 1)
    assert slc.special_points["P01"] == (F(1), F(1, 2), F(1))
    assert slc.special_points["P1d1"] == (F(2) * (F(3) - 1) / F(3), F(0), F(1))


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3), (4, 2)])
def test_plane_slice_redundancy_pattern(m, n):
    top = plane_slice(m, n, d3_max(m, n))
    assert {"L1", "L2"} <= top.redundant_bounds
    mid = plane_slice(m, n, d3_mid(m, n))
    assert "L0" in mid.redundant_bounds
    b = d3_mid(m, n)
    assert mid.special_points["P12"] == (b, b, b)
    # achievability_plan slices at z <= b and relies on this shape there
    for j in range(5):
        slc = plane_slice(m, n, b * j / 4)
        assert len(vertex_enumerate(slc.region)) == 4
        assert "L0" in slc.redundant_bounds


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3)])
def test_plane_slice_runs_one_double_description(monkeypatch, m, n):
    # slice bounds are positive: one double description per slice
    calls = count_double_descriptions(monkeypatch)
    for d3 in (F(0), d3_mid(m, n), d3_max(m, n)):
        plane_slice(m, n, d3)
    assert len(calls) == 3


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3)])
def test_plane_slice_points_on_their_lines(m, n):
    grid = [F(0), d3_mid(m, n) / 2, d3_mid(m, n), (d3_mid(m, n) + d3_max(m, n)) / 2, d3_max(m, n)]
    lines_of = {
        "P01": ("L0", "L1"), "P02": ("L0", "L2"), "P12": ("L1", "L2"),
        "P0d1": ("L0",), "P0d2": ("L0",), "P1d1": ("L1",), "P2d2": ("L2",),
    }
    axis_of = {"P0d1": 1, "P0d2": 0, "P1d1": 1, "P2d2": 0}
    for d3 in grid:
        slc = plane_slice(m, n, d3)
        for name, point in slc.special_points.items():
            if point is None:
                continue
            for line in lines_of[name]:
                assert slc.bounds[line].active(point[:2]), (name, line, d3)
            if name in axis_of:
                assert point[axis_of[name]] == 0
            assert contains(slc.region, point[:2])


def test_plane_slice_reduces_once(monkeypatch):
    calls = []
    real = regions.remove_redundant

    def counting(region):
        calls.append(region)
        return real(region)

    monkeypatch.setattr(regions, "remove_redundant", counting)
    slc = plane_slice(2, 1, F(1, 2))
    assert len(calls) == 1
    assert slc.redundant_bounds == {"L0"}


def test_outer_bound_reduces_once(monkeypatch):
    # the facets are read off the permutations: no reduction runs, and the
    # bound is the reduced raw rows
    calls = []
    real = regions.remove_redundant

    def counting(region):
        calls.append(region)
        return real(region)

    monkeypatch.setattr(regions, "remove_redundant", counting)
    for config in (AntennaConfig(3, (1, 1, 1)), AntennaConfig(5, (2, 2, 1, 1))):
        calls.clear()
        region = outer_bound_region(config)
        assert len(calls) == 0
        raw = DoFRegion(config.K, tuple(permutation_inequalities(config)))
        assert region.halfspaces == real(raw).halfspaces


def test_plane_slice_errors():
    with pytest.raises(ValueError):
        plane_slice(2, 1, F(7, 10))  # above MN/(M+N) = 2/3
    with pytest.raises(ValueError):
        plane_slice(2, 1, F(-1, 10))
    with pytest.raises(ThreeUserScopeError):
        plane_slice(1, 1, 0)
    with pytest.raises(ThreeUserScopeError):
        plane_slice(5, 2, 0)


# ---------------------------------------------------------------------------
# convex decomposition and plans
# ---------------------------------------------------------------------------

def test_convex_decompose_2d_cases():
    corners = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    assert convex_decompose_2d((F(0), F(1)), corners) == [((F(0), F(1)), F(1))]
    seg = convex_decompose_2d((F(1, 2), F(0)), corners)
    assert sum(w for _, w in seg) == 1
    tri = convex_decompose_2d((F(1, 4), F(1, 4)), corners)
    assert sum(w for _, w in tri) == 1
    assert sum(w * p[0] for p, w in tri) == F(1, 4)
    with pytest.raises(GeometryError):
        convex_decompose_2d((F(2), F(2)), corners)


def _decomposition(decompose, target, corners):
    try:
        return decompose(target, corners)
    except GeometryError as err:
        return str(err)


# corner sets: a slice's four, a triangle, collinear points, repeated corners
# (as ints and as Fractions), a single corner and none
DECOMPOSE_CORNERS = [
    [(F(0), F(0)), (F(3, 2), F(0)), (F(3, 2), F(1, 2)), (F(0), F(3, 2))],
    [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))],
    [(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)), (F(2), F(2))],
    [(0, 0), (F(0), F(0)), (1, 0), (F(1), F(0)), (F(0), F(1, 3)), (F(2, 3), F(2, 3))],
    [(F(1, 3), F(2, 3))],
    [],
]


def test_convex_decompose_2d_matches_the_fraction_scan():
    # every exact corner, segment, triangle and outside case of a grid of
    # targets, against the earlier Fraction scan (tests/reference_convex.py)
    grid = sorted({F(i, 12) for i in range(-3, 28)} | {F(1, 3), F(2, 3), F(1, 7)})
    kinds = {}
    for corners in DECOMPOSE_CORNERS:
        for x in grid:
            for y in grid:
                got = _decomposition(convex_decompose_2d, (x, y), corners)
                assert got == _decomposition(reference_convex_decompose_2d, (x, y), corners), (x, y, corners)
                kind = len(got) if isinstance(got, list) else "outside"
                kinds[kind] = kinds.get(kind, 0) + 1
                if isinstance(got, list):
                    assert all(type(v) is F for corner, w in got for v in (*corner, w))
    assert kinds == {1: 16, 2: 158, 3: 340, "outside": 5630}


def test_plans_match_the_fraction_scan(monkeypatch):
    # the same plans from the integer scan and from the earlier Fraction scan
    targets = []
    for m, n in ((2, 1), (3, 2), (4, 3), (5, 3)):
        q, b = d3_max(m, n), d3_mid(m, n)
        axis = sorted({F(n * i, 6) for i in range(8)} | {q, b, q / 2, b / 3})
        targets += [(m, n, t) for t in product(axis, repeat=3)]

    def plans():
        return [_decomposition(lambda t, _: achievability_plan(m, n, t), t, None) for m, n, t in targets]

    got = plans()
    monkeypatch.setattr(regions, "convex_decompose_2d", reference_convex_decompose_2d)
    assert got == plans()
    assert (sum(isinstance(plan, AchievabilityPlan) for plan in got), len(got)) == (1639, 5696)


def test_plan_symmetric_corner_is_external():
    plan = achievability_plan(2, 1, (F(1, 2), F(1, 2), F(1, 2)))
    assert len(plan.components) == 1
    comp = plan.components[0]
    assert comp.source == SOURCE_EXTERNAL
    assert comp.weight == 1
    assert comp.point == (F(1, 2), F(1, 2), F(1, 2))


def test_plan_origin():
    plan = achievability_plan(2, 1, (F(0), F(0), F(0)))
    assert len(plan.components) == 1
    assert plan.components[0].source == SOURCE_TIME_DIVISION
    assert plan.components[0].weight == 1


def test_plan_pair_corner_users_1_and_3():
    plan = achievability_plan(2, 1, (F(2, 3), F(0), F(2, 3)))
    assert len(plan.components) == 1
    comp = plan.components[0]
    assert comp.source == SOURCE_TWO_USER
    assert comp.users == (0, 2)
    assert comp.point == (F(2, 3), F(0), F(2, 3))


def test_plan_case4_time_sharing_weights():
    # sliced at its smallest coordinate d2 = z = 1/4, where (d1,d3) = (7/12,7/12)
    # is P12: share the symmetric corner (1/2,1/2,1/2) at weight z/b = 1/2
    # with the (d1,d3) pair corner (2/3,0,2/3)
    target = (F(7, 12), F(1, 4), F(7, 12))
    plan = achievability_plan(2, 1, target)
    by_source = {c.source: c for c in plan.components}
    assert set(by_source) == {SOURCE_TWO_USER, SOURCE_EXTERNAL}
    assert by_source[SOURCE_TWO_USER].weight == F(1, 2)
    assert by_source[SOURCE_EXTERNAL].weight == F(1, 2)
    assert plan.weighted_sum() == target


def test_plan_case5_time_sharing():
    # P12(d3) below the symmetric corner: share (b,b,b) with the in-plane Q
    target = (F(7, 12), F(7, 12), F(1, 4))
    plan = achievability_plan(2, 1, target)
    sources = {c.source for c in plan.components}
    assert sources == {SOURCE_EXTERNAL, SOURCE_TWO_USER}
    ext = next(c for c in plan.components if c.source == SOURCE_EXTERNAL)
    assert ext.weight == F(1, 4) / d3_mid(2, 1)
    assert plan.weighted_sum() == target


def test_plan_errors():
    with pytest.raises(GeometryError):
        achievability_plan(2, 1, (F(1), F(1), F(1)))  # outside
    with pytest.raises(ThreeUserScopeError):
        achievability_plan(1, 1, (F(0), F(0), F(0)))
    with pytest.raises(ValueError):
        achievability_plan(2, 1, (F(0), F(0)))


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 2), (6, 3)])
def test_plan_identity_on_random_rational_points(m, n):
    region = three_user_region(m, n)
    rng = random.Random(4242)
    checked = 0
    while checked < 120:
        den = rng.choice([6, 8, 12, 24])
        point = tuple(F(rng.randint(0, n * den), den) for _ in range(3))
        if not contains(region, point):
            continue
        plan = achievability_plan(m, n, point)
        assert plan.weighted_sum() == point
        assert plan.total_weight() == 1
        assert all(c.source in ALLOWED_SOURCES for c in plan.components)
        assert all(c.weight > 0 for c in plan.components)
        assert all(contains(region, c.point) for c in plan.components)
        for c in plan.components:
            # a component serves the users its point is nonzero on, by the scheme for that many
            assert tuple(sorted(c.users)) == tuple(i for i in range(3) if c.point[i] != 0)
            assert c.source == SOURCES_BY_USER_COUNT[len(c.users)]
        checked += 1


@settings(max_examples=40, deadline=None)
@given(
    lam=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=20), min_size=8, max_size=8),
)
def test_plan_identity_on_hull_samples(lam):
    # random convex combinations of the region's corners are always feasible
    total = sum(lam)
    if total == 0:
        return
    region = three_user_region(2, 1)
    verts = vertex_enumerate(region)
    point = tuple(sum((w / total) * v[i] for w, v in zip(lam, verts)) for i in range(3))
    plan = achievability_plan(2, 1, point)
    assert plan.weighted_sum() == point
    assert plan.total_weight() == 1


def test_plan_vertices_map_to_expected_sources():
    q = d3_max(3, 2)
    expectations = {
        (F(0), F(0), F(0)): SOURCE_TIME_DIVISION,
        (F(2), F(0), F(0)): SOURCE_SINGLE_USER,
        (q, q, F(0)): SOURCE_TWO_USER,
        (d3_mid(3, 2),) * 3: SOURCE_EXTERNAL,
    }
    for vertex, source in expectations.items():
        plan = achievability_plan(3, 2, vertex)
        assert len(plan.components) == 1
        assert plan.components[0].source == source
        assert plan.components[0].weight == 1


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def test_region_document_round_trip_strings():
    cfg = AntennaConfig(4, (3, 2))
    region = two_user_region(4, 3, 2)
    doc = region_document(cfg, region, vertex_enumerate(region))
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert doc["config"] == {"M": 4, "N": [3, 2]}
    assert {"coeffs": ["1/4", "1/2"], "bound": "1"} in doc["halfspaces"]
    assert ["12/5", "4/5"] in doc["vertices"]


def test_plan_document():
    plan = achievability_plan(2, 1, (F(1, 2), F(1, 2), F(1, 2)))
    doc = plan_document(plan)
    assert doc["target"] == ["1/2", "1/2", "1/2"]
    assert doc["components"][0]["source"] == SOURCE_EXTERNAL
    assert doc["components"][0]["users"] == [1, 2, 3]
