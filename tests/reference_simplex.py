"""Reference LP for the differential tests: an exact two-phase simplex.

This is the Bland's-rule rational simplex that ``doflab.exactgeom`` used
before every geometry query was answered from the double description.  It
shares no code with that engine, so agreement between the two is evidence
for both.  The file name keeps pytest from collecting it.
"""

from fractions import Fraction

from doflab.exactgeom import DoFRegion, EmptyRegionError, UnboundedRegionError, rat

_OPTIMAL = "optimal"
_UNBOUNDED = "unbounded"
_INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tab, basis, row, col):
    """Pivot on tab[row][col] in place.

    Rows are updated only in the pivot row's nonzero columns: a slack
    tableau is mostly zeros, and the skipped updates would subtract 0.
    """
    piv = tab[row][col]
    prow = tab[row] = [v / piv for v in tab[row]]
    nonzero = [j for j, p in enumerate(prow) if p]
    for i, r in enumerate(tab):
        f = r[col]
        if i != row and f != 0:
            for j in nonzero:
                r[j] -= f * prow[j]
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



def reference_lp_argmax(region: DoFRegion, objective):
    """``lp_argmax`` by the simplex: (value, maximizer), or the same errors."""
    status, value, x = _support(region, objective)
    if status == _INFEASIBLE:
        raise EmptyRegionError("region is empty")
    if status == _UNBOUNDED:
        raise UnboundedRegionError("objective unbounded over region")
    return value, x


def reference_is_bounded(region: DoFRegion) -> bool:
    """``is_bounded`` by one simplex LP on the all-ones objective."""
    status, _, _ = _support(region, [_ONE] * region.dimension)
    if status == _INFEASIBLE:
        raise EmptyRegionError("region is empty")
    return status != _UNBOUNDED
