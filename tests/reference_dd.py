"""Reference double description for the oracle tests: the earlier row loop.

This is the row loop that ``doflab.exactgeom._double_description`` ran
before it took each row in one pass over the rays: every row computes the
rays' excesses, then splits them into the rays outside and the pairs to
test, keeps and re-flags the rays in two more passes, and asks
``_contained_in_third`` whether a third zero set contains a pair's common
one.  It builds the same extreme rays and zero sets in the same order, so
the kernel is checked tuple for tuple against it.  The file name keeps
pytest from collecting it.
"""

from math import gcd
from operator import mul

from doflab.exactgeom import MAX_VERTEX_K, DoFRegion, UnsupportedDimensionError, _integer_row


def double_description(region: DoFRegion):
    """Extreme rays of the homogenized region and their zero sets, as two tuples."""
    k = region.dimension
    if k > MAX_VERTEX_K:
        raise UnsupportedDimensionError(
            "exact geometry supports K <= %d, got K=%d" % (MAX_VERTEX_K, k)
        )
    rays = [(0,) * i + (1,) + (0,) * (k - i) for i in range(k + 1)]
    zeros = [((1 << (k + 1)) - 1) ^ (1 << i) for i in range(k + 1)]
    for bit, hs in enumerate(region.halfspaces, start=k + 1):
        row = _integer_row(hs.coeffs + (hs.bound,))
        row[k] = -row[k]
        flag = 1 << bit
        excess = [sum(map(mul, row, r)) for r in rays]  # coeffs . d - bound * t, scaled
        outside = [(n, en) for n, en in enumerate(excess) if en > 0]
        added_rays = []
        added_zeros = []
        for p, ep in enumerate(excess):
            if ep >= 0:
                continue
            zp = zeros[p]
            for n, en in outside:
                common = zp & zeros[n]
                if common.bit_count() < k - 1 or _contained_in_third(common, zeros):
                    continue
                ray = [en * a - ep * b for a, b in zip(rays[p], rays[n])]
                g = gcd(*ray)
                added_rays.append(tuple(x // g for x in ray) if g > 1 else tuple(ray))
                added_zeros.append(common | flag)
        rays = [r for r, e in zip(rays, excess) if e <= 0] + added_rays
        zeros = [z if e else z | flag for z, e in zip(zeros, excess) if e <= 0] + added_zeros
    return tuple(rays), tuple(zeros)


def _contained_in_third(common, zeros):
    """True iff a third zero set besides the pair's own two contains ``common``."""
    found = 0
    for z in zeros:
        if z & common == common:
            found += 1
            if found > 2:
                return True
    return False
