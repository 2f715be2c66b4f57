"""One sha256 over the exact outputs that a geometry change must leave alone.

    PYTHONPATH=src python3 tests/sweep_digest.py

It hashes three corpora, rendered as text:

* the 860-config outer-bound sweep (K <= 4 with N_i <= 4, K = 5 with
  N_i <= 3, receivers non-increasing, M = 1..sum(N)+1): the kept rows in
  order and the vertex list of each bound;
* the ``slice_document`` JSON of ``plane_slice`` at d3 = j * d3_max / 6,
  j = 0..6, for N < M <= 2N <= 16: bounds, redundant bounds, special
  points and corners;
* the ``plan_document`` JSON of feasible three-user plans for N < M <= 2N,
  N <= 6: 450 targets that are random integer-weighted mixes of the
  region's vertices, then every vertex and every midpoint of two vertices
  of each region (ties in the smallest coordinate, z = 0 and z = MN/(M+2N)).

A second line hashes the raw double description of each bound of the
outer-bound sweep: the rays and zero sets that ``_double_description``
returns for the unreduced permutation rows, in order.

Run it on two checkouts and compare the lines: equal digests mean equal
outputs.  Not a test module, so pytest does not collect it.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from doflab.exactgeom import DoFRegion, _double_description, rat_str, vertex_enumerate
from doflab.regions import (
    AntennaConfig,
    achievability_plan,
    d3_max,
    outer_bound_region,
    permutation_inequalities,
    plane_slice,
    three_user_region,
)
from doflab.serialize import json_text, plan_document, slice_document

PLANS = 450
PLAN_SEED = 2026


def _point(p):
    return ",".join(rat_str(x) for x in p)


SMALL_SHAPES = [n for k in range(1, 5) for n in combinations_with_replacement(range(4, 0, -1), k)]
K5_SHAPES = list(combinations_with_replacement(range(3, 0, -1), 5))


def small_outer_bound_lines():
    """The K <= 4 part of the outer-bound sweep: 629 bounds."""
    return outer_bound_lines(SMALL_SHAPES)


def outer_bound_lines(shapes=SMALL_SHAPES + K5_SHAPES):
    for n in shapes:
        for m in range(1, sum(n) + 2):
            region = outer_bound_region(AntennaConfig(m, n))
            yield "outer %d %s" % (m, ",".join(map(str, n)))
            yield from ("  " + hs.render() for hs in region.halfspaces)
            yield from ("  v " + _point(v) for v in vertex_enumerate(region))


def double_description_lines(shapes=SMALL_SHAPES + K5_SHAPES):
    for n in shapes:
        for m in range(1, sum(n) + 2):
            raw = DoFRegion(len(n), tuple(permutation_inequalities(AntennaConfig(m, n))))
            yield "dd %d %s" % (m, ",".join(map(str, n)))
            yield from ("  %s %d" % (",".join(map(str, r)), z) for r, z in zip(*_double_description(raw)))


def slice_lines():
    for n in range(1, 9):
        for m in range(n + 1, 2 * n + 1):
            for j in range(7):
                slc = plane_slice(m, n, d3_max(m, n) * j / 6)
                yield "slice %d %d %s" % (m, n, rat_str(slc.d3))
                yield "  " + json_text(slice_document(slc, vertex_enumerate(slc.region)))


def _plan_targets():
    rng = random.Random(PLAN_SEED)
    for _ in range(PLANS):
        n = rng.randint(1, 6)
        m = rng.randint(n + 1, 2 * n)
        verts = vertex_enumerate(three_user_region(m, n))
        weights = [0] * len(verts)
        while not any(weights):
            weights = [rng.randint(0, 3) for _ in verts]
        total = sum(weights)
        yield m, n, tuple(
            sum((Fraction(w, total) * v[i] for w, v in zip(weights, verts)), Fraction(0))
            for i in range(3)
        )
    for n in range(1, 7):
        for m in range(n + 1, 2 * n + 1):
            verts = vertex_enumerate(three_user_region(m, n))
            yield from ((m, n, v) for v in verts)
            for u, v in combinations(verts, 2):
                yield m, n, tuple((a + b) / 2 for a, b in zip(u, v))


def plan_lines():
    for m, n, target in _plan_targets():
        yield "plan %d %d" % (m, n)
        yield "  " + json_text(plan_document(achievability_plan(m, n, target)))


def _hash(*corpora):
    """sha256 over every line of the corpora, and each corpus's header count."""
    digest = hashlib.sha256()
    counts = []
    for lines in corpora:
        headers = 0
        for line in lines:
            headers += not line.startswith(" ")
            digest.update(line.encode() + b"\n")
        counts.append(headers)
    return digest.hexdigest(), counts


def main():
    digest, counts = _hash(outer_bound_lines(), slice_lines(), plan_lines())
    print("%s  outer bounds=%d slices=%d plans=%d" % (digest, *counts))
    digest, counts = _hash(double_description_lines())
    print("%s  double descriptions=%d" % (digest, *counts))


if __name__ == "__main__":
    main()
