"""Paired in-process A/B of the ``geometry`` op on two doflab trees.

    python3 tests/geometry_ab.py PARENT [CHANGE] [--rounds 40] [--json]

PARENT and CHANGE are doflab checkouts; CHANGE defaults to the one this
script sits in.  Each tree's ``src/doflab`` is loaded under its own package
name, so both run in one process.  The ops are the distinct ``geometry``
ops of this checkout's ``bench/workloads.catalog``, which is only read.

First every op runs once through ``bench/workloads.call``, on this
checkout's doflab, and once through this script's own op on the same
doflab: both must give the same rows in the same order, the same vertices
and the same verdict, so that the A/B times the op that the benchmark
times.  Then every op runs once on each tree, and both trees must give the
same rows, vertices and verdicts.  Then the rounds alternate: each round runs every op once on each
tree, the two trees taking turns to go first.  An op does what
``bench/workloads.call`` does, in stages timed with ``perf_counter``:

* ``outer_bound_region``: the bound;
* ``double_description``: the bound's double description (K <= 4) and the
  closed form's, built ahead of the queries that read them;
* ``vertex_enumerate``: the bound's vertices (K <= 4);
* ``closed_form``: ``two_user_region`` or ``three_user_region``, where one
  applies;
* ``regions_equal``: the bound against the closed form.

For the round and for each stage it prints the median ms a round on each
tree, the median paired ratio parent/change (above 1: the change is
faster), its quartiles, and the rounds that the change won.  ``--json``
prints the same numbers as one JSON object.  Not a test module, so pytest
does not collect it.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("outer_bound_region", "double_description", "vertex_enumerate", "closed_form",
          "regions_equal")


def load_tree(root: Path, name: str):
    """``(exactgeom, regions)`` of the doflab under ``root/src``, imported as package ``name``."""
    package = root / "src" / "doflab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".exactgeom"), importlib.import_module(name + ".regions")


def load_workloads():
    """This checkout's ``bench/workloads``, with its doflab imported."""
    spec = importlib.util.spec_from_file_location("geometry_ab_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.import_doflab()
    return workloads


def check_mirrors_call(workloads, ops):
    """Assert that ``run_op`` gives what ``workloads.call`` gives on every op."""
    tree = (workloads.exactgeom, workloads.regions)
    for m, n in ops:
        region, vertices, equal = workloads.call(("geometry", m, list(n)), None)
        rows = [(hs.coeffs, hs.bound) for hs in region.halfspaces]
        mirrored = run_op(tree, m, n, dict.fromkeys(STAGES, 0.0))
        assert mirrored == (rows, vertices, equal), \
            "run_op no longer mirrors bench/workloads.call on geometry op M=%d N=%s" % (m, n)


def run_op(tree, m, n, times):
    """One ``geometry`` op on ``tree``, each stage's seconds added to ``times``;
    returns its rows, vertices and verdict.  It must do what the ``geometry``
    branch of ``bench/workloads.call`` does; ``check_mirrors_call`` asserts
    that it gives the same outputs."""
    eg, rg = tree
    t0 = perf_counter()
    region = rg.outer_bound_region(rg.AntennaConfig(m, n))
    t1 = perf_counter()
    times["outer_bound_region"] += t1 - t0
    vertices = closed = equal = None
    if len(n) <= 4:
        eg._rays_of(region)
        t2 = perf_counter()
        vertices = eg.vertex_enumerate(region)
        t3 = perf_counter()
        times["double_description"] += t2 - t1
        times["vertex_enumerate"] += t3 - t2
    t0 = perf_counter()
    if len(n) == 2:
        closed = rg.two_user_region(m, n[0], n[1])
    elif len(n) == 3 and n[0] == n[2] and m <= 2 * n[0]:
        closed = rg.three_user_region(m, n[0])
    if closed is not None:
        t1 = perf_counter()
        eg._rays_of(closed)
        t2 = perf_counter()
        equal = eg.regions_equal(region, closed)
        t3 = perf_counter()
        times["closed_form"] += t1 - t0
        times["double_description"] += t2 - t1
        times["regions_equal"] += t3 - t2
    return [(hs.coeffs, hs.bound) for hs in region.halfspaces], vertices, equal


def run_round(tree, ops):
    """Seconds of one round of ``ops`` on ``tree``: each stage and the total."""
    times = dict.fromkeys(STAGES, 0.0)
    gc.collect()
    start = perf_counter()
    for m, n in ops:
        run_op(tree, m, n, times)
    times["round"] = perf_counter() - start
    return times


def summary(parent, change):
    """Median ms a round a side, and the paired ratios parent/change."""
    ratios = [p / c for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "parent_ms": 1e3 * statistics.median(parent),
        "change_ms": 1e3 * statistics.median(change),
        "ratio": {"median": median, "q1": q1, "q3": q3},
        "change_wins": sum(r > 1 for r in ratios),
        "rounds": len(ratios),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = {"parent": load_tree(args.parent.resolve(), "doflab_parent"),
             "change": load_tree(args.change.resolve(), "doflab_change")}
    workloads = load_workloads()
    ops = [(m, tuple(n)) for _, m, n in workloads.catalog("geometry")]
    check_mirrors_call(workloads, ops)
    for m, n in ops:
        scratch = dict.fromkeys(STAGES, 0.0)
        outputs = [run_op(tree, m, n, scratch) for tree in trees.values()]
        assert outputs[0] == outputs[1], "the trees differ on geometry op M=%d N=%s" % (m, n)
    rounds = {side: [] for side in trees}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rounds[side].append(run_round(trees[side], ops))
    result = {stage: summary([r[stage] for r in rounds["parent"]], [r[stage] for r in rounds["change"]])
              for stage in ("round",) + STAGES}
    if args.json:
        print(json.dumps({"ops": len(ops), "stages": result}, indent=1))
        return
    print("%d geometry ops a round, %d rounds a side, every op equal on both trees"
          % (len(ops), args.rounds))
    print("%-20s %10s %10s %8s %17s %6s" % ("stage", "parent ms", "change ms", "ratio", "IQR", "wins"))
    for stage, s in result.items():
        print("%-20s %10.2f %10.2f %8.3f %8.3f-%-8.3f %3d/%d" % (
            stage, s["parent_ms"], s["change_ms"], s["ratio"]["median"], s["ratio"]["q1"],
            s["ratio"]["q3"], s["change_wins"], s["rounds"]))


if __name__ == "__main__":
    main()
