"""Paired in-process A/B of one benchmark workload on two doflab trees.

    python3 tests/ab.py WORKLOAD PARENT [CHANGE] [--rounds 40] [--seed 5] [--json]

WORKLOAD is ``geometry``, ``montecarlo`` or ``cli-mix``; CHANGE defaults to
the checkout this script sits in.  Each tree's ``src/doflab`` is loaded under
its own package name, and each tree gets its own copy of this checkout's
``bench/workloads`` (only read) bound to it, so every timed op is exactly
``workloads.call`` on that tree.  ``cli-mix`` ops write into a scratch
directory, emptied after each op outside the timing.

First every op of ``workloads.catalog(WORKLOAD)`` runs once on each tree,
and the script stops, naming the op, unless both give equal outputs: for
``geometry`` the bound's rows in order, its vertices and the verdict, as
exact Fractions; for ``montecarlo`` every ``TrialSummary`` and ``RateCurve``
field, bit for bit; for ``cli-mix`` the exit code, both streams and every
file's bytes.  Then round i of ``workloads.generate(WORKLOAD, SEED,
ROUNDS)``, the benchmark's own op mix, runs once on each tree, the trees
taking turns to go first.  Wrappers on each tree's functions split an op's
time into the stages of ``STAGES``, each exclusive of the stages nested in
it; ``other`` is the rest of the op.

For the round and each stage it prints the median ms a round on each tree,
the median paired ratio parent/change (above 1: the change is faster), its
quartiles and the rounds the change won; ``--json`` prints them as one JSON
object.  Not a test module, so pytest does not collect it.
"""

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "exactgeom", "regions", "scheme", "serialize", "_seeds")

# Per workload: stage -> the functions it wraps, as dotted paths into a tree's MODULES.
STAGES = {
    "geometry": {
        "outer_bound_region": ("regions.outer_bound_region",),
        "double_description": ("exactgeom._double_description",),
        "vertex_enumerate": ("exactgeom.vertex_enumerate",),
        "closed_form": ("regions.two_user_region", "regions.three_user_region"),
        "regions_equal": ("exactgeom.regions_equal",),
    },
    "montecarlo": {
        "seeds": ("_seeds.trial_seeds",),
        "draw": ("scheme._draw",),
        "phases": ("scheme.run_phases",),
        "solve": ("scheme._screened_solve",),
        "conditions": ("scheme._conditions",),
        "decode": ("scheme.decode",),
        "rate_model": ("scheme._user_models",),
    },
    "cli-mix": {
        # both routes of cli._parse, the command's parser and the full one, call it
        "parse": ("cli._Parser.parse_known_args",),
        "plan": ("regions.achievability_plan",),
        "simulate_runs": ("scheme.simulate_runs",),
        "decode": ("scheme.decode",),
        "serialize": tuple("serialize." + name for name in (
            "json_text", "vertices_to_csv", "halfspaces_to_csv", "sweep_to_csv", "slice_to_csv")),
        "write": ("cli._write",),
    },
}


def load_tree(root: Path, name: str):
    """The ``MODULES`` of the doflab under ``root/src``, imported as package
    ``name``; a package loaded earlier under that name is dropped first."""
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    package = root / "src" / "doflab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {part: importlib.import_module("%s.%s" % (name, part)) for part in MODULES}


def load_workloads(tree, name: str):
    """A copy of this checkout's ``bench/workloads`` whose ops run on ``tree``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for part, module in tree.items():
        setattr(workloads, part, module)
    return workloads


def bits(value):
    """``value`` as plain data that two trees' outputs share only if every
    field of it, every float and every array are the same bits."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [bits(item) for item in value]
    if isinstance(value, float):
        return float.hex(value)
    if hasattr(value, "tobytes"):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def comparable(op, output):
    """What must be equal on both trees: a geometry op's rows in order, its
    vertices and verdict; a Monte Carlo op's bits; a command's exit code."""
    if op[0] == "geometry":
        region, vertices, equal = output
        return [(hs.coeffs, hs.bound) for hs in region.halfspaces], vertices, equal
    return bits(output)


class Side:
    """One tree: its workloads copy, its stage wrappers and their times."""

    def __init__(self, root: Path, name: str, workload: str):
        tree = load_tree(root, "doflab_" + name)
        self.workloads = load_workloads(tree, "ab_workloads_" + name)
        self.workdir = None  # the scratch directory both trees write to
        self.stages = tuple(STAGES[workload]) + ("other",)
        self.times = dict.fromkeys(self.stages, 0.0)
        self.inner = 0.0  # seconds spent in wrapped calls under the current one
        for stage, paths in STAGES[workload].items():
            for path in paths:
                part, *owners, attr = path.split(".")
                owner = tree[part]
                for owner_name in owners:
                    owner = getattr(owner, owner_name)
                setattr(owner, attr, self.wrap(stage, getattr(owner, attr)))

    def wrap(self, stage, fn):
        def timed(*args, **kwargs):
            outer, self.inner = self.inner, 0.0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self.times[stage] += spent - self.inner
                self.inner = outer + spent
        return timed

    def outputs(self, op):
        """The op's comparable output, standard output and error, and every
        file it wrote.  ``workloads.call`` captures a command's streams in
        ``io.StringIO`` objects of its own; here its copy gets ones that are
        kept and read."""
        streams = []

        def kept_stream():
            streams.append(io.StringIO())
            return streams[-1]

        self.workloads.io = types.SimpleNamespace(StringIO=kept_stream)
        try:
            output = comparable(op, self.workloads.call(op, self.workdir))
        finally:
            self.workloads.io = io
        files = {path.name: path.read_bytes() for path in sorted(self.workdir.path.iterdir())}
        self.workdir.clear()
        return (output, *(s.getvalue() for s in streams), files)

    def run_round(self, ops):
        """Seconds of one round of ``ops``: each stage and the total."""
        times = self.times = dict.fromkeys(self.stages, 0.0)
        gc.collect()
        total = 0.0
        for op in ops:
            start = perf_counter()
            self.workloads.call(op, self.workdir)
            total += perf_counter() - start
            self.workdir.clear()
        times["other"] = total - sum(times.values())
        times["round"] = total
        return times


def summary(parent, change):
    """Median ms a round a side, and the paired ratios parent/change."""
    ratios = [p / c if c else float("inf") for p, c in zip(parent, change)]
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
    parser.add_argument("workload", choices=tuple(STAGES))
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="ab_") as scratch:
        sides = {name: Side(root.resolve(), name, args.workload)
                 for name, root in (("parent", args.parent), ("change", args.change))}
        workloads = sides["change"].workloads
        workdir = workloads.Workdir(Path(scratch) / "out")  # one path, so "wrote PATH" is equal
        for side in sides.values():
            side.workdir = workdir
        ops = workloads.catalog(args.workload)
        for op in ops:
            parent, change = (side.outputs(op) for side in sides.values())
            if parent != change:
                raise SystemExit("ab: the trees differ on op %s" % workloads.op_key(op))
        rounds = workloads.generate(args.workload, args.seed, args.rounds)
        times = {name: [] for name in sides}
        for i, round_ops in enumerate(rounds):
            for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                times[name].append(sides[name].run_round(round_ops))
    result = {stage: summary([r[stage] for r in times["parent"]], [r[stage] for r in times["change"]])
              for stage in ("round",) + sides["change"].stages}
    if args.json:
        print(json.dumps({"workload": args.workload, "distinct_ops": len(ops),
                          "ops_per_round": len(rounds[0]), "seed": args.seed, "stages": result}, indent=1))
        return
    print("%d distinct %s ops equal on both trees; %d ops a round (seed %d), %d rounds a side"
          % (len(ops), args.workload, len(rounds[0]), args.seed, args.rounds))
    print("%-20s %10s %10s %8s %17s %6s" % ("stage", "parent ms", "change ms", "ratio", "IQR", "wins"))
    for stage, s in result.items():
        print("%-20s %10.3f %10.3f %8.3f %8.3f-%-8.3f %3d/%d" % (
            stage, s["parent_ms"], s["change_ms"], s["ratio"]["median"], s["ratio"]["q1"],
            s["ratio"]["q3"], s["change_wins"], s["rounds"]))


if __name__ == "__main__":
    main()
