"""Paired in-process A/B of the ``cli-mix`` ops on two doflab trees.

    python3 tests/cli_ab.py PARENT [CHANGE] [--rounds 30] [--seed 5] [--json]

PARENT and CHANGE are doflab checkouts; CHANGE defaults to the one this
script sits in.  Each tree's ``src/doflab`` is loaded under its own package
name, so both run in one process, and each tree gets its own copy of this
checkout's ``bench/workloads`` bound to it, so an op is exactly
``workloads.call`` on that tree: ``cli.main`` with ``--out`` into a scratch
directory and standard output and error captured.

First every distinct ``cli-mix`` op of ``workloads.catalog`` runs once on
each tree, and both trees must give the same exit code, the same standard
output and error, and byte-identical files.  Then the rounds alternate:
round i runs the ops of round i of ``workloads.generate("cli-mix", SEED,
ROUNDS)`` once on each tree, the two trees taking turns to go first, and the
files an op writes are removed after it, outside the timing, as the
benchmark's worker does.  The time of each op is split into stages by
wrappers on each tree's functions, each stage's time exclusive of the
others':

* ``parse``: ``cli._Parser.parse_known_args``, which parses the command
  line whether ``main`` hands it to the top-level parser or straight to
  the command's own;
* ``plan``: ``regions.achievability_plan`` (three-user targets);
* ``simulate_runs``: ``scheme.simulate_runs`` without its ``decode`` calls
  (seeds, draws, phases and summaries);
* ``decode``: ``scheme.decode``;
* ``serialize``: ``serialize.json_text`` and the CSV writers the commands
  call;
* ``write``: ``cli._write``, one file each;
* ``other``: the rest of the op (exact geometry, building the documents,
  the rate model, printing).

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
import io
import json
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse", "plan", "simulate_runs", "decode", "serialize", "write", "other")
SERIALIZERS = ("json_text", "vertices_to_csv", "halfspaces_to_csv", "sweep_to_csv", "slice_to_csv")


def load_tree(root: Path, name: str):
    """The ``cli``, ``exactgeom``, ``regions``, ``scheme`` and ``serialize``
    modules of the doflab under ``root/src``, imported as package ``name``."""
    package = root / "src" / "doflab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {part: importlib.import_module("%s.%s" % (name, part))
            for part in ("cli", "exactgeom", "regions", "scheme", "serialize")}


def load_workloads(tree, name: str):
    """A copy of this checkout's ``bench/workloads`` whose ops run on ``tree``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for part, module in tree.items():
        setattr(workloads, part, module)
    return workloads


class Stages:
    """Exclusive seconds per stage, from wrappers that nest."""

    def __init__(self):
        self.times = dict.fromkeys(STAGES, 0.0)
        self.inner = 0.0  # seconds spent in wrapped calls under the current one

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

    def instrument(self, tree):
        cli, regions, scheme, serialize = (tree[part] for part in ("cli", "regions", "scheme", "serialize"))
        cli._Parser.parse_known_args = self.wrap("parse", argparse.ArgumentParser.parse_known_args)
        regions.achievability_plan = self.wrap("plan", regions.achievability_plan)
        scheme.simulate_runs = self.wrap("simulate_runs", scheme.simulate_runs)
        scheme.decode = self.wrap("decode", scheme.decode)
        for name in SERIALIZERS:
            setattr(serialize, name, self.wrap("serialize", getattr(serialize, name)))
        cli._write = self.wrap("write", cli._write)


class Side:
    """One tree: its workloads copy and stage timers, and the scratch
    directory that both trees write to, each op's files removed after it."""

    def __init__(self, root: Path, name: str):
        self.tree = load_tree(root, "doflab_" + name)
        self.workloads = load_workloads(self.tree, "cli_ab_workloads_" + name)
        self.workdir = None
        self.stages = Stages()
        self.stages.instrument(self.tree)

    def outputs(self, op):
        """Exit code, standard output and error, and every file the op wrote.

        ``workloads.call`` captures the streams in ``io.StringIO`` objects
        of its own; here its copy gets ones that are kept and read."""
        streams = []

        def kept_stream():
            streams.append(io.StringIO())
            return streams[-1]

        self.workloads.io = types.SimpleNamespace(StringIO=kept_stream)
        try:
            code = self.workloads.call(op, self.workdir)
        finally:
            self.workloads.io = io
        files = {path.name: path.read_bytes() for path in sorted(self.workdir.path.iterdir())}
        self.workdir.clear()
        return (code, *(s.getvalue() for s in streams), files)

    def run_round(self, ops):
        """Seconds of one round of ``ops``: each stage and the total."""
        times = self.stages.times = dict.fromkeys(STAGES, 0.0)
        gc.collect()
        total = 0.0
        for op in ops:
            start = perf_counter()
            self.workloads.call(op, self.workdir)
            total += perf_counter() - start
            self.workdir.clear()
        times["round"] = total
        times["other"] = total - sum(times[stage] for stage in STAGES if stage != "other")
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
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="cli_ab_") as scratch:
        sides = {name: Side(root.resolve(), name)
                 for name, root in (("parent", args.parent), ("change", args.change))}
        workloads = sides["change"].workloads
        workdir = workloads.Workdir(Path(scratch) / "out")  # one path, so "wrote PATH" is equal
        for side in sides.values():
            side.workdir = workdir
        ops = workloads.catalog("cli-mix")
        for op in ops:
            parent, change = (side.outputs(op) for side in sides.values())
            assert parent == change, "the trees differ on cli-mix op %s" % " ".join(op[1:])
        rounds = workloads.generate("cli-mix", args.seed, args.rounds)
        times = {name: [] for name in sides}
        for i, round_ops in enumerate(rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                times[name].append(sides[name].run_round(round_ops))
        workdir.close()
    result = {stage: summary([r[stage] for r in times["parent"]], [r[stage] for r in times["change"]])
              for stage in ("round",) + STAGES}
    if args.json:
        print(json.dumps({"distinct_ops": len(ops), "ops_per_round": len(rounds[0]), "seed": args.seed,
                          "stages": result}, indent=1))
        return
    print("%d distinct cli-mix ops equal on both trees; %d ops a round (seed %d), %d rounds a side"
          % (len(ops), len(rounds[0]), args.seed, args.rounds))
    print("%-14s %10s %10s %8s %17s %6s" % ("stage", "parent ms", "change ms", "ratio", "IQR", "wins"))
    for stage, s in result.items():
        print("%-14s %10.3f %10.3f %8.3f %8.3f-%-8.3f %3d/%d" % (
            stage, s["parent_ms"], s["change_ms"], s["ratio"]["median"], s["ratio"]["q1"],
            s["ratio"]["q3"], s["change_wins"], s["rounds"]))


if __name__ == "__main__":
    main()
