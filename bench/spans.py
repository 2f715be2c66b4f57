"""In-memory span tracing of doflab's public functions, from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``doflab`` module.  ``regions`` and ``scheme`` bind ``exactgeom`` and
``regions`` functions through ``from ... import`` and the package re-exports
them, so patching only the defining module would miss internal calls.
A span that raises is marked failed and the exception is re-raised.  Spans
stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from math import comb

# (defining module, function, span name)
TARGETS = [
    ("doflab.exactgeom", "remove_redundant", "exactgeom.remove_redundant"),
    ("doflab.exactgeom", "is_bounded", "exactgeom.is_bounded"),
    ("doflab.exactgeom", "lp_max", "exactgeom.lp_max"),
    ("doflab.exactgeom", "vertex_enumerate", "exactgeom.vertex_enumerate"),
    ("doflab.exactgeom", "regions_equal", "exactgeom.regions_equal"),
    ("doflab.exactgeom", "contains", "exactgeom.contains"),
    ("doflab.exactgeom", "solve_square", "exactgeom.solve_square"),
    ("doflab.regions", "permutation_inequalities", "regions.permutation_inequalities"),
    ("doflab.regions", "outer_bound_region", "regions.outer_bound_region"),
    ("doflab.regions", "two_user_region", "regions.two_user_region"),
    ("doflab.regions", "three_user_region", "regions.three_user_region"),
    ("doflab.regions", "point_Q", "regions.point_Q"),
    ("doflab.regions", "achievability_plan", "regions.achievability_plan"),
    ("doflab.regions", "convex_decompose_2d", "regions.convex_decompose_2d"),
    ("doflab.regions", "plane_slice", "regions.plane_slice"),
    ("doflab.scheme", "simulate_trials", "scheme.simulate_trials"),
    ("doflab.scheme", "generate_channels", "scheme.generate_channels"),
    ("doflab.scheme", "draw_symbols", "scheme.draw_symbols"),
    ("doflab.scheme", "run_phases", "scheme.run_phases"),
    ("doflab.scheme", "decode", "scheme.decode"),
    ("doflab.scheme", "rate_slope_estimate", "scheme.rate_slope_estimate"),
    ("doflab.scheme", "simulate_single_user", "scheme.simulate_single_user"),
    ("doflab.cli", "main", "cli.main"),
    ("doflab.cli", "cmd_region", "cli.region"),
    ("doflab.cli", "cmd_compare", "cli.compare"),
    ("doflab.cli", "cmd_simulate", "cli.simulate"),
    ("doflab.cli", "cmd_slice", "cli.slice"),
]


def _count_rows(counts, args, result):
    counts["rows_in"] += len(args[0].halfspaces)
    counts["rows_kept"] += len(result.halfspaces)


def _count_bases(counts, args, result):
    region = args[0]
    counts["bases"] += comb(len(region.halfspaces) + region.dimension, region.dimension)
    counts["vertices"] += len(result)


def _count_solves(counts, args, result):
    counts["solves"] += result.solves
    counts["ill_conditioned"] += result.ill_conditioned


def _count_trials(counts, args, result):
    counts["trials"] += result.trials


def _count_inequalities(counts, args, result):
    counts["rows"] += len(result)


# Work counts taken from a call's arguments and result, with their names.
COUNTERS = {
    "exactgeom.remove_redundant": (_count_rows, ("rows_in", "rows_kept")),
    "exactgeom.vertex_enumerate": (_count_bases, ("bases", "vertices")),
    "regions.permutation_inequalities": (_count_inequalities, ("rows",)),
    "scheme.decode": (_count_solves, ("solves", "ill_conditioned")),
    "scheme.simulate_trials": (_count_trials, ("trials",)),
}


class Tracer:
    """Records one span per traced call: op, id, parent id, name, start, end, failed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name, (None,))[0]
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, len(spans), stack[-1] if stack else -1, name, clock(), 0.0, False]
            spans.append(span)
            stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                counts["failed"] += 1
                raise
            finally:
                span[5] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "doflab" or n.startswith("doflab."))]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(name, original)
            for module in modules:
                for binding in [k for k, v in vars(module).items() if v is original]:
                    self._patched.append((module, binding, original))
                    setattr(module, binding, traced)

    def uninstall(self):
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def summary(self, op_wall_s: float) -> dict:
        """Per-function calls, self time and counts, plus time no span covers.

        Self time is a span's duration minus its child spans' durations, so
        the self times of all spans plus ``bench.untraced_ms`` add up to
        ``bench.op_wall_ms``.
        """
        child = [0.0] * len(self.spans)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for _, _, name in TARGETS:
            for stat in ("calls", "self_ms", "failed") + COUNTERS.get(name, (None, ()))[1]:
                out["%s.%s" % (name, stat)] = 0
        covered = 0.0
        for _, idx, parent, name, start, end, _ in self.spans:
            out[name + ".calls"] += 1
            out[name + ".self_ms"] += (end - start - child[idx]) * 1e3
            if parent < 0:
                covered += end - start
        for name, counts in self.counts.items():
            for stat, value in counts.items():
                out["%s.%s" % (name, stat)] += value
        bases = out["exactgeom.vertex_enumerate.bases"]
        out["exactgeom.vertex_enumerate.yield"] = (
            out["exactgeom.vertex_enumerate.vertices"] / bases if bases else 0.0)
        out["bench.op_wall_ms"] = op_wall_s * 1e3
        out["bench.untraced_ms"] = (op_wall_s - covered) * 1e3
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start_s", "end_s", "failed"],
                       "spans": self.spans}, fh, separators=(",", ":"))
