"""Workloads of the doflab benchmark: input pools, seeded rounds, ops, checks.

An op is one user request: one region build (``geometry``), one Monte Carlo
call (``montecarlo``) or one ``doflab`` command run in-process (``cli-mix``).
Every op is a tuple of plain values drawn from a finite pool, so
``reference/<workload>.json`` (written by ``make_reference.py`` from the seed
code) holds the expected output of every op a seed can produce.

A workload is a sequence of rounds.  Every round follows the same template
of cost classes in the same order; the seed picks the inputs inside each
class, so two seeds give different inputs with the same cost mix.
The timed loop runs whole rounds, which keeps that mix exact in every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Float fields of reports may move by this relative amount (a reordered sum
# or a batched LAPACK call moves the last digits); anything else is wrong.
FLOAT_RTOL = 1e-6
RESIDUAL_TOL = 1e-8

exactgeom = regions = scheme = cli = None


def import_doflab():
    """Import doflab from this checkout's ``src`` (never an installed copy)."""
    global exactgeom, regions, scheme, cli
    if not (SRC / "doflab" / "__init__.py").is_file():
        raise SystemExit("bench: %s/doflab is missing; run from a doflab checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import doflab
    from doflab import cli as _cli, exactgeom as _eg, regions as _rg, scheme as _sc

    if Path(doflab.__file__).resolve().parent != (SRC / "doflab").resolve():
        raise SystemExit("bench: imported doflab from %s, not from %s" % (doflab.__file__, SRC))
    exactgeom, regions, scheme, cli = _eg, _rg, _sc, _cli


def op_key(op) -> str:
    return json.dumps(op, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Rounds.  A round is a list of slots; a slot lists interchangeable
# candidates of about the same cost, each a list of ops.  The seed picks one
# candidate per slot.  Candidates differ by a scale c (M and N times c give
# the same region scaled by c, so the same exact work), by the Monte Carlo
# seed, by the coordinate order of a three-user target, or by M past
# saturation (M >= N1+...+NK leaves the region unchanged).
# ---------------------------------------------------------------------------

SCALES = (1, 2, 3)
SWEEP_M = range(1, 9)
SIM_SEEDS = range(32)
CLI_TRIALS = 10
SNR_DB = (30, 40, 50, 60)
SNR_ARG = ",".join(str(x) for x in SNR_DB)


def _geometry(m, n):
    return ("geometry", m, list(n))


def _sweep(shape, ms=SWEEP_M):
    """M = c, 2c, ..., 8c at receivers c * shape."""
    return [[_geometry(c * m, [c * x for x in shape]) for m in ms] for c in SCALES]


def _point(m, shape, scales=SCALES):
    return [[_geometry(c * m, [c * x for x in shape])] for c in scales]


# Per round: 47 K=2/K=3 ops of 0.5-13 ms and 8 ops of 0.1-0.5 s.  The median
# falls among ops of 2-6 ms from five different K=3 receiver shapes and p90
# inside the spread-out K=4/K=5 points.  With 55 ops a round both are the
# middle copies of a cost class (the 28th and the 50th).
GEOMETRY_SLOTS = [
    _sweep((2, 1), range(1, 8)),
    _sweep((1, 1, 1)),
    _sweep((2, 2, 1)),
    _sweep((3, 2, 1)),
    _sweep((4, 2, 1)),
    _sweep((4, 3, 2)),
    # K=4 and K=5 sweep points of 0.1-0.3 s at the reference speed; K=5 only at M <= 3
    _point(3, (1, 1, 1, 1)),
    _point(5, (2, 2, 2, 2)),
    _point(4, (2, 1, 1, 1)),
    _point(4, (2, 2, 1, 1)),
    _point(3, (1, 1, 1, 1, 1), (1,)),
    _point(3, (2, 1, 1, 1, 1), (1,)),
    _point(3, (3, 1, 1, 1, 1), (1,)),
    # the heaviest K=4 point, about 0.5 s at the reference speed
    _point(5, (2, 2, 1, 1)),
]


def _nums(values):
    return ",".join(str(v) for v in values)


def _cli_region(model, m, n, fmt):
    return [[("cli", "region", "--model", model, "--M", str(c * m), "--N",
              _nums(c * x for x in n), "--format", fmt)] for c in SCALES]


def _cli_compare(n, fmt):
    return [[("cli", "compare", "--N", _nums(c * x for x in n), "--M",
              _nums(c * m for m in range(2, 7)), "--format", fmt)] for c in SCALES]


def _cli_slice(m, n, fmt):
    top = Fraction(m * n, m + n)
    return [[("cli", "slice", "--M", str(c * m), "--N", str(c * n), "--d3",
              str(c * top * j / 6), "--format", fmt)] for c in SCALES for j in range(7)]


def _cli_simulate(m, n1, n2, *extra, trials=CLI_TRIALS):
    return [[("cli", "simulate", "--M", str(m), "--N", "%d,%d" % (n1, n2),
              "--trials", str(trials), "--seed", str(s), *extra)] for s in SIM_SEEDS]


def _cli_plan(m, n, target):
    """Three-user target through its exact plan, in every coordinate order."""
    orders = sorted({tuple(target[i] for i in p)
                     for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))})
    return [[("cli", "simulate", "--M", str(m), "--N", _nums((n, n, n)), "--target",
              _nums(Fraction(x) for x in t), "--trials", str(CLI_TRIALS), "--seed", str(s))]
            for t in orders for s in SIM_SEEDS[:8]]


# Per round: 25 commands of 1.5-20 ms at the reference speed of clock.py;
# with 25 ops a round p50 and p90 are the middle copies of the 13th and 23rd
# cost classes.
CLI_SLOTS = [
    _cli_region("outer", 4, (3, 1), "csv"),
    _cli_region("outer", 3, (2, 2, 1), "csv"),
    _cli_region("outer", 5, (3, 2, 1), "json"),
    _cli_region("outer", 4, (2, 1, 1), "json"),
    _cli_region("two-user", 4, (3, 2), "csv"),
    _cli_region("two-user", 3, (2, 1), "json"),
    _cli_region("three-user", 3, (2,), "csv"),
    _cli_region("three-user", 4, (3,), "json"),
    _cli_region("three-user", 2, (1,), "json"),
    _cli_compare((3, 2), "csv"),
    _cli_compare((2, 1), "json"),
    _cli_compare((4, 3), "json"),
    _cli_slice(3, 2, "csv"),
    _cli_slice(5, 3, "csv"),
    _cli_slice(4, 3, "json"),
    _cli_simulate(4, 3, 2),
    _cli_simulate(3, 2, 2),
    _cli_simulate(2, 1, 1),
    _cli_simulate(4, 3, 2, "--snr-db", SNR_ARG),
    _cli_simulate(6, 4, 2, "--snr-db", SNR_ARG),
    _cli_plan(2, 1, (Fraction(1, 2), 0, 0)),  # single-user component
    _cli_plan(3, 2, (Fraction(6, 5), Fraction(6, 5), 0)),  # two-user corner
    _cli_plan(3, 2, (Fraction(6, 7),) * 3),  # external corner: exits 2 by contract
    _cli_plan(3, 2, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),  # interior: 3x3 solves
    _cli_plan(4, 2, (Fraction(1), Fraction(2, 3), Fraction(1, 2))),  # interior
]


def _trials(m, n1, n2, trials):
    return [[("montecarlo", "trials", m, n1, n2, trials, s)] for s in MC_SEEDS]


def _slopes(m, n1, n2):
    return [[("montecarlo", "slopes", m, n1, n2, s)] for s in MC_SEEDS]


MC_SEEDS = range(16)

# Per round: 12 simulate_trials calls over cases A (M <= N1), B and C, and
# 3 rate_slope_estimate calls, 40-350 ms each on the machine the benchmark
# was written on.  With 15 ops a round, p50 is the middle copy of the 8th
# cost class and p90 that of the 14th.  Those two classes sit about a third
# away from their neighbours, so op-to-op noise does not mix them with other
# classes.  Short ops give about 17 rounds in a 30-s run.
MONTECARLO_SLOTS = [
    _slopes(9, 6, 3),
    _slopes(10, 5, 5),
    _trials(3, 3, 3, 100),  # case A
    _trials(6, 6, 6, 100),  # case A
    _trials(2, 1, 1, 100),  # case C
    _trials(3, 2, 2, 70),  # case B
    _trials(3, 2, 1, 70),  # case C
    _trials(4, 2, 2, 60),  # case C: p50
    _trials(5, 3, 3, 65),  # case B
    _trials(4, 3, 2, 90),  # case B
    _trials(5, 4, 2, 80),  # case B
    _slopes(12, 6, 6),
    _trials(6, 3, 3, 57),  # case C
    _trials(7, 4, 3, 60),  # case C: p90
    _trials(8, 4, 4, 65),  # case C
]

SLOTS = {"geometry": GEOMETRY_SLOTS, "montecarlo": MONTECARLO_SLOTS, "cli-mix": CLI_SLOTS}

# Weights of the calibration kernel's (Fraction, numpy) parts per workload
# (see clock.py).  In runs of sample ops, the time of exact-geometry ops over
# the 2:1 kernel, of Monte Carlo calls over the numpy part and of CLI
# commands over the 1:1 kernel spread least as the machine's speed changed.
KERNEL_WEIGHTS = {"geometry": (2, 1), "montecarlo": (0, 1), "cli-mix": (1, 1)}
WORKLOADS = tuple(SLOTS)

# One fixed op per workload, run before timing (it also fills the
# ``regions._pair_corners`` cache that plans use).
WARMUP = {
    "geometry": ("geometry", 3, [2, 2, 1]),
    "montecarlo": ("montecarlo", "trials", 4, 3, 2, 10, 0),
    "cli-mix": ("cli", "simulate", "--M", "2", "--N", "1,1,1", "--target", "2/3,0,2/3",
                "--trials", "10", "--seed", "0"),
}


def generate(workload: str, seed: int, rounds: int):
    """The first ``rounds`` rounds of a workload for one seed.

    Ops keep the slot order: a run holds only a few rounds, and a shuffled
    order alone moved the latency of the same ops by a fifth between seeds.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    return [[op for slot in SLOTS[workload] for op in rng.choice(slot)] for _ in range(rounds)]


def catalog(workload: str):
    """Every op the workload can produce, for writing the reference file."""
    ops = [WARMUP[workload]]
    ops += [op for slot in SLOTS[workload] for candidate in slot for op in candidate]
    seen = {}
    for op in ops:
        seen.setdefault(op_key(op), op)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Running one op: ``call`` is the timed program call, ``record`` turns its
# output into the plain data that is checked against the reference.
# ---------------------------------------------------------------------------

class Workdir:
    """Scratch directory inside the checkout for the artifacts of cli ops."""

    def __init__(self, path: Path):
        self.path = path
        path.mkdir(parents=True, exist_ok=True)

    def clear(self):
        for f in self.path.iterdir():
            f.unlink()

    def close(self):
        self.clear()
        self.path.rmdir()


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:24]


def call(op, workdir: Workdir):
    kind = op[0]
    if kind == "geometry":
        _, m, n = op
        region = regions.outer_bound_region(regions.AntennaConfig(m, tuple(n)))
        vertices = exactgeom.vertex_enumerate(region) if len(n) <= 4 else None
        closed = None
        if len(n) == 2:
            closed = regions.two_user_region(m, n[0], n[1])
        elif len(n) == 3 and n[0] == n[2] and m <= 2 * n[0]:
            closed = regions.three_user_region(m, n[0])
        equal = None if closed is None else exactgeom.regions_equal(region, closed)
        return region, vertices, equal
    if kind == "montecarlo":
        _, what, m, n1, n2, *rest = op
        if what == "trials":
            return scheme.simulate_trials(m, n1, n2, *rest)
        return scheme.rate_slope_estimate(scheme.plan_two_user(m, n1, n2), rest[0], SNR_DB)
    if kind == "cli":
        argv = list(op[1:])
        suffix = ".csv"
        if "--format" in argv:
            suffix = "." + argv[argv.index("--format") + 1]
        elif argv[0] == "simulate":
            suffix = ".json"
        argv += ["--out", str(workdir.path / ("out" + suffix))]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    raise ValueError("unknown op kind %r" % (kind,))


def record(op, output, workdir: Workdir):
    """Plain, comparable data for one op's output."""
    kind = op[0]
    if kind == "geometry":
        region, vertices, equal = output
        halfspaces = sorted(_nums(h.coeffs) + "<=" + str(h.bound) for h in region.halfspaces)
        rec = {"halfspaces": len(halfspaces), "halfspace_digest": _digest(halfspaces),
               "equal_closed_form": equal}
        if vertices is not None:
            rec["vertices"] = len(vertices)
            rec["vertex_digest"] = _digest(sorted(_nums(v) for v in vertices))
        return rec
    if kind == "montecarlo":
        if op[1] == "slopes":
            return {"report": {"rate_slopes": [float(x) for x in output.slopes],
                               "rates": output.rates.tolist()}}
        _, _, m, n1, n2, _, _ = op
        return {"report": {
            "config": {"M": m, "N1": n1, "N2": n2},
            "case": output.spec.case,
            "trials": int(output.trials),
            "failures": [[int(i), int(slot), float(cond)] for i, slot, cond in output.failures],
            "max_residual": float(output.max_residual),
            "max_condition": float(output.max_condition),
            "solves": int(output.solves),
            "ill_conditioned": int(output.ill_conditioned),
            "achieved_dof": [str(x) for x in output.achieved],
            "matches_corner": bool(output.matches_corner),
        }}
    rec = {"exit": output}
    for path in sorted(workdir.path.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json" and op[1] == "simulate":
            rec["report"] = json.loads(data)
            continue
        rec[path.name] = hashlib.sha256(data).hexdigest()
    workdir.clear()
    return rec


def trials_of(op, rec) -> int:
    """Monte Carlo trials an op ran (0 for ops without trials)."""
    report = rec.get("report", {})
    if "components" in report:
        return CLI_TRIALS * sum(c["status"] == "simulated" for c in report["components"])
    return report.get("trials", 0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / (workload + ".json")


def load_reference(workload: str):
    """Expected records of one workload's ops (only those, to keep the
    workload process's peak memory mostly doflab's)."""
    return json.loads(reference_path(workload).read_text())["ops"]


def _compare(expected, actual, path, problems):
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            problems.append("%s: expected a number, got %r" % (path, actual))
        elif path.endswith("max_residual"):
            if not actual < RESIDUAL_TOL:
                problems.append("%s: residual %r is not below %g" % (path, actual, RESIDUAL_TOL))
        elif abs(actual - expected) > FLOAT_RTOL * abs(expected):
            problems.append("%s: %r differs from %r" % (path, actual, expected))
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            problems.append("%s: fields %r, expected %r" % (
                path, sorted(actual) if isinstance(actual, dict) else actual, sorted(expected)))
            return
        for k in expected:
            _compare(expected[k], actual[k], "%s.%s" % (path, k), problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append("%s: %r, expected %r" % (path, actual, expected))
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, "%s[%d]" % (path, i), problems)
    elif expected != actual or type(expected) is not type(actual):
        problems.append("%s: %r, expected %r" % (path, actual, expected))


def _corner_problems(report):
    """A two-user report's achieved DoF must be point_Q, or lie on its face."""
    config = report["config"]
    achieved = tuple(Fraction(x) for x in report["achieved_dof"])
    corner = regions.point_Q(config["M"], config["N1"], config["N2"])
    if isinstance(corner, regions.DominantFace):
        ok = corner.line.active(achieved)
    else:
        ok = achieved == corner
    problems = [] if ok else ["achieved DoF %s is not the corner" % (report["achieved_dof"],)]
    if report["failures"] or not report["matches_corner"]:
        problems.append("trials failed or missed the corner")
    return problems


def check(op, rec, reference) -> list:
    """Problems with one op's record; an empty list means the op is correct."""
    expected = reference.get(op_key(op))
    if expected is None:
        return ["no reference output for this op"]
    problems = []
    _compare(expected, rec, "output", problems)
    if op[0] == "geometry" and rec.get("equal_closed_form") is False:
        problems.append("outer bound differs from the closed-form region")
    if "N1" in rec.get("report", {}).get("config", {}):
        problems += _corner_problems(rec["report"])
    return problems
