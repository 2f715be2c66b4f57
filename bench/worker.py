"""One workload process of the doflab benchmark (started by ``run.py``).

Sets up (imports doflab, generates the seeded inputs, runs the warm-up op),
then runs whole rounds of ops in a closed loop with one client until the
time is up, checks every output against the workload's file under
``reference/`` and prints one JSON line.  Op times are scaled to a fixed
machine speed (see ``clock.py``).  With ``--trace 1`` it runs the loop
untraced for half the time and then the same ops traced, and compares the
two passes' outputs.  With ``--probe`` it stops after set-up and prints only
when it was ready.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

OUT = workloads.ROOT / ".bench_out"
# Enough rounds for any run; the loop cycles through them if it needs more.
ROUNDS = 64

Done = namedtuple("Done", "op seconds wall digest problems trials")


def run_op(op, workdir, clock, reference=None, tracer=None):
    """Run one op and time only the program call.

    ``seconds`` is the wall time scaled by ``clock`` to the reference speed.
    The output is checked against ``reference`` outside the timed call and
    kept only as a digest, so memory does not grow with the op count.
    Without a reference (the traced pass) the output is only digested.
    """
    if tracer is not None:
        tracer.op += 1
    start = time.perf_counter()
    try:
        out = workloads.call(op, workdir)
    except Exception:  # the loop keeps going; the op counts as failed
        wall = time.perf_counter() - start
        workdir.clear()
        return Done(op, wall * clock.factor(), wall, None,
                    ("raised: " + traceback.format_exc(limit=4),), 0)
    wall = time.perf_counter() - start
    seconds = wall * clock.factor()
    rec = workloads.record(op, out, workdir)
    digest = hashlib.sha1(repr(rec).encode()).hexdigest()
    problems = () if reference is None else tuple(workloads.check(op, rec, reference))
    return Done(op, seconds, wall, digest, problems, workloads.trials_of(op, rec))


def timed_loop(workload, rounds, seconds, max_ops, workdir, reference):
    """Whole rounds until ``seconds`` have passed (or ``max_ops`` ops ran).

    Returns the rounds run, each a list of ``Done``.
    """
    clock = Clock(workloads.KERNEL_WEIGHTS[workload])
    done = []
    count = 0
    start = time.perf_counter()
    for ops in itertools.cycle(rounds):
        done.append([])
        for op in ops:
            done[-1].append(run_op(op, workdir, clock, reference))
            count += 1
            if max_ops and count >= max_ops:
                return done
        if time.perf_counter() - start >= seconds:
            return done


def latency_metrics(rounds, field="seconds"):
    """Ops per second of op time, and latency percentiles, over all ops."""
    ms = [getattr(d, field) * 1e3 for r in rounds for d in r]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3), "op_p50_ms": deciles[4],
            "op_p90_ms": deciles[8]}


def environment(args):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = workloads.ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = workloads.ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((workloads.SRC / "doflab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    workloads.import_doflab()
    rounds = workloads.generate(args.workload, args.seed, ROUNDS)
    OUT.mkdir(exist_ok=True)
    workdir = workloads.Workdir(OUT / ("work-%d" % os.getpid()))
    try:
        warm_op = workloads.WARMUP[args.workload]
        warm_rec = workloads.record(warm_op, workloads.call(warm_op, workdir), workdir)
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready}))
            return 0

        reference = workloads.load_reference(args.workload)
        warm = Done(warm_op, 0.0, 0.0, None,
                    tuple(workloads.check(warm_op, warm_rec, reference)), 0)
        if args.trace:
            plain = timed_loop(args.workload, rounds, args.seconds / 2, args.max_ops, workdir,
                               reference)
            tracer = spans.Tracer()
            clock = Clock(workloads.KERNEL_WEIGHTS[args.workload])
            tracer.install()
            try:
                traced = [[run_op(d.op, workdir, clock, tracer=tracer) for d in r] for r in plain]
            finally:
                tracer.uninstall()
            runs = plain + traced
        else:
            runs = timed_loop(args.workload, rounds, args.seconds, args.max_ops, workdir, reference)
    finally:
        workdir.close()

    results = [warm] + [d for r in runs for d in r]
    failed_ops = {i for i, d in enumerate(results) if d.problems}
    if args.trace:
        first = [d for r in plain for d in r]
        second = [d for r in traced for d in r]
        mismatched = [i for i, (a, b) in enumerate(zip(first, second)) if a.digest != b.digest]
        failed_ops |= {1 + len(first) + i for i in mismatched}
        metrics = dict(tracer.summary(sum(d.wall for d in second)))
        wall_metrics = latency_metrics(plain, "wall")
        metrics["bench.trace_overhead_ratio"] = (
            latency_metrics(traced)["ops_per_s"] / latency_metrics(plain)["ops_per_s"])
        metrics["bench.trials_per_s"] = sum(d.trials for d in first) / sum(d.seconds for d in first)
        tracer.write(OUT / ("%s-seed%d-spans.json" % (args.workload, args.seed)))
    else:
        mismatched = []
        metrics = latency_metrics(runs)
        wall_metrics = latency_metrics(runs, "wall")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ready": ready,
        "attempted": len(results),
        "failed": len(failed_ops),
        "metrics": metrics,
        "wall_metrics": wall_metrics,
        "trace_mismatches": len(mismatched),
        "problems": [{"index": i, "op": d.op, "problems": d.problems[:5]}
                     for i, d in enumerate(results) if d.problems][:20],
        "environment": environment(args),
    }
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
