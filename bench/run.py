"""doflab benchmark entry point.

    python3 bench/run.py --workload {geometry,montecarlo,cli-mix} --seed N \
        --seconds S --trace {0,1}

Run from the root of a doflab checkout.  Set-up is measured in several
fresh processes and reported as the median; the workload itself runs in one
more fresh process with BLAS and OpenMP pinned to one thread.  Op times are
scaled to a fixed machine speed (see ``clock.py``); set-up times are wall
times, as set-up is mostly imports and does not follow the kernel's speed.
The last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  Details, the
environment and the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Fresh processes that only set up, half before and half after the workload
# process (the machine's speed changes over seconds); with the workload
# process they give the set-up samples whose median is setup_s.
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 20
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spawn(argv, timeout):
    """Run a worker; return (spawn time, its JSON line)."""
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench: worker %s exited with %d" % (argv, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("bench: worker %s printed nothing" % (argv,))
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="doflab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (smoke runs)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("bench: unknown workload %r" % args.workload)
    if not (ROOT / "src" / "doflab" / "__init__.py").is_file():
        raise SystemExit("bench: no doflab sources under %s" % (ROOT / "src"))

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []  # wall seconds from spawn to ready

    def probe_setups(count):
        for _ in range(count):
            started, probe = _spawn(common + ["--seconds", "0", "--probe"], PROBE_TIMEOUT_S)
            setups.append(probe["ready"] - started)

    probes = SETUP_PROBES if not args.max_ops else 2
    probe_setups(probes // 2)
    run = common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.max_ops:
        run += ["--max-ops", str(args.max_ops)]
    started, result = _spawn(run, 120)
    setups.append(result["ready"] - started)
    probe_setups(probes - probes // 2)

    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"environment": result["environment"], "wall_metrics": result["wall_metrics"],
                      "setup_samples_s": setups,
                      "trace_mismatches": result["trace_mismatches"],
                      "problems": result["problems"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
