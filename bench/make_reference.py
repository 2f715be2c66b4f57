"""Write ``bench/reference/<workload>.json``: the expected output of every op.

    python3 bench/make_reference.py

Runs every op in the workloads' input pools on the current doflab sources
and stores the checked record of each one, with its cost on this machine
(``cost_ms``, informational only).  Regenerate it only from code whose
outputs are known to be right; the benchmark then holds later code to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

os.environ.update(run.PINNED_THREADS)  # before numpy loads, as in benchmark runs

import workloads  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    workloads.import_doflab()

    docs = {}
    workdir = workloads.Workdir(workloads.ROOT / ".bench_out" / ("ref-%d" % os.getpid()))
    try:
        for name in workloads.WORKLOADS:
            doc = docs[name] = {"ops": {}, "cost_ms": {}}
            ops = workloads.catalog(name)
            for i, op in enumerate(ops):
                start = time.perf_counter()
                out = workloads.call(op, workdir)
                cost = (time.perf_counter() - start) * 1e3
                key = workloads.op_key(op)
                doc["ops"][key] = workloads.record(op, out, workdir)
                doc["cost_ms"][key] = round(cost, 2)
                problems = workloads.check(op, doc["ops"][key], doc["ops"])
                if problems:
                    raise SystemExit("reference op %s is wrong: %s" % (key, problems))
            print("%s: %d ops" % (name, len(ops)), file=sys.stderr)
    finally:
        workdir.close()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, doc in docs.items():
        workloads.reference_path(name).write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
