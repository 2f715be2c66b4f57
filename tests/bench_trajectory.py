"""The committed benchmark records, one line each.

    python3 tests/bench_trajectory.py

For every BENCH_*.json at the root of the repository, in name order, it
prints the record's label, the layer it measured, its claim (workload and
end-to-end metric) and the parent -> change medians of the claimed metric
over the record's alternating pairs.  Not a test module, so pytest does not
collect it; tests/test_bench_records.py checks that every record has what
this line reads.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def records():
    """(path, record) for every BENCH_*.json at the root, in name order."""
    return [(path, json.loads(path.read_text())) for path in sorted(ROOT.glob("BENCH_*.json"))]


def line(record) -> str:
    workload, metric = record["claim"]["workload"], record["claim"]["metric"]
    stats = record["summary"][workload][metric]
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    return "%-14s %-28s %s %s  %.4g -> %.4g (%+.1f %%)" % (
        record["label"], record["layer"], workload, metric, parent, change,
        100.0 * (change / parent - 1.0))


if __name__ == "__main__":
    for _, record in records():
        print(line(record))
