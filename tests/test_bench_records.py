"""Every committed BENCH_*.json record has the record schema, and its claim
names a workload and an end-to-end metric that BENCHMARK.json lists."""

import json

import pytest

from bench_trajectory import ROOT, line, records

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = records()
KEYS = {"label", "change", "layer", "claim", "method", "python", "numpy", "blas", "machine",
        "runs", "summary", "layer_summary"}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path,record", RECORDS, ids=[path.name for path, _ in RECORDS])
def test_bench_record_schema(path, record):
    assert KEYS <= record.keys()
    assert path.name == "BENCH_%s.json" % record["label"]
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert any(m["name"].startswith(record["layer"] + ".") for m in BENCHMARK["per_layer"])
    assert record["layer"] in record["layer_summary"]
    assert set(record["summary"]) <= {w["name"] for w in BENCHMARK["workloads"]}
    assert {run["side"] for run in record["runs"]} == {"parent", "change"}
    assert record["label"] in line(record)
