"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/selfcheck.py

Smoke runs of every workload with a handful of ops, traced and untraced;
corrupted outputs that must be counted as failures; the checker's float
tolerance; seeded inputs; and the span wrapper.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
SMOKE_OPS = 6


def bench(*args, cwd=workloads.ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload, trace=0, *extra):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--max-ops", str(SMOKE_OPS), *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", autouse=True)
def doflab_loaded():
    workloads.import_doflab()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    _, result = smoke(workload)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + SMOKE_OPS
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_adds_up(workload):
    details, result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert details["trace_mismatches"] == 0
    assert result["attempted"] == 1 + 2 * SMOKE_OPS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert self_ms + metrics["bench.untraced_ms"] == pytest.approx(metrics["bench.op_wall_ms"])
    assert metrics["bench.untraced_ms"] >= 0
    assert metrics["bench.trace_overhead_ratio"] > 0


def _perturb_vertex(out, workdir):
    region, vertices, equal = out
    vertices = [tuple(v) for v in vertices]
    vertices[0] = (vertices[0][0] + Fraction(1, 10**9),) + vertices[0][1:]
    return region, vertices, equal


def _flip_artifact_byte(code, workdir):
    path = next(workdir.path.iterdir())
    data = path.read_bytes()
    path.write_bytes(bytes([data[0] ^ 1]) + data[1:])
    return code


FAULTS = {
    "vertex": ("geometry", lambda op: len(op[2]) <= 4, _perturb_vertex),
    "solves": ("montecarlo", lambda op: op[1] == "trials",
               lambda out, workdir: dataclasses.replace(out, solves=out.solves + 1)),
    "artifact": ("cli-mix", lambda op: op[1] != "simulate", _flip_artifact_byte),
    "exit": ("cli-mix", lambda op: True, lambda code, workdir: code + 1),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_corrupted_output_is_a_failure(fault, monkeypatch, tmp_path):
    """The program's output is corrupted for one op of a clean round; the
    checker must count exactly that op as failed."""
    workload, applies, corrupt = FAULTS[fault]
    reference = workloads.load_reference(workload)
    ops = [op for op in workloads.generate(workload, 3, 1)[0] if applies(op)][:SMOKE_OPS]
    target = ops[len(ops) // 2]
    call = workloads.call

    def corrupted_call(op, workdir):
        out = call(op, workdir)
        return corrupt(out, workdir) if op is target else out

    monkeypatch.setattr(workloads, "call", corrupted_call)
    workdir = workloads.Workdir(tmp_path / "work")
    rounds = worker.timed_loop(workload, [ops], 0, len(ops), workdir, reference)
    done = [d for r in rounds for d in r]
    workdir.close()
    assert [d.op is target for d in done if d.problems] == [True]


def test_checker_float_tolerance_and_exact_counts():
    reference = workloads.load_reference("montecarlo")
    op = ("montecarlo", "trials", 8, 4, 4, 65, 5)
    rec = reference[workloads.op_key(op)]
    assert workloads.check(op, copy.deepcopy(rec), reference) == []

    def changed(**fields):
        return dict(rec, report=dict(rec["report"], **fields))

    cond = rec["report"]["max_condition"]
    assert workloads.check(op, changed(max_condition=cond * (1 + 1e-12)), reference) == []
    assert workloads.check(op, changed(max_condition=cond * 1.001), reference)
    assert workloads.check(op, changed(trials=99), reference)
    assert workloads.check(op, changed(solves=rec["report"]["solves"] - 1), reference)
    assert workloads.check(op, changed(max_residual=1e-6), reference)
    assert workloads.check(op, changed(achieved_dof=["1", "1"]), reference)

    reference = workloads.load_reference("cli-mix")
    op = ("cli", "simulate", "--M", "4", "--N", "3,2", "--trials", "10", "--seed", "5")
    rec = reference[workloads.op_key(op)]
    assert workloads.check(op, copy.deepcopy(rec), reference) == []
    assert workloads.check(op, dict(rec, exit=2), reference)


def test_seeds_give_different_inputs_of_the_same_cost_mix():
    for name, slots in workloads.SLOTS.items():
        reference = workloads.load_reference(name)
        a, b = workloads.generate(name, 1, 8), workloads.generate(name, 2, 8)
        assert a != b
        assert [len(r) for r in a] == [len(r) for r in b] == [sum(len(s[0]) for s in slots)] * 8
        for ops in a + b:
            assert all(workloads.op_key(op) in reference for op in ops)
        assert workloads.generate(name, 1, 8) == a


def test_span_wrapper_patches_every_binding_and_records_failures():
    import doflab
    from doflab import exactgeom, regions, scheme

    original = exactgeom.remove_redundant
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert regions.remove_redundant is exactgeom.remove_redundant is doflab.remove_redundant
        assert regions.remove_redundant is not original
        assert scheme.point_Q is regions.point_Q
        assert scheme.point_Q.__wrapped__ is not None
        spec = scheme.plan_two_user(4, 3, 2)
        channels = scheme.generate_channels(spec, 1)
        channels.h1[:] = 0
        transcript = scheme.run_phases(spec, channels, scheme.draw_symbols(spec, 2))
        with pytest.raises(scheme.SingularChannelError):
            scheme.decode(transcript)
        regions.outer_bound_region(regions.AntennaConfig(3, (1, 1, 1)))
    finally:
        tracer.uninstall()
    assert exactgeom.remove_redundant is original and regions.remove_redundant is original
    names = [s[3] for s in tracer.spans]
    assert "scheme.decode" in names and "exactgeom.remove_redundant" in names
    decode_span = next(s for s in tracer.spans if s[3] == "scheme.decode")
    assert decode_span[6] is True
    summary = tracer.summary(0.0)
    assert summary["scheme.decode.failed"] == 1
    assert summary["regions.permutation_inequalities.rows"] == 6
    inner = next(s for s in tracer.spans if s[3] == "exactgeom.remove_redundant")
    assert tracer.spans[inner[2]][3] == "regions.outer_bound_region"


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "geometry", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
