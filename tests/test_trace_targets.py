"""The benchmark's span tracer names functions that must exist in doflab.

``bench/spans.py`` resolves each ``TARGETS`` entry with ``getattr`` when a
traced run installs; a renamed or deleted function would only fail there.
Its ``COUNTERS`` read attributes of the traced functions' results, which a
changed return type would break the same way.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from doflab import cli, exactgeom, regions, scheme

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("doflab_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    for module_name, function, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function, None)), "%s.%s" % (module_name, function)


def _counter_samples():
    """One sample call per ``COUNTERS`` entry: (function, args)."""
    spec = scheme.plan_two_user(4, 3, 2)
    transcript = scheme.run_phases(
        spec, scheme.generate_channels(spec, 0), scheme.draw_symbols(spec, 1))
    return {
        "exactgeom.remove_redundant": (exactgeom.remove_redundant, (regions.two_user_region(4, 3, 2),)),
        "exactgeom.vertex_enumerate": (exactgeom.vertex_enumerate, (regions.two_user_region(4, 3, 2),)),
        "regions.permutation_inequalities": (
            regions.permutation_inequalities, (regions.AntennaConfig(3, (2, 1, 1)),)),
        "scheme.decode": (scheme.decode, (transcript,)),
        "scheme.simulate_trials": (scheme.simulate_trials, (4, 3, 2, 3, 0)),
    }


def test_every_counter_reads_its_result():
    # a counter that cannot read its function's result would only fail in a
    # traced benchmark run
    spans = _load_spans()
    samples = _counter_samples()
    assert set(samples) == set(spans.COUNTERS)
    for name, (counter, stats) in spans.COUNTERS.items():
        function, args = samples[name]
        counts = defaultdict(int)
        counter(counts, args, function(*args))
        assert set(counts) == set(stats), name
        assert all(isinstance(v, int) for v in counts.values()), name


def test_traced_decode_counts_match_the_summary():
    # simulate_trials decodes whole blocks of trials through scheme.decode
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        summary = scheme.simulate_trials(8, 4, 4, 100, 3)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["scheme.simulate_trials"]["trials"] == summary.trials == 100
    assert counts["scheme.decode"]["solves"] == summary.solves > 0
    assert counts["scheme.decode"]["ill_conditioned"] == summary.ill_conditioned


def test_tracer_installed_after_a_warm_call_sees_the_command(capsys):
    # main keeps the parser of its first call; the tracer, installed later as
    # after a benchmark's warm-up op, must still see the command it dispatches to
    argv = ["region", "--model", "two-user", "--M", "4", "--N", "3,2"]
    assert cli.main(argv) == 0
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[3] for span in tracer.spans]
    assert names.count("cli.main") == 1
    assert names.count("cli.region") == 1
