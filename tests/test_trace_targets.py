"""The benchmark's span tracer names functions that must exist in doflab.

``bench/spans.py`` resolves each ``TARGETS`` entry with ``getattr`` when a
traced run installs; a renamed or deleted function would only fail there.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("doflab_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, function, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function, None)), "%s.%s" % (module_name, function)
