"""The benchmark's tracer still finds every layer boundary it wraps.

``perfbench/spans.py`` traces a run by rebinding named functions and
methods of the program; a target it cannot resolve is only listed in
``Tracer.missing``, so a refactor that renames a traced boundary would
silently zero that layer's metric.  This guard fails instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.start(serve=True)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
