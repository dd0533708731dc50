"""The benchmark's tracer wraps program attributes by name; every one it
names must exist, or a traced run would fail or time nothing."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for module, attr, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.PATCHES and missing == []
