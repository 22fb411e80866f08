"""The names the benchmark's tracer wraps exist in the package.

perfbench/spans.py replaces each (module, attribute) of its TARGETS table
with a timing wrapper; a name missing from the package makes every traced
benchmark run fail. spans.py imports only the standard library, so it is
loaded here from its file."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"badsieve.{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not hasattr(importlib.import_module(f"badsieve.{module}"), attr)
    ]
    assert not missing
