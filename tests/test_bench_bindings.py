"""The names the benchmark's traced run wraps must exist in quotbox.

``perfbench/spans.py`` replaces each ``(namespace, attribute)`` of its
``TARGETS`` during a traced run and reports a missing one as absent.
This test reads that table without importing ``perfbench`` as a package,
so a rename under ``src`` that would leave a traced name absent fails
here at once.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        (namespace, attr)
        for namespace, attr, _ in targets
        if not callable(getattr(importlib.import_module(namespace), attr, None))
    ]
    assert not missing, missing
