"""The names the benchmark's traced run wraps must exist in quotbox.

``perfbench/spans.py`` replaces each ``(namespace, attribute)`` of its
``TARGETS`` during a traced run and reports a missing one as absent.
This test reads that table without importing ``perfbench`` as a package,
so a rename under ``src`` that would leave a traced name absent, or a
re-import that would leave it stale, fails here at once.
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
    # a name bound outside its home module, the module its span is named
    # for, must be that module's own object: a stale re-import, say of
    # fiber_dim into quotbox.quotfixed, would leave the traced run wrapping
    # a name the code no longer calls
    targets = load_spans().TARGETS
    assert targets
    missing, stale = [], []
    for namespace, attr, span in targets:
        bound = getattr(importlib.import_module(namespace), attr, None)
        home = importlib.import_module("quotbox." + span.split(".")[0])
        if not callable(bound):
            missing.append((namespace, attr))
        elif bound is not getattr(home, attr, None):
            stale.append((namespace, attr))
    assert not missing, missing
    assert not stale, stale
