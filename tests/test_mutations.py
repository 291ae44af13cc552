"""Mutants of the layer transfer, and the check that rejects each one.

Each mutant replaces one snippet of ``quotbox/quotfixed.py`` (the snippet
must occur exactly once) and runs as a fresh module, registered in
``sys.modules`` only while it runs.  The check is the ``product`` claim,
``verify_product_formula``: the engine series against the closed form.
It must pass on the mutant at order - 1 and fail at the listed order,
with the first mismatch at that coefficient, and without an exception.
The image-line mutant patches the module interface,
``ReflexiveParams.image_line``, instead of the source.
"""

import contextlib
import importlib.util
import sys

import pytest

import quotbox.quotfixed
import quotbox.verify
from quotbox.reflexive import ReflexiveParams
from quotbox.verify import verify_product_formula

with open(quotbox.quotfixed.__file__) as fh:
    SOURCE = fh.read()

KEY = "key = (layer, tuple(labels), tuple(lines), remaining)"

# label: (snippet, replacement, v, first order at which the claim fails)
MUTANTS = {
    "closing factor dropped": ("out[k] += x << closed", "out[k] += x", (1, 1, 1), 6),
    "key without lines": (KEY, "key = (layer, tuple(labels), remaining)", (2, 1, 1), 6),
    "key with only a forced flag per line": (
        KEY,
        "key = (layer, tuple(labels), tuple(l is None for l in lines), remaining)",
        (1, 1, 1),
        11,
    ),
    "packing base one low": (
        "base = max(params) + max(order, 1)",
        "base = max(params) + max(order, 1) - 1",
        (1, 1, 1),
        1,
    ),
}


@contextlib.contextmanager
def mutant(snippet, replacement):
    assert SOURCE.count(snippet) == 1, snippet
    name = "quotbox._mutant_quotfixed"
    spec = importlib.util.spec_from_loader(name, None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "quotbox"  # so its relative imports resolve
    sys.modules[name] = module
    try:
        code = compile(SOURCE.replace(snippet, replacement), name, "exec")
        exec(code, module.__dict__)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("label", MUTANTS)
def test_product_claim_rejects_mutant(label, monkeypatch):
    snippet, replacement, v, order = MUTANTS[label]
    with mutant(snippet, replacement) as module:
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        before = verify_product_formula(v, order - 1, guard=order)
        report = verify_product_formula(v, order, guard=order)
    assert before.ok
    assert report.status == "fail" and report.first_mismatch == order
    assert "quotbox._mutant_quotfixed" not in sys.modules


def test_unmutated_source_passes_the_claim(monkeypatch):
    # the harness itself changes nothing: the source run as a fresh module
    # passes at every listed point
    with mutant(KEY, KEY) as module:
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        for _, _, v, order in MUTANTS.values():
            assert verify_product_formula(v, order, guard=order).ok


@pytest.mark.parametrize("v, order", [((1, 1, 1), 2), ((3, 2, 1), 2), ((2, 2, 2), 3)])
def test_product_claim_rejects_shared_image_line(v, order, monkeypatch):
    # x_1 and x_2 carry their 1-dimensional fibers onto one line.  A
    # permutation of the three lines would pass at every order: PGL2 acts
    # 3-transitively on P^1, so the Euler characteristic depends only on
    # which lines coincide, and only test_image_line_matches_mult_matrix
    # pins the lines themselves.
    lines = {1: (1, 1), 2: (1, 1), 3: (1, 0)}
    monkeypatch.setattr(ReflexiveParams, "image_line", staticmethod(lines.__getitem__))
    assert verify_product_formula(v, order - 1).ok
    report = verify_product_formula(v, order)
    assert report.status == "fail" and report.first_mismatch == order
