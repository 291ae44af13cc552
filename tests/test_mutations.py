"""Mutants of the strata walk, and the check that rejects each one.

Each mutant replaces one snippet of ``quotbox/quotfixed.py`` (the snippet
must occur exactly once) and runs as a fresh module, registered in
``sys.modules`` only while it runs.  For the mutants of the layer
transfer the check is the ``product`` claim, ``verify_product_formula``:
the engine series against the closed form.  It must pass on the mutant
at order - 1 and fail at the listed order, with the first mismatch at
the listed coefficient, and without an exception.  That coefficient can
be order - 1: a node with one unit of drop left files no state, so the
walk to order m can miss a fault in the states that the walk to order
m + 1 shows at coefficient m.  A few mutants raise at the listed order
instead, and must still pass at order - 1.  The deep mutants fail only
past tier-1's orders, so their test runs in the deep tier
(``pytest -m deep``).  The mutants of the packed kernels and validators of
``quotbox/series.py`` run the same way, each against the check of
``tests/test_series.py`` that rejects it, and so does the mutant of the
membership rule of ``quotbox/partitions.py``, against the box-ideal check
of ``tests/test_partitions.py``.  The image-line mutant
patches the module interface, ``ReflexiveParams.image_line``, instead
of the source.
The mutants of the listing walk (the walk with a visitor) leave the
series alone, so the ``product`` claim passes on them; the check that
rejects each is ``test_listing_rejects_walk_mutant``, the summary at
(1, 1, 1), n = 5 against the reference listing.  The mutants of the
walk's line rule change both walks, so each is rejected by the claim and
again by the reference listing, whose rule shares no code with the walk.
The check runs the other way too: a mutant of the reference's rule makes
the reference listing differ from the walk's, first at the listed n.
"""

import contextlib
import functools
import importlib.util
import sys

import pytest

import quotbox.partitions
import quotbox.quotfixed
import quotbox.series
import quotbox.verify
from quotbox.reflexive import ReflexiveParams
from quotbox.verify import verify_product_formula
from test_partitions import check_box_ideals
from test_series import check_box_product, check_macmahon, check_products, check_validators

with open(quotbox.quotfixed.__file__) as fh:
    SOURCE = fh.read()
with open(quotbox.series.__file__) as fh:
    SERIES_SOURCE = fh.read()
with open(quotbox.partitions.__file__) as fh:
    PARTITIONS_SOURCE = fh.read()

KEY = "key = (held_a, full_a, tuple(labels), tuple(lines))"
EDGE = "state[0] += series << (top - left) * width + free - open_free"
RELABEL = "return {y: tag if t in joined else t for y, t in comp.items() if y >= lo}"

# label: (snippet, replacement, v, first order at which the claim fails, its
# first mismatch)
MUTANTS = {
    "closing factor dropped": (
        EDGE, "state[0] += series << (top - left) * width", (1, 1, 1), 7, 6,
    ),
    "key without lines": (
        KEY,
        "key = (held_a, full_a, tuple(labels))",
        (2, 1, 1),
        7,
        6,
    ),
    "key with only a forced flag per line": (
        KEY,
        "key = (held_a, full_a, tuple(labels), tuple(l is None for l in lines))",
        (1, 1, 1),
        11,
        11,
    ),
    "key without F | P": (
        KEY,
        "key = (full_a, tuple(labels), tuple(lines))",
        (2, 2, 1),
        11,
        11,
    ),
    "tail added one coefficient late": (
        "enumerate(tail)", "enumerate(tail, 1)", (1, 1, 1), 3, 2,
    ),
    "edge added one coefficient late": (
        "(top - left) * width", "(top - left + 1) * width", (1, 1, 1), 3, 2,
    ),
    "a state searched from its largest drop": (
        "((series & -series).bit_length() - 1) // width",
        "(series.bit_length() - 1) // width",
        (1, 1, 1),
        4,
        4,
    ),
    "packed fields too narrow": (
        "width = 5 * order + 5", "width = (order + 1).bit_length()", (1, 1, 1), 3, 3,
    ),
    "packing base one low": (
        "max(c) + max(order, 1) for c",
        "max(c) + max(order, 1) - 1 for c",
        (1, 1, 1),
        1,
        1,
    ),
    "packing base one low from order 2 on": (
        "max(c) + max(order, 1) for c",
        "max(c) + max(order - 1, 1) for c",
        (1, 1, 1),
        2,
        2,
    ),
    "packing base one low in w1 only": (
        "return n1, n2, n3", "return n1 - 1, n2, n3", (1, 1, 1), 1, 1,
    ),
    "packing base one low in w2 only": (
        "return n1, n2, n3", "return n1, n2 - 1, n3", (1, 1, 1), 1, 1,
    ),
    "packing base one low in w3 only": (
        "return n1, n2, n3", "return n1, n2, n3 - 1", (1, 1, 1), 1, 1,
    ),
    "wrap bits not cleared in bad": (
        "bad = bad << layer_size | (bad << n3) & row | (bad << 1) & col",
        "bad = bad << layer_size | bad << n3 | bad << 1",
        (1, 1, 1),
        1,
        1,
    ),
    "last-level popcount not shifted by free": (
        "out[-1] += (full_at & ones).bit_count() << free",
        "out[-1] += (full_at & ones).bit_count()",
        (1, 1, 1),
        5,
        5,
    ),
    "badline reads F, not F | P": (
        "badline = twos & ~held", "badline = twos & ~full", (1, 1, 1), 5, 5,
    ),
    "a forced predecessor ignored": (
        "line, f, cl = forced, free, clash",
        "line, f, cl = None, free, clash",
        (1, 1, 1),
        3,
        3,
    ),
    "a P predecessor not linked": (
        "joined.add(comp[x - step])  # a line variable: linked", "pass", (1, 1, 1), 5, 5,
    ),
    "a second forced line not compared": (
        "break  # a second, different forced line", "pass", (1, 1, 1), 1, 1,
    ),
    "a joined forced line not carried": ("line = joined_line", "pass", (1, 1, 1), 6, 6),
    "an unforced joined component not subtracted": (
        "f -= 1  # an unforced component joins x's", "pass", (1, 1, 1), 6, 6,
    ),
    "a component forced two ways not flagged": (
        "cl = True  # forced to two different lines", "pass", (1, 1, 1), 5, 5,
    ),
    "a child relabels its parent's tags in place": (
        RELABEL,
        "comp.update({y: tag for y, t in comp.items() if t in joined}); return comp",
        (1, 1, 1),
        6,
        6,
    ),
}

# label: (snippet, replacement, v, order, exception) of the mutants that
# pass the claim at order - 1 and raise at order instead of failing it
RAISING_MUTANTS = {
    # a joined component keeps its old tags, so a later line linked to two
    # of them subtracts it once per tag, down to a negative shift
    "joined tags not relabelled": (RELABEL, RELABEL.replace("tag if t in joined else t", "t"),
                                   (1, 1, 1), 8, ValueError),
    "frontier trimmed one layer too high": (
        "lo = (x // layer_size - 1) * layer_size",
        "lo = x // layer_size * layer_size",
        (1, 1, 1),
        8,
        KeyError,
    ),
    # a later layer's table is searched first and dropped, and an earlier
    # state files into it
    "layers processed in reverse": (
        "for a in range(n1):", "for a in reversed(range(n1)):", (1, 1, 1), 4, AttributeError,
    ),
}

# the mutants of the walk's line rule, and those of its components that
# change a stratum of colength 5, which the reference listing must also
# reject: its systems come from the containment rule written out in
# profile_constraint_system, not from the walk
RULE_MUTANTS = (
    "a forced predecessor ignored",
    "a P predecessor not linked",
    "a second forced line not compared",
    "a component forced two ways not flagged",
    "a child relabels its parent's tags in place",
)

# the listing walk's node: every child walked in place, no state filed
LISTING = "if visit or not held:  # no states in the listing, no layer to split at the root"

# label: (snippet, replacement) of the branches only a visitor takes
WALK_MUTANTS = {
    "visiting prunes clash pairs": ("if not cl or visit:", "if not cl:"),
    "visiting files states": (LISTING, "if not held:"),
    "a visited leaf reports its parent's chi": (
        "node(left - 1, full, held | low, f, cl, c, out)",
        "node(left - 1, full, held | low, *((f, cl) if left > 1 else (free, clash)), c, out)",
    ),
    "visit reads every full drop as a double": (
        "visit(held, full & d2, order - left, chi)", "visit(held, full, order - left, chi)",
    ),
}


# label: (snippet, replacement, first n at which the reference listing at
# (1, 1, 1) differs from the walk's) of the reference's containment rule,
# so that the walk can reject a faulty reference too
REFERENCE_MUTANTS = {
    "a forced line not recorded": ("fixed.setdefault(w, image)", "fixed.get(w, image)", 2),
    "a second forced line not compared": (
        "infeasible = True  # a second, different forced line", "pass", 2,
    ),
    "a full 1-dimensional source into a line read as no condition": (
        "(image,) = fiber(params, ws)", "continue", 2,
    ),
    "a link source dropped": ("links.append((ws, w))", "pass", 5),
}


# label: (snippet of series.py, replacement, the check that rejects it, the
# error it fails with); each check is the body of a tier-1 test of
# tests/test_series.py: check_products of test_product_matches_schoolbook,
# check_box_product of test_box_product_matches_list_passes,
# check_macmahon of test_macmahon_matches_sigma2_recurrence and
# check_validators of a few rows of test_bad_input_error_names_the_input
SERIES_MUTANTS = {
    # width 0 for the zero series, a negative shift; one * one reads -1
    "no sign bit in the product width": (
        "max(map(abs, b))).bit_length() + 1", "max(map(abs, b))).bit_length()",
        check_products, ValueError,
    ),
    "product decoded without the 2^(w-1) offset": (
        "half, field, kept = 1 << width - 1,", "half, field, kept = 0,", check_products,
        AssertionError,
    ),
    "doubling stops below the order": (
        "range((order // e).bit_length())", "range(((order - 1) // e).bit_length())",
        check_box_product, AssertionError,
    ),
    # a * b read as a * a: one times the zero series reads one
    "a product squared whenever the lengths match": (
        "b is a", "len(b) == len(a)", check_products, AssertionError,
    ),
    # from order 3 on, where k = 1 doubles, 1/(1 - q) loses its last step
    "macmahon's doubling passes one step short": (
        "for t in range(steps):", "for t in range(steps - 1):", check_macmahon,
        AssertionError,
    ),
    # M_n < 2^n at every order from 1 to 1000, so width order is only
    # wrong at order 0, where it is 0 and the decode's step 0 raises; width
    # order - 1 raises at orders 0 and 1 and reads M_n wrong at 2 .. 9,
    # where M_n >= 2^(n-1)
    "macmahon width order": (
        'width = _int(order, "order", 0) + 1', 'width = _int(order, "order", 0)',
        check_macmahon, ValueError,
    ),
    "macmahon width order - 1": (
        'width = _int(order, "order", 0) + 1', 'width = _int(order, "order", 0) - 1',
        check_macmahon, ValueError,
    ),
    "a bool passes as a triple entry": (
        "type(a) is not int", "not isinstance(a, int)", check_validators, AssertionError,
    ),
    "triples unbounded below": (
        "low is not None and (a < low or b < low or c < low)", "False", check_validators,
        AssertionError,
    ),
}


# label: (snippet of partitions.py, replacement, the check that rejects it,
# the error it fails with), as in SERIES_MUTANTS; check_box_ideals is the
# body of test_partitions.py's test_box_ideal_colengths_match_box_counts
PARTITIONS_MUTANTS = {
    # a generator is then outside its own ideal
    "membership strict in x1": ("a >= g1", "a > g1", check_box_ideals, AssertionError),
}


@contextlib.contextmanager
def mutant(snippet, replacement, source=SOURCE, name="quotbox._mutant_quotfixed"):
    assert source.count(snippet) == 1, snippet
    spec = importlib.util.spec_from_loader(name, None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "quotbox"  # so its relative imports resolve
    sys.modules[name] = module
    try:
        code = compile(source.replace(snippet, replacement), name, "exec")
        exec(code, module.__dict__)
        yield module
    finally:
        del sys.modules[name]


def listing(module, v, n):
    return [(r.coprofile.entries, r.euler) for r in module.fixed_locus_summary(v, n).strata]


def reference(module, v, n):
    """(entries, chi) of every coprofile of colength n whose reference
    system in module is not infeasible, in lex order of the entries."""
    systems = ((p, module.profile_constraint_system(v, p))
               for p in module.enumerate_coprofiles(v, n))
    return [(p.entries, module.stratum_euler(cs)) for p, cs in systems if not cs.infeasible]


@functools.cache  # the listing is only compared, never changed
def reference_listing(v, n):
    return reference(quotbox.quotfixed, v, n)


@pytest.mark.parametrize("label", MUTANTS)
def test_product_claim_rejects_mutant(label, monkeypatch):
    snippet, replacement, v, order, mismatch = MUTANTS[label]
    with mutant(snippet, replacement) as module:
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        before = verify_product_formula(v, order - 1, guard=order)
        report = verify_product_formula(v, order, guard=order)
    assert before.ok
    assert report.status == "fail" and report.first_mismatch == mismatch
    assert "quotbox._mutant_quotfixed" not in sys.modules


@pytest.mark.parametrize("label", RAISING_MUTANTS)
def test_product_claim_raises_on_mutant(label, monkeypatch):
    snippet, replacement, v, order, exception = RAISING_MUTANTS[label]
    with mutant(snippet, replacement) as module:
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        assert verify_product_formula(v, order - 1, guard=order).ok
        with pytest.raises(exception):
            verify_product_formula(v, order, guard=order)
    assert "quotbox._mutant_quotfixed" not in sys.modules


# label: (snippet, replacement, v, order, mismatch) of the mutants whose
# claim first fails past tier-1's orders, as in MUTANTS
DEEP_MUTANTS = {
    "key without full >> start": (
        KEY,
        "key = (held_a, tuple(labels), tuple(lines))",
        (1, 1, 1),
        19,
        19,
    ),
}


@pytest.mark.deep
@pytest.mark.parametrize("label", DEEP_MUTANTS)
def test_product_claim_rejects_deep_mutant(label, monkeypatch):
    snippet, replacement, v, order, mismatch = DEEP_MUTANTS[label]
    assert verify_product_formula(v, order, guard=order).ok  # the source itself
    with mutant(snippet, replacement) as module:
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        before = verify_product_formula(v, order - 1, guard=order)
        report = verify_product_formula(v, order, guard=order)
    assert before.ok
    assert report.status == "fail" and report.first_mismatch == mismatch


def test_unmutated_source_passes_the_claim(monkeypatch):
    # the harness itself changes nothing: the source run as a fresh module
    # passes at every listed point
    with mutant(KEY, KEY) as module:
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        for _, _, v, order, _ in [*MUTANTS.values(), *RAISING_MUTANTS.values()]:
            assert verify_product_formula(v, order, guard=order).ok
        reference = reference_listing((1, 1, 1), 5)
        assert listing(module, (1, 1, 1), 5) == reference
    assert (len(reference), [chi for _, chi in reference].count(0)) == (157, 6)


@pytest.mark.parametrize("v, order", [((1, 1, 1), 2), ((3, 2, 1), 2), ((2, 2, 2), 3)])
def test_product_claim_rejects_shared_image_line(v, order, monkeypatch):
    # x_1 and x_2 carry their 1-dimensional fibers onto one line.  A
    # permutation of the three lines would pass at every order: PGL2 acts
    # 3-transitively on P^1, so the Euler characteristic depends only on
    # which lines coincide, and only test_image_line_matches_mult_matrix,
    # which reads them off R0's presentation, pins the lines themselves.
    lines = {1: (1, 1), 2: (1, 1), 3: (1, 0)}
    monkeypatch.setattr(ReflexiveParams, "image_line", staticmethod(lines.__getitem__))
    assert verify_product_formula(v, order - 1).ok
    report = verify_product_formula(v, order)
    assert report.status == "fail" and report.first_mismatch == order


@pytest.mark.parametrize("label", WALK_MUTANTS)
def test_listing_rejects_walk_mutant(label, monkeypatch):
    with mutant(*WALK_MUTANTS[label]) as module:
        got = listing(module, (1, 1, 1), 5)
        monkeypatch.setattr(quotbox.verify, "quot_series", module.quot_series)
        assert verify_product_formula((1, 1, 1), 5).ok
    assert got != reference_listing((1, 1, 1), 5)


@pytest.mark.parametrize("label", RULE_MUTANTS)
def test_listing_rejects_rule_mutant(label):
    snippet, replacement = MUTANTS[label][:2]
    with mutant(snippet, replacement) as module:
        got = listing(module, (1, 1, 1), 5)
    assert got != reference_listing((1, 1, 1), 5)


@pytest.mark.parametrize("label", REFERENCE_MUTANTS)
def test_walk_rejects_reference_mutant(label):
    snippet, replacement, n = REFERENCE_MUTANTS[label]
    with mutant(snippet, replacement) as module:
        got = [reference(module, (1, 1, 1), m) for m in (n - 1, n)]
    walk = [listing(quotbox.quotfixed, (1, 1, 1), m) for m in (n - 1, n)]
    assert got[0] == walk[0] and got[1] != walk[1]


@pytest.mark.parametrize("label", SERIES_MUTANTS)
def test_series_check_rejects_mutant(label):
    snippet, replacement, check, error = SERIES_MUTANTS[label]
    with mutant(snippet, replacement, SERIES_SOURCE, "quotbox._mutant_series") as module:
        with pytest.raises(error):
            check(module)
    assert "quotbox._mutant_series" not in sys.modules


def test_unmutated_series_passes_the_checks():
    # the harness itself changes nothing: series.py run as a fresh module
    # passes every check
    width = 'width = _int(order, "order", 0) + 1'
    with mutant(width, width, SERIES_SOURCE, "quotbox._mutant_series") as module:
        for check in (check_products, check_box_product, check_macmahon, check_validators):
            check(module)


@pytest.mark.parametrize("label", PARTITIONS_MUTANTS)
def test_partitions_check_rejects_mutant(label):
    snippet, replacement, check, error = PARTITIONS_MUTANTS[label]
    with mutant(snippet, replacement, PARTITIONS_SOURCE, "quotbox._mutant_partitions") as module:
        with pytest.raises(error):
            check(module)
    assert "quotbox._mutant_partitions" not in sys.modules


def test_unmutated_partitions_passes_the_check():
    # partitions.py run as a fresh module passes check_box_ideals
    snippet = "a >= g1"
    with mutant(snippet, snippet, PARTITIONS_SOURCE, "quotbox._mutant_partitions") as module:
        check_box_ideals(module)
