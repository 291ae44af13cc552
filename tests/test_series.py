import argparse
import itertools
import random
import re

import pytest

import quotbox.series
from conftest import load_count_table
from quotbox.cli import _count_box
from quotbox.partitions import (
    MonomialIdeal, PlanePartition, box_partition_polynomial_dp, count_box_partitions,
    enumerate_box_monomial_ideals, enumerate_plane_partitions,
)
from quotbox.quotfixed import Coprofile, quot_series
from quotbox.reflexive import ReflexiveParams, fiber, mult_matrix
from quotbox.series import (
    TruncatedSeries,
    box_product,
    macmahon,
    quot_closed_form,
)
from quotbox.verify import verify_hilb_counts, verify_stanley


def rand_series(rng, order=6, span=9):
    return TruncatedSeries(
        order, tuple(rng.randint(-span, span) for _ in range(order + 1))
    )


def schoolbook(a, b):
    """The first len(a) coefficients of a * b by the double loop over
    coefficient pairs: the reference for the packed product."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j in range(n - i):
            out[i + j] += x * b[j]
    return tuple(out)


def box_passes(v, order):
    """The coefficients of box_product(v, order) by in-place passes over
    one list, factor by factor of the telescoped product: the reference
    for the packed int."""
    v1, v2, v3 = v
    a = [1] + [0] * order
    hooks = [i + j - 1 for i in range(1, v1 + 1) for j in range(1, v2 + 1)]
    for e in [h + v3 for h in hooks]:
        for n in range(order, e - 1, -1):  # descending: a[n - e] is still old
            a[n] -= a[n - e]
    for e in hooks:
        for n in range(e, order + 1):  # ascending: a[n - e] is already divided
            a[n] += a[n - e]
    return tuple(a)


def sigma2_macmahon(order):
    """M_0 .. M_order from n * M_n = sum_k sigma_2(k) * M_(n-k), a route
    that shares nothing with the packed product."""
    sigma2 = [sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(order + 1)]
    want = [1]
    for n in range(1, order + 1):
        want.append(sum(sigma2[k] * want[n - k] for k in range(1, n + 1)) // n)
    return want


def check_products(series):
    """series' * against the schoolbook loop at orders 0 .. 30: random
    signed coefficients up to 2^200, the zero series, one and monomials."""
    rng = random.Random(33)
    S = series.TruncatedSeries
    for order in range(31):
        sides = [S.zero(order), S.one(order)] + [
            S.monomial(order, rng.randint(0, order), rng.choice((-1, 1)) << bits)
            for bits in (0, 200)
        ] + [
            S(order, tuple(rng.randint(-1 << bits, 1 << bits) for _ in range(order + 1)))
            for bits in (1, 64, 200)
        ]
        for a, b in itertools.product(sides, repeat=2):
            assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs), (a, b)


def check_box_product(series):
    """series.box_product against the list passes on every v in {1..5}^3
    at orders 0, 3, the degree and the degree + 10."""
    for v in itertools.product(range(1, 6), repeat=3):
        degree = v[0] * v[1] * v[2]
        for order in (0, 3, degree, degree + 10):
            assert series.box_product(v, order).coeffs == box_passes(v, order), (v, order)


def check_macmahon(series):
    """series.macmahon against the sigma_2 recurrence through order 200,
    at every order up to 12 and at 200, and below the packing bound
    M_n < 2^(n+1)."""
    want = sigma2_macmahon(200)
    for order in [*range(1, 13), 200]:
        assert list(series.macmahon(order).coeffs) == want[: order + 1], order
    assert all(c < 2 ** (n + 1) for n, c in enumerate(want))
    assert series.macmahon(0).coeffs == (1,)


def test_constructor_validates():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (1, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())
    with pytest.raises(ValueError):
        TruncatedSeries(1, (1.5, 2))
    # bools and floats are not ints: nothing is truncated or kept as a bool
    with pytest.raises(ValueError):
        TruncatedSeries(1, (True, 1))
    with pytest.raises(ValueError):
        TruncatedSeries(True, (1, 1))
    with pytest.raises(ValueError):
        TruncatedSeries(1.0, (1, 1))
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([1.5, True])
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([1, 2], order=2.5)
    with pytest.raises(ValueError, match="more coefficients"):
        TruncatedSeries.from_coeffs([1, 2, 3], order=1)
    assert TruncatedSeries.from_coeffs([1, 2], order=3).coeffs == (1, 2, 0, 0)
    # a coefficient list is kept as a tuple, so the series can be hashed
    listed = TruncatedSeries(1, [1, 2])
    assert listed.coeffs == (1, 2)
    assert hash(listed) == hash(TruncatedSeries(1, (1, 2)))


def test_basic_arithmetic():
    a = TruncatedSeries.from_coeffs([1, 1], order=3)
    b = TruncatedSeries.from_coeffs([1, -1], order=3)
    assert (a + b).coeffs == (2, 0, 0, 0)
    assert (a - b).coeffs == (0, 2, 0, 0)
    assert (-b).coeffs == (-1, 1, 0, 0)
    assert (a * b).coeffs == (1, 0, -1, 0)
    assert (3 * a).coeffs == (3, 3, 0, 0)


def test_mul_truncates():
    a = TruncatedSeries.from_coeffs([1, 1], order=1)
    assert (a * a).coeffs == (1, 2)


def test_order_mismatch_raises():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert (a + b.truncate(3)).coeffs == (2, 0, 0, 0)
    with pytest.raises(ValueError, match="cannot extend"):
        a.truncate(4)
    # an int is a scalar factor, never a constant series to add
    with pytest.raises(TypeError):
        a + 1
    # a bool is no int scalar, as it is no coefficient, exponent or order;
    # a float is none either
    for scalar in (True, False, 2.0):
        with pytest.raises(TypeError):
            a * scalar
        with pytest.raises(TypeError):
            scalar * a


def test_monomial_beyond_order_vanishes():
    assert TruncatedSeries.monomial(3, 7).coeffs == (0, 0, 0, 0)
    assert TruncatedSeries.monomial(3, 2, coeff=5).coeffs == (0, 0, 5, 0)
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(3, -1)
    for coeff in (2.9, True):
        with pytest.raises(ValueError):
            TruncatedSeries.monomial(3, 1, coeff)
    # the exponent is an int too: a bool is not read as 1
    for exponent in (True, False, 2.5, 2.0):
        with pytest.raises(ValueError):
            TruncatedSeries.monomial(3, exponent)


def test_getitem_bounds():
    a = TruncatedSeries.from_coeffs([4, 5, 6])
    assert a[0] == 4 and a[2] == 6
    with pytest.raises(IndexError):
        a[3]
    with pytest.raises(IndexError):
        a[-1]
    # only an int indexes: a bool is not the q^1 coefficient, a float no index
    for bad in (True, False, 1.0):
        with pytest.raises(TypeError):
            a[bad]


def test_inverse_geometric():
    g = TruncatedSeries.one(5) - TruncatedSeries.monomial(5, 1)
    assert g.inverse().coeffs == (1, 1, 1, 1, 1, 1)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([2, 1], order=3).inverse()


def test_inverse_random_round_trip():
    rng = random.Random(11)
    one = TruncatedSeries.one(6)
    for _ in range(50):
        coeffs = (rng.choice([1, -1]),) + tuple(
            rng.randint(-9, 9) for _ in range(6)
        )
        a = TruncatedSeries(6, coeffs)
        assert a * a.inverse() == one


def test_pow():
    a = TruncatedSeries.from_coeffs([1, 1], order=4)
    assert (a ** 4).coeffs == (1, 4, 6, 4, 1)
    assert (a ** 0) == TruncatedSeries.one(4)
    g = TruncatedSeries.one(4) - TruncatedSeries.monomial(4, 1)
    assert (g ** -2).coeffs == (1, 2, 3, 4, 5)
    for exponent in (True, False, 2.5, -1.0):
        with pytest.raises(ValueError):
            a ** exponent


def test_degree_and_palindromic():
    assert TruncatedSeries.zero(4).degree() == -1
    assert TruncatedSeries.from_coeffs([1, 2, 1], order=5).degree() == 2
    assert TruncatedSeries.from_coeffs([1, 2, 1], order=5).is_palindromic()
    assert not TruncatedSeries.from_coeffs([1, 2, 3], order=5).is_palindromic()
    assert TruncatedSeries.zero(4).is_palindromic()


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == TruncatedSeries.zero(a.order)
        assert a * TruncatedSeries.one(a.order) == a


def test_macmahon_frozen():
    # reference values from exhaustive plane partition enumeration
    assert list(macmahon(8).coeffs) == [1, 1, 3, 6, 13, 24, 48, 86, 160]


def test_macmahon_matches_enumeration():
    m = macmahon(6)
    for n in range(7):
        assert m[n] == len(enumerate_plane_partitions(n))


def one_minus_q_pow(order, e):
    return TruncatedSeries.one(order) - TruncatedSeries.monomial(order, e)


def test_macmahon_matches_inverse_power_product():
    order = 40
    product = TruncatedSeries.one(order)
    for k in range(1, order + 1):
        product = product * one_minus_q_pow(order, k).inverse() ** k
    m = macmahon(order)
    assert m == product
    golden = load_count_table("plane_partition_counts.txt")
    assert [m[n] for n in range(13)] == [golden[n] for n in range(13)]


def test_macmahon_matches_sigma2_recurrence():
    # M_n < 2^(n+1) is the bound the packing width order + 1 rests on
    check_macmahon(quotbox.series)


@pytest.mark.deep
def test_macmahon_matches_sigma2_recurrence_deep():
    want = sigma2_macmahon(1000)
    assert list(macmahon(1000).coeffs) == want
    assert all(c < 2 ** (n + 1) for n, c in enumerate(want))


def test_product_matches_schoolbook():
    check_products(quotbox.series)


def test_box_product_matches_list_passes():
    check_box_product(quotbox.series)


def test_box_product_matches_quotient_of_products():
    for v in itertools.product(range(1, 5), repeat=3):
        v1, v2, v3 = v
        degree = v1 * v2 * v3
        for order in (0, 3, degree, degree + 10):
            num = TruncatedSeries.one(order)
            den = TruncatedSeries.one(order)
            for i in range(1, v1 + 1):
                for j in range(1, v2 + 1):
                    num = num * one_minus_q_pow(order, i + j + v3 - 1)
                    den = den * one_minus_q_pow(order, i + j - 1)
            assert box_product(v, order) == num * den.inverse()


def test_box_product_small():
    assert list(box_product((1, 1, 1)).coeffs) == [1, 1]
    assert list(box_product((2, 1, 1)).coeffs) == [1, 1, 1]
    assert list(box_product((2, 2, 1)).coeffs) == [1, 1, 2, 1, 1]
    assert list(box_product((2, 2, 2)).coeffs) == [1, 1, 3, 3, 4, 3, 3, 1, 1]


def test_box_product_order_override():
    full = box_product((2, 2, 2))
    cut = box_product((2, 2, 2), order=3)
    assert cut == full.truncate(3)
    long = box_product((1, 1, 1), order=5)
    assert long.coeffs == (1, 1, 0, 0, 0, 0)


def test_box_product_rejects_bad_sides():
    with pytest.raises(ValueError):
        box_product((0, 1, 1))
    with pytest.raises(ValueError):
        box_product((1, -2, 1))
    with pytest.raises(ValueError):
        box_product((1.5, 2, 2))
    with pytest.raises(ValueError):
        box_product((True, 2, 2))
    # the order, where given, is an int >= 0 and not a bool
    for bad in (2.5, 2.0, "2", None, True, False, -1):
        with pytest.raises(ValueError):
            macmahon(bad)
        with pytest.raises(ValueError):
            quot_closed_form((1, 1, 1), bad)
        if bad is not None:
            with pytest.raises(ValueError):
                box_product((1, 1, 1), bad)


def test_box_product_symmetry():
    for v in [(1, 2, 3), (2, 2, 1), (1, 1, 4)]:
        base = box_product(sorted(v))
        for perm in itertools.permutations(v):
            assert box_product(perm) == base


def test_box_product_shape():
    for v in [(1, 1, 1), (2, 1, 2), (3, 2, 1), (2, 2, 2)]:
        bp = box_product(v)
        vol = v[0] * v[1] * v[2]
        assert bp.degree() == vol
        assert bp[0] == 1
        assert bp.is_palindromic()


@pytest.mark.deep
def test_quot_closed_form_matches_reference_products_deep():
    order = 400
    m = tuple(sigma2_macmahon(order))
    want = schoolbook(schoolbook(m, m), box_passes((5, 5, 5), order))
    assert quot_closed_form((5, 5, 5), order).coeffs == want


def test_quot_closed_form_frozen():
    assert list(quot_closed_form((1, 1, 1), 4).coeffs) == [1, 3, 9, 25, 65]
    assert list(quot_closed_form((2, 2, 2), 3).coeffs) == [1, 3, 12, 34]
    assert list(quot_closed_form((1, 2, 3), 3).coeffs) == [1, 3, 11, 31]


def test_str_rendering():
    a = TruncatedSeries.from_coeffs([1, 2, 0, -1])
    assert str(a) == "1 + 2*q + -1*q^3 + O(q^4)"
    assert str(TruncatedSeries.zero(2)) == "0 + O(q^3)"


# a bool, a float, a two-item triple and a value below the bound, for
# triples of ints >= 1, triples of ints >= 0 and ints >= 0 or >= 1
SIDES = [(True, 1, 1), (1.0, 1, 1), (1, 1), (0, 1, 1)]
CORNERS = [(0, True, 0), (0, 1.0, 0), (0, 0), (0, -1, 0)]
NATURALS = [True, 1.0, -1]
POSITIVES = [True, 1.0, 0]

# entry point: (its call on one bad input x, the bad inputs, the name of
# the input that its ValueError gives)
BAD_INPUTS = {
    "box_product": (box_product, SIDES, "box sides"),
    "count_box_partitions": (count_box_partitions, SIDES, "box sides"),
    "box_partition_polynomial_dp": (box_partition_polynomial_dp, SIDES, "box sides"),
    "enumerate_box_monomial_ideals": (enumerate_box_monomial_ideals, SIDES, "box sides"),
    "verify_stanley": (verify_stanley, SIDES, "box sides"),
    "verify_hilb_counts": (verify_hilb_counts, SIDES, "box sides"),
    "ReflexiveParams.of": (ReflexiveParams.of, SIDES, "v"),
    "quot_series v": (lambda x: quot_series(x, 2), SIDES, "v"),
    "quot_series order": (lambda x: quot_series((1, 1, 1), x), NATURALS, "order"),
    "fiber v": (lambda x: fiber(x, (0, 0, 0)), SIDES, "v"),
    "mult_matrix k": (lambda x: mult_matrix((1, 1, 1), (0, 0, 0), x), [True, 1.0, 0, 4],
                      "direction k"),
    "Coprofile weight": (lambda x: Coprofile(((x, 1),)), CORNERS, "weights"),
    "Coprofile drop": (lambda x: Coprofile((((0, 1, 1), x),)), POSITIVES, "dimension drops"),
    "MonomialIdeal generator": (lambda x: MonomialIdeal((x,)), CORNERS, "exponents"),
    "MonomialIdeal box": (lambda x: MonomialIdeal((), box=x), SIDES, "box sides"),
    "PlanePartition": (lambda x: PlanePartition(((x,),)), POSITIVES, "heights"),
    "PlanePartition.from_boxes": (lambda x: PlanePartition.from_boxes({x}), CORNERS,
                                  "box coordinates"),
    "TruncatedSeries.monomial": (lambda x: TruncatedSeries.monomial(3, x), NATURALS,
                                 "exponent"),
    "MonomialIdeal.contains": (lambda x: MonomialIdeal(((1, 0, 0),)).contains(x), CORNERS,
                               "exponents"),
    "TruncatedSeries.zero": (TruncatedSeries.zero, NATURALS, "order"),
    "TruncatedSeries.one": (TruncatedSeries.one, NATURALS, "order"),
    "TruncatedSeries.truncate": (lambda x: TruncatedSeries.one(3).truncate(x), NATURALS,
                                 "order"),
    "macmahon": (macmahon, NATURALS, "order"),
    "guard": (lambda x: enumerate_plane_partitions(1, guard=x), NATURALS, "guard"),
    # the handler of quotbox count box, whose ValueError is its exit 2
    # (test_cli_bad_values_are_usage_errors); argparse makes --n an int
    "count box --n": (lambda x: _count_box(argparse.Namespace(v=[1, 1, 1], n=x)), [-1], "n"),
}


def check_validators(series):
    """series' box_product, macmahon and TruncatedSeries.monomial each
    reject the bad inputs of the table above with a ValueError that names
    the input."""
    for call, bad, what in [
        (series.box_product, SIDES, "box sides"),
        (series.macmahon, NATURALS, "order"),
        (lambda x: series.TruncatedSeries.monomial(3, x), NATURALS, "exponent"),
    ]:
        for x in bad:
            try:
                call(x)
            except ValueError as exc:
                assert str(exc).startswith(f"{what} must be "), exc
            else:
                raise AssertionError(f"{what} {x!r} accepted")


@pytest.mark.parametrize(
    "label, x", [(label, x) for label, (_, bad, _) in BAD_INPUTS.items() for x in bad],
    ids=str,
)
def test_bad_input_error_names_the_input(label, x):
    call, _, what = BAD_INPUTS[label]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be "):
        call(x)
