import itertools
import json
import random

import pytest

from conftest import load_count_table
from quotbox.series import (
    TruncatedSeries,
    box_product,
    macmahon,
    quot_closed_form,
)
from quotbox.partitions import enumerate_plane_partitions


def rand_series(rng, order=6, span=9):
    return TruncatedSeries(
        order, tuple(rng.randint(-span, span) for _ in range(order + 1))
    )


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
    # n * M_n = sum_k sigma_2(k) * M_(n-k), a route that shares nothing with
    # the packed product; M_n <= 3^n is the bound the packing width rests on
    order = 200
    sigma2 = [sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(order + 1)]
    want = [1]
    for n in range(1, order + 1):
        want.append(sum(sigma2[k] * want[n - k] for k in range(1, n + 1)) // n)
    m = macmahon(order)
    assert list(m.coeffs) == want
    assert all(c <= 3 ** n for n, c in enumerate(m.coeffs))
    assert macmahon(0).coeffs == (1,) and macmahon(1).coeffs == (1, 1)


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


def test_quot_closed_form_frozen():
    assert list(quot_closed_form((1, 1, 1), 4).coeffs) == [1, 3, 9, 25, 65]
    assert list(quot_closed_form((2, 2, 2), 3).coeffs) == [1, 3, 12, 34]
    assert list(quot_closed_form((1, 2, 3), 3).coeffs) == [1, 3, 11, 31]


def test_json_round_trip():
    a = TruncatedSeries.from_coeffs([1, -3, 0, 12], order=5)
    data = json.loads(a.to_json())
    assert data == {"order": 5, "coeffs": ["1", "-3", "0", "12", "0", "0"]}
    assert TruncatedSeries.from_json(a.to_json()) == a
    mixed = TruncatedSeries.from_json('{"order": 1, "coeffs": [1, "-2"]}')
    assert mixed.coeffs == (1, -2)
    # only what to_json writes: floats, bools and other strings are not truncated
    for bad in (
        '{"order": 2.9, "coeffs": ["1", 2.7, true]}',
        '{"order": 2, "coeffs": ["1", 2.7, "1"]}',
        '{"order": 2, "coeffs": ["1", true, "1"]}',
        '{"order": true, "coeffs": ["1", "1"]}',
        '{"order": 2, "coeffs": ["1", "2.0", "1"]}',
        '{"order": 2, "coeffs": ["1", " 2", "+1"]}',
        '{"order": 1, "coeffs": "12"}',
        # not an object, or a key missing
        '[1]',
        '{"coeffs": ["1"]}',
        '{"order": 0}',
        '"1"',
    ):
        with pytest.raises(ValueError):
            TruncatedSeries.from_json(bad)


def test_str_rendering():
    a = TruncatedSeries.from_coeffs([1, 2, 0, -1])
    assert str(a) == "1 + 2*q + -1*q^3 + O(q^4)"
    assert str(TruncatedSeries.zero(2)) == "0 + O(q^3)"
