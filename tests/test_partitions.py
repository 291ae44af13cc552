import collections
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import quotbox.partitions as partitions
from conftest import load_coeff_table, load_count_table
from quotbox.partitions import (
    GuardExceeded,
    MonomialIdeal,
    PlanePartition,
    box_partition_polynomial_dp,
    count_box_partitions,
    count_partition_pairs,
    enumerate_box_monomial_ideals,
    enumerate_plane_partitions,
    monomial_ideal_to_partition,
    partition_to_monomial_ideal,
)
from quotbox.series import box_product, macmahon


GOLDEN_COUNTS = load_count_table("plane_partition_counts.txt")
GOLDEN_BOXES = load_coeff_table("box_polynomials.txt")


def test_counts_match_golden():
    for n in range(11):
        assert len(enumerate_plane_partitions(n)) == GOLDEN_COUNTS[n]


def test_enumeration_guard():
    with pytest.raises(GuardExceeded, match="n = 13, guard is 12"):
        enumerate_plane_partitions(13)
    assert len(enumerate_plane_partitions(13, guard=13)) == 2485
    for bad in (-1, True, False, 2.5):
        with pytest.raises(ValueError):
            enumerate_plane_partitions(bad)
    # a guard must be an int >= 0 as well, checked before any work
    for bad in (-1, 2.5, 12.0, "12", None, True, False):
        with pytest.raises(ValueError, match="guard"):
            enumerate_plane_partitions(1, guard=bad)
        with pytest.raises(ValueError, match="guard"):
            count_partition_pairs(1, guard=bad)


def test_enumeration_is_sorted_and_unique():
    pps = enumerate_plane_partitions(5)
    assert pps == sorted(pps, key=lambda p: p.rows)
    assert len(set(pps)) == len(pps)
    assert all(p.size == 5 for p in pps)


def test_height_matrix_validation():
    with pytest.raises(ValueError):
        PlanePartition(((1, 2),))  # row increases
    with pytest.raises(ValueError):
        PlanePartition(((2,), (1, 1)))  # row longer than previous
    with pytest.raises(ValueError):
        PlanePartition(((1,), (2,)))  # column increases
    with pytest.raises(ValueError):
        PlanePartition(((1, 0),))  # zero height stored
    with pytest.raises(ValueError):
        PlanePartition(((),))  # empty row
    for bad in [((1.5,),), ((True,),), ((2, 1.0),)]:
        with pytest.raises(ValueError):
            PlanePartition(bad)  # heights are ints, not truncated
    for boxes in [[(0.5, 0, 0)], [(0, 0, True)], [(0, 0)]]:
        with pytest.raises(ValueError):
            PlanePartition.from_boxes(boxes)


def test_boxes_round_trip():
    for n in range(6):
        for p in enumerate_plane_partitions(n):
            assert PlanePartition.from_boxes(p.boxes()) == p
            assert len(p.boxes()) == p.size


def test_boxes_downward_closed():
    for p in enumerate_plane_partitions(5):
        bx = p.boxes()
        for (a, b, c) in bx:
            for d in range(3):
                pred = tuple(x - (i == d) for i, x in enumerate((a, b, c)))
                if min(pred) >= 0:
                    assert pred in bx


def test_from_boxes_rejects_gaps():
    with pytest.raises(ValueError):
        PlanePartition.from_boxes({(1, 0, 0)})
    with pytest.raises(ValueError):
        PlanePartition.from_boxes({(0, 0, 0), (0, 1, 1)})
    # a stack with a gap makes a valid height matrix, so only the
    # closure test sees it
    with pytest.raises(ValueError, match="not downward closed"):
        PlanePartition.from_boxes({(0, 0, 1)})
    with pytest.raises(ValueError, match="coordinates must be >= 0"):
        PlanePartition.from_boxes({(0, -1, 0)})


def test_fits_in_box():
    p = PlanePartition(((2, 1), (1,)))
    assert p.fits_in_box((2, 2, 2))
    assert not p.fits_in_box((1, 2, 2))
    assert not p.fits_in_box((2, 2, 1))
    assert PlanePartition(()).fits_in_box((1, 1, 1))


def test_partition_serialization():
    p = PlanePartition(((2, 1),))
    triples = p.to_triples()
    assert triples == sorted(triples)
    assert PlanePartition.from_json(p.to_json()) == p
    assert json.loads(PlanePartition(()).to_json()) == []
    assert PlanePartition.from_json("[]") == PlanePartition(())
    # only a list of box triples is a partition document
    for bad in ("5", "{}", '{"rows": []}', "[[1, 2]]", "[5]", "[[0, 0, 0.5]]"):
        with pytest.raises(ValueError):
            PlanePartition.from_json(bad)


def test_count_box_small():
    assert count_box_partitions((1, 1, 1)) == [1, 1]
    assert count_box_partitions((2, 2, 2))[4] == 4
    with pytest.raises(ValueError):
        count_box_partitions((0, 1, 1))


def test_box_walk_guard(monkeypatch):
    # the guard reads the exact stack count, MacMahon's box formula, and
    # raises before the walk starts
    assert sum(count_box_partitions((3, 3, 3))) == 980
    monkeypatch.setattr(partitions, "BOX_WALK_GUARD", 980)
    assert sum(count_box_partitions((3, 3, 3))) == 980
    monkeypatch.setattr(partitions, "BOX_WALK_GUARD", 979)

    def no_walk(*args):
        raise AssertionError("walked past the guard")

    # either walker starting before the guard fails the test
    for walker in ("_stacks", "_count_stacks"):
        monkeypatch.setattr(partitions, walker, no_walk)
    with pytest.raises(GuardExceeded, match="980 stacks, guard is 979"):
        count_box_partitions((3, 3, 3))
    monkeypatch.undo()
    with pytest.raises(GuardExceeded, match="267227532 stacks, guard is 1000000"):
        count_box_partitions((5, 5, 5))


def test_tally_matches_stack_walker():
    # the tally against the stacks it skips building, with box bounds and
    # budgets that bind on some inputs and not on others: neither public
    # counter mixes a box bound with a binding budget
    for bound in [(3, 2, 2), (4, 4, 1), (2, 2, 2, 2), (5,)]:
        for budget in range(sum(bound) + 2):
            for max_rows in range(5):
                want = [0] * (budget + 1)
                for _, total in partitions._stacks(bound, budget, max_rows):
                    want[total] += 1
                got = partitions._count_stacks(bound, budget, max_rows)
                assert got == want, (bound, budget, max_rows)
    # no row under (3, 2) sums past 5, so every larger budget shares one list
    rows = partitions._RowLists()
    assert rows[(3, 2), 9] is rows[(3, 2), 6] is rows[(3, 2), 5]
    assert rows[(3, 2), 4] is not rows[(3, 2), 5]
    assert len(rows[(3, 2), 4]) == len(rows[(3, 2), 5]) - 1


def test_row_table_is_shared_and_bounded(monkeypatch):
    # the counts of a walk do not depend on what the one row table already
    # holds: on an empty table each time (a bound of 0 empties it before
    # every walk), boxes then pairs, pairs then boxes, and after a clear
    def boxes():
        return count_box_partitions((3, 4, 3))

    def pairs():
        return count_partition_pairs(12)

    monkeypatch.setattr(partitions, "_ROW_TABLE_BOUND", 0)
    want = boxes(), pairs()
    assert len(partitions._ROWS) == 280  # pairs' walk alone
    monkeypatch.undo()
    partitions._ROWS.clear()
    assert (boxes(), pairs()) == want
    filed = len(partitions._ROWS)
    assert (boxes(), pairs()) == want and len(partitions._ROWS) == filed  # nothing new
    partitions._ROWS.clear()
    assert (pairs(), boxes()) == want[::-1]
    # a walk on a table past the bound starts on an empty one
    partitions._ROWS.clear()
    count_box_partitions((4, 4, 4))
    assert 0 < len(partitions._ROWS) <= partitions._ROW_TABLE_BOUND
    monkeypatch.setattr(partitions, "_ROW_TABLE_BOUND", len(partitions._ROWS) - 1)
    assert pairs() == want[1] and len(partitions._ROWS) == 280


def test_count_box_matches_golden():
    for v, coeffs in GOLDEN_BOXES.items():
        assert count_box_partitions(v) == coeffs


def test_count_box_matches_filtered_enumeration():
    # each size of the one tally against the plane partitions of
    # that size that fit in the box, for every box of volume <= 10
    pps = [enumerate_plane_partitions(n) for n in range(11)]
    for v in itertools.product(range(1, 11), repeat=3):
        vol = v[0] * v[1] * v[2]
        if vol > 10:
            continue
        want = [sum(p.fits_in_box(v) for p in pps[n]) for n in range(vol + 1)]
        assert count_box_partitions(v) == want, v


def test_dp_matches_golden():
    for v, coeffs in GOLDEN_BOXES.items():
        assert list(box_partition_polynomial_dp(v).coeffs) == coeffs


def test_dp_matches_product_beyond_golden():
    for v in [(3, 3, 2), (4, 2, 2), (1, 4, 3)]:
        assert box_partition_polynomial_dp(v) == box_product(v)


def test_dp_five_cube():
    dp = box_partition_polynomial_dp((5, 5, 5))
    assert dp == box_product((5, 5, 5))
    assert sum(dp.coeffs) == 267_227_532


def test_dp_six_cube_and_two_bit_fields():
    # the packed DP's field width is the bit length of the box count: 41
    # bits at (6,6,6), 2 bits at (1,1,1), where the count is 2
    dp = box_partition_polynomial_dp((6, 6, 6))
    assert dp == box_product((6, 6, 6))
    assert sum(dp.coeffs) == partitions._box_count(6, 6, 6)
    assert box_partition_polynomial_dp((1, 1, 1)).coeffs == (1, 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.tuples(*[st.integers(1, 6)] * 3).filter(lambda v: math.prod(v) <= 72))
def test_dp_properties(v):
    # the DP treats v1, v2 and v3 differently, so permuting v can break it
    dp = box_partition_polynomial_dp(v)
    assert dp == box_product(v)
    assert dp.is_palindromic()
    for perm in set(itertools.permutations(v)):
        assert box_partition_polynomial_dp(perm) == dp


def test_dp_state_guard(monkeypatch):
    # C(30, 15) states for (1, 15, 15), C(4, 2) for (2, 2, 2)
    with pytest.raises(GuardExceeded, match="155117520 states, guard is 10000000"):
        box_partition_polynomial_dp((1, 15, 15))
    # a lowered guard refuses even small boxes
    monkeypatch.setattr(partitions, "DP_STATE_GUARD", 3)
    with pytest.raises(GuardExceeded, match="6 states, guard is 3"):
        box_partition_polynomial_dp((2, 2, 2))


def test_monomial_ideal_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(((1, 0, 0), (2, 0, 0)))  # comparable pair
    with pytest.raises(ValueError):
        MonomialIdeal(((-1, 0, 0),))
    with pytest.raises(ValueError):
        MonomialIdeal(((2, 0, 0),), box=(2, 2, 2))  # sits on the box wall
    with pytest.raises(ValueError):
        MonomialIdeal(((1.5, 0, 0), (0, 2.7, 0), (0, 0, 1)))  # not truncated
    with pytest.raises(ValueError):
        MonomialIdeal(((True, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        MonomialIdeal(((1, 0, 0), (0, 1, 0), (0, 0, 1))).contains((0.9, 0, 0))
    # generators get sorted to a canonical order
    ideal = MonomialIdeal(((0, 1, 0), (1, 0, 0)))
    assert ideal.generators == ((0, 1, 0), (1, 0, 0))


def test_colength_small():
    assert MonomialIdeal(((0, 0, 0),)).colength() == 0
    assert MonomialIdeal((), box=(2, 2, 2)).colength() == 8
    staircase = MonomialIdeal(
        ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))
    )
    assert staircase.colength() == 3
    with pytest.raises(ValueError):
        MonomialIdeal(((1, 0, 0),)).colength()  # infinite in two directions


def test_contains():
    ideal = MonomialIdeal(((1, 1, 0), (0, 0, 2)))
    assert ideal.contains((2, 1, 0))
    assert not ideal.contains((1, 0, 1))
    boxed = MonomialIdeal(((1, 1, 0),), box=(2, 2, 2))
    assert boxed.contains((0, 0, 5))  # zero monomial in the quotient


def test_bijection_round_trip_full_ring():
    for n in range(7):
        for p in enumerate_plane_partitions(n):
            ideal = partition_to_monomial_ideal(p)
            assert ideal.colength() == n
            assert monomial_ideal_to_partition(ideal) == p


def test_bijection_round_trip_boxed():
    v = (2, 2, 2)
    for n in range(5):
        for p in enumerate_plane_partitions(n):
            if not p.fits_in_box(v):
                continue
            ideal = partition_to_monomial_ideal(p, box=v)
            assert ideal.box == v
            assert ideal.colength() == n
            assert monomial_ideal_to_partition(ideal) == p


def test_bijection_rejects_oversized():
    tall = PlanePartition(((3,),))
    with pytest.raises(ValueError):
        partition_to_monomial_ideal(tall, box=(1, 1, 2))


def test_generators_are_minimal():
    p = PlanePartition(((2, 1), (1,)))
    ideal = partition_to_monomial_ideal(p)
    lam = p.boxes()
    for g in ideal.generators:
        assert g not in lam
        for d in range(3):
            pred = tuple(x - (i == d) for i, x in enumerate(g))
            if min(pred) >= 0:
                assert pred in lam


def test_ideal_serialization():
    ideal = MonomialIdeal(((1, 1, 0),), box=(2, 2, 2))
    again = MonomialIdeal.from_json(ideal.to_json())
    assert again == ideal
    bare = MonomialIdeal(((0, 0, 0),))
    assert MonomialIdeal.from_json(bare.to_json()) == bare
    # malformed documents are a ValueError, whatever is wrong with them
    for bad in (
        "[1]", "{}", "5", '{"generators": 5}', '{"generators": [5]}',
        '{"generators": [[0, 0]]}', '{"generators": [], "box": null}',
        '{"generators": [], "box": 5}', '{"generators": [], "box": [2, 2]}',
    ):
        with pytest.raises(ValueError):
            MonomialIdeal.from_json(bad)


def test_enumerate_box_ideals(monkeypatch):
    assert len(enumerate_box_monomial_ideals((1, 1, 1))) == 2
    ideals = enumerate_box_monomial_ideals((2, 2, 2))
    assert len(ideals) == 20
    by_len = collections.Counter(i.colength() for i in ideals)
    assert [by_len[n] for n in range(9)] == GOLDEN_BOXES[(2, 2, 2)]
    monkeypatch.setattr(partitions, "ANTICHAIN_GUARD", 1 << 10)
    with pytest.raises(GuardExceeded, match="27440 nodes, guard is 1024"):
        enumerate_box_monomial_ideals((3, 3, 3))


def test_pair_counts():
    assert count_partition_pairs(5) == [1, 2, 7, 18, 47, 110]
    assert count_partition_pairs(0) == [1]
    m = macmahon(12)
    pairs = count_partition_pairs(12)
    assert pairs == list((m * m).coeffs)
    assert pairs[:9] == count_partition_pairs(8)
    with pytest.raises(GuardExceeded, match="order 13, guard is 12"):
        count_partition_pairs(13)
    for bad in (-1, True, False, 2.5):
        with pytest.raises(ValueError):
            count_partition_pairs(bad)
