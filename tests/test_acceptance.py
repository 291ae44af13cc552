"""Acceptance criteria, one test per criterion, all exact comparisons.

Each test prints a single PASS or FAIL line so a -s run reads as a
checklist; the assert carries the details on failure.
"""

import collections
import itertools
import random

from conftest import GRID, consistent_strata
from field_oracle import stratum_euler_oracle_fp
from quotbox.partitions import (
    box_partition_polynomial_dp,
    count_box_partitions,
    count_partition_pairs,
    enumerate_box_monomial_ideals,
    enumerate_plane_partitions,
    monomial_ideal_to_partition,
    partition_to_monomial_ideal,
)
from quotbox.quotfixed import (
    Coprofile,
    profile_constraint_system,
    quot_fixed_euler,
    quot_series,
    stratum_euler,
)
from quotbox.reflexive import ReflexiveParams
from quotbox.series import TruncatedSeries, box_product, macmahon, quot_closed_form


def report(criterion: str, ok: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_series_match_closed_form():
    failures = []
    for v in GRID:
        got = quot_series(v, 8, guard=8)
        want = quot_closed_form(v, 8)
        if got != want:
            failures.append((v, list(got.coeffs), list(want.coeffs)))
    report("1 engine series equals closed form on the grid", not failures)
    assert not failures, failures


def test_criterion_2_colength_one_is_three():
    values = {v: quot_fixed_euler(v, 1) for v in GRID}
    ok = all(e == 3 for e in values.values())
    report("2 colength-1 Euler characteristic is 3", ok)
    assert ok, values


def test_criterion_3_three_way_box_counts():
    failures = []
    for v in itertools.product(range(1, 13), repeat=3):
        vol = v[0] * v[1] * v[2]
        if vol > 12:
            continue
        product = box_product(v)
        dp = box_partition_polynomial_dp(v)
        brute = count_box_partitions(v)
        if not (list(product.coeffs) == list(dp.coeffs) == brute):
            failures.append(v)
    report("3 box counts agree three ways for volume <= 12", not failures)
    assert not failures, failures


def test_criterion_4_plane_partition_counts():
    m = macmahon(8)
    counts = [len(enumerate_plane_partitions(n)) for n in range(9)]
    ok = counts == list(m.coeffs) == [1, 1, 3, 6, 13, 24, 48, 86, 160]
    report("4 plane partition counts match the series", ok)
    assert ok, counts


def test_criterion_5_pair_counts():
    m = macmahon(10)
    m2 = m * m
    pairs = count_partition_pairs(10)
    ok = pairs == list(m2.coeffs)
    report("5 partition pair counts match the squared series", ok)
    assert ok, (pairs, list(m2.coeffs))


def test_criterion_6_fat_point_ideals():
    v = (2, 2, 2)
    by_colength = collections.Counter(
        ideal.colength() for ideal in enumerate_box_monomial_ideals(v)
    )
    counts = [by_colength[n] for n in range(9)]
    boxes = count_box_partitions(v)
    ok = (
        counts == boxes
        and counts[8] != 0
        and counts == counts[::-1]
    )
    report("6 fat-point ideal counts match box counts", ok)
    assert ok, (counts, boxes)


def test_criterion_7_field_oracle_agreement():
    # every stratum the search finds for a grid triple through colength 5,
    # 2,187 of them and 24 with links: its reference system is consistent
    # and the search, the engine and the field oracle agree on it
    failures = []
    strata = linked = 0
    for v in GRID:
        for entries, _, chi in consistent_strata(ReflexiveParams.of(v), 5):
            cs = profile_constraint_system(v, Coprofile(entries))
            engine = stratum_euler(cs)
            oracle = stratum_euler_oracle_fp(cs)
            strata += 1
            linked += bool(cs.links)
            if cs.infeasible or not chi == engine == oracle:
                failures.append((v, entries, cs.infeasible, chi, engine, oracle))
    ok = not failures and (strata, linked) == (2187, 24)
    report("7 field oracle agrees on every stratum", ok)
    assert ok, (failures, strata, linked)


def test_criterion_8_property_suite():
    ok = True

    # box polynomial shape: symmetric in v, palindromic, degree and ends
    for v in [(1, 2, 3), (2, 2, 2), (4, 1, 2)]:
        base = box_product(v)
        ok = ok and all(
            box_product(p) == base for p in itertools.permutations(v)
        )
        ok = ok and base.is_palindromic()
        ok = ok and base.degree() == v[0] * v[1] * v[2]
        ok = ok and base[0] == 1

    # ring axioms on seeded random instances
    rng = random.Random(2024)
    for _ in range(100):
        a, b, c = (
            TruncatedSeries(5, tuple(rng.randint(-9, 9) for _ in range(6)))
            for _ in range(3)
        )
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c

    # bijection round trips for all partitions of size <= 6
    for n in range(7):
        for p in enumerate_plane_partitions(n):
            ideal = partition_to_monomial_ideal(p)
            ok = ok and ideal.colength() == n
            ok = ok and monomial_ideal_to_partition(ideal) == p

    report("8 property suite", ok)
    assert ok
