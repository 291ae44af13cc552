import itertools
import json

import pytest

from conftest import load_coeff_table
from quotbox.partitions import GuardExceeded
from quotbox.quotfixed import (
    ConstraintSystem,
    Coprofile,
    FixedLocusSummary,
    Link,
    _consistent_strata,
    enumerate_coprofiles,
    fixed_locus_summary,
    profile_constraint_system,
    quot_fixed_euler,
    quot_series,
    stratum_euler,
    stratum_euler_oracle_fp,
)
from quotbox.reflexive import ReflexiveParams, fiber_dim
from quotbox.verify import verify_product_formula


GOLDEN_SERIES = load_coeff_table("quot_series.txt")

GRID = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2), (1, 2, 3)]


def system(variables=(), fixed=None, links=(), infeasible=False):
    return ConstraintSystem(
        variables=tuple(variables),
        fixed_lines=dict(fixed or {}),
        links=tuple(Link(s, t) for s, t in links),
        infeasible=infeasible,
    )


W0 = (0, 0, 0)
W1 = (1, 0, 0)
W2 = (0, 1, 0)


def test_coprofile_validation():
    with pytest.raises(ValueError):
        Coprofile((((1, 0, 0), 1), ((0, 1, 0), 1)))  # unsorted
    with pytest.raises(ValueError):
        Coprofile((((0, 1, 0), 1), ((0, 1, 0), 1)))  # duplicate
    with pytest.raises(ValueError):
        Coprofile((((0, 1, 0), 0),))
    with pytest.raises(ValueError):
        Coprofile((((0, -1, 0), 1),))
    p = Coprofile((((0, 1, 1), 1), ((1, 1, 1), 2)))
    assert p.n == 3
    assert p.support == ((0, 1, 1), (1, 1, 1))
    assert p.as_dict()[(1, 1, 1)] == 2


def test_enumerate_trivial():
    assert enumerate_coprofiles((1, 1, 1), 0) == [Coprofile(())]
    with pytest.raises(ValueError):
        enumerate_coprofiles((1, 1, 1), -1)
    with pytest.raises(GuardExceeded):
        enumerate_coprofiles((1, 1, 1), 6)


def test_enumerate_colength_one():
    profiles = enumerate_coprofiles((1, 1, 1), 1)
    assert [p.entries for p in profiles] == [
        (((0, 1, 1), 1),),
        (((1, 0, 1), 1),),
        (((1, 1, 0), 1),),
    ]
    for v in GRID:
        singles = enumerate_coprofiles(v, 1)
        gens = set(ReflexiveParams.of(v).generator_weights())
        assert {p.support[0] for p in singles} == gens


def test_support_reachability_invariant():
    for v in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]:
        gens = set(ReflexiveParams.of(v).generator_weights())
        for n in (1, 2, 3):
            for p in enumerate_coprofiles(v, n):
                members = set(p.support)
                for w in p.support:
                    preds = {
                        tuple(w[i] - (i == k) for i in range(3)) for k in range(3)
                    }
                    assert w in gens or (preds & members)
                assert sum(c for _, c in p.entries) == n
                for w, c in p.entries:
                    assert 1 <= c <= fiber_dim(v, w)


def reference_coprofiles(v, n):
    """Coprofiles by set closure: supports S | {w}, w a generator or a
    successor of S, then every drop vector summing to n."""
    gens = set(ReflexiveParams.of(v).generator_weights())
    supports = {frozenset()}
    level = {frozenset()}
    for _ in range(n):
        level = {
            s | {w}
            for s in level
            for w in gens | {tuple(x + (i == k) for i, x in enumerate(u))
                             for u in s for k in range(3)}
            if w not in s
        }
        supports |= level
    out = set()
    for s in supports:
        ws = sorted(s)
        caps = [range(1, fiber_dim(v, w) + 1) for w in ws]
        for drops in itertools.product(*caps):
            if sum(drops) == n:
                out.add(tuple(zip(ws, drops)))
    return out


def test_enumeration_matches_set_closure_reference():
    for v in GRID:
        for n in range(5):
            got = [p.entries for p in enumerate_coprofiles(v, n)]
            assert len(got) == len(set(got))
            assert set(got) == reference_coprofiles(v, n)


def test_enumeration_counts_at_colength_six():
    for v, count in [((1, 1, 1), 7457), ((2, 2, 2), 6990), ((1, 2, 3), 7404)]:
        assert len(enumerate_coprofiles(v, 6, guard=6)) == count


def test_corner_profile_not_enumerated_but_evaluates_to_zero():
    # a lone drop at the corner weight fails the reachability rule, and
    # the module structure agrees: incoming maps force three distinct
    # lines, so the stratum is empty
    profiles = enumerate_coprofiles((1, 1, 1), 1)
    corner = Coprofile((((1, 1, 1), 1),))
    assert corner not in profiles
    cs = profile_constraint_system((1, 1, 1), corner)
    assert cs.infeasible
    assert cs.variables == ((1, 1, 1),)
    assert stratum_euler(cs) == 0
    assert stratum_euler_oracle_fp(cs) == 0


def test_generator_singleton_system():
    cs = profile_constraint_system((1, 1, 1), Coprofile((((1, 1, 0), 1),)))
    assert not cs.infeasible
    assert cs.variables == ()
    assert cs.links == ()
    assert stratum_euler(cs) == 1
    assert stratum_euler_oracle_fp(cs) == 1


def test_profile_drop_exceeding_fiber_dim_raises():
    with pytest.raises(ValueError):
        profile_constraint_system((1, 1, 1), Coprofile((((1, 1, 0), 2),)))


def test_colength_two_summary():
    summary = fixed_locus_summary((1, 1, 1), 2)
    assert len(summary.strata) == 12
    assert summary.total == 9
    feasible = [r for r in summary.strata if r.feasible]
    assert len(feasible) == 9
    assert all(r.euler == 1 for r in feasible)
    # the infeasible strata pair a generator weight with the corner
    for r in summary.strata:
        if not r.feasible:
            assert r.euler == 0
            assert (1, 1, 1) in r.coprofile.support


def test_feasible_label_follows_the_constraint_system():
    summary = fixed_locus_summary((1, 1, 1), 5)
    feasible = [r for r in summary.strata if r.feasible]
    assert len(feasible) == 157
    assert sum(1 for r in feasible if r.euler == 0) == 6
    for r in summary.strata:
        cs = profile_constraint_system((1, 1, 1), r.coprofile)
        assert r.feasible == (not cs.infeasible)


def stratum_key(profile, cs):
    return (
        profile.entries,
        cs.variables,
        tuple(sorted(cs.fixed_lines.items())),
        cs.links,
    )


SEARCH_CASES = [(v, n) for v in GRID for n in range(5)] + [
    (v, 5) for v in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]
]


def test_search_visits_exactly_the_consistent_strata():
    by_v = {}
    for v, n in SEARCH_CASES:
        by_v[v] = max(by_v.get(v, 0), n)
    for v, order in by_v.items():
        visited = {}
        for profile, cs in _consistent_strata(ReflexiveParams.of(v), order):
            assert not cs.infeasible
            visited.setdefault(profile.n, []).append(stratum_key(profile, cs))
        for n in range(order + 1):
            full = {
                stratum_key(p, cs)
                for p in enumerate_coprofiles(v, n)
                for cs in [profile_constraint_system(v, p)]
                if not cs.infeasible
            }
            assert len(visited[n]) == len(set(visited[n]))
            assert set(visited[n]) == full


def test_summary_total_matches_pruned_search():
    for v, n in SEARCH_CASES:
        assert fixed_locus_summary(v, n).total == quot_fixed_euler(v, n)


def test_empty_system_and_fixed_points():
    assert stratum_euler(system()) == 1
    assert stratum_euler(system(variables=[W0])) == 2
    assert stratum_euler(system(variables=[W0], fixed={W0: (1, 0)})) == 1
    assert stratum_euler(system(infeasible=True)) == 0


def test_iso_link_pairs():
    cs = system(variables=[W0, W1], links=[(W0, W1)])
    assert stratum_euler(cs) == 2
    # forcing one endpoint pins the other through the link
    cs2 = system(variables=[W0, W1], fixed={W0: (1, 1)}, links=[(W0, W1)])
    assert stratum_euler(cs2) == 1
    cs3 = system(variables=[W0, W1], fixed={W1: (1, 0)}, links=[(W0, W1)])
    assert stratum_euler(cs3) == 1
    # inconsistent forcings on both ends kill the stratum
    cs4 = system(
        variables=[W0, W1], fixed={W0: (1, 0), W1: (0, 1)}, links=[(W0, W1)]
    )
    assert stratum_euler(cs4) == 0


def test_iso_chain():
    chain = [(W0, W1), (W1, W2)]
    cs = system(variables=[W0, W1, W2], links=chain)
    assert stratum_euler(cs) == 2
    assert stratum_euler_oracle_fp(cs) == 2
    # a clash between the two ends of a chain kills the stratum
    clash = system(
        variables=[W0, W1, W2], fixed={W0: (1, 0), W2: (1, 1)}, links=chain
    )
    assert stratum_euler(clash) == 0
    # a linked pair plus a lone variable: two free components
    split = system(variables=[W0, W1, W2], links=[(W1, W0)])
    assert stratum_euler(split) == 4


def test_oracle_matches_engine_on_synthetic_systems():
    chain = [(W0, W1), (W1, W2)]
    cases = [
        system(),
        system(variables=[W0]),
        system(variables=[W0], fixed={W0: (2, -3)}),
        system(variables=[W0, W1], links=[(W0, W1)]),
        system(variables=[W0, W1], fixed={W1: (0, 1)}, links=[(W0, W1)]),
        system(variables=[W0, W1], fixed={W0: (1, 0), W1: (1, 1)}, links=[(W0, W1)]),
        system(variables=[W0, W1, W2], links=[(W1, W0)]),
        system(variables=[W0, W1, W2], fixed={W2: (1, 1)}, links=chain),
        system(variables=[W0, W1, W2], fixed={W0: (1, 0), W2: (0, 1)}, links=chain),
    ]
    for cs in cases:
        assert stratum_euler(cs) == stratum_euler_oracle_fp(cs)


def test_oracle_parameter_checks():
    cs = system(variables=[W0, W1, W2])
    with pytest.raises(ValueError):
        stratum_euler_oracle_fp(cs, primes=(5, 7, 11))
    with pytest.raises(ValueError):
        stratum_euler_oracle_fp(cs, primes=(5, 7, 11, 13))  # need m+2 primes
    with pytest.raises(ValueError):
        stratum_euler_oracle_fp(system(variables=[W0]), primes=(5, 5, 7))
    with pytest.raises(GuardExceeded):
        stratum_euler_oracle_fp(
            system(variables=[W0, W1, W2, (1, 1, 0), (1, 0, 1)]),
            primes=(5, 7, 11, 13, 17, 19),
        )


def test_oracle_rejects_counts_that_are_not_polynomial():
    # (1, 5) is (1, 0) modulo 5, so the clash the engine sees vanishes at
    # p = 5; three primes fit any three counts, four expose the jump
    cs = system(variables=[W0, W1], fixed={W0: (1, 0), W1: (1, 5)}, links=[(W0, W1)])
    assert stratum_euler(cs) == 0
    with pytest.raises(ArithmeticError):
        stratum_euler_oracle_fp(cs)


def test_engine_matches_oracle_on_real_strata():
    for v in GRID:
        for n in (0, 1, 2, 3):
            for rec in fixed_locus_summary(v, n).strata:
                cs = profile_constraint_system(v, rec.coprofile)
                assert stratum_euler(cs) == rec.euler
                assert stratum_euler_oracle_fp(cs) == rec.euler


def test_quot_fixed_euler_small():
    for v in GRID:
        assert quot_fixed_euler(v, 0) == 1
        assert quot_fixed_euler(v, 1) == 3


def test_quot_series_matches_golden():
    for key, coeffs in GOLDEN_SERIES.items():
        v, order = key[:3], key[3]
        assert list(quot_series(v, order).coeffs) == coeffs


def test_permutation_invariance():
    for v, order in [((1, 2, 2), 2), ((1, 2, 3), 7)]:
        base = quot_series(v, order, guard=order)
        for perm in set(itertools.permutations(v)):
            assert quot_series(perm, order, guard=order).coeffs == base.coeffs


def test_guards(monkeypatch):
    # the guard is checked before any stratum is evaluated
    def no_work(cs):
        raise AssertionError("stratum evaluated before the guard check")

    monkeypatch.setattr("quotbox.quotfixed.stratum_euler", no_work)
    with pytest.raises(GuardExceeded):
        quot_fixed_euler((1, 1, 1), 7)
    with pytest.raises(GuardExceeded):
        quot_series((1, 1, 1), 7)
    with pytest.raises(GuardExceeded):
        verify_product_formula((1, 1, 1), 6)
    with pytest.raises(ValueError):
        quot_series((1, 1, 1), -1)


def test_summary_structure_and_json():
    summary = fixed_locus_summary((1, 1, 1), 1)
    assert summary.v == (1, 1, 1)
    assert summary.n == 1
    assert summary.total == sum(r.euler for r in summary.strata)

    data = json.loads(summary.to_json())
    assert set(data) == {"v", "n", "strata", "total"}
    assert data["v"] == [1, 1, 1] and data["n"] == 1 and data["total"] == 3
    assert all(
        set(s) == {"coprofile", "euler", "feasible"} for s in data["strata"]
    )
    again = FixedLocusSummary.from_json(summary.to_json())
    assert again.to_json() == summary.to_json()
    assert again.strata[0].coprofile == summary.strata[0].coprofile


def test_determinism():
    a = fixed_locus_summary((2, 1, 1), 2)
    b = fixed_locus_summary((2, 1, 1), 2)
    assert a.to_json() == b.to_json()
    assert [r.coprofile.entries for r in a.strata] == sorted(
        r.coprofile.entries for r in a.strata
    )
