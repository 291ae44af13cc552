import gc
import itertools
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GRID, consistent_strata, load_coeff_table
from field_oracle import stratum_euler_oracle_fp
from quotbox.partitions import GuardExceeded
from quotbox.quotfixed import (
    ConstraintSystem,
    Coprofile,
    StratumRecord,
    _layer_transfer,
    enumerate_coprofiles,
    fixed_locus_summary,
    profile_constraint_system,
    quot_fixed_euler,
    quot_series,
    stratum_euler,
)
from quotbox.reflexive import ReflexiveParams, fiber_dim
from quotbox.series import quot_closed_form
from quotbox.verify import verify_product_formula


GOLDEN_SERIES = load_coeff_table("quot_series.txt")


def system(variables=(), fixed=None, links=(), infeasible=False):
    return ConstraintSystem(
        variables=tuple(variables),
        fixed_lines=dict(fixed or {}),
        links=tuple(links),
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
    # non-int entries are rejected, not truncated
    with pytest.raises(ValueError):
        Coprofile((((1.7, 1, 0.2), 1.9),))
    with pytest.raises(ValueError):
        Coprofile((((1, 1, 0), 1.0),))
    with pytest.raises(ValueError):
        Coprofile((((1, 1.0, 0), 1),))
    with pytest.raises(ValueError):
        Coprofile((((1, 1), 1),))
    with pytest.raises(ValueError):
        Coprofile((((0, 1, 1), True),))
    with pytest.raises(ValueError):
        Coprofile((((0, True, 1), 1),))
    # an entry is a (weight, drop) pair
    for bad in [((1, 2, 3),), (((0, 1, 1), 1, 1),), ((0, 1, 1),)]:
        with pytest.raises(ValueError, match=r"an entry is a \(weight, drop\) pair"):
            Coprofile(bad)
    p = Coprofile((((0, 1, 1), 1), ((1, 1, 1), 2)))
    assert Coprofile((([0, 1, 1], 1),)).entries == (((0, 1, 1), 1),)
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


def test_links_are_weight_pairs():
    # a real linked stratum: x3 carries the line at (1, 1, 1) into (1, 1, 2),
    # and the two are forced to different lines
    entries = (((0, 1, 1), 1), ((0, 1, 2), 1), ((1, 0, 1), 1),
               ((1, 1, 1), 1), ((1, 1, 2), 1))
    cs = profile_constraint_system((1, 1, 1), Coprofile(entries))
    assert cs.links == (((1, 1, 1), (1, 1, 2)),)
    assert cs.fixed_lines == {(1, 1, 1): (1, 0), (1, 1, 2): (0, 1)}
    assert stratum_euler(cs) == stratum_euler_oracle_fp(cs) == 0


def test_profile_drop_exceeding_fiber_dim_raises():
    with pytest.raises(ValueError):
        profile_constraint_system((1, 1, 1), Coprofile((((1, 1, 0), 2),)))


def test_colength_two_summary():
    summary = fixed_locus_summary((1, 1, 1), 2)
    assert len(summary.strata) == 9
    assert summary.total == 9
    assert all(r.euler == 1 for r in summary.strata)
    # the strata that pair a generator weight with the corner are cut
    assert all((1, 1, 1) not in r.coprofile.support for r in summary.strata)


def test_feasible_label_follows_the_constraint_system():
    # the summary lists exactly the consistent strata; a consistent
    # stratum can still be empty
    summary = fixed_locus_summary((1, 1, 1), 5)
    assert len(summary.strata) == 157
    assert sum(1 for r in summary.strata if r.euler == 0) == 6
    for r in summary.strata:
        cs = profile_constraint_system((1, 1, 1), r.coprofile)
        assert not cs.infeasible
        assert stratum_euler(cs) == r.euler


def reference_system(v, entries, drop):
    """The reference constraint system of a stratum the search yields;
    the search only yields strata it found consistent."""
    profile = Coprofile(entries)
    assert profile.entries == entries and profile.n == drop
    cs = profile_constraint_system(v, profile)
    assert not cs.infeasible
    return cs


SEARCH_CASES = [(v, n) for v in GRID for n in range(5)] + [
    (v, 5) for v in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]
]


def test_search_visits_exactly_the_consistent_strata():
    # the search's Euler characteristic at every node is that of the
    # reference system, and its nodes are exactly the consistent strata
    # among the coprofiles of the set-closure definition
    by_v = {}
    for v, n in SEARCH_CASES:
        by_v[v] = max(by_v.get(v, 0), n)
    for v, order in by_v.items():
        visited = {}
        for entries, drop, chi in consistent_strata(ReflexiveParams.of(v), order):
            assert chi == stratum_euler(reference_system(v, entries, drop))
            visited.setdefault(drop, []).append((entries, chi))
        for n in range(order + 1):
            full = {
                (p.entries, stratum_euler(cs))
                for p in enumerate_coprofiles(v, n)
                for cs in [profile_constraint_system(v, p)]
                if not cs.infeasible
            }
            assert len(visited[n]) == len(set(visited[n]))
            assert set(visited[n]) == full


def test_reference_reads_its_lines_from_the_fibers(monkeypatch):
    # the reference takes each forced line from the 1-dimensional
    # predecessor's basis in fiber, not from image_line, which the walk
    # reads: x_1 and x_2 carrying their fibers onto one line changes the
    # walk's total and not the reference's
    def totals(n):
        reference = sum(
            stratum_euler(profile_constraint_system((1, 1, 1), p))
            for p in enumerate_coprofiles((1, 1, 1), n)
        )
        return fixed_locus_summary((1, 1, 1), n).total, reference

    assert totals(2) == (9, 9)
    lines = {1: (1, 1), 2: (1, 1), 3: (1, 0)}
    monkeypatch.setattr(ReflexiveParams, "image_line", staticmethod(lines.__getitem__))
    assert totals(2) == (10, 9)


def test_summary_total_matches_pruned_search():
    # the summary lists the walk depth-first on v, quot_fixed_euler sums
    # it as a layer transfer on v sorted descending
    for v, n in SEARCH_CASES:
        assert fixed_locus_summary(v, n).total == quot_fixed_euler(v, n)


def test_transfer_matches_search_per_drop():
    # one walk, run twice: the listing run files no states, so this
    # checks exactly the transfer
    for v in GRID:
        params = ReflexiveParams.of(v)
        sums = [0] * 9
        for _, drop, chi in consistent_strata(params, 8):
            sums[drop] += chi
        assert _layer_transfer(params, 8) == sums


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
    # six primes reach 4 variables; a fifth is refused before any count
    four = [W0, W1, W2, (1, 1, 0)]
    assert stratum_euler_oracle_fp(system(variables=four)) == 16
    with pytest.raises(GuardExceeded):
        stratum_euler_oracle_fp(system(variables=four + [(1, 0, 1)]))


def test_oracle_rejects_counts_that_are_not_polynomial():
    # (1, 5) is (1, 0) modulo 5, so the clash the engine sees vanishes at
    # p = 5; three primes fit any three counts, four expose the jump
    cs = system(variables=[W0, W1], fixed={W0: (1, 0), W1: (1, 5)}, links=[(W0, W1)])
    assert stratum_euler(cs) == 0
    with pytest.raises(ArithmeticError):
        stratum_euler_oracle_fp(cs)


def checked_strata(v, order):
    """(reference system, χ) of each stratum the search yields, after
    checking the search's χ against the engine and the field oracle."""
    for entries, drop, chi in consistent_strata(ReflexiveParams.of(v), order):
        cs = reference_system(v, entries, drop)
        assert chi == stratum_euler(cs) == stratum_euler_oracle_fp(cs)
        yield cs, chi


def test_engine_matches_oracle_on_real_strata():
    # every consistent stratum of the grid through order 5; the linked
    # ones are where dropping the union step would show
    systems = [cs for v in GRID for cs, _ in checked_strata(v, 5)]
    assert (len(systems), sum(bool(cs.links) for cs in systems)) == (2187, 24)
    # and through order 6, where components clash
    for v, count, empty in [((1, 1, 1), 624, 24), ((2, 2, 2), 989, 0), ((1, 2, 3), 859, 1)]:
        chis = [chi for _, chi in checked_strata(v, 6)]
        assert (len(chis), chis.count(0)) == (count, empty)


def test_quot_fixed_euler_small():
    for v in GRID:
        assert quot_fixed_euler(v, 0) == 1
        assert quot_fixed_euler(v, 1) == 3


def test_quot_series_matches_golden():
    for key, coeffs in GOLDEN_SERIES.items():
        v, order = key[:3], key[3]
        assert list(quot_series(v, order).coeffs) == coeffs


def test_series_matches_closed_form_at_order_ten():
    for v in [(1, 1, 1), (2, 2, 2), (1, 2, 3)]:
        assert quot_series(v, 10, guard=10) == quot_closed_form(v, 10)


def test_series_matches_closed_form_at_order_twelve():
    # a transfer state key that keeps whether each component is forced but
    # not its line first goes wrong here, at order 11; every other case
    # the suite runs on the transfer misses it
    assert quot_series((1, 1, 1), 12, guard=12) == quot_closed_form((1, 1, 1), 12)


@pytest.mark.deep
@pytest.mark.parametrize("v, order", [((3, 3, 3), 20), ((8, 2, 1), 20), ((1, 1, 1), 24)])
def test_product_claim_at_depth(v, order):
    # the packed series are widest here, and the transfer files tens of
    # thousands of states
    assert verify_product_formula(v, order, guard=order).ok


def test_permutation_invariance():
    # quot_series runs one orientation, so compare the transfer itself
    for v, order in [((1, 2, 2), 2), ((1, 2, 3), 7)]:
        base = _layer_transfer(ReflexiveParams(*v), order)
        for perm in set(itertools.permutations(v)):
            assert _layer_transfer(ReflexiveParams(*perm), order) == base


def test_all_six_orientations_at_order_ten():
    expected = list(quot_closed_form((1, 2, 3), 10).coeffs)
    for perm in itertools.permutations((1, 2, 3)):
        assert _layer_transfer(ReflexiveParams(*perm), 10) == expected


def test_quot_series_slices_the_longest_side(monkeypatch):
    # the transfer runs on v sorted descending; the report keeps v
    seen = []

    def recording(params, order):
        seen.append(params.triple)
        return _layer_transfer(params, order)

    monkeypatch.setattr("quotbox.quotfixed._layer_transfer", recording)
    report = verify_product_formula((1, 2, 3), 4)
    assert report.ok and report.params == {"v": [1, 2, 3], "order": 4}
    assert quot_fixed_euler((2, 3, 1), 3) == quot_closed_form((1, 2, 3), 3)[3]
    assert seen == [(3, 2, 1), (3, 2, 1)]


def test_packing_base_does_not_alias():
    # on elongated triples the packing window is far from a cube, so a row
    # or layer stride read off the wrong coordinate shows soonest; an
    # aliased weight drops or doubles strata, which the closed form and the
    # strict order of the search's entries both expose
    for v in [(1, 1, 8), (8, 2, 1)]:
        for perm in set(itertools.permutations(v)):
            params = ReflexiveParams(*perm)
            for order in range(7):
                sums = [0] * (order + 1)
                for entries, drop, chi in consistent_strata(params, order):
                    assert Coprofile(entries).n == drop
                    sums[drop] += chi
                assert _layer_transfer(params, order) == sums
                assert sums == list(quot_closed_form(v, order).coeffs)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(
    st.tuples(*[st.integers(1, 3)] * 3).flatmap(
        lambda v: st.tuples(st.just(v), st.permutations(v))
    )
)
def test_series_properties(case):
    v, perm = case
    series = quot_series(v, 7, guard=7)
    assert series == quot_closed_form(v, 7)
    transfer = _layer_transfer(ReflexiveParams(*perm), 7)
    assert transfer == _layer_transfer(ReflexiveParams(*v), 7) == list(series.coeffs)


def test_guards(monkeypatch):
    # the guard and the colength type are checked before any search work
    def no_work(*args):
        raise AssertionError("search started before the guard check")

    monkeypatch.setattr("quotbox.quotfixed._layer_transfer", no_work)
    monkeypatch.setattr("quotbox.quotfixed.stratum_euler", no_work)
    # the message names the colength met and the guard
    with pytest.raises(GuardExceeded, match="colength 7, guard is 5"):
        quot_fixed_euler((1, 1, 1), 7)
    with pytest.raises(GuardExceeded, match="colength 7, guard is 5"):
        quot_series((1, 1, 1), 7)
    with pytest.raises(GuardExceeded, match="colength 6, guard is 5"):
        fixed_locus_summary((1, 1, 1), 6)
    with pytest.raises(GuardExceeded, match="colength 6, guard is 5"):
        verify_product_formula((1, 1, 1), 6)
    with pytest.raises(GuardExceeded, match="colength 4, guard is 3"):
        enumerate_coprofiles((1, 1, 1), 4, guard=3)
    for bad in (-1, 2.5, 2.0, "2", None, True, False):
        with pytest.raises(ValueError):
            quot_series((1, 1, 1), bad)
        with pytest.raises(ValueError):
            quot_fixed_euler((1, 1, 1), bad)
        with pytest.raises(ValueError):
            fixed_locus_summary((1, 1, 1), bad)
    # so is the guard, an int >= 0 like the order
    entry_points = (quot_series, quot_fixed_euler, fixed_locus_summary,
                    enumerate_coprofiles, verify_product_formula)
    for bad in (-1, 2.5, 5.0, "5", None, True, False):
        for f in entry_points:
            with pytest.raises(ValueError, match="guard"):
                f((1, 1, 1), 1, guard=bad)


def test_search_and_transfer_leave_no_cycles():
    # the walk's closures are unlinked when it finishes, listing or not,
    # so their state tables are freed at once, not by the collector
    gc.collect()
    gc.disable()
    try:
        fixed_locus_summary((1, 1, 1), 5)
        assert gc.collect() == 0
        quot_series((1, 1, 1), 6, guard=6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def no_fiber(v, w):
    raise AssertionError("the walk read one weight's fiber")


def _count_mask_reads(monkeypatch):
    # the walk never asks for one weight's fiber: fiber is patched to
    # raise, and each fiber_masks call is recorded by its window
    masks = []
    fiber_masks = ReflexiveParams.fiber_masks
    monkeypatch.setattr("quotbox.reflexive.fiber", no_fiber)
    monkeypatch.setattr(
        ReflexiveParams, "fiber_masks",
        lambda params, window: masks.append(window) or fiber_masks(params, window),
    )
    return masks


def _packing_window(v, order):
    # one bound per coordinate, not the longest side in all three
    return tuple(vk + order for vk in v)


def test_summary_reads_one_fiber_table(monkeypatch):
    # one set of masks for the whole search, not a fresh read per stratum,
    # on the packing window of the caller's v
    masks = _count_mask_reads(monkeypatch)
    for v, order in [((1, 1, 1), 5), ((1, 2, 3), 4), ((1, 1, 8), 3)]:
        masks.clear()
        assert fixed_locus_summary(v, order).total == quot_closed_form(v, order)[order]
        assert masks == [_packing_window(v, order)]


def test_each_series_call_builds_its_own_table(monkeypatch):
    # no masks survive a call: a repeated call reads the module again, on
    # the packing window of v sorted descending
    masks = _count_mask_reads(monkeypatch)
    first = quot_series((1, 2, 3), 4)
    assert first == quot_closed_form((1, 2, 3), 4)
    assert masks == [_packing_window((3, 2, 1), 4)]
    assert quot_series((1, 2, 3), 4) == first
    assert masks == masks[:1] * 2
    masks.clear()
    assert quot_series((1, 1, 1), 5) == quot_closed_form((1, 1, 1), 5)
    assert masks == [_packing_window((1, 1, 1), 5)]


@pytest.mark.parametrize("v, order", [((3, 2, 1), 8), ((2, 2, 2), 7), ((1, 1, 8), 4)])
def test_walk_reads_only_the_module_protocol(v, order, monkeypatch):
    # generator_weights, fiber_masks and image_line are all the walk reads
    # of the module, series and listing alike: no v1, no fiber
    monkeypatch.setattr("quotbox.reflexive.fiber", no_fiber)
    params = ReflexiveParams(*v)
    stub = types.SimpleNamespace(
        generator_weights=params.generator_weights,
        fiber_masks=params.fiber_masks,
        image_line=params.image_line,
    )
    assert _layer_transfer(stub, order) == list(quot_closed_form(v, order).coeffs)
    assert consistent_strata(stub, 4) == consistent_strata(params, 4)


def test_packing_window_is_tight():
    # every weight of a colength-n stratum has w_k <= v_k + n - 1, the
    # window's last coordinate, and some stratum reaches it in each
    # coordinate: the chain up from g1 = (v1, v2, 0) along e1 or e2, or
    # from g2 = (v1, 0, v3) along e3, one unit of drop at each weight
    for v in GRID:
        for n in range(1, 6):
            top = tuple(vk + n - 1 for vk in v)
            strata = {r.coprofile.entries for r in fixed_locus_summary(v, n).strata}
            reached = [0, 0, 0]
            for entries in strata:
                for w, _ in entries:
                    assert all(wk <= t for wk, t in zip(w, top)), (v, n, w)
                    reached = list(map(max, reached, w))
            assert tuple(reached) == top, (v, n)
            for k, g in [(0, (v[0], v[1], 0)), (1, (v[0], v[1], 0)), (2, (v[0], 0, v[2]))]:
                chain = tuple(
                    (tuple(gi + i * (j == k) for j, gi in enumerate(g)), 1) for i in range(n)
                )
                assert chain in strata, (v, n, k)


def test_summary_structure():
    summary = fixed_locus_summary((1, 1, 1), 1)
    assert summary.v == (1, 1, 1)
    assert summary.n == 1
    assert summary.total == sum(r.euler for r in summary.strata) == 3
    assert all(type(r) is StratumRecord and r.coprofile.n == 1 for r in summary.strata)


def test_determinism():
    a = fixed_locus_summary((2, 1, 1), 2)
    b = fixed_locus_summary((2, 1, 1), 2)
    assert a == b
    assert [r.coprofile.entries for r in a.strata] == sorted(
        r.coprofile.entries for r in a.strata
    )
