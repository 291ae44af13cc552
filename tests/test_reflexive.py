import collections
import itertools
import json
import math

import pytest

from conftest import GRID
from quotbox.reflexive import (
    ReflexiveParams,
    check_cosection_quotient,
    check_resolution_dims,
    fiber,
    fiber_dim,
    mult_matrix,
    sing_ideal,
)
from quotbox.reflexive import DimCheckEntry, DimCheckReport
from quotbox.quotfixed import quot_series


def window(hi):
    return itertools.product(range(hi + 1), repeat=3)


def test_params_validation():
    with pytest.raises(ValueError):
        ReflexiveParams(0, 1, 1)
    with pytest.raises(ValueError):
        ReflexiveParams.of((1, 1))
    with pytest.raises(ValueError):
        ReflexiveParams.of((2.7, 1, 1))
    with pytest.raises(ValueError):
        quot_series((1.9, 1, 1), 2)
    with pytest.raises(ValueError):
        ReflexiveParams.of((True, 1, 1))
    with pytest.raises(ValueError):
        ReflexiveParams(1, 1, True)
    with pytest.raises(ValueError):
        quot_series((True, 1, 1), 1)
    # weights and windows are read as ints too, never truncated
    for bad_w in [(1.9, 1, 1), (0.9, 1, 1), (True, 1, 1), (1, 1), 5]:
        with pytest.raises(ValueError):
            fiber_dim((1, 1, 1), bad_w)
        with pytest.raises(ValueError):
            fiber((1, 1, 1), bad_w)
    for bad_window in [-1, True, 2.0, ((1, 1, 1), (0, 3, 3)), ((0, 0, 0.5), (1, 1, 1))]:
        with pytest.raises(ValueError):
            check_cosection_quotient((1, 1, 1), bad_window)
        with pytest.raises(ValueError):
            check_resolution_dims((1, 1, 1), bad_window)
    p = ReflexiveParams.of([2, 1, 3])
    assert tuple(p) == (2, 1, 3)
    assert p.triple == (2, 1, 3)
    assert p.box_volume == 6
    assert ReflexiveParams.of(p) is p


def test_generator_weights():
    p = ReflexiveParams(2, 3, 4)
    assert p.generator_weights() == ((2, 3, 0), (2, 0, 4), (0, 3, 4))


def test_fiber_cases():
    v = (1, 1, 1)
    at_origin = fiber(v, (0, 0, 0))
    assert at_origin.dim == 0 and at_origin.basis == ()
    single = fiber(v, (1, 1, 0))
    assert single.dim == 1
    assert single.present == frozenset({1})
    assert single.basis == ((1, 0, 0),)
    assert single.relation is None
    triple = fiber(v, (1, 1, 1))
    assert triple.dim == 2
    assert triple.present == frozenset({1, 2, 3})
    assert triple.basis == ((1, 0, 0), (0, 1, 0))
    assert triple.relation == (1, 1, 1)


def test_fiber_respects_v():
    v = (2, 1, 3)
    assert fiber_dim(v, (2, 1, 0)) == 1
    assert fiber_dim(v, (1, 1, 3)) == 1  # above (0, 1, 3) only
    assert fiber_dim(v, (1, 1, 2)) == 0
    assert fiber_dim(v, (2, 1, 3)) == 2
    assert fiber_dim(v, (5, 5, 5)) == 2


def test_fiber_dim_matches_fiber():
    # the three comparisons against v agree with the generator count
    for v in GRID:
        for w in window(6):
            assert fiber_dim(v, w) == fiber(v, w).dim


def test_present_never_two():
    for v in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]:
        for w in window(max(v) + 2):
            assert len(fiber(v, w).present) in (0, 1, 3)


def test_dim_two_iff_above_v():
    for v in [(1, 1, 1), (2, 2, 1), (1, 2, 3)]:
        for w in window(max(v) + 2):
            above = all(w[i] >= v[i] for i in range(3))
            assert (fiber_dim(v, w) == 2) == above


def test_present_upward_closed():
    v = (2, 1, 2)
    for w in window(4):
        here = fiber(v, w).present
        for k in range(3):
            up = tuple(w[i] + (i == k) for i in range(3))
            assert here <= fiber(v, up).present


def test_mult_matrix_entries_bounded():
    for v in [(1, 1, 1), (2, 1, 2)]:
        for w in window(max(v) + 2):
            for k in (1, 2, 3):
                mm = mult_matrix(v, w, k)
                assert all(e in (-1, 0, 1) for row in mm.matrix for e in row)


def test_mult_matrix_identity_links():
    # the stratum evaluator in quotfixed relies on exactly these shapes:
    # identity between 2-dimensional fibers, and a 1-dimensional fiber
    # landing on one of three fixed lines of a 2-dimensional one
    for v in [(1, 1, 1), (2, 1, 2), (1, 2, 3), (1, 1, 4)]:
        for w in window(max(v) + 2):
            for k in (1, 2, 3):
                mm = mult_matrix(v, w, k)
                if mm.source_dim == 2:
                    assert mm.matrix == ((1, 0), (0, 1))
                elif mm.source_dim == 1 and mm.target_dim == 2:
                    assert mm.matrix in (((1,), (0,)), ((0,), (1,)), ((-1,), (-1,)))


def normalized(x, y):
    """Primitive representative of [x : y], first nonzero entry positive."""
    g = math.gcd(x, y)
    x, y = x // g, y // g
    return (-x, -y) if x < 0 or (x == 0 and y < 0) else (x, y)


def test_image_line_matches_mult_matrix():
    # the module interface against the slow route: every step from a
    # 1-dimensional fiber into a 2-dimensional one lands on image_line(k)
    steps = collections.Counter()
    for v in GRID:
        params = ReflexiveParams.of(v)
        for w in window(6):
            for k in (1, 2, 3):
                mm = mult_matrix(v, w, k)
                if mm.source_dim == 1 and mm.target_dim == 2:
                    (a,), (b,) = mm.matrix
                    assert params.image_line(k) == normalized(a, b)
                    steps[k] += 1
    assert all(steps[k] for k in (1, 2, 3))


def test_mult_matrix_examples():
    v = (1, 1, 1)
    inj1 = mult_matrix(v, (1, 1, 0), 3)
    assert inj1.matrix == ((1,), (0,))
    assert inj1.target == (1, 1, 1)
    inj3 = mult_matrix(v, (0, 1, 1), 1)
    assert inj3.matrix == ((-1,), (-1,))
    ident = mult_matrix(v, (1, 1, 1), 2)
    assert ident.matrix == ((1, 0), (0, 1))
    assert ident.source_dim == ident.target_dim == 2
    along_wall = mult_matrix(v, (1, 1, 0), 1)
    assert along_wall.matrix == ((1,),)
    empty = mult_matrix(v, (0, 0, 0), 1)
    assert empty.target_dim == 0 and empty.source_dim == 0


def test_mult_matrix_rejects_bad_direction():
    for k in (4, 0, True, 1.0, "1"):
        with pytest.raises(ValueError):
            mult_matrix((1, 1, 1), (0, 0, 0), k)
    with pytest.raises(ValueError):
        mult_matrix((1, 1, 1), (1.5, 1, 0), 3)


def _compose(a, b):
    """Matrix product for the small rectangular multiplication matrices."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def test_commuting_squares():
    for v in [(1, 1, 1), (2, 1, 1), (1, 2, 2)]:
        for w in window(max(v) + 2):
            for k1, k2 in itertools.combinations((1, 2, 3), 2):
                first = mult_matrix(v, w, k1)
                one_way = _compose(
                    mult_matrix(v, first.target, k2).matrix, first.matrix
                )
                second = mult_matrix(v, w, k2)
                other_way = _compose(
                    mult_matrix(v, second.target, k1).matrix, second.matrix
                )
                assert one_way == other_way


def test_sing_ideal():
    ideal = sing_ideal((2, 3, 2))
    assert ideal.generators == ((0, 0, 2), (0, 3, 0), (2, 0, 0))
    assert ideal.box is None
    assert ideal.colength() == 12
    assert sing_ideal((1, 1, 1)).colength() == 1


def test_cosection_quotient_windows():
    for v in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 2, 3)]:
        report = check_cosection_quotient(v, max(v) + 3)
        assert report.ok
        assert report.first_mismatch is None


def test_cosection_specific_entries():
    report = check_cosection_quotient((1, 1, 1), 2)
    dims = {e.weight: (e.lhs_dim, e.rhs_dim) for e in report.entries}
    assert dims[(0, 0, 0)] == (0, 0)
    assert dims[(1, 1, 0)] == (1, 1)
    assert dims[(1, 1, 1)] == (1, 1)  # 2-dim fiber minus the removed line
    assert dims[(2, 2, 2)] == (1, 1)


def test_resolution_windows():
    for v in [(1, 1, 1), (2, 2, 1), (1, 2, 3)]:
        report = check_resolution_dims(v, max(v) + 3)
        assert report.ok


def test_resolution_specific_entries():
    report = check_resolution_dims((2, 2, 1), 3)
    dims = {e.weight: (e.lhs_dim, e.rhs_dim) for e in report.entries}
    assert dims[(2, 2, 0)] == (1, 1)
    assert dims[(2, 2, 1)] == (3, 3)
    assert dims[(0, 0, 0)] == (0, 0)


def test_window_pair_form():
    report = check_cosection_quotient((1, 1, 1), ((1, 1, 1), (3, 3, 3)))
    assert report.ok
    assert len(report.entries) == 27


def test_report_json_and_mismatch():
    report = check_cosection_quotient((1, 1, 1), 1)
    data = json.loads(report.to_json())
    assert len(data) == 8
    assert all(set(d) == {"weight", "lhs_dim", "rhs_dim", "ok"} for d in data)
    assert all(d["ok"] for d in data)

    broken = DimCheckReport(
        "synthetic", [DimCheckEntry((0, 0, 0), 1, 0), DimCheckEntry((1, 0, 0), 2, 2)]
    )
    assert not broken.ok
    assert broken.first_mismatch.weight == (0, 0, 0)
    assert json.loads(broken.to_json())[0]["ok"] is False
