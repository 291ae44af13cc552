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
from quotbox.quotfixed import _window, quot_series


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
    # a weight below v in coordinate k only holds the line _LINES[k-1]
    single = fiber(v, (1, 1, 0))
    assert single.weight == (1, 1, 0)
    assert single.dim == 1
    assert single.basis == ((1, 0),)
    assert fiber(v, (1, 0, 1)).basis == ((0, 1),)
    assert fiber(v, (0, 1, 1)).basis == ((1, 1),)
    plane = fiber(v, (1, 1, 1))
    assert plane.dim == 2
    assert plane.basis == ((1, 0), (0, 1))
    # off the orthant, even below v in one coordinate only
    off = fiber(v, (-1, 5, 5))
    assert off.dim == 0 and off.basis == ()


def test_fiber_respects_v():
    v = (2, 1, 3)
    assert fiber_dim(v, (2, 1, 0)) == 1
    assert fiber_dim(v, (1, 1, 3)) == 1  # above (0, 1, 3) only
    assert fiber_dim(v, (1, 1, 2)) == 0
    assert fiber_dim(v, (2, 1, 3)) == 2
    assert fiber_dim(v, (5, 5, 5)) == 2


def test_fiber_dim_matches_fiber():
    # at every weight, negative ones included, and so does the reference's
    # closed form dim_at
    for v in GRID:
        params = ReflexiveParams.of(v)
        for w in itertools.product(range(-2, 7), repeat=3):
            dim = fiber(v, w).dim
            assert fiber_dim(v, w) == params.dim_at(*w) == dim, (v, w)
    params = ReflexiveParams(1, 1, 1)
    for w in [(-1, 5, 5), (5, -1, 5), (5, 5, -1)]:
        assert fiber_dim(params, w) == params.dim_at(*w) == 0


@pytest.mark.parametrize("v", GRID + [(1, 1, 8), (8, 2, 1)])
def test_fiber_masks_match_dim_at(v):
    # every weight of the packing window of each order 0 .. 8, and no bit
    # past the window
    params = ReflexiveParams(*v)
    for order in range(9):
        n1, n2, n3 = _window(params, order)
        d1, d2 = params.fiber_masks((n1, n2, n3))
        for x, w in enumerate(itertools.product(range(n1), range(n2), range(n3))):
            dim = params.dim_at(*w)
            assert (d1 >> x & 1, d2 >> x & 1) == (dim == 1, dim == 2), (order, w)
        assert (d1 | d2) >> n1 * n2 * n3 == 0


def test_dim_two_iff_above_v():
    for v in [(1, 1, 1), (2, 2, 1), (1, 2, 3)]:
        for w in window(max(v) + 2):
            above = all(w[i] >= v[i] for i in range(3))
            assert (fiber_dim(v, w) == 2) == above


def test_mult_matrix_is_inclusion():
    # F_w <= F_{w+e_k}: each source basis vector is the target basis times
    # its column, so a nonzero fiber's successor contains it
    for v in GRID + [(1, 1, 8), (8, 2, 1)]:
        for w in itertools.product(range(-1, max(v) + 2), repeat=3):
            source = fiber(v, w).basis
            for k in (1, 2, 3):
                mm = mult_matrix(v, w, k)
                target = fiber(v, mm.target).basis
                assert mm.target_dim == len(target), (v, w, k)
                assert all(len(row) == len(source) for row in mm.matrix), (v, w, k)
                for j, vec in enumerate(source):
                    col = [row[j] for row in mm.matrix]
                    image = tuple(sum(c * b[i] for c, b in zip(col, target)) for i in (0, 1))
                    assert image == vec, (v, w, k)


def test_mult_matrix_entries_bounded():
    for v in [(1, 1, 1), (2, 1, 2)]:
        for w in window(max(v) + 2):
            for k in (1, 2, 3):
                mm = mult_matrix(v, w, k)
                assert all(e in (0, 1) for row in mm.matrix for e in row)


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
                    assert mm.matrix in (((1,), (0,)), ((0,), (1,)), ((1,), (1,)))


def normalized(x, y):
    """Primitive representative of [x : y], first nonzero entry positive."""
    g = math.gcd(x, y)
    x, y = x // g, y // g
    return (-x, -y) if x < 0 or (x == 0 and y < 0) else (x, y)


def presentation_class(i):
    """Class of the generator e_i in C^3 / (1, 1, 1), in the basis (class
    of e1, class of e2): a label vector (a, b, c) goes to (a - c, b - c)."""
    a, b, c = (int(j == i) for j in (1, 2, 3))
    return (a - c, b - c)


def test_image_line_matches_mult_matrix():
    # the lines against R0's presentation, computed here, not against the
    # table that fiber and image_line both read: the fiber at g_i is
    # spanned by e_i, and every step along e_k from a 1-dimensional fiber
    # into a 2-dimensional one lands on the class of e_(4-k)
    assert [presentation_class(i) for i in (1, 2, 3)] == [(1, 0), (0, 1), (-1, -1)]
    steps = collections.Counter()
    for v in GRID:
        params = ReflexiveParams.of(v)
        for i, g in enumerate(params.generator_weights(), 1):
            (vec,) = fiber(v, g).basis
            assert normalized(*vec) == normalized(*presentation_class(i)), (v, i)
        for w in window(6):
            for k in (1, 2, 3):
                mm = mult_matrix(v, w, k)
                if mm.source_dim == 1 and mm.target_dim == 2:
                    (a,), (b,) = mm.matrix
                    line = normalized(*presentation_class(4 - k))
                    assert normalized(a, b) == params.image_line(k) == line, (v, w, k)
                    steps[k] += 1
    assert all(steps[k] for k in (1, 2, 3))


def test_mult_matrix_examples():
    v = (1, 1, 1)
    inj1 = mult_matrix(v, (1, 1, 0), 3)
    assert inj1.matrix == ((1,), (0,))
    assert inj1.target == (1, 1, 1)
    inj3 = mult_matrix(v, (0, 1, 1), 1)
    assert inj3.matrix == ((1,), (1,))
    ident = mult_matrix(v, (1, 1, 1), 2)
    assert ident.matrix == ((1, 0), (0, 1))
    assert ident.source_dim == ident.target_dim == 2
    along_wall = mult_matrix(v, (1, 1, 0), 1)
    assert along_wall.matrix == ((1,),)
    empty = mult_matrix(v, (0, 0, 0), 1)
    assert empty.target_dim == 0 and empty.source_dim == 0


def test_mult_matrix_rejects_bad_direction():
    # and so does image_line, which would read k = 0 as the line of k = 3
    for k in (4, 0, -1, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="direction k"):
            mult_matrix((1, 1, 1), (0, 0, 0), k)
        with pytest.raises(ValueError, match="direction k"):
            ReflexiveParams.image_line(k)
        with pytest.raises(ValueError, match="direction k"):
            ReflexiveParams(2, 1, 1).image_line(k)
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
    # weights off the orthant: every fiber there is 0, and so is each side
    for check in (check_cosection_quotient, check_resolution_dims):
        report = check((1, 1, 1), ((-1, -1, -1), (3, 3, 3)))
        assert report.ok and len(report.entries) == 125, check.__name__


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
