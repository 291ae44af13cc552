import collections
import itertools
import json
import math

import pytest

from conftest import GRID
import quotbox
from quotbox import verify
from quotbox.reflexive import (
    ReflexiveParams,
    fiber,
    fiber_dim,
    mult_matrix,
    sing_ideal,
)
from quotbox.partitions import GuardExceeded
from quotbox.quotfixed import _window, quot_series
from quotbox.verify import (
    VerificationReport,
    check_cosection_quotient,
    check_resolution_dims,
)


def window(hi):
    return itertools.product(range(hi + 1), repeat=3)


def rule_dim(v, w):
    """The fiber dimension by the rule of the ``reflexive`` docstring,
    written out again here: 2 if w >= v, 1 if w >= 0 lies below v in one
    coordinate only, 0 otherwise."""
    below = sum(wk < vk for wk, vk in zip(w, v))
    if below == 0:
        return 2
    return 1 if below == 1 and min(w) >= 0 else 0


def step(w, k):
    """w + e_k, the target of multiplication by x_k from w."""
    return tuple(wi + (i == k) for i, wi in enumerate(w, 1))


def dims(report, lo, hi):
    """The two sides of a presentation report at each weight of the box
    [lo, hi], which the report lists in lex order."""
    weights = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    assert len(report.lhs) == len(report.rhs) == len(weights)
    return dict(zip(weights, zip(report.lhs, report.rhs)))


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
    # a window of one or three triples says what a window is, read from a
    # report too
    report = json.loads(check_cosection_quotient((1, 1, 1), 1).to_json())
    for bad_window in [((0, 0, 0),), ((0, 0, 0), (1, 1, 1), (2, 2, 2))]:
        for check in (check_cosection_quotient, check_resolution_dims):
            with pytest.raises(ValueError, match="a window is an int or two triples"):
                check((1, 1, 1), bad_window)
        text = json.dumps(dict(report, params={"v": [1, 1, 1], "window": bad_window}))
        with pytest.raises(ValueError, match="a window is an int or two triples"):
            VerificationReport.from_json(text)
    p = ReflexiveParams.of([2, 1, 3])
    assert tuple(p) == (2, 1, 3)
    assert p.triple == (2, 1, 3)
    assert ReflexiveParams.of(p) is p


def test_generator_weights():
    p = ReflexiveParams(2, 3, 4)
    assert p.generator_weights() == ((2, 3, 0), (2, 0, 4), (0, 3, 4))


def test_fiber_cases():
    v = (1, 1, 1)
    assert fiber(v, (0, 0, 0)) == ()
    # a weight below v in coordinate k only holds the line _LINES[k-1]
    assert fiber(v, (1, 1, 0)) == ((1, 0),)
    assert fiber_dim(v, (1, 1, 0)) == 1
    assert fiber(v, (1, 0, 1)) == ((0, 1),)
    assert fiber(v, (0, 1, 1)) == ((1, 1),)
    assert fiber(v, (1, 1, 1)) == ((1, 0), (0, 1))
    assert fiber_dim(v, (1, 1, 1)) == 2
    # off the orthant, even below v in one coordinate only
    assert fiber(v, (-1, 5, 5)) == ()


def test_fiber_respects_v():
    v = (2, 1, 3)
    assert fiber_dim(v, (2, 1, 0)) == 1
    assert fiber_dim(v, (1, 1, 3)) == 1  # above (0, 1, 3) only
    assert fiber_dim(v, (1, 1, 2)) == 0
    assert fiber_dim(v, (2, 1, 3)) == 2
    assert fiber_dim(v, (5, 5, 5)) == 2


def test_fiber_dim_matches_fiber():
    # at every weight, negative ones included, and so does the rule
    # written out in rule_dim
    for v in GRID:
        for w in itertools.product(range(-2, 7), repeat=3):
            dim = len(fiber(v, w))
            assert fiber_dim(v, w) == rule_dim(v, w) == dim, (v, w)
    params = ReflexiveParams(1, 1, 1)
    for w in [(-1, 5, 5), (5, -1, 5), (5, 5, -1)]:
        assert fiber_dim(params, w) == rule_dim(params.triple, w) == 0


@pytest.mark.parametrize("v", GRID + [(1, 1, 8), (8, 2, 1)])
def test_fiber_masks_match_dim_at(v):
    # every weight of the packing window of each order 0 .. 8 against the
    # rule written out in rule_dim, and no bit past the window
    params = ReflexiveParams(*v)
    for order in range(9):
        n1, n2, n3 = _window(params, order)
        d1, d2 = params.fiber_masks((n1, n2, n3))
        for x, w in enumerate(itertools.product(range(n1), range(n2), range(n3))):
            dim = rule_dim(v, w)
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
            source = fiber(v, w)
            for k in (1, 2, 3):
                matrix = mult_matrix(v, w, k)
                target = fiber(v, step(w, k))
                assert len(matrix) == len(target), (v, w, k)
                assert all(len(row) == len(source) for row in matrix), (v, w, k)
                for j, vec in enumerate(source):
                    col = [row[j] for row in matrix]
                    image = tuple(sum(c * b[i] for c, b in zip(col, target)) for i in (0, 1))
                    assert image == vec, (v, w, k)


def test_mult_matrix_entries_bounded():
    for v in [(1, 1, 1), (2, 1, 2)]:
        for w in window(max(v) + 2):
            for k in (1, 2, 3):
                matrix = mult_matrix(v, w, k)
                assert all(e in (0, 1) for row in matrix for e in row)


def test_mult_matrix_identity_links():
    # the stratum evaluator in quotfixed relies on exactly these shapes:
    # identity between 2-dimensional fibers, and a 1-dimensional fiber
    # landing on one of three fixed lines of a 2-dimensional one
    for v in [(1, 1, 1), (2, 1, 2), (1, 2, 3), (1, 1, 4)]:
        for w in window(max(v) + 2):
            for k in (1, 2, 3):
                matrix = mult_matrix(v, w, k)
                dims = len(fiber(v, w)), len(fiber(v, step(w, k)))
                if dims[0] == 2:
                    assert matrix == ((1, 0), (0, 1))
                elif dims == (1, 2):
                    assert matrix in (((1,), (0,)), ((0,), (1,)), ((1,), (1,)))


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
    # lines that fiber and image_line both read: the fiber at g_i is
    # spanned by e_i, and every step along e_k from a 1-dimensional fiber
    # into a 2-dimensional one lands on the class of e_(4-k)
    assert [presentation_class(i) for i in (1, 2, 3)] == [(1, 0), (0, 1), (-1, -1)]
    steps = collections.Counter()
    for v in GRID:
        params = ReflexiveParams.of(v)
        for i, g in enumerate(params.generator_weights(), 1):
            (vec,) = fiber(v, g)
            assert normalized(*vec) == normalized(*presentation_class(i)), (v, i)
        for w in window(6):
            for k in (1, 2, 3):
                if (len(fiber(v, w)), len(fiber(v, step(w, k)))) == (1, 2):
                    (a,), (b,) = mult_matrix(v, w, k)
                    line = normalized(*presentation_class(4 - k))
                    assert normalized(a, b) == params.image_line(k) == line, (v, w, k)
                    steps[k] += 1
    assert all(steps[k] for k in (1, 2, 3))


def test_mult_matrix_examples():
    v = (1, 1, 1)
    assert mult_matrix(v, (1, 1, 0), 3) == ((1,), (0,))
    assert step((1, 1, 0), 3) == (1, 1, 1)
    assert mult_matrix(v, (0, 1, 1), 1) == ((1,), (1,))
    assert mult_matrix(v, (1, 1, 1), 2) == ((1, 0), (0, 1))
    assert len(fiber(v, (1, 1, 1))) == len(fiber(v, (1, 2, 1))) == 2
    assert mult_matrix(v, (1, 1, 0), 1) == ((1,),)
    assert mult_matrix(v, (0, 0, 0), 1) == ()
    assert len(fiber(v, (0, 0, 0))) == len(fiber(v, (1, 0, 0))) == 0


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
                one_way = _compose(
                    mult_matrix(v, step(w, k1), k2), mult_matrix(v, w, k1)
                )
                other_way = _compose(
                    mult_matrix(v, step(w, k2), k1), mult_matrix(v, w, k2)
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
    d = dims(report, (0, 0, 0), (2, 2, 2))
    assert d[(0, 0, 0)] == (0, 0)
    assert d[(1, 1, 0)] == (1, 1)
    assert d[(1, 1, 1)] == (1, 1)  # 2-dim fiber minus the removed line
    assert d[(2, 2, 2)] == (1, 1)


def test_resolution_windows():
    for v in [(1, 1, 1), (2, 2, 1), (1, 2, 3)]:
        report = check_resolution_dims(v, max(v) + 3)
        assert report.ok


def test_resolution_specific_entries():
    report = check_resolution_dims((2, 2, 1), 3)
    d = dims(report, (0, 0, 0), (3, 3, 3))
    assert d[(2, 2, 0)] == (1, 1)
    assert d[(2, 2, 1)] == (3, 3)
    assert d[(0, 0, 0)] == (0, 0)


def test_window_pair_form():
    report = check_cosection_quotient((1, 1, 1), ((1, 1, 1), (3, 3, 3)))
    assert report.ok
    assert len(report.lhs) == 27
    assert dims(report, (1, 1, 1), (3, 3, 3))[(1, 1, 1)] == (1, 1)
    assert report.params == {"v": [1, 1, 1], "window": [[1, 1, 1], [3, 3, 3]]}
    # weights off the orthant: every fiber there is 0, and so is each side
    for check in (check_cosection_quotient, check_resolution_dims):
        report = check((1, 1, 1), ((-1, -1, -1), (3, 3, 3)))
        assert report.ok and len(report.lhs) == 125, check.__name__
        assert dims(report, (-1, -1, -1), (3, 3, 3))[(-1, 2, 2)] == (0, 0)


def test_window_guard(monkeypatch):
    # the weight count is checked before any weight is listed
    for check in (check_cosection_quotient, check_resolution_dims):
        with pytest.raises(GuardExceeded, match=r"window of 1030301 weights, guard is 1000000"):
            check((1, 1, 1), 100)
        with pytest.raises(GuardExceeded, match="1030301"):
            check((1, 1, 1), ((0, 0, 0), (100, 100, 100)))
    # a window of exactly the bound runs, a larger one does not
    monkeypatch.setattr(verify, "WINDOW_GUARD", 27)
    assert check_cosection_quotient((1, 1, 1), 2).ok
    with pytest.raises(GuardExceeded):
        check_cosection_quotient((1, 1, 1), ((0, 0, 0), (2, 2, 3)))


def test_report_json_and_mismatch(monkeypatch):
    report = check_cosection_quotient((1, 1, 1), 1)
    data = json.loads(report.to_json())
    assert len(data["lhs"]) == len(data["rhs"]) == 8
    assert data["claim"] == "cosection_quotient"
    assert data["params"] == {"v": [1, 1, 1], "window": 1}
    assert data["status"] == "pass" and data["first_mismatch"] is None
    # the checks are verification reports, reached from the package root
    assert quotbox.check_cosection_quotient is verify.check_cosection_quotient
    assert quotbox.check_resolution_dims is verify.check_resolution_dims
    assert not hasattr(quotbox, "DimCheckReport")
    # both checks read back as an equal report, at an int and a pair window
    for check in (check_cosection_quotient, check_resolution_dims):
        for win in (3, ((-1, 0, 0), (2, 3, 1)), [[0, 0, 0], [1, 2, 3]]):
            report = check((2, 1, 1), win)
            assert report.ok
            assert VerificationReport.from_json(report.to_json()) == report
    # a stored window is one the checks accept, so summary() can decode it
    for bad in ("2", True, -1, [[0, 0, 0]], [[1, 1, 1], [0, 0, 0]], [[0, 0], [1, 1]]):
        params = {"v": [1, 1, 1], "window": bad}
        with pytest.raises(ValueError):
            VerificationReport.from_json(json.dumps(dict(data, params=params)))

    # fiber_dim off by one at one weight: each check fails there, at the
    # weight's index in the window's lex order
    bad = (1, 2, 0)
    true_dim = verify.fiber_dim
    monkeypatch.setattr(verify, "fiber_dim", lambda v, w: true_dim(v, w) + (w == bad))
    index = list(window(2)).index(bad)
    offset = ((1, 1, 0), (2, 3, 1))  # bad is at index 2 of this box's lex order
    for check in (check_cosection_quotient, check_resolution_dims):
        for win, at in ((2, index), (((0, 0, 0), (2, 2, 2)), index), (offset, 2)):
            report = check((1, 1, 1), win)
            assert report.status == "fail" and report.first_mismatch == at, check.__name__
            assert VerificationReport.from_json(report.to_json()) == report
            # the summary names the weight, not a colength n{index}
            assert " first_mismatch=(1, 2, 0) " in report.summary(), report.summary()
