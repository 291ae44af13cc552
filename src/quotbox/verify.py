"""End-to-end verification claims, each comparing independent routes.

Every checker returns a VerificationReport with the two lists it
compared, a pass or fail status, the first mismatching index if any,
and the wall time spent.  Reports serialize to JSON so runs can be
archived and diffed.

Claims:

* ``product``: the stratification engine's colength series equals the
  closed form macmahon^2 * box_product, coefficient by coefficient.
* ``stanley``: box-bounded plane partition counts agree three ways, by
  direct enumeration, by transfer-matrix DP, and by the classical
  product formula.
* ``hilb``: monomial ideals of the fat-point quotient ring, counted by
  colength via antichain enumeration, match box-bounded partition counts,
  with the palindromic degree-v1*v2*v3 count vector.
* ``rank2free``: ordered pairs of plane partitions counted by total size
  match the coefficients of macmahon^2 (the free rank-2 baseline).
* ``cosection_quotient`` and ``resolution_dims``: R0's presentation (the
  Serre correspondence's side) against its fibers.  lhs and rhs are the
  dimensions at the weights of a window in lex order, and first_mismatch
  is the index of a weight in that order.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields

from .partitions import (
    PLANE_PARTITION_GUARD, _guarded, box_partition_polynomial_dp, count_box_partitions,
    count_partition_pairs, enumerate_box_monomial_ideals,
)
from .quotfixed import COLENGTH_GUARD, quot_series
from .reflexive import ReflexiveParams, fiber_dim, line_submodule_dim
from .series import TruncatedSeries, _dominates, _int, _triple
from .series import box_product, macmahon, quot_closed_form

__all__ = [
    "VerificationReport", "check_cosection_quotient", "check_resolution_dims",
    "verify_hilb_counts", "verify_product_formula", "verify_rank2_free",
    "verify_stanley",
]

WINDOW_GUARD = 1_000_000  # bound on the weights of a presentation check's window


@dataclass
class VerificationReport:
    """Outcome of one verification claim."""

    claim: str
    params: dict
    lhs: list[int]
    rhs: list[int]
    status: str
    first_mismatch: int | None
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Read what to_json writes: claim a string, params an object
        (whose window, if any, is nonempty), wall_time a finite number >= 0,
        lhs and rhs lists of ints, status "pass" or "fail", and
        first_mismatch the first index where they differ (null when they
        agree, as on every pass); a float or a bool there is a ValueError
        rather than a truncated value.  A "fail" with equal lists stays
        legal, since a claim can fail an extra check."""
        data, names = json.loads(text), [f.name for f in fields(cls)]
        if type(data) is not dict or not data.keys() >= set(names):
            raise ValueError(f"expected an object with keys {names}, got {data!r}")
        report = cls(*map(data.get, names))
        kinds = type(report.claim), type(report.params), type(report.wall_time)
        if kinds not in [(str, dict, int), (str, dict, float)]:
            raise ValueError("claim, params, wall_time must be a str, a dict, a number")
        if "window" in report.params:
            _window_box(report.params["window"])
        if not 0 <= report.wall_time < float("inf"):
            raise ValueError(f"wall_time {report.wall_time!r} is not finite and >= 0")
        for key in ("lhs", "rhs"):
            values = getattr(report, key)
            if type(values) is not list:
                raise ValueError(f"{key} must be a list of ints, got {values!r}")
            for c in values:
                _int(c, f"{key} entries")
        mism = report.first_mismatch
        if mism is not None:
            _int(mism, "first_mismatch")
        if mism != _first_diff(report.lhs, report.rhs):
            raise ValueError(f"first_mismatch {mism!r} is not where lhs and rhs differ")
        if report.status not in ("pass", "fail") or report.ok and mism is not None:
            raise ValueError(f"bad status {report.status!r} at first_mismatch {mism!r}")
        return report

    def summary(self) -> str:
        """One line: the mismatch is the colength n{i}, or the i-th weight of
        params' window; past the end of one side, that side reads -."""
        line = f"claim={self.claim} params={self.params} status={self.status.upper()}"
        i = self.first_mismatch
        if i is not None:
            lhs, rhs = (s[i] if i < len(s) else "-" for s in (self.lhs, self.rhs))
            at = f"n{i}"
            if "window" in self.params:
                (l1, l2, l3), (_, h2, h3) = _window_box(self.params["window"])
                n2, n3 = h2 - l2 + 1, h3 - l3 + 1
                at = l1 + i // (n2 * n3), l2 + i // n3 % n2, l3 + i % n3
            line += f" first_mismatch={at} lhs={lhs} rhs={rhs}"
        return line + f" wall_time={self.wall_time:.3f}s"


def _first_diff(lhs, rhs) -> int | None:
    for i in range(max(len(lhs), len(rhs))):
        a = lhs[i] if i < len(lhs) else None
        b = rhs[i] if i < len(rhs) else None
        if a != b:
            return i
    return None


def _finish(claim, params, lhs, rhs, start, extra_ok: bool = True) -> VerificationReport:
    mism = _first_diff(lhs, rhs)
    status = "pass" if mism is None and extra_ok else "fail"
    return VerificationReport(
        claim=claim,
        params=params,
        lhs=list(lhs),
        rhs=list(rhs),
        status=status,
        first_mismatch=mism,
        wall_time=time.perf_counter() - start,
    )


def verify_product_formula(
    v, order: int, guard: int = COLENGTH_GUARD
) -> VerificationReport:
    """Engine series against the closed form, up to q^order."""
    params = ReflexiveParams.of(v)
    start = time.perf_counter()
    lhs = list(quot_series(params, order, guard=guard).coeffs)
    rhs = list(quot_closed_form(params.triple, order).coeffs)
    return _finish(
        "product", {"v": list(params.triple), "order": order}, lhs, rhs, start
    )


def verify_stanley(v) -> VerificationReport:
    """Three-way box-bounded partition counts for every size.

    The enumeration (one tally of the box's stacks by size) and the DP
    are both checked against the product formula.  lhs reports the
    enumeration counts when they disagree with the product, and otherwise
    the DP counts, which then equal them.
    """
    v = _triple(v, "box sides", 1)
    start = time.perf_counter()
    brute = count_box_partitions(v)
    dp = list(box_partition_polynomial_dp(v).coeffs)
    prod = list(box_product(v).coeffs)
    lhs = brute if brute != prod else dp
    return _finish("stanley", {"v": list(v)}, lhs, prod, start)


def verify_hilb_counts(v) -> VerificationReport:
    """Fat-point monomial ideal counts against box-bounded partitions.

    Also requires the count vector to have degree exactly v1*v2*v3 and to
    be palindromic; both are properties of the matching, not extra input.
    """
    v = _triple(v, "box sides", 1)
    start = time.perf_counter()
    order = v[0] * v[1] * v[2]
    by_colength = [0] * (order + 1)
    for ideal in enumerate_box_monomial_ideals(v):
        by_colength[ideal.colength()] += 1
    boxes = count_box_partitions(v)
    counts = TruncatedSeries(order, by_colength)
    extra_ok = counts.degree() == order and counts.is_palindromic()
    return _finish("hilb", {"v": list(v)}, by_colength, boxes, start, extra_ok)


def verify_rank2_free(
    order: int, guard: int = PLANE_PARTITION_GUARD
) -> VerificationReport:
    """Pair counts against macmahon^2, the series of the free rank-2 case."""
    start = time.perf_counter()
    lhs = count_partition_pairs(order, guard=guard)
    m = macmahon(order)
    rhs = list((m * m).coeffs)
    return _finish("rank2free", {"order": order}, lhs, rhs, start)


def _window_box(window) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(lo, hi) of a window: an int m >= 0 means [0, m]^3, a pair (lo, hi)
    of triples the closed box between them; anything else, or an empty
    box, is a ValueError."""
    if not isinstance(window, (tuple, list)):
        return (0, 0, 0), (_int(window, "window", 0),) * 3
    if len(window) != 2:
        raise ValueError(f"a window is an int or two triples, got {window!r}")
    lo, hi = (_triple(t, "window") for t in window)
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"empty window from {lo} to {hi}")
    return lo, hi


def _dims(claim, params, window, lhs, rhs) -> VerificationReport:
    """Compare lhs(w) with rhs(w) at each weight w of the window, in lex
    order.  An empty window is a ValueError, so no check passes vacuously,
    and one of more than WINDOW_GUARD weights is GuardExceeded, both before
    any weight is listed.  The report keeps the window as JSON writes it."""
    start = time.perf_counter()
    lo, hi = _window_box(window)
    count = math.prod(b - a + 1 for a, b in zip(lo, hi))
    _guarded(count, WINDOW_GUARD, "window of {} weights")
    weights = list(itertools.product(*map(range, lo, (b + 1 for b in hi))))
    stored = {"v": list(params.triple),
              "window": [list(lo), list(hi)] if isinstance(window, (tuple, list)) else window}
    return _finish(claim, stored, [*map(lhs, weights)], [*map(rhs, weights)], start)


def check_cosection_quotient(v, window) -> VerificationReport:
    """Check dim (R0 / line submodule)_w == dim (ideal of the three
    doubled walls)_w over the window.

    The right side is the monomial ideal
    (x1^v1 x2^v2, x1^v1 x3^v3, x2^v2 x3^v3): its weight-w piece has
    dimension 1 exactly when w dominates one of the generator weights.
    """
    params = ReflexiveParams.of(v)
    gens = params.generator_weights()
    return _dims(
        "cosection_quotient", params, window,
        lambda w: fiber_dim(params, w) - line_submodule_dim(params, w),
        lambda w: int(any(_dominates(w, g) for g in gens)),
    )


def check_resolution_dims(v, window) -> VerificationReport:
    """Check the graded Euler identity of the presentation
    0 -> L -> N1 + N2 + N3 -> R0 -> 0 over the window.

    N_i is free of rank one on the cone above g_i, L is the line module on
    the cone above v, so the identity reads

        sum_i [w >= g_i]  ==  [w >= v] + dim (R0)_w.
    """
    params = ReflexiveParams.of(v)
    gens = params.generator_weights()
    return _dims(
        "resolution_dims", params, window,
        lambda w: sum(_dominates(w, g) for g in gens),
        lambda w: line_submodule_dim(params, w) + fiber_dim(params, w),
    )
