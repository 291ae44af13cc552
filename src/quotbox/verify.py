"""End-to-end verification claims, each comparing independent routes.

Every checker returns a VerificationReport with the two coefficient lists
it compared, a pass or fail status, the first mismatching index if any,
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
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields

from .partitions import (
    PLANE_PARTITION_GUARD,
    count_box_partitions,
    count_partition_pairs,
    box_partition_polynomial_dp,
    enumerate_box_monomial_ideals,
)
from .quotfixed import COLENGTH_GUARD, quot_series
from .reflexive import ReflexiveParams
from .series import _json_fields, box_product, macmahon, quot_closed_form

__all__ = [
    "VerificationReport", "verify_hilb_counts", "verify_product_formula",
    "verify_rank2_free", "verify_stanley",
]


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
        """Read what to_json writes: claim a string, params an object,
        wall_time a finite number >= 0, lhs and rhs lists of ints, status
        "pass" or "fail", and first_mismatch the first index where they
        differ (null when they agree, as on every pass); a float or a bool
        there is a ValueError rather than a truncated value.  A "fail" with
        equal lists stays legal, since a claim can fail an extra check."""
        report = cls(*_json_fields(json.loads(text), *(f.name for f in fields(cls))))
        kinds = type(report.claim), type(report.params), type(report.wall_time)
        if kinds not in [(str, dict, int), (str, dict, float)]:
            raise ValueError("claim, params, wall_time must be a str, a dict, a number")
        if not 0 <= report.wall_time < float("inf"):
            raise ValueError(f"wall_time {report.wall_time!r} is not finite and >= 0")
        for key in ("lhs", "rhs"):
            values = getattr(report, key)
            if type(values) is not list or any(type(c) is not int for c in values):
                raise ValueError(f"{key} must be a list of ints, got {values!r}")
        mism = report.first_mismatch
        if mism is not None and type(mism) is not int:
            raise ValueError(f"first_mismatch must be an int or null, got {mism!r}")
        if mism != _first_diff(report.lhs, report.rhs):
            raise ValueError(f"first_mismatch {mism!r} is not where lhs and rhs differ")
        if report.status not in ("pass", "fail") or report.ok and mism is not None:
            raise ValueError(f"bad status {report.status!r} at first_mismatch {mism!r}")
        return report

    def summary(self) -> str:
        """One line; at a mismatch past the end of one side, that side
        reads -."""
        line = f"claim={self.claim} params={self.params} status={self.status.upper()}"
        i = self.first_mismatch
        if i is not None:
            lhs, rhs = (s[i] if i < len(s) else "-" for s in (self.lhs, self.rhs))
            line += f" first_mismatch=n{i} lhs={lhs} rhs={rhs}"
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
    params = ReflexiveParams.of(v)
    start = time.perf_counter()
    brute = count_box_partitions(params.triple)
    dp = list(box_partition_polynomial_dp(params.triple).coeffs)
    prod = list(box_product(params.triple).coeffs)
    lhs = brute if brute != prod else dp
    return _finish("stanley", {"v": list(params.triple)}, lhs, prod, start)


def verify_hilb_counts(v) -> VerificationReport:
    """Fat-point monomial ideal counts against box-bounded partitions.

    Also requires the count vector to have degree exactly v1*v2*v3 and to
    be palindromic; both are properties of the matching, not extra input.
    """
    params = ReflexiveParams.of(v)
    start = time.perf_counter()
    order = params.box_volume
    by_colength = [0] * (order + 1)
    for ideal in enumerate_box_monomial_ideals(params.triple):
        by_colength[ideal.colength()] += 1
    boxes = count_box_partitions(params.triple)
    extra_ok = by_colength[order] != 0 and by_colength == by_colength[::-1]
    return _finish(
        "hilb", {"v": list(params.triple)}, by_colength, boxes, start, extra_ok
    )


def verify_rank2_free(
    order: int, guard: int = PLANE_PARTITION_GUARD
) -> VerificationReport:
    """Pair counts against macmahon^2, the series of the free rank-2 case."""
    start = time.perf_counter()
    lhs = count_partition_pairs(order, guard=guard)
    m = macmahon(order)
    rhs = list((m * m).coeffs)
    return _finish("rank2free", {"order": order}, lhs, rhs, start)
